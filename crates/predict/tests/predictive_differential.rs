//! Differential suite: the predictive relation vs the HB relation.
//!
//! Three contracts, over every catalog app plus a slice of the
//! generated corpus:
//!
//! * **Weaker, never stronger.** The predictive order is a subset of
//!   the observed-trace HB order: any pair the predictive relation
//!   orders, HB orders the same way, and somewhere in the corpus the
//!   containment is strict (the conflict gate actually dropped
//!   orderings). HB here is `derive_naive`'s materialized relation,
//!   the same loop the predictive order runs gated; the demand engine
//!   that analysis queries is pinned to it by `cafa-hb`'s
//!   `demand_differential`. The report-level corollary: every HB race appears in
//!   the predictive section classified `both` — the weaker relation
//!   cannot lose a race the stronger one found.
//! * **Deterministic.** `--detector both` reports are byte-identical
//!   at `--threads` 1, 2, and 8. (A subset sweeps here; ci.sh sweeps
//!   the full 50-app generated corpus with the release binary.)
//! * **Bit-untouched default.** The HB section of a both-mode report
//!   equals the default-backend report, which equals the pinned golden
//!   report bytes for the ten paper apps.
//!
//! The corpus is recorded once and the both-mode baseline analyses run
//! once, shared across tests through a `OnceLock` — on a single-core
//! debug runner the redundant re-analysis dominates the suite's cost
//! otherwise.

use std::sync::OnceLock;

use cafa_core::{Analyzer, DetectorConfig, DetectorKind, PredictClass, RaceReport};
use cafa_hb::bitset::BitSet;
use cafa_hb::{base_graph, derive_naive, CausalityConfig, NodeId, SyncGraph};
use cafa_predict::PredictModel;
use cafa_trace::Trace;

/// The catalog plus the first six seed-7 generated apps (the slice CI
/// pins; it plants both lock-handoff and fifo-handoff patterns), each
/// paired with its both-mode report at `--threads 1`.
fn shared() -> &'static [(Trace, RaceReport)] {
    static CORPUS: OnceLock<Vec<(Trace, RaceReport)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut corpus = Vec::new();
        let mut traces = Vec::new();
        for app in cafa_apps::all_apps() {
            let outcome = app.record(0).expect("catalog records cleanly");
            traces.push(outcome.trace.expect("instrumentation is on"));
        }
        for idx in 0..6 {
            let app = cafa_apps::resolve(&format!("gen:7:{idx}")).expect("gen slots resolve");
            let outcome = app.record(7).expect("generated workloads run clean");
            traces.push(outcome.trace.expect("instrumentation is on"));
        }
        for trace in traces {
            let report = Analyzer::with_config(both_config(1))
                .analyze(&trace)
                .expect("analysis succeeds");
            corpus.push((trace, report));
        }
        corpus
    })
}

fn both_config(threads: usize) -> DetectorConfig {
    let mut config = DetectorConfig::cafa();
    config.detector = DetectorKind::Both;
    config.threads = threads;
    config
}

/// The nodes reachable from `from` through at least one edge of `g`.
fn reach_from(g: &SyncGraph, from: NodeId, seen: &mut BitSet) {
    seen.clear();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        for (s, _) in g.succs(n) {
            if seen.insert(s as usize) {
                stack.push(s);
            }
        }
    }
}

/// Every `MODEL_STRIDE`-th sampled source also asks
/// `PredictModel::happens_before` about each of its pairs.
const MODEL_STRIDE: usize = 16;

/// The HB side is the naive reference derivation over the CAFA base,
/// searched once per sampled source; `demand_differential` pins the
/// demand engine that analysis queries to that same derivation. The
/// predictive side is searched the same way over the model's graph,
/// and `happens_before` must agree with that search on a fixed subset
/// of sources.
#[test]
fn predictive_order_is_contained_in_hb_order() {
    let mut strict_witness = false;
    for (trace, _) in shared() {
        let config = CausalityConfig::cafa();
        let mut hb = base_graph(trace, &config);
        derive_naive(&mut hb, trace, &config).expect("hb derivation converges");
        let predict = PredictModel::build(trace).expect("predictive model builds");
        let pg = predict.graph();

        // Bounded deterministic sample: stride the op list so the
        // quadratic sweep stays small — the invariant is per-pair, so
        // a spread sample across every trace catches an inversion
        // without a single-core debug runner paying for millions of
        // order queries.
        let ops: Vec<_> = trace.iter_ops().map(|(at, _)| at).collect();
        let stride = (ops.len() / 160).max(1);
        let sample: Vec<_> = ops.into_iter().step_by(stride).collect();
        let mut reach = BitSet::new(hb.node_count());
        let mut preach = BitSet::new(pg.node_count());
        for (i, &a) in sample.iter().enumerate() {
            reach_from(&hb, hb.bracket_after(a), &mut reach);
            reach_from(pg, pg.bracket_after(a), &mut preach);
            for &b in &sample {
                if a == b {
                    continue;
                }
                let program_order = a.index < b.index;
                let (hb_before, predict_before) = if a.task == b.task {
                    (program_order, program_order)
                } else {
                    (
                        reach.contains(hb.bracket_before(b) as usize),
                        preach.contains(pg.bracket_before(b) as usize),
                    )
                };
                if i % MODEL_STRIDE == 0 {
                    assert_eq!(
                        predict.happens_before(a, b),
                        predict_before,
                        "{}: happens_before({a}, {b}) disagrees with a search of the \
                         predictive graph",
                        trace.meta().app
                    );
                }
                if predict_before {
                    assert!(
                        hb_before,
                        "{}: predictive orders {a} -> {b} but HB does not — \
                         the predictive relation must never invent orderings",
                        trace.meta().app
                    );
                } else if hb_before {
                    // HB orders it, predictive dropped it: the strict
                    // part of the containment.
                    strict_witness = true;
                }
            }
        }
    }
    assert!(
        strict_witness,
        "no pair anywhere in the corpus was HB-ordered but predictively \
         concurrent: the relation is not actually weaker"
    );
}

#[test]
fn every_hb_race_survives_into_the_predictive_section_as_both() {
    for (trace, report) in shared() {
        let section = report
            .predictive
            .as_ref()
            .expect("both mode attaches the predictive section");
        for race in &report.races {
            let key = (race.var, race.use_site.read_pc, race.free_site.pc);
            let hit = section.races.iter().find(|p| {
                (p.var, p.use_site.read_pc, p.free_site.pc) == key && p.class == PredictClass::Both
            });
            assert!(
                hit.is_some(),
                "{}: HB race on {} missing from the predictive section — \
                 a weaker relation cannot lose a race the stronger one found",
                trace.meta().app,
                race.var
            );
        }
        // The classification partitions the section: both + only.
        let both = section.count(PredictClass::Both);
        let only = section.count(PredictClass::PredictiveOnly);
        assert_eq!(both + only, section.races.len());
        assert_eq!(both, report.races.len(), "{}", trace.meta().app);
    }
}

#[test]
fn both_mode_reports_are_byte_identical_across_thread_counts() {
    // A spread subset: the largest catalog apps plus the two gen slots
    // whose planted patterns drive the adjudication paths. The full
    // 50-app corpus sweeps at 1/2/8 threads in ci.sh with the release
    // binary, where each sweep costs seconds instead of minutes.
    let subset = [0usize, 6, 9, 10, 11];
    let corpus = shared();
    for &i in &subset {
        let (trace, baseline) = &corpus[i];
        let bytes = cafa_core::json::render_json(baseline, trace);
        assert!(
            bytes.contains("\"predictive\""),
            "{}: both-mode JSON must carry the predictive section",
            trace.meta().app
        );
        for threads in [2, 8] {
            let report = Analyzer::with_config(both_config(threads))
                .analyze(trace)
                .expect("analysis succeeds");
            assert_eq!(
                bytes,
                cafa_core::json::render_json(&report, trace),
                "{}: both-mode report differs between --threads 1 and --threads {threads}",
                trace.meta().app
            );
        }
    }
}

#[test]
fn hb_section_bytes_match_the_golden_reports() {
    let golden_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/reports");
    let corpus = shared();
    for (app, (trace, both)) in cafa_apps::all_apps().iter().zip(corpus) {
        let golden =
            std::fs::read_to_string(format!("{golden_dir}/{}.json", app.name.to_lowercase()))
                .expect("golden report exists");

        // Default backend: bit-identical to the pinned golden.
        let hb = Analyzer::new().analyze(trace).expect("analysis succeeds");
        assert_eq!(
            cafa_core::json::render_json(&hb, trace),
            golden,
            "{}: default-backend report drifted from the golden",
            app.name
        );

        // Both mode with the predictive section stripped: the HB
        // section the predictive backend rode along with is untouched.
        let mut stripped = both.clone();
        stripped.predictive = None;
        assert_eq!(
            cafa_core::json::render_json(&stripped, trace),
            golden,
            "{}: running the predictive backend perturbed the HB section",
            app.name
        );
    }
}
