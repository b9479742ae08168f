//! What the four workloads share: the operation interface, per-layer
//! counters, the mapping from the program's own pass names to layer
//! spans, and the independent verdict checks.

use std::collections::BTreeMap;

use cafa_apps::AppSpec;
use cafa_core::{AnalysisSession, RaceClass, RaceReport};
use cafa_hb::CausalityConfig;
use cafa_model::eval::Score;
use cafa_model::{FpType, GroundTruth, Label, TrueClass};
use cafa_trace::{TaskId, Trace};

use crate::spans::Tracer;

/// One operation brought to a checked verdict.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// Trace events the operation analyzed.
    pub events: usize,
    /// Whether the verdict matched the independent reference.
    pub passed: bool,
}

/// A closed-loop workload over a fixed corpus: operation `i` analyzes
/// corpus item `i`, and the next starts only after it returns.
pub trait Workload {
    /// Items in one pass over the corpus.
    fn len(&self) -> usize;

    /// Short name of item `i`, used in span IDs.
    fn label(&self, i: usize) -> &str;

    /// Runs item `i` to a checked verdict. An `Err` is a failed
    /// operation.
    fn run(&mut self, i: usize, t: &mut Tracer, c: &mut Counters) -> Result<Verdict, String>;

    /// Traced-run-only work for item `i`, timed outside the operation.
    fn trace_extra(&mut self, _i: usize, _t: &mut Tracer, _c: &mut Counters) -> Result<(), String> {
        Ok(())
    }
}

/// Deterministic per-layer counters, summed over the traced operations.
#[derive(Clone, Debug, Default)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: impl Into<f64>) {
        *self.0.entry(name).or_insert(0.0) += v.into();
    }

    /// Raises gauge `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.0.entry(name).or_insert(v);
        *slot = slot.max(v);
    }

    /// Counters every analysis report exposes, plus the demand
    /// engine's counters when the session holds a visible model. On
    /// the island path the per-island models are not visible, so those
    /// stay unavailable rather than being taken from another path.
    pub fn add_report(&mut self, report: &RaceReport, session: &AnalysisSession<'_>) {
        let passes = &report.stats.passes;
        self.add("core.races", report.races.len() as f64);
        self.add("core.filtered", report.filtered.len() as f64);
        if let Some(p) = passes.get("candidates") {
            self.add("core.candidate_pairs", p.items as f64);
        }
        if let Some(p) = passes.get("extract") {
            self.add("engine.mem_ops", p.items as f64);
        }
        // On the island path each island runs the demand engine, which
        // leaves the derivation counters at 0: unavailable, not zero.
        match report.stats.partition {
            Some(p) => {
                self.add("engine.islands", p.islands as f64);
                self.add("engine.batches", p.batches as f64);
            }
            None => self.add(
                "hb.rule_instances",
                report.stats.derivation.instances as f64,
            ),
        }
        let cafa = CausalityConfig::cafa();
        if session.has_model(cafa) {
            if let Some(d) = session.model(cafa).ok().and_then(|m| m.demand_stats()) {
                self.add("hb.queries", d.queries as f64);
                self.add("hb.premises", d.premises as f64);
                self.add("hb.edges_materialized", d.edges_materialized as f64);
            }
        }
    }
}

/// Records in a trace (all task bodies).
pub fn records(trace: &Trace) -> usize {
    (0..trace.task_count())
        .map(|i| trace.body_len(TaskId::from_usize(i)) as usize)
        .sum()
}

/// The span each of the program's own passes is charged to. Passes
/// not listed stay in the enclosing span's self time.
pub fn pass_span(pass: &str) -> Option<&'static str> {
    Some(match pass {
        "partition" => "engine.partition",
        "extract" => "engine.extract",
        "hb-build" | "reachability" | "hb-ingest" | "hb-derive" | "hb-demand" => "hb.build",
        "candidates" => "core.candidates",
        "filters" => "core.filters",
        "baseline-hb" => "core.baseline_hb",
        "classify" => "core.classify",
        "merge" => "core.merge",
        "predict-build" => "predict.build",
        "predict-candidates" => "predict.candidates",
        "stream-decode" => "trace.decode",
        _ => return None,
    })
}

/// Reads a golden file relative to the checkout root.
pub fn read_golden(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The Table 1 row check: the report's races, joined with the app's
/// ground-truth labels, must reproduce the app's published row, each
/// race in its labelled class, with nothing unlabelled.
pub fn table1_row_matches(app: &AppSpec, report: &RaceReport) -> bool {
    let e = app.expected;
    let mut got = [0usize; 6];
    for race in &report.races {
        let slot = match app.truth.get(race.var) {
            Some(Label::Harmful { class, .. }) => {
                let (slot, want) = match class {
                    TrueClass::IntraThread => (0, RaceClass::IntraThread),
                    TrueClass::InterThread => (1, RaceClass::InterThread),
                    TrueClass::Conventional => (2, RaceClass::Conventional),
                };
                if race.class != want {
                    return false;
                }
                slot
            }
            Some(Label::Benign { fp }) => match fp {
                FpType::MissingListener => 3,
                FpType::ImpreciseCommutativity => 4,
                FpType::DerefMismatch => 5,
            },
            _ => return false,
        };
        got[slot] += 1;
    }
    report.races.len() == e.reported && got == [e.a, e.b, e.c, e.fp1, e.fp2, e.fp3]
}

/// The label check for generated corpora: every harmful and benign
/// label reported, no filtered, ordered or predictive-only label
/// leaking into the HB report, and no unlabelled report.
pub fn labels_match(truth: &GroundTruth, report: &RaceReport) -> (bool, Score) {
    let mut s = Score::new();
    s.tally_app(truth, report.races.iter().map(|r| r.var));
    let found_all = [s.a, s.b, s.c, s.fp1, s.fp2, s.fp3]
        .iter()
        .all(|t| t.reported == t.planted);
    let no_leaks =
        s.filtered.reported == 0 && s.ordered.reported == 0 && s.predictive.reported == 0;
    (found_all && no_leaks && s.unlabeled == 0, s)
}
