//! Differential tests: the demand-driven query engine (`demand.rs`)
//! against the eager fixpoint it replaces at scale.
//!
//! The two backends are **not** expected to materialize the same edge
//! sets — the demand core transitively-reduces derived edges on insert
//! and evaluates premises only inside the cones that queries probe. The
//! contract is weaker and more useful: both compute the *same unique
//! least fixpoint* of the §3.3 rules, so every **answer** — event-level
//! `end(e₁) ≺ begin(e₂)` and operation-level `a ≺ b` — must agree
//! exactly. These tests pin that contract across three input families:
//!
//! * **random tape traces** ([`trace_from_tape`]), all event pairs and
//!   all operation pairs, under both rule configs;
//! * **perturbed catalog traces** — bundled app workloads re-run under
//!   simulation seeds Table 1 does not use;
//! * **incremental seal-by-seal sequences** — a demand session that
//!   never materializes rule edges, checked after every seal against a
//!   naive-reference session that materializes everything and answers
//!   by depth-first search over its graph.

use proptest::prelude::*;

use cafa_hb::bitset::BitSet;
use cafa_hb::{CausalityConfig, HbModel, IncrementalHb};
use cafa_trace::arbitrary::trace_from_tape;
use cafa_trace::{OpRef, TaskId, Trace};

/// Dense-order event ids of `trace`.
fn events_of(trace: &Trace) -> Vec<TaskId> {
    trace
        .tasks()
        .filter(|t| t.is_event())
        .map(|t| t.id)
        .collect()
}

/// Fixed-stride subsample so a catalog-sized trace contributes a
/// bounded quadratic, not events².
fn sample<T: Copy>(items: &[T], cap: usize) -> Vec<T> {
    if items.len() <= cap {
        return items.to_vec();
    }
    let stride = items.len().div_ceil(cap);
    items.iter().copied().step_by(stride).collect()
}

/// Every operation reference, subsampled with a fixed stride when the
/// trace is large so a case stays quadratic in ~120, not in the trace.
fn ops_of(trace: &Trace, cap: usize) -> Vec<OpRef> {
    let all: Vec<OpRef> = trace.iter_ops().map(|(r, _)| r).collect();
    sample(&all, cap)
}

/// Builds one model per backend (pinned explicitly — the comparison
/// must not collapse to demand-vs-demand under `CAFA_HB_ENGINE`) and
/// asserts exact agreement on acceptance, every event-pair answer, and
/// every (subsampled) operation-pair answer.
fn assert_backends_agree(trace: &Trace, config: CausalityConfig) {
    let eager = HbModel::build_eager(trace, config);
    let demand = HbModel::build_demand(trace, config);
    let (eager, demand) = match (eager, demand) {
        (Ok(e), Ok(d)) => (e, d),
        (Err(_), Err(_)) => return, // both reject (e.g. a cyclic tape)
        (e, d) => panic!(
            "backends disagree on acceptance: eager ok={} demand ok={}",
            e.is_ok(),
            d.is_ok()
        ),
    };
    let events = sample(&events_of(trace), 140);
    for &a in &events {
        for &b in &events {
            assert_eq!(
                eager.event_before(a, b),
                demand.event_before(a, b),
                "event_before({a}, {b}) diverged"
            );
        }
    }
    for &a in &ops_of(trace, 120) {
        for &b in &ops_of(trace, 120) {
            assert_eq!(
                eager.happens_before(a, b),
                demand.happens_before(a, b),
                "happens_before({a:?}, {b:?}) diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch queries on arbitrary tape traces, both rule configs.
    #[test]
    fn backends_agree_on_random_tapes(tape in proptest::collection::vec(any::<u8>(), 0..300)) {
        let trace = trace_from_tape(&tape);
        assert_backends_agree(&trace, CausalityConfig::cafa());
        assert_backends_agree(&trace, CausalityConfig::conventional());
    }

    /// A demand-query incremental session against a naive-reference
    /// session fed the identical seal sequence. The demand side never
    /// calls a derive — the query engine does all rule work inside the
    /// cones each answer needs; the reference side materializes the
    /// full fixpoint after every seal and answers by depth-first
    /// search. Every event pair must agree after every single seal,
    /// including pairs involving still-unsealed tasks (whose ends are
    /// disconnected, so no rule premise can fire around them yet).
    #[test]
    fn incremental_demand_agrees_seal_by_seal(
        tape in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let trace = trace_from_tape(&tape);
        let config = CausalityConfig::cafa();
        let mut demand = IncrementalHb::new(&trace, config).expect("tape traces are well-formed");
        let mut reference = IncrementalHb::new(&trace, config).expect("tape traces are well-formed");
        let events = events_of(&trace);
        for info in trace.tasks() {
            demand.seal(&trace, info.id);
            reference.seal(&trace, info.id);
            if reference.derive_now_reference(&trace).is_err() {
                return Ok(()); // cyclic tape; demand answers are unspecified
            }
            let g = reference.graph();
            let mut scratch = BitSet::new(g.node_count());
            for &a in &events {
                for &b in &events {
                    let expect = a != b && g.reaches(g.end(a), g.begin(b), &mut scratch);
                    prop_assert_eq!(
                        demand.demand_event_before(a, b),
                        expect,
                        "event_before({}, {}) diverged after sealing {}",
                        a, b, info.id
                    );
                }
            }
        }
        // Operation-level spot check once the whole trace is sealed.
        let g = reference.graph();
        let mut scratch = BitSet::new(g.node_count());
        for &a in &ops_of(&trace, 80) {
            for &b in &ops_of(&trace, 80) {
                let expect = if a.task == b.task {
                    a.index < b.index
                } else {
                    g.reaches(g.bracket_after(a), g.bracket_before(b), &mut scratch)
                };
                prop_assert_eq!(
                    demand.demand_happens_before(a, b),
                    expect,
                    "happens_before({:?}, {:?}) diverged", a, b
                );
            }
        }
    }
}

/// Catalog workloads under seeds Table 1 does not use: the three
/// smallest apps by expected events, both rule configs. (Catalog
/// traces are dense single-app workloads — the demand engine's
/// worst case, which is exactly why they make good differential
/// fodder and bad wall-clock fodder; the larger apps add minutes of
/// settlement for no extra rule coverage.)
#[test]
fn backends_agree_on_perturbed_catalog_traces() {
    let apps = cafa_apps::all_apps();
    let mut order: Vec<usize> = (0..apps.len()).collect();
    order.sort_by_key(|&i| apps[i].expected.events);
    let picks = [order[0], order[1], order[2]];

    for (round, &i) in picks.iter().enumerate() {
        let app = &apps[i];
        let mut config = cafa_sim::SimConfig::with_seed(9091 + round as u64);
        config.instrument = cafa_sim::InstrumentConfig::paper_packages();
        let mut outcome = cafa_sim::run(&app.program, &config).expect("simulation runs");
        let trace = outcome.trace.take().expect("instrumentation is on");
        assert_backends_agree(&trace, CausalityConfig::cafa());
        assert_backends_agree(&trace, CausalityConfig::conventional());
    }
}
