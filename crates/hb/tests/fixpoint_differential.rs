//! Differential tests: the semi-naive delta-driven fixpoint engine
//! against the naive textbook reference loop (`derive_naive`).
//!
//! The two engines share the rule core (`run_round`) but differ in
//! everything around it: the naive loop re-sweeps reachability facts
//! and re-tests every rule instance each round, while the semi-naive
//! engine keeps persistent rows, propagates only new-edge frontiers,
//! and re-evaluates only dirty anchors. These tests pin that they
//! still materialize **exactly the same edge sets** — not merely the
//! same closure — across two input families:
//!
//! * **random tape traces** ([`trace_from_tape`]), including
//!   inconsistent ones both engines must reject;
//! * **perturbed catalog traces** — bundled app workloads re-run under
//!   simulation seeds Table 1 does not use.

use proptest::prelude::*;

use cafa_hb::{base_graph, derive, derive_naive, CausalityConfig, NodeId, SyncGraph};
use cafa_trace::arbitrary::trace_from_tape;
use cafa_trace::Trace;

/// The graph's materialized edges in a comparable order. `EdgeKind`
/// is not `Ord`; its debug form is a stable tiebreaker.
fn sorted_edges(g: &SyncGraph) -> Vec<(NodeId, NodeId, String)> {
    let mut edges: Vec<(NodeId, NodeId, String)> = g
        .edge_log()
        .iter()
        .map(|&(a, b, k)| (a, b, format!("{k:?}")))
        .collect();
    edges.sort();
    edges
}

/// Runs both engines from identical base graphs and asserts exact
/// agreement: same success/failure, same materialized edge multiset,
/// same rounds and per-rule edge counts, and no more rule instances
/// evaluated by the semi-naive engine than by the naive one.
fn assert_engines_agree(trace: &Trace, config: &CausalityConfig) {
    let mut g_semi = base_graph(trace, config);
    let mut g_naive = base_graph(trace, config);
    let semi = derive(&mut g_semi, trace, config);
    let naive = derive_naive(&mut g_naive, trace, config);
    match (semi, naive) {
        (Ok(s), Ok(n)) => {
            assert_eq!(
                sorted_edges(&g_semi),
                sorted_edges(&g_naive),
                "materialized edge sets diverged"
            );
            assert_eq!(s.rounds, n.rounds, "round counts diverged");
            assert_eq!(s.atomicity_edges, n.atomicity_edges);
            assert_eq!(s.queue_edges, n.queue_edges);
            assert!(
                s.instances <= n.instances,
                "semi-naive evaluated more instances ({}) than naive ({})",
                s.instances,
                n.instances
            );
        }
        (Err(_), Err(_)) => {} // both reject (e.g. a cyclic tape)
        (s, n) => panic!(
            "engines disagree on acceptance: semi ok={} naive ok={}",
            s.is_ok(),
            n.is_ok()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batch derivation on arbitrary tape traces, both rule configs.
    #[test]
    fn engines_agree_on_random_tapes(tape in proptest::collection::vec(any::<u8>(), 0..400)) {
        let trace = trace_from_tape(&tape);
        assert_engines_agree(&trace, &CausalityConfig::cafa());
        assert_engines_agree(&trace, &CausalityConfig::conventional());
    }
}

/// Catalog workloads under seeds Table 1 does not use: smallest,
/// median, and largest app by expected events, both rule configs.
#[test]
fn engines_agree_on_perturbed_catalog_traces() {
    let apps = cafa_apps::all_apps();
    let mut order: Vec<usize> = (0..apps.len()).collect();
    order.sort_by_key(|&i| apps[i].expected.events);
    let picks = [order[0], order[apps.len() / 2], *order.last().unwrap()];

    for (round, &i) in picks.iter().enumerate() {
        let app = &apps[i];
        let mut config = cafa_sim::SimConfig::with_seed(6869 + round as u64);
        config.instrument = cafa_sim::InstrumentConfig::paper_packages();
        let mut outcome = cafa_sim::run(&app.program, &config).expect("simulation runs");
        let trace = outcome.trace.take().expect("instrumentation is on");
        assert_engines_agree(&trace, &CausalityConfig::cafa());
        assert_engines_agree(&trace, &CausalityConfig::conventional());
    }
}
