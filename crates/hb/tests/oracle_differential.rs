//! Differential tests: the indexed reachability oracle against the
//! per-pair DFS ground truth ([`SyncGraph::reaches`]).
//!
//! Three input families, in increasing realism:
//!
//! * **random DAGs** — synthetic task chains with proptest-chosen
//!   cross edges, including inputs the topological sort must reject;
//! * **arbitrary tape traces** — base graphs plus every edge the naive
//!   derivation (`derive_naive`) materializes over [`trace_from_tape`]
//!   inputs, exercising every derived edge kind;
//! * **perturbed catalog traces** — the bundled app workloads re-run
//!   under different simulation seeds than Table 1 uses.
//!
//! Small graphs are checked over *every* ordered node pair; the large
//! catalog graphs over 10k deterministically sampled pairs. The
//! vendored proptest seeds from the test name, so every run replays
//! the same cases.

use proptest::prelude::*;

use cafa_hb::bitset::BitSet;
use cafa_hb::{base_graph, derive_naive, CausalityConfig, EdgeKind, ReachOracle, SyncGraph};
use cafa_trace::arbitrary::trace_from_tape;
use cafa_trace::{Trace, TraceBuilder};

/// The base graph of `trace` under `config` plus every derived edge,
/// or `None` when the derived relation is cyclic.
fn derived_graph(trace: &Trace, config: CausalityConfig) -> Option<SyncGraph> {
    let mut graph = base_graph(trace, &config);
    derive_naive(&mut graph, trace, &config).ok()?;
    Some(graph)
}

/// Asserts oracle == DFS over every ordered pair of graph nodes.
fn assert_all_pairs(graph: &SyncGraph, oracle: &ReachOracle) {
    let n = graph.node_count() as u32;
    let mut scratch = BitSet::new(graph.node_count());
    for from in 0..n {
        for to in 0..n {
            assert_eq!(
                oracle.reaches(from, to),
                graph.reaches(from, to, &mut scratch),
                "oracle disagrees with DFS on {from} -> {to}"
            );
        }
    }
}

/// Asserts oracle == DFS over `count` pairs drawn by a fixed xorshift
/// stream, so large graphs stay affordable and runs stay replayable.
fn assert_sampled_pairs(graph: &SyncGraph, oracle: &ReachOracle, count: usize, seed: u64) {
    let n = graph.node_count() as u64;
    let mut scratch = BitSet::new(graph.node_count());
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..count {
        let from = (next() % n) as u32;
        let to = (next() % n) as u32;
        assert_eq!(
            oracle.reaches(from, to),
            graph.reaches(from, to, &mut scratch),
            "oracle disagrees with DFS on sampled {from} -> {to}"
        );
    }
}

/// Builds a `tasks`-chain graph (each chain `recs` notify records
/// long) and adds the proptest-chosen cross `edges` between arbitrary
/// nodes — cyclic results included on purpose.
fn random_dag(tasks: usize, recs: usize, edges: &[(u8, u8)]) -> SyncGraph {
    let mut b = TraceBuilder::new("dag");
    let p = b.add_process();
    let ids: Vec<_> = (0..tasks)
        .map(|i| b.add_thread(p, &format!("t{i}")))
        .collect();
    for &t in &ids {
        for g in 0..recs {
            b.notify(t, cafa_trace::MonitorId::new(0), g as u32);
        }
    }
    let trace = b.finish().expect("chains are well-formed");
    let mut graph = SyncGraph::from_trace(&trace);
    let n = graph.node_count() as u32;
    for &(a, z) in edges {
        let (from, to) = (u32::from(a) % n, u32::from(z) % n);
        if from != to {
            graph.add_edge(from, to, EdgeKind::External);
        }
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On random DAGs the oracle accepts exactly when the topological
    /// sort does, and then answers every pair like the DFS — at one
    /// worker and at several.
    #[test]
    fn oracle_matches_dfs_on_random_dags(
        tasks in 1usize..5,
        recs in 0usize..6,
        edges in proptest::collection::vec(any::<(u8, u8)>(), 0..24),
    ) {
        let graph = random_dag(tasks, recs, &edges);
        match ReachOracle::build(&graph, 1) {
            Err(nodes) => {
                prop_assert!(graph.topo_order().is_err());
                prop_assert!(!nodes.is_empty());
            }
            Ok(oracle) => {
                prop_assert!(graph.topo_order().is_ok());
                assert_all_pairs(&graph, &oracle);
                let wide = ReachOracle::build(&graph, 4).expect("same graph");
                assert_all_pairs(&graph, &wide);
            }
        }
    }

    /// On arbitrary tape traces the oracle over the fully derived
    /// graph (all rule edge kinds) matches the DFS everywhere.
    #[test]
    fn oracle_matches_dfs_on_arbitrary_traces(
        tape in proptest::collection::vec(any::<u8>(), 0..400),
        threads in 1usize..5,
    ) {
        let trace = trace_from_tape(&tape);
        let Some(graph) = derived_graph(&trace, CausalityConfig::cafa()) else {
            return Ok(()); // inconsistent trace, correctly rejected
        };
        let oracle = ReachOracle::build(&graph, threads).expect("derived graph is acyclic");
        assert_all_pairs(&graph, &oracle);
    }
}

/// Catalog app traces, re-recorded under seeds Table 1 never uses, are
/// checked on 10k sampled pairs each (their graphs are far too large
/// for all-pairs DFS). Covers both causality models and several worker
/// counts on real-shaped graphs.
#[test]
fn oracle_matches_dfs_on_perturbed_catalog_traces() {
    let apps = cafa_apps::all_apps();
    // Smallest, a mid-size, and the largest workload by trace events.
    let mut picks = vec![0usize];
    let mut order: Vec<usize> = (0..apps.len()).collect();
    order.sort_by_key(|&i| apps[i].expected.events);
    picks.push(order[apps.len() / 2]);
    picks.push(*order.last().expect("catalog is non-empty"));
    picks.sort_unstable();
    picks.dedup();

    for (round, &i) in picks.iter().enumerate() {
        let app = &apps[i];
        let mut config = cafa_sim::SimConfig::with_seed(7919 + round as u64);
        config.instrument = cafa_sim::InstrumentConfig::paper_packages();
        let mut outcome = cafa_sim::run(&app.program, &config).expect("simulation runs");
        let trace = outcome.trace.take().expect("instrumentation is on");
        for causality in [CausalityConfig::cafa(), CausalityConfig::conventional()] {
            let graph = derived_graph(&trace, causality).expect("real traces are consistent");
            let threads = if round % 2 == 0 { 1 } else { 8 };
            let oracle = ReachOracle::build(&graph, threads).expect("derived graph is acyclic");
            if graph.node_count() <= 64 {
                assert_all_pairs(&graph, &oracle);
            } else {
                assert_sampled_pairs(&graph, &oracle, 10_000, 0x5eed + round as u64);
            }
        }
    }
}
