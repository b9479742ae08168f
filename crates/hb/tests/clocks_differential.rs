//! Differential tests: the vector-clock backend (`clocks.rs`) against
//! depth-first search over the model's own graph.
//!
//! `HbModel::build` answers every config with neither the atomicity
//! nor the queue rules from vector clocks. Such a model's graph holds
//! its whole relation, so [`SyncGraph::reaches`] over
//! [`HbModel::graph`] is an exact, independent reference:
//!
//! * **arbitrary tapes** ([`trace_from_tape`]): every node pair, every
//!   event pair and every operation pair, under the four rule-free
//!   shapes — the conventional baseline, the FastTrack-style ablation,
//!   CAFA's bare base edges, and the conventional baseline without its
//!   total event order. A cyclic tape must be rejected exactly when the
//!   naive derivation rejects it;
//! * **real traces**: the ten catalog apps re-recorded under seeds
//!   Table 1 never uses, and `gen:7:0..9`, on sampled sources under
//!   the two rule-free presets.

use proptest::prelude::*;

use cafa_hb::bitset::BitSet;
use cafa_hb::{base_graph, derive_naive, CausalityConfig, HbModel, NodeId, SyncGraph};
use cafa_trace::arbitrary::trace_from_tape;
use cafa_trace::{OpRef, TaskId, Trace};

/// The rule-free shapes `HbModel::build` routes to the clocks.
fn rule_free_configs() -> [CausalityConfig; 4] {
    let bare = CausalityConfig {
        atomicity_rule: false,
        queue_rules: false,
        ..CausalityConfig::cafa()
    };
    let unordered = CausalityConfig {
        total_event_order: false,
        ..CausalityConfig::conventional()
    };
    [
        CausalityConfig::conventional(),
        CausalityConfig::fasttrack_like(),
        bare,
        unordered,
    ]
}

/// Builds `config`'s model and checks it runs on the clocks: there is
/// no demand engine.
fn clocks_model(trace: &Trace, config: CausalityConfig) -> Option<HbModel<'_>> {
    let model = HbModel::build(trace, config).ok()?;
    assert!(
        model.demand_stats().is_none(),
        "rule-free builds skip demand"
    );
    Some(model)
}

fn events_of(trace: &Trace) -> Vec<TaskId> {
    trace
        .tasks()
        .filter(|t| t.is_event())
        .map(|t| t.id)
        .collect()
}

/// The DFS reference for `a ≺ b` over `graph`.
fn dfs_before(graph: &SyncGraph, a: OpRef, b: OpRef, scratch: &mut BitSet) -> bool {
    if a.task == b.task {
        return a.index < b.index;
    }
    graph.reaches(graph.bracket_after(a), graph.bracket_before(b), scratch)
}

/// Every node pair, event pair and operation pair of a small trace.
fn assert_all_pairs(trace: &Trace, model: &HbModel<'_>) {
    let graph = model.graph();
    let mut scratch = BitSet::new(graph.node_count());
    let n = graph.node_count() as NodeId;
    for from in 0..n {
        for to in 0..n {
            assert_eq!(
                model.reaches(from, to),
                graph.reaches(from, to, &mut scratch),
                "reaches({from}, {to}) diverged"
            );
        }
    }
    let events = events_of(trace);
    for &e1 in &events {
        for &e2 in &events {
            assert_eq!(
                model.event_before(e1, e2),
                graph.reaches(graph.end(e1), graph.begin(e2), &mut scratch),
                "event_before({e1}, {e2}) diverged"
            );
        }
    }
    let ops: Vec<OpRef> = trace.iter_ops().map(|(at, _)| at).collect();
    for &a in &ops {
        for &b in &ops {
            assert_eq!(
                model.happens_before(a, b),
                dfs_before(graph, a, b, &mut scratch),
                "happens_before({a:?}, {b:?}) diverged"
            );
        }
    }
}

/// Every node reachable from `from` by a non-empty path: the walk
/// [`SyncGraph::reaches`] makes, kept whole so one walk answers every
/// target of a large graph.
fn reach_set(graph: &SyncGraph, from: NodeId) -> BitSet {
    let mut seen = BitSet::new(graph.node_count());
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        for (s, _) in graph.succs(n) {
            if seen.insert(s as usize) {
                stack.push(s);
            }
        }
    }
    seen
}

/// A fixed stride through `items`, at most about `cap` of them.
fn sample<T: Copy>(items: &[T], cap: usize) -> Vec<T> {
    let stride = items.len().div_ceil(cap).max(1);
    items.iter().copied().step_by(stride).collect()
}

/// Sampled sources of a large trace, each against every target: nodes,
/// event ends against every event begin, and operations against a
/// sample of operations.
fn assert_sampled(trace: &Trace, model: &HbModel<'_>, label: &str) {
    let graph = model.graph();
    let nodes: Vec<NodeId> = (0..graph.node_count() as NodeId).collect();
    for from in sample(&nodes, 12) {
        let reach = reach_set(graph, from);
        for to in 0..graph.node_count() as NodeId {
            assert_eq!(
                model.reaches(from, to),
                reach.contains(to as usize),
                "{label}: reaches({from}, {to}) diverged"
            );
        }
    }
    let events = events_of(trace);
    for e1 in sample(&events, 12) {
        let reach = reach_set(graph, graph.end(e1));
        for &e2 in &events {
            assert_eq!(
                model.event_before(e1, e2),
                reach.contains(graph.begin(e2) as usize),
                "{label}: event_before({e1}, {e2}) diverged"
            );
        }
    }
    let ops: Vec<OpRef> = trace.iter_ops().map(|(at, _)| at).collect();
    let targets = sample(&ops, 400);
    for a in sample(&ops, 12) {
        let reach = reach_set(graph, graph.bracket_after(a));
        for &b in &targets {
            let expected = if a.task == b.task {
                a.index < b.index
            } else {
                reach.contains(graph.bracket_before(b) as usize)
            };
            assert_eq!(
                model.happens_before(a, b),
                expected,
                "{label}: happens_before({a:?}, {b:?}) diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary tapes: the clocks accept exactly what the naive
    /// derivation accepts, and then answer every pair like the DFS.
    #[test]
    fn clocks_match_dfs_on_arbitrary_traces(
        tape in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let trace = trace_from_tape(&tape);
        for config in rule_free_configs() {
            let model = clocks_model(&trace, config);
            let mut graph = base_graph(&trace, &config);
            prop_assert_eq!(
                model.is_some(),
                derive_naive(&mut graph, &trace, &config).is_ok(),
                "acceptance diverged under {:?}",
                config
            );
            if let Some(model) = model {
                assert_all_pairs(&trace, &model);
            }
        }
    }
}

/// The ten catalog apps under seeds no other suite records, and the
/// first ten apps of the seed-7 generated corpus.
#[test]
fn clocks_match_dfs_on_real_traces() {
    let mut specs: Vec<(cafa_apps::AppSpec, u64)> = cafa_apps::all_apps()
        .into_iter()
        .enumerate()
        .map(|(i, app)| (app, 6271 + i as u64))
        .collect();
    for index in 0..10 {
        let spec = cafa_apps::resolve(&format!("gen:7:{index}")).expect("gen slots resolve");
        specs.push((spec, 0));
    }
    for (spec, seed) in specs {
        let outcome = spec.record(seed).expect("workloads record clean");
        let trace = outcome.trace.expect("instrumented runs produce a trace");
        for config in [
            CausalityConfig::conventional(),
            CausalityConfig::fasttrack_like(),
        ] {
            let model = clocks_model(&trace, config).expect("real traces are acyclic");
            assert_sampled(&trace, &model, &spec.name);
        }
    }
}
