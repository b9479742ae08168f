//! Differential tests: the demand-driven query engine (`demand.rs`)
//! against the naive reference derivation (`derive_naive`).
//!
//! The two are **not** expected to materialize the same edge sets —
//! the demand core transitively-reduces derived edges on insert and
//! evaluates premises only inside the cones that queries probe. The
//! contract is weaker and more useful: both compute the *same unique
//! least fixpoint* of the §3.3 rules, so every **answer** — event-level
//! `end(e₁) ≺ begin(e₂)` and operation-level `a ≺ b` — must agree
//! exactly, and the demand engine must reject a trace (at build, or
//! through `check()` after its queries) exactly when the naive
//! derivation finds the relation cyclic. These tests pin that contract
//! across two input families:
//!
//! * **random tape traces** ([`trace_from_tape`]), all event pairs and
//!   all operation pairs, under both rule configs;
//! * **perturbed catalog traces** — bundled app workloads re-run under
//!   simulation seeds Table 1 does not use.
//!
//! The reference answers every pair from one closure sweep over its
//! materialized graph in topological order, not one search per pair.

use std::collections::HashMap;

use proptest::prelude::*;

use cafa_hb::bitset::BitSet;
use cafa_hb::{base_graph, derive_naive, CausalityConfig, HbModel};
use cafa_hb::{NodeId, SyncGraph};
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

/// Which of a fixed set of source nodes strictly reach each node of a
/// materialized graph, computed in one sweep over a topological order.
struct Closure<'g> {
    graph: &'g SyncGraph,
    column: HashMap<NodeId, usize>,
    rows: Vec<BitSet>,
}

impl<'g> Closure<'g> {
    /// Sweeps `graph`, which must be acyclic, for `sources`.
    fn new(graph: &'g SyncGraph, sources: impl IntoIterator<Item = NodeId>) -> Self {
        let mut column = HashMap::new();
        for s in sources {
            let next = column.len();
            column.entry(s).or_insert(next);
        }
        let topo = graph.topo_order().expect("the reference graph is acyclic");
        let mut rows = vec![BitSet::new(0); graph.node_count()];
        for &n in &topo {
            let mut row = BitSet::new(column.len());
            for p in graph.preds(n) {
                row.union_with(&rows[p as usize]);
                if let Some(&c) = column.get(&p) {
                    row.insert(c);
                }
            }
            rows[n as usize] = row;
        }
        Self {
            graph,
            column,
            rows,
        }
    }

    /// A non-empty path `from → to`; `from` must be a source.
    fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.rows[to as usize].contains(self.column[&from])
    }

    fn event_before(&self, a: TaskId, b: TaskId) -> bool {
        a != b && self.reaches(self.graph.end(a), self.graph.begin(b))
    }

    fn happens_before(&self, a: OpRef, b: OpRef) -> bool {
        if a.task == b.task {
            return a.index < b.index;
        }
        self.reaches(self.graph.bracket_after(a), self.graph.bracket_before(b))
    }
}

/// The closure sources `event_before`/`happens_before` read for
/// `events` and `ops`.
fn sources(graph: &SyncGraph, events: &[TaskId], ops: &[OpRef]) -> Vec<NodeId> {
    let ends = events.iter().map(|&e| graph.end(e));
    ends.chain(ops.iter().map(|&a| graph.bracket_after(a)))
        .collect()
}

/// Asks the demand model every sampled event pair and operation pair,
/// then compares with the naive reference: acceptance first (demand's
/// build plus its `check()` after the last query against the naive
/// derivation's), then, when both accept, every answer.
fn assert_demand_matches_naive(trace: &Trace, config: CausalityConfig) {
    let mut graph = base_graph(trace, &config);
    let naive = derive_naive(&mut graph, trace, &config);
    let Ok(demand) = HbModel::build(trace, config) else {
        assert!(naive.is_err(), "demand rejected at build, naive accepted");
        return;
    };
    let events = sample(&events_of(trace), 140);
    let ops = ops_of(trace, 120);
    let event_answers: Vec<bool> = events
        .iter()
        .flat_map(|&a| events.iter().map(move |&b| (a, b)))
        .map(|(a, b)| demand.event_before(a, b))
        .collect();
    let op_answers: Vec<bool> = ops
        .iter()
        .flat_map(|&a| ops.iter().map(move |&b| (a, b)))
        .map(|(a, b)| demand.happens_before(a, b))
        .collect();
    assert_eq!(
        demand.check().is_ok(),
        naive.is_ok(),
        "acceptance diverged: demand {:?}, naive {:?}",
        demand.check(),
        naive
    );
    if naive.is_err() {
        return;
    }
    let reference = Closure::new(&graph, sources(&graph, &events, &ops));
    let event_pairs = events
        .iter()
        .flat_map(|&a| events.iter().map(move |&b| (a, b)));
    for ((a, b), answer) in event_pairs.zip(event_answers) {
        assert_eq!(
            answer,
            reference.event_before(a, b),
            "event_before({a}, {b}) diverged"
        );
    }
    let op_pairs = ops.iter().flat_map(|&a| ops.iter().map(move |&b| (a, b)));
    for ((a, b), answer) in op_pairs.zip(op_answers) {
        assert_eq!(
            answer,
            reference.happens_before(a, b),
            "happens_before({a:?}, {b:?}) diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Batch queries on arbitrary tape traces, both rule configs.
    #[test]
    fn demand_matches_naive_on_random_tapes(tape in proptest::collection::vec(any::<u8>(), 0..300)) {
        let trace = trace_from_tape(&tape);
        assert_demand_matches_naive(&trace, CausalityConfig::cafa());
        assert_demand_matches_naive(&trace, CausalityConfig::conventional());
    }
}

/// Catalog workloads under seeds Table 1 does not use: the three
/// smallest apps by expected events, both rule configs. (Catalog
/// traces are dense single-app workloads — the demand engine's
/// worst case, which is exactly why they make good differential
/// fodder and bad wall-clock fodder; the larger apps add minutes of
/// settlement for no extra rule coverage.)
#[test]
fn demand_matches_naive_on_perturbed_catalog_traces() {
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
        assert_demand_matches_naive(&trace, CausalityConfig::cafa());
        assert_demand_matches_naive(&trace, CausalityConfig::conventional());
    }
}
