//! Differential tests: models read off a trace's bases against
//! depth-first search over an independently built graph.
//!
//! `HbModel::build` answers every config with neither the atomicity
//! nor the queue rules from vector clocks. Every model reads a base: a
//! base of its own, or the trace's shared [`HbBase`], which holds CAFA's
//! base edges and serves CAFA and the rule-free shapes alike, each
//! reading only its config's edge kinds plus, under the total event
//! order, each looper's processing order. A shared base is not the
//! relation's own graph, so the reference is never `model.graph()`. It
//! is [`base_graph`]`(trace, &config)`, built separately with the
//! config's own edges and its looper order as `TotalOrder` edges, run
//! through `derive_naive` for a config with rules, and searched
//! depth-first:
//!
//! * **arbitrary tapes** ([`trace_from_tape`]): every node pair, every
//!   event pair and every operation pair, under the four rule-free
//!   shapes — the conventional baseline, the FastTrack-style ablation,
//!   CAFA's bare base edges, and the conventional baseline without its
//!   total event order — each on a base of its own. Then the shared
//!   path: one base, CAFA's model on it answering every pair first,
//!   then the conventional, bare and unordered models on the same base.
//!   A trace must be rejected exactly when the naive derivation rejects
//!   it;
//! * **real traces**: the ten catalog apps re-recorded under seeds
//!   Table 1 never uses, and `gen:7:0..9`, on sampled sources: the
//!   conventional and FastTrack-style models on bases of their own,
//!   and the shared path with CAFA's model queried first.

use std::sync::Arc;

use proptest::prelude::*;

use cafa_hb::bitset::BitSet;
use cafa_hb::{base_graph, derive_naive, CausalityConfig, HbBase, HbModel, NodeId, SyncGraph};
use cafa_trace::arbitrary::trace_from_tape;
use cafa_trace::{OpRef, TaskId, Trace};

/// CAFA's base edges without its rules.
fn bare() -> CausalityConfig {
    CausalityConfig {
        atomicity_rule: false,
        queue_rules: false,
        ..CausalityConfig::cafa()
    }
}

/// The conventional baseline without its total event order.
fn unordered() -> CausalityConfig {
    CausalityConfig {
        total_event_order: false,
        ..CausalityConfig::conventional()
    }
}

/// The rule-free shapes `HbModel::build` routes to the clocks.
fn rule_free_configs() -> [CausalityConfig; 4] {
    [
        CausalityConfig::conventional(),
        CausalityConfig::fasttrack_like(),
        bare(),
        unordered(),
    ]
}

/// The rule-free shapes the shared base serves.
fn shared_rule_free_configs() -> [CausalityConfig; 3] {
    [CausalityConfig::conventional(), bare(), unordered()]
}

/// Builds `config`'s model on `base` (its own when `None`) and checks
/// the backend: a rule-free model runs on the clocks.
fn model_on<'t>(
    trace: &'t Trace,
    base: Option<&Arc<HbBase<'t>>>,
    config: CausalityConfig,
) -> Option<HbModel<'t>> {
    let model = match base {
        Some(base) => HbModel::with_base(Arc::clone(base), config),
        None => HbModel::build(trace, config),
    }
    .ok()?;
    let rule_free = !config.atomicity_rule && !config.queue_rules;
    assert_eq!(
        model.demand_stats().is_none(),
        rule_free,
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

/// The independent reference for `config`'s relation: its own graph,
/// derived to the naive fixpoint when it has rules, walked depth-first
/// once per source.
struct Reference {
    graph: SyncGraph,
    reach: Vec<Option<BitSet>>,
}

impl Reference {
    /// `None` when the naive derivation finds the relation cyclic.
    fn new(trace: &Trace, config: &CausalityConfig) -> Option<Self> {
        let mut graph = base_graph(trace, config);
        derive_naive(&mut graph, trace, config).ok()?;
        let reach = vec![None; graph.node_count()];
        Some(Self { graph, reach })
    }

    /// Every node `from` reaches by a non-empty path.
    fn reach_set(&mut self, from: NodeId) -> &BitSet {
        let graph = &self.graph;
        self.reach[from as usize].get_or_insert_with(|| {
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
        })
    }

    fn reaches(&mut self, from: NodeId, to: NodeId) -> bool {
        self.reach_set(from).contains(to as usize)
    }

    fn event_before(&mut self, e1: TaskId, e2: TaskId) -> bool {
        let (from, to) = (self.graph.end(e1), self.graph.begin(e2));
        self.reaches(from, to)
    }

    fn happens_before(&mut self, a: OpRef, b: OpRef) -> bool {
        if a.task == b.task {
            return a.index < b.index;
        }
        let (from, to) = (self.graph.bracket_after(a), self.graph.bracket_before(b));
        self.reaches(from, to)
    }
}

/// Asks `model` every node pair, event pair and operation pair of a
/// small trace; when the reference accepts the trace, every answer must
/// match it. Returns whether the model accepted the trace, its build
/// and its `check()` after the last query.
fn assert_all_pairs(trace: &Trace, model: &HbModel<'_>, reference: Option<&mut Reference>) -> bool {
    let n = model.graph().node_count() as NodeId;
    let node_answers: Vec<bool> = (0..n)
        .flat_map(|from| (0..n).map(move |to| (from, to)))
        .map(|(from, to)| model.reaches(from, to))
        .collect();
    let events = events_of(trace);
    let event_answers: Vec<bool> = events
        .iter()
        .flat_map(|&a| events.iter().map(move |&b| (a, b)))
        .map(|(a, b)| model.event_before(a, b))
        .collect();
    let ops: Vec<OpRef> = trace.iter_ops().map(|(at, _)| at).collect();
    let op_answers: Vec<bool> = ops
        .iter()
        .flat_map(|&a| ops.iter().map(move |&b| (a, b)))
        .map(|(a, b)| model.happens_before(a, b))
        .collect();
    let accepted = model.check().is_ok();
    let Some(reference) = reference else {
        return accepted;
    };
    assert_eq!(
        reference.graph.node_count(),
        n as usize,
        "one node numbering"
    );
    let pairs = (0..n).flat_map(|from| (0..n).map(move |to| (from, to)));
    for ((from, to), got) in pairs.zip(node_answers) {
        assert_eq!(
            got,
            reference.reaches(from, to),
            "reaches({from}, {to}) diverged"
        );
    }
    let pairs = events
        .iter()
        .flat_map(|&a| events.iter().map(move |&b| (a, b)));
    for ((e1, e2), got) in pairs.zip(event_answers) {
        let expected = e1 != e2 && reference.event_before(e1, e2);
        assert_eq!(got, expected, "event_before({e1}, {e2}) diverged");
    }
    let pairs = ops.iter().flat_map(|&a| ops.iter().map(move |&b| (a, b)));
    for ((a, b), got) in pairs.zip(op_answers) {
        let expected = reference.happens_before(a, b);
        assert_eq!(got, expected, "happens_before({a:?}, {b:?}) diverged");
    }
    accepted
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
    let mut reference = Reference::new(trace, model.config()).expect("real traces are acyclic");
    let label = format!("{label} {:?}", model.config());
    let n = model.graph().node_count() as NodeId;
    let nodes: Vec<NodeId> = (0..n).collect();
    for from in sample(&nodes, 12) {
        for to in 0..n {
            assert_eq!(
                model.reaches(from, to),
                reference.reaches(from, to),
                "{label}: reaches({from}, {to}) diverged"
            );
        }
    }
    let events = events_of(trace);
    for e1 in sample(&events, 12) {
        for &e2 in &events {
            assert_eq!(
                model.event_before(e1, e2),
                e1 != e2 && reference.event_before(e1, e2),
                "{label}: event_before({e1}, {e2}) diverged"
            );
        }
    }
    let ops: Vec<OpRef> = trace.iter_ops().map(|(at, _)| at).collect();
    let targets = sample(&ops, 400);
    for a in sample(&ops, 12) {
        for &b in &targets {
            assert_eq!(
                model.happens_before(a, b),
                reference.happens_before(a, b),
                "{label}: happens_before({a:?}, {b:?}) diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary tapes: every model accepts exactly what the naive
    /// derivation accepts, and then answers every pair like the DFS,
    /// on a base of its own and on the shared base after CAFA's model.
    #[test]
    fn clocks_match_dfs_on_arbitrary_traces(
        tape in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let trace = trace_from_tape(&tape);
        for config in rule_free_configs() {
            let mut reference = Reference::new(&trace, &config);
            let model = model_on(&trace, None, config);
            prop_assert_eq!(
                model.is_some(),
                reference.is_some(),
                "acceptance diverged under {:?}",
                config
            );
            if let Some(model) = model {
                assert_all_pairs(&trace, &model, reference.as_mut());
            }
        }

        // The shared path: CAFA first, so its derived edges exist
        // before any rule-free model reads the base.
        let Ok(base) = HbBase::shared(&trace) else {
            return Ok(());
        };
        let base = Arc::new(base);
        let cafa = CausalityConfig::cafa();
        let mut reference = Reference::new(&trace, &cafa);
        match model_on(&trace, Some(&base), cafa) {
            Some(model) => {
                let accepted = assert_all_pairs(&trace, &model, reference.as_mut());
                prop_assert_eq!(accepted, reference.is_some(), "CAFA acceptance diverged");
            }
            None => prop_assert!(reference.is_none(), "CAFA rejected at build, naive accepted"),
        }
        for config in shared_rule_free_configs() {
            let mut reference = Reference::new(&trace, &config);
            let model = model_on(&trace, Some(&base), config);
            prop_assert_eq!(
                model.is_some(),
                reference.is_some(),
                "shared-base acceptance diverged under {:?}",
                config
            );
            if let Some(model) = model {
                prop_assert!(std::ptr::eq(model.graph(), base.graph()), "reads the shared base");
                assert_all_pairs(&trace, &model, reference.as_mut());
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
    let mut derived = 0;
    for (spec, seed) in specs {
        let outcome = spec.record(seed).expect("workloads record clean");
        let trace = outcome.trace.expect("instrumented runs produce a trace");
        for config in [
            CausalityConfig::conventional(),
            CausalityConfig::fasttrack_like(),
        ] {
            let model = model_on(&trace, None, config).expect("real traces are acyclic");
            assert_sampled(&trace, &model, &spec.name);
        }

        // CAFA queries derive edges before the rule-free models read
        // the base. Each settles its whole cone, so they ask about the
        // first events, whose cones are small.
        let base = Arc::new(HbBase::shared(&trace).expect("real traces are well formed"));
        let cafa = model_on(&trace, Some(&base), CausalityConfig::cafa()).expect("acyclic");
        let events: Vec<TaskId> = events_of(&trace).into_iter().take(8).collect();
        for &e1 in &events {
            for &e2 in &events {
                cafa.event_before(e1, e2);
            }
        }
        assert_eq!(cafa.check(), Ok(()), "{}: CAFA stays acyclic", spec.name);
        derived += cafa.demand_stats().map_or(0, |d| d.edges_materialized);
        for config in shared_rule_free_configs() {
            let model = model_on(&trace, Some(&base), config).expect("real traces are acyclic");
            assert!(std::ptr::eq(model.graph(), base.graph()));
            assert_sampled(&trace, &model, &spec.name);
        }
    }
    assert!(derived > 0, "CAFA derived edges before the shared reads");
}
