//! The [`HbModel`] facade: build once per trace, query happens-before.

use std::sync::{Mutex, OnceLock};

use cafa_trace::{OpRef, TaskId, Trace};

use crate::bitset::BitSet;
use crate::build::{base_graph, base_graph_with_sends};
use crate::clocks::Clocks;
use crate::config::CausalityConfig;
use crate::demand::{DemandCore, DemandStats};
use crate::error::HbError;
use crate::graph::{NodeId, SyncGraph};
use crate::oracle::ReachOracle;
use crate::rules::{fixpoint, flow, DerivationStats, EventTable, FixpointState};

/// Event count at and above which [`HbModel::build`] switches from the
/// eager fixpoint (which materializes the full event-order closure —
/// quadratic memory) to the demand-driven engine. Overridable with
/// `CAFA_HB_ENGINE=eager|demand`.
const DEMAND_AUTO_THRESHOLD: usize = 32_768;

/// Does `config` derive nothing beyond its base edges?
fn rule_free(config: &CausalityConfig) -> bool {
    !config.atomicity_rule && !config.queue_rules
}

/// Engine choice for a build of `ev_count` events.
fn use_demand(ev_count: usize) -> bool {
    match std::env::var("CAFA_HB_ENGINE").ok().as_deref() {
        Some("eager") => false,
        Some("demand") => true,
        _ => ev_count >= DEMAND_AUTO_THRESHOLD,
    }
}

/// Relative order of two operations under a causality model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpOrder {
    /// The first operation happens before the second.
    Before,
    /// The second operation happens before the first.
    After,
    /// Neither is ordered with the other: logically concurrent.
    Concurrent,
    /// The two references denote the same operation.
    Same,
}

/// One step of a causal chain returned by [`HbModel::explain`]: the
/// edge of `kind` connecting two sync points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CauseStep {
    /// Source sync point.
    pub from: crate::NodeInfo,
    /// Why the edge exists.
    pub kind: crate::EdgeKind,
    /// Destination sync point.
    pub to: crate::NodeInfo,
}

/// A happens-before model of one trace under one [`CausalityConfig`].
///
/// Building a model constructs the sync graph, installs the base causal
/// edges, and prepares one of three backends for the atomicity and
/// queue rules of §3.3: an eager fixpoint with the event-order closure
/// as a bit matrix, a demand engine that settles rules per query, or —
/// when the config has neither rule — vector clocks over the base
/// edges, which answer every query by a position compare or a binary
/// search.
///
/// # Examples
///
/// ```
/// use cafa_trace::{TraceBuilder, OpRef};
/// use cafa_hb::{HbModel, CausalityConfig, OpOrder};
///
/// // Two events posted with equal delays from the same thread: queue
/// // rule 1 orders them, so CAFA sees A ≺ B.
/// let mut b = TraceBuilder::new("demo");
/// let p = b.add_process();
/// let q = b.add_queue(p);
/// let t = b.add_thread(p, "main");
/// let a = b.post(t, q, "A", 0);
/// let eb = b.post(t, q, "B", 0);
/// b.process_event(a);
/// b.process_event(eb);
/// let trace = b.finish().unwrap();
///
/// let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
/// assert!(model.event_before(a, eb));
/// assert!(!model.event_before(eb, a));
/// ```
#[derive(Debug)]
pub struct HbModel<'t> {
    trace: &'t Trace,
    config: CausalityConfig,
    graph: SyncGraph,
    table: EventTable,
    stats: DerivationStats,
    backend: Backend,
    /// Lazily built constant-time reachability index over `graph`, on
    /// the backends whose graph holds the whole relation (eager and
    /// clocks). Answers are identical either way, so building it never
    /// changes a report.
    oracle: OnceLock<Box<ReachOracle>>,
}

/// How a model answers derived-order queries. All backends compute the
/// same least fixpoint of the §3.3 rules, so every query answers
/// identically; they differ only in when the work happens.
#[derive(Debug)]
enum Backend {
    /// All derived edges materialized at build time (the graph holds
    /// the fixpoint), with the event-order closure as a bit matrix.
    Eager {
        /// Per dense event `e`: events `e'` with `end(e') ≺ begin(e)`.
        before_begin: Vec<BitSet>,
        /// A topological order of the graph, for batch sweeps.
        topo: Vec<NodeId>,
    },
    /// Rules evaluated lazily per query (see `demand.rs`); the
    /// graph holds only base edges. The mutex keeps the model `Sync`
    /// so detector passes can fan queries across threads; answers are
    /// pure functions of the unique least fixpoint, so results do not
    /// depend on thread count or interleaving.
    Demand(Box<Mutex<DemandCore>>),
    /// No rules to derive: the graph holds the whole relation and
    /// vector clocks answer it (see `clocks.rs`).
    Clocks(Clocks),
}

impl Backend {
    fn demand(&self) -> Option<std::sync::MutexGuard<'_, DemandCore>> {
        match self {
            Backend::Demand(core) => Some(core.lock().unwrap_or_else(|poison| poison.into_inner())),
            _ => None,
        }
    }
}

impl<'t> HbModel<'t> {
    /// Builds the model for `trace` under `config`.
    ///
    /// A config with neither the atomicity nor the queue rules (the
    /// conventional baseline, the FastTrack-style ablation, CAFA's bare
    /// base edges) always gets the vector-clock backend, whatever
    /// `CAFA_HB_ENGINE` says: its relation is reachability over the
    /// base edges, which one forward sweep answers exactly. Otherwise
    /// traces below [`DEMAND_AUTO_THRESHOLD`] events get the eager
    /// fixpoint and larger ones the demand engine, unless
    /// `CAFA_HB_ENGINE=eager|demand` picks.
    ///
    /// # Errors
    ///
    /// Returns [`HbError`] if the trace implies a cyclic happens-before
    /// relation or the rule fixpoint diverges.
    pub fn build(trace: &'t Trace, config: CausalityConfig) -> Result<Self, HbError> {
        if rule_free(&config) {
            return Self::build_clocks(trace, config);
        }
        let table = EventTable::new(trace)?;
        if use_demand(table.len()) {
            return Self::build_demand(trace, config);
        }
        Self::build_eager(trace, config)
    }

    /// Builds the model preferring the demand-driven backend whatever
    /// the event count (an explicit `CAFA_HB_ENGINE=eager` still
    /// wins); rule-free configs get vector clocks, as in
    /// [`build`](HbModel::build). Island-partitioned analysis projects
    /// a fleet trace into sub-traces that each fall below
    /// [`DEMAND_AUTO_THRESHOLD`], yet keep the many-small-islands shape
    /// the lazy engine dominates on — the per-event heuristic of
    /// [`build`](HbModel::build) mispredicts there by an order of
    /// magnitude.
    ///
    /// # Errors
    ///
    /// Returns [`HbError`] if the trace implies a cyclic happens-before
    /// relation or the rule fixpoint diverges.
    pub fn build_islanded(trace: &'t Trace, config: CausalityConfig) -> Result<Self, HbError> {
        if rule_free(&config) {
            return Self::build_clocks(trace, config);
        }
        match std::env::var("CAFA_HB_ENGINE").ok().as_deref() {
            Some("eager") => Self::build_eager(trace, config),
            _ => Self::build_demand(trace, config),
        }
    }

    /// Builds a rule-free model on the vector-clock backend.
    fn build_clocks(trace: &'t Trace, config: CausalityConfig) -> Result<Self, HbError> {
        let graph = base_graph(trace, &config);
        let clocks = Clocks::build(&graph, trace, config.total_event_order)
            .map_err(|nodes| HbError::cyclic(&graph, &nodes))?;
        Ok(Self {
            trace,
            config,
            graph,
            table: EventTable::new(trace)?,
            stats: DerivationStats::default(),
            backend: Backend::Clocks(clocks),
            oracle: OnceLock::new(),
        })
    }

    /// Builds a model with the eager backend regardless of trace size
    /// or `CAFA_HB_ENGINE`. Exposed (hidden) so the differential suite
    /// can pin one engine on each side of a comparison.
    #[doc(hidden)]
    pub fn build_eager(trace: &'t Trace, config: CausalityConfig) -> Result<Self, HbError> {
        let (mut graph, sends) = base_graph_with_sends(trace, &config);
        let mut st = FixpointState::new(trace)?;
        st.add_sends(&sends);
        let stats = fixpoint(&mut graph, &config, &mut st)?;
        // The converged reachability rows already hold the event-order
        // closure; reuse them instead of re-sweeping the graph.
        let closure = st.converged_closure(&graph);
        Self::from_parts(trace, config, graph, stats, closure)
    }

    /// Builds a model with the demand-driven backend regardless of
    /// trace size. [`build`](HbModel::build) selects this automatically
    /// above [`DEMAND_AUTO_THRESHOLD`] events; exposed (hidden) so the
    /// differential suite can force the choice.
    #[doc(hidden)]
    pub fn build_demand(trace: &'t Trace, config: CausalityConfig) -> Result<Self, HbError> {
        let (graph, sends) = base_graph_with_sends(trace, &config);
        graph
            .topo_order()
            .map_err(|nodes| HbError::cyclic(&graph, &nodes))?;
        let table = EventTable::new(trace)?;
        let mut core = DemandCore::new(&graph, table.clone(), config);
        core.register_sends(&graph, &sends);
        Ok(Self {
            trace,
            config,
            graph,
            table,
            stats: DerivationStats::default(),
            backend: Backend::Demand(Box::new(Mutex::new(core))),
            oracle: OnceLock::new(),
        })
    }

    /// Assembles a model from an already-derived graph (the incremental
    /// path): verifies acyclicity and precomputes the event-order
    /// closure (reusing `closure` — per dense event, the events whose
    /// end precedes its begin — when the fixpoint engine kept its
    /// converged rows). The graph must contain the fixpoint of
    /// `config`'s rules over `trace` — [`build`](HbModel::build) is the
    /// batch shortcut.
    pub(crate) fn from_parts(
        trace: &'t Trace,
        config: CausalityConfig,
        graph: SyncGraph,
        stats: DerivationStats,
        closure: Option<Vec<BitSet>>,
    ) -> Result<Self, HbError> {
        let topo = graph
            .topo_order()
            .map_err(|nodes| HbError::cyclic(&graph, &nodes))?;

        let table = EventTable::new(trace)?;
        // Final event-order closure: mark each end(e); read each begin(e).
        let before_begin: Vec<BitSet> = match closure {
            Some(rows) => rows,
            None => {
                let mut marks: Vec<Option<u32>> = vec![None; graph.node_count()];
                for (i, &e) in table.events.iter().enumerate() {
                    marks[graph.end(e) as usize] = Some(i as u32);
                }
                let acc = flow(&graph, &topo, &marks, table.len());
                table
                    .events
                    .iter()
                    .map(|&e| acc[graph.begin(e) as usize].clone())
                    .collect()
            }
        };

        Ok(Self {
            trace,
            config,
            graph,
            table,
            stats,
            backend: Backend::Eager { before_begin, topo },
            oracle: OnceLock::new(),
        })
    }

    /// Builds (once) and returns the constant-time reachability index,
    /// constructing its begin matrix with `threads` scoped workers
    /// (`0` = auto; see [`crate::resolve_threads`]). Subsequent
    /// [`happens_before`](HbModel::happens_before) queries use the
    /// index instead of a DFS.
    ///
    /// On the clocks backend the graph holds the whole rule-free
    /// relation, so the oracle is built over it on request; the clocks
    /// themselves never need it.
    ///
    /// # Panics
    ///
    /// Panics on a demand-backend model: its graph holds only base
    /// edges, so an oracle over it would answer without the derived
    /// orders. Use [`ensure_reachability`](HbModel::ensure_reachability)
    /// for backend-agnostic preparation.
    pub fn ensure_oracle(&self, threads: usize) -> &ReachOracle {
        self.oracle.get_or_init(|| {
            Box::new(match &self.backend {
                Backend::Eager { topo, .. } => {
                    ReachOracle::build_with_topo(&self.graph, topo, threads)
                }
                // The clock sweep already rejected cyclic graphs.
                Backend::Clocks(_) => {
                    ReachOracle::build(&self.graph, threads).expect("clocks graph is acyclic")
                }
                Backend::Demand(_) => {
                    panic!("ensure_oracle needs derived edges; demand models answer queries lazily")
                }
            })
        })
    }

    /// Prepares whatever reachability index the backend uses for bulk
    /// operation-level queries and reports its node coverage: the
    /// [`ReachOracle`] (built with `threads` workers) on the eager
    /// backend; a no-op on the demand backend, whose queries settle
    /// their own cones, and on the clocks backend, whose sweep already
    /// ran. All return the graph's node count, so pass accounting is
    /// backend-independent.
    pub fn ensure_reachability(&self, threads: usize) -> usize {
        if let Backend::Eager { .. } = self.backend {
            self.ensure_oracle(threads);
        }
        self.graph.node_count()
    }

    /// The reachability index, if [`ensure_oracle`](HbModel::ensure_oracle)
    /// has been called (never on the demand backend).
    pub fn oracle(&self) -> Option<&ReachOracle> {
        self.oracle.get().map(Box::as_ref)
    }

    /// Work counters of the demand engine, when this model uses it.
    pub fn demand_stats(&self) -> Option<DemandStats> {
        self.backend.demand().map(|core| core.stats())
    }

    /// The analyzed trace.
    pub fn trace(&self) -> &'t Trace {
        self.trace
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &CausalityConfig {
        &self.config
    }

    /// The underlying sync graph.
    pub fn graph(&self) -> &SyncGraph {
        &self.graph
    }

    /// Statistics from the rule fixpoint.
    pub fn stats(&self) -> DerivationStats {
        self.stats
    }

    /// The event tasks in dense order.
    pub fn events(&self) -> &[TaskId] {
        &self.table.events
    }

    /// True when `end(e1) ≺ begin(e2)`: every operation of event `e1`
    /// happens before every operation of event `e2`.
    ///
    /// # Panics
    ///
    /// Panics if either task is not an event.
    pub fn event_before(&self, e1: TaskId, e2: TaskId) -> bool {
        let i1 = self.table.dense(e1).expect("e1 must be an event");
        let i2 = self.table.dense(e2).expect("e2 must be an event");
        match &self.backend {
            Backend::Eager { before_begin, .. } => before_begin[i2 as usize].contains(i1 as usize),
            Backend::Demand(_) => {
                let mut core = self.backend.demand().expect("demand backend");
                core.event_before(&self.graph, i1, i2)
            }
            Backend::Clocks(clocks) => {
                clocks.reaches(&self.graph, self.graph.end(e1), self.graph.begin(e2))
            }
        }
    }

    /// True when two distinct events are logically concurrent (neither
    /// fully ordered with the other).
    pub fn concurrent_events(&self, e1: TaskId, e2: TaskId) -> bool {
        e1 != e2 && !self.event_before(e1, e2) && !self.event_before(e2, e1)
    }

    /// True when both tasks are events processed by the same looper.
    pub fn same_looper(&self, t1: TaskId, t2: TaskId) -> bool {
        match (self.trace.task(t1).queue(), self.trace.task(t2).queue()) {
            (Some(q1), Some(q2)) => q1 == q2,
            _ => false,
        }
    }

    /// Does the operation at `a` happen before the operation at `b`?
    ///
    /// Strict: `happens_before(a, a)` is false.
    pub fn happens_before(&self, a: OpRef, b: OpRef) -> bool {
        if a.task == b.task {
            return a.index < b.index;
        }
        // Event-level fast path: full order between the containing events
        // orders every operation pair.
        if let (Backend::Eager { before_begin, .. }, Some(i1), Some(i2)) = (
            &self.backend,
            self.table.dense(a.task),
            self.table.dense(b.task),
        ) {
            if before_begin[i2 as usize].contains(i1 as usize) {
                return true;
            }
            // The converse ordering rules out a forward path only if the
            // relation is acyclic (guaranteed); still, mid-task paths
            // like send≺begin are not captured by the matrix, so fall
            // through to the graph search.
        }
        self.reaches(self.graph.bracket_after(a), self.graph.bracket_before(b))
    }

    /// Is there a non-empty path `from → to` between two sync nodes of
    /// [`graph`](HbModel::graph) under the model's relation, derived
    /// orders included? Irreflexive, since the relation is acyclic.
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        match &self.backend {
            Backend::Clocks(clocks) => clocks.reaches(&self.graph, from, to),
            Backend::Demand(_) => {
                let mut core = self.backend.demand().expect("demand backend");
                core.reaches(&self.graph, from, to)
            }
            Backend::Eager { .. } => match self.oracle.get() {
                Some(oracle) => oracle.reaches(from, to),
                None => {
                    let mut scratch = BitSet::new(self.graph.node_count());
                    self.graph.reaches(from, to, &mut scratch)
                }
            },
        }
    }

    /// Classifies the relative order of two operations.
    pub fn order(&self, a: OpRef, b: OpRef) -> OpOrder {
        if a == b {
            OpOrder::Same
        } else if self.happens_before(a, b) {
            OpOrder::Before
        } else if self.happens_before(b, a) {
            OpOrder::After
        } else {
            OpOrder::Concurrent
        }
    }

    /// Explains *why* `a` happens before `b`: a shortest chain of
    /// causal edges from `a`'s position to `b`'s. Returns `None` when
    /// the operations are not ordered that way (including `a == b`).
    ///
    /// # Examples
    ///
    /// ```
    /// use cafa_trace::{TraceBuilder, OpRef};
    /// use cafa_hb::{HbModel, CausalityConfig, EdgeKind};
    ///
    /// let mut b = TraceBuilder::new("t");
    /// let p = b.add_process();
    /// let q = b.add_queue(p);
    /// let t = b.add_thread(p, "main");
    /// let ev = b.post(t, q, "ev", 0);
    /// b.process_event(ev);
    /// let w = b.write(ev, cafa_trace::VarId::new(0));
    /// let trace = b.finish().unwrap();
    ///
    /// let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
    /// let chain = model.explain(OpRef::new(t, 0), w).unwrap();
    /// assert!(chain.iter().any(|s| s.kind == EdgeKind::Send));
    /// ```
    pub fn explain(&self, a: OpRef, b: OpRef) -> Option<Vec<CauseStep>> {
        if !self.happens_before(a, b) {
            return None;
        }
        if a.task == b.task {
            return Some(vec![CauseStep {
                from: crate::NodeInfo {
                    task: a.task,
                    point: crate::NodePoint::Record(a.index),
                },
                kind: crate::EdgeKind::Program,
                to: crate::NodeInfo {
                    task: b.task,
                    point: crate::NodePoint::Record(b.index),
                },
            }]);
        }
        let from = self.graph.bracket_after(a);
        let to = self.graph.bracket_before(b);
        // The demand backend's derived edges are not in the graph;
        // its path finder walks base and derived adjacency together.
        let path = match self.backend.demand() {
            Some(mut core) => core.find_path(&self.graph, from, to)?,
            None => self.graph.find_path(from, to)?,
        };
        Some(
            path.into_iter()
                .map(|(f, kind, t)| CauseStep {
                    from: self.graph.node(f),
                    kind,
                    to: self.graph.node(t),
                })
                .collect(),
        )
    }

    /// Prepares a batched reachability index for many-source queries.
    ///
    /// One linear sweep of the graph answers `sources[i] ≺ b` for every
    /// source and any `b` — the detector uses this with all use/free
    /// sites as sources.
    pub fn batch(&self, sources: &[OpRef]) -> BatchReach<'_, 't> {
        let Backend::Eager { topo, .. } = &self.backend else {
            // The flow sweep below pays off against an eager model's
            // DFS; the demand engine and the clocks answer each pair
            // through their own query path instead.
            return BatchReach {
                model: self,
                sources: sources.to_vec(),
                group: Vec::new(),
                acc: Vec::new(),
                pointwise: true,
            };
        };
        let mut marks: Vec<Option<u32>> = vec![None; self.graph.node_count()];
        // Multiple sources may share a bracket node; give each node the
        // list position of one representative and remap afterwards.
        let mut node_group: Vec<u32> = Vec::with_capacity(sources.len());
        let mut group_count = 0u32;
        let mut group_of_node: std::collections::HashMap<NodeId, u32> =
            std::collections::HashMap::new();
        for &s in sources {
            let n = self.graph.bracket_after(s);
            let g = *group_of_node.entry(n).or_insert_with(|| {
                let g = group_count;
                marks[n as usize] = Some(g);
                group_count += 1;
                g
            });
            node_group.push(g);
        }
        let acc = flow(&self.graph, topo, &marks, group_count as usize);
        BatchReach {
            model: self,
            sources: sources.to_vec(),
            group: node_group,
            acc,
            pointwise: false,
        }
    }
}

/// Precomputed multi-source reachability; see [`HbModel::batch`].
#[derive(Debug)]
pub struct BatchReach<'m, 't> {
    model: &'m HbModel<'t>,
    sources: Vec<OpRef>,
    group: Vec<u32>,
    acc: Vec<BitSet>,
    /// Demand or clocks backend: answer per pair via the model.
    pointwise: bool,
}

impl BatchReach<'_, '_> {
    /// Number of sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Does source number `i` happen before the operation at `b`?
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn before(&self, i: usize, b: OpRef) -> bool {
        let a = self.sources[i];
        if a.task == b.task {
            return a.index < b.index;
        }
        if self.pointwise {
            return self.model.happens_before(a, b);
        }
        let to = self.model.graph.bracket_before(b);
        self.acc[to as usize].contains(self.group[i] as usize)
    }

    /// Are source `i` and the operation at `b` concurrent under the
    /// model? Requires `b` to also be a source (at index `j`) so the
    /// converse direction is batched too.
    pub fn concurrent(&self, i: usize, j: usize) -> bool {
        let (a, b) = (self.sources[i], self.sources[j]);
        a != b && !self.before(i, b) && !self.before(j, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafa_trace::{ObjId, Pc, TraceBuilder, VarId};

    /// The Figure 1 MyTracks scenario: onServiceConnected (use) and
    /// onDestroy (free) are concurrent under CAFA.
    fn mytracks() -> (Trace, OpRef, OpRef, TaskId, TaskId) {
        let mut b = TraceBuilder::new("MyTracks");
        let app = b.add_process();
        let q = b.add_queue(app);
        let svc = b.add_process();
        let ipc = b.add_thread(svc, "binder");
        let resume = b.external(q, "onResume");
        b.process_event(resume);
        let (txn, _) = b.rpc_call(resume);
        b.rpc_handle(ipc, txn);
        let connected = b.post(ipc, q, "onServiceConnected", 0);
        let destroy = b.external(q, "onDestroy");
        b.process_event(connected);
        let use_at = b.obj_read(connected, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x10));
        b.process_event(destroy);
        let free_at = b.obj_write(destroy, VarId::new(0), None, Pc::new(0x20));
        (b.finish().unwrap(), use_at, free_at, connected, destroy)
    }

    #[test]
    fn figure1_use_and_free_are_concurrent_under_cafa() {
        let (trace, use_at, free_at, connected, destroy) = mytracks();
        let m = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        assert!(m.concurrent_events(connected, destroy));
        assert_eq!(m.order(use_at, free_at), OpOrder::Concurrent);
        assert!(m.same_looper(connected, destroy));
    }

    #[test]
    fn figure1_is_ordered_under_conventional_model() {
        let (trace, use_at, free_at, connected, destroy) = mytracks();
        let m = HbModel::build(&trace, CausalityConfig::conventional()).unwrap();
        // The conventional baseline totally orders the looper's events,
        // hiding the race (connected was processed before destroy).
        assert!(m.event_before(connected, destroy));
        assert_eq!(m.order(use_at, free_at), OpOrder::Before);
    }

    #[test]
    fn resume_is_ordered_before_connected_via_rpc() {
        let (trace, ..) = mytracks();
        let m = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        let resume = m.events()[0];
        let connected = m
            .events()
            .iter()
            .copied()
            .find(|&e| m.trace().task_name(e) == "onServiceConnected")
            .unwrap();
        assert!(m.event_before(resume, connected));
    }

    #[test]
    fn mid_task_send_orders_prefix_only() {
        // A thread sends an event, then keeps writing: the write after
        // the send is concurrent with the event.
        let mut b = TraceBuilder::new("midtask");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "worker");
        let before = b.write(t, VarId::new(0));
        let ev = b.post(t, q, "handler", 0);
        let after = b.write(t, VarId::new(0));
        b.process_event(ev);
        let in_ev = b.write(ev, VarId::new(0));
        let trace = b.finish().unwrap();
        let m = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        assert_eq!(m.order(before, in_ev), OpOrder::Before);
        assert_eq!(m.order(after, in_ev), OpOrder::Concurrent);
        assert_eq!(m.order(in_ev, after), OpOrder::Concurrent);
        assert_eq!(m.order(before, before), OpOrder::Same);
    }

    #[test]
    fn batch_agrees_with_pointwise_queries() {
        let (trace, use_at, free_at, ..) = mytracks();
        let m = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        let sources = vec![use_at, free_at];
        let batch = m.batch(&sources);
        assert_eq!(batch.source_count(), 2);
        assert_eq!(batch.before(0, free_at), m.happens_before(use_at, free_at));
        assert_eq!(batch.before(1, use_at), m.happens_before(free_at, use_at));
        assert!(batch.concurrent(0, 1));
        assert!(!batch.concurrent(0, 0));
    }

    #[test]
    fn batch_same_bracket_sources_are_distinct() {
        // Two data records in the same event share a bracket node; the
        // batch must still answer per-source (same-task index compare).
        let mut b = TraceBuilder::new("bracket");
        let p = b.add_process();
        let q = b.add_queue(p);
        let e = b.external(q, "ev");
        b.process_event(e);
        let r1 = b.write(e, VarId::new(0));
        let r2 = b.write(e, VarId::new(1));
        let trace = b.finish().unwrap();
        let m = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        let batch = m.batch(&[r1, r2]);
        assert!(batch.before(0, r2));
        assert!(!batch.before(1, r1));
    }
}
