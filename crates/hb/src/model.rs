//! The [`HbModel`] facade: build once per trace, query happens-before.

use std::sync::{Arc, Mutex};

use cafa_trace::{OpRef, TaskId, Trace};

use crate::build::{base_graph, HbBase};
use crate::clocks::Clocks;
use crate::config::CausalityConfig;
use crate::demand::{DemandCore, DemandStats};
use crate::error::HbError;
use crate::graph::{NodeId, SyncGraph};

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
/// A model reads a base ([`HbBase`]): the trace's sync graph with its
/// base causal edges. A config with the atomicity or queue rules of
/// §3.3 is answered by the demand engine, which settles the rules per
/// query; a config with neither is answered by vector clocks over its
/// base edges, a position compare or a binary search per query.
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
/// assert!(model.check().is_ok());
/// ```
#[derive(Debug)]
pub struct HbModel<'t> {
    config: CausalityConfig,
    base: Arc<HbBase<'t>>,
    backend: Backend,
}

/// How a model answers queries. The base graph holds only base edges
/// either way.
#[derive(Debug)]
enum Backend {
    /// Rules evaluated lazily per query (see `demand.rs`). The mutex
    /// keeps the model `Sync` so detector passes can fan queries across
    /// threads; answers are pure functions of the unique least
    /// fixpoint, so results do not depend on thread count or
    /// interleaving.
    Demand(Box<Mutex<DemandCore>>),
    /// No rules to derive: the config's base edges plus, under
    /// `total_event_order`, each looper's order are the whole relation,
    /// and vector clocks answer it (see `clocks.rs`).
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
    /// Builds the model for `trace` under `config` on a base of its own:
    /// vector clocks when the config has neither the atomicity nor the
    /// queue rules (the conventional baseline, the FastTrack-style
    /// ablation, CAFA's bare base edges), since its relation is
    /// reachability over the base edges and one forward sweep answers
    /// it exactly; the demand engine otherwise.
    ///
    /// A derived cycle surfaces through [`check`](HbModel::check), not
    /// here: the demand engine derives an edge only when a query needs
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`HbError`] if the base edges are cyclic, an event task
    /// has no queue, or, under `total_event_order`, an event is not
    /// listed once in its queue's processing order.
    pub fn build(trace: &'t Trace, config: CausalityConfig) -> Result<Self, HbError> {
        let base = HbBase::for_config(trace, &config)?;
        Self::on(Arc::new(base), config)
    }

    /// Builds the model for `config` on `base`, shared with every other
    /// model of the trace that reads it (see [`HbBase::serves`]). A
    /// config the base cannot serve gets a base of its own, as from
    /// [`build`](HbModel::build).
    ///
    /// # Errors
    ///
    /// As [`build`](HbModel::build).
    pub fn with_base(base: Arc<HbBase<'t>>, config: CausalityConfig) -> Result<Self, HbError> {
        if base.serves(&config) {
            Self::on(base, config)
        } else {
            Self::build(base.trace, config)
        }
    }

    fn on(base: Arc<HbBase<'t>>, config: CausalityConfig) -> Result<Self, HbError> {
        let backend = if config.derives() {
            Backend::Demand(Box::new(Mutex::new(DemandCore::new(&base, config)?)))
        } else {
            Backend::Clocks(Clocks::build(&base, &config)?)
        };
        Ok(Self {
            config,
            base,
            backend,
        })
    }

    /// Whether every answer so far came from an acyclic relation. The
    /// demand engine refuses to add a derived edge that would close a
    /// cycle and records it here; call this after the last query, since
    /// only the edges queries force are derived and checked. A cycle no
    /// query reaches is not detected, and changes no answer.
    ///
    /// # Errors
    ///
    /// [`HbError::CyclicHappensBefore`] naming the first derived cycle
    /// found: the trace is not consistent with any real execution.
    pub fn check(&self) -> Result<(), HbError> {
        match self.backend.demand().as_deref().and_then(DemandCore::cycle) {
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }

    /// Work counters of the demand engine, when this model uses it.
    pub fn demand_stats(&self) -> Option<DemandStats> {
        self.backend.demand().map(|core| core.stats())
    }

    /// The analyzed trace.
    pub fn trace(&self) -> &'t Trace {
        self.base.trace
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &CausalityConfig {
        &self.config
    }

    /// The base sync graph the model reads, shared with every other
    /// model built on the same [`HbBase`]. It holds base edges only: the
    /// demand engine keeps its derived edges apart, and a rule-free
    /// model reads only its config's edge kinds of it, plus each
    /// looper's processing order under `total_event_order`.
    pub fn graph(&self) -> &SyncGraph {
        &self.base.graph
    }

    /// The event tasks in dense order.
    pub fn events(&self) -> &[TaskId] {
        &self.base.table.events
    }

    /// True when `end(e1) ≺ begin(e2)`: every operation of event `e1`
    /// happens before every operation of event `e2`.
    ///
    /// # Panics
    ///
    /// Panics if either task is not an event.
    pub fn event_before(&self, e1: TaskId, e2: TaskId) -> bool {
        let i1 = self.base.table.dense(e1).expect("e1 must be an event");
        let i2 = self.base.table.dense(e2).expect("e2 must be an event");
        let graph = &self.base.graph;
        match &self.backend {
            Backend::Demand(_) => {
                let mut core = self.backend.demand().expect("demand backend");
                core.event_before(&self.base, i1, i2)
            }
            Backend::Clocks(clocks) => clocks.reaches(graph, graph.end(e1), graph.begin(e2)),
        }
    }

    /// True when two distinct events are logically concurrent (neither
    /// fully ordered with the other).
    pub fn concurrent_events(&self, e1: TaskId, e2: TaskId) -> bool {
        e1 != e2 && !self.event_before(e1, e2) && !self.event_before(e2, e1)
    }

    /// True when both tasks are events processed by the same looper.
    pub fn same_looper(&self, t1: TaskId, t2: TaskId) -> bool {
        let trace = self.base.trace;
        match (trace.task(t1).queue(), trace.task(t2).queue()) {
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
        let graph = &self.base.graph;
        self.reaches(graph.bracket_after(a), graph.bracket_before(b))
    }

    /// Is there a non-empty path `from → to` between two sync nodes of
    /// [`graph`](HbModel::graph) under the model's relation, derived
    /// orders included? Irreflexive.
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        match &self.backend {
            Backend::Clocks(clocks) => clocks.reaches(&self.base.graph, from, to),
            Backend::Demand(_) => {
                let mut core = self.backend.demand().expect("demand backend");
                core.reaches(&self.base, from, to)
            }
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
        let graph = &self.base.graph;
        let from = graph.bracket_after(a);
        let to = graph.bracket_before(b);
        // The demand backend's derived edges are not in the graph; its
        // path finder walks base and derived adjacency together. A
        // rule-free model reads only some kinds of its base, and looper
        // order implicitly, so its chain walks the config's own graph,
        // built here: every graph of a trace numbers its nodes alike.
        let path = match self.backend.demand() {
            Some(mut core) => core.find_path(&self.base, from, to)?,
            None => base_graph(self.base.trace, &self.config).find_path(from, to)?,
        };
        Some(
            path.into_iter()
                .map(|(f, kind, t)| CauseStep {
                    from: graph.node(f),
                    kind,
                    to: graph.node(t),
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodePoint;
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

    /// T posts A then B with equal delays, yet the looper runs B first,
    /// and B notifies a monitor A waits on: queue rule 1 derives A ≺ B
    /// and the atomicity rule B ≺ A.
    fn derived_cycle() -> (Trace, TaskId, TaskId) {
        let mut b = TraceBuilder::new("cycle");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let a = b.post(t, q, "A", 0);
        let eb = b.post(t, q, "B", 0);
        let m = cafa_trace::MonitorId::new(0);
        b.process_event(eb);
        b.notify(eb, m, 0);
        b.process_event(a);
        b.wait(a, m, 0);
        (b.finish().unwrap(), a, eb)
    }

    #[test]
    fn derived_cycle_is_reported_once_a_query_forces_it() {
        let (trace, a, eb) = derived_cycle();
        let m = HbModel::build(&trace, CausalityConfig::cafa()).expect("base edges are acyclic");
        assert_eq!(m.check(), Ok(()), "nothing is derived before a query");
        m.event_before(a, eb);
        m.event_before(eb, a);
        assert_eq!(
            m.check(),
            Err(HbError::CyclicHappensBefore {
                cycle_len: 4,
                cycle_nodes: vec![
                    (eb, NodePoint::Begin),
                    (eb, NodePoint::Record(0)),
                    (a, NodePoint::Record(0)),
                    (a, NodePoint::End),
                ],
            })
        );
        // The edge that would close the cycle stays out of the relation.
        assert!(!(m.event_before(a, eb) && m.event_before(eb, a)));
    }

    #[test]
    fn recorded_orders_pass_the_check() {
        let (trace, _, _, connected, destroy) = mytracks();
        let m = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        for &e1 in m.events() {
            for &e2 in m.events() {
                m.event_before(e1, e2);
            }
        }
        assert!(m.concurrent_events(connected, destroy));
        assert_eq!(m.check(), Ok(()));
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
}
