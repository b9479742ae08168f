//! Incremental (suffix-extending) happens-before graph for live
//! queries over a trace that is still arriving.
//!
//! A streaming ingester learns the trace in order: the complete task
//! table first, then each task's body, one completed task at a time.
//! Its authoritative report comes from the batch pipeline once the
//! trace is complete; [`IncrementalHb`] only serves the *provisional*
//! queries a live watcher asks before that:
//!
//! 1. [`IncrementalHb::new`] — called once the tables are known —
//!    builds the skeleton graph (begin/end nodes for every task) and
//!    installs the table-derived base edges (external-input chain,
//!    baseline total order);
//! 2. [`ingest`](IncrementalHb::ingest) appends a task's newly arrived
//!    records: sync nodes, program edges, and cross-task base edges
//!    paired against everything already ingested;
//! 3. [`seal`](IncrementalHb::seal) closes a completed task's
//!    program-order chain;
//! 4. [`demand_event_before`](IncrementalHb::demand_event_before) and
//!    [`demand_happens_before`](IncrementalHb::demand_happens_before)
//!    answer the §3.3 relation over the graph-so-far through the
//!    demand engine, which settles only the cones a query probes and
//!    follows graph growth between queries.
//!
//! Base edges are append-monotone: every pairing rule fires exactly the
//! pairs the batch builder fires, just interleaved with ingestion. The
//! sole exception, the unlock→lock edges of lock-ordered ablations,
//! needs the global acquisition order and is never installed here, so
//! under those ablations live answers may miss orderings the final
//! report has — provisional answers are concurrency evidence only.
//!
//! [`derive_now_reference`](IncrementalHb::derive_now_reference) runs
//! the naive textbook fixpoint over the graph-so-far instead: the small
//! independent reference the seal-by-seal differential suite compares
//! demand answers against.

use std::collections::HashMap;

use cafa_trace::{ListenerId, MonitorId, OpRef, Record, TaskId, Trace, TxnId};

use crate::config::CausalityConfig;
use crate::demand::{DemandCore, DemandStats};
use crate::error::HbError;
use crate::graph::{EdgeKind, SyncGraph};
use crate::rules::{fixpoint_naive, DerivationStats, EventTable, FixpointState, SendSite};

/// An append-only happens-before graph over a streaming trace, queried
/// through the demand engine.
///
/// Methods take the (growing) trace by reference on each call rather
/// than borrowing it for the builder's lifetime, so the caller can keep
/// extending the trace between calls. The task table must be complete
/// and must not change across calls; bodies may only grow, and records
/// of one task must all be ingested before [`seal`](IncrementalHb::seal)
/// closes its program-order chain.
#[derive(Debug)]
pub struct IncrementalHb {
    config: CausalityConfig,
    graph: SyncGraph,
    /// Dense numbering of the (fixed) event set.
    table: EventTable,
    /// Send sites, in ingestion order.
    sends: Vec<SendSite>,
    // Pairing tables, persisted so each new record pairs against every
    // previously ingested counterpart exactly once.
    notifies: HashMap<(MonitorId, u32), Vec<OpRef>>,
    waits: HashMap<(MonitorId, u32), Vec<OpRef>>,
    registers: HashMap<ListenerId, Vec<OpRef>>,
    performs: HashMap<ListenerId, Vec<OpRef>>,
    rpc_calls: HashMap<TxnId, Vec<OpRef>>,
    rpc_handles: HashMap<TxnId, Vec<OpRef>>,
    rpc_replies: HashMap<TxnId, Vec<OpRef>>,
    rpc_receives: HashMap<TxnId, Vec<OpRef>>,
    /// Records already ingested per task.
    ingested: Vec<u32>,
    sealed: Vec<bool>,
    /// Lazy rule-query engine over the graph-so-far, created on the
    /// first `demand_*` query. It materializes no edges into the graph
    /// and pays only for the cones queries probe.
    demand: Option<DemandCore>,
}

impl IncrementalHb {
    /// Starts incremental construction for a trace whose task table is
    /// complete (bodies may be empty or partial; only records up to
    /// each later `ingest` call are consumed).
    ///
    /// # Errors
    ///
    /// [`HbError::MalformedTrace`] if an event task has no queue.
    pub fn new(trace: &Trace, config: CausalityConfig) -> Result<Self, HbError> {
        let table = EventTable::new(trace)?;
        let mut graph = SyncGraph::skeleton(trace);

        // Table-derived base edges exist before any body arrives.
        if config.external_rule {
            for pair in trace.external_events().windows(2) {
                graph.add_edge(graph.end(pair[0]), graph.begin(pair[1]), EdgeKind::External);
            }
        }
        if config.total_event_order {
            for (_, q) in trace.queues() {
                for pair in q.events.windows(2) {
                    graph.add_edge(
                        graph.end(pair[0]),
                        graph.begin(pair[1]),
                        EdgeKind::TotalOrder,
                    );
                }
            }
        }

        let task_count = trace.task_count();
        Ok(Self {
            config,
            graph,
            table,
            sends: Vec::new(),
            notifies: HashMap::new(),
            waits: HashMap::new(),
            registers: HashMap::new(),
            performs: HashMap::new(),
            rpc_calls: HashMap::new(),
            rpc_handles: HashMap::new(),
            rpc_replies: HashMap::new(),
            rpc_receives: HashMap::new(),
            ingested: vec![0; task_count],
            sealed: vec![false; task_count],
            demand: None,
        })
    }

    /// Creates the demand engine on first use and follows graph growth:
    /// newly appended nodes/edges extend its mark arrays and invalidate
    /// its cone memos and settlement stamps (growth is monotone, so
    /// previously derived edges are kept). Must run before every
    /// `demand_*` query. Public so streaming callers can charge the
    /// extension cost to the right pass instead of the first query.
    pub fn sync_demand(&mut self) {
        let core = self
            .demand
            .get_or_insert_with(|| DemandCore::new(&self.graph, self.table.clone(), self.config));
        core.sync_graph(&self.graph);
        core.register_sends(&self.graph, &self.sends);
    }

    /// Answers `end(e1) ≺ begin(e2)` over the graph-so-far through the
    /// demand engine — the full §3.3 relation restricted to what has
    /// been ingested, without materializing edges. An unsealed task's
    /// `end` is still disconnected from its chain, so orders that
    /// depend on a task being complete correctly stay unreported until
    /// [`seal`](IncrementalHb::seal).
    ///
    /// # Panics
    ///
    /// Panics if either task is not an event.
    pub fn demand_event_before(&mut self, e1: TaskId, e2: TaskId) -> bool {
        let i1 = self.table.dense(e1).expect("e1 must be an event");
        let i2 = self.table.dense(e2).expect("e2 must be an event");
        self.sync_demand();
        let core = self.demand.as_mut().expect("synced above");
        core.event_before(&self.graph, i1, i2)
    }

    /// Operation-level happens-before over the graph-so-far through the
    /// demand engine (strict; see
    /// [`demand_event_before`](IncrementalHb::demand_event_before)).
    pub fn demand_happens_before(&mut self, a: OpRef, b: OpRef) -> bool {
        if a.task == b.task {
            return a.index < b.index;
        }
        let from = self.graph.bracket_after(a);
        let to = self.graph.bracket_before(b);
        self.sync_demand();
        let core = self.demand.as_mut().expect("synced above");
        core.reaches(&self.graph, from, to)
    }

    /// Work counters of the demand engine, if any `demand_*` query ran.
    pub fn demand_stats(&self) -> Option<DemandStats> {
        self.demand.as_ref().map(DemandCore::stats)
    }

    /// The graph as built so far: base edges, plus derived edges only
    /// after [`derive_now_reference`](IncrementalHb::derive_now_reference).
    pub fn graph(&self) -> &SyncGraph {
        &self.graph
    }

    /// Modeled resident footprint of the builder's state, in bytes:
    /// graph nodes and edges plus the demand engine's per-node marks.
    /// An accounting estimate for memory budgeting — not an allocator
    /// measurement — but it scales with the real cost and is
    /// deterministic, so an eviction threshold expressed against it
    /// behaves identically on every run.
    pub fn footprint_estimate(&self) -> usize {
        // Node metadata + adjacency entries (succ + pred per edge) +
        // the chronological edge log + dedup set.
        let nodes = self.graph.node_count() * 64;
        let edges = self.graph.edge_count() * 80;
        let demand = self
            .demand
            .as_ref()
            .map_or(0, |_| self.graph.node_count() * 40);
        nodes + edges + demand
    }

    /// Appends `task`'s records beyond what was already ingested:
    /// creates sync nodes and installs their base edges against every
    /// previously ingested counterpart.
    ///
    /// # Panics
    ///
    /// Panics if `task` was already sealed while its body kept growing.
    pub fn ingest(&mut self, trace: &Trace, task: TaskId) {
        let body = trace.body(task);
        let from = self.ingested[task.index()] as usize;
        if from < body.len() {
            assert!(!self.sealed[task.index()], "records after seal of {task}");
        }
        for (i, r) in body.iter().enumerate().skip(from) {
            if !r.is_sync() {
                continue;
            }
            let at = OpRef::new(task, i as u32);
            let n = self.graph.append_record(task, i as u32);
            match *r {
                Record::Fork { child } => {
                    self.graph
                        .add_edge(n, self.graph.begin(child), EdgeKind::Fork);
                }
                Record::Join { child } => {
                    self.graph
                        .add_edge(self.graph.end(child), n, EdgeKind::Join);
                }
                Record::Send {
                    event,
                    queue,
                    delay_ms,
                } => {
                    self.graph
                        .add_edge(n, self.graph.begin(event), EdgeKind::Send);
                    self.sends.push(SendSite {
                        node: n,
                        event,
                        queue,
                        delay_ms,
                        front: false,
                    });
                }
                Record::SendAtFront { event, queue } => {
                    self.graph
                        .add_edge(n, self.graph.begin(event), EdgeKind::Send);
                    self.sends.push(SendSite {
                        node: n,
                        event,
                        queue,
                        delay_ms: 0,
                        front: true,
                    });
                }
                Record::Notify { monitor, gen } => {
                    for &w in self.waits.get(&(monitor, gen)).map_or(&[][..], |v| v) {
                        if w.task != task {
                            let wn = self.graph.node_of(w).expect("ingested sync record");
                            self.graph.add_edge(n, wn, EdgeKind::NotifyWait);
                        }
                    }
                    self.notifies.entry((monitor, gen)).or_default().push(at);
                }
                Record::Wait { monitor, gen } => {
                    for &nf in self.notifies.get(&(monitor, gen)).map_or(&[][..], |v| v) {
                        if nf.task != task {
                            let nn = self.graph.node_of(nf).expect("ingested sync record");
                            self.graph.add_edge(nn, n, EdgeKind::NotifyWait);
                        }
                    }
                    self.waits.entry((monitor, gen)).or_default().push(at);
                }
                Record::Register { listener } => {
                    if self.config.listener_rule {
                        for &p in self.performs.get(&listener).map_or(&[][..], |v| v) {
                            if at.task == p.task && at.index >= p.index {
                                continue;
                            }
                            let pn = self.graph.node_of(p).expect("ingested sync record");
                            self.graph.add_edge(n, pn, EdgeKind::Register);
                        }
                    }
                    self.registers.entry(listener).or_default().push(at);
                }
                Record::Perform { listener } => {
                    if self.config.listener_rule {
                        for &reg in self.registers.get(&listener).map_or(&[][..], |v| v) {
                            if reg.task == at.task && reg.index >= at.index {
                                continue;
                            }
                            let rn = self.graph.node_of(reg).expect("ingested sync record");
                            self.graph.add_edge(rn, n, EdgeKind::Register);
                        }
                    }
                    self.performs.entry(listener).or_default().push(at);
                }
                Record::RpcCall { txn } => {
                    for &h in self.rpc_handles.get(&txn).map_or(&[][..], |v| v) {
                        let hn = self.graph.node_of(h).expect("ingested sync record");
                        self.graph.add_edge(n, hn, EdgeKind::Rpc);
                    }
                    self.rpc_calls.entry(txn).or_default().push(at);
                }
                Record::RpcHandle { txn } => {
                    for &c in self.rpc_calls.get(&txn).map_or(&[][..], |v| v) {
                        let cn = self.graph.node_of(c).expect("ingested sync record");
                        self.graph.add_edge(cn, n, EdgeKind::Rpc);
                    }
                    self.rpc_handles.entry(txn).or_default().push(at);
                }
                Record::RpcReply { txn } => {
                    for &rc in self.rpc_receives.get(&txn).map_or(&[][..], |v| v) {
                        let rn = self.graph.node_of(rc).expect("ingested sync record");
                        self.graph.add_edge(n, rn, EdgeKind::Rpc);
                    }
                    self.rpc_replies.entry(txn).or_default().push(at);
                }
                Record::RpcReceive { txn } => {
                    for &rp in self.rpc_replies.get(&txn).map_or(&[][..], |v| v) {
                        let rn = self.graph.node_of(rp).expect("ingested sync record");
                        self.graph.add_edge(rn, n, EdgeKind::Rpc);
                    }
                    self.rpc_receives.entry(txn).or_default().push(at);
                }
                _ => {}
            }
        }
        self.ingested[task.index()] = body.len() as u32;
    }

    /// Ingests any remaining records of `task` and closes its
    /// program-order chain. Idempotent.
    pub fn seal(&mut self, trace: &Trace, task: TaskId) {
        if self.sealed[task.index()] {
            return;
        }
        self.ingest(trace, task);
        self.graph.seal_task(task);
        self.sealed[task.index()] = true;
    }

    /// Runs the naive reference fixpoint over the graph-so-far,
    /// materializing every derived edge into it. `trace` must be the
    /// trace the builder was created with. Exposed (hidden) for the
    /// differential test suite only: a session that calls it stops
    /// being a demand-only session, since later demand queries walk
    /// the materialized edges too.
    ///
    /// # Errors
    ///
    /// [`HbError`] if the graph-so-far is cyclic (inconsistent input)
    /// or the fixpoint diverges.
    #[doc(hidden)]
    pub fn derive_now_reference(&mut self, trace: &Trace) -> Result<DerivationStats, HbError> {
        let mut st = FixpointState::new(trace)?;
        st.add_sends(&self.sends);
        fixpoint_naive(&mut self.graph, &self.config, &mut st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HbModel;
    use cafa_trace::{ObjId, Pc, TraceBuilder, VarId};

    fn figure1_trace() -> Trace {
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
        b.obj_read(connected, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x10));
        b.process_event(destroy);
        b.obj_write(destroy, VarId::new(0), None, Pc::new(0x20));
        b.finish().unwrap()
    }

    fn cascade_trace() -> Trace {
        // Queue-rule edge enables an atomicity edge in a later round,
        // plus fork/join, notify/wait, locks, and a front-send.
        let mut b = TraceBuilder::new("cascade");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let a = b.post(t, q, "A", 0);
        let e = b.post(t, q, "B", 0);
        b.process_event(a);
        let w = b.fork(a, p, "w");
        b.write(w, VarId::new(3));
        b.join(a, w);
        b.process_event(e);
        let c = b.post(e, q, "C", 0);
        let f = b.post_front(e, q, "F");
        b.process_event(f);
        b.process_event(c);
        let m = MonitorId::new(1);
        b.lock(t, m, 0);
        b.unlock(t, m, 0);
        b.finish().unwrap()
    }

    /// Fully sealed, demand answers equal the batch model's on every
    /// event pair and every operation pair.
    fn assert_sealed_matches_batch(
        trace: &Trace,
        config: CausalityConfig,
        inc: &mut IncrementalHb,
    ) {
        let batch = HbModel::build(trace, config).expect("batch build");
        for &e1 in batch.events() {
            for &e2 in batch.events() {
                if e1 != e2 {
                    assert_eq!(
                        batch.event_before(e1, e2),
                        inc.demand_event_before(e1, e2),
                        "event order {e1}->{e2} diverged"
                    );
                }
            }
        }
        let ops: Vec<OpRef> = trace.iter_ops().map(|(at, _)| at).collect();
        for &a in &ops {
            for &b in &ops {
                assert_eq!(
                    batch.happens_before(a, b),
                    inc.demand_happens_before(a, b),
                    "op order {a:?}->{b:?} diverged"
                );
            }
        }
    }

    /// Every preset without lock-ordered edges (those are never
    /// installed incrementally; see the module docs).
    #[test]
    fn sealed_demand_answers_match_batch() {
        for trace in [figure1_trace(), cascade_trace()] {
            for config in [
                CausalityConfig::cafa(),
                CausalityConfig::conventional(),
                CausalityConfig::no_queue_rules(),
            ] {
                let mut inc = IncrementalHb::new(&trace, config).unwrap();
                for info in trace.tasks() {
                    inc.seal(&trace, info.id);
                }
                assert_sealed_matches_batch(&trace, config, &mut inc);
            }
        }
    }

    #[test]
    fn partial_ingest_then_more_records() {
        // Ingest may be called repeatedly as a body grows; pairing must
        // not duplicate edges.
        let trace = figure1_trace();
        let config = CausalityConfig::cafa();
        let mut inc = IncrementalHb::new(&trace, config).unwrap();
        for info in trace.tasks() {
            inc.ingest(&trace, info.id); // full body
            let edges = inc.graph().edge_count();
            inc.ingest(&trace, info.id); // no-op: nothing new
            assert_eq!(inc.graph().edge_count(), edges);
            inc.seal(&trace, info.id);
        }
        assert_sealed_matches_batch(&trace, config, &mut inc);
    }

    #[test]
    fn no_demand_state_until_the_first_query() {
        let trace = figure1_trace();
        let mut inc = IncrementalHb::new(&trace, CausalityConfig::cafa()).unwrap();
        for info in trace.tasks() {
            inc.seal(&trace, info.id);
        }
        assert!(inc.demand_stats().is_none());
        let quiet = inc.footprint_estimate();
        let events: Vec<TaskId> = trace
            .tasks()
            .filter(|t| t.is_event())
            .map(|t| t.id)
            .collect();
        inc.demand_event_before(events[0], events[1]);
        assert!(inc.demand_stats().is_some_and(|s| s.queries > 0));
        assert!(inc.footprint_estimate() > quiet);
    }
}
