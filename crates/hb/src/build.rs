//! Construction of the base happens-before edges from a trace.
//!
//! These are the *directly observable* causal orders of §3.3 — program
//! order (built into the graph chains), fork/join, signal-and-wait,
//! send→begin, register→perform, Binder RPC, and the external-input
//! rule — plus the baseline-specific edges (total event order,
//! unlock→lock). The *derived* orders (atomicity and queue rules) come
//! afterwards: on demand from `crate::demand`, or all at once from the
//! naive reference loop in [`crate::rules`].
//!
//! One sweep builds every graph, whichever kinds it holds: nodes and
//! program edges go straight to flat arrays, and the records the
//! pairing rules join are listed as `(key, node)` and paired by sorting
//! rather than hashing (ids come from the input, so no table is indexed
//! by one).

use std::cmp::Ordering;

use cafa_trace::{Record, TaskId, Trace};

use crate::config::CausalityConfig;
use crate::error::HbError;
use crate::graph::{EdgeKind, EdgeKinds, NodeId, SyncGraph};
use crate::rules::{EventTable, SendSite};

/// Builds the sync graph for `trace` and installs all base edges
/// demanded by `config`.
pub fn base_graph(trace: &Trace, config: &CausalityConfig) -> SyncGraph {
    sweep(trace, EdgeKinds::of(config)).0
}

/// The base of one trace: its sync graph, its send sites and its
/// [`EventTable`], built in one sweep and shared by every
/// [`HbModel`](crate::HbModel) that can read it.
///
/// The shared base ([`HbBase::shared`]) holds CAFA's base edges. The
/// demand engine reads it as it is, for CAFA and the no-queue-rules
/// ablation alike. A rule-free model reads only its config's edge
/// kinds, so the conventional baseline reads it without the `External`
/// edges, with each looper's processing order as implicit edges. A
/// config that needs an edge kind the base lacks (`lock_hb`) gets a
/// base of its own from the same sweep.
#[derive(Debug)]
pub struct HbBase<'t> {
    pub(crate) trace: &'t Trace,
    pub(crate) graph: SyncGraph,
    pub(crate) sends: Vec<SendSite>,
    pub(crate) table: EventTable,
    /// The edge kinds `graph` holds.
    pub(crate) kinds: EdgeKinds,
}

impl<'t> HbBase<'t> {
    /// The shared base of `trace`: CAFA's base edges.
    ///
    /// # Errors
    ///
    /// [`HbError::MalformedTrace`] if an event task has no queue.
    pub fn shared(trace: &'t Trace) -> Result<Self, HbError> {
        Self::with_kinds(trace, EdgeKinds::SHARED)
    }

    /// The base of exactly `config`'s relation: what a model of `config`
    /// reads when it has no shared base. Rule-free configs read each
    /// looper's order implicitly, so it holds no `TotalOrder` edge for
    /// them.
    pub(crate) fn for_config(trace: &'t Trace, config: &CausalityConfig) -> Result<Self, HbError> {
        Self::with_kinds(trace, model_kinds(config))
    }

    fn with_kinds(trace: &'t Trace, kinds: EdgeKinds) -> Result<Self, HbError> {
        let table = EventTable::new(trace)?;
        let (graph, sends) = sweep(trace, kinds);
        Ok(Self {
            trace,
            graph,
            sends,
            table,
            kinds,
        })
    }

    /// Whether a model of `config` can read the shared base.
    pub fn shares(config: &CausalityConfig) -> bool {
        serves(EdgeKinds::SHARED, config)
    }

    /// Whether a model of `config` can read this base: the demand
    /// engine reads a base as it is, so it must hold exactly `config`'s
    /// kinds; a rule-free model reads any base holding its kinds.
    pub fn serves(&self, config: &CausalityConfig) -> bool {
        serves(self.kinds, config)
    }

    /// The sync graph.
    pub fn graph(&self) -> &SyncGraph {
        &self.graph
    }
}

/// The base kinds a model of `config` reads from its graph.
pub(crate) fn model_kinds(config: &CausalityConfig) -> EdgeKinds {
    let kinds = EdgeKinds::of(config);
    if config.derives() {
        kinds
    } else {
        kinds.without(EdgeKind::TotalOrder)
    }
}

fn serves(held: EdgeKinds, config: &CausalityConfig) -> bool {
    let wanted = model_kinds(config);
    if config.derives() {
        held == wanted
    } else {
        held.includes(wanted)
    }
}

/// A cross edge to or from a task's `begin`/`end`, logged once every
/// task has its nodes.
enum TaskEdge {
    Fork(NodeId, TaskId),
    Join(TaskId, NodeId),
    Send(NodeId, TaskId),
}

/// The one sweep every graph is built by: the graph of `trace` holding
/// the base edges of `kinds`, and the trace's send sites.
///
/// Cross edges are logged in a fixed phase order (fork, join and send
/// edges together, then each pairing rule, the external-input rule,
/// looper order and lock order), each phase in trace order within a
/// key, so a node's successors and predecessors come in the same order
/// whatever other kinds the graph holds.
pub(crate) fn sweep(trace: &Trace, kinds: EdgeKinds) -> (SyncGraph, Vec<SendSite>) {
    let mut g = SyncGraph::deferred(trace.task_count());
    let mut sends: Vec<SendSite> = Vec::new();
    let mut task_edges: Vec<TaskEdge> = Vec::new();

    // Pairing lists, `(key, node)` in trace order.
    let mut notifies = Vec::new();
    let mut waits = Vec::new();
    let mut registers = Vec::new();
    let mut performs = Vec::new();
    let mut rpc_calls = Vec::new();
    let mut rpc_handles = Vec::new();
    let mut rpc_replies = Vec::new();
    let mut rpc_receives = Vec::new();
    let mut locks = Vec::new();
    let mut unlocks = Vec::new();
    let notify_wait = kinds.contains(EdgeKind::NotifyWait);
    let listeners = kinds.contains(EdgeKind::Register);
    let rpc = kinds.contains(EdgeKind::Rpc);
    let lock_order = kinds.contains(EdgeKind::LockOrder);

    for info in trace.tasks() {
        let task = info.id;
        g.open_task(task);
        for (i, record) in trace.body(task).iter().enumerate() {
            if !record.is_sync() {
                continue;
            }
            let n = g.push_record(task, i as u32);
            match *record {
                Record::Fork { child } => task_edges.push(TaskEdge::Fork(n, child)),
                Record::Join { child } => task_edges.push(TaskEdge::Join(child, n)),
                Record::Send {
                    event,
                    queue,
                    delay_ms,
                } => {
                    task_edges.push(TaskEdge::Send(n, event));
                    sends.push(SendSite {
                        node: n,
                        event,
                        queue,
                        delay_ms,
                        front: false,
                    });
                }
                Record::SendAtFront { event, queue } => {
                    task_edges.push(TaskEdge::Send(n, event));
                    sends.push(SendSite {
                        node: n,
                        event,
                        queue,
                        delay_ms: 0,
                        front: true,
                    });
                }
                Record::Notify { monitor, gen } if notify_wait => {
                    notifies.push(((monitor, gen), n));
                }
                Record::Wait { monitor, gen } if notify_wait => waits.push(((monitor, gen), n)),
                Record::Register { listener } if listeners => registers.push((listener, n)),
                Record::Perform { listener } if listeners => performs.push((listener, n)),
                Record::RpcCall { txn } if rpc => rpc_calls.push((txn, n)),
                Record::RpcHandle { txn } if rpc => rpc_handles.push((txn, n)),
                Record::RpcReply { txn } if rpc => rpc_replies.push((txn, n)),
                Record::RpcReceive { txn } if rpc => rpc_receives.push((txn, n)),
                Record::Lock { monitor, gen } if lock_order => locks.push(((monitor, gen), n)),
                Record::Unlock { monitor, gen } if lock_order => {
                    unlocks.push(((monitor, gen), n));
                }
                _ => {}
            }
        }
        g.close_task(task);
    }
    g.seal_nodes();

    for edge in task_edges {
        match edge {
            TaskEdge::Fork(n, child) if kinds.contains(EdgeKind::Fork) => {
                g.push_cross(n, g.begin(child), EdgeKind::Fork);
            }
            TaskEdge::Join(child, n) if kinds.contains(EdgeKind::Join) => {
                g.push_cross(g.end(child), n, EdgeKind::Join);
            }
            TaskEdge::Send(n, event) if kinds.contains(EdgeKind::Send) => {
                g.push_cross(n, g.begin(event), EdgeKind::Send);
            }
            _ => {}
        }
    }

    // Signal-and-wait rule, paired by notification generation; a task
    // cannot wake its own wait.
    pair_runs(&mut notifies, &mut waits, |n, w| {
        if g.node(n).task != g.node(w).task {
            g.push_cross(n, w, EdgeKind::NotifyWait);
        }
    });

    // Event-listener rule: every register happens-before every perform
    // of the same listener (a same-task perform that program order puts
    // first is skipped; it cannot occur in real traces).
    pair_runs(&mut registers, &mut performs, |r, p| {
        if g.node(r).task != g.node(p).task || r < p {
            g.push_cross(r, p, EdgeKind::Register);
        }
    });

    // Binder RPC: call ≺ handle, reply ≺ receive (§5.2).
    pair_runs(&mut rpc_calls, &mut rpc_handles, |c, h| {
        g.push_cross(c, h, EdgeKind::Rpc);
    });
    pair_runs(&mut rpc_replies, &mut rpc_receives, |r, rc| {
        g.push_cross(r, rc, EdgeKind::Rpc);
    });

    // External-input rule: chain consecutive externally-generated
    // events. Each external event is listed once.
    let external = kinds.contains(EdgeKind::External);
    if external {
        for pair in trace.external_events().windows(2) {
            g.push_cross(g.end(pair[0]), g.begin(pair[1]), EdgeKind::External);
        }
    }

    // Conventional baseline: each looper's events in a total order,
    // except where the external-input rule already put an edge.
    if kinds.contains(EdgeKind::TotalOrder) {
        let mut external_next = vec![None; if external { trace.task_count() } else { 0 }];
        for pair in trace.external_events().windows(2) {
            if let Some(next) = external_next.get_mut(pair[0].index()) {
                *next = Some(pair[1]);
            }
        }
        for (_, q) in trace.queues() {
            for pair in q.events.windows(2) {
                if external_next.get(pair[0].index()) != Some(&Some(pair[1])) {
                    g.push_cross(g.end(pair[0]), g.begin(pair[1]), EdgeKind::TotalOrder);
                }
            }
        }
    }

    // FastTrack-style ablation: unlock(g) ≺ next lock acquisition of the
    // same monitor.
    if lock_order {
        locks.sort_unstable();
        unlocks.sort_unstable();
        let mut from = 0;
        for &((monitor, gen), unlock) in &unlocks {
            from += locks[from..].partition_point(|&((m, _), _)| m < monitor);
            let same = &locks[from..];
            let same = &same[..same.partition_point(|&((m, _), _)| m == monitor)];
            let next = same.partition_point(|&((_, lgen), _)| lgen <= gen);
            if let Some(&(_, lock)) = same.get(next) {
                g.push_cross(unlock, lock, EdgeKind::LockOrder);
            }
        }
    }

    g.compact();
    (g, sends)
}

/// Sorts two `(key, node)` lists and calls `pair(a, b)` for every `a`
/// and `b` of one key: keys ascending, then `a`, then `b`, each in
/// trace order (node ids ascend in trace order, so sorting the pairs
/// keeps it within a key).
fn pair_runs<K: Ord + Copy>(
    a: &mut [(K, NodeId)],
    b: &mut [(K, NodeId)],
    mut pair: impl FnMut(NodeId, NodeId),
) {
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let key = a[i].0;
        match key.cmp(&b[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let a_end = i + a[i..].partition_point(|x| x.0 == key);
                let b_end = j + b[j..].partition_point(|x| x.0 == key);
                for &(_, x) in &a[i..a_end] {
                    for &(_, y) in &b[j..b_end] {
                        pair(x, y);
                    }
                }
                (i, j) = (a_end, b_end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;
    use cafa_trace::{MonitorId, OpRef, TraceBuilder};

    #[test]
    fn fork_join_edges() {
        let mut b = TraceBuilder::new("t");
        let p = b.add_process();
        let main = b.add_thread(p, "main");
        let w = b.fork(main, p, "w");
        b.join(main, w);
        let trace = b.finish().unwrap();
        let g = base_graph(&trace, &CausalityConfig::cafa());
        let mut scratch = BitSet::new(g.node_count());
        assert!(g.reaches(g.begin(main), g.begin(w), &mut scratch));
        assert!(g.reaches(g.end(w), g.end(main), &mut scratch));
    }

    #[test]
    fn notify_wait_pairs_by_generation() {
        let mut b = TraceBuilder::new("t");
        let p = b.add_process();
        let a = b.add_thread(p, "a");
        let c = b.add_thread(p, "c");
        let m = MonitorId::new(0);
        b.notify(a, m, 1);
        b.notify(a, m, 2);
        b.wait(c, m, 2);
        let trace = b.finish().unwrap();
        let g = base_graph(&trace, &CausalityConfig::cafa());
        let mut scratch = BitSet::new(g.node_count());
        let n2 = g.node_of(OpRef::new(a, 1)).unwrap();
        let w2 = g.node_of(OpRef::new(c, 0)).unwrap();
        let n1 = g.node_of(OpRef::new(a, 0)).unwrap();
        assert!(g.reaches(n2, w2, &mut scratch));
        // gen-1 notify reaches the wait only through program order to
        // gen-2, which is fine; the direct pairing is gen-2 only.
        assert!(g.reaches(n1, w2, &mut scratch));
    }

    #[test]
    fn external_rule_chains_by_generation_not_processing() {
        let mut b = TraceBuilder::new("t");
        let p = b.add_process();
        let q = b.add_queue(p);
        let e1 = b.external(q, "first");
        let e2 = b.external(q, "second");
        // Processed in the opposite order.
        b.process_event(e2);
        b.process_event(e1);
        let trace = b.finish().unwrap();
        let g = base_graph(&trace, &CausalityConfig::cafa());
        let mut scratch = BitSet::new(g.node_count());
        assert!(g.reaches(g.end(e1), g.begin(e2), &mut scratch));
        assert!(!g.reaches(g.end(e2), g.begin(e1), &mut scratch));

        // With the rule off, no order at all.
        let mut off = CausalityConfig::cafa();
        off.external_rule = false;
        let g = base_graph(&trace, &off);
        let mut scratch = BitSet::new(g.node_count());
        assert!(!g.reaches(g.end(e1), g.begin(e2), &mut scratch));
    }

    #[test]
    fn total_order_follows_processing_sequence() {
        let mut b = TraceBuilder::new("t");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "main");
        let e1 = b.post(t, q, "e1", 0);
        let e2 = b.post(t, q, "e2", 100);
        b.process_event(e1);
        b.process_event(e2);
        let trace = b.finish().unwrap();
        let g = base_graph(&trace, &CausalityConfig::conventional());
        let mut scratch = BitSet::new(g.node_count());
        assert!(g.reaches(g.end(e1), g.begin(e2), &mut scratch));
    }

    #[test]
    fn lock_hb_chains_acquisitions() {
        let mut b = TraceBuilder::new("t");
        let p = b.add_process();
        let a = b.add_thread(p, "a");
        let c = b.add_thread(p, "c");
        let m = MonitorId::new(3);
        b.lock(a, m, 0);
        b.unlock(a, m, 0);
        b.lock(c, m, 1);
        b.unlock(c, m, 1);
        let trace = b.finish().unwrap();

        let g = base_graph(&trace, &CausalityConfig::fasttrack_like());
        let mut scratch = BitSet::new(g.node_count());
        let rel_a = g.node_of(OpRef::new(a, 1)).unwrap();
        let acq_c = g.node_of(OpRef::new(c, 0)).unwrap();
        assert!(g.reaches(rel_a, acq_c, &mut scratch));

        // CAFA derives no such order.
        let g = base_graph(&trace, &CausalityConfig::cafa());
        let mut scratch = BitSet::new(g.node_count());
        let rel_a = g.node_of(OpRef::new(a, 1)).unwrap();
        let acq_c = g.node_of(OpRef::new(c, 0)).unwrap();
        assert!(!g.reaches(rel_a, acq_c, &mut scratch));
    }

    #[test]
    fn rpc_edges_cross_processes() {
        let mut b = TraceBuilder::new("t");
        let p1 = b.add_process();
        let p2 = b.add_process();
        let caller = b.add_thread(p1, "caller");
        let svc = b.add_thread(p2, "svc");
        let (txn, _) = b.rpc_call(caller);
        b.rpc_handle(svc, txn);
        b.rpc_reply(svc, txn);
        b.rpc_receive(caller, txn);
        let trace = b.finish().unwrap();
        let g = base_graph(&trace, &CausalityConfig::cafa());
        let mut scratch = BitSet::new(g.node_count());
        let call = g.node_of(OpRef::new(caller, 0)).unwrap();
        let handle = g.node_of(OpRef::new(svc, 0)).unwrap();
        let reply = g.node_of(OpRef::new(svc, 1)).unwrap();
        let recv = g.node_of(OpRef::new(caller, 1)).unwrap();
        assert!(g.reaches(call, handle, &mut scratch));
        assert!(g.reaches(reply, recv, &mut scratch));
        assert!(!g.reaches(recv, call, &mut scratch));
    }

    #[test]
    fn same_task_register_then_perform_is_one_program_edge() {
        let mut b = TraceBuilder::new("t");
        let p = b.add_process();
        let t = b.add_thread(p, "main");
        let l = b.add_listener("android.view");
        let reg = b.register(t, l);
        let perf = b.perform(t, l);
        let trace = b.finish().unwrap();
        let g = base_graph(&trace, &CausalityConfig::cafa());
        let (rn, pn) = (g.node_of(reg).unwrap(), g.node_of(perf).unwrap());
        assert_eq!(pn, rn + 1, "adjacent sync nodes");
        let between: Vec<EdgeKind> = g
            .edge_log()
            .iter()
            .filter(|&&(from, to, _)| (from, to) == (rn, pn))
            .map(|&(_, _, kind)| kind)
            .collect();
        assert_eq!(between, [EdgeKind::Program], "stored once");
        assert_eq!(g.succs(rn).count(), 1);
        // begin → register → perform → end: three program edges.
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn build_logs_no_total_order_edge_for_a_model() {
        let mut b = TraceBuilder::new("t");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "main");
        let e1 = b.post(t, q, "e1", 0);
        let e2 = b.post(t, q, "e2", 100);
        b.process_event(e1);
        b.process_event(e2);
        let trace = b.finish().unwrap();
        for config in [
            CausalityConfig::cafa(),
            CausalityConfig::conventional(),
            CausalityConfig::no_queue_rules(),
            CausalityConfig::fasttrack_like(),
        ] {
            let base = HbBase::for_config(&trace, &config).unwrap();
            let kinds = base.graph.edge_kind_counts();
            assert!(kinds.iter().all(|&(k, _)| k != EdgeKind::TotalOrder));
        }
        let shared = HbBase::shared(&trace).unwrap();
        assert!(shared.serves(&CausalityConfig::conventional()));
        assert!(!shared.serves(&CausalityConfig::fasttrack_like()));
        // The reference graph still materializes looper order.
        let g = base_graph(&trace, &CausalityConfig::conventional());
        assert!(g.edge_kind_counts().contains(&(EdgeKind::TotalOrder, 1)));
    }

    #[test]
    fn listener_rule_toggles() {
        let mut b = TraceBuilder::new("t");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "main");
        let l = b.add_listener("android.view");
        b.register(t, l);
        let e = b.external(q, "cb");
        b.process_event(e);
        b.perform(e, l);
        let trace = b.finish().unwrap();

        let g = base_graph(&trace, &CausalityConfig::cafa());
        let mut scratch = BitSet::new(g.node_count());
        let reg = g.node_of(OpRef::new(t, 0)).unwrap();
        assert!(g.reaches(reg, g.end(e), &mut scratch));

        let mut off = CausalityConfig::cafa();
        off.listener_rule = false;
        let g = base_graph(&trace, &off);
        let mut scratch = BitSet::new(g.node_count());
        let reg = g.node_of(OpRef::new(t, 0)).unwrap();
        assert!(!g.reaches(reg, g.end(e), &mut scratch));
    }
}
