//! Construction of the base happens-before edges from a trace.
//!
//! These are the *directly observable* causal orders of §3.3 — program
//! order (built into the graph chains), fork/join, signal-and-wait,
//! send→begin, register→perform, Binder RPC, and the external-input
//! rule — plus the baseline-specific edges (total event order,
//! unlock→lock). The *derived* orders (atomicity and queue rules) come
//! afterwards: on demand from `crate::demand`, or all at once from the
//! naive reference loop in [`crate::rules`].

use std::collections::HashMap;

use cafa_trace::{MonitorId, OpRef, Record, Trace, TxnId};

use crate::config::CausalityConfig;
use crate::graph::{EdgeKind, SyncGraph};
use crate::rules::SendSite;

/// Builds the sync graph for `trace` and installs all base edges
/// demanded by `config`.
pub fn base_graph(trace: &Trace, config: &CausalityConfig) -> SyncGraph {
    build_base(trace, config, false).0
}

/// [`base_graph`] that also returns the trace's send sites, collected
/// during the same sweep — the demand engine's rule index needs them,
/// and this saves it a second pass over the operations.
pub(crate) fn base_graph_with_sends(
    trace: &Trace,
    config: &CausalityConfig,
) -> (SyncGraph, Vec<SendSite>) {
    build_base(trace, config, true)
}

/// The shared sweep; `collect_sends` is off where no rule reads them.
fn build_base(
    trace: &Trace,
    config: &CausalityConfig,
    collect_sends: bool,
) -> (SyncGraph, Vec<SendSite>) {
    // Defer adjacency: every edge below goes only to the log, and one
    // compaction at the end builds the flat CSR — on large traces the
    // per-edge adjacency writes otherwise dominate construction.
    let mut g = SyncGraph::from_trace_deferred(trace);
    let mut sends: Vec<SendSite> = Vec::new();

    // Pairing tables filled in one sweep.
    let mut notifies: HashMap<(MonitorId, u32), Vec<OpRef>> = HashMap::new();
    let mut waits: HashMap<(MonitorId, u32), Vec<OpRef>> = HashMap::new();
    let mut registers: HashMap<cafa_trace::ListenerId, Vec<OpRef>> = HashMap::new();
    let mut performs: HashMap<cafa_trace::ListenerId, Vec<OpRef>> = HashMap::new();
    let mut rpc_calls: HashMap<TxnId, Vec<OpRef>> = HashMap::new();
    let mut rpc_handles: HashMap<TxnId, Vec<OpRef>> = HashMap::new();
    let mut rpc_replies: HashMap<TxnId, Vec<OpRef>> = HashMap::new();
    let mut rpc_receives: HashMap<TxnId, Vec<OpRef>> = HashMap::new();
    let mut locks: HashMap<MonitorId, Vec<(u32, OpRef)>> = HashMap::new();
    let mut unlocks: HashMap<MonitorId, Vec<(u32, OpRef)>> = HashMap::new();

    for (at, record) in trace.iter_ops() {
        match *record {
            Record::Fork { child } => {
                let n = g.node_of(at).expect("fork is a sync record");
                let edge = (n, g.begin(child));
                g.add_edge(edge.0, edge.1, EdgeKind::Fork);
            }
            Record::Join { child } => {
                let n = g.node_of(at).expect("join is a sync record");
                g.add_edge(g.end(child), n, EdgeKind::Join);
            }
            Record::Send {
                event,
                queue,
                delay_ms,
            } => {
                let n = g.node_of(at).expect("send is a sync record");
                g.add_edge(n, g.begin(event), EdgeKind::Send);
                sends.extend(collect_sends.then_some(SendSite {
                    node: n,
                    event,
                    queue,
                    delay_ms,
                    front: false,
                }));
            }
            Record::SendAtFront { event, queue } => {
                let n = g.node_of(at).expect("send is a sync record");
                g.add_edge(n, g.begin(event), EdgeKind::Send);
                sends.extend(collect_sends.then_some(SendSite {
                    node: n,
                    event,
                    queue,
                    delay_ms: 0,
                    front: true,
                }));
            }
            Record::Notify { monitor, gen } => notifies.entry((monitor, gen)).or_default().push(at),
            Record::Wait { monitor, gen } => waits.entry((monitor, gen)).or_default().push(at),
            Record::Register { listener } => registers.entry(listener).or_default().push(at),
            Record::Perform { listener } => performs.entry(listener).or_default().push(at),
            Record::RpcCall { txn } => rpc_calls.entry(txn).or_default().push(at),
            Record::RpcHandle { txn } => rpc_handles.entry(txn).or_default().push(at),
            Record::RpcReply { txn } => rpc_replies.entry(txn).or_default().push(at),
            Record::RpcReceive { txn } => rpc_receives.entry(txn).or_default().push(at),
            Record::Lock { monitor, gen } => locks.entry(monitor).or_default().push((gen, at)),
            Record::Unlock { monitor, gen } => unlocks.entry(monitor).or_default().push((gen, at)),
            _ => {}
        }
    }

    // Signal-and-wait rule, paired by notification generation.
    for (key, ns) in &notifies {
        if let Some(ws) = waits.get(key) {
            for &n in ns {
                for &w in ws {
                    let (nn, wn) = (g.node_of(n).unwrap(), g.node_of(w).unwrap());
                    if n.task == w.task {
                        continue; // a task cannot wake its own wait
                    }
                    g.add_edge(nn, wn, EdgeKind::NotifyWait);
                }
            }
        }
    }

    // Event-listener rule: every register happens-before every perform
    // of the same listener (same-task pairs that would contradict
    // program order are skipped; they cannot occur in real traces).
    if config.listener_rule {
        for (listener, regs) in &registers {
            if let Some(perfs) = performs.get(listener) {
                for &r in regs {
                    for &p in perfs {
                        if r.task == p.task && r.index >= p.index {
                            continue;
                        }
                        let (rn, pn) = (g.node_of(r).unwrap(), g.node_of(p).unwrap());
                        g.add_edge(rn, pn, EdgeKind::Register);
                    }
                }
            }
        }
    }

    // Binder RPC: call ≺ handle, reply ≺ receive (§5.2).
    for (txn, calls) in &rpc_calls {
        if let Some(handles) = rpc_handles.get(txn) {
            for &c in calls {
                for &h in handles {
                    g.add_edge(g.node_of(c).unwrap(), g.node_of(h).unwrap(), EdgeKind::Rpc);
                }
            }
        }
    }
    for (txn, replies) in &rpc_replies {
        if let Some(receives) = rpc_receives.get(txn) {
            for &r in replies {
                for &rc in receives {
                    g.add_edge(g.node_of(r).unwrap(), g.node_of(rc).unwrap(), EdgeKind::Rpc);
                }
            }
        }
    }

    // External-input rule: chain consecutive externally-generated events.
    if config.external_rule {
        for pair in trace.external_events().windows(2) {
            g.add_edge(g.end(pair[0]), g.begin(pair[1]), EdgeKind::External);
        }
    }

    // Conventional baseline: each looper's events in a total order.
    if config.total_event_order {
        for (_, q) in trace.queues() {
            for pair in q.events.windows(2) {
                g.add_edge(g.end(pair[0]), g.begin(pair[1]), EdgeKind::TotalOrder);
            }
        }
    }

    // FastTrack-style ablation: unlock(g) ≺ next lock acquisition.
    if config.lock_hb {
        for (monitor, mut uls) in unlocks {
            let Some(mut ls) = locks.remove(&monitor) else {
                continue;
            };
            uls.sort_by_key(|&(gen, _)| gen);
            ls.sort_by_key(|&(gen, _)| gen);
            for &(gen, at) in &uls {
                // The next acquisition after this release.
                let next = ls.partition_point(|&(lgen, _)| lgen <= gen);
                if let Some(&(_, lock_at)) = ls.get(next) {
                    g.add_edge(
                        g.node_of(at).unwrap(),
                        g.node_of(lock_at).unwrap(),
                        EdgeKind::LockOrder,
                    );
                }
            }
        }
    }

    g.compact();
    (g, sends)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;
    use cafa_trace::TraceBuilder;

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
