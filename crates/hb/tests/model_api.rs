//! API-surface tests for the happens-before crate: explain chains,
//! derivation statistics, edge-kind accounting, locksets across tasks,
//! and the event table.

use std::sync::Arc;

use cafa_hb::{
    base_graph, derive_naive, CausalityConfig, EdgeKind, EventTable, HbBase, HbModel, LockSets,
    OpOrder,
};
use cafa_trace::{MonitorId, ObjId, OpRef, Pc, TraceBuilder, VarId};

#[test]
fn explain_follows_an_rpc_chain() {
    let mut b = TraceBuilder::new("rpc-explain");
    let p1 = b.add_process();
    let p2 = b.add_process();
    let caller = b.add_thread(p1, "caller");
    let svc = b.add_thread(p2, "svc");
    let before = b.write(caller, VarId::new(0));
    let (txn, _) = b.rpc_call(caller);
    b.rpc_handle(svc, txn);
    let in_svc = b.write(svc, VarId::new(1));
    b.rpc_reply(svc, txn);
    b.rpc_receive(caller, txn);
    let after = b.write(caller, VarId::new(2));
    let trace = b.finish().unwrap();
    let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();

    // caller's pre-call write ≺ service body write: via the Rpc edge.
    let chain = model
        .explain(before, in_svc)
        .expect("ordered through the call");
    assert!(chain.iter().any(|s| s.kind == EdgeKind::Rpc));

    // service body write ≺ caller's post-receive write: via the reply.
    let chain = model
        .explain(in_svc, after)
        .expect("ordered through the reply");
    assert!(chain.iter().any(|s| s.kind == EdgeKind::Rpc));

    // Unordered pairs yield no chain.
    assert!(model.explain(after, before).is_none());
    assert_eq!(model.order(after, in_svc), OpOrder::After);
}

#[test]
fn derivation_stats_count_rule_firings() {
    let mut b = TraceBuilder::new("stats");
    let p = b.add_process();
    let q = b.add_queue(p);
    let t = b.add_thread(p, "T");
    // Rule 1 chain of three events.
    let e1 = b.post(t, q, "e1", 1);
    let e2 = b.post(t, q, "e2", 1);
    let e3 = b.post(t, q, "e3", 1);
    b.process_event(e1);
    b.process_event(e2);
    b.process_event(e3);
    let trace = b.finish().unwrap();

    let config = CausalityConfig::cafa();
    let mut g = base_graph(&trace, &config);
    let stats = derive_naive(&mut g, &trace, &config).unwrap();
    assert!(stats.rounds >= 1);
    // Adjacent pairs materialize; the transitive (e1, e3) pair is
    // implied and skipped, so exactly 2 rule-1 edges.
    assert_eq!(stats.queue_edges[0], 2);
    assert_eq!(stats.derived_edges(), stats.atomicity_edges + 2);

    let queue_edge_total: usize = g
        .edge_kind_counts()
        .iter()
        .filter(|(k, _)| matches!(k, EdgeKind::Queue(_)))
        .map(|(_, n)| *n)
        .sum();
    assert_eq!(queue_edge_total, 2);
}

#[test]
fn event_table_is_dense_over_events() {
    let mut b = TraceBuilder::new("table");
    let p = b.add_process();
    let q = b.add_queue(p);
    let t = b.add_thread(p, "T");
    let e1 = b.post(t, q, "e1", 0);
    let e2 = b.external(q, "e2");
    b.process_event(e1);
    b.process_event(e2);
    let trace = b.finish().unwrap();
    let table = EventTable::new(&trace).unwrap();
    assert_eq!(table.len(), 2);
    assert!(!table.is_empty());
    assert_eq!(table.dense(e1), Some(0));
    assert_eq!(table.dense(e2), Some(1));
    assert_eq!(table.dense(t), None, "threads are not events");
}

#[test]
fn locksets_filter_only_under_a_common_monitor() {
    let mut b = TraceBuilder::new("locks");
    let p = b.add_process();
    let q = b.add_queue(p);
    let t1 = b.add_thread(p, "s1");
    let t2 = b.add_thread(p, "s2");
    let ev = b.post(t1, q, "ev", 0);
    b.process_event(ev);
    let m = MonitorId::new(0);
    let other = MonitorId::new(1);
    b.lock(ev, m, 1);
    let in_ev = b.obj_read(ev, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x10));
    b.unlock(ev, m, 1);
    b.lock(t2, m, 2);
    let same_mon = b.obj_write(t2, VarId::new(0), None, Pc::new(0x20));
    b.unlock(t2, m, 2);
    b.lock(t2, other, 1);
    let diff_mon = b.obj_write(t2, VarId::new(0), None, Pc::new(0x24));
    b.unlock(t2, other, 1);
    let trace = b.finish().unwrap();

    let locks = LockSets::new(&trace);
    assert_eq!(locks.common(in_ev, same_mon), Some(m));
    assert_eq!(locks.common(in_ev, diff_mon), None);
    // Events participate in locksets like any task.
    assert_eq!(locks.held(in_ev), vec![m]);
}

#[test]
fn explain_includes_derived_queue_edges() {
    let mut b = TraceBuilder::new("explain-queue");
    let p = b.add_process();
    let q = b.add_queue(p);
    let t = b.add_thread(p, "T");
    let e1 = b.post(t, q, "e1", 2);
    let e2 = b.post(t, q, "e2", 2);
    b.process_event(e1);
    let w1 = b.write(e1, VarId::new(0));
    b.process_event(e2);
    let w2 = b.write(e2, VarId::new(0));
    let trace = b.finish().unwrap();
    let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
    let chain = model.explain(w1, w2).expect("rule 1 orders the writes");
    assert!(
        chain.iter().any(|s| matches!(s.kind, EdgeKind::Queue(1))),
        "the chain names queue rule 1: {chain:?}"
    );
}

#[test]
fn same_task_explain_is_program_order() {
    let mut b = TraceBuilder::new("po");
    let p = b.add_process();
    let t = b.add_thread(p, "T");
    let a = b.write(t, VarId::new(0));
    let c = b.write(t, VarId::new(1));
    let trace = b.finish().unwrap();
    let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
    let chain = model.explain(a, c).unwrap();
    assert_eq!(chain.len(), 1);
    assert_eq!(chain[0].kind, EdgeKind::Program);
    assert!(model.explain(OpRef::new(t, 0), OpRef::new(t, 0)).is_none());
}

/// Two loopers, each processing two events, plus an external event on
/// each: the shapes the conventional explain chains are checked on.
fn two_loopers() -> (cafa_trace::Trace, [OpRef; 4]) {
    let mut b = TraceBuilder::new("loopers");
    let p = b.add_process();
    let q1 = b.add_queue(p);
    let q2 = b.add_queue(p);
    let s1 = b.add_thread(p, "s1");
    let s2 = b.add_thread(p, "s2");
    // Posted by two threads: only the looper orders them.
    let first = b.post(s1, q1, "first", 0);
    let second = b.post(s2, q1, "second", 0);
    b.process_event(first);
    let in_first = b.write(first, VarId::new(0));
    b.process_event(second);
    let in_second = b.write(second, VarId::new(0));
    // Consecutive externals on different loopers: only the
    // external-input rule orders them.
    let tap = b.external(q1, "tap");
    let key = b.external(q2, "key");
    b.process_event(tap);
    let in_tap = b.write(tap, VarId::new(1));
    b.process_event(key);
    let in_key = b.write(key, VarId::new(1));
    (b.finish().unwrap(), [in_first, in_second, in_tap, in_key])
}

#[test]
fn conventional_explain_names_looper_order_and_no_external_edge() {
    let (trace, [in_first, in_second, in_tap, in_key]) = two_loopers();
    let shared = Arc::new(HbBase::shared(&trace).unwrap());
    let models = [
        HbModel::with_base(shared, CausalityConfig::conventional()).unwrap(),
        HbModel::build(&trace, CausalityConfig::conventional()).unwrap(),
    ];
    for model in &models {
        // One looper: ordered by its processing order alone.
        let chain = model
            .explain(in_first, in_second)
            .expect("the looper orders its events");
        assert!(
            chain.iter().any(|s| s.kind == EdgeKind::TotalOrder),
            "the chain names the looper order: {chain:?}"
        );
        // Externals on different loopers: unordered without the
        // external-input rule, whatever edges the base holds.
        assert_eq!(model.order(in_tap, in_key), OpOrder::Concurrent);
        assert!(model.explain(in_tap, in_key).is_none());
    }
    // CAFA orders the externals through that rule instead.
    let cafa = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
    let chain = cafa.explain(in_tap, in_key).expect("external-input rule");
    assert!(chain.iter().any(|s| s.kind == EdgeKind::External));
}
