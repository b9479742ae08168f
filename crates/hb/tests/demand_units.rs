//! Deterministic edge-case units for the demand-driven query engine —
//! the cases the differential proptest suites cover only by accident:
//! self-queries, memo hits, the memo invalidation one grown cone
//! needs, and the rare derived cycle a forward edge closes. No proptest
//! here: every trace is built by hand, or is one fixed tape, so a
//! failure names its scenario.

use cafa_hb::bitset::BitSet;
use cafa_hb::{base_graph, derive_naive, CausalityConfig, HbModel};
use cafa_trace::{DerefKind, ObjId, Pc, TaskId, Trace, TraceBuilder, VarId};

/// A one-process app where the main thread posts `first` and `second`
/// back-to-back with equal delays (queue rule 1 orders them), and
/// `first` itself posts `nested` (atomicity orders `first` before it).
fn chain_trace() -> (Trace, TaskId, TaskId, TaskId, TaskId) {
    let mut b = TraceBuilder::new("demand-units");
    let p = b.add_process();
    let q = b.add_queue(p);
    let t = b.add_thread(p, "main");
    let first = b.post(t, q, "first", 2);
    let second = b.post(t, q, "second", 2);
    b.process_event(first);
    b.obj_read(first, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x1010));
    b.deref(first, ObjId::new(1), Pc::new(0x1014), DerefKind::Field);
    let nested = b.post(first, q, "nested", 0);
    b.process_event(second);
    b.obj_write(second, VarId::new(0), None, Pc::new(0x2010));
    b.process_event(nested);
    (b.finish().unwrap(), t, first, second, nested)
}

#[test]
fn self_query_is_never_ordered() {
    let (trace, _, first, second, nested) = chain_trace();
    let model = HbModel::build(&trace, CausalityConfig::cafa()).expect("chain trace is acyclic");
    for e in [first, second, nested] {
        assert!(
            !model.event_before(e, e),
            "event {e} must not precede itself"
        );
    }
    // Operation-level hb(a, a) is false too — same task, same index.
    for (op, _) in trace.iter_ops() {
        assert!(!model.happens_before(op, op), "op {op:?} preceding itself");
    }
    // ...while genuinely ordered pairs still answer true.
    assert!(model.event_before(first, second), "rule 1 orders the posts");
}

/// A repeated query is a memo hit: asking it again evaluates no new
/// premise, whether the answer is true or false.
#[test]
fn repeated_queries_evaluate_no_new_premises() {
    let (trace, _, first, second, nested) = chain_trace();
    let model = HbModel::build(&trace, CausalityConfig::cafa()).expect("chain trace is acyclic");
    for (a, b, ordered) in [
        (first, nested, true),
        (nested, first, false),
        (first, second, true),
    ] {
        assert_eq!(model.event_before(a, b), ordered, "{a} ≺ {b}");
        let before = model.demand_stats().expect("rules run on demand");
        assert_eq!(model.event_before(a, b), ordered, "{a} ≺ {b} asked again");
        let repeat = model.demand_stats().expect("rules run on demand");
        assert_eq!(repeat.queries, before.queries + 1);
        assert_eq!(
            repeat.premises, before.premises,
            "repeated {a} ≺ {b} re-evaluated premises"
        );
    }
}

/// A random tape (found by search) on which, once a backward edge has
/// been materialized, a *forward* edge would close a derived cycle: the
/// engine must check it exactly and refuse it, rather than keep
/// trusting forward edges.
#[test]
fn forward_edge_closing_a_cycle_after_a_backward_one_is_caught() {
    let tape: [u8; 167] = [
        240, 15, 123, 137, 95, 3, 116, 109, 37, 97, 88, 231, 127, 193, 64, 131, 57, 207, 246, 244,
        250, 111, 199, 54, 2, 54, 22, 104, 218, 148, 190, 227, 217, 95, 146, 139, 91, 158, 102,
        207, 87, 175, 47, 110, 25, 102, 93, 144, 178, 184, 206, 253, 87, 170, 114, 148, 100, 135,
        186, 17, 136, 196, 127, 121, 169, 60, 225, 241, 254, 212, 48, 104, 39, 63, 174, 100, 41,
        125, 183, 104, 97, 255, 226, 218, 175, 70, 231, 58, 3, 117, 129, 30, 111, 234, 108, 156,
        112, 168, 41, 160, 218, 30, 232, 169, 199, 159, 8, 247, 204, 180, 81, 57, 84, 25, 53, 220,
        16, 204, 5, 51, 47, 139, 91, 177, 45, 165, 224, 20, 56, 161, 204, 238, 17, 150, 101, 181,
        87, 52, 30, 68, 4, 197, 182, 8, 60, 19, 83, 177, 88, 73, 243, 10, 147, 27, 118, 109, 52,
        67, 239, 171, 119, 11, 168, 11, 69, 157, 2,
    ];
    let trace = cafa_trace::arbitrary::trace_from_tape(&tape);
    let model = HbModel::build(&trace, CausalityConfig::cafa()).expect("base edges are acyclic");
    model.event_before(TaskId::new(1), TaskId::new(2));
    assert!(model.check().is_err(), "the query derives a cycle");
    // Every edge that would close a cycle stays out of the relation, so
    // no two sync points reach each other.
    let nodes = model.graph().node_count() as u32;
    for a in 0..nodes {
        for b in a + 1..nodes {
            assert!(
                !(model.reaches(a, b) && model.reaches(b, a)),
                "nodes {a} and {b} reach each other"
            );
        }
    }
}

/// A random tape (found by search, then shrunk) on which a derived edge
/// grows the cone of an event's `end`, re-opening the atomicity
/// premises anchored at that event after a query had settled them. The
/// invalidation sweep must un-settle the anchor it reaches through the
/// `end` node: without that, one of these answers stays `false` where
/// the naive fixpoint says `true`.
#[test]
fn growing_an_end_cone_unsettles_its_anchor() {
    let tape: [u8; 102] = [
        2, 0, 1, 0, 0, 4, 0, 0, 2, 0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 4, 0, 0, 2, 0, 0, 2, 0, 0, 1, 0,
        0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 6, 0, 5, 0, 0, 4,
        0, 0, 8, 0, 0, 0, 2, 0, 0, 9, 0, 9, 5, 4, 0, 0, 9, 7, 0, 0, 6, 0, 2, 0, 0, 14, 0, 0, 0, 0,
        8, 7, 0, 0, 9, 5, 6, 0, 7, 3, 0, 2,
    ];
    let trace = cafa_trace::arbitrary::trace_from_tape(&tape);
    let config = CausalityConfig::cafa();
    let mut naive = base_graph(&trace, &config);
    derive_naive(&mut naive, &trace, &config).expect("the tape is acyclic");
    let model = HbModel::build(&trace, config).expect("the tape is acyclic");
    let events: Vec<TaskId> = trace
        .tasks()
        .filter(|t| t.is_event())
        .map(|t| t.id)
        .collect();
    let mut scratch = BitSet::new(naive.node_count());
    for &a in &events {
        for &b in &events {
            let ordered = a != b && naive.reaches(naive.end(a), naive.begin(b), &mut scratch);
            assert_eq!(model.event_before(a, b), ordered, "event_before({a}, {b})");
        }
    }
    assert_eq!(model.check(), Ok(()));
}
