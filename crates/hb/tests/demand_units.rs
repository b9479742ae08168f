//! Deterministic edge-case units for the demand-driven query engine —
//! the cases the differential proptest suites cover only by accident:
//! self-queries, queries probing still-unsealed tasks, memo
//! invalidation when an [`IncrementalHb`] extends the graph under a
//! live query index, and the rare derived cycle a forward edge closes.
//! No proptest here: every trace is built by hand, or is one fixed
//! tape, so a failure names its scenario.

use cafa_hb::{CausalityConfig, HbModel, IncrementalHb};
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

/// An unsealed task's `end` is disconnected, so no rule premise can
/// complete around it: the atomicity edge `end(first) ≺ begin(nested)`
/// needs `begin(first) ≺ end(nested)`, and that premise probes the
/// *unsealed* `nested`'s end. The demand engine must answer false —
/// lazily evaluating the rule is not allowed to peek past the seal.
#[test]
fn queries_against_unsealed_tasks_stay_unordered() {
    let (trace, t, first, second, nested) = chain_trace();
    let config = CausalityConfig::cafa();
    let mut inc = IncrementalHb::new(&trace, config).expect("well-formed trace");

    // Nothing sealed: no send is registered, nothing is ordered.
    assert!(!inc.demand_event_before(first, second));
    assert!(!inc.demand_event_before(first, nested));

    // Sender sealed: both top-level sends are registered, so rule 1
    // orders first ≺ second even though neither event body is sealed —
    // the premises live entirely in the sealed sender.
    inc.seal(&trace, t);
    assert!(inc.demand_event_before(first, second));

    // But first ≺ nested still needs the atomicity premise through
    // end(nested), and `nested` is unsealed: must stay unordered.
    inc.seal(&trace, first);
    inc.seal(&trace, second);
    assert!(
        !inc.demand_event_before(first, nested),
        "atomicity premise completed through an unsealed task's end"
    );

    inc.seal(&trace, nested);
    assert!(
        inc.demand_event_before(first, nested),
        "sealing nested completes the atomicity premise"
    );
}

/// Extending the graph must invalidate exactly the memoized state the
/// new edges can reach: a query answered `false` before a seal flips
/// to `true` after it, and a repeated query with no extension in
/// between is a pure memo hit (no new premise evaluations).
#[test]
fn memos_invalidate_across_incremental_extension() {
    let (trace, t, first, second, nested) = chain_trace();
    let config = CausalityConfig::cafa();
    let mut inc = IncrementalHb::new(&trace, config).expect("well-formed trace");
    inc.seal(&trace, t);
    inc.seal(&trace, first);
    inc.seal(&trace, second);

    // Settle the (currently-false) answer and memoize it.
    assert!(!inc.demand_event_before(first, nested));
    let before = inc.demand_stats().expect("queries ran");

    // Re-asking the settled query costs no rule work.
    assert!(!inc.demand_event_before(first, nested));
    let repeat = inc.demand_stats().expect("queries ran");
    assert_eq!(repeat.queries, before.queries + 1);
    assert_eq!(
        repeat.premises, before.premises,
        "memoized query re-evaluated premises"
    );

    // Sealing `nested` adds its bracket edges; the invalidation sweep
    // must reach the memoized root and flip the answer.
    inc.seal(&trace, nested);
    assert!(
        inc.demand_event_before(first, nested),
        "stale memo survived the extension"
    );
    let after = inc.demand_stats().expect("queries ran");
    assert!(
        after.premises > repeat.premises,
        "the flipped answer must come from re-evaluated rules"
    );

    // And the refreshed answer memoizes again.
    assert!(inc.demand_event_before(first, nested));
    let settled = inc.demand_stats().expect("queries ran");
    assert_eq!(settled.premises, after.premises);
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
