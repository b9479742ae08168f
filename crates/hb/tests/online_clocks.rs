//! §4.2: what one forward vector-clock pass derives, and what it misses.
//!
//! §4.2 explains why CAFA cannot adapt FastTrack-style vector clocks to
//! its model: "there are operations whose happens-before relations rely
//! on future operations" (the atomicity rule: Figure 4a derives
//! `end(A) ≺ begin(B)` from a `perform` that happens *after*
//! `begin(B)`), and some rules "need more complex checks on past
//! operations than what are maintained in the vector clock algorithm"
//! (the queue rules). With both rules off, CAFA's base edges are
//! exactly what one online clock pass derives, and `HbModel::build`
//! answers that config with vector clocks. These tests show the
//! Figure 4 orderings it misses, and that what it does derive is a
//! subset of the fixpoint model.

use cafa_hb::{CausalityConfig, HbModel};
use cafa_trace::TraceBuilder;

/// CAFA's base edges with neither rule: the relation a one-pass
/// vector clock derives online.
const ONLINE: CausalityConfig = CausalityConfig {
    atomicity_rule: false,
    queue_rules: false,
    ..CausalityConfig::cafa()
};

/// Figure 4a: the atomicity ordering depends on a *future*
/// `perform`, so the one-pass clocks miss it while the fixpoint
/// model derives it — the exact §4.2 argument.
#[test]
fn misses_future_dependent_atomicity() {
    let mut b = TraceBuilder::new("fig4a");
    let p = b.add_process();
    let q = b.add_queue(p);
    let l = b.add_listener("android.view");
    let t1 = b.add_thread(p, "srcA");
    let t2 = b.add_thread(p, "srcB");
    let a = b.post(t1, q, "A", 0);
    let ev_b = b.post(t2, q, "B", 5); // different delay: no queue rule
    b.process_event(a);
    let t = b.fork(a, p, "T");
    b.register(t, l);
    b.process_event(ev_b);
    b.perform(ev_b, l);
    let trace = b.finish().unwrap();

    let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
    assert!(
        model.event_before(a, ev_b),
        "fixpoint derives A ≺ B via atomicity"
    );

    let online = HbModel::build(&trace, ONLINE).unwrap();
    assert!(
        !online.event_before(a, ev_b),
        "one pass cannot know at begin(B) what perform(B, L) will imply"
    );
}

/// Figure 4b: queue rule 1 needs the send-order + delay comparison,
/// which plain clock joins never encode.
#[test]
fn misses_queue_rule_orderings() {
    let mut b = TraceBuilder::new("fig4b");
    let p = b.add_process();
    let q = b.add_queue(p);
    let t = b.add_thread(p, "T");
    let a = b.post(t, q, "A", 1);
    let e = b.post(t, q, "B", 1);
    b.process_event(a);
    b.process_event(e);
    let trace = b.finish().unwrap();

    let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
    assert!(
        model.event_before(a, e),
        "queue rule 1 orders equal-delay sends"
    );

    let online = HbModel::build(&trace, ONLINE).unwrap();
    assert!(
        !online.event_before(a, e),
        "clock joins alone miss the FIFO guarantee"
    );
}

/// What the clocks *do* derive is always also derived by the
/// fixpoint model: the online relation is a subset.
#[test]
fn online_relation_is_subset_of_model() {
    // A busier trace: sends, forks, listeners, externals.
    let mut b = TraceBuilder::new("subset");
    let p = b.add_process();
    let q = b.add_queue(p);
    let l = b.add_listener("android.view");
    let main = b.add_thread(p, "main");
    let e1 = b.post(main, q, "e1", 0);
    b.process_event(e1);
    let worker = b.fork(e1, p, "worker");
    b.register(worker, l);
    let e2 = b.post(worker, q, "e2", 0);
    let e3 = b.external(q, "e3");
    let e4 = b.external(q, "e4");
    b.process_event(e2);
    b.perform(e2, l);
    b.process_event(e3);
    b.process_event(e4);
    let trace = b.finish().unwrap();

    let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
    let online = HbModel::build(&trace, ONLINE).unwrap();
    let events = [e1, e2, e3, e4];
    let mut online_count = 0;
    for &x in &events {
        for &y in &events {
            if x != y && online.event_before(x, y) {
                online_count += 1;
                assert!(
                    model.event_before(x, y),
                    "online orders {x} ≺ {y} but the model does not"
                );
            }
        }
    }
    // Only the external chain (e3 ≺ e4) is online-derivable at
    // end≺begin granularity: a send joins the *prefix* of the
    // sender, never its end — which is §4.2's point amplified.
    assert!(online_count >= 1);
    // And the model strictly exceeds it here (atomicity orders
    // e1 ≺ e2's successors etc.).
    let model_count = events
        .iter()
        .flat_map(|&x| events.iter().map(move |&y| (x, y)))
        .filter(|&(x, y)| x != y && model.event_before(x, y))
        .count();
    assert!(model_count > online_count);
}
