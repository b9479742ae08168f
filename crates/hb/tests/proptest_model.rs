//! Property tests: the happens-before model on arbitrary traces.
//!
//! Arbitrary tape traces are not always consistent with a real
//! execution (the tape may process events in an order the queue rules
//! contradict); the model must then *detect* the inconsistency as a
//! cycle — at build, or through `check()` once the queries have derived
//! it — rather than produce garbage. When it accepts, the relation must
//! be a strict partial order and all query paths must agree.

use proptest::prelude::*;

use cafa_hb::{CausalityConfig, HbModel, OpOrder};
use cafa_trace::arbitrary::trace_from_tape;
use cafa_trace::OpRef;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tape is either rejected — by the build, or by `check()`
    /// after the queries — or its event order is a strict partial
    /// order.
    #[test]
    fn model_accepts_or_rejects_cleanly(tape in proptest::collection::vec(any::<u8>(), 0..300)) {
        let trace = trace_from_tape(&tape);
        let Ok(model) = HbModel::build(&trace, CausalityConfig::cafa()) else {
            return Ok(()); // inconsistent trace, correctly rejected
        };
        let events: Vec<_> = model.events().iter().copied().take(20).collect();
        let before: Vec<Vec<bool>> = events
            .iter()
            .map(|&e1| events.iter().map(|&e2| model.event_before(e1, e2)).collect())
            .collect();
        if model.check().is_err() {
            return Ok(()); // the queries derived a cycle: rejected
        }
        for (i, row) in before.iter().enumerate() {
            prop_assert!(!row[i]);
            for (j, &ij) in row.iter().enumerate() {
                prop_assert!(!(ij && before[j][i]), "antisymmetry");
                if ij {
                    for (&jk, &ik) in before[j].iter().zip(row) {
                        prop_assert!(!jk || ik, "transitivity");
                    }
                }
            }
        }
    }

    /// `order` is consistent with `happens_before` and irreflexive.
    #[test]
    fn order_classification_consistent(tape in proptest::collection::vec(any::<u8>(), 0..300)) {
        let trace = trace_from_tape(&tape);
        let Ok(model) = HbModel::build(&trace, CausalityConfig::cafa()) else {
            return Ok(());
        };
        let ops: Vec<OpRef> = trace
            .tasks()
            .filter(|t| trace.body_len(t.id) > 0)
            .take(16)
            .map(|t| OpRef::new(t.id, 0))
            .collect();
        for &a in &ops {
            prop_assert_eq!(model.order(a, a), OpOrder::Same);
            for &b in &ops {
                match model.order(a, b) {
                    OpOrder::Before => prop_assert!(model.happens_before(a, b)),
                    OpOrder::After => prop_assert!(model.happens_before(b, a)),
                    OpOrder::Concurrent => {
                        prop_assert!(!model.happens_before(a, b));
                        prop_assert!(!model.happens_before(b, a));
                    }
                    OpOrder::Same => prop_assert_eq!(a, b),
                }
            }
        }
    }

    /// DOT export renders any accepted model without panicking and
    /// stays structurally balanced.
    #[test]
    fn dot_renders_arbitrary_models(tape in proptest::collection::vec(any::<u8>(), 0..200)) {
        let trace = trace_from_tape(&tape);
        let Ok(model) = HbModel::build(&trace, CausalityConfig::cafa()) else {
            return Ok(());
        };
        let dot = cafa_hb::dot::render_model(&model);
        let well_formed = dot.starts_with("digraph hb")
            && dot.matches('{').count() == dot.matches('}').count();
        prop_assert!(well_formed, "unbalanced or malformed DOT output");
    }

    /// `explain` returns a well-formed chain exactly when ordered: steps
    /// are contiguous, and every step's endpoints live in the trace.
    #[test]
    fn explain_chains_are_well_formed(tape in proptest::collection::vec(any::<u8>(), 0..300)) {
        let trace = trace_from_tape(&tape);
        let Ok(model) = HbModel::build(&trace, CausalityConfig::cafa()) else {
            return Ok(());
        };
        let ops: Vec<OpRef> = trace
            .tasks()
            .filter(|t| trace.body_len(t.id) > 0)
            .take(12)
            .map(|t| OpRef::new(t.id, 0))
            .collect();
        for &a in &ops {
            for &b in &ops {
                let chain = model.explain(a, b);
                prop_assert_eq!(chain.is_some(), a != b && model.happens_before(a, b));
                if let Some(chain) = chain {
                    prop_assert!(!chain.is_empty());
                    for w in chain.windows(2) {
                        // Contiguous: each step ends where the next starts,
                        // within the same task chain or across an edge.
                        prop_assert_eq!(w[0].to, w[1].from);
                    }
                    for step in &chain {
                        prop_assert!(step.from.task.index() < trace.task_count());
                        prop_assert!(step.to.task.index() < trace.task_count());
                    }
                }
            }
        }
    }

    /// Dropping rules never *adds* orderings: every CAFA-ordering
    /// derived without the queue rules also holds with them.
    #[test]
    fn queue_rules_only_add_order(tape in proptest::collection::vec(any::<u8>(), 0..300)) {
        let trace = trace_from_tape(&tape);
        let (Ok(full), Ok(reduced)) = (
            HbModel::build(&trace, CausalityConfig::cafa()),
            HbModel::build(&trace, CausalityConfig::no_queue_rules()),
        ) else {
            return Ok(());
        };
        let events: Vec<_> = full.events().iter().copied().take(24).collect();
        let mut missing = Vec::new();
        for &e1 in &events {
            for &e2 in &events {
                if e1 != e2 && reduced.event_before(e1, e2) && !full.event_before(e1, e2) {
                    missing.push((e1, e2));
                }
            }
        }
        if full.check().is_ok() && reduced.check().is_ok() {
            prop_assert!(missing.is_empty(), "orders lost with the queue rules: {:?}", missing);
        }
    }
}
