//! Predictive (weaker-than-HB) partial order for event-driven traces.
//!
//! The PLDI'14 happens-before model orders exactly what the *observed*
//! execution proves ordered: the §3.3 atomicity and queue rules fire
//! unconditionally, and the external-input rule chains every pair of
//! user gestures. That relation is sound for the observed trace, but it
//! also orders event pairs that could legitimately run the other way in
//! a feasible reordering — races the single-trace model can never
//! report. Predictive detectors (WCP, DC, SmartTrack — see PAPERS.md)
//! weaken the order so that only *conflicting* operations keep their
//! observed ordering, then lean on a secondary judge to discharge the
//! unsound remainder.
//!
//! [`PredictModel`] is that weaker relation for the CAFA event model:
//!
//! * base edges (program order, fork/join, wait/notify, post→begin,
//!   RPC, listener registration) are kept as hard causality;
//! * the **external-input rule** is *conflict-scoped*: two gestures are
//!   ordered only when their handlers access a common variable —
//!   independent gestures could arrive in either order;
//! * the **atomicity and queue rules** are *conflict-gated*: a derived
//!   `end(e₁) → begin(e₂)` edge is kept only when `e₁` and `e₂` access
//!   a common variable. A FIFO ordering between events that share no
//!   state is an accident of the observed schedule, not causality —
//!   dropping it is exactly the DC-style "doesn't-commute" relaxation.
//!
//! The crate holds no rule loop of its own. It supplies the per-task
//! access bitmaps, the conflict-scoped external edges and the gate;
//! `cafa_hb::derive_gated`, the loop behind the HB reference
//! derivation, derives the gated atomicity and queue conclusions.
//! Queries search the graph that loop leaves.
//!
//! Every fact of this relation is implied by the paper's model, so the
//! predictive order is a subset of HB (`predictive ⊆ HB`, pinned by
//! `tests/predictive_differential.rs`): anything HB-concurrent stays
//! concurrent here, and some HB-ordered pairs become concurrent — those
//! are the *predictive-only* race candidates. The relation is
//! deliberately unsound in isolation; `cafa-replay`'s directed→guided→
//! random ladder adjudicates every extra report into a replay-confirmed
//! witness or a counted false positive (see `docs/PREDICT.md`).
//!
//! Lock treatment mirrors the same philosophy. The detector's lockset
//! filter suppresses any racing pair covered by a common monitor; the
//! predictive backend honors that suppression only when the two tasks
//! conflict on state *beyond the racing variable*
//! ([`PredictModel::tasks_conflict_besides`]) — a WCP-style
//! release-acquire trust limited to critical sections that demonstrably
//! sequence other shared data. A lock whose sections touch only the
//! racing pointer does not decide the order of its sections, so the
//! pair stays reportable and replay decides.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use cafa_hb::bitset::BitSet;
use cafa_hb::{base_graph, derive_gated, CausalityConfig, EdgeKind, HbError, SyncGraph};
use cafa_trace::{OpRef, TaskId, Trace, VarId};

/// Statistics about a completed predictive-model build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Conflict-scoped external-input edges added (gesture pairs whose
    /// handlers conflict).
    pub external_edges: usize,
    /// Rounds until the gated fixpoint converged (≥ 1).
    pub rounds: u32,
    /// Rule conclusions suppressed by the conflict gate: orderings the
    /// HB model materializes that this relation deliberately drops.
    pub gated: u64,
    /// Atomicity/queue edges actually added.
    pub derived_edges: usize,
}

/// The predictive partial order over one trace, queryable per
/// operation pair by a search of the graph [`derive_gated`] built.
#[derive(Debug)]
pub struct PredictModel {
    graph: SyncGraph,
    /// Per task: the variables its body accesses.
    access: Vec<BitSet>,
    stats: PredictStats,
}

impl PredictModel {
    /// Builds the predictive order for `trace`: hard base edges, the
    /// conflict-scoped external rule, then the §3.3 fixpoint of
    /// [`derive_gated`] under the conflict gate.
    ///
    /// # Errors
    ///
    /// [`HbError`] on malformed traces, a cyclic relation (impossible
    /// for recorded executions), or a fixpoint that exceeds its round
    /// limit.
    pub fn build(trace: &Trace) -> Result<Self, HbError> {
        let mut config = CausalityConfig::cafa();
        config.external_rule = false;
        let mut g = base_graph(trace, &config);
        let access = access_sets(trace);

        // Conflict-scoped external-input rule: order a gesture pair
        // only when the handlers share state. The HB chain orders all
        // pairs transitively, so every edge added here is HB-implied.
        let mut external_edges = 0;
        let ext = trace.external_events();
        for (i, &a) in ext.iter().enumerate() {
            for &b in &ext[i + 1..] {
                if conflicts(&access, a, b) && g.add_edge(g.end(a), g.begin(b), EdgeKind::External)
                {
                    external_edges += 1;
                }
            }
        }

        // `derive_gated` leaves the graph acyclic, so queries need no
        // cycle check of their own.
        let derived = derive_gated(&mut g, trace, &config, |a, b| conflicts(&access, a, b))?;
        Ok(Self {
            graph: g,
            access,
            stats: PredictStats {
                external_edges,
                rounds: derived.rounds,
                gated: derived.gated,
                derived_edges: derived.derived_edges(),
            },
        })
    }

    /// Does `a` happen before `b` under the predictive order? Same-task
    /// operations follow program order; cross-task pairs are bracketed
    /// to their surrounding sync nodes, the query discipline of
    /// `HbModel::happens_before`, and answered by a depth-first search
    /// of the graph. The detector asks this only of its candidate
    /// pairs, and a search reads only the source's forward cone.
    pub fn happens_before(&self, a: OpRef, b: OpRef) -> bool {
        if a.task == b.task {
            return a.index < b.index;
        }
        // Each call owns its scratch: the candidate pass asks from
        // several workers at once.
        let mut seen = BitSet::new(self.graph.node_count());
        self.graph.reaches(
            self.graph.bracket_after(a),
            self.graph.bracket_before(b),
            &mut seen,
        )
    }

    /// True when neither operation is predictive-ordered before the
    /// other.
    pub fn concurrent(&self, a: OpRef, b: OpRef) -> bool {
        !self.happens_before(a, b) && !self.happens_before(b, a)
    }

    /// Do the bodies of `a` and `b` access a common variable other than
    /// `var`? The predictive lockset relaxation: a common monitor
    /// suppresses a racing pair only when this holds — critical
    /// sections that sequence no state beyond the racing variable do
    /// not pin their own order, so the pair stays reportable.
    pub fn tasks_conflict_besides(&self, a: TaskId, b: TaskId, var: VarId) -> bool {
        let (sa, sb) = (&self.access[a.index()], &self.access[b.index()]);
        let skip = var.index();
        let (skip_word, skip_bit) = (skip / 64, 1u64 << (skip % 64));
        sa.words()
            .iter()
            .zip(sb.words())
            .enumerate()
            .any(|(w, (x, y))| {
                let mut both = x & y;
                if w == skip_word {
                    both &= !skip_bit;
                }
                both != 0
            })
    }

    /// Build statistics.
    pub fn stats(&self) -> PredictStats {
        self.stats
    }

    /// The predictive sync graph: base edges, the conflict-scoped
    /// external edges and every gated rule conclusion.
    pub fn graph(&self) -> &SyncGraph {
        &self.graph
    }
}

/// Per task: the set of variables its body reads or writes (scalar or
/// pointer). The conflict relation of the gate.
fn access_sets(trace: &Trace) -> Vec<BitSet> {
    let width = trace
        .iter_ops()
        .filter_map(|(_, r)| r.accessed_var())
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(0);
    let mut sets = vec![BitSet::new(width); trace.task_count()];
    for (at, r) in trace.iter_ops() {
        if let Some(var) = r.accessed_var() {
            sets[at.task.index()].insert(var.index());
        }
    }
    sets
}

/// Do two tasks access a common variable?
fn conflicts(access: &[BitSet], a: TaskId, b: TaskId) -> bool {
    access[a.index()]
        .words()
        .iter()
        .zip(access[b.index()].words())
        .any(|(x, y)| x & y != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafa_trace::TraceBuilder;

    /// Two externally posted gestures whose handlers conflict stay
    /// ordered; an unrelated pair becomes concurrent (HB orders both).
    #[test]
    fn external_rule_is_conflict_scoped() {
        let mut b = TraceBuilder::new("ext");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t1 = b.external(q, "tap1");
        let t2 = b.external(q, "tap2");
        let t3 = b.external(q, "tap3");
        b.process_event(t1);
        b.process_event(t2);
        b.process_event(t3);
        let shared = VarId::new(0);
        let lonely = VarId::new(1);
        let u1 = b.write(t1, shared);
        let u2 = b.read(t2, shared);
        let u3 = b.read(t3, lonely);
        let trace = b.finish().unwrap();

        let m = PredictModel::build(&trace).unwrap();
        assert!(
            m.happens_before(u1, u2),
            "conflicting gestures stay ordered"
        );
        assert!(m.concurrent(u1, u3), "independent gestures decouple");
        assert!(m.concurrent(u2, u3));
        assert_eq!(m.stats().external_edges, 1);
    }

    /// The queue rules still fire between conflicting events but are
    /// gated off for disjoint ones.
    #[test]
    fn queue_rule_is_conflict_gated() {
        let shared = VarId::new(0);
        let other = VarId::new(1);

        // Conflicting pair: ordered sends, equal delays → rule 1 fires.
        let mut b = TraceBuilder::new("gated");
        let p = b.add_process();
        let q = b.add_queue(p);
        let src = b.add_thread(p, "src");
        let e1 = b.post(src, q, "e1", 5);
        let e2 = b.post(src, q, "e2", 5);
        b.process_event(e1);
        b.process_event(e2);
        let a1 = b.write(e1, shared);
        let a2 = b.read(e2, shared);
        let trace = b.finish().unwrap();
        let m = PredictModel::build(&trace).unwrap();
        assert!(m.happens_before(a1, a2), "conflicting FIFO pair kept");
        assert!(m.stats().derived_edges >= 1);

        // Disjoint pair: same shape, no shared variable → concurrent.
        let mut b = TraceBuilder::new("gated2");
        let p = b.add_process();
        let q = b.add_queue(p);
        let src = b.add_thread(p, "src");
        let e1 = b.post(src, q, "e1", 5);
        let e2 = b.post(src, q, "e2", 5);
        b.process_event(e1);
        b.process_event(e2);
        let a1 = b.write(e1, shared);
        let a2 = b.read(e2, other);
        let trace = b.finish().unwrap();
        let m = PredictModel::build(&trace).unwrap();
        assert!(m.concurrent(a1, a2), "disjoint FIFO pair decoupled");
        assert!(m.stats().gated >= 1);
    }

    /// The earlier-running event's access, the later one's access, and
    /// the trace: `a` writes v0, `b` reads v0 when `shared`, else v1.
    type Shape = (OpRef, OpRef, Trace);

    /// Asserts that `shape(true)` orders its pair and `shape(false)`
    /// leaves it concurrent with at least one gated conclusion.
    fn assert_gated(rule: &str, shape: impl Fn(bool) -> Shape) {
        let (a, b, trace) = shape(true);
        let m = PredictModel::build(&trace).unwrap();
        assert!(m.happens_before(a, b), "{rule}: conflicting pair ordered");
        assert!(m.stats().derived_edges >= 1, "{rule}");

        let (a, b, trace) = shape(false);
        let m = PredictModel::build(&trace).unwrap();
        assert!(m.concurrent(a, b), "{rule}: disjoint pair concurrent");
        assert!(m.stats().gated >= 1, "{rule}: the gate refused it");
    }

    fn vars(shared: bool) -> (VarId, VarId) {
        (VarId::new(0), VarId::new(if shared { 0 } else { 1 }))
    }

    /// Atomicity (Fig. 4a's shape): A forks T, T registers a listener
    /// that B performs. A and B are posted from two unrelated threads,
    /// and the accesses sit after the fork and before the perform, so
    /// only the atomicity rule can order them.
    #[test]
    fn atomicity_rule_is_conflict_gated() {
        assert_gated("atomicity", |shared| {
            let (x, y) = vars(shared);
            let mut b = TraceBuilder::new("fig4a");
            let p = b.add_process();
            let q = b.add_queue(p);
            let (s1, s2) = (b.add_thread(p, "s1"), b.add_thread(p, "s2"));
            let l = b.add_listener("android.view");
            let ea = b.post(s1, q, "A", 0);
            let eb = b.post(s2, q, "B", 0);
            b.process_event(ea);
            let t = b.fork(ea, p, "T");
            let wa = b.write(ea, x);
            b.register(t, l);
            b.process_event(eb);
            let rb = b.read(eb, y);
            b.perform(eb, l);
            (wa, rb, b.finish().unwrap())
        });
    }

    /// Queue rule 2 (Fig. 4d): inside C, send(A) then sendAtFront(B);
    /// B runs first, and the gate is asked (B, A). C and A share v2 so
    /// that atomicity keeps C before A, the rule's side condition.
    #[test]
    fn queue_rule_2_is_conflict_gated() {
        assert_gated("rule 2", |shared| {
            let (x, y) = vars(shared);
            let mut b = TraceBuilder::new("fig4d");
            let p = b.add_process();
            let q = b.add_queue(p);
            let t = b.add_thread(p, "T");
            let c = b.post(t, q, "C", 0);
            b.process_event(c);
            b.write(c, VarId::new(2));
            let ea = b.post(c, q, "A", 0);
            let eb = b.post_front(c, q, "B");
            b.process_event(eb);
            let wb = b.write(eb, x);
            b.process_event(ea);
            b.read(ea, VarId::new(2));
            let ra = b.read(ea, y);
            (wb, ra, b.finish().unwrap())
        });
    }

    /// Queue rule 3: a front-send ordered before a later plain send
    /// runs first, whatever the delay.
    #[test]
    fn queue_rule_3_is_conflict_gated() {
        assert_gated("rule 3", |shared| {
            let (x, y) = vars(shared);
            let mut b = TraceBuilder::new("rule3");
            let p = b.add_process();
            let q = b.add_queue(p);
            let t = b.add_thread(p, "T");
            let ea = b.post_front(t, q, "A");
            let eb = b.post(t, q, "B", 50);
            b.process_event(ea);
            let wa = b.write(ea, x);
            b.process_event(eb);
            let rb = b.read(eb, y);
            (wa, rb, b.finish().unwrap())
        });
    }

    /// Queue rule 4: of two front-sends inside C, the later one runs
    /// first; the gate is asked (B, A). C and A share v2, as for rule 2.
    #[test]
    fn queue_rule_4_is_conflict_gated() {
        assert_gated("rule 4", |shared| {
            let (x, y) = vars(shared);
            let mut b = TraceBuilder::new("rule4");
            let p = b.add_process();
            let q = b.add_queue(p);
            let t = b.add_thread(p, "T");
            let c = b.post(t, q, "C", 0);
            b.process_event(c);
            b.write(c, VarId::new(2));
            let ea = b.post_front(c, q, "A");
            let eb = b.post_front(c, q, "B");
            b.process_event(eb);
            let wb = b.write(eb, x);
            b.process_event(ea);
            b.read(ea, VarId::new(2));
            let ra = b.read(ea, y);
            (wb, ra, b.finish().unwrap())
        });
    }

    /// Hard causality (post→begin) is never relaxed.
    #[test]
    fn base_edges_are_hard() {
        let mut b = TraceBuilder::new("base");
        let p = b.add_process();
        let q = b.add_queue(p);
        let src = b.add_thread(p, "src");
        let v = VarId::new(0);
        let w = b.write(src, v);
        let e = b.post(src, q, "e", 0);
        b.process_event(e);
        let r = b.read(e, v);
        let trace = b.finish().unwrap();
        let m = PredictModel::build(&trace).unwrap();
        assert!(m.happens_before(w, r));
    }

    /// Crossed notify/wait generations: each thread waits for what the
    /// other notifies only after its own wait, so the base edges alone
    /// close a cycle and the build rejects the trace.
    #[test]
    fn cyclic_trace_is_rejected() {
        use cafa_trace::MonitorId;
        let mut b = TraceBuilder::new("cyclic");
        let p = b.add_process();
        let (ta, tb) = (b.add_thread(p, "a"), b.add_thread(p, "b"));
        let m = MonitorId::new(0);
        b.wait(ta, m, 2);
        b.notify(ta, m, 1);
        b.wait(tb, m, 1);
        b.notify(tb, m, 2);
        let trace = b.finish().unwrap();
        let err = PredictModel::build(&trace).unwrap_err();
        assert!(matches!(err, HbError::CyclicHappensBefore { .. }), "{err}");
        assert_eq!(
            err.to_string(),
            "happens-before relation is cyclic (6 nodes in cycles, at t0@record0, \
             t0@record1, t0@end, t1@record0, t1@record1, t1@end); the trace is not \
             consistent with any real execution"
        );
    }

    /// The lockset relaxation: conflict beyond the racing variable.
    #[test]
    fn conflict_besides_excludes_the_racing_var() {
        let mut b = TraceBuilder::new("locks");
        let p = b.add_process();
        let t1 = b.add_thread(p, "a");
        let t2 = b.add_thread(p, "b");
        let ptr = VarId::new(0);
        let flag = VarId::new(1);
        b.write(t1, ptr);
        b.write(t2, ptr);
        b.write(t1, flag);
        let trace = b.finish().unwrap();
        let m = PredictModel::build(&trace).unwrap();
        assert!(
            !m.tasks_conflict_besides(t1, t2, ptr),
            "only the pair's var"
        );

        let mut b = TraceBuilder::new("locks2");
        let p = b.add_process();
        let t1 = b.add_thread(p, "a");
        let t2 = b.add_thread(p, "b");
        b.write(t1, ptr);
        b.write(t2, ptr);
        b.write(t1, flag);
        b.write(t2, flag);
        let trace = b.finish().unwrap();
        let m = PredictModel::build(&trace).unwrap();
        assert!(
            m.tasks_conflict_besides(t1, t2, ptr),
            "flag conflicts beyond ptr"
        );
    }
}
