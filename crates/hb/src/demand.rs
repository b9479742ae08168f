//! Demand-driven derivation of the §3.3 atomicity and queue rules.
//!
//! The naive loop in [`crate::rules`] materializes every derived edge
//! up front, sweeping per-node reachability rows that grow
//! quadratically with the event count. This module answers the same
//! happens-before queries *lazily*:
//!
//! * A query `reaches(a, b)` computes the **cone** of `b` — the set of
//!   nodes that reach `b` over base edges plus the derived edges fired
//!   so far — by a reverse BFS, memoized per target node.
//! * Every §3.3 rule concludes an edge *into `begin(e)`* of some event
//!   `e` (the anchor). Walking a cone therefore tells us exactly which
//!   anchors could still contribute to it: the events whose begin nodes
//!   it visits. Those anchors are **settled** — their rule premises
//!   evaluated against the current closure — before the cone is trusted.
//! * Settling an anchor may fire new derived edges, which can enable
//!   further premises (the rules are self-referential). A settlement
//!   *episode* therefore loops passes with **round semantics**: each
//!   pass evaluates unsettled anchors against the relation as of pass
//!   start, batches its conclusions, and applies them only when the
//!   pass drains. The episode stops when a pass fires nothing. This is
//!   a local fixpoint: it converges to the restriction of the global
//!   least fixpoint to the queried cone, so answers are identical to
//!   the naive loop's (see `docs/FIXPOINT.md` for the argument).
//! * Applying a batch invalidates **only what the new edges can
//!   affect**: a forward sweep from the edges' target nodes finds every
//!   node whose cone may have grown, and un-settles exactly the anchors
//!   with a premise target in that region (plus the settled roots
//!   there). Islands the batch cannot reach keep their memos — on
//!   fleet-scale traces this keeps total rule work proportional to the
//!   cones the detector actually probes.
//! * A conclusion already implied by the pass-start relation is **not**
//!   materialized (the per-anchor suppression set is the strict cone of
//!   `begin(anchor)`). That is transitive reduction on insert: the
//!   derived set stays near-linear, and since a suppressed edge adds
//!   nothing to the closure, answers are unaffected.
//! * A materialized edge that **closes a cycle** is recorded as an
//!   [`HbError::CyclicHappensBefore`] instead of being added (see
//!   [`CycleGuard::arm`]). Only edges some query forces are checked, so
//!   a cycle no query reaches goes undetected; it changes no answer.
//!
//! The core works on the complete base graph of a finished trace: every
//! send is registered at construction, before the first query, and the
//! graph never grows under it.

use std::collections::{HashMap, HashSet};

use cafa_trace::Trace;

use crate::config::CausalityConfig;
use crate::error::HbError;
use crate::graph::{EdgeKind, NodeId, SyncGraph};
use crate::rules::{EventTable, SendSite};

/// Counters for `--timings`: how much lazy rule work a run performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DemandStats {
    /// Happens-before queries answered through the demand engine.
    pub queries: u64,
    /// Rule premises evaluated (candidate pairs actually examined).
    pub premises: u64,
    /// Derived edges materialized.
    pub edges_materialized: u64,
    /// Conclusions skipped because the current relation already implied
    /// them (transitive reduction on insert).
    pub suppressed: u64,
}

/// How a newly materialized edge `end(e₁) → begin(e₂)` is checked for
/// closing a cycle.
#[derive(Debug)]
enum CycleGuard {
    /// The base edges plus every looper's processing order form an
    /// acyclic graph, and every edge so far ran forward in processing
    /// order, so each lies in that graph's closure and none can close a
    /// cycle. Holds each dense event's position in its looper's
    /// processing order.
    Forward(Vec<u32>),
    /// Every new edge is checked: does `begin(e₂)` already reach
    /// `end(e₁)`?
    Exact,
}

impl CycleGuard {
    /// Arms the check for the complete `trace` that `graph` holds the
    /// base edges of. One Kahn pass over the base edges plus each
    /// looper's processing order (`QueueInfo::events`) decides how:
    ///
    /// * acyclic — every derived edge joins two events of one looper,
    ///   and one that runs forward in processing order lies in that
    ///   graph's closure, so edges are trusted until the first backward
    ///   one and checked exactly from then on;
    /// * cyclic, with the base edges alone acyclic — the recorded order
    ///   contradicts the base edges, so every edge is checked exactly.
    ///
    /// On recorded traces no derived edge runs backward, so the check
    /// costs one pass at build time and nothing per edge.
    ///
    /// # Errors
    ///
    /// [`HbError::CyclicHappensBefore`] when the base edges alone are
    /// cyclic.
    fn arm(
        graph: &SyncGraph,
        trace: &Trace,
        table: &EventTable,
        end_event_of: &[u32],
    ) -> Result<Self, HbError> {
        let n = table.len();
        let (mut pos, mut next) = (vec![u32::MAX; n], vec![u32::MAX; n]);
        // Validated traces list every event once, on its own queue; any
        // other shape just falls back to exact checks.
        let mut listed = true;
        for (qid, q) in trace.queues() {
            let mut prev = u32::MAX;
            for (k, &e) in q.events.iter().enumerate() {
                match table.dense(e) {
                    Some(j) if table.queue_of[j as usize] == qid && pos[j as usize] == u32::MAX => {
                        pos[j as usize] = k as u32;
                        if prev != u32::MAX {
                            next[prev as usize] = j;
                        }
                        prev = j;
                    }
                    _ => listed = false,
                }
            }
        }
        listed &= pos.iter().all(|&p| p != u32::MAX);
        if listed && acyclic_with(graph, table, end_event_of, &next) {
            return Ok(CycleGuard::Forward(pos));
        }
        graph
            .topo_order()
            .map_err(|nodes| HbError::cyclic(graph, &nodes))?;
        Ok(CycleGuard::Exact)
    }
}

/// Kahn's pass over the base edges plus `end(e_j) → begin(e_next[j])`
/// for each dense event `j` with a successor: is the union acyclic?
/// `graph` must hold only compacted base edges, as a fresh
/// [`base_graph`](crate::base_graph) does.
fn acyclic_with(graph: &SyncGraph, table: &EventTable, end_event_of: &[u32], next: &[u32]) -> bool {
    let begin_of = |k: u32| graph.begin(table.events[k as usize]);
    let mut indegree = graph.in_degrees();
    for &k in next.iter().filter(|&&k| k != u32::MAX) {
        indegree[begin_of(k) as usize] += 1;
    }
    let mut stack: Vec<NodeId> = (0..indegree.len() as NodeId)
        .filter(|&v| indegree[v as usize] == 0)
        .collect();
    let mut swept = 0;
    while let Some(v) = stack.pop() {
        swept += 1;
        let i = end_event_of[v as usize];
        let chained =
            (i != u32::MAX && next[i as usize] != u32::MAX).then(|| begin_of(next[i as usize]));
        for s in graph.csr_succs(v).iter().map(|&(s, _)| s).chain(chained) {
            indegree[s as usize] -= 1;
            if indegree[s as usize] == 0 {
                stack.push(s);
            }
        }
    }
    swept == indegree.len()
}

/// The demand-driven query engine over one sync graph.
///
/// The core does not own the graph, which the model keeps beside it;
/// every method borrows it. Derived edges live here, never in the graph
/// itself.
#[derive(Debug)]
pub struct DemandCore {
    config: CausalityConfig,
    table: EventTable,
    /// Every send site of the trace, in trace order.
    sends: Vec<SendSite>,
    /// Per dense event: the send that posted it, if any.
    send_of_event: Vec<Option<u32>>,
    /// Per queue: indices of `sendAtFront` sites (rules 2/4 candidates).
    front_sends: Vec<Vec<u32>>,
    /// Per queue: dense events it processes (invalidation fan-out when
    /// the cone of a front send's site grows).
    events_of_queue: Vec<Vec<u32>>,

    // ---- per-node marks ----
    /// Node → dense event whose `begin` it is.
    begin_event_of: Vec<u32>,
    /// Node → dense event whose `end` it is.
    end_event_of: Vec<u32>,
    /// Node → send-site index posted at it.
    send_of_node: Vec<u32>,

    // ---- derived-edge store ----
    /// Per dense event `j`: sources of derived edges into `begin(e_j)`.
    derived_in: Vec<Vec<(NodeId, EdgeKind)>>,
    /// Forward adjacency of the derived edges, for path explanations
    /// and the invalidation sweep.
    derived_out: HashMap<NodeId, Vec<(NodeId, EdgeKind)>>,

    // ---- settlement state ----
    /// Per dense event: premises evaluated and still current. Cleared
    /// by the invalidation sweep for exactly the anchors a new edge
    /// batch can affect.
    settled: Vec<bool>,
    /// Roots whose settlement episode completed and whose cone region
    /// has not been invalidated since: a repeat query skips settlement.
    settled_roots: HashSet<NodeId>,
    /// Conclusions `(anchor, begin(anchor), src, kind)` awaiting
    /// end-of-pass application (round semantics: edges fired in a pass
    /// become visible to premises only in the next pass, so the
    /// relation is stable for a whole pass).
    pending: Vec<(u32, NodeId, NodeId, EdgeKind)>,
    /// Reusable buffer for cone collection — cones are consumed
    /// immediately (anchor evaluation, work enqueueing), never stored:
    /// materializing and caching them cost more in memory traffic than
    /// the bounded island-local BFS they saved.
    cone_scratch: Vec<NodeId>,

    // ---- epoch-marked scratch (no per-use clearing) ----
    visit_mark: Vec<u32>,
    visit_epoch: u32,
    sup_mark: Vec<u32>,
    sup_epoch: u32,
    work_mark: Vec<u32>,
    work_epoch: u32,
    fwd_mark: Vec<u32>,
    fwd_epoch: u32,
    /// BFS scratch stacks.
    bfs_stack: Vec<NodeId>,
    sup_stack: Vec<NodeId>,
    fwd_stack: Vec<NodeId>,

    /// How new edges are checked for cycles, and the first cycle found.
    guard: CycleGuard,
    cycle: Option<HbError>,

    stats: DemandStats,
}

impl DemandCore {
    /// Creates the core for the complete base `graph` of `trace`, its
    /// event `table` and every send site of the trace, with the cycle
    /// check armed (see [`CycleGuard::arm`]).
    ///
    /// # Errors
    ///
    /// [`HbError::CyclicHappensBefore`] when the base edges alone are
    /// cyclic.
    pub(crate) fn new(
        graph: &SyncGraph,
        trace: &Trace,
        table: EventTable,
        config: CausalityConfig,
        sends: Vec<SendSite>,
    ) -> Result<Self, HbError> {
        let (nodes, ev_count) = (graph.node_count(), table.len());
        let mut events_of_queue = vec![Vec::new(); trace.queue_count()];
        let mut begin_event_of = vec![u32::MAX; nodes];
        let mut end_event_of = vec![u32::MAX; nodes];
        for (j, (&e, q)) in table.events.iter().zip(&table.queue_of).enumerate() {
            events_of_queue[q.index()].push(j as u32);
            begin_event_of[graph.begin(e) as usize] = j as u32;
            end_event_of[graph.end(e) as usize] = j as u32;
        }
        let mut send_of_event = vec![None; ev_count];
        let mut front_sends = vec![Vec::new(); trace.queue_count()];
        let mut send_of_node = vec![u32::MAX; nodes];
        for (i, s) in sends.iter().enumerate() {
            let i = i as u32;
            if let Some(j) = table.dense(s.event) {
                send_of_event[j as usize].get_or_insert(i);
            }
            if s.front {
                // Unvalidated traces may name an unknown queue.
                if let Some(fronts) = front_sends.get_mut(s.queue.index()) {
                    fronts.push(i);
                }
            }
            send_of_node[s.node as usize] = i;
        }
        let guard = CycleGuard::arm(graph, trace, &table, &end_event_of)?;
        Ok(Self {
            config,
            sends,
            send_of_event,
            front_sends,
            events_of_queue,
            begin_event_of,
            end_event_of,
            send_of_node,
            derived_in: vec![Vec::new(); ev_count],
            derived_out: HashMap::new(),
            settled: vec![false; ev_count],
            settled_roots: HashSet::new(),
            pending: Vec::new(),
            cone_scratch: Vec::new(),
            visit_mark: vec![0; nodes],
            visit_epoch: 0,
            sup_mark: vec![0; nodes],
            sup_epoch: 0,
            work_mark: vec![0; ev_count],
            work_epoch: 0,
            fwd_mark: vec![0; nodes],
            fwd_epoch: 0,
            bfs_stack: Vec::new(),
            sup_stack: Vec::new(),
            fwd_stack: Vec::new(),
            guard,
            cycle: None,
            stats: DemandStats::default(),
            table,
        })
    }

    /// A snapshot of the work counters.
    pub fn stats(&self) -> DemandStats {
        self.stats
    }

    /// The first cycle a materialized edge would have closed, if any.
    pub(crate) fn cycle(&self) -> Option<&HbError> {
        self.cycle.as_ref()
    }

    /// Is there a non-empty path `from → to` in the full derived
    /// relation? Settles every anchor the answer could depend on first.
    pub fn reaches(&mut self, graph: &SyncGraph, from: NodeId, to: NodeId) -> bool {
        self.stats.queries += 1;
        self.settle(graph, to);
        from != to && self.cone_contains(graph, to, from)
    }

    /// Event-level order: `end(e1) ≺ begin(e2)` in the full relation.
    pub fn event_before(&mut self, graph: &SyncGraph, e1: u32, e2: u32) -> bool {
        if e1 == e2 {
            return false;
        }
        let from = graph.end(self.table.events[e1 as usize]);
        let to = graph.begin(self.table.events[e2 as usize]);
        self.reaches(graph, from, to)
    }

    /// A causal path `from → to` over base plus derived edges, as
    /// `(source, kind, target)` steps. `None` when not reachable.
    pub fn find_path(
        &mut self,
        graph: &SyncGraph,
        from: NodeId,
        to: NodeId,
    ) -> Option<Vec<(NodeId, EdgeKind, NodeId)>> {
        if !self.reaches(graph, from, to) {
            return None;
        }
        self.path_over(graph, from, to)
    }

    /// A shortest path `from → to` over base plus already-materialized
    /// derived edges, settling nothing. Forward BFS with parent
    /// tracking; the derived edges live in `derived_out`, the rest in
    /// the graph.
    fn path_over(
        &self,
        graph: &SyncGraph,
        from: NodeId,
        to: NodeId,
    ) -> Option<Vec<(NodeId, EdgeKind, NodeId)>> {
        let mut parent: HashMap<NodeId, (NodeId, EdgeKind)> = HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        'bfs: while let Some(n) = queue.pop_front() {
            let derived = self.derived_out.get(&n).map_or(&[][..], Vec::as_slice);
            for (t, kind) in graph.succs(n).chain(derived.iter().copied()) {
                if t == from || parent.contains_key(&t) {
                    continue;
                }
                parent.insert(t, (n, kind));
                if t == to {
                    break 'bfs;
                }
                queue.push_back(t);
            }
        }
        let mut steps = Vec::new();
        let mut at = to;
        while at != from {
            let &(p, kind) = parent.get(&at)?;
            steps.push((p, kind, at));
            at = p;
        }
        steps.reverse();
        Some(steps)
    }

    // ---- settlement ----------------------------------------------------

    /// Brings the relation to its fixpoint restricted to the cone of
    /// `root`: loops settlement passes until one completes without
    /// firing an edge.
    ///
    /// Each pass evaluates premises against the relation **as of pass
    /// start**: conclusions accumulate in [`DemandCore::pending`] and
    /// the batch is applied only after the pass drains — exactly the
    /// round semantics of the naive reference loop, so passes
    /// converge in closure depth, not in fired-edge count, and cone
    /// memos survive a whole pass instead of thrashing per edge.
    fn settle(&mut self, graph: &SyncGraph, root: NodeId) {
        if self.settled_roots.contains(&root) {
            return;
        }
        loop {
            self.next_work_epoch();
            let mut work: Vec<u32> = Vec::new();
            let mut cone = std::mem::take(&mut self.cone_scratch);
            self.collect_cone(graph, root, &mut cone);
            self.enqueue_unsettled(&cone, &mut work);
            self.cone_scratch = cone;
            while let Some(j) = work.pop() {
                if self.settled[j as usize] {
                    continue;
                }
                self.settle_anchor(graph, j, &mut work);
            }
            if !self.apply_pending(graph) {
                self.settled_roots.insert(root);
                return;
            }
        }
    }

    fn next_work_epoch(&mut self) {
        if self.work_epoch == u32::MAX {
            self.work_mark.fill(0);
            self.work_epoch = 0;
        }
        self.work_epoch += 1;
    }

    /// Pushes every not-yet-settled event whose begin node appears in
    /// `cone`, deduplicated against the pass's work list.
    fn enqueue_unsettled(&mut self, cone: &[NodeId], work: &mut Vec<u32>) {
        for &n in cone {
            let j = self.begin_event_of[n as usize];
            if j != u32::MAX
                && !self.settled[j as usize]
                && self.work_mark[j as usize] != self.work_epoch
            {
                self.work_mark[j as usize] = self.work_epoch;
                work.push(j);
            }
        }
    }

    /// Evaluates every rule anchored at event `j` against the pass-start
    /// relation, queueing conclusions not already implied. Marks the
    /// anchor settled; if its conclusions land, the apply-time
    /// invalidation sweep un-settles whatever they affect (including
    /// `j` itself, whose next evaluation then finds them implied).
    fn settle_anchor(&mut self, graph: &SyncGraph, j: u32, work: &mut Vec<u32>) {
        self.settled[j as usize] = true;
        let ev = self.table.events[j as usize];
        let begin_j = graph.begin(ev);
        let queue_j = self.table.queue_of[j as usize];

        // Suppression set: the strict cone of begin(e_j) at pass start.
        self.next_sup_epoch();
        self.sup_stack.clear();
        self.sup_seed(graph, begin_j);
        self.sup_drain(graph);

        // Atomicity: for events e1 of the same queue whose begin reaches
        // end(e_j), conclude end(e1) → begin(e_j).
        if self.config.atomicity_rule {
            let end_j = graph.end(ev);
            let mut cone = std::mem::take(&mut self.cone_scratch);
            self.collect_cone(graph, end_j, &mut cone);
            self.enqueue_unsettled(&cone, work);
            for &n in &cone {
                let i1 = self.begin_event_of[n as usize];
                if i1 != u32::MAX && i1 != j && self.table.queue_of[i1 as usize] == queue_j {
                    self.stats.premises += 1;
                    let src = graph.end(self.table.events[i1 as usize]);
                    self.propose_edge(j, begin_j, src, EdgeKind::Atomicity);
                }
            }
            self.cone_scratch = cone;
        }

        if !self.config.queue_rules {
            return;
        }
        let Some(sj) = self.send_of_event[j as usize] else {
            return;
        };
        let s2 = self.sends[sj as usize];

        // Rules 1/3 (anchor posted without sendAtFront): earlier sends
        // to the same queue whose site reaches this send's site, with a
        // front flag or a no-greater delay, order their event before
        // this one.
        if !s2.front {
            let mut cone = std::mem::take(&mut self.cone_scratch);
            self.collect_cone(graph, s2.node, &mut cone);
            self.enqueue_unsettled(&cone, work);
            for &n in &cone {
                let i = self.send_of_node[n as usize];
                if i == u32::MAX || i == sj {
                    continue;
                }
                let s1 = self.sends[i as usize];
                if s1.queue != s2.queue {
                    continue;
                }
                self.stats.premises += 1;
                if s1.front || s1.delay_ms <= s2.delay_ms {
                    let kind = EdgeKind::Queue(if s1.front { 3 } else { 1 });
                    let src = graph.end(s1.event);
                    self.propose_edge(j, begin_j, src, kind);
                }
            }
            self.cone_scratch = cone;
        }

        // Rules 2/4 (anchored at the *overtaken* event e1 = e_j): a
        // front send s2 of the same queue, issued after this event's
        // send s1 (premise a: s1's site reaches s2's site) yet itself
        // reaching begin(e1) (premise b), means its event fully ran
        // before e1: end(e_{s2}) → begin(e1).
        let s1 = s2;
        let fronts: &[u32] = self
            .front_sends
            .get(s1.queue.index())
            .map_or(&[], Vec::as_slice);
        // The front list is borrowed immutably while rules fire; take a
        // cheap copy (front sends are rare by construction).
        let fronts: Vec<u32> = fronts.to_vec();
        for fj in fronts {
            if fj == sj {
                continue;
            }
            let s2f = self.sends[fj as usize];
            self.stats.premises += 1;
            // Premise (b): s2's send site strictly reaches begin(e1) —
            // exactly membership in the suppression cone.
            if self.sup_mark[s2f.node as usize] != self.sup_epoch {
                continue;
            }
            // Premise (a): s1's send site strictly reaches s2's.
            let mut cone = std::mem::take(&mut self.cone_scratch);
            self.collect_cone(graph, s2f.node, &mut cone);
            self.enqueue_unsettled(&cone, work);
            let premise_a = s1.node != s2f.node && cone.contains(&s1.node);
            self.cone_scratch = cone;
            if premise_a {
                let kind = EdgeKind::Queue(if s1.front { 4 } else { 2 });
                let src = graph.end(s2f.event);
                self.propose_edge(j, begin_j, src, kind);
            }
        }
    }

    /// Queues `src → begin(e_j)` of `kind` for end-of-pass application
    /// unless the pass-start relation already implies it (suppression =
    /// transitive reduction on insert; the suppression cone is the
    /// anchor's strict cone at pass start).
    fn propose_edge(&mut self, j: u32, begin_j: NodeId, src: NodeId, kind: EdgeKind) {
        if src == begin_j || self.sup_mark[src as usize] == self.sup_epoch {
            self.stats.suppressed += 1;
            return;
        }
        self.pending.push((j, begin_j, src, kind));
    }

    /// Applies the pass's pending conclusions, skipping repeats of
    /// already-materialized edges and edges that would close a cycle,
    /// then invalidates everything the new edges can affect. Returns
    /// whether the pass fired.
    fn apply_pending(&mut self, graph: &SyncGraph) -> bool {
        let mut seeds: Vec<NodeId> = Vec::new();
        while let Some((j, begin_j, src, kind)) = self.pending.pop() {
            if self.derived_in[j as usize].iter().any(|&(s, _)| s == src) {
                self.stats.suppressed += 1;
                continue;
            }
            if self.closes_cycle(graph, j, begin_j, src) {
                continue;
            }
            self.derived_in[j as usize].push((src, kind));
            self.derived_out
                .entry(src)
                .or_default()
                .push((begin_j, kind));
            self.stats.edges_materialized += 1;
            seeds.push(begin_j);
        }
        if seeds.is_empty() {
            return false;
        }
        self.invalidate_from(graph, &seeds);
        true
    }

    /// Would `src → begin(e_j)` close a cycle in the materialized
    /// relation? `src` is the end of some event `e_i` of `e_j`'s looper.
    /// Records the first cycle found, naming its nodes.
    fn closes_cycle(&mut self, graph: &SyncGraph, j: u32, begin_j: NodeId, src: NodeId) -> bool {
        match &self.guard {
            CycleGuard::Forward(pos) => {
                let i = self.end_event_of[src as usize];
                if i != u32::MAX
                    && self.table.queue_of[i as usize] == self.table.queue_of[j as usize]
                    && pos[i as usize] < pos[j as usize]
                {
                    return false;
                }
                self.guard = CycleGuard::Exact;
            }
            CycleGuard::Exact => {}
        }
        if !self.cone_contains(graph, src, begin_j) {
            return false;
        }
        if self.cycle.is_none() {
            let path = self.path_over(graph, begin_j, src).unwrap_or_default();
            let nodes: Vec<NodeId> = std::iter::once(begin_j)
                .chain(path.iter().map(|&(_, _, to)| to))
                .collect();
            self.cycle = Some(HbError::cyclic(graph, &nodes));
        }
        true
    }

    // ---- invalidation ---------------------------------------------------

    /// Un-settles exactly what new edges into `seeds` can affect: a
    /// forward sweep over base + derived edges marks every node whose
    /// cone may have grown; any anchor with a premise-target node in
    /// the marked region is un-settled, memoized cones and settled
    /// roots with a marked target are dropped. Un-settling an anchor
    /// seeds its own begin into the sweep (its future conclusions land
    /// there), closing the dependency chain — so an untouched settled
    /// root really is final.
    fn invalidate_from(&mut self, graph: &SyncGraph, seeds: &[NodeId]) {
        if self.fwd_epoch == u32::MAX {
            self.fwd_mark.fill(0);
            self.fwd_epoch = 0;
        }
        self.fwd_epoch += 1;
        let epoch = self.fwd_epoch;
        self.fwd_stack.clear();
        for &s in seeds {
            if self.fwd_mark[s as usize] != epoch {
                self.fwd_mark[s as usize] = epoch;
                self.fwd_stack.push(s);
            }
        }
        while let Some(n) = self.fwd_stack.pop() {
            self.visit_invalidated(graph, n);
            for (t, _) in graph.succs(n) {
                if self.fwd_mark[t as usize] != epoch {
                    self.fwd_mark[t as usize] = epoch;
                    self.fwd_stack.push(t);
                }
            }
            if let Some(derived) = self.derived_out.get(&n) {
                for i in 0..derived.len() {
                    let (t, _) = self.derived_out[&n][i];
                    if self.fwd_mark[t as usize] != epoch {
                        self.fwd_mark[t as usize] = epoch;
                        self.fwd_stack.push(t);
                    }
                }
            }
        }
        // Drop settled roots inside the marked region; everything
        // outside is provably unaffected.
        let (mark, ep) = (&self.fwd_mark, epoch);
        self.settled_roots.retain(|r| mark[*r as usize] != ep);
    }

    /// Role check for one node reached by the invalidation sweep:
    /// un-settles the anchors whose premises read the node's cone, and
    /// seeds their begin nodes into the sweep.
    ///
    /// Rules 1/3 read the cone of the anchor's own send site, and need
    /// no branch here: the site has a base `Send` edge to the anchor's
    /// begin, so a sweep that reaches the site reaches that begin too.
    fn visit_invalidated(&mut self, graph: &SyncGraph, n: NodeId) {
        let begin_j = self.begin_event_of[n as usize];
        if begin_j != u32::MAX {
            // Suppression cone and rules-2/4 premise (b) read cone(begin).
            self.settled[begin_j as usize] = false;
        }
        let end_j = self.end_event_of[n as usize];
        if end_j != u32::MAX && self.settled[end_j as usize] {
            // Atomicity candidates come from cone(end).
            self.unsettle(graph, end_j);
        }
        let si = self.send_of_node[n as usize];
        if si != u32::MAX && self.sends[si as usize].front {
            // Rules 2/4 premise (a) reads cone(front-send site) for
            // every anchor of the queue.
            let queue = self.sends[si as usize].queue.index();
            for i in 0..self.events_of_queue.get(queue).map_or(0, Vec::len) {
                let j = self.events_of_queue[queue][i];
                if self.settled[j as usize] {
                    self.unsettle(graph, j);
                }
            }
        }
    }

    /// Un-settles anchor `j` and extends the sweep from its begin node
    /// (where its future conclusions would land).
    fn unsettle(&mut self, graph: &SyncGraph, j: u32) {
        self.settled[j as usize] = false;
        let b = graph.begin(self.table.events[j as usize]);
        if self.fwd_mark[b as usize] != self.fwd_epoch {
            self.fwd_mark[b as usize] = self.fwd_epoch;
            self.fwd_stack.push(b);
        }
    }

    // ---- suppression cone (strict reverse reach of begin(e_j)) ---------

    fn next_sup_epoch(&mut self) {
        if self.sup_epoch == u32::MAX {
            self.sup_mark.fill(0);
            self.sup_epoch = 0;
        }
        self.sup_epoch += 1;
    }

    fn sup_insert(&mut self, n: NodeId) {
        if self.sup_mark[n as usize] != self.sup_epoch {
            self.sup_mark[n as usize] = self.sup_epoch;
            self.sup_stack.push(n);
        }
    }

    /// Seeds the suppression cone with the strict predecessors of
    /// `target` (base and derived), excluding the target itself.
    fn sup_seed(&mut self, graph: &SyncGraph, target: NodeId) {
        for p in graph.preds(target) {
            self.sup_insert(p);
        }
        let j = self.begin_event_of[target as usize];
        if j != u32::MAX {
            for i in 0..self.derived_in[j as usize].len() {
                let (src, _) = self.derived_in[j as usize][i];
                self.sup_insert(src);
            }
        }
    }

    fn sup_drain(&mut self, graph: &SyncGraph) {
        while let Some(n) = self.sup_stack.pop() {
            for p in graph.preds(n) {
                self.sup_insert(p);
            }
            let j = self.begin_event_of[n as usize];
            if j != u32::MAX {
                for i in 0..self.derived_in[j as usize].len() {
                    let (src, _) = self.derived_in[j as usize][i];
                    self.sup_insert(src);
                }
            }
        }
    }

    // ---- cone traversal --------------------------------------------------

    fn next_visit_epoch(&mut self) -> u32 {
        if self.visit_epoch == u32::MAX {
            self.visit_mark.fill(0);
            self.visit_epoch = 0;
        }
        self.visit_epoch += 1;
        self.visit_epoch
    }

    /// Collects the cone of `target` — `target` itself plus every node
    /// that strictly reaches it over base + derived edges fired so far —
    /// into `out` (unsorted). Callers pass the reusable
    /// [`cone_scratch`](DemandCore::cone_scratch) buffer.
    fn collect_cone(&mut self, graph: &SyncGraph, target: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let epoch = self.next_visit_epoch();
        self.bfs_stack.clear();
        self.visit_mark[target as usize] = epoch;
        self.bfs_stack.push(target);
        out.push(target);
        while let Some(n) = self.bfs_stack.pop() {
            for p in graph.preds(n) {
                if self.visit_mark[p as usize] != epoch {
                    self.visit_mark[p as usize] = epoch;
                    self.bfs_stack.push(p);
                    out.push(p);
                }
            }
            let j = self.begin_event_of[n as usize];
            if j != u32::MAX {
                for i in 0..self.derived_in[j as usize].len() {
                    let (src, _) = self.derived_in[j as usize][i];
                    if self.visit_mark[src as usize] != epoch {
                        self.visit_mark[src as usize] = epoch;
                        self.bfs_stack.push(src);
                        out.push(src);
                    }
                }
            }
        }
    }

    /// Does `from` appear in the cone of `target`? Same traversal as
    /// [`collect_cone`](DemandCore::collect_cone) but with an early
    /// exit and no materialization — the common case for answering one
    /// settled query.
    fn cone_contains(&mut self, graph: &SyncGraph, target: NodeId, from: NodeId) -> bool {
        if from == target {
            return true;
        }
        let epoch = self.next_visit_epoch();
        self.bfs_stack.clear();
        self.visit_mark[target as usize] = epoch;
        self.bfs_stack.push(target);
        while let Some(n) = self.bfs_stack.pop() {
            for p in graph.preds(n) {
                if p == from {
                    return true;
                }
                if self.visit_mark[p as usize] != epoch {
                    self.visit_mark[p as usize] = epoch;
                    self.bfs_stack.push(p);
                }
            }
            let j = self.begin_event_of[n as usize];
            if j != u32::MAX {
                for i in 0..self.derived_in[j as usize].len() {
                    let (src, _) = self.derived_in[j as usize][i];
                    if src == from {
                        return true;
                    }
                    if self.visit_mark[src as usize] != epoch {
                        self.visit_mark[src as usize] = epoch;
                        self.bfs_stack.push(src);
                    }
                }
            }
        }
        false
    }
}
