//! Fixpoint derivation of the atomicity and event-queue rules (§3.3).
//!
//! Both rule families are *self-referential*: the atomicity rule
//! consumes `begin(e₁) ≺ end(e₂)` facts, and the queue rules consume
//! `send ≺ send` facts, that may themselves only hold because of
//! previously derived edges. The paper notes this is why a one-pass
//! vector-clock algorithm does not fit (§4.2: "there are operations
//! whose happens-before relations rely on future operations"). We
//! iterate rounds until no new edge appears — but *semi-naively*:
//!
//! * The reachability facts each rule premise reads (`which event ends
//!   / begins / send sites reach node n`) are kept as **persistent
//!   per-node rows** ([`RowState`]) instead of being recomputed with
//!   full-graph sweeps every round. After a round adds edges, only the
//!   rows downstream of the new-edge frontier are recomputed, by a
//!   worklist walk over the graph ([`propagate_rows`]).
//! * A round re-evaluates only the **dirty anchors** — events whose
//!   premise row actually changed — plus the memo-less `sendAtFront`
//!   rules 2/4 (whose side condition can become true later; front
//!   sends are rare, so that re-check set is bounded).
//! * The same delta structure carries across *calls* on one
//!   [`FixpointState`]: a second run over a grown graph propagates
//!   exactly the suffix of the graph's edge log added since the rows
//!   last converged.
//! * Round-local working sets (the per-anchor conclusion lists) live in
//!   a reusable SoA arena ([`RoundArena`]) rather than per-round
//!   `Vec<Vec<_>>` allocations.
//!
//! The reference implementation — the textbook §3.3 loop that re-tests
//! every rule instance against every event pair and send site each
//! round with freshly swept facts — is kept behind [`fixpoint_naive`] /
//! [`derive_naive`] (test- and bench-only). Differential tests in
//! `tests/fixpoint_differential.rs` pin exact equality of the
//! materialized edge sets, not just the closure. See
//! `docs/FIXPOINT.md` for the equal-least-fixpoint argument.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cafa_trace::{QueueId, Record, TaskId, Trace};

use crate::bitset::BitSet;
use crate::config::CausalityConfig;
use crate::error::HbError;
use crate::graph::{EdgeKind, NodeId, SyncGraph};

/// Upper bound on fixpoint rounds; real traces converge in a handful.
const MAX_ROUNDS: u32 = 64;

/// Below this many events the semi-naive engine skips its frontier
/// propagation machinery (worklist heap, dirty-anchor filtering) and
/// refreshes rows with plain full sweeps each round, like the naive
/// engine — at small sizes the per-round heap overhead costs more than
/// the sweeps it avoids (the `synthetic/500` tier of
/// `BENCH_fixpoint.json` ran 0.6× naive speed before this cutoff).
/// Rows, memos, and fired edges are identical either way: a full sweep
/// computes the same exact reachability rows propagation maintains, and
/// re-evaluating a clean anchor finds no fresh candidates (its premise
/// row is unchanged and everything in it is memoized).
const SMALL_EVENT_CUTOFF: usize = 768;

/// Dense numbering of the event tasks of a trace.
#[derive(Clone, Debug)]
pub struct EventTable {
    /// Dense index → event task.
    pub events: Vec<TaskId>,
    /// Task → dense index (None for threads).
    pub index: Vec<Option<u32>>,
    /// Dense index → queue.
    pub queue_of: Vec<QueueId>,
}

impl EventTable {
    /// Numbers the events of `trace` in task order.
    ///
    /// # Errors
    ///
    /// [`HbError::MalformedTrace`] if an event task has no queue —
    /// impossible for validated traces, but hand-built or corrupted
    /// inputs surface here as an error instead of a panic.
    pub fn new(trace: &Trace) -> Result<Self, HbError> {
        let mut events = Vec::new();
        let mut index = vec![None; trace.task_count()];
        let mut queue_of = Vec::new();
        for t in trace.events() {
            let Some(queue) = t.queue() else {
                return Err(HbError::MalformedTrace {
                    task: t.id.to_string(),
                    detail: format!("event task '{}' has no queue", trace.task_name(t.id)),
                });
            };
            if queue.index() >= trace.queue_count() {
                return Err(HbError::MalformedTrace {
                    task: t.id.to_string(),
                    detail: format!(
                        "event task '{}' posted to unknown queue {}",
                        trace.task_name(t.id),
                        queue.index()
                    ),
                });
            }
            index[t.id.index()] = Some(events.len() as u32);
            events.push(t.id);
            queue_of.push(queue);
        }
        Ok(Self {
            events,
            index,
            queue_of,
        })
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Dense index of an event task.
    pub fn dense(&self, task: TaskId) -> Option<u32> {
        self.index.get(task.index()).copied().flatten()
    }
}

/// One `send`/`sendAtFront` occurrence.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendSite {
    pub(crate) node: NodeId,
    pub(crate) event: TaskId,
    pub(crate) queue: QueueId,
    pub(crate) delay_ms: u64,
    pub(crate) front: bool,
}

/// Persistent per-node reachability rows, maintained incrementally
/// between rounds and between fixpoint calls.
///
/// Invariant: whenever `edges_applied == graph.edge_log().len()`, each
/// row holds exactly the sources (event ends / event begins / send
/// sites) that strictly reach that node in the current graph — the
/// same values a full [`flow`] sweep would compute.
#[derive(Clone, Debug)]
struct RowState {
    /// Edge-log position the rows reflect.
    edges_applied: usize,
    /// Node count the row vectors cover.
    node_count: usize,
    /// Whether `acc_begin` is maintained (atomicity rule on).
    atomicity: bool,
    /// Per node: dense events whose `end` reaches it. Width = events.
    acc_end: Vec<BitSet>,
    /// Per node: dense events whose `begin` reaches it.
    acc_begin: Option<Vec<BitSet>>,
    /// Per node: send sites that reach it. Width = `send_width`.
    acc_send: Option<Vec<BitSet>>,
    /// Column count of `acc_send` rows (grows as sends stream in).
    send_width: usize,
}

/// Reusable round-local scratch: the SoA conclusion arena plus the
/// propagation worklist, so a steady-state round allocates nothing.
#[derive(Clone, Debug, Default)]
struct RoundArena {
    /// Per dense event: the working set ("events whose end ≺ its
    /// begin, including this round's conclusions") saved when that
    /// anchor fired an edge this round. Only entries flagged in
    /// `fired_mask` are live; storage is reused across rounds.
    evord: Vec<BitSet>,
    /// Events that fired at least one edge this round, in processing
    /// order.
    fired: Vec<u32>,
    /// Same set as `fired`, as a membership mask.
    fired_mask: BitSet,
    /// SoA delta storage: for each fired anchor `k`, the events its
    /// working set gained *beyond* its round-start facts
    /// (`evord[k] \ acc_end[begin(e_k)]`), as a span into `delta_buf`.
    /// Later anchors fold these few sparse items instead of unioning
    /// the predecessor's full working set — round-start facts of a
    /// begin-predecessor are already contained in the anchor's own.
    delta_buf: Vec<u32>,
    delta_span: Vec<(u32, u32)>,
    /// Per-anchor working set ("events whose end ≺ begin(anchor)").
    set: BitSet,
    /// Candidate buffer for one anchor evaluation.
    fresh: Vec<usize>,
    /// Always-empty masks standing in for the memos on the naive path.
    empty_ev: BitSet,
    empty_send: BitSet,
    /// Frontier scratch for [`propagate_rows`].
    queued: BitSet,
    heap: BinaryHeap<Reverse<(u32, NodeId)>>,
    /// Anchors whose premise row changed since they were last
    /// evaluated (accumulated between rounds and across calls).
    dirty: BitSet,
    anchors: Vec<u32>,
}

/// Persistent state of the rule fixpoint, reusable across incremental
/// graph extensions: the rule indices (per-queue event and send-site
/// masks, built once per trace), the pair memos, and the semi-naive
/// engine's reachability rows and scratch arena.
///
/// The memo tables record *pairs already decided*: a pair is marked only
/// once its premise (a reachability fact) holds, premises are
/// append-monotone, and a fired conclusion persists as a graph edge — so
/// re-running [`fixpoint`] after appending nodes and base edges only
/// examines fresh pairs. The exception is the `sendAtFront` rules 2/4,
/// whose side condition can become true later; those pairs are memo-less
/// and re-checked every round (the bounded re-check set: front sends are
/// rare).
#[derive(Clone, Debug)]
pub(crate) struct FixpointState {
    /// Dense numbering of the (fixed) event set.
    pub(crate) table: EventTable,
    /// Per-queue event masks (dense indices), for the atomicity rule.
    queue_mask: Vec<BitSet>,
    /// Send sites, in ingestion order.
    pub(crate) sends: Vec<SendSite>,
    /// Per-queue send masks.
    queue_send_mask: Vec<BitSet>,
    /// Memo of send pairs already fully decided (rules 1/3, whose
    /// conclusions depend only on the pair itself).
    decided: Vec<BitSet>,
    /// Atomicity memo: pairs already ordered `end(e1) → begin(e2)`.
    atom_done: Vec<BitSet>,
    /// Semi-naive reachability rows; `None` until the first run (or
    /// after a config change forced a rebuild).
    rows: Option<RowState>,
    /// Round-local scratch, reused across rounds and calls.
    arena: RoundArena,
}

impl FixpointState {
    /// Creates empty fixpoint state for `trace`. The task table (hence
    /// the event set) must be complete; bodies may still be streaming.
    ///
    /// # Errors
    ///
    /// [`HbError::MalformedTrace`] if an event task has no queue.
    pub(crate) fn new(trace: &Trace) -> Result<Self, HbError> {
        let table = EventTable::new(trace)?;
        let ev_count = table.len();
        let mut queue_mask = vec![BitSet::new(ev_count); trace.queue_count()];
        for (i, &q) in table.queue_of.iter().enumerate() {
            queue_mask[q.index()].insert(i);
        }
        Ok(Self {
            table,
            queue_mask,
            sends: Vec::new(),
            queue_send_mask: vec![BitSet::new(0); trace.queue_count()],
            decided: Vec::new(),
            atom_done: vec![BitSet::new(ev_count); ev_count],
            rows: None,
            arena: RoundArena::default(),
        })
    }

    /// Registers newly ingested send sites, growing the pair memos.
    pub(crate) fn add_sends(&mut self, new: &[SendSite]) {
        if new.is_empty() {
            return;
        }
        let count = self.sends.len() + new.len();
        for m in &mut self.queue_send_mask {
            m.grow(count);
        }
        for d in &mut self.decided {
            d.grow(count);
        }
        for s in new {
            let i = self.sends.len();
            self.queue_send_mask[s.queue.index()].insert(i);
            self.sends.push(*s);
            self.decided.push(BitSet::new(count));
        }
    }

    /// The converged event-order closure, if the rows are current for
    /// `g`: per dense event, the events whose `end` precedes its
    /// `begin`. Lets model finalization skip one full flow sweep.
    pub(crate) fn converged_closure(&self, g: &SyncGraph) -> Option<Vec<BitSet>> {
        let rows = self.rows.as_ref()?;
        if rows.edges_applied != g.edge_log().len() || rows.node_count != g.node_count() {
            return None;
        }
        Some(
            self.table
                .events
                .iter()
                .map(|&e| rows.acc_end[g.begin(e) as usize].clone())
                .collect(),
        )
    }
}

/// Statistics about a completed fixpoint derivation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DerivationStats {
    /// Rounds until convergence (≥ 1 even when nothing is derived).
    pub rounds: u32,
    /// Rule instances evaluated: premise candidates tested by the
    /// atomicity rule and queue rules 1/3, plus every rules-2/4
    /// side-condition check. The semi-naive engine only pays for fresh
    /// candidates at dirty anchors; the naive reference re-tests every
    /// candidate every round.
    pub instances: u64,
    /// Edges added by the atomicity rule.
    pub atomicity_edges: usize,
    /// Edges added by queue rules 1–4 respectively.
    pub queue_edges: [usize; 4],
}

impl DerivationStats {
    /// Total derived edges.
    pub fn derived_edges(&self) -> usize {
        self.atomicity_edges + self.queue_edges.iter().sum::<usize>()
    }
}

/// Computes, for every node, which marked nodes reach it (strictly,
/// through at least one edge). `mark_of[n]` gives node `n`'s source
/// index, if it is a source.
pub(crate) fn flow(
    g: &SyncGraph,
    topo: &[NodeId],
    mark_of: &[Option<u32>],
    width: usize,
) -> Vec<BitSet> {
    let mut acc: Vec<BitSet> = vec![BitSet::new(0); g.node_count()];
    for &n in topo {
        let mut row = BitSet::new(width);
        for p in g.preds(n) {
            row.union_with(&acc[p as usize]);
            if let Some(m) = mark_of[p as usize] {
                row.insert(m as usize);
            }
        }
        acc[n as usize] = row;
    }
    acc
}

/// Collects the send sites of `trace` (nodes resolved against `g`).
pub(crate) fn collect_sends(g: &SyncGraph, trace: &Trace) -> Vec<SendSite> {
    let mut sends: Vec<SendSite> = Vec::new();
    for (at, r) in trace.iter_ops() {
        let (event, queue, delay_ms, front) = match *r {
            Record::Send {
                event,
                queue,
                delay_ms,
            } => (event, queue, delay_ms, false),
            Record::SendAtFront { event, queue } => (event, queue, 0, true),
            _ => continue,
        };
        let node = g.node_of(at).expect("send records are sync nodes");
        sends.push(SendSite {
            node,
            event,
            queue,
            delay_ms,
            front,
        });
    }
    sends
}

/// Runs the atomicity + queue-rule fixpoint over `g`, adding derived
/// `end(e₁) → begin(e₂)` edges in place.
///
/// # Errors
///
/// [`HbError::CyclicHappensBefore`] if the graph ever becomes cyclic
/// (an inconsistent trace), [`HbError::DerivationDiverged`] if the
/// fixpoint fails to converge within an internal round limit,
/// [`HbError::MalformedTrace`] if an event task has no queue.
pub fn derive(
    g: &mut SyncGraph,
    trace: &Trace,
    config: &CausalityConfig,
) -> Result<DerivationStats, HbError> {
    let mut st = FixpointState::new(trace)?;
    st.add_sends(&collect_sends(g, trace));
    fixpoint(g, config, &mut st)
}

/// The eager reference engine under its differential-testing name:
/// materializes every derived edge of the §3.3 fixpoint into `g`, like
/// [`derive`]. Production query paths go through the demand engine
/// (`demand.rs`) on large traces; this entry point exists so
/// differential suites can compare the demand engine's lazy answers
/// against the fully materialized relation.
pub fn derive_eager_reference(
    g: &mut SyncGraph,
    trace: &Trace,
    config: &CausalityConfig,
) -> Result<DerivationStats, HbError> {
    derive(g, trace, config)
}

/// The naive reference derivation: identical signature and result to
/// [`derive`], but driven by [`fixpoint_naive`]. Exposed (hidden) for
/// the differential test suite and the fixpoint benchmark only.
#[doc(hidden)]
pub fn derive_naive(
    g: &mut SyncGraph,
    trace: &Trace,
    config: &CausalityConfig,
) -> Result<DerivationStats, HbError> {
    let mut st = FixpointState::new(trace)?;
    st.add_sends(&collect_sends(g, trace));
    fixpoint_naive(g, config, &mut st)
}

/// Rule indices shared by both engines (immutable during a call).
struct RuleIndex<'a> {
    table: &'a EventTable,
    queue_mask: &'a [BitSet],
    sends: &'a [SendSite],
    queue_send_mask: &'a [BitSet],
}

/// Round-start reachability facts, per node.
struct RowView<'a> {
    acc_end: &'a [BitSet],
    acc_begin: Option<&'a [BitSet]>,
    acc_send: Option<&'a [BitSet]>,
}

/// Per-round ordering context.
struct OrderCtx<'a> {
    /// `begin(e)` node per dense event.
    event_begin: &'a [NodeId],
    /// `end(e)` node per dense event.
    event_end: &'a [NodeId],
    /// Dense event → its (unique) posting send site, if any.
    send_of_event: &'a [Option<u32>],
    /// Topological position of each node, this round.
    topo_pos: &'a [u32],
    /// Position of each dense event in this round's event order.
    order_pos: &'a [u32],
}

/// Absorbs a freshly fired conclusion `end(e_i1) → begin(e_j)` into the
/// anchor's working set, folding in `e_i1`'s own prior (its round-start
/// facts plus its conclusions this round) when it was ordered earlier
/// this round — so a long already-ordered chain materializes only its
/// frontier edges instead of all O(n²) transitive pairs. Every element
/// *newly* inserted is appended to `delta_buf`, building the anchor's
/// sparse delta span as a side effect — only genuinely new facts are
/// recorded, which keeps the per-round delta storage near-linear.
#[allow(clippy::too_many_arguments)]
fn absorb_conclusion(
    set: &mut BitSet,
    evord: &[BitSet],
    fired_mask: &BitSet,
    rows: &RowView<'_>,
    ctx: &OrderCtx<'_>,
    delta_buf: &mut Vec<u32>,
    delta_span: &[(u32, u32)],
    empty_ev: &BitSet,
    i1: usize,
    j: usize,
) {
    if set.insert(i1) {
        delta_buf.push(i1 as u32);
    }
    if ctx.order_pos[i1] >= ctx.order_pos[j] {
        return;
    }
    // Folding i1's prior claims end(x) ≺ begin(i1) ≺ end(i1) ≺ begin(j)
    // — the middle link is i1's own begin→end program chain, which an
    // incremental graph only has once i1's task is sealed. Without it
    // the fold would smuggle facts the graph does not imply into the
    // working set (and, through the pair memos, suppress real edges
    // forever), so absorb only the direct conclusion.
    let Some(acc_begin) = rows.acc_begin else {
        return;
    };
    if !acc_begin[ctx.event_end[i1] as usize].contains(i1) {
        return;
    }
    if fired_mask.contains(i1) {
        // i1's saved working set already folds its round-start facts
        // and the conclusions of anchors fired before it.
        for x in evord[i1].iter() {
            if set.insert(x) {
                delta_buf.push(x as u32);
            }
        }
        return;
    }
    for x in rows.acc_end[ctx.event_begin[i1] as usize].iter() {
        if set.insert(x) {
            delta_buf.push(x as u32);
        }
    }
    {
        // i1's fired begin-predecessors: their round-start facts are
        // contained in i1's (just absorbed above), so their sparse
        // deltas complete the fold. Spans are stable; pushes append
        // past `e`, so indexed iteration is sound.
        let row = &acc_begin[ctx.event_begin[i1] as usize];
        row.for_each_in_diff(fired_mask, empty_ev, |k| {
            let (s, e) = delta_span[k];
            for idx in s as usize..e as usize {
                let x = delta_buf[idx];
                if set.insert(x as usize) {
                    delta_buf.push(x);
                }
            }
        });
    }
}

/// Does `e_i1`'s prior this round (round-start facts plus its saved
/// working set and those of its fired begin-predecessors) contain
/// `i2`? The final-state equivalent of the working set an anchor
/// evaluation builds, used by the rules-2/4 implied-order check.
#[allow(clippy::too_many_arguments)]
fn prior_contains(
    evord: &[BitSet],
    fired: &[u32],
    fired_mask: &BitSet,
    rows: &RowView<'_>,
    ctx: &OrderCtx<'_>,
    i1: usize,
    i2: usize,
) -> bool {
    if rows.acc_end[ctx.event_begin[i1] as usize].contains(i2) {
        return true;
    }
    if fired_mask.contains(i1) && evord[i1].contains(i2) {
        return true;
    }
    if let Some(acc_begin) = rows.acc_begin {
        let row = &acc_begin[ctx.event_begin[i1] as usize];
        return fired
            .iter()
            .any(|&k| row.contains(k as usize) && evord[k as usize].contains(i2));
    }
    false
}

/// Applies one round of rules over the round-start facts in `rows`:
/// atomicity and queue rules 1/3 at each anchor in `anchors` (dense
/// events, in event order), then the memo-less rules 2/4 at every
/// front send. This is the single rule core shared by the semi-naive
/// and naive engines; they differ only in how `rows` are obtained, in
/// which anchors they evaluate, and in whether memos are consulted
/// (`memos: None` is the naive textbook mode that re-tests every
/// candidate).
#[allow(clippy::too_many_arguments)]
fn run_round(
    g: &mut SyncGraph,
    idx: &RuleIndex<'_>,
    mut memos: Option<(&mut [BitSet], &mut [BitSet])>,
    rows: &RowView<'_>,
    ctx: &OrderCtx<'_>,
    anchors: &[u32],
    arena: &mut RoundArena,
    stats: &mut DerivationStats,
) {
    let RoundArena {
        evord,
        fired,
        fired_mask,
        set,
        fresh,
        empty_ev,
        empty_send,
        delta_buf,
        delta_span,
        ..
    } = arena;
    let ev_count = ctx.event_begin.len();
    if evord.len() < ev_count {
        evord.resize_with(ev_count, || BitSet::new(0));
    }
    if fired_mask.capacity() < ev_count {
        fired_mask.grow(ev_count);
    }
    if delta_span.len() < ev_count {
        delta_span.resize(ev_count, (0, 0));
    }
    fired.clear();
    fired_mask.clear();
    delta_buf.clear();

    for &j32 in anchors {
        let j = j32 as usize;
        let begin_j = ctx.event_begin[j];

        // Working set: events whose end ≺ begin(e_j) as of the round
        // start, plus this round's conclusions at begin-predecessors.
        // A fired begin-predecessor's round-start facts are already
        // contained in ours (its begin reaches ours), so folding its
        // sparse delta is the same union as folding its full set.
        set.copy_from(&rows.acc_end[begin_j as usize]);
        if let Some(acc_begin) = rows.acc_begin {
            let row = &acc_begin[begin_j as usize];
            row.for_each_in_diff(fired_mask, empty_ev, |k| {
                let (s, e) = delta_span[k];
                for &x in &delta_buf[s as usize..e as usize] {
                    set.insert(x as usize);
                }
            });
        }
        // This anchor's own delta accumulates from here (absorb pushes
        // only newly inserted facts); folded items above are covered by
        // the referenced predecessors' spans.
        let delta_start = delta_buf.len() as u32;

        let mut anchor_fired = false;

        // Atomicity rule: same-looper e1 with begin(e1) ≺ end(e_j).
        if let Some(acc_begin) = rows.acc_begin {
            let e_j = idx.table.events[j];
            let reach_end = &acc_begin[g.end(e_j) as usize];
            let mask = &idx.queue_mask[idx.table.queue_of[j].index()];
            let not: &BitSet = match &memos {
                Some((atom_done, _)) => &atom_done[j],
                None => empty_ev,
            };
            fresh.clear();
            reach_end.for_each_in_diff(mask, not, |i1| {
                if i1 != j {
                    fresh.push(i1);
                }
            });
            stats.instances += fresh.len() as u64;
            // Latest predecessors first: firing (e_k, e_j) before
            // (e_i, e_j) lets e_k's absorbed set imply the earlier
            // pairs, keeping materialized edges near-linear on
            // equal-delay chains posted from one task.
            fresh.sort_by_key(|&i1| std::cmp::Reverse(ctx.topo_pos[ctx.event_begin[i1] as usize]));
            for &i1 in fresh.iter() {
                if let Some((atom_done, _)) = &mut memos {
                    atom_done[j].insert(i1);
                }
                if set.contains(i1) {
                    continue; // already implied
                }
                if g.add_edge(g.end(idx.table.events[i1]), begin_j, EdgeKind::Atomicity) {
                    stats.atomicity_edges += 1;
                    anchor_fired = true;
                    absorb_conclusion(
                        set, evord, fired_mask, rows, ctx, delta_buf, delta_span, empty_ev, i1, j,
                    );
                }
            }
        }

        // Queue rules 1 and 3, with e_j as the later-sent event.
        if let (Some(acc_send), Some(sj)) = (rows.acc_send, ctx.send_of_event[j]) {
            let sj = sj as usize;
            let s2 = idx.sends[sj];
            if !s2.front {
                let reach = &acc_send[s2.node as usize];
                let mask = &idx.queue_send_mask[s2.queue.index()];
                let not: &BitSet = match &memos {
                    Some((_, decided)) => &decided[sj],
                    None => empty_send,
                };
                fresh.clear();
                reach.for_each_in_diff(mask, not, |i| {
                    if i != sj {
                        fresh.push(i);
                    }
                });
                stats.instances += fresh.len() as u64;
                // Same latest-first ordering as the atomicity loop.
                fresh.sort_by_key(|&i| {
                    idx.table
                        .dense(idx.sends[i].event)
                        .map(|d| {
                            std::cmp::Reverse(ctx.topo_pos[ctx.event_begin[d as usize] as usize])
                        })
                        .unwrap_or(std::cmp::Reverse(0))
                });
                for &i in fresh.iter() {
                    if let Some((_, decided)) = &mut memos {
                        decided[sj].insert(i);
                    }
                    let s1 = &idx.sends[i];
                    if !(s1.front || s1.delay_ms <= s2.delay_ms) {
                        continue;
                    }
                    let i1 = idx.table.dense(s1.event).expect("sent tasks are events") as usize;
                    if set.contains(i1) {
                        continue; // already implied
                    }
                    let rule = if s1.front { 3u8 } else { 1 };
                    if g.add_edge(g.end(s1.event), begin_j, EdgeKind::Queue(rule)) {
                        stats.queue_edges[if s1.front { 2 } else { 0 }] += 1;
                        anchor_fired = true;
                        absorb_conclusion(
                            set, evord, fired_mask, rows, ctx, delta_buf, delta_span, empty_ev, i1,
                            j,
                        );
                    }
                }
            }
        }

        if anchor_fired {
            evord[j].copy_from(set);
            delta_span[j] = (delta_start, delta_buf.len() as u32);
            fired_mask.insert(j);
            fired.push(j32);
        }
    }

    // Queue rules 2 and 4: a front-send s2 ordered after s1, with
    // s2 ≺ begin(e1) — the conclusion reverses (e2 runs first). These
    // pairs are memo-less (the side condition can become true later)
    // and re-checked every round in both engines.
    if let Some(acc_send) = rows.acc_send {
        for (j, s2) in idx.sends.iter().enumerate() {
            if !s2.front {
                continue;
            }
            let reach = &acc_send[s2.node as usize];
            let mask = &idx.queue_send_mask[s2.queue.index()];
            for i in reach.iter() {
                if i == j || !mask.contains(i) {
                    continue;
                }
                stats.instances += 1;
                let s1 = &idx.sends[i];
                let begin_e1 = g.begin(s1.event);
                if !acc_send[begin_e1 as usize].contains(j) {
                    continue; // side condition s2 ≺ begin(e1) not met
                }
                let i1 = idx.table.dense(s1.event).expect("sent tasks are events") as usize;
                let i2 = idx.table.dense(s2.event).expect("sent tasks are events") as usize;
                if prior_contains(evord, fired, fired_mask, rows, ctx, i1, i2) {
                    continue; // already implied
                }
                let rule = if s1.front { 4u8 } else { 2 };
                if g.add_edge(g.end(s2.event), begin_e1, EdgeKind::Queue(rule)) {
                    stats.queue_edges[if s1.front { 3 } else { 1 }] += 1;
                }
            }
        }
    }
}

/// Incrementally recomputes the reachability rows affected by the
/// `suffix` of newly added edges: every edge target is enqueued, and
/// affected nodes are processed **in topological order** (a min-heap
/// keyed by `topo_pos`), so each node's row is recomputed from its
/// predecessors' final rows exactly once — the frontier-sized
/// equivalent of one [`flow`] sweep, not a chaotic iteration. Rows
/// only grow (the graph only gains edges), so a recompute is a
/// word-level union.
///
/// `topo_pos` must be a valid topological numbering of the **current**
/// graph (including the suffix edges): when a node is popped, every
/// predecessor that could still change has a smaller position and was
/// therefore popped first.
///
/// `on_changed` fires once for every node whose row grew.
#[allow(clippy::too_many_arguments)]
fn propagate_rows(
    g: &SyncGraph,
    rows: &mut [BitSet],
    marks: &[Option<u32>],
    width: usize,
    suffix: &[(NodeId, NodeId, EdgeKind)],
    topo_pos: &[u32],
    queued: &mut BitSet,
    heap: &mut BinaryHeap<Reverse<(u32, NodeId)>>,
    mut on_changed: impl FnMut(NodeId),
) {
    let n_nodes = g.node_count();
    if queued.capacity() < n_nodes {
        queued.grow(n_nodes);
    }
    queued.clear();
    heap.clear();
    for &(_, to, _) in suffix {
        if queued.insert(to as usize) {
            heap.push(Reverse((topo_pos[to as usize], to)));
        }
    }
    while let Some(Reverse((_, n))) = heap.pop() {
        // The queued bit stays set: processed-in-order nodes are final.
        // Rows only grow, so unioning the predecessors straight into
        // the node's row (taken out to satisfy the borrow checker) is
        // exactly the recompute.
        let mut row = std::mem::take(&mut rows[n as usize]);
        if row.capacity() != width {
            row = BitSet::new(width);
        }
        let mut grew = false;
        for p in g.preds(n) {
            grew |= row.union_with(&rows[p as usize]);
            if let Some(m) = marks[p as usize] {
                grew |= row.insert(m as usize);
            }
        }
        rows[n as usize] = row;
        if grew {
            on_changed(n);
            for (s, _) in g.succs(n) {
                if queued.insert(s as usize) {
                    heap.push(Reverse((topo_pos[s as usize], s)));
                }
            }
        }
    }
}

/// Source marks for the three row families of one fixpoint call.
struct CallMarks {
    begin_marks: Vec<Option<u32>>,
    end_marks: Vec<Option<u32>>,
    send_marks: Vec<Option<u32>>,
    event_begin: Vec<NodeId>,
    event_end: Vec<NodeId>,
    send_of_event: Vec<Option<u32>>,
}

fn call_marks(
    g: &SyncGraph,
    table: &EventTable,
    sends: &[SendSite],
    track_send: bool,
) -> CallMarks {
    let mut begin_marks: Vec<Option<u32>> = vec![None; g.node_count()];
    let mut end_marks: Vec<Option<u32>> = vec![None; g.node_count()];
    for (i, &e) in table.events.iter().enumerate() {
        begin_marks[g.begin(e) as usize] = Some(i as u32);
        end_marks[g.end(e) as usize] = Some(i as u32);
    }
    let event_begin: Vec<NodeId> = table.events.iter().map(|&e| g.begin(e)).collect();
    let event_end: Vec<NodeId> = table.events.iter().map(|&e| g.end(e)).collect();
    let mut send_marks: Vec<Option<u32>> = Vec::new();
    let mut send_of_event: Vec<Option<u32>> = vec![None; table.len()];
    if track_send {
        send_marks = vec![None; g.node_count()];
        for (i, s) in sends.iter().enumerate() {
            send_marks[s.node as usize] = Some(i as u32);
            // Each event is posted by at most one send (trace validation).
            if let Some(d) = table.dense(s.event) {
                send_of_event[d as usize] = Some(i as u32);
            }
        }
    }
    CallMarks {
        begin_marks,
        end_marks,
        send_marks,
        event_begin,
        event_end,
        send_of_event,
    }
}

/// The semi-naive fixpoint behind [`derive`], factored over persistent
/// [`FixpointState`] so incremental sessions can extend a previous run:
/// pairs memoized in `st` are never re-examined, converged reachability
/// rows are reused and only the appended edge-log suffix is propagated,
/// and re-running after new nodes/edges were appended converges to the
/// same least fixpoint as a batch derivation (materialized edges may
/// differ where a fact is already implied transitively; the closure is
/// identical).
pub(crate) fn fixpoint(
    g: &mut SyncGraph,
    config: &CausalityConfig,
    st: &mut FixpointState,
) -> Result<DerivationStats, HbError> {
    fixpoint_with_limit(g, config, st, MAX_ROUNDS)
}

/// [`fixpoint`] with an explicit round limit (tests exercise the
/// non-convergence diagnostic by lowering it).
pub(crate) fn fixpoint_with_limit(
    g: &mut SyncGraph,
    config: &CausalityConfig,
    st: &mut FixpointState,
    max_rounds: u32,
) -> Result<DerivationStats, HbError> {
    let mut stats = DerivationStats::default();
    if !config.atomicity_rule && !config.queue_rules {
        // Still verify acyclicity so every model is checked.
        g.topo_order().map_err(|nodes| HbError::cyclic(g, &nodes))?;
        stats.rounds = 1;
        return Ok(stats);
    }

    let ev_count = st.table.len();
    let track_send = config.queue_rules && !st.sends.is_empty();

    // Fast path: rows already converged for this exact graph — nothing
    // appended since, so the previous convergence still stands.
    if let Some(rows) = &st.rows {
        if rows.edges_applied == g.edge_log().len()
            && rows.node_count == g.node_count()
            && rows.atomicity == config.atomicity_rule
            && rows.acc_send.is_some() == track_send
            && (!track_send || rows.send_width == st.sends.len())
        {
            stats.rounds = 1;
            return Ok(stats);
        }
    }

    let marks = call_marks(g, &st.table, &st.sends, track_send);

    let FixpointState {
        table,
        queue_mask,
        sends,
        queue_send_mask,
        decided,
        atom_done,
        rows: rows_slot,
        arena,
    } = st;

    // Size the arena for this call.
    if arena.empty_ev.capacity() != ev_count {
        arena.empty_ev = BitSet::new(ev_count);
    }
    if arena.empty_send.capacity() != sends.len() {
        arena.empty_send = BitSet::new(sends.len());
    }
    if arena.dirty.capacity() < ev_count {
        arena.dirty.grow(ev_count);
    }
    arena.dirty.clear();

    // Bring the rows up to date with the graph: reuse them (the loop
    // below propagates the appended edge-log suffix before evaluating
    // anchors) when the previous rows are compatible and the suffix is
    // small, rebuild with full sweeps otherwise.
    let compatible = rows_slot.as_ref().is_some_and(|rows| {
        rows.atomicity == config.atomicity_rule && rows.acc_send.is_some() == track_send
    });
    let suffix_len = rows_slot
        .as_ref()
        .map_or(usize::MAX, |rows| g.edge_log().len() - rows.edges_applied);
    let reuse = compatible && suffix_len.saturating_mul(4) <= g.edge_count();

    let mut dirty_all = false;
    let mut topo_cache: Option<Vec<NodeId>> = None;

    if reuse {
        let rows = rows_slot.as_mut().expect("reuse implies rows");
        // Extend row vectors for nodes appended since the last call.
        let n_nodes = g.node_count();
        rows.acc_end.resize_with(n_nodes, || BitSet::new(ev_count));
        if let Some(acc_begin) = &mut rows.acc_begin {
            acc_begin.resize_with(n_nodes, || BitSet::new(ev_count));
        }
        if track_send {
            let acc_send = rows.acc_send.as_mut().expect("compat implies send rows");
            if rows.send_width < sends.len() {
                for row in acc_send.iter_mut() {
                    row.grow(sends.len());
                }
                rows.send_width = sends.len();
            }
            acc_send.resize_with(n_nodes, || BitSet::new(sends.len()));
        }
        rows.node_count = n_nodes;
        // `rows.edges_applied` stays stale: the round loop propagates
        // the cross-call suffix once it has a topological numbering of
        // the current graph.
    } else {
        // Fresh build: three linear sweeps over the current graph.
        let topo = g.topo_order().map_err(|nodes| HbError::cyclic(g, &nodes))?;
        let acc_end = flow(g, &topo, &marks.end_marks, ev_count);
        let acc_begin = config
            .atomicity_rule
            .then(|| flow(g, &topo, &marks.begin_marks, ev_count));
        let acc_send = track_send.then(|| flow(g, &topo, &marks.send_marks, sends.len()));
        *rows_slot = Some(RowState {
            edges_applied: g.edge_log().len(),
            node_count: g.node_count(),
            atomicity: config.atomicity_rule,
            acc_end,
            acc_begin,
            acc_send,
            send_width: sends.len(),
        });
        dirty_all = true;
        topo_cache = Some(topo);
    }

    let idx = RuleIndex {
        table,
        queue_mask,
        sends,
        queue_send_mask,
    };

    // Per-call ordering scratch, refilled each round.
    let mut topo_pos: Vec<u32> = vec![0; g.node_count()];
    let mut event_order: Vec<u32> = (0..ev_count as u32).collect();
    let mut order_pos: Vec<u32> = vec![0; ev_count];
    let mut anchors = std::mem::take(&mut arena.anchors);
    let mut last_delta = (0usize, 0usize);

    loop {
        stats.rounds += 1;
        if stats.rounds > max_rounds {
            let delta = &g.edge_log()[last_delta.0..last_delta.1];
            let err = HbError::diverged(g, stats.rounds - 1, delta);
            arena.anchors = anchors;
            return Err(err);
        }
        let topo = match topo_cache.take() {
            Some(t) => t,
            None => match g.topo_order() {
                Ok(t) => t,
                Err(nodes) => {
                    let err = HbError::cyclic(g, &nodes);
                    arena.anchors = anchors;
                    return Err(err);
                }
            },
        };
        for (pos, &n) in topo.iter().enumerate() {
            topo_pos[n as usize] = pos as u32;
        }

        // Bring the rows up to date with the graph before evaluating
        // anchors: propagate the edge-log suffix appended since the
        // rows last converged — the cross-call base edges on the first
        // iteration of a reused state, the previous round's conclusion
        // delta afterwards — collecting the anchors whose premise rows
        // changed as this round's dirty set. This is the only
        // propagation site, and it runs with a topological numbering
        // of the *current* graph (required by [`propagate_rows`]).
        {
            let rows = rows_slot.as_mut().expect("rows built above");
            if rows.edges_applied < g.edge_log().len() && ev_count < SMALL_EVENT_CUTOFF {
                // Small-trace path: full sweeps, every anchor re-checked
                // (see [`SMALL_EVENT_CUTOFF`]); results are identical.
                rows.acc_end = flow(g, &topo, &marks.end_marks, ev_count);
                if rows.acc_begin.is_some() {
                    rows.acc_begin = Some(flow(g, &topo, &marks.begin_marks, ev_count));
                }
                if track_send {
                    rows.acc_send = Some(flow(g, &topo, &marks.send_marks, sends.len()));
                    rows.send_width = sends.len();
                }
                rows.node_count = g.node_count();
                rows.edges_applied = g.edge_log().len();
                dirty_all = true;
            }
            if rows.edges_applied < g.edge_log().len() {
                arena.dirty.clear();
                let suffix = &g.edge_log()[rows.edges_applied..];
                propagate_rows(
                    g,
                    &mut rows.acc_end,
                    &marks.end_marks,
                    ev_count,
                    suffix,
                    &topo_pos,
                    &mut arena.queued,
                    &mut arena.heap,
                    |_| {},
                );
                if let Some(acc_begin) = &mut rows.acc_begin {
                    let dirty = &mut arena.dirty;
                    propagate_rows(
                        g,
                        acc_begin,
                        &marks.begin_marks,
                        ev_count,
                        suffix,
                        &topo_pos,
                        &mut arena.queued,
                        &mut arena.heap,
                        |n| {
                            // The atomicity premise of e_j reads the
                            // row at end(e_j).
                            if let Some(j) = marks.end_marks[n as usize] {
                                dirty.insert(j as usize);
                            }
                        },
                    );
                }
                if track_send {
                    let acc_send = rows.acc_send.as_mut().expect("send rows present");
                    let dirty = &mut arena.dirty;
                    propagate_rows(
                        g,
                        acc_send,
                        &marks.send_marks,
                        sends.len(),
                        suffix,
                        &topo_pos,
                        &mut arena.queued,
                        &mut arena.heap,
                        |n| {
                            // Rules 1/3 at anchor e_j read the row at
                            // e_j's posting send site.
                            if let Some(si) = marks.send_marks[n as usize] {
                                let s = &sends[si as usize];
                                if !s.front {
                                    if let Some(j) = table.dense(s.event) {
                                        dirty.insert(j as usize);
                                    }
                                }
                            }
                        },
                    );
                }
                rows.edges_applied = g.edge_log().len();
            }
        }

        event_order.sort_by_key(|&i| topo_pos[marks.event_begin[i as usize] as usize]);
        for (pos, &i) in event_order.iter().enumerate() {
            order_pos[i as usize] = pos as u32;
        }
        anchors.clear();
        if dirty_all {
            anchors.extend_from_slice(&event_order);
        } else {
            anchors.extend(
                event_order
                    .iter()
                    .copied()
                    .filter(|&i| arena.dirty.contains(i as usize)),
            );
        }

        let rows = rows_slot.as_ref().expect("rows built above");
        let view = RowView {
            acc_end: &rows.acc_end,
            acc_begin: rows.acc_begin.as_deref(),
            acc_send: rows.acc_send.as_deref(),
        };
        let ctx = OrderCtx {
            event_begin: &marks.event_begin,
            event_end: &marks.event_end,
            send_of_event: &marks.send_of_event,
            topo_pos: &topo_pos,
            order_pos: &order_pos,
        };
        let log_before = g.edge_log().len();
        run_round(
            g,
            &idx,
            Some((atom_done, decided)),
            &view,
            &ctx,
            &anchors,
            arena,
            &mut stats,
        );
        let log_after = g.edge_log().len();

        if log_after == log_before {
            arena.anchors = anchors;
            return Ok(stats);
        }
        // The next iteration propagates this delta into the rows once
        // it has a topological numbering that covers the new edges.
        last_delta = (log_before, log_after);
        dirty_all = false;
    }
}

/// The naive reference loop: every round sweeps fresh reachability
/// facts with three full [`flow`] passes and re-tests **every** rule
/// instance — all event pairs and send-site pairs — with no memos and
/// no dirty tracking. Kept solely as the differential-test and
/// benchmark baseline; it shares [`run_round`] with the semi-naive
/// engine, so both materialize identical edge sets round by round.
///
/// Does not read or write `st`'s memos or persistent rows (only its
/// indices and scratch arena), so it can be interleaved with
/// [`fixpoint`] runs on separate graphs for differential testing.
pub(crate) fn fixpoint_naive(
    g: &mut SyncGraph,
    config: &CausalityConfig,
    st: &mut FixpointState,
) -> Result<DerivationStats, HbError> {
    let mut stats = DerivationStats::default();
    if !config.atomicity_rule && !config.queue_rules {
        g.topo_order().map_err(|nodes| HbError::cyclic(g, &nodes))?;
        stats.rounds = 1;
        return Ok(stats);
    }

    let ev_count = st.table.len();
    let track_send = config.queue_rules && !st.sends.is_empty();
    let marks = call_marks(g, &st.table, &st.sends, track_send);

    let FixpointState {
        table,
        queue_mask,
        sends,
        queue_send_mask,
        arena,
        ..
    } = st;

    if arena.empty_ev.capacity() != ev_count {
        arena.empty_ev = BitSet::new(ev_count);
    }
    if arena.empty_send.capacity() != sends.len() {
        arena.empty_send = BitSet::new(sends.len());
    }

    let idx = RuleIndex {
        table,
        queue_mask,
        sends,
        queue_send_mask,
    };

    let mut topo_pos: Vec<u32> = vec![0; g.node_count()];
    let mut event_order: Vec<u32> = (0..ev_count as u32).collect();
    let mut order_pos: Vec<u32> = vec![0; ev_count];
    let mut last_delta = (0usize, 0usize);

    loop {
        stats.rounds += 1;
        if stats.rounds > MAX_ROUNDS {
            let delta = &g.edge_log()[last_delta.0..last_delta.1];
            return Err(HbError::diverged(g, stats.rounds - 1, delta));
        }
        let topo = g.topo_order().map_err(|nodes| HbError::cyclic(g, &nodes))?;

        // Full sweeps: the naive per-round cost the semi-naive engine
        // replaces with frontier propagation.
        let acc_end = flow(g, &topo, &marks.end_marks, ev_count);
        let acc_begin = config
            .atomicity_rule
            .then(|| flow(g, &topo, &marks.begin_marks, ev_count));
        let acc_send = track_send.then(|| flow(g, &topo, &marks.send_marks, sends.len()));

        for (pos, &n) in topo.iter().enumerate() {
            topo_pos[n as usize] = pos as u32;
        }
        event_order.sort_by_key(|&i| topo_pos[marks.event_begin[i as usize] as usize]);
        for (pos, &i) in event_order.iter().enumerate() {
            order_pos[i as usize] = pos as u32;
        }

        let view = RowView {
            acc_end: &acc_end,
            acc_begin: acc_begin.as_deref(),
            acc_send: acc_send.as_deref(),
        };
        let ctx = OrderCtx {
            event_begin: &marks.event_begin,
            event_end: &marks.event_end,
            send_of_event: &marks.send_of_event,
            topo_pos: &topo_pos,
            order_pos: &order_pos,
        };
        let anchors = event_order.clone();
        let log_before = g.edge_log().len();
        run_round(g, &idx, None, &view, &ctx, &anchors, arena, &mut stats);
        let log_after = g.edge_log().len();
        if log_after == log_before {
            return Ok(stats);
        }
        last_delta = (log_before, log_after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::base_graph;
    use cafa_trace::TraceBuilder;

    fn run(trace: &Trace) -> (SyncGraph, DerivationStats) {
        let config = CausalityConfig::cafa();
        let mut g = base_graph(trace, &config);
        let stats = derive(&mut g, trace, &config).expect("derivation converges");
        (g, stats)
    }

    fn ordered(g: &SyncGraph, e1: TaskId, e2: TaskId) -> bool {
        let mut scratch = BitSet::new(g.node_count());
        g.reaches(g.end(e1), g.begin(e2), &mut scratch)
    }

    /// Figure 4b: two sends with equal delays from one thread → ordered.
    #[test]
    fn fig4b_equal_delay_sends_order_events() {
        let mut b = TraceBuilder::new("fig4b");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let a = b.post(t, q, "A", 1);
        let e = b.post(t, q, "B", 1);
        b.process_event(a);
        b.process_event(e);
        let trace = b.finish().unwrap();
        let (g, stats) = run(&trace);
        assert!(ordered(&g, a, e));
        assert!(!ordered(&g, e, a));
        assert!(stats.queue_edges[0] >= 1);
    }

    /// Figure 4c: earlier send has the larger delay → no order.
    #[test]
    fn fig4c_larger_delay_first_leaves_events_unordered() {
        let mut b = TraceBuilder::new("fig4c");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let a = b.post(t, q, "A", 5);
        let e = b.post(t, q, "B", 0);
        // B actually ran first.
        b.process_event(e);
        b.process_event(a);
        let trace = b.finish().unwrap();
        let (g, _) = run(&trace);
        assert!(!ordered(&g, a, e));
        assert!(!ordered(&g, e, a));
    }

    /// Figure 4d: send(A) then sendAtFront(B) inside event C on the same
    /// looper → B ≺ A (queue rule 2).
    #[test]
    fn fig4d_sendatfront_within_event_orders_front_first() {
        let mut b = TraceBuilder::new("fig4d");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let c = b.post(t, q, "C", 0);
        b.process_event(c);
        let a = b.post(c, q, "A", 0);
        let front = b.post_front(c, q, "B");
        b.process_event(front);
        b.process_event(a);
        let trace = b.finish().unwrap();
        let (g, stats) = run(&trace);
        assert!(ordered(&g, front, a), "B must happen-before A");
        assert!(!ordered(&g, a, front));
        assert!(ordered(&g, c, a), "atomicity: C before A");
        assert!(stats.queue_edges[1] >= 1, "rule 2 fired");
    }

    /// Figures 4e/4f: send(A) from one task, sendAtFront(B) from another
    /// with no `sendAtFront ≺ begin(A)` guarantee → unordered.
    #[test]
    fn fig4ef_sendatfront_without_guarantee_is_unordered() {
        let mut b = TraceBuilder::new("fig4ef");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let t2 = b.add_thread(p, "T2");
        let a = b.post(t, q, "A", 0);
        let front = b.post_front(t2, q, "B");
        b.process_event(a);
        b.process_event(front);
        let trace = b.finish().unwrap();
        let (g, _) = run(&trace);
        assert!(!ordered(&g, a, front));
        assert!(!ordered(&g, front, a));
    }

    /// Queue rule 3: a front-send ordered before a later plain send →
    /// the front event runs first, regardless of delay.
    #[test]
    fn rule3_front_send_before_plain_send() {
        let mut b = TraceBuilder::new("rule3");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let front = b.post_front(t, q, "A");
        let e = b.post(t, q, "B", 50);
        b.process_event(front);
        b.process_event(e);
        let trace = b.finish().unwrap();
        let (g, stats) = run(&trace);
        assert!(ordered(&g, front, e));
        assert!(stats.queue_edges[2] >= 1, "rule 3 fired");
    }

    /// Queue rule 4: two front-sends inside one event on the target
    /// looper → the later front-send runs first.
    #[test]
    fn rule4_two_front_sends_within_event() {
        let mut b = TraceBuilder::new("rule4");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let c = b.post(t, q, "C", 0);
        b.process_event(c);
        let e1 = b.post_front(c, q, "A");
        let e2 = b.post_front(c, q, "B");
        // B jumped in front of A.
        b.process_event(e2);
        b.process_event(e1);
        let trace = b.finish().unwrap();
        let (g, stats) = run(&trace);
        assert!(ordered(&g, e2, e1), "the later front-send runs first");
        assert!(!ordered(&g, e1, e2));
        assert!(stats.queue_edges[3] >= 1, "rule 4 fired");
    }

    /// Figure 4a: A forks T; T performs a listener registered before B
    /// is performed... the atomicity rule orders A before B.
    #[test]
    fn fig4a_atomicity_via_fork_and_listener() {
        let mut b = TraceBuilder::new("fig4a");
        let p = b.add_process();
        let q = b.add_queue(p);
        let _main = b.add_thread(p, "main");
        let l = b.add_listener("android.view");
        let a = b.external(q, "A");
        let e = b.external(q, "B");
        b.process_event(a);
        let t = b.fork(a, p, "T");
        b.register(t, l);
        b.process_event(e);
        b.perform(e, l);
        let trace = b.finish().unwrap();

        // Disable the external rule so only fork+register+atomicity act.
        let mut config = CausalityConfig::cafa();
        config.external_rule = false;
        let mut g = base_graph(&trace, &config);
        let stats = derive(&mut g, &trace, &config).unwrap();
        assert!(ordered(&g, a, e), "atomicity lifts fork≺perform to A≺B");
        assert!(stats.atomicity_edges >= 1);
    }

    /// Derivations cascade across rounds: a queue-rule edge enables an
    /// atomicity edge for another pair.
    #[test]
    fn fixpoint_needs_multiple_rounds() {
        let mut b = TraceBuilder::new("cascade");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        // Two equal-delay sends order A ≺ B (rule 1). B sends C; then
        // atomicity and rule 1 chain C after A transitively.
        let a = b.post(t, q, "A", 0);
        let e = b.post(t, q, "B", 0);
        b.process_event(a);
        b.process_event(e);
        let c = b.post(e, q, "C", 0);
        b.process_event(c);
        let trace = b.finish().unwrap();
        let (g, stats) = run(&trace);
        assert!(ordered(&g, a, e));
        assert!(ordered(&g, e, c));
        assert!(ordered(&g, a, c));
        assert!(stats.rounds >= 2);
    }

    /// An empty trace derives nothing and converges immediately.
    #[test]
    fn empty_trace_converges() {
        let trace = TraceBuilder::new("empty").finish().unwrap();
        let (_, stats) = run(&trace);
        assert_eq!(stats.derived_edges(), 0);
    }

    /// The naive reference materializes the exact same edges, rounds,
    /// and derived-edge counts as the semi-naive engine, while
    /// evaluating at least as many rule instances.
    #[test]
    fn naive_reference_matches_semi_naive() {
        let mut b = TraceBuilder::new("cascade");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let a = b.post(t, q, "A", 0);
        let e = b.post(t, q, "B", 0);
        b.process_event(a);
        b.process_event(e);
        let c = b.post(e, q, "C", 0);
        let f = b.post_front(e, q, "F");
        b.process_event(f);
        b.process_event(c);
        let trace = b.finish().unwrap();

        let config = CausalityConfig::cafa();
        let mut g_semi = base_graph(&trace, &config);
        let semi = derive(&mut g_semi, &trace, &config).unwrap();
        let mut g_naive = base_graph(&trace, &config);
        let naive = derive_naive(&mut g_naive, &trace, &config).unwrap();

        let mut edges_semi = g_semi.edge_log().to_vec();
        let mut edges_naive = g_naive.edge_log().to_vec();
        edges_semi.sort_by_key(|&(f, t, _)| (f, t));
        edges_naive.sort_by_key(|&(f, t, _)| (f, t));
        assert_eq!(edges_semi, edges_naive);
        assert_eq!(semi.rounds, naive.rounds);
        assert_eq!(semi.atomicity_edges, naive.atomicity_edges);
        assert_eq!(semi.queue_edges, naive.queue_edges);
        assert!(naive.instances >= semi.instances);
    }

    /// An event task with no queue surfaces as a typed error, not a
    /// panic (regression: `EventTable::new` used to `expect`).
    #[test]
    fn malformed_event_without_queue_is_typed_error() {
        let mut b = TraceBuilder::new("malformed");
        let p = b.add_process();
        let _q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        // Post to a queue id that does not exist: validation would
        // reject this, so bypass it.
        let bad_q = QueueId::new(7);
        let _ = b.post(t, bad_q, "A", 0);
        let trace = b.finish_unchecked();
        let err = EventTable::new(&trace).unwrap_err();
        assert!(matches!(err, HbError::MalformedTrace { .. }));
        assert!(err.to_string().contains("queue"));

        // And it propagates through the public derivation entry point.
        let config = CausalityConfig::cafa();
        let mut g = SyncGraph::from_trace(&trace);
        assert!(matches!(
            derive(&mut g, &trace, &config),
            Err(HbError::MalformedTrace { .. })
        ));
    }

    /// Hitting the round limit reports a typed non-convergence error
    /// naming the last delta.
    #[test]
    fn round_limit_names_last_delta() {
        // The cascade trace needs ≥ 2 rounds; a limit of 1 must fail
        // after round 1 with that round's edges as the delta.
        let mut b = TraceBuilder::new("cascade");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let a = b.post(t, q, "A", 0);
        let e = b.post(t, q, "B", 0);
        b.process_event(a);
        b.process_event(e);
        let c = b.post(e, q, "C", 0);
        b.process_event(c);
        let trace = b.finish().unwrap();
        let config = CausalityConfig::cafa();
        let mut g = base_graph(&trace, &config);
        let mut st = FixpointState::new(&trace).unwrap();
        st.add_sends(&collect_sends(&g, &trace));
        let err = fixpoint_with_limit(&mut g, &config, &mut st, 1).unwrap_err();
        match err {
            HbError::DerivationDiverged {
                rounds,
                delta_edges,
                last_delta,
            } => {
                assert_eq!(rounds, 1);
                assert!(delta_edges >= 1);
                assert!(!last_delta.is_empty());
            }
            other => panic!("expected DerivationDiverged, got {other:?}"),
        }
    }

    /// A converged state re-run on an unchanged graph takes the O(1)
    /// fast path: one round, zero instances.
    #[test]
    fn converged_rerun_is_a_noop() {
        let mut b = TraceBuilder::new("rerun");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let a = b.post(t, q, "A", 0);
        let e = b.post(t, q, "B", 0);
        b.process_event(a);
        b.process_event(e);
        let trace = b.finish().unwrap();
        let config = CausalityConfig::cafa();
        let mut g = base_graph(&trace, &config);
        let mut st = FixpointState::new(&trace).unwrap();
        st.add_sends(&collect_sends(&g, &trace));
        let first = fixpoint(&mut g, &config, &mut st).unwrap();
        assert!(first.derived_edges() >= 1);
        let edges_before = g.edge_log().len();
        let second = fixpoint(&mut g, &config, &mut st).unwrap();
        assert_eq!(second.rounds, 1);
        assert_eq!(second.instances, 0);
        assert_eq!(second.derived_edges(), 0);
        assert_eq!(g.edge_log().len(), edges_before);
    }
}
