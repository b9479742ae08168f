//! The naive reference derivation of the atomicity and event-queue
//! rules (§3.3).
//!
//! Both rule families are *self-referential*: the atomicity rule
//! consumes `begin(e₁) ≺ end(e₂)` facts, and the queue rules consume
//! `send ≺ send` facts, that may themselves only hold because of
//! previously derived edges. The paper notes this is why a one-pass
//! vector-clock algorithm does not fit (§4.2: "there are operations
//! whose happens-before relations rely on future operations").
//!
//! [`derive_naive`] is the textbook loop: every round sweeps fresh
//! reachability facts with full [`flow`] passes, re-tests **every** rule
//! instance against those round-start facts, and materializes each
//! conclusion not already implied into the graph, until a round adds
//! nothing. It is the one derivation that materializes every derived
//! edge. Analysis queries go through the demand engine (`demand.rs`)
//! instead, which settles only the cones a query probes; the
//! differential suites compare its answers against this loop, and
//! `cafa graph` draws this loop's edges. [`derive_gated`] is the same
//! loop with a static gate on each conclusion's event pair: with the
//! conflict gate it computes `cafa-predict`'s predictive order. See
//! `docs/FIXPOINT.md` for why these compute the least fixpoints of their
//! rules.

use cafa_trace::{QueueId, Record, TaskId, Trace};

use crate::bitset::BitSet;
use crate::config::CausalityConfig;
use crate::error::HbError;
use crate::graph::{EdgeKind, NodeId, SyncGraph};

/// Upper bound on fixpoint rounds; real traces converge in a handful.
const MAX_ROUNDS: u32 = 64;

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

/// Reusable round-local scratch: the per-anchor working sets and their
/// sparse deltas, so a round's conclusions can be absorbed without
/// per-round `Vec<Vec<_>>` allocations.
#[derive(Debug, Default)]
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
    /// Always-empty masks: every candidate is re-tested each round.
    empty_ev: BitSet,
    empty_send: BitSet,
}

/// Statistics about a completed fixpoint derivation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DerivationStats {
    /// Rounds until convergence (≥ 1 even when nothing is derived).
    pub rounds: u32,
    /// Rule instances evaluated: premise candidates tested by the
    /// atomicity rule and queue rules 1/3, plus every rules-2/4
    /// side-condition check. The naive loop re-tests every candidate
    /// every round.
    pub instances: u64,
    /// Refusals by the gate of [`derive_gated`] in the round that
    /// converged (0 under [`derive_naive`]): rule instances whose
    /// premises hold in the gated fixpoint and whose conclusion it does
    /// not imply. Disjoint islands' counts add up to the whole's.
    pub gated: u64,
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
fn flow(g: &SyncGraph, topo: &[NodeId], mark_of: &[Option<u32>], width: usize) -> Vec<BitSet> {
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
fn collect_sends(g: &SyncGraph, trace: &Trace) -> Vec<SendSite> {
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

/// Borrowed rule indices (immutable during a round).
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
    // Folding i1's prior claims end(x) ≺ begin(i1) ≺ end(i1) ≺ begin(j);
    // the middle link is i1's own begin→end program chain.
    let Some(acc_begin) = rows.acc_begin else {
        return;
    };
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
/// events, in event order), then rules 2/4 at every front send. Every
/// candidate is re-tested; a conclusion `end(e₁) → begin(e₂)` is
/// materialized unless the anchor's working set already implies it or
/// `gate(e₁, e₂)` refuses it.
#[allow(clippy::too_many_arguments)]
fn run_round(
    g: &mut SyncGraph,
    idx: &RuleIndex<'_>,
    rows: &RowView<'_>,
    ctx: &OrderCtx<'_>,
    anchors: &[u32],
    arena: &mut RoundArena,
    stats: &mut DerivationStats,
    gate: &impl Fn(TaskId, TaskId) -> bool,
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
    } = arena;
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
            // Every candidate is an instance; those the working set
            // already implies are dropped before the sort (the set only
            // grows, so they would be skipped at their turn anyway).
            fresh.clear();
            reach_end.for_each_in_diff(mask, empty_ev, |i1| {
                if i1 != j {
                    stats.instances += 1;
                    if !set.contains(i1) {
                        fresh.push(i1);
                    }
                }
            });
            // Latest predecessors first: firing (e_k, e_j) before
            // (e_i, e_j) lets e_k's absorbed set imply the earlier
            // pairs, keeping materialized edges near-linear on
            // equal-delay chains posted from one task.
            fresh.sort_by_key(|&i1| std::cmp::Reverse(ctx.topo_pos[ctx.event_begin[i1] as usize]));
            for &i1 in fresh.iter() {
                if set.contains(i1) {
                    continue; // implied by a conclusion fired above
                }
                let e_i1 = idx.table.events[i1];
                if !gate(e_i1, e_j) {
                    stats.gated += 1;
                    continue;
                }
                if g.add_edge(g.end(e_i1), begin_j, EdgeKind::Atomicity) {
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
                fresh.clear();
                reach.for_each_in_diff(mask, empty_send, |i| {
                    if i != sj {
                        stats.instances += 1;
                        let e1 = idx.table.dense(idx.sends[i].event);
                        if !e1.is_some_and(|d| set.contains(d as usize)) {
                            fresh.push(i);
                        }
                    }
                });
                // Same implied-first filter and latest-first ordering as
                // the atomicity loop.
                fresh.sort_by_key(|&i| {
                    idx.table
                        .dense(idx.sends[i].event)
                        .map(|d| {
                            std::cmp::Reverse(ctx.topo_pos[ctx.event_begin[d as usize] as usize])
                        })
                        .unwrap_or(std::cmp::Reverse(0))
                });
                for &i in fresh.iter() {
                    let s1 = &idx.sends[i];
                    if !(s1.front || s1.delay_ms <= s2.delay_ms) {
                        continue;
                    }
                    let i1 = idx.table.dense(s1.event).expect("sent tasks are events") as usize;
                    if set.contains(i1) {
                        continue; // implied by a conclusion fired above
                    }
                    if !gate(s1.event, idx.table.events[j]) {
                        stats.gated += 1;
                        continue;
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
    // s2 ≺ begin(e1) — the conclusion reverses (e2 runs first).
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
                if !gate(s2.event, s1.event) {
                    stats.gated += 1;
                    continue;
                }
                let rule = if s1.front { 4u8 } else { 2 };
                if g.add_edge(g.end(s2.event), begin_e1, EdgeKind::Queue(rule)) {
                    stats.queue_edges[if s1.front { 3 } else { 1 }] += 1;
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
        send_of_event,
    }
}

/// Runs the naive §3.3 fixpoint over `g`, adding every derived
/// `end(e₁) → begin(e₂)` edge in place. The demand engine answers
/// analysis queries; this loop is the reference the differential
/// suites compare it against, and the derived edges `cafa graph` draws.
/// Every round sweeps fresh reachability facts with three full `flow`
/// passes and re-tests **every** rule instance — all event pairs and
/// send-site pairs. It is [`derive_gated`] with a gate that admits
/// every conclusion.
///
/// # Errors
///
/// [`HbError::CyclicHappensBefore`] if the graph ever becomes cyclic
/// (an inconsistent trace), [`HbError::DerivationDiverged`] if the
/// fixpoint fails to converge within an internal round limit,
/// [`HbError::MalformedTrace`] if an event task has no queue.
#[doc(hidden)]
pub fn derive_naive(
    g: &mut SyncGraph,
    trace: &Trace,
    config: &CausalityConfig,
) -> Result<DerivationStats, HbError> {
    derive_gated(g, trace, config, |_, _| true)
}

/// The naive §3.3 fixpoint of [`derive_naive`], materializing a
/// conclusion `end(e₁) → begin(e₂)` only when `gate(e₁, e₂)` admits
/// it. The gate is asked after the already-implied check, so it sees
/// exactly the conclusions the ungated loop would add; a refusal adds
/// nothing to the working set, and those of the converged round count
/// in [`DerivationStats::gated`]. The atomicity rule and queue rules
/// 1/3 ask `(e₁, e_j)` for the earlier event and the anchor; rules 2/4
/// ask `(e₂, e₁)`, since their conclusion runs the front-sent event
/// first.
///
/// A gate that depends only on the pair (not on the graph) keeps every
/// rule monotone, so the loop still reaches the least fixpoint of the
/// gated rules, and that fixpoint is contained in the ungated one
/// (`docs/FIXPOINT.md`). `cafa-predict` gates on a shared variable.
///
/// On success `g` is acyclic (the last round began with a topological
/// sort and added nothing) and compacted, so searches of it read flat
/// adjacency rather than the overlay of added edges.
///
/// # Errors
///
/// As [`derive_naive`].
pub fn derive_gated(
    g: &mut SyncGraph,
    trace: &Trace,
    config: &CausalityConfig,
    gate: impl Fn(TaskId, TaskId) -> bool,
) -> Result<DerivationStats, HbError> {
    let table = EventTable::new(trace)?;
    let mut stats = DerivationStats::default();
    if !config.atomicity_rule && !config.queue_rules {
        g.topo_order().map_err(|nodes| HbError::cyclic(g, &nodes))?;
        g.compact();
        stats.rounds = 1;
        return Ok(stats);
    }

    let ev_count = table.len();
    let sends = collect_sends(g, trace);
    let mut queue_mask = vec![BitSet::new(ev_count); trace.queue_count()];
    for (i, &q) in table.queue_of.iter().enumerate() {
        queue_mask[q.index()].insert(i);
    }
    let mut queue_send_mask = vec![BitSet::new(sends.len()); trace.queue_count()];
    for (i, s) in sends.iter().enumerate() {
        queue_send_mask[s.queue.index()].insert(i);
    }
    let track_send = config.queue_rules && !sends.is_empty();
    let marks = call_marks(g, &table, &sends, track_send);
    let mut arena = RoundArena {
        evord: vec![BitSet::new(0); ev_count],
        fired_mask: BitSet::new(ev_count),
        delta_span: vec![(0, 0); ev_count],
        empty_ev: BitSet::new(ev_count),
        empty_send: BitSet::new(sends.len()),
        ..RoundArena::default()
    };
    let idx = RuleIndex {
        table: &table,
        queue_mask: &queue_mask,
        sends: &sends,
        queue_send_mask: &queue_send_mask,
    };

    let mut topo_pos: Vec<u32> = vec![0; g.node_count()];
    let mut event_order: Vec<u32> = (0..ev_count as u32).collect();
    let mut order_pos: Vec<u32> = vec![0; ev_count];
    let mut last_delta = (0usize, 0usize);

    loop {
        stats.rounds += 1;
        stats.gated = 0; // only the converged round's refusals count
        if stats.rounds > MAX_ROUNDS {
            let delta = &g.edge_log()[last_delta.0..last_delta.1];
            return Err(HbError::diverged(g, stats.rounds - 1, delta));
        }
        let topo = g.topo_order().map_err(|nodes| HbError::cyclic(g, &nodes))?;

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
            send_of_event: &marks.send_of_event,
            topo_pos: &topo_pos,
            order_pos: &order_pos,
        };
        let anchors = event_order.clone();
        let log_before = g.edge_log().len();
        run_round(
            g, &idx, &view, &ctx, &anchors, &mut arena, &mut stats, &gate,
        );
        let log_after = g.edge_log().len();
        if log_after == log_before {
            break;
        }
        last_delta = (log_before, log_after);
    }
    g.compact();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::base_graph;
    use cafa_trace::TraceBuilder;

    fn run(trace: &Trace) -> (SyncGraph, DerivationStats) {
        let config = CausalityConfig::cafa();
        let mut g = base_graph(trace, &config);
        let stats = derive_naive(&mut g, trace, &config).expect("derivation converges");
        (g, stats)
    }

    fn ordered(g: &SyncGraph, e1: TaskId, e2: TaskId) -> bool {
        let mut scratch = BitSet::new(g.node_count());
        g.reaches(g.end(e1), g.begin(e2), &mut scratch)
    }

    /// Figure 4b: two sends with equal delays from one thread.
    fn fig4b() -> (Trace, TaskId, TaskId) {
        let mut b = TraceBuilder::new("fig4b");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let a = b.post(t, q, "A", 1);
        let e = b.post(t, q, "B", 1);
        b.process_event(a);
        b.process_event(e);
        (b.finish().unwrap(), a, e)
    }

    /// Figure 4d: send(A) then sendAtFront(B) inside event C; returns
    /// (trace, C, A, B).
    fn fig4d() -> (Trace, TaskId, TaskId, TaskId) {
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
        (b.finish().unwrap(), c, a, front)
    }

    /// Queue rule 3: sendAtFront(A) then send(B, 50) from one thread.
    fn rule3() -> (Trace, TaskId, TaskId) {
        let mut b = TraceBuilder::new("rule3");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let front = b.post_front(t, q, "A");
        let e = b.post(t, q, "B", 50);
        b.process_event(front);
        b.process_event(e);
        (b.finish().unwrap(), front, e)
    }

    /// Queue rule 4: sendAtFront(A) then sendAtFront(B) inside event C;
    /// B jumped in front of A. Returns (trace, A, B).
    fn rule4() -> (Trace, TaskId, TaskId) {
        let mut b = TraceBuilder::new("rule4");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let c = b.post(t, q, "C", 0);
        b.process_event(c);
        let e1 = b.post_front(c, q, "A");
        let e2 = b.post_front(c, q, "B");
        b.process_event(e2);
        b.process_event(e1);
        (b.finish().unwrap(), e1, e2)
    }

    /// Figure 4a: A forks T; T registers a listener that B performs.
    fn fig4a() -> (Trace, TaskId, TaskId) {
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
        (b.finish().unwrap(), a, e)
    }

    /// Only fork, register and the derived rules act: no external rule.
    fn no_external() -> CausalityConfig {
        let mut config = CausalityConfig::cafa();
        config.external_rule = false;
        config
    }

    /// Figure 4b: two sends with equal delays from one thread → ordered.
    #[test]
    fn fig4b_equal_delay_sends_order_events() {
        let (trace, a, e) = fig4b();
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
        let (trace, c, a, front) = fig4d();
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
        let (trace, front, e) = rule3();
        let (g, stats) = run(&trace);
        assert!(ordered(&g, front, e));
        assert!(stats.queue_edges[2] >= 1, "rule 3 fired");
    }

    /// Queue rule 4: two front-sends inside one event on the target
    /// looper → the later front-send runs first.
    #[test]
    fn rule4_two_front_sends_within_event() {
        let (trace, e1, e2) = rule4();
        let (g, stats) = run(&trace);
        assert!(ordered(&g, e2, e1), "the later front-send runs first");
        assert!(!ordered(&g, e1, e2));
        assert!(stats.queue_edges[3] >= 1, "rule 4 fired");
    }

    /// Figure 4a: A forks T; T performs a listener registered before B
    /// is performed... the atomicity rule orders A before B.
    #[test]
    fn fig4a_atomicity_via_fork_and_listener() {
        let (trace, a, e) = fig4a();
        let config = no_external();
        let mut g = base_graph(&trace, &config);
        let stats = derive_naive(&mut g, &trace, &config).unwrap();
        assert!(ordered(&g, a, e), "atomicity lifts fork≺perform to A≺B");
        assert!(stats.atomicity_edges >= 1);
    }

    /// A gate that refuses every conclusion derives no edge on any rule
    /// family and counts each refusal. A gate that refuses only the
    /// pair's own conclusion leaves it unordered, so the gate is asked
    /// `(e₁, e₂)` for atomicity and rules 1/3, and `(B, A)` when rules
    /// 2/4 run the front-sent B first.
    #[test]
    fn refusing_gate_derives_nothing_and_counts_refusals() {
        let (t4a, a4a, b4a) = fig4a();
        let (t4b, a4b, b4b) = fig4b();
        let (t4d, _, a4d, b4d) = fig4d();
        let (t3, a3, b3) = rule3();
        let (t4, a4, b4) = rule4();
        let cases = [
            ("fig4a", t4a, no_external(), (a4a, b4a)),
            ("fig4b", t4b, CausalityConfig::cafa(), (a4b, b4b)),
            ("fig4d", t4d, CausalityConfig::cafa(), (b4d, a4d)),
            ("rule3", t3, CausalityConfig::cafa(), (a3, b3)),
            ("rule4", t4, CausalityConfig::cafa(), (b4, a4)),
        ];
        for (name, trace, config, (first, then)) in cases {
            let mut g = base_graph(&trace, &config);
            let base_edges = g.edge_log().len();
            let asked = std::cell::Cell::new(0u64);
            let stats = derive_gated(&mut g, &trace, &config, |_, _| {
                asked.set(asked.get() + 1);
                false
            })
            .unwrap();
            assert_eq!(g.edge_log().len(), base_edges, "{name}: no edge derived");
            assert_eq!(stats.derived_edges(), 0, "{name}");
            assert!(stats.gated >= 1, "{name}: refusals are counted");
            assert_eq!(stats.gated, asked.get(), "{name}");

            let mut g = base_graph(&trace, &config);
            let stats =
                derive_gated(&mut g, &trace, &config, |e1, e2| (e1, e2) != (first, then)).unwrap();
            assert!(stats.gated >= 1, "{name}");
            assert!(!ordered(&g, first, then), "{name}: asked (earlier, later)");
        }
    }

    /// Two equal-delay sends order A ≺ B (rule 1). B sends C; then
    /// atomicity and rule 1 chain C after A transitively. Returns
    /// (trace, A, B, C).
    fn cascade() -> (Trace, TaskId, TaskId, TaskId) {
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
        (b.finish().unwrap(), a, e, c)
    }

    /// Derivations cascade across rounds: a queue-rule edge enables an
    /// atomicity edge for another pair.
    #[test]
    fn fixpoint_needs_multiple_rounds() {
        let (trace, a, e, c) = cascade();
        let (g, stats) = run(&trace);
        assert!(ordered(&g, a, e));
        assert!(ordered(&g, e, c));
        assert!(ordered(&g, a, c));
        assert!(stats.rounds >= 2);
    }

    /// `gated` counts the refusals of the converged round only, so it
    /// is a property of the gated fixpoint: rerunning the loop on the
    /// graph it returned adds nothing, converges in one round and
    /// counts the same refusals, although the first run took two.
    #[test]
    fn gated_counts_the_converged_round() {
        let (trace, _, e, c) = cascade();
        let config = CausalityConfig::cafa();
        let gate = |e1: TaskId, e2: TaskId| (e1, e2) != (e, c);
        let mut g = base_graph(&trace, &config);
        let first = derive_gated(&mut g, &trace, &config, gate).unwrap();
        assert_eq!(first.rounds, 2);
        assert!(first.derived_edges() >= 1);
        assert!(first.gated >= 1, "the gate refused B ≺ C");
        assert!(!ordered(&g, e, c));

        let edges = g.edge_log().len();
        let again = derive_gated(&mut g, &trace, &config, gate).unwrap();
        assert_eq!(g.edge_log().len(), edges, "a fixpoint derives nothing");
        assert_eq!(again.rounds, 1);
        assert_eq!(again.derived_edges(), 0);
        assert_eq!(again.gated, first.gated);
    }

    /// An empty trace derives nothing and converges immediately.
    #[test]
    fn empty_trace_converges() {
        let trace = TraceBuilder::new("empty").finish().unwrap();
        let (_, stats) = run(&trace);
        assert_eq!(stats.derived_edges(), 0);
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
            derive_naive(&mut g, &trace, &config),
            Err(HbError::MalformedTrace { .. })
        ));
    }
}
