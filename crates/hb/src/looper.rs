//! Each looper's processing order, as implicit edges.
//!
//! The conventional baseline orders every looper's events by processing
//! order (`QueueInfo::events`), and the demand engine's cycle guard
//! checks derived edges against that same order. Neither materializes
//! it: both read it as implicit `end(e) → begin(e')` edges between
//! consecutive events of one looper, through [`topo_sweep`].

use cafa_trace::{TaskId, Trace};

use crate::graph::{EdgeKind, EdgeKinds, NodeId, SyncGraph};
use crate::rules::EventTable;

/// Each looper's processing order over the nodes of a graph.
#[derive(Debug)]
pub(crate) struct LooperOrder {
    /// Per dense event: its position in its looper's processing order.
    pub(crate) pos: Vec<u32>,
    /// Per node: when it ends an event that its looper processed
    /// another after, that event's `begin`; `NodeId::MAX` otherwise.
    next_begin: Vec<NodeId>,
}

impl LooperOrder {
    /// The processing order of `trace`'s loopers, over the dense
    /// events of `table` and the nodes of `graph`.
    ///
    /// # Errors
    ///
    /// The first task that breaks the shape every validated trace has,
    /// each event listed once, on its own queue: a listed task that is
    /// not an unlisted event of that queue, or an event never listed.
    pub(crate) fn new(
        graph: &SyncGraph,
        trace: &Trace,
        table: &EventTable,
    ) -> Result<Self, TaskId> {
        let mut pos = vec![u32::MAX; table.len()];
        let mut next_begin = vec![NodeId::MAX; graph.node_count()];
        for (qid, q) in trace.queues() {
            let mut prev_end = NodeId::MAX;
            for (k, &e) in q.events.iter().enumerate() {
                let j = table
                    .dense(e)
                    .filter(|&j| table.queue_of[j as usize] == qid && pos[j as usize] == u32::MAX)
                    .ok_or(e)?;
                pos[j as usize] = k as u32;
                if prev_end != NodeId::MAX {
                    next_begin[prev_end as usize] = graph.begin(e);
                }
                prev_end = graph.end(e);
            }
        }
        if let Some(j) = pos.iter().position(|&p| p == u32::MAX) {
            return Err(table.events[j]);
        }
        Ok(Self { pos, next_begin })
    }
}

/// Kahn's pass over `graph`'s compacted edges (only those of `kinds`,
/// when given) plus `looper`'s implicit edges, calling `visit` on each
/// node in a topological order. Successors are pushed backwards and the
/// implicit edge last, so the next node of a chain pops next and the
/// sweep walks along chains.
///
/// # Errors
///
/// The nodes left with unsatisfied in-edges when the union is cyclic,
/// the same set [`SyncGraph::topo_order`] reports for the graph alone.
pub(crate) fn topo_sweep(
    graph: &SyncGraph,
    kinds: Option<EdgeKinds>,
    looper: Option<&LooperOrder>,
    mut visit: impl FnMut(NodeId),
) -> Result<(), Vec<NodeId>> {
    let n = graph.node_count() as NodeId;
    let reads = |kind: EdgeKind| kinds.map_or(true, |kinds| kinds.contains(kind));
    let mut indegree = graph.in_degrees();
    if kinds.is_some() {
        for &(s, kind) in graph.csr_all_succs() {
            if !reads(kind) {
                indegree[s as usize] -= 1;
            }
        }
    }
    let chain = looper.map_or(&[][..], |order| &order.next_begin[..]);
    for &s in chain.iter().filter(|&&s| s != NodeId::MAX) {
        indegree[s as usize] += 1;
    }
    let mut stack: Vec<NodeId> = (0..n).filter(|&v| indegree[v as usize] == 0).collect();
    let mut swept = 0;
    while let Some(v) = stack.pop() {
        swept += 1;
        visit(v);
        let succs = graph.csr_succs(v).iter().rev();
        let succs = succs.filter(|&&(_, kind)| reads(kind)).map(|&(s, _)| s);
        let chained = chain.get(v as usize).filter(|&&s| s != NodeId::MAX);
        for s in succs.chain(chained.copied()) {
            indegree[s as usize] -= 1;
            if indegree[s as usize] == 0 {
                stack.push(s);
            }
        }
    }
    if swept == n {
        return Ok(());
    }
    Err((0..n).filter(|&v| indegree[v as usize] > 0).collect())
}
