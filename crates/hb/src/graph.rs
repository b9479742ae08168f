//! The synchronization graph: the operation-level happens-before DAG.
//!
//! Nodes are the *synchronization points* of a trace — each task's
//! virtual `begin`/`end` plus every Figure 3 record — chained in program
//! order. Cross-task edges carry the causality rules of §3.3. Data
//! records (reads, writes, uses, frees, guards) are not nodes; a data
//! record's position is bracketed between the nearest sync nodes of its
//! task ([`SyncGraph::bracket_after`] / [`SyncGraph::bracket_before`]),
//! which is exact because program order within a task is total.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

use cafa_trace::{OpRef, TaskId, Trace};

use crate::bitset::BitSet;

/// Index of a node in a [`SyncGraph`].
pub type NodeId = u32;

/// Multiplicative hasher for the dense packed edge keys. Edge dedup is
/// one hash-set insert per edge, so on million-edge graphs the default
/// SipHash dominates construction time; edge keys are attacker-free
/// internal indices and only ever hashed as a single `u64`.
#[derive(Default)]
struct EdgeHasher(u64);

impl std::hash::Hasher for EdgeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("edge keys hash as one u64");
    }

    fn write_u64(&mut self, key: u64) {
        // Fibonacci multiply + fold: spreads the low node bits into the
        // high bits hashbrown picks its control bytes from.
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
    }
}

/// Packs an edge into the `u64` key the dedup set stores.
fn edge_key(from: NodeId, to: NodeId) -> u64 {
    (u64::from(from) << 32) | u64::from(to)
}

/// Where a node sits within its task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodePoint {
    /// The task's virtual `begin(t)` (before every record).
    Begin,
    /// The sync record at this index of the task body.
    Record(u32),
    /// The task's virtual `end(t)` (after every record).
    End,
}

/// Metadata for one sync node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeInfo {
    /// The task the node belongs to.
    pub task: TaskId,
    /// Position within the task.
    pub point: NodePoint,
}

/// Why an edge exists. Used for diagnostics and derivation statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Program order within one task.
    Program,
    /// `fork(t, u) ≺ begin(u)`.
    Fork,
    /// `end(u) ≺ join(t, u)`.
    Join,
    /// `notify(t₁, m) ≺ wait(t₂, m)` (same generation).
    NotifyWait,
    /// `send/sendAtFront(t, e) ≺ begin(e)`.
    Send,
    /// `register(t, l) ≺ perform(e, l)`.
    Register,
    /// Binder causality: `rpcCall ≺ rpcHandle`, `rpcReply ≺ rpcReceive`.
    Rpc,
    /// External-input rule: consecutive external events are ordered.
    External,
    /// Conventional-baseline total order of events on one looper.
    TotalOrder,
    /// Unlock→lock order (off in both CAFA and the paper's baseline;
    /// used by the FastTrack-style ablation).
    LockOrder,
    /// Derived by the atomicity rule.
    Atomicity,
    /// Derived by event-queue rule *n* (1–4).
    Queue(u8),
}

/// Compressed-sparse-row adjacency over a frozen prefix of the edge
/// log. Million-node graphs cannot afford one heap block per node: on
/// the fleet-scale tiers the per-node `Vec` representation cost more in
/// page faults than the whole analysis, so batch construction compacts
/// the log into two flat arrays per direction instead.
#[derive(Clone, Debug)]
struct CsrAdj {
    succ_off: Vec<u32>,
    succ: Vec<(NodeId, EdgeKind)>,
    pred_off: Vec<u32>,
    pred: Vec<NodeId>,
}

/// The operation-level happens-before graph of one trace.
#[derive(Clone, Debug)]
pub struct SyncGraph {
    nodes: Vec<NodeInfo>,
    /// Per task: `(record_index, node)` pairs sorted by index.
    record_nodes: Vec<Vec<(u32, NodeId)>>,
    begin_nodes: Vec<NodeId>,
    end_nodes: Vec<NodeId>,
    /// Flat adjacency for every edge logged before the last
    /// [`compact`](SyncGraph::compact); `None` while a batch
    /// construction is still appending (deferred mode — the log is the
    /// only record and per-node queries are not served yet).
    csr: Option<CsrAdj>,
    /// Sparse adjacency overlay for edges added after compaction (the
    /// naive derivation's). Keyed by source (`over_succ`) or target
    /// (`over_pred`) node.
    over_succ: HashMap<NodeId, Vec<(NodeId, EdgeKind)>>,
    over_pred: HashMap<NodeId, Vec<NodeId>>,
    edge_set: HashSet<u64, BuildHasherDefault<EdgeHasher>>,
    edge_kind_counts: Vec<(EdgeKind, usize)>,
    /// Chronological log of every edge ever added (the dedup in
    /// [`SyncGraph::add_edge`] guarantees each appears once).
    edge_log: Vec<(NodeId, NodeId, EdgeKind)>,
}

impl SyncGraph {
    /// Builds the node set and program-order chains for `trace`. No
    /// cross-task edges are added; see `cafa_hb::build` for those.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut g = Self::from_trace_deferred(trace);
        g.compact();
        g
    }

    /// [`from_trace`](SyncGraph::from_trace) without the final
    /// compaction — for batch callers (`cafa_hb::build`) that append
    /// cross-task edges next and compact once at the end.
    pub(crate) fn from_trace_deferred(trace: &Trace) -> Self {
        let task_count = trace.task_count();
        let mut g = SyncGraph {
            nodes: Vec::new(),
            record_nodes: vec![Vec::new(); task_count],
            begin_nodes: Vec::with_capacity(task_count),
            end_nodes: Vec::with_capacity(task_count),
            csr: None,
            over_succ: HashMap::new(),
            over_pred: HashMap::new(),
            edge_set: HashSet::default(),
            edge_kind_counts: Vec::new(),
            edge_log: Vec::new(),
        };
        for info in trace.tasks() {
            let task = info.id;
            let begin = g.push_node(NodeInfo {
                task,
                point: NodePoint::Begin,
            });
            g.begin_nodes.push(begin);
            let mut prev = begin;
            for (i, r) in trace.body(task).iter().enumerate() {
                if r.is_sync() {
                    let n = g.push_node(NodeInfo {
                        task,
                        point: NodePoint::Record(i as u32),
                    });
                    g.record_nodes[task.index()].push((i as u32, n));
                    g.add_edge(prev, n, EdgeKind::Program);
                    prev = n;
                }
            }
            let end = g.push_node(NodeInfo {
                task,
                point: NodePoint::End,
            });
            g.end_nodes.push(end);
            g.add_edge(prev, end, EdgeKind::Program);
        }
        g
    }

    fn push_node(&mut self, info: NodeInfo) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(info);
        id
    }

    /// Adds an edge if absent; returns true if newly added.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) -> bool {
        if from == to || !self.edge_set.insert(edge_key(from, to)) {
            return false;
        }
        if self.csr.is_some() {
            self.over_succ.entry(from).or_default().push((to, kind));
            self.over_pred.entry(to).or_default().push(from);
        }
        self.edge_log.push((from, to, kind));
        match self.edge_kind_counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => self.edge_kind_counts.push((kind, 1)),
        }
        true
    }

    /// Rebuilds the flat CSR adjacency from the full edge log and
    /// clears the overlay. Two counting passes over the log — no
    /// per-node allocation.
    pub(crate) fn compact(&mut self) {
        let n = self.nodes.len();
        let m = self.edge_log.len();
        let mut succ_off = vec![0u32; n + 1];
        let mut pred_off = vec![0u32; n + 1];
        for &(from, to, _) in &self.edge_log {
            succ_off[from as usize + 1] += 1;
            pred_off[to as usize + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }
        let mut succ = vec![(0 as NodeId, EdgeKind::Program); m];
        let mut pred = vec![0 as NodeId; m];
        let mut succ_cur = succ_off.clone();
        let mut pred_cur = pred_off.clone();
        for &(from, to, kind) in &self.edge_log {
            let s = &mut succ_cur[from as usize];
            succ[*s as usize] = (to, kind);
            *s += 1;
            let p = &mut pred_cur[to as usize];
            pred[*p as usize] = from;
            *p += 1;
        }
        self.csr = Some(CsrAdj {
            succ_off,
            succ,
            pred_off,
            pred,
        });
        self.over_succ.clear();
        self.over_pred.clear();
    }

    /// The compacted successor slice of `n`.
    pub(crate) fn csr_succs(&self, n: NodeId) -> &[(NodeId, EdgeKind)] {
        let Some(c) = &self.csr else {
            panic!("adjacency queried on a deferred graph (missing compact())");
        };
        let i = n as usize;
        &c.succ[c.succ_off[i] as usize..c.succ_off[i + 1] as usize]
    }

    /// The compacted predecessor slice of `n`.
    pub(crate) fn csr_preds(&self, n: NodeId) -> &[NodeId] {
        let Some(c) = &self.csr else {
            panic!("adjacency queried on a deferred graph (missing compact())");
        };
        let i = n as usize;
        &c.pred[c.pred_off[i] as usize..c.pred_off[i + 1] as usize]
    }

    /// Per-node in-degree, read off the compacted CSR offsets.
    pub(crate) fn in_degrees(&self) -> Vec<u32> {
        let Some(c) = &self.csr else {
            panic!("adjacency queried on a deferred graph (missing compact())");
        };
        c.pred_off.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The chronological edge log: every edge of the graph, in the
    /// order it was added. `edge_log()[k..]` is exactly the set of
    /// edges added since the log was `k` entries long: a naive round's
    /// delta.
    pub fn edge_log(&self) -> &[(NodeId, NodeId, EdgeKind)] {
        &self.edge_log
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_set.len()
    }

    /// Per-kind edge counts, for derivation statistics.
    pub fn edge_kind_counts(&self) -> &[(EdgeKind, usize)] {
        &self.edge_kind_counts
    }

    /// Metadata of node `n`.
    pub fn node(&self, n: NodeId) -> NodeInfo {
        self.nodes[n as usize]
    }

    /// The `begin(t)` node.
    pub fn begin(&self, task: TaskId) -> NodeId {
        self.begin_nodes[task.index()]
    }

    /// The `end(t)` node.
    pub fn end(&self, task: TaskId) -> NodeId {
        self.end_nodes[task.index()]
    }

    /// The node of the sync record at `at`, or `None` if the record
    /// there is not a sync record.
    pub fn node_of(&self, at: OpRef) -> Option<NodeId> {
        let list = &self.record_nodes[at.task.index()];
        list.binary_search_by_key(&at.index, |&(i, _)| i)
            .ok()
            .map(|pos| list[pos].1)
    }

    /// The earliest sync node that happens-at-or-after the record at
    /// `at`: the record's own node if it is a sync record, otherwise the
    /// next sync node of the task (or `end(t)`).
    ///
    /// Everything reachable from this node happens after `at`.
    pub fn bracket_after(&self, at: OpRef) -> NodeId {
        let list = &self.record_nodes[at.task.index()];
        match list.binary_search_by_key(&at.index, |&(i, _)| i) {
            Ok(pos) => list[pos].1,
            Err(pos) => list.get(pos).map_or(self.end(at.task), |&(_, n)| n),
        }
    }

    /// The latest sync node that happens-at-or-before the record at
    /// `at`: the record's own node if it is a sync record, otherwise the
    /// previous sync node of the task (or `begin(t)`).
    ///
    /// Everything that reaches this node happens before `at`.
    pub fn bracket_before(&self, at: OpRef) -> NodeId {
        let list = &self.record_nodes[at.task.index()];
        match list.binary_search_by_key(&at.index, |&(i, _)| i) {
            Ok(pos) => list[pos].1,
            Err(0) => self.begin(at.task),
            Err(pos) => list[pos - 1].1,
        }
    }

    /// Successors of `n`, with the kind of the connecting edge:
    /// the compacted CSR slice followed by any overlay edges added
    /// since the last compaction (chronological within each part).
    pub fn succs(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeKind)> + '_ {
        let over = self.over_succ.get(&n).map_or(&[][..], Vec::as_slice);
        self.csr_succs(n).iter().chain(over).copied()
    }

    /// Predecessors of `n` (CSR slice, then overlay).
    pub fn preds(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let over = self.over_pred.get(&n).map_or(&[][..], Vec::as_slice);
        self.csr_preds(n).iter().chain(over).copied()
    }

    /// All nodes in a topological order, or `Err` with the nodes of some
    /// cycle if the graph is cyclic (which indicates an inconsistent
    /// trace — the happens-before relation of a real execution is
    /// acyclic).
    pub fn topo_order(&self) -> Result<Vec<NodeId>, Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indegree: Vec<u32> = vec![0; n];
        for &(_, to, _) in &self.edge_log {
            indegree[to as usize] += 1;
        }
        let mut stack: Vec<NodeId> = (0..n as NodeId)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(node) = stack.pop() {
            order.push(node);
            for (s, _) in self.succs(node) {
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    stack.push(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err((0..n as NodeId)
                .filter(|&i| indegree[i as usize] > 0)
                .collect())
        }
    }

    /// Depth-first reachability: is there a non-empty path `from → to`?
    ///
    /// `scratch` must be a [`BitSet`] of capacity [`node_count`]
    /// (cleared by this function), letting callers amortize the
    /// allocation across queries.
    ///
    /// [`node_count`]: SyncGraph::node_count
    pub fn reaches(&self, from: NodeId, to: NodeId, scratch: &mut BitSet) -> bool {
        scratch.clear();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            for (s, _) in self.succs(n) {
                if s == to {
                    return true;
                }
                if scratch.insert(s as usize) {
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Finds a shortest edge path `from → to`, returning the traversed
    /// `(source, kind, destination)` steps, or `None` if unreachable.
    /// Used to *explain* a derived ordering.
    pub fn find_path(&self, from: NodeId, to: NodeId) -> Option<Vec<(NodeId, EdgeKind, NodeId)>> {
        use std::collections::VecDeque;
        if from == to {
            return Some(Vec::new());
        }
        let mut parent: Vec<Option<(NodeId, EdgeKind)>> = vec![None; self.nodes.len()];
        let mut queue = VecDeque::from([from]);
        let mut seen = BitSet::new(self.nodes.len());
        seen.insert(from as usize);
        while let Some(n) = queue.pop_front() {
            for (s, kind) in self.succs(n) {
                if !seen.insert(s as usize) {
                    continue;
                }
                parent[s as usize] = Some((n, kind));
                if s == to {
                    let mut path = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (p, k) = parent[cur as usize].expect("parent chain");
                        path.push((p, k, cur));
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(s);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafa_trace::{TraceBuilder, VarId};

    fn two_task_trace() -> (Trace, TaskId, TaskId) {
        let mut b = TraceBuilder::new("g");
        let p = b.add_process();
        let main = b.add_thread(p, "main");
        b.read(main, VarId::new(0)); // idx 0, data
        let child = b.fork(main, p, "w"); // idx 1, sync
        b.write(main, VarId::new(0)); // idx 2, data
        b.join(main, child); // idx 3, sync
        b.read(child, VarId::new(1)); // child idx 0, data
        let t = b.finish().unwrap();
        (t, main, child)
    }

    #[test]
    fn nodes_and_chains() {
        let (t, main, child) = two_task_trace();
        let g = SyncGraph::from_trace(&t);
        // main: begin, fork, join, end = 4; child: begin, end = 2.
        assert_eq!(g.node_count(), 6);
        // chain edges: main 3, child 1.
        assert_eq!(g.edge_count(), 4);
        assert_ne!(g.begin(main), g.end(main));
        assert_eq!(g.node(g.begin(child)).task, child);
        assert_eq!(g.node(g.begin(child)).point, NodePoint::Begin);
    }

    #[test]
    fn brackets() {
        let (t, main, _child) = two_task_trace();
        let g = SyncGraph::from_trace(&t);
        let fork_node = g.node_of(OpRef::new(main, 1)).unwrap();
        let join_node = g.node_of(OpRef::new(main, 3)).unwrap();
        assert_eq!(g.node_of(OpRef::new(main, 0)), None); // data record

        // Data record at idx 0: after-bracket = fork, before-bracket = begin.
        assert_eq!(g.bracket_after(OpRef::new(main, 0)), fork_node);
        assert_eq!(g.bracket_before(OpRef::new(main, 0)), g.begin(main));
        // Data record at idx 2: between fork and join.
        assert_eq!(g.bracket_after(OpRef::new(main, 2)), join_node);
        assert_eq!(g.bracket_before(OpRef::new(main, 2)), fork_node);
        // Sync records bracket to themselves.
        assert_eq!(g.bracket_after(OpRef::new(main, 1)), fork_node);
        assert_eq!(g.bracket_before(OpRef::new(main, 3)), join_node);
        // Past the last sync record.
        assert_eq!(g.bracket_after(OpRef::new(main, 4)), g.end(main));
    }

    #[test]
    fn add_edge_dedups_and_counts() {
        let (t, main, child) = two_task_trace();
        let mut g = SyncGraph::from_trace(&t);
        let f = g.node_of(OpRef::new(main, 1)).unwrap();
        let cb = g.begin(child);
        assert!(g.add_edge(f, cb, EdgeKind::Fork));
        assert!(!g.add_edge(f, cb, EdgeKind::Fork));
        assert!(!g.add_edge(f, f, EdgeKind::Fork));
        let forks: usize = g
            .edge_kind_counts()
            .iter()
            .filter(|(k, _)| *k == EdgeKind::Fork)
            .map(|(_, n)| *n)
            .sum();
        assert_eq!(forks, 1);
    }

    #[test]
    fn reachability_and_topo() {
        let (t, main, child) = two_task_trace();
        let mut g = SyncGraph::from_trace(&t);
        let f = g.node_of(OpRef::new(main, 1)).unwrap();
        let j = g.node_of(OpRef::new(main, 3)).unwrap();
        g.add_edge(f, g.begin(child), EdgeKind::Fork);
        g.add_edge(g.end(child), j, EdgeKind::Join);

        let mut scratch = BitSet::new(g.node_count());
        assert!(g.reaches(g.begin(main), g.end(child), &mut scratch));
        assert!(g.reaches(f, j, &mut scratch)); // via child
        assert!(!g.reaches(g.end(main), g.begin(main), &mut scratch));
        assert!(!g.reaches(g.begin(child), f, &mut scratch));

        let topo = g.topo_order().expect("acyclic");
        assert_eq!(topo.len(), g.node_count());
        let pos: std::collections::HashMap<NodeId, usize> =
            topo.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        assert!(pos[&f] < pos[&g.begin(child)]);
        assert!(pos[&g.end(child)] < pos[&j]);
    }

    #[test]
    fn reaches_on_trivial_single_task_graph() {
        let mut b = TraceBuilder::new("one");
        let p = b.add_process();
        let main = b.add_thread(p, "main");
        b.read(main, VarId::new(0));
        let t = b.finish().unwrap();
        let g = SyncGraph::from_trace(&t);
        // A lone task with no sync records: just begin and end.
        assert_eq!(g.node_count(), 2);
        let mut scratch = BitSet::new(g.node_count());
        assert!(g.reaches(g.begin(main), g.end(main), &mut scratch));
        // Reachability means a non-empty path; on an acyclic graph no
        // node reaches itself.
        assert!(!g.reaches(g.begin(main), g.begin(main), &mut scratch));
        assert!(!g.reaches(g.end(main), g.end(main), &mut scratch));
        assert!(!g.reaches(g.end(main), g.begin(main), &mut scratch));
    }

    #[test]
    fn reaches_terminates_and_answers_on_cyclic_input() {
        let (t, main, child) = two_task_trace();
        let mut g = SyncGraph::from_trace(&t);
        let f = g.node_of(OpRef::new(main, 1)).unwrap();
        g.add_edge(f, g.begin(child), EdgeKind::Fork);
        g.add_edge(g.end(child), f, EdgeKind::Join); // bogus back edge
        let mut scratch = BitSet::new(g.node_count());
        // The DFS terminates on the cycle and sees paths around it.
        assert!(g.reaches(f, f, &mut scratch));
        assert!(g.reaches(g.begin(child), f, &mut scratch));
        assert!(g.reaches(g.begin(main), g.end(child), &mut scratch));
        // Nodes upstream of the cycle stay unreachable from it.
        assert!(!g.reaches(f, g.begin(main), &mut scratch));
    }

    #[test]
    fn cycle_is_reported() {
        let (t, main, child) = two_task_trace();
        let mut g = SyncGraph::from_trace(&t);
        let f = g.node_of(OpRef::new(main, 1)).unwrap();
        g.add_edge(f, g.begin(child), EdgeKind::Fork);
        g.add_edge(g.end(child), f, EdgeKind::Join); // bogus: makes a cycle
        let cyc = g.topo_order().unwrap_err();
        assert!(!cyc.is_empty());
    }
}
