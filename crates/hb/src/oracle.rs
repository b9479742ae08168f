//! An indexed, parallel happens-before reachability oracle.
//!
//! [`Graph::reaches`](crate::SyncGraph::reaches) answers one query with
//! a DFS over the whole sync graph. The detector asks that question for
//! every candidate pair, so query volume grows with trace length while
//! each answer re-walks the same edges. [`ReachOracle`] replaces the
//! walk with an index exploiting the structure CAFA graphs always have:
//! every task is a *chain* (a total program order `begin → r₁ → … → rₘ
//! → end`), and cross-task edges are comparatively sparse.
//!
//! # Index layout
//!
//! Each node gets a `(chain, position)` coordinate: the chain is its
//! task, the position is `0` for `begin(t)`, `i + 1` for the sync
//! record at body index `i`, and a `u32::MAX` sentinel for `end(t)`
//! (ends sort after every record, and in a streaming skeleton the end
//! node is created before the chain length is known). `linked_until[c]`
//! is the last position wired into chain `c`'s program order —
//! `u32::MAX` once the chain is sealed — so "walk down the chain from
//! position *p*" is the interval test `p ≤ linked_until[c]`.
//!
//! Cross-chain reachability reduces to *where a path can enter the
//! target chain*:
//!
//! * a **begin matrix** — one bit per `(node, chain)` pair recording
//!   whether the node reaches `begin(chain)` by a non-empty path. Almost
//!   every cross edge (fork, send, external, total-order, atomicity,
//!   queue) targets a begin node, so for most chains this single bit is
//!   the complete answer;
//! * **mid-entry rows** — for the few chains some cross edge enters at a
//!   record (join, notify/wait, register/perform, RPC), a dense `u32`
//!   row holding, per node, the earliest position of that chain the node
//!   reaches. Measured on the catalog apps, fewer than a dozen of
//!   thousands of chains need a row;
//! * **end rows** — for chains whose `end(t)` node has a non-program
//!   in-edge (no §3.3 rule produces one, but [`SyncGraph::add_edge`]
//!   callers can), a dense bit row holding the full "reaches `end(t)`"
//!   answer per node, since such an end is reachable without walking
//!   the chain's program order at all.
//!
//! The structures close over transitivity in one reverse-topological
//! sweep, so [`reaches`](ReachOracle::reaches) is a constant number of
//! array lookups. The begin matrix is sharded into fixed-width column
//! blocks built in parallel by [`std::thread::scope`] workers; block
//! geometry is independent of the worker count, so the index content is
//! bit-identical at any `--threads` setting.

use crate::graph::{EdgeKind, NodeId, NodePoint, SyncGraph};

/// Chain-column words per begin-matrix block. Fixed (not derived from
/// the worker count) so the index layout is thread-count-independent;
/// 4 words = 256 chains per block keeps per-block work well above
/// thread-dispatch cost without starving small worker pools.
const BLOCK_WORDS: usize = 4;

/// Position sentinel for `end(t)` nodes: after every record position.
const END_POS: u32 = u32::MAX;

/// Mid-entry sentinel: no row stored for this chain.
const NO_ROW: u32 = u32::MAX;

/// Resolves a requested thread count: `0` means "auto" — the
/// `CAFA_THREADS` environment variable if set to a positive integer,
/// otherwise the machine's available parallelism.
///
/// This is **the** worker-count precedence order for every analysis
/// pool — the reachability index build, the candidate pass, the
/// island-partition fan-out, and the per-app pools of `cafa gen
/// --format counts` and `cafa validate`:
///
/// 1. an explicit request (`--threads N` with N > 0, or a config's
///    `threads` field);
/// 2. `CAFA_THREADS` (positive integer);
/// 3. the machine's available parallelism.
///
/// (`CAFA_FLEET_THREADS` is separate: it only steers
/// `cafa_engine::fleet::default_threads`, the bench harnesses' own
/// default, and is not consulted here.) Reports are byte-identical at
/// any resolved count; the setting trades wall time only.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("CAFA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A constant-time happens-before reachability index over a
/// [`SyncGraph`]; see the [module docs](self) for the layout.
///
/// Answers exactly what [`SyncGraph::reaches`] answers (non-empty-path
/// reachability) on the graph it was built from. The graph must be
/// acyclic — [`build`](ReachOracle::build) reports the offending nodes
/// otherwise.
#[derive(Clone, Debug)]
pub struct ReachOracle {
    /// Per node: owning chain (task index).
    chain: Vec<u32>,
    /// Per node: position within its chain.
    pos: Vec<u32>,
    /// Per chain: last program-order-linked position (`END_POS` once
    /// sealed).
    linked_until: Vec<u32>,
    /// `u64` words per begin-matrix row (`⌈chains / 64⌉`).
    words_per_row: usize,
    /// Begin matrix in column blocks: block `b` holds words
    /// `[b·BLOCK_WORDS, …)` of every node's row, row-major.
    blocks: Vec<Vec<u64>>,
    /// Per chain: index into `mid_rows`, or `NO_ROW`.
    mid_index: Vec<u32>,
    /// Earliest-reachable-position rows for mid-entry chains.
    mid_rows: Vec<Vec<u32>>,
    /// Per chain: index into `end_rows`, or `NO_ROW`.
    end_index: Vec<u32>,
    /// Full "reaches end(chain)" bit rows (one bit per node) for chains
    /// whose end node has a non-program in-edge.
    end_rows: Vec<Vec<u64>>,
    /// Nodes covered by the index.
    nodes: usize,
}

/// Runs `f(global_index, item)` over `items`, split contiguously across
/// at most `workers` scoped threads. With one worker (or one item) runs
/// inline. The partition affects scheduling only — each item's result
/// is a pure function of the item, so output is worker-count-invariant.
fn for_each_partitioned<T, F>(items: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let per = items.len().div_ceil(workers.min(items.len()));
    std::thread::scope(|scope| {
        for (ci, chunk) in items.chunks_mut(per).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (off, item) in chunk.iter_mut().enumerate() {
                    f(ci * per + off, item);
                }
            });
        }
    });
}

impl ReachOracle {
    /// Builds the index for `graph`, computing a topological order
    /// first.
    ///
    /// # Errors
    ///
    /// Returns the nodes participating in cycles if the graph is
    /// cyclic, exactly as [`SyncGraph::topo_order`] reports them.
    pub fn build(graph: &SyncGraph, threads: usize) -> Result<Self, Vec<NodeId>> {
        let topo = graph.topo_order()?;
        let v = graph.node_count();
        let workers = resolve_threads(threads);

        // Coordinates.
        let mut chain = vec![0u32; v];
        let mut pos = vec![0u32; v];
        let mut chains = 0usize;
        for n in 0..v {
            let info = graph.node(n as NodeId);
            let c = info.task.index();
            chains = chains.max(c + 1);
            chain[n] = c as u32;
            pos[n] = match info.point {
                NodePoint::Begin => 0,
                NodePoint::Record(i) => i + 1,
                NodePoint::End => END_POS,
            };
        }

        let mut end_node = vec![0 as NodeId; chains];
        let mut linked_until = vec![0u32; chains];
        for n in 0..v {
            let c = chain[n] as usize;
            if pos[n] == END_POS {
                end_node[c] = n as NodeId;
            } else if pos[n] > linked_until[c] {
                linked_until[c] = pos[n];
            }
        }
        // One scan over all edges classifies every chain: sealed (the
        // program tail → end edge exists), mid-entry (a cross edge lands
        // on a record), end-entry (a non-program edge lands on the end).
        let mut mid_index = vec![NO_ROW; chains];
        let mut mid_chains: Vec<u32> = Vec::new();
        let mut end_index = vec![NO_ROW; chains];
        let mut end_chains: Vec<u32> = Vec::new();
        for u in 0..v {
            for (s, kind) in graph.succs(u as NodeId) {
                let s = s as usize;
                let c = chain[s];
                if pos[s] == END_POS {
                    if kind == EdgeKind::Program && chain[u] == c {
                        linked_until[c as usize] = END_POS;
                    } else if end_index[c as usize] == NO_ROW {
                        end_index[c as usize] = end_chains.len() as u32;
                        end_chains.push(c);
                    }
                } else if chain[u] != c && pos[s] >= 1 && mid_index[c as usize] == NO_ROW {
                    mid_index[c as usize] = mid_chains.len() as u32;
                    mid_chains.push(c);
                }
            }
        }

        // Begin matrix, built per column block in parallel.
        let words_per_row = chains.div_ceil(64);
        let block_count = words_per_row.div_ceil(BLOCK_WORDS);
        let mut blocks: Vec<Vec<u64>> = (0..block_count)
            .map(|b| vec![0u64; v * Self::block_width_of(words_per_row, b)])
            .collect();
        {
            let (chain, pos) = (&chain, &pos);
            for_each_partitioned(&mut blocks, workers, |b, block| {
                let w0 = b * BLOCK_WORDS;
                let width = Self::block_width_of(words_per_row, b);
                let mut acc = [0u64; BLOCK_WORDS];
                for &u in topo.iter().rev() {
                    acc[..width].fill(0);
                    for (s, _) in graph.succs(u) {
                        let si = s as usize;
                        if pos[si] == 0 {
                            let c = chain[si] as usize;
                            let w = c / 64;
                            if (w0..w0 + width).contains(&w) {
                                acc[w - w0] |= 1u64 << (c % 64);
                            }
                        }
                        let srow = &block[si * width..si * width + width];
                        for (a, &sw) in acc[..width].iter_mut().zip(srow) {
                            *a |= sw;
                        }
                    }
                    let ui = u as usize;
                    block[ui * width..ui * width + width].copy_from_slice(&acc[..width]);
                }
            });
        }

        // Earliest-position rows for the mid-entry chains, in parallel.
        let mut mid_rows: Vec<Vec<u32>> = mid_chains.iter().map(|_| vec![NO_ROW; v]).collect();
        {
            let (chain, pos, mid_chains) = (&chain, &pos, &mid_chains);
            for_each_partitioned(&mut mid_rows, workers, |m, row| {
                let c = mid_chains[m];
                for &u in topo.iter().rev() {
                    let mut e = NO_ROW;
                    for (s, _) in graph.succs(u) {
                        let si = s as usize;
                        if chain[si] == c && pos[si] != END_POS {
                            e = e.min(pos[si]);
                        }
                        e = e.min(row[si]);
                    }
                    row[u as usize] = e;
                }
            });
        }

        // Full reaches-end bit rows for the end-entry chains: those ends
        // are reachable without walking their chain, so the interval
        // logic cannot answer for them.
        let words = v.div_ceil(64);
        let mut end_rows: Vec<Vec<u64>> = end_chains.iter().map(|_| vec![0u64; words]).collect();
        {
            let (end_chains, end_node) = (&end_chains, &end_node);
            for_each_partitioned(&mut end_rows, workers, |m, row| {
                let target = end_node[end_chains[m] as usize];
                for &u in topo.iter().rev() {
                    let hit = graph
                        .succs(u)
                        .any(|(s, _)| s == target || (row[s as usize / 64] >> (s % 64)) & 1 == 1);
                    if hit {
                        row[u as usize / 64] |= 1u64 << (u % 64);
                    }
                }
            });
        }

        Ok(ReachOracle {
            chain,
            pos,
            linked_until,
            words_per_row,
            blocks,
            mid_index,
            mid_rows,
            end_index,
            end_rows,
            nodes: v,
        })
    }

    /// Words in column block `b` of a matrix with `words_per_row` words.
    fn block_width_of(words_per_row: usize, b: usize) -> usize {
        (words_per_row - b * BLOCK_WORDS).min(BLOCK_WORDS)
    }

    /// Does `from` reach `begin(chain c)` by a non-empty path?
    #[inline]
    fn begin_bit(&self, from: usize, c: u32) -> bool {
        let w = c as usize / 64;
        let b = w / BLOCK_WORDS;
        let width = Self::block_width_of(self.words_per_row, b);
        let word = self.blocks[b][from * width + (w - b * BLOCK_WORDS)];
        (word >> (c % 64)) & 1 == 1
    }

    /// Is there a non-empty path `from → to`?
    ///
    /// Agrees with [`SyncGraph::reaches`] on the indexed graph for every
    /// node pair, including `from == to` (false: the graph is acyclic).
    #[inline]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        let (fi, ti) = (from as usize, to as usize);
        let cw = self.chain[ti];
        let pw = self.pos[ti];
        let linked = self.linked_until[cw as usize];
        if pw == END_POS {
            // An end-entry chain's end is reachable off-chain; its bit
            // row is the complete answer (any origin, any path).
            let ei = self.end_index[cw as usize];
            if ei != NO_ROW {
                let row = &self.end_rows[ei as usize];
                return (row[fi / 64] >> (fi % 64)) & 1 == 1;
            }
        }
        if self.chain[fi] == cw {
            // Within a chain, order is positional; reachable only as far
            // as the program chain is wired (an unsealed end node has no
            // incoming edge yet).
            return self.pos[fi] < pw && pw <= linked;
        }
        // Earliest entry position into the target chain: 0 via its begin
        // node, or wherever a mid-entry edge lands.
        let mut entry = if self.begin_bit(fi, cw) { 0 } else { NO_ROW };
        let mi = self.mid_index[cw as usize];
        if mi != NO_ROW {
            entry = entry.min(self.mid_rows[mi as usize][fi]);
        }
        // From the entry the program chain covers [entry, linked_until].
        entry != NO_ROW && pw >= entry && pw <= linked
    }

    /// Nodes covered by the index.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Chains (tasks) covered by the index.
    pub fn chain_count(&self) -> usize {
        self.linked_until.len()
    }

    /// How many chains needed a dense mid-entry row.
    pub fn mid_entry_chains(&self) -> usize {
        self.mid_rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;
    use crate::config::CausalityConfig;
    use crate::model::HbModel;
    use cafa_trace::{Trace, TraceBuilder, VarId};

    /// Asserts oracle answers equal DFS answers for every node pair.
    fn assert_matches_dfs(graph: &SyncGraph, oracle: &ReachOracle) {
        let mut scratch = BitSet::new(graph.node_count());
        for u in 0..graph.node_count() as NodeId {
            for w in 0..graph.node_count() as NodeId {
                assert_eq!(
                    oracle.reaches(u, w),
                    graph.reaches(u, w, &mut scratch),
                    "{u} -> {w} diverged"
                );
            }
        }
    }

    fn fork_join_trace() -> Trace {
        let mut b = TraceBuilder::new("oracle");
        let p = b.add_process();
        let main = b.add_thread(p, "main");
        b.read(main, VarId::new(0));
        let child = b.fork(main, p, "w");
        b.write(main, VarId::new(0));
        b.join(main, child);
        b.read(child, VarId::new(1));
        b.finish().unwrap()
    }

    #[test]
    fn matches_dfs_on_fork_join() {
        let trace = fork_join_trace();
        let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        for threads in [1, 3] {
            let oracle = ReachOracle::build(model.graph(), threads).unwrap();
            assert_matches_dfs(model.graph(), &oracle);
        }
    }

    #[test]
    fn mid_entry_join_gets_a_row() {
        // end(child) → join-record is a cross edge into a record: main's
        // chain is mid-entry.
        let trace = fork_join_trace();
        let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        let oracle = ReachOracle::build(model.graph(), 1).unwrap();
        assert_eq!(oracle.mid_entry_chains(), 1);
        assert_eq!(oracle.chain_count(), 2);
    }

    #[test]
    fn cyclic_graph_is_rejected() {
        let trace = fork_join_trace();
        let mut g = SyncGraph::from_trace(&trace);
        let tasks: Vec<_> = trace.tasks().map(|t| t.id).collect();
        g.add_edge(g.end(tasks[1]), g.begin(tasks[0]), EdgeKind::Join);
        g.add_edge(g.end(tasks[0]), g.begin(tasks[1]), EdgeKind::Fork);
        let err = ReachOracle::build(&g, 1).unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn block_layout_spans_word_boundaries() {
        // More chains than one block covers: bits must land in the right
        // block regardless of thread count.
        let mut b = TraceBuilder::new("wide");
        let p = b.add_process();
        let main = b.add_thread(p, "main");
        let mut children = Vec::new();
        for _ in 0..300 {
            children.push(b.fork(main, p, "c"));
        }
        for &c in &children {
            b.join(main, c);
        }
        let trace = b.finish().unwrap();
        let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        let one = ReachOracle::build(model.graph(), 1).unwrap();
        let eight = ReachOracle::build(model.graph(), 8).unwrap();
        assert!(one.chain_count() > 256);
        assert_matches_dfs(model.graph(), &one);
        assert_matches_dfs(model.graph(), &eight);
    }

    #[test]
    fn end_targeted_cross_edges_get_full_rows() {
        // A cross edge straight into end(child): the end is reachable
        // without walking the child's chain, so the interval logic
        // alone would miss it.
        let trace = fork_join_trace();
        let mut g = SyncGraph::from_trace(&trace);
        let tasks: Vec<_> = trace.tasks().map(|t| t.id).collect();
        g.add_edge(g.begin(tasks[0]), g.end(tasks[1]), EdgeKind::External);
        for threads in [1, 4] {
            let oracle = ReachOracle::build(&g, threads).unwrap();
            assert_matches_dfs(&g, &oracle);
        }
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
