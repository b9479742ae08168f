//! Vector clocks for the rule-free causality configs.
//!
//! §4.2 rejects FastTrack-style vector clocks for CAFA because "there
//! are operations whose happens-before relations rely on future
//! operations": the atomicity and event-queue rules. A config with
//! both rules off — the paper's conventional baseline, the
//! FastTrack-style ablation, CAFA's bare base edges — has no such
//! orders. Its relation is plain reachability over its base edges,
//! which one forward clock sweep answers exactly.
//!
//! * **Edges read.** The sweep reads only the config's edge kinds out
//!   of whatever base it is given, so the conventional baseline reads
//!   the shared CAFA base without its `External` edges. Under
//!   `total_event_order` each looper's processing order adds implicit
//!   `end → begin` edges between consecutive events (see
//!   `looper.rs`); no `TotalOrder` edge is materialized.
//! * **Chains.** Every thread is a chain of its sync nodes. Under
//!   `total_event_order` each looper's processed events, in
//!   `QueueInfo::events` order, continue one chain (the implicit edge
//!   links each `end` to the next `begin`); any other event is a chain
//!   of its own. Every chain is a path, so two nodes of one chain are
//!   ordered exactly by position.
//! * **Width.** A clock has one slot per chain of the chain's weakly
//!   connected component — an island's threads plus loopers — since no
//!   order crosses components.
//! * **Sparse snapshots.** The sweep is fused into Kahn's topological
//!   pass. A chain's clock changes only at nodes with a cross-chain
//!   in-edge, so it is snapshotted at exactly those nodes. The clock at
//!   any other node is its chain's latest snapshot with the chain's own
//!   entry raised to the node's position; that is how a cross-chain
//!   edge reads its source. A query `from ≺ to` is then a position
//!   compare on one chain, or one binary search over the snapshots of
//!   `to`'s chain.

use crate::bitset::BitSet;
use crate::build::{model_kinds, HbBase};
use crate::config::CausalityConfig;
use crate::error::HbError;
use crate::graph::{NodeId, SyncGraph};
use crate::looper::{topo_sweep, LooperOrder};

/// Clock entries are chain positions plus one, so 0 means "no node of
/// that chain reaches here".
#[derive(Debug)]
pub(crate) struct Clocks {
    /// Per task: its chain, and the chain position of its `begin` node.
    task_chain: Vec<u32>,
    task_base: Vec<u32>,
    chains: Vec<Chain>,
    /// Snapshot positions, each chain's run ascending.
    snap_pos: Vec<u32>,
    /// Snapshot clocks, each chain's run contiguous.
    clocks: Vec<u32>,
}

/// Where one chain's snapshots live (one record, so the sweep touches
/// one cache line per chain).
#[derive(Clone, Copy, Debug, Default)]
struct Chain {
    /// Representative chain of its weakly connected component.
    comp: u32,
    /// Its entry in the component's clocks, and their width.
    slot: u32,
    width: u32,
    /// Its snapshots are `snap_pos[snap..snap + snaps]`, with clocks
    /// from `clocks[clock..]`.
    snap: u32,
    snaps: u32,
    clock: usize,
}

impl Clocks {
    /// Sweeps the relation of the rule-free `config` over `base`, which
    /// must hold every edge kind the config reads.
    ///
    /// # Errors
    ///
    /// [`HbError::CyclicHappensBefore`] naming the nodes left with
    /// unsatisfied in-edges when the relation is cyclic, and
    /// [`HbError::MalformedTrace`] under `total_event_order` when an
    /// event is not listed once in its looper's processing order.
    pub(crate) fn build(base: &HbBase<'_>, config: &CausalityConfig) -> Result<Self, HbError> {
        let (graph, trace) = (&base.graph, base.trace);
        let reads = model_kinds(config);
        let kinds = (!reads.includes(base.kinds)).then_some(reads);
        let looper = if config.total_event_order {
            let order = LooperOrder::new(graph, trace, &base.table).map_err(|task| {
                HbError::MalformedTrace {
                    task: task.to_string(),
                    detail: "not listed once in its queue's processing order".to_owned(),
                }
            })?;
            Some(order)
        } else {
            None
        };
        let n = graph.node_count();
        let tasks = trace.task_count();
        let mut task_chain = vec![u32::MAX; tasks];
        let mut task_base = vec![0u32; tasks];
        let mut chains = 0u32;
        if looper.is_some() {
            for (_, q) in trace.queues() {
                let mut pos = 0;
                for &e in &q.events {
                    task_chain[e.index()] = chains;
                    task_base[e.index()] = pos;
                    pos += graph.end(e) - graph.begin(e) + 1;
                }
                chains += 1;
            }
        }
        for c in task_chain.iter_mut().filter(|c| **c == u32::MAX) {
            *c = chains;
            chains += 1;
        }
        // A task's nodes are contiguous, so one sequential fill gives
        // every node its chain and position for the two passes below.
        let mut at = vec![(0u32, 0u32); n];
        for t in trace.tasks() {
            let (begin, i) = (graph.begin(t.id), t.id.index());
            for v in begin..=graph.end(t.id) {
                at[v as usize] = (task_chain[i], task_base[i] + v - begin);
            }
        }

        // Union the chains every cross-chain edge joins, and mark its
        // target as a snapshot node, counted per chain.
        let mut chains: Vec<Chain> = (0..chains)
            .map(|c| Chain {
                comp: c,
                ..Chain::default()
            })
            .collect();
        let mut marked = BitSet::new(n);
        for u in 0..n as NodeId {
            let cu = at[u as usize].0;
            for &(v, kind) in graph.csr_succs(u) {
                let cv = at[v as usize].0;
                if cu == cv || kinds.is_some_and(|kinds| !kinds.contains(kind)) {
                    continue;
                }
                let (ru, rv) = (find(&mut chains, cu), find(&mut chains, cv));
                chains[ru.max(rv) as usize].comp = ru.min(rv);
                if marked.insert(v as usize) {
                    chains[cv as usize].snaps += 1;
                }
            }
        }
        for c in 0..chains.len() {
            let r = find(&mut chains, c as u32);
            chains[c].comp = r;
            chains[c].slot = chains[r as usize].width;
            chains[r as usize].width += 1;
        }
        let (mut snap, mut clock) = (0, 0);
        for c in 0..chains.len() {
            let ch = chains[c];
            let width = chains[ch.comp as usize].width;
            chains[c] = Chain {
                width,
                snap,
                snaps: 0,
                clock,
                ..ch
            };
            snap += ch.snaps;
            clock += ch.snaps as usize * width as usize;
        }
        let mut clocks = Clocks {
            task_chain,
            task_base,
            chains,
            snap_pos: vec![0; snap as usize],
            clocks: vec![0; clock],
        };

        // Kahn's pass. Chain order is topological, so each chain's
        // snapshots fill in ascending position, `snaps` counting them.
        topo_sweep(graph, kinds, looper.as_ref(), |v| {
            if !marked.contains(v as usize) {
                return;
            }
            let (c, p) = at[v as usize];
            let ch = &mut clocks.chains[c as usize];
            let (k, w) = (ch.snaps as usize, ch.width as usize);
            ch.snaps += 1;
            let dst = ch.clock + k * w;
            clocks.snap_pos[ch.snap as usize + k] = p;
            if k > 0 {
                // The running chain clock continues from the chain's
                // previous snapshot, across event boundaries too.
                clocks.clocks.copy_within(dst - w..dst, dst);
            }
            clocks.clocks[dst + ch.slot as usize] = p + 1;
            let preds = graph.csr_preds(v).iter().zip(graph.csr_pred_kinds(v));
            for (&u, &kind) in preds {
                let (cu, pu) = at[u as usize];
                if cu == c || kinds.is_some_and(|kinds| !kinds.contains(kind)) {
                    continue;
                }
                if let Some(src) = clocks.clock_at(cu, pu) {
                    for i in 0..w {
                        let x = clocks.clocks[src + i];
                        let y = &mut clocks.clocks[dst + i];
                        *y = (*y).max(x);
                    }
                }
                let own = dst + clocks.chains[cu as usize].slot as usize;
                clocks.clocks[own] = clocks.clocks[own].max(pu + 1);
            }
        })
        .map_err(|nodes| HbError::cyclic(graph, &nodes))?;
        Ok(clocks)
    }

    /// Offset of the clock of `chain`'s latest snapshot at or before
    /// position `pos` (among those taken so far, during the sweep).
    fn clock_at(&self, chain: u32, pos: u32) -> Option<usize> {
        let ch = &self.chains[chain as usize];
        let snaps = &self.snap_pos[ch.snap as usize..(ch.snap + ch.snaps) as usize];
        // The sweep mostly reads a chain's newest snapshot.
        let k = match snaps.last() {
            Some(&last) if last <= pos => snaps.len() - 1,
            _ => snaps.partition_point(|&p| p <= pos).checked_sub(1)?,
        };
        Some(ch.clock + k * ch.width as usize)
    }

    /// Chain and chain position of node `v`.
    fn locate(&self, graph: &SyncGraph, v: NodeId) -> (u32, u32) {
        let t = graph.node(v).task;
        let i = t.index();
        (self.task_chain[i], self.task_base[i] + v - graph.begin(t))
    }

    /// Is there a non-empty path `from → to`?
    pub(crate) fn reaches(&self, graph: &SyncGraph, from: NodeId, to: NodeId) -> bool {
        let (cf, pf) = self.locate(graph, from);
        let (ct, pt) = self.locate(graph, to);
        if cf == ct {
            return pf < pt;
        }
        let source = &self.chains[cf as usize];
        if source.comp != self.chains[ct as usize].comp {
            return false;
        }
        self.clock_at(ct, pt)
            .is_some_and(|at| self.clocks[at + source.slot as usize] > pf)
    }
}

/// Union-find root of chain `c`, halving the path on the way.
fn find(chains: &mut [Chain], mut c: u32) -> u32 {
    while chains[c as usize].comp != c {
        let up = chains[chains[c as usize].comp as usize].comp;
        chains[c as usize].comp = up;
        c = up;
    }
    c
}
