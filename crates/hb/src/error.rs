//! Errors from happens-before model construction.

use std::error::Error;
use std::fmt;

use cafa_trace::TaskId;

use crate::graph::{NodeId, NodePoint, SyncGraph};

/// A failure while building a happens-before model.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum HbError {
    /// The derived happens-before relation contains a cycle. A trace of
    /// a real execution can never produce one; this indicates a
    /// hand-constructed inconsistent trace (e.g. a `perform` before its
    /// `register` in the same task, or forged RPC pairings).
    CyclicHappensBefore {
        /// Number of graph nodes reported: those a failed topological
        /// sort left over, or those of the derived cycle the demand
        /// engine refused to close.
        cycle_len: usize,
        /// Positions of up to the first few such nodes, rendered as
        /// `task@begin`, `task@record<i>` or `task@end`, so the report
        /// points at the inconsistent part of the trace.
        cycle_nodes: Vec<(TaskId, NodePoint)>,
    },
    /// The rule fixpoint failed to converge within the internal round
    /// limit. Practically unreachable for well-formed traces: each round
    /// adds at least one edge and the edge space is finite, but the
    /// limit bounds runaway growth on adversarial inputs.
    DerivationDiverged {
        /// Rounds executed before giving up.
        rounds: u32,
        /// Number of edges the last completed round still derived.
        delta_edges: usize,
        /// Human-readable endpoints of up to the first few edges of
        /// that last delta (`taskA@end → taskB@begin [rule]`), so the
        /// diagnostic names what was still growing.
        last_delta: Vec<String>,
    },
    /// The trace is structurally malformed in a way the happens-before
    /// engine cannot interpret — e.g. an event task with no queue.
    /// Validated traces never produce this; it surfaces hand-built or
    /// corrupted inputs as an error instead of a panic.
    MalformedTrace {
        /// The offending task.
        task: String,
        /// What was wrong with it.
        detail: String,
    },
}

impl HbError {
    /// Builds a [`HbError::CyclicHappensBefore`] from the node set a
    /// failed [`SyncGraph::topo_order`] reports, or from the nodes of a
    /// cycle, naming up to eight of the offending sync points.
    pub fn cyclic(graph: &SyncGraph, nodes: &[NodeId]) -> Self {
        const MAX_NAMED: usize = 8;
        let cycle_nodes = nodes
            .iter()
            .take(MAX_NAMED)
            .map(|&n| {
                let info = graph.node(n);
                (info.task, info.point)
            })
            .collect();
        HbError::CyclicHappensBefore {
            cycle_len: nodes.len(),
            cycle_nodes,
        }
    }

    /// Renames the tasks a cycle names through `map` — for an error
    /// found in a projected sub-trace, the map back to the source
    /// trace's task ids. The other variants are returned unchanged:
    /// validated traces never produce `MalformedTrace`, and
    /// `DerivationDiverged` comes only from whole-trace derivations.
    pub fn map_tasks(self, map: impl Fn(TaskId) -> TaskId) -> Self {
        match self {
            HbError::CyclicHappensBefore {
                cycle_len,
                cycle_nodes,
            } => HbError::CyclicHappensBefore {
                cycle_len,
                cycle_nodes: cycle_nodes.into_iter().map(|(t, p)| (map(t), p)).collect(),
            },
            other => other,
        }
    }

    /// Builds a [`HbError::DerivationDiverged`] naming up to four edges
    /// of the last round's delta (the suffix of the graph's edge log).
    pub(crate) fn diverged(
        graph: &SyncGraph,
        rounds: u32,
        delta: &[(NodeId, NodeId, crate::graph::EdgeKind)],
    ) -> Self {
        const MAX_NAMED: usize = 4;
        let name = |n: NodeId| {
            let info = graph.node(n);
            node_name(info.task, info.point)
        };
        let last_delta = delta
            .iter()
            .take(MAX_NAMED)
            .map(|&(from, to, kind)| format!("{} → {} [{kind:?}]", name(from), name(to)))
            .collect();
        HbError::DerivationDiverged {
            rounds,
            delta_edges: delta.len(),
            last_delta,
        }
    }

    /// Builds a [`HbError::DerivationDiverged`] with no edge detail —
    /// for derived relations built on this crate's graph machinery
    /// (e.g. `cafa-predict`'s conflict-gated fixpoint) whose own round
    /// limits trip without a last-delta edge log to name edges from.
    pub fn diverged_after(rounds: u32) -> Self {
        HbError::DerivationDiverged {
            rounds,
            delta_edges: 0,
            last_delta: Vec::new(),
        }
    }
}

impl fmt::Display for HbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HbError::CyclicHappensBefore {
                cycle_len,
                cycle_nodes,
            } => {
                write!(
                    f,
                    "happens-before relation is cyclic ({cycle_len} nodes in cycles"
                )?;
                let names: Vec<String> = cycle_nodes
                    .iter()
                    .map(|&(task, point)| node_name(task, point))
                    .collect();
                if !names.is_empty() {
                    write!(f, ", at {}", names.join(", "))?;
                }
                write!(f, "); the trace is not consistent with any real execution")
            }
            HbError::DerivationDiverged {
                rounds,
                delta_edges,
                last_delta,
            } => {
                write!(
                    f,
                    "rule derivation did not converge after {rounds} rounds \
                     (last round still derived {delta_edges} edge(s)"
                )?;
                if !last_delta.is_empty() {
                    write!(f, ": {}", last_delta.join(", "))?;
                }
                write!(f, ")")
            }
            HbError::MalformedTrace { task, detail } => {
                write!(f, "malformed trace: task {task}: {detail}")
            }
        }
    }
}

impl Error for HbError {}

/// A sync point as `task@begin`, `task@record<i>` or `task@end`.
fn node_name(task: TaskId, point: NodePoint) -> String {
    match point {
        NodePoint::Begin => format!("{task}@begin"),
        NodePoint::Record(i) => format!("{task}@record{i}"),
        NodePoint::End => format!("{task}@end"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_detail() {
        let e = HbError::CyclicHappensBefore {
            cycle_len: 4,
            cycle_nodes: vec![(TaskId::new(1), NodePoint::Record(2))],
        };
        assert!(e.to_string().contains('4'));
        assert!(e.to_string().contains("t1@record2"));
        let moved = e.map_tasks(|t| TaskId::new(t.index() as u32 + 2));
        assert!(moved
            .to_string()
            .contains("4 nodes in cycles, at t3@record2)"));
        let e = HbError::DerivationDiverged {
            rounds: 64,
            delta_edges: 3,
            last_delta: vec!["t7@end → t9@begin [Atomicity]".into()],
        };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("t7@end"));
        let e = HbError::MalformedTrace {
            task: "t3".into(),
            detail: "event task has no queue".into(),
        };
        assert!(e.to_string().contains("t3"));
        assert!(e.to_string().contains("no queue"));
    }
}
