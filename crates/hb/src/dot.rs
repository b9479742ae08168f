//! Graphviz (DOT) export of the happens-before graph.
//!
//! Visualizing the sync graph of a small scenario is the fastest way to
//! understand why the model ordered (or refused to order) two events:
//! tasks render as clusters, derived edges are dashed and labelled with
//! the rule that produced them. Render with e.g.
//! `dot -Tsvg graph.dot -o graph.svg`.

use std::fmt::Write as _;

use cafa_trace::Trace;

use crate::build::base_graph;
use crate::graph::{EdgeKind, NodePoint, SyncGraph};
use crate::model::HbModel;
use crate::rules::derive_naive;

/// Renders `graph` as a DOT digraph, labelling nodes through `trace`.
///
/// Intended for small scenario traces; the output grows linearly with
/// nodes + edges, and graphs beyond a few hundred nodes stop being
/// readable (use [`HbModel::explain`] instead at that size).
pub fn render(graph: &SyncGraph, trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("digraph hb {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n");

    // Group each task's chain into a cluster.
    for info in trace.tasks() {
        let task = info.id;
        let _ = writeln!(out, "  subgraph cluster_{} {{", task.index());
        let _ = writeln!(
            out,
            "    label=\"{} {}\";",
            if info.is_event() { "event" } else { "thread" },
            escape(trace.task_name(task)),
        );
        let mut nodes: Vec<u32> = Vec::new();
        for n in 0..graph.node_count() as u32 {
            if graph.node(n).task == task {
                nodes.push(n);
            }
        }
        for n in nodes {
            let label = match graph.node(n).point {
                NodePoint::Begin => "begin".to_owned(),
                NodePoint::End => "end".to_owned(),
                NodePoint::Record(i) => {
                    let r = trace.record(cafa_trace::OpRef::new(task, i));
                    format!("[{i}] {}", r.kind_tag())
                }
            };
            let _ = writeln!(out, "    n{n} [label=\"{}\"];", escape(&label));
        }
        out.push_str("  }\n");
    }

    // Edges, styled by kind.
    for n in 0..graph.node_count() as u32 {
        for (to, kind) in graph.succs(n) {
            let (style, label) = match kind {
                EdgeKind::Program => ("solid, color=gray", String::new()),
                EdgeKind::Atomicity => ("dashed, color=red", "atomicity".to_owned()),
                EdgeKind::Queue(r) => ("dashed, color=blue", format!("queue {r}")),
                other => ("solid", format!("{other:?}").to_lowercase()),
            };
            if label.is_empty() {
                let _ = writeln!(out, "  n{n} -> n{to} [style=\"{style}\"];");
            } else {
                let _ = writeln!(
                    out,
                    "  n{n} -> n{to} [style=\"{style}\", label=\"{label}\"];"
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

/// The DOT rendering of a model's relation: its base graph plus every
/// edge the naive derivation materializes (the model itself derives
/// edges only on demand). Should the derivation stop at a cycle, the
/// edges derived until then are drawn.
pub fn render_model(model: &HbModel<'_>) -> String {
    let mut graph = base_graph(model.trace(), model.config());
    let _ = derive_naive(&mut graph, model.trace(), model.config());
    render(&graph, model.trace())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CausalityConfig, HbModel};
    use cafa_trace::TraceBuilder;

    #[test]
    fn dot_contains_clusters_nodes_and_rule_labels() {
        let mut b = TraceBuilder::new("dot");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let a = b.post(t, q, "A", 1);
        let e = b.post(t, q, "B", 1);
        b.process_event(a);
        b.process_event(e);
        let trace = b.finish().unwrap();
        let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        let dot = render_model(&model);
        assert!(dot.starts_with("digraph hb {"));
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("event A") || dot.contains("label=\"event A\""));
        assert!(
            dot.contains("queue 1"),
            "the derived rule-1 edge is labelled"
        );
        assert!(dot.contains("send"));
        assert!(dot.ends_with("}\n"));
        // Balanced braces (clusters + graph).
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn names_are_escaped() {
        let mut b = TraceBuilder::new("esc");
        let p = b.add_process();
        b.add_thread(p, "na\"me");
        let trace = b.finish().unwrap();
        let model = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        let dot = render_model(&model);
        assert!(dot.contains("na\\\"me"));
    }
}
