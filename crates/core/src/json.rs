//! Machine-readable (JSON) rendering of race reports.
//!
//! Hand-rolled emitter — the workspace deliberately keeps the trace and
//! report paths dependency-free — producing stable, line-oriented JSON
//! for downstream tooling (dashboards, CI annotations, diffing runs).

use std::fmt::Write as _;

use cafa_trace::Trace;

use crate::report::RaceReport;

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a report as a JSON object.
///
/// The output is a pure function of the trace and the detector
/// configuration — no timestamps or wall times — so batch and
/// streaming analyses of the same trace are byte-identical and runs
/// can be diffed. Timing lives in the human-readable render
/// (`RaceReport::elapsed`) and `--timings`.
///
/// Schema (stable):
///
/// ```json
/// {
///   "app": "...", "events": N, "pairs_checked": N,
///   "races": [{"var": "v3", "class": "intra-thread",
///              "use": {"task": "t7", "index": 2, "pc": "0x1010",
///                       "handler": "...", "context": "..."},
///              "free": {...}}],
///   "filtered": [{"var": "v4", "reason": "if-guard"}],
///   "truncated_vars": ["v9"]
/// }
/// ```
///
/// Under `--detector both` a `"predictive"` object follows
/// `truncated_vars`: the predictive backend's races (each tagged
/// `both` or `predictive-only`) and its fixpoint/enumeration stats.
/// The default HB rendering is byte-for-byte unchanged.
pub fn render_json(report: &RaceReport, trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"app\": \"{}\",", escape(&report.app));
    let _ = writeln!(out, "  \"events\": {},", report.stats.events);
    let _ = writeln!(
        out,
        "  \"candidate_vars\": {},",
        report.stats.candidate_vars
    );
    let _ = writeln!(out, "  \"pairs_checked\": {},", report.stats.pairs_checked);

    out.push_str("  \"races\": [\n");
    for (i, r) in report.races.iter().enumerate() {
        let comma = if i + 1 < report.races.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"var\": \"{}\", \"class\": \"{}\", \
             \"use\": {{\"task\": \"{}\", \"index\": {}, \"pc\": \"{}\", \
             \"handler\": \"{}\", \"context\": \"{}\"}}, \
             \"free\": {{\"task\": \"{}\", \"index\": {}, \"pc\": \"{}\", \
             \"handler\": \"{}\", \"context\": \"{}\"}}}}{comma}",
            r.var,
            r.class,
            r.use_site.at.task,
            r.use_site.at.index,
            r.use_site.read_pc,
            escape(trace.task_name(r.use_site.at.task)),
            escape(&crate::context::render_stack(trace, r.use_site.at)),
            r.free_site.at.task,
            r.free_site.at.index,
            r.free_site.pc,
            escape(trace.task_name(r.free_site.at.task)),
            escape(&crate::context::render_stack(trace, r.free_site.at)),
        );
    }
    out.push_str("  ],\n");

    out.push_str("  \"filtered\": [\n");
    for (i, f) in report.filtered.iter().enumerate() {
        let comma = if i + 1 < report.filtered.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"var\": \"{}\", \"reason\": \"{}\"}}{comma}",
            f.var, f.reason
        );
    }
    out.push_str("  ],\n");

    let trunc: Vec<String> = report
        .stats
        .truncated_vars
        .iter()
        .map(|v| format!("\"{v}\""))
        .collect();
    // The predictive section is appended only when that backend ran,
    // so default (`--detector hb`) output stays byte-identical.
    match &report.predictive {
        None => {
            let _ = writeln!(out, "  \"truncated_vars\": [{}]", trunc.join(", "));
        }
        Some(p) => {
            let _ = writeln!(out, "  \"truncated_vars\": [{}],", trunc.join(", "));
            out.push_str("  \"predictive\": {\n");
            out.push_str("    \"races\": [\n");
            for (i, r) in p.races.iter().enumerate() {
                let comma = if i + 1 < p.races.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "      {{\"var\": \"{}\", \"class\": \"{}\", \
                     \"use\": {{\"task\": \"{}\", \"index\": {}, \"pc\": \"{}\", \
                     \"handler\": \"{}\"}}, \
                     \"free\": {{\"task\": \"{}\", \"index\": {}, \"pc\": \"{}\", \
                     \"handler\": \"{}\"}}}}{comma}",
                    r.var,
                    r.class,
                    r.use_site.at.task,
                    r.use_site.at.index,
                    r.use_site.read_pc,
                    escape(trace.task_name(r.use_site.at.task)),
                    r.free_site.at.task,
                    r.free_site.at.index,
                    r.free_site.pc,
                    escape(trace.task_name(r.free_site.at.task)),
                );
            }
            out.push_str("    ],\n");
            let s = &p.stats;
            let _ = writeln!(
                out,
                "    \"stats\": {{\"rounds\": {}, \"derived_edges\": {}, \
                 \"gated\": {}, \"external_edges\": {}, \"pairs_checked\": {}, \
                 \"filtered\": {}, \"truncated_vars\": {}}}",
                s.rounds,
                s.derived_edges,
                s.gated,
                s.external_edges,
                s.pairs_checked,
                s.filtered,
                s.truncated_vars,
            );
            out.push_str("  }\n");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use cafa_trace::{DerefKind, ObjId, Pc, TraceBuilder, VarId};

    fn racy_trace() -> Trace {
        let mut b = TraceBuilder::new("json \"app\"");
        let p = b.add_process();
        let q = b.add_queue(p);
        let svc = b.add_process();
        let ipc = b.add_thread(svc, "binder");
        let use_ev = b.post(ipc, q, "useEv", 0);
        let free_ev = b.external(q, "freeEv");
        b.process_event(use_ev);
        b.obj_read(use_ev, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x1010));
        b.deref(use_ev, ObjId::new(1), Pc::new(0x1014), DerefKind::Field);
        b.process_event(free_ev);
        b.obj_write(free_ev, VarId::new(0), None, Pc::new(0x2010));
        b.finish().unwrap()
    }

    #[test]
    fn json_has_expected_fields_and_escapes() {
        let trace = racy_trace();
        let report = Analyzer::new().analyze(&trace).unwrap();
        assert_eq!(report.races.len(), 1);
        let json = render_json(&report, &trace);
        assert!(json.contains("\"app\": \"json \\\"app\\\"\""));
        assert!(json.contains("\"class\": \"intra-thread\""));
        assert!(json.contains("\"handler\": \"useEv\""));
        assert!(json.contains("\"pc\": \"0x1010\""));
        assert!(json.contains("\"truncated_vars\": []"));
        // Crude structural sanity: balanced braces and brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn filtered_candidates_and_truncation_serialize() {
        use cafa_core_filters_probe::build_filtered_trace;
        let trace = build_filtered_trace();
        let mut cfg = crate::DetectorConfig::cafa();
        cfg.max_pairs_per_var = 1;
        let report = crate::Analyzer::with_config(cfg).analyze(&trace).unwrap();
        let json = render_json(&report, &trace);
        assert!(json.contains("\"reason\": \"if-guard\"") || json.contains("\"filtered\": [\n  ]"));
        // Truncated vars render as quoted ids when present.
        if !report.stats.truncated_vars.is_empty() {
            assert!(json.contains("\"truncated_vars\": [\"v"));
        }
    }

    /// Builds a trace with one guarded (filtered) candidate.
    mod cafa_core_filters_probe {
        use cafa_trace::{BranchKind, DerefKind, ObjId, Pc, Trace, TraceBuilder, VarId};

        pub fn build_filtered_trace() -> Trace {
            let mut b = TraceBuilder::new("filtered");
            let p = b.add_process();
            let q = b.add_queue(p);
            let t1 = b.add_thread(p, "s1");
            let t2 = b.add_thread(p, "s2");
            let v = VarId::new(0);
            let o = ObjId::new(1);
            let use_ev = b.post(t1, q, "useEv", 0);
            b.process_event(use_ev);
            b.obj_read(use_ev, v, Some(o), Pc::new(0x1010));
            b.guard(
                use_ev,
                BranchKind::IfEqz,
                Pc::new(0x1014),
                Pc::new(0x1040),
                o,
            );
            b.obj_read(use_ev, v, Some(o), Pc::new(0x1018));
            b.deref(use_ev, o, Pc::new(0x101c), DerefKind::Invoke);
            let free_ev = b.post(t2, q, "freeEv", 0);
            b.process_event(free_ev);
            b.obj_write(free_ev, v, None, Pc::new(0x2010));
            b.finish().unwrap()
        }
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
    }
}
