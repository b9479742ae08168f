//! One-command artifact runner: every experiment, one markdown report.
//!
//! ```text
//! cargo run -p cafa-bench --bin fullreport --release > report.md
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

fn main() {
    let mut md = String::new();
    let _ = writeln!(md, "# CAFA-rs — full evaluation run\n");

    // ---- Table 1 ---------------------------------------------------------
    let _ = writeln!(md, "## Table 1\n");
    let _ = writeln!(
        md,
        "| App | Events | Reported | a/b/c | I/II/III | paper match |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    let mut exact = true;
    let mut session_builds = 0usize;
    let mut session_hits = 0usize;
    for (app, m, s) in cafa_bench::table1::compute_stats(0) {
        session_builds += s.model_builds;
        session_hits += s.model_cache_hits;
        let e = app.expected;
        let ok = m.events == e.events
            && m.reported == e.reported
            && (m.a, m.b, m.c) == (e.a, e.b, e.c)
            && (m.fp1, m.fp2, m.fp3) == (e.fp1, e.fp2, e.fp3);
        exact &= ok;
        let _ = writeln!(
            md,
            "| {} | {} | {} | {}/{}/{} | {}/{}/{} | {} |",
            app.name,
            m.events,
            m.reported,
            m.a,
            m.b,
            m.c,
            m.fp1,
            m.fp2,
            m.fp3,
            if ok { "exact" } else { "MISMATCH" }
        );
    }
    let _ = writeln!(
        md,
        "\nTable 1 reproduction: {}\n",
        if exact { "**exact**" } else { "MISMATCH" }
    );
    let _ = writeln!(
        md,
        "Engine sessions: {session_builds} HB model build(s), {session_hits} cache hit(s).\n"
    );

    // ---- Figure 8 --------------------------------------------------------
    let _ = writeln!(md, "## Figure 8 (tracing slowdown; paper band 2x-6x)\n");
    let _ = writeln!(md, "| App | slowdown |");
    let _ = writeln!(md, "|---|---|");
    for o in cafa_bench::fig8::compute(5) {
        let _ = writeln!(md, "| {} | {:.2}x |", o.name, o.slowdown());
    }

    // ---- §4.1 ------------------------------------------------------------
    let _ = writeln!(md, "\n## §4.1 low-level races\n");
    let _ = writeln!(md, "| App | low-level (CAFA) | conventional | use-free |");
    let _ = writeln!(md, "|---|---|---|---|");
    for r in cafa_bench::lowlevel::compute(0) {
        let _ = writeln!(
            md,
            "| {} | {}{} | {} | {} |",
            r.name,
            r.cafa_pairs,
            r.expected
                .map_or(String::new(), |e| format!(" (paper {e})")),
            r.conventional_pairs,
            r.usefree_reports
        );
    }

    // ---- Ablations ---------------------------------------------------------
    let _ = writeln!(md, "\n## Ablations (total reports)\n");
    let rows = cafa_bench::ablation::compute(0);
    let sum =
        |f: fn(&cafa_bench::ablation::AblationRow) -> usize| -> usize { rows.iter().map(f).sum() };
    let _ = writeln!(md, "| configuration | reports |");
    let _ = writeln!(md, "|---|---|");
    let _ = writeln!(md, "| full CAFA | {} |", sum(|r| r.cafa.reported));
    let _ = writeln!(
        md,
        "| no heuristics | {} |",
        sum(|r| r.no_heuristics.reported)
    );
    let _ = writeln!(
        md,
        "| no queue rules | {} |",
        sum(|r| r.no_queue_rules.reported)
    );
    let _ = writeln!(
        md,
        "| full listener coverage | {} |",
        sum(|r| r.full_coverage.reported)
    );
    let _ = writeln!(
        md,
        "| precise deref matching | {} |",
        sum(|r| r.precise_matching.reported)
    );

    // ---- Survey + confirmation ----------------------------------------------
    let _ = writeln!(md, "\n## §6.2 violation survey (stress, 16 schedules)\n");
    let _ = writeln!(md, "| App | crashing schedules | crashes | swallowed |");
    let _ = writeln!(md, "|---|---|---|---|");
    for r in cafa_bench::survey::compute(16) {
        let _ = writeln!(
            md,
            "| {} | {}/{} | {} | {} |",
            r.name, r.crashing_schedules, r.schedules, r.crashes, r.swallowed
        );
    }

    let _ = writeln!(md, "\n## Race confirmation (24 schedules per race)\n");
    let rows = cafa_bench::confirm::compute(24);
    let confirmed: usize = rows.iter().map(|r| r.harmful_confirmed).sum();
    let unconfirmed: usize = rows.iter().map(|r| r.harmful_unconfirmed).sum();
    let fired: usize = rows.iter().map(|r| r.benign_fired).sum();
    let _ = writeln!(
        md,
        "- true races confirmed with witness schedules: **{confirmed}** (unconfirmed: {unconfirmed})"
    );
    let _ = writeln!(md, "- false positives that fired: **{fired}** (must be 0)");

    // ---- Analysis cost breakdown -----------------------------------------
    // The Figure-8 numbers above cover the tracing side; this is the
    // analysis-side counterpart: where the detector's time goes, summed
    // over all ten app traces (absolute times vary run to run).
    let _ = writeln!(
        md,
        "\n## Analysis cost breakdown (per-pass wall time, all apps)\n"
    );
    let apps = cafa_apps::all_apps();
    let measured = cafa_engine::fleet::map(&apps, cafa_engine::fleet::resolve_threads(0), |app| {
        let trace = app.record(0).expect("records").trace.expect("instrumented");
        let session = cafa_engine::AnalysisSession::new(&trace);
        let report = cafa_core::Analyzer::new()
            .analyze_with(&session)
            .expect("analyzes");
        report.stats.passes
    });
    let mut order: Vec<&'static str> = Vec::new();
    let mut totals: HashMap<&'static str, (Duration, usize)> = HashMap::new();
    for passes in &measured {
        for r in &passes.records {
            if !order.contains(&r.name) {
                order.push(r.name);
            }
            let entry = totals.entry(r.name).or_default();
            entry.0 += r.wall;
            entry.1 += r.items;
        }
    }
    let grand: Duration = totals.values().map(|(w, _)| *w).sum();
    let _ = writeln!(md, "| pass | wall (ms) | share | items |");
    let _ = writeln!(md, "|---|---|---|---|");
    for name in &order {
        let (wall, items) = totals[name];
        let share = if grand.is_zero() {
            0.0
        } else {
            100.0 * wall.as_secs_f64() / grand.as_secs_f64()
        };
        let _ = writeln!(
            md,
            "| {name} | {:.3} | {share:.1}% | {items} |",
            wall.as_secs_f64() * 1e3
        );
    }
    let _ = writeln!(
        md,
        "| total | {:.3} | 100.0% | |",
        grand.as_secs_f64() * 1e3
    );

    print!("{md}");
}
