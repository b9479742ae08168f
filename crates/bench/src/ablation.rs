//! Ablation harness for the design choices DESIGN.md calls out.
//!
//! Four variants of the pipeline run over all ten app traces:
//!
//! * **cafa** — the full configuration (baseline);
//! * **no-heuristics** — §4.3's if-guard/intra-event-allocation/lockset
//!   pruning disabled: every surviving candidate is reported;
//! * **no-queue-rules** — an EventRacer/WebRacer-style model without
//!   the event-queue rules (§7.1.1 argues these are CAFA's key
//!   addition); send-ordered events become "races";
//! * **full-coverage** — every listener package instrumented: the Type
//!   I false positives disappear, quantifying §6.3's "it would be very
//!   promising to remove most of the false positives of this class".

use cafa_apps::{all_apps, AppSpec};
use cafa_core::{Analyzer, DetectorConfig};
use cafa_engine::{fleet, AnalysisSession, SessionStats};

/// Report counts for one (app, variant) cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cell {
    /// Races reported.
    pub reported: usize,
    /// Candidates filtered by heuristics.
    pub filtered: usize,
}

/// All variant measurements for one app.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Application name.
    pub name: String,
    /// Full CAFA.
    pub cafa: Cell,
    /// Heuristics off.
    pub no_heuristics: Cell,
    /// Event-queue rules off.
    pub no_queue_rules: Cell,
    /// Full listener coverage (Type I fixed).
    pub full_coverage: Cell,
    /// Precise dereference matching (Type III fixed, §6.3).
    pub precise_matching: Cell,
}

fn analyze(session: &AnalysisSession<'_>, config: DetectorConfig) -> Cell {
    let report = Analyzer::with_config(config)
        .analyze_with(session)
        .expect("analysis succeeds");
    Cell {
        reported: report.races.len(),
        filtered: report.filtered.len(),
    }
}

/// Measures one app under all variants, also returning the combined
/// session cache counters.
///
/// The four variants that share the paper-coverage trace share one
/// [`AnalysisSession`]: `cafa`, `no-heuristics`, and `precise-match`
/// all judge races under the same causality model, so only the first
/// builds the fixpoint — the rest are cache hits, as is the lazily
/// built conventional classification baseline after the first variant
/// needs it.
///
/// # Panics
///
/// Panics if recording or analysis fails.
pub fn measure_app_stats(app: &AppSpec, seed: u64) -> (AblationRow, SessionStats) {
    let trace = app
        .record(seed)
        .expect("records")
        .trace
        .expect("instrumented");
    let full_trace = app
        .record_full_coverage(seed)
        .expect("records")
        .trace
        .expect("instrumented");
    let session = AnalysisSession::new(&trace);
    let full_session = AnalysisSession::new(&full_trace);
    let row = AblationRow {
        name: app.name.clone(),
        cafa: analyze(&session, DetectorConfig::cafa()),
        no_heuristics: analyze(&session, DetectorConfig::unfiltered()),
        no_queue_rules: analyze(&session, DetectorConfig::no_queue_rules()),
        full_coverage: analyze(&full_session, DetectorConfig::cafa()),
        precise_matching: analyze(&session, DetectorConfig::precise_matching()),
    };
    let mut stats = session.stats();
    stats += full_session.stats();
    (row, stats)
}

/// Measures one app under all variants.
///
/// # Panics
///
/// Panics if recording or analysis fails.
pub fn measure_app(app: &AppSpec, seed: u64) -> AblationRow {
    measure_app_stats(app, seed).0
}

/// Measures all apps on the fleet, with per-app session stats.
pub fn compute_stats(seed: u64) -> Vec<(AblationRow, SessionStats)> {
    let apps = all_apps();
    fleet::map(&apps, fleet::resolve_threads(0), |app| {
        measure_app_stats(app, seed)
    })
}

/// Measures all apps.
pub fn compute(seed: u64) -> Vec<AblationRow> {
    compute_stats(seed)
        .into_iter()
        .map(|(row, _)| row)
        .collect()
}

/// Runs and prints the ablation table.
pub fn main() {
    println!("Ablations — reports under variant configurations (seed 0)");
    println!(
        "{:<12} {:>6} {:>14} {:>15} {:>14} {:>14}",
        "App", "cafa", "no-heuristics", "no-queue-rules", "full-coverage", "precise-match"
    );
    let rows = compute_stats(0);
    let mut t = (0usize, 0usize, 0usize, 0usize, 0usize);
    for (r, _) in &rows {
        println!(
            "{:<12} {:>6} {:>14} {:>15} {:>14} {:>14}",
            r.name,
            r.cafa.reported,
            r.no_heuristics.reported,
            r.no_queue_rules.reported,
            r.full_coverage.reported,
            r.precise_matching.reported
        );
        t.0 += r.cafa.reported;
        t.1 += r.no_heuristics.reported;
        t.2 += r.no_queue_rules.reported;
        t.3 += r.full_coverage.reported;
        t.4 += r.precise_matching.reported;
    }
    println!(
        "{:<12} {:>6} {:>14} {:>15} {:>14} {:>14}",
        "Overall", t.0, t.1, t.2, t.3, t.4
    );
    println!(
        "\nReading: disabling the §4.3 heuristics adds back the filtered\n\
         commutative candidates; dropping the queue rules (EventRacer-style\n\
         model) floods the report with send-ordered pairs; full listener\n\
         coverage removes exactly the 9 Type I false positives; precise\n\
         dereference matching (the §6.3 static-data-flow fix) removes the\n\
         5 Type III false positives."
    );
    let (builds, hits) = rows.iter().fold((0, 0), |(b, h), (_, s)| {
        (b + s.model_builds, h + s.model_cache_hits)
    });
    println!(
        "\nengine sessions: {builds} HB model build(s), {hits} cache hit(s) — \
         variants sharing a trace share its session's models"
    );
}
