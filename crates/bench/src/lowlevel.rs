//! §4.1 harness: conventional-definition ("low-level") races versus
//! CAFA's use-free reports.
//!
//! The paper motivates the effect-oriented design with one number:
//! a 30-second ConnectBot trace contains **1,664** races under the
//! plain conflicting-access definition, "and most of them are not
//! harmful bugs", while CAFA reports 3. This harness reproduces the
//! measurement for every app, under both the CAFA and the conventional
//! causality models.

use cafa_apps::{all_apps, AppSpec};
use cafa_core::lowlevel::count_races_with;
use cafa_core::Analyzer;
use cafa_engine::{fleet, AnalysisSession};
use cafa_hb::CausalityConfig;

/// Per-app low-level race measurement.
#[derive(Clone, Debug)]
pub struct LowLevelRow {
    /// Application name.
    pub name: String,
    /// Racy site pairs under the CAFA (relaxed event order) model.
    pub cafa_pairs: usize,
    /// Racy site pairs under the conventional (total event order)
    /// model.
    pub conventional_pairs: usize,
    /// Use-free races CAFA reports (the Table 1 column, for contrast).
    pub usefree_reports: usize,
    /// Expected CAFA pairs, where the paper publishes a number.
    pub expected: Option<usize>,
}

/// Measures one app.
///
/// # Panics
///
/// Panics if the workload fails to record or analyze.
pub fn measure_app(app: &AppSpec, seed: u64) -> LowLevelRow {
    let trace = app
        .record(seed)
        .expect("records cleanly")
        .trace
        .expect("instrumented");
    // One session serves both counters and the detector: the CAFA and
    // conventional models are each built once and shared.
    let session = AnalysisSession::new(&trace);
    let cafa = count_races_with(&session, CausalityConfig::cafa()).expect("count under cafa");
    let conv = count_races_with(&session, CausalityConfig::conventional())
        .expect("count under conventional");
    let report = Analyzer::new()
        .analyze_with(&session)
        .expect("analysis succeeds");
    LowLevelRow {
        name: app.name.clone(),
        cafa_pairs: cafa.racy_pairs,
        conventional_pairs: conv.racy_pairs,
        usefree_reports: report.races.len(),
        expected: app.lowlevel_pairs,
    }
}

/// Measures all apps on the fleet; rows come back in app order.
pub fn compute(seed: u64) -> Vec<LowLevelRow> {
    let apps = all_apps();
    fleet::map(&apps, fleet::resolve_threads(0), |app| {
        measure_app(app, seed)
    })
}

/// Runs and prints the experiment.
pub fn main() {
    println!("§4.1 — low-level (conventional-definition) races vs use-free reports");
    println!(
        "{:<12} {:>12} {:>8} {:>14} {:>10}",
        "App", "low-level", "paper", "conventional", "use-free"
    );
    for row in compute(0) {
        println!(
            "{:<12} {:>12} {:>8} {:>14} {:>10}",
            row.name,
            row.cafa_pairs,
            row.expected
                .map_or_else(|| "-".to_owned(), |e| e.to_string()),
            row.conventional_pairs,
            row.usefree_reports,
        );
    }
    println!(
        "\nThe ConnectBot row is the paper's exhibit: 1,664 low-level races,\n\
         most benign, versus 3 use-free reports — the motivation for\n\
         effect-oriented detection."
    );
}
