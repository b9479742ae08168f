//! End-to-end race confirmation: detect, then dynamically validate —
//! directed schedule synthesis against blind random probing.
//!
//! For every race the detector reports, two searches run over the
//! app's stress variant looking for a schedule where the violation
//! actually fires:
//!
//! * **directed** — the `cafa-replay` ladder: synthesized defer-rule
//!   schedules first, then HB-bounded guided search, then random
//!   probing (all witnesses replay-verified);
//! * **random** — the pre-existing `cafa_apps::prober` baseline:
//!   seeds 0, 1, 2, … until the violation fires or the budget runs
//!   out.
//!
//! True races should confirm under both (directed in far fewer runs);
//! false positives must never fire under either. The binary prints
//! the comparison table; every count in it is deterministic, and
//! `tests/golden/confirm.txt` pins it.

use cafa_apps::all_apps;
use cafa_apps::prober::confirm;
use cafa_core::Analyzer;
use cafa_engine::{fleet, AnalysisSession};
use cafa_replay::{validate_app, Method, ReplayConfig};

/// Per-app confirmation tallies.
#[derive(Clone, Debug, Default)]
pub struct ConfirmRow {
    /// Application name.
    pub name: String,
    /// Oracle-harmful reports that confirmed (found a witness).
    pub harmful_confirmed: usize,
    /// Oracle-harmful reports that did not confirm in budget.
    pub harmful_unconfirmed: usize,
    /// Oracle-benign reports that (correctly) never fired.
    pub benign_silent: usize,
    /// Oracle-benign reports that fired — must be zero, or the oracle
    /// is wrong.
    pub benign_fired: usize,
    /// Directed-ladder runs spent to witness each confirmed harmful
    /// race, summed.
    pub directed_runs: u64,
    /// Harmful confirmations the directed ladder got from a
    /// synthesized (non-random) schedule.
    pub directed_hits: usize,
    /// Random-probing runs spent on the same harmful races, summed
    /// (a full budget each for the ones random never confirmed).
    pub random_runs: u64,
    /// Harmful races random probing missed within the budget.
    pub random_unconfirmed: usize,
}

impl ConfirmRow {
    fn add(&mut self, other: &ConfirmRow) {
        self.harmful_confirmed += other.harmful_confirmed;
        self.harmful_unconfirmed += other.harmful_unconfirmed;
        self.benign_silent += other.benign_silent;
        self.benign_fired += other.benign_fired;
        self.directed_runs += other.directed_runs;
        self.directed_hits += other.directed_hits;
        self.random_runs += other.random_runs;
        self.random_unconfirmed += other.random_unconfirmed;
    }
}

/// Detects and probes one app.
///
/// # Panics
///
/// Panics if recording, analysis, or probing fails.
pub fn measure_app(app: &cafa_apps::AppSpec, budget: u64) -> ConfirmRow {
    let trace = app.record(0).expect("records").trace.expect("instrumented");
    let session = AnalysisSession::new(&trace);
    let report = Analyzer::new().analyze_with(&session).expect("analyzes");
    let cfg = ReplayConfig {
        budget,
        ..ReplayConfig::default()
    };
    let validation = validate_app(app, &cfg).expect("validates");
    assert_eq!(
        validation.races.len(),
        report.races.len(),
        "validation covers the full report"
    );

    let mut row = ConfirmRow {
        name: app.name.clone(),
        ..ConfirmRow::default()
    };
    for validated in &validation.races {
        let v = &validated.validation;
        if validated.harmful {
            if v.confirmed() && v.replay_verified {
                row.harmful_confirmed += 1;
                row.directed_runs += v.runs_to_witness;
                if matches!(v.method, Some(Method::Directed | Method::Guided)) {
                    row.directed_hits += 1;
                }
                // The random baseline on the same race, same budget.
                let probe = confirm(app, v.var, budget);
                if probe.is_confirmed() {
                    row.random_runs += probe.runs_used();
                } else {
                    row.random_runs += budget;
                    row.random_unconfirmed += 1;
                }
            } else {
                row.harmful_unconfirmed += 1;
            }
        } else if v.confirmed() {
            row.benign_fired += 1;
        } else {
            row.benign_silent += 1;
        }
    }
    row
}

/// Probes every app on the fleet; rows come back in app order.
pub fn compute(budget: u64) -> Vec<ConfirmRow> {
    let apps = all_apps();
    fleet::map(&apps, fleet::resolve_threads(0), |app| {
        measure_app(app, budget)
    })
}

/// Runs the comparison and prints the table.
///
/// # Panics
///
/// Panics if any pipeline stage fails.
pub fn main() {
    let budget = 32;
    println!(
        "Race confirmation: directed synthesis vs random probing ({budget} runs budget per race)"
    );
    println!(
        "{:<12} {:>10} {:>13} {:>13} {:>13} {:>14} {:>13} {:>15}",
        "App",
        "confirmed",
        "unconfirmed",
        "benign-quiet",
        "benign-FIRED",
        "directed-runs",
        "random-runs",
        "random-missed"
    );
    let rows = compute(budget);
    let mut t = ConfirmRow::default();
    for r in &rows {
        println!(
            "{:<12} {:>10} {:>13} {:>13} {:>13} {:>14} {:>13} {:>15}",
            r.name,
            r.harmful_confirmed,
            r.harmful_unconfirmed,
            r.benign_silent,
            r.benign_fired,
            r.directed_runs,
            r.random_runs,
            r.random_unconfirmed
        );
        t.add(r);
    }
    println!(
        "{:<12} {:>10} {:>13} {:>13} {:>13} {:>14} {:>13} {:>15}",
        "Overall",
        t.harmful_confirmed,
        t.harmful_unconfirmed,
        t.benign_silent,
        t.benign_fired,
        t.directed_runs,
        t.random_runs,
        t.random_unconfirmed
    );
    println!(
        "\n{} of 69 true races confirmed with replay-verified witness schedules \
         ({} from synthesized schedules);\n\
         directed ladder: {} runs total vs random probing: {} runs \
         ({} race(s) random never confirmed);\n\
         {} false positives stayed silent (as they must — {} fired).",
        t.harmful_confirmed,
        t.directed_hits,
        t.directed_runs,
        t.random_runs,
        t.random_unconfirmed,
        t.benign_silent,
        t.benign_fired
    );
}
