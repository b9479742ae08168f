//! §6.2 harness: a survey of use-after-free violations.
//!
//! The paper's §6.2 describes *how* the detected races manifest: most
//! trigger when the app pauses and a cleanup handler frees pointers
//! that queued events still use; some crash, some throw exceptions the
//! app swallows (ToDoList's empty catch block — "the latest user input
//! would not be written to the database"). This harness runs every
//! workload under many schedules (stock ROM — no tracing) and tallies
//! the violations that actually fire, split into crashes and silently
//! swallowed exceptions, cross-checked against the oracle labels.

use std::collections::BTreeMap;

use cafa_apps::{all_apps, Label};
use cafa_engine::fleet;

/// Violation tally for one app.
#[derive(Clone, Debug, Default)]
pub struct SurveyRow {
    /// Application name.
    pub name: String,
    /// Schedules exercised.
    pub schedules: usize,
    /// Schedules with at least one uncaught NPE (a crash).
    pub crashing_schedules: usize,
    /// Total uncaught NPEs observed.
    pub crashes: usize,
    /// Total caught-and-swallowed NPEs observed (§6.2's silent data
    /// loss).
    pub swallowed: usize,
    /// Distinct harmful variables whose violation manifested in at
    /// least one schedule.
    pub distinct_vars_hit: usize,
}

/// Surveys one app across `schedules` seeds.
///
/// # Panics
///
/// Panics if a run fails, or if a violation fires on a variable the
/// oracle does not label harmful (that would falsify the ground truth).
pub fn survey_app(app: &cafa_apps::AppSpec, schedules: usize) -> SurveyRow {
    let mut row = SurveyRow {
        name: app.name.clone(),
        schedules,
        ..SurveyRow::default()
    };
    let mut per_var: BTreeMap<u32, usize> = BTreeMap::new();
    for seed in 0..schedules as u64 {
        let outcome = app.run_stress(seed).expect("runs cleanly");
        if outcome.crashed() {
            row.crashing_schedules += 1;
        }
        for npe in &outcome.npes {
            assert!(
                matches!(app.truth.get(npe.var), Some(Label::Harmful { .. })),
                "{}: NPE on non-harmful {}",
                app.name,
                npe.var
            );
            *per_var.entry(npe.var.as_u32()).or_default() += 1;
            if npe.caught {
                row.swallowed += 1;
            } else {
                row.crashes += 1;
            }
        }
    }
    row.distinct_vars_hit = per_var.len();
    row
}

/// Surveys every app on the fleet; rows come back in app order.
pub fn compute(schedules: usize) -> Vec<SurveyRow> {
    let apps = all_apps();
    fleet::map(&apps, fleet::resolve_threads(0), |app| {
        survey_app(app, schedules)
    })
}

/// Runs and prints the survey.
pub fn main() {
    let schedules = 24;
    println!("§6.2 — survey of use-after-free violations ({schedules} schedules per app)");
    println!(
        "{:<12} {:>10} {:>9} {:>11} {:>10}",
        "App", "crash-run", "crashes", "swallowed", "vars-hit"
    );
    let mut any_swallowed = 0;
    for row in compute(schedules) {
        any_swallowed += row.swallowed;
        println!(
            "{:<12} {:>7}/{:<2} {:>9} {:>11} {:>10}",
            row.name,
            row.crashing_schedules,
            row.schedules,
            row.crashes,
            row.swallowed,
            row.distinct_vars_hit,
        );
    }
    println!(
        "\nAs in §6.2, most violations fire around pause-time cleanup; the\n\
         swallowed column ({any_swallowed} exceptions) is ToDoList's empty-catch\n\
         pattern — no crash, but the write is lost. Every violation hit a\n\
         variable the oracle labels harmful (asserted)."
    );
}
