//! Table 1 harness: per-app use-free races, classified.
//!
//! For each of the ten applications this records a trace with the
//! paper's instrumentation coverage, runs the full CAFA pipeline, and
//! joins the detector's report against the workload's ground-truth
//! labels to produce the true-race (a)/(b)/(c) and false-positive
//! I/II/III columns.

use cafa_apps::{all_apps, AppSpec, FpType, Label, TrueClass};
use cafa_core::{Analyzer, DetectorConfig, DetectorKind, PredictClass, RaceClass, RaceReport};
use cafa_engine::{fleet, AnalysisSession, SessionStats};
use cafa_hb::CausalityConfig;
use cafa_replay::{adjudicate_races, ReplayConfig};

/// One measured Table 1 row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Row {
    /// Events in the recorded trace.
    pub events: usize,
    /// Races the detector reported.
    pub reported: usize,
    /// True races: intra-thread (a).
    pub a: usize,
    /// True races: inter-thread (b).
    pub b: usize,
    /// True races: conventional (c).
    pub c: usize,
    /// Type I false positives.
    pub fp1: usize,
    /// Type II false positives.
    pub fp2: usize,
    /// Type III false positives.
    pub fp3: usize,
    /// Reported races with no ground-truth label (must be 0).
    pub unlabeled: usize,
    /// Reports whose detector class disagrees with the oracle class.
    pub misclassified: usize,
    /// Known bugs rediscovered.
    pub known: usize,
}

/// Classifies one app's report against its ground truth.
pub fn classify(app: &AppSpec, report: &RaceReport) -> Row {
    let mut row = Row {
        reported: report.races.len(),
        ..Row::default()
    };
    for race in &report.races {
        match app.truth.get(race.var) {
            Some(Label::Harmful { class, known }) => {
                let expected_class = match class {
                    TrueClass::IntraThread => RaceClass::IntraThread,
                    TrueClass::InterThread => RaceClass::InterThread,
                    TrueClass::Conventional => RaceClass::Conventional,
                };
                if race.class != expected_class {
                    row.misclassified += 1;
                }
                match class {
                    TrueClass::IntraThread => row.a += 1,
                    TrueClass::InterThread => row.b += 1,
                    TrueClass::Conventional => row.c += 1,
                }
                if known {
                    row.known += 1;
                }
            }
            Some(Label::Benign { fp }) => match fp {
                FpType::MissingListener => row.fp1 += 1,
                FpType::ImpreciseCommutativity => row.fp2 += 1,
                FpType::DerefMismatch => row.fp3 += 1,
            },
            // Predictive-only labels must stay out of the HB report, so
            // one leaking in is as wrong as an unlabeled variable.
            Some(Label::Filtered)
            | Some(Label::Ordered)
            | Some(Label::Predictive { .. })
            | None => row.unlabeled += 1,
        }
    }
    row
}

/// Runs the experiment for one app, also returning the engine
/// session's cache counters.
///
/// The whole measurement shares one [`AnalysisSession`]: the detector
/// builds the CAFA model through it, and the harness then reads the
/// `Events` column from that same cached model instead of re-deriving
/// it — the lookup is the session's cache-hit path.
///
/// # Panics
///
/// Panics if recording or analysis fails (the shipped workloads run
/// clean).
pub fn measure_app_stats(app: &AppSpec, seed: u64) -> (Row, SessionStats) {
    let outcome = app.record(seed).expect("workload records cleanly");
    let trace = outcome.trace.expect("instrumentation is on");
    let session = AnalysisSession::new(&trace);
    let report = Analyzer::new()
        .analyze_with(&session)
        .expect("analysis succeeds");
    let mut row = classify(app, &report);
    row.events = session
        .model(CausalityConfig::cafa())
        .expect("cached by the analysis")
        .events()
        .len();
    (row, session.stats())
}

/// Runs the experiment for one app.
///
/// # Panics
///
/// Panics if recording or analysis fails (the shipped workloads run
/// clean).
pub fn measure_app(app: &AppSpec, seed: u64) -> Row {
    measure_app_stats(app, seed).0
}

/// Runs the experiment for all ten apps on the fleet, returning
/// `(app, measured, session stats)` in app order regardless of worker
/// count.
pub fn compute_stats(seed: u64) -> Vec<(AppSpec, Row, SessionStats)> {
    let apps = all_apps();
    let rows = fleet::map(&apps, fleet::resolve_threads(0), |app| {
        measure_app_stats(app, seed)
    });
    apps.into_iter()
        .zip(rows)
        .map(|(app, (row, stats))| (app, row, stats))
        .collect()
}

/// Runs the experiment for all ten apps, returning `(app, measured)`.
pub fn compute(seed: u64) -> Vec<(AppSpec, Row)> {
    compute_stats(seed)
        .into_iter()
        .map(|(app, row, _)| (app, row))
        .collect()
}

/// Runs and prints the full table, paper numbers alongside.
pub fn main() {
    println!("Table 1 — use-free races reported by CAFA (measured vs paper)");
    println!(
        "{:<12} | {:>6} {:>6} | {:>4} {:>5} | {:>8} {:>8} | {:>8} {:>8} | {:>5}",
        "App", "events", "paper", "rep", "paper", "a/b/c", "paper", "I/II/III", "paper", "known"
    );
    let results = compute_stats(0);
    let mut tot = Row::default();
    let mut te = (0usize, 0usize, 0usize, 0usize, 0usize, 0usize, 0usize);
    for (app, m, _) in &results {
        let e = app.expected;
        println!(
            "{:<12} | {:>6} {:>6} | {:>4} {:>5} | {:>8} {:>8} | {:>8} {:>8} | {:>5}",
            app.name,
            m.events,
            e.events,
            m.reported,
            e.reported,
            format!("{}/{}/{}", m.a, m.b, m.c),
            format!("{}/{}/{}", e.a, e.b, e.c),
            format!("{}/{}/{}", m.fp1, m.fp2, m.fp3),
            format!("{}/{}/{}", e.fp1, e.fp2, e.fp3),
            m.known,
        );
        tot.reported += m.reported;
        tot.a += m.a;
        tot.b += m.b;
        tot.c += m.c;
        tot.fp1 += m.fp1;
        tot.fp2 += m.fp2;
        tot.fp3 += m.fp3;
        tot.known += m.known;
        tot.unlabeled += m.unlabeled;
        tot.misclassified += m.misclassified;
        te.0 += e.reported;
        te.1 += e.a;
        te.2 += e.b;
        te.3 += e.c;
        te.4 += e.fp1;
        te.5 += e.fp2;
        te.6 += e.fp3;
    }
    println!(
        "{:<12} | {:>6} {:>6} | {:>4} {:>5} | {:>8} {:>8} | {:>8} {:>8} | {:>5}",
        "Overall",
        "-",
        "-",
        tot.reported,
        te.0,
        format!("{}/{}/{}", tot.a, tot.b, tot.c),
        format!("{}/{}/{}", te.1, te.2, te.3),
        format!("{}/{}/{}", tot.fp1, tot.fp2, tot.fp3),
        format!("{}/{}/{}", te.4, te.5, te.6),
        tot.known,
    );
    let true_races = tot.a + tot.b + tot.c;
    println!(
        "\n{true_races} true races / {} reported = {:.0}% precision (paper: 69/115 = 60%)",
        tot.reported,
        100.0 * true_races as f64 / tot.reported as f64
    );
    println!(
        "known bugs rediscovered: {} (paper: 2); unlabeled: {}; class disagreements: {}",
        tot.known, tot.unlabeled, tot.misclassified
    );
    let (builds, hits) = results.iter().fold((0, 0), |(b, h), (_, _, s)| {
        (b + s.model_builds, h + s.model_cache_hits)
    });
    println!("engine sessions: {builds} HB model build(s), {hits} cache hit(s)");
}

/// One app's row of the per-backend comparison.
struct BothRow {
    app: String,
    /// Events in the recorded trace.
    events: usize,
    /// Races the HB backend reported.
    hb_reported: usize,
    /// Races the predictive backend reported (superset of HB's).
    pred_reported: usize,
    /// Predictive-only extras (`pred_reported - hb_reported` by the
    /// classification invariant).
    extra: usize,
    /// Extras confirmed by a replay-verified witness.
    confirmed: usize,
    /// Extras the ladder exhausted its budget on: counted FPs.
    false_positives: usize,
}

/// Analyzes one app under `--detector both` and pushes every
/// predictive-only report through the replay adjudication ladder. The
/// HB column is the both-mode report's own race list, which is the HB
/// backend's report.
///
/// # Panics
///
/// Panics if recording, analysis, or replay fails (the catalog and the
/// generated corpus run clean).
fn measure_both(app: &AppSpec, seed: u64) -> BothRow {
    let outcome = app.record(seed).expect("workload records cleanly");
    let trace = outcome.trace.expect("instrumentation is on");
    let config = DetectorConfig {
        detector: DetectorKind::Both,
        ..DetectorConfig::cafa()
    };
    let report = Analyzer::with_config(config)
        .analyze_with(&AnalysisSession::new(&trace))
        .expect("both analysis succeeds");
    let section = report
        .predictive
        .as_ref()
        .expect("both mode attaches the predictive section");
    let only: Vec<_> = section
        .races
        .iter()
        .filter(|r| r.class == PredictClass::PredictiveOnly)
        .map(|r| r.var)
        .collect();
    let adj = adjudicate_races(app, &only, &ReplayConfig::default())
        .expect("adjudication replays cleanly");
    BothRow {
        app: app.name.clone(),
        events: report.stats.events,
        hb_reported: report.races.len(),
        pred_reported: section.races.len(),
        extra: only.len(),
        confirmed: adj.confirmed(),
        false_positives: adj.false_positives(),
    }
}

/// `table1 --detector both`: the Table-1-style per-backend comparison.
///
/// Same ten apps and seed as the plain table, but each row carries
/// both backends' report counts side by side plus the replay verdicts
/// on the predictive extras. The catalog plants no predictive-only
/// patterns, so the expected steady state is `extra = 0` on every row
/// — the HB column equality with the plain table is the regression
/// signal this mode exists for. Rows run on the fleet like the plain
/// table's and print in app order at any worker count.
pub fn main_both() {
    println!("Table 1 per-backend comparison — HB vs predictive (replay-adjudicated)");
    println!(
        "{:<12} | {:>6} | {:>4} {:>4} | {:>5} {:>9} {:>4}",
        "App", "events", "hb", "pred", "extra", "confirmed", "fp"
    );
    let rows = fleet::map(&all_apps(), fleet::resolve_threads(0), |app| {
        measure_both(app, 0)
    });
    let mut hb = 0;
    let mut extra = 0;
    let mut confirmed = 0;
    let mut fp = 0;
    for r in &rows {
        println!(
            "{:<12} | {:>6} | {:>4} {:>4} | {:>5} {:>9} {:>4}",
            r.app,
            r.events,
            r.hb_reported,
            r.pred_reported,
            r.extra,
            r.confirmed,
            r.false_positives,
        );
        hb += r.hb_reported;
        extra += r.extra;
        confirmed += r.confirmed;
        fp += r.false_positives;
    }
    println!(
        "\nhb reported: {hb} (paper: 115); predictive extras: {extra} \
         ({confirmed} confirmed, {fp} false positive(s))"
    );
}
