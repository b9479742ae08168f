//! §6.4 harness: offline analysis time as a function of event count.
//!
//! The paper's offline analyzer took 30 minutes to 10 hours per trace,
//! with ToDoList (≈16 h) and Music (≈1 day) slowest "due to the
//! excessive amount of events". The shape to reproduce is analysis
//! time growing superlinearly with the number of events; the absolute
//! numbers are not comparable (this analyzer uses bitset sweeps instead
//! of the paper's per-query graph walks and runs in milliseconds).

use std::time::Instant;

use cafa_apps::all_apps;
use cafa_core::Analyzer;
use cafa_sim::{run, ProgramBuilder, SimConfig};
use cafa_trace::Trace;

/// One point of the scaling sweep.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Label (app name or synthetic size).
    pub label: String,
    /// Events in the trace.
    pub events: usize,
    /// Records in the trace.
    pub records: usize,
    /// Analysis wall time in seconds.
    pub analyze_s: f64,
}

fn time_analysis(trace: &cafa_trace::Trace) -> f64 {
    let t = Instant::now();
    let report = Analyzer::new().analyze(trace).expect("analysis succeeds");
    std::hint::black_box(report.races.len());
    t.elapsed().as_secs_f64()
}

/// Builds a synthetic trace of roughly `events` events with a fixed
/// race population, then times its analysis.
///
/// # Panics
///
/// Panics if simulation or analysis fails.
pub fn synthetic_point(events: usize) -> ScalePoint {
    let trace = synthetic_trace(events);
    let stats = trace.stats();
    ScalePoint {
        label: format!("synthetic/{events}"),
        events: stats.events,
        records: stats.records,
        analyze_s: time_analysis(&trace),
    }
}

/// The synthetic scaling workload itself: roughly `events` events with
/// a fixed race population.
///
/// # Panics
///
/// Panics if simulation fails.
pub fn synthetic_trace(events: usize) -> Trace {
    let mut p = ProgramBuilder::new(format!("synthetic-{events}"));
    let proc = p.process();
    let looper = p.looper(proc);
    let mut pats = cafa_apps::patterns::Patterns::new(&mut p, proc, looper);
    pats.intra(false, false);
    pats.inter(false);
    pats.fp_bool_guard();
    pats.scalar_burst(4, 8);
    pats.fill_to(events, 10);
    drop(pats.finish());
    let program = p.build();
    let outcome = run(&program, &SimConfig::with_seed(0)).expect("runs cleanly");
    outcome.trace.expect("instrumented")
}

/// Times the analysis of every app trace.
pub fn app_points(seed: u64) -> Vec<ScalePoint> {
    all_apps()
        .iter()
        .map(|app| {
            let trace = app
                .record(seed)
                .expect("records")
                .trace
                .expect("instrumented");
            let stats = trace.stats();
            ScalePoint {
                label: app.name.to_owned(),
                events: stats.events,
                records: stats.records,
                analyze_s: time_analysis(&trace),
            }
        })
        .collect()
}

/// Runs and prints the sweep plus the per-app timings.
pub fn main() {
    println!("§6.4 — offline analysis time vs trace size");
    println!("\nsynthetic sweep (fixed race population, growing filler):");
    println!(
        "{:<16} {:>8} {:>10} {:>12}",
        "trace", "events", "records", "analysis (s)"
    );
    let mut prev: Option<(usize, f64)> = None;
    for events in [500usize, 1_000, 2_000, 4_000, 8_000, 16_000] {
        let pt = synthetic_point(events);
        let growth = prev
            .map(|(pe, pt_s)| {
                let er = pt.events as f64 / pe as f64;
                let tr = pt.analyze_s / pt_s;
                format!("  ({er:.1}x events -> {tr:.1}x time)")
            })
            .unwrap_or_default();
        println!(
            "{:<16} {:>8} {:>10} {:>12.4}{growth}",
            pt.label, pt.events, pt.records, pt.analyze_s
        );
        prev = Some((pt.events, pt.analyze_s));
    }

    println!("\nper-app traces:");
    println!(
        "{:<16} {:>8} {:>10} {:>12}",
        "app", "events", "records", "analysis (s)"
    );
    let mut points = app_points(0);
    points.sort_by_key(|x| x.events);
    for pt in points {
        println!(
            "{:<16} {:>8} {:>10} {:>12.4}",
            pt.label, pt.events, pt.records, pt.analyze_s
        );
    }
    println!(
        "\nShape check: time grows superlinearly with events, and the\n\
         event-heavy traces (ToDoList, Camera, Music) are the slowest —\n\
         the ordering behind the paper's 16h/1day outliers."
    );
}
