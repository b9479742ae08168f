//! Scale-tier sweep: the demand-driven query engine and the
//! island-partitioned pipeline on 100k–1M-event fleet-island traces
//! (CLI: `analysis_scaling --scale [--quick]`).
//!
//! Each tier generates a labeled [`cafa_model::scale`] trace and runs
//! the detector two ways, [`REPS`] times each:
//!
//! 1. **Monolithic reference** (`--partition off`, one thread): the
//!    full pipeline on one model, recording the demand engine's rule
//!    premises. The headline property is *sub-linear rule work per
//!    event*: premises-per-event must stay flat (or fall) as the event
//!    count grows 10×.
//! 2. **Partitioned thread sweep** (`--partition auto` at 1/2/8
//!    workers): islands analyzed concurrently, merged back. Every run's
//!    JSON report is asserted byte-identical to the reference; on
//!    multi-core hosts the best multi-threaded median must beat the
//!    single-threaded one.
//!
//! This is the one timing record outside `perfbench/`, which pins
//! analysis to one thread and so cannot measure thread scaling. Writes
//! `BENCH_scale.json` with a `schema_version` + `git_sha` header and
//! `host_cpus`, so flat scaling on a small host is attributable to
//! hardware, not code.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use cafa_core::{json::render_json, Analyzer, DetectorConfig, PartitionMode};
use cafa_engine::AnalysisSession;
use cafa_model::scale::{generate_scale, ScaleConfig};

/// Identifies the layout of `BENCH_scale.json`; bump it when a field
/// changes meaning or goes away.
const SCHEMA_VERSION: &str = "cafa-bench-scale-v2";

/// Timed runs per configuration; the record gives their median, p10
/// and p90.
pub const REPS: usize = 7;

/// Sweep seed; the corpus is a pure function of (seed, tier).
const SEED: u64 = 42;

/// Full sweep tiers; `--quick` keeps only the first.
const TIERS: [usize; 3] = [100_000, 300_000, 1_000_000];

/// Worker counts for the partitioned sweep; `--quick` keeps only one.
const SWEEP_THREADS: [usize; 3] = [1, 2, 8];

/// The wall times of one configuration over [`REPS`] runs.
#[derive(Clone, Debug)]
pub struct Timing {
    /// `--partition` mode: `off` or `auto`.
    pub partition: &'static str,
    /// Worker threads requested.
    pub threads: usize,
    /// Analyze wall time of each run (seconds), model build included.
    pub runs_s: Vec<f64>,
}

/// One tier's measurements.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Tier label (`scale/100000`).
    pub label: String,
    /// Exact event count.
    pub events: usize,
    /// Islands the partition pass found (skeleton components).
    pub islands: usize,
    /// Batches those islands were packed into.
    pub batches: usize,
    /// Rule premises the monolithic demand engine evaluated.
    pub premises: u64,
    /// The monolithic reference first, then the partitioned sweep by
    /// worker count.
    pub timings: Vec<Timing>,
}

impl ScaleRow {
    /// Rule premises evaluated per trace event — the sub-linearity
    /// headline.
    pub fn premises_per_event(&self) -> f64 {
        self.premises as f64 / self.events.max(1) as f64
    }

    /// Median of the partitioned runs at `threads` workers.
    fn auto_median_s(&self, threads: usize) -> Option<f64> {
        self.timings
            .iter()
            .find(|t| t.partition == "auto" && t.threads == threads)
            .map(|t| percentile(&t.runs_s, 0.5))
    }
}

/// The `q`-quantile (`0.0..=1.0`) of `samples`, interpolating linearly
/// between the two nearest ranks of the sorted samples.
///
/// # Panics
///
/// Panics if `samples` is empty.
fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Measures one tier: the monolithic demand-engine reference plus the
/// partitioned thread sweep, [`REPS`] runs each, every run's report
/// asserted byte-identical to the first.
///
/// # Panics
///
/// Panics if analysis fails, the monolithic model did not use the
/// demand backend, a run's report drifts from the reference, or the
/// partition pass did not engage.
pub fn measure(target_events: usize, quick: bool) -> ScaleRow {
    let app = generate_scale(ScaleConfig::new(SEED, target_events));
    let mut reference: Option<String> = None;
    let mut premises = 0;
    let mut islands = 0;
    let mut batches = 0;

    let sweep: &[usize] = if quick {
        &SWEEP_THREADS[1..2]
    } else {
        &SWEEP_THREADS
    };
    let configs = std::iter::once(("off", PartitionMode::Off, 1)).chain(
        sweep
            .iter()
            .map(|&threads| ("auto", PartitionMode::Auto, threads)),
    );
    let mut timings = Vec::new();
    for (name, partition, threads) in configs {
        let config = DetectorConfig {
            threads,
            partition,
            ..DetectorConfig::cafa()
        };
        let mut runs_s = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let session = AnalysisSession::new(&app.trace);
            let t = Instant::now();
            let report = Analyzer::with_config(config)
                .analyze_with(&session)
                .expect("scale traces are acyclic by construction");
            runs_s.push(t.elapsed().as_secs_f64());
            if partition == PartitionMode::Off {
                premises = session
                    .model(config.causality)
                    .expect("analysis built this model")
                    .demand_stats()
                    .expect("the CAFA config answers through the demand engine")
                    .premises;
            } else {
                let stats = report
                    .stats
                    .partition
                    .expect("auto partitioning engages on multi-island scale tiers");
                (islands, batches) = (stats.islands, stats.batches);
            }
            let json = render_json(&report, &app.trace);
            match &reference {
                None => reference = Some(json),
                Some(r) => assert!(
                    *r == json,
                    "--partition {name} report drifted from monolithic at {threads} thread(s)"
                ),
            }
        }
        timings.push(Timing {
            partition: name,
            threads,
            runs_s,
        });
    }

    ScaleRow {
        label: format!("scale/{target_events}"),
        events: app.events,
        islands,
        batches,
        premises,
        timings,
    }
}

/// The host's available parallelism, as recorded in the JSON.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` without running git;
/// `"unavailable"` outside a checkout.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unavailable".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(r) => read(r)
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or("").to_owned())
            })
            .map_or("unavailable".to_owned(), |s| s.trim().to_owned()),
    }
}

/// Runs the sweep and, unless `quick`, writes `BENCH_scale.json`.
///
/// # Panics
///
/// Panics if analysis fails, any report drifts from the monolithic
/// reference, rule work per event grows with trace size, the
/// multi-threaded median is not below the single-threaded one on a
/// multi-core host, or the JSON write fails.
pub fn main(quick: bool) {
    let cpus = host_cpus();
    let tiers: &[usize] = if quick { &TIERS[..1] } else { &TIERS };
    println!(
        "scale sweep — demand engine + island partitioning \
         ({cpus} host cpu(s), {REPS} reps: median [p10, p90] s)"
    );
    println!(
        "{:>14} {:>9} {:>8} {:>8} {:>10} {:>8}",
        "tier", "events", "islands", "batches", "premises", "prem/ev"
    );
    let mut rows = Vec::new();
    for &tier in tiers {
        let row = measure(tier, quick);
        println!(
            "{:>14} {:>9} {:>8} {:>8} {:>10} {:>8.2}",
            row.label,
            row.events,
            row.islands,
            row.batches,
            row.premises,
            row.premises_per_event(),
        );
        for t in &row.timings {
            println!(
                "{:>14}   --partition {:<4} --threads {}: {:.3} [{:.3}, {:.3}]",
                "",
                t.partition,
                t.threads,
                percentile(&t.runs_s, 0.5),
                percentile(&t.runs_s, 0.1),
                percentile(&t.runs_s, 0.9),
            );
        }
        rows.push(row);
    }
    for pair in rows.windows(2) {
        let (small, large) = (&pair[0], &pair[1]);
        // Flat-or-decreasing with a 10% noise allowance.
        assert!(
            large.premises_per_event() <= small.premises_per_event() * 1.10,
            "rule work per event grew {} → {}: {:.2} → {:.2}",
            small.label,
            large.label,
            small.premises_per_event(),
            large.premises_per_event()
        );
    }
    if !quick && cpus >= 2 {
        // On a multi-core host the partitioned sweep must actually
        // scale: the best multi-threaded median strictly below the
        // single-threaded one on the largest tier.
        let largest = rows.last().expect("at least one tier");
        let single = largest
            .auto_median_s(1)
            .expect("full sweep measures 1 thread");
        let best = SWEEP_THREADS[1..]
            .iter()
            .filter_map(|&n| largest.auto_median_s(n))
            .min_by(f64::total_cmp)
            .expect("full sweep measures 2/8");
        assert!(
            best < single,
            "{}: multi-threaded partitioned analyze ({best:.3}s) not below single-threaded ({single:.3}s) on a {cpus}-cpu host",
            largest.label
        );
    }

    if quick {
        // Smoke mode (CI): one tier only — don't clobber the full
        // sweep's BENCH_scale.json with a truncated document.
        println!("\nquick smoke ok (BENCH_scale.json left untouched)");
    } else {
        let json = render_bench_json(&rows, cpus, &git_sha());
        std::fs::write("BENCH_scale.json", json).expect("write BENCH_scale.json");
        println!("\nwrote BENCH_scale.json");
    }
}

/// Renders the sweep as a stable JSON document.
fn render_bench_json(rows: &[ScaleRow], cpus: usize, sha: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": \"{SCHEMA_VERSION}\",");
    let _ = writeln!(out, "  \"git_sha\": \"{sha}\",");
    let _ = writeln!(out, "  \"host_cpus\": {cpus},");
    let _ = writeln!(out, "  \"reps\": {REPS},");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    out.push_str("  \"tiers\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"label\": \"{}\",", r.label);
        let _ = writeln!(out, "      \"events\": {},", r.events);
        let _ = writeln!(out, "      \"islands\": {},", r.islands);
        let _ = writeln!(out, "      \"batches\": {},", r.batches);
        let _ = writeln!(
            out,
            "      \"premises_per_event\": {:.4},",
            r.premises_per_event()
        );
        out.push_str("      \"timings\": [\n");
        for (j, t) in r.timings.iter().enumerate() {
            let comma = if j + 1 < r.timings.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "        {{\"partition\": \"{}\", \"threads\": {}, \"median_s\": {:.4}, \
                 \"p10_s\": {:.4}, \"p90_s\": {:.4}}}{comma}",
                t.partition,
                t.threads,
                percentile(&t.runs_s, 0.5),
                percentile(&t.runs_s, 0.1),
                percentile(&t.runs_s, 0.9),
            );
        }
        out.push_str("      ]\n");
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_one_rep_are_that_rep() {
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(percentile(&[0.25], q), 0.25);
        }
    }

    #[test]
    fn percentiles_interpolate_between_ranks_of_an_even_count() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&s, 0.5) - 2.5).abs() < 1e-12);
        assert!((percentile(&s, 0.1) - 1.3).abs() < 1e-12);
        assert!((percentile(&s, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn percentiles_ignore_input_order() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert!((percentile(&s, 0.1) - 1.4).abs() < 1e-12);
        assert!((percentile(&s, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn record_carries_the_header_and_every_timing_field() {
        let timing = |partition, threads| Timing {
            partition,
            threads,
            runs_s: vec![0.3, 0.1, 0.2],
        };
        let row = ScaleRow {
            label: "scale/100".to_owned(),
            events: 100,
            islands: 3,
            batches: 2,
            premises: 12,
            timings: vec![timing("off", 1), timing("auto", 1), timing("auto", 2)],
        };
        let json = render_bench_json(&[row], 2, "abc123");
        for field in [
            format!("\"schema_version\": \"{SCHEMA_VERSION}\""),
            "\"git_sha\": \"abc123\"".to_owned(),
            "\"host_cpus\": 2".to_owned(),
            format!("\"reps\": {REPS}"),
            "\"premises_per_event\": 0.1200".to_owned(),
        ] {
            assert!(json.contains(&field), "missing {field} in\n{json}");
        }
        let entries: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"partition\""))
            .collect();
        assert_eq!(entries.len(), 3);
        for entry in entries {
            for field in ["\"threads\": ", "\"median_s\": 0.2000", "\"p10_s\": 0.1200"] {
                assert!(entry.contains(field), "missing {field} in {entry}");
            }
            assert!(entry.contains("\"p90_s\": 0.2800"), "{entry}");
        }
    }
}
