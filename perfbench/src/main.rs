//! `perfbench`: the CAFA-rs end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-batch --seed 0 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root (golden files are read relative to it).
//! Each run sets its workload up several times (reporting the median
//! set-up time), then runs a fixed number of closed-loop passes over the
//! workload's corpus with analysis pinned to one thread, checking every
//! verdict. End-to-end timings are scaled by the host's speed around
//! them (see `host.rs`). The last line of standard output is one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See `perfbench/README.md` for the workloads
//! and the layer-to-metric map.

mod batch;
mod host;
mod predict;
mod serve;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use host::Probe;
use spans::{layer_self_times, Tracer};
use stats::Sample;
use workload::{Counters, Workload};

/// Input preparations per run; `setup_s` uses their median.
const SETUP_REPS: usize = 3;

/// Measurement stops after the pass that crosses this, whatever the
/// planned pass count (a guard against a much slower build).
const MEASURE_CAP: Duration = Duration::from_secs(120);

/// Where runs leave span files and the server's journal directory.
const OUT_DIR: &str = "perfbench-out";

/// One workload's fixed work: `passes(seconds)` corpus passes.
struct Spec {
    name: &'static str,
    /// Corpus passes per requested second, calibrated on a 2-cpu host.
    passes_per_second: f64,
}

/// Fewest passes a run makes, so each trace's median time has a few
/// samples behind it.
const MIN_PASSES: usize = 3;

impl Spec {
    fn passes(&self, seconds: u64) -> usize {
        ((seconds as f64 * self.passes_per_second).round() as usize).max(MIN_PASSES)
    }
}

const SPECS: [Spec; 4] = [
    Spec {
        name: "paper-batch",
        passes_per_second: 6.0,
    },
    Spec {
        name: "fleet-1m",
        passes_per_second: 1.2,
    },
    Spec {
        name: "serve-stream",
        passes_per_second: 0.5,
    },
    Spec {
        name: "predict-both",
        passes_per_second: 0.3,
    },
];

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("throughput_events_per_s", "events/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name, unit, and which way is better.
const PER_LAYER: [(&str, &str, &str); 48] = [
    ("trace.decode_ms", "ms", "lower"),
    ("trace.decode_mib_per_s", "MiB/s", "higher"),
    ("trace.records", "count", "lower"),
    ("engine.partition_ms", "ms", "lower"),
    ("engine.islands", "count", "higher"),
    ("engine.batches", "count", "lower"),
    ("engine.extract_ms", "ms", "lower"),
    ("engine.mem_ops", "count", "lower"),
    ("hb.build_ms", "ms", "lower"),
    ("hb.queries", "count", "lower"),
    ("hb.premises", "count", "lower"),
    ("hb.edges_materialized", "count", "lower"),
    ("hb.rule_instances", "count", "lower"),
    ("hb.premises_per_query", "ratio", "lower"),
    ("core.analyze_ms", "ms", "lower"),
    ("core.candidates_ms", "ms", "lower"),
    ("core.filters_ms", "ms", "lower"),
    ("core.baseline_hb_ms", "ms", "lower"),
    ("core.classify_ms", "ms", "lower"),
    ("core.merge_ms", "ms", "lower"),
    ("core.render_ms", "ms", "lower"),
    ("core.candidate_pairs", "count", "lower"),
    ("core.races", "count", "lower"),
    ("core.filtered", "count", "lower"),
    ("core.races_per_candidate", "ratio", "higher"),
    ("stream.push_ms", "ms", "lower"),
    ("stream.finish_ms", "ms", "lower"),
    ("stream.derives", "count", "lower"),
    ("stream.backpressure_flushes", "count", "lower"),
    ("stream.footprint_mb", "MB", "lower"),
    ("fleetserve.send_ms", "ms", "lower"),
    ("fleetserve.report_wait_ms", "ms", "lower"),
    ("fleetserve.overhead_ms", "ms", "lower"),
    ("fleetserve.journal_bytes", "bytes", "lower"),
    ("predict.build_ms", "ms", "lower"),
    ("predict.candidates_ms", "ms", "lower"),
    ("predict.derived_edges", "count", "lower"),
    ("predict.extras", "count", "lower"),
    ("replay.adjudicate_ms", "ms", "lower"),
    ("replay.runs", "count", "lower"),
    ("replay.confirmed", "count", "higher"),
    ("replay.false_positives", "count", "lower"),
    ("replay.confirmed_per_run", "ratio", "higher"),
    ("setup.record_s", "s", "lower"),
    ("setup.generate_s", "s", "lower"),
    ("setup.encode_s", "s", "lower"),
    ("bench.layer_coverage_pct", "%", "higher"),
    ("bench.traced_throughput_ratio", "ratio", "higher"),
];

/// Time spent in the parts of one set-up that have their own metric.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Recording apps in the simulator.
    pub record_s: f64,
    /// Generating the scale tier.
    pub generate_s: f64,
    /// Encoding traces to binary.
    pub encode_s: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad number `{v}`"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = number(value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn setup(
    name: &str,
    seed: u64,
    rep: usize,
    times: &mut SetupTimes,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper-batch" => Box::new(batch::Batch::paper(seed, times)?),
        "fleet-1m" => Box::new(batch::Batch::fleet(seed, times)?),
        "serve-stream" => {
            let dir = Path::new(OUT_DIR).join(format!("serve-state-{}-{rep}", std::process::id()));
            Box::new(serve::Serve::new(seed, dir, times)?)
        }
        "predict-both" => Box::new(predict::Predict::new(seed, times)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// What the measured passes produced.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    /// Events and summed operation time, untraced and traced.
    events: [usize; 2],
    op_time: [Duration; 2],
    /// Untraced operations that passed their check, each with its
    /// start in seconds from the probe's epoch.
    samples: Vec<(f64, Sample)>,
    traced_ops: usize,
    traced_passes: usize,
}

fn measure(
    spec: &Spec,
    w: &mut dyn Workload,
    passes: usize,
    trace: bool,
    tracer: &mut Tracer,
    counters: &mut Counters,
    probe: &mut Probe,
) -> Tally {
    let mut tally = Tally::default();
    let start = Instant::now();
    for pass in 0..passes {
        // The traced run alternates traced and untraced passes, so the
        // tracing overhead is measured on the same process and inputs.
        let traced = trace && pass % 2 == 0;
        tracer.set_on(traced);
        let mut discarded = Counters::default();
        let c = if traced { &mut *counters } else { &mut discarded };
        for i in 0..w.len() {
            tracer.set_scope(|| format!("{}/p{pass}/{}", spec.name, w.label(i)));
            tracer.open("bench.op");
            let from = Instant::now();
            let verdict = w.run(i, tracer, c);
            let took = from.elapsed();
            tracer.close();
            tally.attempted += 1;
            match verdict {
                Ok(v) if v.passed => {
                    tally.events[traced as usize] += v.events;
                    tally.op_time[traced as usize] += took;
                    if !traced {
                        let sample = Sample {
                            item: i,
                            events: v.events,
                            secs: took.as_secs_f64(),
                        };
                        tally.samples.push((probe.offset(from), sample));
                    }
                }
                Ok(_) => {
                    eprintln!("perfbench: {} pass {pass}: wrong verdict", w.label(i));
                    tally.failed += 1;
                }
                Err(e) => {
                    eprintln!("perfbench: {} pass {pass}: {e}", w.label(i));
                    tally.failed += 1;
                }
            }
            if traced {
                tally.traced_ops += 1;
                tracer.open("bench.extra");
                if let Err(e) = w.trace_extra(i, tracer, c) {
                    eprintln!("perfbench: {} traced replay: {e}", w.label(i));
                    tally.failed += 1;
                }
                tracer.close();
            }
            probe.tick();
        }
        tally.traced_passes += traced as usize;
        if start.elapsed() > MEASURE_CAP {
            eprintln!("perfbench: stopped after {} of {passes} passes", pass + 1);
            break;
        }
    }
    tracer.set_on(false);
    tally
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// The checked-out commit, read from `.git` without running git.
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

fn per_layer(
    tracer: &Tracer,
    counters: &Counters,
    tally: &Tally,
    setup: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let spans = tracer.spans();
    let ops = tally.traced_ops.max(1) as f64;
    let passes = tally.traced_passes.max(1) as f64;
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();

    let mut inclusive: BTreeMap<&str, Duration> = BTreeMap::new();
    for s in spans {
        *inclusive.entry(s.name).or_default() += s.duration();
    }
    let ms = |name: &str| inclusive.get(name).map(|d| d.as_secs_f64() * 1e3);
    for &(metric, unit, _) in &PER_LAYER {
        if let Some(stem) = metric.strip_suffix("_ms").filter(|_| unit == "ms") {
            if let Some(v) = ms(stem) {
                out.insert(metric, v / ops);
            }
        } else if let Some(&v) = counters.0.get(metric) {
            let gauge = metric == "stream.footprint_mb";
            out.insert(metric, if gauge { v } else { v / passes });
        }
    }
    let count = |name: &str| counters.0.get(name).copied();
    let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };
    let derived = [
        (
            "trace.decode_mib_per_s",
            ratio(
                count("trace.bytes").map(|b| b / (1u64 << 20) as f64),
                ms("trace.decode").map(|v| v / 1e3),
            ),
        ),
        (
            "hb.premises_per_query",
            ratio(count("hb.premises"), count("hb.queries")),
        ),
        (
            "core.races_per_candidate",
            ratio(count("core.races"), count("core.candidate_pairs")),
        ),
        (
            "replay.confirmed_per_run",
            ratio(count("replay.confirmed"), count("replay.runs")),
        ),
        (
            "fleetserve.overhead_ms",
            match (ms("stream.push"), ms("stream.finish"), ms("bench.op")) {
                (Some(push), Some(finish), Some(op)) => Some((op - push - finish) / ops),
                _ => None,
            },
        ),
    ];
    for (metric, v) in derived {
        if let Some(v) = v {
            out.insert(metric, v);
        }
    }
    for (&metric, &v) in setup {
        if v > 0.0 {
            out.insert(metric, v);
        }
    }

    if !spans.is_empty() {
        let layers = layer_self_times(spans);
        let roots: Duration = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(spans::Span::duration)
            .sum();
        let bench = layers.get("bench").copied().unwrap_or_default();
        out.insert(
            "bench.layer_coverage_pct",
            100.0 * (1.0 - bench.as_secs_f64() / roots.as_secs_f64()),
        );
        let rate = |k: usize| tally.events[k] as f64 / tally.op_time[k].as_secs_f64();
        if !tally.op_time[0].is_zero() && !tally.op_time[1].is_zero() {
            out.insert("bench.traced_throughput_ratio", rate(1) / rate(0));
        }
        let mut line = String::from("perfbench: layer self time");
        for (layer, d) in &layers {
            let _ = write!(
                line,
                " {layer}={:.1}%",
                100.0 * d.as_secs_f64() / roots.as_secs_f64()
            );
        }
        println!("{line}");
    }
    out.retain(|_, v| v.is_finite());
    out
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let spec = SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            format!(
                "unknown workload `{}` (valid: {})",
                args.workload,
                names.join(", ")
            )
        })?;
    // Golden files are read relative to the repository root.
    if !Path::new("tests/golden").is_dir() {
        return Err("run from the repository root (tests/golden not found)".to_owned());
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    // Prepare the inputs several times (each replacing the previous),
    // then warm up once: `setup_s` is the median preparation time plus
    // the warm-up pass, each scaled by the host slowdown around it.
    let mut probe = Probe::new(Instant::now());
    let scaled = |probe: &Probe, t0: Instant| {
        let (from, to) = (probe.offset(t0), probe.offset(Instant::now()));
        ((to - from), (to - from) / probe.slowdown(from, to))
    };
    let mut prep = Vec::new();
    let mut parts: Vec<SetupTimes> = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    for rep in 0..SETUP_REPS {
        drop(w.take());
        probe.tick();
        let t0 = Instant::now();
        let mut times = SetupTimes::default();
        w = Some(setup(spec.name, args.seed, rep, &mut times)?);
        probe.tick();
        prep.push(scaled(&probe, t0));
        parts.push(times);
    }
    let mut w = w.expect("at least one set-up");
    let t0 = Instant::now();
    let mut off = Tracer::new(false);
    for i in 0..w.len() {
        let _ = w.run(i, &mut off, &mut Counters::default());
        probe.tick();
    }
    let warm = scaled(&probe, t0);
    let prep_median = |f: fn(&(f64, f64)) -> f64| {
        stats::median(&prep.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let setup_raw = prep_median(|p| p.0) + warm.0;
    let setup_s = prep_median(|p| p.1) + warm.1;
    let med = |f: fn(&SetupTimes) -> f64| {
        stats::median(&parts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let setup_parts = BTreeMap::from([
        ("setup.record_s", med(|t| t.record_s)),
        ("setup.generate_s", med(|t| t.generate_s)),
        ("setup.encode_s", med(|t| t.encode_s)),
    ]);

    let passes = spec.passes(args.seconds);
    let mut tracer = Tracer::new(false);
    let mut counters = Counters::default();
    let tally = measure(
        spec,
        w.as_mut(),
        passes,
        args.trace,
        &mut tracer,
        &mut counters,
        &mut probe,
    );
    drop(w);

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "perfbench: provenance {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
         \"host_cpus\": {host_cpus}, \"git_sha\": \"{}\", \"analysis_threads\": 1, \
         \"passes\": {passes}, \"samples\": {}, \"setup_reps\": {SETUP_REPS}}}",
        spec.name,
        args.seed,
        u8::from(args.trace),
        git_sha(),
        tally.attempted,
    );
    println!(
        "perfbench: failed_fraction {} ({} of {})",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let spans_path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.jsonl", spec.name, args.seed));
        std::fs::write(&spans_path, tracer.to_jsonl())
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        let values = per_layer(&tracer, &counters, &tally, &setup_parts);
        let unavailable: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.0)
            .filter(|m| !values.contains_key(m))
            .collect();
        if let Some(r) = values.get("bench.traced_throughput_ratio") {
            println!(
                "perfbench: tracing overhead {:.1}% (traced vs untraced throughput)",
                (1.0 / r - 1.0) * 100.0
            );
        }
        println!(
            "perfbench: spans written to {}; unavailable on this path (reported as 0): {}",
            spans_path.display(),
            if unavailable.is_empty() {
                "none".to_owned()
            } else {
                unavailable.join(", ")
            }
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let raw: Vec<Sample> = tally.samples.iter().map(|s| s.1).collect();
        let scaled: Vec<Sample> = tally
            .samples
            .iter()
            .map(|&(at, s)| Sample {
                secs: s.secs / probe.slowdown(at, at + s.secs),
                ..s
            })
            .collect();
        let ms = |v: &[Sample]| -> Vec<f64> { v.iter().map(|s| s.secs * 1e3).collect() };
        let (lat, raw_lat) = (ms(&scaled), ms(&raw));
        if let Some(p90) = stats::percentile(&lat, 90.0) {
            println!("perfbench: latency_p90_ms {p90} over {} samples", lat.len());
        }
        println!(
            "perfbench: unscaled throughput_events_per_s {} latency_p50_ms {} setup_s {}; \
             host slowdown {} over the run ({} kernel runs)",
            stats::pass_throughput(&raw).unwrap_or(0.0),
            stats::median(&raw_lat).unwrap_or(0.0),
            setup_raw,
            probe.slowdown(0.0, f64::MAX),
            probe.runs(),
        );
        let values = [
            stats::pass_throughput(&scaled).unwrap_or(0.0),
            stats::median(&lat).unwrap_or(0.0),
            setup_s,
            peak_rss_mb().unwrap_or(0.0),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    debug_assert!(metrics.iter().all(|m| stats::valid_metric_name(m.0)));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    #[test]
    fn benchmark_manifest_lists_every_metric() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(manifest.contains(&entry), "missing {entry}");
        }
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
            assert!(manifest.contains(&entry), "missing {entry}");
        }
        for spec in &SPECS {
            assert!(manifest.contains(&format!("\"name\": \"{}\"", spec.name)));
        }
    }

    #[test]
    fn pass_counts_are_fixed_by_the_arguments() {
        let fleet = &SPECS[1];
        assert_eq!(fleet.passes(0), MIN_PASSES);
        assert_eq!(fleet.passes(10), 12);
        assert_eq!(SPECS[0].passes(10), 60);
    }
}
