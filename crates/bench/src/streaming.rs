//! Streaming-ingestion benchmark: decode throughput and per-pass times.
//!
//! Measures, on the largest catalog workload:
//!
//! * raw [`StreamDecoder`] throughput for both wire formats;
//! * end-to-end [`IncrementalSession`] time with its per-pass
//!   wall-time breakdown: `stream-decode` while pushing, then the batch
//!   analysis passes `finish` runs.
//!
//! Alongside the text output, [`main`] writes the measurements to
//! `BENCH_streaming.json` in the current directory.

use std::time::{Duration, Instant};

use cafa_apps::{all_apps, AppSpec};
use cafa_stream::{IncrementalSession, StreamOptions};
use cafa_trace::{to_binary_vec, to_text_string, StreamDecoder};

/// Timing iterations; the minimum is reported.
const ITERS: usize = 3;

/// One format's decode measurement.
#[derive(Clone, Copy, Debug)]
pub struct DecodeMeasurement {
    /// Serialized size in bytes.
    pub bytes: usize,
    /// Best-of-[`ITERS`] wall time for a full chunked decode.
    pub wall: Duration,
}

impl DecodeMeasurement {
    /// Throughput in MiB/s.
    pub fn mib_per_s(&self) -> f64 {
        self.bytes as f64 / (1 << 20) as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Decodes `bytes` through the chunked stream decoder, timed.
fn time_decode(bytes: &[u8], chunk: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..ITERS {
        let start = Instant::now();
        let mut d = StreamDecoder::new();
        for c in bytes.chunks(chunk) {
            d.push(c).expect("valid stream");
        }
        let trace = d.finish().expect("valid trace");
        let wall = start.elapsed();
        assert!(trace.task_count() > 0);
        best = best.min(wall);
    }
    best
}

/// Picks the catalog app with the most events — the heaviest trace.
fn heaviest_app() -> AppSpec {
    all_apps()
        .into_iter()
        .max_by_key(|a| a.expected.events)
        .expect("catalog is non-empty")
}

/// Runs the benchmark and writes `BENCH_streaming.json`.
///
/// # Panics
///
/// Panics if recording, analysis, or the JSON write fails.
pub fn main() {
    let app = heaviest_app();
    let outcome = app.record(0).expect("workload records cleanly");
    let trace = outcome.trace.expect("instrumentation is on");
    let binary = to_binary_vec(&trace);
    let text = to_text_string(&trace).into_bytes();

    println!("Streaming ingestion benchmark — app {}", app.name);
    let bin_decode = DecodeMeasurement {
        bytes: binary.len(),
        wall: time_decode(&binary, 64 << 10),
    };
    let text_decode = DecodeMeasurement {
        bytes: text.len(),
        wall: time_decode(&text, 64 << 10),
    };
    println!(
        "decode throughput: binary {:.1} MiB/s ({} bytes), text {:.1} MiB/s ({} bytes)",
        bin_decode.mib_per_s(),
        bin_decode.bytes,
        text_decode.mib_per_s(),
        text_decode.bytes
    );

    // End-to-end streaming analysis with per-pass times.
    let mut session = IncrementalSession::new(StreamOptions::default());
    let e2e_start = Instant::now();
    for c in binary.chunks(64 << 10) {
        session.push(c).expect("valid stream");
    }
    let streamed = session.finish().expect("valid trace");
    let e2e = e2e_start.elapsed();
    println!(
        "end-to-end streaming analysis: {:.3}s ({} races)",
        e2e.as_secs_f64(),
        streamed.report.races.len(),
    );
    let mut passes = streamed.passes;
    passes
        .records
        .extend_from_slice(&streamed.report.stats.passes.records);
    println!("streaming passes:");
    print!("{}", passes.render());

    let json = render_json(&app.name, &bin_decode, &text_decode, e2e, &passes);
    std::fs::write("BENCH_streaming.json", json).expect("write BENCH_streaming.json");
    println!("wrote BENCH_streaming.json");
}

/// Renders the measurements as a stable JSON document.
fn render_json(
    app: &str,
    bin: &DecodeMeasurement,
    text: &DecodeMeasurement,
    e2e: Duration,
    passes: &cafa_engine::PassStats,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"app\": \"{app}\",");
    let _ = writeln!(out, "  \"decode\": {{");
    let _ = writeln!(
        out,
        "    \"binary\": {{\"bytes\": {}, \"seconds\": {:.6}, \"mib_per_s\": {:.2}}},",
        bin.bytes,
        bin.wall.as_secs_f64(),
        bin.mib_per_s()
    );
    let _ = writeln!(
        out,
        "    \"text\": {{\"bytes\": {}, \"seconds\": {:.6}, \"mib_per_s\": {:.2}}}",
        text.bytes,
        text.wall.as_secs_f64(),
        text.mib_per_s()
    );
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"end_to_end_seconds\": {:.6},", e2e.as_secs_f64());
    out.push_str("  \"passes\": [\n");
    for (i, r) in passes.records.iter().enumerate() {
        let comma = if i + 1 < passes.records.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"seconds\": {:.6}, \"items\": {}}}{comma}",
            r.name,
            r.wall.as_secs_f64(),
            r.items
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
