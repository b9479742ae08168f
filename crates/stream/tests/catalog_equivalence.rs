//! Streaming analysis of the catalog apps is byte-identical to batch.
//!
//! The chunk-invariance guarantee: for every catalog trace, pushing
//! the serialized bytes through an [`IncrementalSession`] — at any
//! chunk size, in either wire format — yields the exact JSON report
//! that batch `cafa analyze` produces. These tests pin that end to end on the real workloads;
//! `ci.sh` repeats the check through the CLI binary.

use cafa_apps::all_apps;
use cafa_core::json::render_json;
use cafa_core::{Analyzer, DetectorConfig};
use cafa_stream::{IncrementalSession, StreamOptions};
use cafa_trace::{to_binary_vec, to_text_string, Trace};

/// Streams `bytes` at `chunk` and renders the final JSON report.
fn streamed_json(bytes: &[u8], chunk: usize, opts: StreamOptions) -> String {
    let mut session = IncrementalSession::new(opts);
    for c in bytes.chunks(chunk) {
        session.push(c).expect("valid stream");
    }
    let out = session.finish().expect("valid trace");
    render_json(&out.report, &out.trace)
}

/// The batch reference: direct analysis of the in-memory trace.
fn batch_json(trace: &Trace) -> String {
    let report = Analyzer::new().analyze(trace).expect("analysis succeeds");
    render_json(&report, trace)
}

/// Batch analysis at an explicit worker count.
fn batch_json_threads(trace: &Trace, threads: usize) -> String {
    let config = DetectorConfig {
        threads,
        ..DetectorConfig::cafa()
    };
    let report = Analyzer::with_config(config)
        .analyze(trace)
        .expect("analysis succeeds");
    render_json(&report, trace)
}

/// Every catalog app: the single-worker batch report is the reference;
/// a multi-worker batch run and a streamed run at yet another worker
/// count must be byte-identical to it.
#[test]
fn all_apps_stream_identical_to_batch_at_any_thread_count() {
    for app in all_apps() {
        let outcome = app.record(0).expect("workload records cleanly");
        let trace = outcome.trace.expect("instrumentation is on");
        let expected = batch_json_threads(&trace, 1);
        assert_eq!(
            batch_json_threads(&trace, 2),
            expected,
            "app {} at 2 workers",
            app.name
        );
        let mut opts = StreamOptions::default();
        opts.detector.threads = 8;
        let streamed = streamed_json(&to_binary_vec(&trace), 4096, opts);
        assert_eq!(streamed, expected, "app {} streamed", app.name);
    }
}

/// The full matrix — both formats, chunk sizes down to a single byte —
/// on two apps, to bound debug-mode runtime.
#[test]
fn chunk_size_and_format_never_change_the_report() {
    for app in all_apps().into_iter().take(2) {
        let outcome = app.record(0).expect("workload records cleanly");
        let trace = outcome.trace.expect("instrumentation is on");
        let expected = batch_json(&trace);
        let encodings = [to_binary_vec(&trace), to_text_string(&trace).into_bytes()];
        for bytes in &encodings {
            for chunk in [1usize, 13, 4096] {
                let streamed = streamed_json(bytes, chunk, StreamOptions::default());
                assert_eq!(streamed, expected, "app {} chunk {chunk}", app.name);
            }
        }
    }
}

/// Dropping a session mid-trace and rebuilding it with
/// [`IncrementalSession::restore`] from the exact chunks it had
/// ingested yields an equivalent session: pushing the same suffix
/// produces a byte-identical final report, and the progress counters
/// resume where the original left off.
#[test]
fn restore_replays_to_an_equivalent_session() {
    for app in all_apps().into_iter().take(3) {
        let outcome = app.record(0).expect("workload records cleanly");
        let trace = outcome.trace.expect("instrumentation is on");
        let expected = batch_json(&trace);
        let bytes = to_binary_vec(&trace);
        let cut = bytes.len() / 2;
        let prefix: Vec<&[u8]> = bytes[..cut].chunks(700).collect();
        let mut session = IncrementalSession::restore(StreamOptions::default(), prefix)
            .expect("journal replays cleanly");
        assert_eq!(session.progress().bytes, cut as u64, "app {}", app.name);
        for c in bytes[cut..].chunks(700) {
            session.push(c).expect("valid suffix");
        }
        let out = session.finish().expect("valid trace");
        assert_eq!(
            render_json(&out.report, &out.trace),
            expected,
            "app {} restored at byte {cut}",
            app.name
        );
    }
}
