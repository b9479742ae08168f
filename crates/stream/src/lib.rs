//! Streaming trace ingestion.
//!
//! The batch pipeline — `read_binary`/`read_text`, then
//! [`Analyzer::analyze`](cafa_core::Analyzer) — needs the whole trace
//! in memory before it starts. This crate accepts the trace while it
//! is still arriving:
//!
//! * [`StreamDecoder`](cafa_trace::StreamDecoder) (from `cafa-trace`)
//!   turns arbitrary byte chunks of either wire format into decode
//!   milestones;
//! * [`IncrementalSession`] (here) decodes each pushed chunk and, at
//!   end of stream, runs the unmodified batch pipeline — island
//!   partitioning and the demand query engine — over the decoded
//!   trace, so the final report is **byte-identical** to the batch
//!   analyzer's by construction.
//!
//! # Examples
//!
//! ```
//! use cafa_stream::{IncrementalSession, StreamOptions};
//! use cafa_trace::{to_binary_vec, DerefKind, ObjId, Pc, TraceBuilder, VarId};
//!
//! let mut b = TraceBuilder::new("demo");
//! let app = b.add_process();
//! let q = b.add_queue(app);
//! let svc = b.add_process();
//! let ipc = b.add_thread(svc, "binder");
//! let user = b.post(ipc, q, "onServiceConnected", 0);
//! let killer = b.external(q, "onDestroy");
//! b.process_event(user);
//! b.obj_read(user, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x10));
//! b.deref(user, ObjId::new(1), Pc::new(0x14), DerefKind::Invoke);
//! b.process_event(killer);
//! b.obj_write(killer, VarId::new(0), None, Pc::new(0x20));
//! let bytes = to_binary_vec(&b.finish().unwrap());
//!
//! let mut session = IncrementalSession::new(StreamOptions::default());
//! for chunk in bytes.chunks(7) {
//!     session.push(chunk).unwrap();
//! }
//! let outcome = session.finish().unwrap();
//! assert_eq!(outcome.report.races.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::time::Instant;

use cafa_core::{Analyzer, DetectorConfig, RaceReport};
use cafa_engine::{AnalysisSession, PassStats};
use cafa_hb::HbError;
use cafa_trace::{ReadError, StreamDecoder, StreamEvent, Trace};

/// Approximate in-memory cost of one decoded trace record held by the
/// growing [`Trace`]: the record itself plus its share of the body
/// vector. Used by [`IncrementalSession::footprint_bytes`].
const TRACE_RECORD_COST: usize = 48;

/// Configuration for an [`IncrementalSession`].
#[derive(Clone, Copy, Debug)]
pub struct StreamOptions {
    /// Detector configuration for the report.
    pub detector: DetectorConfig,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            detector: DetectorConfig::cafa(),
        }
    }
}

/// An error from streaming analysis: either the byte stream is not a
/// valid trace, or the happens-before relation over it is inconsistent.
/// Both carry the same error batch analysis of the same bytes returns.
#[derive(Debug)]
pub enum StreamError {
    /// The wire stream failed to decode or validate.
    Read(ReadError),
    /// The happens-before relation cannot be built (e.g. it is cyclic).
    Hb(HbError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Read(e) => write!(f, "stream decode: {e}"),
            Self::Hb(e) => write!(f, "analysis: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Read(e) => Some(e),
            Self::Hb(e) => Some(e),
        }
    }
}

impl From<ReadError> for StreamError {
    fn from(e: ReadError) -> Self {
        Self::Read(e)
    }
}

impl From<HbError> for StreamError {
    fn from(e: HbError) -> Self {
        Self::Hb(e)
    }
}

/// Counters describing how a stream was ingested.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamProgress {
    /// Bytes pushed so far.
    pub bytes: u64,
    /// Chunks pushed so far.
    pub chunks: u64,
    /// Records appended to the trace so far.
    pub records: u64,
    /// Tasks whose bodies are complete.
    pub tasks_sealed: usize,
    /// Always 0: sessions no longer extend a fixpoint while ingesting.
    /// Kept so existing consumers of the counters still compile.
    pub derives: u32,
    /// Always 0: decoding keeps no un-derived backlog to flush. Kept so
    /// existing consumers of the counters still compile.
    pub backpressure_flushes: u64,
}

/// The result of a completed streaming analysis.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// The fully decoded, validated trace.
    pub trace: Trace,
    /// The race report — identical to what
    /// [`Analyzer::analyze`](cafa_core::Analyzer::analyze) produces on
    /// [`trace`](StreamOutcome::trace).
    pub report: RaceReport,
    /// Ingestion counters.
    pub progress: StreamProgress,
    /// Wall time and item counts of the `stream-decode` pass,
    /// accumulated across all pushes. The analysis's own passes are in
    /// the report's `stats.passes`.
    pub passes: PassStats,
}

/// Ingestion state over a trace that is still arriving.
///
/// Feed byte chunks with [`push`](IncrementalSession::push) in any
/// sizes; the resulting analysis is chunk-invariant. At end of stream,
/// [`finish`](IncrementalSession::finish) runs the batch pipeline and
/// so produces the same [`RaceReport`] a batch analysis of the
/// completed trace does.
#[derive(Debug)]
pub struct IncrementalSession {
    opts: StreamOptions,
    decoder: StreamDecoder,
    progress: StreamProgress,
    passes: PassStats,
    events: Vec<StreamEvent>,
}

impl IncrementalSession {
    /// A session ready for the first chunk.
    pub fn new(opts: StreamOptions) -> Self {
        Self {
            opts,
            decoder: StreamDecoder::new(),
            progress: StreamProgress::default(),
            passes: PassStats::default(),
            events: Vec::new(),
        }
    }

    /// The options the session was created with.
    pub fn options(&self) -> &StreamOptions {
        &self.opts
    }

    /// Ingestion counters so far.
    pub fn progress(&self) -> StreamProgress {
        self.progress
    }

    /// True once the full trace has been received.
    pub fn is_complete(&self) -> bool {
        self.decoder.is_complete()
    }

    /// Modeled resident footprint of the whole session, in bytes: the
    /// decoder's buffer and the decoded trace so far. A deterministic
    /// accounting estimate — the currency a multi-tenant server's
    /// memory budget and eviction policy are denominated in — not an
    /// allocator measurement.
    pub fn footprint_bytes(&self) -> usize {
        self.decoder.buffered_bytes() + self.progress.records as usize * TRACE_RECORD_COST
    }

    /// Rebuilds a session by replaying the exact byte chunks a
    /// previous session ingested (e.g. from an on-disk journal), then
    /// continues accepting new chunks.
    ///
    /// Because analysis is chunk-invariant and session state is a pure
    /// function of the bytes ingested so far, the restored
    /// session is *equivalent* to the one that was dropped: feeding
    /// both the same suffix produces byte-identical final reports, and
    /// replaying the original chunk boundaries reproduces the progress
    /// counters too.
    ///
    /// # Errors
    ///
    /// As for [`push`](IncrementalSession::push) — a journal that
    /// replays with an error was recorded from a malformed stream.
    pub fn restore<'a, I>(opts: StreamOptions, chunks: I) -> Result<Self, StreamError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut session = Self::new(opts);
        for chunk in chunks {
            session.push(chunk)?;
        }
        Ok(session)
    }

    /// Consumes one chunk: decodes it into the growing trace.
    ///
    /// # Errors
    ///
    /// [`StreamError::Read`] as soon as the stream is malformed, bytes
    /// after the end of the trace included. A cyclic relation is only
    /// detected by [`finish`](IncrementalSession::finish).
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), StreamError> {
        self.progress.bytes += bytes.len() as u64;
        self.progress.chunks += 1;

        let t0 = Instant::now();
        self.events.clear();
        self.decoder.push_into(bytes, &mut self.events)?;
        self.passes
            .accumulate("stream-decode", t0.elapsed(), bytes.len());
        for event in &self.events {
            match event {
                StreamEvent::Records { count, .. } => self.progress.records += *count as u64,
                StreamEvent::BodyComplete { .. } => self.progress.tasks_sealed += 1,
                StreamEvent::TablesReady | StreamEvent::End => {}
            }
        }
        Ok(())
    }

    /// Completes the stream: validates the trace and runs the
    /// unmodified batch pipeline over it — a fresh
    /// [`AnalysisSession`] through
    /// [`Analyzer::analyze_with`](cafa_core::Analyzer::analyze_with),
    /// island partitioning and demand queries included. The report is
    /// therefore identical to a batch analysis of the same trace.
    ///
    /// # Errors
    ///
    /// [`StreamError::Read`] if the stream ended early or the trace is
    /// structurally invalid; [`StreamError::Hb`] if a happens-before
    /// model cannot be built — in both cases the error batch analysis
    /// of the same bytes returns.
    pub fn finish(self) -> Result<StreamOutcome, StreamError> {
        let trace = self.decoder.finish()?;
        let report = Analyzer::with_config(self.opts.detector)
            .analyze_with(&AnalysisSession::new(&trace))?;
        Ok(StreamOutcome {
            trace,
            report,
            progress: self.progress,
            passes: self.passes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafa_trace::{to_binary_vec, to_text_string, DerefKind, ObjId, Pc, TraceBuilder, VarId};

    fn racy_trace() -> Trace {
        let mut b = TraceBuilder::new("stream-racy");
        let app = b.add_process();
        let q = b.add_queue(app);
        let svc = b.add_process();
        let ipc = b.add_thread(svc, "binder");
        let connected = b.post(ipc, q, "onServiceConnected", 0);
        let destroy = b.external(q, "onDestroy");
        b.process_event(connected);
        b.obj_read(
            connected,
            VarId::new(0),
            Some(ObjId::new(1)),
            Pc::new(0x1010),
        );
        b.deref(connected, ObjId::new(1), Pc::new(0x1014), DerefKind::Invoke);
        b.process_event(destroy);
        b.obj_write(destroy, VarId::new(0), None, Pc::new(0x2010));
        b.finish().unwrap()
    }

    fn stream(bytes: &[u8], chunk: usize) -> StreamOutcome {
        let mut s = IncrementalSession::new(StreamOptions::default());
        for c in bytes.chunks(chunk.max(1)) {
            s.push(c).expect("valid stream");
        }
        assert!(s.is_complete());
        s.finish().expect("valid trace")
    }

    #[test]
    fn streamed_report_matches_batch_for_all_chunkings() {
        let trace = racy_trace();
        let batch = Analyzer::new().analyze(&trace).unwrap();
        for bytes in [to_binary_vec(&trace), to_text_string(&trace).into_bytes()] {
            for chunk in [1, 13, 4096] {
                let out = stream(&bytes, chunk);
                assert_eq!(out.trace, trace, "chunk {chunk}");
                assert_eq!(out.report.races.len(), batch.races.len());
                assert_eq!(out.report.races, batch.races, "chunk {chunk}");
                assert_eq!(out.report.filtered, batch.filtered);
                assert_eq!(out.report.stats, batch.stats);
            }
        }
    }

    #[test]
    fn sessions_hold_only_decoder_state() {
        let trace = racy_trace();
        let bytes = to_binary_vec(&trace);
        let mut s = IncrementalSession::new(StreamOptions::default());
        for c in bytes.chunks(8) {
            s.push(c).expect("valid stream");
            assert_eq!(
                s.footprint_bytes(),
                s.decoder.buffered_bytes() + s.progress.records as usize * TRACE_RECORD_COST,
                "footprint is the decoder buffer plus decoded records"
            );
        }
        let out = s.finish().expect("valid trace");
        assert_eq!(out.progress.derives, 0);
        assert_eq!(out.progress.backpressure_flushes, 0);
        let names: Vec<&str> = out.passes.records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["stream-decode"]);
    }

    #[test]
    fn cyclic_stream_fails_at_finish_like_batch() {
        // Crossed notify/wait generations: each thread waits for what
        // the other notifies only after its own wait.
        let mut b = TraceBuilder::new("cyclic");
        let p = b.add_process();
        let ta = b.add_thread(p, "a");
        let tb = b.add_thread(p, "b");
        let m = cafa_trace::MonitorId::new(0);
        b.wait(ta, m, 2);
        b.notify(ta, m, 1);
        b.wait(tb, m, 1);
        b.notify(tb, m, 2);
        let trace = b.finish().unwrap();
        let batch = Analyzer::new().analyze(&trace).expect_err("cyclic trace");
        let mut s = IncrementalSession::new(StreamOptions::default());
        s.push(&to_binary_vec(&trace))
            .expect("decoding never derives");
        match s.finish() {
            Err(StreamError::Hb(e)) => assert_eq!(e.to_string(), batch.to_string()),
            other => panic!("expected a typed hb error, got {other:?}"),
        }
    }

    #[test]
    fn progress_counters_cover_the_stream() {
        let trace = racy_trace();
        let bytes = to_binary_vec(&trace);
        let out = stream(&bytes, 32);
        assert_eq!(out.progress.bytes, bytes.len() as u64);
        assert_eq!(out.progress.records as usize, trace.stats().records);
        assert_eq!(out.progress.tasks_sealed, trace.task_count());
    }

    /// A byte after a complete trace fails the push that carries it,
    /// with the error batch decoding of the same bytes returns.
    #[test]
    fn bytes_after_the_end_fail_the_push_like_batch() {
        let mut bytes = to_binary_vec(&racy_trace());
        let end = bytes.len();
        bytes.push(0x01);
        let batch = cafa_trace::from_binary_slice(&bytes).expect_err("trailing byte");
        let mut s = IncrementalSession::new(StreamOptions::default());
        s.push(&bytes[..end]).expect("valid stream");
        assert!(s.is_complete());
        match s.push(&bytes[end..]) {
            Err(StreamError::Read(e)) => assert_eq!(e.to_string(), batch.to_string()),
            other => panic!("expected a read error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_stream_surfaces_read_error() {
        let mut s = IncrementalSession::new(StreamOptions::default());
        let err = match s.push(b"CAFTgarbage-not-a-trace") {
            Err(e) => e,
            Ok(_) => s.finish().expect_err("invalid"),
        };
        assert!(matches!(err, StreamError::Read(_)));
    }
}
