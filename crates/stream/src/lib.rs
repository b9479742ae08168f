//! Streaming trace ingestion with optional live provisional reports.
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
//!   analyzer's by construction;
//! * with [`StreamOptions::live`], the session also keeps an
//!   [`IncrementalHb`](cafa_hb::IncrementalHb) (from `cafa-hb`) in
//!   step with the decoded records and watches for use-free
//!   candidates as soon as both endpoints' tasks are closed, emitting
//!   [`ProvisionalRace`]s long before end of stream.
//!
//! Provisional emissions are a strictly separate channel —
//! happens-before only grows as a trace extends, so a pair that looks
//! concurrent mid-stream can still be ordered (or filtered) by the
//! time the trace completes; the final report is the authority.
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

use std::collections::HashSet;
use std::fmt;
use std::time::Instant;

use cafa_core::{Analyzer, DetectorConfig, RaceReport};
use cafa_engine::{extract_task, AnalysisSession, MemoryOps, PassStats};
use cafa_hb::{HbError, IncrementalHb};
use cafa_trace::{OpRef, Pc, ReadError, StreamDecoder, StreamEvent, TaskId, Trace, VarId};

/// Approximate in-memory cost of one decoded trace record held by the
/// growing [`Trace`]: the record itself plus its share of the body
/// vector. Used by [`IncrementalSession::footprint_bytes`].
const TRACE_RECORD_COST: usize = 48;

/// Configuration for an [`IncrementalSession`].
#[derive(Clone, Copy, Debug)]
pub struct StreamOptions {
    /// Detector configuration for the final (authoritative) report.
    pub detector: DetectorConfig,
    /// Emit [`ProvisionalRace`]s from the online watcher as tasks
    /// close. Off by default: provisional candidates are concurrency
    /// evidence only (no heuristic filters, and a later suffix can
    /// still order the pair); the final report is the authority. Only
    /// a live session keeps happens-before state between pushes.
    pub live: bool,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            detector: DetectorConfig::cafa(),
            live: false,
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

/// A use-free candidate observed mid-stream: both endpoints' tasks are
/// complete and no happens-before path orders them *so far*.
///
/// Provisional by construction — the happens-before relation only
/// grows as the trace extends, so a later suffix can order (retract)
/// this pair, and the end-of-stream detector additionally applies the
/// lockset/if-guard/allocation filters. Compare against
/// [`StreamOutcome::report`] for the authoritative verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProvisionalRace {
    /// The racing pointer variable.
    pub var: VarId,
    /// The use endpoint (the pointer read later dereferenced).
    pub use_at: OpRef,
    /// Program counter of the use's read.
    pub use_pc: Pc,
    /// The free endpoint (the null store).
    pub free_at: OpRef,
    /// Program counter of the free.
    pub free_pc: Pc,
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
    /// The authoritative race report — identical to what
    /// [`Analyzer::analyze`](cafa_core::Analyzer::analyze) produces on
    /// [`trace`](StreamOutcome::trace).
    pub report: RaceReport,
    /// Ingestion counters.
    pub progress: StreamProgress,
    /// Wall time and item counts of the streaming passes
    /// (`stream-decode`, plus `hb-ingest`, `hb-demand` and `watch` in
    /// live mode), accumulated across all pushes. The final analysis's
    /// own passes are in the report's `stats.passes`.
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
    /// Happens-before state for the live watcher; `None` unless
    /// [`StreamOptions::live`].
    hb: Option<IncrementalHb>,
    progress: StreamProgress,
    passes: PassStats,
    events: Vec<StreamEvent>,
    // Online watcher state (only populated when `opts.live`).
    ops: MemoryOps,
    emitted: HashSet<(VarId, Pc, Pc)>,
}

impl IncrementalSession {
    /// A session ready for the first chunk.
    pub fn new(opts: StreamOptions) -> Self {
        Self {
            opts,
            decoder: StreamDecoder::new(),
            hb: None,
            progress: StreamProgress::default(),
            passes: PassStats::default(),
            events: Vec::new(),
            ops: MemoryOps::default(),
            emitted: HashSet::new(),
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

    /// Demand query-engine counters (queries answered, rule premises
    /// evaluated, derived edges materialized) accumulated by the live
    /// watcher, if live mode has issued any queries yet. Always `None`
    /// for a session that is not live.
    pub fn demand_stats(&self) -> Option<cafa_hb::DemandStats> {
        self.hb.as_ref().and_then(|hb| hb.demand_stats())
    }

    /// True once the full trace has been received.
    pub fn is_complete(&self) -> bool {
        self.decoder.is_complete()
    }

    /// Modeled resident footprint of the whole session, in bytes: the
    /// decoder's buffer, the decoded trace so far, and — in live mode
    /// only — the incremental happens-before state. A deterministic
    /// accounting estimate — the currency a multi-tenant server's
    /// memory budget and eviction policy are denominated in — not an
    /// allocator measurement.
    pub fn footprint_bytes(&self) -> usize {
        self.decoder.buffered_bytes()
            + self.progress.records as usize * TRACE_RECORD_COST
            + self
                .hb
                .as_ref()
                .map_or(0, cafa_hb::IncrementalHb::footprint_estimate)
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
    /// counters too. Provisional candidates found during the replay
    /// are discarded (they were already emitted by the original
    /// session); the internal dedup set is retained, so the
    /// continuation does not re-emit them either.
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

    /// Consumes one chunk: decodes it and — with
    /// [`StreamOptions::live`] — extends the incremental happens-before
    /// graph and runs the online watcher over any tasks that
    /// completed, returning the provisional candidates it found.
    /// Without `live` the result is always empty.
    ///
    /// # Errors
    ///
    /// [`StreamError::Read`] as soon as the stream is malformed;
    /// [`StreamError::Hb`] in live mode if the task table names an
    /// event without a queue. A cyclic relation is only detected by
    /// [`finish`](IncrementalSession::finish).
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<ProvisionalRace>, StreamError> {
        self.progress.bytes += bytes.len() as u64;
        self.progress.chunks += 1;

        let t0 = Instant::now();
        self.events.clear();
        self.decoder.push_into(bytes, &mut self.events)?;
        self.passes
            .accumulate("stream-decode", t0.elapsed(), bytes.len());

        let mut sealed: Vec<TaskId> = Vec::new();
        let t1 = Instant::now();
        let mut ingested = 0usize;
        for i in 0..self.events.len() {
            match self.events[i] {
                StreamEvent::TablesReady => {
                    if self.opts.live {
                        let trace = self.decoder.trace().expect("tables are ready");
                        self.hb = Some(IncrementalHb::new(trace, self.opts.detector.causality)?);
                    }
                }
                StreamEvent::Records { task, count } => {
                    self.progress.records += count as u64;
                    if let Some(hb) = self.hb.as_mut() {
                        let trace = self.decoder.trace().expect("records imply tables");
                        hb.ingest(trace, task);
                        ingested += count;
                    }
                }
                StreamEvent::BodyComplete { task } => {
                    self.progress.tasks_sealed += 1;
                    if let Some(hb) = self.hb.as_mut() {
                        let trace = self.decoder.trace().expect("body implies tables");
                        hb.seal(trace, task);
                        sealed.push(task);
                    }
                }
                StreamEvent::End => {}
            }
        }
        let mut found = Vec::new();
        let Some(hb) = self.hb.as_mut() else {
            return Ok(found);
        };
        self.passes.accumulate("hb-ingest", t1.elapsed(), ingested);

        if !sealed.is_empty() {
            // Extend the demand query index over the freshly sealed
            // suffix instead of materializing the fixpoint: the
            // watcher's queries settle only the cones they probe, so
            // per-push cost tracks the new tasks, not the trace so
            // far. (A cyclic prefix cannot be detected here — demand
            // answers are computed without a topological order;
            // `finish` still reports the cycle authoritatively.)
            let t2 = Instant::now();
            hb.sync_demand();
            self.passes
                .accumulate("hb-demand", t2.elapsed(), sealed.len());
            let t3 = Instant::now();
            for task in sealed {
                self.watch_task(task, &mut found);
            }
            let emitted = found.len();
            self.passes.accumulate("watch", t3.elapsed(), emitted);
        }
        Ok(found)
    }

    /// Extracts the freshly sealed task's memory operations and pairs
    /// them against everything already watched.
    fn watch_task(&mut self, task: TaskId, found: &mut Vec<ProvisionalRace>) {
        let trace = self.decoder.trace().expect("sealed implies tables");
        let old_uses = self.ops.uses.len();
        let old_frees = self.ops.frees.len();
        extract_task(trace, task, &mut self.ops);

        let hb = self.hb.as_mut().expect("sealed implies tables");
        // New uses pair against every free seen so far (old and new);
        // new frees only against *old* uses, so a pair of two
        // newcomers is examined exactly once.
        for u in &self.ops.uses[old_uses..] {
            let Some(vo) = self.ops.var_ops(u.var) else {
                continue;
            };
            for &fi in &vo.frees {
                let f = self.ops.frees[fi];
                emit(
                    hb,
                    &mut self.emitted,
                    found,
                    u.var,
                    (u.at, u.read_pc),
                    (f.at, f.pc),
                );
            }
        }
        for f in &self.ops.frees[old_frees..] {
            let Some(vo) = self.ops.var_ops(f.var) else {
                continue;
            };
            for &ui in &vo.uses {
                if ui >= old_uses {
                    continue;
                }
                let u = self.ops.uses[ui];
                emit(
                    hb,
                    &mut self.emitted,
                    found,
                    f.var,
                    (u.at, u.read_pc),
                    (f.at, f.pc),
                );
            }
        }
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

/// Records a provisional candidate if the pair is cross-task, unseen,
/// and unordered under the demand query engine so far. Each direction
/// is one `hb(a, b)` query; the engine settles only the cones those
/// two answers need, so a sealed suffix costs rule work proportional
/// to what the watcher actually probes.
fn emit(
    hb: &mut IncrementalHb,
    emitted: &mut HashSet<(VarId, Pc, Pc)>,
    found: &mut Vec<ProvisionalRace>,
    var: VarId,
    (use_at, use_pc): (OpRef, Pc),
    (free_at, free_pc): (OpRef, Pc),
) {
    if use_at.task == free_at.task {
        return;
    }
    let key = (var, use_pc, free_pc);
    if emitted.contains(&key) {
        return;
    }
    if hb.demand_happens_before(use_at, free_at) || hb.demand_happens_before(free_at, use_at) {
        return;
    }
    emitted.insert(key);
    found.push(ProvisionalRace {
        var,
        use_at,
        use_pc,
        free_at,
        free_pc,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafa_trace::{to_binary_vec, to_text_string, DerefKind, ObjId, TraceBuilder};

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

    fn stream(
        bytes: &[u8],
        chunk: usize,
        opts: StreamOptions,
    ) -> (StreamOutcome, Vec<ProvisionalRace>) {
        let mut s = IncrementalSession::new(opts);
        let mut live = Vec::new();
        for c in bytes.chunks(chunk.max(1)) {
            live.extend(s.push(c).expect("valid stream"));
        }
        assert!(s.is_complete());
        (s.finish().expect("valid trace"), live)
    }

    #[test]
    fn streamed_report_matches_batch_for_all_chunkings() {
        let trace = racy_trace();
        let batch = Analyzer::new().analyze(&trace).unwrap();
        for bytes in [to_binary_vec(&trace), to_text_string(&trace).into_bytes()] {
            for chunk in [1, 13, 4096] {
                let (out, _) = stream(&bytes, chunk, StreamOptions::default());
                assert_eq!(out.trace, trace, "chunk {chunk}");
                assert_eq!(out.report.races.len(), batch.races.len());
                assert_eq!(out.report.races, batch.races, "chunk {chunk}");
                assert_eq!(out.report.filtered, batch.filtered);
                assert_eq!(out.report.stats, batch.stats);
            }
        }
    }

    #[test]
    fn live_watcher_sees_the_race_before_finish() {
        let trace = racy_trace();
        let bytes = to_binary_vec(&trace);
        let opts = StreamOptions {
            live: true,
            ..StreamOptions::default()
        };
        let (out, live) = stream(&bytes, 16, opts);
        assert_eq!(live.len(), 1, "one provisional candidate");
        assert_eq!(live[0].var, VarId::new(0));
        assert_eq!(out.report.races.len(), 1);
        assert_eq!(out.report.races[0].use_site.read_pc, live[0].use_pc);
    }

    #[test]
    fn non_live_session_holds_no_happens_before_state() {
        let trace = racy_trace();
        let bytes = to_binary_vec(&trace);
        let mut s = IncrementalSession::new(StreamOptions::default());
        for c in bytes.chunks(8) {
            assert!(s.push(c).expect("valid stream").is_empty());
            assert!(s.demand_stats().is_none());
            assert_eq!(
                s.footprint_bytes(),
                s.decoder.buffered_bytes() + s.progress.records as usize * TRACE_RECORD_COST,
                "footprint is the decoder buffer plus decoded records"
            );
        }
        assert!(s.hb.is_none());
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
        let (out, _) = stream(&bytes, 32, StreamOptions::default());
        assert_eq!(out.progress.bytes, bytes.len() as u64);
        assert_eq!(out.progress.records as usize, trace.stats().records);
        assert_eq!(out.progress.tasks_sealed, trace.task_count());
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
