//! Chunked, resumable trace decoding for streaming ingestion.
//!
//! [`StreamDecoder`] consumes the existing wire formats (binary or text,
//! sniffed from the first byte) in arbitrary chunk sizes and surfaces the
//! trace as it arrives: the metadata tables become available first (both
//! writers emit every table before any record body), then each task's
//! body fills in task-id order. Decoding is a pure state machine over the
//! bytes, so the resulting trace — and every [`StreamEvent`] boundary
//! except chunk-local [`Records`](StreamEvent::Records) coalescing — is
//! independent of how the stream was chunked.
//!
//! Binary input goes through the one binary parser, the same one
//! [`read_binary`](crate::read_binary) and
//! [`from_binary_slice`](crate::from_binary_slice) drive, so parse
//! errors carry the same global byte offset a batch read reports, and a
//! stream truncated mid-item fails at [`finish`](StreamDecoder::finish)
//! with the same error. Text errors carry the line number
//! [`read_text`](crate::read_text) would report.

use crate::binary::{BinaryDecoder, MAGIC};
use crate::error::ReadError;
use crate::ids::TaskId;
use crate::serialize::{TextAssembler, TextStep};
use crate::trace::Trace;
use crate::validate::validate;

/// An incremental milestone reported by [`StreamDecoder::push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// All metadata tables (names, queues, listeners, tasks) are decoded;
    /// [`StreamDecoder::trace`] is available from now on and its task set
    /// is final. Record bodies are still empty.
    TablesReady,
    /// `count` records were appended to `task`'s body. Consecutive
    /// records of one task within a push are coalesced into one event.
    Records {
        /// The task whose body grew.
        task: TaskId,
        /// How many records were appended.
        count: usize,
    },
    /// `task`'s body is complete; no further records will be added to it.
    BodyComplete {
        /// The completed task.
        task: TaskId,
    },
    /// The whole trace has been received. Call
    /// [`StreamDecoder::finish`] to validate and take ownership of it.
    End,
}

/// Notes `count` records appended to `task`, coalescing consecutive
/// appends for one task into one event.
pub(crate) fn note_records(events: &mut Vec<StreamEvent>, task: TaskId, count: usize) {
    if let Some(StreamEvent::Records { task: t, count: c }) = events.last_mut() {
        if *t == task {
            *c += count;
            return;
        }
    }
    events.push(StreamEvent::Records { task, count });
}

/// A chunked trace decoder with resumable state.
///
/// Feed bytes with [`push`](StreamDecoder::push) in any chunk sizes
/// (including one byte at a time); the decoder buffers only the current
/// incomplete item. Once [`is_complete`](StreamDecoder::is_complete),
/// call [`finish`](StreamDecoder::finish) to validate and obtain the
/// [`Trace`].
///
/// After `push` returns an error the decoder is poisoned: the input is
/// malformed and further pushes will keep failing.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    inner: Inner,
}

#[derive(Debug, Default)]
enum Inner {
    /// No bytes seen yet; the first byte picks the format.
    #[default]
    Sniff,
    Binary(BinaryDecoder),
    Text(TextDecoder),
}

impl StreamDecoder {
    /// A decoder ready for the first chunk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one chunk, returning the milestones it completed.
    ///
    /// # Errors
    ///
    /// Returns the same [`ReadError`] a batch read of the stream would,
    /// as soon as the offending bytes arrive. Truncation is not an error
    /// here (more bytes may follow) — it surfaces in
    /// [`finish`](StreamDecoder::finish).
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<StreamEvent>, ReadError> {
        let mut events = Vec::new();
        self.push_into(bytes, &mut events)?;
        Ok(events)
    }

    /// Like [`push`](StreamDecoder::push), appending into `events`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`push`](StreamDecoder::push).
    pub fn push_into(
        &mut self,
        bytes: &[u8],
        events: &mut Vec<StreamEvent>,
    ) -> Result<(), ReadError> {
        if let Inner::Sniff = self.inner {
            let Some(&first) = bytes.first() else {
                return Ok(());
            };
            // Binary traces start with the "CAFT" magic; the text header
            // (and every text directive or comment) never starts with an
            // uppercase 'C'.
            self.inner = if first == MAGIC[0] {
                Inner::Binary(BinaryDecoder::default())
            } else {
                Inner::Text(TextDecoder::new())
            };
        }
        match &mut self.inner {
            Inner::Sniff => Ok(()),
            Inner::Binary(d) => d.push(bytes, Some(events)),
            Inner::Text(d) => d.push(bytes, events),
        }
    }

    /// The decoded trace so far, once the tables are complete.
    ///
    /// `None` before [`StreamEvent::TablesReady`]. The task, queue,
    /// listener, and name tables are final; record bodies grow with each
    /// push.
    pub fn trace(&self) -> Option<&Trace> {
        match &self.inner {
            Inner::Sniff => None,
            Inner::Binary(d) => d.trace(),
            Inner::Text(d) => d.asm.trace(),
        }
    }

    /// True once the full trace has been received ([`StreamEvent::End`]).
    pub fn is_complete(&self) -> bool {
        match &self.inner {
            Inner::Sniff => false,
            Inner::Binary(d) => d.is_complete(),
            Inner::Text(d) => d.asm.is_done(),
        }
    }

    /// Bytes buffered waiting for the current item to complete.
    ///
    /// This is the decoder's only unbounded-input exposure and it is
    /// small by construction: pushed bytes are parsed in place, and only
    /// the partial record, table entry, string or line at the end of the
    /// last push is kept.
    pub fn buffered_bytes(&self) -> usize {
        match &self.inner {
            Inner::Sniff => 0,
            Inner::Binary(d) => d.buffered_bytes(),
            Inner::Text(d) => d.buf.len(),
        }
    }

    /// Validates the completed trace and returns it.
    ///
    /// # Errors
    ///
    /// If the stream ended early, returns the truncation error a batch
    /// read of the received bytes would produce; if the trace is
    /// structurally invalid, returns [`ReadError::Invalid`].
    pub fn finish(self) -> Result<Trace, ReadError> {
        match self.inner {
            Inner::Sniff => Err(ReadError::parse(0, "empty input")),
            Inner::Binary(d) => d.finish(),
            Inner::Text(d) => {
                let trace = d.finish()?;
                validate(&trace)?;
                Ok(trace)
            }
        }
    }
}

// ---- text ---------------------------------------------------------------

#[derive(Debug)]
struct TextDecoder {
    /// Bytes of the current incomplete line.
    buf: Vec<u8>,
    line_no: u64,
    asm: TextAssembler,
    tables_done: bool,
}

impl TextDecoder {
    fn new() -> Self {
        Self {
            buf: Vec::new(),
            line_no: 0,
            asm: TextAssembler::new(),
            tables_done: false,
        }
    }

    fn push(&mut self, bytes: &[u8], events: &mut Vec<StreamEvent>) -> Result<(), ReadError> {
        self.buf.extend_from_slice(bytes);
        let buf = std::mem::take(&mut self.buf);
        let mut start = 0usize;
        let mut result = Ok(());
        while let Some(nl) = buf[start..].iter().position(|&b| b == b'\n') {
            let line = &buf[start..start + nl];
            if let Err(e) = self.feed_line(line, events) {
                result = Err(e);
                start += nl + 1;
                break;
            }
            start += nl + 1;
        }
        self.buf = buf;
        self.buf.drain(..start);
        result
    }

    /// Consumes one raw line (without its newline).
    fn feed_line(&mut self, raw: &[u8], events: &mut Vec<StreamEvent>) -> Result<(), ReadError> {
        self.line_no += 1;
        let line = std::str::from_utf8(raw)
            .map_err(|_| ReadError::parse(self.line_no, "invalid UTF-8"))?;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        let step = self.asm.feed(line, self.line_no)?;
        match step {
            TextStep::Table => {}
            TextStep::BodyStart { task, done } => {
                if !self.tables_done {
                    self.asm.seal_tables()?;
                    self.tables_done = true;
                    events.push(StreamEvent::TablesReady);
                }
                if done {
                    events.push(StreamEvent::BodyComplete { task });
                }
            }
            TextStep::Record { task, done } => {
                note_records(events, task, 1);
                if done {
                    events.push(StreamEvent::BodyComplete { task });
                }
            }
            TextStep::End => {
                if !self.tables_done {
                    // A trace with no bodies at all: seal now so the
                    // table set is still surfaced before `End`.
                    self.asm.seal_tables()?;
                    self.tables_done = true;
                    events.push(StreamEvent::TablesReady);
                }
                events.push(StreamEvent::End);
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Trace, ReadError> {
        // A final line without a trailing newline is still a line.
        if !self.buf.is_empty() {
            let buf = std::mem::take(&mut self.buf);
            let mut events = Vec::new();
            self.feed_line(&buf, &mut events)?;
        }
        self.asm.finish(self.line_no)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::ids::{ObjId, Pc, VarId};
    use crate::record::DerefKind;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new("stream-sample");
        b.set_seed(11);
        b.set_virtual_ms(500);
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "main");
        let l = b.add_listener("android.view");
        let ev = b.post(t, q, "onClick", 0);
        let ext = b.external(q, "touch");
        b.process_event(ev);
        b.register(ev, l);
        b.obj_read(ev, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x10));
        b.deref(ev, ObjId::new(1), Pc::new(0x14), DerefKind::Field);
        b.process_event(ext);
        b.obj_write(ext, VarId::new(0), None, Pc::new(0x20));
        let w = b.fork(t, p, "worker");
        b.read(w, VarId::new(2));
        b.join(t, w);
        b.finish().expect("valid")
    }

    fn decode_chunked(bytes: &[u8], chunk: usize) -> (Trace, Vec<StreamEvent>) {
        let mut d = StreamDecoder::new();
        let mut events = Vec::new();
        for c in bytes.chunks(chunk.max(1)) {
            d.push_into(c, &mut events).expect("valid stream");
        }
        assert!(d.is_complete());
        (d.finish().expect("valid trace"), events)
    }

    #[test]
    fn binary_chunked_decode_matches_batch() {
        let trace = sample_trace();
        let bytes = crate::binary::to_binary_vec(&trace);
        for chunk in [1, 3, 13, 64, bytes.len()] {
            let (got, events) = decode_chunked(&bytes, chunk);
            assert_eq!(got, trace, "chunk size {chunk}");
            assert_eq!(events.first(), Some(&StreamEvent::TablesReady));
            assert_eq!(events.last(), Some(&StreamEvent::End));
        }
    }

    #[test]
    fn text_chunked_decode_matches_batch() {
        let trace = sample_trace();
        let bytes = crate::serialize::to_text_string(&trace).into_bytes();
        for chunk in [1, 7, 4096] {
            let (got, events) = decode_chunked(&bytes, chunk);
            assert_eq!(got, trace, "chunk size {chunk}");
            assert_eq!(events.first(), Some(&StreamEvent::TablesReady));
            assert_eq!(events.last(), Some(&StreamEvent::End));
        }
    }

    #[test]
    fn record_counts_cover_every_record() {
        let trace = sample_trace();
        let total: usize = trace.stats().records;
        for bytes in [
            crate::binary::to_binary_vec(&trace),
            crate::serialize::to_text_string(&trace).into_bytes(),
        ] {
            let (_, events) = decode_chunked(&bytes, 5);
            let sum: usize = events
                .iter()
                .filter_map(|e| match e {
                    StreamEvent::Records { count, .. } => Some(count),
                    _ => None,
                })
                .sum();
            assert_eq!(sum, total);
            let completes = events
                .iter()
                .filter(|e| matches!(e, StreamEvent::BodyComplete { .. }))
                .count();
            assert_eq!(completes, trace.task_count());
        }
    }

    #[test]
    fn trace_is_live_after_tables_ready() {
        let trace = sample_trace();
        let bytes = crate::binary::to_binary_vec(&trace);
        let mut d = StreamDecoder::new();
        let mut seen_tables = false;
        for c in bytes.chunks(9) {
            for e in d.push(c).expect("valid") {
                if e == StreamEvent::TablesReady {
                    seen_tables = true;
                    let live = d.trace().expect("live trace");
                    assert_eq!(live.task_count(), trace.task_count());
                }
            }
        }
        assert!(seen_tables);
    }

    #[test]
    fn truncated_stream_fails_at_finish_like_batch() {
        let trace = sample_trace();
        let bytes = crate::binary::to_binary_vec(&trace);
        let cut = bytes.len() - 3;
        let mut d = StreamDecoder::new();
        d.push(&bytes[..cut]).expect("no error until finish");
        assert!(!d.is_complete());
        let stream_err = d.finish().expect_err("truncated");
        let batch_err = crate::binary::from_binary_slice(&bytes[..cut]).expect_err("truncated");
        assert_eq!(stream_err.to_string(), batch_err.to_string());
    }

    #[test]
    fn corruption_sweep_matches_batch() {
        let trace = sample_trace();
        let bytes = crate::binary::to_binary_vec(&trace);
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xff;
            let batch = crate::binary::from_binary_slice(&mutated);
            let mut d = StreamDecoder::new();
            let mut push_err = None;
            for c in mutated.chunks(3) {
                if let Err(e) = d.push(c) {
                    push_err = Some(e);
                    break;
                }
            }
            let stream = match push_err {
                Some(e) => Err(e),
                None => d.finish(),
            };
            match (batch, stream) {
                (Ok(b), Ok(s)) => assert_eq!(b, s, "pos {i}"),
                // A corrupted length can make the batch parse stop early
                // and silently ignore trailing bytes; the stream decoder
                // rejects them instead.
                (Ok(_), Err(ReadError::Parse { message, .. }))
                    if message == "unexpected data after end of trace" => {}
                // Corrupting the first magic byte reroutes the sniffer to
                // the text parser, which reports a different (but still
                // typed) header error.
                (Err(_), Err(_)) if i == 0 => {}
                (Err(b), Err(s)) => {
                    assert_eq!(b.to_string(), s.to_string(), "pos {i}");
                }
                (b, s) => panic!("pos {i}: batch {b:?} vs stream {s:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let trace = sample_trace();
        let mut bytes = crate::binary::to_binary_vec(&trace);
        bytes.push(0x01);
        let mut d = StreamDecoder::new();
        let mut failed = false;
        for c in bytes.chunks(7) {
            if d.push(c).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "garbage after the trace must error");
    }

    #[test]
    fn text_without_trailing_newline_completes_at_finish() {
        let trace = sample_trace();
        let text = crate::serialize::to_text_string(&trace);
        let bytes = text.trim_end().as_bytes();
        let mut d = StreamDecoder::new();
        d.push(bytes).expect("valid");
        // The final `end` line has no newline, so it is still buffered.
        assert!(!d.is_complete());
        assert_eq!(d.finish().expect("completes at finish"), trace);
    }
}
