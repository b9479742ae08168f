//! Compact binary serialization of traces.
//!
//! This is the on-flash format the paper's logger device would produce
//! (§5.1: "one can also choose to dump traces into a flash storage and
//! process them later"): a magic header followed by LEB128-varint
//! sections. Roughly 5–8× smaller than the text format.

use std::io::{self, ErrorKind, Read, Write};

use crate::error::ReadError;
use crate::ids::{
    ListenerId, MonitorId, NameId, ObjId, OpRef, Pc, ProcessId, QueueId, TaskId, TxnId, VarId,
};
use crate::interner::Interner;
use crate::record::{BranchKind, DerefKind, Record};
use crate::stream::{note_records, StreamEvent};
use crate::task::{EventOrigin, ListenerInfo, QueueInfo, TaskInfo, TaskKind};
use crate::trace::{Trace, TraceMeta};
use crate::validate::validate;

/// Magic bytes opening a binary trace.
pub const MAGIC: &[u8; 4] = b"CAFT";
/// Current binary format version.
pub const BINARY_VERSION: u32 = 1;

/// Upper bound on any table entry count. A corrupted or hostile varint
/// above this is rejected before it can size an allocation.
pub(crate) const MAX_TABLE_COUNT: u64 = 1 << 24;

/// Upper bound on a single task body's record count.
pub(crate) const MAX_BODY_LEN: u64 = 1 << 28;

/// Upper bound on a string's byte length.
const MAX_STRING_LEN: u64 = 1 << 24;

/// Bytes [`read_binary`] asks its reader for at a time.
const READ_CHUNK: usize = 64 << 10;

// ---- varint helpers -------------------------------------------------------

fn put_u64<W: Write>(out: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return out.write_all(&[byte]);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

fn put_u32<W: Write>(out: &mut W, v: u32) -> io::Result<()> {
    put_u64(out, u64::from(v))
}

fn put_str<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    put_u64(out, s.len() as u64)?;
    out.write_all(s.as_bytes())
}

fn put_opref<W: Write>(out: &mut W, at: OpRef) -> io::Result<()> {
    put_u32(out, at.task.as_u32())?;
    put_u32(out, at.index)
}

fn put_opt_obj<W: Write>(out: &mut W, obj: Option<ObjId>) -> io::Result<()> {
    match obj {
        None => put_u32(out, 0),
        Some(o) => put_u32(out, o.as_u32() + 1),
    }
}

// ---- record codes ----------------------------------------------------------

const R_FORK: u8 = 1;
const R_JOIN: u8 = 2;
const R_WAIT: u8 = 3;
const R_NOTIFY: u8 = 4;
const R_LOCK: u8 = 5;
const R_UNLOCK: u8 = 6;
const R_SEND: u8 = 7;
const R_SENDFRONT: u8 = 8;
const R_REGISTER: u8 = 9;
const R_PERFORM: u8 = 10;
const R_RPCCALL: u8 = 11;
const R_RPCHANDLE: u8 = 12;
const R_RPCREPLY: u8 = 13;
const R_RPCRECV: u8 = 14;
const R_READ: u8 = 15;
const R_WRITE: u8 = 16;
const R_OGET: u8 = 17;
const R_OPUT: u8 = 18;
const R_DEREF_FIELD: u8 = 19;
const R_DEREF_INVOKE: u8 = 20;
const R_GUARD_EQZ: u8 = 21;
const R_GUARD_NEZ: u8 = 22;
const R_GUARD_EQ: u8 = 23;
const R_ENTER: u8 = 24;
const R_EXIT_RET: u8 = 25;
const R_EXIT_THROW: u8 = 26;

fn write_record<W: Write>(out: &mut W, r: &Record) -> io::Result<()> {
    match *r {
        Record::Fork { child } => {
            out.write_all(&[R_FORK])?;
            put_u32(out, child.as_u32())
        }
        Record::Join { child } => {
            out.write_all(&[R_JOIN])?;
            put_u32(out, child.as_u32())
        }
        Record::Wait { monitor, gen } => {
            out.write_all(&[R_WAIT])?;
            put_u32(out, monitor.as_u32())?;
            put_u32(out, gen)
        }
        Record::Notify { monitor, gen } => {
            out.write_all(&[R_NOTIFY])?;
            put_u32(out, monitor.as_u32())?;
            put_u32(out, gen)
        }
        Record::Lock { monitor, gen } => {
            out.write_all(&[R_LOCK])?;
            put_u32(out, monitor.as_u32())?;
            put_u32(out, gen)
        }
        Record::Unlock { monitor, gen } => {
            out.write_all(&[R_UNLOCK])?;
            put_u32(out, monitor.as_u32())?;
            put_u32(out, gen)
        }
        Record::Send {
            event,
            queue,
            delay_ms,
        } => {
            out.write_all(&[R_SEND])?;
            put_u32(out, event.as_u32())?;
            put_u32(out, queue.as_u32())?;
            put_u64(out, delay_ms)
        }
        Record::SendAtFront { event, queue } => {
            out.write_all(&[R_SENDFRONT])?;
            put_u32(out, event.as_u32())?;
            put_u32(out, queue.as_u32())
        }
        Record::Register { listener } => {
            out.write_all(&[R_REGISTER])?;
            put_u32(out, listener.as_u32())
        }
        Record::Perform { listener } => {
            out.write_all(&[R_PERFORM])?;
            put_u32(out, listener.as_u32())
        }
        Record::RpcCall { txn } => {
            out.write_all(&[R_RPCCALL])?;
            put_u32(out, txn.as_u32())
        }
        Record::RpcHandle { txn } => {
            out.write_all(&[R_RPCHANDLE])?;
            put_u32(out, txn.as_u32())
        }
        Record::RpcReply { txn } => {
            out.write_all(&[R_RPCREPLY])?;
            put_u32(out, txn.as_u32())
        }
        Record::RpcReceive { txn } => {
            out.write_all(&[R_RPCRECV])?;
            put_u32(out, txn.as_u32())
        }
        Record::Read { var } => {
            out.write_all(&[R_READ])?;
            put_u32(out, var.as_u32())
        }
        Record::Write { var } => {
            out.write_all(&[R_WRITE])?;
            put_u32(out, var.as_u32())
        }
        Record::ObjRead { var, obj, pc } => {
            out.write_all(&[R_OGET])?;
            put_u32(out, var.as_u32())?;
            put_opt_obj(out, obj)?;
            put_u32(out, pc.addr())
        }
        Record::ObjWrite { var, value, pc } => {
            out.write_all(&[R_OPUT])?;
            put_u32(out, var.as_u32())?;
            put_opt_obj(out, value)?;
            put_u32(out, pc.addr())
        }
        Record::Deref { obj, pc, kind } => {
            let code = match kind {
                DerefKind::Field => R_DEREF_FIELD,
                DerefKind::Invoke => R_DEREF_INVOKE,
            };
            out.write_all(&[code])?;
            put_u32(out, obj.as_u32())?;
            put_u32(out, pc.addr())
        }
        Record::Guard {
            kind,
            pc,
            target,
            obj,
        } => {
            let code = match kind {
                BranchKind::IfEqz => R_GUARD_EQZ,
                BranchKind::IfNez => R_GUARD_NEZ,
                BranchKind::IfEq => R_GUARD_EQ,
            };
            out.write_all(&[code])?;
            put_u32(out, pc.addr())?;
            put_u32(out, target.addr())?;
            put_u32(out, obj.as_u32())
        }
        Record::MethodEnter { pc, name } => {
            out.write_all(&[R_ENTER])?;
            put_u32(out, pc.addr())?;
            put_u32(out, name.as_u32())
        }
        Record::MethodExit { pc, exceptional } => {
            out.write_all(&[if exceptional {
                R_EXIT_THROW
            } else {
                R_EXIT_RET
            }])?;
            put_u32(out, pc.addr())
        }
    }
}

// ---- whole-trace codec --------------------------------------------------------

/// Writes `trace` in the binary format.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_binary<W: Write>(trace: &Trace, mut out: W) -> io::Result<()> {
    out.write_all(MAGIC)?;
    put_u32(&mut out, BINARY_VERSION)?;
    put_str(&mut out, &trace.meta.app)?;
    put_u64(&mut out, trace.meta.seed)?;
    put_u64(&mut out, trace.meta.virtual_ms)?;
    put_u32(&mut out, trace.process_count)?;

    put_u64(&mut out, trace.names.len() as u64)?;
    for (_, s) in trace.names.iter() {
        put_str(&mut out, s)?;
    }

    put_u64(&mut out, trace.queue_count() as u64)?;
    for (_, q) in trace.queues() {
        match q.process {
            Some(p) => put_u32(&mut out, p.as_u32() + 1)?,
            None => put_u32(&mut out, 0)?,
        }
    }

    put_u64(&mut out, trace.listener_count() as u64)?;
    for l in &trace.listeners {
        put_u32(&mut out, l.package.as_u32())?;
    }

    put_u64(&mut out, trace.task_count() as u64)?;
    for t in trace.tasks() {
        match t.kind {
            TaskKind::Thread { process, forked_at } => {
                out.write_all(&[0])?;
                put_u32(&mut out, process.as_u32())?;
                match forked_at {
                    None => out.write_all(&[0])?,
                    Some(at) => {
                        out.write_all(&[1])?;
                        put_opref(&mut out, at)?;
                    }
                }
            }
            TaskKind::Event {
                queue,
                seq,
                origin,
                delay_ms,
            } => {
                out.write_all(&[1])?;
                put_u32(&mut out, queue.as_u32())?;
                put_u32(&mut out, seq)?;
                put_u64(&mut out, delay_ms)?;
                match origin {
                    EventOrigin::Sent { send } => {
                        out.write_all(&[0])?;
                        put_opref(&mut out, send)?;
                    }
                    EventOrigin::SentAtFront { send } => {
                        out.write_all(&[1])?;
                        put_opref(&mut out, send)?;
                    }
                    EventOrigin::External { sequence } => {
                        out.write_all(&[2])?;
                        put_u32(&mut out, sequence)?;
                    }
                }
            }
        }
        put_u32(&mut out, t.name.as_u32())?;
    }

    for t in trace.tasks() {
        let body = trace.body(t.id);
        put_u64(&mut out, body.len() as u64)?;
        for r in body {
            write_record(&mut out, r)?;
        }
    }
    Ok(())
}

/// Encodes a trace into a fresh byte vector.
pub fn to_binary_vec(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_binary(trace, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

/// Reads a trace in the binary format, validating it.
///
/// The reader is drained to its end in fixed-size chunks, each parsed in
/// place by the same decoder [`StreamDecoder`](crate::StreamDecoder)
/// runs, so bytes after the last body are an error here too.
///
/// # Errors
///
/// Returns [`ReadError`] for malformed input, unsupported versions, or a
/// trace that fails validation.
pub fn read_binary<R: Read>(mut input: R) -> Result<Trace, ReadError> {
    let mut decoder = BinaryDecoder::default();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        match input.read(&mut chunk) {
            Ok(0) => return decoder.finish(),
            Ok(n) => decoder.push(&chunk[..n], None)?,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Decodes a trace from a byte slice.
///
/// # Errors
///
/// Same conditions as [`read_binary`].
pub fn from_binary_slice(bytes: &[u8]) -> Result<Trace, ReadError> {
    let mut decoder = BinaryDecoder::default();
    decoder.push(bytes, None)?;
    decoder.finish()
}

// ---- decoder ----------------------------------------------------------------

/// Why parsing stopped before the end of the trace.
#[derive(Debug)]
enum Stop {
    /// The current item runs past the bytes received so far.
    Eof,
    /// The bytes are malformed.
    Bad(ReadError),
}

/// A read position in one slice of the stream that reports global byte
/// offsets, so errors carry the same offset however the stream was cut.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    /// End of the last complete item.
    mark: usize,
    /// Global offset of `data[0]`.
    base: u64,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8], base: u64) -> Self {
        Self {
            data,
            pos: 0,
            mark: 0,
            base,
        }
    }

    fn bad(&self, message: impl Into<String>) -> Stop {
        Stop::Bad(ReadError::parse(self.base + self.pos as u64, message))
    }

    /// Marks everything read so far as one or more complete items.
    fn commit(&mut self) {
        self.mark = self.pos;
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Stop> {
        let bytes = self.data.get(self.pos..self.pos + n).ok_or(Stop::Eof)?;
        self.pos += n;
        Ok(bytes)
    }

    #[inline]
    fn byte(&mut self) -> Result<u8, Stop> {
        let &b = self.data.get(self.pos).ok_or(Stop::Eof)?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn u64(&mut self) -> Result<u64, Stop> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(self.bad("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    #[inline]
    fn u32(&mut self) -> Result<u32, Stop> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| self.bad("value overflows u32"))
    }

    /// A length-prefixed string; the length is bounded, then checked
    /// against the bytes at hand, before anything is allocated.
    fn string(&mut self) -> Result<String, Stop> {
        let len = self.u64()?;
        if len > MAX_STRING_LEN {
            return Err(self.bad("implausible string length"));
        }
        let bytes = self.take(len as usize)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| self.bad("invalid UTF-8"))
    }

    /// A table entry count, rejecting implausibly large values.
    fn count(&mut self, what: &str) -> Result<usize, Stop> {
        let n = self.u64()?;
        if n > MAX_TABLE_COUNT {
            return Err(self.bad(format!("implausible {what} count")));
        }
        Ok(n as usize)
    }

    fn opref(&mut self) -> Result<OpRef, Stop> {
        let task = TaskId::new(self.u32()?);
        let index = self.u32()?;
        Ok(OpRef { task, index })
    }

    fn opt_obj(&mut self) -> Result<Option<ObjId>, Stop> {
        Ok(self.u32()?.checked_sub(1).map(ObjId::new))
    }

    fn record(&mut self) -> Result<Record, Stop> {
        let code = self.byte()?;
        let rec = match code {
            R_FORK => Record::Fork {
                child: TaskId::new(self.u32()?),
            },
            R_JOIN => Record::Join {
                child: TaskId::new(self.u32()?),
            },
            R_WAIT => Record::Wait {
                monitor: MonitorId::new(self.u32()?),
                gen: self.u32()?,
            },
            R_NOTIFY => Record::Notify {
                monitor: MonitorId::new(self.u32()?),
                gen: self.u32()?,
            },
            R_LOCK => Record::Lock {
                monitor: MonitorId::new(self.u32()?),
                gen: self.u32()?,
            },
            R_UNLOCK => Record::Unlock {
                monitor: MonitorId::new(self.u32()?),
                gen: self.u32()?,
            },
            R_SEND => Record::Send {
                event: TaskId::new(self.u32()?),
                queue: QueueId::new(self.u32()?),
                delay_ms: self.u64()?,
            },
            R_SENDFRONT => Record::SendAtFront {
                event: TaskId::new(self.u32()?),
                queue: QueueId::new(self.u32()?),
            },
            R_REGISTER => Record::Register {
                listener: ListenerId::new(self.u32()?),
            },
            R_PERFORM => Record::Perform {
                listener: ListenerId::new(self.u32()?),
            },
            R_RPCCALL => Record::RpcCall {
                txn: TxnId::new(self.u32()?),
            },
            R_RPCHANDLE => Record::RpcHandle {
                txn: TxnId::new(self.u32()?),
            },
            R_RPCREPLY => Record::RpcReply {
                txn: TxnId::new(self.u32()?),
            },
            R_RPCRECV => Record::RpcReceive {
                txn: TxnId::new(self.u32()?),
            },
            R_READ => Record::Read {
                var: VarId::new(self.u32()?),
            },
            R_WRITE => Record::Write {
                var: VarId::new(self.u32()?),
            },
            R_OGET => Record::ObjRead {
                var: VarId::new(self.u32()?),
                obj: self.opt_obj()?,
                pc: Pc::new(self.u32()?),
            },
            R_OPUT => Record::ObjWrite {
                var: VarId::new(self.u32()?),
                value: self.opt_obj()?,
                pc: Pc::new(self.u32()?),
            },
            R_DEREF_FIELD | R_DEREF_INVOKE => Record::Deref {
                obj: ObjId::new(self.u32()?),
                pc: Pc::new(self.u32()?),
                kind: if code == R_DEREF_FIELD {
                    DerefKind::Field
                } else {
                    DerefKind::Invoke
                },
            },
            R_GUARD_EQZ | R_GUARD_NEZ | R_GUARD_EQ => Record::Guard {
                kind: match code {
                    R_GUARD_EQZ => BranchKind::IfEqz,
                    R_GUARD_NEZ => BranchKind::IfNez,
                    _ => BranchKind::IfEq,
                },
                pc: Pc::new(self.u32()?),
                target: Pc::new(self.u32()?),
                obj: ObjId::new(self.u32()?),
            },
            R_ENTER => Record::MethodEnter {
                pc: Pc::new(self.u32()?),
                name: NameId::new(self.u32()?),
            },
            R_EXIT_RET => Record::MethodExit {
                pc: Pc::new(self.u32()?),
                exceptional: false,
            },
            R_EXIT_THROW => Record::MethodExit {
                pc: Pc::new(self.u32()?),
                exceptional: true,
            },
            c => return Err(self.bad(format!("unknown record code {c}"))),
        };
        Ok(rec)
    }
}

/// Which item of the binary layout comes next.
#[derive(Clone, Copy, Debug, Default)]
enum Next {
    /// Magic, version, and the fixed meta fields.
    #[default]
    Header,
    NameCount,
    Names {
        left: usize,
    },
    QueueCount,
    Queues {
        left: usize,
    },
    ListenerCount,
    Listeners {
        left: usize,
    },
    TaskCount,
    Tasks {
        left: usize,
    },
    BodyLen {
        task: usize,
    },
    Records {
        task: usize,
        left: usize,
    },
    Done,
}

/// The one binary-format parser: a resumable state machine over pushed
/// byte slices.
///
/// Each push is parsed in place; only an item cut off at the end of a
/// push is copied, into `carry`, to be completed by the next one. The
/// machine's state is a pure function of the bytes pushed so far, so
/// results and error offsets do not depend on how the input was cut.
#[derive(Debug, Default)]
pub(crate) struct BinaryDecoder {
    /// The incomplete item at the end of the last push, or after an
    /// error the bytes up to the failure, so the next push or `finish`
    /// fails the same way.
    carry: Vec<u8>,
    /// Global offset of the first unparsed byte (`carry[0]`).
    offset: u64,
    next: Next,
    // Tables staged until all are decoded, then moved into `trace`.
    meta: TraceMeta,
    names: Interner,
    queues: Vec<QueueInfo>,
    listeners: Vec<ListenerInfo>,
    tasks: Vec<TaskInfo>,
    external: Vec<(u32, TaskId)>,
    task_count: usize,
    process_count: u32,
    trace: Option<Trace>,
}

impl BinaryDecoder {
    /// The trace so far, once its tables are complete.
    pub(crate) fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// True once the last body has been decoded.
    pub(crate) fn is_complete(&self) -> bool {
        matches!(self.next, Next::Done)
    }

    /// Bytes held back for the next push.
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.carry.len()
    }

    /// Parses `bytes`, appending milestones to `events` when given.
    ///
    /// Truncation is not an error here (more bytes may follow); it
    /// surfaces in [`finish`](Self::finish).
    pub(crate) fn push(
        &mut self,
        bytes: &[u8],
        mut events: Option<&mut Vec<StreamEvent>>,
    ) -> Result<(), ReadError> {
        let mut rest = bytes;
        if !self.carry.is_empty() {
            // Complete the carried item from a prefix of `bytes` that
            // grows geometrically, so a long item costs linear copying.
            let mut carry = std::mem::take(&mut self.carry);
            let held = carry.len();
            loop {
                let fed = carry.len() - held;
                let more = carry.len().max(64).min(bytes.len() - fed);
                carry.extend_from_slice(&bytes[fed..fed + more]);
                let mut cur = Cursor::new(&carry, self.offset);
                let result = self.parse(&mut cur, events.as_deref_mut());
                match result {
                    Err(Stop::Eof) if cur.mark == 0 => {
                        if fed + more == bytes.len() {
                            self.carry = carry;
                            return Ok(());
                        }
                    }
                    Err(Stop::Bad(e)) => {
                        self.keep_failure(&cur);
                        return Err(e);
                    }
                    // The carried item is complete and so, possibly, are
                    // some after it; parse the rest of `bytes` in place.
                    _ => {
                        self.offset += cur.mark as u64;
                        rest = &bytes[cur.mark - held..];
                        break;
                    }
                }
            }
        }
        let mut cur = Cursor::new(rest, self.offset);
        if let Err(Stop::Bad(e)) = self.parse(&mut cur, events) {
            self.keep_failure(&cur);
            return Err(e);
        }
        // Complete items are done with; an incomplete one waits.
        self.offset += cur.mark as u64;
        self.carry.extend_from_slice(&rest[cur.mark..]);
        Ok(())
    }

    /// After an error, keeps the bytes from the failed item's start to
    /// the failure point (at least one byte): parsing them again fails
    /// the same way, so the decoder stays poisoned.
    fn keep_failure(&mut self, cur: &Cursor) {
        let end = cur.pos.max(cur.mark + 1).min(cur.data.len());
        self.carry = cur.data[cur.mark..end].to_vec();
        self.offset += cur.mark as u64;
    }

    /// Validates and returns the completed trace.
    ///
    /// # Errors
    ///
    /// If the input ended early, the `UnexpectedEof` I/O error every
    /// truncation reports; otherwise the error its bytes or its
    /// validation produce.
    pub(crate) fn finish(mut self) -> Result<Trace, ReadError> {
        let carry = std::mem::take(&mut self.carry);
        let mut cur = Cursor::new(&carry, self.offset);
        match self.parse(&mut cur, None) {
            Ok(()) => {}
            Err(Stop::Eof) => {
                return Err(ReadError::Io(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                )))
            }
            Err(Stop::Bad(e)) => return Err(e),
        }
        let trace = self.trace.expect("a complete parse has a trace");
        validate(&trace)?;
        Ok(trace)
    }

    /// Parses items from `cur` until the trace ends (`Ok`) or the bytes
    /// do. State changes only once an item has fully parsed, and
    /// `cur.mark` then moves past it.
    fn parse(
        &mut self,
        cur: &mut Cursor,
        mut events: Option<&mut Vec<StreamEvent>>,
    ) -> Result<(), Stop> {
        loop {
            match self.next {
                Next::Header => {
                    if cur.take(MAGIC.len())? != MAGIC {
                        return Err(Stop::Bad(ReadError::parse(
                            0,
                            "bad magic; not a cafa binary trace",
                        )));
                    }
                    let version = cur.u32()?;
                    if version != BINARY_VERSION {
                        return Err(Stop::Bad(ReadError::UnsupportedVersion { found: version }));
                    }
                    let meta = TraceMeta {
                        app: cur.string()?,
                        seed: cur.u64()?,
                        virtual_ms: cur.u64()?,
                    };
                    self.process_count = cur.u32()?;
                    self.meta = meta;
                    self.next = Next::NameCount;
                }
                Next::NameCount => {
                    let left = cur.count("name")?;
                    self.next = Next::Names { left };
                }
                Next::Names { left: 0 } => self.next = Next::QueueCount,
                Next::Names { left } => {
                    let index = self.names.len();
                    let s = cur.string()?;
                    if self.names.intern(&s).index() != index {
                        return Err(cur.bad("duplicate interned string"));
                    }
                    self.next = Next::Names { left: left - 1 };
                }
                Next::QueueCount => {
                    let left = cur.count("queue")?;
                    self.queues.reserve(left.min(1 << 16));
                    self.next = Next::Queues { left };
                }
                Next::Queues { left: 0 } => self.next = Next::ListenerCount,
                Next::Queues { left } => {
                    let process = cur.u32()?.checked_sub(1).map(ProcessId::new);
                    self.queues.push(QueueInfo {
                        process,
                        events: Vec::new(),
                    });
                    self.next = Next::Queues { left: left - 1 };
                }
                Next::ListenerCount => {
                    let left = cur.count("listener")?;
                    self.listeners.reserve(left.min(1 << 16));
                    self.next = Next::Listeners { left };
                }
                Next::Listeners { left: 0 } => self.next = Next::TaskCount,
                Next::Listeners { left } => {
                    self.listeners.push(ListenerInfo {
                        package: NameId::new(cur.u32()?),
                    });
                    self.next = Next::Listeners { left: left - 1 };
                }
                Next::TaskCount => {
                    let left = cur.count("task")?;
                    self.task_count = left;
                    self.tasks.reserve(left.min(1 << 16));
                    self.next = Next::Tasks { left };
                }
                Next::Tasks { left: 0 } => self.tables_ready(events.as_deref_mut()),
                Next::Tasks { left } => {
                    self.read_task(cur)?;
                    self.next = Next::Tasks { left: left - 1 };
                }
                Next::BodyLen { task } => {
                    let len = cur.u64()?;
                    if len > MAX_BODY_LEN {
                        return Err(cur.bad("implausible body length"));
                    }
                    let left = len as usize;
                    let trace = self.trace.as_mut().expect("tables are ready");
                    trace.bodies[task] = Vec::with_capacity(left.min(1 << 16));
                    self.next = Next::Records { task, left };
                }
                Next::Records { task, left } => {
                    let body = &mut self.trace.as_mut().expect("tables are ready").bodies[task];
                    let mut remaining = left;
                    let result = loop {
                        if remaining == 0 {
                            break Ok(());
                        }
                        match cur.record() {
                            Ok(record) => {
                                body.push(record);
                                remaining -= 1;
                                cur.commit();
                            }
                            Err(stop) => break Err(stop),
                        }
                    };
                    let id = TaskId::from_usize(task);
                    if let Some(events) = events.as_deref_mut() {
                        if remaining < left {
                            note_records(events, id, left - remaining);
                        }
                        if remaining == 0 {
                            events.push(StreamEvent::BodyComplete { task: id });
                        }
                    }
                    self.next = Next::Records {
                        task,
                        left: remaining,
                    };
                    result?;
                    self.next_body(task, events.as_deref_mut());
                }
                Next::Done => {
                    return if cur.pos < cur.data.len() {
                        Err(cur.bad("unexpected data after end of trace"))
                    } else {
                        Ok(())
                    };
                }
            }
            cur.commit();
        }
    }

    /// Decodes one task-table entry. Decoder state changes only after
    /// the whole entry has parsed: an entry cut off by the end of a push
    /// is parsed again from its start by the next one.
    fn read_task(&mut self, cur: &mut Cursor) -> Result<(), Stop> {
        let id = TaskId::from_usize(self.tasks.len());
        let kind = match cur.byte()? {
            0 => {
                let process = ProcessId::new(cur.u32()?);
                let forked_at = match cur.byte()? {
                    0 => None,
                    1 => Some(cur.opref()?),
                    b => return Err(cur.bad(format!("bad fork flag {b}"))),
                };
                TaskKind::Thread { process, forked_at }
            }
            1 => {
                let queue = QueueId::new(cur.u32()?);
                let seq = cur.u32()?;
                let delay_ms = cur.u64()?;
                let origin = match cur.byte()? {
                    0 => EventOrigin::Sent { send: cur.opref()? },
                    1 => EventOrigin::SentAtFront { send: cur.opref()? },
                    2 => EventOrigin::External {
                        sequence: cur.u32()?,
                    },
                    b => return Err(cur.bad(format!("bad origin tag {b}"))),
                };
                if queue.index() >= self.queues.len() {
                    return Err(cur.bad("event names unknown queue"));
                }
                // A queue position must name one of the trace's tasks, so
                // any valid seq is below task_count; a corrupt seq (e.g.
                // u32::MAX) would otherwise size a huge resize below.
                if seq as usize >= self.task_count {
                    return Err(cur.bad("event seq out of range"));
                }
                TaskKind::Event {
                    queue,
                    seq,
                    origin,
                    delay_ms,
                }
            }
            b => return Err(cur.bad(format!("bad task kind {b}"))),
        };
        let name = NameId::new(cur.u32()?);
        // Entry fully parsed; commit the side effects.
        if let TaskKind::Event {
            queue, seq, origin, ..
        } = kind
        {
            if let EventOrigin::External { sequence } = origin {
                self.external.push((sequence, id));
            }
            let q = &mut self.queues[queue.index()];
            let si = seq as usize;
            if q.events.len() <= si {
                q.events.resize(si + 1, TaskId::new(u32::MAX));
            }
            q.events[si] = id;
        }
        self.tasks.push(TaskInfo { id, kind, name });
        Ok(())
    }

    /// Moves the completed tables into the live trace and emits
    /// [`StreamEvent::TablesReady`].
    fn tables_ready(&mut self, mut events: Option<&mut Vec<StreamEvent>>) {
        let mut external = std::mem::take(&mut self.external);
        external.sort_by_key(|(seq, _)| *seq);
        self.trace = Some(Trace {
            meta: std::mem::take(&mut self.meta),
            names: std::mem::take(&mut self.names),
            tasks: std::mem::take(&mut self.tasks),
            bodies: vec![Vec::new(); self.task_count],
            queues: std::mem::take(&mut self.queues),
            listeners: std::mem::take(&mut self.listeners),
            external_order: external.into_iter().map(|(_, t)| t).collect(),
            process_count: self.process_count,
        });
        if let Some(events) = events.as_deref_mut() {
            events.push(StreamEvent::TablesReady);
        }
        match self.task_count {
            0 => self.next_body(0, events),
            _ => self.next = Next::BodyLen { task: 0 },
        }
    }

    /// Moves past `task`'s body: to the next one, or to the end.
    fn next_body(&mut self, task: usize, events: Option<&mut Vec<StreamEvent>>) {
        if task + 1 >= self.task_count {
            self.next = Next::Done;
            if let Some(events) = events {
                events.push(StreamEvent::End);
            }
        } else {
            self.next = Next::BodyLen { task: task + 1 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new("binary-sample");
        b.set_seed(7);
        b.set_virtual_ms(1000);
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "main");
        let l = b.add_listener("android.widget");
        let ev = b.post(t, q, "onClick", 0);
        let fr = b.post_front(t, q, "vsync");
        let ext = b.external(q, "key");
        b.process_event(ev);
        b.register(ev, l);
        b.guard(ev, BranchKind::IfNez, Pc::new(8), Pc::new(2), ObjId::new(3));
        b.process_event(fr);
        b.perform(fr, l);
        b.obj_read(fr, VarId::new(1), None, Pc::new(0x20));
        b.process_event(ext);
        b.obj_write(ext, VarId::new(1), Some(ObjId::new(9)), Pc::new(0x30));
        b.deref(ext, ObjId::new(9), Pc::new(0x34), DerefKind::Invoke);
        let w = b.fork(t, p, "net");
        b.method_enter(w, Pc::new(0x50), "Net.connect");
        b.method_exit(w, Pc::new(0x50), false);
        b.finish().expect("valid")
    }

    #[test]
    fn binary_roundtrip_preserves_trace() {
        let trace = sample_trace();
        let bytes = to_binary_vec(&trace);
        let back = from_binary_slice(&bytes).expect("roundtrip parses");
        assert_eq!(trace, back);
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let trace = sample_trace();
        let bytes = to_binary_vec(&trace);
        let text = crate::serialize::to_text_string(&trace);
        assert!(bytes.len() < text.len());
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            from_binary_slice(b"NOPE0000"),
            Err(ReadError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let trace = sample_trace();
        let bytes = to_binary_vec(&trace);
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                from_binary_slice(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v).unwrap();
            let mut cur = Cursor::new(&buf, 0);
            assert_eq!(cur.u64().unwrap(), v);
        }
    }
}
