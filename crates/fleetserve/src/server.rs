//! The multi-tenant ingest server.
//!
//! Connections are accepted on one listener and parsed by the wire
//! protocol ([`crate::proto`]); every session id is routed through
//! [`cafa_engine::fleet::shard_of`] to one of N shard workers, so a
//! session's bytes are analyzed by a single worker, in arrival order
//! — per-session output is therefore byte-identical no matter how
//! many workers run or how connections interleave (the fleet
//! discipline applied to long-lived keyed streams).
//!
//! With a state directory, every accepted chunk is journaled
//! ([`crate::journal`]) *before* it is fed to analysis, which buys:
//!
//! * **Eviction** — under a memory budget, cold sessions drop their
//!   in-memory analysis state entirely; the journal *is* the
//!   snapshot, and the next byte restores transparently.
//! * **Crash-safe restart** — after `kill -9`, reopening the same
//!   state directory resumes every mid-trace session: clients learn
//!   the durable offset from the handshake reply and re-send from
//!   there.
//!
//! Shutdown of an in-process server is cooperative: flip the `stop`
//! flag passed to [`Server::run`]. The CLI's `cafa serve` simply
//! relies on journal durability and lets the process die.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::Duration;

use cafa_engine::fleet::shard_of;
use cafa_stream::{IncrementalSession, StreamOptions};

use crate::error::ServeError;
use crate::journal::{read_frames, Journal};
use crate::proto::{
    encode_error_frame, encode_offset_reply, encode_offset_reply_frame, encode_report_frame,
    encode_stats_reply, Mode, ProtoItem, ProtoReader,
};
use crate::registry::{Registry, SessionPhase};

/// Default per-connection read buffer (also the largest chunk a
/// stream-mode connection contributes per journal frame).
pub const DEFAULT_READ_CHUNK: usize = 64 << 10;

/// How a [`Server`] behaves.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Streaming-analysis options applied to every session. Keep
    /// `detector.threads` at 1: sessions already run on shard
    /// workers, and reports are thread-count invariant.
    pub opts: StreamOptions,
    /// Shard worker count; 0 defers to
    /// [`fleet::resolve_threads`](cafa_engine::fleet::resolve_threads).
    pub threads: usize,
    /// Journal directory. Enables eviction and crash-safe restart.
    pub state_dir: Option<PathBuf>,
    /// Global modeled-footprint budget in bytes. Requires
    /// [`state_dir`](ServerConfig::state_dir).
    pub memory_budget: Option<usize>,
    /// Per-connection read buffer size in bytes.
    pub read_chunk: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let mut opts = StreamOptions::default();
        opts.detector.threads = 1;
        Self {
            opts,
            threads: 0,
            state_dir: None,
            memory_budget: None,
            read_chunk: DEFAULT_READ_CHUNK,
        }
    }
}

/// Work routed to a shard worker. Jobs for one session always land on
/// one worker's queue, in connection order.
enum Job {
    /// Stream-mode handshake: reply with the session's durable offset.
    Attach {
        session: String,
        reply: mpsc::Sender<Reply>,
    },
    /// Trace bytes (empty = a poke: restore / completion check only).
    Data {
        session: String,
        bytes: Vec<u8>,
        reply: mpsc::Sender<Reply>,
    },
    /// The feeding connection reached end of stream.
    Eof {
        session: String,
        /// Finish even if the trace has no end marker (anonymous raw
        /// connections keep the batch `serve` semantics: truncation
        /// surfaces as an analysis error).
        finish_incomplete: bool,
        reply: mpsc::Sender<Reply>,
    },
    /// Framed-mode durable-offset query.
    Offset {
        session: String,
        reply: mpsc::Sender<Reply>,
    },
    /// Ordering barrier: acks once every earlier job on this shard
    /// has been handled (framed connections drain replies at close).
    Barrier { reply: mpsc::Sender<Reply> },
}

/// Everything a connection writes to its peer, in order: worker
/// answers to the jobs it sent, plus frames and control messages from
/// its own reader. One writer thread per connection drains these.
enum Reply {
    /// Durable offset (handshake reply or OFFSET query).
    Offset { session: String, durable: u64 },
    /// The session completed: its final report JSON.
    Report { session: String, json: String },
    /// The session failed (analysis or snapshot error).
    Error { session: String, message: String },
    /// EOF on an incomplete session: state kept for resume.
    Detached { durable: u64 },
    /// Barrier ack.
    Flushed,
    /// An already-encoded frame from the connection's reader.
    Frame(Vec<u8>),
    /// The reader is done: write what is queued, wait for `barriers`
    /// more barrier acks, then stop.
    Close { barriers: usize },
}

/// Per-session state owned by one shard worker.
struct Slot {
    /// In-memory analysis state; `None` while evicted (or before the
    /// first byte of a restored session arrives).
    session: Option<IncrementalSession>,
    /// The session's journal, when a state directory is configured.
    journal: Option<Journal>,
    /// Trace bytes represented by `session` (== journaled payload
    /// bytes when a journal exists).
    processed: u64,
    /// Recency tick for LRU eviction.
    last_touch: u64,
    /// Last accounted footprint.
    footprint: usize,
}

/// A bound, ready-to-run ingest server.
pub struct Server {
    listener: TcpListener,
    admin: Option<TcpListener>,
    config: ServerConfig,
    threads: usize,
    registry: Registry,
    anon: AtomicU64,
}

impl Server {
    /// Binds the ingest listener (and optionally an admin listener),
    /// validates the configuration, and prepares the state directory.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] with the failing address;
    /// [`ServeError::BudgetNeedsStateDir`] if a memory budget is set
    /// without a state directory; [`ServeError::StateDir`] if the
    /// state directory cannot be created or scanned.
    pub fn bind(
        addr: &str,
        admin_addr: Option<&str>,
        mut config: ServerConfig,
    ) -> Result<Self, ServeError> {
        if config.memory_budget.is_some() && config.state_dir.is_none() {
            return Err(ServeError::BudgetNeedsStateDir);
        }
        config.read_chunk = config.read_chunk.max(1);
        if let Some(dir) = &config.state_dir {
            std::fs::create_dir_all(dir).map_err(|source| ServeError::StateDir {
                path: dir.clone(),
                source,
            })?;
            // Anonymous sessions cannot reconnect after a restart, so
            // their journals are unreachable; drop them before the
            // per-process anon counter restarts from zero.
            let entries = std::fs::read_dir(dir).map_err(|source| ServeError::StateDir {
                path: dir.clone(),
                source,
            })?;
            for entry in entries.flatten() {
                if let Some(name) = entry.file_name().to_str() {
                    if name.starts_with("anon-") && name.ends_with(".cfsj") {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
        let listener = TcpListener::bind(addr).map_err(|source| ServeError::Bind {
            addr: addr.to_owned(),
            source,
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|source| ServeError::Bind {
                addr: addr.to_owned(),
                source,
            })?;
        let admin = match admin_addr {
            Some(a) => {
                let l = TcpListener::bind(a).map_err(|source| ServeError::Bind {
                    addr: a.to_owned(),
                    source,
                })?;
                l.set_nonblocking(true).map_err(|source| ServeError::Bind {
                    addr: a.to_owned(),
                    source,
                })?;
                Some(l)
            }
            None => None,
        };
        let threads = cafa_engine::fleet::resolve_threads(config.threads);
        let registry = Registry::new(threads, config.memory_budget);
        Ok(Self {
            listener,
            admin,
            config,
            threads,
            registry,
            anon: AtomicU64::new(0),
        })
    }

    /// The ingest listener's bound address (useful after binding
    /// port 0).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket address cannot be read.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, ServeError> {
        self.listener.local_addr().map_err(|source| ServeError::Io {
            peer: "listener".to_owned(),
            source,
        })
    }

    /// The admin listener's bound address, if one was configured.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket address cannot be read.
    pub fn admin_addr(&self) -> Result<Option<std::net::SocketAddr>, ServeError> {
        match &self.admin {
            Some(l) => l.local_addr().map(Some).map_err(|source| ServeError::Io {
                peer: "admin listener".to_owned(),
                source,
            }),
            None => Ok(None),
        }
    }

    /// The shared registry (metrics; live while and after `run`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The effective shard worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Serves until `stop` is set. Accepts any number of connections
    /// concurrently; sessions shard deterministically across the
    /// worker pool. Returns after every connection handler and worker
    /// has drained.
    pub fn run(&self, stop: &AtomicBool) {
        let shards = self.threads;
        let mut txs = Vec::with_capacity(shards);
        let mut rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<Job>(256);
            txs.push(tx);
            rxs.push(rx);
        }

        std::thread::scope(|scope| {
            for (shard, rx) in rxs.into_iter().enumerate() {
                let registry = &self.registry;
                let config = &self.config;
                scope.spawn(move || worker_loop(shard, &rx, registry, config));
            }
            if let Some(admin) = &self.admin {
                let registry = &self.registry;
                scope.spawn(move || admin_loop(admin, registry, stop));
            }

            while !stop.load(Ordering::Relaxed) {
                match self.listener.accept() {
                    Ok((conn, peer)) => {
                        let txs = txs.clone();
                        let registry = &self.registry;
                        let config = &self.config;
                        let anon = &self.anon;
                        scope.spawn(move || {
                            let peer = peer.to_string();
                            if let Err(e) =
                                handle_conn(conn, &peer, &txs, registry, config, anon, stop)
                            {
                                eprintln!("serve: {e}");
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => {
                        eprintln!(
                            "serve: {}",
                            ServeError::Io {
                                peer: "accept".to_owned(),
                                source: e
                            }
                        );
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
            drop(txs); // workers exit once every connection's clone is gone
        });
    }
}

/// The admin surface: every connection receives the current metrics
/// document and is closed — same shape as `cafa stats --format json`.
fn admin_loop(listener: &TcpListener, registry: &Registry, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut conn, _)) => {
                let _ = conn.write_all(registry.render_json().as_bytes());
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// One connection, handshake to close. The calling thread parses
/// protocol items and routes jobs to shard workers; a writer thread on
/// a clone of the socket writes every reply the moment it arrives, so
/// a client that keeps its write side open never waits on the read
/// timeout for its report.
fn handle_conn(
    mut conn: TcpStream,
    peer: &str,
    txs: &[mpsc::SyncSender<Job>],
    registry: &Registry,
    config: &ServerConfig,
    anon: &AtomicU64,
    stop: &AtomicBool,
) -> Result<(), ServeError> {
    let io = |source| ServeError::Io {
        peer: peer.to_owned(),
        source,
    };
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(io)?;
    // Replies interleave with ingest on the same socket; Nagle would
    // stall each small frame behind the peer's delayed ACK.
    let _ = conn.set_nodelay(true);
    let writer = conn.try_clone().map_err(io)?;
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let (mode, done) = (&OnceLock::new(), &AtomicBool::new(false));
    // Sessions this connection holds the attach guard for.
    let mut attached: Vec<String> = Vec::new();
    let (read, written) = std::thread::scope(|scope| {
        let written = scope.spawn(move || write_replies(writer, peer, mode, &reply_rx, stop, done));
        let shards = txs.len();
        let mut reader = ProtoReader::new();
        let mut buf = vec![0u8; config.read_chunk];
        let mut items: Vec<ProtoItem> = Vec::new();
        // Shards this connection has sent jobs to (barrier targets).
        let mut used = vec![false; shards];
        let mut anon_id: Option<String> = None;

        // `Ok(true)`: the writer's stop is already arranged (a terminal
        // answer or a close is queued).
        let result = (|| -> Result<bool, ServeError> {
            loop {
                if done.load(Ordering::Relaxed) || stop.load(Ordering::Relaxed) {
                    return Ok(false);
                }
                let eof = match conn.read(&mut buf) {
                    Ok(0) => {
                        reader.eof(&mut items);
                        true
                    }
                    Ok(n) => {
                        items.clear();
                        reader
                            .feed(&buf[..n], &mut items)
                            .map_err(|source| ServeError::Proto {
                                peer: peer.to_owned(),
                                source,
                            })?;
                        false
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(source) => {
                        return Err(ServeError::Io {
                            peer: peer.to_owned(),
                            source,
                        })
                    }
                };
                if done.load(Ordering::Relaxed) {
                    return Ok(false);
                }

                for item in items.drain(..) {
                    match item {
                        ProtoItem::Hello { mode: m, session } => {
                            let _ = mode.set(m);
                            if m == Mode::Stream {
                                let shard = shard_of(&session, shards);
                                if let Err(e) = registry.attach(&session, shard) {
                                    // Tell the client why before closing —
                                    // an ERROR frame instead of the CAFO
                                    // handshake reply.
                                    let _ = reply_tx.send(Reply::Frame(encode_error_frame(
                                        &session,
                                        &e.to_string(),
                                    )));
                                    return Err(e);
                                }
                                attached.push(session.clone());
                                used[shard] = true;
                                // The worker's offset answer completes the
                                // handshake; the client sends no payload
                                // before it arrives.
                                send_job(
                                    &txs[shard],
                                    Job::Attach {
                                        session,
                                        reply: reply_tx.clone(),
                                    },
                                );
                            }
                        }
                        ProtoItem::Raw(bytes) => {
                            let session = match &anon_id {
                                Some(id) => id.clone(),
                                None => {
                                    let id = format!(
                                        "anon-{}",
                                        anon.fetch_add(1, Ordering::Relaxed) + 1
                                    );
                                    let shard = shard_of(&id, shards);
                                    registry.attach(&id, shard)?;
                                    attached.push(id.clone());
                                    anon_id = Some(id.clone());
                                    id
                                }
                            };
                            let shard = shard_of(&session, shards);
                            used[shard] = true;
                            send_job(
                                &txs[shard],
                                Job::Data {
                                    session,
                                    bytes,
                                    reply: reply_tx.clone(),
                                },
                            );
                        }
                        ProtoItem::Data { session, bytes } => {
                            let shard = shard_of(&session, shards);
                            if !attached.contains(&session) {
                                match registry.attach(&session, shard) {
                                    Ok(()) => attached.push(session.clone()),
                                    Err(e) => {
                                        // Scoped rejection: this session is
                                        // busy; the connection (and its
                                        // other sessions) continue.
                                        let _ = reply_tx.send(Reply::Frame(encode_error_frame(
                                            &session,
                                            &e.to_string(),
                                        )));
                                        continue;
                                    }
                                }
                            }
                            used[shard] = true;
                            send_job(
                                &txs[shard],
                                Job::Data {
                                    session,
                                    bytes,
                                    reply: reply_tx.clone(),
                                },
                            );
                        }
                        ProtoItem::StatsRequest => {
                            let _ = reply_tx.send(Reply::Frame(encode_stats_reply(
                                registry.render_json().as_bytes(),
                            )));
                        }
                        ProtoItem::OffsetRequest { session } => {
                            let shard = shard_of(&session, shards);
                            used[shard] = true;
                            send_job(
                                &txs[shard],
                                Job::Offset {
                                    session,
                                    reply: reply_tx.clone(),
                                },
                            );
                        }
                    }
                }

                if eof {
                    match mode.get() {
                        // Stream / raw: end of stream ends the session's
                        // input — finish (raw finishes even when
                        // truncated, matching stdin serve) or detach. The
                        // worker's answer is terminal: the writer stops
                        // once it is written.
                        Some(Mode::Stream) | None => {
                            let (session, finish_incomplete) = match (&anon_id, attached.first()) {
                                (Some(id), _) => (Some(id.clone()), true),
                                (None, Some(id)) => (Some(id.clone()), false),
                                (None, None) => (None, false),
                            };
                            if let Some(session) = session {
                                let shard = shard_of(&session, shards);
                                send_job(
                                    &txs[shard],
                                    Job::Eof {
                                        session,
                                        finish_incomplete,
                                        reply: reply_tx.clone(),
                                    },
                                );
                                return Ok(true);
                            }
                            return Ok(false);
                        }
                        // Framed: barrier every shard we touched so
                        // pending REPORT / OFFSET_REPLY frames drain, then
                        // detach (sessions keep their state for resume).
                        // The close is queued first so the writer counts
                        // every ack.
                        Some(Mode::Framed) => {
                            let barriers = used.iter().filter(|&&u| u).count();
                            let _ = reply_tx.send(Reply::Close { barriers });
                            for (shard, was_used) in used.iter().enumerate() {
                                if *was_used {
                                    send_job(
                                        &txs[shard],
                                        Job::Barrier {
                                            reply: reply_tx.clone(),
                                        },
                                    );
                                }
                            }
                            return Ok(true);
                        }
                    }
                }
            }
        })();
        if !matches!(result, Ok(true)) {
            let _ = reply_tx.send(Reply::Close { barriers: 0 });
        }
        let written = written
            .join()
            .unwrap_or_else(|_| Err(io(std::io::Error::other("reply writer panicked"))));
        (result, written)
    });
    for session in &attached {
        registry.detach(session);
    }
    read.and(written).map(|_| ())
}

/// The writing half of [`handle_conn`]: writes each reply as soon as
/// it arrives. Stops after a terminal stream/raw reply (half-closing
/// the socket so the peer sees the end at once), after a
/// [`Reply::Close`] and the barrier acks it announces, on a write
/// error, or on `stop` — and then sets `done` for the reader.
fn write_replies(
    mut conn: TcpStream,
    peer: &str,
    mode: &OnceLock<Mode>,
    replies: &mpsc::Receiver<Reply>,
    stop: &AtomicBool,
    done: &AtomicBool,
) -> Result<(), ServeError> {
    // Barrier acks still awaited once the reader has closed.
    let mut closing: Option<usize> = None;
    let result = loop {
        if closing == Some(0) {
            break Ok(());
        }
        match replies.recv_timeout(Duration::from_millis(50)) {
            Ok(Reply::Close { barriers }) => closing = Some(barriers),
            Ok(Reply::Flushed) => {
                if let Some(pending) = closing.as_mut() {
                    *pending = pending.saturating_sub(1);
                }
            }
            Ok(reply) => match write_reply(&mut conn, peer, mode.get().copied(), reply) {
                Ok(false) => {}
                Ok(true) => {
                    let _ = conn.shutdown(std::net::Shutdown::Write);
                    break Ok(());
                }
                Err(e) => break Err(e),
            },
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Relaxed) {
                    break Ok(());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break Ok(()),
        }
    };
    done.store(true, Ordering::Relaxed);
    result
}

/// Sends a job, tolerating a worker pool that is shutting down.
fn send_job(tx: &mpsc::SyncSender<Job>, job: Job) {
    let _ = tx.send(job);
}

/// Writes one worker reply to the peer. Returns `true` when the reply
/// is terminal for a stream/raw connection (report or error
/// delivered; close).
fn write_reply(
    conn: &mut TcpStream,
    peer: &str,
    mode: Option<Mode>,
    reply: Reply,
) -> Result<bool, ServeError> {
    let io = |source| ServeError::Io {
        peer: peer.to_owned(),
        source,
    };
    let framed = mode == Some(Mode::Framed);
    match reply {
        Reply::Report { session, json } => {
            if framed {
                conn.write_all(&encode_report_frame(&session, json.as_bytes()))
                    .map_err(io)?;
                Ok(false)
            } else {
                // Stream/raw reply body is the raw report JSON —
                // byte-identical to `cafa analyze --format json`.
                conn.write_all(json.as_bytes()).map_err(io)?;
                conn.flush().map_err(io)?;
                Ok(true)
            }
        }
        Reply::Error { session, message } => {
            conn.write_all(&encode_error_frame(&session, &message))
                .map_err(io)?;
            Ok(!framed)
        }
        Reply::Detached { durable } => {
            if framed {
                Ok(false)
            } else {
                // Tell the client where to resume: a second CAFO
                // frame instead of a report.
                conn.write_all(&encode_offset_reply(durable)).map_err(io)?;
                Ok(true)
            }
        }
        Reply::Offset { session, durable } => {
            if framed {
                conn.write_all(&encode_offset_reply_frame(&session, durable))
                    .map_err(io)?;
            } else {
                // Stream mode: the attach's answer is the handshake.
                conn.write_all(&encode_offset_reply(durable)).map_err(io)?;
            }
            Ok(false)
        }
        Reply::Frame(bytes) => {
            conn.write_all(&bytes).map_err(io)?;
            Ok(false)
        }
        Reply::Flushed | Reply::Close { .. } => Ok(false),
    }
}

/// One shard worker: owns the analysis state and journals of every
/// session hashed to it, processes jobs in arrival order, and
/// enforces the memory budget at job boundaries.
fn worker_loop(shard: usize, rx: &mpsc::Receiver<Job>, registry: &Registry, config: &ServerConfig) {
    let mut slots: HashMap<String, Slot> = HashMap::new();
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => handle_job(shard, job, &mut slots, registry, config),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        enforce_budget(shard, &mut slots, registry);
    }
}

fn handle_job(
    shard: usize,
    job: Job,
    slots: &mut HashMap<String, Slot>,
    registry: &Registry,
    config: &ServerConfig,
) {
    match job {
        Job::Attach { session, reply } => {
            let durable = match ensure_slot(shard, &session, slots, registry, config) {
                Ok(slot) => slot.processed,
                Err(e) => {
                    let _ = reply.send(Reply::Error {
                        session: session.clone(),
                        message: e.to_string(),
                    });
                    return;
                }
            };
            let _ = reply.send(Reply::Offset { session, durable });
        }
        Job::Data {
            session,
            bytes,
            reply,
        } => {
            if let Err(e) = ingest(shard, &session, &bytes, slots, registry, config, &reply) {
                fail_session(&session, &e, slots, registry, &reply);
            }
        }
        Job::Eof {
            session,
            finish_incomplete,
            reply,
        } => {
            let complete = match restore_if_needed(shard, &session, slots, registry, config) {
                Ok(slot) => slot
                    .session
                    .as_ref()
                    .is_some_and(IncrementalSession::is_complete),
                Err(e) => {
                    fail_session(&session, &e, slots, registry, &reply);
                    return;
                }
            };
            if complete || finish_incomplete {
                finish_session(&session, slots, registry, &reply);
            } else {
                let durable = slots.get(&session).map_or(0, |s| s.processed);
                let _ = reply.send(Reply::Detached { durable });
            }
        }
        Job::Offset { session, reply } => {
            let durable = match ensure_slot(shard, &session, slots, registry, config) {
                Ok(slot) => slot.processed,
                Err(e) => {
                    fail_session(&session, &e, slots, registry, &reply);
                    return;
                }
            };
            let _ = reply.send(Reply::Offset { session, durable });
        }
        Job::Barrier { reply } => {
            let _ = reply.send(Reply::Flushed);
        }
    }
}

/// Journals and analyzes one chunk; emits the final report if the
/// chunk completes the trace.
fn ingest(
    shard: usize,
    session_id: &str,
    bytes: &[u8],
    slots: &mut HashMap<String, Slot>,
    registry: &Registry,
    config: &ServerConfig,
    reply: &mpsc::Sender<Reply>,
) -> Result<(), ServeError> {
    let slot = restore_if_needed(shard, session_id, slots, registry, config)?;
    if !bytes.is_empty() {
        // Journal first: once this returns, the bytes are durable and
        // count toward the offset clients resume from.
        if let Some(journal) = &mut slot.journal {
            journal
                .append(bytes)
                .map_err(|source| ServeError::Snapshot {
                    session: session_id.to_owned(),
                    source,
                })?;
            registry.on_durable(session_id, shard, journal.durable_offset());
        }
        let sess = slot.session.as_mut().expect("restored above");
        sess.push(bytes).map_err(|source| ServeError::Session {
            session: session_id.to_owned(),
            source,
        })?;
        slot.processed += bytes.len() as u64;
        slot.footprint = sess.footprint_bytes();
        registry.on_push(session_id, shard, bytes.len(), slot.footprint);
    }
    slot.last_touch = registry.tick();
    let complete = slot
        .session
        .as_ref()
        .is_some_and(IncrementalSession::is_complete);
    if complete {
        finish_session(session_id, slots, registry, reply);
    }
    Ok(())
}

/// Looks up (or creates) the session's slot, opening its journal when
/// a state directory is configured. Does *not* replay the journal —
/// restore is deferred to the first byte.
fn ensure_slot<'a>(
    shard: usize,
    session_id: &str,
    slots: &'a mut HashMap<String, Slot>,
    registry: &Registry,
    config: &ServerConfig,
) -> Result<&'a mut Slot, ServeError> {
    if !slots.contains_key(session_id) {
        let journal = match &config.state_dir {
            Some(dir) => {
                Some(
                    Journal::open(dir, session_id).map_err(|source| ServeError::Snapshot {
                        session: session_id.to_owned(),
                        source,
                    })?,
                )
            }
            None => None,
        };
        let processed = journal.as_ref().map_or(0, Journal::durable_offset);
        if let Some(j) = &journal {
            registry.on_durable(session_id, shard, j.durable_offset());
        }
        let session = if processed == 0 {
            Some(IncrementalSession::new(config.opts))
        } else {
            None // cold: restore on first byte
        };
        slots.insert(
            session_id.to_owned(),
            Slot {
                session,
                journal,
                processed,
                last_touch: registry.tick(),
                footprint: 0,
            },
        );
    }
    Ok(slots.get_mut(session_id).expect("just inserted"))
}

/// Ensures the session's analysis state is resident, replaying its
/// journal if it was evicted (or is being resumed after a restart).
fn restore_if_needed<'a>(
    shard: usize,
    session_id: &str,
    slots: &'a mut HashMap<String, Slot>,
    registry: &Registry,
    config: &ServerConfig,
) -> Result<&'a mut Slot, ServeError> {
    let slot = ensure_slot(shard, session_id, slots, registry, config)?;
    if slot.session.is_none() {
        let dir = config
            .state_dir
            .as_deref()
            .expect("cold slots only exist with a state dir");
        let frames = read_frames(dir, session_id).map_err(|source| ServeError::Snapshot {
            session: session_id.to_owned(),
            source,
        })?;
        let sess = IncrementalSession::restore(config.opts, frames.iter().map(Vec::as_slice))
            .map_err(|source| ServeError::Session {
                session: session_id.to_owned(),
                source,
            })?;
        slot.footprint = sess.footprint_bytes();
        slot.processed = frames.iter().map(|f| f.len() as u64).sum();
        registry.on_restore(session_id, shard, slot.footprint);
        slot.session = Some(sess);
    }
    Ok(slot)
}

/// Finalizes a session: renders the report (byte-identical to batch
/// `analyze --format json`), frees its state, and deletes its journal.
fn finish_session(
    session_id: &str,
    slots: &mut HashMap<String, Slot>,
    registry: &Registry,
    reply: &mpsc::Sender<Reply>,
) {
    let Some(slot) = slots.remove(session_id) else {
        let _ = reply.send(Reply::Detached { durable: 0 });
        return;
    };
    let Some(sess) = slot.session else {
        let _ = reply.send(Reply::Detached {
            durable: slot.processed,
        });
        return;
    };
    match sess.finish() {
        Ok(outcome) => {
            let json = cafa_core::json::render_json(&outcome.report, &outcome.trace);
            registry.on_terminal(session_id, SessionPhase::Completed);
            if let Some(journal) = slot.journal {
                let _ = journal.delete();
            }
            let _ = reply.send(Reply::Report {
                session: session_id.to_owned(),
                json,
            });
        }
        Err(source) => {
            let e = ServeError::Session {
                session: session_id.to_owned(),
                source,
            };
            registry.on_terminal(session_id, SessionPhase::Failed);
            let _ = reply.send(Reply::Error {
                session: session_id.to_owned(),
                message: e.to_string(),
            });
        }
    }
}

/// Marks a session failed after an ingest error; its journal (if any)
/// is kept on disk for diagnosis.
fn fail_session(
    session_id: &str,
    error: &ServeError,
    slots: &mut HashMap<String, Slot>,
    registry: &Registry,
    reply: &mpsc::Sender<Reply>,
) {
    eprintln!("serve: {error}");
    slots.remove(session_id);
    registry.on_terminal(session_id, SessionPhase::Failed);
    let _ = reply.send(Reply::Error {
        session: session_id.to_owned(),
        message: error.to_string(),
    });
}

/// LRU eviction under the worker's budget share: while this shard's
/// resident modeled footprint exceeds `budget / shards`, snapshot the
/// coldest resident session to its journal (already durable —
/// eviction just drops memory). Runs at every job boundary and on
/// idle ticks; the post-enforcement resident figure feeds the
/// registry's settled gauge, which is therefore bounded by the
/// budget whenever one is configured.
fn enforce_budget(shard: usize, slots: &mut HashMap<String, Slot>, registry: &Registry) {
    let mut resident: usize = slots
        .values()
        .map(|s| if s.session.is_some() { s.footprint } else { 0 })
        .sum();
    if let Some(share) = registry.shard_share() {
        while resident > share {
            let victim = slots
                .iter()
                .filter(|(_, s)| s.session.is_some() && s.journal.is_some())
                .min_by_key(|(_, s)| s.last_touch)
                .map(|(id, _)| id.clone());
            let Some(id) = victim else { break };
            let slot = slots.get_mut(&id).expect("victim exists");
            slot.session = None;
            resident -= slot.footprint;
            slot.footprint = 0;
            registry.on_evict(&id);
        }
    }
    registry.settle_shard(shard, resident);
}
