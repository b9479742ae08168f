//! `serve-stream`: the 10 Table 1 apps pushed over loopback TCP into a
//! one-shard `fleetserve::Server` with a journal directory, one framed
//! connection at a time, in 64 KiB chunks. An operation runs from
//! connect to the report frame; the report must equal the batch
//! `render_json` of the same trace.
//!
//! The traced run also replays each trace in process through
//! `IncrementalSession::push`/`finish` on the same bytes and chunking,
//! outside the operation's timing, to split the session's latency into
//! the stream layer and the server's own overhead.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cafa_core::json::render_json;
use cafa_core::{AnalysisSession, Analyzer};
use cafa_fleetserve::client::{FramedClient, ServerFrame};
use cafa_fleetserve::server::{Server, ServerConfig};
use cafa_stream::{IncrementalSession, StreamOptions};
use cafa_trace::to_binary_vec;

use crate::batch::single_thread;
use crate::spans::Tracer;
use crate::workload::{pass_span, Counters, Verdict, Workload};
use crate::SetupTimes;

/// Bytes per data frame.
pub const CHUNK: usize = 64 << 10;

struct Item {
    label: String,
    bytes: Vec<u8>,
    events: usize,
    /// Batch `render_json` of the same trace.
    expected: String,
}

/// The serving workload; dropping it stops the server and removes its
/// journal directory.
pub struct Serve {
    items: Vec<Item>,
    opts: StreamOptions,
    server: Arc<Server>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    addr: String,
    state_dir: PathBuf,
    sessions: u64,
}

impl Serve {
    /// Records the apps under `seed`, renders their batch reports and
    /// binds a one-shard server journaling into `state_dir`.
    pub fn new(seed: u64, state_dir: PathBuf, times: &mut SetupTimes) -> Result<Self, String> {
        let mut items = Vec::new();
        for app in cafa_apps::all_apps() {
            let t = Instant::now();
            let outcome = app.record(seed).map_err(|e| format!("{}: {e}", app.name))?;
            let trace = outcome.trace.ok_or("instrumented run records a trace")?;
            times.record_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let bytes = to_binary_vec(&trace);
            times.encode_s += t.elapsed().as_secs_f64();
            let report = Analyzer::with_config(single_thread())
                .analyze_with(&AnalysisSession::new(&trace))
                .map_err(|e| format!("{}: {e}", app.name))?;
            items.push(Item {
                label: app.name.to_lowercase(),
                bytes,
                events: report.stats.events,
                expected: render_json(&report, &trace),
            });
        }

        let opts = StreamOptions {
            detector: single_thread(),
            ..StreamOptions::default()
        };
        let config = ServerConfig {
            opts,
            threads: 1,
            state_dir: Some(state_dir.clone()),
            ..ServerConfig::default()
        };
        let server =
            Arc::new(Server::bind("127.0.0.1:0", None, config).map_err(|e| e.to_string())?);
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || server.run(&stop))
        };
        Ok(Self {
            items,
            opts,
            server,
            stop,
            handle: Some(handle),
            addr,
            state_dir,
            sessions: 0,
        })
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// Reads frames until `session`'s report (or error) arrives.
fn await_report(client: &mut FramedClient, session: &str) -> Result<Vec<u8>, String> {
    loop {
        match client.read_frame().map_err(|e| e.to_string())? {
            Some(ServerFrame::Report {
                session: s,
                payload,
            }) if s == session => return Ok(payload),
            Some(ServerFrame::Error { message, .. }) => return Err(message),
            Some(_) => {}
            None => return Err(format!("{session}: connection closed before the report")),
        }
    }
}

impl Workload for Serve {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn label(&self, i: usize) -> &str {
        &self.items[i].label
    }

    fn run(&mut self, i: usize, t: &mut Tracer, c: &mut Counters) -> Result<Verdict, String> {
        let item = &self.items[i];
        self.sessions += 1;
        let session = format!("{}-{}", item.label, self.sessions);

        // Half-close right after the last chunk, as `cafa push` and the
        // server's own tests do: while the write side is open, the
        // server notices a finished report only when its 50 ms read
        // timeout fires.
        t.open("fleetserve.send");
        let sent = FramedClient::connect(&self.addr, "perfbench").and_then(|mut client| {
            for chunk in item.bytes.chunks(CHUNK) {
                client.send_data(&session, chunk)?;
            }
            client.finish_writes()?;
            Ok(client)
        });
        t.close();
        let mut client = sent.map_err(|e| e.to_string())?;
        let payload = t.span("fleetserve.report_wait", || {
            await_report(&mut client, &session)
        })?;
        t.span("fleetserve.close", || client.drain())
            .map_err(|e| e.to_string())?;
        if let Some(m) = self.server.registry().session(&session) {
            c.add("fleetserve.journal_bytes", m.durable_bytes as f64);
        }

        let passed = t.span("bench.check", || payload == item.expected.as_bytes());
        Ok(Verdict {
            events: item.events,
            passed,
        })
    }

    fn trace_extra(&mut self, i: usize, t: &mut Tracer, c: &mut Counters) -> Result<(), String> {
        let item = &self.items[i];
        let push = t.open("stream.push");
        let mut session = IncrementalSession::new(self.opts);
        let mut footprint = 0usize;
        for chunk in item.bytes.chunks(CHUNK) {
            session.push(chunk).map_err(|e| e.to_string())?;
            footprint = footprint.max(session.footprint_bytes());
        }
        t.close();
        let finish = t.open("stream.finish");
        let outcome = session.finish().map_err(|e| e.to_string())?;
        t.reported(finish, &outcome.report.stats.passes, pass_span);
        t.close();
        t.reported(push, &outcome.passes, pass_span);

        let progress = outcome.progress;
        c.add("trace.records", progress.records as f64);
        c.add("trace.bytes", progress.bytes as f64);
        c.add("stream.derives", progress.derives);
        c.add(
            "stream.backpressure_flushes",
            progress.backpressure_flushes as f64,
        );
        c.max("stream.footprint_mb", footprint as f64 / 1e6);
        c.add_report(&outcome.report, &AnalysisSession::new(&outcome.trace));
        Ok(())
    }
}
