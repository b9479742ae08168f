//! Replies reach a framed client as soon as a worker produces them: a
//! connection that never half-closes gets each session's REPORT frame
//! without waiting for the server's 50 ms read timeout to fire.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cafa_core::json::render_json;
use cafa_core::Analyzer;
use cafa_fleetserve::client::{FramedClient, ServerFrame};
use cafa_fleetserve::server::{Server, ServerConfig};
use cafa_trace::{to_binary_vec, DerefKind, ObjId, Pc, Trace, TraceBuilder, VarId};

/// A two-event trace with one use-free race: small enough that its
/// analysis takes well under a millisecond.
fn tiny_trace() -> Trace {
    let mut b = TraceBuilder::new("tiny");
    let app = b.add_process();
    let q = b.add_queue(app);
    let svc = b.add_process();
    let ipc = b.add_thread(svc, "binder");
    let connected = b.post(ipc, q, "onServiceConnected", 0);
    let destroy = b.external(q, "onDestroy");
    b.process_event(connected);
    b.obj_read(connected, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x10));
    b.deref(connected, ObjId::new(1), Pc::new(0x14), DerefKind::Invoke);
    b.process_event(destroy);
    b.obj_write(destroy, VarId::new(0), None, Pc::new(0x20));
    b.finish().expect("valid trace")
}

#[test]
fn framed_reports_arrive_while_the_client_keeps_writing() {
    let config = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::bind("127.0.0.1:0", None, config).expect("bind succeeds"));
    let addr = server.local_addr().expect("bound").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || server.run(&stop))
    };

    let trace = tiny_trace();
    let bytes = to_binary_vec(&trace);
    let report = Analyzer::new().analyze(&trace).expect("analysis succeeds");
    let expected = render_json(&report, &trace);

    let mut client = FramedClient::connect(&addr, "latency").expect("connect");
    let mut latencies = Vec::new();
    for i in 0..20 {
        let session = format!("tiny-{i}");
        let start = Instant::now();
        client.send_data(&session, &bytes).expect("send");
        match client.read_frame().expect("read") {
            Some(ServerFrame::Report {
                session: got,
                payload,
            }) => {
                latencies.push(start.elapsed());
                assert_eq!(got, session);
                assert_eq!(payload, expected.as_bytes(), "{session}: report bytes");
            }
            other => panic!("{session}: expected a report, got {other:?}"),
        }
    }
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(25),
        "median report latency {median:?} (all: {latencies:?})"
    );

    client.finish_writes().expect("half-close");
    assert!(client.drain().expect("drain").is_empty());
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("server thread");
}
