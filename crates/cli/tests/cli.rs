//! End-to-end tests of the `cafa` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cafa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cafa"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cafa-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_and_apps() {
    let out = cafa(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("record"));

    let out = cafa(&["apps"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for app in ["ConnectBot", "MyTracks", "Music"] {
        assert!(text.contains(app), "missing {app}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = cafa(&["bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn record_analyze_stats_roundtrip_text() {
    let path = tmp("vlc.trace");
    let out = cafa(&["record", "vlc", "--out", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("2805 events"));

    let out = cafa(&["analyze", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("7 race(s) reported"), "{text}");
    assert!(text.contains("context:"));

    let out = cafa(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("events)"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn record_analyze_binary_and_models() {
    let path = tmp("vlc.bin");
    let out = cafa(&[
        "record",
        "vlc",
        "--format",
        "binary",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // The conventional model hides the same-looper reports.
    let conv = cafa(&["analyze", path.to_str().unwrap(), "--model", "conventional"]);
    assert!(conv.status.success());
    let cafa_out = cafa(&["analyze", path.to_str().unwrap()]);
    // First line: "<app>: N race(s) reported, ...".
    let count = |o: &Output| {
        let t = stdout(o);
        let line = t.lines().next().unwrap_or("").to_owned();
        line.split(':')
            .nth(1)
            .unwrap_or("")
            .trim()
            .split(' ')
            .next()
            .unwrap_or("0")
            .parse::<usize>()
            .unwrap_or(999)
    };
    assert!(count(&conv) < count(&cafa_out), "conventional sees fewer");
    std::fs::remove_file(&path).ok();
}

#[test]
fn dump_respects_limit_and_pipes_cleanly() {
    let path = tmp("dump.trace");
    assert!(cafa(&["record", "vlc", "--out", path.to_str().unwrap()])
        .status
        .success());
    let limited = cafa(&["dump", path.to_str().unwrap(), "--limit", "1"]);
    assert!(limited.status.success());
    let text = stdout(&limited);
    assert!(text.starts_with("trace \"VLC\""));
    assert!(
        text.contains("more record(s)"),
        "limit announces truncation"
    );
    // No panic/backtrace output even for large dumps.
    assert!(String::from_utf8_lossy(&limited.stderr).is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn graph_exports_dot_for_small_traces_only() {
    // The golden fixture is a small scenario.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden.trace"
    );
    let out = cafa(&["graph", fixture]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dot = stdout(&out);
    assert!(dot.starts_with("digraph hb {"));
    assert!(dot.contains("cluster_0"));

    // Big traces are refused with a clear message.
    let path = tmp("big.trace");
    assert!(cafa(&["record", "vlc", "--out", path.to_str().unwrap()])
        .status
        .success());
    let refused = cafa(&["graph", path.to_str().unwrap()]);
    assert!(!refused.status.success());
    assert!(String::from_utf8_lossy(&refused.stderr).contains("only readable"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_json_is_machine_readable() {
    let path = tmp("json.trace");
    assert!(cafa(&["record", "music", "--out", path.to_str().unwrap()])
        .status
        .success());
    let out = cafa(&["analyze", path.to_str().unwrap(), "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.trim_start().starts_with('{'));
    assert!(text.contains("\"races\": ["));
    assert!(text.contains("\"class\": \"intra-thread\""));
    // Balanced structure (cheap well-formedness check without a JSON dep).
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert_eq!(text.matches('[').count(), text.matches(']').count());
    std::fs::remove_file(&path).ok();
}

/// Runs `cafa serve` with `input` piped to stdin.
fn serve_stdin_output(args: &[&str], input: &[u8]) -> Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_cafa"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input)
        .expect("stdin accepts the trace");
    child.wait_with_output().expect("serve finishes")
}

/// Runs `cafa serve` with `input` piped to stdin, returning stdout.
fn serve_stdin(args: &[&str], input: &[u8]) -> String {
    let out = serve_stdin_output(args, input);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout(&out)
}

/// One byte after the end of a binary trace is an error in every mode:
/// batch, `--follow` and `serve` report the same message and offset,
/// whether `serve` reads the byte alone or with the end of the trace.
#[test]
fn trailing_bytes_fail_in_batch_follow_and_serve() {
    let path = tmp("trailing.bin");
    assert!(cafa(&[
        "record",
        "connectbot",
        "--format",
        "binary",
        "--out",
        path.to_str().unwrap()
    ])
    .status
    .success());
    let mut bytes = std::fs::read(&path).unwrap();
    let expected = format!(
        "parse error at {}: unexpected data after end of trace",
        bytes.len()
    );
    bytes.push(0x01);
    std::fs::write(&path, &bytes).unwrap();

    let file = path.to_str().unwrap();
    let runs = [
        ("batch", cafa(&["analyze", file])),
        ("--follow", cafa(&["analyze", file, "--follow"])),
        ("serve", serve_stdin_output(&[], &bytes)),
        (
            "serve --chunk 1",
            serve_stdin_output(&["--chunk", "1"], &bytes),
        ),
        (
            "serve --chunk 13",
            serve_stdin_output(&["--chunk", "13"], &bytes),
        ),
    ];
    for (mode, out) in runs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{mode} accepted trailing bytes");
        assert!(stderr.contains(&expected), "{mode}: {stderr}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_stdin_matches_batch_analysis() {
    let path = tmp("serve.bin");
    assert!(cafa(&[
        "record",
        "vlc",
        "--format",
        "binary",
        "--out",
        path.to_str().unwrap()
    ])
    .status
    .success());
    let batch = cafa(&["analyze", path.to_str().unwrap(), "--json"]);
    assert!(batch.status.success());
    let expected = stdout(&batch);
    let bytes = std::fs::read(&path).unwrap();

    // Byte-identical at an awkward chunk size.
    assert_eq!(serve_stdin(&["--chunk", "13"], &bytes), expected);
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_follow_and_format_json_match_batch() {
    let path = tmp("follow.bin");
    assert!(cafa(&[
        "record",
        "music",
        "--format",
        "binary",
        "--out",
        path.to_str().unwrap()
    ])
    .status
    .success());
    let batch = cafa(&["analyze", path.to_str().unwrap(), "--json"]);
    assert!(batch.status.success());
    let expected = stdout(&batch);

    // --format json is the spelled-out alias for --json.
    let alias = cafa(&["analyze", path.to_str().unwrap(), "--format", "json"]);
    assert!(alias.status.success());
    assert_eq!(stdout(&alias), expected);

    // Tailing an already-complete file drains it and reports once.
    let follow = cafa(&[
        "analyze",
        path.to_str().unwrap(),
        "--follow",
        "--format",
        "json",
    ]);
    assert!(
        follow.status.success(),
        "{}",
        String::from_utf8_lossy(&follow.stderr)
    );
    assert_eq!(stdout(&follow), expected);
    std::fs::remove_file(&path).ok();
}

/// The `--timings` block with wall times and percentages dropped, so
/// two runs of the same analysis compare equal.
fn timings_shape(text: &str) -> Vec<String> {
    text.lines()
        .skip_while(|l| *l != "pass timings:")
        .map(|l| {
            l.split_whitespace()
                .filter(|t| {
                    let timed = t.starts_with(|c: char| c.is_ascii_digit()) && t.ends_with('s');
                    !timed && !t.ends_with('%')
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

#[test]
fn analyze_follow_timings_print_the_batch_breakdown() {
    let path = tmp("follow-timings.bin");
    assert!(cafa(&[
        "record",
        "connectbot",
        "--format",
        "binary",
        "--out",
        path.to_str().unwrap()
    ])
    .status
    .success());
    let batch = cafa(&["analyze", path.to_str().unwrap(), "--timings"]);
    let follow = cafa(&["analyze", path.to_str().unwrap(), "--follow", "--timings"]);
    assert!(batch.status.success() && follow.status.success());
    let (batch, follow) = (stdout(&batch), stdout(&follow));

    // One printer, one pipeline: the same rows, items and counters.
    let shape = timings_shape(&follow);
    assert_eq!(shape, timings_shape(&batch));
    assert!(
        shape.iter().any(|l| l.starts_with("partition: ")),
        "{follow}"
    );
    assert!(shape.iter().any(|l| l.starts_with("session: ")), "{follow}");
    assert!(!follow.contains("derive(s)"), "{follow}");
    assert!(!follow.contains("backpressure"), "{follow}");
    std::fs::remove_file(&path).ok();
}

/// Where a cyclic test trace gets an unrelated thread of 10,000
/// writes: an island that takes the trace past the size at which the
/// default path partitions it. Created first, the filler shifts every
/// task id of the cyclic island by one.
#[derive(Clone, Copy, Debug)]
enum Filler {
    None,
    First,
    Last,
}

fn add_filler(b: &mut cafa_trace::TraceBuilder) {
    let other = b.add_process();
    let w = b.add_thread(other, "filler");
    for _ in 0..10_000 {
        b.write(w, cafa_trace::VarId::new(1));
    }
}

/// Crossed notify/wait generations: a waits for what it will later
/// notify b to produce, and vice versa. Structurally valid (each
/// record is well-formed) but no real execution can order it: the base
/// edges alone are cyclic.
fn crossed_wait_trace(filler: Filler) -> cafa_trace::Trace {
    use cafa_trace::{MonitorId, TraceBuilder};
    let mut b = TraceBuilder::new("cyclic");
    if let Filler::First = filler {
        add_filler(&mut b);
    }
    let p = b.add_process();
    let ta = b.add_thread(p, "a");
    let tb = b.add_thread(p, "b");
    let m = MonitorId::new(0);
    b.wait(ta, m, 2);
    b.notify(ta, m, 1);
    b.wait(tb, m, 1);
    b.notify(tb, m, 2);
    if let Filler::Last = filler {
        add_filler(&mut b);
    }
    b.finish().expect("structurally valid")
}

#[test]
fn analyze_rejects_cyclic_trace_with_named_nodes() {
    let path = tmp("cyclic.trace");
    let trace = crossed_wait_trace(Filler::None);
    std::fs::write(&path, cafa_trace::to_text_string(&trace)).unwrap();

    let out = cafa(&["analyze", path.to_str().unwrap()]);
    assert!(!out.status.success(), "cyclic trace must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cyclic"), "{err}");
    assert!(err.contains("@record"), "error names cycle nodes: {err}");
    std::fs::remove_file(&path).ok();
}

/// T posts A then B with equal delays, yet the looper runs B first,
/// and B notifies a monitor A waits on: queue rule 1 derives A ≺ B and
/// the atomicity rule B ≺ A. A uses a pointer B frees, so the analysis
/// must query the pair.
fn derived_cycle_trace(filler: Filler) -> cafa_trace::Trace {
    use cafa_trace::{DerefKind, MonitorId, ObjId, Pc, TraceBuilder, VarId};
    let mut b = TraceBuilder::new("derived-cycle");
    if let Filler::First = filler {
        add_filler(&mut b);
    }
    let p = b.add_process();
    let q = b.add_queue(p);
    let t = b.add_thread(p, "T");
    let a = b.post(t, q, "A", 0);
    let eb = b.post(t, q, "B", 0);
    let (m, ptr, obj) = (MonitorId::new(0), VarId::new(0), ObjId::new(1));
    b.process_event(eb);
    b.notify(eb, m, 0);
    b.obj_write(eb, ptr, None, Pc::new(0x20));
    b.process_event(a);
    b.wait(a, m, 0);
    b.obj_read(a, ptr, Some(obj), Pc::new(0x10));
    b.deref(a, obj, Pc::new(0x14), DerefKind::Field);
    if let Filler::Last = filler {
        add_filler(&mut b);
    }
    b.finish().expect("structurally valid")
}

/// A trace whose happens-before relation is cyclic, through its derived
/// orders or its base edges alone, is rejected alike by the default
/// path, the monolithic and forced-island paths, `--follow` and
/// `serve`, with and without a filler island that makes the default
/// path partition: every mode names the same nodes of the source trace.
#[test]
fn derived_cycle_is_rejected_in_every_mode() {
    for filler in [Filler::None, Filler::First, Filler::Last] {
        for (name, trace) in [
            ("derived cycle", derived_cycle_trace(filler)),
            ("crossed waits", crossed_wait_trace(filler)),
        ] {
            let bytes = cafa_trace::to_binary_vec(&trace);
            let path = tmp(&format!("{}-{filler:?}.bin", name.replace(' ', "-")));
            std::fs::write(&path, &bytes).unwrap();
            let file = path.to_str().unwrap();
            let runs = [
                ("default", cafa(&["analyze", file])),
                (
                    "--partition off",
                    cafa(&["analyze", file, "--partition", "off"]),
                ),
                (
                    "--partition force",
                    cafa(&["analyze", file, "--partition", "force"]),
                ),
                ("--follow", cafa(&["analyze", file, "--follow"])),
                ("serve", serve_stdin_output(&[], &bytes)),
            ];
            let mut first: Option<String> = None;
            for (mode, out) in runs {
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(
                    out.status.code(),
                    Some(1),
                    "{mode} ({name}, filler {filler:?}) accepted a cyclic trace: {}",
                    stdout(&out)
                );
                let at = stderr
                    .find("happens-before relation is cyclic")
                    .unwrap_or_else(|| panic!("{mode} ({name}, filler {filler:?}): {stderr}"));
                let text = stderr[at..].to_owned();
                match &first {
                    None => first = Some(text),
                    Some(expected) => assert_eq!(
                        &text, expected,
                        "{mode} ({name}, filler {filler:?}) differs from the default path"
                    ),
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Flags that no longer exist are rejected by name, not ignored.
#[test]
fn removed_flags_fail_as_unexpected_arguments() {
    let mut b = cafa_trace::TraceBuilder::new("flags");
    let p = b.add_process();
    let main = b.add_thread(p, "main");
    b.write(main, cafa_trace::VarId::new(0));
    let path = tmp("removed-flags.trace");
    let trace = b.finish().expect("structurally valid");
    std::fs::write(&path, cafa_trace::to_text_string(&trace)).unwrap();
    let file = path.to_str().unwrap();
    let runs = [
        ("--verbose", cafa(&["analyze", file, "--verbose"])),
        ("--live", cafa(&["serve", "--live"])),
    ];
    for (flag, out) in runs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} accepted: {stderr}");
        assert!(
            stderr.contains(&format!("unexpected argument `{flag}`")),
            "{flag}: {stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_threads_flag_is_byte_stable() {
    let path = tmp("threads.trace");
    assert!(cafa(&["record", "music", "--out", path.to_str().unwrap()])
        .status
        .success());
    let one = cafa(&[
        "analyze",
        path.to_str().unwrap(),
        "--json",
        "--threads",
        "1",
    ]);
    assert!(one.status.success());
    let eight = cafa(&[
        "analyze",
        path.to_str().unwrap(),
        "--json",
        "--threads",
        "8",
    ]);
    assert!(eight.status.success());
    assert_eq!(
        stdout(&one),
        stdout(&eight),
        "thread count leaks into report"
    );

    let bad = cafa(&["analyze", path.to_str().unwrap(), "--threads", "zero"]);
    assert!(!bad.status.success());
    std::fs::remove_file(&path).ok();
}

#[test]
fn stats_format_json_is_machine_readable() {
    let path = tmp("stats.trace");
    assert!(cafa(&["record", "vlc", "--out", path.to_str().unwrap()])
        .status
        .success());
    let out = cafa(&["stats", path.to_str().unwrap(), "--format", "json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.trim_start().starts_with('{'));
    for key in [
        "\"app\"",
        "\"tasks\"",
        "\"events\"",
        "\"frees\"",
        "\"sends\"",
    ] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    std::fs::remove_file(&path).ok();
}

#[test]
fn convert_roundtrips_formats() {
    let text_path = tmp("conv.trace");
    let bin_path = tmp("conv.bin");
    let back_path = tmp("conv2.trace");
    assert!(
        cafa(&["record", "vlc", "--out", text_path.to_str().unwrap()])
            .status
            .success()
    );
    assert!(cafa(&[
        "convert",
        text_path.to_str().unwrap(),
        bin_path.to_str().unwrap()
    ])
    .status
    .success());
    assert!(cafa(&[
        "convert",
        bin_path.to_str().unwrap(),
        back_path.to_str().unwrap()
    ])
    .status
    .success());
    let original = std::fs::read_to_string(&text_path).unwrap();
    let roundtripped = std::fs::read_to_string(&back_path).unwrap();
    assert_eq!(original, roundtripped, "text -> binary -> text is stable");
    for p in [&text_path, &bin_path, &back_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn order_command_explains() {
    let path = tmp("order.trace");
    let out = cafa(&["record", "music", "--out", path.to_str().unwrap()]);
    assert!(out.status.success());
    // t0 is the first pattern thread; its record 1 (the post) is
    // ordered before the posted event's records... simplest: ask about
    // two records in the same task.
    let out = cafa(&["order", path.to_str().unwrap(), "t0", "0", "t0", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("happens-before"));

    let out = cafa(&["order", path.to_str().unwrap(), "t9999", "0", "t0", "0"]);
    assert!(!out.status.success());
    std::fs::remove_file(&path).ok();
}

/// Spawns `cafa serve --listen 127.0.0.1:0 [args]` and returns the
/// child plus the bound address parsed from its stderr.
fn spawn_serve(args: &[&str]) -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_cafa"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let line = lines
        .next()
        .expect("serve announces its address")
        .expect("stderr is utf-8");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line}"))
        .to_owned();
    (child, addr)
}

/// The PR 2 serve bug, pinned at the CLI: one server process keeps
/// accepting connections, and every `cafa push` session's report is
/// byte-identical to batch `analyze --format json`.
#[test]
fn serve_listen_handles_sequential_pushes_from_one_process() {
    let path = tmp("serve-tcp.bin");
    assert!(cafa(&[
        "record",
        "vlc",
        "--format",
        "binary",
        "--out",
        path.to_str().unwrap()
    ])
    .status
    .success());
    let batch = cafa(&["analyze", path.to_str().unwrap(), "--json"]);
    assert!(batch.status.success());
    let expected = stdout(&batch);

    let (mut server, addr) = spawn_serve(&["--threads", "2"]);
    for session in ["device-a", "device-b"] {
        let out = cafa(&[
            "push",
            path.to_str().unwrap(),
            "--connect",
            &addr,
            "--session",
            session,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(stdout(&out), expected, "session {session}");
    }
    server.kill().ok();
    server.wait().ok();
    std::fs::remove_file(&path).ok();
}

/// Serve failures are typed errors carrying their context: binding an
/// occupied port names the address and exits nonzero, and a memory
/// budget without a state directory is rejected up front.
#[test]
fn serve_errors_carry_context_and_exit_nonzero() {
    // Occupy a port, then ask serve to bind it.
    let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = holder.local_addr().expect("addr").to_string();
    let out = cafa(&["serve", "--listen", &addr]);
    assert!(!out.status.success(), "bind conflict must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("cannot listen on {addr}")),
        "error names the address: {err}"
    );

    let out = cafa(&["serve", "--listen", "127.0.0.1:0", "--memory-budget", "1M"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--state-dir"), "{err}");

    // TCP-only flags are refused in stdin mode rather than ignored.
    let out = cafa(&["serve", "--memory-budget", "1M"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("require --listen"), "{err}");
}

/// `cafa push` against a dead address is a typed connect error naming
/// the address, with a nonzero exit.
#[test]
fn push_to_unreachable_server_fails_with_address() {
    let path = tmp("push-dead.bin");
    assert!(cafa(&[
        "record",
        "vlc",
        "--format",
        "binary",
        "--out",
        path.to_str().unwrap()
    ])
    .status
    .success());
    // A port nothing listens on: bind-then-drop reserves and frees it.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let out = cafa(&[
        "push",
        path.to_str().unwrap(),
        "--connect",
        &addr,
        "--session",
        "dev",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(&addr), "error names the address: {err}");
    std::fs::remove_file(&path).ok();
}
