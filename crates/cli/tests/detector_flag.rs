//! End-to-end tests of `--detector`: backend selection, the typed
//! error for unknown backends, the both-mode report under `--follow`,
//! and the replay adjudication of predictive-only reports.

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

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cafa-detector-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn unknown_detector_is_a_typed_error() {
    // `gen` and `analyze` share one parser: same message, exit 1. The
    // value is validated before the trace path is touched, so a
    // nonexistent path never masks the message. `predictive` was once
    // a second spelling of `both`.
    for value in ["bogus", "predictive"] {
        for args in [
            &["analyze", "no-such.trace", "--detector", value][..],
            &["gen", "--detector", value][..],
        ] {
            let out = cafa(args);
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            assert_eq!(
                stderr(&out),
                format!("error: bad detector `{value}` (valid backends: hb|both)\n"),
                "{args:?}"
            );
        }
    }
}

/// `--follow` finishes through the batch analyzer, so under
/// `--detector both` it prints the batch both-mode JSON, predictive
/// section included.
#[test]
fn follow_prints_the_batch_both_mode_json() {
    let path = tmp("g70-follow.trace");
    let file = path.to_str().unwrap();
    let out = cafa(&["record", "gen:7:0", "--out", file]);
    assert!(out.status.success(), "{}", stderr(&out));
    let batch = cafa(&["analyze", file, "--detector", "both", "--format", "json"]);
    assert!(batch.status.success(), "{}", stderr(&batch));
    let expected = stdout(&batch);
    assert!(expected.contains("\"predictive\""), "{expected}");

    let follow = cafa(&[
        "analyze",
        file,
        "--follow",
        "--detector",
        "both",
        "--format",
        "json",
    ]);
    assert!(follow.status.success(), "{}", stderr(&follow));
    assert_eq!(stdout(&follow), expected);
    std::fs::remove_file(&path).ok();
}

#[test]
fn gen_detector_requires_counts_format() {
    let out = cafa(&["gen", "--detector", "both", "--count", "1"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("requires --format counts"));
}

#[test]
fn both_mode_reports_and_adjudicates_a_predictive_only_race() {
    // gen7-0000 plants a lock-handoff: HB-concurrent but suppressed by
    // the strict lockset filter, re-reported by the predictive
    // relation, and feasible — directed replay confirms it.
    let path = tmp("g70.trace");
    let out = cafa(&["record", "gen:7:0", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Default backend: no predictive section, no adjudication.
    let out = cafa(&["analyze", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(!text.contains("predictive"), "{text}");
    assert!(!text.contains("adjudication"), "{text}");

    let out = cafa(&["analyze", path.to_str().unwrap(), "--detector", "both"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("predictive-only"), "{text}");
    assert!(text.contains("adjudication: 1 predictive-only"), "{text}");
    assert!(text.contains("CONFIRMED"), "{text}");
    assert!(text.contains("replay-verified"), "{text}");

    // The adjudication replay rounds land in the pass table.
    let out = cafa(&[
        "analyze",
        path.to_str().unwrap(),
        "--detector",
        "both",
        "--timings",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    for pass in ["predict-build", "predict-candidates", "adjudicate"] {
        assert!(text.contains(pass), "missing {pass} row: {text}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn infeasible_predictive_report_is_a_counted_false_positive() {
    // gen7-0001 plants a fifo-handoff: the flip would invert a FIFO
    // queue order no schedule can produce, so directed synthesis
    // proves it infeasible and the ladder counts a false positive.
    let path = tmp("g71.trace");
    let out = cafa(&["record", "gen:7:1", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = cafa(&["analyze", path.to_str().unwrap(), "--detector", "both"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("false positive"), "{text}");
    assert!(text.contains("directed synthesis:"), "{text}");
    assert!(text.contains("0 confirmed, 1 false positive(s)"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn hb_report_bytes_are_unchanged_by_the_flag_spelled_explicitly() {
    let path = tmp("music.trace");
    let out = cafa(&["record", "music", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));

    let default = cafa(&["analyze", path.to_str().unwrap(), "--json"]);
    let explicit = cafa(&[
        "analyze",
        path.to_str().unwrap(),
        "--detector",
        "hb",
        "--json",
    ]);
    assert!(default.status.success() && explicit.status.success());
    assert_eq!(stdout(&default), stdout(&explicit));
    std::fs::remove_file(&path).ok();
}
