//! `analysis_scaling` accepts only `--scale [--quick]`: any other
//! argument is named and fails the run, instead of silently falling
//! through to the §6.4 sweep. `table1` accepts only the `--detector`
//! spellings `cafa analyze` accepts.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String) {
    run_bin(env!("CARGO_BIN_EXE_analysis_scaling"), args)
}

fn run_bin(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts");
    let code = out.status.code().expect("exits normally");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_argument_is_named_and_exits_1() {
    let (code, stderr) = run(&["--serve"]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("`--serve`"), "stderr: {stderr}");
}

#[test]
fn quick_without_scale_exits_1() {
    let (code, stderr) = run(&["--quick"]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("`--quick`"), "stderr: {stderr}");
}

#[test]
fn table1_rejects_an_unknown_detector_spelling() {
    for value in ["bogus", "predictive"] {
        let (code, stderr) = run_bin(env!("CARGO_BIN_EXE_table1"), &["--detector", value]);
        assert_eq!(code, 1, "stderr: {stderr}");
        assert_eq!(
            stderr,
            format!("error: bad detector `{value}` (valid backends: hb|both)\n")
        );
    }
}
