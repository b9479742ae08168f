//! `analysis_scaling` accepts only `--scale [--quick]`: any other
//! argument is named and fails the run, instead of silently falling
//! through to the §6.4 sweep.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_analysis_scaling"))
        .args(args)
        .output()
        .expect("analysis_scaling starts");
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
