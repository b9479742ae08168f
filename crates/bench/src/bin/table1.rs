//! Regenerates Table 1 of the paper. With `--detector both`, appends
//! the per-backend comparison (HB vs predictive, replay-adjudicated)
//! instead of the plain table.
use cafa_core::DetectorKind;

fn main() {
    let valid = DetectorKind::VALID.join("|");
    let mut args = std::env::args().skip(1);
    let detector = match args.next().as_deref() {
        None => DetectorKind::Hb,
        Some("--detector") => {
            let value = args.next().unwrap_or_default();
            DetectorKind::parse(&value).unwrap_or_else(|| {
                fail(&format!("bad detector `{value}` (valid backends: {valid})"))
            })
        }
        Some(other) => fail(&format!(
            "unknown argument `{other}` (usage: table1 [--detector {valid}])"
        )),
    };
    match detector {
        DetectorKind::Hb => cafa_bench::table1::main(),
        DetectorKind::Both => cafa_bench::table1::main_both(),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
