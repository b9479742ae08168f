//! Regenerates the §6.4 analysis-time observation; with
//! `--scale [--quick]`, the demand-engine fleet-island thread-scaling
//! sweep (`BENCH_scale.json`).
fn main() {
    let (mut scale, mut quick) = (false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--scale" => scale = true,
            "--quick" => quick = true,
            other => usage_error(&format!("unexpected argument `{other}`")),
        }
    }
    match (scale, quick) {
        (false, false) => cafa_bench::scaling::main(),
        (true, quick) => cafa_bench::scale::main(quick),
        (false, true) => usage_error("`--quick` needs `--scale`"),
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg} (usage: analysis_scaling [--scale [--quick]])");
    std::process::exit(1);
}
