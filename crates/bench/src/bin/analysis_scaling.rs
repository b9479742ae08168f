//! Regenerates the §6.4 analysis-time observation; with `--catalog`,
//! the generated-corpus precision/recall +
//! throughput sweep (`BENCH_catalog.json`); with `--serve`, the fleet
//! ingest server throughput/eviction/restore sweep
//! (`BENCH_serve.json`); with `--scale [--quick]`, the demand-engine
//! fleet-island scaling sweep (`BENCH_scale.json`); with `--predict`,
//! the predictive-vs-HB comparison with replay adjudication
//! (`BENCH_predict.json`).
fn main() {
    if std::env::args().any(|a| a == "--catalog") {
        cafa_bench::catalog::main();
    } else if std::env::args().any(|a| a == "--serve") {
        cafa_bench::serve::main();
    } else if std::env::args().any(|a| a == "--scale") {
        let quick = std::env::args().any(|a| a == "--quick");
        cafa_bench::scale::main(quick);
    } else if std::env::args().any(|a| a == "--predict") {
        cafa_bench::predict::main();
    } else {
        cafa_bench::scaling::main();
    }
}
