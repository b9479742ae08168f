//! Benchmark and evaluation harnesses regenerating every table and
//! figure of the CAFA paper's evaluation (§6), plus ablations.
//!
//! Binaries:
//! * `table1` — Table 1 (races per app, classified);
//! * `fig8` — Figure 8 (tracing slowdown per app);
//! * `lowlevel_races` — §4.1 (1,664 conventional races in ConnectBot);
//! * `analysis_scaling` — §6.4 (analysis time vs events);
//! * `ablation` — queue rules / heuristics / listener coverage;
//! * `survey` — the §6.2 use-after-free violation survey;
//! * `streaming` — chunked-decode throughput and the
//!   incremental-append-vs-rebuild comparison (`BENCH_streaming.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod catalog;
pub mod confirm;
pub mod fig8;
pub mod lowlevel;
pub mod predict;
pub mod scale;
pub mod scaling;
pub mod serve;
pub mod streaming;
pub mod survey;
pub mod table1;
