//! Evaluation harnesses regenerating every table and figure of the CAFA
//! paper's evaluation (§6), plus ablations.
//!
//! Binaries:
//! * `table1` — Table 1 (races per app, classified); with
//!   `--detector both`, the HB-vs-predictive comparison;
//! * `fig8` — Figure 8 (tracing slowdown per app);
//! * `lowlevel_races` — §4.1 (1,664 conventional races in ConnectBot);
//! * `analysis_scaling` — §6.4 (analysis time vs events); with
//!   `--scale [--quick]`, the thread-scaling sweep (`BENCH_scale.json`);
//! * `ablation` — queue rules / heuristics / listener coverage;
//! * `survey` — the §6.2 use-after-free violation survey;
//! * `confirm` — detected races confirmed by schedule search;
//! * `fullreport` — every experiment above in one markdown report.
//!
//! Speed is measured by the standalone `perfbench/` package; the only
//! timing record here is `BENCH_scale.json`, because perfbench pins
//! analysis to one thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod confirm;
pub mod fig8;
pub mod lowlevel;
pub mod scale;
pub mod scaling;
pub mod survey;
pub mod table1;
