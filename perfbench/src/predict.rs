//! `predict-both`: the 10 Table 1 apps plus five generated apps,
//! analyzed with `DetectorKind::Both` on one thread. Every
//! predictive-only report goes through `cafa_replay::adjudicate_races`,
//! so an operation ends at an adjudicated verdict. Traces are held
//! decoded, so the trace layer is bypassed.

use std::collections::BTreeSet;
use std::time::Instant;

use cafa_apps::AppSpec;
use cafa_core::json::render_json;
use cafa_core::{AnalysisSession, Analyzer, DetectorConfig, DetectorKind, PredictClass};
use cafa_model::Label;
use cafa_replay::{adjudicate_races, ReplayConfig};
use cafa_trace::{Trace, VarId};

use crate::batch::{single_thread, GOLDEN_SEED};
use crate::spans::Tracer;
use crate::workload::{
    labels_match, pass_span, read_golden, table1_row_matches, Counters, Verdict, Workload,
};
use crate::SetupTimes;

/// Generated apps per run: `gen:<seed>:0` .. `gen:<seed>:4`.
pub const GEN_SLOTS: usize = 5;

/// The generated-corpus seed `tests/golden/predict_counts.txt` pins.
pub const PREDICT_GOLDEN_SEED: u64 = 7;

/// The independent reference one item's verdict is checked against.
enum Reference {
    /// A paper app: no predictive-only extras, and the HB section
    /// equals the golden report (or, off the golden seed, the Table 1
    /// row).
    Paper { golden: Option<String> },
    /// A generated app: the HB report honours every label, and the
    /// adjudicated extras equal the predictive labels (confirmed
    /// exactly where `confirmable`). On the pinned seed the counts
    /// line must also equal its golden row.
    Generated { golden: Option<String> },
}

struct Item {
    app: AppSpec,
    label: String,
    trace: Trace,
    reference: Reference,
}

/// The predictive workload.
pub struct Predict {
    items: Vec<Item>,
    config: DetectorConfig,
    replay: ReplayConfig,
}

impl Predict {
    /// Records the paper apps and `gen:<seed>:0..5` under `seed`.
    pub fn new(seed: u64, times: &mut SetupTimes) -> Result<Self, String> {
        let counts = if seed == PREDICT_GOLDEN_SEED {
            Some(read_golden("tests/golden/predict_counts.txt")?)
        } else {
            None
        };
        let mut apps: Vec<(AppSpec, bool)> = cafa_apps::all_apps()
            .into_iter()
            .map(|a| (a, true))
            .collect();
        for i in 0..GEN_SLOTS {
            let app = cafa_apps::resolve(&format!("gen:{seed}:{i}")).map_err(|e| e.to_string())?;
            apps.push((app, false));
        }
        let mut items = Vec::new();
        for (app, paper) in apps {
            let t = Instant::now();
            let outcome = app.record(seed).map_err(|e| format!("{}: {e}", app.name))?;
            let trace = outcome.trace.ok_or("instrumented run records a trace")?;
            times.record_s += t.elapsed().as_secs_f64();
            let label = app.name.to_lowercase();
            let reference = if paper {
                let golden = (seed == GOLDEN_SEED)
                    .then(|| read_golden(&format!("tests/golden/reports/{label}.json")))
                    .transpose()?;
                Reference::Paper { golden }
            } else {
                let golden = match &counts {
                    Some(text) => Some(
                        text.lines()
                            .find(|l| l.starts_with(&format!("{} ", app.name)))
                            .ok_or_else(|| format!("{}: no golden counts row", app.name))?
                            .to_owned(),
                    ),
                    None => None,
                };
                Reference::Generated { golden }
            };
            items.push(Item {
                app,
                label,
                trace,
                reference,
            });
        }
        Ok(Self {
            items,
            config: DetectorConfig {
                detector: DetectorKind::Both,
                ..single_thread()
            },
            replay: ReplayConfig::default(),
        })
    }
}

impl Workload for Predict {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn label(&self, i: usize) -> &str {
        &self.items[i].label
    }

    fn run(&mut self, i: usize, t: &mut Tracer, c: &mut Counters) -> Result<Verdict, String> {
        let item = &self.items[i];
        let session = AnalysisSession::new(&item.trace);
        let analyze = t.open("core.analyze");
        let report = Analyzer::with_config(self.config).analyze_with(&session);
        if let Ok(r) = &report {
            t.reported(analyze, &r.stats.passes, pass_span);
        }
        t.close();
        let mut report = report.map_err(|e| e.to_string())?;
        c.add_report(&report, &session);

        let section = report
            .predictive
            .take()
            .ok_or("both mode attaches a predictive section")?;
        let hb_json = t.span("core.render", || render_json(&report, &item.trace));
        let extras: Vec<VarId> = section
            .races
            .iter()
            .filter(|r| r.class == PredictClass::PredictiveOnly)
            .map(|r| r.var)
            .collect();
        c.add("predict.derived_edges", section.stats.derived_edges as f64);
        c.add("predict.extras", extras.len() as f64);

        let confirmed: BTreeSet<VarId> = if extras.is_empty() {
            BTreeSet::new()
        } else {
            let adj = t
                .span("replay.adjudicate", || {
                    adjudicate_races(&item.app, &extras, &self.replay)
                })
                .map_err(|e| e.to_string())?;
            c.add("replay.runs", adj.total_runs() as f64);
            c.add("replay.confirmed", adj.confirmed() as f64);
            c.add("replay.false_positives", adj.false_positives() as f64);
            adj.reports
                .iter()
                .filter(|r| r.confirmed())
                .map(|r| r.var)
                .collect()
        };

        let passed = t.span("bench.check", || match &item.reference {
            Reference::Paper { golden } => {
                extras.is_empty()
                    && match golden {
                        Some(g) => hb_json == *g,
                        None => table1_row_matches(&item.app, &report),
                    }
            }
            Reference::Generated { golden } => {
                let (hb_ok, score) = labels_match(&item.app.truth, &report);
                let planted = |want: Option<bool>| -> BTreeSet<VarId> {
                    item.app
                        .truth
                        .iter()
                        .filter(|(_, l)| match *l {
                            Label::Predictive { confirmable } => {
                                want.is_none_or(|w| w == confirmable)
                            }
                            _ => false,
                        })
                        .map(|(v, _)| v)
                        .collect()
                };
                let extras_ok = extras.iter().copied().collect::<BTreeSet<_>>() == planted(None)
                    && confirmed == planted(Some(true));
                let line = format!(
                    "{} pred_extra={} pred_confirmed={} pred_fp={}",
                    score.counts_line(&item.app.name),
                    extras.len(),
                    confirmed.len(),
                    extras.len() - confirmed.len()
                );
                hb_ok && extras_ok && golden.as_ref().is_none_or(|g| line == *g)
            }
        });
        Ok(Verdict {
            events: report.stats.events,
            passed,
        })
    }
}
