//! `paper-batch` and `fleet-1m`: the user's `cafa analyze app.bin`.
//! Each operation decodes stored binary trace bytes, analyzes them on
//! one thread with partitioning left on auto, renders the JSON report
//! and checks the verdict.

use std::time::Instant;

use cafa_apps::AppSpec;
use cafa_core::json::render_json;
use cafa_core::{AnalysisSession, Analyzer, DetectorConfig, RaceReport};
use cafa_model::scale::{generate_scale, ScaleConfig};
use cafa_model::GroundTruth;
use cafa_trace::{read_binary, to_binary_vec};

use crate::spans::Tracer;
use crate::workload::{
    labels_match, pass_span, read_golden, records, table1_row_matches, Counters, Verdict, Workload,
};
use crate::SetupTimes;

/// The recording seed the golden reports were made with.
pub const GOLDEN_SEED: u64 = 0;

/// Events in the fleet-1m tier.
pub const FLEET_EVENTS: usize = 1_000_000;

/// The independent reference one item's verdict is checked against.
enum Reference {
    /// Report bytes must equal the golden file's.
    Golden(String),
    /// The Table 1 row must equal the app's published row.
    Table1(Box<AppSpec>),
    /// Every label must be honoured (generated corpora).
    Labels(GroundTruth),
}

impl Reference {
    fn holds(&self, report: &RaceReport, json: &str) -> bool {
        match self {
            Reference::Golden(golden) => json == golden,
            Reference::Table1(app) => table1_row_matches(app, report),
            Reference::Labels(truth) => labels_match(truth, report).0,
        }
    }
}

struct Item {
    label: String,
    bytes: Vec<u8>,
    reference: Reference,
}

/// A batch-analysis workload over binary traces held in memory.
pub struct Batch {
    items: Vec<Item>,
    config: DetectorConfig,
}

/// One-thread analysis with every other setting at its default.
pub fn single_thread() -> DetectorConfig {
    DetectorConfig {
        threads: 1,
        ..DetectorConfig::cafa()
    }
}

impl Batch {
    /// The 10 Table 1 apps recorded under `seed`.
    pub fn paper(seed: u64, times: &mut SetupTimes) -> Result<Self, String> {
        let mut items = Vec::new();
        for app in cafa_apps::all_apps() {
            let t = Instant::now();
            let outcome = app.record(seed).map_err(|e| format!("{}: {e}", app.name))?;
            let trace = outcome.trace.ok_or("instrumented run records a trace")?;
            times.record_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let bytes = to_binary_vec(&trace);
            times.encode_s += t.elapsed().as_secs_f64();
            let label = app.name.to_lowercase();
            let reference = if seed == GOLDEN_SEED {
                Reference::Golden(read_golden(&format!("tests/golden/reports/{label}.json"))?)
            } else {
                Reference::Table1(Box::new(app))
            };
            items.push(Item {
                label,
                bytes,
                reference,
            });
        }
        Ok(Self {
            items,
            config: single_thread(),
        })
    }

    /// The `scale:<seed>:1000000` fleet tier.
    pub fn fleet(seed: u64, times: &mut SetupTimes) -> Result<Self, String> {
        let t = Instant::now();
        let app = generate_scale(ScaleConfig::new(seed, FLEET_EVENTS));
        times.generate_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let bytes = to_binary_vec(&app.trace);
        times.encode_s += t.elapsed().as_secs_f64();
        Ok(Self {
            items: vec![Item {
                label: format!("scale-{seed}"),
                bytes,
                reference: Reference::Labels(app.truth),
            }],
            config: single_thread(),
        })
    }
}

impl Workload for Batch {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn label(&self, i: usize) -> &str {
        &self.items[i].label
    }

    fn run(&mut self, i: usize, t: &mut Tracer, c: &mut Counters) -> Result<Verdict, String> {
        let item = &self.items[i];
        let trace = t
            .span("trace.decode", || read_binary(&item.bytes[..]))
            .map_err(|e| e.to_string())?;
        c.add("trace.records", records(&trace) as f64);
        c.add("trace.bytes", item.bytes.len() as f64);

        let session = AnalysisSession::new(&trace);
        let analyze = t.open("core.analyze");
        let report = Analyzer::with_config(self.config).analyze_with(&session);
        if let Ok(r) = &report {
            t.reported(analyze, &r.stats.passes, pass_span);
        }
        t.close();
        let report = report.map_err(|e| e.to_string())?;
        let json = t.span("core.render", || render_json(&report, &trace));
        c.add_report(&report, &session);

        let passed = t.span("bench.check", || item.reference.holds(&report, &json));
        let events = report.stats.events;
        // Freeing the decoded trace and the analysis state built on it
        // is part of the closed loop; charge it to the trace layer.
        t.open("trace.free");
        drop(report);
        drop(session);
        drop(trace);
        t.close();
        Ok(Verdict { events, passed })
    }
}
