//! Race reports: the detector's output types.

use std::fmt;
use std::time::Duration;

use cafa_engine::PassStats;
use cafa_hb::DerivationStats;
use cafa_trace::{Trace, VarId};

use crate::filters::FilterReason;
use crate::partition::PartitionStats;
use crate::usefree::{FreeSite, UseSite};

/// How a reported race relates to the conventional baseline — the three
/// "true race" columns of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RaceClass {
    /// (a) Both endpoints are events of the same looper: an intra-thread
    /// violation, invisible to any thread-based detector by
    /// construction.
    IntraThread,
    /// (b) Endpoints span tasks (thread vs. event, or different
    /// loopers), and the conventional model *orders* them — only CAFA's
    /// relaxed event order exposes the race.
    InterThread,
    /// (c) Also concurrent under the conventional model: a conventional
    /// detector would find it too.
    Conventional,
}

impl fmt::Display for RaceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaceClass::IntraThread => "intra-thread",
            RaceClass::InterThread => "inter-thread",
            RaceClass::Conventional => "conventional",
        };
        f.write_str(s)
    }
}

/// How a race reported by the predictive backend relates to the HB
/// backend — the per-backend comparison columns of `--detector both`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PredictClass {
    /// Reported by both backends: the HB relation also leaves the pair
    /// unordered and unfiltered.
    Both,
    /// Only the predictive relation exposes the pair (HB orders it, or
    /// the strict lockset filter suppresses it): an *extra* report that
    /// must be adjudicated by replay — confirmed witness or counted
    /// false positive.
    PredictiveOnly,
}

impl fmt::Display for PredictClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PredictClass::Both => "both",
            PredictClass::PredictiveOnly => "predictive-only",
        };
        f.write_str(s)
    }
}

/// One race reported by the predictive backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictiveRace {
    /// The pointer variable raced on.
    pub var: VarId,
    /// The racing use.
    pub use_site: UseSite,
    /// The racing free.
    pub free_site: FreeSite,
    /// Relation to the HB backend's report set.
    pub class: PredictClass,
}

/// Counters from the predictive fixpoint and enumeration, mirrored
/// from `cafa_predict::PredictStats` plus the enumeration's own
/// counts. No wall times — the JSON rendering stays a pure function
/// of trace and configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictiveStats {
    /// Rounds until the conflict-gated fixpoint converged.
    pub rounds: u32,
    /// Atomicity/queue edges the gated fixpoint materialized.
    pub derived_edges: usize,
    /// Rule conclusions suppressed by the conflict gate — orderings HB
    /// keeps that the predictive relation deliberately drops.
    pub gated: u64,
    /// Conflict-scoped external-input edges (gesture pairs whose
    /// handlers share state).
    pub external_edges: usize,
    /// Dynamic (use, free) instance pairs the predictive enumeration
    /// examined.
    pub pairs_checked: usize,
    /// Candidates suppressed by the predictive filter set (the relaxed
    /// lockset plus the same-looper heuristics).
    pub filtered: usize,
    /// Variables whose predictive pair enumeration hit the cap.
    pub truncated_vars: usize,
}

/// The predictive backend's findings, attached to a [`RaceReport`]
/// when the detector runs with `--detector predictive|both`; `None`
/// under the default HB backend, keeping its output byte-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredictiveSection {
    /// Predictively-concurrent races, same (variable, use pc, free pc)
    /// deduplication and ordering discipline as [`RaceReport::races`].
    pub races: Vec<PredictiveRace>,
    /// Fixpoint + enumeration counters.
    pub stats: PredictiveStats,
}

impl PredictiveSection {
    /// Races of a given predictive class.
    pub fn count(&self, class: PredictClass) -> usize {
        self.races.iter().filter(|r| r.class == class).count()
    }
}

/// One reported use-free race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UseFreeRace {
    /// The pointer variable raced on.
    pub var: VarId,
    /// The racing use.
    pub use_site: UseSite,
    /// The racing free.
    pub free_site: FreeSite,
    /// Relation to the conventional baseline.
    pub class: RaceClass,
}

/// A candidate pair suppressed by a pruning heuristic, retained for
/// ablation studies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FilteredCandidate {
    /// The pointer variable.
    pub var: VarId,
    /// The candidate use.
    pub use_site: UseSite,
    /// The candidate free.
    pub free_site: FreeSite,
    /// Which heuristic suppressed it.
    pub reason: FilterReason,
}

/// Aggregate counters from one detector run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DetectStats {
    /// Events in the trace (the "Events" column of Table 1).
    pub events: usize,
    /// Variables with at least one use and one free.
    pub candidate_vars: usize,
    /// Dynamic (use, free) instance pairs examined.
    pub pairs_checked: usize,
    /// Variables whose instance pairs hit the per-variable cap; coverage
    /// for those variables is partial.
    pub truncated_vars: Vec<VarId>,
    /// Counters of a materializing rule derivation. Analysis answers
    /// through the demand engine, which runs none, so every field reads
    /// 0; its own counters are `HbModel::demand_stats`.
    pub derivation: DerivationStats,
    /// Island-partitioning counters; `None` when the monolithic path
    /// ran.
    pub partition: Option<PartitionStats>,
    /// Per-pass wall time and item counts (equality ignores the wall
    /// times; see [`PassStats`]). Rendered by `cafa analyze --timings`.
    pub passes: PassStats,
}

/// The result of analyzing one trace.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// Application name from the trace metadata.
    pub app: String,
    /// Reported races, deduplicated by (variable, use pc, free pc).
    pub races: Vec<UseFreeRace>,
    /// Candidates suppressed by heuristics, same deduplication.
    pub filtered: Vec<FilteredCandidate>,
    /// Run counters.
    pub stats: DetectStats,
    /// The predictive backend's findings; `None` unless the detector
    /// ran with [`DetectorKind`](crate::DetectorKind) `Predictive` or
    /// `Both`.
    pub predictive: Option<PredictiveSection>,
    /// Wall-clock analysis time.
    pub elapsed: Duration,
}

impl RaceReport {
    /// Races of a given class.
    pub fn count(&self, class: RaceClass) -> usize {
        self.races.iter().filter(|r| r.class == class).count()
    }

    /// Renders a human-readable summary, resolving names via `trace`.
    pub fn render(&self, trace: &Trace) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} race(s) reported, {} candidate(s) filtered ({} events, {} pairs checked)",
            self.app,
            self.races.len(),
            self.filtered.len(),
            self.stats.events,
            self.stats.pairs_checked,
        );
        for (i, r) in self.races.iter().enumerate() {
            let _ = writeln!(
                out,
                "  #{:<3} {:<12} var {:<6} use {} @{} in {}  <->  free {} @{} in {}",
                i + 1,
                r.class.to_string(),
                r.var.to_string(),
                r.use_site.at,
                r.use_site.read_pc,
                trace.task_name(r.use_site.at.task),
                r.free_site.at,
                r.free_site.pc,
                trace.task_name(r.free_site.at.task),
            );
            let _ = writeln!(
                out,
                "       context: {}  <->  {}",
                crate::context::render_stack(trace, r.use_site.at),
                crate::context::render_stack(trace, r.free_site.at),
            );
        }
        if !self.stats.truncated_vars.is_empty() {
            let _ = writeln!(
                out,
                "  note: pair cap hit for {} variable(s); coverage partial there",
                self.stats.truncated_vars.len()
            );
        }
        if let Some(p) = &self.predictive {
            let _ = writeln!(
                out,
                "  predictive: {} race(s), {} predictive-only ({} round(s), {} edge(s) derived, {} gated)",
                p.races.len(),
                p.count(PredictClass::PredictiveOnly),
                p.stats.rounds,
                p.stats.derived_edges,
                p.stats.gated,
            );
            for (i, r) in p.races.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  p#{:<2} {:<15} var {:<6} use {} @{} in {}  <->  free {} @{} in {}",
                    i + 1,
                    r.class.to_string(),
                    r.var.to_string(),
                    r.use_site.at,
                    r.use_site.read_pc,
                    trace.task_name(r.use_site.at.task),
                    r.free_site.at,
                    r.free_site.pc,
                    trace.task_name(r.free_site.at.task),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_display() {
        assert_eq!(RaceClass::IntraThread.to_string(), "intra-thread");
        assert_eq!(RaceClass::InterThread.to_string(), "inter-thread");
        assert_eq!(RaceClass::Conventional.to_string(), "conventional");
    }
}
