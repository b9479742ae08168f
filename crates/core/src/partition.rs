//! Island-partitioned analysis: one trace, all cores.
//!
//! Real event-driven traces decompose into many causally independent
//! *islands* — weakly-connected components of the causality skeleton
//! (see [`cafa_engine::partition`]). No happens-before edge, candidate
//! pair, lockset, or conventional-baseline ordering ever crosses an
//! island boundary, so each island can be projected into a
//! self-contained sub-trace ([`Trace::project`]) and pushed through
//! the unmodified monolithic pipeline on its own fleet worker. The
//! per-island findings are then merged back into the exact monolithic
//! order, making the final report (and its JSON rendering)
//! **byte-identical** to the single-threaded path at every thread
//! count.
//!
//! # Why the merge is deterministic
//!
//! The monolithic candidate pass emits findings sorted by variable id,
//! and within one variable in use-major × free-minor extraction order.
//! Three facts make the partitioned path reproduce this exactly:
//!
//! 1. **Variables never straddle islands.** The skeleton has an edge
//!    between any two tasks accessing the same variable, so each
//!    variable's uses and frees live wholly inside one island (hence
//!    one batch), and per-variable findings are computed by exactly
//!    one worker over exactly the sites the monolithic pass saw.
//! 2. **Projection preserves extraction order.** Tasks keep their
//!    relative id order and bodies are copied verbatim, so each
//!    variable's use/free site lists are index-for-index those of the
//!    full trace (modulo task renumbering, undone at merge time).
//! 3. **Concatenate + stable sort by variable** therefore yields the
//!    monolithic global order regardless of how islands were grouped
//!    into batches or which worker finished first.
//!
//! Batching is a pure function of the partition (never of the thread
//! count): islands are greedily packed into at most [`MAX_BATCHES`]
//! record-balanced batches, amortizing the per-projection cost
//! (cloning the interner, copying bodies) over many islands.
//!
//! Counters sum the same way: `pairs_checked` and the per-variable
//! pair cap are variable-scoped, and `candidate_vars` partitions across
//! batches. The JSON report contains none of the wall times, so
//! equality holds at the byte level.

use std::time::Instant;

use cafa_engine::{fleet, AnalysisSession, PassStats, TracePartition};
use cafa_hb::HbError;
use cafa_trace::{Projection, TaskId};

use crate::detector::{Analyzer, DetectorConfig};
use crate::report::{DetectStats, RaceReport};

/// When the detector splits a trace into islands.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionMode {
    /// Partition when it pays: more than one island, at least
    /// [`AUTO_MIN_RECORDS`] records, and no happens-before model for
    /// the configuration already cached on the session (a caller that
    /// shares one session across analyses has already paid for the
    /// monolithic model, so reusing it beats re-deriving per island).
    #[default]
    Auto,
    /// Always analyze monolithically.
    Off,
    /// Partition whenever the trace has more than one island,
    /// regardless of size or cached models. Meant for differential
    /// tests; `Auto` is the right default everywhere else.
    Force,
}

impl PartitionMode {
    /// Parses a CLI value (`auto` / `off` / `force`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(Self::Auto),
            "off" => Some(Self::Off),
            "force" => Some(Self::Force),
            _ => None,
        }
    }
}

/// What the partition pass did, for `--timings` and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Weakly-connected components in the causality skeleton.
    pub islands: usize,
    /// Batches the islands were packed into (≤ [`MAX_BATCHES`]).
    pub batches: usize,
    /// Records in the largest single island — the lower bound on the
    /// critical path, however many workers run.
    pub largest_island_records: usize,
}

/// `Auto` partitions only at or above this many trace records; below
/// it, projection overhead beats the parallelism win.
pub const AUTO_MIN_RECORDS: usize = 10_000;

/// Upper bound on analysis batches. Island counts reach the tens of
/// thousands on fleet corpora; packing them into a fixed number of
/// record-balanced batches keeps per-projection overhead amortized
/// while still saturating any realistic worker pool.
pub const MAX_BATCHES: usize = 64;

/// Runs the partitioned pipeline if the mode, the trace, and the
/// session state call for it; `Ok(None)` means "analyze
/// monolithically".
///
/// # Errors
///
/// Propagates the first per-batch [`HbError`] in batch order, with its
/// task ids mapped back to the source trace.
pub(crate) fn try_partitioned(
    analyzer: &Analyzer,
    session: &AnalysisSession<'_>,
) -> Result<Option<RaceReport>, HbError> {
    let config = *analyzer.config();
    let trace = session.trace();
    match config.partition {
        PartitionMode::Off => return Ok(None),
        PartitionMode::Auto => {
            if session.has_model(config.causality) {
                return Ok(None);
            }
            let total: usize = (0..trace.task_count())
                .map(|i| trace.body_len(TaskId::from_usize(i)) as usize)
                .sum();
            if total < AUTO_MIN_RECORDS {
                return Ok(None);
            }
        }
        PartitionMode::Force => {}
    }

    let start = Instant::now();
    let mut passes = PassStats::default();
    let part = passes.run("partition", || {
        let p = session.partition();
        let islands = p.len();
        (p, islands)
    });
    if part.len() <= 1 {
        return Ok(None);
    }

    let batches = plan_batches(&part, MAX_BATCHES);
    let inner_config = DetectorConfig {
        threads: 1,
        partition: PartitionMode::Off,
        ..config
    };
    let threads = cafa_hb::resolve_threads(config.threads);
    let results = fleet::map(&batches, threads, |tasks| {
        let projection = trace.project(tasks);
        let inner = AnalysisSession::new(&projection.trace);
        Analyzer::with_config(inner_config)
            .analyze_with(&inner)
            .map(|report| unproject_report(report, &projection))
            .map_err(|e| e.map_tasks(|t| projection.tasks[t.index()]))
    });

    let mut reports = Vec::with_capacity(results.len());
    for result in results {
        reports.push(result?);
    }

    let mut stats = DetectStats {
        events: trace.stats().events,
        partition: Some(PartitionStats {
            islands: part.len(),
            batches: batches.len(),
            largest_island_records: part.largest_records(),
        }),
        ..DetectStats::default()
    };
    let mut races = Vec::new();
    let mut filtered = Vec::new();
    let merge_start = Instant::now();
    for report in reports {
        stats.candidate_vars += report.stats.candidate_vars;
        stats.pairs_checked += report.stats.pairs_checked;
        stats
            .truncated_vars
            .extend_from_slice(&report.stats.truncated_vars);
        for pass in &report.stats.passes.records {
            passes.accumulate(pass.name, pass.wall, pass.items);
        }
        races.extend(report.races);
        filtered.extend(report.filtered);
    }
    // Stable: within one variable (always one batch) the findings are
    // already in monolithic enumeration order.
    races.sort_by_key(|r| r.var);
    filtered.sort_by_key(|f| f.var);
    stats.truncated_vars.sort_unstable();
    passes.accumulate("merge", merge_start.elapsed(), races.len() + filtered.len());

    stats.passes = passes;
    Ok(Some(RaceReport {
        app: trace.meta().app.clone(),
        races,
        filtered,
        stats,
        // Only reached under the default HB detector (`analyze_with`
        // keeps predictive runs monolithic).
        predictive: None,
        elapsed: start.elapsed(),
    }))
}

/// Packs islands into at most `max_batches` record-balanced batches:
/// islands in min-task-id order, each to the currently lightest batch
/// (ties to the lowest index). A pure function of the partition, so
/// batch composition — and with it every per-pass item count — is
/// identical at every thread count.
fn plan_batches(partition: &TracePartition, max_batches: usize) -> Vec<Vec<TaskId>> {
    let n = partition.len().min(max_batches).max(1);
    let mut loads = vec![0usize; n];
    let mut batches: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    for (tasks, &records) in partition.components.iter().zip(&partition.records) {
        let slot = loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, load)| *load)
            .map(|(i, _)| i)
            .unwrap_or(0);
        // Even a record-less island costs a projection and a model.
        loads[slot] += records.max(1);
        batches[slot].extend_from_slice(tasks);
    }
    for batch in &mut batches {
        batch.sort_unstable();
    }
    batches
}

/// Rewrites a batch report's positions back to the source trace's
/// coordinates. Variables, program counters, and classes are
/// projection-invariant; only task ids moved.
fn unproject_report(mut report: RaceReport, projection: &Projection) -> RaceReport {
    for race in &mut report.races {
        race.use_site.at = projection.unproject(race.use_site.at);
        race.use_site.deref_at = projection.unproject(race.use_site.deref_at);
        race.free_site.at = projection.unproject(race.free_site.at);
    }
    for candidate in &mut report.filtered {
        candidate.use_site.at = projection.unproject(candidate.use_site.at);
        candidate.use_site.deref_at = projection.unproject(candidate.use_site.deref_at);
        candidate.free_site.at = projection.unproject(candidate.free_site.at);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::render_json;
    use cafa_trace::{DerefKind, ObjId, Pc, Trace, TraceBuilder, VarId};

    /// Many independent islands, each with one use-free race.
    fn island_trace(islands: usize) -> Trace {
        let mut b = TraceBuilder::new("islands");
        for i in 0..islands {
            let p = b.add_process();
            let q = b.add_queue(p);
            let t1 = b.add_thread(p, "src1");
            let t2 = b.add_thread(p, "src2");
            let v = VarId::from_usize(i);
            let o = ObjId::from_usize(i + 1);
            // Distinct posters keep the two events concurrent.
            let use_ev = b.post(t1, q, "useEv", 0);
            b.process_event(use_ev);
            b.obj_read(use_ev, v, Some(o), Pc::new(0x1010));
            b.deref(use_ev, o, Pc::new(0x1014), DerefKind::Field);
            let free_ev = b.post(t2, q, "freeEv", 0);
            b.process_event(free_ev);
            b.obj_write(free_ev, v, None, Pc::new(0x2010));
        }
        b.finish().unwrap()
    }

    fn config(mode: PartitionMode, threads: usize) -> DetectorConfig {
        DetectorConfig {
            partition: mode,
            threads,
            ..DetectorConfig::cafa()
        }
    }

    #[test]
    fn forced_partition_matches_monolithic_bytes() {
        let trace = island_trace(7);
        let monolithic = Analyzer::with_config(config(PartitionMode::Off, 1))
            .analyze(&trace)
            .unwrap();
        assert_eq!(monolithic.races.len(), 7);
        let reference = render_json(&monolithic, &trace);
        for threads in [1, 2, 8] {
            let session = AnalysisSession::new(&trace);
            let report = Analyzer::with_config(config(PartitionMode::Force, threads))
                .analyze_with(&session)
                .unwrap();
            let stats = report.stats.partition.expect("partitioned path ran");
            assert_eq!(stats.islands, 7);
            assert!(stats.batches <= stats.islands);
            assert_eq!(render_json(&report, &trace), reference);
        }
    }

    #[test]
    fn auto_skips_small_traces_and_cached_models() {
        let trace = island_trace(3);
        // Small trace: auto stays monolithic.
        let report = Analyzer::with_config(config(PartitionMode::Auto, 2))
            .analyze(&trace)
            .unwrap();
        assert!(report.stats.partition.is_none());
        // Cached model: auto stays monolithic even when forced-size.
        let session = AnalysisSession::new(&trace);
        let cfg = config(PartitionMode::Auto, 2);
        session
            .model(cfg.causality)
            .expect("model builds on a valid trace");
        let report = Analyzer::with_config(cfg).analyze_with(&session).unwrap();
        assert!(report.stats.partition.is_none());
    }

    #[test]
    fn single_island_falls_back_to_monolithic() {
        let mut b = TraceBuilder::new("one-island");
        let p = b.add_process();
        let t = b.add_thread(p, "main");
        b.write(t, VarId::new(0));
        let trace = b.finish().unwrap();
        let report = Analyzer::with_config(config(PartitionMode::Force, 4))
            .analyze(&trace)
            .unwrap();
        assert!(report.stats.partition.is_none());
    }

    #[test]
    fn batching_is_a_pure_function_of_the_partition() {
        let trace = island_trace(5);
        let session = AnalysisSession::new(&trace);
        let part = session.partition();
        let a = plan_batches(&part, 2);
        let b = plan_batches(&part, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, trace.task_count());
        // More batches than islands: one island per batch.
        assert_eq!(plan_batches(&part, MAX_BATCHES).len(), 5);
    }
}
