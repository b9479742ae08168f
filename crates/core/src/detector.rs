//! The use-free race detector (§4).
//!
//! The detection path is a sequence of named passes over an
//! [`AnalysisSession`]: `extract` (uses/frees/allocations/guards) →
//! `hb-build` (the CAFA happens-before model) → `candidates`
//! (concurrent (use, free) pairs per pointer variable) → `filters`
//! (lockset, if-guard, and intra-event-allocation suppression) →
//! `baseline-hb` (the conventional model: one vector-clock sweep over
//! the session's shared base, built lazily and only when a cross-looper
//! race needs classification) → `classify`. Per-pass wall time and item
//! counts land in [`DetectStats::passes`](crate::report::DetectStats);
//! shared state (memory ops, models) lives in the session so repeated
//! analyses of one trace reuse it.

use std::collections::HashSet;
use std::fmt;
use std::time::Instant;

use cafa_engine::{AnalysisSession, PassStats};
use cafa_hb::{CausalityConfig, HbError, HbModel, LockSets};
use cafa_predict::PredictModel;
use cafa_trace::{OpRef, Pc, Trace, VarId};

use crate::filters::{alloc_after_free, alloc_before_use, if_guarded, FilterReason};
use crate::partition::PartitionMode;
use crate::report::{
    DetectStats, FilteredCandidate, PredictClass, PredictiveRace, PredictiveSection,
    PredictiveStats, RaceClass, RaceReport, UseFreeRace,
};
use crate::usefree::{FreeSite, MemoryOps, UseSite};

/// Which detection backend(s) a run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DetectorKind {
    /// The paper's single-trace happens-before pipeline (default).
    /// Output is byte-identical to every release before the predictive
    /// backend existed.
    #[default]
    Hb,
    /// Also build the predictive (weaker-than-HB) relation of
    /// `cafa-predict` over the same session, and attach its findings as
    /// the report's predictive section, each classified `both` or
    /// `predictive-only` against the HB report set.
    Both,
}

impl DetectorKind {
    /// The CLI spellings, in the order `--detector` documents them.
    pub const VALID: [&'static str; 2] = ["hb", "both"];

    /// Parses a CLI value (`hb` / `both`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hb" => Some(Self::Hb),
            "both" => Some(Self::Both),
            _ => None,
        }
    }

    /// True when the predictive backend runs (`Both`).
    pub fn runs_predictive(self) -> bool {
        !matches!(self, Self::Hb)
    }
}

impl fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetectorKind::Hb => "hb",
            DetectorKind::Both => "both",
        };
        f.write_str(s)
    }
}

/// Detector configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectorConfig {
    /// The causality model races are judged against.
    pub causality: CausalityConfig,
    /// Apply the if-guard heuristic (§4.3).
    pub if_guard: bool,
    /// Apply the intra-event-allocation heuristic (§4.3).
    pub intra_event_alloc: bool,
    /// Suppress pairs protected by a common monitor (§3.2).
    pub lockset_filter: bool,
    /// Cap on dynamic (use, free) instance pairs examined per variable.
    /// Hitting the cap is recorded in
    /// [`DetectStats::truncated_vars`](crate::report::DetectStats) —
    /// never silent.
    pub max_pairs_per_var: usize,
    /// Drop uses whose dereference-to-read match is ambiguous (two
    /// recent reads of different variables observed the same object).
    /// Off by default — the paper's tool uses plain nearest-previous
    /// matching and pays Type III false positives for it; this switch
    /// implements the §6.3 suggestion of resolving the match precisely
    /// (trading those false positives for potential false negatives).
    pub drop_ambiguous_uses: bool,
    /// Worker threads for the candidate pass and the
    /// island-partitioned pipeline (`0` = auto: `CAFA_THREADS`, else
    /// the machine's parallelism). Reports are byte-identical at any
    /// setting; this only trades wall time.
    pub threads: usize,
    /// Island partitioning policy (see [`crate::PartitionMode`]):
    /// split the trace into causally independent sub-traces and
    /// analyze them concurrently, merging findings back into the
    /// monolithic order.
    pub partition: PartitionMode,
    /// Which backend(s) run: the HB pipeline alone (default), or the
    /// HB pipeline plus the predictive relation of `cafa-predict`.
    pub detector: DetectorKind,
}

impl DetectorConfig {
    /// Full CAFA configuration: CAFA causality plus both heuristics and
    /// the lockset filter.
    pub fn cafa() -> Self {
        Self {
            causality: CausalityConfig::cafa(),
            if_guard: true,
            intra_event_alloc: true,
            lockset_filter: true,
            max_pairs_per_var: 10_000,
            drop_ambiguous_uses: false,
            threads: 0,
            partition: PartitionMode::Auto,
            detector: DetectorKind::Hb,
        }
    }

    /// CAFA with the §6.3 precise-matching fix: ambiguous
    /// dereference-to-read matches are dropped instead of reported.
    pub fn precise_matching() -> Self {
        Self {
            drop_ambiguous_uses: true,
            ..Self::cafa()
        }
    }

    /// CAFA causality with *no* pruning heuristics — the ablation the
    /// paper motivates §4.3 with.
    pub fn unfiltered() -> Self {
        Self {
            if_guard: false,
            intra_event_alloc: false,
            lockset_filter: false,
            ..Self::cafa()
        }
    }

    /// EventRacer-style ablation: no event-queue rules.
    pub fn no_queue_rules() -> Self {
        Self {
            causality: CausalityConfig::no_queue_rules(),
            ..Self::cafa()
        }
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self::cafa()
    }
}

/// The use-free race detector.
///
/// # Examples
///
/// Detecting the Figure 1 MyTracks race:
///
/// ```
/// use cafa_trace::{TraceBuilder, VarId, ObjId, Pc, DerefKind};
/// use cafa_core::{Analyzer, RaceClass};
///
/// // onServiceConnected is posted by a service thread while onDestroy
/// // comes from the user, so no rule orders them: a use-free race.
/// let mut b = TraceBuilder::new("MyTracks");
/// let app = b.add_process();
/// let q = b.add_queue(app);
/// let svc = b.add_process();
/// let ipc = b.add_thread(svc, "binder");
/// let connected = b.post(ipc, q, "onServiceConnected", 0);
/// let destroy = b.external(q, "onDestroy");
/// b.process_event(connected);
/// b.obj_read(connected, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x1010));
/// b.deref(connected, ObjId::new(1), Pc::new(0x1014), DerefKind::Invoke);
/// b.process_event(destroy);
/// b.obj_write(destroy, VarId::new(0), None, Pc::new(0x2010));
/// let trace = b.finish().unwrap();
///
/// let report = Analyzer::new().analyze(&trace).unwrap();
/// assert_eq!(report.races.len(), 1);
/// assert_eq!(report.races[0].class, RaceClass::IntraThread);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Analyzer {
    config: DetectorConfig,
}

impl Analyzer {
    /// An analyzer with the full CAFA configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// An analyzer with a custom configuration.
    pub fn with_config(config: DetectorConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Analyzes one trace.
    ///
    /// A thin facade: creates a single-trace [`AnalysisSession`] and
    /// delegates to [`analyze_with`](Self::analyze_with). Callers
    /// analyzing one trace repeatedly (several configs, or detector
    /// plus baselines) should create the session themselves and share
    /// it, so the extracted ops and happens-before models are reused.
    ///
    /// # Errors
    ///
    /// Returns [`HbError`] if the happens-before model cannot be built
    /// or its queries derive a cyclic relation.
    pub fn analyze(&self, trace: &Trace) -> Result<RaceReport, HbError> {
        let session = AnalysisSession::new(trace);
        self.analyze_with(&session)
    }

    /// Analyzes the session's trace, reusing whatever the session has
    /// already computed (memory ops, cached models).
    ///
    /// The conventional classification baseline is built lazily, and
    /// only when a cross-looper race needs it for classification. It
    /// has no rules to derive, so it is one vector-clock sweep over the
    /// base the session built for the CAFA model, not a second graph or
    /// fixpoint. Consequently a trace whose conventional model cannot be
    /// built only fails here when a cross-looper race actually needs it.
    ///
    /// # Errors
    ///
    /// Returns [`HbError`] if a required happens-before model cannot
    /// be built, or if the queries the analysis made derived a cyclic
    /// relation ([`HbModel::check`]), on the monolithic path and inside
    /// each island alike.
    pub fn analyze_with(&self, session: &AnalysisSession<'_>) -> Result<RaceReport, HbError> {
        // Multi-island traces can take the partitioned path: analyze
        // each causally independent sub-trace on its own worker, then
        // merge back into the monolithic order (byte-identical JSON;
        // see `crate::partition`).
        if let Some(report) = crate::partition::try_partitioned(self, session)? {
            return Ok(report);
        }

        let trace = session.trace();
        let start = Instant::now();
        let mut passes = PassStats::default();

        let ops = passes.run("extract", || {
            let ops = session.ops();
            (ops, ops.uses.len() + ops.frees.len())
        });

        let model = passes.run("hb-build", || match session.model(self.config.causality) {
            Ok(m) => {
                let events = m.events().len();
                (Ok(m), events)
            }
            Err(e) => (Err(e), 0),
        })?;

        let mut stats = DetectStats {
            events: trace.stats().events,
            ..DetectStats::default()
        };

        let candidates = passes.run("candidates", || {
            // The workers share the model, not the session's `Rc`.
            let hb: &HbModel = &model;
            let c = enumerate_candidates(&self.config, ops, |a, b| hb.happens_before(a, b));
            stats.candidate_vars = c.candidate_vars;
            stats.pairs_checked = c.pairs_checked;
            stats.truncated_vars = c.truncated_vars;
            let count = c.found.len();
            (c.found, count)
        });

        let (filtered, survivors) = passes.run("filters", || {
            let locks = LockSets::new(trace);
            let mut filtered: Vec<FilteredCandidate> = Vec::new();
            let mut survivors: Vec<Candidate> = Vec::new();
            for c in candidates {
                match filter_reason(&self.config, &model, &locks, ops, &c, || true) {
                    Some(reason) => filtered.push(FilteredCandidate {
                        var: c.var,
                        use_site: c.use_site,
                        free_site: c.free_site,
                        reason,
                    }),
                    None => survivors.push(c),
                }
            }
            let count = filtered.len();
            ((filtered, survivors), count)
        });

        // The conventional baseline, for classification — lazy, and
        // served from the session cache when the main model *is* the
        // conventional one or another analysis already built it.
        let conventional = passes.run("baseline-hb", || {
            let needed = survivors
                .iter()
                .any(|c| !model.same_looper(c.use_site.at.task, c.free_site.at.task));
            if !needed {
                return (Ok(None), 0);
            }
            match session.model(CausalityConfig::conventional()) {
                Ok(m) => {
                    let events = m.events().len();
                    (Ok(Some(m)), events)
                }
                Err(e) => (Err(e), 0),
            }
        })?;

        let races = passes.run("classify", || {
            let races: Vec<UseFreeRace> = survivors
                .into_iter()
                .map(|c| {
                    let class = classify(&model, conventional.as_deref(), &c);
                    UseFreeRace {
                        var: c.var,
                        use_site: c.use_site,
                        free_site: c.free_site,
                        class,
                    }
                })
                .collect();
            let count = races.len();
            (races, count)
        });
        // The last HB query has run (the predictive passes ask only
        // `same_looper`): fail if the queries derived a cycle.
        model.check()?;

        // The predictive backend, sharing the session's extracted ops
        // and the already-built HB model (for same-looper topology and
        // the both/predictive-only classification).
        let predictive = if self.config.detector.runs_predictive() {
            let pmodel = passes.run("predict-build", || match PredictModel::build(trace) {
                Ok(m) => {
                    let edges = m.stats().derived_edges;
                    (Ok(m), edges)
                }
                Err(e) => (Err(e), 0),
            })?;
            let section = passes.run("predict-candidates", || {
                let s = predictive_section(&self.config, ops, &model, &pmodel, trace, &races);
                let count = s.races.len();
                (s, count)
            });
            Some(section)
        } else {
            None
        };

        stats.passes = passes;
        Ok(RaceReport {
            app: trace.meta().app.clone(),
            races,
            filtered,
            stats,
            predictive,
            elapsed: start.elapsed(),
        })
    }
}

/// The filter step of both backends: the heuristic that suppresses a
/// candidate, or `None`. A common monitor counts only when `lock_orders`
/// agrees that it orders the two critical sections: always for HB
/// (`|| true`), for the predictive backend only when the tasks conflict
/// beyond the racing variable.
fn filter_reason(
    config: &DetectorConfig,
    model: &HbModel,
    locks: &LockSets,
    ops: &MemoryOps,
    c: &Candidate,
    lock_orders: impl FnOnce() -> bool,
) -> Option<FilterReason> {
    let (use_site, free_site) = (&c.use_site, &c.free_site);
    if config.lockset_filter && locks.common(use_site.at, free_site.at).is_some() && lock_orders() {
        return Some(FilterReason::CommonLock);
    }
    // The if-guard and intra-event-allocation heuristics rely on
    // event atomicity: "only applicable to events that are sent to
    // the same event queue and processed by the same looper thread"
    // (§4.3).
    if !model.same_looper(use_site.at.task, free_site.at.task) {
        return None;
    }
    if config.intra_event_alloc {
        if alloc_before_use(ops, use_site) {
            return Some(FilterReason::AllocBeforeUse);
        }
        if alloc_after_free(ops, free_site) {
            return Some(FilterReason::AllocAfterFree);
        }
    }
    if config.if_guard && if_guarded(ops, use_site) {
        return Some(FilterReason::IfGuard);
    }
    None
}

/// A deduplicated, unordered (use, free) pair awaiting filtering and
/// classification.
struct Candidate {
    var: VarId,
    use_site: UseSite,
    free_site: FreeSite,
}

/// What one run of [`enumerate_candidates`] found, with its counters.
struct Candidates {
    found: Vec<Candidate>,
    /// Variables with at least one use and one free.
    candidate_vars: usize,
    /// Dynamic (use, free) instance pairs examined.
    pairs_checked: usize,
    /// Variables whose instance pairs hit the per-variable cap.
    truncated_vars: Vec<VarId>,
}

/// Enumerates the (use, free) pairs per pointer variable that `ordered`
/// leaves unordered both ways, deduplicated by (variable, use pc, free
/// pc), honoring the per-variable pair cap. The `candidates` pass asks
/// the HB model, the `predict-candidates` pass the predictive order.
///
/// Variables fan out across the scoped worker pool. Per-var
/// enumeration is fully independent — the dedup key is scoped to the
/// variable and the pair cap is per-variable — and the merge walks the
/// sorted variable list in input order, so the result (including
/// candidate order and every counter) is identical at any thread
/// count.
fn enumerate_candidates(
    config: &DetectorConfig,
    ops: &MemoryOps,
    ordered: impl Fn(OpRef, OpRef) -> bool + Sync,
) -> Candidates {
    let candidate_vars: Vec<VarId> = {
        let mut v: Vec<VarId> = ops.candidate_vars().collect();
        v.sort_unstable();
        v
    };

    /// One variable's enumeration result.
    struct VarResult {
        found: Vec<Candidate>,
        pairs_checked: usize,
        truncated: bool,
    }

    let threads = cafa_engine::fleet::resolve_threads(config.threads);
    let per_var = cafa_engine::fleet::map(&candidate_vars, threads, |&var| {
        let vo = ops.var_ops(var).expect("candidate var has ops");
        let mut found: Vec<Candidate> = Vec::new();
        let mut seen: HashSet<(Pc, Pc)> = HashSet::new();
        let mut pairs_checked = 0usize;
        let mut truncated = false;
        'pairs: for &ui in &vo.uses {
            for &fi in &vo.frees {
                let use_site = ops.uses[ui];
                let free_site = ops.frees[fi];
                if use_site.at.task == free_site.at.task {
                    continue;
                }
                if config.drop_ambiguous_uses && use_site.ambiguous {
                    continue;
                }
                if pairs_checked >= config.max_pairs_per_var {
                    truncated = true;
                    break 'pairs;
                }
                pairs_checked += 1;

                let key = (use_site.read_pc, free_site.pc);
                if seen.contains(&key) {
                    continue;
                }
                if ordered(use_site.at, free_site.at) || ordered(free_site.at, use_site.at) {
                    continue; // ordered: no race for this instance
                }
                seen.insert(key);
                found.push(Candidate {
                    var,
                    use_site,
                    free_site,
                });
            }
        }
        VarResult {
            found,
            pairs_checked,
            truncated,
        }
    });

    let mut out = Candidates {
        found: Vec::new(),
        candidate_vars: candidate_vars.len(),
        pairs_checked: 0,
        truncated_vars: Vec::new(),
    };
    for (&var, r) in candidate_vars.iter().zip(per_var) {
        out.pairs_checked += r.pairs_checked;
        if r.truncated {
            out.truncated_vars.push(var);
        }
        out.found.extend(r.found);
    }
    out
}

/// The `predict-candidates` pass: the pairs the predictive order leaves
/// concurrent ([`enumerate_candidates`]), filtered by [`filter_reason`]
/// and classified against the HB report set, in enumeration order. A
/// common monitor suppresses a pair only when the two tasks also
/// conflict beyond the racing variable
/// ([`PredictModel::tasks_conflict_besides`]): a lock whose sections
/// touch only the racing pointer does not pin their order, so the pair
/// stays reportable and replay adjudicates.
fn predictive_section(
    config: &DetectorConfig,
    ops: &MemoryOps,
    model: &HbModel,
    pmodel: &PredictModel,
    trace: &Trace,
    hb_races: &[UseFreeRace],
) -> PredictiveSection {
    let candidates = enumerate_candidates(config, ops, |a, b| pmodel.happens_before(a, b));
    let p = pmodel.stats();
    let mut stats = PredictiveStats {
        rounds: p.rounds,
        derived_edges: p.derived_edges,
        gated: p.gated,
        external_edges: p.external_edges,
        pairs_checked: candidates.pairs_checked,
        filtered: 0,
        truncated_vars: candidates.truncated_vars.len(),
    };
    let hb_keys: HashSet<(VarId, Pc, Pc)> = hb_races
        .iter()
        .map(|r| (r.var, r.use_site.read_pc, r.free_site.pc))
        .collect();
    let locks = LockSets::new(trace);
    let mut races: Vec<PredictiveRace> = Vec::new();
    for c in candidates.found {
        let reason = filter_reason(config, model, &locks, ops, &c, || {
            pmodel.tasks_conflict_besides(c.use_site.at.task, c.free_site.at.task, c.var)
        });
        if reason.is_some() {
            stats.filtered += 1;
            continue;
        }
        let class = if hb_keys.contains(&(c.var, c.use_site.read_pc, c.free_site.pc)) {
            PredictClass::Both
        } else {
            PredictClass::PredictiveOnly
        };
        races.push(PredictiveRace {
            var: c.var,
            use_site: c.use_site,
            free_site: c.free_site,
            class,
        });
    }
    PredictiveSection { races, stats }
}

/// The `classify` step for one surviving candidate: relate it to the
/// conventional baseline (Table 1's three "true race" columns).
/// `conventional` is `Some` whenever any survivor crosses loopers.
fn classify(model: &HbModel, conventional: Option<&HbModel>, c: &Candidate) -> RaceClass {
    if model.same_looper(c.use_site.at.task, c.free_site.at.task) {
        return RaceClass::IntraThread;
    }
    let conventional = conventional.expect("baseline-hb pass built the conventional model");
    if conventional.happens_before(c.use_site.at, c.free_site.at)
        || conventional.happens_before(c.free_site.at, c.use_site.at)
    {
        RaceClass::InterThread
    } else {
        RaceClass::Conventional
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafa_trace::{BranchKind, DerefKind, MonitorId, ObjId, TraceBuilder};

    /// Figure 1: the MyTracks use-after-free is an intra-thread race.
    #[test]
    fn detects_figure1_race() {
        let mut b = TraceBuilder::new("MyTracks");
        let app = b.add_process();
        let q = b.add_queue(app);
        let svc = b.add_process();
        let ipc = b.add_thread(svc, "binder");
        let resume = b.external(q, "onResume");
        b.process_event(resume);
        let (txn, _) = b.rpc_call(resume);
        b.rpc_handle(ipc, txn);
        let connected = b.post(ipc, q, "onServiceConnected", 0);
        let destroy = b.external(q, "onDestroy");
        b.process_event(connected);
        b.obj_read(
            connected,
            VarId::new(0),
            Some(ObjId::new(1)),
            Pc::new(0x1010),
        );
        b.deref(connected, ObjId::new(1), Pc::new(0x1014), DerefKind::Invoke);
        b.process_event(destroy);
        b.obj_write(destroy, VarId::new(0), None, Pc::new(0x2010));
        let trace = b.finish().unwrap();

        let report = Analyzer::new().analyze(&trace).unwrap();
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.races[0].class, RaceClass::IntraThread);
        assert_eq!(report.stats.candidate_vars, 1);
        assert!(report.filtered.is_empty());
    }

    /// Figure 5: guarded and allocation-dominated uses are filtered.
    #[test]
    fn figure5_commutative_events_are_filtered() {
        // Posting from three independent threads keeps the three
        // events logically concurrent.
        let mut b = TraceBuilder::new("fig5");
        let p = b.add_process();
        let q = b.add_queue(p);
        let handler = VarId::new(0);
        let o = ObjId::new(1);
        let t1 = b.add_thread(p, "src1");
        let t2 = b.add_thread(p, "src2");
        let t3 = b.add_thread(p, "src3");
        let pause = b.post(t1, q, "onPause", 0);
        let focus = b.post(t2, q, "onFocus", 0);
        let resume = b.post(t3, q, "onResume", 0);

        b.process_event(pause);
        b.obj_write(pause, handler, None, Pc::new(0x1010)); // free

        b.process_event(focus);
        b.obj_read(focus, handler, Some(o), Pc::new(0x2010));
        b.guard(
            focus,
            BranchKind::IfEqz,
            Pc::new(0x2014),
            Pc::new(0x2030),
            o,
        );
        b.obj_read(focus, handler, Some(o), Pc::new(0x2018));
        b.deref(focus, o, Pc::new(0x201c), DerefKind::Invoke);

        b.process_event(resume);
        let o2 = ObjId::new(2);
        b.obj_write(resume, handler, Some(o2), Pc::new(0x3010)); // alloc
        b.obj_read(resume, handler, Some(o2), Pc::new(0x3014));
        b.deref(resume, o2, Pc::new(0x3018), DerefKind::Invoke);

        let trace = b.finish().unwrap();
        let report = Analyzer::new().analyze(&trace).unwrap();
        assert_eq!(report.races.len(), 0, "both patterns are commutative");
        // The guarded onFocus use: note the *first* read (0x2010) is
        // before the guard, so only the post-guard read is a use-pair
        // candidate... both reads are uses (each matched by the deref?
        // no: one deref matches the nearest read 0x2018). The alloc
        // pattern is filtered too.
        assert_eq!(report.filtered.len(), 2);
        let reasons: Vec<FilterReason> = report.filtered.iter().map(|f| f.reason).collect();
        assert!(reasons.contains(&FilterReason::IfGuard));
        assert!(reasons.contains(&FilterReason::AllocBeforeUse));
    }

    /// The same patterns against a *thread* free are NOT filtered: the
    /// heuristics require same-looper atomicity.
    #[test]
    fn heuristics_do_not_apply_across_threads() {
        let mut b = TraceBuilder::new("cross");
        let p = b.add_process();
        let q = b.add_queue(p);
        let worker = b.add_thread(p, "worker");
        let t2 = b.add_thread(p, "src");
        let handler = VarId::new(0);
        let o = ObjId::new(1);

        b.obj_write(worker, handler, None, Pc::new(0x1010)); // free in thread

        let focus = b.post(t2, q, "onFocus", 0);
        b.process_event(focus);
        b.obj_read(focus, handler, Some(o), Pc::new(0x2010));
        b.guard(
            focus,
            BranchKind::IfEqz,
            Pc::new(0x2014),
            Pc::new(0x2030),
            o,
        );
        b.obj_read(focus, handler, Some(o), Pc::new(0x2018));
        b.deref(focus, o, Pc::new(0x201c), DerefKind::Invoke);

        let trace = b.finish().unwrap();
        let report = Analyzer::new().analyze(&trace).unwrap();
        assert_eq!(
            report.races.len(),
            1,
            "guard does not protect against threads"
        );
        assert_eq!(report.races[0].class, RaceClass::Conventional);
    }

    /// Lockset filter: both sides under the same monitor.
    #[test]
    fn common_lock_suppresses() {
        let mut b = TraceBuilder::new("locks");
        let p = b.add_process();
        let a = b.add_thread(p, "a");
        let c = b.add_thread(p, "c");
        let v = VarId::new(0);
        let o = ObjId::new(1);
        let m = MonitorId::new(0);
        b.lock(a, m, 0);
        b.obj_read(a, v, Some(o), Pc::new(0x1010));
        b.deref(a, o, Pc::new(0x1014), DerefKind::Field);
        b.unlock(a, m, 0);
        b.lock(c, m, 1);
        b.obj_write(c, v, None, Pc::new(0x2010));
        b.unlock(c, m, 1);
        let trace = b.finish().unwrap();
        let report = Analyzer::new().analyze(&trace).unwrap();
        assert!(report.races.is_empty());
        assert_eq!(report.filtered.len(), 1);
        assert_eq!(report.filtered[0].reason, FilterReason::CommonLock);

        // Without the lockset filter it is reported (CAFA has no
        // unlock→lock order).
        let mut cfg = DetectorConfig::cafa();
        cfg.lockset_filter = false;
        let report = Analyzer::with_config(cfg).analyze(&trace).unwrap();
        assert_eq!(report.races.len(), 1);
    }

    /// Class (b): the conventional model orders thread-free vs event-use
    /// through the total event order; CAFA does not.
    #[test]
    fn inter_thread_class_requires_conventional_ordering() {
        let mut b = TraceBuilder::new("classb");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "worker");
        let v = VarId::new(0);
        let o = ObjId::new(1);

        // Thread frees, then posts bridge event A (processed first).
        b.obj_write(t, v, None, Pc::new(0x1010));
        let bridge = b.post(t, q, "bridge", 0);
        b.process_event(bridge);
        // Later event B (external) uses the pointer.
        let use_ev = b.external(q, "useEv");
        b.process_event(use_ev);
        b.obj_read(use_ev, v, Some(o), Pc::new(0x2010));
        b.deref(use_ev, o, Pc::new(0x2014), DerefKind::Field);
        let trace = b.finish().unwrap();

        let report = Analyzer::new().analyze(&trace).unwrap();
        assert_eq!(report.races.len(), 1);
        // Conventional: free ≺ send ≺ begin(bridge) ≺ (total order)
        // begin(useEv) ≺ use — ordered, so only CAFA reports it.
        assert_eq!(report.races[0].class, RaceClass::InterThread);
    }

    /// Deduplication: repeated dynamic instances of the same statement
    /// pair produce one report.
    #[test]
    fn dynamic_instances_dedup() {
        let mut b = TraceBuilder::new("dedup");
        let p = b.add_process();
        let q = b.add_queue(p);
        let v = VarId::new(0);
        let o = ObjId::new(1);
        let mut srcs = Vec::new();
        for i in 0..4 {
            let t = b.add_thread(p, &format!("src{i}"));
            srcs.push(t);
        }
        for &src in srcs.iter().take(4) {
            let use_ev = b.post(src, q, "useEv", 0);
            b.process_event(use_ev);
            b.obj_read(use_ev, v, Some(o), Pc::new(0x1010));
            b.deref(use_ev, o, Pc::new(0x1014), DerefKind::Field);
            let free_ev = b.post(src, q, "freeEv", 1000);
            b.process_event(free_ev);
            b.obj_write(free_ev, v, None, Pc::new(0x2010));
        }
        let trace = b.finish().unwrap();
        let report = Analyzer::new().analyze(&trace).unwrap();
        assert_eq!(report.races.len(), 1, "same statement pair reported once");
        assert!(report.stats.pairs_checked > 1);
    }

    /// `--detector` spellings round-trip; unknown values are rejected.
    #[test]
    fn detector_kind_parses_and_displays() {
        for (s, k) in [("hb", DetectorKind::Hb), ("both", DetectorKind::Both)] {
            assert_eq!(DetectorKind::parse(s), Some(k));
            assert_eq!(k.to_string(), s);
            assert!(DetectorKind::VALID.contains(&s));
        }
        assert_eq!(DetectorKind::parse("wcp"), None);
        assert_eq!(DetectorKind::parse("predictive"), None);
        assert_eq!(DetectorConfig::cafa().detector, DetectorKind::Hb);
        assert!(!DetectorKind::Hb.runs_predictive());
        assert!(DetectorKind::Both.runs_predictive());
    }

    /// The default HB detector attaches no predictive section — its
    /// report (and JSON) is byte-identical to pre-predictive builds.
    #[test]
    fn hb_detector_has_no_predictive_section() {
        let mut b = TraceBuilder::new("plain");
        let p = b.add_process();
        let t = b.add_thread(p, "main");
        b.write(t, VarId::new(0));
        let trace = b.finish().unwrap();
        let report = Analyzer::new().analyze(&trace).unwrap();
        assert!(report.predictive.is_none());
        let json = crate::json::render_json(&report, &trace);
        assert!(!json.contains("predictive"));
    }

    /// Every HB race is also predictively concurrent (the predictive
    /// order is a subset of HB), so under `--detector both` it shows
    /// up in the predictive section classified `both`.
    #[test]
    fn hb_races_classify_as_both() {
        let mut b = TraceBuilder::new("shared");
        let p = b.add_process();
        let q = b.add_queue(p);
        let svc = b.add_process();
        let ipc = b.add_thread(svc, "binder");
        let connected = b.post(ipc, q, "onServiceConnected", 0);
        let destroy = b.external(q, "onDestroy");
        b.process_event(connected);
        b.obj_read(
            connected,
            VarId::new(0),
            Some(ObjId::new(1)),
            Pc::new(0x1010),
        );
        b.deref(connected, ObjId::new(1), Pc::new(0x1014), DerefKind::Invoke);
        b.process_event(destroy);
        b.obj_write(destroy, VarId::new(0), None, Pc::new(0x2010));
        let trace = b.finish().unwrap();

        let mut cfg = DetectorConfig::cafa();
        cfg.detector = DetectorKind::Both;
        let report = Analyzer::with_config(cfg).analyze(&trace).unwrap();
        assert_eq!(report.races.len(), 1);
        let section = report.predictive.expect("both runs the backend");
        assert_eq!(section.races.len(), 1);
        assert_eq!(section.races[0].class, crate::report::PredictClass::Both);
        // The passes ran and were recorded for `--timings`.
        let names: Vec<&str> = report.stats.passes.records.iter().map(|r| r.name).collect();
        assert!(names.contains(&"predict-build"));
        assert!(names.contains(&"predict-candidates"));
    }

    /// The predictive lockset relaxation: a monitor whose critical
    /// sections touch only the racing pointer does not order them, so
    /// the HB-filtered pair resurfaces as `predictive-only`; add a
    /// second shared variable to the sections and the suppression
    /// comes back.
    #[test]
    fn lock_handoff_is_predictive_only() {
        let build = |extra_shared: bool| {
            let mut b = TraceBuilder::new("handoff");
            let p = b.add_process();
            let a = b.add_thread(p, "a");
            let c = b.add_thread(p, "c");
            let v = VarId::new(0);
            let noise = VarId::new(1);
            let o = ObjId::new(1);
            let m = MonitorId::new(0);
            b.lock(a, m, 0);
            b.obj_read(a, v, Some(o), Pc::new(0x1010));
            b.deref(a, o, Pc::new(0x1014), DerefKind::Invoke);
            if extra_shared {
                b.write(a, noise);
            }
            b.unlock(a, m, 0);
            b.lock(c, m, 1);
            b.obj_write(c, v, None, Pc::new(0x2010));
            if extra_shared {
                b.write(c, noise);
            }
            b.unlock(c, m, 1);
            b.finish().unwrap()
        };

        let mut cfg = DetectorConfig::cafa();
        cfg.detector = DetectorKind::Both;

        let trace = build(false);
        let report = Analyzer::with_config(cfg).analyze(&trace).unwrap();
        assert!(report.races.is_empty(), "HB keeps the lockset filter");
        assert_eq!(report.filtered.len(), 1);
        let section = report.predictive.as_ref().unwrap();
        assert_eq!(section.races.len(), 1);
        assert_eq!(
            section.races[0].class,
            crate::report::PredictClass::PredictiveOnly
        );

        let trace = build(true);
        let report = Analyzer::with_config(cfg).analyze(&trace).unwrap();
        let section = report.predictive.as_ref().unwrap();
        assert!(
            section.races.is_empty(),
            "sections conflicting beyond the racing var keep the filter"
        );
        assert_eq!(section.stats.filtered, 1);
    }

    /// The pair cap is honored and recorded, never silent.
    #[test]
    fn pair_cap_is_recorded() {
        let mut b = TraceBuilder::new("cap");
        let p = b.add_process();
        let q = b.add_queue(p);
        let v = VarId::new(0);
        let o = ObjId::new(1);
        for i in 0..4 {
            let t = b.add_thread(p, &format!("s{i}"));
            let e = b.post(t, q, "ev", 0);
            b.process_event(e);
            b.obj_read(e, v, Some(o), Pc::new(0x1010));
            b.deref(e, o, Pc::new(0x1014), DerefKind::Field);
            b.obj_write(e, v, None, Pc::new(0x2010));
        }
        let trace = b.finish().unwrap();
        let mut cfg = DetectorConfig::cafa();
        cfg.max_pairs_per_var = 2;
        let report = Analyzer::with_config(cfg).analyze(&trace).unwrap();
        assert_eq!(report.stats.truncated_vars, vec![v]);
        assert!(report.stats.pairs_checked <= 2);
    }
}
