//! Per-trace analysis sessions: shared memory-op extraction and a
//! happens-before model cache.
//!
//! Every consumer of a trace — the detector, the conventional baseline
//! used for classification, the low-level race counter, ablations over
//! several [`CausalityConfig`]s — needs the same two expensive
//! artifacts: the extracted [`MemoryOps`] and an [`HbModel`] per
//! configuration. An [`AnalysisSession`] computes each at most
//! once and hands out shared references, so running four ablation
//! configs over one trace builds four models instead of eight, and a
//! race-free trace never pays for the conventional baseline at all.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use cafa_hb::{CausalityConfig, HbError, HbModel};
use cafa_trace::Trace;

use crate::partition::{partition, TracePartition};
use crate::usefree::{extract, MemoryOps};

/// Counters exposing what a session computed versus reused.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Times `MemoryOps` were extracted (0 or 1 per session).
    pub ops_extractions: usize,
    /// Happens-before models actually built.
    pub model_builds: usize,
    /// Model requests served from the cache.
    pub model_cache_hits: usize,
}

/// A per-trace analysis context owning the derived state every
/// analysis pass shares.
///
/// The session borrows the trace, extracts [`MemoryOps`] on first use,
/// and caches one [`HbModel`] per [`CausalityConfig`] behind `Rc` so
/// passes can hold a model across cache insertions. Sessions are
/// single-threaded by design (`Rc` + `RefCell`); the fleet runner
/// gives each worker its own sessions.
///
/// # Examples
///
/// ```
/// use cafa_engine::AnalysisSession;
/// use cafa_hb::CausalityConfig;
/// use cafa_trace::TraceBuilder;
///
/// let trace = TraceBuilder::new("demo").finish().unwrap();
/// let session = AnalysisSession::new(&trace);
/// let first = session.model(CausalityConfig::cafa()).unwrap();
/// let again = session.model(CausalityConfig::cafa()).unwrap();
/// assert!(std::rc::Rc::ptr_eq(&first, &again));
/// assert_eq!(session.stats().model_builds, 1);
/// assert_eq!(session.stats().model_cache_hits, 1);
/// ```
#[derive(Debug)]
pub struct AnalysisSession<'t> {
    trace: &'t Trace,
    ops: OnceCell<MemoryOps>,
    models: RefCell<HashMap<CausalityConfig, Rc<HbModel<'t>>>>,
    partition: OnceCell<Rc<TracePartition>>,
    stats: Cell<SessionStats>,
}

impl<'t> AnalysisSession<'t> {
    /// Creates a session over `trace`. Nothing is computed yet.
    pub fn new(trace: &'t Trace) -> Self {
        Self {
            trace,
            ops: OnceCell::new(),
            models: RefCell::new(HashMap::new()),
            partition: OnceCell::new(),
            stats: Cell::new(SessionStats::default()),
        }
    }

    /// The trace under analysis.
    pub fn trace(&self) -> &'t Trace {
        self.trace
    }

    /// The extracted memory operations, computed on first call.
    pub fn ops(&self) -> &MemoryOps {
        self.ops.get_or_init(|| {
            let mut stats = self.stats.get();
            stats.ops_extractions += 1;
            self.stats.set(stats);
            extract(self.trace)
        })
    }

    /// The happens-before model for `config`, built on first request
    /// and served from the cache afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`HbError`] if the model cannot be built (cyclic base
    /// edges). Failures are not cached: retrying re-runs the build.
    pub fn model(&self, config: CausalityConfig) -> Result<Rc<HbModel<'t>>, HbError> {
        if let Some(model) = self.models.borrow().get(&config) {
            let mut stats = self.stats.get();
            stats.model_cache_hits += 1;
            self.stats.set(stats);
            return Ok(Rc::clone(model));
        }
        let model = Rc::new(HbModel::build(self.trace, config)?);
        let mut stats = self.stats.get();
        stats.model_builds += 1;
        self.stats.set(stats);
        self.models.borrow_mut().insert(config, Rc::clone(&model));
        Ok(model)
    }

    /// The causality-skeleton partition of the trace, computed on
    /// first call and cached for the session's lifetime. The skeleton
    /// is config-independent, so one partition serves every
    /// [`CausalityConfig`] (see [`crate::partition`]).
    pub fn partition(&self) -> Rc<TracePartition> {
        Rc::clone(
            self.partition
                .get_or_init(|| Rc::new(partition(self.trace))),
        )
    }

    /// Whether a model for `config` is already cached.
    pub fn has_model(&self, config: CausalityConfig) -> bool {
        self.models.borrow().contains_key(&config)
    }

    /// A snapshot of the session's reuse counters.
    pub fn stats(&self) -> SessionStats {
        self.stats.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafa_trace::{DerefKind, ObjId, Pc, TraceBuilder, VarId};

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new("session-test");
        let p = b.add_process();
        let t = b.add_thread(p, "main");
        let v = VarId::new(0);
        let o = ObjId::new(1);
        b.obj_read(t, v, Some(o), Pc::new(0x10));
        b.deref(t, o, Pc::new(0x14), DerefKind::Field);
        b.obj_write(t, v, None, Pc::new(0x18));
        b.finish().unwrap()
    }

    #[test]
    fn ops_are_extracted_once() {
        let trace = small_trace();
        let session = AnalysisSession::new(&trace);
        assert_eq!(session.stats().ops_extractions, 0);
        let a = session.ops() as *const MemoryOps;
        let b = session.ops() as *const MemoryOps;
        assert_eq!(a, b);
        assert_eq!(session.stats().ops_extractions, 1);
        assert_eq!(session.ops().uses.len(), 1);
        assert_eq!(session.ops().frees.len(), 1);
    }

    #[test]
    fn models_are_cached_per_config() {
        let trace = small_trace();
        let session = AnalysisSession::new(&trace);
        let cafa = session.model(CausalityConfig::cafa()).unwrap();
        let conv = session.model(CausalityConfig::conventional()).unwrap();
        let cafa2 = session.model(CausalityConfig::cafa()).unwrap();
        assert!(Rc::ptr_eq(&cafa, &cafa2));
        assert!(!Rc::ptr_eq(&cafa, &conv));
        let stats = session.stats();
        assert_eq!(stats.model_builds, 2);
        assert_eq!(stats.model_cache_hits, 1);
        assert!(session.has_model(CausalityConfig::cafa()));
        assert!(!session.has_model(CausalityConfig::fasttrack_like()));
    }

    #[test]
    fn cached_models_answer_like_fresh_ones() {
        let trace = small_trace();
        let session = AnalysisSession::new(&trace);
        let cached = session.model(CausalityConfig::cafa()).unwrap();
        let fresh = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        assert_eq!(cached.events().len(), fresh.events().len());
    }
}
