//! Staged analysis engine for CAFA race detection.
//!
//! This crate is the shared infrastructure layer between the
//! happens-before model (`cafa-hb`) and its consumers (`cafa-core`'s
//! detector, the CLI, and every bench binary):
//!
//! * [`AnalysisSession`] — a per-trace context that extracts
//!   [`MemoryOps`] once and caches one [`HbModel`](cafa_hb::HbModel)
//!   per [`CausalityConfig`](cafa_hb::CausalityConfig), so the
//!   detector, its conventional classification baseline, ablations,
//!   and the low-level counter stop rebuilding identical models;
//! * [`usefree`] — extraction of uses, frees, allocations, and guards
//!   (§5.3), shared by every analysis;
//! * [`PassStats`] — named per-pass wall-time and item counters, the
//!   observability behind `cafa analyze --timings`;
//! * [`fleet`] — a deterministic `std::thread::scope` fan-out that
//!   parallelizes per-app / per-config analyses while keeping output
//!   byte-identical at any worker count.
//!
//! # Examples
//!
//! ```
//! use cafa_engine::AnalysisSession;
//! use cafa_hb::CausalityConfig;
//! use cafa_trace::{DerefKind, ObjId, Pc, TraceBuilder, VarId};
//!
//! let mut b = TraceBuilder::new("demo");
//! let p = b.add_process();
//! let t = b.add_thread(p, "main");
//! b.obj_read(t, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x10));
//! b.deref(t, ObjId::new(1), Pc::new(0x14), DerefKind::Field);
//! let trace = b.finish().unwrap();
//!
//! let session = AnalysisSession::new(&trace);
//! assert_eq!(session.ops().uses.len(), 1);        // extracted once
//! let model = session.model(CausalityConfig::cafa()).unwrap();
//! let cached = session.model(CausalityConfig::cafa()).unwrap();
//! assert!(std::rc::Rc::ptr_eq(&model, &cached));  // served from cache
//! assert_eq!(session.stats().model_cache_hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fleet;
pub mod partition;
mod passes;
mod session;
pub mod usefree;

pub use partition::TracePartition;
pub use passes::{PassRecord, PassStats};
pub use session::{AnalysisSession, SessionStats};
pub use usefree::{
    extract, extract_task, AllocSite, FreeSite, GuardSite, MemoryOps, UseSite, VarOps,
};
