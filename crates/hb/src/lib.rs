//! Happens-before causality model for event-driven traces.
//!
//! Implements §3 of *"Race Detection for Event-Driven Mobile
//! Applications"* (Yu et al., PLDI 2014): a happens-before relation for
//! executions that mix regular threads with looper threads draining
//! event queues. The distinguishing features over a thread-based model:
//!
//! * **no** program order between the events of one looper — logically
//!   concurrent events stay concurrent even though they executed
//!   sequentially;
//! * **no** unlock→lock order (locksets are checked instead);
//! * the **atomicity rule**: if any part of event *e₁* happens before
//!   any part of same-looper event *e₂*, then all of *e₁* happens
//!   before all of *e₂*;
//! * the four **event-queue rules**: ordered `send`s with compatible
//!   delays order the sent events FIFO-style, with special cases for
//!   `sendAtFront`.
//!
//! Because the atomicity and queue rules consume happens-before facts
//! they also produce, the model is the least fixpoint of those rules
//! over an operation-level sync graph ([`SyncGraph`]). [`HbModel`]
//! answers queries against it through a demand engine that derives only
//! what each query needs; a config without those rules needs no
//! fixpoint and is answered by vector clocks. [`CausalityConfig`]
//! selects between the CAFA model, the paper's conventional baseline,
//! and ablations.
//!
//! # Examples
//!
//! ```
//! use cafa_trace::TraceBuilder;
//! use cafa_hb::{HbModel, CausalityConfig};
//!
//! // Two user gestures processed by one looper: concurrent under CAFA
//! // unless some rule orders them (here, the external-input rule does).
//! let mut b = TraceBuilder::new("touches");
//! let p = b.add_process();
//! let q = b.add_queue(p);
//! let tap1 = b.external(q, "tap1");
//! let tap2 = b.external(q, "tap2");
//! b.process_event(tap1);
//! b.process_event(tap2);
//! let trace = b.finish().unwrap();
//!
//! let cafa = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
//! assert!(cafa.event_before(tap1, tap2)); // external-input rule
//!
//! let mut no_ext = CausalityConfig::cafa();
//! no_ext.external_rule = false;
//! let relaxed = HbModel::build(&trace, no_ext).unwrap();
//! assert!(relaxed.concurrent_events(tap1, tap2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitset;
mod build;
mod clocks;
mod config;
mod demand;
pub mod dot;
mod error;
mod graph;
mod locks;
mod model;
pub mod oracle;
mod rules;

pub use build::base_graph;
pub use config::CausalityConfig;
pub use demand::DemandStats;
pub use error::HbError;
pub use graph::{EdgeKind, NodeId, NodeInfo, NodePoint, SyncGraph};
pub use locks::LockSets;
pub use model::{CauseStep, HbModel, OpOrder};
pub use oracle::{resolve_threads, ReachOracle};
#[doc(hidden)]
pub use rules::derive_naive;
pub use rules::{DerivationStats, EventTable};
