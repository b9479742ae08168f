//! Configuration of the causality model.
//!
//! The same graph machinery instantiates CAFA's model (§3.3), the
//! *conventional* thread-based baseline the paper compares against in
//! Table 1, and ablations (an EventRacer-style model with no event-queue
//! rules, and a classic lock-ordered FastTrack-style model).

/// Which happens-before rules to apply when building a model.
///
/// `Hash` lets sessions key cached [`HbModel`](crate::HbModel)s by
/// configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CausalityConfig {
    /// Apply event-queue rules 1–4 of §3.3 (ordered sends with
    /// compatible delays order their events; `sendAtFront` variants).
    pub queue_rules: bool,
    /// Apply the atomicity rule: same-looper events never interleave,
    /// so `begin(e₁) ≺ end(e₂)` implies `end(e₁) ≺ begin(e₂)`.
    pub atomicity_rule: bool,
    /// Apply the external-input rule: events generated by the external
    /// world are ordered by generation sequence.
    pub external_rule: bool,
    /// Apply the event-listener rule: `register(t, l) ≺ perform(e, l)`.
    pub listener_rule: bool,
    /// Treat each looper's events as **totally ordered** by processing
    /// order. This is what conventional thread-based detectors assume
    /// ("they implicitly assume that events handled in one thread are
    /// ordered by the program order", §1) and what CAFA relaxes.
    pub total_event_order: bool,
    /// Derive unlock→lock happens-before edges from the runtime
    /// acquisition order. Off in both CAFA and the paper's conventional
    /// baseline ("no causal order is assumed between unlocks to
    /// succeeding locks", §3.1); on in the FastTrack-style ablation.
    pub lock_hb: bool,
}

impl CausalityConfig {
    /// The CAFA model of §3.3: queue + atomicity + external + listener
    /// rules, relaxed event order, no lock ordering.
    pub const fn cafa() -> Self {
        Self {
            queue_rules: true,
            atomicity_rule: true,
            external_rule: true,
            listener_rule: true,
            total_event_order: false,
            lock_hb: false,
        }
    }

    /// The paper's *conventional* baseline (§6.3): a total order over
    /// each looper's events, conventional sync edges, and — exactly as
    /// the paper specifies — no unlock→lock order.
    pub const fn conventional() -> Self {
        Self {
            queue_rules: false,
            atomicity_rule: false,
            external_rule: false,
            listener_rule: true,
            total_event_order: true,
            lock_hb: false,
        }
    }

    /// An EventRacer/WebRacer-style model: events are atomic and
    /// causally ordered by sends, but the event *queue* (FIFO-after-
    /// delay) is not modeled. The paper's §7.1.1 argues this misses
    /// orderings programmers rely on; the ablation bench quantifies the
    /// extra reports.
    pub const fn no_queue_rules() -> Self {
        Self {
            queue_rules: false,
            ..Self::cafa()
        }
    }

    /// A classic sound-dynamic-detector model (FastTrack-like): total
    /// event order *and* unlock→lock edges.
    pub const fn fasttrack_like() -> Self {
        Self {
            lock_hb: true,
            ..Self::conventional()
        }
    }

    /// Whether the relation has rules to derive (atomicity or queue):
    /// the demand engine answers it. A rule-free relation is plain
    /// reachability over its base edges, which vector clocks answer.
    pub(crate) const fn derives(&self) -> bool {
        self.atomicity_rule || self.queue_rules
    }
}

impl Default for CausalityConfig {
    /// Defaults to the CAFA model.
    fn default() -> Self {
        Self::cafa()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_expected() {
        let cafa = CausalityConfig::cafa();
        assert!(cafa.queue_rules && cafa.atomicity_rule && !cafa.total_event_order);
        assert!(!cafa.lock_hb);

        let conv = CausalityConfig::conventional();
        assert!(conv.total_event_order && !conv.queue_rules && !conv.lock_hb);

        let ablate = CausalityConfig::no_queue_rules();
        assert!(!ablate.queue_rules && ablate.atomicity_rule);

        let ft = CausalityConfig::fasttrack_like();
        assert!(ft.lock_hb && ft.total_event_order);

        assert_eq!(CausalityConfig::default(), cafa);
    }
}
