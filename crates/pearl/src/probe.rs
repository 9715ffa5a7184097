//! Engine-side instrumentation hooks.
//!
//! The kernel stays free of any policy about *what* to record: it only
//! offers an object-safe [`EngineProbe`] trait that an observer crate can
//! implement, plus ladder-tier transition counters maintained by
//! [`crate::EventQueue`]. An [`crate::Engine`] without a probe attached
//! pays exactly one `Option` null-check per delivered event (watched by
//! `probe.off_run_s` in the `mermaid-bench` ledger); the counters themselves
//! are plain integer increments on the queue's *cold* paths (bucket
//! promotion, rebase, far-drain), never per push or pop.

use crate::engine::CompId;
use crate::time::Time;

/// Monotone counters for ladder-tier transitions inside
/// [`crate::EventQueue`] (see the queue module docs for the tier model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LadderStats {
    /// Buckets promoted wholesale into the current-window heap.
    pub promotions: u64,
    /// Epoch rebases sourced from the far tier.
    pub rebases: u64,
    /// Plain-heap fallback drains of a small far set.
    pub far_drains: u64,
}

impl LadderStats {
    /// Total tier transitions of any kind.
    pub fn total(&self) -> u64 {
        self.promotions + self.rebases + self.far_drains
    }
}

/// Hooks invoked by the engine's delivery loop when a probe is attached.
///
/// Implementations must not assume anything about call frequency beyond:
/// `delivered` fires once per delivered event, *before* the component
/// handler runs; `ladder` fires only when the queue's [`LadderStats`]
/// changed since the previous delivery (so quiet queues cost nothing).
///
/// A probe observes the simulation; it has no channel back into it, so
/// attaching one cannot perturb virtual-time behaviour.
pub trait EngineProbe {
    /// An event is about to be delivered to `dst` at virtual time `now`.
    /// `pending` is the number of events still queued after the pop.
    fn delivered(&mut self, now: Time, src: CompId, dst: CompId, pending: usize);

    /// The queue's ladder counters moved since the last delivery.
    fn ladder(&mut self, now: Time, stats: LadderStats);
}
