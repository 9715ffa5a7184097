//! # mermaid-stats — analysis and visualisation tools
//!
//! The Mermaid environment provides "a suite of tools … to visualize and
//! analyze the simulation output", both at run time and post-mortem
//! (paper, Section 3 and Fig. 1). This crate is that suite:
//!
//! * [`Counter`]s and counter registries for event counts,
//! * [`Histogram`]s (linear and log₂-bucketed) with percentile queries,
//! * [`TimeSeries`] sampling for run-time observation,
//! * [`Utilization`] tracking for busy/idle components (links, buses, CPUs),
//! * ASCII rendering ([`table::Table`], [`chart`]) and CSV export for
//!   post-mortem analysis,
//! * the [`state`] walker every checkpointed type saves and restores
//!   through.
//!
//! Everything is plain data — the simulators fill these in; examples and the
//! bench harness render them.

pub mod chart;
pub mod counter;
pub mod csv;
pub mod delivery;
pub mod gnuplot;
pub mod histogram;
pub mod rank;
pub mod state;
pub mod summary;
pub mod table;
pub mod timeline;
pub mod timeseries;
pub mod utilization;

pub use counter::{Counter, Counters};
pub use delivery::DeliveryStats;
pub use histogram::Histogram;
pub use summary::Summary;
pub use table::Table;
pub use timeseries::TimeSeries;
pub use utilization::Utilization;
