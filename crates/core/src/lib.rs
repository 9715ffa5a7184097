//! # mermaid — an architecture workbench for multicomputers
//!
//! A from-scratch Rust reproduction of the **Mermaid** simulation
//! environment (A.D. Pimentel and L.O. Hertzberger, *An Architecture
//! Workbench for Multicomputers*, IPPS 1997): a workbench for evaluating
//! MIMD distributed-memory machines, shared-memory multiprocessors, and
//! hybrid architectures by simulation at the level of *abstract machine
//! instructions* rather than real instructions.
//!
//! ## The two abstraction levels
//!
//! * **Detailed (hybrid) mode** — [`HybridSim`]: each node's
//!   instruction-level trace runs through the single-node *computational
//!   model* (CPU + caches + bus + DRAM), which measures the simulated time
//!   between communication operations and emits *computational tasks*; the
//!   multi-node *communication model* (abstract processors + routers +
//!   links) then resolves the message passing (paper, Fig. 2).
//! * **Task-level mode** — [`TaskLevelSim`]: for fast prototyping, the
//!   communication model alone consumes task-level traces produced directly
//!   by a trace generator. "An entire multicomputer can be simulated with
//!   only a minor slowdown" (Section 6).
//!
//! The direct-execution baseline the paper argues against (Section 2,
//! experiment E4) is not a third simulator: [`HybridSim::direct`] swaps the
//! cache model for static per-operation costs and keeps everything else,
//! so it composes with every communication option a detailed run takes.
//!
//! Shared-memory multiprocessors are simulated by configuring the
//! computational model with several processors
//! ([`mermaid_cpu::SingleNodeSim`]). Hybrid machines, multiprocessor nodes
//! behind the message-passing network (Section 4.3), are no second
//! simulator either: [`HybridSim`] takes one stream per processor, and on
//! each node processor 0 communicates while the others share its bus.
//!
//! ## Quick start
//!
//! ```
//! use mermaid::prelude::*;
//!
//! // Describe the application stochastically: 4 nodes, scientific mix.
//! let app = StochasticApp::scientific(4);
//! let traces = StochasticGenerator::new(app, 42).generate();
//!
//! // Describe the machine: a 4-node T805 multicomputer on a ring.
//! let machine = MachineConfig::t805_multicomputer(Topology::Ring(4));
//!
//! // Detailed simulation.
//! let result = HybridSim::new(machine).run(&traces);
//! assert!(result.predicted_time > pearl::Time::ZERO);
//! ```

pub mod campaign;
pub mod cli;
pub mod direct;
pub mod hybrid;
pub mod machines;
pub mod memuse;
pub mod microbench;
pub mod report;
pub mod run;
pub mod slowdown;
pub mod sweep;
pub mod tasklevel;

pub use campaign::{CampaignRecord, CampaignSpec};
pub use direct::DirectExecStaticCosts;
pub use hybrid::{HybridResult, HybridSim, NodeComputeStats};
pub use machines::MachineConfig;
pub use memuse::ModelFootprint;
pub use microbench::{detect_capacity_edges, memory_stride_probe, ping_pong};
pub use run::{Mode, Outcome, Resolved, RunConfig};
pub use slowdown::{host_frequency, SlowdownMeter, SlowdownReport};
pub use sweep::{labelled_sweep, parallel_sweep, parallel_sweep_streaming};
pub use tasklevel::{TaskLevelResult, TaskLevelSim};

/// The instrumentation layer (re-exported from `mermaid-probe`): attach a
/// [`probe::ProbeHandle`] to a simulator to collect metrics, Chrome
/// traces, JSONL event streams, and host-side profiles from a run.
pub use mermaid_probe as probe;

/// Convenient re-exports of the workbench's moving parts.
pub mod prelude {
    pub use crate::hybrid::{HybridResult, HybridSim};
    pub use crate::machines::MachineConfig;
    pub use crate::slowdown::SlowdownMeter;
    pub use crate::tasklevel::TaskLevelSim;
    pub use mermaid_cpu::{CpuParams, SingleNodeSim};
    pub use mermaid_memory::MemSystemConfig;
    pub use mermaid_network::{NetworkConfig, Topology};
    pub use mermaid_ops::{Operation, Trace, TraceSet};
    pub use mermaid_probe::{ProbeHandle, ProbeStack};
    pub use mermaid_tracegen::{
        CommPattern, InstructionMix, SizeDist, StochasticApp, StochasticGenerator,
    };
}
