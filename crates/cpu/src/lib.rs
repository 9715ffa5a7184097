//! # mermaid-cpu — the abstract-instruction CPU model
//!
//! The CPU component of the single-node computational template (paper,
//! Fig. 3a). It consumes the *computational operations* of Table 1 — not
//! real machine instructions — which is Mermaid's central performance
//! trade-off: "simulation at the level of operations rather than
//! interpreting real instructions yields higher simulation performance at
//! the cost of a small loss of accuracy" (Section 3.3). Consequences the
//! model inherits from the paper:
//!
//! * No register specifications — pipelines are not cycle-accurately
//!   modelled; each operation has a parameterised cost in CPU cycles.
//! * Memory values are not modelled; loops/branches are already resolved in
//!   the trace, so the CPU executes a linear operation stream.
//! * Memory operations and instruction fetches are timed by the
//!   [`mermaid_memory::MemorySystem`], including cache hits/misses, bus
//!   arbitration and coherence traffic.
//!
//! [`SingleNodeSim`] replicates the CPU over the processors of one node and
//! interleaves them in virtual-time order (a shared-memory multiprocessor,
//! Section 4.3). It also performs the hybrid-model bridge: measuring the
//! simulated time between communication operations to produce task-level
//! traces for the communication model (Fig. 2).

pub mod cpu;
pub mod node;
pub mod params;

pub use cpu::{Cpu, CpuStats};
pub use node::{NodeResult, SingleNodeSim, TaskExtraction, TaskExtractor};
pub use params::CpuParams;
