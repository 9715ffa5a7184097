//! # mermaid-tracegen — the trace generators
//!
//! The interface between the application level and the architecture level
//! (paper, Fig. 1): tools that turn application descriptions into traces of
//! operations.
//!
//! * [`stochastic`] — the **stochastic generator**: produces realistic
//!   synthetic traces from probabilistic application descriptions
//!   (instruction mix, locality model, communication pattern). "Modest
//!   accuracy … useful when fast-prototyping new architectures", and easy
//!   to adjust.
//! * [`annotate`] — the **annotation translator**: a library linked with
//!   instrumented programs. Annotations follow the program's control flow
//!   and are translated into operations using a *variable descriptor
//!   table*, according to the addressing/register model of the target — "a
//!   kind of generic compiler". (The paper instruments C sources
//!   automatically; here the instrumented program is a Rust closure making
//!   the same library calls on a [`Translator`], whichever generator runs
//!   it.)
//! * [`interleave`] — **physical-time interleaving** (Dubois et al.): the
//!   threaded trace generation scheme of Section 3.1. One thread per
//!   simulated node; a thread that hits a *global event* suspends until the
//!   simulator has established that no earlier event can affect it, which
//!   makes the multiprocessor trace exactly the one the target machine
//!   would produce.
//! * [`programs`] — instrumented SPMD kernels (matrix multiply, stencil,
//!   reduction, transpose) used by the examples and the benchmark harness.

pub mod annotate;
pub mod collectives;
pub mod interleave;
pub mod programs;
pub mod stochastic;

pub use annotate::{Translator, VarId};
pub use interleave::{InterleavedTraceGen, NodeReader};
pub use stochastic::{
    CommPattern, InstructionMix, NodeStream, SizeDist, StochasticApp, StochasticGenerator,
};
