//! # mermaid-network — the multi-node communication model
//!
//! Models the communication side of Mermaid (paper, Fig. 3b): every node
//! has an **abstract processor**, a **router**, and **communication links**;
//! nodes are connected in a topology reflecting the physical interconnect
//! of the multicomputer. The abstract processor reads an incoming
//! (task-level) operation trace, processes the `compute` operations and
//! dispatches communication requests to the router, which packetises
//! messages and routes them through the network with a configurable routing
//! and switching strategy.
//!
//! The model is built on the [`pearl`] discrete-event kernel: routers and
//! abstract processors are components; packets travel as events; link
//! occupancy serialises transfers.
//!
//! * [`Topology`] — ring, 2-D mesh, 2-D torus, hypercube, fully-connected,
//!   star; deterministic minimal routing (dimension-order / e-cube).
//! * [`Switching`] — store-and-forward, virtual cut-through, wormhole
//!   (modelled at packet granularity; see DESIGN.md for the approximation).
//! * Synchronous `send`/`recv` implement a rendezvous: the sender blocks
//!   until the receiver has consumed the message (acknowledged by a control
//!   packet travelling back through the network). `asend`/`arecv` are
//!   non-blocking.
//!
//! The entry point is [`run_comm`]: hand it a [`NetworkConfig`], a
//! task-level [`mermaid_ops::TraceSet`] and [`RunOptions`] (probe, shards,
//! faults, snapshot in/out) and read a [`CommResult`]. [`CommSim`] is the
//! single-threaded simulation underneath, for callers that step it.

pub mod config;
pub mod fault;
pub mod packet;
pub mod partition;
pub mod processor;
pub mod router;
pub mod sharded;
pub mod sim;
pub mod snapshot;
pub mod topology;
pub(crate) mod world;

pub use config::{LinkParams, NetworkConfig, RouterParams, Routing, Switching};
pub use fault::{FaultEvent, FaultKind, FaultSchedule, RetryParams};
pub use partition::{lookahead, Lookahead, LookaheadBasis, Partition};
pub use processor::{ProcStats, UnreachableReport};
pub use sharded::{
    auto_shards, run_comm, CheckpointOpts, RunOptions, ShardProfile, ShardProfileEntry,
};
pub use sim::{CommResult, CommSim, NodeCommStats};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_SCHEMA};
pub use topology::{Topology, MAX_NODES};
