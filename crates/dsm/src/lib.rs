//! # mermaid-dsm — virtual shared memory over message passing
//!
//! The paper notes that explicit `send`/`recv` annotations leak the
//! platform's physical topology into the application level, and announces
//! the fix as future work: *"we will use a virtual shared memory in the
//! future to hide all explicit communication"* (Section 5.1). This crate
//! implements that layer.
//!
//! ## Model
//!
//! A **page-based, home-based DSM** with release consistency:
//!
//! * Shared arrays are striped over the nodes page by page
//!   (`home(page) = page mod nodes`). Every node holds a full-size local
//!   *shadow* of each shared array; locally-homed pages are always valid in
//!   it.
//! * A read of a remote page **faults** at most once between acquires: the
//!   runtime issues a one-sided `get(page_bytes, home)` (serviced by the
//!   home node without any trace operation of its own — see
//!   `mermaid_ops::Operation::Get`), then reads the shadow copy.
//! * A write to a remote page is **written through** with a one-sided
//!   `put` to the home (and updates the local shadow).
//! * [`Dsm::acquire`] invalidates all cached remote pages, so subsequent
//!   reads observe writes that other nodes pushed to the homes — lazy
//!   consistency with explicit synchronisation points, the model scalable
//!   software DSMs (TreadMarks-style) actually used.
//!
//! Because page state evolves only from the node's *own* access/acquire
//! sequence, trace generation remains deterministic — the timing-dependent
//! part (when the data actually moves) is resolved by the communication
//! model, exactly like every other Mermaid operation.
//!
//! ## Example
//!
//! ```
//! use mermaid_dsm::{Dsm, DsmConfig};
//! use mermaid_tracegen::annotate::Translator;
//! use mermaid_ops::DataType;
//!
//! let mut t = Translator::with_defaults(0);
//! let mut dsm = Dsm::new(&mut t, DsmConfig { nodes: 4, page_bytes: 1024 });
//! let v = dsm.shared_array("v", DataType::F64, 1024);
//! dsm.read(v, 0);        // page 0 is homed here: local
//! dsm.read(v, 200);      // page 1 is homed on node 1: faults (get)
//! dsm.read(v, 201);      // same page: served from the cached copy
//! dsm.write(v, 200);     // remote page: write-through (put)
//! let stats = dsm.stats().clone();
//! assert_eq!(stats.page_faults, 1);
//! assert_eq!(stats.write_throughs, 1);
//! ```

pub mod programs;
pub mod runtime;

pub use runtime::{Dsm, DsmConfig, DsmStats, SharedVar};
