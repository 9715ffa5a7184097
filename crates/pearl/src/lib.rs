//! # Pearl — a discrete-event simulation kernel
//!
//! The Mermaid architecture models in the original workbench were written in
//! *Pearl*, an object-oriented simulation language designed for modelling
//! computer architectures (H.L. Muller, *Simulating computer architectures*,
//! PhD thesis, University of Amsterdam, 1993). This crate is the Rust
//! substrate playing the same role: simulation models are collections of
//! *components* (Pearl objects) that exchange timestamped *messages* in
//! virtual time, under a deterministic discrete-event scheduler.
//!
//! The kernel is deliberately small and fully deterministic:
//!
//! * [`Time`] / [`Duration`] — virtual time in integer picoseconds, with
//!   [`Frequency`]-based cycle conversions (architecture models think in
//!   cycles of some clock; the kernel thinks in picoseconds so components
//!   with different clocks compose).
//! * [`Engine`] — the event loop. Events scheduled for the same instant are
//!   delivered in a deterministic order derived from simulation state alone
//!   (schedule instant, scheduling component, its push count — see
//!   [`EventKey`]), so simulations are reproducible bit-for-bit, and a
//!   sharded run ([`shard`]) replays the exact single-threaded order.
//! * [`Component`] — the object trait. A component receives events addressed
//!   to it and may schedule further events through [`Ctx`].
//! * [`shard`] — the barriers of a sharded run's conservative windows.
//!
//! Pearl models also communicate synchronously (rendezvous). The kernel has
//! no helper for that: a model that blocks on a peer keeps its own queue of
//! early arrivals and posted receives, as the communication model's abstract
//! processor does.
//!
//! ```
//! use pearl::{Component, Ctx, Engine, Event, Duration};
//!
//! struct Ping { peer: pearl::CompId, remaining: u32 }
//!
//! impl Component<u32> for Ping {
//!     fn handle(&mut self, ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
//!         if self.remaining > 0 {
//!             self.remaining -= 1;
//!             ctx.send_after(Duration::from_ps(10), self.peer, ev.payload + 1);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! let a = engine.add_component("a", Ping { peer: 1, remaining: 2 });
//! let b = engine.add_component("b", Ping { peer: 0, remaining: 2 });
//! engine.post(pearl::Time::ZERO, a, b, 0u32);
//! engine.run();
//! assert_eq!(engine.events_processed(), 5);
//! ```

pub mod engine;
pub mod hash;
pub mod probe;
pub mod queue;
pub mod shard;
pub mod time;

pub use engine::{
    BoxWorld, CompId, Component, Ctx, Engine, Event, Pending, QueuedEvent, RunResult, World,
};
pub use hash::{FastHashMap, FastHashSet};
pub use probe::{EngineProbe, LadderStats};
pub use queue::{EventKey, EventQueue, InOrder};
pub use shard::{Rendezvous, WindowBarrier, IDLE as IDLE_PS};
pub use time::{Duration, Frequency, Time};
