//! The arena world of the communication model: typed struct-of-arrays
//! component storage (DESIGN.md §15).
//!
//! Instead of registering `2n` boxed trait objects with the engine, the
//! model owns two dense slabs — one `Vec<Router>`, one
//! `Vec<AbstractProcessor>` — and dispatches events by id range: component
//! ids `0..n` are routers, `n..2n` are processors (the same fixed layout
//! the boxed build used, now a load-bearing contract). Dispatch is static,
//! component state is contiguous in memory, and a shard of a sharded run
//! is simply the world whose slabs hold `partition.range` — no stub
//! components for remote slots.

use mermaid_ops::NodeId;
use pearl::{CompId, Component, Ctx, Event, World};

use crate::packet::NetMsg;
use crate::processor::AbstractProcessor;
use crate::router::Router;

/// Typed component slabs for one (whole or partial) communication model.
pub(crate) struct NetWorld {
    /// Total node count of the simulation. The component id space is
    /// always `2 * nodes` — routers `0..n`, processors `n..2n` — even
    /// when this world owns only a sub-range, so `post` bounds checks and
    /// the engine's per-component key counters match the serial run.
    nodes: u32,
    /// First node whose components live in this world's slabs (0 in a
    /// serial run; the shard's partition start in a sharded run).
    base: u32,
    /// Router slab: slot `i` is node `base + i`'s router (component id
    /// `base + i`).
    routers: Vec<Router>,
    /// Processor slab: slot `i` is node `base + i`'s processor (component
    /// id `nodes + base + i`).
    procs: Vec<AbstractProcessor>,
}

impl NetWorld {
    /// Build a world owning nodes `base..base + routers.len()` out of
    /// `nodes` total.
    pub fn new(nodes: u32, base: u32, routers: Vec<Router>, procs: Vec<AbstractProcessor>) -> Self {
        assert_eq!(
            routers.len(),
            procs.len(),
            "slabs must cover the same nodes"
        );
        assert!(
            base as usize + routers.len() <= nodes as usize,
            "owned range exceeds the node count"
        );
        NetWorld {
            nodes,
            base,
            routers,
            procs,
        }
    }

    /// The router of `node` (must be owned by this world).
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[(node - self.base) as usize]
    }

    /// The abstract processor of `node` (must be owned by this world).
    pub fn proc(&self, node: NodeId) -> &AbstractProcessor {
        &self.procs[(node - self.base) as usize]
    }

    /// Mutably borrow the router of `node` (a checkpoint walks component
    /// state in both directions through one `&mut` walk).
    pub fn router_mut(&mut self, node: NodeId) -> &mut Router {
        &mut self.routers[(node - self.base) as usize]
    }

    /// Mutably borrow the abstract processor of `node` (see
    /// [`NetWorld::router_mut`]).
    pub fn proc_mut(&mut self, node: NodeId) -> &mut AbstractProcessor {
        &mut self.procs[(node - self.base) as usize]
    }

    /// The nodes whose components this world's slabs hold.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        self.base..self.base + self.routers.len() as u32
    }
}

impl World<NetMsg> for NetWorld {
    fn count(&self) -> usize {
        2 * self.nodes as usize
    }

    fn init(&mut self, id: CompId, ctx: &mut Ctx<'_, NetMsg>) {
        // Only owned components initialise here; a remote id's init runs
        // on its owning shard, consuming the same per-component key
        // counter there — the foundation of serial/sharded bit-identity.
        let n = self.nodes as usize;
        let base = self.base as usize;
        if id < n {
            if let Some(r) = id.checked_sub(base).and_then(|s| self.routers.get_mut(s)) {
                r.init(ctx);
            }
        } else if let Some(p) = (id - n)
            .checked_sub(base)
            .and_then(|s| self.procs.get_mut(s))
        {
            p.init(ctx);
        }
    }

    #[inline]
    fn handle(&mut self, id: CompId, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
        let n = self.nodes as usize;
        let base = self.base as usize;
        if id < n {
            match id.checked_sub(base).and_then(|s| self.routers.get_mut(s)) {
                Some(r) => r.handle(ev, ctx),
                None => remote_delivery(id, &ev),
            }
        } else {
            match (id - n)
                .checked_sub(base)
                .and_then(|s| self.procs.get_mut(s))
            {
                Some(p) => p.handle(ev, ctx),
                None => remote_delivery(id, &ev),
            }
        }
    }
}

/// Delivery to a component this world does not own: in a sharded run that
/// means the conservative lookahead window was violated — a correctness
/// bug, not a recoverable condition. (This replaces the old panicking
/// `Phantom` stub components.)
#[cold]
#[inline(never)]
fn remote_delivery(id: CompId, ev: &Event<NetMsg>) -> ! {
    panic!(
        "event delivered to component {id} on a shard that does not own it \
         (lookahead violation): {:?}",
        ev.payload
    );
}
