//! Topology partitioning and lookahead for sharded simulation.
//!
//! A sharded run splits the machine's nodes into per-thread *shards*. The
//! partition is by contiguous node-id blocks, which follows physical
//! locality on every supported topology: ring neighbours are id-adjacent,
//! and on meshes/tori (`id = y*w + x`) a contiguous block is a band of
//! rows, so most links stay shard-internal. Correctness never depends on
//! the cut — only window width (the *lookahead*) does, and that is a
//! property of the link parameters, not the partition.

use mermaid_ops::NodeId;
use pearl::Duration;

use crate::config::NetworkConfig;
use crate::topology::Topology;

/// A partition of a topology's nodes into contiguous shards.
#[derive(Debug, Clone)]
pub struct Partition {
    /// `starts[s]..starts[s+1]` is shard `s`'s node range.
    starts: Vec<u32>,
    nodes: u32,
}

impl Partition {
    /// Split `topo`'s nodes into (at most) `shards` contiguous blocks of
    /// near-equal size. The shard count is capped at the node count, so
    /// every shard is non-empty.
    pub fn contiguous(topo: Topology, shards: usize) -> Self {
        let nodes = topo.nodes();
        // Clamp in usize *before* narrowing: `(shards as u32)` would wrap a
        // pathological request like `1 << 32` to zero shards.
        let k = shards.clamp(1, nodes as usize) as u32;
        let base = nodes / k;
        let extra = nodes % k; // first `extra` shards get one more node
        let mut starts = Vec::with_capacity(k as usize + 1);
        let mut at = 0;
        for s in 0..k {
            starts.push(at);
            at += base + u32::from(s < extra);
        }
        starts.push(nodes);
        Partition { starts, nodes }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total node count.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// The node range of shard `s`.
    pub fn range(&self, s: usize) -> std::ops::Range<u32> {
        self.starts[s]..self.starts[s + 1]
    }

    /// Which shard owns `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        debug_assert!(node < self.nodes);
        // Blocks differ in size by at most one, so a direct estimate lands
        // within one shard of the answer; nudge to the owning block.
        let k = self.shards();
        let mut s = ((node as u64 * k as u64) / self.nodes.max(1) as u64) as usize;
        s = s.min(k - 1);
        while node < self.starts[s] {
            s -= 1;
        }
        while node >= self.starts[s + 1] {
            s += 1;
        }
        s
    }

    /// Per-node membership mask for shard `s` (`mask[node]` ⇔ local).
    pub fn local_mask(&self, s: usize) -> Vec<bool> {
        let r = self.range(s);
        (0..self.nodes).map(|n| r.contains(&n)).collect()
    }
}

/// The conservative lookahead of a configuration: a lower bound on the
/// virtual-time distance between a router processing an event and the
/// earliest cross-shard effect it can cause.
///
/// Every router→router hand-off in the model goes through
/// `Router::reserve`, which schedules the head's arrival at the next
/// router no earlier than
/// `now + routing_delay + serialisation(≥ header) + wire_latency`
/// (store-and-forward serialises the whole packet; cut-through at least
/// the header, and every packet is at least `header_bytes` on the wire).
/// Processor↔router traffic never crosses a shard boundary — each node's
/// processor and router live in the same shard — so this bound covers all
/// cross-shard events.
pub fn lookahead(cfg: &NetworkConfig) -> Duration {
    cfg.router.routing_delay
        + cfg.link.wire_latency
        + cfg.link.transfer_time(cfg.router.header_bytes)
}

/// Shard `me`'s conservative window end, in integer picoseconds, given
/// every shard's published earliest pending event time (`mins[j]`, with
/// [`pearl::IDLE_PS`] meaning idle) and the per-hop [`lookahead`]: the
/// earliest instant at which a cross-shard event `me` has not yet
/// received could still arrive.
///
/// Every future arrival traces causally back to some event pending *now*.
/// Blocks are disjoint, so one pending at peer `j` crosses at least one
/// link to reach `me`: it arrives no earlier than `mins[j] + lookahead`.
/// One pending at `me` itself must leave the block and come back, costing
/// at least two hops: `mins[me] + 2 * lookahead`. Omitting that self term
/// lets a shard whose own queue head is far below its peers' outrun the
/// replies to its own sends — peers' promises cannot cover arrivals the
/// shard is about to cause. Events strictly before the returned bound can
/// never be preempted by a not-yet-received message. `u64::MAX` when every
/// shard is idle — nothing is pending anywhere.
pub(crate) fn window_end_ps(me: usize, mins: &[u64], lookahead: Duration) -> u64 {
    let hop = lookahead.as_ps();
    mins.iter()
        .enumerate()
        .filter(|&(_, &m)| m != pearl::IDLE_PS)
        .map(|(j, &m)| m.saturating_add(if j == me { 2 * hop } else { hop }))
        .min()
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_blocks_cover_all_nodes_exactly_once() {
        for topo in [
            Topology::Ring(7),
            Topology::Mesh2D { w: 4, h: 3 },
            Topology::Torus2D { w: 4, h: 4 },
            Topology::Hypercube { dim: 4 },
        ] {
            for shards in 1..=9 {
                let p = Partition::contiguous(topo, shards);
                assert!(p.shards() <= shards.max(1));
                assert!(p.shards() >= 1);
                let mut seen = 0u32;
                for s in 0..p.shards() {
                    let r = p.range(s);
                    assert!(!r.is_empty(), "{topo:?} shard {s} empty");
                    for n in r {
                        assert_eq!(p.shard_of(n), s);
                        seen += 1;
                    }
                }
                assert_eq!(seen, topo.nodes());
            }
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        let p = Partition::contiguous(Topology::Ring(10), 4);
        let sizes: Vec<u32> = (0..p.shards()).map(|s| p.range(s).len() as u32).collect();
        assert_eq!(sizes.iter().sum::<u32>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn shard_count_caps_at_node_count() {
        let p = Partition::contiguous(Topology::Ring(3), 8);
        assert_eq!(p.shards(), 3);
    }

    #[test]
    fn local_mask_matches_ranges() {
        let p = Partition::contiguous(Topology::Mesh2D { w: 4, h: 2 }, 3);
        for s in 0..p.shards() {
            let mask = p.local_mask(s);
            for n in 0..p.nodes() {
                assert_eq!(mask[n as usize], p.range(s).contains(&n));
            }
        }
    }

    #[test]
    fn window_end_combines_promises_with_the_lookahead() {
        let la = lookahead(&NetworkConfig::test(Topology::Ring(12)));
        let hop = la.as_ps();
        // Peers promise 100 (shard 1), 50 (shard 2), idle (shard 3);
        // shard 0 itself is idle, so no self round-trip term applies.
        let mins = [pearl::IDLE_PS, 100, 50, pearl::IDLE_PS];
        assert_eq!(window_end_ps(0, &mins, la), 50 + hop);
        // All peers idle: a shard with its own events pending is still
        // bounded by the round trip through a neighbour — its sends can
        // wake an idle peer whose replies come back.
        assert_eq!(
            window_end_ps(1, &[pearl::IDLE_PS, 7, pearl::IDLE_PS, pearl::IDLE_PS], la),
            7 + 2 * hop
        );
        // Everyone idle and silent: unbounded.
        assert_eq!(window_end_ps(1, &[pearl::IDLE_PS; 4], la), u64::MAX);
    }

    #[test]
    fn window_end_self_round_trip_caps_a_runaway_shard() {
        // Shard 0's own queue head (10) is far below its peers' (1000):
        // replies to what shard 0 is about to send bound its window at
        // head + the round trip, not at the peers' promises.
        let la = lookahead(&NetworkConfig::test(Topology::Ring(12)));
        let far = 1_000_000_000;
        assert_eq!(
            window_end_ps(0, &[10, far, far, far], la),
            10 + 2 * la.as_ps()
        );
    }

    #[test]
    fn lookahead_is_positive_for_presets() {
        for cfg in [
            NetworkConfig::test(Topology::Ring(4)),
            NetworkConfig::t805(Topology::Ring(4)),
            NetworkConfig::hw_routed(Topology::Ring(4)),
        ] {
            assert!(lookahead(&cfg) > Duration::ZERO);
        }
    }
}
