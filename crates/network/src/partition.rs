//! Topology partitioning and lookahead for sharded simulation.
//!
//! A sharded run splits the machine's nodes into per-thread *shards*. The
//! partition is by contiguous node-id blocks, which follows physical
//! locality on every supported topology: ring neighbours are id-adjacent,
//! and on meshes/tori (`id = y*w + x`) a contiguous block is a band of
//! rows, so most links stay shard-internal. Correctness never depends on
//! the cut — only window width (the *lookahead*) does, and that is a
//! function of the link parameters and the smallest packet the run can
//! put on a wire, not of the partition (see [`lookahead`]).

use std::fmt;

use mermaid_ops::{NodeId, Operation, TraceSet};
use pearl::Duration;

use crate::config::{NetworkConfig, Switching};
use crate::fault::FaultSchedule;
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

/// The conservative per-hop lookahead of a run and what sized it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookahead {
    /// Lower bound on the virtual time between a router processing an
    /// event and the arrival it schedules at a neighbouring router.
    pub hop: Duration,
    /// Which packet's head advance the bound is built from.
    pub basis: LookaheadBasis,
}

/// Which head advance bounds a [`Lookahead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookaheadBasis {
    /// Store-and-forward, and every packet the run can send carries
    /// payload: the smallest one is this many bytes on the wire, header
    /// included.
    SmallestPacket(u32),
    /// Store-and-forward, but the run can send a header-only packet.
    HeaderOnlyPacket,
    /// Cut-through or wormhole: a head advances by its header whatever
    /// the packet's size.
    HeaderAdvance,
}

impl fmt::Display for Lookahead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ps per hop, ", self.hop.as_ps())?;
        match self.basis {
            LookaheadBasis::SmallestPacket(bytes) => write!(f, "smallest packet {bytes} B"),
            LookaheadBasis::HeaderOnlyPacket => {
                f.write_str("header-only (acks / get requests / zero-byte messages / faults)")
            }
            LookaheadBasis::HeaderAdvance => f.write_str("header advance (cut-through / wormhole)"),
        }
    }
}

/// The conservative lookahead of a run: a lower bound on the virtual-time
/// distance between a router processing an event and the earliest
/// cross-shard effect it can cause.
///
/// Every router→router hand-off in the model goes through
/// `Router::reserve`, which schedules the head's arrival at the next
/// router no earlier than `now + routing_delay + head advance +
/// wire_latency`. Under cut-through and wormhole switching the head
/// advances by the header's serialisation. Under store-and-forward it
/// advances by the whole packet's, so the bound uses the smallest packet
/// the run can put on a wire: `header_bytes` plus the smallest payload of
/// any `asend`/`put` packet in `traces`. A message of `b` bytes splits
/// into full packets and a tail of `b % max_packet_payload` bytes (a full
/// packet when that is 0). The payload term is 0 — a header-only packet
/// — whenever the run can send one: rendezvous acks (any `send`), get
/// requests (any `get`), zero-byte messages, and the arrival acks of the
/// fault layer (any `faults`).
///
/// Processor↔router traffic never crosses a shard boundary — each node's
/// processor and router live in the same shard — so this bound covers all
/// cross-shard events.
pub fn lookahead(
    cfg: &NetworkConfig,
    traces: &TraceSet,
    faults: Option<&FaultSchedule>,
) -> Lookahead {
    let header = cfg.router.header_bytes;
    let (payload, basis) = match cfg.router.switching {
        Switching::VirtualCutThrough | Switching::Wormhole => (0, LookaheadBasis::HeaderAdvance),
        Switching::StoreAndForward => match smallest_payload(cfg, traces, faults) {
            Some(p) => (p, LookaheadBasis::SmallestPacket(header + p)),
            None => (0, LookaheadBasis::HeaderOnlyPacket),
        },
    };
    Lookahead {
        hop: cfg.router.routing_delay
            + cfg.link.wire_latency
            + cfg.link.transfer_time(header + payload),
        basis,
    }
}

/// The smallest payload any packet of the run carries, or `None` when the
/// run can send a header-only packet (see [`lookahead`]).
fn smallest_payload(
    cfg: &NetworkConfig,
    traces: &TraceSet,
    faults: Option<&FaultSchedule>,
) -> Option<u32> {
    if faults.is_some() {
        return None;
    }
    let max = cfg.router.max_packet_payload;
    let mut smallest = max;
    for op in traces.iter().flat_map(|t| t.iter()) {
        match *op {
            Operation::Send { .. }
            | Operation::Get { .. }
            | Operation::ASend { bytes: 0, .. }
            | Operation::Put { bytes: 0, .. } => return None,
            Operation::ASend { bytes, .. } | Operation::Put { bytes, .. } => {
                let tail = match bytes % max {
                    0 => max,
                    r => r,
                };
                smallest = smallest.min(tail);
            }
            _ => {}
        }
    }
    Some(smallest)
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

    /// The per-hop lookahead of the cut-through test machine.
    fn test_hop() -> Duration {
        lookahead(
            &NetworkConfig::test(Topology::Ring(12)),
            &TraceSet::new(12),
            None,
        )
        .hop
    }

    #[test]
    fn window_end_combines_promises_with_the_lookahead() {
        let la = test_hop();
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
        let la = test_hop();
        let far = 1_000_000_000;
        assert_eq!(
            window_end_ps(0, &[10, far, far, far], la),
            10 + 2 * la.as_ps()
        );
    }

    /// One row of the lookahead table: a label, node 0's operations,
    /// whether a fault schedule is attached, and the smallest wire packet
    /// on the T805 (512 B payload, 8 B header; `None` = header-only).
    type LookaheadRow = (&'static str, Vec<Operation>, bool, Option<u32>);

    #[test]
    fn lookahead_is_sized_by_the_smallest_packet_the_run_can_send() {
        let asend = |bytes| Operation::ASend { bytes, dst: 1 };
        let rows: Vec<LookaheadRow> = vec![
            (
                "all 4096 B asends",
                vec![asend(4096), asend(4096)],
                false,
                Some(520),
            ),
            ("a 4100 B asend", vec![asend(4100)], false, Some(12)),
            (
                "a 700 B put",
                vec![Operation::Put { bytes: 700, to: 1 }],
                false,
                Some(196),
            ),
            (
                "513 B beside 4096 B",
                vec![asend(4096), asend(513)],
                false,
                Some(9),
            ),
            (
                "no messages",
                vec![Operation::Compute { ps: 1 }],
                false,
                Some(520),
            ),
            ("a 0 B asend", vec![asend(4096), asend(0)], false, None),
            (
                "a 0 B put",
                vec![Operation::Put { bytes: 0, to: 1 }],
                false,
                None,
            ),
            (
                "a send",
                vec![
                    asend(4096),
                    Operation::Send {
                        bytes: 4096,
                        dst: 1,
                    },
                ],
                false,
                None,
            ),
            (
                "a get",
                vec![
                    asend(4096),
                    Operation::Get {
                        bytes: 4096,
                        from: 1,
                    },
                ],
                false,
                None,
            ),
            ("faults", vec![asend(4096)], true, None),
        ];
        let topo = Topology::Ring(2);
        let mut cut_through = NetworkConfig::t805(topo);
        cut_through.router.switching = Switching::VirtualCutThrough;
        let mut wormhole = NetworkConfig::t805(topo);
        wormhole.router.switching = Switching::Wormhole;
        let header_hop = |cfg: &NetworkConfig| {
            cfg.router.routing_delay
                + cfg.link.wire_latency
                + cfg.link.transfer_time(cfg.router.header_bytes)
        };
        for (label, ops, with_faults, t805_packet) in rows {
            let mut ts = TraceSet::new(2);
            ts.trace_mut(0).ops = ops;
            let faults = FaultSchedule::new(1);
            let faults = with_faults.then_some(&faults);

            let t805 = NetworkConfig::t805(topo);
            let la = lookahead(&t805, &ts, faults);
            let (basis, wire) = match t805_packet {
                Some(b) => (LookaheadBasis::SmallestPacket(b), b),
                None => (LookaheadBasis::HeaderOnlyPacket, t805.router.header_bytes),
            };
            assert_eq!(la.basis, basis, "t805: {label}");
            assert_eq!(
                la.hop,
                t805.router.routing_delay + t805.link.wire_latency + t805.link.transfer_time(wire),
                "t805: {label}"
            );

            // Cut-through and wormhole heads advance by the header alone,
            // whatever the traces send.
            for cfg in [
                NetworkConfig::test(topo),
                NetworkConfig::hw_routed(topo),
                cut_through,
                wormhole,
            ] {
                let la = lookahead(&cfg, &ts, faults);
                assert_eq!(la.basis, LookaheadBasis::HeaderAdvance, "{label}");
                assert_eq!(la.hop, header_hop(&cfg), "{label}");
                assert!(la.hop > Duration::ZERO, "{label}");
            }
        }
    }

    #[test]
    fn lookahead_names_its_basis() {
        let ts = TraceSet::new(2);
        let la = lookahead(&NetworkConfig::t805(Topology::Ring(2)), &ts, None);
        assert_eq!(
            la.to_string(),
            format!("{} ps per hop, smallest packet 520 B", la.hop.as_ps())
        );
    }
}
