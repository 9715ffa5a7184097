//! Packets and the network-message event type.

use mermaid_ops::NodeId;
use pearl::{Duration, Time};

/// Identifies a message uniquely within a simulation: source node plus a
/// source-local sequence number.
///
/// Aligned to 4 bytes, so the id takes 12 bytes of every packet instead
/// of 16 (DESIGN.md §9). Read its fields by value; a reference to `seq`
/// is refused by the compiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C, packed(4))]
pub struct MsgId {
    /// Sending node.
    pub src: NodeId,
    /// Source-local message sequence number.
    pub seq: u64,
}

/// What a packet carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PacketKind {
    /// Part of a data message.
    Data {
        /// Whether the message was sent with blocking `send` (the receiver
        /// must return an acknowledgement on consumption).
        sync: bool,
    },
    /// A rendezvous acknowledgement for a blocking send.
    #[default]
    Ack,
    /// A one-sided `put`: consumed automatically at the target, no receive
    /// operation involved.
    OneWay,
    /// A one-sided `get` request: the target services it automatically by
    /// returning `bytes` of data as a [`PacketKind::GetReply`] message.
    GetRequest {
        /// Payload size the requester wants back.
        bytes: u32,
    },
    /// The data half of a one-sided `get`.
    GetReply,
}

/// Where a packet's end-to-end time went, accumulated hop by hop.
///
/// The decomposition of a packet observed at instant `at` is
///
/// ```text
/// at - sent_at = pre + queue + route + ser + wire
/// ```
///
/// and only what cannot be derived is stored: `pre`, `queue` and two
/// counts. Every router a packet crosses charges one routing decision and
/// one wire latency (a *hop*); a follower of a back-to-back run is also
/// charged one routing decision per packet ahead of it in the run (a
/// *restart*). So `route = (hops + restarts) × routing_delay` and
/// `wire = hops × wire_latency`, and `ser` — moving the packet's bytes
/// onto each link plus the tail residue at ejection — is what is left of
/// `at - sent_at` (see [`PathDecomp::ser_ps`]). The split is observable
/// only through the probe layer and snapshots, so untraced runs stay
/// bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathDecomp {
    /// Time from the send issue to the packet entering the network: the
    /// sender's injection overhead, plus (for retransmissions) the whole
    /// retry-recovery span between the original send and this attempt's
    /// injection. An acknowledgement holds its injection delay here, but
    /// reports — and a snapshot writes — a `pre` of 0, as an ack always
    /// has (see `Packet::walk`).
    pub pre_ps: u64,
    /// Time spent waiting for busy output links (contention).
    pub queue_ps: u64,
    /// Links crossed.
    pub hops: u32,
    /// Routing restarts behind the packets ahead in a back-to-back run.
    pub restarts: u32,
}

impl PathDecomp {
    /// Routing decision time: `routing_delay` per hop and per restart.
    pub fn route_ps(&self, net: &PacketParams) -> u64 {
        (self.hops as u64 + self.restarts as u64) * net.routing_delay.as_ps()
    }

    /// Wire (propagation) latency: `wire_latency` per hop.
    pub fn wire_ps(&self, net: &PacketParams) -> u64 {
        self.hops as u64 * net.wire_latency.as_ps()
    }

    /// Serialisation time of a packet sent at `sent_at` and observed at
    /// `at`: the rest of its progress once the other components are
    /// taken out.
    pub fn ser_ps(&self, net: &PacketParams, sent_at: Time, at: Time) -> u64 {
        at.since(sent_at)
            .as_ps()
            .checked_sub(self.pre_ps + self.queue_ps + self.route_ps(net) + self.wire_ps(net))
            .expect("a packet's path components exceed its elapsed time")
    }
}

/// The network parameters a packet's derived fields follow from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketParams {
    /// The largest payload one packet carries.
    pub payload_max: u32,
    /// Routing decision time per hop (and per restart).
    pub routing_delay: Duration,
    /// Propagation latency of a link.
    pub wire_latency: Duration,
}

impl PacketParams {
    /// The parameters of `cfg`'s network.
    pub fn of(cfg: &crate::NetworkConfig) -> Self {
        PacketParams {
            payload_max: cfg.router.max_packet_payload,
            routing_delay: cfg.router.routing_delay,
            wire_latency: cfg.link.wire_latency,
        }
    }
}

/// One packet in flight.
///
/// Its payload and its message's packet count are not stored: both
/// follow from the message size, the index and the payload limit
/// ([`Packet::payload`], [`Packet::count`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Packet {
    /// The message this packet belongs to.
    pub msg: MsgId,
    /// Final destination node.
    pub dst: NodeId,
    /// Packet index within the message (0-based).
    pub index: u32,
    /// Total payload bytes of the whole message.
    pub msg_bytes: u32,
    /// Data or acknowledgement.
    pub kind: PacketKind,
    /// When the message's send operation was issued (for latency stats).
    pub sent_at: Time,
    /// Retransmission attempt this packet belongs to (0 = original send).
    /// Folded into the fault layer's per-traversal hash so a retry of the
    /// same packet over the same link redraws its transient-loss luck.
    pub attempt: u32,
    /// Checksum bit of the fault model: set when the packet was corrupted
    /// crossing a link, detected (and the packet discarded) at the next
    /// router's checksum point. Always `false` when faults are disabled.
    pub corrupted: bool,
    /// Running latency decomposition (see [`PathDecomp`]).
    pub path: PathDecomp,
}

impl Packet {
    /// Packets in this packet's message: a message is split into full
    /// packets and one possibly-short tail, and even a zero-byte message
    /// needs one (header-only) packet.
    pub fn count(&self, payload_max: u32) -> u32 {
        self.msg_bytes.div_ceil(payload_max).max(1)
    }

    /// Payload bytes of this packet (headers are accounted separately):
    /// the payload limit, or what is left of the message for the tail.
    pub fn payload(&self, payload_max: u32) -> u32 {
        debug_assert!(self.index < self.count(payload_max));
        (self.msg_bytes - self.index * payload_max).min(payload_max)
    }
}

/// A contiguous run of packets of one message travelling back-to-back.
///
/// The packets of a multi-packet message leave their source in one burst,
/// so on an uncontended path they stay nose-to-tail: packet `i`'s head
/// reaches each router a fixed, size-derived gap after packet `i-1`'s.
/// Routers exploit that regularity to move the whole run as *one* event
/// per hop instead of one per packet; the run is re-expanded (exactly)
/// wherever the back-to-back invariant cannot be guaranteed — see
/// `Router::handle_train`.
///
/// Only `first` is stored: packet `first.index + i` of the same message is
/// reconstructed with [`Train::packet`], so a train event costs no more
/// than a single-packet event.
#[derive(Debug, Clone, Copy, Default)]
pub struct Train {
    /// The leading packet of the run.
    pub first: Packet,
    /// Packets in the run (≥ 2; singleton runs travel as plain
    /// `Inject`/`Forward`/`Deliver` events).
    pub len: u32,
}

impl Train {
    /// Reconstruct the `i`-th packet of the run (`0 ≤ i < len`): the
    /// head with the follower's index, from which its payload follows.
    pub fn packet(&self, i: u32) -> Packet {
        debug_assert!(i < self.len);
        Packet {
            index: self.first.index + i,
            ..self.first
        }
    }
}

/// Events exchanged between the components of the communication model.
// `Copy`: every variant is a small plain-data payload, so events move
// through the typed queue (and across shards) as flat bytes — no clones,
// drops, or indirection on the hot path (DESIGN.md §15).
#[derive(Debug, Clone, Copy)]
pub enum NetMsg {
    /// Processor self-event: resume after a `compute` or an overhead.
    Resume,
    /// Processor → its router: inject a packet into the network.
    Inject(Packet),
    /// Processor → its router: inject all packets of one message at once
    /// (they are ready at the same instant by construction).
    InjectTrain(Train),
    /// Router → router (or router → itself for multi-hop): packet header
    /// arrival.
    Forward(Packet),
    /// Router → router: head arrival of a back-to-back packet run; the
    /// followers' staggered arrival times are derived from packet sizes.
    ForwardTrain(Train),
    /// Router → its processor: a packet has fully arrived at the
    /// destination node.
    Deliver(Packet),
    /// Router → its processor: the tail of a packet run has fully arrived;
    /// the earlier packets of the run arrived (and were accounted) before.
    DeliverTrain(Train),
    /// Scripted fault event, self-posted to the affected router before the
    /// run starts (see `crate::fault::FaultSchedule`).
    Fault(crate::fault::FaultKind),
    /// Processor self-event: check whether the message is still
    /// unacknowledged and retransmit or give up (fault mode only).
    RetryCheck(MsgId),
    /// Processor self-event: watchdog for a blocking receive (fault mode
    /// only). `epoch` invalidates stale deadlines after the receive
    /// completes normally.
    RecvDeadline {
        /// The blocking-wait epoch this deadline was armed in.
        epoch: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_ids_are_value_types() {
        let a = MsgId { src: 1, seq: 9 };
        let b = MsgId { src: 1, seq: 9 };
        assert_eq!(a, b);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn packet_kinds_distinguish_sync() {
        assert_ne!(
            PacketKind::Data { sync: true },
            PacketKind::Data { sync: false }
        );
        assert_ne!(PacketKind::Data { sync: true }, PacketKind::Ack);
    }

    #[test]
    fn train_reconstructs_full_packets_and_short_tail() {
        let first = Packet {
            msg: MsgId { src: 0, seq: 0 },
            dst: 1,
            index: 0,
            msg_bytes: 2500,
            kind: PacketKind::Data { sync: false },
            sent_at: Time::ZERO,
            attempt: 0,
            corrupted: false,
            path: PathDecomp::default(),
        };
        let t = Train { first, len: 3 };
        assert_eq!(first.count(1024), 3);
        assert_eq!(t.packet(0).payload(1024), 1024);
        assert_eq!(t.packet(1).payload(1024), 1024);
        assert_eq!(t.packet(1).index, 1);
        // Tail packet carries the remainder.
        assert_eq!(t.packet(2).payload(1024), 2500 - 2 * 1024);
        // A sub-run starting mid-message reconstructs the same packets.
        let sub = Train {
            first: t.packet(1),
            len: 2,
        };
        assert_eq!(sub.packet(1), t.packet(2));
        // A zero-byte message is one header-only packet.
        let empty = Packet {
            msg_bytes: 0,
            ..first
        };
        assert_eq!((empty.count(1024), empty.payload(1024)), (1, 0));
    }

    /// What a pending event costs in the queue's slab (DESIGN.md §9).
    #[test]
    fn a_pending_network_event_fits_96_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<MsgId>(), 12);
        assert_eq!(size_of::<Packet>(), 72);
        assert!(size_of::<Option<pearl::QueuedEvent<NetMsg>>>() <= 96);
    }
}
