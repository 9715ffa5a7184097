//! Packets and the network-message event type.

use mermaid_ops::NodeId;
use pearl::Time;

/// Identifies a message uniquely within a simulation: source node plus a
/// source-local sequence number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
/// Every field is a sum of exact `pearl::Duration` picosecond spans, so
/// for a delivered packet the components reconstruct the measured latency
/// *exactly*:
///
/// ```text
/// latency = pre + queue + route + ser + wire
/// ```
///
/// `pre` is accounted by the sending processor (send overhead on the
/// original attempt; elapsed recovery time on a retransmission), the rest
/// by every router the packet crosses. The accumulation is a handful of
/// integer adds per hop — cheap enough to do unconditionally — and is
/// observable only through the probe layer, so untraced runs stay
/// bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathDecomp {
    /// Time before the packet entered the network: the sender's injection
    /// overhead, plus (for retransmissions) the whole retry-recovery span
    /// between the original send and this attempt's injection.
    pub pre_ps: u64,
    /// Time spent waiting for busy output links (contention).
    pub queue_ps: u64,
    /// Routing decision time (`routing_delay` per hop).
    pub route_ps: u64,
    /// Serialisation time: moving the packet's bytes onto each link, plus
    /// the tail residue at ejection.
    pub ser_ps: u64,
    /// Wire (propagation) latency across each link.
    pub wire_ps: u64,
}

impl PathDecomp {
    /// Sum of all components.
    pub fn total_ps(&self) -> u64 {
        self.pre_ps + self.queue_ps + self.route_ps + self.ser_ps + self.wire_ps
    }
}

/// One packet in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Packet {
    /// The message this packet belongs to.
    pub msg: MsgId,
    /// Final destination node.
    pub dst: NodeId,
    /// Packet index within the message (0-based).
    pub index: u32,
    /// Total packets in the message.
    pub count: u32,
    /// Payload bytes in this packet (headers are accounted separately).
    pub payload: u32,
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
    /// Reconstruct the `i`-th packet of the run (`0 ≤ i < len`).
    ///
    /// `payload_max` is the network's maximum packet payload; a message is
    /// split into full packets with one possibly-short tail, so the payload
    /// of any packet follows from its index alone.
    pub fn packet(&self, i: u32, payload_max: u32) -> Packet {
        debug_assert!(i < self.len);
        let index = self.first.index + i;
        debug_assert!(index < self.first.count);
        let payload = (self.first.msg_bytes - index * payload_max).min(payload_max);
        Packet {
            index,
            payload,
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
            count: 3,
            payload: 1024,
            msg_bytes: 2500,
            kind: PacketKind::Data { sync: false },
            sent_at: Time::ZERO,
            attempt: 0,
            corrupted: false,
            path: PathDecomp::default(),
        };
        let t = Train { first, len: 3 };
        assert_eq!(t.packet(0, 1024).payload, 1024);
        assert_eq!(t.packet(1, 1024).payload, 1024);
        assert_eq!(t.packet(1, 1024).index, 1);
        // Tail packet carries the remainder.
        assert_eq!(t.packet(2, 1024).payload, 2500 - 2 * 1024);
        // A sub-run starting mid-message reconstructs the same packets.
        let sub = Train {
            first: t.packet(1, 1024),
            len: 2,
        };
        assert_eq!(sub.packet(1, 1024), t.packet(2, 1024));
    }
}
