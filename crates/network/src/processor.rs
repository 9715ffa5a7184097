//! The abstract processor (paper, Fig. 3b): reads an incoming task-level
//! operation trace, executes `compute` operations by advancing virtual
//! time, and dispatches communication requests to its router.
//!
//! Blocking semantics:
//!
//! * `send` is a rendezvous: the sender blocks until the receiver has
//!   consumed the message, signalled by an acknowledgement control packet
//!   travelling back through the network.
//! * `recv` blocks until a message from the named source has fully arrived.
//! * `asend` returns after the send overhead; `arecv` posts the receive and
//!   returns immediately (the message is consumed on arrival).
//!
//! The processor owns its rendezvous state: per source, a FIFO queue of
//! fully arrived messages no receive has taken yet, and a count of posted
//! `arecv`s no message has matched yet. A source only ever has one of the
//! two, since a receive takes a queued message and an arrival claims a
//! posted `arecv` at once. A blocking `recv` is the processor's state
//! (`AwaitRecv`), not a queued entry. Every blocking wait — `send`, `recv`,
//! `get` — ends on one path that charges its time and closes its
//! `Activation` span, whatever ended it: the awaited packet, a give-up or
//! the receive watchdog.
//!
//! # Fault mode
//!
//! With a [`FaultSchedule`] attached (see `crate::fault`), the processor
//! runs a transport-level reliability protocol so that lost packets never
//! wedge the simulation:
//!
//! * Every originated message (`send`, `asend`, `put`, `get` request) is
//!   *tracked*: the receiver acknowledges **arrival** (full reassembly)
//!   with a control packet, and the sender retransmits on timeout with
//!   capped exponential backoff — all in simulated time.
//! * After `max_retries` unanswered retransmissions the sender *gives up*:
//!   it records a structured [`UnreachableReport`], emits a `MsgGaveUp`
//!   probe event, unblocks (if it was waiting on that message) and
//!   continues its trace — degraded results instead of deadlock.
//! * Blocking receives carry a watchdog deadline; a receive that cannot be
//!   satisfied (the sender is partitioned away) times out and the trace
//!   continues, counted in `ProcStats::recv_timeouts`.
//! * Retransmissions reuse the message id; the receiver deduplicates by
//!   completed-message id and re-acknowledges duplicates (the original ack
//!   may itself have been lost).
//!
//! In fault mode the rendezvous acknowledgement of a blocking `send` is
//! subsumed by the arrival acknowledgement: the sender unblocks when the
//! message has fully *arrived* rather than when it is *consumed*. Fault-free
//! runs (no schedule attached) are bit-identical to a build without this
//! layer — every fault branch sits behind an `Option` that short-circuits
//! to the original path.

use std::collections::VecDeque;
use std::sync::Arc;

use mermaid_ops::{NodeId, Operation, Trace};
use mermaid_probe::{ActKind, ProbeHandle, SimEvent};
use mermaid_stats::state::StateWalk;
use mermaid_stats::Histogram;
use pearl::{CompId, Component, Ctx, Duration, Event, FastHashMap, FastHashSet, Time};

use crate::config::NetworkConfig;
use crate::fault::FaultSchedule;
use crate::packet::{MsgId, NetMsg, Packet, PacketKind, PacketParams, PathDecomp, Train};
use crate::snapshot::{Seen, WalkPs};

/// One sender-side record of a message that exhausted its retries: the
/// structured degraded-mode evidence that a destination was unreachable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnreachableReport {
    /// The node that gave up sending.
    pub src: NodeId,
    /// The destination that never acknowledged.
    pub dst: NodeId,
    /// The failed message's source-local sequence number.
    pub seq: u64,
    /// Retransmissions attempted before giving up.
    pub retries: u32,
    /// Simulated time at which the sender gave up.
    pub gave_up: Time,
}

/// Statistics of one abstract processor.
#[derive(Debug, Clone)]
pub struct ProcStats {
    /// Time spent in `compute` operations.
    pub compute: Duration,
    /// Time spent blocked in synchronous sends (waiting for the ack).
    pub send_block: Duration,
    /// Time spent blocked in synchronous receives.
    pub recv_block: Duration,
    /// Messages sent (sync + async).
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received (consumed).
    pub msgs_received: u64,
    /// End-to-end message latencies (send issue → last byte delivered), ps.
    pub msg_latency: Histogram,
    /// Time spent blocked in one-sided `get` operations.
    pub get_block: Duration,
    /// `get` operations issued by this node.
    pub gets_issued: u64,
    /// `get` requests this node serviced for others (re-served duplicates
    /// of a retried request count again).
    pub gets_served: u64,
    /// One-sided `put` messages consumed at this node.
    pub puts_received: u64,
    /// Round-trip latencies of this node's `get` operations (ps).
    pub get_latency: Histogram,
    /// Messages entered into the reliability protocol (fault mode only).
    /// Invariant: `msgs_tracked == msgs_acked + msgs_failed` once the run
    /// has drained — nothing is silently lost.
    pub msgs_tracked: u64,
    /// Tracked messages whose arrival was acknowledged.
    pub msgs_acked: u64,
    /// Tracked messages given up on after exhausting retries.
    pub msgs_failed: u64,
    /// Retransmissions issued (fault mode only).
    pub retries: u64,
    /// Blocking receives abandoned by the fault-mode watchdog.
    pub recv_timeouts: u64,
    /// Retries needed per tracked message (0 ⇒ first transmission
    /// acknowledged; recorded on completion or give-up).
    pub retry_counts: Histogram,
    /// Structured reports of destinations this node gave up reaching.
    pub unreachable: Vec<UnreachableReport>,
    /// When this processor finished its trace (None ⇒ blocked forever:
    /// deadlock or mismatched communication).
    pub finished_at: Option<Time>,
}

impl Default for ProcStats {
    fn default() -> Self {
        ProcStats {
            compute: Duration::ZERO,
            send_block: Duration::ZERO,
            recv_block: Duration::ZERO,
            msgs_sent: 0,
            bytes_sent: 0,
            msgs_received: 0,
            msg_latency: Histogram::log2(),
            get_block: Duration::ZERO,
            gets_issued: 0,
            gets_served: 0,
            puts_received: 0,
            get_latency: Histogram::log2(),
            msgs_tracked: 0,
            msgs_acked: 0,
            msgs_failed: 0,
            retries: 0,
            recv_timeouts: 0,
            retry_counts: Histogram::log2(),
            unreachable: Vec::new(),
            finished_at: None,
        }
    }
}

/// A message fully arrived at this node, waiting to be consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct CompletedMsg {
    id: MsgId,
    arrived: Time,
    sent_at: Time,
    bytes: u32,
    sync: bool,
    /// Latency decomposition of the packet that completed reassembly — the
    /// last to arrive, so its component sum equals `arrived - sent_at`.
    path: PathDecomp,
    /// Retransmission attempt of the completing packet (0 = original send).
    attempt: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Processing trace operations (inside `advance`).
    Running,
    /// Waiting for a `compute` timer.
    Computing,
    /// Blocked in a synchronous send since the given time.
    AwaitAck { since: Time, msg: MsgId },
    /// Blocked in a synchronous receive since the given time.
    AwaitRecv { src: NodeId, since: Time },
    /// Blocked in a one-sided `get` since the given time.
    AwaitGet { since: Time, msg: MsgId },
    /// Trace exhausted.
    Done,
}

/// In-progress reassembly of a multi-packet message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Assembly {
    got: u32,
    total: u32,
}

/// Sender-side record of an unacknowledged tracked message (fault mode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Outstanding {
    dst: NodeId,
    bytes: u32,
    kind: PacketKind,
    /// Retransmissions issued so far (0 = only the original send).
    attempt: u32,
    /// When the original send was issued — retransmitted packets keep it,
    /// so latency still measures issue → delivery.
    sent_at: Time,
}

/// The abstract processor of one node.
pub struct AbstractProcessor {
    node: NodeId,
    /// The node's task-level trace, shared with the trace set it came
    /// from (the processor only reads it — no per-simulation copy).
    trace: Arc<Trace>,
    cursor: usize,
    router_comp: CompId,
    cfg: NetworkConfig,
    state: ProcState,
    send_seq: u64,
    assembling: FastHashMap<MsgId, Assembly>,
    /// Fully arrived messages no receive has taken yet, by source, oldest
    /// first. A source with none has no entry.
    arrivals: FastHashMap<NodeId, VecDeque<CompletedMsg>>,
    /// Posted `arecv`s no arrival has matched yet, by source. A source
    /// with none has no entry.
    posted: FastHashMap<NodeId, usize>,
    /// The fault schedule, when fault injection is enabled. `None`
    /// short-circuits every reliability-protocol branch to the original
    /// fault-free path.
    faults: Option<Arc<FaultSchedule>>,
    /// Tracked-but-unacknowledged messages (fault mode only).
    outstanding: FastHashMap<MsgId, Outstanding>,
    /// Messages fully assembled at this node — deduplicates the packets of
    /// retransmissions (fault mode only).
    completed: FastHashSet<MsgId>,
    /// Monotone counter invalidating stale `RecvDeadline` watchdogs: bumped
    /// every time the trace advances, so a deadline armed for an earlier
    /// blocking wait can never fire into a later one.
    wait_epoch: u64,
    /// Instrumentation (disabled by default; observation only, never read
    /// back into model behaviour).
    probe: ProbeHandle,
    /// Statistics.
    pub stats: ProcStats,
}

impl AbstractProcessor {
    /// Build the processor of `node` with its task-level trace.
    pub fn new(node: NodeId, trace: Arc<Trace>, router_comp: CompId, cfg: NetworkConfig) -> Self {
        AbstractProcessor {
            node,
            trace,
            cursor: 0,
            router_comp,
            cfg,
            state: ProcState::Running,
            send_seq: 0,
            assembling: FastHashMap::default(),
            arrivals: FastHashMap::default(),
            posted: FastHashMap::default(),
            faults: None,
            outstanding: FastHashMap::default(),
            completed: FastHashSet::default(),
            wait_epoch: 0,
            probe: ProbeHandle::disabled(),
            stats: ProcStats::default(),
        }
    }

    /// Attach an instrumentation handle (builder style).
    pub fn with_probe(mut self, probe: ProbeHandle) -> Self {
        self.probe = probe;
        self
    }

    /// Attach a fault schedule (builder style); `None` keeps the exact
    /// fault-free behaviour.
    pub fn with_faults(mut self, faults: Option<Arc<FaultSchedule>>) -> Self {
        self.faults = faults;
        self
    }

    /// The node this processor models.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Split a message into packets and inject them after `delay`.
    /// Returns the message id (used to correlate `get` replies).
    ///
    /// In fault mode the new message enters the reliability protocol: it is
    /// recorded as outstanding and a retry check is armed.
    fn inject_message_kind(
        &mut self,
        dst: NodeId,
        bytes: u32,
        kind: PacketKind,
        delay: Duration,
        ctx: &mut Ctx<'_, NetMsg>,
    ) -> MsgId {
        let id = MsgId {
            src: self.node,
            seq: self.send_seq,
        };
        self.send_seq += 1;
        self.inject_message_as(id, dst, bytes, kind, 0, delay, ctx);
        if let Some(faults) = &self.faults {
            let timeout = faults.retry.timeout(0);
            self.outstanding.insert(
                id,
                Outstanding {
                    dst,
                    bytes,
                    kind,
                    attempt: 0,
                    sent_at: ctx.now(),
                },
            );
            self.stats.msgs_tracked += 1;
            ctx.timer(delay + timeout, NetMsg::RetryCheck(id));
        }
        id
    }

    /// Inject a message under an explicit id (used for `get` replies, which
    /// carry the *requester's* message id back). `attempt` tags the packets
    /// for the fault layer's per-traversal hash: replies to a retried `get`
    /// request inherit the request's attempt so they redraw their loss luck.
    #[allow(clippy::too_many_arguments)]
    fn inject_message_as(
        &mut self,
        id: MsgId,
        dst: NodeId,
        bytes: u32,
        kind: PacketKind,
        attempt: u32,
        delay: Duration,
        ctx: &mut Ctx<'_, NetMsg>,
    ) {
        if matches!(kind, PacketKind::Data { .. } | PacketKind::OneWay) {
            self.stats.msgs_sent += 1;
            self.stats.bytes_sent += bytes as u64;
            self.probe.emit(|| SimEvent::MsgSend {
                ts_ps: ctx.now().as_ps(),
                src: self.node,
                dst,
                bytes,
                sync: matches!(kind, PacketKind::Data { sync: true }),
            });
        }
        self.inject_packets(id, dst, bytes, kind, attempt, ctx.now(), delay, ctx);
    }

    /// Packetise and hand to the router — the transmission path shared by
    /// original sends and fault-mode retransmissions (which keep the
    /// original `sent_at` and carry a fresh `attempt`, but do not count as
    /// new messages in the statistics).
    #[allow(clippy::too_many_arguments)]
    fn inject_packets(
        &mut self,
        id: MsgId,
        dst: NodeId,
        bytes: u32,
        kind: PacketKind,
        attempt: u32,
        sent_at: Time,
        delay: Duration,
        ctx: &mut Ctx<'_, NetMsg>,
    ) {
        let first = Packet {
            msg: id,
            dst,
            index: 0,
            msg_bytes: bytes,
            kind,
            sent_at,
            attempt,
            corrupted: false,
            // Everything between the send issue and the packet entering its
            // router is pre-network time: the injection delay on the
            // original attempt, plus the whole elapsed recovery span on a
            // retransmission (which keeps the original `sent_at` and is
            // injected with zero delay).
            path: PathDecomp {
                pre_ps: ctx.now().since(sent_at).as_ps() + delay.as_ps(),
                ..PathDecomp::default()
            },
        };
        let count = first.count(self.cfg.router.max_packet_payload);
        if count == 1 {
            ctx.send_after(delay, self.router_comp, NetMsg::Inject(first));
        } else if self.faults.is_some() {
            // Fault mode never coalesces: each packet must keep its own
            // identity (index, checksum bit, loss draw), so the burst is
            // injected packet by packet.
            let train = Train { first, len: count };
            for i in 0..count {
                ctx.send_after(delay, self.router_comp, NetMsg::Inject(train.packet(i)));
            }
        } else {
            // All packets are ready at the same instant — hand the router
            // the whole burst as one event (it expands them with the exact
            // per-packet arithmetic of individual injections).
            let train = Train { first, len: count };
            ctx.send_after(delay, self.router_comp, NetMsg::InjectTrain(train));
        }
    }

    /// Split a data message into packets and inject them after `delay`.
    fn inject_message(
        &mut self,
        dst: NodeId,
        bytes: u32,
        sync: bool,
        delay: Duration,
        ctx: &mut Ctx<'_, NetMsg>,
    ) -> MsgId {
        self.inject_message_kind(dst, bytes, PacketKind::Data { sync }, delay, ctx)
    }

    /// Send an acknowledgement control packet for message `id` back to its
    /// sender. Fault-free: the rendezvous ack of a blocking send, sent on
    /// consumption. Fault mode: the arrival ack of the reliability
    /// protocol, tagged with the `attempt` of the packet that completed the
    /// message so the ack's own loss draws differ per retransmission.
    fn inject_ack(&mut self, id: MsgId, attempt: u32, delay: Duration, ctx: &mut Ctx<'_, NetMsg>) {
        let pkt = Packet {
            msg: id,
            dst: id.src,
            index: 0,
            msg_bytes: 0,
            kind: PacketKind::Ack,
            sent_at: ctx.now(),
            attempt,
            corrupted: false,
            // The injection delay is no latency component of an ack (see
            // `PathDecomp::pre_ps`); it is held so that `ser` derives.
            path: PathDecomp {
                pre_ps: delay.as_ps(),
                ..PathDecomp::default()
            },
        };
        ctx.send_after(delay, self.router_comp, NetMsg::Inject(pkt));
    }

    /// Consume a completed message (statistics + rendezvous ack). In fault
    /// mode the arrival ack has already been sent at reassembly, so no
    /// consumption ack is due.
    fn consume(&mut self, msg: CompletedMsg, ack_delay: Duration, ctx: &mut Ctx<'_, NetMsg>) {
        self.stats.msgs_received += 1;
        let latency_ps = msg.arrived.since(msg.sent_at).as_ps();
        self.stats.msg_latency.record(latency_ps);
        self.probe.emit(|| SimEvent::MsgDeliver {
            ts_ps: msg.arrived.as_ps(),
            src: msg.id.src,
            dst: self.node,
            bytes: msg.bytes,
            latency_ps,
        });
        let net = PacketParams::of(&self.cfg);
        self.probe.emit(|| SimEvent::MsgPath {
            ts_ps: msg.arrived.as_ps(),
            src: msg.id.src,
            dst: self.node,
            bytes: msg.bytes,
            latency_ps,
            // `pre` covers the span before the completing packet entered
            // the network: pure software overhead on a first transmission,
            // the whole loss-and-retry recovery span on a retransmission.
            overhead_ps: if msg.attempt == 0 { msg.path.pre_ps } else { 0 },
            retry_ps: if msg.attempt == 0 { 0 } else { msg.path.pre_ps },
            queue_ps: msg.path.queue_ps,
            routing_ps: msg.path.route_ps(&net),
            ser_ps: msg.path.ser_ps(&net, msg.sent_at, msg.arrived),
            wire_ps: msg.path.wire_ps(&net),
        });
        if msg.sync && self.faults.is_none() {
            self.inject_ack(msg.id, 0, ack_delay, ctx);
        }
    }

    /// Process trace operations until the processor blocks or finishes.
    fn advance(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        self.state = ProcState::Running;
        // Any watchdog armed for an earlier blocking wait is now stale.
        self.wait_epoch = self.wait_epoch.wrapping_add(1);
        while self.cursor < self.trace.len() {
            let op = self.trace.ops[self.cursor];
            self.cursor += 1;
            match op {
                Operation::Compute { ps } => {
                    let d = Duration::from_ps(ps);
                    self.stats.compute += d;
                    self.probe.emit(|| SimEvent::Activation {
                        node: self.node,
                        kind: ActKind::Compute,
                        start_ps: ctx.now().as_ps(),
                        end_ps: (ctx.now() + d).as_ps(),
                    });
                    self.state = ProcState::Computing;
                    ctx.timer(d, NetMsg::Resume);
                    return;
                }
                Operation::Send { bytes, dst } => {
                    let overhead = self.cfg.software.send_overhead;
                    let msg = self.inject_message(dst, bytes, true, overhead, ctx);
                    self.state = ProcState::AwaitAck {
                        since: ctx.now(),
                        msg,
                    };
                    return;
                }
                Operation::ASend { bytes, dst } => {
                    let overhead = self.cfg.software.send_overhead;
                    self.inject_message(dst, bytes, false, overhead, ctx);
                    if overhead.is_zero() {
                        continue;
                    }
                    self.state = ProcState::Computing;
                    ctx.timer(overhead, NetMsg::Resume);
                    return;
                }
                Operation::Recv { src } => {
                    match self.take_arrival(src) {
                        Some(msg) => {
                            // Message already here: pay the receive overhead
                            // and continue.
                            let overhead = self.cfg.software.recv_overhead;
                            self.consume(msg, overhead, ctx);
                            if overhead.is_zero() {
                                continue;
                            }
                            self.state = ProcState::Computing;
                            ctx.timer(overhead, NetMsg::Resume);
                            return;
                        }
                        None => {
                            self.state = ProcState::AwaitRecv {
                                src,
                                since: ctx.now(),
                            };
                            if let Some(faults) = &self.faults {
                                // Watchdog: a partitioned-away sender must
                                // not wedge this node forever.
                                ctx.timer(
                                    faults.retry.recv_timeout,
                                    NetMsg::RecvDeadline {
                                        epoch: self.wait_epoch,
                                    },
                                );
                            }
                            return;
                        }
                    }
                }
                Operation::ARecv { src } => match self.take_arrival(src) {
                    Some(msg) => self.consume(msg, Duration::ZERO, ctx),
                    // Non-blocking: the first arrival from `src` claims it.
                    None => *self.posted.entry(src).or_default() += 1,
                },
                Operation::Put { bytes, to } => {
                    let overhead = self.cfg.software.send_overhead;
                    self.inject_message_kind(to, bytes, PacketKind::OneWay, overhead, ctx);
                    if overhead.is_zero() {
                        continue;
                    }
                    self.state = ProcState::Computing;
                    ctx.timer(overhead, NetMsg::Resume);
                    return;
                }
                Operation::Get { bytes, from } => {
                    if from == self.node {
                        // A local fetch: free at this abstraction level.
                        continue;
                    }
                    let overhead = self.cfg.software.send_overhead;
                    self.stats.gets_issued += 1;
                    let msg = self.inject_message_kind(
                        from,
                        0,
                        PacketKind::GetRequest { bytes },
                        overhead,
                        ctx,
                    );
                    self.state = ProcState::AwaitGet {
                        since: ctx.now(),
                        msg,
                    };
                    return;
                }
                other => panic!(
                    "node {}: instruction-level operation {other} in a task-level trace \
                     (run it through the computational model first)",
                    self.node
                ),
            }
        }
        self.state = ProcState::Done;
        self.stats.finished_at = Some(ctx.now());
    }

    /// Take the oldest queued arrival from `src`, if any.
    fn take_arrival(&mut self, src: NodeId) -> Option<CompletedMsg> {
        let queue = self.arrivals.get_mut(&src)?;
        let msg = queue.pop_front();
        if queue.is_empty() {
            self.arrivals.remove(&src);
        }
        msg
    }

    /// Use up one posted `arecv` on `src`; false when there is none.
    fn claim_posted(&mut self, src: NodeId) -> bool {
        match self.posted.get_mut(&src) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    self.posted.remove(&src);
                }
                true
            }
            _ => false,
        }
    }

    /// End the blocking wait the processor is in at `now`: charge the time
    /// since it began to the `send`, `recv` or `get` block total and close
    /// its `Activation` span. The caller moves the trace on.
    fn end_wait(&mut self, now: Time) {
        let (since, total, kind) = match self.state {
            ProcState::AwaitAck { since, .. } => {
                (since, &mut self.stats.send_block, ActKind::SendBlock)
            }
            ProcState::AwaitRecv { since, .. } => {
                (since, &mut self.stats.recv_block, ActKind::RecvBlock)
            }
            ProcState::AwaitGet { since, .. } => {
                (since, &mut self.stats.get_block, ActKind::GetBlock)
            }
            other => unreachable!("node {}: no wait to end in {other:?}", self.node),
        };
        *total += now.since(since);
        self.probe.emit(|| SimEvent::Activation {
            node: self.node,
            kind,
            start_ps: since.as_ps(),
            end_ps: now.as_ps(),
        });
    }

    /// A data packet arrived; returns the completed message when it was the
    /// last packet.
    fn assemble(&mut self, pkt: &Packet, now: Time) -> Option<CompletedMsg> {
        let sync = match pkt.kind {
            PacketKind::Data { sync } => sync,
            PacketKind::OneWay | PacketKind::GetReply => false,
            PacketKind::Ack | PacketKind::GetRequest { .. } => {
                unreachable!("assemble() on a control packet")
            }
        };
        let asm = self.assembling.entry(pkt.msg).or_insert(Assembly {
            got: 0,
            total: pkt.count(self.cfg.router.max_packet_payload),
        });
        asm.got += 1;
        if asm.got < asm.total {
            return None;
        }
        self.assembling.remove(&pkt.msg);
        Some(CompletedMsg {
            id: pkt.msg,
            arrived: now,
            sent_at: pkt.sent_at,
            bytes: pkt.msg_bytes,
            sync,
            path: pkt.path,
            attempt: pkt.attempt,
        })
    }

    /// An arrival acknowledgement came back for a tracked message (fault
    /// mode). Duplicates (from re-acked retransmissions, or acks racing a
    /// retry) are ignored.
    fn on_transport_ack(&mut self, id: MsgId, ctx: &mut Ctx<'_, NetMsg>) {
        let Some(out) = self.outstanding.remove(&id) else {
            return; // already acknowledged, or already given up on
        };
        self.stats.msgs_acked += 1;
        self.stats.retry_counts.record(out.attempt as u64);
        if matches!(self.state, ProcState::AwaitAck { msg, .. } if msg == id) {
            self.end_wait(ctx.now());
            self.advance(ctx);
        }
    }

    /// A retry-check timer fired: retransmit the message if it is still
    /// unacknowledged, or give up once the retry budget is spent.
    fn on_retry_check(&mut self, id: MsgId, ctx: &mut Ctx<'_, NetMsg>) {
        let retry = match &self.faults {
            Some(faults) => faults.retry,
            None => panic!("node {}: retry check without a fault schedule", self.node),
        };
        let Some(out) = self.outstanding.get(&id).copied() else {
            return; // acknowledged in the meantime — stale timer
        };
        if out.attempt >= retry.max_retries {
            self.give_up(id, out, ctx);
            return;
        }
        let attempt = out.attempt + 1;
        self.outstanding
            .get_mut(&id)
            .expect("checked above")
            .attempt = attempt;
        self.stats.retries += 1;
        self.probe.emit(|| SimEvent::MsgRetry {
            ts_ps: ctx.now().as_ps(),
            src: self.node,
            dst: out.dst,
            attempt,
        });
        // Transport-level retransmission: no software send overhead, the
        // original issue time is kept for latency accounting.
        self.inject_packets(
            id,
            out.dst,
            out.bytes,
            out.kind,
            attempt,
            out.sent_at,
            Duration::ZERO,
            ctx,
        );
        ctx.timer(retry.timeout(attempt), NetMsg::RetryCheck(id));
    }

    /// Exhausted the retry budget: record the unreachable destination,
    /// unblock if this message was holding the trace, and move on.
    fn give_up(&mut self, id: MsgId, out: Outstanding, ctx: &mut Ctx<'_, NetMsg>) {
        self.outstanding.remove(&id);
        self.stats.msgs_failed += 1;
        self.stats.retry_counts.record(out.attempt as u64);
        let now = ctx.now();
        self.stats.unreachable.push(UnreachableReport {
            src: self.node,
            dst: out.dst,
            seq: id.seq,
            retries: out.attempt,
            gave_up: now,
        });
        self.probe.emit(|| SimEvent::MsgGaveUp {
            ts_ps: now.as_ps(),
            src: self.node,
            dst: out.dst,
            retries: out.attempt,
        });
        let held = match self.state {
            ProcState::AwaitAck { msg, .. } | ProcState::AwaitGet { msg, .. } => msg == id,
            _ => false,
        };
        if held {
            self.end_wait(now);
            self.advance(ctx);
        }
    }

    /// The blocking-receive watchdog fired. If the same wait is still in
    /// progress (matching epoch), abandon the receive and continue the
    /// trace — the matching send was lost or its sender is unreachable.
    fn on_recv_deadline(&mut self, epoch: u64, ctx: &mut Ctx<'_, NetMsg>) {
        if epoch != self.wait_epoch {
            return; // stale: that wait completed long ago
        }
        if !matches!(self.state, ProcState::AwaitRecv { .. }) {
            return; // the wait was satisfied but the trace has not advanced
                    // past the receive overhead yet
        }
        self.stats.recv_timeouts += 1;
        self.end_wait(ctx.now());
        self.advance(ctx);
    }

    fn on_deliver(&mut self, pkt: Packet, ctx: &mut Ctx<'_, NetMsg>) {
        match pkt.kind {
            PacketKind::Data { .. } | PacketKind::OneWay
                if self.faults.is_some() && self.completed.contains(&pkt.msg) =>
            {
                // A retransmitted packet of a message already assembled
                // here: the arrival ack may have been lost, so acknowledge
                // again on the tail packet and the sender can complete.
                if pkt.index + 1 == pkt.count(self.cfg.router.max_packet_payload) {
                    self.inject_ack(pkt.msg, pkt.attempt, Duration::ZERO, ctx);
                }
            }
            PacketKind::GetRequest { bytes } => {
                // Service the one-sided read: reply with the data after the
                // software service cost, without touching our own trace
                // progress (DMA-like). A retried request is re-served — the
                // previous reply may have been lost — and the reply inherits
                // the request's attempt for the fault layer's hash.
                self.stats.gets_served += 1;
                let requester = pkt.msg.src;
                self.inject_message_as(
                    pkt.msg,
                    requester,
                    bytes,
                    PacketKind::GetReply,
                    pkt.attempt,
                    self.cfg.software.recv_overhead,
                    ctx,
                );
            }
            PacketKind::GetReply => {
                if self.faults.is_some() && self.completed.contains(&pkt.msg) {
                    return; // duplicate of an already-completed reply
                }
                if self.assemble(&pkt, ctx.now()).is_none() {
                    return;
                }
                if self.faults.is_some() {
                    self.completed.insert(pkt.msg);
                    let Some(out) = self.outstanding.remove(&pkt.msg) else {
                        // We already gave up on this get and moved on —
                        // drop the late reply.
                        return;
                    };
                    self.stats.msgs_acked += 1;
                    self.stats.retry_counts.record(out.attempt as u64);
                }
                assert!(
                    matches!(self.state, ProcState::AwaitGet { .. }),
                    "node {}: get reply {:?} while not waiting (state {:?})",
                    self.node,
                    pkt.msg,
                    self.state
                );
                let now = ctx.now();
                self.stats
                    .get_latency
                    .record(now.since(pkt.sent_at).as_ps());
                self.end_wait(now);
                self.advance(ctx);
            }
            PacketKind::Ack => {
                if self.faults.is_some() {
                    self.on_transport_ack(pkt.msg, ctx);
                    return;
                }
                assert!(
                    matches!(self.state, ProcState::AwaitAck { .. }),
                    "node {}: unexpected ack for message {:?} in state {:?}",
                    self.node,
                    pkt.msg,
                    self.state
                );
                self.end_wait(ctx.now());
                self.advance(ctx);
            }
            PacketKind::Data { .. } | PacketKind::OneWay => {
                let Some(msg) = self.assemble(&pkt, ctx.now()) else {
                    return;
                };
                if self.faults.is_some() {
                    // Arrival acknowledgement of the reliability protocol
                    // (for sync sends this replaces the rendezvous ack).
                    self.completed.insert(msg.id);
                    self.inject_ack(msg.id, pkt.attempt, Duration::ZERO, ctx);
                }
                if pkt.kind == PacketKind::OneWay {
                    self.stats.puts_received += 1;
                    return;
                }
                let src = msg.id.src;
                // Async receives posted earlier claim the message first.
                if self.claim_posted(src) {
                    self.consume(msg, Duration::ZERO, ctx);
                    return;
                }
                if !matches!(self.state, ProcState::AwaitRecv { src: from, .. } if from == src) {
                    // Queue it for a future recv/arecv.
                    self.arrivals.entry(src).or_default().push_back(msg);
                    return;
                }
                self.end_wait(ctx.now());
                let overhead = self.cfg.software.recv_overhead;
                self.consume(msg, overhead, ctx);
                if overhead.is_zero() {
                    self.advance(ctx);
                } else {
                    self.state = ProcState::Computing;
                    ctx.timer(overhead, NetMsg::Resume);
                }
            }
        }
    }
}

impl AbstractProcessor {
    /// Queued arrivals and posted `arecv`s, each summed over sources.
    #[cfg(test)]
    pub(crate) fn rendezvous_depths(&mut self) -> (usize, usize) {
        let arrivals = self.arrivals.values().map(VecDeque::len).sum();
        (arrivals, self.posted.values().sum())
    }

    /// Walk the processor's mutable simulation state for a checkpoint
    /// (crate::snapshot). Trace, config, probe and fault wiring are
    /// rebuilt from the run config on restore, which walks into a freshly
    /// built processor whose `init` has *not* run.
    pub(crate) fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
        w.field("proc cursor", &mut self.cursor)?;
        w.field("proc send_seq", &mut self.send_seq)?;
        w.field("proc wait_epoch", &mut self.wait_epoch)?;
        self.state.walk(w)?;
        w.sorted(
            "proc assembling count",
            &mut self.assembling,
            |w, (id, a)| {
                id.walk(w)?;
                w.field("proc assembly got", &mut a.got)?;
                w.field("proc assembly total", &mut a.total)
            },
        )?;
        // Queued arrivals, then posted `arecv` counts, each sorted by
        // source node; a queue is walked front to back.
        let net = PacketParams::of(&self.cfg);
        w.sorted(
            "proc arrival channel count",
            &mut self.arrivals,
            |w, (src, q)| {
                w.field("proc arrival channel", src)?;
                let mut msgs = Vec::from(std::mem::take(q));
                w.list("proc arrival queue length", &mut msgs, |w, m| {
                    m.walk(w, net)
                })?;
                *q = msgs.into();
                Ok(())
            },
        )?;
        let posts = self.trace.len(); // each `arecv` posts at most one
        w.sorted(
            "proc waiter channel count",
            &mut self.posted,
            |w, (src, n)| {
                w.field("proc waiter channel", src)?;
                w.field("proc waiter queue length", n)?;
                if *n > posts {
                    return Err(format!(
                        "{n} waiters, but the trace has {posts} operation(s)"
                    ));
                }
                Ok(())
            },
        )?;
        w.sorted(
            "proc outstanding count",
            &mut self.outstanding,
            |w, (id, o)| {
                id.walk(w)?;
                w.field("proc outstanding dst", &mut o.dst)?;
                w.field("proc outstanding bytes", &mut o.bytes)?;
                o.kind.walk(w)?;
                w.field("proc outstanding attempt", &mut o.attempt)?;
                w.time("proc outstanding sent_at", &mut o.sent_at)
            },
        )?;
        w.sorted("proc completed count", &mut self.completed, |w, id| {
            id.walk(w)
        })?;
        self.stats.walk(w)
    }
}

impl ProcState {
    /// Walk the state as four integers for every variant: tag, `since`,
    /// then the awaited source and sequence number.
    fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
        use ProcState::*;
        let blanks = [
            Running,
            Computing,
            AwaitAck {
                since: Time::ZERO,
                msg: MsgId { src: 0, seq: 0 },
            },
            AwaitRecv {
                src: 0,
                since: Time::ZERO,
            },
            AwaitGet {
                since: Time::ZERO,
                msg: MsgId { src: 0, seq: 0 },
            },
            Done,
        ];
        w.variant("processor state tag", self, &blanks)?;
        match self {
            Running | Computing | Done => w.pad("proc state field", 3),
            AwaitAck { since, msg } | AwaitGet { since, msg } => {
                w.time("proc state since", since)?;
                msg.walk(w)
            }
            AwaitRecv { src, since } => {
                w.time("proc state since", since)?;
                w.field("proc state source", src)?;
                w.pad("proc state field", 1)
            }
        }
    }
}

impl CompletedMsg {
    fn walk<W: StateWalk>(&mut self, w: &mut W, net: PacketParams) -> Result<(), String> {
        self.id.walk(w)?;
        w.time("proc arrival arrived", &mut self.arrived)?;
        w.time("proc arrival sent_at", &mut self.sent_at)?;
        w.field("proc arrival bytes", &mut self.bytes)?;
        w.field("proc arrival sync", &mut self.sync)?;
        // The path of the packet that completed the message, seen on
        // arrival; a message is never an acknowledgement.
        let seen = Seen {
            net,
            at: self.arrived,
        };
        self.path.walk(w, false, self.sent_at, Some(seen))?;
        w.field("proc arrival attempt", &mut self.attempt)
    }
}

impl ProcStats {
    fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
        w.span("proc compute", &mut self.compute)?;
        w.span("proc send_block", &mut self.send_block)?;
        w.span("proc recv_block", &mut self.recv_block)?;
        w.field("proc msgs_sent", &mut self.msgs_sent)?;
        w.field("proc bytes_sent", &mut self.bytes_sent)?;
        w.field("proc msgs_received", &mut self.msgs_received)?;
        w.span("proc get_block", &mut self.get_block)?;
        w.field("proc gets_issued", &mut self.gets_issued)?;
        w.field("proc gets_served", &mut self.gets_served)?;
        w.field("proc puts_received", &mut self.puts_received)?;
        w.field("proc msgs_tracked", &mut self.msgs_tracked)?;
        w.field("proc msgs_acked", &mut self.msgs_acked)?;
        w.field("proc msgs_failed", &mut self.msgs_failed)?;
        w.field("proc retries", &mut self.retries)?;
        w.field("proc recv_timeouts", &mut self.recv_timeouts)?;
        self.msg_latency.walk(w)?;
        self.get_latency.walk(w)?;
        self.retry_counts.walk(w)?;
        w.list("proc unreachable count", &mut self.unreachable, |w, u| {
            w.field("proc unreachable src", &mut u.src)?;
            w.field("proc unreachable dst", &mut u.dst)?;
            w.field("proc unreachable seq", &mut u.seq)?;
            w.field("proc unreachable retries", &mut u.retries)?;
            w.time("proc unreachable gave_up", &mut u.gave_up)
        })?;
        let mut finished = self.finished_at.is_some();
        let mut at = self.finished_at.unwrap_or(Time::ZERO);
        w.field("proc finished flag", &mut finished)?;
        w.time("proc finished time", &mut at)?;
        self.finished_at = finished.then_some(at);
        Ok(())
    }
}

impl Component<NetMsg> for AbstractProcessor {
    fn init(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        self.advance(ctx);
    }

    fn handle(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
        match ev.payload {
            NetMsg::Resume => self.advance(ctx),
            NetMsg::Deliver(pkt) => self.on_deliver(pkt, ctx),
            NetMsg::DeliverTrain(train) => {
                // The run's tail has just fully arrived; its earlier
                // packets only advance reassembly counters, so consuming
                // the whole run now is observably identical to the
                // per-packet deliveries it replaces.
                for i in 0..train.len {
                    self.on_deliver(train.packet(i), ctx);
                }
            }
            NetMsg::RetryCheck(id) => self.on_retry_check(id, ctx),
            NetMsg::RecvDeadline { epoch } => self.on_recv_deadline(epoch, ctx),
            other => panic!(
                "processor {} received unexpected event {other:?}",
                self.node
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stats_are_empty() {
        let s = ProcStats::default();
        assert_eq!(s.msgs_sent, 0);
        assert_eq!(s.finished_at, None);
        assert_eq!(s.msg_latency.count(), 0);
        assert_eq!(s.msgs_tracked, 0);
        assert_eq!(s.retry_counts.count(), 0);
        assert!(s.unreachable.is_empty());
    }

    #[test]
    fn unreachable_reports_order_by_source_then_destination() {
        let a = UnreachableReport {
            src: 0,
            dst: 3,
            seq: 7,
            retries: 6,
            gave_up: Time::from_ps(10),
        };
        let b = UnreachableReport {
            src: 1,
            dst: 0,
            ..a
        };
        assert!(a < b);
    }

    // Behavioural tests for the processor live in `sim.rs`, where a full
    // network exists to carry its packets.
}
