//! The router component (paper, Fig. 3b): accepts packets from its local
//! abstract processor and the neighbouring routers, and forwards them hop
//! by hop with a configurable routing and switching strategy.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use mermaid_ops::NodeId;
use mermaid_probe::{DropReason, ProbeHandle, SimEvent};
use mermaid_stats::state::StateWalk;
use pearl::{CompId, Component, Ctx, Duration, Event, EventKey, Time};

use crate::config::{LinkParams, RouterParams, Routing, Switching};
use crate::fault::{FaultKind, FaultSchedule};
use crate::packet::{NetMsg, Packet, Train};
use crate::snapshot::WalkPs;
use crate::topology::Topology;

/// A router→router message captured for cross-shard transport instead of
/// being scheduled in the local event queue (sharded runs only).
///
/// Carries the exact delivery time and the [`EventKey`] the serial run
/// would have used, so the destination shard can inject it with identical
/// ordering semantics.
#[derive(Debug, Clone)]
pub struct OutMsg {
    /// Absolute delivery time at the destination router.
    pub time: Time,
    /// The deterministic queue key of the equivalent serial send.
    pub key: EventKey,
    /// Sending component (the local router).
    pub src: CompId,
    /// Destination component (a remote router).
    pub dst: CompId,
    /// The message itself.
    pub msg: NetMsg,
}

/// Cross-shard egress wiring attached to a router in a sharded run.
#[derive(Clone)]
pub struct CrossShard {
    /// `local[node]` is true when that node's router lives in this shard.
    pub local: Arc<[bool]>,
    /// Captured outgoing messages, flushed each window by the shard loop.
    pub outbox: Rc<RefCell<Vec<OutMsg>>>,
    /// The run's per-hop lookahead: every captured message must arrive at
    /// least this long after the event that sent it. Debug builds only, as
    /// the assertion reading it: the field would grow every router.
    #[cfg(debug_assertions)]
    pub lookahead: Duration,
}

/// Statistics of one router.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Packets forwarded towards another node.
    pub forwarded: u64,
    /// Packets delivered to the local processor.
    pub delivered: u64,
    /// Total time packets waited for a busy output link.
    pub link_wait: Duration,
    /// Total serialisation time on this router's output links.
    pub link_busy: Duration,
    /// Per-neighbour busy time (for link-utilisation reports).
    // BTreeMap so stats (and their Debug rendering) are deterministic.
    pub per_link_busy: BTreeMap<NodeId, Duration>,
    /// Packets discarded because no minimal output link was up.
    pub dropped_link_down: u64,
    /// Packets discarded because this router was down when they arrived.
    pub dropped_router_down: u64,
    /// Packets discarded at this router's checksum point (corrupted on the
    /// incoming link).
    pub dropped_corrupt: u64,
    /// Packets lost to transient faults on this router's output links
    /// (they consumed link bandwidth, then vanished).
    pub dropped_transient: u64,
    /// Packets this router's output links corrupted in flight.
    pub corrupted: u64,
    /// Packets steered around a failed preferred output link.
    pub rerouted: u64,
}

impl RouterStats {
    /// Total packets this router discarded, for any fault reason.
    pub fn dropped(&self) -> u64 {
        self.dropped_link_down
            + self.dropped_router_down
            + self.dropped_corrupt
            + self.dropped_transient
    }
}

/// One node's router.
pub struct Router {
    node: NodeId,
    topo: Topology,
    link: LinkParams,
    params: RouterParams,
    /// Component id of the local abstract processor.
    proc_comp: CompId,
    /// Per-output-link state as parallel flat arrays keyed by the small
    /// neighbour list `out_nbrs` (discovered lazily on first reservation).
    /// A router has at most a handful of ports, so a linear scan beats
    /// hashing. `out_busy[i]` is the busy-until clock of the link towards
    /// `out_nbrs[i]`; `out_busy_total[i]` accumulates its serialisation
    /// time (folded into `RouterStats::per_link_busy` by
    /// [`Router::snapshot_stats`]).
    out_nbrs: Vec<NodeId>,
    out_busy: Vec<Time>,
    out_busy_total: Vec<Duration>,
    /// Reusable scratch for train processing (cleared per event; the
    /// capacity persists so steady-state train handling allocates nothing).
    scratch: TrainScratch,
    /// Instrumentation (disabled by default; observation only, never read
    /// back into routing or timing decisions).
    probe: ProbeHandle,
    /// Cross-shard egress (sharded runs only; `None` single-threaded).
    cross: Option<CrossShard>,
    /// The fault schedule (`None` = fault layer disabled: every check
    /// below short-circuits on this option, so a healthy run takes the
    /// exact pre-fault code path).
    faults: Option<Arc<FaultSchedule>>,
    /// Outgoing links currently down (fault mode only).
    down_links: HashSet<NodeId>,
    /// Whether this router itself is currently down (fault mode only).
    down: bool,
    /// Statistics.
    pub stats: RouterStats,
}

/// Reusable per-event buffers for [`Router::handle_train`].
#[derive(Default)]
struct TrainScratch {
    pkts: Vec<Packet>,
    arrivals: Vec<Time>,
    nexts: Vec<NodeId>,
    outs: Vec<Time>,
}

impl Router {
    /// Build the router of `node`.
    ///
    /// Component addressing follows the arena layout contract (DESIGN.md
    /// §15): the router of node `i` is component `i`, so router→router
    /// sends need no id table.
    pub fn new(
        node: NodeId,
        topo: Topology,
        link: LinkParams,
        params: RouterParams,
        proc_comp: CompId,
    ) -> Self {
        Router {
            node,
            topo,
            link,
            params,
            proc_comp,
            out_nbrs: Vec::new(),
            out_busy: Vec::new(),
            out_busy_total: Vec::new(),
            scratch: TrainScratch::default(),
            probe: ProbeHandle::disabled(),
            cross: None,
            faults: None,
            down_links: HashSet::new(),
            down: false,
            stats: RouterStats::default(),
        }
    }

    /// Busy-until clock of the output link towards `next` (`Time::ZERO`
    /// when the link has never been reserved).
    #[inline]
    fn link_busy_until(&self, next: NodeId) -> Time {
        match self.out_nbrs.iter().position(|&n| n == next) {
            Some(i) => self.out_busy[i],
            None => Time::ZERO,
        }
    }

    /// Index of the link towards `next` in the flat link arrays, creating
    /// it on first use.
    #[inline]
    fn link_slot(&mut self, next: NodeId) -> usize {
        match self.out_nbrs.iter().position(|&n| n == next) {
            Some(i) => i,
            None => {
                self.out_nbrs.push(next);
                self.out_busy.push(Time::ZERO);
                self.out_busy_total.push(Duration::ZERO);
                self.out_nbrs.len() - 1
            }
        }
    }

    /// The router's statistics with the per-link busy table materialised
    /// from the flat link arrays (the `BTreeMap` keeps reports and their
    /// `Debug` rendering deterministic regardless of discovery order).
    pub fn snapshot_stats(&self) -> RouterStats {
        let mut s = self.stats.clone();
        for (i, &n) in self.out_nbrs.iter().enumerate() {
            *s.per_link_busy.entry(n).or_insert(Duration::ZERO) += self.out_busy_total[i];
        }
        s
    }

    /// Attach an instrumentation handle (builder style).
    pub fn with_probe(mut self, probe: ProbeHandle) -> Self {
        self.probe = probe;
        self
    }

    /// Attach cross-shard egress wiring (builder style). `None` — the
    /// serial simulation — keeps every hand-off in the local engine.
    pub fn with_cross_shard(mut self, cross: Option<CrossShard>) -> Self {
        self.cross = cross;
        self
    }

    /// Attach a fault schedule (builder style). `None` keeps the fault
    /// layer switched off entirely.
    pub fn with_faults(mut self, faults: Option<Arc<FaultSchedule>>) -> Self {
        self.faults = faults;
        self
    }

    /// Schedule `msg` to arrive at node `next`'s router at absolute time
    /// `at`. In a sharded run with `next` on another shard the message is
    /// captured into the outbox (with the key the serial schedule would
    /// have consumed) instead of entering the local queue.
    fn send_router(&self, ctx: &mut Ctx<'_, NetMsg>, next: NodeId, at: Time, msg: NetMsg) {
        // Arena layout contract: node `i`'s router is component `i`.
        let dst = next as CompId;
        if let Some(cs) = &self.cross {
            if !cs.local[next as usize] {
                #[cfg(debug_assertions)]
                assert!(
                    at >= ctx.now() + cs.lookahead,
                    "router {}: cross-shard message to router {next} arrives at {} ps, \
                     before now {} ps + lookahead {} ps",
                    self.node,
                    at.as_ps(),
                    ctx.now().as_ps(),
                    cs.lookahead.as_ps(),
                );
                let key = ctx.alloc_key();
                cs.outbox.borrow_mut().push(OutMsg {
                    time: at,
                    key,
                    src: ctx.self_id(),
                    dst,
                    msg,
                });
                return;
            }
        }
        ctx.send_at(at, dst, msg);
    }

    /// Wire size of a packet: payload plus header.
    fn packet_bytes(&self, pkt: &Packet) -> u32 {
        pkt.payload + self.params.header_bytes
    }

    /// Serialisation time of the whole packet on a link.
    fn packet_time(&self, pkt: &Packet) -> Duration {
        self.link.transfer_time(self.packet_bytes(pkt))
    }

    /// Serialisation time of just the header.
    fn header_time(&self) -> Duration {
        self.link.transfer_time(self.params.header_bytes)
    }

    /// Time from a packet's tail being ejected relative to its head being
    /// at this router: non-zero only when the body is still streaming in.
    fn tail_residue(&self, pkt: &Packet, streamed: bool) -> Duration {
        if streamed {
            self.packet_time(pkt).saturating_sub(self.header_time())
        } else {
            Duration::ZERO
        }
    }

    /// Pick the output port (next-hop node) for a packet.
    fn pick_next(&self, pkt: &Packet) -> NodeId {
        match self.params.routing {
            Routing::DimensionOrder => self.topo.route_next(self.node, pkt.dst),
            Routing::AdaptiveMinimal => {
                // Earliest-free minimal output; ties towards the lowest id.
                self.topo
                    .minimal_next_hops(self.node, pkt.dst)
                    .into_iter()
                    .min_by_key(|&n| (self.link_busy_until(n), n))
                    .expect("minimal candidate set is never empty")
            }
        }
    }

    /// Reserve the link towards `next` for a packet whose head is at this
    /// router at `at`: serialise after the link frees, account statistics,
    /// and return the head's arrival time at the next router.
    ///
    /// Also charges this hop to the packet's latency decomposition: the
    /// wait for the busy link to `queue`, the routing decision to `route`,
    /// the head's serialisation advance to `ser` and the propagation to
    /// `wire` — together exactly the head's progress `arrive - at`.
    fn reserve(&mut self, next: NodeId, pkt: &mut Packet, at: Time) -> Time {
        let t_pkt = self.packet_time(pkt);
        let slot = self.link_slot(next);
        let start = at.max(self.out_busy[slot]) + self.params.routing_delay;
        let end = start + t_pkt;
        self.out_busy[slot] = end;
        self.out_busy_total[slot] += t_pkt;
        self.stats.forwarded += 1;
        let wait = start.since(at).saturating_sub(self.params.routing_delay);
        self.stats.link_wait += wait;
        self.stats.link_busy += t_pkt;
        pkt.path.queue_ps += wait.as_ps();
        pkt.path.route_ps += self.params.routing_delay.as_ps();
        pkt.path.wire_ps += self.link.wire_latency.as_ps();
        self.probe.emit(|| SimEvent::LinkBusy {
            node: self.node,
            to: next,
            start_ps: start.as_ps(),
            end_ps: end.as_ps(),
        });
        self.probe.emit(|| SimEvent::PacketForward {
            ts_ps: at.as_ps(),
            node: self.node,
            to: next,
            packets: 1,
        });
        // Head arrival at the next router.
        let head_adv = match self.params.switching {
            Switching::StoreAndForward => t_pkt,
            Switching::VirtualCutThrough | Switching::Wormhole => self.header_time(),
        };
        pkt.path.ser_ps += head_adv.as_ps();
        start + self.link.wire_latency + head_adv
    }

    /// Account and announce a discarded packet (fault mode only).
    fn drop_packet(&mut self, pkt: &Packet, at: Time, reason: DropReason) {
        match reason {
            DropReason::LinkDown => self.stats.dropped_link_down += 1,
            DropReason::RouterDown => self.stats.dropped_router_down += 1,
            DropReason::Corrupt => self.stats.dropped_corrupt += 1,
            DropReason::Transient => self.stats.dropped_transient += 1,
        }
        self.probe.emit(|| SimEvent::PacketDropped {
            ts_ps: at.as_ps(),
            node: self.node,
            src: pkt.msg.src,
            seq: pkt.msg.seq,
            reason,
        });
    }

    /// Apply a scripted fault. Transfers already reserved on a link run to
    /// completion — a fault changes the fate of packets that *arrive*
    /// after it, matching a status register the router consults per hop.
    fn apply_fault(&mut self, kind: FaultKind, now: Time) {
        match kind {
            FaultKind::LinkDown { to, .. } => {
                self.down_links.insert(to);
                self.probe.emit(|| SimEvent::LinkFault {
                    ts_ps: now.as_ps(),
                    node: self.node,
                    to,
                    up: false,
                });
            }
            FaultKind::LinkUp { to, .. } => {
                self.down_links.remove(&to);
                self.probe.emit(|| SimEvent::LinkFault {
                    ts_ps: now.as_ps(),
                    node: self.node,
                    to,
                    up: true,
                });
            }
            FaultKind::RouterDown { .. } => {
                self.down = true;
                self.probe.emit(|| SimEvent::RouterFault {
                    ts_ps: now.as_ps(),
                    node: self.node,
                    up: false,
                });
            }
            FaultKind::RouterUp { .. } => {
                self.down = false;
                self.probe.emit(|| SimEvent::RouterFault {
                    ts_ps: now.as_ps(),
                    node: self.node,
                    up: true,
                });
            }
        }
    }

    /// Pick an *up* output port for a packet: the healthy-path choice when
    /// its link is up, otherwise the earliest-free minimal alternative
    /// that is (adaptive rerouting, even under dimension-order routing).
    /// `None` when every minimal output is down. The second component is
    /// true when the packet was steered off its preferred port.
    fn pick_next_up(&self, pkt: &Packet) -> Option<(NodeId, bool)> {
        let preferred = self.pick_next(pkt);
        if self.down_links.is_empty() || !self.down_links.contains(&preferred) {
            return Some((preferred, false));
        }
        self.topo
            .minimal_next_hops(self.node, pkt.dst)
            .into_iter()
            .filter(|n| !self.down_links.contains(n))
            .min_by_key(|&n| (self.link_busy_until(n), n))
            .map(|n| (n, true))
    }

    /// Handle a packet whose head is at this router at `now`. `streamed`
    /// is true when the packet body may still be arriving (cut-through
    /// forwarding), false when the packet is fully local (injection or
    /// store-and-forward arrival).
    fn handle_packet(&mut self, pkt: Packet, streamed: bool, ctx: &mut Ctx<'_, NetMsg>) {
        let mut pkt = pkt;
        let now = ctx.now();
        if self.faults.is_some() {
            if self.down {
                self.drop_packet(&pkt, now, DropReason::RouterDown);
                return;
            }
            if pkt.corrupted {
                // Checksum point: corruption on the incoming link is
                // detected here and the packet discarded.
                self.drop_packet(&pkt, now, DropReason::Corrupt);
                return;
            }
        }
        if pkt.dst == self.node {
            // Eject to the local processor once the tail has arrived.
            let residue = self.tail_residue(&pkt, streamed);
            pkt.path.ser_ps += residue.as_ps();
            self.stats.delivered += 1;
            self.probe.emit(|| SimEvent::PacketDeliver {
                ts_ps: (now + residue).as_ps(),
                node: self.node,
                packets: 1,
            });
            ctx.send_after(residue, self.proc_comp, NetMsg::Deliver(pkt));
            return;
        }
        // Forward: pick the next hop, wait for the output link, serialise.
        let Some((next, rerouted)) = self.pick_next_up(&pkt) else {
            self.drop_packet(&pkt, now, DropReason::LinkDown);
            return;
        };
        if rerouted {
            self.stats.rerouted += 1;
            self.probe.emit(|| SimEvent::Reroute {
                ts_ps: now.as_ps(),
                node: self.node,
                to: next,
            });
        }
        let arrive = self.reserve(next, &mut pkt, now);
        let mut fwd = pkt;
        // Stateless per-traversal draws: verdicts depend only on the
        // packet's identity and the link, never on event order — so both
        // are computed up front and the borrow of `faults` released before
        // any stats mutation (no per-packet `Arc` clone).
        let (dropped, corrupted) = match &self.faults {
            Some(faults) => {
                if faults.drops_packet(self.node, next, &pkt) {
                    (true, false)
                } else {
                    (false, faults.corrupts_packet(self.node, next, &pkt))
                }
            }
            None => (false, false),
        };
        if dropped {
            // The packet consumed the wire (the link was reserved above),
            // then vanished.
            self.drop_packet(&pkt, now, DropReason::Transient);
            return;
        }
        if corrupted {
            fwd.corrupted = true;
            self.stats.corrupted += 1;
            self.probe.emit(|| SimEvent::PacketCorrupted {
                ts_ps: now.as_ps(),
                node: self.node,
                to: next,
                src: pkt.msg.src,
                seq: pkt.msg.seq,
            });
        }
        self.send_router(ctx, next, arrive, NetMsg::Forward(fwd));
    }

    /// Head-arrival gap on the incoming link between two consecutive
    /// back-to-back packets of a train: under store-and-forward the next
    /// head is "here" once its whole packet has landed; under cut-through
    /// heads pipeline one serialisation (of the *previous* packet) apart.
    /// Both include the upstream router's per-packet routing restart.
    fn train_gap(&self, prev: &Packet, cur: &Packet) -> Duration {
        let spaced = match self.params.switching {
            Switching::StoreAndForward => self.packet_time(cur),
            Switching::VirtualCutThrough | Switching::Wormhole => self.packet_time(prev),
        };
        spaced + self.params.routing_delay
    }

    /// Handle a packet train. `injected` means every packet of the run is
    /// fully local *now* (fresh from the processor); otherwise the head is
    /// here at `now` and the followers trail at size-derived gaps.
    ///
    /// Processing a run in one event is arithmetically identical to the
    /// per-packet events it replaces: each packet is reserved on the
    /// output link at its own (nominal) head-arrival time with the same
    /// `max(arrival, busy) + routing` recurrence. The run is kept
    /// coalesced onward only while the back-to-back invariant provably
    /// holds (output link idle, gaps canonical); otherwise it is
    /// re-expanded into per-packet `Forward` events at the packets' exact
    /// nominal arrival times, restoring the uncoalesced behaviour —
    /// including per-arrival adaptive route choice — event for event.
    fn handle_train(&mut self, train: Train, injected: bool, ctx: &mut Ctx<'_, NetMsg>) {
        let now = ctx.now();
        if self.faults.is_some() && train.len >= 2 {
            // Fault mode never coalesces: a train carries one checksum bit
            // and one identity for the whole run, but fault draws are
            // per-packet per-link. Fault-mode processors inject packets
            // individually, and fault-mode routers (this branch) never
            // emit a train, so a multi-packet run can only be a fresh
            // injection — expand it in place.
            debug_assert!(injected, "fault-mode routers never emit trains");
            let payload_max = self.params.max_packet_payload;
            let me = self.node as CompId;
            self.handle_packet(train.packet(0, payload_max), false, ctx);
            for i in 1..train.len {
                ctx.send_now(me, NetMsg::Inject(train.packet(i, payload_max)));
            }
            return;
        }
        let streamed = !injected && !matches!(self.params.switching, Switching::StoreAndForward);
        if train.len < 2 {
            // Degenerate run: behave exactly like the scalar event.
            self.handle_packet(train.first, streamed, ctx);
            return;
        }
        let payload_max = self.params.max_packet_payload;
        let len = train.len as usize;
        // Per-packet nominal head-arrival times at this router. Followers
        // are reconstructed from the run head and inherit its latency
        // decomposition, so each is advanced by its arrival offset from
        // the head: the size-derived spacing is pipelined serialisation
        // (`ser`), the per-packet restart is `route` — together exactly
        // `arrivals[i] - now`, keeping the decomposition conservative.
        //
        // The buffers are taken from (and returned to) the router's
        // scratch, so steady-state train handling allocates nothing.
        let mut pkts = std::mem::take(&mut self.scratch.pkts);
        let mut arrivals = std::mem::take(&mut self.scratch.arrivals);
        pkts.clear();
        arrivals.clear();
        let mut at = now;
        let (mut ser_off, mut route_off) = (0u64, 0u64);
        for i in 0..train.len {
            let mut p = train.packet(i, payload_max);
            if i > 0 && !injected {
                let gap = self.train_gap(&pkts[i as usize - 1], &p);
                at += gap;
                ser_off += gap.saturating_sub(self.params.routing_delay).as_ps();
                route_off += self.params.routing_delay.as_ps();
            }
            p.path.ser_ps += ser_off;
            p.path.route_ps += route_off;
            pkts.push(p);
            arrivals.push(at);
        }
        if train.first.dst == self.node {
            // Eject the whole run: the message-level observables (assembly
            // completion, ack issue, latency stats) depend only on the
            // *last* packet's full arrival, so one event at that instant
            // carries the run to the processor.
            let last = len - 1;
            let residue = self.tail_residue(&pkts[last], streamed);
            let done = arrivals[last] + residue;
            self.stats.delivered += train.len as u64;
            self.probe.emit(|| SimEvent::PacketDeliver {
                ts_ps: done.as_ps(),
                node: self.node,
                packets: train.len,
            });
            // Only the run's *completing* (last) packet's decomposition is
            // ever read downstream (it closes the message's assembly), so
            // the delivered train carries that packet's path — advanced by
            // the tail residue — on its head.
            let mut delivered = train;
            delivered.first.path = pkts[last].path;
            delivered.first.path.ser_ps += residue.as_ps();
            ctx.send_after(
                done.since(now),
                self.proc_comp,
                NetMsg::DeliverTrain(delivered),
            );
            self.scratch.pkts = pkts;
            self.scratch.arrivals = arrivals;
            return;
        }
        // Keep the run coalesced only when the output link is provably
        // free for the whole burst: dimension-order (one output for the
        // whole run) and idle at the head's arrival. Injected runs always
        // qualify — their packets all contend at the same instant, so the
        // busy chain is identical to per-packet events even on a busy
        // link, and adaptive choices see the same link states.
        let coalesce = injected || {
            matches!(self.params.routing, Routing::DimensionOrder) && {
                let next = self.topo.route_next(self.node, train.first.dst);
                self.link_busy_until(next) <= now
            }
        };
        if !coalesce {
            // Re-expand: the head is processed here and now; each follower
            // is re-posted to ourselves at its nominal arrival, exactly as
            // if it had never been coalesced.
            let me = self.node as CompId;
            self.handle_packet(pkts[0], streamed, ctx);
            for i in 1..len {
                ctx.send_after(arrivals[i].since(now), me, NetMsg::Forward(pkts[i]));
            }
            self.scratch.pkts = pkts;
            self.scratch.arrivals = arrivals;
            return;
        }
        // Burst-reserve every packet at its nominal arrival, then re-emit
        // maximal still-back-to-back runs (everything, in the common case).
        let mut nexts = std::mem::take(&mut self.scratch.nexts);
        let mut outs = std::mem::take(&mut self.scratch.outs);
        nexts.clear();
        outs.clear();
        for i in 0..len {
            let next = self.pick_next(&pkts[i]);
            let arrive = self.reserve(next, &mut pkts[i], arrivals[i]);
            nexts.push(next);
            outs.push(arrive);
        }
        let mut i = 0;
        while i < len {
            let mut j = i + 1;
            while j < len
                && nexts[j] == nexts[i]
                && outs[j] == outs[j - 1] + self.train_gap(&pkts[j - 1], &pkts[j])
            {
                j += 1;
            }
            if j - i >= 2 {
                // A run never outgrows the train it came from, whose length
                // already fits u32 — but make the narrowing explicit rather
                // than silently truncating.
                debug_assert!(j - i <= len, "run cannot outgrow its train");
                let run_len: u32 = (j - i)
                    .try_into()
                    .expect("train run length exceeds u32::MAX");
                let run = Train {
                    first: pkts[i],
                    len: run_len,
                };
                self.send_router(ctx, nexts[i], outs[i], NetMsg::ForwardTrain(run));
            } else {
                self.send_router(ctx, nexts[i], outs[i], NetMsg::Forward(pkts[i]));
            }
            i = j;
        }
        self.scratch.pkts = pkts;
        self.scratch.arrivals = arrivals;
        self.scratch.nexts = nexts;
        self.scratch.outs = outs;
    }
}

impl Router {
    /// Walk the router's mutable simulation state for a checkpoint
    /// (crate::snapshot). The configuration half (topology, link/router
    /// params, probe, faults wiring) is rebuilt from the run config on
    /// restore and deliberately not captured.
    pub(crate) fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
        // Output links in discovery order; a restore rediscovers them
        // through `link_slot`, as the run did.
        let mut links = self.out_nbrs.len();
        w.field("router link count", &mut links)?;
        for i in 0..links {
            let mut nbr = self.out_nbrs.get(i).copied().unwrap_or_default();
            w.field("router link neighbour", &mut nbr)?;
            let slot = self.link_slot(nbr);
            w.time("router link busy", &mut self.out_busy[slot])?;
            w.span("router link busy total", &mut self.out_busy_total[slot])?;
        }
        w.field("router down flag", &mut self.down)?;
        w.sorted("router down-link count", &mut self.down_links, |w, n| {
            w.field("router down link", n)
        })?;
        let s = &mut self.stats;
        w.field("router forwarded", &mut s.forwarded)?;
        w.field("router delivered", &mut s.delivered)?;
        w.span("router link_wait", &mut s.link_wait)?;
        w.span("router link_busy", &mut s.link_busy)?;
        w.sorted(
            "router per-link busy count",
            &mut s.per_link_busy,
            |w, (n, d)| {
                w.field("router per-link busy node", n)?;
                w.span("router per-link busy time", d)
            },
        )?;
        w.field("router dropped_link_down", &mut s.dropped_link_down)?;
        w.field("router dropped_router_down", &mut s.dropped_router_down)?;
        w.field("router dropped_corrupt", &mut s.dropped_corrupt)?;
        w.field("router dropped_transient", &mut s.dropped_transient)?;
        w.field("router corrupted", &mut s.corrupted)?;
        w.field("router rerouted", &mut s.rerouted)
    }
}

impl Component<NetMsg> for Router {
    fn handle(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
        match ev.payload {
            NetMsg::Inject(pkt) => self.handle_packet(pkt, false, ctx),
            NetMsg::Forward(pkt) => {
                let streamed = !matches!(self.params.switching, Switching::StoreAndForward);
                self.handle_packet(pkt, streamed, ctx);
            }
            NetMsg::InjectTrain(train) => self.handle_train(train, true, ctx),
            NetMsg::ForwardTrain(train) => self.handle_train(train, false, ctx),
            NetMsg::Fault(kind) => self.apply_fault(kind, ctx.now()),
            other => panic!("router {} received unexpected event {other:?}", self.node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::packet::{MsgId, PacketKind, PathDecomp};
    use pearl::Engine;

    /// A sink that records delivered packets with their times.
    struct Sink {
        deliveries: Vec<(Time, Packet)>,
    }
    impl Component<NetMsg> for Sink {
        fn handle(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
            match ev.payload {
                NetMsg::Deliver(pkt) => self.deliveries.push((ctx.now(), pkt)),
                NetMsg::DeliverTrain(train) => {
                    // Expand with the test config's packet payload (1024).
                    for i in 0..train.len {
                        self.deliveries.push((ctx.now(), train.packet(i, 1024)));
                    }
                }
                _ => {}
            }
        }
    }

    fn pkt(src: NodeId, dst: NodeId, payload: u32) -> Packet {
        Packet {
            msg: MsgId { src, seq: 0 },
            dst,
            index: 0,
            count: 1,
            payload,
            msg_bytes: payload,
            kind: PacketKind::Data { sync: false },
            sent_at: Time::ZERO,
            attempt: 0,
            corrupted: false,
            path: PathDecomp::default(),
        }
    }

    /// Build a linear 1×n mesh of routers with sinks, returning the engine
    /// and the sink component ids.
    fn line(n: u32, switching: Switching) -> (Engine<NetMsg>, Vec<CompId>) {
        let mut cfg = NetworkConfig::test(Topology::Mesh2D { w: n, h: 1 });
        cfg.router.switching = switching;
        let mut e: Engine<NetMsg> = Engine::new();
        let sink_ids: Vec<CompId> = (n as usize..2 * n as usize).collect();
        for node in 0..n {
            e.add_component(
                format!("router{node}"),
                Router::new(
                    node,
                    cfg.topology,
                    cfg.link,
                    cfg.router,
                    sink_ids[node as usize],
                ),
            );
        }
        for node in 0..n {
            e.add_component(format!("sink{node}"), Sink { deliveries: vec![] });
        }
        (e, sink_ids)
    }

    #[test]
    fn single_hop_delivery_timing_saf() {
        let (mut e, sinks) = line(2, Switching::StoreAndForward);
        // 1016-byte payload + 8 header = 1024 bytes @1 GB/s = 1024 ns.
        e.post(Time::ZERO, 0, 0, NetMsg::Inject(pkt(0, 1, 1016)));
        e.run();
        let sink = e.component::<Sink>(sinks[1]).unwrap();
        assert_eq!(sink.deliveries.len(), 1);
        // routing 10 ns + serialise 1024 ns + wire 1 ns; SAF: delivered when
        // fully at router 1.
        assert_eq!(sink.deliveries[0].0, Time::from_ns(10 + 1024 + 1));
    }

    #[test]
    fn cut_through_pipelines_hops() {
        // 3 routers in a line, 2 hops.
        let payload = 1016u32; // 1024 on the wire = 1024 ns
        let (mut e_saf, sinks_saf) = line(3, Switching::StoreAndForward);
        e_saf.post(Time::ZERO, 0, 0, NetMsg::Inject(pkt(0, 2, payload)));
        e_saf.run();
        let t_saf = e_saf.component::<Sink>(sinks_saf[2]).unwrap().deliveries[0].0;

        let (mut e_vct, sinks_vct) = line(3, Switching::VirtualCutThrough);
        e_vct.post(Time::ZERO, 0, 0, NetMsg::Inject(pkt(0, 2, payload)));
        e_vct.run();
        let t_vct = e_vct.component::<Sink>(sinks_vct[2]).unwrap().deliveries[0].0;

        // SAF pays full serialisation per hop; VCT pays it once.
        assert!(t_vct < t_saf, "VCT {t_vct} should beat SAF {t_saf}");
        // SAF: 2 × (10 + 1024 + 1) = 2070 ns.
        assert_eq!(t_saf, Time::from_ns(2 * (10 + 1024 + 1)));
        // VCT: hop1 head: 10+1+8=19; hop2 starts at head+routing … tail
        // residue 1016 ns after head at dst.
        assert_eq!(t_vct, Time::from_ns(10 + 1 + 8 + 10 + 1 + 8 + 1016));
    }

    #[test]
    fn contending_packets_serialise_on_the_link() {
        let (mut e, sinks) = line(2, Switching::StoreAndForward);
        e.post(Time::ZERO, 0, 0, NetMsg::Inject(pkt(0, 1, 1016)));
        e.post(Time::ZERO, 0, 0, NetMsg::Inject(pkt(0, 1, 1016)));
        e.run();
        let sink = e.component::<Sink>(sinks[1]).unwrap();
        assert_eq!(sink.deliveries.len(), 2);
        let dt = sink.deliveries[1].0.since(sink.deliveries[0].0);
        // Second packet waits a full serialisation (plus routing restart).
        assert!(dt >= Duration::from_ns(1024), "spacing {dt}");
    }

    #[test]
    fn delivery_to_self_is_immediate() {
        let (mut e, sinks) = line(2, Switching::StoreAndForward);
        e.post(Time::ZERO, 0, 0, NetMsg::Inject(pkt(0, 0, 100)));
        e.run();
        let sink = e.component::<Sink>(sinks[0]).unwrap();
        assert_eq!(sink.deliveries[0].0, Time::ZERO);
    }

    /// A multi-packet message injected as a train must reach its sink at
    /// exactly the time the same packets produce when injected one by one
    /// (same instant, program order) — coalescing is a pure event-count
    /// optimisation on an uncontended path.
    #[test]
    fn train_timing_matches_per_packet_injection() {
        for switching in [
            Switching::StoreAndForward,
            Switching::VirtualCutThrough,
            Switching::Wormhole,
        ] {
            // 3 packets: two at the test config's full payload (1024 B),
            // one short tail.
            let msg_bytes = 2 * 1024 + 500;
            let mk = |index: u32, payload: u32| Packet {
                msg: MsgId { src: 0, seq: 7 },
                dst: 3,
                index,
                count: 3,
                payload,
                msg_bytes,
                kind: PacketKind::Data { sync: false },
                sent_at: Time::ZERO,
                attempt: 0,
                corrupted: false,
                path: PathDecomp::default(),
            };

            let (mut e_pkt, sinks_pkt) = line(4, switching);
            for (i, payload) in [(0, 1024), (1, 1024), (2, 500)] {
                e_pkt.post(Time::ZERO, 0, 0, NetMsg::Inject(mk(i, payload)));
            }
            e_pkt.run();
            let per_packet: Vec<Time> = e_pkt
                .component::<Sink>(sinks_pkt[3])
                .unwrap()
                .deliveries
                .iter()
                .map(|&(t, _)| t)
                .collect();
            assert_eq!(per_packet.len(), 3);

            let (mut e_tr, sinks_tr) = line(4, switching);
            e_tr.post(
                Time::ZERO,
                0,
                0,
                NetMsg::InjectTrain(Train {
                    first: mk(0, 1024),
                    len: 3,
                }),
            );
            e_tr.run();
            let sink = e_tr.component::<Sink>(sinks_tr[3]).unwrap();
            // The run is delivered as one event at the *last* packet's
            // full-arrival instant.
            assert_eq!(sink.deliveries.len(), 3, "{switching:?}");
            assert_eq!(
                sink.deliveries.last().unwrap().0,
                *per_packet.last().unwrap(),
                "{switching:?}: train tail time diverged from per-packet"
            );
            // Stats stay per-packet.
            let r1 = e_tr.component::<Router>(1).unwrap();
            assert_eq!(r1.stats.forwarded, 3, "{switching:?}");
        }
    }

    #[test]
    fn stats_account_forwarding() {
        let (mut e, _) = line(3, Switching::StoreAndForward);
        e.post(Time::ZERO, 0, 0, NetMsg::Inject(pkt(0, 2, 100)));
        e.run();
        let r0 = e.component::<Router>(0).unwrap();
        let r1 = e.component::<Router>(1).unwrap();
        let r2 = e.component::<Router>(2).unwrap();
        assert_eq!(r0.stats.forwarded, 1);
        assert_eq!(r1.stats.forwarded, 1);
        assert_eq!(r2.stats.delivered, 1);
        assert!(r0.stats.link_busy > Duration::ZERO);
        assert_eq!(r0.snapshot_stats().per_link_busy.len(), 1);
    }
}
