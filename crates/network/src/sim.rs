//! The multi-node communication simulation: wiring, execution, results.

use std::sync::Arc;

use mermaid_ops::{NodeId, TraceSet};
use mermaid_probe::ProbeHandle;
use mermaid_stats::Histogram;
use pearl::{CompId, Duration, Engine, Time};

use crate::config::NetworkConfig;
use crate::fault::FaultSchedule;
use crate::packet::NetMsg;
use crate::processor::{AbstractProcessor, ProcStats, UnreachableReport};
use crate::router::{CrossShard, Router, RouterStats};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::world::NetWorld;

/// Per-node results of a communication simulation.
#[derive(Debug, Clone)]
pub struct NodeCommStats {
    /// The node.
    pub node: NodeId,
    /// Abstract-processor statistics.
    pub proc: ProcStats,
    /// Router statistics.
    pub router: RouterStats,
}

/// Results of a communication simulation run.
#[derive(Debug, Clone)]
pub struct CommResult {
    /// When the last processor finished (Time::ZERO when none did).
    pub finish: Time,
    /// True when every processor completed its trace.
    pub all_done: bool,
    /// Nodes whose processors can never finish (deadlock or mismatched
    /// communication). Only a *drained* event set proves that, so this is
    /// empty in mid-run snapshots (see [`CommSim::run_events`]) even while
    /// some nodes are still working — use [`CommResult::nodes_done`] for
    /// progress.
    pub deadlocked: Vec<NodeId>,
    /// Per-node statistics.
    pub nodes: Vec<NodeCommStats>,
    /// Total simulation events processed.
    pub events: u64,
    /// Merged end-to-end message-latency histogram (picoseconds).
    pub msg_latency: Histogram,
    /// Total messages delivered.
    pub total_messages: u64,
    /// Total payload bytes sent.
    pub total_bytes: u64,
    /// Structured degraded-mode reports: every (sender, destination,
    /// message) that exhausted its retries, in node order then give-up
    /// order. Empty on healthy runs.
    pub unreachable: Vec<UnreachableReport>,
    /// Total retransmissions issued across all nodes (fault mode).
    pub total_retries: u64,
    /// Tracked messages given up on across all nodes (fault mode).
    pub msgs_failed: u64,
    /// Blocking receives abandoned by the fault-mode watchdog.
    pub recv_timeouts: u64,
    /// Packets discarded by routers (link/router down, corruption,
    /// transient loss).
    pub total_dropped: u64,
}

impl CommResult {
    /// Fold per-node statistics into a result, mirroring the serial
    /// collection field for field — the single aggregation path shared by
    /// [`CommSim::run`] and the sharded merge, so the two can never
    /// diverge. `drained` states whether the event set has drained (only a
    /// drained set proves deadlock).
    pub(crate) fn from_nodes(nodes: Vec<NodeCommStats>, events: u64, drained: bool) -> CommResult {
        let mut msg_latency = Histogram::log2();
        let mut finish = Time::ZERO;
        let mut unfinished = Vec::new();
        let mut total_messages = 0;
        let mut total_bytes = 0;
        let mut unreachable = Vec::new();
        let mut total_retries = 0;
        let mut msgs_failed = 0;
        let mut recv_timeouts = 0;
        let mut total_dropped = 0;
        for nc in &nodes {
            match nc.proc.finished_at {
                Some(t) => finish = finish.max(t),
                None => unfinished.push(nc.node),
            }
            msg_latency.merge(&nc.proc.msg_latency);
            total_messages += nc.proc.msgs_received;
            total_bytes += nc.proc.bytes_sent;
            unreachable.extend(nc.proc.unreachable.iter().copied());
            total_retries += nc.proc.retries;
            msgs_failed += nc.proc.msgs_failed;
            recv_timeouts += nc.proc.recv_timeouts;
            total_dropped += nc.router.dropped();
        }
        CommResult {
            finish,
            all_done: unfinished.is_empty(),
            deadlocked: if drained { unfinished } else { Vec::new() },
            nodes,
            events,
            msg_latency,
            total_messages,
            total_bytes,
            unreachable,
            total_retries,
            msgs_failed,
            recv_timeouts,
            total_dropped,
        }
    }

    /// True when the run degraded under faults: messages failed, receives
    /// timed out, or packets were dropped.
    pub fn degraded(&self) -> bool {
        self.msgs_failed > 0 || self.recv_timeouts > 0 || self.total_dropped > 0
    }

    /// Roll the per-node reliability counters into one delivered-vs-
    /// dropped picture (see [`mermaid_stats::DeliveryStats`]). On a
    /// fault-free run everything is zero and `delivered_fraction()` is
    /// `None`.
    pub fn delivery(&self) -> mermaid_stats::DeliveryStats {
        let mut d = mermaid_stats::DeliveryStats::new();
        for nc in &self.nodes {
            d.tracked += nc.proc.msgs_tracked;
            d.acked += nc.proc.msgs_acked;
            d.failed += nc.proc.msgs_failed;
            d.retries += nc.proc.retries;
            d.recv_timeouts += nc.proc.recv_timeouts;
            d.dropped_packets += nc.router.dropped();
            d.attempts.merge(&nc.proc.retry_counts);
        }
        d
    }

    /// The distinct (sender, destination) pairs reported unreachable,
    /// sorted and deduplicated.
    pub fn unreachable_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs: Vec<(NodeId, NodeId)> =
            self.unreachable.iter().map(|u| (u.src, u.dst)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
    /// Aggregate busy time across all links.
    pub fn total_link_busy(&self) -> Duration {
        self.nodes.iter().map(|n| n.router.link_busy).sum()
    }

    /// Nodes whose processors have completed their traces. Valid both
    /// mid-run and at completion, unlike `deadlocked`.
    pub fn nodes_done(&self) -> u32 {
        // Cast is lossless: the node count is capped at `MAX_NODES` (2^20).
        self.nodes
            .iter()
            .filter(|n| n.proc.finished_at.is_some())
            .count() as u32
    }

    /// Mean link utilisation over the run (`links` from the topology).
    pub fn mean_link_utilization(&self, links: u32) -> f64 {
        if self.finish == Time::ZERO || links == 0 {
            return 0.0;
        }
        // Multiply in f64: `links * finish_ps` can exceed u64 on long runs.
        self.total_link_busy().as_ps() as f64 / (links as f64 * self.finish.as_ps() as f64)
    }
}

/// Panic unless `traces` holds exactly one trace per node of the topology.
pub(crate) fn assert_trace_count(cfg: &NetworkConfig, traces: &TraceSet) {
    // Compare as usize — casting `traces.nodes()` down to u32 could
    // truncate an oversized trace set into a spurious match.
    assert_eq!(
        traces.nodes(),
        cfg.topology.nodes() as usize,
        "trace set has {} nodes, topology {} needs {}",
        traces.nodes(),
        cfg.topology.label(),
        cfg.topology.nodes()
    );
}

/// Build an engine whose world owns the routers and processors of `nodes`
/// — every node for the serial simulation, one shard's block (with its
/// `cross` egress wiring) for a sharded one.
///
/// Arena layout (DESIGN.md §15): router of node `i` is component `i`, its
/// processor is component `n + i`. Components address each other by that
/// arithmetic — no id tables. A shard's world owns only the slabs of its
/// own node range but reports the full `2n` id space, so component ids,
/// event keys and key-counter indexing match the serial engine exactly;
/// an event addressed to an unowned id panics inside `NetWorld`.
pub(crate) fn build_engine(
    cfg: NetworkConfig,
    traces: &TraceSet,
    nodes: std::ops::Range<NodeId>,
    probe: &ProbeHandle,
    faults: &Option<Arc<FaultSchedule>>,
    cross: Option<CrossShard>,
) -> Engine<NetMsg, NetWorld> {
    let n = cfg.topology.nodes();
    let mut routers = Vec::with_capacity(nodes.len());
    let mut procs = Vec::with_capacity(nodes.len());
    for node in nodes.clone() {
        routers.push(
            Router::new(
                node,
                cfg.topology,
                cfg.link,
                cfg.router,
                (n + node) as CompId,
            )
            .with_probe(probe.clone())
            .with_faults(faults.clone())
            .with_cross_shard(cross.clone()),
        );
    }
    for node in nodes.clone() {
        procs.push(
            AbstractProcessor::new(node, traces.trace(node).shared_ops(), node as CompId, cfg)
                .with_probe(probe.clone())
                .with_faults(faults.clone()),
        );
    }
    Engine::with_world(NetWorld::new(n, nodes.start, routers, procs))
}

/// Post the scripted fault events of `nodes` before the run, node by node
/// in schedule order. They are self-events of the affected router, so a
/// shard's engine posting only *its* nodes' events consumes exactly the
/// same per-component key counters as the serial engine posting all of
/// them — the foundation of serial/sharded bit-identity under faults.
pub(crate) fn post_scripted_faults(
    engine: &mut Engine<NetMsg, NetWorld>,
    faults: &FaultSchedule,
    nodes: std::ops::Range<NodeId>,
) {
    for node in nodes {
        for ev in faults.events_for(node) {
            engine.post(
                ev.at,
                node as CompId,
                node as CompId,
                NetMsg::Fault(ev.kind),
            );
        }
    }
}

/// The multi-node communication model, ready to run.
///
/// Component layout in the engine: routers occupy component ids
/// `0..nodes`, abstract processors `nodes..2*nodes` — stored as typed
/// struct-of-arrays slabs (see `crate::world`), not boxed trait objects.
pub struct CommSim {
    engine: Engine<NetMsg, NetWorld>,
    cfg: NetworkConfig,
    nodes: u32,
}

impl CommSim {
    /// Build the simulation from a configuration and one task-level trace
    /// per node. The trace set must have exactly as many nodes as the
    /// topology.
    pub fn new(cfg: NetworkConfig, traces: &TraceSet) -> Self {
        CommSim::new_with_probe(cfg, traces, ProbeHandle::disabled())
    }

    /// Like [`CommSim::new`], but every router, processor and the engine
    /// itself record into `probe`. The caller keeps its own clone of the
    /// handle to read results back after the run; passing
    /// [`ProbeHandle::disabled`] makes this identical to `new`.
    ///
    /// Instrumentation is strictly observational — a traced run produces
    /// bit-identical virtual-time results to an untraced one.
    pub fn new_with_probe(cfg: NetworkConfig, traces: &TraceSet, probe: ProbeHandle) -> Self {
        CommSim::build(cfg, traces, probe, None)
    }

    /// Like [`CommSim::new_with_probe`], with deterministic fault injection:
    /// the schedule's scripted link/router events are posted into the
    /// engine before the run starts, routers draw per-packet transient
    /// losses and corruptions from the schedule's seeded hash, and the
    /// processors run the ack/retry/backoff reliability protocol (see
    /// `crate::fault` and the module docs of `crate::processor`).
    ///
    /// Panics when the schedule references nodes or links the topology
    /// does not have.
    pub fn new_with_faults(
        cfg: NetworkConfig,
        traces: &TraceSet,
        probe: ProbeHandle,
        faults: Arc<FaultSchedule>,
    ) -> Self {
        CommSim::build(cfg, traces, probe, Some(faults))
    }

    /// Build the simulation; `faults: None` keeps the fault layer off.
    pub(crate) fn build(
        cfg: NetworkConfig,
        traces: &TraceSet,
        probe: ProbeHandle,
        faults: Option<Arc<FaultSchedule>>,
    ) -> Self {
        cfg.validate();
        if let Some(f) = &faults {
            if let Err(e) = f.try_validate(&cfg.topology) {
                panic!("invalid fault schedule for {}: {e}", cfg.topology.label());
            }
        }
        let n = cfg.topology.nodes();
        assert_trace_count(&cfg, traces);
        let mut engine = build_engine(cfg, traces, 0..n, &probe, &faults, None);
        if let Some(adapter) = probe.engine_adapter() {
            engine.set_probe(adapter);
        }
        if let Some(f) = &faults {
            post_scripted_faults(&mut engine, f, 0..n);
        }
        CommSim {
            engine,
            cfg,
            nodes: n,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Run until virtual `deadline` (inclusive): events *at* the deadline
    /// are delivered, so a subsequent [`CommSim::checkpoint`] at
    /// `deadline + 1` captures a state where everything strictly before
    /// the instant has been processed.
    pub fn run_until(&mut self, deadline: Time) -> pearl::engine::RunResult {
        self.engine.run_until(deadline)
    }

    /// Capture the complete simulation state at instant `at` as a
    /// [`Snapshot`]: every event strictly before `at` must have been
    /// processed (run with [`CommSim::run_until`]`(at - 1)` first) and
    /// every pending event must be at or after `at` — asserted here,
    /// because a snapshot violating it could never restore bit-identically.
    ///
    /// `config_hash` is the campaign-layer identity of the run; restore
    /// refuses a snapshot whose hash differs. The attribution section is
    /// the caller's to fill in (the probe layer owns that state).
    pub fn checkpoint(&mut self, config_hash: &str, at: Time) -> Snapshot {
        // A serial capture is the one-piece case of the sharded compose,
        // so both modes produce byte-identical files by construction.
        let whole = crate::snapshot::capture(&mut self.engine, config_hash, at);
        Snapshot::compose(vec![whole])
    }

    /// Rebuild a simulation from a [`Snapshot`], bit-identically: the
    /// restored run processes the same events in the same order and
    /// produces the same results, stats and probe stream as the
    /// uninterrupted run from the checkpoint instant on.
    ///
    /// The caller passes the same configuration, traces and fault
    /// schedule the checkpointed run was built from (the config hash in
    /// the snapshot is verified at the CLI layer against the run's
    /// canonical identity; here the node count is re-checked as a last
    /// line of defence). Components are built exactly as in a fresh run,
    /// then the captured state is overlaid and the engine's queue, clock
    /// and key counters are replaced wholesale — initialisation never
    /// runs, and the pre-posted fault events are superseded by the
    /// snapshot's pending set (which still contains every scripted fault
    /// at or after the instant, under its original key).
    pub fn restore(
        cfg: NetworkConfig,
        traces: &TraceSet,
        probe: ProbeHandle,
        faults: Option<Arc<FaultSchedule>>,
        snap: &Snapshot,
    ) -> Result<Self, SnapshotError> {
        let n = cfg.topology.nodes();
        if snap.nodes != n {
            return Err(SnapshotError::NodesMismatch {
                found: snap.nodes,
                expected: n,
            });
        }
        let mut sim = CommSim::build(cfg, traces, probe, faults);
        crate::snapshot::restore_engine(&mut sim.engine, snap, snap.events_processed)?;
        Ok(sim)
    }

    /// Current virtual time of the simulation.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// True when no events remain (the run has finished or deadlocked).
    pub fn is_idle(&self) -> bool {
        self.engine.pending_events() == 0
    }

    /// Run to completion (event set drained) and collect results.
    pub fn run(&mut self) -> CommResult {
        self.engine.run();
        self.collect()
    }

    /// Run at most `max_events` events (for incremental/run-time
    /// observation), then collect a snapshot.
    pub fn run_events(&mut self, max_events: u64) -> CommResult {
        self.engine.run_events(max_events);
        self.collect()
    }

    fn collect(&self) -> CommResult {
        let n = self.nodes;
        let world = self.engine.world();
        let mut nodes = Vec::with_capacity(n as usize);
        for node in 0..n {
            nodes.push(NodeCommStats {
                node,
                proc: world.proc(node).stats.clone(),
                router: world.router(node).snapshot_stats(),
            });
        }
        // "Unfinished" only means "deadlocked" once no event can ever
        // unblock the node again, i.e. when the event set has drained; a
        // mid-run snapshot must not cry deadlock over work in progress.
        let idle = self.engine.pending_events() == 0;
        CommResult::from_nodes(nodes, self.engine.events_processed(), idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Switching;
    use crate::topology::Topology;
    use mermaid_ops::Operation;

    fn cfg(topo: Topology) -> NetworkConfig {
        NetworkConfig::test(topo)
    }

    fn trace_set(n: u32, f: impl Fn(NodeId) -> Vec<Operation>) -> TraceSet {
        let mut ts = TraceSet::new(n as usize);
        for node in 0..n {
            ts.trace_mut(node).ops = f(node);
        }
        ts
    }

    #[test]
    fn compute_only_traces_finish_at_their_sum() {
        let ts = trace_set(2, |_| {
            vec![
                Operation::Compute { ps: 1_000 },
                Operation::Compute { ps: 2_000 },
            ]
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(r.all_done);
        assert_eq!(r.finish, Time::from_ps(3_000));
        assert_eq!(r.total_messages, 0);
    }

    #[test]
    fn sync_ping_completes_and_measures_latency() {
        // Node 0 sends 100 B to node 1; node 1 receives.
        let ts = trace_set(2, |node| match node {
            0 => vec![Operation::Send { bytes: 100, dst: 1 }],
            _ => vec![Operation::Recv { src: 0 }],
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(r.all_done, "deadlocked: {:?}", r.deadlocked);
        assert_eq!(r.total_messages, 1);
        assert_eq!(r.total_bytes, 100);
        assert_eq!(r.msg_latency.count(), 1);
        // One hop: routing 10 + (100+8) B @1 GB/s = 108 ns + wire 1 ns.
        let lat = r.msg_latency.max().unwrap();
        assert_eq!(lat, Duration::from_ns(10 + 108 + 1).as_ps());
        // The sender blocked until the ack returned.
        assert!(r.nodes[0].proc.send_block > Duration::ZERO);
        // Finish = sender resumed after data + ack round trip.
        let ack_time = Duration::from_ns(10 + 8 + 1); // 8-byte control packet
        assert_eq!(r.finish, Time::ZERO + Duration::from_ns(119) + ack_time);
    }

    #[test]
    fn async_send_does_not_block() {
        let ts = trace_set(2, |node| match node {
            0 => vec![
                Operation::ASend { bytes: 100, dst: 1 },
                Operation::Compute { ps: 5_000 },
            ],
            _ => vec![Operation::Recv { src: 0 }],
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(r.all_done);
        // Sender finished after its compute only (zero overhead in test cfg).
        assert_eq!(r.nodes[0].proc.finished_at, Some(Time::from_ps(5_000)));
        assert_eq!(r.nodes[0].proc.send_block, Duration::ZERO);
    }

    #[test]
    fn recv_blocks_until_message_arrives() {
        let ts = trace_set(2, |node| match node {
            0 => vec![
                Operation::Compute { ps: 1_000_000 }, // 1 µs head start
                Operation::Send { bytes: 8, dst: 1 },
            ],
            _ => vec![Operation::Recv { src: 0 }],
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(r.all_done);
        assert!(r.nodes[1].proc.recv_block >= Duration::from_us(1));
    }

    #[test]
    fn arecv_consumes_later_arrival_without_blocking() {
        let ts = trace_set(2, |node| match node {
            0 => vec![
                Operation::Compute { ps: 10_000 },
                Operation::ASend { bytes: 8, dst: 1 },
            ],
            _ => vec![
                Operation::ARecv { src: 0 },
                Operation::Compute { ps: 1_000 },
            ],
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(r.all_done);
        // Node 1 finished its trace long before the message arrived.
        assert_eq!(r.nodes[1].proc.finished_at, Some(Time::from_ps(1_000)));
        // The message was still consumed.
        assert_eq!(r.nodes[1].proc.msgs_received, 1);
    }

    #[test]
    fn multi_packet_messages_reassemble() {
        // 1 KiB max payload; send 5000 B → 5 packets.
        let ts = trace_set(2, |node| match node {
            0 => vec![Operation::Send {
                bytes: 5000,
                dst: 1,
            }],
            _ => vec![Operation::Recv { src: 0 }],
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(r.all_done);
        assert_eq!(r.total_messages, 1);
        // 5 data packets forwarded plus 1 ack.
        let forwarded: u64 = r.nodes.iter().map(|n| n.router.forwarded).sum();
        assert_eq!(forwarded, 6);
    }

    #[test]
    fn mismatched_communication_deadlocks() {
        let ts = trace_set(2, |node| match node {
            0 => vec![Operation::Recv { src: 1 }], // nobody sends
            _ => vec![Operation::Compute { ps: 100 }],
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(!r.all_done);
        assert_eq!(r.deadlocked, vec![0]);
    }

    /// A node that merely has not finished *yet* must not be reported as
    /// deadlocked in a mid-run snapshot; only a drained event set proves
    /// deadlock. Progress is exposed through `nodes_done()` instead.
    #[test]
    fn mid_run_snapshots_do_not_report_deadlock() {
        let ts = trace_set(2, |_| {
            vec![
                Operation::Compute { ps: 1_000 },
                Operation::Compute { ps: 1_000 },
            ]
        });
        let mut sim = CommSim::new(cfg(Topology::Ring(2)), &ts);
        let snap = sim.run_events(1);
        assert!(!snap.all_done);
        assert!(
            snap.deadlocked.is_empty(),
            "work in progress reported as deadlock: {:?}",
            snap.deadlocked
        );
        assert!(snap.nodes_done() < 2);
        let done = sim.run();
        assert!(done.all_done);
        assert_eq!(done.nodes_done(), 2);
        assert!(done.deadlocked.is_empty());
    }

    #[test]
    fn sync_send_without_recv_deadlocks_the_sender() {
        let ts = trace_set(2, |node| match node {
            0 => vec![Operation::Send { bytes: 8, dst: 1 }],
            _ => vec![Operation::Compute { ps: 100 }],
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert_eq!(r.deadlocked, vec![0]);
    }

    #[test]
    fn ring_neighbor_exchange_completes() {
        // Every node sends to its right neighbour and receives from its
        // left (async send avoids rendezvous deadlock).
        let n = 8u32;
        let ts = trace_set(n, |node| {
            vec![
                Operation::ASend {
                    bytes: 256,
                    dst: (node + 1) % n,
                },
                Operation::Recv {
                    src: (node + n - 1) % n,
                },
            ]
        });
        let r = CommSim::new(cfg(Topology::Ring(n)), &ts).run();
        assert!(r.all_done, "deadlocked: {:?}", r.deadlocked);
        assert_eq!(r.total_messages, n as u64);
        assert_eq!(r.total_bytes, 256 * n as u64);
    }

    #[test]
    fn sync_ring_exchange_with_alternating_order() {
        // Synchronous rendezvous around a ring: even nodes send first,
        // odd nodes receive first — the classic deadlock-free schedule.
        let n = 6u32;
        let ts = trace_set(n, |node| {
            let right = (node + 1) % n;
            let left = (node + n - 1) % n;
            if node % 2 == 0 {
                vec![
                    Operation::Send {
                        bytes: 64,
                        dst: right,
                    },
                    Operation::Recv { src: left },
                ]
            } else {
                vec![
                    Operation::Recv { src: left },
                    Operation::Send {
                        bytes: 64,
                        dst: right,
                    },
                ]
            }
        });
        let r = CommSim::new(cfg(Topology::Ring(n)), &ts).run();
        assert!(r.all_done, "deadlocked: {:?}", r.deadlocked);
        assert_eq!(r.total_messages, n as u64);
    }

    #[test]
    fn multi_hop_latency_exceeds_single_hop() {
        let mk = |dst: NodeId| {
            trace_set(8, move |node| match node {
                0 => vec![Operation::ASend { bytes: 512, dst }],
                n if n == dst => vec![Operation::Recv { src: 0 }],
                _ => vec![],
            })
        };
        let near = CommSim::new(cfg(Topology::Ring(8)), &mk(1)).run();
        let far = CommSim::new(cfg(Topology::Ring(8)), &mk(4)).run();
        assert!(far.msg_latency.max().unwrap() > near.msg_latency.max().unwrap());
    }

    #[test]
    fn store_and_forward_is_slower_over_distance() {
        let mk_cfg = |sw: Switching| {
            let mut c = cfg(Topology::Ring(8));
            c.router.switching = sw;
            c
        };
        let ts = trace_set(8, |node| match node {
            0 => vec![Operation::ASend {
                bytes: 4096,
                dst: 4,
            }],
            4 => vec![Operation::Recv { src: 0 }],
            _ => vec![],
        });
        let saf = CommSim::new(mk_cfg(Switching::StoreAndForward), &ts).run();
        let vct = CommSim::new(mk_cfg(Switching::VirtualCutThrough), &ts).run();
        assert!(
            vct.msg_latency.max().unwrap() < saf.msg_latency.max().unwrap(),
            "VCT {:?} should beat SAF {:?}",
            vct.msg_latency.max(),
            saf.msg_latency.max()
        );
    }

    #[test]
    fn self_send_completes() {
        let ts = trace_set(2, |node| match node {
            0 => vec![
                Operation::ASend { bytes: 32, dst: 0 },
                Operation::Recv { src: 0 },
            ],
            _ => vec![],
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(r.all_done);
        assert_eq!(r.nodes[0].proc.msgs_received, 1);
    }

    #[test]
    fn master_worker_scatter_gather() {
        // Node 0 scatters to all workers, then gathers.
        let n = 5u32;
        let ts = trace_set(n, |node| {
            if node == 0 {
                let mut ops = Vec::new();
                for w in 1..n {
                    ops.push(Operation::ASend {
                        bytes: 1000,
                        dst: w,
                    });
                }
                for w in 1..n {
                    ops.push(Operation::Recv { src: w });
                }
                ops
            } else {
                vec![
                    Operation::Recv { src: 0 },
                    Operation::Compute { ps: 50_000 },
                    Operation::ASend { bytes: 100, dst: 0 },
                ]
            }
        });
        let r = CommSim::new(cfg(Topology::Star(n)), &ts).run();
        assert!(r.all_done, "deadlocked: {:?}", r.deadlocked);
        assert_eq!(r.total_messages, 2 * (n as u64 - 1));
        // The master cannot finish before a worker's compute completes.
        assert!(r.finish >= Time::from_ps(50_000));
    }

    #[test]
    fn link_utilization_is_reported() {
        let n = 4u32;
        let ts = trace_set(n, |node| {
            vec![
                Operation::ASend {
                    bytes: 10_000,
                    dst: (node + 1) % n,
                },
                Operation::Recv {
                    src: (node + n - 1) % n,
                },
            ]
        });
        let topo = Topology::Ring(n);
        let r = CommSim::new(cfg(topo), &ts).run();
        let u = r.mean_link_utilization(topo.link_count());
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn snapshot_collection_mid_run() {
        let ts = trace_set(2, |_| vec![Operation::Compute { ps: 1000 }; 10]);
        let mut sim = CommSim::new(cfg(Topology::Ring(2)), &ts);
        let snap = sim.run_events(3);
        assert!(!snap.all_done);
        let fin = sim.run();
        assert!(fin.all_done);
        assert_eq!(fin.finish, Time::from_ps(10_000));
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn trace_node_count_must_match_topology() {
        let ts = TraceSet::new(3);
        CommSim::new(cfg(Topology::Ring(4)), &ts);
    }

    #[test]
    #[should_panic(expected = "instruction-level operation")]
    fn instruction_level_traces_are_rejected() {
        let ts = trace_set(2, |node| match node {
            0 => vec![Operation::IFetch { addr: 0 }],
            _ => vec![],
        });
        CommSim::new(cfg(Topology::Ring(2)), &ts).run();
    }

    #[test]
    fn adaptive_routing_spreads_hot_spot_traffic() {
        use crate::config::Routing;
        // Every corner of a 4×4 torus sends a large message to the
        // opposite corner simultaneously: dimension-order funnels them over
        // the same links; adaptive minimal routing can spread them.
        let topo = Topology::Torus2D { w: 4, h: 4 };
        let ts = trace_set(16, |node| {
            let dst = 15 - node; // point-symmetric partner
            vec![
                Operation::ASend {
                    bytes: 64 * 1024,
                    dst,
                },
                Operation::Recv { src: 15 - node },
            ]
        });
        let run = |routing: Routing| {
            let mut c = cfg(topo);
            c.router.routing = routing;
            CommSim::new(c, &ts).run()
        };
        let det = run(Routing::DimensionOrder);
        let ada = run(Routing::AdaptiveMinimal);
        assert!(det.all_done && ada.all_done);
        assert!(
            ada.finish <= det.finish,
            "adaptive {} must not lose to deterministic {}",
            ada.finish,
            det.finish
        );
        // Under this congestion pattern it should strictly win.
        assert!(ada.finish < det.finish);
    }

    #[test]
    fn adaptive_routing_is_deterministic() {
        use crate::config::Routing;
        let topo = Topology::Hypercube { dim: 4 };
        let ts = trace_set(16, |node| {
            vec![
                Operation::ASend {
                    bytes: 8192,
                    dst: (node + 7) % 16,
                },
                Operation::Recv {
                    src: (node + 9) % 16,
                },
            ]
        });
        let run = || {
            let mut c = cfg(topo);
            c.router.routing = Routing::AdaptiveMinimal;
            CommSim::new(c, &ts).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn adaptive_equals_deterministic_without_contention() {
        use crate::config::Routing;
        // A single one-packet message: no contention, both strategies take
        // a minimal path of the same length — identical timing. (A multi-
        // packet message would differ: adaptive routing spreads the packets
        // over parallel minimal paths.)
        let ts = trace_set(16, |node| match node {
            0 => vec![Operation::ASend {
                bytes: 512,
                dst: 10,
            }],
            10 => vec![Operation::Recv { src: 0 }],
            _ => vec![],
        });
        let run = |routing: Routing| {
            let mut c = cfg(Topology::Torus2D { w: 4, h: 4 });
            c.router.routing = routing;
            CommSim::new(c, &ts).run().finish
        };
        assert_eq!(run(Routing::DimensionOrder), run(Routing::AdaptiveMinimal));
    }

    #[test]
    fn get_blocks_until_reply_arrives() {
        // Node 0 fetches 4 KiB from node 1 one-sidedly; node 1's trace has
        // no matching operation — the request is serviced automatically.
        let ts = trace_set(2, |node| match node {
            0 => vec![Operation::Get {
                bytes: 4096,
                from: 1,
            }],
            _ => vec![Operation::Compute { ps: 100 }],
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(r.all_done, "deadlocked: {:?}", r.deadlocked);
        let p0 = &r.nodes[0].proc;
        assert_eq!(p0.gets_issued, 1);
        assert!(p0.get_block > Duration::ZERO);
        assert_eq!(p0.get_latency.count(), 1);
        assert_eq!(r.nodes[1].proc.gets_served, 1);
        // Round trip ≥ request one way + 4 KiB back: at least the reply
        // serialisation (4 packets × ~1 µs + headers at 1 GB/s ≈ 4.1 µs).
        assert!(
            p0.get_latency.max().unwrap() > Duration::from_ns(4100).as_ps(),
            "{:?}",
            p0.get_latency.max()
        );
    }

    #[test]
    fn get_is_served_even_after_the_remote_finished() {
        let ts = trace_set(2, |node| match node {
            0 => vec![
                Operation::Compute { ps: 1_000_000 }, // remote is long done
                Operation::Get { bytes: 64, from: 1 },
            ],
            _ => vec![], // empty trace: finishes immediately
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(r.all_done);
        assert_eq!(r.nodes[1].proc.gets_served, 1);
    }

    #[test]
    fn put_is_consumed_without_a_receive() {
        let ts = trace_set(2, |node| match node {
            0 => vec![
                Operation::Put { bytes: 2048, to: 1 },
                Operation::Compute { ps: 500 },
            ],
            _ => vec![Operation::Compute { ps: 100 }],
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(r.all_done);
        // The putter never blocked (zero overhead in the test config).
        assert_eq!(r.nodes[0].proc.finished_at, Some(Time::from_ps(500)));
        assert_eq!(r.nodes[1].proc.puts_received, 1);
    }

    #[test]
    fn local_get_is_free() {
        let ts = trace_set(2, |node| match node {
            0 => vec![Operation::Get {
                bytes: 1024,
                from: 0,
            }],
            _ => vec![],
        });
        let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
        assert!(r.all_done);
        assert_eq!(r.nodes[0].proc.finished_at, Some(Time::ZERO));
        assert_eq!(r.nodes[0].proc.gets_issued, 0);
    }

    #[test]
    fn larger_gets_take_longer() {
        let lat = |bytes: u32| {
            let ts = trace_set(2, move |node| match node {
                0 => vec![Operation::Get { bytes, from: 1 }],
                _ => vec![],
            });
            let r = CommSim::new(cfg(Topology::Ring(2)), &ts).run();
            r.nodes[0].proc.get_latency.max().unwrap()
        };
        assert!(lat(64 * 1024) > lat(1024));
    }

    #[test]
    fn traced_run_is_bit_identical_to_untraced() {
        use mermaid_probe::ProbeStack;
        let n = 4u32;
        let ts = trace_set(n, |node| {
            vec![
                Operation::ASend {
                    bytes: 3000,
                    dst: (node + 1) % n,
                },
                Operation::Recv {
                    src: (node + n - 1) % n,
                },
                Operation::Compute { ps: 10_000 },
            ]
        });
        let plain = CommSim::new(cfg(Topology::Ring(n)), &ts).run();
        let probe = ProbeHandle::new(ProbeStack::new().with_metrics().with_jsonl());
        let traced = CommSim::new_with_probe(cfg(Topology::Ring(n)), &ts, probe.clone()).run();
        assert_eq!(traced.finish, plain.finish);
        assert_eq!(traced.events, plain.events);
        assert_eq!(traced.total_messages, plain.total_messages);
        assert_eq!(traced.total_bytes, plain.total_bytes);
        assert_eq!(traced.total_link_busy(), plain.total_link_busy());
        // The sinks actually saw the run.
        let jsonl = probe.jsonl_output().unwrap();
        assert!(jsonl.lines().count() > 0);
        assert!(jsonl.contains("msg_send"));
        assert!(jsonl.contains("msg_deliver"));
        assert!(jsonl.contains("engine_delivery"));
        let report = probe.metrics_report(plain.finish.as_ps()).unwrap();
        assert!(report.render().contains("node0"));
    }

    #[test]
    fn determinism_same_seeded_run_twice() {
        let n = 6u32;
        let ts = trace_set(n, |node| {
            vec![
                Operation::ASend {
                    bytes: 777,
                    dst: (node + 2) % n,
                },
                Operation::Recv {
                    src: (node + n - 2) % n,
                },
                Operation::Compute { ps: 123 },
            ]
        });
        let r1 = CommSim::new(cfg(Topology::Hypercube { dim: 3 }), &{
            let mut t = TraceSet::new(8);
            for node in 0..6 {
                *t.trace_mut(node) = ts.trace(node).clone();
                t.trace_mut(node).node = node;
            }
            t
        })
        .run();
        let r2 = CommSim::new(cfg(Topology::Hypercube { dim: 3 }), &{
            let mut t = TraceSet::new(8);
            for node in 0..6 {
                *t.trace_mut(node) = ts.trace(node).clone();
                t.trace_mut(node).node = node;
            }
            t
        })
        .run();
        assert_eq!(r1.finish, r2.finish);
        assert_eq!(r1.events, r2.events);
    }
}
