//! The hybrid (detailed) simulation mode — Fig. 2 of the paper.
//!
//! Each node's instruction-level trace is simulated by the single-node
//! *computational model* (CPU + cache hierarchy + bus + DRAM), which
//! measures the simulated time between consecutive communication
//! operations and converts the runs into `compute` *tasks*. The resulting
//! task-level traces then drive the multi-node *communication model*,
//! which resolves message timing, contention, and blocking.
//!
//! [`HybridSim::try_run_streams`] is the one bridge from per-processor
//! operation streams to task traces. Its node model is the cache model
//! ([`HybridSim::new`], detailed mode) or the static-cost model of the
//! direct-execution baseline ([`HybridSim::direct`], Section 2 and
//! experiment E4); both cut their timelines with
//! [`mermaid_cpu::TaskCutter`], and both hand the result to the same
//! communication phase with the same [`RunOptions`].
//!
//! A cache-model node may hold several processors sharing its caches, bus
//! and DRAM (the hybrid machines of Section 4.3): processor 0 communicates,
//! the others compute and stretch its tasks through the bus.
//!
//! Because Mermaid operations carry no data values, an application's
//! control flow never depends on message contents — it is fixed by the
//! trace generator (which resolves all loops and branches). The
//! computational phase of each node can therefore be simulated
//! node-by-node (open loop) without loss of validity; what *does* depend
//! on the architecture — the interleaving and timing of global events — is
//! resolved afterwards by the communication model. Trace *generation*
//! still uses physical-time interleaving (see `mermaid-tracegen`) so that
//! generating threads never run ahead of the simulator.

use std::cell::Cell;

use mermaid_cpu::{CpuStats, SingleNodeSim};
use mermaid_memory::MemStats;
use mermaid_network::{run_comm, CommResult, RunOptions, ShardProfile, SnapshotError};
use mermaid_ops::{NodeId, Operation, TraceSet};
use mermaid_probe::ProbeHandle;
use pearl::{Duration, Time};

use crate::direct::DirectExecStaticCosts;
use crate::machines::MachineConfig;
use crate::sweep;

/// Computational-model statistics of one node.
#[derive(Debug)]
pub struct NodeComputeStats {
    /// The node.
    pub node: NodeId,
    /// Per-processor CPU statistics (operation mix, compute/memory split).
    pub cpu: Vec<CpuStats>,
    /// Memory-system statistics (cache hits, bus, DRAM).
    pub mem: MemStats,
    /// Total task time extracted for this node.
    pub compute_total: Duration,
    /// When the node's last processor finished its stream.
    pub compute_finish: Time,
}

/// Result of a detailed (hybrid) simulation.
#[derive(Debug)]
pub struct HybridResult {
    /// Predicted execution time of the application on the target machine:
    /// the later of the communication model's finish and the last CPU's.
    pub predicted_time: Time,
    /// Per-node computational-model statistics.
    pub nodes: Vec<NodeComputeStats>,
    /// The intermediate task-level traces (inspectable/reusable).
    pub task_traces: TraceSet,
    /// Communication-model results.
    pub comm: CommResult,
    /// Instruction-level operations simulated (for slowdown accounting).
    pub ops_simulated: u64,
    /// Shard self-profile of a sharded communication phase (`None` when
    /// the run was serial). Host-wall-clock data, kept outside `comm` so
    /// determinism checks over the model results are unaffected.
    pub shard_profile: Option<ShardProfile>,
}

/// The hybrid simulator: detailed and direct-execution modes of the
/// workbench.
pub struct HybridSim<'a> {
    machine: MachineConfig,
    /// The node model: `None` is the cache model, `Some` the static-cost
    /// model of direct execution.
    static_costs: Option<DirectExecStaticCosts>,
    /// How the communication phase runs; the computational phase reads
    /// only the probe.
    opts: RunOptions<'a>,
    /// `None`: one worker per host core.
    workers: Option<usize>,
}

impl<'a> HybridSim<'a> {
    /// Create a hybrid simulator for the given machine, with the cache
    /// model on every node: serial, healthy, unprobed communication phase,
    /// one computational worker per core.
    ///
    /// # Panics
    ///
    /// On a machine [`MachineConfig::validate`] refuses.
    pub fn new(machine: MachineConfig) -> Self {
        machine.validate();
        HybridSim {
            machine,
            static_costs: None,
            opts: RunOptions::default(),
            workers: None,
        }
    }

    /// The direct-execution baseline (Section 2, experiment E4): the same
    /// simulator with the static-cost node model of
    /// [`DirectExecStaticCosts::from_machine`] in place of the cache model.
    ///
    /// # Panics
    ///
    /// On a machine whose nodes have more than one CPU: static costs model
    /// no shared bus.
    pub fn direct(machine: MachineConfig) -> Self {
        assert_eq!(
            machine.node_mem.cpus, 1,
            "direct execution runs one CPU per node but `{}` has {}: \
             static costs model no shared bus",
            machine.name, machine.node_mem.cpus
        );
        let costs = DirectExecStaticCosts::from_machine(&machine);
        HybridSim {
            static_costs: Some(costs),
            ..HybridSim::new(machine)
        }
    }

    /// Replace every communication-phase option at once (builder style) —
    /// the whole of [`RunOptions`]. Run with
    /// [`HybridSim::try_run_streams`] when a snapshot option is set.
    pub fn with_options(mut self, opts: RunOptions<'a>) -> Self {
        self.opts = opts;
        self
    }

    /// Run the computational phase on at most `workers` threads (builder
    /// style) instead of one per host core — for callers that already keep
    /// other cores busy, as a campaign does. Results do not depend on it.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Run the detailed simulation over instruction-level traces (one per
    /// node) on a machine with one CPU per node.
    pub fn run(&self, traces: &TraceSet) -> HybridResult {
        self.run_streams(traces.iter().map(|t| t.iter().copied()))
    }

    /// Run the simulation over one stream of instruction-level operations
    /// per processor, node-major (node 0's CPUs 0, 1, …, then node 1's) —
    /// the computational phase every entry point shares. A
    /// physical-time-interleaved generator's
    /// [`mermaid_tracegen::InterleavedTraceGen::streams`] makes the run
    /// *execution-driven*: each node's thread resumes only after its global
    /// event has been recorded, with flat memory consumption. Nodes are
    /// independent until the communication model runs, so they are
    /// claimed from a queue by up to [`HybridSim::with_workers`] threads;
    /// each claimed node's streams are pulled to their end through a
    /// computational model built for that node and dropped after it, so a
    /// source that produces operations on demand is never materialised.
    /// Results are read back in node order: nothing in the outcome depends
    /// on the worker count. With a probe attached the nodes
    /// run one after another on the calling thread — the handle is not
    /// `Send`, and it sees the nodes' cache and bus events in node-major
    /// order whatever the source.
    ///
    /// # Panics
    ///
    /// When a snapshot option set through [`HybridSim::with_options`]
    /// fails, on a stream count other than the machine's processor count,
    /// and on a global event in a stream other than a node's processor 0.
    pub fn run_streams<S>(&self, streams: S) -> HybridResult
    where
        S: IntoIterator<IntoIter: ExactSizeIterator>,
        S::Item: Iterator<Item = Operation> + Send,
    {
        self.try_run_streams(streams)
            .expect("a run without snapshot options cannot fail")
    }

    /// [`HybridSim::run_streams`], returning what restoring from or writing
    /// a snapshot of the communication phase can fail with.
    pub fn try_run_streams<S>(&self, streams: S) -> Result<HybridResult, SnapshotError>
    where
        S: IntoIterator<IntoIter: ExactSizeIterator>,
        S::Item: Iterator<Item = Operation> + Send,
    {
        let (nodes, cpus) = (self.machine.nodes(), self.machine.node_mem.cpus);
        let mut streams = streams.into_iter();
        assert_eq!(
            streams.len(),
            nodes as usize * cpus,
            "got {} operation streams, machine has {nodes} nodes of {cpus} CPU(s)",
            streams.len()
        );
        // One work item per node: its processors' streams.
        let groups: Vec<Vec<S::Item>> = (0..nodes)
            .map(|_| streams.by_ref().take(cpus).collect())
            .collect();
        let (cpu, mem_cfg, static_costs) =
            (self.machine.cpu, &self.machine.node_mem, self.static_costs);
        let extract = |node: usize, group: Vec<S::Item>, probe: ProbeHandle| {
            let node = node as NodeId;
            let ops_simulated = Cell::new(0u64);
            let group = group
                .into_iter()
                .map(|ops| ops.inspect(|_| ops_simulated.set(ops_simulated.get() + 1)));
            let x = match static_costs {
                // `direct` refused multiprocessor nodes: one stream.
                Some(costs) => costs.extract_tasks(node, group.flatten()),
                None => {
                    let mut sim = SingleNodeSim::new(cpu, mem_cfg.clone());
                    sim.set_probe(node, probe);
                    sim.extract_streams(node, group)
                }
            };
            (x, ops_simulated.get())
        };
        let extracted: Vec<_> = if self.opts.probe.is_enabled() {
            groups
                .into_iter()
                .enumerate()
                .map(|(node, group)| extract(node, group, self.opts.probe.clone()))
                .collect()
        } else {
            let workers = self.workers.unwrap_or_else(sweep::auto_workers);
            sweep::run_ordered(groups, workers, |node, group| {
                extract(node, group, ProbeHandle::disabled())
            })
        };
        let mut task_traces = Vec::with_capacity(extracted.len());
        let mut node_stats = Vec::with_capacity(extracted.len());
        let mut ops_simulated = 0u64;
        for (x, ops) in extracted {
            ops_simulated += ops;
            node_stats.push(NodeComputeStats {
                node: x.task_trace.node,
                cpu: x.cpu_stats,
                mem: x.mem_stats,
                compute_total: x.compute_total,
                compute_finish: x.compute_finish,
            });
            task_traces.push(x.task_trace);
        }
        let task_traces = TraceSet::from_traces(task_traces);
        let (comm, shard_profile) =
            run_comm(self.machine.network, &task_traces, self.opts.clone())?;
        // Processor 0's tasks run in the communication model, which takes
        // at least their sum; a sibling processor may outlast the network.
        let last_cpu = node_stats.iter().map(|n| n.compute_finish).max();
        Ok(HybridResult {
            predicted_time: comm.finish.max(last_cpu.unwrap_or(Time::ZERO)),
            nodes: node_stats,
            task_traces,
            comm,
            ops_simulated,
            shard_profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mermaid_network::Topology;
    use mermaid_ops::{ArithOp, DataType, Trace};
    use mermaid_tracegen::annotate::TargetLayout;
    use mermaid_tracegen::{
        CommPattern, InterleavedTraceGen, SizeDist, StochasticApp, StochasticGenerator,
    };

    fn machine(n: u32) -> MachineConfig {
        MachineConfig::test_machine(Topology::Ring(n))
    }

    fn stochastic_traces(n: u32, seed: u64) -> TraceSet {
        let app = StochasticApp {
            phases: 3,
            ops_per_phase: SizeDist::Fixed(300),
            pattern: CommPattern::NearestNeighborRing,
            ..StochasticApp::scientific(n)
        };
        StochasticGenerator::new(app, seed).generate()
    }

    #[test]
    fn hybrid_run_produces_consistent_results() {
        let traces = stochastic_traces(4, 1);
        let r = HybridSim::new(machine(4)).run(&traces);
        assert!(r.comm.all_done, "deadlocked: {:?}", r.comm.deadlocked);
        assert!(r.predicted_time > Time::ZERO);
        assert_eq!(r.nodes.len(), 4);
        assert_eq!(r.ops_simulated, traces.total_ops() as u64);
        // Every node's predicted time ≥ its pure compute time.
        for n in &r.nodes {
            assert!(r.predicted_time >= Time::ZERO + n.compute_total);
        }
        // Task traces carry only task-level operations.
        for t in r.task_traces.iter() {
            assert!(t.iter().all(|o| !o.is_computational()));
        }
    }

    #[test]
    fn hybrid_is_deterministic() {
        let traces = stochastic_traces(4, 2);
        let a = HybridSim::new(machine(4)).run(&traces);
        let b = HybridSim::new(machine(4)).run(&traces);
        assert_eq!(a.predicted_time, b.predicted_time);
        assert_eq!(a.task_traces, b.task_traces);
    }

    #[test]
    fn slower_cpu_predicts_longer_time() {
        let traces = stochastic_traces(2, 3);
        let fast = HybridSim::new(machine(2)).run(&traces);
        let mut slow_machine = machine(2);
        slow_machine.cpu.clock = pearl::Frequency::from_mhz(10);
        let slow = HybridSim::new(slow_machine).run(&traces);
        assert!(slow.predicted_time > fast.predicted_time);
    }

    #[test]
    fn slower_network_predicts_longer_time() {
        let traces = stochastic_traces(2, 4);
        let fast = HybridSim::new(machine(2)).run(&traces);
        let mut slow_machine = machine(2);
        slow_machine.network.link.bandwidth_bytes_per_sec = 1_000_000;
        let slow = HybridSim::new(slow_machine).run(&traces);
        assert!(slow.predicted_time > fast.predicted_time);
    }

    #[test]
    fn generator_driven_run_matches_batch_run() {
        // The same instrumented program via batch traces and via the
        // threaded generator must predict the same time.
        let n = 4u32;
        let program = move |ctx: &mut mermaid_tracegen::Translator| {
            let me = ctx.node();
            let x = ctx.local("x", DataType::F64, 1);
            for _ in 0..50 {
                ctx.load(x);
                ctx.arith(ArithOp::Mul, DataType::F64);
                ctx.store(x);
            }
            ctx.asend(256, (me + 1) % n);
            ctx.recv((me + n - 1) % n);
        };
        let batch_traces =
            InterleavedTraceGen::spawn(n, TargetLayout::default(), program).collect_all();
        let batch = HybridSim::new(machine(n)).run(&batch_traces);

        let mut gen = InterleavedTraceGen::spawn(n, TargetLayout::default(), program);
        let streamed = HybridSim::new(machine(n)).run_streams(gen.streams());

        assert_eq!(batch.predicted_time, streamed.predicted_time);
        assert_eq!(batch.task_traces, streamed.task_traces);
        assert_eq!(batch.ops_simulated, streamed.ops_simulated);
    }

    #[test]
    fn probed_hybrid_run_is_bit_identical_to_untraced() {
        use mermaid_probe::{ProbeHandle, ProbeStack};
        let traces = stochastic_traces(4, 7);
        let plain = HybridSim::new(machine(4)).run(&traces);
        let probe = ProbeHandle::new(ProbeStack::new().with_metrics().with_chrome());
        let probed = HybridSim::new(machine(4))
            .with_options(RunOptions {
                probe: probe.clone(),
                ..RunOptions::default()
            })
            .run(&traces);
        assert_eq!(plain.predicted_time, probed.predicted_time);
        assert_eq!(plain.task_traces, probed.task_traces);
        assert_eq!(plain.comm.total_messages, probed.comm.total_messages);
        // Both halves fed the probe: cache events from the computational
        // models and engine/message events from the communication model.
        let report = probe.metrics_report(probed.predicted_time.as_ps()).unwrap();
        let text = report.render();
        assert!(text.contains("engine/deliveries"), "{text}");
        assert!(text.contains("mem0/"), "{text}");
    }

    #[test]
    #[should_panic(expected = "machine has 4 nodes")]
    fn node_count_mismatch_is_rejected() {
        let traces = stochastic_traces(3, 5);
        HybridSim::new(machine(4)).run(&traces);
    }

    #[test]
    #[should_panic(expected = "static costs model no shared bus")]
    fn direct_execution_refuses_multiprocessor_nodes() {
        HybridSim::direct(MachineConfig::powerpc601_cluster(Topology::Ring(4), 2));
    }

    fn smp_machine(nodes: u32, cpus: usize) -> MachineConfig {
        let mut m = machine(nodes);
        m.node_mem.cpus = cpus;
        m
    }

    fn compute_ops(n: usize, seed: u64) -> Vec<Operation> {
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(seed.wrapping_add(7919));
                if x.is_multiple_of(3) {
                    Operation::Load {
                        ty: DataType::F64,
                        addr: 0x1000 + (x % 4096),
                    }
                } else {
                    Operation::Arith {
                        op: ArithOp::Add,
                        ty: DataType::F64,
                    }
                }
            })
            .collect()
    }

    /// Run `f(node, cpu)`'s operations on `nodes` nodes of `cpus` CPUs.
    fn run_smp(
        nodes: u32,
        cpus: usize,
        f: impl Fn(NodeId, usize) -> Vec<Operation>,
    ) -> HybridResult {
        let streams: Vec<_> = (0..nodes)
            .flat_map(|n| (0..cpus).map(move |c| (n, c)))
            .map(|(n, c)| f(n, c).into_iter())
            .collect();
        HybridSim::new(smp_machine(nodes, cpus)).run_streams(streams)
    }

    /// Node `node` of a ring: compute, then on CPU 0 a ring exchange.
    fn ring_ops(nodes: u32, node: NodeId, cpu: usize, ops: usize) -> Vec<Operation> {
        let mut v = compute_ops(ops, (node as u64) << 8 | cpu as u64);
        if cpu == 0 {
            v.push(Operation::ASend {
                bytes: 1024,
                dst: (node + 1) % nodes,
            });
            v.push(Operation::Recv {
                src: (node + nodes - 1) % nodes,
            });
        }
        v
    }

    #[test]
    fn smp_cluster_runs_end_to_end() {
        let r = run_smp(4, 2, |node, cpu| ring_ops(4, node, cpu, 500));
        assert!(r.comm.all_done);
        assert!(r.predicted_time > Time::ZERO);
        assert_eq!(r.nodes.len(), 4);
        assert_eq!(r.nodes[0].cpu.len(), 2);
        // Both CPUs did work, and every operation was simulated.
        assert!(r.nodes[0].cpu[1].ops.total > 0);
        assert_eq!(r.ops_simulated, 4 * (2 * 500 + 2));
    }

    #[test]
    fn an_idle_sibling_changes_nothing() {
        // Siblings with empty streams: the one-CPU prediction and tasks.
        let one = run_smp(3, 1, |node, cpu| ring_ops(3, node, cpu, 800));
        let two = run_smp(3, 2, |node, cpu| match cpu {
            0 => ring_ops(3, node, cpu, 800),
            _ => Vec::new(),
        });
        assert_eq!(one.predicted_time, two.predicted_time);
        assert_eq!(one.task_traces, two.task_traces);
    }

    #[test]
    fn second_processor_contends_on_the_node_bus() {
        // Same CPU 0 workload; a memory-hammering second CPU must stretch
        // the communication processor's tasks (bus contention).
        let cpu0 = |node: NodeId| {
            let mut v = compute_ops(2_000, node as u64);
            v.push(if node == 0 {
                Operation::ASend { bytes: 64, dst: 1 }
            } else {
                Operation::Recv { src: 0 }
            });
            v
        };
        let solo = run_smp(2, 1, |node, _| cpu0(node));
        let shared = run_smp(2, 2, |node, cpu| match cpu {
            0 => cpu0(node),
            _ => (0..4_000u64)
                .map(|i| Operation::Load {
                    ty: DataType::F64,
                    addr: (1 << 20) | ((i * 64) % (1 << 18)),
                })
                .collect(),
        });
        assert!(
            shared.nodes[0].compute_total > solo.nodes[0].compute_total,
            "contention must stretch CPU 0's tasks: {} vs {}",
            shared.nodes[0].compute_total,
            solo.nodes[0].compute_total
        );
    }

    #[test]
    fn compute_floor_covers_long_running_siblings() {
        // CPU 1 computes far past CPU 0's last communication; the predicted
        // time must cover it.
        let r = run_smp(2, 2, |node, cpu| match (node, cpu) {
            (0, 0) => vec![Operation::ASend { bytes: 8, dst: 1 }],
            (_, 0) => vec![Operation::Recv { src: 0 }],
            _ => compute_ops(50_000, 3),
        });
        assert!(r.nodes[0].compute_finish > r.comm.finish);
        assert_eq!(r.predicted_time, r.nodes[0].compute_finish);
    }

    #[test]
    #[should_panic(expected = "node 1 CPU 1: only processor 0 may communicate")]
    fn non_zero_cpus_may_not_communicate() {
        run_smp(2, 2, |node, cpu| match (node, cpu) {
            (1, 1) => vec![Operation::Recv { src: 0 }],
            _ => Vec::new(),
        });
    }

    #[test]
    fn every_node_model_merges_a_pre_collapsed_compute_into_its_run() {
        // add ×10, compute 500 ps, add ×5, send: one 150.5 ns task before
        // the send on the cache model with one and with two CPUs per node,
        // and on the static-cost model alike.
        let add = Operation::Arith {
            op: ArithOp::Add,
            ty: DataType::I32,
        };
        let ops = |node: NodeId, cpu: usize| {
            if cpu > 0 {
                return Vec::new();
            }
            let mut ops = vec![add; 10];
            ops.push(Operation::Compute { ps: 500 });
            ops.extend([add; 5]);
            ops.push(if node == 0 {
                Operation::Send { bytes: 8, dst: 1 }
            } else {
                Operation::Recv { src: 0 }
            });
            ops
        };
        let flat = TraceSet::from_traces((0..2).map(|n| Trace::from_ops(n, ops(n, 0))).collect());
        let cache = HybridSim::new(machine(2)).run(&flat);
        let smp = run_smp(2, 2, ops);
        let direct = HybridSim::direct(machine(2)).run(&flat);
        let run = Duration::from_ns(150) + Duration::from_ps(500);
        assert_eq!(
            cache.task_traces.trace(0).ops,
            [
                Operation::Compute { ps: run.as_ps() },
                Operation::Send { bytes: 8, dst: 1 }
            ]
        );
        for r in [&cache, &smp, &direct] {
            assert_eq!(r.task_traces, cache.task_traces);
            assert_eq!(r.nodes[0].compute_total, run);
        }
    }

    #[test]
    fn t805_machine_runs_end_to_end() {
        let traces = stochastic_traces(4, 6);
        let m = MachineConfig::t805_multicomputer(Topology::Ring(4));
        let r = HybridSim::new(m).run(&traces);
        assert!(r.comm.all_done);
        // The transputer at 30 MHz doing thousands of float ops plus
        // software-routed messaging: predicted time must be substantial
        // (≥ 100 µs).
        assert!(
            r.predicted_time >= Time::from_us(100),
            "{}",
            r.predicted_time
        );
    }
}
