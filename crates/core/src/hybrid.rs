//! The hybrid (detailed) simulation mode — Fig. 2 of the paper.
//!
//! Each node's instruction-level trace is simulated by the single-node
//! *computational model* (CPU + cache hierarchy + bus + DRAM), which
//! measures the simulated time between consecutive communication
//! operations and converts the runs into `compute` *tasks*. The resulting
//! task-level traces then drive the multi-node *communication model*,
//! which resolves message timing, contention, and blocking.
//!
//! [`HybridSim::try_run_streams`] is the one bridge from per-node
//! operation streams to task traces. Its node model is the cache model
//! ([`HybridSim::new`], detailed mode) or the static-cost model of the
//! direct-execution baseline ([`HybridSim::direct`], Section 2 and
//! experiment E4); both cut their timelines with
//! [`mermaid_cpu::TaskCutter`], and both hand the result to the same
//! communication phase with the same [`RunOptions`].
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
    /// CPU statistics (operation mix, compute/memory split).
    pub cpu: CpuStats,
    /// Memory-system statistics (cache hits, bus, DRAM).
    pub mem: MemStats,
    /// Total task time extracted for this node.
    pub compute_total: Duration,
}

/// Result of a detailed (hybrid) simulation.
#[derive(Debug)]
pub struct HybridResult {
    /// Predicted execution time of the application on the target machine.
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
    /// On a machine [`MachineConfig::validate`] refuses, and on one whose
    /// nodes have more than one CPU: this simulator runs each node's
    /// stream on one processor, so multiprocessor nodes belong to
    /// [`crate::SmpHybridSim`].
    pub fn new(machine: MachineConfig) -> Self {
        machine.validate();
        assert_eq!(
            machine.node_mem.cpus, 1,
            "HybridSim runs one CPU per node but `{}` has {} per node; \
             simulate multiprocessor nodes with SmpHybridSim",
            machine.name, machine.node_mem.cpus
        );
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
    pub fn direct(machine: MachineConfig) -> Self {
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
    /// node).
    pub fn run(&self, traces: &TraceSet) -> HybridResult {
        self.run_streams(traces.iter().map(|t| t.iter().copied()))
    }

    /// Run the simulation over one stream of instruction-level operations
    /// per node, in node order — the computational phase every entry point
    /// shares. A physical-time-interleaved generator's
    /// [`mermaid_tracegen::InterleavedTraceGen::streams`] makes the run
    /// *execution-driven*: each node's thread resumes only after its global
    /// event has been recorded, with flat memory consumption. Nodes are
    /// independent until the communication model runs, so they are
    /// claimed from a queue by up to
    /// [`HybridSim::with_workers`] threads; each claimed stream is pulled to
    /// its end through a computational model built for that node and dropped
    /// after it, so a source that produces operations on demand is never
    /// materialised. Results are read back in node order: nothing in the
    /// outcome depends on the worker count. With a probe attached the nodes
    /// run one after another on the calling thread — the handle is not
    /// `Send`, and it sees the nodes' cache and bus events in node-major
    /// order whatever the source.
    ///
    /// # Panics
    ///
    /// When a snapshot option set through [`HybridSim::with_options`]
    /// fails, and on a stream count other than the machine's node count.
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
        let streams = streams.into_iter();
        assert_eq!(
            streams.len(),
            self.machine.nodes() as usize,
            "got {} per-node operation streams, machine has {} nodes",
            streams.len(),
            self.machine.nodes()
        );
        let (cpu, mem_cfg, static_costs) =
            (self.machine.cpu, &self.machine.node_mem, self.static_costs);
        let extract = |node: usize, ops: S::Item, probe: ProbeHandle| {
            let node = node as NodeId;
            let mut ops_simulated = 0u64;
            let ops = ops.inspect(|_| ops_simulated += 1);
            let x = match static_costs {
                Some(costs) => costs.extract_tasks(node, ops),
                None => {
                    let mut sim = SingleNodeSim::new(cpu, mem_cfg.clone());
                    sim.set_probe(node, probe);
                    let mut extractor = sim.task_extractor(node);
                    extractor.feed(ops);
                    extractor.finish()
                }
            };
            (x, ops_simulated)
        };
        let extracted: Vec<_> = if self.opts.probe.is_enabled() {
            streams
                .enumerate()
                .map(|(node, ops)| extract(node, ops, self.opts.probe.clone()))
                .collect()
        } else {
            let workers = self.workers.unwrap_or_else(sweep::auto_workers);
            sweep::run_ordered(streams.collect(), workers, |node, ops| {
                extract(node, ops, ProbeHandle::disabled())
            })
        };
        let mut task_traces = Vec::with_capacity(extracted.len());
        let mut nodes = Vec::with_capacity(extracted.len());
        let mut ops_simulated = 0u64;
        for (x, ops) in extracted {
            ops_simulated += ops;
            nodes.push(NodeComputeStats {
                node: x.task_trace.node,
                cpu: x.cpu_stats,
                mem: x.mem_stats,
                compute_total: x.compute_total,
            });
            task_traces.push(x.task_trace);
        }
        let task_traces = TraceSet::from_traces(task_traces);
        let (comm, shard_profile) = run_comm(self.machine.network, &task_traces, &self.opts)?;
        Ok(HybridResult {
            predicted_time: comm.finish,
            nodes,
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
    use mermaid_ops::{ArithOp, DataType};
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
    #[should_panic(expected = "simulate multiprocessor nodes with SmpHybridSim")]
    fn multiprocessor_nodes_are_refused() {
        HybridSim::new(MachineConfig::powerpc601_cluster(Topology::Ring(4), 2));
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
