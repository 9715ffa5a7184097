//! The single-node computational model (paper, Fig. 3a): one or more CPUs
//! sharing a cache hierarchy, bus, and memory.
//!
//! Two uses:
//!
//! * [`SingleNodeSim::run`] — simulate a (possibly multiprocessor,
//!   shared-memory) node over instruction-level traces. CPUs are
//!   interleaved in virtual-time order so that bus arbitration and
//!   coherence traffic are resolved in the order they would occur on the
//!   target (Section 4.3).
//! * [`SingleNodeSim::extract_tasks`] — the hybrid-model bridge (Fig. 2):
//!   run one node's instruction-level trace and measure the simulated time
//!   between communication operations, producing the task-level trace
//!   (`compute`/`send`/`recv`) that drives the multi-node communication
//!   model. The cut itself is [`TaskCutter`], shared with every other node
//!   model.

use mermaid_memory::{MemStats, MemSystemConfig, MemorySystem};
use mermaid_ops::{NodeId, Operation, Trace};
use pearl::{Duration, Time};

use crate::cpu::{Cpu, CpuStats};
use crate::params::CpuParams;

/// Result of simulating one node.
#[derive(Debug)]
pub struct NodeResult {
    /// Virtual time at which the last CPU finished.
    pub finish: Time,
    /// Per-CPU finish times.
    pub cpu_finish: Vec<Time>,
    /// Per-CPU execution statistics.
    pub cpu_stats: Vec<CpuStats>,
    /// Memory-system statistics.
    pub mem_stats: MemStats,
}

/// Result of the hybrid-model task extraction.
#[derive(Debug)]
pub struct TaskExtraction {
    /// The task-level trace: `compute(duration)` runs separated by the
    /// original communication operations.
    pub task_trace: Trace,
    /// Statistics of the computational simulation that produced it.
    pub cpu_stats: CpuStats,
    /// Memory-system statistics of that simulation.
    pub mem_stats: MemStats,
    /// Total simulated computation time.
    pub compute_total: Duration,
}

/// A single node of the multicomputer: CPUs + memory system.
pub struct SingleNodeSim {
    cpus: Vec<Cpu>,
    mem: MemorySystem,
}

impl SingleNodeSim {
    /// Build a node with `mem_cfg.cpus` identical processors.
    pub fn new(cpu_params: CpuParams, mem_cfg: MemSystemConfig) -> Self {
        let n = mem_cfg.cpus;
        SingleNodeSim {
            cpus: (0..n).map(|i| Cpu::new(cpu_params, i)).collect(),
            mem: MemorySystem::new(mem_cfg),
        }
    }

    /// Number of processors on the node.
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Attach an instrumentation handle to the node's memory system;
    /// emitted cache/bus events carry `node` as their node index.
    pub fn set_probe(&mut self, node: u32, probe: mermaid_probe::ProbeHandle) {
        self.mem.set_probe(node, probe);
    }

    /// Borrow the memory system (inspection).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Simulator-side memory footprint in bytes (experiment E3).
    pub fn footprint_bytes(&self) -> usize {
        self.mem.footprint_bytes() + self.cpus.capacity() * std::mem::size_of::<Cpu>()
    }

    /// Run one computational trace per CPU to completion, interleaving CPUs
    /// in virtual-time order. Traces must contain only computational
    /// operations (this is the pure shared-memory configuration of
    /// Section 4.3; message passing belongs to the communication model).
    pub fn run(&mut self, traces: &[&Trace]) -> NodeResult {
        assert_eq!(
            traces.len(),
            self.cpus.len(),
            "need one trace per CPU ({} traces, {} CPUs)",
            traces.len(),
            self.cpus.len()
        );
        let mut cursors = vec![0usize; traces.len()];
        loop {
            // Pick the unfinished CPU with the smallest local clock; ties
            // break towards the lower CPU index (deterministic).
            let next = (0..self.cpus.len())
                .filter(|&i| cursors[i] < traces[i].len())
                .min_by_key(|&i| (self.cpus[i].now(), i));
            let Some(i) = next else { break };
            let op = traces[i].ops[cursors[i]];
            assert!(
                !op.is_global_event(),
                "node {} trace contains communication operation {op}; use the hybrid model",
                i
            );
            self.cpus[i].execute(op, &mut self.mem);
            cursors[i] += 1;
        }
        let cpu_finish: Vec<Time> = self.cpus.iter().map(Cpu::now).collect();
        NodeResult {
            finish: cpu_finish.iter().copied().fold(Time::ZERO, Time::max),
            cpu_finish,
            cpu_stats: self.cpus.iter().map(|c| c.stats().clone()).collect(),
            mem_stats: self.mem.stats(),
        }
    }

    /// Hybrid-model bridge: simulate `trace` on CPU 0 and split it into
    /// computational tasks at its global events with a [`TaskCutter`]
    /// (Fig. 2). Communication operations pass through unchanged; runs of
    /// computational operations become `compute(duration)` with the
    /// *simulated* duration measured by this computational model.
    pub fn extract_tasks(&mut self, trace: &Trace) -> TaskExtraction {
        let mut extractor = self.task_extractor(trace.node);
        extractor.feed(trace.iter().copied());
        extractor.finish()
    }

    /// [`SingleNodeSim::extract_tasks`] for a trace that arrives in pieces:
    /// feed `node`'s operations in program order, in chunks of any size.
    pub fn task_extractor(&mut self, node: NodeId) -> TaskExtractor<'_> {
        assert_eq!(self.cpus.len(), 1, "task extraction uses a single-CPU node");
        let cpu = &mut self.cpus[0];
        TaskExtractor {
            cutter: TaskCutter::new(node, cpu.now()),
            cpu,
            mem: &mut self.mem,
        }
    }
}

/// Cuts one node's timeline into tasks at its global events (Fig. 2): the
/// bridge every node model shares, and the only place a `compute` task is
/// built from a node's clock. The node model advances its own clock over
/// the operations between global events — a pre-collapsed `compute` by its
/// own length, so it merges into the run around it — and hands each global
/// event to [`TaskCutter::cut`] with the time it reached. The run since the
/// previous cut becomes one `compute` task; a zero-length run becomes none.
#[derive(Debug)]
pub struct TaskCutter {
    trace: Trace,
    run_start: Time,
    compute_total: Duration,
}

impl TaskCutter {
    /// A cutter for `node` whose first run starts at `start`.
    pub fn new(node: NodeId, start: Time) -> Self {
        TaskCutter {
            trace: Trace::new(node),
            run_start: start,
            compute_total: Duration::ZERO,
        }
    }

    /// Close the run that ends at `now`, then pass the global event `op`
    /// through.
    pub fn cut(&mut self, now: Time, op: Operation) {
        self.close(now);
        self.trace.push(op);
    }

    fn close(&mut self, now: Time) {
        let elapsed = now.since(self.run_start);
        if !elapsed.is_zero() {
            self.trace.push(Operation::Compute {
                ps: elapsed.as_ps(),
            });
            self.compute_total += elapsed;
        }
        self.run_start = now;
    }

    /// End of stream at `now`: close the trailing run and hand over the
    /// task-level trace with its total compute time.
    pub fn finish(mut self, now: Time) -> (Trace, Duration) {
        self.close(now);
        (self.trace, self.compute_total)
    }
}

/// Incremental task extraction over one node's computational model. The
/// cutter keeps the start of the current compute run across
/// [`TaskExtractor::feed`] calls, so where the operation stream is cut
/// never splits a task.
pub struct TaskExtractor<'a> {
    cpu: &'a mut Cpu,
    mem: &'a mut MemorySystem,
    cutter: TaskCutter,
}

impl TaskExtractor<'_> {
    /// Simulate the next operations of the node's trace.
    pub fn feed(&mut self, ops: impl IntoIterator<Item = Operation>) {
        ops.into_iter().for_each(|op| {
            if op.is_global_event() {
                self.cutter.cut(self.cpu.now(), op);
            } else {
                self.cpu.execute(op, self.mem);
            }
        });
    }

    /// End of trace: close the trailing compute run and hand over the
    /// task-level trace with the model's statistics.
    pub fn finish(self) -> TaskExtraction {
        let (task_trace, compute_total) = self.cutter.finish(self.cpu.now());
        TaskExtraction {
            task_trace,
            cpu_stats: self.cpu.stats().clone(),
            mem_stats: self.mem.stats(),
            compute_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mermaid_ops::{ArithOp, DataType};

    fn adds(n: usize) -> Vec<Operation> {
        std::iter::repeat_n(
            Operation::Arith {
                op: ArithOp::Add,
                ty: DataType::I32,
            },
            n,
        )
        .collect()
    }

    fn node(cpus: usize) -> SingleNodeSim {
        SingleNodeSim::new(CpuParams::uniform_test(), MemSystemConfig::small(cpus))
    }

    #[test]
    fn single_cpu_run_sums_latencies() {
        let mut sim = node(1);
        let t = Trace::from_ops(0, adds(100));
        let r = sim.run(&[&t]);
        // 100 adds × 10 ns.
        assert_eq!(r.finish, Time::from_us(1));
        assert_eq!(r.cpu_stats[0].ops.total, 100);
    }

    #[test]
    fn idle_node_with_empty_traces() {
        let mut sim = node(2);
        let t0 = Trace::new(0);
        let t1 = Trace::new(1);
        let r = sim.run(&[&t0, &t1]);
        assert_eq!(r.finish, Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "one trace per CPU")]
    fn trace_count_must_match_cpus() {
        let mut sim = node(2);
        let t = Trace::new(0);
        sim.run(&[&t]);
    }

    #[test]
    #[should_panic(expected = "communication operation")]
    fn comm_ops_rejected_in_shared_memory_run() {
        let mut sim = node(1);
        let t = Trace::from_ops(0, vec![Operation::Send { bytes: 4, dst: 1 }]);
        sim.run(&[&t]);
    }

    #[test]
    fn two_cpus_contend_on_the_bus() {
        // Both CPUs stream loads from disjoint addresses: every miss takes
        // the bus, so the two-CPU run must take longer per CPU than a
        // single-CPU run of the same trace.
        let mk = |node: u32, base: u64| {
            Trace::from_ops(
                node,
                (0..50)
                    .map(|i| Operation::Load {
                        ty: DataType::I32,
                        addr: base + i * 64, // distinct lines
                    })
                    .collect(),
            )
        };
        let mut solo = node(1);
        let solo_r = solo.run(&[&mk(0, 0)]);

        let mut dual = node(2);
        let t0 = mk(0, 0);
        let t1 = mk(1, 1 << 20);
        let dual_r = dual.run(&[&t0, &t1]);
        assert!(dual_r.finish > solo_r.finish);
        assert!(dual_r.mem_stats.bus_wait > Duration::ZERO);
    }

    #[test]
    fn coherent_sharing_stays_consistent() {
        // Two CPUs ping-pong writes to one line.
        let ops = |_: u32| -> Vec<Operation> {
            (0..20)
                .map(|i| Operation::Store {
                    ty: DataType::I32,
                    addr: 0x1000 + (i % 4) * 4,
                })
                .collect()
        };
        let mut sim = node(2);
        let t0 = Trace::from_ops(0, ops(0));
        let t1 = Trace::from_ops(1, ops(1));
        let r = sim.run(&[&t0, &t1]);
        sim.memory().check_coherence(0x1000);
        let inv = r.mem_stats.l1d[0].snoop_invalidations + r.mem_stats.l1d[1].snoop_invalidations;
        assert!(inv > 0, "sharing must generate invalidations");
    }

    #[test]
    fn task_extraction_measures_compute_runs() {
        let mut sim = node(1);
        let mut ops = adds(10);
        ops.push(Operation::Send { bytes: 64, dst: 1 });
        ops.extend(adds(5));
        ops.push(Operation::Recv { src: 1 });
        let t = Trace::from_ops(0, ops);
        let x = sim.extract_tasks(&t);
        assert_eq!(x.task_trace.ops.len(), 4);
        assert_eq!(
            x.task_trace.ops[0],
            Operation::Compute {
                ps: Duration::from_ns(100).as_ps()
            }
        );
        assert_eq!(x.task_trace.ops[1], Operation::Send { bytes: 64, dst: 1 });
        assert_eq!(
            x.task_trace.ops[2],
            Operation::Compute {
                ps: Duration::from_ns(50).as_ps()
            }
        );
        assert_eq!(x.task_trace.ops[3], Operation::Recv { src: 1 });
        assert_eq!(x.compute_total, Duration::from_ns(150));
    }

    #[test]
    fn task_extraction_keeps_trailing_compute() {
        let mut sim = node(1);
        let mut ops = vec![Operation::Recv { src: 1 }];
        ops.extend(adds(3));
        let t = Trace::from_ops(0, ops);
        let x = sim.extract_tasks(&t);
        assert_eq!(x.task_trace.ops.len(), 2);
        assert!(matches!(x.task_trace.ops[0], Operation::Recv { .. }));
        assert!(matches!(x.task_trace.ops[1], Operation::Compute { .. }));
    }

    #[test]
    fn task_extraction_elides_empty_runs() {
        let mut sim = node(1);
        let t = Trace::from_ops(
            0,
            vec![
                Operation::Send { bytes: 1, dst: 1 },
                Operation::Send { bytes: 2, dst: 1 },
            ],
        );
        let x = sim.extract_tasks(&t);
        assert_eq!(x.task_trace.ops.len(), 2);
        assert!(x.task_trace.ops.iter().all(|o| o.is_global_event()));
        assert_eq!(x.compute_total, Duration::ZERO);
    }

    #[test]
    fn the_cutter_elides_zero_length_runs() {
        let mut cutter = TaskCutter::new(0, Time::from_ns(5));
        cutter.cut(Time::from_ns(5), Operation::Recv { src: 1 });
        cutter.cut(Time::from_ns(25), Operation::Send { bytes: 8, dst: 1 });
        let (trace, total) = cutter.finish(Time::from_ns(25));
        assert_eq!(
            trace.ops,
            vec![
                Operation::Recv { src: 1 },
                Operation::Compute {
                    ps: Duration::from_ns(20).as_ps()
                },
                Operation::Send { bytes: 8, dst: 1 },
            ]
        );
        assert_eq!(total, Duration::from_ns(20));
    }

    #[test]
    #[should_panic(expected = "single-CPU node")]
    fn task_extraction_requires_one_cpu() {
        let mut sim = node(2);
        sim.extract_tasks(&Trace::new(0));
    }

    #[test]
    fn footprint_is_reported() {
        assert!(node(4).footprint_bytes() > 0);
    }
}
