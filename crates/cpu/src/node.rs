//! The single-node computational model (paper, Fig. 3a): one or more CPUs
//! sharing a cache hierarchy, bus, and memory.
//!
//! One loop pulls one operation stream per CPU and interleaves the CPUs in
//! virtual-time order, so that bus arbitration and coherence traffic are
//! resolved in the order they would occur on the target (Section 4.3). Two
//! uses:
//!
//! * [`SingleNodeSim::run`] — simulate a shared-memory multiprocessor node
//!   over computational traces.
//! * [`SingleNodeSim::extract_streams`] — the hybrid-model bridge (Fig. 2):
//!   run one node's streams and measure the simulated time between
//!   processor 0's communication operations, producing the task-level trace
//!   (`compute`/`send`/`recv`) that drives the multi-node communication
//!   model. The cut itself is [`TaskCutter`], shared with every other node
//!   model. The node's other processors only compute; through the shared
//!   bus they stretch processor 0's tasks.
//!
//! Model approximation (documented): extraction is open loop per node, so
//! the stall a *blocking* communication imposes on processor 0 is not
//! propagated into the other processors' bus schedules. Intra-node
//! contention is modelled as if all processors free-run; the communication
//! delays are then resolved by the network model.

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
    /// Per-CPU statistics of the computational simulation that produced it.
    pub cpu_stats: Vec<CpuStats>,
    /// Memory-system statistics of that simulation.
    pub mem_stats: MemStats,
    /// Total simulated computation time.
    pub compute_total: Duration,
    /// Virtual time at which the node's last CPU finished.
    pub compute_finish: Time,
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
        self.interleave(traces.iter().map(|t| t.iter().copied()), |cpu, _, op| {
            panic!("node {cpu} trace contains communication operation {op}; use the hybrid model")
        });
        NodeResult {
            finish: self.finish(),
            cpu_finish: self.cpus.iter().map(Cpu::now).collect(),
            cpu_stats: self.cpu_stats(),
            mem_stats: self.mem.stats(),
        }
    }

    /// Hybrid-model bridge: run one operation stream per CPU of `node` and
    /// split processor 0's timeline into computational tasks at its global
    /// events with a [`TaskCutter`] (Fig. 2). Communication operations pass
    /// through unchanged; runs of computational operations become
    /// `compute(duration)` with the *simulated* duration measured by this
    /// computational model. Each stream is pulled to its end.
    ///
    /// # Panics
    ///
    /// On a stream count other than the CPU count, and on a global event in
    /// any stream but processor 0's.
    pub fn extract_streams<S>(
        &mut self,
        node: NodeId,
        streams: impl IntoIterator<Item = S>,
    ) -> TaskExtraction
    where
        S: Iterator<Item = Operation>,
    {
        let mut cutter = TaskCutter::new(node, self.cpus[0].now());
        self.interleave(streams, |cpu, now, op| {
            assert!(
                cpu == 0,
                "node {node} CPU {cpu}: only processor 0 may communicate"
            );
            cutter.cut(now, op);
        });
        let (task_trace, compute_total) = cutter.finish(self.cpus[0].now());
        TaskExtraction {
            task_trace,
            cpu_stats: self.cpu_stats(),
            mem_stats: self.mem.stats(),
            compute_total,
            compute_finish: self.finish(),
        }
    }

    /// [`SingleNodeSim::extract_streams`] over one trace on a one-CPU node.
    pub fn extract_tasks(&mut self, trace: &Trace) -> TaskExtraction {
        self.extract_streams(trace.node, [trace.iter().copied()])
    }

    /// The one interleaving loop: pull the next operation from the
    /// unfinished CPU with the smallest local clock (ties break towards
    /// the lower CPU index, deterministically), execute it, or hand a
    /// global event to `global(cpu, clock, op)`. Once one stream is left it
    /// is walked by internal iteration (`for_each`), which a stream that
    /// overrides `fold` serves as fast as a slice.
    fn interleave<S>(
        &mut self,
        streams: impl IntoIterator<Item = S>,
        mut global: impl FnMut(usize, Time, Operation),
    ) where
        S: Iterator<Item = Operation>,
    {
        let mut streams: Vec<Option<S>> = streams.into_iter().map(Some).collect();
        assert_eq!(
            streams.len(),
            self.cpus.len(),
            "need one trace per CPU ({} traces, {} CPUs)",
            streams.len(),
            self.cpus.len()
        );
        let mut live = streams.len();
        while live > 1 {
            let i = (0..streams.len())
                .filter(|&i| streams[i].is_some())
                .min_by_key(|&i| (self.cpus[i].now(), i))
                .expect("two streams are live");
            match streams[i].as_mut().and_then(Iterator::next) {
                Some(op) => step(&mut self.cpus[i], &mut self.mem, i, op, &mut global),
                None => {
                    streams[i] = None;
                    live -= 1;
                }
            }
        }
        if let Some((i, last)) = streams
            .into_iter()
            .enumerate()
            .find_map(|(i, s)| Some((i, s?)))
        {
            let (cpu, mem) = (&mut self.cpus[i], &mut self.mem);
            last.for_each(|op| step(cpu, mem, i, op, &mut global));
        }
    }

    fn finish(&self) -> Time {
        self.cpus.iter().map(Cpu::now).fold(Time::ZERO, Time::max)
    }

    fn cpu_stats(&self) -> Vec<CpuStats> {
        self.cpus.iter().map(|c| c.stats().clone()).collect()
    }
}

/// One operation of CPU `i`: a global event goes to `global` with the
/// CPU's clock, anything else runs on the CPU.
#[inline]
fn step(
    cpu: &mut Cpu,
    mem: &mut MemorySystem,
    i: usize,
    op: Operation,
    global: &mut impl FnMut(usize, Time, Operation),
) {
    if op.is_global_event() {
        global(i, cpu.now(), op);
    } else {
        cpu.execute(op, mem);
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
    fn multi_cpu_extraction_cuts_processor_0_and_runs_the_others() {
        // CPU 0: 10 adds, send, 5 adds; CPU 1: 30 adds and nothing else.
        // With no memory operations the CPUs do not interact: the tasks are
        // CPU 0's runs, and the node finishes with CPU 1 at 300 ns.
        let mut sim = node(2);
        let mut cpu0 = adds(10);
        cpu0.push(Operation::Send { bytes: 64, dst: 1 });
        cpu0.extend(adds(5));
        let x = sim.extract_streams(0, [cpu0.into_iter(), adds(30).into_iter()]);
        assert_eq!(
            x.task_trace.ops,
            vec![
                Operation::Compute {
                    ps: Duration::from_ns(100).as_ps()
                },
                Operation::Send { bytes: 64, dst: 1 },
                Operation::Compute {
                    ps: Duration::from_ns(50).as_ps()
                },
            ]
        );
        assert_eq!(x.compute_total, Duration::from_ns(150));
        assert_eq!(x.compute_finish, Time::from_ns(300));
        let ops: Vec<u64> = x.cpu_stats.iter().map(|s| s.ops.total).collect();
        assert_eq!(ops, [15, 30]);
    }

    #[test]
    fn footprint_is_reported() {
        assert!(node(4).footprint_bytes() > 0);
    }
}
