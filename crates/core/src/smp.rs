//! Hybrid architectures: shared-memory multiprocessor nodes behind the
//! message-passing network (paper, Section 4.3).
//!
//! "Hybrid architectures can be modelled by both defining multiple
//! processors on a node and using the communication model to interconnect
//! the clusters of shared memory multiprocessors in a message-passing
//! network."
//!
//! Per node, `cpus` processors share the node's cache hierarchy, bus, and
//! DRAM (full contention and coherence). Processor 0 of each node is the
//! *communication processor*: only its trace may contain communication
//! operations, and the node's task-level trace is cut from its timeline.
//! The other processors contribute pure computation — and, through the
//! shared bus, memory contention that stretches processor 0's tasks.
//!
//! Model approximation (documented): task extraction is open-loop per node,
//! so the stall a *blocking* communication imposes on processor 0 is not
//! propagated into the other processors' bus schedules. Intra-node
//! contention is modelled as if all processors free-run; the communication
//! delays are then resolved by the network model.

use mermaid_cpu::{Cpu, CpuStats, TaskCutter};
use mermaid_memory::{MemStats, MemorySystem};
use mermaid_network::{CommResult, CommSim};
use mermaid_ops::{NodeId, Trace, TraceSet};
use pearl::{Duration, Time};

use crate::machines::MachineConfig;

/// The workload of a hybrid machine: for each node, one instruction-level
/// trace per processor. Only processor 0's trace may contain communication
/// operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmpWorkload {
    /// `per_node[n][c]` is the trace of processor `c` on node `n`.
    pub per_node: Vec<Vec<Trace>>,
}

impl SmpWorkload {
    /// Validate shape and the comm-processor restriction.
    pub fn validate(&self, nodes: u32, cpus: usize) {
        assert_eq!(self.per_node.len(), nodes as usize, "node count mismatch");
        for (n, node) in self.per_node.iter().enumerate() {
            assert_eq!(
                node.len(),
                cpus,
                "node {n} has {} traces, machine has {cpus} CPUs",
                node.len()
            );
            for (c, trace) in node.iter().enumerate().skip(1) {
                assert!(
                    trace.iter().all(|o| !o.is_global_event()),
                    "node {n} CPU {c}: only processor 0 may communicate"
                );
            }
        }
    }

    /// Total operations across all nodes and processors.
    pub fn total_ops(&self) -> usize {
        self.per_node
            .iter()
            .flat_map(|n| n.iter().map(Trace::len))
            .sum()
    }
}

/// Per-node statistics of a hybrid run.
#[derive(Debug)]
pub struct SmpNodeStats {
    /// The node.
    pub node: NodeId,
    /// Per-processor CPU statistics.
    pub cpu: Vec<CpuStats>,
    /// The node's shared memory-system statistics.
    pub mem: MemStats,
    /// Task time extracted from processor 0.
    pub compute_total: Duration,
    /// Finish time of the slowest processor's computational phase.
    pub compute_finish: Time,
}

/// Result of a hybrid (SMP-nodes) simulation.
#[derive(Debug)]
pub struct SmpHybridResult {
    /// Predicted execution time (communication model's finish, lower-
    /// bounded by the slowest node's pure computation).
    pub predicted_time: Time,
    /// Per-node computational statistics.
    pub nodes: Vec<SmpNodeStats>,
    /// The task-level traces cut from each node's processor 0.
    pub task_traces: TraceSet,
    /// Communication-model results.
    pub comm: CommResult,
}

/// The hybrid-architecture simulator.
pub struct SmpHybridSim {
    machine: MachineConfig,
}

impl SmpHybridSim {
    /// Create a simulator for a machine whose nodes have
    /// `machine.node_mem.cpus` processors.
    pub fn new(machine: MachineConfig) -> Self {
        machine.validate();
        SmpHybridSim { machine }
    }

    /// Run the hybrid simulation.
    pub fn run(&self, workload: &SmpWorkload) -> SmpHybridResult {
        let nodes = self.machine.nodes();
        let cpus = self.machine.node_mem.cpus;
        workload.validate(nodes, cpus);

        let mut task_traces = Vec::with_capacity(nodes as usize);
        let mut node_stats = Vec::with_capacity(nodes as usize);
        for (n, traces) in workload.per_node.iter().enumerate() {
            let (task, stats) = self.extract_node(n as NodeId, traces);
            task_traces.push(task);
            node_stats.push(stats);
        }
        let task_traces = TraceSet::from_traces(task_traces);
        let comm = CommSim::new(self.machine.network, &task_traces).run();
        // A node's non-communicating processors may outlast processor 0's
        // trace; the machine is done when both the network and every
        // processor are.
        let compute_floor = node_stats
            .iter()
            .map(|s| s.compute_finish)
            .fold(Time::ZERO, Time::max);
        SmpHybridResult {
            predicted_time: comm.finish.max(compute_floor),
            nodes: node_stats,
            task_traces,
            comm,
        }
    }

    /// Run one node's processors to completion on a shared memory system,
    /// cutting processor 0's timeline into tasks at its global events.
    fn extract_node(&self, node: NodeId, traces: &[Trace]) -> (Trace, SmpNodeStats) {
        let cpus = traces.len();
        let mut mem = MemorySystem::new(self.machine.node_mem.clone());
        let mut cpu: Vec<Cpu> = (0..cpus).map(|i| Cpu::new(self.machine.cpu, i)).collect();
        let mut cursor = vec![0usize; cpus];
        let mut cutter = TaskCutter::new(node, Time::ZERO);
        loop {
            let next = (0..cpus)
                .filter(|&i| cursor[i] < traces[i].len())
                .min_by_key(|&i| (cpu[i].now(), i));
            let Some(i) = next else { break };
            let op = traces[i].ops[cursor[i]];
            cursor[i] += 1;
            if op.is_global_event() {
                debug_assert_eq!(i, 0, "validate() enforced comm on CPU 0 only");
                cutter.cut(cpu[0].now(), op);
            } else {
                cpu[i].execute(op, &mut mem);
            }
        }
        let (task, compute_total) = cutter.finish(cpu[0].now());
        let compute_finish = cpu.iter().map(Cpu::now).fold(Time::ZERO, Time::max);
        let stats = SmpNodeStats {
            node,
            cpu: cpu.iter().map(|c| c.stats().clone()).collect(),
            mem: mem.stats(),
            compute_total,
            compute_finish,
        };
        (task, stats)
    }
}

/// Build a hybrid workload from a generator function: `f(node, cpu)` yields
/// each processor's trace.
pub fn build_workload(
    nodes: u32,
    cpus: usize,
    mut f: impl FnMut(NodeId, usize) -> Trace,
) -> SmpWorkload {
    SmpWorkload {
        per_node: (0..nodes)
            .map(|n| {
                (0..cpus)
                    .map(|c| {
                        let mut t = f(n, c);
                        t.node = n;
                        t
                    })
                    .collect()
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mermaid_network::Topology;
    use mermaid_ops::{ArithOp, DataType, Operation};

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

    fn ring_workload(nodes: u32, cpus: usize, ops: usize) -> SmpWorkload {
        build_workload(nodes, cpus, |node, cpu| {
            let mut t = Trace::from_ops(node, compute_ops(ops, (node as u64) << 8 | cpu as u64));
            if cpu == 0 {
                t.push(Operation::ASend {
                    bytes: 1024,
                    dst: (node + 1) % nodes,
                });
                t.push(Operation::Recv {
                    src: (node + nodes - 1) % nodes,
                });
            }
            t
        })
    }

    fn machine(nodes: u32, cpus: usize) -> MachineConfig {
        let mut m = MachineConfig::test_machine(Topology::Ring(nodes));
        m.node_mem.cpus = cpus;
        m
    }

    #[test]
    fn hybrid_cluster_runs_end_to_end() {
        let m = machine(4, 2);
        let w = ring_workload(4, 2, 500);
        let r = SmpHybridSim::new(m).run(&w);
        assert!(r.comm.all_done);
        assert!(r.predicted_time > Time::ZERO);
        assert_eq!(r.nodes.len(), 4);
        assert_eq!(r.nodes[0].cpu.len(), 2);
        // Both CPUs did work.
        assert!(r.nodes[0].cpu[1].ops.total > 0);
    }

    #[test]
    fn second_processor_contends_on_the_node_bus() {
        // Same node-0 workload; adding a busy second CPU must stretch the
        // communication processor's tasks (bus contention).
        let w1 = build_workload(2, 1, |node, _| {
            let mut t = Trace::from_ops(node, compute_ops(2_000, node as u64));
            if node == 0 {
                t.push(Operation::ASend { bytes: 64, dst: 1 });
            } else {
                t.push(Operation::Recv { src: 0 });
            }
            t
        });
        let w2 = build_workload(2, 2, |node, cpu| {
            if cpu == 0 {
                let mut t = Trace::from_ops(node, compute_ops(2_000, node as u64));
                if node == 0 {
                    t.push(Operation::ASend { bytes: 64, dst: 1 });
                } else {
                    t.push(Operation::Recv { src: 0 });
                }
                t
            } else {
                // A memory-hammering sibling.
                Trace::from_ops(
                    node,
                    (0..4_000u64)
                        .map(|i| Operation::Load {
                            ty: DataType::F64,
                            addr: (1 << 20) | ((i * 64) % (1 << 18)),
                        })
                        .collect(),
                )
            }
        });
        let r1 = SmpHybridSim::new(machine(2, 1)).run(&w1);
        let r2 = SmpHybridSim::new(machine(2, 2)).run(&w2);
        assert!(
            r2.nodes[0].compute_total > r1.nodes[0].compute_total,
            "contention must stretch CPU 0's tasks: {} vs {}",
            r2.nodes[0].compute_total,
            r1.nodes[0].compute_total
        );
    }

    #[test]
    fn single_cpu_smp_matches_plain_hybrid() {
        // With one CPU per node the SMP path must agree with HybridSim.
        let w = ring_workload(3, 1, 800);
        let m = machine(3, 1);
        let smp = SmpHybridSim::new(m.clone()).run(&w);
        let flat =
            TraceSet::from_traces(w.per_node.iter().map(|n| n[0].clone()).collect::<Vec<_>>());
        let hybrid = crate::hybrid::HybridSim::new(m).run(&flat);
        assert_eq!(smp.predicted_time, hybrid.predicted_time);
        assert_eq!(smp.task_traces, hybrid.task_traces);
    }

    #[test]
    fn every_node_model_merges_a_pre_collapsed_compute_into_its_run() {
        // add ×10, compute 500 ps, add ×5, send: one 150.5 ns task before
        // the send on the cache model, the static model and a 1-CPU SMP
        // node alike.
        let add = Operation::Arith {
            op: ArithOp::Add,
            ty: DataType::I32,
        };
        let w = build_workload(2, 1, |node, _| {
            let mut ops = vec![add; 10];
            ops.push(Operation::Compute { ps: 500 });
            ops.extend([add; 5]);
            ops.push(if node == 0 {
                Operation::Send { bytes: 8, dst: 1 }
            } else {
                Operation::Recv { src: 0 }
            });
            Trace::from_ops(node, ops)
        });
        let flat = TraceSet::from_traces(w.per_node.iter().map(|n| n[0].clone()).collect());
        let m = machine(2, 1);
        let smp = SmpHybridSim::new(m.clone()).run(&w);
        let cache = crate::hybrid::HybridSim::new(m.clone()).run(&flat);
        let direct = crate::hybrid::HybridSim::direct(m).run(&flat);
        let run = Duration::from_ns(150) + Duration::from_ps(500);
        assert_eq!(
            smp.task_traces.trace(0).ops,
            [
                Operation::Compute { ps: run.as_ps() },
                Operation::Send { bytes: 8, dst: 1 }
            ]
        );
        assert_eq!(cache.task_traces, smp.task_traces);
        assert_eq!(direct.task_traces, smp.task_traces);
        assert_eq!(smp.nodes[0].compute_total, run);
        assert_eq!(cache.nodes[0].compute_total, run);
        assert_eq!(direct.nodes[0].compute_total, run);
    }

    #[test]
    #[should_panic(expected = "only processor 0 may communicate")]
    fn non_zero_cpus_may_not_communicate() {
        let w = build_workload(2, 2, |node, cpu| {
            let mut t = Trace::new(node);
            if cpu == 1 {
                t.push(Operation::Recv { src: 0 });
            }
            t
        });
        SmpHybridSim::new(machine(2, 2)).run(&w);
    }

    #[test]
    fn compute_floor_covers_long_running_siblings() {
        // CPU 1 computes far past CPU 0's last communication; the predicted
        // time must cover it.
        let w = build_workload(2, 2, |node, cpu| {
            if cpu == 0 {
                let mut t = Trace::new(node);
                if node == 0 {
                    t.push(Operation::ASend { bytes: 8, dst: 1 });
                } else {
                    t.push(Operation::Recv { src: 0 });
                }
                t
            } else {
                Trace::from_ops(node, compute_ops(50_000, 3))
            }
        });
        let r = SmpHybridSim::new(machine(2, 2)).run(&w);
        assert!(r.predicted_time >= r.nodes[0].compute_finish);
        assert!(r.nodes[0].compute_finish > r.comm.finish.min(r.nodes[0].compute_finish));
    }
}
