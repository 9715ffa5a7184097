//! The direct-execution baseline (experiment E4).
//!
//! Section 2 of the paper describes the *direct execution* technique used
//! by most contemporary simulators (Tango, Proteus, WWT): local
//! instructions run natively with their execution time **statically
//! estimated at compile time**, and only non-local (global) operations are
//! actually simulated. The paper rejects it because static costing cannot
//! model architecture features that affect local instructions — caches in
//! particular — "the performance evaluation of instruction or private data
//! caches can only be marginally performed by means of direct execution".
//!
//! This module holds that baseline's node model: local operations cost
//! fixed per-class cycle counts (no cache, bus, or DRAM model) and are cut
//! into `compute` tasks at the global events by the same
//! [`mermaid_cpu::TaskCutter`] the detailed mode uses. [`HybridSim::direct`]
//! puts it in front of the communication model in place of the cache
//! model, so a direct run takes every option a detailed run takes. It is
//! much faster than the detailed mode — and blind to the memory hierarchy,
//! which the bench harness demonstrates.
//!
//! [`HybridSim::direct`]: crate::HybridSim::direct

use mermaid_cpu::{CpuParams, CpuStats, TaskCutter, TaskExtraction};
use mermaid_memory::MemStats;
use mermaid_ops::{NodeId, Operation};
use pearl::{Duration, Time};

use crate::machines::MachineConfig;

/// Static per-operation costs used by the direct-execution estimator.
///
/// The estimator charges every memory access a *fixed* cost — it has no
/// cache model, so it must assume some average (here: the L1 hit cost, the
/// optimistic choice contemporary direct-execution systems made).
#[derive(Debug, Clone, Copy)]
pub struct DirectExecStaticCosts {
    /// CPU parameters (per-class cycle costs and the clock).
    pub cpu: CpuParams,
    /// Fixed charge for any load/store (no cache model).
    pub mem_access: Duration,
    /// Fixed charge for an instruction fetch.
    pub ifetch: Duration,
}

impl DirectExecStaticCosts {
    /// Derive the static costs a direct-execution port of `machine` would
    /// plausibly use: memory accesses cost one L1 hit.
    pub fn from_machine(machine: &MachineConfig) -> Self {
        DirectExecStaticCosts {
            cpu: machine.cpu,
            mem_access: machine.node_mem.l1d.hit_latency,
            ifetch: machine.node_mem.l1i.hit_latency,
        }
    }

    /// The statically-estimated cost of one operation that is not a global
    /// event. A pre-collapsed `compute` costs its own length, as on the
    /// cache model.
    pub fn cost(&self, op: Operation) -> Duration {
        let cycles = |n: u64| self.cpu.clock.cycles(n);
        match op {
            Operation::Load { .. } => cycles(self.cpu.load_cycles) + self.mem_access,
            Operation::Store { .. } => cycles(self.cpu.store_cycles) + self.mem_access,
            Operation::LoadConst { ty } => cycles(self.cpu.const_load_cycles(ty)),
            Operation::Arith { op, ty } => cycles(self.cpu.arith_cycles(op, ty)),
            Operation::IFetch { .. } => self.ifetch,
            Operation::Branch { .. } => cycles(self.cpu.branch_cycles),
            Operation::Call { .. } => cycles(self.cpu.call_cycles),
            Operation::Ret { .. } => cycles(self.cpu.ret_cycles),
            Operation::Compute { ps } => Duration::from_ps(ps),
            _ => Duration::ZERO,
        }
    }

    /// The static-cost node model: charge `node`'s operations their static
    /// costs and cut its timeline into tasks at its global events. It keeps
    /// no CPU or memory statistics.
    pub(crate) fn extract_tasks(
        &self,
        node: NodeId,
        ops: impl Iterator<Item = Operation>,
    ) -> TaskExtraction {
        let mut now = Time::ZERO;
        let mut cutter = TaskCutter::new(node, now);
        ops.for_each(|op| {
            if op.is_global_event() {
                cutter.cut(now, op);
            } else {
                now += self.cost(op);
            }
        });
        let (task_trace, compute_total) = cutter.finish(now);
        TaskExtraction {
            task_trace,
            cpu_stats: vec![CpuStats::default()],
            mem_stats: MemStats::default(),
            compute_total,
            compute_finish: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridSim;
    use mermaid_network::Topology;
    use mermaid_ops::{ArithOp, DataType, TraceSet};
    use mermaid_tracegen::{CommPattern, SizeDist, StochasticApp, StochasticGenerator};

    fn machine(n: u32) -> MachineConfig {
        MachineConfig::test_machine(Topology::Ring(n))
    }

    fn traces(n: u32) -> TraceSet {
        let app = StochasticApp {
            phases: 3,
            ops_per_phase: SizeDist::Fixed(400),
            pattern: CommPattern::NearestNeighborRing,
            ..StochasticApp::scientific(n)
        };
        StochasticGenerator::new(app, 21).generate()
    }

    #[test]
    fn folding_preserves_global_events() {
        let ts = traces(2);
        let costs = DirectExecStaticCosts::from_machine(&machine(2));
        let folded = costs
            .extract_tasks(0, ts.trace(0).iter().copied())
            .task_trace;
        let orig_comm = ts.trace(0).stats().comm_ops();
        assert_eq!(folded.stats().comm_ops(), orig_comm);
        assert!(folded.iter().all(|o| !o.is_computational()));
    }

    #[test]
    fn baseline_runs_and_completes() {
        let ts = traces(4);
        let r = HybridSim::direct(machine(4)).run(&ts);
        assert!(r.comm.all_done);
        assert!(r.predicted_time > Time::ZERO);
    }

    #[test]
    fn baseline_underestimates_memory_bound_work() {
        // A trace hammering random memory (cache-hostile): the hybrid model
        // sees misses; the static estimator charges L1 hits for everything
        // and must predict a shorter time.
        let mut ts = TraceSet::new(2);
        for node in 0..2u32 {
            for i in 0..2000u64 {
                ts.trace_mut(node).push(Operation::Load {
                    ty: DataType::F64,
                    addr: (i * 7919) % (1 << 22), // stride defeats the 4 KiB cache
                });
            }
            ts.trace_mut(node).push(Operation::ASend {
                bytes: 8,
                dst: (node + 1) % 2,
            });
            ts.trace_mut(node).push(Operation::Recv {
                src: (node + 1) % 2,
            });
        }
        let m = machine(2);
        let hybrid = HybridSim::new(m.clone()).run(&ts);
        let direct = HybridSim::direct(m).run(&ts);
        assert!(
            direct.predicted_time < hybrid.predicted_time,
            "direct {} should be optimistic vs hybrid {}",
            direct.predicted_time,
            hybrid.predicted_time
        );
        // And substantially so (the whole point of the comparison): at
        // least 2× here.
        assert!(direct.predicted_time.as_ps() * 2 < hybrid.predicted_time.as_ps());
    }

    #[test]
    fn baseline_agrees_on_pure_register_work() {
        // Register-only arithmetic has no memory behaviour to mispredict:
        // both models should agree exactly.
        let mut ts = TraceSet::new(2);
        for node in 0..2u32 {
            for _ in 0..500 {
                ts.trace_mut(node).push(Operation::Arith {
                    op: ArithOp::Add,
                    ty: DataType::I32,
                });
            }
            ts.trace_mut(node).push(Operation::ASend {
                bytes: 8,
                dst: (node + 1) % 2,
            });
            ts.trace_mut(node).push(Operation::Recv {
                src: (node + 1) % 2,
            });
        }
        let m = machine(2);
        let hybrid = HybridSim::new(m.clone()).run(&ts);
        let direct = HybridSim::direct(m).run(&ts);
        assert_eq!(hybrid.predicted_time, direct.predicted_time);
    }

    #[test]
    fn static_costs_match_cpu_parameters() {
        let m = machine(2);
        let c = DirectExecStaticCosts::from_machine(&m);
        // uniform_test CPU: 1 cycle at 100 MHz = 10 ns.
        assert_eq!(
            c.cost(Operation::Arith {
                op: ArithOp::Mul,
                ty: DataType::I32
            }),
            Duration::from_ns(10)
        );
        // Load: issue (10 ns) + assumed L1 hit (10 ns).
        assert_eq!(
            c.cost(Operation::Load {
                ty: DataType::I32,
                addr: 0
            }),
            Duration::from_ns(20)
        );
        assert_eq!(c.cost(Operation::Compute { ps: 5 }), Duration::from_ps(5));
    }
}
