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
//! This module implements that baseline over the same traces so the
//! trade-off is measurable: local operations are folded into `compute`
//! tasks using fixed per-class cycle costs (no cache, bus, or DRAM model),
//! then only the communication is simulated. It is much faster than the
//! hybrid mode — and blind to the memory hierarchy, which the bench
//! harness demonstrates.

use mermaid_cpu::CpuParams;
use mermaid_network::{CommResult, CommSim};
use mermaid_ops::{NodeId, Operation, Trace, TraceSet};
use pearl::{Duration, Time};

use crate::machines::MachineConfig;
use crate::sweep;

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

    /// The statically-estimated cost of one computational operation.
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
            _ => Duration::ZERO,
        }
    }
}

/// Result of a direct-execution-style simulation.
#[derive(Debug)]
pub struct DirectExecResult {
    /// Predicted execution time.
    pub predicted_time: Time,
    /// Communication-model results.
    pub comm: CommResult,
    /// Operations processed (all of them — but local ones only summed).
    pub ops_processed: u64,
}

/// The direct-execution baseline simulator.
pub struct DirectExecSim {
    machine: MachineConfig,
    costs: DirectExecStaticCosts,
    /// `None`: one worker per host core.
    workers: Option<usize>,
}

impl DirectExecSim {
    /// Build the baseline for `machine` with costs derived from it.
    pub fn new(machine: MachineConfig) -> Self {
        machine.validate();
        let costs = DirectExecStaticCosts::from_machine(&machine);
        DirectExecSim {
            machine,
            costs,
            workers: None,
        }
    }

    /// Fold on at most `workers` threads (builder style) instead of one per
    /// host core. Results do not depend on it.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Statically fold one node's local operations into compute tasks.
    fn fold(&self, node: NodeId, ops: impl Iterator<Item = Operation>) -> Trace {
        let mut out = Trace::new(node);
        let mut acc = Duration::ZERO;
        ops.for_each(|op| {
            if op.is_global_event() {
                if !acc.is_zero() {
                    out.push(Operation::Compute { ps: acc.as_ps() });
                    acc = Duration::ZERO;
                }
                out.push(op);
            } else if let Operation::Compute { ps } = op {
                acc += Duration::from_ps(ps);
            } else {
                acc += self.costs.cost(op);
            }
        });
        if !acc.is_zero() {
            out.push(Operation::Compute { ps: acc.as_ps() });
        }
        out
    }

    /// Run the baseline over instruction-level traces.
    pub fn run(&self, traces: &TraceSet) -> DirectExecResult {
        self.run_streams(traces.iter().map(|t| t.iter().copied()))
    }

    /// Run the baseline over one stream of instruction-level operations
    /// per node, in node order; each is folded as it is pulled, on the work
    /// queue the detailed mode's computational phase uses.
    pub fn run_streams<I>(&self, streams: impl IntoIterator<Item = I>) -> DirectExecResult
    where
        I: Iterator<Item = Operation> + Send,
    {
        let streams = streams.into_iter().collect();
        let workers = self.workers.unwrap_or_else(sweep::auto_workers);
        let folded = sweep::run_ordered(streams, workers, |node, ops: I| {
            let mut ops_processed = 0u64;
            let trace = self.fold(node as NodeId, ops.inspect(|_| ops_processed += 1));
            (trace, ops_processed)
        });
        let ops_processed = folded.iter().map(|(_, ops)| ops).sum();
        let traces = folded.into_iter().map(|(trace, _)| trace).collect();
        let comm = CommSim::new(self.machine.network, &TraceSet::from_traces(traces)).run();
        DirectExecResult {
            predicted_time: comm.finish,
            comm,
            ops_processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridSim;
    use mermaid_network::Topology;
    use mermaid_ops::{ArithOp, DataType};
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
        let sim = DirectExecSim::new(machine(2));
        let folded = sim.fold(0, ts.trace(0).iter().copied());
        let orig_comm = ts.trace(0).stats().comm_ops();
        assert_eq!(folded.stats().comm_ops(), orig_comm);
        assert!(folded.iter().all(|o| !o.is_computational()));
    }

    #[test]
    fn baseline_runs_and_completes() {
        let ts = traces(4);
        let r = DirectExecSim::new(machine(4)).run(&ts);
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
        let direct = DirectExecSim::new(m).run(&ts);
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
        let direct = DirectExecSim::new(m).run(&ts);
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
        assert_eq!(c.cost(Operation::Compute { ps: 5 }), Duration::ZERO);
    }
}
