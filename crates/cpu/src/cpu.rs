//! The CPU component: executes computational operations against the
//! memory hierarchy.

use mermaid_memory::{Access, AccessReport, MemorySystem};
use mermaid_ops::{Operation, TraceStats};
use pearl::{Duration, Time};

use crate::params::CpuParams;

/// Execution statistics of one CPU.
#[derive(Debug, Clone, Default)]
pub struct CpuStats {
    /// Operation mix executed.
    pub ops: TraceStats,
    /// Time spent in pure computation (non-memory cycles).
    pub compute_time: Duration,
    /// Time spent waiting on the memory hierarchy (loads/stores/ifetches).
    pub memory_time: Duration,
}

/// One microprocessor of a node.
///
/// The CPU owns a local virtual clock. [`Cpu::execute`] advances it by the
/// cost of one operation; memory operations are timed by the shared
/// [`MemorySystem`], so two CPUs of the same node interact through bus
/// contention and coherence.
#[derive(Debug)]
pub struct Cpu {
    params: CpuParams,
    /// Index of this CPU within its node's memory system.
    mem_port: usize,
    now: Time,
    stats: CpuStats,
}

impl Cpu {
    /// A CPU with its clock at zero, attached to memory port `mem_port`.
    pub fn new(params: CpuParams, mem_port: usize) -> Self {
        Cpu {
            params,
            mem_port,
            now: Time::ZERO,
            stats: CpuStats::default(),
        }
    }

    /// The CPU's machine parameters.
    pub fn params(&self) -> &CpuParams {
        &self.params
    }

    /// The CPU's local virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Execute one operation that is not a global event, advancing the
    /// local clock. Returns the operation's latency. A pre-collapsed
    /// `compute` costs its own length: it is computation whose timing was
    /// fixed before the trace reached this model.
    ///
    /// Panics on communication operations — those belong to the
    /// communication model; the caller (node simulator / hybrid bridge)
    /// must intercept them.
    pub fn execute(&mut self, op: Operation, mem: &mut MemorySystem) -> Duration {
        debug_assert!(
            !op.is_global_event(),
            "communication operation {op} reached the CPU model"
        );
        self.stats.ops.record(op);
        let clock = self.params.clock;
        let cycles = move |n: u64| clock.cycles(n);
        let latency = match op {
            Operation::Load { ty, addr } => {
                let r = self.mem(mem, Access::Read, addr, ty.bytes() as u32);
                cycles(self.params.load_cycles) + r.latency
            }
            Operation::Store { ty, addr } => {
                let r = self.mem(mem, Access::Write, addr, ty.bytes() as u32);
                cycles(self.params.store_cycles) + r.latency
            }
            Operation::LoadConst { ty } => {
                let d = cycles(self.params.const_load_cycles(ty));
                self.stats.compute_time += d;
                d
            }
            Operation::Arith { op: a, ty } => {
                let d = cycles(self.params.arith_cycles(a, ty));
                self.stats.compute_time += d;
                d
            }
            Operation::IFetch { addr } => {
                let r = self.mem(mem, Access::IFetch, addr, 4);
                r.latency
            }
            Operation::Branch { .. } => {
                let d = cycles(self.params.branch_cycles);
                self.stats.compute_time += d;
                d
            }
            Operation::Call { .. } => {
                let d = cycles(self.params.call_cycles);
                self.stats.compute_time += d;
                d
            }
            Operation::Ret { .. } => {
                let d = cycles(self.params.ret_cycles);
                self.stats.compute_time += d;
                d
            }
            Operation::Compute { ps } => {
                let d = Duration::from_ps(ps);
                self.stats.compute_time += d;
                d
            }
            _ => panic!("communication operation {op} reached the CPU model"),
        };
        self.now += latency;
        latency
    }

    fn mem(&mut self, mem: &mut MemorySystem, kind: Access, addr: u64, size: u32) -> AccessReport {
        let r = mem.access(self.mem_port, kind, addr, size, self.now);
        self.stats.memory_time += r.latency;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mermaid_memory::MemSystemConfig;
    use mermaid_ops::{ArithOp, DataType};

    fn setup() -> (Cpu, MemorySystem) {
        (
            Cpu::new(CpuParams::uniform_test(), 0),
            MemorySystem::new(MemSystemConfig::small(1)),
        )
    }

    #[test]
    fn arithmetic_advances_one_cycle() {
        let (mut cpu, mut mem) = setup();
        let d = cpu.execute(
            Operation::Arith {
                op: ArithOp::Add,
                ty: DataType::I32,
            },
            &mut mem,
        );
        // 100 MHz → 10 ns.
        assert_eq!(d, Duration::from_ns(10));
        assert_eq!(cpu.now(), Time::from_ns(10));
        assert_eq!(cpu.stats().compute_time, Duration::from_ns(10));
    }

    #[test]
    fn loads_pay_issue_plus_memory() {
        let (mut cpu, mut mem) = setup();
        let d = cpu.execute(
            Operation::Load {
                ty: DataType::I32,
                addr: 0x100,
            },
            &mut mem,
        );
        // Cold miss: issue 10 ns + (probe 10 + bus 100 + dram 200) ns.
        assert_eq!(d, Duration::from_ns(10 + 310));
        // Warm hit: issue + L1 hit.
        let d2 = cpu.execute(
            Operation::Load {
                ty: DataType::I32,
                addr: 0x104,
            },
            &mut mem,
        );
        assert_eq!(d2, Duration::from_ns(10 + 10));
        assert!(cpu.stats().memory_time > Duration::ZERO);
    }

    #[test]
    fn ifetch_hits_the_icache() {
        let (mut cpu, mut mem) = setup();
        cpu.execute(Operation::IFetch { addr: 0x40 }, &mut mem);
        let d = cpu.execute(Operation::IFetch { addr: 0x44 }, &mut mem);
        assert_eq!(d, Duration::from_ns(10));
        assert_eq!(mem.stats().l1i[0].hits, 1);
    }

    #[test]
    #[should_panic(expected = "communication operation")]
    fn communication_ops_are_rejected() {
        let (mut cpu, mut mem) = setup();
        cpu.execute(Operation::Send { bytes: 8, dst: 1 }, &mut mem);
    }

    #[test]
    fn a_pre_collapsed_compute_costs_its_own_length() {
        let (mut cpu, mut mem) = setup();
        let d = cpu.execute(Operation::Compute { ps: 5_000_000 }, &mut mem);
        assert_eq!(d, Duration::from_us(5));
        assert_eq!(cpu.now(), Time::from_us(5));
        assert_eq!(cpu.stats().compute_time, Duration::from_us(5));
    }

    #[test]
    fn stats_track_the_mix() {
        let (mut cpu, mut mem) = setup();
        cpu.execute(Operation::LoadConst { ty: DataType::I32 }, &mut mem);
        cpu.execute(
            Operation::Arith {
                op: ArithOp::Mul,
                ty: DataType::F64,
            },
            &mut mem,
        );
        cpu.execute(Operation::Branch { addr: 0 }, &mut mem);
        assert_eq!(cpu.stats().ops.total, 3);
        assert_eq!(cpu.stats().ops.float_arith, 1);
        assert_eq!(cpu.stats().ops.control, 1);
    }

    #[test]
    fn t805_is_slower_than_ppc601_on_float_work() {
        let mut t805 = Cpu::new(CpuParams::t805(), 0);
        let mut ppc = Cpu::new(CpuParams::powerpc601(), 0);
        let mut mem1 = MemorySystem::new(MemSystemConfig::small(1));
        let mut mem2 = MemorySystem::new(MemSystemConfig::small(1));
        let op = Operation::Arith {
            op: ArithOp::Mul,
            ty: DataType::F64,
        };
        let d1 = t805.execute(op, &mut mem1);
        let d2 = ppc.execute(op, &mut mem2);
        assert!(d1 > d2);
    }
}
