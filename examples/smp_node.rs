//! Shared-memory multiprocessor study (paper Section 4.3, Fig. 3a).
//!
//! "By only using the computational model and configuring it with multiple
//! processors, a shared memory multiprocessor can be simulated." We sweep
//! the processor count of a PowerPC-601-class node and watch speedup, bus
//! utilisation, and coherence traffic — the design questions a snoopy-bus
//! SMP architect asks.
//!
//! Run with: `cargo run --release --example smp_node`

use mermaid::prelude::*;
use mermaid_cpu::SingleNodeSim;
use mermaid_stats::table::Align;
use mermaid_stats::Table;

/// Build one CPU's computational trace: a private working set plus a
/// shared, contended region (the coherence stressor).
fn cpu_trace(cpu: u32, ops: usize, seed: u64) -> Trace {
    use mermaid_tracegen::{InstructionMix, SizeDist, StochasticApp, StochasticGenerator};
    let app = StochasticApp {
        nodes: 1,
        phases: 1,
        ops_per_phase: SizeDist::Fixed(ops as u64),
        mix: InstructionMix::scientific(),
        working_set: 64 * 1024,
        seq_permille: 800,
        loop_body_ops: 10,
        loop_iters: 25,
        pattern: CommPattern::None,
        msg_bytes: SizeDist::Fixed(0),
        task_ps: SizeDist::Fixed(0),
    };
    let mut t = StochasticGenerator::new(app, seed + cpu as u64)
        .generate()
        .trace(0)
        .clone();
    // All CPUs live on node 0 in the shared-memory model.
    t.node = 0;
    // Interleave stores to a shared counter array every ~50 ops to create
    // coherence traffic between the CPUs.
    let shared_base = 0x4000_0000u64;
    let mut with_sharing = Trace::new(0);
    for (i, &op) in t.iter().enumerate() {
        with_sharing.push(op);
        if i % 50 == 49 {
            with_sharing.push(Operation::Store {
                ty: mermaid_ops::DataType::I64,
                addr: shared_base + ((i / 50) as u64 % 8) * 8,
            });
        }
    }
    with_sharing
}

fn main() {
    let ops_per_cpu = 20_000;
    let mut table = Table::new([
        "CPUs",
        "finish",
        "speedup",
        "bus util%",
        "l1d hit%",
        "invalidations",
        "snoop flushes",
    ])
    .with_aligns(vec![
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);

    let mut base_finish = None;
    for cpus in [1usize, 2, 4, 8] {
        let machine = MachineConfig::powerpc601_node(cpus);
        let mut sim = SingleNodeSim::new(machine.cpu, machine.node_mem.clone());
        let traces: Vec<Trace> = (0..cpus as u32)
            .map(|c| cpu_trace(c, ops_per_cpu, 77))
            .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let r = sim.run(&refs);

        let total_work: u64 = r.cpu_stats.iter().map(|s| s.ops.total).sum();
        // Throughput in operations per simulated second; speedup is
        // throughput relative to the single-CPU configuration.
        let throughput = total_work as f64 / r.finish.as_secs_f64();
        let base = *base_finish.get_or_insert(throughput);
        let speedup = throughput / base;

        let bus_util = 100.0 * r.mem_stats.bus_busy.as_ps() as f64 / r.finish.as_ps() as f64;
        let l1d_hits: u64 = r.mem_stats.l1d.iter().map(|s| s.hits).sum();
        let l1d_misses: u64 = r.mem_stats.l1d.iter().map(|s| s.misses).sum();
        let inv: u64 = r.mem_stats.l1d.iter().map(|s| s.snoop_invalidations).sum();
        let flushes: u64 = r.mem_stats.l1d.iter().map(|s| s.snoop_flushes).sum();
        table.row([
            cpus.to_string(),
            format!("{}", r.finish),
            format!("{speedup:.2}"),
            format!("{bus_util:.1}"),
            format!(
                "{:.1}",
                100.0 * l1d_hits as f64 / (l1d_hits + l1d_misses) as f64
            ),
            inv.to_string(),
            flushes.to_string(),
        ]);
    }
    println!("PowerPC 601 SMP node, {ops_per_cpu} traced ops per CPU\n");
    println!("{}", table.render());
    println!("Speedup is throughput relative to one CPU; sub-linear growth");
    println!("comes from bus arbitration and coherence misses on the shared array.");
}
