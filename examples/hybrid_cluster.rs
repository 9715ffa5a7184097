//! Hybrid architecture study (paper Section 4.3): clusters of shared-
//! memory multiprocessors in a message-passing network.
//!
//! Question a mid-90s architect would put to the workbench: for a fixed
//! budget of 16 processors, is it better to build 16 × 1-CPU nodes,
//! 8 × 2-CPU, or 4 × 4-CPU SMP nodes? Fewer nodes mean less network
//! traffic but more bus contention inside each node.
//!
//! Run with: `cargo run --release --example hybrid_cluster`

use mermaid::prelude::*;
use mermaid_stats::table::Align;
use mermaid_stats::Table;

/// Computational work per processor, mildly cache-hostile so the node bus
/// matters.
fn cpu_ops(seed: u64, ops: usize) -> Vec<Operation> {
    use mermaid_ops::{ArithOp, DataType};
    (0..ops)
        .map(|i| {
            let x = (i as u64).wrapping_mul(seed | 1).wrapping_add(i as u64);
            match x % 4 {
                0 => Operation::Load {
                    ty: DataType::F64,
                    addr: 0x100000 + (x * 64) % (256 << 10),
                },
                1 => Operation::Store {
                    ty: DataType::F64,
                    addr: 0x100000 + (x * 64) % (256 << 10),
                },
                _ => Operation::Arith {
                    op: ArithOp::Add,
                    ty: DataType::F64,
                },
            }
        })
        .collect()
}

fn main() {
    let total_cpus = 16u32;
    let total_ops = 400_000usize;
    println!("fixed budget: {total_cpus} PowerPC 601 processors, {total_ops} operations total\n");

    let mut table = Table::new([
        "organisation",
        "predicted",
        "bus util% (node 0)",
        "network msgs",
        "comm block (node 0)",
    ])
    .with_aligns(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);

    for cpus_per_node in [1usize, 2, 4] {
        let nodes = total_cpus / cpus_per_node as u32;
        let topo = Topology::Ring(nodes);
        let machine = MachineConfig::powerpc601_cluster(topo, cpus_per_node);
        let ops_per_cpu = total_ops / total_cpus as usize;
        // One stream per processor, node-major. Each node: CPU 0 computes
        // + exchanges with ring neighbours; CPUs 1.. compute only.
        let streams: Vec<_> = (0..nodes)
            .flat_map(|node| (0..cpus_per_node).map(move |cpu| (node, cpu)))
            .map(|(node, cpu)| {
                let mut ops = cpu_ops((node as u64) << 8 | cpu as u64, ops_per_cpu);
                if cpu == 0 {
                    ops.push(Operation::ASend {
                        bytes: 16 * 1024,
                        dst: (node + 1) % nodes,
                    });
                    ops.push(Operation::Recv {
                        src: (node + nodes - 1) % nodes,
                    });
                }
                ops.into_iter()
            })
            .collect();
        let r = HybridSim::new(machine).run_streams(streams);
        assert!(r.comm.all_done);
        let n0 = &r.nodes[0];
        let bus_util =
            100.0 * n0.mem.bus_busy.as_ps() as f64 / n0.compute_finish.as_ps().max(1) as f64;
        table.row([
            format!("{nodes} nodes × {cpus_per_node} CPUs"),
            format!("{}", r.predicted_time),
            format!("{bus_util:.1}"),
            r.comm.total_messages.to_string(),
            format!(
                "{}",
                r.comm.nodes[0].proc.recv_block + r.comm.nodes[0].proc.send_block
            ),
        ]);
    }
    println!("{}", table.render());
    println!("Consolidating CPUs into SMP nodes cuts network messages but raises");
    println!("node-bus utilisation — the workbench quantifies the crossover.");
}
