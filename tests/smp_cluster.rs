//! Hybrid machines (paper §4.3): PowerPC 601 clusters whose nodes hold 2
//! and 4 processors sharing one bus, in a message-passing ring. Processor 0
//! of each node computes and exchanges with its ring neighbours; the others
//! only compute, and stretch processor 0's tasks through the shared bus.
//! Work grows with the node and the processor index, so nodes differ and
//! on 4-CPU nodes the last sibling outlasts the network.
//!
//! The results are pinned byte for byte in `tests/golden/smp_cluster.txt`:
//! predicted and communication finish times, the message count, and per
//! node the task trace, each processor's operation count, the bus busy
//! time, the compute total and the computational finish.
//! `BLESS=1 cargo test --test smp_cluster` rewrites it — only after an
//! intended model change.
//!
//! The multiprocessor node is the cache node model of the one bridge, so
//! it composes with every option a detailed run takes: the same clusters
//! agree serial, sharded, on any worker count and probed, and a faulty run
//! completes.

use std::fmt::Write;
use std::sync::Arc;

use mermaid::prelude::*;
use mermaid_network::{FaultSchedule, RetryParams, RunOptions};
use mermaid_ops::{ArithOp, DataType};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/smp_cluster.txt");

/// Nodes in the ring.
const NODES: u32 = 4;

/// Processor `cpu`'s operations on `node`: a cache-hostile computation,
/// and on processor 0 a ring exchange after it.
fn cpu_ops(node: u32, cpu: usize) -> Vec<Operation> {
    let seed = (node as u64) << 8 | cpu as u64;
    let ops = if cpu == 0 {
        1_500 + 200 * node as u64
    } else {
        1_000 + 600 * cpu as u64
    };
    let mut v: Vec<Operation> = (0..ops)
        .map(|i| {
            let x = i.wrapping_mul(seed | 1).wrapping_add(i);
            let addr = 0x100000 + (x * 64) % (64 << 10);
            match x % 4 {
                0 => Operation::Load {
                    ty: DataType::F64,
                    addr,
                },
                1 => Operation::Store {
                    ty: DataType::F64,
                    addr,
                },
                _ => Operation::Arith {
                    op: ArithOp::Add,
                    ty: DataType::F64,
                },
            }
        })
        .collect();
    if cpu == 0 {
        v.push(Operation::ASend {
            bytes: 1024 << node,
            dst: (node + 1) % NODES,
        });
        v.push(Operation::Recv {
            src: (node + NODES - 1) % NODES,
        });
    }
    v
}

fn machine(cpus: usize) -> MachineConfig {
    MachineConfig::powerpc601_cluster(Topology::Ring(NODES), cpus)
}

/// Run the ring with `cpus` processors per node through `sim`: one stream
/// per processor, node-major.
fn run(sim: HybridSim, cpus: usize) -> HybridResult {
    let streams: Vec<_> = (0..NODES)
        .flat_map(|node| (0..cpus).map(move |cpu| cpu_ops(node, cpu).into_iter()))
        .collect();
    sim.run_streams(streams)
}

/// Every model result of a run; the shard profile is host wall clock.
fn observe(r: &HybridResult) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{}",
        r.predicted_time, r.nodes, r.task_traces, r.comm, r.ops_simulated
    )
}

fn render(cpus: usize) -> String {
    let r = run(HybridSim::new(machine(cpus)), cpus);
    let mut out = format!("## ring:{NODES}, {cpus} CPUs per node\n");
    writeln!(out, "predicted: {}ps", r.predicted_time.as_ps()).unwrap();
    writeln!(out, "comm finish: {}ps", r.comm.finish.as_ps()).unwrap();
    writeln!(out, "messages: {}", r.comm.total_messages).unwrap();
    for (n, tasks) in r.nodes.iter().zip(r.task_traces.iter()) {
        let ops: Vec<String> = n.cpu.iter().map(|c| c.ops.total.to_string()).collect();
        writeln!(
            out,
            "node {}: ops [{}] bus_busy {}ps compute_total {}ps compute_finish {}ps",
            n.node,
            ops.join(", "),
            n.mem.bus_busy.as_ps(),
            n.compute_total.as_ps(),
            n.compute_finish.as_ps()
        )
        .unwrap();
        let tasks: Vec<String> = tasks.iter().map(ToString::to_string).collect();
        writeln!(out, "  tasks: {}", tasks.join("; ")).unwrap();
    }
    out
}

#[test]
fn smp_clusters_match_the_golden() {
    let got = render(2) + &render(4);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_else(|_| {
        panic!("missing {GOLDEN} — run `BLESS=1 cargo test --test smp_cluster`")
    });
    assert!(
        got == want,
        "SMP cluster results changed; if intended, run `BLESS=1 cargo test --test smp_cluster` \
         and review the diff\n--- want\n{want}--- got\n{got}"
    );
}

#[test]
fn smp_clusters_agree_serial_sharded_on_any_worker_count_and_probed() {
    for cpus in [2, 4] {
        let serial = observe(&run(HybridSim::new(machine(cpus)).with_workers(1), cpus));
        let workers = run(HybridSim::new(machine(cpus)).with_workers(4), cpus);
        assert_eq!(observe(&workers), serial, "{cpus} CPUs: 4 workers vs 1");
        let sharded = HybridSim::new(machine(cpus)).with_options(RunOptions {
            shards: 3,
            ..RunOptions::default()
        });
        assert_eq!(
            observe(&run(sharded, cpus)),
            serial,
            "{cpus} CPUs: 3 shards"
        );

        let probe = ProbeHandle::new(ProbeStack::new().with_metrics());
        let probed = HybridSim::new(machine(cpus)).with_options(RunOptions {
            probe: probe.clone(),
            ..RunOptions::default()
        });
        let probed = run(probed, cpus);
        assert_eq!(observe(&probed), serial, "{cpus} CPUs: probed");
        let text = probe
            .metrics_report(probed.predicted_time.as_ps())
            .unwrap()
            .render();
        for counter in ["mem0/bus_wait_ps", "mem0/hit_l2", "mem3/misses", "bus 3 "] {
            assert!(text.contains(counter), "{cpus} CPUs: no {counter}:\n{text}");
        }
    }
}

#[test]
fn a_faulty_smp_cluster_completes() {
    let m = machine(2);
    let faults = FaultSchedule::parse(
        "link:0-1:0:200000000; drop:50000",
        3,
        RetryParams::default_for(&m.network),
    )
    .expect("spec parses");
    let sim = HybridSim::new(m).with_options(RunOptions {
        faults: Some(Arc::new(faults)),
        ..RunOptions::default()
    });
    let r = run(sim, 2);
    assert!(r.comm.all_done, "deadlocked: {:?}", r.comm.deadlocked);
    let healthy = run(HybridSim::new(machine(2)), 2);
    assert_eq!(r.task_traces, healthy.task_traces);
    assert!(
        r.comm.finish > healthy.comm.finish,
        "the outage must cost time"
    );
}
