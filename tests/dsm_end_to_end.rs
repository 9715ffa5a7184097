//! End-to-end tests of the virtual-shared-memory layer through the full
//! simulation stack: DSM program → annotation translation → hybrid
//! simulation with one-sided network operations.

use mermaid::prelude::*;
use mermaid_dsm::programs::{dsm_jacobi1d, dsm_matmul};
use mermaid_dsm::DsmConfig;
use mermaid_tracegen::annotate::TargetLayout;
use mermaid_tracegen::InterleavedTraceGen;

fn dsm_traces(
    nodes: u32,
    page_bytes: u32,
    f: impl Fn(&mut mermaid_tracegen::Translator, DsmConfig) + Send + Clone + 'static,
) -> TraceSet {
    InterleavedTraceGen::spawn(nodes, TargetLayout::default(), move |ctx| {
        f(ctx, DsmConfig { nodes, page_bytes })
    })
    .collect_all()
}

#[test]
fn dsm_matmul_simulates_without_deadlock() {
    let traces = dsm_traces(4, 1024, |ctx, cfg| dsm_matmul(ctx, cfg, 16));
    for topo in [Topology::Ring(4), Topology::FullyConnected(4)] {
        let machine = MachineConfig::t805_multicomputer(topo);
        let r = HybridSim::new(machine).run(&traces);
        assert!(r.comm.all_done, "deadlocked: {:?}", r.comm.deadlocked);
        // One-sided traffic reached the network.
        let gets_served: u64 = r.comm.nodes.iter().map(|n| n.proc.gets_served).sum();
        assert!(gets_served > 0);
    }
}

#[test]
fn dsm_jacobi_scales_like_its_message_passing_twin() {
    // Both formulations of the same stencil must agree on the qualitative
    // behaviour: more iterations → proportionally more time.
    let machine = MachineConfig::test_machine(Topology::Ring(4));
    let time_for = |iters: u32| {
        let traces = dsm_traces(4, 1024, move |ctx, cfg| dsm_jacobi1d(ctx, cfg, 256, iters));
        HybridSim::new(machine.clone())
            .run(&traces)
            .predicted_time
            .as_ps()
    };
    let t2 = time_for(2);
    let t8 = time_for(8);
    let ratio = t8 as f64 / t2 as f64;
    assert!(
        (2.5..6.0).contains(&ratio),
        "8 iterations should cost ≈4× of 2 (got {ratio:.2})"
    );
}

#[test]
fn larger_pages_reduce_faults_but_move_more_data() {
    let run = |page_bytes: u32| {
        let traces = dsm_traces(4, page_bytes, |ctx, cfg| dsm_matmul(ctx, cfg, 16));
        let s = traces.stats();
        (s.gets, s.bytes_fetched)
    };
    let (faults_small, bytes_small) = run(256);
    let (faults_large, bytes_large) = run(8192);
    assert!(faults_large < faults_small);
    assert!(bytes_large > bytes_small);
}

#[test]
fn dsm_get_latency_depends_on_the_network() {
    let traces = dsm_traces(4, 1024, |ctx, cfg| dsm_matmul(ctx, cfg, 12));
    let slow = MachineConfig::t805_multicomputer(Topology::Ring(4));
    let mut fast = slow.clone();
    fast.network = mermaid_network::NetworkConfig::hw_routed(Topology::Ring(4));
    let r_slow = HybridSim::new(slow).run(&traces);
    let r_fast = HybridSim::new(fast).run(&traces);
    assert!(r_fast.predicted_time < r_slow.predicted_time);
    let p99 = |r: &mermaid::HybridResult| {
        r.comm
            .nodes
            .iter()
            .filter_map(|n| n.proc.get_latency.percentile(99.0))
            .max()
            .unwrap()
    };
    assert!(p99(&r_fast) < p99(&r_slow));
}
