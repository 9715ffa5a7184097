//! End-to-end pipeline tests spanning every crate: instrumented programs →
//! physical-time-interleaved generation → trace codecs → hybrid simulation
//! → analysis output (Fig. 1, the whole picture).

use mermaid::prelude::*;
use mermaid::report;
use mermaid_ops::{codec, text};
use mermaid_tracegen::annotate::TargetLayout;
use mermaid_tracegen::programs::{block_matmul, transpose_all_to_all, tree_reduce};
use mermaid_tracegen::InterleavedTraceGen;

fn generate(
    nodes: u32,
    program: impl Fn(&mut mermaid_tracegen::Translator) + Send + Clone + 'static,
) -> TraceSet {
    InterleavedTraceGen::spawn(nodes, TargetLayout::default(), program).collect_all()
}

#[test]
fn matmul_through_the_full_pipeline() {
    let nodes = 4u32;
    let traces = generate(nodes, move |ctx| block_matmul(ctx, nodes, 12));
    assert!(traces.comm_imbalances().is_empty());

    let machine = MachineConfig::t805_multicomputer(Topology::Mesh2D { w: 2, h: 2 });
    let r = HybridSim::new(machine).run(&traces);
    assert!(r.comm.all_done, "deadlocked: {:?}", r.comm.deadlocked);
    assert!(r.predicted_time > pearl::Time::ZERO);

    // The analysis tools render without panicking and carry all nodes.
    let table = report::hybrid_table(&r);
    assert_eq!(table.len(), nodes as usize);
    assert!(table.render().contains("l1d hit%"));
    assert!(table.to_csv().lines().count() == nodes as usize + 1);
}

#[test]
fn traces_survive_binary_and_text_codecs_mid_pipeline() {
    let nodes = 3u32;
    let traces = generate(nodes, move |ctx| tree_reduce(ctx, nodes, 64));

    // Binary roundtrip.
    let encoded = codec::encode_trace_set(&traces);
    let decoded = codec::decode_trace_set(encoded).expect("binary roundtrip");
    assert_eq!(decoded, traces);

    // Text roundtrip.
    for t in traces.iter() {
        let rendered = text::format_trace(t);
        let parsed = text::parse_trace(t.node, &rendered).expect("text roundtrip");
        assert_eq!(&parsed, t);
    }

    // The decoded traces simulate identically to the originals.
    let machine = MachineConfig::test_machine(Topology::Ring(nodes));
    let a = HybridSim::new(machine.clone()).run(&traces);
    let b = HybridSim::new(machine).run(&decoded);
    assert_eq!(a.predicted_time, b.predicted_time);
}

#[test]
fn matmul_scales_down_with_more_nodes() {
    // Strong scaling: the same matrix on more nodes must not be slower on
    // a fast network.
    let n = 16u64;
    let run = |nodes: u32| {
        let traces = generate(nodes, move |ctx| block_matmul(ctx, nodes, n));
        let machine = MachineConfig::test_machine(Topology::FullyConnected(nodes));
        HybridSim::new(machine).run(&traces).predicted_time
    };
    let t2 = run(2);
    let t4 = run(4);
    let t8 = run(8);
    assert!(t4 < t2, "4 nodes ({t4}) should beat 2 ({t2})");
    assert!(t8 < t4, "8 nodes ({t8}) should beat 4 ({t4})");
}

#[test]
fn transpose_stresses_every_link_without_deadlock() {
    let nodes = 8u32;
    let traces = generate(nodes, move |ctx| {
        transpose_all_to_all(ctx, nodes, 32 * 1024)
    });
    for topo in [
        Topology::Ring(nodes),
        Topology::Hypercube { dim: 3 },
        Topology::Mesh2D { w: 4, h: 2 },
    ] {
        let machine = MachineConfig::t805_multicomputer(topo);
        let r = HybridSim::new(machine).run(&traces);
        assert!(r.comm.all_done, "deadlock on {}", topo.label());
        assert_eq!(r.comm.total_messages, (nodes * (nodes - 1)) as u64);
    }
}

#[test]
fn execution_driven_pipeline_is_equivalent_to_batch() {
    // The headline property of physical-time interleaving (Section 3.1):
    // the interleaved, execution-driven path produces exactly the traces —
    // and therefore exactly the predictions — of batch generation.
    let nodes = 4u32;
    let machine = MachineConfig::t805_multicomputer(Topology::Ring(nodes));
    let batch = generate(nodes, move |ctx| block_matmul(ctx, nodes, 10));
    let batch_result = HybridSim::new(machine.clone()).run(&batch);

    let mut gen = InterleavedTraceGen::spawn(nodes, TargetLayout::default(), move |ctx| {
        block_matmul(ctx, nodes, 10)
    });
    let streamed_result = HybridSim::new(machine).run_streams(gen.streams());

    assert_eq!(batch_result.predicted_time, streamed_result.predicted_time);
    assert_eq!(batch_result.task_traces, streamed_result.task_traces);
}
