//! The computational phase of a detailed or direct-execution run is spread
//! over a worker pool (DESIGN.md §18, "Node-parallel extraction"). How many
//! workers it gets is a host matter — cores, the campaign around it, an
//! attached probe — and must never show in a result.

use mermaid::prelude::*;
use mermaid::MachineConfig;

fn generator(nodes: u32, seed: u64) -> StochasticGenerator {
    let app = StochasticApp {
        phases: 3,
        ops_per_phase: SizeDist::Uniform(400, 1_200),
        pattern: CommPattern::NearestNeighborRing,
        ..StochasticApp::scientific(nodes)
    };
    StochasticGenerator::new(app, seed)
}

fn machines() -> Vec<MachineConfig> {
    [Topology::Ring(6), Topology::Mesh2D { w: 4, h: 4 }]
        .into_iter()
        .flat_map(|topo| {
            [
                MachineConfig::t805_multicomputer(topo),
                MachineConfig::powerpc601_cluster(topo, 1),
            ]
        })
        .collect()
}

fn debug(x: &dyn std::fmt::Debug) -> String {
    format!("{x:?}")
}

#[test]
fn results_do_not_depend_on_the_worker_count() {
    for machine in machines() {
        let nodes = machine.nodes();
        let gen = generator(nodes, 23);
        let hybrid = |workers| {
            HybridSim::new(machine.clone())
                .with_workers(workers)
                .run_streams(gen.streams())
        };
        let direct = |workers| {
            HybridSim::direct(machine.clone())
                .with_workers(workers)
                .run_streams(gen.streams())
        };
        let (h1, d1) = (hybrid(1), direct(1));
        assert!(h1.comm.all_done && d1.comm.all_done);
        for workers in [2, 3, 16, nodes as usize + 5] {
            let what = format!("{} on {workers} workers", machine.name);
            let h = hybrid(workers);
            assert_eq!(h.predicted_time, h1.predicted_time, "{what}");
            assert_eq!(h.task_traces, h1.task_traces, "{what}");
            assert_eq!(h.ops_simulated, h1.ops_simulated, "{what}");
            // Per-node CpuStats, MemStats and compute_total, in node order.
            assert_eq!(debug(&h.nodes), debug(&h1.nodes), "{what}");
            assert_eq!(debug(&h.comm), debug(&h1.comm), "{what}");

            let d = direct(workers);
            assert_eq!(d.predicted_time, d1.predicted_time, "{what}");
            assert_eq!(d.ops_simulated, d1.ops_simulated, "{what}");
            assert_eq!(debug(&d.comm), debug(&d1.comm), "{what}");
        }
    }
}

#[test]
fn a_probed_run_keeps_its_node_major_event_stream_whatever_it_is_asked_for() {
    let machine = MachineConfig::powerpc601_cluster(Topology::Ring(6), 1);
    let gen = generator(6, 5);
    let events = |workers| {
        let probe = ProbeHandle::new(ProbeStack::new().with_buffer());
        let r = HybridSim::new(machine.clone())
            .with_probe(probe.clone())
            .with_workers(workers)
            .run_streams(gen.streams());
        let events = probe.take_buffer().expect("the stack has a buffer");
        (r.predicted_time, events)
    };
    let (time1, events1) = events(1);
    let (time4, events4) = events(4);
    assert!(events1.len() > 1_000, "only {} events", events1.len());
    assert_eq!(time4, time1);
    assert!(events4 == events1, "event streams differ");
}

#[test]
#[should_panic(expected = "node 3's trace source broke")]
fn a_stream_that_panics_fails_the_run_with_its_own_message() {
    let machine = MachineConfig::test_machine(Topology::Ring(6));
    let gen = generator(6, 9);
    let streams = (0..).zip(gen.streams()).map(|(node, ops)| {
        ops.enumerate().map(move |(i, op)| {
            assert!(node != 3 || i < 100, "node 3's trace source broke");
            op
        })
    });
    HybridSim::new(machine)
        .with_workers(3)
        .run_streams(streams.collect::<Vec<_>>());
}
