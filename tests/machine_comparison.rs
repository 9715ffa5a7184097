//! Cross-machine sanity: the calibrated presets must order themselves the
//! way the real machines did (a generational sweep the workbench exists to
//! make quantitative).

use mermaid::prelude::*;
use mermaid::{labelled_sweep, MachineConfig};
use mermaid_network::Topology;

fn workload(nodes: u32) -> TraceSet {
    let app = StochasticApp {
        phases: 4,
        ops_per_phase: SizeDist::Fixed(5_000),
        pattern: CommPattern::NearestNeighborRing,
        msg_bytes: SizeDist::Fixed(8_192),
        ..StochasticApp::scientific(nodes)
    };
    StochasticGenerator::new(app, 77).generate()
}

#[test]
fn paragon_outruns_the_transputer_generation() {
    let nodes = 16u32;
    let traces = workload(nodes);
    let t805 = HybridSim::new(MachineConfig::t805_multicomputer(Topology::Mesh2D {
        w: 4,
        h: 4,
    }))
    .run(&traces);
    let paragon = HybridSim::new(MachineConfig::paragon(4, 4)).run(&traces);
    assert!(t805.comm.all_done && paragon.comm.all_done);
    let speedup = t805.predicted_time.as_ps() as f64 / paragon.predicted_time.as_ps() as f64;
    assert!(
        speedup > 3.0,
        "a Paragon should be several times faster than a transputer machine, got {speedup:.1}×"
    );
}

#[test]
fn machine_sweep_orders_by_generation() {
    let nodes = 8u32;
    let traces = workload(nodes);
    let machines = vec![
        (
            "t805".to_string(),
            MachineConfig::t805_multicomputer(Topology::Ring(nodes)),
        ),
        ("paragon".to_string(), MachineConfig::paragon(4, 2)),
        (
            "ppc601 cluster".to_string(),
            MachineConfig::powerpc601_cluster(Topology::Ring(nodes), 1),
        ),
    ];
    let results = labelled_sweep(machines, |m| {
        let r = HybridSim::new(m.clone()).run(&traces);
        assert!(r.comm.all_done, "{} deadlocked", m.name);
        r.predicted_time
    });
    let by_name = |n: &str| {
        results
            .iter()
            .find(|(name, _)| name == n)
            .map(|&(_, t)| t)
            .unwrap()
    };
    // Transputer slowest; the two 90s hw-routed machines both far faster.
    assert!(by_name("t805") > by_name("paragon"));
    assert!(by_name("t805") > by_name("ppc601 cluster"));
}

#[test]
fn all_presets_survive_every_mode() {
    // Every machine preset through detailed + task-level + direct — no
    // panics, no deadlocks.
    use mermaid::TaskLevelSim;
    let nodes = 4u32;
    let traces = workload(nodes);
    let gen = StochasticGenerator::new(
        StochasticApp {
            phases: 4,
            ..StochasticApp::scientific(nodes)
        },
        77,
    );
    let task_traces = gen.generate_task_level();
    for machine in [
        MachineConfig::t805_multicomputer(Topology::Ring(nodes)),
        MachineConfig::paragon(2, 2),
        MachineConfig::powerpc601_cluster(Topology::Ring(nodes), 1),
        MachineConfig::test_machine(Topology::Ring(nodes)),
    ] {
        let h = HybridSim::new(machine.clone()).run(&traces);
        assert!(h.comm.all_done, "{} hybrid deadlocked", machine.name);
        let t = TaskLevelSim::new(machine.network).run(&task_traces);
        assert!(t.comm.all_done, "{} task-level deadlocked", machine.name);
        let d = HybridSim::direct(machine.clone()).run(&traces);
        assert!(d.comm.all_done, "{} direct deadlocked", machine.name);
        // Direct execution is optimistic or equal, never pessimistic, with
        // write-allocate caches under this model.
        assert!(d.predicted_time <= h.predicted_time, "{}", machine.name);
    }
}
