//! The paper's qualitative claims, encoded as assertions. Each test cites
//! the section it checks. Host-timing comparisons use generous margins so
//! the suite stays robust on loaded machines.

use mermaid::prelude::*;
use mermaid::ModelFootprint;
use std::time::Instant;

fn app(nodes: u32, ops: u64) -> StochasticApp {
    StochasticApp {
        phases: 4,
        ops_per_phase: SizeDist::Fixed(ops),
        pattern: CommPattern::NearestNeighborRing,
        msg_bytes: SizeDist::Fixed(4096),
        ..StochasticApp::scientific(nodes)
    }
}

/// §6: "simulation at this [task] level of abstraction results in a typical
/// slowdown of between 0.5 and 4 per processor … an entire multicomputer
/// can be simulated with only a minor slowdown" — i.e. the task-level mode
/// must be dramatically cheaper per simulated event than the detailed mode.
#[test]
fn task_level_is_far_cheaper_than_detailed() {
    let nodes = 16;
    let machine = MachineConfig::t805_multicomputer(Topology::Mesh2D { w: 4, h: 4 });
    let gen = StochasticGenerator::new(app(nodes, 20_000), 5);
    let instr = gen.generate();
    let task = gen.generate_task_level();

    let t0 = Instant::now();
    let detailed = HybridSim::new(machine.clone()).run(&instr);
    let detailed_host = t0.elapsed();

    let t0 = Instant::now();
    let fast = TaskLevelSim::new(machine.network).run(&task);
    let fast_host = t0.elapsed();

    assert!(detailed.comm.all_done && fast.comm.all_done);
    // The paper's gap was ~200–8000×; require at least 10× to stay robust.
    assert!(
        detailed_host.as_secs_f64() > 10.0 * fast_host.as_secs_f64(),
        "detailed {detailed_host:?} should dwarf task-level {fast_host:?}"
    );
}

/// §2: direct execution's weakness — "the performance evaluation of
/// instruction or private data caches can only be marginally performed".
/// Doubling the cache changes the hybrid prediction but not the baseline's.
#[test]
fn direct_execution_is_blind_to_cache_size() {
    let nodes = 4;
    let traces = StochasticGenerator::new(app(nodes, 10_000), 9).generate();
    let small = MachineConfig::t805_multicomputer(Topology::Ring(nodes));
    let mut big = small.clone();
    big.node_mem.l1d.size_bytes *= 16;
    big.node_mem.l1i.size_bytes *= 16;

    let h_small = HybridSim::new(small.clone()).run(&traces).predicted_time;
    let h_big = HybridSim::new(big.clone()).run(&traces).predicted_time;
    assert!(
        h_big < h_small,
        "the detailed model must reward a bigger cache"
    );

    let d_small = HybridSim::direct(small).run(&traces).predicted_time;
    let d_big = HybridSim::direct(big).run(&traces).predicted_time;
    assert_eq!(d_small, d_big, "the static estimator cannot see cache size");
}

/// §6: "simulated caches only need to hold addresses (tags), not data" —
/// the model of a node must be smaller than the memory it simulates, and
/// independent of the simulated DRAM size entirely.
#[test]
fn model_state_is_tags_only() {
    let f = ModelFootprint::of(&MachineConfig::powerpc601_node(1));
    assert!(
        (f.bytes_per_node as u64) < f.simulated_cache_bytes_per_node,
        "model ({} B) must undercut even the simulated cache capacity ({} B) — \
         and simulated DRAM contents cost nothing at all",
        f.bytes_per_node,
        f.simulated_cache_bytes_per_node
    );
}

/// §3: application descriptions "only have to be made once, after which
/// they can be used to evaluate a wide range of architectures" — one trace
/// set, many machines, no regeneration.
#[test]
fn one_description_many_architectures() {
    let nodes = 8;
    let traces = StochasticGenerator::new(app(nodes, 3_000), 3).generate();
    let mut predictions = Vec::new();
    for machine in [
        MachineConfig::t805_multicomputer(Topology::Ring(nodes)),
        MachineConfig::t805_multicomputer(Topology::Hypercube { dim: 3 }),
        MachineConfig::paragon(4, 2),
        MachineConfig::powerpc601_cluster(Topology::Ring(nodes), 1),
    ] {
        let r = HybridSim::new(machine.clone()).run(&traces);
        assert!(r.comm.all_done, "{} deadlocked", machine.name);
        predictions.push(r.predicted_time);
    }
    // The architectures genuinely differ — so must the predictions.
    predictions.dedup();
    assert!(predictions.len() >= 3, "machines should be distinguishable");
}

/// §3.3: "every invocation of a loop body is individually traced and leads
/// to recurring addresses of instruction fetches" — and those recurring
/// fetches are exactly what makes the I-cache model effective.
#[test]
fn loop_fetch_reuse_drives_icache_hits() {
    let traces = StochasticGenerator::new(app(1, 30_000), 8).generate();
    let machine = MachineConfig::powerpc601_node(1);
    let mut sim = mermaid_cpu::SingleNodeSim::new(machine.cpu, machine.node_mem.clone());
    let refs: Vec<&Trace> = traces.iter().collect();
    let r = sim.run(&refs);
    let l1i = &r.mem_stats.l1i[0];
    assert!(
        l1i.hit_rate() > 0.9,
        "loop-closed code should hit the I-cache: {:.3}",
        l1i.hit_rate()
    );
}

/// §4.3: "by only using the computational model and configuring it with
/// multiple processors, a shared memory multiprocessor can be simulated" —
/// and adding processors must increase throughput (up to bus saturation).
#[test]
fn shared_memory_mode_scales_until_the_bus_saturates() {
    let mk_trace = |seed: u64| {
        let a = StochasticApp {
            nodes: 1,
            phases: 1,
            ops_per_phase: SizeDist::Fixed(8_000),
            pattern: CommPattern::None,
            ..StochasticApp::scientific(1)
        };
        let mut t = StochasticGenerator::new(a, seed)
            .generate()
            .trace(0)
            .clone();
        t.node = 0;
        t
    };
    let throughput = |cpus: usize| {
        let machine = MachineConfig::powerpc601_node(cpus);
        let mut sim = mermaid_cpu::SingleNodeSim::new(machine.cpu, machine.node_mem.clone());
        let traces: Vec<Trace> = (0..cpus as u32).map(|c| mk_trace(c as u64 + 1)).collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let r = sim.run(&refs);
        let total: u64 = r.cpu_stats.iter().map(|s| s.ops.total).sum();
        total as f64 / r.finish.as_secs_f64()
    };
    let t1 = throughput(1);
    let t4 = throughput(4);
    assert!(
        t4 > 1.5 * t1,
        "four CPUs should beat one: {t4:.0} vs {t1:.0} ops/s"
    );
}
