//! The two abstraction levels of Mermaid, plus the direct-execution
//! baseline, on one application (paper Fig. 2 and Sections 2/6).
//!
//! * **Detailed (hybrid)**: computational model per node feeding the
//!   communication model with measured tasks — accurate, slow.
//! * **Task-level**: tasks come straight from the generator — fast
//!   prototyping with modest accuracy.
//! * **Direct-execution baseline**: local operations statically costed,
//!   blind to the memory hierarchy — the technique the paper rejects.
//!
//! Run with: `cargo run --release --example hybrid_modes`

use mermaid::prelude::*;
use mermaid_stats::table::Align;
use mermaid_stats::Table;
use std::time::Instant;

fn main() {
    let nodes = 8;
    let app = StochasticApp {
        phases: 8,
        ops_per_phase: SizeDist::Uniform(5_000, 10_000),
        pattern: CommPattern::AllToAll,
        msg_bytes: SizeDist::Fixed(2048),
        working_set: 512 * 1024, // larger than L1: the cache matters
        ..StochasticApp::scientific(nodes)
    };
    let machine = MachineConfig::t805_multicomputer(Topology::Mesh2D { w: 4, h: 2 });
    println!(
        "machine: {}\napplication: {} phases of all-to-all over {} nodes\n",
        machine.name, 8, nodes
    );

    let gen = StochasticGenerator::new(app, 99);
    let instr_traces = gen.generate();
    let task_traces = gen.generate_task_level();

    let mut table = Table::new(["mode", "predicted time", "host ms", "ops simulated"])
        .with_aligns(vec![Align::Left, Align::Right, Align::Right, Align::Right]);

    // Detailed hybrid mode.
    let t0 = Instant::now();
    let hybrid = HybridSim::new(machine.clone()).run(&instr_traces);
    let hybrid_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(hybrid.comm.all_done);
    table.row([
        "detailed (hybrid)".to_string(),
        format!("{}", hybrid.predicted_time),
        format!("{hybrid_ms:.2}"),
        hybrid.ops_simulated.to_string(),
    ]);

    // Task-level fast prototyping (synthetic task durations).
    let t0 = Instant::now();
    let task = TaskLevelSim::new(machine.network).run(&task_traces);
    let task_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(task.comm.all_done);
    table.row([
        "task-level (fast)".to_string(),
        format!("{}", task.predicted_time),
        format!("{task_ms:.2}"),
        task.ops_simulated.to_string(),
    ]);

    // Task-level over *measured* tasks (the hybrid's intermediate product):
    // isolates the abstraction cost from the task-duration estimate.
    let t0 = Instant::now();
    let replay = TaskLevelSim::new(machine.network).run(&hybrid.task_traces);
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    table.row([
        "task-level (measured tasks)".to_string(),
        format!("{}", replay.predicted_time),
        format!("{replay_ms:.2}"),
        replay.ops_simulated.to_string(),
    ]);

    // Direct-execution baseline.
    let t0 = Instant::now();
    let direct = HybridSim::direct(machine).run(&instr_traces);
    let direct_ms = t0.elapsed().as_secs_f64() * 1e3;
    table.row([
        "direct execution (baseline)".to_string(),
        format!("{}", direct.predicted_time),
        format!("{direct_ms:.2}"),
        direct.ops_simulated.to_string(),
    ]);

    println!("{}", table.render());
    println!(
        "replaying the hybrid's measured tasks reproduces its prediction exactly: {}",
        replay.predicted_time == hybrid.predicted_time
    );
    let err = 100.0 * (direct.predicted_time.as_ps() as f64 - hybrid.predicted_time.as_ps() as f64)
        / hybrid.predicted_time.as_ps() as f64;
    println!("direct execution deviates {err:+.1}% from the detailed model (it cannot see cache misses).");
}
