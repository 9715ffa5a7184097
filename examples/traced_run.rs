//! Traced run: the observability layer end to end (DESIGN.md §10).
//!
//! A task-level simulation of a 16-node T805 mesh runs with the full probe
//! stack attached — metrics aggregator, Chrome-trace exporter, JSONL event
//! stream, and the wall-clock self-profiler. The Chrome trace is written
//! to disk, read back, and re-validated through the vendored serde_json
//! parser, proving the emitted artefact round-trips; the process exits
//! non-zero if any observable disagrees with an untraced run.
//!
//! Run with: `cargo run --release --example traced_run`
//!
//! Given a path — `traced_run <trace.json> [--faulty]` — it instead
//! validates that file (say, one `mermaid-cli sim --trace-out` wrote, which
//! the CLI itself no longer parses back) and prints what it holds;
//! `--faulty` additionally demands fault events. Non-zero exit on an
//! invalid trace.

use mermaid::prelude::*;
use mermaid::probe::validate_chrome_trace;
use mermaid_network::CommSim;

/// Validate the Chrome trace at `path`; with `faulty`, also require that
/// fault injection left its mark.
fn validate_file(path: &str, faulty: bool) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let summary = validate_chrome_trace(&json).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: valid Chrome trace, {summary:?}");
    if faulty && summary.fault_events == 0 {
        return Err(format!("{path}: a faulty run's trace has no fault events"));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = args.first() {
        if let Err(e) = validate_file(path, args.get(1).is_some_and(|a| a == "--faulty")) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    let nodes = 16;
    let app = StochasticApp {
        phases: 5,
        pattern: CommPattern::NearestNeighborRing,
        msg_bytes: SizeDist::Fixed(4 * 1024),
        task_ps: SizeDist::Fixed(2_000_000),
        ..StochasticApp::scientific(nodes)
    };
    let traces = StochasticGenerator::new(app, 7).generate_task_level();
    let machine = MachineConfig::t805_multicomputer(Topology::Mesh2D { w: 4, h: 4 });
    println!("machine: {}\n", machine.name);

    // Reference: the same run with no probe attached.
    let plain = CommSim::new(machine.network, &traces).run();

    // The instrumented run: every sink on one handle.
    let probe = ProbeHandle::new(
        ProbeStack::new()
            .with_metrics()
            .with_chrome()
            .with_jsonl()
            .with_profiler(mermaid::host_frequency().as_hz() as f64),
    );
    let traced = TaskLevelSim::new(machine.network)
        .with_probe(probe.clone())
        .run(&traces);

    // Observation must not perturb the simulation.
    assert_eq!(traced.comm.finish, plain.finish, "finish time perturbed");
    assert_eq!(traced.comm.events, plain.events, "event count perturbed");
    assert_eq!(
        traced.comm.total_messages, plain.total_messages,
        "message count perturbed"
    );
    println!(
        "predicted time: {}  ({} messages, {} events) — identical traced and untraced\n",
        plain.finish, plain.total_messages, plain.events
    );

    // Write the Chrome trace and round-trip it through the JSON parser.
    let path = std::env::temp_dir().join("mermaid-traced-run.json");
    let json = probe.chrome_trace_json().expect("chrome sink attached");
    std::fs::write(&path, &json).expect("write trace");
    let reread = std::fs::read_to_string(&path).expect("read trace back");
    let summary = validate_chrome_trace(&reread).expect("emitted trace must validate");
    assert_eq!(summary.delivered_messages, Some(plain.total_messages));
    assert_eq!(summary.finish_ps, Some(plain.finish.as_ps()));
    println!(
        "trace written: {} ({} bytes; open in chrome://tracing or Perfetto)",
        path.display(),
        reread.len()
    );
    println!(
        "trace summary round-trips: {} messages, finish {} ps\n",
        summary.delivered_messages.unwrap(),
        summary.finish_ps.unwrap()
    );

    // Post-mortem halves: metrics table and the simulator's self-profile.
    let report = probe
        .metrics_report(plain.finish.as_ps())
        .expect("metrics sink attached");
    println!("{}", report.render());
    let profile = probe.host_profile().expect("profiler attached");
    println!("{}", profile.render());

    let jsonl = probe.jsonl_output().expect("jsonl sink attached");
    println!("jsonl event stream: {} records", jsonl.lines().count());
}
