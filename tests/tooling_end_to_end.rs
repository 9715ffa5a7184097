//! End-to-end tests of the workbench tooling: trace files feeding
//! simulations, observer output feeding the post-mortem renderers, and
//! report artefacts.

use mermaid::prelude::*;
use mermaid::{observer, report};
use mermaid_ops::file as trace_file;
use mermaid_stats::gnuplot::{series_script, PlotSpec};

fn workload(nodes: u32) -> TraceSet {
    let app = StochasticApp {
        phases: 3,
        ops_per_phase: SizeDist::Fixed(800),
        pattern: CommPattern::NearestNeighborRing,
        ..StochasticApp::scientific(nodes)
    };
    StochasticGenerator::new(app, 99).generate()
}

#[test]
fn traces_saved_to_disk_simulate_identically() {
    let dir = std::env::temp_dir().join(format!("mermaid-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let traces = workload(4);
    trace_file::save_trace_set(&traces, &dir).unwrap();
    let loaded = trace_file::load_trace_set(&dir).unwrap();
    assert_eq!(loaded, traces);

    let machine = MachineConfig::t805_multicomputer(Topology::Ring(4));
    let a = HybridSim::new(machine.clone()).run(&traces);
    let b = HybridSim::new(machine).run(&loaded);
    assert_eq!(a.predicted_time, b.predicted_time);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn observer_output_renders_to_every_postmortem_format() {
    let machine = MachineConfig::test_machine(Topology::Ring(4));
    let traces = StochasticGenerator::new(
        StochasticApp {
            phases: 6,
            ..StochasticApp::scientific(4)
        },
        1,
    )
    .generate_task_level();
    let (result, run) = observer::observe_task_level(machine.network, &traces, 32, |_| {});
    assert!(result.all_done);

    // Sparkline.
    let sl = mermaid_stats::chart::sparkline(&run.messages, 24);
    assert!(!sl.is_empty());

    // CSV with a shared time axis.
    let csv = mermaid_stats::csv::series_to_csv(&[&run.messages, &run.nodes_done]);
    assert!(csv.starts_with("time_ps,messages,nodes_done"));
    assert!(csv.lines().count() > 2);

    // Gnuplot script.
    let script = series_script(&PlotSpec::default(), &[&run.messages, &run.nodes_done]);
    assert!(script.contains("$messages << EOD"));
    assert!(script.contains("plot $messages"));
}

#[test]
fn report_tables_export_to_csv_consistently() {
    let machine = MachineConfig::t805_multicomputer(Topology::Ring(3));
    let r = HybridSim::new(machine).run(&workload(3));
    let table = report::hybrid_table(&r);
    let csv = table.to_csv();
    // Header + one row per node; every row has the header's column count.
    let mut lines = csv.lines();
    let header_cols = lines.next().unwrap().split(',').count();
    let mut rows = 0;
    for line in lines {
        assert_eq!(line.split(',').count(), header_cols);
        rows += 1;
    }
    assert_eq!(rows, 3);
}

#[test]
fn traced_run_is_deterministic_under_observation() {
    // A fully instrumented 4-node run must produce a parseable Chrome
    // trace whose delivered-message count and finish time exactly match an
    // untraced `CommSim::run()` — observation changes nothing.
    use mermaid_network::CommSim;
    use mermaid_probe::validate_chrome_trace;

    let machine = MachineConfig::test_machine(Topology::Ring(4));
    let traces = StochasticGenerator::new(
        StochasticApp {
            phases: 4,
            ..StochasticApp::scientific(4)
        },
        7,
    )
    .generate_task_level();

    let plain = CommSim::new(machine.network, &traces).run();
    assert!(plain.all_done);

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

    // Simulated observables are bit-identical to the untraced run.
    assert_eq!(traced.comm.finish, plain.finish);
    assert_eq!(traced.comm.events, plain.events);
    assert_eq!(traced.comm.total_messages, plain.total_messages);
    assert_eq!(traced.comm.total_bytes, plain.total_bytes);

    // The emitted trace parses and its summary matches the run exactly.
    let json = probe.chrome_trace_json().unwrap();
    let summary = validate_chrome_trace(&json).unwrap();
    assert_eq!(summary.delivered_messages, Some(plain.total_messages));
    assert_eq!(summary.finish_ps, Some(plain.finish.as_ps()));

    // The metrics aggregator counted the same deliveries.
    let report = probe.metrics_report(plain.finish.as_ps()).unwrap();
    let csv = report.to_csv();
    let msg_line = csv
        .lines()
        .find(|l| l.starts_with("net/messages,"))
        .unwrap_or_else(|| panic!("no net/messages in:\n{csv}"));
    assert_eq!(msg_line, format!("net/messages,{}", plain.total_messages));

    // The JSONL stream carries one delivery record per message.
    let jsonl = probe.jsonl_output().unwrap();
    let delivers = jsonl
        .lines()
        .filter(|l| l.contains("\"msg_deliver\""))
        .count() as u64;
    assert_eq!(delivers, plain.total_messages);

    // The self-profiler saw the run happen on the host.
    let profile = probe.host_profile().unwrap();
    assert!(profile.events > 0);
}

#[test]
fn faulty_traced_run_validates_with_fault_events_counted() {
    // Regression: a traced run under fault injection must still produce a
    // valid Chrome trace (per-track span starts stay monotonic even with
    // retries and reroutes in play), and the validator's fault-event tally
    // must see the injected activity that a healthy run never emits.
    use mermaid_network::{FaultSchedule, RetryParams};
    use mermaid_probe::validate_chrome_trace;
    use pearl::Time;
    use std::sync::Arc;

    let machine = MachineConfig::test_machine(Topology::Ring(4));
    let traces = StochasticGenerator::new(
        StochasticApp {
            phases: 4,
            ..StochasticApp::scientific(4)
        },
        7,
    )
    .generate_task_level();

    let mut schedule = FaultSchedule::new(9).with_retry(RetryParams::default_for(&machine.network));
    schedule.cut_link(0, 1, Time::from_us(1), Some(Time::from_us(40)));
    let faults = Some(Arc::new(schedule));

    let healthy_probe = ProbeHandle::new(ProbeStack::new().with_chrome());
    TaskLevelSim::new(machine.network)
        .with_probe(healthy_probe.clone())
        .run(&traces);
    let healthy = validate_chrome_trace(&healthy_probe.chrome_trace_json().unwrap()).unwrap();
    assert_eq!(healthy.fault_events, 0, "healthy runs emit no fault events");

    let probe = ProbeHandle::new(ProbeStack::new().with_chrome());
    let faulty = TaskLevelSim::new(machine.network)
        .with_probe(probe.clone())
        .with_faults(faults)
        .run(&traces);
    assert!(faulty.comm.all_done);
    let summary = validate_chrome_trace(&probe.chrome_trace_json().unwrap())
        .expect("faulty trace must still validate");
    assert!(
        summary.fault_events >= 2,
        "at least link_down + link_up expected, got {}",
        summary.fault_events
    );
    assert_eq!(summary.delivered_messages, Some(faulty.comm.total_messages));
}

#[test]
fn run_time_watching_does_not_perturb_results() {
    // Fig. 1's run-time visualisation must be a pure observer: watching at
    // different sampling granularities yields identical simulations.
    let machine = MachineConfig::test_machine(Topology::Ring(4));
    let traces = StochasticGenerator::new(
        StochasticApp {
            phases: 5,
            ..StochasticApp::scientific(4)
        },
        2,
    )
    .generate_task_level();
    let (fine, _) = observer::observe_task_level(machine.network, &traces, 8, |_| {});
    let (coarse, _) = observer::observe_task_level(machine.network, &traces, 10_000, |_| {});
    assert_eq!(fine.finish, coarse.finish);
    assert_eq!(fine.total_messages, coarse.total_messages);
    assert_eq!(fine.events, coarse.events);
}

/// The fault spec of the faulty golden run: a healing link outage, a
/// healing router outage, transient loss, corruption, and one retry —
/// small enough that some messages are given up, so all seven fault
/// variants of `SimEvent` appear in the pinned streams.
const GOLDEN_FAULTS: &str =
    "link:0-1:2000:60000; router:3:5000:90000; drop:20000; corrupt:30000; retries:1";

/// Compare `got` with `tests/golden/<name>` (or, with `BLESS=1`, rewrite
/// the file).
fn check_golden(name: &str, got: &str) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — run `BLESS=1 cargo test --test tooling_end_to_end`",
            path.display()
        )
    });
    // Traces run to hundreds of kilobytes: report the first differing
    // byte, not two whole documents.
    if got != want {
        let at = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        let lo = at.saturating_sub(80);
        panic!(
            "{name} drifted from its golden at byte {at} (got {} bytes, want {}):\n  got:  …{}\n  want: …{}\n\
             if intentional, regenerate with `BLESS=1 cargo test --test tooling_end_to_end`",
            got.len(),
            want.len(),
            &got[lo..(at + 80).min(got.len())],
            &want[lo..(at + 80).min(want.len())],
        );
    }
}

/// Byte goldens of every probe artefact — Chrome trace, `--metrics` text,
/// `attribution.json` through the CLI, the JSONL stream through the
/// library on the same run — for a healthy, a faulty and a detailed run.
/// They pin the renderers: any change to `mermaid-probe`'s output paths
/// must reproduce these files exactly.
#[test]
fn probe_artefacts_match_their_byte_goldens() {
    use mermaid_network::{FaultSchedule, RetryParams};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("mermaid-probe-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    for (name, mode, phases, ops, faults) in [
        ("healthy", "task", 2u32, 5_000u64, None),
        ("faulty", "task", 2, 5_000, Some(GOLDEN_FAULTS)),
        ("detailed", "detailed", 1, 200, None),
    ] {
        let trace = dir.join(format!("{name}.trace.json"));
        let attribution = dir.join(format!("{name}.attribution.json"));
        let mut args: Vec<String> = [
            "sim",
            "--machine",
            "test",
            "--topology",
            "mesh:2x2",
            "--mode",
            mode,
            "--phases",
            &phases.to_string(),
            "--ops",
            &ops.to_string(),
            "--metrics",
            "--trace-out",
            trace.to_str().unwrap(),
            "--attribution",
            attribution.to_str().unwrap(),
        ]
        .map(String::from)
        .to_vec();
        if let Some(spec) = faults {
            args.extend(["--faults", spec, "--fault-seed", "9"].map(String::from));
        }
        let stdout = mermaid::cli::run(&args).unwrap_or_else(|e| panic!("{name}: {e}"));

        // Stdout minus host time: the scratch path, detailed mode's
        // `slowdown` line, and the `Self-profile` block that ends it.
        let stable = stdout
            .split("\nSelf-profile")
            .next()
            .unwrap()
            .replace(dir.to_str().unwrap(), "$D")
            .lines()
            .filter(|l| !l.starts_with("slowdown "))
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        check_golden(&format!("probe_{name}.metrics.txt"), &stable);
        let trace_json = std::fs::read_to_string(&trace).unwrap();
        check_golden(&format!("probe_{name}.trace.json"), &trace_json);
        check_golden(
            &format!("probe_{name}.attribution.json"),
            &std::fs::read_to_string(&attribution).unwrap(),
        );

        // The CLI has no JSONL flag: rebuild the same run through the
        // library, prove it is the same run by its Chrome trace, and pin
        // the JSONL stream it recorded.
        let machine = MachineConfig::test_machine(Topology::Mesh2D { w: 2, h: 2 });
        let gen = StochasticGenerator::new(
            StochasticApp {
                phases,
                ops_per_phase: SizeDist::Fixed(ops),
                pattern: CommPattern::NearestNeighborRing,
                ..StochasticApp::scientific(4)
            },
            1,
        );
        let faults = faults.map(|spec| {
            let retry = RetryParams::default_for(&machine.network);
            Arc::new(FaultSchedule::parse(spec, 9, retry).unwrap())
        });
        let probe = ProbeHandle::new(ProbeStack::new().with_chrome().with_jsonl());
        if mode == "task" {
            TaskLevelSim::new(machine.network)
                .with_probe(probe.clone())
                .with_faults(faults)
                .run(&gen.generate_task_level());
        } else {
            HybridSim::new(machine)
                .with_probe(probe.clone())
                .run(&gen.generate());
        }
        assert_eq!(
            probe.chrome_trace_json().unwrap(),
            trace_json,
            "{name}: the library run is not the CLI run"
        );
        check_golden(
            &format!("probe_{name}.events.jsonl"),
            &probe.jsonl_output().unwrap(),
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
