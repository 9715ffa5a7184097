//! End-to-end tests of the workbench tooling: trace files feeding
//! simulations, run-time progress samples, and report artefacts.

use std::cell::RefCell;
use std::sync::Arc;

use mermaid::prelude::*;
use mermaid::report;
use mermaid_network::{
    run_comm, CommResult, FaultSchedule, RetryParams, RunOptions, PROGRESS_EVERY,
};
use mermaid_ops::file as trace_file;
use pearl::Time;

/// Run options that record into `probe` and inject `faults`.
fn recording(probe: &ProbeHandle, faults: Option<Arc<FaultSchedule>>) -> RunOptions<'static> {
    RunOptions {
        probe: probe.clone(),
        faults,
        ..RunOptions::default()
    }
}

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

/// What a progress hook saw: (virtual ps, events, messages, nodes done).
type Sample = (u64, u64, u64, u32);

/// Run `traces` through `run_comm` with `opts` plus a progress hook;
/// return the result and every sample the hook received.
fn watched(
    net: NetworkConfig,
    traces: &TraceSet,
    opts: RunOptions<'_>,
) -> (CommResult, Vec<Sample>) {
    let samples = RefCell::new(Vec::new());
    let hook = |t: Time, r: &CommResult| {
        samples
            .borrow_mut()
            .push((t.as_ps(), r.events, r.total_messages, r.nodes_done()));
    };
    let opts = RunOptions {
        progress: Some(&hook),
        ..opts
    };
    let (result, _) = run_comm(net, traces, opts).unwrap();
    (result, samples.into_inner())
}

fn unwatched(net: NetworkConfig, traces: &TraceSet, opts: &RunOptions<'_>) -> CommResult {
    run_comm(net, traces, opts.clone()).unwrap().0
}

/// An all-to-all workload long enough for a dozen progress samples.
fn watch_workload() -> (NetworkConfig, TraceSet) {
    let machine = MachineConfig::test_machine(Topology::Torus2D { w: 4, h: 4 });
    let app = StochasticApp {
        phases: 3,
        pattern: CommPattern::AllToAll,
        ..StochasticApp::scientific(16)
    };
    let traces = StochasticGenerator::new(app, 1).generate_task_level();
    (machine.network, traces)
}

#[test]
fn watching_a_run_does_not_perturb_it() {
    // Fig. 1's run-time visualisation is a pure observer: the watched run
    // returns exactly the unwatched result, sampled at every multiple of
    // PROGRESS_EVERY events and once more when the event set drains.
    let (net, traces) = watch_workload();
    let plain = unwatched(net, &traces, &RunOptions::default());
    let (result, samples) = watched(net, &traces, RunOptions::default());
    assert_eq!(format!("{result:?}"), format!("{plain:?}"));
    assert!(samples.len() > 10, "{samples:?}");
    let (last, mid) = samples.split_last().unwrap();
    for (i, s) in mid.iter().enumerate() {
        assert_eq!(s.1, (i as u64 + 1) * PROGRESS_EVERY);
    }
    assert_eq!(
        *last,
        (plain.finish.as_ps(), plain.events, plain.total_messages, 16)
    );
    // Virtual time and the message count never go backwards.
    assert!(samples
        .windows(2)
        .all(|w| w[0].0 <= w[1].0 && w[0].2 <= w[1].2));
}

#[test]
fn progress_samples_see_intermediate_progress() {
    let (net, traces) = watch_workload();
    let (result, samples) = watched(net, &traces, RunOptions::default());
    assert!(samples
        .iter()
        .any(|s| s.2 > 0 && s.2 < result.total_messages));
}

/// Regression: intermediate samples must track per-node completion —
/// `nodes_done` climbs monotonically through strictly intermediate counts
/// as staggered nodes finish, and no mid-run result reports a deadlock.
#[test]
fn nodes_done_climbs_through_intermediate_counts() {
    let n = 4u32;
    let mut traces = TraceSet::new(n as usize);
    for node in 0..n {
        // Compute-only traces of very different lengths: the nodes finish
        // one by one, thousands of events apart.
        for _ in 0..1_000 * (node + 1) {
            traces
                .trace_mut(node)
                .push(Operation::Compute { ps: 10_000 });
        }
    }
    let net = MachineConfig::test_machine(Topology::Ring(4)).network;
    let samples = RefCell::new(Vec::new());
    let hook = |_: Time, r: &CommResult| {
        assert!(
            r.deadlocked.is_empty(),
            "work in progress reported as deadlock"
        );
        samples.borrow_mut().push(r.nodes_done());
    };
    let opts = RunOptions {
        progress: Some(&hook),
        ..RunOptions::default()
    };
    let (result, _) = run_comm(net, &traces, opts).unwrap();
    assert!(result.all_done);
    let done = samples.into_inner();
    assert!(
        done.windows(2).all(|w| w[0] <= w[1]),
        "not monotone: {done:?}"
    );
    assert_eq!(*done.last().unwrap(), n);
    assert!(
        done.iter().any(|&d| d > 0 && d < n),
        "no strictly intermediate completion count: {done:?}"
    );
}

#[test]
fn a_probed_watched_run_records_what_an_unwatched_one_does() {
    // The run-time half (progress samples) and the post-mortem half (probe
    // sinks) observe the same run: watching leaves the Chrome trace and the
    // metrics report byte-identical.
    let (net, traces) = watch_workload();
    let probed = || ProbeHandle::new(ProbeStack::new().with_metrics().with_chrome());
    let (a, b) = (probed(), probed());
    let plain = unwatched(
        net,
        &traces,
        &RunOptions {
            probe: a.clone(),
            ..RunOptions::default()
        },
    );
    let (result, samples) = watched(
        net,
        &traces,
        RunOptions {
            probe: b.clone(),
            ..RunOptions::default()
        },
    );
    assert_eq!(format!("{result:?}"), format!("{plain:?}"));
    assert!(samples.len() > 1);
    let finish = plain.finish.as_ps();
    assert_eq!(b.chrome_trace_json(), a.chrome_trace_json());
    let report = |p: &ProbeHandle| p.metrics_report(finish).unwrap().render();
    assert_eq!(report(&b), report(&a));
    assert!(report(&a).contains("engine/deliveries"));
}

#[test]
fn a_watched_faulty_run_returns_the_unwatched_result() {
    let (net, traces) = watch_workload();
    let faults = FaultSchedule::parse("link:0-1:2000:60000; drop:20000", 9, RetryParams::default())
        .map(std::sync::Arc::new)
        .unwrap();
    let opts = RunOptions {
        faults: Some(faults),
        ..RunOptions::default()
    };
    let plain = unwatched(net, &traces, &opts);
    assert!(plain.total_retries > 0, "the schedule should cost retries");
    let (result, samples) = watched(net, &traces, opts);
    assert_eq!(format!("{result:?}"), format!("{plain:?}"));
    assert_eq!(samples.last().unwrap().1, plain.events);
}

#[test]
fn the_sparkline_renders_from_progress_samples() {
    let (net, traces) = watch_workload();
    let (_, samples) = watched(net, &traces, RunOptions::default());
    let mut messages = mermaid_stats::TimeSeries::new("messages");
    for (t, _, m, _) in samples {
        messages.push(t, m as f64);
    }
    let line = mermaid_stats::chart::sparkline(&messages, 24);
    assert_eq!(line.chars().count(), messages.len().min(24));
    assert!(line.starts_with('▁') && line.ends_with('█'), "{line}");
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
        .with_options(recording(&probe, None))
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

    // The self-profiler counted every event the stack recorded, one JSONL
    // line each, and clocked the full batches after the first.
    let profile = probe.host_profile().unwrap();
    let recorded = jsonl.lines().count() as u64;
    assert_eq!(profile.events, recorded);
    let counted: u64 = profile.per_category.iter().map(|&(_, n)| n).sum();
    assert_eq!(counted, recorded);
    assert_eq!(
        profile.timed_events,
        (recorded / 1024).saturating_sub(1) * 1024
    );
}

#[test]
fn faulty_traced_run_validates_with_fault_events_counted() {
    // Regression: a traced run under fault injection must still produce a
    // valid Chrome trace (per-track span starts stay monotonic even with
    // retries and reroutes in play), and the validator's fault-event tally
    // must see the injected activity that a healthy run never emits.
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

    let mut schedule = FaultSchedule::new(9).with_retry(RetryParams::default_for(&machine.network));
    schedule.cut_link(0, 1, Time::from_us(1), Some(Time::from_us(40)));
    let faults = Some(Arc::new(schedule));

    let healthy_probe = ProbeHandle::new(ProbeStack::new().with_chrome());
    TaskLevelSim::new(machine.network)
        .with_options(recording(&healthy_probe, None))
        .run(&traces);
    let healthy = validate_chrome_trace(&healthy_probe.chrome_trace_json().unwrap()).unwrap();
    assert_eq!(healthy.fault_events, 0, "healthy runs emit no fault events");

    let probe = ProbeHandle::new(ProbeStack::new().with_chrome());
    let faulty = TaskLevelSim::new(machine.network)
        .with_options(recording(&probe, faults))
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
                .with_options(recording(&probe, faults))
                .run(&gen.generate_task_level());
        } else {
            HybridSim::new(machine)
                .with_options(recording(&probe, None))
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

/// FNV-1a (64-bit) of `bytes`: the multi-batch trace is too large to
/// keep as a golden file, so its golden is this hash and its length.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The `sim` arguments of the multi-batch golden run: a torus:4x4
/// all-to-all emitting 16,448 probe events, so the sinks see more than a
/// dozen full event batches (the other probe goldens hold 185–1,417
/// events, at most one batch).
fn multibatch_args(extra: &[&str]) -> Vec<String> {
    let mut args = [
        "sim",
        "--machine",
        "test",
        "--topology",
        "torus:4x4",
        "--mode",
        "task",
        "--pattern",
        "all2all",
        "--phases",
        "2",
    ]
    .map(String::from)
    .to_vec();
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

/// Byte goldens of a run long enough for many probe-event batches: the
/// Chrome trace (by hash), `--metrics` and `attribution.json`. A
/// checkpointing run of the same configuration captures the attribution
/// sink mid-stream, and a run restored from one of its snapshots must
/// write the straight run's `attribution.json`.
#[test]
fn a_multi_batch_run_matches_its_goldens_and_restores_its_attribution() {
    let dir = std::env::temp_dir().join(format!("mermaid-multibatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("ckpt")).unwrap();
    let path = |leaf: &str| dir.join(leaf).to_str().unwrap().to_string();

    let (trace, attribution) = (path("trace.json"), path("attribution.json"));
    let stdout = mermaid::cli::run(&multibatch_args(&[
        "--metrics",
        "--trace-out",
        &trace,
        "--attribution",
        &attribution,
    ]))
    .unwrap();
    let stable = stdout
        .split("\nSelf-profile")
        .next()
        .unwrap()
        .replace(dir.to_str().unwrap(), "$D");
    check_golden("probe_multibatch.metrics.txt", &stable);
    let straight = std::fs::read_to_string(&attribution).unwrap();
    check_golden("probe_multibatch.attribution.json", &straight);
    let trace_bytes = std::fs::read(&trace).unwrap();
    check_golden(
        "probe_multibatch.trace.fnv",
        &format!(
            "bytes={} fnv1a64={:016x}\n",
            trace_bytes.len(),
            fnv1a64(&trace_bytes)
        ),
    );

    // Captures every 20 µs of a 118 µs run fall between batches, with
    // the sinks mid-stream on their thread (the trace makes the stack
    // render text, so it has one).
    let checkpointed = path("checkpointed.json");
    mermaid::cli::run(&multibatch_args(&[
        "--trace-out",
        &path("checkpointed-trace.json"),
        "--attribution",
        &checkpointed,
        "--checkpoint-every",
        "20000000",
        "--checkpoint-dir",
        &path("ckpt"),
    ]))
    .unwrap();
    assert_eq!(
        std::fs::read_to_string(&checkpointed).unwrap(),
        straight,
        "checkpointing changed attribution.json"
    );
    assert!(
        std::fs::read(path("checkpointed-trace.json")).unwrap() == trace_bytes,
        "checkpointing changed the trace"
    );
    let mut snaps: Vec<_> = std::fs::read_dir(dir.join("ckpt"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    snaps.sort();
    assert_eq!(snaps.len(), 5, "{snaps:?}");
    for snap in [&snaps[1], &snaps[4]] {
        let restored = path("restored.json");
        mermaid::cli::run(&multibatch_args(&[
            "--attribution",
            &restored,
            "--restore",
            snap.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&restored).unwrap(),
            straight,
            "restored from {}",
            snap.display()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
