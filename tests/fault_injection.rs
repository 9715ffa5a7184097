//! Conformance suite for the fault-injection layer (`mermaid-fault`).
//!
//! Three pillars, straight from the robustness goals of the workbench:
//!
//! 1. **Determinism** — under any scripted fault schedule, a sharded run
//!    must be bit-identical to the serial run: same results, same per-node
//!    stats and histograms, same probe event stream.
//! 2. **Recovery** — when faults heal before the retry budget runs out,
//!    every message is still delivered and nothing is reported failed.
//! 3. **Degradation, not deadlock** — when a partition is permanent, the
//!    run completes with structured unreachable reports instead of
//!    hanging.

use std::sync::Arc;

use mermaid_network::{
    run_comm, CommResult, CommSim, FaultSchedule, NetworkConfig, RetryParams, RunOptions, Topology,
};
use mermaid_ops::TraceSet;
use mermaid_probe::{canonical_sort, ProbeHandle, ProbeStack, SimEvent};
use mermaid_tracegen::{CommPattern, StochasticApp, StochasticGenerator};
use pearl::Time;

fn traces(n: u32, pattern: CommPattern, seed: u64) -> TraceSet {
    let app = StochasticApp {
        phases: 3,
        pattern,
        ..StochasticApp::scientific(n)
    };
    StochasticGenerator::new(app, seed).generate_task_level()
}

/// Run serially with faults, capturing the model-level probe stream in
/// canonical order (the order a sharded replay uses; engine-internal
/// events are scheduler bookkeeping and excluded from the contract).
fn run_serial(
    cfg: NetworkConfig,
    ts: &TraceSet,
    faults: &Arc<FaultSchedule>,
) -> (CommResult, Vec<SimEvent>) {
    let probe = ProbeHandle::new(ProbeStack::new().with_buffer());
    let r = CommSim::new_with_faults(cfg, ts, probe.clone(), Arc::clone(faults)).run();
    let mut events: Vec<SimEvent> = probe
        .take_buffer()
        .unwrap()
        .into_iter()
        .filter(|e| !e.is_engine_internal())
        .collect();
    canonical_sort(&mut events);
    (r, events)
}

/// Run on `shards` worker threads with faults, capturing the probe stream
/// (a sharded replay is already canonical).
fn run_shards(
    cfg: NetworkConfig,
    ts: &TraceSet,
    faults: &Arc<FaultSchedule>,
    shards: usize,
) -> (CommResult, Vec<SimEvent>) {
    let probe = ProbeHandle::new(ProbeStack::new().with_buffer());
    let opts = RunOptions {
        probe: probe.clone(),
        shards,
        faults: Some(Arc::clone(faults)),
        ..RunOptions::default()
    };
    let (r, _) = run_comm(cfg, ts, &opts).expect("a run without snapshot options cannot fail");
    (r, probe.take_buffer().unwrap())
}

/// A schedule that exercises every fault class: a transient link cut, a
/// router crash with recovery, and background packet loss + corruption.
/// Link 0–1 and router 2 exist in all the topologies under test.
fn eventful_schedule(seed: u64) -> Arc<FaultSchedule> {
    let mut f = FaultSchedule::new(seed)
        .with_drop_ppm(20_000)
        .with_corrupt_ppm(10_000);
    f.cut_link(0, 1, Time::from_us(2), Some(Time::from_us(60)));
    f.crash_router(2, Time::from_us(10), Some(Time::from_us(80)));
    Arc::new(f)
}

#[test]
fn sharded_faulty_runs_are_bit_identical_across_topologies() {
    let topos = [
        Topology::Ring(8),
        Topology::Mesh2D { w: 4, h: 2 },
        Topology::Torus2D { w: 4, h: 2 },
        Topology::Hypercube { dim: 3 },
    ];
    for topo in topos {
        for pattern in [CommPattern::NearestNeighborRing, CommPattern::AllToAll] {
            let ts = traces(topo.nodes(), pattern, 17);
            let faults = eventful_schedule(7);
            let (serial, serial_stream) = run_serial(NetworkConfig::test(topo), &ts, &faults);
            let (sharded, sharded_stream) = run_shards(NetworkConfig::test(topo), &ts, &faults, 3);
            // The Debug rendering covers every field: times, event counts,
            // per-node processor/router stats, histograms, reports.
            assert_eq!(
                format!("{serial:?}"),
                format!("{sharded:?}"),
                "{topo:?} × {pattern:?} results diverged under faults"
            );
            assert_eq!(
                serial_stream, sharded_stream,
                "{topo:?} × {pattern:?} probe streams diverged under faults"
            );
            // The schedule is eventful by construction: the run must have
            // actually seen drops/retries, or this test tests nothing.
            assert!(
                serial.total_dropped > 0 || serial.total_retries > 0,
                "{topo:?} × {pattern:?}: schedule injected nothing"
            );
        }
    }
}

#[test]
fn faults_that_heal_before_the_retry_budget_lose_nothing() {
    // Outage windows sit well inside the give-up horizon (the budget sums
    // to ~63× the base timeout), so every message must eventually land.
    for topo in [Topology::Ring(6), Topology::Mesh2D { w: 3, h: 3 }] {
        let cfg = NetworkConfig::test(topo);
        let ts = traces(topo.nodes(), CommPattern::AllToAll, 5);
        let mut f = FaultSchedule::new(3).with_retry(RetryParams::default_for(&cfg));
        f.cut_link(0, 1, Time::from_us(1), Some(Time::from_us(40)));
        f.crash_router(topo.nodes() - 1, Time::from_us(5), Some(Time::from_us(30)));
        let faults = Arc::new(f);
        let (r, _) = run_serial(cfg, &ts, &faults);

        assert!(r.all_done, "deadlocked: {:?}", r.deadlocked);
        assert_eq!(
            r.msgs_failed, 0,
            "{topo:?}: messages failed despite healing"
        );
        assert!(r.unreachable.is_empty(), "{topo:?}: {:?}", r.unreachable);
        assert_eq!(r.recv_timeouts, 0, "{topo:?}: receives timed out");
        let d = r.delivery();
        assert!(
            d.conserved(),
            "{topo:?}: tracked={} acked={} failed={}",
            d.tracked,
            d.acked,
            d.failed
        );
        assert_eq!(d.delivered_fraction(), Some(1.0));

        // Deliveries match the fault-free run of the same traces.
        let healthy = CommSim::new(cfg, &ts).run();
        assert_eq!(r.total_messages, healthy.total_messages, "{topo:?}");
    }
}

#[test]
fn permanent_partition_degrades_with_reports_and_never_deadlocks() {
    // The acceptance scenario: a 4×4 mesh whose corner node 15 loses both
    // of its links at t=0, permanently, under all-to-all traffic. Every
    // sender that targets node 15 must exhaust its retries and file a
    // structured unreachable report; node 15's own traffic fails too; the
    // run completes (degraded) on every node, identically serial vs
    // sharded.
    let topo = Topology::Mesh2D { w: 4, h: 4 };
    let cfg = NetworkConfig::test(topo);
    let ts = traces(16, CommPattern::AllToAll, 23);
    // Network-scaled retry defaults: generous enough that congested-but-
    // healthy pairs never spuriously give up, so every report points at
    // the real partition.
    let retry = RetryParams::default_for(&cfg);
    let mut f = FaultSchedule::new(1).with_retry(retry);
    f.cut_link(15, 11, Time::ZERO, None);
    f.cut_link(15, 14, Time::ZERO, None);
    let faults = Arc::new(f);

    let (serial, serial_stream) = run_serial(cfg, &ts, &faults);
    let (sharded, sharded_stream) = run_shards(cfg, &ts, &faults, 3);
    assert_eq!(format!("{serial:?}"), format!("{sharded:?}"));
    assert_eq!(serial_stream, sharded_stream);

    // Completion, not deadlock: every processor ran its trace to the end.
    assert!(serial.all_done, "deadlocked nodes: {:?}", serial.deadlocked);
    assert!(serial.deadlocked.is_empty());

    // Structured degradation: failures were reported, every unreachable
    // pair involves the partitioned corner, and the reports carry the
    // exhausted retry budget.
    assert!(serial.degraded());
    assert!(serial.msgs_failed > 0);
    let pairs = serial.unreachable_pairs();
    assert!(!pairs.is_empty());
    for (src, dst) in &pairs {
        assert!(
            *src == 15 || *dst == 15,
            "unreachable pair {src}->{dst} does not involve the partitioned node"
        );
    }
    for rep in &serial.unreachable {
        assert_eq!(
            rep.retries, retry.max_retries,
            "report should carry the exhausted budget"
        );
    }
    // Both directions degraded: the cut strands traffic into *and* out of
    // the corner.
    assert!(pairs.iter().any(|&(_, dst)| dst == 15));
    assert!(serial.recv_timeouts > 0, "blocked receives must time out");

    // Conservation: every tracked message was acked or reported, none
    // vanished.
    let d = serial.delivery();
    assert!(
        d.conserved(),
        "tracked={} acked={} failed={}",
        d.tracked,
        d.acked,
        d.failed
    );
    assert!(d.delivered_fraction().unwrap() < 1.0);
}

#[test]
fn disabled_fault_layer_is_bit_identical_to_the_plain_path() {
    // Zero cost when disabled: threading `None` through the fault plumbing
    // must reproduce the plain run exactly, probe stream included.
    let topo = Topology::Torus2D { w: 4, h: 2 };
    let ts = traces(8, CommPattern::Butterfly, 29);

    let plain_probe = ProbeHandle::new(ProbeStack::new().with_jsonl());
    let plain = CommSim::new_with_probe(NetworkConfig::test(topo), &ts, plain_probe.clone()).run();

    let off_probe = ProbeHandle::new(ProbeStack::new().with_jsonl());
    let opts = RunOptions {
        probe: off_probe.clone(),
        ..RunOptions::default()
    };
    let (off, _) = run_comm(NetworkConfig::test(topo), &ts, &opts)
        .expect("a run without snapshot options cannot fail");

    assert_eq!(format!("{plain:?}"), format!("{off:?}"));
    assert_eq!(plain_probe.jsonl_output(), off_probe.jsonl_output());
    assert_eq!(off.total_retries, 0);
    assert_eq!(off.delivery().tracked, 0);
}

#[test]
fn late_re_acks_are_ignored_not_fatal() {
    // Regression test for the duplicate-completion panic: an aggressive
    // retry fuse — far shorter than a healthy round trip — makes every
    // sender retransmit while its first acknowledgement is still in
    // flight. The receiver re-acks each duplicate arrival, so senders see
    // acks for messages they have *already* completed (and receivers see
    // packets of messages they already assembled). All of those late
    // re-acks must be dropped silently; the completion APIs used to treat
    // an unknown token as a panic-worthy protocol error, which took the
    // whole simulation down in exactly this race.
    let topo = Topology::Ring(4);
    let cfg = NetworkConfig::test(topo);
    let n = topo.nodes();
    let mut ts = TraceSet::new(n as usize);
    for node in 0..n {
        ts.trace_mut(node).ops = vec![
            mermaid_ops::Operation::Send {
                bytes: 64,
                dst: (node + 1) % n,
            },
            mermaid_ops::Operation::Recv {
                src: (node + n - 1) % n,
            },
            mermaid_ops::Operation::ASend {
                bytes: 200,
                dst: (node + 2) % n,
            },
            mermaid_ops::Operation::Recv {
                src: (node + 2) % n,
            },
        ];
    }
    // No scripted faults and no background loss: every retransmission is
    // spurious, so every one of its acks arrives late by construction.
    // The first timeouts fire at 100 ns — before any 64-byte round trip
    // completes — while the exponential backoff (capped at 5 µs, budget of
    // 50 retries) guarantees the protocol always outlasts the congestion
    // its own duplicates create.
    let retry = RetryParams {
        base_timeout: pearl::Duration::from_ps(100_000), // 100 ns
        backoff_cap: pearl::Duration::from_us(5),
        max_retries: 50,
        recv_timeout: pearl::Duration::from_ms(50),
    };
    let faults = Arc::new(FaultSchedule::new(11).with_retry(retry));

    let (serial, serial_stream) = run_serial(cfg, &ts, &faults);
    let (sharded, sharded_stream) = run_shards(cfg, &ts, &faults, 3);
    assert_eq!(format!("{serial:?}"), format!("{sharded:?}"));
    assert_eq!(serial_stream, sharded_stream);

    // The race actually happened: retransmissions fired with nothing lost.
    assert!(
        serial.total_retries > 0,
        "fuse long enough that no ack was ever late — test exercises nothing"
    );
    // And it was harmless: everything delivered, nothing failed, nothing
    // wedged, every tracked message accounted for exactly once.
    assert!(serial.all_done, "deadlocked: {:?}", serial.deadlocked);
    assert_eq!(serial.msgs_failed, 0);
    assert!(serial.unreachable.is_empty());
    let d = serial.delivery();
    assert!(d.conserved(), "tracked={} acked={}", d.tracked, d.acked);
    assert_eq!(d.delivered_fraction(), Some(1.0));
}

#[test]
fn parsed_cli_specs_behave_like_built_schedules() {
    // The CLI spec grammar and the builder API must describe the same
    // schedule: parse a spec, build its twin by hand, compare runs.
    let topo = Topology::Ring(6);
    let cfg = NetworkConfig::test(topo);
    let ts = traces(6, CommPattern::AllToAll, 41);

    let spec = "link:0-1:2000:60000\nrouter:3:10000:80000\ndrop:20000";
    let parsed = Arc::new(
        FaultSchedule::parse(spec, 7, RetryParams::default_for(&cfg)).expect("spec parses"),
    );
    let mut built = FaultSchedule::new(7)
        .with_drop_ppm(20_000)
        .with_retry(RetryParams::default_for(&cfg));
    built.cut_link(0, 1, Time::from_us(2), Some(Time::from_us(60)));
    built.crash_router(3, Time::from_us(10), Some(Time::from_us(80)));
    let built = Arc::new(built);

    let (from_spec, spec_stream) = run_serial(cfg, &ts, &parsed);
    let (from_builder, builder_stream) = run_serial(cfg, &ts, &built);
    assert_eq!(format!("{from_spec:?}"), format!("{from_builder:?}"));
    assert_eq!(spec_stream, builder_stream);
}
