//! Conformance suite for the fault-injection layer (`mermaid-fault`).
//!
//! Three pillars, straight from the robustness goals of the workbench:
//!
//! 1. **Determinism** — under any scripted fault schedule, a sharded run
//!    must be bit-identical to the serial run: same results, same per-node
//!    stats and histograms, same probe event stream (rows of the
//!    conformance matrix, `tests/common/`).
//! 2. **Recovery** — when faults heal before the retry budget runs out,
//!    every message is still delivered and nothing is reported failed.
//! 3. **Degradation, not deadlock** — when a partition is permanent, the
//!    run completes with structured unreachable reports instead of
//!    hanging.

use std::sync::Arc;

use mermaid_network::{
    run_comm, CommSim, FaultSchedule, NetworkConfig, RetryParams, RunOptions, Topology,
};
use mermaid_ops::{Operation, TraceSet};
use mermaid_probe::{ProbeHandle, ProbeStack};
use pearl::Time;

mod common;
use common::matrix::PARTITION;
use common::{agree, check, observe_traces, scenario, Block, Exec};

/// Every topology shape × two patterns under a schedule with every fault
/// class, plus a permanent partition: a sharded run reproduces the
/// serial results and probe stream.
#[test]
fn sharded_faulty_runs_are_bit_identical_across_topologies() {
    check(Block::FaultySharded);
}

#[test]
fn faults_that_heal_before_the_retry_budget_lose_nothing() {
    // Outage windows sit well inside the give-up horizon (the budget sums
    // to ~63× the base timeout), so every message must eventually land.
    // Link 0-1 down 1-40 µs, the last router down 5-30 µs.
    for (topo, last) in [("ring:6", 5), ("mesh:3x3", 8)] {
        let flags = format!("topo={topo} pattern=all2all phases=3 seed=5");
        let faults = format!("faults=link:0-1:1000:40000+router:{last}:5000:30000 fault_seed=3");
        let r = scenario(&format!("{flags} {faults}")).comm();

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
        let healthy = scenario(&flags).comm();
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
    // sharded (a row of the matrix).
    let serial = scenario(PARTITION).comm();
    // Network-scaled retry defaults: generous enough that congested-but-
    // healthy pairs never spuriously give up, so every report points at
    // the real partition.
    let retry = RetryParams::default_for(&NetworkConfig::test(Topology::Mesh2D { w: 4, h: 4 }));

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
    let ts = scenario("topo=torus:4x2 pattern=butterfly phases=3 seed=29").task_traces();

    let plain_probe = ProbeHandle::new(ProbeStack::new().with_jsonl());
    let plain = CommSim::new_with_probe(NetworkConfig::test(topo), &ts, plain_probe.clone()).run();

    let off_probe = ProbeHandle::new(ProbeStack::new().with_jsonl());
    let opts = RunOptions {
        probe: off_probe.clone(),
        ..RunOptions::default()
    };
    let (off, _) = run_comm(NetworkConfig::test(topo), &ts, opts)
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
        let (next, prev, far) = ((node + 1) % n, (node + n - 1) % n, (node + 2) % n);
        ts.trace_mut(node).ops = vec![
            Operation::Send {
                bytes: 64,
                dst: next,
            },
            Operation::Recv { src: prev },
            Operation::ASend {
                bytes: 200,
                dst: far,
            },
            Operation::Recv { src: far },
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

    let serial = observe_traces(cfg, &ts, &faults, Exec::Serial);
    let sharded = observe_traces(cfg, &ts, &faults, Exec::Sharded(3));
    agree(&"late re-acks on ring:4", &serial, &sharded);
    let serial = serial.comm.unwrap();

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
    let cfg = NetworkConfig::test(Topology::Ring(6));
    let ts = scenario("topo=ring:6 pattern=all2all phases=3 seed=41").task_traces();

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

    agree(
        &spec,
        &observe_traces(cfg, &ts, &parsed, Exec::Serial),
        &observe_traces(cfg, &ts, &built, Exec::Serial),
    );
}
