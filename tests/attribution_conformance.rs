//! Conformance tests for the bottleneck-attribution subsystem.
//!
//! The attribution contract (DESIGN.md §14): the report is a pure
//! function of the probe stream — byte-identical between serial and
//! sharded runs, blind to host timing, and strictly observational (the
//! simulation's own results never move). The per-message latency
//! decomposition is conservative: the six components partition the
//! end-to-end latency exactly, with no residual.

use mermaid::prelude::*;
use mermaid::TaskLevelResult;
use mermaid_network::RunOptions;
use mermaid_probe::SimEvent;

mod common;
use common::matrix::{EVENTFUL, TOPOS};
use common::{check, scenario, Block, Scenario};

/// A run of `sc` recording into `probe`.
fn probed(sc: &Scenario, probe: &ProbeHandle) -> TaskLevelResult {
    let r = sc.cfg.resolve().unwrap();
    TaskLevelSim::new(r.machine.network)
        .with_options(RunOptions {
            probe: probe.clone(),
            faults: r.faults,
            ..RunOptions::default()
        })
        .run(&sc.task_traces())
}

#[test]
fn attribution_json_is_byte_identical_serial_vs_sharded() {
    check(Block::Attribution);
}

#[test]
fn faulty_attribution_is_byte_identical_serial_vs_sharded() {
    check(Block::FaultyAttribution);
}

#[test]
fn attribution_is_purely_observational() {
    // Attaching the sink must not move a single simulated observable.
    for topo in ["ring:8", "torus:4x2"] {
        let sc = scenario(&format!("topo={topo} pattern=all2all seed=5"));
        let probe = ProbeHandle::new(ProbeStack::new().with_attribution());
        assert_eq!(
            format!("{:?}", sc.comm()),
            format!("{:?}", probed(&sc, &probe).comm),
            "{sc}: attribution perturbed the run"
        );
    }
}

/// Every `msg_path` record partitions its end-to-end latency exactly:
/// overhead + retry + queue + routing + ser + wire == latency.
fn assert_conservation(events: &[SimEvent], ctx: &str) -> u64 {
    let mut paths = 0;
    for ev in events {
        if let SimEvent::MsgPath {
            latency_ps,
            overhead_ps,
            retry_ps,
            queue_ps,
            routing_ps,
            ser_ps,
            wire_ps,
            src,
            dst,
            ..
        } = *ev
        {
            paths += 1;
            let sum = overhead_ps + retry_ps + queue_ps + routing_ps + ser_ps + wire_ps;
            assert_eq!(
                sum, latency_ps,
                "{ctx}: {src}->{dst} components leave a residual"
            );
        }
    }
    paths
}

#[test]
fn latency_components_conserve_end_to_end_latency() {
    for topo in TOPOS {
        for faults in ["none", EVENTFUL] {
            let flags = format!("topo={topo} pattern=all2all seed=13 faults={faults} fault_seed=7");
            let sc = scenario(&flags);
            let probe = ProbeHandle::new(ProbeStack::new().with_buffer());
            let r = probed(&sc, &probe);
            let ctx = sc.to_string();
            let paths = assert_conservation(&probe.take_buffer().unwrap(), &ctx);
            assert_eq!(
                paths, r.comm.total_messages,
                "{ctx}: one msg_path per delivered message"
            );
        }
    }
}
