//! Determinism property: the communication model is a pure function of
//! (configuration, traces). Two independently constructed simulations of
//! the same inputs must agree on *every* observable — virtual times,
//! event counts, per-node statistics — across routing and switching
//! modes. The trace-validity argument of the workbench (task-level traces
//! reflect one legal physical interleaving) rests on this.

use proptest::prelude::*;

use mermaid_network::{CommResult, CommSim, NetworkConfig, Routing, Switching, Topology};
use mermaid_ops::{Operation, TraceSet};
use pearl::{RunResult, Time};

/// Compare every observable of two results.
fn assert_identical(a: &CommResult, b: &CommResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.finish, b.finish);
    prop_assert_eq!(a.all_done, b.all_done);
    prop_assert_eq!(&a.deadlocked, &b.deadlocked);
    prop_assert_eq!(a.events, b.events);
    prop_assert_eq!(a.total_messages, b.total_messages);
    prop_assert_eq!(a.total_bytes, b.total_bytes);
    prop_assert_eq!(a.msg_latency.count(), b.msg_latency.count());
    prop_assert_eq!(a.msg_latency.max(), b.msg_latency.max());
    prop_assert_eq!(a.nodes.len(), b.nodes.len());
    for (na, nb) in a.nodes.iter().zip(&b.nodes) {
        prop_assert_eq!(na.node, nb.node);
        prop_assert_eq!(na.proc.finished_at, nb.proc.finished_at);
        prop_assert_eq!(na.proc.compute, nb.proc.compute);
        prop_assert_eq!(na.proc.send_block, nb.proc.send_block);
        prop_assert_eq!(na.proc.recv_block, nb.proc.recv_block);
        prop_assert_eq!(na.proc.msgs_sent, nb.proc.msgs_sent);
        prop_assert_eq!(na.proc.bytes_sent, nb.proc.bytes_sent);
        prop_assert_eq!(na.proc.msgs_received, nb.proc.msgs_received);
        prop_assert_eq!(na.router.forwarded, nb.router.forwarded);
        prop_assert_eq!(na.router.delivered, nb.router.delivered);
        prop_assert_eq!(na.router.link_wait, nb.router.link_wait);
        prop_assert_eq!(na.router.link_busy, nb.router.link_busy);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary balanced workloads over an 8-node hypercube, all four
    /// routing × switching combinations: two fresh simulations produce
    /// bit-identical results.
    #[test]
    fn independent_runs_are_bit_identical(
        flows in prop::collection::vec(
            (0u32..8, 0u32..8, 1u32..40_000, 0u64..50_000), 1..25),
        adaptive in any::<bool>(),
        saf in any::<bool>(),
    ) {
        let mut cfg = NetworkConfig::test(Topology::Hypercube { dim: 3 });
        cfg.router.routing = if adaptive {
            Routing::AdaptiveMinimal
        } else {
            Routing::DimensionOrder
        };
        cfg.router.switching = if saf {
            Switching::StoreAndForward
        } else {
            Switching::VirtualCutThrough
        };
        let mut ts = TraceSet::new(8);
        for &(src, dst, bytes, compute_ps) in &flows {
            if compute_ps > 0 {
                ts.trace_mut(src).push(Operation::Compute { ps: compute_ps });
            }
            ts.trace_mut(src).push(Operation::ASend { bytes, dst });
        }
        for &(src, dst, _, _) in &flows {
            ts.trace_mut(dst).push(Operation::Recv { src });
        }
        let a = CommSim::new(cfg, &ts).run();
        let b = CommSim::new(cfg, &ts).run();
        prop_assert!(a.all_done, "deadlocked: {:?}", a.deadlocked);
        assert_identical(&a, &b)?;
    }

    /// Incremental observation must not perturb the result: a run stepped
    /// in small event batches ends bit-identical to an uninterrupted run.
    #[test]
    fn batched_stepping_matches_one_shot_run(
        flows in prop::collection::vec((0u32..8, 0u32..8, 1u32..20_000), 1..15),
        batch in 1u64..64,
    ) {
        let cfg = NetworkConfig::test(Topology::Hypercube { dim: 3 });
        let mut ts = TraceSet::new(8);
        for &(src, dst, bytes) in &flows {
            ts.trace_mut(src).push(Operation::ASend { bytes, dst });
        }
        for &(src, dst, _) in &flows {
            ts.trace_mut(dst).push(Operation::Recv { src });
        }
        let one_shot = CommSim::new(cfg, &ts).run();
        let mut stepped_sim = CommSim::new(cfg, &ts);
        while stepped_sim.run_core(Time::MAX, batch) == RunResult::EventLimit {}
        assert_identical(&one_shot, &stepped_sim.result())?;
    }
}
