//! The computational phase of a detailed or direct-execution run is spread
//! over a worker pool (DESIGN.md §18, "Node-parallel extraction"). How many
//! workers it gets is a host matter — cores, the campaign around it, an
//! attached probe — and must never show in a result.

use mermaid::prelude::*;

mod common;
use common::{check, scenario, Block};

#[test]
fn results_do_not_depend_on_the_worker_count() {
    check(Block::WorkerCounts);
}

#[test]
fn a_probed_run_keeps_its_node_major_event_stream_whatever_it_is_asked_for() {
    check(Block::ProbedWorkers);
}

#[test]
#[should_panic(expected = "node 3's trace source broke")]
fn a_stream_that_panics_fails_the_run_with_its_own_message() {
    let sc = scenario("topo=ring:6 mode=detailed phases=3 ops=800 seed=9");
    let r = sc.cfg.resolve().unwrap();
    let streams = (0..).zip(r.generator.streams()).map(|(node, ops)| {
        ops.enumerate().map(move |(i, op)| {
            assert!(node != 3 || i < 100, "node 3's trace source broke");
            op
        })
    });
    HybridSim::new(r.machine)
        .with_workers(3)
        .run_streams(streams.collect::<Vec<_>>());
}
