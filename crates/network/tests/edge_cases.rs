//! Edge cases of the communication model: degenerate message sizes,
//! out-of-order multi-source receives, async-receive ordering, and
//! saturation behaviour.

use mermaid_network::{CommSim, NetworkConfig, Topology};
use mermaid_ops::{NodeId, Operation, TraceSet};
use pearl::Time;

fn cfg(n: u32) -> NetworkConfig {
    NetworkConfig::test(Topology::Ring(n))
}

fn traces(n: u32, f: impl Fn(NodeId) -> Vec<Operation>) -> TraceSet {
    let mut ts = TraceSet::new(n as usize);
    for node in 0..n {
        ts.trace_mut(node).ops = f(node);
    }
    ts
}

#[test]
fn zero_byte_messages_complete() {
    // Pure synchronisation messages (header-only packets).
    let ts = traces(2, |node| match node {
        0 => vec![Operation::Send { bytes: 0, dst: 1 }],
        _ => vec![Operation::Recv { src: 0 }],
    });
    let r = CommSim::new(cfg(2), &ts).run();
    assert!(r.all_done);
    assert_eq!(r.total_messages, 1);
    assert_eq!(r.total_bytes, 0);
    // Still takes real time (headers, routing).
    assert!(r.finish > Time::ZERO);
}

#[test]
fn maximum_size_messages_complete() {
    // 64 MiB message → 65536 packets of 1 KiB.
    let bytes = 64 * 1024 * 1024u32;
    let ts = traces(2, |node| match node {
        0 => vec![Operation::ASend { bytes, dst: 1 }],
        _ => vec![Operation::Recv { src: 0 }],
    });
    let r = CommSim::new(cfg(2), &ts).run();
    assert!(r.all_done);
    assert_eq!(r.total_bytes, bytes as u64);
    // At 1 GB/s the transfer alone is ≥ 64 ms of virtual time.
    assert!(r.finish >= Time::from_ms(64));
}

#[test]
fn receives_from_distinct_sources_match_by_source() {
    // Node 2 receives from 0 and 1 in the *opposite* order of arrival:
    // source-keyed matching must hold the early message.
    let ts = traces(3, |node| match node {
        0 => vec![Operation::ASend { bytes: 8, dst: 2 }], // arrives first
        1 => vec![
            Operation::Compute { ps: 1_000_000 },
            Operation::ASend { bytes: 8, dst: 2 },
        ],
        _ => vec![
            Operation::Recv { src: 1 }, // waits for the late sender
            Operation::Recv { src: 0 }, // then consumes the early one
        ],
    });
    let r = CommSim::new(cfg(3), &ts).run();
    assert!(r.all_done, "deadlocked: {:?}", r.deadlocked);
    assert!(r.nodes[2].proc.recv_block >= pearl::Duration::from_us(1) / 2);
}

#[test]
fn multiple_messages_from_one_source_are_fifo() {
    let ts = traces(2, |node| match node {
        0 => vec![
            Operation::ASend { bytes: 100, dst: 1 },
            Operation::ASend { bytes: 200, dst: 1 },
            Operation::ASend { bytes: 300, dst: 1 },
        ],
        _ => vec![
            Operation::Recv { src: 0 },
            Operation::Recv { src: 0 },
            Operation::Recv { src: 0 },
        ],
    });
    let r = CommSim::new(cfg(2), &ts).run();
    assert!(r.all_done);
    assert_eq!(r.nodes[1].proc.msgs_received, 3);
}

#[test]
fn arecv_before_and_after_arrival_both_consume() {
    let ts = traces(2, |node| match node {
        0 => vec![
            Operation::ASend { bytes: 8, dst: 1 },
            Operation::ASend { bytes: 8, dst: 1 },
        ],
        _ => vec![
            Operation::ARecv { src: 0 },           // posted before arrival
            Operation::Compute { ps: 10_000_000 }, // let both arrive
            Operation::ARecv { src: 0 },           // posted after arrival
        ],
    });
    let r = CommSim::new(cfg(2), &ts).run();
    assert!(r.all_done);
    assert_eq!(r.nodes[1].proc.msgs_received, 2);
}

#[test]
fn saturating_a_ring_keeps_throughput_finite_and_fair() {
    // Every node floods its neighbour with 50 messages; all complete, and
    // per-node service is symmetric (same count everywhere).
    let n = 6u32;
    let msgs = 50u32;
    let ts = traces(n, |node| {
        let mut ops = Vec::new();
        for _ in 0..msgs {
            ops.push(Operation::ASend {
                bytes: 4096,
                dst: (node + 1) % n,
            });
        }
        for _ in 0..msgs {
            ops.push(Operation::Recv {
                src: (node + n - 1) % n,
            });
        }
        ops
    });
    let r = CommSim::new(cfg(n), &ts).run();
    assert!(r.all_done);
    assert_eq!(r.total_messages, (n * msgs) as u64);
    for node in &r.nodes {
        assert_eq!(node.proc.msgs_received, msgs as u64);
    }
    // Aggregate goodput can't exceed the aggregate link bandwidth.
    let bytes_total = (n * msgs) as u64 * 4096;
    let min_time_s = bytes_total as f64 / (n as f64 * 1e9);
    assert!(r.finish.as_secs_f64() >= min_time_s);
}

#[test]
fn sync_send_to_a_node_that_uses_arecv_still_gets_its_ack() {
    // The rendezvous ack must fire when an *async* receive consumes the
    // message too.
    let ts = traces(2, |node| match node {
        0 => vec![Operation::Send { bytes: 64, dst: 1 }],
        _ => vec![
            Operation::ARecv { src: 0 },
            Operation::Compute { ps: 10_000_000 },
        ],
    });
    let r = CommSim::new(cfg(2), &ts).run();
    assert!(r.all_done, "sender never unblocked: {:?}", r.deadlocked);
    assert!(r.nodes[0].proc.send_block > pearl::Duration::ZERO);
}

#[test]
fn messages_from_one_source_are_consumed_first_in_first_out() {
    use mermaid_probe::{ProbeHandle, ProbeStack, SimEvent};
    // All three arrive before the first receive, so each receive, blocking
    // or not, takes the oldest queued message from that source.
    let ts = traces(2, |node| match node {
        0 => [100, 200, 300]
            .map(|bytes| Operation::ASend { bytes, dst: 1 })
            .to_vec(),
        _ => vec![
            Operation::Compute { ps: 10_000_000 },
            Operation::Recv { src: 0 },
            Operation::ARecv { src: 0 },
            Operation::Recv { src: 0 },
        ],
    });
    let probe = ProbeHandle::new(ProbeStack::new().with_buffer());
    let r = CommSim::new_with_probe(cfg(2), &ts, probe.clone()).run();
    assert!(r.all_done);
    let consumed: Vec<u32> = (probe.take_buffer().unwrap().iter())
        .filter_map(|e| match e {
            SimEvent::MsgDeliver { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .collect();
    assert_eq!(consumed, [100, 200, 300]);
}

#[test]
fn an_arecv_acks_a_sync_send_on_arrival_or_when_posted_after_it() {
    // Posted before the message arrives, the arecv consumes it on arrival;
    // posted after, it consumes the queued message at the post. The
    // sender's rendezvous ack, sent on consumption, tells the two apart.
    let send_block = |arecv_first: bool| {
        let ts = traces(2, |node| match node {
            0 => vec![Operation::Send { bytes: 64, dst: 1 }],
            _ if arecv_first => vec![
                Operation::ARecv { src: 0 },
                Operation::Compute { ps: 10_000_000 },
            ],
            _ => vec![
                Operation::Compute { ps: 10_000_000 },
                Operation::ARecv { src: 0 },
            ],
        });
        let r = CommSim::new(cfg(2), &ts).run();
        assert!(r.all_done, "arecv first: {arecv_first}: {:?}", r.deadlocked);
        assert_eq!(r.nodes[1].proc.msgs_received, 1);
        r.nodes[0].proc.send_block
    };
    let on_arrival = send_block(true);
    let at_post = send_block(false);
    assert!(on_arrival < pearl::Duration::from_us(10), "{on_arrival:?}");
    assert!(at_post >= pearl::Duration::from_us(10), "{at_post:?}");
}

#[test]
fn a_posted_arecv_claims_a_message_before_a_blocked_recv() {
    // Node 1 posts an arecv and then blocks in a recv on the same source:
    // the first message satisfies the arecv, the second (5 us later) the
    // recv. A matched arecv is used up, so the second is not claimed too.
    let ts = traces(2, |node| match node {
        0 => vec![
            Operation::ASend { bytes: 8, dst: 1 },
            Operation::Compute { ps: 5_000_000 },
            Operation::ASend { bytes: 8, dst: 1 },
        ],
        _ => vec![Operation::ARecv { src: 0 }, Operation::Recv { src: 0 }],
    });
    let r = CommSim::new(cfg(2), &ts).run();
    assert!(r.all_done, "the recv never completed: {:?}", r.deadlocked);
    assert_eq!(r.nodes[1].proc.msgs_received, 2);
    assert!(r.nodes[1].proc.recv_block >= pearl::Duration::from_us(5));
}
