//! Collective-communication building blocks for instrumented programs.
//!
//! The SPMD kernels of [`crate::programs`] hand-roll their communication;
//! real message-passing applications compose a small set of collectives.
//! These are the classic algorithms (as a mid-90s message-passing library
//! would implement them), written once against the [`Translator`] API so
//! any program can reuse them. Every collective is *balanced by
//! construction*: called by all `nodes` ranks, it produces matching
//! sends/receives.

use mermaid_ops::NodeId;

use crate::annotate::Translator;

/// Broadcast `bytes` from `root` to every rank along a binomial tree
/// (log₂ n rounds).
pub fn broadcast(a: &mut Translator, nodes: u32, root: NodeId, bytes: u32) {
    assert!(root < nodes, "root {root} out of range");
    // Work in the rotated space where the root is rank 0.
    let me = (a.node() + nodes - root) % nodes;
    let unrot = |r: u32| (r + root) % nodes;
    // Binomial tree: in round k (mask = 2^k), ranks < mask send to
    // rank + mask (if it exists).
    let mut mask = 1u32;
    while mask < nodes {
        if me < mask {
            let peer = me + mask;
            if peer < nodes {
                a.send(bytes, unrot(peer));
            }
        } else if me < 2 * mask {
            a.recv(unrot(me - mask));
        }
        mask <<= 1;
    }
}

/// Reduce `bytes`-sized contributions to `root` along the mirrored
/// binomial tree (the inverse flow of [`broadcast`]).
pub fn reduce(a: &mut Translator, nodes: u32, root: NodeId, bytes: u32) {
    assert!(root < nodes, "root {root} out of range");
    let me = (a.node() + nodes - root) % nodes;
    let unrot = |r: u32| (r + root) % nodes;
    // Reverse the broadcast rounds: largest mask first.
    let mut mask = 1u32;
    while mask < nodes {
        mask <<= 1;
    }
    mask >>= 1;
    while mask >= 1 {
        if me < mask {
            let peer = me + mask;
            if peer < nodes {
                a.recv(unrot(peer));
            }
        } else if me < 2 * mask {
            a.send(bytes, unrot(me - mask));
            return; // contributed; done
        }
        if mask == 1 {
            break;
        }
        mask >>= 1;
    }
}

/// Allreduce = reduce to rank 0 + broadcast back.
pub fn allreduce(a: &mut Translator, nodes: u32, bytes: u32) {
    reduce(a, nodes, 0, bytes);
    broadcast(a, nodes, 0, bytes);
}

/// Scatter distinct `bytes`-sized blocks from `root` to every other rank
/// (linear, as early MPI implementations did).
pub fn scatter(a: &mut Translator, nodes: u32, root: NodeId, bytes: u32) {
    let me = a.node();
    if me == root {
        for r in 0..nodes {
            if r != root {
                a.asend(bytes, r);
            }
        }
    } else {
        a.recv(root);
    }
}

/// Gather `bytes`-sized blocks from every rank onto `root` (linear).
pub fn gather(a: &mut Translator, nodes: u32, root: NodeId, bytes: u32) {
    let me = a.node();
    if me == root {
        for r in 0..nodes {
            if r != root {
                a.recv(r);
            }
        }
    } else {
        a.asend(bytes, root);
    }
}

/// All-gather via the ring algorithm: `n-1` rounds, each rank forwards the
/// block it received in the previous round (bandwidth-optimal).
pub fn allgather_ring(a: &mut Translator, nodes: u32, bytes: u32) {
    if nodes < 2 {
        return;
    }
    let me = a.node();
    let right = (me + 1) % nodes;
    let left = (me + nodes - 1) % nodes;
    for _ in 0..nodes - 1 {
        a.asend(bytes, right);
        a.recv(left);
    }
}

/// Barrier: a zero-byte [`allreduce`].
pub fn barrier(a: &mut Translator, nodes: u32) {
    allreduce(a, nodes, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mermaid_ops::{Trace, TraceSet};

    fn run_all(nodes: u32, f: impl Fn(&mut Translator)) -> TraceSet {
        let traces: Vec<Trace> = (0..nodes)
            .map(|node| {
                let mut t = Translator::with_defaults(node);
                f(&mut t);
                t.finish()
            })
            .collect();
        TraceSet::from_traces(traces)
    }

    /// Simulate the trace set and assert completion (catches deadlocks that
    /// mere send/recv counting cannot, e.g. circular waits of sync sends).
    fn assert_completes(ts: &TraceSet) {
        use mermaid_network::{CommSim, NetworkConfig, Topology};
        let n = ts.nodes() as u32;
        let r = CommSim::new(NetworkConfig::test(Topology::FullyConnected(n.max(2))), &{
            let mut big = TraceSet::new(n.max(2) as usize);
            for node in 0..n {
                *big.trace_mut(node) = ts.trace(node).clone();
            }
            big
        })
        .run();
        assert!(r.all_done, "collective deadlocked: {:?}", r.deadlocked);
    }

    #[test]
    fn broadcast_is_balanced_and_logarithmic() {
        for nodes in [1u32, 2, 3, 5, 8, 13, 16] {
            for root in [0, nodes - 1] {
                let ts = run_all(nodes, |t| broadcast(t, nodes, root, 1024));
                assert!(ts.comm_imbalances().is_empty(), "{nodes} nodes root {root}");
                assert_completes(&ts);
                // Every rank except the root receives exactly once.
                for node in 0..nodes {
                    let s = ts.trace(node).stats();
                    assert_eq!(s.recvs, u64::from(node != root), "node {node}");
                }
                // Total messages = n - 1.
                let sends: u64 = ts.iter().map(|t| t.stats().sends).sum();
                assert_eq!(sends, (nodes - 1) as u64);
                // The root sends at most ⌈log2 n⌉ times.
                let root_sends = ts.trace(root).stats().sends;
                assert!(root_sends <= 32 - u32::leading_zeros(nodes.max(1)) as u64 + 1);
            }
        }
    }

    #[test]
    fn reduce_mirrors_broadcast() {
        for nodes in [1u32, 2, 3, 6, 8, 11, 16] {
            let ts = run_all(nodes, |t| reduce(t, nodes, 0, 8));
            assert!(ts.comm_imbalances().is_empty(), "{nodes} nodes");
            assert_completes(&ts);
            let sends: u64 = ts.iter().map(|t| t.stats().sends).sum();
            assert_eq!(sends, (nodes - 1) as u64);
            assert_eq!(ts.trace(0).stats().sends, 0, "root never sends");
        }
    }

    #[test]
    fn allreduce_and_barrier_complete() {
        for nodes in [2u32, 5, 8] {
            let ts = run_all(nodes, |t| allreduce(t, nodes, 64));
            assert!(ts.comm_imbalances().is_empty());
            assert_completes(&ts);
            let ts = run_all(nodes, |t| barrier(t, nodes));
            assert_completes(&ts);
        }
    }

    #[test]
    fn scatter_gather_are_linear_and_balanced() {
        let nodes = 7u32;
        let ts = run_all(nodes, |t| scatter(t, nodes, 2, 512));
        assert!(ts.comm_imbalances().is_empty());
        assert_completes(&ts);
        assert_eq!(ts.trace(2).stats().asends, 6);

        let ts = run_all(nodes, |t| gather(t, nodes, 2, 512));
        assert!(ts.comm_imbalances().is_empty());
        assert_completes(&ts);
        assert_eq!(ts.trace(2).stats().recvs, 6);
    }

    #[test]
    fn allgather_ring_moves_n_minus_1_blocks_per_rank() {
        let nodes = 6u32;
        let ts = run_all(nodes, |t| allgather_ring(t, nodes, 2048));
        assert!(ts.comm_imbalances().is_empty());
        assert_completes(&ts);
        for node in 0..nodes {
            let s = ts.trace(node).stats();
            assert_eq!(s.asends, (nodes - 1) as u64);
            assert_eq!(s.recvs, (nodes - 1) as u64);
        }
        // Single node degenerates to nothing.
        let ts = run_all(1, |t| allgather_ring(t, 1, 2048));
        assert_eq!(ts.trace(0).stats().comm_ops(), 0);
    }

    #[test]
    fn collectives_compose_into_a_program() {
        // scatter → allreduce → gather, on 8 ranks, completes. (The
        // communication-only composition: computation between collectives
        // would flow through the hybrid model's task extraction first.)
        let nodes = 8u32;
        let ts = run_all(nodes, |t| {
            scatter(t, nodes, 0, 4096);
            allreduce(t, nodes, 8);
            gather(t, nodes, 0, 4096);
        });
        assert!(ts.comm_imbalances().is_empty());
        assert_completes(&ts);
    }
}
