//! Instrumented SPMD kernels — "application descriptions … ranging from
//! full-blown parallel programs to small benchmarks used to tune and
//! validate the machine parameters" (paper, Section 3).
//!
//! Each kernel is written once against the [`Translator`] API and therefore
//! runs unchanged through batch translation, the threaded
//! physical-time-interleaved generator, and (via the traces it produces)
//! every architecture model — the architecture-independence the paper
//! requires of application descriptions.
//!
//! All kernels generate *balanced* communication: every send is matched by
//! a receive on the peer.

use mermaid_ops::{ArithOp, DataType, NodeId};

use crate::annotate::Translator;

/// Row-block matrix multiply `C = A × B` on an `n×n` matrix distributed
/// over `nodes` processors by row blocks; the result blocks are gathered on
/// node 0.
///
/// Per node: `rows × n × n` multiply-accumulate iterations, then one gather
/// message (workers send, node 0 receives).
pub fn block_matmul(a: &mut Translator, nodes: u32, n: u64) {
    let me = a.node();
    let rows = rows_of(me, nodes, n);
    // Local blocks: A rows, full B, C rows.
    let va = a.global("A_block", DataType::F64, rows.max(1) * n);
    let vb = a.global("B", DataType::F64, n * n);
    let vc = a.global("C_block", DataType::F64, rows.max(1) * n);
    let acc = a.local("acc", DataType::F64, 1);

    a.call();
    for i in 0..rows {
        for j in 0..n {
            let jl = a.loop_head();
            a.loadc(DataType::F64); // acc = 0
            a.store(acc);
            for k in 0..n {
                let kl = a.loop_head();
                a.load_idx(va, i * n + k);
                a.load_idx(vb, k * n + j);
                a.arith(ArithOp::Mul, DataType::F64);
                a.load(acc);
                a.arith(ArithOp::Add, DataType::F64);
                a.store(acc);
                a.loop_back(kl);
            }
            a.load(acc);
            a.store_idx(vc, i * n + j);
            a.loop_back(jl);
        }
    }
    a.ret();

    // Gather C blocks on node 0.
    let block_bytes = (rows * n * 8) as u32;
    if me == 0 {
        for w in 1..nodes {
            if rows_of(w, nodes, n) > 0 {
                a.recv(w);
            }
        }
    } else if rows > 0 {
        a.send(block_bytes, 0);
    }
}

/// Rows assigned to `node` under block distribution of `n` rows.
fn rows_of(node: NodeId, nodes: u32, n: u64) -> u64 {
    let base = n / nodes as u64;
    let extra = n % nodes as u64;
    base + if (node as u64) < extra { 1 } else { 0 }
}

/// One-dimensional Jacobi relaxation with halo exchange: `cells` interior
/// points per node, `iters` sweeps. Neighbours exchange one `f64` halo cell
/// per side per sweep (asynchronous sends, blocking receives — the
/// standard deadlock-free schedule).
pub fn jacobi1d(a: &mut Translator, nodes: u32, cells: u64, iters: u32) {
    let me = a.node();
    let left = me.checked_sub(1);
    let right = if me + 1 < nodes { Some(me + 1) } else { None };
    let cur = a.global("u", DataType::F64, cells + 2); // plus halos
    let new = a.global("u_new", DataType::F64, cells + 2);

    for _ in 0..iters {
        // Halo exchange.
        if let Some(l) = left {
            a.asend(8, l);
        }
        if let Some(r) = right {
            a.asend(8, r);
        }
        if let Some(l) = left {
            a.recv(l);
        }
        if let Some(r) = right {
            a.recv(r);
        }
        // Sweep: u_new[i] = 0.5*(u[i-1] + u[i+1]).
        let sweep = a.loop_head();
        for i in 1..=cells {
            let il = a.loop_head();
            a.load_idx(cur, i - 1);
            a.load_idx(cur, i + 1);
            a.arith(ArithOp::Add, DataType::F64);
            a.loadc(DataType::F64);
            a.arith(ArithOp::Mul, DataType::F64);
            a.store_idx(new, i);
            a.loop_back(il);
        }
        // Swap buffers (pointer swap: register work only).
        a.arith(ArithOp::Add, DataType::I32);
        a.loop_back(sweep);
    }
}

/// Binary-tree reduction of `elems` local values to node 0.
///
/// Every node first reduces its local array, then the partial sums flow up
/// a binary tree: in round `r`, nodes with bit `r` set send to
/// `node - 2^r` and stop; the receivers accumulate.
pub fn tree_reduce(a: &mut Translator, nodes: u32, elems: u64) {
    let me = a.node();
    let data = a.global("data", DataType::F64, elems.max(1));
    let sum = a.local("sum", DataType::F64, 1);

    // Local reduction.
    a.loadc(DataType::F64);
    a.store(sum);
    for i in 0..elems {
        let il = a.loop_head();
        a.load_idx(data, i);
        a.load(sum);
        a.arith(ArithOp::Add, DataType::F64);
        a.store(sum);
        a.loop_back(il);
    }

    // Tree combine.
    let mut stride = 1u32;
    while stride < nodes {
        if me & stride != 0 {
            // Send my partial upward and leave the tree.
            a.send(8, me - stride);
            return;
        }
        if me + stride < nodes {
            a.recv(me + stride);
            a.load(sum);
            a.arith(ArithOp::Add, DataType::F64);
            a.store(sum);
        }
        stride <<= 1;
    }
}

/// All-to-all personalized exchange (matrix transpose pattern): every node
/// sends a `block_bytes` block to every other node, then receives from all.
pub fn transpose_all_to_all(a: &mut Translator, nodes: u32, block_bytes: u32) {
    let me = a.node();
    // Marshal each outgoing block (touch it once).
    let buf = a.global("sendbuf", DataType::F64, (block_bytes as u64 / 8).max(1));
    for off in 0..(nodes as u64 - 1).min(8) {
        a.load_idx(buf, off);
        a.arith(ArithOp::Add, DataType::I32);
    }
    for peer in 0..nodes {
        if peer != me {
            a.asend(block_bytes, peer);
        }
    }
    for peer in 0..nodes {
        if peer != me {
            a.recv(peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::TargetLayout;
    use mermaid_ops::{Trace, TraceSet};

    fn run_all<F: Fn(&mut Translator)>(nodes: u32, f: F) -> TraceSet {
        let traces: Vec<Trace> = (0..nodes)
            .map(|node| {
                let mut t = Translator::new(node, TargetLayout::default());
                f(&mut t);
                t.finish()
            })
            .collect();
        TraceSet::from_traces(traces)
    }

    #[test]
    fn matmul_is_balanced_and_scales_cubically() {
        let small = run_all(4, |t| block_matmul(t, 4, 8));
        assert!(small.comm_imbalances().is_empty());
        let large = run_all(4, |t| block_matmul(t, 4, 16));
        // 8× the multiply work per doubling of n.
        let s = small.trace(1).stats();
        let l = large.trace(1).stats();
        let ratio = l.float_arith as f64 / s.float_arith as f64;
        assert!((6.0..10.0).contains(&ratio), "flop ratio {ratio}");
    }

    #[test]
    fn matmul_gathers_on_node_zero() {
        let ts = run_all(4, |t| block_matmul(t, 4, 8));
        assert_eq!(ts.trace(0).stats().recvs, 3);
        assert_eq!(ts.trace(0).stats().sends, 0);
        for w in 1..4 {
            assert_eq!(ts.trace(w).stats().sends, 1);
        }
    }

    #[test]
    fn matmul_handles_more_nodes_than_rows() {
        // 2 rows over 4 nodes: nodes 2 and 3 hold nothing and send nothing.
        let ts = run_all(4, |t| block_matmul(t, 4, 2));
        assert!(ts.comm_imbalances().is_empty());
        assert_eq!(ts.trace(3).stats().sends, 0);
        assert_eq!(ts.trace(0).stats().recvs, 1);
    }

    #[test]
    fn jacobi_exchanges_halos_every_iteration() {
        let ts = run_all(3, |t| jacobi1d(t, 3, 16, 5));
        assert!(ts.comm_imbalances().is_empty());
        // Middle node: 2 sends + 2 recvs per iteration.
        let mid = ts.trace(1).stats();
        assert_eq!(mid.asends, 10);
        assert_eq!(mid.recvs, 10);
        // Edge nodes: 1 each per iteration.
        let edge = ts.trace(0).stats();
        assert_eq!(edge.asends, 5);
        assert_eq!(edge.recvs, 5);
    }

    #[test]
    fn jacobi_single_node_has_no_communication() {
        let ts = run_all(1, |t| jacobi1d(t, 1, 16, 3));
        assert_eq!(ts.trace(0).stats().comm_ops(), 0);
        assert!(ts.trace(0).stats().float_arith > 0);
    }

    #[test]
    fn tree_reduce_is_balanced_for_any_node_count() {
        for nodes in [1u32, 2, 3, 4, 5, 7, 8, 13, 16] {
            let ts = run_all(nodes, |t| tree_reduce(t, nodes, 32));
            assert!(
                ts.comm_imbalances().is_empty(),
                "tree_reduce unbalanced for {nodes} nodes"
            );
            // Exactly nodes-1 messages flow in a reduction.
            let total_sends: u64 = ts.iter().map(|t| t.stats().sends).sum();
            assert_eq!(total_sends, nodes as u64 - 1);
            // Node 0 never sends.
            assert_eq!(ts.trace(0).stats().sends, 0);
        }
    }

    #[test]
    fn transpose_sends_to_everyone() {
        let n = 5u32;
        let ts = run_all(n, |t| transpose_all_to_all(t, n, 4096));
        assert!(ts.comm_imbalances().is_empty());
        for node in 0..n {
            let s = ts.trace(node).stats();
            assert_eq!(s.asends, n as u64 - 1);
            assert_eq!(s.recvs, n as u64 - 1);
            assert_eq!(s.bytes_sent, 4096 * (n as u64 - 1));
        }
    }

    #[test]
    fn kernels_work_through_the_threaded_generator() {
        use crate::interleave::InterleavedTraceGen;
        let gen = InterleavedTraceGen::spawn(4, TargetLayout::default(), |ctx| {
            tree_reduce(ctx, 4, 16);
        });
        let ts = gen.collect_all();
        assert!(ts.comm_imbalances().is_empty());
        // Identical to the batch translation.
        let batch = run_all(4, |t| tree_reduce(t, 4, 16));
        assert_eq!(ts, batch);
    }
}
