//! Shared-memory SPMD kernels written against the DSM layer — the same
//! algorithms as `mermaid_tracegen::programs`, but with *no explicit
//! communication*: the applications only read and write shared arrays, and
//! the DSM runtime turns sharing into (one-sided) messages. This is the
//! programming model the paper's Section 5.1 promises.

use mermaid_ops::{ArithOp, DataType};
use mermaid_tracegen::annotate::Translator;

use crate::runtime::{Dsm, DsmConfig};

/// DSM matrix multiply `C = A × B`: all three matrices shared and striped
/// across the nodes; node `me` computes its block of rows. `B` is read by
/// everyone (page faults pull it in once per node), `C` rows are written
/// mostly to locally-homed pages.
pub fn dsm_matmul(ann: &mut Translator, cfg: DsmConfig, n: u64) {
    let me = ann.node();
    let nodes = cfg.nodes;
    let mut dsm = Dsm::new(ann, cfg);
    let a = dsm.shared_array("A", DataType::F64, n * n);
    let b = dsm.shared_array("B", DataType::F64, n * n);
    let c = dsm.shared_array("C", DataType::F64, n * n);

    // Wait for initialisation everywhere, then compute this node's rows.
    dsm.barrier();
    let rows_per = n.div_ceil(nodes as u64);
    let lo = (me as u64 * rows_per).min(n);
    let hi = ((me as u64 + 1) * rows_per).min(n);
    for i in lo..hi {
        for j in 0..n {
            let ann = dsm.annotator();
            let jl = ann.loop_head();
            ann.loadc(DataType::F64);
            for k in 0..n {
                dsm.read(a, i * n + k);
                dsm.read(b, k * n + j);
                let ann = dsm.annotator();
                ann.arith(ArithOp::Mul, DataType::F64);
                ann.arith(ArithOp::Add, DataType::F64);
            }
            dsm.write(c, i * n + j);
            dsm.annotator().loop_back(jl);
        }
    }
    // Publish results and synchronise.
    dsm.barrier();
}

/// DSM Jacobi relaxation on a shared 1-D grid: every node sweeps its own
/// slice; halo values are simply shared reads — the runtime fetches the
/// neighbour's boundary page on demand after each barrier.
pub fn dsm_jacobi1d(ann: &mut Translator, cfg: DsmConfig, cells_per_node: u64, iters: u32) {
    let me = ann.node() as u64;
    let nodes = cfg.nodes as u64;
    let total = cells_per_node * nodes;
    let mut dsm = Dsm::new(ann, cfg);
    let cur = dsm.shared_array("u", DataType::F64, total);
    let new = dsm.shared_array("u_new", DataType::F64, total);

    let lo = me * cells_per_node;
    let hi = lo + cells_per_node;
    for _ in 0..iters {
        dsm.barrier();
        for i in lo..hi {
            let left = i.checked_sub(1);
            let right = if i + 1 < total { Some(i + 1) } else { None };
            if let Some(l) = left {
                dsm.read(cur, l);
            }
            if let Some(r) = right {
                dsm.read(cur, r);
            }
            let ann = dsm.annotator();
            ann.arith(ArithOp::Add, DataType::F64);
            ann.loadc(DataType::F64);
            ann.arith(ArithOp::Mul, DataType::F64);
            dsm.write(new, i);
        }
    }
    dsm.barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mermaid_ops::{Trace, TraceSet};

    fn run_all(cfg: DsmConfig, f: impl Fn(&mut Translator, DsmConfig)) -> TraceSet {
        let traces: Vec<Trace> = (0..cfg.nodes)
            .map(|node| {
                let mut t = Translator::with_defaults(node);
                f(&mut t, cfg);
                t.finish()
            })
            .collect();
        TraceSet::from_traces(traces)
    }

    fn cfg4() -> DsmConfig {
        DsmConfig {
            nodes: 4,
            page_bytes: 1024,
        }
    }

    #[test]
    fn dsm_matmul_produces_balanced_traces() {
        let ts = run_all(cfg4(), |t, c| dsm_matmul(t, c, 16));
        assert!(ts.comm_imbalances().is_empty());
        for t in ts.iter() {
            let s = t.stats();
            // DSM programs communicate through gets/puts and barriers only:
            // no application-level sends besides the barrier traffic.
            assert!(s.gets > 0, "node {} never faulted a page", t.node);
            assert!(s.float_arith > 0);
        }
    }

    #[test]
    fn dsm_hides_explicit_communication() {
        // Application-visible communication is only the two barriers — all
        // data movement is one-sided, driven by the runtime.
        let ts = run_all(cfg4(), |t, c| dsm_matmul(t, c, 8));
        let worker = ts.trace(2).stats();
        // Two barriers × one asend each for a worker.
        assert_eq!(worker.asends, 2);
        assert_eq!(worker.sends, 0);
    }

    #[test]
    fn dsm_jacobi_faults_only_boundary_pages() {
        // Interior reads hit locally-homed or already-cached pages; only
        // the neighbour-boundary pages fault, once per iteration.
        let cfg = DsmConfig {
            nodes: 4,
            page_bytes: 1024,
        };
        let iters = 3u32;
        // 512 cells/node × 8 B = 4 KiB/node = 4 pages per node slice.
        let ts = run_all(cfg, move |t, c| dsm_jacobi1d(t, c, 512, iters));
        assert!(ts.comm_imbalances().is_empty());
        let middle = ts.trace(1).stats();
        // Per iteration a middle node faults O(boundary) pages, not O(slice):
        // ≤ 4 pages per sweep (left/right halo + own-slice pages homed
        // elsewhere by striping).
        assert!(
            middle.gets <= (iters as u64) * 10,
            "{} gets is too many",
            middle.gets
        );
        assert!(
            middle.gets >= iters as u64,
            "halo must fault every iteration"
        );
    }

    #[test]
    fn page_size_trades_faults_for_volume() {
        let gets = |page_bytes: u32| {
            let cfg = DsmConfig {
                nodes: 4,
                page_bytes,
            };
            let ts = run_all(cfg, |t, c| dsm_matmul(t, c, 16));
            ts.trace(3).stats().gets
        };
        // Larger pages ⇒ fewer faults (more data per fault).
        assert!(gets(4096) < gets(256));
    }
}
