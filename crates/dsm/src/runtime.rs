//! The DSM runtime: page table, fault handling, and synchronisation.

use std::collections::HashSet;

use mermaid_ops::{DataType, NodeId};
use mermaid_tracegen::{Translator, VarId};
use serde::{Deserialize, Serialize};

/// Configuration of the shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DsmConfig {
    /// Number of nodes sharing the space.
    pub nodes: u32,
    /// Page size in bytes (the fault/transfer granularity).
    pub page_bytes: u32,
}

impl DsmConfig {
    /// Validate the configuration.
    pub fn validate(&self) {
        assert!(self.nodes >= 1, "DSM needs at least one node");
        assert!(
            self.page_bytes >= 64 && self.page_bytes.is_power_of_two(),
            "page size must be a power of two ≥ 64"
        );
    }

    /// The home node of a (global) page index.
    #[inline]
    pub fn home(&self, page: u64) -> NodeId {
        (page % self.nodes as u64) as NodeId
    }
}

/// Handle to a shared array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedVar {
    /// The local shadow array backing this node's view.
    shadow: VarId,
    /// Element type.
    ty: DataType,
    /// Element count.
    elems: u64,
    /// First global page of this array.
    first_page: u64,
}

/// Runtime statistics of one node's DSM layer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DsmStats {
    /// Accesses served from locally-homed pages.
    pub local_accesses: u64,
    /// Accesses served from a cached remote page.
    pub cached_accesses: u64,
    /// Remote-page faults (each costs one `get` of a page).
    pub page_faults: u64,
    /// Remote writes pushed to their home (each costs one `put`).
    pub write_throughs: u64,
    /// `acquire` synchronisation points executed.
    pub acquires: u64,
}

/// The per-node DSM runtime, layered over a node's [`Translator`] — batch
/// or streaming.
///
/// All nodes of an SPMD program must create their shared arrays in the same
/// order with the same shapes (exactly like globals in an SPMD C program) —
/// the address space layout is derived from the allocation sequence.
pub struct Dsm<'a> {
    ann: &'a mut Translator,
    cfg: DsmConfig,
    me: NodeId,
    /// Next free global page.
    next_page: u64,
    /// Remote pages currently cached read-valid.
    cached: HashSet<u64>,
    stats: DsmStats,
}

impl<'a> Dsm<'a> {
    /// Wrap a translator in a DSM runtime.
    pub fn new(ann: &'a mut Translator, cfg: DsmConfig) -> Self {
        cfg.validate();
        let me = ann.node();
        assert!(
            me < cfg.nodes,
            "node {me} outside the DSM's {} nodes",
            cfg.nodes
        );
        Dsm {
            ann,
            cfg,
            me,
            next_page: 0,
            cached: HashSet::new(),
            stats: DsmStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> DsmConfig {
        self.cfg
    }

    /// Runtime statistics so far.
    pub fn stats(&self) -> &DsmStats {
        &self.stats
    }

    /// Direct access to the wrapped translator (for the private parts of
    /// the program).
    pub fn annotator(&mut self) -> &mut Translator {
        self.ann
    }

    /// Allocate a shared array of `elems` elements of `ty`, striped over
    /// the nodes page by page.
    pub fn shared_array(&mut self, name: &str, ty: DataType, elems: u64) -> SharedVar {
        assert!(elems >= 1, "shared array {name} has zero elements");
        let bytes = elems * ty.bytes();
        let pages = bytes.div_ceil(self.cfg.page_bytes as u64);
        let first_page = self.next_page;
        self.next_page += pages;
        let shadow = self.ann.global(&format!("dsm::{name}"), ty, elems);
        SharedVar {
            shadow,
            ty,
            elems,
            first_page,
        }
    }

    /// The global page holding element `idx` of `var`.
    fn page_of(&self, var: SharedVar, idx: u64) -> u64 {
        assert!(idx < var.elems, "shared index {idx} out of bounds");
        var.first_page + idx * var.ty.bytes() / self.cfg.page_bytes as u64
    }

    /// Ensure element `idx` of `var` is readable locally, faulting if
    /// needed. Returns the page touched.
    fn ensure_readable(&mut self, var: SharedVar, idx: u64) -> u64 {
        let page = self.page_of(var, idx);
        let home = self.cfg.home(page);
        if home == self.me {
            self.stats.local_accesses += 1;
        } else if self.cached.contains(&page) {
            self.stats.cached_accesses += 1;
        } else {
            self.stats.page_faults += 1;
            self.ann.get(self.cfg.page_bytes, home);
            self.cached.insert(page);
        }
        page
    }

    /// Shared read: `x = var[idx]`.
    pub fn read(&mut self, var: SharedVar, idx: u64) {
        self.ensure_readable(var, idx);
        self.ann.load_idx(var.shadow, idx);
    }

    /// Shared write: `var[idx] = x`. Remote pages are written through to
    /// their home with a one-sided `put` of the element.
    pub fn write(&mut self, var: SharedVar, idx: u64) {
        let page = self.page_of(var, idx);
        let home = self.cfg.home(page);
        self.ann.store_idx(var.shadow, idx);
        if home == self.me {
            self.stats.local_accesses += 1;
        } else {
            self.stats.write_throughs += 1;
            self.ann.put(var.ty.bytes() as u32, home);
        }
    }

    /// Acquire: invalidate all cached remote pages so subsequent reads see
    /// writes other nodes pushed to the homes. Call on entry to a
    /// synchronised phase (after a barrier/lock acquisition).
    pub fn acquire(&mut self) {
        self.stats.acquires += 1;
        self.cached.clear();
    }

    /// A master-based barrier built from the messaging layer, followed by
    /// an [`Dsm::acquire`]. Every node of the SPMD program must call it the
    /// same number of times.
    pub fn barrier(&mut self) {
        let n = self.cfg.nodes;
        if n > 1 {
            if self.me == 0 {
                for w in 1..n {
                    self.ann.recv(w);
                }
                for w in 1..n {
                    self.ann.asend(0, w);
                }
            } else {
                self.ann.asend(0, 0);
                self.ann.recv(0);
            }
        }
        self.acquire();
    }

    /// Number of distinct remote pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.cached.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mermaid_ops::Operation;

    fn dsm_node(node: NodeId) -> (Translator, DsmConfig) {
        (
            Translator::with_defaults(node),
            DsmConfig {
                nodes: 4,
                page_bytes: 1024,
            },
        )
    }

    #[test]
    fn home_striping_is_round_robin() {
        let cfg = DsmConfig {
            nodes: 4,
            page_bytes: 1024,
        };
        assert_eq!(cfg.home(0), 0);
        assert_eq!(cfg.home(1), 1);
        assert_eq!(cfg.home(5), 1);
        assert_eq!(cfg.home(7), 3);
    }

    #[test]
    fn local_pages_never_fault() {
        let (mut t, cfg) = dsm_node(0);
        let mut dsm = Dsm::new(&mut t, cfg);
        // Page 0 of the array is homed on node 0 (first_page = 0).
        let v = dsm.shared_array("v", DataType::F64, 4096);
        for idx in 0..128 {
            dsm.read(v, idx); // 128 × 8 B = exactly page 0
        }
        assert_eq!(dsm.stats().page_faults, 0);
        assert_eq!(dsm.stats().local_accesses, 128);
        let trace = t.finish();
        assert_eq!(trace.stats().gets, 0);
        assert!(trace.stats().loads > 0);
    }

    #[test]
    fn remote_page_faults_once_until_acquire() {
        let (mut t, cfg) = dsm_node(0);
        let mut dsm = Dsm::new(&mut t, cfg);
        let v = dsm.shared_array("v", DataType::F64, 4096);
        // Elements 128..256 live on page 1, homed on node 1.
        dsm.read(v, 128);
        dsm.read(v, 129);
        dsm.read(v, 255);
        assert_eq!(dsm.stats().page_faults, 1);
        assert_eq!(dsm.stats().cached_accesses, 2);
        assert_eq!(dsm.cached_pages(), 1);
        // Acquire invalidates; the next read re-fetches.
        dsm.acquire();
        assert_eq!(dsm.cached_pages(), 0);
        dsm.read(v, 128);
        assert_eq!(dsm.stats().page_faults, 2);
        let trace = t.finish();
        assert_eq!(trace.stats().gets, 2);
        assert_eq!(
            trace
                .iter()
                .filter(|o| matches!(o, Operation::Get { from: 1, .. }))
                .count(),
            2
        );
    }

    #[test]
    fn remote_writes_are_written_through_every_time() {
        let (mut t, cfg) = dsm_node(0);
        let mut dsm = Dsm::new(&mut t, cfg);
        let v = dsm.shared_array("v", DataType::F64, 4096);
        dsm.write(v, 128); // page 1 → node 1
        dsm.write(v, 129);
        dsm.write(v, 0); // local
        assert_eq!(dsm.stats().write_throughs, 2);
        assert_eq!(dsm.stats().local_accesses, 1);
        let trace = t.finish();
        assert_eq!(trace.stats().puts, 2);
        assert_eq!(trace.stats().stores, 3); // every write updates the shadow
    }

    #[test]
    fn multiple_arrays_get_distinct_pages() {
        let (mut t, cfg) = dsm_node(2);
        let mut dsm = Dsm::new(&mut t, cfg);
        let a = dsm.shared_array("a", DataType::F64, 128); // 1 page: page 0
        let b = dsm.shared_array("b", DataType::I32, 256); // 1 page: page 1
        assert_eq!(dsm.page_of(a, 0), 0);
        assert_eq!(dsm.page_of(b, 0), 1);
        assert_eq!(dsm.page_of(b, 255), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shared_bounds_are_checked() {
        let (mut t, cfg) = dsm_node(0);
        let mut dsm = Dsm::new(&mut t, cfg);
        let v = dsm.shared_array("v", DataType::I32, 10);
        dsm.read(v, 10);
    }

    #[test]
    fn barrier_emits_balanced_messages() {
        use mermaid_ops::{Trace, TraceSet};
        let cfg = DsmConfig {
            nodes: 3,
            page_bytes: 1024,
        };
        let traces: Vec<Trace> = (0..3)
            .map(|node| {
                let mut t = Translator::with_defaults(node);
                let mut dsm = Dsm::new(&mut t, cfg);
                dsm.barrier();
                dsm.barrier();
                t.finish()
            })
            .collect();
        let ts = TraceSet::from_traces(traces);
        assert!(ts.comm_imbalances().is_empty());
    }

    #[test]
    fn single_node_dsm_is_all_local() {
        let mut t = Translator::with_defaults(0);
        let mut dsm = Dsm::new(
            &mut t,
            DsmConfig {
                nodes: 1,
                page_bytes: 1024,
            },
        );
        let v = dsm.shared_array("v", DataType::F64, 10_000);
        for i in (0..10_000).step_by(97) {
            dsm.read(v, i);
            dsm.write(v, i);
        }
        assert_eq!(dsm.stats().page_faults, 0);
        assert_eq!(dsm.stats().write_throughs, 0);
        dsm.barrier(); // no messages on one node
        let trace = t.finish();
        assert_eq!(trace.stats().comm_ops(), 0);
    }
}
