//! Trace containers: a per-node operation stream and a multiprocessor set.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::operation::{NodeId, Operation};
use crate::stats::TraceStats;

/// The operation trace of one processor (node) of the multicomputer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Which node this trace drives.
    pub node: NodeId,
    /// The operations, in program order.
    pub ops: Vec<Operation>,
}

impl Trace {
    /// An empty trace for `node`.
    pub fn new(node: NodeId) -> Self {
        Trace {
            node,
            ops: Vec::new(),
        }
    }

    /// A trace for `node` with the given operations.
    pub fn from_ops(node: NodeId, ops: Vec<Operation>) -> Self {
        Trace { node, ops }
    }

    /// Append one operation.
    #[inline]
    pub fn push(&mut self, op: Operation) {
        self.ops.push(op);
    }

    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the trace holds no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterate over the operations in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Operation> {
        self.ops.iter()
    }

    /// Compute the statistics (operation mix) of this trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_ops(self.ops.iter().copied())
    }

    /// Split this instruction-level trace at its *global events*: returns
    /// runs of computational operations separated by the communication
    /// operations. This is the structure the hybrid model exploits — each
    /// computational run becomes one task once the computational model has
    /// measured its simulated duration (paper, Section 3.2).
    pub fn split_at_global_events(&self) -> Vec<TraceSegment<'_>> {
        let mut segments = Vec::new();
        let mut run_start = 0usize;
        for (i, op) in self.ops.iter().enumerate() {
            if op.is_global_event() {
                segments.push(TraceSegment {
                    computation: &self.ops[run_start..i],
                    comm: Some(*op),
                });
                run_start = i + 1;
            }
        }
        if run_start < self.ops.len() {
            segments.push(TraceSegment {
                computation: &self.ops[run_start..],
                comm: None,
            });
        }
        segments
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

/// A run of computational operations, terminated by the following global
/// (communication) event, or by end-of-trace (`comm == None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSegment<'a> {
    /// The computational operations preceding the event.
    pub computation: &'a [Operation],
    /// The terminating communication operation, if any.
    pub comm: Option<Operation>,
}

/// The traces of all nodes of a multicomputer, indexed by node id.
///
/// Each trace is held behind an [`Arc`], so a consumer that outlives a
/// borrow of the set — an abstract processor of a simulation — shares
/// the trace ([`TraceSet::shared`]) instead of copying its operations.
/// Mutating a trace another holder shares copies it first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSet {
    traces: Vec<Arc<Trace>>,
}

impl TraceSet {
    /// An empty set of `nodes` traces (node ids `0..nodes`).
    pub fn new(nodes: usize) -> Self {
        TraceSet {
            traces: (0..nodes)
                .map(|n| Arc::new(Trace::new(n as NodeId)))
                .collect(),
        }
    }

    /// Build from per-node traces. Panics unless trace `i` is for node `i`.
    pub fn from_traces(traces: Vec<Trace>) -> Self {
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(
                t.node as usize, i,
                "trace {i} claims node {}, expected {i}",
                t.node
            );
        }
        TraceSet {
            traces: traces.into_iter().map(Arc::new).collect(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.traces.len()
    }

    /// The trace of `node`.
    pub fn trace(&self, node: NodeId) -> &Trace {
        &self.traces[node as usize]
    }

    /// The trace of `node`, shared: the set's own operation storage.
    pub fn shared(&self, node: NodeId) -> Arc<Trace> {
        Arc::clone(&self.traces[node as usize])
    }

    /// Mutable access to the trace of `node`.
    pub fn trace_mut(&mut self, node: NodeId) -> &mut Trace {
        Arc::make_mut(&mut self.traces[node as usize])
    }

    /// Iterate over all traces in node order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Trace> + Clone {
        self.traces.iter().map(|t| &**t)
    }

    /// Total operations across all nodes.
    pub fn total_ops(&self) -> usize {
        self.iter().map(Trace::len).sum()
    }

    /// Aggregate statistics over all nodes.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_ops(self.iter().flat_map(|t| t.ops.iter().copied()))
    }

    /// Check cross-node communication consistency: every synchronous or
    /// asynchronous send to `d` has a matching receive on `d` from the
    /// sender, and vice versa. Returns the list of violations (empty when
    /// the trace set is well formed).
    pub fn comm_imbalances(&self) -> Vec<CommImbalance> {
        use std::collections::HashMap;
        // (src, dst) -> (sends, recvs)
        let mut chans: HashMap<(NodeId, NodeId), (usize, usize)> = HashMap::new();
        for t in self.iter() {
            for op in &t.ops {
                match *op {
                    Operation::Send { dst, .. } | Operation::ASend { dst, .. } => {
                        chans.entry((t.node, dst)).or_default().0 += 1;
                    }
                    Operation::Recv { src } | Operation::ARecv { src } => {
                        chans.entry((src, t.node)).or_default().1 += 1;
                    }
                    _ => {}
                }
            }
        }
        let mut out: Vec<CommImbalance> = chans
            .into_iter()
            .filter(|&(_, (s, r))| s != r)
            .map(|((src, dst), (sends, recvs))| CommImbalance {
                src,
                dst,
                sends,
                recvs,
            })
            .collect();
        out.sort_by_key(|i| (i.src, i.dst));
        out
    }
}

/// A mismatch between sends and receives on one directed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommImbalance {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Send operations observed on `src` targeting `dst`.
    pub sends: usize,
    /// Receive operations observed on `dst` naming `src`.
    pub recvs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::{ArithOp, DataType};

    fn comp(n: usize) -> Vec<Operation> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Operation::Arith {
                        op: ArithOp::Add,
                        ty: DataType::I32,
                    }
                } else {
                    Operation::Load {
                        ty: DataType::I32,
                        addr: 0x1000 + 4 * i as u64,
                    }
                }
            })
            .collect()
    }

    #[test]
    fn push_and_iterate() {
        let mut t = Trace::new(0);
        assert!(t.is_empty());
        for op in comp(5) {
            t.push(op);
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.iter().count(), 5);
    }

    #[test]
    fn split_at_global_events_structures_the_trace() {
        let mut t = Trace::new(0);
        for op in comp(3) {
            t.push(op);
        }
        t.push(Operation::Send { bytes: 8, dst: 1 });
        for op in comp(2) {
            t.push(op);
        }
        t.push(Operation::Recv { src: 1 });
        t.push(Operation::Ret { addr: 0 });

        let segs = t.split_at_global_events();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].computation.len(), 3);
        assert_eq!(segs[0].comm, Some(Operation::Send { bytes: 8, dst: 1 }));
        assert_eq!(segs[1].computation.len(), 2);
        assert_eq!(segs[1].comm, Some(Operation::Recv { src: 1 }));
        assert_eq!(segs[2].computation.len(), 1);
        assert_eq!(segs[2].comm, None);
    }

    #[test]
    fn split_handles_leading_and_consecutive_events() {
        let mut t = Trace::new(0);
        t.push(Operation::Recv { src: 1 });
        t.push(Operation::Send { bytes: 4, dst: 1 });
        let segs = t.split_at_global_events();
        assert_eq!(segs.len(), 2);
        assert!(segs[0].computation.is_empty());
        assert!(segs[1].computation.is_empty());
    }

    #[test]
    fn empty_trace_has_no_segments() {
        assert!(Trace::new(3).split_at_global_events().is_empty());
    }

    #[test]
    fn trace_set_indexing() {
        let mut ts = TraceSet::new(4);
        assert_eq!(ts.nodes(), 4);
        ts.trace_mut(2).push(Operation::Compute { ps: 5 });
        assert_eq!(ts.trace(2).len(), 1);
        assert_eq!(ts.total_ops(), 1);
        assert_eq!(ts.iter().count(), 4);
    }

    #[test]
    #[should_panic(expected = "claims node")]
    fn from_traces_rejects_misordered_nodes() {
        TraceSet::from_traces(vec![Trace::new(1)]);
    }

    #[test]
    fn balanced_communication_has_no_imbalances() {
        let mut ts = TraceSet::new(2);
        ts.trace_mut(0).push(Operation::Send { bytes: 8, dst: 1 });
        ts.trace_mut(1).push(Operation::Recv { src: 0 });
        ts.trace_mut(1).push(Operation::ASend { bytes: 4, dst: 0 });
        ts.trace_mut(0).push(Operation::ARecv { src: 1 });
        assert!(ts.comm_imbalances().is_empty());
    }

    #[test]
    fn imbalanced_communication_is_reported() {
        let mut ts = TraceSet::new(3);
        ts.trace_mut(0).push(Operation::Send { bytes: 8, dst: 1 });
        ts.trace_mut(0).push(Operation::Send { bytes: 8, dst: 1 });
        ts.trace_mut(1).push(Operation::Recv { src: 0 });
        ts.trace_mut(2).push(Operation::Recv { src: 0 });
        let imb = ts.comm_imbalances();
        assert_eq!(imb.len(), 2);
        assert_eq!(
            imb[0],
            CommImbalance {
                src: 0,
                dst: 1,
                sends: 2,
                recvs: 1
            }
        );
        assert_eq!(
            imb[1],
            CommImbalance {
                src: 0,
                dst: 2,
                sends: 0,
                recvs: 1
            }
        );
    }
}
