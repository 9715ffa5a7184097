//! Physical-time-interleaved, threaded trace generation (Section 3.1).
//!
//! "To produce the multiple operation traces that are needed for
//! simulation, both trace generators model concurrent execution by means of
//! threads. Each thread accounts for the behaviour of one processor within
//! the parallel machine. Whenever a thread encounters a global event, it is
//! suspended until explicitly resumed by the simulator. […] This
//! thread-scheduling scheme, under the control of the simulator, guarantees
//! the validity of the multiprocessor traces at all times."
//!
//! [`InterleavedTraceGen`] spawns one OS thread per simulated node. Each
//! thread runs the instrumented program against a [`NodeCtx`] (the same
//! [`Annotator`] API as the batch translator). Operations stream to the
//! simulator through a bounded channel; when the program issues a *global
//! event* (any communication operation), the thread parks until the
//! simulator pulls the node's next operation from its [`NodeReader`] —
//! which it does only once that global event has been recorded, the
//! feedback arrow of Fig. 1.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use mermaid_ops::{ArithOp, DataType, NodeId, Operation, Trace, TraceSet};

use crate::annotate::{Annotator, LoopLabel, TargetLayout, Translator, VarId};

/// Capacity of the per-node operation channel. Bounded so that a
/// free-running computation phase cannot buffer unbounded trace data —
/// simulator back-pressure suspends the generating thread instead, keeping
/// memory consumption flat (the paper's Section 6 argument).
const OP_CHANNEL_CAP: usize = 4096;

/// The per-thread annotation context: an [`Annotator`] whose operations
/// stream to the simulator, suspending at global events.
pub struct NodeCtx {
    inner: Translator,
    op_tx: SyncSender<Operation>,
    resume_rx: Receiver<()>,
    /// Set when the consumer went away; generation continues silently so
    /// the program thread can finish.
    detached: bool,
}

impl NodeCtx {
    fn flush(&mut self) {
        if self.detached {
            self.inner.drain_ops();
            return;
        }
        for op in self.inner.drain_ops() {
            if self.op_tx.send(op).is_err() {
                self.detached = true;
                return;
            }
        }
    }

    /// Park until the simulator resumes this node (or the simulator is
    /// gone, in which case generation free-runs to completion).
    fn suspend(&mut self) {
        if self.detached {
            return;
        }
        if self.resume_rx.recv().is_err() {
            self.detached = true;
        }
    }

    fn emit_global(&mut self, op: Operation) {
        debug_assert!(op.is_global_event());
        self.flush();
        if !self.detached && self.op_tx.send(op).is_err() {
            self.detached = true;
        }
        // Physical-time interleaving: wait for the simulator's feedback.
        self.suspend();
    }
}

impl Annotator for NodeCtx {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn global(&mut self, name: &str, ty: DataType, elems: u64) -> VarId {
        self.inner.global(name, ty, elems)
    }

    fn local(&mut self, name: &str, ty: DataType, elems: u64) -> VarId {
        self.inner.local(name, ty, elems)
    }

    fn arg(&mut self, name: &str, ty: DataType) -> VarId {
        self.inner.arg(name, ty)
    }

    fn load(&mut self, v: VarId) {
        self.inner.load(v);
        self.flush();
    }

    fn load_idx(&mut self, v: VarId, idx: u64) {
        self.inner.load_idx(v, idx);
        self.flush();
    }

    fn store(&mut self, v: VarId) {
        self.inner.store(v);
        self.flush();
    }

    fn store_idx(&mut self, v: VarId, idx: u64) {
        self.inner.store_idx(v, idx);
        self.flush();
    }

    fn loadc(&mut self, ty: DataType) {
        self.inner.loadc(ty);
        self.flush();
    }

    fn arith(&mut self, op: ArithOp, ty: DataType) {
        self.inner.arith(op, ty);
        self.flush();
    }

    fn loop_head(&mut self) -> LoopLabel {
        self.inner.loop_head()
    }

    fn loop_back(&mut self, label: LoopLabel) {
        self.inner.loop_back(label);
        self.flush();
    }

    fn branch_fwd(&mut self) {
        self.inner.branch_fwd();
        self.flush();
    }

    fn call(&mut self) {
        self.inner.call();
        self.flush();
    }

    fn ret(&mut self) {
        self.inner.ret();
        self.flush();
    }

    fn send(&mut self, bytes: u32, dst: NodeId) {
        self.emit_global(Operation::Send { bytes, dst });
    }

    fn recv(&mut self, src: NodeId) {
        self.emit_global(Operation::Recv { src });
    }

    fn asend(&mut self, bytes: u32, dst: NodeId) {
        self.emit_global(Operation::ASend { bytes, dst });
    }

    fn arecv(&mut self, src: NodeId) {
        self.emit_global(Operation::ARecv { src });
    }

    fn get(&mut self, bytes: u32, from: NodeId) {
        self.emit_global(Operation::Get { bytes, from });
    }

    fn put(&mut self, bytes: u32, to: NodeId) {
        self.emit_global(Operation::Put { bytes, to });
    }
}

/// Handle to one node's generator thread.
struct NodeHandle {
    op_rx: Receiver<Operation>,
    resume_tx: SyncSender<()>,
    join: Option<JoinHandle<()>>,
}

/// The execution-driven trace generator: one thread per node, interleaved
/// with the simulator.
pub struct InterleavedTraceGen {
    nodes: Vec<NodeHandle>,
}

impl InterleavedTraceGen {
    /// Spawn `nodes` generator threads, each running `program(node_ctx)`.
    /// The program receives its node id through [`Annotator::node`].
    pub fn spawn<F>(nodes: u32, layout: TargetLayout, program: F) -> Self
    where
        F: Fn(&mut NodeCtx) + Send + Clone + 'static,
    {
        let handles = (0..nodes)
            .map(|node| {
                let (op_tx, op_rx) = sync_channel(OP_CHANNEL_CAP);
                let (resume_tx, resume_rx) = sync_channel(1);
                let program = program.clone();
                let join = std::thread::Builder::new()
                    .name(format!("mermaid-node-{node}"))
                    .spawn(move || {
                        let mut ctx = NodeCtx {
                            inner: Translator::new(node, layout),
                            op_tx,
                            resume_rx,
                            detached: false,
                        };
                        program(&mut ctx);
                        ctx.flush();
                        // Channel closes on drop → consumer sees end of trace.
                    })
                    .expect("failed to spawn trace-generator thread");
                NodeHandle {
                    op_rx,
                    resume_tx,
                    join: Some(join),
                }
            })
            .collect();
        InterleavedTraceGen { nodes: handles }
    }

    /// One operation stream per node, in node order: each yields its
    /// node's operations as the generator thread produces them and resumes
    /// the thread past a global event only when asked for the operation
    /// after it. The readers are independent and `Send`, so a simulator may
    /// drain them on different threads.
    pub fn streams(&mut self) -> Vec<NodeReader<'_>> {
        self.nodes
            .iter_mut()
            .map(|handle| NodeReader {
                handle,
                suspended: false,
            })
            .collect()
    }

    /// Free-run all nodes to completion and collect the full traces
    /// (resuming every global event immediately). Useful when the traces
    /// are wanted as artefacts rather than interleaved with a simulator.
    pub fn collect_all(mut self) -> TraceSet {
        let traces = (0..)
            .zip(self.streams())
            .map(|(node, ops)| {
                let mut trace = Trace::new(node);
                trace.ops.extend(ops);
                trace
            })
            .collect();
        TraceSet::from_traces(traces)
    }
}

/// The operations of one node of an [`InterleavedTraceGen`], pulled from
/// its generator thread (see [`InterleavedTraceGen::streams`]).
pub struct NodeReader<'a> {
    handle: &'a mut NodeHandle,
    /// The last operation handed out was a global event: the generator
    /// thread is parked until resumed.
    suspended: bool,
}

impl Iterator for NodeReader<'_> {
    type Item = Operation;

    fn next(&mut self) -> Option<Operation> {
        if self.suspended {
            // A send can only fail when the thread already exited — harmless.
            let _ = self.handle.resume_tx.send(());
        }
        let op = self.handle.op_rx.recv().ok()?;
        self.suspended = op.is_global_event();
        Some(op)
    }
}

impl Drop for InterleavedTraceGen {
    fn drop(&mut self) {
        for h in &mut self.nodes {
            // Unblock a suspended thread, then detach channels and join.
            let _ = h.resume_tx.try_send(());
            // Drain so a thread blocked on a full op channel can proceed.
            while h.op_rx.try_recv().is_ok() {}
        }
        for h in &mut self.nodes {
            loop {
                // Keep draining until the thread exits (its op channel
                // disconnects), so bounded-channel back-pressure can't
                // deadlock the join.
                match h.op_rx.recv_timeout(std::time::Duration::from_millis(1)) {
                    Ok(_) => continue,
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        let _ = h.resume_tx.try_send(());
                        continue;
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            if let Some(j) = h.join.take() {
                let _ = j.join();
            }
        }
    }
}

/// A ready-made address/register layout matching the stochastic
/// generator's segments (handy for mixing generated and instrumented
/// workloads on one machine model).
pub fn default_layout() -> TargetLayout {
    TargetLayout::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-phase program: compute, exchange with the ring neighbour,
    /// compute again.
    fn ring_program(nodes: u32) -> impl Fn(&mut NodeCtx) + Send + Clone + 'static {
        move |ctx: &mut NodeCtx| {
            let me = ctx.node();
            let x = ctx.local("x", DataType::F64, 1);
            for _ in 0..3 {
                ctx.load(x);
                ctx.arith(ArithOp::Mul, DataType::F64);
                ctx.store(x);
            }
            ctx.asend(64, (me + 1) % nodes);
            ctx.recv((me + nodes - 1) % nodes);
            ctx.arith(ArithOp::Add, DataType::F64);
        }
    }

    #[test]
    fn collect_all_produces_balanced_traces() {
        let gen = InterleavedTraceGen::spawn(4, TargetLayout::default(), ring_program(4));
        let ts = gen.collect_all();
        assert_eq!(ts.nodes(), 4);
        assert!(ts.comm_imbalances().is_empty());
        for t in ts.iter() {
            assert!(t.stats().sends + t.stats().asends == 1);
            assert!(t.stats().recvs == 1);
        }
    }

    #[test]
    fn threads_suspend_at_global_events() {
        let mut gen = InterleavedTraceGen::spawn(2, TargetLayout::default(), ring_program(2));
        let mut node0 = gen.streams().swap_remove(0);
        // Pull node 0's operations up to its global event.
        let before = node0
            .by_ref()
            .take_while(|op| !op.is_global_event())
            .count();
        assert!(before > 0);
        assert!(node0.suspended);
        // The thread is now suspended: no more operations may arrive until
        // the next pull resumes it. (Observable via try_recv staying empty.)
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(node0.handle.op_rx.try_recv().is_err());
        // Pulling on resumes it; the next global event (recv) arrives.
        assert!(node0.any(|op| matches!(op, Operation::Recv { .. })));
    }

    #[test]
    fn interleaved_equals_batch_translation() {
        // The same program through the batch translator and the threaded
        // generator must produce identical traces.
        let batch = {
            let mut t = Translator::with_defaults(0);
            let x = t.local("x", DataType::F64, 1);
            for _ in 0..3 {
                t.load(x);
                t.arith(ArithOp::Mul, DataType::F64);
                t.store(x);
            }
            t.asend(64, 1);
            t.recv(1);
            t.arith(ArithOp::Add, DataType::F64);
            t.finish()
        };
        let gen = InterleavedTraceGen::spawn(2, TargetLayout::default(), ring_program(2));
        let ts = gen.collect_all();
        assert_eq!(ts.trace(0).ops, batch.ops);
    }

    #[test]
    fn dropping_the_generator_does_not_hang() {
        // Program with lots of output and a suspend point; drop mid-way.
        let gen = InterleavedTraceGen::spawn(2, TargetLayout::default(), |ctx| {
            let x = ctx.local("x", DataType::I32, 1);
            for _ in 0..10_000 {
                ctx.load(x);
                ctx.arith(ArithOp::Add, DataType::I32);
            }
            ctx.send(8, (ctx.node() + 1) % 2);
            ctx.recv((ctx.node() + 1) % 2);
        });
        drop(gen); // must join cleanly
    }

    #[test]
    fn back_pressure_bounds_memory() {
        // A program generating far more operations than the channel holds;
        // the consumer pulls slowly. The thread must block on the channel
        // rather than buffer everything.
        let mut gen = InterleavedTraceGen::spawn(1, TargetLayout::default(), |ctx| {
            let x = ctx.local("x", DataType::I32, 1);
            for _ in 0..OP_CHANNEL_CAP * 4 {
                ctx.load(x);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        // The channel holds at most its capacity, so the generator thread
        // must still be blocked mid-send rather than finished with 4× the
        // capacity buffered.
        assert!(
            !gen.nodes[0].join.as_ref().unwrap().is_finished(),
            "producer should be blocked on the bounded channel"
        );
        // Drain everything; the program finishes.
        let count = gen.streams().swap_remove(0).count();
        assert_eq!(count, OP_CHANNEL_CAP * 4);
    }

    #[test]
    fn node_ids_reach_the_programs() {
        let gen = InterleavedTraceGen::spawn(3, TargetLayout::default(), |ctx| {
            // Emit node-id-many arithmetic ops.
            for _ in 0..ctx.node() {
                ctx.arith(ArithOp::Add, DataType::I32);
            }
        });
        let ts = gen.collect_all();
        assert_eq!(ts.trace(0).len(), 0);
        assert_eq!(ts.trace(1).len(), 2); // ifetch + add
        assert_eq!(ts.trace(2).len(), 4);
    }
}
