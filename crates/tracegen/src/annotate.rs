//! The annotation translator and the variable descriptor table.
//!
//! "The annotation translator is a library that is linked together with the
//! instrumented applications, while the annotations simply are calls to the
//! library" (paper, Section 3). Annotations follow the control flow of the
//! program and describe its memory and computational behaviour at the
//! source level, independent of the architecture. The translator turns them
//! into operations according to the *runtime and addressing capabilities of
//! the target processor* — "a kind of generic compiler".
//!
//! Every variable has an entry in the **variable descriptor table**
//! recording whether it is global, local, or a function argument, its type,
//! its address, and whether it lives in a register. A `load` annotation on
//! a register-allocated scalar emits only the instruction fetch; on a
//! memory-resident variable it also emits the memory operation.
//!
//! In the original system a tool instruments C sources automatically; here
//! the "instrumented program" is Rust code making the same library calls
//! (see [`crate::programs`] for complete kernels). One [`Translator`] serves
//! both trace generators: on its own it accumulates a trace; spawned by
//! [`crate::InterleavedTraceGen`] it streams each operation to the
//! simulator and suspends at every global event.

use std::sync::mpsc::{Receiver, SyncSender};

use mermaid_ops::{Address, ArithOp, DataType, NodeId, Operation, Trace};
use serde::{Deserialize, Serialize};

/// Index into the variable descriptor table.
pub type VarId = usize;

/// Storage class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarKind {
    /// Program-lifetime data-segment variable.
    Global,
    /// Function-scope variable.
    Local,
    /// Function argument.
    Arg,
}

/// Where the translator placed a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarLocation {
    /// Promoted to a register: loads/stores emit no memory operation.
    Register(u32),
    /// Resident in memory at the given base address.
    Memory(Address),
}

/// One entry of the variable descriptor table.
#[derive(Debug, Clone)]
pub struct VarDesc {
    /// Source-level name (diagnostics only).
    pub name: String,
    /// Element type.
    pub ty: DataType,
    /// Number of elements (1 for scalars).
    pub elems: u64,
    /// Storage class.
    pub kind: VarKind,
    /// Assigned location.
    pub location: VarLocation,
}

/// The addressing and register model of the target processor — what the
/// translator needs to know to "compile" annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetLayout {
    /// Base of the code segment (instruction-fetch addresses).
    pub code_base: Address,
    /// Base of the global data segment.
    pub globals_base: Address,
    /// Top of the downward-growing stack.
    pub stack_top: Address,
    /// Scalar locals/args per frame promoted to registers before spilling.
    pub frame_regs: u32,
    /// Whether indexed accesses charge an explicit address computation.
    pub charge_addressing: bool,
}

impl Default for TargetLayout {
    fn default() -> Self {
        TargetLayout {
            code_base: 0x1000,
            globals_base: 0x1000_0000,
            stack_top: 0x7fff_f000,
            frame_regs: 8,
            charge_addressing: true,
        }
    }
}

/// A function frame being translated.
#[derive(Debug)]
struct Frame {
    saved_sp: Address,
    saved_regs_used: u32,
    first_var: usize,
}

/// A loop label: the code address of the loop head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopLabel(Address);

/// Where a streaming translator's operations go: its node's end of an
/// [`crate::InterleavedTraceGen`].
#[derive(Debug)]
struct Stream {
    op_tx: SyncSender<Operation>,
    resume_rx: Receiver<()>,
    /// Set when the simulator went away; generation continues silently so
    /// the program thread can finish.
    detached: bool,
}

impl Stream {
    /// Hand `op` to the simulator; after a global event, park until the
    /// simulator resumes this node (physical-time interleaving).
    fn send(&mut self, op: Operation) {
        self.detached = self.detached
            || self.op_tx.send(op).is_err()
            || (op.is_global_event() && self.resume_rx.recv().is_err());
    }
}

/// The annotation translator for one node: the annotation API. Each
/// annotation becomes operations that are either accumulated into the
/// node's trace ([`Translator::finish`]) or, in a translator spawned by
/// [`crate::InterleavedTraceGen`], streamed to the simulator.
#[derive(Debug)]
pub struct Translator {
    node: NodeId,
    layout: TargetLayout,
    vars: Vec<VarDesc>,
    globals_ptr: Address,
    sp: Address,
    regs_used: u32,
    frames: Vec<Frame>,
    pc: Address,
    call_sites: Vec<Address>,
    trace: Trace,
    /// `Some`: operations stream out instead of accumulating in `trace`.
    stream: Option<Stream>,
}

impl Translator {
    /// A fresh translator for `node` with the given target layout.
    pub fn new(node: NodeId, layout: TargetLayout) -> Self {
        Translator {
            node,
            layout,
            vars: Vec::new(),
            globals_ptr: layout.globals_base,
            sp: layout.stack_top,
            regs_used: 0,
            frames: Vec::new(),
            pc: layout.code_base,
            call_sites: Vec::new(),
            trace: Trace::new(node),
            stream: None,
        }
    }

    /// A translator that sends each operation down `op_tx` and, after a
    /// global event, waits on `resume_rx` before going on.
    pub(crate) fn streaming(
        node: NodeId,
        layout: TargetLayout,
        op_tx: SyncSender<Operation>,
        resume_rx: Receiver<()>,
    ) -> Self {
        let stream = Stream {
            op_tx,
            resume_rx,
            detached: false,
        };
        Translator {
            stream: Some(stream),
            ..Translator::new(node, layout)
        }
    }

    /// A translator with the default layout.
    pub fn with_defaults(node: NodeId) -> Self {
        Translator::new(node, TargetLayout::default())
    }

    /// The variable descriptor table (inspection).
    pub fn descriptor_table(&self) -> &[VarDesc] {
        &self.vars
    }

    /// Finish translation and take the trace (empty for a streaming
    /// translator, whose operations have already gone).
    pub fn finish(self) -> Trace {
        assert!(
            self.frames.is_empty(),
            "finish() inside {} unterminated function frame(s)",
            self.frames.len()
        );
        self.trace
    }

    fn emit(&mut self, op: Operation) {
        match &mut self.stream {
            Some(stream) => stream.send(op),
            None => self.trace.push(op),
        }
    }

    /// Emit the instruction fetch for the next "instruction" and advance
    /// the program counter.
    fn fetch(&mut self) {
        self.emit(Operation::IFetch { addr: self.pc });
        self.pc += 4;
    }

    fn declare(&mut self, name: &str, ty: DataType, elems: u64, kind: VarKind) -> VarId {
        assert!(elems >= 1, "variable {name} has zero elements");
        let location =
            if elems == 1 && kind != VarKind::Global && self.regs_used < self.layout.frame_regs {
                let r = self.regs_used;
                self.regs_used += 1;
                VarLocation::Register(r)
            } else {
                match kind {
                    VarKind::Global => {
                        let size = ty.bytes() * elems;
                        let addr = self.globals_ptr;
                        // Keep variables naturally aligned.
                        let aligned = addr.next_multiple_of(ty.bytes());
                        self.globals_ptr = aligned + size;
                        VarLocation::Memory(aligned)
                    }
                    VarKind::Local | VarKind::Arg => {
                        let size = ty.bytes() * elems;
                        self.sp -= size;
                        self.sp &= !(ty.bytes() - 1);
                        VarLocation::Memory(self.sp)
                    }
                }
            };
        self.vars.push(VarDesc {
            name: name.to_string(),
            ty,
            elems,
            kind,
            location,
        });
        self.vars.len() - 1
    }

    fn mem_access(&mut self, v: VarId, idx: u64, is_store: bool) {
        let desc = &self.vars[v];
        assert!(
            idx < desc.elems,
            "index {idx} out of bounds for {} ({} elems)",
            desc.name,
            desc.elems
        );
        let ty = desc.ty;
        match desc.location {
            VarLocation::Register(_) => {
                // Register operand: the access is free; only the consuming
                // instruction's fetch is traced (by the caller).
                self.fetch();
            }
            VarLocation::Memory(base) => {
                if idx > 0 && self.layout.charge_addressing {
                    // Address computation: index scaling + add.
                    self.fetch();
                    self.emit(Operation::Arith {
                        op: ArithOp::Add,
                        ty: DataType::I32,
                    });
                }
                let addr = base + idx * ty.bytes();
                self.fetch();
                self.emit(if is_store {
                    Operation::Store { ty, addr }
                } else {
                    Operation::Load { ty, addr }
                });
            }
        }
    }
}

/// The annotation API.
impl Translator {
    /// The node this translator generates for.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Declare a global variable; returns its descriptor id.
    pub fn global(&mut self, name: &str, ty: DataType, elems: u64) -> VarId {
        self.declare(name, ty, elems, VarKind::Global)
    }

    /// Declare a function-scope local.
    pub fn local(&mut self, name: &str, ty: DataType, elems: u64) -> VarId {
        self.declare(name, ty, elems, VarKind::Local)
    }

    /// Declare a function argument.
    pub fn arg(&mut self, name: &str, ty: DataType) -> VarId {
        self.declare(name, ty, 1, VarKind::Arg)
    }

    /// Annotate a scalar load of `v`.
    pub fn load(&mut self, v: VarId) {
        self.mem_access(v, 0, false);
    }

    /// Annotate a load of element `idx` of array `v`.
    pub fn load_idx(&mut self, v: VarId, idx: u64) {
        self.mem_access(v, idx, false);
    }

    /// Annotate a scalar store to `v`.
    pub fn store(&mut self, v: VarId) {
        self.mem_access(v, 0, true);
    }

    /// Annotate a store to element `idx` of array `v`.
    pub fn store_idx(&mut self, v: VarId, idx: u64) {
        self.mem_access(v, idx, true);
    }

    /// Annotate loading an immediate constant.
    pub fn loadc(&mut self, ty: DataType) {
        self.fetch();
        self.emit(Operation::LoadConst { ty });
    }

    /// Annotate an arithmetic operation.
    pub fn arith(&mut self, op: ArithOp, ty: DataType) {
        self.fetch();
        self.emit(Operation::Arith { op, ty });
    }

    /// Mark the head of a loop; pass the label to [`Translator::loop_back`].
    pub fn loop_head(&mut self) -> LoopLabel {
        LoopLabel(self.pc)
    }

    /// Annotate the backward branch of a loop iteration.
    pub fn loop_back(&mut self, label: LoopLabel) {
        self.fetch();
        self.emit(Operation::Branch { addr: label.0 });
        // Control really transfers: the next iteration re-fetches the same
        // body addresses (recurring ifetch addresses, Section 3.3).
        self.pc = label.0;
    }

    /// Annotate a forward conditional branch (taken).
    pub fn branch_fwd(&mut self) {
        self.fetch();
        let target = self.pc + 16;
        self.emit(Operation::Branch { addr: target });
        self.pc = target;
    }

    /// Annotate entering a function.
    pub fn call(&mut self) {
        self.fetch();
        self.call_sites.push(self.pc);
        // Callee entry: a fresh code region beyond any code seen so far.
        let entry = (self.pc + 0x100).next_multiple_of(0x100);
        self.emit(Operation::Call { addr: entry });
        self.frames.push(Frame {
            saved_sp: self.sp,
            saved_regs_used: self.regs_used,
            first_var: self.vars.len(),
        });
        self.pc = entry;
    }

    /// Annotate returning from the current function.
    pub fn ret(&mut self) {
        let frame = self.frames.pop().expect("ret() without call()");
        let ret_to = self.call_sites.pop().expect("ret() without call site");
        self.fetch();
        self.emit(Operation::Ret { addr: ret_to });
        self.pc = ret_to;
        self.sp = frame.saved_sp;
        self.regs_used = frame.saved_regs_used;
        self.vars.truncate(frame.first_var);
    }

    /// Annotate a blocking send.
    pub fn send(&mut self, bytes: u32, dst: NodeId) {
        self.emit(Operation::Send { bytes, dst });
    }

    /// Annotate a blocking receive.
    pub fn recv(&mut self, src: NodeId) {
        self.emit(Operation::Recv { src });
    }

    /// Annotate an asynchronous send.
    pub fn asend(&mut self, bytes: u32, dst: NodeId) {
        self.emit(Operation::ASend { bytes, dst });
    }

    /// Annotate an asynchronous receive.
    pub fn arecv(&mut self, src: NodeId) {
        self.emit(Operation::ARecv { src });
    }

    /// Annotate a one-sided blocking remote read of `bytes` from `from`.
    pub fn get(&mut self, bytes: u32, from: NodeId) {
        self.emit(Operation::Get { bytes, from });
    }

    /// Annotate a one-sided remote write of `bytes` to `to`.
    pub fn put(&mut self, bytes: u32, to: NodeId) {
        self.emit(Operation::Put { bytes, to });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_get_distinct_aligned_addresses() {
        let mut t = Translator::with_defaults(0);
        let a = t.global("a", DataType::I32, 1);
        let b = t.global("b", DataType::F64, 10);
        let c = t.global("c", DataType::I8, 3);
        let table = t.descriptor_table();
        let addr = |v: VarId| match table[v].location {
            VarLocation::Memory(a) => a,
            _ => panic!("global in register"),
        };
        assert_eq!(addr(a) % 4, 0);
        assert_eq!(addr(b) % 8, 0);
        assert!(addr(b) >= addr(a) + 4);
        assert!(addr(c) >= addr(b) + 80);
    }

    #[test]
    fn scalar_locals_are_register_allocated_until_spill() {
        let layout = TargetLayout {
            frame_regs: 2,
            ..TargetLayout::default()
        };
        let mut t = Translator::new(0, layout);
        let a = t.local("a", DataType::I32, 1);
        let b = t.local("b", DataType::I32, 1);
        let c = t.local("c", DataType::I32, 1); // spills
        let arr = t.local("arr", DataType::I32, 4); // arrays never in regs
        let table = t.descriptor_table();
        assert!(matches!(table[a].location, VarLocation::Register(0)));
        assert!(matches!(table[b].location, VarLocation::Register(1)));
        assert!(matches!(table[c].location, VarLocation::Memory(_)));
        assert!(matches!(table[arr].location, VarLocation::Memory(_)));
    }

    #[test]
    fn register_loads_emit_no_memory_operation() {
        let mut t = Translator::with_defaults(0);
        let r = t.local("r", DataType::I32, 1);
        t.load(r);
        let trace = t.finish();
        assert_eq!(trace.len(), 1);
        assert!(matches!(trace.ops[0], Operation::IFetch { .. }));
    }

    #[test]
    fn memory_loads_emit_fetch_plus_load() {
        let mut t = Translator::with_defaults(0);
        let g = t.global("g", DataType::F64, 1);
        t.load(g);
        let trace = t.finish();
        assert_eq!(trace.len(), 2);
        assert!(matches!(trace.ops[0], Operation::IFetch { .. }));
        assert!(matches!(
            trace.ops[1],
            Operation::Load {
                ty: DataType::F64,
                ..
            }
        ));
    }

    #[test]
    fn indexed_access_charges_addressing_and_offsets_address() {
        let mut t = Translator::with_defaults(0);
        let arr = t.global("arr", DataType::I32, 100);
        t.load_idx(arr, 0);
        t.load_idx(arr, 5);
        let trace = t.finish();
        // idx 0: fetch + load. idx 5: fetch+add, fetch+load.
        assert_eq!(trace.len(), 6);
        let addrs: Vec<u64> = trace
            .iter()
            .filter_map(|op| match op {
                Operation::Load { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        assert_eq!(addrs[1], addrs[0] + 20);
    }

    #[test]
    fn addressing_charge_can_be_disabled() {
        let layout = TargetLayout {
            charge_addressing: false,
            ..TargetLayout::default()
        };
        let mut t = Translator::new(0, layout);
        let arr = t.global("arr", DataType::I32, 10);
        t.load_idx(arr, 7);
        assert_eq!(t.finish().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_bounds_are_checked() {
        let mut t = Translator::with_defaults(0);
        let arr = t.global("arr", DataType::I32, 4);
        t.load_idx(arr, 4);
    }

    #[test]
    fn loop_back_recurs_ifetch_addresses() {
        let mut t = Translator::with_defaults(0);
        let label = t.loop_head();
        let mut first_iter = Vec::new();
        let mut second_iter = Vec::new();
        for iter in 0..2 {
            t.arith(ArithOp::Add, DataType::I32);
            t.arith(ArithOp::Mul, DataType::F64);
            t.loop_back(label);
            let ops = std::mem::take(&mut t.trace.ops);
            if iter == 0 {
                first_iter = ops;
            } else {
                second_iter = ops;
            }
        }
        assert_eq!(first_iter, second_iter, "loop iterations trace identically");
    }

    #[test]
    fn call_ret_restores_frame_state() {
        let mut t = Translator::with_defaults(0);
        let outer = t.local("outer", DataType::I32, 1);
        t.call();
        let inner = t.local("inner", DataType::I32, 1);
        assert_eq!(t.descriptor_table().len(), 2);
        t.load(inner);
        t.ret();
        // Inner variable dropped; outer still valid.
        assert_eq!(t.descriptor_table().len(), 1);
        t.load(outer);
        let trace = t.finish();
        let calls = trace
            .iter()
            .filter(|o| matches!(o, Operation::Call { .. }))
            .count();
        let rets = trace
            .iter()
            .filter(|o| matches!(o, Operation::Ret { .. }))
            .count();
        assert_eq!(calls, 1);
        assert_eq!(rets, 1);
    }

    #[test]
    fn ret_returns_to_the_call_site() {
        let mut t = Translator::with_defaults(0);
        t.arith(ArithOp::Add, DataType::I32);
        t.call();
        t.arith(ArithOp::Add, DataType::I32);
        t.ret();
        let trace = t.finish();
        let call_addr = trace
            .iter()
            .find_map(|op| match op {
                Operation::Call { addr } => Some(*addr),
                _ => None,
            })
            .unwrap();
        let ret_addr = trace
            .iter()
            .find_map(|op| match op {
                Operation::Ret { addr } => Some(*addr),
                _ => None,
            })
            .unwrap();
        // Callee code lives at the call target; return goes past the call.
        assert!(call_addr > ret_addr);
        // The op after the ret would fetch at the return address.
        assert!(trace
            .iter()
            .any(|op| matches!(op, Operation::IFetch { addr } if *addr >= call_addr)));
    }

    #[test]
    #[should_panic(expected = "unterminated function")]
    fn finish_rejects_open_frames() {
        let mut t = Translator::with_defaults(0);
        t.call();
        t.finish();
    }

    #[test]
    #[should_panic(expected = "without call")]
    fn ret_without_call_panics() {
        let mut t = Translator::with_defaults(0);
        t.ret();
    }

    #[test]
    fn communication_annotations_pass_through() {
        let mut t = Translator::with_defaults(3);
        t.send(128, 1);
        t.recv(2);
        t.asend(64, 0);
        t.arecv(0);
        let trace = t.finish();
        assert_eq!(trace.node, 3);
        assert_eq!(trace.len(), 4);
        assert!(trace.iter().all(|o| o.is_global_event()));
    }

    #[test]
    fn stack_variables_grow_downwards() {
        let layout = TargetLayout {
            frame_regs: 0,
            ..TargetLayout::default()
        };
        let mut t = Translator::new(0, layout);
        let a = t.local("a", DataType::I64, 1);
        let b = t.local("b", DataType::I64, 1);
        let table = t.descriptor_table();
        let (VarLocation::Memory(aa), VarLocation::Memory(ba)) =
            (table[a].location, table[b].location)
        else {
            panic!("locals should be in memory with zero frame regs");
        };
        assert!(ba < aa);
        assert_eq!(aa % 8, 0);
        assert_eq!(ba % 8, 0);
    }
}
