//! # mermaid-probe — the workbench's instrumentation layer
//!
//! The paper's Section 3 describes Mermaid as a *workbench*: simulation
//! data can be visualised "both at run-time and post-mortem". This crate
//! is the single event source both halves share. Simulation models emit
//! structured [`SimEvent`]s through a cloneable [`ProbeHandle`]; attached
//! sinks consume them:
//!
//! * [`MetricsAggregator`] — per-component counters, utilisations and
//!   latency histograms, rendered as a [`MetricsReport`] (text table +
//!   CSV) for post-mortem analysis,
//! * [`ChromeTraceSink`] — a `chrome://tracing` / Perfetto JSON trace
//!   (virtual picoseconds mapped to trace microseconds),
//! * [`JsonlSink`] — a line-per-event JSON stream for external tooling,
//! * [`SelfProfiler`] — host-side profiling (events per category,
//!   events/sec, host cycles per event) extending the slowdown machinery
//!   of the paper's Section 6.
//!
//! # Zero cost when disabled
//!
//! A disabled handle is `None` inside: every emission site is one branch
//! and the event is never constructed ([`ProbeHandle::emit`] takes a
//! closure). The engine-side hook is the same shape
//! (`Option<Box<dyn pearl::EngineProbe>>`). The benchmark harness's
//! `probe.off_run_s` pins the disabled path, and five of its six
//! end-to-end workloads run on nothing else.
//!
//! # Record, then render
//!
//! A live [`ProbeHandle`] appends each [`SimEvent`] (`Copy`, fixed-width)
//! to a batch of 1,024 and folds each full batch into the stack on the
//! recording thread, where the [`SelfProfiler`] also reads the host clock
//! once. When the stack renders text (a Chrome or JSONL sink is attached),
//! all sinks but the counters (metrics, profiler) move to one sink thread,
//! and each full batch also goes over a bounded channel to it; it folds
//! the batch and sends the emptied batch back for reuse. The thread starts
//! at the first full batch, so a run shorter than one batch never starts
//! one. A thread that finds the channel empty (the sink thread) or full
//! (the simulation thread) yields for up to 2 ms before it parks: waking a
//! parked thread costs more than a batch.
//!
//! [`ProbeHandle::with_stack`] is the one point where the two threads
//! meet: it joins the sink thread once the batches sent are folded, puts
//! its sinks back, folds the partial batch into every sink and runs its
//! closure on the stack; a later full batch starts a new thread. A panic
//! in a sink on the thread resumes on the simulation thread there (or at
//! the next hand-off).
//!
//! Folds are cheap and renders are streams. The metrics aggregator bumps
//! dense counter arrays keyed by `Copy` enums; the Chrome sink renders
//! each event it shows as it records it, through one byte-level JSON
//! writer, into memory or — for `--trace-out` — straight into the file in
//! 64 KB chunks, so no copy of the trace's events is kept. The JSONL sink
//! uses the same writer per event; no `serde::Value` tree is built on a
//! record or render path. Every sink folds the same ordered stream on
//! whichever thread it runs, so every output byte is the same.
//!
//! # Determinism under observation
//!
//! Probes observe the simulation and have no channel back into it: no
//! emission site reads probe state into model behaviour, so a traced run
//! computes bit-identical virtual-time results to an untraced one (the
//! workspace's `tooling_end_to_end` test asserts this).

mod attribution;
mod chrome;
mod jsonl;
mod metrics;
mod profile;
mod value_json;

pub use attribution::{
    AttributionReport, AttributionSink, LinkAttr, RouterAttr, TIMELINE_BUCKETS, TOP_K,
};
pub use chrome::{validate_chrome_trace, ChromeTraceSink, TraceSummary};
pub use jsonl::JsonlSink;
pub use metrics::{MetricsAggregator, MetricsReport};
pub use profile::{HostProfile, SelfProfiler};

use pearl::probe::{EngineProbe, LadderStats};
use pearl::{CompId, Time};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::mpsc::{
    self, Receiver, RecvError, SendError, SyncSender, TryRecvError, TrySendError,
};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What an abstract processor was doing over a virtual-time span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActKind {
    /// Executing modelled computation.
    Compute,
    /// Blocked in a synchronous send waiting for the ack.
    SendBlock,
    /// Blocked in a receive waiting for data.
    RecvBlock,
    /// Blocked in a remote get waiting for the reply.
    GetBlock,
}

impl ActKind {
    /// Stable lower-case label (used as trace span name and metric key).
    pub fn label(self) -> &'static str {
        match self {
            ActKind::Compute => "compute",
            ActKind::SendBlock => "send_block",
            ActKind::RecvBlock => "recv_block",
            ActKind::GetBlock => "get_block",
        }
    }
}

/// Kind of memory access, mirroring the memory model's access kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// Instruction fetch.
    IFetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

impl AccessKind {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::IFetch => "ifetch",
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        }
    }
}

/// Where a memory access was satisfied, mirroring the memory model's hit
/// levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitWhere {
    /// First-level cache hit.
    L1,
    /// Second-level cache hit.
    L2,
    /// Supplied by another CPU's cache (cache-to-cache transfer).
    CacheToCache,
    /// Served from DRAM.
    Dram,
}

impl HitWhere {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            HitWhere::L1 => "l1",
            HitWhere::L2 => "l2",
            HitWhere::CacheToCache => "cache_to_cache",
            HitWhere::Dram => "dram",
        }
    }

    /// True when the access missed every private cache level.
    pub fn is_miss(self) -> bool {
        matches!(self, HitWhere::CacheToCache | HitWhere::Dram)
    }
}

/// Why a router discarded a packet (fault layer; see `mermaid-network`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// The chosen output link was down and no minimal alternative was up.
    LinkDown,
    /// The router itself was down when the packet arrived.
    RouterDown,
    /// The packet failed its checksum (corrupted on a previous link).
    Corrupt,
    /// A transient per-packet loss on an otherwise healthy link.
    Transient,
}

impl DropReason {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::LinkDown => "link_down",
            DropReason::RouterDown => "router_down",
            DropReason::Corrupt => "corrupt",
            DropReason::Transient => "transient",
        }
    }
}

/// Which ladder tier transition the event queue performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TierMove {
    /// A bucket was promoted wholesale into the current-window heap.
    Promotion,
    /// A new epoch was rebased from the far heap.
    Rebase,
    /// A small far set was drained via the plain-heap fallback.
    FarDrain,
}

impl TierMove {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            TierMove::Promotion => "promotion",
            TierMove::Rebase => "rebase",
            TierMove::FarDrain => "far_drain",
        }
    }
}

/// One structured observation from a running simulation.
///
/// All times are virtual picoseconds (`pearl::Time`); node/cpu indices
/// match the model's own numbering. Variants with a `start_ps`/`end_ps`
/// pair describe a closed span; the rest are instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimEvent {
    /// The engine delivered one event to component `dst`; `pending` is
    /// the queue depth after the pop.
    EngineDelivery {
        ts_ps: u64,
        src: CompId,
        dst: CompId,
        pending: usize,
    },
    /// The event queue moved between ladder tiers; `total` is the new
    /// monotone count for this transition kind.
    QueueTier {
        ts_ps: u64,
        kind: TierMove,
        total: u64,
    },
    /// A processor activation span (paper: component activity over time).
    Activation {
        node: u32,
        kind: ActKind,
        start_ps: u64,
        end_ps: u64,
    },
    /// A message left the sending processor.
    MsgSend {
        ts_ps: u64,
        src: u32,
        dst: u32,
        bytes: u32,
        sync: bool,
    },
    /// A fully reassembled message was consumed by a receive.
    MsgDeliver {
        ts_ps: u64,
        src: u32,
        dst: u32,
        bytes: u32,
        latency_ps: u64,
    },
    /// Latency decomposition of one delivered message: where its
    /// end-to-end time went. The components sum to `latency_ps` exactly
    /// (`overhead + retry + queue + routing + ser + wire == latency`);
    /// `overhead_ps` is software injection overhead (zero for messages
    /// completed by a retransmission), `retry_ps` the fault-recovery span
    /// between the original issue and the completing attempt's injection
    /// (zero for first-transmission completions).
    MsgPath {
        ts_ps: u64,
        src: u32,
        dst: u32,
        bytes: u32,
        latency_ps: u64,
        overhead_ps: u64,
        retry_ps: u64,
        queue_ps: u64,
        routing_ps: u64,
        ser_ps: u64,
        wire_ps: u64,
    },
    /// An outgoing link at `node` towards `to` was occupied by one packet.
    LinkBusy {
        node: u32,
        to: u32,
        start_ps: u64,
        end_ps: u64,
    },
    /// A router forwarded a packet (or packet train) one hop.
    PacketForward {
        ts_ps: u64,
        node: u32,
        to: u32,
        packets: u32,
    },
    /// A router delivered a packet (or packet train) to its local
    /// processor.
    PacketDeliver { ts_ps: u64, node: u32, packets: u32 },
    /// One cache-line access resolved at `hit`.
    CacheAccess {
        ts_ps: u64,
        node: u32,
        cpu: u32,
        kind: AccessKind,
        hit: HitWhere,
    },
    /// A victim line left a cache level (`level` is 1 or 2).
    CacheEvict {
        ts_ps: u64,
        node: u32,
        cpu: u32,
        level: u8,
        dirty: bool,
    },
    /// One bus tenure: granted `[start_ps, end_ps)` after `wait_ps` of
    /// FCFS queueing.
    BusTransaction {
        node: u32,
        start_ps: u64,
        end_ps: u64,
        wait_ps: u64,
    },
    /// A scripted fault toggled the status of the link `node` → `to`.
    LinkFault {
        ts_ps: u64,
        node: u32,
        to: u32,
        up: bool,
    },
    /// A scripted fault toggled a whole router up or down.
    RouterFault { ts_ps: u64, node: u32, up: bool },
    /// A router discarded a packet of message `src`:`seq`.
    PacketDropped {
        ts_ps: u64,
        node: u32,
        src: u32,
        seq: u64,
        reason: DropReason,
    },
    /// A packet of message `src`:`seq` was corrupted crossing the link
    /// `node` → `to` (detected and discarded at the next checksum point).
    PacketCorrupted {
        ts_ps: u64,
        node: u32,
        to: u32,
        src: u32,
        seq: u64,
    },
    /// A processor retransmitted an unacknowledged message (`attempt` is
    /// 1-based: the first retry is attempt 1).
    MsgRetry {
        ts_ps: u64,
        src: u32,
        dst: u32,
        attempt: u32,
    },
    /// A processor exhausted its retries and reported `dst` unreachable.
    MsgGaveUp {
        ts_ps: u64,
        src: u32,
        dst: u32,
        retries: u32,
    },
    /// A router steered a packet around a failed link (the chosen
    /// alternative output is `to`).
    Reroute { ts_ps: u64, node: u32, to: u32 },
}

impl SimEvent {
    /// Stable lower-case label naming the event variant.
    pub fn label(&self) -> &'static str {
        match self {
            SimEvent::EngineDelivery { .. } => "engine_delivery",
            SimEvent::QueueTier { .. } => "queue_tier",
            SimEvent::Activation { .. } => "activation",
            SimEvent::MsgSend { .. } => "msg_send",
            SimEvent::MsgDeliver { .. } => "msg_deliver",
            SimEvent::MsgPath { .. } => "msg_path",
            SimEvent::LinkBusy { .. } => "link_busy",
            SimEvent::PacketForward { .. } => "packet_forward",
            SimEvent::PacketDeliver { .. } => "packet_deliver",
            SimEvent::CacheAccess { .. } => "cache_access",
            SimEvent::CacheEvict { .. } => "cache_evict",
            SimEvent::BusTransaction { .. } => "bus_transaction",
            SimEvent::LinkFault { .. } => "link_fault",
            SimEvent::RouterFault { .. } => "router_fault",
            SimEvent::PacketDropped { .. } => "packet_dropped",
            SimEvent::PacketCorrupted { .. } => "packet_corrupted",
            SimEvent::MsgRetry { .. } => "msg_retry",
            SimEvent::MsgGaveUp { .. } => "msg_gave_up",
            SimEvent::Reroute { .. } => "reroute",
        }
    }

    /// True for events describing the *engine's* internals (delivery
    /// bookkeeping, ladder-tier moves) rather than the simulated machine.
    /// Sharded runs cannot reproduce these bit-for-bit — queue depths and
    /// tier transitions are per-shard artifacts — so sharded probe merging
    /// carries model-level events only (see `mermaid-network`'s sharded
    /// runner and DESIGN.md §11).
    pub fn is_engine_internal(&self) -> bool {
        matches!(
            self,
            SimEvent::EngineDelivery { .. } | SimEvent::QueueTier { .. }
        )
    }

    /// True for the seven variants only fault injection emits (link and
    /// router status changes, drops, corruption, retries, give-ups,
    /// reroutes) — a healthy run has none.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            SimEvent::LinkFault { .. }
                | SimEvent::RouterFault { .. }
                | SimEvent::PacketDropped { .. }
                | SimEvent::PacketCorrupted { .. }
                | SimEvent::MsgRetry { .. }
                | SimEvent::MsgGaveUp { .. }
                | SimEvent::Reroute { .. }
        )
    }

    /// The event's anchor timestamp in virtual picoseconds (span start
    /// for span-shaped events).
    pub fn ts_ps(&self) -> u64 {
        match *self {
            SimEvent::EngineDelivery { ts_ps, .. }
            | SimEvent::QueueTier { ts_ps, .. }
            | SimEvent::MsgSend { ts_ps, .. }
            | SimEvent::MsgDeliver { ts_ps, .. }
            | SimEvent::MsgPath { ts_ps, .. }
            | SimEvent::PacketForward { ts_ps, .. }
            | SimEvent::PacketDeliver { ts_ps, .. }
            | SimEvent::CacheAccess { ts_ps, .. }
            | SimEvent::CacheEvict { ts_ps, .. }
            | SimEvent::LinkFault { ts_ps, .. }
            | SimEvent::RouterFault { ts_ps, .. }
            | SimEvent::PacketDropped { ts_ps, .. }
            | SimEvent::PacketCorrupted { ts_ps, .. }
            | SimEvent::MsgRetry { ts_ps, .. }
            | SimEvent::MsgGaveUp { ts_ps, .. }
            | SimEvent::Reroute { ts_ps, .. } => ts_ps,
            SimEvent::Activation { start_ps, .. }
            | SimEvent::LinkBusy { start_ps, .. }
            | SimEvent::BusTransaction { start_ps, .. } => start_ps,
        }
    }
}

/// A consumer of [`SimEvent`]s.
pub trait Probe {
    /// Record one event. Called in the emission order of the simulation,
    /// which for virtual-time instants is nondecreasing in `ts_ps`
    /// per emitting component.
    fn record(&mut self, ev: &SimEvent);
}

/// A sink that just stores every event, in emission order.
///
/// Sharded runs attach one buffer per shard and merge the buffers into a
/// single canonically-ordered stream afterwards (see
/// [`canonical_sort`]); it is also handy in tests.
#[derive(Debug, Default)]
pub struct EventBuffer {
    events: Vec<SimEvent>,
}

impl EventBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        EventBuffer::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Take the recorded events out, leaving the buffer empty.
    pub fn take(&mut self) -> Vec<SimEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Probe for EventBuffer {
    fn record(&mut self, ev: &SimEvent) {
        self.events.push(*ev);
    }
}

/// Sort events into the canonical order: primarily by anchor timestamp,
/// with the derived total order on [`SimEvent`] breaking ties.
///
/// Emission order is *not* timestamp order (a handler may emit an event
/// anchored in the future, e.g. a delivery at `now + residue`), so two
/// equal event *multisets* — such as the streams of a serial and a sharded
/// run of the same model — canonicalize to the same sequence. This is the
/// order sharded runs replay merged per-shard buffers in.
pub fn canonical_sort(events: &mut [SimEvent]) {
    events.sort_unstable_by(|a, b| a.ts_ps().cmp(&b.ts_ps()).then_with(|| a.cmp(b)));
}

/// The set of sinks attached to one traced run.
///
/// Concrete optional slots (rather than `Vec<Box<dyn Probe>>`) so results
/// can be read back without downcasting after the run. A stack is `Send`:
/// a [`ProbeHandle`] folds some of its sinks on a sink thread.
#[derive(Default)]
pub struct ProbeStack {
    /// Metrics aggregation for the post-mortem report.
    pub metrics: Option<MetricsAggregator>,
    /// Chrome-trace (`chrome://tracing` / Perfetto) JSON export.
    pub chrome: Option<ChromeTraceSink>,
    /// Line-per-event JSON stream.
    pub jsonl: Option<JsonlSink>,
    /// Host-side self-profiler.
    pub profiler: Option<SelfProfiler>,
    /// Bottleneck-attribution sink (utilization timelines + latency
    /// decomposition).
    pub attribution: Option<AttributionSink>,
    /// Raw event buffer (used by sharded runs; available to tests).
    pub buffer: Option<EventBuffer>,
}

impl ProbeStack {
    /// An empty stack (attachable, but records into nothing).
    pub fn new() -> Self {
        ProbeStack::default()
    }

    /// Attach a metrics aggregator.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Some(MetricsAggregator::new());
        self
    }

    /// Attach a Chrome-trace sink that keeps its document in memory.
    pub fn with_chrome(mut self) -> Self {
        self.chrome = Some(ChromeTraceSink::new());
        self
    }

    /// Attach a Chrome-trace sink that writes its document into `file`
    /// as events are recorded (see [`ChromeTraceSink::streaming`]).
    pub fn with_chrome_to(mut self, file: impl std::io::Write + Send + 'static) -> Self {
        self.chrome = Some(ChromeTraceSink::streaming(file));
        self
    }

    /// Attach a JSONL sink.
    pub fn with_jsonl(mut self) -> Self {
        self.jsonl = Some(JsonlSink::new());
        self
    }

    /// Attach a host-side self-profiler calibrated to `host_hz` host
    /// cycles per second (see `mermaid`'s slowdown machinery).
    pub fn with_profiler(mut self, host_hz: f64) -> Self {
        self.profiler = Some(SelfProfiler::new(host_hz));
        self
    }

    /// Attach a bottleneck-attribution sink.
    pub fn with_attribution(mut self) -> Self {
        self.attribution = Some(AttributionSink::new());
        self
    }

    /// Attach a raw event buffer.
    pub fn with_buffer(mut self) -> Self {
        self.buffer = Some(EventBuffer::new());
        self
    }

    /// True when a sink that renders text per event (Chrome, JSONL) is
    /// attached: only those pay for a sink thread's hand-offs. Stacks that
    /// only count or copy — a campaign's many short attribution runs, a
    /// sharded run's buffers — measured slower with the thread.
    fn renders(&self) -> bool {
        self.chrome.is_some() || self.jsonl.is_some()
    }

    /// Take out, for a sink thread, the sinks that keep what they fold:
    /// the Chrome and JSONL text, the attribution sink's busy intervals,
    /// the buffer's events. The counters (metrics, profiler) stay.
    fn take_keepers(&mut self) -> Box<ProbeStack> {
        Box::new(ProbeStack {
            chrome: self.chrome.take(),
            jsonl: self.jsonl.take(),
            attribution: self.attribution.take(),
            buffer: self.buffer.take(),
            ..ProbeStack::default()
        })
    }

    /// Put back the sinks [`ProbeStack::take_keepers`] took.
    fn put_back(&mut self, keepers: Box<ProbeStack>) {
        self.chrome = keepers.chrome;
        self.jsonl = keepers.jsonl;
        self.attribution = keepers.attribution;
        self.buffer = keepers.buffer;
    }

    /// Record `events`, in order, into every attached sink — one sink at
    /// a time, which each sink cannot tell from one event at a time.
    fn fold(&mut self, events: &[SimEvent]) {
        fn each(sink: &mut impl Probe, events: &[SimEvent]) {
            events.iter().for_each(|ev| sink.record(ev));
        }
        if let Some(m) = &mut self.metrics {
            each(m, events);
        }
        if let Some(c) = &mut self.chrome {
            each(c, events);
        }
        if let Some(j) = &mut self.jsonl {
            each(j, events);
        }
        if let Some(p) = &mut self.profiler {
            each(p, events);
        }
        if let Some(a) = &mut self.attribution {
            each(a, events);
        }
        if let Some(b) = &mut self.buffer {
            b.events.extend_from_slice(events);
        }
    }
}

impl Probe for ProbeStack {
    fn record(&mut self, ev: &SimEvent) {
        self.fold(std::slice::from_ref(ev));
    }
}

/// Events a live handle collects before handing them on (80 KB of
/// [`SimEvent`]s).
const BATCH: usize = 1024;

/// A cloneable, possibly-disabled reference to a [`ProbeStack`], held by
/// every instrumented component of one simulation.
///
/// A disabled handle is `None` inside, so the per-emission cost of an
/// untraced run is a single branch and the event closure is never
/// evaluated. A live one appends each event to a batch and folds full
/// batches into the stack, some sinks on a sink thread (see the crate
/// docs, "Record, then render"). The handle itself is `Rc` (not
/// `Arc`): simulations are single-threaded objects — `parallel_sweep`
/// builds each sim inside its worker thread and never moves one across
/// threads — and only sinks cross to the sink thread.
#[derive(Clone, Default)]
pub struct ProbeHandle {
    inner: Option<Rc<RefCell<Recorder>>>,
}

/// The simulation thread's side of a live handle.
struct Recorder {
    /// Events not yet handed on, in emission order.
    batch: Vec<SimEvent>,
    /// The sinks, less those `worker` holds while it runs.
    stack: ProbeStack,
    worker: Option<SinkThread>,
}

/// A sink thread folding full batches into the sinks it owns.
struct SinkThread {
    /// Full batches, one in flight at most besides the one being folded.
    full: SyncSender<Vec<SimEvent>>,
    /// Folded batches coming back, emptied, for reuse.
    empty: Receiver<Vec<SimEvent>>,
    thread: JoinHandle<Box<ProbeStack>>,
}

impl SinkThread {
    /// Start a thread folding batches into `stack`, or hand the stack back
    /// when the host refuses the thread.
    fn spawn(stack: Box<ProbeStack>) -> Result<SinkThread, Box<ProbeStack>> {
        let (hand_over, sinks) = mpsc::sync_channel::<Box<ProbeStack>>(1);
        let (full, batches) = mpsc::sync_channel::<Vec<SimEvent>>(1);
        let (give_back, empty) = mpsc::channel();
        let spawned = thread::Builder::new()
            .name("probe-sinks".into())
            .spawn(move || {
                let mut stack = sinks.recv().expect("the recorder hands its sinks over");
                while let Ok(mut batch) = recv_yielding(&batches) {
                    stack.fold(&batch);
                    batch.clear();
                    // The recorder may have stopped taking batches back.
                    let _ = give_back.send(batch);
                }
                stack
            });
        match spawned {
            Ok(thread) => {
                hand_over
                    .send(stack)
                    .expect("the sink thread waits for its sinks");
                Ok(SinkThread {
                    full,
                    empty,
                    thread,
                })
            }
            Err(_) => Err(stack),
        }
    }

    /// Fold what was sent, end the thread and take its sinks back. A
    /// panic in a sink resumes here, on the calling thread.
    fn join(self) -> Box<ProbeStack> {
        drop(self.full);
        self.thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// How long a thread waiting on the other end of the batch channel keeps
/// yielding before it parks. A batch takes well under a millisecond to
/// fill or fold, and waking a thread parked on another core takes longer
/// than that — on a 2-vCPU VM it doubled an all-sinks call (EXPERIMENTS.md
/// P2). Yielding rather than spinning lets the two threads take turns on
/// a one-core host.
const PATIENCE: Duration = Duration::from_millis(2);

/// `rx.recv()`, yielding for up to [`PATIENCE`] before it parks.
fn recv_yielding<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Err(TryRecvError::Empty) if start.elapsed() < PATIENCE => thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv(),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Ok(v) => return Ok(v),
        }
    }
}

/// `tx.send(v)`, yielding for up to [`PATIENCE`] before it parks.
fn send_yielding<T>(tx: &SyncSender<T>, mut v: T) -> Result<(), SendError<T>> {
    let start = Instant::now();
    loop {
        match tx.try_send(v) {
            Err(TrySendError::Full(back)) if start.elapsed() < PATIENCE => {
                v = back;
                thread::yield_now();
            }
            Err(TrySendError::Full(back)) => return tx.send(back),
            Err(TrySendError::Disconnected(back)) => return Err(SendError(back)),
            Ok(()) => return Ok(()),
        }
    }
}

impl Recorder {
    #[inline]
    fn record(&mut self, ev: SimEvent) {
        self.batch.push(ev);
        if self.batch.len() == BATCH {
            self.hand_off();
        }
    }

    /// Fold the full batch into the sinks held here, reading the
    /// profiler's clock, and pass it on to the sink thread — started, with
    /// the sinks that keep what they fold, when the stack renders text.
    /// When no thread can be started every sink folds here.
    #[cold]
    #[inline(never)]
    fn hand_off(&mut self) {
        if self.stack.renders() {
            match SinkThread::spawn(self.stack.take_keepers()) {
                Ok(worker) => self.worker = Some(worker),
                Err(keepers) => self.stack.put_back(keepers),
            }
        }
        self.stack.fold(&self.batch);
        if let Some(p) = &mut self.stack.profiler {
            p.lap();
        }
        let Some(worker) = &self.worker else {
            return self.batch.clear();
        };
        let next = worker
            .empty
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(BATCH));
        let full = std::mem::replace(&mut self.batch, next);
        if send_yielding(&worker.full, full).is_err() {
            // The thread is gone: a sink panicked. Resume the panic here.
            self.settle();
        }
    }

    /// Fold every event recorded so far and bring the sink thread's sinks
    /// back to this thread: the batches sent first, then the partial one,
    /// into every sink, here. The profiler's clock is not read: this may
    /// be long after the last event. A later full batch starts a new sink
    /// thread.
    fn settle(&mut self) {
        if let Some(worker) = self.worker.take() {
            self.stack.put_back(worker.join());
        }
        self.stack.fold(&self.batch);
        self.batch.clear();
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // Joined, not detached. A sink panic that no `with_stack` read back
        // was printed on the sink thread and is not raised again here.
        if let Some(worker) = self.worker.take() {
            drop(worker.full);
            let _ = worker.thread.join();
        }
    }
}

impl ProbeHandle {
    /// The no-op handle every untraced simulation carries.
    pub fn disabled() -> Self {
        ProbeHandle { inner: None }
    }

    /// A live handle recording into `stack`.
    pub fn new(stack: ProbeStack) -> Self {
        let recorder = Recorder {
            batch: Vec::with_capacity(BATCH),
            stack,
            worker: None,
        };
        ProbeHandle {
            inner: Some(Rc::new(RefCell::new(recorder))),
        }
    }

    /// True when a stack is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record the event built by `f` — the closure runs only when the
    /// handle is enabled.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> SimEvent) {
        if let Some(recorder) = &self.inner {
            recorder.borrow_mut().record(f());
        }
    }

    /// Run `f` against the attached stack, if any, once every event
    /// recorded so far has been folded into it. This is how results are
    /// read back, after a run or mid-run (components keep their handle
    /// clones, so the stack stays shared), and the one point where the
    /// simulation thread waits for the sink thread.
    pub fn with_stack<R>(&self, f: impl FnOnce(&mut ProbeStack) -> R) -> Option<R> {
        let mut recorder = self.inner.as_ref()?.borrow_mut();
        recorder.settle();
        Some(f(&mut recorder.stack))
    }

    /// An adapter implementing [`pearl::EngineProbe`] that forwards
    /// engine deliveries and ladder transitions into this handle, or
    /// `None` for a disabled handle.
    pub fn engine_adapter(&self) -> Option<Box<dyn EngineProbe>> {
        self.inner.as_ref()?;
        Some(Box::new(EngineForwarder {
            handle: self.clone(),
            last: LadderStats::default(),
        }))
    }

    /// Rendered metrics report, if a [`MetricsAggregator`] is attached.
    /// `horizon_ps` bounds utilisation fractions (normally the run's
    /// finish time).
    pub fn metrics_report(&self, horizon_ps: u64) -> Option<MetricsReport> {
        self.with_stack(|s| s.metrics.as_ref().map(|m| m.report(horizon_ps)))
            .flatten()
    }

    /// The complete Chrome-trace JSON document, if that sink is attached.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.with_stack(|s| s.chrome.as_ref().map(|c| c.to_json()))
            .flatten()
    }

    /// The JSONL stream recorded so far, if that sink is attached.
    pub fn jsonl_output(&self) -> Option<String> {
        self.with_stack(|s| s.jsonl.as_ref().map(|j| j.output().to_string()))
            .flatten()
    }

    /// The host-side profile, if a [`SelfProfiler`] is attached.
    pub fn host_profile(&self) -> Option<HostProfile> {
        self.with_stack(|s| s.profiler.as_ref().map(|p| p.profile()))
            .flatten()
    }

    /// The bottleneck-attribution report, if an [`AttributionSink`] is
    /// attached. `horizon_ps` bounds utilization fractions (normally the
    /// run's finish time).
    pub fn attribution_report(&self, horizon_ps: u64) -> Option<AttributionReport> {
        self.with_stack(|s| s.attribution.as_ref().map(|a| a.report(horizon_ps)))
            .flatten()
    }

    /// Drain the attached [`EventBuffer`], if any.
    pub fn take_buffer(&self) -> Option<Vec<SimEvent>> {
        self.with_stack(|s| s.buffer.as_mut().map(|b| b.take()))
            .flatten()
    }

    /// Replay a pre-recorded event into the attached sinks (used when
    /// merging per-shard buffers into the caller's stack).
    #[inline]
    pub fn replay(&self, ev: &SimEvent) {
        if let Some(recorder) = &self.inner {
            recorder.borrow_mut().record(*ev);
        }
    }
}

/// Forwards `pearl` engine hooks into a [`ProbeHandle`] as [`SimEvent`]s.
struct EngineForwarder {
    handle: ProbeHandle,
    last: LadderStats,
}

impl EngineProbe for EngineForwarder {
    fn delivered(&mut self, now: Time, src: CompId, dst: CompId, pending: usize) {
        self.handle.emit(|| SimEvent::EngineDelivery {
            ts_ps: now.as_ps(),
            src,
            dst,
            pending,
        });
    }

    fn ladder(&mut self, now: Time, stats: LadderStats) {
        let ts_ps = now.as_ps();
        if stats.promotions != self.last.promotions {
            self.handle.emit(|| SimEvent::QueueTier {
                ts_ps,
                kind: TierMove::Promotion,
                total: stats.promotions,
            });
        }
        if stats.rebases != self.last.rebases {
            self.handle.emit(|| SimEvent::QueueTier {
                ts_ps,
                kind: TierMove::Rebase,
                total: stats.rebases,
            });
        }
        if stats.far_drains != self.last.far_drains {
            self.handle.emit(|| SimEvent::QueueTier {
                ts_ps,
                kind: TierMove::FarDrain,
                total: stats.far_drains,
            });
        }
        self.last = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_builds_events() {
        let h = ProbeHandle::disabled();
        assert!(!h.is_enabled());
        let mut built = false;
        h.emit(|| {
            built = true;
            SimEvent::PacketDeliver {
                ts_ps: 0,
                node: 0,
                packets: 1,
            }
        });
        assert!(!built, "closure must not run on a disabled handle");
        assert!(h.engine_adapter().is_none());
        assert!(h.chrome_trace_json().is_none());
        assert!(h.metrics_report(1).is_none());
    }

    #[test]
    fn enabled_handle_fans_out_to_all_sinks() {
        let h = ProbeHandle::new(
            ProbeStack::new()
                .with_metrics()
                .with_chrome()
                .with_jsonl()
                .with_profiler(1e9),
        );
        assert!(h.is_enabled());
        h.emit(|| SimEvent::MsgSend {
            ts_ps: 1_000,
            src: 0,
            dst: 1,
            bytes: 64,
            sync: true,
        });
        h.emit(|| SimEvent::MsgDeliver {
            ts_ps: 5_000,
            src: 0,
            dst: 1,
            bytes: 64,
            latency_ps: 4_000,
        });
        let report = h.metrics_report(10_000).unwrap();
        assert!(report.render().contains("msg"));
        let json = h.chrome_trace_json().unwrap();
        let summary = validate_chrome_trace(&json).unwrap();
        assert!(summary.events >= 2);
        let jsonl = h.jsonl_output().unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        let prof = h.host_profile().unwrap();
        assert_eq!(prof.events, 2);
    }

    #[test]
    fn engine_adapter_translates_ladder_deltas() {
        let h = ProbeHandle::new(ProbeStack::new().with_jsonl());
        let mut fwd = h.engine_adapter().unwrap();
        fwd.delivered(Time::from_ps(10), 0, 1, 3);
        fwd.ladder(
            Time::from_ps(20),
            LadderStats {
                promotions: 2,
                rebases: 1,
                far_drains: 0,
            },
        );
        let out = h.jsonl_output().unwrap();
        assert_eq!(out.lines().count(), 3, "delivery + two tier moves: {out}");
        assert!(out.contains("promotion"));
        assert!(out.contains("rebase"));
        assert!(!out.contains("far_drain"));
    }

    /// `n` link spans, back to back on one link, from `start_ps` on.
    fn link_spans(start_ps: u64, n: u64) -> impl Iterator<Item = SimEvent> {
        (0..n).map(move |i| SimEvent::LinkBusy {
            node: (i % 3) as u32,
            to: 3,
            start_ps: start_ps + 10 * i,
            end_ps: start_ps + 10 * i + 10,
        })
    }

    /// `n` events from `start_ps` on: link spans back to back on one
    /// link, with a packet forward and a decomposed delivery every 8th.
    fn mixed_stream(start_ps: u64, n: u64) -> impl Iterator<Item = SimEvent> {
        link_spans(start_ps, n)
            .enumerate()
            .map(|(i, ev)| match i % 8 {
                3 => SimEvent::PacketForward {
                    ts_ps: ev.ts_ps(),
                    node: (i % 5) as u32,
                    to: 3,
                    packets: 1,
                },
                5 => SimEvent::MsgPath {
                    ts_ps: ev.ts_ps(),
                    src: (i % 3) as u32,
                    dst: 3,
                    bytes: 64,
                    latency_ps: 60 + i as u64 % 7,
                    overhead_ps: 10,
                    retry_ps: 0,
                    queue_ps: i as u64 % 7,
                    routing_ps: 20,
                    ser_ps: 20,
                    wire_ps: 10,
                },
                _ => ev,
            })
    }

    fn has_sink_thread(h: &ProbeHandle) -> bool {
        h.inner.as_ref().unwrap().borrow().worker.is_some()
    }

    /// Which sinks the recording thread holds: metrics, Chrome, JSONL,
    /// attribution.
    fn held_here(h: &ProbeHandle) -> [bool; 4] {
        let r = h.inner.as_ref().unwrap().borrow();
        let s = &r.stack;
        [
            s.metrics.is_some(),
            s.chrome.is_some(),
            s.jsonl.is_some(),
            s.attribution.is_some(),
        ]
    }

    #[test]
    fn a_stack_can_move_to_the_sink_thread() {
        fn assert_send<T: Send>() {}
        assert_send::<ProbeStack>();
    }

    #[test]
    fn batches_fold_the_stream_direct_recording_folds() {
        let all = || {
            ProbeStack::new()
                .with_metrics()
                .with_chrome()
                .with_jsonl()
                .with_attribution()
        };
        let n = 4 * BATCH as u64 + 5;
        let events: Vec<SimEvent> = mixed_stream(0, n).collect();
        let mut direct = all();
        events.iter().for_each(|ev| direct.record(ev));

        let h = ProbeHandle::new(all());
        assert_eq!(held_here(&h), [true; 4]);
        for (i, ev) in events.iter().enumerate() {
            h.replay(ev);
            // The counters stay here, the other sinks go to the sink
            // thread; mid-run readers bring them back, and the next full
            // batch starts a new thread.
            if i == BATCH + 7 {
                assert!(has_sink_thread(&h));
                assert_eq!(held_here(&h), [true, false, false, false]);
                assert_eq!(
                    h.with_stack(|s| s.jsonl.as_ref().unwrap().len()),
                    Some(i as u64 + 1)
                );
                assert!(!has_sink_thread(&h));
                assert_eq!(held_here(&h), [true; 4]);
            }
        }
        assert!(has_sink_thread(&h));
        let horizon = 10 * n;
        assert_eq!(
            h.jsonl_output().unwrap(),
            direct.jsonl.as_ref().unwrap().output()
        );
        assert_eq!(
            h.chrome_trace_json().unwrap(),
            direct.chrome.as_ref().unwrap().to_json()
        );
        assert_eq!(
            h.metrics_report(horizon).unwrap().render(),
            direct.metrics.as_ref().unwrap().report(horizon).render()
        );
        let attribution = h.attribution_report(horizon).unwrap();
        let paths = events
            .iter()
            .filter(|ev| matches!(ev, SimEvent::MsgPath { .. }))
            .count();
        assert_eq!(attribution.messages, paths as u64);
        assert_eq!(
            attribution.to_json(),
            direct
                .attribution
                .as_ref()
                .unwrap()
                .report(horizon)
                .to_json()
        );
    }

    #[test]
    fn short_runs_and_stacks_that_render_nothing_start_no_thread() {
        let buffered = ProbeHandle::new(ProbeStack::new().with_buffer().with_profiler(1e9));
        link_spans(0, 3 * BATCH as u64).for_each(|ev| buffered.replay(&ev));
        assert!(!has_sink_thread(&buffered));
        assert_eq!(buffered.take_buffer().unwrap().len(), 3 * BATCH);
        assert_eq!(buffered.host_profile().unwrap().events, 3 * BATCH as u64);

        let counted = ProbeHandle::new(ProbeStack::new().with_metrics().with_attribution());
        link_spans(0, 3 * BATCH as u64).for_each(|ev| counted.replay(&ev));
        assert!(!has_sink_thread(&counted));

        let short = ProbeHandle::new(ProbeStack::new().with_jsonl());
        link_spans(0, BATCH as u64 - 1).for_each(|ev| short.replay(&ev));
        assert!(!has_sink_thread(&short));
        short.replay(&link_spans(1 << 40, 1).next().unwrap());
        assert!(has_sink_thread(&short));
    }

    /// A trace file whose every write panics.
    struct Unwritable;

    impl std::io::Write for Unwritable {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            panic!("the trace file refused a chunk")
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    #[should_panic(expected = "the trace file refused a chunk")]
    fn a_sink_panic_resumes_on_the_recording_thread() {
        let h = ProbeHandle::new(ProbeStack::new().with_metrics().with_chrome_to(Unwritable));
        // A batch of spans renders more than one 64 KB chunk, which the
        // sink thread's Chrome sink writes to the file.
        link_spans(0, BATCH as u64).for_each(|ev| h.replay(&ev));
        assert!(has_sink_thread(&h));
        h.metrics_report(0);
    }

    #[test]
    fn events_are_small_copy_records() {
        // What every buffering sink pays per event, and the record width
        // a binary trace file would have.
        fn assert_copy<T: Copy>() {}
        assert_copy::<SimEvent>();
        assert!(std::mem::size_of::<SimEvent>() <= 80);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ActKind::Compute.label(), "compute");
        assert_eq!(AccessKind::IFetch.label(), "ifetch");
        assert_eq!(HitWhere::CacheToCache.label(), "cache_to_cache");
        assert!(HitWhere::Dram.is_miss());
        assert!(!HitWhere::L1.is_miss());
        assert_eq!(TierMove::FarDrain.label(), "far_drain");
        let ev = SimEvent::Activation {
            node: 1,
            kind: ActKind::Compute,
            start_ps: 5,
            end_ps: 9,
        };
        assert_eq!(ev.label(), "activation");
        assert_eq!(ev.ts_ps(), 5);
        assert_eq!(DropReason::LinkDown.label(), "link_down");
        assert_eq!(DropReason::Corrupt.label(), "corrupt");
        let drop = SimEvent::PacketDropped {
            ts_ps: 7,
            node: 2,
            src: 0,
            seq: 3,
            reason: DropReason::Transient,
        };
        assert_eq!(drop.label(), "packet_dropped");
        assert_eq!(drop.ts_ps(), 7);
        assert!(!drop.is_engine_internal());
    }
}
