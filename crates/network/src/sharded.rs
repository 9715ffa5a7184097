//! Running the communication model: the one entry point, [`run_comm`],
//! and the sharded (multi-threaded) execution behind it.
//!
//! The machine's nodes are partitioned into contiguous shards
//! ([`Partition`]); each shard runs its routers and processors in a
//! private [`pearl::Engine`] on its own thread. Threads advance in
//! conservative windows: every round the shards exchange their earliest
//! pending event times and each executes all its events strictly before
//! [`window_end_ps`] — the earliest instant a message it has not yet
//! received could arrive, given that every router→router hand-off pays at
//! least the run's [`lookahead`] of modelled latency. That bound is a
//! function of the link parameters and the smallest packet the run can
//! send: under store-and-forward a head advances by its whole packet, so
//! a run of large messages gets wide windows, while one that can send a
//! header-only packet (acks, get requests, zero-byte messages, faults)
//! or uses cut-through switching gets the header-only bound. No shard
//! can therefore miss an event — and because cross-shard messages carry
//! the exact [`pearl::EventKey`] the serial schedule would have used, each
//! shard's queue pops in exactly the serial delivery order. A sharded run
//! is *bit-identical* to [`CommSim::run`]: same results, same per-node
//! statistics, same model-level probe events. See DESIGN.md §11 for the
//! full argument.
//!
//! Zero lookahead or a single shard falls back to the serial path.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::thread;
use std::time::Instant;

use mermaid_ops::TraceSet;
use mermaid_probe::{canonical_sort, AttributionSink, ProbeHandle, ProbeStack, SimEvent};
use mermaid_stats::state;
use pearl::engine::RunResult;
use pearl::{Duration, Engine, Rendezvous, Time, WindowBarrier, IDLE_PS};

use crate::config::NetworkConfig;
use crate::fault::FaultSchedule;
use crate::packet::NetMsg;
use crate::packet::PacketParams;
use crate::partition::{lookahead, window_end_ps, Lookahead, Partition};
use crate::router::{CrossShard, OutMsg};
use crate::sim::{assert_trace_count, post_scripted_faults, CommResult, CommSim, NodeCommStats};
use crate::snapshot::{capture, restore_engine, Capture, Snapshot, SnapshotError};
use crate::world::NetWorld;

/// One cross-shard transfer: every message a shard produced for one
/// destination shard in one flush, shipped as a single channel send.
type Batch = Vec<OutMsg>;

/// Capacity (in batches) of each shard's cross-shard inbox channel,
/// derived from the protocol rather than guessed: a sender ships at most
/// one batch per destination per round (the round-top flush), and between
/// its flushes of rounds `r` and `r + 1` lies round `r`'s window barrier,
/// which the receiver enters only after draining its inbox behind round
/// `r`'s gate — so at most one undrained batch exists per sender at any
/// instant, `k - 1` per channel. A full channel therefore cannot happen in
/// a correct run; [`ship`] treats it as a protocol-invariant violation
/// instead of retrying (the PR 3 code sized the channel at a magic 1024
/// messages and span on full).
fn channel_capacity(shards: usize) -> usize {
    shards - 1
}

/// Push one batch into a destination shard's inbox, panicking on the
/// (provably impossible) full or disconnected channel — see
/// [`channel_capacity`] for the bound.
fn ship(tx: &SyncSender<Batch>, batch: Batch, from: usize, to: usize) {
    match tx.try_send(batch) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => panic!(
            "cross-shard channel {from}->{to} full: the batched-flush protocol \
             bounds in-flight batches below the channel capacity, so this is a \
             sharding protocol bug, not backpressure"
        ),
        Err(TrySendError::Disconnected(_)) => {
            unreachable!("inbox receivers live for the whole run")
        }
    }
}

/// A shard's preferred worker count for `--shards auto`.
pub fn auto_shards() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one shard worker hands back after the run.
struct ShardOut {
    /// Stats of this shard's nodes, in node order.
    nodes: Vec<NodeCommStats>,
    /// Model-level probe events recorded by this shard (emission order).
    probe_events: Vec<SimEvent>,
    /// This shard's self-profile.
    profile: ShardProfileEntry,
}

/// One shard's self-profile: where its wall-clock time went and how much
/// work each lookahead window carried.
///
/// The `*_ns` fields are **host wall-clock** — they vary run to run and
/// between machines, so they are deliberately kept out of `CommResult`,
/// probe streams and any deterministic output (attribution reports,
/// default stdout); they exist to answer "which sharding overhead
/// dominates" for a given run (ROADMAP open item 2). Every other field is
/// a deterministic function of the configuration, traces and shard count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardProfileEntry {
    /// Shard index.
    pub shard: usize,
    /// Lookahead windows (rounds of the window loop) this shard executed.
    pub windows: u64,
    /// Engine events the shard delivered over the whole run.
    pub events: u64,
    /// Cross-shard messages this shard pushed into peers' inboxes.
    pub cross_sent: u64,
    /// Cross-shard messages this shard drained from its own inbox.
    pub cross_recv: u64,
    /// Batched channel sends carrying those messages (one per destination
    /// shard per flush with traffic) — the actual channel operation count.
    pub flush_batches: u64,
    /// Log2 histogram of executed window widths: `window_hist[b]` counts
    /// windows whose width in picoseconds satisfied `2^b <= width <
    /// 2^(b+1)` (bucket 0 also holds zero-width rounds). Empty when the
    /// shard executed no window.
    pub window_hist: Vec<u64>,
    /// Host nanoseconds spent waiting on the round gate and window barrier.
    pub barrier_wait_ns: u64,
    /// Host nanoseconds spent executing events (`Engine::run_until`).
    pub work_ns: u64,
}

/// Number of log2 buckets in [`ShardProfileEntry::window_hist`] — enough
/// for any u64 width.
const WIDTH_BUCKETS: usize = 64;

impl ShardProfileEntry {
    /// Mean events executed per lookahead window (window occupancy).
    pub fn events_per_window(&self) -> u64 {
        self.events.checked_div(self.windows).unwrap_or(0)
    }

    /// Record one executed window of `width_ps` in the log2 histogram.
    fn record_width(&mut self, width_ps: u64) {
        if self.window_hist.is_empty() {
            self.window_hist = vec![0; WIDTH_BUCKETS];
        }
        let bucket = (u64::BITS - 1).saturating_sub(width_ps.leading_zeros()) as usize;
        self.window_hist[bucket] += 1;
    }
}

/// Self-profile of a whole sharded run: the lookahead its windows were
/// sized by, then one entry per shard, in shard order. See
/// [`ShardProfileEntry`] for the determinism caveat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardProfile {
    /// The per-hop lookahead of the run.
    pub lookahead: Lookahead,
    /// Per-shard entries, indexed by shard id.
    pub shards: Vec<ShardProfileEntry>,
}

impl ShardProfile {
    /// Total host time all shards spent blocked on barriers.
    pub fn total_barrier_wait_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.barrier_wait_ns).sum()
    }

    /// Total host time all shards spent executing events.
    pub fn total_work_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.work_ns).sum()
    }

    /// Total cross-shard messages exchanged (as counted by senders).
    pub fn total_cross_msgs(&self) -> u64 {
        self.shards.iter().map(|s| s.cross_sent).sum()
    }

    /// Total batched channel sends across all shards.
    pub fn total_flush_batches(&self) -> u64 {
        self.shards.iter().map(|s| s.flush_batches).sum()
    }

    /// Always 0: speculative windows are gone (DESIGN.md §17). Kept only
    /// because the benchmark harness, which this PR may not edit, still
    /// calls it; ROADMAP item 1a removes it with the harness's
    /// `network.sharded.spec_commits` manifest row.
    pub fn total_spec_commits(&self) -> u64 {
        0
    }

    /// Always 0, for the same reason as [`ShardProfile::total_spec_commits`]
    /// (ROADMAP item 1a removes it with the `spec_rollbacks` manifest row).
    pub fn total_spec_rollbacks(&self) -> u64 {
        0
    }

    /// Element-wise sum of every shard's window-width histogram.
    pub fn window_hist(&self) -> Vec<u64> {
        let mut all = vec![0u64; WIDTH_BUCKETS];
        for s in &self.shards {
            for (a, w) in all.iter_mut().zip(&s.window_hist) {
                *a += w;
            }
        }
        all
    }

    /// Barrier wait as parts-per-million of total shard wall-clock
    /// (barrier + work). Answers "how synchronization-bound was this run".
    pub fn barrier_share_ppm(&self) -> u64 {
        let wait = self.total_barrier_wait_ns() as u128;
        let total = wait + self.total_work_ns() as u128;
        (wait * 1_000_000).checked_div(total).unwrap_or(0) as u64
    }

    /// Render a plain-text per-shard table. Wall-clock columns are host
    /// time and will differ between runs.
    pub fn render(&self) -> String {
        let mut out = format!(
            "lookahead: {}\n\
             shard  windows  events  ev/window  cross-sent  cross-recv  batches  \
             barrier-us  work-us\n",
            self.lookahead
        );
        for s in &self.shards {
            out.push_str(&format!(
                "{:>5}  {:>7}  {:>6}  {:>9}  {:>10}  {:>10}  {:>7}  {:>10}  {:>7}\n",
                s.shard,
                s.windows,
                s.events,
                s.events_per_window(),
                s.cross_sent,
                s.cross_recv,
                s.flush_batches,
                s.barrier_wait_ns / 1_000,
                s.work_ns / 1_000,
            ));
        }
        out.push_str(&format!(
            "barrier wait: {}us of {}us total ({}.{:01}%)\n",
            self.total_barrier_wait_ns() / 1_000,
            (self.total_barrier_wait_ns() + self.total_work_ns()) / 1_000,
            self.barrier_share_ppm() / 10_000,
            self.barrier_share_ppm() % 10_000 / 1_000,
        ));
        let hist = self.window_hist();
        let lines: Vec<String> = hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, c)| format!("2^{b}ps:{c}"))
            .collect();
        if !lines.is_empty() {
            out.push_str(&format!("window widths (log2): {}\n", lines.join("  ")));
        }
        out
    }
}

/// A request to write periodic checkpoints during a run: capture the
/// complete simulation state at every multiple of `every` (virtual time)
/// and hand the composed [`Snapshot`] to `write`. The same snapshot file
/// is produced whether the run is serial or sharded — per-shard captures
/// compose into exactly the bytes a serial capture at the same instant
/// yields (the contiguous-slice partition contract, DESIGN.md §15/§16).
pub struct CheckpointOpts<'a> {
    /// Checkpoint cadence in virtual time (must be non-zero).
    pub every: Duration,
    /// Campaign-layer config hash stamped into each snapshot.
    pub config_hash: String,
    /// Receives each finished snapshot (typically [`Capture::write_file`],
    /// which writes a serial run's events straight from its queue). An
    /// error aborts checkpointing and fails the run once it completes.
    pub write: &'a (dyn Fn(&Capture<'_>) -> Result<(), SnapshotError> + Sync),
}

impl CheckpointOpts<'_> {
    /// The first capture instant of a run: the cadence itself, or — for a
    /// run restored at `restored_at`, which resumes the original cadence —
    /// the first multiple after the restore instant.
    fn first_capture_ps(&self, restored_at: Option<Time>) -> u64 {
        let every = self.every.as_ps();
        assert!(every > 0, "checkpoint cadence must be non-zero");
        match restored_at {
            Some(t) => (t.as_ps() / every + 1) * every,
            None => every,
        }
    }
}

/// How to run the communication model: everything [`run_comm`] takes
/// beyond the configuration and the traces. The default is a serial,
/// healthy, unprobed run with no snapshot in or out.
#[derive(Clone, Default)]
pub struct RunOptions<'a> {
    /// Instrumentation handle the run records into (observation only).
    pub probe: ProbeHandle,
    /// Worker threads; `0` and `1` both mean the serial path.
    pub shards: usize,
    /// Deterministic fault injection; `None` runs the healthy machine.
    pub faults: Option<Arc<FaultSchedule>>,
    /// Resume from this snapshot instead of starting at time zero. The run
    /// owns it and drops it — its pending events as text, most of the
    /// file — once the engine's queue holds them (in a sharded run, once
    /// every shard's does), rather than keep it through the run.
    pub restore_from: Option<Snapshot>,
    /// Write periodic snapshots during the run.
    pub checkpoint: Option<&'a CheckpointOpts<'a>>,
    /// Run-time observation: called with the virtual time reached and the
    /// results so far whenever the event count reaches a multiple of
    /// [`PROGRESS_EVERY`] — absolute multiples, so a restored run samples
    /// where the uninterrupted one did — and once more when the event set
    /// drains, unless the last sample fell there. Observation only. The
    /// sharded path never calls it: its shards merge their results only
    /// at the end.
    pub progress: Option<Progress<'a>>,
}

/// A [`RunOptions::progress`] hook: the virtual time reached and the
/// results so far.
pub type Progress<'a> = &'a dyn Fn(Time, &CommResult);

/// Events between two [`RunOptions::progress`] samples.
pub const PROGRESS_EVERY: u64 = 500;

/// One shard's deposited capture: its partition slice plus the probe
/// events it has buffered so far.
type CaptureSlot = Option<(Snapshot, Vec<SimEvent>)>;

/// Shared state of the sharded capture protocol: every shard deposits
/// its snapshot piece (plus its buffered probe events, when attribution
/// is attached), all shards rendezvous on the barrier, then shard 0
/// composes and writes while the rest wait for it to finish.
struct CkptSync<'a> {
    opts: &'a CheckpointOpts<'a>,
    /// Seed for the composed attribution record when the run itself was
    /// restored from a snapshot (the shard buffers only hold post-restore
    /// events).
    base_attr: Option<Vec<u64>>,
    /// Whether the caller's probe carries an attribution sink.
    want_attr: bool,
    slots: Mutex<Vec<CaptureSlot>>,
    barrier: Barrier,
    /// The first failed write. Captures keep their (deterministic)
    /// rendezvous after it, but no further snapshots are written.
    error: Mutex<Option<SnapshotError>>,
}

impl CkptSync<'_> {
    /// Shard 0, after the capture barrier: compose the deposited pieces
    /// into the canonical whole-machine snapshot and hand it to the sink.
    fn compose_and_write(&self) {
        let (pieces, events): (Vec<Snapshot>, Vec<Vec<SimEvent>>) = self
            .slots
            .lock()
            .unwrap()
            .iter_mut()
            .map(|s| s.take().expect("every shard deposited a piece"))
            .unzip();
        let mut error = self.error.lock().unwrap();
        if error.is_some() {
            return;
        }
        let mut snap = Snapshot::compose(pieces);
        if self.want_attr {
            // Rebuild the attribution sink's state from the canonical
            // merge of every shard's buffered model events — the same
            // multiset the serial sink folded live, so the record is
            // byte-identical to a serial capture at this instant.
            let mut events = events.concat();
            canonical_sort(&mut events);
            let mut sink = AttributionSink::new();
            if let Some(base) = &self.base_attr {
                state::load(base, "the attribution record", |w| sink.walk(w))
                    .expect("the restore entry validated this record");
            }
            for ev in &events {
                mermaid_probe::Probe::record(&mut sink, ev);
            }
            snap.attribution = Some(state::save(|w| sink.walk(w)));
        }
        *error = (self.opts.write)(&Capture::of(&snap)).err();
    }
}

/// The attribution sink's current state, when one is attached.
pub(crate) fn capture_attribution(probe: &ProbeHandle) -> Option<Vec<u64>> {
    probe
        .with_stack(|s| s.attribution.as_mut().map(|a| state::save(|w| a.walk(w))))
        .flatten()
}

/// Seed a restored run's attribution sink from the snapshot. A sink with
/// no matching record is refused: it would silently report only post-
/// restore evidence.
fn seed_attribution(probe: &ProbeHandle, snap: &Snapshot) -> Result<(), SnapshotError> {
    probe
        .with_stack(|s| match (s.attribution.as_mut(), &snap.attribution) {
            (None, _) => Ok(()),
            (Some(sink), Some(rec)) => state::load(rec, "the attribution record", |w| sink.walk(w)),
            (Some(_), None) => Err(
                "the snapshot has no `attr` record but this run attaches an attribution \
                 sink — re-create the checkpoint with attribution enabled, or drop it"
                    .to_string(),
            ),
        })
        .unwrap_or(Ok(()))
        .map_err(|detail| SnapshotError::Parse {
            context: "attribution record".into(),
            detail,
        })
}

/// Run the communication model over one task-level trace per node — the
/// single entry point behind `TaskLevelSim`, `HybridSim`, the CLI and
/// campaigns.
///
/// With `opts.shards > 1` the run is spread over worker threads and the
/// result is bit-identical to the serial one (results, per-node stats,
/// model-level probe stream, attribution, snapshot files — with or
/// without faults); the second element is then the run's [`ShardProfile`].
/// It is `None` when the run took the serial path: one shard, a topology
/// too small to split, or a run with zero lookahead. With an
/// enabled probe a sharded run replays the merged per-shard event stream
/// into it in canonical order; engine-internal events (queue depths,
/// ladder-tier moves) are per-shard artifacts and are not reproduced.
///
/// `opts.restore_from` resumes from a [`Snapshot`] — the run continues
/// exactly as the uninterrupted one would from that instant — and
/// `opts.checkpoint` writes periodic snapshots; serial and sharded runs
/// accept both. Only those two options can fail: a run with neither
/// always returns `Ok`.
pub fn run_comm(
    cfg: NetworkConfig,
    traces: &TraceSet,
    opts: RunOptions<'_>,
) -> Result<(CommResult, Option<ShardProfile>), SnapshotError> {
    cfg.validate();
    let part = Partition::contiguous(cfg.topology, opts.shards);
    if part.shards() > 1 {
        let la = lookahead(&cfg, traces, opts.faults.as_deref());
        if la.hop > Duration::ZERO {
            return run_on_shards(cfg, traces, opts, part, la);
        }
    }
    Ok((run_serial(cfg, traces, opts)?, None))
}

/// The serial path of [`run_comm`]: restore (if asked), then run in
/// stretches that end at the next checkpoint instant or the next progress
/// sample, whichever comes first, until the event set drains.
fn run_serial(
    cfg: NetworkConfig,
    traces: &TraceSet,
    opts: RunOptions<'_>,
) -> Result<CommResult, SnapshotError> {
    let probe = &opts.probe;
    // The snapshot is dropped here, once the queue holds its events.
    let (mut sim, restored_at) = match opts.restore_from {
        Some(snap) => {
            let sim = CommSim::restore(cfg, traces, probe.clone(), opts.faults, &snap)?;
            seed_attribution(probe, &snap)?;
            (sim, Some(snap.time))
        }
        None => (
            CommSim::build(cfg, traces, probe.clone(), opts.faults),
            None,
        ),
    };
    if opts.checkpoint.is_none() && opts.progress.is_none() {
        return Ok(sim.run());
    }
    let mut next_cp = opts.checkpoint.map(|ck| ck.first_capture_ps(restored_at));
    let every = opts.progress.map_or(u64::MAX, |_| PROGRESS_EVERY);
    let mut sampled_at = None;
    loop {
        // Deliver everything strictly before the capture instant, up to
        // the next absolute multiple of the sampling interval.
        let deadline = next_cp.map_or(Time::MAX, |cp| Time::from_ps(cp - 1));
        match sim.run_core(deadline, every - sim.events() % every) {
            RunResult::TimeLimit => {
                let (ck, cp) = opts
                    .checkpoint
                    .zip(next_cp)
                    .expect("only a capture sets a deadline");
                let at = Time::from_ps(cp);
                let attribution = capture_attribution(probe);
                sim.capture(&ck.config_hash, at, attribution, ck.write)?;
                next_cp = Some(cp + ck.every.as_ps());
            }
            RunResult::EventLimit => {
                if let Some(progress) = opts.progress {
                    progress(sim.now(), &sim.result());
                    sampled_at = Some(sim.events());
                }
            }
            RunResult::Drained | RunResult::Stopped => break,
        }
    }
    let result = sim.result();
    if let Some(progress) = opts.progress.filter(|_| sampled_at != Some(result.events)) {
        progress(sim.now(), &result);
    }
    Ok(result)
}

/// Everything the shard workers of one run share.
struct Shared<'a> {
    cfg: NetworkConfig,
    traces: &'a TraceSet,
    part: Partition,
    /// The per-hop lookahead every window bound is built from.
    la: Lookahead,
    faults: Option<Arc<FaultSchedule>>,
    /// The snapshot every shard restores its slice from, until the build
    /// gate has agreed that all of them did; then shard 0 drops it.
    restore_from: RwLock<Option<Snapshot>>,
    /// The restored snapshot's instant, kept for the checkpoint cadence.
    restored_at: Option<Time>,
    /// Whether the caller's probe is enabled (shards then buffer events).
    want_probe: bool,
    built: BuildGate,
    /// Round gate: a shard computes its local minimum only after every
    /// shard has passed it — by then every cross-shard batch of the
    /// previous window has been pushed into its destination channel.
    gate: Rendezvous,
    barrier: WindowBarrier,
    /// Inbox senders, indexed by destination shard.
    txs: Vec<SyncSender<Batch>>,
    ckpt: Option<CkptSync<'a>>,
}

/// The construction rendezvous: every worker builds (or restores) its
/// engine and reports the outcome here *before* its first round-gate
/// arrival, so that when any shard cannot restore, all of them return
/// instead of the survivors waiting on a peer that will never arrive.
struct BuildGate {
    barrier: Barrier,
    failed: AtomicBool,
}

impl BuildGate {
    /// Report whether this shard's construction succeeded and wait for
    /// every peer's report; true when all shards succeeded.
    fn agree(&self, built: bool) -> bool {
        if !built {
            self.failed.store(true, Ordering::SeqCst);
        }
        self.barrier.wait();
        !self.failed.load(Ordering::SeqCst)
    }
}

/// The genuinely sharded body of [`run_comm`].
fn run_on_shards(
    cfg: NetworkConfig,
    traces: &TraceSet,
    opts: RunOptions<'_>,
    part: Partition,
    la: Lookahead,
) -> Result<(CommResult, Option<ShardProfile>), SnapshotError> {
    let n = cfg.topology.nodes();
    if let Some(snap) = &opts.restore_from {
        if snap.nodes != n {
            return Err(SnapshotError::NodesMismatch {
                found: snap.nodes,
                expected: n,
            });
        }
        seed_attribution(&opts.probe, snap)?;
    }
    assert_trace_count(&cfg, traces);

    let k = part.shards();
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..k)
        .map(|_| sync_channel::<Batch>(channel_capacity(k)))
        .unzip();
    let shared = Shared {
        cfg,
        traces,
        part,
        la,
        faults: opts.faults.clone(),
        restored_at: opts.restore_from.as_ref().map(|s| s.time),
        want_probe: opts.probe.is_enabled(),
        built: BuildGate {
            barrier: Barrier::new(k),
            failed: AtomicBool::new(false),
        },
        gate: Rendezvous::new(k),
        barrier: WindowBarrier::new(k),
        txs,
        ckpt: opts.checkpoint.map(|ck| CkptSync {
            opts: ck,
            base_attr: opts
                .restore_from
                .as_ref()
                .and_then(|s| s.attribution.clone()),
            want_attr: opts
                .probe
                .with_stack(|s| s.attribution.is_some())
                .unwrap_or(false),
            slots: Mutex::new((0..k).map(|_| None).collect()),
            barrier: Barrier::new(k),
            error: Mutex::new(None),
        }),
        restore_from: RwLock::new(opts.restore_from),
    };

    let outs: Vec<Result<Option<ShardOut>, SnapshotError>> = thread::scope(|scope| {
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(s, rx)| {
                let shared = &shared;
                scope.spawn(move || shard_worker(s, shared, rx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    // Shards restore their nodes in node order, so the lowest-numbered
    // failing shard reports the error the serial restore would.
    let outs: Vec<Option<ShardOut>> = outs.into_iter().collect::<Result<_, _>>()?;
    if let Some(e) = shared.ckpt.and_then(|ck| ck.error.into_inner().unwrap()) {
        return Err(e);
    }
    let outs = outs
        .into_iter()
        .map(|out| out.expect("every shard built, so every shard ran"));
    let (result, profile) = merge(outs, &opts.probe, la);
    Ok((result, Some(profile)))
}

/// One shard's whole life: build (or restore) its engine, agree with the
/// peers that all of them could, run the window loop, collect local stats.
/// `Err` when this shard could not restore, `Ok(None)` when a peer could
/// not.
fn shard_worker(
    s: usize,
    shared: &Shared<'_>,
    rx: Receiver<Batch>,
) -> Result<Option<ShardOut>, SnapshotError> {
    let built = Shard::build(s, shared, rx);
    let all_built = shared.built.agree(built.is_ok());
    if s == 0 {
        // Every shard is past its build: no one reads the snapshot again.
        drop(shared.restore_from.write().unwrap().take());
    }
    let mut shard = built?;
    if !all_built {
        return Ok(None);
    }
    shard.run_windows();
    Ok(Some(shard.finish()))
}

/// One shard worker's state.
struct Shard<'a> {
    s: usize,
    shared: &'a Shared<'a>,
    /// This shard's inbox.
    rx: Receiver<Batch>,
    engine: Engine<NetMsg, NetWorld>,
    /// Cross-shard messages this shard's routers produced in the window
    /// just executed, awaiting the next flush.
    outbox: Rc<RefCell<Vec<OutMsg>>>,
    probe: ProbeHandle,
    profile: ShardProfileEntry,
}

impl<'a> Shard<'a> {
    /// Build shard `s`'s engine over its own node range and bring it to
    /// the run's starting state: primed at time zero, or overlaid with its
    /// slice of the snapshot being restored.
    fn build(s: usize, shared: &'a Shared<'a>, rx: Receiver<Batch>) -> Result<Self, SnapshotError> {
        let probe = if shared.want_probe {
            ProbeHandle::new(ProbeStack::new().with_buffer())
        } else {
            ProbeHandle::disabled()
        };
        let outbox = Rc::new(RefCell::new(Vec::new()));
        let range = shared.part.range(s);
        let cross = CrossShard {
            local: shared.part.local_mask(s).into(),
            outbox: Rc::clone(&outbox),
            #[cfg(debug_assertions)]
            lookahead: shared.la.hop,
        };
        let mut engine = crate::sim::build_engine(
            shared.cfg,
            shared.traces,
            range.clone(),
            &probe,
            &shared.faults,
            Some(cross),
        );
        match shared.restore_from.read().unwrap().as_ref() {
            Some(snap) => {
                // A restored shard overlays the snapshot instead of
                // priming: the queue, clock and counters are replaced
                // wholesale with the owned-destination slice of the
                // snapshot (scripted fault events at or after the instant
                // are in that pending set under their original keys, so
                // nothing is posted here). Shard 0 carries the snapshot's
                // delivery count; the merge sums per-shard counts, so the
                // total matches an uninterrupted run.
                let base = if s == 0 { snap.events_processed } else { 0 };
                let (net, faulty) = (PacketParams::of(&shared.cfg), shared.faults.is_some());
                restore_engine(&mut engine, net, faulty, snap, base)?;
            }
            None => {
                // Post this shard's scripted fault events *before*
                // priming, exactly as the serial engine posts them before
                // running. Per-packet transient losses need no such care:
                // they are drawn from a stateless seeded hash over the
                // packet's identity and the link it crosses, so the draw
                // is the same whichever shard makes it.
                if let Some(f) = &shared.faults {
                    post_scripted_faults(&mut engine, f, range);
                }
                engine.prime();
            }
        }
        let profile = ShardProfileEntry {
            shard: s,
            ..ShardProfileEntry::default()
        };
        Ok(Shard {
            s,
            shared,
            rx,
            engine,
            outbox,
            probe,
            profile,
        })
    }

    /// The conservative window loop (DESIGN.md §11), one round per
    /// iteration, until every shard is idle with nothing in flight.
    fn run_windows(&mut self) {
        let shared = self.shared;
        // Every shard tracks the same next-capture instant (same cadence,
        // same agreed minima), so all reach each capture in the same round.
        let mut next_cp = match &shared.ckpt {
            Some(ck) => ck.opts.first_capture_ps(shared.restored_at),
            None => u64::MAX,
        };
        let mut mins: Vec<u64> = Vec::new();
        loop {
            // 1. Ship the cross-shard messages of the window just executed.
            self.flush();
            // 2. Round gate: wait until every shard has flushed.
            // 3. Inject the arrivals at their exact serial queue keys.
            self.receive();
            // 4. Publish this shard's earliest pending event and read every
            //    peer's; all idle means nothing is pending or in flight.
            let head = self.engine.next_event_time().map_or(IDLE_PS, |t| t.as_ps());
            self.profile.barrier_wait_ns +=
                shared.barrier.publish_mins_timed(self.s, head, &mut mins);
            let global_min = mins.iter().copied().min().unwrap_or(IDLE_PS);
            if global_min == IDLE_PS {
                break;
            }
            // Capture every checkpoint instant at or before the global
            // minimum: all events before it were processed (windows are
            // clamped to the cadence), all pending events are at or after
            // it, and step 3 left nothing in flight.
            if let Some(ck) = &shared.ckpt {
                while next_cp <= global_min {
                    self.capture(ck, Time::from_ps(next_cp));
                    next_cp += ck.opts.every.as_ps();
                }
            }
            // 5. Execute the window. Events *at* the window end belong to
            //    the next round (times are integer picoseconds, so
            //    `end - 1` is exact).
            self.profile.windows += 1;
            let end = window_end_ps(self.s, &mins, shared.la.hop).min(next_cp);
            if head < end {
                let work = Instant::now();
                self.engine.run_until(Time::from_ps(end - 1));
                self.profile.work_ns += work.elapsed().as_nanos() as u64;
                self.profile.record_width(end - head);
            }
        }
    }

    /// Batch the outbox into one channel send per destination shard with
    /// traffic. The channels never fill (see [`channel_capacity`]), so
    /// there is no retry path.
    fn flush(&mut self) {
        let mut msgs = self.outbox.borrow_mut();
        if msgs.is_empty() {
            return;
        }
        let part = &self.shared.part;
        self.profile.cross_sent += msgs.len() as u64;
        let mut batches: Vec<Batch> = vec![Vec::new(); part.shards()];
        for m in msgs.drain(..) {
            batches[part.shard_of(m.dst as u32)].push(m);
        }
        for (to, batch) in batches.into_iter().enumerate() {
            if !batch.is_empty() {
                self.profile.flush_batches += 1;
                ship(&self.shared.txs[to], batch, self.s, to);
            }
        }
    }

    /// Arrive at the round gate, wait until all shards have, then
    /// post everything they sent this shard into the engine.
    fn receive(&mut self) {
        let waited = Instant::now();
        self.shared.gate.wait();
        self.profile.barrier_wait_ns += waited.elapsed().as_nanos() as u64;
        for m in self.rx.try_iter().flatten() {
            self.profile.cross_recv += 1;
            self.engine.post_keyed(m.time, m.key, m.dst, m.msg);
        }
    }

    /// The capture rendezvous: deposit this shard's slice of the machine
    /// as of instant `at`; shard 0 composes and writes the snapshot.
    fn capture(&mut self, ck: &CkptSync<'_>, at: Time) {
        debug_assert!(
            self.outbox.borrow().is_empty(),
            "nothing runs between the round-top flush and a capture"
        );
        // Each shard renders its own events; the compose merges them.
        let net = PacketParams::of(&self.shared.cfg);
        let hash = &ck.opts.config_hash;
        let piece = capture(&mut self.engine, net, hash, at, None, |c| c.to_snapshot());
        let buffered = if ck.want_attr {
            self.probe
                .with_stack(|st| st.buffer.as_ref().map(|b| b.events().to_vec()))
                .flatten()
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        ck.slots.lock().unwrap()[self.s] = Some((piece, buffered));
        // First rendezvous: every piece is deposited. Second: shard 0 has
        // consumed them — without it, a fast shard could overwrite its
        // slot with the *next* instant's piece before the compose reads
        // this one.
        ck.barrier.wait();
        if self.s == 0 {
            ck.compose_and_write();
        }
        ck.barrier.wait();
    }

    /// Collect this shard's results once the window loop has ended.
    fn finish(self) -> ShardOut {
        let mut profile = self.profile;
        profile.events = self.engine.events_processed();
        let world = self.engine.world();
        let nodes = self
            .shared
            .part
            .range(self.s)
            .map(|node| NodeCommStats {
                node,
                proc: world.proc(node).stats.clone(),
                router: world.router(node).snapshot_stats(),
            })
            .collect();
        ShardOut {
            nodes,
            probe_events: self.probe.take_buffer().unwrap_or_default(),
            profile,
        }
    }
}

/// Fold per-shard outputs into one [`CommResult`], mirroring
/// `CommSim::collect` field for field (shards are in node order, so the
/// merge order — and hence every merged histogram — matches the serial
/// collection exactly).
fn merge(
    outs: impl Iterator<Item = ShardOut>,
    probe: &ProbeHandle,
    lookahead: Lookahead,
) -> (CommResult, ShardProfile) {
    let mut nodes = Vec::new();
    let mut events = 0;
    let mut probe_events = Vec::new();
    let mut profile = ShardProfile {
        lookahead,
        shards: Vec::new(),
    };
    for out in outs {
        events += out.profile.events;
        probe_events.extend(out.probe_events);
        nodes.extend(out.nodes);
        profile.shards.push(out.profile);
    }
    if probe.is_enabled() {
        canonical_sort(&mut probe_events);
        for ev in &probe_events {
            probe.replay(ev);
        }
    }
    // The window loop only terminates once every shard's event set has
    // drained, so — unlike a mid-run snapshot — unfinished here means
    // deadlocked, exactly as in the serial terminal collect.
    (CommResult::from_nodes(nodes, events, true), profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use mermaid_ops::{NodeId, Operation};

    fn trace_set(n: u32, f: impl Fn(NodeId) -> Vec<Operation>) -> TraceSet {
        let mut ts = TraceSet::new(n as usize);
        for node in 0..n {
            ts.trace_mut(node).ops = f(node);
        }
        ts
    }

    fn exchange_traces(n: u32) -> TraceSet {
        trace_set(n, |node| {
            vec![
                Operation::ASend {
                    bytes: 3000,
                    dst: (node + 1) % n,
                },
                Operation::Recv {
                    src: (node + n - 1) % n,
                },
                Operation::Compute { ps: 10_000 },
                Operation::ASend {
                    bytes: 500,
                    dst: (node + n / 2) % n,
                },
                Operation::Recv {
                    src: (node + n - n / 2) % n,
                },
            ]
        })
    }

    fn assert_identical(a: &CommResult, b: &CommResult) {
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.events, b.events);
        assert_eq!(a.all_done, b.all_done);
        assert_eq!(a.deadlocked, b.deadlocked);
        assert_eq!(a.total_messages, b.total_messages);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.total_link_busy(), b.total_link_busy());
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.proc.finished_at, y.proc.finished_at, "node {}", x.node);
            assert_eq!(x.proc.compute, y.proc.compute);
            assert_eq!(x.proc.send_block, y.proc.send_block);
            assert_eq!(x.proc.recv_block, y.proc.recv_block);
            assert_eq!(x.proc.msgs_sent, y.proc.msgs_sent);
            assert_eq!(x.proc.msgs_received, y.proc.msgs_received);
            assert_eq!(x.router.forwarded, y.router.forwarded);
            assert_eq!(x.router.delivered, y.router.delivered);
            assert_eq!(x.router.link_wait, y.router.link_wait, "node {}", x.node);
            assert_eq!(x.router.link_busy, y.router.link_busy);
        }
        assert_eq!(a.msg_latency.count(), b.msg_latency.count());
        assert_eq!(a.msg_latency.max(), b.msg_latency.max());
    }

    /// A plain sharded run: no faults, no snapshot in or out.
    fn sharded(cfg: NetworkConfig, ts: &TraceSet, probe: ProbeHandle, shards: usize) -> CommResult {
        profiled(cfg, ts, probe, shards).0
    }

    fn profiled(
        cfg: NetworkConfig,
        ts: &TraceSet,
        probe: ProbeHandle,
        shards: usize,
    ) -> (CommResult, Option<ShardProfile>) {
        let opts = RunOptions {
            probe,
            shards,
            ..RunOptions::default()
        };
        run_comm(cfg, ts, opts).expect("a run without snapshot options cannot fail")
    }

    #[test]
    fn only_the_serial_path_samples_progress() {
        let cfg = NetworkConfig::test(Topology::Ring(8));
        let ts = exchange_traces(8);
        let calls = std::cell::Cell::new(0);
        let hook = |_: Time, _: &CommResult| calls.set(calls.get() + 1);
        for (shards, sampled) in [(1, true), (2, false)] {
            calls.set(0);
            let opts = RunOptions {
                shards,
                progress: Some(&hook),
                ..RunOptions::default()
            };
            let (_, profile) = run_comm(cfg, &ts, opts).unwrap();
            assert_eq!(profile.is_none(), sampled);
            assert_eq!(calls.get() > 0, sampled);
        }
    }

    #[test]
    fn sharded_matches_serial_on_a_ring() {
        let cfg = NetworkConfig::test(Topology::Ring(8));
        let ts = exchange_traces(8);
        let serial = CommSim::new(cfg, &ts).run();
        for shards in [2, 3, 8] {
            let sh = sharded(cfg, &ts, ProbeHandle::disabled(), shards);
            assert_identical(&serial, &sh);
        }
    }

    #[test]
    fn sharded_matches_serial_on_mesh_and_torus() {
        for topo in [
            Topology::Mesh2D { w: 4, h: 4 },
            Topology::Torus2D { w: 4, h: 4 },
        ] {
            let cfg = NetworkConfig::test(topo);
            let ts = exchange_traces(16);
            let serial = CommSim::new(cfg, &ts).run();
            let sh = sharded(cfg, &ts, ProbeHandle::disabled(), 4);
            assert_identical(&serial, &sh);
        }
    }

    #[test]
    fn sharded_matches_serial_with_adaptive_routing_and_contention() {
        let mut cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 4 });
        cfg.router.routing = crate::config::Routing::AdaptiveMinimal;
        let ts = trace_set(16, |node| {
            vec![
                Operation::ASend {
                    bytes: 64 * 1024,
                    dst: 15 - node,
                },
                Operation::Recv { src: 15 - node },
            ]
        });
        let serial = CommSim::new(cfg, &ts).run();
        let sh = sharded(cfg, &ts, ProbeHandle::disabled(), 4);
        assert_identical(&serial, &sh);
    }

    #[test]
    fn sharded_reports_deadlocks_like_serial() {
        let cfg = NetworkConfig::test(Topology::Ring(4));
        let ts = trace_set(4, |node| match node {
            0 => vec![Operation::Recv { src: 1 }], // nobody sends
            _ => vec![Operation::Compute { ps: 100 }],
        });
        let serial = CommSim::new(cfg, &ts).run();
        let sh = sharded(cfg, &ts, ProbeHandle::disabled(), 2);
        assert_identical(&serial, &sh);
        assert_eq!(sh.deadlocked, vec![0]);
    }

    #[test]
    fn one_shard_falls_back_to_serial() {
        let cfg = NetworkConfig::test(Topology::Ring(4));
        let ts = exchange_traces(4);
        let serial = CommSim::new(cfg, &ts).run();
        let sh = sharded(cfg, &ts, ProbeHandle::disabled(), 1);
        assert_identical(&serial, &sh);
    }

    #[test]
    fn probe_stream_matches_serial_model_events() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);

        let serial_probe = ProbeHandle::new(ProbeStack::new().with_buffer());
        let serial = CommSim::new_with_probe(cfg, &ts, serial_probe.clone()).run();
        let mut serial_events: Vec<SimEvent> = serial_probe
            .take_buffer()
            .unwrap()
            .into_iter()
            .filter(|e| !e.is_engine_internal())
            .collect();
        canonical_sort(&mut serial_events);

        let sharded_probe = ProbeHandle::new(ProbeStack::new().with_buffer());
        let sharded = sharded(cfg, &ts, sharded_probe.clone(), 3);
        let sharded_events = sharded_probe.take_buffer().unwrap();
        // Replay is already canonical; assert bit-identical streams.
        assert_eq!(serial_events, sharded_events);
        assert!(!sharded_events.is_empty());
        assert_identical(&serial, &sharded);
    }

    #[test]
    fn profiled_run_matches_serial_and_accounts_for_every_shard() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);
        let serial = CommSim::new(cfg, &ts).run();
        let (sh, profile) = profiled(cfg, &ts, ProbeHandle::disabled(), 4);
        assert_identical(&serial, &sh);
        let profile = profile.expect("a real sharded run self-profiles");
        assert_eq!(profile.shards.len(), 4);
        for (i, p) in profile.shards.iter().enumerate() {
            assert_eq!(p.shard, i);
            assert!(p.windows > 0, "shard {i} executed no window");
        }
        // Every engine event and every cross-shard message is attributed
        // to exactly one shard.
        assert_eq!(
            profile.shards.iter().map(|p| p.events).sum::<u64>(),
            sh.events
        );
        let sent = profile.total_cross_msgs();
        let recv = profile.shards.iter().map(|p| p.cross_recv).sum::<u64>();
        assert_eq!(sent, recv, "cross-shard channels conserve messages");
        assert!(sent > 0, "a split torus must exchange messages");
        assert!(profile.barrier_share_ppm() <= 1_000_000);
        let table = profile.render();
        assert!(table.contains("ev/window"));
        assert!(table.lines().count() >= 5);
    }

    #[test]
    fn window_histogram_accounts_for_every_window() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);
        let (_, profile) = profiled(cfg, &ts, ProbeHandle::disabled(), 3);
        let profile = profile.expect("a real sharded run self-profiles");
        let hist = profile.window_hist();
        let total: u64 = hist.iter().sum();
        let windows: u64 = profile.shards.iter().map(|p| p.windows).sum();
        assert!(total > 0, "a finite run records window widths");
        // A round records a width only when the shard had work inside its
        // window, so the histogram never exceeds the round count.
        assert!(
            total <= windows,
            "histogram counts executed windows only ({total} vs {windows} rounds)"
        );
        let rendered = profile.render();
        assert!(rendered.contains("window widths (log2):"), "{rendered}");
    }

    /// Three phases of compute, send to the next node, receive from the
    /// previous one.
    fn ring_pattern(n: u32) -> TraceSet {
        trace_set(n, |node| {
            let mut ops = Vec::new();
            for phase in 0..3u64 {
                ops.push(Operation::Compute {
                    ps: 20_000 + 1_000 * phase + 300 * node as u64,
                });
                ops.push(Operation::ASend {
                    bytes: 2048,
                    dst: (node + 1) % n,
                });
                ops.push(Operation::Recv {
                    src: (node + n - 1) % n,
                });
            }
            ops
        })
    }

    /// Two phases of compute, send to every other node, receive from
    /// every other node.
    fn all2all_pattern(n: u32) -> TraceSet {
        trace_set(n, |node| {
            let mut ops = Vec::new();
            for phase in 0..2u64 {
                ops.push(Operation::Compute {
                    ps: 15_000 + 2_000 * phase + 500 * node as u64,
                });
                for d in 1..n {
                    ops.push(Operation::ASend {
                        bytes: 1024,
                        dst: (node + d) % n,
                    });
                }
                for d in 1..n {
                    ops.push(Operation::Recv {
                        src: (node + n - d) % n,
                    });
                }
            }
            ops
        })
    }

    /// One pinned cell: topology, pattern, shard count, then per shard
    /// `[windows, events, cross_sent, cross_recv, flush_batches]`, then
    /// the non-empty `(log2 bucket, count)` pairs of the summed window
    /// histogram.
    type ProtocolGolden = (
        Topology,
        &'static str,
        usize,
        &'static [[u64; 5]],
        &'static [(usize, u64)],
    );

    /// The deterministic half of the shard profile, recorded from the
    /// commit *before* the wide-window protocol of DESIGN.md §17 was
    /// removed (its run-ahead policy switched off). Wherever every block
    /// pair is one hop apart that protocol's per-pair bound was exactly
    /// [`window_end_ps`], so the rounds, batches and window widths must
    /// not have moved.
    #[test]
    fn window_protocol_matches_the_pinned_pre_simplification_profile() {
        let ring = Topology::Ring(16);
        let torus = Topology::Torus2D { w: 4, h: 4 };
        let cube = Topology::Hypercube { dim: 4 };
        #[rustfmt::skip]
        let table: [ProtocolGolden; 12] = [
            (ring, "ring", 2, &[[9, 96, 3, 3, 3], [9, 96, 3, 3, 3]], &[(13, 5), (14, 13)]),
            (ring, "ring", 3, &[[9, 72, 3, 3, 3], [9, 60, 3, 3, 3], [9, 60, 3, 3, 3]], &[(13, 12), (14, 15)]),
            (ring, "all2all", 2, &[[100, 1520, 128, 128, 67], [100, 1520, 128, 128, 64]], &[(13, 59), (14, 141)]),
            (ring, "all2all", 3, &[[100, 1140, 128, 128, 100], [100, 950, 128, 128, 102], [100, 950, 128, 128, 102]], &[(13, 124), (14, 176)]),
            (torus, "ring", 2, &[[13, 102, 3, 3, 3], [13, 102, 3, 3, 3]], &[(10, 1), (13, 7), (14, 15), (15, 2)]),
            (torus, "ring", 3, &[[13, 78, 6, 6, 5], [13, 63, 9, 9, 9], [13, 63, 6, 6, 6]], &[(13, 10), (14, 29)]),
            (torus, "all2all", 2, &[[73, 1008, 128, 128, 40], [73, 1008, 128, 128, 38]], &[(12, 1), (13, 13), (14, 127), (15, 3)]),
            (torus, "all2all", 3, &[[73, 756, 160, 160, 58], [73, 630, 192, 192, 64], [73, 630, 160, 160, 59]], &[(11, 1), (12, 3), (13, 47), (14, 165), (15, 1)]),
            (cube, "ring", 2, &[[18, 117, 3, 3, 3], [18, 117, 3, 3, 3]], &[(11, 2), (12, 1), (13, 4), (14, 25), (15, 3)]),
            (cube, "ring", 3, &[[20, 90, 6, 6, 5], [20, 75, 12, 12, 12], [20, 69, 6, 6, 6]], &[(10, 1), (12, 2), (13, 14), (14, 34), (15, 2)]),
            (cube, "all2all", 2, &[[67, 1008, 128, 128, 37], [67, 1008, 128, 128, 35]], &[(11, 1), (12, 3), (13, 15), (14, 102), (15, 8)]),
            (cube, "all2all", 3, &[[69, 756, 160, 160, 70], [69, 630, 224, 224, 68], [69, 630, 160, 160, 54]], &[(13, 39), (14, 147), (15, 4)]),
        ];
        for (topo, pattern, shards, per_shard, hist) in table {
            let ts = match pattern {
                "ring" => ring_pattern(16),
                _ => all2all_pattern(16),
            };
            let cfg = NetworkConfig::test(topo);
            let serial = CommSim::new(cfg, &ts).run();
            let (sh, profile) = profiled(cfg, &ts, ProbeHandle::disabled(), shards);
            assert_identical(&serial, &sh);
            let profile = profile.expect("a real sharded run self-profiles");
            let got: Vec<[u64; 5]> = profile
                .shards
                .iter()
                .map(|p| {
                    [
                        p.windows,
                        p.events,
                        p.cross_sent,
                        p.cross_recv,
                        p.flush_batches,
                    ]
                })
                .collect();
            assert_eq!(got, per_shard, "{topo:?} {pattern} x{shards}: counters");
            let got_hist: Vec<(usize, u64)> = profile
                .window_hist()
                .into_iter()
                .enumerate()
                .filter(|&(_, c)| c > 0)
                .collect();
            assert_eq!(got_hist, hist, "{topo:?} {pattern} x{shards}: widths");
        }
    }

    #[test]
    fn serial_fallback_yields_no_profile() {
        let cfg = NetworkConfig::test(Topology::Ring(4));
        let ts = exchange_traces(4);
        let (_, profile) = profiled(cfg, &ts, ProbeHandle::disabled(), 1);
        assert!(profile.is_none());
    }

    #[test]
    fn more_shards_than_nodes_still_exact() {
        let cfg = NetworkConfig::test(Topology::Ring(3));
        let ts = exchange_traces(3);
        let serial = CommSim::new(cfg, &ts).run();
        let sh = sharded(cfg, &ts, ProbeHandle::disabled(), 16);
        assert_identical(&serial, &sh);
    }

    /// Run with a collecting checkpoint sink; return the result and every
    /// snapshot file rendered.
    fn run_collecting(
        cfg: NetworkConfig,
        ts: &TraceSet,
        shards: usize,
        every_ps: u64,
        restore_from: Option<Snapshot>,
    ) -> (CommResult, Vec<String>) {
        let files = Mutex::new(Vec::new());
        let write = |snap: &Capture<'_>| {
            files.lock().unwrap().push(snap.to_file_string());
            Ok(())
        };
        let opts = CheckpointOpts {
            every: Duration::from_ps(every_ps),
            config_hash: "00000000deadbeef".into(),
            write: &write,
        };
        let run = RunOptions {
            shards,
            restore_from,
            checkpoint: Some(&opts),
            ..RunOptions::default()
        };
        let (r, _) = run_comm(cfg, ts, run).expect("collecting sink cannot fail");
        (r, files.into_inner().unwrap())
    }

    #[test]
    fn sharded_checkpoint_files_are_byte_identical_to_serial() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);
        let plain = CommSim::new(cfg, &ts).run();
        let (serial, serial_files) = run_collecting(cfg, &ts, 1, 3_000, None);
        let (sharded, sharded_files) = run_collecting(cfg, &ts, 3, 3_000, None);
        assert_identical(&plain, &serial);
        assert_identical(&plain, &sharded);
        assert!(
            !serial_files.is_empty(),
            "the run must cross at least one checkpoint instant"
        );
        assert_eq!(
            serial_files.len(),
            sharded_files.len(),
            "both modes capture the same instants"
        );
        for (a, b) in serial_files.iter().zip(&sharded_files) {
            assert_eq!(a, b, "composed shard capture differs from serial capture");
        }
    }

    #[test]
    fn restore_into_sharded_run_matches_uninterrupted() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);
        let plain = CommSim::new(cfg, &ts).run();
        let (_, files) = run_collecting(cfg, &ts, 3, 3_000, None);
        for file in &files {
            let snap = Snapshot::parse(file).expect("own capture parses");
            // Restore into a sharded run and into a serial one.
            for shards in [3, 1] {
                let run = RunOptions {
                    shards,
                    restore_from: Some(snap.clone()),
                    ..RunOptions::default()
                };
                let (restored, _) = run_comm(cfg, &ts, run).expect("restore succeeds");
                assert_identical(&plain, &restored);
            }
        }
    }

    #[test]
    fn restored_run_resumes_the_checkpoint_cadence() {
        let cfg = NetworkConfig::test(Topology::Ring(8));
        let ts = exchange_traces(8);
        let (_, full_files) = run_collecting(cfg, &ts, 3, 2_000, None);
        assert!(full_files.len() >= 2, "need at least two capture instants");
        let first = Snapshot::parse(&full_files[0]).unwrap();
        let (_, resumed_files) = run_collecting(cfg, &ts, 3, 2_000, Some(first));
        assert_eq!(resumed_files, full_files[1..].to_vec());
    }

    #[test]
    fn failed_checkpoint_write_fails_the_run() {
        let cfg = NetworkConfig::test(Topology::Ring(8));
        let ts = exchange_traces(8);
        let write = |_: &Capture<'_>| {
            Err(SnapshotError::Io {
                verb: "write",
                path: "/nowhere/ckpt.snap".into(),
                detail: "disk full".into(),
            })
        };
        let opts = CheckpointOpts {
            every: Duration::from_ps(2_000),
            config_hash: "00000000deadbeef".into(),
            write: &write,
        };
        for shards in [1, 3] {
            let run = RunOptions {
                shards,
                checkpoint: Some(&opts),
                ..RunOptions::default()
            };
            let err = run_comm(cfg, &ts, run).expect_err("a failing sink must surface");
            assert!(err.to_string().contains("disk full"), "{err}");
        }
    }

    #[test]
    fn sharded_attribution_capture_matches_serial() {
        let cfg = NetworkConfig::test(Topology::Torus2D { w: 4, h: 2 });
        let ts = exchange_traces(8);
        let capture_with = |shards: usize| {
            let files = Mutex::new(Vec::new());
            let write = |snap: &Capture<'_>| {
                files.lock().unwrap().push(snap.to_file_string());
                Ok(())
            };
            let opts = CheckpointOpts {
                every: Duration::from_ps(3_000),
                config_hash: "00000000deadbeef".into(),
                write: &write,
            };
            let probe = ProbeHandle::new(ProbeStack::new().with_attribution());
            let run = RunOptions {
                probe: probe.clone(),
                shards,
                checkpoint: Some(&opts),
                ..RunOptions::default()
            };
            let (r, _) = run_comm(cfg, &ts, run).expect("capture succeeds");
            let json = probe
                .with_stack(|s| {
                    s.attribution
                        .as_ref()
                        .map(|a| a.report(r.finish.as_ps()).to_json())
                })
                .flatten()
                .expect("sink attached");
            (files.into_inner().unwrap(), json)
        };
        let (serial_files, serial_json) = capture_with(1);
        let (sharded_files, sharded_json) = capture_with(3);
        assert_eq!(serial_json, sharded_json);
        assert_eq!(serial_files, sharded_files);
        assert!(serial_files.iter().all(|f| f.contains("\nattr ")));
        // Restoring from a snapshot with attribution reproduces the
        // uninterrupted report.
        let snap = Snapshot::parse(&serial_files[0]).unwrap();
        let probe = ProbeHandle::new(ProbeStack::new().with_attribution());
        let run = RunOptions {
            probe: probe.clone(),
            shards: 3,
            restore_from: Some(snap.clone()),
            ..RunOptions::default()
        };
        let (r, _) = run_comm(cfg, &ts, run).expect("restore succeeds");
        let json = probe
            .with_stack(|s| {
                s.attribution
                    .as_ref()
                    .map(|a| a.report(r.finish.as_ps()).to_json())
            })
            .flatten()
            .unwrap();
        assert_eq!(json, serial_json);
    }

    /// Store-and-forward traffic whose smallest packet is 1 B of payload:
    /// every node sends 1 B, 513 B (a 1 B tail) and 4096 B messages.
    fn mixed_size_traces(n: u32) -> TraceSet {
        trace_set(n, |node| {
            let mut ops = Vec::new();
            for (i, bytes) in [1, 513, 4096].into_iter().enumerate() {
                let d = i as u32 + 1;
                ops.push(Operation::Compute {
                    ps: 1_000_000 + 70_000 * node as u64,
                });
                ops.push(Operation::ASend {
                    bytes,
                    dst: (node + d) % n,
                });
                ops.push(Operation::Recv {
                    src: (node + n - d) % n,
                });
            }
            ops
        })
    }

    #[test]
    fn store_and_forward_windows_from_the_smallest_packet_stay_exact() {
        let cfg = NetworkConfig::t805(Topology::Torus2D { w: 4, h: 2 });
        let ts = mixed_size_traces(8);
        let plain = CommSim::new(cfg, &ts).run();
        for shards in [2, 3] {
            let (sh, profile) = profiled(cfg, &ts, ProbeHandle::disabled(), shards);
            assert_identical(&plain, &sh);
            let la = profile.expect("a real sharded run self-profiles").lookahead;
            assert_eq!(la.basis, crate::LookaheadBasis::SmallestPacket(9));
        }
        // A mid-run snapshot restored on three shards finishes exactly as
        // the straight-through run.
        let every = plain.finish.as_ps() / 3;
        let (_, files) = run_collecting(cfg, &ts, 3, every, None);
        assert!(files.len() >= 2, "need a mid-run capture instant");
        let snap = Snapshot::parse(&files[files.len() / 2]).expect("own capture parses");
        let run = RunOptions {
            shards: 3,
            restore_from: Some(snap.clone()),
            ..RunOptions::default()
        };
        let (restored, _) = run_comm(cfg, &ts, run).expect("restore succeeds");
        assert_identical(&plain, &restored);
    }

    #[test]
    fn attribution_probe_without_snapshot_record_is_refused() {
        let cfg = NetworkConfig::test(Topology::Ring(8));
        let ts = exchange_traces(8);
        let (_, files) = run_collecting(cfg, &ts, 3, 2_000, None);
        let snap = Snapshot::parse(&files[0]).unwrap();
        assert!(snap.attribution.is_none());
        let probe = ProbeHandle::new(ProbeStack::new().with_attribution());
        for shards in [1, 3] {
            let run = RunOptions {
                probe: probe.clone(),
                shards,
                restore_from: Some(snap.clone()),
                ..RunOptions::default()
            };
            let err = run_comm(cfg, &ts, run)
                .expect_err("a silent partial attribution report must be refused");
            assert!(err.to_string().contains("attribution"), "{err}");
        }
    }
}
