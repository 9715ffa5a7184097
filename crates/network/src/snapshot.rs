//! `mermaid-snapshot-v1` — versioned, bit-identical simulation
//! checkpoints (DESIGN.md §16).
//!
//! A snapshot captures the *complete* mutable state of a communication
//! simulation at one virtual instant `T`: the pearl engine clock and
//! per-component key counters, every pending event with its exact
//! [`pearl::EventKey`] (so same-instant delivery order survives the round
//! trip), each router's link/fault/stats state, each abstract processor's
//! protocol state (outstanding retries, reassembly buffers, rendezvous
//! channels, histograms), and — optionally — the attribution sink's
//! accumulated evidence. A run checkpointed at `T` and restored produces
//! **byte-identical** results, stats, probe streams and
//! `attribution.json` versus the uninterrupted run; the conformance
//! suite (`tests/checkpoint_conformance.rs`) enforces exactly that.
//!
//! # Format
//!
//! The file is line-oriented text, integers only (like every other
//! machine-readable artifact of the workbench — byte comparison is
//! meaningful across platforms):
//!
//! ```text
//! mermaid-snapshot-v1 schema=1 config=<16hex> nodes=<n> time=<ps> body=<16hex>
//! engine <events_processed>
//! keys <counter 0> … <counter 2n-1>
//! event <time_ps> <push_ps> <key_src> <key_seq> <src> <dst> <payload ints…>
//! router <node> <state ints…>
//! proc <node> <state ints…>
//! attr <state ints…>
//! end
//! ```
//!
//! * `config` is the campaign-layer FNV-1a-64 hash of the canonical run
//!   description: a checkpoint can only be restored into a simulation
//!   built from the *same* machine/topology/app/pattern/seed/fault
//!   parameters. A mismatch is refused, never silently absorbed.
//! * `body` is the FNV-1a-64 hash of every byte after the header line.
//!   A torn or truncated file (a checkpoint interrupted mid-write) is
//!   detected and reported, never silently restored.
//! * `event` records are sorted by `(time, key)` — the queue's delivery
//!   order — so the file is canonical: capturing the same state twice,
//!   or composing per-shard captures of a sharded run, yields the same
//!   bytes. Ladder geometry (which tier an event happens to sit in) is
//!   deliberately *not* captured; the queue rebuilds it on restore, and
//!   only engine-internal probe events can observe the difference. An
//!   event's `src` is its key's `src`, repeated.
//! * A packet's record holds its fields in their pre-compaction order,
//!   derivable ones included (packet count, payload, routing, wire and
//!   serialisation time; see `Packet::walk`). A restore checks each
//!   against its derivation and refuses the file, naming the field.
//! * Records come in the order above, so the first `event` is line 4.
//! * `end` guards against truncation that happens to preserve the body
//!   hash line count.
//!
//! # Capture path
//!
//! A checkpoint of a serial run is written straight from the event
//! queue: the queue sorts its 32-byte records in place and each event is
//! rendered from its slab slot into the file through an FNV-1a hashing
//! writer; the header's fixed-width `body=` field is patched once the
//! body is done. Nothing is copied but a line at a time. A shard renders
//! its own events into text and the pieces are merged, not re-sorted. An
//! in-memory capture ([`Capture::to_snapshot`]) renders the same bytes,
//! and a parsed [`Snapshot`] keeps its `event` records as text that the
//! restore decodes against the network it rebuilds.
//!
//! # Versioning contract
//!
//! `schema=1` names the meaning of every record above. Any change to a
//! component's integer layout, the event codec, or the header fields is
//! a new schema number; readers refuse unknown schemas with an error
//! naming both versions rather than misinterpreting state. The golden
//! header fixtures under `tests/golden/` pin the v1 surface.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use mermaid_stats::state::{self, StateWalk};
use pearl::{CompId, Duration, Engine, EventKey, Pending, Time};

use crate::fault::FaultKind;
use crate::packet::{MsgId, NetMsg, Packet, PacketKind, PacketParams, PathDecomp, Train};
use crate::world::NetWorld;

/// Magic first token of every snapshot file.
pub const SNAPSHOT_MAGIC: &str = "mermaid-snapshot-v1";

/// Schema version this build writes and reads.
pub const SNAPSHOT_SCHEMA: u64 = 1;

/// The header's `key=value` fields, in the order they are checked.
const HEADER: [&str; 5] = ["schema", "config", "nodes", "time", "body"];

/// The body records in the order a file holds them (`router` and `proc`
/// records repeat, one per node).
const RECORDS: [&str; 7] = ["engine", "keys", "event", "router", "proc", "attr", "end"];

/// Line of a file's first `event` record: after the header, `engine` and
/// `keys`.
const EVENTS_LINE: usize = 4;

/// FNV-1a-64 over `bytes`: the snapshot body hash, and the campaign
/// layer's config hash too (the network crate is the lower of the two).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new(io::sink());
    h.fold(bytes);
    h.hash
}

/// A writer that passes every byte on and keeps their FNV-1a-64 hash.
struct Fnv<W> {
    out: W,
    hash: u64,
}

impl<W: Write> Fnv<W> {
    fn new(out: W) -> Self {
        Fnv {
            out,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl<W: Write> Write for Fnv<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.fold(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Why a snapshot could not be written, parsed or restored. Every
/// variant renders an actionable message naming the offending field —
/// mirroring the CLI's output-file error style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure reading or writing the snapshot.
    Io {
        /// What we were doing ("read" / "write").
        verb: &'static str,
        /// The path involved.
        path: String,
        /// The underlying failure, already formatted.
        detail: String,
    },
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// First token actually found (truncated for display).
        found: String,
    },
    /// The header's `schema=` field names a version this build cannot read.
    SchemaMismatch {
        /// Version found in the file.
        found: u64,
    },
    /// The header's `config=` hash does not match the run being restored.
    ConfigMismatch {
        /// Hash recorded in the snapshot.
        found: String,
        /// Hash of the run attempting the restore.
        expected: String,
    },
    /// The snapshot's node count does not match the configured topology.
    NodesMismatch {
        /// Node count recorded in the snapshot.
        found: u32,
        /// Node count of the configured topology.
        expected: u32,
    },
    /// The body hash does not match the header — torn or truncated file.
    Torn {
        /// Hash recorded in the header.
        expected: String,
        /// Hash of the bytes actually present.
        found: String,
    },
    /// A record failed to decode.
    Parse {
        /// Where in the file or which record ("line 12", "router 3 record").
        context: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { verb, path, detail } => {
                write!(f, "cannot {verb} snapshot {path}: {detail}")
            }
            SnapshotError::BadMagic { found } => write!(
                f,
                "not a mermaid snapshot: file starts with `{found}`, expected `{SNAPSHOT_MAGIC}`"
            ),
            SnapshotError::SchemaMismatch { found } => write!(
                f,
                "snapshot field `schema` is version {found}, this build reads version \
                 {SNAPSHOT_SCHEMA}: re-create the checkpoint with this build"
            ),
            SnapshotError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot field `config` is {found}, this run hashes to {expected}: a \
                 checkpoint binds to the exact run parameters — restore it with the same \
                 machine/topology/app/pattern/seed/fault flags it was captured under"
            ),
            SnapshotError::NodesMismatch { found, expected } => write!(
                f,
                "snapshot field `nodes` is {found}, the configured topology has {expected} \
                 node(s): restore with the topology the checkpoint was captured under"
            ),
            SnapshotError::Torn { expected, found } => write!(
                f,
                "snapshot field `body` is {expected} but the body present hashes to {found}: \
                 the file is torn or truncated (checkpoint interrupted mid-write) — delete it \
                 and restore from an earlier checkpoint or restart the run"
            ),
            SnapshotError::Parse { context, detail } => {
                write!(f, "corrupt snapshot ({context}): {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The picosecond fields of this crate's walks.
pub(crate) trait WalkPs: StateWalk {
    /// Visit an instant as its picosecond count.
    fn time(&mut self, label: &str, t: &mut Time) -> Result<(), String> {
        let mut ps = t.as_ps();
        self.int(label, &mut ps)?;
        *t = Time::from_ps(ps);
        Ok(())
    }

    /// Visit a span as its picosecond count.
    fn span(&mut self, label: &str, d: &mut Duration) -> Result<(), String> {
        let mut ps = d.as_ps();
        self.int(label, &mut ps)?;
        *d = Duration::from_ps(ps);
        Ok(())
    }
}

impl<W: StateWalk> WalkPs for W {}

impl MsgId {
    /// Walk the message id: source, then sequence number.
    pub(crate) fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
        // Copied out and back: the id is packed, so its fields cannot be
        // borrowed.
        let MsgId { mut src, mut seq } = *self;
        w.field("a message source", &mut src)?;
        w.field("a message sequence number", &mut seq)?;
        *self = MsgId { src, seq };
        Ok(())
    }
}

impl PacketKind {
    /// Walk the kind as `(tag, argument)`: two integers for every variant.
    pub(crate) fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
        use PacketKind::*;
        let blanks = [
            Data { sync: false },
            Ack,
            OneWay,
            GetRequest { bytes: 0 },
            GetReply,
        ];
        w.variant("packet kind tag", self, &blanks)?;
        match self {
            Data { sync } => w.field("the data packet's sync flag", sync),
            GetRequest { bytes } => w.field("the get request's size", bytes),
            Ack | OneWay | GetReply => w.pad("the packet kind argument", 1),
        }
    }
}

/// Where a walked packet is seen: the network it crosses and the instant
/// it is observed at (its event's time, or its message's arrival).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Seen {
    pub net: PacketParams,
    pub at: Time,
}

/// The labels of a packet's five path components, in file order.
const PATH: [&str; 5] = [
    "the path's pre-network time",
    "the path's queueing time",
    "the path's routing time",
    "the path's serialisation time",
    "the path's wire time",
];

impl PathDecomp {
    /// Walk the five latency components of a packet sent at `sent_at`,
    /// in their file order: pre, queue, route, ser, wire. Capture derives
    /// route, wire and ser from `seen`; restore rebuilds the stored path
    /// from them and refuses a time that disagrees with its derivation:
    /// route and wire must be whole hops and restarts, and the components
    /// must add up to `at - sent_at`. An ack's `pre` is written as the 0
    /// it always was; its injection delay is what the others leave.
    /// Without `seen` restore checks ranges only.
    pub(crate) fn walk<W: StateWalk>(
        &mut self,
        w: &mut W,
        ack: bool,
        sent_at: Time,
        seen: Option<Seen>,
    ) -> Result<(), String> {
        let mut path = [0; 5];
        if !w.loading() {
            let s = seen.expect("a capture knows the network it walks");
            let pre = if ack { 0 } else { self.pre_ps };
            let ser = self.ser_ps(&s.net, sent_at, s.at);
            path = [
                pre,
                self.queue_ps,
                self.route_ps(&s.net),
                ser,
                self.wire_ps(&s.net),
            ];
        }
        for (label, v) in PATH.iter().zip(&mut path) {
            w.field(label, v)?;
        }
        match seen.filter(|_| w.loading()) {
            Some(s) => self.rebuild(s, ack, sent_at, path),
            None => Ok(()),
        }
    }

    fn rebuild(&mut self, s: Seen, ack: bool, sent_at: Time, path: [u64; 5]) -> Result<(), String> {
        let net = &s.net;
        let [pre, queue, route, ser, wire] = path;
        let hops = whole(wire, net.wire_latency, PATH[4])?;
        let steps = whole(route, net.routing_delay, PATH[2])?;
        // A hop costs one routing decision, a restart another; with no
        // routing delay the restarts cost nothing and are not counted.
        let restarts = match net.routing_delay.is_zero() {
            true => 0,
            false => steps.checked_sub(hops).ok_or_else(|| {
                format!("{} {route} is less than its {hops} hop(s) cost", PATH[2])
            })?,
        };
        let count = |n: u64, what: &str| {
            u32::try_from(n).map_err(|_| format!("{n} {what} do not fit a packet"))
        };
        *self = PathDecomp {
            pre_ps: pre,
            queue_ps: queue,
            hops: count(hops, "hops")?,
            restarts: count(restarts, "routing restarts")?,
        };
        let elapsed = s.at.as_ps().checked_sub(sent_at.as_ps()).ok_or_else(|| {
            format!(
                "the send time {} ps lies after the packet's {} ps",
                sent_at.as_ps(),
                s.at.as_ps()
            )
        })?;
        let left = [queue, route, wire]
            .iter()
            .try_fold(0u64, |a, &b| a.checked_add(b))
            .and_then(|spent| elapsed.checked_sub(spent))
            .ok_or_else(|| format!("the path's components exceed its {elapsed} ps in flight"))?;
        if ack {
            if pre != 0 {
                return Err(format!("{} {pre} of an acknowledgement is not 0", PATH[0]));
            }
            self.pre_ps = left
                .checked_sub(ser)
                .ok_or_else(|| format!("{} {ser} exceeds the {left} ps left", PATH[3]))?;
            return Ok(());
        }
        let want = left
            .checked_sub(pre)
            .ok_or_else(|| format!("{} {pre} exceeds the {left} ps left", PATH[0]))?;
        if ser != want {
            return Err(format!(
                "{} {ser} disagrees with the {want} ps the other components leave",
                PATH[3]
            ));
        }
        Ok(())
    }
}

impl Packet {
    /// Walk one packet: the 17 integers of the v1 layout — message id,
    /// destination, index, count, payload, message size, kind (two), send
    /// time, attempt, corrupted flag and the five path times — derivable
    /// ones included, so the format does not depend on what a packet
    /// stores. Capture writes the derived ones — count, payload and three of the
    /// path times (see [`PathDecomp::walk`]) — from `seen`; restore reads
    /// them and refuses one that disagrees with its derivation, naming
    /// the field. Without `seen` (a parse, which knows no network)
    /// restore checks ranges only.
    pub(crate) fn walk<W: StateWalk>(
        &mut self,
        w: &mut W,
        seen: Option<Seen>,
    ) -> Result<(), String> {
        let (mut count, mut payload) = (0, 0);
        if !w.loading() {
            let s = seen.expect("a capture knows the network it walks");
            count = self.count(s.net.payload_max);
            payload = self.payload(s.net.payload_max);
        }
        self.msg.walk(w)?;
        w.field("the packet destination", &mut self.dst)?;
        w.field("the packet index", &mut self.index)?;
        w.field("the packet count", &mut count)?;
        w.field("the packet payload", &mut payload)?;
        w.field("the message size", &mut self.msg_bytes)?;
        self.kind.walk(w)?;
        w.time("the packet's send time", &mut self.sent_at)?;
        w.field("the packet attempt", &mut self.attempt)?;
        w.field("the packet's corrupted flag", &mut self.corrupted)?;
        if let Some(s) = seen.filter(|_| w.loading()) {
            let want = self.count(s.net.payload_max);
            if count != want {
                return Err(format!(
                    "the packet count {count} disagrees with the {want} its message size derives"
                ));
            }
            if self.index >= count {
                return Err(format!(
                    "the packet index {} is not below the packet count {count}",
                    self.index
                ));
            }
            let want = self.payload(s.net.payload_max);
            if payload != want {
                return Err(format!(
                    "the packet payload {payload} disagrees with the {want} its index derives"
                ));
            }
        }
        let ack = self.kind == PacketKind::Ack;
        self.path.walk(w, ack, self.sent_at, seen)
    }
}

/// How many `unit`s make up `total`, refusing a remainder (`label` names
/// the field). A zero unit makes every total but 0 a remainder.
fn whole(total: u64, unit: Duration, label: &str) -> Result<u64, String> {
    let unit = unit.as_ps();
    match (total, unit) {
        (_, 0) if total == 0 => Ok(0),
        (_, 0) => Err(format!(
            "{label} {total} is not 0, and the network charges 0"
        )),
        _ if total.is_multiple_of(unit) => Ok(total / unit),
        _ => Err(format!(
            "{label} {total} is not a whole number of {unit} ps"
        )),
    }
}

impl FaultKind {
    /// Walk the fault as a tag and two node ids: three integers for every
    /// variant.
    pub(crate) fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
        use FaultKind::*;
        let blanks = [
            LinkDown { from: 0, to: 0 },
            LinkUp { from: 0, to: 0 },
            RouterDown { node: 0 },
            RouterUp { node: 0 },
        ];
        w.variant("fault kind tag", self, &blanks)?;
        match self {
            LinkDown { from, to } | LinkUp { from, to } => {
                w.field("the faulty link's source", from)?;
                w.field("the faulty link's destination", to)
            }
            RouterDown { node } | RouterUp { node } => {
                w.field("the faulty router", node)?;
                w.pad("the fault's unused slot", 1)
            }
        }
    }
}

impl NetMsg {
    /// Walk one event payload: its variant tag, then the variant's fields
    /// (a packet's as [`Packet::walk`] with `seen`).
    pub(crate) fn walk<W: StateWalk>(
        &mut self,
        w: &mut W,
        seen: Option<Seen>,
    ) -> Result<(), String> {
        use NetMsg::*;
        let (p, t) = (Packet::default(), Train::default());
        let blanks = [
            Resume,
            Inject(p),
            InjectTrain(t),
            Forward(p),
            ForwardTrain(t),
            Deliver(p),
            DeliverTrain(t),
            Fault(FaultKind::RouterUp { node: 0 }),
            RetryCheck(MsgId::default()),
            RecvDeadline { epoch: 0 },
        ];
        w.variant("event payload tag", self, &blanks)?;
        match self {
            Resume => Ok(()),
            Inject(p) | Forward(p) | Deliver(p) => p.walk(w, seen),
            InjectTrain(t) | ForwardTrain(t) | DeliverTrain(t) => {
                t.first.walk(w, seen)?;
                w.field("the train length", &mut t.len)
            }
            Fault(k) => k.walk(w),
            RetryCheck(id) => id.walk(w),
            RecvDeadline { epoch } => w.field("the receive-deadline epoch", epoch),
        }
    }
}

/// One pending event: delivery time, key, destination and payload.
type PendingEvent = (Time, EventKey, CompId, NetMsg);

/// Walk one pending event: `time push_ps key_src key_seq src dst`, then
/// its payload. `src`, the scheduling component, is the key's source
/// repeated; restore refuses a record where they differ.
fn walk_event<W: StateWalk>(
    w: &mut W,
    ev: &mut PendingEvent,
    net: Option<PacketParams>,
) -> Result<(), String> {
    let (time, key, dst, msg) = ev;
    w.time("the event time", time)?;
    w.field("the event key's push time", &mut key.push_ps)?;
    w.field("the event key's source", &mut key.src)?;
    w.field("the event key's sequence number", &mut key.seq)?;
    let mut src = key.src;
    w.field("the event source", &mut src)?;
    if src != key.src {
        return Err(format!(
            "event source {src} is not its key's source {}",
            key.src
        ));
    }
    w.field("the event destination", dst)?;
    msg.walk(w, net.map(|net| Seen { net, at: *time }))
}

/// Decode one `event` record's integers, refusing an event a restore
/// could not place: one before the snapshot instant `at`, addressed
/// outside the `2 × nodes` components, or carrying a payload its
/// destination does not take. With `net` the payload's derived fields are
/// checked too.
fn decode_event(
    ints: &[u64],
    at: Time,
    nodes: u32,
    net: Option<PacketParams>,
) -> Result<PendingEvent, String> {
    let mut ev = (Time::ZERO, EventKey::default(), 0, NetMsg::Resume);
    state::load(ints, "the event payload", |w| walk_event(w, &mut ev, net))?;
    if ev.0 < at {
        return Err(format!(
            "an event at {} ps precedes the snapshot instant {} ps",
            ev.0.as_ps(),
            at.as_ps()
        ));
    }
    let components = 2 * nodes as usize;
    for (end, comp) in [("source", ev.1.src as usize), ("destination", ev.2)] {
        if comp >= components {
            return Err(format!(
                "event {end} component {comp} is outside the 2×nodes = {components} component(s)"
            ));
        }
    }
    // Router `i` is component `i`, its processor `nodes + i`.
    let to_router = ev.2 < nodes as usize;
    let for_router = matches!(
        ev.3,
        NetMsg::Inject(_)
            | NetMsg::InjectTrain(_)
            | NetMsg::Forward(_)
            | NetMsg::ForwardTrain(_)
            | NetMsg::Fault(_)
    );
    if to_router != for_router {
        let (tag, dst) = (ints[6], ev.2);
        let kind = if to_router { "a router" } else { "a processor" };
        return Err(format!(
            "an event with payload tag {tag} cannot go to component {dst}, {kind}"
        ));
    }
    Ok(ev)
}

/// A record line's integers: everything after its tag.
fn record_ints(line: &str, ints: &mut Vec<u64>) -> Result<(), String> {
    ints.clear();
    let mut toks = line.split_ascii_whitespace();
    let tag = toks.next().unwrap_or_default();
    for t in toks {
        let v = t
            .parse()
            .map_err(|_| format!("`{t}` in a `{tag}` record is not an integer"))?;
        ints.push(v);
    }
    Ok(())
}

/// Append `v` in decimal to `buf`.
fn push_int(buf: &mut Vec<u8>, v: u64) {
    if v >= 10 {
        push_int(buf, v / 10);
    }
    buf.push(b'0' + (v % 10) as u8);
}

/// Append one record line: `tag`, then ` <int>` per integer, then `\n`.
fn push_record(buf: &mut Vec<u8>, tag: &str, ints: &[u64]) {
    buf.extend_from_slice(tag.as_bytes());
    for &i in ints {
        buf.push(b' ');
        push_int(buf, i);
    }
    buf.push(b'\n');
}

/// The complete captured state of one simulation at instant `time`.
///
/// Invariants a valid snapshot upholds (asserted at capture, verified on
/// restore): every pending event's time is `>= time`, `key_counters` has
/// `2 * nodes` entries, and the `routers`/`procs` slabs hold one record
/// per node. Per-shard captures of a sharded run compose (see
/// [`Snapshot::compose`]) into the *same* snapshot a serial capture at
/// the same instant produces — the file is mode-independent.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Campaign-layer config hash of the run (16 lowercase hex digits).
    pub config_hash: String,
    /// Node count of the simulated machine.
    pub nodes: u32,
    /// The checkpoint instant: every event strictly before `time` has
    /// been processed, every pending event is at or after it.
    pub time: Time,
    /// Engine deliveries performed before `time`.
    pub events_processed: u64,
    /// Per-component event-key counters (`2 * nodes` entries).
    pub key_counters: Vec<u64>,
    /// The pending events as the file holds them: one `event` record per
    /// line, sorted by `(time, key)`. A restore decodes them against the
    /// network it rebuilds, which their derived fields must agree with.
    pub events: String,
    /// Per-node router state, node order.
    pub routers: Vec<Vec<u64>>,
    /// Per-node processor state, node order.
    pub procs: Vec<Vec<u64>>,
    /// Attribution-sink state, when the run carries an attribution probe.
    pub attribution: Option<Vec<u64>>,
}

/// Pending events still in an engine's queue, and the network their
/// packets cross.
#[derive(Clone, Copy)]
struct Live<'a> {
    pending: Pending<'a, NetMsg>,
    net: PacketParams,
}

/// A snapshot on its way to a checkpoint sink ([`crate::CheckpointOpts`]).
/// Its pending events are still in the engine's queue, written straight
/// from there, or — for a sharded run, whose shards render their own
/// events — already rendered.
pub struct Capture<'a> {
    snap: &'a Snapshot,
    live: Option<Live<'a>>,
}

impl<'a> Capture<'a> {
    /// A capture of an already-rendered snapshot.
    pub(crate) fn of(snap: &'a Snapshot) -> Self {
        Capture { snap, live: None }
    }

    /// The checkpoint instant.
    pub fn time(&self) -> Time {
        self.snap.time
    }

    /// Write the snapshot file atomically (see [`Snapshot::write_file`]).
    pub fn write_file(&self, path: &Path) -> Result<(), SnapshotError> {
        write_file(self.snap, self.live, path)
    }

    /// Render the snapshot file (header, body, `end` marker).
    pub fn to_file_string(&self) -> String {
        render(self.snap, self.live)
    }

    /// The snapshot, its events rendered into memory: the bytes
    /// [`Capture::write_file`] writes.
    pub fn to_snapshot(&self) -> Snapshot {
        // A live capture's state holds no rendered events.
        let mut snap = self.snap.clone();
        if let Some(live) = self.live {
            let mut text = Vec::new();
            write_events(live, &mut text).expect("writing to memory cannot fail");
            snap.events = String::from_utf8(text).expect("snapshot records are ASCII");
        }
        snap
    }
}

/// Render every live event as its `event` record into `out`.
fn write_events(live: Live<'_>, out: &mut impl Write) -> io::Result<()> {
    let (mut ints, mut line) = (Vec::new(), Vec::new());
    for (time, key, dst, &msg) in live.pending.iter() {
        ints.clear();
        line.clear();
        let mut ev = (time, key, dst, msg);
        state::save_into(&mut ints, |w| walk_event(w, &mut ev, Some(live.net)));
        push_record(&mut line, "event", &ints);
        out.write_all(&line)?;
    }
    Ok(())
}

/// The header line with `body` as the body hash. The hash is always the
/// last 16 characters before the newline.
fn header(snap: &Snapshot, body: u64) -> String {
    format!(
        "{SNAPSHOT_MAGIC} schema={SNAPSHOT_SCHEMA} config={} nodes={} time={} body={body:016x}\n",
        snap.config_hash,
        snap.nodes,
        snap.time.as_ps(),
    )
}

/// Write the body — every record after the header — into `out`: the
/// events from `live` when given, from `snap.events` otherwise.
fn write_body(snap: &Snapshot, live: Option<Live<'_>>, out: &mut impl Write) -> io::Result<()> {
    let mut buf = Vec::new();
    push_record(&mut buf, "engine", &[snap.events_processed]);
    push_record(&mut buf, "keys", &snap.key_counters);
    out.write_all(&buf)?;
    match live {
        Some(live) => write_events(live, out)?,
        None => out.write_all(snap.events.as_bytes())?,
    }
    // A record at a time, so the buffer never holds more than one.
    let mut put = |tag: &str, ints: &[u64]| {
        buf.clear();
        push_record(&mut buf, tag, ints);
        out.write_all(&buf)
    };
    for (label, slab) in [("router", &snap.routers), ("proc", &snap.procs)] {
        for (node, record) in slab.iter().enumerate() {
            put(&format!("{label} {node}"), record)?;
        }
    }
    if let Some(attr) = &snap.attribution {
        put("attr", attr)?;
    }
    out.write_all(b"end\n")
}

/// Write the file into `out`: the header with a zero body hash, the body
/// hashed on its way out, then the hash patched into the header's
/// fixed-width `body=` field.
fn emit<W: Write + Seek>(snap: &Snapshot, live: Option<Live<'_>>, mut out: W) -> io::Result<W> {
    let head = header(snap, 0);
    out.write_all(head.as_bytes())?;
    let mut body = Fnv::new(&mut out);
    write_body(snap, live, &mut body)?;
    let hash = body.hash;
    out.seek(SeekFrom::Start((head.len() - 17) as u64))?;
    out.write_all(format!("{hash:016x}").as_bytes())?;
    Ok(out)
}

/// The file as one string.
fn render(snap: &Snapshot, live: Option<Live<'_>>) -> String {
    let out = emit(snap, live, io::Cursor::new(Vec::new()));
    let text = out.expect("writing to memory cannot fail").into_inner();
    String::from_utf8(text).expect("snapshot files are ASCII")
}

/// Write the file atomically: render to a sibling temp file, then rename
/// over `path`. A reader can therefore never observe a half-written
/// snapshot under the final name; an interrupted write leaves at most a
/// stale `.tmp` file behind.
fn write_file(snap: &Snapshot, live: Option<Live<'_>>, path: &Path) -> Result<(), SnapshotError> {
    let io = |detail: String| SnapshotError::Io {
        verb: "write",
        path: path.display().to_string(),
        detail,
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() && !dir.is_dir() {
            return Err(io(format!(
                "checkpoint directory `{}` does not exist (create it first)",
                dir.display()
            )));
        }
    }
    let tmp = path.with_extension("tmp");
    File::create(&tmp)
        .and_then(|file| emit(snap, live, BufWriter::new(file))?.flush())
        .map_err(|e| io(e.to_string()))?;
    std::fs::rename(&tmp, path).map_err(|e| io(e.to_string()))
}

impl Snapshot {
    /// Render the snapshot file (header, body, `end` marker).
    pub fn to_file_string(&self) -> String {
        render(self, None)
    }

    /// Parse a snapshot file, verifying magic, schema, body hash, record
    /// order and each event's placement. Config and node-count checks,
    /// and the check of a packet's derived fields against the network,
    /// happen at restore time, when the expected values are known.
    pub fn parse(text: &str) -> Result<Snapshot, SnapshotError> {
        let (header, body) = text
            .split_once('\n')
            .ok_or_else(|| SnapshotError::BadMagic {
                found: preview(text),
            })?;
        let mut fields = header.split_ascii_whitespace();
        if fields.next() != Some(SNAPSHOT_MAGIC) {
            return Err(SnapshotError::BadMagic {
                found: preview(header),
            });
        }
        let bad = |detail: String| SnapshotError::Parse {
            context: "header".into(),
            detail,
        };
        let mut values = [None; HEADER.len()];
        for f in fields {
            let (k, v) = f
                .split_once('=')
                .ok_or_else(|| bad(format!("field `{f}` is not key=value")))?;
            let i = HEADER
                .iter()
                .position(|&h| h == k)
                .ok_or_else(|| bad(format!("unknown header field `{k}`")))?;
            values[i] = Some(v);
        }
        let field = |name: &str| {
            let i = HEADER.iter().position(|&h| h == name).expect("in HEADER");
            values[i].ok_or_else(|| bad(format!("field `{name}` is missing")))
        };
        let int = |name: &str, max: u64| {
            let v = field(name)?;
            v.parse::<u64>()
                .ok()
                .filter(|&n| n <= max)
                .ok_or_else(|| bad(format!("field `{name}` value `{v}` is not an integer")))
        };
        let schema = int("schema", u64::MAX)?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(SnapshotError::SchemaMismatch { found: schema });
        }
        let config_hash = field("config")?.to_string();
        let nodes = int("nodes", u32::MAX.into())? as u32;
        let time = Time::from_ps(int("time", u64::MAX)?);
        let expected_body = field("body")?.to_string();
        let actual_body = format!("{:016x}", fnv1a64(body.as_bytes()));
        if actual_body != expected_body {
            return Err(SnapshotError::Torn {
                expected: expected_body,
                found: actual_body,
            });
        }

        let mut snap = Snapshot {
            config_hash,
            nodes,
            time,
            events_processed: 0,
            key_counters: Vec::new(),
            events: String::new(),
            routers: vec![Vec::new(); nodes as usize],
            procs: vec![Vec::new(); nodes as usize],
            attribution: None,
        };
        let mut seen_engine = false;
        let mut last: Option<usize> = None;
        let mut ints = Vec::new();
        for (i, line) in body.lines().enumerate() {
            let perr = |detail: String| SnapshotError::Parse {
                context: format!("line {}", i + 2),
                detail,
            };
            let tag = line
                .split_ascii_whitespace()
                .next()
                .ok_or_else(|| perr("empty record".into()))?;
            let here = RECORDS
                .iter()
                .position(|&r| r == tag)
                .ok_or_else(|| perr(format!("unknown record tag `{tag}`")))?;
            // In the writer's order; only per-event and per-node records
            // repeat.
            match last {
                Some(end) if end == RECORDS.len() - 1 => {
                    return Err(perr("record after the `end` marker".into()));
                }
                Some(prev)
                    if here < prev
                        || (here == prev && !matches!(tag, "event" | "router" | "proc")) =>
                {
                    return Err(perr(format!(
                        "a `{tag}` record after a `{}` record",
                        RECORDS[prev]
                    )));
                }
                _ => last = Some(here),
            }
            record_ints(line, &mut ints).map_err(perr)?;
            match tag {
                "end" => {}
                "engine" => {
                    if ints.len() != 1 {
                        return Err(perr("an `engine` record holds exactly one integer".into()));
                    }
                    snap.events_processed = ints[0];
                    seen_engine = true;
                }
                "keys" => {
                    if ints.len() != 2 * nodes as usize {
                        return Err(perr(format!(
                            "a `keys` record holds 2×nodes = {} counters, found {}",
                            2 * nodes,
                            ints.len()
                        )));
                    }
                    snap.key_counters = ints.clone();
                }
                "event" => {
                    // Refused here, before any engine or shard sees them:
                    // a restore could not place them.
                    decode_event(&ints, time, nodes, None).map_err(perr)?;
                    snap.events.push_str(line);
                    snap.events.push('\n');
                }
                "router" | "proc" => {
                    let node = *ints
                        .first()
                        .ok_or_else(|| perr(format!("a `{tag}` record needs a node id")))?
                        as usize;
                    if node >= nodes as usize {
                        return Err(perr(format!(
                            "`{tag}` record for node {node}, but the snapshot has {nodes} node(s)"
                        )));
                    }
                    let slot = if tag == "router" {
                        &mut snap.routers[node]
                    } else {
                        &mut snap.procs[node]
                    };
                    if !slot.is_empty() {
                        return Err(perr(format!("duplicate `{tag}` record for node {node}")));
                    }
                    *slot = ints[1..].to_vec();
                    if slot.is_empty() {
                        return Err(perr(format!("empty `{tag}` record for node {node}")));
                    }
                }
                _ => {
                    if snap.attribution.is_some() {
                        return Err(perr("duplicate `attr` record".into()));
                    }
                    snap.attribution = Some(ints.clone());
                }
            }
        }
        if last != Some(RECORDS.len() - 1) {
            return Err(SnapshotError::Parse {
                context: "end of file".into(),
                detail: "missing `end` marker — the file is truncated".into(),
            });
        }
        let missing = |detail: String| SnapshotError::Parse {
            context: "body".into(),
            detail,
        };
        if !seen_engine {
            return Err(missing("missing `engine` record".into()));
        }
        if snap.key_counters.len() != 2 * nodes as usize {
            return Err(missing("missing `keys` record".into()));
        }
        for node in 0..nodes as usize {
            for (tag, slab) in [("router", &snap.routers), ("proc", &snap.procs)] {
                if slab[node].is_empty() {
                    return Err(missing(format!("missing `{tag}` record for node {node}")));
                }
            }
        }
        Ok(snap)
    }

    /// Write the snapshot atomically: render to a sibling temp file, then
    /// rename over `path`. A reader can therefore never observe a
    /// half-written snapshot under the final name; an interrupted write
    /// leaves at most a stale `.tmp` file behind.
    pub fn write_file(&self, path: &Path) -> Result<(), SnapshotError> {
        write_file(self, None, path)
    }

    /// Read and parse a snapshot file.
    pub fn read_file(path: &Path) -> Result<Snapshot, SnapshotError> {
        let text = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io {
            verb: "read",
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Snapshot::parse(&text)
    }

    /// Refuse a config-hash mismatch with an error naming both hashes.
    pub fn verify_config(&self, expected: &str) -> Result<(), SnapshotError> {
        if self.config_hash == expected {
            Ok(())
        } else {
            Err(SnapshotError::ConfigMismatch {
                found: self.config_hash.clone(),
                expected: expected.to_string(),
            })
        }
    }

    /// Compose per-shard captures (contiguous node slices, DESIGN.md §15)
    /// into the full snapshot a serial capture at the same instant would
    /// produce. Each piece holds records only for the nodes its shard
    /// owns, and its key counters are authoritative for exactly those
    /// nodes (only the owning shard ever allocates keys for them); each
    /// piece's pending events are in `(time, key)` order already, so they
    /// are merged into that order, and delivery counts are summed.
    pub fn compose(pieces: Vec<Snapshot>) -> Snapshot {
        let mut pieces = pieces.into_iter();
        let mut snap = pieces.next().expect("composing zero shard pieces");
        let n = snap.nodes as usize;
        let mut events = vec![std::mem::take(&mut snap.events)];
        for p in pieces {
            assert_eq!(p.nodes, snap.nodes, "shard pieces disagree on node count");
            assert_eq!(p.time, snap.time, "shard pieces disagree on the instant");
            snap.events_processed += p.events_processed;
            events.push(p.events);
            for (node, (router, proc)) in p.routers.into_iter().zip(p.procs).enumerate() {
                if router.is_empty() {
                    continue; // another shard's node
                }
                snap.key_counters[node] = p.key_counters[node];
                snap.key_counters[n + node] = p.key_counters[n + node];
                snap.routers[node] = router;
                snap.procs[node] = proc;
            }
        }
        snap.events = merge_events(&events);
        snap
    }
}

/// The `event` lines of `texts`, each already in `(time, key)` order,
/// merged into that order. A record's order is its first four integers:
/// `time push_ps key_src key_seq`.
fn merge_events(texts: &[String]) -> String {
    let order = |line: &str| -> [u64; 4] {
        let mut ints = line
            .split(' ')
            .skip(1)
            .map(|t| t.parse().expect("a rendered record"));
        [(); 4].map(|_| ints.next().expect("a rendered event record"))
    };
    let mut heads: Vec<_> = texts.iter().map(|t| t.lines().peekable()).collect();
    let mut out = String::with_capacity(texts.iter().map(String::len).sum());
    while let Some((_, i)) = heads
        .iter_mut()
        .enumerate()
        .filter_map(|(i, h)| h.peek().map(|line| (order(line), i)))
        .min()
    {
        out.push_str(heads[i].next().expect("peeked"));
        out.push('\n');
    }
    out
}

fn preview(s: &str) -> String {
    let head: String = s.chars().take(32).collect();
    head.split_whitespace().next().unwrap_or("").to_string()
}

/// Capture one engine's piece of a snapshot at instant `at` and hand it
/// to `sink`, its pending events still in the queue: the whole machine in
/// a serial run; in a shard, the owned node range, with empty records for
/// the nodes other shards own (see [`Snapshot::compose`]). Every event
/// strictly before `at` must have been processed and every pending event
/// must be at or after it — asserted, because a capture violating that
/// could never restore bit-identically.
pub(crate) fn capture<R>(
    engine: &mut Engine<NetMsg, NetWorld>,
    net: PacketParams,
    config_hash: &str,
    at: Time,
    attribution: Option<Vec<u64>>,
    sink: impl FnOnce(&Capture<'_>) -> R,
) -> R {
    assert!(
        engine.now() <= at,
        "capture instant {at} lies before the engine clock {}",
        engine.now()
    );
    // The component id space is always `2 * nodes`, whole or shard.
    let n = engine.component_count() / 2;
    let mut snap = Snapshot {
        config_hash: config_hash.to_string(),
        nodes: n as u32,
        time: at,
        events_processed: engine.events_processed(),
        key_counters: engine.key_counters().to_vec(),
        events: String::new(),
        routers: vec![Vec::new(); n],
        procs: vec![Vec::new(); n],
        attribution,
    };
    let world = engine.world_mut();
    for node in world.nodes() {
        snap.routers[node as usize] = state::save(|w| world.router_mut(node).walk(w));
        snap.procs[node as usize] = state::save(|w| world.proc_mut(node).walk(w));
    }
    engine.with_pending(|pending| {
        if let Some((t, ..)) = pending.iter().next() {
            assert!(
                t >= at,
                "pending event at {t} predates the capture instant {at}"
            );
        }
        sink(&Capture {
            snap: &snap,
            live: Some(Live { pending, net }),
        })
    })
}

/// Overlay a snapshot onto a freshly built engine: replace the queue,
/// clock and key counters wholesale (keeping only events addressed to
/// components this engine's world owns) and restore the owned router and
/// processor slabs. `events_base` is this engine's share of the
/// snapshot's delivery count — the full count serially; in a sharded
/// restore shard 0 carries it and the merge sums the rest.
///
/// Every event is decoded and checked against `net` and `faulty` (whether
/// the run has a fault schedule), owned or not, so each shard of a sharded
/// restore refuses a bad file with the error the serial restore reports.
pub(crate) fn restore_engine(
    engine: &mut Engine<NetMsg, NetWorld>,
    net: PacketParams,
    faulty: bool,
    snap: &Snapshot,
    events_base: u64,
) -> Result<(), SnapshotError> {
    let nodes = engine.world().nodes();
    engine.restore(snap.time, events_base, snap.key_counters.clone());
    let mut ints = Vec::new();
    for (i, line) in snap.events.lines().enumerate() {
        let fail = |detail| SnapshotError::Parse {
            context: format!("line {}", EVENTS_LINE + i),
            detail,
        };
        record_ints(line, &mut ints).map_err(fail)?;
        let (t, key, dst, msg) =
            decode_event(&ints, snap.time, snap.nodes, Some(net)).map_err(fail)?;
        if !faulty && matches!(msg, NetMsg::RetryCheck(_) | NetMsg::RecvDeadline { .. }) {
            return Err(fail(
                "a retry check or receive deadline in a run without faults".into(),
            ));
        }
        // Router `i` is component `i`, its processor `nodes + i`.
        if nodes.contains(&(dst as u32 % snap.nodes)) {
            engine.post_keyed(t, key, dst, msg);
        }
    }
    let world = engine.world_mut();
    for node in nodes {
        let fail = |what: &str, detail| SnapshotError::Parse {
            context: format!("{what} {node} record"),
            detail,
        };
        let i = node as usize;
        let router = world.router_mut(node);
        state::load(&snap.routers[i], "the router state", |w| router.walk(w))
            .map_err(|d| fail("router", d))?;
        let proc = world.proc_mut(node);
        state::load(&snap.procs[i], "the processor state", |w| proc.walk(w))
            .map_err(|d| fail("proc", d))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A data packet and a receive deadline pending on two nodes. Parse
    /// knows no network, so the packet's derived fields are free here.
    fn tiny_snapshot() -> Snapshot {
        Snapshot {
            config_hash: "0123456789abcdef".into(),
            nodes: 2,
            time: Time::from_ps(1_000),
            events_processed: 42,
            key_counters: vec![1, 2, 3, 4],
            events: "event 1000 900 0 7 0 1 3 0 3 1 0 2 1024 1500 0 1 500 1 0 1 2 3 4 5\n\
                     event 2000 950 2 0 2 3 9 9\n"
                .into(),
            routers: vec![vec![10, 11], vec![12]],
            procs: vec![vec![20], vec![21, 22, 23]],
            attribution: Some(vec![5, 6, 7]),
        }
    }

    /// `line` with its `i`-th integer (0-based, after the tag) set to `v`.
    fn with_int(line: &str, i: usize, v: u64) -> String {
        let mut f: Vec<String> = line.split(' ').map(String::from).collect();
        f[i + 1] = v.to_string();
        f.join(" ")
    }

    /// `snap` with its `n`-th event record replaced by `edit` of it.
    fn edit_event(snap: &mut Snapshot, n: usize, edit: impl Fn(&str) -> String) {
        let lines: Vec<String> = snap
            .events
            .lines()
            .enumerate()
            .map(|(i, l)| if i == n { edit(l) } else { l.to_string() })
            .collect();
        snap.events = lines.iter().map(|l| format!("{l}\n")).collect();
    }

    #[test]
    fn round_trips_bit_identically() {
        let snap = tiny_snapshot();
        let text = snap.to_file_string();
        let back = Snapshot::parse(&text).expect("parses");
        assert_eq!(
            back.to_file_string(),
            text,
            "canonical form is a fixed point"
        );
        assert_eq!(back.config_hash, snap.config_hash);
        assert_eq!(back.events_processed, 42);
        assert_eq!(back.key_counters, vec![1, 2, 3, 4]);
        assert_eq!(back.events, snap.events);
        assert_eq!(back.routers, snap.routers);
        assert_eq!(back.procs, snap.procs);
        assert_eq!(back.attribution, Some(vec![5, 6, 7]));
    }

    #[test]
    fn torn_file_is_detected() {
        let text = tiny_snapshot().to_file_string();
        // Truncate mid-body: body hash no longer matches.
        let cut = text.len() - 20;
        match Snapshot::parse(&text[..cut]) {
            Err(SnapshotError::Torn { .. }) => {}
            other => panic!("expected Torn, got {other:?}"),
        }
        // Flip one digit inside the body: also torn.
        let corrupted = text.replacen("engine 42", "engine 43", 1);
        match Snapshot::parse(&corrupted) {
            Err(SnapshotError::Torn { .. }) => {}
            other => panic!("expected Torn, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_and_schema_are_named() {
        match Snapshot::parse("not-a-snapshot at all\nend\n") {
            Err(SnapshotError::BadMagic { found }) => assert_eq!(found, "not-a-snapshot"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let text = tiny_snapshot().to_file_string();
        let v2 = text.replacen("schema=1", "schema=2", 1);
        match Snapshot::parse(&v2) {
            Err(SnapshotError::SchemaMismatch { found: 2 }) => {}
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        let e = SnapshotError::SchemaMismatch { found: 2 }.to_string();
        assert!(e.contains("`schema`"), "{e}");
    }

    #[test]
    fn config_mismatch_names_both_hashes() {
        let snap = tiny_snapshot();
        snap.verify_config("0123456789abcdef")
            .expect("matching hash");
        let err = snap.verify_config("ffffffffffffffff").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("0123456789abcdef"), "{msg}");
        assert!(msg.contains("ffffffffffffffff"), "{msg}");
        assert!(msg.contains("`config`"), "{msg}");
    }

    #[test]
    fn missing_end_marker_is_truncation() {
        let text = tiny_snapshot().to_file_string();
        let no_end = text.replacen("end\n", "", 1);
        // The body hash catches it first (different bytes)…
        assert!(Snapshot::parse(&no_end).is_err());
        // …and even with a recomputed hash the marker is required.
        let body = "engine 1\nkeys 0 0 0 0\nrouter 0 1\nrouter 1 1\nproc 0 1\nproc 1 1\n";
        let header = format!(
            "{SNAPSHOT_MAGIC} schema=1 config=x nodes=2 time=5 body={:016x}",
            fnv1a64(body.as_bytes())
        );
        match Snapshot::parse(&format!("{header}\n{body}")) {
            Err(SnapshotError::Parse { detail, .. }) => {
                assert!(detail.contains("`end`"), "{detail}")
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn compose_matches_a_whole_capture() {
        let whole = tiny_snapshot();
        let events: Vec<&str> = whole.events.lines().collect();
        // Each piece holds one node's records; its counters for the other
        // node are not authoritative, so they are set to junk here.
        let piece = |owned: usize, processed, counters, ev: &str| {
            let mut p = whole.clone();
            p.events_processed = processed;
            p.key_counters = counters;
            p.events = format!("{ev}\n");
            p.routers[1 - owned].clear();
            p.procs[1 - owned].clear();
            p.attribution = None;
            p
        };
        // The later event in the first piece: compose merges by order.
        let pieces = vec![
            piece(0, 30, vec![1, 9, 3, 9], events[1]),
            piece(1, 12, vec![9, 2, 9, 4], events[0]),
        ];
        let mut composed = Snapshot::compose(pieces);
        composed.attribution = whole.attribution.clone();
        assert_eq!(composed.to_file_string(), whole.to_file_string());
    }

    #[test]
    fn events_a_restore_cannot_place_are_refused_at_parse() {
        let tampers: [(usize, usize, u64, &str); 5] = [
            (0, 0, 999, "precedes the snapshot instant"),
            (0, 5, 4, "destination component 4"),
            (1, 4, 99, "event source 99 is not its key's source 2"),
            (1, 2, 99, "event source 2 is not its key's source 99"),
            (1, 6, 10, "unknown event payload tag 10"),
        ];
        for (n, i, v, want) in tampers {
            let mut snap = tiny_snapshot();
            edit_event(&mut snap, n, |l| with_int(l, i, v));
            match Snapshot::parse(&snap.to_file_string()) {
                Err(SnapshotError::Parse { context, detail }) => {
                    assert_eq!(context, format!("line {}", EVENTS_LINE + n));
                    assert!(detail.contains(want), "{detail}");
                }
                other => panic!("expected Parse naming `{want}`, got {other:?}"),
            }
        }
        // Both ends out of the machine: the range check names the source.
        let mut snap = tiny_snapshot();
        edit_event(&mut snap, 1, |l| with_int(&with_int(l, 2, 99), 4, 99));
        let err = Snapshot::parse(&snap.to_file_string()).unwrap_err();
        assert!(err.to_string().contains("source component 99"), "{err}");
    }

    #[test]
    fn records_out_of_order_are_refused() {
        let text = tiny_snapshot().to_file_string();
        let (head, body) = text.split_once('\n').unwrap();
        let mut lines: Vec<&str> = body.lines().collect();
        lines.swap(1, 2); // an event before the key counters
        let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let head = head.replace(
            &format!(
                "{:016x}",
                fnv1a64(text.split_once('\n').unwrap().1.as_bytes())
            ),
            &format!("{:016x}", fnv1a64(body.as_bytes())),
        );
        let err = Snapshot::parse(&format!("{head}\n{body}")).unwrap_err();
        assert!(
            err.to_string()
                .contains("a `keys` record after a `event` record"),
            "{err}"
        );
    }

    /// A 4x4 torus under a link outage, a router crash and transient loss
    /// and corruption (or healthy, whose trains fault mode never builds),
    /// captured mid-run with an attribution sink attached: the state every
    /// walk round trip below starts from.
    fn mid_run(faulty: bool, us: u64) -> (Snapshot, pearl::Engine<NetMsg, crate::world::NetWorld>) {
        use crate::{CommSim, FaultSchedule, NetworkConfig, RetryParams, Topology};
        use mermaid_ops::{Operation, TraceSet};
        use mermaid_probe::{ProbeHandle, ProbeStack};
        use std::sync::Arc;

        let cfg = NetworkConfig::hw_routed(Topology::Torus2D { w: 4, h: 4 });
        let n = 16;
        let mut traces = TraceSet::new(n as usize);
        for node in 0..n {
            let hop = |k: u32| (node + k) % n;
            let mut phase = [
                Operation::ASend {
                    bytes: 9_000,
                    dst: hop(2),
                },
                Operation::Put {
                    bytes: 3_000,
                    to: hop(4),
                },
                Operation::Send {
                    bytes: 500,
                    dst: node ^ 1,
                },
                Operation::Recv { src: node ^ 1 },
                Operation::ARecv { src: hop(n - 2) },
                Operation::Get {
                    bytes: 2_000,
                    from: hop(5),
                },
                Operation::Compute { ps: 20_000_000 },
            ];
            // Odd nodes receive from their even partner before sending
            // back, so the rendezvous pairs up instead of deadlocking.
            if node % 2 == 1 {
                phase.swap(2, 3);
            }
            traces.trace_mut(node).ops = [phase, phase, phase, phase].concat();
        }
        let faults = faulty.then(|| {
            let mut f = FaultSchedule::new(7)
                .with_drop_ppm(30_000)
                .with_corrupt_ppm(10_000)
                .with_retry(RetryParams::default_for(&cfg));
            f.cut_link(0, 1, Time::from_us(2), Some(Time::from_us(400)));
            f.crash_router(5, Time::from_us(100), Some(Time::from_us(300)));
            Arc::new(f)
        });
        let probe = ProbeHandle::new(ProbeStack::new().with_attribution());
        let mut sim = CommSim::build(cfg, &traces, probe.clone(), faults.clone());
        let at = Time::from_us(us);
        sim.run_until(Time::from_ps(at.as_ps() - 1));
        let mut snap = sim.checkpoint("0123456789abcdef", at);
        snap.attribution = crate::sharded::capture_attribution(&probe);
        let fresh = crate::sim::build_engine(cfg, &traces, 0..n, &probe, &faults, None);
        (snap, fresh)
    }

    /// The `proc` records of four mid-run captures, pinned by their
    /// FNV-1a hash. Between them the captures hold posted `arecv`s and
    /// queued arrivals, so both sides of the receive matcher's walk are
    /// pinned, not only the empty channel lists.
    #[test]
    fn processor_records_hold_their_pinned_hash() {
        let pins = [
            (false, 100, 0xe89df461bd07e45au64),
            (false, 200, 0x7d31e491992a091a),
            (true, 150, 0x1199e3b60253d939),
            (true, 250, 0x2451935138a2424b),
        ];
        for faulty in [false, true] {
            let (mut arrivals, mut waiters) = (0, 0);
            for &(_, us, _) in pins.iter().filter(|p| p.0 == faulty) {
                let (snap, mut fresh) = mid_run(faulty, us);
                for (node, rec) in snap.procs.iter().enumerate() {
                    let proc = fresh.world_mut().proc_mut(node as u32);
                    state::load(rec, "the processor state", |w| proc.walk(w)).unwrap();
                    let (a, w) = proc.rendezvous_depths();
                    arrivals += a;
                    waiters += w;
                }
            }
            assert!(arrivals > 0, "faulty: {faulty}: no queued arrival captured");
            assert!(waiters > 0, "faulty: {faulty}: no posted arecv captured");
        }
        for (faulty, us, want) in pins {
            let text = mid_run(faulty, us).0.to_file_string();
            let procs: String = (text.lines())
                .filter(|l| l.starts_with("proc "))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(procs.lines().count(), 16);
            let got = fnv1a64(procs.as_bytes());
            assert_eq!(got, want, "faulty: {faulty}, {us} us: {got:#018x}");
        }
    }

    #[test]
    fn router_walk_round_trips() {
        let (snap, mut fresh) = mid_run(true, 150);
        for (node, rec) in snap.routers.iter().enumerate() {
            let router = fresh.world_mut().router_mut(node as u32);
            state::load(rec, "the router state", |w| router.walk(w)).unwrap();
            assert_eq!(&state::save(|w| router.walk(w)), rec, "router {node}");
        }
    }

    #[test]
    fn processor_walk_round_trips() {
        let (snap, mut fresh) = mid_run(true, 150);
        let idle = state::save(|w| fresh.world_mut().proc_mut(0).walk(w)).len();
        assert!(
            snap.procs.iter().any(|rec| rec.len() > idle),
            "the capture holds protocol state beyond an idle processor's"
        );
        for (node, rec) in snap.procs.iter().enumerate() {
            let proc = fresh.world_mut().proc_mut(node as u32);
            state::load(rec, "the processor state", |w| proc.walk(w)).unwrap();
            assert_eq!(&state::save(|w| proc.walk(w)), rec, "proc {node}");
        }
    }

    #[test]
    fn histogram_walk_round_trips() {
        let (snap, mut fresh) = mid_run(true, 150);
        for (node, rec) in snap.procs.iter().enumerate() {
            let proc = fresh.world_mut().proc_mut(node as u32);
            state::load(rec, "the processor state", |w| proc.walk(w)).unwrap();
            let s = &mut proc.stats;
            for h in [&mut s.msg_latency, &mut s.get_latency, &mut s.retry_counts] {
                let rec = state::save(|w| h.walk(w));
                let mut back = mermaid_stats::Histogram::log2();
                state::load(&rec, "the histogram", |w| back.walk(w)).unwrap();
                assert_eq!(back, *h, "proc {node}");
                assert_eq!(state::save(|w| back.walk(w)), rec, "proc {node}");
            }
        }
    }

    #[test]
    fn attribution_walk_round_trips() {
        use mermaid_probe::AttributionSink;
        let (snap, _) = mid_run(true, 150);
        let rec = snap
            .attribution
            .expect("the run carries an attribution sink");
        let mut back = AttributionSink::new();
        state::load(&rec, "the attribution record", |w| back.walk(w)).unwrap();
        assert!(back.messages() > 0, "the capture holds delivered messages");
        assert_eq!(state::save(|w| back.walk(w)), rec);
    }

    /// The network of [`mid_run`].
    fn mid_run_net() -> PacketParams {
        PacketParams::of(&crate::NetworkConfig::hw_routed(crate::Topology::Torus2D {
            w: 4,
            h: 4,
        }))
    }

    /// Every pending event of a capture, decoded.
    fn decoded(snap: &Snapshot) -> Vec<PendingEvent> {
        let mut ints = Vec::new();
        let net = Some(mid_run_net());
        let decode = |line: &str| {
            record_ints(line, &mut ints).unwrap();
            decode_event(&ints, snap.time, snap.nodes, net).unwrap()
        };
        snap.events.lines().map(decode).collect()
    }

    /// Every pending event of two faulty and two healthy captures, which
    /// between them hold every payload variant.
    fn mid_run_events() -> Vec<PendingEvent> {
        [(true, 3), (true, 150), (false, 1), (false, 150)]
            .into_iter()
            .flat_map(|(faulty, us)| decoded(&mid_run(faulty, us).0))
            .collect()
    }

    #[test]
    fn net_msg_walk_round_trips() {
        let mut tags = std::collections::BTreeSet::new();
        for (at, _, _, mut m) in mid_run_events() {
            let seen = Some(Seen {
                net: mid_run_net(),
                at,
            });
            let rec = state::save(|w| m.walk(w, seen));
            tags.insert(rec[0]);
            let mut back = NetMsg::Resume;
            state::load(&rec, "the payload", |w| back.walk(w, seen)).unwrap();
            assert_eq!(state::save(|w| back.walk(w, seen)), rec, "{m:?}");
        }
        assert_eq!(tags.len(), 10, "every payload variant is pending: {tags:?}");
    }

    #[test]
    fn packet_walk_round_trips() {
        use NetMsg::*;
        let mut packets = 0;
        for (at, _, _, m) in mid_run_events() {
            let mut p = match m {
                Inject(p) | Forward(p) | Deliver(p) => p,
                InjectTrain(t) | ForwardTrain(t) | DeliverTrain(t) => t.first,
                _ => continue,
            };
            let seen = Some(Seen {
                net: mid_run_net(),
                at,
            });
            let rec = state::save(|w| p.walk(w, seen));
            assert_eq!(rec.len(), 17);
            let mut back = Packet::default();
            state::load(&rec, "the packet", |w| back.walk(w, seen)).unwrap();
            assert_eq!(back, p);
            packets += 1;
        }
        assert!(packets > 0);
    }

    #[test]
    fn fault_walk_round_trips() {
        let mut kinds = std::collections::BTreeSet::new();
        for (.., m) in mid_run_events() {
            let NetMsg::Fault(mut k) = m else { continue };
            let rec = state::save(|w| k.walk(w));
            assert_eq!(rec.len(), 3);
            kinds.insert(rec[0]);
            let mut back = FaultKind::RouterUp { node: 0 };
            state::load(&rec, "the fault", |w| back.walk(w)).unwrap();
            assert_eq!(back, k);
        }
        assert!(!kinds.is_empty(), "the capture holds pending fault events");
    }

    /// A restored engine captured at the same instant writes the same
    /// bytes: every derived field is rebuilt exactly, acks included.
    #[test]
    fn a_restored_engine_captures_the_same_bytes() {
        // The healthy run's acks of blocking sends carry the receiver's
        // 2 us overhead as injection delay; the faulty run's carry none.
        for (faulty, us) in [(true, 150), (false, 100)] {
            let (snap, mut fresh) = mid_run(faulty, us);
            let acks = |delayed: bool| {
                let ack = |p: &Packet| p.kind == PacketKind::Ack && (p.path.pre_ps > 0) == delayed;
                let events = decoded(&snap);
                events
                    .iter()
                    .any(|e| matches!(e.3, NetMsg::Forward(p) if ack(&p)))
            };
            assert!(acks(!faulty), "faulty: {faulty}: an ack in flight");
            // Written as the 0 an ack's `pre` always was: integer 12 of a
            // packet, which starts after `time push_ps key_src key_seq src
            // dst tag`; its kind tag is integer 7.
            for line in snap.events.lines() {
                let ints: Vec<u64> = line
                    .split(' ')
                    .skip(1)
                    .map(|t| t.parse().unwrap())
                    .collect();
                if (1..=6).contains(&ints[6]) && ints[7 + 7] == 1 {
                    assert_eq!(ints[7 + 12], 0, "{line}");
                }
            }
            restore_engine(
                &mut fresh,
                mid_run_net(),
                faulty,
                &snap,
                snap.events_processed,
            )
            .unwrap();
            let again = capture(
                &mut fresh,
                mid_run_net(),
                &snap.config_hash,
                snap.time,
                None,
                |c| c.to_snapshot(),
            );
            let again = Snapshot {
                attribution: snap.attribution.clone(),
                ..again
            };
            assert_eq!(
                again.to_file_string(),
                snap.to_file_string(),
                "faulty: {faulty}"
            );
        }
    }

    /// A hand-edited packet field that its derivation contradicts is
    /// refused by the restore, naming the field and the line.
    #[test]
    fn derived_fields_that_disagree_are_refused_at_restore() {
        let (snap, _) = mid_run(false, 150);
        // The first event carrying a packet, and its packet's first
        // integer (after `time push_ps key_src key_seq src dst tag`).
        let n = decoded(&snap)
            .iter()
            .position(|e| matches!(e.3, NetMsg::Forward(_)))
            .expect("a packet in flight");
        let p = 7;
        let tampers: [(usize, i64, &str); 6] = [
            (p + 4, 1, "the packet count"),
            (p + 5, -1, "the packet payload"),
            (p + 14, 1, "the path's routing time"),
            (p + 15, 1, "the path's serialisation time"),
            (p + 16, 1, "the path's wire time"),
            (p + 12, 1, "the path's serialisation time"),
        ];
        for (i, delta, want) in tampers {
            let mut bad = snap.clone();
            edit_event(&mut bad, n, |l| {
                let v: u64 = l.split(' ').nth(i + 1).unwrap().parse().unwrap();
                with_int(l, i, v.wrapping_add_signed(delta))
            });
            let bad = Snapshot::parse(&bad.to_file_string()).expect("parse knows no network");
            let (_, mut fresh) = mid_run(false, 150);
            match restore_engine(&mut fresh, mid_run_net(), false, &bad, 0) {
                Err(SnapshotError::Parse { context, detail }) => {
                    assert_eq!(context, format!("line {}", EVENTS_LINE + n));
                    assert!(detail.starts_with(want), "{want}: {detail}");
                }
                other => panic!("expected Parse naming `{want}`, got {other:?}"),
            }
        }
    }
}
