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
//!   only engine-internal probe events can observe the difference.
//! * `end` guards against truncation that happens to preserve the body
//!   hash line count.
//!
//! # Versioning contract
//!
//! `schema=1` names the meaning of every record above. Any change to a
//! component's integer layout, the event codec, or the header fields is
//! a new schema number; readers refuse unknown schemas with an error
//! naming both versions rather than misinterpreting state. The golden
//! header fixtures under `tests/golden/` pin the v1 surface.

use std::fmt;
use std::io::Write;
use std::path::Path;

use mermaid_stats::state::{self, StateWalk};
use pearl::{Duration, EventKey, PendingEvent, Time};

use crate::fault::FaultKind;
use crate::packet::{MsgId, NetMsg, Packet, PacketKind, PathDecomp, Train};

/// Magic first token of every snapshot file.
pub const SNAPSHOT_MAGIC: &str = "mermaid-snapshot-v1";

/// Schema version this build writes and reads.
pub const SNAPSHOT_SCHEMA: u64 = 1;

/// The header's `key=value` fields, in the order they are checked.
const HEADER: [&str; 5] = ["schema", "config", "nodes", "time", "body"];

/// FNV-1a-64 over `bytes`: the snapshot body hash, and the campaign
/// layer's config hash too (the network crate is the lower of the two).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
        w.field("a message source", &mut self.src)?;
        w.field("a message sequence number", &mut self.seq)
    }
}

impl PathDecomp {
    /// Walk the five latency components in declaration order.
    pub(crate) fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
        w.field("the path's pre-network time", &mut self.pre_ps)?;
        w.field("the path's queueing time", &mut self.queue_ps)?;
        w.field("the path's routing time", &mut self.route_ps)?;
        w.field("the path's serialisation time", &mut self.ser_ps)?;
        w.field("the path's wire time", &mut self.wire_ps)
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

impl Packet {
    /// Walk one packet: 17 integers, field for field.
    pub(crate) fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
        self.msg.walk(w)?;
        w.field("the packet destination", &mut self.dst)?;
        w.field("the packet index", &mut self.index)?;
        w.field("the packet count", &mut self.count)?;
        w.field("the packet payload", &mut self.payload)?;
        w.field("the message size", &mut self.msg_bytes)?;
        self.kind.walk(w)?;
        w.time("the packet's send time", &mut self.sent_at)?;
        w.field("the packet attempt", &mut self.attempt)?;
        w.field("the packet's corrupted flag", &mut self.corrupted)?;
        self.path.walk(w)
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
    /// Walk one event payload: its variant tag, then the variant's fields.
    pub(crate) fn walk<W: StateWalk>(&mut self, w: &mut W) -> Result<(), String> {
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
            Inject(p) | Forward(p) | Deliver(p) => p.walk(w),
            InjectTrain(t) | ForwardTrain(t) | DeliverTrain(t) => {
                t.first.walk(w)?;
                w.field("the train length", &mut t.len)
            }
            Fault(k) => k.walk(w),
            RetryCheck(id) => id.walk(w),
            RecvDeadline { epoch } => w.field("the receive-deadline epoch", epoch),
        }
    }
}

/// Walk one pending event: `time push_ps key_src key_seq src dst`, then
/// its payload.
fn walk_event<W: StateWalk>(ev: &mut PendingEvent<NetMsg>, w: &mut W) -> Result<(), String> {
    let (time, key, src, dst, payload) = ev;
    w.time("the event time", time)?;
    w.field("the event key's push time", &mut key.push_ps)?;
    w.field("the event key's source", &mut key.src)?;
    w.field("the event key's sequence number", &mut key.seq)?;
    w.field("the event source", src)?;
    w.field("the event destination", dst)?;
    payload.walk(w)
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
    /// Pending events sorted by `(time, key)`.
    pub events: Vec<PendingEvent<NetMsg>>,
    /// Per-node router state, node order.
    pub routers: Vec<Vec<u64>>,
    /// Per-node processor state, node order.
    pub procs: Vec<Vec<u64>>,
    /// Attribution-sink state, when the run carries an attribution probe.
    pub attribution: Option<Vec<u64>>,
}

impl Snapshot {
    /// Render the file as its header line and its body: the body into one
    /// byte buffer first, since the header carries the body's hash.
    fn render(&self) -> (String, Vec<u8>) {
        let mut body = Vec::new();
        push_record(&mut body, "engine", &[self.events_processed]);
        push_record(&mut body, "keys", &self.key_counters);
        let mut ints = Vec::new();
        for &(mut ev) in &self.events {
            ints.clear();
            state::save_into(&mut ints, |w| walk_event(&mut ev, w));
            push_record(&mut body, "event", &ints);
        }
        for (label, slab) in [("router", &self.routers), ("proc", &self.procs)] {
            for (node, record) in slab.iter().enumerate() {
                push_record(&mut body, &format!("{label} {node}"), record);
            }
        }
        if let Some(attr) = &self.attribution {
            push_record(&mut body, "attr", attr);
        }
        body.extend_from_slice(b"end\n");
        let header = format!(
            "{SNAPSHOT_MAGIC} schema={SNAPSHOT_SCHEMA} config={} nodes={} time={} body={:016x}\n",
            self.config_hash,
            self.nodes,
            self.time.as_ps(),
            fnv1a64(&body),
        );
        (header, body)
    }

    /// Render the snapshot file (header, body, `end` marker).
    pub fn to_file_string(&self) -> String {
        let (mut text, body) = self.render();
        text.push_str(std::str::from_utf8(&body).expect("snapshot bodies are ASCII"));
        text
    }

    /// Parse a snapshot file, verifying magic, schema and body hash.
    /// Config and node-count checks happen at restore time, when the
    /// expected values are known.
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
            events: Vec::new(),
            routers: vec![Vec::new(); nodes as usize],
            procs: vec![Vec::new(); nodes as usize],
            attribution: None,
        };
        let mut seen_engine = false;
        let mut seen_end = false;
        for (i, line) in body.lines().enumerate() {
            let perr = |detail: String| SnapshotError::Parse {
                context: format!("line {}", i + 2),
                detail,
            };
            if seen_end {
                return Err(perr("record after the `end` marker".into()));
            }
            let mut toks = line.split_ascii_whitespace();
            let tag = toks.next().ok_or_else(|| perr("empty record".into()))?;
            if tag == "end" {
                seen_end = true;
                continue;
            }
            let ints = toks
                .map(|t| {
                    t.parse::<u64>()
                        .map_err(|_| perr(format!("`{t}` in a `{tag}` record is not an integer")))
                })
                .collect::<Result<Vec<u64>, _>>()?;
            match tag {
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
                    snap.key_counters = ints;
                }
                "event" => {
                    let mut ev = (Time::ZERO, EventKey::default(), 0, 0, NetMsg::Resume);
                    state::load(&ints, "the event payload", |w| walk_event(&mut ev, w))
                        .map_err(&perr)?;
                    // Refused here, before any engine or shard sees them:
                    // a restore would panic on the first and silently drop
                    // the second.
                    if ev.0 < time {
                        return Err(perr(format!(
                            "an event at {} ps precedes the snapshot instant {} ps",
                            ev.0.as_ps(),
                            time.as_ps()
                        )));
                    }
                    let components = 2 * nodes as usize;
                    for (end, comp) in [("source", ev.2), ("destination", ev.3)] {
                        if comp >= components {
                            return Err(perr(format!(
                                "event {end} component {comp} is outside the 2×nodes = \
                                 {components} component(s)"
                            )));
                        }
                    }
                    snap.events.push(ev);
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
                "attr" => {
                    if snap.attribution.is_some() {
                        return Err(perr("duplicate `attr` record".into()));
                    }
                    snap.attribution = Some(ints);
                }
                other => {
                    return Err(perr(format!("unknown record tag `{other}`")));
                }
            }
        }
        if !seen_end {
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
        let (header, body) = self.render();
        std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(header.as_bytes())?;
                f.write_all(&body)
            })
            .map_err(|e| io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| io(e.to_string()))
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
    /// nodes (only the owning shard ever allocates keys for them); pending
    /// events are merged into canonical `(time, key)` order and delivery
    /// counts summed.
    pub fn compose(pieces: Vec<Snapshot>) -> Snapshot {
        let mut pieces = pieces.into_iter();
        let mut snap = pieces.next().expect("composing zero shard pieces");
        let n = snap.nodes as usize;
        for p in pieces {
            assert_eq!(p.nodes, snap.nodes, "shard pieces disagree on node count");
            assert_eq!(p.time, snap.time, "shard pieces disagree on the instant");
            snap.events_processed += p.events_processed;
            snap.events.extend(p.events);
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
        snap.events.sort_by_key(|a| (a.0, a.1));
        snap
    }
}

fn preview(s: &str) -> String {
    let head: String = s.chars().take(32).collect();
    head.split_whitespace().next().unwrap_or("").to_string()
}

/// Capture one engine's piece of a snapshot at instant `at`: the whole
/// machine in a serial run; in a shard, the owned node range, with empty
/// records for the nodes other shards own (see [`Snapshot::compose`]).
/// Every event strictly before `at` must have been processed and every
/// pending event must be at or after it — asserted, because a capture
/// violating that could never restore bit-identically.
pub(crate) fn capture(
    engine: &mut pearl::Engine<NetMsg, crate::world::NetWorld>,
    config_hash: &str,
    at: Time,
) -> Snapshot {
    assert!(
        engine.now() <= at,
        "capture instant {at} lies before the engine clock {}",
        engine.now()
    );
    let events = engine.snapshot_pending();
    for (t, ..) in &events {
        assert!(
            *t >= at,
            "pending event at {t} predates the capture instant {at}"
        );
    }
    // The component id space is always `2 * nodes`, whole or shard.
    let n = engine.component_count() / 2;
    let mut snap = Snapshot {
        config_hash: config_hash.to_string(),
        nodes: n as u32,
        time: at,
        events_processed: engine.events_processed(),
        key_counters: engine.key_counters().to_vec(),
        events,
        routers: vec![Vec::new(); n],
        procs: vec![Vec::new(); n],
        attribution: None,
    };
    let world = engine.world_mut();
    for node in world.nodes() {
        snap.routers[node as usize] = state::save(|w| world.router_mut(node).walk(w));
        snap.procs[node as usize] = state::save(|w| world.proc_mut(node).walk(w));
    }
    snap
}

/// Overlay a snapshot onto a freshly built engine: replace the queue,
/// clock and key counters wholesale (keeping only events addressed to
/// components this engine's world owns) and restore the owned router and
/// processor slabs. `events_base` is this engine's share of the
/// snapshot's delivery count — the full count serially; in a sharded
/// restore shard 0 carries it and the merge sums the rest.
pub(crate) fn restore_engine(
    engine: &mut pearl::Engine<NetMsg, crate::world::NetWorld>,
    snap: &Snapshot,
    events_base: u64,
) -> Result<(), SnapshotError> {
    let nodes = engine.world().nodes();
    // Router `i` is component `i`, its processor `nodes + i`; parsing
    // refused every destination outside those `2 * nodes` components.
    let events: Vec<_> = snap
        .events
        .iter()
        .filter(|ev| nodes.contains(&(ev.3 as u32 % snap.nodes)))
        .cloned()
        .collect();
    engine.restore(snap.time, events_base, snap.key_counters.clone(), events);
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

    fn tiny_snapshot() -> Snapshot {
        let pkt = Packet {
            msg: MsgId { src: 0, seq: 3 },
            dst: 1,
            index: 0,
            count: 2,
            payload: 1024,
            msg_bytes: 1500,
            kind: PacketKind::Data { sync: true },
            sent_at: Time::from_ps(500),
            attempt: 1,
            corrupted: false,
            path: PathDecomp {
                pre_ps: 1,
                queue_ps: 2,
                route_ps: 3,
                ser_ps: 4,
                wire_ps: 5,
            },
        };
        Snapshot {
            config_hash: "0123456789abcdef".into(),
            nodes: 2,
            time: Time::from_ps(1_000),
            events_processed: 42,
            key_counters: vec![1, 2, 3, 4],
            events: vec![
                (
                    Time::from_ps(1_000),
                    EventKey {
                        push_ps: 900,
                        src: 0,
                        seq: 7,
                    },
                    0,
                    1,
                    NetMsg::Forward(pkt),
                ),
                (
                    Time::from_ps(2_000),
                    EventKey {
                        push_ps: 950,
                        src: 2,
                        seq: 0,
                    },
                    2,
                    3,
                    NetMsg::RecvDeadline { epoch: 9 },
                ),
            ],
            routers: vec![vec![10, 11], vec![12]],
            procs: vec![vec![20], vec![21, 22, 23]],
            attribution: Some(vec![5, 6, 7]),
        }
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
        assert_eq!(back.events.len(), 2);
        assert_eq!(back.events[0].1.seq, 7);
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
        let snap = tiny_snapshot();
        let mut body = String::from("engine 1\nkeys 0 0 0 0\n");
        for node in 0..2 {
            body.push_str(&format!("router {node} 1\nproc {node} 1\n"));
        }
        let header = format!(
            "{SNAPSHOT_MAGIC} schema=1 config=x nodes=2 time=5 body={:016x}",
            fnv1a64(body.as_bytes())
        );
        let _ = snap;
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
        let ev0 = whole.events[0];
        let ev1 = whole.events[1];
        // Each piece holds one node's records; its counters for the other
        // node are not authoritative, so they are set to junk here.
        let piece = |owned: usize, processed, counters, ev| {
            let mut p = whole.clone();
            p.events_processed = processed;
            p.key_counters = counters;
            p.events = vec![ev];
            p.routers[1 - owned].clear();
            p.procs[1 - owned].clear();
            p.attribution = None;
            p
        };
        // Out-of-order events on purpose: compose canonicalises.
        let pieces = vec![
            piece(0, 30, vec![1, 9, 3, 9], ev1),
            piece(1, 12, vec![9, 2, 9, 4], ev0),
        ];
        let mut composed = Snapshot::compose(pieces);
        composed.attribution = whole.attribution.clone();
        assert_eq!(composed.to_file_string(), whole.to_file_string());
    }

    #[test]
    fn events_a_restore_cannot_place_are_refused_at_parse() {
        type Tamper = fn(&mut Snapshot);
        let tampers: [(Tamper, &str); 3] = [
            (
                |s| s.events[0].0 = Time::from_ps(999),
                "precedes the snapshot instant",
            ),
            (|s| s.events[0].3 = 4, "destination component 4"),
            (|s| s.events[1].2 = 99, "source component 99"),
        ];
        for (tamper, want) in tampers {
            let mut snap = tiny_snapshot();
            tamper(&mut snap);
            match Snapshot::parse(&snap.to_file_string()) {
                Err(SnapshotError::Parse { context, detail }) => {
                    assert!(context.starts_with("line "), "{context}");
                    assert!(detail.contains(want), "{detail}");
                }
                other => panic!("expected Parse naming `{want}`, got {other:?}"),
            }
        }
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

    /// Every pending payload of two faulty and two healthy captures,
    /// which between them hold every variant.
    fn mid_run_payloads() -> Vec<NetMsg> {
        [(true, 3), (true, 150), (false, 1), (false, 150)]
            .into_iter()
            .flat_map(|(faulty, us)| mid_run(faulty, us).0.events)
            .map(|ev| ev.4)
            .collect()
    }

    #[test]
    fn net_msg_walk_round_trips() {
        let mut tags = std::collections::BTreeSet::new();
        for mut m in mid_run_payloads() {
            let rec = state::save(|w| m.walk(w));
            tags.insert(rec[0]);
            let mut back = NetMsg::Resume;
            state::load(&rec, "the payload", |w| back.walk(w)).unwrap();
            assert_eq!(state::save(|w| back.walk(w)), rec, "{m:?}");
        }
        assert_eq!(tags.len(), 10, "every payload variant is pending: {tags:?}");
    }

    #[test]
    fn packet_walk_round_trips() {
        use NetMsg::*;
        let mut packets = 0;
        for m in mid_run_payloads() {
            let mut p = match m {
                Inject(p) | Forward(p) | Deliver(p) => p,
                InjectTrain(t) | ForwardTrain(t) | DeliverTrain(t) => t.first,
                _ => continue,
            };
            let rec = state::save(|w| p.walk(w));
            assert_eq!(rec.len(), 17);
            let mut back = Packet::default();
            state::load(&rec, "the packet", |w| back.walk(w)).unwrap();
            assert_eq!(back, p);
            packets += 1;
        }
        assert!(packets > 0);
    }

    #[test]
    fn fault_walk_round_trips() {
        let mut kinds = std::collections::BTreeSet::new();
        for m in mid_run_payloads() {
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
}
