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
use std::path::Path;

use pearl::{CompId, EventKey, PendingEvent, Time};

use crate::fault::FaultKind;
use crate::packet::{MsgId, NetMsg, Packet, PacketKind, PathDecomp, Train};

/// Magic first token of every snapshot file.
pub const SNAPSHOT_MAGIC: &str = "mermaid-snapshot-v1";

/// Schema version this build writes and reads.
pub const SNAPSHOT_SCHEMA: u64 = 1;

/// FNV-1a-64 over `bytes` — the same hash (same constants) the campaign
/// layer uses for config identity, duplicated here because the network
/// crate sits below the campaign layer.
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

/// Sequential reader over a record's integers, erroring (with the name
/// of the missing field) instead of panicking on truncated input.
pub(crate) struct IntReader<'a> {
    data: &'a [u64],
    pos: usize,
}

impl<'a> IntReader<'a> {
    pub fn new(data: &'a [u64]) -> Self {
        IntReader { data, pos: 0 }
    }

    /// Next integer, or an error naming `what` was expected.
    pub fn take(&mut self, what: &str) -> Result<u64, String> {
        match self.data.get(self.pos) {
            Some(&v) => {
                self.pos += 1;
                Ok(v)
            }
            None => Err(format!("record ends where {what} was expected")),
        }
    }

    /// Next `len` integers as a slice.
    pub fn take_slice(&mut self, len: usize, what: &str) -> Result<&'a [u64], String> {
        if self.pos + len > self.data.len() {
            return Err(format!(
                "record ends inside {what} ({} of {len} integer(s) present)",
                self.data.len() - self.pos
            ));
        }
        let s = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Assert the record was consumed exactly.
    pub fn finish(&self, what: &str) -> Result<(), String> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing integer(s) after {what}",
                self.data.len() - self.pos
            ))
        }
    }
}

/// `PacketKind` → `(tag, argument)`.
pub(crate) fn packet_kind_to_ints(kind: PacketKind) -> (u64, u64) {
    match kind {
        PacketKind::Data { sync } => (0, sync as u64),
        PacketKind::Ack => (1, 0),
        PacketKind::OneWay => (2, 0),
        PacketKind::GetRequest { bytes } => (3, bytes as u64),
        PacketKind::GetReply => (4, 0),
    }
}

/// `(tag, argument)` → `PacketKind`.
pub(crate) fn packet_kind_from_ints(tag: u64, arg: u64) -> Result<PacketKind, String> {
    Ok(match tag {
        0 => PacketKind::Data { sync: arg != 0 },
        1 => PacketKind::Ack,
        2 => PacketKind::OneWay,
        3 => PacketKind::GetRequest { bytes: arg as u32 },
        4 => PacketKind::GetReply,
        t => return Err(format!("unknown packet kind tag {t}")),
    })
}

/// Flatten one packet: 17 integers, field for field.
fn packet_to_ints(p: &Packet, out: &mut Vec<u64>) {
    let (ktag, karg) = packet_kind_to_ints(p.kind);
    out.extend([
        p.msg.src as u64,
        p.msg.seq,
        p.dst as u64,
        p.index as u64,
        p.count as u64,
        p.payload as u64,
        p.msg_bytes as u64,
        ktag,
        karg,
        p.sent_at.as_ps(),
        p.attempt as u64,
        p.corrupted as u64,
        p.path.pre_ps,
        p.path.queue_ps,
        p.path.route_ps,
        p.path.ser_ps,
        p.path.wire_ps,
    ]);
}

fn packet_from_ints(r: &mut IntReader<'_>) -> Result<Packet, String> {
    let v = r.take_slice(17, "a packet (17 integers)")?;
    Ok(Packet {
        msg: MsgId {
            src: v[0] as u32,
            seq: v[1],
        },
        dst: v[2] as u32,
        index: v[3] as u32,
        count: v[4] as u32,
        payload: v[5] as u32,
        msg_bytes: v[6] as u32,
        kind: packet_kind_from_ints(v[7], v[8])?,
        sent_at: Time::from_ps(v[9]),
        attempt: v[10] as u32,
        corrupted: v[11] != 0,
        path: PathDecomp {
            pre_ps: v[12],
            queue_ps: v[13],
            route_ps: v[14],
            ser_ps: v[15],
            wire_ps: v[16],
        },
    })
}

fn fault_to_ints(k: FaultKind, out: &mut Vec<u64>) {
    match k {
        FaultKind::LinkDown { from, to } => out.extend([0, from as u64, to as u64]),
        FaultKind::LinkUp { from, to } => out.extend([1, from as u64, to as u64]),
        FaultKind::RouterDown { node } => out.extend([2, node as u64, 0]),
        FaultKind::RouterUp { node } => out.extend([3, node as u64, 0]),
    }
}

fn fault_from_ints(r: &mut IntReader<'_>) -> Result<FaultKind, String> {
    let v = r.take_slice(3, "a fault event (3 integers)")?;
    Ok(match v[0] {
        0 => FaultKind::LinkDown {
            from: v[1] as u32,
            to: v[2] as u32,
        },
        1 => FaultKind::LinkUp {
            from: v[1] as u32,
            to: v[2] as u32,
        },
        2 => FaultKind::RouterDown { node: v[1] as u32 },
        3 => FaultKind::RouterUp { node: v[1] as u32 },
        t => return Err(format!("unknown fault kind tag {t}")),
    })
}

/// Flatten one event payload (variant tag, then its fields).
pub(crate) fn msg_to_ints(m: &NetMsg, out: &mut Vec<u64>) {
    match *m {
        NetMsg::Resume => out.push(0),
        NetMsg::Inject(ref p) => {
            out.push(1);
            packet_to_ints(p, out);
        }
        NetMsg::InjectTrain(ref t) => {
            out.push(2);
            packet_to_ints(&t.first, out);
            out.push(t.len as u64);
        }
        NetMsg::Forward(ref p) => {
            out.push(3);
            packet_to_ints(p, out);
        }
        NetMsg::ForwardTrain(ref t) => {
            out.push(4);
            packet_to_ints(&t.first, out);
            out.push(t.len as u64);
        }
        NetMsg::Deliver(ref p) => {
            out.push(5);
            packet_to_ints(p, out);
        }
        NetMsg::DeliverTrain(ref t) => {
            out.push(6);
            packet_to_ints(&t.first, out);
            out.push(t.len as u64);
        }
        NetMsg::Fault(k) => {
            out.push(7);
            fault_to_ints(k, out);
        }
        NetMsg::RetryCheck(id) => out.extend([8, id.src as u64, id.seq]),
        NetMsg::RecvDeadline { epoch } => out.extend([9, epoch]),
    }
}

pub(crate) fn msg_from_ints(r: &mut IntReader<'_>) -> Result<NetMsg, String> {
    let train = |r: &mut IntReader<'_>| -> Result<Train, String> {
        let first = packet_from_ints(r)?;
        let len = r.take("train length")?;
        Ok(Train {
            first,
            len: len as u32,
        })
    };
    Ok(match r.take("event payload tag")? {
        0 => NetMsg::Resume,
        1 => NetMsg::Inject(packet_from_ints(r)?),
        2 => NetMsg::InjectTrain(train(r)?),
        3 => NetMsg::Forward(packet_from_ints(r)?),
        4 => NetMsg::ForwardTrain(train(r)?),
        5 => NetMsg::Deliver(packet_from_ints(r)?),
        6 => NetMsg::DeliverTrain(train(r)?),
        7 => NetMsg::Fault(fault_from_ints(r)?),
        8 => NetMsg::RetryCheck(MsgId {
            src: r.take("retry-check source")? as u32,
            seq: r.take("retry-check sequence")?,
        }),
        9 => NetMsg::RecvDeadline {
            epoch: r.take("receive-deadline epoch")?,
        },
        t => return Err(format!("unknown event payload tag {t}")),
    })
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
    /// Render the snapshot file (header, body, `end` marker).
    pub fn to_file_string(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("engine {}\n", self.events_processed));
        body.push_str("keys");
        for c in &self.key_counters {
            body.push_str(&format!(" {c}"));
        }
        body.push('\n');
        for (t, key, src, dst, payload) in &self.events {
            let mut ints = Vec::new();
            msg_to_ints(payload, &mut ints);
            body.push_str(&format!(
                "event {} {} {} {} {} {}",
                t.as_ps(),
                key.push_ps,
                key.src,
                key.seq,
                src,
                dst
            ));
            for i in ints {
                body.push_str(&format!(" {i}"));
            }
            body.push('\n');
        }
        for (label, slab) in [("router", &self.routers), ("proc", &self.procs)] {
            for (node, ints) in slab.iter().enumerate() {
                body.push_str(&format!("{label} {node}"));
                for i in ints {
                    body.push_str(&format!(" {i}"));
                }
                body.push('\n');
            }
        }
        if let Some(attr) = &self.attribution {
            body.push_str("attr");
            for i in attr {
                body.push_str(&format!(" {i}"));
            }
            body.push('\n');
        }
        body.push_str("end\n");
        format!(
            "{SNAPSHOT_MAGIC} schema={SNAPSHOT_SCHEMA} config={} nodes={} time={} body={:016x}\n{body}",
            self.config_hash,
            self.nodes,
            self.time.as_ps(),
            fnv1a64(body.as_bytes()),
        )
    }

    /// Parse a snapshot file, verifying magic, schema and body hash.
    /// Config and node-count checks happen at restore time, when the
    /// expected values are known.
    pub fn parse(text: &str) -> Result<Snapshot, SnapshotError> {
        let (header, body) = match text.split_once('\n') {
            Some(p) => p,
            None => {
                return Err(SnapshotError::BadMagic {
                    found: preview(text),
                })
            }
        };
        let mut fields = header.split_ascii_whitespace();
        if fields.next() != Some(SNAPSHOT_MAGIC) {
            return Err(SnapshotError::BadMagic {
                found: preview(header),
            });
        }
        let mut schema = None;
        let mut config = None;
        let mut nodes = None;
        let mut time = None;
        let mut body_hash = None;
        for f in fields {
            let (k, v) = f.split_once('=').ok_or_else(|| SnapshotError::Parse {
                context: "header".into(),
                detail: format!("field `{f}` is not key=value"),
            })?;
            let bad = |detail: String| SnapshotError::Parse {
                context: "header".into(),
                detail,
            };
            match k {
                "schema" => {
                    schema = Some(v.parse::<u64>().map_err(|_| {
                        bad(format!("field `schema` value `{v}` is not an integer"))
                    })?)
                }
                "config" => config = Some(v.to_string()),
                "nodes" => {
                    nodes =
                        Some(v.parse::<u32>().map_err(|_| {
                            bad(format!("field `nodes` value `{v}` is not an integer"))
                        })?)
                }
                "time" => {
                    time =
                        Some(v.parse::<u64>().map_err(|_| {
                            bad(format!("field `time` value `{v}` is not an integer"))
                        })?)
                }
                "body" => body_hash = Some(v.to_string()),
                _ => {
                    return Err(bad(format!("unknown header field `{k}`")));
                }
            }
        }
        let missing = |name: &str| SnapshotError::Parse {
            context: "header".into(),
            detail: format!("field `{name}` is missing"),
        };
        let schema = schema.ok_or_else(|| missing("schema"))?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(SnapshotError::SchemaMismatch { found: schema });
        }
        let config_hash = config.ok_or_else(|| missing("config"))?;
        let nodes = nodes.ok_or_else(|| missing("nodes"))?;
        let time = Time::from_ps(time.ok_or_else(|| missing("time"))?);
        let expected_body = body_hash.ok_or_else(|| missing("body"))?;
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
            let ctx = || format!("line {}", i + 2);
            let perr = |detail: String| SnapshotError::Parse {
                context: ctx(),
                detail,
            };
            if seen_end {
                return Err(perr("record after the `end` marker".into()));
            }
            let mut toks = line.split_ascii_whitespace();
            let tag = match toks.next() {
                Some(t) => t,
                None => return Err(perr("empty record".into())),
            };
            if tag == "end" {
                seen_end = true;
                continue;
            }
            let ints: Vec<u64> = {
                let mut v = Vec::new();
                for t in toks {
                    v.push(t.parse::<u64>().map_err(|_| {
                        perr(format!("`{t}` in a `{tag}` record is not an integer"))
                    })?);
                }
                v
            };
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
                    let mut r = IntReader::new(&ints);
                    let head = r
                        .take_slice(6, "event header (6 integers)")
                        .map_err(&perr)?;
                    let (t, push_ps, key_src, key_seq, src, dst) =
                        (head[0], head[1], head[2], head[3], head[4], head[5]);
                    let payload = msg_from_ints(&mut r).map_err(&perr)?;
                    r.finish("the event payload").map_err(&perr)?;
                    snap.events.push((
                        Time::from_ps(t),
                        EventKey {
                            push_ps,
                            src: key_src as u32,
                            seq: key_seq,
                        },
                        src as CompId,
                        dst as CompId,
                        payload,
                    ));
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
        if !seen_engine {
            return Err(SnapshotError::Parse {
                context: "body".into(),
                detail: "missing `engine` record".into(),
            });
        }
        if snap.key_counters.len() != 2 * nodes as usize {
            return Err(SnapshotError::Parse {
                context: "body".into(),
                detail: "missing `keys` record".into(),
            });
        }
        for node in 0..nodes as usize {
            if snap.routers[node].is_empty() {
                return Err(SnapshotError::Parse {
                    context: "body".into(),
                    detail: format!("missing `router` record for node {node}"),
                });
            }
            if snap.procs[node].is_empty() {
                return Err(SnapshotError::Parse {
                    context: "body".into(),
                    detail: format!("missing `proc` record for node {node}"),
                });
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
        std::fs::write(&tmp, self.to_file_string()).map_err(|e| io(e.to_string()))?;
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
    /// produce. Each piece carries its owned nodes' component records and
    /// key counters plus its engine's pending events and delivery count;
    /// the union is sorted into canonical `(time, key)` order and the
    /// delivery counts summed.
    pub fn compose(pieces: Vec<ShardPiece>) -> Snapshot {
        assert!(!pieces.is_empty(), "composing zero shard pieces");
        let config_hash = pieces[0].config_hash.clone();
        let nodes = pieces[0].nodes;
        let time = pieces[0].time;
        let n = nodes as usize;
        let mut snap = Snapshot {
            config_hash,
            nodes,
            time,
            events_processed: 0,
            key_counters: vec![0; 2 * n],
            events: Vec::new(),
            routers: vec![Vec::new(); n],
            procs: vec![Vec::new(); n],
            attribution: None,
        };
        for p in pieces {
            assert_eq!(p.nodes, nodes, "shard pieces disagree on node count");
            assert_eq!(p.time, time, "shard pieces disagree on the instant");
            snap.events_processed += p.events_processed;
            snap.events.extend(p.events);
            for (i, (router, proc)) in p.routers.into_iter().zip(p.procs).enumerate() {
                let node = p.base as usize + i;
                // The owner's counters are authoritative for its nodes:
                // only the owning shard ever allocates keys for them.
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

/// One shard's contribution to a composed snapshot (see
/// [`Snapshot::compose`]).
pub struct ShardPiece {
    /// Campaign-layer config hash (identical across pieces).
    pub config_hash: String,
    /// Total node count (identical across pieces).
    pub nodes: u32,
    /// First node this shard owns.
    pub base: u32,
    /// The capture instant (identical across pieces).
    pub time: Time,
    /// Deliveries this shard's engine performed.
    pub events_processed: u64,
    /// The shard engine's full-length key-counter vector (only owned
    /// nodes' entries are meaningful).
    pub key_counters: Vec<u64>,
    /// Pending events of this shard's queue (all addressed to owned
    /// components).
    pub events: Vec<PendingEvent<NetMsg>>,
    /// Router records for owned nodes, in node order.
    pub routers: Vec<Vec<u64>>,
    /// Processor records for owned nodes, in node order.
    pub procs: Vec<Vec<u64>>,
}

/// Capture one engine's contribution to a snapshot at instant `at`: the
/// whole machine in a serial run, the owned node range in a shard. Every
/// event strictly before `at` must have been processed and every pending
/// event must be at or after it — asserted, because a capture violating
/// that could never restore bit-identically.
pub(crate) fn capture_piece(
    engine: &pearl::Engine<NetMsg, crate::world::NetWorld>,
    config_hash: &str,
    at: Time,
) -> ShardPiece {
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
    let world = engine.world();
    let (base, owned) = (world.base(), world.owned());
    let mut routers = Vec::with_capacity(owned as usize);
    let mut procs = Vec::with_capacity(owned as usize);
    for i in 0..owned {
        let node = base + i;
        let mut r = Vec::new();
        world.router(node).snapshot_ints(&mut r);
        routers.push(r);
        let mut p = Vec::new();
        world.proc(node).snapshot_ints(&mut p);
        procs.push(p);
    }
    ShardPiece {
        config_hash: config_hash.to_string(),
        // The component id space is always `2 * nodes`, whole or shard.
        nodes: (engine.component_count() / 2) as u32,
        base,
        time: at,
        events_processed: engine.events_processed(),
        key_counters: engine.key_counters().to_vec(),
        events,
        routers,
        procs,
    }
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
    let n = snap.nodes;
    let (base, owned) = {
        let w = engine.world();
        (w.base(), w.owned())
    };
    let owns = |comp: CompId| {
        let node = if (comp as u32) < n {
            comp as u32
        } else {
            comp as u32 - n
        };
        node >= base && node < base + owned
    };
    let events: Vec<_> = snap
        .events
        .iter()
        .filter(|&&(_, _, _, dst, _)| owns(dst))
        .cloned()
        .collect();
    engine.restore(snap.time, events_base, snap.key_counters.clone(), events);
    let world = engine.world_mut();
    for i in 0..owned {
        let node = base + i;
        let record = |what: &str, detail: String| SnapshotError::Parse {
            context: format!("{what} {node} record"),
            detail,
        };
        let mut r = IntReader::new(&snap.routers[node as usize]);
        world
            .router_mut(node)
            .restore_ints(&mut r)
            .and_then(|()| r.finish("the router state"))
            .map_err(|d| record("router", d))?;
        let mut r = IntReader::new(&snap.procs[node as usize]);
        world
            .proc_mut(node)
            .restore_ints(&mut r)
            .and_then(|()| r.finish("the processor state"))
            .map_err(|d| record("proc", d))?;
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
    fn every_payload_variant_round_trips() {
        let pkt = tiny_snapshot().events[0].4;
        let pkt = match pkt {
            NetMsg::Forward(p) => p,
            _ => unreachable!(),
        };
        let msgs = [
            NetMsg::Resume,
            NetMsg::Inject(pkt),
            NetMsg::InjectTrain(Train { first: pkt, len: 3 }),
            NetMsg::Forward(pkt),
            NetMsg::ForwardTrain(Train { first: pkt, len: 2 }),
            NetMsg::Deliver(pkt),
            NetMsg::DeliverTrain(Train { first: pkt, len: 5 }),
            NetMsg::Fault(FaultKind::LinkDown { from: 1, to: 2 }),
            NetMsg::Fault(FaultKind::LinkUp { from: 2, to: 1 }),
            NetMsg::Fault(FaultKind::RouterDown { node: 3 }),
            NetMsg::Fault(FaultKind::RouterUp { node: 3 }),
            NetMsg::RetryCheck(MsgId { src: 4, seq: 99 }),
            NetMsg::RecvDeadline { epoch: 12 },
        ];
        for m in &msgs {
            let mut ints = Vec::new();
            msg_to_ints(m, &mut ints);
            let mut r = IntReader::new(&ints);
            let back = msg_from_ints(&mut r).expect("decodes");
            r.finish("payload").expect("consumed exactly");
            let mut ints2 = Vec::new();
            msg_to_ints(&back, &mut ints2);
            assert_eq!(ints, ints2, "{m:?}");
        }
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
        let pieces = vec![
            ShardPiece {
                config_hash: whole.config_hash.clone(),
                nodes: 2,
                base: 0,
                time: whole.time,
                events_processed: 30,
                key_counters: vec![1, 0, 3, 0],
                // Out-of-order on purpose: compose canonicalises.
                events: vec![ev1],
                routers: vec![whole.routers[0].clone()],
                procs: vec![whole.procs[0].clone()],
            },
            ShardPiece {
                config_hash: whole.config_hash.clone(),
                nodes: 2,
                base: 1,
                time: whole.time,
                events_processed: 12,
                key_counters: vec![0, 2, 0, 4],
                events: vec![ev0],
                routers: vec![whole.routers[1].clone()],
                procs: vec![whole.procs[1].clone()],
            },
        ];
        let mut composed = Snapshot::compose(pieces);
        composed.attribution = whole.attribution.clone();
        assert_eq!(composed.to_file_string(), whole.to_file_string());
    }

    #[test]
    fn int_reader_names_missing_fields() {
        let data = [1u64, 2];
        let mut r = IntReader::new(&data);
        assert_eq!(r.take("first").unwrap(), 1);
        let err = r.take_slice(3, "a packet").unwrap_err();
        assert!(err.contains("a packet"), "{err}");
        assert_eq!(r.take("second").unwrap(), 2);
        let err = r.take("third field").unwrap_err();
        assert!(err.contains("third field"), "{err}");
        r.finish("record").unwrap();
    }
}
