//! Conformance suite for the checkpoint/restore contract (DESIGN.md §16).
//!
//! The contract: a run checkpointed at instant T and restored produces
//! **byte-identical** output to the uninterrupted run — across topology
//! shapes, communication patterns, healthy and faulty schedules, serial
//! and sharded — and a sharded capture writes exactly the bytes a serial
//! capture writes. Those cells are rows of the conformance matrix
//! (`tests/common/`, DESIGN.md §20), driven from here; this suite's own
//! tests cover damaged snapshots, attribution compatibility and the
//! on-disk format.
//!
//! The golden snapshot fixture follows the `tests/golden_cli.rs`
//! convention: `BLESS=1 cargo test --test checkpoint_conformance`
//! regenerates it after intentional format changes.

use std::path::{Path, PathBuf};

use mermaid::cli::run;

mod common;
use common::{check, scenario, Block, Scenario};

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mermaid-ckpt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Capture `sc` through `sim --checkpoint-every <every>` into `dir`,
/// returning the snapshot files written in capture order (the
/// zero-padded names sort chronologically).
fn capture(sc: &Scenario, every: u64, dir: &Path) -> Vec<PathBuf> {
    let mut args = sc.args("sim");
    let dir_arg = dir.to_str().unwrap();
    args.extend(s(&[
        "--checkpoint-every",
        &every.to_string(),
        "--checkpoint-dir",
        dir_arg,
    ]));
    let out = run(&args).unwrap();
    assert!(out.contains("checkpoints written:"), "{out}");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no checkpoint written for {sc}");
    files
}

/// The first snapshot `sim` writes for the default scenario when it
/// captures at a quarter of the predicted finish.
fn first_snapshot(dir: &Path) -> PathBuf {
    let sc = scenario("");
    capture(&sc, sc.comm().finish.as_ps() / 4, dir).remove(0)
}

/// Every topology shape × three communication patterns, restored mid-run
/// both serially and on 3 shards, reproduces the uninterrupted run's
/// stdout byte for byte.
#[test]
fn restored_runs_are_byte_identical_across_the_matrix() {
    check(Block::Restore);
}

/// A restored run that checkpoints again writes the uninterrupted run's
/// later snapshot files byte for byte, serially and on 2 shards. Their
/// `keys` records carry the counters the restore resumed: a pending
/// event's key and a key allocated after the restore never tie (their
/// push instants lie on either side of the capture), so a restore that
/// zeroed a component's counter changed no output but these files.
#[test]
fn restored_runs_write_the_uninterrupted_runs_later_snapshots() {
    let dir = temp_dir("recapture");
    let sc = scenario("topo=torus:4x2 pattern=all2all");
    let every = sc.comm().finish.as_ps() / 4;
    std::fs::create_dir_all(dir.join("straight")).unwrap();
    let straight = capture(&sc, every, &dir.join("straight"));
    assert!(straight.len() >= 3, "{straight:?}");
    for shards in ["1", "2"] {
        let out = dir.join(format!("restored-{shards}"));
        std::fs::create_dir_all(&out).unwrap();
        let mut args = sc.args("sim");
        args.extend(s(&[
            "--restore",
            straight[0].to_str().unwrap(),
            "--shards",
            shards,
        ]));
        args.extend(s(&["--checkpoint-every", &every.to_string()]));
        args.extend(s(&["--checkpoint-dir", out.to_str().unwrap()]));
        run(&args).unwrap();
        let mut again: Vec<PathBuf> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        again.sort();
        assert_eq!(again.len(), straight.len() - 1, "--shards {shards}");
        for (a, b) in straight[1..].iter().zip(&again) {
            assert_eq!(a.file_name(), b.file_name(), "--shards {shards}");
            let same = std::fs::read(a).unwrap() == std::fs::read(b).unwrap();
            assert!(same, "--shards {shards}: {} differs", b.display());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Faulty runs — a healing link outage plus transient loss, and a
/// permanent cut — restore byte-identically too: outstanding retry
/// state, fault status and delivery accounting all live in the snapshot.
#[test]
fn faulty_runs_restore_byte_identically() {
    check(Block::FaultyRestore);
}

/// Snapshots are execution-mode-independent: a 3-shard capture writes
/// the bytes the serial capture of the same run writes, healthy and
/// faulty alike.
#[test]
fn serial_and_sharded_captures_write_identical_snapshot_files() {
    check(Block::Captures);
}

/// Attribution state rides in the snapshot: a restored run's
/// `attribution.json` is byte-identical to the uninterrupted run's, and
/// so is a capturing run's own.
#[test]
fn restored_attribution_json_is_byte_identical() {
    check(Block::RestoredAttribution);
}

/// Store-and-forward shard windows, whose lookahead comes from the
/// smallest packet the run can send, stay exact sharded and restored.
#[test]
fn store_and_forward_windows_shard_and_restore_exactly() {
    check(Block::StoreAndForward);
}

/// A snapshot captured *with* attribution restores fine into a run
/// without it; the reverse is refused with an actionable error.
#[test]
fn attribution_snapshot_compatibility_is_one_way() {
    let dir = temp_dir("attr-compat");
    let snap = first_snapshot(&dir);
    // No attr record in the snapshot + an attribution run = refusal.
    let mut args = scenario("").args("sim");
    args.extend(s(&[
        "--restore",
        snap.to_str().unwrap(),
        "--attribution",
        dir.join("a.json").to_str().unwrap(),
    ]));
    let err = run(&args).unwrap_err();
    assert!(err.contains("no `attr` record"), "{err}");
    assert!(err.contains("re-create the checkpoint"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Torn and truncated snapshot files are detected and refused — never
/// silently restored.
#[test]
fn torn_snapshots_are_detected_never_restored() {
    let dir = temp_dir("torn");
    let snap = first_snapshot(&dir);
    let text = std::fs::read_to_string(&snap).unwrap();

    // Cut the body anywhere: the FNV body hash in the header no longer
    // matches and the restore is refused with the torn-file diagnostic.
    let torn = dir.join("torn.snap");
    std::fs::write(&torn, &text[..text.len() - 20]).unwrap();
    let mut args = scenario("").args("sim");
    args.extend(s(&["--restore", torn.to_str().unwrap()]));
    let err = run(&args).unwrap_err();
    assert!(err.contains("torn or truncated"), "{err}");

    // Truncating into the header fails the magic/field checks instead.
    std::fs::write(&torn, &text[..12]).unwrap();
    assert!(run(&args).is_err());

    // An empty file is refused too.
    std::fs::write(&torn, "").unwrap();
    let err = run(&args).unwrap_err();
    assert!(err.contains("not a mermaid snapshot"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot whose body hash checks out but whose records do not fit —
/// one integer short in a router record, one too many in a processor
/// record, an event before the instant, addressed outside the machine or
/// from a source other than its key's, a packet whose count or wire time
/// disagrees with what the message size and the network derive — is
/// refused with the same error at every shard count. The watchdog is the
/// point: the sharded restore used to panic in the shard that owned the
/// bad record and leave its peers waiting at the round gate for ever.
#[test]
fn malformed_snapshot_records_fail_sharded_restores_like_serial_ones() {
    use mermaid_network::Snapshot;

    let dir = temp_dir("malformed");
    let good = first_snapshot(&dir);
    let straight = run(&scenario("").args("sim")).unwrap();

    /// Set integer `i` (0-based, after the tag) of event record `n` to
    /// `f` of its value.
    fn set(snap: &mut Snapshot, n: usize, i: usize, f: impl Fn(u64) -> u64) {
        let mut lines: Vec<String> = snap.events.lines().map(String::from).collect();
        let mut ints: Vec<String> = lines[n].split(' ').map(String::from).collect();
        ints[i + 1] = f(ints[i + 1].parse().unwrap()).to_string();
        lines[n] = ints.join(" ");
        snap.events = lines.iter().map(|l| format!("{l}\n")).collect();
    }
    /// Readdress event record 0 to component `dst` with `payload`: its
    /// tag, then its fields.
    fn send(snap: &mut Snapshot, dst: u32, payload: &[u64]) {
        let mut lines: Vec<String> = snap.events.lines().map(String::from).collect();
        let mut ints: Vec<String> = lines[0].split(' ').take(6).map(String::from).collect();
        ints.extend([dst as u64].iter().chain(payload).map(u64::to_string));
        lines[0] = ints.join(" ");
        snap.events = lines.iter().map(|l| format!("{l}\n")).collect();
    }
    let snap = Snapshot::read_file(&good).unwrap();
    let nodes = snap.nodes;
    // The first event carrying a packet (payload tags 1 to 6), and its
    // packet's first integer: after `time push_ps key_src key_seq src dst
    // tag`. Line 4 is the first `event` record.
    let n = (snap.events.lines())
        .position(|l| matches!(l.split(' ').nth(7), Some("1" | "2" | "3" | "4" | "5" | "6")))
        .expect("a packet in flight");
    let (line, p) = (4 + n, 7);
    type Tamper = Box<dyn Fn(&mut Snapshot)>;
    let tampers: Vec<(&str, Tamper, String)> = vec![
        (
            "router",
            Box::new(|snap| {
                snap.routers[0].pop();
            }),
            "corrupt snapshot (router 0 record)".into(),
        ),
        (
            "proc",
            Box::new(|snap| snap.procs[7].push(0)),
            "corrupt snapshot (proc 7 record)".into(),
        ),
        // Event records a restore cannot place: the serial restore used to
        // panic on the first, the sharded one hang, and both silently drop
        // the second.
        (
            "early",
            Box::new(|snap| {
                let t = snap.time.as_ps();
                set(snap, 0, 0, |_| t - 1)
            }),
            "corrupt snapshot (line 4): an event at".into(),
        ),
        (
            "dst",
            Box::new(|snap| set(snap, 0, 5, |_| 99)),
            "corrupt snapshot (line 4): event destination".into(),
        ),
        (
            "src",
            Box::new(|snap| set(snap, 0, 4, |_| 99)),
            "corrupt snapshot (line 4): event source".into(),
        ),
        (
            "src-key",
            Box::new(|snap| set(snap, 0, 4, |src| src ^ 1)),
            "corrupt snapshot (line 4): event source".into(),
        ),
        // Payloads their destination cannot take: a processor's resume at a
        // router, a router's scripted fault at a processor, and a fault-mode
        // retry check in a healthy run. Each used to panic the handler at run
        // time, and the sharded restore hung on the panicked shard.
        (
            "payload-router",
            Box::new(|snap| send(snap, 0, &[0])),
            "corrupt snapshot (line 4): an event with payload tag 0 cannot go to component 0, a router"
                .into(),
        ),
        (
            "payload-proc",
            Box::new(move |snap| send(snap, nodes + 1, &[7, 3, 0, 0])),
            format!("corrupt snapshot (line 4): an event with payload tag 7 cannot go to component {}, a processor", nodes + 1),
        ),
        (
            "retry",
            Box::new(move |snap| send(snap, nodes, &[8, 0, 0])),
            "corrupt snapshot (line 4): a retry check or receive deadline in a run without faults"
                .into(),
        ),
        (
            "count",
            Box::new(move |snap| set(snap, n, p + 4, |c| c + 1)),
            format!("corrupt snapshot (line {line}): the packet count"),
        ),
        (
            "wire",
            Box::new(move |snap| set(snap, n, p + 16, |w| w + 1)),
            format!("corrupt snapshot (line {line}): the path's wire time"),
        ),
    ];
    for (tag, tamper, want) in tampers {
        let mut snap = snap.clone();
        tamper(&mut snap);
        let bad = dir.join(format!("bad-{tag}.snap"));
        snap.write_file(&bad).unwrap();

        let mut serial_args = scenario("").args("sim");
        serial_args.extend(s(&["--restore", bad.to_str().unwrap()]));
        let serial_err = run(&serial_args).unwrap_err();
        assert!(serial_err.starts_with(&want), "{serial_err}");

        for shards in ["2", "3"] {
            let mut args = serial_args.clone();
            args.extend(s(&["--shards", shards]));
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || tx.send(run(&args)).ok());
            let outcome = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("--shards {shards} restore of bad-{tag}.snap hung"));
            assert_eq!(
                outcome.unwrap_err(),
                serial_err,
                "--shards {shards} ({tag})"
            );
        }
    }
    // The untampered file still restores at every shard count.
    for shards in ["1", "2", "3"] {
        let mut args = scenario("").args("sim");
        args.extend(s(&[
            "--restore",
            good.to_str().unwrap(),
            "--shards",
            shards,
        ]));
        assert_eq!(straight, run(&args).unwrap(), "--shards {shards}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden fixture of a complete snapshot file for a pinned tiny run: the
/// on-disk format — header fields, record layout, integer encodings,
/// body hash — is a persistence contract (DESIGN.md §16). Any drift must
/// bump `schema=` and be blessed deliberately.
#[test]
fn golden_snapshot_fixture() {
    let dir = temp_dir("golden");
    let first = capture(&scenario("topo=ring:4 phases=1 ops=300"), 200_000, &dir).remove(0);
    let got = std::fs::read_to_string(&first).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Header shape: magic, schema, config hash, nodes, instant, body hash.
    let header = got.lines().next().unwrap();
    assert!(
        header.starts_with("mermaid-snapshot-v1 schema=1 config="),
        "{header}"
    );
    assert!(header.contains("nodes=4"), "{header}");
    assert!(header.contains("time=200000"), "{header}");
    assert!(got.trim_end().ends_with("end"), "missing end marker");

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot_ring4.snap");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — run `BLESS=1 cargo test --test checkpoint_conformance`",
            golden.display()
        )
    });
    assert_eq!(
        got, want,
        "snapshot format drifted — if intentional, bump SNAPSHOT_SCHEMA, regenerate with \
         `BLESS=1 cargo test --test checkpoint_conformance`, and document it in DESIGN.md §16"
    );
}
