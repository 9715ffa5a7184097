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
/// record, an event before the instant or addressed outside the machine —
/// is refused with the same error at every shard count. The watchdog is
/// the point: the sharded restore used to panic in the shard that owned
/// the bad record and leave its peers waiting at the round gate for ever.
#[test]
fn malformed_snapshot_records_fail_sharded_restores_like_serial_ones() {
    use mermaid_network::Snapshot;

    let dir = temp_dir("malformed");
    let good = first_snapshot(&dir);
    let straight = run(&scenario("").args("sim")).unwrap();

    fn short_router(snap: &mut Snapshot) {
        snap.routers[0].pop();
    }
    fn long_proc(snap: &mut Snapshot) {
        snap.procs[7].push(0);
    }
    // Event records a restore cannot place: the serial restore used to
    // panic on the first, the sharded one hang, and both silently drop
    // the second. Line 4 is the first `event` record.
    fn early_event(snap: &mut Snapshot) {
        snap.events[0].0 = pearl::Time::from_ps(snap.time.as_ps() - 1);
    }
    fn far_dst(snap: &mut Snapshot) {
        snap.events[0].3 = 99;
    }
    fn far_src(snap: &mut Snapshot) {
        snap.events[0].2 = 99;
    }
    let tampers = [
        (
            "router",
            short_router as fn(&mut Snapshot),
            "corrupt snapshot (router 0 record)",
        ),
        ("proc", long_proc, "corrupt snapshot (proc 7 record)"),
        (
            "early",
            early_event,
            "corrupt snapshot (line 4): an event at",
        ),
        (
            "dst",
            far_dst,
            "corrupt snapshot (line 4): event destination",
        ),
        ("src", far_src, "corrupt snapshot (line 4): event source"),
    ];
    for (tag, tamper, want) in tampers {
        let mut snap = Snapshot::read_file(&good).unwrap();
        tamper(&mut snap);
        let bad = dir.join(format!("bad-{tag}.snap"));
        snap.write_file(&bad).unwrap();

        let mut serial_args = scenario("").args("sim");
        serial_args.extend(s(&["--restore", bad.to_str().unwrap()]));
        let serial_err = run(&serial_args).unwrap_err();
        assert!(serial_err.starts_with(want), "{serial_err}");

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
