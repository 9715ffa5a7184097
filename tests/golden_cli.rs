//! Golden-file snapshot tests for the CLI.
//!
//! Each case runs an exact `mermaid-cli` invocation in-process (via
//! [`mermaid::cli::run`]) and compares the rendered output byte-for-byte
//! against a checked-in snapshot under `tests/golden/`. Only fully
//! deterministic invocations are snapshotted — task-level simulations
//! (no wall-clock slowdown lines) and static reports.
//!
//! To regenerate the snapshots after an intentional output change:
//!
//! ```text
//! BLESS=1 cargo test --test golden_cli
//! ```
//!
//! then review the diff under `tests/golden/` like any other code change.

use std::path::PathBuf;

mod common;
use common::Block;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Run a CLI invocation (its words separated by spaces) and compare (or,
/// with `BLESS=1`, rewrite) its golden snapshot.
fn check(name: &str, cmd: &str) {
    check_text(name, &cli(&words(cmd)), cmd);
}

fn words(cmd: &str) -> Vec<&str> {
    cmd.split(' ').collect()
}

fn cli(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    mermaid::cli::run(&args).unwrap_or_else(|e| panic!("`{}` failed: {e}", args.join(" ")))
}

/// Compare `out` (produced by `what`) against the golden file `name`.
fn check_text(name: &str, out: &str, what: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — run `BLESS=1 cargo test --test golden_cli` to create it",
            path.display()
        )
    });
    assert_eq!(
        out,
        want,
        "output of `{what}` drifted from {} — if intentional, regenerate with \
         `BLESS=1 cargo test --test golden_cli` and review the diff",
        path.display()
    );
}

#[test]
fn golden_table1() {
    check("table1.txt", "table1");
}

#[test]
fn golden_topo_report() {
    check("topo_mesh4x4.txt", "topo mesh:4x4");
}

#[test]
fn golden_task_sim_healthy() {
    check(
        "sim_task_healthy.txt",
        "sim --machine test --topology mesh:4x4 --mode task --phases 2 --pattern all2all --seed 5",
    );
}

#[test]
fn golden_task_sim_faulty_partition() {
    // The acceptance scenario: corner node 15 of a 4×4 mesh loses both
    // links permanently; the snapshot pins the degraded-mode report
    // (unreachable pairs, retry counts) exactly.
    check(
        "sim_task_faulty_partition.txt",
        "sim --machine test --topology mesh:4x4 --mode task --phases 2 --pattern all2all --seed 5 \
         --faults link:15-11:0;link:15-14:0 --fault-seed 3",
    );
}

#[test]
fn golden_task_sim_faulty_transient() {
    // A healing outage plus background loss: everything is delivered, but
    // the fault headline records the drops and retransmissions.
    check(
        "sim_task_faulty_transient.txt",
        "sim --machine test --topology ring:8 --mode task --phases 2 --pattern all2all --seed 5 \
         --faults link:0-1:2000:60000;drop:20000 --fault-seed 9",
    );
}

#[test]
fn golden_analyze_task_torus() {
    // The bottleneck-attribution report: latency decomposition table,
    // hotspot rankings, and the utilization heatmap, pinned byte-for-byte.
    check(
        "analyze_task_torus.txt",
        "analyze --machine test --topology torus:4x4 --phases 2 --pattern all2all --seed 5",
    );
}

#[test]
fn golden_analyze_faulty_ring() {
    // Attribution under fault pressure: the retry component and the fault
    // activity line join the report.
    check(
        "analyze_faulty_ring.txt",
        "analyze --machine test --topology ring:8 --phases 2 --pattern all2all --seed 5 \
         --faults link:0-1:2000:60000;drop:20000 --fault-seed 9",
    );
}

#[test]
fn golden_analyze_is_shard_invariant() {
    // The analyze snapshot above, re-run on 3 shards, prints the serial
    // bytes.
    common::check(Block::AnalyzeSharded);
}

#[test]
fn golden_faulty_runs_are_shard_invariant() {
    // The partition and healthy snapshots above, re-run on 3 shards, print
    // the serial bytes.
    common::check(Block::SimSharded);
}

use mermaid_tracegen::CommPattern;

/// Every `--pattern` value with the pattern it names.
const PATTERNS: [(&str, CommPattern); 6] = [
    ("none", CommPattern::None),
    ("ring", CommPattern::NearestNeighborRing),
    ("all2all", CommPattern::AllToAll),
    ("master", CommPattern::MasterWorker),
    ("random", CommPattern::RandomPermutation),
    ("butterfly", CommPattern::Butterfly),
];

/// One document holding `sim` stdout for the scenarios of `block`: 2
/// machines × 2 topologies × 6 patterns. Every section starts with a
/// `## <args>` line, so `scripts/check.sh` can replay the file against the
/// release binary. Detailed mode's host-time `slowdown` line is dropped.
fn sim_matrix(block: Block) -> String {
    let mut doc = String::new();
    for row in common::rows(block) {
        let c = &row.scenario.cfg;
        let args = format!(
            "sim --machine {} --topology {} --pattern {} --phases {} --ops {} --mode {}",
            c.machine, c.topo, c.pattern, c.phases, c.ops, c.mode
        );
        doc.push_str(&format!("## {args}\n"));
        let out = cli(&words(&args));
        for line in out.lines().filter(|l| !l.starts_with("slowdown ")) {
            doc.push_str(line);
            doc.push('\n');
        }
    }
    doc
}

#[test]
fn golden_detailed_sims() {
    // Generated by the code that materialised every trace before the first
    // operation was simulated; the streamed run path must land on the same
    // bytes, serial and sharded.
    let block = Block::DetailedSharded;
    check_text(
        "sim_detailed.txt",
        &sim_matrix(block),
        "sim --mode detailed",
    );
    common::check(block);
}

#[test]
fn golden_direct_sims() {
    // Direct execution is a node model in front of the same communication
    // phase, so it is held to the same serial/sharded bit-identity.
    let block = Block::DirectSharded;
    check_text("sim_direct.txt", &sim_matrix(block), "sim --mode direct");
    common::check(block);
}

#[test]
fn golden_analyze_detailed() {
    check(
        "analyze_detailed_mesh.txt",
        "analyze --machine ppc601 --topology mesh:2x2 --pattern all2all --phases 3 --ops 300 \
         --mode detailed",
    );
}

#[test]
fn golden_detailed_campaign_record() {
    use mermaid::campaign::{run_campaign, CampaignOptions, CampaignSpec, RUNS_FILE};
    let spec_text = "topo = mesh:2x2; machine = ppc601; pattern = all2all; mode = detailed; \
                     phases = 3; ops = 300; seed = 7";
    let dir = std::env::temp_dir().join(format!("mermaid-golden-campaign-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    run_campaign(
        &CampaignSpec::parse(spec_text).unwrap(),
        &CampaignOptions {
            out_dir: dir.clone(),
            jobs: 1,
            limit: None,
            progress: false,
            attribution: true,
            checkpoint_every_ps: None,
        },
    )
    .unwrap();
    let record = std::fs::read_to_string(dir.join(RUNS_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    check_text("campaign_detailed_run.jsonl", &record, spec_text);
}

#[test]
fn golden_trace_hashes() {
    // FNV-1a-64 over the binary codec's encoding of `generate()`: pins
    // every operation of every node, including the order in which the
    // per-node and the shared random streams are drawn.
    use mermaid_network::snapshot::fnv1a64;
    use mermaid_tracegen::{SizeDist, StochasticApp, StochasticGenerator};
    let mut table = String::new();
    for (name, pattern) in PATTERNS {
        for seed in [7u64, 23] {
            for (label, ops_per_phase) in [
                ("fixed:300", SizeDist::Fixed(300)),
                ("uniform:200-400", SizeDist::Uniform(200, 400)),
            ] {
                let app = StochasticApp {
                    phases: 3,
                    ops_per_phase,
                    pattern,
                    msg_bytes: SizeDist::Uniform(64, 4096),
                    ..StochasticApp::scientific(8)
                };
                let traces = StochasticGenerator::new(app, seed).generate();
                let bytes: Vec<u8> = mermaid_ops::codec::encode_trace_set(&traces)
                    .iter()
                    .flat_map(|b| b.iter().copied())
                    .collect();
                table.push_str(&format!(
                    "{name} seed={seed} ops={label} total={} fnv1a64={:016x}\n",
                    traces.total_ops(),
                    fnv1a64(&bytes)
                ));
            }
        }
    }
    check_text("trace_hashes.txt", &table, "StochasticGenerator::generate");
}

/// The environment variable through which [`cli_stderr`] hands its
/// arguments (newline-separated) to [`stderr_child`].
const CHILD_ARGS: &str = "MERMAID_CLI_ARGS";

/// The CLI's stderr for `args`. `--watch` prints its progress lines there,
/// which a test cannot capture in-process, so this re-runs the test binary
/// on [`stderr_child`] alone with the output capture off.
fn cli_stderr(args: &[&str]) -> String {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "stderr_child",
            "--exact",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .env(CHILD_ARGS, args.join("\n"))
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        out.status.success(),
        "`{}` failed: {stderr}",
        args.join(" ")
    );
    stderr
}

/// The child half of [`cli_stderr`]; does nothing in an ordinary run.
#[test]
fn stderr_child() {
    if let Ok(args) = std::env::var(CHILD_ARGS) {
        cli(&args.split('\n').collect::<Vec<_>>());
    }
}

/// Two `--watch` runs: the README example (two samples) and a longer one
/// (twenty-one samples, the last taken when the event set drains).
const WATCH_RUNS: [(&str, &str); 2] = [
    (
        "watch_t805_mesh",
        "sim --machine t805 --topology mesh:4x4 --mode task --watch",
    ),
    (
        "watch_test_torus_all2all",
        "sim --machine test --topology torus:4x4 --mode task --pattern all2all --phases 4 --watch",
    ),
];

/// The stdout line `--watch` adds.
fn sparkline_line(out: &str) -> String {
    out.lines()
        .filter(|l| l.starts_with("messages over time: "))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn golden_watch_progress() {
    // Blessed by the observer loop `--watch` ran on before it became a
    // progress hook on the one run path: the stderr progress lines and the
    // sparkline must not move.
    for (name, cmd) in WATCH_RUNS {
        let args = words(cmd);
        check_text(&format!("{name}.stderr"), &cli_stderr(&args), cmd);
        let sparkline = sparkline_line(&cli(&args));
        check_text(&format!("{name}.sparkline"), &sparkline, cmd);
    }
}

/// `WATCH_RUNS`' many-sample run, without `--watch`, plus `extra`.
fn torus_run<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let args = words(WATCH_RUNS[1].1);
    [&args[..args.len() - 1], extra].concat()
}

/// `out` without its `messages over time:` line.
fn without_sparkline(out: &str) -> String {
    out.lines()
        .filter(|l| !l.starts_with("messages over time: "))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn watch_adds_one_sparkline_line_after_the_report_table() {
    // `--watch` runs through the same run path as every other `sim`: its
    // stdout is the unwatched stdout plus the sparkline, placed right
    // after the mode's report table — in detailed mode and under faults
    // too (detailed mode's host-time `slowdown` line aside).
    let faults = words("--faults link:0-1:2000:60000;drop:20000 --fault-seed 9");
    let detailed =
        words("sim --machine test --topology ring:4 --mode detailed --phases 2 --ops 300");
    let drop_slowdown = |out: &str| -> String {
        out.lines()
            .filter(|l| !l.starts_with("slowdown "))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    for (args, next) in [
        (torus_run(&[]), None),
        (torus_run(&faults), Some("\nfault injection: ")),
        (detailed, Some("\nslowdown ")),
    ] {
        let watch = [&args[..], &["--watch"]].concat();
        let (plain, watched) = (cli(&args), cli(&watch));
        assert_eq!(
            drop_slowdown(&without_sparkline(&watched)),
            drop_slowdown(&plain)
        );
        let spark = sparkline_line(&watched);
        assert_eq!(spark.lines().count(), 1, "{watched}");
        let at = watched.find(&spark).unwrap() + spark.len();
        match next {
            Some(next) => assert!(watched[at..].starts_with(next), "{watched}"),
            None => assert_eq!(at, watched.len(), "{watched}"),
        }
        // Progress lines only; the last one reports every node done.
        let stderr = cli_stderr(&watch);
        assert!(stderr.lines().all(|l| l.starts_with("t=")), "{stderr}");
        let done = stderr
            .lines()
            .last()
            .unwrap()
            .split("done=")
            .nth(1)
            .unwrap();
        let (finished, nodes) = done.split_once('/').unwrap();
        assert_eq!(finished, nodes, "{stderr}");
    }
}

/// A fresh scratch directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mermaid-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The files in `dir`, sorted by name, with their bytes.
fn dir_files(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn watch_composes_with_checkpoints_and_restore() {
    let (watched_dir, plain_dir) = (scratch_dir("watch-ckpt"), scratch_dir("plain-ckpt"));
    let ckpt = |dir: &PathBuf| {
        let dir = dir.to_str().unwrap().to_string();
        [
            "--checkpoint-every".to_string(),
            "20000000".into(),
            "--checkpoint-dir".into(),
            dir,
        ]
    };
    let (watched_ckpt, plain_ckpt) = (ckpt(&watched_dir), ckpt(&plain_dir));
    let watched_ckpt: Vec<&str> = watched_ckpt.iter().map(String::as_str).collect();
    let plain_ckpt: Vec<&str> = plain_ckpt.iter().map(String::as_str).collect();

    // Checkpointing while watching writes the snapshots an unwatched
    // checkpointed run writes, and prints the progress lines a watched
    // run without checkpoints prints.
    let uninterrupted = cli_stderr(&torus_run(&["--watch"]));
    let watched = cli_stderr(&torus_run(&[&["--watch"][..], &watched_ckpt].concat()));
    assert_eq!(watched, uninterrupted);
    cli(&torus_run(&plain_ckpt));
    let snaps = dir_files(&watched_dir);
    assert!(snaps.len() > 4, "{} snapshot(s)", snaps.len());
    assert_eq!(snaps, dir_files(&plain_dir));

    // A restored watched run prints the uninterrupted run's progress lines
    // after the snapshot's event count — samples fall at absolute
    // multiples of the event count, not at multiples from the restore.
    let snap_path = watched_dir.join(&snaps[snaps.len() / 2].0);
    let snap = mermaid_network::Snapshot::read_file(&snap_path).unwrap();
    assert_ne!(snap.events_processed % mermaid_network::PROGRESS_EVERY, 0);
    let restore = torus_run(&["--watch", "--restore", snap_path.to_str().unwrap()]);
    let events = |line: &str| -> u64 {
        let field = line.split("events=").nth(1).unwrap();
        field.split_whitespace().next().unwrap().parse().unwrap()
    };
    let tail: String = uninterrupted
        .lines()
        .filter(|l| events(l) > snap.events_processed)
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(tail.lines().count() > 2 && tail.len() < uninterrupted.len());
    assert_eq!(cli_stderr(&restore), tail);
    // Its stdout is the uninterrupted run's but for the sparkline, which
    // covers only the samples after the restore.
    let (restored, straight) = (cli(&restore), cli(&torus_run(&["--watch"])));
    assert_eq!(without_sparkline(&restored), without_sparkline(&straight));
    assert_ne!(sparkline_line(&restored), sparkline_line(&straight));

    std::fs::remove_dir_all(&watched_dir).ok();
    std::fs::remove_dir_all(&plain_dir).ok();
}
