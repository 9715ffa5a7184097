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

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Run a CLI invocation and compare (or, with `BLESS=1`, rewrite) its
/// golden snapshot.
fn check(name: &str, args: &[&str]) {
    check_text(name, &cli(args), &args.join(" "));
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
    check("table1.txt", &["table1"]);
}

#[test]
fn golden_topo_report() {
    check("topo_mesh4x4.txt", &["topo", "mesh:4x4"]);
}

#[test]
fn golden_task_sim_healthy() {
    check(
        "sim_task_healthy.txt",
        &[
            "sim",
            "--machine",
            "test",
            "--topology",
            "mesh:4x4",
            "--mode",
            "task",
            "--phases",
            "2",
            "--pattern",
            "all2all",
            "--seed",
            "5",
        ],
    );
}

#[test]
fn golden_task_sim_faulty_partition() {
    // The acceptance scenario: corner node 15 of a 4×4 mesh loses both
    // links permanently; the snapshot pins the degraded-mode report
    // (unreachable pairs, retry counts) exactly.
    check(
        "sim_task_faulty_partition.txt",
        &[
            "sim",
            "--machine",
            "test",
            "--topology",
            "mesh:4x4",
            "--mode",
            "task",
            "--phases",
            "2",
            "--pattern",
            "all2all",
            "--seed",
            "5",
            "--faults",
            "link:15-11:0; link:15-14:0",
            "--fault-seed",
            "3",
        ],
    );
}

#[test]
fn golden_task_sim_faulty_transient() {
    // A healing outage plus background loss: everything is delivered, but
    // the fault headline records the drops and retransmissions.
    check(
        "sim_task_faulty_transient.txt",
        &[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:8",
            "--mode",
            "task",
            "--phases",
            "2",
            "--pattern",
            "all2all",
            "--seed",
            "5",
            "--faults",
            "link:0-1:2000:60000; drop:20000",
            "--fault-seed",
            "9",
        ],
    );
}

#[test]
fn golden_analyze_task_torus() {
    // The bottleneck-attribution report: latency decomposition table,
    // hotspot rankings, and the utilization heatmap, pinned byte-for-byte.
    check(
        "analyze_task_torus.txt",
        &[
            "analyze",
            "--machine",
            "test",
            "--topology",
            "torus:4x4",
            "--phases",
            "2",
            "--pattern",
            "all2all",
            "--seed",
            "5",
        ],
    );
}

#[test]
fn golden_analyze_faulty_ring() {
    // Attribution under fault pressure: the retry component and the fault
    // activity line join the report.
    check(
        "analyze_faulty_ring.txt",
        &[
            "analyze",
            "--machine",
            "test",
            "--topology",
            "ring:8",
            "--phases",
            "2",
            "--pattern",
            "all2all",
            "--seed",
            "5",
            "--faults",
            "link:0-1:2000:60000; drop:20000",
            "--fault-seed",
            "9",
        ],
    );
}

#[test]
fn golden_analyze_is_shard_invariant() {
    // The analyze snapshot re-run on 3 shards must land on the same
    // golden bytes as the serial snapshot above.
    if std::env::var_os("BLESS").is_some() {
        return; // blessing is done by the serial test
    }
    let args: Vec<String> = [
        "analyze",
        "--machine",
        "test",
        "--topology",
        "torus:4x4",
        "--phases",
        "2",
        "--pattern",
        "all2all",
        "--seed",
        "5",
        "--shards",
        "3",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = mermaid::cli::run(&args).unwrap();
    let want =
        std::fs::read_to_string(golden_dir().join("analyze_task_torus.txt")).unwrap_or_else(|_| {
            panic!("missing golden file — run `BLESS=1 cargo test --test golden_cli`")
        });
    assert_eq!(
        out, want,
        "sharded analyze diverged from the serial snapshot"
    );
}

#[test]
fn golden_faulty_runs_are_shard_invariant() {
    // The faulty snapshots above are single-threaded; this pins the same
    // invocation with `--shards 3` to the same golden file, so the
    // snapshot itself witnesses serial/sharded bit-identity.
    for (name, faults) in [
        (
            "sim_task_faulty_partition.txt",
            "link:15-11:0; link:15-14:0",
        ),
        ("sim_task_healthy.txt", ""),
    ] {
        if std::env::var_os("BLESS").is_some() {
            continue; // blessing is done by the serial tests
        }
        let mut args = vec![
            "sim",
            "--machine",
            "test",
            "--topology",
            "mesh:4x4",
            "--mode",
            "task",
            "--phases",
            "2",
            "--pattern",
            "all2all",
            "--seed",
            "5",
            "--shards",
            "3",
        ];
        if !faults.is_empty() {
            args.extend(["--faults", faults, "--fault-seed", "3"]);
        }
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let out = mermaid::cli::run(&args).unwrap();
        let want = std::fs::read_to_string(golden_dir().join(name)).unwrap_or_else(|_| {
            panic!("missing golden file {name} — run `BLESS=1 cargo test --test golden_cli`")
        });
        assert_eq!(
            out, want,
            "sharded run diverged from the serial snapshot {name}"
        );
    }
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

/// One document holding `sim --mode <mode>` stdout over 2 machines × 2
/// topologies × 6 patterns. Every section starts with a `## <args>` line,
/// so `scripts/check.sh` can replay the file against the release binary.
/// Detailed mode's host-time `slowdown` line is dropped.
fn sim_matrix(mode: &str, extra: &[&str]) -> String {
    let mut doc = String::new();
    for machine in ["test", "ppc601"] {
        for topo in ["mesh:2x2", "ring:8"] {
            for (pattern, _) in PATTERNS {
                let args = [
                    "sim",
                    "--machine",
                    machine,
                    "--topology",
                    topo,
                    "--pattern",
                    pattern,
                    "--phases",
                    "3",
                    "--ops",
                    "300",
                    "--mode",
                    mode,
                ];
                doc.push_str(&format!("## {}\n", args.join(" ")));
                let out = cli(&[&args[..], extra].concat());
                for line in out.lines().filter(|l| !l.starts_with("slowdown ")) {
                    doc.push_str(line);
                    doc.push('\n');
                }
            }
        }
    }
    doc
}

#[test]
fn golden_detailed_sims() {
    // Generated by the code that materialised every trace before the first
    // operation was simulated; the streamed run path must land on the same
    // bytes, serial and sharded.
    check_text(
        "sim_detailed.txt",
        &sim_matrix("detailed", &[]),
        "sim --mode detailed",
    );
    if std::env::var_os("BLESS").is_none() {
        check_text(
            "sim_detailed.txt",
            &sim_matrix("detailed", &["--shards", "3"]),
            "sim --mode detailed --shards 3",
        );
    }
}

#[test]
fn golden_direct_sims() {
    check_text(
        "sim_direct.txt",
        &sim_matrix("direct", &[]),
        "sim --mode direct",
    );
}

#[test]
fn golden_analyze_detailed() {
    check(
        "analyze_detailed_mesh.txt",
        &[
            "analyze",
            "--machine",
            "ppc601",
            "--topology",
            "mesh:2x2",
            "--pattern",
            "all2all",
            "--phases",
            "3",
            "--ops",
            "300",
            "--mode",
            "detailed",
        ],
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
