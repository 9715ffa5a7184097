//! End-to-end campaign runner tests: determinism, resume, and scale.
//!
//! The campaign contract (DESIGN.md §13) is that the recorded outputs are
//! a pure function of the spec: independent of worker count, of
//! kill/resume boundaries, and of the order runs happen to finish in.
//! These tests drive `mermaid::campaign` through real simulations and
//! compare the persisted artifacts byte-for-byte.
//!
//! The golden CSV and report snapshots follow the `tests/golden_cli.rs`
//! convention: `BLESS=1 cargo test --test campaign_end_to_end` regenerates
//! them.

use std::path::{Path, PathBuf};

use mermaid::campaign::{
    capture_run_checkpoint, checkpoint_path, checkpoints_dir, load_records, run_campaign,
    CampaignOptions, CampaignSpec, CSV_FILE, RUNS_FILE,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mermaid-campaign-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn opts(dir: &Path, jobs: usize) -> CampaignOptions {
    CampaignOptions {
        out_dir: dir.to_path_buf(),
        jobs,
        limit: None,
        progress: false,
        attribution: false,
        checkpoint_every_ps: None,
    }
}

/// The JSONL stream sorted by line (completion order is nondeterministic
/// under parallel execution; content must not be).
fn sorted_jsonl(dir: &Path) -> Vec<String> {
    let data = std::fs::read_to_string(dir.join(RUNS_FILE)).unwrap();
    assert!(data.ends_with('\n'), "stream must end on a record boundary");
    let mut lines: Vec<String> = data.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

fn csv(dir: &Path) -> String {
    std::fs::read_to_string(dir.join(CSV_FILE)).unwrap()
}

/// The aggregated comparison table of a campaign report — the part that
/// must be identical across out dirs and resume histories (the headline
/// legitimately differs: it counts this invocation's new work).
fn report_table(report: &str) -> &str {
    let i = report
        .find("Campaign comparison")
        .expect("report has no comparison table");
    &report[i..]
}

/// Half the shortest predicted time among the runs recorded in `dir`: a
/// checkpoint cadence that captures each run a few times, not hundreds.
fn cadence(dir: &Path) -> u64 {
    let records = load_records(&dir.join(RUNS_FILE)).unwrap();
    records.iter().map(|r| r.predicted_ps).min().unwrap() / 2
}

fn tiny_spec() -> CampaignSpec {
    CampaignSpec::parse(
        "topo = ring:4, mesh:2x2; pattern = ring, all2all; phases = 1; ops = 300; seed = 1, 2",
    )
    .unwrap()
}

#[test]
fn same_spec_twice_is_byte_identical() {
    let spec = tiny_spec();
    let (a, b) = (temp_dir("twice-a"), temp_dir("twice-b"));
    let ra = run_campaign(&spec, &opts(&a, 4)).unwrap();
    let rb = run_campaign(&spec, &opts(&b, 4)).unwrap();
    assert_eq!(ra.executed, 8);
    assert_eq!(rb.executed, 8);
    assert_eq!(sorted_jsonl(&a), sorted_jsonl(&b));
    assert_eq!(csv(&a), csv(&b));
    assert_eq!(
        report_table(&ra.report),
        report_table(&rb.report),
        "aggregated report must match too"
    );
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let spec = tiny_spec();
    let (serial, parallel) = (temp_dir("ser"), temp_dir("par"));
    run_campaign(&spec, &opts(&serial, 1)).unwrap();
    run_campaign(&spec, &opts(&parallel, 8)).unwrap();
    assert_eq!(sorted_jsonl(&serial), sorted_jsonl(&parallel));
    assert_eq!(csv(&serial), csv(&parallel));
    std::fs::remove_dir_all(&serial).ok();
    std::fs::remove_dir_all(&parallel).ok();
}

#[test]
fn detailed_runs_record_the_same_whatever_the_job_count() {
    // `--jobs` decides how many workers each run's computational phase
    // gets (cores / (jobs × shards)); the records must not notice.
    let spec = CampaignSpec::parse(
        "topo = ring:4, mesh:2x2; machine = t805, ppc601; mode = detailed; \
         phases = 2; ops = 400; shards = 1, 2",
    )
    .unwrap();
    let (serial, parallel) = (temp_dir("det-ser"), temp_dir("det-par"));
    let ran = run_campaign(&spec, &opts(&serial, 1)).unwrap();
    assert_eq!(ran.executed, 8);
    run_campaign(&spec, &opts(&parallel, 2)).unwrap();
    assert_eq!(sorted_jsonl(&serial), sorted_jsonl(&parallel));
    assert_eq!(csv(&serial), csv(&parallel));
    std::fs::remove_dir_all(&serial).ok();
    std::fs::remove_dir_all(&parallel).ok();
}

#[test]
fn kill_and_resume_matches_an_uninterrupted_run() {
    let spec = tiny_spec();
    let fresh = temp_dir("fresh");
    run_campaign(&spec, &opts(&fresh, 2)).unwrap();

    // "Kill" the campaign twice by budgeting it to 3 new runs per
    // invocation; each restart re-expands and runs only the gap.
    let resumed = temp_dir("resumed");
    let mut o = opts(&resumed, 2);
    o.limit = Some(3);
    let first = run_campaign(&spec, &o).unwrap();
    assert_eq!((first.executed, first.pending), (3, 5));
    let second = run_campaign(&spec, &o).unwrap();
    assert_eq!(
        (second.recorded_before, second.executed, second.pending),
        (3, 3, 2)
    );
    o.limit = None;
    let last = run_campaign(&spec, &o).unwrap();
    assert_eq!(
        (last.recorded_before, last.executed, last.pending),
        (6, 2, 0)
    );

    assert_eq!(sorted_jsonl(&fresh), sorted_jsonl(&resumed));
    assert_eq!(csv(&fresh), csv(&resumed));
    let fresh_again = run_campaign(&spec, &opts(&fresh, 2)).unwrap();
    assert_eq!(
        report_table(&last.report),
        report_table(&fresh_again.report)
    );
    std::fs::remove_dir_all(&fresh).ok();
    std::fs::remove_dir_all(&resumed).ok();
}

#[test]
fn checkpointed_campaign_resumes_mid_run_byte_identically() {
    let spec = tiny_spec();
    let fresh = temp_dir("ckpt-fresh");
    run_campaign(&spec, &opts(&fresh, 2)).unwrap();

    // Simulate a campaign killed mid-run under `--checkpoint`: fabricate
    // the rolling snapshot one of the runs would have left behind, then
    // resume. The resumed campaign must finish that run from its
    // checkpoint and still produce byte-identical artifacts.
    let resumed = temp_dir("ckpt-resumed");
    let ckdir = checkpoints_dir(&resumed);
    std::fs::create_dir_all(&ckdir).unwrap();
    let victim = spec.expand().unwrap().remove(0);
    let snap = checkpoint_path(&resumed, &victim);
    capture_run_checkpoint(&victim, false, cadence(&fresh), &snap).unwrap();
    assert!(snap.is_file(), "fabricated kill state missing");

    let mut o = opts(&resumed, 2);
    o.checkpoint_every_ps = Some(cadence(&fresh));
    let outcome = run_campaign(&spec, &o).unwrap();
    assert_eq!((outcome.executed, outcome.pending), (8, 0));
    assert_eq!(sorted_jsonl(&fresh), sorted_jsonl(&resumed));
    assert_eq!(csv(&fresh), csv(&resumed));
    // Every run completed, so every rolling checkpoint is spent and gone.
    assert_eq!(
        std::fs::read_dir(&ckdir).unwrap().count(),
        0,
        "completed runs must delete their checkpoints"
    );
    std::fs::remove_dir_all(&fresh).ok();
    std::fs::remove_dir_all(&resumed).ok();
}

#[test]
fn a_torn_campaign_checkpoint_is_discarded_and_rerun() {
    let spec = tiny_spec();
    let fresh = temp_dir("ckpt-torn-fresh");
    run_campaign(&spec, &opts(&fresh, 2)).unwrap();

    // A checkpoint torn by a kill mid-write (here: garbage bytes) must be
    // detected, discarded with a warning, and the run restarted from
    // scratch — never silently restored.
    let dir = temp_dir("ckpt-torn");
    let ckdir = checkpoints_dir(&dir);
    std::fs::create_dir_all(&ckdir).unwrap();
    let victim = spec.expand().unwrap().remove(0);
    std::fs::write(checkpoint_path(&dir, &victim), "mermaid-snapshot-v1 sch").unwrap();

    let mut o = opts(&dir, 2);
    o.checkpoint_every_ps = Some(cadence(&fresh));
    run_campaign(&spec, &o).unwrap();
    assert_eq!(sorted_jsonl(&fresh), sorted_jsonl(&dir));
    assert_eq!(csv(&fresh), csv(&dir));
    assert_eq!(std::fs::read_dir(&ckdir).unwrap().count(), 0);
    std::fs::remove_dir_all(&fresh).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_final_line_is_dropped_and_reexecuted() {
    let spec = tiny_spec();
    let dir = temp_dir("torn");
    run_campaign(&spec, &opts(&dir, 1)).unwrap();
    let clean_jsonl = sorted_jsonl(&dir);
    let clean_csv = csv(&dir);

    // Tear the final record mid-write: strip the trailing newline and
    // half the last line — the footprint of a SIGKILL during append.
    let path = dir.join(RUNS_FILE);
    let data = std::fs::read_to_string(&path).unwrap();
    let keep = data.len() - 40;
    std::fs::write(&path, &data[..keep]).unwrap();
    assert_eq!(load_records(&path).unwrap().len(), 7, "torn tail dropped");

    // Resume: exactly the torn run re-executes, and the artifacts heal to
    // byte-identical.
    let outcome = run_campaign(&spec, &opts(&dir, 1)).unwrap();
    assert_eq!((outcome.recorded_before, outcome.executed), (7, 1));
    assert_eq!(sorted_jsonl(&dir), clean_jsonl);
    assert_eq!(csv(&dir), clean_csv);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hundred_run_grid_completes_in_one_invocation() {
    // The acceptance-criteria scale test: a ≥100-run grid, streamed in a
    // single invocation. 3 topologies × 2 patterns × 3 seeds × 3 phase
    // counts × 2 ops values = 108 runs, each a real simulation.
    let spec = CampaignSpec::parse(
        "topo = ring:4, mesh:2x2, full:4; pattern = ring, all2all; \
         seed = 1, 2, 3; phases = 1, 2, 3; ops = 100, 200",
    )
    .unwrap();
    assert_eq!(spec.expand().unwrap().len(), 108);
    let dir = temp_dir("grid108");
    let outcome = run_campaign(&spec, &opts(&dir, 8)).unwrap();
    assert_eq!(
        (outcome.expanded, outcome.executed, outcome.pending),
        (108, 108, 0)
    );
    assert_eq!(sorted_jsonl(&dir).len(), 108);
    // Every record is loadable and keyed by its own config's hash.
    let records = load_records(&dir.join(RUNS_FILE)).unwrap();
    assert_eq!(records.len(), 108);
    for r in &records {
        assert_eq!(r.config_hash, r.config.config_hash());
        assert!(r.all_done);
        assert!(r.predicted_ps > 0);
    }
    // The CSV view covers every run plus a header.
    assert_eq!(csv(&dir).lines().count(), 109);
    // Immediately re-running does zero new work.
    let again = run_campaign(&spec, &opts(&dir, 8)).unwrap();
    assert_eq!((again.recorded_before, again.executed), (108, 0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn attribution_headlines_are_recorded_and_shard_invariant() {
    // `shards` participates in the grid, so the same workload runs once
    // serial and once on 3 workers; the attribution headline is derived
    // from the deterministic probe stream and must not notice.
    let spec = CampaignSpec::parse(
        "topo = torus:2x2; pattern = all2all; machine = test; \
         phases = 1; ops = 300; shards = 1, 3",
    )
    .unwrap();
    let dir = temp_dir("attr");
    let mut o = opts(&dir, 2);
    o.attribution = true;
    run_campaign(&spec, &o).unwrap();

    let records = load_records(&dir.join(RUNS_FILE)).unwrap();
    assert_eq!(records.len(), 2);
    let heads: Vec<_> = records
        .iter()
        .map(|r| r.attribution.clone().expect("headline recorded"))
        .collect();
    assert_eq!(
        heads[0], heads[1],
        "attribution must not depend on shard count"
    );
    assert!(heads[0].max_link_util_ppm > 0);
    let summary = csv(&dir);
    assert!(summary.contains("attr_dominant"));
    assert!(summary.contains(&heads[0].dominant));
    std::fs::remove_dir_all(&dir).ok();
}

/// The `predicted time:` line of a `sim` or `analyze` report.
fn predicted_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("predicted time: "))
        .expect("report has no predicted-time line")
}

#[test]
fn sim_analyze_and_campaign_agree_on_every_run() {
    // One run path behind three front doors: the same configuration must
    // predict the same picosecond whether `sim` prints it, `analyze`
    // prints it or a campaign records it — in both modes, healthy and
    // faulty, serial and sharded.
    let spec = CampaignSpec::parse(
        "topo = torus:2x2; machine = test; pattern = all2all; phases = 2; ops = 300; \
         mode = task, detailed; faults = none, drop:20000; shards = 1, 3",
    )
    .unwrap();
    let dir = temp_dir("front-doors");
    run_campaign(&spec, &opts(&dir, 2)).unwrap();
    let records = load_records(&dir.join(RUNS_FILE)).unwrap();
    assert_eq!(records.len(), 8);
    let cli = |args: &[String]| mermaid::cli::run(args).unwrap();
    for rec in &records {
        let c = &rec.config;
        let mut flags: Vec<String> = [
            ("--machine", &c.machine),
            ("--topology", &c.topo),
            ("--app", &c.app),
            ("--pattern", &c.pattern),
            ("--phases", &c.phases.to_string()),
            ("--ops", &c.ops.to_string()),
            ("--seed", &c.seed.to_string()),
            ("--mode", &c.mode),
            ("--shards", &c.shards.to_string()),
        ]
        .iter()
        .flat_map(|(flag, value)| [flag.to_string(), value.to_string()])
        .collect();
        if c.faults != "none" {
            flags.extend(["--faults".to_string(), c.faults.replace('+', ";")]);
            flags.extend(["--fault-seed".to_string(), c.fault_seed.to_string()]);
        }
        let with = |cmd: &str| [vec![cmd.to_string()], flags.clone()].concat();
        let want = format!("predicted time: {}", pearl::Time::from_ps(rec.predicted_ps));
        let sim = cli(&with("sim"));
        assert_eq!(predicted_line(&sim), want, "sim vs record of {c:?}");
        assert_eq!(
            predicted_line(&cli(&with("analyze"))),
            want,
            "analyze vs record of {c:?}"
        );

        // The identity a checkpoint binds to is the campaign's config hash
        // of the equivalent one-shard task run: the rolling checkpoint a
        // killed `campaign --checkpoint` leaves behind restores under
        // `sim --restore` with the same flags, on any shard count.
        // At half the run's predicted time, the cadence rewrites the
        // snapshot twice in the healthy run and 73 times in the faulty one,
        // whose stale retry and watchdog timers run on long past its finish.
        if c.mode == "task" && c.shards == 1 {
            let snap = dir.join("killed.snap");
            capture_run_checkpoint(c, false, rec.predicted_ps / 2, &snap).unwrap();
            for shards in ["1", "3"] {
                let mut args = with("sim");
                let at = args.iter().position(|a| a == "--shards").unwrap() + 1;
                args[at] = shards.to_string();
                args.extend(["--restore".to_string(), snap.display().to_string()]);
                assert_eq!(cli(&args), sim, "restored on {shards} shard(s): {c:?}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The check.sh smoke campaign: two workloads (`ring`, `all2all`)
/// interleaved in expansion order, and in each of them `mesh:2x2` and
/// `torus:2x2` tie on predicted time, so the hash tie-break decides ranks.
fn smoke_spec() -> CampaignSpec {
    CampaignSpec::parse(
        "topo = ring:4, mesh:2x2, torus:2x2; pattern = ring, all2all; \
         machine = test; phases = 2; ops = 500; seed = 5",
    )
    .unwrap()
}

/// Compare `got` with `tests/golden/<name>` (or, with `BLESS=1`, rewrite
/// the golden file).
fn assert_golden(name: &str, got: &str) {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — run `BLESS=1 cargo test --test campaign_end_to_end`",
            golden.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} drifted — if intentional, regenerate with \
         `BLESS=1 cargo test --test campaign_end_to_end` and review the diff"
    );
}

#[test]
fn golden_campaign_summary_csv() {
    // Snapshot of the CSV view for the check.sh smoke campaign. The same
    // spec runs there against the installed binary; here it pins the
    // exact bytes. BLESS=1 regenerates after intentional changes.
    let dir = temp_dir("golden");
    run_campaign(&smoke_spec(), &opts(&dir, 2)).unwrap();
    let got = csv(&dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_golden("campaign_summary.csv", &got);
}

#[test]
fn golden_campaign_report() {
    // Snapshot of the resumed smoke campaign's stdout without its two
    // path lines (`records:`, `csv:`), which name the output directory.
    // check.sh diffs the installed binary's resumed report against it.
    let dir = temp_dir("golden-report");
    run_campaign(&smoke_spec(), &opts(&dir, 2)).unwrap();
    let resumed = run_campaign(&smoke_spec(), &opts(&dir, 2)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let got: String = resumed
        .report
        .lines()
        .filter(|l| !l.starts_with("records: ") && !l.starts_with("csv: "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_golden("campaign_report.txt", &got);
}
