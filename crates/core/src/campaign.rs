//! The campaign runner: thousands of resumable scenarios per invocation.
//!
//! The paper's whole point is the *workbench* — rapid exploration of large
//! (topology × workload × fault) design spaces, not one run at a time. A
//! [`CampaignSpec`] declaratively describes a grid (or a seeded random
//! sample of one) over topology shape/size, machine, communication
//! pattern, phase/ops counts, trace seeds, fault schedules, and shard
//! counts. The spec expands into a deterministic run list; runs fan out
//! over [`crate::sweep::parallel_sweep_streaming`] and append one
//! self-contained JSONL record each — config, predicted time,
//! [`DeliveryStats`], key counters, and latency tail percentiles — as they
//! finish. Records are keyed by a stable config hash, so a restarted
//! campaign re-expands the spec, diffs it against the JSONL, and runs only
//! the gap (DESIGN.md §13).
//!
//! ## Spec grammar
//!
//! Clauses are separated by `;` or newlines and `#` starts a comment —
//! the same conventions as the `--faults` spec grammar. Each clause is
//! `key = value, value, …`; list values are the grid's alternatives:
//!
//! ```text
//! topo       = ring:8, torus:4x4, hypercube:3    # required, ≥1
//! machine    = test                              # default: test
//! app        = scientific                        # default: scientific
//! pattern    = ring, all2all                     # default: ring
//! phases     = 2, 4                              # default: 5
//! ops        = 2000                              # default: 5000
//! seed       = 1, 2, 3                           # default: 1
//! mode       = task                              # default: task (or detailed)
//! shards     = 1                                 # default: 1 (per-run threads)
//! faults     = none, link:0-1:1000:5000+drop:500 # default: none ('+' joins clauses)
//! fault-seed = 1                                 # default: 1
//! sample     = 100 @ 7                           # optional: N runs, shuffle seed
//! ```
//!
//! A fault alternative is a whole `--faults` spec with `+` in place of the
//! clause separator (which is taken by the campaign grammar). `sample`
//! replaces the full cartesian product by a seeded random subset —
//! deterministic, and stable under resume because selection happens on the
//! expanded grid before any run starts.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use mermaid_network::{CheckpointOpts, RetryParams, RunOptions, Snapshot, Topology};
use mermaid_stats::csv::csv_line;
use mermaid_stats::DeliveryStats;
use pearl::{Duration, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::cli::{parse_ops, parse_phases, unsigned};
use crate::prelude::*;
pub use crate::run::RunConfig;
use crate::run::{
    parse_fault_token, parse_machine, parse_mix, parse_pattern, parse_topology, Mode,
};
use crate::{report, sweep};

/// Hard ceiling on the expanded run-list size; bigger grids must use
/// `sample = N @ SEED`.
pub const MAX_RUNS: usize = 1_000_000;

/// The per-run JSONL stream inside the campaign output directory.
pub const RUNS_FILE: &str = "runs.jsonl";
/// The RFC-4180 CSV view regenerated after every campaign invocation.
pub const CSV_FILE: &str = "summary.csv";

/// Per-run bottleneck-attribution headline, recorded when the campaign
/// runs with attribution enabled: which latency component dominated the
/// delivered messages and how hot the busiest link ran. Deterministic and
/// shard-invariant, like the full `attribution.json` it is distilled from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrHeadline {
    /// Name of the dominant latency component (`queue`, `wire`, …).
    pub dominant: String,
    /// The dominant component's share of total summed latency, in ppm.
    pub dominant_share_ppm: u64,
    /// Utilization of the busiest link over the run horizon, in ppm.
    pub max_link_util_ppm: u64,
}

/// One self-contained campaign record: everything a later analysis pass
/// needs without re-running the simulation. Serialised as one JSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRecord {
    /// Stable key of [`RunConfig`] (see [`RunConfig::config_hash`]).
    pub config_hash: String,
    /// The full configuration, embedded so each line stands alone.
    pub config: RunConfig,
    /// Predicted execution time, picoseconds.
    pub predicted_ps: u64,
    /// Whether every node completed its trace.
    pub all_done: bool,
    /// Simulation events processed.
    pub events: u64,
    /// Operations simulated.
    pub ops_simulated: u64,
    /// Messages delivered end-to-end.
    pub msgs_delivered: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Message-latency percentiles from the run's log₂ histogram (ps).
    pub latency_p50_ps: u64,
    /// 90th percentile message latency (ps).
    pub latency_p90_ps: u64,
    /// 99th percentile message latency (ps).
    pub latency_p99_ps: u64,
    /// Largest observed message latency (ps).
    pub latency_max_ps: u64,
    /// Delivery accounting (all-zero outside fault mode).
    pub delivery: DeliveryStats,
    /// Attribution headline (`None` unless the campaign ran with
    /// attribution enabled).
    pub attribution: Option<AttrHeadline>,
}

impl CampaignRecord {
    /// The CSV header matching [`CampaignRecord::csv_row`].
    pub fn csv_header() -> String {
        csv_line(&[
            "config_hash",
            "machine",
            "topology",
            "app",
            "pattern",
            "phases",
            "ops",
            "seed",
            "mode",
            "shards",
            "faults",
            "fault_seed",
            "predicted_ps",
            "predicted",
            "all_done",
            "events",
            "ops_simulated",
            "msgs_delivered",
            "bytes_sent",
            "latency_p50_ps",
            "latency_p90_ps",
            "latency_p99_ps",
            "latency_max_ps",
            "dropped_packets",
            "retries",
            "msgs_failed",
            "recv_timeouts",
            "attr_dominant",
            "attr_dominant_share_ppm",
            "attr_max_link_util_ppm",
        ])
    }

    /// This record as one RFC-4180 CSV row.
    pub fn csv_row(&self) -> String {
        let c = &self.config;
        csv_line(&[
            self.config_hash.clone(),
            c.machine.clone(),
            c.topo.clone(),
            c.app.clone(),
            c.pattern.clone(),
            c.phases.to_string(),
            c.ops.to_string(),
            c.seed.to_string(),
            c.mode.clone(),
            c.shards.to_string(),
            c.faults.clone(),
            c.fault_seed.to_string(),
            self.predicted_ps.to_string(),
            format!("{}", Time::from_ps(self.predicted_ps)),
            self.all_done.to_string(),
            self.events.to_string(),
            self.ops_simulated.to_string(),
            self.msgs_delivered.to_string(),
            self.bytes_sent.to_string(),
            self.latency_p50_ps.to_string(),
            self.latency_p90_ps.to_string(),
            self.latency_p99_ps.to_string(),
            self.latency_max_ps.to_string(),
            self.delivery.dropped_packets.to_string(),
            self.delivery.retries.to_string(),
            self.delivery.failed.to_string(),
            self.delivery.recv_timeouts.to_string(),
            self.attribution
                .as_ref()
                .map_or(String::new(), |a| a.dominant.clone()),
            self.attribution
                .as_ref()
                .map_or(String::new(), |a| a.dominant_share_ppm.to_string()),
            self.attribution
                .as_ref()
                .map_or(String::new(), |a| a.max_link_util_ppm.to_string()),
        ])
    }
}

/// A parsed campaign spec: each field holds the grid's alternatives for
/// one dimension, deduplicated but otherwise in spec order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Topology specs (required, ≥1).
    pub topos: Vec<String>,
    /// Machine names.
    pub machines: Vec<String>,
    /// Instruction mixes.
    pub apps: Vec<String>,
    /// Communication patterns.
    pub patterns: Vec<String>,
    /// Phase counts.
    pub phases: Vec<u32>,
    /// Ops-per-phase values.
    pub ops: Vec<u64>,
    /// Trace seeds.
    pub seeds: Vec<u64>,
    /// Modes (`task`/`detailed`).
    pub modes: Vec<String>,
    /// Per-run shard counts.
    pub shards: Vec<usize>,
    /// Fault specs (`none` or `+`-joined clause lists).
    pub faults: Vec<String>,
    /// Fault seeds.
    pub fault_seeds: Vec<u64>,
    /// Optional seeded random sample: `(size, shuffle_seed)`.
    pub sample: Option<(usize, u64)>,
}

/// The spec grammar's keys: the grid's axes in expansion order, then
/// `sample`.
const KEYS: [&str; 12] = [
    "machine",
    "topo",
    "app",
    "pattern",
    "phases",
    "ops",
    "seed",
    "mode",
    "shards",
    "faults",
    "fault-seed",
    "sample",
];

impl CampaignSpec {
    /// Parse a campaign spec (see the module docs for the grammar). Every
    /// value is validated here — unknown keys, duplicate keys, malformed
    /// values, and empty lists are all hard errors with the offending
    /// clause named, mirroring the `--faults` parser's conventions — by
    /// the piece [`RunConfig::resolve`] will read it with.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut lists: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        for raw in spec.split([';', '\n']) {
            let clause = raw.split('#').next().unwrap_or("").trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("campaign clause `{clause}` needs key = value"))?;
            let key = match key.trim() {
                "topology" => "topo",
                key => key,
            };
            let Some(key) = KEYS.iter().find(|k| **k == key) else {
                return Err(format!(
                    "unknown campaign key `{key}` (expected one of {})",
                    KEYS.join(", ")
                ));
            };
            let items: Vec<String> = value
                .split(',')
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .collect();
            if items.is_empty() {
                return Err(format!("campaign key `{key}` has an empty value list"));
            }
            if lists.insert(key, dedup_preserving_order(items)).is_some() {
                return Err(format!(
                    "duplicate campaign key `{key}` (each key may be given once; \
                     use a comma-separated list for alternatives)"
                ));
            }
        }
        if !lists.contains_key("topo") {
            return Err("campaign spec needs at least one `topo = …` value".to_string());
        }
        let sample = match lists.remove("sample").as_deref() {
            None => None,
            Some([one]) => Some(parse_sample(one)?),
            Some(_) => return Err("campaign sample wants one `N @ SEED`".to_string()),
        };

        /// One axis of the grid: the key's values, each read by `parse`;
        /// an absent key is the one-value axis of its default.
        fn axis<T>(
            lists: &mut BTreeMap<&str, Vec<String>>,
            key: &str,
            default: T,
            parse: impl Fn(&str) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            let Some(items) = lists.remove(key) else {
                return Ok(vec![default]);
            };
            let parse = |v: &String| parse(v).map_err(|e| format!("campaign {key} `{v}`: {e}"));
            items.iter().map(parse).collect()
        }
        /// A name-valued axis keeps the name that `check` accepted.
        fn named<T>(
            check: impl Fn(&str) -> Result<T, String>,
        ) -> impl Fn(&str) -> Result<String, String> {
            move |v| check(v).map(|_| v.to_string())
        }
        // Defaults: what a task-mode `sim` with no flags runs, on the
        // `test` machine. A machine name is checked on a throwaway topology;
        // a fault alternative for syntax only — which topologies it fits is
        // known at expansion — and with its interior whitespace dropped, so
        // the same schedule always hashes identically.
        let d = RunConfig::default();
        let l = &mut lists;
        Ok(CampaignSpec {
            topos: axis(l, "topo", d.topo, named(parse_topology))?,
            machines: axis(
                l,
                "machine",
                "test".to_string(),
                named(|m| parse_machine(m, Topology::Ring(2))),
            )?,
            apps: axis(l, "app", d.app, named(parse_mix))?,
            patterns: axis(l, "pattern", d.pattern, named(parse_pattern))?,
            // Lossless: bounded by `MAX_PHASES`.
            phases: axis(l, "phases", d.phases, |v| {
                parse_phases("phases", v).map(|n| n as u32)
            })?,
            ops: axis(l, "ops", d.ops, |v| parse_ops("ops", v))?,
            seeds: axis(l, "seed", d.seed, |v| unsigned("seed", v))?,
            modes: axis(
                l,
                "mode",
                d.mode,
                named(|m| Mode::parse(m).and_then(check_recordable)),
            )?,
            shards: axis(l, "shards", d.shards, |v| match v.parse() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err("want a count >= 1; `auto` is host-dependent and would \
                          break config-hash stability"
                    .to_string()),
            })?,
            faults: axis(l, "faults", d.faults, |f| {
                let f: String = f.split_whitespace().collect();
                parse_fault_token(&f, 0, RetryParams::default()).map(|_| f)
            })?,
            fault_seeds: axis(l, "fault-seed", d.fault_seed, |v| unsigned("fault-seed", v))?,
            sample,
        })
    }

    /// Expand the spec into its deterministic run list: the cartesian
    /// product in fixed dimension order (machine, topo, app, pattern,
    /// phases, ops, seed, mode, shards, faults, fault-seed), optionally
    /// thinned to a seeded random sample. Every combination is fully
    /// validated — in particular, scripted link/router faults must name
    /// real elements of every topology they are combined with.
    pub fn expand(&self) -> Result<Vec<RunConfig>, String> {
        let total = self.machines.len()
            * self.topos.len()
            * self.apps.len()
            * self.patterns.len()
            * self.phases.len()
            * self.ops.len()
            * self.seeds.len()
            * self.modes.len()
            * self.shards.len()
            * self.faults.len()
            * self.fault_seeds.len();
        if total > MAX_RUNS && self.sample.is_none() {
            return Err(format!(
                "campaign grid has {total} runs (max {MAX_RUNS}); add `sample = N @ SEED` \
                 to draw a random subset"
            ));
        }
        // Validate each (faults, topo) pairing once, not per grid cell.
        for f in &self.faults {
            let Some(sched) = parse_fault_token(f, 0, RetryParams::default())? else {
                continue;
            };
            for t in &self.topos {
                sched
                    .try_validate(&parse_topology(t)?)
                    .map_err(|e| format!("campaign faults `{f}` is invalid for topo `{t}`: {e}"))?;
            }
        }
        // Likewise each (pattern, topo) pairing: butterfly needs 2^k nodes.
        for p in &self.patterns {
            for t in &self.topos {
                StochasticApp {
                    pattern: parse_pattern(p)?,
                    ..StochasticApp::scientific(parse_topology(t)?.nodes())
                }
                .try_validate()
                .map_err(|e| format!("campaign pattern `{p}` is invalid for topo `{t}`: {e}"))?;
            }
        }
        let mut runs = Vec::with_capacity(total.min(1 << 20));
        for machine in &self.machines {
            for topo in &self.topos {
                for app in &self.apps {
                    for pattern in &self.patterns {
                        for &phases in &self.phases {
                            for &ops in &self.ops {
                                for &seed in &self.seeds {
                                    for mode in &self.modes {
                                        for &shards in &self.shards {
                                            for faults in &self.faults {
                                                for &fault_seed in &self.fault_seeds {
                                                    runs.push(RunConfig {
                                                        machine: machine.clone(),
                                                        topo: topo.clone(),
                                                        app: app.clone(),
                                                        pattern: pattern.clone(),
                                                        phases,
                                                        ops,
                                                        seed,
                                                        mode: mode.clone(),
                                                        shards,
                                                        faults: faults.clone(),
                                                        fault_seed,
                                                    });
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if let Some((n, sample_seed)) = self.sample {
            if n < runs.len() {
                runs = sample_preserving_order(runs, n, sample_seed);
            }
        }
        Ok(runs)
    }
}

/// Read a `sample` value, `N @ SEED`: draw N runs with that shuffle seed.
fn parse_sample(value: &str) -> Result<(usize, u64), String> {
    let (n, s) = value
        .split_once('@')
        .ok_or_else(|| format!("campaign sample `{value}` (want `N @ SEED`)"))?;
    let n: usize = n
        .trim()
        .parse()
        .map_err(|_| format!("bad sample size `{}`", n.trim()))?;
    if n == 0 {
        return Err("campaign sample size must be >= 1".to_string());
    }
    let s: u64 = s
        .trim()
        .parse()
        .map_err(|_| format!("bad sample seed `{}`", s.trim()))?;
    Ok((n, s))
}

fn dedup_preserving_order(items: Vec<String>) -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    items
        .into_iter()
        .filter(|i| seen.insert(i.clone()))
        .collect()
}

/// Draw `n` distinct elements with a seeded Fisher–Yates selection, then
/// restore expansion order — so a sampled campaign is still a stable,
/// resumable subset of the grid.
fn sample_preserving_order<T>(items: Vec<T>, n: usize, seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..items.len()).collect();
    for i in 0..n {
        let j = i + rng.gen_range(0..(idx.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    let mut keep: Vec<usize> = idx[..n].to_vec();
    keep.sort_unstable();
    let mut keep_iter = keep.into_iter().peekable();
    items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| {
            if keep_iter.peek() == Some(i) {
                keep_iter.next();
                true
            } else {
                false
            }
        })
        .map(|(_, x)| x)
        .collect()
}

/// A campaign record is the communication model's statistics; direct
/// execution keeps none worth recording, so only `sim` runs it.
fn check_recordable(mode: Mode) -> Result<(), String> {
    if mode == Mode::Direct {
        return Err("want task or detailed; direct execution records no \
                    communication statistics (only `sim` runs it)"
            .to_string());
    }
    Ok(())
}

/// Execute one run on its own — no attribution, no checkpoint, every host
/// core for a detailed run's computational phase — and fold its results
/// into a [`CampaignRecord`].
///
/// # Panics
///
/// With [`RunConfig::resolve`]'s message when the configuration does not
/// resolve (a hand-built `app: "intger"`) or names direct execution.
/// Configurations from [`CampaignSpec::expand`] always resolve;
/// [`run_campaign`] returns the same message as that run's error instead.
pub fn execute_run(cfg: &RunConfig) -> CampaignRecord {
    execute(cfg, &cfg.config_hash(), false, None, 1).unwrap_or_else(|e| panic!("{e}"))
}

/// One run's rolling-checkpoint plan: the snapshot lives at `path`,
/// refreshed every `every_ps` simulated picoseconds, deleted when the
/// run completes unless `keep` is set.
struct CkptPlan<'a> {
    path: &'a Path,
    every_ps: u64,
    keep: bool,
}

/// Load a run's rolling checkpoint if one is present and usable.
/// Anything unusable — a torn file, a schema or config-hash mismatch,
/// an attribution-less snapshot for an attribution campaign — is
/// reported to stderr, removed, and the run starts fresh: a checkpoint
/// is an optimisation, never a correctness requirement, and the restored
/// record is byte-identical to the from-scratch one either way.
fn load_usable_checkpoint(path: &Path, hash: &str, attribution: bool) -> Option<Snapshot> {
    if !path.is_file() {
        return None;
    }
    let discard = |why: String| {
        eprintln!(
            "campaign: ignoring checkpoint {}: {why} (restarting the run from scratch)",
            path.display()
        );
        std::fs::remove_file(path).ok();
        None
    };
    let snap = match Snapshot::read_file(path) {
        Ok(s) => s,
        Err(e) => return discard(e.to_string()),
    };
    if let Err(e) = snap.verify_config(hash) {
        return discard(e.to_string());
    }
    if attribution && snap.attribution.is_none() {
        return discard("it was captured without attribution, which this campaign records".into());
    }
    Some(snap)
}

/// Capture the simulation state of `cfg`'s run into `path` at cadence
/// `every_ps`, keeping the final snapshot instead of deleting it on
/// completion — exactly the file a `--checkpoint` campaign killed
/// between that run's last snapshot refresh and its completion would
/// leave behind. Test and rehearsal support for mid-run resume.
pub fn capture_run_checkpoint(
    cfg: &RunConfig,
    attribution: bool,
    every_ps: u64,
    path: &Path,
) -> Result<(), String> {
    if path.is_file() {
        std::fs::remove_file(path)
            .map_err(|e| format!("cannot remove stale checkpoint {}: {e}", path.display()))?;
    }
    let plan = CkptPlan {
        path,
        every_ps,
        keep: true,
    };
    execute(cfg, &cfg.config_hash(), attribution, Some(&plan), 1)?;
    if !path.is_file() {
        return Err(format!(
            "the run finished before {every_ps} ps — no checkpoint was captured \
             (use a shorter cadence)"
        ));
    }
    Ok(())
}

/// The campaign's executor: resolve `cfg`, whose config hash is `hash`,
/// run it, fold the outcome into a [`CampaignRecord`]. What a campaign
/// adds to the run (DESIGN.md, "One run path"): with `attribution`, a
/// bottleneck-attribution sink whose headline lands in the record — the
/// predicted results are identical either way, the sink only observes; with a `ckpt` plan, task-mode runs
/// resume from a usable snapshot at `plan.path` and refresh it at the
/// plan's cadence — detailed-mode runs ignore the plan (the computational
/// model in front of the network is not snapshotted) and re-execute from
/// scratch on resume; and `busy`, the threads the surroundings keep busy
/// per run — the `jobs × shards` of a campaign, 1 for a run on its own —
/// which caps a detailed run's computational phase at `cores / busy`
/// workers. Fails on a configuration that does not resolve, on direct
/// execution, and on checkpoint IO or snapshot restoration.
fn execute(
    cfg: &RunConfig,
    hash: &str,
    attribution: bool,
    ckpt: Option<&CkptPlan<'_>>,
    busy: usize,
) -> Result<CampaignRecord, String> {
    let in_run = |e: String| format!("campaign run {hash}: {e}");
    let resolved = cfg.resolve().map_err(in_run)?;
    check_recordable(resolved.mode).map_err(|e| in_run(format!("mode `{}`: {e}", cfg.mode)))?;
    let ckpt = ckpt.filter(|_| resolved.mode == Mode::Task);

    let probe = if attribution {
        ProbeHandle::new(ProbeStack::new().with_attribution())
    } else {
        ProbeHandle::disabled()
    };
    let restored = ckpt.and_then(|plan| load_usable_checkpoint(plan.path, hash, attribution));
    let write;
    let checkpoint = match ckpt {
        Some(plan) => {
            write = |snap: &Snapshot| snap.write_file(plan.path);
            Some(CheckpointOpts {
                every: Duration::from_ps(plan.every_ps),
                config_hash: hash.to_string(),
                write: &write,
            })
        }
        None => None,
    };
    let opts = RunOptions {
        probe: probe.clone(),
        shards: cfg.shards,
        faults: resolved.faults.clone(),
        restore_from: restored.as_ref(),
        checkpoint: checkpoint.as_ref(),
    };
    let outcome = resolved
        .run(&opts, busy)
        .map_err(|e| in_run(e.to_string()))?;
    if let Some(plan) = ckpt.filter(|plan| !plan.keep) {
        // The run completed; its rolling checkpoint is spent.
        std::fs::remove_file(plan.path).ok();
    }

    let predicted = outcome.predicted_time();
    let attribution = probe.attribution_report(predicted.as_ps()).map(|r| {
        let (dominant, dominant_share_ppm, max_link_util_ppm) = r.headline();
        AttrHeadline {
            dominant: dominant.to_string(),
            dominant_share_ppm,
            max_link_util_ppm,
        }
    });
    let comm = outcome.comm();
    let pct = |p: f64| comm.msg_latency.percentile(p).unwrap_or(0);
    Ok(CampaignRecord {
        config_hash: hash.to_string(),
        config: cfg.clone(),
        predicted_ps: predicted.as_ps(),
        all_done: comm.all_done,
        events: comm.events,
        ops_simulated: outcome.ops_simulated(),
        msgs_delivered: comm.total_messages,
        bytes_sent: comm.total_bytes,
        latency_p50_ps: pct(50.0),
        latency_p90_ps: pct(90.0),
        latency_p99_ps: pct(99.0),
        latency_max_ps: comm.msg_latency.max().unwrap_or(0),
        delivery: comm.delivery(),
        attribution,
    })
}

/// Load the records already present in a campaign's JSONL stream.
///
/// Tolerates exactly one kind of damage: a truncated *final* line with no
/// terminating newline — the footprint of a campaign killed mid-append.
/// Any other unparseable line is a hard error, because silently skipping
/// it would re-run (and double-record) work.
pub fn load_records(path: &Path) -> Result<Vec<CampaignRecord>, String> {
    let data = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let ends_clean = data.ends_with('\n');
    let lines: Vec<&str> = data.lines().collect();
    let mut records = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<CampaignRecord>(line) {
            Ok(r) => records.push(r),
            Err(_) if i + 1 == lines.len() && !ends_clean => {
                // Torn tail from a kill mid-write: the run it described
                // was never durably recorded, so it simply re-runs.
            }
            Err(e) => {
                return Err(format!(
                    "corrupt campaign record at {}:{}: {e:?}",
                    path.display(),
                    i + 1
                ));
            }
        }
    }
    Ok(records)
}

/// Options of one `mermaid campaign` invocation.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Output directory (holds [`RUNS_FILE`] and [`CSV_FILE`]).
    pub out_dir: PathBuf,
    /// Worker threads for the fan-out.
    pub jobs: usize,
    /// Stop after at most this many *new* runs (budgeted invocations;
    /// the campaign resumes from where it stopped next time).
    pub limit: Option<usize>,
    /// Echo per-run completion lines to stderr.
    pub progress: bool,
    /// Attach a bottleneck-attribution sink to every new run and record
    /// its [`AttrHeadline`]. Runs recorded without attribution keep their
    /// empty headline until re-run (records are resumed, not recomputed).
    pub attribution: bool,
    /// Mid-run checkpoint cadence in simulated picoseconds (`campaign
    /// --checkpoint <ps>`): every task-mode run keeps a rolling snapshot
    /// at `<out>/checkpoints/<config_hash>.snap`, refreshed at this
    /// cadence and deleted when the run completes. A killed campaign
    /// resumes unfinished runs from their snapshot — byte-identically to
    /// never having been killed. Detailed-mode runs re-execute from
    /// scratch (the computational model is not snapshotted). `None`
    /// disables mid-run checkpointing.
    pub checkpoint_every_ps: Option<u64>,
}

/// Directory holding a campaign's per-run rolling checkpoints.
pub fn checkpoints_dir(out_dir: &Path) -> PathBuf {
    out_dir.join("checkpoints")
}

/// The rolling-checkpoint file of one campaign run, keyed — like its
/// JSONL record — by the stable config hash.
pub fn checkpoint_path(out_dir: &Path, cfg: &RunConfig) -> PathBuf {
    snapshot_path(out_dir, &cfg.config_hash())
}

/// [`checkpoint_path`] of the run whose config hash is `hash`.
fn snapshot_path(out_dir: &Path, hash: &str) -> PathBuf {
    checkpoints_dir(out_dir).join(format!("{hash}.snap"))
}

/// Summary of a completed (or budget-limited) campaign invocation.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The rendered stdout report.
    pub report: String,
    /// Runs in the expanded spec.
    pub expanded: usize,
    /// Runs already recorded before this invocation.
    pub recorded_before: usize,
    /// Runs executed by this invocation.
    pub executed: usize,
    /// Runs still missing (only with a `limit`).
    pub pending: usize,
}

/// Run a campaign: expand, diff against the existing JSONL, execute the
/// gap with streaming appends, regenerate the CSV view, and render the
/// aggregated comparison report. Everything written and returned is
/// deterministic for a given spec — independent of `jobs`, of kill/resume
/// boundaries, and of completion order.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, String> {
    let all = spec.expand()?;
    let expanded = all.len();
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    if opts.checkpoint_every_ps.is_some() {
        let dir = checkpoints_dir(&opts.out_dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let runs_path = opts.out_dir.join(RUNS_FILE);
    let csv_path = opts.out_dir.join(CSV_FILE);

    // Resume: whatever the stream already holds is done; first record
    // wins on (harmless) duplicate hashes.
    let mut by_hash: BTreeMap<String, CampaignRecord> = BTreeMap::new();
    for r in load_records(&runs_path)? {
        by_hash.entry(r.config_hash.clone()).or_insert(r);
    }
    // A torn tail (kill mid-append) was dropped by the load above; cut it
    // off the file too, or the next append would concatenate onto it and
    // manufacture a genuinely corrupt line.
    if let Ok(data) = std::fs::read(&runs_path) {
        if !data.is_empty() && data.last() != Some(&b'\n') {
            let keep = data.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&runs_path)
                .map_err(|e| format!("cannot open {}: {e}", runs_path.display()))?;
            f.set_len(keep as u64).map_err(|e| {
                format!("cannot truncate torn tail of {}: {e}", runs_path.display())
            })?;
        }
    }
    // Each run's config hash, computed once and used for every lookup.
    let hashes: Vec<String> = all.iter().map(RunConfig::config_hash).collect();
    let wanted: std::collections::BTreeSet<&str> = hashes.iter().map(String::as_str).collect();
    let recorded_before = by_hash
        .keys()
        .filter(|h| wanted.contains(h.as_str()))
        .count();
    let stale = by_hash.len() - recorded_before;

    let mut todo: Vec<(&RunConfig, &str)> = all
        .iter()
        .zip(&hashes)
        .filter(|(_, h)| !by_hash.contains_key(*h))
        .map(|(c, h)| (c, h.as_str()))
        .collect();
    if let Some(limit) = opts.limit {
        todo.truncate(limit);
    }
    let executed = todo.len();

    // Stream: append each completed run's JSON line and its newline in one
    // write(2), under a lock shared with the progress output. There is no
    // fsync; a kill leaves at most one torn tail, which the next load drops.
    if !todo.is_empty() {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&runs_path)
            .map_err(|e| format!("cannot open {}: {e}", runs_path.display()))?;
        let sink = Mutex::new((file, 0usize, None::<String>));
        let total = todo.len();
        let progress = opts.progress;
        let attribution = opts.attribution;
        let ckpt_every = opts.checkpoint_every_ps;
        let out_dir = opts.out_dir.clone();
        // The jobs really running side by side, each with its shards, share
        // the host's cores with a detailed run's computational phase.
        let jobs = opts.jobs.clamp(1, total);
        let worker = move |&(cfg, hash): &(&RunConfig, &str)| -> Result<CampaignRecord, String> {
            let path;
            let plan = match ckpt_every {
                Some(every_ps) => {
                    path = snapshot_path(&out_dir, hash);
                    Some(CkptPlan {
                        path: &path,
                        every_ps,
                        keep: false,
                    })
                }
                None => None,
            };
            execute(cfg, hash, attribution, plan.as_ref(), jobs * cfg.shards)
        };
        let new_records = sweep::parallel_sweep_streaming(todo, opts.jobs, worker, |_, rec| {
            let mut guard = sink.lock().unwrap();
            let (file, done, err) = &mut *guard;
            if err.is_some() {
                return;
            }
            let rec = match rec {
                Ok(r) => r,
                Err(e) => {
                    *err = Some(e.clone());
                    return;
                }
            };
            let mut line = match serde_json::to_string(rec) {
                Ok(l) => l,
                Err(e) => {
                    *err = Some(format!("cannot serialise campaign record: {e:?}"));
                    return;
                }
            };
            line.push('\n');
            if let Err(e) = file.write_all(line.as_bytes()) {
                *err = Some(format!("cannot append to {}: {e}", runs_path.display()));
                return;
            }
            *done += 1;
            if progress {
                eprintln!(
                    "campaign: [{done}/{total}] {} {} {} -> {}",
                    rec.config.topo,
                    rec.config.pattern,
                    rec.config_hash,
                    Time::from_ps(rec.predicted_ps)
                );
            }
        });
        if let Some(e) = sink.into_inner().unwrap().2 {
            return Err(e);
        }
        for r in new_records.into_iter().flatten() {
            by_hash.entry(r.config_hash.clone()).or_insert(r);
        }
    }

    // The CSV view and the report cover the *current expansion* in
    // expansion order — stale records stay in the JSONL but are ignored.
    let ordered: Vec<&CampaignRecord> = hashes.iter().filter_map(|h| by_hash.get(h)).collect();
    let mut csv = CampaignRecord::csv_header();
    for r in &ordered {
        csv.push_str(&r.csv_row());
    }
    std::fs::write(&csv_path, &csv)
        .map_err(|e| format!("cannot write {}: {e}", csv_path.display()))?;

    let pending = expanded - ordered.len();
    let mut report = format!(
        "campaign: {expanded} run(s) expanded, {recorded_before} already recorded, \
         {executed} executed\n"
    );
    if stale > 0 {
        report.push_str(&format!(
            "          {stale} stale record(s) in {} not part of this spec (ignored)\n",
            RUNS_FILE
        ));
    }
    if pending > 0 {
        report.push_str(&format!(
            "          {pending} run(s) still pending (re-run without --limit to finish)\n"
        ));
    }
    report.push_str(&format!(
        "records:  {}\ncsv:      {}\n",
        runs_path.display(),
        csv_path.display()
    ));
    if !ordered.is_empty() {
        report.push('\n');
        report.push_str(&report::campaign_table(&ordered).render());
    }
    Ok(CampaignOutcome {
        report,
        expanded,
        recorded_before,
        executed,
        pending,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::fnv1a64;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::parse(
            "topo = ring:4, mesh:2x2; pattern = ring, all2all; \
             phases = 1; ops = 300; machine = test",
        )
        .unwrap()
    }

    #[test]
    fn spec_parses_with_defaults_and_rejects_junk() {
        let s = tiny_spec();
        assert_eq!(s.topos, vec!["ring:4", "mesh:2x2"]);
        assert_eq!(s.patterns, vec!["ring", "all2all"]);
        assert_eq!(s.machines, vec!["test"]);
        assert_eq!(s.modes, vec!["task"]);
        assert_eq!(s.faults, vec!["none"]);
        assert_eq!(s.phases, vec![1]);

        for bad in [
            "",                               // no topo
            "pattern = ring",                 // no topo
            "topo = blob:3",                  // bad topology
            "topo = ring:4; topo = ring:8",   // duplicate key
            "topo = ring:4; frob = 1",        // unknown key
            "topo = ring:4; machine = vax",   // unknown machine
            "topo = ring:4; phases = 0",      // degenerate workload
            "topo = ring:4; ops = 0",         // degenerate workload
            "topo = ring:4; mode = direct",   // no comm stats to record
            "topo = ring:4; shards = auto",   // host-dependent hash
            "topo = ring:4; shards = 0",      // nonsense
            "topo = ring:4; faults = frob:1", // bad fault clause
            "topo = ring:4; sample = 0 @ 1",  // empty sample
            "topo = ring:4; sample = 5",      // missing seed
            "topo = ring:4; seed = x",        // bad number
            "topo = ring:4; pattern =",       // empty list
        ] {
            assert!(
                CampaignSpec::parse(bad).is_err(),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn expansion_rejects_patterns_a_topology_cannot_run() {
        // Each value parses on its own; only the pairing is wrong, and it
        // must surface here rather than as a panic inside a worker.
        let spec = CampaignSpec::parse("topo = ring:8, ring:6; pattern = ring, butterfly").unwrap();
        let err = spec.expand().unwrap_err();
        assert!(
            err.contains("`butterfly` is invalid for topo `ring:6`"),
            "{err}"
        );
        assert!(err.contains("power-of-two"), "{err}");
        let ok = CampaignSpec::parse("topo = ring:8, mesh:2x2; pattern = butterfly").unwrap();
        assert_eq!(ok.expand().unwrap().len(), 2);
    }

    #[test]
    fn expansion_is_the_cartesian_product_in_stable_order() {
        let runs = tiny_spec().expand().unwrap();
        assert_eq!(runs.len(), 4);
        // topo is outer, pattern inner (fixed dimension order).
        assert_eq!(
            runs.iter()
                .map(|r| format!("{} {}", r.topo, r.pattern))
                .collect::<Vec<_>>(),
            vec![
                "ring:4 ring",
                "ring:4 all2all",
                "mesh:2x2 ring",
                "mesh:2x2 all2all"
            ]
        );
        // Hashes are distinct and stable across re-expansion.
        let again = tiny_spec().expand().unwrap();
        assert_eq!(runs, again);
        let hashes: std::collections::BTreeSet<_> = runs.iter().map(|r| r.config_hash()).collect();
        assert_eq!(hashes.len(), runs.len());
    }

    #[test]
    fn config_hash_is_pinned() {
        // The persisted-log stability contract: this exact configuration
        // must hash to this exact value in every future release (or the
        // canonical prefix must be bumped — see DESIGN.md §13).
        let cfg = RunConfig {
            machine: "test".into(),
            topo: "ring:4".into(),
            app: "scientific".into(),
            pattern: "ring".into(),
            phases: 1,
            ops: 300,
            seed: 1,
            mode: "task".into(),
            shards: 1,
            faults: "none".into(),
            fault_seed: 1,
        };
        assert_eq!(
            cfg.canonical(),
            "campaign-v1 machine=test topo=ring:4 app=scientific pattern=ring phases=1 \
             ops=300 seed=1 mode=task shards=1 faults=none fault-seed=1"
        );
        assert_eq!(
            cfg.config_hash(),
            format!("{:016x}", fnv1a64(cfg.canonical().as_bytes()))
        );
        // Any field change changes the hash.
        let mut other = cfg.clone();
        other.seed = 2;
        assert_ne!(cfg.config_hash(), other.config_hash());
    }

    #[test]
    fn sampling_is_seeded_and_order_preserving() {
        let spec =
            CampaignSpec::parse("topo = ring:4; seed = 1,2,3,4,5,6,7,8; sample = 3 @ 9").unwrap();
        let a = spec.expand().unwrap();
        let b = spec.expand().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a, b, "same sample seed, same subset");
        // The subset preserves grid order (seeds ascending here).
        let seeds: Vec<u64> = a.iter().map(|r| r.seed).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        assert_eq!(seeds, sorted);
        // A different shuffle seed draws a different subset.
        let other = CampaignSpec::parse("topo = ring:4; seed = 1,2,3,4,5,6,7,8; sample = 3 @ 10")
            .unwrap()
            .expand()
            .unwrap();
        assert!(a != other || a.len() == 3); // overwhelmingly different; never panics
    }

    #[test]
    fn scripted_faults_must_name_links_of_every_topology() {
        let spec = CampaignSpec::parse("topo = ring:4, mesh:2x2; faults = link:0-3:1000").unwrap();
        // 0-3 is a ring:4 link but not a mesh:2x2 link.
        let err = spec.expand().unwrap_err();
        assert!(err.contains("mesh:2x2"), "{err}");
        // Rate-only faults combine with anything.
        let spec = CampaignSpec::parse("topo = ring:4, mesh:2x2; faults = drop:1000").unwrap();
        assert_eq!(spec.expand().unwrap().len(), 2);
    }

    #[test]
    fn records_serialise_to_one_json_line_and_back() {
        let rec = execute_run(&tiny_spec().expand().unwrap()[0]);
        let line = serde_json::to_string(&rec).unwrap();
        assert!(!line.contains('\n'));
        let back: CampaignRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);
        assert!(rec.all_done);
        assert!(rec.predicted_ps > 0);
        assert_eq!(rec.config_hash, rec.config.config_hash());
    }

    #[test]
    fn attribution_headline_is_recorded_only_when_enabled() {
        let cfg = &tiny_spec().expand().unwrap()[0];
        let plain = execute_run(cfg);
        assert_eq!(plain.attribution, None);
        let attr = execute(cfg, &cfg.config_hash(), true, None, 1).unwrap();
        let h = attr.attribution.clone().expect("headline recorded");
        assert!(!h.dominant.is_empty());
        assert!(h.dominant_share_ppm <= 1_000_000);
        assert!(h.max_link_util_ppm > 0);
        // The attribution pass only observes — predictions are unchanged.
        assert_eq!(plain.predicted_ps, attr.predicted_ps);
        assert_eq!(plain.events, attr.events);
        assert_eq!(plain.msgs_delivered, attr.msgs_delivered);
        // The CSV row carries the headline columns; empty when absent.
        assert!(attr.csv_row().contains(&h.dominant));
        assert!(plain.csv_row().trim_end().ends_with(",,"));
        // And the record round-trips with the headline intact.
        let line = serde_json::to_string(&attr).unwrap();
        let back: CampaignRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, attr);
    }

    /// `tiny_spec`'s first run with one field changed.
    fn first_run_with(edit: impl Fn(&mut RunConfig)) -> RunConfig {
        let mut cfg = tiny_spec().expand().unwrap().remove(0);
        edit(&mut cfg);
        cfg
    }

    #[test]
    #[should_panic(expected = "unknown app mix `intger`")]
    fn a_hand_built_config_with_a_typoed_app_is_not_simulated_as_scientific() {
        execute_run(&first_run_with(|c| c.app = "intger".into()));
    }

    #[test]
    #[should_panic(expected = "direct execution records no communication statistics")]
    fn a_hand_built_direct_mode_config_is_not_simulated_as_task() {
        execute_run(&first_run_with(|c| c.mode = "direct".into()));
    }

    #[test]
    fn run_campaign_returns_an_unresolvable_run_as_its_error() {
        // `expand` trusts the spec's fields — `parse` checked them — so a
        // hand-built spec reaches the executor, which must refuse it.
        let dir = std::env::temp_dir().join(format!("mermaid-campaign-bad-{}", std::process::id()));
        for (edit, want) in [
            (
                (|s| s.apps = vec!["intger".into()]) as fn(&mut CampaignSpec),
                "unknown app mix `intger`",
            ),
            (|s| s.modes = vec!["direct".into()], "mode `direct`"),
        ] {
            let mut spec = tiny_spec();
            edit(&mut spec);
            let opts = CampaignOptions {
                out_dir: dir.clone(),
                jobs: 1,
                limit: None,
                progress: false,
                attribution: false,
                checkpoint_every_ps: None,
            };
            let err = run_campaign(&spec, &opts).unwrap_err();
            assert!(err.starts_with("campaign run "), "{err}");
            assert!(err.contains(want), "{err}");
            assert_eq!(load_records(&dir.join(RUNS_FILE)).unwrap(), vec![]);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn load_records_tolerates_only_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("mermaid-campaign-ut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        let rec = execute_run(&tiny_spec().expand().unwrap()[0]);
        let line = serde_json::to_string(&rec).unwrap();

        // A clean line plus a torn (no-newline) tail: the tail is dropped.
        std::fs::write(&path, format!("{line}\n{{\"config_hash\":\"tor")).unwrap();
        let loaded = load_records(&path).unwrap();
        assert_eq!(loaded, vec![rec.clone()]);

        // The same garbage *with* a newline is corruption, not a torn tail.
        std::fs::write(&path, format!("{line}\n{{\"config_hash\":\"tor\n")).unwrap();
        assert!(load_records(&path).is_err());

        // Corruption in the middle is always an error.
        std::fs::write(&path, format!("garbage\n{line}\n")).unwrap();
        assert!(load_records(&path).is_err());

        // A missing file is an empty campaign.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(load_records(&path).unwrap(), Vec::<CampaignRecord>::new());
        std::fs::remove_dir_all(&dir).ok();
    }
}
