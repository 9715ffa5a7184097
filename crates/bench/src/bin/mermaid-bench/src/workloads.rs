//! The six workloads: what each passes to `mermaid::cli::run`, and how one
//! pass is executed, fingerprinted and checked.
//!
//! A *pass* is the unit of measurement: one or more `cli::run` calls on
//! inputs derived from the seed. Pass length comes from CPU work, never
//! from footprint — a workload that needs more time repeats its call with
//! the next seed instead of growing one call, because on this class of VM
//! passes that touch more than ~500 MB pick up 2–3× sys-time outliers from
//! page faults.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mermaid::prelude::*;
use mermaid_network::Topology;

/// Fault schedule of `task_faulty_ckpt`. The explicit retry timeout is
/// deliberate: with the default one, 93% of messages are given up under
/// all-to-all load and the run measures give-up bookkeeping, not recovery.
pub const FAULT_SPEC: &str =
    "drop:2000;corrupt:500;timeout:400000000;cap:3200000000;recv-timeout:20000000000";
pub const FAULT_SEED: u64 = 3;
/// Checkpoint cadence of `task_faulty_ckpt` in simulated ps — 23
/// snapshots, the last 19 of a network that only holds watchdog timers —
/// and the 0-based index of the snapshot restored: the first, a third of
/// the way to the predicted finish, so the restored run still recovers
/// from most of the drops.
pub const CKPT_EVERY_PS: u64 = 1_000_000_000_000;
pub const RESTORE_INDEX: usize = 0;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "task_comm",
        why: "healthy serial task-level 8x8 torus all-to-all: pearl queue, engine dispatch and router/processor handlers do nearly all the work",
    },
    WorkloadDef {
        name: "detailed_node",
        why: "detailed mode on t805 and ppc601 nodes: tracegen, ops storage, cpu and memory do the work, the communication model sees a few hundred events",
    },
    WorkloadDef {
        name: "task_traced",
        why: "task-level run under the full sink stack (chrome trace, metrics, attribution): probe emit, sink fold and render dominate",
    },
    WorkloadDef {
        name: "task_sharded",
        why: "the task_comm machine on --shards 2: window protocol and shard barrier dominate; stdout must equal the serial run",
    },
    WorkloadDef {
        name: "task_faulty_ckpt",
        why: "drops, acks and retry timers plus 23 snapshots written and one restored: the recovery and checkpoint paths of the same router/processor/queue layers",
    },
    WorkloadDef {
        name: "campaign_grid",
        why: "3456 runs of 0.3 ms through campaign: spec expansion, config hashing, trace generation, CommSim construction and runs.jsonl/summary.csv I/O weigh as much as the event loop",
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One `sim` invocation, kept structured so the traced run can drive the
/// layers underneath with exactly the inputs the CLI call uses.
#[derive(Debug, Clone)]
pub struct SimCall {
    pub machine: &'static str,
    pub topo: Topology,
    pub pattern: CommPattern,
    pub phases: u32,
    /// `--ops`; `None` leaves the CLI default.
    pub ops: Option<u64>,
    pub detailed: bool,
    pub seed: u64,
    pub shards: usize,
    pub faults: bool,
    /// `--trace-out`, `--metrics` and `--attribution` together.
    pub sinks: bool,
    /// `--checkpoint-every CKPT_EVERY_PS --checkpoint-dir <pass dir>/ckpt`.
    pub checkpoint: bool,
    /// `--restore` of snapshot `RESTORE_INDEX` of that directory.
    pub restore: bool,
}

/// The CLI's default `--ops`.
const DEFAULT_OPS: u64 = 5_000;

impl SimCall {
    fn task(topo: Topology, phases: u32, seed: u64) -> SimCall {
        SimCall {
            machine: "t805",
            topo,
            pattern: CommPattern::AllToAll,
            phases,
            ops: None,
            detailed: false,
            seed,
            shards: 1,
            faults: false,
            sinks: false,
            checkpoint: false,
            restore: false,
        }
    }

    pub fn topo_spec(&self) -> String {
        match self.topo {
            Topology::Torus2D { w, h } => format!("torus:{w}x{h}"),
            Topology::Mesh2D { w, h } => format!("mesh:{w}x{h}"),
            other => unreachable!("no workload uses {other:?}"),
        }
    }

    pub fn pattern_name(&self) -> &'static str {
        match self.pattern {
            CommPattern::AllToAll => "all2all",
            CommPattern::NearestNeighborRing => "ring",
            other => unreachable!("no workload uses {other:?}"),
        }
    }

    pub fn machine_config(&self) -> MachineConfig {
        match self.machine {
            "t805" => MachineConfig::t805_multicomputer(self.topo),
            "ppc601" => MachineConfig::powerpc601_cluster(self.topo, 1),
            other => unreachable!("no workload uses machine {other}"),
        }
    }

    /// The trace generator `cli::run` builds for these flags.
    pub fn generator(&self) -> StochasticGenerator {
        let app = StochasticApp {
            phases: self.phases,
            ops_per_phase: SizeDist::Fixed(self.ops.unwrap_or(DEFAULT_OPS)),
            pattern: self.pattern,
            ..StochasticApp::scientific(self.topo.nodes())
        };
        StochasticGenerator::new(app, self.seed)
    }

    pub fn traces(&self) -> TraceSet {
        if self.detailed {
            self.generator().generate()
        } else {
            self.generator().generate_task_level()
        }
    }

    /// The campaign-layer identity `sim` binds its checkpoints to.
    pub fn config_hash(&self) -> String {
        mermaid::RunConfig {
            machine: self.machine.to_string(),
            topo: self.topo_spec(),
            app: "scientific".to_string(),
            pattern: self.pattern_name().to_string(),
            phases: self.phases,
            ops: self.ops.unwrap_or(DEFAULT_OPS),
            seed: self.seed,
            mode: "task".to_string(),
            shards: 1,
            faults: if self.faults {
                FAULT_SPEC.replace(';', "+")
            } else {
                "none".to_string()
            },
            fault_seed: if self.faults { FAULT_SEED } else { 1 },
        }
        .config_hash()
    }

    /// The same run without sharding, checkpointing or restoring — the
    /// oracle of the cross-mode identities.
    pub fn plain(&self) -> SimCall {
        SimCall {
            shards: 1,
            checkpoint: false,
            restore: false,
            ..self.clone()
        }
    }

    pub fn args(&self, dir: &Path) -> Result<Vec<String>, String> {
        let mut a: Vec<String> = [
            "sim",
            "--machine",
            self.machine,
            "--topology",
            &self.topo_spec(),
            "--pattern",
            self.pattern_name(),
            "--phases",
            &self.phases.to_string(),
            "--mode",
            if self.detailed { "detailed" } else { "task" },
            "--seed",
            &self.seed.to_string(),
        ]
        .map(String::from)
        .to_vec();
        let mut flag = |name: &str, value: String| a.extend([name.to_string(), value]);
        let path = |leaf: &str| dir.join(leaf).display().to_string();
        if let Some(ops) = self.ops {
            flag("--ops", ops.to_string());
        }
        if self.shards > 1 {
            flag("--shards", self.shards.to_string());
        }
        if self.faults {
            flag("--faults", FAULT_SPEC.to_string());
            flag("--fault-seed", FAULT_SEED.to_string());
        }
        if self.sinks {
            flag("--trace-out", path(&format!("trace-{}.json", self.seed)));
            flag(
                "--attribution",
                path(&format!("attribution-{}.json", self.seed)),
            );
        }
        if self.checkpoint {
            flag("--checkpoint-every", CKPT_EVERY_PS.to_string());
            flag("--checkpoint-dir", path("ckpt"));
        }
        if self.restore {
            flag(
                "--restore",
                snapshot_files(&dir.join("ckpt"))?
                    .get(RESTORE_INDEX)
                    .ok_or_else(|| format!("fewer than {} snapshots written", RESTORE_INDEX + 1))?
                    .display()
                    .to_string(),
            );
        }
        if self.sinks {
            a.push("--metrics".to_string());
        }
        Ok(a)
    }
}

/// Snapshot files of a checkpoint directory in capture order (the
/// zero-padded instant in the name makes that the lexical order).
pub fn snapshot_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    files.sort();
    Ok(files)
}

/// Campaign seeds drawn from `--seed`: with 4 topologies, 3 patterns and
/// 2 machines, 3456 runs of about 0.3 ms. All-to-all is left out of the
/// grid on purpose — its runs take 5 to 16 ms each and would hand the
/// pass back to the event loop, which `task_comm` already measures.
pub const CAMPAIGN_SEEDS: u64 = 144;

pub fn campaign_spec(seed: u64) -> String {
    let seeds: Vec<String> = (seed..seed + CAMPAIGN_SEEDS)
        .map(|s| s.to_string())
        .collect();
    format!(
        "topo = ring:16, mesh:4x4, torus:4x4, hypercube:4; \
         pattern = ring, butterfly, random; seed = {}; \
         machine = test, t805; mode = task; phases = 6",
        seeds.join(", ")
    )
}

#[derive(Debug, Clone)]
pub enum Call {
    Sim(SimCall),
    /// `campaign <spec> --out <pass dir>/out --jobs 1`.
    Campaign {
        seed: u64,
    },
}

impl Call {
    pub fn args(&self, dir: &Path) -> Result<Vec<String>, String> {
        match self {
            Call::Sim(s) => s.args(dir),
            Call::Campaign { seed } => Ok(vec![
                "campaign".to_string(),
                campaign_spec(*seed),
                "--out".to_string(),
                dir.join("out").display().to_string(),
                "--jobs".to_string(),
                "1".to_string(),
            ]),
        }
    }
}

/// The calls of one pass of `workload` at `seed`, in execution order.
pub fn calls(workload: &str, seed: u64) -> Vec<Call> {
    let torus8 = Topology::Torus2D { w: 8, h: 8 };
    let sims = match workload {
        "task_comm" => vec![SimCall::task(torus8, 16, seed)],
        "detailed_node" => ["t805", "ppc601"]
            .into_iter()
            .map(|machine| SimCall {
                machine,
                pattern: CommPattern::NearestNeighborRing,
                ops: Some(100_000),
                detailed: true,
                ..SimCall::task(Topology::Mesh2D { w: 4, h: 4 }, 4, seed)
            })
            .collect(),
        "task_traced" => (seed..seed + 3)
            .map(|s| SimCall {
                sinks: true,
                ..SimCall::task(Topology::Torus2D { w: 4, h: 4 }, 12, s)
            })
            .collect(),
        "task_sharded" => vec![SimCall {
            shards: 2,
            ..SimCall::task(torus8, 3, seed)
        }],
        "task_faulty_ckpt" => {
            let base = SimCall {
                faults: true,
                ..SimCall::task(torus8, 7, seed)
            };
            vec![
                SimCall {
                    checkpoint: true,
                    ..base.clone()
                },
                SimCall {
                    restore: true,
                    ..base
                },
            ]
        }
        "campaign_grid" => return vec![Call::Campaign { seed }],
        other => unreachable!("unknown workload {other}"),
    };
    sims.into_iter().map(Call::Sim).collect()
}

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Strip what legitimately differs between two runs of the same inputs:
/// the scratch directory's name, the host-speed `slowdown` line of
/// detailed mode and the host self-profile `--metrics` appends last.
pub fn normalise(stdout: &str, dir: &Path) -> String {
    let text = stdout.replace(&dir.display().to_string(), "$D");
    let text = match text.find("\nSelf-profile:") {
        Some(at) => &text[..at + 1],
        None => &text,
    };
    text.lines()
        .filter(|l| !l.starts_with("slowdown "))
        .flat_map(|l| [l, "\n"])
        .collect()
}

/// What one pass produced, reduced to labelled hashes: one per call's
/// normalised stdout, one per file left in the pass directory.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutput {
    pub wall_s: f64,
    pub stdouts: Vec<String>,
    pub parts: Vec<(String, u64)>,
}

impl PassOutput {
    /// One hash over every part — the workload's output fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut all = Vec::new();
        for (label, hash) in &self.parts {
            all.extend_from_slice(label.as_bytes());
            all.extend_from_slice(&hash.to_le_bytes());
        }
        fnv1a64(&all)
    }

    /// The first part that differs from `reference`, if any.
    pub fn first_difference(&self, reference: &PassOutput) -> Option<String> {
        if self.parts.len() != reference.parts.len() {
            return Some(format!(
                "{} outputs, the reference pass had {}",
                self.parts.len(),
                reference.parts.len()
            ));
        }
        self.parts
            .iter()
            .zip(&reference.parts)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("{} differs from the reference pass ({})", a.0, b.0))
    }
}

fn hash_files(root: &Path, dir: &Path, out: &mut Vec<(String, u64)>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            hash_files(root, &path, out)?;
        } else {
            let data =
                std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string();
            out.push((label, fnv1a64(&data)));
        }
    }
    Ok(())
}

/// Remove and recreate the pass directory, so every pass starts from the
/// same empty state (a reused `--out` would measure a no-op resume).
/// `--checkpoint-dir` must exist beforehand; `campaign --out` must not.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir.join("ckpt"))
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Run `calls` through `cli::run` in a fresh `dir`. Only the calls are
/// inside the timed region; clearing the directory before and hashing the
/// files afterwards are not. `on_call` sees when each call started and ended.
pub fn run_pass(
    calls: &[Call],
    dir: &Path,
    mut on_call: impl FnMut(Instant, Instant),
) -> Result<PassOutput, String> {
    fresh_dir(dir)?;
    let mut stdouts = Vec::with_capacity(calls.len());
    let mut wall_s = 0.0;
    for call in calls {
        let t0 = Instant::now();
        let args = call.args(dir)?;
        let out = mermaid::cli::run(&args);
        let t1 = Instant::now();
        wall_s += (t1 - t0).as_secs_f64();
        on_call(t0, t1);
        stdouts.push(normalise(
            &out.map_err(|e| format!("cli::run {args:?} failed: {e}"))?,
            dir,
        ));
    }
    let mut parts: Vec<(String, u64)> = stdouts
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("stdout[{i}]"), fnv1a64(s.as_bytes())))
        .collect();
    hash_files(dir, dir, &mut parts)?;
    Ok(PassOutput {
        wall_s,
        stdouts,
        parts,
    })
}

/// The cross-mode identities of a workload: for each call index, the
/// stdout the call must reproduce (sharded == serial, restored ==
/// straight-through). Computed once per set-up by running the plain form.
pub fn identity_oracles(calls: &[Call], dir: &Path) -> Result<Vec<(usize, String)>, String> {
    let mut oracles = Vec::new();
    for (i, call) in calls.iter().enumerate() {
        let Call::Sim(sim) = call else { continue };
        if sim.shards > 1 || sim.restore {
            let plain = run_pass(&[Call::Sim(sim.plain())], dir, |_, _| {})?;
            oracles.push((i, plain.stdouts[0].clone()));
        }
    }
    Ok(oracles)
}

/// Trace operations the pass simulates — fixed by the inputs, so no
/// simulator change can move it. `dir` holds a finished pass.
pub fn ops_simulated(calls: &[Call], dir: &Path) -> Result<u64, String> {
    let mut total = 0u64;
    for call in calls {
        total += match call {
            Call::Sim(sim) => sim.traces().total_ops() as u64,
            Call::Campaign { .. } => {
                let path = dir.join("out").join(mermaid::campaign::RUNS_FILE);
                mermaid::campaign::load_records(&path)?
                    .iter()
                    .map(|r| r.ops_simulated)
                    .sum()
            }
        };
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_strips_host_dependent_text_only() {
        let dir = Path::new("/tmp/x/pass");
        let raw = "machine: m\npredicted time: 5ps\n\nslowdown 12.5×/proc, 1 target cycles/s\n\
                   trace written: /tmp/x/pass/trace-7.json\n\nMetrics\nrow\n\n\
                   Self-profile: 10 events in 1.0 ms\nengine 1 2 3\n";
        assert_eq!(
            normalise(raw, dir),
            "machine: m\npredicted time: 5ps\n\ntrace written: $D/trace-7.json\n\nMetrics\nrow\n\n"
        );
        assert_eq!(normalise("a\nb\n", dir), "a\nb\n");
    }

    #[test]
    fn fingerprints_follow_the_parts() {
        let a = PassOutput {
            wall_s: 1.0,
            stdouts: vec![],
            parts: vec![("stdout[0]".into(), 1), ("out/summary.csv".into(), 2)],
        };
        let mut b = a.clone();
        b.wall_s = 2.0;
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(b.first_difference(&a), None);
        b.parts[1].1 = 3;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(b.first_difference(&a).unwrap().contains("out/summary.csv"));
        b.parts.pop();
        assert!(b.first_difference(&a).is_some());
    }

    #[test]
    fn every_workload_renders_to_cli_args_that_carry_the_seed() {
        let dir = Path::new("target/none");
        // `--restore` names a snapshot the previous call wrote.
        let renderable = |c: &&Call| !matches!(c, Call::Sim(s) if s.restore);
        let render = |name: &str, seed: u64| -> Vec<Vec<String>> {
            calls(name, seed)
                .iter()
                .filter(renderable)
                .map(|c| c.args(dir).unwrap())
                .collect()
        };
        for w in &WORKLOADS {
            let at7 = render(w.name, 7);
            assert!(!at7.is_empty());
            for args in &at7 {
                assert!(args[0] == "sim" || args[0] == "campaign");
            }
            assert!(at7[0].iter().any(|a| a == "7" || a.contains("seed = 7,")));
            assert_ne!(at7, render(w.name, 8), "{} ignores the seed", w.name);
            assert_eq!(
                at7,
                render(w.name, 7),
                "{} is not a function of the seed",
                w.name
            );
        }
        assert!(find("task_comm").is_some() && find("nope").is_none());
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
