//! The one run path: describe a machine and an application, pick an
//! abstraction level, run (paper, Section 1 item 2; Fig. 2 and Fig. 4).
//!
//! A [`RunConfig`] is a run's identity — eleven strings and numbers, hashed
//! by [`RunConfig::config_hash`]. [`RunConfig::resolve`] is the only place
//! those strings become a machine, a workload generator, a fault schedule
//! and a [`Mode`]; [`Resolved::run`] is the only place a mode picks a
//! simulator. `sim`, `analyze` and every campaign run are the same three
//! steps with a different [`RunOptions`] (DESIGN.md, "One run path").

use std::sync::Arc;

/// FNV-1a, 64-bit: the one hash behind config identity and snapshot
/// bodies, stable across platforms and releases (it lands in persisted
/// campaign logs).
pub(crate) use mermaid_network::snapshot::fnv1a64;
use mermaid_network::{
    CommResult, FaultSchedule, NetworkConfig, RetryParams, RunOptions, ShardProfile, SnapshotError,
    Topology,
};
use mermaid_tracegen::{CommPattern, InstructionMix, SizeDist, StochasticApp, StochasticGenerator};
use pearl::Time;
use serde::{Deserialize, Serialize};

use crate::direct::{DirectExecResult, DirectExecSim};
use crate::hybrid::{HybridResult, HybridSim};
use crate::machines::MachineConfig;
use crate::sweep;
use crate::tasklevel::{TaskLevelResult, TaskLevelSim};

/// One fully-materialised run configuration — every campaign dimension
/// pinned to a concrete value. This is the unit the config hash covers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Machine name (`test`, `t805`, `ppc601`, `paragon`).
    pub machine: String,
    /// Topology spec (`ring:8`, `mesh:4x4`, …).
    pub topo: String,
    /// Instruction mix (`scientific` or `integer`; detailed mode only).
    pub app: String,
    /// Communication pattern token, as written in the spec.
    pub pattern: String,
    /// Compute+communicate phases.
    pub phases: u32,
    /// Operations per phase.
    pub ops: u64,
    /// Trace-generator seed.
    pub seed: u64,
    /// Simulation mode (`task` or `detailed`).
    pub mode: String,
    /// Communication-model worker threads for this run.
    pub shards: usize,
    /// Fault spec with `+` joining clauses, or `none`.
    pub faults: String,
    /// Fault-schedule seed (per-packet loss/corruption draws).
    pub fault_seed: u64,
}

impl Default for RunConfig {
    /// What a task-mode `sim` with no flags runs. A campaign spec shares
    /// every default but the machine (`test`) and has none for `topo`.
    fn default() -> Self {
        RunConfig {
            machine: "t805".to_string(),
            topo: "ring:8".to_string(),
            app: SCIENTIFIC.to_string(),
            pattern: "ring".to_string(),
            phases: 5,
            ops: 5_000,
            seed: 1,
            mode: Mode::Task.name().to_string(),
            shards: 1,
            faults: NO_FAULTS.to_string(),
            fault_seed: 1,
        }
    }
}

impl RunConfig {
    /// The canonical one-line rendering of this configuration. The config
    /// hash is computed over exactly this string, so its format is a
    /// stability contract: the `campaign-v1` prefix is bumped whenever a
    /// field is added, removed, or re-ordered (DESIGN.md §13) — old
    /// records then simply stop matching instead of silently colliding.
    pub fn canonical(&self) -> String {
        format!(
            "campaign-v1 machine={} topo={} app={} pattern={} phases={} ops={} seed={} \
             mode={} shards={} faults={} fault-seed={}",
            self.machine,
            self.topo,
            self.app,
            self.pattern,
            self.phases,
            self.ops,
            self.seed,
            self.mode,
            self.shards,
            self.faults,
            self.fault_seed
        )
    }

    /// Stable 64-bit config hash (FNV-1a over [`RunConfig::canonical`]),
    /// rendered as 16 lowercase hex digits.
    pub fn config_hash(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }

    /// The workload half of the configuration — what is being run, as
    /// opposed to what it runs on. Records sharing a workload key are
    /// ranked against each other in the comparison table.
    pub fn workload_key(&self) -> String {
        format!(
            "{} {} phases={} ops={} seed={}",
            self.app, self.pattern, self.phases, self.ops, self.seed
        )
    }

    /// The architecture half: machine, topology, mode, shards, faults.
    pub fn architecture_label(&self) -> String {
        let mut s = format!("{} {}", self.machine, self.topo);
        if self.mode != Mode::Task.name() {
            s.push_str(&format!(" {}", self.mode));
        }
        if self.faults != NO_FAULTS {
            s.push_str(&format!(" faults={}", self.faults));
        }
        s
    }

    /// Turn the configuration's strings into the objects a run needs,
    /// checking each and the combinations that depend on one another: the
    /// topology's shape, a pattern the node count can run, scripted faults
    /// that name real links and routers. Every caller's user errors come
    /// from here, worded once.
    pub fn resolve(&self) -> Result<Resolved, String> {
        let topo = parse_topology(&self.topo)?;
        let machine = parse_machine(&self.machine, topo)?;
        let app = StochasticApp {
            mix: parse_mix(&self.app)?,
            phases: self.phases,
            ops_per_phase: SizeDist::Fixed(self.ops),
            pattern: parse_pattern(&self.pattern)?,
            ..StochasticApp::scientific(topo.nodes())
        };
        app.try_validate()
            .map_err(|e| format!("{e}; pick another --pattern or --topology"))?;
        let retry = RetryParams::default_for(&machine.network);
        let faults = parse_fault_token(&self.faults, self.fault_seed, retry)?;
        if let Some(sched) = &faults {
            sched.try_validate(&topo)?;
        }
        Ok(Resolved {
            machine,
            generator: StochasticGenerator::new(app, self.seed),
            faults: faults.map(Arc::new),
            mode: Mode::parse(&self.mode)?,
        })
    }
}

/// The abstraction level a run simulates at (paper, Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The communication model alone, over task-level traces.
    Task,
    /// The computational model in front of the communication model.
    Detailed,
    /// The direct-execution baseline: static costs, cache-blind.
    Direct,
}

impl Mode {
    /// The mode's name in `--mode`, campaign specs and [`RunConfig::mode`].
    pub fn name(self) -> &'static str {
        match self {
            Mode::Task => "task",
            Mode::Detailed => "detailed",
            Mode::Direct => "direct",
        }
    }

    /// The mode a name stands for.
    pub fn parse(name: &str) -> Result<Mode, String> {
        [Mode::Task, Mode::Detailed, Mode::Direct]
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| format!("unknown mode `{name}`"))
    }
}

/// The default `app`.
const SCIENTIFIC: &str = "scientific";

/// The `faults` value of a healthy run.
pub(crate) const NO_FAULTS: &str = "none";

pub(crate) fn parse_mix(name: &str) -> Result<InstructionMix, String> {
    Ok(match name {
        SCIENTIFIC => InstructionMix::scientific(),
        "integer" => InstructionMix::integer(),
        other => {
            return Err(format!(
                "unknown app mix `{other}` (want scientific or integer)"
            ))
        }
    })
}

/// Parse a topology spec like `ring:8`, `mesh:4x4`, `hypercube:3`.
pub(crate) fn parse_topology(spec: &str) -> Result<Topology, String> {
    let (kind, params) = spec
        .split_once(':')
        .ok_or_else(|| format!("topology spec `{spec}` needs kind:params"))?;
    let num = |s: &str| -> Result<u32, String> {
        s.parse()
            .map_err(|_| format!("bad number `{s}` in `{spec}`"))
    };
    let topo = match kind {
        "ring" => Topology::Ring(num(params)?),
        "full" => Topology::FullyConnected(num(params)?),
        "star" => Topology::Star(num(params)?),
        "hypercube" => Topology::Hypercube { dim: num(params)? },
        "mesh" | "torus" => {
            let (w, h) = params
                .split_once('x')
                .ok_or_else(|| format!("`{spec}` needs WxH"))?;
            let (w, h) = (num(w)?, num(h)?);
            if kind == "mesh" {
                Topology::Mesh2D { w, h }
            } else {
                Topology::Torus2D { w, h }
            }
        }
        other => return Err(format!("unknown topology `{other}`")),
    };
    topo.try_validate()?;
    Ok(topo)
}

pub(crate) fn parse_machine(name: &str, topo: Topology) -> Result<MachineConfig, String> {
    Ok(match name {
        "t805" => MachineConfig::t805_multicomputer(topo),
        "ppc601" => MachineConfig::powerpc601_cluster(topo, 1),
        "paragon" => {
            let mut m = MachineConfig::paragon(2, 2);
            m.network = NetworkConfig::hw_routed(topo);
            m.name = format!("Paragon XP/S-class, {}", topo.label());
            m
        }
        "test" => MachineConfig::test_machine(topo),
        other => {
            return Err(format!(
                "unknown machine `{other}` (t805|ppc601|paragon|test)"
            ))
        }
    })
}

pub(crate) fn parse_pattern(name: &str) -> Result<CommPattern, String> {
    Ok(match name {
        "none" => CommPattern::None,
        "ring" | "nn" => CommPattern::NearestNeighborRing,
        "all2all" | "alltoall" => CommPattern::AllToAll,
        "master" | "masterworker" => CommPattern::MasterWorker,
        "random" => CommPattern::RandomPermutation,
        "butterfly" => CommPattern::Butterfly,
        other => return Err(format!("unknown pattern `{other}`")),
    })
}

/// Parse a [`RunConfig::faults`] value: `none`, or a fault spec with `+`
/// for the clause separator. `retry` supplies the timing the spec leaves
/// out. The schedule still has to be checked against a topology
/// ([`FaultSchedule::try_validate`]) — a campaign spec is parsed before
/// its topologies are paired with its fault alternatives.
pub(crate) fn parse_fault_token(
    spec: &str,
    seed: u64,
    retry: RetryParams,
) -> Result<Option<FaultSchedule>, String> {
    if spec == NO_FAULTS {
        return Ok(None);
    }
    FaultSchedule::parse(&spec.replace('+', ";"), seed, retry).map(Some)
}

/// A [`RunConfig`] with every string turned into the object it names.
pub struct Resolved {
    /// The machine, on the configured topology.
    pub machine: MachineConfig,
    /// The stochastic workload, seeded.
    pub generator: StochasticGenerator,
    /// The fault schedule; `None` runs the healthy machine.
    pub faults: Option<Arc<FaultSchedule>>,
    /// The abstraction level.
    pub mode: Mode,
}

impl Resolved {
    /// Run the configuration at its abstraction level. `opts` is the
    /// caller's whole contribution — sinks, shards, the resolved faults, a
    /// snapshot to resume, checkpoints to write. `busy` is how many threads
    /// the surroundings keep busy per run (the `jobs × shards` of a
    /// campaign, 1 for a run on its own): the per-node phase of a detailed
    /// or direct run gets `cores / busy` workers, sized only when there is
    /// such a phase — asking the host costs a task-mode run of a few
    /// hundred microseconds more than it is worth. Only the snapshot
    /// options can fail. Direct execution runs the plain communication
    /// model: it has nothing to record into, shard, inject into or
    /// snapshot, so callers that accept such options reject the mode.
    pub fn run(&self, opts: &RunOptions<'_>, busy: usize) -> Result<Outcome, SnapshotError> {
        Ok(match self.mode {
            Mode::Task => Outcome::Task(
                TaskLevelSim::new(self.machine.network)
                    .with_options(opts.clone())
                    .try_run(&self.generator.generate_task_level())?,
            ),
            Mode::Detailed => Outcome::Detailed(
                HybridSim::new(self.machine.clone())
                    .with_options(opts.clone())
                    .with_workers(sweep::auto_workers_for(busy))
                    .try_run_streams(self.generator.streams())?,
            ),
            Mode::Direct => Outcome::Direct(
                DirectExecSim::new(self.machine.clone())
                    .with_workers(sweep::auto_workers_for(busy))
                    .run_streams(self.generator.streams()),
            ),
        })
    }
}

/// What [`Resolved::run`] returns: the result type of the simulator the
/// mode picked.
pub enum Outcome {
    /// A task-level run.
    Task(TaskLevelResult),
    /// A detailed (hybrid) run.
    Detailed(HybridResult),
    /// A direct-execution estimate.
    Direct(DirectExecResult),
}

impl Outcome {
    /// Predicted execution time on the target machine.
    pub fn predicted_time(&self) -> Time {
        self.comm().finish
    }

    /// Communication-model results.
    pub fn comm(&self) -> &CommResult {
        match self {
            Outcome::Task(r) => &r.comm,
            Outcome::Detailed(r) => &r.comm,
            Outcome::Direct(r) => &r.comm,
        }
    }

    /// Operations simulated, at the mode's own granularity.
    pub fn ops_simulated(&self) -> u64 {
        match self {
            Outcome::Task(r) => r.ops_simulated,
            Outcome::Detailed(r) => r.ops_simulated,
            Outcome::Direct(r) => r.ops_processed,
        }
    }

    /// Shard self-profile of a sharded communication phase.
    pub fn shard_profile(&self) -> Option<&ShardProfile> {
        match self {
            Outcome::Task(r) => r.shard_profile.as_ref(),
            Outcome::Detailed(r) => r.shard_profile.as_ref(),
            Outcome::Direct(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_specs_parse() {
        assert_eq!(parse_topology("ring:8").unwrap(), Topology::Ring(8));
        assert_eq!(
            parse_topology("mesh:4x2").unwrap(),
            Topology::Mesh2D { w: 4, h: 2 }
        );
        assert_eq!(
            parse_topology("hypercube:3").unwrap(),
            Topology::Hypercube { dim: 3 }
        );
        assert!(parse_topology("ring").is_err());
        assert!(parse_topology("blob:3").is_err());
        assert!(parse_topology("mesh:4").is_err());
    }

    #[test]
    fn invalid_topology_specs_are_errors_not_panics() {
        // Each of these used to reach `Topology::validate()`'s assertions
        // (or overflow `w*h`) and abort the process; they must now come
        // back as plain `Err`s.
        for spec in [
            "ring:1",
            "ring:0",
            "mesh:0x4",
            "mesh:4x0",
            "torus:0x4",
            "mesh:1x1",
            "hypercube:0",
            "hypercube:21",
            "full:1",
            "star:1",
            "mesh:100000x100000",
        ] {
            let err = parse_topology(spec).expect_err(&format!("`{spec}` should be rejected"));
            assert!(!err.is_empty());
        }
        // ... while the boundary cases stay valid.
        assert!(parse_topology("ring:2").is_ok());
        assert!(parse_topology("hypercube:20").is_ok());
    }

    #[test]
    fn every_string_of_a_config_is_checked_by_resolve() {
        let ok = RunConfig::default();
        let r = ok.resolve().unwrap();
        assert_eq!(r.mode, Mode::Task);
        assert!(r.faults.is_none());
        assert_eq!(r.machine.nodes(), 8);
        for (bad, want) in [
            (
                RunConfig {
                    topo: "blob:3".into(),
                    ..ok.clone()
                },
                "unknown topology `blob`",
            ),
            (
                RunConfig {
                    machine: "vax".into(),
                    ..ok.clone()
                },
                "unknown machine `vax`",
            ),
            (
                RunConfig {
                    app: "intger".into(),
                    ..ok.clone()
                },
                "unknown app mix `intger`",
            ),
            (
                RunConfig {
                    pattern: "star".into(),
                    ..ok.clone()
                },
                "unknown pattern `star`",
            ),
            (
                RunConfig {
                    mode: "fast".into(),
                    ..ok.clone()
                },
                "unknown mode `fast`",
            ),
            (
                RunConfig {
                    faults: "frob:1".into(),
                    ..ok.clone()
                },
                "frob",
            ),
            (
                RunConfig {
                    faults: "link:0-4:10".into(),
                    ..ok.clone()
                },
                "0-4",
            ),
            (
                RunConfig {
                    topo: "ring:6".into(),
                    pattern: "butterfly".into(),
                    ..ok.clone()
                },
                "power-of-two",
            ),
        ] {
            let err = bad.resolve().err().expect("must be rejected");
            assert!(err.contains(want), "`{err}` should mention `{want}`");
        }
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in [Mode::Task, Mode::Detailed, Mode::Direct] {
            assert_eq!(Mode::parse(mode.name()), Ok(mode));
        }
    }
}
