//! The one table of the conformance matrix. A [`Block`] is the rows one
//! test drives through [`super::check`]: the test named on the block.

use super::{scenario, Exec, Obs, Row};
use Exec::{Restored, Serial, Sharded, Workers};

/// One topology of each task-level shape, eight nodes each.
pub const TOPOS: [&str; 4] = ["ring:8", "mesh:4x2", "torus:4x2", "hypercube:3"];

/// Every fault class: a link cut that heals, a router crash that recovers,
/// loss and corruption. Link 0–1 and router 2 exist in every [`TOPOS`].
pub const EVENTFUL: &str = "link:0-1:2000:60000+router:2:10000:80000+drop:20000+corrupt:10000";

/// Corner node 15 of a 4×4 mesh cut off for good: degraded, not
/// deadlocked (`fault_injection` checks the degradation).
pub const PARTITION: &str =
    "topo=mesh:4x4 pattern=all2all phases=3 seed=23 faults=link:15-11:0+link:15-14:0";

/// A healing outage plus transient loss.
const HEALING: &str = "faults=link:0-1:2000:400000+drop:20000 fault_seed=9";

/// Restored half-way, serially and on three shards.
const MID_1: Exec = Restored {
    at: (1, 2),
    shards: 1,
};
const MID_3: Exec = Restored {
    at: (1, 2),
    shards: 3,
};

const SIM: Obs = Obs::Stdout("sim");

#[derive(Clone, Copy, Debug)]
pub enum Block {
    /// `checkpoint_conformance::restored_runs_are_byte_identical_across_the_matrix`
    Restore,
    /// `checkpoint_conformance::faulty_runs_restore_byte_identically`
    FaultyRestore,
    /// `checkpoint_conformance::serial_and_sharded_captures_write_identical_snapshot_files`
    Captures,
    /// `checkpoint_conformance::restored_attribution_json_is_byte_identical`
    RestoredAttribution,
    /// `checkpoint_conformance::store_and_forward_windows_shard_and_restore_exactly`
    StoreAndForward,
    /// `fault_injection::sharded_faulty_runs_are_bit_identical_across_topologies`
    FaultySharded,
    /// `attribution_conformance::attribution_json_is_byte_identical_serial_vs_sharded`
    Attribution,
    /// `attribution_conformance::faulty_attribution_is_byte_identical_serial_vs_sharded`
    FaultyAttribution,
    /// `worker_invariance::results_do_not_depend_on_the_worker_count`
    WorkerCounts,
    /// `worker_invariance::a_probed_run_keeps_its_node_major_event_stream_whatever_it_is_asked_for`
    ProbedWorkers,
    /// `golden_cli::golden_analyze_is_shard_invariant`
    AnalyzeSharded,
    /// `golden_cli::golden_faulty_runs_are_shard_invariant`
    SimSharded,
    /// `golden_cli::golden_detailed_sims`
    DetailedSharded,
    /// `golden_cli::golden_direct_sims`
    DirectSharded,
    /// `proptests::restored_runs_match_uninterrupted_runs`
    RestoreSweep,
}

/// One row per scenario in `flags`, each run on `execs` and compared on
/// `obs`.
fn rows_of<S: AsRef<str>>(flags: &[S], execs: &[Exec], obs: &[Obs]) -> Vec<Row> {
    let row = |flags: &S| Row {
        scenario: scenario(flags.as_ref()),
        execs: execs.to_vec(),
        obs: obs.to_vec(),
    };
    flags.iter().map(row).collect()
}

/// Every [`TOPOS`] × `patterns`, with `extra` flags.
fn grid(patterns: &[&str], extra: &str) -> Vec<String> {
    let topo = |t| {
        patterns
            .iter()
            .map(move |p| format!("topo={t} pattern={p} {extra}"))
    };
    TOPOS.iter().flat_map(topo).collect()
}

/// The scenarios of the `golden_cli` `sim` documents in `mode`, in
/// document order (`golden_cli` builds the documents from these rows).
fn golden_sims(mode: &str) -> Vec<String> {
    let patterns = ["none", "ring", "all2all", "master", "random", "butterfly"];
    let runs = ["test", "ppc601"].map(|m| ["mesh:2x2", "ring:8"].map(|t| (m, t)));
    let sims = runs.into_iter().flatten().flat_map(|(m, t)| {
        patterns.map(|p| format!("machine={m} topo={t} pattern={p} mode={mode} phases=3 ops=300"))
    });
    sims.collect()
}

pub fn rows(block: Block) -> Vec<Row> {
    let (sharded, result_probe) = ([Serial, Sharded(3)], [Obs::Result, Obs::Probe]);
    let torus = "topo=torus:4x2 pattern=all2all";
    match block {
        Block::Restore => rows_of(
            &grid(&["ring", "all2all", "butterfly"], ""),
            &[Serial, MID_1, MID_3],
            &[SIM],
        ),
        Block::FaultyRestore => rows_of(
            &[
                format!("pattern=ring {HEALING}"),
                format!("{torus} faults=link:0-1:0+corrupt:10000 fault_seed=9"),
            ],
            &[Serial, MID_1, MID_3],
            &[SIM],
        ),
        Block::Captures => rows_of(
            &[torus.to_string(), format!("{torus} {HEALING}")],
            &sharded,
            &[Obs::Snapshots],
        ),
        // The second row's serial and sharded runs capture as they go:
        // checkpointing only observes.
        Block::RestoredAttribution => [
            rows_of(&[torus], &[Serial, MID_1, MID_3], &[Obs::Attribution]),
            rows_of(
                &[torus],
                &[Serial, Sharded(3), MID_1],
                &[Obs::Attribution, Obs::Snapshots],
            ),
        ]
        .concat(),
        // Store-and-forward windows sized by the smallest packet the run
        // can send: 1 B, a 1 B tail after a full packet, full packets only.
        Block::StoreAndForward => rows_of(
            &[1, 513, 4096].map(|b| format!("machine=t805 {torus} msg_bytes={b}")),
            &[
                Serial,
                Sharded(2),
                Restored {
                    at: (1, 2),
                    shards: 2,
                },
            ],
            &result_probe,
        ),
        Block::FaultySharded => {
            let eventful = format!("phases=3 seed=17 faults={EVENTFUL} fault_seed=7");
            let mut flags = grid(&["ring", "all2all"], &eventful);
            flags.push(PARTITION.into());
            rows_of(&flags, &sharded, &result_probe)
        }
        Block::Attribution => rows_of(
            &grid(&["ring", "all2all", "master"], "seed=21"),
            &sharded,
            &[Obs::Attribution],
        ),
        Block::FaultyAttribution => rows_of(
            &grid(
                &["all2all"],
                &format!("seed=17 faults={EVENTFUL} fault_seed=7"),
            ),
            &sharded,
            &[Obs::Attribution],
        ),
        Block::WorkerCounts => [("ring:6", 6), ("mesh:4x4", 16)]
            .into_iter()
            .flat_map(|(topo, nodes)| {
                let flags = ["t805", "ppc601"].map(|m| {
                    ["detailed", "direct"].map(|mode| {
                        format!("machine={m} topo={topo} mode={mode} phases=3 ops=800 seed=23")
                    })
                });
                let counts = [1, 2, 3, 16, nodes + 5].map(Workers);
                rows_of(flags.as_flattened(), &counts, &[Obs::Result])
            })
            .collect(),
        Block::ProbedWorkers => rows_of(
            &["machine=ppc601 topo=ring:6 mode=detailed phases=3 ops=800 seed=5"],
            &[Workers(1), Workers(4)],
            &[Obs::Result, Obs::Probe],
        ),
        Block::AnalyzeSharded => rows_of(
            &["topo=torus:4x4 pattern=all2all ops=5000 seed=5"],
            &sharded,
            &[Obs::Stdout("analyze")],
        ),
        Block::SimSharded => rows_of(
            &["", "faults=link:15-11:0+link:15-14:0 fault_seed=3"]
                .map(|f| format!("topo=mesh:4x4 pattern=all2all ops=5000 seed=5 {f}")),
            &sharded,
            &[SIM],
        ),
        Block::DetailedSharded => rows_of(&golden_sims("detailed"), &sharded, &[SIM]),
        Block::DirectSharded => rows_of(&golden_sims("direct"), &sharded, &[SIM]),
        Block::RestoreSweep => rows_of(
            &grid(&["random"], "seed=3")
                .into_iter()
                .flat_map(|f| [format!("{f} faults=drop:20000 fault_seed=5"), f])
                .collect::<Vec<_>>(),
            &[
                Serial,
                Restored {
                    at: (1, 4),
                    shards: 3,
                },
                MID_1,
                Restored {
                    at: (3, 4),
                    shards: 3,
                },
            ],
            &[Obs::Result],
        ),
    }
}
