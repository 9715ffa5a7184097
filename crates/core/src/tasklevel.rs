//! Task-level (fast-prototyping) simulation mode.
//!
//! "If fast prototyping of a multicomputer is the primary goal, then the
//! communication model can be used directly. […] Computation can be
//! simulated extremely fast since it is modelled at the level of tasks,
//! whereas communication is simulated in more detail" (paper, Section 6).
//! The task-level traces come straight from a trace generator (Fig. 4's
//! task-level quadrants) instead of from the computational model.

use mermaid_network::{
    run_comm, CommResult, NetworkConfig, RunOptions, ShardProfile, SnapshotError,
};
use mermaid_ops::TraceSet;
use pearl::Time;

/// Result of a task-level simulation.
#[derive(Debug)]
pub struct TaskLevelResult {
    /// Predicted execution time.
    pub predicted_time: Time,
    /// Full communication-model results.
    pub comm: CommResult,
    /// Task-level operations simulated.
    pub ops_simulated: u64,
    /// Shard self-profile of a sharded run (`None` when the run was
    /// serial). Host-wall-clock data, kept outside `comm` so determinism
    /// checks over the model results are unaffected.
    pub shard_profile: Option<ShardProfile>,
}

/// The fast-prototyping simulator: the communication model alone.
#[derive(Clone)]
pub struct TaskLevelSim<'a> {
    network: NetworkConfig,
    opts: RunOptions<'a>,
}

impl<'a> TaskLevelSim<'a> {
    /// Create a task-level simulator for the given interconnect: serial,
    /// healthy, unprobed, no snapshot in or out.
    pub fn new(network: NetworkConfig) -> Self {
        network.validate();
        TaskLevelSim {
            network,
            opts: RunOptions::default(),
        }
    }

    /// Replace every run option at once (builder style) — the whole of
    /// [`RunOptions`], snapshot restore and checkpointing included. Run
    /// with [`TaskLevelSim::try_run`] when either of those is set.
    pub fn with_options(mut self, opts: RunOptions<'a>) -> Self {
        self.opts = opts;
        self
    }

    /// Run the communication model on `shards` worker threads (builder
    /// style). Sharded runs produce bit-identical results to the default
    /// single-threaded run; `1` (the default) keeps the serial path.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.opts.shards = shards;
        self
    }

    /// The interconnect configuration.
    pub fn network(&self) -> &NetworkConfig {
        &self.network
    }

    /// Run over task-level traces (one per node).
    ///
    /// # Panics
    ///
    /// When a snapshot option set through [`TaskLevelSim::with_options`]
    /// fails; nothing else can.
    pub fn run(&self, traces: &TraceSet) -> TaskLevelResult {
        self.clone()
            .try_run(traces)
            .expect("a run without snapshot options cannot fail")
    }

    /// [`TaskLevelSim::run`], returning what restoring from or writing a
    /// snapshot can fail with. The run takes the options, and with them
    /// the snapshot to restore, which it drops as soon as it can.
    pub fn try_run(self, traces: &TraceSet) -> Result<TaskLevelResult, SnapshotError> {
        let (comm, shard_profile) = run_comm(self.network, traces, self.opts)?;
        Ok(TaskLevelResult {
            predicted_time: comm.finish,
            comm,
            ops_simulated: traces.total_ops() as u64,
            shard_profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mermaid_network::Topology;
    use mermaid_tracegen::{CommPattern, StochasticApp, StochasticGenerator};

    fn traces(n: u32, pattern: CommPattern) -> TraceSet {
        let app = StochasticApp {
            pattern,
            ..StochasticApp::scientific(n)
        };
        StochasticGenerator::new(app, 11).generate_task_level()
    }

    #[test]
    fn task_level_run_completes() {
        let ts = traces(8, CommPattern::NearestNeighborRing);
        let r = TaskLevelSim::new(NetworkConfig::test(Topology::Ring(8))).run(&ts);
        assert!(r.comm.all_done, "deadlocked: {:?}", r.comm.deadlocked);
        assert!(r.predicted_time > Time::ZERO);
        assert_eq!(r.ops_simulated, ts.total_ops() as u64);
    }

    #[test]
    fn richer_topology_is_no_slower_for_all_to_all() {
        let ts = traces(8, CommPattern::AllToAll);
        let ring = TaskLevelSim::new(NetworkConfig::test(Topology::Ring(8))).run(&ts);
        let full = TaskLevelSim::new(NetworkConfig::test(Topology::FullyConnected(8))).run(&ts);
        assert!(full.predicted_time <= ring.predicted_time);
    }

    #[test]
    fn sharded_runs_are_bit_identical_across_topologies_and_patterns() {
        // Every topology shape × every communication pattern: a sharded
        // run must reproduce the serial result exactly, field for field
        // (the Debug rendering covers times, event counts, per-node stats
        // and histograms).
        let topos = [
            Topology::Ring(8),
            Topology::Mesh2D { w: 4, h: 2 },
            Topology::Torus2D { w: 4, h: 2 },
            Topology::Hypercube { dim: 3 },
        ];
        let patterns = [
            CommPattern::None,
            CommPattern::NearestNeighborRing,
            CommPattern::AllToAll,
            CommPattern::MasterWorker,
            CommPattern::RandomPermutation,
            CommPattern::Butterfly,
        ];
        for topo in topos {
            for pattern in patterns {
                let ts = traces(topo.nodes(), pattern);
                let serial = TaskLevelSim::new(NetworkConfig::test(topo)).run(&ts);
                let sharded = TaskLevelSim::new(NetworkConfig::test(topo))
                    .with_shards(3)
                    .run(&ts);
                assert_eq!(
                    format!("{:?}", serial.comm),
                    format!("{:?}", sharded.comm),
                    "{topo:?} × {pattern:?} diverged"
                );
                assert_eq!(serial.predicted_time, sharded.predicted_time);
                assert_eq!(serial.ops_simulated, sharded.ops_simulated);
            }
        }
    }

    #[test]
    fn hypercube_beats_ring_on_butterfly_traffic() {
        let ts = traces(8, CommPattern::Butterfly);
        let ring = TaskLevelSim::new(NetworkConfig::test(Topology::Ring(8))).run(&ts);
        let cube = TaskLevelSim::new(NetworkConfig::test(Topology::Hypercube { dim: 3 })).run(&ts);
        assert!(cube.predicted_time <= ring.predicted_time);
    }
}
