//! Post-mortem report rendering: turns simulation results into the tables
//! and summaries of the "visualization and analysis tools" box of Fig. 1.

use mermaid_network::CommResult;
use mermaid_stats::table::Align;
use mermaid_stats::Table;
use pearl::{FastHashMap, Time};

use crate::campaign::CampaignRecord;
use crate::hybrid::HybridResult;
use crate::slowdown::SlowdownReport;
use crate::tasklevel::TaskLevelResult;

/// Render a per-node summary table of a hybrid run.
pub fn hybrid_table(r: &HybridResult) -> Table {
    let mut t = Table::new([
        "node", "ops", "compute", "send blk", "recv blk", "l1d hit%", "msgs rx",
    ])
    .with_title("Hybrid simulation, per node");
    for (compute, comm) in r.nodes.iter().zip(&r.comm.nodes) {
        let l1d: f64 = compute
            .mem
            .l1d
            .first()
            .map(|s| 100.0 * s.hit_rate())
            .unwrap_or(0.0);
        t.row([
            compute.node.to_string(),
            compute.cpu.ops.total.to_string(),
            format!("{}", comm.proc.compute),
            format!("{}", comm.proc.send_block),
            format!("{}", comm.proc.recv_block),
            format!("{l1d:.1}"),
            comm.proc.msgs_received.to_string(),
        ]);
    }
    t
}

/// Render a task-level run summary.
pub fn task_level_table(r: &TaskLevelResult) -> Table {
    let mut t = Table::new([
        "node", "compute", "send blk", "recv blk", "msgs rx", "bytes tx",
    ])
    .with_title("Task-level simulation, per node");
    for n in &r.comm.nodes {
        t.row([
            n.node.to_string(),
            format!("{}", n.proc.compute),
            format!("{}", n.proc.send_block),
            format!("{}", n.proc.recv_block),
            n.proc.msgs_received.to_string(),
            n.proc.bytes_sent.to_string(),
        ]);
    }
    t
}

/// Render the degraded-mode summary of a fault-injected run: the
/// structured evidence of what the network failed to deliver. Returns
/// `None` when the run saw no degradation (nothing failed, timed out or
/// was dropped).
pub fn degraded_table(comm: &CommResult) -> Option<Table> {
    if !comm.degraded() {
        return None;
    }
    let mut t =
        Table::new(["sender", "dest", "msg seq", "retries", "gave up at"]).with_title(format!(
            "Degraded mode: {} message(s) failed, {} recv timeout(s), {} retransmission(s), \
             {} packet(s) dropped",
            comm.msgs_failed, comm.recv_timeouts, comm.total_retries, comm.total_dropped
        ));
    for u in &comm.unreachable {
        t.row([
            u.src.to_string(),
            u.dst.to_string(),
            u.seq.to_string(),
            u.retries.to_string(),
            format!("{}", u.gave_up),
        ]);
    }
    Some(t)
}

/// Render the campaign comparison table: records grouped by workload (in
/// first-appearance order — i.e. spec expansion order), each group ranked
/// by predicted time with ties broken on the config hash, so the table is
/// byte-stable regardless of execution order. The `vs best` column is the
/// slowdown relative to the group's winner; latency tails come from the
/// runs' log₂ histograms.
pub fn campaign_table(records: &[&CampaignRecord]) -> Table {
    ranked_table(rank_by_workload(records))
}

/// One pass over `records`: each record's workload key is formatted once
/// and looked up in an index of groups, which are pushed in
/// first-appearance order. Each group is then ranked by predicted time,
/// ties broken on the config hash. The index's hasher is unseeded, so
/// every process does the same work for the same records.
fn rank_by_workload<'a>(records: &[&'a CampaignRecord]) -> Vec<(String, Vec<&'a CampaignRecord>)> {
    let mut index: FastHashMap<String, usize> = FastHashMap::default();
    let mut groups: Vec<(String, Vec<&CampaignRecord>)> = Vec::new();
    for &r in records {
        let key = r.config.workload_key();
        let g = match index.get(&key) {
            Some(&g) => g,
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, Vec::new()));
                groups.len() - 1
            }
        };
        groups[g].1.push(r);
    }
    for (_, group) in &mut groups {
        group.sort_by(|a, b| {
            (a.predicted_ps, &a.config_hash).cmp(&(b.predicted_ps, &b.config_hash))
        });
    }
    groups
}

/// The comparison table of workload groups already in rank order.
fn ranked_table(groups: Vec<(String, Vec<&CampaignRecord>)>) -> Table {
    let mut t = Table::new([
        "workload",
        "rank",
        "architecture",
        "predicted",
        "vs best",
        "lat p50",
        "lat p99",
        "lat max",
        "dropped",
    ])
    .with_title("Campaign comparison: architectures ranked per workload")
    .with_aligns(vec![
        Align::Left,
        Align::Right,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (key, group) in groups {
        let best = group[0].predicted_ps.max(1);
        for (rank, r) in group.iter().enumerate() {
            t.row([
                if rank == 0 {
                    key.clone()
                } else {
                    String::new()
                },
                (rank + 1).to_string(),
                r.config.architecture_label(),
                format!("{}", Time::from_ps(r.predicted_ps)),
                format!("{:.2}x", r.predicted_ps as f64 / best as f64),
                format!("{}", Time::from_ps(r.latency_p50_ps)),
                format!("{}", Time::from_ps(r.latency_p99_ps)),
                format!("{}", Time::from_ps(r.latency_max_ps)),
                r.delivery.dropped_packets.to_string(),
            ]);
        }
    }
    t
}

/// Render a slowdown table in the paper's Section 6 shape.
pub fn slowdown_table(rows: &[(String, SlowdownReport)]) -> Table {
    let mut t = Table::new([
        "configuration",
        "procs",
        "sim time",
        "host ms",
        "slowdown/proc",
        "cycles/s",
    ])
    .with_title("Slowdown per simulated processor (paper Section 6)")
    .with_aligns(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (name, r) in rows {
        t.row([
            name.clone(),
            r.processors.to_string(),
            format!("{}", r.simulated),
            format!("{:.1}", r.host_wall.as_secs_f64() * 1e3),
            format!("{:.1}", r.slowdown_per_processor()),
            format!("{:.0}", r.target_cycles_per_host_second()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridSim;
    use crate::machines::MachineConfig;
    use crate::tasklevel::TaskLevelSim;
    use mermaid_network::Topology;
    use mermaid_tracegen::{CommPattern, SizeDist, StochasticApp, StochasticGenerator};

    #[test]
    fn tables_render_for_real_runs() {
        let app = StochasticApp {
            phases: 2,
            ops_per_phase: SizeDist::Fixed(100),
            pattern: CommPattern::NearestNeighborRing,
            ..StochasticApp::scientific(3)
        };
        let machine = MachineConfig::test_machine(Topology::Ring(3));
        let hybrid =
            HybridSim::new(machine.clone()).run(&StochasticGenerator::new(app, 1).generate());
        let ht = hybrid_table(&hybrid);
        assert_eq!(ht.len(), 3);
        assert!(ht.render().contains("node"));

        let task = TaskLevelSim::new(machine.network)
            .run(&StochasticGenerator::new(app, 1).generate_task_level());
        let tt = task_level_table(&task);
        assert_eq!(tt.len(), 3);
        assert!(tt.to_csv().lines().count() == 4);
    }

    #[test]
    fn campaign_table_ranks_within_workloads() {
        use crate::campaign::{execute_run, CampaignSpec};
        let spec = CampaignSpec::parse(
            "topo = ring:4, full:4; pattern = ring, all2all; phases = 1; ops = 200",
        )
        .unwrap();
        let records: Vec<_> = spec.expand().unwrap().iter().map(execute_run).collect();
        let refs: Vec<&_> = records.iter().collect();
        let t = campaign_table(&refs);
        assert_eq!(t.len(), 4, "two workloads x two architectures");
        let s = t.render();
        // Each workload group leads with its best architecture at 1.00x.
        assert!(s.contains("1.00x"), "{s}");
        assert!(s.contains("ring:4"), "{s}");
        assert!(s.contains("full:4"), "{s}");
    }

    /// The grouping `campaign_table` used before it went one-pass, kept as
    /// the oracle: one filter over every record per workload.
    fn quadratic_ranking<'a>(
        records: &[&'a CampaignRecord],
    ) -> Vec<(String, Vec<&'a CampaignRecord>)> {
        let mut workloads: Vec<String> = Vec::new();
        for r in records {
            let key = r.config.workload_key();
            if !workloads.contains(&key) {
                workloads.push(key);
            }
        }
        workloads
            .into_iter()
            .map(|key| {
                let mut group: Vec<&CampaignRecord> = records
                    .iter()
                    .copied()
                    .filter(|r| r.config.workload_key() == key)
                    .collect();
                group.sort_by_key(|r| (r.predicted_ps, r.config_hash.clone()));
                (key, group)
            })
            .collect()
    }

    #[test]
    fn one_pass_ranking_matches_the_quadratic_grouping() {
        use crate::campaign::RunConfig;
        use mermaid_stats::DeliveryStats;
        // 6 workloads x 4 architectures; predicted times repeat inside
        // each group, so the hash tie-break decides ranks.
        let mut records = Vec::new();
        for (p, pattern) in ["ring", "all2all", "random"].into_iter().enumerate() {
            for seed in [1, 2] {
                for (a, topo) in ["ring:4", "mesh:2x2", "torus:2x2", "full:4"]
                    .into_iter()
                    .enumerate()
                {
                    let config = RunConfig {
                        topo: topo.into(),
                        pattern: pattern.into(),
                        seed,
                        ..RunConfig::default()
                    };
                    let tier = ((a + p + seed as usize) % 3) as u64;
                    records.push(CampaignRecord {
                        config_hash: config.config_hash(),
                        config,
                        predicted_ps: 5_000 + 1_000 * tier,
                        all_done: true,
                        events: 0,
                        ops_simulated: 0,
                        msgs_delivered: 0,
                        bytes_sent: 0,
                        latency_p50_ps: tier,
                        latency_p90_ps: 0,
                        latency_p99_ps: 0,
                        latency_max_ps: a as u64,
                        delivery: DeliveryStats::default(),
                        attribution: None,
                    });
                }
            }
        }
        // Shuffled: descending hash order interleaves the workloads and
        // puts each tie in the opposite of its ranked order.
        records.sort_by(|a, b| b.config_hash.cmp(&a.config_hash));
        let refs: Vec<&CampaignRecord> = records.iter().collect();
        let want = quadratic_ranking(&refs);
        assert!(
            want.iter()
                .any(|(_, g)| g.windows(2).any(|w| w[0].predicted_ps == w[1].predicted_ps)),
            "the input must hold a tie"
        );
        assert_eq!(rank_by_workload(&refs), want);
        assert_eq!(campaign_table(&refs).render(), ranked_table(want).render());
    }

    #[test]
    fn slowdown_table_renders() {
        use crate::slowdown::SlowdownMeter;
        let m = SlowdownMeter::start(4, pearl::Frequency::from_mhz(30));
        let rep = m.finish(pearl::Time::from_us(100));
        let t = slowdown_table(&[("t805".to_string(), rep)]);
        let s = t.render();
        assert!(s.contains("t805"));
        assert!(s.contains("slowdown/proc"));
    }
}
