//! The benchmark's contract: every metric by name with unit, direction and
//! (end to end) regression bound. `BENCHMARK.json` at the repository root
//! is generated from these tables (`mermaid-bench manifest`), and a test
//! keeps the two equal.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one run measures for when the driver does not say.
pub const RUN_SECONDS: u64 = 8;

/// Where the benchmark lives, relative to the repository root.
pub const BENCH_DIR: &str = "crates/bench/src/bin/mermaid-bench";

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the workbench sees, on every workload. Host time.
///
/// The contract's file has one bound per metric, not per workload, and
/// rejects a metric whose ten-seed spread exceeds its bound, so each bound
/// is the loosest any workload needs. On the host this was written on that
/// spread runs from 3% to 12% for `wall_s` depending on what the
/// neighbours are doing, and to 15% for `peak_rss_mb` on the two
/// workloads under 20 MB, where one allocator step is that large (it is
/// under 2% on the other four). Nothing tighter than the contract's
/// ceiling of 25% would hold; README.md has the numbers per workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// An exact count: it must repeat bit for bit, and a change that only
    /// speeds the simulator up may not move it.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// Single-layer metrics of the traced run, grouped by module. A layer a
/// workload does not exercise reports 0 there — that is the "should not
/// move" half of the interaction table in the README.
pub const PER_LAYER: [PerLayer; 74] = [
    // tracegen, ops
    time("tracegen.generate_s", "s"),
    time("tracegen.ns_per_op", "ns/op"),
    count("ops.sim_ops", "count"),
    time("ops.trace_mb", "MB"),
    // cpu, memory, core::hybrid
    time("cpu.extract_s", "s"),
    time("cpu.ns_per_op", "ns/op"),
    time("core.hybrid.run_s", "s"),
    count("memory.l1d_miss_share", "ratio"),
    count("memory.bus_transactions", "count"),
    count("memory.dram_accesses", "count"),
    // pearl::queue
    time("pearl.queue.hold_ns_per_op.n64", "ns/op"),
    time("pearl.queue.hold_ns_per_op.n4096", "ns/op"),
    time("pearl.queue.hold_ns_per_op.n262144", "ns/op"),
    // pearl::engine
    time("pearl.engine.null_event_ns", "ns/event"),
    count("pearl.engine.events", "count"),
    // pearl::shard
    time("pearl.shard.barrier_round_ns", "ns"),
    // network::sim, router, processor
    time("network.sim.build_s", "s"),
    time("network.sim.run_s", "s"),
    time("network.sim.ns_per_event", "ns/event"),
    time("network.sim.handler_ns_per_event", "ns/event"),
    count("network.sim.predicted_ps", "ps"),
    count("network.sim.events_per_msg", "ratio"),
    count("network.router.link_busy_ps", "ps"),
    count("network.processor.msgs_delivered", "count"),
    // network::fault
    time("network.fault.run_s", "s"),
    time("network.fault.ns_per_event", "ns/event"),
    count("network.fault.dropped_packets", "count"),
    count("network.fault.retries", "count"),
    count("network.fault.msgs_failed", "count"),
    count("network.fault.recv_timeouts", "count"),
    // network::snapshot
    time("network.snapshot.capture_s", "s"),
    time("network.snapshot.serialize_s", "s"),
    time("network.snapshot.write_s", "s"),
    time("network.snapshot.parse_s", "s"),
    time("network.snapshot.restore_s", "s"),
    count("network.snapshot.bytes", "B"),
    count("network.snapshot.count", "count"),
    // network::sharded
    time("network.sharded.run_s", "s"),
    higher("network.sharded.speedup_vs_serial", "ratio"),
    time("network.sharded.barrier_wait_share", "ratio"),
    time("network.sharded.work_ns_max", "ns"),
    time("network.sharded.host_cpu_s", "s"),
    time("network.sharded.windows", "count"),
    higher("network.sharded.events_per_window", "ratio"),
    count("network.sharded.cross_msgs", "count"),
    time("network.sharded.flush_batches", "count"),
    higher("network.sharded.spec_commits", "count"),
    time("network.sharded.spec_rollbacks", "count"),
    // probe
    time("probe.off_run_s", "s"),
    time("probe.buffer_run_s", "s"),
    time("probe.emit_ns_per_event", "ns/event"),
    count("probe.events_emitted", "count"),
    time("probe.sink.metrics_s", "s"),
    time("probe.sink.chrome_s", "s"),
    time("probe.sink.jsonl_s", "s"),
    time("probe.sink.attribution_s", "s"),
    time("probe.render.chrome_s", "s"),
    time("probe.render.attribution_s", "s"),
    time("probe.render.metrics_s", "s"),
    count("probe.trace_out_mb", "MB"),
    time("probe.on_off_ratio", "ratio"),
    time("probe.rss_per_event_b", "B"),
    // core::cli, core::report
    time("core.cli.self_s", "s"),
    time("core.cli.self_share", "ratio"),
    count("core.cli.stdout_kb", "kB"),
    // core::campaign, core::sweep
    time("core.campaign.parse_expand_s", "s"),
    time("core.campaign.execute_s", "s"),
    time("core.campaign.run_p50_us", "us"),
    time("core.campaign.run_p99_us", "us"),
    time("core.campaign.record_io_s", "s"),
    time("core.campaign.resume_noop_s", "s"),
    higher("core.sweep.jobs2_speedup", "ratio"),
    count("core.campaign.runs", "count"),
    // harness
    time("harness.trace_overhead_share", "ratio"),
];

/// The document `BENCHMARK.json` must hold.
pub fn benchmark_json() -> Json {
    let manifest = format!("{BENCH_DIR}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &manifest,
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(BENCH_DIR)])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.as_bytes()[0].is_ascii_alphanumeric()
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_units_and_counts_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} is used twice", w.name);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(is_name(name), "{name}");
            assert!(is_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let on_disk = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../../../../BENCHMARK.json"
        ));
        assert!(on_disk.len() <= 64 * 1024);
        assert_eq!(
            crate::json::parse(on_disk).unwrap(),
            benchmark_json(),
            "regenerate with `mermaid-bench manifest > BENCHMARK.json`"
        );
        assert_eq!(on_disk, benchmark_json().pretty());
    }
}
