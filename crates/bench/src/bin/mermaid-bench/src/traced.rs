//! The traced run: one pass re-executed as a tree of harness-side spans
//! around the public functions of each layer, yielding the per-layer
//! metrics. See `spans.rs` for how separate invocations become a tree.
//!
//! Naming rule: a span called `x.y` feeds the per-layer metric `x.y_s`
//! when the contract has one, so a layer's time metric and its span can
//! never drift apart. Counts and ratios are recorded by hand.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mermaid::campaign::{self, CampaignOptions, CampaignSpec};
use mermaid::prelude::*;
use mermaid::probe::SimEvent;
use mermaid::{report, TaskLevelResult};
use mermaid_network::{CommResult, CommSim, FaultSchedule, RetryParams, Snapshot};
use pearl::Time;

use crate::host;
use crate::manifest::PER_LAYER;
use crate::spans::Spans;
use crate::workloads::{
    self, Call, PassOutput, SimCall, CKPT_EVERY_PS, FAULT_SEED, FAULT_SPEC, RESTORE_INDEX,
};

/// Per-layer values of one pass, keyed by metric name. Times and counts
/// add up over the calls of a pass; ratios are derived at the end.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `num / den`, or 0 when the pass never reached the layer.
    fn set_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        self.0.insert(name, if den > 0.0 { num / den } else { 0.0 });
    }

    /// Every per-layer metric of the contract, 0 where the pass never
    /// reached the layer.
    pub fn into_metrics(self) -> BTreeMap<&'static str, f64> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name)))
            .collect()
    }
}

/// Internal tallies that only feed derived ratios.
const SIM_EVENTS: &str = "_sim_events";
const FAULT_EVENTS: &str = "_fault_events";
const OFF_BASELINE_S: &str = "_off_baseline_s";
const SHARD_EVENTS: &str = "_shard_events";
const SHARD_WAIT_NS: &str = "_shard_wait_ns";
const SHARD_WORK_NS: &str = "_shard_work_ns";
const L1D_MISSES: &str = "_l1d_misses";
const L1D_ACCESSES: &str = "_l1d_accesses";

struct Tracer<'a> {
    spans: &'a mut Spans,
    m: Layers,
}

impl Tracer<'_> {
    /// Add `dur` to the metric `<span>_s`, if the contract has it.
    fn feed(&mut self, span: &str, dur: Duration) {
        let metric = PER_LAYER
            .iter()
            .find(|m| m.name.strip_suffix("_s") == Some(span));
        if let Some(m) = metric {
            self.m.add(m.name, dur.as_secs_f64());
        }
    }

    /// Time `f` as a child span of `parent`; returns its result, span id
    /// and duration.
    fn child_span<R>(
        &mut self,
        parent: usize,
        name: &str,
        f: impl FnOnce() -> R,
    ) -> (R, usize, Duration) {
        let (r, dur) = self.spans.time(parent, name, f);
        self.feed(name, dur);
        (r, self.spans.spans.len() - 1, dur)
    }

    fn child<R>(&mut self, parent: usize, name: &str, f: impl FnOnce() -> R) -> R {
        self.child_span(parent, name, f).0
    }

    /// Time `f` as a parentless span: work the decomposition needs (a
    /// serial reference, a buffered event stream) that the traced call
    /// itself never did, so it must not count towards the call's children.
    fn aside<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, usize, Duration) {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        let t1 = Instant::now();
        self.feed(name, t1 - t0);
        (r, self.spans.root(name, t0, t1), t1 - t0)
    }

    fn generate(&mut self, parent: usize, call: &SimCall) -> (TraceSet, Duration) {
        let (traces, _, d) = self.child_span(parent, "tracegen.generate", || call.traces());
        let ops = traces.total_ops() as f64;
        self.m.add("ops.sim_ops", ops);
        self.m.add(
            "ops.trace_mb",
            ops * std::mem::size_of::<Operation>() as f64 / 1e6,
        );
        (traces, d)
    }

    /// `CommSim` construction and run with the probe off — the serial
    /// communication model on its own.
    fn comm(
        &mut self,
        parent: usize,
        cfg: NetworkConfig,
        traces: &TraceSet,
    ) -> (CommResult, Duration) {
        let (mut sim, _, build) = self.child_span(parent, "network.sim.build", || {
            CommSim::new_with_probe(cfg, traces, ProbeHandle::disabled())
        });
        let (r, _, run) = self.child_span(parent, "network.sim.run", || sim.run());
        self.m.add(SIM_EVENTS, r.events as f64);
        self.model_counts(&r);
        (r, build + run)
    }

    fn model_counts(&mut self, r: &CommResult) {
        self.m.add("pearl.engine.events", r.events as f64);
        self.m
            .add("network.sim.predicted_ps", r.finish.as_ps() as f64);
        self.m.add(
            "network.router.link_busy_ps",
            r.total_link_busy().as_ps() as f64,
        );
        self.m
            .add("network.processor.msgs_delivered", r.total_messages as f64);
    }

    fn render_task(&mut self, parent: usize, comm: CommResult, traces: &TraceSet) {
        let r = TaskLevelResult {
            predicted_time: comm.finish,
            comm,
            ops_simulated: traces.total_ops() as u64,
            shard_profile: None,
        };
        self.child(parent, "core.report.render", || {
            report::task_level_table(&r).render()
        });
    }

    fn task_plain(&mut self, root: usize, call: &SimCall) {
        let (traces, _) = self.generate(root, call);
        let (comm, _) = self.comm(root, call.machine_config().network, &traces);
        self.render_task(root, comm, &traces);
    }

    fn detailed(&mut self, root: usize, call: &SimCall) {
        let (traces, _) = self.generate(root, call);
        let machine = call.machine_config();
        let (hybrid, hybrid_id, _) = self.child_span(root, "core.hybrid.run", || {
            HybridSim::new(machine.clone()).run(&traces)
        });

        // The two halves of `HybridSim::run`, each on its own.
        let mut mem_cfg = machine.node_mem.clone();
        mem_cfg.cpus = 1;
        let extracted = self.child(hybrid_id, "cpu.extract", || {
            traces
                .iter()
                .map(|t| SingleNodeSim::new(machine.cpu, mem_cfg.clone()).extract_tasks(t))
                .collect::<Vec<_>>()
        });
        let mut tasks = Vec::with_capacity(extracted.len());
        for x in extracted {
            let l1d = &x.mem_stats.l1d[0];
            self.m.add(L1D_MISSES, l1d.misses as f64);
            self.m.add(L1D_ACCESSES, (l1d.hits + l1d.misses) as f64);
            self.m.add(
                "memory.bus_transactions",
                x.mem_stats.bus_transactions as f64,
            );
            self.m.add(
                "memory.dram_accesses",
                (x.mem_stats.dram_reads + x.mem_stats.dram_writes) as f64,
            );
            tasks.push(x.task_trace);
        }
        let (comm, _) = self.comm(hybrid_id, machine.network, &TraceSet::from_traces(tasks));
        assert_eq!(
            comm.finish, hybrid.predicted_time,
            "layers diverged from HybridSim"
        );
        self.child(root, "core.report.render", || {
            report::hybrid_table(&hybrid).render()
        });
    }

    /// Replay a recorded event stream into `stack`, as a child of `parent`
    /// or, without one, aside.
    fn fold(
        &mut self,
        parent: Option<usize>,
        name: &str,
        events: &[SimEvent],
        stack: ProbeStack,
    ) -> ProbeHandle {
        let probe = ProbeHandle::new(stack);
        let replay = || events.iter().for_each(|ev| probe.replay(ev));
        match parent {
            Some(p) => self.child(p, name, replay),
            None => self.aside(name, replay).0,
        }
        probe
    }

    fn sinks(&mut self, root: usize, call: &SimCall, dir: &Path) -> Result<(), String> {
        let (traces, tracegen) = self.generate(root, call);
        let cfg = call.machine_config().network;
        let (comm, off) = self.comm(root, cfg, &traces);
        self.m.add("probe.off_run_s", off.as_secs_f64());
        self.m.add(OFF_BASELINE_S, (tracegen + off).as_secs_f64());
        let finish_ps = comm.finish.as_ps();

        // The event stream, recorded once and replayed into one sink at a
        // time: what each sink's fold costs without the others.
        let ((events, buffered), _, _) = self.aside("probe.buffer_run", || {
            let probe = ProbeHandle::new(ProbeStack::new().with_buffer());
            let r = CommSim::new_with_probe(cfg, &traces, probe.clone()).run();
            (probe.take_buffer().unwrap_or_default(), r)
        });
        assert_eq!(
            buffered.finish, comm.finish,
            "probing changed the prediction"
        );
        self.m.add("probe.events_emitted", events.len() as f64);

        // The four sinks the CLI attaches for these flags are part of the
        // call; JSONL is measured aside, for comparison.
        let hz = mermaid::host_frequency().as_hz() as f64;
        let on = Some(root);
        let chrome = self.fold(
            on,
            "probe.sink.chrome",
            &events,
            ProbeStack::new().with_chrome(),
        );
        let metrics = self.fold(
            on,
            "probe.sink.metrics",
            &events,
            ProbeStack::new().with_metrics(),
        );
        let profiler = self.fold(
            on,
            "probe.sink.profiler",
            &events,
            ProbeStack::new().with_profiler(hz),
        );
        let attribution = self.fold(
            on,
            "probe.sink.attribution",
            &events,
            ProbeStack::new().with_attribution(),
        );
        self.fold(
            None,
            "probe.sink.jsonl",
            &events,
            ProbeStack::new().with_jsonl(),
        );
        drop(events);

        let json = self.child(root, "probe.render.chrome", || {
            chrome.chrome_trace_json().unwrap_or_default()
        });
        self.m.add("probe.trace_out_mb", json.len() as f64 / 1e6);
        self.child(root, "probe.validate_chrome", || {
            mermaid::probe::validate_chrome_trace(&json)
        })
        .map_err(|e| format!("replayed chrome trace is invalid: {e}"))?;
        let written = std::fs::read(dir.join(format!("trace-{}.json", call.seed)))
            .map_err(|e| format!("the traced call left no trace file: {e}"))?;
        if written != json.as_bytes() {
            return Err("replaying the buffered stream does not rebuild --trace-out".into());
        }
        self.child(root, "probe.write_trace", || {
            std::fs::write(dir.join("layers-trace.json"), &json)
        })
        .map_err(|e| e.to_string())?;
        drop(json);
        self.child(root, "probe.render.attribution", || {
            attribution
                .attribution_report(finish_ps)
                .map(|r| r.to_json())
        });
        self.child(root, "probe.render.metrics", || {
            let report = metrics.metrics_report(finish_ps).map(|r| r.render());
            (report, profiler.host_profile().map(|p| p.render()))
        });
        self.render_task(root, comm, &traces);
        Ok(())
    }

    fn sharded(&mut self, root: usize, call: &SimCall) {
        let (traces, _) = self.generate(root, call);
        let cfg = call.machine_config().network;
        let cpu_before = host::cpu_seconds();
        let (r, _, d) = self.child_span(root, "network.sharded.run", || {
            TaskLevelSim::new(cfg).with_shards(call.shards).run(&traces)
        });
        self.m.add(
            "network.sharded.host_cpu_s",
            host::cpu_seconds() - cpu_before,
        );
        if let Some(p) = &r.shard_profile {
            let sum = |f: fn(&mermaid_network::ShardProfileEntry) -> u64| {
                p.shards.iter().map(f).sum::<u64>() as f64
            };
            self.m.add(SHARD_WAIT_NS, p.total_barrier_wait_ns() as f64);
            self.m.add(SHARD_WORK_NS, p.total_work_ns() as f64);
            self.m.add(SHARD_EVENTS, sum(|s| s.events));
            self.m.add(
                "network.sharded.work_ns_max",
                p.shards.iter().map(|s| s.work_ns).max().unwrap_or(0) as f64,
            );
            self.m.add("network.sharded.windows", sum(|s| s.windows));
            self.m
                .add("network.sharded.cross_msgs", p.total_cross_msgs() as f64);
            self.m.add(
                "network.sharded.flush_batches",
                p.total_flush_batches() as f64,
            );
            self.m.add(
                "network.sharded.spec_commits",
                p.total_spec_commits() as f64,
            );
            self.m.add(
                "network.sharded.spec_rollbacks",
                p.total_spec_rollbacks() as f64,
            );
        }
        let sharded_finish = r.comm.finish;
        self.render_task(root, r.comm, &traces);

        let serial_root = self.aside("reference.serial", || ()).1;
        let (serial, serial_d) = self.comm(serial_root, cfg, &traces);
        assert_eq!(
            serial.finish, sharded_finish,
            "sharded run diverged from serial"
        );
        self.m.set_ratio(
            "network.sharded.speedup_vs_serial",
            serial_d.as_secs_f64(),
            d.as_secs_f64(),
        );
    }

    fn fault_schedule(cfg: &NetworkConfig) -> Result<Arc<FaultSchedule>, String> {
        FaultSchedule::parse(FAULT_SPEC, FAULT_SEED, RetryParams::default_for(cfg)).map(Arc::new)
    }

    /// The serial path of `run_checkpointed_with`, step by step.
    fn checkpointing(&mut self, root: usize, call: &SimCall, dir: &Path) -> Result<(), String> {
        let (traces, _) = self.generate(root, call);
        let cfg = call.machine_config().network;
        let faults = Self::fault_schedule(&cfg)?;
        let hash = call.config_hash();
        let out = dir.join("layers-ckpt");
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let mut sim = self.child(root, "network.sim.build", || {
            CommSim::new_with_faults(cfg, &traces, ProbeHandle::disabled(), faults)
        });
        let mut next = CKPT_EVERY_PS;
        loop {
            let state = self.child(root, "network.fault.run", || {
                sim.run_until(Time::from_ps(next - 1))
            });
            if state != pearl::RunResult::TimeLimit {
                break;
            }
            let snap = self.child(root, "network.snapshot.capture", || {
                sim.checkpoint(&hash, Time::from_ps(next))
            });
            let path = out.join(format!("ckpt-{hash}-{next:020}.snap"));
            let (wrote, write_id, _) =
                self.child_span(root, "network.snapshot.write", || snap.write_file(&path));
            wrote.map_err(|e| e.to_string())?;
            // `write_file` renders the file itself; time that part alone
            // and nest it, so the write span's self time is the file I/O.
            let text = self.child(write_id, "network.snapshot.serialize", || {
                snap.to_file_string()
            });
            self.m.add("network.snapshot.bytes", text.len() as f64);
            self.m.add("network.snapshot.count", 1.0);
            next += CKPT_EVERY_PS;
        }
        let r = self.child(root, "network.fault.run", || sim.run());
        self.m.add(FAULT_EVENTS, r.events as f64);
        self.model_counts(&r);
        self.m
            .add("network.fault.dropped_packets", r.total_dropped as f64);
        self.m.add("network.fault.retries", r.total_retries as f64);
        self.m
            .add("network.fault.msgs_failed", r.msgs_failed as f64);
        self.m
            .add("network.fault.recv_timeouts", r.recv_timeouts as f64);
        self.render_task(root, r, &traces);

        let written = workloads::snapshot_files(&dir.join("ckpt"))?;
        let mine = workloads::snapshot_files(&out)?;
        let same = written.len() == mine.len()
            && written.iter().zip(&mine).all(|(a, b)| {
                a.file_name() == b.file_name() && std::fs::read(a).ok() == std::fs::read(b).ok()
            });
        if !same {
            return Err("stepping the layers does not rebuild the CLI's snapshot files".into());
        }
        Ok(())
    }

    fn restoring(&mut self, root: usize, call: &SimCall, dir: &Path) -> Result<(), String> {
        let (traces, _) = self.generate(root, call);
        let cfg = call.machine_config().network;
        let faults = Self::fault_schedule(&cfg)?;
        let path = workloads::snapshot_files(&dir.join("layers-ckpt"))?
            .into_iter()
            .nth(RESTORE_INDEX)
            .ok_or("too few snapshots to restore from")?;
        let snap = self
            .child(root, "network.snapshot.parse", || {
                Snapshot::read_file(&path)
            })
            .map_err(|e| e.to_string())?;
        snap.verify_config(&call.config_hash())
            .map_err(|e| e.to_string())?;
        let mut sim = self
            .child(root, "network.snapshot.restore", || {
                CommSim::restore(cfg, &traces, ProbeHandle::disabled(), Some(faults), &snap)
            })
            .map_err(|e| e.to_string())?;
        let r = self.child(root, "network.fault.run", || sim.run());
        self.m.add(
            FAULT_EVENTS,
            r.events.saturating_sub(snap.events_processed) as f64,
        );
        self.render_task(root, r, &traces);
        Ok(())
    }

    fn campaign(&mut self, root: usize, seed: u64, dir: &Path) -> Result<(), String> {
        let text = workloads::campaign_spec(seed);
        let (spec, _, parse) =
            self.child_span(root, "core.campaign.parse", || CampaignSpec::parse(&text));
        let spec = spec?;
        let (runs, _, expand) = self.child_span(root, "core.campaign.expand", || spec.expand());
        let runs = runs?;
        self.m.add(
            "core.campaign.parse_expand_s",
            (parse + expand).as_secs_f64(),
        );
        self.m.add("core.campaign.runs", runs.len() as f64);

        let mut per_run_us = Vec::with_capacity(runs.len());
        let (records, _, execute) = self.child_span(root, "core.campaign.execute", || {
            runs.iter()
                .map(|cfg| {
                    let t0 = Instant::now();
                    let rec = campaign::execute_run(cfg);
                    per_run_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    rec
                })
                .collect::<Vec<_>>()
        });
        per_run_us.sort_by(f64::total_cmp);
        let pct = |p: usize| per_run_us[(per_run_us.len() * p / 100).min(per_run_us.len() - 1)];
        self.m.add("core.campaign.run_p50_us", pct(50));
        self.m.add("core.campaign.run_p99_us", pct(99));
        for r in &records {
            self.m.add("ops.sim_ops", r.ops_simulated as f64);
            self.m.add("pearl.engine.events", r.events as f64);
            self.m
                .add("network.sim.predicted_ps", r.predicted_ps as f64);
            self.m
                .add("network.processor.msgs_delivered", r.msgs_delivered as f64);
        }

        // What `run_campaign` does beyond expanding and executing:
        // runs.jsonl append+flush per run, summary.csv, the report.
        let options = |leaf: &str, jobs: usize| CampaignOptions {
            out_dir: dir.join(leaf),
            jobs,
            limit: None,
            progress: true,
            attribution: false,
            checkpoint_every_ps: None,
        };
        let (whole, _, whole_d) = self.aside("core.campaign.run_campaign", || {
            campaign::run_campaign(&spec, &options("layers-out", 1))
        });
        whole?;
        let io = whole_d.saturating_sub(execute + expand);
        self.spans.child(root, "core.campaign.record_io", io);
        self.feed("core.campaign.record_io", io);

        let (noop, _, _) = self.aside("core.campaign.resume_noop", || {
            campaign::run_campaign(&spec, &options("layers-out", 1))
        });
        if noop?.executed != 0 {
            return Err("re-running a complete campaign executed runs".into());
        }
        let (two, _, d) = self.aside("core.sweep.jobs2", || {
            campaign::run_campaign(&spec, &options("layers-jobs2", 2))
        });
        two?;
        self.m.set_ratio(
            "core.sweep.jobs2_speedup",
            whole_d.as_secs_f64(),
            d.as_secs_f64(),
        );
        Ok(())
    }

    fn decompose(&mut self, root: usize, call: &Call, dir: &Path) -> Result<(), String> {
        // The fallible arms return; the others fall through to `Ok`.
        match call {
            Call::Campaign { seed } => return self.campaign(root, *seed, dir),
            Call::Sim(sim) if sim.detailed => self.detailed(root, sim),
            Call::Sim(sim) if sim.sinks => return self.sinks(root, sim, dir),
            Call::Sim(sim) if sim.shards > 1 => self.sharded(root, sim),
            Call::Sim(sim) if sim.checkpoint => return self.checkpointing(root, sim, dir),
            Call::Sim(sim) if sim.restore => return self.restoring(root, sim, dir),
            Call::Sim(sim) => self.task_plain(root, sim),
        }
        Ok(())
    }
}

/// One traced pass: the real calls become root spans, then each call is
/// decomposed into its layers. Returns the pass's outputs (checked by the
/// caller like any other pass), its per-layer values and its total time.
pub fn traced_pass(
    calls: &[Call],
    dir: &Path,
    spans: &mut Spans,
) -> Result<(PassOutput, Layers, f64), String> {
    let t0 = Instant::now();
    let mut roots = Vec::with_capacity(calls.len());
    let output = workloads::run_pass(calls, dir, |start, end| {
        roots.push(spans.root("cli.run", start, end));
    })?;
    let mut tracer = Tracer {
        spans,
        m: Layers::default(),
    };
    for (call, &root) in calls.iter().zip(&roots) {
        tracer.decompose(root, call, dir)?;
    }
    let Tracer { spans, mut m } = tracer;

    let root_s = roots.iter().map(|&r| spans.spans[r].dur_ns()).sum::<u64>() as f64 / 1e9;
    let self_s = roots.iter().map(|&r| spans.self_ns(r)).sum::<u64>() as f64 / 1e9;
    m.add("core.cli.self_s", self_s);
    m.set_ratio("core.cli.self_share", self_s, root_s);
    let stdout_bytes: usize = output.stdouts.iter().map(String::len).sum();
    m.add("core.cli.stdout_kb", stdout_bytes as f64 / 1e3);

    // Ratios, each 0 when its layer was never reached.
    let ns = |name: &str| m.get(name) * 1e9;
    let ratios = [
        (
            "tracegen.ns_per_op",
            ns("tracegen.generate_s"),
            m.get("ops.sim_ops"),
        ),
        ("cpu.ns_per_op", ns("cpu.extract_s"), m.get("ops.sim_ops")),
        (
            "memory.l1d_miss_share",
            m.get(L1D_MISSES),
            m.get(L1D_ACCESSES),
        ),
        (
            "network.sim.ns_per_event",
            ns("network.sim.run_s"),
            m.get(SIM_EVENTS),
        ),
        (
            "network.sim.events_per_msg",
            m.get("pearl.engine.events"),
            m.get("network.processor.msgs_delivered"),
        ),
        (
            "network.fault.ns_per_event",
            ns("network.fault.run_s"),
            m.get(FAULT_EVENTS),
        ),
        (
            "network.sharded.barrier_wait_share",
            m.get(SHARD_WAIT_NS),
            m.get(SHARD_WAIT_NS) + m.get(SHARD_WORK_NS),
        ),
        (
            "network.sharded.events_per_window",
            m.get(SHARD_EVENTS),
            m.get("network.sharded.windows"),
        ),
        (
            "probe.emit_ns_per_event",
            (ns("probe.buffer_run_s") - ns("probe.off_run_s")).max(0.0),
            m.get("probe.events_emitted"),
        ),
        ("probe.on_off_ratio", root_s, m.get(OFF_BASELINE_S)),
    ];
    for (name, num, den) in ratios {
        m.set_ratio(name, num, den);
    }
    Ok((output, m, t0.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_feed_the_time_metric_of_the_same_name() {
        let mut spans = Spans::new("w");
        let t0 = Instant::now();
        let root = spans.root("cli.run", t0, t0 + Duration::from_secs(1));
        let mut t = Tracer {
            spans: &mut spans,
            m: Layers::default(),
        };
        let work = || std::thread::sleep(Duration::from_millis(1));
        t.child(root, "network.sim.run", work);
        t.child(root, "network.sim.run", work);
        t.child(root, "core.report.render", work);
        t.aside("probe.sink.jsonl", work);
        let m = t.m;
        assert!(m.get("network.sim.run_s") >= 0.002);
        assert!(m.get("probe.sink.jsonl_s") >= 0.001);
        // A span without a metric of its name records no metric at all.
        assert_eq!(m.0.len(), 2);
        assert_eq!(spans.spans.len(), 5);
    }
}
