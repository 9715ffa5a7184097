//! The conformance matrix: the bit-identity contract (DESIGN.md §11, §14,
//! §16 and §18) — serial == sharded == restored == any worker count,
//! healthy and faulty — as one table of [`Row`]s (`matrix.rs`), driven
//! through one set of executors ([`Exec`]) and checked by one comparator
//! ([`agree`]).
//!
//! A row names a [`Scenario`], the executors that must agree on it and
//! the observations ([`Obs`]) they must agree on; every pair of executors
//! is compared on every observation both produce. A mismatch panics with
//! the scenario (as the command line that reproduces it), both
//! executors, the observation and its first differing line — or why one
//! executor ended without a result: a panic, or a run that hung.
#![allow(dead_code)]

pub mod matrix;

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};

pub use matrix::{rows, Block};
use mermaid::{HybridSim, Mode, Outcome, Resolved, RunConfig, TaskLevelSim};
use mermaid_network::{
    run_comm, Capture, CheckpointOpts, CommResult, FaultSchedule, NetworkConfig, RunOptions,
    Snapshot,
};
use mermaid_ops::{Operation, TraceSet};
use mermaid_probe::{canonical_sort, ProbeHandle, ProbeStack, SimEvent};
use pearl::Duration;

/// One configuration: a run's identity, plus a message size the command
/// line cannot express.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub cfg: RunConfig,
    /// Resize every message of the task-level traces to this many bytes
    /// (task mode, library observations only).
    pub msg_bytes: Option<u32>,
}

/// A short task-level run of the test machine on `ring:8`, with `flags` —
/// `field=value` words naming a [`RunConfig`] field or `msg_bytes` —
/// applied.
pub fn scenario(flags: &str) -> Scenario {
    let mut cfg = RunConfig {
        machine: "test".into(),
        phases: 2,
        ops: 500,
        ..RunConfig::default()
    };
    let mut msg_bytes = None;
    for flag in flags.split_whitespace() {
        let (field, value) = flag.split_once('=').expect("field=value");
        let num = || value.parse::<u64>().expect("a number");
        match field {
            "machine" => cfg.machine = value.into(),
            "topo" => cfg.topo = value.into(),
            "pattern" => cfg.pattern = value.into(),
            "mode" => cfg.mode = value.into(),
            "faults" => cfg.faults = value.into(),
            "phases" => cfg.phases = num() as u32,
            "ops" => cfg.ops = num(),
            "seed" => cfg.seed = num(),
            "fault_seed" => cfg.fault_seed = num(),
            "msg_bytes" => msg_bytes = Some(num() as u32),
            _ => panic!("unknown scenario field `{field}`"),
        }
    }
    Scenario { cfg, msg_bytes }
}

impl Scenario {
    /// The command line of `cmd` (`sim` or `analyze`) for this scenario.
    pub fn args(&self, cmd: &str) -> Vec<String> {
        let c = &self.cfg;
        let mut args = format!(
            "{cmd} --machine {} --topology {} --mode {} --pattern {} --phases {} --ops {} --seed {}",
            c.machine, c.topo, c.mode, c.pattern, c.phases, c.ops, c.seed
        );
        if c.faults != "none" {
            let faults = c.faults.replace('+', ";");
            args += &format!(" --faults {faults} --fault-seed {}", c.fault_seed);
        }
        args.split(' ').map(String::from).collect()
    }

    fn resolve(&self) -> Resolved {
        self.cfg.resolve().unwrap_or_else(|e| panic!("{self}: {e}"))
    }

    /// The task-level traces of the run, messages resized to `msg_bytes`.
    pub fn task_traces(&self) -> TraceSet {
        let mut ts = self.resolve().generator.generate_task_level();
        for node in 0..ts.nodes() as u32 {
            for op in &mut ts.trace_mut(node).ops {
                if let (Operation::ASend { bytes, .. }, Some(size)) = (op, self.msg_bytes) {
                    *bytes = size;
                }
            }
        }
        ts
    }

    /// The communication result of a plain serial run.
    pub fn comm(&self) -> CommResult {
        let r = self.resolve();
        let opts = RunOptions {
            faults: r.faults.clone(),
            ..RunOptions::default()
        };
        run(self, &r, opts, Exec::Serial).comm().clone()
    }
}

impl fmt::Display for Scenario {
    /// The `sim` command line that reproduces the scenario.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.args("sim").join(" "))?;
        match self.msg_bytes {
            Some(b) => write!(f, " with every message {b} B"),
            None => Ok(()),
        }
    }
}

/// One way of running a scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Exec {
    /// One thread, straight through.
    Serial,
    /// The communication model on `k` shards.
    Sharded(usize),
    /// Restored on `shards` shards from the snapshot a serial run captures,
    /// in memory, at `at.0 / at.1` of the straight run's predicted finish
    /// — strictly before it.
    Restored { at: (u64, u64), shards: usize },
    /// A detailed or direct run whose computational phase gets `n`
    /// workers.
    Workers(usize),
}

impl Exec {
    fn shards(self) -> usize {
        match self {
            Exec::Sharded(k) | Exec::Restored { shards: k, .. } => k,
            Exec::Serial | Exec::Workers(_) => 1,
        }
    }

    /// A restored run records only the tail of the probe stream and
    /// writes no snapshot; `sim` has no worker-count flag.
    fn produces(self, obs: Obs) -> bool {
        !matches!(
            (self, obs),
            (Exec::Restored { .. }, Obs::Probe | Obs::Snapshots)
                | (Exec::Workers(_), Obs::Stdout(_))
        )
    }
}

/// What the executors of a row must agree on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Obs {
    /// What `sim` or `analyze` prints, its host-time `slowdown` line aside.
    Stdout(&'static str),
    /// The `CommResult`, plus a detailed or direct run's predicted time,
    /// operation count, per-node statistics and task traces.
    Result,
    /// The probe stream, one event per line. A serial run's is put in
    /// canonical order, engine bookkeeping dropped: the order a sharded
    /// run replays in, whose stream is compared as replayed. Under
    /// `workers(n)` the emission order itself is compared, which pins a
    /// probed detailed run's node-major order.
    Probe,
    /// The `attribution.json` bytes.
    Attribution,
    /// Every snapshot a run capturing at a quarter of the straight run's
    /// predicted finish writes, in memory.
    Snapshots,
}

/// One row of the matrix.
#[derive(Clone)]
pub struct Row {
    pub scenario: Scenario,
    pub execs: Vec<Exec>,
    pub obs: Vec<Obs>,
}

/// Everything one executor observed of one scenario.
pub struct Observed {
    exec: Exec,
    /// Why the run ended without a result — its panic message or a
    /// timeout — if it did.
    failed: Option<String>,
    values: Vec<(Obs, String)>,
    /// The communication result, when the run went through the library.
    pub comm: Option<CommResult>,
}

/// Run every row of `block` and check that its executors agree.
pub fn check(block: Block) {
    for row in rows(block) {
        let sc = &row.scenario;
        for &obs in &row.obs {
            let producers = row.execs.iter().filter(|e| e.produces(obs)).count();
            assert!(producers >= 2, "{sc}: no two executors observe {obs:?}");
        }
        let observed: Vec<Observed> = row
            .execs
            .iter()
            .map(|&exec| watched(sc, exec, &row.obs))
            .collect();
        for (i, b) in observed.iter().enumerate() {
            for a in &observed[..i] {
                agree(sc, a, b);
            }
        }
        // They agree; the row must also test something.
        if let Some(comm) = observed.iter().find_map(|o| o.comm.as_ref()) {
            assert!(comm.all_done, "{sc}: deadlocked on {:?}", comm.deadlocked);
            let faulty = sc.cfg.faults != "none";
            assert!(
                !faulty || comm.total_dropped + comm.total_retries > 0,
                "{sc}: the fault schedule injected nothing"
            );
        }
    }
}

/// [`observe`] on a thread of its own, so that a run which panics or
/// hangs — the sharded protocol's way of failing — is reported as that
/// executor's disagreement with the others.
fn watched(sc: &Scenario, exec: Exec, obs: &[Obs]) -> Observed {
    let (tx, rx) = mpsc::channel();
    let (sc, obs) = (sc.clone(), obs.to_vec());
    let run = std::thread::spawn(move || tx.send(observe(&sc, exec, &obs)).ok());
    let failed = |why: String| Observed {
        exec,
        failed: Some(why),
        values: Vec::new(),
        comm: None,
    };
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(observed) => {
            run.join().expect("the run sent its result");
            observed
        }
        Err(RecvTimeoutError::Timeout) => failed("no result within 60 s".into()),
        Err(RecvTimeoutError::Disconnected) => {
            let panic = run.join().expect_err("the run died without a result");
            let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
            failed(
                text.or(panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default(),
            )
        }
    }
}

/// Panic unless `a` and `b` agree on every observation both made, naming
/// what was run, both executors and the first difference.
pub fn agree(what: &dyn fmt::Display, a: &Observed, b: &Observed) {
    let pair = format!("{what}\n  {:?} vs {:?} disagree", a.exec, b.exec);
    for o in [a, b] {
        if let Some(why) = &o.failed {
            panic!("{pair}: {:?} failed: {why}", o.exec);
        }
    }
    for (obs, va) in &a.values {
        let Some((_, vb)) = b.values.iter().find(|(o, _)| o == obs) else {
            continue;
        };
        if let Some(diff) = first_difference(va, vb) {
            panic!("{pair} on {obs:?}, first at {diff}");
        }
    }
}

/// Run `sc` on `exec`, observing `obs`.
fn observe(sc: &Scenario, exec: Exec, obs: &[Obs]) -> Observed {
    let r = sc.resolve();
    let wants = |o: Obs| obs.contains(&o) && exec.produces(o);
    let finish = (matches!(exec, Exec::Restored { .. }) || wants(Obs::Snapshots))
        .then(|| sc.comm().finish.as_ps());
    let snap = match exec {
        Exec::Restored { at, .. } => {
            let attribution = wants(Obs::Attribution);
            Some(capture(sc, &r, at, finish.unwrap(), attribution))
        }
        _ => None,
    };
    let mut values = Vec::new();
    for &o in obs {
        if let (Obs::Stdout(cmd), true) = (o, wants(o)) {
            values.push((o, stdout(sc, cmd, exec, snap.as_ref())));
        }
    }
    let mut observed = Observed {
        exec,
        failed: None,
        values,
        comm: None,
    };
    let library = [Obs::Result, Obs::Probe, Obs::Attribution, Obs::Snapshots];
    if !library.into_iter().any(wants) {
        return observed;
    }

    // An attached probe makes a different run (a detailed one keeps its
    // nodes on the calling thread): attach one only to record into it.
    let mut stack = ProbeStack::new();
    if wants(Obs::Probe) {
        stack = stack.with_buffer();
    }
    if wants(Obs::Attribution) {
        stack = stack.with_attribution();
    }
    let probe = match wants(Obs::Probe) || wants(Obs::Attribution) {
        true => ProbeHandle::new(stack),
        false => ProbeHandle::disabled(),
    };
    let snaps = Mutex::new(String::new());
    let keep = |s: &Capture<'_>| {
        snaps.lock().unwrap().push_str(&s.to_file_string());
        Ok(())
    };
    let quarterly = finish.map(|finish| CheckpointOpts {
        every: Duration::from_ps((finish / 4).max(1)),
        config_hash: sc.cfg.config_hash(),
        write: &keep,
    });
    let opts = RunOptions {
        probe: probe.clone(),
        shards: exec.shards(),
        faults: r.faults.clone(),
        restore_from: snap,
        checkpoint: quarterly.as_ref().filter(|_| wants(Obs::Snapshots)),
        progress: None,
    };
    let outcome = run(sc, &r, opts, exec);
    let values = &mut observed.values;
    if wants(Obs::Result) {
        values.push((Obs::Result, result_text(&outcome)));
    }
    if wants(Obs::Probe) {
        let events = probe.take_buffer().unwrap();
        assert!(!events.is_empty(), "{sc}: {exec:?} recorded no events");
        values.push((Obs::Probe, stream_text(events, exec)));
    }
    if wants(Obs::Attribution) {
        let finish = outcome.predicted_time().as_ps();
        let json = probe.attribution_report(finish).unwrap().to_json();
        values.push((Obs::Attribution, json));
    }
    if wants(Obs::Snapshots) {
        values.push((Obs::Snapshots, snaps.into_inner().unwrap()));
    }
    observed.comm = Some(outcome.comm().clone());
    observed
}

/// Run hand-built `traces` through `run_comm` on `exec` (serial or
/// sharded), observing the result and the probe stream.
pub fn observe_traces(
    net: NetworkConfig,
    traces: &TraceSet,
    faults: &Arc<FaultSchedule>,
    exec: Exec,
) -> Observed {
    let probe = ProbeHandle::new(ProbeStack::new().with_buffer());
    let opts = RunOptions {
        probe: probe.clone(),
        shards: exec.shards(),
        faults: Some(Arc::clone(faults)),
        ..RunOptions::default()
    };
    let (comm, _) = run_comm(net, traces, opts).unwrap();
    let values = vec![
        (Obs::Result, format!("{comm:#?}")),
        (Obs::Probe, stream_text(probe.take_buffer().unwrap(), exec)),
    ];
    Observed {
        exec,
        failed: None,
        values,
        comm: Some(comm),
    }
}

/// One run of `sc` through the library: [`Resolved::run`], unless the
/// scenario resizes its messages or the executor picks the worker count.
fn run(sc: &Scenario, r: &Resolved, opts: RunOptions<'_>, exec: Exec) -> Outcome {
    let outcome = match (exec, r.mode) {
        (Exec::Workers(_), Mode::Task) => panic!("{sc}: workers(n) needs a detailed or direct run"),
        (Exec::Workers(n), mode) => {
            let sim = match mode {
                Mode::Direct => HybridSim::direct(r.machine.clone()),
                _ => HybridSim::new(r.machine.clone()),
            };
            let sim = sim.with_options(opts).with_workers(n);
            sim.try_run_streams(r.generator.streams())
                .map(Outcome::Hybrid)
        }
        _ if sc.msg_bytes.is_some() => TaskLevelSim::new(r.machine.network)
            .with_options(opts)
            .try_run(&sc.task_traces())
            .map(Outcome::Task),
        _ => r.run(opts, 1),
    };
    outcome.unwrap_or_else(|e| panic!("{sc}: {e}"))
}

/// The first snapshot a serial run of `sc` captures at cadence
/// `at` × `finish`.
fn capture(sc: &Scenario, r: &Resolved, at: (u64, u64), finish: u64, attr: bool) -> Snapshot {
    let first = Mutex::new(None);
    let keep = |s: &Capture<'_>| {
        first.lock().unwrap().get_or_insert_with(|| s.to_snapshot());
        Ok(())
    };
    let ck = CheckpointOpts {
        every: Duration::from_ps((finish * at.0 / at.1).max(1)),
        config_hash: sc.cfg.config_hash(),
        write: &keep,
    };
    let opts = RunOptions {
        probe: match attr {
            true => ProbeHandle::new(ProbeStack::new().with_attribution()),
            false => ProbeHandle::disabled(),
        },
        faults: r.faults.clone(),
        checkpoint: Some(&ck),
        ..RunOptions::default()
    };
    run(sc, r, opts, Exec::Serial);
    let snap = first.into_inner().unwrap().expect("a capture");
    assert!(snap.time.as_ps() < finish, "{sc}: captured at the finish");
    snap
}

/// `cmd`'s stdout for `sc` on `exec`, host-time lines dropped. A restored
/// run reads the snapshot from a file of its own.
fn stdout(sc: &Scenario, cmd: &str, exec: Exec, snap: Option<&Snapshot>) -> String {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let mut args = sc.args(cmd);
    let path = snap.map(|snap| {
        let n = FILES.fetch_add(1, Ordering::Relaxed);
        let name = format!("mermaid-matrix-{}-{n}.snap", std::process::id());
        let path = std::env::temp_dir().join(name);
        snap.write_file(&path).unwrap();
        args.extend(["--restore".into(), path.display().to_string()]);
        path
    });
    if exec.shards() > 1 {
        args.extend(["--shards".into(), exec.shards().to_string()]);
    }
    let out = mermaid::cli::run(&args);
    path.map(std::fs::remove_file);
    let out = out.unwrap_or_else(|e| panic!("{sc} on {exec:?}: {e}"));
    let kept = out.lines().filter(|l| !l.starts_with("slowdown "));
    kept.map(|l| format!("{l}\n")).collect()
}

/// Every model field of a run's outcome, one per line; the host-time
/// shard profile aside.
fn result_text(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Task(r) => format!("{:#?}", r.comm),
        Outcome::Hybrid(r) => format!(
            "predicted_time: {:?}\nops_simulated: {}\nnodes: {:#?}\ntask_traces: {:#?}\ncomm: {:#?}",
            r.predicted_time, r.ops_simulated, r.nodes, r.task_traces, r.comm
        ),
    }
}

/// A probe stream as [`Obs::Probe`] compares it.
fn stream_text(mut events: Vec<SimEvent>, exec: Exec) -> String {
    if exec == Exec::Serial {
        events.retain(|e| !e.is_engine_internal());
        canonical_sort(&mut events);
    }
    events.iter().map(|e| format!("{e:?}\n")).collect()
}

/// Where `a` and `b` first differ, or `None` when they agree: the line,
/// cut around its first differing byte (attribution.json is one line).
fn first_difference(a: &str, b: &str) -> Option<String> {
    if a == b {
        return None;
    }
    let (la, lb): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let i = (0..la.len().max(lb.len()))
        .find(|&i| la.get(i) != lb.get(i))
        .unwrap_or(la.len());
    let (x, y) = (la.get(i).unwrap_or(&""), lb.get(i).unwrap_or(&""));
    let col = x.bytes().zip(y.bytes()).take_while(|(p, q)| p == q).count();
    let from = col.saturating_sub(60);
    let cut = |l: &str| {
        l.get(from..(col + 60).min(l.len()))
            .unwrap_or(l)
            .to_string()
    };
    let (x, y) = (cut(x), cut(y));
    Some(format!("line {}:\n    {x:?}\n    {y:?}", i + 1))
}
