//! The measuring side: one process per (workload, mode), so its `VmHWM` is
//! that workload's peak and nothing one workload leaves behind — heap,
//! page cache of its scratch files, allocator state — reaches the next.
//!
//! Closed loop, one client, one pass at a time.
//!
//! Two choices here answer measurements of this class of host (a 2-vCPU
//! VM whose speed drifts by ±20% over minutes and drops by up to 40% for
//! seconds at a time; see README.md for the numbers):
//!
//! * `wall_s` is the *fastest* timed pass of a run. Interference only ever
//!   adds time, so the fastest pass is the nearest to the undisturbed
//!   cost; over ten runs its spread was 3–12% where the median's was
//!   4–27%. Median, quartiles, range and `n` are reported beside it.
//! * `peak_rss_mb` is `VmHWM` after the process's *first* pass. Repeating
//!   passes in one process moves the peak by allocator history (glibc
//!   raises its mmap threshold after the first large free): 12.8 or
//!   15.9 MB on `task_comm`, a 24% step, where one pass in a fresh process
//!   — what a CLI user runs — repeats within 2%.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::host;
use crate::json::Json;
use crate::manifest::{self, PER_LAYER};
use crate::micro;
use crate::spans::Spans;
use crate::stats::{self, Summary};
use crate::traced;
use crate::workloads::{self, Call, PassOutput};

/// Set-ups per run. The contract judges `setup_s` by its median over
/// runs; three in a run take the edge off a single cold one.
const SETUPS: usize = 3;
/// Timed passes a run makes even when `--seconds` is already spent.
const MIN_PASSES: usize = 3;

/// The seed `expected.json` pins outputs and exact counts for; for any
/// other seed the reference pass is the only oracle.
const EXPECTED: &str = include_str!("../expected.json");

pub struct Request<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory of this process, created and removed here.
    pub dir: &'a Path,
}

/// What set-up leaves for the timed passes to be checked against.
struct Reference {
    output: PassOutput,
    /// Call index → the stdout that call must reproduce (see
    /// `workloads::identity_oracles`).
    oracles: Vec<(usize, String)>,
    sim_ops: u64,
    warm_wall_s: f64,
    /// `VmHWM` right after the reference pass.
    peak_rss_mb: f64,
}

/// One set-up: scratch directory, an untimed reference pass (the oracle
/// of every later pass), the cross-mode oracles and a warm-up pass.
/// It leaves the warm-up pass's files in `dir`.
fn set_up(calls: &[Call], dir: &Path) -> Result<Reference, String> {
    let output = workloads::run_pass(calls, dir, |_, _| {})?;
    let peak_rss_mb = host::peak_rss_mb();
    let mut reference = Reference {
        output,
        oracles: workloads::identity_oracles(calls, dir)?,
        sim_ops: 0,
        warm_wall_s: 0.0,
        peak_rss_mb,
    };
    check(&reference.output, &reference)?;
    let warm = workloads::run_pass(calls, dir, |_, _| {})?;
    check(&warm, &reference)?;
    reference.warm_wall_s = warm.wall_s;
    Ok(reference)
}

/// A pass is correct when every output equals the reference pass's and
/// every cross-mode identity holds.
fn check(pass: &PassOutput, reference: &Reference) -> Result<(), String> {
    if let Some(diff) = pass.first_difference(&reference.output) {
        return Err(diff);
    }
    for (i, oracle) in &reference.oracles {
        if &pass.stdouts[*i] != oracle {
            return Err(format!(
                "stdout[{i}] differs from the same run without --shards/--restore"
            ));
        }
    }
    Ok(())
}

fn hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

/// Compare against `expected.json` when it pins this seed; returns the
/// mismatches.
fn check_pinned(
    req: &Request,
    reference: &Reference,
    counts: &BTreeMap<&'static str, f64>,
) -> Vec<String> {
    let pinned = match crate::json::parse(EXPECTED) {
        Ok(p) => p,
        Err(e) => return vec![format!("expected.json does not parse: {e}")],
    };
    if pinned.get("seed").and_then(Json::as_f64) != Some(req.seed as f64) {
        return Vec::new();
    }
    let Some(w) = pinned.get("workloads").and_then(|w| w.get(req.workload)) else {
        return vec![format!("expected.json has no entry for {}", req.workload)];
    };
    let mut errors = Vec::new();
    let fingerprint = hex(reference.output.fingerprint());
    if w.get("fingerprint").and_then(Json::as_str) != Some(&fingerprint) {
        errors.push(format!(
            "output fingerprint {fingerprint} is not the pinned {:?}",
            w.get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("none")
        ));
    }
    if w.get("sim_ops").and_then(Json::as_f64) != Some(reference.sim_ops as f64) {
        errors.push(format!(
            "sim_ops {} is not the pinned value",
            reference.sim_ops
        ));
    }
    for (name, value) in counts {
        let want = w
            .get("counts")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64);
        if want != Some(*value) {
            errors.push(format!("{name} = {value} is not the pinned {want:?}"));
        }
    }
    errors
}

/// One metric of a result document. Statistics are kept only where the
/// samples differ: most per-layer metrics are 0 on most workloads.
fn metric(unit: &str, value: f64, stats: Option<&Summary>) -> Json {
    let stats = stats
        .filter(|s| s.max > s.min)
        .map(|s| ("stats", s.to_json()));
    Json::obj(
        [("value", Json::Num(value)), ("unit", Json::str(unit))]
            .into_iter()
            .chain(stats),
    )
}

fn result(
    req: &Request,
    reference: &Reference,
    attempted: usize,
    errors: Vec<String>,
    failed: usize,
    metrics: Vec<(String, Json)>,
    extra: Vec<(&str, Json)>,
) -> Json {
    let mut doc = Json::obj([
        ("workload", Json::str(req.workload)),
        ("trace", Json::Num(f64::from(u8::from(req.traced)))),
        ("seed", Json::Num(req.seed as f64)),
        ("correct", Json::Bool(failed == 0 && errors.is_empty())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "errors",
            Json::Arr(errors.into_iter().map(Json::Str).collect()),
        ),
        (
            "fingerprint",
            Json::Str(hex(reference.output.fingerprint())),
        ),
        ("sim_ops", Json::Num(reference.sim_ops as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    if let Json::Obj(entries) = &mut doc {
        entries.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    }
    doc
}

/// The end-to-end run: tracing off, `SETUPS` set-ups, then timed passes
/// for `seconds`.
fn end_to_end(req: &Request, calls: &[Call]) -> Result<Json, String> {
    let pass_dir = req.dir.join("pass");
    let mut setups = Vec::with_capacity(SETUPS);
    let mut reference: Option<Reference> = None;
    let mut errors = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let mut r = set_up(calls, &pass_dir)?;
        setups.push(t0.elapsed().as_secs_f64());
        match &reference {
            Some(first) => {
                if let Err(e) = check(&r.output, first) {
                    errors.push(format!("a repeated set-up disagrees with the first: {e}"));
                }
            }
            None => {
                // Counting operations is the harness's bookkeeping, not
                // the workload's set-up: once, and off the clock.
                r.sim_ops = workloads::ops_simulated(calls, &pass_dir)?;
                reference = Some(r);
            }
        }
    }
    let reference = reference.expect("SETUPS is at least one");
    errors.extend(check_pinned(req, &reference, &BTreeMap::new()));

    let mut walls = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let measuring = Instant::now();
    while measuring.elapsed().as_secs_f64() < req.seconds || attempted < MIN_PASSES {
        attempted += 1;
        // A pass that prints something else still took its time: it is
        // failed, and timed. One that errs has no time to report.
        let checked = workloads::run_pass(calls, &pass_dir, |_, _| {}).and_then(|pass| {
            walls.push(pass.wall_s);
            check(&pass, &reference)
        });
        if let Err(e) = checked {
            failed += 1;
            errors.push(format!("pass {attempted}: {e}"));
        }
    }
    let wall = Summary::of(&walls).ok_or("every pass failed")?;
    let ops = reference.sim_ops as f64;
    // Throughput statistics are the wall statistics mirrored: the
    // slowest pass is the lowest rate.
    let rate = Summary {
        n: wall.n,
        min: ops / wall.max,
        q1: ops / wall.q3,
        median: ops / wall.median,
        q3: ops / wall.q1,
        max: ops / wall.min,
    };
    let setup = Summary::of(&setups).expect("SETUPS is at least one");
    // The headline time is the fastest pass, not the median: see the
    // module docs. The full statistics ride along in the result file.
    let value = |name: &str| match name {
        "wall_s" => (wall.min, Some(&wall)),
        "sim_ops_per_s" => (rate.max, Some(&rate)),
        "peak_rss_mb" => (reference.peak_rss_mb, None),
        "setup_s" => (setup.median, Some(&setup)),
        other => unreachable!("no measurement for end-to-end metric {other}"),
    };
    let metrics = manifest::END_TO_END
        .iter()
        .map(|m| {
            let (v, stats) = value(m.name);
            (m.name.to_string(), metric(m.unit, v, stats))
        })
        .collect();
    let samples = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    Ok(result(
        req,
        &reference,
        attempted,
        errors,
        failed,
        metrics,
        vec![
            ("wall_s_passes", samples(&walls)),
            ("setup_s_setups", samples(&setups)),
        ],
    ))
}

/// Interference on a shared host only ever adds time, so a
/// microbenchmark's floor is its fastest repetition.
fn best_of_five(f: fn() -> f64) -> f64 {
    (0..5).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// The traced run: one set-up, the `pearl` microbenchmarks, then traced
/// passes for `seconds`; per-layer times are medians over the passes.
fn per_layer(req: &Request, calls: &[Call]) -> Result<Json, String> {
    let pass_dir = req.dir.join("pass");
    let rss_at_start = host::rss_bytes();
    let mut reference = set_up(calls, &pass_dir)?;
    reference.sim_ops = workloads::ops_simulated(calls, &pass_dir)?;
    // What the first untraced pass grew this process by at its peak:
    // with the sinks on, nearly all of it is trace state.
    let peak_growth_b = (reference.peak_rss_mb * 1048576.0 - rss_at_start as f64).max(0.0);
    let mut spans = Spans::new(req.workload);
    let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut pass_secs = Vec::new();
    let mut errors = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    let measuring = Instant::now();
    while measuring.elapsed().as_secs_f64() < req.seconds || attempted == 0 {
        attempted += 1;
        let checked =
            traced::traced_pass(calls, &pass_dir, &mut spans).and_then(|(output, layers, secs)| {
                passes.push(layers.into_metrics());
                pass_secs.push(secs);
                check(&output, &reference)
            });
        if let Err(e) = checked {
            failed += 1;
            errors.push(format!("traced pass {attempted}: {e}"));
        }
    }
    if passes.is_empty() {
        return Err(format!("every traced pass failed: {}", errors.join("; ")));
    }

    // Values taken once per run rather than once per pass.
    let median_of = |name: &str| stats::median(&passes.iter().map(|p| p[name]).collect::<Vec<_>>());
    let null_event_ns = best_of_five(micro::engine_null_event_ns);
    let per_event_ns = median_of("network.sim.ns_per_event");
    // Memory is released between the calls of a pass, so the peak belongs
    // to one call's events.
    let events_per_call = passes[0]["probe.events_emitted"] / calls.len() as f64;
    let positive = |den: f64, v: f64| if den > 0.0 { v } else { 0.0 };
    let per_run: [(&str, f64); 8] = [
        (
            "pearl.queue.hold_ns_per_op.n64",
            best_of_five(|| micro::queue_hold_ns(64)),
        ),
        (
            "pearl.queue.hold_ns_per_op.n4096",
            best_of_five(|| micro::queue_hold_ns(4096)),
        ),
        (
            "pearl.queue.hold_ns_per_op.n262144",
            best_of_five(|| micro::queue_hold_ns(262_144)),
        ),
        ("pearl.engine.null_event_ns", null_event_ns),
        (
            "pearl.shard.barrier_round_ns",
            best_of_five(micro::barrier_round_ns),
        ),
        (
            "network.sim.handler_ns_per_event",
            positive(per_event_ns, per_event_ns - null_event_ns),
        ),
        (
            "probe.rss_per_event_b",
            positive(events_per_call, peak_growth_b / events_per_call),
        ),
        (
            "harness.trace_overhead_share",
            (stats::median(&pass_secs) - reference.warm_wall_s) / reference.warm_wall_s,
        ),
    ];

    let mut exact_counts = BTreeMap::new();
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in &PER_LAYER {
        let samples: Vec<f64> = passes.iter().map(|p| p[m.name]).collect();
        let entry = if let Some((_, v)) = per_run.iter().find(|(name, _)| *name == m.name) {
            metric(m.unit, *v, None)
        } else if m.exact {
            if samples.iter().any(|s| *s != samples[0]) {
                errors.push(format!(
                    "exact count {} varied between passes: {samples:?}",
                    m.name
                ));
            }
            exact_counts.insert(m.name, samples[0]);
            metric(m.unit, samples[0], None)
        } else {
            let s = Summary::of(&samples).expect("at least one pass");
            metric(m.unit, s.median, Some(&s))
        };
        metrics.push((m.name.to_string(), entry));
    }
    errors.extend(check_pinned(req, &reference, &exact_counts));

    // Where the root spans' time went; the README's matrix is read from it.
    let (root_ns, by_name) = spans.self_ns_by_name("cli.run");
    let children_ns: u64 = by_name.values().sum();
    let share = |ns: u64| Json::Num((ns as f64 / root_ns as f64 * 1e4).round() / 1e4);
    let shares = Json::Obj(
        by_name
            .iter()
            .map(|(name, ns)| (name.to_string(), share(*ns)))
            .collect(),
    );

    let spans_path = req
        .dir
        .with_file_name(format!("spans-{}.json", req.workload));
    std::fs::write(&spans_path, spans.to_chrome_json().render())
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    Ok(result(
        req,
        &reference,
        attempted,
        errors,
        failed,
        metrics,
        vec![
            ("children_share", share(children_ns)),
            ("span_shares", shares),
            ("spans_file", Json::Str(spans_path.display().to_string())),
        ],
    ))
}

/// Measure one workload in this process and return its result document.
pub fn run(req: &Request) -> Result<Json, String> {
    let started = Instant::now();
    workloads::find(req.workload).ok_or_else(|| format!("unknown workload `{}`", req.workload))?;
    let calls = workloads::calls(req.workload, req.seed);
    std::fs::create_dir_all(req.dir)
        .map_err(|e| format!("cannot create {}: {e}", req.dir.display()))?;
    let outcome = if req.traced {
        per_layer(req, &calls)
    } else {
        end_to_end(req, &calls)
    };
    // Scratch files go whether or not the run succeeded.
    let removed = std::fs::remove_dir_all(req.dir);
    let mut doc = outcome?;
    removed.map_err(|e| format!("cannot remove {}: {e}", req.dir.display()))?;
    if let Json::Obj(entries) = &mut doc {
        entries.push((
            "elapsed_s".to_string(),
            Json::Num(started.elapsed().as_secs_f64()),
        ));
    }
    Ok(doc)
}
