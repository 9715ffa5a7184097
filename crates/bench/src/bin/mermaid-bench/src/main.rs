//! `mermaid-bench` — the workbench's one repeatable benchmark.
//!
//! ```text
//! mermaid-bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! mermaid-bench compare A.json B.json
//! mermaid-bench manifest            # prints BENCHMARK.json
//! mermaid-bench expected R.json     # prints expected.json from a seed-7 result file
//! ```
//!
//! With `--workload` it measures that workload once — end to end with
//! `--trace 0` (the default), per layer with `--trace 1` — and prints, as
//! its last line, the one JSON object the benchmark contract asks for.
//! Without, it measures every workload in both modes. Either way the full
//! result document goes to `--out` (default
//! `<target dir>/mermaid-bench/results.json`), the input of `compare`.
//!
//! README.md in this directory says what each workload and metric is for.

mod compare;
mod host;
mod json;
mod manifest;
mod measure;
mod micro;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;

/// Default `--seed`; `expected.json` pins this seed's outputs.
const DEFAULT_SEED: u64 = 7;

/// The contract allows a run 180 s; a child still going after this long
/// is stopped so the harness itself can report and exit in time.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    /// `child` only: scratch directory and result file.
    dir: Option<PathBuf>,
    result: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS as f64,
        trace: None,
        out: None,
        dir: None,
        result: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workloads::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of: {})", names.join(", "))
                })?;
                o.workload = Some(value.clone());
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err(format!("{} (want 0 < seconds <= 60)", bad()));
                }
            }
            "--trace" => {
                o.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            "--dir" => o.dir = Some(PathBuf::from(value)),
            "--result" => o.result = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

/// Everything the harness writes lands here: inside the build's target
/// directory, so inside the checkout and ignored by git.
fn work_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("mermaid-bench")
}

/// Measure in this process and leave the result document in `--result`.
fn child(o: &Options) -> Result<(), String> {
    let (Some(workload), Some(dir), Some(result)) = (&o.workload, &o.dir, &o.result) else {
        return Err("child needs --workload, --dir and --result".into());
    };
    // stderr is /dev/null here; a panic must still reach the parent.
    let on_panic = result.clone();
    std::panic::set_hook(Box::new(move |info| {
        let doc = Json::obj([("error", Json::Str(format!("child panicked: {info}")))]);
        let _ = std::fs::write(&on_panic, doc.render());
    }));
    let doc = measure::run(&measure::Request {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        traced: o.trace.unwrap_or(false),
        dir,
    })
    .unwrap_or_else(|e| Json::obj([("error", Json::Str(e))]));
    std::fs::write(result, doc.render())
        .map_err(|e| format!("cannot write {}: {e}", result.display()))
}

/// Run one measurement in a child process of this executable — stdout and
/// stderr to null (a campaign prints a progress line per run) — and read
/// its result document back.
fn measure_in_child(o: &Options, workload: &str, traced: bool) -> Result<Json, String> {
    let work = work_dir();
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let tag = format!("{workload}-{}", std::process::id());
    let result = work.join(format!("{tag}.result.json"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(work.join(&tag))
        .arg("--result")
        .arg(&result)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start the measuring process: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if started.elapsed() > CHILD_DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_dir_all(work.join(&tag));
                return Err(format!(
                    "{workload} did not finish within {} s and was stopped",
                    CHILD_DEADLINE.as_secs()
                ));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = std::fs::read_to_string(&result);
    let _ = std::fs::remove_file(&result);
    let text = text.map_err(|_| format!("the measuring process left no result ({status})"))?;
    let doc = json::parse(&text).map_err(|e| format!("unreadable result document: {e}"))?;
    match doc.get("error").and_then(Json::as_str) {
        Some(e) => Err(format!("{workload}: {e}")),
        None => Ok(doc),
    }
}

fn print_section(doc: &Json) {
    let text = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "{} trace={} seed={}: {} of {} passes failed, fingerprint {}, {} ops/pass, {:.1} s",
        text("workload"),
        num("trace"),
        num("seed"),
        num("failed"),
        num("attempted"),
        text("fingerprint"),
        num("sim_ops"),
        num("elapsed_s"),
    );
    for e in doc.get("errors").map(Json::as_arr).unwrap_or_default() {
        println!("  ERROR {}", e.as_str().unwrap_or("?"));
    }
    for (name, m) in doc.get("metrics").map(Json::entries).unwrap_or_default() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        match m.get("stats").and_then(stats::Summary::from_json) {
            Some(s) => println!(
                "  {name:<38} {value:>16.6} {unit:<9} min {:.6} q1 {:.6} q3 {:.6} max {:.6} n {}",
                s.min, s.q1, s.q3, s.max, s.n
            ),
            None => println!("  {name:<38} {value:>16.6} {unit}"),
        }
    }
    if let Some(share) = doc.get("children_share").and_then(Json::as_f64) {
        println!(
            "  child spans cover {:.1}% of the cli.run root:",
            share * 100.0
        );
        for (name, s) in doc
            .get("span_shares")
            .map(Json::entries)
            .unwrap_or_default()
        {
            println!("    {name:<36} {:>6.1}%", s.as_f64().unwrap_or(0.0) * 100.0);
        }
    }
}

/// The last line of a single-workload run, in the contract's shape.
fn contract_line(doc: &Json) -> Json {
    let metrics = doc
        .get("metrics")
        .map(Json::entries)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            let field = |k: &str| m.get(k).cloned().unwrap_or(Json::Null);
            (
                name.clone(),
                Json::obj([("value", field("value")), ("unit", field("unit"))]),
            )
        })
        .collect();
    let field = |k: &str| doc.get(k).cloned().unwrap_or(Json::Null);
    Json::obj([
        ("correct", field("correct")),
        ("attempted", field("attempted")),
        ("failed", field("failed")),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn run(o: &Options) -> Result<bool, String> {
    let started = Instant::now();
    let names: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    // One workload: the mode asked for (end to end unless --trace 1).
    // Every workload: both modes unless --trace picks one.
    let modes: Vec<bool> = match (o.trace, &o.workload) {
        (Some(t), _) => vec![t],
        (None, Some(_)) => vec![false],
        (None, None) => vec![false, true],
    };
    let mut all_correct = true;
    let mut last = Json::Null;
    let mut entries = Vec::new();
    for name in names {
        let mut entry = vec![("name".to_string(), Json::str(name))];
        for &traced in &modes {
            let doc = measure_in_child(o, name, traced)?;
            print_section(&doc);
            all_correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
            entry.push((
                if traced { "per_layer" } else { "end_to_end" }.to_string(),
                doc.clone(),
            ));
            last = doc;
        }
        entries.push(Json::Obj(entry));
    }

    let mut header = host::describe();
    if let Json::Obj(h) = &mut header {
        h.push(("seed".to_string(), Json::Num(o.seed as f64)));
        h.push(("seconds".to_string(), Json::Num(o.seconds)));
        h.push((
            "elapsed_s".to_string(),
            Json::Num(started.elapsed().as_secs_f64()),
        ));
    }
    let results = Json::obj([
        ("schema", Json::str("mermaid-bench-v1")),
        ("header", header.clone()),
        ("workloads", Json::Arr(entries)),
    ]);
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| work_dir().join("results.json"));
    std::fs::write(&out, results.pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("results written: {}", out.display());
    // One line a future append-only ledger can ingest as is.
    println!("{}", header.render());
    if o.workload.is_some() {
        println!("{}", contract_line(&last).render());
    }
    Ok(all_correct)
}

fn read_results(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `expected.json` for the seed of a full result file.
fn expected_from(results: &Json) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for w in results
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
    {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let layers = w
            .get("per_layer")
            .ok_or_else(|| format!("{name}: no per_layer section (run without --trace)"))?;
        let field = |k: &str| {
            layers
                .get(k)
                .cloned()
                .ok_or_else(|| format!("{name}: no {k}"))
        };
        let counts = manifest::PER_LAYER
            .iter()
            .filter(|m| m.exact)
            .filter_map(|m| {
                let v = layers.get("metrics")?.get(m.name)?.get("value")?.clone();
                Some((m.name.to_string(), v))
            })
            .collect();
        workloads.push((
            name.to_string(),
            Json::obj([
                ("fingerprint", field("fingerprint")?),
                ("sim_ops", field("sim_ops")?),
                ("counts", Json::Obj(counts)),
            ]),
        ));
    }
    let seed = results
        .get("header")
        .and_then(|h| h.get("seed"))
        .cloned()
        .ok_or("result file without header.seed")?;
    Ok(Json::obj([
        ("seed", seed),
        ("workloads", Json::Obj(workloads)),
    ]))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("child") => child(&parse_options(&args[1..])?).map(|()| true),
        Some("manifest") => {
            print!("{}", manifest::benchmark_json().pretty());
            Ok(true)
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err("usage: mermaid-bench compare A.json B.json".into());
            };
            let (report, pass) = compare::compare(&read_results(a)?, &read_results(b)?);
            print!("{report}");
            Ok(pass)
        }
        Some("expected") => {
            let [path] = &args[1..] else {
                return Err("usage: mermaid-bench expected RESULTS.json".into());
            };
            print!("{}", expected_from(&read_results(path)?)?.pretty());
            Ok(true)
        }
        _ => run(&parse_options(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mermaid-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_flags_parse_and_bad_ones_are_refused() {
        let o = parse_options(&args(&[
            "--workload",
            "task_comm",
            "--seed",
            "11",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("task_comm"));
        assert_eq!((o.seed, o.seconds, o.trace), (11, 3.0, Some(true)));
        let defaults = parse_options(&[]).unwrap();
        assert_eq!(defaults.seed, DEFAULT_SEED);
        assert_eq!(defaults.seconds, manifest::RUN_SECONDS as f64);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "600"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_reparses() {
        let doc = Json::obj([
            ("workload", Json::str("task_comm")),
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(9.0)),
            ("failed", Json::Num(0.0)),
            ("errors", Json::Arr(vec![])),
            (
                "metrics",
                Json::obj([(
                    "wall_s",
                    Json::obj([
                        ("value", Json::Num(1.10342)),
                        ("unit", Json::str("s")),
                        ("stats", Json::Null),
                    ]),
                )]),
            ),
        ]);
        let line = contract_line(&doc).render();
        assert!(!line.contains('\n'));
        let back = json::parse(&line).unwrap();
        let keys: Vec<&str> = back.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = back.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.entries().len(), 2);
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.10342));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn expected_json_pins_every_workload_at_the_default_seed() {
        let pinned = json::parse(include_str!("../expected.json")).unwrap();
        assert_eq!(
            pinned.get("seed").unwrap().as_f64(),
            Some(DEFAULT_SEED as f64)
        );
        for w in &workloads::WORKLOADS {
            let entry = pinned.get("workloads").unwrap().get(w.name);
            let entry = entry.unwrap_or_else(|| panic!("{} is not pinned", w.name));
            assert_eq!(
                entry.get("fingerprint").unwrap().as_str().unwrap().len(),
                16
            );
            assert!(entry.get("sim_ops").unwrap().as_f64().unwrap() > 0.0);
            for m in manifest::PER_LAYER.iter().filter(|m| m.exact) {
                assert!(
                    entry.get("counts").unwrap().get(m.name).is_some(),
                    "{} {}",
                    w.name,
                    m.name
                );
            }
        }
    }
}
