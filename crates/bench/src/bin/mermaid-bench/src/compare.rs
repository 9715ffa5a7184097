//! `mermaid-bench compare A.json B.json`: B against baseline A under the
//! bounds of `BENCHMARK.json` (generated from `manifest::END_TO_END`, and
//! kept equal to it by a test), one row per (workload, end-to-end metric),
//! plus every exact count that moved.

use std::fmt::Write as _;

use crate::json::Json;
use crate::manifest::{self, Better};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    /// B's value is worse than A's by more than the bound.
    Worse,
    /// Not worse, but a side's own samples pin its value down more
    /// loosely than the bound (`Summary::noise_of`), so "no change" cannot
    /// be told from a change of that size.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's value B is worse (negative when it is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(better: Better, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    if worsening(better, a, b) > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// A metric's headline value and, where it was sampled more than once,
/// the statistics of its samples.
fn reading(section: &Json, metric: &str) -> Option<(f64, Option<Summary>)> {
    let m = section.get("metrics")?.get(metric)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("stats").and_then(Summary::from_json),
    ))
}

fn failures(section: &Json, label: &str, out: &mut String) -> bool {
    let failed = section.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    let correct = section
        .get("correct")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    if failed == 0.0 && correct {
        return false;
    }
    let _ = writeln!(
        out,
        "FAILED  {label}: {failed} failed pass(es), correct={correct}"
    );
    for e in section.get("errors").map(Json::as_arr).unwrap_or_default() {
        let _ = writeln!(out, "        {}", e.as_str().unwrap_or("?"));
    }
    true
}

/// The report and whether B passes: no metric worse, no failed pass, no
/// exact count moved.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let seed = |d: &Json| {
        d.get("header")
            .and_then(|h| h.get("seed"))
            .and_then(Json::as_f64)
    };
    let same_seed = seed(a) == seed(b);
    let _ = writeln!(
        out,
        "{:<17} {:<14} {:>12} {:>12} {:>22} {:>22}  {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "A q1..q3", "B q1..q3", "B/A", "bound"
    );
    let names: Vec<&str> = a
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    for name in names {
        let (Some(wa), Some(wb)) = (workload(a, name), workload(b, name)) else {
            let _ = writeln!(out, "{name:<17} only in A");
            continue;
        };
        for (section, sa, sb) in ["end_to_end", "per_layer"]
            .into_iter()
            .filter_map(|s| Some((s, wa.get(s)?, wb.get(s)?)))
            .filter(|(_, sa, sb)| **sa != Json::Null && **sb != Json::Null)
        {
            pass &= !failures(sa, &format!("A {name} {section}"), &mut out);
            pass &= !failures(sb, &format!("B {name} {section}"), &mut out);
            if section == "end_to_end" {
                for m in &manifest::END_TO_END {
                    let (metric, better, bound) = (m.name, m.better, m.bound);
                    let (Some((va, stats_a)), Some((vb, stats_b))) =
                        (reading(sa, metric), reading(sb, metric))
                    else {
                        continue;
                    };
                    let noise = |s: &Option<Summary>, v| s.as_ref().map_or(0.0, |s| s.noise_of(v));
                    let noise = noise(&stats_a, va).max(noise(&stats_b, vb));
                    let v = verdict(better, bound, va, vb, noise);
                    pass &= v != Verdict::Worse;
                    let quartiles = |s: &Option<Summary>| {
                        s.as_ref()
                            .map_or("-".to_string(), |s| format!("{:.5}..{:.5}", s.q1, s.q3))
                    };
                    let _ = writeln!(
                        out,
                        "{name:<17} {metric:<14} {va:>12.5} {vb:>12.5} {:>22} {:>22}  {:>6.3}x {:>5.0}%  {}",
                        quartiles(&stats_a),
                        quartiles(&stats_b),
                        vb / va,
                        bound * 100.0,
                        v.as_str()
                    );
                }
            }
            if !same_seed {
                continue;
            }
            // Same seed, same inputs: outputs and exact counts must agree.
            let mut moved = |what: &str, va: Option<&Json>, vb: Option<&Json>| {
                if va != vb {
                    pass = false;
                    let _ = writeln!(out, "MOVED   {name} {what}: {va:?} -> {vb:?}");
                }
            };
            moved("fingerprint", sa.get("fingerprint"), sb.get("fingerprint"));
            moved("sim_ops", sa.get("sim_ops"), sb.get("sim_ops"));
            if section == "per_layer" {
                for m in manifest::PER_LAYER.iter().filter(|m| m.exact) {
                    let value = |s: &Json| s.get("metrics")?.get(m.name)?.get("value").cloned();
                    moved(m.name, value(sa).as_ref(), value(sb).as_ref());
                }
            }
        }
    }
    if !same_seed {
        let _ = writeln!(
            out,
            "seeds differ: fingerprints and exact counts not compared"
        );
    }
    let _ = writeln!(out, "{}", if pass { "PASS" } else { "FAIL" });
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // 5% slower under a 7% bound is fine; 8% slower is not.
        assert_eq!(verdict(Lower, 0.07, 1.00, 1.05, 0.01), Verdict::Ok);
        assert_eq!(verdict(Lower, 0.07, 1.00, 1.08, 0.01), Verdict::Worse);
        // Faster is never worse, however large the change.
        assert_eq!(verdict(Lower, 0.07, 1.00, 0.50, 0.01), Verdict::Ok);
        // Throughput: lower is the bad direction.
        assert_eq!(verdict(Higher, 0.07, 100.0, 95.0, 0.01), Verdict::Ok);
        assert_eq!(verdict(Higher, 0.07, 100.0, 92.0, 0.01), Verdict::Worse);
        assert_eq!(verdict(Higher, 0.07, 100.0, 150.0, 0.01), Verdict::Ok);
        // A spread wider than the bound cannot certify "no change" ...
        assert_eq!(verdict(Lower, 0.07, 1.00, 1.02, 0.09), Verdict::Unresolved);
        // ... but does not excuse a median beyond the bound.
        assert_eq!(verdict(Lower, 0.07, 1.00, 1.20, 0.09), Verdict::Worse);
        // Exactly on the bound is still inside it.
        assert_eq!(verdict(Lower, 0.25, 4.0, 5.0, 0.0), Verdict::Ok);
    }

    fn doc(wall: f64, events: f64, failed: f64) -> Json {
        let stats = Summary::of(&[wall * 0.99, wall, wall * 1.01]).unwrap();
        let section = |metrics: Json| {
            Json::obj([
                ("correct", Json::Bool(failed == 0.0)),
                ("failed", Json::Num(failed)),
                ("errors", Json::Arr(vec![])),
                ("fingerprint", Json::str("00ff")),
                ("sim_ops", Json::Num(10.0)),
                ("metrics", metrics),
            ])
        };
        let e2e = Json::obj([(
            "wall_s",
            Json::obj([("value", Json::Num(wall)), ("stats", stats.to_json())]),
        )]);
        let layers = Json::obj([(
            "pearl.engine.events",
            Json::obj([("value", Json::Num(events))]),
        )]);
        Json::obj([
            ("header", Json::obj([("seed", Json::Num(7.0))])),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("task_comm")),
                    ("end_to_end", section(e2e)),
                    ("per_layer", section(layers)),
                ])]),
            ),
        ])
    }

    #[test]
    fn equal_runs_pass_and_each_kind_of_regression_fails() {
        let base = doc(1.0, 500.0, 0.0);
        let (report, pass) = compare(&base, &doc(1.1, 500.0, 0.0));
        assert!(pass, "{report}");
        assert!(
            report.contains("task_comm") && report.contains(" ok"),
            "{report}"
        );

        let (report, pass) = compare(&base, &doc(1.4, 500.0, 0.0));
        assert!(!pass && report.contains("worse"), "{report}");

        let (report, pass) = compare(&base, &doc(1.0, 501.0, 0.0));
        assert!(
            !pass && report.contains("MOVED   task_comm pearl.engine.events"),
            "{report}"
        );

        let (report, pass) = compare(&base, &doc(1.0, 500.0, 1.0));
        assert!(!pass && report.contains("FAILED"), "{report}");
    }
}
