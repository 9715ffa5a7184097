//! What the harness reads from the host: its own memory and CPU time from
//! `/proc`, and the identification every result file carries.

use std::process::Command;

use crate::json::Json;

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Current resident set of this process, bytes.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:").map_or(0, |kb| kb * 1024)
}

/// User + system CPU seconds of this process and its threads so far.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name, in clock ticks of 1/100 s (the value of
    // `_SC_CLK_TCK` on every Linux target Rust supports).
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Keep git inside the working directory: a checkout that is not a
    // repository must read "unknown", not the commit of some parent.
    let ceiling = std::env::current_dir().ok()?;
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling.parent()?)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn read_trimmed(path: &str) -> Option<String> {
    Some(std::fs::read_to_string(path).ok()?.trim().to_string())
}

/// Host, toolchain and commit, as recorded in every result.
pub fn describe() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        (
            "kernel",
            Json::Str(read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
        ),
        (
            "commit",
            Json::Str(
                command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
            ),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
    ])
}
