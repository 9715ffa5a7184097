//! The workbench command-line driver, as a library.
//!
//! The `mermaid-cli` binary is a thin wrapper around [`run`]; keeping the
//! whole driver here lets integration tests (for example the golden-file
//! CLI snapshots in `tests/golden_cli.rs`) execute exact CLI invocations
//! in-process and assert on the rendered output.
//!
//! ```text
//! mermaid-cli table1
//! mermaid-cli topo <ring:N | mesh:WxH | torus:WxH | hypercube:D | full:N | star:N>
//! mermaid-cli machines
//! mermaid-cli sim     [--machine <t805|ppc601|paragon|test>] [--topology <spec>]
//!                     [--app <scientific|integer>] [--pattern <name>]
//!                     [--phases N] [--ops N] [--seed N]
//!                     [--mode <detailed|task|direct>]
//!                     [--shards <N|auto>] [--shard-profile]
//!                     [--faults <spec|file>] [--fault-seed N]
//!                     [--watch] [--trace-out <file>] [--metrics] [--attribution <file>]
//!                     [--checkpoint-every <ps> --checkpoint-dir <dir>] [--restore <file>]
//! mermaid-cli analyze [sim's flags from --machine to --fault-seed] [--json <file>]
//! mermaid-cli probe   [--machine <name>] [--topology <spec>]
//! mermaid-cli campaign <spec|file> --out <dir> [--jobs <N|auto>] [--limit N] [--dry-run]
//!                     [--attribution] [--checkpoint <ps>]
//! ```
//!
//! Every flag is one row of [`FLAGS`]: its name, its value, the
//! subcommands that take it. The argument scanner, the "this flag belongs
//! to that subcommand" errors and the synopsis of [`usage`] are read off
//! the table; the combinations no run can honour are the rows of [`GATES`].
//! `sim` and `analyze` then do the same three things (DESIGN.md, "One run
//! path"): build a [`RunConfig`] from the flags, resolve it, run it — and
//! differ in the sinks they attach and the report they render.
//!
//! `--mode` picks the abstraction level: `task` runs the communication
//! model alone over task-level traces; `detailed` puts each node's cache
//! model in front of it; `direct` puts the static-cost model of the
//! direct-execution baseline there instead. Detailed and direct runs are
//! the same run otherwise, so every option below applies to both —
//! checkpoints aside, which need `task`.
//!
//! `simulate` is an alias for `sim`. `--trace-out` writes a Chrome-trace
//! JSON file of the run (open in `chrome://tracing` or Perfetto);
//! `--metrics` appends the per-component metrics report and a host-side
//! profile of the simulator itself. `--shards` runs the communication
//! model on N worker threads (`auto` = one per host core); sharded runs
//! are bit-identical to single-threaded ones — with or without faults.
//! `--watch` prints a progress sample to stderr every 500 events as the
//! run advances, and a sparkline of messages delivered over time after
//! the report.
//!
//! `analyze` answers "where did the time go": it runs the simulation with
//! the bottleneck-attribution sink attached and renders the latency
//! decomposition (serialization / wire / routing / queueing / retry
//! components of every delivered message), the hottest links and routers,
//! and an ASCII utilization heatmap. `--json <file>` additionally writes
//! the machine-readable `attribution.json`. The same report is available
//! from a normal run via `sim --attribution <file>`. Attribution output is
//! deterministic and byte-identical between serial and sharded runs.
//! `--shard-profile` (sharded runs only) appends each worker's self-profile
//! — barrier wait versus event-execution time, window occupancy,
//! cross-shard message volume; host wall-clock, so *not* deterministic.
//!
//! `--faults` enables deterministic fault injection in the communication
//! model. Its value is either an inline spec or the path of a file holding
//! one (the file wins when it exists). Clauses are separated by `;` or
//! newlines, times are simulated nanoseconds:
//!
//! ```text
//! link:0-1:1000:5000      # cut link 0↔1 at 1 µs, heal at 5 µs
//! router:3:2000           # crash router 3 at 2 µs, never recovers
//! drop:1000               # lose 0.1% of packets per link traversal
//! corrupt:500             # corrupt 0.05% (detected + dropped by checksum)
//! retries:6 ; timeout:2000 ; cap:32000 ; recv-timeout:1000000
//! ```
//!
//! `campaign` expands a declarative grid spec (see [`crate::campaign`] and
//! DESIGN.md §13) into a deterministic run list, fans it out over worker
//! threads, and streams one JSONL record per completed run into
//! `<out>/runs.jsonl` (plus an RFC-4180 CSV view in `<out>/summary.csv`).
//! Re-running the same campaign skips every already-recorded run —
//! interrupt it freely. `--limit N` executes at most N new runs,
//! `--dry-run` prints the expanded run list without simulating.
//!
//! Checkpointing (DESIGN.md §16): `sim --checkpoint-every <ps>
//! --checkpoint-dir <dir>` snapshots a task-mode run's full simulation
//! state every `<ps>` simulated picoseconds into versioned
//! `ckpt-<config-hash>-<time-ps>.snap` files; `sim --restore <file>`
//! resumes one and produces byte-identical output to the uninterrupted
//! run (serial and sharded alike). `campaign --checkpoint <ps>` gives
//! every task-mode run a rolling mid-run checkpoint under
//! `<out>/checkpoints/`, so a killed campaign resumes long runs from
//! their last snapshot instead of from scratch.

use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use mermaid_network::{
    Capture, CheckpointOpts, CommResult, Progress, RunOptions, Snapshot, SnapshotError,
};
use mermaid_ops::table1;
use mermaid_stats::TimeSeries;
use pearl::Time;

use crate::prelude::*;
use crate::run::{parse_machine, parse_topology, Mode, Outcome, Resolved, RunConfig, NO_FAULTS};
use crate::{report, sweep, SlowdownMeter};

/// A subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Table1,
    Topo,
    Machines,
    Sim,
    Analyze,
    Probe,
    Campaign,
}

/// Every subcommand, in `Cmd` order: its name and the positional
/// arguments it takes before its flags.
const CMDS: [(Cmd, &str, &[&str]); 7] = [
    (Cmd::Table1, "table1", &[]),
    (Cmd::Topo, "topo", &["<spec>"]),
    (Cmd::Machines, "machines", &[]),
    (Cmd::Sim, "sim", &[]),
    (Cmd::Analyze, "analyze", &[]),
    (Cmd::Probe, "probe", &[]),
    (Cmd::Campaign, "campaign", &["<spec|file>"]),
];

impl Cmd {
    fn name(self) -> &'static str {
        CMDS[self as usize].1
    }
}

/// Checks a flag's value and returns the number it stands for — 0 for a
/// value that is only text.
type ValueParser = fn(flag: &str, value: &str) -> Result<u64, String>;

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// The value's placeholder in the synopsis; [`SWITCH`] for a flag
    /// that takes none.
    metavar: &'static str,
    parse: ValueParser,
    /// The subcommands that take the flag.
    cmds: &'static [Cmd],
    /// Added to the error another subcommand answers the flag with.
    hint: &'static str,
}

const SWITCH: &str = "";

const fn flag(
    name: &'static str,
    metavar: &'static str,
    parse: ValueParser,
    cmds: &'static [Cmd],
) -> Flag {
    Flag {
        name,
        metavar,
        parse,
        cmds,
        hint: "",
    }
}

/// The subcommands that describe a machine, and those that run a workload
/// on one.
const MACHINE: &[Cmd] = &[Cmd::Sim, Cmd::Analyze, Cmd::Probe];
const RUN: &[Cmd] = &[Cmd::Sim, Cmd::Analyze];
const SIM: &[Cmd] = &[Cmd::Sim];
const CAMPAIGN: &[Cmd] = &[Cmd::Campaign];

/// Every flag of every subcommand, in synopsis order. `--attribution` is
/// two flags that share a name: `sim`'s names the JSON file to write,
/// `campaign`'s is a switch.
const FLAGS: &[Flag] = &[
    flag("--machine", "<name>", text, MACHINE),
    flag("--topology", "<spec>", text, MACHINE),
    flag("--app", "<mix>", text, RUN),
    flag("--pattern", "<p>", text, RUN),
    flag("--phases", "N", parse_phases, RUN),
    flag("--ops", "N", parse_ops, RUN),
    flag("--seed", "N", unsigned, RUN),
    flag("--mode", "<detailed|task|direct>", text, RUN),
    flag("--shards", "<N|auto>", count_or_auto, RUN),
    flag("--shard-profile", SWITCH, text, RUN),
    flag("--faults", "<spec|file>", text, RUN),
    flag("--fault-seed", "N", unsigned, RUN),
    flag("--watch", SWITCH, text, SIM),
    flag("--trace-out", "<file>", text, SIM),
    flag("--metrics", SWITCH, text, SIM),
    Flag {
        hint: "analyze always attributes; write its JSON with --json <file>",
        ..flag("--attribution", "<file>", text, SIM)
    },
    flag("--checkpoint-every", "<ps>", parse_checkpoint_cadence, SIM),
    flag("--checkpoint-dir", "<dir>", text, SIM),
    flag("--restore", "<file>", text, SIM),
    Flag {
        hint: "with sim use --attribution <file>",
        ..flag("--json", "<file>", text, &[Cmd::Analyze])
    },
    flag("--out", "<dir>", text, CAMPAIGN),
    flag("--jobs", "<N|auto>", count_or_auto, CAMPAIGN),
    flag("--limit", "N", count, CAMPAIGN),
    flag("--dry-run", SWITCH, text, CAMPAIGN),
    flag("--attribution", SWITCH, text, CAMPAIGN),
    flag("--checkpoint", "<ps>", parse_checkpoint_cadence, CAMPAIGN),
];

fn text(_flag: &str, _s: &str) -> Result<u64, String> {
    Ok(0)
}

pub(crate) fn unsigned(flag: &str, s: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("bad {flag} `{s}` (want an unsigned integer)"))
}

fn count(flag: &str, s: &str) -> Result<u64, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n as u64),
        _ => Err(format!("bad {flag} `{s}` (want a count >= 1)")),
    }
}

/// A thread count ≥ 1, or `auto` — kept as 0 for the flag's reader to
/// size against the host ([`Args::shards`], `campaign --jobs`).
fn count_or_auto(flag: &str, s: &str) -> Result<u64, String> {
    if s == "auto" {
        return Ok(0);
    }
    count(flag, s).map_err(|_| format!("bad {flag} `{s}` (want a count >= 1 or `auto`)"))
}

/// Largest accepted `--phases` value. Workload sizes beyond this are
/// almost certainly typos (every node materialises its whole trace).
pub(crate) const MAX_PHASES: u32 = 1_000_000;
/// Largest accepted `--ops` (operations per phase) value.
pub(crate) const MAX_OPS_PER_PHASE: u64 = 1_000_000_000;

/// Parse a workload size: a count in `1..=max`. Zero would generate an
/// empty workload that predicts a meaningless zero-length run, so it is
/// rejected with a diagnostic instead of silently succeeding.
fn parse_size(flag: &str, s: &str, max: u64) -> Result<u64, String> {
    match s.parse::<u64>() {
        Ok(0) => Err(format!(
            "bad {flag} `{s}` (0 is an empty workload — want 1..={max})"
        )),
        Ok(n) if n <= max => Ok(n),
        _ => Err(format!("bad {flag} `{s}` (want a count in 1..={max})")),
    }
}

/// Parse a `--phases` value: compute+communicate phases, `1..=MAX_PHASES`.
pub(crate) fn parse_phases(flag: &str, s: &str) -> Result<u64, String> {
    parse_size(flag, s, MAX_PHASES.into())
}

/// Parse an `--ops` value: operations per phase, `1..=MAX_OPS_PER_PHASE`.
pub(crate) fn parse_ops(flag: &str, s: &str) -> Result<u64, String> {
    parse_size(flag, s, MAX_OPS_PER_PHASE)
}

/// Parse a checkpoint cadence (`sim --checkpoint-every`, `campaign
/// --checkpoint`): simulated picoseconds between snapshots. Zero would
/// checkpoint at every instant; rejected.
pub(crate) fn parse_checkpoint_cadence(flag: &str, s: &str) -> Result<u64, String> {
    match s.parse::<u64>() {
        Ok(0) => Err(format!(
            "bad {flag} `{s}` (0 ps would checkpoint continuously — \
             want a cadence in simulated picoseconds >= 1)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "bad {flag} `{s}` (want a cadence in simulated picoseconds)"
        )),
    }
}

/// The CLI usage text: one synopsis line per subcommand, read off [`CMDS`]
/// and [`FLAGS`], then the spec grammars.
pub fn usage() -> String {
    let mut s = "usage:\n".to_string();
    for (cmd, name, positional) in CMDS {
        s.push_str(&format!("  mermaid-cli {name}"));
        for p in positional {
            s.push_str(&format!(" {p}"));
        }
        for f in FLAGS.iter().filter(|f| f.cmds.contains(&cmd)) {
            match f.metavar {
                SWITCH => s.push_str(&format!(" [{}]", f.name)),
                metavar => s.push_str(&format!(" [{} {metavar}]", f.name)),
            }
        }
        s.push('\n');
    }
    s.push_str(
        "\n`simulate` is an alias for `sim`. `analyze` renders the bottleneck-attribution \
         report (latency decomposition, hottest links/routers, utilization heatmap). \
         --checkpoint-every and --checkpoint-dir go together; campaign needs --out or \
         --dry-run.\n\
         topology specs: ring:8  mesh:4x4  torus:4x4  hypercube:3  full:8  star:8\n\
         fault specs:    link:0-1:1000:5000  router:3:2000  drop:1000  corrupt:500\n\
         \x20               retries:6  timeout:2000  cap:32000  recv-timeout:1000000\n\
         \x20               (times in simulated ns; `;` or newline separates clauses)\n\
         campaign spec:  topo = ring:8, torus:4x4; pattern = ring, all2all; seed = 1, 2\n\
         \x20               (key = value list per clause; see DESIGN.md section 13)",
    );
    s
}

/// One invocation's arguments after the subcommand, scanned against
/// [`FLAGS`].
struct Args {
    positional: Vec<String>,
    /// Each flag given: its name, its value as written (empty for a
    /// switch) and the number its row's parser read from it.
    flags: Vec<(&'static str, String, u64)>,
}

/// The row `cmd` reads `arg` by, or why it does not: a flag of another
/// subcommand (named, with where it does belong) or of none.
fn lookup(cmd: Cmd, arg: &str) -> Result<&'static Flag, String> {
    let rows = || FLAGS.iter().filter(|f| f.name == arg);
    if let Some(flag) = rows().find(|f| f.cmds.contains(&cmd)) {
        return Ok(flag);
    }
    let owners: Vec<String> = CMDS
        .iter()
        .filter(|(c, ..)| rows().any(|f| f.cmds.contains(c)))
        .map(|(_, name, _)| format!("`{name}`"))
        .collect();
    if owners.is_empty() {
        return Err(if arg.starts_with("--") {
            format!("unknown flag `{arg}`")
        } else {
            format!("unexpected argument `{arg}` for `{}`", cmd.name())
        });
    }
    let mut err = format!(
        "`{}` does not take {arg}; use {}",
        cmd.name(),
        owners.join(" or ")
    );
    if let Some(hint) = rows().map(|f| f.hint).find(|h| !h.is_empty()) {
        err.push_str(&format!(" ({hint})"));
    }
    Err(err)
}

/// The one argument scanner: `cmd`'s positionals, then flags — each a row
/// of [`FLAGS`] that `cmd` takes, given at most once, with its value if
/// the row has one.
fn scan(cmd: Cmd, args: &[String]) -> Result<Args, String> {
    let wanted = CMDS[cmd as usize].2;
    if let Some(missing) = wanted.get(args.len()) {
        return Err(format!("{} needs {missing}", cmd.name()));
    }
    let (positional, rest) = args.split_at(wanted.len());
    let mut flags: Vec<(&'static str, String, u64)> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let flag = lookup(cmd, arg)?;
        // Silent last-wins on repeated flags hides mistakes in scripted
        // invocations (`--seed 1 --seed 2` ran with seed 2); every flag —
        // switches included — may be given at most once.
        if flags.iter().any(|(name, ..)| *name == flag.name) {
            return Err(format!(
                "duplicate flag `{arg}` (each flag may be given once)"
            ));
        }
        let value = match flag.metavar {
            SWITCH => String::new(),
            _ => it
                .next()
                .ok_or_else(|| format!("missing value for {arg}"))?
                .clone(),
        };
        let num = (flag.parse)(flag.name, &value)?;
        flags.push((flag.name, value, num));
    }
    Ok(Args {
        positional: positional.to_vec(),
        flags,
    })
}

impl Args {
    fn get(&self, name: &str) -> Option<(&str, u64)> {
        debug_assert!(FLAGS.iter().any(|f| f.name == name), "{name} has no row");
        let given = self.flags.iter().find(|(n, ..)| *n == name);
        given.map(|(_, text, num)| (text.as_str(), *num))
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.get(name).map(|(text, _)| text)
    }

    fn num(&self, name: &str) -> Option<u64> {
        self.get(name).map(|(_, num)| num)
    }

    /// `--shards`: a thread count, `auto` being one shard per host core.
    fn shards(&self) -> usize {
        match self.num("--shards") {
            None => 1,
            Some(0) => mermaid_network::auto_shards(),
            Some(n) => n as usize,
        }
    }

    fn tracing(&self) -> bool {
        self.has("--trace-out") || self.has("--metrics") || self.has("--attribution")
    }

    fn checkpointing(&self) -> bool {
        self.has("--checkpoint-every") || self.has("--checkpoint-dir") || self.has("--restore")
    }

    /// The [`RunConfig`] a `sim` or `analyze` invocation describes, flags
    /// over defaults. A `--faults` file is read here, once, and travels on
    /// as its canonical spec.
    fn run_config(&self, default_mode: Mode) -> Result<RunConfig, String> {
        let d = RunConfig::default();
        let text = |flag: &str, default: String| self.text(flag).map_or(default, str::to_string);
        Ok(RunConfig {
            machine: text("--machine", d.machine),
            topo: text("--topology", d.topo),
            app: text("--app", d.app),
            pattern: text("--pattern", d.pattern),
            // Lossless: the row's parser bounded it by `MAX_PHASES`.
            phases: self.num("--phases").map_or(d.phases, |n| n as u32),
            ops: self.num("--ops").unwrap_or(d.ops),
            seed: self.num("--seed").unwrap_or(d.seed),
            mode: text("--mode", default_mode.name().to_string()),
            shards: self.shards(),
            faults: match self.text("--faults") {
                Some(arg) => canonical_fault_spec(arg)?,
                None => d.faults,
            },
            fault_seed: self.num("--fault-seed").unwrap_or(d.fault_seed),
        })
    }
}

/// Whether a flag combination, under the run's mode, is one no run can
/// honour.
type Gate = fn(&Args, Mode) -> bool;

/// Flag combinations no run can honour, in the order they are checked: the
/// first whose predicate holds is the error. `sim` and `analyze` share the
/// list — a gate over flags `analyze` does not take cannot fire there.
const GATES: &[(Gate, &str)] = &[
    (
        |a, mode| mode != Mode::Task && a.checkpointing(),
        "--checkpoint-every/--checkpoint-dir/--restore need --mode task \
         (they snapshot the communication model; see DESIGN.md section 16)",
    ),
    (
        |a, _| a.has("--watch") && a.shards() > 1,
        "--watch cannot be combined with --shards: shards merge their results only \
         at the end of the run, so there is no progress to sample",
    ),
    (
        |a, _| a.has("--shard-profile") && a.shards() <= 1,
        "--shard-profile needs --shards with at least 2 workers",
    ),
    (
        |a, _| a.has("--checkpoint-every") != a.has("--checkpoint-dir"),
        "--checkpoint-every and --checkpoint-dir go together \
         (a cadence needs a destination, and vice versa)",
    ),
    (
        |a, _| a.has("--restore") && (a.has("--trace-out") || a.has("--metrics")),
        "--restore cannot rebuild --trace-out/--metrics streams (they would \
         only cover events after the checkpoint instant); --attribution is \
         supported because its state is carried in the snapshot",
    ),
    (
        |a, _| a.has("--fault-seed") && !a.has("--faults"),
        "--fault-seed needs --faults",
    ),
];

/// Canonicalise a `--faults` argument — an inline spec, or the path of a
/// file holding one (the file wins when it exists) — into the campaign
/// grammar's fault token (`+`-joined clauses, whitespace and comments
/// stripped, or `none`), so a `sim` run hashes its fault schedule exactly
/// like the equivalent campaign run would.
fn canonical_fault_spec(arg: &str) -> Result<String, String> {
    let text = if Path::new(arg).is_file() {
        std::fs::read_to_string(arg).map_err(|e| format!("cannot read fault file {arg}: {e}"))?
    } else {
        arg.to_string()
    };
    let clauses: Vec<String> = text
        .split([';', '\n'])
        .map(|c| {
            c.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|c| !c.is_empty())
        .collect();
    Ok(if clauses.is_empty() {
        NO_FAULTS.to_string()
    } else {
        clauses.join("+")
    })
}

/// Refuse the run artifact `path` when its parent directory is missing —
/// the common scripted mistake — with the path *and* the cause, instead of
/// the bare OS error an open would surface. Called before a run for every
/// artifact written after it, so a mistyped directory costs no simulation.
fn check_output_dir(path: &str) -> Result<(), String> {
    match Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() && !dir.is_dir() => Err(format!(
            "cannot write {path}: output directory `{}` does not exist (create it first)",
            dir.display()
        )),
        _ => Ok(()),
    }
}

/// Create the run artifact `path` (see [`check_output_dir`]).
fn create_output(path: &str) -> Result<std::fs::File, String> {
    check_output_dir(path)?;
    std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))
}

fn write_output_file(path: &str, data: &str) -> Result<(), String> {
    std::io::Write::write_all(&mut create_output(path)?, data.as_bytes())
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// An artifact written while the run goes: removed again unless
/// [`Partial::keep`] is called, so a run that fails leaves no partial file
/// behind. Only a regular file is removed — never `/dev/full` and the like.
struct Partial<'a> {
    path: &'a str,
    kept: bool,
}

impl Partial<'_> {
    fn keep(mut self) {
        self.kept = true;
    }
}

impl Drop for Partial<'_> {
    fn drop(&mut self) {
        if !self.kept && Path::new(self.path).is_file() {
            let _ = std::fs::remove_file(self.path);
        }
    }
}

/// Render the `--shard-profile` epilogue. The numbers are host wall-clock
/// — they vary run to run and are deliberately excluded from the
/// deterministic serial-vs-sharded output guarantees.
fn shard_profile_section(p: Option<&mermaid_network::ShardProfile>) -> String {
    match p {
        Some(p) => format!(
            "\nshard self-profile (host wall-clock; varies between runs):\n{}",
            p.render()
        ),
        None => "\nshard self-profile: none (the run fell back to the serial path)\n".to_string(),
    }
}

/// Render the fault-injection epilogue of a run: headline counters plus
/// the structured unreachable-pair table when anything actually failed.
fn fault_summary(comm: &CommResult) -> String {
    let mut s = format!("\nfault injection: {}\n", comm.delivery().headline());
    if !comm.unreachable.is_empty() {
        if let Some(t) = report::degraded_table(comm) {
            s.push_str(&t.render());
        }
    }
    s
}

/// The front half of `sim` and `analyze`: the [`RunConfig`] the flags
/// describe, resolved, with the flag combinations gated against its mode.
fn describe(a: &Args, default_mode: Mode) -> Result<(RunConfig, Resolved), String> {
    let cfg = a.run_config(default_mode)?;
    let resolved = cfg.resolve()?;
    match GATES.iter().find(|(holds, _)| holds(a, resolved.mode)) {
        Some((_, err)) => Err(err.to_string()),
        None => Ok((cfg, resolved)),
    }
}

/// Run what [`describe`] returned, recording into `probe` and sampling
/// into `progress` (`sim --watch`), through `sim`'s checkpoint flags:
/// optionally seeded from a `--restore` snapshot, optionally capturing one
/// every `--checkpoint-every` simulated picoseconds into `--checkpoint-dir`
/// as `ckpt-<config-hash>-<time-ps>.snap` (the time is zero-padded so
/// directory listings sort in capture order).
/// Returns the outcome plus the number of checkpoints written.
///
/// The hash is the run's campaign identity with `shards` pinned to 1:
/// sharding provably does not change results (the bit-identity contract of
/// DESIGN.md §11), so a checkpoint captured serially restores under any
/// `--shards` value, serial and sharded captures of the same run produce
/// byte-identical snapshot files, and a one-shard campaign run's rolling
/// checkpoint restores under the equivalent `sim` flags.
///
/// A restored run prints exactly what the uninterrupted run prints — no
/// banner — so `diff` against a straight-through invocation is the
/// simplest possible conformance check. Under `--watch` its progress lines
/// are the uninterrupted run's after the snapshot, and its sparkline
/// covers only those.
fn launch(
    a: &Args,
    cfg: &RunConfig,
    resolved: &Resolved,
    probe: &ProbeHandle,
    progress: Option<Progress<'_>>,
) -> Result<(Outcome, usize), String> {
    let hash = RunConfig {
        shards: 1,
        ..cfg.clone()
    }
    .config_hash();
    let restored = match a.text("--restore") {
        Some(path) => {
            let snap = Snapshot::read_file(Path::new(path)).map_err(|e| e.to_string())?;
            snap.verify_config(&hash).map_err(|e| e.to_string())?;
            Some(snap)
        }
        None => None,
    };
    let written = AtomicUsize::new(0);
    let write;
    // Gated: a cadence comes with its directory, and vice versa.
    let checkpoint = match (a.num("--checkpoint-every"), a.text("--checkpoint-dir")) {
        (Some(every), Some(dir)) => {
            write = |snap: &Capture<'_>| -> Result<(), SnapshotError> {
                let name = format!("ckpt-{hash}-{:020}.snap", snap.time().as_ps());
                snap.write_file(&Path::new(dir).join(name))?;
                written.fetch_add(1, Ordering::Relaxed);
                Ok(())
            };
            Some(CheckpointOpts {
                every: pearl::Duration::from_ps(every),
                config_hash: hash.clone(),
                write: &write,
            })
        }
        _ => None,
    };
    let opts = RunOptions {
        probe: probe.clone(),
        shards: cfg.shards,
        faults: resolved.faults.clone(),
        restore_from: restored,
        checkpoint: checkpoint.as_ref(),
        progress,
    };
    let outcome = resolved.run(opts, 1).map_err(|e| e.to_string())?;
    Ok((outcome, written.load(Ordering::Relaxed)))
}

fn run_sim(a: &Args) -> Result<String, String> {
    let (cfg, resolved) = describe(a, Mode::Detailed)?;
    let (trace_out, attribution) = (a.text("--trace-out"), a.text("--attribution"));
    if let (Some(trace), Some(attribution)) = (trace_out, attribution) {
        if Path::new(trace) == Path::new(attribution) {
            return Err(format!(
                "--trace-out and --attribution both name `{trace}`; \
                 the second artifact would overwrite the first"
            ));
        }
    }
    // The trace is written as the run records it, so its file is opened
    // first; `partial` removes it again if the run or the trace fails. The
    // attribution is written after the run, into a directory checked now.
    if let Some(path) = attribution {
        check_output_dir(path)?;
    }
    let (trace_file, partial) = match trace_out {
        Some(path) => (
            Some(create_output(path)?),
            Some(Partial { path, kept: false }),
        ),
        None => (None, None),
    };
    // Instrumentation: one probe handle feeds every sink the user asked
    // for. Disabled (a single branch per event site) when no flag is given.
    let probe = if a.tracing() {
        let mut stack = ProbeStack::new();
        if let Some(file) = trace_file {
            stack = stack.with_chrome_to(file);
        }
        if a.has("--metrics") {
            stack = stack
                .with_metrics()
                .with_profiler(crate::host_frequency().as_hz() as f64);
        }
        if attribution.is_some() {
            stack = stack.with_attribution();
        }
        ProbeHandle::new(stack)
    } else {
        ProbeHandle::disabled()
    };

    // `--watch`: the run-time half of the paper's tools. Each progress
    // sample goes to stderr as it is taken and into the series behind
    // the stdout sparkline.
    let nodes = resolved.machine.nodes();
    let messages = RefCell::new(TimeSeries::new("messages"));
    let watch = |t: Time, r: &CommResult| {
        eprintln!(
            "t={:>14}ps  events={:>8}  msgs={:>6}  done={}/{}",
            t.as_ps(),
            r.events,
            r.total_messages,
            r.nodes_done(),
            nodes
        );
        messages
            .borrow_mut()
            .push(t.as_ps(), r.total_messages as f64);
    };
    let progress = a.has("--watch").then_some(&watch as Progress<'_>);

    // A detailed run generates its operations as the simulator pulls
    // them, so its `slowdown` line covers trace generation plus
    // simulation — the paper's own set-up (Section 6). Bench figures that
    // time simulation of a ready `TraceSet` alone are not comparable with
    // it.
    let meter = SlowdownMeter::start(nodes, resolved.machine.cpu.clock);
    let (outcome, ckpts_written) = launch(a, &cfg, &resolved, &probe, progress)?;
    let finish = outcome.predicted_time();
    let slow = meter.finish(finish);
    let mut out = format!("machine: {}\n", resolved.machine.name);
    match &outcome {
        Outcome::Task(r) => {
            out.push_str(&format!("predicted time: {finish}\n\n"));
            out.push_str(&report::task_level_table(r).render());
        }
        Outcome::Hybrid(_) if resolved.mode == Mode::Direct => out.push_str(&format!(
            "predicted time: {finish} (direct-execution estimate; cache-blind)\n"
        )),
        Outcome::Hybrid(r) => {
            out.push_str(&format!("predicted time: {finish}\n\n"));
            out.push_str(&report::hybrid_table(r).render());
        }
    }
    if progress.is_some() {
        out.push_str(&format!(
            "messages over time: {}\n",
            mermaid_stats::chart::sparkline(&messages.borrow(), 40)
        ));
    }
    if resolved.faults.is_some() {
        out.push_str(&fault_summary(outcome.comm()));
    }
    if resolved.mode == Mode::Detailed {
        out.push_str(&format!(
            "\nslowdown {:.1}×/proc, {:.0} target cycles/s\n",
            slow.slowdown_per_processor(),
            slow.target_cycles_per_host_second()
        ));
    }
    if a.has("--shard-profile") {
        out.push_str(&shard_profile_section(outcome.shard_profile()));
    }
    if let Some(dir) = a.text("--checkpoint-dir") {
        out.push_str(&format!(
            "checkpoints written: {ckpts_written} (ckpt-*.snap in {dir})\n"
        ));
    }

    let finish_ps = finish.as_ps();
    if let Some(partial) = partial {
        let path = partial.path;
        // The sink checked the trace as it recorded it and has written all
        // but its end into the file: nothing is parsed back.
        probe
            .with_stack(|s| {
                let chrome = s.chrome.as_mut().ok_or("no trace was collected")?;
                chrome
                    .summary()
                    .map_err(|e| format!("internal error: emitted trace is invalid: {e}"))?;
                chrome
                    .finish()
                    .map_err(|e| format!("cannot write {path}: {e}"))
            })
            .ok_or("no trace was collected")??;
        partial.keep();
        out.push_str(&format!("trace written: {path}\n"));
    }
    if let Some(path) = attribution {
        let report = probe
            .attribution_report(finish_ps)
            .ok_or("no attribution was collected")?;
        write_output_file(path, &report.to_json())?;
        out.push_str(&format!("attribution written: {path}\n"));
    }
    if a.has("--metrics") {
        let report = probe
            .metrics_report(finish_ps)
            .ok_or("no metrics were collected")?;
        out.push('\n');
        out.push_str(&report.render());
        if let Some(profile) = probe.host_profile() {
            out.push('\n');
            out.push_str(&profile.render());
        }
    }
    Ok(out)
}

fn run_analyze(a: &Args) -> Result<String, String> {
    // Analyze targets the communication network, so the fast task-level
    // mode is the default; `--mode detailed` attributes the same run with
    // the computational model in front.
    let (cfg, resolved) = describe(a, Mode::Task)?;
    if let Some(path) = a.text("--json") {
        check_output_dir(path)?;
    }
    let probe = ProbeHandle::new(ProbeStack::new().with_attribution());
    let (outcome, _) = launch(a, &cfg, &resolved, &probe, None)?;
    let finish = outcome.predicted_time();
    let report = probe
        .attribution_report(finish.as_ps())
        .ok_or("no attribution was collected")?;
    let mut out = format!(
        "machine: {}\npredicted time: {finish}\n\n{}",
        resolved.machine.name,
        report.render()
    );
    if let Some(path) = a.text("--json") {
        write_output_file(path, &report.to_json())?;
        out.push_str(&format!("attribution written: {path}\n"));
    }
    if a.has("--shard-profile") {
        out.push_str(&shard_profile_section(outcome.shard_profile()));
    }
    Ok(out)
}

fn run_topo(spec: &str) -> Result<String, String> {
    let t = parse_topology(spec)?;
    let degree = (0..t.nodes()).map(|n| t.neighbors(n).len()).max();
    Ok(format!(
        "topology:  {}\nnodes:     {}\nlinks:     {}\ndiameter:  {}\ndegree:    {}\n",
        t.label(),
        t.nodes(),
        t.link_count(),
        t.diameter(),
        degree.unwrap_or(0)
    ))
}

fn run_probe(a: &Args) -> Result<String, String> {
    let topo = parse_topology(a.text("--topology").unwrap_or("ring:4"))?;
    let machine = parse_machine(a.text("--machine").unwrap_or("ppc601"), topo)?;
    let mut out = format!(
        "machine: {}\n\nmemory-latency curve (64 B stride):\n",
        machine.name
    );
    let footprints: Vec<u64> = (0..10).map(|i| (4 << 10) << i).collect(); // 4 KiB … 2 MiB
    for p in crate::memory_stride_probe(&machine, &footprints, 64) {
        out.push_str(&format!(
            "  {:>8} KiB  {:>8.1} ns/access\n",
            p.array_bytes / 1024,
            p.per_access.as_nanos_f64()
        ));
    }
    out.push_str("\nping-pong (node 0 ↔ 1):\n");
    for p in crate::ping_pong(&machine, &[64, 1024, 16 * 1024, 262_144], 3) {
        out.push_str(&format!(
            "  {:>7} B  one-way {:>12}  {:>10.2} MB/s\n",
            p.bytes,
            format!("{}", p.one_way),
            p.bandwidth / 1e6
        ));
    }
    Ok(out)
}

/// Run the `campaign` subcommand: read the spec (inline or file, the file
/// winning when it exists — same convention as `--faults`) and drive
/// [`crate::campaign::run_campaign`].
fn run_campaign_cmd(a: &Args) -> Result<String, String> {
    let spec_arg = &a.positional[0];
    let spec_text = if Path::new(spec_arg).is_file() {
        std::fs::read_to_string(spec_arg)
            .map_err(|e| format!("cannot read campaign file {spec_arg}: {e}"))?
    } else {
        spec_arg.clone()
    };
    let spec = crate::campaign::CampaignSpec::parse(&spec_text)?;
    if a.has("--dry-run") {
        let runs = spec.expand()?;
        let mut out = format!("campaign: {} run(s) expanded (dry run)\n", runs.len());
        for r in &runs {
            out.push_str(&format!("  {}  {}\n", r.config_hash(), r.canonical()));
        }
        return Ok(out);
    }
    let out_dir = a
        .text("--out")
        .ok_or("campaign needs --out <dir> (or --dry-run)")?;
    let jobs = match a.num("--jobs") {
        None => 1,
        // `auto` is resolved against the spec's shard axis: each run may
        // itself spawn `shards` worker threads, so the job count is capped
        // to keep jobs × shards within the host core count.
        Some(0) => sweep::auto_workers_for(spec.shards.iter().copied().max().unwrap_or(1)),
        Some(n) => n as usize,
    };
    let outcome = crate::campaign::run_campaign(
        &spec,
        &crate::campaign::CampaignOptions {
            out_dir: out_dir.into(),
            jobs,
            limit: a.num("--limit").map(|n| n as usize),
            progress: true,
            attribution: a.has("--attribution"),
            checkpoint_every_ps: a.num("--checkpoint"),
        },
    )?;
    Ok(outcome.report)
}

/// Execute one CLI invocation (everything after the program name) and
/// return the text it would print on stdout.
pub fn run(args: &[String]) -> Result<String, String> {
    let names: Vec<&str> = CMDS.iter().map(|(_, name, _)| *name).collect();
    let Some(name) = args.first() else {
        return Err(format!(
            "no subcommand (expected one of: {}; simulate = sim)",
            names.join(", ")
        ));
    };
    let name = if name == "simulate" { "sim" } else { name };
    let Some(&(cmd, ..)) = CMDS.iter().find(|(_, n, _)| *n == name) else {
        return Err(format!("unknown subcommand `{name}`"));
    };
    let a = scan(cmd, &args[1..])?;
    match cmd {
        Cmd::Table1 => Ok(table1::render()),
        Cmd::Topo => run_topo(&a.positional[0]),
        Cmd::Machines => Ok(
            "t805     Inmos T805 transputer multicomputer (30 MHz, SAF links)\n\
             ppc601   Motorola PowerPC 601 nodes, two cache levels, hw-routed net\n\
             paragon  Intel Paragon XP/S-class (i860 XP, wormhole mesh links)\n\
             test     fast round-number test machine\n"
                .to_string(),
        ),
        Cmd::Sim => run_sim(&a),
        Cmd::Analyze => run_analyze(&a),
        Cmd::Probe => run_probe(&a),
        Cmd::Campaign => run_campaign_cmd(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// A short direct-execution `cmd` run with `extra` flags appended.
    fn direct(cmd: &str, extra: &[&str]) -> String {
        let args = [
            cmd,
            "--machine",
            "test",
            "--topology",
            "mesh:2x2",
            "--mode",
            "direct",
            "--pattern",
            "all2all",
            "--phases",
            "2",
            "--ops",
            "300",
        ];
        run(&s(&[&args[..], extra].concat())).unwrap()
    }

    /// The time on `out`'s `predicted time:` line.
    fn predicted(out: &str) -> &str {
        let line = out.lines().find(|l| l.starts_with("predicted time: "));
        line.unwrap().split(' ').nth(2).unwrap()
    }

    #[test]
    fn butterfly_on_a_non_power_of_two_machine_is_an_error_not_a_panic() {
        // Used to die in `StochasticApp::validate()` with the whole binary.
        for cmd in ["sim", "analyze"] {
            for mode in ["task", "detailed"] {
                let err = run(&s(&[
                    cmd,
                    "--topology",
                    "ring:6",
                    "--pattern",
                    "butterfly",
                    "--mode",
                    mode,
                ]))
                .expect_err("ring:6 cannot run a butterfly");
                assert!(err.contains("power-of-two"), "{err}");
                assert!(
                    err.contains("6 nodes") && err.contains("--pattern"),
                    "{err}"
                );
            }
        }
        let err = run(&s(&[
            "campaign",
            "topo = ring:8, ring:6; pattern = ring, butterfly",
            "--dry-run",
        ]))
        .unwrap_err();
        assert!(
            err.contains("`butterfly` is invalid for topo `ring:6`"),
            "{err}"
        );
        assert!(run(&s(&[
            "sim",
            "--topology",
            "ring:8",
            "--pattern",
            "butterfly"
        ]))
        .is_ok());
    }

    #[test]
    fn shards_flag_parses_counts_and_auto() {
        let shards = |v: &str| scan(Cmd::Sim, &s(&["--shards", v])).map(|a| a.shards());
        assert_eq!(shards("1").unwrap(), 1);
        assert_eq!(shards("4").unwrap(), 4);
        assert!(shards("auto").unwrap() >= 1);
        for bad in ["0", "-2", "many"] {
            let err = shards(bad).expect_err("rejected");
            assert_eq!(
                err,
                format!("bad --shards `{bad}` (want a count >= 1 or `auto`)")
            );
        }
        assert!(scan(Cmd::Sim, &s(&["--shards"])).is_err());
    }

    /// `run` must fail, and the error must name every fragment.
    fn rejected(args: &[&str], fragments: &[&str]) {
        let err = run(&s(args)).expect_err(&format!("`{}` must be rejected", args.join(" ")));
        for want in fragments {
            assert!(err.contains(want), "`{err}` should mention `{want}`");
        }
    }

    #[test]
    fn analyze_rejects_the_checkpoint_flags_it_used_to_ignore() {
        for (flag, value) in [
            ("--restore", "x.snap"),
            ("--checkpoint-every", "100"),
            ("--checkpoint-dir", "d"),
        ] {
            rejected(&["analyze", flag, value], &[flag, "`analyze`", "use `sim`"]);
        }
    }

    #[test]
    fn watch_samples_direct_and_detailed_mode_runs() {
        // Both node models feed the one run path: the sparkline is the
        // only line --watch adds to stdout.
        let plain = direct("sim", &[]);
        let watched = direct("sim", &["--watch"]);
        let (report, sparkline) = watched.split_once("messages over time: ").unwrap();
        assert_eq!(report, plain);
        assert_eq!(sparkline.lines().count(), 1, "{watched}");
        let out = run(&s(&[
            "sim",
            "--mode",
            "detailed",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--ops",
            "300",
            "--watch",
        ]))
        .unwrap();
        assert!(out.contains("\nmessages over time: "), "{out}");
    }

    #[test]
    fn probe_rejects_every_flag_but_machine_and_topology() {
        rejected(
            &["probe", "--faults", "frob:1", "--restore", "nope"],
            &["--faults", "`probe`", "use `sim` or `analyze`"],
        );
        rejected(&["probe", "--seed", "3"], &["--seed", "`probe`"]);
    }

    #[test]
    fn arguments_a_subcommand_has_no_place_for_are_rejected() {
        rejected(&["topo", "ring:4", "mesh:2x2"], &["`mesh:2x2`", "`topo`"]);
        rejected(&["table1", "now"], &["`now`", "`table1`"]);
        rejected(&["topo"], &["topo needs <spec>"]);
    }

    #[test]
    fn seed_errors_name_the_flag_the_value_and_the_form() {
        rejected(
            &["sim", "--seed", "x"],
            &["bad --seed `x` (want an unsigned integer)"],
        );
        rejected(
            &["sim", "--faults", "drop:1", "--fault-seed", "-3"],
            &["bad --fault-seed `-3` (want an unsigned integer)"],
        );
    }

    #[test]
    fn every_flag_is_taken_exactly_where_its_rows_say() {
        assert!(CMDS.iter().enumerate().all(|(i, (c, ..))| *c as usize == i));
        let names: std::collections::BTreeSet<&str> = FLAGS.iter().map(|f| f.name).collect();
        for (cmd, cmd_name, positional) in CMDS {
            for name in &names {
                let row = FLAGS
                    .iter()
                    .find(|f| f.name == *name && f.cmds.contains(&cmd));
                // A value no number parser accepts: a declared flag gets
                // as far as its value, an undeclared one is refused by name.
                let mut args = s(positional);
                args.push(name.to_string());
                if row.is_none_or(|f| f.metavar != SWITCH) {
                    args.push("\u{0}".to_string());
                }
                match (row, scan(cmd, &args)) {
                    (Some(_), Ok(a)) => assert!(a.has(name)),
                    (Some(_), Err(e)) => {
                        assert!(e.starts_with(&format!("bad {name} ")), "{cmd_name}: {e}")
                    }
                    (None, Ok(_)) => panic!("{cmd_name} took {name}"),
                    (None, Err(e)) => {
                        let refusal = format!("`{cmd_name}` does not take {name}; use `");
                        assert!(e.starts_with(&refusal), "{cmd_name}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_flag_is_documented_wherever_flags_are_listed() {
        let source = include_str!("cli.rs");
        let module_doc: String = source
            .lines()
            .take_while(|l| l.starts_with("//!"))
            .collect();
        let readme = include_str!("../../../README.md");
        let usage = usage();
        for f in FLAGS {
            assert!(usage.contains(f.name), "usage() omits {}", f.name);
            assert!(module_doc.contains(f.name), "module doc omits {}", f.name);
            assert!(readme.contains(f.name), "README.md omits {}", f.name);
        }
    }

    #[test]
    fn no_subcommand_error_lists_the_subcommands() {
        let err = run(&[]).unwrap_err();
        for name in [
            "table1", "topo", "machines", "simulate", "analyze", "probe", "campaign",
        ] {
            assert!(err.contains(name), "`{err}` should mention {name}");
        }
    }

    #[test]
    fn analyze_renders_the_attribution_report() {
        let out = run(&s(&[
            "analyze",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--phases",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("predicted time"), "{out}");
        assert!(out.contains("Latency decomposition"), "{out}");
        assert!(out.contains("Hottest links"), "{out}");
        assert!(out.contains("Hottest routers"), "{out}");
        assert!(out.contains("heatmap"), "{out}");
    }

    #[test]
    fn analyze_output_is_byte_identical_serial_vs_sharded() {
        let dir = std::env::temp_dir();
        let a = dir.join(format!("mermaid-attr-serial-{}.json", std::process::id()));
        let b = dir.join(format!("mermaid-attr-sharded-{}.json", std::process::id()));
        let base = s(&[
            "analyze",
            "--machine",
            "test",
            "--topology",
            "torus:2x2",
            "--phases",
            "2",
            "--pattern",
            "all2all",
        ]);
        let mut serial_args = base.clone();
        serial_args.extend(s(&["--json", a.to_str().unwrap()]));
        let mut sharded_args = base.clone();
        sharded_args.extend(s(&["--shards", "3", "--json", b.to_str().unwrap()]));
        let serial = run(&serial_args).unwrap();
        let sharded = run(&sharded_args).unwrap();
        let aj = std::fs::read_to_string(&a).unwrap();
        let bj = std::fs::read_to_string(&b).unwrap();
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
        // stdout differs only in the --json path echoed at the end.
        assert_eq!(
            serial.replace(a.to_str().unwrap(), "X"),
            sharded.replace(b.to_str().unwrap(), "X")
        );
        assert_eq!(aj, bj, "attribution.json must be shard-invariant");
        assert!(aj.contains("\"schema\":\"mermaid-attribution-v1\""), "{aj}");
    }

    #[test]
    fn analyze_attributes_direct_mode_and_rejects_sim_only_flags() {
        let out = direct("analyze", &[]);
        assert!(out.contains("Latency decomposition"), "{out}");
        assert!(out.contains("Hottest links"), "{out}");
        assert_eq!(predicted(&out), predicted(&direct("sim", &[])));
        let err = run(&s(&["analyze", "--metrics"])).unwrap_err();
        assert!(err.contains("use `sim`"), "{err}");
        let err = run(&s(&["analyze", "--watch"])).unwrap_err();
        assert!(err.contains("use `sim`"), "{err}");
        let err = run(&s(&["analyze", "--attribution", "x.json"])).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        let err = run(&s(&["sim", "--json", "x.json"])).unwrap_err();
        assert!(err.contains("--attribution"), "{err}");
    }

    #[test]
    fn sim_attribution_flag_writes_the_json_artifact() {
        let path =
            std::env::temp_dir().join(format!("mermaid-sim-attr-{}.json", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        let out = run(&s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "2",
            "--attribution",
            &path_s,
        ]))
        .unwrap();
        assert!(out.contains("attribution written"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            json.starts_with("{\"schema\":\"mermaid-attribution-v1\""),
            "{json}"
        );
    }

    #[test]
    fn missing_output_directory_is_an_actionable_error() {
        let bogus = "/nonexistent-mermaid-dir/out.json";
        for args in [
            vec![
                "sim",
                "--mode",
                "task",
                "--phases",
                "1",
                "--trace-out",
                bogus,
            ],
            vec![
                "sim",
                "--mode",
                "task",
                "--phases",
                "1",
                "--attribution",
                bogus,
            ],
            vec!["analyze", "--phases", "1", "--json", bogus],
        ] {
            let mut full = vec!["--machine", "test", "--topology", "ring:4"];
            full.splice(0..0, [args[0]]);
            full.extend(&args[1..]);
            let err = run(&s(&full)).unwrap_err();
            assert!(err.contains(bogus), "{err}");
            assert!(err.contains("does not exist"), "{err}");
            assert!(err.contains("/nonexistent-mermaid-dir"), "{err}");
        }
    }

    #[test]
    fn one_path_for_two_artifacts_is_rejected_before_the_run() {
        let path = std::env::temp_dir().join(format!("mermaid-collide-{}", std::process::id()));
        let path_s = path.to_str().unwrap();
        let mut args = vec!["sim", "--machine", "test", "--topology", "ring:4"];
        args.extend(["--mode", "task", "--trace-out", path_s]);
        args.extend(["--attribution", path_s]);
        let err = run(&s(&args)).unwrap_err();
        assert!(err.contains("--trace-out and --attribution"), "{err}");
        assert!(err.contains(path_s), "{err}");
        assert!(!path.exists(), "rejected before anything was written");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_failing_trace_write_is_an_error_not_a_truncated_file() {
        // /dev/full accepts the open and fails every write with ENOSPC:
        // the error surfaces when the stream is flushed, mid-document.
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let mut args = vec!["sim", "--machine", "test", "--topology", "ring:4"];
        args.extend(["--mode", "task", "--phases", "2"]);
        args.extend(["--trace-out", "/dev/full"]);
        let err = run(&s(&args)).unwrap_err();
        assert!(err.starts_with("cannot write /dev/full: "), "{err}");
    }

    #[test]
    fn a_traced_run_that_fails_mid_run_leaves_no_trace_file() {
        // The first capture, halfway through a run of 16 event batches,
        // fails on the missing directory while the trace is being written.
        let trace =
            std::env::temp_dir().join(format!("mermaid-failed-{}.json", std::process::id()));
        let trace_s = trace.to_str().unwrap();
        let mut args = vec!["sim", "--machine", "test", "--topology", "torus:4x4"];
        args.extend(["--mode", "task", "--pattern", "all2all", "--phases", "2"]);
        args.extend(["--trace-out", trace_s, "--checkpoint-every", "60000000"]);
        args.extend(["--checkpoint-dir", "/nonexistent-mermaid-dir"]);
        let err = run(&s(&args)).unwrap_err();
        assert!(err.contains("create it first"), "{err}");
        assert!(!trace.exists(), "the failed run left {trace_s} behind");
    }

    #[test]
    fn attribution_directories_are_checked_before_the_run() {
        // The restore of a missing snapshot fails as the run starts, so the
        // directory error coming first shows the check ran before it.
        let missing = "/nonexistent-mermaid-dir/a.json";
        let restoring = |attr| task_args(&["--attribution", attr, "--restore", "x.snap"]);
        let err = run(&restoring(missing)).unwrap_err();
        assert!(
            err.contains(
                "cannot write /nonexistent-mermaid-dir/a.json: output directory \
                 `/nonexistent-mermaid-dir` does not exist (create it first)"
            ),
            "{err}"
        );
        // A run that fails after the check leaves no attribution file.
        let attr = std::env::temp_dir().join(format!("mermaid-attr-{}.json", std::process::id()));
        let attr_s = attr.to_str().unwrap();
        let err = run(&restoring(attr_s)).unwrap_err();
        assert!(err.contains("cannot read snapshot"), "{err}");
        assert!(!attr.exists(), "the failed run left {attr_s} behind");
        let mut args = vec!["analyze", "--machine", "test", "--topology", "ring:4"];
        args.extend(["--phases", "1", "--json", missing]);
        let err = run(&s(&args)).unwrap_err();
        assert!(
            err.contains("`/nonexistent-mermaid-dir` does not exist"),
            "{err}"
        );
    }

    #[test]
    fn the_self_profile_is_the_last_section_of_sim_metrics() {
        // Output comparisons cut `sim --metrics` stdout at this title: only
        // host-dependent figures may follow it.
        let dir = std::env::temp_dir().join(format!("mermaid-last-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (trace, attr) = (dir.join("t.json"), dir.join("a.json"));
        let (trace, attr) = (trace.to_str().unwrap(), attr.to_str().unwrap());
        let mut args = vec!["sim", "--machine", "test", "--topology", "torus:4x4"];
        args.extend(["--mode", "task", "--pattern", "all2all", "--phases", "2"]);
        args.extend(["--faults", "drop:100", "--shards", "2", "--shard-profile"]);
        args.extend(["--trace-out", trace, "--attribution", attr, "--metrics"]);
        let out = run(&s(&args)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let (head, profile) = out.split_once("\nSelf-profile: ").expect("a self-profile");
        for section in [
            "fault injection",
            "shard self-profile",
            "attribution written",
        ] {
            assert!(
                head.contains(section),
                "{section} missing before the profile: {out}"
            );
        }
        assert!(head.contains("engine/deliveries") || head.contains("net/messages"));
        let mut lines = profile.lines();
        assert!(lines.next().unwrap().contains(" timed in "), "{profile}");
        // The rest is the category table: no blank line, no other section.
        let categories = ["engine", "fault", "memory", "network", "queue"];
        for line in lines.filter(|l| l.chars().any(|c| c.is_ascii_lowercase())) {
            assert!(
                line.contains("category") || categories.iter().any(|c| line.contains(c)),
                "`{line}` follows the self-profile: {profile}"
            );
        }
        assert!(!profile.contains("\n\n"), "{profile}");
    }

    #[test]
    fn shard_profile_flag_needs_a_sharded_run() {
        let err = run(&s(&["sim", "--mode", "task", "--shard-profile"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = run(&s(&["analyze", "--shard-profile"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
    }

    #[test]
    fn sharded_analyze_with_shard_profile_reports_overheads() {
        let out = run(&s(&[
            "analyze",
            "--machine",
            "test",
            "--topology",
            "torus:2x2",
            "--phases",
            "2",
            "--shards",
            "3",
            "--shard-profile",
        ]))
        .unwrap();
        assert!(out.contains("shard self-profile"), "{out}");
        assert!(out.contains("barrier wait:"), "{out}");
        assert!(out.contains("ev/window"), "{out}");
    }

    #[test]
    fn speculate_flag_is_gone() {
        let err = run(&s(&[
            "sim",
            "--mode",
            "task",
            "--shards",
            "2",
            "--speculate",
            "on",
        ]))
        .unwrap_err();
        assert_eq!(err, "unknown flag `--speculate`");
        // The binary prints `usage()` under every error; it must not
        // advertise the flag either.
        assert!(!usage().contains("speculate"), "{}", usage());
    }

    #[test]
    fn campaign_dry_run_lists_the_expanded_grid() {
        let out = run(&s(&[
            "campaign",
            "topo = ring:4, mesh:2x2; pattern = ring, all2all; phases = 1; ops = 200",
            "--dry-run",
        ]))
        .unwrap();
        assert!(out.contains("4 run(s) expanded (dry run)"), "{out}");
        assert!(out.contains("campaign-v1"), "{out}");
        assert_eq!(out.lines().count(), 5, "{out}");
    }

    #[test]
    fn campaign_flag_errors_are_actionable() {
        let spec = "topo = ring:4; phases = 1; ops = 200";
        assert!(run(&s(&["campaign"])).unwrap_err().contains("spec"));
        let err = run(&s(&["campaign", spec])).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        let err = run(&s(&["campaign", spec, "--out", "x", "--jobs", "0"])).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let err = run(&s(&["campaign", spec, "--out", "x", "--limit", "junk"])).unwrap_err();
        assert!(err.contains("--limit"), "{err}");
        let err = run(&s(&["campaign", spec, "--out", "a", "--out", "b"])).unwrap_err();
        assert!(err.contains("duplicate flag"), "{err}");
        let err = run(&s(&["campaign", "topo = ring:4; frob = 1", "--dry-run"])).unwrap_err();
        assert!(err.contains("unknown campaign key"), "{err}");
    }

    #[test]
    fn campaign_runs_resume_and_report() {
        let dir = std::env::temp_dir().join(format!("mermaid-cli-campaign-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        let spec = "topo = ring:4, mesh:2x2; pattern = ring; phases = 1; ops = 200";
        let first = run(&s(&["campaign", spec, "--out", &dir_s])).unwrap();
        assert!(
            first.contains("2 run(s) expanded, 0 already recorded, 2 executed"),
            "{first}"
        );
        assert!(first.contains("Campaign comparison"), "{first}");
        // Re-running finds everything recorded and does no new work.
        let second = run(&s(&["campaign", spec, "--out", &dir_s])).unwrap();
        assert!(
            second.contains("2 run(s) expanded, 2 already recorded, 0 executed"),
            "{second}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_jobs_auto_respects_sharded_runs() {
        // `--jobs auto` resolves against the spec's shard axis, so a
        // campaign of 2-shard runs must still execute (with a capped
        // worker pool) rather than oversubscribe the host.
        let dir = std::env::temp_dir().join(format!("mermaid-cli-jobsauto-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        let spec = "topo = ring:4; pattern = ring; phases = 1; ops = 200; shards = 1, 2";
        let out = run(&s(&["campaign", spec, "--out", &dir_s, "--jobs", "auto"])).unwrap();
        assert!(
            out.contains("2 run(s) expanded, 0 already recorded, 2 executed"),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shards_run_direct_mode_and_reject_watch() {
        assert_eq!(direct("sim", &["--shards", "3"]), direct("sim", &[]));
        let err = run(&s(&["sim", "--mode", "task", "--shards", "2", "--watch"])).unwrap_err();
        assert!(
            err.contains("--watch") && err.contains("only at the end"),
            "{err}"
        );
    }

    #[test]
    fn sharded_simulate_output_matches_serial() {
        let base = s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "torus:2x2",
            "--mode",
            "task",
            "--phases",
            "2",
            "--pattern",
            "all2all",
        ]);
        let serial = run(&base).unwrap();
        let mut sharded_args = base.clone();
        sharded_args.extend(s(&["--shards", "3"]));
        let sharded = run(&sharded_args).unwrap();
        assert_eq!(serial, sharded);
    }

    #[test]
    fn opts_parse_flags() {
        let a = scan(
            Cmd::Sim,
            &s(&["--machine", "t805", "--seed", "7", "--watch"]),
        )
        .unwrap();
        assert_eq!(a.text("--machine"), Some("t805"));
        assert_eq!(a.num("--seed"), Some(7));
        assert!(a.has("--watch") && !a.has("--metrics"));
        assert!(scan(Cmd::Sim, &s(&["--bogus"])).is_err());
        assert!(scan(Cmd::Sim, &s(&["--seed"])).is_err());
    }

    #[test]
    fn duplicate_flags_are_rejected_not_last_wins() {
        // `--seed 1 --seed 2` used to silently run with seed 2.
        let scanned = |args: &[&str]| scan(Cmd::Sim, &s(args)).map(|_| ());
        let err = scanned(&["--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(err.contains("duplicate flag `--seed`"), "{err}");
        // Booleans too: `--watch --watch` is a scripting mistake.
        let err = scanned(&["--watch", "--watch"]).unwrap_err();
        assert!(err.contains("duplicate flag `--watch`"), "{err}");
        // Different flags still coexist.
        assert!(scanned(&["--seed", "1", "--phases", "2"]).is_ok());
        // End to end: the CLI surfaces the diagnostic.
        let err = run(&s(&["sim", "--machine", "test", "--machine", "test"])).unwrap_err();
        assert!(err.contains("duplicate flag"), "{err}");
    }

    #[test]
    fn degenerate_phases_and_ops_are_rejected() {
        // `--phases 0` / `--ops 0` used to produce empty workloads with a
        // meaningless zero-time prediction and no diagnostic.
        let err = parse_phases("--phases", "0").unwrap_err();
        assert!(err.contains("empty workload"), "{err}");
        let err = parse_ops("--ops", "0").unwrap_err();
        assert!(err.contains("empty workload"), "{err}");
        // Absurd values and garbage are bounded with actionable messages.
        assert!(parse_phases("--phases", "9999999999").is_err());
        assert!(parse_phases("--phases", "many").is_err());
        assert!(parse_ops("--ops", "99999999999999999999").is_err());
        assert!(parse_ops("--ops", "-5").is_err());
        // Boundaries stay valid.
        assert_eq!(parse_phases("--phases", "1").unwrap(), 1);
        let max = MAX_PHASES.to_string();
        assert_eq!(parse_phases("--phases", &max).unwrap(), MAX_PHASES.into());
        assert_eq!(parse_ops("--ops", "1").unwrap(), 1);
        assert_eq!(
            parse_ops("--ops", &MAX_OPS_PER_PHASE.to_string()).unwrap(),
            MAX_OPS_PER_PHASE
        );
        // End to end through the CLI.
        let err = run(&s(&["sim", "--machine", "test", "--phases", "0"])).unwrap_err();
        assert!(err.contains("--phases"), "{err}");
        let err = run(&s(&["sim", "--machine", "test", "--ops", "0"])).unwrap_err();
        assert!(err.contains("--ops"), "{err}");
    }

    /// Base args of a valid task-mode run for the checkpoint gating tests.
    fn task_args(extra: &[&str]) -> Vec<String> {
        let mut v = s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "1",
        ]);
        v.extend(s(extra));
        v
    }

    #[test]
    fn checkpoint_cadence_rejects_zero_and_junk() {
        let err = parse_checkpoint_cadence("--checkpoint-every", "0").unwrap_err();
        assert!(err.contains("--checkpoint-every"), "{err}");
        assert!(err.contains("continuously"), "{err}");
        let err = parse_checkpoint_cadence("--checkpoint", "soon").unwrap_err();
        assert!(err.contains("--checkpoint `soon`"), "{err}");
        assert_eq!(
            parse_checkpoint_cadence("--checkpoint-every", "500000").unwrap(),
            500_000
        );
        let err = run(&task_args(&[
            "--checkpoint-every",
            "0",
            "--checkpoint-dir",
            "x",
        ]))
        .unwrap_err();
        assert!(err.contains("--checkpoint-every"), "{err}");
    }

    #[test]
    fn checkpoint_flags_need_task_mode_and_each_other() {
        for args in [
            vec!["sim", "--mode", "detailed", "--restore", "x.snap"],
            vec![
                "sim",
                "--mode",
                "direct",
                "--checkpoint-every",
                "1000",
                "--checkpoint-dir",
                "d",
            ],
        ] {
            let err = run(&s(&args)).unwrap_err();
            assert!(err.contains("--mode task"), "{err}");
        }
        let err = run(&task_args(&["--checkpoint-every", "1000"])).unwrap_err();
        assert!(err.contains("go together"), "{err}");
        let err = run(&task_args(&["--checkpoint-dir", "d"])).unwrap_err();
        assert!(err.contains("go together"), "{err}");
        // `--watch` composes with a restore: the error is the missing file.
        let err = run(&task_args(&["--watch", "--restore", "x.snap"])).unwrap_err();
        assert!(err.contains("x.snap") && !err.contains("--watch"), "{err}");
    }

    #[test]
    fn restore_rejects_streaming_sinks_but_not_attribution() {
        let err = run(&task_args(&["--restore", "x.snap", "--metrics"])).unwrap_err();
        assert!(err.contains("after the checkpoint instant"), "{err}");
        let err = run(&task_args(&[
            "--restore",
            "x.snap",
            "--trace-out",
            "t.json",
        ]))
        .unwrap_err();
        assert!(err.contains("--attribution is"), "{err}");
        // --attribution passes the gate and fails later, on the missing
        // snapshot file — with the read error naming the path.
        let err = run(&task_args(&[
            "--restore",
            "/nonexistent-mermaid-dir/x.snap",
            "--attribution",
            "a.json",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot read snapshot"), "{err}");
        assert!(err.contains("/nonexistent-mermaid-dir/x.snap"), "{err}");
    }

    #[test]
    fn checkpoint_dir_errors_are_actionable() {
        let err = run(&task_args(&[
            "--checkpoint-every",
            "1000000",
            "--checkpoint-dir",
            "/nonexistent-mermaid-dir",
        ]))
        .unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        assert!(err.contains("create it first"), "{err}");
        assert!(err.contains("/nonexistent-mermaid-dir"), "{err}");
    }

    #[test]
    fn restoring_a_non_snapshot_file_is_refused() {
        let path =
            std::env::temp_dir().join(format!("mermaid-cli-junk-{}.snap", std::process::id()));
        std::fs::write(&path, "this is not a snapshot\n").unwrap();
        let err = run(&task_args(&["--restore", path.to_str().unwrap()])).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("not a mermaid snapshot"), "{err}");
        assert!(err.contains("mermaid-snapshot-v1"), "{err}");
    }

    #[test]
    fn restoring_under_different_run_parameters_names_both_hashes() {
        // Capture a real checkpoint, then restore it with a different
        // seed: the config-hash binding must refuse, naming both hashes.
        let dir = std::env::temp_dir().join(format!("mermaid-cli-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = run(&task_args(&[
            "--checkpoint-every",
            "200000",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("checkpoints written:"), "{out}");
        let snap = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "snap"))
            .expect("a checkpoint was written");
        let err = run(&task_args(&[
            "--seed",
            "2",
            "--restore",
            snap.to_str().unwrap(),
        ]))
        .unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.contains("snapshot field `config`"), "{err}");
        assert!(err.contains("captured under"), "{err}");
    }

    #[test]
    fn campaign_checkpoint_flag_is_validated() {
        let spec = "topo = ring:4; phases = 1; ops = 200";
        let err = run(&s(&["campaign", spec, "--out", "x", "--checkpoint", "0"])).unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
        let err = run(&s(&["campaign", spec, "--out", "x", "--checkpoint"])).unwrap_err();
        assert!(err.contains("missing value"), "{err}");
    }

    #[test]
    fn table1_subcommand_renders() {
        let out = run(&s(&["table1"])).unwrap();
        assert!(out.contains("Table 1"));
    }

    #[test]
    fn topo_subcommand_reports_shape() {
        let out = run(&s(&["topo", "torus:4x4"])).unwrap();
        assert!(out.contains("nodes:     16"));
        assert!(out.contains("diameter:  4"));
    }

    #[test]
    fn simulate_task_mode_works_end_to_end() {
        let out = run(&s(&[
            "simulate",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("predicted time"));
    }

    #[test]
    fn simulate_detailed_mode_works_end_to_end() {
        let out = run(&s(&[
            "simulate",
            "--machine",
            "test",
            "--topology",
            "ring:2",
            "--mode",
            "detailed",
            "--phases",
            "1",
            "--ops",
            "200",
        ]))
        .unwrap();
        assert!(out.contains("slowdown"));
    }

    #[test]
    fn sim_is_an_alias_for_simulate() {
        let out = run(&s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("predicted time"));
    }

    #[test]
    fn traced_run_writes_a_valid_chrome_trace_and_metrics() {
        let path = std::env::temp_dir().join("mermaid-cli-test-trace.json");
        let path_s = path.to_str().unwrap().to_string();
        let out = run(&s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "2",
            "--trace-out",
            &path_s,
            "--metrics",
        ]))
        .unwrap();
        assert!(out.contains("trace written"), "{out}");
        assert!(out.contains("engine/deliveries"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let summary = crate::probe::validate_chrome_trace(&json).unwrap();
        assert!(summary.delivered_messages.unwrap() > 0);
    }

    #[test]
    fn tracing_direct_mode_records_its_communication_model() {
        let dir = std::env::temp_dir().join(format!("mermaid-direct-sinks-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (trace, attr) = (dir.join("t.json"), dir.join("a.json"));
        let (trace, attr) = (trace.to_str().unwrap(), attr.to_str().unwrap());
        let out = direct(
            "sim",
            &["--trace-out", trace, "--metrics", "--attribution", attr],
        );
        assert_eq!(predicted(&out), predicted(&direct("sim", &[])));
        assert!(out.contains("engine/deliveries"), "{out}");
        let json = std::fs::read_to_string(trace).unwrap();
        let summary = crate::probe::validate_chrome_trace(&json).unwrap();
        assert!(summary.delivered_messages.unwrap() > 0);
        let attribution = std::fs::read_to_string(attr).unwrap();
        assert!(attribution.starts_with("{\"schema\":\"mermaid-attribution-v1\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn faults_flag_runs_in_direct_mode_and_composes_with_watch() {
        let faults = [
            "--faults",
            "link:0-1:2000:60000; drop:20000",
            "--fault-seed",
            "9",
        ];
        let serial = direct("sim", &faults);
        assert!(serial.contains("\nfault injection: "), "{serial}");
        assert_eq!(
            direct("sim", &[&faults[..], &["--shards", "3"]].concat()),
            serial
        );
        let out = run(&s(&[
            "sim", "--mode", "task", "--watch", "--faults", "drop:100",
        ]))
        .unwrap();
        assert!(out.contains("\nmessages over time: "), "{out}");
        assert!(out.contains("\nfault injection: "), "{out}");
        let err = run(&s(&["sim", "--mode", "task", "--fault-seed", "7"])).unwrap_err();
        assert!(err.contains("--fault-seed needs --faults"), "{err}");
    }

    #[test]
    fn bad_fault_specs_are_errors_not_panics() {
        for spec in [
            "frob:1",        // unknown clause
            "link:0-9:1000", // node out of range on ring:4
            "link:0-2:1000", // not a link on ring:4
            "link:0-1:5:4",  // heals before it fails
            "drop:2000000",  // rate above 1.0
        ] {
            let err = run(&s(&[
                "sim",
                "--machine",
                "test",
                "--topology",
                "ring:4",
                "--mode",
                "task",
                "--phases",
                "1",
                "--faults",
                spec,
            ]))
            .expect_err(&format!("`{spec}` should be rejected"));
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn faulty_task_run_reports_fault_injection() {
        // A permanent cut right next to node 0 on a small ring: traffic
        // crossing it fails over or times out, and the run must report it.
        let out = run(&s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "2",
            "--faults",
            "link:0-1:0",
        ]))
        .unwrap();
        assert!(out.contains("fault injection:"), "{out}");
        assert!(out.contains("predicted time"), "{out}");
    }

    #[test]
    fn faulty_runs_are_identical_serial_vs_sharded() {
        let base = s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "torus:2x2",
            "--mode",
            "task",
            "--phases",
            "2",
            "--pattern",
            "all2all",
            "--faults",
            "link:0-1:2000:400000; drop:20000",
            "--fault-seed",
            "9",
        ]);
        let serial = run(&base).unwrap();
        let mut sharded_args = base.clone();
        sharded_args.extend(s(&["--shards", "3"]));
        let sharded = run(&sharded_args).unwrap();
        assert_eq!(serial, sharded);
        assert!(serial.contains("fault injection:"), "{serial}");
    }

    #[test]
    fn fault_file_is_read_when_it_exists() {
        let path = std::env::temp_dir().join("mermaid-cli-test-faults.txt");
        std::fs::write(&path, "# scripted outage\nlink:0-1:1000:500000\n").unwrap();
        let out = run(&s(&[
            "sim",
            "--machine",
            "test",
            "--topology",
            "ring:4",
            "--mode",
            "task",
            "--phases",
            "1",
            "--faults",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("fault injection:"), "{out}");
        // The file travels as its canonical spec: same run as the inline one.
        let inline = task_args(&["--faults", "link:0-1:1000:500000"]);
        assert_eq!(out, run(&inline).unwrap());
    }
}
