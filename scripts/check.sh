#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 verification the roadmap
# requires (release build + root test suite). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> probe: the multi-batch golden holds with both threads on one core"
# The simulation thread hands full event batches to a sink thread; pinned
# to one core the two interleave their hand-offs differently, and every
# probe artefact must still be byte-identical.
if command -v taskset > /dev/null; then
    taskset -c 0 cargo test -q --test tooling_end_to_end multi_batch
fi

echo "==> member crates: unit and integration tests of every library crate"
# `cargo test` above tests only the root package; the event queue's own
# determinism oracle (pearl/tests/queue_order.rs), the network unit tests,
# the core library's unit tests (the campaign table's one-pass grouping
# against its quadratic oracle among them) and the CPU, memory, operation,
# generator, probe, statistics and DSM crates' own tests live in these
# member crates.
cargo test -q -p pearl -p mermaid-network -p mermaid -p mermaid-cpu -p mermaid-memory \
    -p mermaid-ops -p mermaid-tracegen -p mermaid-probe -p mermaid-stats -p mermaid-dsm

echo "==> example: quickstart (full pipeline)"
cargo run --release --example quickstart > /dev/null

echo "==> example: hybrid_cluster (SMP-node clusters) prints its golden table"
cargo run --release --example hybrid_cluster | diff -u tests/golden/hybrid_cluster.txt -

echo "==> example: traced_run (validates the emitted Chrome trace round-trips)"
cargo run --release --example traced_run > /dev/null

echo "==> cli: traced simulation emits parseable Chrome-trace JSON"
# The CLI checks its trace as it records it and never parses the file it
# wrote, so the gate does: traced_run, given a path, runs the parsing
# validator over it (and with --faulty demands fault events).
trace_file="$(mktemp -t mermaid-check-trace.XXXXXX.json)"
serial_out="$(mktemp -t mermaid-check-serial.XXXXXX.txt)"
sharded_out="$(mktemp -t mermaid-check-sharded.XXXXXX.txt)"
trap 'rm -f "$trace_file" "$serial_out" "$sharded_out"' EXIT
cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
    --topology mesh:2x2 --mode task --phases 2 --trace-out "$trace_file" --metrics > /dev/null
cargo run --release --example traced_run -- "$trace_file" > /dev/null
cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
    --topology mesh:2x2 --mode task --phases 2 --trace-out "$trace_file" \
    --faults "link:0-1:2000:60000; drop:20000" --fault-seed 9 > /dev/null
cargo run --release --example traced_run -- "$trace_file" --faulty > /dev/null

echo "==> bench harness: its own unit tests build against the public API"
# The harness is a package of its own, outside the workspace: a `pub` API
# break in a crate it links shows here, not at the next benchmark run.
cargo test -q --offline --manifest-path crates/bench/src/bin/mermaid-bench/Cargo.toml

echo "==> cli: sharded run is bit-identical to the serial run"
for mode in detailed direct task; do
    for spec in torus:4x4 ring:8; do
        # The detailed-mode slowdown figure is host wall-clock based and
        # legitimately varies run to run — compare everything else.
        cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
            --topology "$spec" --mode "$mode" --pattern all2all --phases 3 \
            --shards 1 | grep -v "slowdown" > "$serial_out"
        cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
            --topology "$spec" --mode "$mode" --pattern all2all --phases 3 \
            --shards 3 | grep -v "slowdown" > "$sharded_out"
        diff -u "$serial_out" "$sharded_out" \
            || { echo "sharded output diverged ($mode $spec)" >&2; exit 1; }
    done
done
# The test machine is cut-through; the T805 is store-and-forward, whose
# windows are sized by the smallest packet the run sends (520 B here).
for spec in torus:4x4 ring:8; do
    cargo run --release -p mermaid --bin mermaid-cli -- sim --machine t805 \
        --topology "$spec" --mode task --pattern all2all --phases 3 \
        --shards 1 > "$serial_out"
    cargo run --release -p mermaid --bin mermaid-cli -- sim --machine t805 \
        --topology "$spec" --mode task --pattern all2all --phases 3 \
        --shards 3 > "$sharded_out"
    diff -u "$serial_out" "$sharded_out" \
        || { echo "sharded output diverged (t805 $spec)" >&2; exit 1; }
done
cargo run --release -p mermaid --bin mermaid-cli -- sim --machine t805 \
    --topology torus:4x4 --mode task --pattern all2all --phases 3 \
    --shards 3 --shard-profile > "$sharded_out"
grep "^lookahead: .*smallest packet 520 B" "$sharded_out" > /dev/null \
    || { echo "t805 lookahead is not sized by the 520 B packet" >&2; exit 1; }

echo "==> cli: the t805 torus:16x16 all-to-all is bit-identical serial vs --shards 2"
# At this scale a rebase spreads a quarter of the far tier over the 64
# buckets, so each promoted bucket is a sorted run of thousands of
# records, with the side heap taking the pushes below its end. The
# sharded run must still print the serial run's stdout; its shard
# profile, appended after a blank line, is cut before the diff and
# supplies the event count. Wall times and ns/event are information.
big_cli="${CARGO_TARGET_DIR:-target}/release/mermaid-cli"
big=(sim --machine t805 --topology torus:16x16 --mode task --pattern all2all --phases 1 --seed 7)
t0=$(date +%s%N)
"$big_cli" "${big[@]}" > "$serial_out"
t1=$(date +%s%N)
"$big_cli" "${big[@]}" --shards 2 --shard-profile > "$sharded_out"
t2=$(date +%s%N)
big_events=$(awk '/^shard  windows/ { on = 1; next } on && NF == 9 { n += $3 } END { print n }' "$sharded_out")
sed '/^shard self-profile/,$d' "$sharded_out" | sed '$d' | diff -u "$serial_out" - \
    || { echo "sharded output diverged (t805 torus:16x16)" >&2; exit 1; }
echo "serial $(( (t1 - t0) / 1000000 )) ms, --shards 2 $(( (t2 - t1) / 1000000 )) ms;" \
    "$big_events events: $(( (t1 - t0) / big_events )) / $(( (t2 - t1) / big_events )) ns/event"

echo "==> cli: sim output matches the pre-migration golden snapshot"
# The checked-in snapshot predates the arena-world migration, so this diff
# is a literal before/after smoke test of the storage refactor: any drift
# in the simulated results shows up as a byte diff here.
for shards in 1 3; do
    cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
        --topology mesh:4x4 --mode task --phases 2 --pattern all2all \
        --seed 5 --shards "$shards" > "$serial_out"
    diff -u tests/golden/sim_task_healthy.txt "$serial_out" \
        || { echo "sim output drifted from golden snapshot (shards=$shards)" >&2; exit 1; }
done

echo "==> cli: detailed/direct output matches the pre-streaming golden snapshots"
# tests/golden/sim_{detailed,direct}.txt were written by the code that
# materialised every trace before simulating it. Each section starts with
# a `## <args>` line; replay those against the release binary and diff the
# whole document: pinned to one core (`available_parallelism` = 1, so the
# computational phase gets one worker), unrestricted (one worker per
# core), and on 3 shards.
cargo build --release -p mermaid
cli="${CARGO_TARGET_DIR:-target}/release/mermaid-cli"
replay_golden() { # <command prefix> <golden file> [extra args...]
    local pin="$1" golden="$2" args; shift 2
    grep '^## ' "$golden" | while read -r _ args; do
        echo "## $args"
        # shellcheck disable=SC2086  # $pin and $args are word lists by construction
        $pin "$cli" $args "$@" | grep -v '^slowdown '
    done
}
for pin in "taskset -c 0" ""; do
    replay_golden "$pin" tests/golden/sim_direct.txt > "$serial_out"
    diff -u tests/golden/sim_direct.txt "$serial_out" \
        || { echo "direct-mode output drifted from the golden snapshot (${pin:-all cores})" >&2; exit 1; }
    replay_golden "$pin" tests/golden/sim_detailed.txt > "$serial_out"
    diff -u tests/golden/sim_detailed.txt "$serial_out" \
        || { echo "detailed-mode output drifted from the golden snapshot (${pin:-all cores})" >&2; exit 1; }
done
for mode in direct detailed; do
    replay_golden "" "tests/golden/sim_$mode.txt" --shards 3 > "$serial_out"
    diff -u "tests/golden/sim_$mode.txt" "$serial_out" \
        || { echo "$mode-mode output drifted from the golden snapshot (shards=3)" >&2; exit 1; }
done

echo "==> cli: detailed mode fits in 128 MiB of address space"
# Traces are generated as they are simulated: this call held 214 MB
# resident when it materialised them first.
( ulimit -v 131072
  "$cli" sim --machine ppc601 --topology mesh:4x4 --pattern ring --phases 4 \
      --ops 100000 --mode detailed --seed 7 > /dev/null ) \
    || { echo "detailed mode no longer runs under ulimit -v 131072" >&2; exit 1; }

echo "==> cli: a host that refuses to start threads still finishes the run"
# No mmap can satisfy this stack size, so every worker spawn fails and the
# calling thread drains the queue alone (a panic here would exit 101).
for mode in detailed direct; do
    RUST_MIN_STACK=100000000000000 "$cli" sim --machine ppc601 --topology mesh:4x4 \
        --ops 2000 --mode "$mode" > /dev/null \
        || { echo "$mode mode needs its worker threads to start" >&2; exit 1; }
done

echo "==> bench harness: every workload reproduces its pinned seed-7 outputs"
# One short pass per workload. The harness exits non-zero unless each
# reproduces expected.json's fingerprint and operation count, and the
# sharded and restored runs print what the serial and straight-through
# runs print. Timings are not compared here.
bench_out="$(mktemp -t mermaid-check-bench.XXXXXX.json)"
trap 'rm -f "$trace_file" "$serial_out" "$sharded_out" "$bench_out"' EXIT
cargo run --release --offline --quiet \
    --manifest-path crates/bench/src/bin/mermaid-bench/Cargo.toml -- \
    --trace 0 --seconds 0.1 --out "$bench_out"
rm -f "$bench_out"

echo "==> example: paper_tables (every table of EXPERIMENTS.md, shapes asserted)"
cargo run --release --example paper_tables > /dev/null

echo "==> cli: faulty runs are bit-identical serial vs sharded"
# A scripted outage (link 0-1 down at 2 us, healed at 60 us) plus 2%
# transient loss: retries recover everything, and the sharded run must
# reproduce the serial output byte for byte.
for spec in "link:0-1:2000:60000; drop:20000" "link:15-11:0; link:15-14:0"; do
    cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
        --topology mesh:4x4 --mode task --pattern all2all --phases 2 \
        --faults "$spec" --fault-seed 9 --shards 1 > "$serial_out"
    cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
        --topology mesh:4x4 --mode task --pattern all2all --phases 2 \
        --faults "$spec" --fault-seed 9 --shards 3 > "$sharded_out"
    diff -u "$serial_out" "$sharded_out" \
        || { echo "faulty sharded output diverged ($spec)" >&2; exit 1; }
    grep -q "fault injection:" "$serial_out" \
        || { echo "fault summary missing from output ($spec)" >&2; exit 1; }
done
# The permanent corner partition must surface the degraded-mode report.
grep -q "Degraded mode:" "$serial_out" \
    || { echo "degraded-mode report missing for permanent partition" >&2; exit 1; }
# Faults make every run able to send a header-only arrival ack, so a
# store-and-forward machine falls back to the header-only lookahead.
cargo run --release -p mermaid --bin mermaid-cli -- sim --machine t805 \
    --topology mesh:4x4 --mode task --pattern all2all --phases 2 \
    --faults "link:0-1:2000:60000; drop:20000" --fault-seed 9 --shards 1 > "$serial_out"
cargo run --release -p mermaid --bin mermaid-cli -- sim --machine t805 \
    --topology mesh:4x4 --mode task --pattern all2all --phases 2 \
    --faults "link:0-1:2000:60000; drop:20000" --fault-seed 9 --shards 3 > "$sharded_out"
diff -u "$serial_out" "$sharded_out" \
    || { echo "faulty sharded output diverged (t805)" >&2; exit 1; }

echo "==> cli: bad fault specs fail cleanly (no panic)"
for spec in "frob:1" "link:0-99:1000" "drop:2000000"; do
    if cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
        --topology ring:4 --mode task --faults "$spec" > /dev/null 2>&1; then
        echo "fault spec $spec should have been rejected" >&2; exit 1
    fi
done

echo "==> cli: a pattern the topology cannot run fails cleanly (no panic)"
# Exit status 1 is the CLI's own error path; a panic exits with 101.
for mode in task detailed direct; do
    "$cli" sim --topology ring:6 --pattern butterfly --mode "$mode" > /dev/null 2>&1 && rc=0 || rc=$?
    [ "$rc" -eq 1 ] \
        || { echo "butterfly on ring:6 ($mode) should be a clean error, got exit $rc" >&2; exit 1; }
done
"$cli" campaign "topo = ring:6; pattern = butterfly" --dry-run > /dev/null 2>&1 && rc=0 || rc=$?
[ "$rc" -eq 1 ] \
    || { echo "campaign butterfly on ring:6 should be a clean error, got exit $rc" >&2; exit 1; }

echo "==> cli: a flag its subcommand does not take is an error, not ignored"
# Each of these exited 0 with the flag silently dropped. Exit status 1 is
# the CLI's own error path; 0 means ignored again, 101 a panic.
for args in "analyze --restore x.snap" "analyze --checkpoint-every 100" \
    "analyze --checkpoint-dir d" "sim --watch --shards 2" \
    "probe --faults frob:1 --restore nope" "topo ring:4 mesh:2x2"; do
    # shellcheck disable=SC2086  # $args is a word list by construction
    "$cli" $args > /dev/null 2>&1 && rc=0 || rc=$?
    [ "$rc" -eq 1 ] \
        || { echo "\`mermaid-cli $args\` should be a clean error, got exit $rc" >&2; exit 1; }
done

echo "==> cli: --watch samples detailed-mode runs too"
# The progress hook rides on the one run path, which detailed mode's
# communication phase shares; this combination used to be refused.
"$cli" sim --mode detailed --machine test --topology ring:4 --ops 300 --watch \
    > /dev/null 2> "$sharded_out" \
    || { echo "sim --mode detailed --watch failed" >&2; exit 1; }
grep -q "done=" "$sharded_out" \
    || { echo "sim --mode detailed --watch printed no progress line" >&2; exit 1; }

echo "==> cli: direct execution takes every option of the one run path"
# Direct execution is the static-cost node model in front of the same
# communication phase; each of these combinations used to be refused.
# Sharded stdout must equal serial stdout.
direct=(--machine test --topology mesh:4x4 --mode direct --pattern all2all --phases 2)
faults=(--faults "link:0-1:2000:60000; drop:20000" --fault-seed 9)
for cmd in analyze sim; do
    for extra in plain faulty; do
        args=("$cmd" "${direct[@]}")
        [ "$extra" = faulty ] && args+=("${faults[@]}")
        "$cli" "${args[@]}" --shards 1 > "$serial_out"
        "$cli" "${args[@]}" --shards 3 > "$sharded_out"
        diff -u "$serial_out" "$sharded_out" \
            || { echo "direct $cmd ($extra) diverged serial vs sharded" >&2; exit 1; }
    done
done
grep -q "fault injection:" "$serial_out" \
    || { echo "direct-mode fault summary missing" >&2; exit 1; }
"$cli" sim "${direct[@]}" --watch > "$serial_out" 2> "$sharded_out"
grep -q "^messages over time: " "$serial_out" \
    || { echo "sim --mode direct --watch printed no sparkline" >&2; exit 1; }
grep -q "done=" "$sharded_out" \
    || { echo "sim --mode direct --watch printed no progress line" >&2; exit 1; }
"$cli" sim "${direct[@]}" --trace-out "$trace_file" --metrics \
    --attribution "$serial_out.attr" > /dev/null
rm -f "$serial_out.attr"
cargo run --release --example traced_run -- "$trace_file" > /dev/null
direct_campaign="$(mktemp -d -t mermaid-check-direct.XXXXXX)"
"$cli" campaign "topo = mesh:2x2; machine = test; phases = 2; ops = 300; mode = direct" \
    --out "$direct_campaign" 2> /dev/null > "$serial_out"
rm -rf "$direct_campaign"
grep -q "1 run(s) expanded, 0 already recorded, 1 executed" "$serial_out" \
    || { echo "campaign with mode = direct did not run" >&2; exit 1; }

echo "==> cli: invalid topology specs fail cleanly (no panic)"
for spec in ring:1 mesh:0x4 hypercube:21 mesh:100000x100000; do
    if cargo run --release -p mermaid --bin mermaid-cli -- topo "$spec" > /dev/null 2>&1; then
        echo "spec $spec should have been rejected" >&2; exit 1
    fi
done

echo "==> cli: attribution JSON is byte-identical serial vs sharded"
attr_serial="$(mktemp -t mermaid-check-attr-serial.XXXXXX.json)"
attr_sharded="$(mktemp -t mermaid-check-attr-sharded.XXXXXX.json)"
trap 'rm -f "$trace_file" "$serial_out" "$sharded_out" "$attr_serial" "$attr_sharded"' EXIT
cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
    --topology torus:4x4 --mode task --pattern all2all --phases 2 \
    --attribution "$attr_serial" --shards 1 > /dev/null
cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
    --topology torus:4x4 --mode task --pattern all2all --phases 2 \
    --attribution "$attr_sharded" --shards 3 > /dev/null
diff "$attr_serial" "$attr_sharded" \
    || { echo "attribution JSON diverged serial vs sharded" >&2; exit 1; }
grep -q '"schema":"mermaid-attribution-v1"' "$attr_serial" \
    || { echo "attribution JSON missing schema tag" >&2; exit 1; }

echo "==> cli: analyze renders the attribution report"
cargo run --release -p mermaid --bin mermaid-cli -- analyze --machine test \
    --topology torus:4x4 --pattern all2all --phases 2 > "$serial_out"
for want in "Latency decomposition" "Hottest links" "Hottest routers" "heatmap"; do
    grep -q "$want" "$serial_out" \
        || { echo "analyze report missing '$want'" >&2; cat "$serial_out" >&2; exit 1; }
done

echo "==> cli: bad attribution flags fail cleanly (no panic)"
# analyze owns the report (sim-only flags rejected); --shard-profile needs
# a sharded run; writes into a missing directory name the path and cause.
if cargo run --release -p mermaid --bin mermaid-cli -- analyze --machine test \
    --topology ring:4 --metrics > /dev/null 2>&1; then
    echo "analyze --metrics should have been rejected" >&2; exit 1
fi
if cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
    --topology ring:4 --mode task --shard-profile > /dev/null 2>&1; then
    echo "--shard-profile without --shards should have been rejected" >&2; exit 1
fi
if cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
    --topology ring:4 --mode task \
    --attribution /nonexistent-mermaid-dir/attr.json > /dev/null 2>&1; then
    echo "missing output directory should have been rejected" >&2; exit 1
fi

echo "==> cli: campaign smoke (run, resume, golden CSV and report)"
# A tiny 3-topology x 2-pattern grid: 6 runs. The first invocation records
# all of them; the second must find everything recorded and do zero new
# work (the resume contract); the CSV view and the resumed report (less
# its two path lines) are pinned to golden snapshots
# (BLESS=1 cargo test --test campaign_end_to_end regenerates them).
campaign_dir="$(mktemp -d -t mermaid-check-campaign.XXXXXX)"
campaign_out="$(mktemp -t mermaid-check-campaign-out.XXXXXX.txt)"
trap 'rm -f "$trace_file" "$serial_out" "$sharded_out" "$attr_serial" "$attr_sharded" "$campaign_out"; rm -rf "$campaign_dir"' EXIT
campaign_spec="topo = ring:4, mesh:2x2, torus:2x2; pattern = ring, all2all; machine = test; phases = 2; ops = 500; seed = 5"
cargo run --release -p mermaid --bin mermaid-cli -- campaign "$campaign_spec" \
    --out "$campaign_dir" --jobs 2 2> /dev/null > "$campaign_out"
grep -q "6 run(s) expanded, 0 already recorded, 6 executed" "$campaign_out" \
    || { echo "campaign did not execute the full grid" >&2; cat "$campaign_out" >&2; exit 1; }
[ "$(wc -l < "$campaign_dir/runs.jsonl")" -eq 6 ] \
    || { echo "expected 6 JSONL records" >&2; exit 1; }
cargo run --release -p mermaid --bin mermaid-cli -- campaign "$campaign_spec" \
    --out "$campaign_dir" --jobs 2 2> /dev/null > "$campaign_out"
grep -q "6 run(s) expanded, 6 already recorded, 0 executed" "$campaign_out" \
    || { echo "campaign resume re-ran recorded work" >&2; cat "$campaign_out" >&2; exit 1; }
diff -u tests/golden/campaign_summary.csv "$campaign_dir/summary.csv" \
    || { echo "campaign CSV diverged from the golden snapshot" >&2; exit 1; }
grep -v -e '^records: ' -e '^csv: ' "$campaign_out" | diff -u tests/golden/campaign_report.txt - \
    || { echo "campaign report diverged from the golden snapshot" >&2; exit 1; }

echo "==> cli: checkpoint/restore reproduces the uninterrupted run"
# Capture a run at a 200 ns cadence, then restore its middle checkpoint
# both serially and on 3 shards: each restored output must be byte-
# identical to the straight-through run (restored runs intentionally
# print no banner so this diff IS the conformance check). Serial and
# sharded captures must also write byte-identical snapshot files.
ckpt_serial_dir="$(mktemp -d -t mermaid-check-ckpt1.XXXXXX)"
ckpt_sharded_dir="$(mktemp -d -t mermaid-check-ckpt3.XXXXXX)"
trap 'rm -f "$trace_file" "$serial_out" "$sharded_out" "$attr_serial" "$attr_sharded" "$campaign_out"; rm -rf "$campaign_dir" "$ckpt_serial_dir" "$ckpt_sharded_dir"' EXIT
ckpt_args=(sim --machine test --topology torus:4x4 --mode task --pattern all2all --phases 2)
cargo run --release -p mermaid --bin mermaid-cli -- "${ckpt_args[@]}" > "$serial_out"
cargo run --release -p mermaid --bin mermaid-cli -- "${ckpt_args[@]}" \
    --checkpoint-every 200000 --checkpoint-dir "$ckpt_serial_dir" > /dev/null
cargo run --release -p mermaid --bin mermaid-cli -- "${ckpt_args[@]}" --shards 3 \
    --checkpoint-every 200000 --checkpoint-dir "$ckpt_sharded_dir" > /dev/null
diff -r "$ckpt_serial_dir" "$ckpt_sharded_dir" \
    || { echo "serial and sharded captures wrote different snapshot files" >&2; exit 1; }
snaps=("$ckpt_serial_dir"/ckpt-*.snap)
mid="${snaps[$(( ${#snaps[@]} / 2 ))]}"
for shards in 1 3; do
    cargo run --release -p mermaid --bin mermaid-cli -- "${ckpt_args[@]}" \
        --restore "$mid" --shards "$shards" > "$sharded_out"
    diff -u "$serial_out" "$sharded_out" \
        || { echo "restored run diverged from straight-through (shards=$shards)" >&2; exit 1; }
done

echo "==> cli: a restored --watch run prints the tail of the uninterrupted run's progress"
# Samples fall at absolute multiples of the event count, so the restored
# run's stderr is the uninterrupted run's last lines, nothing else.
"$cli" "${ckpt_args[@]}" --watch 2> "$serial_out" > /dev/null
"$cli" "${ckpt_args[@]}" --watch --restore "$mid" 2> "$sharded_out" > /dev/null
restored_lines=$(wc -l < "$sharded_out")
[ "$restored_lines" -gt 0 ] && [ "$restored_lines" -lt "$(wc -l < "$serial_out")" ] \
    || { echo "restored --watch printed $restored_lines progress line(s)" >&2; exit 1; }
tail -n "$restored_lines" "$serial_out" | diff -u - "$sharded_out" \
    || { echo "restored --watch stderr is not the tail of the uninterrupted run's" >&2; exit 1; }

echo "==> cli: damaged or mismatched snapshots fail cleanly (no panic)"
head -c 40 "$mid" > "$ckpt_serial_dir/torn.snap"
if cargo run --release -p mermaid --bin mermaid-cli -- "${ckpt_args[@]}" \
    --restore "$ckpt_serial_dir/torn.snap" > /dev/null 2>&1; then
    echo "a torn snapshot should have been refused" >&2; exit 1
fi
if cargo run --release -p mermaid --bin mermaid-cli -- "${ckpt_args[@]}" --seed 2 \
    --restore "$mid" > /dev/null 2>&1; then
    echo "a snapshot from different run parameters should have been refused" >&2; exit 1
fi

echo "==> cli: a malformed snapshot record fails cleanly at every shard count (no panic, no hang)"
# Damage one record of the middle checkpoint and recompute the header's
# FNV-1a-64 body hash, so only the per-record checks can refuse the file:
# `router` drops the last integer of the first router record; `early`
# moves the first event before the snapshot instant; `dst` and `src`
# address it to component 99, outside the machine; `payload` turns it
# into a processor's resume sent to router 0; `retry` into a retry check
# sent to processor 0 of this healthy run. Exit 1 is the CLI's error
# path; 101 is a panic; 124 is the watchdog (the sharded restore used to
# panic in one shard and leave the others waiting for it, and an early
# event, a payload its destination does not take or a retry check
# without faults hung it the same way).
tamper() { # <mode> <output file>
python3 - "$mid" "$2" "$1" <<'PY'
import sys
src, out, mode = sys.argv[1:]
head, body = open(src).read().split("\n", 1)
lines = body.split("\n")
tag = "router " if mode == "router" else "event "
i = next(i for i, line in enumerate(lines) if line.startswith(tag))
f = lines[i].split(" ")
if mode == "router":
    f.pop()
elif mode == "early":
    f[1] = str(int(next(h for h in head.split(" ") if h.startswith("time="))[5:]) - 1)
elif mode == "payload":
    f = f[:6] + ["0", "0"]
elif mode == "retry":
    f = f[:6] + [next(h for h in head.split(" ") if h.startswith("nodes="))[6:], "8", "0", "0"]
else:
    f[{"src": 5, "dst": 6}[mode]] = "99"
lines[i] = " ".join(f)
body = "\n".join(lines)
h = 0xCBF29CE484222325
for byte in body.encode():
    h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
head = " ".join(f"body={h:016x}" if f.startswith("body=") else f for f in head.split(" "))
open(out, "w").write(head + "\n" + body)
PY
}
restore_bad() { # <snapshot> <shards> <expected error>
    timeout 20 "$cli" "${ckpt_args[@]}" --restore "$1" --shards "$2" \
        > /dev/null 2> "$sharded_out" && rc=0 || rc=$?
    [ "$rc" -eq 1 ] \
        || { echo "$1 on $2 shard(s) should be a clean error, got exit $rc" >&2; exit 1; }
    grep -q "$3" "$sharded_out" \
        || { echo "$1 on $2 shard(s) did not name the bad record" >&2; cat "$sharded_out" >&2; exit 1; }
}
tamper router "$ckpt_serial_dir/bad.snap"
for shards in 1 2 3; do
    restore_bad "$ckpt_serial_dir/bad.snap" "$shards" "corrupt snapshot (router 0 record)"
done
for mode in early dst src payload retry; do
    tamper "$mode" "$ckpt_serial_dir/bad-$mode.snap"
    for shards in 1 2; do
        restore_bad "$ckpt_serial_dir/bad-$mode.snap" "$shards" "corrupt snapshot (line "
    done
done

echo "==> tooling: hostprof.sh resolves a short sim's samples to functions"
if command -v gcc > /dev/null; then
    scripts/hostprof.sh -n 3 sim --machine t805 --topology torus:8x8 --mode task \
        --pattern all2all --phases 2 > "$serial_out"
    grep -qE "(pearl|mermaid_network)::" "$serial_out" \
        || { echo "hostprof.sh resolved no pearl or network function" >&2; cat "$serial_out" >&2; exit 1; }
else
    echo "gcc not found: skipping the hostprof.sh smoke run"
fi

echo "==> info: peak RSS of the checkpointing faulty 8x8 call (scripts/peak_rss.sh; not a gate)"
# The benchmark's task_faulty_ckpt call: 23 snapshots written straight
# from the event queue.
if command -v gcc > /dev/null; then
    rss_ckpt_dir="$(mktemp -d -t mermaid-check-rss.XXXXXX)"
    scripts/peak_rss.sh sim --machine t805 --topology torus:8x8 --pattern all2all \
        --phases 7 --mode task --seed 7 \
        --faults "drop:2000;corrupt:500;timeout:400000000;cap:3200000000;recv-timeout:20000000000" \
        --fault-seed 3 --checkpoint-every 1000000000000 --checkpoint-dir "$rss_ckpt_dir"
    rm -rf "$rss_ckpt_dir"
else
    echo "gcc not found: skipping the peak_rss.sh information step"
fi

echo "==> mutants: every scripts/mutants/*.patch is caught by the test it names (MUTANTS=1)"
# Builds a copy of the repository and runs one test per patch: minutes,
# so it runs only on request.
if [ "${MUTANTS:-}" = 1 ]; then
    scripts/mutants.sh
else
    echo "MUTANTS=1 not set: skipping scripts/mutants.sh"
fi

echo "==> info: non-test library lines per crate (scripts/loc.sh; not a gate)"
scripts/loc.sh

echo "==> info: pub fns with no use outside their own file's tests (scripts/unused_pub.sh; not a gate)"
scripts/unused_pub.sh

echo "All checks passed."
