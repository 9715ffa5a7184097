#!/usr/bin/env bash
# Where does one mermaid-cli call spend its host CPU time? A sampling
# profile for hosts without perf or valgrind: an LD_PRELOAD sampler takes
# the interrupted instruction pointer on every SIGPROF and saves it with
# /proc/self/maps and the process CPU time (CLOCK_PROCESS_CPUTIME_ID) at
# exit; addr2line then resolves each sample against the binary's PIE load
# base, inline frames included. The timer asks for a sample per 1 ms of
# process CPU time, but the kernel delivers them at its tick (about 4 ms
# on a 250 Hz kernel), so the header prints the period measured from the
# CPU time and the sample count.
# Prints the top innermost functions (the inlined leaf the CPU was in) and
# the top outermost ones (the symbol that leaf was inlined into). Samples
# outside the binary count as their library ([libc.so.6], ...).
#
#   scripts/hostprof.sh [-n RUNS] [-c DIR] sim --machine t805 --topology torus:8x8 \
#       --pattern all2all --phases 16 --mode task --seed 7
#
# `-n RUNS` (default 1) repeats the call and sums the samples of every
# run. `-c DIR` removes DIR before each run. A call that leaves state
# behind needs it: with `-n 3` and `campaign --out D`, runs 2 and 3 would
# otherwise be no-op resumes of run 1's campaign, and their samples would
# be summed into the profile of a fresh one. The other arguments are
# mermaid-cli's; its stdout is discarded.
# Needs gcc and addr2line. The release profile keeps debug info, so the
# CLI is profiled as built by `cargo build --release -p mermaid`.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=1 clean=
while true; do
    case "${1:-}" in
        -n) runs="$2"; shift 2 ;;
        -c) clean="$2"; shift 2 ;;
        *) break ;;
    esac
done

command -v gcc > /dev/null || { echo "hostprof: gcc not found" >&2; exit 1; }
command -v addr2line > /dev/null || { echo "hostprof: addr2line not found" >&2; exit 1; }
cargo build --release --quiet -p mermaid
exe="$(readlink -f "${CARGO_TARGET_DIR:-target}/release/mermaid-cli")"
work="$(mktemp -d -t mermaid-hostprof.XXXXXX)"
trap 'rm -rf "$work"' EXIT

cat > "$work/sampler.c" <<'C'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long ips[MAX_SAMPLES];
static unsigned long taken;
static struct timespec cpu_start;

static long long cpu_ns(void) {
    struct timespec now;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return (now.tv_sec - cpu_start.tv_sec) * 1000000000LL + (now.tv_nsec - cpu_start.tv_nsec);
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig; (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) ips[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu_start);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    long long cpu = cpu_ns();
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
    fclose(maps);
    fprintf(out, "cpu_ns %lld\n", cpu);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++) fprintf(out, "ip %lx\n", ips[i]);
    fclose(out);
}
C
gcc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"

: > "$work/exe_samples" > "$work/lib_samples"
total=0 cpu_ns=0
for run in $(seq "$runs"); do
    [ -z "$clean" ] || rm -rf "$clean"
    HOSTPROF_OUT="$work/raw" LD_PRELOAD="$work/sampler.so" "$exe" "$@" > /dev/null
    [ -s "$work/raw" ] || { echo "hostprof: the sampler wrote nothing (run $run)" >&2; exit 1; }
    total=$((total + $(grep -c '^ip ' "$work/raw" || true)))
    cpu_ns=$((cpu_ns + $(grep '^cpu_ns ' "$work/raw" | cut -d' ' -f2)))

    # Executable mappings as decimal [lo, hi) ranges. The binary's load
    # base is the start of its first mapping (file offset 0).
    lo=() hi=() name=() base=
    while read -r _ range perms _ _ _ path; do
        [ "${path:-}" = "$exe" ] && [ -z "$base" ] && base=$((0x${range%-*}))
        [[ $perms == *x* ]] || continue
        lo+=($((0x${range%-*}))) hi+=($((0x${range#*-}))) name+=("${path:-[anon]}")
    done < <(grep '^map ' "$work/raw")
    [ -n "$base" ] || { echo "hostprof: $exe is not in the process's maps" >&2; exit 1; }

    # Per distinct sampled address: its count, then either a hex offset
    # into the binary (resolved below) or the library's name.
    while read -r count ip; do
        ip=$((0x$ip)) where="[unmapped]"
        for i in "${!lo[@]}"; do
            if [ "$ip" -ge "${lo[i]}" ] && [ "$ip" -lt "${hi[i]}" ]; then where="${name[i]}"; break; fi
        done
        if [ "$where" = "$exe" ]; then
            printf '%s %x\n' "$count" $((ip - base)) >> "$work/exe_samples"
        else
            echo "$count [${where##*/}]" >> "$work/lib_samples"
        fi
    done < <(grep '^ip ' "$work/raw" | cut -d' ' -f2 | sort | uniq -c)
done

# Sum the runs per offset, then resolve each offset once: addr2line -a -f
# -i prints the address, then (function, file:line) per frame from the
# innermost inlined one out to the real symbol.
awk '{ sum[$2] += $1 } END { for (a in sum) print sum[a], a }' "$work/exe_samples" > "$work/in_exe"
cut -d' ' -f2 "$work/in_exe" | addr2line -a -f -i -C -e "$exe" > "$work/frames"
: > "$work/inner" > "$work/outer"
awk -v inner="$work/inner" -v outer="$work/outer" '
    FILENAME == ARGV[1] { count[FNR] = $1; next }
    FILENAME == ARGV[2] { print $1, substr($0, length($1) + 2) > inner
                          print $1, substr($0, length($1) + 2) > outer; next }
    /^0x[0-9a-f]+$/ { if (k) print count[k], last > outer
                      k++; frame = 0; next }
    { frame++ }
    frame % 2 == 1 { if (frame == 1) print count[k], $0 > inner; last = $0 }
    END { if (k) print count[k], last > outer }
' "$work/in_exe" "$work/lib_samples" "$work/frames"

awk -v n="$total" -v ns="$cpu_ns" -v runs="$runs" -v cmd="$*" 'BEGIN {
    printf "%d samples over %.2f s of CPU (~%.1f ms each) in %d run(s) of: mermaid-cli %s\n",
        n, ns / 1e9, n ? ns / 1e6 / n : 0, runs, cmd
}'
for table in inner outer; do
    [ "$table" = inner ] && echo "-- innermost function (inlined leaf)" \
        || echo "-- outermost function (symbol)"
    awk '{ c = $1; $1 = ""; sum[substr($0, 2)] += c } END { for (f in sum) print sum[f], f }' \
        "$work/$table" | sort -rn \
        | awk -v total="$total" 'NR <= 20 { c = $1; $1 = ""; printf "%6.1f%% %7d %s\n", 100 * c / total, c, substr($0, 2) }'
done
