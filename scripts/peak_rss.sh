#!/usr/bin/env bash
# Peak resident set size of one mermaid-cli call, for hosts without
# /usr/bin/time: a small C wrapper forks the call, reaps it with wait4 and
# prints the child's ru_maxrss. The call's stdout is discarded (its stderr
# is not); its exit status is this script's.
#
#   scripts/peak_rss.sh sim --machine t805 --topology torus:8x8 --mode task \
#       --pattern all2all --phases 7 --faults drop:2000 --checkpoint-every \
#       1000000000000 --checkpoint-dir /tmp/ck
#
# Needs gcc. Measures the CLI as built by `cargo build --release -p
# mermaid`. The number is the kernel's high-water mark of the process's
# resident pages, in MB (2^20 bytes) — what the benchmark harness reads as
# `peak_rss_mb`, but for a single call in a fresh process.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v gcc > /dev/null || { echo "peak_rss: gcc not found" >&2; exit 1; }
cargo build --release --quiet -p mermaid
exe="$(readlink -f "${CARGO_TARGET_DIR:-target}/release/mermaid-cli")"
work="$(mktemp -d -t mermaid-peak-rss.XXXXXX)"
trap 'rm -rf "$work"' EXIT

cat > "$work/peak.c" <<'C'
#include <fcntl.h>
#include <stdio.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

int main(int argc, char **argv) {
    (void)argc;
    pid_t pid = fork();
    if (pid < 0) { perror("peak_rss: fork"); return 1; }
    if (pid == 0) {
        int null = open("/dev/null", O_WRONLY);
        if (null < 0 || dup2(null, 1) < 0) { perror("peak_rss: /dev/null"); _exit(127); }
        execv(argv[1], argv + 1);
        perror("peak_rss: exec");
        _exit(127);
    }
    int status;
    struct rusage usage;
    if (wait4(pid, &status, 0, &usage) < 0) { perror("peak_rss: wait4"); return 1; }
    printf("peak RSS: %.2f MB\n", usage.ru_maxrss / 1024.0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
C
gcc -O2 -o "$work/peak" "$work/peak.c"
"$work/peak" "$exe" "$@"
