#!/usr/bin/env bash
# Non-test library lines per crate: every line of each `crates/*/src/**/*.rs`
# (binaries under `src/bin/` aside) up to, not including, the file's first
# `#[cfg(test)]` at column 0 — blank lines and comments count, test modules
# and `tests/` do not. Pass `-v` for the per-file breakdown. Information for
# reviews, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

verbose=0
[ "${1:-}" = "-v" ] && verbose=1

total=0
for src in crates/*/src; do
    crate_total=0
    while IFS= read -r file; do
        n=$(awk '/^#\[cfg\(test\)\]/{exit} {c++} END{print c+0}' "$file")
        crate_total=$((crate_total + n))
        if [ "$verbose" -eq 1 ]; then printf '  %6d  %s\n' "$n" "$file"; fi
    done < <(find "$src" -name '*.rs' -not -path '*/bin/*' | sort)
    printf '%6d  %s\n' "$crate_total" "$src"
    total=$((total + crate_total))
done
printf '%6d  total\n' "$total"
