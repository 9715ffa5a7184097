#!/usr/bin/env bash
# Mutation table: does each test catch the bug it is there for?
#
# Every scripts/mutants/*.patch breaks the program on purpose. Its first
# lines name the bug and the test that should catch it:
#
#   # what: the partial batch is folded in reverse order
#   # test: cargo test --release --offline -p mermaid-probe --lib batches_fold
#   diff --git a/crates/probe/src/lib.rs b/crates/probe/src/lib.rs
#   ...
#
# The script copies the repository's files (tracked, and untracked ones
# not ignored) into a temporary directory once, runs every named test
# there unmutated (each must pass, or the table would mean nothing), then
# applies each patch in turn, runs its test, reverts the patch and prints
# one row: `caught` (the test failed), `MISSED` (it passed) or `stale`
# (the patch no longer applies). The working tree is never touched; the
# copy builds in its own target directory, removed at exit.
#
#   scripts/mutants.sh                          # every patch
#   scripts/mutants.sh scripts/mutants/x.patch  # some of them
#
# Exit status: 0 when every mutant is caught, 1 when one is missed or
# stale, 2 when a test fails unmutated. Needs git (for `git apply`).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

patches=("$@")
[ ${#patches[@]} -gt 0 ] || patches=(scripts/mutants/*.patch)
field() { sed -n "s/^# $1: //p" "$2" | head -1; }

work="$(mktemp -d -t mermaid-mutants.XXXXXX)"
trap 'rm -rf "$work"' EXIT
git ls-files -co --exclude-standard -z | tar --null -T - -cf - | tar -xf - -C "$work"
export CARGO_TARGET_DIR="$work/target"
cd "$work"

# Every distinct test, unmutated.
mapfile -t tests < <(for p in "${patches[@]}"; do field test "$root/$p"; done | sort -u)
for t in "${tests[@]}"; do
    if ! bash -c "$t" > "$work/baseline.log" 2>&1; then
        tail -20 "$work/baseline.log" >&2
        echo "mutants: fails without a mutation: $t" >&2
        exit 2
    fi
done

status=0
printf '| mutant | what it breaks | test | verdict |\n|---|---|---|---|\n'
for p in "${patches[@]}"; do
    patch="$root/$p"
    t=$(field test "$patch")
    if ! git apply "$patch" 2> /dev/null; then
        verdict=stale
    else
        if bash -c "$t" > "$work/mutant.log" 2>&1; then verdict=MISSED; else verdict=caught; fi
        git apply -R "$patch"
    fi
    [ "$verdict" = caught ] || status=1
    printf '| %s | %s | `%s` | %s |\n' "$(basename "$p" .patch)" "$(field what "$patch")" "$t" "$verdict"
done
exit $status
