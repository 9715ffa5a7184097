#!/usr/bin/env bash
# List every `pub fn` whose name appears nowhere outside its own file's
# test module: not in any other `.rs` file under crates/, src/, examples/
# or tests/, and not elsewhere in its own file above the first
# `#[cfg(test)]` at column 0 (the convention scripts/loc.sh uses). A
# mention in a doc comment counts as an appearance. The benchmark harness
# (crates/bench, a package outside the workspace) is not searched, so the
# items it alone holds are listed too. Names shared by several functions
# (`new`, `run`, ...) never list. Information for reviews, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates src examples tests -name '*.rs' -not -path '*/target/*' \
    -not -path 'crates/bench/*' -print0 | sort -z | xargs -0 awk '
FNR == 1 { in_test = 0 }
/^#\[cfg\(test\)\]/ { in_test = 1 }
{
    if (!in_test && match($0, /^[ \t]*pub (const |unsafe |async )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
        def = substr($0, RSTART, RLENGTH)
        sub(/.* fn /, "", def)
        defs[FILENAME SUBSEP def] = FNR
    }
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
        word = substr(line, RSTART, RLENGTH)
        total[word]++
        if (in_test) tests[FILENAME SUBSEP word]++
        line = substr(line, RSTART + RLENGTH)
    }
}
END {
    for (key in defs) {
        split(key, part, SUBSEP)
        if (total[part[2]] - tests[key] - 1 == 0)
            printf "%s:%d  %s\n", part[1], defs[key], part[2]
    }
}' | sort
