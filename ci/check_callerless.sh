#!/usr/bin/env bash
# Guard against public functions nobody calls.
#
# `rustc` stops warning about dead code at `pub`: a public function of a
# workspace crate may always have a caller somewhere else, so seven of them
# (and a whole module of workload generators) sat for twenty PRs with none.
# This check fails CI on any `pub fn` in program code under crates/*/src —
# each file cut at its first `#[cfg(test)]`, files named tests.rs skipped —
# whose name occurs nowhere in crates/, src/, tests/, examples/ or
# benchmark/ except at an `fn` that defines it.
#
# It sees names, not meaning: a mention in a comment, or a call to another
# type's method of the same name, counts as a use, and a function reached
# only from its own unit tests passes. `LockCache::drop_file` had no caller
# for several PRs and passed, because `PageCache::drop_file` has callers.
# What it reports is certainly dead; what it passes still has to be read.
set -euo pipefail

cd "$(dirname "$0")/.."

# Every identifier in the tree that is not the name in an `fn` definition.
used=$(mktemp)
trap 'rm -f "$used"' EXIT
find crates src tests examples benchmark -name '*.rs' -not -path '*/target/*' -print0 |
    xargs -0 cat |
    sed -E 's/\bfn +[A-Za-z_][A-Za-z0-9_]*//g' |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u > "$used"

fail=0
for file in $(find crates/*/src -name '*.rs' -not -name tests.rs | sort); do
    names=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' "$file" |
        sed -nE 's/^\s*pub +((const|unsafe) +)*fn +([A-Za-z_][A-Za-z0-9_]*).*/\3/p' | sort -u)
    for name in $names; do
        if ! grep -qx "$name" "$used"; then
            echo "CALLERLESS: $file: pub fn $name" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "error: public functions with no caller (delete them or call them)" >&2
    exit 1
fi
echo "check_callerless: every pub fn under crates/*/src is named somewhere else"
