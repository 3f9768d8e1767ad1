#!/usr/bin/env bash
# Print the size of the program code: the measure ROADMAP's budget is kept in.
#
# Program code is every `.rs` file under crates/*/src and the root package's
# src/, each cut at its first `#[cfg(test)]` (the unit tests that follow are
# not program code), with files named tests.rs left out. Prints one line per
# crate (the root package as `src`), then the total.
#
# A report, not a gate: it never fails on the number.
set -euo pipefail

cd "$(dirname "$0")/.."

# Lines of one file up to its first `#[cfg(test)]`.
program_lines() {
    awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

total=0
for dir in crates/*/src src; do
    count=0
    for file in $(find "$dir" -name '*.rs' -not -name tests.rs | sort); do
        count=$((count + $(program_lines "$file")))
    done
    name=${dir%/src}
    printf '%-16s %6d\n' "${name#crates/}" "$count"
    total=$((total + count))
done
printf '%-16s %6d\n' total "$total"
