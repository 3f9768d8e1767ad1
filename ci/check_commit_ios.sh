#!/usr/bin/env bash
# Pins the disk I/Os a commit costs, as the repository's one benchmark
# counts them.
#
# `disk_ios_per_op` comes from the benchmark's count pass — one client, a
# fixed number of ops, nothing concurrent — so it repeats exactly for a seed
# and an equality check is not flaky. The counts follow from one rule
# (DESIGN.md §10): data pages and inode installs are random writes; a journal
# is forced for a prepare vote only when the commit mark lives in another
# journal, and for the mark itself; truncations are lazy.
#
#   commit_local  3 = data page + commit-mark force + inode install
#   hot_records   3 = the same, through lock queueing and page differencing
#   commit_dist   7 = 2 x (data page + prepare force + inode install) + mark
#
# A change that adds a force to the commit path, or a compaction pass to the
# journal, moves one of these and fails here with the number it moved to.
set -euo pipefail

cd "$(dirname "$0")/.."

check() {
    local workload=$1 want=$2 line
    line=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    printf '%s' "$line" | python3 -c '
import json, sys
workload, want = sys.argv[1], float(sys.argv[2])
r = json.loads(sys.stdin.read())
got = r["metrics"]["disk_ios_per_op"]["value"]
if r["correct"] is not True or r["failed"] != 0:
    sys.exit("check_commit_ios: {}: correct={} failed={}".format(workload, r["correct"], r["failed"]))
if got != want:
    sys.exit("check_commit_ios: {}: disk_ios_per_op is {}, pinned at {:g}".format(workload, got, want))
print("check_commit_ios: {} disk_ios_per_op = {}".format(workload, got))
' "$workload" "$want"
}

check commit_local 3
check commit_dist 7
check hot_records 3
