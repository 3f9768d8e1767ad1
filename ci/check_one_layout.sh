#!/usr/bin/env bash
# Guard "every byte layout is stated once".
#
# How a shared structure looks as bytes is a `Wire` impl in
# crates/types/src/codec.rs, and every message, journal frame, inode, process
# record and lock-list image is a composition of those (DESIGN.md, "Byte
# layouts"). Before PR 18 each boundary spelled the ids and ranges it moved by
# hand, twice — 149 lines in seven files built an id or a range straight from
# a cursor, or wrote one field by field — and the copies had drifted. This
# check fails CI when such a line comes back anywhere under crates/ outside
# codec.rs, test modules (everything from a file's first `#[cfg(test)]`) and
# tests/ directories.
#
# It sees spelling, not meaning: a layout restated through some other helper
# (a local `fn read_fid`, `u32::from_le_bytes` on a slice, a new macro) passes
# here and has to be found in review. The golden vectors (`layouts_are_pinned`
# in types, net, fs, proc and locks) are what catch a byte that moves.
set -euo pipefail

cd "$(dirname "$0")/.."

pattern='(VolumeId|InodeNo|SiteId|Pid|PageNo|PhysPage|Channel)\(d\.u(32|64)\(\)\?\)|ByteRange::new\(d\.u64|e\.u(32|64)\([a-z_.*&]*\.(0|seq|start|len)\)'

hits=$(find crates -name '*.rs' -not -path '*/tests/*' -not -path crates/types/src/codec.rs -print0 |
    sort -z |
    xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { print FILENAME ":" FNR ":" $0 }
    ' | grep -E "$pattern" || true)

if [ -n "$hits" ]; then
    echo "$hits" >&2
    echo "check_one_layout: $(echo "$hits" | wc -l) line(s) spell a shared type's bytes by hand;" >&2
    echo "compose its Wire impl instead (crates/types/src/codec.rs)." >&2
    exit 1
fi
echo "check_one_layout: OK"
