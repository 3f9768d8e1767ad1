#!/usr/bin/env bash
# Pins the disk I/Os and the modeled time a commit costs, and the log-force,
# message and page-cache counts under them, as the repository's one benchmark
# counts them — and that nothing under crates/core/src starts a thread.
#
# `disk_ios_per_op` comes from the benchmark's count pass — one client, a
# fixed number of ops, nothing concurrent — so it repeats exactly for a seed
# and an equality check is not flaky. The counts follow from one rule
# (DESIGN.md §10): a record is forced before something irrevocable happens
# on its strength in another log's domain, and otherwise rides the next
# force of its own log. Data pages are random writes; a journal is forced
# for a prepare vote only when the commit mark lives in another journal, and
# for the mark itself — and a requester that holds none of the files forces
# no mark: its storage sites' durable yes votes are the commit point. A
# transaction's install is a record too, the file's whole inode, and is
# never forced on its own: it rides its journal's next force, and a
# phase-two ack is sent only once it has landed (or rides a journal that
# holds the commit's durable mark). Truncations are lazy.
#
#   commit_local  2 = data page + commit-mark force; the install is a frame
#                     on the next force
#   hot_records   2 = the same, through lock queueing and page differencing
#   commit_dist   4 = 2 x (data page + vote force; the install rides the
#                     next vote force)
#
# `disk.writes_per_op` is 1 on commit_local — the data page alone — so a
# random inode write coming back to the transaction's commit path fails here.
#
# A change that adds a force to the commit path, or a compaction pass to the
# journal, moves one of these and fails here with the number it moved to.
#
# `virt_ms_per_op` comes from the same pass and is as exact (model_ms, the
# paper's 1985 clock): 46.4193325 / 133.07890833333332 / 54.05 (73.05 /
# 159.75 / 80.95 with a random inode write per install: a 26 ms transfer
# and its 500 setup instructions, against about 50 instructions per inode
# frame and per frame a flush copies forward; 147.11689583333333 on
# commit_dist with each install forced before its ack). On commit_dist the
# two participants are one wave — delegated together, installed together —
# so the caller's commit window (`sim.virt_commit_ms_per_op`) is one
# delegation branch, 57.628908333333335 (the first transaction's 0.1 less:
# no forget rides its delegations; the rest over 57.4 is the records its
# vote forces copy forward), not two branches and no mark (71.4 with the
# requester's forced mark), and the phase-two pump 17.05 = one branch of
# one message per site, carrying this transaction's commit and the resend
# of the one before — acked without I/O, its install landed by this
# transaction's vote — and no force (31.285295833333333 when each install
# was forced before its ack, a 13 ms sequential transfer). A participant
# contacted after another instead of with it moves all three.
# Outside that window the transaction
# pays for two client-issued round trips, not four: each write's implicit
# lock rides the write (DESIGN.md §3), so `net.msgs_per_op` is 6 = 2 file +
# 4 txn, `net.msgs_lock_per_op` 0 and `sim.virt_other_ms_per_op` 57.9. A lock
# that goes back to travelling on its own moves those three and virt_ms_per_op.
#
# The per-layer counts of the traced pass repeat the same way and pin what
# two deleted wall-clock gates stood for:
#
#   wal.flushes_per_op  1 / 2 / 1: one log force per single-site commit,
#       one per participant vote across sites, which lands that site's
#       install of the transaction before (4 when each install was forced
#       before its ack, 5 with the requester's mark too).
#   wal.frames_per_op >= 5.99 on commit_local: that one force carries all
#       six of the commit's frames, the install before it among them (the
#       old 4.5 frames-per-flush floor).
#   read_shared: a locked scan is still two messages, the grant and the
#       unlock, but the grant now ships only the pages whose stamp moved.
#       A shared lock's grant covers the first four pages of the range it
#       guards (DESIGN.md §3), which is all of a 4-page scan, so every one
#       of its 64 reads is served from the page cache —
#       kernel.pagecache_hit_rate 1 — and no `ReadReq` is sent. An unlock
#       keeps the pages a grant shipped clean (at most 128 per file and
#       owner), and the next grant names them by install version: the
#       storage site neither reads nor ships one that is current, so
#       kernel.prefetches_per_op is 1.848375 pages shipped per op (3.597
#       when every grant shipped four) and disk.reads_per_op 1.0805625
#       (1.886625). The update share, 0.10075 of the traced pass's ops at
#       seed 1, writes one record of a file at the other site: one
#       `WriteReq` with its lock riding it (net.msgs_file_per_op 0.10075),
#       then one `Delegate` (net.msgs_txn_per_op 0.10075) — the storage
#       site is the only participant, so it decides: its prepare record
#       and its `Committed` record share one force (wal.flushes_per_op
#       0.10075) and it installs before it answers, a record that rides
#       that journal's next force. So net.msgs_per_op is 2.0 (2.10075 when
#       the update paid a second round trip for phase two),
#       disk_ios_per_op 1.2820625 (1.3828125 with a random inode write
#       per update, 1.4835625 with a second force for the requester's mark
#       too) and virt_ms_per_op 130.94913825 (133.63840075, 136.670982). A
#       grant that goes back to travelling bare moves the page counts; an
#       update that goes back to two-phase commit moves the last five.
#       Exact for the seed this script passes, not seed-independent.
set -euo pipefail

cd "$(dirname "$0")/.."

# check WORKLOAD METRIC==VALUE|METRIC>=VALUE ...
# One run with --trace omitted: the end-to-end result line, then the
# per-layer one.
check() {
    local workload=$1
    shift
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 | grep '^{' | python3 -c '
import json, re, sys
workload, pins = sys.argv[1], sys.argv[2:]
metrics = {}
for line in sys.stdin:
    r = json.loads(line)
    if r["correct"] is not True or r["failed"] != 0:
        sys.exit("check_commit_ios: {}: correct={} failed={}".format(workload, r["correct"], r["failed"]))
    metrics.update(r["metrics"])
for pin in pins:
    metric, op, want = re.fullmatch(r"(.+?)(==|>=)(.+)", pin).groups()
    got = metrics[metric]["value"]
    if not (got == float(want) if op == "==" else got >= float(want)):
        sys.exit("check_commit_ios: {}: {} is {}, pinned at {} {}".format(workload, metric, got, op, want))
    print("check_commit_ios: {} {} = {}".format(workload, metric, got))
' "$workload" "$@"
}

check commit_local disk_ios_per_op==2 virt_ms_per_op==46.4193325 wal.flushes_per_op==1 \
    'wal.frames_per_op>=5.99' disk.writes_per_op==1
check commit_dist disk_ios_per_op==4 virt_ms_per_op==133.07890833333332 wal.flushes_per_op==2 \
    sim.virt_commit_ms_per_op==57.628908333333335 sim.virt_phase_two_ms_per_op==17.05 \
    net.msgs_per_op==6 net.msgs_lock_per_op==0 sim.virt_other_ms_per_op==57.9
check hot_records disk_ios_per_op==2 virt_ms_per_op==54.05 wal.flushes_per_op==1
check read_shared net.msgs_per_op==2.0 net.msgs_file_per_op==0.10075 kernel.pagecache_hit_rate==1 \
    disk_ios_per_op==1.2820625 virt_ms_per_op==130.94913825 \
    disk.reads_per_op==1.0805625 kernel.prefetches_per_op==1.848375 \
    wal.flushes_per_op==0.10075 net.msgs_txn_per_op==0.10075

# A wave of prepares or phase-two messages runs on its caller's thread
# (DESIGN.md §3): the only threads are the simulated processes', started by
# whoever drives the cluster. `tests.rs` is the crate's `#[cfg(test)]` module.
if grep -rn 'thread::' crates/core/src --exclude=tests.rs; then
    echo "check_commit_ios: program code under crates/core/src names thread::"
    exit 1
fi
