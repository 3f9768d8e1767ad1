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
# force of its own log. Data pages are random writes; every storage site
# forces one record of its vote, with its prepare records ahead of it — one
# born committed when it is the transaction's only storage site, the commit
# point itself — and no site forces a commit mark: the storage sites'
# durable yes votes decide every transaction. A transaction's install is a
# record too, the file's whole inode, and is never forced on its own: it
# rides its journal's next force, and a phase-two ack is sent only once it
# has landed (or rides a journal that holds the durable commit).
# Truncations are lazy.
#
#   commit_local  2 = data page + the force of the record born committed;
#                     the install is a frame on the next force
#   hot_records   2 = the same, through lock queueing and page differencing
#   commit_dist   4 = 2 x (data page + vote force; the install of the
#                     transaction before, whose commit rides ahead of the
#                     delegation, rides the vote force)
#
# `disk.writes_per_op` is 1 on commit_local — the data page alone — so a
# random inode write coming back to the transaction's commit path fails here.
#
# A change that adds a force to the commit path, or a compaction pass to the
# journal, moves one of these and fails here with the number it moved to.
#
# `virt_ms_per_op` comes from the same pass and is as exact (model_ms, the
# paper's 1985 clock): 46.26040666666667 / 117.07607291666666 / 53.95
# (46.4193325 / 117.07690625 / 54.05 when a single-site commit logged a
# start record, sent its own site a prepare and queued its install for the
# pump, and a request that waited behind a settled holder was granted
# twice; 73.05 / 159.75 /
# 80.95 with a random inode write per install: a 26 ms transfer and its
# 500 setup instructions, against about 50 instructions per inode frame
# and per frame a flush copies forward; 133.07890833333332 on commit_dist
# when phase two was a pump message of its own, 147.11689583333333 with
# each install forced before its ack). On commit_dist the two
# participants are one wave — delegated together — so the caller's commit
# window (`sim.virt_commit_ms_per_op`) is one delegation branch,
# 58.67463541666667 (57.628908333333335 before phase two rode it): ahead
# of each delegation ride the commit of the transaction before, installed
# there, and the resend of the one before that, acked without I/O — its
# install landed by the last vote force — with their forgets; not two
# branches and no mark (71.4 with the requester's forced mark). The
# phase-two pump sends nothing: `sim.virt_phase_two_ms_per_op` is 0 (17.05
# when it sent one message per site). A participant contacted after
# another instead of with it moves the commit window and virt_ms_per_op.
# Outside that window the transaction pays for two client-issued round
# trips, not four: each write's implicit lock rides the write (DESIGN.md
# §3). So `net.msgs_per_op` is 4 = 2 file + 2 txn (6 when the pump sent a
# message per site), `net.msgs_lock_per_op` 0 and
# `sim.virt_other_ms_per_op` 57.9 — but for one pair of transactions in a
# row in this seed's count pass that write the same record: the second's
# writes meet the first's locks at each delegate, which asks its peer (a
# `StatusInquiry`) before the write's lock can queue. Two messages over
# 24,000 ops make 4.000083333333333, 0 and 57.9014375 (4.000166666666667,
# 8.333333333333333e-05 and 57.90227083333333 while the request queued
# first and the release's pump then pushed it a `Granted` no process waited
# for). A lock that goes back to travelling on its own moves those three
# and virt_ms_per_op.
#
# The per-layer counts of the traced pass repeat the same way and pin what
# two deleted wall-clock gates stood for:
#
#   wal.flushes_per_op  1 / 2 / 1: one log force per single-site commit,
#       one per participant vote across sites, which lands that site's
#       install of the transaction before, whose commit rode ahead of the
#       delegation (4 when each install was forced before its ack, 5 with
#       the requester's mark too).
#   wal.frames_per_op 7.104041666666666 on commit_local: that one force
#       carries the commit's five frames — its prepare record, its record
#       born committed, and the install and two purges of the transaction
#       before — and the frames it copies forward (8.6933 with the start
#       record and the status mark, six frames a commit; the old 4.5
#       frames-per-flush floor before that).
#   read_shared: a locked scan is one message, the grant, with the last
#       scan's release riding ahead of it as a batch member (DESIGN.md §3):
#       an unlock queues its release for the storage site, and the next
#       message there carries it. The grant ships only the pages whose
#       stamp moved. A shared lock's grant covers the first four pages of the range it
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
#       then one `Delegate`, with the forget of the update before riding
#       ahead of it as a batch member of its own: net.msgs_txn_per_op
#       0.2014375 members in 0.10075 messages (0.10075 when the forget
#       was a field of the delegation) — the storage
#       site is the only participant, so it decides: its prepare record
#       and its `Committed` record share one force (wal.flushes_per_op
#       0.10075) and it installs before it answers, a record that rides
#       that journal's next force. So net.msgs_per_op is 1.10075 = 0.89925
#       grants + 0.10075 writes + 0.10075 delegations (each scan's release
#       rides the next message, a grant or a write), where it was 2.0 while
#       every unlock was a round trip of its own (2.10075 when the update
#       paid a second round trip for phase two); disk_ios_per_op 1.2820625
#       (1.3828125 with a random inode write per update, 1.4835625 with a
#       second force for the requester's mark too) and virt_ms_per_op
#       116.561021125 = 130.94913825 - 0.89925 x 16 - 1.874 / 16000: an
#       unlock round trip was a 15 ms flight and 2 x 250 handler
#       instructions at 2 us; a release's own 937 lock-list instructions
#       are still paid, by its carrier, except the pass's last release,
#       still queued when it ends (133.63840075 and 136.670982 at two
#       messages a scan). A grant that goes back to travelling bare
#       moves the page counts; an unlock that goes back to a round trip of
#       its own moves net.msgs_per_op and virt_ms_per_op; an update that
#       goes back to two-phase commit moves the last five. Exact for the
#       seed this script passes, not seed-independent.
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

check commit_local disk_ios_per_op==2 virt_ms_per_op==46.26040666666667 wal.flushes_per_op==1 \
    wal.frames_per_op==7.104041666666666 disk.writes_per_op==1
check commit_dist disk_ios_per_op==4 virt_ms_per_op==117.07607291666666 wal.flushes_per_op==2 \
    sim.virt_commit_ms_per_op==58.67463541666667 sim.virt_phase_two_ms_per_op==0 \
    net.msgs_per_op==4.000083333333333 net.msgs_lock_per_op==0 \
    sim.virt_other_ms_per_op==57.9014375
check hot_records disk_ios_per_op==2 virt_ms_per_op==53.95 wal.flushes_per_op==1
check read_shared net.msgs_per_op==1.10075 net.msgs_file_per_op==0.10075 kernel.pagecache_hit_rate==1 \
    disk_ios_per_op==1.2820625 virt_ms_per_op==116.561021125 \
    disk.reads_per_op==1.0805625 kernel.prefetches_per_op==1.848375 \
    wal.flushes_per_op==0.10075 net.msgs_txn_per_op==0.2014375

# A wave of prepares or phase-two messages runs on its caller's thread
# (DESIGN.md §3): the only threads are the simulated processes', started by
# whoever drives the cluster. `tests.rs` is the crate's `#[cfg(test)]` module.
if grep -rn 'thread::' crates/core/src --exclude=tests.rs; then
    echo "check_commit_ios: program code under crates/core/src names thread::"
    exit 1
fi
