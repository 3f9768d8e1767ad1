//! Chaos-harness regression scenarios and determinism guarantees.
//!
//! The named scenarios are minimized schedules of real violations the chaos
//! sweep found (and the fixes they drove); each replays the exact failing
//! schedule under the seed that produced it and asserts the oracles stay
//! quiet.

use proptest::prelude::*;

use locus_harness::chaos::{oracle, run_schedule, run_seed, ChaosConfig, Schedule};
use locus_harness::cluster::Cluster;
use locus_sim::DetRng;
use locus_types::SiteId;

fn run_text(seed: u64, schedule: &str) -> locus_harness::chaos::ChaosReport {
    run_text_with(ChaosConfig::with_seed(seed), schedule)
}

fn run_text_with(cfg: ChaosConfig, schedule: &str) -> locus_harness::chaos::ChaosReport {
    let sched: Schedule = schedule.parse().expect("schedule parses");
    run_schedule(&cfg, &sched)
}

/// Seed 43's minimized schedule: a single site crash landing between two
/// transactions' prepares on the same page. Before the Figure 4b install
/// merge, recovery installed both prepare-time full-page images in sequence
/// and the second clobbered the first's committed bytes — a durable lost
/// write that only a crash could expose (the in-core buffer cache masked it
/// on the live path).
#[test]
fn crash_mid_prepare() {
    let report = run_text(43, "step 106 crash site=1\n");
    assert!(
        report.ok(),
        "crash-mid-prepare regression: {:?}",
        report.violations
    );
}

/// Seed 42's minimized schedule: a short partition that isolates one site
/// while transactions it participates in are still running. The isolated
/// site unilaterally rolls the transactions back; after the heal their
/// processes re-established locks and dirty pages there, so the site's
/// prepare vote looked legitimate again — and the coordinator committed a
/// write set the site had already discarded. The presumed-abort refusal set
/// (vote no forever on a locally rolled-back tid) closes the hole.
#[test]
fn partition_during_phase_two() {
    let report = run_text(42, "step 26 partition sites=1\nstep 32 heal\n");
    assert!(
        report.ok(),
        "partition-during-phase-two regression: {:?}",
        report.violations
    );
}

/// A process migrates mid-transaction and then its coordinator's site
/// crashes and reboots: recovery must resolve the in-doubt prepares via
/// status inquiry without losing the migrated process's writes or leaking
/// its locks.
#[test]
fn migrate_then_coordinator_crash() {
    let report = run_text(
        7,
        "step 10 migrate slot=0 to=2\nstep 30 crash site=0\nstep 50 reboot site=0\n",
    );
    assert!(
        report.ok(),
        "migrate-then-coordinator-crash regression: {:?}",
        report.violations
    );
}

/// Seed 1785987737512144065's minimized schedule: a site crashes while
/// transactions it acknowledged writes for are mid-flight and reboots four
/// steps later. The rebooted site still carried its pre-crash boot epoch,
/// so it voted *yes* at prepare for transactions whose acknowledged
/// (volatile) writes died with the crash — the re-prepared intentions held
/// only the post-reboot subset, and the commit durably lost acked bytes.
/// The fix plumbs a boot epoch through open/write/prepare so a participant
/// votes no for any transaction that spans one of its reboots. The
/// durability ledger (asserted after every reboot inside `run_schedule`)
/// now catches this class directly.
#[test]
fn seed_1785987737512144065_acked_write_survives() {
    let report = run_text(
        1785987737512144065,
        "step 55 crash site=0\nstep 59 reboot site=0\n",
    );
    assert!(
        report.ok(),
        "acked-write durability regression (minimized): {:?}",
        report.violations
    );

    // And the full generated schedule of the original failing seed.
    let report = run_seed(&ChaosConfig::with_seed(1785987737512144065));
    assert!(
        report.ok(),
        "acked-write durability regression (full seed): {:?}",
        report.violations
    );
}

/// The stale-read oracle (probes interleaved under the workload's held
/// exclusive locks, `reads_per_txn > 0`) across the standing seed corpus
/// plus every archived violation seed in `ci/known-bad-seeds.txt`: no seed
/// may produce a read that disagrees with the last committed or own
/// uncommitted write. This is the page cache's end-to-end coherence gate —
/// crashes, partitions, reboots, migrations, and wire faults all run with
/// reads in flight.
#[test]
fn stale_read_oracle_passes_seed_corpus() {
    let archived = include_str!("../../../ci/known-bad-seeds.txt")
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| l.parse::<u64>().expect("seed parses"));
    let corpus: Vec<u64> = [1, 2, 5, 7, 42, 43].into_iter().chain(archived).collect();
    for seed in corpus {
        let mut cfg = ChaosConfig::with_seed(seed);
        cfg.reads_per_txn = 2;
        let report = run_seed(&cfg);
        assert!(report.ok(), "seed {seed} with read probes: {report}");
    }
}

/// The replica-divergence campaign (the read-at-replica / failover / resync
/// subsystem's end-to-end gate): the standing seed corpus plus every
/// archived violation seed, re-run with two replica copies per workload
/// file. Crashes and partitions trigger epoch-guarded failover, reboots and
/// heals trigger catch-up pulls, and the full oracle suite — including
/// replica convergence — must stay quiet on every seed.
#[test]
fn replica_divergence_campaign_passes_seed_corpus() {
    let archived = include_str!("../../../ci/known-bad-seeds.txt")
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| l.parse::<u64>().expect("seed parses"));
    let corpus: Vec<u64> = [1, 2, 5, 7, 42, 43].into_iter().chain(archived).collect();
    for seed in corpus {
        let mut cfg = ChaosConfig::with_seed(seed);
        cfg.replicas = 2;
        let report = run_seed(&cfg);
        assert!(report.ok(), "replicated seed {seed}: {report}");
    }
}

/// Replays a minimized schedule with two replica copies per workload file.
fn run_text_replicated(seed: u64, schedule: &str) -> locus_harness::chaos::ChaosReport {
    let mut cfg = ChaosConfig::with_seed(seed);
    cfg.replicas = 2;
    run_text_with(cfg, schedule)
}

/// `locus-chaos --seeds 1..300 --replicas 2` seed 28, minimized to one
/// fault. A replica site crashes and is never rebooted by the schedule;
/// after the quiesce epilogue `/chaos2`'s copy at site 1 lacked bytes the
/// primary (site 0) committed — REPLICA-DIVERGENCE at offset 8. Closed with
/// seeds 97 and 1206 by making the bytes a page buffer holds for an owner
/// the ones it wrote last: a rollback reverted bytes a later writer owned.
#[test]
fn replicated_seed_28_replica_crash_leaves_a_copy_behind() {
    let report = run_text_replicated(28, "step 17 crash site=2\n");
    assert!(report.ok(), "replicated seed 28: {:?}", report.violations);
}

/// Seed 97 under `--replicas 2`, minimized to a migration followed by a
/// crash of site 1. Two oracles fired: REPLICA-DIVERGENCE (`/chaos0` at
/// site 2 vs primary site 0, offset 24) and DURABILITY (file 0 record 3: the
/// acked value `0x10001` was gone). The migrated process's transaction,
/// rolled back at site 0 when site 1 died, wrote record 3 again; a second
/// transaction then wrote it, and the first one's second rollback reverted
/// the page buffer's record 3 under it, before it prepared.
#[test]
fn replicated_seed_97_migrate_then_crash_loses_an_acked_write() {
    let report = run_text_replicated(97, "step 13 migrate slot=4 to=0\nstep 43 crash site=1\n");
    assert!(report.ok(), "replicated seed 97: {:?}", report.violations);
}

/// `locus-chaos --seeds 1..2000` seed 1206, outside CI's 1..16 and the
/// 1..300 sweeps. A process migrates, site 0 is partitioned away and
/// healed, and one reply is dropped; after the recovery epilogue file 0
/// record 2 read 0 — DURABILITY, the acked committed write `0x30001` was
/// gone. Closed by the page-buffer ownership fix of seed 97.
#[test]
fn seed_1206_migrate_then_partition_loses_an_acked_write() {
    let report = run_text(
        1206,
        "step 16 migrate slot=4 to=2\nstep 38 partition sites=0\nstep 44 heal\n\
         wire 11 drop-reply\n",
    );
    assert!(report.ok(), "seed 1206: {:?}", report.violations);
}

/// Seed 1900, minimized to a partition of sites 0 and 2, its heal, and a
/// migration. SERIALIZABILITY on file 2 record 4: a stale write of
/// committed slot 2 survived out of order. Since a transaction whose files
/// all live at one other site hands that site the decision, this schedule
/// no longer reaches its old shape; the stale write is the kind a rollback
/// reverting a later writer's bytes leaves, which the page-buffer fix of
/// seed 97 closed. Kept as a guard.
#[test]
fn seed_1900_partition_then_migrate_keeps_a_stale_write() {
    let report = run_text(
        1900,
        "step 8 partition sites=0,2\nstep 17 heal\nstep 57 migrate slot=0 to=1\n",
    );
    assert!(report.ok(), "seed 1900: {:?}", report.violations);
}

/// Commits `data` to `name` through a non-transaction open/write/close at
/// `site` (base Locus' atomic file update); the close drives the replica
/// push.
fn commit_at(c: &Cluster, site: usize, name: &str, data: &[u8]) -> locus_types::Result<()> {
    let k = &c.site(site).kernel;
    let mut a = c.account(site);
    let p = k.spawn();
    let res = (|| {
        let ch = k.open(p, name, true, &mut a)?;
        k.write(p, ch, data, &mut a)?;
        k.close(p, ch, &mut a)
    })();
    let _ = k.exit(p, &mut a);
    res
}

/// Reads `len` bytes of `name` through a non-transaction open at `site` —
/// the path that may serve from a local synced replica copy.
fn read_at(c: &Cluster, site: usize, name: &str, len: u64) -> locus_types::Result<Vec<u8>> {
    let k = &c.site(site).kernel;
    let mut a = c.account(site);
    let p = k.spawn();
    let res = (|| {
        let ch = k.open(p, name, false, &mut a)?;
        k.read(p, ch, len, &mut a)
    })();
    let _ = k.exit(p, &mut a);
    res
}

/// A 2-replica cluster with `/rep` created at site 0, replicated to sites 1
/// and 2, and an initial committed fill of `fill`.
fn replicated_cluster(fill: u8) -> Cluster {
    let c = Cluster::new(3);
    let mut a = c.account(0);
    let p = c.site(0).kernel.spawn();
    let ch = c.site(0).kernel.creat(p, "/rep", &mut a).unwrap();
    c.site(0).kernel.write(p, ch, &[fill; 64], &mut a).unwrap();
    c.site(0).kernel.close(p, ch, &mut a).unwrap();
    let _ = c.site(0).kernel.exit(p, &mut a);
    c.add_replica("/rep", 0, 1);
    c.add_replica("/rep", 0, 2);
    // The attach happened after the fill committed: clear the optimistic
    // synced marks and pull the real bytes.
    let fid = c.catalog.resolve("/rep").unwrap().fid;
    c.catalog.mark_unsynced(fid, SiteId(1));
    c.catalog.mark_unsynced(fid, SiteId(2));
    assert_eq!(c.resync_replicas(), 2);
    c
}

/// The primary crashes mid-sync: a commit whose replica push never reached a
/// partitioned replica, followed immediately by the primary's crash. The
/// stale replica was dropped from the synced set by the failed push, so it
/// must neither serve its old bytes locally nor be promoted — the file
/// simply has no primary until the real one returns, and the heal epilogue
/// reconverges every copy.
#[test]
fn primary_crash_mid_sync_leaves_no_stale_replica() {
    let c = replicated_cluster(0xAA);
    // Cut replica site 1 off, then commit: the push to it fails and marks it
    // unsynced; replica 2 receives the push.
    c.transport.partition(&[SiteId(0), SiteId(2)]);
    commit_at(&c, 0, "/rep", &[0xBB; 64]).unwrap();
    c.crash_site(0);
    // Failover may promote replica 2 (it took the push and is synced); the
    // stale replica 1 must never win, whatever the race.
    c.try_failover();
    let primary = c.catalog.resolve("/rep").unwrap().primary;
    assert_ne!(primary, SiteId(1), "an unsynced replica must not promote");
    // A read at the stale replica proxies toward the primary — which is
    // down. It must error, not serve the old 0xAA bytes.
    // (Refusing outright is the expected outcome with the primary dead.)
    if let Ok(data) = read_at(&c, 1, "/rep", 64) {
        assert_eq!(data, vec![0xBB; 64], "stale replica served old bytes");
    }
    // Replica 2 stayed synced and can serve the committed bytes locally.
    assert_eq!(read_at(&c, 2, "/rep", 64).unwrap(), vec![0xBB; 64]);
    // Heal + reboot + resync: every copy reconverges.
    c.transport.heal();
    c.reboot_site(0);
    c.drain_async();
    c.try_failover();
    c.resync_replicas();
    let mut v = Vec::new();
    oracle::check_replica_convergence(&c, &mut v);
    assert!(v.is_empty(), "replicas diverged after heal: {v:?}");
}

/// An old primary heals after a promotion happened behind its back: it must
/// demote itself (refuse updates, stop pushing) and resync from the new
/// primary rather than reinstate its stale image.
#[test]
fn old_primary_heals_after_promotion_and_demotes() {
    let c = replicated_cluster(0x11);
    c.crash_site(0);
    assert_eq!(c.try_failover(), 1, "lowest synced replica must promote");
    let loc = c.catalog.resolve("/rep").unwrap();
    assert_eq!(loc.primary, SiteId(1));
    assert_eq!(loc.epoch, 1);
    // Commit through the new primary while the old one is dead.
    commit_at(&c, 1, "/rep", &[0x22; 64]).unwrap();
    // The old primary returns. It is not primary any more: its channels
    // route updates to site 1, and its own stale copy gets repaired by the
    // catch-up pull.
    c.reboot_site(0);
    c.drain_async();
    c.resync_replicas();
    let loc = c.catalog.resolve("/rep").unwrap();
    assert_eq!(
        loc.primary,
        SiteId(1),
        "healed old primary must stay demoted"
    );
    assert_eq!(read_at(&c, 0, "/rep", 64).unwrap(), vec![0x22; 64]);
    // A further commit issued at the old primary's site routes to the new
    // primary and replicates everywhere.
    commit_at(&c, 0, "/rep", &[0x33; 64]).unwrap();
    assert_eq!(c.catalog.resolve("/rep").unwrap().primary, SiteId(1));
    let mut v = Vec::new();
    oracle::check_replica_convergence(&c, &mut v);
    assert!(v.is_empty(), "replicas diverged after demotion: {v:?}");
    for site in 0..3 {
        assert_eq!(read_at(&c, site, "/rep", 64).unwrap(), vec![0x33; 64]);
    }
}

/// A replica reboots and receives a read before its catch-up pull ran: the
/// read must proxy to the primary (the replica is not in the synced set) and
/// return the current committed bytes, never the replica's stale durable
/// copy.
#[test]
fn rebooted_replica_proxies_reads_until_caught_up() {
    let c = replicated_cluster(0x44);
    c.crash_site(2);
    // Commit while replica 2 is dead: the push fails, site 2 drops out of
    // the synced set, its durable copy still holds 0x44.
    commit_at(&c, 0, "/rep", &[0x55; 64]).unwrap();
    c.reboot_site(2);
    // No resync yet — the read must proxy to the primary and see 0x55.
    assert_eq!(
        read_at(&c, 2, "/rep", 64).unwrap(),
        vec![0x55; 64],
        "rebooted replica served its stale pre-crash copy"
    );
    assert!(
        !c.catalog
            .resolve("/rep")
            .unwrap()
            .synced
            .contains(&SiteId(2)),
        "replica must not re-enter the synced set without a pull"
    );
    // After the pull it serves locally and all copies agree.
    c.resync_replicas();
    assert!(c
        .catalog
        .resolve("/rep")
        .unwrap()
        .synced
        .contains(&SiteId(2)));
    assert_eq!(read_at(&c, 2, "/rep", 64).unwrap(), vec![0x55; 64]);
    let mut v = Vec::new();
    oracle::check_replica_convergence(&c, &mut v);
    assert!(v.is_empty(), "replicas diverged after catch-up: {v:?}");
}

/// One seed fully determines a run: replaying it must reproduce a
/// byte-identical event trace (the property `--check-determinism` asserts in
/// CI, and the property schedule minimization depends on).
#[test]
fn same_seed_replays_byte_identical_trace() {
    for seed in [1, 42, 43] {
        let cfg = ChaosConfig::with_seed(seed);
        let a = run_seed(&cfg);
        let b = run_seed(&cfg);
        assert!(a.trace == b.trace, "seed {seed} trace diverged on replay");
        assert_eq!(a.schedule, b.schedule, "seed {seed} schedule diverged");
    }
}

/// FNV-1a over the trace text — the same fingerprint a human would diff.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seeded trace is pinned by content hash, not just self-consistency:
/// [`same_seed_replays_byte_identical_trace`] would pass even if a change
/// made every run deterministically *different* (e.g. a sharded event log
/// merging buffers in a new order), silently invalidating every minimized
/// repro schedule on file. Sharding the hot paths must not reorder the
/// deterministic driver's trace. If this fails and the trace change is
/// intentional, re-pin the hash and re-minimize the repro scenarios above.
///
/// Last re-pin (one commit rule): the first differing event is trace line
/// 41, where `txn2.2` — requested at site 2, with a file at site 0 and one
/// at site 2 — no longer logs a start record at home (`CoordLog { site: 2,
/// …, Unknown }`) and sends site 0 a `Prepare`, but hands site 0 its part
/// (`DelegateSent { to: 0 }`, the `Delegate` RPC, with a `Forget` riding
/// ahead of it) and takes its own in its own machine. Each of the two sites
/// forces a `Voted` record; site 2's own phase two — the note of the
/// commit, the install, the lock release — follows at once, with no
/// message, and site 0's rides the next message there. The single-site
/// commits install inside their `EndTrans`. 137 -> 141 events, verdict
/// clean.
///
/// The re-pin before it (what rides a message goes ahead of it): trace lines 97 and
/// 98 swap. In the phase-two batch site 2 sends site 0, the `Forget` that
/// rides it now goes ahead of the `Commit` it rides, where it went last
/// before. Seed 1 has no transaction whose storage sites decide among
/// peers, so no commit rides and no delegate is asked for a lock. 137
/// events, verdict clean.
///
/// The re-pin before it (a phase-two ack means the install has landed):
/// the first differing event is trace line 93, where `txn1.2`'s `Committed` no longer
/// follows its first phase two: its remote participant, site 0, installs
/// and answers that the install has not landed, and the queue's resend is
/// acked. Three commits take a resend — `txn1.2` and `txn2.2` at site 0,
/// `txn0.1` at site 1 — each a `CommitSent` and a `Commit` RPC more, and
/// each `Committed` moves behind its resend. 131 -> 137 events, verdict
/// clean.
///
/// The one before that (commit where the data is): the first differing
/// event is trace line 25, where transaction `txn2.1` — slot 2, at site 2, whose
/// every write lands in site 0's file — no longer logs a coordinator record
/// at home (`CoordLog { site: 2, …, Unknown }`) but hands site 0 the
/// decision (`DelegateSent { to: 0 }`, then the `Delegate` RPC in place of
/// the `Prepare`). Site 0's journal carries the `Committed` record, the
/// install and the `Committed` event move into that call, and the lock
/// grants they free move with them; so does every event of the transactions
/// that queue behind those locks. 132 -> 131 events, verdict clean.
///
/// And the one before that (the access carries its lock) moved one lock
/// request of the same seed onto the write that needed it.
#[test]
fn seeded_trace_hash_is_pinned() {
    let report = run_seed(&ChaosConfig::with_seed(1));
    assert!(
        report.ok(),
        "seed 1 must stay clean: {:?}",
        report.violations
    );
    let hash = fnv1a(report.trace.as_bytes());
    assert_eq!(
        hash, 0x8783_e6d7_573d_e2ff,
        "seed 1 trace changed (hash {hash:#x}); deterministic replay of \
         archived schedules is broken unless this is an intentional trace \
         format change"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any generated schedule survives the text round-trip exactly — the
    /// printed repro of a violation is always replayable.
    #[test]
    fn schedule_text_round_trips(
        seed in any::<u64>(),
        sites in 2usize..6,
        slots in 1usize..8,
        n_cluster in 0usize..8,
        n_wire in 0usize..10,
    ) {
        let mut rng = DetRng::seeded(seed);
        let sched = Schedule::generate(&mut rng, sites, slots, n_cluster, n_wire, 300, 200);
        let text = sched.to_string();
        let back: Schedule = text.parse().map_err(|e| {
            TestCaseError::fail(format!("parse failed: {e}\n{text}"))
        })?;
        prop_assert_eq!(sched, back, "text was:\n{}", text);
    }
}
