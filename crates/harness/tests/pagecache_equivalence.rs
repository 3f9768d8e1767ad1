//! The page cache must be invisible: a cluster running with per-site page
//! caching (page-granular fetches and readahead included) must produce
//! exactly the results an uncached cluster produces for any program. These tests drive the same
//! seeded random scripts against a cached cluster and an uncached reference
//! cluster and compare every operation result and the final file bytes.
//!
//! The driver's interleaving depends only on its own RNG and on which
//! operations block — never on message counts — so with no fault injector
//! the two runs take identical schedules and every divergence is a real
//! coherence bug, not noise.

use std::sync::atomic::Ordering;

use proptest::prelude::*;

use locus_harness::chaos::{run_schedule, ChaosConfig, Schedule};
use locus_harness::cluster::Cluster;
use locus_harness::script::{Driver, Op, RunOutcome};
use locus_kernel::LockOpts;
use locus_sim::DetRng;
use locus_types::LockRequestMode;

const SITES: usize = 2;
/// Three pages' worth at the default 1 KiB page size, so random reads cross
/// page boundaries.
const FILE_LEN: u64 = 3000;

/// Generates one seeded random program set: a few processes (some inside a
/// transaction, some plain) sharing two files on different sites, issuing
/// interleaved seeks, reads, writes, and explicit shared/exclusive locks.
fn gen_programs(seed: u64) -> Vec<(usize, Vec<Op>)> {
    let mut rng = DetRng::seeded(seed);
    let nprocs = 2 + rng.below(3) as usize;
    let mut programs = Vec::with_capacity(nprocs);
    for _ in 0..nprocs {
        let home = rng.below(SITES as u64) as usize;
        let in_txn = rng.chance(0.5);
        let mut ops = Vec::new();
        if in_txn {
            ops.push(Op::BeginTrans);
        }
        for f in 0..2 {
            ops.push(Op::Open {
                name: format!("/eq{f}"),
                write: true,
            });
        }
        let n_ops = 8 + rng.below(8);
        for _ in 0..n_ops {
            let ch = rng.below(2) as usize;
            let pos = rng.below(FILE_LEN - 64);
            match rng.below(10) {
                // Explicit locks; denials (wait: false) are results too and
                // must match across the two runs.
                0 | 1 => {
                    ops.push(Op::Seek { ch, pos });
                    ops.push(Op::Lock {
                        ch,
                        len: 64,
                        mode: if rng.chance(0.5) {
                            LockRequestMode::Shared
                        } else {
                            LockRequestMode::Exclusive
                        },
                        opts: LockOpts::default(),
                    });
                }
                2 => {
                    ops.push(Op::Seek { ch, pos });
                    ops.push(Op::Unlock { ch, len: 64 });
                }
                3..=6 => {
                    ops.push(Op::Seek { ch, pos });
                    ops.push(Op::Read {
                        ch,
                        len: 1 + rng.below(1200),
                    });
                }
                _ => {
                    let len = 1 + rng.below(24) as usize;
                    let fill = rng.below(255) as u8 + 1;
                    ops.push(Op::Seek { ch, pos });
                    ops.push(Op::Write {
                        ch,
                        data: vec![fill; len],
                    });
                }
            }
        }
        if in_txn {
            ops.push(Op::EndTrans);
        }
        programs.push((home, ops));
    }
    programs
}

/// Builds a cluster with `/eq0` on site 0 and `/eq1` on site 1, zero-filled.
fn build_cluster(cached: bool) -> Cluster {
    build_cluster_with(cached, vec![0; FILE_LEN as usize])
}

/// Builds a cluster with `/eq0` on site 0 and `/eq1` on site 1, both holding
/// `contents`, committed.
fn build_cluster_with(cached: bool, contents: Vec<u8>) -> Cluster {
    let c = Cluster::new(SITES);
    if !cached {
        for i in 0..SITES {
            c.site(i)
                .kernel
                .page_cache_enabled
                .store(false, Ordering::Relaxed);
        }
    }
    let mut setup = Driver::new(&c, 1);
    for f in 0..SITES {
        setup.spawn(
            f,
            vec![
                Op::Creat(format!("/eq{f}")),
                Op::Write {
                    ch: 0,
                    data: contents.clone(),
                },
                Op::Close(0),
            ],
        );
    }
    assert_eq!(setup.run(), RunOutcome::Completed);
    assert!(!setup.any_failures(), "{}", setup.failure_report());
    c
}

/// Runs the seed's programs on a cluster and renders everything observable:
/// per-process results (data, ranges, errors — all of it) and the final
/// durable bytes of both files read through a fresh probe process.
fn observe(c: &Cluster, seed: u64) -> String {
    observe_programs(c, seed, &gen_programs(seed), None, FILE_LEN)
}

/// [`observe`] for given programs; `reboot` names a driver step before which
/// site 0 is crashed and at once rebooted.
fn observe_programs(
    c: &Cluster,
    seed: u64,
    programs: &[(usize, Vec<Op>)],
    reboot: Option<usize>,
    file_len: u64,
) -> String {
    let mut drv = Driver::new(c, seed.wrapping_mul(0x9e37_79b9));
    for (home, ops) in programs {
        drv.spawn(*home, ops.clone());
    }
    let outcome = drv.run_with_hook(&mut |step, _| {
        if reboot == Some(step) {
            c.crash_site(0);
            c.reboot_site(0);
        }
    });
    let mut out = format!("outcome: {outcome}\n");
    for i in 0..drv.n_procs() {
        out.push_str(&format!("proc {i}: {:?}\n", drv.results(i)));
    }
    for f in 0..SITES {
        let k = &c.site(f).kernel;
        let mut a = c.account(f);
        let probe = k.spawn();
        let bytes = k
            .open(probe, &format!("/eq{f}"), false, &mut a)
            .and_then(|ch| k.read(probe, ch, file_len, &mut a));
        let _ = k.exit(probe, &mut a);
        out.push_str(&format!("file {f}: {bytes:?}\n"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache + invalidation ≡ the uncached reference kernel, for arbitrary
    /// interleavings of reads, writes, and lock traffic.
    #[test]
    fn cached_cluster_matches_uncached_reference(seed in any::<u64>()) {
        let cached = observe(&build_cluster(true), seed);
        let reference = observe(&build_cluster(false), seed);
        prop_assert_eq!(cached, reference, "cache-visible divergence, seed {}", seed);
    }
}

// ----- Locked scans: what page-granular fetching changes --------------------

/// Six pages and a ragged tail, so scans meet the visible-length clip.
const SCAN_FILE_LEN: u64 = 6 * 1024 + 200;

/// Every byte distinct from its neighbours and from the same offset on other
/// pages: a fetch that hands the caller the wrong slice of a widened reply
/// cannot go unnoticed.
fn scan_contents() -> Vec<u8> {
    (0..SCAN_FILE_LEN).map(|i| (i % 251) as u8 + 1).collect()
}

/// One scanner at site 1 — remote from `/eq0` — that locks a page-unaligned
/// range and reads records through it in order, starting a little before the
/// lock and running past its end; sibling owners that write to the same
/// pages meanwhile; and, half the time, a reboot of the storage site in
/// mid-scan. Returns the programs and the reboot step.
///
/// A reboot empties the storage site's lock list and buffers while the
/// scanner's kernel still trusts its lock cache (ROADMAP backlog: coverage
/// under failover), so bytes the scanner believes locked can then change
/// under *any* local copy of them. That hole is not this test's subject, so
/// the runs with a reboot keep clear of its two ways in: siblings write only
/// outside the locked bytes, and the scanner is not a transaction (whose
/// lock would adopt a sibling's uncommitted bytes as its own, cacheable,
/// and lose them to the reboot).
fn gen_scan(seed: u64) -> (Vec<(usize, Vec<Op>)>, Option<usize>) {
    let mut rng = DetRng::seeded(seed);
    let reboot = rng.chance(0.5).then(|| 8 + rng.below(40) as usize);
    let lock_start = rng.below(1500);
    // Half the locks are long enough for readahead to find whole pages.
    let lock_len = if rng.chance(0.5) {
        200 + rng.below(3000)
    } else {
        3500 + rng.below(2500)
    };
    let lock_end = lock_start + lock_len;
    let mode = if rng.chance(0.7) {
        LockRequestMode::Shared
    } else {
        LockRequestMode::Exclusive
    };
    let in_txn = reboot.is_none() && rng.chance(0.4);

    let mut scan = Vec::new();
    if in_txn {
        scan.push(Op::BeginTrans);
    }
    scan.push(Op::Open {
        name: "/eq0".into(),
        write: true,
    });
    scan.push(Op::Seek {
        ch: 0,
        pos: lock_start,
    });
    scan.push(Op::Lock {
        ch: 0,
        len: lock_len,
        mode,
        opts: LockOpts::default(),
    });
    scan.push(Op::Seek {
        ch: 0,
        pos: lock_start.saturating_sub(rng.below(150)),
    });
    let rec = 32 + rng.below(300);
    for _ in 0..lock_len / rec + 3 {
        scan.push(Op::Read { ch: 0, len: rec });
        if rng.chance(0.1) {
            // Re-read something behind the cursor, or skip ahead.
            scan.push(Op::Seek {
                ch: 0,
                pos: lock_start + rng.below(lock_len),
            });
        }
    }
    scan.push(Op::Seek {
        ch: 0,
        pos: lock_start,
    });
    scan.push(Op::Unlock {
        ch: 0,
        len: lock_len,
    });
    scan.push(Op::Seek {
        ch: 0,
        pos: lock_start,
    });
    scan.push(Op::Read { ch: 0, len: rec });
    if in_txn {
        scan.push(Op::EndTrans);
    }
    let mut programs = vec![(1, scan)];

    for _ in 0..1 + rng.below(2) {
        let mut ops = vec![Op::Open {
            name: "/eq0".into(),
            write: true,
        }];
        for _ in 0..3 + rng.below(6) {
            // Bytes just outside the lock: the pages the scanner's fetches
            // are widened on. Without a reboot, bytes inside it too — the
            // enforced lock refuses those, identically in both clusters.
            let pos = match rng.below(if reboot.is_some() { 2 } else { 3 }) {
                0 => lock_start.saturating_sub(1 + rng.below(200)),
                1 => lock_end + rng.below(200),
                _ => lock_start + rng.below(lock_len),
            };
            let len = 1 + rng.below(24);
            let len = if pos < lock_start {
                len.min(lock_start - pos)
            } else {
                len
            };
            ops.push(Op::Seek { ch: 0, pos });
            ops.push(Op::Write {
                ch: 0,
                data: vec![rng.below(4) as u8 + 252; len as usize],
            });
            match rng.below(8) {
                0 => ops.push(Op::CommitFile(0)),
                1 => ops.push(Op::AbortFile(0)),
                _ => {}
            }
        }
        ops.push(Op::Close(0));
        programs.push((rng.below(SITES as u64) as usize, ops));
    }
    (programs, reboot)
}

fn observe_scan(cached: bool, seed: u64) -> (String, locus_sim::CountersSnapshot) {
    let c = build_cluster_with(cached, scan_contents());
    let before = c.counters();
    let (programs, reboot) = gen_scan(seed);
    let seen = observe_programs(&c, seed, &programs, reboot, SCAN_FILE_LEN);
    (seen, c.counters().since(&before))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Locked multi-record scans under page-unaligned locks, with sibling
    /// owners writing to the same pages and the storage site rebooting
    /// mid-scan: every read of the caching cluster returns what the uncached
    /// one returns, step for step.
    #[test]
    fn locked_scans_match_uncached_reference(seed in any::<u64>()) {
        let (cached, _) = observe_scan(true, seed);
        let (reference, _) = observe_scan(false, seed);
        prop_assert_eq!(cached, reference, "cache-visible divergence, seed {}", seed);
    }
}

/// The scan generator really drives what it is meant to compare: widened
/// fetches, readahead and cache hits on one side, none of them on the other.
#[test]
fn locked_scans_exercise_page_fetches_and_readahead() {
    let (mut hits, mut ahead, mut saved) = (0, 0, 0);
    for seed in 0..24 {
        let (_, on) = observe_scan(true, seed);
        let (_, off) = observe_scan(false, seed);
        assert_eq!((off.page_cache_hits, off.prefetches), (0, 0), "seed {seed}");
        hits += on.page_cache_hits;
        ahead += on.prefetches;
        saved += off.msgs_for(locus_types::Service::File) - on.msgs_for(locus_types::Service::File);
    }
    assert!(hits > 100, "only {hits} cached reads in 24 scans");
    assert!(ahead > 5, "only {ahead} pages read ahead in 24 scans");
    assert!(saved > 100, "only {saved} file messages saved in 24 scans");
}

/// The chaos workload with read probes, fault-free, cached vs uncached:
/// both runs must commit everything and the stale-read oracle must stay
/// quiet in both worlds.
#[test]
fn chaos_read_probes_agree_with_uncached_reference() {
    for seed in [3, 11, 29] {
        let mut on = ChaosConfig::with_seed(seed);
        on.reads_per_txn = 2;
        let mut off = on.clone();
        off.page_cache = false;
        let a = run_schedule(&on, &Schedule::default());
        let b = run_schedule(&off, &Schedule::default());
        assert!(a.ok(), "cached, seed {seed}: {a}");
        assert!(b.ok(), "uncached, seed {seed}: {b}");
        assert_eq!(a.committed, on.procs, "cached, seed {seed}: {a}");
        assert_eq!(b.committed, on.procs, "uncached, seed {seed}: {b}");
    }
}
