//! The page cache must be invisible: a cluster running with per-site page
//! caching (page-granular fetches, readahead and shared grants that carry
//! their pages included) must produce exactly the results an uncached
//! cluster produces for any program. These tests drive the same
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
use locus_harness::script::{Driver, Op, OpResult, RunOutcome};
use locus_kernel::LockOpts;
use locus_sim::DetRng;
use locus_types::{ByteRange, LockRequestMode, SiteId};

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
                // must match across the two runs. A shared one brings the
                // bytes it guards back with the grant: of part of a page for
                // a record, of whole pages for every other lock, which is
                // page-aligned and one to three pages long.
                0 | 1 => {
                    let (pos, len) = if rng.chance(0.5) {
                        (pos, 64)
                    } else {
                        let first = rng.below(3);
                        (first * 1024, (1 + rng.below(3 - first)) * 1024)
                    };
                    ops.push(Op::Seek { ch, pos });
                    ops.push(Op::Lock {
                        ch,
                        len,
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
    build_cluster_with(cached, vec![0; FILE_LEN as usize], SITES)
}

/// Builds a cluster of `sites` sites with `/eq0` on site 0 and `/eq1` on
/// site 1, both holding `contents`, committed.
fn build_cluster_with(cached: bool, contents: Vec<u8>, sites: usize) -> Cluster {
    let c = Cluster::new(sites);
    if !cached {
        for i in 0..sites {
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
    observe_programs(c, seed, &gen_programs(seed), &mut |_, _| {}, FILE_LEN).0
}

/// [`observe`] for given programs, with `hook` run before every driver step.
/// Also returns the first program's results as they are.
fn observe_programs(
    c: &Cluster,
    seed: u64,
    programs: &[(usize, Vec<Op>)],
    hook: &mut dyn FnMut(usize, &Driver<'_>),
    file_len: u64,
) -> (String, Vec<OpResult>) {
    let mut drv = Driver::new(c, seed.wrapping_mul(0x9e37_79b9));
    for (home, ops) in programs {
        drv.spawn(*home, ops.clone());
    }
    let outcome = drv.run_with_hook(hook);
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
    (out, drv.results(0).to_vec())
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
/// pages meanwhile, inside the locked bytes too; when the scanner is a
/// transaction, sometimes a forked member of it that migrates to the storage
/// site and writes there; and, half the time (`always_reboot`: every time),
/// a reboot of the storage site in mid-scan. Returns the programs and the
/// reboot step.
///
/// A reboot empties the storage site's lock list and buffers; the scanner's
/// kernel drops the coverage the old incarnation granted as soon as it hears
/// of the new one (the topology change, or any reply's boot epoch), so no
/// byte it believes locked changes under a local copy.
///
/// The generator keeps clear of one known hole (in ROADMAP's backlog),
/// pinned by an `#[ignore]`d test below: a write invalidates cached pages
/// at the writer's site only, so a transaction re-reading bytes it has
/// cached misses a write a member made to them at another site since. With
/// a migrated member the scanner therefore reads every byte once: no seeks
/// back, no read after the unlock. (Bytes it has *not* read are never cached
/// for a transaction — the fetch is not widened — which is what these runs
/// check.)
fn gen_scan(seed: u64, always_reboot: bool) -> (Vec<(usize, Vec<Op>)>, Option<usize>) {
    let mut rng = DetRng::seeded(seed);
    let reboot = (always_reboot || rng.chance(0.5)).then(|| 8 + rng.below(40) as usize);
    let lock_start = rng.below(1500);
    // Half the locks are long enough for readahead to find whole pages.
    let lock_len = if rng.chance(0.5) {
        200 + rng.below(3000)
    } else {
        3500 + rng.below(2500)
    };
    // One in four is page-aligned at both ends: whole pages and nothing
    // else come back with a shared grant. (Not from page 0: the siblings
    // below need bytes in front of the lock to write to.)
    let (lock_start, lock_len) = if rng.chance(0.25) {
        (
            (lock_start / 1024 + 1) * 1024,
            lock_len.div_ceil(1024) * 1024,
        )
    } else {
        (lock_start, lock_len)
    };
    let lock_end = lock_start + lock_len;
    let mode = if rng.chance(0.7) {
        LockRequestMode::Shared
    } else {
        LockRequestMode::Exclusive
    };
    let in_txn = rng.chance(0.4);
    let member = in_txn && rng.chance(0.6);

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
    let n_reads = lock_len / rec + 3;
    let fork_at = rng.below(3.min(n_reads));
    for i in 0..n_reads {
        if member && i == fork_at {
            // Same transaction, other site: the member goes to the storage
            // site and writes records on the pages the scanner is reading.
            let mut ops = vec![Op::Migrate(SiteId(0))];
            for _ in 0..2 + rng.below(5) {
                ops.push(Op::Seek {
                    ch: 0,
                    pos: lock_start + rng.below(lock_len),
                });
                // Zeros: no other writer and no original byte is one.
                ops.push(Op::Write {
                    ch: 0,
                    data: vec![0; 1 + rng.below(24) as usize],
                });
            }
            scan.push(Op::Fork(ops));
        }
        scan.push(Op::Read { ch: 0, len: rec });
        if !member && rng.chance(0.1) {
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
    if !member {
        scan.push(Op::Seek {
            ch: 0,
            pos: lock_start,
        });
        scan.push(Op::Read { ch: 0, len: rec });
    }
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
            // are widened on; and bytes inside it, which the enforced lock
            // refuses while it stands, identically in both clusters.
            let pos = match rng.below(3) {
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

/// What one generated scan showed: everything observable, rendered; whether
/// the scanner read bytes a migrated member of its transaction had written;
/// and the cluster's counts.
struct ScanRun {
    seen: String,
    read_members_write: bool,
    counts: locus_sim::CountersSnapshot,
    /// Storage-site recalls of queued releases.
    recalls: usize,
}

fn observe_scan(cached: bool, seed: u64, always_reboot: bool) -> ScanRun {
    // A third site, for a writer that is neither the scanner's site nor
    // the storage site.
    let c = build_cluster_with(cached, scan_contents(), SITES + 1);
    let before = c.counters();
    let (programs, reboot) = gen_scan(seed, always_reboot);
    let scan = &programs[0].1;
    let in_txn = matches!(scan.first(), Some(Op::BeginTrans));
    // The scanner's unlock, and the range it releases.
    let unlocked = scan.windows(2).enumerate().find_map(|(i, ops)| match ops {
        [Op::Seek { pos, .. }, Op::Unlock { len, .. }] => Some((i + 1, ByteRange::new(*pos, *len))),
        _ => None,
    });
    let (mut writers, mut wrote) = (String::new(), false);
    let mut hook = |step, drv: &Driver<'_>| {
        if reboot == Some(step) {
            reboot_storage_site(&c);
        }
        // Right after a plain scanner's unlock returns, a writer at the
        // storage site and one at the third site write the bytes it
        // scanned. The release is still on its way; neither may be refused.
        if let Some((i, released)) = unlocked.filter(|_| !wrote && !in_txn) {
            if drv.results(0).len() > i {
                wrote = true;
                writers = unlocked_writes(&c, released);
            }
        }
    };
    let (seen, scanner) = observe_programs(&c, seed, &programs, &mut hook, SCAN_FILE_LEN);
    let seen = format!("{seen}writers after the unlock:\n{writers}");
    ScanRun {
        seen,
        read_members_write: scanner
            .iter()
            .any(|r| matches!(r, OpResult::Data(d) if d.contains(&0))),
        counts: c.counters().since(&before),
        recalls: c.events.count(|e| {
            matches!(
                e,
                locus_sim::Event::Rpc {
                    kind: "LockRecall",
                    ..
                }
            )
        }),
    }
}

/// The writes `observe_scan` makes right after a plain scanner's unlock of
/// `released`: one from site 0, the storage site, and one from site 2, each
/// of a few of the released bytes, committed. Panics if either is refused;
/// renders what each wrote.
fn unlocked_writes(c: &Cluster, released: ByteRange) -> String {
    let mut out = String::new();
    for (site, fill) in [(0, 250u8), (2, 251)] {
        let (k, mut a) = (&c.site(site).kernel, c.account(site));
        let p = k.spawn();
        let range = ByteRange::new(released.start + 8 * site as u64, 8);
        let res = k.open(p, "/eq0", true, &mut a).and_then(|ch| {
            k.lseek(p, ch, range.start, &mut a)?;
            k.write(p, ch, &[fill; 8], &mut a)?;
            k.close(p, ch, &mut a)
        });
        assert_eq!(
            res,
            Ok(()),
            "site {site}'s write of {range} after the unlock"
        );
        let _ = k.exit(p, &mut a);
        out.push_str(&format!("site {site}: {range}\n"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Locked multi-record scans under page-unaligned locks, with sibling
    /// owners writing to the same pages, a member of the scanning
    /// transaction writing from another site and the storage site rebooting
    /// mid-scan: every read of the caching cluster returns what the uncached
    /// one returns, step for step.
    #[test]
    fn locked_scans_match_uncached_reference(seed in any::<u64>()) {
        let cached = observe_scan(true, seed, false).seen;
        let reference = observe_scan(false, seed, false).seen;
        prop_assert_eq!(cached, reference, "cache-visible divergence, seed {}", seed);
    }
}

/// A reboot of the storage site in mid-scan of every seed, with sibling
/// writes inside the locked bytes and transactional scanners. About one
/// seed in twenty diverged while the scanner's lock cache outlived the
/// reboot; it no longer does.
#[test]
fn locked_scans_match_uncached_reference_across_reboot_with_in_lock_writes() {
    for seed in 0..128 {
        let cached = observe_scan(true, seed, true).seen;
        let reference = observe_scan(false, seed, true).seen;
        assert_eq!(cached, reference, "cache-visible divergence, seed {seed}");
    }
}

/// The scan generator really drives what it is meant to compare: widened
/// fetches, readahead and cache hits on one side, none of them on the other.
#[test]
fn locked_scans_exercise_page_fetches_and_readahead() {
    let (mut hits, mut ahead, mut saved, mut members, mut recalls) = (0, 0, 0, 0, 0);
    for seed in 0..24 {
        let on = observe_scan(true, seed, false);
        let off = observe_scan(false, seed, false);
        assert_eq!(on.read_members_write, off.read_members_write, "seed {seed}");
        members += u64::from(on.read_members_write);
        recalls += on.recalls;
        let (on, off) = (on.counts, off.counts);
        assert_eq!((off.page_cache_hits, off.prefetches), (0, 0), "seed {seed}");
        hits += on.page_cache_hits;
        ahead += on.prefetches;
        saved += off.msgs_for(locus_types::Service::File) - on.msgs_for(locus_types::Service::File);
    }
    assert!(hits > 100, "only {hits} cached reads in 24 scans");
    assert!(ahead > 5, "only {ahead} pages read ahead in 24 scans");
    assert!(saved > 100, "only {saved} file messages saved in 24 scans");
    assert!(members > 0, "no scan read a migrated member's write");
    // The writers right after an unlock found its release still queued.
    assert!(recalls > 5, "only {recalls} recalls in 24 scans");
}

// ----- Relocked scans: what a released lock keeps ---------------------------

fn reboot_storage_site(c: &Cluster) {
    c.crash_site(0);
    c.reboot_site(0);
}

/// What a sibling does between the scanner's two scans of `/eq0`.
#[derive(Debug, Clone, Copy)]
enum Between {
    /// A process at `site` overwrites `range` and commits.
    Commit { site: usize, range: ByteRange },
    /// The same, rolled back.
    Abort { site: usize, range: ByteRange },
    /// The same, left uncommitted through the second scan.
    Dirty { site: usize, range: ByteRange },
    /// A process at `site` overwrites `range`; a transaction there locks
    /// `lock` exclusively, adopting every uncommitted byte under it (Section
    /// 3.3 rule 2: the scanner's own, when it has some there, included), and
    /// aborts; then the writer exits.
    AdoptAbort {
        site: usize,
        range: ByteRange,
        lock: ByteRange,
    },
    /// The storage site crashes and reboots.
    Reboot,
}

/// One non-transaction scanner at site 1 — remote from `/eq0` — that
/// sometimes writes a record of its own first, then locks a range shared,
/// reads it record by record, unlocks it, and locks and reads the same pages
/// again, the second lock sometimes shifted within its first page; and what
/// siblings do between the two scans. Half the scans read exactly the locked
/// bytes, the others start a little before the lock and run past it. Most
/// writes land on the pages a grant ships, which are the pages a release
/// keeps. Returns the scanner's program, the number of its operations up to
/// and including the first unlock, and the sibling actions.
fn gen_relock(seed: u64) -> (Vec<Op>, usize, Vec<Between>) {
    let mut rng = DetRng::seeded(seed);
    let lock_start = if rng.chance(0.3) {
        rng.below(2) * 1024
    } else {
        rng.below(2500)
    };
    let lock_len = if rng.chance(0.5) {
        (1 + rng.below(5)) * 1024
    } else {
        100 + rng.below(5000)
    };
    let lock_end = lock_start + lock_len;
    let shipped_end = lock_end.min((lock_start / 1024 + 4) * 1024);
    let spot = |rng: &mut DetRng| {
        if rng.chance(0.7) {
            lock_start + rng.below(shipped_end - lock_start)
        } else {
            lock_start.saturating_sub(200) + rng.below(lock_len + 400)
        }
    };
    let rec = 32 + rng.below(300);
    let own = rng
        .chance(0.5)
        .then(|| ByteRange::new(spot(&mut rng), 1 + rng.below(16)));

    let mut scan = vec![Op::Open {
        name: "/eq0".into(),
        write: true,
    }];
    if let Some(own) = own {
        scan.push(Op::Seek {
            ch: 0,
            pos: own.start,
        });
        // Zeros: no original byte and no sibling's is one.
        scan.push(Op::Write {
            ch: 0,
            data: vec![0; own.len as usize],
        });
    }
    let mut first_scan = 0;
    for pass in 0..2 {
        let start = if pass == 1 && rng.chance(0.5) {
            lock_start + rng.below(600)
        } else {
            lock_start
        };
        let len = lock_end.saturating_sub(start).max(1);
        let (from, reads) = if rng.chance(0.5) {
            (start, len / rec)
        } else {
            (start.saturating_sub(rng.below(150)), len / rec + 2)
        };
        scan.push(Op::Seek { ch: 0, pos: start });
        scan.push(Op::Lock {
            ch: 0,
            len,
            mode: LockRequestMode::Shared,
            opts: LockOpts::default(),
        });
        scan.push(Op::Seek { ch: 0, pos: from });
        for _ in 0..reads {
            scan.push(Op::Read { ch: 0, len: rec });
        }
        scan.push(Op::Seek { ch: 0, pos: start });
        scan.push(Op::Unlock { ch: 0, len });
        if pass == 0 {
            first_scan = scan.len();
        }
    }
    scan.push(Op::Seek {
        ch: 0,
        pos: lock_start,
    });
    scan.push(Op::Read { ch: 0, len: rec });

    let mut between = Vec::new();
    for _ in 0..1 + rng.below(4) {
        let site = rng.below(SITES as u64) as usize;
        let range = ByteRange::new(spot(&mut rng), 1 + rng.below(24));
        between.push(match rng.below(5) {
            0 => Between::Commit { site, range },
            1 => Between::Abort { site, range },
            2 => Between::Dirty { site, range },
            3 => {
                // Over the sibling's record, and mostly over the scanner's
                // own as well.
                let mut lock = range;
                if let Some(own) = own.filter(|_| rng.chance(0.7)) {
                    let start = lock.start.min(own.start);
                    lock = ByteRange::new(start, lock.end().max(own.end()) - start);
                }
                Between::AdoptAbort { site, range, lock }
            }
            _ => Between::Reboot,
        });
    }
    (scan, first_scan, between)
}

/// Carries out the sibling actions, rendering what each returned.
fn run_between(c: &Cluster, actions: &[Between]) -> String {
    let mut out = String::new();
    for (i, act) in actions.iter().enumerate() {
        let fill = 252 + (i % 4) as u8;
        let res = match *act {
            Between::Reboot => {
                reboot_storage_site(c);
                Ok(())
            }
            Between::Commit { site, range }
            | Between::Abort { site, range }
            | Between::Dirty { site, range } => {
                let (k, mut a) = (&c.site(site).kernel, c.account(site));
                let p = k.spawn();
                let res = k.open(p, "/eq0", true, &mut a).and_then(|ch| {
                    k.lseek(p, ch, range.start, &mut a)?;
                    k.write(p, ch, &vec![fill; range.len as usize], &mut a)?;
                    match act {
                        Between::Commit { .. } => k.commit_file(p, ch, &mut a),
                        Between::Abort { .. } => k.abort_file(p, ch, &mut a),
                        _ => Ok(()),
                    }
                });
                // A dirty sibling lives on, and its bytes with it.
                if !matches!(act, Between::Dirty { .. }) {
                    let _ = k.exit(p, &mut a);
                }
                res
            }
            Between::AdoptAbort { site, range, lock } => {
                let (s, mut a) = (c.site(site), c.account(site));
                let (k, writer, txn) = (&s.kernel, s.kernel.spawn(), s.kernel.spawn());
                let res = (|| {
                    let ch = k.open(writer, "/eq0", true, &mut a)?;
                    k.lseek(writer, ch, range.start, &mut a)?;
                    k.write(writer, ch, &vec![fill; range.len as usize], &mut a)?;
                    s.txn.begin_trans(txn, &mut a)?;
                    let ch = k.open(txn, "/eq0", true, &mut a)?;
                    k.lseek(txn, ch, lock.start, &mut a)?;
                    let mode = LockRequestMode::Exclusive;
                    k.lock(txn, ch, lock.len, mode, LockOpts::default(), &mut a)?;
                    s.txn.abort_trans(txn, &mut a)
                })();
                let _ = k.exit(txn, &mut a);
                let _ = k.exit(writer, &mut a);
                res
            }
        };
        out.push_str(&format!("{act:?}: {res:?}\n"));
    }
    out
}

/// What one generated relocked scan showed: everything observable,
/// rendered; the counts of the first scan and of the second; and how many
/// pages site 1 kept between them.
struct RelockRun {
    seen: String,
    first: locus_sim::CountersSnapshot,
    second: locus_sim::CountersSnapshot,
    retained: usize,
}

fn observe_relock(cached: bool, seed: u64) -> RelockRun {
    let c = build_cluster_with(cached, scan_contents(), SITES);
    let start = c.counters();
    let (scan, first_scan, between) = gen_relock(seed);
    let (mut log, mut first, mut mid, mut retained) = (None, start, start, 0);
    let mut hook = |_, drv: &Driver<'_>| {
        if log.is_none() && drv.results(0).len() == first_scan {
            first = c.counters().since(&start);
            retained = c.site(1).kernel.pages.retained_len();
            log = Some(run_between(&c, &between));
            mid = c.counters();
        }
    };
    let (seen, _) = observe_programs(&c, seed, &[(1, scan)], &mut hook, SCAN_FILE_LEN + 64);
    RelockRun {
        seen: format!("{seen}between:\n{}", log.unwrap_or_default()),
        first,
        second: c.counters().since(&mid),
        retained,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A scanner locks, reads and unlocks, then locks and reads the same
    /// pages again; between the two scans siblings commit, roll back, leave
    /// bytes uncommitted, have a transaction adopt uncommitted bytes and
    /// abort, and the storage site reboots. Every read of the caching
    /// cluster — the second scan's,
    /// served from pages the first one left behind — returns what the
    /// uncached one returns, step for step.
    #[test]
    fn relocked_scans_match_uncached_reference(seed in any::<u64>()) {
        let cached = observe_relock(true, seed).seen;
        let reference = observe_relock(false, seed).seen;
        prop_assert_eq!(cached, reference, "cache-visible divergence, seed {}", seed);
    }
}

/// The relock generator really drives what it is meant to compare: the first
/// scan leaves pages behind, and in many runs the second ships fewer than
/// the first did (in the others the siblings changed what was kept) — on the
/// caching side; the other has nothing to keep.
#[test]
fn relocked_scans_reuse_what_the_first_scan_left() {
    let (mut kept, mut fewer) = (0, 0);
    for seed in 0..24 {
        let (on, off) = (observe_relock(true, seed), observe_relock(false, seed));
        assert_eq!(off.retained, 0, "seed {seed}");
        assert_eq!(
            off.first.prefetches + off.second.prefetches,
            0,
            "seed {seed}"
        );
        kept += on.retained;
        fewer += usize::from(on.second.prefetches < on.first.prefetches);
    }
    assert!(kept > 24, "only {kept} pages kept in 24 relocked scans");
    assert!(
        fewer >= 6,
        "only {fewer} of 24 second scans shipped fewer pages"
    );
}

/// A transaction at site 1 locks page 0 of `/eq0` (filled with 1s) and reads
/// its first record; a forked member migrates to the storage site and writes
/// 9s over `member_writes`; the parent then reads `parent_reads`. Returns
/// what the parent saw and the file messages the parent's site sent for it.
fn read_after_migrated_members_write(
    cached: bool,
    member_writes: ByteRange,
    parent_reads: ByteRange,
) -> (Vec<u8>, u64) {
    let c = build_cluster_with(cached, vec![1; FILE_LEN as usize], SITES);
    let (s0, s1) = (c.site(0), c.site(1));
    let (mut a0, mut a1) = (c.account(0), c.account(1));
    let top = s1.kernel.spawn();
    s1.txn.begin_trans(top, &mut a1).unwrap();
    let ch = s1.kernel.open(top, "/eq0", true, &mut a1).unwrap();
    s1.kernel
        .lock(
            top,
            ch,
            1024,
            LockRequestMode::Exclusive,
            LockOpts::default(),
            &mut a1,
        )
        .unwrap();
    assert_eq!(s1.kernel.read(top, ch, 64, &mut a1).unwrap(), vec![1; 64]);

    let member = s1.kernel.fork(top, &mut a1).unwrap();
    s1.kernel.migrate(member, SiteId(0), &mut a1).unwrap();
    s0.kernel
        .lseek(member, ch, member_writes.start, &mut a0)
        .unwrap();
    s0.kernel
        .write(member, ch, &vec![9; member_writes.len as usize], &mut a0)
        .unwrap();

    let before = c.counters();
    s1.kernel
        .lseek(top, ch, parent_reads.start, &mut a1)
        .unwrap();
    let seen = s1.kernel.read(top, ch, parent_reads.len, &mut a1).unwrap();
    let msgs = c
        .counters()
        .since(&before)
        .msgs_for(locus_types::Service::File);
    (seen, msgs)
}

/// A transaction sees its own members' uncommitted writes, wherever they
/// were made: a record the parent has not read yet must come from the
/// storage site even though it shares a locked page with one it has read.
/// (Widening a transaction's fetch to the page made this read stale.)
#[test]
fn transaction_sees_a_migrated_members_write_to_a_page_it_has_read() {
    let record = ByteRange::new(64, 64);
    for cached in [true, false] {
        let (seen, msgs) = read_after_migrated_members_write(cached, record, record);
        assert_eq!(seen, vec![9; 64], "cached {cached}");
        assert_eq!(msgs, 1, "cached {cached}");
    }
}

/// The same, for bytes the parent *has* read and so has cached: nothing
/// tells the parent's site that the member wrote them at another one.
#[test]
#[ignore = "known hole: a write invalidates the owner's cached pages at the writer's site only (ROADMAP backlog)"]
fn transaction_rereads_see_a_migrated_members_write() {
    let record = ByteRange::new(0, 64);
    let (seen, _) = read_after_migrated_members_write(true, record, record);
    assert_eq!(seen, vec![9; 64]);
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
