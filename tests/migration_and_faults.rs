//! Process migration during transactions, partitions mid-flight, and the
//! deadlock detector resolving real stuck schedules.

use std::sync::Arc;

use locus::deadlock::DeadlockDetector;
use locus::harness::{Cluster, Driver, Op, RunOutcome};
use locus::types::{LockRequestMode, SiteId};
use locus_kernel::LockOpts;

#[test]
fn transaction_commits_after_top_level_migrates_mid_flight() {
    let c = Cluster::new(3);
    // Storage at site 2.
    let mut a2 = c.account(2);
    let p2 = c.site(2).kernel.spawn();
    let ch = c.site(2).kernel.creat(p2, "/data", &mut a2).unwrap();
    c.site(2).kernel.close(p2, ch, &mut a2).unwrap();

    let mut d = Driver::new(&c, 77);
    d.spawn(
        0,
        vec![
            Op::BeginTrans,
            Op::Open {
                name: "/data".into(),
                write: true,
            },
            Op::Write {
                ch: 0,
                data: b"phase-a".to_vec(),
            },
            Op::Migrate(SiteId(1)),
            Op::Seek { ch: 0, pos: 7 },
            Op::Write {
                ch: 0,
                data: b"phase-b".to_vec(),
            },
            Op::Migrate(SiteId(2)),
            Op::EndTrans,
        ],
    );
    assert_eq!(d.run(), RunOutcome::Completed);
    assert!(!d.any_failures(), "{:?}", d.failures());
    c.drain_async();

    // The coordinator was site 2 (the top level's final site).
    let mut a = c.account(2);
    let p = c.site(2).kernel.spawn();
    let ch = c.site(2).kernel.open(p, "/data", false, &mut a).unwrap();
    assert_eq!(
        c.site(2).kernel.read(p, ch, 14, &mut a).unwrap(),
        b"phase-aphase-b"
    );
    assert!(c.counters().migrations >= 2);
}

#[test]
fn children_on_three_sites_merge_file_lists() {
    let c = Cluster::new(3);
    for (site, name) in [(0usize, "/f0"), (1, "/f1"), (2, "/f2")] {
        let mut a = c.account(site);
        let p = c.site(site).kernel.spawn();
        let ch = c.site(site).kernel.creat(p, name, &mut a).unwrap();
        c.site(site).kernel.close(p, ch, &mut a).unwrap();
    }
    let mut d = Driver::new(&c, 31);
    // The parent forks two children; each child migrates to its own site and
    // updates a file there; the parent updates a third.
    let child = |site: u32, name: &str| -> Vec<Op> {
        vec![
            Op::Migrate(SiteId(site)),
            Op::Open {
                name: name.into(),
                write: true,
            },
            Op::Write {
                ch: 0,
                data: format!("from-{site}").into_bytes(),
            },
        ]
    };
    d.spawn(
        0,
        vec![
            Op::BeginTrans,
            Op::Fork(child(1, "/f1")),
            Op::Fork(child(2, "/f2")),
            Op::Open {
                name: "/f0".into(),
                write: true,
            },
            Op::Write {
                ch: 0,
                data: b"from-0".to_vec(),
            },
            Op::EndTrans,
        ],
    );
    assert_eq!(d.run(), RunOutcome::Completed);
    assert!(!d.any_failures(), "{:?}", d.failures());
    c.drain_async();

    for (site, name, want) in [
        (0usize, "/f0", &b"from-0"[..]),
        (1, "/f1", b"from-1"),
        (2, "/f2", b"from-2"),
    ] {
        // Crash to prove durability.
        c.crash_site(site);
        c.reboot_site(site);
        let mut a = c.account(site);
        let p = c.site(site).kernel.spawn();
        let ch = c.site(site).kernel.open(p, name, false, &mut a).unwrap();
        assert_eq!(c.site(site).kernel.read(p, ch, 6, &mut a).unwrap(), want);
    }
}

#[test]
fn deadlocked_schedule_resolved_by_detector() {
    let c = Cluster::new(1);
    let mut setup = Driver::new(&c, 1);
    setup.spawn(0, vec![Op::Creat("/a".into()), Op::Creat("/b".into())]);
    assert_eq!(setup.run(), RunOutcome::Completed);

    let prog = |first: &str, second: &str| -> Vec<Op> {
        vec![
            Op::BeginTrans,
            Op::Open {
                name: first.into(),
                write: true,
            },
            Op::Open {
                name: second.into(),
                write: true,
            },
            Op::Lock {
                ch: 0,
                len: 1,
                mode: LockRequestMode::Exclusive,
                opts: LockOpts {
                    wait: true,
                    ..LockOpts::default()
                },
            },
            Op::Lock {
                ch: 1,
                len: 1,
                mode: LockRequestMode::Exclusive,
                opts: LockOpts {
                    wait: true,
                    ..LockOpts::default()
                },
            },
            Op::EndTrans,
        ]
    };
    // Find a seed that actually deadlocks (both grab their first lock).
    let mut resolved_any = false;
    for seed in 0..50u64 {
        let c = Cluster::new(1);
        let mut setup = Driver::new(&c, 1);
        setup.spawn(0, vec![Op::Creat("/a".into()), Op::Creat("/b".into())]);
        assert_eq!(setup.run(), RunOutcome::Completed);
        let mut d = Driver::new(&c, seed);
        d.spawn(0, prog("/a", "/b"));
        d.spawn(0, prog("/b", "/a"));
        match d.run() {
            RunOutcome::Completed => continue,
            RunOutcome::Stuck { blocked } => {
                assert_eq!(blocked.len(), 2, "seed {seed}");
                // The Section 3.1 system process takes over.
                let det = DeadlockDetector::new(c.sites.clone());
                let mut acct = c.account(0);
                let resolutions = det.run_once(&mut acct);
                assert_eq!(resolutions.len(), 1, "one cycle, one victim");
                // The survivor can now finish.
                let outcome = d.run();
                assert_eq!(outcome, RunOutcome::Completed, "seed {seed}");
                resolved_any = true;
                break;
            }
        }
    }
    assert!(resolved_any, "no seed produced a deadlock in 50 tries");
}

#[test]
fn partition_then_heal_allows_new_transactions() {
    let c = Cluster::new(2);
    let mut a1 = c.account(1);
    let p1 = c.site(1).kernel.spawn();
    let ch = c.site(1).kernel.creat(p1, "/f", &mut a1).unwrap();
    c.site(1).kernel.close(p1, ch, &mut a1).unwrap();

    // Transaction touches the remote file, then the network splits.
    let mut a0 = c.account(0);
    let pid = c.site(0).kernel.spawn();
    c.site(0).txn.begin_trans(pid, &mut a0).unwrap();
    let ch = c.site(0).kernel.open(pid, "/f", true, &mut a0).unwrap();
    c.site(0)
        .kernel
        .write(pid, ch, b"stranded", &mut a0)
        .unwrap();
    c.transport.partition(&[SiteId(1)]);
    assert!(c.site(0).txn.end_trans(pid, &mut a0).is_err());

    // After healing, a fresh transaction succeeds and the stranded write is
    // nowhere to be seen.
    c.transport.heal();
    let mut a = c.account(0);
    let p = c.site(0).kernel.spawn();
    c.site(0).txn.begin_trans(p, &mut a).unwrap();
    let ch = c.site(0).kernel.open(p, "/f", true, &mut a).unwrap();
    c.site(0).kernel.write(p, ch, b"healed!!", &mut a).unwrap();
    c.site(0).txn.end_trans(p, &mut a).unwrap();
    c.drain_async();

    let mut ar = c.account(1);
    let pr = c.site(1).kernel.spawn();
    let chr = c.site(1).kernel.open(pr, "/f", false, &mut ar).unwrap();
    assert_eq!(
        c.site(1).kernel.read(pr, chr, 8, &mut ar).unwrap(),
        b"healed!!"
    );
}

#[test]
fn replicated_file_served_locally_after_commit() {
    let c = Cluster::new(2);
    let mut a0 = c.account(0);
    let p0 = c.site(0).kernel.spawn();
    let ch = c.site(0).kernel.creat(p0, "/rep", &mut a0).unwrap();
    c.site(0).kernel.close(p0, ch, &mut a0).unwrap();
    c.add_replica("/rep", 0, 1);

    // Transactional update at the primary propagates to the replica.
    let mut a = c.account(0);
    let pid = c.site(0).kernel.spawn();
    c.site(0).txn.begin_trans(pid, &mut a).unwrap();
    let ch = c.site(0).kernel.open(pid, "/rep", true, &mut a).unwrap();
    c.site(0)
        .kernel
        .write(pid, ch, b"everywhere", &mut a)
        .unwrap();
    c.site(0).txn.end_trans(pid, &mut a).unwrap();
    c.drain_async();

    // Reader at site 1 uses its local replica: zero messages.
    let mut a1 = c.account(1);
    let p1 = c.site(1).kernel.spawn();
    let ch1 = c.site(1).kernel.open(p1, "/rep", false, &mut a1).unwrap();
    let msgs_before = a1.messages;
    assert_eq!(
        c.site(1).kernel.read(p1, ch1, 10, &mut a1).unwrap(),
        b"everywhere"
    );
    assert_eq!(a1.messages, msgs_before);
    let _ = Arc::strong_count(&c.sites[0]);
}
