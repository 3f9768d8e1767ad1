//! The deadlock-detector system process (Section 3.1) finds a genuine
//! cross-site cycle in the wait-for graph it builds from every site's lock
//! tables, and aborting its victim unsticks the schedule.

use locus::deadlock::DeadlockDetector;
use locus::harness::{Cluster, Driver, Op, RunOutcome};
use locus::types::LockRequestMode;
use locus_kernel::LockOpts;

fn ab_ba_programs() -> (Vec<Op>, Vec<Op>) {
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
    (prog("/a", "/b"), prog("/b", "/a"))
}

/// Builds a cluster + driver in a genuinely deadlocked state, or None if the
/// seed serialized the schedule.
fn deadlocked_cluster(seed: u64) -> Option<(Cluster, Driver<'static>)> {
    // The driver borrows the cluster; leak the cluster for test simplicity.
    let c: &'static Cluster = Box::leak(Box::new(Cluster::new(2)));
    let mut setup = Driver::new(c, 1);
    setup.spawn(0, vec![Op::Creat("/a".into()), Op::Creat("/b".into())]);
    assert_eq!(setup.run(), RunOutcome::Completed);
    let (p1, p2) = ab_ba_programs();
    let mut d = Driver::new(c, seed);
    d.spawn(0, p1);
    d.spawn(1, p2);
    match d.run() {
        RunOutcome::Stuck { blocked } if blocked.len() == 2 => {
            // SAFETY-free cheat: the cluster is leaked, so handing back an
            // owned copy of the reference is fine for a test.
            Some((clone_cluster_handle(c), d))
        }
        _ => None,
    }
}

fn clone_cluster_handle(c: &'static Cluster) -> Cluster {
    Cluster {
        sites: c.sites.clone(),
        transport: c.transport.clone(),
        events: c.events.clone(),
        counters: c.counters.clone(),
        model: c.model.clone(),
        registry: c.registry.clone(),
        catalog: c.catalog.clone(),
    }
}

#[test]
fn the_ab_ba_cycle_is_found() {
    let mut found = false;
    for seed in 0..60u64 {
        let Some((c, _d)) = deadlocked_cluster(seed) else {
            continue;
        };
        found = true;
        let cycles = DeadlockDetector::new(c.sites.clone())
            .build_graph()
            .cycles();
        assert_eq!(cycles.len(), 1, "seed {seed}: one AB-BA cycle");
        assert_eq!(cycles[0].len(), 2, "seed {seed}: both transactions on it");
        assert!(cycles[0].iter().all(|o| o.is_transaction()), "seed {seed}");
        break;
    }
    assert!(found, "no seed deadlocked in 60 tries");
}

#[test]
fn run_once_resolves_and_schedule_completes() {
    let mut found = false;
    for seed in 0..60u64 {
        let Some((c, mut d)) = deadlocked_cluster(seed) else {
            continue;
        };
        found = true;
        let detector = DeadlockDetector::new(c.sites.clone());
        let mut acct = c.account(0);
        let resolved = detector.run_once(&mut acct);
        assert_eq!(resolved.len(), 1);
        assert_eq!(d.run(), RunOutcome::Completed, "seed {seed}");
        assert!(detector.build_graph().cycles().is_empty(), "seed {seed}");
        break;
    }
    assert!(found, "no seed deadlocked in 60 tries");
}

#[test]
fn a_healthy_cluster_yields_an_empty_graph() {
    let c = Cluster::new(2);
    let mut setup = Driver::new(&c, 1);
    setup.spawn(0, vec![Op::Creat("/a".into())]);
    assert_eq!(setup.run(), RunOutcome::Completed);
    let detector = DeadlockDetector::new(c.sites.clone());
    assert!(detector.build_graph().is_empty());
    assert!(detector.run_once(&mut c.account(0)).is_empty());
}
