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

/// A wait-for edge through a lock its holder has released, while the
/// release still waits for a message to its storage site, is no edge: the
/// detector sends every queued release before it reads the lock tables.
#[test]
fn no_cycle_runs_through_a_released_lock() {
    // `/a` at site 0, `/b` at site 2; P1 at site 1, P2 at site 2.
    let c = Cluster::new(3);
    for (site, name) in [(0, "/a"), (2, "/b")] {
        let k = &c.site(site).kernel;
        let mut acct = c.account(site);
        let p = k.spawn();
        let ch = k.creat(p, name, &mut acct).unwrap();
        k.write(p, ch, &[0; 8], &mut acct).unwrap();
        k.close(p, ch, &mut acct).unwrap();
    }
    let x = LockRequestMode::Exclusive;
    let wait = LockOpts {
        wait: true,
        ..LockOpts::default()
    };
    let (k1, k2) = (&c.site(1).kernel, &c.site(2).kernel);
    let (mut a1, mut a2) = (c.account(1), c.account(2));
    let (p1, p2) = (k1.spawn(), k2.spawn());
    let (a_1, b_1) = (
        k1.open(p1, "/a", true, &mut a1).unwrap(),
        k1.open(p1, "/b", true, &mut a1).unwrap(),
    );
    let (a_2, b_2) = (
        k2.open(p2, "/a", true, &mut a2).unwrap(),
        k2.open(p2, "/b", true, &mut a2).unwrap(),
    );
    k1.lock(p1, a_1, 8, x, wait, &mut a1).unwrap();
    k2.lock(p2, b_2, 8, x, wait, &mut a2).unwrap();
    // P2 queues behind P1 on `/a`; P1 releases `/a` — the release waits at
    // site 1 — and queues behind P2 on `/b`, at another site.
    assert!(k2.lock(p2, a_2, 8, x, wait, &mut a2).is_err());
    k1.unlock(p1, a_1, 8, &mut a1).unwrap();
    assert!(k1.lock(p1, b_1, 8, x, wait, &mut a1).is_err());
    assert_eq!(k1.releases_pending(), 1);
    let graph = DeadlockDetector::new(c.sites.clone()).build_graph();
    assert!(graph.cycles().is_empty(), "a cycle through a released lock");
    assert_eq!(k1.releases_pending(), 0);
    // P2 now holds both; P1 waits on it alone.
    assert!(k2.take_wakeup(p2));
    k2.lock(p2, a_2, 8, x, wait, &mut a2).unwrap();
    assert_eq!(graph.node_count(), 2);
}
