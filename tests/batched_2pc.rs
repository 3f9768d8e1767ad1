//! Network-economy tests for the batched 2PC fan-out: a multi-file
//! transaction must cost at most one network message per participant site
//! per protocol phase, phase-two work queued for the same site coalesces
//! into a single `Msg::Batch`, and a participant crash between the prepares
//! of a fan-out cascades into an abort that rolls back the already-prepared
//! site.

use locus::harness::Cluster;
use locus::kernel::LockOpts;
use locus::sim::Event;
use locus::types::{LockRequestMode, Service, SiteId};

/// Creates `names[i]` at `sites[i]` with initial contents `old!`.
fn seed_files(c: &Cluster, files: &[(usize, &str)]) {
    for &(site, name) in files {
        let mut acct = c.account(site);
        let p = c.site(site).kernel.spawn();
        let ch = c.site(site).kernel.creat(p, name, &mut acct).unwrap();
        c.site(site)
            .kernel
            .write(p, ch, b"old!", &mut acct)
            .unwrap();
        c.site(site).kernel.close(p, ch, &mut acct).unwrap();
    }
}

fn read_value(c: &Cluster, site: usize, name: &str) -> Vec<u8> {
    let mut a = c.account(site);
    let p = c.site(site).kernel.spawn();
    let ch = c.site(site).kernel.open(p, name, false, &mut a).unwrap();
    c.site(site).kernel.read(p, ch, 4, &mut a).unwrap()
}

/// ISSUE acceptance criterion: a two-participant, five-file transaction
/// sends at most one network message per site per 2PC phase.
#[test]
fn commit_sends_one_message_per_site_per_phase() {
    let c = Cluster::new(3);
    // Three files at site 1, two at site 2; coordinator at site 0.
    let files = [
        (1usize, "/a1"),
        (1, "/a2"),
        (1, "/a3"),
        (2, "/b1"),
        (2, "/b2"),
    ];
    seed_files(&c, &files);

    let mut acct = c.account(0);
    let pid = c.site(0).kernel.spawn();
    c.site(0).txn.begin_trans(pid, &mut acct).unwrap();
    for &(_, name) in &files {
        let ch = c.site(0).kernel.open(pid, name, true, &mut acct).unwrap();
        c.site(0).kernel.write(pid, ch, b"new!", &mut acct).unwrap();
    }

    // Phase one: `EndTrans` runs the prepare fan-out synchronously.
    c.events.clear();
    let before = c.counters();
    c.site(0).txn.end_trans(pid, &mut acct).unwrap();
    let after = c.counters();
    // Two participant sites, five files: exactly two network messages, one
    // delegation per site carrying the whole file list (the requester holds
    // no file, so the sites' votes decide).
    assert_eq!(after.messages_sent - before.messages_sent, 2);
    assert_eq!(
        after.msgs_for(Service::Txn) - before.msgs_for(Service::Txn),
        2
    );
    let prepares: Vec<_> = c
        .events
        .all()
        .into_iter()
        .filter(|e| {
            matches!(
                e,
                Event::Rpc {
                    kind: "Delegate",
                    ..
                }
            )
        })
        .collect();
    assert_eq!(prepares.len(), 2, "{prepares:?}");
    for site in [SiteId(1), SiteId(2)] {
        assert_eq!(
            prepares
                .iter()
                .filter(|e| matches!(e, Event::Rpc { to, .. } if *to == site))
                .count(),
            1,
            "site {site} must receive exactly one prepare"
        );
    }

    // Phase two: one Commit per participant site, riding the next message
    // there. With no transaction behind this one, each goes on its own once
    // it has waited a pass (the two riders beginning their wait are that
    // pass's progress). Each site installs and answers that its install has
    // not landed yet; the resend, again after a waiting pass and again one
    // message per site, forces it and is acked.
    for (pass, moved, sent) in [(1, 2, 0), (2, 0, 1), (3, 2, 0), (4, 1, 1usize)] {
        c.events.clear();
        let before = c.counters();
        assert_eq!(
            c.site(0).txn.run_async_work(&mut acct),
            moved,
            "pass {pass}"
        );
        let after = c.counters();
        let messages = after.messages_sent - before.messages_sent;
        assert_eq!(messages, 2 * sent as u64, "pass {pass}");
        for site in [SiteId(1), SiteId(2)] {
            let commits = c
                .events
                .count(|e| matches!(e, Event::Rpc { to, kind: "Commit", .. } if *to == site));
            assert_eq!(commits, sent, "site {site}, pass {pass}");
        }
    }
    assert_eq!(c.site(0).txn.pending_async(), 0);

    for &(site, name) in &files {
        assert_eq!(read_value(&c, site, name), b"new!", "{name}");
    }
}

/// Phase-two work queued for the same storage site — here from two separate
/// transactions — rides one `Msg::Batch`: one network message, counted as a
/// batch, with each member still traced under the Txn service. (Each
/// transaction also writes a file at the requester's own site, whose part
/// of phase two is a step of its own machine and sends nothing.)
#[test]
fn phase_two_commits_to_one_site_coalesce_into_a_batch() {
    let c = Cluster::new(2);
    seed_files(&c, &[(1, "/f1"), (1, "/f2"), (0, "/h1"), (0, "/h2")]);

    let mut acct = c.account(0);
    let mut first = true;
    for names in [["/f1", "/h1"], ["/f2", "/h2"]] {
        let pid = c.site(0).kernel.spawn();
        c.site(0).txn.begin_trans(pid, &mut acct).unwrap();
        for name in names {
            let ch = c.site(0).kernel.open(pid, name, true, &mut acct).unwrap();
            c.site(0).kernel.write(pid, ch, b"new!", &mut acct).unwrap();
        }
        c.events.clear();
        c.site(0).txn.end_trans(pid, &mut acct).unwrap();
        // The second transaction's delegation carries the first's commit.
        let riding = c.events.count(|e| {
            matches!(
                e,
                Event::Rpc {
                    kind: "Commit",
                    batched: true,
                    ..
                }
            )
        });
        assert_eq!(riding, usize::from(!first));
        first = false;
    }

    // Both transactions are past their commit points. Site 1 acked
    // neither commit: neither had landed when it answered. Each goes on its
    // own after a pass with no message to carry it, and both travel in one
    // batch: the first, landed since by the second's vote, is acked from
    // the journal; the second's resend, a pass later and alone, forces it.
    for (pass, done, sent, batches) in [(1, 2, 0, 0), (2, 1, 1, 1), (3, 1, 0, 0), (4, 1, 1, 0u64)] {
        c.events.clear();
        let before = c.counters();
        assert_eq!(c.site(0).txn.run_async_work(&mut acct), done, "pass {pass}");
        let after = c.counters();
        assert_eq!(
            after.messages_sent - before.messages_sent,
            sent,
            "pass {pass}"
        );
        assert_eq!(
            after.batches_sent - before.batches_sent,
            batches,
            "pass {pass}"
        );
    }
    assert_eq!(c.site(0).txn.pending_async(), 0);

    assert_eq!(read_value(&c, 1, "/f1"), b"new!");
    assert_eq!(read_value(&c, 1, "/f2"), b"new!");
}

/// Fault injection: one participant crashes between the prepares of the
/// fan-out. Its vote is missing, which is never a no: the caller hears the
/// transport error and the site that prepared stays in doubt. Once the
/// crashed site is back, the requester's retried inquiry finds no record
/// there — so no vote, ever — and cascades the abort to the site that
/// prepared, rolling its changes back and purging its logs.
#[test]
fn participant_crash_mid_prepare_fanout_cascades_abort() {
    let c = Cluster::new(3);
    seed_files(&c, &[(1, "/a"), (2, "/b")]);

    let mut acct = c.account(0);
    let pid = c.site(0).kernel.spawn();
    c.site(0).txn.begin_trans(pid, &mut acct).unwrap();
    for name in ["/a", "/b"] {
        let ch = c.site(0).kernel.open(pid, name, true, &mut acct).unwrap();
        c.site(0).kernel.write(pid, ch, b"new!", &mut acct).unwrap();
    }

    // Site 2 dies before the fan-out reaches it. The wave prepares site 1
    // (prepare log and yes record written, pages pinned) and fails against
    // site 2.
    c.crash_site(2);
    c.events.clear();
    let before = c.counters();
    let end = c.site(0).txn.end_trans(pid, &mut acct);
    assert!(
        matches!(end, Err(ref e) if !matches!(e, locus::types::Error::TxnAborted(_))),
        "{end:?}"
    );
    assert_eq!(c.counters().txns_aborted, before.txns_aborted);

    // Site 1 prepared, and holds its yes while site 2 is down.
    assert_eq!(
        c.events.count(|e| matches!(
            e,
            Event::Rpc {
                to: SiteId(1),
                kind: "Delegate",
                ..
            }
        )),
        1
    );
    c.drain_async();
    let mut a1 = c.account(1);
    let home1 = c.site(1).kernel.home().unwrap();
    assert_eq!(home1.prepare_log_scan(&mut a1).len(), 1);

    // The crashed site recovers knowing nothing of the transaction, so the
    // retried inquiry aborts it, and the cascade rides the asynchronous
    // phase-two queue.
    c.reboot_site(2);
    c.drain_async();
    assert_eq!(c.counters().txns_aborted, before.txns_aborted + 1);
    assert!(
        c.events.count(|e| matches!(
            e,
            Event::Rpc {
                to: SiteId(1),
                kind: "AbortFiles",
                ..
            }
        )) >= 1,
        "abort must cascade to the prepared participant: {:?}",
        c.events.all()
    );

    // The prepared site rolled back: old data, no leftover logs.
    assert_eq!(read_value(&c, 1, "/a"), b"old!");
    assert!(home1.prepare_log_scan(&mut a1).is_empty());
    assert!(home1.coord_log_scan(&mut a1).is_empty());
    assert_eq!(read_value(&c, 2, "/b"), b"old!");
}

/// Every cross-site RPC in a mixed workload is tagged with its service and
/// message kind in the event log.
#[test]
fn every_cross_site_rpc_is_service_tagged() {
    let c = Cluster::new(2);
    seed_files(&c, &[(1, "/t")]);
    c.events.clear();

    let mut acct = c.account(0);
    let pid = c.site(0).kernel.spawn();
    c.site(0).txn.begin_trans(pid, &mut acct).unwrap();
    let ch = c.site(0).kernel.open(pid, "/t", true, &mut acct).unwrap();
    // An explicit lock, so the lock service is on the wire: the implicit
    // locks of the read and the write below ride those requests.
    c.site(0)
        .kernel
        .lock(
            pid,
            ch,
            2,
            LockRequestMode::Shared,
            LockOpts::default(),
            &mut acct,
        )
        .unwrap();
    assert_eq!(
        c.site(0).kernel.read(pid, ch, 4, &mut acct).unwrap(),
        b"old!"
    );
    c.site(0).kernel.lseek(pid, ch, 0, &mut acct).unwrap();
    c.site(0).kernel.write(pid, ch, b"new!", &mut acct).unwrap();
    c.site(0).txn.end_trans(pid, &mut acct).unwrap();
    c.drain_async();

    let rpcs: Vec<_> = c
        .events
        .all()
        .into_iter()
        .filter_map(|e| match e {
            Event::Rpc { service, kind, .. } => Some((service, kind)),
            _ => None,
        })
        .collect();
    assert!(!rpcs.is_empty());
    for (_, kind) in &rpcs {
        assert!(!kind.is_empty());
    }
    // The workload exercises at least the file, lock, and txn services.
    for svc in [Service::File, Service::Lock, Service::Txn] {
        assert!(
            rpcs.iter().any(|(s, _)| *s == svc),
            "no {svc:?} RPC traced: {rpcs:?}"
        );
    }
    // Logical per-service counts match the event log.
    let snap = c.counters();
    for svc in [Service::File, Service::Lock, Service::Txn] {
        let logged = rpcs.iter().filter(|(s, _)| *s == svc).count() as u64;
        assert!(snap.msgs_for(svc) >= logged);
    }
}
