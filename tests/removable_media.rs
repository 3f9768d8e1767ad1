//! Section 4.4's removable-media property: "it is important to assure that
//! logs are stored on the same medium as the files to which they refer;
//! otherwise, logs might not be present at the time that recovery actions
//! are required." Because every volume carries its own coordinator and
//! prepare logs, a volume lifted out of a dead site and mounted elsewhere
//! recovers there, with no access to the dead site's other state.

use locus::harness::Cluster;
use locus::types::{SiteId, TxnStatus};

#[test]
fn volume_carried_to_another_site_recovers_prepared_transaction() {
    let c = Cluster::new(3);
    // Files at sites 1 and 0; transaction coordinated from site 0. (A file
    // at the coordinator keeps the commit two-phase: with site 1 its only
    // participant, site 1 would decide and install at once.)
    for (site, path) in [(1, "/media"), (0, "/local")] {
        let mut a = c.account(site);
        let p = c.site(site).kernel.spawn();
        let ch = c.site(site).kernel.creat(p, path, &mut a).unwrap();
        c.site(site).kernel.close(p, ch, &mut a).unwrap();
    }

    let mut a0 = c.account(0);
    let pid = c.site(0).kernel.spawn();
    c.site(0).txn.begin_trans(pid, &mut a0).unwrap();
    let ch = c.site(0).kernel.open(pid, "/local", true, &mut a0).unwrap();
    c.site(0).kernel.write(pid, ch, b"local", &mut a0).unwrap();
    let ch = c.site(0).kernel.open(pid, "/media", true, &mut a0).unwrap();
    c.site(0)
        .kernel
        .write(pid, ch, b"carried!", &mut a0)
        .unwrap();
    c.site(0).txn.end_trans(pid, &mut a0).unwrap();

    // Site 1 dies for good before phase two reaches it. Its disk — with the
    // data blocks, the shadow pages, AND the prepare log — is physically
    // moved to site 2.
    let volume = c.site(1).kernel.home().unwrap();
    c.transport.site_down(SiteId(1));
    c.drain_async(); // Phase two cannot deliver; stays queued at site 0.
                     // Pulling the disk out of the dead machine: volatile buffers are gone,
                     // the platters (including the prepare log) survive.
    volume.crash();
    volume.reboot();
    c.site(2).kernel.mount(volume.clone());

    // Recovery at site 2 scans the foreign volume, asks the coordinator for
    // the outcome, and installs the logged intentions.
    let mut a2 = c.account(2);
    let mut report = Default::default();
    c.site(2).txn.recover_volume(&volume, &mut a2, &mut report);
    assert_eq!(report.participant_committed, 1, "{report:?}");

    // The committed data is now readable straight off the carried volume.
    let fid = c.catalog.resolve("/media").unwrap().fid;
    let data = volume
        .read(fid, locus::types::ByteRange::new(0, 8), &mut a2)
        .unwrap();
    assert_eq!(data, b"carried!");
    // And the prepare log was purged after installation.
    assert!(volume.prepare_log_scan(&mut a2).is_empty());
}

#[test]
fn resolving_a_carried_record_keeps_the_hosts_own_promise() {
    let c = Cluster::new(3);
    // One transaction from site 0 writes a file at site 1 and one at site 2.
    for (site, path) in [(1, "/carried"), (2, "/own")] {
        let mut a = c.account(site);
        let p = c.site(site).kernel.spawn();
        let ch = c.site(site).kernel.creat(p, path, &mut a).unwrap();
        c.site(site).kernel.close(p, ch, &mut a).unwrap();
    }
    let mut a0 = c.account(0);
    let pid = c.site(0).kernel.spawn();
    c.site(0).txn.begin_trans(pid, &mut a0).unwrap();
    for path in ["/carried", "/own"] {
        let ch = c.site(0).kernel.open(pid, path, true, &mut a0).unwrap();
        c.site(0).kernel.write(pid, ch, b"both", &mut a0).unwrap();
    }
    c.site(0).txn.end_trans(pid, &mut a0).unwrap();

    // Both sites voted yes; before phase two, site 1 dies and its disk is
    // carried to site 2, where its record of the transaction resolves.
    let carried = c.site(1).kernel.home().unwrap();
    c.transport.site_down(SiteId(1));
    carried.crash();
    carried.reboot();
    c.site(2).kernel.mount(carried.clone());
    let mut a2 = c.account(2);
    let mut report = Default::default();
    c.site(2).txn.recover_volume(&carried, &mut a2, &mut report);
    assert_eq!(report.participant_committed, 1, "{report:?}");

    // Site 2 still holds its own promise: a partition from the coordinator
    // leaves it in doubt rather than rolling back a committed write.
    let own = c.site(2).kernel.home().unwrap();
    c.transport.partition(&[SiteId(2)]);
    assert_eq!(own.prepare_log_scan(&mut a2).len(), 1);

    c.transport.heal();
    c.drain_async();
    assert!(own.prepare_log_scan(&mut a2).is_empty());
    let fid = c.catalog.resolve("/own").unwrap().fid;
    let data = own
        .read(fid, locus::types::ByteRange::new(0, 4), &mut a2)
        .unwrap();
    assert_eq!(data, b"both");
}

#[test]
fn carried_volume_with_undecided_coordinator_stays_in_doubt() {
    let c = Cluster::new(3);
    let mut a1 = c.account(1);
    let p1 = c.site(1).kernel.spawn();
    let ch = c.site(1).kernel.creat(p1, "/doubt", &mut a1).unwrap();
    c.site(1).kernel.close(p1, ch, &mut a1).unwrap();

    // Drive phase one by hand, then kill BOTH the coordinator and the
    // participant before any commit mark is written.
    let mut a0 = c.account(0);
    let pid = c.site(0).kernel.spawn();
    let tid = c.site(0).txn.begin_trans(pid, &mut a0).unwrap();
    let ch = c.site(0).kernel.open(pid, "/doubt", true, &mut a0).unwrap();
    c.site(0).kernel.write(pid, ch, b"maybe", &mut a0).unwrap();
    let files: Vec<_> = c
        .site(0)
        .kernel
        .procs
        .get(pid)
        .unwrap()
        .file_list
        .iter()
        .copied()
        .collect();
    c.site(0)
        .kernel
        .home()
        .unwrap()
        .coord_log_put(
            &locus::types::CoordLogRecord {
                tid,
                files: files.clone(),
                status: TxnStatus::Unknown,
            },
            &mut a0,
        )
        .unwrap();
    c.site(0)
        .kernel
        .rpc(
            SiteId(1),
            locus::net::Msg::Txn(locus::net::TxnMsg::Prepare {
                tid,
                coordinator: SiteId(0),
                files: files.iter().map(|f| f.fid).collect(),
                epoch: 0,
            }),
            &mut a0,
        )
        .unwrap();
    let volume = c.site(1).kernel.home().unwrap();
    c.crash_site(0);
    c.transport.site_down(SiteId(1));
    volume.crash();
    volume.reboot();
    c.site(2).kernel.mount(volume.clone());

    // With the coordinator unreachable, recovery must keep the prepare log
    // (in doubt) — it may yet commit.
    let mut a2 = c.account(2);
    let mut report = Default::default();
    c.site(2).txn.recover_volume(&volume, &mut a2, &mut report);
    assert_eq!(report.in_doubt, 1, "{report:?}");
    assert_eq!(volume.prepare_log_scan(&mut a2).len(), 1);

    // The coordinator reboots (recovery aborts the unknown transaction);
    // a second recovery pass on the carried volume now resolves to abort.
    c.reboot_site(0);
    let mut report2 = Default::default();
    c.site(2).txn.recover_volume(&volume, &mut a2, &mut report2);
    assert_eq!(report2.participant_aborted, 1, "{report2:?}");
    let fid = c.catalog.resolve("/doubt").unwrap().fid;
    assert!(volume
        .read(fid, locus::types::ByteRange::new(0, 5), &mut a2)
        .unwrap()
        .is_empty());
}
