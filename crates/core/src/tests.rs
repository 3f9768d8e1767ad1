//! Transaction facility tests over a full multi-site cluster (kernel +
//! transaction manager per site, wired through the simulated transport).

use std::sync::Arc;

use locus_disk::SimDisk;
use locus_fs::Volume;
use locus_kernel::{Catalog, Kernel, LockOpts};
use locus_net::SimTransport;
use locus_proc::ProcessRegistry;
use locus_sim::{Account, CostModel, Counters, Event, EventLog, SimDuration, SpanPhase};
use locus_types::{
    ByteRange, Error, LockRequestMode, Owner, Pid, SiteId, TransId, TxnStatus, VolumeId,
};

use crate::manager::EndOutcome;
use crate::site::Site;

pub(crate) struct TestCluster {
    pub sites: Vec<Arc<Site>>,
    pub transport: Arc<SimTransport>,
    pub events: Arc<EventLog>,
    pub counters: Arc<Counters>,
}

impl TestCluster {
    pub fn new(n: usize) -> Self {
        Self::with_model(n, CostModel::default())
    }

    pub fn with_model(n: usize, model: CostModel) -> Self {
        let model = Arc::new(model);
        let counters = Arc::new(Counters::default());
        let events = Arc::new(EventLog::new());
        let registry = Arc::new(ProcessRegistry::new());
        let catalog = Arc::new(Catalog::new());
        let transport = Arc::new(SimTransport::new(
            n,
            model.clone(),
            counters.clone(),
            events.clone(),
        ));
        let mut sites = Vec::new();
        for i in 0..n {
            let sid = SiteId(i as u32);
            let disk = Arc::new(SimDisk::new(8192, model.clone(), counters.clone()));
            let vol = Arc::new(Volume::new(
                VolumeId(i as u32),
                sid,
                disk,
                model.clone(),
                counters.clone(),
                events.clone(),
            ));
            let kernel = Arc::new(Kernel::new(
                sid,
                model.clone(),
                counters.clone(),
                events.clone(),
                vol,
                registry.clone(),
                catalog.clone(),
            ));
            kernel.set_transport(transport.clone());
            let site = Arc::new(Site::new(kernel));
            transport.register(sid, site.clone());
            sites.push(site);
        }
        // Topology changes abort transactions spanning lost sites
        // (Section 4.3).
        let weak: Vec<std::sync::Weak<Site>> = sites.iter().map(Arc::downgrade).collect();
        transport.on_topology_change(Arc::new(move |survivor| {
            if let Some(site) = weak.get(survivor.0 as usize).and_then(|w| w.upgrade()) {
                let mut acct = Account::new(survivor);
                site.txn.on_topology_change(&mut acct);
            }
        }));
        TestCluster {
            sites,
            transport,
            events,
            counters,
        }
    }

    pub fn site(&self, i: usize) -> &Arc<Site> {
        &self.sites[i]
    }

    /// Drains every site's asynchronous phase-two queue: one pass over the
    /// sites, and one more if work is left — a commit answered "not yet
    /// landed" completes on its resend, which forces the frames.
    pub fn drain_async(&self) {
        for _ in 0..2 {
            for s in &self.sites {
                let mut acct = Account::new(s.id());
                s.txn.run_async_work(&mut acct);
            }
            if self.sites.iter().all(|s| s.txn.pending_async() == 0) {
                return;
            }
        }
    }
}

fn acct(i: u32) -> Account {
    Account::new(SiteId(i))
}

/// Creates `/here` at site 0. A transaction that also writes it has a file
/// at the requester, which keeps its commit on two-phase commit instead of
/// handing the decision to its one other storage site.
fn create_here(c: &TestCluster) {
    let (s0, mut a) = (c.site(0), acct(0));
    let p = s0.kernel.spawn();
    let ch = s0.kernel.creat(p, "/here", &mut a).unwrap();
    s0.kernel.close(p, ch, &mut a).unwrap();
}

fn write_here(s0: &Site, pid: Pid, a: &mut Account) {
    let ch = s0.kernel.open(pid, "/here", true, a).unwrap();
    s0.kernel.write(pid, ch, b"here", a).unwrap();
}

#[test]
fn simple_transaction_commits_durably() {
    let c = TestCluster::new(1);
    let s = c.site(0);
    let k = &s.kernel;
    let mut a = acct(0);
    let pid = k.spawn();
    let ch = k.creat(pid, "/f", &mut a).unwrap();
    k.close(pid, ch, &mut a).unwrap();

    let tid = s.txn.begin_trans(pid, &mut a).unwrap();
    let ch = k.open(pid, "/f", true, &mut a).unwrap();
    k.write(pid, ch, b"transactional", &mut a).unwrap();
    let out = s.txn.end_trans(pid, &mut a).unwrap();
    assert_eq!(out, EndOutcome::Committed(tid));
    c.drain_async();

    s.crash();
    let mut ra = acct(0);
    s.reboot_and_recover(&mut ra);
    let p2 = k.spawn();
    let ch2 = k.open(p2, "/f", false, &mut ra).unwrap();
    assert_eq!(k.read(p2, ch2, 13, &mut ra).unwrap(), b"transactional");
}

#[test]
fn figure5_io_counts_for_simple_transaction() {
    // Figure 5 prices a simple one-page, one-file transaction at 4 I/Os
    // before completing (coordinator log, data flush, prepare log, commit
    // mark) and 1 more asynchronously for the inode install. Here the
    // install is a record in the journal that holds the durable mark, and
    // rides its next force.
    let c = TestCluster::new(1);
    let s = c.site(0);
    let k = &s.kernel;
    let mut a = acct(0);
    let pid = k.spawn();
    let ch = k.creat(pid, "/f", &mut a).unwrap();
    s.txn.begin_trans(pid, &mut a).unwrap();
    k.write(pid, ch, b"x", &mut a).unwrap();

    let before = a.clone();
    s.txn.end_trans(pid, &mut a).unwrap();
    let d = a.delta_since(&before);
    // With the commit journal the coordinator record, the local prepare
    // record and the commit mark are three frames of one log, and the
    // mark's group-commit flush is the only force: a prepare record ahead
    // of the mark in the same journal is durable whenever the mark is.
    assert_eq!(d.total_ios(), 2, "data flush + commit-mark flush");

    let mut bg = acct(0);
    s.txn.run_async_work(&mut bg);
    // The inode record, the prepare record's truncation and the purge of
    // the coordinator record are all appends that ride the next commit's
    // flush: the journal holds the durable mark, and recovery would redo
    // the install from it.
    assert_eq!(bg.total_ios(), 0, "the install rides the next force");
    let home = s.kernel.home().unwrap();
    assert_eq!(home.disk().journal_frame_counts().1, 3);
}

#[test]
fn figure5_footnote9_doubles_log_writes() {
    // With the 1985 prototype's double log appends, the one journal flush
    // costs two I/Os: 3 before completion instead of 2.
    let c = TestCluster::with_model(1, CostModel::paper_1985());
    let s = c.site(0);
    let k = &s.kernel;
    let mut a = acct(0);
    let pid = k.spawn();
    let ch = k.creat(pid, "/f", &mut a).unwrap();
    s.txn.begin_trans(pid, &mut a).unwrap();
    k.write(pid, ch, b"x", &mut a).unwrap();
    let before = a.clone();
    s.txn.end_trans(pid, &mut a).unwrap();
    assert_eq!(a.delta_since(&before).total_ios(), 3);
}

#[test]
fn multi_page_transaction_repeats_only_data_flush() {
    // Section 6.1: extra records in the same file add only step-2 I/Os.
    let c = TestCluster::new(1);
    let s = c.site(0);
    let k = &s.kernel;
    let mut a = acct(0);
    let pid = k.spawn();
    let ch = k.creat(pid, "/f", &mut a).unwrap();
    s.txn.begin_trans(pid, &mut a).unwrap();
    for page in 0..4u64 {
        k.lseek(pid, ch, page * 1024, &mut a).unwrap();
        k.write(pid, ch, b"rec", &mut a).unwrap();
    }
    let before = a.clone();
    s.txn.end_trans(pid, &mut a).unwrap();
    // 4 data flushes + 1 commit-mark flush.
    assert_eq!(a.delta_since(&before).total_ios(), 5);
}

#[test]
fn nested_begin_end_pairs_compose() {
    // Section 2's database-subsystem example: the inner EndTrans must not
    // terminate the enclosing transaction.
    let c = TestCluster::new(1);
    let s = c.site(0);
    let k = &s.kernel;
    let mut a = acct(0);
    let pid = k.spawn();
    let ch = k.creat(pid, "/f", &mut a).unwrap();
    let tid = s.txn.begin_trans(pid, &mut a).unwrap();
    // The "database subsystem" brackets its critical section.
    let tid2 = s.txn.begin_trans(pid, &mut a).unwrap();
    assert_eq!(tid, tid2, "nested begin joins the same transaction");
    k.write(pid, ch, b"inner", &mut a).unwrap();
    assert_eq!(s.txn.end_trans(pid, &mut a).unwrap(), EndOutcome::Nested);
    // Still inside the transaction: data is not yet durable.
    k.write(pid, ch, b"outer", &mut a).unwrap();
    assert_eq!(
        s.txn.end_trans(pid, &mut a).unwrap(),
        EndOutcome::Committed(tid)
    );
    assert_eq!(
        c.counters.snapshot().txns_committed,
        1,
        "exactly one transaction committed"
    );
}

#[test]
fn abort_rolls_back_everything() {
    let c = TestCluster::new(1);
    let s = c.site(0);
    let k = &s.kernel;
    let mut a = acct(0);
    let pid = k.spawn();
    let ch = k.creat(pid, "/f", &mut a).unwrap();
    k.write(pid, ch, b"stable", &mut a).unwrap();
    k.close(pid, ch, &mut a).unwrap();

    s.txn.begin_trans(pid, &mut a).unwrap();
    let ch = k.open(pid, "/f", true, &mut a).unwrap();
    k.write(pid, ch, b"GARBAGE", &mut a).unwrap();
    s.txn.abort_trans(pid, &mut a).unwrap();

    // The top-level process continues as a non-transaction process and sees
    // the pre-transaction contents.
    assert!(k.procs.get(pid).unwrap().tid.is_none());
    let mut a2 = acct(0);
    let ch2 = k.open(pid, "/f", false, &mut a2).unwrap();
    assert_eq!(k.read(pid, ch2, 6, &mut a2).unwrap(), b"stable");
}

#[test]
fn distributed_transaction_two_participants() {
    let c = TestCluster::new(3);
    let (s0, s1, s2) = (c.site(0), c.site(1), c.site(2));
    let mut a1 = acct(1);
    let mut a2 = acct(2);
    // Files stored at sites 1 and 2.
    let p1 = s1.kernel.spawn();
    let chx = s1.kernel.creat(p1, "/x", &mut a1).unwrap();
    s1.kernel.close(p1, chx, &mut a1).unwrap();
    let p2 = s2.kernel.spawn();
    let chy = s2.kernel.creat(p2, "/y", &mut a2).unwrap();
    s2.kernel.close(p2, chy, &mut a2).unwrap();

    // A transaction at site 0 updates both, transparently.
    let mut a0 = acct(0);
    let pid = s0.kernel.spawn();
    let tid = s0.txn.begin_trans(pid, &mut a0).unwrap();
    let cx = s0.kernel.open(pid, "/x", true, &mut a0).unwrap();
    let cy = s0.kernel.open(pid, "/y", true, &mut a0).unwrap();
    s0.kernel.write(pid, cx, b"XX", &mut a0).unwrap();
    s0.kernel.write(pid, cy, b"YY", &mut a0).unwrap();
    assert_eq!(
        s0.txn.end_trans(pid, &mut a0).unwrap(),
        EndOutcome::Committed(tid)
    );
    c.drain_async();

    // Both participants prepared before the commit mark.
    assert!(c.events.happens_before(
        |e| matches!(e, Event::PrepareLog { site, .. } if *site == SiteId(1)),
        |e| matches!(e, Event::CommitMark { .. }),
    ));
    assert!(c.events.happens_before(
        |e| matches!(e, Event::PrepareLog { site, .. } if *site == SiteId(2)),
        |e| matches!(e, Event::CommitMark { .. }),
    ));
    // And the data is durable at both.
    for (s, name, want) in [(s1, "/x", b"XX"), (s2, "/y", b"YY")] {
        s.crash();
        let mut ra = Account::new(s.id());
        s.reboot_and_recover(&mut ra);
        let p = s.kernel.spawn();
        let ch = s.kernel.open(p, name, false, &mut ra).unwrap();
        assert_eq!(s.kernel.read(p, ch, 2, &mut ra).unwrap(), want);
    }
}

#[test]
fn commit_protocol_event_ordering() {
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a1 = acct(1);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/f", &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();

    create_here(&c);
    let mut a0 = acct(0);
    let pid = s0.kernel.spawn();
    s0.txn.begin_trans(pid, &mut a0).unwrap();
    write_here(s0, pid, &mut a0);
    let ch = s0.kernel.open(pid, "/f", true, &mut a0).unwrap();
    s0.kernel.write(pid, ch, b"z", &mut a0).unwrap();
    s0.txn.end_trans(pid, &mut a0).unwrap();
    c.drain_async();

    let ev = &c.events;
    // Coordinator log (unknown) → prepare sent → data flush → prepare log →
    // commit mark → phase-two commit → file commit.
    assert!(ev.happens_before(
        |e| matches!(
            e,
            Event::CoordLog {
                status: TxnStatus::Unknown,
                ..
            }
        ),
        |e| matches!(e, Event::PrepareSent { .. }),
    ));
    assert!(ev.happens_before(
        |e| matches!(e, Event::PrepareSent { .. }),
        |e| matches!(e, Event::DataFlush { .. }),
    ));
    assert!(ev.happens_before(
        |e| matches!(e, Event::DataFlush { .. }),
        |e| matches!(e, Event::PrepareLog { .. }),
    ));
    assert!(ev.happens_before(
        |e| matches!(e, Event::PrepareLog { .. }),
        |e| matches!(e, Event::CommitMark { .. }),
    ));
    assert!(ev.happens_before(
        |e| matches!(e, Event::CommitMark { .. }),
        |e| matches!(e, Event::CommitSent { .. }),
    ));
    assert!(ev.happens_before(
        |e| matches!(e, Event::CommitSent { .. }),
        |e| matches!(e, Event::FileCommit { .. }),
    ));
}

#[test]
fn coordinator_crash_after_commit_mark_recovers_by_redo() {
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a1 = acct(1);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/f", &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();

    create_here(&c);
    let mut a0 = acct(0);
    let pid = s0.kernel.spawn();
    s0.txn.begin_trans(pid, &mut a0).unwrap();
    write_here(s0, pid, &mut a0);
    let ch = s0.kernel.open(pid, "/f", true, &mut a0).unwrap();
    s0.kernel.write(pid, ch, b"committed", &mut a0).unwrap();
    s0.txn.end_trans(pid, &mut a0).unwrap();
    // CRASH the coordinator before phase two runs.
    assert_eq!(s0.txn.pending_async(), 1);
    s0.crash();
    c.transport.site_down(SiteId(0));

    // Reboot: recovery finds the committed coordinator log and re-drives
    // phase two (Section 4.4).
    c.transport.site_up(SiteId(0));
    let mut ra = acct(0);
    let report = s0.reboot_and_recover(&mut ra);
    assert_eq!(report.redone, 1);
    assert_eq!(
        c.events.count(|e| matches!(e, Event::RecoveryRedo { .. })),
        1
    );

    // The participant's data is now durable.
    s1.crash();
    let mut r1 = acct(1);
    s1.reboot_and_recover(&mut r1);
    let p = s1.kernel.spawn();
    let ch = s1.kernel.open(p, "/f", false, &mut r1).unwrap();
    assert_eq!(s1.kernel.read(p, ch, 9, &mut r1).unwrap(), b"committed");
}

#[test]
fn coordinator_crash_before_commit_mark_aborts() {
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a1 = acct(1);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/f", &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();

    // Manufacture the dangerous window: coordinator log written, participant
    // prepared, but NO commit mark — then the coordinator dies.
    let mut a0 = acct(0);
    let pid = s0.kernel.spawn();
    let tid = s0.txn.begin_trans(pid, &mut a0).unwrap();
    let ch = s0.kernel.open(pid, "/f", true, &mut a0).unwrap();
    s0.kernel.write(pid, ch, b"doomed", &mut a0).unwrap();
    let files: Vec<locus_types::FileListEntry> = s0
        .kernel
        .procs
        .get(pid)
        .unwrap()
        .file_list
        .iter()
        .copied()
        .collect();
    s0.kernel
        .home()
        .unwrap()
        .coord_log_put(
            &locus_types::CoordLogRecord {
                tid,
                files: files.clone(),
                status: TxnStatus::Unknown,
            },
            &mut a0,
        )
        .unwrap();
    // The hand-written Unknown record must be durable for the dangerous
    // window to exist; end_trans would leave it to ride the commit-mark
    // flush, but this test crashes before any such flush.
    s0.kernel.home().unwrap().log_barrier(&mut a0).unwrap();
    let fid = files[0].fid;
    s0.kernel
        .rpc(
            SiteId(1),
            locus_net::Msg::Txn(locus_net::TxnMsg::Prepare {
                tid,
                coordinator: SiteId(0),
                files: vec![fid],
                epoch: 0,
            }),
            &mut a0,
        )
        .unwrap();
    s0.crash();

    // Coordinator reboots: the unknown-status log is queued for abort.
    let mut ra = acct(0);
    let report = s0.reboot_and_recover(&mut ra);
    assert_eq!(report.aborted, 1);

    // The participant rolled back; the file keeps its old (empty) contents.
    let p = s1.kernel.spawn();
    let mut r1 = acct(1);
    let ch = s1.kernel.open(p, "/f", false, &mut r1).unwrap();
    assert!(s1.kernel.read(p, ch, 6, &mut r1).unwrap().is_empty());
    // And the participant's prepare log is gone.
    assert!(s1
        .kernel
        .home()
        .unwrap()
        .prepare_log_get(tid, fid, &mut r1)
        .is_none());
}

#[test]
fn participant_crash_after_prepare_resolves_via_status_inquiry() {
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a1 = acct(1);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/f", &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();

    create_here(&c);
    let mut a0 = acct(0);
    let pid = s0.kernel.spawn();
    s0.txn.begin_trans(pid, &mut a0).unwrap();
    write_here(s0, pid, &mut a0);
    let ch = s0.kernel.open(pid, "/f", true, &mut a0).unwrap();
    s0.kernel.write(pid, ch, b"persist", &mut a0).unwrap();
    s0.txn.end_trans(pid, &mut a0).unwrap();

    // The participant crashes after prepare but before phase two arrives.
    s1.crash();
    c.transport.site_down(SiteId(1));
    // Phase two cannot reach it; the work stays queued.
    c.drain_async();
    assert_eq!(s0.txn.pending_async(), 1);

    // Participant reboots and asks the coordinator: committed → install.
    c.transport.site_up(SiteId(1));
    let mut r1 = acct(1);
    let report = s1.reboot_and_recover(&mut r1);
    assert_eq!(report.participant_committed, 1);
    let p = s1.kernel.spawn();
    let ch = s1.kernel.open(p, "/f", false, &mut r1).unwrap();
    assert_eq!(s1.kernel.read(p, ch, 7, &mut r1).unwrap(), b"persist");

    // The coordinator's retried phase two is now harmless (duplicate commit
    // messages cannot produce unintentional failures — temporally unique
    // ids, Section 4.4).
    c.drain_async();
    assert_eq!(s0.txn.pending_async(), 0);
}

#[test]
fn figure2_adoption_preserves_serializability() {
    // The Section 3.3 scenario: a non-transaction updates x[1] and unlocks
    // without committing; a transaction reads x[1] and writes x[2]; the
    // non-transaction then aborts x[1]. Rule 2 makes the transaction adopt
    // x[1], so the abort cannot strand x[2] ≠ x[1].
    let c = TestCluster::new(1);
    let s = c.site(0);
    let k = &s.kernel;
    let mut a = acct(0);

    let setup = k.spawn();
    let ch = k.creat(setup, "/x", &mut a).unwrap();
    k.write(setup, ch, &[0u8; 2], &mut a).unwrap();
    k.close(setup, ch, &mut a).unwrap();

    // Non-transaction program: writelock x[1]; x[1] := C; unlock x[1].
    let nontxn = k.spawn();
    let nch = k.open(nontxn, "/x", true, &mut a).unwrap();
    k.lock(
        nontxn,
        nch,
        1,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();
    k.write(nontxn, nch, b"C", &mut a).unwrap();
    k.lseek(nontxn, nch, 0, &mut a).unwrap();
    k.unlock(nontxn, nch, 1, &mut a).unwrap();

    // Transaction: readlock x[1]; t := x[1]; writelock x[2]; x[2] := t; End.
    let txn = k.spawn();
    s.txn.begin_trans(txn, &mut a).unwrap();
    let tch = k.open(txn, "/x", true, &mut a).unwrap();
    let t = k.read(txn, tch, 1, &mut a).unwrap();
    assert_eq!(t, b"C", "uncommitted data is visible");
    k.write(txn, tch, &t, &mut a).unwrap(); // x[2] := t (offset 1).
    s.txn.end_trans(txn, &mut a).unwrap();
    c.drain_async();

    // The non-transaction now aborts x[1] — but the record was adopted and
    // committed by the transaction, so nothing is lost.
    k.abort_file(nontxn, nch, &mut a).unwrap();

    s.crash();
    let mut ra = acct(0);
    s.reboot_and_recover(&mut ra);
    let p = k.spawn();
    let ch = k.open(p, "/x", false, &mut ra).unwrap();
    let data = k.read(p, ch, 2, &mut ra).unwrap();
    assert_eq!(data, b"CC", "x[1] and x[2] are consistent");
}

#[test]
fn retained_locks_block_until_commit() {
    let c = TestCluster::new(1);
    let s = c.site(0);
    let k = &s.kernel;
    let mut a = acct(0);
    let setup = k.spawn();
    let ch = k.creat(setup, "/f", &mut a).unwrap();
    k.write(setup, ch, &[0u8; 10], &mut a).unwrap();
    k.close(setup, ch, &mut a).unwrap();

    let txn = k.spawn();
    s.txn.begin_trans(txn, &mut a).unwrap();
    let tch = k.open(txn, "/f", true, &mut a).unwrap();
    k.lock(
        txn,
        tch,
        10,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();
    k.write(txn, tch, b"dirty", &mut a).unwrap();
    // Explicit unlock inside the transaction: the lock is RETAINED.
    k.lseek(txn, tch, 0, &mut a).unwrap();
    k.unlock(txn, tch, 10, &mut a).unwrap();

    // Another process still cannot acquire it.
    let other = k.spawn();
    let och = k.open(other, "/f", true, &mut a).unwrap();
    assert!(matches!(
        k.lock(
            other,
            och,
            10,
            LockRequestMode::Shared,
            LockOpts::default(),
            &mut a
        ),
        Err(Error::LockConflict { .. })
    ));

    // Commit releases the retained lock.
    s.txn.end_trans(txn, &mut a).unwrap();
    c.drain_async();
    assert!(k
        .lock(
            other,
            och,
            10,
            LockRequestMode::Shared,
            LockOpts::default(),
            &mut a
        )
        .is_ok());
    assert!(
        c.events
            .count(|e| matches!(e, Event::RetainedReleased { .. }))
            >= 1
    );
}

#[test]
fn child_file_list_merges_into_commit() {
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a1 = acct(1);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/remote", &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();

    let mut a0 = acct(0);
    let parent = s0.kernel.spawn();
    s0.txn.begin_trans(parent, &mut a0).unwrap();
    // The child (same site here) uses a file the parent never touches.
    let child = s0.kernel.fork(parent, &mut a0).unwrap();
    let cch = s0.kernel.open(child, "/remote", true, &mut a0).unwrap();
    s0.kernel.write(child, cch, b"child data", &mut a0).unwrap();

    // EndTrans refuses while the child is alive (Section 4.2: all
    // subprocesses must have completed).
    assert!(matches!(
        s0.txn.end_trans(parent, &mut a0),
        Err(Error::ChildrenActive { .. })
    ));
    s0.kernel.exit(child, &mut a0).unwrap();
    assert!(s0.kernel.take_wakeup(parent));

    // Now the commit includes the child's file.
    s0.txn.end_trans(parent, &mut a0).unwrap();
    c.drain_async();
    assert!(
        c.events
            .count(|e| matches!(e, Event::FileListMerged { .. }))
            >= 1
    );
    let p = s1.kernel.spawn();
    let mut r1 = acct(1);
    let ch = s1.kernel.open(p, "/remote", false, &mut r1).unwrap();
    assert_eq!(s1.kernel.read(p, ch, 10, &mut r1).unwrap(), b"child data");
}

#[test]
fn migrated_top_level_process_still_receives_merges() {
    let c = TestCluster::new(3);
    let (s0, s1, s2) = (c.site(0), c.site(1), c.site(2));
    let mut a2 = acct(2);
    let p2 = s2.kernel.spawn();
    let ch = s2.kernel.creat(p2, "/data", &mut a2).unwrap();
    s2.kernel.close(p2, ch, &mut a2).unwrap();

    let mut a0 = acct(0);
    let top = s0.kernel.spawn();
    s0.txn.begin_trans(top, &mut a0).unwrap();
    let child = s0.kernel.fork(top, &mut a0).unwrap();
    let cch = s0.kernel.open(child, "/data", true, &mut a0).unwrap();
    s0.kernel.write(child, cch, b"payload", &mut a0).unwrap();

    // The top-level process migrates twice; its file-list moves with it.
    s0.kernel.migrate(top, SiteId(1), &mut a0).unwrap();
    let mut am = acct(1);
    s1.kernel.migrate(top, SiteId(2), &mut am).unwrap();

    // The child exits at site 0; the merge chases the top to site 2.
    s0.kernel.exit(child, &mut a0).unwrap();
    let rec = s2.kernel.procs.get(top).unwrap();
    assert!(
        rec.file_list.iter().any(|f| f.storage_site == SiteId(2)),
        "file-list reached the migrated top-level process"
    );

    // EndTrans at the top's current site commits.
    let mut a2b = acct(2);
    s2.txn.end_trans(top, &mut a2b).unwrap();
    c.drain_async();
    let p = s2.kernel.spawn();
    let mut r2 = acct(2);
    let ch = s2.kernel.open(p, "/data", false, &mut r2).unwrap();
    assert_eq!(s2.kernel.read(p, ch, 7, &mut r2).unwrap(), b"payload");
}

#[test]
fn in_transit_merge_bounces_and_retries() {
    // The Section 4.1 race: the file-list arrives while the top-level
    // process is mid-migration. The merge must bounce, then succeed once
    // the migration completes.
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a0 = acct(0);
    let top = s0.kernel.spawn();
    let tid = s0.txn.begin_trans(top, &mut a0).unwrap();

    // Freeze the top mid-migration.
    let blob = s0.kernel.procs.begin_migrate(top).unwrap();
    let entries = vec![locus_types::FileListEntry {
        fid: locus_types::Fid::new(VolumeId(0), 1),
        storage_site: SiteId(0),
        epoch: 0,
    }];
    let child = locus_types::Pid::new(SiteId(0), 99);
    let direct = s0.kernel.procs.member_report(top, child, Some(&entries));
    assert_eq!(direct, Err(Error::InTransit(top)));

    // Migration completes at site 1.
    s1.kernel.procs.finish_migrate_in(&blob).unwrap();
    s0.kernel.procs.finish_migrate_out(top);
    s0.kernel.registry.set(top, SiteId(1));

    // The kernel-level retry loop now lands the merge at the new site.
    s0.kernel
        .report_to_top(tid, top, child, Some(entries), &mut a0)
        .unwrap();
    assert_eq!(s1.kernel.procs.get(top).unwrap().file_list.len(), 1);
}

#[test]
fn a_bounced_member_report_changes_nothing() {
    // A member's exit report that reaches its top-level process mid-migration
    // bounces; the migration then falls through and the top stays. The
    // refused report must not have dropped the member, or the sender's retry
    // would drop a second one.
    let c = TestCluster::new(1);
    let s0 = c.site(0);
    let mut a = acct(0);
    let top = s0.kernel.spawn();
    s0.txn.begin_trans(top, &mut a).unwrap();
    let member = s0.kernel.fork(top, &mut a).unwrap();

    s0.kernel.procs.begin_migrate(top).unwrap();
    let report = locus_net::ProcMsg::MemberExited {
        top,
        member,
        entries: vec![],
    };
    let answer = s0
        .kernel
        .handle_kernel_msg(SiteId(0), locus_net::Msg::Proc(report), &mut a);
    assert_eq!(answer, locus_net::Msg::Err(Error::InTransit(top)));
    s0.kernel.procs.cancel_migrate(top);

    assert_eq!(
        s0.txn.end_trans(top, &mut a),
        Err(Error::ChildrenActive { remaining: 1 })
    );
}

#[test]
fn a_duplicated_member_report_counts_once() {
    // The wire delivers one member's exit report twice. The other member
    // still runs, so EndTrans must keep waiting for it.
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a0 = acct(0);
    let top = s0.kernel.spawn();
    s0.txn.begin_trans(top, &mut a0).unwrap();
    let _stays = s0.kernel.fork(top, &mut a0).unwrap();
    let moves = s0.kernel.fork(top, &mut a0).unwrap();
    s0.kernel.migrate(moves, SiteId(1), &mut a0).unwrap();

    Tap::install(&c, "MemberExited", locus_net::FaultDecision::Duplicate);
    let mut a1 = acct(1);
    s1.kernel.exit(moves, &mut a1).unwrap();
    c.transport.set_fault_injector(None);
    assert_eq!(
        c.events.count(|e| matches!(e, Event::ChaosDup { .. })),
        1,
        "the report was delivered twice"
    );

    assert_eq!(
        s0.txn.end_trans(top, &mut a0),
        Err(Error::ChildrenActive { remaining: 1 })
    );
}

#[test]
fn an_abort_killed_member_releases_its_process_locks() {
    // Section 4.3: the abort terminates the members. A member's
    // non-transaction lock is the process's own, so ending the process must
    // release it, as an exit would.
    let c = TestCluster::new(1);
    let s0 = c.site(0);
    let k = &s0.kernel;
    let mut a = acct(0);
    let setup = k.spawn();
    let ch0 = k.creat(setup, "/f", &mut a).unwrap();
    k.write(setup, ch0, &[0u8; 8], &mut a).unwrap();
    k.close(setup, ch0, &mut a).unwrap();

    let top = k.spawn();
    s0.txn.begin_trans(top, &mut a).unwrap();
    let member = k.fork(top, &mut a).unwrap();
    let ch = k.open(member, "/f", true, &mut a).unwrap();
    let opts = LockOpts {
        non_transaction: true,
        ..LockOpts::default()
    };
    k.lock(member, ch, 8, LockRequestMode::Exclusive, opts, &mut a)
        .unwrap();

    s0.txn.abort_trans(top, &mut a).unwrap();
    assert!(k.procs.get(member).is_none(), "the abort ended the member");
    assert_eq!(k.orphan_proc_locks(), vec![]);
}

#[test]
fn partition_aborts_cross_partition_transaction() {
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a1 = acct(1);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/f", &mut a1).unwrap();
    s1.kernel.write(p1, ch, &[0u8; 8], &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();

    let mut a0 = acct(0);
    let pid = s0.kernel.spawn();
    s0.txn.begin_trans(pid, &mut a0).unwrap();
    let ch = s0.kernel.open(pid, "/f", true, &mut a0).unwrap();
    s0.kernel
        .lock(
            pid,
            ch,
            8,
            LockRequestMode::Exclusive,
            LockOpts::default(),
            &mut a0,
        )
        .unwrap();
    s0.kernel.write(pid, ch, b"unstable", &mut a0).unwrap();

    // Partition: site 1 can no longer see site 0 (the transaction's home).
    c.transport.partition(&[SiteId(1)]);

    // Site 1's topology handler rolled back the intruder's locks and data.
    let snap = s1.kernel.locks.snapshot();
    assert!(snap.held.is_empty(), "locks released: {snap:?}");
    let p = s1.kernel.spawn();
    let mut r1 = acct(1);
    let ch2 = s1.kernel.open(p, "/f", false, &mut r1).unwrap();
    assert_eq!(s1.kernel.read(p, ch2, 8, &mut r1).unwrap(), vec![0u8; 8]);

    // The transaction cannot commit after the heal-less partition: EndTrans
    // fails at prepare and aborts.
    assert!(matches!(
        s0.txn.end_trans(pid, &mut a0),
        Err(Error::TxnAborted(_)) | Err(Error::Partitioned { .. })
    ));
}

#[test]
fn partition_after_a_yes_vote_leaves_the_participant_in_doubt() {
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a1 = acct(1);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/f", &mut a1).unwrap();
    s1.kernel.write(p1, ch, &[0u8; 8], &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();
    let fid = s1.kernel.catalog.resolve("/f").unwrap().fid;

    create_here(&c);
    let mut a0 = acct(0);
    let pid = s0.kernel.spawn();
    let tid = s0.txn.begin_trans(pid, &mut a0).unwrap();
    write_here(s0, pid, &mut a0);
    let ch = s0.kernel.open(pid, "/f", true, &mut a0).unwrap();
    s0.kernel.write(pid, ch, b"promised", &mut a0).unwrap();
    // Site 1 votes yes and the commit mark is written; phase two is queued.
    assert_eq!(
        s0.txn.end_trans(pid, &mut a0).unwrap(),
        EndOutcome::Committed(tid)
    );

    // The coordinator's site vanishes before phase two reaches site 1.
    c.transport.partition(&[SiteId(1)]);
    let vol = s1.kernel.volume(fid.volume).unwrap();
    let holds_locks = || s1.kernel.locks.owner_has_locks(Owner::Trans(tid));
    assert!(
        vol.prepare_log_get(tid, fid, &mut a1).is_some(),
        "a prepared participant keeps its prepare log"
    );
    assert!(holds_locks(), "and its locks");
    c.drain_async();
    assert_eq!(s0.txn.pending_async(), 1, "phase two waits for the heal");

    c.transport.heal();
    c.drain_async();
    assert_eq!(s0.txn.pending_async(), 0);
    assert!(vol.prepare_log_get(tid, fid, &mut a1).is_none());
    assert!(!holds_locks());
    let p = s1.kernel.spawn();
    let ch = s1.kernel.open(p, "/f", false, &mut a1).unwrap();
    assert_eq!(s1.kernel.read(p, ch, 8, &mut a1).unwrap(), b"promised");
}

#[test]
fn trivial_transaction_costs_no_io() {
    let c = TestCluster::new(1);
    let s = c.site(0);
    let mut a = acct(0);
    let pid = s.kernel.spawn();
    s.txn.begin_trans(pid, &mut a).unwrap();
    let before = a.clone();
    s.txn.end_trans(pid, &mut a).unwrap();
    assert_eq!(a.delta_since(&before).total_ios(), 0);
}

#[test]
fn end_trans_outside_transaction_errors() {
    let c = TestCluster::new(1);
    let s = c.site(0);
    let mut a = acct(0);
    let pid = s.kernel.spawn();
    assert_eq!(
        s.txn.end_trans(pid, &mut a).unwrap_err(),
        Error::NotInTransaction
    );
    assert_eq!(
        s.txn.abort_trans(pid, &mut a).unwrap_err(),
        Error::NotInTransaction
    );
}

#[test]
fn duplicate_phase_two_commit_is_idempotent() {
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a1 = acct(1);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/f", &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();

    let mut a0 = acct(0);
    let pid = s0.kernel.spawn();
    let tid = s0.txn.begin_trans(pid, &mut a0).unwrap();
    let ch = s0.kernel.open(pid, "/f", true, &mut a0).unwrap();
    s0.kernel.write(pid, ch, b"once", &mut a0).unwrap();
    let files: Vec<_> = s0
        .kernel
        .procs
        .get(pid)
        .unwrap()
        .file_list
        .iter()
        .map(|f| f.fid)
        .collect();
    s0.txn.end_trans(pid, &mut a0).unwrap();
    c.drain_async();

    // A duplicate commit message (e.g. from recovery) is harmless.
    let resp = s0
        .kernel
        .rpc(
            SiteId(1),
            locus_net::Msg::Txn(locus_net::TxnMsg::Commit { tid, files }),
            &mut a0,
        )
        .unwrap();
    assert_eq!(resp, locus_net::Msg::Ok);
    let p = s1.kernel.spawn();
    let mut r1 = acct(1);
    let ch = s1.kernel.open(p, "/f", false, &mut r1).unwrap();
    assert_eq!(s1.kernel.read(p, ch, 4, &mut r1).unwrap(), b"once");
}

#[test]
fn locks_acquired_before_begin_trans_are_not_converted() {
    // Section 3.4's second escape hatch: a lock acquired before BeginTrans
    // keeps its process ownership and is NOT retained by the transaction.
    let c = TestCluster::new(1);
    let s = c.site(0);
    let k = &s.kernel;
    let mut a = acct(0);
    let pid = k.spawn();
    let ch = k.creat(pid, "/f", &mut a).unwrap();
    k.write(pid, ch, &[0u8; 8], &mut a).unwrap();
    k.commit_file(pid, ch, &mut a).unwrap();
    k.lseek(pid, ch, 0, &mut a).unwrap();
    let got = k
        .lock(
            pid,
            ch,
            8,
            LockRequestMode::Exclusive,
            LockOpts::default(),
            &mut a,
        )
        .unwrap();
    assert_eq!(got, ByteRange::new(0, 8));

    s.txn.begin_trans(pid, &mut a).unwrap();
    // Unlocking the pre-transaction lock releases it outright (it is a
    // process-owned, non-transaction lock).
    k.lseek(pid, ch, 0, &mut a).unwrap();
    k.unlock(pid, ch, 8, &mut a).unwrap();
    let other = k.spawn();
    let och = k.open(other, "/f", true, &mut a).unwrap();
    assert!(k
        .lock(
            other,
            och,
            8,
            LockRequestMode::Shared,
            LockOpts::default(),
            &mut a
        )
        .is_ok());
    s.txn.end_trans(pid, &mut a).unwrap();
}

#[test]
fn non_transaction_lock_escapes_two_phase_locking() {
    // Section 3.4's first escape hatch: a non-transaction lock taken inside
    // a transaction may be released before commit.
    let c = TestCluster::new(1);
    let s = c.site(0);
    let k = &s.kernel;
    let mut a = acct(0);
    let setup = k.spawn();
    let ch0 = k.creat(setup, "/cat", &mut a).unwrap();
    k.write(setup, ch0, &[0u8; 8], &mut a).unwrap();
    k.close(setup, ch0, &mut a).unwrap();

    let pid = k.spawn();
    s.txn.begin_trans(pid, &mut a).unwrap();
    let ch = k.open(pid, "/cat", true, &mut a).unwrap();
    k.lock(
        pid,
        ch,
        8,
        LockRequestMode::Exclusive,
        LockOpts {
            non_transaction: true,
            ..LockOpts::default()
        },
        &mut a,
    )
    .unwrap();
    k.lseek(pid, ch, 0, &mut a).unwrap();
    k.unlock(pid, ch, 8, &mut a).unwrap();

    // Released immediately — another process can lock it while the
    // transaction is still open.
    let other = k.spawn();
    let och = k.open(other, "/cat", true, &mut a).unwrap();
    assert!(k
        .lock(
            other,
            och,
            8,
            LockRequestMode::Exclusive,
            LockOpts::default(),
            &mut a
        )
        .is_ok());
}

#[test]
fn recovery_is_idempotent() {
    // Running recovery twice (e.g. a crash during recovery) must not change
    // the outcome or corrupt anything — temporally unique ids make duplicate
    // commit/abort messages harmless (Section 4.4).
    let c = TestCluster::new(2);
    let mut a1 = acct(1);
    let p1 = s_kernel(&c, 1).spawn();
    let ch = s_kernel(&c, 1).creat(p1, "/f", &mut a1).unwrap();
    s_kernel(&c, 1).close(p1, ch, &mut a1).unwrap();

    create_here(&c);
    let mut a0 = acct(0);
    let pid = s_kernel(&c, 0).spawn();
    c.site(0).txn.begin_trans(pid, &mut a0).unwrap();
    write_here(c.site(0), pid, &mut a0);
    let ch = s_kernel(&c, 0).open(pid, "/f", true, &mut a0).unwrap();
    s_kernel(&c, 0).write(pid, ch, b"twice", &mut a0).unwrap();
    c.site(0).txn.end_trans(pid, &mut a0).unwrap();
    c.site(0).crash();

    let mut ra = acct(0);
    let r1 = c.site(0).reboot_and_recover(&mut ra);
    assert_eq!(r1.redone, 1);
    // Second recovery pass: the log was purged after phase two completed.
    let r2 = c.site(0).reboot_and_recover(&mut ra);
    assert_eq!(r2.redone, 0);
    assert_eq!(r2.aborted, 0);

    let p = s_kernel(&c, 1).spawn();
    let mut r = acct(1);
    let ch = s_kernel(&c, 1).open(p, "/f", false, &mut r).unwrap();
    assert_eq!(s_kernel(&c, 1).read(p, ch, 5, &mut r).unwrap(), b"twice");
}

#[test]
fn member_process_end_trans_is_nested_not_commit() {
    // A member (child) process closing a Begin/End bracket must not commit
    // the enclosing transaction (Section 2).
    let c = TestCluster::new(1);
    let s = c.site(0);
    let mut a = acct(0);
    let top = s.kernel.spawn();
    s.txn.begin_trans(top, &mut a).unwrap();
    let child = s.kernel.fork(top, &mut a).unwrap();
    // The child brackets its own critical section.
    s.txn.begin_trans(child, &mut a).unwrap();
    assert_eq!(s.txn.end_trans(child, &mut a).unwrap(), EndOutcome::Nested);
    // Even an unmatched EndTrans by the child cannot commit the transaction.
    assert_eq!(s.txn.end_trans(child, &mut a).unwrap(), EndOutcome::Nested);
    assert_eq!(c.counters.snapshot().txns_committed, 0);
    s.kernel.exit(child, &mut a).unwrap();
    s.kernel.take_wakeup(top);
    assert!(matches!(
        s.txn.end_trans(top, &mut a).unwrap(),
        EndOutcome::Committed(_)
    ));
}

fn s_kernel(c: &TestCluster, i: usize) -> &Arc<locus_kernel::Kernel> {
    &c.site(i).kernel
}

#[test]
fn child_issued_abort_kills_members_and_spares_top() {
    // "When any process within a transaction fails, or issues an AbortTrans
    // call, the entire transaction must abort" (Section 4.3) — the cascade
    // terminates member processes; the top level continues, detransacted.
    let c = TestCluster::new(2);
    let s0 = c.site(0);
    let mut a = acct(0);
    let top = s0.kernel.spawn();
    s0.txn.begin_trans(top, &mut a).unwrap();
    let ch = s0.kernel.creat(top, "/f", &mut a).unwrap();
    s0.kernel.write(top, ch, b"gone", &mut a).unwrap();
    let child = s0.kernel.fork(top, &mut a).unwrap();
    let grandchild = s0.kernel.fork(child, &mut a).unwrap();

    // The grandchild aborts the whole transaction.
    s0.txn.abort_trans(grandchild, &mut a).unwrap();

    assert!(
        s0.kernel.procs.get(top).unwrap().tid.is_none(),
        "top survives"
    );
    assert!(s0.kernel.procs.get(child).is_none(), "child terminated");
    assert!(
        s0.kernel.procs.get(grandchild).is_none(),
        "grandchild terminated"
    );
    // The top's write was rolled back.
    let mut a2 = acct(0);
    let p = s0.kernel.spawn();
    let ch2 = s0.kernel.open(p, "/f", false, &mut a2).unwrap();
    assert!(s0.kernel.read(p, ch2, 4, &mut a2).unwrap().is_empty());
}

#[test]
fn commit_includes_files_only_read_by_the_transaction() {
    // Files used read-only still ride the file-list into two-phase commit
    // (their prepare is trivial) and their retained locks release on commit.
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a1 = acct(1);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/ro", &mut a1).unwrap();
    s1.kernel.write(p1, ch, b"shared", &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();

    let mut a0 = acct(0);
    let pid = s0.kernel.spawn();
    s0.txn.begin_trans(pid, &mut a0).unwrap();
    let ch = s0.kernel.open(pid, "/ro", true, &mut a0).unwrap();
    // Implicit shared lock via the read.
    assert_eq!(s0.kernel.read(pid, ch, 6, &mut a0).unwrap(), b"shared");
    s0.txn.end_trans(pid, &mut a0).unwrap();
    c.drain_async();
    // Lock released after commit; a writer can proceed.
    let w = s1.kernel.spawn();
    let wch = s1.kernel.open(w, "/ro", true, &mut a1).unwrap();
    assert!(s1
        .kernel
        .lock(
            w,
            wch,
            6,
            LockRequestMode::Exclusive,
            LockOpts::default(),
            &mut a1
        )
        .is_ok());
}

#[test]
fn begin_after_commit_starts_fresh_transaction() {
    let c = TestCluster::new(1);
    let s = c.site(0);
    let mut a = acct(0);
    let pid = s.kernel.spawn();
    let t1 = s.txn.begin_trans(pid, &mut a).unwrap();
    s.txn.end_trans(pid, &mut a).unwrap();
    let t2 = s.txn.begin_trans(pid, &mut a).unwrap();
    assert_ne!(t1, t2, "transaction ids are temporally unique");
    s.txn.end_trans(pid, &mut a).unwrap();
}

// ----- What the single-force commit relies on --------------------------------

/// Commits `data` at offset 0 of `name` in a transaction of its own and runs
/// phase two.
fn commit_record(s: &Site, name: &str, data: &[u8], a: &mut Account) -> Result<(), Error> {
    let pid = s.kernel.spawn();
    s.txn.begin_trans(pid, a)?;
    let ch = s.kernel.open(pid, name, true, a)?;
    s.kernel.write(pid, ch, data, a)?;
    let res = s.txn.end_trans(pid, a).map(|_| ());
    s.txn.run_async_work(a);
    res
}

fn read_record(s: &Site, name: &str, len: u64, a: &mut Account) -> Vec<u8> {
    let pid = s.kernel.spawn();
    let ch = s.kernel.open(pid, name, false, a).unwrap();
    s.kernel.read(pid, ch, len, a).unwrap()
}

#[test]
fn single_site_commit_is_one_log_force() {
    // Coordinator record, prepare record, commit mark, and the install and
    // two purges of the transaction before: six frames, all in the home
    // journal, all on the mark's flush.
    let c = TestCluster::new(1);
    let s = c.site(0);
    let mut a = acct(0);
    let pid = s.kernel.spawn();
    let ch = s.kernel.creat(pid, "/f", &mut a).unwrap();
    s.kernel.close(pid, ch, &mut a).unwrap();
    commit_record(s, "/f", b"first", &mut a).unwrap();

    let home = s.kernel.home().unwrap();
    for round in 0..3 {
        let (fl0, fr0, _) = home.journal().flush_stats();
        commit_record(s, "/f", b"again", &mut a).unwrap();
        let (fl1, fr1, _) = home.journal().flush_stats();
        assert_eq!((fl1 - fl0, fr1 - fr0), (1, 6), "round {round}");
    }
}

/// Mounts a second volume at site `i` and creates `name` on it.
fn mount_second_volume(
    c: &TestCluster,
    i: usize,
    name: &str,
    a: &mut Account,
) -> (Arc<Volume>, locus_types::Fid) {
    let s = c.site(i);
    let model = s.kernel.model.clone();
    let disk = Arc::new(SimDisk::new(8192, model.clone(), c.counters.clone()));
    let second = Arc::new(Volume::new(
        VolumeId(9 + i as u32),
        s.id(),
        disk,
        model,
        c.counters.clone(),
        c.events.clone(),
    ));
    s.kernel.mount(second.clone());
    let fid = second.create_file(a).unwrap();
    s.kernel
        .catalog
        .register(name, locus_kernel::FileLoc::single(fid, s.id()))
        .unwrap();
    s.kernel.locks.ensure_file(fid, 0);
    (second, fid)
}

#[test]
fn a_vote_whose_mark_is_in_another_journal_is_durable_before_it_is_cast() {
    use locus_net::{Msg, TxnMsg};
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a0 = acct(0);
    let mut a1 = acct(1);

    // Three files: on the coordinator's home volume, on a second volume
    // mounted at the coordinator's own site, and at a remote site.
    let p = s0.kernel.spawn();
    let ch = s0.kernel.creat(p, "/home", &mut a0).unwrap();
    s0.kernel.close(p, ch, &mut a0).unwrap();
    let (second, fid2) = mount_second_volume(&c, 0, "/second", &mut a0);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/remote", &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();

    let pid = s0.kernel.spawn();
    let tid = s0.txn.begin_trans(pid, &mut a0).unwrap();
    for name in ["/home", "/second", "/remote"] {
        let ch = s0.kernel.open(pid, name, true, &mut a0).unwrap();
        s0.kernel.write(pid, ch, b"vote", &mut a0).unwrap();
    }
    let (remote, local): (Vec<_>, Vec<_>) = s0
        .kernel
        .procs
        .get(pid)
        .unwrap()
        .file_list
        .iter()
        .map(|f| f.fid)
        .partition(|fid| fid.volume == s1.kernel.home_volume);
    assert_eq!((remote.len(), local.len()), (1, 2));
    let yes = |resp: Msg| matches!(resp, Msg::Txn(TxnMsg::PrepareDone { ok: true, .. }));
    let prepare = |files| TxnMsg::Prepare {
        tid,
        coordinator: SiteId(0),
        files,
        epoch: 0,
    };

    // Remote participant: the record is on the platters when the yes arrives.
    let resp = s0
        .kernel
        .rpc(SiteId(1), Msg::Txn(prepare(remote)), &mut a0)
        .unwrap();
    assert!(yes(resp));
    let durable = s1.kernel.home().unwrap().durable_prepare_records();
    assert_eq!(durable.len(), 1);
    assert_eq!(durable[0].tid, tid);

    // Co-located participant: the second volume's journal will never carry
    // the mark, so its record is forced; the home volume's rides the mark.
    assert!(yes(s0.txn.handle_txn(SiteId(0), prepare(local), &mut a0)));
    let durable = second.durable_prepare_records();
    assert_eq!(durable.len(), 1);
    assert_eq!((durable[0].tid, durable[0].intentions.fid), (tid, fid2));
    let home = s0.kernel.home().unwrap();
    assert!(home.durable_prepare_records().is_empty());
    assert!(home.prepare_log_scan(&mut a0).iter().any(|r| r.tid == tid));
}

#[test]
fn an_acked_commit_on_a_second_volume_survives_recovery() {
    // The prepare record is on the second volume, the coordinator record on
    // the home volume: recovery must ask the home journal what became of
    // the transaction, not the volume it found the prepare record on.
    let c = TestCluster::new(1);
    let s = c.site(0);
    let mut a = acct(0);
    mount_second_volume(&c, 0, "/second", &mut a);
    let pid = s.kernel.spawn();
    s.txn.begin_trans(pid, &mut a).unwrap();
    let ch = s.kernel.open(pid, "/second", true, &mut a).unwrap();
    s.kernel.write(pid, ch, b"acked", &mut a).unwrap();
    s.txn.end_trans(pid, &mut a).unwrap();
    // Crash with phase two still queued.
    s.crash();

    let mut ra = acct(0);
    let report = s.reboot_and_recover(&mut ra);
    assert_eq!(
        (
            report.redone,
            report.participant_committed,
            report.participant_aborted
        ),
        (1, 1, 0),
        "{report:?}"
    );
    assert_eq!(read_record(s, "/second", 5, &mut ra), b"acked");
    s.crash();
    assert_eq!(s.reboot_and_recover(&mut ra), Default::default());
    assert_eq!(read_record(s, "/second", 5, &mut ra), b"acked");
}

#[test]
fn a_carried_second_volume_asks_its_coordinator_and_keeps_an_acked_write() {
    // Site 0 coordinates a write to a file on its second volume and one at
    // site 1. After the durable mark, before phase two, site 0 goes dark
    // and the second volume is carried to site 2. That volume holds the
    // prepare record but no coordinator record — those live on site 0's
    // home volume — so "no record here" must not read as an abort.
    let c = TestCluster::new(3);
    let (s0, s1, s2) = (c.site(0), c.site(1), c.site(2));
    let mut a0 = acct(0);
    let mut a1 = acct(1);
    let (second, fid2) = mount_second_volume(&c, 0, "/second", &mut a0);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/remote", &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();
    let pid = s0.kernel.spawn();
    s0.txn.begin_trans(pid, &mut a0).unwrap();
    for name in ["/second", "/remote"] {
        let ch = s0.kernel.open(pid, name, true, &mut a0).unwrap();
        s0.kernel.write(pid, ch, b"acked", &mut a0).unwrap();
    }
    s0.txn.end_trans(pid, &mut a0).unwrap();

    c.transport.site_down(SiteId(0));
    second.crash();
    second.reboot();
    s2.kernel.mount(second.clone());
    let mut a2 = acct(2);
    let mut report = Default::default();
    s2.txn.recover_volume(&second, &mut a2, &mut report);
    assert_eq!(
        (report.in_doubt, report.participant_aborted),
        (1, 0),
        "{report:?}"
    );
    assert_eq!(second.prepare_log_scan(&mut a2).len(), 1);

    // The coordinator answers again: the carried record installs.
    c.transport.site_up(SiteId(0));
    let mut report = Default::default();
    s2.txn.recover_volume(&second, &mut a2, &mut report);
    assert_eq!(report.participant_committed, 1, "{report:?}");
    let data = second
        .read(fid2, locus_types::ByteRange::new(0, 5), &mut a2)
        .unwrap();
    assert_eq!(data, b"acked");
}

#[test]
fn a_stalled_install_is_nacked_and_keeps_its_promise() {
    use locus_disk::CrashPointMode;
    use locus_net::{Msg, TxnMsg};

    use crate::protocol::Effect;

    let c = TestCluster::new(1);
    let s = c.site(0);
    let mut a = acct(0);
    let pid = s.kernel.spawn();
    let ch = s.kernel.creat(pid, "/f", &mut a).unwrap();
    s.kernel.close(pid, ch, &mut a).unwrap();
    s.txn.begin_trans(pid, &mut a).unwrap();
    let ch = s.kernel.open(pid, "/f", true, &mut a).unwrap();
    s.kernel.write(pid, ch, b"promised", &mut a).unwrap();
    let file_list = s.kernel.procs.get(pid).unwrap().file_list;
    let fids: Vec<_> = file_list.iter().map(|f| f.fid).collect();
    let EndOutcome::Committed(tid) = s.txn.end_trans(pid, &mut a).unwrap() else {
        panic!("top-level EndTrans commits");
    };

    // The disk dies on the next durable mutation: phase two's inode install.
    let home = s.kernel.home().unwrap();
    let disk = home.disk().clone();
    disk.arm_crash_point(disk.mutation_count(), CrashPointMode::Clean);
    s.txn.set_transcript_recording(true);
    let commit = TxnMsg::Commit {
        tid,
        files: fids.clone(),
    };
    let reply = s.txn.handle_txn(SiteId(0), commit, &mut a);
    assert!(disk.tripped());
    assert!(matches!(reply, Msg::Err(Error::DiskOffline)), "{reply:?}");
    // The queued phase two gets the same nack and stays queued.
    assert_eq!(s.txn.run_async_work(&mut a), 0);
    assert_eq!(s.txn.pending_async(), 1);

    // The promise stands: prepare record durable, locks still held.
    let durable = home.durable_prepare_records();
    assert_eq!(durable.len(), 1);
    assert_eq!((durable[0].tid, durable[0].intentions.fid), (tid, fids[0]));
    assert!(s.kernel.locks.owner_has_locks(Owner::Trans(tid)));
    let steps = s.txn.transcripts().participant.steps;
    assert_eq!(
        steps.last().unwrap().effects,
        [Effect::Ack { tid, ok: false }]
    );
}

#[test]
fn a_purge_lost_with_the_volatile_tail_is_redone_once() {
    let c = TestCluster::new(1);
    let s = c.site(0);
    let mut a = acct(0);
    let pid = s.kernel.spawn();
    let ch = s.kernel.creat(pid, "/f", &mut a).unwrap();
    s.kernel.close(pid, ch, &mut a).unwrap();
    commit_record(s, "/f", b"purged", &mut a).unwrap();
    // Phase two installed the inode; the two truncations are buffered.
    let home = s.kernel.home().unwrap();
    assert!(home.coord_log_scan(&mut a).is_empty());
    assert_eq!(home.durable_coord_records().len(), 1);
    s.crash();

    // The `Committed` record resurfaces; redoing its phase two changes
    // nothing, and recovery's own force makes the purge stick.
    let mut ra = acct(0);
    assert_eq!(s.reboot_and_recover(&mut ra).redone, 1);
    assert_eq!(read_record(s, "/f", 6, &mut ra), b"purged");
    s.crash();
    let report = s.reboot_and_recover(&mut ra);
    assert_eq!((report.redone, report.aborted), (0, 0));
    assert_eq!(read_record(s, "/f", 6, &mut ra), b"purged");
    assert!(home.durable_coord_records().is_empty());
    assert!(home.durable_prepare_records().is_empty());
}

#[test]
fn every_crash_point_of_a_single_site_commit_is_all_or_nothing() {
    use locus_disk::{CrashPointMode, MutationKind};
    const OLD: &[u8] = b"old-old-";
    const NEW: &[u8] = b"new-new-";

    // One steady-state site: "/f" holds OLD, committed by a transaction
    // whose purge is still in the journal's volatile tail. Returns with a
    // crash point armed `at` durable mutations into the next commit.
    let armed = |point: Option<(u64, CrashPointMode)>| -> TestCluster {
        let c = TestCluster::new(1);
        let s = c.site(0);
        let mut a = acct(0);
        let pid = s.kernel.spawn();
        let ch = s.kernel.creat(pid, "/f", &mut a).unwrap();
        s.kernel.close(pid, ch, &mut a).unwrap();
        commit_record(s, "/f", OLD, &mut a).unwrap();
        let disk = s.kernel.home().unwrap().disk().clone();
        match point {
            Some((at, mode)) => disk.arm_crash_point(disk.mutation_count() + at, mode),
            None => disk.set_recording(true),
        }
        c
    };

    // Clean run: the mutation stream of `end_trans` + phase two, and what a
    // healthy volume looks like afterwards.
    let c = armed(None);
    let s = c.site(0);
    let home = s.kernel.home().unwrap();
    let mut a = acct(0);
    commit_record(s, "/f", NEW, &mut a).unwrap();
    let stream = home.disk().take_mutation_log();
    let flushes: Vec<u64> = stream
        .iter()
        .filter_map(|m| match m {
            MutationKind::JournalFlush { frames, .. } => Some(*frames),
            _ => None,
        })
        .collect();
    assert_eq!(flushes, [6], "one force, six frames: {stream:?}");
    // The block NEW's install replaced is freed by the flush that lands
    // the install.
    home.log_barrier(&mut a).unwrap();
    let healthy_blocks = home.disk().allocated_count();

    // The byte length of each frame that flush carries: tear it after the
    // last byte, so the whole batch lands and nothing is released.
    let flush_at = stream
        .iter()
        .position(|m| matches!(m, MutationKind::JournalFlush { .. }))
        .unwrap() as u64;
    let whole = CrashPointMode::Torn {
        keep_bytes: usize::MAX,
    };
    let c = armed(Some((flush_at, whole)));
    let home = c.site(0).kernel.home().unwrap();
    commit_record(c.site(0), "/f", NEW, &mut acct(0)).unwrap_err();
    let durable = home.disk().journal_peek();
    let frame_lens: Vec<usize> = durable[durable.len() - 6..].iter().map(Vec::len).collect();

    let mut points = Vec::new();
    for (at, m) in stream.iter().enumerate() {
        let at = at as u64;
        points.push((at, CrashPointMode::Clean));
        points.push((at, CrashPointMode::LostBuffer { max_rollback: 8 }));
        match m {
            MutationKind::Write(_) => points.push((at, CrashPointMode::Torn { keep_bytes: 512 })),
            MutationKind::JournalFlush { .. } => {
                // Torn after each whole frame, the last one included: the
                // mark lands although the call that wrote it fails.
                let mut landed = 0;
                for len in &frame_lens {
                    landed += len;
                    points.push((at, CrashPointMode::Torn { keep_bytes: landed }));
                }
            }
            _ => {}
        }
    }

    let mut outcomes = [0usize; 2];
    for (at, mode) in points {
        let c = armed(Some((at, mode)));
        let s = c.site(0);
        let home = s.kernel.home().unwrap();
        let mut a = acct(0);
        let acked = commit_record(s, "/f", NEW, &mut a).is_ok();
        assert!(home.disk().tripped(), "point {at} {mode:?} never fired");
        s.crash();
        let mut ra = acct(0);
        s.reboot_and_recover(&mut ra);

        let got = read_record(s, "/f", 8, &mut ra);
        assert!(
            got == OLD || got == NEW,
            "point {at} {mode:?}: torn {got:?}"
        );
        assert!(
            !acked || got == NEW,
            "point {at} {mode:?}: acked commit lost"
        );
        outcomes[usize::from(got == NEW)] += 1;

        // One more commit flushes whatever recovery left lazy; after it the
        // volume holds this file's one page and no log record of anyone's.
        commit_record(s, "/f", b"after-it", &mut ra).unwrap();
        home.log_barrier(&mut ra).unwrap();
        assert_eq!(read_record(s, "/f", 8, &mut ra), b"after-it");
        assert!(
            home.durable_coord_records().is_empty(),
            "point {at} {mode:?}"
        );
        assert!(
            home.durable_prepare_records().is_empty(),
            "point {at} {mode:?}"
        );
        assert_eq!(
            home.disk().allocated_count(),
            healthy_blocks,
            "point {at} {mode:?}"
        );
    }
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}

// ----- The install is a journal record ----------------------------------------

/// Writes `data` at `at` of `name` in a transaction of its own and ends it,
/// leaving its phase two queued.
fn acked_record(s: &Site, name: &str, at: u64, data: &[u8], a: &mut Account) -> Result<(), Error> {
    let pid = s.kernel.spawn();
    s.txn.begin_trans(pid, a)?;
    let ch = s.kernel.open(pid, name, true, a)?;
    s.kernel.lseek(pid, ch, at, a)?;
    s.kernel.write(pid, ch, data, a)?;
    s.txn.end_trans(pid, a).map(|_| ())
}

/// Every way to die at each mutation of `stream`, a clean run's mutations
/// on a volume whose journal tail was empty when it began: clean, losing
/// buffered block writes, a torn block, and a flush torn after each whole
/// frame it carries (the last one included: the batch lands although the
/// call that wrote it fails).
fn every_cut(stream: &[locus_disk::MutationKind]) -> Vec<(u64, locus_disk::CrashPointMode)> {
    use locus_disk::{CrashPointMode, MutationKind};
    let mut points = Vec::new();
    let mut buffered = Vec::new();
    for (at, m) in stream.iter().enumerate() {
        let at = at as u64;
        points.push((at, CrashPointMode::Clean));
        points.push((at, CrashPointMode::LostBuffer { max_rollback: 8 }));
        match m {
            MutationKind::Write(_) => points.push((at, CrashPointMode::Torn { keep_bytes: 512 })),
            MutationKind::JournalAppend { frame, .. } => buffered.push(frame.len()),
            MutationKind::JournalFlush { .. } => {
                let mut landed = 0;
                for len in buffered.drain(..) {
                    landed += len;
                    points.push((at, CrashPointMode::Torn { keep_bytes: landed }));
                }
            }
            MutationKind::StablePut(_) => {}
        }
    }
    points
}

/// Replays a one-site crash window at every cut of its clean run.
/// `prologue` builds the site up to the window, whose journal tail must then
/// be empty; `window` runs it and says which of its commits were acked;
/// `check` judges what a crash at a cut, and recovery, left of `/f` (its
/// first `len` bytes). After each, one more commit and a flush must leave
/// the volume with no log record of anyone's and exactly the blocks a
/// crash-free run keeps: a block freed twice, or never, shows there.
fn crash_window(
    prologue: impl Fn(&Site, &mut Account),
    window: impl Fn(&Site, &mut Account) -> Vec<bool>,
    len: u64,
    check: impl Fn(&[u8], &[bool]) -> bool,
) -> [usize; 2] {
    let armed = |point: Option<(u64, locus_disk::CrashPointMode)>| -> TestCluster {
        let c = TestCluster::new(1);
        let s = c.site(0);
        let mut a = acct(0);
        let pid = s.kernel.spawn();
        let ch = s.kernel.creat(pid, "/f", &mut a).unwrap();
        s.kernel.close(pid, ch, &mut a).unwrap();
        prologue(s, &mut a);
        let disk = s.kernel.home().unwrap().disk().clone();
        assert_eq!(
            disk.journal_frame_counts().1,
            0,
            "the window starts flushed"
        );
        match point {
            Some((at, mode)) => disk.arm_crash_point(disk.mutation_count() + at, mode),
            None => disk.set_recording(true),
        }
        c
    };
    let settle = |s: &Site, a: &mut Account| {
        commit_record(s, "/f", b"after-it", a).unwrap();
        s.kernel.home().unwrap().log_barrier(a).unwrap();
    };
    let c = armed(None);
    let (s, mut a) = (c.site(0), acct(0));
    let acked = window(s, &mut a);
    let home = s.kernel.home().unwrap();
    let stream = home.disk().take_mutation_log();
    assert!(acked.iter().all(|ok| *ok));
    assert!(check(&read_record(s, "/f", len, &mut a), &acked));
    settle(s, &mut a);
    let healthy_blocks = home.disk().allocated_count();

    let mut outcomes = [0usize; 2];
    for (at, mode) in every_cut(&stream) {
        let c = armed(Some((at, mode)));
        let (s, mut a) = (c.site(0), acct(0));
        let home = s.kernel.home().unwrap();
        let acked = window(s, &mut a);
        assert!(home.disk().tripped(), "point {at} {mode:?} never fired");
        s.crash();
        let mut ra = acct(0);
        s.reboot_and_recover(&mut ra);
        let got = read_record(s, "/f", len, &mut ra);
        assert!(
            check(&got, &acked),
            "point {at} {mode:?}: {got:?} {acked:?}"
        );
        outcomes[usize::from(acked.iter().all(|ok| *ok))] += 1;
        settle(s, &mut ra);
        assert_eq!(read_record(s, "/f", 8, &mut ra), b"after-it");
        assert!(
            home.durable_coord_records().is_empty(),
            "point {at} {mode:?}"
        );
        assert!(
            home.durable_prepare_records().is_empty(),
            "point {at} {mode:?}"
        );
        assert_eq!(
            home.disk().allocated_count(),
            healthy_blocks,
            "point {at} {mode:?}"
        );
    }
    outcomes
}

#[test]
fn every_crash_point_from_an_install_to_the_next_force_is_all_or_nothing() {
    // NEW is acked with its install still queued; the window is that
    // install — an append riding the home journal, which holds NEW's mark —
    // and the whole of the next commit, whose mark's force lands it.
    let outcomes = crash_window(
        |s, a| {
            commit_record(s, "/f", b"old-old-", a).unwrap();
            acked_record(s, "/f", 0, b"new-new-", a).unwrap();
        },
        |s, a| {
            s.txn.run_async_work(a);
            vec![commit_record(s, "/f", b"next-one", a).is_ok()]
        },
        8,
        |got, acked| got == b"next-one" || (got == b"new-new-" && !acked[0]),
    );
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}

#[test]
fn two_differenced_installs_on_one_page_survive_every_crash_until_the_next_force() {
    // `hot_records`' shape: two transactions hold records on one page when
    // each prepares, so each shadow image is differenced, and the second
    // install finds the page moved and merges onto the first. Both are
    // acked before either installs; a crash anywhere from those installs
    // through the next commit's force keeps both records.
    let both = |s: &Site, a: &mut Account| {
        let (p1, p2) = (s.kernel.spawn(), s.kernel.spawn());
        for (p, at, data) in [(p1, 0, b"first-1!"), (p2, 8, b"second-2")] {
            s.txn.begin_trans(p, a).unwrap();
            let ch = s.kernel.open(p, "/f", true, a).unwrap();
            s.kernel.lseek(p, ch, at, a).unwrap();
            s.kernel.write(p, ch, data, a).unwrap();
        }
        s.txn.end_trans(p1, a).unwrap();
        s.txn.end_trans(p2, a).unwrap();
    };
    let diffed = |s: &Site| s.kernel.counters.snapshot().pages_committed_diff;
    let outcomes = crash_window(
        |s, a| {
            commit_record(s, "/f", &[b'.'; 24], a).unwrap();
            let before = diffed(s);
            both(s, a);
            assert_eq!(diffed(s) - before, 2, "both images differenced");
        },
        |s, a| {
            s.txn.run_async_work(a);
            let mut acked = vec![true];
            let pid = s.kernel.spawn();
            let next = s.txn.begin_trans(pid, a).and_then(|_| {
                let ch = s.kernel.open(pid, "/f", true, a)?;
                s.kernel.lseek(pid, ch, 16, a)?;
                s.kernel.write(pid, ch, b"third-3!", a)?;
                s.txn.end_trans(pid, a)
            });
            acked[0] = next.is_ok();
            s.txn.run_async_work(a);
            acked
        },
        24,
        |got, acked| {
            &got[..16] == b"first-1!second-2"
                && (&got[16..] == b"third-3!" || (!acked[0] && &got[16..] == b"........"))
        },
    );
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}

#[test]
fn an_install_whose_mark_is_in_another_journal_is_not_acked_before_it_lands() {
    use locus_net::{Msg, TxnMsg};
    let commit = |tid, files| Msg::Txn(TxnMsg::Commit { tid, files });
    let flushes = |v: &Volume| v.journal().flush_stats().0;

    // Site 0 coordinates files on its home volume, on a second volume it
    // mounts, and at site 1.
    let c = TestCluster::new(2);
    let (s0, s1) = (c.site(0), c.site(1));
    let (mut a0, mut a1) = (acct(0), acct(1));
    let p = s0.kernel.spawn();
    let ch = s0.kernel.creat(p, "/home", &mut a0).unwrap();
    s0.kernel.close(p, ch, &mut a0).unwrap();
    let (second, fid2) = mount_second_volume(&c, 0, "/second", &mut a0);
    let p1 = s1.kernel.spawn();
    let ch = s1.kernel.creat(p1, "/remote", &mut a1).unwrap();
    s1.kernel.close(p1, ch, &mut a1).unwrap();
    let pid = s0.kernel.spawn();
    let tid = s0.txn.begin_trans(pid, &mut a0).unwrap();
    for name in ["/home", "/second", "/remote"] {
        let ch = s0.kernel.open(pid, name, true, &mut a0).unwrap();
        s0.kernel.write(pid, ch, b"inst", &mut a0).unwrap();
    }
    let fids: Vec<_> = s0
        .kernel
        .procs
        .get(pid)
        .unwrap()
        .file_list
        .iter()
        .map(|f| f.fid)
        .collect();
    s0.txn.end_trans(pid, &mut a0).unwrap();
    let (remote, local): (Vec<_>, Vec<_>) = fids
        .into_iter()
        .partition(|fid| fid.volume == s1.kernel.home_volume);
    let fid_home = *local.iter().find(|f| **f != fid2).unwrap();
    let home = s0.kernel.home().unwrap();
    let peek = |v: &Volume, fid| v.durable_peek(fid, ByteRange::new(0, 4)).unwrap();

    // A remote participant installs, and says its install has not landed:
    // the coordinator, which purges its record on the ack, must ask again.
    // Its next force lands the install, and the resend is acked without one.
    let remote_home = s1.kernel.home().unwrap();
    let resp = s0
        .kernel
        .rpc(SiteId(1), commit(tid, remote.clone()), &mut a0);
    assert_eq!(resp, Err(Error::NotLanded(tid)));
    assert_eq!(read_record(s1, "/remote", 4, &mut a1), b"inst");
    assert_eq!(peek(&remote_home, remote[0]), b"");
    remote_home.log_barrier(&mut a1).unwrap();
    let forced = flushes(&remote_home);
    let resp = s0
        .kernel
        .rpc(SiteId(1), commit(tid, remote.clone()), &mut a0);
    assert_eq!(resp, Ok(Msg::Ok));
    assert_eq!(flushes(&remote_home), forced, "answered from the journal");
    assert_eq!(peek(&remote_home, remote[0]), b"inst");

    // The coordinator's own site: the second volume's journal holds no mark,
    // so its install is forced; the home volume's rides the mark's journal.
    let resp = s0
        .txn
        .handle_txn(SiteId(0), TxnMsg::Commit { tid, files: local }, &mut a0);
    assert_eq!(resp, Msg::Ok);
    assert_eq!(peek(&second, fid2), b"inst");
    assert_eq!(peek(&home, fid_home), b"");
    home.log_barrier(&mut a0).unwrap();
    assert_eq!(peek(&home, fid_home), b"inst");

    // A delegate among peers: neither its install nor its note of the
    // commit is durable, so it does not ack the requester, who would then
    // forget. With no force since, the resend forces both.
    let c = two_delegate_cluster();
    let (tid, pid) = voted_write_open(&c, b"peer-ack");
    let files = c.site(0).kernel.procs.get(pid).unwrap().file_list;
    c.site(0).txn.end_trans(pid, &mut acct(0)).unwrap();
    for i in [1, 2] {
        let fids: Vec<_> = files
            .iter()
            .filter(|f| f.storage_site == SiteId(i))
            .map(|f| f.fid)
            .collect();
        let site = c.site(i as usize).kernel.home().unwrap();
        let resp = c
            .site(0)
            .kernel
            .rpc(SiteId(i), commit(tid, fids.clone()), &mut acct(0));
        assert_eq!(resp, Err(Error::NotLanded(tid)), "site {i}");
        assert_eq!(durable_at(&c, i as usize), [0u8; 8], "site {i}");
        assert!(!site.journal().holds_durable_commit(tid), "site {i}");
        let forced = flushes(&site);
        let resp = c
            .site(0)
            .kernel
            .rpc(SiteId(i), commit(tid, fids), &mut acct(0));
        assert_eq!(resp, Ok(Msg::Ok), "site {i}");
        assert_eq!(flushes(&site), forced + 1, "site {i}");
        assert_eq!(durable_at(&c, i as usize), b"peer-ack", "site {i}");
        assert!(site.journal().holds_durable_commit(tid), "site {i}");
    }
}

#[test]
fn a_single_file_commit_over_a_journaled_install_wins_after_a_crash() {
    // A transaction's install leaves the file's inode in the journal; a
    // single-file commit then writes the stable inode a generation later
    // and truncates the record lazily. The crash loses the truncation: the
    // record resurfaces, older than the stable copy, and is not the file.
    let c = TestCluster::new(1);
    let s = c.site(0);
    let mut a = acct(0);
    let pid = s.kernel.spawn();
    let ch = s.kernel.creat(pid, "/f", &mut a).unwrap();
    s.kernel.close(pid, ch, &mut a).unwrap();
    commit_record(s, "/f", b"txn-rec!", &mut a).unwrap();
    let home = s.kernel.home().unwrap();
    home.log_barrier(&mut a).unwrap();
    assert_eq!(home.journal().inode_scan().len(), 1);
    let ch = s.kernel.open(pid, "/f", true, &mut a).unwrap();
    s.kernel.lseek(pid, ch, 8, &mut a).unwrap();
    s.kernel.write(pid, ch, b"file-rec", &mut a).unwrap();
    s.kernel.close(pid, ch, &mut a).unwrap();
    assert!(home.journal().inode_scan().is_empty());
    s.crash();
    assert_eq!(home.journal().durable_inode_records().len(), 1);
    s.reboot_and_recover(&mut acct(0));
    let mut ra = acct(0);
    assert_eq!(read_record(s, "/f", 16, &mut ra), b"txn-rec!file-rec");
    let fid = s.kernel.catalog.resolve("/f").unwrap().fid;
    assert_eq!(
        home.durable_peek(fid, ByteRange::new(0, 16)).unwrap(),
        b"txn-rec!file-rec"
    );
}

// ----- One prepare wave and one phase-two wave per commit ---------------------

/// A three-site cluster in which site 0 commits one transaction that writes
/// a record into a file stored at each of `storage`. Returns what
/// `end_trans` and the phase-two pump after it were charged.
fn commit_across(storage: &[usize]) -> (TestCluster, Account, Account) {
    let c = TestCluster::new(3);
    for &i in storage {
        let (s, mut a) = (c.site(i), acct(i as u32));
        let p = s.kernel.spawn();
        let ch = s.kernel.creat(p, &format!("/f{i}"), &mut a).unwrap();
        s.kernel.close(p, ch, &mut a).unwrap();
    }
    let s0 = c.site(0);
    let mut a = acct(0);
    let pid = s0.kernel.spawn();
    s0.txn.begin_trans(pid, &mut a).unwrap();
    for &i in storage {
        let ch = s0
            .kernel
            .open(pid, &format!("/f{i}"), true, &mut a)
            .unwrap();
        s0.kernel.write(pid, ch, b"rec", &mut a).unwrap();
    }
    let before = a.clone();
    s0.txn.end_trans(pid, &mut a).unwrap();
    let sync = a.delta_since(&before);
    let mut bg = acct(0);
    s0.txn.run_async_work(&mut bg);
    (c, sync, bg)
}

/// How many times each site forced its home journal.
fn forces(c: &TestCluster) -> Vec<u64> {
    let forces = |s: &Arc<Site>| s.kernel.home().unwrap().journal().flush_stats().0;
    c.sites.iter().map(forces).collect()
}

#[test]
fn two_remote_participants_cost_the_delay_of_one() {
    let (c, two, two_bg) = commit_across(&[1, 2]);
    // Per participant a delegation, a data page and a forced vote; the
    // requester holds no file, so the votes are the decision and it forces
    // no mark. An install each after, not forced: each rides its journal's
    // next force, and is not acked until it lands — the requester forgets
    // on the ack.
    assert_eq!(two.messages, 2);
    assert_eq!(two.total_ios(), 2 * 2);
    assert_eq!((two_bg.messages, two_bg.total_ios()), (2, 0));
    assert_eq!(forces(&c), [0, 1, 1]);
    assert_eq!(c.site(0).txn.pending_async(), 1);
    // In the time of one: both sites prepare at once and install at once,
    // so the caller's commit window is one delegation branch, and the pump
    // waits for one install. The second branch, as long as the first, is
    // all there in `overlapped`.
    let spans = c.counters.spans.snapshot();
    assert_eq!(spans.virt_phase(SpanPhase::Prepare).count, 2);
    let commit = spans.virt_phase(SpanPhase::Commit);
    assert_eq!(commit.count, 1);
    assert_eq!(two.overlapped.as_nanos(), commit.total_ns);
    assert!(two_bg.overlapped > SimDuration::ZERO);
    // With no transaction behind it, the next pump resends the commits, and
    // each site forces its install then.
    let mut bg = acct(0);
    c.site(0).txn.run_async_work(&mut bg);
    assert_eq!((bg.messages, bg.seq_ios, bg.disk_writes), (2, 2, 0));
    assert_eq!(forces(&c), [0, 2, 2]);
    assert_eq!(c.site(0).txn.pending_async(), 0);
}

#[test]
fn one_remote_participant_decides_in_one_message_and_one_force() {
    let (c, one, one_bg) = commit_across(&[1]);
    // The storage site is the only participant, so it decides: one
    // message, and inside it the data page and one force for its vote and
    // its mark together. The install is a record in the journal that holds
    // that mark, and rides its next force. The requester's journal gets
    // nothing and its phase-two queue nothing.
    assert_eq!((one.messages, one.total_ios()), (1, 2));
    assert_eq!((one_bg.messages, one_bg.total_ios()), (0, 0));
    assert_eq!(forces(&c), [0, 1, 0]);
    let home = c.site(0).kernel.home().unwrap();
    assert_eq!(home.disk().journal_frame_counts(), (0, 0));
    assert_eq!(c.site(0).txn.pending_async(), 0);
    assert_eq!(one.overlapped + one_bg.overlapped, SimDuration::ZERO);
    // The delegate keeps its record for the requester, and installed.
    let delegate = c.site(1).kernel.home().unwrap();
    let records = delegate.coord_log_scan(&mut acct(1));
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].status, TxnStatus::Committed);
    assert_eq!(read_record(c.site(1), "/f1", 3, &mut acct(1)), b"rec");
    // A commit across two sites pays a second round trip and a second
    // force; this one does not.
    let (_, two, two_bg) = commit_across(&[1, 2]);
    assert!(one.elapsed < two.elapsed + two_bg.elapsed);
}

#[test]
fn a_wave_on_the_callers_thread_repeats_byte_for_byte() {
    let (a, b) = (commit_across(&[1, 2]).0, commit_across(&[1, 2]).0);
    assert_eq!(a.events.all(), b.events.all());
    assert_eq!(a.counters.spans.snapshot(), b.counters.spans.snapshot());
}

#[test]
fn a_local_and_a_remote_participant_still_force_one_journal_each() {
    // The chaos workload's shape. The wave changes when the two sites are
    // charged, not what they force: the remote vote its own journal, the
    // local vote nothing — it rides the mark's force of the home journal.
    // In phase two neither install is forced: the local one rides the
    // mark's journal, and the remote one waits for its site's next force
    // before it is acked — here the resend's. (Set-up forces no journal, so
    // these are the run's totals.)
    let (c, sync, bg) = commit_across(&[0, 1]);
    assert_eq!(forces(&c), [1, 1, 0]);
    assert_eq!((bg.seq_ios, bg.disk_writes), (0, 0));
    assert_eq!((sync.seq_ios, sync.messages), (2, 1));
    c.site(0).txn.run_async_work(&mut acct(0));
    assert_eq!(forces(&c), [1, 2, 0]);
    assert_eq!(c.site(0).txn.pending_async(), 0);
}

// ----- Commit where the data is ------------------------------------------------

/// Applies `decision` to the first wire message of `kind`.
struct Tap(parking_lot::Mutex<Option<(&'static str, locus_net::FaultDecision)>>);

impl Tap {
    fn install(c: &TestCluster, kind: &'static str, decision: locus_net::FaultDecision) {
        let tap = Tap(parking_lot::Mutex::new(Some((kind, decision))));
        c.transport.set_fault_injector(Some(Arc::new(tap)));
    }
}

impl locus_net::FaultInjector for Tap {
    fn decide(
        &self,
        _: SiteId,
        _: SiteId,
        msg: &locus_net::Msg,
        _: bool,
    ) -> locus_net::FaultDecision {
        let mut fault = self.0.lock();
        match *fault {
            Some((kind, decision)) if kind == msg.kind() => {
                *fault = None;
                decision
            }
            _ => locus_net::FaultDecision::Deliver,
        }
    }
}

/// A two-site cluster with `/f` (eight zero bytes) stored at site 1.
fn remote_file_cluster() -> (TestCluster, locus_types::Fid) {
    let c = TestCluster::new(2);
    let (s1, mut a1) = (c.site(1), acct(1));
    let p = s1.kernel.spawn();
    let ch = s1.kernel.creat(p, "/f", &mut a1).unwrap();
    s1.kernel.write(p, ch, &[0u8; 8], &mut a1).unwrap();
    s1.kernel.close(p, ch, &mut a1).unwrap();
    let fid = s1.kernel.catalog.resolve("/f").unwrap().fid;
    (c, fid)
}

/// Site 0 writes `data` at offset 0 of `/f` in a transaction of its own and
/// ends it.
fn delegated_write(c: &TestCluster, data: &[u8]) -> (TransId, Result<EndOutcome, Error>) {
    let (s0, mut a0) = (c.site(0), acct(0));
    let pid = s0.kernel.spawn();
    let tid = s0.txn.begin_trans(pid, &mut a0).unwrap();
    let ch = s0.kernel.open(pid, "/f", true, &mut a0).unwrap();
    s0.kernel.write(pid, ch, data, &mut a0).unwrap();
    (tid, s0.txn.end_trans(pid, &mut a0))
}

/// The transactions whose coordinator record site 1's journal holds.
fn delegate_records(c: &TestCluster) -> Vec<(TransId, TxnStatus)> {
    let home = c.site(1).kernel.home().unwrap();
    let records = home.coord_log_scan(&mut acct(1));
    records.into_iter().map(|r| (r.tid, r.status)).collect()
}

fn durable(c: &TestCluster, fid: locus_types::Fid) -> Vec<u8> {
    let home = c.site(1).kernel.home().unwrap();
    home.durable_peek(fid, ByteRange::new(0, 8)).unwrap()
}

#[test]
fn a_lost_delegation_answer_is_asked_for_and_the_record_waits_for_the_forget() {
    let (c, fid) = remote_file_cluster();
    Tap::install(&c, "Delegate", locus_net::FaultDecision::DropReply);
    let (first, out) = delegated_write(&c, b"first-1!");
    assert_eq!(out, Ok(EndOutcome::Committed(first)));
    // The install rides the delegate's next force.
    assert_eq!(durable(&c, fid), [0u8; 8]);
    let home = c.site(1).kernel.home().unwrap();
    home.log_barrier(&mut acct(1)).unwrap();
    assert_eq!(durable(&c, fid), b"first-1!");
    assert_eq!(c.counters.snapshot().txns_committed, 1);
    assert_eq!(c.site(0).txn.pending_async(), 0);
    // The requester knows, but has not said so yet.
    c.drain_async();
    assert_eq!(delegate_records(&c), [(first, TxnStatus::Committed)]);
    // The next delegation there carries the forget.
    let (second, out) = delegated_write(&c, b"second-2");
    assert_eq!(out, Ok(EndOutcome::Committed(second)));
    assert_eq!(delegate_records(&c), [(second, TxnStatus::Committed)]);
}

#[test]
fn a_lost_delegation_is_aborted_by_the_inquiry_and_a_replay_installs_nothing() {
    use locus_net::{Msg, TxnMsg};
    let (c, fid) = remote_file_cluster();
    Tap::install(&c, "Delegate", locus_net::FaultDecision::Drop);
    let (tid, out) = delegated_write(&c, b"lost-req");
    assert_eq!(out, Err(Error::TxnAborted(tid)));
    let s1 = c.site(1);
    let owner = Owner::Trans(tid);
    let vol = s1.kernel.volume(fid.volume).unwrap();
    assert!(!s1.kernel.locks.owner_has_locks(owner), "locks released");
    assert!(!vol.owner_dirty(fid, owner), "dirty bytes gone");
    assert_eq!(read_record(s1, "/f", 8, &mut acct(1)), [0u8; 8]);
    // The delegation turns up after all: the refusal stands.
    let late = TxnMsg::Delegate {
        tid,
        files: vec![locus_types::FileListEntry {
            fid,
            storage_site: SiteId(1),
            epoch: 0,
        }],
        forget: vec![],
    };
    let resp = c
        .site(0)
        .kernel
        .rpc(SiteId(1), Msg::Txn(late), &mut acct(0));
    assert_eq!(resp, Ok(Msg::Txn(TxnMsg::PrepareDone { tid, ok: false })));
    assert_eq!(read_record(s1, "/f", 8, &mut acct(1)), [0u8; 8]);
    assert_eq!(durable(&c, fid), [0u8; 8]);
    assert!(delegate_records(&c).is_empty());
    assert_eq!(
        c.events
            .count(|e| matches!(e, Event::FileCommit { tid: Some(t), .. } if *t == tid)),
        0
    );
}

#[test]
fn a_delegate_that_dies_after_its_force_redoes_the_install_and_keeps_the_record() {
    use locus_disk::{CrashPointMode, MutationKind};
    // Where the install falls in site 1's mutations, from a clean run: the
    // first append after the force, the inode record.
    let install = {
        let (c, _) = remote_file_cluster();
        let disk = c.site(1).kernel.home().unwrap().disk().clone();
        disk.set_recording(true);
        delegated_write(&c, b"survives").1.unwrap();
        let stream = disk.take_mutation_log();
        let force = stream
            .iter()
            .position(|m| matches!(m, MutationKind::JournalFlush { .. }))
            .unwrap();
        let after = stream[force..]
            .iter()
            .position(|m| matches!(m, MutationKind::JournalAppend { .. }));
        (force + after.unwrap()) as u64
    };
    let (c, fid) = remote_file_cluster();
    let (s0, s1) = (c.site(0), c.site(1));
    // Site 1's disk dies at the install's append, after the force that
    // made the prepare record and the mark durable; the answer is lost too.
    let disk = s1.kernel.home().unwrap().disk().clone();
    disk.arm_crash_point(disk.mutation_count() + install, CrashPointMode::Clean);
    Tap::install(&c, "Delegate", locus_net::FaultDecision::DropReply);
    let (tid, out) = delegated_write(&c, b"survives");
    assert!(disk.tripped());
    // No answer is not an abort: the caller gets the error, and the
    // process is out of the transaction.
    assert!(
        matches!(out, Err(ref e) if *e != Error::TxnAborted(tid)),
        "{out:?}"
    );
    assert_eq!(s0.txn.pending_async(), 1);
    let snap = c.counters.snapshot();
    assert_eq!((snap.txns_committed, snap.txns_aborted), (0, 0));

    s1.crash();
    c.transport.site_down(SiteId(1));
    c.drain_async();
    assert_eq!(s0.txn.pending_async(), 1, "still unreachable");
    c.transport.site_up(SiteId(1));
    let report = s1.reboot_and_recover(&mut acct(1));
    assert_eq!(report.redone, 1, "{report:?}");
    assert_eq!(durable(&c, fid), b"survives");
    assert_eq!(delegate_records(&c), [(tid, TxnStatus::Committed)]);
    // The requester's inquiry now hears the outcome, and counts it.
    c.drain_async();
    assert_eq!(s0.txn.pending_async(), 0);
    assert_eq!(c.counters.snapshot().txns_committed, 1);
    assert_eq!(delegate_records(&c), [(tid, TxnStatus::Committed)]);
}

#[test]
fn an_unreachable_delegate_fails_end_trans_with_the_transport_error() {
    let (c, fid) = remote_file_cluster();
    let (s0, s1) = (c.site(0), c.site(1));
    let mut a0 = acct(0);
    let pid = s0.kernel.spawn();
    let tid = s0.txn.begin_trans(pid, &mut a0).unwrap();
    let ch = s0.kernel.open(pid, "/f", true, &mut a0).unwrap();
    s0.kernel.write(pid, ch, b"cut-off!", &mut a0).unwrap();
    c.transport.partition(&[SiteId(1)]);
    assert_eq!(
        s0.txn.end_trans(pid, &mut a0),
        Err(Error::Partitioned {
            from: SiteId(0),
            to: SiteId(1)
        })
    );
    assert_eq!(s0.kernel.procs.get(pid).unwrap().tid, None);
    assert_eq!(s0.txn.pending_async(), 1);
    // The stranded delegate rolled its writes back on its own.
    assert!(!s1.kernel.locks.owner_has_locks(Owner::Trans(tid)));
    c.transport.heal();
    let aborted = c.counters.snapshot().txns_aborted;
    c.drain_async();
    assert_eq!(s0.txn.pending_async(), 0);
    assert_eq!(c.counters.snapshot().txns_aborted, aborted + 1);
    assert_eq!(durable(&c, fid), [0u8; 8]);
}

#[test]
fn a_forget_rides_the_next_phase_two_batch_to_the_delegate() {
    let (c, _) = remote_file_cluster();
    create_here(&c);
    let (first, out) = delegated_write(&c, b"one-site");
    assert_eq!(out, Ok(EndOutcome::Committed(first)));
    assert_eq!(delegate_records(&c), [(first, TxnStatus::Committed)]);
    // A commit across both sites: its phase two to site 1 carries it.
    let (s0, mut a0) = (c.site(0), acct(0));
    let pid = s0.kernel.spawn();
    s0.txn.begin_trans(pid, &mut a0).unwrap();
    write_here(s0, pid, &mut a0);
    let ch = s0.kernel.open(pid, "/f", true, &mut a0).unwrap();
    s0.kernel.write(pid, ch, b"two-site", &mut a0).unwrap();
    s0.txn.end_trans(pid, &mut a0).unwrap();
    c.drain_async();
    assert!(delegate_records(&c).is_empty());
    assert_eq!(
        c.events.count(|e| matches!(
            e,
            Event::Rpc {
                kind: "Forget",
                batched: true,
                ..
            }
        )),
        1
    );
}

// ----- The votes are the decision ----------------------------------------------

/// A three-site cluster with `/f1` at site 1 and `/f2` at site 2, eight zero
/// bytes each.
fn two_delegate_cluster() -> TestCluster {
    let c = TestCluster::new(3);
    for i in [1, 2] {
        let (s, mut a) = (c.site(i), acct(i as u32));
        let p = s.kernel.spawn();
        let ch = s.kernel.creat(p, &format!("/f{i}"), &mut a).unwrap();
        s.kernel.write(p, ch, &[0u8; 8], &mut a).unwrap();
        s.kernel.close(p, ch, &mut a).unwrap();
    }
    c
}

/// Site 0, which holds neither file, writes `data` at offset 0 of `/f1` and
/// `/f2` in one transaction of its own, and returns it unended.
fn voted_write_open(c: &TestCluster, data: &[u8]) -> (TransId, Pid) {
    let (s0, mut a0) = (c.site(0), acct(0));
    let pid = s0.kernel.spawn();
    let tid = s0.txn.begin_trans(pid, &mut a0).unwrap();
    for i in [1, 2] {
        let ch = s0
            .kernel
            .open(pid, &format!("/f{i}"), true, &mut a0)
            .unwrap();
        s0.kernel.write(pid, ch, data, &mut a0).unwrap();
    }
    (tid, pid)
}

/// [`voted_write_open`], ended.
fn voted_write(c: &TestCluster, data: &[u8]) -> (TransId, Result<EndOutcome, Error>) {
    let (tid, pid) = voted_write_open(c, data);
    (tid, c.site(0).txn.end_trans(pid, &mut acct(0)))
}

/// The coordinator records site `i`'s journal holds.
fn records_at(c: &TestCluster, i: usize) -> Vec<(TransId, TxnStatus)> {
    let home = c.site(i).kernel.home().unwrap();
    let records = home.coord_log_scan(&mut acct(i as u32));
    records.into_iter().map(|r| (r.tid, r.status)).collect()
}

/// The bytes of `/f{i}` a reboot would find on site `i`'s platters.
fn durable_at(c: &TestCluster, i: usize) -> Vec<u8> {
    let fid = c
        .site(i)
        .kernel
        .catalog
        .resolve(&format!("/f{i}"))
        .unwrap()
        .fid;
    let home = c.site(i).kernel.home().unwrap();
    home.durable_peek(fid, ByteRange::new(0, 8)).unwrap()
}

fn prepare_records_at(c: &TestCluster, i: usize) -> usize {
    let home = c.site(i).kernel.home().unwrap();
    home.prepare_log_scan(&mut acct(i as u32)).len()
}

#[test]
fn delegates_that_lose_their_requester_commit_by_asking_each_other() {
    let c = two_delegate_cluster();
    let (tid, out) = voted_write(&c, b"decided!");
    assert_eq!(out, Ok(EndOutcome::Committed(tid)));
    // The requester announced the commit point it never logged.
    assert_eq!(
        c.events
            .count(|e| matches!(e, Event::CommitMark { tid: t } if *t == tid)),
        1
    );
    assert_eq!(records_at(&c, 0), []);
    // The requester dies with phase two still queued. Each delegate, cut off
    // from it, asks the other, hears a yes, and commits on its own.
    c.site(0).crash();
    c.transport.site_down(SiteId(0));
    for i in [1, 2] {
        let read = read_record(c.site(i), &format!("/f{i}"), 8, &mut acct(i as u32));
        assert_eq!(read, b"decided!", "site {i}");
        assert_eq!(prepare_records_at(&c, i), 0, "site {i}");
        assert_eq!(records_at(&c, i), [(tid, TxnStatus::Committed)]);
    }
    // The requester's phase two, once it is back, finds the work done but
    // not landed, and its resend lands it; its forgets, which ride the next
    // delegations there, purge the records.
    c.transport.site_up(SiteId(0));
    c.site(0).reboot_and_recover(&mut acct(0));
    c.drain_async();
    assert_eq!(c.site(0).txn.pending_async(), 0);
    for i in [1, 2] {
        assert_eq!(durable_at(&c, i), b"decided!", "site {i}");
    }
    let (next, out) = voted_write(&c, b"next-one");
    assert_eq!(out, Ok(EndOutcome::Committed(next)));
    for i in [1, 2] {
        assert_eq!(records_at(&c, i), [(next, TxnStatus::Voted)]);
    }
}

#[test]
fn one_no_aborts_the_other_delegate_and_leaves_no_record() {
    let c = two_delegate_cluster();
    let (tid, pid) = voted_write_open(&c, b"refused!");
    // Site 2 reboots under the transaction: its acked write is gone, and its
    // epoch check votes no.
    c.site(2).crash();
    c.site(2).reboot_and_recover(&mut acct(2));
    let out = c.site(0).txn.end_trans(pid, &mut acct(0));
    assert_eq!(out, Err(Error::TxnAborted(tid)));
    // Site 1 voted yes; phase two rolls it back and purges its yes.
    assert_eq!(records_at(&c, 1), [(tid, TxnStatus::Voted)]);
    c.drain_async();
    for i in [0, 1, 2] {
        assert_eq!(records_at(&c, i), [], "site {i}");
    }
    for i in [1, 2] {
        assert_eq!(durable_at(&c, i), [0u8; 8], "site {i}");
        assert_eq!(prepare_records_at(&c, i), 0, "site {i}");
        let owner = Owner::Trans(tid);
        assert!(!c.site(i).kernel.locks.owner_has_locks(owner), "site {i}");
    }
}

#[test]
fn a_lost_vote_is_asked_for_and_never_read_as_a_no() {
    let c = two_delegate_cluster();
    Tap::install(&c, "Delegate", locus_net::FaultDecision::DropReply);
    let (tid, out) = voted_write(&c, b"asked-4!");
    assert_eq!(out, Ok(EndOutcome::Committed(tid)));
    assert_eq!(
        c.events.count(|e| matches!(
            e,
            Event::Rpc {
                kind: "StatusInquiry",
                ..
            }
        )),
        1
    );
    c.drain_async();
    for i in [1, 2] {
        assert_eq!(durable_at(&c, i), b"asked-4!", "site {i}");
    }
    assert_eq!(c.counters.snapshot().txns_committed, 1);
}

#[test]
fn an_unreachable_delegate_fails_end_trans_and_the_retried_inquiry_decides() {
    let c = two_delegate_cluster();
    let (tid, pid) = voted_write_open(&c, b"cut-off!");
    c.transport.partition(&[SiteId(2)]);
    let out = c.site(0).txn.end_trans(pid, &mut acct(0));
    assert_eq!(
        out,
        Err(Error::Partitioned {
            from: SiteId(0),
            to: SiteId(2)
        })
    );
    assert_eq!(c.site(0).txn.pending_async(), 1);
    // Site 1 voted yes and stays in doubt; site 2, stranded before any
    // delegation reached it, rolled its write back on its own.
    assert_eq!(records_at(&c, 1), [(tid, TxnStatus::Voted)]);
    let aborted = c.counters.snapshot().txns_aborted;
    c.drain_async();
    assert_eq!(c.site(0).txn.pending_async(), 1, "still unreachable");
    c.transport.heal();
    c.drain_async();
    // The inquiry found no vote at site 2, so the transaction aborted.
    assert_eq!(c.site(0).txn.pending_async(), 0);
    assert_eq!(c.counters.snapshot().txns_aborted, aborted + 1);
    for i in [1, 2] {
        assert_eq!(records_at(&c, i), [], "site {i}");
        assert_eq!(durable_at(&c, i), [0u8; 8], "site {i}");
    }
}

#[test]
fn a_delegate_rebooted_after_its_install_keeps_the_commit() {
    // Either way the peer answers: it still holds its record, or the
    // requester's forget has already purged it.
    for peer_forgot in [false, true] {
        let c = two_delegate_cluster();
        let (tid, out) = voted_write(&c, b"kept-it!");
        assert_eq!(out, Ok(EndOutcome::Committed(tid)));
        c.drain_async();
        if peer_forgot {
            // A delegation to site 2 alone carries its forget.
            let (s0, mut a0) = (c.site(0), acct(0));
            let pid = s0.kernel.spawn();
            s0.txn.begin_trans(pid, &mut a0).unwrap();
            let ch = s0.kernel.open(pid, "/f2", true, &mut a0).unwrap();
            s0.kernel.lseek(pid, ch, 4, &mut a0).unwrap();
            s0.kernel.write(pid, ch, b"2nd!", &mut a0).unwrap();
            s0.txn.end_trans(pid, &mut a0).unwrap();
            assert!(!records_at(&c, 2).iter().any(|(t, _)| *t == tid));
        }
        // Site 1 dies before its own forget. It acked only once its note of
        // the commit, its install and its prepare record's truncation had
        // landed, so the reboot finds them all.
        let disk = c.site(1).kernel.home().unwrap().disk().clone();
        let allocated = || {
            (0..disk.capacity() as u32)
                .filter(|p| disk.is_allocated(locus_types::PhysPage(*p)))
                .count()
        };
        let live = allocated();
        c.site(1).crash();
        c.site(1).reboot_and_recover(&mut acct(1));
        assert_eq!(durable_at(&c, 1), b"kept-it!", "peer forgot: {peer_forgot}");
        assert_eq!(prepare_records_at(&c, 1), 0);
        // The durable note is the commit, so the peer is not asked: no
        // abort is noted, no block its install made live is freed, and the
        // record waits for the forget.
        assert_eq!(records_at(&c, 1), [(tid, TxnStatus::Committed)]);
        assert_eq!(allocated(), live, "no live block freed");
        let p = c.site(1).kernel.spawn();
        let mut a1 = acct(1);
        let ch = c.site(1).kernel.open(p, "/f1", false, &mut a1).unwrap();
        assert_eq!(
            c.site(1).kernel.read(p, ch, 8, &mut a1).unwrap(),
            b"kept-it!"
        );
        assert_eq!(c.counters.snapshot().pages_rolled_back, 0);
        // The forget rides the next delegation to site 1.
        let (s0, mut a0) = (c.site(0), acct(0));
        let pid = s0.kernel.spawn();
        s0.txn.begin_trans(pid, &mut a0).unwrap();
        let ch = s0.kernel.open(pid, "/f1", true, &mut a0).unwrap();
        s0.kernel.write(pid, ch, b"3rd!", &mut a0).unwrap();
        s0.txn.end_trans(pid, &mut a0).unwrap();
        assert!(!records_at(&c, 1).iter().any(|(t, _)| *t == tid));
    }
}

#[test]
fn a_delegate_whose_note_died_after_its_install_landed_hears_the_commit() {
    // Site 1's yes record is on its home volume and its file on a second
    // volume, so its install and its note of the commit ride different
    // journals.
    let c = TestCluster::new(3);
    let (second, _) = mount_second_volume(&c, 1, "/f1", &mut acct(1));
    let (s2, mut a2) = (c.site(2), acct(2));
    let p = s2.kernel.spawn();
    let ch = s2.kernel.creat(p, "/f2", &mut a2).unwrap();
    s2.kernel.close(p, ch, &mut a2).unwrap();
    let (tid, out) = voted_write(&c, b"landed!!");
    assert_eq!(out, Ok(EndOutcome::Committed(tid)));
    c.site(0).txn.run_async_work(&mut acct(0));
    // The install lands with its journal's next force, made here by hand;
    // the note, in the home journal, has not landed.
    second.log_barrier(&mut acct(1)).unwrap();
    let home = c.site(1).kernel.home().unwrap();
    assert!(!home.journal().holds_durable_commit(tid));
    // A delegation to site 2 alone carries any forget the requester holds
    // for it. Site 1 has not acked, so there is none.
    write_f2_alone(&c, b"2nd!").unwrap();
    // Site 1 dies with its note in the journal's tail. Nothing local shows
    // the install, so it asks its peer, which still knows the commit: no
    // abort is noted for it.
    c.site(1).crash();
    c.site(1).reboot_and_recover(&mut acct(1));
    let aborted = |e: &Event| matches!(e, Event::CoordLog { tid: t, status: TxnStatus::Aborted, .. } if *t == tid);
    assert_eq!(c.events.count(aborted), 0);
    assert_eq!(records_at(&c, 1), [(tid, TxnStatus::Committed)]);
    assert_eq!(read_record(c.site(1), "/f1", 8, &mut acct(1)), b"landed!!");
    c.drain_async();
    assert_eq!(c.site(0).txn.pending_async(), 0);
    assert_eq!(c.events.count(aborted), 0);
}

/// Site 0 writes `data` at offset 8 of `/f2` in a transaction of its own: a
/// delegation to site 2 alone, which carries the forgets site 0 holds for it.
fn write_f2_alone(c: &TestCluster, data: &[u8]) -> Result<EndOutcome, Error> {
    let (s0, mut a0) = (c.site(0), acct(0));
    let pid = s0.kernel.spawn();
    s0.txn.begin_trans(pid, &mut a0)?;
    let ch = s0.kernel.open(pid, "/f2", true, &mut a0)?;
    s0.kernel.lseek(pid, ch, 8, &mut a0)?;
    s0.kernel.write(pid, ch, data, &mut a0)?;
    s0.txn.end_trans(pid, &mut a0)
}

#[test]
fn an_idle_delegates_install_is_forced_by_the_resend() {
    // `commit_dist`'s shape with no transaction behind it: no vote force
    // carries the installs, so the resend forces them.
    let c = two_delegate_cluster();
    let (tid, out) = voted_write(&c, b"idle-one");
    assert_eq!(out, Ok(EndOutcome::Committed(tid)));
    let (s0, mut a0) = (c.site(0), acct(0));
    let mut bg = acct(0);
    assert_eq!(s0.txn.run_async_work(&mut bg), 0);
    assert_eq!((bg.messages, bg.total_ios()), (2, 0));
    assert_eq!(s0.txn.pending_async(), 1);
    for i in [1, 2] {
        assert_eq!(durable_at(&c, i), [0u8; 8], "site {i}");
    }
    let mut bg = acct(0);
    assert_eq!(s0.txn.run_async_work(&mut bg), 1);
    assert_eq!((bg.messages, bg.seq_ios, bg.disk_writes), (2, 2, 0));
    assert_eq!(s0.txn.pending_async(), 0);
    for i in [1, 2] {
        assert_eq!(durable_at(&c, i), b"idle-one", "site {i}");
        let home = c.site(i).kernel.home().unwrap();
        assert!(home.journal().holds_durable_commit(tid), "site {i}");
        assert_eq!(records_at(&c, i), [(tid, TxnStatus::Committed)]);
    }
    // The forgets ride the next message to each delegate.
    let (next, out) = voted_write(&c, b"next-one");
    assert_eq!(out, Ok(EndOutcome::Committed(next)));
    for i in [1, 2] {
        assert_eq!(records_at(&c, i), [(next, TxnStatus::Voted)]);
    }
    assert_eq!(s0.txn.run_async_work(&mut a0), 0);
    assert_eq!(s0.txn.pending_async(), 1);
}

#[test]
fn every_crash_point_from_a_delegates_install_to_its_next_vote_force_is_all_or_nothing() {
    // `commit_dist`'s steady state. A's phase two reaches delegate 1, whose
    // install and note ride its next force: B's vote. The window is A's
    // phase two, B, the pump that acks A once it has landed, and a
    // delegation to site 2 alone that then carries A's forget there. Site
    // 1 dies at every cut of its disk's mutations in that window.
    const A: &[u8] = b"AAAAAAAA";
    const B: &[u8] = b"BBBBBBBB";
    let armed = |point: Option<(u64, locus_disk::CrashPointMode)>| -> (TestCluster, TransId) {
        let c = two_delegate_cluster();
        let (tid, out) = voted_write(&c, A);
        assert_eq!(out, Ok(EndOutcome::Committed(tid)));
        let disk = c.site(1).kernel.home().unwrap().disk().clone();
        assert_eq!(
            disk.journal_frame_counts().1,
            0,
            "the window starts flushed"
        );
        match point {
            Some((at, mode)) => disk.arm_crash_point(disk.mutation_count() + at, mode),
            None => disk.set_recording(true),
        }
        (c, tid)
    };
    let window = |c: &TestCluster| -> bool {
        let (s0, mut a0) = (c.site(0), acct(0));
        s0.txn.run_async_work(&mut a0);
        // B, which blocks where a failed install left A's locks.
        let pid = s0.kernel.spawn();
        let b = s0.txn.begin_trans(pid, &mut a0).and_then(|_| {
            for f in ["/f1", "/f2"] {
                let ch = s0.kernel.open(pid, f, true, &mut a0)?;
                s0.kernel.write(pid, ch, B, &mut a0)?;
            }
            s0.txn.end_trans(pid, &mut a0)
        });
        if b.is_err() {
            let _ = s0.txn.abort_trans(pid, &mut a0);
        }
        s0.txn.run_async_work(&mut a0);
        let _ = write_f2_alone(c, b"2nd!");
        b.is_ok()
    };
    let (c, a) = armed(None);
    assert!(window(&c));
    let stream = c.site(1).kernel.home().unwrap().disk().take_mutation_log();
    assert!(
        !records_at(&c, 2).iter().any(|(t, _)| *t == a),
        "A's forget reached the other delegate"
    );

    let mut outcomes = [0usize; 2];
    for (at, mode) in every_cut(&stream) {
        let (c, _) = armed(Some((at, mode)));
        let acked = window(&c);
        let disk = c.site(1).kernel.home().unwrap().disk().clone();
        assert!(disk.tripped(), "point {at} {mode:?} never fired");
        c.site(1).crash();
        c.site(1).reboot_and_recover(&mut acct(1));
        for _ in 0..3 {
            c.drain_async();
        }
        let f1 = read_record(c.site(1), "/f1", 8, &mut acct(1));
        let f2 = read_record(c.site(2), "/f2", 8, &mut acct(2));
        assert!(
            f1 == f2 && (f1 == B || (f1 == A && !acked)),
            "point {at} {mode:?}: {f1:?} {f2:?}, B acked: {acked}"
        );
        outcomes[usize::from(acked)] += 1;
    }
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}

// ----- `drive` over a scripted substrate --------------------------------------

mod scripted_drive {
    use std::convert::Infallible;

    use locus_types::{Fid, FileListEntry, SiteId, TransId, TxnStatus, VolumeId};

    use crate::protocol::{drive, Effect, Input, ProtocolSm, Substrate};
    use crate::CoordinatorSm;

    /// A coordinator machine over a substrate that answers from a script
    /// and remembers what it was asked.
    struct Scripted {
        sm: CoordinatorSm,
        no_votes: Vec<SiteId>,
        mark_ok: bool,
        /// Every input the machine was stepped with, in order.
        stepped: Vec<Input>,
        /// Every effect kind interpreted, in order.
        seen: Vec<&'static str>,
        /// The sites of each delivery of prepares: one entry per single
        /// prepare, one per wave.
        prepares: Vec<Vec<SiteId>>,
        /// Every decision mark asked for.
        marks: Vec<TxnStatus>,
        /// Every phase-two item queued: the outcome and the sites to tell.
        queued: Vec<(bool, Vec<SiteId>)>,
    }

    impl Substrate for Scripted {
        type Error = Infallible;

        fn step(&mut self, input: Input) -> Vec<Effect> {
            self.stepped.push(input.clone());
            self.sm.step(&input)
        }

        fn interpret(&mut self, effect: Effect) -> Result<Option<Input>, Infallible> {
            self.seen.push(effect.name());
            Ok(match effect {
                Effect::LogStart { tid, .. } => Some(Input::StartLogged { tid, ok: true }),
                Effect::SendPrepare { tid, site, .. } => {
                    self.prepares.push(vec![site]);
                    let ok = !self.no_votes.contains(&site);
                    Some(Input::Vote { tid, site, ok })
                }
                Effect::LogStatus {
                    tid,
                    status,
                    critical: true,
                } => {
                    self.marks.push(status);
                    Some(Input::StatusLogged {
                        tid,
                        ok: self.mark_ok,
                    })
                }
                Effect::QueuePhase2 {
                    commit,
                    participants,
                    ..
                } => {
                    let sites = participants.iter().map(|(site, _)| *site).collect();
                    self.queued.push((commit, sites));
                    None
                }
                _ => None,
            })
        }

        fn prepare_wave(&mut self, wave: Vec<Effect>) -> Result<Vec<Input>, Infallible> {
            let first = self.prepares.len();
            let mut votes = Vec::new();
            for prepare in wave {
                votes.extend(self.interpret(prepare)?);
            }
            let sites = self.prepares.drain(first..).flatten().collect();
            self.prepares.push(sites);
            Ok(votes)
        }
    }

    fn tid() -> TransId {
        TransId::new(SiteId(0), 1)
    }

    /// Drives a commit request over one file at each of three sites.
    fn commit(no_votes: &[SiteId], mark_ok: bool) -> Scripted {
        let mut sub = Scripted {
            sm: CoordinatorSm::new(SiteId(0)),
            no_votes: no_votes.to_vec(),
            mark_ok,
            stepped: Vec::new(),
            seen: Vec::new(),
            prepares: Vec::new(),
            marks: Vec::new(),
            queued: Vec::new(),
        };
        let files = (0..3)
            .map(|s| FileListEntry {
                fid: Fid::new(VolumeId(s), 1),
                storage_site: SiteId(s),
                epoch: 0,
            })
            .collect();
        let Ok(()) = drive(&mut sub, Input::commit_requested(tid(), files));
        sub
    }

    #[test]
    fn a_middle_no_still_prepares_all_three_and_aborts_once() {
        let sub = commit(&[SiteId(1)], true);
        let all = [SiteId(0), SiteId(1), SiteId(2)];
        assert_eq!(sub.prepares.concat(), all);
        // One decision, taken when the last vote is in, and every site —
        // the two that prepared and the one that refused — is told.
        assert_eq!(sub.marks, [TxnStatus::Aborted]);
        assert_eq!(sub.queued, [(false, all.to_vec())]);
        assert!(!sub.seen.contains(&"RaiseFences"));
        assert_eq!(sub.sm.status_of(tid()), Some(TxnStatus::Aborted));
    }

    #[test]
    fn a_parallel_fan_out_is_one_wave_and_its_votes_are_stepped_in_wave_order() {
        let sub = commit(&[SiteId(1)], true);
        assert_eq!(sub.prepares, [[SiteId(0), SiteId(1), SiteId(2)]]);
        // Request, start record, the three votes in wave order, and only
        // then the mark: the no in the middle did not cut the wave short.
        let votes: Vec<(u32, bool)> = sub.stepped[2..5]
            .iter()
            .map(|i| match i {
                Input::Vote { site, ok, .. } => (site.0, *ok),
                other => panic!("expected a vote, stepped {other:?}"),
            })
            .collect();
        assert_eq!(votes, [(0, true), (1, false), (2, true)]);
        assert!(matches!(sub.stepped[5], Input::StatusLogged { .. }));
        assert_eq!(sub.sm.status_of(tid()), Some(TxnStatus::Aborted));
    }

    #[test]
    fn a_failed_commit_mark_stays_fenced_and_undecided() {
        let sub = commit(&[], false);
        assert_eq!(sub.seen[sub.seen.len() - 2..], ["RaiseFences", "LogStatus"]);
        assert!(!sub.seen.contains(&"QueuePhase2") && !sub.seen.contains(&"DropFence"));
        assert_eq!(sub.sm.status_of(tid()), Some(TxnStatus::Unknown));
        assert!(format!("{:?}", sub.sm).contains("MarkFailed"));
    }
}
