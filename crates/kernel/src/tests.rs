//! Kernel tests over a miniature two-site cluster (kernels wired directly to
//! the simulated transport; the transaction control plane is tested in
//! `locus-core`).

use std::sync::Arc;

use locus_disk::SimDisk;
use locus_fs::Volume;
use locus_net::{FileMsg, Held, LockMsg, Msg, SimTransport};
use locus_proc::ProcessRegistry;
use locus_sim::{Account, CostModel, Counters, EventLog, SimDuration};
use locus_types::{
    ByteRange, Channel, Error, Fid, GrantPage, LockClass, LockMode, LockRequestMode, Owner, Pid,
    SiteId, TransId, VolumeId,
};

use crate::catalog::Catalog;
use crate::kernel::Kernel;
use crate::services::LockOpts;

pub(crate) struct MiniCluster {
    pub kernels: Vec<Arc<Kernel>>,
    pub transport: Arc<SimTransport>,
    pub model: Arc<CostModel>,
}

pub(crate) fn mini_cluster(n: usize) -> MiniCluster {
    mini_cluster_with(n, CostModel::default())
}

pub(crate) fn mini_cluster_with(n: usize, model: CostModel) -> MiniCluster {
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
    let mut kernels = Vec::new();
    for i in 0..n {
        let site = SiteId(i as u32);
        let disk = Arc::new(SimDisk::new(4096, model.clone(), counters.clone()));
        let vol = Arc::new(Volume::new(
            VolumeId(i as u32),
            site,
            disk,
            model.clone(),
            counters.clone(),
            events.clone(),
        ));
        let k = Arc::new(Kernel::new(
            site,
            model.clone(),
            counters.clone(),
            events.clone(),
            vol,
            registry.clone(),
            catalog.clone(),
        ));
        k.set_transport(transport.clone());
        transport.register(site, k.clone());
        kernels.push(k);
    }
    MiniCluster {
        kernels,
        transport,
        model,
    }
}

/// Mounts a replica of site 0's volume at site 1, on a disk of its own.
fn mount_replica(c: &MiniCluster) -> (Arc<Volume>, Arc<SimDisk>) {
    let counters = Arc::new(Counters::default());
    let disk = Arc::new(SimDisk::new(1024, c.model.clone(), counters.clone()));
    let replica = Arc::new(Volume::new(
        VolumeId(0),
        SiteId(1),
        disk.clone(),
        c.model.clone(),
        counters,
        Arc::new(EventLog::new()),
    ));
    c.kernels[1].mount(replica.clone());
    (replica, disk)
}

fn acct(site: u32) -> Account {
    Account::new(SiteId(site))
}

#[test]
fn create_write_read_local() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let pid = k.spawn();
    let ch = k.creat(pid, "/f", &mut a).unwrap();
    k.write(pid, ch, b"hello world", &mut a).unwrap();
    k.lseek(pid, ch, 0, &mut a).unwrap();
    assert_eq!(k.read(pid, ch, 11, &mut a).unwrap(), b"hello world");
}

#[test]
fn remote_open_read_write() {
    let c = mini_cluster(2);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.creat(p0, "/shared", &mut a0).unwrap();
    k0.write(p0, ch0, b"from site0", &mut a0).unwrap();
    k0.close(p0, ch0, &mut a0).unwrap();

    // Site 1 opens and reads the file stored at site 0, transparently.
    let mut a1 = acct(1);
    let p1 = k1.spawn();
    let ch1 = k1.open(p1, "/shared", false, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 10, &mut a1).unwrap(), b"from site0");
    // Remote reads paid network costs.
    assert!(a1.messages > 0);
    assert!(a1.elapsed >= SimDuration::from_millis(15));
}

#[test]
fn open_unknown_name_fails() {
    let c = mini_cluster(1);
    let mut a = acct(0);
    let pid = c.kernels[0].spawn();
    assert!(matches!(
        c.kernels[0].open(pid, "/nope", false, &mut a),
        Err(Error::NoSuchFile(_))
    ));
}

#[test]
fn enforced_locks_deny_unix_writers() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let locker = k.spawn();
    let ch = k.creat(locker, "/f", &mut a).unwrap();
    k.write(locker, ch, b"xxxxxxxxxx", &mut a).unwrap();
    k.lseek(locker, ch, 0, &mut a).unwrap();
    k.lock(
        locker,
        ch,
        10,
        LockRequestMode::Shared,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();

    // Another (unlocked, Unix) process may read but not write (Figure 1).
    let unix = k.spawn();
    let ch2 = k.open(unix, "/f", true, &mut a).unwrap();
    assert!(k.read(unix, ch2, 5, &mut a).is_ok());
    k.lseek(unix, ch2, 0, &mut a).unwrap();
    assert!(matches!(
        k.write(unix, ch2, b"yy", &mut a),
        Err(Error::AccessDenied { .. })
    ));
}

#[test]
fn lock_requires_write_permission() {
    // Section 3.1: "the current policy requires that a process have write
    // access to a file in order to issue locking requests."
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/f", &mut a).unwrap();
    k.close(p, ch, &mut a).unwrap();
    let ro = k.open(p, "/f", false, &mut a).unwrap();
    assert!(matches!(
        k.lock(
            p,
            ro,
            10,
            LockRequestMode::Shared,
            LockOpts::default(),
            &mut a
        ),
        Err(Error::PermissionDenied { .. })
    ));
}

#[test]
fn conflicting_lock_denied_or_queued() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p1 = k.spawn();
    let ch1 = k.creat(p1, "/f", &mut a).unwrap();
    k.lock(
        p1,
        ch1,
        10,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();

    let p2 = k.spawn();
    let ch2 = k.open(p2, "/f", true, &mut a).unwrap();
    // No-wait: conflict error.
    assert!(matches!(
        k.lock(
            p2,
            ch2,
            10,
            LockRequestMode::Exclusive,
            LockOpts::default(),
            &mut a
        ),
        Err(Error::LockConflict { .. })
    ));
    // Wait: queued.
    assert!(matches!(
        k.lock(
            p2,
            ch2,
            10,
            LockRequestMode::Exclusive,
            LockOpts {
                wait: true,
                ..LockOpts::default()
            },
            &mut a
        ),
        Err(Error::WouldBlock { .. })
    ));
    // Holder unlocks → waiter is granted and woken.
    k.lseek(p1, ch1, 0, &mut a).unwrap();
    k.unlock(p1, ch1, 10, &mut a).unwrap();
    assert!(k.take_wakeup(p2));
    // The retried request now succeeds instantly.
    let got = k
        .lock(
            p2,
            ch2,
            10,
            LockRequestMode::Exclusive,
            LockOpts::default(),
            &mut a,
        )
        .unwrap();
    assert_eq!(got, ByteRange::new(0, 10));
}

#[test]
fn remote_lock_costs_one_round_trip() {
    let c = mini_cluster(2);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.creat(p0, "/f", &mut a0).unwrap();
    k0.write(p0, ch0, &[0u8; 64], &mut a0).unwrap();
    k0.close(p0, ch0, &mut a0).unwrap();

    let p1 = k1.spawn();
    let mut a1 = acct(1);
    let ch1 = k1.open(p1, "/f", true, &mut a1).unwrap();
    let before = a1.clone();
    k1.lock(
        p1,
        ch1,
        16,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a1,
    )
    .unwrap();
    let d = a1.delta_since(&before);
    // ≈ 2 ms of lock processing + 1 ms handling + 15 ms RTT = 18 ms.
    let ms = d.elapsed.as_millis_f64();
    assert!((17.0..20.0).contains(&ms), "remote lock took {ms} ms");
    assert_eq!(d.messages, 1);
}

#[test]
fn local_lock_costs_about_two_ms() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/f", &mut a).unwrap();
    let before = a.clone();
    k.lock(
        p,
        ch,
        16,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();
    let ms = a.delta_since(&before).elapsed.as_millis_f64();
    assert!((1.5..3.0).contains(&ms), "local lock took {ms} ms");
}

#[test]
fn append_lock_extends_and_positions() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/log", &mut a).unwrap();
    k.write(p, ch, b"0123456789", &mut a).unwrap();
    k.close(p, ch, &mut a).unwrap();

    let appender = k.spawn();
    let ch2 = k.open_append(appender, "/log", &mut a).unwrap();
    let got = k
        .lock(
            appender,
            ch2,
            5,
            LockRequestMode::Exclusive,
            LockOpts::default(),
            &mut a,
        )
        .unwrap();
    assert_eq!(got, ByteRange::new(10, 5));
    k.write(appender, ch2, b"ABCDE", &mut a).unwrap();
    k.lseek(appender, ch2, 0, &mut a).unwrap();
    assert_eq!(
        k.read(appender, ch2, 15, &mut a).unwrap(),
        b"0123456789ABCDE"
    );
}

#[test]
fn non_transaction_close_commits_changes() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/f", &mut a).unwrap();
    k.write(p, ch, b"durable", &mut a).unwrap();
    k.close(p, ch, &mut a).unwrap();
    // Crash: committed-on-close data survives.
    k.crash();
    k.reboot();
    let p2 = k.spawn();
    let mut a2 = acct(0);
    let ch2 = k.open(p2, "/f", false, &mut a2).unwrap();
    assert_eq!(k.read(p2, ch2, 7, &mut a2).unwrap(), b"durable");
}

#[test]
fn abort_file_discards_uncommitted_changes() {
    // Figure 2's non-transaction `abort x` primitive.
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/f", &mut a).unwrap();
    k.write(p, ch, b"junk", &mut a).unwrap();
    k.abort_file(p, ch, &mut a).unwrap();
    k.lseek(p, ch, 0, &mut a).unwrap();
    assert!(k.read(p, ch, 4, &mut a).unwrap().is_empty());
}

#[test]
fn migration_moves_process_and_open_files() {
    let c = mini_cluster(2);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a = acct(0);
    let p = k0.spawn();
    let ch = k0.creat(p, "/f", &mut a).unwrap();
    k0.write(p, ch, b"before move", &mut a).unwrap();
    k0.migrate(p, SiteId(1), &mut a).unwrap();
    assert!(!k0.procs.is_running(p));
    assert!(k1.procs.is_running(p));
    // The open channel still works from the new site (remote to storage).
    let mut a1 = acct(1);
    k1.lseek(p, ch, 0, &mut a1).unwrap();
    assert_eq!(k1.read(p, ch, 11, &mut a1).unwrap(), b"before move");
}

#[test]
fn migration_to_down_site_resumes_locally() {
    let c = mini_cluster(2);
    let k0 = &c.kernels[0];
    c.transport.site_down(SiteId(1));
    let mut a = acct(0);
    let p = k0.spawn();
    assert!(matches!(
        k0.migrate(p, SiteId(1), &mut a),
        Err(Error::SiteDown(_))
    ));
    assert!(k0.procs.is_running(p));
}

#[test]
fn replica_sync_propagates_committed_data() {
    let c = mini_cluster(2);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a = acct(0);
    let p = k0.spawn();
    let ch = k0.creat(p, "/rep", &mut a).unwrap();
    // Mount a replica of site 0's volume at site 1 (its own disk).
    mount_replica(&c);
    k0.catalog.add_replica("/rep", SiteId(1)).unwrap();

    k0.write(p, ch, b"replicated!", &mut a).unwrap();
    k0.close(p, ch, &mut a).unwrap(); // Commit pushes to the replica.

    // A reader at site 1 is served by its local replica.
    let p1 = k1.spawn();
    let mut a1 = acct(1);
    let ch1 = k1.open(p1, "/rep", false, &mut a1).unwrap();
    let before = a1.messages;
    assert_eq!(k1.read(p1, ch1, 11, &mut a1).unwrap(), b"replicated!");
    assert_eq!(a1.messages, before, "read served locally from the replica");
}

#[test]
fn crash_fails_syscalls_until_reboot() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    k.crash();
    assert!(matches!(k.fork(p, &mut a), Err(Error::Crashed(_))));
    k.reboot();
    let p2 = k.spawn();
    assert!(k.creat(p2, "/new", &mut a).is_ok());
}

#[test]
fn exit_releases_locks_and_wakes_waiters() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p1 = k.spawn();
    let ch1 = k.creat(p1, "/f", &mut a).unwrap();
    k.lock(
        p1,
        ch1,
        10,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();
    let p2 = k.spawn();
    let ch2 = k.open(p2, "/f", true, &mut a).unwrap();
    assert!(matches!(
        k.lock(
            p2,
            ch2,
            10,
            LockRequestMode::Exclusive,
            LockOpts {
                wait: true,
                ..LockOpts::default()
            },
            &mut a
        ),
        Err(Error::WouldBlock { .. })
    ));
    k.exit(p1, &mut a).unwrap();
    assert!(k.take_wakeup(p2));
    assert!(k
        .lock(
            p2,
            ch2,
            10,
            LockRequestMode::Exclusive,
            LockOpts::default(),
            &mut a
        )
        .is_ok());
}

#[test]
fn duplicate_create_fails_before_commit() {
    // Section 3.4: concurrent creates of the same name — one must fail even
    // though neither has committed.
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p1 = k.spawn();
    let p2 = k.spawn();
    k.creat(p1, "/same", &mut a).unwrap();
    assert!(matches!(
        k.creat(p2, "/same", &mut a),
        Err(Error::AlreadyExists(_))
    ));
}

#[test]
fn primary_update_site_can_migrate() {
    // Section 5.2 footnote 8: storage-site service migrates to the primary
    // update site. Model: the catalog's primary pointer moves, and update
    // opens follow it.
    let c = mini_cluster(3);
    let k0 = &c.kernels[0];
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch = k0.creat(p0, "/r", &mut a0).unwrap();
    k0.write(p0, ch, b"v1", &mut a0).unwrap();
    k0.close(p0, ch, &mut a0).unwrap();

    // Replica at site 1, then promote it to primary.
    mount_replica(&c);
    k0.catalog.add_replica("/r", SiteId(1)).unwrap();
    // Push current contents to the replica before promotion.
    let ch2 = k0.open(p0, "/r", true, &mut a0).unwrap();
    k0.write(p0, ch2, b"v2", &mut a0).unwrap();
    k0.close(p0, ch2, &mut a0).unwrap();

    let loc = k0.catalog.resolve("/r").unwrap();
    k0.catalog.set_primary(loc.fid, SiteId(1)).unwrap();

    // An update open from site 2 is now served by site 1.
    let k2 = &c.kernels[2];
    let mut a2 = acct(2);
    let p2 = k2.spawn();
    let ch3 = k2.open(p2, "/r", true, &mut a2).unwrap();
    assert_eq!(
        k2.procs.get(p2).unwrap().open_files[&ch3].storage_site,
        SiteId(1)
    );
    k2.write(p2, ch3, b"v3", &mut a2).unwrap();
    k2.close(p2, ch3, &mut a2).unwrap();

    // The new primary pushed the commit back to the old one.
    let mut a0b = acct(0);
    let pr = k0.spawn();
    let chr = k0.open(pr, "/r", false, &mut a0b).unwrap();
    assert_eq!(k0.read(pr, chr, 2, &mut a0b).unwrap(), b"v3");
}

#[test]
fn exit_of_nonexistent_process_errors_cleanly() {
    let c = mini_cluster(1);
    let mut a = acct(0);
    let ghost = locus_types::Pid::new(SiteId(0), 999);
    assert!(matches!(
        c.kernels[0].exit(ghost, &mut a),
        Err(Error::NoSuchProcess(_))
    ));
}

#[test]
fn reads_of_unwritten_regions_return_empty() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/empty", &mut a).unwrap();
    assert!(k.read(p, ch, 100, &mut a).unwrap().is_empty());
    k.lseek(p, ch, 5000, &mut a).unwrap();
    assert!(k.read(p, ch, 1, &mut a).unwrap().is_empty());
}

#[test]
fn bad_channel_operations_error() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let bogus = locus_types::Channel(42);
    assert!(matches!(
        k.read(p, bogus, 4, &mut a),
        Err(Error::BadChannel)
    ));
    assert!(matches!(
        k.write(p, bogus, b"x", &mut a),
        Err(Error::BadChannel)
    ));
    assert!(matches!(
        k.lseek(p, bogus, 0, &mut a),
        Err(Error::BadChannel)
    ));
    assert!(matches!(k.close(p, bogus, &mut a), Err(Error::BadChannel)));
}

#[test]
fn double_close_errors_cleanly() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/f", &mut a).unwrap();
    k.close(p, ch, &mut a).unwrap();
    assert!(matches!(k.close(p, ch, &mut a), Err(Error::BadChannel)));
}

#[test]
fn write_on_read_only_channel_denied() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/f", &mut a).unwrap();
    k.close(p, ch, &mut a).unwrap();
    let ro = k.open(p, "/f", false, &mut a).unwrap();
    assert!(matches!(
        k.write(p, ro, b"nope", &mut a),
        Err(Error::PermissionDenied { .. })
    ));
}

#[test]
fn partial_unlock_contracts_through_kernel() {
    // "Locked ranges may be extended or contracted" (Section 3.2), end to
    // end through the syscall surface.
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/f", &mut a).unwrap();
    k.write(p, ch, &[0u8; 100], &mut a).unwrap();
    k.lseek(p, ch, 0, &mut a).unwrap();
    k.lock(
        p,
        ch,
        100,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();
    // Contract: release the first 40 bytes.
    k.lseek(p, ch, 0, &mut a).unwrap();
    k.unlock(p, ch, 40, &mut a).unwrap();
    // Another process can now lock [0,40) but not [40,100).
    let q = k.spawn();
    let qch = k.open(q, "/f", true, &mut a).unwrap();
    assert!(k
        .lock(
            q,
            qch,
            40,
            LockRequestMode::Exclusive,
            LockOpts::default(),
            &mut a
        )
        .is_ok());
    k.lseek(q, qch, 40, &mut a).unwrap();
    assert!(matches!(
        k.lock(
            q,
            qch,
            10,
            LockRequestMode::Shared,
            LockOpts::default(),
            &mut a
        ),
        Err(Error::LockConflict { .. })
    ));
}

// ----- Page cache (coherent local reads under lock coverage) ---------------

/// Creates `/cached` at site 0 with `len` committed bytes of value 7.
fn seed_remote_file(c: &MiniCluster, len: usize) {
    let k0 = &c.kernels[0];
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.creat(p0, "/cached", &mut a0).unwrap();
    k0.write(p0, ch0, &vec![7u8; len], &mut a0).unwrap();
    k0.close(p0, ch0, &mut a0).unwrap();
}

#[test]
fn cached_reread_is_local_and_byte_identical() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 512);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let p1 = k1.spawn();
    let ch1 = k1.open(p1, "/cached", true, &mut a1).unwrap();
    k1.lock(
        p1,
        ch1,
        512,
        LockRequestMode::Shared,
        LockOpts::default(),
        &mut a1,
    )
    .unwrap();
    // The first read finds what the grant brought.
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    let first = k1.read(p1, ch1, 512, &mut a1).unwrap();
    assert_eq!(first, vec![7u8; 512]);
    // Re-read under the held lock: zero remote messages, identical bytes.
    let hits_before = k1.counters.snapshot().page_cache_hits;
    let before = a1.clone();
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    let second = k1.read(p1, ch1, 512, &mut a1).unwrap();
    assert_eq!(second, first);
    assert_eq!(
        a1.delta_since(&before).messages,
        0,
        "cached re-read must not touch the network"
    );
    assert_eq!(k1.counters.snapshot().page_cache_hits, hits_before + 1);
}

#[test]
fn page_cache_disabled_goes_remote_with_same_bytes() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 256);
    let k1 = &c.kernels[1];
    k1.page_cache_enabled
        .store(false, std::sync::atomic::Ordering::Relaxed);
    let mut a1 = acct(1);
    let p1 = k1.spawn();
    let ch1 = k1.open(p1, "/cached", true, &mut a1).unwrap();
    k1.lock(
        p1,
        ch1,
        256,
        LockRequestMode::Shared,
        LockOpts::default(),
        &mut a1,
    )
    .unwrap();
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    k1.read(p1, ch1, 256, &mut a1).unwrap();
    let before = a1.clone();
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 256, &mut a1).unwrap(), vec![7u8; 256]);
    assert!(a1.delta_since(&before).messages > 0);
}

#[test]
fn own_write_invalidates_cached_pages() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 128);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let p1 = k1.spawn();
    let ch1 = k1.open(p1, "/cached", true, &mut a1).unwrap();
    k1.lock(
        p1,
        ch1,
        128,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a1,
    )
    .unwrap();
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 128, &mut a1).unwrap(), vec![7u8; 128]);
    // Overwrite part of the cached range, then re-read: the stale entry
    // must not be served.
    k1.lseek(p1, ch1, 10, &mut a1).unwrap();
    k1.write(p1, ch1, b"NEW", &mut a1).unwrap();
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    let got = k1.read(p1, ch1, 128, &mut a1).unwrap();
    let mut want = vec![7u8; 128];
    want[10..13].copy_from_slice(b"NEW");
    assert_eq!(got, want);
}

#[test]
fn unlock_drops_cache_and_later_reads_see_new_commits() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 64);
    let k0 = &c.kernels[0];
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let p1 = k1.spawn();
    let ch1 = k1.open(p1, "/cached", true, &mut a1).unwrap();
    k1.lock(
        p1,
        ch1,
        64,
        LockRequestMode::Shared,
        LockOpts::default(),
        &mut a1,
    )
    .unwrap();
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![7u8; 64]);
    assert!(!k1.pages.is_empty());
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    k1.unlock(p1, ch1, 64, &mut a1).unwrap();
    assert!(
        k1.pages.is_empty(),
        "released coverage must stop serving cached pages"
    );
    // Another process commits new bytes; the uncovered reader sees them.
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.open(p0, "/cached", true, &mut a0).unwrap();
    k0.write(p0, ch0, b"fresh!", &mut a0).unwrap();
    k0.close(p0, ch0, &mut a0).unwrap();
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    let got = k1.read(p1, ch1, 6, &mut a1).unwrap();
    assert_eq!(got, b"fresh!");
}

#[test]
fn a_process_that_migrates_back_trusts_no_lock_it_released_elsewhere() {
    let c = mini_cluster(3);
    seed_remote_file(&c, 64);
    let (k0, k1, k2) = (&c.kernels[0], &c.kernels[1], &c.kernels[2]);
    let mut a1 = acct(1);
    let (p, ch, fid) = open_locked(k1, &mut a1, 0, 64, SHARED);
    assert_eq!(k1.read(p, ch, 64, &mut a1).unwrap(), vec![7u8; 64]);
    // Released at site 2, then back at site 1.
    k1.migrate(p, SiteId(2), &mut a1).unwrap();
    let mut a2 = acct(2);
    k2.lseek(p, ch, 0, &mut a2).unwrap();
    k2.unlock(p, ch, 64, &mut a2).unwrap();
    k2.migrate(p, SiteId(1), &mut a2).unwrap();
    // An unlocked read caches nothing, so it cannot outlive a commit.
    k1.lseek(p, ch, 0, &mut a1).unwrap();
    assert_eq!(k1.read(p, ch, 6, &mut a1).unwrap(), vec![7u8; 6]);
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.open(p0, "/cached", true, &mut a0).unwrap();
    k0.write(p0, ch0, b"fresh!", &mut a0).unwrap();
    k0.close(p0, ch0, &mut a0).unwrap();
    k1.lseek(p, ch, 0, &mut a1).unwrap();
    assert_eq!(k1.read(p, ch, 6, &mut a1).unwrap(), b"fresh!");
    let all = ByteRange::new(0, 64);
    assert!(!k1.cache.covers(fid, Owner::Proc(p), all, false));
}

/// Records the range of every `ReadReq` that crosses the wire, delivering
/// everything untouched: what the storage site was actually asked for.
#[derive(Default)]
struct ReadTap(parking_lot::Mutex<Vec<ByteRange>>);

impl locus_net::FaultInjector for ReadTap {
    fn decide(&self, _: SiteId, _: SiteId, msg: &Msg, _: bool) -> locus_net::FaultDecision {
        if let Msg::File(FileMsg::ReadReq { range, .. }) = msg {
            self.0.lock().push(*range);
        }
        locus_net::FaultDecision::Deliver
    }
}

fn tap_reads(c: &MiniCluster) -> Arc<ReadTap> {
    let tap = Arc::new(ReadTap::default());
    c.transport.set_fault_injector(Some(tap.clone()));
    tap
}

/// Site 1 opens `/cached` read/write and locks `len` bytes at `start`.
fn open_locked(
    k1: &Kernel,
    a1: &mut Account,
    start: u64,
    len: u64,
    mode: LockRequestMode,
) -> (locus_types::Pid, locus_types::Channel, locus_types::Fid) {
    let p1 = k1.spawn();
    let ch1 = k1.open(p1, "/cached", true, a1).unwrap();
    k1.lseek(p1, ch1, start, a1).unwrap();
    k1.lock(p1, ch1, len, mode, LockOpts::default(), a1)
        .unwrap();
    let fid = k1.procs.get(p1).unwrap().open_files[&ch1].fid;
    (p1, ch1, fid)
}

fn page(n: u32) -> locus_types::PageNo {
    locus_types::PageNo(n)
}

const FULL_PAGE: ByteRange = ByteRange {
    start: 0,
    len: 1024,
};

#[test]
fn readahead_lands_pages_in_cache() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 5120); // Five committed pages.
    let tap = tap_reads(&c);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    // Lock the whole file so readahead pages fall under coverage
    // (Section 5.2 prefetches the *locked* range) — exclusively, so the
    // grant comes bare and every page here is the read path's doing.
    let (p1, ch1, fid) = open_locked(k1, &mut a1, 0, 5120, LockRequestMode::Exclusive);
    assert!(k1.pages.is_empty());
    let owner = Owner::Proc(p1);
    let cached = |n| k1.pages.covers_page_span(fid, owner, page(n), FULL_PAGE);
    // A first touch is not sequential: the miss brings in its own page,
    // whole, and nothing ahead of it.
    k1.lseek(p1, ch1, 1024 + 100, &mut a1).unwrap();
    k1.read(p1, ch1, 100, &mut a1).unwrap();
    assert_eq!(*tap.0.lock(), [ByteRange::new(1024, 1024)]);
    assert!(cached(1) && !cached(0) && !cached(2));
    assert_eq!(k1.counters.snapshot().prefetches, 0);
    // Reading on within the page is a hit; hits need no bookkeeping for the
    // next miss to be recognised as sequential.
    let before = a1.clone();
    k1.read(p1, ch1, 824, &mut a1).unwrap();
    assert_eq!(a1.delta_since(&before).messages, 0);
    // The miss at the next page boundary finds the preceding page's last
    // byte cached: sequential, so two pages ride along with the demand page.
    k1.read(p1, ch1, 100, &mut a1).unwrap();
    assert_eq!(tap.0.lock()[1..], [ByteRange::new(2048, 3072)]);
    assert!(cached(2) && cached(3) && cached(4));
    assert_eq!(k1.counters.snapshot().prefetches, 2);
    // Reading a prefetched page is free of network traffic.
    let before = a1.clone();
    k1.lseek(p1, ch1, 3072, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 2048, &mut a1).unwrap(), vec![7u8; 2048]);
    assert_eq!(a1.delta_since(&before).messages, 0);
}

#[test]
fn locked_sequential_scan_costs_two_file_messages() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 8192);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    // Exclusive: the read path's own scan (a shared grant brings the pages,
    // `a_shared_lock_brings_its_pages_and_the_scan_sends_nothing_more`).
    let (p1, ch1, _) = open_locked(k1, &mut a1, 4096, 4096, LockRequestMode::Exclusive);
    let before = k1.counters.snapshot();
    for _ in 0..64 {
        assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![7u8; 64]);
    }
    let d = k1.counters.snapshot().since(&before);
    // Page 4 on the first miss, pages 5-7 on the second; everything else
    // is served from the page cache.
    assert_eq!(d.msgs_for(locus_types::Service::File), 2);
    assert_eq!(d.page_cache_hits, 62);
    assert_eq!(d.page_cache_misses, 2);
    assert_eq!(d.prefetches, 2);
}

#[test]
fn fetch_never_leaves_lock_coverage() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 4096);
    let tap = tap_reads(&c);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    // The lock covers bytes [100, 300) of page 0 and nothing else (and is
    // exclusive: a shared one would have brought them along).
    let (p1, ch1, fid) = open_locked(k1, &mut a1, 100, 200, LockRequestMode::Exclusive);
    let owner = Owner::Proc(p1);
    k1.lseek(p1, ch1, 150, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 10, &mut a1).unwrap(), vec![7u8; 10]);
    // Widened to the coverage, not to the page.
    assert_eq!(*tap.0.lock(), [ByteRange::new(100, 200)]);
    let spans = |s, l| {
        k1.pages
            .covers_page_span(fid, owner, page(0), ByteRange::new(s, l))
    };
    assert!(spans(100, 200));
    assert!(!spans(99, 2) && !spans(299, 2) && !spans(0, 1));
    // The rest of the coverage is now local...
    let before = a1.clone();
    k1.lseek(p1, ch1, 100, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 200, &mut a1).unwrap(), vec![7u8; 200]);
    assert_eq!(a1.delta_since(&before).messages, 0);
    // ...while a read outside it goes remote, for exactly its own bytes,
    // every time.
    for _ in 0..2 {
        k1.lseek(p1, ch1, 300, &mut a1).unwrap();
        assert_eq!(k1.read(p1, ch1, 50, &mut a1).unwrap(), vec![7u8; 50]);
    }
    // So does one that only partly lies inside it.
    k1.lseek(p1, ch1, 290, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 20, &mut a1).unwrap(), vec![7u8; 20]);
    let uncovered = [
        ByteRange::new(300, 50),
        ByteRange::new(300, 50),
        ByteRange::new(290, 20),
    ];
    assert_eq!(tap.0.lock()[1..], uncovered);
    assert!(!spans(300, 1));
}

#[test]
fn page_cache_disabled_sends_the_callers_exact_range() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 4096);
    let tap = tap_reads(&c);
    let k1 = &c.kernels[1];
    k1.page_cache_enabled
        .store(false, std::sync::atomic::Ordering::Relaxed);
    let mut a1 = acct(1);
    let (p1, ch1, _) = open_locked(k1, &mut a1, 0, 4096, LockRequestMode::Shared);
    k1.lseek(p1, ch1, 1000, &mut a1).unwrap();
    for _ in 0..3 {
        assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![7u8; 64]);
    }
    let exact = [
        ByteRange::new(1000, 64),
        ByteRange::new(1064, 64),
        ByteRange::new(1128, 64),
    ];
    assert_eq!(*tap.0.lock(), exact);
    assert!(k1.pages.is_empty());
    assert_eq!(k1.counters.snapshot().prefetches, 0);
}

#[test]
fn widened_read_skips_pages_with_foreign_uncommitted_bytes() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 4096);
    let k0 = &c.kernels[0];
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    // The reader holds [0, 2048) except the last 24 bytes of page 1...
    let (p1, ch1, fid) = open_locked(k1, &mut a1, 0, 2024, LockRequestMode::Exclusive);
    let owner = Owner::Proc(p1);
    // ...where another owner leaves uncommitted bytes.
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.open(p0, "/cached", true, &mut a0).unwrap();
    k0.lseek(p0, ch0, 2030, &mut a0).unwrap();
    k0.write(p0, ch0, b"dirty", &mut a0).unwrap();
    // Page 0, then a sequential miss on page 1 whose widened fetch covers
    // [1024, 2024): the caller gets its slice, the page is not cached.
    assert_eq!(k1.read(p1, ch1, 1024, &mut a1).unwrap(), vec![7u8; 1024]);
    assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![7u8; 64]);
    assert!(k1.pages.covers_page_span(fid, owner, page(0), FULL_PAGE));
    assert!(!k1
        .pages
        .covers_page_span(fid, owner, page(1), ByteRange::new(0, 1)));
    assert_eq!(k1.pages.len(), 1);
    // Once the other owner's bytes are rolled back, the page caches again.
    k0.abort_file(p0, ch0, &mut a0).unwrap();
    assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![7u8; 64]);
    assert!(k1
        .pages
        .covers_page_span(fid, owner, page(1), ByteRange::new(0, 1000)));
}

#[test]
fn refused_widening_falls_back_to_the_callers_range() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 4096);
    let k0 = &c.kernels[0];
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let (p1, ch1, _) = open_locked(k1, &mut a1, 0, 2048, LockRequestMode::Exclusive);
    // The storage site reboots and forgets the lock; site 1's lock cache
    // does not, and another process then locks part of the old range.
    k0.crash();
    k0.reboot();
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.open(p0, "/cached", true, &mut a0).unwrap();
    k0.lseek(p0, ch0, 512, &mut a0).unwrap();
    k0.lock(
        p0,
        ch0,
        100,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a0,
    )
    .unwrap();
    // The page-wide fetch runs into that lock and is refused; the caller's
    // own 64 bytes do not, and it gets them as it would without a cache.
    let tap = tap_reads(&c);
    assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![7u8; 64]);
    assert_eq!(
        *tap.0.lock(),
        [ByteRange::new(0, 1024), ByteRange::new(0, 64)]
    );
    // A read of the refused bytes themselves still fails.
    k1.lseek(p1, ch1, 512, &mut a1).unwrap();
    assert!(matches!(
        k1.read(p1, ch1, 64, &mut a1),
        Err(Error::AccessDenied { .. })
    ));
}

#[test]
fn local_reads_and_writes_skip_message_construction() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/local", &mut a).unwrap();
    let before = k.counters.snapshot().local_fast_paths;
    k.write(p, ch, b"abc", &mut a).unwrap();
    k.lseek(p, ch, 0, &mut a).unwrap();
    assert_eq!(k.read(p, ch, 3, &mut a).unwrap(), b"abc");
    assert_eq!(k.counters.snapshot().local_fast_paths, before + 2);
    assert_eq!(a.messages, 0);
}

#[test]
fn downgrade_admits_readers() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/f", &mut a).unwrap();
    k.write(p, ch, &[0u8; 64], &mut a).unwrap();
    k.lseek(p, ch, 0, &mut a).unwrap();
    k.lock(
        p,
        ch,
        64,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();
    // Downgrade exclusive → shared; a second reader is then admitted.
    k.lseek(p, ch, 0, &mut a).unwrap();
    k.lock(
        p,
        ch,
        64,
        LockRequestMode::Shared,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();
    let q = k.spawn();
    let qch = k.open(q, "/f", true, &mut a).unwrap();
    assert!(k
        .lock(
            q,
            qch,
            64,
            LockRequestMode::Shared,
            LockOpts::default(),
            &mut a
        )
        .is_ok());
}

// ----- The access carries its lock -------------------------------------------

/// Records where every message that crosses the wire went and what kind it
/// was, and applies `fault` to the first message of the kind it names.
#[derive(Default)]
struct WireTap {
    seen: parking_lot::Mutex<Vec<(SiteId, &'static str)>>,
    fault: parking_lot::Mutex<Option<(&'static str, locus_net::FaultDecision)>>,
}

impl WireTap {
    fn install(c: &MiniCluster) -> Arc<WireTap> {
        let tap = Arc::new(WireTap::default());
        c.transport.set_fault_injector(Some(tap.clone()));
        tap
    }

    /// The kinds seen since the last call.
    fn kinds(&self) -> Vec<&'static str> {
        self.seen.lock().drain(..).map(|(_, kind)| kind).collect()
    }
}

impl locus_net::FaultInjector for WireTap {
    fn decide(&self, _: SiteId, to: SiteId, msg: &Msg, _: bool) -> locus_net::FaultDecision {
        self.seen.lock().push((to, msg.kind()));
        let mut fault = self.fault.lock();
        match *fault {
            Some((kind, decision)) if kind == msg.kind() => {
                *fault = None;
                decision
            }
            _ => locus_net::FaultDecision::Deliver,
        }
    }
}

/// Puts `pid` in a transaction of its own, as `BeginTrans` does (the
/// transaction manager itself lives in `locus-core`).
fn enter_txn(k: &Kernel, pid: Pid, seq: u64) -> TransId {
    let tid = TransId::new(k.site, seq);
    k.procs
        .with_mut(pid, |rec| {
            rec.tid = Some(tid);
            rec.top = Some(pid);
            rec.nest = 1;
        })
        .unwrap();
    tid
}

/// Site 1 opens `/cached` (stored at site 0) for update, then enters a
/// transaction: the open is outside it, so the file list starts empty.
fn remote_txn(c: &MiniCluster, a1: &mut Account, seq: u64) -> (Pid, Channel, Fid, TransId) {
    let k1 = &c.kernels[1];
    let p = k1.spawn();
    let ch = k1.open(p, "/cached", true, a1).unwrap();
    let fid = k1.procs.get(p).unwrap().open_files[&ch].fid;
    (p, ch, fid, enter_txn(k1, p, seq))
}

/// The sites `pid`'s file list names for `fid`.
fn listed_sites(k: &Kernel, pid: Pid, fid: Fid) -> Vec<SiteId> {
    let mut sites: Vec<SiteId> = k
        .procs
        .get(pid)
        .unwrap()
        .file_list
        .iter()
        .filter(|e| e.fid == fid)
        .map(|e| e.storage_site)
        .collect();
    sites.dedup();
    sites
}

/// `(mode, range)` of every lock `owner` holds on `fid` at `k`.
fn locks_of(k: &Kernel, fid: Fid, owner: Owner) -> Vec<(LockMode, ByteRange)> {
    k.locks
        .descriptors(fid)
        .into_iter()
        .filter(|d| d.owner() == owner)
        .map(|d| (d.mode, d.range))
        .collect()
}

/// Wait-for edges in `fid`'s queue at `k`: one per waiter and the holder or
/// earlier waiter it is blocked behind.
fn wait_edges(k: &Kernel, fid: Fid) -> usize {
    let edges = k.locks.snapshot().edges;
    edges.iter().filter(|e| e.fid == fid).count()
}

/// Everybody's uncommitted modifications to the first page of `fid` at `k`.
fn uncommitted(k: &Kernel, fid: Fid) -> Vec<(Owner, ByteRange)> {
    let nobody = Owner::Proc(Pid::new(SiteId(9), 9));
    k.volume(fid.volume)
        .unwrap()
        .uncommitted_mods_overlapping(fid, FULL_PAGE, nobody)
}

#[test]
fn first_remote_touch_of_a_record_is_one_message() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 512);
    let tap = WireTap::install(&c);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a1 = acct(1);
    let (p, ch, fid, tid) = remote_txn(&c, &mut a1, 1);
    let owner = Owner::Trans(tid);
    tap.kinds();

    // First write: the exclusive lock rides it.
    let before = a1.clone();
    k1.write(p, ch, b"rec0", &mut a1).unwrap();
    let folded = a1.delta_since(&before);
    assert_eq!(folded.messages, 1);
    assert_eq!(tap.kinds(), ["WriteReq+Lock"]);
    let rec0 = ByteRange::new(0, 4);
    assert_eq!(locks_of(k0, fid, owner), [(LockMode::Exclusive, rec0)]);
    assert_eq!(listed_sites(k1, p, fid), [SiteId(0)]);
    assert!(k1.cache.covers(fid, owner, rec0, true));

    // Same record again: the lock is cached, the write travels bare.
    k1.lseek(p, ch, 0, &mut a1).unwrap();
    k1.write(p, ch, b"REC0", &mut a1).unwrap();
    assert_eq!(tap.kinds(), ["WriteReq"]);
    assert_eq!(locks_of(k0, fid, owner), [(LockMode::Exclusive, rec0)]);

    // The same first touch taken the explicit way costs one round trip more,
    // and the handling of the message that made it.
    k1.lseek(p, ch, 64, &mut a1).unwrap();
    let before = a1.clone();
    let opts = LockOpts {
        wait: true,
        ..LockOpts::default()
    };
    k1.lock(p, ch, 4, LockRequestMode::Exclusive, opts, &mut a1)
        .unwrap();
    k1.write(p, ch, b"rec1", &mut a1).unwrap();
    let explicit = a1.delta_since(&before);
    assert_eq!(tap.kinds(), ["LockReq", "WriteReq"]);
    assert_eq!(explicit.messages, 2);
    let saved = explicit.elapsed - folded.elapsed;
    assert!(
        saved >= c.model.net_rtt && saved < c.model.net_rtt + SimDuration::from_millis(2),
        "one round trip saved, not {saved:?}"
    );

    // Read-modify-write of a third record: two data messages, each with the
    // lock it needs (shared, then the upgrade), and no lock request.
    k1.lseek(p, ch, 128, &mut a1).unwrap();
    assert_eq!(k1.read(p, ch, 8, &mut a1).unwrap(), vec![7u8; 8]);
    let rec2 = ByteRange::new(128, 8);
    assert!(locks_of(k0, fid, owner).contains(&(LockMode::Shared, rec2)));
    k1.lseek(p, ch, 128, &mut a1).unwrap();
    k1.write(p, ch, &[8u8; 8], &mut a1).unwrap();
    assert_eq!(tap.kinds(), ["ReadReq+Lock", "WriteReq+Lock"]);
    assert!(locks_of(k0, fid, owner).contains(&(LockMode::Exclusive, rec2)));
    k1.lseek(p, ch, 128, &mut a1).unwrap();
    assert_eq!(k1.read(p, ch, 8, &mut a1).unwrap(), vec![8u8; 8]);
    assert_eq!(tap.kinds(), ["ReadReq"]);
}

#[test]
fn a_queued_lock_leaves_the_file_untouched_and_the_retry_rides_again() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 512);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    // The holder: a transaction at the storage site with an uncommitted
    // write to the record.
    let mut a0 = acct(0);
    let holder = k0.spawn();
    let hch = k0.open(holder, "/cached", true, &mut a0).unwrap();
    let held = Owner::Trans(enter_txn(k0, holder, 1));
    k0.write(holder, hch, b"HOLD", &mut a0).unwrap();

    let tap = WireTap::install(&c);
    let mut a1 = acct(1);
    let (p, ch, fid, tid) = remote_txn(&c, &mut a1, 2);
    let vol = k0.volume(fid.volume).unwrap();
    let bytes = |a: &mut Account| vol.read(fid, ByteRange::new(0, 16), a).unwrap();
    let (bytes_before, mods_before) = (bytes(&mut a0), uncommitted(k0, fid));
    assert_eq!(mods_before, [(held, ByteRange::new(0, 4))]);
    tap.kinds();

    for _ in 0..2 {
        // The second attempt is a spurious retry: still one waiter.
        assert!(matches!(
            k1.write(p, ch, b"mine", &mut a1),
            Err(Error::WouldBlock { .. })
        ));
        assert_eq!(bytes(&mut a0), bytes_before);
        assert_eq!(uncommitted(k0, fid), mods_before);
        assert_eq!(wait_edges(k0, fid), 1);
        assert!(locks_of(k0, fid, Owner::Trans(tid)).is_empty());
        // Nothing happened there, so nothing is remembered here.
        assert!(listed_sites(k1, p, fid).is_empty());
        assert!(!k1
            .cache
            .covers(fid, Owner::Trans(tid), ByteRange::new(0, 4), true));
    }
    assert_eq!(tap.kinds(), ["WriteReq+Lock", "WriteReq+Lock"]);

    // The holder commits and lets go; the grant wakes the writer.
    k0.rpc(
        SiteId(0),
        Msg::File(FileMsg::CommitReq { fid, owner: held }),
        &mut a0,
    )
    .unwrap();
    let granted = k0.locks.release_owner(held, &mut a0);
    k0.push_grants(granted, &mut a0);
    assert!(k1.take_wakeup(p));
    assert_eq!(tap.kinds(), ["LockGranted"]);

    let before = a1.clone();
    k1.write(p, ch, b"mine", &mut a1).unwrap();
    assert_eq!(a1.delta_since(&before).messages, 1);
    assert_eq!(tap.kinds(), ["WriteReq+Lock"]);
    assert_eq!(wait_edges(k0, fid), 0);
    assert_eq!(
        locks_of(k0, fid, Owner::Trans(tid)),
        [(LockMode::Exclusive, ByteRange::new(0, 4))]
    );
    assert_eq!(bytes(&mut a0)[..4], *b"mine");
    assert_eq!(listed_sites(k1, p, fid), [SiteId(0)]);
}

#[test]
fn the_lock_rides_to_the_catalog_primary_and_a_deposed_one_refuses_it() {
    let c = mini_cluster(3);
    let (k0, k1, k2) = (&c.kernels[0], &c.kernels[1], &c.kernels[2]);
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.creat(p0, "/r", &mut a0).unwrap();
    k0.write(p0, ch0, b"v1v1v1v1", &mut a0).unwrap();
    k0.close(p0, ch0, &mut a0).unwrap();
    mount_replica(&c);
    k0.catalog.add_replica("/r", SiteId(1)).unwrap();
    let ch0 = k0.open(p0, "/r", true, &mut a0).unwrap();
    k0.write(p0, ch0, b"v2", &mut a0).unwrap();
    k0.close(p0, ch0, &mut a0).unwrap();

    // Opened while site 0 is the primary; site 1 is promoted afterwards.
    let mut a2 = acct(2);
    let p = k2.spawn();
    let ch = k2.open(p, "/r", true, &mut a2).unwrap();
    let fid = k2.procs.get(p).unwrap().open_files[&ch].fid;
    let tid = enter_txn(k2, p, 1);
    k0.catalog.set_primary(fid, SiteId(1)).unwrap();

    let tap = WireTap::install(&c);
    k2.write(p, ch, b"v3", &mut a2).unwrap();
    assert_eq!(tap.seen.lock()[0], (SiteId(1), "WriteReq+Lock"));
    let rec = ByteRange::new(0, 2);
    assert_eq!(
        locks_of(k1, fid, Owner::Trans(tid)),
        [(LockMode::Exclusive, rec)]
    );
    assert_eq!(listed_sites(k2, p, fid), [SiteId(1)]);

    // The same request at the deposed primary: refused before the lock.
    let stale = Msg::File(FileMsg::WriteReq {
        fid,
        pid: p,
        owner: Owner::Trans(tid),
        range: rec,
        data: b"v4".to_vec(),
        lock: true,
    });
    assert!(matches!(
        k2.rpc(SiteId(0), stale, &mut a2),
        Err(Error::InvalidArgument(_))
    ));
    assert!(k0.locks.descriptors(fid).is_empty());
}

#[test]
fn a_lost_reply_still_names_the_site_and_a_duplicate_changes_nothing() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 512);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let tap = WireTap::install(&c);
    let mut a1 = acct(1);
    let (p, ch, fid, tid) = remote_txn(&c, &mut a1, 1);
    let owner = Owner::Trans(tid);

    // The reply is lost: the writer cannot know that the lock was granted
    // and the bytes written, so the site must hear the outcome either way.
    *tap.fault.lock() = Some(("WriteReq+Lock", locus_net::FaultDecision::DropReply));
    assert!(k1.write(p, ch, b"lost", &mut a1).is_err());
    let rec = ByteRange::new(0, 4);
    assert_eq!(locks_of(k0, fid, owner), [(LockMode::Exclusive, rec)]);
    assert_eq!(uncommitted(k0, fid), [(owner, rec)]);
    assert_eq!(listed_sites(k1, p, fid), [SiteId(0)]);
    // What is unknown is not cached: the retry asks again, harmlessly.
    assert!(!k1.cache.covers(fid, owner, rec, true));
    tap.kinds();
    k1.write(p, ch, b"lost", &mut a1).unwrap();
    assert_eq!(tap.kinds(), ["WriteReq+Lock"]);
    assert_eq!(locks_of(k0, fid, owner), [(LockMode::Exclusive, rec)]);

    // Delivered twice: one lock entry, one modified range, the bytes once.
    let rec = ByteRange::new(32, 4);
    k1.lseek(p, ch, 32, &mut a1).unwrap();
    *tap.fault.lock() = Some(("WriteReq+Lock", locus_net::FaultDecision::Duplicate));
    k1.write(p, ch, b"twin", &mut a1).unwrap();
    assert_eq!(
        locks_of(k0, fid, owner),
        [
            (LockMode::Exclusive, ByteRange::new(0, 4)),
            (LockMode::Exclusive, rec)
        ]
    );
    assert_eq!(
        uncommitted(k0, fid),
        [(owner, ByteRange::new(0, 4)), (owner, rec)]
    );
    let vol = k0.volume(fid.volume).unwrap();
    assert_eq!(vol.read(fid, ByteRange::new(28, 12), &mut a1).unwrap(), {
        let mut want = vec![7u8; 12];
        want[4..8].copy_from_slice(b"twin");
        want
    });
}

#[test]
fn only_a_transaction_may_ask_for_the_lock_to_ride() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 512);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a1 = acct(1);
    let p = k1.spawn();
    let ch = k1.open(p, "/cached", true, &mut a1).unwrap();
    let fid = k1.procs.get(p).unwrap().open_files[&ch].fid;
    let (owner, range) = (Owner::Proc(p), ByteRange::new(0, 4));
    let requests = [
        FileMsg::ReadReq {
            fid,
            pid: p,
            owner,
            range,
            lock: true,
        },
        FileMsg::WriteReq {
            fid,
            pid: p,
            owner,
            range,
            data: b"nope".to_vec(),
            lock: true,
        },
    ];
    for req in requests {
        assert!(matches!(
            k1.rpc(SiteId(0), Msg::File(req), &mut a1),
            Err(Error::ProtocolViolation(_))
        ));
    }
    assert!(k0.locks.descriptors(fid).is_empty());
    assert!(uncommitted(k0, fid).is_empty());
}

// ----- The grant carries its pages ---------------------------------------------

const SHARED: LockRequestMode = LockRequestMode::Shared;

/// Whether site `k` has all of page `n` of `fid` cached for `owner`.
fn has_page(k: &Kernel, fid: Fid, owner: Owner, n: u32) -> bool {
    k.pages.covers_page_span(fid, owner, page(n), FULL_PAGE)
}

/// A non-transaction `LockReq` for `range` of `fid` from `pid` at site 1;
/// with `fetch`, one that holds nothing.
fn lock_req(fid: Fid, pid: Pid, mode: LockRequestMode, range: ByteRange, fetch: bool) -> Msg {
    Msg::Lock(LockMsg::Req {
        fid,
        pid,
        tid: None,
        mode,
        class: LockClass::NonTransaction,
        range,
        append: false,
        wait: false,
        reply_site: SiteId(1),
        fetch: fetch.then(Held::default),
    })
}

/// The bytes a grant's pages carry.
fn shipped_bytes(pages: &[GrantPage]) -> usize {
    pages
        .iter()
        .map(|p| match p {
            GrantPage::Shipped { data, .. } => data.len(),
            GrantPage::Current => 0,
        })
        .sum()
}

#[test]
fn a_shared_lock_brings_its_pages_and_the_scan_sends_nothing_more() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 8192);
    let tap = WireTap::install(&c);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let p1 = k1.spawn();
    let ch1 = k1.open(p1, "/cached", true, &mut a1).unwrap();
    k1.lseek(p1, ch1, 4096, &mut a1).unwrap();
    tap.kinds();
    let before = (k1.counters.snapshot(), a1.clone());
    k1.lock(p1, ch1, 4096, SHARED, LockOpts::default(), &mut a1)
        .unwrap();
    // One round trip, charged for the four pages that came back with it.
    let locked = a1.delta_since(&before.1);
    assert_eq!(locked.messages, 1);
    assert!(locked.elapsed >= c.model.net_rtt + c.model.net_page_transfer * 4);
    for _ in 0..64 {
        assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![7u8; 64]);
    }
    assert_eq!(tap.kinds(), ["LockReq+Fetch"]);
    let d = k1.counters.snapshot().since(&before.0);
    assert_eq!(d.msgs_for(locus_types::Service::Lock), 1);
    assert_eq!(d.msgs_for(locus_types::Service::File), 0);
    assert_eq!((d.page_cache_hits, d.page_cache_misses), (64, 0));
    assert_eq!(d.prefetches, 4);
    assert_eq!(a1.delta_since(&before.1).messages, 1);
}

#[test]
fn every_other_lock_request_gets_a_bare_grant() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 4096);
    let tap = WireTap::install(&c);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a1 = acct(1);
    let opts = LockOpts::default();
    let append = LockOpts {
        append: true,
        ..opts
    };
    let open = |a1: &mut Account| {
        let p = k1.spawn();
        (p, k1.open(p, "/cached", true, a1).unwrap())
    };
    // The same request, differing in the one thing that keeps the pages home:
    // its mode, append placement, a transaction, the page cache being off.
    let (p, ch) = open(&mut a1);
    tap.kinds();
    let before = a1.clone();
    k1.lock(p, ch, 4096, LockRequestMode::Exclusive, opts, &mut a1)
        .unwrap();
    let exclusive = a1.delta_since(&before);
    k1.unlock(p, ch, 4096, &mut a1).unwrap();
    k1.lock(p, ch, 64, SHARED, append, &mut a1).unwrap();
    k1.close(p, ch, &mut a1).unwrap();
    let (p, ch) = open(&mut a1);
    enter_txn(k1, p, 1);
    k1.lock(p, ch, 4096, SHARED, opts, &mut a1).unwrap();
    k0.locks
        .release_owner(Owner::Trans(TransId::new(SiteId(1), 1)), &mut a1);
    let (p, ch) = open(&mut a1);
    k1.page_cache_enabled
        .store(false, std::sync::atomic::Ordering::Relaxed);
    let before = a1.clone();
    k1.lock(p, ch, 4096, SHARED, opts, &mut a1).unwrap();
    let cache_off = a1.delta_since(&before);
    let sent = tap.kinds();
    let locks: Vec<_> = sent
        .iter()
        .copied()
        .filter(|k| k.starts_with("Lock"))
        .collect();
    assert_eq!(locks, ["LockReq"; 5], "{sent:?}");
    assert!(k1.pages.is_empty());
    assert_eq!(k1.counters.snapshot().prefetches, 0);
    // Bare is bare: the shared grant without pages costs what the exclusive
    // one does, to the microsecond — Section 6.2's remote lock.
    assert_eq!(cache_off.elapsed, exclusive.elapsed);
    let ms = exclusive.elapsed.as_millis_f64();
    assert!((17.0..20.0).contains(&ms), "remote lock took {ms} ms");
}

#[test]
fn a_lock_whose_reads_a_local_replica_serves_gets_a_bare_grant() {
    let c = mini_cluster(2);
    let k0 = &c.kernels[0];
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.creat(p0, "/r", &mut a0).unwrap();
    k0.write(p0, ch0, &[7u8; 2048], &mut a0).unwrap();
    k0.close(p0, ch0, &mut a0).unwrap();
    mount_replica(&c);
    k0.catalog.add_replica("/r", SiteId(1)).unwrap();
    // Opened for update while site 0 is the primary; then site 1 is promoted.
    // Site 0's copy is still synced, so it serves this channel's reads
    // itself, while the lock list is now at site 1.
    let ch0 = k0.open(p0, "/r", true, &mut a0).unwrap();
    k0.write(p0, ch0, b"v2", &mut a0).unwrap();
    k0.commit_file(p0, ch0, &mut a0).unwrap();
    let fid = k0.procs.get(p0).unwrap().open_files[&ch0].fid;
    k0.catalog.set_primary(fid, SiteId(1)).unwrap();
    let tap = WireTap::install(&c);
    k0.lseek(p0, ch0, 0, &mut a0).unwrap();
    k0.lock(p0, ch0, 2048, SHARED, LockOpts::default(), &mut a0)
        .unwrap();
    assert_eq!(*tap.seen.lock(), [(SiteId(1), "LockReq")]);
    assert!(k0.pages.is_empty());
    let before = a0.clone();
    assert_eq!(k0.read(p0, ch0, 2, &mut a0).unwrap(), b"v2");
    assert_eq!(a0.delta_since(&before).messages, 0);
}

#[test]
fn a_five_page_lock_ships_four_and_the_fifth_comes_by_one_sequential_read() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 5120);
    let tap = tap_reads(&c);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let (p1, ch1, fid) = open_locked(k1, &mut a1, 0, 5120, SHARED);
    let owner = Owner::Proc(p1);
    assert!((0..4).all(|n| has_page(k1, fid, owner, n)));
    assert_eq!(k1.pages.len(), 4);
    assert_eq!(k1.counters.snapshot().prefetches, 4);
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    for _ in 0..5 {
        assert_eq!(k1.read(p1, ch1, 1024, &mut a1).unwrap(), vec![7u8; 1024]);
    }
    // The read path takes over where the grant stopped: page 3's last byte
    // is cached, so the miss on page 4 is a sequential one.
    assert_eq!(*tap.0.lock(), [ByteRange::new(4096, 1024)]);
    assert!(has_page(k1, fid, owner, 4));
}

#[test]
fn a_grant_ships_the_locked_bytes_of_a_page_and_no_others() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 4096);
    let tap = tap_reads(&c);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    // From mid-page 0 to mid-page 2, in a file that goes on past it.
    let (p1, ch1, fid) = open_locked(k1, &mut a1, 1000, 1500, SHARED);
    let spans = |n, s, l| {
        k1.pages
            .covers_page_span(fid, Owner::Proc(p1), page(n), ByteRange::new(s, l))
    };
    assert!(spans(0, 1000, 24) && has_page(k1, fid, Owner::Proc(p1), 1) && spans(2, 0, 452));
    assert!(!spans(0, 999, 1) && !spans(2, 452, 1));
    assert_eq!(k1.pages.len(), 3);
    assert_eq!(k1.read(p1, ch1, 1500, &mut a1).unwrap(), vec![7u8; 1500]);
    assert!(tap.0.lock().is_empty());
}

#[test]
fn a_queued_request_ships_nothing_and_its_retry_after_the_grant_does() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 2048);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a0 = acct(0);
    let holder = k0.spawn();
    let hch = k0.open(holder, "/cached", true, &mut a0).unwrap();
    k0.lock(
        holder,
        hch,
        64,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a0,
    )
    .unwrap();

    let tap = WireTap::install(&c);
    let mut a1 = acct(1);
    let p1 = k1.spawn();
    let ch1 = k1.open(p1, "/cached", true, &mut a1).unwrap();
    let fid = k1.procs.get(p1).unwrap().open_files[&ch1].fid;
    let wait = LockOpts {
        wait: true,
        ..LockOpts::default()
    };
    tap.kinds();
    let before = a1.clone();
    assert!(matches!(
        k1.lock(p1, ch1, 2048, SHARED, wait, &mut a1),
        Err(Error::WouldBlock { .. })
    ));
    // Queued is an error reply: no pages on the wire, none in the cache.
    let queued = a1.delta_since(&before);
    assert!(queued.elapsed < c.model.net_rtt + c.model.net_page_transfer);
    assert!(k1.pages.is_empty());
    assert!(!k1
        .cache
        .covers(fid, Owner::Proc(p1), ByteRange::new(0, 1), false));

    k0.unlock(holder, hch, 64, &mut a0).unwrap();
    assert!(k1.take_wakeup(p1));
    k1.lock(p1, ch1, 2048, SHARED, wait, &mut a1).unwrap();
    assert_eq!(
        tap.kinds(),
        ["LockReq+Fetch", "LockGranted", "LockReq+Fetch"]
    );
    assert_eq!(
        locks_of(k0, fid, Owner::Proc(p1)),
        [(LockMode::Shared, ByteRange::new(0, 2048))]
    );
    assert!((0..2).all(|n| has_page(k1, fid, Owner::Proc(p1), n)));
    let before = a1.clone();
    assert_eq!(k1.read(p1, ch1, 2048, &mut a1).unwrap(), vec![7u8; 2048]);
    assert_eq!(a1.delta_since(&before).messages, 0);
}

#[test]
fn a_granted_page_with_another_owners_uncommitted_bytes_is_not_cached() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 4096);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    // Another owner's uncommitted bytes sit at the end of page 1...
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.open(p0, "/cached", true, &mut a0).unwrap();
    k0.lseek(p0, ch0, 2030, &mut a0).unwrap();
    k0.write(p0, ch0, b"dirty", &mut a0).unwrap();
    // ...just past what the reader locks.
    let mut a1 = acct(1);
    let p1 = k1.spawn();
    let ch1 = k1.open(p1, "/cached", true, &mut a1).unwrap();
    let fid = k1.procs.get(p1).unwrap().open_files[&ch1].fid;
    let range = ByteRange::new(0, 2024);
    let resp = k1.rpc(SiteId(0), lock_req(fid, p1, SHARED, range, true), &mut a1);
    let Ok(Msg::Lock(LockMsg::Resp { pages, .. })) = resp else {
        panic!("{resp:?}");
    };
    let [GrantPage::Shipped {
        vers: v0,
        clean: true,
        data: d0,
    }, GrantPage::Shipped {
        vers: v1,
        clean: false,
        data: d1,
    }] = &pages[..]
    else {
        panic!("{pages:?}");
    };
    assert_eq!([&d0[..], &d1[..]].concat(), vec![7u8; 2024]);
    assert!(*v0 != Volume::VERS_UNCACHEABLE);
    assert_eq!(*v1, Volume::VERS_UNCACHEABLE);

    k1.lock(p1, ch1, 2024, SHARED, LockOpts::default(), &mut a1)
        .unwrap();
    let owner = Owner::Proc(p1);
    assert!(has_page(k1, fid, owner, 0));
    assert_eq!(k1.pages.len(), 1);
    // Once those bytes are rolled back the page caches, by the read path.
    k0.abort_file(p0, ch0, &mut a0).unwrap();
    k1.lseek(p1, ch1, 1024, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![7u8; 64]);
    assert!(k1
        .pages
        .covers_page_span(fid, owner, page(1), ByteRange::new(0, 1000)));
}

#[test]
fn a_lost_or_doubled_grant_leaves_one_lock_entry_and_a_coherent_cache() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 2048);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let tap = WireTap::install(&c);
    let mut a1 = acct(1);
    let p1 = k1.spawn();
    let ch1 = k1.open(p1, "/cached", true, &mut a1).unwrap();
    let fid = k1.procs.get(p1).unwrap().open_files[&ch1].fid;
    let owner = Owner::Proc(p1);
    let held = [(LockMode::Shared, ByteRange::new(0, 2048))];

    // The grant and its pages are lost on the way back: the storage site
    // holds the lock, this site knows nothing and has cached nothing.
    *tap.fault.lock() = Some(("LockReq+Fetch", locus_net::FaultDecision::DropReply));
    assert!(k1
        .lock(p1, ch1, 2048, SHARED, LockOpts::default(), &mut a1)
        .is_err());
    assert_eq!(locks_of(k0, fid, owner), held);
    assert!(!k1.cache.covers(fid, owner, ByteRange::new(0, 1), false));
    assert!(k1.pages.is_empty());
    // Asking again is harmless, and fetches again.
    *tap.fault.lock() = Some(("LockReq+Fetch", locus_net::FaultDecision::Duplicate));
    k1.lock(p1, ch1, 2048, SHARED, LockOpts::default(), &mut a1)
        .unwrap();
    assert_eq!(locks_of(k0, fid, owner), held);
    assert_eq!(k1.pages.len(), 2);
    let before = a1.clone();
    assert_eq!(k1.read(p1, ch1, 2048, &mut a1).unwrap(), vec![7u8; 2048]);
    assert_eq!(a1.delta_since(&before).messages, 0);
    // Letting go stops serving the pages with the coverage, as for any lock
    // (the two came clean, and are kept for the next grant to name current).
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    k1.unlock(p1, ch1, 2048, &mut a1).unwrap();
    assert!(k1.pages.is_empty() && k0.locks.descriptors(fid).is_empty());
    assert_eq!(k1.pages.retained_len(), 2);
}

#[test]
fn the_storage_site_refuses_a_fetch_it_would_never_be_sent() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 2048);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a1 = acct(1);
    let p = k1.spawn();
    let ch = k1.open(p, "/cached", true, &mut a1).unwrap();
    let fid = k1.procs.get(p).unwrap().open_files[&ch].fid;
    let range = ByteRange::new(0, 1024);
    let tid = TransId::new(SiteId(1), 1);
    let mut appending = lock_req(fid, p, SHARED, range, true);
    if let Msg::Lock(LockMsg::Req { append, .. }) = &mut appending {
        *append = true;
    }
    let hostile = [
        lock_req(fid, p, LockRequestMode::Unlock, range, true),
        lock_req(fid, p, LockRequestMode::Exclusive, range, true),
        appending,
        Msg::Lock(LockMsg::Req {
            fid,
            pid: p,
            tid: Some(tid),
            mode: SHARED,
            class: LockClass::Transaction,
            range,
            append: false,
            wait: true,
            reply_site: SiteId(1),
            fetch: Some(Held::default()),
        }),
    ];
    for req in hostile {
        let shown = format!("{req:?}");
        let resp = k1.rpc(SiteId(0), req, &mut a1);
        assert!(
            matches!(resp, Err(Error::ProtocolViolation(_))),
            "{shown}: {resp:?}"
        );
        assert!(k0.locks.descriptors(fid).is_empty(), "{shown}");
    }
    // The request it is sent is served.
    let resp = k1.rpc(SiteId(0), lock_req(fid, p, SHARED, range, true), &mut a1);
    assert!(
        matches!(&resp, Ok(Msg::Lock(LockMsg::Resp { pages, .. })) if shipped_bytes(pages) == 1024)
    );
}

#[test]
fn the_storage_site_refuses_a_held_list_it_could_not_have_been_sent() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 8192);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a1 = acct(1);
    let p = k1.spawn();
    let ch = k1.open(p, "/cached", true, &mut a1).unwrap();
    let fid = k1.procs.get(p).unwrap().open_files[&ch].fid;
    let holding = |range, have: Vec<u64>| {
        let mut req = lock_req(fid, p, SHARED, range, true);
        if let Msg::Lock(LockMsg::Req {
            fetch: Some(held), ..
        }) = &mut req
        {
            held.have = have;
        }
        req
    };
    // Longer than any ship window; past the last page of a two-page range.
    for (range, have) in [
        (ByteRange::new(0, 8192), vec![1; 5]),
        (ByteRange::new(0, 2048), vec![1; 3]),
        (ByteRange::new(1000, 100), vec![1; 3]),
        (ByteRange::new(0, 0), vec![1]),
    ] {
        let resp = k1.rpc(SiteId(0), holding(range, have.clone()), &mut a1);
        assert!(
            matches!(resp, Err(Error::InvalidArgument(_))),
            "{range:?} {have:?}: {resp:?}"
        );
        assert!(k0.locks.descriptors(fid).is_empty());
    }
    // As long as the window is fine, whatever the versions say.
    let resp = k1.rpc(
        SiteId(0),
        holding(ByteRange::new(0, 2048), vec![1; 2]),
        &mut a1,
    );
    assert!(matches!(&resp, Ok(Msg::Lock(LockMsg::Resp { pages, .. })) if pages.len() == 2));
}

// ----- A released lock keeps its pages -------------------------------------------

/// Site 1 opens `/cached` (stored at site 0), locks its first four pages
/// shared, reads them record by record and releases them: the four pages are
/// retained.
fn scanned_and_released(c: &MiniCluster, a1: &mut Account) -> (Pid, Channel, Fid) {
    let k1 = &c.kernels[1];
    let (p1, ch1, fid) = open_locked(k1, a1, 0, 4096, SHARED);
    scan_released(k1, p1, ch1, a1);
    (p1, ch1, fid)
}

/// Reads `[0, 4096)` as 64 records (the channel must hold it locked) and
/// unlocks it.
fn scan_released(k1: &Kernel, p1: Pid, ch1: Channel, a1: &mut Account) -> Vec<u8> {
    k1.lseek(p1, ch1, 0, a1).unwrap();
    let seen: Vec<u8> = (0..64)
        .flat_map(|_| k1.read(p1, ch1, 64, a1).unwrap())
        .collect();
    k1.lseek(p1, ch1, 0, a1).unwrap();
    k1.unlock(p1, ch1, 4096, a1).unwrap();
    seen
}

/// Locks `[0, 4096)` shared again; returns the pages the grant shipped.
fn relock(k1: &Kernel, p1: Pid, ch1: Channel, a1: &mut Account) -> u64 {
    let before = k1.counters.snapshot();
    k1.lseek(p1, ch1, 0, a1).unwrap();
    k1.lock(p1, ch1, 4096, SHARED, LockOpts::default(), a1)
        .unwrap();
    k1.counters.snapshot().since(&before).prefetches
}

/// Site 0 overwrites `range` of `/cached` with `byte` and commits.
fn commit_at_site0(c: &MiniCluster, range: ByteRange, byte: u8) {
    let k0 = &c.kernels[0];
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.open(p0, "/cached", true, &mut a0).unwrap();
    k0.lseek(p0, ch0, range.start, &mut a0).unwrap();
    k0.write(p0, ch0, &vec![byte; range.len as usize], &mut a0)
        .unwrap();
    k0.close(p0, ch0, &mut a0).unwrap();
}

#[test]
fn a_revalidated_relock_of_four_pages_is_one_message_with_no_pages_and_no_disk_reads() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 132 * 1024);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    // Cold buffers at the storage site.
    k0.crash();
    k0.reboot();
    let mut a1 = acct(1);
    let (p1, ch1, fid) = scanned_and_released(&c, &mut a1);
    assert_eq!((k1.pages.len(), k1.pages.retained_len()), (0, 4));
    // The storage site's buffers move on: a local reader goes through the
    // next 128 pages, and the four are evicted there.
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.open(p0, "/cached", false, &mut a0).unwrap();
    k0.lseek(p0, ch0, 4096, &mut a0).unwrap();
    k0.read(p0, ch0, 128 * 1024, &mut a0).unwrap();

    let tap = WireTap::install(&c);
    let before = (a1.clone(), k1.counters.snapshot());
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    k1.lock(p1, ch1, 4096, SHARED, LockOpts::default(), &mut a1)
        .unwrap();
    let locked = a1.delta_since(&before.0);
    // One round trip that carried no page and read nothing off the disk.
    assert_eq!(tap.kinds(), ["LockReq+Fetch"]);
    assert_eq!((locked.messages, locked.disk_reads), (1, 0));
    assert!(locked.elapsed < c.model.net_rtt + c.model.net_page_transfer);
    assert!((0..4).all(|n| has_page(k1, fid, Owner::Proc(p1), n)));
    assert_eq!(k1.pages.retained_len(), 0);
    for _ in 0..64 {
        assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![7u8; 64]);
    }
    let d = k1.counters.snapshot().since(&before.1);
    assert_eq!((d.page_cache_hits, d.page_cache_misses), (64, 0));
    assert_eq!((d.prefetches, d.disk_reads), (0, 0));
    assert_eq!(a1.delta_since(&before.0).messages, 1);
    assert!(tap.kinds().is_empty());
}

#[test]
fn a_relock_ships_only_the_page_another_owner_committed() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 8192);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let (p1, ch1, fid) = scanned_and_released(&c, &mut a1);
    commit_at_site0(&c, ByteRange::new(1100, 8), 9);
    assert_eq!(relock(k1, p1, ch1, &mut a1), 1);
    assert!((0..4).all(|n| has_page(k1, fid, Owner::Proc(p1), n)));
    let mut want = vec![7u8; 4096];
    want[1100..1108].fill(9);
    assert_eq!(scan_released(k1, p1, ch1, &mut a1), want);
    // Another owner's bytes, uncommitted, keep the page from being current
    // at its version (and from being cached at all); once rolled back, the
    // kept copy is the page again.
    let k0 = &c.kernels[0];
    let mut a0 = acct(0);
    let p0 = k0.spawn();
    let ch0 = k0.open(p0, "/cached", true, &mut a0).unwrap();
    k0.lseek(p0, ch0, 3000, &mut a0).unwrap();
    k0.write(p0, ch0, b"dirty", &mut a0).unwrap();
    assert_eq!(relock(k1, p1, ch1, &mut a1), 1);
    assert!(!has_page(k1, fid, Owner::Proc(p1), 2));
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    k1.unlock(p1, ch1, 4096, &mut a1).unwrap();
    k0.abort_file(p0, ch0, &mut a0).unwrap();
    assert_eq!(relock(k1, p1, ch1, &mut a1), 0);
    assert_eq!(scan_released(k1, p1, ch1, &mut a1), want);
}

#[test]
fn a_page_shipped_with_the_owners_own_uncommitted_bytes_is_not_kept() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 8192);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let p1 = k1.spawn();
    let ch1 = k1.open(p1, "/cached", true, &mut a1).unwrap();
    // The reader's own uncommitted record on page 2, then the scan: page 2
    // is served under the lock, but it could revert at the same version, so
    // it does not outlive it.
    k1.lseek(p1, ch1, 2100, &mut a1).unwrap();
    k1.write(p1, ch1, b"mine", &mut a1).unwrap();
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    k1.lock(p1, ch1, 4096, SHARED, LockOpts::default(), &mut a1)
        .unwrap();
    let mut want = vec![7u8; 4096];
    want[2100..2104].copy_from_slice(b"mine");
    assert_eq!(scan_released(k1, p1, ch1, &mut a1), want);
    assert_eq!(k1.pages.retained_len(), 3);
    assert_eq!(relock(k1, p1, ch1, &mut a1), 1);
    assert_eq!(scan_released(k1, p1, ch1, &mut a1), want);
}

#[test]
fn a_storage_site_reboot_reships_every_page() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 8192);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a1 = acct(1);
    let (p1, ch1, fid) = scanned_and_released(&c, &mut a1);
    k0.crash();
    k0.reboot();
    // The request still names the four; the storage site's new boot epoch
    // says none is current, and the reply's drops what was kept.
    assert_eq!(relock(k1, p1, ch1, &mut a1), 4);
    assert!((0..4).all(|n| has_page(k1, fid, Owner::Proc(p1), n)));
    assert_eq!(scan_released(k1, p1, ch1, &mut a1), vec![7u8; 4096]);
    assert_eq!(relock(k1, p1, ch1, &mut a1), 0);
}

#[test]
fn a_replication_epoch_bump_reships_every_page() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 8192);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    mount_replica(&c);
    k0.catalog.add_replica("/cached", SiteId(1)).unwrap();
    let mut a1 = acct(1);
    let (p1, ch1, fid) = scanned_and_released(&c, &mut a1);
    assert_eq!(k1.pages.retained_len(), 4);
    // Failover and back: the primary is where it was, two epochs on.
    let epoch = k0.catalog.loc_of(fid).unwrap().epoch;
    let epoch = k0.catalog.promote(fid, SiteId(1), epoch).unwrap();
    k0.catalog.promote(fid, SiteId(0), epoch).unwrap();
    assert_eq!(relock(k1, p1, ch1, &mut a1), 4);
    assert_eq!(scan_released(k1, p1, ch1, &mut a1), vec![7u8; 4096]);
    assert_eq!(relock(k1, p1, ch1, &mut a1), 0);
}

#[test]
fn a_write_close_or_exit_drops_what_a_release_kept() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 8192);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    // A write over a retained page drops it, and the next grant ships it.
    let (p1, ch1, _) = scanned_and_released(&c, &mut a1);
    k1.lseek(p1, ch1, 1030, &mut a1).unwrap();
    k1.write(p1, ch1, b"w", &mut a1).unwrap();
    assert_eq!(k1.pages.retained_len(), 3);
    assert_eq!(relock(k1, p1, ch1, &mut a1), 1);
    scan_released(k1, p1, ch1, &mut a1);
    // Close drops the file's pages; the same process opening it again
    // starts from nothing.
    k1.close(p1, ch1, &mut a1).unwrap();
    assert_eq!(k1.pages.retained_len(), 0);
    let ch1 = k1.open(p1, "/cached", true, &mut a1).unwrap();
    assert_eq!(relock(k1, p1, ch1, &mut a1), 4);
    scan_released(k1, p1, ch1, &mut a1);
    // So does exit.
    assert_eq!(k1.pages.retained_len(), 4);
    k1.exit(p1, &mut a1).unwrap();
    assert_eq!(k1.pages.retained_len(), 0);
}

// ----- A lost reply leaves nothing served ------------------------------------------

#[test]
fn a_lost_unlock_reply_leaves_nothing_served_from_the_released_lock() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 4096);
    let tap = WireTap::install(&c);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let (p1, ch1, _) = open_locked(k1, &mut a1, 0, 4096, SHARED);
    assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![7u8; 64]);
    // The storage site releases the lock; the reply never arrives.
    *tap.fault.lock() = Some(("LockReq", locus_net::FaultDecision::DropReply));
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    assert!(k1.unlock(p1, ch1, 4096, &mut a1).is_err());
    // So nothing refuses site 0's write, and site 1 reads it.
    commit_at_site0(&c, ByteRange::new(0, 64), 9);
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![9u8; 64]);
}

#[test]
fn a_lost_close_reply_leaves_nothing_served_from_the_released_locks() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 4096);
    let tap = WireTap::install(&c);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let (p1, ch1, _) = open_locked(k1, &mut a1, 0, 4096, SHARED);
    assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![7u8; 64]);
    // Commit and unlock-all are processed; the batch's reply is lost, and
    // the channel stays open.
    *tap.fault.lock() = Some(("Batch", locus_net::FaultDecision::DropReply));
    assert!(k1.close(p1, ch1, &mut a1).is_err());
    commit_at_site0(&c, ByteRange::new(0, 64), 9);
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 64, &mut a1).unwrap(), vec![9u8; 64]);
}

#[test]
fn a_lost_abort_reply_leaves_no_reverted_bytes_served() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 4096);
    let tap = WireTap::install(&c);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let ex = LockRequestMode::Exclusive;
    let (p1, ch1, _) = open_locked(k1, &mut a1, 0, 1024, ex);
    k1.write(p1, ch1, b"mine", &mut a1).unwrap();
    // The read brings page 0, the process's own bytes on it, into the cache.
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    assert_eq!(
        k1.read(p1, ch1, 8, &mut a1).unwrap(),
        b"mine\x07\x07\x07\x07"
    );
    *tap.fault.lock() = Some(("AbortReq", locus_net::FaultDecision::DropReply));
    assert!(k1.abort_file(p1, ch1, &mut a1).is_err());
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 8, &mut a1).unwrap(), vec![7u8; 8]);
}

// ----- The caller's range as it came ---------------------------------------------

#[test]
fn a_read_of_more_than_memory_under_a_whole_file_lock_returns_the_file() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 4096);
    let tap = tap_reads(&c);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    let (p1, ch1, _) = open_locked(k1, &mut a1, 0, u64::MAX, SHARED);
    // The page cache is asked first, under coverage that holds: it must not
    // size a buffer by the request.
    for len in [1 << 40, 1 << 62, u64::MAX] {
        k1.lseek(p1, ch1, 0, &mut a1).unwrap();
        assert_eq!(k1.read(p1, ch1, len, &mut a1).unwrap(), vec![7u8; 4096]);
    }
    // Each is a miss (the cache cannot hold that many pages), asked of the
    // storage site as it came and answered with what there is.
    assert_eq!(
        *tap.0.lock(),
        [1 << 40, 1 << 62, u64::MAX].map(|len| ByteRange::new(0, len))
    );
    // What is cached still serves a read that fits it.
    let before = a1.clone();
    k1.lseek(p1, ch1, 0, &mut a1).unwrap();
    assert_eq!(k1.read(p1, ch1, 4096, &mut a1).unwrap(), vec![7u8; 4096]);
    assert_eq!(a1.delta_since(&before).messages, 0);
}

#[test]
fn a_range_of_any_length_visits_only_the_pages_that_came_back() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 8192);
    let k1 = &c.kernels[1];
    let mut a1 = acct(1);
    // A shared lock on the whole address space of an 8-page file ships the
    // cap, four pages, and looks at no page beyond them.
    let before = k1.counters.snapshot();
    let (p1, ch1, fid) = open_locked(k1, &mut a1, 0, u64::MAX, SHARED);
    let d = k1.counters.snapshot().since(&before);
    assert_eq!((d.prefetches, k1.pages.len()), (4, 4));
    assert!((0..4).all(|n| has_page(k1, fid, Owner::Proc(p1), n)));
    // A read of 2^40 bytes from page 4 on brings what the file has, four
    // pages, all of them demanded: the last page asked for is computed, not
    // walked to (2^30 pages; 2^52 for the read after it).
    for len in [1 << 40, 1 << 62] {
        k1.lseek(p1, ch1, 4096, &mut a1).unwrap();
        let before = k1.counters.snapshot();
        assert_eq!(k1.read(p1, ch1, len, &mut a1).unwrap(), vec![7u8; 4096]);
        let d = k1.counters.snapshot().since(&before);
        assert_eq!((d.page_cache_misses, d.prefetches), (1, 0));
        assert_eq!(k1.pages.len(), 8);
    }
}

// ----- Ranges that do not fit the address space --------------------------------

#[test]
fn a_seek_near_the_top_of_the_address_space_is_refused_not_a_panic() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/f", &mut a).unwrap();
    k.lseek(p, ch, u64::MAX - 2, &mut a).unwrap();
    let refused = |r: Result<(), Error>| matches!(r, Err(Error::InvalidArgument(_)));
    assert!(refused(k.write(p, ch, b"hello", &mut a)));
    assert!(refused(k.read(p, ch, 5, &mut a).map(|_| ())));
    let lock = k.lock(
        p,
        ch,
        5,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    );
    assert!(refused(lock.map(|_| ())));
    // The pointer did not wrap, and what fits is still served.
    assert_eq!(k.procs.get(p).unwrap().open_files[&ch].pos, u64::MAX - 2);
    assert!(k.read(p, ch, 2, &mut a).unwrap().is_empty());
    let fid = k.procs.get(p).unwrap().open_files[&ch].fid;
    assert!(k.locks.descriptors(fid).is_empty());
}

#[test]
fn a_range_from_another_site_that_overflows_is_refused_by_every_handler() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 512);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a1 = acct(1);
    let p = k1.spawn();
    let ch = k1.open(p, "/cached", true, &mut a1).unwrap();
    let fid = k1.procs.get(p).unwrap().open_files[&ch].fid;
    let tid = TransId::new(SiteId(1), 1);
    let (owner, range) = (Owner::Trans(tid), ByteRange::new(u64::MAX, 2));
    let requests = [
        Msg::File(FileMsg::ReadReq {
            fid,
            pid: p,
            owner,
            range,
            lock: true,
        }),
        Msg::File(FileMsg::WriteReq {
            fid,
            pid: p,
            owner,
            range,
            data: b"xx".to_vec(),
            lock: true,
        }),
        Msg::Lock(locus_net::LockMsg::Req {
            fid,
            pid: p,
            tid: Some(tid),
            mode: LockRequestMode::Exclusive,
            class: locus_types::LockClass::Transaction,
            range,
            append: false,
            wait: true,
            reply_site: SiteId(1),
            fetch: None,
        }),
    ];
    for req in requests {
        let kind = req.kind();
        assert!(
            matches!(
                k1.rpc(SiteId(0), req, &mut a1),
                Err(Error::InvalidArgument(_))
            ),
            "{kind}"
        );
        assert!(k0.locks.descriptors(fid).is_empty(), "{kind}");
        assert_eq!(wait_edges(k0, fid), 0, "{kind}");
    }
    assert!(uncommitted(k0, fid).is_empty());
}

#[test]
fn an_append_lock_that_overflows_past_end_of_file_is_refused_not_a_panic() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/f", &mut a).unwrap();
    k.write(p, ch, b"not empty", &mut a).unwrap();
    let fid = k.procs.get(p).unwrap().open_files[&ch].fid;
    let append = LockOpts {
        append: true,
        ..LockOpts::default()
    };
    // `check_range` passes 0 + u64::MAX; end-of-file + u64::MAX is what
    // does not fit, and only the lock list knows end-of-file.
    let lock = k.lock(p, ch, u64::MAX, LockRequestMode::Exclusive, append, &mut a);
    assert!(matches!(lock, Err(Error::InvalidArgument(_))), "{lock:?}");
    assert!(k.locks.descriptors(fid).is_empty());
    // What fits is placed at end-of-file as before.
    let lock = k.lock(p, ch, 16, LockRequestMode::Exclusive, append, &mut a);
    assert_eq!(lock, Ok(ByteRange::new(9, 16)));
}

#[test]
fn an_append_lock_request_from_another_site_that_overflows_is_refused() {
    let c = mini_cluster(2);
    seed_remote_file(&c, 512);
    let (k0, k1) = (&c.kernels[0], &c.kernels[1]);
    let mut a1 = acct(1);
    let p = k1.spawn();
    let ch = k1.open(p, "/cached", true, &mut a1).unwrap();
    let fid = k1.procs.get(p).unwrap().open_files[&ch].fid;
    // Each fits the address space by itself and not behind 512 bytes of
    // file: by its length, and by its end-of-file-relative start.
    for range in [ByteRange::new(0, u64::MAX), ByteRange::new(u64::MAX - 1, 1)] {
        for mode in [LockRequestMode::Exclusive, LockRequestMode::Unlock] {
            let req = Msg::Lock(locus_net::LockMsg::Req {
                fid,
                pid: p,
                tid: None,
                mode,
                class: locus_types::LockClass::NonTransaction,
                range,
                append: true,
                wait: true,
                reply_site: SiteId(1),
                fetch: None,
            });
            let resp = k1.rpc(SiteId(0), req, &mut a1);
            assert!(
                matches!(resp, Err(Error::InvalidArgument(_))),
                "{range:?} {mode:?}: {resp:?}"
            );
            assert!(k0.locks.descriptors(fid).is_empty());
            assert_eq!(wait_edges(k0, fid), 0);
        }
    }
}

#[test]
fn a_write_past_the_last_page_a_file_can_name_is_refused_not_a_panic() {
    let c = mini_cluster(1);
    let k = &c.kernels[0];
    let mut a = acct(0);
    let p = k.spawn();
    let ch = k.creat(p, "/f", &mut a).unwrap();
    k.write(p, ch, b"abc", &mut a).unwrap();
    let fid = k.procs.get(p).unwrap().open_files[&ch].fid;
    let vol = k.volume(fid.volume).unwrap();
    let mods = uncommitted(k, fid);
    // Page 2^32 is the first whose number `PageNo(u32)` cannot hold.
    let first_unnameable = (u64::from(u32::MAX) + 1) * c.model.page_size as u64;
    for pos in [first_unnameable, first_unnameable - 2, 5 << 40] {
        k.lseek(p, ch, pos, &mut a).unwrap();
        let wrote = k.write(p, ch, b"hello", &mut a);
        assert!(matches!(wrote, Err(Error::InvalidArgument(_))), "{wrote:?}");
        assert_eq!(k.procs.get(p).unwrap().open_files[&ch].pos, pos);
        assert_eq!(vol.len(fid, &mut a).unwrap(), 3);
        assert_eq!(uncommitted(k, fid), mods);
    }
    k.lseek(p, ch, 0, &mut a).unwrap();
    assert_eq!(k.read(p, ch, 8, &mut a).unwrap(), b"abc");
}

#[test]
fn a_sync_naming_a_page_outside_the_file_is_refused_and_the_replica_untouched() {
    let c = mini_cluster(2);
    let k0 = &c.kernels[0];
    let mut a = acct(0);
    let p = k0.spawn();
    let ch = k0.creat(p, "/rep", &mut a).unwrap();
    let (replica, disk) = mount_replica(&c);
    k0.catalog.add_replica("/rep", SiteId(1)).unwrap();
    k0.write(p, ch, b"replicated!", &mut a).unwrap();
    k0.close(p, ch, &mut a).unwrap();
    let loc = k0.catalog.resolve("/rep").unwrap();
    let fid = loc.fid;
    let state = |a: &mut Account| {
        (
            replica.durable_peek(fid, ByteRange::new(0, 64)),
            replica.replica_versions(fid, a),
            disk.allocated_count(),
        )
    };
    let before = state(&mut a);
    assert_eq!(before.0.as_deref(), Some(&b"replicated!"[..]));

    let image = locus_types::PageData::new(vec![0xEE; c.model.page_size]);
    let max_len = (u64::from(u32::MAX) + 1) * c.model.page_size as u64;
    // A page table sized by the page number would be 2^32 entries; a length
    // no `write` accepts; and the first page past an 11-byte file.
    for (new_len, page) in [
        (11, Some(u32::MAX)),
        (max_len + 1, None),
        (u64::MAX, Some(0)),
        (11, Some(1)),
    ] {
        let sync = Msg::Replica(locus_net::ReplicaMsg::Sync {
            fid,
            new_len,
            epoch: loc.epoch,
            pages: page
                .map(|n| (locus_types::PageNo(n), 99, image.clone()))
                .into_iter()
                .collect(),
        });
        let resp = k0.rpc(SiteId(1), sync, &mut a);
        assert!(
            matches!(resp, Err(Error::InvalidArgument(_))),
            "{new_len} {page:?}: {resp:?}"
        );
        assert_eq!(state(&mut a), before, "{new_len} {page:?}");
    }
}
