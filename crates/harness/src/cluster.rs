//! Cluster construction and fault injection.

use std::sync::Arc;

use locus_core::manager::RecoveryReport;
use locus_core::Site;
use locus_disk::SimDisk;
use locus_fs::Volume;
use locus_kernel::{Catalog, Kernel};
use locus_net::SimTransport;
use locus_proc::ProcessRegistry;
use locus_sim::{Account, CostModel, Counters, CountersSnapshot, EventLog, SpanRegistrySnapshot};
use locus_types::{SiteId, VolumeId};

/// Blocks per simulated disk.
const DISK_BLOCKS: usize = 65_536;

/// A simulated Locus network: `n` sites, each with a kernel, a transaction
/// manager, and one home volume, joined by a [`SimTransport`].
pub struct Cluster {
    pub sites: Vec<Arc<Site>>,
    pub transport: Arc<SimTransport>,
    pub events: Arc<EventLog>,
    pub counters: Arc<Counters>,
    pub model: Arc<CostModel>,
    pub registry: Arc<ProcessRegistry>,
    pub catalog: Arc<Catalog>,
}

impl Cluster {
    /// A cluster with the default (paper-calibrated) cost model.
    pub fn new(n_sites: usize) -> Self {
        Self::with_model(n_sites, CostModel::default())
    }

    /// A cluster with a custom cost model (e.g. [`CostModel::paper_1985`]).
    pub fn with_model(n_sites: usize, model: CostModel) -> Self {
        let model = Arc::new(model);
        let counters = Arc::new(Counters::default());
        let events = Arc::new(EventLog::new());
        let registry = Arc::new(ProcessRegistry::new());
        let catalog = Arc::new(Catalog::new());
        let transport = Arc::new(SimTransport::new(
            n_sites,
            model.clone(),
            counters.clone(),
            events.clone(),
        ));
        let mut sites = Vec::with_capacity(n_sites);
        for i in 0..n_sites {
            let sid = SiteId(i as u32);
            let disk = Arc::new(SimDisk::new(DISK_BLOCKS, model.clone(), counters.clone()));
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
        // Topology-change hook: every surviving site's transaction manager
        // aborts transactions that span lost sites (Section 4.3).
        let weak: Vec<std::sync::Weak<Site>> = sites.iter().map(Arc::downgrade).collect();
        transport.on_topology_change(Arc::new(move |survivor| {
            if let Some(site) = weak.get(survivor.0 as usize).and_then(|w| w.upgrade()) {
                let mut acct = Account::new(survivor);
                site.txn.on_topology_change(&mut acct);
            }
        }));
        Cluster {
            sites,
            transport,
            events,
            counters,
            model,
            registry,
            catalog,
        }
    }

    pub fn site(&self, i: usize) -> &Arc<Site> {
        &self.sites[i]
    }

    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Runs every site's asynchronous phase-two dæmon until all queues are
    /// empty or stop making progress. Returns how many items moved on: the
    /// transactions that completed, and the riding commits that began their
    /// waiting turn ([`locus_core::TxnManager::run_async_work`]).
    ///
    /// A pass that moves nothing is run once more before the queues count
    /// as stuck: a commit answered "not yet landed" completes on its
    /// resend, which forces the frames. A pass in which riding commits
    /// begin their waiting turn counts as progress, since the next one
    /// sends them: with no transaction behind it, a commit to delegates
    /// among peers takes four passes — wait, go alone, wait, resend.
    pub fn drain_async(&self) -> usize {
        let mut total = 0;
        let mut idle = 0;
        loop {
            let mut progressed = 0;
            for s in &self.sites {
                if s.kernel.is_crashed() {
                    continue;
                }
                let mut acct = Account::new(s.id());
                progressed += s.txn.run_async_work(&mut acct);
            }
            total += progressed;
            let pending: usize = self.sites.iter().map(|s| s.txn.pending_async()).sum();
            idle = if progressed == 0 { idle + 1 } else { 0 };
            if idle == 2 || pending == 0 {
                break;
            }
        }
        // Step boundary: flush every live site's home-volume journal so
        // lazily truncated records do not pile up in the volatile tail (the
        // deterministic driver's group-commit window closes here).
        for s in &self.sites {
            if s.kernel.is_crashed() {
                continue;
            }
            if let Ok(home) = s.kernel.home() {
                let mut acct = Account::new(s.id());
                let _ = home.log_barrier(&mut acct);
            }
        }
        total
    }

    /// Crashes a site: volatile state is lost and the network marks it down.
    pub fn crash_site(&self, i: usize) {
        self.sites[i].crash();
        self.transport.site_down(SiteId(i as u32));
    }

    /// Reboots a crashed site and runs transaction recovery (Section 4.4).
    pub fn reboot_site(&self, i: usize) -> RecoveryReport {
        self.transport.site_up(SiteId(i as u32));
        let mut acct = Account::new(SiteId(i as u32));
        self.sites[i].reboot_and_recover(&mut acct)
    }

    /// Adds a replica of site `primary`'s home volume at site `replica` for
    /// the named file (Section 5.2 replication).
    pub fn add_replica(&self, name: &str, primary: usize, replica: usize) {
        let prim = &self.sites[primary];
        let vol_id = prim.kernel.home_volume;
        let rep = &self.sites[replica];
        if rep.kernel.volume(vol_id).is_err() {
            let disk = Arc::new(SimDisk::new(
                DISK_BLOCKS,
                self.model.clone(),
                self.counters.clone(),
            ));
            let vol = Arc::new(Volume::new(
                vol_id,
                rep.id(),
                disk,
                self.model.clone(),
                self.counters.clone(),
                self.events.clone(),
            ));
            rep.kernel.mount(vol);
        }
        self.catalog
            .add_replica(name, rep.id())
            .expect("file registered before replication");
    }

    /// Runs epoch-guarded failover on every live site, in ascending site
    /// order (the deterministic successor rule prefers the lowest reachable
    /// synced replica, so iterating ascending lets it win first). Returns
    /// how many (file, epoch) promotions happened.
    pub fn try_failover(&self) -> usize {
        let mut n = 0;
        for s in &self.sites {
            if s.kernel.is_crashed() {
                continue;
            }
            let mut acct = Account::new(s.id());
            n += s.kernel.try_promotions(&mut acct).len();
        }
        n
    }

    /// Runs catch-up resync on every live site: stale replicas pull the
    /// pages they missed from their primaries. Returns how many files
    /// resynced across the cluster.
    pub fn resync_replicas(&self) -> usize {
        let mut n = 0;
        for s in &self.sites {
            if s.kernel.is_crashed() {
                continue;
            }
            let mut acct = Account::new(s.id());
            n += s.kernel.resync_replicas(&mut acct);
        }
        n
    }

    /// A fresh account homed at site `i`.
    pub fn account(&self, i: usize) -> Account {
        Account::new(SiteId(i as u32))
    }

    /// Counter snapshot across the whole cluster (counters are shared).
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// Span-registry snapshot (per-phase latency decomposition, both clock
    /// banks) across the whole cluster.
    pub fn spans(&self) -> SpanRegistrySnapshot {
        self.counters.spans.snapshot()
    }

    /// The cluster's cost model.
    pub fn model(&self) -> &Arc<CostModel> {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_wires_n_sites() {
        let c = Cluster::new(4);
        assert_eq!(c.n_sites(), 4);
        // Each site can create a file and every other site can read it.
        let mut a = c.account(2);
        let p = c.site(2).kernel.spawn();
        let ch = c.site(2).kernel.creat(p, "/probe", &mut a).unwrap();
        c.site(2).kernel.write(p, ch, b"ok", &mut a).unwrap();
        c.site(2).kernel.close(p, ch, &mut a).unwrap();
        for i in 0..4 {
            let mut ai = c.account(i);
            let pi = c.site(i).kernel.spawn();
            let chi = c.site(i).kernel.open(pi, "/probe", false, &mut ai).unwrap();
            assert_eq!(c.site(i).kernel.read(pi, chi, 2, &mut ai).unwrap(), b"ok");
        }
    }

    #[test]
    fn a_dropped_cluster_drops_its_sites() {
        let c = Cluster::new(2);
        let mut a = c.account(0);
        let p = c.site(0).kernel.spawn();
        let ch = c.site(0).kernel.creat(p, "/probe", &mut a).unwrap();
        c.site(0).kernel.close(p, ch, &mut a).unwrap();
        let mut a = c.account(1);
        let p = c.site(1).kernel.spawn();
        let ch = c.site(1).kernel.open(p, "/probe", true, &mut a).unwrap();
        c.site(1).kernel.write(p, ch, b"ok", &mut a).unwrap();
        let sites: Vec<_> = c.sites.iter().map(Arc::downgrade).collect();
        let kernels: Vec<_> = c.sites.iter().map(|s| Arc::downgrade(&s.kernel)).collect();
        let managers: Vec<_> = c.sites.iter().map(|s| Arc::downgrade(&s.txn)).collect();
        let transport = Arc::downgrade(&c.transport);
        drop(c);
        assert!(
            sites.iter().all(|w| w.upgrade().is_none()),
            "a site outlived its cluster"
        );
        assert!(
            kernels.iter().all(|w| w.upgrade().is_none()),
            "a kernel outlived its cluster"
        );
        assert!(
            managers.iter().all(|w| w.upgrade().is_none()),
            "a manager outlived its cluster"
        );
        assert!(
            transport.upgrade().is_none(),
            "the transport outlived its cluster"
        );
    }

    #[test]
    fn draining_after_an_idle_requester_empties_every_queue() {
        // `commit_dist`'s shape: site 0 writes a file at each of sites 1
        // and 2 and holds none, so the two decide by their votes and the
        // requester's commits ride the next message to each. None comes.
        let c = Cluster::new(3);
        for i in [1, 2] {
            let mut a = c.account(i);
            let p = c.site(i).kernel.spawn();
            let ch = c
                .site(i)
                .kernel
                .creat(p, &format!("/f{i}"), &mut a)
                .unwrap();
            c.site(i).kernel.close(p, ch, &mut a).unwrap();
        }
        let (s0, mut a) = (c.site(0), c.account(0));
        let pid = s0.kernel.spawn();
        let tid = s0.txn.begin_trans(pid, &mut a).unwrap();
        for i in [1, 2] {
            let ch = s0
                .kernel
                .open(pid, &format!("/f{i}"), true, &mut a)
                .unwrap();
            s0.kernel.write(pid, ch, b"idle", &mut a).unwrap();
        }
        s0.txn.end_trans(pid, &mut a).unwrap();
        assert_eq!(s0.txn.pending_async(), 1);
        assert!(c.drain_async() > 0);
        for s in &c.sites {
            assert_eq!(s.txn.pending_async(), 0, "site {}", s.id());
            let owner = locus_types::Owner::Trans(tid);
            assert!(!s.kernel.locks.owner_has_locks(owner), "site {}", s.id());
        }
    }

    #[test]
    fn draining_sends_a_release_a_queued_waiter_needs() {
        // Site 1's process holds a lock on a file at site 0; site 2's
        // process queues behind it; then the holder unlocks. Nothing else
        // goes to site 0, so the release rides no message: one pump turn
        // sends it, and the drain counts it.
        let c = Cluster::new(3);
        let (k0, k1, k2) = (&c.site(0).kernel, &c.site(1).kernel, &c.site(2).kernel);
        let mut a0 = c.account(0);
        let p0 = k0.spawn();
        let ch = k0.creat(p0, "/f", &mut a0).unwrap();
        k0.write(p0, ch, &[0; 64], &mut a0).unwrap();
        k0.close(p0, ch, &mut a0).unwrap();
        let x = locus_types::LockRequestMode::Exclusive;
        let wait = locus_kernel::LockOpts {
            wait: true,
            ..Default::default()
        };
        let (mut a1, mut a2) = (c.account(1), c.account(2));
        let (p1, p2) = (k1.spawn(), k2.spawn());
        let ch1 = k1.open(p1, "/f", true, &mut a1).unwrap();
        let ch2 = k2.open(p2, "/f", true, &mut a2).unwrap();
        k1.lock(p1, ch1, 64, x, wait, &mut a1).unwrap();
        assert!(k2.lock(p2, ch2, 64, x, wait, &mut a2).is_err());
        k1.unlock(p1, ch1, 64, &mut a1).unwrap();
        assert!(!k2.take_wakeup(p2));
        assert_eq!(c.site(1).txn.pending_async(), 1);
        assert!(c.drain_async() > 0);
        assert!(k2.take_wakeup(p2));
        let granted = k2.lock(p2, ch2, 64, x, wait, &mut a2);
        assert_eq!(granted, Ok(locus_types::ByteRange::new(0, 64)));
        assert_eq!(c.site(1).txn.pending_async(), 0);
    }

    #[test]
    fn crash_and_reboot_cycle() {
        let c = Cluster::new(2);
        c.crash_site(1);
        assert!(c.site(1).kernel.is_crashed());
        let report = c.reboot_site(1);
        assert_eq!(report, Default::default());
        assert!(!c.site(1).kernel.is_crashed());
    }
}
