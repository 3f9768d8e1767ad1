//! The per-site kernel object: shared state (volumes, locks, processes,
//! wakeups) and the transport plumbing every service rides on.
//!
//! The system-call surface and the storage-site request handlers live in
//! [`crate::services`], one module per subsystem (file, lock, proc,
//! replica, txn); this file owns the `Kernel` struct itself and the
//! cross-cutting machinery: RPC/notify/batch send paths, wakeups for blocked
//! lock requests, and failure injection.
//!
//! Data-plane requests for a file are processed at the file's *storage site*
//! (its primary update site when replicated, Section 5.2); the kernel routes
//! local requests directly and remote ones through the transport. All
//! modeled costs accrue on the calling activity's [`Account`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex, RwLock};

use locus_fs::Volume;
use locus_locks::{LockCache, LockManager};
use locus_net::{Msg, SiteHandler, Transport};
use locus_proc::{OpenFile, ProcessRegistry, ProcessTable};
use locus_sim::{Account, CostModel, Counters, Event, EventLog};
use locus_types::{Channel, Error, Fid, Owner, Pid, Result, SiteId, TransId, VolumeId};

use crate::catalog::Catalog;
use crate::pagecache::PageCache;
use crate::services::{self, TxnService};

/// One site's kernel.
pub struct Kernel {
    pub site: SiteId,
    pub model: Arc<CostModel>,
    pub counters: Arc<Counters>,
    pub events: Arc<EventLog>,
    volumes: RwLock<std::collections::HashMap<VolumeId, Arc<Volume>>>,
    /// The volume new files are created on.
    pub home_volume: VolumeId,
    pub locks: Arc<LockManager>,
    pub procs: Arc<ProcessTable>,
    pub registry: Arc<ProcessRegistry>,
    pub catalog: Arc<Catalog>,
    pub cache: Arc<LockCache>,
    /// Per-site page cache, coherent through the lock cache (Section 5.1:
    /// a lock holder "may use local copies" of the locked data). Entries
    /// exist only while [`Kernel::cache`] coverage justifies them.
    pub pages: Arc<PageCache>,
    /// Kill switch for the page cache's read fast path (the equivalence
    /// proptests compare a caching kernel against one with this off).
    pub page_cache_enabled: AtomicBool,
    /// The cluster transport, and below the transaction control plane
    /// serving `Msg::Txn` at this site (registered by `locus-core` when the
    /// site assembly is built). Both are held weakly: each holds this
    /// kernel, and the cluster and the site own them, so a dropped cluster
    /// frees its sites.
    transport: RwLock<Option<Weak<dyn Transport>>>,
    txn_service: RwLock<Option<Weak<dyn TxnService>>>,
    wake_slots: Mutex<std::collections::HashMap<Pid, Arc<WakeSlot>>>,
    crashed: AtomicBool,
    /// Boot epoch (incarnation number): incremented on every reboot and
    /// persisted on the home volume. Storage-site responses carry it so a
    /// transaction's file-list records which incarnation served each file;
    /// a mismatch at prepare time means this site rebooted mid-transaction
    /// and its volatile buffers (possibly holding acked writes) were lost.
    boot_epoch: AtomicU64,
}

/// Per-process wakeup slot: a flag plus a condvar private to the process, so
/// waking one blocked process neither contends with nor spuriously wakes the
/// others (the old single site-wide condvar did both).
#[derive(Debug, Default)]
struct WakeSlot {
    pending: Mutex<bool>,
    cv: Condvar,
}

impl Kernel {
    pub fn new(
        site: SiteId,
        model: Arc<CostModel>,
        counters: Arc<Counters>,
        events: Arc<EventLog>,
        home: Arc<Volume>,
        registry: Arc<ProcessRegistry>,
        catalog: Arc<Catalog>,
    ) -> Self {
        let home_volume = home.id();
        let boot_epoch = home
            .disk()
            .stable_peek(Self::EPOCH_KEY)
            .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
            .unwrap_or(0);
        let mut volumes = std::collections::HashMap::new();
        volumes.insert(home_volume, home);
        Kernel {
            site,
            locks: Arc::new(LockManager::new(
                model.clone(),
                counters.clone(),
                events.clone(),
            )),
            model,
            counters,
            events,
            volumes: RwLock::new(volumes),
            home_volume,
            procs: Arc::new(ProcessTable::new(site)),
            registry,
            catalog,
            cache: Arc::new(LockCache::new()),
            pages: Arc::new(PageCache::new()),
            page_cache_enabled: AtomicBool::new(true),
            transport: RwLock::new(None),
            txn_service: RwLock::new(None),
            wake_slots: Mutex::new(std::collections::HashMap::new()),
            crashed: AtomicBool::new(false),
            boot_epoch: AtomicU64::new(boot_epoch),
        }
    }

    /// Wires the kernel to the cluster transport (done once at cluster
    /// construction).
    pub fn set_transport(&self, t: Arc<dyn Transport>) {
        *self.transport.write() = Some(Arc::downgrade(&t));
    }

    /// Registers the transaction control plane that serves `Msg::Txn`
    /// requests addressed to this site.
    pub fn set_txn_service(&self, s: Arc<dyn TxnService>) {
        *self.txn_service.write() = Some(Arc::downgrade(&s));
    }

    pub(crate) fn txn_service_ref(&self) -> Result<Arc<dyn TxnService>> {
        self.txn_service
            .read()
            .as_ref()
            .and_then(Weak::upgrade)
            .ok_or_else(|| Error::ProtocolViolation("no transaction service registered".into()))
    }

    /// Mounts an additional volume (a replica of another site's filesystem).
    pub fn mount(&self, v: Arc<Volume>) {
        self.volumes.write().insert(v.id(), v);
    }

    /// The mounted volume with the given id.
    pub fn volume(&self, id: VolumeId) -> Result<Arc<Volume>> {
        self.volumes
            .read()
            .get(&id)
            .cloned()
            .ok_or(Error::StaleFid(Fid::new(id, 0)))
    }

    /// The home volume. Fails (rather than panicking) if the home volume was
    /// somehow unmounted — the error surfaces as `Msg::Err` to remote
    /// callers instead of poisoning the serving thread.
    pub fn home(&self) -> Result<Arc<Volume>> {
        self.volume(self.home_volume)
    }

    /// Every volume currently mounted at this site (recovery scans them
    /// all: logs live on the same medium as the files they cover, so a
    /// volume carried to another site remains recoverable there,
    /// Section 4.4).
    pub fn mounted_volumes(&self) -> Vec<Arc<Volume>> {
        let mut v: Vec<Arc<Volume>> = self.volumes.read().values().cloned().collect();
        v.sort_by_key(|vol| vol.id());
        v
    }

    fn transport_ref(&self) -> Result<Arc<dyn Transport>> {
        self.transport
            .read()
            .as_ref()
            .and_then(Weak::upgrade)
            .ok_or_else(|| Error::ProtocolViolation("transport not wired".into()))
    }

    pub(crate) fn check_up(&self) -> Result<()> {
        if self.crashed.load(Ordering::Relaxed) {
            Err(Error::Crashed(self.site))
        } else {
            Ok(())
        }
    }

    /// Request/response to another site's kernel (or a local shortcut).
    pub fn rpc(&self, to: SiteId, msg: Msg, acct: &mut Account) -> Result<Msg> {
        self.exchange(to, msg, acct)?.into_result()
    }

    /// [`Kernel::rpc`] with the reply left as it came: a `Msg::Err` answer
    /// is not the exchange's failure.
    fn exchange(&self, to: SiteId, msg: Msg, acct: &mut Account) -> Result<Msg> {
        if to == self.site {
            return Ok(self.handle_kernel_msg(self.site, msg, acct));
        }
        self.transport_ref()?.rpc(self.site, to, msg, acct)
    }

    /// One-way notification to another site.
    pub fn notify(&self, to: SiteId, msg: Msg, acct: &mut Account) -> Result<()> {
        if to == self.site {
            self.handle_kernel_msg(self.site, msg, acct);
            return Ok(());
        }
        self.transport_ref()?.notify(self.site, to, msg, acct)
    }

    /// Sends several messages to one site as a single network message
    /// ([`Msg::Batch`]: one round trip; a single message goes unbatched) and
    /// returns each member's own answer, positionally. The outer error is
    /// the exchange's: the batch was lost, refused whole, or not answered
    /// once per member.
    pub fn rpc_batch(
        &self,
        to: SiteId,
        mut msgs: Vec<Msg>,
        acct: &mut Account,
    ) -> Result<Vec<Result<Msg>>> {
        let n = msgs.len();
        let resps = match n {
            0 => Vec::new(),
            1 => vec![self.exchange(to, msgs.remove(0), acct)?],
            _ => match self.rpc(to, Msg::Batch(msgs), acct)? {
                Msg::Batch(resps) if resps.len() == n => resps,
                other => {
                    return Err(Error::ProtocolViolation(format!(
                        "batch of {n} answered by {other:?}"
                    )))
                }
            },
        };
        Ok(resps.into_iter().map(Msg::into_result).collect())
    }

    // ----- Process/channel bookkeeping shared by the services ---------------

    /// Creates a fresh top-level process at this site.
    pub fn spawn(&self) -> Pid {
        let pid = self.procs.spawn();
        self.registry.set(pid, self.site);
        pid
    }

    /// The synchronization owner a process acts as (its transaction, if any).
    pub fn owner_of(&self, pid: Pid) -> Owner {
        // In-place lookup: `procs.get` would clone the whole record (open
        // files, children, file list) and this runs on every data-path
        // syscall.
        match self.procs.with_mut(pid, |r| r.tid).ok().flatten() {
            Some(tid) => Owner::Trans(tid),
            None => Owner::Proc(pid),
        }
    }

    /// Drops every cache an owner may have populated: lock cache entries and
    /// the page entries they justified. Called wherever an owner's locks die
    /// wholesale (transaction end/abort, process exit).
    pub fn drop_owner_caches(&self, owner: Owner) {
        self.cache.drop_owner(owner);
        self.pages.drop_owner(owner);
    }

    pub(crate) fn with_channel(
        &self,
        pid: Pid,
        ch: Channel,
    ) -> Result<(OpenFile, Option<TransId>)> {
        // In-place under the stripe lock — cloning the record here would put
        // a full open-files map copy on every read/write/seek.
        self.procs.with_mut(pid, |rec| {
            let of = rec.open_files.get(&ch).copied().ok_or(Error::BadChannel)?;
            Ok((of, rec.tid))
        })?
    }

    // ----- Request dispatch ---------------------------------------------------

    /// Handles a kernel-level message at this (storage) site by routing it to
    /// the owning service handler.
    pub fn handle_kernel_msg(&self, from: SiteId, msg: Msg, acct: &mut Account) -> Msg {
        if self.check_up().is_err() {
            return Msg::Err(Error::SiteDown(self.site));
        }
        match services::dispatch(self, from, msg, acct) {
            Ok(m) => m,
            Err(e) => Msg::Err(e),
        }
    }

    // ----- Wakeups (blocked lock requests) ----------------------------------

    /// The wakeup slot for `pid`, created on first use. A wake arriving
    /// before the process ever waits must persist (the old set-insert
    /// semantics), so `wake` also creates the slot.
    fn wake_slot(&self, pid: Pid) -> Arc<WakeSlot> {
        self.wake_slots.lock().entry(pid).or_default().clone()
    }

    /// Consumes a pending wakeup for `pid`, if any.
    pub fn take_wakeup(&self, pid: Pid) -> bool {
        let slot = self.wake_slots.lock().get(&pid).cloned();
        match slot {
            Some(s) => std::mem::take(&mut *s.pending.lock()),
            None => false,
        }
    }

    /// Blocks (real time) until `pid` has a wakeup — used by the threaded
    /// driver. Returns false on timeout.
    pub fn wait_wakeup(&self, pid: Pid, timeout: std::time::Duration) -> bool {
        let slot = self.wake_slot(pid);
        let mut pending = slot.pending.lock();
        if std::mem::take(&mut *pending) {
            return true;
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let res = slot.cv.wait_until(&mut pending, deadline);
            if std::mem::take(&mut *pending) {
                return true;
            }
            if res.timed_out() {
                return false;
            }
        }
    }

    /// Wakes a process unconditionally (used when a transaction abort must
    /// unblock its queued members). The flag is set under the slot mutex, so
    /// a wake racing a waiter's deadline check cannot be lost.
    pub fn wake(&self, pid: Pid) {
        let slot = self.wake_slot(pid);
        *slot.pending.lock() = true;
        slot.cv.notify_all();
    }

    /// Discards a process's wakeup slot (process exit).
    pub(crate) fn drop_wake_slot(&self, pid: Pid) {
        self.wake_slots.lock().remove(&pid);
    }

    // ----- Failure injection --------------------------------------------------

    /// Crashes the site: every piece of volatile state — processes, lock
    /// lists, lock caches, buffered pages, in-core inodes — is lost. Disk
    /// contents survive.
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::Relaxed);
        self.events.push(Event::SiteCrash { site: self.site });
        self.procs.crash();
        self.locks.crash();
        self.cache.crash();
        self.pages.crash();
        for v in self.volumes.read().values() {
            v.crash();
        }
        self.registry.drop_site(self.site);
        self.wake_slots.lock().clear();
    }

    const EPOCH_KEY: &'static str = "site/boot_epoch";

    /// This incarnation's boot epoch.
    pub fn boot_epoch(&self) -> u64 {
        self.boot_epoch.load(Ordering::Relaxed)
    }

    /// Reboots the site (filesystem housekeeping only; transaction recovery
    /// is driven by the transaction manager in `locus-core`). The boot epoch
    /// advances and is persisted first, so no post-reboot response can ever
    /// carry a pre-crash epoch.
    pub fn reboot(&self) {
        for v in self.volumes.read().values() {
            v.reboot();
        }
        let epoch = self.boot_epoch.load(Ordering::Relaxed) + 1;
        if let Ok(home) = self.home() {
            let mut acct = Account::new(self.site);
            let _ =
                home.disk()
                    .stable_put(Self::EPOCH_KEY, epoch.to_le_bytes().to_vec(), &mut acct);
        }
        self.boot_epoch.store(epoch, Ordering::Relaxed);
        self.crashed.store(false, Ordering::Relaxed);
    }

    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    // ----- Chaos / oracle inspection -----------------------------------------

    /// Every granted lock descriptor at this site, flattened. The chaos
    /// harness's post-run oracles read these (Section 3.1's "interface to
    /// operating system data", extended for fault-injection audits).
    pub fn held_locks(&self) -> Vec<(Fid, locus_types::LockDescriptor)> {
        self.locks
            .snapshot()
            .held
            .into_iter()
            .flat_map(|(fid, ds)| ds.into_iter().map(move |d| (fid, d)))
            .collect()
    }

    /// Granted process-class locks whose owning process no longer exists
    /// anywhere in the network — orphans that survived a crash they should
    /// not have. Transaction-class locks are judged by their transaction's
    /// fate instead (the chaos oracles check those against the event log).
    pub fn orphan_proc_locks(&self) -> Vec<(Fid, locus_types::LockDescriptor)> {
        self.held_locks()
            .into_iter()
            .filter(|(_, d)| match d.owner() {
                Owner::Proc(pid) => self.registry.lookup(pid).is_none(),
                Owner::Trans(_) => false,
            })
            .collect()
    }

    /// The sites currently reachable from this one (this site's partition).
    pub fn partition_view(&self) -> Vec<SiteId> {
        match self.transport_ref() {
            Ok(t) => t.partition_of(self.site),
            Err(_) => vec![self.site],
        }
    }
}

impl SiteHandler for Kernel {
    fn handle(&self, from: SiteId, msg: Msg, acct: &mut Account) -> Msg {
        self.handle_kernel_msg(from, msg, acct)
    }
}
