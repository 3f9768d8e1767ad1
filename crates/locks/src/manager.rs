//! The per-site lock manager: lock lists for every file stored at this site.
//!
//! Lock requests are processed at the file's storage site (Section 5.1); the
//! kernel routes remote requests here via the transport. Each processed
//! request is charged the paper's ~750 instructions (Section 6.2) through the
//! cost model.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;

use locus_sim::{Account, CostModel, Counters, Event, EventLog, SpanPhase, VirtSpan};
use locus_types::{ByteRange, Error, Fid, LockDescriptor, Owner, Pid, Result};

use crate::lock_list::{FileLocks, LockOutcome, LockRequest};

/// A queued request that has just been granted its lock by a queue pump and
/// must be notified at its requesting site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantedWaiter {
    pub fid: Fid,
    pub request: LockRequest,
    pub range: ByteRange,
}

/// One edge of the wait-for graph: `waiter` is blocked behind `holder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WaitEdge {
    pub fid: Fid,
    pub waiter: Owner,
    pub holder: Owner,
}

/// Snapshot of a site's lock tables, exported "permitting a system process to
/// detect deadlock by constructing a wait-for graph" (Section 3.1).
#[derive(Debug, Clone, Default)]
pub struct LockTableSnapshot {
    /// Granted lock descriptors per file.
    pub held: Vec<(Fid, Vec<LockDescriptor>)>,
    /// Wait-for edges derivable from this site's queues.
    pub edges: Vec<WaitEdge>,
}

/// Lock manager for all files stored at one site.
///
/// One ordered table under one mutex: the storage site processes lock
/// requests one after another (Section 5.1). What comes here is a lock
/// request, a commit or abort step, or a data access that has already
/// travelled to the storage site and is about to touch the volume; a read
/// served from the requester's caches never does, so there is no traffic
/// for stripes to separate (DESIGN.md §8 has the measurement). The
/// `BTreeMap` makes every cross-file sweep run in fid order, which keeps
/// the trace events those sweeps emit byte-identical from run to run, and
/// the single mutex makes each sweep see one consistent table.
pub struct LockManager {
    files: Mutex<BTreeMap<Fid, FileLocks>>,
    model: Arc<CostModel>,
    counters: Arc<Counters>,
    log: Arc<EventLog>,
}

impl LockManager {
    pub fn new(model: Arc<CostModel>, counters: Arc<Counters>, log: Arc<EventLog>) -> Self {
        LockManager {
            files: Mutex::new(BTreeMap::new()),
            model,
            counters,
            log,
        }
    }

    /// Ensures a lock list exists for `fid` with the given end-of-file.
    pub fn ensure_file(&self, fid: Fid, eof: u64) {
        self.files
            .lock()
            .entry(fid)
            .or_insert_with(|| FileLocks::new(eof));
    }

    /// Whether a lock list already exists for `fid`. Callers use this to
    /// skip the end-of-file lookup [`LockManager::ensure_file`] needs on
    /// first contact — the common case on the lock hot path.
    pub fn has_file(&self, fid: Fid) -> bool {
        self.files.lock().contains_key(&fid)
    }

    /// Raises the end-of-file hint used to place append-mode locks. The
    /// hint never decreases: append locks reserve space beyond the current
    /// data, and a write landing earlier in the file must not clobber the
    /// reservation. (File truncation is not supported.)
    pub fn set_eof(&self, fid: Fid, eof: u64) {
        if let Some(fl) = self.files.lock().get_mut(&fid) {
            fl.eof = fl.eof.max(eof);
        }
    }

    /// Processes one lock/unlock request, charging the paper's lock cost.
    pub fn request(&self, fid: Fid, req: LockRequest, acct: &mut Account) -> LockOutcome {
        acct.cpu_instrs(&self.model, self.model.lock_instrs);
        let mut files = self.files.lock();
        let fl = files.entry(fid).or_insert_with(|| FileLocks::new(0));
        let pid = req.pid;
        let out = fl.request(req);
        match &out {
            LockOutcome::Granted { .. } => {
                self.counters.locks_granted();
                self.log.push(Event::LockGranted { fid, pid });
            }
            LockOutcome::Denied { .. } => self.counters.locks_denied(),
            LockOutcome::Queued => {
                self.counters.locks_queued();
                self.log.push(Event::LockQueued { fid, pid });
            }
            // A malformed request, not a lock decision: nothing to count.
            LockOutcome::OutOfRange => {}
        }
        out
    }

    /// Whether `req` on `fid` would wait, or be refused, were it made now.
    /// Charges nothing and changes nothing.
    pub fn blocked(&self, fid: Fid, req: &LockRequest) -> bool {
        self.files
            .lock()
            .get(&fid)
            .is_some_and(|fl| fl.blocked(req))
    }

    /// Validates an enforced-lock data access (Figure 1).
    pub fn validate_access(
        &self,
        fid: Fid,
        accessor: Owner,
        range: ByteRange,
        write: bool,
    ) -> Result<()> {
        let files = self.files.lock();
        let Some(fl) = files.get(&fid) else {
            return Ok(()); // No locks on the file: plain Unix semantics.
        };
        fl.validate_access(accessor, range, write)
            .map_err(|range| Error::AccessDenied { fid, range })
    }

    /// Pins locks covering modified-uncommitted data (Section 3.3 rule 2).
    pub fn pin_retained(&self, fid: Fid, owner: Owner, range: ByteRange) {
        if let Some(fl) = self.files.lock().get_mut(&fid) {
            fl.pin_retained(owner, range);
        }
    }

    /// Pumps one file's wait queue, counting each grant and collecting it
    /// for notification at the waiter's requesting site.
    fn pump_into(&self, fid: Fid, fl: &mut FileLocks, granted: &mut Vec<GrantedWaiter>) {
        for (request, range) in fl.pump() {
            self.counters.locks_granted();
            granted.push(GrantedWaiter {
                fid,
                request,
                range,
            });
        }
    }

    /// Releases every lock owned by `owner` (transaction commit/abort or
    /// non-transaction process exit) and pumps the queues. Returns the
    /// waiters granted as a result, for grant notification.
    pub fn release_owner(&self, owner: Owner, acct: &mut Account) -> Vec<GrantedWaiter> {
        let span = VirtSpan::begin(SpanPhase::LockTransfer, acct);
        acct.cpu_instrs(&self.model, self.model.lock_instrs / 2);
        let mut granted = Vec::new();
        for (&fid, fl) in self.files.lock().iter_mut() {
            if fl.release_owner(owner) > 0 {
                self.counters.locks_released();
                if let Owner::Trans(tid) = owner {
                    self.log.push(Event::RetainedReleased { tid, fid });
                }
            }
            self.pump_into(fid, fl, &mut granted);
        }
        // A release only counts as a lock *transfer* when it woke someone.
        if !granted.is_empty() {
            span.finish(&self.counters.spans, &self.model, acct);
        }
        granted
    }

    /// Releases `owner`'s locks on a single file (used on file close by
    /// non-transaction processes) and pumps that file's queue.
    pub fn release_owner_file(
        &self,
        fid: Fid,
        owner: Owner,
        acct: &mut Account,
    ) -> Vec<GrantedWaiter> {
        acct.cpu_instrs(&self.model, self.model.lock_instrs / 2);
        let mut granted = Vec::new();
        if let Some(fl) = self.files.lock().get_mut(&fid) {
            if fl.release_owner(owner) > 0 {
                self.counters.locks_released();
            }
            self.pump_into(fid, fl, &mut granted);
        }
        granted
    }

    /// Pumps one file's wait queue (after an explicit unlock made room),
    /// returning newly granted waiters.
    pub fn pump_file(&self, fid: Fid, acct: &mut Account) -> Vec<GrantedWaiter> {
        let span = VirtSpan::begin(SpanPhase::LockTransfer, acct);
        acct.cpu_instrs(&self.model, self.model.lock_instrs / 4);
        let mut granted = Vec::new();
        if let Some(fl) = self.files.lock().get_mut(&fid) {
            self.pump_into(fid, fl, &mut granted);
        }
        if !granted.is_empty() {
            span.finish(&self.counters.spans, &self.model, acct);
        }
        granted
    }

    /// Drops queued requests of an exiting process across all files, then
    /// pumps each affected queue — a removed waiter may have been the only
    /// thing blocking later ones. Returns the newly granted waiters.
    pub fn drop_waiters_of(&self, pid: Pid) -> Vec<GrantedWaiter> {
        let mut granted = Vec::new();
        for (&fid, fl) in self.files.lock().iter_mut() {
            let before = fl.waiters.len();
            fl.drop_waiters_of(pid);
            if fl.waiters.len() != before {
                self.pump_into(fid, fl, &mut granted);
            }
        }
        granted
    }

    /// Ranges currently locked (or retained) by `owner` on `fid`.
    pub fn ranges_of(&self, fid: Fid, owner: Owner) -> Vec<ByteRange> {
        self.files
            .lock()
            .get(&fid)
            .map(|fl| fl.ranges_of(owner))
            .unwrap_or_default()
    }

    /// Lock descriptors for one file (prepare logging stores these alongside
    /// the intentions lists, Section 4.2).
    pub fn descriptors(&self, fid: Fid) -> Vec<LockDescriptor> {
        self.files
            .lock()
            .get(&fid)
            .map(|fl| fl.descriptors())
            .unwrap_or_default()
    }

    /// The owners holding granted locks on `fid`, each once, in order.
    pub fn owners_on(&self, fid: Fid) -> Vec<Owner> {
        let files = self.files.lock();
        let Some(fl) = files.get(&fid) else {
            return Vec::new();
        };
        let owners: BTreeSet<Owner> = fl.entries.iter().map(|e| e.owner()).collect();
        owners.into_iter().collect()
    }

    /// Whether any lock list mentions `owner`.
    pub fn owner_has_locks(&self, owner: Owner) -> bool {
        self.files
            .lock()
            .values()
            .any(|fl| fl.entries.iter().any(|e| e.owner() == owner))
    }

    /// Exports the full lock-table snapshot for the user-level deadlock
    /// detector (Section 3.1: "an interface to operating system data is
    /// provided").
    pub fn snapshot(&self) -> LockTableSnapshot {
        let mut snap = LockTableSnapshot::default();
        for (&fid, fl) in self.files.lock().iter() {
            if !fl.entries.is_empty() {
                snap.held.push((fid, fl.descriptors()));
            }
            snap.edges
                .extend(fl.wait_for().map(|(waiter, holder)| WaitEdge {
                    fid,
                    waiter,
                    holder,
                }));
        }
        snap
    }

    /// Drops every lock list (site crash: lock lists are volatile kernel
    /// state).
    pub fn crash(&self) {
        self.files.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{LockClass, LockRequestMode, SiteId, TransId, VolumeId};

    fn mgr() -> (LockManager, Account) {
        (
            LockManager::new(
                Arc::new(CostModel::default()),
                Arc::new(Counters::default()),
                Arc::new(EventLog::new()),
            ),
            Account::new(SiteId(0)),
        )
    }

    fn fid(n: u32) -> Fid {
        Fid::new(VolumeId(0), n)
    }

    fn txreq(
        p: u32,
        t: u64,
        mode: LockRequestMode,
        start: u64,
        len: u64,
        wait: bool,
    ) -> LockRequest {
        LockRequest {
            pid: Pid::new(SiteId(0), p),
            tid: Some(TransId::new(SiteId(0), t)),
            class: LockClass::Transaction,
            mode,
            range: ByteRange::new(start, len),
            append: false,
            wait,
            reply_site: SiteId(0),
        }
    }

    #[test]
    fn lock_request_charges_750_instructions() {
        let (m, mut a) = mgr();
        m.request(
            fid(1),
            txreq(1, 1, LockRequestMode::Exclusive, 0, 8, false),
            &mut a,
        );
        assert_eq!(a.cpu_home, CostModel::default().instrs(750));
    }

    #[test]
    fn release_owner_pumps_queues_across_files() {
        let (m, mut a) = mgr();
        m.request(
            fid(1),
            txreq(1, 1, LockRequestMode::Exclusive, 0, 8, false),
            &mut a,
        );
        m.request(
            fid(2),
            txreq(1, 1, LockRequestMode::Exclusive, 0, 8, false),
            &mut a,
        );
        assert_eq!(
            m.request(
                fid(1),
                txreq(2, 2, LockRequestMode::Exclusive, 0, 8, true),
                &mut a
            ),
            LockOutcome::Queued
        );
        assert_eq!(
            m.request(
                fid(2),
                txreq(2, 2, LockRequestMode::Shared, 0, 8, true),
                &mut a
            ),
            LockOutcome::Queued
        );
        let granted = m.release_owner(Owner::Trans(TransId::new(SiteId(0), 1)), &mut a);
        assert_eq!(granted.len(), 2);
        let fids: Vec<_> = granted.iter().map(|g| g.fid).collect();
        assert!(fids.contains(&fid(1)) && fids.contains(&fid(2)));
    }

    #[test]
    fn snapshot_racing_a_release_sees_the_owner_on_every_file_or_on_none() {
        const FILES: u32 = 48;
        let owner = Owner::Trans(TransId::new(SiteId(0), 1));
        for _round in 0..50 {
            let (m, mut a) = mgr();
            for n in 0..FILES {
                m.request(
                    fid(n),
                    txreq(1, 1, LockRequestMode::Exclusive, 0, 8, false),
                    &mut a,
                );
            }
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    m.release_owner(owner, &mut Account::new(SiteId(0)));
                });
                start.wait();
                loop {
                    let holding = m
                        .snapshot()
                        .held
                        .iter()
                        .filter(|(_, descs)| descs.iter().any(|d| d.owner() == owner))
                        .count() as u32;
                    if holding == 0 {
                        break;
                    }
                    assert_eq!(holding, FILES, "a release seen half done");
                }
            });
        }
    }

    #[test]
    fn snapshot_builds_wait_edges() {
        let (m, mut a) = mgr();
        m.request(
            fid(1),
            txreq(1, 1, LockRequestMode::Exclusive, 0, 8, false),
            &mut a,
        );
        m.request(
            fid(1),
            txreq(2, 2, LockRequestMode::Exclusive, 0, 8, true),
            &mut a,
        );
        let snap = m.snapshot();
        assert_eq!(snap.edges.len(), 1);
        assert_eq!(
            snap.edges[0].waiter,
            Owner::Trans(TransId::new(SiteId(0), 2))
        );
        assert_eq!(
            snap.edges[0].holder,
            Owner::Trans(TransId::new(SiteId(0), 1))
        );
        assert_eq!(snap.held.len(), 1);
    }

    #[test]
    fn snapshot_includes_waiter_on_waiter_edges() {
        let (m, mut a) = mgr();
        m.request(
            fid(1),
            txreq(1, 1, LockRequestMode::Shared, 0, 8, false),
            &mut a,
        );
        // t2 queues an exclusive behind the shared holder; t3's shared then
        // queues behind t2 in FIFO order.
        m.request(
            fid(1),
            txreq(2, 2, LockRequestMode::Exclusive, 0, 8, true),
            &mut a,
        );
        m.request(
            fid(1),
            txreq(3, 3, LockRequestMode::Shared, 0, 8, true),
            &mut a,
        );
        let snap = m.snapshot();
        let t3 = Owner::Trans(TransId::new(SiteId(0), 3));
        let t2 = Owner::Trans(TransId::new(SiteId(0), 2));
        assert!(snap.edges.iter().any(|e| e.waiter == t3 && e.holder == t2));
    }

    #[test]
    fn append_waiter_edges_use_its_placed_range() {
        let (m, mut a) = mgr();
        m.ensure_file(fid(1), 100);
        let past_eof = txreq(1, 1, LockRequestMode::Exclusive, 100, 100, false);
        let head = txreq(3, 3, LockRequestMode::Exclusive, 0, 8, false);
        for req in [past_eof, head] {
            assert!(matches!(
                m.request(fid(1), req, &mut a),
                LockOutcome::Granted { .. }
            ));
        }
        // Appended at end-of-file the waiter wants [100, 110): blocked by
        // the holder there, not by the one at [0, 8) its relative range
        // names.
        let mut append = txreq(2, 2, LockRequestMode::Exclusive, 0, 10, true);
        append.append = true;
        assert_eq!(m.request(fid(1), append, &mut a), LockOutcome::Queued);
        assert_eq!(
            m.snapshot().edges,
            vec![WaitEdge {
                fid: fid(1),
                waiter: Owner::Trans(TransId::new(SiteId(0), 2)),
                holder: Owner::Trans(TransId::new(SiteId(0), 1)),
            }]
        );
    }

    #[test]
    fn crash_clears_volatile_lock_state() {
        let (m, mut a) = mgr();
        m.request(
            fid(1),
            txreq(1, 1, LockRequestMode::Exclusive, 0, 8, false),
            &mut a,
        );
        m.crash();
        assert!(m.snapshot().held.is_empty());
        assert!(!m.owner_has_locks(Owner::Trans(TransId::new(SiteId(0), 1))));
    }

    #[test]
    fn validate_access_fills_in_fid() {
        let (m, mut a) = mgr();
        m.request(
            fid(7),
            txreq(1, 1, LockRequestMode::Exclusive, 0, 8, false),
            &mut a,
        );
        let err = m
            .validate_access(
                fid(7),
                Owner::Proc(Pid::new(SiteId(0), 9)),
                ByteRange::new(0, 4),
                false,
            )
            .unwrap_err();
        assert_eq!(
            err,
            Error::AccessDenied {
                fid: fid(7),
                range: ByteRange::new(0, 8)
            }
        );
    }

    #[test]
    fn unknown_file_has_unix_semantics() {
        let (m, _a) = mgr();
        assert!(m
            .validate_access(
                fid(99),
                Owner::Proc(Pid::new(SiteId(0), 1)),
                ByteRange::new(0, 10),
                true
            )
            .is_ok());
    }
}
