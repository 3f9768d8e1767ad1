//! Per-file lock lists (Figure 3): the lock descriptors attached to a file's
//! in-core inode at its storage site, plus the wait queue of conflicting
//! requests.

use std::collections::VecDeque;

use locus_types::{
    range, AccessKind, ByteRange, LockClass, LockDescriptor, LockMode, LockRequestMode, Owner, Pid,
    SiteId, TransId,
};

/// One granted lock on a range of bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEntry {
    /// Process that acquired the lock (informational once the owner is a
    /// transaction — any member process of the transaction may use it).
    pub pid: Pid,
    /// Transaction the acquiring process belonged to, if any.
    pub tid: Option<TransId>,
    pub mode: LockMode,
    pub class: LockClass,
    pub range: ByteRange,
    /// Unlocked by its holder but kept until transaction outcome
    /// (Section 3.3 rule 1); or pinned because it covers modified
    /// uncommitted data (rule 2).
    pub retained: bool,
}

impl LockEntry {
    /// The synchronization owner of this lock: the transaction as a whole
    /// for transaction-class locks, the individual process otherwise.
    pub fn owner(&self) -> Owner {
        match self.tid {
            Some(t) if self.class == LockClass::Transaction => Owner::Trans(t),
            _ => Owner::Proc(self.pid),
        }
    }

    fn claim(&self) -> Claim {
        Claim {
            owner: self.owner(),
            mode: self.mode,
            range: self.range,
        }
    }

    /// Wire-form descriptor (for prepare logs and the deadlock detector).
    pub fn descriptor(&self) -> LockDescriptor {
        LockDescriptor {
            pid: self.pid,
            tid: self.tid,
            mode: self.mode,
            class: self.class,
            range: self.range,
            retained: self.retained,
        }
    }
}

/// A lock request as processed by the storage site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockRequest {
    pub pid: Pid,
    pub tid: Option<TransId>,
    pub class: LockClass,
    pub mode: LockRequestMode,
    pub range: ByteRange,
    /// Section 3.2 append mode: interpret `range` relative to end-of-file
    /// and atomically extend the file under the lock.
    pub append: bool,
    /// Queue behind conflicts instead of failing.
    pub wait: bool,
    /// Where to push the grant notification when a queued request is
    /// eventually granted.
    pub reply_site: SiteId,
}

impl LockRequest {
    /// The owner this request locks on behalf of.
    pub fn owner(&self) -> Owner {
        match self.tid {
            Some(t) if self.class == LockClass::Transaction => Owner::Trans(t),
            _ => Owner::Proc(self.pid),
        }
    }
}

/// What a granted lock or a queued request claims: an owner, a mode and a
/// range placed in the file.
#[derive(Debug, Clone, Copy)]
struct Claim {
    owner: Owner,
    mode: LockMode,
    range: ByteRange,
}

impl Claim {
    /// The one rule for which request blocks which: a different owner,
    /// incompatible modes, overlapping placed ranges.
    fn conflicts_with(&self, other: &Claim) -> bool {
        self.owner != other.owner
            && !self.mode.compatible(other.mode)
            && self.range.overlaps(&other.range)
    }
}

/// Outcome of processing a lock request at the storage site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// Lock granted over the given (possibly append-relocated) range.
    Granted { range: ByteRange },
    /// Conflict, and the request asked not to wait.
    Denied { conflicting: ByteRange },
    /// Conflict; the request has been queued.
    Queued,
    /// An append-mode request whose range, placed at the current
    /// end-of-file, runs past the end of the file address space.
    OutOfRange,
}

/// The granted entries of one file, kept sorted by `range.start` so lookups
/// probe only the entries that can overlap a query range instead of scanning
/// the whole list — the Figure 3 list made sublinear.
///
/// `max_len` is an upper bound on the length of any entry ever inserted. It
/// survives removals (so it only grows), which keeps it cheap to maintain
/// and still correct as a bound: an entry can overlap a query starting at
/// `s` only if its own start lies in `[s - max_len, query.end())`, a window
/// located with two binary searches.
#[derive(Debug, Default, Clone)]
pub struct EntryList {
    items: Vec<LockEntry>,
    max_len: u64,
}

impl EntryList {
    /// Inserts an entry, preserving start order (stable: equal starts keep
    /// insertion order).
    pub fn push(&mut self, e: LockEntry) {
        self.max_len = self.max_len.max(e.range.len);
        let at = self
            .items
            .partition_point(|x| x.range.start <= e.range.start);
        self.items.insert(at, e);
    }

    /// Index window of entries whose range could overlap `range`.
    fn window(&self, range: &ByteRange) -> (usize, usize) {
        let lo = self
            .items
            .partition_point(|x| x.range.start.saturating_add(self.max_len) <= range.start);
        let hi = self.items.partition_point(|x| x.range.start < range.end());
        (lo, hi.max(lo))
    }

    /// Entries overlapping `range`, in start order.
    pub fn overlapping(&self, range: ByteRange) -> impl Iterator<Item = &LockEntry> + '_ {
        let (lo, hi) = self.window(&range);
        self.items[lo..hi]
            .iter()
            .filter(move |e| e.range.overlaps(&range))
    }

    /// Mutable variant of [`EntryList::overlapping`]. Callers may flip flags
    /// but must not change ranges, which would break the sort order.
    pub fn overlapping_mut(
        &mut self,
        range: ByteRange,
    ) -> impl Iterator<Item = &mut LockEntry> + '_ {
        let (lo, hi) = self.window(&range);
        self.items[lo..hi]
            .iter_mut()
            .filter(move |e| e.range.overlaps(&range))
    }

    /// Removes and returns `owner`'s entries overlapping `range`.
    fn take_overlapping(&mut self, owner: Owner, range: &ByteRange) -> Vec<LockEntry> {
        let (lo, mut hi) = self.window(range);
        let mut taken = Vec::new();
        let mut i = lo;
        while i < hi {
            if self.items[i].owner() == owner && self.items[i].range.overlaps(range) {
                taken.push(self.items.remove(i));
                hi -= 1;
            } else {
                i += 1;
            }
        }
        taken
    }

    /// Keeps only entries matching the predicate.
    pub fn retain(&mut self, f: impl FnMut(&LockEntry) -> bool) {
        self.items.retain(f);
    }
}

impl std::ops::Deref for EntryList {
    type Target = [LockEntry];
    fn deref(&self) -> &[LockEntry] {
        &self.items
    }
}

impl<'a> IntoIterator for &'a EntryList {
    type Item = &'a LockEntry;
    type IntoIter = std::slice::Iter<'a, LockEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

// Equality ignores `max_len`: it is a probe bound, not state. Two lists with
// the same entries behave identically even if their bounds differ (one may
// have seen longer, since-removed entries).
impl PartialEq for EntryList {
    fn eq(&self, other: &Self) -> bool {
        self.items == other.items
    }
}

impl Eq for EntryList {}

/// The lock state of one file at its storage site: granted entries plus the
/// wait queue (Figure 3).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FileLocks {
    pub entries: EntryList,
    /// Queued requests awaiting grant, in arrival order.
    pub waiters: VecDeque<LockRequest>,
    /// Current end-of-file, maintained by the kernel, used to place
    /// append-mode locks.
    pub eof: u64,
}

impl FileLocks {
    pub fn new(eof: u64) -> Self {
        FileLocks {
            eof,
            ..FileLocks::default()
        }
    }

    /// Resolves an append-relative range against the current end-of-file
    /// (Section 3.2: append-mode requests "are interpreted as being relative
    /// to the end of file"). `None` when the placed range does not fit the
    /// address space; past this check [`ByteRange::end`] cannot overflow.
    fn effective_range(&self, req: &LockRequest) -> Option<ByteRange> {
        if !req.append {
            return Some(req.range);
        }
        let placed = ByteRange::new(self.eof.checked_add(req.range.start)?, req.range.len);
        placed.checked_end().map(|_| placed)
    }

    /// Processes a lock or unlock request.
    pub fn request(&mut self, req: LockRequest) -> LockOutcome {
        match req.mode {
            LockRequestMode::Unlock => {
                let Some(range) = self.effective_range(&req) else {
                    return LockOutcome::OutOfRange;
                };
                self.unlock(&req, range);
                LockOutcome::Granted { range }
            }
            LockRequestMode::Shared | LockRequestMode::Exclusive => self.acquire(req),
        }
    }

    /// A queued request's claim, its range placed at the current
    /// end-of-file. `None` for an append request that no longer fits below
    /// the top of the address space: it stays queued, blocking nobody and
    /// blocked by nobody, until its owner goes.
    fn queued_claim(&self, w: &LockRequest) -> Option<Claim> {
        Some(Claim {
            owner: w.owner(),
            mode: w.mode.as_mode()?,
            range: self.effective_range(w)?,
        })
    }

    /// What blocks `claim`: the granted locks in start order, then the first
    /// `queued` waiters in queue order. Counting waiters is what keeps the
    /// queue fair: a request may not barge past an earlier incompatible one,
    /// or queued writers would starve behind a stream of readers.
    fn blockers(&self, claim: Claim, queued: usize) -> impl Iterator<Item = Claim> + '_ {
        let waiting = self.waiters.iter().take(queued);
        self.entries
            .overlapping(claim.range)
            .map(LockEntry::claim)
            .chain(waiting.filter_map(|w| self.queued_claim(w)))
            .filter(move |c| c.conflicts_with(&claim))
    }

    /// Every wait-for edge among this file's requests, as `(waiter,
    /// blocker)` owner pairs: each queued request against what
    /// [`FileLocks::blockers`] finds ahead of it.
    pub(crate) fn wait_for(&self) -> impl Iterator<Item = (Owner, Owner)> + '_ {
        let queued = self.waiters.iter().enumerate();
        queued
            .filter_map(|(i, w)| Some((i, self.queued_claim(w)?)))
            .flat_map(move |(i, c)| self.blockers(c, i).map(move |b| (c.owner, b.owner)))
    }

    /// Whether `owner` already holds locks covering all of `range` in a mode
    /// at least as strong as `mode`.
    fn holds_sufficient(&self, owner: Owner, mode: LockMode, range: ByteRange) -> bool {
        let mut remaining = vec![range];
        for e in self.entries.overlapping(range) {
            if e.owner() != owner {
                continue;
            }
            let strong_enough = e.mode == LockMode::Exclusive || e.mode == mode;
            if strong_enough {
                remaining = remaining
                    .into_iter()
                    .flat_map(|r| r.subtract(&e.range))
                    .collect();
            }
        }
        remaining.is_empty()
    }

    /// Whether `req` would wait, or be refused, were it made now: what
    /// [`FileLocks::request`] would find, with nothing changed.
    pub fn blocked(&self, req: &LockRequest) -> bool {
        let (Some(mode), Some(range)) = (req.mode.as_mode(), self.effective_range(req)) else {
            return false;
        };
        let claim = Claim {
            owner: req.owner(),
            mode,
            range,
        };
        !self.holds_sufficient(claim.owner, mode, range)
            && self.blockers(claim, self.waiters.len()).next().is_some()
    }

    fn acquire(&mut self, req: LockRequest) -> LockOutcome {
        let mode = req
            .mode
            .as_mode()
            .expect("acquire called only for lock modes");
        let owner = req.owner();
        let Some(range) = self.effective_range(&req) else {
            return LockOutcome::OutOfRange;
        };
        // Reacquisition fast path: an owner whose coverage already satisfies
        // the request (including a lock just granted off the wait queue, or
        // a retained lock being reclaimed) is granted immediately — queued
        // strangers must not block it, or a granted waiter's retry would
        // re-queue behind the very requests it precedes.
        if self.holds_sufficient(owner, mode, range) {
            self.install(owner, mode, &req, range);
            return LockOutcome::Granted { range };
        }
        let claim = Claim { owner, mode, range };
        let blocker = self.blockers(claim, self.waiters.len()).next();
        if let Some(blocker) = blocker {
            if req.wait {
                // A spurious retry of an already-queued request must not
                // enqueue a duplicate.
                let already_queued = self
                    .waiters
                    .iter()
                    .any(|w| w.pid == req.pid && w.range == req.range && w.mode == req.mode);
                if !already_queued {
                    // The original (append-relative) range is stored; it is
                    // re-resolved against end-of-file at grant time.
                    self.waiters.push_back(req);
                }
                return LockOutcome::Queued;
            }
            return LockOutcome::Denied {
                conflicting: blocker.range,
            };
        }
        self.install(owner, mode, &req, range);
        if req.append {
            self.eof = self.eof.max(range.end());
        }
        LockOutcome::Granted { range }
    }

    /// Installs a granted lock, replacing the owner's previous coverage of
    /// the range (this is how upgrades, downgrades, extensions and
    /// reacquisition of retained locks work — "locking modes may be upgraded
    /// or downgraded through subsequent locking requests", Section 3.2).
    fn install(&mut self, owner: Owner, mode: LockMode, req: &LockRequest, range: ByteRange) {
        self.carve(owner, range);
        self.entries.push(LockEntry {
            pid: req.pid,
            tid: req.tid,
            mode,
            class: req.class,
            range,
            retained: false,
        });
    }

    /// Removes the owner's coverage of `range`, splitting partial overlaps.
    fn carve(&mut self, owner: Owner, range: ByteRange) {
        for e in self.entries.take_overlapping(owner, &range) {
            for piece in e.range.subtract(&range) {
                let mut part = e.clone();
                part.range = piece;
                self.entries.push(part);
            }
        }
    }

    /// Explicit unlock. The requesting process's *transaction* locks over
    /// the range are retained, not released (Section 3.3 rule 1); its
    /// process-owned locks — non-transaction locks and locks acquired before
    /// `BeginTrans` (Section 3.4) — are released outright.
    fn unlock(&mut self, req: &LockRequest, range: ByteRange) {
        if let Some(tid) = req.tid {
            let towner = Owner::Trans(tid);
            for e in self.entries.overlapping_mut(range) {
                if e.owner() == towner {
                    e.retained = true;
                }
            }
        }
        self.carve(Owner::Proc(req.pid), range);
    }

    /// Marks every lock of `owner` overlapping `range` as retained without
    /// regard to class — used for Section 3.3 rule 2 (locks over modified
    /// uncommitted data are pinned until transaction outcome).
    pub fn pin_retained(&mut self, owner: Owner, range: ByteRange) {
        for e in self.entries.overlapping_mut(range) {
            if e.owner() == owner {
                e.retained = true;
            }
        }
    }

    /// Drops every lock (granted and queued) belonging to `owner`; returns
    /// how many granted entries were removed.
    pub fn release_owner(&mut self, owner: Owner) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.owner() != owner);
        self.waiters.retain(|w| w.owner() != owner);
        before - self.entries.len()
    }

    /// Drops queued requests from a specific process (process exit).
    pub fn drop_waiters_of(&mut self, pid: Pid) {
        self.waiters.retain(|w| w.pid != pid);
    }

    /// Grants every queued waiter whose request conflicts with neither the
    /// held locks nor an *earlier* incompatible waiter — the same admission
    /// rule new arrivals face, so the queue is fair (no barging) without
    /// head-of-line blocking across disjoint ranges. (A head-only pump
    /// deadlocks: a grantable waiter stuck behind a blocked head forms a
    /// stall that is not a wait-for cycle, so no detector can break it.)
    /// Returns the newly granted waiters.
    pub fn pump(&mut self) -> Vec<(LockRequest, ByteRange)> {
        let mut granted = Vec::new();
        loop {
            let mut made_progress = false;
            let mut i = 0;
            while i < self.waiters.len() {
                // End-of-file can grow while an append request waits, so
                // its claim is placed afresh on every pass.
                let claim = self.queued_claim(&self.waiters[i]);
                let Some(Claim { owner, mode, range }) =
                    claim.filter(|c| self.blockers(*c, i).next().is_none())
                else {
                    i += 1;
                    continue;
                };
                let waiter = self.waiters.remove(i).expect("index in bounds");
                self.install(owner, mode, &waiter, range);
                if waiter.append {
                    self.eof = self.eof.max(range.end());
                }
                granted.push((waiter, range));
                made_progress = true;
            }
            if !made_progress {
                break;
            }
        }
        granted
    }

    /// Validates a data access by `accessor` over `range` against the lock
    /// list (Figure 1's enforced-lock semantics). A refusal names the range
    /// of the lock that denies the access.
    ///
    /// The accessor's effective mode on each byte is the strongest of its own
    /// granted locks there, or Unix if it holds none; every other owner's
    /// overlapping lock must then permit the requested access.
    pub fn validate_access(
        &self,
        accessor: Owner,
        range: ByteRange,
        write: bool,
    ) -> std::result::Result<(), ByteRange> {
        for e in self.entries.overlapping(range) {
            if e.owner() == accessor {
                continue;
            }
            // What access does Figure 1 leave the accessor, given `e`?
            let my_mode = self.strongest_mode(accessor, e.range.intersection(&range).unwrap());
            let allowed = my_mode.allowed_access(e.mode);
            let ok = match (write, allowed) {
                (_, AccessKind::ReadWrite) => true,
                (false, AccessKind::ReadOnly) => true,
                (true, AccessKind::ReadOnly) => false,
                (_, AccessKind::None) => false,
            };
            if !ok {
                return Err(e.range);
            }
        }
        // A shared lock does not entitle its own holder to write.
        if write {
            for e in self.entries.overlapping(range) {
                if e.owner() == accessor
                    && e.mode == LockMode::Shared
                    && !self.holds_exclusive_over(accessor, e.range.intersection(&range).unwrap())
                {
                    return Err(e.range);
                }
            }
        }
        Ok(())
    }

    fn strongest_mode(&self, owner: Owner, range: ByteRange) -> LockMode {
        let mut mode = LockMode::Unix;
        for e in self.entries.overlapping(range) {
            if e.owner() == owner {
                if e.mode == LockMode::Exclusive {
                    return LockMode::Exclusive;
                }
                mode = LockMode::Shared;
            }
        }
        mode
    }

    fn holds_exclusive_over(&self, owner: Owner, range: ByteRange) -> bool {
        let mut remaining = vec![range];
        for e in self.entries.overlapping(range) {
            if e.owner() == owner && e.mode == LockMode::Exclusive {
                remaining = remaining
                    .into_iter()
                    .flat_map(|r| r.subtract(&e.range))
                    .collect();
            }
        }
        remaining.is_empty()
    }

    /// Byte ranges over which `owner` currently holds (or retains) locks.
    pub fn ranges_of(&self, owner: Owner) -> Vec<ByteRange> {
        range::coalesce(
            self.entries
                .iter()
                .filter(|e| e.owner() == owner)
                .map(|e| e.range)
                .collect(),
        )
    }

    /// Wire-form descriptors of all granted locks (for the prepare log and
    /// the deadlock detector's snapshot).
    pub fn descriptors(&self) -> Vec<LockDescriptor> {
        self.entries.iter().map(LockEntry::descriptor).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> Pid {
        Pid::new(SiteId(1), n)
    }

    fn tid(n: u64) -> TransId {
        TransId::new(SiteId(1), n)
    }

    fn req(p: u32, t: Option<u64>, mode: LockRequestMode, start: u64, len: u64) -> LockRequest {
        LockRequest {
            pid: pid(p),
            tid: t.map(tid),
            class: if t.is_some() {
                LockClass::Transaction
            } else {
                LockClass::NonTransaction
            },
            mode,
            range: ByteRange::new(start, len),
            append: false,
            wait: false,
            reply_site: SiteId(1),
        }
    }

    #[test]
    fn grant_and_conflict() {
        let mut fl = FileLocks::new(0);
        assert!(matches!(
            fl.request(req(1, None, LockRequestMode::Exclusive, 0, 100)),
            LockOutcome::Granted { .. }
        ));
        // A different process conflicts.
        assert!(matches!(
            fl.request(req(2, None, LockRequestMode::Shared, 50, 10)),
            LockOutcome::Denied { .. }
        ));
        // A disjoint range does not.
        assert!(matches!(
            fl.request(req(2, None, LockRequestMode::Exclusive, 100, 10)),
            LockOutcome::Granted { .. }
        ));
    }

    #[test]
    fn shared_locks_coexist() {
        let mut fl = FileLocks::new(0);
        for p in 1..=3 {
            assert!(matches!(
                fl.request(req(p, None, LockRequestMode::Shared, 0, 10)),
                LockOutcome::Granted { .. }
            ));
        }
        assert_eq!(fl.entries.len(), 3);
    }

    #[test]
    fn same_transaction_processes_share_exclusive_locks() {
        // Section 3.1: "If a process, while executing as a transaction,
        // creates a child process, and either of them locks a record for
        // exclusive access, the other may do so as well."
        let mut fl = FileLocks::new(0);
        let mut parent = req(1, Some(9), LockRequestMode::Exclusive, 0, 10);
        parent.class = LockClass::Transaction;
        let mut child = req(2, Some(9), LockRequestMode::Exclusive, 0, 10);
        child.class = LockClass::Transaction;
        assert!(matches!(fl.request(parent), LockOutcome::Granted { .. }));
        assert!(matches!(fl.request(child), LockOutcome::Granted { .. }));
    }

    #[test]
    fn upgrade_and_downgrade_replace_coverage() {
        let mut fl = FileLocks::new(0);
        fl.request(req(1, None, LockRequestMode::Shared, 0, 100));
        fl.request(req(1, None, LockRequestMode::Exclusive, 20, 10));
        // The shared entry is split around the upgraded slice.
        let owner = Owner::Proc(pid(1));
        let shared: Vec<_> = fl
            .entries
            .iter()
            .filter(|e| e.mode == LockMode::Shared && e.owner() == owner)
            .map(|e| e.range)
            .collect();
        assert_eq!(shared, vec![ByteRange::new(0, 20), ByteRange::new(30, 70)]);
        let excl: Vec<_> = fl
            .entries
            .iter()
            .filter(|e| e.mode == LockMode::Exclusive)
            .map(|e| e.range)
            .collect();
        assert_eq!(excl, vec![ByteRange::new(20, 10)]);
    }

    #[test]
    fn upgrade_conflicts_with_other_reader() {
        let mut fl = FileLocks::new(0);
        fl.request(req(1, None, LockRequestMode::Shared, 0, 10));
        fl.request(req(2, None, LockRequestMode::Shared, 0, 10));
        assert!(matches!(
            fl.request(req(1, None, LockRequestMode::Exclusive, 0, 10)),
            LockOutcome::Denied { .. }
        ));
    }

    #[test]
    fn transaction_unlock_retains() {
        let mut fl = FileLocks::new(0);
        fl.request(req(1, Some(5), LockRequestMode::Exclusive, 0, 10));
        fl.request(req(1, Some(5), LockRequestMode::Unlock, 0, 10));
        assert_eq!(fl.entries.len(), 1);
        assert!(fl.entries[0].retained);
        // Still blocks other owners (rule 1: unlocked resources are not made
        // available outside the transaction until it ends).
        assert!(matches!(
            fl.request(req(2, None, LockRequestMode::Shared, 0, 5)),
            LockOutcome::Denied { .. }
        ));
        // The same transaction may reacquire it (via any member process).
        assert!(matches!(
            fl.request(req(3, Some(5), LockRequestMode::Exclusive, 0, 10)),
            LockOutcome::Granted { .. }
        ));
        assert!(!fl.entries[0].retained);
    }

    #[test]
    fn non_transaction_unlock_releases() {
        let mut fl = FileLocks::new(0);
        fl.request(req(1, None, LockRequestMode::Exclusive, 0, 10));
        fl.request(req(1, None, LockRequestMode::Unlock, 0, 10));
        assert!(fl.entries.is_empty());
    }

    #[test]
    fn partial_unlock_contracts_range() {
        let mut fl = FileLocks::new(0);
        fl.request(req(1, None, LockRequestMode::Exclusive, 0, 100));
        fl.request(req(1, None, LockRequestMode::Unlock, 0, 40));
        assert_eq!(
            fl.ranges_of(Owner::Proc(pid(1))),
            vec![ByteRange::new(40, 60)]
        );
    }

    #[test]
    fn queueing_is_fifo_and_pump_grants() {
        let mut fl = FileLocks::new(0);
        fl.request(req(1, None, LockRequestMode::Exclusive, 0, 10));
        let mut w2 = req(2, None, LockRequestMode::Exclusive, 0, 10);
        w2.wait = true;
        let mut w3 = req(3, None, LockRequestMode::Shared, 0, 10);
        w3.wait = true;
        assert_eq!(fl.request(w2), LockOutcome::Queued);
        assert_eq!(fl.request(w3), LockOutcome::Queued);
        // Release the holder; only the head (exclusive) is granted.
        fl.release_owner(Owner::Proc(pid(1)));
        let granted = fl.pump();
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].0.pid, pid(2));
        // Release again; the shared waiter gets in.
        fl.release_owner(Owner::Proc(pid(2)));
        let granted = fl.pump();
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].0.pid, pid(3));
    }

    #[test]
    fn pump_grants_multiple_compatible_heads() {
        let mut fl = FileLocks::new(0);
        fl.request(req(1, None, LockRequestMode::Exclusive, 0, 10));
        for p in 2..=4 {
            let mut w = req(p, None, LockRequestMode::Shared, 0, 10);
            w.wait = true;
            assert_eq!(fl.request(w), LockOutcome::Queued);
        }
        fl.release_owner(Owner::Proc(pid(1)));
        assert_eq!(fl.pump().len(), 3);
    }

    #[test]
    fn append_mode_locks_at_eof_and_extends() {
        // Section 3.2 / footnote 2: lock-and-extend atomically so remote log
        // appenders cannot livelock.
        let mut fl = FileLocks::new(500);
        let mut r = req(1, None, LockRequestMode::Exclusive, 0, 100);
        r.append = true;
        match fl.request(r) {
            LockOutcome::Granted { range } => assert_eq!(range, ByteRange::new(500, 100)),
            other => panic!("{other:?}"),
        }
        assert_eq!(fl.eof, 600);
        // The next appender locks after the first, even before any unlock.
        let mut r2 = req(2, None, LockRequestMode::Exclusive, 0, 50);
        r2.append = true;
        match fl.request(r2) {
            LockOutcome::Granted { range } => assert_eq!(range, ByteRange::new(600, 50)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn queued_append_lock_placed_at_grant_time_eof() {
        let mut fl = FileLocks::new(100);
        fl.request(req(1, None, LockRequestMode::Exclusive, 0, 1000)); // Covers old eof region.
        let mut w = req(2, None, LockRequestMode::Exclusive, 0, 10);
        w.append = true;
        w.wait = true;
        assert_eq!(fl.request(w), LockOutcome::Queued);
        fl.eof = 200; // File grew while the waiter was queued.
        fl.release_owner(Owner::Proc(pid(1)));
        let granted = fl.pump();
        assert_eq!(granted[0].1, ByteRange::new(200, 10));
        assert_eq!(fl.eof, 210);
    }

    #[test]
    fn a_queued_append_lock_that_stops_fitting_waits_and_blocks_nobody() {
        let mut fl = FileLocks::new(100);
        fl.request(req(1, None, LockRequestMode::Exclusive, 0, 1000));
        let mut w = req(2, None, LockRequestMode::Exclusive, 0, 10);
        w.append = true;
        w.wait = true;
        assert_eq!(fl.request(w.clone()), LockOutcome::Queued);
        // End-of-file moved to within 10 bytes of the top of the address
        // space while the waiter was queued: it cannot be placed any more.
        fl.eof = u64::MAX - 5;
        assert_eq!(fl.request(w), LockOutcome::OutOfRange);
        fl.release_owner(Owner::Proc(pid(1)));
        assert!(fl.pump().is_empty());
        assert_eq!(fl.waiters.len(), 1);
        // Neither a new arrival nor a later waiter queues behind it.
        let mut fits = req(3, None, LockRequestMode::Exclusive, 0, 5);
        fits.append = true;
        assert_eq!(
            fl.request(fits),
            LockOutcome::Granted {
                range: ByteRange::new(u64::MAX - 5, 5)
            }
        );
        fl.drop_waiters_of(pid(2));
        assert!(fl.waiters.is_empty());
    }

    #[test]
    fn validate_access_enforces_figure1() {
        let mut fl = FileLocks::new(0);
        fl.request(req(1, None, LockRequestMode::Shared, 0, 10));
        let unix = Owner::Proc(pid(9));
        // Unix vs Shared: read allowed, write denied.
        assert!(fl
            .validate_access(unix, ByteRange::new(0, 5), false)
            .is_ok());
        assert!(fl
            .validate_access(unix, ByteRange::new(0, 5), true)
            .is_err());
        // Upgrade to exclusive: everything denied to others.
        fl.request(req(1, None, LockRequestMode::Exclusive, 0, 10));
        assert!(fl
            .validate_access(unix, ByteRange::new(0, 5), false)
            .is_err());
        // The exclusive holder itself may read and write.
        let holder = Owner::Proc(pid(1));
        assert!(fl
            .validate_access(holder, ByteRange::new(0, 10), true)
            .is_ok());
        // Outside the locked range, Unix access is unrestricted.
        assert!(fl
            .validate_access(unix, ByteRange::new(50, 5), true)
            .is_ok());
    }

    #[test]
    fn shared_holder_cannot_write_under_its_own_lock() {
        let mut fl = FileLocks::new(0);
        fl.request(req(1, None, LockRequestMode::Shared, 0, 10));
        let holder = Owner::Proc(pid(1));
        assert!(fl
            .validate_access(holder, ByteRange::new(0, 10), true)
            .is_err());
        assert!(fl
            .validate_access(holder, ByteRange::new(0, 10), false)
            .is_ok());
    }

    #[test]
    fn pin_retained_marks_any_mode() {
        let mut fl = FileLocks::new(0);
        fl.request(req(1, Some(4), LockRequestMode::Shared, 0, 10));
        fl.pin_retained(Owner::Trans(tid(4)), ByteRange::new(0, 10));
        assert!(fl.entries[0].retained);
    }

    #[test]
    fn release_owner_drops_waiters_too() {
        let mut fl = FileLocks::new(0);
        fl.request(req(1, None, LockRequestMode::Exclusive, 0, 10));
        let mut w = req(2, Some(7), LockRequestMode::Exclusive, 0, 10);
        w.wait = true;
        fl.request(w);
        fl.release_owner(Owner::Trans(tid(7)));
        assert!(fl.waiters.is_empty());
    }
}
