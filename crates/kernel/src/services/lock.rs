//! The lock service: the `Lock(file, length, mode)` system call of
//! Section 3.2 on the client side, and the storage-site lock list processing
//! (grant/deny/queue, Section 3.3 rule-2 adoption, grant pushes) on the
//! server side. A file's lock list lives at its update site and nowhere
//! else (Section 5.1: requests are processed "at the storage site").
//!
//! A lock request reaches a lock list in one of two ways, and both end in
//! `Kernel::storage_site_lock`: as a [`LockMsg::Req`] of its own (the
//! `lock()` system call), or as a transaction's implicit lock, which is
//! always the lock step of the site that stores the data —
//! `Kernel::ensure_locked` decides, `Kernel::serve_implicit_lock` serves and
//! `Kernel::lock_rode` books the answer. When that site is remote the lock
//! rides inside the `ReadReq` / `WriteReq` it guards (`lock: true`); when it
//! is this site no message is built at all. Not a [`Msg::Batch`] of the two:
//! a batch keeps going after a failing member, and the data handler's access
//! check only refuses a *conflicting holder*, so a write batched behind a
//! lock request that was merely queued would land with no lock.
//!
//! An unlock of a lock listed at another site sends nothing: its
//! `LockMsg::Req` waits in the kernel's release queue and rides the next
//! message there (`kernel/src/releases.rs`), and the storage site recalls it
//! ([`LockMsg::Recall`]) when a request would otherwise wait on, or be
//! refused by, the lock it releases.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;

use locus_locks::{GrantedWaiter, LockOutcome, LockRequest};
use locus_net::{Held, LockMsg, Msg};
use locus_proc::OpenFile;
use locus_sim::{Account, SpanPhase, VirtSpan};
use locus_types::{
    ByteRange, Channel, Error, Fid, LockClass, LockRequestMode, Owner, Pid, Result, SiteId,
};

use crate::kernel::Kernel;
use crate::pagecache::Incarnation;
use crate::services::file::READAHEAD_PAGES;
use crate::services::{check_range, ServiceHandler};

/// Options for the `Lock(file, length, mode)` system call (Section 3.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct LockOpts {
    /// Queue behind conflicts instead of failing immediately.
    pub wait: bool,
    /// Request a *non-transaction lock* (Section 3.4): same compatibility
    /// rules, but exempt from two-phase locking even inside a transaction.
    pub non_transaction: bool,
    /// Interpret the range relative to end-of-file and atomically extend
    /// (Section 3.2 append mode).
    pub append: bool,
}

/// The mode a transaction's implicit lock takes: exclusive under a write,
/// shared under a read.
pub(crate) fn implicit_mode(write: bool) -> LockRequestMode {
    if write {
        LockRequestMode::Exclusive
    } else {
        LockRequestMode::Shared
    }
}

/// The most pages a shared grant ships: the first page of the range, the
/// next, and `READAHEAD_PAGES` more — what a sequential reader's first two
/// `ReadReq`s carried.
const SHIP_WINDOW_PAGES: u64 = 2 + READAHEAD_PAGES;

/// The bytes a shared grant on `range` ships: from the range's first byte to
/// the page boundary `SHIP_WINDOW_PAGES` pages on, or the range's end.
pub(crate) fn ship_window(range: ByteRange, page_size: usize) -> ByteRange {
    let ps = page_size as u64;
    let stop = (range.start / ps + SHIP_WINDOW_PAGES).saturating_mul(ps);
    ByteRange::new(range.start, range.end().min(stop) - range.start)
}

/// Refuses a held list the requester could not have built for `range`: one
/// longer than the range's ship window, which is what a list longer than any
/// ship window or one naming pages past the range's last is.
fn check_held(held: &Held, range: ByteRange, page_size: usize) -> Result<()> {
    let named = held.have.len();
    let window = ship_window(range, page_size).pages(page_size).count();
    if named > window {
        return Err(Error::InvalidArgument(format!(
            "a held list of {named} pages for {range}, whose grant ships {window} \
             (at most {SHIP_WINDOW_PAGES})"
        )));
    }
    Ok(())
}

/// Storage-site handler for the lock protocol.
pub(crate) struct LockService;

impl ServiceHandler for LockService {
    type Request = LockMsg;

    fn handle(k: &Kernel, from: SiteId, req: LockMsg, acct: &mut Account) -> Result<Msg> {
        match req {
            LockMsg::Req {
                fid,
                pid,
                tid,
                mode,
                class,
                range,
                append,
                wait,
                reply_site,
                fetch,
            } => {
                check_range(range)?;
                if let Some(held) = &fetch {
                    if mode != LockRequestMode::Shared || append || tid.is_some() {
                        return Err(Error::ProtocolViolation(format!(
                            "a {mode:?} lock (append {append}, {tid:?}) cannot carry its pages"
                        )));
                    }
                    check_held(held, range, k.model.page_size)?;
                }
                let req = LockRequest {
                    pid,
                    tid,
                    class,
                    mode,
                    range,
                    append,
                    wait,
                    reply_site,
                };
                k.storage_site_lock(fid, req, fetch.as_ref(), acct)
            }
            LockMsg::Granted { pid } => {
                // A queued request of a local process was granted at the
                // storage site; wake the process so it retries its call.
                k.wake(pid);
                Ok(Msg::Ok)
            }
            LockMsg::UnlockAll { fid, pid } => {
                let granted = k.locks.release_owner_file(fid, Owner::Proc(pid), acct);
                k.push_grants(granted, acct);
                Ok(Msg::Ok)
            }
            LockMsg::Recall => Ok(Msg::Batch(k.releases.recall(from))),
            other @ LockMsg::Resp { .. } => Err(Error::ProtocolViolation(format!(
                "lock service cannot handle {other:?}"
            ))),
        }
    }
}

impl Kernel {
    /// The `Lock(file, length, mode)` system call (Section 3.2). The range
    /// starts at the channel's current file pointer. Returns the effective
    /// locked range (append-mode locks land at end-of-file).
    pub fn lock(
        &self,
        pid: Pid,
        ch: Channel,
        len: u64,
        mode: LockRequestMode,
        opts: LockOpts,
        acct: &mut Account,
    ) -> Result<ByteRange> {
        self.check_up()?;
        let span = VirtSpan::begin(SpanPhase::LockAcquire, acct);
        acct.cpu_instrs(&self.model, self.model.syscall_instrs);
        let (of, _) = self.with_channel(pid, ch)?;
        // Policy (Section 3.1): enforced locks can deny access, so a process
        // must have write access to the file to issue locking requests.
        if !of.write {
            return Err(Error::PermissionDenied { fid: of.fid });
        }
        let res = self.lock_channel(pid, ch, &of, len, mode, opts, acct);
        // The client-visible acquisition span: syscall + routing + (possibly
        // remote) lock-site processing. Unlocks ride the same syscall but
        // are not acquisitions.
        if mode != LockRequestMode::Unlock {
            span.finish(&self.counters.spans, &self.model, acct);
        }
        res
    }

    /// Unlocks `len` bytes at the current position (transaction locks are
    /// retained rather than released, Section 3.3).
    pub fn unlock(&self, pid: Pid, ch: Channel, len: u64, acct: &mut Account) -> Result<ByteRange> {
        self.lock(
            pid,
            ch,
            len,
            LockRequestMode::Unlock,
            LockOpts::default(),
            acct,
        )
    }

    /// Implicit two-phase locking on data access for transaction processes:
    /// the lock step of a read or write of `range` that `serve` will serve.
    ///
    /// A transaction's reads and writes both go to the file's update site,
    /// which keeps its lock list, so the lock is always that site's lock
    /// step. Returns `true` when it *rides the access* — the lock cache does
    /// not cover the range and `serve` is remote: the caller sends its
    /// `ReadReq` / `WriteReq` with `lock: true` and hands the outcome to
    /// [`Kernel::lock_rode`]. Returns `false` when the lock is in hand: a
    /// lock cache hit, or a miss on a file stored here, taken now by the
    /// same two calls with no message.
    pub(crate) fn ensure_locked(
        &self,
        pid: Pid,
        of: &OpenFile,
        serve: SiteId,
        range: ByteRange,
        write: bool,
        acct: &mut Account,
    ) -> Result<bool> {
        let owner = self.owner_of(pid);
        if self.cache.covers(of.fid, owner, range, write) {
            self.counters.lock_cache_hits();
            acct.cpu_instrs(&self.model, self.model.buffer_hit_instrs);
            return Ok(false);
        }
        if serve != self.site {
            return Ok(true);
        }
        self.serve_implicit_lock(self.site, of.fid, pid, owner, range, write, acct)?;
        self.lock_rode(pid, of, serve, range, write, Ok(()))?;
        Ok(false)
    }

    /// What an access that carried its lock leaves at this site, given the
    /// storage site's answer `res`. Granted and served: the lock cache and
    /// the transaction's file list learn what `lock_channel` would have
    /// taught them. Queued or refused: nothing happened there; the caller
    /// retries after the grant's wake-up, the retry rides again, and the
    /// lock list's reacquisition fast path makes that idempotent. Anything
    /// else — a lost reply included — leaves the outcome unknown: the lock
    /// may be held and the bytes written, so the site still joins the file
    /// list, and commit or abort will reach it.
    pub(crate) fn lock_rode<T>(
        &self,
        pid: Pid,
        of: &OpenFile,
        serve: SiteId,
        range: ByteRange,
        write: bool,
        res: Result<T>,
    ) -> Result<T> {
        if matches!(
            res,
            Err(Error::WouldBlock { .. } | Error::LockConflict { .. })
        ) {
            return res;
        }
        let granted = res.as_ref().ok().and(implicit_mode(write).as_mode());
        // One pass over the process stripe (the lock cache's shard lock is a
        // leaf, as in `read`'s cached fast path).
        let noted = self.procs.with_mut(pid, |rec| {
            let Some(tid) = rec.tid else { return };
            if let Some(mode) = granted {
                self.cache.insert(of.fid, Owner::Trans(tid), mode, range);
            }
            rec.note_file(of.fid, serve, of.epoch);
        });
        res.and_then(|out| noted.map(|()| out))
    }

    #[allow(clippy::too_many_arguments)]
    fn lock_channel(
        &self,
        pid: Pid,
        ch: Channel,
        of: &OpenFile,
        len: u64,
        mode: LockRequestMode,
        opts: LockOpts,
        acct: &mut Account,
    ) -> Result<ByteRange> {
        let rec_tid = self.procs.with_mut(pid, |r| r.tid).ok().flatten();
        let class = if opts.non_transaction || rec_tid.is_none() {
            LockClass::NonTransaction
        } else {
            LockClass::Transaction
        };
        // Unlock requests address already-held ranges at the current file
        // pointer; only acquisitions are placed append-relative.
        let append = (opts.append || of.append) && mode != LockRequestMode::Unlock;
        let range = ByteRange::new(if append { 0 } else { of.pos }, len);
        check_range(range)?;
        let owner = if let (Some(tid), LockClass::Transaction) = (rec_tid, class) {
            Owner::Trans(tid)
        } else {
            Owner::Proc(pid)
        };
        // The lock list lives at the file's *current primary* update site —
        // the lock cache stays primary-anchored, so locks follow a failover
        // instead of piling up at a deposed primary or a read-serving
        // replica. That site is also the transaction's prepare participant.
        let loc = self.catalog.loc_of(of.fid);
        let participant = match &loc {
            Some(loc) if loc.replicated() => loc.primary,
            _ => of.storage_site,
        };
        let ps = self.model.page_size;
        let req = |fetch| LockMsg::Req {
            fid: of.fid,
            pid,
            tid: rec_tid,
            mode,
            class,
            range,
            append,
            wait: opts.wait,
            reply_site: self.site,
            fetch,
        };
        if mode == LockRequestMode::Unlock {
            // Coverage ends before the release leaves: from here on the lock
            // may be gone at the storage site, and nothing here may go on
            // serving what it guarded. A page a grant shipped clean is kept
            // for the next grant to name current (`PageCache::demote`).
            self.cache.remove(of.fid, owner, range);
            self.pages.demote(of.fid, owner, range, ps);
            if participant != self.site {
                // The release rides the next message there
                // (`crate::releases`).
                self.releases.push(participant, pid, Msg::Lock(req(None)));
                self.procs.with_mut(pid, |rec| {
                    if rec.tid.is_some() {
                        rec.note_file(of.fid, participant, of.epoch);
                    }
                })?;
                return Ok(range);
            }
        } else {
            // A release of this process's still on a carrier is applied
            // there before this request, or rides ahead of it.
            self.releases.wait_settled(Some(participant), pid);
        }
        // A shared lock permits its holder to read the range and nothing
        // else, so the request says the reads are coming: ask for the pages
        // with the grant (Section 5.2; DESIGN.md §3 has each clause's
        // reason). Mode first: an exclusive lock pays one compare.
        let fetch = mode == LockRequestMode::Shared
            && rec_tid.is_none()
            && !append
            && participant != self.site
            && self.page_cache_enabled.load(Ordering::Relaxed)
            && participant == self.read_site_at(of, false, loc.as_ref());
        // What this owner still holds of the pages the grant would ship, and
        // the write generation from before the request, as in `read`.
        let repl_epoch = loc.map_or(0, |loc| loc.epoch);
        let window = ship_window(range, ps);
        let fetch = fetch.then(|| {
            let held = self
                .pages
                .held(of.fid, owner, participant, repl_epoch, window, ps);
            (held, self.pages.write_gen(of.fid, owner))
        });
        let held = fetch.as_ref().map(|(held, _)| held.clone());
        let resp = self.rpc(participant, Msg::Lock(req(held)), acct)?;
        match resp {
            Msg::Lock(LockMsg::Resp {
                granted,
                epoch,
                committed_len,
                pages,
            }) => {
                self.note_boot_epoch(participant, epoch);
                if let Some(m) = mode.as_mode() {
                    self.cache.insert(of.fid, owner, m, granted);
                }
                if let Some((held, gen)) = fetch {
                    // After the insert above: coverage is what admits a page.
                    let inc = Incarnation {
                        site: participant,
                        boot_epoch: epoch,
                        repl_epoch,
                    };
                    let grant = (committed_len, &pages[..]);
                    self.cache_grant(of.fid, owner, window, &held.have, grant, inc, gen);
                }
                self.procs.with_mut(pid, |rec| {
                    if rec.tid.is_some() {
                        rec.note_file(of.fid, participant, of.epoch);
                    }
                    if append && mode != LockRequestMode::Unlock {
                        // Position the pointer at the locked area so the
                        // following write lands under the lock.
                        if let Some(o) = rec.open_files.get_mut(&ch) {
                            o.pos = granted.start;
                        }
                    }
                })?;
                Ok(granted)
            }
            other => Err(Error::ProtocolViolation(format!(
                "unexpected lock response {other:?}"
            ))),
        }
    }

    /// A transaction's implicit lock, taken at the storage site for a
    /// requester at `from`: the lock half of a `ReadReq` / `WriteReq` sent
    /// with `lock: true`, or of an access to a file stored here
    /// (`ensure_locked`). Any error — queued or refused — is the access's
    /// answer, returned before the file is touched.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_implicit_lock(
        &self,
        from: SiteId,
        fid: Fid,
        pid: Pid,
        owner: Owner,
        range: ByteRange,
        write: bool,
        acct: &mut Account,
    ) -> Result<()> {
        let Owner::Trans(tid) = owner else {
            return Err(Error::ProtocolViolation(format!(
                "{owner:?} is not a transaction: only a transaction locks implicitly"
            )));
        };
        self.check_not_refused(owner)?;
        let req = LockRequest {
            pid,
            tid: Some(tid),
            class: LockClass::Transaction,
            mode: implicit_mode(write),
            range,
            append: false,
            wait: true,
            reply_site: from,
        };
        let resp = self.storage_site_lock(fid, req, None, acct)?;
        // Only an append-mode grant lands anywhere but where it was asked
        // for, which is why no range travels back with the data.
        debug_assert!(matches!(
            resp,
            Msg::Lock(LockMsg::Resp { granted, .. }) if granted == range
        ));
        Ok(())
    }

    /// Storage-site lock processing: grant/deny/queue, then apply the
    /// Section 3.3 rule-2 adoption of modified-uncommitted records. The one
    /// body behind [`LockMsg::Req`] and behind every implicit lock
    /// ([`Kernel::serve_implicit_lock`]).
    /// With `fetch`, a grant carries the bytes it guards over its ship window
    /// (`ship_window`: never more than the reads this replaces), except the
    /// pages the requester holds current copies of: a held copy is current
    /// under the incarnation it was shipped by, and the volume decides the
    /// rest (`Volume::read_grant`).
    pub(crate) fn storage_site_lock(
        &self,
        fid: Fid,
        req: LockRequest,
        fetch: Option<&Held>,
        acct: &mut Account,
    ) -> Result<Msg> {
        let vol = self.volume(fid.volume)?;
        // First contact with the file needs its end-of-file to place
        // append-mode locks; after that the lock list maintains the hint
        // itself, and skipping the lookup keeps the lock hot path off the
        // volume's inode table entirely.
        if !self.locks.has_file(fid) {
            self.locks.ensure_file(fid, vol.len(fid, acct)?);
        }
        let owner = req.owner();
        let is_txn_lock = owner.is_transaction();
        let is_unlock = req.mode == LockRequestMode::Unlock;
        let asked = req.range;
        // Holders this site can settle are settled before the request can
        // wait on them, or be refused by them: the request meets the lock
        // list once, and a grant it no longer needs is never pushed.
        if self.locks.blocked(fid, &req) {
            self.settle_holders(fid, req.reply_site, acct);
        }
        match self.locks.request(fid, req, acct) {
            LockOutcome::Granted { range } => {
                if is_txn_lock && !is_unlock {
                    // Rule 2: a transaction locking modified-but-uncommitted
                    // records adopts them — they are pinned and committed (or
                    // aborted) with the transaction.
                    let mods = vol.uncommitted_mods_overlapping(fid, range, owner);
                    if !mods.is_empty() {
                        vol.adopt(fid, range, owner);
                        self.locks.pin_retained(fid, owner, range);
                    }
                }
                // Unlock may unblock queued waiters.
                if is_unlock {
                    let granted = self.locks.pump_file(fid, acct);
                    self.push_grants(granted, acct);
                }
                let epoch = self.boot_epoch();
                let (committed_len, pages) = match fetch {
                    Some(held) => {
                        let current = !held.have.is_empty()
                            && held.boot_epoch == epoch
                            && held.repl_epoch == self.catalog.epoch_of(fid);
                        let have = if current { &held.have[..] } else { &[] };
                        let window = ship_window(range, self.model.page_size);
                        // The lock stands either way: a failed read is a bare grant.
                        let read = vol.read_grant(fid, owner, window, have, acct);
                        read.unwrap_or_default()
                    }
                    None => Default::default(),
                };
                Ok(Msg::Lock(LockMsg::Resp {
                    granted: range,
                    epoch,
                    committed_len,
                    pages,
                }))
            }
            LockOutcome::Denied { conflicting } => Err(Error::LockConflict {
                fid,
                range: conflicting,
            }),
            LockOutcome::Queued => Err(Error::WouldBlock {
                fid,
                range: ByteRange::new(0, 0),
            }),
            LockOutcome::OutOfRange => Err(Error::InvalidArgument(format!(
                "append-mode range {}+{} past end-of-file overflows the file address space",
                asked.start, asked.len
            ))),
        }
    }

    /// Before a request from `requester` on `fid` waits or is refused:
    /// settles what this site can of the owners holding its locks. A
    /// transaction's outcome is learned if it can be
    /// ([`TxnService::wanted`](crate::TxnService::wanted)) — a delegate's
    /// yes among peers whose commit has yet to ride here. A process living
    /// at another site has that site's queued releases recalled
    /// ([`Kernel::recall`]) — except the requester's, whose releases rode
    /// ahead of the request. Returns whether anything was settled, so the
    /// caller asks again.
    pub(crate) fn settle_holders(&self, fid: Fid, requester: SiteId, acct: &mut Account) -> bool {
        let txn = self.txn_service_ref().ok();
        let mut settled = false;
        let mut recall = BTreeSet::new();
        for owner in self.locks.owners_on(fid) {
            match owner {
                Owner::Trans(tid) => {
                    settled |= txn.as_ref().is_some_and(|txn| txn.wanted(tid, acct));
                }
                Owner::Proc(pid) => {
                    recall.extend(
                        self.registry
                            .lookup(pid)
                            .filter(|&site| site != self.site && site != requester),
                    );
                }
            }
        }
        for site in recall {
            settled |= self.recall(site, acct);
        }
        settled
    }

    /// Asks `site` for the releases it has queued for this site
    /// ([`LockMsg::Recall`]) and applies them. Returns whether any came.
    /// The recall carries nothing of its own, so that `site` answers it at
    /// once; until the releases are applied, any other message from `site`
    /// waits (`Kernel::handle_kernel_msg`).
    fn recall(&self, site: SiteId, acct: &mut Account) -> bool {
        self.recalling.begin(site);
        let answer = self
            .transport_ref()
            .and_then(|t| t.rpc(self.site, site, Msg::Lock(LockMsg::Recall), acct));
        let mut applied = false;
        if let Ok(Msg::Batch(releases)) = answer {
            for release in releases {
                if let Msg::Lock(
                    req @ LockMsg::Req {
                        mode: LockRequestMode::Unlock,
                        ..
                    },
                ) = release
                {
                    // A release the lock list refuses releases nothing.
                    let _ = LockService::handle(self, site, req, acct);
                    applied = true;
                }
            }
        }
        self.recalling.end(site);
        applied
    }

    /// The storage site's enforced-lock check on an access (Figure 1) from
    /// `requester`, asked again once the holders it refuses are settled
    /// ([`Kernel::settle_holders`]).
    pub(crate) fn check_access(
        &self,
        fid: Fid,
        owner: Owner,
        range: ByteRange,
        write: bool,
        requester: SiteId,
        acct: &mut Account,
    ) -> Result<()> {
        self.check_not_refused(owner)?;
        match self.locks.validate_access(fid, owner, range, write) {
            Err(Error::AccessDenied { .. }) if self.settle_holders(fid, requester, acct) => {
                self.locks.validate_access(fid, owner, range, write)
            }
            res => res,
        }
    }

    /// Refuses any access of a transaction begun elsewhere that this site
    /// rolled back and refuses ([`TxnService::refused`](crate::TxnService::refused)),
    /// stranded here by a partition or its home site's crash: it can only
    /// abort, so it takes no lock here and reads or writes no byte —
    /// whether its lock rides the access or its requester's lock cache
    /// still covers the range. A transaction begun here is never stranded
    /// here, and the local commit path pays nothing for the check.
    fn check_not_refused(&self, owner: Owner) -> Result<()> {
        match owner {
            Owner::Trans(tid)
                if tid.site != self.site
                    && self.txn_service_ref().is_ok_and(|txn| txn.refused(tid)) =>
            {
                Err(Error::TxnAborted(tid))
            }
            _ => Ok(()),
        }
    }

    /// Pushes grant notifications to the requesting sites of newly granted
    /// waiters.
    pub fn push_grants(&self, granted: Vec<GrantedWaiter>, acct: &mut Account) {
        for g in granted {
            let msg = Msg::Lock(LockMsg::Granted { pid: g.request.pid });
            let _ = self.notify(g.request.reply_site, msg, acct);
        }
    }
}
