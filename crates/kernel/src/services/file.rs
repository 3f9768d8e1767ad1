//! The file service: filesystem data plane.
//!
//! Client side: the `creat`/`open`/`close`/`lseek`/`read`/`write` system
//! calls plus the explicit single-file `commit_file`/`abort_file` (base
//! Locus commits files atomically as its default operating mode, Section 4).
//! Server side: the storage-site handler for [`FileMsg`] requests.
//!
//! A transaction's `read` and `write` take their implicit lock on the way
//! (Section 3.1), and the lock never gets a message of its own: a
//! transaction's data and the file's lock list are at the same site. To a
//! remote site the `ReadReq` / `WriteReq` goes out with `lock: true` and the
//! storage site locks, then serves, in one round trip — or answers the
//! lock's error with the file untouched; for a file stored here the lock is
//! this site's lock step. `Kernel::ensure_locked` decides whether the lock
//! rides and `Kernel::lock_rode` applies what the answer means here; both
//! are in [`crate::services::lock`], next to the explicit path.
//!
//! Every page reply — a `ReadResp` here, a shared grant's pages in the lock
//! service — comes from one page walk, `Volume::read_grant`.

use locus_net::{FileMsg, LockMsg, Msg};
use locus_proc::OpenFile;
use locus_sim::Account;
use locus_types::{
    ByteRange, Channel, Error, Fid, GrantPage, Owner, PageData, PageNo, Pid, Result, SiteId,
};

use crate::catalog::FileLoc;
use crate::kernel::Kernel;
use crate::pagecache::Incarnation;
use crate::services::{check_range, ServiceHandler};

/// Pages a sequential read brings along past the demanded ones.
pub(crate) const READAHEAD_PAGES: u64 = 2;

/// A page-relative span of `page` as absolute bytes of the file.
fn on_page(page: PageNo, span: ByteRange, page_size: usize) -> ByteRange {
    ByteRange::new(u64::from(page.0) * page_size as u64 + span.start, span.len)
}

/// Storage-site handler for the filesystem data plane.
pub(crate) struct FileService;

impl ServiceHandler for FileService {
    type Request = FileMsg;

    fn handle(k: &Kernel, from: SiteId, req: FileMsg, acct: &mut Account) -> Result<Msg> {
        match req {
            FileMsg::OpenReq {
                fid,
                pid: _,
                write: _,
            } => {
                let vol = k.volume(fid.volume)?;
                let len = vol.len(fid, acct)?;
                k.locks.ensure_file(fid, len);
                Ok(Msg::File(FileMsg::OpenResp {
                    len,
                    epoch: k.boot_epoch(),
                }))
            }
            FileMsg::ReadReq {
                fid,
                pid,
                owner,
                range,
                lock,
            } => {
                check_range(range)?;
                if lock {
                    k.serve_implicit_lock(from, fid, pid, owner, range, false, acct)?;
                }
                k.locks.validate_access(fid, owner, range, false)?;
                let vol = k.volume(fid.volume)?;
                // A reader that holds nothing is shipped every page.
                let (committed_len, pages) = vol.read_grant(fid, owner, range, &[], acct)?;
                let (mut bytes, mut versions) = (Vec::new(), Vec::with_capacity(pages.len()));
                for page in pages {
                    if let GrantPage::Shipped { vers, data, .. } = page {
                        bytes.extend_from_slice(&data);
                        versions.push(vers);
                    }
                }
                Ok(Msg::File(FileMsg::ReadResp {
                    data: bytes,
                    committed_len,
                    vers: versions,
                }))
            }
            FileMsg::WriteReq {
                fid,
                pid,
                owner,
                range,
                data,
                lock,
            } => {
                check_range(range)?;
                k.require_primary(fid)?;
                if lock {
                    k.serve_implicit_lock(from, fid, pid, owner, range, true, acct)?;
                }
                k.locks.validate_access(fid, owner, range, true)?;
                let vol = k.volume(fid.volume)?;
                let new_len = vol.write(fid, owner, range, &data, acct)?;
                k.locks.set_eof(fid, new_len);
                Ok(Msg::File(FileMsg::WriteResp {
                    new_len,
                    epoch: k.boot_epoch(),
                }))
            }
            FileMsg::CommitReq { fid, owner } => {
                k.require_primary(fid)?;
                acct.cpu_instrs(&k.model, k.model.commit_storage_instrs);
                let vol = k.volume(fid.volume)?;
                let il = vol.commit_file(fid, owner, acct)?;
                k.locks.set_eof(fid, il.new_len.max(vol.len(fid, acct)?));
                k.sync_replicas(fid, &il, acct)?;
                Ok(Msg::Ok)
            }
            FileMsg::AbortReq { fid, owner } => {
                let vol = k.volume(fid.volume)?;
                vol.abort_owner(fid, owner, acct)?;
                Ok(Msg::Ok)
            }
            // Response variants and the (unused) CloseReq are not requests.
            other => Err(Error::ProtocolViolation(format!(
                "file service cannot handle {other:?}"
            ))),
        }
    }
}

impl Kernel {
    /// Creates a file on this site's home volume and opens it read/write.
    pub fn creat(&self, pid: Pid, name: &str, acct: &mut Account) -> Result<Channel> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs * 4); // Name mapping is expensive.
        let fid = self.home()?.create_file(acct)?;
        self.catalog
            .register(name, FileLoc::single(fid, self.site))?;
        self.locks.ensure_file(fid, 0);
        self.open_fid(pid, fid, self.site, true, false, acct)
    }

    /// Opens a file by name. Name mapping happens once here; subsequent
    /// lock/read/write calls skip it (Section 3.2).
    pub fn open(&self, pid: Pid, name: &str, write: bool, acct: &mut Account) -> Result<Channel> {
        self.open_with(pid, name, write, false, acct)
    }

    /// Opens with Section 3.2 append mode: future lock requests on the
    /// channel are interpreted relative to end-of-file.
    pub fn open_append(&self, pid: Pid, name: &str, acct: &mut Account) -> Result<Channel> {
        self.open_with(pid, name, true, true, acct)
    }

    fn open_with(
        &self,
        pid: Pid,
        name: &str,
        write: bool,
        append: bool,
        acct: &mut Account,
    ) -> Result<Channel> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs * 4);
        let loc = self.catalog.resolve(name)?;
        // Reads may be served by a closer replica; updates are funneled to
        // the primary update site (Section 5.2). A replica copy qualifies
        // only while it is synced, and only for non-transactional readers:
        // transaction reads must lock — and locking lives at the primary —
        // so serving them here would split the lock table from the data.
        let in_txn = self
            .procs
            .with_mut(pid, |rec| rec.tid.is_some())
            .unwrap_or(false);
        let serving = if !write
            && !in_txn
            && loc.sites.contains(&self.site)
            && loc.synced.contains(&self.site)
        {
            self.site
        } else {
            loc.primary
        };
        self.open_fid(pid, loc.fid, serving, write, append, acct)
    }

    pub(crate) fn open_fid(
        &self,
        pid: Pid,
        fid: Fid,
        serving: SiteId,
        write: bool,
        append: bool,
        acct: &mut Account,
    ) -> Result<Channel> {
        let resp = self.rpc(
            serving,
            Msg::File(FileMsg::OpenReq { fid, pid, write }),
            acct,
        )?;
        let Msg::File(FileMsg::OpenResp { len, epoch }) = resp else {
            return Err(Error::ProtocolViolation(format!(
                "unexpected open response {resp:?}"
            )));
        };
        let pos = if append { len } else { 0 };
        self.procs.with_mut(pid, |rec| {
            let ch = rec.add_open(OpenFile {
                fid,
                storage_site: serving,
                epoch,
                pos,
                append,
                write,
            });
            if rec.tid.is_some() {
                rec.note_file(fid, serving, epoch);
            }
            ch
        })
    }

    /// Refuses an update-path request unless this site is the file's current
    /// primary update site. A deposed primary (a failover happened while it
    /// was down or partitioned away) must not accept writes or commits — it
    /// demotes itself and resyncs instead.
    pub fn require_primary(&self, fid: Fid) -> Result<()> {
        if let Some(loc) = self.catalog.loc_of(fid) {
            if loc.replicated() && loc.primary != self.site {
                return Err(Error::InvalidArgument(format!(
                    "site {} is not the primary update site of {fid} (epoch {})",
                    self.site, loc.epoch
                )));
            }
        }
        Ok(())
    }

    /// Where update-path traffic (writes, commits, aborts, locks) for this
    /// channel must go *now*. For replicated files that is the current
    /// catalog primary — which may differ from the open-time storage site
    /// after a failover; for everything else, the open-time storage site.
    pub(crate) fn update_site(&self, of: &OpenFile) -> SiteId {
        match self.catalog.loc_of(of.fid) {
            Some(loc) if loc.replicated() => loc.primary,
            _ => of.storage_site,
        }
    }

    /// Where a read on this channel is served *now*. A locally-held replica
    /// copy qualifies only for non-transactional reads and only while it is
    /// synced; a stale replica falls back to the primary instead of serving
    /// old bytes. Channels pointed at a deposed primary follow the catalog
    /// to the current one.
    pub(crate) fn read_site(&self, of: &OpenFile, in_txn: bool) -> SiteId {
        self.read_site_at(of, in_txn, self.catalog.loc_of(of.fid).as_ref())
    }

    /// [`Kernel::read_site`] for the file's catalog entry `loc`, already in
    /// hand.
    pub(crate) fn read_site_at(
        &self,
        of: &OpenFile,
        in_txn: bool,
        loc: Option<&FileLoc>,
    ) -> SiteId {
        let Some(loc) = loc else {
            return of.storage_site;
        };
        if !loc.replicated() {
            return of.storage_site;
        }
        if of.storage_site == self.site
            && loc.primary != self.site
            && !in_txn
            && loc.synced.contains(&self.site)
        {
            return self.site;
        }
        loc.primary
    }

    /// Closes a channel. Outside a transaction this commits the process's
    /// changes to the file (base Locus' atomic file update) and releases its
    /// locks — sent as one batched network message to the storage site;
    /// inside a transaction, changes and locks belong to the transaction and
    /// persist until its outcome.
    pub fn close(&self, pid: Pid, ch: Channel, acct: &mut Account) -> Result<()> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs);
        let (of, tid) = self.with_channel(pid, ch)?;
        if tid.is_none() {
            acct.cpu_instrs(&self.model, self.model.commit_requester_instrs);
            let commit = Msg::File(FileMsg::CommitReq {
                fid: of.fid,
                owner: Owner::Proc(pid),
            });
            let unlock = Msg::Lock(LockMsg::UnlockAll { fid: of.fid, pid });
            // Before the batch leaves, as for an unlock (`lock_channel`): a
            // lost reply must not leave the channel served from copies its
            // released locks no longer vouch for.
            self.cache
                .remove(of.fid, Owner::Proc(pid), ByteRange::new(0, u64::MAX));
            self.pages.drop_fid_owner(of.fid, Owner::Proc(pid));
            self.rpc_batch(self.update_site(&of), vec![commit, unlock], acct)?;
        }
        self.procs.with_mut(pid, |rec| {
            rec.open_files.remove(&ch);
        })?;
        Ok(())
    }

    /// Repositions the file pointer.
    pub fn lseek(&self, pid: Pid, ch: Channel, pos: u64, acct: &mut Account) -> Result<()> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs);
        self.with_channel(pid, ch)?;
        self.procs.with_mut(pid, |rec| {
            if let Some(of) = rec.open_files.get_mut(&ch) {
                of.pos = pos;
            }
        })
    }

    /// Reads `len` bytes at the current position. Transactions lock
    /// implicitly ("implicitly (at the time of record access)",
    /// Section 3.1) — with the read itself when it goes to the remote site
    /// that keeps the lock list; a queued implicit lock surfaces as
    /// [`Error::WouldBlock`] and the caller retries after its wakeup.
    ///
    /// Three serving tiers, cheapest first:
    /// 1. *Local dispatch*: the file is stored here — call straight into the
    ///    volume, no message construction at all.
    /// 2. *Page cache*: the bytes were fetched earlier under lock coverage
    ///    the owner still holds — serve them locally (Section 5.1: the lock
    ///    holder "may use local copies").
    /// 3. *Remote read*: fetch the covered pages around the request (see
    ///    `fetch_extent`) from the storage site, hand the caller its slice
    ///    and, when coverage and the response's version stamps allow,
    ///    populate the page cache with the rest.
    pub fn read(&self, pid: Pid, ch: Channel, len: u64, acct: &mut Account) -> Result<Vec<u8>> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs);
        let ps = self.model.page_size;
        let caching = self
            .page_cache_enabled
            .load(std::sync::atomic::Ordering::Relaxed);
        if caching {
            // Non-transactional cached fast path: serve the bytes and advance
            // the pointer in one pass over the process stripe (the lock-cache
            // and page-shard locks are leaves, so nesting them here is safe).
            // Transactions fall through — they need the implicit-lock step
            // first, which can block.
            let served = self.procs.with_mut(pid, |rec| {
                if rec.tid.is_some() {
                    return None;
                }
                let of = rec.open_files.get_mut(&ch)?;
                if of.storage_site == self.site {
                    return None;
                }
                let range = ByteRange::new(of.pos, len);
                // A range past the address space falls through too: the slow
                // path is where it is refused.
                if range.is_empty()
                    || range.checked_end().is_none()
                    || !self.cache.covers(of.fid, Owner::Proc(pid), range, false)
                {
                    return None;
                }
                let out = self.pages.read_vec(of.fid, Owner::Proc(pid), range, ps)?;
                of.pos += out.len() as u64;
                Some(out)
            })?;
            if let Some(out) = served {
                self.counters.page_cache_hits();
                acct.cpu_instrs(&self.model, self.model.buffer_hit_instrs);
                return Ok(out);
            }
        }
        let (of, tid) = self.with_channel(pid, ch)?;
        let range = ByteRange::new(of.pos, len);
        check_range(range)?;
        let serve = self.read_site(&of, tid.is_some());
        let lock = tid.is_some() && self.ensure_locked(pid, &of, serve, range, false, acct)?;
        let owner = self.owner_of(pid);
        if serve == self.site {
            // Local fast path: exactly what the ReadReq handler would do,
            // minus the message.
            self.counters.local_fast_paths();
            self.locks.validate_access(of.fid, owner, range, false)?;
            let vol = self.volume(of.fid.volume)?;
            let data = vol.read(of.fid, range, acct)?;
            self.procs.with_mut(pid, |rec| {
                if let Some(of) = rec.open_files.get_mut(&ch) {
                    of.pos += data.len() as u64;
                }
            })?;
            return Ok(data);
        }
        if caching && !range.is_empty() && self.cache.covers(of.fid, owner, range, false) {
            if let Some(out) = self.pages.read_vec(of.fid, owner, range, ps) {
                // Cached entries only ever cover committed bytes, and the
                // committed length is monotone — so the uncached read could
                // not have clipped this range short.
                self.counters.page_cache_hits();
                acct.cpu_instrs(&self.model, self.model.buffer_hit_instrs);
                self.procs.with_mut(pid, |rec| {
                    if let Some(of) = rec.open_files.get_mut(&ch) {
                        of.pos += out.len() as u64;
                    }
                })?;
                return Ok(out);
            }
        }
        if caching && !range.is_empty() {
            self.counters.page_cache_misses();
        }
        let mut extent = if caching {
            self.fetch_extent(of.fid, owner, range)
        } else {
            range
        };
        // Snapshot the owner's write generation *before* the fetch: if a
        // sibling thread of this owner writes while the read is in flight,
        // the stale response must not enter the cache.
        let gen = self.pages.write_gen(of.fid, owner);
        // A transaction's read is never widened (`fetch_extent`), so a lock
        // that rides it is a lock on the caller's own range.
        debug_assert!(!lock || extent == range);
        let fetch = |extent: ByteRange, acct: &mut Account| {
            let req = FileMsg::ReadReq {
                fid: of.fid,
                pid,
                owner,
                range: extent,
                lock,
            };
            self.rpc(serve, Msg::File(req), acct)
        };
        let mut resp = match fetch(extent, acct) {
            // The storage site refused bytes the caller never asked for (its
            // lock list no longer matches this site's lock cache): the
            // caller's own range still gets its own answer.
            Err(Error::AccessDenied { .. }) if extent != range => {
                extent = range;
                fetch(range, acct)
            }
            resp => resp,
        };
        if lock {
            // Before the populate loop below, whose coverage check needs the
            // lock this read just took.
            resp = self.lock_rode(pid, &of, serve, range, false, resp);
        }
        let resp = resp?;
        let Msg::File(FileMsg::ReadResp {
            mut data,
            committed_len,
            vers,
        }) = resp
        else {
            return Err(Error::ProtocolViolation(format!(
                "unexpected read response {resp:?}"
            )));
        };
        if caching {
            let shipped = (&data[..], committed_len, &vers[..]);
            let last = range.last_page(ps);
            self.cache_pages(of.fid, owner, extent.start, shipped, last, gen);
        }
        // The caller's slice of the reply: what the storage site would have
        // returned for `range` itself, visible-length clip included.
        data.truncate((range.end() - extent.start).min(data.len() as u64) as usize);
        data.drain(..((range.start - extent.start) as usize).min(data.len()));
        self.procs.with_mut(pid, |rec| {
            if let Some(of) = rec.open_files.get_mut(&ch) {
                of.pos += data.len() as u64;
            }
        })?;
        Ok(data)
    }

    /// A read's populate step: caches what the storage site shipped from
    /// byte `start` — [`FileMsg::ReadResp`]'s triple — as far as `owner`'s
    /// cached locks cover it. `gen` is the owner's write generation before
    /// the request; pages past `demand_last` are prefetches.
    fn cache_pages(
        &self,
        fid: Fid,
        owner: Owner,
        start: u64,
        (data, committed_len, vers): (&[u8], u64, &[u64]),
        demand_last: Option<PageNo>,
        gen: u64,
    ) {
        let ps = self.model.page_size;
        let clipped = ByteRange::new(start, data.len() as u64);
        for (page, v) in clipped.pages(ps).zip(vers) {
            let Some(slice) = clipped.slice_on_page(page, ps) else {
                continue;
            };
            if Some(page) > demand_last {
                self.counters.prefetches();
            }
            let abs = on_page(page, slice, ps);
            // Cache only committed bytes the owner's locks still cover.
            if abs.end() > committed_len || !self.cache.covers(fid, owner, abs, false) {
                continue;
            }
            let off = (abs.start - clipped.start) as usize;
            let bytes = PageData::from(&data[off..off + slice.len as usize]);
            self.pages.insert(fid, owner, page, *v, slice, bytes, gen);
        }
    }

    /// A grant's populate step, behind `Kernel::lock_channel`: of the ship
    /// `window`, each page the storage site named current is live again if
    /// it is the copy `held` named, and each it shipped is cached as a
    /// read's reply is — stamped with `inc` when it came clean. Every page
    /// shipped is a prefetch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn cache_grant(
        &self,
        fid: Fid,
        owner: Owner,
        window: ByteRange,
        held: &[u64],
        (committed_len, pages): (u64, &[GrantPage]),
        inc: Incarnation,
        gen: u64,
    ) {
        let ps = self.model.page_size;
        self.pages.note_incarnation(fid, owner, inc);
        // The grant has just entered the lock cache: its coverage is asked
        // once, for the whole window.
        let covered = self.cache.covers(fid, owner, window, false);
        let held = held.iter().chain(std::iter::repeat(&0));
        for ((page, shipped), held) in window.pages(ps).zip(pages).zip(held) {
            let Some(slice) = window.slice_on_page(page, ps) else {
                continue;
            };
            match shipped {
                GrantPage::Current => {
                    if covered {
                        self.pages.revalidate(fid, owner, page, *held, gen);
                    }
                }
                GrantPage::Shipped { vers, clean, data } => {
                    self.counters.prefetches();
                    let span = ByteRange::new(slice.start, data.len() as u64);
                    // Cache only committed bytes of the window.
                    let committed = on_page(page, span, ps).end() <= committed_len;
                    if covered && committed && span.len <= slice.len {
                        let clean = clean.then_some(inc);
                        let bytes = data.clone();
                        self.pages
                            .insert_shipped(fid, owner, page, *vers, span, bytes, gen, clean);
                    }
                }
            }
        }
    }

    /// What a missed remote read of `range` asks the storage site for.
    ///
    /// Where the owner's cached lock covers it, the request is widened to
    /// the boundaries of the pages it touches, so the one round trip (and
    /// the page transfer it is charged anyway) serves every later read of
    /// those pages; bytes of a page outside the coverage stay out, because
    /// coverage — not the page — is what keeps other owners from changing
    /// them. When the access is sequential the next `READAHEAD_PAGES`
    /// pages ride along, as far as they are wholly covered (Section 5.2
    /// prefetches "the locked pages"). Sequential is judged without state:
    /// the byte just before the first demanded page is live in this owner's
    /// page cache (a page kept from a released lock does not count), i.e.
    /// the owner has just read up to this page boundary under the same
    /// coverage. With no coverage the extent is `range` itself.
    ///
    /// A transaction's reads are never widened. Its members can run at
    /// several sites (fork, then migrate) while page invalidation on a write
    /// reaches the writer's site only, so a page fetched here ahead of its
    /// use could miss a record another member has written since — and a
    /// transaction must see its own uncommitted writes.
    fn fetch_extent(&self, fid: Fid, owner: Owner, range: ByteRange) -> ByteRange {
        if matches!(owner, Owner::Trans(_)) {
            return range;
        }
        let ps = self.model.page_size as u64;
        let first = range.start / ps * ps;
        let demand_end = range.end().div_ceil(ps).saturating_mul(ps);
        let sequential = first > 0
            && self.pages.covers_page_span(
                fid,
                owner,
                PageNo((first / ps - 1) as u32),
                ByteRange::new(ps - 1, 1),
            );
        let ahead = if sequential { READAHEAD_PAGES * ps } else { 0 };
        let within = ByteRange::new(first, demand_end.saturating_add(ahead) - first);
        match self.cache.read_extent(fid, owner, range, within) {
            // Readahead ships whole pages only.
            Some(ext) if ext.end() > demand_end => {
                ByteRange::new(ext.start, ext.end() / ps * ps - ext.start)
            }
            Some(ext) => ext,
            None => range,
        }
    }

    /// Writes `data` at the current position. Requires write-mode open;
    /// transactions lock the range exclusively, implicitly, with the write
    /// itself when it goes to the remote site that keeps the lock list.
    pub fn write(&self, pid: Pid, ch: Channel, data: &[u8], acct: &mut Account) -> Result<()> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs);
        let (of, tid) = self.with_channel(pid, ch)?;
        if !of.write {
            return Err(Error::PermissionDenied { fid: of.fid });
        }
        let range = ByteRange::new(of.pos, data.len() as u64);
        check_range(range)?;
        let serve = self.update_site(&of);
        let lock = tid.is_some() && self.ensure_locked(pid, &of, serve, range, true, acct)?;
        let owner = self.owner_of(pid);
        let write_epoch = if serve == self.site {
            // Local fast path: the WriteReq handler's work, sans message.
            self.counters.local_fast_paths();
            self.locks.validate_access(of.fid, owner, range, true)?;
            let vol = self.volume(of.fid.volume)?;
            let new_len = vol.write(of.fid, owner, range, data, acct)?;
            self.locks.set_eof(of.fid, new_len);
            self.boot_epoch()
        } else {
            let mut resp = self.rpc(
                serve,
                Msg::File(FileMsg::WriteReq {
                    fid: of.fid,
                    pid,
                    owner,
                    range,
                    data: data.to_vec(),
                    lock,
                }),
                acct,
            );
            if lock {
                resp = self.lock_rode(pid, &of, serve, range, true, resp);
            }
            let resp = resp?;
            // The storage site's boot epoch at the moment it acked this
            // write; recorded in the file-list so prepare can detect a later
            // reboot that discarded the buffered (acked) bytes.
            match resp {
                Msg::File(FileMsg::WriteResp { epoch, .. }) => epoch,
                _ => of.epoch,
            }
        };
        // The owner's cached pages overlapping the write are now stale, and
        // any in-flight read snapshot predating this write must not land.
        self.pages
            .note_write(of.fid, owner, range, self.model.page_size);
        self.procs.with_mut(pid, |rec| {
            if let Some(of) = rec.open_files.get_mut(&ch) {
                of.pos = range.end();
            }
            if rec.tid.is_some() {
                // Lazily added for files opened before BeginTrans but used
                // within the transaction. The participant is wherever the
                // write actually landed (the current primary), not the
                // open-time storage site.
                rec.note_file(of.fid, serve, write_epoch);
            }
        })?;
        Ok(())
    }

    /// Explicitly aborts (rolls back) this process's uncommitted changes to
    /// an open file — the non-transaction `abort x` of Figure 2.
    pub fn abort_file(&self, pid: Pid, ch: Channel, acct: &mut Account) -> Result<()> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs);
        let (of, _) = self.with_channel(pid, ch)?;
        let msg = Msg::File(FileMsg::AbortReq {
            fid: of.fid,
            owner: Owner::Proc(pid),
        });
        // The abort reverts this process's uncommitted bytes at the storage
        // site, so locally cached copies of them go — before the request
        // leaves, or a lost reply would leave them served.
        self.pages.drop_fid_owner(of.fid, Owner::Proc(pid));
        self.rpc(self.update_site(&of), msg, acct)?;
        Ok(())
    }

    /// Commits this process's changes to an open file immediately (fsync-like
    /// single-file commit for non-transaction processes).
    pub fn commit_file(&self, pid: Pid, ch: Channel, acct: &mut Account) -> Result<()> {
        self.check_up()?;
        acct.cpu_instrs(&self.model, self.model.syscall_instrs);
        // Figure 6: the requesting site's kernel does the bulk of the
        // commit processing (~7200 instructions in the paper's remote rows).
        acct.cpu_instrs(&self.model, self.model.commit_requester_instrs);
        let (of, _) = self.with_channel(pid, ch)?;
        let msg = Msg::File(FileMsg::CommitReq {
            fid: of.fid,
            owner: Owner::Proc(pid),
        });
        self.rpc(self.update_site(&of), msg, acct)?;
        Ok(())
    }
}
