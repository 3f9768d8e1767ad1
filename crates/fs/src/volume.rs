//! A logical volume (filesystem): inodes, buffered pages, shadow-page
//! record commit with differencing, and the per-volume transaction logs.
//!
//! The volume implements the paper's *single-file commit mechanism*
//! (Section 4): prepare builds an intentions list by flushing each modified
//! page to a freshly allocated shadow block — directly when one owner wrote
//! the page (Figure 4a), by differencing against the previous version when
//! several owners share the page (Figure 4b) — and commit atomically
//! replaces the inode with the new page pointers, freeing the old blocks
//! once the new inode is durable. A single-file commit overwrites the stable
//! inode; a transaction's install appends the whole inode to the volume's
//! commit journal, which carries it to the platters with its next force.
//!
//! Transaction logs are kept *on the same volume as the files they cover*
//! (Section 4.4: "it is important to assure that logs are stored on the same
//! medium as the files to which they refer").

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use locus_disk::{IoKind, SimDisk};
use locus_sim::{Account, CostModel, Counters, Event, EventLog, SpanPhase, VirtSpan};
use locus_types::{
    ByteRange, CoordLogRecord, Error, Fid, GrantPage, InodeNo, IntentionsEntry, IntentionsList,
    Owner, PageData, PageNo, PhysPage, PrepareLogRecord, Result, SiteId, TransId, TxnStatus,
    VolumeId,
};
use locus_wal::Journal;

use crate::inode::Inode;
use crate::pagebuf::PageBuf;

/// Maximum buffered pages per file before clean buffers are evicted (the
/// paper's LRU buffer pool, Section 6.3, scaled to the simulation). A
/// requesting site's page cache keeps no more released pages per file and
/// owner than this either.
pub const FILE_BUFFER_CAP: usize = 128;

#[derive(Debug, Default)]
struct FileState {
    buffers: BTreeMap<PageNo, PageBuf>,
    /// Highest byte any uncommitted write has reached.
    uncommitted_len: u64,
    /// Per-owner high-water mark of written bytes (drives committed length).
    writer_ends: BTreeMap<Owner, u64>,
    /// Intentions lists built by `prepare` and not yet committed/aborted.
    prepared: BTreeMap<Owner, IntentionsList>,
}

#[derive(Default)]
struct VolState {
    /// In-core copies of committed inodes ("a copy of the file descriptor is
    /// brought into kernel memory", Section 5.1).
    incore: HashMap<InodeNo, Inode>,
    files: HashMap<InodeNo, FileState>,
}

/// One committed page image served by a catch-up pull: the page, its
/// install counter, and its bytes.
pub type PulledPage = (PageNo, u64, PageData);

/// Copies `slice` (page-relative) of a page's `current` bytes into `dst`;
/// what lies past `current`'s end is left as it is.
fn copy_out(current: &[u8], slice: ByteRange, dst: &mut [u8]) {
    let s = slice.start as usize;
    let avail = current.len().min(s + dst.len());
    if avail > s {
        dst[..avail - s].copy_from_slice(&current[s..avail]);
    }
}

/// One mounted volume at a storage site.
pub struct Volume {
    id: VolumeId,
    site: SiteId,
    disk: Arc<SimDisk>,
    model: Arc<CostModel>,
    counters: Arc<Counters>,
    events: Arc<EventLog>,
    state: Mutex<VolState>,
    next_inode: AtomicU32,
    /// Append-only commit journal holding the coordinator and prepare logs
    /// (Section 4.4: on the same volume as the files they cover).
    journal: Journal,
}

impl Volume {
    pub fn new(
        id: VolumeId,
        site: SiteId,
        disk: Arc<SimDisk>,
        model: Arc<CostModel>,
        counters: Arc<Counters>,
        events: Arc<EventLog>,
    ) -> Self {
        let journal = Journal::new(disk.clone());
        Volume {
            id,
            site,
            disk,
            model,
            counters,
            events,
            state: Mutex::new(VolState::default()),
            next_inode: AtomicU32::new(1),
            journal,
        }
    }

    pub fn id(&self) -> VolumeId {
        self.id
    }

    pub fn site(&self) -> SiteId {
        self.site
    }

    pub fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    fn inode_key(ino: InodeNo) -> String {
        format!("inode/{}", ino.0)
    }

    fn check_fid(&self, fid: Fid) -> Result<InodeNo> {
        if fid.volume != self.id {
            return Err(Error::StaleFid(fid));
        }
        Ok(fid.inode)
    }

    // ----- File lifecycle -------------------------------------------------

    /// Creates an empty file; one inode write.
    pub fn create_file(&self, acct: &mut Account) -> Result<Fid> {
        let ino = InodeNo(self.next_inode.fetch_add(1, Ordering::Relaxed));
        let fid = Fid {
            volume: self.id,
            inode: ino,
        };
        let inode = Inode::new(fid);
        self.disk
            .stable_put(&Self::inode_key(ino), inode.encode(), acct)?;
        self.state.lock().incore.insert(ino, inode);
        Ok(fid)
    }

    /// Brings a file's inode into core: the newer generation of its stable
    /// copy and its commit-journal record, when it has one (the record a
    /// transaction's install left until a later flush or a single-file
    /// commit supersedes it). The one place the journal is read for an
    /// inode; every read, write and grant works from the in-core copy.
    fn load_inode(&self, st: &mut VolState, ino: InodeNo, acct: &mut Account) -> Result<()> {
        if st.incore.contains_key(&ino) {
            return Ok(());
        }
        let fid = Fid {
            volume: self.id,
            inode: ino,
        };
        let bytes = self
            .disk
            .stable_get(&Self::inode_key(ino), acct)
            .ok_or(Error::StaleFid(fid))?;
        let stable = Inode::decode(&bytes)
            .ok_or_else(|| Error::InvalidArgument(format!("corrupt inode {}", ino.0)))?;
        let logged = self.journal.inode_get(fid).and_then(|b| Inode::decode(&b));
        let inode = Inode::newest(Some(stable), logged).expect("the stable copy is there");
        st.incore.insert(ino, inode);
        Ok(())
    }

    /// Visible file length: committed length or any uncommitted extension.
    pub fn len(&self, fid: Fid, acct: &mut Account) -> Result<u64> {
        let ino = self.check_fid(fid)?;
        let mut st = self.state.lock();
        self.load_inode(&mut st, ino, acct)?;
        let committed = st.incore[&ino].len;
        let uncommitted = st.files.get(&ino).map(|f| f.uncommitted_len).unwrap_or(0);
        Ok(committed.max(uncommitted))
    }

    // ----- Buffered data plane --------------------------------------------

    fn page_size(&self) -> usize {
        self.model.page_size
    }

    /// The largest file a volume holds: a page is named by `PageNo(u32)`,
    /// so a file has at most 2^32 of them.
    fn max_file_len(&self) -> u64 {
        (u64::from(u32::MAX) + 1) * self.page_size() as u64
    }

    /// Ensures the page is buffered, reading it from disk when the committed
    /// block exists. Returns whether it was a buffer hit.
    fn ensure_buffer(
        &self,
        st: &mut VolState,
        ino: InodeNo,
        page: PageNo,
        acct: &mut Account,
    ) -> Result<bool> {
        self.load_inode(st, ino, acct)?;
        let fstate = st.files.entry(ino).or_default();
        if fstate.buffers.contains_key(&page) {
            self.counters.buffer_hits();
            acct.cpu_instrs(&self.model, self.model.buffer_hit_instrs);
            return Ok(true);
        }
        self.counters.buffer_misses();
        let phys = st.incore[&ino].page(page);
        let content = match phys {
            Some(p) => self.disk.read(p, acct)?,
            None => vec![0u8; self.page_size()],
        };
        let fstate = st.files.entry(ino).or_default();
        // Evict clean buffers beyond the cap (LRU approximated by BTreeMap
        // order; dirty buffers are never evicted — they hold uncommitted
        // record data that exists nowhere else).
        if fstate.buffers.len() >= FILE_BUFFER_CAP {
            let victim = fstate
                .buffers
                .iter()
                .find(|(_, b)| !b.is_dirty())
                .map(|(p, _)| *p);
            if let Some(v) = victim {
                fstate.buffers.remove(&v);
            }
        }
        fstate.buffers.insert(page, PageBuf::clean(content));
        Ok(false)
    }

    /// Reads `range`, clipped to the visible length. Uncommitted data is
    /// visible (Section 5: uncommitted changes "are generally visible").
    /// Copies whole page slices at a time; bytes past a buffer's
    /// materialized length read as zero.
    pub fn read(&self, fid: Fid, range: ByteRange, acct: &mut Account) -> Result<Vec<u8>> {
        let ino = self.check_fid(fid)?;
        let mut st = self.state.lock();
        self.load_inode(&mut st, ino, acct)?;
        let clipped = Self::visible_part(&st, ino, range);
        let ps = self.page_size();
        let mut out = vec![0u8; clipped.len as usize];
        for page in clipped.pages(ps) {
            let slice = clipped
                .slice_on_page(page, ps)
                .expect("page yielded by range");
            let page_base = u64::from(page.0) * ps as u64;
            let dst_off = (page_base + slice.start - clipped.start) as usize;
            self.ensure_buffer(&mut st, ino, page, acct)?;
            let dst = &mut out[dst_off..dst_off + slice.len as usize];
            copy_out(&st.files[&ino].buffers[&page].current, slice, dst);
        }
        Ok(out)
    }

    /// `range` clipped to the visible length (empty past it). The inode must
    /// be loaded.
    fn visible_part(st: &VolState, ino: InodeNo, range: ByteRange) -> ByteRange {
        let visible = st.incore[&ino]
            .len
            .max(st.files.get(&ino).map(|f| f.uncommitted_len).unwrap_or(0));
        let end = range.end().min(visible);
        ByteRange::new(range.start, end.saturating_sub(range.start))
    }

    /// `slice` (page-relative) of `page`, buffered first, as page data: one
    /// copy straight out of the buffer unless it runs past the buffer's
    /// materialized length, where the bytes read as zero.
    fn page_image(
        &self,
        st: &mut VolState,
        ino: InodeNo,
        page: PageNo,
        slice: ByteRange,
        acct: &mut Account,
    ) -> Result<PageData> {
        self.ensure_buffer(st, ino, page, acct)?;
        let current = &st.files[&ino].buffers[&page].current;
        Ok(
            match current.get(slice.start as usize..slice.end() as usize) {
                Some(bytes) => PageData::from(bytes),
                None => {
                    let mut bytes = vec![0u8; slice.len as usize];
                    copy_out(current, slice, &mut bytes);
                    PageData::new(bytes)
                }
            },
        )
    }

    /// Whether anybody's uncommitted bytes are on `page`, and whether an
    /// owner other than `owner`'s are.
    fn page_writers(st: &VolState, ino: InodeNo, page: PageNo, owner: Owner) -> (bool, bool) {
        st.files
            .get(&ino)
            .and_then(|f| f.buffers.get(&page))
            .into_iter()
            .flat_map(|b| &b.writers)
            .filter(|(_, rs)| rs.iter().any(|r| !r.is_empty()))
            .fold((false, false), |(_, foreign), (o, _)| {
                (true, foreign || *o != owner)
            })
    }

    /// Every page reply a remote reader gets: `window` (a read's range or a
    /// shared grant's ship window), clipped to the visible length, page by
    /// page, to a requester that holds install version `have[i]` of the
    /// window's `i`-th page (0: holds nothing). A page still at that version
    /// with nobody's uncommitted bytes on it is [`GrantPage::Current`]:
    /// neither read nor shipped, charged a buffer hit's instructions. Every
    /// other page is read as [`Volume::read`] reads it and shipped with its
    /// install version — or [`Volume::VERS_UNCACHEABLE`] when an owner other
    /// than `owner` has uncommitted bytes on it, whose later abort could
    /// revert bytes the reader legitimately saw — and whether it is clean.
    /// Also returns the file's *committed* length.
    pub fn read_grant(
        &self,
        fid: Fid,
        owner: Owner,
        window: ByteRange,
        have: &[u64],
        acct: &mut Account,
    ) -> Result<(u64, Vec<GrantPage>)> {
        let ino = self.check_fid(fid)?;
        let mut st = self.state.lock();
        self.load_inode(&mut st, ino, acct)?;
        let clipped = Self::visible_part(&st, ino, window);
        let ps = self.page_size();
        let mut out = Vec::new();
        for (page, held) in clipped
            .pages(ps)
            .zip(have.iter().chain(std::iter::repeat(&0)))
        {
            let (dirty, foreign) = Self::page_writers(&st, ino, page, owner);
            let vers = st.incore[&ino].page_version(page);
            if !dirty && *held != 0 && *held == vers {
                acct.cpu_instrs(&self.model, self.model.buffer_hit_instrs);
                out.push(GrantPage::Current);
                continue;
            }
            let slice = clipped
                .slice_on_page(page, ps)
                .expect("page yielded by range");
            out.push(GrantPage::Shipped {
                vers: if foreign {
                    Self::VERS_UNCACHEABLE
                } else {
                    vers
                },
                clean: !dirty,
                data: self.page_image(&mut st, ino, page, slice, acct)?,
            });
        }
        Ok((st.incore[&ino].len, out))
    }

    /// Install-version sentinel in [`Volume::read_grant`] output: "do not
    /// cache this page".
    pub const VERS_UNCACHEABLE: u64 = u64::MAX;

    /// Writes `data` at `range.start` on behalf of `owner`; extends the
    /// (uncommitted) length as needed. Returns the new visible length.
    pub fn write(
        &self,
        fid: Fid,
        owner: Owner,
        range: ByteRange,
        data: &[u8],
        acct: &mut Account,
    ) -> Result<u64> {
        if range.len as usize != data.len() {
            return Err(Error::InvalidArgument("write length mismatch".into()));
        }
        let ino = self.check_fid(fid)?;
        let ps = self.page_size();
        // Refused here, before `pages` forms a number that does not fit.
        let max_len = self.max_file_len();
        if range.checked_end().is_none_or(|end| end > max_len) {
            return Err(Error::InvalidArgument(format!(
                "write at {}+{} runs past the largest file a volume holds ({max_len} bytes)",
                range.start, range.len
            )));
        }
        let mut st = self.state.lock();
        self.load_inode(&mut st, ino, acct)?;
        for page in range.pages(ps) {
            self.ensure_buffer(&mut st, ino, page, acct)?;
            let slice = range.slice_on_page(page, ps).expect("page from range");
            let page_base = u64::from(page.0) * ps as u64;
            let src_off = (page_base + slice.start - range.start) as usize;
            let fstate = st.files.get_mut(&ino).expect("ensured above");
            let buf = fstate.buffers.get_mut(&page).expect("ensured above");
            buf.write(owner, slice, &data[src_off..src_off + slice.len as usize]);
        }
        let fstate = st.files.entry(ino).or_default();
        fstate.uncommitted_len = fstate.uncommitted_len.max(range.end());
        let endmark = fstate.writer_ends.entry(owner).or_insert(0);
        *endmark = (*endmark).max(range.end());
        let committed = st.incore[&ino].len;
        let fstate = st.files.get(&ino).expect("present");
        Ok(committed.max(fstate.uncommitted_len))
    }

    /// Uncommitted modifications by owners *other than* `except` overlapping
    /// `range` (absolute coordinates). Drives Section 3.3 rule 2.
    pub fn uncommitted_mods_overlapping(
        &self,
        fid: Fid,
        range: ByteRange,
        except: Owner,
    ) -> Vec<(Owner, ByteRange)> {
        let Ok(ino) = self.check_fid(fid) else {
            return Vec::new();
        };
        let ps = self.page_size() as u64;
        let st = self.state.lock();
        let Some(fstate) = st.files.get(&ino) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (page, buf) in &fstate.buffers {
            let base = u64::from(page.0) * ps;
            for (owner, ranges) in &buf.writers {
                if *owner == except {
                    continue;
                }
                for r in ranges {
                    let abs = ByteRange::new(base + r.start, r.len);
                    if abs.overlaps(&range) {
                        out.push((*owner, abs.intersection(&range).expect("overlaps")));
                    }
                }
            }
        }
        out
    }

    /// Transfers ownership of non-transaction uncommitted modifications in
    /// `range` to `to` (Section 3.3 rule 2 adoption). Returns adopted
    /// absolute ranges.
    pub fn adopt(&self, fid: Fid, range: ByteRange, to: Owner) -> Vec<ByteRange> {
        let Ok(ino) = self.check_fid(fid) else {
            return Vec::new();
        };
        let ps = self.page_size() as u64;
        let mut st = self.state.lock();
        let Some(fstate) = st.files.get_mut(&ino) else {
            return Vec::new();
        };
        let mut adopted = Vec::new();
        let mut max_end = 0;
        for (page, buf) in fstate.buffers.iter_mut() {
            let base = u64::from(page.0) * ps;
            let Some(local) = range.slice_on_page(*page, ps as usize) else {
                continue;
            };
            for r in buf.adopt(local, to) {
                let abs = ByteRange::new(base + r.start, r.len);
                max_end = max_end.max(abs.end());
                adopted.push(abs);
            }
        }
        if !adopted.is_empty() {
            let endmark = fstate.writer_ends.entry(to).or_insert(0);
            *endmark = (*endmark).max(max_end);
        }
        adopted
    }

    /// Whether `owner` has uncommitted modifications on the file.
    pub fn owner_dirty(&self, fid: Fid, owner: Owner) -> bool {
        let Ok(ino) = self.check_fid(fid) else {
            return false;
        };
        let st = self.state.lock();
        st.files
            .get(&ino)
            .map(|f| f.buffers.values().any(|b| b.written_by(owner)))
            .unwrap_or(false)
    }

    // ----- Record commit: prepare / commit / abort -------------------------

    /// Phase-one flush for one owner's changes to one file: writes each
    /// modified page to a shadow block (differencing when other owners share
    /// the page) and returns the intentions list. The list is remembered
    /// until [`Volume::commit_prepared`] or [`Volume::abort_owner`].
    pub fn prepare(&self, fid: Fid, owner: Owner, acct: &mut Account) -> Result<IntentionsList> {
        let ino = self.check_fid(fid)?;
        let mut st = self.state.lock();
        self.load_inode(&mut st, ino, acct)?;
        let committed_len = st.incore[&ino].len;
        let st = &mut *st;
        let fstate = st.files.entry(ino).or_default();
        if let Some(existing) = fstate.prepared.get(&owner) {
            // Idempotent: duplicate prepare messages may arrive during
            // recovery (Section 4.4); the same intentions are returned.
            return Ok(existing.clone());
        }
        let new_len = committed_len.max(fstate.writer_ends.get(&owner).copied().unwrap_or(0));
        let mut il = IntentionsList::new(fid, new_len);
        let pages: Vec<PageNo> = fstate
            .buffers
            .iter()
            .filter(|(_, b)| b.written_by(owner))
            .map(|(p, _)| *p)
            .collect();
        for page in pages {
            let buf = fstate.buffers.get(&page).expect("listed above");
            let (image, diffed, moved) = buf
                .commit_image(owner)
                .expect("page listed as written by owner");
            if diffed {
                // Figure 4b: "a copy of the previous version of the page is
                // re-read from non-volatile storage, the record(s) of
                // interest are transferred to that page". The re-read is
                // charged (the paper's own Figure 6 overlap latencies show
                // the extra I/O); the merge itself works from the in-memory
                // base snapshot, which is byte-identical to the stable page,
                // so only the I/O is charged — no block is materialized.
                if st.incore[&ino].page(page).is_some() {
                    self.disk.charge_io(acct, IoKind::Read);
                    if self.disk.tripped() {
                        return Err(locus_types::Error::DiskOffline);
                    }
                }
                acct.cpu_instrs(&self.model, self.model.diff_instrs(moved));
                acct.pages_differenced += 1;
                self.counters.pages_committed_diff();
                self.events.push(Event::PageDiffed { fid, page });
            } else {
                self.counters.pages_committed_direct();
                self.events.push(Event::PageDirect { fid, page });
            }
            let shadow = self.disk.alloc(acct)?;
            self.disk.write(shadow, &image, acct)?;
            // Remember which stable block the image was built against and
            // which bytes this owner wrote, so a concurrently prepared
            // commit of the same page (allowed: record locks are
            // byte-granular) can be merged at install time instead of
            // being clobbered by this stale image.
            il.entries.push(IntentionsEntry {
                page,
                new_phys: shadow,
                old_phys: st.incore[&ino].page(page),
                old_vers: st.incore[&ino].page_version(page),
                ranges: buf.writers.get(&owner).cloned().unwrap_or_default(),
            });
        }
        fstate.prepared.insert(owner, il.clone());
        Ok(il)
    }

    /// Phase-two commit of a previously prepared owner: installs the
    /// intentions list (see [`Volume::install_intentions`]; an owner outside
    /// any transaction gets the single-file commit's inode write), frees
    /// replaced blocks once the new inode is durable, and folds the owner's
    /// changes into the committed base. Returns the installed list (empty
    /// for a read-only participant) so the kernel can push the committed
    /// pages to replicas.
    pub fn commit_prepared(
        &self,
        fid: Fid,
        owner: Owner,
        acct: &mut Account,
    ) -> Result<IntentionsList> {
        self.commit_owner(fid, owner, owner.trans_id(), acct)
    }

    fn commit_owner(
        &self,
        fid: Fid,
        owner: Owner,
        settles: Option<TransId>,
        acct: &mut Account,
    ) -> Result<IntentionsList> {
        let ino = self.check_fid(fid)?;
        let il = {
            let mut st = self.state.lock();
            let fstate = st.files.entry(ino).or_default();
            match fstate.prepared.remove(&owner) {
                Some(il) => il,
                // Read-only participant: nothing to install.
                None => return Ok(IntentionsList::new(fid, 0)),
            }
        };
        if let Err(e) = self.install(&il, Some(owner), settles, acct) {
            // Put the intentions back: a failed install (the disk died
            // mid-commit) must stay retryable. Losing the volatile copy
            // here would make the coordinator's retry look like a
            // read-only participant and acknowledge a commit that never
            // reached non-volatile storage.
            self.state
                .lock()
                .files
                .entry(ino)
                .or_default()
                .prepared
                .insert(owner, il);
            return Err(e);
        }
        Ok(il)
    }

    /// Combined prepare + commit: the *single-file commit* used for normal
    /// (non-transaction) file updates — the default Locus operating mode.
    /// Its inode write is its commit point, so it goes straight to the
    /// stable store.
    pub fn commit_file(
        &self,
        fid: Fid,
        owner: Owner,
        acct: &mut Account,
    ) -> Result<IntentionsList> {
        // Journal truncations are lazy; this install may rewrite pages named
        // by a record whose truncation is still buffered. Flush first (free
        // when the tail is empty) so a crash cannot resurface a record that
        // this commit supersedes — replaying one would clobber these writes.
        self.log_barrier(acct)?;
        self.prepare(fid, owner, acct)?;
        self.commit_owner(fid, owner, None, acct)
    }

    /// Installs the intentions list of `tid`'s prepare record for one file
    /// — phase two, or its redo by recovery, when the volatile prepared list
    /// is gone and only the logged list remains.
    ///
    /// The install is a journal record: the file's whole inode, in one
    /// append with the truncation of the prepare record it settles, made
    /// while the transaction still holds its locks. It is never forced
    /// here: it rides the journal's next force, and [`Volume::landed`] says
    /// when it is durable.
    pub fn install_intentions(
        &self,
        tid: TransId,
        il: &IntentionsList,
        acct: &mut Account,
    ) -> Result<()> {
        self.install(il, None, Some(tid), acct)
    }

    /// The one install: `owner` is `None` when the volatile buffer state is
    /// gone; `settles` names the transaction whose prepare record the
    /// install settles, and is `None` for the single-file commit, which
    /// overwrites the stable inode instead.
    fn install(
        &self,
        il: &IntentionsList,
        owner: Option<Owner>,
        settles: Option<TransId>,
        acct: &mut Account,
    ) -> Result<()> {
        let span = VirtSpan::begin(SpanPhase::Install, acct);
        let res = self.install_inner(il, owner, settles, acct);
        span.finish(&self.counters.spans, &self.model, acct);
        res
    }

    fn install_inner(
        &self,
        il: &IntentionsList,
        owner: Option<Owner>,
        settles: Option<TransId>,
        acct: &mut Account,
    ) -> Result<()> {
        let ino = self.check_fid(il.fid)?;
        let mut st = self.state.lock();
        self.load_inode(&mut st, ino, acct)?;
        let inode = st.incore.get_mut(&ino).expect("loaded above");
        // Nothing to install (a read-only participant), or an idempotent
        // re-install: a duplicate Commit, a retry after a failed force, or a
        // replay from a prepare record whose truncation was still buffered
        // in the journal tail at crash time, presents intentions that are
        // already installed. Re-applying would free the replaced blocks a
        // second time — blocks that may since have been reallocated. The
        // prepare record is settled all the same. The in-core inode may be
        // ahead of the platters: whether the install has landed is the
        // journal's to say (`Volume::landed`), not this path's.
        let nothing = il.entries.is_empty() && il.new_len == inode.len;
        if nothing || installed(inode, il) {
            if let (Some(o), Some(f)) = (owner, st.files.get_mut(&ino)) {
                f.writer_ends.remove(&o);
            }
            drop(st);
            if let Some(tid) = settles {
                self.journal.prepare_delete(tid, il.fid, acct)?;
            }
            return Ok(());
        }
        // Figure 4b's commit-time half: when the page moved since the shadow
        // image was built (a concurrently prepared owner committed it in the
        // interim — possible because record locks are byte-granular), the
        // "previous version of the page is re-read from non-volatile
        // storage" and only this owner's ranges are transferred onto it.
        // Installing the stale image wholesale would silently undo the
        // interleaved commit; seen in practice when crash recovery installs
        // several surviving prepare logs against the same page. Staleness
        // is judged by the inode's per-page install counter: the block
        // number alone is ambiguous, because an interim install frees the
        // old block and a later prepare's shadow allocation can recycle the
        // same number — an in-doubt transaction resolved after a
        // coordinator crash would then skip the merge and wipe every
        // record committed in between.
        for ent in &il.entries {
            let current = inode.page(ent.page);
            if ent.ranges.is_empty()
                || (current == ent.old_phys && inode.page_version(ent.page) == ent.old_vers)
            {
                continue;
            }
            let Some(cur_phys) = current else { continue };
            let mut merged = self.disk.read(cur_phys, acct)?;
            let img = self.disk.read(ent.new_phys, acct)?;
            if merged.len() < img.len() {
                merged.resize(img.len(), 0);
            }
            let mut moved = 0u64;
            for r in &ent.ranges {
                let (s, e) = (r.start as usize, (r.end() as usize).min(img.len()));
                if s < e {
                    merged[s..e].copy_from_slice(&img[s..e]);
                    moved += (e - s) as u64;
                }
            }
            acct.cpu_instrs(&self.model, self.model.diff_instrs(moved));
            acct.pages_differenced += 1;
            self.disk.write(ent.new_phys, &merged, acct)?;
        }
        let mut freed = inode.apply(il);
        freed.extend(inode.trim_to(self.page_size()));
        let bytes = inode.encode();
        match settles {
            Some(tid) => self.journal.inode_put(il.fid, bytes, tid, freed, acct)?,
            None => self.stable_commit(il.fid, bytes, freed, acct)?,
        }
        self.events.push(Event::FileCommit {
            fid: il.fid,
            tid: owner.and_then(|o| o.trans_id()),
        });
        let committed_len = st.incore[&ino].len;
        if let Some(fstate) = st.files.get_mut(&ino) {
            if let Some(o) = owner {
                for ent in &il.entries {
                    if let Some(buf) = fstate.buffers.get_mut(&ent.page) {
                        buf.finish_commit(o);
                    }
                }
                fstate.writer_ends.remove(&o);
            } else {
                // Recovery path: buffers (if any) are stale; drop them.
                for ent in &il.entries {
                    fstate.buffers.remove(&ent.page);
                }
            }
            let writers_max = fstate.writer_ends.values().copied().max().unwrap_or(0);
            fstate.uncommitted_len = writers_max.max(committed_len);
        }
        Ok(())
    }

    /// The atomic overwrite of the stable inode — one random I/O, and the
    /// commit point of a single-file commit or a replica install — then the
    /// frees it makes safe, and a lazy truncation of the file's journal
    /// record, which the new generation supersedes.
    fn stable_commit(
        &self,
        fid: Fid,
        inode: Vec<u8>,
        freed: Vec<PhysPage>,
        acct: &mut Account,
    ) -> Result<()> {
        self.disk
            .stable_put(&Self::inode_key(fid.inode), inode, acct)?;
        for p in freed {
            self.disk.free(p);
        }
        self.journal.inode_delete(fid, acct)
    }

    /// Whether `il` is installed already: the file's inode maps every page
    /// it names to the new block. A prepare record whose truncation was lost
    /// with the journal's volatile tail outlives its install, and the blocks
    /// it names are then live.
    pub fn intentions_installed(&self, il: &IntentionsList, acct: &mut Account) -> bool {
        let Ok(ino) = self.check_fid(il.fid) else {
            return false;
        };
        let mut st = self.state.lock();
        self.load_inode(&mut st, ino, acct).is_ok() && installed(&st.incore[&ino], il)
    }

    /// Rolls back every uncommitted change by `owner` on `fid`: frees any
    /// prepared shadow blocks and reverts the buffered pages (differencing
    /// rollback when other owners share a page).
    pub fn abort_owner(&self, fid: Fid, owner: Owner, acct: &mut Account) -> Result<()> {
        let ino = self.check_fid(fid)?;
        let mut st = self.state.lock();
        let Some(fstate) = st.files.get_mut(&ino) else {
            return Ok(());
        };
        if let Some(il) = fstate.prepared.remove(&owner) {
            for p in il.new_pages() {
                self.disk.free(p);
            }
        }
        let mut any = false;
        for buf in fstate.buffers.values_mut() {
            let (rolled, moved) = buf.abort(owner);
            if rolled {
                any = true;
                self.counters.pages_rolled_back();
                if moved > 0 {
                    acct.cpu_instrs(&self.model, self.model.diff_instrs(moved));
                }
            }
        }
        fstate.writer_ends.remove(&owner);
        let committed_len = st.incore.get(&ino).map(|i| i.len).unwrap_or(0);
        let fstate = st.files.get_mut(&ino).expect("present");
        let writers_max = fstate.writer_ends.values().copied().max().unwrap_or(0);
        fstate.uncommitted_len = writers_max.max(committed_len);
        if any {
            self.events.push(Event::FileAbort { fid });
        }
        Ok(())
    }

    /// Installs committed images pushed (or pulled) from the primary update
    /// site (replica refresh, Section 5.2). Each image arrives with the
    /// primary's per-page install counter; the replica *adopts* those
    /// counters verbatim — rather than bumping its own — so version
    /// comparisons stay meaningful across sites, and it skips any page whose
    /// local counter is already at or past the incoming one (a duplicated or
    /// reordered push must not reinstall older bytes). Writes each fresh
    /// page to a newly allocated block and atomically overwrites the stable
    /// inode, exactly like a single-file commit.
    pub fn replica_install(
        &self,
        fid: Fid,
        new_len: u64,
        pages: &[(PageNo, u64, PageData)],
        acct: &mut Account,
    ) -> Result<()> {
        let ino = self.check_fid(fid)?;
        // The length and the page numbers come off the wire: a well-formed
        // message may still name a file no `write` could have produced.
        let max_len = self.max_file_len();
        if new_len > max_len {
            return Err(Error::InvalidArgument(format!(
                "replica image of {fid} is {new_len} bytes, past the largest file a volume holds ({max_len} bytes)"
            )));
        }
        if self.disk.stable_peek(&Self::inode_key(ino)).is_none() {
            // First replica copy: materialize an empty inode.
            let inode = Inode::new(fid);
            self.disk
                .stable_put(&Self::inode_key(ino), inode.encode(), acct)?;
            self.state.lock().incore.insert(ino, inode);
        }
        // Same rule as `commit_file`: buffered truncations must be durable
        // before an install that is invisible to the journal frees blocks.
        self.log_barrier(acct)?;
        let mut st = self.state.lock();
        self.load_inode(&mut st, ino, acct)?;
        let inode = st.incore.get_mut(&ino).expect("loaded above");
        // Refused before a block is allocated or the page table is sized by
        // a page number: every image lies inside the file it belongs to.
        let page_limit = inode.len.max(new_len).div_ceil(self.page_size() as u64);
        if let Some((page, ..)) = pages.iter().find(|(p, ..)| u64::from(p.0) >= page_limit) {
            return Err(Error::InvalidArgument(format!(
                "replica image of {fid} carries page {} of a {page_limit}-page file",
                page.0
            )));
        }
        let mut fresh: Vec<(PageNo, u64, PhysPage)> = Vec::new();
        for (page, vers, data) in pages {
            if *vers <= inode.page_version(*page) {
                continue;
            }
            let blk = self.disk.alloc(acct)?;
            self.disk.write(blk, data, acct)?;
            fresh.push((*page, *vers, blk));
        }
        if fresh.is_empty() && new_len <= inode.len {
            return Ok(());
        }
        let mut freed = Vec::new();
        for (page, vers, blk) in &fresh {
            let idx = page.0 as usize;
            if inode.pages.len() <= idx {
                inode.pages.resize(idx + 1, None);
            }
            if inode.vers.len() <= idx {
                inode.vers.resize(idx + 1, 0);
            }
            if let Some(old) = inode.pages[idx] {
                freed.push(old);
            }
            inode.pages[idx] = Some(*blk);
            inode.vers[idx] = *vers;
        }
        inode.len = inode.len.max(new_len);
        inode.gen += 1;
        freed.extend(inode.trim_to(self.page_size()));
        let bytes = inode.encode();
        self.stable_commit(fid, bytes, freed, acct)?;
        self.events.push(Event::FileCommit { fid, tid: None });
        let committed_len = st.incore[&ino].len;
        if let Some(fstate) = st.files.get_mut(&ino) {
            // Any buffered copies of the installed pages are stale.
            for (page, _, _) in &fresh {
                fstate.buffers.remove(page);
            }
            let writers_max = fstate.writer_ends.values().copied().max().unwrap_or(0);
            fstate.uncommitted_len = writers_max.max(committed_len);
        }
        Ok(())
    }

    /// The per-page install counters of the committed inode, for building a
    /// catch-up pull request. Empty when the file has no durable copy here
    /// yet (the pull then fetches everything).
    pub fn replica_versions(&self, fid: Fid, acct: &mut Account) -> Vec<u64> {
        let Ok(ino) = self.check_fid(fid) else {
            return Vec::new();
        };
        let mut st = self.state.lock();
        if self.load_inode(&mut st, ino, acct).is_err() {
            return Vec::new();
        }
        st.incore[&ino].vers.clone()
    }

    /// Serves a catch-up pull at the primary: committed images of every page
    /// whose install counter differs from the puller's (`have`, covering
    /// pages `start .. start + have.len()`), plus — when `tail` is set —
    /// every committed page past that window. Reads the committed physical
    /// blocks directly, so uncommitted writer buffers never leak into a
    /// replica. Returns the committed length and the page triples.
    pub fn pull_pages(
        &self,
        fid: Fid,
        start: PageNo,
        have: &[u64],
        tail: bool,
        acct: &mut Account,
    ) -> Result<(u64, Vec<PulledPage>)> {
        let ino = self.check_fid(fid)?;
        let mut st = self.state.lock();
        self.load_inode(&mut st, ino, acct)?;
        let inode = &st.incore[&ino];
        let committed_len = inode.len;
        let count = inode.page_count(self.page_size()) as usize;
        let from = start.0 as usize;
        let mut wanted = Vec::new();
        for (i, theirs) in have.iter().enumerate() {
            let idx = from + i;
            if idx >= count {
                break;
            }
            let page = PageNo(idx as u32);
            let ours = inode.page_version(page);
            if ours != *theirs && ours > 0 {
                wanted.push(page);
            }
        }
        if tail {
            for idx in (from + have.len()).max(from)..count {
                let page = PageNo(idx as u32);
                if inode.page_version(page) > 0 {
                    wanted.push(page);
                }
            }
        }
        let mut out = Vec::with_capacity(wanted.len());
        for page in wanted {
            let Some(phys) = st.incore[&ino].page(page) else {
                continue;
            };
            let mut bytes = self.disk.read(phys, acct)?;
            let ps = self.page_size();
            if bytes.len() < ps {
                bytes.resize(ps, 0);
            }
            out.push((
                page,
                st.incore[&ino].page_version(page),
                PageData::new(bytes),
            ));
        }
        Ok((committed_len, out))
    }

    /// Committed content of the pages named by an intentions list, for
    /// pushing to replicas after a commit. Reads via the buffer cache;
    /// each image is tagged with its post-install version so the replica
    /// adopts the primary's counters.
    pub fn committed_pages(
        &self,
        fid: Fid,
        pages: &[PageNo],
        acct: &mut Account,
    ) -> Result<Vec<(PageNo, u64, PageData)>> {
        let ino = self.check_fid(fid)?;
        let mut st = self.state.lock();
        self.load_inode(&mut st, ino, acct)?;
        let mut out = Vec::with_capacity(pages.len());
        for page in pages {
            self.ensure_buffer(&mut st, ino, *page, acct)?;
            // The committed image is the buffer's base (uncommitted writers
            // may still be present on the page). One copy into a shared
            // buffer here; fanning out to N replicas clones the handle.
            let vers = st.incore[&ino].page_version(*page);
            let buf = &st.files[&ino].buffers[page];
            out.push((*page, vers, PageData::new(buf.committed().to_vec())));
        }
        Ok(out)
    }

    // ----- Per-volume transaction logs (the commit journal) -----------------
    //
    // Log records live in the volume's append-only journal region as typed,
    // sequence-numbered entries (`locus_types::JournalEntry`); appends are
    // buffered and become durable at the next [`Volume::log_barrier`], which
    // flushes the whole batch in one sequential transfer (group commit).
    // Reads are served from the journal's in-core materialized view but stay
    // charged like the old per-record stable reads, so recovery I/O counts
    // keep their Figure 5 parity.

    /// Appends a coordinator log record to the commit journal. Buffered —
    /// no I/O is charged here; the record becomes durable (and the cost is
    /// paid) at the next log barrier. A record born `Committed` (a
    /// delegate's, which logs nothing before its decision) is the commit
    /// point itself, forced and announced as [`Volume::coord_log_set_status`]
    /// forces and announces a status delta.
    pub fn coord_log_put(&self, rec: &CoordLogRecord, acct: &mut Account) -> Result<()> {
        self.journal.coord_put(rec, acct)?;
        self.events.push(Event::CoordLog {
            site: self.site,
            tid: rec.tid,
            status: rec.status,
        });
        self.mark_if_committed(rec.tid, rec.status, acct)
    }

    fn mark_if_committed(&self, tid: TransId, status: TxnStatus, acct: &mut Account) -> Result<()> {
        if status == TxnStatus::Committed {
            self.log_barrier(acct)?;
            self.events.push(Event::CommitMark { tid });
        }
        Ok(())
    }

    /// Appends a status delta for a coordinator log record. For
    /// `Committed` this *is* the commit point (Section 4.2): the delta —
    /// and, via group commit, every other buffered entry ahead of it — is
    /// flushed durably in one barrier before the commit mark is announced.
    /// On the coordinator's home volume "every other buffered entry" is
    /// most of the transaction: its own `Unknown` record, the prepare
    /// records of its files on this volume (a local vote is not forced
    /// separately), and the lazy truncations of earlier transactions.
    pub fn coord_log_set_status(
        &self,
        tid: TransId,
        status: TxnStatus,
        acct: &mut Account,
    ) -> Result<()> {
        self.coord_log_note_status(tid, status, acct)?;
        self.mark_if_committed(tid, status, acct)
    }

    /// Appends a status delta for a coordinator log record, never forced: a
    /// note of an outcome decided elsewhere — a recovery or topology
    /// rewrite, or a delegate among peers learning the commit their votes
    /// made — that recovery can learn again if it is lost.
    pub fn coord_log_note_status(
        &self,
        tid: TransId,
        status: TxnStatus,
        acct: &mut Account,
    ) -> Result<()> {
        self.journal.coord_set_status(tid, status, acct)?;
        self.events.push(Event::CoordLog {
            site: self.site,
            tid,
            status,
        });
        Ok(())
    }

    /// Reads a coordinator log record (recovery inquiry). One read charged,
    /// as for the old per-record stable fetch.
    pub fn coord_log_get(&self, tid: TransId, acct: &mut Account) -> Option<CoordLogRecord> {
        self.disk.charge_io(acct, IoKind::Read);
        if self.disk.tripped() {
            return None;
        }
        self.journal.coord_get(tid)
    }

    /// Truncates a coordinator log once all commit/abort processing finished
    /// (Section 4.4: logs "are retained until all commit or abort processing
    /// has successfully completed"). Lazy: the truncation entry rides the
    /// next flush — a purge lost to a crash is harmless, recovery
    /// re-resolves the transaction from the surviving record and purges
    /// again.
    pub fn coord_log_delete(&self, tid: TransId, acct: &mut Account) {
        let _ = self.journal.coord_delete(tid, acct);
    }

    /// All coordinator log records on this volume (reboot recovery scan);
    /// one read charged per record.
    pub fn coord_log_scan(&self, acct: &mut Account) -> Vec<CoordLogRecord> {
        if self.disk.tripped() {
            return Vec::new();
        }
        let recs = self.journal.coord_scan();
        for _ in &recs {
            self.disk.charge_io(acct, IoKind::Read);
        }
        recs
    }

    /// Appends a participant prepare log record for one file. Buffered; the
    /// participant flushes once, via [`Volume::log_barrier`], before voting
    /// yes — N files, one barrier — unless this journal is the one that
    /// will carry the commit mark, whose flush then covers the record.
    pub fn prepare_log_put(&self, rec: &PrepareLogRecord, acct: &mut Account) -> Result<()> {
        self.journal.prepare_put(rec, acct)?;
        self.events.push(Event::PrepareLog {
            site: self.site,
            tid: rec.tid,
            fid: rec.intentions.fid,
        });
        Ok(())
    }

    pub fn prepare_log_get(
        &self,
        tid: TransId,
        fid: Fid,
        acct: &mut Account,
    ) -> Option<PrepareLogRecord> {
        self.disk.charge_io(acct, IoKind::Read);
        if self.disk.tripped() {
            return None;
        }
        self.journal.prepare_get(tid, fid)
    }

    /// Truncates a participant prepare log. Lazy like the coordinator-side
    /// purge: recovery tolerates a resurfaced record for an
    /// already-installed commit (the install is idempotent and presumed
    /// abort never frees live blocks), so the commit path need not barrier
    /// the truncation before acknowledging.
    pub fn prepare_log_delete(&self, tid: TransId, fid: Fid, acct: &mut Account) -> Result<()> {
        self.journal.prepare_delete(tid, fid, acct)
    }

    /// All prepare log records on this volume (reboot recovery scan); one
    /// read charged per record.
    pub fn prepare_log_scan(&self, acct: &mut Account) -> Vec<PrepareLogRecord> {
        if self.disk.tripped() {
            return Vec::new();
        }
        let recs = self.journal.prepare_scan();
        for _ in &recs {
            self.disk.charge_io(acct, IoKind::Read);
        }
        recs
    }

    /// Group-commit barrier: makes every buffered journal entry durable in
    /// one sequential flush (free when nothing is buffered). Concurrent
    /// barriers on this volume coalesce into a single flush.
    pub fn log_barrier(&self, acct: &mut Account) -> Result<()> {
        self.journal.barrier(acct)
    }

    /// Whether every frame this volume's journal took for `tid` is durable,
    /// or rides a journal that holds `tid`'s durable `Committed` record:
    /// recovery redoes an install from that record and the prepare record
    /// until both are purged, and the purges are appended after it.
    pub fn landed(&self, tid: TransId) -> bool {
        self.journal.landed(tid) || self.journal.holds_durable_commit(tid)
    }

    /// The volume's commit journal (group-window tuning, flush statistics).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The prepare records reconstructible from durable journal frames alone
    /// — the durability oracle's view of the prepare log.
    pub fn durable_prepare_records(&self) -> Vec<PrepareLogRecord> {
        self.journal.durable_prepare_records()
    }

    /// The coordinator records reconstructible from durable journal frames
    /// alone — a durable `Committed` status is the commit point even if the
    /// coordinator died before announcing it.
    pub fn durable_coord_records(&self) -> Vec<CoordLogRecord> {
        self.journal.durable_coord_records()
    }

    /// Reads `range` of the *durably committed* file image straight off the
    /// platters: the durable inode (the newer of the stable copy and the
    /// durable journal record) and each block it names, bypassing every
    /// volatile layer (buffer cache, in-core inodes, the journal's buffered
    /// tail) and charging no I/O. This is the durability oracle's view of
    /// the file — exactly what a fresh reboot could reconstruct without
    /// redoing any install. Returns `None` when the inode is absent or
    /// undecodable.
    pub fn durable_peek(&self, fid: Fid, range: ByteRange) -> Option<Vec<u8>> {
        if fid.volume != self.id {
            return None;
        }
        let stable = self.disk.stable_peek(&Self::inode_key(fid.inode));
        let logged = self
            .journal
            .durable_inode_records()
            .into_iter()
            .find(|(f, _)| *f == fid);
        let inode = Inode::newest(
            stable.and_then(|b| Inode::decode(&b)),
            logged.and_then(|(_, b)| Inode::decode(&b)),
        )?;
        let end = range.end().min(inode.len);
        if range.start >= end {
            return Some(Vec::new());
        }
        let clipped = ByteRange::new(range.start, end - range.start);
        let ps = self.page_size();
        let mut out = vec![0u8; clipped.len as usize];
        for page in clipped.pages(ps) {
            let content = match inode.page(page) {
                Some(p) => self.disk.peek_block(p).unwrap_or_default(),
                None => Vec::new(),
            };
            let slice = clipped.slice_on_page(page, ps).expect("page from range");
            let page_base = u64::from(page.0) * ps as u64;
            let dst_off = (page_base + slice.start - clipped.start) as usize;
            let s = slice.start as usize;
            let e = (slice.start + slice.len) as usize;
            for (i, idx) in (s..e).enumerate() {
                out[dst_off + i] = content.get(idx).copied().unwrap_or(0);
            }
        }
        Some(out)
    }

    // ----- Failure handling -------------------------------------------------

    /// Site crash: all volatile state (buffers, in-core inodes, un-logged
    /// prepares, the journal's in-core view and buffered tail) is lost.
    /// Disk contents survive.
    pub fn crash(&self) {
        self.disk.crash();
        self.journal.crash();
        let mut st = self.state.lock();
        st.incore.clear();
        st.files.clear();
    }

    /// Reboot housekeeping: brings a tripped disk back online, rebuilds the
    /// journal's in-core view by one last-writer-wins scan of the durable
    /// frames, and re-derives the inode allocation cursor from every inode
    /// the volume holds, stable or journaled.
    pub fn reboot(&self) {
        self.disk.reboot();
        self.journal.recover();
        let stable = self
            .disk
            .stable_keys("inode/")
            .into_iter()
            .filter_map(|k| k.strip_prefix("inode/").and_then(|s| s.parse::<u32>().ok()));
        let logged = self
            .journal
            .inode_scan()
            .into_iter()
            .map(|(f, _)| f.inode.0);
        let max = stable.chain(logged).max().unwrap_or(0);
        self.next_inode.store(max + 1, Ordering::Relaxed);
    }

    /// Frees allocated blocks that no inode and no prepare log names —
    /// shadow pages orphaned by a crash between allocation and logging, and
    /// blocks an install replaced whose record landed but whose free died
    /// with the crash. Flushes the journal first, so that every install
    /// recovery has made is durable and no free still waits on a flush:
    /// each inode is then the newer generation of its stable copy and its
    /// durable journal record. Returns the number reclaimed; none when the
    /// disk cannot be read or the journal flushed.
    pub fn scavenge(&self, acct: &mut Account) -> usize {
        if self.log_barrier(acct).is_err() || self.disk.tripped() {
            return 0;
        }
        let mut inodes: BTreeMap<Fid, Inode> = BTreeMap::new();
        for key in self.disk.stable_keys("inode/") {
            if let Some(ino) = self
                .disk
                .stable_get(&key, acct)
                .and_then(|b| Inode::decode(&b))
            {
                inodes.insert(ino.fid, ino);
            }
        }
        for (fid, bytes) in self.journal.inode_scan() {
            let newest = Inode::newest(inodes.remove(&fid), Inode::decode(&bytes));
            inodes.extend(newest.map(|ino| (fid, ino)));
        }
        let mut live = std::collections::HashSet::new();
        for ino in inodes.values() {
            live.extend(ino.pages.iter().flatten().copied());
        }
        for rec in self.prepare_log_scan(acct) {
            live.extend(rec.intentions.new_pages());
        }
        let mut reclaimed = 0;
        for i in 0..self.disk.capacity() as u32 {
            let p = locus_types::PhysPage(i);
            if self.disk.is_allocated(p) && !live.contains(&p) {
                self.disk.free(p);
                reclaimed += 1;
            }
        }
        reclaimed
    }
}

/// Whether `inode` already maps every page of `il` to its new block — the
/// idempotent re-install a duplicate phase two or a resurfaced prepare
/// record presents.
fn installed(inode: &Inode, il: &IntentionsList) -> bool {
    !il.entries.is_empty()
        && il.new_len == inode.len
        && il
            .entries
            .iter()
            .all(|e| inode.page(e.page) == Some(e.new_phys))
}
