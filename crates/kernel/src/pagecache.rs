//! The per-site coherent page cache.
//!
//! The paper's synchronization tokens (Section 5.1) let a site that holds a
//! lock use *local* copies of the locked data without re-contacting the
//! storage site. The lock cache (striped, per-owner) already kills repeat
//! lock RPCs; this cache gives the data path the same treatment: bytes
//! returned by `ReadResp` — the covered pages around the request, see
//! `Kernel::read` — or shipped with a shared grant are kept per
//! `(fid, owner, page)` together with the page's install version, and a
//! later read that is still covered by the owner's cached lock is served
//! entirely locally.
//!
//! Coherence comes from the lock cache acting as the protocol. A page is
//! either *live* (served) or *kept* (retained after its lock went, never
//! served):
//!
//! * **Populate** only under lock coverage (the kernel checks
//!   `LockCache::covers` before inserting) and only for spans within the
//!   file's *committed* length — the committed length is monotone, so a
//!   fully cached range can never be clipped shorter by a later visible-
//!   length shrink (another owner's aborted extension).
//! * **Serve** only live pages, and only under lock coverage. While the
//!   owner's coverage holds, no other owner can write the covered bytes
//!   (enforced locks deny the access), so the cached bytes track the storage
//!   site's current bytes.
//! * **Demote at release.** Where coverage drops — an unlock — a page a grant
//!   shipped *clean* (nobody's uncommitted bytes on it: the committed image
//!   at its install version) is kept, stamped with the storage site's
//!   incarnation (site, boot epoch, the file's replication epoch) and its
//!   install version; every other page is dropped. The stamp's incarnation
//!   is the owner's one per file, so a page carries one flag: a grant
//!   under another incarnation clears it on every live page. At most
//!   [`FILE_BUFFER_CAP`] pages are kept per `(fid, owner)`, the least
//!   recently validated going first, by one index keyed by validation tick.
//! * **Revalidate at grant.** A shared grant's request names the kept pages
//!   of its ship window by install version, and the storage site answers
//!   each with "current" — still that version, under the same incarnation,
//!   nobody's uncommitted bytes on it — or fresh bytes. Only a page named
//!   current is live again; fresh bytes replace it, and a grant under
//!   another incarnation drops every kept page.
//! * **Drop** wherever nothing can vouch for a page any more: close,
//!   process exit, transaction end/abort, explicit file abort, site crash,
//!   and replica install (a push changes committed bytes without any local
//!   lock activity).
//!
//! The owner's *own* writes are handled with a per-`(fid, owner)` write
//! generation instead of in-place patching: a write bumps the generation
//! and drops overlapping pages, live or kept, and an insert is rejected if
//! the generation moved since the read was issued. That closes the race
//! where one thread of a transaction installs a read response that predates
//! another thread's write.
//!
//! Every operation on a range of a file touches only that range: a shard is
//! ordered by `(fid, owner)` and each owner's pages of a file by page, live
//! and kept apart — so the reads of a scan search the few pages it has
//! live, not the file's kept ones.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use locus_fs::volume::{Volume, FILE_BUFFER_CAP};
use locus_net::Held;
use locus_types::{ByteRange, Fid, Owner, PageData, PageNo, SiteId};

/// Stripe count; matches the lock cache so related state shards together.
const SHARDS: usize = 16;

/// The storage-site incarnation a grant shipped a clean page under. With the
/// page's install version it is the page's stamp: a kept copy is current
/// while all four still hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Incarnation {
    pub site: SiteId,
    pub boot_epoch: u64,
    pub repl_epoch: u64,
}

#[derive(Debug, Clone)]
struct PageEntry {
    /// The page's install counter ([`locus_fs` inode `vers`]) at population
    /// time; higher versions win when racing populations collide.
    vers: u64,
    /// Cached span, page-relative.
    span: ByteRange,
    /// The span's bytes (`span.len` of them), shared with whoever produced
    /// them.
    data: PageData,
    /// Whether a grant shipped the page clean under the owner's current
    /// `stamp`: only such a page outlives its lock.
    clean: bool,
    /// The shard's clock when the page was last validated — shipped, or
    /// named current. Unique in the shard: each tick is one validation.
    validated: u64,
}

/// One owner's pages of one file, and what goes with them.
#[derive(Debug, Default)]
struct OwnerPages {
    /// Write generation; see the module docs.
    gen: u64,
    /// The incarnation of the last grant that shipped to this owner; every
    /// kept page, and every live page marked clean, was shipped clean under
    /// it.
    stamp: Option<Incarnation>,
    /// The pages reads are served from.
    live: BTreeMap<PageNo, PageEntry>,
    /// Released pages: kept for a grant to name current, never served. A
    /// page is live or kept, never both.
    kept: BTreeMap<PageNo, PageEntry>,
    /// Every kept page by its validation tick: the first is the least
    /// recently validated.
    by_age: BTreeMap<u64, PageNo>,
}

impl OwnerPages {
    fn keep(&mut self, page: PageNo, e: PageEntry) {
        self.by_age.insert(e.validated, page);
        self.kept.insert(page, e);
    }

    /// Takes `page` out of the kept pages, if it is one.
    fn unkeep(&mut self, page: PageNo) -> Option<PageEntry> {
        let e = self.kept.remove(&page)?;
        self.by_age.remove(&e.validated);
        Some(e)
    }

    /// Drops the least recently validated kept pages past the cap.
    fn evict(&mut self) {
        while self.kept.len() > FILE_BUFFER_CAP {
            let Some((_, page)) = self.by_age.pop_first() else {
                break;
            };
            self.kept.remove(&page);
        }
    }
}

/// The pages of `map` whose bytes overlap `range` (absolute bytes).
fn overlapping(map: &BTreeMap<PageNo, PageEntry>, range: ByteRange, ps: usize) -> Vec<PageNo> {
    let Some(last) = range.last_page(ps) else {
        return Vec::new();
    };
    let first = PageNo(u32::try_from(range.start / ps as u64).unwrap_or(u32::MAX));
    map.range(first..=last)
        .filter(|(p, e)| absolute(**p, e.span, ps).overlaps(&range))
        .map(|(p, _)| *p)
        .collect()
}

/// An entry's bytes as an absolute range of the file.
fn absolute(page: PageNo, span: ByteRange, ps: usize) -> ByteRange {
    ByteRange::new(u64::from(page.0) * ps as u64 + span.start, span.len)
}

#[derive(Default)]
struct Shard {
    /// Every `(fid, owner)` with pages or a write generation: an owner's
    /// pages of a file are ordered runs of their own, so an operation on a
    /// range of them touches that range only.
    owners: BTreeMap<(Fid, Owner), OwnerPages>,
    /// Validation clock.
    clock: u64,
}

impl Shard {
    /// Every `(fid, owner)` the shard knows that `pick` selects.
    fn owners_where(&self, pick: impl Fn(&(Fid, Owner)) -> bool) -> Vec<(Fid, Owner)> {
        self.owners.keys().copied().filter(pick).collect()
    }
}

/// The per-site page cache. All methods are owner-scoped: an entry is only
/// ever served to the owner whose lock coverage justified caching it.
pub struct PageCache {
    shards: Vec<Mutex<Shard>>,
}

impl Default for PageCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PageCache {
    pub fn new() -> Self {
        PageCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    fn shard(&self, fid: Fid) -> &Mutex<Shard> {
        let h = (fid.volume.0 ^ fid.inode.0.wrapping_mul(0x9E37_79B1)) as usize;
        &self.shards[h % SHARDS]
    }

    /// The current write generation for `(fid, owner)`. Snapshot this before
    /// issuing the read whose response you intend to cache.
    pub fn write_gen(&self, fid: Fid, owner: Owner) -> u64 {
        let sh = self.shard(fid).lock();
        sh.owners.get(&(fid, owner)).map_or(0, |o| o.gen)
    }

    /// Records a write by `owner`: bumps the write generation and drops the
    /// owner's pages, live or kept, overlapping `range` (absolute bytes).
    pub fn note_write(&self, fid: Fid, owner: Owner, range: ByteRange, page_size: usize) {
        let mut sh = self.shard(fid).lock();
        let o = sh.owners.entry((fid, owner)).or_default();
        o.gen += 1;
        for page in overlapping(&o.live, range, page_size) {
            o.live.remove(&page);
        }
        for page in overlapping(&o.kept, range, page_size) {
            o.unkeep(page);
        }
    }

    /// Installs `data` for `span` (page-relative) of `page`, unless the
    /// owner's write generation moved past `gen_at_read` since the caller
    /// snapshotted it. Returns whether the entry was installed (or merged).
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &self,
        fid: Fid,
        owner: Owner,
        page: PageNo,
        vers: u64,
        span: ByteRange,
        data: PageData,
        gen_at_read: u64,
    ) -> bool {
        self.insert_shipped(fid, owner, page, vers, span, data, gen_at_read, None)
    }

    /// [`PageCache::insert`] for a page a grant shipped: `clean` is the
    /// incarnation it was shipped under when nobody's uncommitted bytes were
    /// on it, which is what lets it outlive the lock. A same-version merge
    /// is clean only if both halves are.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_shipped(
        &self,
        fid: Fid,
        owner: Owner,
        page: PageNo,
        vers: u64,
        span: ByteRange,
        data: PageData,
        gen_at_read: u64,
        clean: Option<Incarnation>,
    ) -> bool {
        if vers == Volume::VERS_UNCACHEABLE || span.is_empty() || span.len as usize != data.len() {
            return false;
        }
        let mut guard = self.shard(fid).lock();
        let sh = &mut *guard;
        let o = sh.owners.entry((fid, owner)).or_default();
        if o.gen != gen_at_read {
            return false;
        }
        // A kept copy never merges with live bytes: it is replaced.
        o.unkeep(page);
        sh.clock += 1;
        let clean = clean.is_some() && clean == o.stamp;
        let fresh = PageEntry {
            vers,
            span,
            data,
            clean,
            validated: sh.clock,
        };
        match o.live.get_mut(&page) {
            None => {
                o.live.insert(page, fresh);
            }
            Some(e) if e.vers > vers => { /* existing entry is newer */ }
            Some(e) if e.vers < vers || !e.span.mergeable(&span) => *e = fresh,
            Some(e) => {
                // Same version, overlapping or adjacent: merge, the new
                // bytes winning where the spans overlap.
                let merged = e.span.merge(&span);
                let mut buf = vec![0u8; merged.len as usize];
                let old_off = (e.span.start - merged.start) as usize;
                buf[old_off..old_off + e.data.len()].copy_from_slice(&e.data);
                let new_off = (span.start - merged.start) as usize;
                buf[new_off..new_off + fresh.data.len()].copy_from_slice(&fresh.data);
                *e = PageEntry {
                    span: merged,
                    data: PageData::new(buf),
                    clean: e.clean && clean,
                    ..fresh
                };
            }
        }
        true
    }

    /// Serves `range` (absolute bytes) from live pages as a freshly built
    /// buffer, taking the fid's shard lock exactly once (all pages of a fid
    /// hash to the same shard). All-or-nothing: `None` unless every page's
    /// needed slice is cached — so a range longer than the owner's pages put
    /// together (2^62 bytes, say) misses before a buffer is sized.
    pub fn read_vec(
        &self,
        fid: Fid,
        owner: Owner,
        range: ByteRange,
        page_size: usize,
    ) -> Option<Vec<u8>> {
        let sh = self.shard(fid).lock();
        let o = sh.owners.get(&(fid, owner))?;
        if range.len > (o.live.len() * page_size) as u64 {
            return None;
        }
        let mut out = Vec::with_capacity(range.len as usize);
        for page in range.pages(page_size) {
            let slice = range.slice_on_page(page, page_size)?;
            let e = o.live.get(&page)?;
            if !e.span.contains_range(&slice) {
                return None;
            }
            let src_off = (slice.start - e.span.start) as usize;
            out.extend_from_slice(&e.data[src_off..src_off + slice.len as usize]);
        }
        Some(out)
    }

    /// Release of the owner's lock over `range` (absolute bytes): its live
    /// pages overlapping the range stop being served. One a grant shipped
    /// clean under the owner's last incarnation is kept; every other is
    /// dropped. Past [`FILE_BUFFER_CAP`] kept pages the least recently
    /// validated go.
    pub(crate) fn demote(&self, fid: Fid, owner: Owner, range: ByteRange, page_size: usize) {
        let mut sh = self.shard(fid).lock();
        let Some(o) = sh.owners.get_mut(&(fid, owner)) else {
            return;
        };
        for page in overlapping(&o.live, range, page_size) {
            let e = o.live.remove(&page).expect("listed above");
            if e.clean {
                o.keep(page, e);
            }
        }
        o.evict();
    }

    /// What `owner` holds of a grant's ship `window` from `site` under
    /// replication epoch `repl_epoch`: page by page from the window's first,
    /// the install version of a kept copy that lies within the window (0:
    /// none), with the boot epoch they were shipped under. Nothing when the
    /// kept pages came from another site or replication epoch.
    pub(crate) fn held(
        &self,
        fid: Fid,
        owner: Owner,
        site: SiteId,
        repl_epoch: u64,
        window: ByteRange,
        page_size: usize,
    ) -> Held {
        let sh = self.shard(fid).lock();
        let Some((o, stamp)) = sh.owners.get(&(fid, owner)).and_then(|o| {
            let stamp = o
                .stamp
                .filter(|s| s.site == site && s.repl_epoch == repl_epoch)?;
            (!o.kept.is_empty()).then_some((o, stamp))
        }) else {
            return Held {
                repl_epoch,
                ..Held::default()
            };
        };
        let mut have: Vec<u64> = window
            .pages(page_size)
            .map(|page| {
                let slice = window.slice_on_page(page, page_size);
                match o.kept.get(&page) {
                    Some(e) if slice.is_some_and(|s| s.contains_range(&e.span)) => e.vers,
                    _ => 0,
                }
            })
            .collect();
        while have.last() == Some(&0) {
            have.pop();
        }
        Held {
            boot_epoch: stamp.boot_epoch,
            repl_epoch,
            have,
        }
    }

    /// A grant answered under incarnation `inc`: kept pages shipped under
    /// any other can never be named current again, and go; live pages
    /// shipped under it stop being clean.
    pub(crate) fn note_incarnation(&self, fid: Fid, owner: Owner, inc: Incarnation) {
        let mut sh = self.shard(fid).lock();
        let o = sh.owners.entry((fid, owner)).or_default();
        if o.stamp != Some(inc) {
            o.stamp = Some(inc);
            o.kept.clear();
            o.by_age.clear();
            for e in o.live.values_mut() {
                e.clean = false;
            }
        }
    }

    /// A grant named `page` current: the kept copy at install version `vers`
    /// (never 0, which holds nothing) is live again, unless the write
    /// generation moved since `gen_at_read`. Returns whether.
    pub(crate) fn revalidate(
        &self,
        fid: Fid,
        owner: Owner,
        page: PageNo,
        vers: u64,
        gen_at_read: u64,
    ) -> bool {
        let mut guard = self.shard(fid).lock();
        let sh = &mut *guard;
        let Some(o) = sh.owners.get_mut(&(fid, owner)) else {
            return false;
        };
        let at = o.kept.get(&page).map(|e| e.vers);
        if o.gen != gen_at_read || vers == 0 || at != Some(vers) {
            return false;
        }
        let mut e = o.unkeep(page).expect("looked up above");
        sh.clock += 1;
        e.validated = sh.clock;
        o.live.insert(page, e);
        true
    }

    /// Drops every page (and the write generation) for `(fid, owner)`.
    pub fn drop_fid_owner(&self, fid: Fid, owner: Owner) {
        self.shard(fid).lock().owners.remove(&(fid, owner));
    }

    /// Drops every page for `owner` across all files (process exit,
    /// transaction end/abort).
    pub fn drop_owner(&self, owner: Owner) {
        for shard in &self.shards {
            let mut sh = shard.lock();
            for key in sh.owners_where(|(_, o)| *o == owner) {
                sh.owners.remove(&key);
            }
        }
    }

    /// Drops every page for `fid` regardless of owner (replica install:
    /// committed bytes changed without local lock activity).
    pub fn drop_file(&self, fid: Fid) {
        let mut sh = self.shard(fid).lock();
        for key in sh.owners_where(|(f, _)| *f == fid) {
            sh.owners.remove(&key);
        }
    }

    /// Site crash: all volatile state is lost.
    pub fn crash(&self) {
        for shard in &self.shards {
            *shard.lock() = Shard::default();
        }
    }

    /// Number of live (servable) pages.
    pub fn len(&self) -> usize {
        self.count(|o| o.live.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of kept (released, unserved) pages.
    pub fn retained_len(&self) -> usize {
        self.count(|o| o.kept.len())
    }

    fn count(&self, per: impl Fn(&OwnerPages) -> usize) -> usize {
        let total = |s: &Mutex<Shard>| s.lock().owners.values().map(&per).sum::<usize>();
        self.shards.iter().map(total).sum()
    }

    /// Whether `(fid, owner, page)` has a live page covering the given
    /// page-relative span.
    pub fn covers_page_span(&self, fid: Fid, owner: Owner, page: PageNo, span: ByteRange) -> bool {
        let sh = self.shard(fid).lock();
        sh.owners
            .get(&(fid, owner))
            .and_then(|o| o.live.get(&page))
            .is_some_and(|e| e.span.contains_range(&span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{Pid, VolumeId};

    const PS: usize = 1024;

    fn fid() -> Fid {
        Fid::new(VolumeId(1), 7)
    }

    fn owner() -> Owner {
        Owner::Proc(Pid(3))
    }

    fn put(c: &PageCache, page: u32, vers: u64, start: u64, bytes: &[u8]) -> bool {
        c.insert(
            fid(),
            owner(),
            PageNo(page),
            vers,
            ByteRange::new(start, bytes.len() as u64),
            PageData::from(bytes),
            c.write_gen(fid(), owner()),
        )
    }

    const INC: Incarnation = Incarnation {
        site: SiteId(0),
        boot_epoch: 2,
        repl_epoch: 0,
    };

    /// Whole page `page` at `vers`, as a grant ships it clean under `INC`.
    fn ship(c: &PageCache, page: u32, vers: u64) {
        c.note_incarnation(fid(), owner(), INC);
        assert!(c.insert_shipped(
            fid(),
            owner(),
            PageNo(page),
            vers,
            ByteRange::new(0, PS as u64),
            PageData::new(vec![page as u8; PS]),
            c.write_gen(fid(), owner()),
            Some(INC),
        ));
    }

    fn pages(n: u64) -> ByteRange {
        ByteRange::new(0, n * PS as u64)
    }

    fn held(c: &PageCache, window: ByteRange) -> Vec<u64> {
        c.held(fid(), owner(), INC.site, INC.repl_epoch, window, PS)
            .have
    }

    #[test]
    fn whole_page_roundtrip() {
        let c = PageCache::new();
        let bytes = vec![7u8; PS];
        assert!(put(&c, 0, 1, 0, &bytes));
        let out = c.read_vec(fid(), owner(), ByteRange::new(0, PS as u64), PS);
        assert_eq!(out.as_deref(), Some(&bytes[..]));
    }

    #[test]
    fn partial_span_hit_and_miss() {
        let c = PageCache::new();
        assert!(put(&c, 0, 1, 100, &[1, 2, 3, 4]));
        let out = c.read_vec(fid(), owner(), ByteRange::new(101, 2), PS);
        assert_eq!(out.as_deref(), Some(&[2u8, 3][..]));
        // A byte outside the cached span misses.
        assert!(c
            .read_vec(fid(), owner(), ByteRange::new(99, 2), PS)
            .is_none());
        // A different owner always misses.
        assert!(c
            .read_vec(fid(), Owner::Proc(Pid(99)), ByteRange::new(101, 2), PS)
            .is_none());
    }

    #[test]
    fn multi_page_reads_need_every_page() {
        let c = PageCache::new();
        assert!(put(&c, 0, 1, 0, &vec![1u8; PS]));
        let r = ByteRange::new(0, (PS + 4) as u64);
        assert!(c.read_vec(fid(), owner(), r, PS).is_none());
        assert!(put(&c, 1, 1, 0, &[9, 9, 9, 9]));
        let out = c.read_vec(fid(), owner(), r, PS).unwrap();
        assert_eq!(&out[PS..], &[9, 9, 9, 9]);
    }

    #[test]
    fn a_range_longer_than_the_cache_misses_without_allocating() {
        let c = PageCache::new();
        assert!(put(&c, 0, 1, 0, &vec![1u8; PS]));
        for len in [1 << 40, 1 << 62, u64::MAX] {
            let r = ByteRange::new(0, len);
            assert!(c.read_vec(fid(), owner(), r, PS).is_none());
        }
    }

    #[test]
    fn same_version_spans_merge_new_bytes_win() {
        let c = PageCache::new();
        assert!(put(&c, 0, 2, 0, &[1, 1, 1, 1]));
        assert!(put(&c, 0, 2, 2, &[5, 5, 5, 5]));
        let out = c.read_vec(fid(), owner(), ByteRange::new(0, 6), PS);
        assert_eq!(out.as_deref(), Some(&[1u8, 1, 5, 5, 5, 5][..]));
    }

    #[test]
    fn higher_version_replaces_lower_is_ignored() {
        let c = PageCache::new();
        assert!(put(&c, 0, 5, 0, &[5, 5]));
        // A stale (lower-version) racy population must not clobber.
        assert!(put(&c, 0, 4, 0, &[4, 4]));
        let out = c.read_vec(fid(), owner(), ByteRange::new(0, 2), PS);
        assert_eq!(out.as_deref(), Some(&[5u8, 5][..]));
        // A newer version replaces outright.
        assert!(put(&c, 0, 6, 0, &[6, 6]));
        let out = c.read_vec(fid(), owner(), ByteRange::new(0, 2), PS);
        assert_eq!(out.as_deref(), Some(&[6u8, 6][..]));
    }

    #[test]
    fn uncacheable_sentinel_is_rejected() {
        let c = PageCache::new();
        assert!(!put(&c, 0, Volume::VERS_UNCACHEABLE, 0, &[1, 2]));
        assert!(c.is_empty());
    }

    #[test]
    fn write_generation_rejects_stale_inserts() {
        let c = PageCache::new();
        let gen0 = c.write_gen(fid(), owner());
        // A write lands between the read and its insert.
        c.note_write(fid(), owner(), ByteRange::new(0, 4), PS);
        assert!(!c.insert(
            fid(),
            owner(),
            PageNo(0),
            1,
            ByteRange::new(0, 2),
            PageData::from(&[1u8, 2][..]),
            gen0,
        ));
        assert!(c.is_empty());
        // With a fresh snapshot the insert lands.
        assert!(put(&c, 0, 1, 0, &[1, 2]));
    }

    #[test]
    fn note_write_drops_overlapping_entries() {
        let c = PageCache::new();
        assert!(put(&c, 0, 1, 0, &[1, 1]));
        assert!(put(&c, 2, 1, 0, &[2, 2]));
        c.note_write(fid(), owner(), ByteRange::new(0, 2), PS);
        assert_eq!(c.len(), 1);
        let page2 = ByteRange::new(2 * PS as u64, 2);
        assert!(c.read_vec(fid(), owner(), page2, PS).is_some());
    }

    #[test]
    fn removal_scopes() {
        let c = PageCache::new();
        let other = Owner::Proc(Pid(50));
        assert!(put(&c, 0, 1, 0, &[1]));
        assert!(c.insert(
            fid(),
            other,
            PageNo(0),
            1,
            ByteRange::new(0, 1),
            PageData::from(&[9u8][..]),
            0,
        ));
        // A release drops only that owner's entries over the range (a page a
        // read brought is not kept).
        c.demote(fid(), owner(), ByteRange::new(0, 1), PS);
        assert_eq!((c.len(), c.retained_len()), (1, 0));
        c.drop_owner(other);
        assert!(c.is_empty());
        // drop_file clears every owner, retained pages included.
        assert!(put(&c, 1, 1, 0, &[1]));
        ship(&c, 2, 1);
        c.demote(fid(), owner(), pages(3), PS);
        assert_eq!((c.len(), c.retained_len()), (0, 1));
        c.drop_file(fid());
        assert_eq!((c.len(), c.retained_len()), (0, 0));
    }

    #[test]
    fn crash_clears_everything() {
        let c = PageCache::new();
        assert!(put(&c, 0, 1, 0, &[1]));
        ship(&c, 1, 1);
        c.demote(fid(), owner(), pages(2), PS);
        c.note_write(fid(), owner(), ByteRange::new(500, 1), PS);
        c.crash();
        assert_eq!((c.len(), c.retained_len()), (0, 0));
        assert_eq!(c.write_gen(fid(), owner()), 0);
    }

    #[test]
    fn a_released_clean_page_is_kept_unserved_until_named_current() {
        let c = PageCache::new();
        ship(&c, 0, 4);
        ship(&c, 1, 4);
        c.demote(fid(), owner(), pages(2), PS);
        assert_eq!((c.len(), c.retained_len()), (0, 2));
        // Never served, not even to the sequential test.
        assert!(c.read_vec(fid(), owner(), pages(1), PS).is_none());
        assert!(!c.covers_page_span(fid(), owner(), PageNo(0), ByteRange::new(0, 1)));
        // The next grant's request names both.
        assert_eq!(held(&c, pages(4)), [4, 4]);
        // Elsewhere, or under another replication epoch, nothing is held.
        assert!(c
            .held(fid(), owner(), SiteId(1), 0, pages(4), PS)
            .have
            .is_empty());
        assert!(c
            .held(fid(), owner(), SiteId(0), 1, pages(4), PS)
            .have
            .is_empty());
        // Named current, at the version held: live again.
        let gen = c.write_gen(fid(), owner());
        assert!(!c.revalidate(fid(), owner(), PageNo(0), 3, gen));
        assert!(c.revalidate(fid(), owner(), PageNo(0), 4, gen));
        assert_eq!(
            c.read_vec(fid(), owner(), pages(1), PS),
            Some(vec![0u8; PS])
        );
        assert_eq!((c.len(), c.retained_len()), (1, 1));
    }

    #[test]
    fn only_pages_shipped_clean_under_the_last_incarnation_are_retained() {
        let c = PageCache::new();
        // A read's page, a grant's page that came dirty, a clean one.
        assert!(put(&c, 0, 1, 0, &vec![1u8; PS]));
        assert!(c.insert_shipped(
            fid(),
            owner(),
            PageNo(1),
            1,
            ByteRange::new(0, PS as u64),
            PageData::new(vec![1u8; PS]),
            0,
            None,
        ));
        ship(&c, 2, 1);
        ship(&c, 3, 1);
        // A grant under another boot epoch: page 3, shipped before it, goes
        // at release; page 2 is re-shipped under it and stays.
        let rebooted = Incarnation {
            boot_epoch: 3,
            ..INC
        };
        c.note_incarnation(fid(), owner(), rebooted);
        assert!(c.insert_shipped(
            fid(),
            owner(),
            PageNo(2),
            2,
            ByteRange::new(0, PS as u64),
            PageData::new(vec![2u8; PS]),
            0,
            Some(rebooted),
        ));
        c.demote(fid(), owner(), pages(4), PS);
        assert_eq!((c.len(), c.retained_len()), (0, 1));
        let h = c.held(fid(), owner(), INC.site, 0, pages(4), PS);
        assert_eq!((h.boot_epoch, h.have), (3, vec![0, 0, 2]));
        // And a grant under yet another drops what was retained.
        c.note_incarnation(fid(), owner(), INC);
        assert_eq!(c.retained_len(), 0);
    }

    #[test]
    fn a_retained_copy_is_dropped_by_a_write_and_replaced_by_fresh_bytes() {
        let c = PageCache::new();
        for page in 0..3 {
            ship(&c, page, 1);
        }
        c.demote(fid(), owner(), pages(3), PS);
        c.note_write(fid(), owner(), ByteRange::new(10, 1), PS);
        assert_eq!(held(&c, pages(3)), [0, 1, 1]);
        assert!(!c.revalidate(fid(), owner(), PageNo(0), 1, c.write_gen(fid(), owner())));
        // A read's reply replaces a retained copy outright, at any version.
        assert!(put(&c, 1, 0, 0, &[5]));
        assert_eq!(
            c.read_vec(fid(), owner(), ByteRange::new(PS as u64, 1), PS),
            Some(vec![5])
        );
        assert_eq!((c.len(), c.retained_len()), (1, 1));
        // The write moved the generation: a revalidation snapshotted before
        // it does not land.
        assert!(!c.revalidate(fid(), owner(), PageNo(2), 1, 0));
    }

    #[test]
    fn a_held_page_must_lie_within_the_window() {
        let c = PageCache::new();
        ship(&c, 0, 1);
        ship(&c, 1, 1);
        c.demote(fid(), owner(), pages(2), PS);
        // A window that starts mid-page 0 cannot vouch for all of page 0.
        assert_eq!(held(&c, ByteRange::new(100, 2000)), [0, 1]);
        assert_eq!(held(&c, ByteRange::new(0, 100)), Vec::<u64>::new());
    }

    #[test]
    fn retained_pages_are_capped_least_recently_validated_first() {
        let c = PageCache::new();
        let cap = FILE_BUFFER_CAP as u32;
        // Validated in reverse page order, so the oldest is the highest page.
        for page in (0..cap + 2).rev() {
            ship(&c, page, 1);
        }
        c.demote(fid(), owner(), pages(u64::from(cap) + 2), PS);
        assert_eq!(c.retained_len(), FILE_BUFFER_CAP);
        let window = ByteRange::new(u64::from(cap - 2) * PS as u64, 4 * PS as u64);
        assert_eq!(held(&c, window), [1, 1]);
        // A page named current moves to the back of the line.
        assert!(c.revalidate(fid(), owner(), PageNo(0), 1, c.write_gen(fid(), owner())));
        c.demote(fid(), owner(), pages(1), PS);
        ship(&c, cap + 5, 1);
        c.demote(
            fid(),
            owner(),
            ByteRange::new(u64::from(cap + 5) * PS as u64, 1),
            PS,
        );
        assert_eq!(c.retained_len(), FILE_BUFFER_CAP);
        assert_eq!(held(&c, pages(1)), [1]);
        assert_eq!(held(&c, window), [1]);
        // Below the cap, the oldest kept page leaves by a write and the next
        // oldest by fresh bytes (shipped again, so validated last of all).
        let at = |page: u32| u64::from(page) * PS as u64;
        c.note_write(fid(), owner(), ByteRange::new(at(cap - 2), 1), PS);
        ship(&c, cap - 3, 1);
        assert_eq!(c.retained_len(), FILE_BUFFER_CAP - 2);
        for page in cap + 6..cap + 9 {
            ship(&c, page, 1);
        }
        c.demote(fid(), owner(), ByteRange::new(at(cap - 3), 1), PS);
        c.demote(fid(), owner(), ByteRange::new(at(cap + 6), at(3)), PS);
        // Two past the cap: the two oldest still kept go, no page that left.
        assert_eq!(c.retained_len(), FILE_BUFFER_CAP);
        assert_eq!(held(&c, ByteRange::new(at(cap - 5), at(4))), [0, 0, 1]);
        assert_eq!(held(&c, ByteRange::new(at(cap + 5), at(4))), [1, 1, 1, 1]);
        assert_eq!(held(&c, ByteRange::new(at(cap - 7), at(2))), [1, 1]);
    }
}
