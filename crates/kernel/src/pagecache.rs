//! The per-site coherent page cache.
//!
//! The paper's synchronization tokens (Section 5.1) let a site that holds a
//! lock use *local* copies of the locked data without re-contacting the
//! storage site. The lock cache (striped, per-owner) already kills repeat
//! lock RPCs; this cache gives the data path the same treatment: bytes
//! returned by `ReadResp` — the covered pages around the request, see
//! `Kernel::read` — are kept per `(fid, owner, page)` together with the
//! page's install version, and a later read that is still covered by the
//! owner's cached lock is served entirely locally.
//!
//! Coherence comes from the lock cache acting as the protocol:
//!
//! * **Populate** only under lock coverage (the kernel checks
//!   `LockCache::covers` before inserting) and only for spans within the
//!   file's *committed* length — the committed length is monotone, so a
//!   fully cached range can never be clipped shorter by a later visible-
//!   length shrink (another owner's aborted extension).
//! * **Serve** only under lock coverage. While the owner's coverage holds,
//!   no other owner can write the covered bytes (enforced locks deny the
//!   access), so the cached bytes track the storage site's current bytes.
//! * **Invalidate** wherever lock coverage drops: unlock responses, close,
//!   process exit, transaction end/abort, explicit file abort, site crash —
//!   plus replica installs (a push can change committed bytes without any
//!   local lock activity).
//!
//! The owner's *own* writes are handled with a per-`(fid, owner)` write
//! generation instead of in-place patching: a write bumps the generation
//! and drops overlapping entries, and an insert is rejected if the
//! generation moved since the read was issued. That closes the race where
//! one thread of a transaction installs a read response that predates
//! another thread's write.

use std::collections::HashMap;

use parking_lot::Mutex;

use locus_types::{ByteRange, Fid, Owner, PageData, PageNo};

/// Stripe count; matches the lock cache so related state shards together.
const SHARDS: usize = 16;

/// Install-version sentinel: "this page must not be cached" (the storage
/// site saw uncommitted bytes from another owner on it).
pub const VERS_UNCACHEABLE: u64 = u64::MAX;

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
}

#[derive(Default)]
struct Shard {
    entries: HashMap<(Fid, Owner, PageNo), PageEntry>,
    /// Per-(fid, owner) write generation; see the module docs.
    gens: HashMap<(Fid, Owner), u64>,
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
        self.shard(fid)
            .lock()
            .gens
            .get(&(fid, owner))
            .copied()
            .unwrap_or(0)
    }

    /// Records a write by `owner`: bumps the write generation and drops the
    /// owner's entries overlapping `range` (absolute bytes).
    pub fn note_write(&self, fid: Fid, owner: Owner, range: ByteRange, page_size: usize) {
        let mut sh = self.shard(fid).lock();
        *sh.gens.entry((fid, owner)).or_insert(0) += 1;
        let ps = page_size as u64;
        sh.entries.retain(|(f, o, p), e| {
            if *f != fid || *o != owner {
                return true;
            }
            let abs = ByteRange::new(u64::from(p.0) * ps + e.span.start, e.span.len);
            !abs.overlaps(&range)
        });
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
        if vers == VERS_UNCACHEABLE || span.is_empty() || span.len as usize != data.len() {
            return false;
        }
        let mut sh = self.shard(fid).lock();
        if sh.gens.get(&(fid, owner)).copied().unwrap_or(0) != gen_at_read {
            return false;
        }
        let key = (fid, owner, page);
        match sh.entries.get_mut(&key) {
            None => {
                sh.entries.insert(key, PageEntry { vers, span, data });
            }
            Some(e) if e.vers > vers => { /* existing entry is newer */ }
            Some(e) if e.vers < vers || !e.span.mergeable(&span) => {
                *e = PageEntry { vers, span, data };
            }
            Some(e) => {
                // Same version, overlapping or adjacent: merge, the new
                // bytes winning where the spans overlap.
                let merged = e.span.merge(&span);
                let mut buf = vec![0u8; merged.len as usize];
                let old_off = (e.span.start - merged.start) as usize;
                buf[old_off..old_off + e.data.len()].copy_from_slice(&e.data);
                let new_off = (span.start - merged.start) as usize;
                buf[new_off..new_off + data.len()].copy_from_slice(&data);
                *e = PageEntry {
                    vers,
                    span: merged,
                    data: PageData::new(buf),
                };
            }
        }
        true
    }

    /// Serves `range` (absolute bytes) from cached entries as a freshly
    /// built buffer, taking the fid's shard lock exactly once (all pages of
    /// a fid hash to the same shard). All-or-nothing: `None` unless every
    /// page's needed slice is cached — so a range longer than the shard's
    /// entries put together (2^62 bytes, say) misses before a buffer is sized.
    pub fn read_vec(
        &self,
        fid: Fid,
        owner: Owner,
        range: ByteRange,
        page_size: usize,
    ) -> Option<Vec<u8>> {
        let sh = self.shard(fid).lock();
        if range.len > (sh.entries.len() * page_size) as u64 {
            return None;
        }
        let mut out = Vec::with_capacity(range.len as usize);
        for page in range.pages(page_size) {
            let slice = range.slice_on_page(page, page_size)?;
            let e = sh.entries.get(&(fid, owner, page))?;
            if !e.span.contains_range(&slice) {
                return None;
            }
            let src_off = (slice.start - e.span.start) as usize;
            out.extend_from_slice(&e.data[src_off..src_off + slice.len as usize]);
        }
        Some(out)
    }

    /// Drops the owner's entries overlapping `range` (lock released over
    /// that range).
    pub fn remove(&self, fid: Fid, owner: Owner, range: ByteRange, page_size: usize) {
        let ps = page_size as u64;
        self.shard(fid).lock().entries.retain(|(f, o, p), e| {
            if *f != fid || *o != owner {
                return true;
            }
            let abs = ByteRange::new(u64::from(p.0) * ps + e.span.start, e.span.len);
            !abs.overlaps(&range)
        });
    }

    /// Drops every entry (and the write generation) for `(fid, owner)`.
    pub fn drop_fid_owner(&self, fid: Fid, owner: Owner) {
        let mut sh = self.shard(fid).lock();
        sh.entries.retain(|(f, o, _), _| *f != fid || *o != owner);
        sh.gens.remove(&(fid, owner));
    }

    /// Drops every entry for `owner` across all files (process exit,
    /// transaction end/abort).
    pub fn drop_owner(&self, owner: Owner) {
        for shard in &self.shards {
            let mut sh = shard.lock();
            if sh.entries.is_empty() && sh.gens.is_empty() {
                continue;
            }
            sh.entries.retain(|(_, o, _), _| *o != owner);
            sh.gens.retain(|(_, o), _| *o != owner);
        }
    }

    /// Drops every entry for `fid` regardless of owner (replica install:
    /// committed bytes changed without local lock activity).
    pub fn drop_file(&self, fid: Fid) {
        let mut sh = self.shard(fid).lock();
        sh.entries.retain(|(f, _, _), _| *f != fid);
        sh.gens.retain(|(f, _), _| *f != fid);
    }

    /// Site crash: all volatile state is lost.
    pub fn crash(&self) {
        for shard in &self.shards {
            let mut sh = shard.lock();
            sh.entries.clear();
            sh.gens.clear();
        }
    }

    /// Number of cached entries (tests and reporting).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `(fid, owner, page)` has a cached entry covering the given
    /// page-relative span.
    pub fn covers_page_span(&self, fid: Fid, owner: Owner, page: PageNo, span: ByteRange) -> bool {
        self.shard(fid)
            .lock()
            .entries
            .get(&(fid, owner, page))
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
        assert!(!put(&c, 0, VERS_UNCACHEABLE, 0, &[1, 2]));
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
            other_key().0,
            other,
            PageNo(0),
            1,
            ByteRange::new(0, 1),
            PageData::from(&[9u8][..]),
            0,
        ));
        // Range removal drops only overlapping entries of that owner.
        c.remove(fid(), owner(), ByteRange::new(0, 1), PS);
        assert_eq!(c.len(), 1);
        c.drop_owner(other);
        assert!(c.is_empty());
        // drop_file clears every owner.
        assert!(put(&c, 1, 1, 0, &[1]));
        c.drop_file(fid());
        assert!(c.is_empty());
    }

    fn other_key() -> (Fid,) {
        (fid(),)
    }

    #[test]
    fn crash_clears_everything() {
        let c = PageCache::new();
        assert!(put(&c, 0, 1, 0, &[1]));
        c.note_write(fid(), owner(), ByteRange::new(500, 1), PS);
        c.crash();
        assert!(c.is_empty());
        assert_eq!(c.write_gen(fid(), owner()), 0);
    }
}
