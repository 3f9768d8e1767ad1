//! On-disk inodes: the file descriptor block holding the page pointers that
//! an intentions-list commit atomically replaces (Section 4: "Files are
//! committed by ... atomically overwriting the inode on disk with new data,
//! freeing up the old data pages").

use locus_types::codec::{from_bytes, Enc, Wire};
use locus_types::{wire, Fid, IntentionsList, PageNo, PhysPage};

/// In-core/on-disk inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    pub fid: Fid,
    /// Committed file length in bytes.
    pub len: u64,
    /// Logical-page → physical-block map; `None` for holes.
    pub pages: Vec<Option<PhysPage>>,
    /// Per-page install counter, bumped every time an intentions list
    /// re-points the page. Commit differencing compares this — not the
    /// block number, which the allocator recycles — to decide whether a
    /// prepared shadow image went stale (see `IntentionsEntry::old_vers`).
    pub vers: Vec<u64>,
    /// Generation, bumped by every install. A file's inode may be both on
    /// the volume's stable store and in its commit journal; the copy with
    /// the higher generation is the file.
    pub gen: u64,
}

wire!(struct Inode { fid, len, pages, vers, gen });

impl Inode {
    pub fn new(fid: Fid) -> Self {
        Inode {
            fid,
            len: 0,
            pages: Vec::new(),
            vers: Vec::new(),
            gen: 0,
        }
    }

    /// The newer of two copies of one inode (either may be missing).
    pub fn newest(a: Option<Inode>, b: Option<Inode>) -> Option<Inode> {
        match (a, b) {
            (Some(a), Some(b)) => Some(if b.gen > a.gen { b } else { a }),
            (a, b) => a.or(b),
        }
    }

    /// Committed physical block of a logical page, if mapped.
    pub fn page(&self, page: PageNo) -> Option<PhysPage> {
        self.pages.get(page.0 as usize).copied().flatten()
    }

    /// Install counter of a logical page (0: never installed).
    pub fn page_version(&self, page: PageNo) -> u64 {
        self.vers.get(page.0 as usize).copied().unwrap_or(0)
    }

    /// Number of logical pages the committed length occupies.
    pub fn page_count(&self, page_size: usize) -> u32 {
        self.len.div_ceil(page_size as u64) as u32
    }

    /// Applies an intentions list: re-points pages at their shadow blocks,
    /// adopts the new length and bumps the generation. Returns the *old*
    /// physical blocks that were replaced (to be freed once the new inode
    /// is durable).
    pub fn apply(&mut self, il: &IntentionsList) -> Vec<PhysPage> {
        self.gen += 1;
        let mut freed = Vec::new();
        for ent in &il.entries {
            let idx = ent.page.0 as usize;
            if self.pages.len() <= idx {
                self.pages.resize(idx + 1, None);
            }
            if self.vers.len() <= idx {
                self.vers.resize(idx + 1, 0);
            }
            if let Some(old) = self.pages[idx] {
                freed.push(old);
            }
            self.pages[idx] = Some(ent.new_phys);
            self.vers[idx] += 1;
        }
        // A commit never shrinks the file: an intentions list built while a
        // concurrent extension was still uncommitted carries the shorter
        // length it saw at prepare time, and installing it after the
        // extension commits must not truncate. (Explicit truncation is not a
        // supported operation; files only grow.)
        self.len = self.len.max(il.new_len);
        freed
    }

    /// Drops page mappings wholly beyond `len` for the given page size,
    /// returning freed blocks. Install counters are deliberately kept: a
    /// trimmed-then-regrown page must not restart at version 0, or an old
    /// prepared image could false-match and skip its merge.
    pub fn trim_to(&mut self, page_size: usize) -> Vec<PhysPage> {
        let keep = self.len.div_ceil(page_size as u64) as usize;
        let mut freed = Vec::new();
        while self.pages.len() > keep {
            if let Some(Some(p)) = self.pages.pop() {
                freed.push(p);
            }
        }
        freed
    }

    /// Serializes for the volume's stable store or its journal, sized up
    /// front: a page takes at most five bytes and its counter eight.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(32 + 13 * self.pages.len().max(self.vers.len()));
        self.put(&mut e);
        e.finish()
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::codec::assert_pinned;
    use locus_types::{IntentionsEntry, VolumeId};

    fn fid() -> Fid {
        Fid::new(VolumeId(0), 1)
    }

    #[test]
    fn apply_intentions_repoints_and_frees() {
        let mut ino = Inode::new(fid());
        ino.len = 2048;
        ino.pages = vec![Some(PhysPage(10)), Some(PhysPage(11))];
        let mut il = IntentionsList::new(fid(), 3072);
        il.entries
            .push(IntentionsEntry::whole(PageNo(1), PhysPage(20)));
        il.entries
            .push(IntentionsEntry::whole(PageNo(2), PhysPage(21)));
        let freed = ino.apply(&il);
        assert_eq!(freed, vec![PhysPage(11)]);
        assert_eq!(ino.page(PageNo(0)), Some(PhysPage(10)));
        assert_eq!(ino.page(PageNo(1)), Some(PhysPage(20)));
        assert_eq!(ino.page(PageNo(2)), Some(PhysPage(21)));
        assert_eq!(ino.len, 3072);
    }

    #[test]
    fn trim_to_frees_tail_pages() {
        let mut ino = Inode::new(fid());
        ino.len = 1000;
        ino.pages = vec![Some(PhysPage(1)), Some(PhysPage(2)), Some(PhysPage(3))];
        let freed = ino.trim_to(1024);
        assert_eq!(freed, vec![PhysPage(3), PhysPage(2)]);
        assert_eq!(ino.pages.len(), 1);
    }

    /// Three pages, the middle one a hole, at generation 3.
    fn holey() -> Inode {
        let mut ino = Inode::new(fid());
        ino.len = 5000;
        ino.pages = vec![Some(PhysPage(4)), None, Some(PhysPage(6))];
        ino.vers = vec![2, 0, 1];
        ino.gen = 3;
        ino
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ino = holey();
        let got = Inode::decode(&ino.encode()).unwrap();
        assert_eq!(got, ino);
    }

    /// Golden vector: the layout of the hand-written encoder that `wire!`
    /// replaced, then the generation as a trailing `u64`: inodes already on
    /// a volume keep their layout up to the generation.
    #[test]
    fn layouts_are_pinned() {
        assert_pinned(
            &holey(),
            "00000000010000008813000000000000030000000104000000000106000000030000000200000000\
             000000000000000000000001000000000000000300000000000000",
        );
    }

    #[test]
    fn the_newest_generation_wins() {
        let old = holey();
        let mut new = holey();
        new.apply(&IntentionsList::new(fid(), 6000));
        assert_eq!(new.gen, old.gen + 1);
        let pick = |a: &Inode, b: &Inode| Inode::newest(Some(a.clone()), Some(b.clone()));
        assert_eq!(pick(&old, &new), Some(new.clone()));
        assert_eq!(pick(&new, &old), Some(new.clone()));
        assert_eq!(Inode::newest(None, Some(old.clone())), Some(old.clone()));
        assert_eq!(Inode::newest(Some(old.clone()), None), Some(old));
        assert_eq!(Inode::newest(None, None), None);
    }

    #[test]
    fn decode_refuses_a_trailing_byte() {
        let mut block = holey().encode();
        block.push(0);
        assert_eq!(Inode::decode(&block), None);
    }

    #[test]
    fn decode_refuses_counts_the_block_cannot_hold() {
        // fid (8) + len (8), then the page count and the version count,
        // then the generation (8).
        let empty = Inode::new(fid()).encode();
        assert_eq!(empty.len(), 32);
        for count_at in [16, 20] {
            let mut bad = empty.clone();
            bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(Inode::decode(&bad).is_none());
        }
    }

    #[test]
    fn page_count_rounds_up() {
        let mut ino = Inode::new(fid());
        ino.len = 1025;
        assert_eq!(ino.page_count(1024), 2);
        ino.len = 1024;
        assert_eq!(ino.page_count(1024), 1);
        ino.len = 0;
        assert_eq!(ino.page_count(1024), 0);
    }
}
