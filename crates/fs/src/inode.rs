//! On-disk inodes: the file descriptor block holding the page pointers that
//! an intentions-list commit atomically replaces (Section 4: "Files are
//! committed by ... atomically overwriting the inode on disk with new data,
//! freeing up the old data pages").

use locus_types::codec::{from_bytes, to_bytes};
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
}

wire!(struct Inode { fid, len, pages, vers });

impl Inode {
    pub fn new(fid: Fid) -> Self {
        Inode {
            fid,
            len: 0,
            pages: Vec::new(),
            vers: Vec::new(),
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

    /// Applies an intentions list: re-points pages at their shadow blocks
    /// and adopts the new length. Returns the *old* physical blocks that
    /// were replaced (to be freed once the new inode is durable).
    pub fn apply(&mut self, il: &IntentionsList) -> Vec<PhysPage> {
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

    /// Serializes for the volume's stable store.
    pub fn encode(&self) -> Vec<u8> {
        to_bytes(self)
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

    /// Three pages, the middle one a hole.
    fn holey() -> Inode {
        let mut ino = Inode::new(fid());
        ino.len = 5000;
        ino.pages = vec![Some(PhysPage(4)), None, Some(PhysPage(6))];
        ino.vers = vec![2, 0, 1];
        ino
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ino = holey();
        let got = Inode::decode(&ino.encode()).unwrap();
        assert_eq!(got, ino);
    }

    /// Golden vector from the hand-written encoder this layout replaced
    /// (PR 18's parent): inodes already on a volume must keep decoding.
    #[test]
    fn layouts_are_pinned() {
        assert_pinned(
            &holey(),
            "00000000010000008813000000000000030000000104000000000106000000030000000200000000\
             00000000000000000000000100000000000000",
        );
    }

    #[test]
    fn decode_refuses_a_trailing_byte() {
        let mut block = holey().encode();
        block.push(0);
        assert_eq!(Inode::decode(&block), None);
    }

    #[test]
    fn decode_refuses_counts_the_block_cannot_hold() {
        // fid (8) + len (8), then the page count and the version count.
        let empty = Inode::new(fid()).encode();
        assert_eq!(empty.len(), 24);
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
