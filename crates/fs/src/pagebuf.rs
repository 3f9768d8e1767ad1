//! In-memory page buffers with per-owner modification tracking.
//!
//! Each buffered page keeps the *current* (visible) content — uncommitted
//! changes "are generally visible" (Section 5) — plus a snapshot of the last
//! committed content (`base`) and, per owner, the byte ranges that owner has
//! modified. This is exactly the state the record commit mechanism of
//! Section 5.2 / Figure 4 needs:
//!
//! * **Single writer** (Figure 4a): the current content *is* the committed
//!   image — write it to the shadow block directly.
//! * **Multiple writers** (Figure 4b): take the previous version (`base`),
//!   transfer the committing owner's ranges onto it, and write that merged
//!   page — other owners' uncommitted bytes stay out of the commit.
//!
//! Aborts mirror commits: a sole writer's page rolls back wholesale; with
//! conflicting modifications, only the aborter's ranges are overwritten with
//! their original (`base`) contents.
//!
//! The committed snapshot is lazy: a page buffered for reading stores one
//! copy of the content, and the snapshot is only materialized by the first
//! write. Read-heavy workloads (the common case — most pages are never
//! written between load and eviction) therefore never pay the copy.

use std::borrow::Cow;
use std::collections::BTreeMap;

use locus_types::{range, ByteRange, Owner};

/// One buffered logical page of a file.
#[derive(Debug, Clone)]
pub struct PageBuf {
    /// Visible content, merging all owners' uncommitted writes.
    pub current: Vec<u8>,
    /// Content as of the last commit affecting this page, materialized by
    /// the first uncommitted write (`None`: the page is clean and `current`
    /// *is* the committed content).
    base: Option<Vec<u8>>,
    /// Per-owner modified byte ranges (coalesced, page-relative).
    pub writers: BTreeMap<Owner, Vec<ByteRange>>,
}

impl PageBuf {
    /// A buffer initialized from committed content.
    pub fn clean(content: Vec<u8>) -> Self {
        PageBuf {
            base: None,
            current: content,
            writers: BTreeMap::new(),
        }
    }

    pub fn is_dirty(&self) -> bool {
        !self.writers.is_empty()
    }

    pub fn writer_count(&self) -> usize {
        self.writers.len()
    }

    /// Whether `owner` has modified this page.
    pub fn written_by(&self, owner: Owner) -> bool {
        self.writers.contains_key(&owner)
    }

    /// Content as of the last commit affecting this page.
    pub fn committed(&self) -> &[u8] {
        self.base.as_deref().unwrap_or(&self.current)
    }

    /// Applies a write by `owner` at page-relative `at`.
    pub fn write(&mut self, owner: Owner, at: ByteRange, data: &[u8]) {
        debug_assert_eq!(at.len as usize, data.len());
        if self.base.is_none() {
            // First uncommitted write: snapshot the committed content.
            self.base = Some(self.current.clone());
        }
        let start = at.start as usize;
        let end = start + data.len();
        if self.current.len() < end {
            self.current.resize(end, 0);
        }
        self.current[start..end].copy_from_slice(data);
        // The bytes are this owner's now: another owner that wrote them
        // before — outside any lock it still holds — neither commits nor
        // rolls back what it no longer wrote.
        self.writers.retain(|o, ranges| {
            if *o != owner && ranges.iter().any(|r| r.intersection(&at).is_some()) {
                *ranges = ranges.iter().flat_map(|r| r.subtract(&at)).collect();
            }
            !ranges.is_empty()
        });
        let ranges = self.writers.entry(owner).or_default();
        ranges.push(at);
        *ranges = range::coalesce(std::mem::take(ranges));
    }

    /// The committed image for `owner`'s commit: `current` when the owner is
    /// the sole writer (Figure 4a, borrowed — no copy), else `base` with the
    /// owner's ranges transferred (Figure 4b). Also reports whether
    /// differencing was needed and how many bytes were moved.
    pub fn commit_image(&self, owner: Owner) -> Option<(Cow<'_, [u8]>, bool, u64)> {
        let ranges = self.writers.get(&owner)?;
        if self.writers.len() == 1 {
            return Some((Cow::Borrowed(&self.current), false, 0));
        }
        let mut img = self.committed().to_vec();
        if img.len() < self.current.len() {
            img.resize(self.current.len(), 0);
        }
        let mut moved = 0;
        for r in ranges {
            let (s, e) = (r.start as usize, r.end() as usize);
            img[s..e].copy_from_slice(&self.current[s..e]);
            moved += r.len;
        }
        Some((Cow::Owned(img), true, moved))
    }

    /// Completes `owner`'s commit: its ranges become part of the committed
    /// base, and the owner is dropped from the writer set.
    pub fn finish_commit(&mut self, owner: Owner) {
        let Some(ranges) = self.writers.remove(&owner) else {
            return;
        };
        if self.writers.is_empty() {
            // Sole writer: everything visible is now committed; the
            // snapshot is obsolete.
            self.base = None;
            return;
        }
        let base = self
            .base
            .as_mut()
            .expect("writers present implies snapshot");
        if base.len() < self.current.len() {
            base.resize(self.current.len(), 0);
        }
        for r in &ranges {
            let (s, e) = (r.start as usize, r.end() as usize);
            base[s..e].copy_from_slice(&self.current[s..e]);
        }
    }

    /// Rolls back `owner`'s modifications. Returns `(rolled_back, bytes)`:
    /// bytes copied when differencing was required (other writers present).
    pub fn abort(&mut self, owner: Owner) -> (bool, u64) {
        if !self.writers.contains_key(&owner) {
            return (false, 0);
        }
        let ranges = self.writers.remove(&owner).expect("checked above");
        if self.writers.is_empty() {
            // Sole writer: the whole page reverts (Figure 4a mirror).
            self.current = self.base.take().expect("writer implies snapshot");
            return (true, 0);
        }
        // Conflicting modifications: overwrite only the aborter's records
        // with their original contents (Figure 4b mirror).
        let base = self
            .base
            .as_ref()
            .expect("writers present implies snapshot");
        let mut moved = 0;
        for r in &ranges {
            let (s, e) = (r.start as usize, r.end() as usize);
            for i in s..e {
                let orig = base.get(i).copied().unwrap_or(0);
                if i < self.current.len() {
                    self.current[i] = orig;
                }
            }
            moved += r.len;
        }
        (true, moved)
    }

    /// Transfers modification ownership of bytes in `within` from
    /// non-transaction owners to `to` (Section 3.3 rule 2: a transaction
    /// locking a modified-but-uncommitted record adopts it, so it commits or
    /// aborts with the transaction).
    ///
    /// Returns the ranges adopted.
    pub fn adopt(&mut self, within: ByteRange, to: Owner) -> Vec<ByteRange> {
        let mut adopted = Vec::new();
        let froms: Vec<Owner> = self
            .writers
            .keys()
            .filter(|o| **o != to && !o.is_transaction())
            .copied()
            .collect();
        for from in froms {
            let ranges = self.writers.get_mut(&from).expect("key just listed");
            let mut keep = Vec::new();
            for r in ranges.drain(..) {
                if let Some(inter) = r.intersection(&within) {
                    adopted.push(inter);
                    keep.extend(r.subtract(&within));
                } else {
                    keep.push(r);
                }
            }
            if keep.is_empty() {
                self.writers.remove(&from);
            } else {
                *self.writers.get_mut(&from).expect("still present") = keep;
            }
        }
        if !adopted.is_empty() {
            let ranges = self.writers.entry(to).or_default();
            ranges.extend(adopted.iter().copied());
            *ranges = range::coalesce(std::mem::take(ranges));
        }
        adopted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{Pid, SiteId, TransId};

    fn proc_owner(n: u32) -> Owner {
        Owner::Proc(Pid::new(SiteId(0), n))
    }

    fn txn_owner(n: u64) -> Owner {
        Owner::Trans(TransId::new(SiteId(0), n))
    }

    fn page() -> PageBuf {
        PageBuf::clean(vec![0u8; 64])
    }

    #[test]
    fn an_overwritten_writers_abort_keeps_the_later_write() {
        let mut p = page();
        p.write(txn_owner(1), ByteRange::new(0, 8), b"AAAAAAAA");
        p.write(txn_owner(2), ByteRange::new(4, 4), b"BBBB");
        assert_eq!(p.abort(txn_owner(1)), (true, 4));
        assert_eq!(&p.current[0..8], b"\0\0\0\0BBBB");
        let (img, _, _) = p.commit_image(txn_owner(2)).unwrap();
        assert_eq!(&img[4..8], b"BBBB");
    }

    #[test]
    fn single_writer_commits_directly() {
        let mut p = page();
        p.write(proc_owner(1), ByteRange::new(4, 4), b"AAAA");
        let (img, diffed, moved) = p.commit_image(proc_owner(1)).unwrap();
        assert!(!diffed);
        assert!(matches!(img, Cow::Borrowed(_)), "fast path must not copy");
        assert_eq!(moved, 0);
        assert_eq!(&img[4..8], b"AAAA");
    }

    #[test]
    fn multi_writer_commit_excludes_other_writers() {
        let mut p = page();
        p.write(txn_owner(1), ByteRange::new(0, 4), b"AAAA");
        p.write(txn_owner(2), ByteRange::new(8, 4), b"BBBB");
        let (img, diffed, moved) = p.commit_image(txn_owner(1)).unwrap();
        assert!(diffed);
        assert_eq!(moved, 4);
        assert_eq!(&img[0..4], b"AAAA");
        // B's uncommitted bytes are NOT in the committed image (Figure 4b).
        assert_eq!(&img[8..12], &[0, 0, 0, 0]);
        // But they remain visible in the current buffer.
        assert_eq!(&p.current[8..12], b"BBBB");
    }

    #[test]
    fn finish_commit_updates_base_and_writers() {
        let mut p = page();
        p.write(txn_owner(1), ByteRange::new(0, 4), b"AAAA");
        p.write(txn_owner(2), ByteRange::new(8, 4), b"BBBB");
        p.finish_commit(txn_owner(1));
        assert_eq!(&p.committed()[0..4], b"AAAA");
        assert_eq!(&p.committed()[8..12], &[0, 0, 0, 0]);
        assert_eq!(p.writer_count(), 1);
        // Committing the second writer now merges onto the new base.
        let (img, diffed, _) = p.commit_image(txn_owner(2)).unwrap();
        assert!(!diffed); // Sole remaining writer: direct commit.
        assert_eq!(&img[0..4], b"AAAA");
        assert_eq!(&img[8..12], b"BBBB");
    }

    #[test]
    fn clean_page_defers_snapshot_until_first_write() {
        let mut p = page();
        assert_eq!(p.committed().len(), 64);
        p.write(proc_owner(1), ByteRange::new(0, 4), b"XXXX");
        // Snapshot holds the pre-write content; current has the write.
        assert_eq!(&p.committed()[0..4], &[0, 0, 0, 0]);
        assert_eq!(&p.current[0..4], b"XXXX");
    }

    #[test]
    fn sole_writer_abort_rolls_back_page() {
        let mut p = page();
        p.write(proc_owner(1), ByteRange::new(0, 4), b"XXXX");
        let (rolled, moved) = p.abort(proc_owner(1));
        assert!(rolled);
        assert_eq!(moved, 0);
        assert_eq!(&p.current[0..4], &[0, 0, 0, 0]);
        assert!(!p.is_dirty());
    }

    #[test]
    fn multi_writer_abort_restores_only_aborters_bytes() {
        let mut p = page();
        p.write(txn_owner(1), ByteRange::new(0, 4), b"AAAA");
        p.write(txn_owner(2), ByteRange::new(8, 4), b"BBBB");
        let (rolled, moved) = p.abort(txn_owner(1));
        assert!(rolled);
        assert_eq!(moved, 4);
        assert_eq!(&p.current[0..4], &[0, 0, 0, 0]);
        assert_eq!(&p.current[8..12], b"BBBB");
        assert!(p.written_by(txn_owner(2)));
    }

    #[test]
    fn overlapping_writes_by_same_owner_coalesce() {
        let mut p = page();
        p.write(proc_owner(1), ByteRange::new(0, 8), b"AAAABBBB");
        p.write(proc_owner(1), ByteRange::new(4, 8), b"CCCCDDDD");
        assert_eq!(p.writers[&proc_owner(1)], vec![ByteRange::new(0, 12)]);
        assert_eq!(&p.current[0..12], b"AAAACCCCDDDD");
    }

    #[test]
    fn adopt_transfers_non_transaction_mods() {
        let mut p = page();
        p.write(proc_owner(5), ByteRange::new(0, 8), b"UUUUUUUU");
        let t = txn_owner(9);
        let adopted = p.adopt(ByteRange::new(0, 4), t);
        assert_eq!(adopted, vec![ByteRange::new(0, 4)]);
        assert_eq!(p.writers[&t], vec![ByteRange::new(0, 4)]);
        // The rest stays with the process.
        assert_eq!(p.writers[&proc_owner(5)], vec![ByteRange::new(4, 4)]);
    }

    #[test]
    fn adopt_does_not_steal_from_transactions() {
        let mut p = page();
        p.write(txn_owner(1), ByteRange::new(0, 8), b"TTTTTTTT");
        let adopted = p.adopt(ByteRange::new(0, 8), txn_owner(2));
        assert!(adopted.is_empty());
        assert!(p.written_by(txn_owner(1)));
    }

    #[test]
    fn write_extends_current_beyond_base() {
        let mut p = PageBuf::clean(vec![1u8; 16]);
        p.write(proc_owner(1), ByteRange::new(24, 4), b"ZZZZ");
        assert_eq!(p.current.len(), 28);
        assert_eq!(&p.current[24..28], b"ZZZZ");
        // Commit image for the sole writer is the grown page.
        let (img, _, _) = p.commit_image(proc_owner(1)).unwrap();
        assert_eq!(img.len(), 28);
    }
}
