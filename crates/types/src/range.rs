//! Half-open byte ranges with the set operations the lock manager and the
//! shadow-page differencing machinery need: overlap tests, union/merge,
//! subtraction, and page spanning.

use std::fmt;

use crate::id::PageNo;

/// A half-open byte range `[start, start + len)` within a file.
///
/// Record locks in Locus have byte granularity (Section 3.2): "ranges of
/// bytes in that file may be locked in several modes". Ranges also describe
/// which bytes of a page each owner has modified, which drives the
/// page-differencing commit (Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteRange {
    pub start: u64,
    pub len: u64,
}

impl ByteRange {
    pub fn new(start: u64, len: u64) -> Self {
        ByteRange { start, len }
    }

    /// The exclusive end offset.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// The exclusive end offset, or `None` when `start + len` does not fit
    /// the address space. A range that arrives from a caller or from another
    /// site is asked this once, where it enters; everything past that point
    /// uses [`ByteRange::end`].
    pub fn checked_end(&self) -> Option<u64> {
        self.start.checked_add(self.len)
    }

    /// Whether the range covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether two ranges share at least one byte.
    pub fn overlaps(&self, other: &ByteRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start < other.end()
            && other.start < self.end()
    }

    /// Whether `other` lies entirely within `self`.
    pub fn contains_range(&self, other: &ByteRange) -> bool {
        other.is_empty() || (other.start >= self.start && other.end() <= self.end())
    }

    /// Whether a single byte offset lies within the range.
    pub fn contains(&self, offset: u64) -> bool {
        offset >= self.start && offset < self.end()
    }

    /// Whether the ranges overlap or abut, i.e. can be merged into one.
    pub fn mergeable(&self, other: &ByteRange) -> bool {
        self.start <= other.end() && other.start <= self.end()
    }

    /// The smallest range covering both inputs. Only meaningful when
    /// [`ByteRange::mergeable`] holds; otherwise the gap is swallowed.
    pub fn merge(&self, other: &ByteRange) -> ByteRange {
        let start = self.start.min(other.start);
        let end = self.end().max(other.end());
        ByteRange::new(start, end - start)
    }

    /// The overlapping portion of two ranges, if any.
    pub fn intersection(&self, other: &ByteRange) -> Option<ByteRange> {
        let start = self.start.max(other.start);
        let end = self.end().min(other.end());
        if start < end {
            Some(ByteRange::new(start, end - start))
        } else {
            None
        }
    }

    /// `self` minus `other`: zero, one, or two remaining pieces.
    ///
    /// Used when a lock is partially unlocked ("locked ranges may be extended
    /// or contracted", Section 3.2).
    pub fn subtract(&self, other: &ByteRange) -> Vec<ByteRange> {
        if !self.overlaps(other) {
            return vec![*self];
        }
        let mut out = Vec::new();
        if other.start > self.start {
            out.push(ByteRange::new(self.start, other.start - self.start));
        }
        if other.end() < self.end() {
            out.push(ByteRange::new(other.end(), self.end() - other.end()));
        }
        out
    }

    /// The last logical page a range touches, `None` for an empty range:
    /// arithmetic, however long the range. A page past the last one
    /// `PageNo(u32)` can name (no file holds it) reads as that last one.
    pub fn last_page(&self, page_size: usize) -> Option<PageNo> {
        let last = (self.start + self.len.checked_sub(1)?) / page_size as u64;
        Some(PageNo(u32::try_from(last).unwrap_or(u32::MAX)))
    }

    /// The logical pages a range touches, for a given page size.
    pub fn pages(&self, page_size: usize) -> impl Iterator<Item = PageNo> {
        let first = self.start / page_size as u64;
        let end = self
            .last_page(page_size)
            .map_or(first, |p| u64::from(p.0) + 1);
        (first..end).map(|p| PageNo(p as u32))
    }

    /// The portion of this range falling on logical page `page`, expressed as
    /// an offset range *within* that page.
    pub fn slice_on_page(&self, page: PageNo, page_size: usize) -> Option<ByteRange> {
        let ps = page_size as u64;
        let page_range = ByteRange::new(u64::from(page.0) * ps, ps);
        self.intersection(&page_range)
            .map(|r| ByteRange::new(r.start - page_range.start, r.len))
    }
}

impl fmt::Display for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{})", self.start, self.end())
    }
}

/// Normalizes a list of ranges: sorts and coalesces overlapping/adjacent
/// entries into a minimal sorted set.
pub fn coalesce(mut ranges: Vec<ByteRange>) -> Vec<ByteRange> {
    ranges.retain(|r| !r.is_empty());
    ranges.sort_by_key(|r| r.start);
    let mut out: Vec<ByteRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if last.mergeable(&r) => *last = last.merge(&r),
            _ => out.push(r),
        }
    }
    out
}

/// Total number of bytes covered by a coalesced range list.
pub fn covered_bytes(ranges: &[ByteRange]) -> u64 {
    coalesce(ranges.to_vec()).iter().map(|r| r.len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_basic() {
        let a = ByteRange::new(0, 10);
        let b = ByteRange::new(5, 10);
        let c = ByteRange::new(10, 5);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // Half-open: [0,10) and [10,15) do not touch.
        assert!(a.mergeable(&c)); // But they abut, so they can merge.
    }

    #[test]
    fn empty_ranges_never_overlap() {
        let e = ByteRange::new(5, 0);
        assert!(!e.overlaps(&ByteRange::new(0, 10)));
        assert!(!ByteRange::new(0, 10).overlaps(&e));
    }

    #[test]
    fn subtract_middle_splits() {
        let a = ByteRange::new(0, 100);
        let got = a.subtract(&ByteRange::new(40, 20));
        assert_eq!(got, vec![ByteRange::new(0, 40), ByteRange::new(60, 40)]);
    }

    #[test]
    fn subtract_prefix_suffix_and_cover() {
        let a = ByteRange::new(10, 20);
        assert_eq!(
            a.subtract(&ByteRange::new(0, 15)),
            vec![ByteRange::new(15, 15)]
        );
        assert_eq!(
            a.subtract(&ByteRange::new(25, 50)),
            vec![ByteRange::new(10, 15)]
        );
        assert!(a.subtract(&ByteRange::new(0, 100)).is_empty());
        assert_eq!(a.subtract(&ByteRange::new(50, 5)), vec![a]);
    }

    #[test]
    fn pages_spanning() {
        let r = ByteRange::new(1000, 100); // Crosses the 1024 boundary.
        let pages: Vec<_> = r.pages(1024).collect();
        assert_eq!(pages, vec![PageNo(0), PageNo(1)]);
        assert_eq!(
            r.slice_on_page(PageNo(0), 1024),
            Some(ByteRange::new(1000, 24))
        );
        assert_eq!(
            r.slice_on_page(PageNo(1), 1024),
            Some(ByteRange::new(0, 76))
        );
        assert_eq!(r.slice_on_page(PageNo(2), 1024), None);
        // The last page is computed, not walked to, and an empty range has
        // none wherever it starts.
        assert_eq!(r.last_page(1024), Some(PageNo(1)));
        assert_eq!(ByteRange::new(1024, 1024).last_page(1024), Some(PageNo(1)));
        assert_eq!(ByteRange::new(5000, 0).last_page(1024), None);
        assert_eq!(ByteRange::new(5000, 0).pages(1024).count(), 0);
        let huge = ByteRange::new(100, 1 << 62);
        assert_eq!(huge.last_page(1024), Some(PageNo(u32::MAX)));
        assert_eq!(huge.pages(1024).next(), Some(PageNo(0)));
    }

    #[test]
    fn coalesce_merges_adjacent_and_overlapping() {
        let got = coalesce(vec![
            ByteRange::new(10, 5),
            ByteRange::new(0, 10),
            ByteRange::new(30, 5),
            ByteRange::new(12, 10),
        ]);
        assert_eq!(got, vec![ByteRange::new(0, 22), ByteRange::new(30, 5)]);
        assert_eq!(covered_bytes(&got), 27);
    }

    #[test]
    fn intersection_matches_overlap() {
        let a = ByteRange::new(0, 10);
        let b = ByteRange::new(8, 10);
        assert_eq!(a.intersection(&b), Some(ByteRange::new(8, 2)));
        assert_eq!(a.intersection(&ByteRange::new(10, 1)), None);
    }
}
