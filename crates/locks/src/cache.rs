//! Requesting-site lock cache.
//!
//! "When a requesting site receives a successful response to a locking
//! request, it caches this response in its local lock list. This permits the
//! kernel to quickly validate each process's read and write requests."
//! (Section 5.1.)
//!
//! The cache records only locks granted *to local processes*; validation
//! against other owners' locks still happens at the storage site. A cache
//! hit means the local kernel already knows the process holds a sufficient
//! lock, so the data access needs no extra validation round trip.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use locus_types::{range, ByteRange, Fid, LockMode, Owner};

/// (fid, owner) → ranges held in one mode, kept sorted and coalesced.
type RangeMap = HashMap<(Fid, Owner), Vec<ByteRange>>;

#[derive(Debug, Default)]
struct CacheInner {
    shared: RangeMap,
    exclusive: RangeMap,
}

impl CacheInner {
    /// The owner's held ranges in the modes that permit the access.
    fn held(&self, fid: Fid, owner: Owner, write: bool) -> Held<'_> {
        fn list(map: &RangeMap, key: (Fid, Owner)) -> &[ByteRange] {
            map.get(&key).map_or(&[], Vec::as_slice)
        }
        let shared = if write {
            &[]
        } else {
            list(&self.shared, (fid, owner))
        };
        Held([list(&self.exclusive, (fid, owner)), shared])
    }
}

/// One owner's ranges on one file that permit an access, per mode. Each
/// mode's list is coalesced, so walking coverage crosses a whole held range
/// per step: no allocation, and one step in the common single-lock case.
struct Held<'a>([&'a [ByteRange]; 2]);

impl Held<'_> {
    /// The held range containing byte `at`.
    fn at(&self, at: u64) -> Option<&ByteRange> {
        self.0.iter().copied().flatten().find(|h| h.contains(at))
    }

    /// How far unbroken coverage runs from `from`, stopping at `limit`.
    fn run_end(&self, from: u64, limit: u64) -> u64 {
        let mut at = from;
        while at < limit {
            match self.at(at) {
                Some(h) => at = h.end(),
                None => break,
            }
        }
        at.min(limit)
    }
}

/// Number of cache stripes: the cache sits on the no-RPC fast path of every
/// read/write validation, so unrelated files must not share a mutex
/// (DESIGN.md §8 has the measurement that keeps it striped).
const CACHE_SHARDS: usize = 16;

/// Deterministic stripe for a fid. No `RandomState`: placement must not vary
/// between runs of the same binary.
fn shard_of(fid: Fid) -> usize {
    let h = fid.volume.0 ^ fid.inode.0.wrapping_mul(0x9E37_79B1);
    h as usize % CACHE_SHARDS
}

/// Per-site cache of locks granted to local processes.
#[derive(Debug, Default)]
pub struct LockCache {
    shards: [Mutex<CacheInner>; CACHE_SHARDS],
    /// Per-shard entry counts (shared + exclusive keys), written under the
    /// shard lock. [`LockCache::drop_owner`] runs on every transaction end
    /// and process exit; the counts let it skip empty stripes without taking
    /// their mutexes.
    occupancy: [AtomicUsize; CACHE_SHARDS],
}

impl LockCache {
    pub fn new() -> Self {
        LockCache::default()
    }

    /// Records a granted lock.
    pub fn insert(&self, fid: Fid, owner: Owner, mode: LockMode, r: ByteRange) {
        let idx = shard_of(fid);
        let mut inner = self.shards[idx].lock();
        let CacheInner { shared, exclusive } = &mut *inner;
        // A new grant replaces the owner's previous coverage of the range in
        // both maps (upgrades/downgrades mirror the storage site's carve).
        for map in [&mut *shared, &mut *exclusive] {
            if let Some(ranges) = map.get_mut(&(fid, owner)) {
                *ranges = ranges.iter().flat_map(|h| h.subtract(&r)).collect();
            }
        }
        let map = match mode {
            LockMode::Exclusive => exclusive,
            LockMode::Shared => shared,
            LockMode::Unix => return,
        };
        let ranges = map.entry((fid, owner)).or_default();
        ranges.push(r);
        *ranges = range::coalesce(std::mem::take(ranges));
        let count = inner.shared.len() + inner.exclusive.len();
        self.occupancy[idx].store(count, Ordering::Relaxed);
    }

    /// Removes coverage after an unlock.
    pub fn remove(&self, fid: Fid, owner: Owner, r: ByteRange) {
        let mut inner = self.shards[shard_of(fid)].lock();
        let CacheInner { shared, exclusive } = &mut *inner;
        for map in [shared, exclusive] {
            if let Some(ranges) = map.get_mut(&(fid, owner)) {
                *ranges = ranges.iter().flat_map(|h| h.subtract(&r)).collect();
            }
        }
    }

    /// Drops everything the owner holds (transaction end, process exit).
    pub fn drop_owner(&self, owner: Owner) {
        for (i, shard) in self.shards.iter().enumerate() {
            if self.occupancy[i].load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut inner = shard.lock();
            inner.shared.retain(|(_, o), _| *o != owner);
            inner.exclusive.retain(|(_, o), _| *o != owner);
            let count = inner.shared.len() + inner.exclusive.len();
            self.occupancy[i].store(count, Ordering::Relaxed);
        }
    }

    /// Drops all cached locks for a file.
    pub fn drop_file(&self, fid: Fid) {
        let idx = shard_of(fid);
        let mut inner = self.shards[idx].lock();
        inner.shared.retain(|(f, _), _| *f != fid);
        inner.exclusive.retain(|(f, _), _| *f != fid);
        let count = inner.shared.len() + inner.exclusive.len();
        self.occupancy[idx].store(count, Ordering::Relaxed);
    }

    /// Whether `owner` is known to hold a lock sufficient for the access:
    /// exclusive coverage for writes, shared-or-exclusive for reads. An empty
    /// range is never covered.
    pub fn covers(&self, fid: Fid, owner: Owner, r: ByteRange, write: bool) -> bool {
        let inner = self.shards[shard_of(fid)].lock();
        !r.is_empty() && inner.held(fid, owner, write).run_end(r.start, r.end()) == r.end()
    }

    /// The widest run of bytes around `r`, kept inside `within`, that `owner`
    /// is known to hold read coverage for; `None` unless `r` itself is
    /// covered. This is how far a remote read of `r` may be widened and
    /// still have every returned byte cacheable (Section 5.1: the lock
    /// holder may use local copies of the *locked* data, and only that).
    pub fn read_extent(
        &self,
        fid: Fid,
        owner: Owner,
        r: ByteRange,
        within: ByteRange,
    ) -> Option<ByteRange> {
        if r.is_empty() || !within.contains_range(&r) {
            return None;
        }
        let inner = self.shards[shard_of(fid)].lock();
        let held = inner.held(fid, owner, false);
        let end = held.run_end(r.start, within.end());
        if end < r.end() {
            return None;
        }
        let mut start = r.start;
        while start > within.start {
            match held.at(start - 1) {
                Some(h) => start = h.start.max(within.start),
                None => break,
            }
        }
        Some(ByteRange::new(start, end - start))
    }

    /// Clears the cache (site crash; it is volatile state).
    pub fn crash(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            let mut inner = shard.lock();
            inner.shared.clear();
            inner.exclusive.clear();
            self.occupancy[i].store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{Pid, SiteId, VolumeId};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn fid() -> Fid {
        Fid::new(VolumeId(0), 1)
    }

    fn owner() -> Owner {
        Owner::Proc(Pid::new(SiteId(0), 1))
    }

    /// The original `subtract`-based coverage test, kept as the reference the
    /// allocation-free walk is checked against.
    fn covers_reference(c: &LockCache, fid: Fid, owner: Owner, r: ByteRange, write: bool) -> bool {
        let inner = c.shards[shard_of(fid)].lock();
        let mut remaining = vec![r];
        let mut maps = vec![&inner.exclusive];
        if !write {
            maps.push(&inner.shared);
        }
        for held in maps.into_iter().filter_map(|m| m.get(&(fid, owner))) {
            for h in held {
                remaining = remaining.into_iter().flat_map(|x| x.subtract(h)).collect();
            }
        }
        remaining.is_empty()
    }

    proptest! {
        /// Random grants, upgrades, downgrades and partial unlocks: the walk
        /// agrees with the reference on every probe, and `read_extent` is
        /// exactly the widest covered run around the probe inside its bound.
        #[test]
        fn covers_matches_reference(
            ops in vec((0u8..3, 0u64..96, 0u64..40), 0..12),
            probes in vec((0u64..120, 0u64..48, any::<bool>()), 1..24),
        ) {
            let c = LockCache::new();
            for (kind, start, len) in ops {
                let r = ByteRange::new(start, len);
                match kind {
                    0 => c.insert(fid(), owner(), LockMode::Shared, r),
                    1 => c.insert(fid(), owner(), LockMode::Exclusive, r),
                    _ => c.remove(fid(), owner(), r),
                }
            }
            for (start, len, write) in probes {
                let r = ByteRange::new(start, len);
                prop_assert_eq!(
                    c.covers(fid(), owner(), r, write),
                    covers_reference(&c, fid(), owner(), r, write),
                    "covers({}, write {})", r, write
                );
                let within = ByteRange::new(start.saturating_sub(16), len + 40);
                let byte = |at: u64| covers_reference(&c, fid(), owner(), ByteRange::new(at, 1), false);
                match c.read_extent(fid(), owner(), r, within) {
                    None => prop_assert!(!covers_reference(&c, fid(), owner(), r, false)),
                    Some(ext) => {
                        prop_assert!(ext.contains_range(&r) && within.contains_range(&ext));
                        prop_assert!((ext.start..ext.end()).all(byte));
                        prop_assert!(ext.start == within.start || !byte(ext.start - 1));
                        prop_assert!(ext.end() == within.end() || !byte(ext.end()));
                    }
                }
            }
        }
    }

    #[test]
    fn read_extent_stays_inside_coverage_and_bound() {
        let c = LockCache::new();
        c.insert(fid(), owner(), LockMode::Shared, ByteRange::new(100, 200));
        let page = ByteRange::new(0, 1024);
        let got = c.read_extent(fid(), owner(), ByteRange::new(150, 10), page);
        assert_eq!(got, Some(ByteRange::new(100, 200)));
        // A request poking out of the coverage is not widened at all.
        assert_eq!(
            c.read_extent(fid(), owner(), ByteRange::new(290, 20), page),
            None
        );
        // Adjacent shared + exclusive grants compose; the bound clips.
        c.insert(
            fid(),
            owner(),
            LockMode::Exclusive,
            ByteRange::new(300, 2000),
        );
        let got = c.read_extent(fid(), owner(), ByteRange::new(150, 10), page);
        assert_eq!(got, Some(ByteRange::new(100, 924)));
    }

    #[test]
    fn exclusive_covers_read_and_write() {
        let c = LockCache::new();
        c.insert(fid(), owner(), LockMode::Exclusive, ByteRange::new(0, 100));
        assert!(c.covers(fid(), owner(), ByteRange::new(10, 20), true));
        assert!(c.covers(fid(), owner(), ByteRange::new(10, 20), false));
        assert!(!c.covers(fid(), owner(), ByteRange::new(90, 20), true));
    }

    #[test]
    fn shared_covers_only_reads() {
        let c = LockCache::new();
        c.insert(fid(), owner(), LockMode::Shared, ByteRange::new(0, 100));
        assert!(c.covers(fid(), owner(), ByteRange::new(0, 100), false));
        assert!(!c.covers(fid(), owner(), ByteRange::new(0, 100), true));
    }

    #[test]
    fn mixed_coverage_composes_for_reads() {
        let c = LockCache::new();
        c.insert(fid(), owner(), LockMode::Shared, ByteRange::new(0, 50));
        c.insert(fid(), owner(), LockMode::Exclusive, ByteRange::new(50, 50));
        assert!(c.covers(fid(), owner(), ByteRange::new(0, 100), false));
        assert!(!c.covers(fid(), owner(), ByteRange::new(0, 100), true));
        assert!(c.covers(fid(), owner(), ByteRange::new(50, 50), true));
    }

    #[test]
    fn upgrade_replaces_shared_coverage() {
        let c = LockCache::new();
        c.insert(fid(), owner(), LockMode::Shared, ByteRange::new(0, 100));
        c.insert(fid(), owner(), LockMode::Exclusive, ByteRange::new(0, 100));
        assert!(c.covers(fid(), owner(), ByteRange::new(0, 100), true));
        // Downgrade back to shared.
        c.insert(fid(), owner(), LockMode::Shared, ByteRange::new(0, 100));
        assert!(!c.covers(fid(), owner(), ByteRange::new(0, 100), true));
        assert!(c.covers(fid(), owner(), ByteRange::new(0, 100), false));
    }

    #[test]
    fn remove_and_drop_owner() {
        let c = LockCache::new();
        c.insert(fid(), owner(), LockMode::Exclusive, ByteRange::new(0, 100));
        c.remove(fid(), owner(), ByteRange::new(0, 40));
        assert!(!c.covers(fid(), owner(), ByteRange::new(0, 100), false));
        assert!(c.covers(fid(), owner(), ByteRange::new(40, 60), true));
        c.drop_owner(owner());
        assert!(!c.covers(fid(), owner(), ByteRange::new(40, 60), false));
    }

    #[test]
    fn crash_clears() {
        let c = LockCache::new();
        c.insert(fid(), owner(), LockMode::Exclusive, ByteRange::new(0, 10));
        c.crash();
        assert!(!c.covers(fid(), owner(), ByteRange::new(0, 10), false));
    }
}
