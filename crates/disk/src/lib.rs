//! Simulated block device.
//!
//! A [`SimDisk`] models one physical disk: a fixed array of page-sized
//! blocks, an allocation bitmap, and a small *stable store* region used by
//! the filesystem for its inode table (the transaction logs are journal
//! records).
//!
//! Every operation is charged against the [`CostModel`] on the caller's
//! [`Account`] and counted in the site's [`Counters`]; this is what makes the
//! Figure 5 I/O-count table and the Figure 6 latency table reproducible.
//!
//! # Crash semantics
//!
//! The block array and stable store are *non-volatile*: they survive
//! [`SimDisk::crash`]. Crashing only matters to the layers above (buffer
//! caches, lock lists, process tables are volatile and owned by the
//! filesystem/kernel crates); the disk records the crash so tests can assert
//! that post-crash state derives solely from committed data.
//!
//! # Crash points
//!
//! The recovery torture harness needs crashes *between* two specific durable
//! writes, not merely "at some step". Every durable mutation (block write or
//! stable-store operation) increments a counter; [`SimDisk::arm_crash_point`]
//! declares that mutation number `n` is where the machine dies. When the
//! armed mutation arrives the disk *trips*: depending on the
//! [`CrashPointMode`] the mutation is dropped entirely, applied torn
//! (block writes only — the stable store is sector-atomic), or dropped
//! together with recent block writes that never reached the platters
//! (the buffered-write model: stable-store operations are write barriers).
//! A tripped disk fails all subsequent transfers until [`SimDisk::reboot`].
//! [`SimDisk::set_recording`] captures the mutation stream of a clean run so
//! the torture driver can enumerate and classify every crash point.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use locus_sim::{Account, CostModel, Counters, SimDuration};
use locus_types::{Error, PhysPage, Result};

/// Kind of physical transfer, for cost charging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Random read (seek + rotation).
    Read,
    /// Random write.
    Write,
    /// Sequential append (log devices; cheaper on 1985 disks).
    SeqWrite,
}

/// One page-sized block of data.
pub type Block = Vec<u8>;

/// How an armed crash point severs the write stream, relative to the
/// volatile / non-volatile split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPointMode {
    /// The tripping mutation is lost entirely; every earlier mutation is
    /// intact. The classic "crash between two writes".
    Clean,
    /// A block write is severed mid-transfer: the first `keep_bytes` bytes of
    /// the new data land over the old contents, the rest keep their previous
    /// value (a torn page). Stable-store operations are sector-atomic and
    /// degrade to [`CrashPointMode::Clean`].
    Torn { keep_bytes: usize },
    /// Buffered block writes that never reached the platters are lost: the
    /// tripping mutation is dropped and up to `max_rollback` of the most
    /// recent block writes *since the last stable-store operation* are rolled
    /// back. Stable-store operations act as write barriers — they flush the
    /// buffer, so nothing older than the latest one can be lost.
    LostBuffer { max_rollback: usize },
}

/// One durable mutation, as recorded while [`SimDisk::set_recording`] is on.
/// The torture driver classifies crash points by inspecting these (block
/// write vs. which stable key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationKind {
    /// A data-block write.
    Write(PhysPage),
    /// An atomic stable-store overwrite (inode table, commit-point write).
    StablePut(String),
    /// A frame appended to the journal region's volatile tail: its index in
    /// the combined durable+tail stream, and its bytes (opaque here; the
    /// torture driver tells an install's record from the rest by them). Not
    /// a barrier: the frame reaches the platters only at the next
    /// [`MutationKind::JournalFlush`].
    JournalAppend { index: u64, frame: Vec<u8> },
    /// A group-commit flush of the journal tail — `frames` buffered frames
    /// reach the platters in one sequential transfer, and once they have all
    /// landed the `released` oldest frames of the log are free space (the
    /// flush carries the log's low-water mark). A write barrier.
    JournalFlush { frames: u64, released: u64 },
}

#[derive(Debug)]
struct DiskInner {
    /// Non-volatile data blocks; `None` means never written.
    blocks: Vec<Option<Block>>,
    /// Allocation bitmap for data blocks.
    allocated: Vec<bool>,
    /// Non-volatile key-value stable store for the inode table and the
    /// site's boot epoch (the logs live in the journal). Keys are opaque to
    /// the disk; their owners namespace them.
    stable: BTreeMap<String, Vec<u8>>,
    /// Number of crashes this device has survived (diagnostic).
    crashes: u64,
    /// Monotone count of durable mutations (block writes + stable ops).
    mutations: u64,
    /// When present, every durable mutation is appended here.
    recording: Option<Vec<MutationKind>>,
    /// Armed crash point: trip when mutation number `.0` arrives.
    armed: Option<(u64, CrashPointMode)>,
    /// Set once a crash point fires; all transfers fail until `reboot`.
    tripped: bool,
    /// Prior contents of blocks written since the last stable-store barrier.
    /// Populated only while armed with `LostBuffer`; used for rollback.
    journal: Vec<(PhysPage, Option<Block>)>,
    /// Non-volatile frames of the append-only journal region (commit logs).
    log_frames: Vec<Vec<u8>>,
    /// Volatile journal tail: frames appended but not yet flushed. Lost on
    /// crash/reboot; made durable by [`SimDisk::journal_flush`].
    log_tail: Vec<Vec<u8>>,
}

impl DiskInner {
    /// Accounts one durable mutation. Returns the crash mode when this
    /// mutation is the armed crash point (the caller applies mode-specific
    /// damage and fails the transfer), or an error when already offline.
    fn gate(&mut self, kind: impl FnOnce() -> MutationKind) -> Result<Option<CrashPointMode>> {
        if self.tripped {
            return Err(Error::DiskOffline);
        }
        let idx = self.mutations;
        self.mutations += 1;
        if let Some(log) = self.recording.as_mut() {
            log.push(kind());
        }
        if let Some((at, mode)) = self.armed {
            if idx == at {
                self.tripped = true;
                return Ok(Some(mode));
            }
        }
        Ok(None)
    }

    /// Gate for a stable-store mutation. Stable ops are sector-atomic and
    /// act as write barriers: a trip drops the op (plus, in `LostBuffer`
    /// mode, recent un-barriered block writes); a successful op flushes the
    /// buffered-write journal so nothing before it can be lost any more.
    fn stable_gate(&mut self, kind: impl FnOnce() -> MutationKind) -> Result<()> {
        match self.gate(kind)? {
            None => {
                self.journal.clear();
                Ok(())
            }
            Some(CrashPointMode::LostBuffer { max_rollback }) => {
                self.rollback_journal(max_rollback);
                Err(Error::DiskOffline)
            }
            Some(_) => Err(Error::DiskOffline),
        }
    }

    /// Rolls back up to `max` journaled block writes, newest first.
    fn rollback_journal(&mut self, max: usize) {
        for _ in 0..max {
            let Some((page, old)) = self.journal.pop() else {
                break;
            };
            if let Some(slot) = self.blocks.get_mut(page.0 as usize) {
                *slot = old;
            }
        }
    }
}

/// A simulated disk with `capacity` data blocks of `page_size` bytes.
#[derive(Debug)]
pub struct SimDisk {
    inner: Mutex<DiskInner>,
    page_size: usize,
    model: Arc<CostModel>,
    counters: Arc<Counters>,
}

impl SimDisk {
    /// Creates a disk with the given number of data blocks.
    pub fn new(capacity: usize, model: Arc<CostModel>, counters: Arc<Counters>) -> Self {
        let page_size = model.page_size;
        SimDisk {
            inner: Mutex::new(DiskInner {
                blocks: vec![None; capacity],
                allocated: vec![false; capacity],
                stable: BTreeMap::new(),
                crashes: 0,
                mutations: 0,
                recording: None,
                armed: None,
                tripped: false,
                journal: Vec::new(),
                log_frames: Vec::new(),
                log_tail: Vec::new(),
            }),
            page_size,
            model,
            counters,
        }
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The site-wide counters (and span registry) this disk charges into.
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// The cost model this disk charges with.
    pub fn model(&self) -> &Arc<CostModel> {
        &self.model
    }

    pub fn capacity(&self) -> usize {
        self.inner.lock().blocks.len()
    }

    /// Number of currently allocated data blocks.
    pub fn allocated_count(&self) -> usize {
        self.inner.lock().allocated.iter().filter(|a| **a).count()
    }

    fn charge(&self, acct: &mut Account, kind: IoKind) {
        acct.cpu_instrs(&self.model, self.model.disk_setup_instrs);
        let latency: SimDuration = match kind {
            IoKind::Read => {
                acct.disk_reads += 1;
                self.counters.disk_reads();
                self.model.disk_io
            }
            IoKind::Write => {
                acct.disk_writes += 1;
                self.counters.disk_writes();
                self.model.disk_io
            }
            IoKind::SeqWrite => {
                acct.seq_ios += 1;
                self.counters.disk_seq_writes();
                self.model.disk_seq_io
            }
        };
        acct.wait(latency);
    }

    /// Charges one transfer of the given kind without touching disk state —
    /// for layers that model record reads served out of a journal scan.
    pub fn charge_io(&self, acct: &mut Account, kind: IoKind) {
        self.charge(acct, kind);
    }

    /// Allocates a free block. Costs CPU only (the bitmap is cached in
    /// memory); the block is not written until [`SimDisk::write`].
    pub fn alloc(&self, acct: &mut Account) -> Result<PhysPage> {
        acct.cpu_instrs(&self.model, 50);
        let mut inner = self.inner.lock();
        if inner.tripped {
            return Err(Error::DiskOffline);
        }
        for (i, used) in inner.allocated.iter().enumerate() {
            if !used {
                inner.allocated[i] = true;
                return Ok(PhysPage(i as u32));
            }
        }
        Err(Error::VolumeFull)
    }

    /// Frees a previously allocated block. Data remains readable until
    /// reallocation overwrites it (as on a real disk), but tests should treat
    /// freed blocks as garbage.
    pub fn free(&self, page: PhysPage) {
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.allocated.get_mut(page.0 as usize) {
            *slot = false;
        }
    }

    /// Whether a block is currently allocated.
    pub fn is_allocated(&self, page: PhysPage) -> bool {
        self.inner
            .lock()
            .allocated
            .get(page.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Reads a block (one random I/O). Unwritten blocks read as zeroes.
    pub fn read(&self, page: PhysPage, acct: &mut Account) -> Result<Block> {
        self.charge(acct, IoKind::Read);
        let inner = self.inner.lock();
        if inner.tripped {
            return Err(Error::DiskOffline);
        }
        let blk = inner
            .blocks
            .get(page.0 as usize)
            .ok_or_else(|| Error::InvalidArgument(format!("block {page} out of range")))?;
        Ok(blk.clone().unwrap_or_else(|| vec![0; self.page_size]))
    }

    /// Writes a block (one random I/O). `data` is padded/truncated to the
    /// page size.
    pub fn write(&self, page: PhysPage, data: &[u8], acct: &mut Account) -> Result<()> {
        self.charge(acct, IoKind::Write);
        let mut block = data.to_vec();
        block.resize(self.page_size, 0);
        let mut inner = self.inner.lock();
        match inner.gate(|| MutationKind::Write(page))? {
            None => {}
            Some(CrashPointMode::Clean) => return Err(Error::DiskOffline),
            Some(CrashPointMode::Torn { keep_bytes }) => {
                // The transfer died mid-page: the head wrote the first
                // `keep_bytes` bytes of the new image over the old contents.
                let keep = keep_bytes.min(block.len());
                if let Some(slot) = inner.blocks.get_mut(page.0 as usize) {
                    let torn = slot.get_or_insert_with(|| vec![0; self.page_size]);
                    torn[..keep].copy_from_slice(&block[..keep]);
                }
                return Err(Error::DiskOffline);
            }
            Some(CrashPointMode::LostBuffer { max_rollback }) => {
                inner.rollback_journal(max_rollback);
                return Err(Error::DiskOffline);
            }
        }
        if matches!(inner.armed, Some((_, CrashPointMode::LostBuffer { .. }))) {
            let old = inner.blocks.get(page.0 as usize).cloned().flatten();
            inner.journal.push((page, old));
        }
        let slot = inner
            .blocks
            .get_mut(page.0 as usize)
            .ok_or_else(|| Error::InvalidArgument(format!("block {page} out of range")))?;
        *slot = Some(block);
        Ok(())
    }

    /// Atomically overwrites a stable-store record (inode table entry,
    /// log record). One random I/O — this is the filesystem's "atomically
    /// overwriting the inode on disk" primitive (Section 4).
    pub fn stable_put(&self, key: &str, value: Vec<u8>, acct: &mut Account) -> Result<()> {
        self.charge(acct, IoKind::Write);
        let mut inner = self.inner.lock();
        inner.stable_gate(|| MutationKind::StablePut(key.to_string()))?;
        inner.stable.insert(key.to_string(), value);
        Ok(())
    }

    /// Reads a stable-store record (one random I/O), if present.
    pub fn stable_get(&self, key: &str, acct: &mut Account) -> Option<Vec<u8>> {
        self.charge(acct, IoKind::Read);
        let inner = self.inner.lock();
        if inner.tripped {
            return None;
        }
        inner.stable.get(key).cloned()
    }

    /// Reads a stable record without charging I/O — models a cached copy
    /// kept in kernel memory (e.g. the in-core inode of an open file).
    pub fn stable_peek(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.lock().stable.get(key).cloned()
    }

    /// All stable keys with the given prefix, in order. No I/O is charged —
    /// recovery charges explicitly for each record it reads.
    pub fn stable_keys(&self, prefix: &str) -> Vec<String> {
        self.inner
            .lock()
            .stable
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    // ----- Append-only journal region (commit logs) ------------------------

    /// Appends one frame to the journal's volatile tail. Costs CPU only —
    /// the frame is buffered in the controller and reaches the platters at
    /// the next [`SimDisk::journal_flush`]. Counted as a durable mutation so
    /// the torture harness can crash between an append and its flush (the
    /// frame is then simply lost, as a real volatile buffer would be).
    pub fn journal_append(&self, frame: Vec<u8>, acct: &mut Account) -> Result<()> {
        acct.cpu_instrs(&self.model, 50);
        let mut inner = self.inner.lock();
        let index = (inner.log_frames.len() + inner.log_tail.len()) as u64;
        let recorded = || MutationKind::JournalAppend {
            index,
            frame: frame.clone(),
        };
        match inner.gate(recorded)? {
            None => {}
            Some(CrashPointMode::LostBuffer { max_rollback }) => {
                inner.rollback_journal(max_rollback);
                return Err(Error::DiskOffline);
            }
            // The tail is volatile memory: nothing to tear, the frame is
            // dropped whole.
            Some(_) => return Err(Error::DiskOffline),
        }
        inner.log_tail.push(frame);
        Ok(())
    }

    /// Flushes the journal tail to the platters: one sequential transfer for
    /// however many frames are buffered — this is the group-commit batching.
    /// A write barrier (flushes buffered block writes like any stable op).
    /// Free when the tail is already empty. Returns the number of frames
    /// made durable. Releases nothing: see [`SimDisk::journal_flush_keep`].
    pub fn journal_flush(&self, acct: &mut Account) -> Result<u64> {
        self.journal_flush_keep(u64::MAX, acct)
    }

    /// [`SimDisk::journal_flush`] carrying the log's low-water mark, the way
    /// a log record header carries the tail pointer: once this flush has
    /// landed, only the newest `keep` frames of the log (durable frames then
    /// this batch) are still wanted, and everything older is free space.
    ///
    /// The release happens when — and only when — the whole batch lands. A
    /// trip in any mode leaves every old frame in place: the header that
    /// would have moved the mark is part of the transfer that died.
    ///
    /// A [`CrashPointMode::Torn`] trip lands a whole-frame prefix of the
    /// tail (frames are sector-aligned; `keep_bytes` of the transfer
    /// completed) — partial group durability, which recovery must tolerate.
    pub fn journal_flush_keep(&self, keep: u64, acct: &mut Account) -> Result<u64> {
        let mut inner = self.inner.lock();
        if inner.tripped {
            return Err(Error::DiskOffline);
        }
        if inner.log_tail.is_empty() {
            return Ok(0);
        }
        self.charge(acct, IoKind::SeqWrite);
        if self.model.log_double_write {
            // Footnote 9: the 1985 prototype also rewrote the log's inode.
            self.charge(acct, IoKind::Write);
        }
        let frames = inner.log_tail.len() as u64;
        let released = (inner.log_frames.len() as u64 + frames).saturating_sub(keep);
        match inner.gate(|| MutationKind::JournalFlush { frames, released })? {
            None => {
                inner.journal.clear();
                let DiskInner {
                    log_frames,
                    log_tail,
                    ..
                } = &mut *inner;
                log_frames.append(log_tail);
                inner.log_frames.drain(..released as usize);
                Ok(frames)
            }
            Some(CrashPointMode::Torn { keep_bytes }) => {
                let mut landed = 0usize;
                let mut budget = keep_bytes;
                for f in &inner.log_tail {
                    if f.len() > budget {
                        break;
                    }
                    budget -= f.len();
                    landed += 1;
                }
                let kept: Vec<Vec<u8>> = inner.log_tail.drain(..landed).collect();
                inner.log_frames.extend(kept);
                Err(Error::DiskOffline)
            }
            Some(CrashPointMode::LostBuffer { max_rollback }) => {
                inner.rollback_journal(max_rollback);
                Err(Error::DiskOffline)
            }
            Some(CrashPointMode::Clean) => Err(Error::DiskOffline),
        }
    }

    /// Number of (durable, buffered) journal frames.
    pub fn journal_frame_counts(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.log_frames.len() as u64, inner.log_tail.len() as u64)
    }

    /// The durable journal frames — uncharged, unaffected by trip state.
    /// This is what reboot recovery replays and what the durability oracle
    /// inspects; the volatile tail is never visible here.
    pub fn journal_peek(&self) -> Vec<Vec<u8>> {
        self.inner.lock().log_frames.clone()
    }

    /// Records a crash. Disk contents are non-volatile and survive — except
    /// the journal's buffered tail, which was controller memory; the call
    /// exists so higher layers share one crash notion and tests can count
    /// crashes.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        inner.crashes += 1;
        inner.log_tail.clear();
    }

    pub fn crash_count(&self) -> u64 {
        self.inner.lock().crashes
    }

    // ----- Crash-point injection (torture harness) -------------------------

    /// Starts (or stops) recording the durable-mutation stream. Starting
    /// discards any previously recorded log.
    pub fn set_recording(&self, on: bool) {
        let mut inner = self.inner.lock();
        inner.recording = if on { Some(Vec::new()) } else { None };
    }

    /// Takes the recorded mutation log, leaving recording on if it was on.
    pub fn take_mutation_log(&self) -> Vec<MutationKind> {
        let mut inner = self.inner.lock();
        match inner.recording.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Total durable mutations performed since creation.
    pub fn mutation_count(&self) -> u64 {
        self.inner.lock().mutations
    }

    /// Arms a crash point: the disk trips when durable mutation number `at`
    /// (0-based, in [`SimDisk::mutation_count`] numbering) arrives. Replaces
    /// any previously armed point.
    pub fn arm_crash_point(&self, at: u64, mode: CrashPointMode) {
        let mut inner = self.inner.lock();
        inner.armed = Some((at, mode));
        inner.journal.clear();
    }

    /// Whether an armed crash point has fired.
    pub fn tripped(&self) -> bool {
        self.inner.lock().tripped
    }

    /// Brings a tripped disk back online (power restored): clears the trip,
    /// disarms, and drops the rollback journal and any buffered journal
    /// tail. Platter contents are exactly as the crash left them.
    pub fn reboot(&self) {
        let mut inner = self.inner.lock();
        inner.tripped = false;
        inner.armed = None;
        inner.journal.clear();
        inner.log_tail.clear();
    }

    /// Raw platter contents of a block — uncharged, unaffected by trip
    /// state. The durability oracle's view of non-volatile storage.
    pub fn peek_block(&self, page: PhysPage) -> Option<Block> {
        self.inner
            .lock()
            .blocks
            .get(page.0 as usize)
            .cloned()
            .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::SiteId;

    fn disk() -> (SimDisk, Account) {
        let model = Arc::new(CostModel::default());
        let d = SimDisk::new(64, model, Arc::new(Counters::default()));
        (d, Account::new(SiteId(1)))
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let (d, mut a) = disk();
        let p = d.alloc(&mut a).unwrap();
        d.write(p, b"hello", &mut a).unwrap();
        let got = d.read(p, &mut a).unwrap();
        assert_eq!(&got[..5], b"hello");
        assert_eq!(got.len(), 1024);
        assert_eq!(a.disk_writes, 1);
        assert_eq!(a.disk_reads, 1);
    }

    #[test]
    fn io_latency_is_charged() {
        let (d, mut a) = disk();
        let p = d.alloc(&mut a).unwrap();
        let before = a.elapsed;
        d.write(p, b"x", &mut a).unwrap();
        let delta = a.elapsed - before;
        // One random I/O ≈ 26 ms plus setup instructions.
        assert!(delta >= SimDuration::from_millis(26));
    }

    #[test]
    fn alloc_exhaustion_reports_volume_full() {
        let model = Arc::new(CostModel::default());
        let d = SimDisk::new(2, model, Arc::new(Counters::default()));
        let mut a = Account::new(SiteId(1));
        d.alloc(&mut a).unwrap();
        d.alloc(&mut a).unwrap();
        assert_eq!(d.alloc(&mut a), Err(Error::VolumeFull));
    }

    #[test]
    fn free_allows_reallocation() {
        let model = Arc::new(CostModel::default());
        let d = SimDisk::new(1, model, Arc::new(Counters::default()));
        let mut a = Account::new(SiteId(1));
        let p = d.alloc(&mut a).unwrap();
        assert!(d.is_allocated(p));
        d.free(p);
        assert!(!d.is_allocated(p));
        assert_eq!(d.alloc(&mut a).unwrap(), p);
    }

    #[test]
    fn unwritten_blocks_read_as_zeroes() {
        let (d, mut a) = disk();
        let p = d.alloc(&mut a).unwrap();
        assert_eq!(d.read(p, &mut a).unwrap(), vec![0u8; 1024]);
    }

    #[test]
    fn stable_store_roundtrip_and_survives_crash() {
        let (d, mut a) = disk();
        d.stable_put("inode/3", vec![1, 2, 3], &mut a).unwrap();
        d.crash();
        assert_eq!(d.stable_get("inode/3", &mut a), Some(vec![1, 2, 3]));
        assert_eq!(d.crash_count(), 1);
    }

    #[test]
    fn stable_keys_filters_by_prefix() {
        let (d, mut a) = disk();
        d.stable_put("coord/1", vec![], &mut a).unwrap();
        d.stable_put("coord/2", vec![], &mut a).unwrap();
        d.stable_put("prepare/1", vec![], &mut a).unwrap();
        assert_eq!(d.stable_keys("coord/"), vec!["coord/1", "coord/2"]);
    }

    #[test]
    fn recording_captures_mutation_stream() {
        let (d, mut a) = disk();
        d.set_recording(true);
        let p = d.alloc(&mut a).unwrap();
        d.write(p, b"x", &mut a).unwrap();
        d.stable_put("inode/1", vec![1], &mut a).unwrap();
        d.journal_append(b"frame".to_vec(), &mut a).unwrap();
        d.journal_flush(&mut a).unwrap();
        assert_eq!(
            d.take_mutation_log(),
            vec![
                MutationKind::Write(p),
                MutationKind::StablePut("inode/1".into()),
                MutationKind::JournalAppend {
                    index: 0,
                    frame: b"frame".to_vec()
                },
                MutationKind::JournalFlush {
                    frames: 1,
                    released: 0
                },
            ]
        );
        assert_eq!(d.mutation_count(), 4);
    }

    #[test]
    fn clean_crash_point_drops_the_tripping_write_only() {
        let (d, mut a) = disk();
        let p = d.alloc(&mut a).unwrap();
        let q = d.alloc(&mut a).unwrap();
        d.write(p, b"first", &mut a).unwrap(); // mutation 0
        d.arm_crash_point(1, CrashPointMode::Clean);
        assert_eq!(d.write(q, b"second", &mut a), Err(Error::DiskOffline));
        assert!(d.tripped());
        // Offline: everything fails until reboot; peeks still see platters.
        assert_eq!(d.read(p, &mut a), Err(Error::DiskOffline));
        assert_eq!(d.write(p, b"z", &mut a), Err(Error::DiskOffline));
        assert_eq!(d.stable_get("k", &mut a), None);
        assert_eq!(&d.peek_block(p).unwrap()[..5], b"first");
        assert_eq!(d.peek_block(q), None);
        d.reboot();
        assert!(!d.tripped());
        assert_eq!(&d.read(p, &mut a).unwrap()[..5], b"first");
        assert_eq!(d.read(q, &mut a).unwrap(), vec![0u8; 1024]);
    }

    #[test]
    fn torn_crash_point_leaves_partial_page() {
        let (d, mut a) = disk();
        let p = d.alloc(&mut a).unwrap();
        d.write(p, b"AAAAAA", &mut a).unwrap();
        d.arm_crash_point(1, CrashPointMode::Torn { keep_bytes: 3 });
        assert_eq!(d.write(p, b"BBBBBB", &mut a), Err(Error::DiskOffline));
        d.reboot();
        assert_eq!(&d.read(p, &mut a).unwrap()[..6], b"BBBAAA");
    }

    #[test]
    fn torn_crash_point_on_stable_op_is_atomic() {
        let (d, mut a) = disk();
        d.stable_put("inode/1", vec![1], &mut a).unwrap(); // mutation 0
        d.arm_crash_point(1, CrashPointMode::Torn { keep_bytes: 3 });
        assert_eq!(
            d.stable_put("inode/1", vec![9, 9, 9, 9], &mut a),
            Err(Error::DiskOffline)
        );
        d.reboot();
        // Sector-atomic: the old record survives untouched, no torn bytes.
        assert_eq!(d.stable_get("inode/1", &mut a), Some(vec![1]));
    }

    #[test]
    fn lost_buffer_rolls_back_unbarriered_block_writes() {
        let (d, mut a) = disk();
        let p = d.alloc(&mut a).unwrap();
        let q = d.alloc(&mut a).unwrap();
        d.write(p, b"old-p", &mut a).unwrap(); // 0
        d.arm_crash_point(4, CrashPointMode::LostBuffer { max_rollback: 8 });
        d.write(p, b"new-p", &mut a).unwrap(); // 1: buffered
        d.stable_put("inode/1", vec![1], &mut a).unwrap(); // 2: barrier flushes
        d.write(q, b"new-q", &mut a).unwrap(); // 3: buffered
        assert_eq!(
            d.stable_put("inode/1", vec![2], &mut a), // 4: trips
            Err(Error::DiskOffline)
        );
        d.reboot();
        // new-p survived (flushed by the barrier at mutation 2); new-q was
        // still buffered and is gone; the tripping put never happened.
        assert_eq!(&d.read(p, &mut a).unwrap()[..5], b"new-p");
        assert_eq!(d.read(q, &mut a).unwrap(), vec![0u8; 1024]);
        assert_eq!(d.stable_get("inode/1", &mut a), Some(vec![1]));
    }

    #[test]
    fn lost_buffer_respects_max_rollback() {
        let (d, mut a) = disk();
        let p = d.alloc(&mut a).unwrap();
        let q = d.alloc(&mut a).unwrap();
        let r = d.alloc(&mut a).unwrap();
        d.arm_crash_point(2, CrashPointMode::LostBuffer { max_rollback: 1 });
        d.write(p, b"keep", &mut a).unwrap(); // 0: buffered, beyond rollback
        d.write(q, b"lose", &mut a).unwrap(); // 1: buffered, rolled back
        assert_eq!(d.write(r, b"trip", &mut a), Err(Error::DiskOffline));
        d.reboot();
        assert_eq!(&d.read(p, &mut a).unwrap()[..4], b"keep");
        assert_eq!(d.read(q, &mut a).unwrap(), vec![0u8; 1024]);
        assert_eq!(d.read(r, &mut a).unwrap(), vec![0u8; 1024]);
    }

    #[test]
    fn journal_append_is_free_and_flush_is_one_seq_io() {
        let (d, mut a) = disk();
        d.journal_append(vec![1, 2, 3], &mut a).unwrap();
        d.journal_append(vec![4, 5], &mut a).unwrap();
        assert_eq!(a.seq_ios, 0);
        assert_eq!(a.disk_writes, 0);
        assert_eq!(d.journal_frame_counts(), (0, 2));
        assert_eq!(d.journal_flush(&mut a).unwrap(), 2);
        assert_eq!(a.seq_ios, 1);
        assert_eq!(a.disk_writes, 0);
        assert_eq!(d.journal_frame_counts(), (2, 0));
        // An empty flush is free.
        assert_eq!(d.journal_flush(&mut a).unwrap(), 0);
        assert_eq!(a.seq_ios, 1);
        assert_eq!(d.journal_peek(), vec![vec![1, 2, 3], vec![4, 5]]);
    }

    #[test]
    fn journal_flush_respects_footnote9() {
        let model = Arc::new(CostModel::paper_1985());
        let d = SimDisk::new(8, model, Arc::new(Counters::default()));
        let mut a = Account::new(SiteId(1));
        d.journal_append(vec![1], &mut a).unwrap();
        d.journal_flush(&mut a).unwrap();
        assert_eq!(a.seq_ios, 1);
        assert_eq!(a.disk_writes, 1);
    }

    #[test]
    fn crash_drops_unflushed_journal_tail() {
        let (d, mut a) = disk();
        d.journal_append(vec![1], &mut a).unwrap();
        d.journal_flush(&mut a).unwrap();
        d.journal_append(vec![2], &mut a).unwrap();
        d.crash();
        assert_eq!(d.journal_peek(), vec![vec![1]]);
        assert_eq!(d.journal_frame_counts(), (1, 0));
    }

    #[test]
    fn clean_crash_point_on_flush_loses_whole_tail() {
        let (d, mut a) = disk();
        d.journal_append(vec![1], &mut a).unwrap(); // mutation 0
        d.journal_append(vec![2], &mut a).unwrap(); // mutation 1
        d.arm_crash_point(2, CrashPointMode::Clean);
        assert_eq!(d.journal_flush(&mut a), Err(Error::DiskOffline));
        assert!(d.tripped());
        assert_eq!(d.journal_append(vec![3], &mut a), Err(Error::DiskOffline));
        d.reboot();
        assert!(d.journal_peek().is_empty());
    }

    #[test]
    fn torn_flush_lands_whole_frame_prefix() {
        let (d, mut a) = disk();
        d.journal_append(vec![1; 4], &mut a).unwrap();
        d.journal_append(vec![2; 4], &mut a).unwrap();
        d.journal_append(vec![3; 4], &mut a).unwrap();
        d.arm_crash_point(3, CrashPointMode::Torn { keep_bytes: 9 });
        assert_eq!(d.journal_flush(&mut a), Err(Error::DiskOffline));
        d.reboot();
        // 9 bytes of the transfer completed: two whole 4-byte frames landed,
        // the third died mid-sector and is dropped.
        assert_eq!(d.journal_peek(), vec![vec![1; 4], vec![2; 4]]);
    }

    #[test]
    fn journal_flush_is_a_write_barrier() {
        let (d, mut a) = disk();
        let p = d.alloc(&mut a).unwrap();
        let q = d.alloc(&mut a).unwrap();
        d.arm_crash_point(5, CrashPointMode::LostBuffer { max_rollback: 8 });
        d.write(p, b"keep", &mut a).unwrap(); // 0: buffered
        d.journal_append(vec![7], &mut a).unwrap(); // 1: no barrier
        d.journal_flush(&mut a).unwrap(); // 2: barrier flushes p
        d.write(q, b"lose", &mut a).unwrap(); // 3: buffered
        d.journal_append(vec![8], &mut a).unwrap(); // 4: no barrier
        assert_eq!(d.journal_flush(&mut a), Err(Error::DiskOffline)); // 5: trips, q rolled back
        d.reboot();
        assert_eq!(&d.read(p, &mut a).unwrap()[..4], b"keep");
        assert_eq!(d.read(q, &mut a).unwrap(), vec![0u8; 1024]);
    }

    #[test]
    fn flush_releases_the_dead_prefix_only_when_it_lands_whole() {
        let (d, mut a) = disk();
        for i in 0..4u8 {
            d.journal_append(vec![i; 4], &mut a).unwrap();
        }
        d.journal_flush(&mut a).unwrap();
        assert_eq!(d.journal_frame_counts(), (4, 0), "a plain flush keeps all");

        // Keep the newest three of 4 durable + 2 buffered: three released,
        // in the same single transfer.
        d.set_recording(true);
        d.journal_append(vec![4; 4], &mut a).unwrap();
        d.journal_append(vec![5; 4], &mut a).unwrap();
        let before = a.seq_ios;
        assert_eq!(d.journal_flush_keep(3, &mut a).unwrap(), 2);
        assert_eq!(a.seq_ios, before + 1);
        assert_eq!(d.journal_peek(), vec![vec![3; 4], vec![4; 4], vec![5; 4]]);
        assert_eq!(
            d.take_mutation_log().last(),
            Some(&MutationKind::JournalFlush {
                frames: 2,
                released: 3
            })
        );

        // The mark may pass the durable frames into the batch itself.
        d.journal_append(vec![6; 4], &mut a).unwrap();
        d.journal_append(vec![7; 4], &mut a).unwrap();
        d.journal_flush_keep(1, &mut a).unwrap();
        assert_eq!(d.journal_peek(), vec![vec![7; 4]]);

        // A trip in any mode releases nothing; a torn one still lands its
        // whole-frame prefix next to the old frames.
        for mode in [
            CrashPointMode::Clean,
            CrashPointMode::Torn { keep_bytes: 5 },
            CrashPointMode::LostBuffer { max_rollback: 4 },
        ] {
            let old = d.journal_peek();
            d.journal_append(vec![8; 4], &mut a).unwrap();
            d.journal_append(vec![9; 4], &mut a).unwrap();
            d.arm_crash_point(d.mutation_count(), mode);
            assert_eq!(d.journal_flush_keep(0, &mut a), Err(Error::DiskOffline));
            d.reboot();
            let mut want = old;
            if matches!(mode, CrashPointMode::Torn { .. }) {
                want.push(vec![8; 4]);
            }
            assert_eq!(d.journal_peek(), want, "{mode:?}");
        }
    }

    #[test]
    fn counters_track_global_io() {
        let model = Arc::new(CostModel::default());
        let counters = Arc::new(Counters::default());
        let d = SimDisk::new(8, model, counters.clone());
        let mut a = Account::new(SiteId(1));
        let p = d.alloc(&mut a).unwrap();
        d.write(p, b"x", &mut a).unwrap();
        d.read(p, &mut a).unwrap();
        let s = counters.snapshot();
        assert_eq!(s.disk_writes, 1);
        assert_eq!(s.disk_reads, 1);
    }
}
