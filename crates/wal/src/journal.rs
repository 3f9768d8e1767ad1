//! The per-volume commit journal: typed, sequence-numbered log entries with
//! **group commit**.
//!
//! Section 4.4 stores each volume's coordinator and prepare logs on the
//! volume itself. Earlier revisions kept every record as an individually
//! barriered KV blob, so a multi-participant commit paid one synchronous
//! stable barrier per record and a status change paid a read-modify-rewrite.
//! The journal replaces that with an append-only log region on the disk
//! ([`locus_disk::SimDisk::journal_append`]): puts, status transitions, and
//! truncations become typed [`JournalEntry`] frames buffered in the
//! controller, and a single [`Journal::barrier`] flush makes everything
//! buffered so far durable in one sequential transfer. Concurrent
//! commit-path barriers on the same volume coalesce: whoever flushes first
//! covers everyone whose entries were already appended (classic group
//! commit), and threaded drivers can open a small gather window to widen the
//! batch.
//!
//! Current log state is materialized in memory (the volatile in-core view,
//! rebuilt on reboot by a single scan of the durable frames with
//! last-writer-wins replay on [`JournalKey`]); reads never re-parse string
//! keys by convention.
//!
//! Space is reclaimed on the flush that is already being paid for. Every
//! live record remembers the sequence number of the `Put` frame that last
//! wrote it whole (its *base*); the smallest base is the log's low-water
//! mark, and under last-writer-wins replay every frame below it is dead: it
//! belongs to a key that was truncated or re-put later. Each flush carries
//! the mark to the disk ([`locus_disk::SimDisk::journal_flush_keep`]), which
//! frees the prefix once the batch has landed whole. Records that live long
//! enough to pin a mostly-dead prefix are re-put into the same batch, so the
//! log never holds more than `2·live + RECLAIM_SLACK` frames after a flush
//! and reclamation never costs an I/O of its own.
//!
//! A transaction's install is a record here too: the file's whole inode,
//! keyed per file, appended together with the truncation of the prepare
//! record it settles ([`Journal::inode_put`]). The journal keeps the frame
//! as appended, so a copy forward re-stamps its sequence number and moves
//! the bytes. The blocks that install replaced are freed by the flush that
//! lands it, not before: until then the durable inode still names them.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use locus_disk::SimDisk;
use locus_sim::{Account, SpanPhase, VirtSpan};
use locus_types::{
    CoordLogRecord, Error, Fid, JournalEntry, JournalKey, JournalOp, PhysPage, PrepareLogRecord,
    Result, TransId, TxnStatus,
};

/// A flush copies the oldest live records forward once the log would
/// otherwise keep this many frames beyond twice the live-record count.
/// Small enough that torture/chaos runs exercise copy-forward; large enough
/// that a commit's own handful of frames never triggers it.
const RECLAIM_SLACK: u64 = 6;

/// The materialized log: every live record with the sequence number of its
/// base `Put` frame, and the `Put`s in log order.
#[derive(Debug, Default)]
struct View {
    /// Each record with the sequence number of the frame that last set its
    /// status, beside its base: the status is durable once that frame is.
    coord: BTreeMap<TransId, (u64, CoordLogRecord, u64)>,
    /// Keyed per file per transaction.
    prepare: BTreeMap<(TransId, Fid), (u64, PrepareLogRecord)>,
    /// Keyed per file: the `InodePut` frame as first appended. Its own
    /// sequence number goes stale when the record is copied forward; every
    /// copy re-stamps it.
    inode: BTreeMap<Fid, (u64, Vec<u8>)>,
    /// `(seq, key)` of every `Put` from the low-water mark on, oldest first.
    /// An entry whose record has since been truncated or re-put is stale;
    /// stale entries are dropped as they reach the front, so the mark is
    /// found without scanning the record maps.
    puts: VecDeque<(u64, JournalKey)>,
}

/// The frame an op's record keeps in the view, if it keeps one: an inode
/// record's.
fn kept(op: &JournalOp, frame: &[u8]) -> Option<Vec<u8>> {
    matches!(op, JournalOp::InodePut { .. }).then(|| frame.to_vec())
}

/// The inode bytes an `InodePut` frame carries.
fn inode_body(frame: &[u8]) -> Option<Vec<u8>> {
    match JournalEntry::decode(frame)?.op {
        JournalOp::InodePut { inode, .. } => Some(inode),
        _ => None,
    }
}

impl View {
    /// Last-writer-wins application of the entry numbered `seq`; `frame` is
    /// the encoded entry when the record keeps it (see [`kept`]).
    fn apply(&mut self, seq: u64, op: JournalOp, frame: Option<Vec<u8>>) {
        match op {
            JournalOp::CoordPut(rec) => {
                self.puts.push_back((seq, JournalKey::Coord(rec.tid)));
                self.coord.insert(rec.tid, (seq, rec, seq));
            }
            JournalOp::CoordStatus { tid, status } => {
                // A status delta whose base record did not survive is
                // ignored: the base was lost with the volatile tail, and
                // presumed abort covers the transaction.
                if let Some((_, rec, set_at)) = self.coord.get_mut(&tid) {
                    rec.status = status;
                    *set_at = seq;
                }
            }
            JournalOp::PreparePut(rec) => {
                let (tid, fid) = (rec.tid, rec.intentions.fid);
                self.puts.push_back((seq, JournalKey::Prepare(tid, fid)));
                self.prepare.insert((tid, fid), (seq, rec));
            }
            JournalOp::Truncate(JournalKey::Coord(tid)) => {
                self.coord.remove(&tid);
            }
            JournalOp::Truncate(JournalKey::Prepare(tid, fid)) => {
                self.prepare.remove(&(tid, fid));
            }
            JournalOp::InodePut { fid, .. } => {
                self.puts.push_back((seq, JournalKey::Inode(fid)));
                let frame = frame.expect("an inode record keeps its frame");
                self.inode.insert(fid, (seq, frame));
            }
            JournalOp::Truncate(JournalKey::Inode(fid)) => {
                self.inode.remove(&fid);
            }
        }
    }

    fn live(&self) -> usize {
        self.coord.len() + self.prepare.len() + self.inode.len()
    }

    /// The base of the live record `key` names; `None` when it is dead.
    fn base(&self, key: JournalKey) -> Option<u64> {
        match key {
            JournalKey::Coord(tid) => self.coord.get(&tid).map(|(b, ..)| *b),
            JournalKey::Prepare(tid, fid) => self.prepare.get(&(tid, fid)).map(|(b, _)| *b),
            JournalKey::Inode(fid) => self.inode.get(&fid).map(|(b, _)| *b),
        }
    }

    /// The oldest live record's base and key: the log's low-water mark.
    /// `None` when nothing is live (every frame in the log is dead).
    fn low_water(&mut self) -> Option<(u64, JournalKey)> {
        while let Some(&(seq, key)) = self.puts.front() {
            if self.base(key) == Some(seq) {
                return Some((seq, key));
            }
            self.puts.pop_front();
        }
        None
    }
}

#[derive(Debug, Default)]
struct JournalState {
    /// Sequence number for the next appended entry (starts at 1).
    next_seq: u64,
    /// Highest sequence number appended (durable or buffered).
    appended_seq: u64,
    /// Highest sequence number known durable.
    flushed_seq: u64,
    /// A flush is underway; followers wait on the condvar instead of
    /// issuing their own (their entries ride along or the next leader
    /// covers them).
    flush_in_progress: bool,
    /// Group-commit gather window for threaded drivers (`None` = flush
    /// immediately, the deterministic driver's mode).
    group_window: Option<Duration>,
    /// Callers currently inside [`Journal::barrier`]. A flush leader only
    /// holds the gather window open when this exceeds one — a lone
    /// committer must not trade its latency for a batch that cannot form.
    barrier_entrants: u64,
    /// Materialized coordinator and prepare logs (in-core view incl.
    /// buffered entries).
    view: View,
    /// Flush count / frames flushed, for the group-commit experiments.
    flushes: u64,
    frames_flushed: u64,
    /// Records re-put by a flush to free the prefix they pinned.
    copied_forward: u64,
    /// Blocks replaced by an appended install, freed by the next flush
    /// that lands: the durable inode names them until then. Volatile: a
    /// crash forgets them, and the reboot's scavenge finds them unnamed.
    frees: Vec<PhysPage>,
    /// The transactions with a frame in the unflushed tail, each once: each
    /// flush lands every frame appended before it, and empties the list
    /// (keeping its allocation — a handful of entries between flushes).
    unlanded: Vec<TransId>,
}

impl JournalState {
    /// Notes that `tid` has a frame in the unflushed tail.
    fn unlands(&mut self, tid: TransId) {
        if !self.unlanded.contains(&tid) {
            self.unlanded.push(tid);
        }
    }
}

/// Append-only commit journal for one volume.
pub struct Journal {
    disk: Arc<SimDisk>,
    state: Mutex<JournalState>,
    flushed: Condvar,
}

impl Journal {
    pub fn new(disk: Arc<SimDisk>) -> Self {
        Journal {
            disk,
            state: Mutex::new(JournalState {
                next_seq: 1,
                ..JournalState::default()
            }),
            flushed: Condvar::new(),
        }
    }

    /// Sets the threaded driver's group-commit gather window: a barrier that
    /// becomes flush leader waits this long for concurrent committers to
    /// append before issuing the single flush.
    pub fn set_group_window(&self, window: Option<Duration>) {
        self.state.lock().group_window = window;
    }

    /// `(flushes, frames_flushed, copied_forward)` since creation — the
    /// group-commit coalescing evidence (frames per flush > 1 means barriers
    /// were merged) and how many of those frames were long-lived records
    /// re-put to free the prefix they pinned.
    pub fn flush_stats(&self) -> (u64, u64, u64) {
        let st = self.state.lock();
        (st.flushes, st.frames_flushed, st.copied_forward)
    }

    fn append_locked(
        &self,
        st: &mut JournalState,
        op: JournalOp,
        acct: &mut Account,
    ) -> Result<()> {
        let entry = JournalEntry {
            seq: st.next_seq,
            op,
        };
        let frame = entry.encode();
        let kept = kept(&entry.op, &frame);
        self.push(st, frame, acct)?;
        if let JournalKey::Coord(tid) | JournalKey::Prepare(tid, _) = entry.op.key() {
            st.unlands(tid);
        }
        st.view.apply(entry.seq, entry.op, kept);
        Ok(())
    }

    /// Hands one encoded frame, numbered `next_seq`, to the disk's tail.
    fn push(&self, st: &mut JournalState, frame: Vec<u8>, acct: &mut Account) -> Result<()> {
        self.disk.journal_append(frame, acct)?;
        st.appended_seq = st.next_seq;
        st.next_seq += 1;
        Ok(())
    }

    /// Appends the truncation of `key`'s record, if it is live (lazy: rides
    /// the next flush, like every truncation).
    fn truncate_locked(
        &self,
        st: &mut JournalState,
        key: JournalKey,
        acct: &mut Account,
    ) -> Result<()> {
        if st.view.base(key).is_none() {
            return Ok(());
        }
        self.append_locked(st, JournalOp::Truncate(key), acct)
    }

    // ----- Coordinator log -------------------------------------------------

    /// Appends a full coordinator log record. Buffered — durable at the
    /// next [`Journal::barrier`].
    pub fn coord_put(&self, rec: &CoordLogRecord, acct: &mut Account) -> Result<()> {
        let mut st = self.state.lock();
        self.append_locked(&mut st, JournalOp::CoordPut(rec.clone()), acct)
    }

    /// Appends a status-only delta for an existing coordinator record.
    pub fn coord_set_status(
        &self,
        tid: TransId,
        status: TxnStatus,
        acct: &mut Account,
    ) -> Result<()> {
        let mut st = self.state.lock();
        if !st.view.coord.contains_key(&tid) {
            return Err(Error::ProtocolViolation(format!(
                "no coordinator log for {tid}"
            )));
        }
        self.append_locked(&mut st, JournalOp::CoordStatus { tid, status }, acct)
    }

    pub fn coord_get(&self, tid: TransId) -> Option<CoordLogRecord> {
        let st = self.state.lock();
        st.view.coord.get(&tid).map(|(_, rec, _)| rec.clone())
    }

    /// Whether this journal holds `tid`'s `Committed` status on the
    /// platters — a mark, or a record born committed — and not merely in
    /// its buffered tail: an install here then needs no force of its own,
    /// because recovery redoes it from this record until its purge lands,
    /// and the purge is appended after the install.
    pub fn holds_durable_commit(&self, tid: TransId) -> bool {
        let st = self.state.lock();
        st.view.coord.get(&tid).is_some_and(|(_, rec, set_at)| {
            rec.status == TxnStatus::Committed && *set_at <= st.flushed_seq
        })
    }

    /// Whether every frame appended for `tid` — its records, their status
    /// changes and truncations, and the inodes its installs put — has
    /// landed on the platters.
    pub fn landed(&self, tid: TransId) -> bool {
        !self.state.lock().unlanded.contains(&tid)
    }

    /// Appends a coordinator-log truncation (lazy: rides the next flush; a
    /// purge lost to a crash is harmless — recovery re-resolves and purges
    /// again).
    pub fn coord_delete(&self, tid: TransId, acct: &mut Account) -> Result<()> {
        let mut st = self.state.lock();
        self.truncate_locked(&mut st, JournalKey::Coord(tid), acct)
    }

    pub fn coord_scan(&self) -> Vec<CoordLogRecord> {
        let st = self.state.lock();
        st.view
            .coord
            .values()
            .map(|(_, rec, _)| rec.clone())
            .collect()
    }

    // ----- Prepare log -----------------------------------------------------

    pub fn prepare_put(&self, rec: &PrepareLogRecord, acct: &mut Account) -> Result<()> {
        let mut st = self.state.lock();
        self.append_locked(&mut st, JournalOp::PreparePut(rec.clone()), acct)
    }

    pub fn prepare_get(&self, tid: TransId, fid: Fid) -> Option<PrepareLogRecord> {
        let st = self.state.lock();
        st.view.prepare.get(&(tid, fid)).map(|(_, rec)| rec.clone())
    }

    pub fn prepare_delete(&self, tid: TransId, fid: Fid, acct: &mut Account) -> Result<()> {
        let mut st = self.state.lock();
        self.truncate_locked(&mut st, JournalKey::Prepare(tid, fid), acct)
    }

    pub fn prepare_scan(&self) -> Vec<PrepareLogRecord> {
        let st = self.state.lock();
        st.view
            .prepare
            .values()
            .map(|(_, rec)| rec.clone())
            .collect()
    }

    // ----- Inode records ---------------------------------------------------

    /// Appends `fid`'s whole inode and, in the same append, the truncation
    /// of `settles`'s prepare record for it (when this journal holds one), so a
    /// surviving prepare record is never older than a durable install of
    /// the same file. `freed` — the blocks the install replaced — are freed
    /// by the flush that lands these frames. Buffered, like every append:
    /// [`Journal::landed`] says when they are durable.
    pub fn inode_put(
        &self,
        fid: Fid,
        inode: Vec<u8>,
        settles: TransId,
        freed: Vec<PhysPage>,
        acct: &mut Account,
    ) -> Result<()> {
        let mut st = self.state.lock();
        self.append_locked(&mut st, JournalOp::InodePut { fid, inode }, acct)?;
        st.unlands(settles);
        st.frees.extend(freed);
        self.truncate_locked(&mut st, JournalKey::Prepare(settles, fid), acct)
    }

    /// The inode bytes of `fid`'s live record, if any.
    pub fn inode_get(&self, fid: Fid) -> Option<Vec<u8>> {
        let st = self.state.lock();
        st.view
            .inode
            .get(&fid)
            .and_then(|(_, frame)| inode_body(frame))
    }

    /// Appends the truncation of `fid`'s inode record (lazy, like every
    /// truncation): an install that wrote the stable inode itself has
    /// superseded it.
    pub fn inode_delete(&self, fid: Fid, acct: &mut Account) -> Result<()> {
        let mut st = self.state.lock();
        self.truncate_locked(&mut st, JournalKey::Inode(fid), acct)
    }

    /// Every live inode record, buffered ones included.
    pub fn inode_scan(&self) -> Vec<(Fid, Vec<u8>)> {
        let st = self.state.lock();
        let body = |(fid, (_, frame)): (&Fid, &(u64, Vec<u8>))| Some((*fid, inode_body(frame)?));
        st.view.inode.iter().filter_map(body).collect()
    }

    /// Number of live records (coordinator + prepare + inode) in the
    /// in-core view.
    pub fn live_records(&self) -> usize {
        self.state.lock().view.live()
    }

    // ----- Group commit ----------------------------------------------------

    /// Makes every entry appended so far durable. This is the *only*
    /// synchronous stable barrier on the commit path: one sequential
    /// transfer flushes the whole buffered batch, and concurrent barriers
    /// coalesce — a caller whose entries were covered by an in-flight or
    /// just-completed flush returns without issuing another.
    ///
    /// Two ordering guarantees callers build on (a single-site commit
    /// forces nothing but its commit mark because of them): the batch
    /// reaches the platters as a whole-frame *prefix* in append order, even
    /// when the transfer dies, so an entry is durable whenever a later one
    /// is; and the flush is a write barrier for the block device, so every
    /// block written before it is durable once it returns.
    pub fn barrier(&self, acct: &mut Account) -> Result<()> {
        let span = VirtSpan::begin(SpanPhase::Flush, acct);
        let mut st = self.state.lock();
        st.barrier_entrants += 1;
        let res = self.barrier_locked(&mut st, acct);
        st.barrier_entrants -= 1;
        drop(st);
        span.finish(&self.disk.counters().spans, self.disk.model(), acct);
        res
    }

    fn barrier_locked(
        &self,
        st: &mut parking_lot::MutexGuard<'_, JournalState>,
        acct: &mut Account,
    ) -> Result<()> {
        let need = st.appended_seq;
        loop {
            if st.flushed_seq >= need {
                return Ok(());
            }
            if st.flush_in_progress {
                // Another thread is flushing; our entries either ride along
                // or the recheck elects us leader for the remainder.
                self.flushed.wait(st);
                continue;
            }
            st.flush_in_progress = true;
            if let Some(window) = st.group_window {
                // Gather window: let concurrent committers append into this
                // flush (the wait releases the lock). Only worth holding
                // open when another barrier caller is already racing us; a
                // lone committer flushes immediately.
                if st.barrier_entrants > 1 {
                    let deadline = std::time::Instant::now() + window;
                    let _ = self.flushed.wait_until(st, deadline);
                }
            }
            let res = self.flush_locked(st, acct);
            st.flush_in_progress = false;
            // Every waiter counted itself in under the lock, so a lone
            // committer skips the wake-up (a futex syscall with nobody on
            // the other end).
            if st.barrier_entrants > 1 {
                self.flushed.notify_all();
            }
            res?;
        }
    }

    /// One flush of everything appended so far, carrying the low-water mark.
    fn flush_locked(&self, st: &mut JournalState, acct: &mut Account) -> Result<()> {
        let low_water = self.copy_forward(st, acct)?;
        // Sequence numbers are dense, so the frames from the mark on are
        // exactly the newest `next_seq - low_water` in the log.
        let frames = self
            .disk
            .journal_flush_keep(st.next_seq - low_water, acct)?;
        st.flushed_seq = st.appended_seq;
        st.unlanded.clear();
        st.flushes += 1;
        st.frames_flushed += frames;
        for p in st.frees.drain(..) {
            self.disk.free(p);
        }
        Ok(())
    }

    /// Re-puts the oldest live records into the batch about to be flushed
    /// while the log would otherwise keep more than `2·live + RECLAIM_SLACK`
    /// frames, and returns the resulting low-water mark. A record that
    /// outlives the traffic behind it pins a prefix of dead frames; moving
    /// it to the head frees them on this flush. Each copy carries the
    /// record's current status, and lands after every entry it reflects.
    /// Ends after at most `live` copies, when the log from the mark on is
    /// the copies alone. An inode record's copy is its kept frame under the
    /// next sequence number.
    fn copy_forward(&self, st: &mut JournalState, acct: &mut Account) -> Result<u64> {
        while let Some((low_water, key)) = st.view.low_water() {
            if st.next_seq - low_water <= 2 * st.view.live() as u64 + RECLAIM_SLACK {
                return Ok(low_water);
            }
            match key {
                JournalKey::Coord(tid) => {
                    let op = JournalOp::CoordPut(st.view.coord[&tid].1.clone());
                    self.append_locked(st, op, acct)?;
                }
                JournalKey::Prepare(tid, fid) => {
                    let op = JournalOp::PreparePut(st.view.prepare[&(tid, fid)].1.clone());
                    self.append_locked(st, op, acct)?;
                }
                JournalKey::Inode(fid) => {
                    let seq = st.next_seq;
                    let frame = JournalEntry::restamp(&st.view.inode[&fid].1, seq);
                    self.push(st, frame, acct)?;
                    st.view.inode.get_mut(&fid).expect("live").0 = seq;
                    st.view.puts.push_back((seq, key));
                }
            }
            st.copied_forward += 1;
        }
        Ok(st.next_seq)
    }

    // ----- Crash / recovery ------------------------------------------------

    /// Site crash: the in-core materialized view is volatile and gone (the
    /// disk independently drops its buffered tail).
    pub fn crash(&self) {
        let mut st = self.state.lock();
        st.view = View::default();
        st.frees.clear();
        st.unlanded.clear();
        st.flush_in_progress = false;
    }

    /// Reboot: rebuilds the in-core view by one scan of the durable frames
    /// with last-writer-wins replay. Uncharged — the recovery manager
    /// charges explicitly for each record it processes.
    pub fn recover(&self) {
        let frames = self.disk.journal_peek();
        let (view, max_seq) = replay(&frames);
        let mut st = self.state.lock();
        st.view = view;
        st.next_seq = max_seq + 1;
        st.appended_seq = max_seq;
        st.flushed_seq = max_seq;
        st.flush_in_progress = false;
    }

    /// The prepare records reconstructible from the *durable* frames alone —
    /// the durability oracle's view of the prepare log (buffered entries
    /// excluded, exactly what a crash would leave).
    pub fn durable_prepare_records(&self) -> Vec<PrepareLogRecord> {
        let frames = self.disk.journal_peek();
        let prepare = replay(&frames).0.prepare;
        prepare.into_values().map(|(_, rec)| rec).collect()
    }

    /// The coordinator records reconstructible from the *durable* frames
    /// alone. A record whose status reads `Committed` here is committed no
    /// matter what the coordinator managed to announce before dying: the
    /// durable status frame — not the in-memory acknowledgement — is the
    /// commit point.
    pub fn durable_coord_records(&self) -> Vec<CoordLogRecord> {
        let frames = self.disk.journal_peek();
        let coord = replay(&frames).0.coord;
        coord.into_values().map(|(_, rec, _)| rec).collect()
    }

    /// The inode records reconstructible from the *durable* frames alone:
    /// with the stable inodes, what a reboot finds of each file.
    pub fn durable_inode_records(&self) -> Vec<(Fid, Vec<u8>)> {
        let frames = self.disk.journal_peek();
        let inode = replay(&frames).0.inode;
        let body = |(fid, (_, frame)): (Fid, (u64, Vec<u8>))| Some((fid, inode_body(&frame)?));
        inode.into_iter().filter_map(body).collect()
    }
}

/// Last-writer-wins replay of encoded frames, and the highest sequence
/// number seen. Frames that fail to decode are skipped (a torn flush drops
/// partial frames at the disk layer already; this guards the decoder
/// itself). Entries are applied in sequence order.
fn replay(frames: &[Vec<u8>]) -> (View, u64) {
    let mut entries: Vec<(JournalEntry, Option<Vec<u8>>)> = frames
        .iter()
        .filter_map(|f| {
            let ent = JournalEntry::decode(f)?;
            let kept = kept(&ent.op, f);
            Some((ent, kept))
        })
        .collect();
    entries.sort_by_key(|(e, _)| e.seq);
    let mut view = View::default();
    let mut max_seq = 0;
    for (ent, kept) in entries {
        max_seq = max_seq.max(ent.seq);
        view.apply(ent.seq, ent.op, kept);
    }
    (view, max_seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_sim::{CostModel, Counters};
    use locus_types::{Fid, SiteId, TxnStatus, VolumeId};

    fn setup() -> (Journal, Arc<SimDisk>, Account) {
        let model = Arc::new(CostModel::default());
        let disk = Arc::new(SimDisk::new(64, model, Arc::new(Counters::default())));
        (Journal::new(disk.clone()), disk, Account::new(SiteId(0)))
    }

    fn coord_rec(seq: u64, status: TxnStatus) -> CoordLogRecord {
        CoordLogRecord {
            tid: TransId::new(SiteId(0), seq),
            files: vec![],
            status,
        }
    }

    fn prep_rec(seq: u64, ino: u32) -> PrepareLogRecord {
        PrepareLogRecord {
            tid: TransId::new(SiteId(0), seq),
            coordinator: SiteId(0),
            intentions: locus_types::IntentionsList::new(Fid::new(VolumeId(0), ino), 0),
            locks: vec![],
        }
    }

    #[test]
    fn appends_are_visible_before_flush_but_not_durable() {
        let (j, _disk, mut a) = setup();
        let rec = coord_rec(1, TxnStatus::Unknown);
        j.coord_put(&rec, &mut a).unwrap();
        assert_eq!(j.coord_get(rec.tid), Some(rec.clone()));
        assert!(j.durable_prepare_records().is_empty());
        // Crash before any barrier: the record is gone.
        j.crash();
        j.recover();
        assert_eq!(j.coord_get(rec.tid), None);
    }

    #[test]
    fn barrier_coalesces_batched_entries_into_one_flush() {
        let (j, _disk, mut a) = setup();
        j.coord_put(&coord_rec(1, TxnStatus::Unknown), &mut a)
            .unwrap();
        j.coord_set_status(TransId::new(SiteId(0), 1), TxnStatus::Committed, &mut a)
            .unwrap();
        j.prepare_put(&prep_rec(1, 7), &mut a).unwrap();
        assert_eq!(a.seq_ios, 0);
        j.barrier(&mut a).unwrap();
        assert_eq!(a.seq_ios, 1, "three entries, one flush");
        let (flushes, frames, _) = j.flush_stats();
        assert_eq!((flushes, frames), (1, 3));
        // A repeat barrier with nothing new is free.
        j.barrier(&mut a).unwrap();
        assert_eq!(a.seq_ios, 1);
    }

    #[test]
    fn status_delta_survives_recovery_with_lww_replay() {
        let (j, _disk, mut a) = setup();
        let tid = TransId::new(SiteId(0), 3);
        j.coord_put(&coord_rec(3, TxnStatus::Unknown), &mut a)
            .unwrap();
        j.coord_set_status(tid, TxnStatus::Committed, &mut a)
            .unwrap();
        j.barrier(&mut a).unwrap();
        j.crash();
        j.recover();
        assert_eq!(j.coord_get(tid).unwrap().status, TxnStatus::Committed);
    }

    #[test]
    fn set_status_on_missing_record_is_a_protocol_violation() {
        let (j, _disk, mut a) = setup();
        assert!(matches!(
            j.coord_set_status(TransId::new(SiteId(0), 9), TxnStatus::Aborted, &mut a),
            Err(Error::ProtocolViolation(_))
        ));
    }

    #[test]
    fn truncation_hides_records_and_compaction_reclaims_frames() {
        let (j, disk, mut a) = setup();
        let keeper = prep_rec(100, 1);
        j.prepare_put(&keeper, &mut a).unwrap();
        j.barrier(&mut a).unwrap();
        for i in 0..8 {
            j.coord_put(&coord_rec(i, TxnStatus::Unknown), &mut a)
                .unwrap();
            j.coord_set_status(TransId::new(SiteId(0), i), TxnStatus::Committed, &mut a)
                .unwrap();
            j.coord_delete(TransId::new(SiteId(0), i), &mut a).unwrap();
        }
        let ios = a.seq_ios;
        j.barrier(&mut a).unwrap();
        assert!(j.coord_scan().is_empty());
        // 24 dead frames behind one live record: the flush that made them
        // durable also moved the record past them and released the lot, in
        // the one transfer it was already paying for.
        assert_eq!(a.seq_ios, ios + 1);
        assert_eq!(j.flush_stats(), (2, 26, 1));
        assert_eq!(disk.journal_frame_counts(), (1, 0));
        j.prepare_delete(keeper.tid, keeper.intentions.fid, &mut a)
            .unwrap();
        j.barrier(&mut a).unwrap();
        assert_eq!(disk.journal_frame_counts(), (0, 0), "nothing live");
        j.crash();
        j.recover();
        assert!(j.coord_scan().is_empty() && j.prepare_scan().is_empty());
    }

    #[test]
    fn a_failed_reclaiming_flush_keeps_every_old_frame() {
        let (j, disk, mut a) = setup();
        let old = prep_rec(1, 1);
        j.prepare_put(&old, &mut a).unwrap();
        j.barrier(&mut a).unwrap();
        // The delete makes the durable frame dead; the flush carrying that
        // news dies, so the frame — and the record — are still there.
        j.prepare_delete(old.tid, old.intentions.fid, &mut a)
            .unwrap();
        j.prepare_put(&prep_rec(2, 1), &mut a).unwrap();
        disk.arm_crash_point(disk.mutation_count(), locus_disk::CrashPointMode::Clean);
        assert_eq!(j.barrier(&mut a), Err(Error::DiskOffline));
        j.crash();
        disk.reboot();
        j.recover();
        assert_eq!(j.prepare_scan(), vec![old]);
    }

    #[test]
    fn unflushed_truncation_is_lost_but_flushed_state_survives() {
        let (j, _disk, mut a) = setup();
        let rec = prep_rec(5, 2);
        j.prepare_put(&rec, &mut a).unwrap();
        j.barrier(&mut a).unwrap();
        j.prepare_delete(rec.tid, rec.intentions.fid, &mut a)
            .unwrap();
        assert!(j.prepare_scan().is_empty(), "in-core view sees the delete");
        j.crash();
        j.recover();
        // The truncation was buffered only: the record resurfaces, and
        // recovery re-resolves it (presumed abort keeps this safe).
        assert_eq!(j.prepare_scan(), vec![rec]);
    }

    fn fid(ino: u32) -> Fid {
        Fid::new(VolumeId(0), ino)
    }

    #[test]
    fn an_install_settles_its_prepare_record_and_frees_only_once_it_lands() {
        let (j, disk, mut a) = setup();
        let rec = prep_rec(4, 3);
        j.prepare_put(&rec, &mut a).unwrap();
        j.barrier(&mut a).unwrap();
        let old = disk.alloc(&mut a).unwrap();
        j.inode_put(fid(3), vec![7, 7], rec.tid, vec![old], &mut a)
            .unwrap();
        // One append: the inode record, then the truncation it makes.
        assert_eq!(disk.journal_frame_counts(), (1, 2));
        assert!(j.prepare_scan().is_empty());
        assert_eq!(j.inode_get(fid(3)), Some(vec![7, 7]));
        assert!(disk.is_allocated(old), "the durable inode still names it");
        j.barrier(&mut a).unwrap();
        assert!(!disk.is_allocated(old));
        j.crash();
        j.recover();
        assert_eq!(j.inode_scan(), vec![(fid(3), vec![7, 7])]);
        assert!(j.prepare_scan().is_empty());
    }

    #[test]
    fn a_crash_forgets_the_frees_its_lost_records_made() {
        let (j, disk, mut a) = setup();
        let old = disk.alloc(&mut a).unwrap();
        j.inode_put(fid(1), vec![1], prep_rec(1, 1).tid, vec![old], &mut a)
            .unwrap();
        j.crash();
        disk.crash();
        j.recover();
        j.coord_put(&coord_rec(1, TxnStatus::Unknown), &mut a)
            .unwrap();
        j.barrier(&mut a).unwrap();
        assert!(disk.is_allocated(old), "freed by no flush");
        assert!(j.inode_scan().is_empty());
    }

    #[test]
    fn only_a_landed_commit_status_is_a_durable_commit() {
        let (j, _disk, mut a) = setup();
        // A mark: forced with its delta.
        let marked = TransId::new(SiteId(0), 1);
        j.coord_put(&coord_rec(1, TxnStatus::Unknown), &mut a)
            .unwrap();
        assert!(!j.holds_durable_commit(marked));
        j.coord_set_status(marked, TxnStatus::Committed, &mut a)
            .unwrap();
        assert!(!j.holds_durable_commit(marked), "buffered");
        j.barrier(&mut a).unwrap();
        assert!(j.holds_durable_commit(marked));
        // A yes whose commit is noted lazily: durable only once a flush
        // lands the note.
        let voted = TransId::new(SiteId(0), 2);
        j.coord_put(&coord_rec(2, TxnStatus::Voted), &mut a)
            .unwrap();
        j.barrier(&mut a).unwrap();
        j.coord_set_status(voted, TxnStatus::Committed, &mut a)
            .unwrap();
        assert!(!j.holds_durable_commit(voted));
        j.crash();
        j.recover();
        assert!(j.holds_durable_commit(marked));
        assert!(!j.holds_durable_commit(voted), "the note died in the tail");
        // A record born committed is durable with its frame.
        let born = TransId::new(SiteId(0), 3);
        j.coord_put(&coord_rec(3, TxnStatus::Committed), &mut a)
            .unwrap();
        assert!(!j.holds_durable_commit(born));
        j.barrier(&mut a).unwrap();
        assert!(j.holds_durable_commit(born));
    }

    #[test]
    fn a_transaction_has_landed_once_a_flush_carries_its_last_frame() {
        let (j, _disk, mut a) = setup();
        let (t1, t2) = (prep_rec(1, 1), prep_rec(2, 2));
        assert!(j.landed(t1.tid), "nothing appended");
        j.prepare_put(&t1, &mut a).unwrap();
        j.coord_put(&coord_rec(1, TxnStatus::Voted), &mut a)
            .unwrap();
        assert!(!j.landed(t1.tid));
        j.barrier(&mut a).unwrap();
        assert!(j.landed(t1.tid));
        // The install's inode counts for the transaction it settles, and so
        // does a status note; another transaction's frames do not.
        j.inode_put(fid(1), vec![1], t1.tid, vec![], &mut a)
            .unwrap();
        assert!(!j.landed(t1.tid));
        j.barrier(&mut a).unwrap();
        j.coord_set_status(t1.tid, TxnStatus::Committed, &mut a)
            .unwrap();
        j.prepare_put(&t2, &mut a).unwrap();
        assert!(!j.landed(t1.tid) && !j.landed(t2.tid));
        j.barrier(&mut a).unwrap();
        assert!(j.landed(t1.tid) && j.landed(t2.tid));
        // A frame lost with the tail never landed; the rebooted journal holds
        // nothing unflushed.
        j.coord_delete(t1.tid, &mut a).unwrap();
        j.crash();
        j.recover();
        assert!(j.landed(t1.tid));
        assert!(j.coord_get(t1.tid).is_some(), "the purge died in the tail");
    }

    #[test]
    fn an_inode_record_is_copied_forward_by_its_bytes() {
        let (j, disk, mut a) = setup();
        j.inode_put(fid(2), vec![9; 40], prep_rec(1, 2).tid, vec![], &mut a)
            .unwrap();
        j.barrier(&mut a).unwrap();
        for i in 0..8 {
            j.coord_put(&coord_rec(i, TxnStatus::Unknown), &mut a)
                .unwrap();
            j.coord_delete(TransId::new(SiteId(0), i), &mut a).unwrap();
        }
        j.barrier(&mut a).unwrap();
        // The record moved past the dead frames, which the flush released.
        assert_eq!(j.flush_stats().2, 1);
        assert_eq!(disk.journal_frame_counts(), (1, 0));
        let frame = disk.journal_peek().remove(0);
        let copy = JournalEntry::decode(&frame).unwrap();
        assert_eq!(copy.seq, 18);
        assert_eq!(
            copy.op,
            JournalOp::InodePut {
                fid: fid(2),
                inode: vec![9; 40]
            }
        );
        j.crash();
        j.recover();
        assert_eq!(j.inode_get(fid(2)), Some(vec![9; 40]));
        // A later truncation retires it for good.
        j.inode_delete(fid(2), &mut a).unwrap();
        j.barrier(&mut a).unwrap();
        j.crash();
        j.recover();
        assert_eq!(j.inode_get(fid(2)), None);
    }
}
