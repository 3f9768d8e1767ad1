//! Property tests for the commit journal.
//!
//! 1. `journal_entry_roundtrips`: every representable [`JournalEntry`] —
//!    arbitrary coordinator records, status deltas, prepare records with
//!    full intentions lists and lock lists, whole-inode records, and
//!    truncations of all three key kinds — survives encode → decode
//!    byte-exactly.
//!
//! 2. `journal_recovery_matches_kv_oracle`: journal-based recovery (scan +
//!    last-writer-wins replay) reconstructs state byte-identical to the old
//!    string-keyed KV layout on the same mutation sequence. The oracle
//!    stores each record as an individually rewritten blob — put stores the
//!    encoded record, a status change is a read-modify-rewrite, truncation
//!    removes the blob — which is exactly what the pre-journal layout did
//!    with one barrier per record, and an inode record is the blob the
//!    stable store would hold. Checkpoints (barrier + crash + recover,
//!    every flush releasing whatever prefix is dead) are interleaved at
//!    random positions; after a final checkpoint the journal's materialized
//!    records must encode to the very bytes the KV oracle holds.
//!
//! 3. `a_crash_on_any_flush_recovers_like_a_never_reclaiming_log`: random
//!    put / status / truncate / barrier programs over a handful of keys, so
//!    that most flushes release a dead prefix and long-lived records get
//!    copied forward. One flush — a reclaiming one whenever the program has
//!    any — dies clean, torn or with lost buffered writes. What recovery
//!    rebuilds must be exactly what a log that never frees anything would
//!    hold: the replay of every operation up to the last one that landed.
//!    The program then runs on to its end and must agree again.
//!
//! 4. `the_log_never_outgrows_twice_its_live_records`: after every flush
//!    the durable region holds at most `2·live + 6` frames, and every flush
//!    is still exactly one sequential I/O.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use locus_disk::{CrashPointMode, MutationKind, SimDisk};
use locus_sim::{Account, CostModel, Counters};
use locus_types::{
    ByteRange, CoordLogRecord, Fid, FileListEntry, IntentionsEntry, IntentionsList, JournalEntry,
    JournalKey, JournalOp, LockClass, LockDescriptor, LockMode, PageNo, PhysPage, Pid,
    PrepareLogRecord, SiteId, TransId, TxnStatus, VolumeId,
};
use locus_wal::Journal;

// ----- Strategies for the typed record universe ----------------------------
//
// Small id domains on purpose: collisions on (tid, fid) are what make
// last-writer-wins replay do real work.

fn tid() -> impl Strategy<Value = TransId> {
    (0u32..3, 0u64..6).prop_map(|(s, q)| TransId::new(SiteId(s), q))
}

fn fid() -> impl Strategy<Value = Fid> {
    (0u32..2, 0u32..4).prop_map(|(v, i)| Fid::new(VolumeId(v), i))
}

fn status() -> impl Strategy<Value = TxnStatus> {
    prop_oneof![
        Just(TxnStatus::Unknown),
        Just(TxnStatus::Committed),
        Just(TxnStatus::Aborted),
    ]
}

fn coord_rec() -> impl Strategy<Value = CoordLogRecord> {
    (tid(), vec((fid(), 0u32..4, any::<u64>()), 0..4), status()).prop_map(|(tid, files, status)| {
        CoordLogRecord {
            tid,
            files: files
                .into_iter()
                .map(|(fid, site, epoch)| FileListEntry {
                    fid,
                    storage_site: SiteId(site),
                    epoch,
                })
                .collect(),
            status,
        }
    })
}

fn maybe<T: core::fmt::Debug + Clone + 'static>(
    s: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    prop_oneof![Just(None), s.prop_map(Some)]
}

fn lock() -> impl Strategy<Value = LockDescriptor> {
    (
        any::<u64>(),
        maybe(tid()),
        0u8..3,
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(pid, ltid, mode, class, start, len, retained)| LockDescriptor {
                pid: Pid(pid),
                tid: ltid,
                mode: match mode {
                    0 => LockMode::Unix,
                    1 => LockMode::Shared,
                    _ => LockMode::Exclusive,
                },
                class: if class {
                    LockClass::Transaction
                } else {
                    LockClass::NonTransaction
                },
                range: ByteRange::new(start, len),
                retained,
            },
        )
}

fn intentions_entry() -> impl Strategy<Value = IntentionsEntry> {
    (
        any::<u32>(),
        any::<u32>(),
        maybe(any::<u32>()),
        any::<u64>(),
        vec((any::<u64>(), any::<u64>()), 0..3),
    )
        .prop_map(
            |(page, new_phys, old_phys, old_vers, ranges)| IntentionsEntry {
                page: PageNo(page),
                new_phys: PhysPage(new_phys),
                old_phys: old_phys.map(PhysPage),
                old_vers,
                ranges: ranges
                    .into_iter()
                    .map(|(s, l)| ByteRange::new(s, l))
                    .collect(),
            },
        )
}

fn prepare_rec() -> impl Strategy<Value = PrepareLogRecord> {
    (
        tid(),
        0u32..4,
        fid(),
        any::<u64>(),
        vec(intentions_entry(), 0..4),
        vec(lock(), 0..3),
    )
        .prop_map(|(tid, coord, fid, new_len, entries, locks)| {
            let mut intentions = IntentionsList::new(fid, new_len);
            intentions.entries = entries;
            PrepareLogRecord {
                tid,
                coordinator: SiteId(coord),
                intentions,
                locks,
            }
        })
}

/// A whole-inode record: the journal keeps the filesystem's bytes as given.
fn inode_put() -> impl Strategy<Value = JournalOp> {
    (fid(), vec(any::<u8>(), 0..48)).prop_map(|(fid, inode)| JournalOp::InodePut { fid, inode })
}

fn journal_op() -> impl Strategy<Value = JournalOp> {
    prop_oneof![
        coord_rec().prop_map(JournalOp::CoordPut),
        (tid(), status()).prop_map(|(tid, status)| JournalOp::CoordStatus { tid, status }),
        prepare_rec().prop_map(JournalOp::PreparePut),
        tid().prop_map(|t| JournalOp::Truncate(JournalKey::Coord(t))),
        (tid(), fid()).prop_map(|(t, f)| JournalOp::Truncate(JournalKey::Prepare(t, f))),
        inode_put(),
        fid().prop_map(|f| JournalOp::Truncate(JournalKey::Inode(f))),
    ]
}

// ----- The old string-keyed KV layout, as an oracle ------------------------

/// What the pre-journal layout held: one durable blob per logical record,
/// rewritten in place on every change.
#[derive(Default)]
struct KvOracle {
    coord: BTreeMap<TransId, Vec<u8>>,
    prepare: BTreeMap<(TransId, Fid), Vec<u8>>,
    inode: BTreeMap<Fid, Vec<u8>>,
}

impl KvOracle {
    fn apply(&mut self, op: &JournalOp) {
        match op {
            JournalOp::CoordPut(rec) => {
                self.coord.insert(rec.tid, rec.encode());
            }
            JournalOp::CoordStatus { tid, status } => {
                // The old layout's status change: fetch the blob, flip the
                // field, rewrite the blob. A missing base record means the
                // journal rejected the op too (protocol violation) — no-op.
                if let Some(blob) = self.coord.get_mut(tid) {
                    let mut rec = CoordLogRecord::decode(blob).expect("oracle blob decodes");
                    rec.status = *status;
                    *blob = rec.encode();
                }
            }
            JournalOp::PreparePut(rec) => {
                self.prepare
                    .insert((rec.tid, rec.intentions.fid), rec.encode());
            }
            JournalOp::Truncate(JournalKey::Coord(tid)) => {
                self.coord.remove(tid);
            }
            JournalOp::Truncate(JournalKey::Prepare(tid, fid)) => {
                self.prepare.remove(&(*tid, *fid));
            }
            JournalOp::InodePut { fid, inode } => {
                self.inode.insert(*fid, inode.clone());
            }
            JournalOp::Truncate(JournalKey::Inode(fid)) => {
                self.inode.remove(fid);
            }
        }
    }
}

impl KvOracle {
    fn replay<'a>(ops: impl IntoIterator<Item = &'a JournalOp>) -> Self {
        let mut oracle = KvOracle::default();
        for op in ops {
            oracle.apply(op);
        }
        oracle
    }

    /// The journal's materialized records must encode to exactly the blobs
    /// the old layout would hold, and the key sets must match.
    fn check(&self, j: &Journal) -> Result<(), TestCaseError> {
        let coord: BTreeMap<TransId, Vec<u8>> = j
            .coord_scan()
            .into_iter()
            .map(|r| (r.tid, r.encode()))
            .collect();
        prop_assert_eq!(&coord, &self.coord, "coordinator log mismatch");
        let prepare: BTreeMap<(TransId, Fid), Vec<u8>> = j
            .prepare_scan()
            .into_iter()
            .map(|r| ((r.tid, r.intentions.fid), r.encode()))
            .collect();
        prop_assert_eq!(&prepare, &self.prepare, "prepare log mismatch");
        let inode: BTreeMap<Fid, Vec<u8>> = j.inode_scan().into_iter().collect();
        prop_assert_eq!(&inode, &self.inode, "inode records mismatch");
        for (fid, bytes) in &self.inode {
            prop_assert_eq!(j.inode_get(*fid), Some(bytes.clone()));
        }
        Ok(())
    }
}

fn setup() -> (Journal, Arc<SimDisk>, Account) {
    let model = Arc::new(CostModel::default());
    let disk = Arc::new(SimDisk::new(128, model, Arc::new(Counters::default())));
    (Journal::new(disk.clone()), disk, Account::new(SiteId(0)))
}

/// Issues `op` through the journal's typed surface. `false` when the journal
/// refused it (a status change for a record that is not there).
fn issue(j: &Journal, op: &JournalOp, a: &mut Account) -> bool {
    match op {
        JournalOp::CoordPut(rec) => j.coord_put(rec, a).is_ok(),
        JournalOp::CoordStatus { tid, status } => j.coord_set_status(*tid, *status, a).is_ok(),
        JournalOp::PreparePut(rec) => j.prepare_put(rec, a).is_ok(),
        JournalOp::Truncate(JournalKey::Coord(tid)) => j.coord_delete(*tid, a).is_ok(),
        JournalOp::Truncate(JournalKey::Prepare(tid, fid)) => {
            j.prepare_delete(*tid, *fid, a).is_ok()
        }
        // Settling a transaction no strategy draws: one frame, like every
        // other op issued here.
        JournalOp::InodePut { fid, inode } => {
            let none = TransId::new(SiteId(99), 0);
            j.inode_put(*fid, inode.clone(), none, vec![], a).is_ok()
        }
        JournalOp::Truncate(JournalKey::Inode(fid)) => j.inode_delete(*fid, a).is_ok(),
    }
}

// ----- Programs that make reclamation work ----------------------------------

#[derive(Debug, Clone)]
enum Step {
    Op(JournalOp),
    Barrier,
}

/// Operations over four transactions and two files: records (inode records
/// among them) are re-put,
/// marked and truncated over and over, so dead frames pile up behind the
/// few records that stay.
fn hot_op() -> impl Strategy<Value = JournalOp> {
    let tid = || (0u64..4).prop_map(|q| TransId::new(SiteId(0), q));
    let fid = || (0u32..2).prop_map(|i| Fid::new(VolumeId(0), i));
    prop_oneof![
        2 => (coord_rec(), tid()).prop_map(|(mut rec, tid)| {
            rec.tid = tid;
            JournalOp::CoordPut(rec)
        }),
        2 => (tid(), status()).prop_map(|(tid, status)| JournalOp::CoordStatus { tid, status }),
        2 => (prepare_rec(), tid(), fid()).prop_map(|(mut rec, tid, fid)| {
            rec.tid = tid;
            rec.intentions.fid = fid;
            JournalOp::PreparePut(rec)
        }),
        3 => tid().prop_map(|t| JournalOp::Truncate(JournalKey::Coord(t))),
        3 => (tid(), fid()).prop_map(|(t, f)| JournalOp::Truncate(JournalKey::Prepare(t, f))),
        2 => (fid(), vec(any::<u8>(), 0..48))
            .prop_map(|(fid, inode)| JournalOp::InodePut { fid, inode }),
        3 => fid().prop_map(|f| JournalOp::Truncate(JournalKey::Inode(f))),
    ]
}

fn program() -> impl Strategy<Value = Vec<Step>> {
    vec(
        prop_oneof![4 => hot_op().prop_map(Step::Op), 1 => Just(Step::Barrier)],
        1..120,
    )
}

fn crash_mode() -> impl Strategy<Value = CrashPointMode> {
    prop_oneof![
        Just(CrashPointMode::Clean),
        (0usize..600).prop_map(|keep_bytes| CrashPointMode::Torn { keep_bytes }),
        (0usize..4).prop_map(|max_rollback| CrashPointMode::LostBuffer { max_rollback }),
    ]
}

/// The mutation index and released-frame count of every flush in a clean
/// run of `steps` (final barrier included).
fn flushes_of(steps: &[Step]) -> Vec<(u64, u64)> {
    let (j, disk, mut a) = setup();
    disk.set_recording(true);
    for step in steps {
        match step {
            Step::Op(op) => {
                issue(&j, op, &mut a);
            }
            Step::Barrier => j.barrier(&mut a).unwrap(),
        }
    }
    j.barrier(&mut a).unwrap();
    disk.take_mutation_log()
        .iter()
        .enumerate()
        .filter_map(|(i, m)| match m {
            MutationKind::JournalFlush { released, .. } => Some((i as u64, *released)),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Encode → decode is the identity on every representable entry.
    #[test]
    fn journal_entry_roundtrips(seq in any::<u64>(), op in journal_op()) {
        let ent = JournalEntry { seq, op };
        let bytes = ent.encode();
        prop_assert_eq!(JournalEntry::decode(&bytes), Some(ent));
        // A truncated frame must never decode (torn-tail safety).
        if !bytes.is_empty() {
            prop_assert_eq!(JournalEntry::decode(&bytes[..bytes.len() - 1]), None);
        }
    }

    /// Journal recovery ≡ the old KV layout, byte for byte. `checkpoints`
    /// picks positions where the run flushes, crashes, and recovers
    /// mid-sequence (everything durable, so nothing may be lost — and
    /// compaction may rewrite the region under the live records).
    #[test]
    fn journal_recovery_matches_kv_oracle(
        ops in vec(journal_op(), 1..40),
        checkpoints in vec(any::<bool>(), 40),
    ) {
        let (j, _disk, mut a) = setup();
        let mut oracle = KvOracle::default();
        for (i, op) in ops.iter().enumerate() {
            if issue(&j, op, &mut a) {
                oracle.apply(op);
            }
            if checkpoints[i] {
                j.barrier(&mut a).unwrap();
                j.crash();
                j.recover();
            }
        }
        j.barrier(&mut a).unwrap();
        j.crash();
        j.recover();
        oracle.check(&j)?;
    }

    /// A flush that dies — with a low-water mark to deliver whenever the
    /// program has such a flush — recovers to the replay of exactly the
    /// operations that landed, as if nothing had ever been released.
    #[test]
    fn a_crash_on_any_flush_recovers_like_a_never_reclaiming_log(
        steps in program(),
        pick in any::<u64>(),
        mode in crash_mode(),
    ) {
        let flushes = flushes_of(&steps);
        let reclaiming: Vec<u64> =
            flushes.iter().filter(|(_, released)| *released > 0).map(|(at, _)| *at).collect();
        let candidates: Vec<u64> = if reclaiming.is_empty() {
            flushes.iter().map(|(at, _)| *at).collect()
        } else {
            reclaiming
        };
        if candidates.is_empty() {
            return Ok(());
        }
        let (j, disk, mut a) = setup();
        disk.arm_crash_point(candidates[(pick % candidates.len() as u64) as usize], mode);

        // The never-reclaiming log: every appended operation under the
        // sequence number the journal gave it (copies made by a flush take
        // numbers too), and how many of them are durable.
        let mut log: Vec<(u64, &JournalOp)> = Vec::new();
        let (mut next_seq, mut durable) = (1u64, 0usize);
        let mut crashed = false;
        let mut oracle = KvOracle::default();
        for step in steps.iter().chain([&Step::Barrier]) {
            match step {
                Step::Op(op) => {
                    let buffered = disk.journal_frame_counts().1;
                    let accepted = issue(&j, op, &mut a);
                    if crashed {
                        if accepted {
                            oracle.apply(op);
                        }
                    } else if disk.journal_frame_counts().1 > buffered {
                        log.push((next_seq, op));
                        next_seq += 1;
                    }
                }
                Step::Barrier => {
                    let copies = j.flush_stats().2;
                    match j.barrier(&mut a) {
                        Ok(()) if crashed => {}
                        Ok(()) => {
                            durable = log.len();
                            next_seq += j.flush_stats().2 - copies;
                        }
                        Err(_) => {
                            prop_assert!(!crashed && disk.tripped(), "one crash, the armed one");
                            crashed = true;
                            j.crash();
                            disk.reboot();
                            j.recover();
                            let landed_seq = disk
                                .journal_peek()
                                .iter()
                                .filter_map(|f| JournalEntry::decode(f))
                                .map(|e| e.seq)
                                .max()
                                .unwrap_or(0);
                            let landed = log.iter().filter(|(seq, _)| *seq <= landed_seq).count();
                            if !matches!(mode, CrashPointMode::Torn { .. }) {
                                prop_assert!(landed <= durable, "only a torn flush lands anything");
                            }
                            oracle = KvOracle::replay(
                                log[..landed.max(durable)].iter().map(|(_, op)| *op),
                            );
                            oracle.check(&j)?;
                        }
                    }
                }
            }
        }
        prop_assert!(crashed, "the armed flush was reached");
        j.crash();
        j.recover();
        oracle.check(&j)?;
    }

    /// The space bound: a flush leaves at most `2·live + 6` frames durable
    /// (6 is the journal's slack), and costs one sequential I/O whatever it
    /// released or copied forward.
    #[test]
    fn the_log_never_outgrows_twice_its_live_records(steps in program()) {
        let (j, disk, mut a) = setup();
        for step in &steps {
            match step {
                Step::Op(op) => {
                    issue(&j, op, &mut a);
                }
                Step::Barrier => {
                    j.barrier(&mut a).unwrap();
                    let (durable, buffered) = disk.journal_frame_counts();
                    prop_assert_eq!(buffered, 0);
                    prop_assert!(
                        durable <= 2 * j.live_records() as u64 + 6,
                        "{durable} frames for {} live records", j.live_records()
                    );
                    prop_assert_eq!(a.seq_ios, j.flush_stats().0);
                }
            }
        }
    }
}

/// One prepare record stays live while 10 000 commits come and go behind
/// it: it is copied forward every few commits, inside flushes the commits
/// were paying for anyway, and the log stays a handful of frames long.
#[test]
fn a_record_held_across_ten_thousand_commits_is_copied_forward() {
    let (j, disk, mut a) = setup();
    let rec = |seq: u64, ino: u32| PrepareLogRecord {
        tid: TransId::new(SiteId(0), seq),
        coordinator: SiteId(0),
        intentions: IntentionsList::new(Fid::new(VolumeId(0), ino), seq),
        locks: vec![],
    };
    let keeper = rec(0, 9);
    j.prepare_put(&keeper, &mut a).unwrap();
    let bounded = |j: &Journal| {
        let durable = disk.journal_frame_counts().0;
        assert!(durable <= 2 * j.live_records() as u64 + 6, "{durable}");
    };
    for n in 1..=10_000u64 {
        // One local commit's journal traffic: prepare, flush; coordinator
        // record and commit mark, flush; lazy truncations, flush.
        let tid = TransId::new(SiteId(0), n);
        j.prepare_put(&rec(n, 1), &mut a).unwrap();
        j.barrier(&mut a).unwrap();
        bounded(&j);
        let coord = CoordLogRecord {
            tid,
            files: vec![],
            status: TxnStatus::Unknown,
        };
        j.coord_put(&coord, &mut a).unwrap();
        j.coord_set_status(tid, TxnStatus::Committed, &mut a)
            .unwrap();
        j.barrier(&mut a).unwrap();
        bounded(&j);
        j.prepare_delete(tid, Fid::new(VolumeId(0), 1), &mut a)
            .unwrap();
        j.coord_delete(tid, &mut a).unwrap();
        j.barrier(&mut a).unwrap();
        bounded(&j);
    }
    let (flushes, frames, copied) = j.flush_stats();
    assert_eq!(flushes, 30_000);
    assert_eq!(
        a.seq_ios, flushes,
        "reclamation never costs an I/O of its own"
    );
    assert!(
        (1_000..=10_000).contains(&copied),
        "copied forward {copied} times: often enough to bound the log, less than once a commit"
    );
    assert_eq!(frames, 1 + 50_000 + copied);
    j.crash();
    j.recover();
    assert_eq!(j.prepare_scan(), vec![keeper]);
    assert!(j.coord_scan().is_empty());
}
