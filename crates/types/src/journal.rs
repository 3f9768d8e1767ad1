//! What a volume's commit journal carries: the transaction log records of
//! Section 4.2's "three levels of logs", and the typed, sequence-numbered
//! frames that append them.
//!
//! * The **coordinator log** lives on a volume at the coordinator site and
//!   holds, per transaction: the transaction id, every file it used with its
//!   storage site, and a status marker (`unknown` → `committed`/`aborted`).
//!   Writing the commit mark *is* the commit point.
//! * The **prepare log** lives on each participant volume and stores "enough
//!   of the intentions lists and lock lists for each file to guarantee that
//!   the files can be committed ... regardless of local failures".
//! * The third level — the per-file shadow pages — are ordinary data blocks
//!   named by the intentions lists.
//!
//! Section 4.4 keeps each volume's transaction logs on that volume: every
//! coordinator-log put, status transition, prepare record, and truncation is
//! one [`JournalEntry`] appended to the volume's journal region, replacing
//! the old string-keyed KV blobs (`coordlog/{site}.{seq}`) that recovery had
//! to re-parse by naming convention. Current log state is reconstructed by a
//! single scan with last-writer-wins replay on [`JournalKey`].
//!
//! A frame's size is behaviour, not presentation: a torn flush keeps a
//! whole-frame prefix of what was appended, so where a crash cuts depends on
//! how many bytes each frame takes. The layouts below are pinned by
//! `layouts_are_pinned`.

use crate::codec::{framed, from_bytes, to_bytes, Enc, Wire};
use crate::id::{Fid, SiteId, TransId};
use crate::proto::{FileListEntry, IntentionsList, LockDescriptor, TxnStatus};
use crate::wire;

/// Coordinator log record (one per transaction, Section 4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordLogRecord {
    pub tid: TransId,
    /// Every file containing records used by the transaction, with its
    /// storage site.
    pub files: Vec<FileListEntry>,
    pub status: TxnStatus,
}

wire!(struct CoordLogRecord { tid, files, status });

impl CoordLogRecord {
    pub fn encode(&self) -> Vec<u8> {
        to_bytes(self)
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        from_bytes(bytes)
    }
}

/// Prepare log record (one per file per transaction at the participant,
/// matching footnote 10's "one prepare log per file per transaction").
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareLogRecord {
    pub tid: TransId,
    pub coordinator: SiteId,
    pub intentions: IntentionsList,
    /// The lock list for the file at prepare time, so retained locks can be
    /// reinstated / released correctly during recovery.
    pub locks: Vec<LockDescriptor>,
}

wire!(struct PrepareLogRecord { tid, coordinator, intentions, locks });

impl PrepareLogRecord {
    pub fn encode(&self) -> Vec<u8> {
        to_bytes(self)
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        from_bytes(bytes)
    }
}

/// Identity of one logical log record — what the old string keys spelled as
/// `coordlog/{site}.{seq}` and `preplog/{site}.{seq}/{vol}.{ino}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JournalKey {
    /// Coordinator log record for a transaction.
    Coord(TransId),
    /// Participant prepare log record for one file of a transaction
    /// (footnote 10: "one prepare log per file per transaction").
    Prepare(TransId, Fid),
    /// A file's whole inode as a transaction's install left it: the redo of
    /// that install, newer than the volume's stable copy while it lives.
    Inode(Fid),
}

wire!(enum JournalKey { 1 => Coord(tid), 2 => Prepare(tid, fid), 3 => Inode(fid) });

/// One typed journal mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// Full coordinator log record (written once, at `begin commit`).
    CoordPut(CoordLogRecord),
    /// Status-only delta: the commit/abort mark, appended instead of
    /// rewriting the whole record in place.
    CoordStatus { tid: TransId, status: TxnStatus },
    /// Full participant prepare record.
    PreparePut(PrepareLogRecord),
    /// Log truncation: the record named by the key is purged.
    Truncate(JournalKey),
    /// A file's whole inode, encoded by the filesystem that owns the layout
    /// (the journal keeps it as bytes): last writer wins per file.
    InodePut { fid: Fid, inode: Vec<u8> },
}

// A whole log record travels behind a `u32` byte length; those four bytes
// are part of every frame size the torn-flush crash points are cut by.
wire!(enum JournalOp {
    1 => CoordPut(rec with framed),
    2 => CoordStatus { tid, status },
    3 => PreparePut(rec with framed),
    4 => Truncate(key),
    5 => InodePut { fid, inode },
});

impl JournalOp {
    /// The logical record this op targets (last-writer-wins replay key).
    pub fn key(&self) -> JournalKey {
        match self {
            JournalOp::CoordPut(rec) => JournalKey::Coord(rec.tid),
            JournalOp::CoordStatus { tid, .. } => JournalKey::Coord(*tid),
            JournalOp::PreparePut(rec) => JournalKey::Prepare(rec.tid, rec.intentions.fid),
            JournalOp::Truncate(key) => *key,
            JournalOp::InodePut { fid, .. } => JournalKey::Inode(*fid),
        }
    }
}

/// One appended journal frame: a sequence number (strictly increasing per
/// volume) plus the typed operation.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    pub seq: u64,
    pub op: JournalOp,
}

wire!(struct JournalEntry { seq, op });

impl JournalEntry {
    pub fn encode(&self) -> Vec<u8> {
        // Sized up front: a frame is appended on every commit, and an inode
        // record is a whole inode.
        let body = match &self.op {
            JournalOp::InodePut { inode, .. } => inode.len(),
            _ => 0,
        };
        let mut e = Enc::with_capacity(body + 256);
        self.put(&mut e);
        e.finish()
    }

    /// Decodes one frame; `None` on truncation, trailing garbage, or an
    /// unknown tag.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        from_bytes(bytes)
    }

    /// An encoded frame under sequence number `seq`: the op's bytes are
    /// kept as they are, so copying a record forward neither decodes nor
    /// re-encodes it. The sequence number is the frame's leading field.
    pub fn restamp(frame: &[u8], seq: u64) -> Vec<u8> {
        let head = to_bytes(&seq);
        let mut out = frame.to_vec();
        out[..head.len()].copy_from_slice(&head);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::assert_pinned;
    use crate::id::{PageNo, PhysPage, Pid, VolumeId};
    use crate::lockmode::{LockClass, LockMode};
    use crate::proto::IntentionsEntry;
    use crate::range::ByteRange;

    fn tid() -> TransId {
        TransId::new(SiteId(2), 17)
    }

    fn coord() -> CoordLogRecord {
        CoordLogRecord {
            tid: tid(),
            files: vec![
                FileListEntry {
                    fid: Fid::new(VolumeId(0), 1),
                    storage_site: SiteId(0),
                    epoch: 0,
                },
                FileListEntry {
                    fid: Fid::new(VolumeId(3), 9),
                    storage_site: SiteId(3),
                    epoch: 4,
                },
            ],
            status: TxnStatus::Unknown,
        }
    }

    /// Two intentions entries (one differenced, with ranges; one whole-page)
    /// and a retained lock.
    fn prepare() -> PrepareLogRecord {
        let mut intentions = IntentionsList::new(Fid::new(VolumeId(1), 4), 2048);
        intentions.entries.push(IntentionsEntry {
            page: PageNo(0),
            new_phys: PhysPage(55),
            old_phys: Some(PhysPage(12)),
            old_vers: 3,
            ranges: vec![ByteRange::new(40, 8), ByteRange::new(72, 16)],
        });
        intentions
            .entries
            .push(IntentionsEntry::whole(PageNo(1), PhysPage(56)));
        PrepareLogRecord {
            tid: tid(),
            coordinator: SiteId(0),
            intentions,
            locks: vec![LockDescriptor {
                pid: Pid::new(SiteId(1), 2),
                tid: Some(tid()),
                mode: LockMode::Exclusive,
                class: LockClass::Transaction,
                range: ByteRange::new(100, 50),
                retained: true,
            }],
        }
    }

    /// One frame per shape a journal can hold.
    fn frames() -> Vec<JournalEntry> {
        let ops = vec![
            JournalOp::CoordPut(coord()),
            JournalOp::CoordStatus {
                tid: tid(),
                status: TxnStatus::Committed,
            },
            JournalOp::PreparePut(prepare()),
            JournalOp::Truncate(JournalKey::Coord(tid())),
            JournalOp::Truncate(JournalKey::Prepare(tid(), Fid::new(VolumeId(1), 4))),
            JournalOp::InodePut {
                fid: Fid::new(VolumeId(1), 4),
                inode: vec![0xab, 0xcd],
            },
            JournalOp::Truncate(JournalKey::Inode(Fid::new(VolumeId(1), 4))),
        ];
        let entry = |(i, op)| JournalEntry {
            seq: 100 + i as u64,
            op,
        };
        ops.into_iter().enumerate().map(entry).collect()
    }

    /// Golden vectors, produced by the hand-written encoders this file's
    /// layouts replaced (PR 18's parent). A frame's size decides where a
    /// torn flush cuts, so a byte that moves here moves the crash-point
    /// campaigns.
    #[test]
    fn layouts_are_pinned() {
        const COORD: [&str; 4] = [
            "02000000110000000000000002000000000000000100000000000000000000000000000003000000\
             0900000003000000040000000000000000",
            "02000000110000000000000002000000000000000100000000000000000000000000000003000000\
             0900000003000000040000000000000001",
            "02000000110000000000000002000000000000000100000000000000000000000000000003000000\
             0900000003000000040000000000000002",
            "02000000110000000000000002000000000000000100000000000000000000000000000003000000\
             0900000003000000040000000000000003",
        ];
        let statuses = [
            TxnStatus::Unknown,
            TxnStatus::Committed,
            TxnStatus::Aborted,
            TxnStatus::Voted,
        ];
        for (status, golden) in statuses.into_iter().zip(COORD) {
            assert_pinned(&CoordLogRecord { status, ..coord() }, golden);
        }
        assert_pinned(
            &prepare(),
            "02000000110000000000000000000000010000000400000000080000000000000200000000000000\
             37000000010c00000003000000000000000200000028000000000000000800000000000000480000\
             00000000001000000000000000010000003800000000000000000000000000000000010000000200\
             0000010000000102000000110000000000000002006400000000000000320000000000000001",
        );
        const FRAMES: [&str; 7] = [
            "64000000000000000139000000020000001100000000000000020000000000000001000000000000\
             000000000000000000030000000900000003000000040000000000000000",
            "65000000000000000202000000110000000000000001",
            "6600000000000000039e000000020000001100000000000000000000000100000004000000000800\
             0000000000020000000000000037000000010c000000030000000000000002000000280000000000\
             00000800000000000000480000000000000010000000000000000100000038000000000000000000\
             00000000000000010000000200000001000000010200000011000000000000000200640000000000\
             0000320000000000000001",
            "67000000000000000401020000001100000000000000",
            "680000000000000004020200000011000000000000000100000004000000",
            "690000000000000005010000000400000002000000abcd",
            "6a0000000000000004030100000004000000",
        ];
        for (entry, golden) in frames().into_iter().zip(FRAMES) {
            assert_pinned(&entry, golden);
        }
    }

    #[test]
    fn a_restamped_frame_is_the_same_op_under_the_new_number() {
        for ent in frames() {
            let moved = JournalEntry::restamp(&ent.encode(), 7);
            let want = JournalEntry { seq: 7, ..ent };
            assert_eq!(moved, want.encode());
        }
    }

    #[test]
    fn coord_log_roundtrip_all_statuses() {
        let statuses = [
            TxnStatus::Unknown,
            TxnStatus::Committed,
            TxnStatus::Aborted,
            TxnStatus::Voted,
        ];
        for status in statuses {
            let rec = CoordLogRecord { status, ..coord() };
            let got = CoordLogRecord::decode(&rec.encode()).unwrap();
            assert_eq!(got, rec);
        }
    }

    #[test]
    fn coord_log_rejects_corruption() {
        let bytes = coord().encode();
        assert!(CoordLogRecord::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() = 9; // Invalid status tag.
        assert!(CoordLogRecord::decode(&bad).is_none());
        // A file count the record cannot hold: refused, not reserved for.
        let mut empty = coord();
        empty.files.clear();
        let mut bad = empty.encode();
        let count_at = bad.len() - 5; // count, then the status byte
        bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(CoordLogRecord::decode(&bad).is_none());
    }

    #[test]
    fn prepare_log_roundtrip() {
        let rec = prepare();
        let got = PrepareLogRecord::decode(&rec.encode()).unwrap();
        assert_eq!(got, rec);
    }

    #[test]
    fn prepare_log_empty_locks_ok() {
        let rec = PrepareLogRecord {
            tid: TransId::new(SiteId(0), 1),
            coordinator: SiteId(0),
            intentions: IntentionsList::new(Fid::new(VolumeId(0), 1), 0),
            locks: vec![],
        };
        assert_eq!(PrepareLogRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn entry_roundtrip_all_ops() {
        for ent in frames() {
            assert_eq!(JournalEntry::decode(&ent.encode()).unwrap(), ent);
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let ent = JournalEntry {
            seq: 9,
            op: JournalOp::Truncate(JournalKey::Coord(TransId::new(SiteId(0), 1))),
        };
        let bytes = ent.encode();
        assert!(JournalEntry::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(JournalEntry::decode(&padded).is_none());
        let mut bad = bytes;
        bad[8] = 99; // Unknown op tag.
        assert!(JournalEntry::decode(&bad).is_none());
    }

    /// A tail is refused at every level: after a bare record, and inside the
    /// length a frame gives its record.
    #[test]
    fn trailing_bytes_are_refused() {
        let mut coord_tail = coord().encode();
        coord_tail.push(0);
        assert_eq!(CoordLogRecord::decode(&coord_tail), None);
        let mut prepare_tail = prepare().encode();
        prepare_tail.push(0);
        assert_eq!(PrepareLogRecord::decode(&prepare_tail), None);
        // seq (8), tag (1), then the record's length: one more byte inside it.
        let mut frame = frames().remove(0).encode();
        let len = u32::from_le_bytes(frame[9..13].try_into().unwrap());
        frame[9..13].copy_from_slice(&(len + 1).to_le_bytes());
        frame.push(0);
        assert_eq!(JournalEntry::decode(&frame), None);
    }

    #[test]
    fn op_key_names_the_logical_record() {
        assert_eq!(JournalOp::CoordPut(coord()).key(), JournalKey::Coord(tid()));
        assert_eq!(
            JournalOp::CoordStatus {
                tid: tid(),
                status: TxnStatus::Aborted
            }
            .key(),
            JournalKey::Coord(tid())
        );
    }
}
