//! Typed commit-journal entries.
//!
//! Section 4.4 keeps each volume's transaction logs on that volume; this
//! module gives those logs a *typed* on-disk representation: every
//! coordinator-log put, status transition, prepare record, and truncation is
//! one sequence-numbered [`JournalEntry`] appended to the volume's journal
//! region, replacing the old string-keyed KV blobs (`coordlog/{site}.{seq}`)
//! that recovery had to re-parse by naming convention. Current log state is
//! reconstructed by a single scan with last-writer-wins replay on
//! [`JournalKey`].

use crate::codec::{Dec, Enc};
use crate::id::{Fid, InodeNo, SiteId, TransId, VolumeId};
use crate::logrec::{CoordLogRecord, PrepareLogRecord};
use crate::proto::TxnStatus;

/// Identity of one logical log record — what the old string keys spelled as
/// `coordlog/{site}.{seq}` and `preplog/{site}.{seq}/{vol}.{ino}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JournalKey {
    /// Coordinator log record for a transaction.
    Coord(TransId),
    /// Participant prepare log record for one file of a transaction
    /// (footnote 10: "one prepare log per file per transaction").
    Prepare(TransId, Fid),
}

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
}

impl JournalOp {
    /// The logical record this op targets (last-writer-wins replay key).
    pub fn key(&self) -> JournalKey {
        match self {
            JournalOp::CoordPut(rec) => JournalKey::Coord(rec.tid),
            JournalOp::CoordStatus { tid, .. } => JournalKey::Coord(*tid),
            JournalOp::PreparePut(rec) => JournalKey::Prepare(rec.tid, rec.intentions.fid),
            JournalOp::Truncate(key) => *key,
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

const TAG_COORD_PUT: u8 = 1;
const TAG_COORD_STATUS: u8 = 2;
const TAG_PREPARE_PUT: u8 = 3;
const TAG_TRUNCATE: u8 = 4;

const KEY_COORD: u8 = 1;
const KEY_PREPARE: u8 = 2;

fn enc_tid(e: &mut Enc, t: TransId) {
    e.u32(t.site.0);
    e.u64(t.seq);
}

fn dec_tid(d: &mut Dec<'_>) -> Option<TransId> {
    Some(TransId::new(SiteId(d.u32()?), d.u64()?))
}

fn enc_status(e: &mut Enc, s: TxnStatus) {
    e.u8(match s {
        TxnStatus::Unknown => 0,
        TxnStatus::Committed => 1,
        TxnStatus::Aborted => 2,
    });
}

fn dec_status(d: &mut Dec<'_>) -> Option<TxnStatus> {
    match d.u8()? {
        0 => Some(TxnStatus::Unknown),
        1 => Some(TxnStatus::Committed),
        2 => Some(TxnStatus::Aborted),
        _ => None,
    }
}

impl JournalKey {
    fn enc(&self, e: &mut Enc) {
        match self {
            JournalKey::Coord(tid) => {
                e.u8(KEY_COORD);
                enc_tid(e, *tid);
            }
            JournalKey::Prepare(tid, fid) => {
                e.u8(KEY_PREPARE);
                enc_tid(e, *tid);
                e.u32(fid.volume.0);
                e.u32(fid.inode.0);
            }
        }
    }

    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        match d.u8()? {
            KEY_COORD => Some(JournalKey::Coord(dec_tid(d)?)),
            KEY_PREPARE => {
                let tid = dec_tid(d)?;
                let fid = Fid {
                    volume: VolumeId(d.u32()?),
                    inode: InodeNo(d.u32()?),
                };
                Some(JournalKey::Prepare(tid, fid))
            }
            _ => None,
        }
    }
}

impl JournalEntry {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.seq);
        match &self.op {
            JournalOp::CoordPut(rec) => {
                e.u8(TAG_COORD_PUT);
                e.bytes(&rec.encode());
            }
            JournalOp::CoordStatus { tid, status } => {
                e.u8(TAG_COORD_STATUS);
                enc_tid(&mut e, *tid);
                enc_status(&mut e, *status);
            }
            JournalOp::PreparePut(rec) => {
                e.u8(TAG_PREPARE_PUT);
                e.bytes(&rec.encode());
            }
            JournalOp::Truncate(key) => {
                e.u8(TAG_TRUNCATE);
                key.enc(&mut e);
            }
        }
        e.finish()
    }

    /// Decodes one frame; `None` on truncation, trailing garbage, or an
    /// unknown tag.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let seq = d.u64()?;
        let op = match d.u8()? {
            TAG_COORD_PUT => JournalOp::CoordPut(CoordLogRecord::decode(d.bytes()?)?),
            TAG_COORD_STATUS => JournalOp::CoordStatus {
                tid: dec_tid(&mut d)?,
                status: dec_status(&mut d)?,
            },
            TAG_PREPARE_PUT => JournalOp::PreparePut(PrepareLogRecord::decode(d.bytes()?)?),
            TAG_TRUNCATE => JournalOp::Truncate(JournalKey::dec(&mut d)?),
            _ => return None,
        };
        if !d.done() {
            return None;
        }
        Some(JournalEntry { seq, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FileListEntry;

    fn coord_rec() -> CoordLogRecord {
        CoordLogRecord {
            tid: TransId::new(SiteId(2), 17),
            files: vec![FileListEntry {
                fid: Fid::new(VolumeId(1), 4),
                storage_site: SiteId(1),
                epoch: 3,
            }],
            status: TxnStatus::Unknown,
        }
    }

    #[test]
    fn entry_roundtrip_all_ops() {
        let fid = Fid::new(VolumeId(1), 4);
        let tid = TransId::new(SiteId(2), 17);
        let ops = vec![
            JournalOp::CoordPut(coord_rec()),
            JournalOp::CoordStatus {
                tid,
                status: TxnStatus::Committed,
            },
            JournalOp::PreparePut(PrepareLogRecord {
                tid,
                coordinator: SiteId(0),
                intentions: crate::proto::IntentionsList::new(fid, 100),
                locks: vec![],
            }),
            JournalOp::Truncate(JournalKey::Coord(tid)),
            JournalOp::Truncate(JournalKey::Prepare(tid, fid)),
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let ent = JournalEntry { seq: i as u64, op };
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

    #[test]
    fn op_key_names_the_logical_record() {
        let tid = TransId::new(SiteId(2), 17);
        assert_eq!(
            JournalOp::CoordPut(coord_rec()).key(),
            JournalKey::Coord(tid)
        );
        assert_eq!(
            JournalOp::CoordStatus {
                tid,
                status: TxnStatus::Aborted
            }
            .key(),
            JournalKey::Coord(tid)
        );
    }
}
