//! Transaction log records (Section 4.2's "three levels of logs").
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

use crate::codec::{Dec, Enc};
use crate::id::{Fid, InodeNo, PageNo, PhysPage, Pid, SiteId, TransId, VolumeId};
use crate::lockmode::{LockClass, LockMode};
use crate::proto::{FileListEntry, IntentionsEntry, IntentionsList, LockDescriptor, TxnStatus};
use crate::range::ByteRange;

/// Coordinator log record (one per transaction, Section 4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordLogRecord {
    pub tid: TransId,
    /// Every file containing records used by the transaction, with its
    /// storage site.
    pub files: Vec<FileListEntry>,
    pub status: TxnStatus,
}

impl CoordLogRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_tid(&mut e, self.tid);
        e.u32(self.files.len() as u32);
        for f in &self.files {
            e.u32(f.fid.volume.0);
            e.u32(f.fid.inode.0);
            e.u32(f.storage_site.0);
            e.u64(f.epoch);
        }
        e.u8(match self.status {
            TxnStatus::Unknown => 0,
            TxnStatus::Committed => 1,
            TxnStatus::Aborted => 2,
        });
        e.finish()
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let tid = dec_tid(&mut d)?;
        let files = d.seq(|d| {
            Some(FileListEntry {
                fid: Fid {
                    volume: VolumeId(d.u32()?),
                    inode: InodeNo(d.u32()?),
                },
                storage_site: SiteId(d.u32()?),
                epoch: d.u64()?,
            })
        })?;
        let status = match d.u8()? {
            0 => TxnStatus::Unknown,
            1 => TxnStatus::Committed,
            2 => TxnStatus::Aborted,
            _ => return None,
        };
        Some(CoordLogRecord { tid, files, status })
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

impl PrepareLogRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_tid(&mut e, self.tid);
        e.u32(self.coordinator.0);
        e.u32(self.intentions.fid.volume.0);
        e.u32(self.intentions.fid.inode.0);
        e.u64(self.intentions.new_len);
        e.u32(self.intentions.entries.len() as u32);
        for ent in &self.intentions.entries {
            e.u32(ent.page.0);
            e.u32(ent.new_phys.0);
            match ent.old_phys {
                Some(p) => {
                    e.u8(1);
                    e.u32(p.0);
                }
                None => e.u8(0),
            }
            e.u64(ent.old_vers);
            e.u32(ent.ranges.len() as u32);
            for r in &ent.ranges {
                e.u64(r.start);
                e.u64(r.len);
            }
        }
        e.u32(self.locks.len() as u32);
        for l in &self.locks {
            e.u64(l.pid.0);
            match l.tid {
                Some(t) => {
                    e.u8(1);
                    enc_tid(&mut e, t);
                }
                None => e.u8(0),
            }
            e.u8(match l.mode {
                LockMode::Unix => 0,
                LockMode::Shared => 1,
                LockMode::Exclusive => 2,
            });
            e.u8(match l.class {
                LockClass::Transaction => 0,
                LockClass::NonTransaction => 1,
            });
            e.u64(l.range.start);
            e.u64(l.range.len);
            e.u8(l.retained as u8);
        }
        e.finish()
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let tid = dec_tid(&mut d)?;
        let coordinator = SiteId(d.u32()?);
        let fid = Fid {
            volume: VolumeId(d.u32()?),
            inode: InodeNo(d.u32()?),
        };
        let new_len = d.u64()?;
        let mut intentions = IntentionsList::new(fid, new_len);
        intentions.entries = d.seq(|d| {
            let page = PageNo(d.u32()?);
            let new_phys = PhysPage(d.u32()?);
            let old_phys = match d.u8()? {
                1 => Some(PhysPage(d.u32()?)),
                0 => None,
                _ => return None,
            };
            let old_vers = d.u64()?;
            let ranges = d.seq(|d| Some(ByteRange::new(d.u64()?, d.u64()?)))?;
            Some(IntentionsEntry {
                page,
                new_phys,
                old_phys,
                old_vers,
                ranges,
            })
        })?;
        let locks = d.seq(|d| {
            let pid = Pid(d.u64()?);
            let ltid = match d.u8()? {
                1 => Some(dec_tid(d)?),
                0 => None,
                _ => return None,
            };
            let mode = match d.u8()? {
                0 => LockMode::Unix,
                1 => LockMode::Shared,
                2 => LockMode::Exclusive,
                _ => return None,
            };
            let class = match d.u8()? {
                0 => LockClass::Transaction,
                1 => LockClass::NonTransaction,
                _ => return None,
            };
            let range = ByteRange::new(d.u64()?, d.u64()?);
            let retained = d.u8()? != 0;
            Some(LockDescriptor {
                pid,
                tid: ltid,
                mode,
                class,
                range,
                retained,
            })
        })?;
        Some(PrepareLogRecord {
            tid,
            coordinator,
            intentions,
            locks,
        })
    }
}

fn enc_tid(e: &mut Enc, t: TransId) {
    e.u32(t.site.0);
    e.u64(t.seq);
}

fn dec_tid(d: &mut Dec<'_>) -> Option<TransId> {
    Some(TransId::new(SiteId(d.u32()?), d.u64()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord() -> CoordLogRecord {
        CoordLogRecord {
            tid: TransId::new(SiteId(2), 17),
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

    #[test]
    fn coord_log_roundtrip_all_statuses() {
        for status in [TxnStatus::Unknown, TxnStatus::Committed, TxnStatus::Aborted] {
            let mut rec = coord();
            rec.status = status;
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
        let rec = PrepareLogRecord {
            tid: TransId::new(SiteId(1), 3),
            coordinator: SiteId(0),
            intentions,
            locks: vec![LockDescriptor {
                pid: Pid::new(SiteId(1), 2),
                tid: Some(TransId::new(SiteId(1), 3)),
                mode: LockMode::Exclusive,
                class: LockClass::Transaction,
                range: ByteRange::new(100, 50),
                retained: true,
            }],
        };
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
}
