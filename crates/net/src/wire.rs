//! Wire encoding for [`Msg`].
//!
//! The simulated transport dispatches messages as Rust values, but a real
//! deployment serializes them; this module proves every message round-trips
//! through a compact, versioned byte format, and gives the transport an
//! exact on-the-wire size for transfer-time charging. (No serialization
//! *format* crate is in the approved dependency list, so the codec is
//! hand-rolled over `locus_types::codec`.)
//!
//! Layout (version 2): a version byte, then a service tag, then a variant
//! byte within the service, then the variant fields. A batch is the service
//! tag `TAG_BATCH` followed by a message count and the member encodings
//! (sans version byte); batches cannot nest, which the decoder enforces.

use locus_types::codec::{Dec, Enc};
use locus_types::{
    ByteRange, Error, Fid, FileListEntry, InodeNo, LockClass, LockRequestMode, Owner, PageNo, Pid,
    SiteId, TransId, TxnStatus, VolumeId,
};

use crate::msg::{FileMsg, LockMsg, Msg, ProcMsg, ReplicaMsg, TxnMsg};

/// Format version byte, bumped on incompatible layout changes. Version 2
/// introduced the service-grouped tag space and `Batch`.
pub const WIRE_VERSION: u8 = 2;

// Top-level service tags.
const TAG_FILE: u8 = 0;
const TAG_LOCK: u8 = 1;
const TAG_PROC: u8 = 2;
const TAG_TXN: u8 = 3;
const TAG_REPLICA: u8 = 4;
const TAG_BATCH: u8 = 5;
const TAG_OK: u8 = 6;
const TAG_ERR: u8 = 7;

fn enc_fid(e: &mut Enc, f: Fid) {
    e.u32(f.volume.0);
    e.u32(f.inode.0);
}

fn dec_fid(d: &mut Dec<'_>) -> Option<Fid> {
    Some(Fid {
        volume: VolumeId(d.u32()?),
        inode: InodeNo(d.u32()?),
    })
}

fn enc_range(e: &mut Enc, r: ByteRange) {
    e.u64(r.start);
    e.u64(r.len);
}

fn dec_range(d: &mut Dec<'_>) -> Option<ByteRange> {
    Some(ByteRange::new(d.u64()?, d.u64()?))
}

fn enc_tid(e: &mut Enc, t: TransId) {
    e.u32(t.site.0);
    e.u64(t.seq);
}

fn dec_tid(d: &mut Dec<'_>) -> Option<TransId> {
    Some(TransId::new(SiteId(d.u32()?), d.u64()?))
}

fn enc_tid_opt(e: &mut Enc, t: Option<TransId>) {
    match t {
        Some(t) => {
            e.u8(1);
            enc_tid(e, t);
        }
        None => e.u8(0),
    }
}

fn dec_tid_opt(d: &mut Dec<'_>) -> Option<Option<TransId>> {
    match d.u8()? {
        0 => Some(None),
        1 => Some(Some(dec_tid(d)?)),
        _ => None,
    }
}

fn enc_owner(e: &mut Enc, o: Owner) {
    match o {
        Owner::Trans(t) => {
            e.u8(0);
            enc_tid(e, t);
        }
        Owner::Proc(p) => {
            e.u8(1);
            e.u64(p.0);
        }
    }
}

fn dec_owner(d: &mut Dec<'_>) -> Option<Owner> {
    Some(match d.u8()? {
        0 => Owner::Trans(dec_tid(d)?),
        1 => Owner::Proc(Pid(d.u64()?)),
        _ => return None,
    })
}

fn enc_status_opt(e: &mut Enc, s: Option<TxnStatus>) {
    e.u8(match s {
        None => 0,
        Some(TxnStatus::Unknown) => 1,
        Some(TxnStatus::Committed) => 2,
        Some(TxnStatus::Aborted) => 3,
    });
}

fn dec_status_opt(d: &mut Dec<'_>) -> Option<Option<TxnStatus>> {
    Some(match d.u8()? {
        0 => None,
        1 => Some(TxnStatus::Unknown),
        2 => Some(TxnStatus::Committed),
        3 => Some(TxnStatus::Aborted),
        _ => return None,
    })
}

fn enc_fids(e: &mut Enc, files: &[Fid]) {
    e.u32(files.len() as u32);
    for f in files {
        enc_fid(e, *f);
    }
}

fn dec_fids(d: &mut Dec<'_>) -> Option<Vec<Fid>> {
    d.seq(dec_fid)
}

fn enc_file(e: &mut Enc, m: &FileMsg) {
    match m {
        FileMsg::OpenReq { fid, pid, write } => {
            e.u8(0);
            enc_fid(e, *fid);
            e.u64(pid.0);
            e.u8(*write as u8);
        }
        FileMsg::OpenResp { len, epoch } => {
            e.u8(1);
            e.u64(*len);
            e.u64(*epoch);
        }
        FileMsg::CloseReq { fid, pid } => {
            e.u8(2);
            enc_fid(e, *fid);
            e.u64(pid.0);
        }
        FileMsg::ReadReq {
            fid,
            pid,
            owner,
            range,
        } => {
            e.u8(3);
            enc_fid(e, *fid);
            e.u64(pid.0);
            enc_owner(e, *owner);
            enc_range(e, *range);
        }
        FileMsg::ReadResp {
            data,
            committed_len,
            vers,
        } => {
            e.u8(4);
            e.bytes(data);
            e.u64(*committed_len);
            e.u32(vers.len() as u32);
            for v in vers {
                e.u64(*v);
            }
        }
        FileMsg::WriteReq {
            fid,
            pid,
            owner,
            range,
            data,
        } => {
            e.u8(5);
            enc_fid(e, *fid);
            e.u64(pid.0);
            enc_owner(e, *owner);
            enc_range(e, *range);
            e.bytes(data);
        }
        FileMsg::WriteResp { new_len, epoch } => {
            e.u8(6);
            e.u64(*new_len);
            e.u64(*epoch);
        }
        FileMsg::CommitReq { fid, owner } => {
            e.u8(8);
            enc_fid(e, *fid);
            enc_owner(e, *owner);
        }
        FileMsg::AbortReq { fid, owner } => {
            e.u8(9);
            enc_fid(e, *fid);
            enc_owner(e, *owner);
        }
    }
}

fn dec_file(d: &mut Dec<'_>) -> Option<FileMsg> {
    Some(match d.u8()? {
        0 => FileMsg::OpenReq {
            fid: dec_fid(d)?,
            pid: Pid(d.u64()?),
            write: d.u8()? != 0,
        },
        1 => FileMsg::OpenResp {
            len: d.u64()?,
            epoch: d.u64()?,
        },
        2 => FileMsg::CloseReq {
            fid: dec_fid(d)?,
            pid: Pid(d.u64()?),
        },
        3 => FileMsg::ReadReq {
            fid: dec_fid(d)?,
            pid: Pid(d.u64()?),
            owner: dec_owner(d)?,
            range: dec_range(d)?,
        },
        4 => {
            // The payload is copied out of the frame here because this is
            // the deserialization boundary — the frame buffer is transient.
            let data = d.bytes()?.to_vec();
            let committed_len = d.u64()?;
            let vers = d.seq(Dec::u64)?;
            FileMsg::ReadResp {
                data,
                committed_len,
                vers,
            }
        }
        5 => FileMsg::WriteReq {
            fid: dec_fid(d)?,
            pid: Pid(d.u64()?),
            owner: dec_owner(d)?,
            range: dec_range(d)?,
            data: d.bytes()?.to_vec(),
        },
        6 => FileMsg::WriteResp {
            new_len: d.u64()?,
            epoch: d.u64()?,
        },
        8 => FileMsg::CommitReq {
            fid: dec_fid(d)?,
            owner: dec_owner(d)?,
        },
        9 => FileMsg::AbortReq {
            fid: dec_fid(d)?,
            owner: dec_owner(d)?,
        },
        // 7 and 10 were PrefetchReq / PrefetchResp (retired). They stay
        // unassigned so an old frame is refused, not read as something else.
        _ => return None,
    })
}

fn enc_lock(e: &mut Enc, m: &LockMsg) {
    match m {
        LockMsg::Req {
            fid,
            pid,
            tid,
            mode,
            class,
            range,
            append,
            wait,
            reply_site,
        } => {
            e.u8(0);
            enc_fid(e, *fid);
            e.u64(pid.0);
            enc_tid_opt(e, *tid);
            e.u8(match mode {
                LockRequestMode::Shared => 0,
                LockRequestMode::Exclusive => 1,
                LockRequestMode::Unlock => 2,
            });
            e.u8(matches!(class, LockClass::NonTransaction) as u8);
            enc_range(e, *range);
            e.u8(*append as u8);
            e.u8(*wait as u8);
            e.u32(reply_site.0);
        }
        LockMsg::Resp { granted } => {
            e.u8(1);
            enc_range(e, *granted);
        }
        LockMsg::Granted { fid, pid, range } => {
            e.u8(2);
            enc_fid(e, *fid);
            e.u64(pid.0);
            enc_range(e, *range);
        }
        LockMsg::UnlockAll { fid, pid } => {
            e.u8(3);
            enc_fid(e, *fid);
            e.u64(pid.0);
        }
        LockMsg::LeaseGrant { fid, state } => {
            e.u8(4);
            enc_fid(e, *fid);
            e.bytes(state);
        }
        LockMsg::LeaseRecall { fid } => {
            e.u8(5);
            enc_fid(e, *fid);
        }
        LockMsg::LeaseState { state } => {
            e.u8(6);
            e.bytes(state);
        }
    }
}

fn dec_lock(d: &mut Dec<'_>) -> Option<LockMsg> {
    Some(match d.u8()? {
        0 => LockMsg::Req {
            fid: dec_fid(d)?,
            pid: Pid(d.u64()?),
            tid: dec_tid_opt(d)?,
            mode: match d.u8()? {
                0 => LockRequestMode::Shared,
                1 => LockRequestMode::Exclusive,
                2 => LockRequestMode::Unlock,
                _ => return None,
            },
            class: if d.u8()? != 0 {
                LockClass::NonTransaction
            } else {
                LockClass::Transaction
            },
            range: dec_range(d)?,
            append: d.u8()? != 0,
            wait: d.u8()? != 0,
            reply_site: SiteId(d.u32()?),
        },
        1 => LockMsg::Resp {
            granted: dec_range(d)?,
        },
        2 => LockMsg::Granted {
            fid: dec_fid(d)?,
            pid: Pid(d.u64()?),
            range: dec_range(d)?,
        },
        3 => LockMsg::UnlockAll {
            fid: dec_fid(d)?,
            pid: Pid(d.u64()?),
        },
        4 => LockMsg::LeaseGrant {
            fid: dec_fid(d)?,
            state: d.bytes()?.to_vec(),
        },
        5 => LockMsg::LeaseRecall { fid: dec_fid(d)? },
        6 => LockMsg::LeaseState {
            state: d.bytes()?.to_vec(),
        },
        _ => return None,
    })
}

fn enc_proc(e: &mut Enc, m: &ProcMsg) {
    match m {
        ProcMsg::Migrate { pid, blob } => {
            e.u8(0);
            e.u64(pid.0);
            e.bytes(blob);
        }
        ProcMsg::FileListMerge {
            tid,
            top,
            from,
            entries,
        } => {
            e.u8(1);
            enc_tid(e, *tid);
            e.u64(top.0);
            e.u64(from.0);
            e.u32(entries.len() as u32);
            for ent in entries {
                enc_fid(e, ent.fid);
                e.u32(ent.storage_site.0);
                e.u64(ent.epoch);
            }
        }
        ProcMsg::ChildExited { tid, top, child } => {
            e.u8(2);
            enc_tid(e, *tid);
            e.u64(top.0);
            e.u64(child.0);
        }
        ProcMsg::MemberAdded { tid, top } => {
            e.u8(3);
            enc_tid(e, *tid);
            e.u64(top.0);
        }
        ProcMsg::MemberExited { tid, top } => {
            e.u8(4);
            enc_tid(e, *tid);
            e.u64(top.0);
        }
    }
}

fn dec_proc(d: &mut Dec<'_>) -> Option<ProcMsg> {
    Some(match d.u8()? {
        0 => ProcMsg::Migrate {
            pid: Pid(d.u64()?),
            blob: d.bytes()?.to_vec(),
        },
        1 => {
            let tid = dec_tid(d)?;
            let top = Pid(d.u64()?);
            let from = Pid(d.u64()?);
            let entries = d.seq(|d| {
                Some(FileListEntry {
                    fid: dec_fid(d)?,
                    storage_site: SiteId(d.u32()?),
                    epoch: d.u64()?,
                })
            })?;
            ProcMsg::FileListMerge {
                tid,
                top,
                from,
                entries,
            }
        }
        2 => ProcMsg::ChildExited {
            tid: dec_tid(d)?,
            top: Pid(d.u64()?),
            child: Pid(d.u64()?),
        },
        3 => ProcMsg::MemberAdded {
            tid: dec_tid(d)?,
            top: Pid(d.u64()?),
        },
        4 => ProcMsg::MemberExited {
            tid: dec_tid(d)?,
            top: Pid(d.u64()?),
        },
        _ => return None,
    })
}

fn enc_txn(e: &mut Enc, m: &TxnMsg) {
    match m {
        TxnMsg::Prepare {
            tid,
            coordinator,
            files,
            epoch,
        } => {
            e.u8(0);
            enc_tid(e, *tid);
            e.u32(coordinator.0);
            enc_fids(e, files);
            e.u64(*epoch);
        }
        TxnMsg::PrepareDone { tid, ok } => {
            e.u8(1);
            enc_tid(e, *tid);
            e.u8(*ok as u8);
        }
        TxnMsg::Commit { tid, files } => {
            e.u8(2);
            enc_tid(e, *tid);
            enc_fids(e, files);
        }
        TxnMsg::AbortFiles { tid, files } => {
            e.u8(3);
            enc_tid(e, *tid);
            enc_fids(e, files);
        }
        TxnMsg::AbortProc { tid, pid } => {
            e.u8(4);
            enc_tid(e, *tid);
            e.u64(pid.0);
        }
        TxnMsg::StatusInquiry { tid } => {
            e.u8(5);
            enc_tid(e, *tid);
        }
        TxnMsg::StatusAnswer { status } => {
            e.u8(6);
            enc_status_opt(e, *status);
        }
    }
}

fn dec_txn(d: &mut Dec<'_>) -> Option<TxnMsg> {
    Some(match d.u8()? {
        0 => TxnMsg::Prepare {
            tid: dec_tid(d)?,
            coordinator: SiteId(d.u32()?),
            files: dec_fids(d)?,
            epoch: d.u64()?,
        },
        1 => TxnMsg::PrepareDone {
            tid: dec_tid(d)?,
            ok: d.u8()? != 0,
        },
        2 => TxnMsg::Commit {
            tid: dec_tid(d)?,
            files: dec_fids(d)?,
        },
        3 => TxnMsg::AbortFiles {
            tid: dec_tid(d)?,
            files: dec_fids(d)?,
        },
        4 => TxnMsg::AbortProc {
            tid: dec_tid(d)?,
            pid: Pid(d.u64()?),
        },
        5 => TxnMsg::StatusInquiry { tid: dec_tid(d)? },
        6 => TxnMsg::StatusAnswer {
            status: dec_status_opt(d)?,
        },
        _ => return None,
    })
}

fn enc_vers_pages(e: &mut Enc, pages: &[(PageNo, u64, locus_types::PageData)]) {
    e.u32(pages.len() as u32);
    for (p, v, data) in pages {
        e.u32(p.0);
        e.u64(*v);
        e.bytes(data);
    }
}

fn dec_vers_pages(d: &mut Dec<'_>) -> Option<Vec<(PageNo, u64, locus_types::PageData)>> {
    d.seq(|d| {
        let p = PageNo(d.u32()?);
        let v = d.u64()?;
        Some((p, v, locus_types::PageData::from(d.bytes()?)))
    })
}

fn enc_replica(e: &mut Enc, m: &ReplicaMsg) {
    match m {
        ReplicaMsg::Sync {
            fid,
            new_len,
            epoch,
            pages,
        } => {
            e.u8(0);
            enc_fid(e, *fid);
            e.u64(*new_len);
            e.u64(*epoch);
            enc_vers_pages(e, pages);
        }
        ReplicaMsg::Promote { fid, site, epoch } => {
            e.u8(1);
            enc_fid(e, *fid);
            e.u32(site.0);
            e.u64(*epoch);
        }
        ReplicaMsg::PullReq {
            fid,
            epoch,
            start,
            have,
            tail,
        } => {
            e.u8(2);
            enc_fid(e, *fid);
            e.u64(*epoch);
            e.u32(start.0);
            e.u32(have.len() as u32);
            for v in have {
                e.u64(*v);
            }
            e.u8(u8::from(*tail));
        }
        ReplicaMsg::PullResp {
            epoch,
            new_len,
            pages,
        } => {
            e.u8(3);
            e.u64(*epoch);
            e.u64(*new_len);
            enc_vers_pages(e, pages);
        }
    }
}

fn dec_replica(d: &mut Dec<'_>) -> Option<ReplicaMsg> {
    Some(match d.u8()? {
        0 => ReplicaMsg::Sync {
            fid: dec_fid(d)?,
            new_len: d.u64()?,
            epoch: d.u64()?,
            pages: dec_vers_pages(d)?,
        },
        1 => ReplicaMsg::Promote {
            fid: dec_fid(d)?,
            site: SiteId(d.u32()?),
            epoch: d.u64()?,
        },
        2 => {
            let fid = dec_fid(d)?;
            let epoch = d.u64()?;
            let start = PageNo(d.u32()?);
            let have = d.seq(Dec::u64)?;
            let tail = match d.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            ReplicaMsg::PullReq {
                fid,
                epoch,
                start,
                have,
                tail,
            }
        }
        3 => ReplicaMsg::PullResp {
            epoch: d.u64()?,
            new_len: d.u64()?,
            pages: dec_vers_pages(d)?,
        },
        _ => return None,
    })
}

fn enc_err(e: &mut Enc, err: &Error) {
    // Every error class has its own tag so a decoded error is the error
    // that was raised — callers match on variants for control flow, and a
    // collapse to a display string would lose that across the wire. Tags
    // 0–5 predate the typed extension and keep their layout; tag 6 remains
    // decodable (a string classified as a protocol violation) for captured
    // byte streams from before the extension.
    match err {
        Error::LockConflict { fid, range } => {
            e.u8(0);
            enc_fid(e, *fid);
            enc_range(e, *range);
        }
        Error::WouldBlock { fid, range } => {
            e.u8(1);
            enc_fid(e, *fid);
            enc_range(e, *range);
        }
        Error::AccessDenied { fid, range } => {
            e.u8(2);
            enc_fid(e, *fid);
            enc_range(e, *range);
        }
        Error::InTransit(p) => {
            e.u8(3);
            e.u64(p.0);
        }
        Error::NoSuchProcess(p) => {
            e.u8(4);
            e.u64(p.0);
        }
        Error::TxnAborted(t) => {
            e.u8(5);
            enc_tid(e, *t);
        }
        Error::PermissionDenied { fid } => {
            e.u8(7);
            enc_fid(e, *fid);
        }
        Error::NoSuchFile(name) => {
            e.u8(8);
            e.bytes(name.as_bytes());
        }
        Error::StaleFid(fid) => {
            e.u8(9);
            enc_fid(e, *fid);
        }
        Error::BadChannel => e.u8(10),
        Error::SiteDown(s) => {
            e.u8(11);
            e.u32(s.0);
        }
        Error::Partitioned { from, to } => {
            e.u8(12);
            e.u32(from.0);
            e.u32(to.0);
        }
        Error::NotInTransaction => e.u8(13),
        Error::ChildrenActive { remaining } => {
            e.u8(14);
            e.u64(*remaining as u64);
        }
        Error::VolumeFull => e.u8(15),
        Error::InvalidArgument(s) => {
            e.u8(16);
            e.bytes(s.as_bytes());
        }
        Error::ProtocolViolation(s) => {
            e.u8(17);
            e.bytes(s.as_bytes());
        }
        Error::AlreadyExists(name) => {
            e.u8(18);
            e.bytes(name.as_bytes());
        }
        Error::Crashed(s) => {
            e.u8(19);
            e.u32(s.0);
        }
        Error::DiskOffline => e.u8(20),
    }
}

fn dec_err(d: &mut Dec<'_>) -> Option<Error> {
    Some(match d.u8()? {
        0 => Error::LockConflict {
            fid: dec_fid(d)?,
            range: dec_range(d)?,
        },
        1 => Error::WouldBlock {
            fid: dec_fid(d)?,
            range: dec_range(d)?,
        },
        2 => Error::AccessDenied {
            fid: dec_fid(d)?,
            range: dec_range(d)?,
        },
        3 => Error::InTransit(Pid(d.u64()?)),
        4 => Error::NoSuchProcess(Pid(d.u64()?)),
        5 => Error::TxnAborted(dec_tid(d)?),
        6 => Error::ProtocolViolation(String::from_utf8_lossy(d.bytes()?).into_owned()),
        7 => Error::PermissionDenied { fid: dec_fid(d)? },
        8 => Error::NoSuchFile(String::from_utf8_lossy(d.bytes()?).into_owned()),
        9 => Error::StaleFid(dec_fid(d)?),
        10 => Error::BadChannel,
        11 => Error::SiteDown(SiteId(d.u32()?)),
        12 => Error::Partitioned {
            from: SiteId(d.u32()?),
            to: SiteId(d.u32()?),
        },
        13 => Error::NotInTransaction,
        14 => Error::ChildrenActive {
            remaining: d.u64()? as usize,
        },
        15 => Error::VolumeFull,
        16 => Error::InvalidArgument(String::from_utf8_lossy(d.bytes()?).into_owned()),
        17 => Error::ProtocolViolation(String::from_utf8_lossy(d.bytes()?).into_owned()),
        18 => Error::AlreadyExists(String::from_utf8_lossy(d.bytes()?).into_owned()),
        19 => Error::Crashed(SiteId(d.u32()?)),
        20 => Error::DiskOffline,
        _ => return None,
    })
}

fn enc_msg(e: &mut Enc, msg: &Msg) {
    match msg {
        Msg::File(m) => {
            e.u8(TAG_FILE);
            enc_file(e, m);
        }
        Msg::Lock(m) => {
            e.u8(TAG_LOCK);
            enc_lock(e, m);
        }
        Msg::Proc(m) => {
            e.u8(TAG_PROC);
            enc_proc(e, m);
        }
        Msg::Txn(m) => {
            e.u8(TAG_TXN);
            enc_txn(e, m);
        }
        Msg::Replica(m) => {
            e.u8(TAG_REPLICA);
            enc_replica(e, m);
        }
        Msg::Batch(msgs) => {
            e.u8(TAG_BATCH);
            e.u32(msgs.len() as u32);
            for m in msgs {
                enc_msg(e, m);
            }
        }
        Msg::Ok => e.u8(TAG_OK),
        Msg::Err(err) => {
            e.u8(TAG_ERR);
            enc_err(e, err);
        }
    }
}

fn dec_msg(d: &mut Dec<'_>, allow_batch: bool) -> Option<Msg> {
    Some(match d.u8()? {
        TAG_FILE => Msg::File(dec_file(d)?),
        TAG_LOCK => Msg::Lock(dec_lock(d)?),
        TAG_PROC => Msg::Proc(dec_proc(d)?),
        TAG_TXN => Msg::Txn(dec_txn(d)?),
        TAG_REPLICA => Msg::Replica(dec_replica(d)?),
        TAG_BATCH => {
            // Nested batches are a protocol violation: one level of grouping
            // is all the batching layer produces, and the depth bound keeps
            // the decoder non-recursive on hostile input.
            if !allow_batch {
                return None;
            }
            Msg::Batch(d.seq(|d| dec_msg(d, false))?)
        }
        TAG_OK => Msg::Ok,
        TAG_ERR => Msg::Err(dec_err(d)?),
        _ => return None,
    })
}

/// Serializes a message to bytes.
pub fn encode(msg: &Msg) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(WIRE_VERSION);
    enc_msg(&mut e, msg);
    e.finish()
}

/// Deserializes a message. Returns `None` on corruption, version skew, or a
/// nested batch.
pub fn decode(bytes: &[u8]) -> Option<Msg> {
    let mut d = Dec::new(bytes);
    if d.u8()? != WIRE_VERSION {
        return None;
    }
    let msg = dec_msg(&mut d, true)?;
    if d.done() {
        Some(msg)
    } else {
        None
    }
}

/// The exact wire size of a message, for transfer-time charging.
pub fn wire_len(msg: &Msg) -> usize {
    encode(msg).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid() -> Fid {
        Fid::new(VolumeId(2), 9)
    }

    fn pid() -> Pid {
        Pid::new(SiteId(1), 7)
    }

    fn tid() -> TransId {
        TransId::new(SiteId(3), 44)
    }

    pub(crate) fn sample_messages() -> Vec<Msg> {
        vec![
            Msg::File(FileMsg::OpenReq {
                fid: fid(),
                pid: pid(),
                write: true,
            }),
            Msg::File(FileMsg::OpenResp {
                len: 4096,
                epoch: 2,
            }),
            Msg::File(FileMsg::CloseReq {
                fid: fid(),
                pid: pid(),
            }),
            Msg::File(FileMsg::ReadReq {
                fid: fid(),
                pid: pid(),
                owner: Owner::Trans(tid()),
                range: ByteRange::new(10, 20),
            }),
            Msg::File(FileMsg::ReadResp {
                data: vec![1, 2, 3],
                committed_len: 30,
                vers: vec![4],
            }),
            Msg::File(FileMsg::WriteReq {
                fid: fid(),
                pid: pid(),
                owner: Owner::Proc(pid()),
                range: ByteRange::new(0, 3),
                data: vec![9, 9, 9],
            }),
            Msg::File(FileMsg::WriteResp {
                new_len: 3,
                epoch: 0,
            }),
            Msg::File(FileMsg::CommitReq {
                fid: fid(),
                owner: Owner::Proc(pid()),
            }),
            Msg::File(FileMsg::AbortReq {
                fid: fid(),
                owner: Owner::Trans(tid()),
            }),
            Msg::Replica(ReplicaMsg::Sync {
                fid: fid(),
                new_len: 2048,
                epoch: 3,
                pages: vec![(PageNo(1), 9, locus_types::PageData::new(vec![7u8; 16]))],
            }),
            Msg::Replica(ReplicaMsg::Promote {
                fid: fid(),
                site: SiteId(2),
                epoch: 4,
            }),
            Msg::Replica(ReplicaMsg::PullReq {
                fid: fid(),
                epoch: 4,
                start: PageNo(0),
                have: vec![1, 0, 7],
                tail: true,
            }),
            Msg::Replica(ReplicaMsg::PullResp {
                epoch: 4,
                new_len: 4096,
                pages: vec![
                    (PageNo(0), 2, locus_types::PageData::new(vec![1u8; 16])),
                    (PageNo(2), 8, locus_types::PageData::new(vec![2u8; 16])),
                ],
            }),
            Msg::Lock(LockMsg::Req {
                fid: fid(),
                pid: pid(),
                tid: Some(tid()),
                mode: LockRequestMode::Exclusive,
                class: LockClass::Transaction,
                range: ByteRange::new(100, 50),
                append: true,
                wait: true,
                reply_site: SiteId(2),
            }),
            Msg::Lock(LockMsg::Resp {
                granted: ByteRange::new(100, 50),
            }),
            Msg::Lock(LockMsg::Granted {
                fid: fid(),
                pid: pid(),
                range: ByteRange::new(0, 8),
            }),
            Msg::Lock(LockMsg::UnlockAll {
                fid: fid(),
                pid: pid(),
            }),
            Msg::Lock(LockMsg::LeaseGrant {
                fid: fid(),
                state: vec![1, 2, 3, 4],
            }),
            Msg::Lock(LockMsg::LeaseRecall { fid: fid() }),
            Msg::Lock(LockMsg::LeaseState { state: vec![5, 6] }),
            Msg::Proc(ProcMsg::Migrate {
                pid: pid(),
                blob: vec![0xAB; 32],
            }),
            Msg::Proc(ProcMsg::FileListMerge {
                tid: tid(),
                top: pid(),
                from: Pid::new(SiteId(0), 1),
                entries: vec![FileListEntry {
                    fid: fid(),
                    storage_site: SiteId(4),
                    epoch: 1,
                }],
            }),
            Msg::Proc(ProcMsg::ChildExited {
                tid: tid(),
                top: pid(),
                child: Pid::new(SiteId(0), 2),
            }),
            Msg::Proc(ProcMsg::MemberAdded {
                tid: tid(),
                top: pid(),
            }),
            Msg::Proc(ProcMsg::MemberExited {
                tid: tid(),
                top: pid(),
            }),
            Msg::Txn(TxnMsg::Prepare {
                tid: tid(),
                coordinator: SiteId(0),
                files: vec![fid()],
                epoch: 5,
            }),
            Msg::Txn(TxnMsg::PrepareDone {
                tid: tid(),
                ok: false,
            }),
            Msg::Txn(TxnMsg::Commit {
                tid: tid(),
                files: vec![fid(), Fid::new(VolumeId(1), 1)],
            }),
            Msg::Txn(TxnMsg::AbortFiles {
                tid: tid(),
                files: vec![],
            }),
            Msg::Txn(TxnMsg::AbortProc {
                tid: tid(),
                pid: pid(),
            }),
            Msg::Txn(TxnMsg::StatusInquiry { tid: tid() }),
            Msg::Txn(TxnMsg::StatusAnswer {
                status: Some(TxnStatus::Committed),
            }),
            Msg::Txn(TxnMsg::StatusAnswer { status: None }),
            Msg::Batch(vec![
                Msg::Txn(TxnMsg::Prepare {
                    tid: tid(),
                    coordinator: SiteId(0),
                    files: vec![fid()],
                    epoch: 0,
                }),
                Msg::Lock(LockMsg::UnlockAll {
                    fid: fid(),
                    pid: pid(),
                }),
                Msg::File(FileMsg::CommitReq {
                    fid: fid(),
                    owner: Owner::Proc(pid()),
                }),
            ]),
            Msg::Batch(vec![]),
            Msg::Ok,
            Msg::Err(Error::LockConflict {
                fid: fid(),
                range: ByteRange::new(0, 4),
            }),
            Msg::Err(Error::WouldBlock {
                fid: fid(),
                range: ByteRange::new(0, 4),
            }),
            Msg::Err(Error::AccessDenied {
                fid: fid(),
                range: ByteRange::new(0, 4),
            }),
            Msg::Err(Error::InTransit(pid())),
            Msg::Err(Error::NoSuchProcess(pid())),
            Msg::Err(Error::TxnAborted(tid())),
            Msg::Err(Error::VolumeFull),
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
            let got = decode(&bytes).unwrap_or_else(|| panic!("decode failed for {msg:?}"));
            // Since the typed-tag extension every error class round-trips
            // to exactly the error that was raised.
            assert_eq!(got, msg);
        }
    }

    #[test]
    fn truncation_is_rejected() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
            if bytes.len() > 2 {
                assert!(
                    decode(&bytes[..bytes.len() - 1]).is_none(),
                    "truncated decode should fail for {msg:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&Msg::Ok);
        bytes.push(0);
        assert!(decode(&bytes).is_none());
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = encode(&Msg::Ok);
        bytes[0] = WIRE_VERSION + 1;
        assert!(decode(&bytes).is_none());
    }

    #[test]
    fn nested_batch_is_rejected() {
        // Hand-build version || Batch(1) || Batch(0): a batch inside a batch.
        let mut e = Enc::new();
        e.u8(WIRE_VERSION);
        e.u8(TAG_BATCH);
        e.u32(1);
        e.u8(TAG_BATCH);
        e.u32(0);
        assert!(decode(&e.finish()).is_none());
    }

    #[test]
    fn wire_len_tracks_payload() {
        let small = wire_len(&Msg::Ok);
        let big = wire_len(&Msg::File(FileMsg::ReadResp {
            data: vec![0; 1000],
            committed_len: 1000,
            vers: vec![1],
        }));
        assert!(big > small + 999);
    }
}
