//! Wire encoding for [`Msg`].
//!
//! The simulated transport dispatches messages as Rust values, but a real
//! deployment serializes them; this module states the byte layout of every
//! message, once, as [`Wire`] impls that serve both directions. (No
//! serialization *format* crate is in the approved dependency list, so the
//! codec is hand-rolled over `locus_types::codec`, where the layouts of the
//! shared types these messages are built from live.)
//!
//! Layout (version 12): a version byte, then a service tag, then a variant
//! byte within the service, then the variant fields. A batch is the service
//! tag `TAG_BATCH` followed by a message count and the member encodings
//! (sans version byte); batches cannot nest, which the decoder enforces.
//!
//! A tag is never reused: a variant that is retired leaves its number
//! unassigned, so an old frame is refused rather than read as something
//! else.

use locus_types::codec::{from_bytes, to_bytes, Dec, Enc, Wire};
use locus_types::{wire, TxnStatus};

use crate::msg::{FileMsg, Held, LockMsg, Msg, ProcMsg, ReplicaMsg, TxnMsg};

/// Format version byte, bumped on incompatible layout changes. Version 2
/// introduced the service-grouped tag space and `Batch`; version 3 gave
/// `ReadReq` and `WriteReq` their `lock` flag; version 4 gave `LockReq` its
/// `fetch` flag and `LockResp` the `ReadResp` triple it answers with;
/// version 5 made `fetch` the held stamps of the ship window and `LockResp`
/// the storage site's boot epoch and one entry per window page; version 6
/// added `Delegate` and `Forget`; version 7 retired `CloseReq` and dropped
/// the fields no receiver read from `OpenReq`, `LockGranted`, `Migrate`,
/// `FileListMerge`, `ChildExited`, `MemberAdded` and `MemberExited`; version
/// 8 retired `FileListMerge`: `MemberExited` carries the member's file-list,
/// and both member reports name the member; version 9 gave `Delegate` the
/// whole file list, with its epochs, in place of one site's fids and epoch;
/// version 10 added the error `NotLanded`, a phase-two commit installed but
/// not yet durable; version 11 dropped `Delegate`'s `forget`: a `Forget`
/// rides as a batch member of its own; version 12 added `Recall`, a storage
/// site's request for the releases queued for it.
pub const WIRE_VERSION: u8 = 12;

// 2 was CloseReq, 7 and 10 were PrefetchReq / PrefetchResp (all retired) and
// stay unassigned.
wire!(enum FileMsg {
    0 => OpenReq { fid },
    1 => OpenResp { len, epoch },
    3 => ReadReq { fid, pid, owner, range, lock },
    4 => ReadResp { data, committed_len, vers },
    5 => WriteReq { fid, pid, owner, range, data, lock },
    6 => WriteResp { new_len, epoch },
    8 => CommitReq { fid, owner },
    9 => AbortReq { fid, owner },
});

// 4, 5 and 6 carried lock-control migration (retired) and stay unassigned.
wire!(struct Held { boot_epoch, repl_epoch, have });

wire!(enum LockMsg {
    0 => Req { fid, pid, tid, mode, class, range, append, wait, reply_site, fetch },
    1 => Resp { granted, epoch, committed_len, pages },
    2 => Granted { pid },
    3 => UnlockAll { fid, pid },
    7 => Recall,
});

// 1 was FileListMerge (retired) and stays unassigned.
wire!(enum ProcMsg {
    0 => Migrate { blob },
    2 => ChildExited { parent, child },
    3 => MemberAdded { top, member },
    4 => MemberExited { top, member, entries },
});

wire!(enum TxnMsg {
    0 => Prepare { tid, coordinator, files, epoch },
    1 => PrepareDone { tid, ok },
    2 => Commit { tid, files },
    3 => AbortFiles { tid, files },
    4 => AbortProc { tid, pid },
    5 => StatusInquiry { tid },
    6 => StatusAnswer { status with packed_status },
    7 => Delegate { tid, files },
    8 => Forget { tids },
});

/// `StatusAnswer`'s optional status is one byte, not the usual presence flag
/// and value: 0 when absent, otherwise the status's own tag plus one.
mod packed_status {
    use super::*;

    pub fn put(status: &Option<TxnStatus>, e: &mut Enc) {
        e.u8(status.map_or(0, |s| to_bytes(&s)[0] + 1));
    }

    pub fn get(d: &mut Dec<'_>) -> Option<Option<TxnStatus>> {
        Some(match d.u8()? {
            0 => None,
            tag => Some(from_bytes(&[tag - 1])?),
        })
    }
}

wire!(enum ReplicaMsg {
    0 => Sync { fid, new_len, epoch, pages },
    1 => Promote { fid, site, epoch },
    2 => PullReq { fid, epoch, start, have, tail },
    3 => PullResp { epoch, new_len, pages },
});

const TAG_BATCH: u8 = 5;

wire!(enum Msg {
    0 => File(m),
    1 => Lock(m),
    2 => Proc(m),
    3 => Txn(m),
    4 => Replica(m),
    TAG_BATCH => Batch(members with flat),
    6 => Ok,
    7 => Err(err),
});

/// The members of a batch: a count, then each member — none of them a
/// batch. Nested batches are a protocol violation (one level of grouping is
/// all the batching layer produces), and refusing the tag before descending
/// keeps the decoder non-recursive on hostile input.
mod flat {
    use super::*;

    pub fn put(members: &[Msg], e: &mut Enc) {
        e.seq(members.iter(), Msg::put);
    }

    pub fn get(d: &mut Dec<'_>) -> Option<Vec<Msg>> {
        d.seq(|d| {
            if d.peek()? == TAG_BATCH {
                return None;
            }
            Msg::get(d)
        })
    }
}

/// Serializes a message to bytes.
pub fn encode(msg: &Msg) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(WIRE_VERSION);
    msg.put(&mut e);
    e.finish()
}

/// Deserializes a message. Returns `None` on corruption, version skew, or a
/// nested batch.
pub fn decode(bytes: &[u8]) -> Option<Msg> {
    match bytes.split_first()? {
        (&WIRE_VERSION, body) => from_bytes(body),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::codec::assert_pinned;
    use locus_types::{
        ByteRange, Error, Fid, FileListEntry, GrantPage, LockClass, LockRequestMode, Owner,
        PageData, PageNo, Pid, SiteId, TransId, VolumeId,
    };

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
            Msg::File(FileMsg::OpenReq { fid: fid() }),
            Msg::File(FileMsg::OpenResp {
                len: 4096,
                epoch: 2,
            }),
            Msg::File(FileMsg::ReadReq {
                fid: fid(),
                pid: pid(),
                owner: Owner::Trans(tid()),
                range: ByteRange::new(10, 20),
                lock: true,
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
                lock: false,
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
                pages: vec![(PageNo(1), 9, PageData::new(vec![7u8; 16]))],
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
                    (PageNo(0), 2, PageData::new(vec![1u8; 16])),
                    (PageNo(2), 8, PageData::new(vec![2u8; 16])),
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
                fetch: Some(Held {
                    boot_epoch: 3,
                    repl_epoch: 1,
                    have: vec![9, 0],
                }),
            }),
            Msg::Lock(LockMsg::Resp {
                granted: ByteRange::new(100, 50),
                epoch: 2,
                committed_len: 30,
                pages: vec![
                    GrantPage::Shipped {
                        vers: 4,
                        clean: true,
                        data: PageData::new(vec![1, 2, 3]),
                    },
                    GrantPage::Current,
                ],
            }),
            Msg::Lock(LockMsg::Granted { pid: pid() }),
            Msg::Lock(LockMsg::UnlockAll {
                fid: fid(),
                pid: pid(),
            }),
            Msg::Lock(LockMsg::Recall),
            Msg::Proc(ProcMsg::Migrate {
                blob: vec![0xAB; 32],
            }),
            Msg::Proc(ProcMsg::ChildExited {
                parent: pid(),
                child: Pid::new(SiteId(0), 2),
            }),
            Msg::Proc(ProcMsg::MemberAdded {
                top: pid(),
                member: Pid::new(SiteId(0), 2),
            }),
            Msg::Proc(ProcMsg::MemberExited {
                top: pid(),
                member: Pid::new(SiteId(0), 2),
                entries: vec![FileListEntry {
                    fid: fid(),
                    storage_site: SiteId(4),
                    epoch: 1,
                }],
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
            Msg::Txn(TxnMsg::StatusAnswer {
                status: Some(TxnStatus::Unknown),
            }),
            Msg::Txn(TxnMsg::StatusAnswer {
                status: Some(TxnStatus::Aborted),
            }),
            Msg::Txn(TxnMsg::Delegate {
                tid: tid(),
                files: vec![FileListEntry {
                    fid: fid(),
                    storage_site: SiteId(2),
                    epoch: 5,
                }],
            }),
            Msg::Txn(TxnMsg::Forget { tids: vec![tid()] }),
            Msg::Lock(LockMsg::Req {
                fid: fid(),
                pid: pid(),
                tid: None,
                mode: LockRequestMode::Unlock,
                class: LockClass::NonTransaction,
                range: ByteRange::new(0, 1),
                append: false,
                wait: false,
                reply_site: SiteId(1),
                fetch: None,
            }),
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
            Msg::Err(Error::PermissionDenied { fid: fid() }),
            Msg::Err(Error::NoSuchFile("a/b".into())),
            Msg::Err(Error::StaleFid(fid())),
            Msg::Err(Error::BadChannel),
            Msg::Err(Error::SiteDown(SiteId(3))),
            Msg::Err(Error::Partitioned {
                from: SiteId(0),
                to: SiteId(2),
            }),
            Msg::Err(Error::NotInTransaction),
            Msg::Err(Error::ChildrenActive { remaining: 2 }),
            Msg::Err(Error::InvalidArgument("len".into())),
            Msg::Err(Error::ProtocolViolation("twice".into())),
            Msg::Err(Error::AlreadyExists("a/b".into())),
            Msg::Err(Error::Crashed(SiteId(1))),
            Msg::Err(Error::DiskOffline),
            Msg::Err(Error::NotLanded(tid())),
        ]
    }

    /// One golden vector per `sample_messages()` entry, in its order,
    /// produced by the hand-paired encoder this file's layouts replaced
    /// (PR 18's parent). A vector starts with the version byte it was
    /// recorded under: 02 for all but `ReadReq` and `WriteReq`, re-recorded
    /// at 03 when they gained `lock`, and `LockReq` (both samples) and
    /// `LockResp`, re-recorded at 04 when they gained `fetch` and the pages
    /// it asks for, and at 05 when `fetch` became the held stamps and the
    /// pages one entry each; `Delegate` and `Forget` were first recorded at
    /// 06; `OpenReq`, `LockGranted` and the five process messages were
    /// re-recorded at 07 when they lost the fields no receiver read, and
    /// `MemberAdded` and `MemberExited` at 08 when they gained the member and
    /// its file-list, and `Delegate` at 09 when it gained the whole file
    /// list, and at 0b when it lost `forget`; `NotLanded` was first
    /// recorded at 0a, and `Recall` at 0c. What is pinned is the body after
    /// it.
    #[test]
    fn layouts_are_pinned() {
        const GOLDEN: [&str; 58] = [
            "0700000200000009000000",
            "02000100100000000000000200000000000000",
            "0300030200000009000000070000000100000000030000002c000000000000000a00000000000000\
             140000000000000001",
            "020004030000000102031e00000000000000010000000400000000000000",
            "03000502000000090000000700000001000000010700000001000000000000000000000003000000\
             000000000300000009090900",
            "02000603000000000000000000000000000000",
            "0200080200000009000000010700000001000000",
            "020009020000000900000000030000002c00000000000000",
            "02040002000000090000000008000000000000030000000000000001000000010000000900000000\
             0000001000000007070707070707070707070707070707",
            "0204010200000009000000020000000400000000000000",
            "02040202000000090000000400000000000000000000000300000001000000000000000000000000\
             000000070000000000000001",
            "02040304000000000000000010000000000000020000000000000002000000000000001000000001\
             01010101010101010101010101010102000000080000000000000010000000020202020202020202\
             02020202020202",
            "0501000200000009000000070000000100000001030000002c000000000000000100640000000000\
             00003200000000000000010102000000010300000000000000010000000000000002000000090000\
             00000000000000000000000000",
            "0501016400000000000000320000000000000002000000000000001e000000000000000200000001\
             0400000000000000010300000001020300",
            "0701020700000001000000",
            "02010302000000090000000700000001000000",
            "0c0107",
            "07020020000000abababababababababababababababababababababababababababababababab",
            "07020207000000010000000200000000000000",
            "08020307000000010000000200000000000000",
            "08020407000000010000000200000000000000010000000200000009000000040000000100000000\
             000000",
            "020300030000002c00000000000000000000000100000002000000090000000500000000000000",
            "020301030000002c0000000000000000",
            "020302030000002c000000000000000200000002000000090000000100000001000000",
            "020303030000002c0000000000000000000000",
            "020304030000002c000000000000000700000001000000",
            "020305030000002c00000000000000",
            "02030602",
            "02030600",
            "02030601",
            "02030603",
            "0b0307030000002c00000000000000010000000200000009000000020000000500000000000000",
            "06030801000000030000002c00000000000000",
            "05010002000000090000000700000001000000000201000000000000000001000000000000000000\
             0100000000",
            "0205030000000300030000002c000000000000000000000001000000020000000900000000000000\
             00000000010302000000090000000700000001000000000802000000090000000107000000010000\
             00",
            "020500000000",
            "0206",
            "020700020000000900000000000000000000000400000000000000",
            "020701020000000900000000000000000000000400000000000000",
            "020702020000000900000000000000000000000400000000000000",
            "0207030700000001000000",
            "0207040700000001000000",
            "020705030000002c00000000000000",
            "02070f",
            "0207070200000009000000",
            "02070803000000612f62",
            "0207090200000009000000",
            "02070a",
            "02070b03000000",
            "02070c0000000002000000",
            "02070d",
            "02070e0200000000000000",
            "020710030000006c656e",
            "020711050000007477696365",
            "02071203000000612f62",
            "02071301000000",
            "020714",
            "0a0715030000002c00000000000000",
        ];
        let samples = sample_messages();
        assert_eq!(samples.len(), GOLDEN.len());
        for (msg, golden) in samples.iter().zip(GOLDEN) {
            let (version, body) = golden.split_at(2);
            assert!(
                ["02", "03", "05", "06", "07", "08", "09", "0a", "0b", "0c"].contains(&version),
                "the version byte"
            );
            assert_pinned(msg, body);
            assert_eq!(encode(msg)[0], WIRE_VERSION);
        }
        // Error tag 6, a bare string from before the typed tags: still read,
        // as a protocol violation, and written back under that class's own
        // tag. File tag 2, the retired `CloseReq`, and 7 and 10, the retired
        // prefetch pair: refused, here in front of what is otherwise a valid
        // `OpenResp` body.
        let legacy = [WIRE_VERSION, 7, 6, 3, 0, 0, 0, b'o', b'l', b'd'];
        let read = Msg::Err(Error::ProtocolViolation("old".into()));
        assert_eq!(decode(&legacy), Some(read.clone()));
        assert_eq!(encode(&read)[2], 17);
        for retired in [2, 7, 10] {
            let mut frame = encode(&samples[1]);
            assert_eq!(decode(&frame), Some(samples[1].clone()));
            frame[2] = retired;
            assert_eq!(decode(&frame), None);
        }
        // Proc tag 1, the retired `FileListMerge`, refused in front of a
        // valid `MemberExited` body.
        let exited = samples
            .iter()
            .find(|m| matches!(m, Msg::Proc(ProcMsg::MemberExited { .. })))
            .unwrap();
        let mut frame = encode(exited);
        frame[2] = 1;
        assert_eq!(decode(&frame), None);
    }

    /// Lock tags 4, 5 and 6 carried the lock-control migration messages.
    /// The frames the last build that spoke them would send — its three
    /// golden vectors — are refused, and so is every other body behind those
    /// tags: a retired number is a hole, not a free slot.
    #[test]
    fn retired_lock_tags_are_refused() {
        const TAG_LOCK: u8 = 1;
        let old: [&[u8]; 3] = [
            &[TAG_LOCK, 4, 2, 0, 0, 0, 9, 0, 0, 0, 4, 0, 0, 0, 1, 2, 3, 4],
            &[TAG_LOCK, 5, 2, 0, 0, 0, 9, 0, 0, 0],
            &[TAG_LOCK, 6, 2, 0, 0, 0, 5, 6],
        ];
        for body in old {
            assert_eq!(decode(&[&[WIRE_VERSION], body].concat()), None);
        }
        for msg in sample_messages() {
            let mut frame = encode(&msg);
            if frame.len() > 2 {
                frame[1] = TAG_LOCK;
                for retired in [4, 5, 6] {
                    frame[2] = retired;
                    assert_eq!(decode(&frame), None, "{msg:?} behind tag {retired}");
                }
            }
        }
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
        let small = encode(&Msg::Ok).len();
        let big = encode(&Msg::File(FileMsg::ReadResp {
            data: vec![0; 1000],
            committed_len: 1000,
            vers: vec![1],
        }))
        .len();
        assert!(big > small + 999);
    }
}
