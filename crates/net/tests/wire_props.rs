//! Wire-codec property tests: arbitrary messages from every service enum —
//! and arbitrary `Msg::Batch` groupings of them — must round-trip through
//! `encode`/`decode` bit-exactly. Bytes that are not an encoding decode to
//! `None`: they never panic and never make the decoder reserve more than the
//! frame could hold.

use proptest::collection::vec;
use proptest::prelude::*;

use locus_net::{decode_msg, encode_msg, FileMsg, Held, LockMsg, Msg, ProcMsg, ReplicaMsg, TxnMsg};
use locus_types::{
    ByteRange, Error, Fid, FileListEntry, GrantPage, LockClass, LockRequestMode, Owner, PageData,
    PageNo, Pid, SiteId, TransId, TxnStatus, VolumeId,
};

/// The file and process services' tags on the wire.
const TAG_FILE: u8 = 0;
const TAG_PROC: u8 = 2;

fn site() -> impl Strategy<Value = SiteId> {
    (0u32..8).prop_map(SiteId)
}

fn fid() -> impl Strategy<Value = Fid> {
    (0u32..8, 0u32..1000).prop_map(|(v, i)| Fid::new(VolumeId(v), i))
}

fn pid() -> impl Strategy<Value = Pid> {
    (0u32..8, 1u32..1000).prop_map(|(s, n)| Pid::new(SiteId(s), n))
}

fn tid() -> impl Strategy<Value = TransId> {
    (0u32..8, any::<u64>()).prop_map(|(s, n)| TransId::new(SiteId(s), n))
}

fn owner() -> BoxedStrategy<Owner> {
    prop_oneof![tid().prop_map(Owner::Trans), pid().prop_map(Owner::Proc),].boxed()
}

fn range() -> impl Strategy<Value = ByteRange> {
    (any::<u64>(), any::<u64>()).prop_map(|(s, l)| ByteRange::new(s, l))
}

fn fids() -> impl Strategy<Value = Vec<Fid>> {
    vec(fid(), 0..6)
}

fn payload() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..64)
}

fn page_data() -> impl Strategy<Value = PageData> {
    payload().prop_map(PageData::new)
}

fn file_msg() -> BoxedStrategy<FileMsg> {
    prop_oneof![
        fid().prop_map(|fid| FileMsg::OpenReq { fid }),
        (any::<u64>(), any::<u64>()).prop_map(|(len, epoch)| FileMsg::OpenResp { len, epoch }),
        (fid(), pid(), owner(), range(), any::<bool>()).prop_map(
            |(fid, pid, owner, range, lock)| FileMsg::ReadReq {
                fid,
                pid,
                owner,
                range,
                lock,
            }
        ),
        (payload(), any::<u64>(), vec(any::<u64>(), 0..4)).prop_map(
            |(data, committed_len, vers)| FileMsg::ReadResp {
                data,
                committed_len,
                vers,
            }
        ),
        (fid(), pid(), owner(), range(), payload(), any::<bool>()).prop_map(
            |(fid, pid, owner, range, data, lock)| FileMsg::WriteReq {
                fid,
                pid,
                owner,
                range,
                data,
                lock,
            }
        ),
        (any::<u64>(), any::<u64>())
            .prop_map(|(new_len, epoch)| FileMsg::WriteResp { new_len, epoch }),
        (fid(), owner()).prop_map(|(fid, owner)| FileMsg::CommitReq { fid, owner }),
        (fid(), owner()).prop_map(|(fid, owner)| FileMsg::AbortReq { fid, owner }),
    ]
    .boxed()
}

fn held() -> impl Strategy<Value = Option<Held>> {
    let held = (any::<u64>(), any::<u64>(), vec(any::<u64>(), 0..5)).prop_map(
        |(boot_epoch, repl_epoch, have)| Held {
            boot_epoch,
            repl_epoch,
            have,
        },
    );
    prop_oneof![Just(None), held.prop_map(Some)]
}

fn grant_page() -> impl Strategy<Value = GrantPage> {
    prop_oneof![
        Just(GrantPage::Current),
        (any::<u64>(), any::<bool>(), page_data())
            .prop_map(|(vers, clean, data)| GrantPage::Shipped { vers, clean, data }),
    ]
}

fn lock_msg() -> BoxedStrategy<LockMsg> {
    let req = (
        fid(),
        pid(),
        prop_oneof![Just(None), tid().prop_map(Some)],
        prop_oneof![
            Just(LockRequestMode::Shared),
            Just(LockRequestMode::Exclusive),
            Just(LockRequestMode::Unlock),
        ],
        prop_oneof![
            Just(LockClass::Transaction),
            Just(LockClass::NonTransaction)
        ],
        range(),
        (any::<bool>(), any::<bool>(), held()),
        site(),
    )
        .prop_map(
            |(fid, pid, tid, mode, class, range, (append, wait, fetch), reply_site)| LockMsg::Req {
                fid,
                pid,
                tid,
                mode,
                class,
                range,
                append,
                wait,
                reply_site,
                fetch,
            },
        );
    prop_oneof![
        req,
        (range(), any::<u64>(), any::<u64>(), vec(grant_page(), 0..5)).prop_map(
            |(granted, epoch, committed_len, pages)| LockMsg::Resp {
                granted,
                epoch,
                committed_len,
                pages,
            }
        ),
        pid().prop_map(|pid| LockMsg::Granted { pid }),
        (fid(), pid()).prop_map(|(fid, pid)| LockMsg::UnlockAll { fid, pid }),
    ]
    .boxed()
}

fn entries() -> impl Strategy<Value = Vec<FileListEntry>> {
    vec(
        (fid(), site(), any::<u64>()).prop_map(|(fid, storage_site, epoch)| FileListEntry {
            fid,
            storage_site,
            epoch,
        }),
        0..5,
    )
}

fn proc_msg() -> BoxedStrategy<ProcMsg> {
    prop_oneof![
        payload().prop_map(|blob| ProcMsg::Migrate { blob }),
        (pid(), pid()).prop_map(|(parent, child)| ProcMsg::ChildExited { parent, child }),
        (pid(), pid()).prop_map(|(top, member)| ProcMsg::MemberAdded { top, member }),
        (pid(), pid(), entries()).prop_map(|(top, member, entries)| ProcMsg::MemberExited {
            top,
            member,
            entries
        }),
    ]
    .boxed()
}

fn txn_msg() -> BoxedStrategy<TxnMsg> {
    let status = prop_oneof![
        Just(None),
        Just(Some(TxnStatus::Unknown)),
        Just(Some(TxnStatus::Committed)),
        Just(Some(TxnStatus::Aborted)),
        Just(Some(TxnStatus::Voted)),
    ];
    prop_oneof![
        (tid(), site(), fids(), any::<u64>()).prop_map(|(tid, coordinator, files, epoch)| {
            TxnMsg::Prepare {
                tid,
                coordinator,
                files,
                epoch,
            }
        }),
        (tid(), any::<bool>()).prop_map(|(tid, ok)| TxnMsg::PrepareDone { tid, ok }),
        (tid(), fids()).prop_map(|(tid, files)| TxnMsg::Commit { tid, files }),
        (tid(), fids()).prop_map(|(tid, files)| TxnMsg::AbortFiles { tid, files }),
        (tid(), pid()).prop_map(|(tid, pid)| TxnMsg::AbortProc { tid, pid }),
        tid().prop_map(|tid| TxnMsg::StatusInquiry { tid }),
        status.prop_map(|status| TxnMsg::StatusAnswer { status }),
        (tid(), entries(), vec(tid(), 0..4)).prop_map(|(tid, files, forget)| TxnMsg::Delegate {
            tid,
            files,
            forget
        }),
        vec(tid(), 0..4).prop_map(|tids| TxnMsg::Forget { tids }),
    ]
    .boxed()
}

fn vers_pages() -> impl Strategy<Value = Vec<(PageNo, u64, PageData)>> {
    vec(
        ((0u32..64).prop_map(PageNo), any::<u64>(), page_data()),
        0..4,
    )
}

fn replica_msg() -> BoxedStrategy<ReplicaMsg> {
    prop_oneof![
        (fid(), any::<u64>(), any::<u64>(), vers_pages()).prop_map(
            |(fid, new_len, epoch, pages)| ReplicaMsg::Sync {
                fid,
                new_len,
                epoch,
                pages,
            }
        ),
        (fid(), site(), any::<u64>()).prop_map(|(fid, site, epoch)| ReplicaMsg::Promote {
            fid,
            site,
            epoch
        }),
        (
            fid(),
            any::<u64>(),
            (0u32..64).prop_map(PageNo),
            vec(any::<u64>(), 0..8),
            any::<bool>(),
        )
            .prop_map(|(fid, epoch, start, have, tail)| ReplicaMsg::PullReq {
                fid,
                epoch,
                start,
                have,
                tail,
            }),
        (any::<u64>(), any::<u64>(), vers_pages()).prop_map(|(epoch, new_len, pages)| {
            ReplicaMsg::PullResp {
                epoch,
                new_len,
                pages,
            }
        }),
    ]
    .boxed()
}

fn short_string() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..24)
        .prop_map(|bs| bs.into_iter().map(|b| char::from(b'a' + b % 26)).collect())
}

/// Every error class: since the typed-tag extension, each variant has its
/// own wire tag and must round-trip to exactly the error that was raised.
fn err() -> BoxedStrategy<Error> {
    prop_oneof![
        (fid(), range()).prop_map(|(fid, range)| Error::LockConflict { fid, range }),
        (fid(), range()).prop_map(|(fid, range)| Error::WouldBlock { fid, range }),
        (fid(), range()).prop_map(|(fid, range)| Error::AccessDenied { fid, range }),
        pid().prop_map(Error::InTransit),
        pid().prop_map(Error::NoSuchProcess),
        tid().prop_map(Error::TxnAborted),
        fid().prop_map(|fid| Error::PermissionDenied { fid }),
        short_string().prop_map(Error::NoSuchFile),
        fid().prop_map(Error::StaleFid),
        Just(Error::BadChannel),
        site().prop_map(Error::SiteDown),
        (site(), site()).prop_map(|(from, to)| Error::Partitioned { from, to }),
        Just(Error::NotInTransaction),
        (0usize..64).prop_map(|remaining| Error::ChildrenActive { remaining }),
        Just(Error::VolumeFull),
        short_string().prop_map(Error::InvalidArgument),
        short_string().prop_map(Error::ProtocolViolation),
        short_string().prop_map(Error::AlreadyExists),
        site().prop_map(Error::Crashed),
        Just(Error::DiskOffline),
        tid().prop_map(Error::NotLanded),
    ]
    .boxed()
}

/// Any non-batch message: one variant from each service, plus responses.
fn leaf_msg() -> BoxedStrategy<Msg> {
    prop_oneof![
        5 => file_msg().prop_map(Msg::File),
        5 => lock_msg().prop_map(Msg::Lock),
        5 => proc_msg().prop_map(Msg::Proc),
        5 => txn_msg().prop_map(Msg::Txn),
        2 => replica_msg().prop_map(Msg::Replica),
        1 => Just(Msg::Ok),
        2 => err().prop_map(Msg::Err),
    ]
    .boxed()
}

fn any_msg() -> BoxedStrategy<Msg> {
    prop_oneof![
        6 => leaf_msg(),
        2 => vec(leaf_msg(), 0..8).prop_map(Msg::Batch),
    ]
    .boxed()
}

fn roundtrip(msg: &Msg) -> Result<(), TestCaseError> {
    let bytes = encode_msg(msg);
    let got = decode_msg(&bytes);
    prop_assert_eq!(got.as_ref(), Some(msg));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every message — from every per-service enum — round-trips exactly.
    #[test]
    fn arbitrary_messages_roundtrip(msg in any_msg()) {
        roundtrip(&msg)?;
    }

    /// Batches of arbitrary size and mixed member services round-trip, and
    /// member order is preserved.
    #[test]
    fn batches_roundtrip(members in vec(leaf_msg(), 0..16)) {
        let batch = Msg::Batch(members.clone());
        roundtrip(&batch)?;
        let Some(Msg::Batch(got)) = decode_msg(&encode_msg(&batch)) else {
            return Err(TestCaseError::fail("batch decoded to non-batch"));
        };
        prop_assert_eq!(got, members);
    }

    /// Truncating any encoding makes it undecodable — no partial parses.
    #[test]
    fn truncation_never_decodes(msg in any_msg(), cut in 0u64..64) {
        let bytes = encode_msg(&msg);
        if bytes.len() > 1 {
            let keep = 1 + (cut as usize % (bytes.len() - 1));
            prop_assert!(decode_msg(&bytes[..keep]).is_none());
        }
    }

    /// The file-service variant bytes that carried the retired
    /// `PrefetchReq` / `PrefetchResp` pair (7 and 10) and `CloseReq` (2),
    /// and the process-service byte that carried `FileListMerge` (1), are
    /// refused whatever follows them — alone or as a batch member — and
    /// never panic or alias a live message.
    #[test]
    fn retired_tags_never_decode(
        retired in prop_oneof![
            Just((TAG_FILE, 2u8)),
            Just((TAG_FILE, 7u8)),
            Just((TAG_FILE, 10u8)),
            Just((TAG_PROC, 1u8)),
        ],
        tail in vec(any::<u8>(), 0..96),
    ) {
        let (service, tag) = retired;
        let mut frame = vec![locus_net::wire::WIRE_VERSION, service, tag];
        frame.extend_from_slice(&tail);
        prop_assert_eq!(decode_msg(&frame), None);
        // The same bytes as the sole member of a batch.
        let mut batch = encode_msg(&Msg::Batch(vec![Msg::Ok]));
        prop_assert_eq!(batch.pop(), Some(encode_msg(&Msg::Ok)[1]));
        batch.extend_from_slice(&frame[1..]);
        prop_assert_eq!(decode_msg(&batch), None);
    }

    /// The batched encoding of N messages costs less wire than N separate
    /// messages (the per-message version byte amortizes) — the invariant the
    /// 2PC fan-out batching relies on for its transfer-cost win.
    #[test]
    fn batching_never_inflates_wire_size(members in vec(leaf_msg(), 2..8)) {
        let separate: usize = members.iter().map(|m| encode_msg(m).len()).sum();
        let batched = encode_msg(&Msg::Batch(members)).len();
        prop_assert!(batched <= separate + 5);
    }
}

/// A vector's count comes off the wire; one the frame cannot hold is refused
/// before anything is reserved for it. (Trusted, this exact 20-odd-byte
/// frame asks the allocator for 32 GiB and aborts the process.)
#[test]
fn hostile_vector_count_is_refused() {
    let mut frame = encode_msg(&Msg::File(FileMsg::ReadResp {
        data: vec![],
        committed_len: 0,
        vers: vec![],
    }));
    let count_at = frame.len() - 4;
    frame[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(decode_msg(&frame), None);
}

proptest! {
    /// Bytes nobody vouches for — pure noise, and a valid encoding with a
    /// four-byte window (the width of a count or a length) overwritten —
    /// decode to `None` or `Some`, nothing else.
    #[test]
    fn arbitrary_bytes_never_panic(
        noise in vec(any::<u8>(), 0..256),
        msg in any_msg(),
        at in any::<u64>(),
        window in prop_oneof![any::<u32>(), 0u32..64],
    ) {
        let _ = decode_msg(&noise);
        let mut frame = encode_msg(&msg);
        if frame.len() >= 4 {
            let at = at as usize % (frame.len() - 3);
            frame[at..at + 4].copy_from_slice(&window.to_le_bytes());
        }
        let _ = decode_msg(&frame);
    }
}
