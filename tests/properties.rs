//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;

use locus::harness::{Cluster, Driver, Op, RunOutcome};
use locus::types::{range, ByteRange, LockRequestMode};
use locus_kernel::LockOpts;

fn byte_range() -> impl Strategy<Value = ByteRange> {
    (0u64..256, 1u64..64).prop_map(|(s, l)| ByteRange::new(s, l))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// subtract() and intersection() partition a range exactly.
    #[test]
    fn range_subtract_intersect_partition(a in byte_range(), b in byte_range()) {
        let pieces = a.subtract(&b);
        let inter = a.intersection(&b);
        let covered: u64 = pieces.iter().map(|r| r.len).sum::<u64>()
            + inter.map(|r| r.len).unwrap_or(0);
        prop_assert_eq!(covered, a.len);
        // Pieces never overlap b.
        for p in &pieces {
            prop_assert!(!p.overlaps(&b));
            prop_assert!(a.contains_range(p));
        }
    }

    /// coalesce() preserves the byte set.
    #[test]
    fn coalesce_preserves_membership(ranges in proptest::collection::vec(byte_range(), 0..12)) {
        let coalesced = range::coalesce(ranges.clone());
        for offset in 0u64..320 {
            let in_orig = ranges.iter().any(|r| r.contains(offset));
            let in_coal = coalesced.iter().any(|r| r.contains(offset));
            prop_assert_eq!(in_orig, in_coal, "offset {}", offset);
        }
        // And the result is sorted and non-overlapping.
        for w in coalesced.windows(2) {
            prop_assert!(w[0].end() < w[1].start);
        }
    }

    /// pages() covers exactly the pages the range's bytes fall on.
    #[test]
    fn pages_cover_range(r in byte_range()) {
        let pages: Vec<_> = r.pages(64).collect();
        for offset in r.start..r.end() {
            let pg = (offset / 64) as u32;
            prop_assert!(pages.iter().any(|p| p.0 == pg));
        }
        // And every listed page holds at least one byte of the range.
        for p in pages {
            prop_assert!(r.slice_on_page(p, 64).is_some());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleaving seeds: non-conflicting lock/write scripts always
    /// complete without failures and commit every byte they wrote.
    #[test]
    fn disjoint_writers_always_complete(seed in 0u64..10_000) {
        let c = Cluster::new(2);
        let mut setup = Driver::new(&c, 1);
        setup.spawn(0, vec![Op::Creat("/p".into()), Op::Close(0)]);
        prop_assert_eq!(setup.run(), RunOutcome::Completed);

        let writer = |slot: u64| -> Vec<Op> {
            vec![
                Op::BeginTrans,
                Op::Open { name: "/p".into(), write: true },
                Op::Seek { ch: 0, pos: slot * 64 },
                Op::Lock {
                    ch: 0,
                    len: 64,
                    mode: LockRequestMode::Exclusive,
                    opts: LockOpts { wait: true, ..LockOpts::default() },
                },
                Op::Seek { ch: 0, pos: slot * 64 },
                Op::Write { ch: 0, data: vec![slot as u8 + 1; 64] },
                Op::EndTrans,
            ]
        };
        let mut d = Driver::new(&c, seed);
        for slot in 0..4u64 {
            d.spawn((slot % 2) as usize, writer(slot));
        }
        prop_assert_eq!(d.run(), RunOutcome::Completed);
        prop_assert!(!d.any_failures(), "{:?}", d.failures());
        c.drain_async();

        let mut a = c.account(0);
        let p = c.site(0).kernel.spawn();
        let ch = c.site(0).kernel.open(p, "/p", false, &mut a).unwrap();
        let data = c.site(0).kernel.read(p, ch, 256, &mut a).unwrap();
        for slot in 0..4usize {
            prop_assert!(
                data[slot * 64..(slot + 1) * 64].iter().all(|b| *b == slot as u8 + 1),
                "slot {} corrupted under seed {}", slot, seed
            );
        }
    }

    /// Abort-heavy schedules never leak uncommitted data to disk.
    #[test]
    fn aborts_never_leak(seed in 0u64..10_000) {
        let c = Cluster::new(1);
        let mut setup = Driver::new(&c, 1);
        setup.spawn(0, vec![Op::Creat("/q".into()), Op::Write { ch: 0, data: vec![0xEE; 128] }, Op::Close(0)]);
        prop_assert_eq!(setup.run(), RunOutcome::Completed);

        let aborter = |pos: u64| -> Vec<Op> {
            vec![
                Op::BeginTrans,
                Op::Open { name: "/q".into(), write: true },
                Op::Seek { ch: 0, pos },
                Op::Lock {
                    ch: 0,
                    len: 32,
                    mode: LockRequestMode::Exclusive,
                    opts: LockOpts { wait: true, ..LockOpts::default() },
                },
                Op::Seek { ch: 0, pos },
                Op::Write { ch: 0, data: vec![0xBA; 32] },
                Op::AbortTrans,
            ]
        };
        let mut d = Driver::new(&c, seed);
        d.spawn(0, aborter(0));
        d.spawn(0, aborter(64));
        prop_assert_eq!(d.run(), RunOutcome::Completed);
        c.drain_async();
        // Crash + recover, then verify the original contents.
        c.crash_site(0);
        c.reboot_site(0);
        let mut a = c.account(0);
        let p = c.site(0).kernel.spawn();
        let ch = c.site(0).kernel.open(p, "/q", false, &mut a).unwrap();
        let data = c.site(0).kernel.read(p, ch, 128, &mut a).unwrap();
        prop_assert!(data.iter().all(|b| *b == 0xEE), "leak under seed {}", seed);
    }
}

/// Whether the bytes decode.
type Decoder = fn(&[u8]) -> bool;

/// One valid encoding per decoder that reads bytes nobody vouches for — a
/// network frame, a journal frame and the two records it carries, an inode
/// block, a migration blob — with the decoder itself. Six entry points: the
/// seventh, the lock-list image, left with lock-control migration, the only
/// thing that ever put a lock list on the wire.
fn decoders() -> Vec<(&'static str, Vec<u8>, Decoder)> {
    use locus::fs::inode::Inode;
    use locus::net::{decode_msg, encode_msg, Held, LockMsg, Msg, ProcMsg, TxnMsg};
    use locus::proc::record::{OpenFile, ProcessRecord};
    use locus::types::{
        CoordLogRecord, Fid, FileListEntry, GrantPage, IntentionsEntry, IntentionsList,
        JournalEntry, JournalOp, LockClass, LockDescriptor, LockMode, PageData, PageNo, PhysPage,
        Pid, PrepareLogRecord, SiteId, TransId, TxnStatus, VolumeId,
    };

    let fid = Fid::new(VolumeId(1), 4);
    let tid = TransId::new(SiteId(2), 17);
    let pid = Pid::new(SiteId(1), 7);
    let file = FileListEntry {
        fid,
        storage_site: SiteId(1),
        epoch: 3,
    };

    let msg = Msg::Batch(vec![
        Msg::Txn(TxnMsg::Prepare {
            tid,
            coordinator: SiteId(0),
            files: vec![fid, Fid::new(VolumeId(0), 1)],
            epoch: 5,
        }),
        // A delegation naming a peer's file too, whose forget list names
        // two earlier transactions.
        Msg::Txn(TxnMsg::Delegate {
            tid,
            files: vec![
                file,
                FileListEntry {
                    fid: Fid::new(VolumeId(3), 2),
                    storage_site: SiteId(3),
                    epoch: 0,
                },
            ],
            forget: vec![TransId::new(SiteId(2), 15), TransId::new(SiteId(2), 16)],
        }),
        Msg::Proc(ProcMsg::MemberExited {
            top: pid,
            member: Pid::new(SiteId(1), 8),
            entries: vec![file],
        }),
        // A shared grant's request with its held stamps, and the answer:
        // one page current, one shipped.
        Msg::Lock(LockMsg::Req {
            fid,
            pid,
            tid: None,
            mode: LockRequestMode::Shared,
            class: LockClass::NonTransaction,
            range: ByteRange::new(0, 4096),
            append: false,
            wait: true,
            reply_site: SiteId(1),
            fetch: Some(Held {
                boot_epoch: 2,
                repl_epoch: 1,
                have: vec![7, 0, 9],
            }),
        }),
        Msg::Lock(LockMsg::Resp {
            granted: ByteRange::new(0, 4096),
            epoch: 2,
            committed_len: 4096,
            pages: vec![
                GrantPage::Current,
                GrantPage::Shipped {
                    vers: 8,
                    clean: true,
                    data: PageData::new(vec![5; 24]),
                },
            ],
        }),
    ]);
    let coord = CoordLogRecord {
        tid,
        files: vec![file],
        status: TxnStatus::Unknown,
    };
    let mut intentions = IntentionsList::new(fid, 2048);
    intentions.entries.push(IntentionsEntry {
        page: PageNo(0),
        new_phys: PhysPage(55),
        old_phys: Some(PhysPage(12)),
        old_vers: 3,
        ranges: vec![ByteRange::new(40, 8), ByteRange::new(72, 16)],
    });
    let prepare = PrepareLogRecord {
        tid,
        coordinator: SiteId(0),
        intentions,
        locks: vec![LockDescriptor {
            pid,
            tid: Some(tid),
            mode: LockMode::Exclusive,
            class: LockClass::Transaction,
            range: ByteRange::new(100, 50),
            retained: true,
        }],
    };
    let frame = JournalEntry {
        seq: 9,
        op: JournalOp::PreparePut(prepare.clone()),
    };
    let mut inode = Inode::new(fid);
    inode.len = 5000;
    inode.pages = vec![Some(PhysPage(4)), None, Some(PhysPage(6))];
    inode.vers = vec![2, 0, 1];
    let mut record = ProcessRecord::new(pid);
    record.parent = Some(Pid::new(SiteId(1), 3));
    record.children.insert(Pid::new(SiteId(2), 1));
    record.tid = Some(tid);
    record.top = Some(pid);
    record.note_file(fid, SiteId(1), 3);
    record.add_open(OpenFile {
        fid,
        storage_site: SiteId(1),
        epoch: 3,
        pos: 128,
        append: true,
        write: true,
    });

    vec![
        ("decode_msg", encode_msg(&msg), |b| decode_msg(b).is_some()),
        ("JournalEntry", frame.encode(), |b| {
            JournalEntry::decode(b).is_some()
        }),
        ("CoordLogRecord", coord.encode(), |b| {
            CoordLogRecord::decode(b).is_some()
        }),
        ("PrepareLogRecord", prepare.encode(), |b| {
            PrepareLogRecord::decode(b).is_some()
        }),
        ("Inode", inode.encode(), |b| Inode::decode(b).is_some()),
        ("ProcessRecord", record.encode(), |b| {
            ProcessRecord::decode(b).is_some()
        }),
    ]
}

proptest! {
    /// Every decoder meets hostile bytes: pure noise, and a valid encoding
    /// with a four- or eight-byte window (the width of a count, a length, a
    /// sequence number) overwritten. `None` or `Some`, never a panic and
    /// never a reservation the input could not fill.
    #[test]
    fn every_decoder_survives_arbitrary_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        at in any::<u64>(),
        wide in any::<bool>(),
        fill in prop_oneof![any::<u64>(), 0u64..64, Just(u64::MAX)],
    ) {
        let width = if wide { 8 } else { 4 };
        for (name, valid, decodes) in decoders() {
            prop_assert!(decodes(&valid), "{}: the sample is an encoding", name);
            let _ = decodes(&noise);
            let mut bytes = valid;
            let at = at as usize % (bytes.len() - width + 1);
            bytes[at..at + width].copy_from_slice(&fill.to_le_bytes()[..width]);
            let _ = decodes(&bytes);
        }
    }
}
