//! Probes: each times one layer's public functions on a standalone instance
//! shaped like the workload that leans on it, and reports nanoseconds per
//! call as the median over [`BATCHES`] batches. They touch no cluster, so
//! every `--trace 1` run reports all of them, whatever its workload.
//!
//! A probe says what a layer's primitive costs on this host; the end-to-end
//! metric it should move is written down in `benchmark/README.md`. A gain
//! on a probe alone justifies nothing.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use locus_core::protocol::{Input, ProtocolSm};
use locus_core::{CoordinatorSm, ParticipantSm};
use locus_disk::SimDisk;
use locus_fs::Volume;
use locus_kernel::PageCache;
use locus_locks::{FileLocks, LockCache, LockManager, LockRequest};
use locus_net::{
    decode_msg, encode_msg, FileMsg, Msg, SimTransport, SiteHandler, Transport, TxnMsg,
};
use locus_sim::{Account, CostModel, Counters, EventLog};
use locus_types::{
    ByteRange, Fid, FileListEntry, IntentionsList, LockClass, LockMode, LockRequestMode, Owner,
    PageData, PageNo, Pid, PrepareLogRecord, SiteId, TransId, VolumeId,
};
use locus_wal::Journal;

use crate::metrics::Values;

/// Batches per probe. Odd, so the median is a measured batch.
const BATCHES: usize = 31;
/// Blocks on a probe's disk: room for a 256-page file and its shadows.
const PROBE_DISK_BLOCKS: usize = 4096;
const PAGE: usize = crate::workloads::PAGE as usize;
const RECORD: u64 = crate::workloads::RECORD;

const SITE: SiteId = SiteId(0);

/// Median over batches of `batch()`, which returns the time it spent in the
/// calls under test and how many it made.
fn median_ns(batches: usize, mut batch: impl FnMut() -> (Duration, usize)) -> f64 {
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let (spent, calls) = batch();
            spent.as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    crate::stats::median(&per_call)
}

/// Times `calls` back-to-back invocations of `f` as one batch.
fn timed(calls: usize, mut f: impl FnMut(usize)) -> (Duration, usize) {
    let t0 = Instant::now();
    for i in 0..calls {
        f(i);
    }
    (t0.elapsed(), calls)
}

fn tid(n: u64) -> TransId {
    TransId::new(SITE, n)
}

fn fid(inode: u32) -> Fid {
    Fid::new(VolumeId(0), inode)
}

struct Substrate {
    model: Arc<CostModel>,
    counters: Arc<Counters>,
    events: Arc<EventLog>,
}

impl Substrate {
    fn new() -> Self {
        Substrate {
            model: Arc::new(CostModel::default()),
            counters: Arc::new(Counters::default()),
            events: Arc::new(EventLog::new()),
        }
    }

    fn disk(&self) -> Arc<SimDisk> {
        Arc::new(SimDisk::new(
            PROBE_DISK_BLOCKS,
            self.model.clone(),
            self.counters.clone(),
        ))
    }

    fn volume(&self) -> Volume {
        Volume::new(
            VolumeId(0),
            SITE,
            self.disk(),
            self.model.clone(),
            self.counters.clone(),
            self.events.clone(),
        )
    }
}

pub fn run_all(values: &mut Values, smoke: bool) {
    let batches = if smoke { 5 } else { BATCHES };
    core_probes(values, batches);
    kernel_probes(values, batches);
    lock_probes(values, batches);
    net_probes(values, batches);
    wal_probes(values, batches);
    fs_probes(values, batches);
    disk_probes(values, batches);
}

/// One protocol-machine step, averaged over a whole commit: a coordinator
/// with two remote participants (`commit_dist`) takes eight steps, a
/// participant six.
fn core_probes(values: &mut Values, batches: usize) {
    let files: Vec<FileListEntry> = [1, 2]
        .map(|s| FileListEntry {
            fid: Fid::new(VolumeId(s), 1),
            storage_site: SiteId(s),
            epoch: 0,
        })
        .to_vec();
    let mut next = 0u64;
    values.put(
        "core.coord_step_ns",
        median_ns(batches, || {
            let mut sm = CoordinatorSm::new(SITE);
            let (spent, calls) = timed(256, |_| {
                next += 1;
                let tid = tid(next);
                let steps = [
                    Input::CommitRequested {
                        tid,
                        files: files.clone(),
                        parallel: true,
                    },
                    Input::StartLogged { tid, ok: true },
                    Input::Vote {
                        tid,
                        site: SiteId(1),
                        ok: true,
                    },
                    Input::Vote {
                        tid,
                        site: SiteId(2),
                        ok: true,
                    },
                    Input::StatusLogged { tid, ok: true },
                    Input::Phase2Ack {
                        tid,
                        site: SiteId(1),
                        ok: true,
                    },
                    Input::Phase2Ack {
                        tid,
                        site: SiteId(2),
                        ok: true,
                    },
                    Input::Phase2Done { tid, commit: true },
                ];
                for input in &steps {
                    black_box(sm.step(black_box(input)));
                }
            });
            (spent, calls * 8)
        }),
    );
    values.put(
        "core.participant_step_ns",
        median_ns(batches, || {
            let mut sm = ParticipantSm::new(SiteId(1), 0);
            let (spent, calls) = timed(256, |_| {
                next += 1;
                let tid = tid(next);
                let files = vec![Fid::new(VolumeId(1), 1)];
                let steps = [
                    Input::PrepareReq {
                        tid,
                        coordinator: SITE,
                        files: files.clone(),
                        epoch: 0,
                    },
                    Input::PrimaryChecked { tid, ok: true },
                    Input::KnownChecked { tid, known: true },
                    Input::Staged { tid, ok: true },
                    Input::CommitReq { tid, files },
                    Input::Installed { tid, ok: true },
                ];
                for input in &steps {
                    black_box(sm.step(black_box(input)));
                }
            });
            (spent, calls * 6)
        }),
    );
}

/// The page cache as a `read_shared` scan uses it: a miss caches the 64
/// bytes it read (64 inserts merge into 4 pages), a hit reads 64 bytes.
fn kernel_probes(values: &mut Values, batches: usize) {
    let owner = Owner::Proc(Pid::new(SITE, 1));
    let f = fid(1);
    let record = PageData::new(vec![7u8; RECORD as usize]);
    let slot = |i: usize| {
        let at = i as u64 % 64 * RECORD;
        (PageNo((at / PAGE as u64) as u32), at % PAGE as u64)
    };
    values.put(
        "kernel.pagecache_insert_ns",
        median_ns(batches, || {
            let cache = PageCache::new();
            timed(64, |i| {
                let (page, off) = slot(i);
                let span = ByteRange::new(off, RECORD);
                black_box(cache.insert(f, owner, page, 1, span, record.clone(), 0));
            })
        }),
    );
    let cache = PageCache::new();
    for p in 0..4 {
        let whole = ByteRange::new(0, PAGE as u64);
        cache.insert(
            f,
            owner,
            PageNo(p),
            1,
            whole,
            PageData::new(vec![7u8; PAGE]),
            0,
        );
    }
    values.put(
        "kernel.pagecache_read_ns",
        median_ns(batches, || {
            timed(1024, |i| {
                let range = ByteRange::new(i as u64 % 64 * RECORD, RECORD);
                black_box(cache.read_vec(f, owner, range, PAGE));
            })
        }),
    );
}

fn lock_req(pid: u32, mode: LockRequestMode, range: ByteRange, wait: bool) -> LockRequest {
    LockRequest {
        pid: Pid::new(SITE, pid),
        tid: None,
        class: LockClass::NonTransaction,
        mode,
        range,
        append: false,
        wait,
        reply_site: SITE,
    }
}

/// Sixty-four granted entries by as many owners, 128 bytes apart.
fn populate(mut request: impl FnMut(LockRequest)) {
    for i in 0..64u32 {
        let range = ByteRange::new(u64::from(i) * 128, RECORD);
        request(lock_req(100 + i, LockRequestMode::Shared, range, false));
    }
}

fn lock_probes(values: &mut Values, batches: usize) {
    // A free slot in the middle of a 64-entry list: lock it, release it.
    let free = ByteRange::new(32 * 128 + RECORD, RECORD);
    let mut list = FileLocks::new(1 << 20);
    populate(|r| {
        list.request(r);
    });
    values.put(
        "locks.list_request_ns",
        median_ns(batches, || {
            timed(512, |_| {
                black_box(list.request(lock_req(1, LockRequestMode::Exclusive, free, false)));
                black_box(list.request(lock_req(1, LockRequestMode::Unlock, free, false)));
            })
        }),
    );

    let sub = Substrate::new();
    let mgr = LockManager::new(sub.model.clone(), sub.counters.clone(), sub.events.clone());
    let mut acct = Account::new(SITE);
    populate(|r| {
        mgr.request(fid(1), r, &mut acct);
    });
    values.put(
        "locks.manager_request_ns",
        median_ns(batches, || {
            sub.events.clear();
            timed(512, |_| {
                let lock = lock_req(1, LockRequestMode::Exclusive, free, false);
                black_box(mgr.request(fid(1), lock, &mut acct));
                let unlock = lock_req(1, LockRequestMode::Unlock, free, false);
                black_box(mgr.request(fid(1), unlock, &mut acct));
            })
        }),
    );

    // One hand-off on a hot record (`hot_records`): the holder has it, a
    // second owner queues, the holder unlocks, the pump grants the waiter,
    // the waiter releases.
    let hot = ByteRange::new(0, RECORD);
    let mut list = FileLocks::new(512);
    values.put(
        "locks.pump_ns",
        median_ns(batches, || {
            timed(512, |_| {
                black_box(list.request(lock_req(1, LockRequestMode::Exclusive, hot, true)));
                black_box(list.request(lock_req(2, LockRequestMode::Exclusive, hot, true)));
                black_box(list.request(lock_req(1, LockRequestMode::Unlock, hot, false)));
                black_box(list.pump());
                black_box(list.request(lock_req(2, LockRequestMode::Unlock, hot, false)));
            })
        }),
    );

    // The check in front of every cached read (`read_shared`): does the
    // owner's shared 4 KiB lock cover these 64 bytes?
    let cache = LockCache::new();
    let owner = Owner::Proc(Pid::new(SITE, 1));
    cache.insert(fid(1), owner, LockMode::Shared, ByteRange::new(8192, 4096));
    values.put(
        "locks.cache_covers_ns",
        median_ns(batches, || {
            timed(1024, |i| {
                let r = ByteRange::new(8192 + i as u64 % 64 * RECORD, RECORD);
                black_box(cache.covers(fid(1), owner, r, false));
            })
        }),
    );
}

struct Ack;

impl SiteHandler for Ack {
    fn handle(&self, _from: SiteId, _msg: Msg, _acct: &mut Account) -> Msg {
        Msg::Ok
    }
}

/// One transport round trip to a handler that does nothing, and the wire
/// codec on the two messages `commit_dist` and `read_shared` send most. The
/// codec is off the live path today; these are the baseline for the day a
/// transport encodes every hop.
fn net_probes(values: &mut Values, batches: usize) {
    let sub = Substrate::new();
    let net = SimTransport::new(
        2,
        sub.model.clone(),
        sub.counters.clone(),
        sub.events.clone(),
    );
    net.register(SITE, Arc::new(Ack));
    net.register(SiteId(1), Arc::new(Ack));
    let mut acct = Account::new(SITE);
    values.put(
        "net.rpc_ns",
        median_ns(batches, || {
            sub.events.clear();
            timed(512, |_| {
                black_box(net.rpc(SITE, SiteId(1), Msg::Ok, &mut acct)).ok();
            })
        }),
    );

    let prepare = Msg::Batch(
        [1, 2]
            .map(|n| {
                Msg::Txn(TxnMsg::Prepare {
                    tid: tid(n),
                    coordinator: SITE,
                    files: vec![fid(n as u32)],
                    epoch: 0,
                })
            })
            .to_vec(),
    );
    let page = Msg::File(FileMsg::ReadResp {
        data: vec![7u8; PAGE],
        committed_len: 1 << 18,
        vers: vec![1],
    });
    for (what, msg) in [("prepare", prepare), ("page", page)] {
        let bytes = encode_msg(&msg);
        assert_eq!(decode_msg(&bytes).as_ref(), Some(&msg), "codec round trip");
        values.put(
            format!("net.wire_encode_{what}_ns"),
            median_ns(batches, || {
                timed(512, |_| {
                    black_box(encode_msg(black_box(&msg)));
                })
            }),
        );
        values.put(
            format!("net.wire_decode_{what}_ns"),
            median_ns(batches, || {
                timed(512, |_| {
                    black_box(decode_msg(black_box(&bytes)));
                })
            }),
        );
    }
}

/// The journal as one local commit uses it: append a prepare record, make
/// it durable.
fn wal_probes(values: &mut Values, batches: usize) {
    let sub = Substrate::new();
    let mut acct = Account::new(SITE);
    let record = |n: u64| PrepareLogRecord {
        tid: tid(n),
        coordinator: SITE,
        intentions: IntentionsList::new(fid(1), 65_536),
        locks: Vec::new(),
    };
    values.put(
        "wal.append_ns",
        median_ns(batches, || {
            let journal = Journal::new(sub.disk());
            timed(256, |i| {
                black_box(journal.prepare_put(&record(i as u64), &mut acct)).ok();
            })
        }),
    );
    values.put(
        "wal.barrier_ns",
        median_ns(batches, || {
            let journal = Journal::new(sub.disk());
            let mut spent = Duration::ZERO;
            for i in 0..256 {
                journal.prepare_put(&record(i), &mut acct).ok();
                let t0 = Instant::now();
                black_box(journal.barrier(&mut acct)).ok();
                spent += t0.elapsed();
            }
            (spent, 256)
        }),
    );
}

/// A file of `pages` committed pages on a fresh volume.
fn committed_file(vol: &Volume, pages: usize, acct: &mut Account) -> Fid {
    let f = vol.create_file(acct).expect("probe volume has room");
    let owner = Owner::Proc(Pid::new(SITE, 9));
    let whole = ByteRange::new(0, (pages * PAGE) as u64);
    vol.write(f, owner, whole, &vec![1u8; pages * PAGE], acct)
        .expect("prefill");
    vol.commit_file(f, owner, acct).expect("prefill commit");
    f
}

fn fs_probes(values: &mut Values, batches: usize) {
    let sub = Substrate::new();
    let mut acct = Account::new(SITE);
    let data = [5u8; RECORD as usize];
    let record_at = |i: usize, pages: usize| {
        ByteRange::new(
            (i * 67 % (pages * PAGE / RECORD as usize)) as u64 * RECORD,
            RECORD,
        )
    };

    // `commit_local`: a transaction writes one record of a 64-page file
    // that fits the buffers, prepares it, commits it.
    let (mut write, mut prepare, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..batches {
        let vol = sub.volume();
        let f = committed_file(&vol, 64, &mut acct);
        let mut spent = [Duration::ZERO; 3];
        for i in 0..128 {
            let owner = Owner::Trans(tid(i as u64 + 1));
            let t0 = Instant::now();
            black_box(vol.write(f, owner, record_at(i, 64), &data, &mut acct)).ok();
            let t1 = Instant::now();
            black_box(vol.prepare(f, owner, &mut acct)).ok();
            let t2 = Instant::now();
            black_box(vol.commit_prepared(f, owner, &mut acct)).ok();
            let t3 = Instant::now();
            spent[0] += t1 - t0;
            spent[1] += t2 - t1;
            spent[2] += t3 - t2;
        }
        sub.events.clear();
        for (all, s) in [&mut write, &mut prepare, &mut commit]
            .into_iter()
            .zip(spent)
        {
            all.push(s.as_nanos() as f64 / 128.0);
        }
    }
    values.put("fs.write_ns", crate::stats::median(&write));
    values.put("fs.prepare_ns", crate::stats::median(&prepare));
    values.put("fs.commit_prepared_ns", crate::stats::median(&commit));

    // `hot_records`: two owners hold uncommitted records on one page; the
    // first to commit takes the Figure 4b differencing path.
    values.put(
        "fs.diff_commit_ns",
        median_ns(batches, || {
            let vol = sub.volume();
            let f = committed_file(&vol, 1, &mut acct);
            let mut spent = Duration::ZERO;
            for i in 0..128u64 {
                let (a, b) = (Owner::Trans(tid(2 * i + 1)), Owner::Trans(tid(2 * i + 2)));
                vol.write(f, a, ByteRange::new(0, RECORD), &data, &mut acct)
                    .ok();
                vol.write(f, b, ByteRange::new(RECORD, RECORD), &data, &mut acct)
                    .ok();
                let t0 = Instant::now();
                black_box(vol.prepare(f, a, &mut acct)).ok();
                black_box(vol.commit_prepared(f, a, &mut acct)).ok();
                spent += t0.elapsed();
                vol.prepare(f, b, &mut acct).ok();
                vol.commit_prepared(f, b, &mut acct).ok();
            }
            sub.events.clear();
            (spent, 128)
        }),
    );
    assert!(
        sub.counters.snapshot().pages_committed_diff >= 128,
        "the differencing probe never took the differencing path"
    );

    // `read_shared`: a 64-byte read of a 256-page file at the storage site,
    // from a buffered page and from a page that has to come off the disk.
    let vol = sub.volume();
    let f = committed_file(&vol, 256, &mut acct);
    values.put(
        "fs.read_hit_ns",
        median_ns(batches, || {
            timed(1024, |i| {
                black_box(vol.read(f, record_at(i, 256), &mut acct)).ok();
            })
        }),
    );
    values.put(
        "fs.read_miss_ns",
        median_ns(batches, || {
            // Restarting the volume drops its buffers; each of the next 128
            // reads then touches a page for the first time.
            vol.crash();
            vol.reboot();
            timed(128, |i| {
                let r = ByteRange::new((i * 2 * PAGE) as u64, RECORD);
                black_box(vol.read(f, r, &mut acct)).ok();
            })
        }),
    );
    assert!(
        sub.counters.snapshot().buffer_misses >= 128,
        "the cold-read probe never missed the buffers"
    );
}

fn disk_probes(values: &mut Values, batches: usize) {
    let sub = Substrate::new();
    let mut acct = Account::new(SITE);
    let disk = sub.disk();
    let blocks: Vec<_> = (0..64)
        .map(|_| disk.alloc(&mut acct).expect("probe disk has room"))
        .collect();
    let image = vec![3u8; PAGE];
    values.put(
        "disk.write_ns",
        median_ns(batches, || {
            timed(512, |i| {
                black_box(disk.write(blocks[i % 64], &image, &mut acct)).ok();
            })
        }),
    );
    values.put(
        "disk.journal_flush_ns",
        median_ns(batches, || {
            let disk = sub.disk();
            let mut spent = Duration::ZERO;
            for _ in 0..256 {
                disk.journal_append(vec![1u8; RECORD as usize], &mut acct)
                    .ok();
                let t0 = Instant::now();
                black_box(disk.journal_flush(&mut acct)).ok();
                spent += t0.elapsed();
            }
            (spent, 256)
        }),
    );
}
