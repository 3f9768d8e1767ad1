//! The four workloads: what each one's files look like, what one request
//! does, and how its outputs are checked. Why each exists is in its
//! [`Spec::why`] and, at length, in `benchmark/README.md`.
//!
//! Every workload stores fixed 64-byte records that carry their own file
//! number, record index and a checksum, so a read can tell a torn or foreign
//! record from a good one without knowing what was written last.

use std::collections::HashMap;

use locus_harness::Cluster;
use locus_types::{Channel, LockRequestMode, Result};

use crate::client::{Client, Rng};

/// Bytes per record, in every workload.
pub const RECORD: u64 = 64;
/// The default cost model's page size; file sizes below are stated against
/// it and against the volume's 128-page per-file buffer cap.
pub const PAGE: u64 = 1024;

/// Requests the fault step commits without running phase two before the
/// crash. Each touches records no other fault request touches: their locks
/// stay retained, so a second request on the same record would wait forever.
pub const FAULT_OPS: usize = 4;

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub sites: usize,
    /// Client threads in the timed pass, all at site 0. Never more than the
    /// two cores this benchmark is sized for.
    pub clients: usize,
    /// Requests in the count pass and in the traced pass.
    pub count_ops: u32,
    /// Per-layer metrics that are exactly 0 on this workload because it
    /// bypasses the mechanism they count. If one moves, the workload no
    /// longer discriminates and the run says so.
    pub bypasses: &'static [&'static str],
    /// Per-layer metrics that are above 0 here because this workload is the
    /// one that exercises the mechanism.
    pub exercises: &'static [&'static str],
}

/// One stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    pub file: u32,
    pub index: u32,
    /// Sequence number, version or balance, by workload.
    pub value: u64,
}

impl Record {
    pub fn encode(&self) -> [u8; RECORD as usize] {
        let mut b = [0u8; RECORD as usize];
        b[0..4].copy_from_slice(&self.file.to_le_bytes());
        b[4..8].copy_from_slice(&self.index.to_le_bytes());
        b[8..16].copy_from_slice(&self.value.to_le_bytes());
        // The filler depends on the value, so a record torn between two
        // versions fails its checksum wherever the tear falls.
        for (i, chunk) in b[16..56].chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&self.value.rotate_left(8 * i as u32 + 1).to_le_bytes());
        }
        let sum = checksum(&b[..56]);
        b[56..64].copy_from_slice(&sum.to_le_bytes());
        b
    }

    /// The record in `bytes`, or `None` if it is short or fails its checksum.
    pub fn decode(bytes: &[u8]) -> Option<Record> {
        if bytes.len() != RECORD as usize {
            return None;
        }
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        if checksum(&bytes[..56]) != word(56) {
            return None;
        }
        Some(Record {
            file: word(0) as u32,
            index: (word(0) >> 32) as u32,
            value: word(8),
        })
    }
}

/// FNV-1a over `bytes`.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One client of a workload: its process, its open channels, and the record
/// of what it committed that the final check compares the files against.
pub trait Worker: Send {
    fn client(&mut self) -> &mut Client;

    /// One request, drawn from `rng`. `Ok(true)` if it completed with the
    /// right answers, `Ok(false)` if an answer was wrong; `Err` if a call
    /// failed (the driver then abandons any open transaction).
    fn op(&mut self, rng: &mut Rng) -> Result<bool>;

    /// Fault-step request `i` of [`FAULT_OPS`]: commits a transaction and
    /// does *not* run phase two.
    fn fault_op(&mut self, i: usize) -> Result<bool>;
}

pub trait Workload {
    type Worker: Worker;

    const SPEC: Spec;

    /// Creates and prefills the files on a freshly built cluster.
    fn setup(cluster: &Cluster) -> Result<()>;

    /// Client `idx` of `SPEC.clients`: a process at site 0 with its files
    /// open.
    fn worker(cluster: &Cluster, idx: usize) -> Result<Self::Worker>;

    /// Reads the files back through a fresh process and compares them with
    /// what the workers committed. Returns one line per violation.
    fn verify(cluster: &Cluster, workers: &[Self::Worker]) -> Result<Vec<String>>;
}

/// Every workload's spec, in the order they are listed and run.
pub const SPECS: [Spec; 4] = [
    CommitLocal::SPEC,
    CommitDist::SPEC,
    ReadShared::SPEC,
    HotRecords::SPEC,
];

fn prefill(c: &mut Client, name: &str, file: u32, records: u32) -> Result<()> {
    let ch = c.creat(name)?;
    let mut image = Vec::with_capacity((u64::from(records) * RECORD) as usize);
    for index in 0..records {
        image.extend_from_slice(
            &Record {
                file,
                index,
                value: 0,
            }
            .encode(),
        );
    }
    c.write(ch, &image)?;
    // Closing outside a transaction commits the file.
    c.close(ch)
}

/// Reads `records` records of `name` through `c` and decodes each; a record
/// that does not decode, or names another file or slot, is a violation.
fn read_back(
    c: &mut Client,
    name: &str,
    file: u32,
    records: u32,
    bad: &mut Vec<String>,
) -> Result<Vec<u64>> {
    let ch = c.open(name, false)?;
    let bytes = c.read(ch, u64::from(records) * RECORD)?;
    c.close(ch)?;
    let mut values = vec![0; records as usize];
    if bytes.len() as u64 != u64::from(records) * RECORD {
        bad.push(format!("{name}: read {} bytes back", bytes.len()));
        return Ok(values);
    }
    for (index, chunk) in bytes.chunks_exact(RECORD as usize).enumerate() {
        match Record::decode(chunk) {
            Some(r) if r.file == file && r.index == index as u32 => values[index] = r.value,
            other => bad.push(format!("{name} record {index}: found {other:?}")),
        }
    }
    Ok(values)
}

/// One transaction: begin, write each record at its slot, commit; then
/// phase two if asked.
fn commit_records(
    c: &mut Client,
    writes: impl IntoIterator<Item = (Channel, Record)>,
    phase_two: bool,
) -> Result<()> {
    c.begin_trans()?;
    for (ch, rec) in writes {
        c.seek(ch, u64::from(rec.index) * RECORD)?;
        c.write(ch, &rec.encode())?;
    }
    c.end_trans()?;
    if phase_two {
        c.run_async_work();
    }
    Ok(())
}

// ----- commit_local --------------------------------------------------------

const FILES: u32 = 16;
/// 64 KiB per file: 64 pages, under the 128-page buffer cap (it fits).
const SMALL_FILE_RECORDS: u32 = 1024;

pub struct CommitLocal;

/// The client of both commit workloads: each transaction writes record `r`
/// of file `f` in every *copy* — one private file in `commit_local`, the same
/// file at two storage sites in `commit_dist` — stamped with one sequence
/// number.
pub struct CommitWorker {
    client: Client,
    /// Per copy: the file number of its file 0, and its open channels.
    copies: Vec<(u32, Vec<Channel>)>,
    /// Last committed sequence number per `(file, record)`; 0 = prefill.
    shadow: Vec<u64>,
    seq: u64,
}

impl CommitWorker {
    fn new(client: Client, copies: Vec<(u32, Vec<Channel>)>) -> Self {
        CommitWorker {
            client,
            copies,
            shadow: vec![0; (FILES * SMALL_FILE_RECORDS) as usize],
            seq: 0,
        }
    }

    fn commit(&mut self, f: u32, r: u32, phase_two: bool) -> Result<bool> {
        self.seq += 1;
        // Every copy's record carries the same sequence number: whatever
        // happens, the copies must still match afterwards (atomicity).
        let seq = self.seq;
        let writes = self.copies.iter().map(|(first_file, chans)| {
            let rec = Record {
                file: first_file + f,
                index: r,
                value: seq,
            };
            (chans[f as usize], rec)
        });
        commit_records(&mut self.client, writes, phase_two)?;
        self.shadow[(f * SMALL_FILE_RECORDS + r) as usize] = self.seq;
        Ok(true)
    }

    /// What this client last committed to each record of file `f`.
    fn committed(&self, f: u32) -> &[u64] {
        &self.shadow[(f * SMALL_FILE_RECORDS) as usize..][..SMALL_FILE_RECORDS as usize]
    }
}

impl Worker for CommitWorker {
    fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    fn op(&mut self, rng: &mut Rng) -> Result<bool> {
        let f = rng.below(u64::from(FILES)) as u32;
        let r = rng.below(u64::from(SMALL_FILE_RECORDS)) as u32;
        self.commit(f, r, true)
    }

    fn fault_op(&mut self, i: usize) -> Result<bool> {
        self.commit(i as u32, i as u32, false)
    }
}

impl Workload for CommitLocal {
    type Worker = CommitWorker;

    const SPEC: Spec = Spec {
        name: "commit_local",
        why: "1 site, 2 clients, one 64-byte write per transaction into private 64 KiB files that \
              fit the buffer cache: the single-site commit path, with no network, page cache or \
              lock queueing",
        sites: 1,
        clients: 2,
        count_ops: 120_000,
        bypasses: &[
            "net.msgs_per_op",
            "kernel.pagecache_hit_rate",
            "fs.pages_diff_per_op",
            "core.aborts_per_op",
        ],
        exercises: &["fs.pages_direct_per_op", "wal.flushes_per_op"],
    };

    fn setup(cluster: &Cluster) -> Result<()> {
        let mut c = Client::new(cluster.site(0).clone());
        for idx in 0..Self::SPEC.clients as u32 {
            for f in 0..FILES {
                prefill(
                    &mut c,
                    &local_name(idx, f),
                    idx * FILES + f,
                    SMALL_FILE_RECORDS,
                )?;
            }
        }
        Ok(())
    }

    fn worker(cluster: &Cluster, idx: usize) -> Result<CommitWorker> {
        let mut client = Client::new(cluster.site(0).clone());
        let idx = idx as u32;
        let chans = (0..FILES)
            .map(|f| client.open(&local_name(idx, f), true))
            .collect::<Result<_>>()?;
        Ok(CommitWorker::new(client, vec![(idx * FILES, chans)]))
    }

    fn verify(cluster: &Cluster, workers: &[CommitWorker]) -> Result<Vec<String>> {
        let mut bad = Vec::new();
        let mut c = Client::new(cluster.site(0).clone());
        for (idx, w) in (0u32..).zip(workers) {
            for f in 0..FILES {
                let name = local_name(idx, f);
                let got = read_back(&mut c, &name, idx * FILES + f, SMALL_FILE_RECORDS, &mut bad)?;
                for (r, (g, s)) in got.iter().zip(w.committed(f)).enumerate() {
                    if g != s {
                        bad.push(format!("{name} record {r}: holds seq {g}, committed {s}"));
                    }
                }
            }
        }
        Ok(bad)
    }
}

fn local_name(client: u32, f: u32) -> String {
    format!("/commit_local/c{client}/f{f}")
}

// ----- commit_dist ---------------------------------------------------------

pub struct CommitDist;

impl Workload for CommitDist {
    type Worker = CommitWorker;

    const SPEC: Spec = Spec {
        name: "commit_dist",
        why: "3 sites, 1 client at site 0 writing one record at site 1 and one at site 2 per \
              transaction: coordinator plus two remote participants, pricing the network, the \
              kernel services and two journals",
        sites: 3,
        // The program spawns one prepare thread per participant, so one
        // client already occupies both cores.
        clients: 1,
        count_ops: 24_000,
        bypasses: &[
            "kernel.pagecache_hit_rate",
            "fs.pages_diff_per_op",
            "kernel.local_fast_paths_per_op",
            "core.aborts_per_op",
        ],
        exercises: &["net.msgs_per_op", "net.msgs_txn_per_op"],
    };

    fn setup(cluster: &Cluster) -> Result<()> {
        for s in 0..2u32 {
            let mut c = Client::new(cluster.site(s as usize + 1).clone());
            for f in 0..FILES {
                prefill(&mut c, &dist_name(s, f), s * FILES + f, SMALL_FILE_RECORDS)?;
            }
        }
        Ok(())
    }

    fn worker(cluster: &Cluster, _idx: usize) -> Result<CommitWorker> {
        let mut client = Client::new(cluster.site(0).clone());
        let mut open_all = |s: u32| -> Result<(u32, Vec<Channel>)> {
            let chans = (0..FILES)
                .map(|f| client.open(&dist_name(s, f), true))
                .collect::<Result<_>>()?;
            Ok((s * FILES, chans))
        };
        let copies = vec![open_all(0)?, open_all(1)?];
        Ok(CommitWorker::new(client, copies))
    }

    fn verify(cluster: &Cluster, workers: &[CommitWorker]) -> Result<Vec<String>> {
        let mut bad = Vec::new();
        let mut c = Client::new(cluster.site(0).clone());
        let w = &workers[0];
        for f in 0..FILES {
            let mut side = |s: u32, bad: &mut Vec<String>| {
                read_back(
                    &mut c,
                    &dist_name(s, f),
                    s * FILES + f,
                    SMALL_FILE_RECORDS,
                    bad,
                )
            };
            let (a, b) = (side(0, &mut bad)?, side(1, &mut bad)?);
            for (r, ((a, b), s)) in a.iter().zip(&b).zip(w.committed(f)).enumerate() {
                if a != b {
                    bad.push(format!(
                        "file {f} record {r}: site 1 holds seq {a}, site 2 holds seq {b}"
                    ));
                } else if a != s {
                    bad.push(format!("file {f} record {r}: holds seq {a}, committed {s}"));
                }
            }
        }
        Ok(bad)
    }
}

fn dist_name(s: u32, f: u32) -> String {
    format!("/commit_dist/site{}/f{f}", s + 1)
}

// ----- read_shared ---------------------------------------------------------

/// 256 KiB per file: 256 pages, twice the 128-page buffer cap (it does not
/// fit the storage site's cache).
const BIG_FILE_RECORDS: u32 = 4096;
/// A scan covers one 4 KiB-aligned region: 4 pages, 64 records.
const SCAN_BYTES: u64 = 4096;
const SCAN_RECORDS: u32 = (SCAN_BYTES / RECORD) as u32;
/// One request in ten is an update.
const UPDATE_ONE_IN: u64 = 10;

pub struct ReadShared;

pub struct ReadSharedWorker {
    client: Client,
    idx: u32,
    chans: Vec<Channel>,
    /// This client's last committed version per `(file, record)`.
    last: HashMap<(u32, u32), u64>,
    versions: u64,
}

impl ReadSharedWorker {
    fn scan(&mut self, f: u32, region: u32) -> Result<bool> {
        let (c, ch) = (&mut self.client, self.chans[f as usize]);
        let start = u64::from(region) * SCAN_BYTES;
        c.seek(ch, start)?;
        c.lock(ch, SCAN_BYTES, LockRequestMode::Shared)?;
        let mut good = true;
        for i in 0..SCAN_RECORDS {
            let bytes = c.read(ch, RECORD)?;
            let want_index = region * SCAN_RECORDS + i;
            good &= matches!(
                Record::decode(&bytes),
                Some(r) if r.file == f && r.index == want_index
            );
        }
        c.seek(ch, start)?;
        c.unlock(ch, SCAN_BYTES)?;
        Ok(good)
    }

    fn update(&mut self, f: u32, r: u32, phase_two: bool) -> Result<bool> {
        self.versions += 1;
        // Unique across clients, so the final check can tell whose write a
        // record holds.
        let version = (u64::from(self.idx) + 1) << 48 | self.versions;
        let rec = Record {
            file: f,
            index: r,
            value: version,
        };
        commit_records(&mut self.client, [(self.chans[f as usize], rec)], phase_two)?;
        self.last.insert((f, r), version);
        Ok(true)
    }
}

impl Worker for ReadSharedWorker {
    fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    fn op(&mut self, rng: &mut Rng) -> Result<bool> {
        let f = rng.below(u64::from(FILES)) as u32;
        if rng.below(UPDATE_ONE_IN) == 0 {
            self.update(f, rng.below(u64::from(BIG_FILE_RECORDS)) as u32, true)
        } else {
            self.scan(
                f,
                rng.below(u64::from(BIG_FILE_RECORDS / SCAN_RECORDS)) as u32,
            )
        }
    }

    fn fault_op(&mut self, i: usize) -> Result<bool> {
        self.update(i as u32, i as u32, false)
    }
}

impl Workload for ReadShared {
    type Worker = ReadSharedWorker;

    const SPEC: Spec = Spec {
        name: "read_shared",
        why: "2 sites, 2 clients over 16 shared 256 KiB files at the other site (larger than its \
              cache): 90% locked 4-page scans of 64 reads, 10% one-record updates; lock cache, \
              page cache and remote reads work",
        sites: 2,
        clients: 2,
        count_ops: 16_000,
        bypasses: &["kernel.local_fast_paths_per_op", "core.aborts_per_op"],
        exercises: &[
            "net.msgs_per_op",
            "kernel.pagecache_hit_rate",
            "kernel.prefetches_per_op",
            "disk.reads_per_op",
        ],
    };

    fn setup(cluster: &Cluster) -> Result<()> {
        let mut c = Client::new(cluster.site(1).clone());
        for f in 0..FILES {
            prefill(&mut c, &shared_name(f), f, BIG_FILE_RECORDS)?;
        }
        // Restart the storage site so its buffer cache starts cold. The
        // volume evicts only when a miss finds the file at its cap, so the
        // 256 pages prefill just wrote would otherwise all stay buffered and
        // this workload would fit the cache after all.
        cluster.crash_site(1);
        cluster.reboot_site(1);
        Ok(())
    }

    fn worker(cluster: &Cluster, idx: usize) -> Result<ReadSharedWorker> {
        let mut client = Client::new(cluster.site(0).clone());
        // Locking needs write access (enforced locks can deny access).
        let chans = (0..FILES)
            .map(|f| client.open(&shared_name(f), true))
            .collect::<Result<_>>()?;
        Ok(ReadSharedWorker {
            client,
            idx: idx as u32,
            chans,
            last: HashMap::new(),
            versions: 0,
        })
    }

    fn verify(cluster: &Cluster, workers: &[ReadSharedWorker]) -> Result<Vec<String>> {
        let mut bad = Vec::new();
        let mut c = Client::new(cluster.site(0).clone());
        for f in 0..FILES {
            let name = shared_name(f);
            let got = read_back(&mut c, &name, f, BIG_FILE_RECORDS, &mut bad)?;
            for (r, g) in got.iter().enumerate() {
                // The record holds the last commit to it, which is the last
                // write of one of the clients that ever wrote it.
                let mut writers = workers.iter().filter_map(|w| w.last.get(&(f, r as u32)));
                let ok = match writers.clone().next() {
                    None => *g == 0,
                    Some(_) => writers.any(|v| v == g),
                };
                if !ok {
                    bad.push(format!("{name} record {r}: holds version {g:#x}"));
                }
            }
        }
        Ok(bad)
    }
}

fn shared_name(f: u32) -> String {
    format!("/read_shared/f{f}")
}

// ----- hot_records ---------------------------------------------------------

/// Eight 64-byte accounts on one page of one file.
const ACCOUNTS: u32 = 8;
const OPENING_BALANCE: u64 = 1_000_000;
const HOT_FILE: &str = "/hot_records/accounts";

pub struct HotRecords;

pub struct HotRecordsWorker {
    client: Client,
    ch: Channel,
    /// This client's committed credits minus debits, per account.
    net: [i64; ACCOUNTS as usize],
}

impl HotRecordsWorker {
    fn transfer(&mut self, from: u32, to: u32, amount: u64, phase_two: bool) -> Result<bool> {
        let (c, ch) = (&mut self.client, self.ch);
        // Ascending lock order: no deadlock, so no abort is expected.
        let (lo, hi) = (from.min(to), from.max(to));
        c.begin_trans()?;
        for acct in [lo, hi] {
            c.seek(ch, u64::from(acct) * RECORD)?;
            c.lock(ch, RECORD, LockRequestMode::Exclusive)?;
        }
        let mut good = true;
        for acct in [lo, hi] {
            c.seek(ch, u64::from(acct) * RECORD)?;
            let bytes = c.read(ch, RECORD)?;
            let balance = match Record::decode(&bytes) {
                Some(r) if r.file == 0 && r.index == acct => r.value,
                _ => {
                    good = false;
                    0
                }
            };
            let new = if acct == from {
                balance.wrapping_sub(amount)
            } else {
                balance.wrapping_add(amount)
            };
            c.seek(ch, u64::from(acct) * RECORD)?;
            c.write(
                ch,
                &Record {
                    file: 0,
                    index: acct,
                    value: new,
                }
                .encode(),
            )?;
        }
        if !good {
            // A balance that did not decode must not be committed over.
            c.abandon_trans();
            return Ok(false);
        }
        c.end_trans()?;
        if phase_two {
            c.run_async_work();
        }
        self.net[from as usize] -= amount as i64;
        self.net[to as usize] += amount as i64;
        Ok(true)
    }
}

impl Worker for HotRecordsWorker {
    fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    fn op(&mut self, rng: &mut Rng) -> Result<bool> {
        let from = rng.below(u64::from(ACCOUNTS)) as u32;
        let mut to = rng.below(u64::from(ACCOUNTS) - 1) as u32;
        if to >= from {
            to += 1;
        }
        self.transfer(from, to, 1 + rng.below(100), true)
    }

    fn fault_op(&mut self, i: usize) -> Result<bool> {
        self.transfer(2 * i as u32, 2 * i as u32 + 1, 1 + i as u64, false)
    }
}

impl Workload for HotRecords {
    type Worker = HotRecordsWorker;

    const SPEC: Spec = Spec {
        name: "hot_records",
        why: "1 site, 2 clients transferring between 8 hot 64-byte accounts on one page under \
              exclusive locks: the commit path through lock queueing, grant wake-ups, retained \
              locks and page differencing",
        sites: 1,
        clients: 2,
        count_ops: 80_000,
        bypasses: &[
            "net.msgs_per_op",
            "kernel.pagecache_hit_rate",
            "core.aborts_per_op",
        ],
        exercises: &[
            "locks.queued_per_op",
            "fs.pages_diff_per_op",
            "locks.cache_hits_per_op",
        ],
    };

    fn setup(cluster: &Cluster) -> Result<()> {
        let mut c = Client::new(cluster.site(0).clone());
        let ch = c.creat(HOT_FILE)?;
        for index in 0..ACCOUNTS {
            c.write(
                ch,
                &Record {
                    file: 0,
                    index,
                    value: OPENING_BALANCE,
                }
                .encode(),
            )?;
        }
        c.close(ch)
    }

    fn worker(cluster: &Cluster, _idx: usize) -> Result<HotRecordsWorker> {
        let mut client = Client::new(cluster.site(0).clone());
        let ch = client.open(HOT_FILE, true)?;
        Ok(HotRecordsWorker {
            client,
            ch,
            net: [0; ACCOUNTS as usize],
        })
    }

    fn verify(cluster: &Cluster, workers: &[HotRecordsWorker]) -> Result<Vec<String>> {
        let mut bad = Vec::new();
        let mut c = Client::new(cluster.site(0).clone());
        let got = read_back(&mut c, HOT_FILE, 0, ACCOUNTS, &mut bad)?;
        let total: u64 = got.iter().fold(0, |s, v| s.wrapping_add(*v));
        if total != u64::from(ACCOUNTS) * OPENING_BALANCE {
            bad.push(format!("balances sum to {total}: money was made or lost"));
        }
        for (acct, g) in got.iter().enumerate() {
            let net: i64 = workers.iter().map(|w| w.net[acct]).sum();
            let want = OPENING_BALANCE.wrapping_add(net as u64);
            if *g != want {
                bad.push(format!("account {acct}: holds {g}, commit logs say {want}"));
            }
        }
        Ok(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_and_reject_tears() {
        let old = Record {
            file: 3,
            index: 77,
            value: 41,
        };
        let new = Record { value: 42, ..old };
        assert_eq!(Record::decode(&old.encode()), Some(old));
        assert_eq!(Record::decode(&old.encode()[..63]), None);
        // Any mix of an old and a new image that is neither one fails.
        let (a, b) = (old.encode(), new.encode());
        for cut in 9..RECORD as usize {
            let mut torn = a;
            torn[cut..].copy_from_slice(&b[cut..]);
            if torn != a && torn != b {
                assert_eq!(Record::decode(&torn), None, "tear at {cut} decoded");
            }
        }
    }

    #[test]
    fn file_sizes_sit_on_both_sides_of_the_buffer_cap() {
        const FILE_BUFFER_CAP_PAGES: u64 = 128;
        assert!(u64::from(SMALL_FILE_RECORDS) * RECORD / PAGE < FILE_BUFFER_CAP_PAGES);
        assert!(u64::from(BIG_FILE_RECORDS) * RECORD / PAGE > FILE_BUFFER_CAP_PAGES);
        assert_eq!(u64::from(ACCOUNTS) * RECORD, PAGE / 2);
        assert!(FAULT_OPS <= FILES as usize && 2 * FAULT_OPS <= ACCOUNTS as usize);
    }
}
