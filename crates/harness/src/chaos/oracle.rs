//! Invariant oracles run against every chaos schedule.
//!
//! Four machine-checked invariants from the paper's correctness claims:
//!
//! 1. **Lock safety** (Section 3.1): no two distinct owners ever hold
//!    incompatible locks on overlapping byte ranges, probed periodically
//!    during the run and at the end.
//! 2. **Lock hygiene**: after the post-run heal/reboot/drain epilogue, no
//!    lock belongs to a process that no longer exists anywhere, and no lock
//!    belongs to a transaction whose outcome was decided (committed or
//!    aborted) — retained locks must die with phase two (Section 3.3).
//! 3. **2PC safety** (Section 4.2): the commit mark is the commit point. No
//!    participant installs a transaction's changes, and no commit message is
//!    sent, before the coordinator's commit mark; a commit mark requires a
//!    positive prepare acknowledgement from every participant (for a
//!    delegated transaction the mark is the delegate's, and so is the one
//!    acknowledgement it needs: its own staged vote); no transaction is
//!    both committed and aborted.
//! 4. **Atomicity + serializability** (checked in [`super::run_schedule`]):
//!    the recovered durable state must be explainable by replaying the
//!    committed transactions in commit-mark order.
//! 5. **Durability** ([`DurabilityLedger`]): every acknowledged write of a
//!    commit-marked transaction must be readable from non-volatile storage
//!    — or reconstructible from a commit-marked prepare log awaiting
//!    installation — after every reboot and at the end of the run. This is
//!    the oracle that catches acked-write loss (the
//!    seed-1785987737512144065 class of bug), which the end-state
//!    acceptance check alone can miss when a crashed transaction silently
//!    re-prepares with a subset of its writes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use locus_sim::Event;
use locus_types::{ByteRange, Fid, TransId};

use crate::cluster::Cluster;

/// One oracle violation. `Display` renders a single CI-greppable line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two incompatible locks granted on overlapping ranges.
    LockSafety {
        site: usize,
        fid: Fid,
        a: String,
        b: String,
    },
    /// A lock survived its owner (dead process or decided transaction).
    LockLeak { site: usize, fid: Fid, desc: String },
    /// A two-phase-commit ordering rule was broken.
    TwoPhase { tid: TransId, rule: String },
    /// An uncommitted transaction's write is visible in durable state.
    Atomicity {
        file: usize,
        record: u64,
        found: u64,
        detail: String,
    },
    /// The durable state is not the commit-order replay of committed writes.
    Serializability {
        file: usize,
        record: u64,
        found: u64,
        detail: String,
    },
    /// A durable value matches no writer at all (corruption / lost write).
    Durability {
        file: usize,
        record: u64,
        found: u64,
        detail: String,
    },
    /// A read under a held lock returned bytes that are neither the last
    /// committed value nor the reader's own uncommitted write — the page
    /// cache (or the read path generally) served stale data.
    StaleRead {
        slot: usize,
        file: usize,
        record: u64,
        detail: String,
    },
    /// After the quiesce epilogue, a replica's durable copy of a replicated
    /// file is not byte-identical to the primary's committed image.
    ReplicaDivergence {
        file: String,
        site: usize,
        detail: String,
    },
    /// A recorded protocol transition does not replay through the sans-IO
    /// state machines (or a transactional install has no sanctioning
    /// machine transition): driver code mutated protocol state out-of-band.
    Conformance {
        site: usize,
        machine: &'static str,
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::LockSafety { site, fid, a, b } => {
                write!(f, "LOCK-SAFETY site {site} {fid}: {a} overlaps {b}")
            }
            Violation::LockLeak { site, fid, desc } => {
                write!(f, "LOCK-LEAK site {site} {fid}: {desc}")
            }
            Violation::TwoPhase { tid, rule } => write!(f, "2PC-SAFETY {tid}: {rule}"),
            Violation::Atomicity {
                file,
                record,
                found,
                detail,
            } => write!(
                f,
                "ATOMICITY file {file} record {record}: found {found:#x} ({detail})"
            ),
            Violation::Serializability {
                file,
                record,
                found,
                detail,
            } => write!(
                f,
                "SERIALIZABILITY file {file} record {record}: found {found:#x} ({detail})"
            ),
            Violation::Durability {
                file,
                record,
                found,
                detail,
            } => write!(
                f,
                "DURABILITY file {file} record {record}: found {found:#x} ({detail})"
            ),
            Violation::StaleRead {
                slot,
                file,
                record,
                detail,
            } => write!(
                f,
                "STALE-READ slot {slot} file {file} record {record}: {detail}"
            ),
            Violation::ReplicaDivergence { file, site, detail } => {
                write!(
                    f,
                    "REPLICA-DIVERGENCE file {file} replica site {site}: {detail}"
                )
            }
            Violation::Conformance {
                site,
                machine,
                detail,
            } => {
                write!(f, "CONFORMANCE site {site} {machine}: {detail}")
            }
        }
    }
}

/// Oracle 1: no two incompatible granted locks overlap (checked on every
/// live site's lock tables).
pub fn check_lock_safety(c: &Cluster, out: &mut Vec<Violation>) {
    for (site, s) in c.sites.iter().enumerate() {
        if s.kernel.is_crashed() {
            continue;
        }
        for (fid, descs) in s.kernel.locks.snapshot().held {
            for i in 0..descs.len() {
                for j in i + 1..descs.len() {
                    let (a, b) = (&descs[i], &descs[j]);
                    if a.owner() != b.owner()
                        && a.range.overlaps(&b.range)
                        && !a.mode.compatible(b.mode)
                    {
                        let v = Violation::LockSafety {
                            site,
                            fid,
                            a: format!("{a:?}"),
                            b: format!("{b:?}"),
                        };
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
            }
        }
    }
}

/// Transaction fate as read from the event trace.
pub struct TxnFates {
    /// Position of each transaction's commit mark, in trace order.
    pub commit_mark: BTreeMap<TransId, usize>,
    /// Transactions with an abort event (coordinator, cascade, or recovery).
    pub aborted: BTreeSet<TransId>,
}

pub fn txn_fates(events: &[Event]) -> TxnFates {
    let mut commit_mark = BTreeMap::new();
    let mut aborted = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        match e {
            Event::CommitMark { tid } => {
                commit_mark.entry(*tid).or_insert(i);
            }
            Event::Aborted { tid } | Event::RecoveryAbort { tid } => {
                aborted.insert(*tid);
            }
            _ => {}
        }
    }
    TxnFates {
        commit_mark,
        aborted,
    }
}

/// Oracle 2: lock hygiene after the recovery epilogue. Every surviving lock
/// must belong to a live process or an undecided transaction.
pub fn check_lock_leaks(c: &Cluster, events: &[Event], out: &mut Vec<Violation>) {
    let fates = txn_fates(events);
    for (site, s) in c.sites.iter().enumerate() {
        for (fid, d) in s.kernel.orphan_proc_locks() {
            out.push(Violation::LockLeak {
                site,
                fid,
                desc: format!("dead process still holds {d:?}"),
            });
        }
        for (fid, d) in s.kernel.held_locks() {
            let Some(tid) = d.tid else { continue };
            let decided = fates.commit_mark.contains_key(&tid) || fates.aborted.contains(&tid);
            if decided && d.retained {
                out.push(Violation::LockLeak {
                    site,
                    fid,
                    desc: format!("decided {tid} still retains {d:?}"),
                });
            }
        }
    }
}

/// Oracle 3: 2PC ordering rules, checked purely against the event trace.
pub fn check_two_phase(events: &[Event], out: &mut Vec<Violation>) {
    check_two_phase_with_marks(events, &BTreeMap::new(), out);
}

/// [`check_two_phase`] with supplemental commit marks read off the platters:
/// a torn group-commit flush can land the durable `Committed` status frame
/// even though the flush call failed and the coordinator died before
/// emitting [`Event::CommitMark`]. The durable frame is the commit point,
/// so recovery redoing such a transaction is correct, not a violation.
/// `journal_marks` maps each such transaction to the trace position at
/// which its site crashed (every pre-crash event precedes the mark).
pub fn check_two_phase_with_marks(
    events: &[Event],
    journal_marks: &BTreeMap<TransId, usize>,
    out: &mut Vec<Violation>,
) {
    let mut fates = txn_fates(events);
    for (tid, pos) in journal_marks {
        fates.commit_mark.entry(*tid).or_insert(*pos);
    }
    let mut push = |tid: TransId, rule: String| {
        let v = Violation::TwoPhase { tid, rule };
        if !out.contains(&v) {
            out.push(v);
        }
    };
    for (i, e) in events.iter().enumerate() {
        match e {
            Event::CommitSent { tid, to } => match fates.commit_mark.get(tid) {
                None => push(*tid, format!("commit sent to {to} without a commit mark")),
                Some(cm) if *cm > i => {
                    push(*tid, format!("commit sent to {to} before the commit mark"))
                }
                _ => {}
            },
            Event::FileCommit {
                fid,
                tid: Some(tid),
            } => match fates.commit_mark.get(tid) {
                None => push(
                    *tid,
                    format!("participant installed {fid} without a commit mark"),
                ),
                Some(cm) if *cm > i => push(
                    *tid,
                    format!("participant installed {fid} before the commit mark"),
                ),
                _ => {}
            },
            Event::RecoveryRedo { tid } if !fates.commit_mark.contains_key(tid) => {
                push(*tid, "recovery redo without a commit mark".into());
            }
            Event::Committed { tid } if !fates.commit_mark.contains_key(tid) => {
                // A transaction that touched no files commits trivially
                // with no coordinator log; anything that prepared or
                // installed state needed the commit mark.
                let touched = events.iter().any(|e| {
                    matches!(e, Event::PrepareSent { tid: t, .. }
                                 | Event::CommitSent { tid: t, .. }
                                 | Event::FileCommit { tid: Some(t), .. } if t == tid)
                });
                if touched {
                    push(
                        *tid,
                        "committed with participants but no commit mark".into(),
                    );
                }
            }
            _ => {}
        }
    }
    // A commit mark requires a positive prepare ack from every participant
    // that was later told to commit — or, for a delegated transaction, from
    // the delegate, whose own staged vote precedes its own mark — and a
    // committed transaction must never also abort.
    for (tid, cm) in &fates.commit_mark {
        if fates.aborted.contains(tid) {
            push(*tid, "both committed and aborted".into());
        }
        let participants: BTreeSet<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::CommitSent { tid: t, to } | Event::DelegateSent { tid: t, to }
                    if t == tid =>
                {
                    Some(*to)
                }
                _ => None,
            })
            .collect();
        for p in participants {
            let acked = events[..*cm].iter().any(|e| {
                matches!(e, Event::PrepareAck { tid: t, from, ok: true }
                         if t == tid && *from == p)
            });
            if !acked {
                push(
                    *tid,
                    format!("commit mark without a positive prepare ack from {p}"),
                );
            }
        }
    }
}

/// Replica-convergence oracle: after the quiesce epilogue (network healed,
/// everything rebooted, failover and catch-up pulls run), every replica
/// copy of every replicated file must be byte-identical to the current
/// primary's durably committed image. Reads raw durable state only
/// ([`locus_fs::Volume::durable_peek`]) — no events, no I/O charges.
///
/// A replica the epilogue could not resync (its pull failed) would diverge
/// legitimately, but the epilogue runs with all faults lifted, so any
/// difference that survives it is real: a stale or torn install, a push from
/// a deposed primary, or a promotion that lost committed bytes.
pub fn check_replica_convergence(c: &Cluster, out: &mut Vec<Violation>) {
    // Generous fixed window; `durable_peek` clips to the durable inode
    // length, so comparing peeked bytes compares lengths too.
    let window = ByteRange::new(0, 1 << 24);
    for name in c.catalog.names() {
        let Ok(loc) = c.catalog.resolve(&name) else {
            continue;
        };
        if !loc.replicated() {
            continue;
        }
        let prim = loc.primary.0 as usize;
        let primary_image = c
            .site(prim)
            .kernel
            .volume(loc.fid.volume)
            .ok()
            .and_then(|v| v.durable_peek(loc.fid, window));
        let Some(primary_image) = primary_image else {
            // No durable inode at the primary (the file never committed
            // anything); replicas must agree by being equally empty.
            continue;
        };
        for site in loc.sites.iter().map(|s| s.0 as usize) {
            if site == prim {
                continue;
            }
            let replica_image = c
                .site(site)
                .kernel
                .volume(loc.fid.volume)
                .ok()
                .and_then(|v| v.durable_peek(loc.fid, window))
                .unwrap_or_default();
            if replica_image == primary_image {
                continue;
            }
            let detail = if replica_image.len() != primary_image.len() {
                format!(
                    "replica holds {} durable bytes, primary (site {prim}) {}",
                    replica_image.len(),
                    primary_image.len()
                )
            } else {
                let off = replica_image
                    .iter()
                    .zip(primary_image.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                format!(
                    "first divergent byte at offset {off}: replica {:#04x}, primary (site {prim}) {:#04x}",
                    replica_image[off], primary_image[off]
                )
            };
            let v = Violation::ReplicaDivergence {
                file: name.clone(),
                site,
                detail,
            };
            if !out.contains(&v) {
                out.push(v);
            }
        }
    }
}

/// The durability oracle's window onto non-volatile storage. Implementations
/// must read raw platter state — no volatile buffers, no recovery side
/// effects, no simulated I/O charges — so a check can run mid-schedule
/// without perturbing the deterministic trace.
pub trait DurableSubstrate {
    /// The durable value of workload record `record` of file `file`, as a
    /// fresh reboot would reconstruct it without any log replay. Unwritten
    /// records read as zero.
    fn durable_record(&self, file: usize, record: u64) -> u64;

    /// Values for the record still reachable through commit-marked prepare
    /// logs awaiting installation: the write is durable by way of the log
    /// even though the in-place image has not caught up yet.
    fn recoverable_values(&self, file: usize, record: u64) -> Vec<u64>;
}

/// One committed write as the ledger saw it.
#[derive(Debug, Clone, Copy)]
struct LedgerWrite {
    /// Commit-mark position of the writing transaction (total order).
    order: usize,
    value: u64,
    /// Whether the storage site acknowledged the write to the client.
    acked: bool,
}

/// The acked-write ledger: every write of every commit-marked transaction,
/// keyed by (file, record). [`DurabilityLedger::check`] asserts that the
/// *latest* committed write of each record — when it was acknowledged — is
/// durable or log-recoverable. Records whose latest committed write went
/// unacknowledged are skipped (a dropped reply makes the write ambiguous,
/// and the end-state acceptance oracle already bounds those).
#[derive(Debug, Default)]
pub struct DurabilityLedger {
    writes: BTreeMap<(usize, u64), Vec<LedgerWrite>>,
}

impl DurabilityLedger {
    /// Records one write of a commit-marked transaction. `order` is the
    /// transaction's commit-mark position in the event trace.
    pub fn record_write(
        &mut self,
        file: usize,
        record: u64,
        order: usize,
        value: u64,
        acked: bool,
    ) {
        self.writes
            .entry((file, record))
            .or_default()
            .push(LedgerWrite {
                order,
                value,
                acked,
            });
    }

    /// Number of (file, record) targets with at least one committed write.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Asserts every applicable ledger entry against the substrate,
    /// appending a [`Violation::Durability`] per lost acked write.
    pub fn check(&self, sub: &dyn DurableSubstrate, context: &str, out: &mut Vec<Violation>) {
        for ((file, record), ws) in &self.writes {
            let mut ws = ws.clone();
            // Stable sort: same-transaction rewrites of one record keep
            // their program order under the shared commit-mark position.
            ws.sort_by_key(|w| w.order);
            let Some(last) = ws.last() else { continue };
            if !last.acked {
                continue;
            }
            let found = sub.durable_record(*file, *record);
            if found == last.value {
                continue;
            }
            if sub.recoverable_values(*file, *record).contains(&last.value) {
                continue;
            }
            let v = Violation::Durability {
                file: *file,
                record: *record,
                found,
                detail: format!("acked committed write {:#x} lost {context}", last.value),
            };
            if !out.contains(&v) {
                out.push(v);
            }
        }
    }
}

/// [`DurableSubstrate`] over a live chaos cluster: workload file `f` is
/// `/chaos<f>` stored on site `f`'s home volume; records are 8-byte
/// little-endian slots. Reads go through [`locus_fs::Volume::durable_peek`]
/// and raw stable-store peeks only.
pub struct ClusterSubstrate<'a> {
    pub cluster: &'a Cluster,
    /// Commit-marked transactions (prepare logs of any other transaction
    /// are not recovery-installable and never count as recoverable).
    pub committed: BTreeSet<TransId>,
}

impl ClusterSubstrate<'_> {
    /// Resolves a workload file to its fid and the site whose durable copy
    /// is authoritative *now*: the catalog primary. For unreplicated files
    /// that is the creating site `file`; after a failover it is wherever
    /// the epoch-guarded promotion moved the primary.
    fn resolve(&self, file: usize) -> Option<(Fid, usize)> {
        self.cluster
            .catalog
            .resolve(&format!("/chaos{file}"))
            .ok()
            .map(|e| (e.fid, e.primary.0 as usize))
    }
}

impl DurableSubstrate for ClusterSubstrate<'_> {
    fn durable_record(&self, file: usize, record: u64) -> u64 {
        let Some((fid, prim)) = self.resolve(file) else {
            return 0;
        };
        let Ok(vol) = self.cluster.site(prim).kernel.volume(fid.volume) else {
            return 0;
        };
        let bytes = vol
            .durable_peek(fid, ByteRange::new(record * 8, 8))
            .unwrap_or_default();
        let mut b = [0u8; 8];
        for (i, x) in bytes.iter().take(8).enumerate() {
            b[i] = *x;
        }
        u64::from_le_bytes(b)
    }

    fn recoverable_values(&self, file: usize, record: u64) -> Vec<u64> {
        let Some((fid, _)) = self.resolve(file) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        // Scan every site holding a copy of the volume: the prepare record
        // lives wherever the file's primary was at prepare time, which a
        // later failover may have moved away from.
        for s in &self.cluster.sites {
            let Ok(vol) = s.kernel.volume(fid.volume) else {
                continue;
            };
            let disk = vol.disk();
            let ps = disk.page_size() as u64;
            let target_page = record * 8 / ps;
            let off = (record * 8 % ps) as usize;
            // Durable journal frames only (LWW-replayed): exactly the
            // prepare records a fresh reboot would reconstruct, with no
            // volatile tail.
            for rec in vol.durable_prepare_records() {
                if rec.intentions.fid != fid || !self.committed.contains(&rec.tid) {
                    continue;
                }
                for ent in &rec.intentions.entries {
                    if u64::from(ent.page.0) != target_page {
                        continue;
                    }
                    if let Some(blk) = disk.peek_block(ent.new_phys) {
                        if blk.len() >= off + 8 {
                            out.push(u64::from_le_bytes(
                                blk[off..off + 8].try_into().expect("8-byte slice"),
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::SiteId;

    fn tid(n: u64) -> TransId {
        TransId::new(SiteId(0), n)
    }

    #[test]
    fn two_phase_catches_commit_before_mark() {
        let events = vec![
            Event::CommitSent {
                tid: tid(1),
                to: SiteId(1),
            },
            Event::CommitMark { tid: tid(1) },
        ];
        let mut v = Vec::new();
        check_two_phase(&events, &mut v);
        assert_eq!(v.len(), 2, "{v:?}"); // early send + missing prepare ack
    }

    #[test]
    fn two_phase_accepts_correct_order() {
        let events = vec![
            Event::PrepareSent {
                tid: tid(1),
                to: SiteId(1),
            },
            Event::PrepareAck {
                tid: tid(1),
                from: SiteId(1),
                ok: true,
            },
            Event::CommitMark { tid: tid(1) },
            Event::CommitSent {
                tid: tid(1),
                to: SiteId(1),
            },
            Event::Committed { tid: tid(1) },
        ];
        let mut v = Vec::new();
        check_two_phase(&events, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn two_phase_catches_commit_and_abort() {
        let events = vec![
            Event::PrepareAck {
                tid: tid(2),
                from: SiteId(1),
                ok: true,
            },
            Event::CommitMark { tid: tid(2) },
            Event::Aborted { tid: tid(2) },
        ];
        let mut v = Vec::new();
        check_two_phase(&events, &mut v);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::TwoPhase { rule, .. } if rule.contains("both"))),
            "{v:?}"
        );
    }

    #[test]
    fn a_delegated_mark_needs_the_delegates_own_yes() {
        let delegated = |ok| {
            vec![
                Event::DelegateSent {
                    tid: tid(4),
                    to: SiteId(1),
                },
                Event::PrepareSent {
                    tid: tid(4),
                    to: SiteId(1),
                },
                Event::PrepareAck {
                    tid: tid(4),
                    from: SiteId(1),
                    ok,
                },
                Event::CommitMark { tid: tid(4) },
                Event::Committed { tid: tid(4) },
            ]
        };
        let mut v = Vec::new();
        check_two_phase(&delegated(true), &mut v);
        assert!(v.is_empty(), "{v:?}");
        check_two_phase(&delegated(false), &mut v);
        assert!(
            matches!(&v[..], [Violation::TwoPhase { rule, .. }] if rule.contains("from site1")),
            "{v:?}"
        );
    }

    #[test]
    fn a_vote_decided_mark_needs_every_delegates_yes_first() {
        // The requester holds no file: each storage site's own staged yes is
        // its vote, and the first site to learn of the last one announces
        // the mark no journal holds.
        let decided = |late: bool| {
            let yes = |s| {
                [
                    Event::PrepareSent {
                        tid: tid(5),
                        to: SiteId(s),
                    },
                    Event::PrepareAck {
                        tid: tid(5),
                        from: SiteId(s),
                        ok: true,
                    },
                ]
            };
            let mut events = vec![
                Event::DelegateSent {
                    tid: tid(5),
                    to: SiteId(1),
                },
                Event::DelegateSent {
                    tid: tid(5),
                    to: SiteId(2),
                },
            ];
            events.extend(yes(1));
            if !late {
                events.extend(yes(2));
            }
            events.push(Event::CommitMark { tid: tid(5) });
            if late {
                events.extend(yes(2));
            }
            for s in [1, 2] {
                events.push(Event::CommitSent {
                    tid: tid(5),
                    to: SiteId(s),
                });
            }
            events.push(Event::Committed { tid: tid(5) });
            events
        };
        let mut v = Vec::new();
        check_two_phase(&decided(false), &mut v);
        assert!(v.is_empty(), "{v:?}");
        check_two_phase(&decided(true), &mut v);
        assert!(
            matches!(&v[..], [Violation::TwoPhase { rule, .. }] if rule.contains("from site2")),
            "{v:?}"
        );
    }

    #[test]
    fn trivial_commit_needs_no_mark() {
        let events = vec![Event::Committed { tid: tid(3) }];
        let mut v = Vec::new();
        check_two_phase(&events, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    /// A hand-rolled substrate standing in for the cluster: a "buggy"
    /// instance (records missing, nothing recoverable) must trip the
    /// durability ledger; a faithful one must not.
    #[derive(Default)]
    struct MockSubstrate {
        records: BTreeMap<(usize, u64), u64>,
        recoverable: BTreeMap<(usize, u64), Vec<u64>>,
    }

    impl DurableSubstrate for MockSubstrate {
        fn durable_record(&self, file: usize, record: u64) -> u64 {
            self.records.get(&(file, record)).copied().unwrap_or(0)
        }
        fn recoverable_values(&self, file: usize, record: u64) -> Vec<u64> {
            self.recoverable
                .get(&(file, record))
                .cloned()
                .unwrap_or_default()
        }
    }

    #[test]
    fn durability_ledger_trips_on_lost_acked_write() {
        let mut ledger = DurabilityLedger::default();
        ledger.record_write(0, 3, 1, 0x10001, true);
        let buggy = MockSubstrate::default(); // lost the write entirely
        let mut v = Vec::new();
        ledger.check(&buggy, "(test)", &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            matches!(
                &v[0],
                Violation::Durability {
                    file: 0,
                    record: 3,
                    found: 0,
                    ..
                }
            ),
            "{v:?}"
        );
    }

    #[test]
    fn durability_ledger_accepts_durable_write() {
        let mut ledger = DurabilityLedger::default();
        ledger.record_write(0, 3, 1, 0x10001, true);
        let mut good = MockSubstrate::default();
        good.records.insert((0, 3), 0x10001);
        let mut v = Vec::new();
        ledger.check(&good, "(test)", &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn durability_ledger_accepts_log_recoverable_write() {
        // The in-place image lags (install still pending), but the value is
        // reachable through a commit-marked prepare log: durable by way of
        // the log, not a violation.
        let mut ledger = DurabilityLedger::default();
        ledger.record_write(1, 5, 2, 0x20002, true);
        let mut lagging = MockSubstrate::default();
        lagging.recoverable.insert((1, 5), vec![0x20002]);
        let mut v = Vec::new();
        ledger.check(&lagging, "(test)", &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn durability_ledger_skips_record_with_unacked_latest_write() {
        // The latest committed write was never acknowledged (its reply was
        // dropped): the record's expected value is ambiguous and the ledger
        // must not assert it.
        let mut ledger = DurabilityLedger::default();
        ledger.record_write(0, 1, 1, 0x10001, true);
        ledger.record_write(0, 1, 2, 0x20001, false);
        let stale = MockSubstrate::default(); // holds neither value
        let mut v = Vec::new();
        ledger.check(&stale, "(test)", &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn durability_ledger_asserts_latest_write_in_commit_order() {
        let mut ledger = DurabilityLedger::default();
        // Inserted out of order; commit-mark order decides which value wins.
        ledger.record_write(2, 0, 9, 0x30001, true);
        ledger.record_write(2, 0, 4, 0x10001, true);
        let mut stale = MockSubstrate::default();
        stale.records.insert((2, 0), 0x10001); // the *earlier* write
        let mut v = Vec::new();
        ledger.check(&stale, "(test)", &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            matches!(
                &v[0],
                Violation::Durability {
                    file: 2,
                    record: 0,
                    found: 0x10001,
                    ..
                }
            ),
            "{v:?}"
        );

        let mut good = MockSubstrate::default();
        good.records.insert((2, 0), 0x30001);
        let mut v = Vec::new();
        ledger.check(&good, "(test)", &mut v);
        assert!(v.is_empty(), "{v:?}");
    }
}
