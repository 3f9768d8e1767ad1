//! Exhaustive small-scope model checker for the sans-IO 2PC machines.
//!
//! The checker drives the *production* [`CoordinatorSm`] and
//! [`ParticipantSm`] structs through the *production* effect loop,
//! [`drive`] — the same code the live `TxnManager` runs — over every
//! interleaving a bounded scope allows, and asserts the 2PC safety
//! invariants on every edge. One global state is the machines plus an
//! abstract substrate: the durable coordinator log, per-site prepare logs,
//! the global commit-fence set, dirty/installed bookkeeping, in-flight
//! messages, and the asynchronous phase-two queue. What each [`Effect`]
//! means against that substrate is one exhaustive `match`, so a new effect
//! kind does not compile until the model says what it does. Exploration is
//! breadth-first with full-state deduplication, so a reported
//! counterexample trace is shortest-possible.
//!
//! **Fault model.** Between any two protocol transitions the scope may
//! crash a site (volatile dirty pages die; journals, machines, and the
//! catalog's fences survive, as in the simulator), reboot it (boot epoch
//! bumps; recovery replays the journal scan through the machines), drop a
//! prepare message (with synchronous RPC a lost request and a lost reply
//! both surface at the coordinator as a no vote — a lost *reply* after the
//! participant really prepared is reachable as duplicate-then-drop),
//! duplicate a prepare delivery, strand an undecided transaction at a
//! participant (the partition scenario: the production `Input::Stranded`,
//! which rolls back unless the site prepared), and re-dirty a file after
//! its acked writes were lost (the transaction's processes re-established
//! state — the historical trigger for both the refusal-set and boot-epoch
//! defenses). Each fault class has its own budget so the scope stays
//! finite.
//!
//! **Invariants** (checked on every transition):
//!
//! * `commit-abort-exclusion` — no transaction is ever both committed and
//!   aborted.
//! * `no-lost-committed-writes` — a committed transaction never lost acked
//!   writes at any site (the write-ahead promise of the yes vote).
//! * `install-without-commit` / `install-of-aborted` — no site installs
//!   intentions for a transaction with no durable commit mark, or one some
//!   decision aborted.
//! * `fence-holds-through-phase-two` — a fresh install always happens under
//!   the commit fence, and the fence never drops while a committed
//!   transaction's prepare log survives anywhere.
//! * `refusal-set-honored` — no site votes yes on a transaction it
//!   unilaterally rolled back.
//! * `boot-epoch-honored` — no site votes yes on a prepare claiming an
//!   earlier boot epoch than its current incarnation.
//!
//! Liveness is out of scope: a state where a transaction never finishes is
//! legal (the harness's stuck-detector covers that in the live simulator).
//!
//! Re-introducing a known-fixed bug — e.g. constructing the scope with
//! [`ParticipantFaults::skip_refused_check`] — makes the checker emit the
//! historical failure as a concrete shortest trace; see
//! `tests/model_check.rs`.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

pub use locus_core::protocol::ParticipantFaults;
use locus_core::protocol::{drive, Effect, Input, PrepareOutcome, ProtocolSm, Substrate};
use locus_core::{CoordinatorSm, ParticipantSm};
use locus_types::{Fid, FileListEntry, SiteId, TransId, TxnStatus, VolumeId};

/// Scope bounds for one exhaustive exploration.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Number of sites. Site 0 hosts the coordinator; every transaction
    /// writes one file at every site, which maximises cross-site coupling
    /// for the scope size.
    pub sites: u32,
    /// Number of transactions (started sequentially, run concurrently).
    pub txns: u64,
    /// How many site crashes the scope may inject.
    pub crashes: u8,
    /// How many prepare messages may be dropped.
    pub drops: u8,
    /// How many prepare deliveries may be duplicated.
    pub dups: u8,
    /// How many unilateral (partition-style) rollbacks may occur.
    pub rollbacks: u8,
    /// Deliberately disabled participant defenses (bug-reintroduction).
    pub faults: ParticipantFaults,
    /// Exploration cap; exceeding it reports `complete: false`.
    pub max_states: usize,
}

impl McConfig {
    /// A scope with one of each fault and a generous state cap.
    pub fn new(sites: u32, txns: u64) -> Self {
        McConfig {
            sites,
            txns,
            crashes: 1,
            drops: 1,
            dups: 1,
            rollbacks: 1,
            faults: ParticipantFaults::default(),
            max_states: 20_000_000,
        }
    }
}

/// A safety violation with its shortest-path witness.
#[derive(Debug, Clone)]
pub struct McViolation {
    /// Which invariant broke (the kebab-case names from the module docs).
    pub invariant: String,
    /// Human-readable transition labels from the initial state to the
    /// violating transition (inclusive).
    pub trace: Vec<String>,
}

/// The outcome of one exploration.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Distinct states reached (after deduplication).
    pub distinct_states: usize,
    /// States actually expanded before stopping.
    pub explored: usize,
    /// Whether the full scope was exhausted (no `max_states` truncation).
    pub complete: bool,
    /// First violation found, with its shortest trace.
    pub violation: Option<McViolation>,
    /// Every [`Effect`] kind some machine emitted during exploration —
    /// the coverage evidence that the scope exercises the protocol.
    pub effects_seen: BTreeSet<&'static str>,
}

/// An in-flight network message. Synchronous RPC in the live driver means
/// a vote is the prepare's reply; modelling both directions as messages
/// lets the scope interleave deliveries, drops, and duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Msg {
    Prepare { tid: TransId, to: u32, epoch: u64 },
    Vote { tid: TransId, from: u32, ok: bool },
}

/// One queued phase-two work item (mirrors the driver's `Phase2Work`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct P2Item {
    tid: TransId,
    commit: bool,
    pending: BTreeSet<u32>,
}

/// Per-site abstract substrate plus the site's real participant machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PartSite {
    sm: ParticipantSm,
    up: bool,
    /// Durable prepare log (journal-backed: survives crashes).
    prepare_log: BTreeSet<TransId>,
    /// Transactions whose intentions were installed here.
    installed: BTreeSet<TransId>,
    /// Transactions with acked-but-volatile dirty data here.
    dirty: BTreeSet<TransId>,
}

/// One global state of the bounded scope.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    coord: CoordinatorSm,
    parts: Vec<PartSite>,
    /// In-flight messages with multiplicity (duplicates raise the count).
    net: BTreeMap<Msg, u8>,
    /// Durable coordinator log at site 0 (survives crashes).
    coord_log: BTreeMap<TransId, TxnStatus>,
    /// Commit fences (the catalog is global and uncrashed, as in the sim).
    fences: BTreeSet<TransId>,
    /// The asynchronous phase-two queue at site 0 (in-memory in the driver,
    /// and the driver survives kernel crashes — so it survives here too).
    queue: Vec<P2Item>,
    /// Per-transaction boot epochs captured at start, indexed by site.
    epochs: BTreeMap<TransId, Vec<u64>>,
    committed: BTreeSet<TransId>,
    aborted: BTreeSet<TransId>,
    /// `(site, tid)` pairs whose acked writes were discarded while the
    /// transaction was undecided (crash of unprepared dirty data, or a
    /// unilateral rollback).
    lost: BTreeSet<(u32, TransId)>,
    txns_started: u64,
    crashes_left: u8,
    drops_left: u8,
    dups_left: u8,
    rollbacks_left: u8,
}

fn fid_at(site: u32) -> Fid {
    Fid::new(VolumeId(site), 1)
}

fn tid_for(k: u64) -> TransId {
    TransId::new(SiteId(0), k + 1)
}

impl World {
    fn init(cfg: &McConfig) -> World {
        World {
            coord: CoordinatorSm::new(SiteId(0)),
            parts: (0..cfg.sites)
                .map(|s| PartSite {
                    sm: ParticipantSm::with_faults(SiteId(s), 0, cfg.faults),
                    up: true,
                    prepare_log: BTreeSet::new(),
                    installed: BTreeSet::new(),
                    dirty: BTreeSet::new(),
                })
                .collect(),
            net: BTreeMap::new(),
            coord_log: BTreeMap::new(),
            fences: BTreeSet::new(),
            queue: Vec::new(),
            epochs: BTreeMap::new(),
            committed: BTreeSet::new(),
            aborted: BTreeSet::new(),
            lost: BTreeSet::new(),
            txns_started: 0,
            crashes_left: cfg.crashes,
            drops_left: cfg.drops,
            dups_left: cfg.dups,
            rollbacks_left: cfg.rollbacks,
        }
    }

    /// The file list for `tid`, reconstructed from the epochs captured when
    /// the transaction started (one file per site, as in `init`'s scope).
    fn files_for(&self, tid: TransId) -> Vec<FileListEntry> {
        let epochs = &self.epochs[&tid];
        (0..self.parts.len() as u32)
            .map(|s| FileListEntry {
                fid: fid_at(s),
                storage_site: SiteId(s),
                epoch: epochs[s as usize],
            })
            .collect()
    }

    fn add_msg(&mut self, m: Msg) {
        *self.net.entry(m).or_insert(0) += 1;
    }

    fn take_msg(&mut self, m: &Msg) {
        match self.net.get_mut(m) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.net.remove(m);
            }
        }
    }

    /// Record a commit/abort decision in the durable coordinator log,
    /// checking decision-level invariants.
    fn log_status(&mut self, tid: TransId, status: TxnStatus) -> Result<(), String> {
        match status {
            TxnStatus::Committed => {
                if self.aborted.contains(&tid) {
                    return Err(format!(
                        "commit-abort-exclusion: {tid} marked committed after an abort decision"
                    ));
                }
                self.committed.insert(tid);
                if let Some((s, _)) = self.lost.iter().find(|(_, t)| *t == tid) {
                    return Err(format!(
                        "no-lost-committed-writes: {tid} committed but site{s} \
                         discarded acked writes while it was undecided"
                    ));
                }
            }
            TxnStatus::Aborted => {
                if self.committed.contains(&tid) {
                    return Err(format!(
                        "commit-abort-exclusion: {tid} marked aborted after a commit decision"
                    ));
                }
                self.aborted.insert(tid);
            }
            TxnStatus::Unknown => {}
        }
        self.coord_log.insert(tid, status);
        Ok(())
    }

    /// Feed `input` to one machine and interpret its effects against the
    /// abstract substrate until quiescent. Returns what the machine told its
    /// remote caller — a yes vote or a phase-two ack; no if it said nothing.
    fn drive(
        &mut self,
        at: Machine,
        input: Input,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<bool, String> {
        let mut sub = Model {
            w: self,
            at,
            seen,
            reply: false,
        };
        drive(&mut sub, input)?;
        Ok(sub.reply)
    }

    /// Run one full prepare round at site `s` (the participant side of the
    /// synchronous prepare RPC), returning the vote.
    fn prepare_round(
        &mut self,
        s: usize,
        tid: TransId,
        epoch: u64,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<bool, String> {
        let input = Input::PrepareReq {
            tid,
            coordinator: SiteId(0),
            files: vec![fid_at(s as u32)],
            epoch,
        };
        let vote = self.drive(Machine::Part(s), input, seen)?;
        if vote && self.parts[s].sm.refuses(tid) {
            return Err(format!(
                "refusal-set-honored: site{s} voted yes on {tid} it had unilaterally rolled back"
            ));
        }
        if vote && epoch != self.parts[s].sm.boot_epoch() {
            return Err(format!(
                "boot-epoch-honored: site{s} voted yes on {tid} prepared under epoch \
                 {epoch} but its current boot epoch is {}",
                self.parts[s].sm.boot_epoch()
            ));
        }
        Ok(vote)
    }

    /// Perform a (possibly idempotent) install of `tid`'s intentions at
    /// site `s`, checking the install-side invariants.
    fn install_at(&mut self, s: usize, tid: TransId) -> Result<(), String> {
        let fresh =
            self.parts[s].prepare_log.contains(&tid) && !self.parts[s].installed.contains(&tid);
        if !fresh {
            // Duplicate phase-two delivery: nothing prepared and pending
            // here, the driver's install path finds no work and acks.
            return Ok(());
        }
        if !self.committed.contains(&tid) {
            return Err(format!(
                "install-without-commit: site{s} installed {tid} with no durable commit mark"
            ));
        }
        if self.aborted.contains(&tid) {
            return Err(format!(
                "install-of-aborted: site{s} installed {tid} after an abort decision"
            ));
        }
        if !self.fences.contains(&tid) {
            return Err(format!(
                "fence-holds-through-phase-two: site{s} installed {tid} \
                 with no commit fence up"
            ));
        }
        self.parts[s].prepare_log.remove(&tid);
        self.parts[s].dirty.remove(&tid);
        self.parts[s].installed.insert(tid);
        Ok(())
    }

    /// Deliver one phase-two message for queue item `i` to site `s` and,
    /// when the item completes, feed `Phase2Done` back to the coordinator.
    fn deliver_phase2(
        &mut self,
        i: usize,
        s: usize,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<(), String> {
        let item = self.queue[i].clone();
        let files = vec![fid_at(s as u32)];
        let first = if item.commit {
            Input::CommitReq {
                tid: item.tid,
                files,
            }
        } else {
            Input::AbortReq {
                tid: item.tid,
                files,
            }
        };
        if self.drive(Machine::Part(s), first, seen)? {
            let ack = Input::Phase2Ack {
                tid: item.tid,
                site: SiteId(s as u32),
                ok: true,
            };
            self.drive(Machine::Coord, ack, seen)?;
            self.queue[i].pending.remove(&(s as u32));
            if self.queue[i].pending.is_empty() {
                let done = self.queue.remove(i);
                let done = Input::Phase2Done {
                    tid: done.tid,
                    commit: done.commit,
                };
                self.drive(Machine::Coord, done, seen)?;
            }
        }
        Ok(())
    }

    /// Crash site `s`: volatile dirty data dies; journals and machines
    /// survive (the driver outlives the simulated kernel).
    fn crash(&mut self, s: usize) -> Result<(), String> {
        self.parts[s].up = false;
        let dirty: Vec<TransId> = self.parts[s].dirty.iter().copied().collect();
        for tid in dirty {
            if !self.parts[s].prepare_log.contains(&tid) && !self.parts[s].installed.contains(&tid)
            {
                self.lost.insert((s as u32, tid));
                if self.committed.contains(&tid) {
                    return Err(format!(
                        "no-lost-committed-writes: site{s} crashed holding unprepared \
                         dirty data of already-committed {tid}"
                    ));
                }
            }
        }
        self.parts[s].dirty.clear();
        Ok(())
    }

    /// Reboot site `s` under a new epoch and run its recovery scan through
    /// the machines, exactly as `TxnManager::recover` does.
    fn reboot(&mut self, s: usize, seen: &mut BTreeSet<&'static str>) -> Result<(), String> {
        self.parts[s].up = true;
        let epoch = self.parts[s].sm.boot_epoch() + 1;
        self.drive(Machine::Part(s), Input::Rebooted { epoch }, seen)?;
        if s == 0 {
            // Coordinator-log scan: re-drive committed transactions, abort
            // undecided ones (presumed abort).
            let scans: Vec<(TransId, TxnStatus)> =
                self.coord_log.iter().map(|(t, st)| (*t, *st)).collect();
            for (tid, status) in scans {
                let files = self.files_for(tid);
                self.drive(
                    Machine::Coord,
                    Input::CoordScan { tid, files, status },
                    seen,
                )?;
            }
        }
        // Prepare-log scan: resolve each in-doubt prepare against the
        // coordinator (reachable only if site 0 is up).
        let recovered: Vec<TransId> = self.parts[s].prepare_log.iter().copied().collect();
        for tid in recovered {
            let input = Input::RecoveredPrepare {
                tid,
                fid: fid_at(s as u32),
                coordinator: SiteId(0),
            };
            self.drive(Machine::Part(s), input, seen)?;
        }
        Ok(())
    }

    /// Start transaction number `txns_started`: acked dirty writes land at
    /// every site (epochs captured per site, as the file list does at open
    /// time), then the top-level `EndTrans` requests commit.
    fn start_txn(&mut self, seen: &mut BTreeSet<&'static str>) -> Result<(), String> {
        let tid = tid_for(self.txns_started);
        self.txns_started += 1;
        let epochs: Vec<u64> = self.parts.iter().map(|p| p.sm.boot_epoch()).collect();
        self.epochs.insert(tid, epochs);
        for p in self.parts.iter_mut() {
            p.dirty.insert(tid);
        }
        let files = self.files_for(tid);
        self.drive(Machine::Coord, Input::commit_requested(tid, files), seen)
            .map(|_| ())
    }

    /// A partition strands site `s` holding `tid`'s writes: the input the
    /// topology-change handler drives. Returns whether the machine rolled
    /// the transaction back (it acks its rollback, and says nothing when it
    /// keeps a prepared transaction in doubt). A rollback discards acked
    /// writes while the outcome is still open, which is exactly why the
    /// refusal set must be permanent.
    fn strand(
        &mut self,
        s: usize,
        tid: TransId,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<bool, String> {
        let files = vec![fid_at(s as u32)];
        let rolled_back = self.drive(Machine::Part(s), Input::Stranded { tid, files }, seen)?;
        if rolled_back {
            self.lost.insert((s as u32, tid));
        }
        Ok(rolled_back)
    }
}

/// Which machine a [`Model`] steps: the coordinator (at site 0) or the
/// participant at one site.
#[derive(Clone, Copy)]
enum Machine {
    Coord,
    Part(usize),
}

/// The abstract [`Substrate`]: one machine of a [`World`], the world's sets
/// and maps as the things effects act on, and the invariants checked as they
/// do. A violated invariant is the substrate's error and ends the drive.
struct Model<'a> {
    w: &'a mut World,
    at: Machine,
    /// Every effect kind interpreted, for the coverage report.
    seen: &'a mut BTreeSet<&'static str>,
    /// The machine's vote or phase-two ack; no until it says yes.
    reply: bool,
}

impl Substrate for Model<'_> {
    type Error = String;

    fn step(&mut self, input: Input) -> Vec<Effect> {
        match self.at {
            Machine::Coord => self.w.coord.step(&input),
            Machine::Part(s) => self.w.parts[s].sm.step(&input),
        }
    }

    // No catch-all arm over `Effect`: a new effect kind must not compile
    // until this substrate says what it means.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn interpret(&mut self, effect: Effect) -> Result<Option<Input>, String> {
        self.seen.insert(effect.name());
        let w = &mut *self.w;
        // The site a participant effect acts at; the coordinator is site 0.
        let s = match self.at {
            Machine::Coord => 0,
            Machine::Part(s) => s,
        };
        Ok(match effect {
            Effect::LogStart { tid, .. } => {
                w.coord_log.insert(tid, TxnStatus::Unknown);
                Some(Input::StartLogged { tid, ok: true })
            }
            Effect::SendPrepare {
                tid, site, epoch, ..
            } => {
                // The vote comes back as a message of its own, so deliveries,
                // drops and duplicates interleave with everything else.
                w.add_msg(Msg::Prepare {
                    tid,
                    to: site.0,
                    epoch,
                });
                None
            }
            Effect::RaiseFences { tid, .. } => {
                w.fences.insert(tid);
                None
            }
            Effect::LogStatus {
                tid,
                status,
                critical,
            } => {
                w.log_status(tid, status)?;
                critical.then_some(Input::StatusLogged { tid, ok: true })
            }
            Effect::QueuePhase2 {
                tid,
                commit,
                participants,
            } => {
                w.queue.push(P2Item {
                    tid,
                    commit,
                    pending: participants.iter().map(|(s, _)| s.0).collect(),
                });
                None
            }
            Effect::PurgeCoordLog { tid } => {
                w.coord_log.remove(&tid);
                None
            }
            Effect::DropFence { tid } => {
                if w.committed.contains(&tid) {
                    for (i, p) in w.parts.iter().enumerate() {
                        if p.prepare_log.contains(&tid) {
                            return Err(format!(
                                "fence-holds-through-phase-two: fence for \
                                 committed {tid} dropped while site{i} still \
                                 holds its prepare log"
                            ));
                        }
                    }
                }
                w.fences.remove(&tid);
                None
            }
            // Announcements, local process bookkeeping and locks:
            // no substrate in the model.
            Effect::FinishLocal { .. }
            | Effect::NoteAborted { .. }
            | Effect::NoteCompleted { .. }
            | Effect::NoteRecoveryRedo { .. }
            | Effect::NoteRecoveryAbort { .. }
            | Effect::ReleaseLocks { .. } => None,
            Effect::CheckPrimary { tid, .. } => {
                // No failover in this scope: always still primary.
                Some(Input::PrimaryChecked { tid, ok: true })
            }
            Effect::CheckKnown { tid, .. } => {
                let known = w.parts[s].dirty.contains(&tid)
                    || w.parts[s].prepare_log.contains(&tid)
                    || (s == 0 && w.coord.status_of(tid) == Some(TxnStatus::Unknown));
                Some(Input::KnownChecked { tid, known })
            }
            Effect::StageAndLog { tid, .. } => {
                // Staging is reliable in-scope; crashes are the injected
                // fault, not disk errors.
                w.parts[s].prepare_log.insert(tid);
                Some(Input::Staged { tid, ok: true })
            }
            Effect::Vote { ok, .. } | Effect::Ack { ok, .. } => {
                self.reply = ok;
                None
            }
            Effect::Install { tid, .. } => {
                w.install_at(s, tid)?;
                Some(Input::Installed { tid, ok: true })
            }
            Effect::Rollback { tid, .. } => {
                // Discard staged state. After a coordinator-decided abort
                // that is not a "lost write" — nothing acked survives an
                // abort by design; a unilateral rollback records the loss
                // itself.
                w.parts[s].prepare_log.remove(&tid);
                w.parts[s].dirty.remove(&tid);
                Some(Input::RolledBack { tid, ok: true })
            }
            Effect::QueryStatus { tid, fid, .. } => {
                let outcome = if s == 0 || w.parts[0].up {
                    w.coord_log.get(&tid).copied().into()
                } else {
                    PrepareOutcome::Unreachable
                };
                Some(Input::StatusResolved { tid, fid, outcome })
            }
            Effect::InstallRecovered { tid, .. } => {
                w.install_at(s, tid)?;
                None
            }
            Effect::PurgePrepareLog { tid, .. } => {
                w.parts[s].prepare_log.remove(&tid);
                None
            }
        })
    }
}

/// Enumerate every transition enabled in `w`. Each successor is the label
/// plus either the next world or the invariant violation the transition
/// exposed.
fn successors(
    cfg: &McConfig,
    w: &World,
    seen: &mut BTreeSet<&'static str>,
) -> Vec<(String, Result<World, String>)> {
    let mut out: Vec<(String, Result<World, String>)> = Vec::new();

    let all_up = w.parts.iter().all(|p| p.up);

    // Start the next transaction (writes need every site up).
    if w.txns_started < cfg.txns && all_up {
        let tid = tid_for(w.txns_started);
        let mut n = w.clone();
        let r = n.start_txn(seen).map(|_| n);
        out.push((format!("start {tid}"), r));
    }

    // Network: deliver / drop / duplicate each distinct in-flight message.
    for m in w.net.keys() {
        match *m {
            Msg::Prepare { tid, to, epoch } => {
                let s = to as usize;
                if w.parts[s].up {
                    let mut n = w.clone();
                    n.take_msg(m);
                    let r = n.prepare_round(s, tid, epoch, seen).map(|ok| {
                        n.add_msg(Msg::Vote { tid, from: to, ok });
                        n
                    });
                    out.push((format!("deliver prepare {tid} -> site{s}"), r));
                } else {
                    // The target is down: the synchronous RPC errors out,
                    // which the coordinator counts as a no vote.
                    let mut n = w.clone();
                    n.take_msg(m);
                    n.add_msg(Msg::Vote {
                        tid,
                        from: to,
                        ok: false,
                    });
                    out.push((format!("prepare {tid} -> site{s} fails (site down)"), Ok(n)));
                }
                if w.drops_left > 0 && w.parts[s].up {
                    let mut n = w.clone();
                    n.drops_left -= 1;
                    n.take_msg(m);
                    n.add_msg(Msg::Vote {
                        tid,
                        from: to,
                        ok: false,
                    });
                    out.push((format!("drop prepare {tid} -> site{s}"), Ok(n)));
                }
                if w.dups_left > 0 && w.parts[s].up {
                    let mut n = w.clone();
                    n.dups_left -= 1;
                    let r = n.prepare_round(s, tid, epoch, seen).map(|ok| {
                        n.add_msg(Msg::Vote { tid, from: to, ok });
                        n
                    });
                    out.push((format!("duplicate prepare {tid} -> site{s}"), r));
                }
            }
            Msg::Vote { tid, from, ok } => {
                if w.parts[0].up {
                    let mut n = w.clone();
                    n.take_msg(m);
                    let vote = Input::Vote {
                        tid,
                        site: SiteId(from),
                        ok,
                    };
                    let r = n.drive(Machine::Coord, vote, seen).map(|_| n);
                    out.push((
                        format!(
                            "deliver vote {tid} site{from}={}",
                            if ok { "yes" } else { "no" }
                        ),
                        r,
                    ));
                }
            }
        }
    }

    // Phase two: the daemon at site 0 messages one pending participant.
    if w.parts[0].up {
        for (i, item) in w.queue.iter().enumerate() {
            for s in item.pending.iter().map(|s| *s as usize) {
                if !w.parts[s].up {
                    continue; // stays pending until the site reboots
                }
                let mut n = w.clone();
                let r = n.deliver_phase2(i, s, seen).map(|_| n);
                out.push((
                    format!(
                        "phase2 {} {} -> site{s}",
                        if item.commit { "commit" } else { "abort" },
                        item.tid
                    ),
                    r,
                ));
            }
        }
    }

    // Crashes and reboots.
    for s in 0..w.parts.len() {
        if w.parts[s].up && w.crashes_left > 0 {
            let mut n = w.clone();
            n.crashes_left -= 1;
            let r = n.crash(s).map(|_| n);
            out.push((format!("crash site{s}"), r));
        }
        if !w.parts[s].up {
            let mut n = w.clone();
            let r = n.reboot(s, seen).map(|_| n);
            out.push((format!("reboot site{s}"), r));
        }
    }

    // A partition stranding an undecided transaction at a participant, and
    // re-dirtying after a loss (the transaction's processes
    // re-established their state once the fault healed).
    for k in 0..w.txns_started {
        let tid = tid_for(k);
        let undecided = !w.committed.contains(&tid) && !w.aborted.contains(&tid);
        if !undecided {
            continue;
        }
        for s in 0..w.parts.len() {
            if !w.parts[s].up {
                continue;
            }
            if w.rollbacks_left > 0
                && w.parts[s].dirty.contains(&tid)
                && !w.parts[s].installed.contains(&tid)
            {
                // The machine decides; a prepared transaction stays in
                // doubt, which changes nothing and so is no transition.
                let mut n = w.clone();
                n.rollbacks_left -= 1;
                match n.strand(s, tid, seen) {
                    Ok(false) => {}
                    r => out.push((
                        format!("unilateral rollback {tid} at site{s}"),
                        r.map(|_| n),
                    )),
                }
            }
            if w.lost.contains(&(s as u32, tid))
                && !w.parts[s].dirty.contains(&tid)
                && !w.parts[s].prepare_log.contains(&tid)
                && !w.parts[s].installed.contains(&tid)
            {
                let mut n = w.clone();
                n.parts[s].dirty.insert(tid);
                out.push((format!("re-dirty {tid} at site{s}"), Ok(n)));
            }
        }
    }

    out
}

/// Exhaustively explore the scope breadth-first. Returns the first
/// violation found (with the shortest trace to it) or a clean report.
pub fn check(cfg: &McConfig) -> McReport {
    fn fingerprint(w: &World) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        w.hash(&mut h);
        h.finish()
    }

    let w0 = World::init(cfg);
    let h0 = fingerprint(&w0);
    let mut states: Vec<World> = vec![w0];
    let mut parent: Vec<(usize, String)> = vec![(0, String::new())];
    // Fingerprint buckets into `states`; full equality against the stored
    // world resolves collisions, so dedup is exact, not probabilistic.
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    index.insert(h0, vec![0]);
    let mut frontier: VecDeque<usize> = VecDeque::new();
    frontier.push_back(0);
    let mut effects_seen: BTreeSet<&'static str> = BTreeSet::new();
    let mut explored = 0usize;

    let trace_to = |parent: &[(usize, String)], mut i: usize, last: String| {
        let mut trace = vec![last];
        while i != 0 {
            let (p, ref label) = parent[i];
            trace.push(label.clone());
            i = p;
        }
        trace.reverse();
        trace
    };

    while let Some(i) = frontier.pop_front() {
        if explored >= cfg.max_states {
            return McReport {
                distinct_states: states.len(),
                explored,
                complete: false,
                violation: None,
                effects_seen,
            };
        }
        explored += 1;
        let succs = successors(cfg, &states[i], &mut effects_seen);
        for (label, result) in succs {
            match result {
                Err(invariant) => {
                    let trace = trace_to(&parent, i, label);
                    return McReport {
                        distinct_states: states.len(),
                        explored,
                        complete: false,
                        violation: Some(McViolation { invariant, trace }),
                        effects_seen,
                    };
                }
                Ok(next) => {
                    let h = fingerprint(&next);
                    let bucket = index.entry(h).or_default();
                    if bucket.iter().any(|&j| states[j] == next) {
                        continue;
                    }
                    let id = states.len();
                    bucket.push(id);
                    states.push(next);
                    parent.push((i, label));
                    frontier.push_back(id);
                }
            }
        }
    }

    McReport {
        distinct_states: states.len(),
        explored,
        complete: true,
        violation: None,
        effects_seen,
    }
}
