//! Exhaustive small-scope model checker for the sans-IO 2PC machines.
//!
//! The checker drives the *production* [`CoordinatorSm`] and
//! [`ParticipantSm`] structs through the *production* effect loop,
//! [`drive`] — the same code the live `TxnManager` runs — over every
//! interleaving a bounded scope allows, and asserts the 2PC safety
//! invariants on every edge. One global state is the machines plus an
//! abstract substrate: the durable coordinator logs, per-site prepare logs,
//! the global commit-fence set, dirty/installed bookkeeping, in-flight
//! messages, and the asynchronous phase-two queue. What each [`Effect`]
//! means against that substrate is one exhaustive `match`, so a new effect
//! kind does not compile until the model says what it does. Exploration is
//! breadth-first with full-state deduplication, so a reported
//! counterexample trace is shortest-possible.
//!
//! **Scope.** Site 0 starts every transaction. By default each transaction
//! writes one file at every site; with [`McConfig::remote_only`] it writes
//! one at every site *but* site 0. Over two sites that is the delegated
//! shape — one participant, not the requester, which decides — and over
//! three it is `commit_dist`'s: a requester with no file of its own and two
//! remote participants, whose durable yes votes decide. A delegate among
//! peers in doubt asks them (after a reboot, or stranded by a partition),
//! and the requester's forgets reach each delegate once phase two is done.
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
//! defenses). A delegation may be dropped or duplicated like a prepare, and
//! its answer dropped on the way back. Each fault class has its own budget
//! so the scope stays finite.
//!
//! **Invariants** (checked on every transition):
//!
//! * `commit-abort-exclusion` — no transaction is ever both committed and
//!   aborted, and no caller is told the opposite of the decision.
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
//! * `votes-decide` — no site announces a commit point that the
//!   participants' durable yes votes have not reached.
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
    /// Number of sites. Site 0 starts every transaction and coordinates it
    /// unless it delegates.
    pub sites: u32,
    /// Number of transactions (started sequentially, run concurrently).
    pub txns: u64,
    /// Whether each transaction writes a file at every site but site 0
    /// rather than at every site.
    pub remote_only: bool,
    /// How many site crashes the scope may inject.
    pub crashes: u8,
    /// How many prepare messages (or delegations, or their answers) may be
    /// dropped.
    pub drops: u8,
    /// How many prepare deliveries (or delegations) may be duplicated.
    pub dups: u8,
    /// How many unilateral (partition-style) rollbacks may occur.
    pub rollbacks: u8,
    /// Deliberately disabled defenses (bug-reintroduction).
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
            remote_only: false,
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
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Msg {
    Prepare {
        tid: TransId,
        to: u32,
        epoch: u64,
    },
    Vote {
        tid: TransId,
        from: u32,
        ok: bool,
    },
    /// Site 0 hands `to` the decision, alone or with the other storage
    /// sites, with the forgets it had for `to`.
    Delegate {
        tid: TransId,
        to: u32,
        forget: Vec<TransId>,
    },
    /// The delegate's answer — the outcome from a delegate alone, its vote
    /// from one among peers — or `None` when the delegation or its answer
    /// was lost.
    Answer {
        tid: TransId,
        from: u32,
        ok: Option<bool>,
    },
}

/// One queued phase-two work item (mirrors the driver's `Phase2Work`), in
/// the queue of the coordinator at site `coord`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct P2Item {
    coord: u32,
    tid: TransId,
    commit: bool,
    pending: BTreeSet<u32>,
}

/// Per-site abstract substrate plus the site's real participant machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PartSite {
    sm: ParticipantSm,
    up: bool,
    /// Durable prepare log (journal-backed: survives crashes), with the
    /// coordinator each record names.
    prepare_log: BTreeMap<TransId, u32>,
    /// Transactions whose intentions were installed here.
    installed: BTreeSet<TransId>,
    /// Transactions with acked-but-volatile dirty data here.
    dirty: BTreeSet<TransId>,
}

/// One global state of the bounded scope.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    /// Every site's coordinator machine: site 0's coordinates or delegates,
    /// another's decides what site 0 delegated to it.
    coords: Vec<CoordinatorSm>,
    parts: Vec<PartSite>,
    /// In-flight messages with multiplicity (duplicates raise the count).
    net: BTreeMap<Msg, u8>,
    /// Durable coordinator log per site (survives crashes).
    coord_logs: Vec<BTreeMap<TransId, TxnStatus>>,
    /// Commit fences (the catalog is global and uncrashed, as in the sim).
    fences: BTreeSet<TransId>,
    /// The asynchronous phase-two queues (in-memory in the driver, and the
    /// driver survives kernel crashes — so they survive here too).
    queue: Vec<P2Item>,
    /// Inquiries to retry: `(asking site, tid)`.
    inquiries: BTreeSet<(u32, TransId)>,
    /// Site 0's forgets not yet sent, by delegate.
    forgets: BTreeMap<u32, BTreeSet<TransId>>,
    /// Per-transaction boot epochs captured at start, indexed by site.
    epochs: BTreeMap<TransId, Vec<u64>>,
    committed: BTreeSet<TransId>,
    aborted: BTreeSet<TransId>,
    /// `(site, tid)` pairs whose acked writes were discarded while the
    /// transaction was undecided (crash of unprepared dirty data, or a
    /// unilateral rollback).
    lost: BTreeSet<(u32, TransId)>,
    remote_only: bool,
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

/// What a machine told its remote caller.
#[derive(Default)]
struct Reply {
    /// A yes vote or a phase-two ack; no if it said nothing.
    yes: bool,
    /// A delegate's answer, if it gave one.
    answer: Option<bool>,
    /// Whether the machine asked for any effect at all.
    acted: bool,
}

impl World {
    fn init(cfg: &McConfig) -> World {
        World {
            coords: (0..cfg.sites)
                .map(|s| CoordinatorSm::with_faults(SiteId(s), cfg.faults))
                .collect(),
            parts: (0..cfg.sites)
                .map(|s| PartSite {
                    sm: ParticipantSm::with_faults(SiteId(s), 0, cfg.faults),
                    up: true,
                    prepare_log: BTreeMap::new(),
                    installed: BTreeSet::new(),
                    dirty: BTreeSet::new(),
                })
                .collect(),
            net: BTreeMap::new(),
            coord_logs: vec![BTreeMap::new(); cfg.sites as usize],
            fences: BTreeSet::new(),
            queue: Vec::new(),
            inquiries: BTreeSet::new(),
            forgets: BTreeMap::new(),
            epochs: BTreeMap::new(),
            committed: BTreeSet::new(),
            aborted: BTreeSet::new(),
            lost: BTreeSet::new(),
            remote_only: cfg.remote_only,
            txns_started: 0,
            crashes_left: cfg.crashes,
            drops_left: cfg.drops,
            dups_left: cfg.dups,
            rollbacks_left: cfg.rollbacks,
        }
    }

    /// The sites every transaction writes a file at.
    fn storage_sites(&self) -> std::ops::Range<u32> {
        u32::from(self.remote_only)..self.parts.len() as u32
    }

    /// The file list for `tid`, reconstructed from the epochs captured when
    /// the transaction started (one file per storage site).
    fn files_for(&self, tid: TransId) -> Vec<FileListEntry> {
        let epochs = &self.epochs[&tid];
        self.storage_sites()
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

    /// Record a commit/abort decision in site `s`'s durable coordinator
    /// log, checking decision-level invariants.
    fn log_status(&mut self, s: usize, tid: TransId, status: TxnStatus) -> Result<(), String> {
        match status {
            TxnStatus::Committed => self.commit_decided(tid)?,
            TxnStatus::Aborted => self.abort_decided(tid, "marked aborted")?,
            TxnStatus::Unknown | TxnStatus::Voted => {}
        }
        self.coord_logs[s].insert(tid, status);
        Ok(())
    }

    /// Records that `tid` reached its commit point — a durable mark, or the
    /// last durable yes among delegates — which must not contradict an
    /// abort or follow a lost write.
    fn commit_decided(&mut self, tid: TransId) -> Result<(), String> {
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
        Ok(())
    }

    /// Site `s` forced its yes record of `tid`: once every storage site
    /// holds one, the votes are the commit point.
    fn vote_logged(&mut self, s: usize, tid: TransId) -> Result<(), String> {
        self.coord_logs[s].insert(tid, TxnStatus::Voted);
        let yes = |log: &BTreeMap<TransId, TxnStatus>| {
            matches!(log.get(&tid), Some(TxnStatus::Voted | TxnStatus::Committed))
        };
        if self
            .storage_sites()
            .all(|p| yes(&self.coord_logs[p as usize]))
        {
            self.commit_decided(tid)?;
        }
        Ok(())
    }

    /// Records that `tid` was decided aborted — by a mark, an answer to the
    /// caller, or an inquiry — which must not contradict a commit.
    fn abort_decided(&mut self, tid: TransId, how: &str) -> Result<(), String> {
        if self.committed.contains(&tid) {
            return Err(format!(
                "commit-abort-exclusion: {tid} {how} after a commit decision"
            ));
        }
        self.aborted.insert(tid);
        Ok(())
    }

    /// Feed `input` to one machine and interpret its effects against the
    /// abstract substrate until quiescent, returning what it told its
    /// remote caller.
    fn run(
        &mut self,
        at: Machine,
        input: Input,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<Reply, String> {
        let mut sub = Model {
            w: self,
            at,
            seen,
            reply: Reply::default(),
        };
        drive(&mut sub, input)?;
        Ok(sub.reply)
    }

    /// [`World::run`] for a yes-or-no reply: a vote or a phase-two ack.
    fn drive(
        &mut self,
        at: Machine,
        input: Input,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<bool, String> {
        self.run(at, input, seen).map(|r| r.yes)
    }

    /// Run one full prepare round at site `s` for the coordinator at
    /// `coordinator` (the participant side of the synchronous prepare RPC),
    /// returning the vote.
    fn prepare_round(
        &mut self,
        s: usize,
        coordinator: u32,
        tid: TransId,
        epoch: u64,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<bool, String> {
        let input = Input::PrepareReq {
            tid,
            coordinator: SiteId(coordinator),
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

    /// Deliver a delegation of `tid` to site `d`: its coordinator takes the
    /// forgets, then decides or votes, and its answer — or its silence —
    /// heads back.
    fn delegate_round(
        &mut self,
        d: usize,
        tid: TransId,
        forget: Vec<TransId>,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<(), String> {
        self.forget_at(d, forget, seen)?;
        let files = self.files_for(tid);
        let req = Input::DelegateReq { tid, files };
        let ok = self.run(Machine::Coord(d), req, seen)?.answer;
        self.add_msg(Msg::Answer {
            tid,
            from: d as u32,
            ok,
        });
        Ok(())
    }

    /// Site 0's forgets reach delegate `d`.
    fn forget_at(
        &mut self,
        d: usize,
        tids: Vec<TransId>,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<(), String> {
        let forget = Input::Forget {
            from: SiteId(0),
            tids,
        };
        self.run(Machine::Coord(d), forget, seen).map(|_| ())
    }

    /// A site asks delegate `d` about `tid`, as `StatusInquiry` does: the
    /// logged outcome (or yes) if any; otherwise `d` aborts the transaction
    /// before it says so.
    fn inquire(
        &mut self,
        d: usize,
        tid: TransId,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<PrepareOutcome, String> {
        if !self.parts[d].up {
            return Ok(PrepareOutcome::Unreachable);
        }
        if let Some(status) = self.coord_logs[d].get(&tid) {
            return Ok(Some(*status).into());
        }
        let files = vec![fid_at(d as u32)];
        self.drive(Machine::Part(d), Input::AbortReq { tid, files }, seen)?;
        self.abort_decided(tid, "aborted by an inquiry")?;
        Ok(PrepareOutcome::AbortedOrForgotten)
    }

    /// Perform a (possibly idempotent) install of `tid`'s intentions at
    /// site `s`, checking the install-side invariants.
    fn install_at(&mut self, s: usize, tid: TransId) -> Result<(), String> {
        let fresh =
            self.parts[s].prepare_log.contains_key(&tid) && !self.parts[s].installed.contains(&tid);
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
    /// when the item completes, feed `Phase2Done` back to its coordinator.
    fn deliver_phase2(
        &mut self,
        i: usize,
        s: usize,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<(), String> {
        let item = self.queue[i].clone();
        let coord = Machine::Coord(item.coord as usize);
        let files = vec![fid_at(s as u32)];
        // A delegate among peers takes it in its coordinator machine first.
        let to = if self.coords[s].holds_vote(item.tid) {
            Machine::Coord(s)
        } else {
            Machine::Part(s)
        };
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
        if self.drive(to, first, seen)? {
            let ack = Input::Phase2Ack {
                tid: item.tid,
                site: SiteId(s as u32),
                ok: true,
            };
            self.drive(coord, ack, seen)?;
            self.queue[i].pending.remove(&(s as u32));
            if self.queue[i].pending.is_empty() {
                let done = self.queue.remove(i);
                let done = Input::Phase2Done {
                    tid: done.tid,
                    commit: done.commit,
                };
                self.drive(coord, done, seen)?;
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
            if !self.parts[s].prepare_log.contains_key(&tid)
                && !self.parts[s].installed.contains(&tid)
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
        // Coordinator-log scan: re-drive committed transactions, abort
        // undecided ones (presumed abort) — or, at a delegate among peers,
        // ask them. Every record names the whole file list.
        let scans: Vec<(TransId, TxnStatus)> =
            self.coord_logs[s].iter().map(|(t, st)| (*t, *st)).collect();
        for (tid, status) in scans {
            let files = self.files_for(tid);
            self.drive(
                Machine::Coord(s),
                Input::CoordScan {
                    tid,
                    files,
                    status,
                    site: SiteId(s as u32),
                    // A site's install and the note ahead of it are one
                    // step here: the lost tail is not modelled.
                    installed: false,
                },
                seen,
            )?;
        }
        // Prepare-log scan: resolve each in-doubt prepare against the
        // coordinator it names.
        let recovered: Vec<(TransId, u32)> = self.parts[s]
            .prepare_log
            .iter()
            .map(|(t, c)| (*t, *c))
            .collect();
        for (tid, coordinator) in recovered {
            let input = Input::RecoveredPrepare {
                tid,
                fid: fid_at(s as u32),
                coordinator: SiteId(coordinator),
            };
            self.drive(Machine::Part(s), input, seen)?;
        }
        Ok(())
    }

    /// Start transaction number `txns_started`: acked dirty writes land at
    /// every storage site (epochs captured per site, as the file list does
    /// at open time), then the top-level `EndTrans` requests commit.
    fn start_txn(&mut self, seen: &mut BTreeSet<&'static str>) -> Result<(), String> {
        let tid = tid_for(self.txns_started);
        self.txns_started += 1;
        let epochs: Vec<u64> = self.parts.iter().map(|p| p.sm.boot_epoch()).collect();
        self.epochs.insert(tid, epochs);
        for s in self.storage_sites() {
            self.parts[s as usize].dirty.insert(tid);
        }
        let files = self.files_for(tid);
        self.drive(Machine::Coord(0), Input::commit_requested(tid, files), seen)
            .map(|_| ())
    }

    /// A partition strands site `s` holding `tid`'s writes: the inputs the
    /// topology-change handler drives — its coordinator machine's (site 0
    /// out of reach: a delegate among peers asks them), then, if it still
    /// holds them, its participant machine's. Returns whether anything
    /// changed: a rollback (the machine acks it, and says nothing when it
    /// keeps a prepared transaction in doubt) or an inquiry. A rollback
    /// discards acked writes while the outcome is still open, which is
    /// exactly why the refusal set must be permanent.
    fn strand(
        &mut self,
        s: usize,
        tid: TransId,
        seen: &mut BTreeSet<&'static str>,
    ) -> Result<bool, String> {
        let mut acted = false;
        if s != 0 {
            let reachable = (1..self.parts.len() as u32).map(SiteId).collect();
            let cut = Input::TopologyChanged { reachable };
            acted = self.run(Machine::Coord(s), cut, seen)?.acted;
        }
        if !self.parts[s].dirty.contains(&tid) && !self.parts[s].prepare_log.contains_key(&tid) {
            return Ok(acted);
        }
        let files = vec![fid_at(s as u32)];
        let rolled_back = self.drive(Machine::Part(s), Input::Stranded { tid, files }, seen)?;
        if rolled_back {
            self.lost.insert((s as u32, tid));
        }
        Ok(rolled_back || acted)
    }
}

/// Which machine a [`Model`] steps: the coordinator or the participant at
/// one site.
#[derive(Clone, Copy)]
enum Machine {
    Coord(usize),
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
    /// What the machine told its remote caller.
    reply: Reply,
}

impl Substrate for Model<'_> {
    type Error = String;

    fn step(&mut self, input: Input) -> Vec<Effect> {
        match self.at {
            Machine::Coord(s) => self.w.coords[s].step(&input),
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
        self.reply.acted = true;
        let w = &mut *self.w;
        // The site the effect acts at.
        let s = match self.at {
            Machine::Coord(s) | Machine::Part(s) => s,
        };
        Ok(match effect {
            Effect::LogStart { tid, .. } => {
                w.coord_logs[s].insert(tid, TxnStatus::Unknown);
                Some(Input::StartLogged { tid, ok: true })
            }
            Effect::SendPrepare {
                tid, site, epoch, ..
            } if s != 0 => {
                // A delegate preparing itself: a local call inside the
                // delegation, which no fault can split. (Site 0's prepares
                // to itself go over the network, as they always have here:
                // its start record covers what that adds.)
                let ok = w.prepare_round(site.0 as usize, s as u32, tid, epoch, self.seen)?;
                Some(Input::Vote { tid, site, ok })
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
                w.log_status(s, tid, status)?;
                critical.then_some(Input::StatusLogged { tid, ok: true })
            }
            Effect::LogRecord { tid, status, .. } => {
                if status == TxnStatus::Committed {
                    w.log_status(s, tid, status)?;
                } else {
                    w.vote_logged(s, tid)?;
                }
                Some(Input::StatusLogged { tid, ok: true })
            }
            Effect::NoteCommitPoint { tid } => {
                if !w.committed.contains(&tid) {
                    return Err(format!(
                        "votes-decide: site{s} announced {tid} committed before every \
                         participant's yes was durable"
                    ));
                }
                None
            }
            Effect::QueuePhase2 {
                tid,
                commit,
                participants,
            } => {
                w.queue.push(P2Item {
                    coord: s as u32,
                    tid,
                    commit,
                    pending: participants.iter().map(|(s, _)| s.0).collect(),
                });
                None
            }
            Effect::PurgeCoordLog { tid } => {
                w.coord_logs[s].remove(&tid);
                None
            }
            Effect::DropFence { tid } => {
                if w.committed.contains(&tid) {
                    for (i, p) in w.parts.iter().enumerate() {
                        if p.prepare_log.contains_key(&tid) {
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
            Effect::FinishLocal { tid, commit } => {
                // What the caller is told must be the decision.
                if commit && w.aborted.contains(&tid) {
                    return Err(format!(
                        "commit-abort-exclusion: {tid} reported committed after an abort decision"
                    ));
                }
                if !commit {
                    w.abort_decided(tid, "reported aborted to its caller")?;
                }
                None
            }
            // Announcements and locks: no substrate in the model.
            Effect::NoteAborted { .. }
            | Effect::NoteCompleted { .. }
            | Effect::NoteRecoveryRedo { .. }
            | Effect::NoteRecoveryAbort { .. }
            | Effect::ReleaseLocks { .. } => None,
            Effect::SendDelegate { tid, site, .. } => {
                let forget = w.forgets.remove(&site.0).unwrap_or_default();
                w.add_msg(Msg::Delegate {
                    tid,
                    to: site.0,
                    forget: forget.into_iter().collect(),
                });
                None
            }
            Effect::Inquire { tid, site } => {
                let outcome = w.inquire(site.0 as usize, tid, self.seen)?;
                Some(Input::DelegateAnswer { tid, site, outcome })
            }
            Effect::QueueInquiry { tid } => {
                w.inquiries.insert((s as u32, tid));
                None
            }
            Effect::Forget { tid, site } => {
                w.forgets.entry(site.0).or_default().insert(tid);
                None
            }
            Effect::FinishHere { tid, commit, files } => {
                let input = if commit {
                    Input::CommitReq { tid, files }
                } else {
                    Input::AbortReq { tid, files }
                };
                let ok = w.drive(Machine::Part(s), input, self.seen)?;
                // A phase-two message taken here is acked as the
                // participant machine acked it.
                self.reply.yes = ok;
                Some(Input::FinishedHere { tid, ok })
            }
            Effect::Answer { ok, .. } => {
                self.reply.answer = Some(ok);
                None
            }
            Effect::CheckPrimary { tid, .. } => {
                // No failover in this scope: always still primary.
                Some(Input::PrimaryChecked { tid, ok: true })
            }
            Effect::CheckKnown { tid, .. } => {
                let known = w.parts[s].dirty.contains(&tid)
                    || w.parts[s].prepare_log.contains_key(&tid)
                    || w.coords[s].coordinates_undecided(tid);
                Some(Input::KnownChecked { tid, known })
            }
            Effect::StageAndLog {
                tid, coordinator, ..
            } => {
                // Staging is reliable in-scope; crashes are the injected
                // fault, not disk errors.
                w.parts[s].prepare_log.insert(tid, coordinator.0);
                Some(Input::Staged { tid, ok: true })
            }
            Effect::Vote { ok, .. } | Effect::Ack { ok, .. } => {
                self.reply.yes = ok;
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
            Effect::QueryStatus {
                tid,
                fid,
                coordinator,
            } => {
                let c = coordinator.0 as usize;
                let outcome = if s == c || w.parts[c].up {
                    w.coord_logs[c].get(&tid).copied().into()
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
        match m.clone() {
            Msg::Prepare { tid, to, epoch } => {
                let s = to as usize;
                if w.parts[s].up {
                    let mut n = w.clone();
                    n.take_msg(m);
                    let r = n.prepare_round(s, 0, tid, epoch, seen).map(|ok| {
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
                    let r = n.prepare_round(s, 0, tid, epoch, seen).map(|ok| {
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
                    let r = n.drive(Machine::Coord(0), vote, seen).map(|_| n);
                    out.push((
                        format!(
                            "deliver vote {tid} site{from}={}",
                            if ok { "yes" } else { "no" }
                        ),
                        r,
                    ));
                }
            }
            Msg::Delegate { tid, to, forget } => {
                let d = to as usize;
                let lost = Msg::Answer {
                    tid,
                    from: to,
                    ok: None,
                };
                if w.parts[d].up {
                    let mut n = w.clone();
                    n.take_msg(m);
                    let r = n.delegate_round(d, tid, forget.clone(), seen).map(|_| n);
                    out.push((format!("deliver delegate {tid} -> site{d}"), r));
                } else {
                    let mut n = w.clone();
                    n.take_msg(m);
                    n.add_msg(lost.clone());
                    out.push((
                        format!("delegate {tid} -> site{d} fails (site down)"),
                        Ok(n),
                    ));
                }
                if w.drops_left > 0 && w.parts[d].up {
                    let mut n = w.clone();
                    n.drops_left -= 1;
                    n.take_msg(m);
                    n.add_msg(lost);
                    out.push((format!("drop delegate {tid} -> site{d}"), Ok(n)));
                }
                if w.dups_left > 0 && w.parts[d].up {
                    let mut n = w.clone();
                    n.dups_left -= 1;
                    let r = n.delegate_round(d, tid, forget, seen).map(|_| n);
                    out.push((format!("duplicate delegate {tid} -> site{d}"), r));
                }
            }
            Msg::Answer { tid, from, ok } => {
                if w.parts[0].up {
                    let mut n = w.clone();
                    n.take_msg(m);
                    let outcome = match ok {
                        Some(true) => PrepareOutcome::Committed,
                        Some(false) => PrepareOutcome::AbortedOrForgotten,
                        None => PrepareOutcome::Unreachable,
                    };
                    let answer = Input::DelegateAnswer {
                        tid,
                        site: SiteId(from),
                        outcome,
                    };
                    let r = n.drive(Machine::Coord(0), answer, seen).map(|_| n);
                    let said = match ok {
                        Some(true) => "yes",
                        Some(false) => "no",
                        None => "lost",
                    };
                    out.push((format!("deliver answer {tid} site{from}={said}"), r));
                }
                if w.drops_left > 0 && ok.is_some() {
                    let mut n = w.clone();
                    n.drops_left -= 1;
                    n.take_msg(m);
                    n.add_msg(Msg::Answer {
                        tid,
                        from,
                        ok: None,
                    });
                    out.push((format!("drop answer {tid} site{from}"), Ok(n)));
                }
            }
        }
    }

    // A site's phase-two dæmon retries a queued inquiry.
    for &(s, tid) in &w.inquiries {
        if w.parts[s as usize].up {
            let mut n = w.clone();
            n.inquiries.remove(&(s, tid));
            let retry = Input::RetryInquiry { tid };
            let r = n.drive(Machine::Coord(s as usize), retry, seen).map(|_| n);
            out.push((format!("retry inquiry {tid} at site{s}"), r));
        }
    }

    // Site 0's forgets ride a phase-two batch to a delegate.
    if w.parts[0].up {
        for (&d, tids) in &w.forgets {
            if w.parts[d as usize].up {
                let mut n = w.clone();
                n.forgets.remove(&d);
                let tids: Vec<TransId> = tids.iter().copied().collect();
                let label = format!("forget {tids:?} -> site{d}");
                let r = n.forget_at(d as usize, tids, seen).map(|_| n);
                out.push((label, r));
            }
        }
    }

    // Phase two: a coordinator's dæmon messages one pending participant.
    for (i, item) in w.queue.iter().enumerate() {
        if !w.parts[item.coord as usize].up {
            continue;
        }
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
                && !w.parts[s].prepare_log.contains_key(&tid)
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
