//! The per-site transaction manager: the kernel-backed [`Substrate`] for the
//! sans-IO protocol machines in [`crate::protocol`], and their scheduler.
//!
//! Every protocol decision — when to vote no, when the commit point is
//! reached, what phase two must do, how a journal scan resolves — is made
//! by the pure [`CoordinatorSm`] and [`ParticipantSm`]. What each [`Effect`]
//! means against the real world (journal, locks, volumes, transport, catalog
//! fences) is written once, in `KernelSubstrate::interpret`; every entry
//! point below builds one around its per-call context and hands an [`Input`]
//! to [`drive`]. The rest of this module is pure *scheduling*: what rides
//! the next message to a storage site — phase two and the forgets
//! (`TxnManager::rides`) — per-site message batching, and what a wave of
//! messages to distinct sites costs (`TxnManager::wave`), none of which
//! change what the protocol decides — only when. Nothing here starts a
//! thread: every wave runs on its caller's.
//!
//! The manager records `(input, effects)` transcripts on demand (see
//! [`TxnManager::set_transcript_recording`]); the chaos harness replays
//! them through fresh machines to prove the live run never mutated
//! protocol state outside a machine transition.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use locus_fs::Volume;
use locus_kernel::{Kernel, TxnService};
use locus_net::{Msg, TxnMsg};
use locus_sim::{Account, Event, SpanPhase, VirtSpan};
use locus_types::{
    CoordLogRecord, Error, Fid, FileListEntry, Owner, Pid, PrepareLogRecord, Result, SiteId,
    TransId, TxnStatus, VolumeId,
};

use crate::protocol::{
    drive, CoordinatorSm, Effect, Input, MachineTranscript, ParticipantSm, PrepareOutcome,
    ProtocolSm, ProtocolTranscripts, Substrate, TranscriptStep,
};
pub use crate::protocol::{group_by_site, site_epochs};

/// What an `EndTrans` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndOutcome {
    /// The nesting level dropped but is still positive: an inner
    /// `BeginTrans`/`EndTrans` pair closed (Section 2's composition case).
    Nested,
    /// The transaction reached its commit point and phase one completed; the
    /// asynchronous second phase has been queued.
    Committed(TransId),
}

/// What rides the next message this site sends one storage site: to a
/// delegation, or to the phase-two messages that go there anyway.
#[derive(Debug, Default)]
struct Riders {
    /// Delegated transactions whose outcome this site has learned: the
    /// storage site may drop their records.
    forget: Vec<TransId>,
    /// Phase two of decided transactions, in the order it was queued.
    phase_two: Vec<Rider>,
}

/// One phase-two message to a storage site ("a kernel process at the
/// coordinator site asynchronously sends transaction commit messages",
/// Section 4.2), waiting for a message to ride.
#[derive(Debug)]
struct Rider {
    tid: TransId,
    commit: bool,
    files: Vec<Fid>,
    /// It has waited through a pump turn with no message carrying it since:
    /// the next turn sends it on its own.
    due: bool,
}

/// The riders of every storage site, and how many storage sites of each
/// riding transaction have yet to ack its phase two.
#[derive(Debug, Default)]
struct Rides {
    queues: BTreeMap<SiteId, Riders>,
    /// Per riding transaction, its storage sites yet to ack: the last ack
    /// completes its phase two.
    unacked: BTreeMap<TransId, usize>,
}

/// A protocol machine plus its recorded transcript. Stepping and recording
/// happen under one lock hold, so the transcript is exactly the sequence of
/// transitions the live machine took.
struct Recorded<M: ProtocolSm> {
    sm: M,
    /// The machine as constructed, before any input: the replay seed.
    pristine: M,
    log: Vec<TranscriptStep>,
    record: bool,
}

impl<M: ProtocolSm> Recorded<M> {
    fn new(sm: M) -> Self {
        Recorded {
            pristine: sm.clone(),
            sm,
            log: Vec::new(),
            record: false,
        }
    }

    fn step(&mut self, input: Input) -> Vec<Effect> {
        let effects = self.sm.step(&input);
        if self.record {
            self.log.push(TranscriptStep {
                input,
                effects: effects.clone(),
            });
        }
        effects
    }
}

/// The transaction control plane of one site.
pub struct TxnManager {
    pub kernel: Arc<Kernel>,
    next_seq: AtomicU64,
    /// The coordinator protocol machine (plus transcript).
    coord: Mutex<Recorded<CoordinatorSm>>,
    /// The participant protocol machine (plus transcript). Owns the
    /// presumed-abort refusal set and the boot-epoch taint; both survive
    /// crashes because the manager itself does (the simulated kernel
    /// crashes underneath it).
    part: Mutex<Recorded<ParticipantSm>>,
    /// Delegated transactions whose outcome an unreachable site holds —
    /// here the requester's, or a delegate's in doubt whose peer it is: the
    /// phase-two dæmon asks again.
    inquiries: Mutex<Vec<TransId>>,
    /// Per delegate, what rides the next delegation or phase-two batch
    /// there: forgets, and the commits of transactions decided among peers.
    rides: Mutex<Rides>,
    /// Commits installed here and answered [`Error::NotLanded`]: their
    /// resend is answered from the journals. Volatile: a reboot clears it.
    landing: Mutex<BTreeSet<TransId>>,
    /// Inert: nothing reads it. It once chose between sending prepares one
    /// after another and from one scoped thread per site; there is now one
    /// schedule (see `TxnManager::wave`). The field stays only because
    /// `benchmark/src/passes.rs` — its one remaining writer — still stores to
    /// it and the PR that removed its meaning could not edit `benchmark/`;
    /// the next `benchmark` PR deletes that store and this field together.
    pub parallel_fanout: AtomicBool,
}

impl TxnManager {
    pub fn new(kernel: Arc<Kernel>) -> Self {
        let site = kernel.site;
        let epoch = kernel.boot_epoch();
        TxnManager {
            kernel,
            next_seq: AtomicU64::new(1),
            coord: Mutex::new(Recorded::new(CoordinatorSm::new(site))),
            part: Mutex::new(Recorded::new(ParticipantSm::new(site, epoch))),
            inquiries: Mutex::new(Vec::new()),
            rides: Mutex::new(Rides::default()),
            landing: Mutex::new(BTreeSet::new()),
            parallel_fanout: AtomicBool::new(false),
        }
    }

    fn site(&self) -> SiteId {
        self.kernel.site
    }

    // ----- Transcripts (conformance checking) --------------------------------

    /// Enables or disables `(input, effects)` transcript recording on both
    /// machines. Off by default: transcripts grow with the workload and
    /// only the conformance oracle reads them.
    pub fn set_transcript_recording(&self, on: bool) {
        self.coord.lock().record = on;
        self.part.lock().record = on;
    }

    /// Snapshots both machines' transcripts for replay.
    pub fn transcripts(&self) -> ProtocolTranscripts {
        let coord = self.coord.lock();
        let part = self.part.lock();
        ProtocolTranscripts {
            coordinator: MachineTranscript {
                initial: coord.pristine.clone(),
                steps: coord.log.clone(),
            },
            participant: MachineTranscript {
                initial: part.pristine.clone(),
                steps: part.log.clone(),
            },
        }
    }

    // ----- BeginTrans / EndTrans / AbortTrans -------------------------------

    /// `BeginTrans` (Section 2): entering a transaction, or deepening the
    /// nesting level when already inside one.
    pub fn begin_trans(&self, pid: Pid, acct: &mut Account) -> Result<TransId> {
        let span = VirtSpan::begin(SpanPhase::Begin, acct);
        let res = self.begin_trans_inner(pid, acct);
        if res.is_ok() {
            span.finish(&self.kernel.counters.spans, &self.kernel.model, acct);
        }
        res
    }

    fn begin_trans_inner(&self, pid: Pid, acct: &mut Account) -> Result<TransId> {
        acct.cpu_instrs(&self.kernel.model, self.kernel.model.syscall_instrs);
        let site = self.site();
        let existing = self.kernel.procs.with_mut(pid, |rec| {
            if let Some(tid) = rec.tid {
                rec.nest += 1;
                Some(tid)
            } else {
                None
            }
        })?;
        if let Some(tid) = existing {
            return Ok(tid);
        }
        // A temporally unique identifier names the new transaction
        // (Section 4.1).
        let tid = TransId::new(site, self.next_seq.fetch_add(1, Ordering::Relaxed));
        self.kernel.procs.with_mut(pid, |rec| {
            rec.tid = Some(tid);
            rec.top = Some(pid);
            rec.nest = 1;
            rec.members.clear();
        })?;
        self.kernel.counters.txns_started();
        Ok(tid)
    }

    /// `EndTrans` (Sections 2 and 4.2). On the top-level process, the final
    /// `EndTrans` waits for all member processes to complete
    /// ([`Error::ChildrenActive`] tells the caller to retry after a wakeup)
    /// and then drives two-phase commit.
    pub fn end_trans(&self, pid: Pid, acct: &mut Account) -> Result<EndOutcome> {
        acct.cpu_instrs(&self.kernel.model, self.kernel.model.syscall_instrs);
        let (tid, nest, top, members) = self
            .kernel
            .procs
            .with_mut(pid, |r| (r.tid, r.nest, r.top, r.members.len()))?;
        let tid = tid.ok_or(Error::NotInTransaction)?;
        if nest > 1 || top != Some(pid) {
            // Inner pair, or a member process closing its own bracket: the
            // enclosing transaction continues.
            self.kernel.procs.with_mut(pid, |r| {
                r.nest = r.nest.saturating_sub(1);
            })?;
            return Ok(EndOutcome::Nested);
        }
        if members > 0 {
            return Err(Error::ChildrenActive { remaining: members });
        }
        // Nesting returned to zero at the top level: commit.
        self.kernel.procs.with_mut(pid, |r| r.nest = 0)?;
        // The commit span covers the whole two-phase-commit drive: prepare
        // fan-out, the group-commit flush, and the commit record. Recorded
        // for aborts too — a failed commit's latency is still commit-path
        // latency.
        let span = VirtSpan::begin(SpanPhase::Commit, acct);
        let res = self.commit_transaction(tid, pid, acct);
        span.finish(&self.kernel.counters.spans, &self.kernel.model, acct);
        match res {
            Ok(()) => Ok(EndOutcome::Committed(tid)),
            Err(e) => Err(e),
        }
    }

    /// `AbortTrans`: undoes the whole transaction (Section 4.3). May be
    /// issued by any member process.
    pub fn abort_trans(&self, pid: Pid, acct: &mut Account) -> Result<()> {
        acct.cpu_instrs(&self.kernel.model, self.kernel.model.syscall_instrs);
        let rec = self
            .kernel
            .procs
            .get(pid)
            .ok_or(Error::NoSuchProcess(pid))?;
        let tid = rec.tid.ok_or(Error::NotInTransaction)?;
        let top = rec.top.unwrap_or(pid);
        // Abort is initiated "by sending an abort message to the site at
        // which the top-level process of the transaction resides".
        let top_site = self
            .kernel
            .registry
            .lookup(top)
            .ok_or(Error::NoSuchProcess(top))?;
        self.kernel
            .events
            .push(Event::AbortSent { tid, to: top_site });
        let abort = TxnMsg::AbortProc { tid, pid: top };
        self.kernel.rpc(top_site, Msg::Txn(abort), acct)?;
        self.kernel.counters.txns_aborted();
        self.kernel.events.push(Event::Aborted { tid });
        Ok(())
    }

    // ----- Two-phase commit (Section 4.2) ------------------------------------

    /// Drives the coordinator machine from `CommitRequested` to a decision.
    fn commit_transaction(&self, tid: TransId, top: Pid, acct: &mut Account) -> Result<()> {
        let files: Vec<FileListEntry> = self
            .kernel
            .procs
            .with_mut(top, |r| r.file_list.iter().copied().collect())?;
        let mut sub = self.substrate(Machine::Coordinator, acct);
        sub.top = Some(top);
        sub.drive(Input::commit_requested(tid, files));
        sub.result
    }

    /// Clears the (now completed) transaction's process state: the process
    /// continues as a non-transaction process.
    fn finish_process_state(&self, tid: TransId, top: Pid) {
        let _ = self.kernel.procs.with_mut(top, |rec| rec.leave(tid));
        self.kernel.drop_owner_caches(Owner::Trans(tid));
    }

    /// Number of transactions whose phase two or inquiry is still queued,
    /// plus the kernel's releases waiting for a message to carry them.
    pub fn pending_async(&self) -> usize {
        self.inquiries.lock().len()
            + self.rides.lock().unacked.len()
            + self.kernel.releases_pending()
    }

    /// Asks `site` what became of `tid`: the answer to a recovered prepare,
    /// to a delegation whose answer was lost, or to a delegate in doubt
    /// asking its peer.
    fn inquire(&self, tid: TransId, site: SiteId, acct: &mut Account) -> Result<PrepareOutcome> {
        let inquiry = TxnMsg::StatusInquiry { tid };
        match self.kernel.rpc(site, Msg::Txn(inquiry), acct)? {
            Msg::Txn(TxnMsg::StatusAnswer { status }) => Ok(status.into()),
            other => Err(Error::ProtocolViolation(format!(
                "status inquiry answered with {other:?}"
            ))),
        }
    }

    /// Runs the asynchronous phase-two dæmon once. Phase two rides the next
    /// message to each storage site (`TxnManager::rides`): a site's peers
    /// know the outcome already, and the site learns it from them whenever
    /// a request there needs its locks ([`TxnService::wanted`]). A site's
    /// queue goes on its own only once a message in it has waited through
    /// one run with no message carrying it since; the sites whose queues go
    /// are one wave. The kernel's queued lock releases are pumped by the
    /// same rule first ([`Kernel::pump_releases`]). Returns how many items
    /// moved on: inquiries answered, transactions whose phase two
    /// completed, riders and releases that began their waiting turn (the
    /// next run sends them), and releases that arrived.
    ///
    /// Nothing here forces the journal: the purges are lazy truncations
    /// that ride the next flush of their journal. A crash before then
    /// resurfaces the records and recovery redoes an already idempotent
    /// phase two — once, because `Site::reboot_and_recover` ends with a
    /// force.
    pub fn run_async_work(&self, acct: &mut Account) -> usize {
        let resolved = self.kernel.pump_releases(acct) + self.retry_inquiries(acct);
        let (mut riding, waiting) = self.pump_riders();
        if riding.is_empty() {
            return resolved + waiting;
        }
        let span = VirtSpan::begin(SpanPhase::PhaseTwo, acct);
        let sites: Vec<SiteId> = riding.keys().copied().collect();
        let mut completed = 0;
        // The sites' messages are one wave: each site installs while the
        // others do. One network message per site; a lost one
        // acknowledges none.
        self.wave(acct, sites, |site, branch| {
            let riders = riding.remove(&site).unwrap_or_default();
            completed += self.ride(site, riders, Vec::new(), branch).1;
        });
        span.finish(&self.kernel.counters.spans, &self.kernel.model, acct);
        resolved + completed + waiting
    }

    /// One pump turn over the riders: every site's whose phase two has
    /// waited a turn, by site; every other phase-two message begins its
    /// waiting turn, and how many did is returned.
    fn pump_riders(&self) -> (BTreeMap<SiteId, Riders>, usize) {
        let mut rides = self.rides.lock();
        let mut out = BTreeMap::new();
        let mut began = 0;
        rides.queues.retain(|site, riders| {
            if riders.phase_two.iter().any(|r| r.due) {
                out.insert(*site, std::mem::take(riders));
                return false;
            }
            for r in riders.phase_two.iter_mut().filter(|r| !r.due) {
                r.due = true;
                began += 1;
            }
            true
        });
        (out, began)
    }

    /// Sends `msgs` to `site` as one network message with `riders` ahead
    /// of them, settles the riders by their answers and returns the answers
    /// to `msgs`, in order, with how many transactions the riders completed.
    /// A lost message answers each member with its error.
    fn ride(
        &self,
        site: SiteId,
        mut riders: Riders,
        msgs: Vec<TxnMsg>,
        acct: &mut Account,
    ) -> (Vec<Result<Msg>>, usize) {
        // A forget leaves only once this site's own frames of the
        // transaction have landed, on journals still taking frames: where it
        // voted too, its note of the commit is what its recovery reads
        // instead of asking the peers the forget releases, and a note a
        // dead disk refused never lands.
        let may_forget = |tid: &TransId| {
            let vols = self.kernel.mounted_volumes();
            vols.iter().all(|v| v.landed(*tid) && !v.disk().tripped())
        };
        let (landed, held): (Vec<TransId>, Vec<TransId>) = std::mem::take(&mut riders.forget)
            .into_iter()
            .partition(may_forget);
        riders.forget = landed;
        if !held.is_empty() {
            let mut rides = self.rides.lock();
            rides.queues.entry(site).or_default().forget.extend(held);
        }
        let mut batch: Vec<Msg> = Vec::new();
        for r in &riders.phase_two {
            let (tid, files) = (r.tid, r.files.clone());
            batch.push(Msg::Txn(if r.commit {
                self.kernel.events.push(Event::CommitSent { tid, to: site });
                TxnMsg::Commit { tid, files }
            } else {
                self.kernel.events.push(Event::AbortSent { tid, to: site });
                TxnMsg::AbortFiles { tid, files }
            }));
        }
        if !riders.forget.is_empty() {
            let tids = riders.forget.clone();
            batch.push(Msg::Txn(TxnMsg::Forget { tids }));
        }
        let rode = batch.len();
        batch.extend(msgs.into_iter().map(Msg::Txn));
        let n = batch.len();
        let mut answers = self
            .kernel
            .rpc_batch(site, batch, acct)
            .unwrap_or_else(|e| vec![Err(e); n]);
        let acks = answers.split_off(rode);
        let completed = self.settle_riders(site, riders, &answers, acct);
        (acks, completed)
    }

    /// What the answers `rode` to the riders sent to `site` settle. An
    /// acked phase two is done there, and a transaction every storage site
    /// has acked completes; a commit answered [`Error::NotLanded`] was
    /// carried and waits for the next message again; a lost one stays as
    /// it was, and so do forgets that did not arrive. Returns how many
    /// transactions completed.
    fn settle_riders(
        &self,
        site: SiteId,
        riders: Riders,
        rode: &[Result<Msg>],
        acct: &mut Account,
    ) -> usize {
        let (phase_two, forget) = rode.split_at(riders.phase_two.len());
        let forgot = matches!(forget, [] | [Ok(_)]);
        if phase_two.is_empty() && forgot {
            return 0;
        }
        let mut done = Vec::new();
        {
            let mut rides = self.rides.lock();
            let mut left = Vec::new();
            for (mut rider, answer) in riders.phase_two.into_iter().zip(phase_two) {
                match answer {
                    Ok(_) => {
                        let unacked = rides.unacked.entry(rider.tid).or_insert(1);
                        *unacked -= 1;
                        if *unacked == 0 {
                            rides.unacked.remove(&rider.tid);
                            done.push((rider.tid, rider.commit));
                        }
                    }
                    Err(Error::NotLanded(_)) => {
                        rider.due = false;
                        left.push(rider);
                    }
                    Err(_) => left.push(rider),
                }
            }
            if !left.is_empty() || !forgot {
                let queue = rides.queues.entry(site).or_default();
                queue.phase_two.splice(0..0, left);
                if !forgot {
                    queue.forget.extend(riders.forget);
                }
            }
        }
        let mut sub = self.substrate(Machine::Coordinator, acct);
        for &(tid, commit) in &done {
            sub.drive(Input::Phase2Done { tid, commit });
        }
        done.len()
    }

    /// Retries each queued inquiry through the coordinator machine, which
    /// asks the delegate only if the answer is still awaited; one still
    /// unanswered queues itself anew. Returns how many outcomes were learned.
    fn retry_inquiries(&self, acct: &mut Account) -> usize {
        let inquiries = std::mem::take(&mut *self.inquiries.lock());
        let before = inquiries.len();
        for tid in inquiries {
            self.substrate(Machine::Coordinator, acct)
                .drive(Input::RetryInquiry { tid });
        }
        before.saturating_sub(self.inquiries.lock().len())
    }

    /// One wave of work bound for distinct sites, on the caller's thread.
    ///
    /// The paper's coordinator sends to every site and then waits, so the
    /// sites work at the same time and the caller waits for the slowest. A
    /// message's real delay here is zero — a second thread has nothing to
    /// overlap — so the branches run one after another, in `items` order,
    /// each on a fresh account, and the overlap is stated on the model clock
    /// alone: [`Account::absorb_parallel`] charges `acct` the slowest
    /// branch's latency and every branch's counts. The fold also overlaps
    /// the coordinator's own handling of each branch's message, which one
    /// processor would serialise: 0.5 model ms too little per branch after
    /// the first (DESIGN.md §3).
    fn wave<T>(
        &self,
        acct: &mut Account,
        items: impl IntoIterator<Item = T>,
        mut branch: impl FnMut(T, &mut Account),
    ) {
        let branches: Vec<Account> = items
            .into_iter()
            .map(|item| {
                let mut b = Account::new(self.site());
                branch(item, &mut b);
                b
            })
            .collect();
        acct.absorb_parallel(&branches);
    }

    // ----- Participant-side message handling ---------------------------------

    /// Handles one transaction control-plane request addressed to this site
    /// (the kernel's `Msg::Txn` dispatch target, via [`TxnService`]).
    pub fn handle_txn(&self, req: TxnMsg, acct: &mut Account) -> Msg {
        match self.dispatch(req, acct) {
            Ok(m) => m,
            Err(e) => Msg::Err(e),
        }
    }

    fn dispatch(&self, req: TxnMsg, acct: &mut Account) -> Result<Msg> {
        match req {
            TxnMsg::Commit { tid, files } => {
                self.phase_two(tid, Input::CommitReq { tid, files }, acct)
            }
            TxnMsg::AbortFiles { tid, files } => {
                self.phase_two(tid, Input::AbortReq { tid, files }, acct)
            }
            TxnMsg::AbortProc { tid, pid } => {
                self.abort_cascade(tid, pid, acct)?;
                Ok(Msg::Ok)
            }
            TxnMsg::StatusInquiry { tid } => {
                let home = self.kernel.home()?;
                let status = home.coord_log_get(tid, acct).map(|r| r.status);
                if home.disk().tripped() {
                    // The log cannot be read, so "no record" would be a guess.
                    return Err(Error::DiskOffline);
                }
                if status.is_none() {
                    // No decision here, so none will ever be: abort what
                    // this site holds of the transaction before saying so,
                    // and a delegation that arrives late meets the refusal.
                    self.abort_here(tid, acct);
                }
                Ok(Msg::Txn(TxnMsg::StatusAnswer { status }))
            }
            TxnMsg::Delegate { tid, files } => {
                let mut sub = self.substrate(Machine::Coordinator, acct);
                sub.drive(Input::DelegateReq { tid, files });
                match sub.answer {
                    Some(ok) => Ok(Msg::Txn(TxnMsg::PrepareDone { tid, ok })),
                    None => sub.result.and(Err(Error::ProtocolViolation(
                        "delegation ended undecided".into(),
                    ))),
                }
            }
            TxnMsg::Forget { tids } => {
                self.substrate(Machine::Coordinator, acct)
                    .drive(Input::Forget { tids });
                Ok(Msg::Ok)
            }
            // A site prepares only itself: no prepare travels.
            other @ (TxnMsg::Prepare { .. }
            | TxnMsg::PrepareDone { .. }
            | TxnMsg::StatusAnswer { .. }) => Err(Error::ProtocolViolation(format!(
                "transaction manager cannot handle {other:?}"
            ))),
        }
    }

    /// One phase-two message: to the participant machine, unless this site
    /// is a delegate of the transaction among peers, whose coordinator
    /// machine notes the outcome in its record and then hands it on.
    ///
    /// A commit is acked only once every frame it appended here has landed
    /// — the installs, the prepare truncations they settle, a delegate's
    /// note — because the sender may forget the transaction on that ack.
    /// Until then the answer is [`Error::NotLanded`], and the sender's
    /// phase-two queue sends the commit again. The resend is answered from
    /// the journals: the frames usually rode this site's next force, a
    /// later transaction's vote, and the ack costs nothing; frames still
    /// volatile are forced then. (What counts as landed: [`Volume::landed`].)
    fn phase_two(&self, tid: TransId, input: Input, acct: &mut Account) -> Result<Msg> {
        let commit = matches!(input, Input::CommitReq { .. });
        if commit && self.landing.lock().contains(&tid) {
            self.land(tid, acct)?;
            self.landing.lock().remove(&tid);
            return Ok(Msg::Ok);
        }
        let machine = if self.coord.lock().sm.holds_vote(tid) {
            Machine::Coordinator
        } else {
            Machine::Participant
        };
        let mut sub = self.substrate(machine, acct);
        sub.drive(input);
        let ack = sub.ack()?;
        if commit && !self.landed(tid) {
            self.landing.lock().insert(tid);
            return Err(Error::NotLanded(tid));
        }
        Ok(ack)
    }

    /// Whether every frame this site's journals took for `tid` has landed.
    fn landed(&self, tid: TransId) -> bool {
        self.kernel.mounted_volumes().iter().all(|v| v.landed(tid))
    }

    /// Forces every journal of this site that holds a frame of `tid` not
    /// yet landed.
    fn land(&self, tid: TransId, acct: &mut Account) -> Result<()> {
        for vol in self.kernel.mounted_volumes() {
            if !vol.landed(tid) {
                vol.log_barrier(acct)?;
            }
        }
        Ok(())
    }

    /// Flushes modified records and writes the prepare logs for one prepare
    /// round: intentions list + lock list per file, then one group-commit
    /// flush per touched volume (N files, one barrier — a yes vote must be
    /// durable before it is cast, but nothing forces a barrier per file).
    ///
    /// The home volume is exempt: its journal carries this site's record of
    /// the transaction, the yes itself, forced before the vote leaves this
    /// site, and nothing irrevocable happens on the vote's strength before
    /// that. The record's own flush then makes the prepare record durable
    /// (it sits ahead of the record in the same log, and a flush lands a
    /// whole-frame prefix) and, being a write barrier, the shadow blocks
    /// the record names. Any other volume mounted here keeps its force: the
    /// record is in another log.
    fn stage_prepare(
        &self,
        tid: TransId,
        coordinator: SiteId,
        files: &[Fid],
        acct: &mut Account,
    ) -> bool {
        let owner = Owner::Trans(tid);
        for fid in files {
            let Ok(vol) = self.kernel.volume(fid.volume) else {
                return false;
            };
            let il = match vol.prepare(*fid, owner, acct) {
                Ok(il) => il,
                Err(_) => return false,
            };
            for ent in &il.entries {
                self.kernel.events.push(Event::DataFlush {
                    tid,
                    fid: *fid,
                    page: ent.page,
                });
            }
            let locks = self.kernel.locks.descriptors(*fid);
            let logged = vol.prepare_log_put(
                &PrepareLogRecord {
                    tid,
                    coordinator,
                    intentions: il,
                    locks,
                },
                acct,
            );
            if logged.is_err() {
                // The prepare record never reached stable storage (the disk
                // died mid-write): this site cannot promise to commit.
                return false;
            }
        }
        let forced: BTreeSet<VolumeId> = files
            .iter()
            .map(|fid| fid.volume)
            .filter(|v| *v != self.kernel.home_volume)
            .collect();
        forced.into_iter().all(|v| {
            self.kernel
                .volume(v)
                .is_ok_and(|vol| vol.log_barrier(acct).is_ok())
        })
    }

    /// Installs the prepared intentions for every file of one phase-two
    /// commit, staging replica pushes and flushing them as one batched round
    /// trip per replica site. Each install settles its file's prepare record
    /// in the same journal append and rides that journal's next force
    /// ([`Volume::install_intentions`]). Where this site's home journal holds
    /// the durable commit — a site deciding alone — no message will ask for
    /// these installs again, so a journal that does not hold it is forced
    /// here.
    fn install_files(&self, tid: TransId, files: &[Fid], acct: &mut Account) -> Result<()> {
        let owner = Owner::Trans(tid);
        let mut staged: BTreeMap<SiteId, Vec<(Fid, Msg)>> = BTreeMap::new();
        for fid in files {
            let vol = self.kernel.volume(fid.volume)?;
            let il = match vol.commit_prepared(*fid, owner, acct) {
                Ok(il) if !il.is_empty() => il,
                // The disk died mid-install. The commit did NOT complete
                // here, and the (currently unreadable) prepare log must
                // survive for recovery — acking now would let the
                // coordinator purge its log, and a later status inquiry
                // would presume abort, rolling back acknowledged writes.
                Err(Error::DiskOffline) => return Err(Error::DiskOffline),
                // After a crash the in-memory prepared list is gone, or the
                // volume survived and only its volatile copy did not: the
                // prepare log carries the intentions (Section 4.4) — which
                // are also what the replicas must receive (pushing the
                // empty list would silently skip them).
                _ => match vol.prepare_log_get(tid, *fid, acct) {
                    Some(rec) => {
                        vol.install_intentions(tid, &rec.intentions, acct)?;
                        rec.intentions
                    }
                    None => continue,
                },
            };
            let _ = self.kernel.stage_replica_sync(*fid, &il, &mut staged, acct);
        }
        self.kernel.flush_replica_sync(staged, acct);
        let home = self.kernel.home();
        if home.is_ok_and(|home| home.journal().holds_durable_commit(tid)) {
            self.land(tid, acct)?;
        }
        Ok(())
    }

    /// Whether a prepare record of `tid` on one of this site's own files
    /// names intentions its inode already maps: the install that only a
    /// commit makes.
    fn installed_here(&self, tid: TransId, files: &[FileListEntry], acct: &mut Account) -> bool {
        files
            .iter()
            .filter(|f| f.storage_site == self.site())
            .any(|f| {
                self.kernel.volume(f.fid.volume).is_ok_and(|vol| {
                    vol.prepare_log_get(tid, f.fid, acct)
                        .is_some_and(|rec| vol.intentions_installed(&rec.intentions, acct))
                })
            })
    }

    /// Rolls one abort's files back: free shadow blocks named by logged
    /// prepare records, truncate the records, abort uncommitted in-memory
    /// modifications. Duplicate aborts are harmless (temporally unique ids),
    /// and the machine put `tid` in its permanent refusal set before asking
    /// for this, so an interrupted rollback still refuses a later prepare.
    fn rollback_files(&self, tid: TransId, files: &[Fid], acct: &mut Account) -> Result<()> {
        let owner = Owner::Trans(tid);
        for fid in files {
            if let Ok(vol) = self.kernel.volume(fid.volume) {
                // Free shadow blocks named by a logged prepare record first
                // — unless they are live, as a defence: a prepare record
                // whose truncation died with the journal's volatile tail
                // outlives its install.
                if let Some(rec) = vol.prepare_log_get(tid, *fid, acct) {
                    if !vol.intentions_installed(&rec.intentions, acct) {
                        for p in rec.intentions.new_pages() {
                            vol.disk().free(p);
                        }
                    }
                    let _ = vol.prepare_log_delete(tid, *fid, acct);
                }
                vol.abort_owner(*fid, owner, acct)?;
            }
        }
        Ok(())
    }

    /// Aborts `tid` at this site as a coordinator's `AbortFiles` would —
    /// refused first, then rolled back and released — over the files it
    /// holds locks on here (every write takes one).
    fn abort_here(&self, tid: TransId, acct: &mut Account) {
        let mut files: Vec<Fid> = self
            .kernel
            .held_locks()
            .into_iter()
            .filter(|(_, lock)| lock.owner() == Owner::Trans(tid))
            .map(|(fid, _)| fid)
            .collect();
        // The locks come in fid order, several to a file.
        files.dedup();
        self.participate(Input::AbortReq { tid, files }, acct);
    }

    /// Cascading abort down the process tree (Section 4.3): roll back this
    /// process's files, then signal each child, which repeats the procedure.
    fn abort_cascade(&self, tid: TransId, pid: Pid, acct: &mut Account) -> Result<()> {
        let Some(rec) = self.kernel.procs.get(pid) else {
            return Ok(()); // Already gone (duplicate abort).
        };
        if rec.tid != Some(tid) {
            return Ok(());
        }
        let is_top = rec.top == Some(pid);
        // Roll back files this process used, at their storage sites.
        let by_site = group_by_site(&rec.file_list.iter().copied().collect::<Vec<_>>());
        for (site, fids) in by_site {
            self.kernel.events.push(Event::AbortSent { tid, to: site });
            let abort = TxnMsg::AbortFiles { tid, files: fids };
            let _ = self.kernel.rpc(site, Msg::Txn(abort), acct);
        }
        // Signal the children, cascading down the tree.
        for child in rec.children.iter() {
            if let Some(csite) = self.kernel.registry.lookup(*child) {
                let abort = TxnMsg::AbortProc { tid, pid: *child };
                let _ = self.kernel.rpc(csite, Msg::Txn(abort), acct);
            }
        }
        if is_top {
            // The top-level process survives the abort and continues as a
            // non-transaction process.
            let _ = self.kernel.procs.with_mut(pid, |r| r.leave(tid));
            self.kernel.wake(pid);
        } else {
            // Member processes are terminated by the abort, as an exit
            // would end them.
            self.kernel.terminate(&rec, acct);
        }
        self.kernel.drop_owner_caches(Owner::Trans(tid));
        Ok(())
    }

    // ----- Topology changes (Section 4.3) -------------------------------------

    /// Called when the network topology changes: aborts every ongoing
    /// transaction that involves sites outside this site's current
    /// partition. The machines decide which; a participant that voted yes
    /// stays in doubt.
    pub fn on_topology_change(&self, acct: &mut Account) {
        let reachable = self.kernel.partition_view();
        if self.kernel.is_crashed() || reachable.is_empty() {
            return; // We are the crashed site.
        }
        self.kernel.forget_unreachable(&reachable);
        // Coordinator side: the machine aborts every still-undecided
        // transaction with a lost participant (in tid order — the event
        // trace must be byte-identical across runs of the same seed).
        self.substrate(Machine::Coordinator, acct)
            .drive(Input::TopologyChanged {
                reachable: reachable.clone(),
            });
        // Member side: local processes whose transaction top-level process
        // is no longer reachable are aborted.
        for pid in self.kernel.procs.all_pids() {
            let Some(rec) = self.kernel.procs.get(pid) else {
                continue;
            };
            let (Some(tid), Some(top)) = (rec.tid, rec.top) else {
                continue;
            };
            let top_site = self.kernel.registry.lookup(top);
            let lost = match top_site {
                Some(s) => !reachable.contains(&s),
                None => top != pid,
            };
            if lost {
                let _ = self.abort_cascade(tid, pid, acct);
                self.kernel.counters.txns_aborted();
            }
        }
        // Participant side: each transaction holding locks here whose home
        // site is lost is stranded, and the machine decides whether that
        // rolls it back. In tid order, BTreeMap not HashMap: the rollbacks
        // emit events and must be identical across runs of the same seed.
        let mut stranded: BTreeMap<TransId, Vec<Fid>> = BTreeMap::new();
        for (fid, lock) in self.kernel.held_locks() {
            if let Owner::Trans(tid) = lock.owner() {
                if !reachable.contains(&tid.site) {
                    stranded.entry(tid).or_default().push(fid);
                }
            }
        }
        for (tid, mut files) in stranded {
            // The locks come in fid order, several to a file.
            files.dedup();
            self.participate(Input::Stranded { tid, files }, acct);
        }
    }

    // ----- Recovery (Section 4.4) ---------------------------------------------

    /// Reboot-time transaction recovery: "before transactions are permitted
    /// to run, the transaction recovery mechanism is started."
    pub fn recover(&self, acct: &mut Account) -> RecoveryReport {
        // The reboot observation first: the participant machine's volatile
        // prepare rounds died with the old incarnation and its boot epoch
        // must match the kernel's before any post-reboot prepare arrives.
        // (The refusal set survives — the manager outlives the crash.)
        let epoch = self.kernel.boot_epoch();
        self.participate(Input::Rebooted { epoch }, acct);
        // What an install answered "not yet landed" appended died with the
        // journals' tails, or this pass redoes it.
        self.landing.lock().clear();
        self.kernel
            .events
            .push(Event::RecoveryStart { site: self.site() });
        let mut report = RecoveryReport::default();
        for vol in self.kernel.mounted_volumes() {
            self.recover_volume(&vol, acct, &mut report);
        }
        report
    }

    /// Recovers one volume's logs by replaying the journal scan into the
    /// protocol machines. Public so that a volume carried from a dead site
    /// (removable media, Section 4.4) can be mounted elsewhere and recovered
    /// there: "it is important to assure that logs are stored on the same
    /// medium as the files to which they refer".
    pub fn recover_volume(
        &self,
        vol: &Arc<Volume>,
        acct: &mut Account,
        report: &mut RecoveryReport,
    ) {
        let mut sub = self.substrate(Machine::Coordinator, acct);
        sub.scanned = Some(vol);
        sub.report = *report;
        // Coordinator logs: committed → redo phase two; otherwise → abort.
        for rec in vol.coord_log_scan(sub.acct) {
            let installed = rec.status == TxnStatus::Voted
                && vol.site() == self.site()
                && self.installed_here(rec.tid, &rec.files, sub.acct);
            sub.drive(Input::CoordScan {
                tid: rec.tid,
                files: rec.files,
                status: rec.status,
                site: vol.site(),
                installed,
            });
        }
        // Participant prepare logs: ask each coordinator for the outcome.
        sub.machine = Machine::Participant;
        for rec in vol.prepare_log_scan(sub.acct) {
            let input = Input::RecoveredPrepare {
                tid: rec.tid,
                fid: rec.intentions.fid,
                coordinator: rec.coordinator,
            };
            sub.recovered = Some(rec);
            sub.drive(input);
        }
        *report = sub.report;

        // Orphaned shadow pages from crashes between allocation and logging.
        // The scavenge's own flush persists the replayed installs,
        // truncations and status rewrites in one transfer, so a second crash
        // does not redo the whole pass.
        report.scavenged += vol.scavenge(acct);
    }
}

// ----- The effect interpreter ----------------------------------------------

/// Which of the site's two machines a substrate steps.
#[derive(Clone, Copy)]
enum Machine {
    Coordinator,
    Participant,
}

/// The kernel-backed [`Substrate`]: one of this site's protocol machines,
/// the real world its effects act on, and the context of the call being
/// served. Built per entry point, driven, then read for what came of it.
struct KernelSubstrate<'a> {
    mgr: &'a TxnManager,
    /// Who pays for the work.
    acct: &'a mut Account,
    machine: Machine,
    /// `EndTrans`: the top-level process whose transaction state
    /// `FinishLocal` clears.
    top: Option<Pid>,
    /// Recovery: the volume whose logs are being replayed. Its records are
    /// rewritten, installed and purged where they were found — on removable
    /// media that is not this site's home volume.
    scanned: Option<&'a Arc<Volume>>,
    /// Recovery: the prepare record being resolved.
    recovered: Option<PrepareLogRecord>,
    report: RecoveryReport,
    /// The last substrate failure: the journal error behind a failed
    /// `EndTrans`, the disk error behind a phase-two nack.
    result: Result<()>,
    /// What the machine told the remote caller — its vote, or its phase-two
    /// ack. No until it says yes.
    reply: bool,
    /// A delegate's answer to the requester, once it has one.
    answer: Option<bool>,
}

impl TxnManager {
    /// A fresh substrate around `machine` with no per-call context.
    fn substrate<'a>(&'a self, machine: Machine, acct: &'a mut Account) -> KernelSubstrate<'a> {
        KernelSubstrate {
            mgr: self,
            acct,
            machine,
            top: None,
            scanned: None,
            recovered: None,
            report: RecoveryReport::default(),
            result: Ok(()),
            reply: false,
            answer: None,
        }
    }

    /// Drives the participant machine through one input and returns the
    /// substrate for what it said and what failed.
    fn participate<'a>(&'a self, input: Input, acct: &'a mut Account) -> KernelSubstrate<'a> {
        let mut sub = self.substrate(Machine::Participant, acct);
        sub.drive(input);
        sub
    }
}

impl KernelSubstrate<'_> {
    fn drive(&mut self, input: Input) {
        let Ok(()) = drive(self, input);
    }

    /// Records a substrate failure and reports whether there was none.
    fn succeeded(&mut self, res: Result<()>) -> bool {
        let ok = res.is_ok();
        if let Err(e) = res {
            self.result = Err(e);
        }
        ok
    }

    /// The phase-two reply: `Ok` exactly when the machine acked, otherwise
    /// the failure that made it nack.
    fn ack(self) -> Result<Msg> {
        if self.reply {
            return Ok(Msg::Ok);
        }
        self.result.and(Err(Error::ProtocolViolation(
            "phase two ended without an ack".into(),
        )))
    }
}

impl Substrate for KernelSubstrate<'_> {
    type Error = Infallible;

    fn step(&mut self, input: Input) -> Vec<Effect> {
        match self.machine {
            Machine::Coordinator => self.mgr.coord.lock().step(input),
            Machine::Participant => self.mgr.part.lock().step(input),
        }
    }

    // No catch-all arm over `Effect`: a new effect kind must not compile
    // until this substrate says what it means.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn interpret(&mut self, effect: Effect) -> std::result::Result<Option<Input>, Infallible> {
        let mgr = self.mgr;
        let kernel = &mgr.kernel;
        let acct = &mut *self.acct;
        Ok(match effect {
            Effect::SendPrepare {
                tid,
                site,
                files,
                epoch,
            } => {
                // Steps 2–3: this site's prepare and its vote, a step of its
                // own participant machine. `epoch` is the earliest boot
                // epoch the transaction observed here; the participant
                // refuses if the site has rebooted since (its volatile
                // buffers, possibly holding acked writes of this
                // transaction, were lost).
                let span = VirtSpan::begin(SpanPhase::Prepare, acct);
                kernel.events.push(Event::PrepareSent { tid, to: site });
                let prepare = Input::PrepareReq {
                    tid,
                    coordinator: site,
                    files,
                    epoch,
                };
                let ok = mgr.participate(prepare, acct).reply;
                kernel.events.push(Event::PrepareAck {
                    tid,
                    from: site,
                    ok,
                });
                span.finish(&kernel.counters.spans, &kernel.model, acct);
                Some(Input::Vote { tid, site, ok })
            }
            Effect::RaiseFences { tid, files } => {
                // Raise the commit fence on every replicated file before
                // the mark: between the commit mark and the end of phase
                // two the new bytes exist only in prepare logs at the
                // primaries, so a failover in that window would promote
                // a replica past an acked commit (no-op for single-copy
                // files).
                for fid in files {
                    kernel.catalog.fence_add(fid, tid);
                }
                None
            }
            Effect::LogStatus { tid, status } => {
                // The record lives on the home volume; one recovery scanned
                // off another volume is rewritten there. A lazy note, best
                // effort.
                let vol = self.scanned.cloned().map_or_else(|| kernel.home(), Ok);
                let _ = vol.and_then(|vol| vol.coord_log_note_status(tid, status, acct));
                None
            }
            Effect::QueuePhase2 {
                tid,
                commit,
                participants,
            } => {
                // Step 5 (Figure 5's deferred fifth write): phase two rides
                // the next message to each storage site.
                let mut rides = mgr.rides.lock();
                rides.unacked.insert(tid, participants.len());
                for (site, files) in participants {
                    let rider = Rider {
                        tid,
                        commit,
                        files,
                        due: false,
                    };
                    rides.queues.entry(site).or_default().phase_two.push(rider);
                }
                None
            }
            Effect::FinishLocal { tid, commit } => {
                if let Some(top) = self.top {
                    mgr.finish_process_state(tid, top);
                }
                if commit {
                    // The caller hears the decision: an install here that
                    // stalled is retried, and fails no `EndTrans`.
                    self.result = Ok(());
                    kernel.counters.txns_committed();
                } else {
                    kernel.counters.txns_aborted();
                    kernel.events.push(Event::Aborted { tid });
                    self.result = Err(Error::TxnAborted(tid));
                }
                None
            }
            Effect::NoteAborted { tid } => {
                kernel.counters.txns_aborted();
                kernel.events.push(Event::Aborted { tid });
                None
            }
            Effect::PurgeCoordLog { tid } => {
                // The record may be purged (Section 4.4: logs are retained
                // until processing completes).
                if let Ok(home) = kernel.home() {
                    home.coord_log_delete(tid, acct);
                }
                None
            }
            Effect::DropFence { tid } => {
                // Phase two has installed (and pushed) everywhere — the
                // commit no longer pins the primaries, so failover may
                // proceed. Harmless for aborts (never fenced).
                kernel.catalog.fence_remove(tid);
                None
            }
            Effect::NoteCompleted { tid, commit } => {
                // Inline for the file-less trivial commit, at phase-two
                // completion for every other.
                if commit {
                    kernel.events.push(Event::Committed { tid });
                }
                None
            }
            Effect::NoteRecoveryRedo { tid } => {
                kernel.events.push(Event::RecoveryRedo { tid });
                self.report.redone += 1;
                None
            }
            Effect::NoteRecoveryAbort { tid } => {
                kernel.events.push(Event::RecoveryAbort { tid });
                self.report.aborted += 1;
                None
            }
            Effect::SendDelegate { tid, site, files } => {
                // One message and its answer: the storage site prepares and
                // forces its record inside this call — and, deciding alone,
                // installs before it replies. What rides there goes ahead
                // of the delegation, so the install of an earlier commit
                // rides this one's vote force.
                kernel.events.push(Event::DelegateSent { tid, to: site });
                let riders = mgr.rides.lock().queues.remove(&site).unwrap_or_default();
                let delegate = TxnMsg::Delegate { tid, files };
                let outcome = match mgr.ride(site, riders, vec![delegate], acct).0.pop() {
                    Some(Ok(Msg::Txn(TxnMsg::PrepareDone { ok: true, .. }))) => {
                        PrepareOutcome::Committed
                    }
                    Some(Ok(Msg::Txn(TxnMsg::PrepareDone { ok: false, .. }))) => {
                        PrepareOutcome::AbortedOrForgotten
                    }
                    _ => PrepareOutcome::Unreachable,
                };
                Some(Input::DelegateAnswer { tid, site, outcome })
            }
            Effect::Inquire { tid, site } => {
                let res = mgr.inquire(tid, site, acct);
                let outcome = res.clone().unwrap_or(PrepareOutcome::Unreachable);
                // An unanswered inquiry is what the caller's `EndTrans`
                // fails with.
                self.succeeded(res.map(|_| ()));
                Some(Input::DelegateAnswer { tid, site, outcome })
            }
            Effect::QueueInquiry { tid } => {
                if let Some(top) = self.top {
                    mgr.finish_process_state(tid, top);
                }
                let mut inquiries = mgr.inquiries.lock();
                if !inquiries.contains(&tid) {
                    inquiries.push(tid);
                }
                None
            }
            Effect::Forget { tid, site } => {
                let mut rides = mgr.rides.lock();
                rides.queues.entry(site).or_default().forget.push(tid);
                None
            }
            Effect::NoteCommitPoint { tid } => {
                kernel.events.push(Event::CommitMark { tid });
                None
            }
            Effect::LogRecord { tid, files, status } => {
                // Born `Committed` the record is the commit point, forced
                // and announced as one; born `Voted` it is a yes, forced
                // before it is cast.
                let rec = CoordLogRecord { tid, files, status };
                let res = kernel.home().and_then(|vol| {
                    vol.coord_log_put(&rec, acct)?;
                    if status == TxnStatus::Committed {
                        // `coord_log_put` forced it.
                        return Ok(());
                    }
                    vol.log_barrier(acct)
                });
                let ok = self.succeeded(res);
                Some(Input::StatusLogged { tid, ok })
            }
            Effect::FinishHere { tid, commit, files } => {
                let input = if commit {
                    Input::CommitReq { tid, files }
                } else {
                    Input::AbortReq { tid, files }
                };
                let part = mgr.participate(input, acct);
                let ok = part.reply;
                let res = part.result;
                self.succeeded(res);
                // A phase-two message taken here is acked as the participant
                // machine acked it.
                self.reply = ok;
                Some(Input::FinishedHere { tid, ok })
            }
            Effect::Answer { ok, .. } => {
                self.answer = Some(ok);
                None
            }
            Effect::CheckPrimary { tid, files } => {
                // A deposed primary must vote no: the transaction's
                // writes were buffered against a copy that stopped being
                // the file's primary image when a failover promoted
                // someone else mid-transaction. Committing them here
                // would fork the replica history.
                let ok = files.iter().all(|fid| kernel.require_primary(*fid).is_ok());
                Some(Input::PrimaryChecked { tid, ok })
            }
            Effect::CheckKnown { tid, files } => {
                // Presumed abort: vote no on a transaction this site
                // knows nothing about — not requesting it, no locks, no
                // uncommitted modifications, no prepare log. That is
                // exactly the state after a crash or partition rolled the
                // transaction back here unilaterally; answering yes would
                // commit a write set this site already discarded.
                let owner = Owner::Trans(tid);
                let known = mgr.coord.lock().sm.requests_undecided(tid)
                    || kernel.locks.owner_has_locks(owner)
                    || files.iter().any(|fid| {
                        kernel.volume(fid.volume).ok().is_some_and(|vol| {
                            vol.owner_dirty(*fid, owner)
                                || vol.prepare_log_get(tid, *fid, acct).is_some()
                        })
                    });
                Some(Input::KnownChecked { tid, known })
            }
            Effect::StageAndLog {
                tid,
                coordinator,
                files,
            } => {
                // Every no-vote guard passed; now the durable prepare:
                // "enough of the intentions lists and lock lists for each
                // file to guarantee that the files can be committed ...
                // regardless of local failures" (Section 4.2).
                let ok = mgr.stage_prepare(tid, coordinator, &files, acct);
                Some(Input::Staged { tid, ok })
            }
            Effect::Vote { ok, .. } | Effect::Ack { ok, .. } => {
                self.reply = ok;
                None
            }
            Effect::Install { tid, files } => {
                let res = mgr.install_files(tid, &files, acct);
                let ok = self.succeeded(res);
                Some(Input::Installed { tid, ok })
            }
            Effect::Rollback { tid, files } => {
                let res = mgr.rollback_files(tid, &files, acct);
                let ok = self.succeeded(res);
                Some(Input::RolledBack { tid, ok })
            }
            Effect::ReleaseLocks { tid } => {
                let granted = kernel.locks.release_owner(Owner::Trans(tid), acct);
                kernel.push_grants(granted, acct);
                None
            }
            Effect::QueryStatus {
                tid,
                fid,
                coordinator,
            } => {
                // A prepare record names the site that voted on it, whose
                // record is on *its* home volume, whichever volume this
                // prepare record was found on; when that is this site the
                // inquiry reaches our own home journal without a message.
                // A volume carried here from a dead site may hold the record
                // itself — it rides with its prepare records (Section 4.4)
                // — and a yes among peers there is resolved by asking the
                // peers it lists. Only a record it holds is an answer: the
                // dead site's other volumes hold none, and it is asked
                // instead.
                let ask = |site, acct: &mut Account| {
                    mgr.inquire(tid, site, acct)
                        .unwrap_or(PrepareOutcome::Unreachable)
                };
                let carried = self
                    .scanned
                    .filter(|vol| vol.site() == coordinator && coordinator != mgr.site())
                    .and_then(|vol| vol.coord_log_get(tid, acct));
                let outcome = match carried {
                    Some(rec) if rec.status == TxnStatus::Voted => {
                        let peers = group_by_site(&rec.files);
                        let others = peers.into_iter().filter(|(s, _)| *s != coordinator);
                        PrepareOutcome::of_peers(others.map(|(s, _)| ask(s, &mut *acct)))
                    }
                    Some(rec) => Some(rec.status).into(),
                    None => ask(coordinator, acct),
                };
                if matches!(
                    outcome,
                    PrepareOutcome::Undecided | PrepareOutcome::Unreachable
                ) {
                    // Stay in doubt, keep the log: the peers have not
                    // decided (phase two will come) or were unreachable (a
                    // later recovery pass resolves it).
                    self.report.in_doubt += 1;
                }
                Some(Input::StatusResolved { tid, fid, outcome })
            }
            Effect::InstallRecovered { tid, fid } => {
                if let (Some(vol), Some(rec)) = (self.scanned, &self.recovered) {
                    // The install settles the prepare record in the same
                    // append; a failed one leaves it for the next pass.
                    vol.install_intentions(tid, &rec.intentions, acct)
                        .unwrap_or(());
                    // The replicas missed the phase-two push while this
                    // site was down; forward the recovered install (best
                    // effort — an unreachable replica drops to unsynced
                    // and pulls).
                    let _ = kernel.sync_replicas(fid, &rec.intentions, acct);
                    self.report.participant_committed += 1;
                }
                None
            }
            Effect::PurgePrepareLog { tid, fid } => {
                // Absent coordinator log ⇒ the transaction finished
                // everywhere; but a surviving prepare log means *we*
                // did not finish — with presumed abort semantics,
                // roll back. Do NOT free the shadow pages directly:
                // truncations are lazy, so a resurfaced stale record
                // may name blocks that were since installed into an
                // inode or reallocated. Truncate only; the scavenge
                // pass that follows the scan reclaims true orphans.
                if let Some(vol) = self.scanned {
                    let _ = vol.prepare_log_delete(tid, fid, acct);
                    self.report.participant_aborted += 1;
                }
                None
            }
        })
    }

    /// The prepares (or delegations) of one commit are one
    /// [`TxnManager::wave`]: each site is contacted in wave order, and the
    /// round costs the slowest site.
    fn prepare_wave(&mut self, wave: Vec<Effect>) -> std::result::Result<Vec<Input>, Infallible> {
        let mgr = self.mgr;
        let mut votes = Vec::with_capacity(wave.len());
        mgr.wave(self.acct, wave, |prepare, branch| {
            let Ok(vote) = mgr
                .substrate(Machine::Coordinator, branch)
                .interpret(prepare);
            votes.extend(vote);
        });
        Ok(votes)
    }
}

impl TxnService for TxnManager {
    fn handle_txn(&self, req: TxnMsg, acct: &mut Account) -> Msg {
        TxnManager::handle_txn(self, req, acct)
    }

    /// Only a delegate's yes among peers that has heard no outcome is
    /// settled here: its peers are asked, as by a delegate in doubt.
    fn wanted(&self, tid: TransId, acct: &mut Account) -> bool {
        let voted = || self.coord.lock().sm.status_of(tid) == Some(TxnStatus::Voted);
        if !voted() {
            return false;
        }
        self.substrate(Machine::Coordinator, acct)
            .drive(Input::Wanted { tid });
        !voted()
    }

    fn refused(&self, tid: TransId) -> bool {
        self.part.lock().sm.refuses(tid)
    }
}

/// What a recovery pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Coordinator logs re-driven through phase-two commit.
    pub redone: usize,
    /// Coordinator logs queued for abort processing.
    pub aborted: usize,
    /// Prepare logs resolved to commit.
    pub participant_committed: usize,
    /// Prepare logs resolved to abort.
    pub participant_aborted: usize,
    /// Prepare logs left in doubt (coordinator unreachable/undecided).
    pub in_doubt: usize,
    /// Orphaned shadow blocks reclaimed.
    pub scavenged: usize,
}
