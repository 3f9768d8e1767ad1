//! The per-site transaction manager: the kernel-backed [`Substrate`] for the
//! sans-IO protocol machines in [`crate::protocol`], and their scheduler.
//!
//! Every protocol decision — when to vote no, when the commit point is
//! reached, what phase two must do, how a journal scan resolves — is made
//! by the pure [`CoordinatorSm`] and [`ParticipantSm`]. What each [`Effect`]
//! means against the real world (journal, locks, volumes, transport, catalog
//! fences) is written once, in `KernelSubstrate::interpret`; every entry
//! point below builds one around its per-call context and hands an [`Input`]
//! to [`drive`]. The rest of this module is pure *scheduling*: the
//! asynchronous phase-two queue, per-site message batching, and what a wave
//! of messages to distinct sites costs (`TxnManager::wave`), none of which
//! change what the protocol decides — only when. Nothing here starts a
//! thread: every wave runs on its caller's.
//!
//! The manager records `(input, effects)` transcripts on demand (see
//! [`TxnManager::set_transcript_recording`]); the chaos harness replays
//! them through fresh machines to prove the live run never mutated
//! protocol state outside a machine transition.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// Queued phase-two work ("a kernel process at the coordinator site
/// asynchronously sends transaction commit messages", Section 4.2).
#[derive(Debug, Clone)]
pub struct Phase2Work {
    pub tid: TransId,
    pub commit: bool,
    /// Participant site → files to commit/abort there.
    pub participants: Vec<(SiteId, Vec<Fid>)>,
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
    async_work: Mutex<VecDeque<Phase2Work>>,
    /// Delegated transactions whose outcome an unreachable site holds —
    /// here the requester's, or a delegate's in doubt whose peer it is: the
    /// phase-two dæmon asks again.
    inquiries: Mutex<Vec<TransId>>,
    /// Per delegate, the delegated transactions whose outcome this site
    /// has learned: they ride the next delegation or phase-two batch there.
    forgets: Mutex<BTreeMap<SiteId, Vec<TransId>>>,
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
            async_work: Mutex::new(VecDeque::new()),
            inquiries: Mutex::new(Vec::new()),
            forgets: Mutex::new(BTreeMap::new()),
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

    /// Number of queued phase-two work items, inquiries included.
    pub fn pending_async(&self) -> usize {
        self.async_work.lock().len() + self.inquiries.lock().len()
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

    /// Runs the asynchronous phase-two dæmon once: sends commit/abort
    /// messages to participants and purges coordinator logs when every
    /// participant has finished. Unreachable participants leave the work
    /// queued (recovery will re-drive it). Returns how many transactions
    /// fully completed.
    ///
    /// Nothing here forces the journal: the purges are lazy truncations that
    /// ride the next flush of the home journal (the next commit's mark). A
    /// crash before then resurfaces the `Committed` records and recovery
    /// redoes an already idempotent phase two — once, because
    /// `Site::reboot_and_recover` ends with a force.
    pub fn run_async_work(&self, acct: &mut Account) -> usize {
        let resolved = self.retry_inquiries(acct);
        let work: Vec<Phase2Work> = self.async_work.lock().drain(..).collect();
        if work.is_empty() {
            return resolved;
        }
        let span = VirtSpan::begin(SpanPhase::PhaseTwo, acct);
        // Coalesce the phase-two traffic per participant site — across
        // transactions: every Commit/AbortFiles bound for one site travels
        // in a single batched network message. (Batching is scheduling, not
        // protocol: the machine only sees the per-site acks.)
        let mut by_site: BTreeMap<SiteId, Vec<(usize, TxnMsg)>> = BTreeMap::new();
        for (i, w) in work.iter().enumerate() {
            for (site, fids) in &w.participants {
                let msg = if w.commit {
                    self.kernel.events.push(Event::CommitSent {
                        tid: w.tid,
                        to: *site,
                    });
                    TxnMsg::Commit {
                        tid: w.tid,
                        files: fids.clone(),
                    }
                } else {
                    self.kernel.events.push(Event::AbortSent {
                        tid: w.tid,
                        to: *site,
                    });
                    TxnMsg::AbortFiles {
                        tid: w.tid,
                        files: fids.clone(),
                    }
                };
                by_site.entry(*site).or_default().push((i, msg));
            }
        }
        // Which participant sites failed to acknowledge, per work item.
        let mut failed: Vec<Vec<SiteId>> = vec![Vec::new(); work.len()];
        // The sites' messages are one wave: each site installs while the
        // others do.
        self.wave(acct, by_site, |(site, entries), branch| {
            let (idxs, mut msgs): (Vec<usize>, Vec<TxnMsg>) = entries.into_iter().unzip();
            // Forgets bound for this site ride the batch as its last member.
            let forget = self.forgets.lock().remove(&site);
            if let Some(tids) = &forget {
                msgs.push(TxnMsg::Forget { tids: tids.clone() });
            }
            // One network message per site; a lost one acknowledges none.
            let n = msgs.len();
            let msgs = msgs.into_iter().map(Msg::Txn).collect();
            let mut acks = match self.kernel.rpc_batch(site, msgs, branch) {
                Ok(resps) => resps.iter().map(Result::is_ok).collect(),
                Err(_) => vec![false; n],
            };
            if let Some(tids) = forget {
                if acks.pop() != Some(true) {
                    self.forgets.lock().entry(site).or_default().extend(tids);
                }
            }
            let mut sub = self.substrate(Machine::Coordinator, branch);
            for (i, ok) in idxs.into_iter().zip(acks) {
                sub.drive(Input::Phase2Ack {
                    tid: work[i].tid,
                    site,
                    ok,
                });
                if !ok {
                    failed[i].push(site);
                }
            }
        });
        let mut sub = self.substrate(Machine::Coordinator, acct);
        let mut completed = 0;
        for (i, w) in work.into_iter().enumerate() {
            if failed[i].is_empty() {
                // All participants done. The machine's completion effects
                // are deliberately idempotent: recovery can requeue work a
                // surviving pre-crash queue item also completes.
                sub.drive(Input::Phase2Done {
                    tid: w.tid,
                    commit: w.commit,
                });
                completed += 1;
            } else {
                let participants: Vec<(SiteId, Vec<Fid>)> = w
                    .participants
                    .into_iter()
                    .filter(|(s, _)| failed[i].contains(s))
                    .collect();
                self.async_work.lock().push_back(Phase2Work {
                    tid: w.tid,
                    commit: w.commit,
                    participants,
                });
            }
        }
        span.finish(&self.kernel.counters.spans, &self.kernel.model, acct);
        resolved + completed
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
    pub fn handle_txn(&self, from: SiteId, req: TxnMsg, acct: &mut Account) -> Msg {
        match self.dispatch(from, req, acct) {
            Ok(m) => m,
            Err(e) => Msg::Err(e),
        }
    }

    fn dispatch(&self, from: SiteId, req: TxnMsg, acct: &mut Account) -> Result<Msg> {
        match req {
            TxnMsg::Prepare {
                tid,
                coordinator,
                files,
                epoch,
            } => {
                let input = Input::PrepareReq {
                    tid,
                    coordinator,
                    files,
                    epoch,
                };
                let ok = self.participate(input, acct).reply;
                Ok(Msg::Txn(TxnMsg::PrepareDone { tid, ok }))
            }
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
            TxnMsg::Delegate { tid, files, forget } => {
                let mut sub = self.substrate(Machine::Coordinator, acct);
                sub.drive(Input::Forget { from, tids: forget });
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
                    .drive(Input::Forget { from, tids });
                Ok(Msg::Ok)
            }
            other @ (TxnMsg::PrepareDone { .. } | TxnMsg::StatusAnswer { .. }) => Err(
                Error::ProtocolViolation(format!("transaction manager cannot handle {other:?}")),
            ),
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
        if commit && !self.kernel.mounted_volumes().iter().all(|v| v.landed(tid)) {
            self.landing.lock().insert(tid);
            return Err(Error::NotLanded(tid));
        }
        Ok(ack)
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
    /// flush per touched volume (N files, one barrier — a yes vote that
    /// leaves this site must be durable before it is cast, but nothing
    /// forces a barrier per file).
    ///
    /// One volume is exempt: the home volume, when the coordinator is this
    /// site. Its journal is the one that will carry the commit mark, the
    /// vote is consumed only by the co-located coordinator, and nothing
    /// irrevocable happens on its strength before the mark. The mark's own
    /// flush then makes the prepare record durable (it sits ahead of the
    /// mark in the same log, and a flush lands a whole-frame prefix) and,
    /// being a write barrier, the shadow blocks the record names. Any other
    /// volume — a remote coordinator, or a second volume mounted at the
    /// coordinator's site — keeps its force: the mark is in another log.
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
        let rides_mark = (coordinator == self.site()).then_some(self.kernel.home_volume);
        let forced: BTreeSet<VolumeId> = files
            .iter()
            .map(|fid| fid.volume)
            .filter(|v| Some(*v) != rides_mark)
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
    /// the durable commit — the coordinator's own site, or a delegate alone
    /// — no message will ask for these installs again, so a journal that
    /// does not hold it is forced here.
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
            Effect::LogStart { tid, files } => {
                // Step 1: the coordinator log, status = unknown (Figure 5
                // step 1).
                let rec = CoordLogRecord {
                    tid,
                    files,
                    status: TxnStatus::Unknown,
                };
                let res = kernel.home().and_then(|vol| vol.coord_log_put(&rec, acct));
                let ok = self.succeeded(res);
                Some(Input::StartLogged { tid, ok })
            }
            Effect::SendPrepare {
                tid,
                site,
                files,
                epoch,
            } => {
                // Steps 2–3: one prepare message and its vote. `epoch` is
                // the earliest boot epoch the transaction observed at the
                // site; the participant refuses if it has rebooted since
                // (its volatile buffers, possibly holding acked writes of
                // this transaction, were lost).
                let span = VirtSpan::begin(SpanPhase::Prepare, acct);
                kernel.events.push(Event::PrepareSent { tid, to: site });
                let prepare = TxnMsg::Prepare {
                    tid,
                    coordinator: mgr.site(),
                    files,
                    epoch,
                };
                let resp = kernel.rpc(site, Msg::Txn(prepare), acct);
                let ok = matches!(resp, Ok(Msg::Txn(TxnMsg::PrepareDone { ok: true, .. })));
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
            Effect::LogStatus {
                tid,
                status,
                critical,
            } => {
                // The coordinator log lives on the home volume; a record
                // recovery scanned off another volume is rewritten there.
                // Step 4 (commit) is the critical one: the durable mark —
                // THE commit point (Figure 5 step 4). When it fails the
                // fence deliberately stays up: a torn flush may have landed
                // the durable `Committed` frame even as the call errored,
                // and a failover in that window would promote past the acked
                // commit. Recovery resolves the mark either way. The other
                // rewrites are lazy notes, best effort.
                let vol = self.scanned.cloned().map_or_else(|| kernel.home(), Ok);
                let res = vol.and_then(|vol| match critical {
                    true => vol.coord_log_set_status(tid, status, acct),
                    false => vol.coord_log_note_status(tid, status, acct),
                });
                critical.then(|| Input::StatusLogged {
                    tid,
                    ok: self.succeeded(res),
                })
            }
            Effect::QueuePhase2 {
                tid,
                commit,
                participants,
            } => {
                // Step 5 happens asynchronously (Figure 5's deferred fifth
                // write).
                mgr.async_work.lock().push_back(Phase2Work {
                    tid,
                    commit,
                    participants,
                });
                None
            }
            Effect::FinishLocal { tid, commit } => {
                if let Some(top) = self.top {
                    mgr.finish_process_state(tid, top);
                }
                if commit {
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
                // The coordinator log may be purged (Section 4.4: retained
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
                // installs before it replies.
                kernel.events.push(Event::DelegateSent { tid, to: site });
                let forget = mgr.forgets.lock().remove(&site).unwrap_or_default();
                let delegate = TxnMsg::Delegate {
                    tid,
                    files,
                    forget: forget.clone(),
                };
                let outcome = match kernel.rpc(site, Msg::Txn(delegate), acct) {
                    Ok(Msg::Txn(TxnMsg::PrepareDone { ok: true, .. })) => PrepareOutcome::Committed,
                    Ok(Msg::Txn(TxnMsg::PrepareDone { ok: false, .. })) => {
                        PrepareOutcome::AbortedOrForgotten
                    }
                    Ok(_) | Err(_) => {
                        // The forgets may not have arrived: they ride the
                        // next message there instead.
                        if !forget.is_empty() {
                            mgr.forgets.lock().entry(site).or_default().extend(forget);
                        }
                        PrepareOutcome::Unreachable
                    }
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
                mgr.forgets.lock().entry(site).or_default().push(tid);
                None
            }
            Effect::NoteCommitPoint { tid } => {
                kernel.events.push(Event::CommitMark { tid });
                None
            }
            Effect::LogRecord { tid, files, status } => {
                // Born `Committed` the record is the mark, and forced as
                // one; born `Voted` it is a yes, forced before it is cast.
                let rec = CoordLogRecord { tid, files, status };
                let res = kernel.home().and_then(|vol| {
                    vol.coord_log_put(&rec, acct)?;
                    match status {
                        // `coord_log_put` forced it as the mark.
                        TxnStatus::Committed => Ok(()),
                        TxnStatus::Voted | TxnStatus::Unknown | TxnStatus::Aborted => {
                            vol.log_barrier(acct)
                        }
                    }
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
                // knows nothing about — no live coordinator entry, no
                // locks, no uncommitted modifications, no prepare log.
                // That is exactly the state after a crash or partition
                // rolled the transaction back here unilaterally;
                // answering yes would let the coordinator commit a write
                // set this site already discarded. A coordinator entry
                // counts as knowledge so the coordinator's own site can
                // vote yes on a write-free participation — but only
                // while the transaction is still undecided: the model
                // checker found that a duplicated prepare arriving after
                // the commit point would otherwise pass this check and
                // re-stage a prepare log for an already-installed
                // transaction, leaving an orphan behind the fence drop.
                let owner = Owner::Trans(tid);
                let known = mgr.coord.lock().sm.coordinates_undecided(tid)
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
                // The coordinator's log is on *its* home volume, whichever
                // volume this prepare record was found on; when the
                // coordinator is this site the inquiry reaches our own home
                // journal without a message. A volume carried here from the
                // coordinator's site may hold that log itself — a
                // delegate's record rides with its prepare records (Section
                // 4.4) — but only a record it holds is an answer: the dead
                // site's other volumes hold none, and it is asked instead.
                let carried = self
                    .scanned
                    .filter(|vol| vol.site() == coordinator && coordinator != mgr.site())
                    .and_then(|vol| vol.coord_log_get(tid, acct));
                let outcome = match carried {
                    Some(rec) => Some(rec.status).into(),
                    None => mgr
                        .inquire(tid, coordinator, acct)
                        .unwrap_or(PrepareOutcome::Unreachable),
                };
                if matches!(
                    outcome,
                    PrepareOutcome::Undecided | PrepareOutcome::Unreachable
                ) {
                    // Stay in doubt, keep the log: either the coordinator
                    // has not decided (it will drive phase two itself) or
                    // it was unreachable (a later recovery pass resolves
                    // it).
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
    fn handle_txn(&self, from: SiteId, req: TxnMsg, acct: &mut Account) -> Msg {
        TxnManager::handle_txn(self, from, req, acct)
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
