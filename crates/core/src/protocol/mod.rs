//! The sans-IO transaction protocol: pure state machines for two-phase
//! commit, presumed abort, and reboot recovery (Sections 4.2–4.4).
//!
//! Every protocol decision lives in [`CoordinatorSm`] and [`ParticipantSm`];
//! neither touches a disk, a socket, or a clock. A transition is the pure
//! call `step(&mut self, input) -> Vec<Effect>`. One loop, [`drive`], feeds
//! an [`Input`] and hands each returned [`Effect`] to a [`Substrate`] — in
//! production the [`crate::manager::TxnManager`]'s: the journal, the
//! transport, the filesystem's shadow-page installer, the catalog's commit
//! fences. Observation results flow back in as further inputs
//! (`StartLogged`, `Vote`, `Staged`, …), so the machines never block and
//! never guess.
//!
//! The split buys three things:
//!
//! * **Model checking.** The harness's small-scope checker drives the *same*
//!   machine structs through every interleaving of crash, message drop, and
//!   duplication that a bounded scope allows, asserting the 2PC safety
//!   invariants by exhaustion instead of seed sampling.
//! * **Conformance.** Because a step is pure, a recorded `(input, effects)`
//!   transcript can be replayed through a fresh machine; any divergence
//!   means a driver mutated protocol state out-of-band. The chaos harness
//!   records transcripts on every run and replays them as an oracle.
//! * **Reviewability.** The no-vote defenses that previously hid in driver
//!   control flow — the presumed-abort refusal set, the boot-epoch taint,
//!   the deposed-primary check — are now explicit guarded transitions with
//!   unit tests.
//!
//! The driver boundary is strict: effects carry *what* must happen, never
//! how. The machine fixes the schedule's shape — one prepare per participant
//! site, emitted together, the decision when every vote is in — and the
//! driver keeps the rest of the scheduling (the asynchronous phase-two
//! queue, per-site message batching, what a wave of prepares costs on the
//! model clock): that affects performance, not safety, while every state
//! change that 2PC correctness depends on is a machine transition.

pub mod coordinator;
mod drive;
pub mod participant;

pub use coordinator::CoordinatorSm;
pub use drive::{drive, Substrate};
pub use participant::{ParticipantFaults, ParticipantSm};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use locus_types::{Fid, FileListEntry, SiteId, TransId, TxnStatus};

/// An observation fed into a protocol machine. Inputs are pure data: votes,
/// acknowledgements, substrate call results, reboot/epoch observations, and
/// recovery scan records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    // ----- coordinator ---------------------------------------------------
    /// `EndTrans` reached the commit point at the top-level process.
    CommitRequested {
        tid: TransId,
        files: Vec<FileListEntry>,
        /// Inert: no machine reads it. It once chose between one prepare per
        /// vote and all prepares at once; there is now one schedule. It stays
        /// only because `benchmark/src/probes.rs` still names it and the PR
        /// that removed its meaning could not edit `benchmark/`; the next
        /// `benchmark` PR deletes it there, here, and
        /// [`Input::commit_requested`] with it.
        parallel: bool,
    },
    /// Result of [`Effect::LogStart`] (the status-`Unknown` coordinator
    /// record reached the journal, or not).
    StartLogged { tid: TransId, ok: bool },
    /// A participant's vote. A failed prepare RPC is a no vote — with
    /// synchronous RPC the reply *is* the vote, so a dropped request or
    /// reply both surface here as `ok: false`.
    Vote {
        tid: TransId,
        site: SiteId,
        ok: bool,
    },
    /// Result of a `critical` [`Effect::LogStatus`] (the decision mark).
    StatusLogged { tid: TransId, ok: bool },
    /// One participant site acknowledged (or failed) its phase-two message.
    Phase2Ack {
        tid: TransId,
        site: SiteId,
        ok: bool,
    },
    /// The driver finished one queued phase-two work item with every
    /// participant acknowledged. Duplicates are legal (recovery may requeue
    /// work that a pre-crash queue item later also completes); the purge
    /// effects are idempotent.
    Phase2Done { tid: TransId, commit: bool },
    /// The network partitioned; only `reachable` remains in our partition.
    TopologyChanged { reachable: Vec<SiteId> },
    /// Recovery: one coordinator-log record from the journal scan of a
    /// volume of `site`: this one, or a dead site whose volume was carried
    /// here (Section 4.4). `installed`: this site's own yes (`Voted`) found
    /// beside a prepare record of its own whose intentions are already live
    /// — only a commit installs, so the note of it was lost.
    CoordScan {
        tid: TransId,
        files: Vec<FileListEntry>,
        status: TxnStatus,
        site: SiteId,
        installed: bool,
    },
    /// What `site` said about `tid`: a delegate's answer to
    /// [`Effect::SendDelegate`], or a site's answer to an [`Effect::Inquire`].
    /// At the requester it is `site`'s vote; at a delegate in doubt, what a
    /// peer holds. `Committed` and `Undecided` (a yes record) are yes,
    /// `AbortedOrForgotten` is no, and a lost answer is `Unreachable`, never
    /// a no.
    DelegateAnswer {
        tid: TransId,
        site: SiteId,
        outcome: PrepareOutcome,
    },
    /// The phase-two dæmon's turn to retry a queued inquiry.
    RetryInquiry { tid: TransId },
    /// Delegate: the requester `tid.site`, which holds none of `tid`'s
    /// files, handed this site, one of their storage sites, the decision
    /// over `files` — the whole file list, so that every delegate knows its
    /// peers. A site that stores every file decides alone; several decide
    /// together, by their durable yes votes.
    DelegateReq {
        tid: TransId,
        files: Vec<FileListEntry>,
    },
    /// Delegate: `from` has learned the outcome of these delegated
    /// transactions. Only `from`'s own transactions (`tid.site == from`)
    /// count.
    Forget { from: SiteId, tids: Vec<TransId> },
    /// Delegate: result of [`Effect::FinishHere`].
    FinishedHere { tid: TransId, ok: bool },

    // ----- participant ---------------------------------------------------
    /// A `Prepare` arrived. `epoch` is the earliest boot epoch at which the
    /// transaction used this site, as claimed by the coordinator.
    PrepareReq {
        tid: TransId,
        coordinator: SiteId,
        files: Vec<Fid>,
        epoch: u64,
    },
    /// Result of [`Effect::CheckPrimary`]: whether this site is still the
    /// primary copy for every file in the prepare.
    PrimaryChecked { tid: TransId, ok: bool },
    /// Result of [`Effect::CheckKnown`]: whether this site has any trace of
    /// the transaction (coordinating entry, locks, dirty pages, prepare
    /// log). Presumed abort votes no on a stranger.
    KnownChecked { tid: TransId, known: bool },
    /// Result of [`Effect::StageAndLog`]: the intentions and lock lists are
    /// as durable as the decision that can rely on them — on the platters,
    /// or (the coordinator's own home journal) ordered ahead of the commit
    /// mark that will force them — or the disk died mid-write.
    Staged { tid: TransId, ok: bool },
    /// A phase-two `Commit` arrived. A delegate that voted among peers
    /// takes it in its coordinator machine first (see
    /// [`CoordinatorSm::holds_vote`]).
    CommitReq { tid: TransId, files: Vec<Fid> },
    /// Result of [`Effect::Install`].
    Installed { tid: TransId, ok: bool },
    /// A phase-two `AbortFiles` arrived (to a delegate that voted among
    /// peers, as [`Input::CommitReq`]).
    AbortReq { tid: TransId, files: Vec<Fid> },
    /// A topology change left `tid` holding locks on `files` here while its
    /// home site is unreachable (Section 4.3). Unlike a coordinator's
    /// [`Input::AbortReq`] this may not roll back a prepared transaction:
    /// once this site voted yes, only the coordinator decides.
    Stranded { tid: TransId, files: Vec<Fid> },
    /// Result of [`Effect::Rollback`].
    RolledBack { tid: TransId, ok: bool },
    /// Recovery: a prepare-log record surfaced in the journal scan.
    RecoveredPrepare {
        tid: TransId,
        fid: Fid,
        coordinator: SiteId,
    },
    /// The coordinator's answer (or unreachability) for a recovered prepare.
    StatusResolved {
        tid: TransId,
        fid: Fid,
        outcome: PrepareOutcome,
    },
    /// The site rebooted under a new boot epoch; volatile prepare rounds
    /// died with the old incarnation.
    Rebooted { epoch: u64 },
}

impl Input {
    /// [`Input::CommitRequested`], so that its inert field is spelled here
    /// and nowhere else in the program.
    pub fn commit_requested(tid: TransId, files: Vec<FileListEntry>) -> Input {
        Input::CommitRequested {
            tid,
            files,
            parallel: true,
        }
    }
}

/// How a recovery status inquiry resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrepareOutcome {
    /// The coordinator log says committed: install the intentions.
    Committed,
    /// The coordinator log says aborted — or has no record at all, which
    /// under presumed abort means the same thing.
    AbortedOrForgotten,
    /// The coordinator has a record but has not decided yet — from a
    /// delegate deciding among peers, its durable yes.
    Undecided,
    /// The coordinator site did not answer; stay in doubt, keep the log.
    Unreachable,
}

/// What a coordinator log's answer to a status inquiry means: the record's
/// status, or `None` when the log holds no record for the transaction.
impl From<Option<TxnStatus>> for PrepareOutcome {
    fn from(status: Option<TxnStatus>) -> Self {
        match status {
            Some(TxnStatus::Committed) => PrepareOutcome::Committed,
            Some(TxnStatus::Unknown | TxnStatus::Voted) => PrepareOutcome::Undecided,
            Some(TxnStatus::Aborted) | None => PrepareOutcome::AbortedOrForgotten,
        }
    }
}

/// A side effect a protocol machine wants performed. Effects are requests:
/// the driver interprets them against the real substrate and feeds results
/// back as inputs. The machine never observes the world directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    // ----- coordinator ---------------------------------------------------
    /// Append the status-`Unknown` coordinator record to the home journal;
    /// answer with [`Input::StartLogged`].
    LogStart {
        tid: TransId,
        files: Vec<FileListEntry>,
    },
    /// Send one `Prepare` covering `files` to a participant site; answer
    /// with [`Input::Vote`].
    SendPrepare {
        tid: TransId,
        site: SiteId,
        files: Vec<Fid>,
        epoch: u64,
    },
    /// Raise the commit fence on every file, *before* the durable commit
    /// mark: between the mark and the end of phase two the new bytes exist
    /// only in prepare logs at the primaries, and a failover in that window
    /// would promote a replica past an acked commit.
    RaiseFences { tid: TransId, files: Vec<Fid> },
    /// Rewrite the coordinator record's status. `critical: true` (the
    /// decision mark) is forced and demands an [`Input::StatusLogged`]
    /// answer — on failure the fence deliberately stays up and the
    /// transaction stays undecided. `critical: false` (recovery/topology
    /// rewrites, and a delegate among peers noting the commit it learned)
    /// is lazy, best-effort fire-and-forget.
    LogStatus {
        tid: TransId,
        status: TxnStatus,
        critical: bool,
    },
    /// Queue asynchronous phase two for these participants.
    QueuePhase2 {
        tid: TransId,
        commit: bool,
        participants: Vec<(SiteId, Vec<Fid>)>,
    },
    /// Clear the top-level process's transaction state and count the
    /// outcome; on `commit: false` also announce the abort and fail the
    /// caller's `EndTrans`.
    FinishLocal { tid: TransId, commit: bool },
    /// Count and announce a topology-change abort — the coordinator's, or a
    /// stranded participant's rollback (no local process state: the
    /// top-level process may be remote or gone).
    NoteAborted { tid: TransId },
    /// Purge the coordinator log record (phase two complete everywhere).
    PurgeCoordLog { tid: TransId },
    /// Drop the commit fence: phase two has installed (and pushed)
    /// everywhere, so failover may proceed. Harmless for aborts.
    DropFence { tid: TransId },
    /// Announce completion of phase two (the `Committed` trace event on
    /// commit; silent for aborts).
    NoteCompleted { tid: TransId, commit: bool },
    /// Announce that recovery is re-driving a committed transaction.
    NoteRecoveryRedo { tid: TransId },
    /// Announce that recovery is aborting an undecided transaction.
    NoteRecoveryAbort { tid: TransId },
    /// Requester: hand the decision over `files`, the whole file list, to
    /// `site`, one of their storage sites; answer with
    /// [`Input::DelegateAnswer`]. One per storage site, emitted together: a
    /// wave, as prepares are.
    SendDelegate {
        tid: TransId,
        site: SiteId,
        files: Vec<FileListEntry>,
    },
    /// Ask `site` what became of `tid`; answer with [`Input::DelegateAnswer`].
    /// A site with no record aborts what it holds of the transaction before
    /// it answers, so no late delegation can commit it.
    Inquire { tid: TransId, site: SiteId },
    /// An inquiry went unanswered, so the outcome is unknown here. At the
    /// requester: leave the process as `FinishLocal` would, count nothing
    /// and fail the caller with the transport error. Either way, queue
    /// [`Input::RetryInquiry`] for the phase-two dæmon.
    QueueInquiry { tid: TransId },
    /// Requester: the outcome of `tid` is known everywhere, so `site` may
    /// drop its record; tell it on the next message that goes there anyway.
    Forget { tid: TransId, site: SiteId },
    /// Announce that the participants' durable yes votes committed `tid`:
    /// the commit point of a transaction no site marks, announced as the
    /// `CommitMark` a forced mark announces, by the first site to learn of
    /// the last yes.
    NoteCommitPoint { tid: TransId },
    /// Delegate: append the whole coordinator record and force it; the
    /// prepare record ahead of it in the same journal rides that force.
    /// Nothing was logged before it. Born `Committed` when this site is the
    /// only participant — the decision mark — and `Voted` otherwise: a yes
    /// among the listed peers. Answer with [`Input::StatusLogged`].
    LogRecord {
        tid: TransId,
        files: Vec<FileListEntry>,
        status: TxnStatus,
    },
    /// Delegate: phase two at this site — its participant machine takes the
    /// commit or abort now, not from the queue. Answer with
    /// [`Input::FinishedHere`].
    FinishHere {
        tid: TransId,
        commit: bool,
        files: Vec<Fid>,
    },
    /// Delegate: reply to the requester: the outcome when this site decides
    /// alone, this site's vote when it decides with peers.
    Answer { tid: TransId, ok: bool },

    // ----- participant ---------------------------------------------------
    /// Ask whether this site is still the primary copy of every file;
    /// answer with [`Input::PrimaryChecked`].
    CheckPrimary { tid: TransId, files: Vec<Fid> },
    /// Ask whether this site knows the transaction at all; answer with
    /// [`Input::KnownChecked`].
    CheckKnown { tid: TransId, files: Vec<Fid> },
    /// Flush modified records and write the prepare logs (intentions + lock
    /// lists); answer with [`Input::Staged`]. The driver forces one
    /// group-commit barrier per touched volume, except the volume whose
    /// journal will carry this transaction's commit mark (the home volume
    /// when `coordinator` is this site): there the record rides the mark's
    /// own force. Scheduling, not protocol — the machine sees only `ok`.
    StageAndLog {
        tid: TransId,
        coordinator: SiteId,
        files: Vec<Fid>,
    },
    /// Reply to the coordinator with this vote.
    Vote { tid: TransId, ok: bool },
    /// Install the prepared intentions (single-file commit per file) and
    /// stage replica pushes; answer with [`Input::Installed`].
    Install { tid: TransId, files: Vec<Fid> },
    /// Roll the files back: free logged shadow blocks, purge prepare logs,
    /// abort uncommitted modifications; answer with [`Input::RolledBack`].
    Rollback { tid: TransId, files: Vec<Fid> },
    /// Release the transaction's retained locks and push the grants.
    ReleaseLocks { tid: TransId },
    /// Acknowledge the phase-two message (negatively on `ok: false`, which
    /// keeps the coordinator's work queued for a retry).
    Ack { tid: TransId, ok: bool },
    /// Recovery: ask the coordinator what became of `tid`; answer with
    /// [`Input::StatusResolved`].
    QueryStatus {
        tid: TransId,
        fid: Fid,
        coordinator: SiteId,
    },
    /// Recovery resolved to commit: install the logged intentions, forward
    /// them to replicas, purge the prepare log.
    InstallRecovered { tid: TransId, fid: Fid },
    /// Recovery resolved to abort (or the coordinator forgot): truncate the
    /// prepare log; the scavenge pass reclaims orphaned shadow blocks.
    PurgePrepareLog { tid: TransId, fid: Fid },
}

impl Effect {
    /// The effect's kind, for coverage accounting.
    pub fn name(&self) -> &'static str {
        match self {
            Effect::LogStart { .. } => "LogStart",
            Effect::SendPrepare { .. } => "SendPrepare",
            Effect::RaiseFences { .. } => "RaiseFences",
            Effect::LogStatus { .. } => "LogStatus",
            Effect::QueuePhase2 { .. } => "QueuePhase2",
            Effect::FinishLocal { .. } => "FinishLocal",
            Effect::NoteAborted { .. } => "NoteAborted",
            Effect::PurgeCoordLog { .. } => "PurgeCoordLog",
            Effect::DropFence { .. } => "DropFence",
            Effect::NoteCompleted { .. } => "NoteCompleted",
            Effect::NoteRecoveryRedo { .. } => "NoteRecoveryRedo",
            Effect::NoteRecoveryAbort { .. } => "NoteRecoveryAbort",
            Effect::SendDelegate { .. } => "SendDelegate",
            Effect::Inquire { .. } => "Inquire",
            Effect::QueueInquiry { .. } => "QueueInquiry",
            Effect::Forget { .. } => "Forget",
            Effect::NoteCommitPoint { .. } => "NoteCommitPoint",
            Effect::LogRecord { .. } => "LogRecord",
            Effect::FinishHere { .. } => "FinishHere",
            Effect::Answer { .. } => "Answer",
            Effect::CheckPrimary { .. } => "CheckPrimary",
            Effect::CheckKnown { .. } => "CheckKnown",
            Effect::StageAndLog { .. } => "StageAndLog",
            Effect::Vote { .. } => "Vote",
            Effect::Install { .. } => "Install",
            Effect::Rollback { .. } => "Rollback",
            Effect::ReleaseLocks { .. } => "ReleaseLocks",
            Effect::Ack { .. } => "Ack",
            Effect::QueryStatus { .. } => "QueryStatus",
            Effect::InstallRecovered { .. } => "InstallRecovered",
            Effect::PurgePrepareLog { .. } => "PurgePrepareLog",
        }
    }
}

/// A protocol machine: a pure transition function over [`Input`]s and
/// [`Effect`]s. Implemented by both machines so transcripts and checkers
/// can be generic.
pub trait ProtocolSm: Clone + PartialEq + fmt::Debug {
    fn step(&mut self, input: &Input) -> Vec<Effect>;
}

/// One recorded transition of a live machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranscriptStep {
    pub input: Input,
    pub effects: Vec<Effect>,
}

/// A machine's recorded history: its pristine construction-time state plus
/// every `(input, effects)` pair it stepped through, in order.
#[derive(Debug, Clone)]
pub struct MachineTranscript<M: ProtocolSm> {
    pub initial: M,
    pub steps: Vec<TranscriptStep>,
}

/// A transcript replay divergence: the fresh machine, given the same input
/// in the same state, produced different effects than the live run recorded
/// — some driver mutated protocol state out-of-band.
#[derive(Debug, Clone)]
pub struct ConformanceError {
    pub step: usize,
    pub input: Input,
    pub recorded: Vec<Effect>,
    pub replayed: Vec<Effect>,
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {}: input {:?} produced {:?} on replay but {:?} was recorded",
            self.step, self.input, self.replayed, self.recorded
        )
    }
}

impl<M: ProtocolSm> MachineTranscript<M> {
    /// Replays the transcript through a fresh copy of the initial machine
    /// and checks every transition is reproduced exactly.
    pub fn replay(&self) -> Result<(), ConformanceError> {
        let mut sm = self.initial.clone();
        for (i, step) in self.steps.iter().enumerate() {
            let effects = sm.step(&step.input);
            if effects != step.effects {
                return Err(ConformanceError {
                    step: i,
                    input: step.input.clone(),
                    recorded: step.effects.clone(),
                    replayed: effects,
                });
            }
        }
        Ok(())
    }
}

/// Both machines' transcripts for one site.
#[derive(Debug, Clone)]
pub struct ProtocolTranscripts {
    pub coordinator: MachineTranscript<CoordinatorSm>,
    pub participant: MachineTranscript<ParticipantSm>,
}

/// Groups a file list by storage site, sites and fids in ascending order.
/// Entries differing only in boot epoch collapse to one fid per site.
pub fn group_by_site(files: &[FileListEntry]) -> Vec<(SiteId, Vec<Fid>)> {
    let mut map: BTreeMap<SiteId, BTreeSet<Fid>> = BTreeMap::new();
    for f in files {
        map.entry(f.storage_site).or_default().insert(f.fid);
    }
    map.into_iter()
        .map(|(site, fids)| (site, fids.into_iter().collect()))
        .collect()
}

/// The earliest boot epoch at which the transaction used each storage site.
/// The minimum matters: if any entry predates a reboot of the site, writes
/// acked under the old incarnation may be gone, and prepare must fail there.
pub fn site_epochs(files: &[FileListEntry]) -> BTreeMap<SiteId, u64> {
    let mut map: BTreeMap<SiteId, u64> = BTreeMap::new();
    for f in files {
        map.entry(f.storage_site)
            .and_modify(|e| *e = (*e).min(f.epoch))
            .or_insert(f.epoch);
    }
    map
}
