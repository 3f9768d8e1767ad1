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
//! (`Vote`, `StatusLogged`, `Staged`, …), so the machines never block and
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
//! how. The machine fixes the schedule's shape — one delegation per other
//! storage site and the requester's own part, emitted together, the
//! decision when every vote is in — and the driver keeps the rest of the
//! scheduling (the phase-two queue, what rides each message, per-site
//! batching, what a wave costs on the model clock): that affects
//! performance, not safety, while every state change that commit
//! correctness depends on is a machine transition.

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
    /// Inert: no machine reads it. It answered the coordinator-logged
    /// commit's start record, which no site writes any more; it stays only
    /// because `benchmark/src/probes.rs` still names it, and the next
    /// `benchmark` PR deletes it there and here.
    StartLogged { tid: TransId, ok: bool },
    /// This site's own participant's vote: the answer to an
    /// [`Effect::SendPrepare`].
    Vote {
        tid: TransId,
        site: SiteId,
        ok: bool,
    },
    /// Result of [`Effect::LogRecord`]: this site's record is durable, or
    /// not.
    StatusLogged { tid: TransId, ok: bool },
    /// Inert: no machine reads it. One site acknowledged (or failed) its
    /// phase-two message; [`Input::Phase2Done`] says when all did. It stays
    /// only because `benchmark/src/probes.rs` still names it.
    Phase2Ack {
        tid: TransId,
        site: SiteId,
        ok: bool,
    },
    /// The driver finished one queued phase-two work item with every
    /// storage site acknowledged: the requester's, or a lone site's retry
    /// of its own install.
    Phase2Done { tid: TransId, commit: bool },
    /// The network partitioned; only `reachable` remains in our partition.
    TopologyChanged { reachable: Vec<SiteId> },
    /// Recovery: one commit record from the journal scan of a volume of
    /// `site`: this one, or a dead site whose volume was carried here
    /// (Section 4.4). `installed`: this site's own yes (`Voted`) found
    /// beside a prepare record of its own whose intentions are already live
    /// — only a commit installs, so the note of it was lost.
    CoordScan {
        tid: TransId,
        files: Vec<FileListEntry>,
        status: TxnStatus,
        site: SiteId,
        installed: bool,
    },
    /// What `site` said about `tid`: a storage site's answer to
    /// [`Effect::SendDelegate`], or a site's answer to an [`Effect::Inquire`].
    /// At the requester it is `site`'s vote; at a site in doubt, what a
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
    /// The requester handed this site, one of `tid`'s storage sites, its
    /// part of the decision over `files` — the whole file list, so that
    /// every storage site knows its peers. A site that stores every file
    /// decides alone; several decide together, by their durable yes votes.
    DelegateReq {
        tid: TransId,
        files: Vec<FileListEntry>,
    },
    /// A requester has heard every storage site of these transactions
    /// install their commits: no record of them is needed any more. Only a
    /// requester sends it, and only then, so who sends it does not matter.
    Forget { tids: Vec<TransId> },
    /// Result of [`Effect::FinishHere`].
    FinishedHere { tid: TransId, ok: bool },
    /// A request here would wait on, or be refused by, a lock `tid` holds
    /// while this site's yes among peers is durable and no outcome has
    /// reached it — the requester's commit rides its next message here.
    /// The peers are asked now, as by a site in doubt.
    Wanted { tid: TransId },

    // ----- participant ---------------------------------------------------
    /// This site's part in a commit: [`Effect::SendPrepare`] handed to the
    /// participant machine. `coordinator` is this site, which the prepare
    /// record names; `epoch` is the earliest boot epoch at which the
    /// transaction used this site, as the file list claims.
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
    /// or (the home journal) ordered ahead of the record that will force
    /// them — or the disk died mid-write.
    Staged { tid: TransId, ok: bool },
    /// A phase-two `Commit` arrived. A site that voted among peers takes it
    /// in its coordinator machine first (see [`CoordinatorSm::holds_vote`]).
    CommitReq { tid: TransId, files: Vec<Fid> },
    /// Result of [`Effect::Install`].
    Installed { tid: TransId, ok: bool },
    /// A phase-two `AbortFiles` arrived (to a site that voted among peers,
    /// as [`Input::CommitReq`]).
    AbortReq { tid: TransId, files: Vec<Fid> },
    /// A topology change left `tid` holding locks on `files` here while its
    /// home site is unreachable (Section 4.3). Unlike a phase-two
    /// [`Input::AbortReq`] this may not roll back a prepared transaction:
    /// once this site voted yes, only the votes decide.
    Stranded { tid: TransId, files: Vec<Fid> },
    /// Result of [`Effect::Rollback`].
    RolledBack { tid: TransId, ok: bool },
    /// Recovery: a prepare-log record surfaced in the journal scan.
    RecoveredPrepare {
        tid: TransId,
        fid: Fid,
        coordinator: SiteId,
    },
    /// The record's answer (or unreachability) for a recovered prepare.
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
    /// The record says committed: install the intentions.
    Committed,
    /// The record says aborted — or there is no record at all, which
    /// under presumed abort means the same thing.
    AbortedOrForgotten,
    /// The record is a durable yes among peers, the outcome not known to it.
    Undecided,
    /// The site did not answer; stay in doubt, keep the log.
    Unreachable,
}

impl PrepareOutcome {
    /// What a yes among peers resolves to once they answer: committed when
    /// one has learned the commit or every one holds a yes, aborted when
    /// one has no record (it never voted, and now never will), and in doubt
    /// while any is out of reach.
    pub fn of_peers(answers: impl IntoIterator<Item = PrepareOutcome>) -> PrepareOutcome {
        let mut all_yes = true;
        for answer in answers {
            match answer {
                PrepareOutcome::Committed => return PrepareOutcome::Committed,
                PrepareOutcome::AbortedOrForgotten => return answer,
                PrepareOutcome::Undecided => {}
                PrepareOutcome::Unreachable => all_yes = false,
            }
        }
        if all_yes {
            PrepareOutcome::Committed
        } else {
            PrepareOutcome::Unreachable
        }
    }
}

/// What a site's answer to a status inquiry means: its record's status, or
/// `None` when it holds no record of the transaction.
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
    /// This site's own part: hand its participant machine a prepare over
    /// `files` (`site` is this site), with no message; answer with
    /// [`Input::Vote`].
    SendPrepare {
        tid: TransId,
        site: SiteId,
        files: Vec<Fid>,
        epoch: u64,
    },
    /// Raise the commit fence on every file, *before* the record that may be
    /// the commit point: between it and the end of phase two the new bytes
    /// exist only in prepare logs at the primaries, and a failover in that
    /// window would promote a replica past an acked commit.
    RaiseFences { tid: TransId, files: Vec<Fid> },
    /// Note an outcome this site learned in its record: lazy, best effort —
    /// recovery can learn it again if the note is lost.
    LogStatus { tid: TransId, status: TxnStatus },
    /// Queue phase two for these storage sites: a commit rides the next
    /// message to each, an abort goes at the dæmon's next turn.
    QueuePhase2 {
        tid: TransId,
        commit: bool,
        participants: Vec<(SiteId, Vec<Fid>)>,
    },
    /// Clear the top-level process's transaction state and count the
    /// outcome; on `commit: false` also announce the abort and fail the
    /// caller's `EndTrans`.
    FinishLocal { tid: TransId, commit: bool },
    /// Count and announce a stranded participant's rollback (no local
    /// process state: the top-level process may be remote or gone).
    NoteAborted { tid: TransId },
    /// Purge this site's record (no one can need it any more).
    PurgeCoordLog { tid: TransId },
    /// Drop the commit fence: phase two has installed (and pushed)
    /// everywhere, so failover may proceed. Harmless for aborts.
    DropFence { tid: TransId },
    /// Announce completion of phase two (the `Committed` trace event on
    /// commit; silent for aborts).
    NoteCompleted { tid: TransId, commit: bool },
    /// Announce that recovery is re-driving a committed transaction.
    NoteRecoveryRedo { tid: TransId },
    /// Announce that recovery is rolling back an aborted one.
    NoteRecoveryAbort { tid: TransId },
    /// Requester: hand `site`, another of the storage sites, its part of
    /// the decision over `files`, the whole file list; answer with
    /// [`Input::DelegateAnswer`]. One per other storage site, emitted
    /// together with this site's own [`Effect::SendPrepare`]: a wave.
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
    /// Announce that the storage sites' durable yes votes committed `tid`:
    /// the commit point of a transaction no site marks, announced as the
    /// `CommitMark` a record born committed announces, by the first site to
    /// learn of the last yes.
    NoteCommitPoint { tid: TransId },
    /// Append this site's whole record and force it; the prepare record
    /// ahead of it in the same journal rides that force. Nothing was logged
    /// before it. Born `Committed` when this site is the only participant —
    /// the commit point — and `Voted` otherwise: a yes among the listed
    /// peers. Answer with [`Input::StatusLogged`].
    LogRecord {
        tid: TransId,
        files: Vec<FileListEntry>,
        status: TxnStatus,
    },
    /// Phase two at this site — its participant machine takes the commit or
    /// abort now, not from the queue. Answer with [`Input::FinishedHere`].
    FinishHere {
        tid: TransId,
        commit: bool,
        files: Vec<Fid>,
    },
    /// Reply to a remote requester: the outcome when this site decides
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
    /// group-commit barrier per touched volume but the home volume, whose
    /// journal will carry this site's record: there the prepare record
    /// rides the record's own force. Scheduling, not protocol — the machine
    /// sees only `ok`.
    StageAndLog {
        tid: TransId,
        coordinator: SiteId,
        files: Vec<Fid>,
    },
    /// This vote, for the coordinator machine.
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
    /// keeps the requester's work queued for a retry).
    Ack { tid: TransId, ok: bool },
    /// Recovery: ask the record of the site that voted on this prepare what
    /// became of `tid`; answer with [`Input::StatusResolved`].
    QueryStatus {
        tid: TransId,
        fid: Fid,
        coordinator: SiteId,
    },
    /// Recovery resolved to commit: install the logged intentions, forward
    /// them to replicas, purge the prepare log.
    InstallRecovered { tid: TransId, fid: Fid },
    /// Recovery resolved to abort (or the record was forgotten): truncate the
    /// prepare log; the scavenge pass reclaims orphaned shadow blocks.
    PurgePrepareLog { tid: TransId, fid: Fid },
}

impl Effect {
    /// The effect's kind, for coverage accounting.
    pub fn name(&self) -> &'static str {
        match self {
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
