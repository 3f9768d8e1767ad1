//! The coordinator's half of two-phase commit as a pure state machine.
//!
//! One [`CoordinatorSm`] lives at each site and tracks every transaction
//! that site coordinates, keyed by transaction id. The lifecycle of an
//! entry mirrors the journal: it is born `Unknown` when the start record is
//! requested, flips to `Committed`/`Aborted` exactly when the decision mark
//! is acknowledged durable, and dies when phase two completes everywhere
//! and the record is purged.
//!
//! **Commit where the data is.** A transaction whose requester (`tid.site`)
//! holds none of its files is decided by the sites that do, and the
//! requester logs nothing: it sends each storage site one delegation
//! naming every file. A storage site — a *delegate* — prepares itself
//! through its own participant machine and writes one record behind its
//! prepare record, one force for both. When it is the only participant the
//! record is born `Committed`: it installs and answers the outcome. With
//! peers the record is born `Voted` — "yes, among these listed peers" —
//! and the answer is that yes; the requester's phase two
//! follows the last one. The yes votes are the decision, as in Paxos Commit
//! with no coordinator log: all of them durable is commit, and a site with
//! no record has not voted and never will. So a delegate in doubt asks its
//! peers rather than presume abort. Its record outlives phase two until the
//! requester, which may have lost an answer and have to ask again, says it
//! may forget — which it says only once every delegate has acked its
//! install, and a delegate acks only once the install and its note of the
//! commit have landed.

use std::collections::{BTreeMap, BTreeSet};

use locus_types::{Fid, FileListEntry, SiteId, TransId, TxnStatus};

use super::{
    group_by_site, site_epochs, Effect, Input, ParticipantFaults, PrepareOutcome, ProtocolSm,
};

/// Whose record a coordinated transaction's entry mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The paper's coordinator: its own start record and forced mark.
    Logged,
    /// The requester, holding none of the files: it logs nothing, and the
    /// delegates' answers decide.
    Requester,
    /// A storage site the requester handed the decision; its record is the
    /// only one, or its yes among the listed peers.
    Delegate,
}

/// Where a coordinated transaction is in the protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CoordPhase {
    /// Waiting for the status-`Unknown` start record to reach the journal.
    LoggingStart,
    /// One prepare is out to every participant site (a delegate's to
    /// itself, the requester's delegations to every storage site);
    /// collecting votes.
    Preparing {
        /// Votes received so far, by site.
        votes: BTreeMap<SiteId, bool>,
        /// Requester: the sites whose answer was lost, asked instead.
        inquired: BTreeSet<SiteId>,
    },
    /// Decision made; waiting for the durable decision mark (a delegate's
    /// durable record).
    Marking { commit: bool },
    /// The decision mark failed to persist. The transaction stays here —
    /// undecided, fence up if the decision was commit — until recovery
    /// re-reads the journal and aborts it (the mark never made it, so the
    /// scan sees `Unknown`).
    MarkFailed,
    /// Decision durable; phase two queued, waiting on participant acks.
    PhaseTwo {
        commit: bool,
        pending: BTreeSet<SiteId>,
    },
    /// Delegate among peers: its yes is durable; waiting for phase two.
    Voted,
    /// Delegate among peers, in doubt: asking them; `yes` holds those that
    /// answered with a yes record.
    Asking { yes: BTreeSet<SiteId> },
    /// Delegate: committed and installed here. The record stays until the
    /// requester forgets it.
    Remembered,
}

/// Per-transaction coordinator state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CoordTxn {
    pub files: Vec<FileListEntry>,
    /// File list grouped by storage site, fids sorted and deduplicated —
    /// the unit of prepare and phase-two messaging; at a delegate, itself
    /// and its peers.
    pub participants: Vec<(SiteId, Vec<Fid>)>,
    /// Journal-mirrored status: what a `StatusInquiry` should answer.
    pub status: TxnStatus,
    pub phase: CoordPhase,
    pub role: Role,
}

impl CoordTxn {
    /// A delegate with peers: its yes is one of several.
    fn among_peers(&self) -> bool {
        self.role == Role::Delegate && self.participants.len() > 1
    }

    /// What a delegate can say of the transaction now: its outcome, or its
    /// durable yes among peers; nothing while its own vote is undecided.
    fn answer(&self) -> Option<bool> {
        match self.status {
            TxnStatus::Committed | TxnStatus::Voted => Some(true),
            TxnStatus::Aborted => Some(false),
            TxnStatus::Unknown => None,
        }
    }

    /// Records `from`'s vote while preparing; once every vote this site
    /// waits for is in, whether all were yes. A delegate waits for its own
    /// vote alone, anyone else for each participant's; a vote from anywhere
    /// else — a stray duplicate — does not count.
    fn tally(&mut self, site: SiteId, from: SiteId, ok: bool) -> Option<bool> {
        let (voter, voters) = if self.role == Role::Delegate {
            (from == site, 1)
        } else {
            let voter = self.participants.iter().any(|(s, _)| *s == from);
            (voter, self.participants.len())
        };
        let CoordPhase::Preparing { votes, .. } = &mut self.phase else {
            return None;
        };
        if !voter {
            return None;
        }
        votes.insert(from, ok);
        (votes.len() == voters).then(|| votes.values().all(|v| *v))
    }
}

/// A phase that is collecting votes, none in yet.
fn preparing() -> CoordPhase {
    CoordPhase::Preparing {
        votes: BTreeMap::new(),
        inquired: BTreeSet::new(),
    }
}

/// The coordinator protocol machine for one site.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CoordinatorSm {
    site: SiteId,
    txns: BTreeMap<TransId, CoordTxn>,
    faults: ParticipantFaults,
}

impl CoordinatorSm {
    pub fn new(site: SiteId) -> Self {
        Self::with_faults(site, ParticipantFaults::default())
    }

    /// A machine with a defence deliberately broken (see
    /// [`ParticipantFaults::skip_delegate_record`] and the two after it).
    pub fn with_faults(site: SiteId, faults: ParticipantFaults) -> Self {
        CoordinatorSm {
            site,
            txns: BTreeMap::new(),
            faults,
        }
    }

    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Whether this site coordinates `tid` for itself and has not decided
    /// it — the "coordinating here" leg of a participant's known-transaction
    /// check when the coordinator and participant share a site. A
    /// delegate's entry does not count: it exists only because the
    /// delegation arrived, and counting it would wave every delegated
    /// prepare through.
    pub fn coordinates_undecided(&self, tid: TransId) -> bool {
        self.txns
            .get(&tid)
            .is_some_and(|t| t.status == TxnStatus::Unknown && t.role != Role::Delegate)
    }

    /// Whether this site is a delegate of `tid` among peers: a phase-two
    /// message for `tid` is this machine's to take first, so that the
    /// record notes the outcome before the participant machine acts on it.
    pub fn holds_vote(&self, tid: TransId) -> bool {
        self.txns.get(&tid).is_some_and(CoordTxn::among_peers)
    }

    /// The journal-mirrored status for `tid`, if coordinated here.
    pub fn status_of(&self, tid: TransId) -> Option<TxnStatus> {
        self.txns.get(&tid).map(|t| t.status)
    }

    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Make the commit/abort decision once all votes are in — at a
    /// delegate, its own vote.
    fn decide(
        t: &mut CoordTxn,
        site: SiteId,
        tid: TransId,
        commit: bool,
        effects: &mut Vec<Effect>,
    ) {
        t.phase = CoordPhase::Marking { commit };
        if commit {
            // Fence first, then mark: if the mark lands, failover must
            // already be blocked, because between the mark and phase two
            // the committed bytes exist only in primaries' prepare logs. A
            // delegate's durable yes may be the last one, and so the mark.
            let fids: Vec<Fid> = t.files.iter().map(|f| f.fid).collect();
            effects.push(Effect::RaiseFences { tid, files: fids });
            effects.push(if t.role == Role::Delegate {
                Effect::LogRecord {
                    tid,
                    files: t.files.clone(),
                    status: if t.among_peers() {
                        TxnStatus::Voted
                    } else {
                        TxnStatus::Committed
                    },
                }
            } else {
                Effect::LogStatus {
                    tid,
                    status: TxnStatus::Committed,
                    critical: true,
                }
            });
        } else if t.role == Role::Delegate {
            // Presumed abort logs nothing, and the requester hears the no.
            Self::finish_here(t, site, tid, false, effects);
        } else {
            effects.push(Effect::LogStatus {
                tid,
                status: TxnStatus::Aborted,
                critical: true,
            });
        }
    }

    /// A delegate's outcome taken: phase two at this site, now.
    fn finish_here(
        t: &mut CoordTxn,
        site: SiteId,
        tid: TransId,
        commit: bool,
        effects: &mut Vec<Effect>,
    ) {
        let files = t
            .participants
            .iter()
            .find(|(s, _)| *s == site)
            .map(|(_, fids)| fids.clone())
            .unwrap_or_default();
        t.status = if commit {
            TxnStatus::Committed
        } else {
            TxnStatus::Aborted
        };
        t.phase = CoordPhase::PhaseTwo {
            commit,
            pending: BTreeSet::from([site]),
        };
        effects.push(Effect::FinishHere { tid, commit, files });
    }

    /// A delegate among peers learned the outcome — from the requester's
    /// phase two, or from its peers: note it in the record, lazily (an
    /// abort is purged once rolled back), and take it here.
    fn learned(
        t: &mut CoordTxn,
        site: SiteId,
        tid: TransId,
        commit: bool,
        effects: &mut Vec<Effect>,
    ) {
        let status = if commit {
            TxnStatus::Committed
        } else {
            TxnStatus::Aborted
        };
        if t.status != status {
            effects.push(Effect::LogStatus {
                tid,
                status,
                critical: false,
            });
        }
        Self::finish_here(t, site, tid, commit, effects);
    }

    /// A delegate among peers in doubt asks every peer what it holds.
    fn ask_peers(&mut self, tid: TransId, effects: &mut Vec<Effect>) {
        let site = self.site;
        let Some(t) = self.txns.get_mut(&tid) else {
            return;
        };
        if self.faults.skip_peer_inquiry {
            Self::learned(t, site, tid, false, effects);
            return;
        }
        t.phase = CoordPhase::Asking {
            yes: BTreeSet::new(),
        };
        for (peer, _) in t.participants.iter().filter(|(s, _)| *s != site) {
            effects.push(Effect::Inquire { tid, site: *peer });
        }
    }

    /// A delegate's commit installed here. Alone, it installed everywhere:
    /// the fence drops and the commit is announced. Either way the record
    /// waits for the requester.
    fn installed_here(&mut self, tid: TransId, effects: &mut Vec<Effect>) {
        let Some(t) = self.txns.get_mut(&tid) else {
            return;
        };
        let alone = !t.among_peers();
        let purge = if alone {
            self.faults.skip_delegate_record
        } else {
            self.faults.forget_before_all_installed
        };
        if purge {
            self.txns.remove(&tid);
            effects.push(Effect::PurgeCoordLog { tid });
        } else {
            t.phase = CoordPhase::Remembered;
        }
        if alone {
            effects.push(Effect::DropFence { tid });
            effects.push(Effect::NoteCompleted { tid, commit: true });
        }
    }

    /// The requester heard every delegate. Alone, the delegate decided and
    /// installed; among peers the yes votes are the commit point, and phase
    /// two follows.
    fn delegates_decided(&mut self, tid: TransId, commit: bool, effects: &mut Vec<Effect>) {
        let Some(t) = self.txns.get_mut(&tid) else {
            return;
        };
        if let [(site, _)] = t.participants[..] {
            self.txns.remove(&tid);
            effects.push(Effect::FinishLocal { tid, commit });
            if commit {
                effects.push(Effect::Forget { tid, site });
            }
            return;
        }
        t.status = if commit {
            TxnStatus::Committed
        } else {
            TxnStatus::Aborted
        };
        if commit {
            effects.push(Effect::NoteCommitPoint { tid });
        }
        effects.push(Effect::QueuePhase2 {
            tid,
            commit,
            participants: t.participants.clone(),
        });
        effects.push(Effect::FinishLocal { tid, commit });
        let pending = t.participants.iter().map(|(s, _)| *s).collect();
        t.phase = CoordPhase::PhaseTwo { commit, pending };
    }
}

impl ProtocolSm for CoordinatorSm {
    fn step(&mut self, input: &Input) -> Vec<Effect> {
        let mut effects = Vec::new();
        let site = self.site;
        match input {
            Input::CommitRequested { tid, files, .. } => {
                if files.is_empty() {
                    // Nothing touched any file: commit is trivially durable
                    // with no journal record, no prepares, no phase two.
                    effects.push(Effect::FinishLocal {
                        tid: *tid,
                        commit: true,
                    });
                    effects.push(Effect::NoteCompleted {
                        tid: *tid,
                        commit: true,
                    });
                } else {
                    let participants = group_by_site(files);
                    // Every file at other sites: they decide, by one
                    // delegation each, sent as one wave. Only the
                    // transaction's home delegates, since a delegate takes a
                    // forget from `tid.site` alone; a migrated top-level
                    // process keeps two-phase commit.
                    let delegate = tid.site == site && participants.iter().all(|(s, _)| *s != site);
                    let (phase, role) = if delegate {
                        for (to, _) in &participants {
                            effects.push(Effect::SendDelegate {
                                tid: *tid,
                                site: *to,
                                files: files.clone(),
                            });
                        }
                        (preparing(), Role::Requester)
                    } else {
                        effects.push(Effect::LogStart {
                            tid: *tid,
                            files: files.clone(),
                        });
                        (CoordPhase::LoggingStart, Role::Logged)
                    };
                    self.txns.insert(
                        *tid,
                        CoordTxn {
                            files: files.clone(),
                            participants,
                            status: TxnStatus::Unknown,
                            phase,
                            role,
                        },
                    );
                }
            }

            Input::StartLogged { tid, ok } => {
                let Some(t) = self.txns.get_mut(tid) else {
                    return effects;
                };
                if t.phase != CoordPhase::LoggingStart {
                    return effects;
                }
                if !*ok {
                    // The start record never became durable, so no prepare
                    // was ever sent: the caller sees the journal error and
                    // nothing needs undoing.
                    self.txns.remove(tid);
                    return effects;
                }
                // One prepare per participant site, all in this step: the
                // round is one wave, and the decision waits for every vote
                // instead of stopping at the first no.
                let epochs = site_epochs(&t.files);
                for (site, fids) in &t.participants {
                    effects.push(Effect::SendPrepare {
                        tid: *tid,
                        site: *site,
                        files: fids.clone(),
                        epoch: epochs.get(site).copied().unwrap_or(0),
                    });
                }
                t.phase = preparing();
            }

            Input::Vote {
                tid,
                site: from,
                ok,
            } => {
                // The requester's votes are its delegates' answers, never a
                // prepare's.
                let Some(t) = self.txns.get_mut(tid).filter(|t| t.role != Role::Requester) else {
                    return effects;
                };
                // A duplicate from a participant lands on its own entry.
                if let Some(all_ok) = t.tally(site, *from, *ok) {
                    Self::decide(t, site, *tid, all_ok, &mut effects);
                }
            }

            Input::StatusLogged { tid, ok } => {
                let Some(t) = self.txns.get_mut(tid) else {
                    return effects;
                };
                let CoordPhase::Marking { commit } = t.phase else {
                    return effects;
                };
                if !*ok {
                    // The decision never became durable. Stay undecided and
                    // keep any fence up: recovery will find `Unknown` in the
                    // journal and abort. Dropping the fence here would let a
                    // failover promote a replica while the outcome is open.
                    t.phase = CoordPhase::MarkFailed;
                    return effects;
                }
                if t.among_peers() {
                    // A durable yes among peers: say it, and wait.
                    t.status = TxnStatus::Voted;
                    t.phase = CoordPhase::Voted;
                    effects.push(Effect::Answer {
                        tid: *tid,
                        ok: true,
                    });
                    return effects;
                }
                if t.role == Role::Delegate {
                    // A delegate alone logs only commits.
                    Self::finish_here(t, site, *tid, true, &mut effects);
                    return effects;
                }
                t.status = if commit {
                    TxnStatus::Committed
                } else {
                    TxnStatus::Aborted
                };
                let pending: BTreeSet<SiteId> = t.participants.iter().map(|(s, _)| *s).collect();
                effects.push(Effect::QueuePhase2 {
                    tid: *tid,
                    commit,
                    participants: t.participants.clone(),
                });
                effects.push(Effect::FinishLocal { tid: *tid, commit });
                t.phase = CoordPhase::PhaseTwo { commit, pending };
            }

            Input::Phase2Ack { tid, site, ok } => {
                if let Some(t) = self.txns.get_mut(tid) {
                    if let CoordPhase::PhaseTwo {
                        ref mut pending, ..
                    } = t.phase
                    {
                        if *ok {
                            pending.remove(site);
                        }
                    }
                }
            }

            Input::Phase2Done { tid, commit } => {
                match self.txns.get(tid).map(|t| t.role) {
                    Some(Role::Delegate) => {
                        // A delegate's retried phase two: the record still
                        // answers the requester's inquiry until it forgets.
                        if *commit {
                            self.installed_here(*tid, &mut effects);
                        } else {
                            self.txns.remove(tid);
                        }
                    }
                    Some(Role::Requester) => {
                        // Every delegate has installed (or rolled back), so
                        // none needs its record for a peer any more.
                        let t = self.txns.remove(tid).expect("entry checked above");
                        if *commit {
                            for (site, _) in t.participants {
                                effects.push(Effect::Forget { tid: *tid, site });
                            }
                        }
                        effects.push(Effect::DropFence { tid: *tid });
                        effects.push(Effect::NoteCompleted {
                            tid: *tid,
                            commit: *commit,
                        });
                    }
                    Some(Role::Logged) | None => {
                        // Unconditional and idempotent: recovery can requeue
                        // work that a surviving pre-crash queue item also
                        // completes, so the second completion must still
                        // purge cleanly.
                        self.txns.remove(tid);
                        effects.push(Effect::PurgeCoordLog { tid: *tid });
                        effects.push(Effect::DropFence { tid: *tid });
                        effects.push(Effect::NoteCompleted {
                            tid: *tid,
                            commit: *commit,
                        });
                    }
                }
            }

            Input::TopologyChanged { reachable } => {
                // Abort every still-undecided transaction that stored data
                // at a now-unreachable site: its vote can never arrive, and
                // presumed abort lets the stranded participant roll back
                // unilaterally, so the only consistent decision is abort.
                // A delegated one is not this site's to decide.
                let doomed: Vec<TransId> = self
                    .txns
                    .iter()
                    .filter(|(_, t)| {
                        t.status == TxnStatus::Unknown
                            && t.role == Role::Logged
                            && t.files.iter().any(|f| !reachable.contains(&f.storage_site))
                    })
                    .map(|(tid, _)| *tid)
                    .collect();
                for tid in doomed {
                    let t = self.txns.get_mut(&tid).unwrap();
                    t.status = TxnStatus::Aborted;
                    let participants: Vec<(SiteId, Vec<Fid>)> = t
                        .participants
                        .iter()
                        .filter(|(s, _)| reachable.contains(s))
                        .cloned()
                        .collect();
                    let pending: BTreeSet<SiteId> = participants.iter().map(|(s, _)| *s).collect();
                    t.phase = CoordPhase::PhaseTwo {
                        commit: false,
                        pending,
                    };
                    effects.push(Effect::LogStatus {
                        tid,
                        status: TxnStatus::Aborted,
                        critical: false,
                    });
                    effects.push(Effect::QueuePhase2 {
                        tid,
                        commit: false,
                        participants,
                    });
                    effects.push(Effect::NoteAborted { tid });
                }
                // A delegate among peers that lost its requester may wait
                // for a phase two that never comes: it asks its peers.
                let stranded: Vec<TransId> = self
                    .txns
                    .iter()
                    .filter(|(tid, t)| {
                        t.phase == CoordPhase::Voted && !reachable.contains(&tid.site)
                    })
                    .map(|(tid, _)| *tid)
                    .collect();
                for tid in stranded {
                    self.ask_peers(tid, &mut effects);
                }
            }

            Input::CoordScan {
                tid,
                files,
                status,
                site: writer,
                installed,
            } => {
                let participants = group_by_site(files);
                let host = self.txns.get(tid).filter(|t| t.role == Role::Delegate);
                if *writer != site && (*status == TxnStatus::Voted || host.is_some()) {
                    // A delegate's record, carried here on a dead site's
                    // volume: never presumed aborted, and this site's own
                    // entry of the transaction stays. Its yes decides only
                    // where every vote is known — this site its one peer,
                    // its own yes durable; otherwise it waits in doubt for
                    // the requester's phase two.
                    let decided = *status == TxnStatus::Voted
                        && host.is_some_and(|t| t.status == TxnStatus::Voted)
                        && participants.iter().all(|(s, _)| s == writer || *s == site);
                    if decided {
                        effects.push(Effect::NoteCommitPoint { tid: *tid });
                        effects.push(Effect::LogStatus {
                            tid: *tid,
                            status: TxnStatus::Committed,
                            critical: false,
                        });
                    }
                    return effects;
                }
                if *status == TxnStatus::Voted && !self.faults.skip_peer_inquiry {
                    // This site's yes among peers: the outcome is theirs to
                    // tell — unless its own intentions are live already,
                    // which only a commit does.
                    let t = self.txns.entry(*tid).insert_entry(CoordTxn {
                        files: files.clone(),
                        participants,
                        status: TxnStatus::Voted,
                        phase: CoordPhase::Voted,
                        role: Role::Delegate,
                    });
                    if *installed {
                        Self::learned(t.into_mut(), site, *tid, true, &mut effects);
                    } else {
                        self.ask_peers(*tid, &mut effects);
                    }
                    return effects;
                }
                // An entry the machine still holds, having outlived the
                // crash, keeps its own classification: a migrated top-level
                // process's record has a delegate's shape too. A record of
                // another site's transaction never seen here, naming a file
                // of this site, is a delegate's: it waits for that site's
                // forget.
                let role = self.txns.get(tid).map_or(
                    if tid.site != site && participants.iter().any(|(s, _)| *s == site) {
                        Role::Delegate
                    } else {
                        Role::Logged
                    },
                    |t| t.role,
                );
                let mut t = CoordTxn {
                    files: files.clone(),
                    participants,
                    status: *status,
                    phase: CoordPhase::Voted,
                    role,
                };
                // A delegate redoes its own part only.
                let redo: Vec<(SiteId, Vec<Fid>)> = t
                    .participants
                    .iter()
                    .filter(|(s, _)| role != Role::Delegate || *s == site)
                    .cloned()
                    .collect();
                let pending: BTreeSet<SiteId> = redo.iter().map(|(s, _)| *s).collect();
                if *status == TxnStatus::Committed {
                    // The durable mark is the commit point: re-drive phase
                    // two until every participant installs.
                    t.phase = CoordPhase::PhaseTwo {
                        commit: true,
                        pending,
                    };
                    self.txns.insert(*tid, t);
                    effects.push(Effect::NoteRecoveryRedo { tid: *tid });
                    effects.push(Effect::QueuePhase2 {
                        tid: *tid,
                        commit: true,
                        participants: redo,
                    });
                } else {
                    // No durable commit mark ⇒ presumed (or explicit)
                    // abort. Rewrite the record so a StatusInquiry that
                    // races phase two answers consistently.
                    t.status = TxnStatus::Aborted;
                    t.role = Role::Logged;
                    t.phase = CoordPhase::PhaseTwo {
                        commit: false,
                        pending: t.participants.iter().map(|(s, _)| *s).collect(),
                    };
                    let participants = t.participants.clone();
                    self.txns.insert(*tid, t);
                    effects.push(Effect::NoteRecoveryAbort { tid: *tid });
                    effects.push(Effect::LogStatus {
                        tid: *tid,
                        status: TxnStatus::Aborted,
                        critical: false,
                    });
                    effects.push(Effect::QueuePhase2 {
                        tid: *tid,
                        commit: false,
                        participants,
                    });
                }
            }

            Input::DelegateAnswer {
                tid,
                site: from,
                outcome,
            } => {
                let Some(t) = self.txns.get_mut(tid) else {
                    return effects;
                };
                if !t.participants.iter().any(|(s, _)| s == from) {
                    return effects;
                }
                // An undecided record is a `Voted` one, a yes among peers (a
                // delegate alone logs only its commit).
                let yes = match outcome {
                    PrepareOutcome::Committed | PrepareOutcome::Undecided => Some(true),
                    PrepareOutcome::AbortedOrForgotten => Some(false),
                    PrepareOutcome::Unreachable => None,
                };
                if t.role == Role::Requester {
                    let CoordPhase::Preparing { inquired, .. } = &mut t.phase else {
                        return effects;
                    };
                    match yes {
                        Some(ok) => {
                            if let Some(commit) = t.tally(site, *from, ok) {
                                self.delegates_decided(*tid, commit, &mut effects);
                            }
                        }
                        // A missing answer is never a no: only that delegate
                        // knows, so ask it, and keep asking.
                        None if inquired.insert(*from) => {
                            effects.push(Effect::Inquire {
                                tid: *tid,
                                site: *from,
                            });
                        }
                        None => effects.push(Effect::QueueInquiry { tid: *tid }),
                    }
                    return effects;
                }
                let sites = t.participants.len();
                let decided = match &mut t.phase {
                    CoordPhase::Asking { yes: peers } => match (outcome, yes) {
                        // A committed peer has learned the outcome already.
                        (PrepareOutcome::Committed, _) => true,
                        (_, Some(true)) => {
                            peers.insert(*from);
                            if peers.len() + 1 < sites {
                                return effects;
                            }
                            // Every yes is durable, and this site may be the
                            // first to know.
                            effects.push(Effect::NoteCommitPoint { tid: *tid });
                            true
                        }
                        // No record: that peer never voted, and now never
                        // will.
                        (_, Some(false)) => false,
                        // A peer out of reach may hold the one missing
                        // vote: stay in doubt and ask again later.
                        (_, None) => {
                            t.phase = CoordPhase::Voted;
                            effects.push(Effect::QueueInquiry { tid: *tid });
                            return effects;
                        }
                    },
                    _ => return effects,
                };
                Self::learned(t, site, *tid, decided, &mut effects);
            }

            Input::RetryInquiry { tid } => {
                // Only while an answer is still awaited: one that arrived
                // since needs no question.
                match self
                    .txns
                    .get_mut(tid)
                    .map(|t| (&mut t.phase, &t.participants, t.role))
                {
                    Some((
                        CoordPhase::Preparing { votes, inquired },
                        participants,
                        Role::Requester,
                    )) => {
                        for (to, _) in participants {
                            if !votes.contains_key(to) {
                                inquired.insert(*to);
                                effects.push(Effect::Inquire {
                                    tid: *tid,
                                    site: *to,
                                });
                            }
                        }
                    }
                    Some((CoordPhase::Voted, ..)) => self.ask_peers(*tid, &mut effects),
                    _ => {}
                }
            }

            Input::DelegateReq { tid, files } => {
                if let Some(t) = self.txns.get(tid) {
                    // A repeated delegation is answered from the record.
                    if let Some(ok) = t.answer() {
                        effects.push(Effect::Answer { tid: *tid, ok });
                    }
                    return effects;
                }
                // The record names each storage site's files at the earliest
                // epoch the transaction used it.
                let epochs = site_epochs(files);
                let participants = group_by_site(files);
                let Some((_, own)) = participants.iter().find(|(s, _)| *s == site) else {
                    return effects;
                };
                let entries: Vec<FileListEntry> = participants
                    .iter()
                    .flat_map(|(s, fids)| {
                        fids.iter().map(|fid| FileListEntry {
                            fid: *fid,
                            storage_site: *s,
                            epoch: epochs[s],
                        })
                    })
                    .collect();
                // This site's own participant machine runs every defence a
                // prepare meets, and its yes rides the record's force.
                effects.push(Effect::SendPrepare {
                    tid: *tid,
                    site,
                    files: own.clone(),
                    epoch: epochs[&site],
                });
                self.txns.insert(
                    *tid,
                    CoordTxn {
                        files: entries,
                        participants,
                        status: TxnStatus::Unknown,
                        phase: preparing(),
                        role: Role::Delegate,
                    },
                );
            }

            Input::CommitReq { tid, .. } | Input::AbortReq { tid, .. } => {
                // Phase two at a delegate among peers: the requester, or a
                // peer that learned the outcome, tells it.
                let commit = matches!(input, Input::CommitReq { .. });
                let Some(t) = self.txns.get_mut(tid).filter(|t| t.among_peers()) else {
                    return effects;
                };
                if commit || t.status != TxnStatus::Committed {
                    Self::learned(t, site, *tid, commit, &mut effects);
                }
            }

            Input::FinishedHere { tid, ok } => {
                let Some(t) = self.txns.get_mut(tid) else {
                    return effects;
                };
                let CoordPhase::PhaseTwo { commit, .. } = t.phase else {
                    return effects;
                };
                let among_peers = t.among_peers();
                if !*ok {
                    // The install or rollback stalled here: the outcome
                    // stands. Among peers the phase-two message is nacked
                    // and retried; alone, the queue retries phase two as it
                    // would after a participant's nack.
                    if !among_peers {
                        effects.push(Effect::QueuePhase2 {
                            tid: *tid,
                            commit,
                            participants: t.participants.clone(),
                        });
                    }
                } else if commit {
                    self.installed_here(*tid, &mut effects);
                } else {
                    self.txns.remove(tid);
                    if among_peers {
                        effects.push(Effect::PurgeCoordLog { tid: *tid });
                        effects.push(Effect::DropFence { tid: *tid });
                    }
                }
                effects.push(Effect::Answer {
                    tid: *tid,
                    ok: commit,
                });
            }

            Input::Forget { from, tids } => {
                for tid in tids.iter().filter(|t| t.site == *from) {
                    let remembered = self.txns.get(tid).is_some_and(|t| {
                        t.role == Role::Delegate && t.phase == CoordPhase::Remembered
                    });
                    if remembered {
                        self.txns.remove(tid);
                        effects.push(Effect::PurgeCoordLog { tid: *tid });
                    }
                }
            }

            // Participant-side inputs: not ours, no transition.
            _ => {}
        }
        effects
    }
}

#[cfg(test)]
mod tests {
    use locus_types::VolumeId;

    use super::*;

    /// The delegate.
    const D: SiteId = SiteId(1);

    fn tid() -> TransId {
        TransId::new(SiteId(0), 5)
    }

    fn fids() -> Vec<Fid> {
        vec![Fid::new(VolumeId(D.0), 3)]
    }

    /// Steps `input` and every answer a compliant substrate gives the
    /// effects it asks for (the delegate's own yes, a durable mark, a clean
    /// install); returns the effects in order.
    fn run(sm: &mut CoordinatorSm, input: Input) -> Vec<Effect> {
        let mut all = Vec::new();
        let mut next = Some(input);
        while let Some(input) = next.take() {
            for e in sm.step(&input) {
                next = match e {
                    Effect::SendPrepare { tid, site, .. } => Some(Input::Vote {
                        tid,
                        site,
                        ok: true,
                    }),
                    Effect::LogRecord { tid, .. } => Some(Input::StatusLogged { tid, ok: true }),
                    Effect::FinishHere { tid, .. } => Some(Input::FinishedHere { tid, ok: true }),
                    _ => next,
                };
                all.push(e);
            }
        }
        all
    }

    fn entry(site: SiteId, epoch: u64) -> FileListEntry {
        FileListEntry {
            fid: Fid::new(VolumeId(site.0), 3),
            storage_site: site,
            epoch,
        }
    }

    fn delegation() -> Input {
        Input::DelegateReq {
            tid: tid(),
            files: vec![entry(D, 0)],
        }
    }

    fn names(effects: &[Effect]) -> Vec<&'static str> {
        effects.iter().map(Effect::name).collect()
    }

    fn committed_delegate(faults: ParticipantFaults) -> CoordinatorSm {
        let mut sm = CoordinatorSm::with_faults(D, faults);
        run(&mut sm, delegation());
        sm
    }

    #[test]
    fn a_delegation_commits_behind_one_record_and_answers_yes() {
        let mut sm = CoordinatorSm::new(D);
        let effects = run(&mut sm, delegation());
        assert_eq!(
            names(&effects),
            [
                "SendPrepare",
                "RaiseFences",
                "LogRecord",
                "FinishHere",
                "DropFence",
                "NoteCompleted",
                "Answer"
            ]
        );
        assert_eq!(
            effects.last(),
            Some(&Effect::Answer {
                tid: tid(),
                ok: true
            })
        );
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Committed));
        // Its own entry is no knowledge of the transaction.
        assert!(!sm.coordinates_undecided(tid()));
    }

    #[test]
    fn a_no_from_its_own_participant_aborts_without_a_record() {
        let mut sm = CoordinatorSm::new(D);
        assert_eq!(names(&sm.step(&delegation())), ["SendPrepare"]);
        let no = Input::Vote {
            tid: tid(),
            site: D,
            ok: false,
        };
        assert_eq!(
            sm.step(&no),
            [Effect::FinishHere {
                tid: tid(),
                commit: false,
                files: fids()
            }]
        );
        let done = Input::FinishedHere {
            tid: tid(),
            ok: true,
        };
        assert_eq!(
            sm.step(&done),
            [Effect::Answer {
                tid: tid(),
                ok: false
            }]
        );
        assert!(sm.is_empty());
    }

    #[test]
    fn a_repeated_delegation_is_answered_from_the_record() {
        let mut sm = committed_delegate(ParticipantFaults::default());
        assert_eq!(
            sm.step(&delegation()),
            [Effect::Answer {
                tid: tid(),
                ok: true
            }]
        );
    }

    #[test]
    fn a_partition_leaves_a_decided_delegation_alone() {
        let mut sm = committed_delegate(ParticipantFaults::default());
        let cut = Input::TopologyChanged { reachable: vec![D] };
        let stranded = Input::Stranded {
            tid: tid(),
            files: fids(),
        };
        assert!(sm.step(&cut).is_empty());
        assert!(sm.step(&stranded).is_empty());
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Committed));
    }

    #[test]
    fn phase_two_done_keeps_a_delegated_record() {
        let mut sm = committed_delegate(ParticipantFaults::default());
        let done = Input::Phase2Done {
            tid: tid(),
            commit: true,
        };
        assert_eq!(names(&sm.step(&done)), ["DropFence", "NoteCompleted"]);
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Committed));
        // So does recovery's: the scan knows it by its shape.
        let mut rebooted = CoordinatorSm::new(D);
        let scan = Input::CoordScan {
            tid: tid(),
            files: vec![FileListEntry {
                fid: fids()[0],
                storage_site: D,
                epoch: 0,
            }],
            status: TxnStatus::Committed,
            site: D,
            installed: false,
        };
        assert_eq!(
            names(&rebooted.step(&scan)),
            ["NoteRecoveryRedo", "QueuePhase2"]
        );
        assert_eq!(names(&rebooted.step(&done)), ["DropFence", "NoteCompleted"]);
        assert_eq!(rebooted.status_of(tid()), Some(TxnStatus::Committed));
    }

    #[test]
    fn the_requesters_forget_purges_it_and_no_one_elses_does() {
        let mut sm = committed_delegate(ParticipantFaults::default());
        let forget = |from| Input::Forget {
            from,
            tids: vec![tid()],
        };
        assert!(sm.step(&forget(SiteId(2))).is_empty());
        assert_eq!(
            sm.step(&forget(SiteId(0))),
            [Effect::PurgeCoordLog { tid: tid() }]
        );
        assert!(sm.is_empty());
        assert!(sm.step(&forget(SiteId(0))).is_empty());
    }

    #[test]
    fn the_skip_delegate_record_fault_purges_at_install() {
        let faults = ParticipantFaults {
            skip_delegate_record: true,
            ..ParticipantFaults::default()
        };
        let mut sm = CoordinatorSm::with_faults(D, faults);
        let effects = run(&mut sm, delegation());
        assert!(effects.contains(&Effect::PurgeCoordLog { tid: tid() }));
        assert!(sm.is_empty());
    }

    fn requested(sm: &mut CoordinatorSm, tid: TransId) -> Vec<Effect> {
        sm.step(&Input::commit_requested(tid, vec![entry(D, 4)]))
    }

    #[test]
    fn a_lost_answer_is_asked_about_and_never_read_as_a_no() {
        let mut sm = CoordinatorSm::new(SiteId(0));
        assert_eq!(
            requested(&mut sm, tid()),
            [Effect::SendDelegate {
                tid: tid(),
                site: D,
                files: vec![entry(D, 4)],
            }]
        );
        let lost = Input::DelegateAnswer {
            tid: tid(),
            site: D,
            outcome: PrepareOutcome::Unreachable,
        };
        let retry = Input::RetryInquiry { tid: tid() };
        assert_eq!(names(&sm.step(&lost)), ["Inquire"]);
        assert_eq!(names(&sm.step(&lost)), ["QueueInquiry"]);
        // Only the delegate decides: a partition changes nothing here.
        let cut = Input::TopologyChanged {
            reachable: vec![SiteId(0)],
        };
        assert!(sm.step(&cut).is_empty());
        assert_eq!(names(&sm.step(&retry)), ["Inquire"]);
        let committed = Input::DelegateAnswer {
            tid: tid(),
            site: D,
            outcome: PrepareOutcome::Committed,
        };
        assert_eq!(
            sm.step(&committed),
            [
                Effect::FinishLocal {
                    tid: tid(),
                    commit: true
                },
                Effect::Forget {
                    tid: tid(),
                    site: D
                }
            ]
        );
        // A retry queued before the answer came asks nothing.
        assert!(sm.step(&retry).is_empty());
    }

    #[test]
    fn a_migrated_requester_keeps_two_phase_commit() {
        let mut sm = CoordinatorSm::new(SiteId(0));
        let migrated = TransId::new(SiteId(2), 5);
        assert_eq!(names(&requested(&mut sm, migrated)), ["LogStart"]);
    }

    /// A top-level process that migrated to D and wrote only files at D
    /// coordinates there, and its record has a delegate's shape. A crash
    /// between the mark and phase two must not make recovery wait for a
    /// forget nobody sends: the machine, which outlives the crash, knows
    /// the record is its own.
    #[test]
    fn a_migrated_coordinators_record_is_purged_after_a_crash() {
        let mut sm = CoordinatorSm::new(D);
        assert_eq!(names(&requested(&mut sm, tid())), ["LogStart"]);
        let logged = Input::StartLogged {
            tid: tid(),
            ok: true,
        };
        let yes = Input::Vote {
            tid: tid(),
            site: D,
            ok: true,
        };
        let marked = Input::StatusLogged {
            tid: tid(),
            ok: true,
        };
        assert_eq!(names(&sm.step(&logged)), ["SendPrepare"]);
        assert_eq!(names(&sm.step(&yes)), ["RaiseFences", "LogStatus"]);
        assert_eq!(names(&sm.step(&marked)), ["QueuePhase2", "FinishLocal"]);
        // The crash; recovery scans the journal.
        let scan = Input::CoordScan {
            tid: tid(),
            files: vec![FileListEntry {
                fid: fids()[0],
                storage_site: D,
                epoch: 4,
            }],
            status: TxnStatus::Committed,
            site: D,
            installed: false,
        };
        assert_eq!(names(&sm.step(&scan)), ["NoteRecoveryRedo", "QueuePhase2"]);
        let done = Input::Phase2Done {
            tid: tid(),
            commit: true,
        };
        assert_eq!(
            names(&sm.step(&done)),
            ["PurgeCoordLog", "DropFence", "NoteCompleted"]
        );
        assert_eq!(sm.status_of(tid()), None);
    }

    // ----- Delegates among peers -----------------------------------------

    /// The second delegate.
    const E: SiteId = SiteId(2);

    fn both() -> Vec<FileListEntry> {
        vec![entry(D, 0), entry(E, 0)]
    }

    fn answer(site: SiteId, outcome: PrepareOutcome) -> Input {
        Input::DelegateAnswer {
            tid: tid(),
            site,
            outcome,
        }
    }

    #[test]
    fn a_requester_holding_no_file_delegates_to_every_site_and_logs_nothing() {
        let mut sm = CoordinatorSm::new(SiteId(0));
        let sent = sm.step(&Input::commit_requested(tid(), both()));
        let to = |site| Effect::SendDelegate {
            tid: tid(),
            site,
            files: both(),
        };
        assert_eq!(sent, [to(D), to(E)]);
        // A yes record found by an inquiry is a yes: the last one is the
        // commit point, and phase two follows.
        assert!(sm.step(&answer(D, PrepareOutcome::Committed)).is_empty());
        assert_eq!(
            names(&sm.step(&answer(E, PrepareOutcome::Undecided))),
            ["NoteCommitPoint", "QueuePhase2", "FinishLocal"]
        );
        for site in [D, E] {
            sm.step(&Input::Phase2Ack {
                tid: tid(),
                site,
                ok: true,
            });
        }
        let done = Input::Phase2Done {
            tid: tid(),
            commit: true,
        };
        // Every delegate installed, so each may forget; nothing to purge.
        assert_eq!(
            sm.step(&done),
            [
                Effect::Forget {
                    tid: tid(),
                    site: D
                },
                Effect::Forget {
                    tid: tid(),
                    site: E
                },
                Effect::DropFence { tid: tid() },
                Effect::NoteCompleted {
                    tid: tid(),
                    commit: true
                }
            ]
        );
        assert!(sm.is_empty());
    }

    #[test]
    fn one_no_among_delegates_aborts_all_of_them() {
        let mut sm = CoordinatorSm::new(SiteId(0));
        sm.step(&Input::commit_requested(tid(), both()));
        sm.step(&answer(D, PrepareOutcome::Committed));
        let effects = sm.step(&answer(E, PrepareOutcome::AbortedOrForgotten));
        assert_eq!(
            effects,
            [
                Effect::QueuePhase2 {
                    tid: tid(),
                    commit: false,
                    participants: vec![(D, fids()), (E, vec![Fid::new(VolumeId(E.0), 3)])],
                },
                Effect::FinishLocal {
                    tid: tid(),
                    commit: false
                }
            ]
        );
        let done = Input::Phase2Done {
            tid: tid(),
            commit: false,
        };
        assert_eq!(names(&sm.step(&done)), ["DropFence", "NoteCompleted"]);
    }

    #[test]
    fn a_lost_vote_is_asked_about_and_the_retry_asks_only_the_silent() {
        let mut sm = CoordinatorSm::new(SiteId(0));
        sm.step(&Input::commit_requested(tid(), both()));
        sm.step(&answer(D, PrepareOutcome::Committed));
        let lost = answer(E, PrepareOutcome::Unreachable);
        assert_eq!(
            sm.step(&lost),
            [Effect::Inquire {
                tid: tid(),
                site: E
            }]
        );
        assert_eq!(names(&sm.step(&lost)), ["QueueInquiry"]);
        assert_eq!(
            sm.step(&Input::RetryInquiry { tid: tid() }),
            [Effect::Inquire {
                tid: tid(),
                site: E
            }]
        );
        assert_eq!(
            names(&sm.step(&answer(E, PrepareOutcome::Undecided))),
            ["NoteCommitPoint", "QueuePhase2", "FinishLocal"]
        );
    }

    /// Site D's machine after its own yes among peers is durable.
    fn voted() -> CoordinatorSm {
        let mut sm = CoordinatorSm::new(D);
        let req = Input::DelegateReq {
            tid: tid(),
            files: both(),
        };
        let effects = run(&mut sm, req);
        assert_eq!(
            names(&effects),
            ["SendPrepare", "RaiseFences", "LogRecord", "Answer"]
        );
        assert!(effects.contains(&Effect::LogRecord {
            tid: tid(),
            files: both(),
            status: TxnStatus::Voted
        }));
        assert_eq!(
            effects[0],
            Effect::SendPrepare {
                tid: tid(),
                site: D,
                files: fids(),
                epoch: 0
            }
        );
        assert!(sm.holds_vote(tid()));
        sm
    }

    #[test]
    fn a_delegate_among_peers_forces_a_yes_record_and_answers_yes() {
        let mut sm = voted();
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Voted));
        // A repeated delegation hears the same yes.
        let again = Input::DelegateReq {
            tid: tid(),
            files: both(),
        };
        assert_eq!(
            sm.step(&again),
            [Effect::Answer {
                tid: tid(),
                ok: true
            }]
        );
    }

    #[test]
    fn phase_two_notes_the_commit_installs_and_waits_for_the_forget() {
        let mut sm = voted();
        let commit = Input::CommitReq {
            tid: tid(),
            files: fids(),
        };
        assert_eq!(
            sm.step(&commit),
            [
                Effect::LogStatus {
                    tid: tid(),
                    status: TxnStatus::Committed,
                    critical: false
                },
                Effect::FinishHere {
                    tid: tid(),
                    commit: true,
                    files: fids()
                }
            ]
        );
        // Installed here, not everywhere: the requester drops the fence.
        let installed = Input::FinishedHere {
            tid: tid(),
            ok: true,
        };
        assert_eq!(names(&sm.step(&installed)), ["Answer"]);
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Committed));
        let forget = Input::Forget {
            from: SiteId(0),
            tids: vec![tid()],
        };
        assert_eq!(sm.step(&forget), [Effect::PurgeCoordLog { tid: tid() }]);
        assert!(sm.is_empty());
    }

    #[test]
    fn an_abort_rolls_back_and_purges_the_yes() {
        let mut sm = voted();
        let abort = Input::AbortReq {
            tid: tid(),
            files: fids(),
        };
        assert_eq!(names(&sm.step(&abort)), ["LogStatus", "FinishHere"]);
        let rolled_back = Input::FinishedHere {
            tid: tid(),
            ok: true,
        };
        assert_eq!(
            names(&sm.step(&rolled_back)),
            ["PurgeCoordLog", "DropFence", "Answer"]
        );
        assert!(sm.is_empty());
    }

    #[test]
    fn a_stranded_delegate_asks_its_peers_and_commits_on_their_yes() {
        let mut sm = voted();
        // Still in reach of the requester: nothing to ask.
        let near = Input::TopologyChanged {
            reachable: vec![SiteId(0), D],
        };
        assert!(sm.step(&near).is_empty());
        let cut = Input::TopologyChanged {
            reachable: vec![D, E],
        };
        assert_eq!(
            sm.step(&cut),
            [Effect::Inquire {
                tid: tid(),
                site: E
            }]
        );
        assert_eq!(
            names(&sm.step(&answer(E, PrepareOutcome::Undecided))),
            ["NoteCommitPoint", "LogStatus", "FinishHere"]
        );
    }

    #[test]
    fn a_peer_with_no_record_aborts_and_an_unreachable_one_keeps_it_in_doubt() {
        let mut sm = voted();
        let cut = Input::TopologyChanged { reachable: vec![D] };
        sm.step(&cut);
        assert_eq!(
            names(&sm.step(&answer(E, PrepareOutcome::Unreachable))),
            ["QueueInquiry"]
        );
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Voted));
        assert_eq!(
            names(&sm.step(&Input::RetryInquiry { tid: tid() })),
            ["Inquire"]
        );
        assert_eq!(
            sm.step(&answer(E, PrepareOutcome::AbortedOrForgotten)),
            [
                Effect::LogStatus {
                    tid: tid(),
                    status: TxnStatus::Aborted,
                    critical: false
                },
                Effect::FinishHere {
                    tid: tid(),
                    commit: false,
                    files: fids()
                }
            ]
        );
    }

    fn scanned(status: TxnStatus, site: SiteId) -> Input {
        Input::CoordScan {
            tid: tid(),
            files: both(),
            status,
            site,
            installed: false,
        }
    }

    #[test]
    fn a_recovered_yes_asks_its_peers_and_never_presumes_abort() {
        let mut sm = CoordinatorSm::new(D);
        assert_eq!(
            sm.step(&scanned(TxnStatus::Voted, D)),
            [Effect::Inquire {
                tid: tid(),
                site: E
            }]
        );
        assert!(sm.holds_vote(tid()));
        // The fault restores the presumption.
        let faults = ParticipantFaults {
            skip_peer_inquiry: true,
            ..ParticipantFaults::default()
        };
        let mut sm = CoordinatorSm::with_faults(D, faults);
        assert_eq!(
            names(&sm.step(&scanned(TxnStatus::Voted, D))),
            ["NoteRecoveryAbort", "LogStatus", "QueuePhase2"]
        );
    }

    #[test]
    fn a_recovered_yes_whose_install_is_live_commits_without_asking() {
        // D installed, then crashed before the lazy note of the commit hit
        // its journal; a peer may have forgotten the transaction since. Its
        // own live intentions are the proof: no question, no abort.
        let mut sm = CoordinatorSm::new(D);
        let scan = Input::CoordScan {
            tid: tid(),
            files: both(),
            status: TxnStatus::Voted,
            site: D,
            installed: true,
        };
        assert_eq!(
            sm.step(&scan),
            [
                Effect::LogStatus {
                    tid: tid(),
                    status: TxnStatus::Committed,
                    critical: false
                },
                Effect::FinishHere {
                    tid: tid(),
                    commit: true,
                    files: fids()
                }
            ]
        );
        let finished = Input::FinishedHere {
            tid: tid(),
            ok: true,
        };
        assert_eq!(names(&sm.step(&finished)), ["Answer"]);
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Committed));
    }

    #[test]
    fn a_carried_yes_commits_at_its_one_peer_that_voted_yes() {
        // E's volume, carried to D after E died, holds E's yes. A site that
        // holds no yes of its own cannot tell: it waits.
        let carried = scanned(TxnStatus::Voted, E);
        assert!(CoordinatorSm::new(D).step(&carried).is_empty());
        let mut sm = voted();
        assert_eq!(
            sm.step(&carried),
            [
                Effect::NoteCommitPoint { tid: tid() },
                Effect::LogStatus {
                    tid: tid(),
                    status: TxnStatus::Committed,
                    critical: false
                }
            ]
        );
        // D's own yes waits for phase two.
        assert!(sm.holds_vote(tid()));
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Voted));
    }

    #[test]
    fn a_carried_record_is_read_by_its_status_never_by_its_shape() {
        // A top-level process that migrated to E wrote files at D and E;
        // E's start record — a delegate's shape — is carried to D. No mark
        // is on it: presumed abort, as for any coordinator's record.
        let start = scanned(TxnStatus::Unknown, E);
        assert_eq!(
            names(&CoordinatorSm::new(D).step(&start)),
            ["NoteRecoveryAbort", "LogStatus", "QueuePhase2"]
        );
        // Whatever a peer's carried record says, D's own yes stays as it is.
        let mut sm = voted();
        for status in [TxnStatus::Unknown, TxnStatus::Committed, TxnStatus::Aborted] {
            assert!(sm.step(&scanned(status, E)).is_empty());
            assert_eq!(sm.status_of(tid()), Some(TxnStatus::Voted));
        }
    }

    #[test]
    fn the_forget_before_all_installed_fault_purges_at_install() {
        let faults = ParticipantFaults {
            forget_before_all_installed: true,
            ..ParticipantFaults::default()
        };
        let mut sm = CoordinatorSm::with_faults(D, faults);
        run(
            &mut sm,
            Input::DelegateReq {
                tid: tid(),
                files: both(),
            },
        );
        let commit = Input::CommitReq {
            tid: tid(),
            files: fids(),
        };
        let effects = run(&mut sm, commit);
        assert!(effects.contains(&Effect::PurgeCoordLog { tid: tid() }));
        assert!(sm.is_empty());
    }
}
