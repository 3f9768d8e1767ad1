//! The commit rule as a pure state machine: a transaction's storage sites
//! decide it by their durable yes votes.
//!
//! One [`CoordinatorSm`] lives at each site. It holds the transactions this
//! site's top-level processes *requested* — the site where `EndTrans` ran —
//! and this site's *vote* on each transaction that stores a file here.
//!
//! **One rule.** The requester sends every other storage site one
//! delegation naming every file, and takes its own part, when it holds a
//! file, as a step of this machine with no message: one wave either way. A
//! storage site prepares itself through its own participant machine and
//! writes one record behind its prepare record, one force for both. When it
//! is the only participant the record is born `Committed`: it installs and
//! answers the outcome. With peers the record is born `Voted` — "yes, among
//! these listed peers" — and the answer is that yes; the requester's phase
//! two follows the last one, at its own site as a step of this machine and
//! riding its next message to each other storage site. The yes votes are
//! the decision,
//! as in Paxos Commit with no coordinator log: all of them durable is
//! commit, and a site with no record has not voted and never will. So a
//! site in doubt asks its peers rather than presume abort — and so does one
//! whose locks a request needs before that phase two arrives
//! ([`Input::Wanted`]). Its record outlives phase two until the requester,
//! which may have lost an answer and have to ask again, says it may forget
//! — which it says only once every storage site has acked its install, and
//! a site acks only once the install and its note of the commit have
//! landed; the requester's own note travels with no message, so its forget
//! leaves only once that note has landed. A record the requester's own site
//! holds waits for no message: the machine purges it itself.

use std::collections::{BTreeMap, BTreeSet};

use locus_types::{Fid, FileListEntry, SiteId, TransId, TxnStatus};

use super::{
    group_by_site, site_epochs, Effect, Input, ParticipantFaults, PrepareOutcome, ProtocolSm,
};

/// Where this site's vote on a transaction is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CoordPhase {
    /// This site's prepare is out to its own participant machine.
    Preparing,
    /// Its yes is in; waiting for the record that holds it to be durable.
    Marking,
    /// The record failed to persist. The vote stays here — undecided, fence
    /// up — until recovery re-reads the journal: a record that landed is
    /// found there, one that did not is no vote.
    MarkFailed,
    /// Among peers: its yes is durable; waiting for phase two.
    Voted,
    /// Among peers, in doubt: asking them; `yes` holds those that answered
    /// with a yes record.
    Asking { yes: BTreeSet<SiteId> },
    /// The outcome is being taken here: the install or the rollback.
    PhaseTwo { commit: bool },
    /// Committed and installed here. The record stays until it is
    /// forgotten.
    Remembered,
}

/// This site's vote on one transaction, mirroring its journal record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CoordTxn {
    /// The whole file list, each storage site's files at the earliest epoch
    /// the transaction used it: what the record names.
    files: Vec<FileListEntry>,
    /// The file list grouped by storage site: this site and its peers.
    participants: Vec<(SiteId, Vec<Fid>)>,
    /// Journal-mirrored status: what a `StatusInquiry` should answer.
    status: TxnStatus,
    phase: CoordPhase,
    /// No forget will come for the record: the requester is this site, or
    /// recovery found the record after the machine had let it go.
    no_forget: bool,
}

impl CoordTxn {
    /// Whether this site's yes is one of several.
    fn among_peers(&self) -> bool {
        self.participants.len() > 1
    }

    /// What the record can say of the transaction now: its outcome, or its
    /// durable yes among peers; nothing while the vote is undecided.
    fn answer(&self) -> Option<bool> {
        match self.status {
            TxnStatus::Committed | TxnStatus::Voted => Some(true),
            TxnStatus::Aborted => Some(false),
            TxnStatus::Unknown => None,
        }
    }
}

/// Where a requested transaction is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum RequestPhase {
    /// Collecting every storage site's answer.
    Collecting {
        /// Answers received so far, by site.
        votes: BTreeMap<SiteId, bool>,
        /// The sites whose answer was lost, asked instead.
        inquired: BTreeSet<SiteId>,
    },
    /// Decided among peers; phase two is on its way to them.
    PhaseTwo,
}

/// A transaction a top-level process at this site asked to commit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Request {
    /// The file list grouped by storage site: the voters.
    participants: Vec<(SiteId, Vec<Fid>)>,
    phase: RequestPhase,
}

/// The commit machine for one site.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CoordinatorSm {
    site: SiteId,
    /// The transactions this site requested.
    requests: BTreeMap<TransId, Request>,
    /// This site's vote on each transaction storing a file here.
    votes: BTreeMap<TransId, CoordTxn>,
    faults: ParticipantFaults,
}

impl CoordinatorSm {
    pub fn new(site: SiteId) -> Self {
        Self::with_faults(site, ParticipantFaults::default())
    }

    /// A machine with a defence deliberately broken (see
    /// [`ParticipantFaults::skip_delegate_record`] and the ones after it).
    pub fn with_faults(site: SiteId, faults: ParticipantFaults) -> Self {
        CoordinatorSm {
            site,
            requests: BTreeMap::new(),
            votes: BTreeMap::new(),
            faults,
        }
    }

    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Whether this site holds a yes on `tid` among peers: a phase-two
    /// message for `tid` is this machine's to take first, so that the
    /// record notes the outcome before the participant machine acts on it.
    pub fn holds_vote(&self, tid: TransId) -> bool {
        self.votes.get(&tid).is_some_and(CoordTxn::among_peers)
    }

    /// Whether this site requested `tid` and is still collecting its votes:
    /// the "requested here" leg of its own participant's known-transaction
    /// check, for a file the transaction used here but left nothing to
    /// commit in. Only while undecided: after the decision nothing here
    /// prepares it again.
    pub fn requests_undecided(&self, tid: TransId) -> bool {
        self.requests
            .get(&tid)
            .is_some_and(|r| matches!(r.phase, RequestPhase::Collecting { .. }))
    }

    /// The journal-mirrored status of this site's vote on `tid`, if any.
    pub fn status_of(&self, tid: TransId) -> Option<TxnStatus> {
        self.votes.get(&tid).map(|t| t.status)
    }

    pub fn is_empty(&self) -> bool {
        self.requests.is_empty() && self.votes.is_empty()
    }

    /// This site takes its part in `tid`: its own participant machine runs
    /// every defence a prepare meets, and its yes rides the record's force.
    fn prepare_here(
        &mut self,
        tid: TransId,
        files: &[FileListEntry],
        no_forget: bool,
        effects: &mut Vec<Effect>,
    ) {
        let site = self.site;
        let epochs = site_epochs(files);
        let participants = group_by_site(files);
        let Some((_, own)) = participants.iter().find(|(s, _)| *s == site) else {
            return;
        };
        effects.push(Effect::SendPrepare {
            tid,
            site,
            files: own.clone(),
            epoch: epochs[&site],
        });
        // The record names each storage site's files at the earliest epoch
        // the transaction used it.
        let files = participants
            .iter()
            .flat_map(|(s, fids)| {
                fids.iter().map(|fid| FileListEntry {
                    fid: *fid,
                    storage_site: *s,
                    epoch: epochs[s],
                })
            })
            .collect();
        let vote = CoordTxn {
            files,
            participants,
            status: TxnStatus::Unknown,
            phase: CoordPhase::Preparing,
            no_forget,
        };
        self.votes.insert(tid, vote);
    }

    /// The outcome taken here: phase two at this site, now.
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
        t.phase = CoordPhase::PhaseTwo { commit };
        effects.push(Effect::FinishHere { tid, commit, files });
    }

    /// This site learned the outcome — from phase two, its peers, or its
    /// own record at recovery: note it in the record, lazily (an abort is
    /// purged once rolled back), and take it here.
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
            effects.push(Effect::LogStatus { tid, status });
        }
        Self::finish_here(t, site, tid, commit, effects);
    }

    /// A site in doubt asks every peer what it holds.
    fn ask_peers(&mut self, tid: TransId, effects: &mut Vec<Effect>) {
        let site = self.site;
        let Some(t) = self.votes.get_mut(&tid) else {
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

    /// Tells the requester this site's answer: a step of this machine when
    /// it requested `tid`, a reply otherwise.
    fn tell_requester(&mut self, tid: TransId, ok: bool, effects: &mut Vec<Effect>) {
        if self.requests.contains_key(&tid) {
            self.take_answer(tid, self.site, Some(ok), effects);
        } else {
            effects.push(Effect::Answer { tid, ok });
        }
    }

    /// A commit installed here. Alone, it installed everywhere: the fence
    /// drops and the commit is announced. The record goes at once when no
    /// forget will come and no peer can still need it; otherwise it waits.
    fn installed_here(&mut self, tid: TransId, effects: &mut Vec<Effect>) {
        let Some(t) = self.votes.get_mut(&tid) else {
            return;
        };
        let alone = !t.among_peers();
        let purge = if t.no_forget {
            alone || !self.requests.contains_key(&tid)
        } else if alone {
            self.faults.skip_delegate_record
        } else {
            self.faults.forget_before_all_installed
        };
        if purge {
            self.votes.remove(&tid);
            effects.push(Effect::PurgeCoordLog { tid });
        } else {
            t.phase = CoordPhase::Remembered;
        }
        if alone {
            effects.push(Effect::DropFence { tid });
            effects.push(Effect::NoteCompleted { tid, commit: true });
        }
    }

    /// A remembered record of `tid` is no longer needed by anyone.
    fn forget(&mut self, tid: TransId, effects: &mut Vec<Effect>) {
        let remembered = self
            .votes
            .get(&tid)
            .is_some_and(|t| t.phase == CoordPhase::Remembered);
        if remembered {
            self.votes.remove(&tid);
            effects.push(Effect::PurgeCoordLog { tid });
        }
    }

    /// The requester takes `from`'s answer: its vote, or `None` when the
    /// answer was lost — never a no: only that site knows, so it is asked,
    /// and asked again.
    fn take_answer(
        &mut self,
        tid: TransId,
        from: SiteId,
        yes: Option<bool>,
        effects: &mut Vec<Effect>,
    ) {
        let Some(r) = self.requests.get_mut(&tid) else {
            return;
        };
        if !r.participants.iter().any(|(s, _)| *s == from) {
            return;
        }
        let RequestPhase::Collecting { votes, inquired } = &mut r.phase else {
            return;
        };
        match yes {
            Some(ok) => {
                votes.insert(from, ok);
                if votes.len() == r.participants.len() {
                    let commit = votes.values().all(|v| *v);
                    self.decided(tid, commit, effects);
                }
            }
            None if inquired.insert(from) => effects.push(Effect::Inquire { tid, site: from }),
            None => effects.push(Effect::QueueInquiry { tid }),
        }
    }

    /// The requester heard every storage site. Alone, the site decided and
    /// installed; among peers the yes votes are the commit point, and phase
    /// two follows.
    fn decided(&mut self, tid: TransId, commit: bool, effects: &mut Vec<Effect>) {
        let Some(r) = self.requests.get_mut(&tid) else {
            return;
        };
        if let [(site, _)] = r.participants[..] {
            self.requests.remove(&tid);
            effects.push(Effect::FinishLocal { tid, commit });
            if commit && site != self.site {
                effects.push(Effect::Forget { tid, site });
            }
            return;
        }
        if commit {
            effects.push(Effect::NoteCommitPoint { tid });
        }
        // This site's own yes learns the outcome as a step of its own: its
        // phase two here needs no message.
        let site = self.site;
        let undecided =
            |t: &&mut CoordTxn| matches!(t.phase, CoordPhase::Voted | CoordPhase::Asking { .. });
        if let Some(t) = self.votes.get_mut(&tid).filter(undecided) {
            Self::learned(t, site, tid, commit, effects);
        }
        let others = r.participants.iter().filter(|(s, _)| *s != site);
        effects.push(Effect::QueuePhase2 {
            tid,
            commit,
            participants: others.cloned().collect(),
        });
        effects.push(Effect::FinishLocal { tid, commit });
        r.phase = RequestPhase::PhaseTwo;
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
                    return effects;
                }
                // One wave: a delegation to every other storage site, and
                // this site's own part as a step of this machine.
                let participants = group_by_site(files);
                let mut here = false;
                for (to, _) in &participants {
                    if *to == site {
                        here = true;
                    } else {
                        effects.push(Effect::SendDelegate {
                            tid: *tid,
                            site: *to,
                            files: files.clone(),
                        });
                    }
                }
                let phase = RequestPhase::Collecting {
                    votes: BTreeMap::new(),
                    inquired: BTreeSet::new(),
                };
                self.requests.insert(
                    *tid,
                    Request {
                        participants,
                        phase,
                    },
                );
                if here {
                    self.prepare_here(*tid, files, true, &mut effects);
                }
            }

            // Inert: no coordinator log is started any more. The input stays
            // only because `benchmark/src/probes.rs` still names it; the next
            // `benchmark` PR deletes it there and here.
            Input::StartLogged { .. } => {}

            Input::Vote {
                tid,
                site: from,
                ok,
            } => {
                // Only this site's own participant votes here.
                let Some(t) = self
                    .votes
                    .get_mut(tid)
                    .filter(|t| *from == site && t.phase == CoordPhase::Preparing)
                else {
                    return effects;
                };
                if !*ok {
                    // Presumed abort logs nothing, and the requester hears
                    // the no.
                    Self::finish_here(t, site, *tid, false, &mut effects);
                    return effects;
                }
                // Fence first, then the record: it may be the last yes, and
                // so the commit point, and between it and phase two the
                // committed bytes exist only in primaries' prepare logs.
                t.phase = CoordPhase::Marking;
                let fids: Vec<Fid> = t.files.iter().map(|f| f.fid).collect();
                effects.push(Effect::RaiseFences {
                    tid: *tid,
                    files: fids,
                });
                effects.push(Effect::LogRecord {
                    tid: *tid,
                    files: t.files.clone(),
                    status: if t.among_peers() {
                        TxnStatus::Voted
                    } else {
                        TxnStatus::Committed
                    },
                });
            }

            Input::StatusLogged { tid, ok } => {
                let Some(t) = self
                    .votes
                    .get_mut(tid)
                    .filter(|t| t.phase == CoordPhase::Marking)
                else {
                    return effects;
                };
                if !*ok {
                    t.phase = CoordPhase::MarkFailed;
                } else if t.among_peers() {
                    // A durable yes among peers: say it, and wait.
                    t.status = TxnStatus::Voted;
                    t.phase = CoordPhase::Voted;
                    self.tell_requester(*tid, true, &mut effects);
                } else {
                    // Alone, the record was the commit.
                    Self::finish_here(t, site, *tid, true, &mut effects);
                }
            }

            Input::Phase2Done { tid, commit } => {
                if let Some(r) = self.requests.remove(tid) {
                    // Every storage site has installed (or rolled back), so
                    // none needs its record for a peer any more.
                    if *commit {
                        for (to, _) in r.participants {
                            if to == site {
                                self.forget(*tid, &mut effects);
                            } else {
                                effects.push(Effect::Forget {
                                    tid: *tid,
                                    site: to,
                                });
                            }
                        }
                    }
                    effects.push(Effect::DropFence { tid: *tid });
                    effects.push(Effect::NoteCompleted {
                        tid: *tid,
                        commit: *commit,
                    });
                } else if *commit {
                    // A lone site's retried install: the record still
                    // answers the requester's inquiry until it forgets.
                    self.installed_here(*tid, &mut effects);
                } else {
                    self.votes.remove(tid);
                }
            }

            Input::TopologyChanged { reachable } => {
                // A yes among peers whose requester is out of reach may wait
                // for a phase two that never comes: it asks its peers. The
                // requester decides nothing here: its own yes may be the
                // last one, so it keeps asking.
                let stranded: Vec<TransId> = self
                    .votes
                    .iter()
                    .filter(|(tid, t)| {
                        t.phase == CoordPhase::Voted && !reachable.contains(&tid.site)
                    })
                    .map(|(tid, _)| *tid)
                    .collect();
                for tid in stranded {
                    self.ask_peers(tid, &mut effects);
                }
                if self.faults.requester_presumes_abort {
                    let doomed: Vec<TransId> = self
                        .requests
                        .iter()
                        .filter(|(tid, r)| {
                            matches!(r.phase, RequestPhase::Collecting { .. })
                                && self.status_of(**tid) == Some(TxnStatus::Voted)
                                && r.participants.iter().any(|(s, _)| !reachable.contains(s))
                        })
                        .map(|(tid, _)| *tid)
                        .collect();
                    for tid in doomed {
                        self.decided(tid, false, &mut effects);
                    }
                }
            }

            Input::CoordScan {
                tid,
                files,
                status,
                site: writer,
                installed,
            } => {
                let host = self.votes.get(tid);
                if *writer != site {
                    // Another site's record, carried here on its volume:
                    // never presumed aborted, and this site's own vote stays.
                    // Its yes decides only where every vote is known — this
                    // site its one peer, its own yes durable; otherwise the
                    // records' peers are asked when its prepare records are
                    // resolved.
                    let decided = *status == TxnStatus::Voted
                        && host.is_some_and(|t| t.status == TxnStatus::Voted)
                        && group_by_site(files)
                            .iter()
                            .all(|(s, _)| s == writer || *s == site);
                    if decided {
                        effects.push(Effect::NoteCommitPoint { tid: *tid });
                        effects.push(Effect::LogStatus {
                            tid: *tid,
                            status: TxnStatus::Committed,
                        });
                    }
                    return effects;
                }
                // A record the machine still holds keeps whether a forget
                // will come; one it had let go of was forgotten already.
                let no_forget = host.is_none_or(|t| t.no_forget);
                let commit = match status {
                    TxnStatus::Committed => true,
                    // This site's yes among peers: the outcome is theirs to
                    // tell — unless its own intentions are live already,
                    // which only a commit does.
                    TxnStatus::Voted if *installed => true,
                    TxnStatus::Voted if !self.faults.skip_peer_inquiry => {
                        self.votes.insert(
                            *tid,
                            CoordTxn {
                                files: files.clone(),
                                participants: group_by_site(files),
                                status: TxnStatus::Voted,
                                phase: CoordPhase::Voted,
                                no_forget,
                            },
                        );
                        self.ask_peers(*tid, &mut effects);
                        return effects;
                    }
                    // A noted abort whose rollback may not have landed.
                    TxnStatus::Voted | TxnStatus::Aborted | TxnStatus::Unknown => false,
                };
                effects.push(if commit {
                    Effect::NoteRecoveryRedo { tid: *tid }
                } else {
                    Effect::NoteRecoveryAbort { tid: *tid }
                });
                let t = self.votes.entry(*tid).insert_entry(CoordTxn {
                    files: files.clone(),
                    participants: group_by_site(files),
                    status: *status,
                    phase: CoordPhase::Voted,
                    no_forget,
                });
                Self::learned(t.into_mut(), site, *tid, commit, &mut effects);
            }

            Input::DelegateAnswer {
                tid,
                site: from,
                outcome,
            } => {
                // A yes record is a yes; no record is a no; a lost answer is
                // neither. The answer serves the request here, if any, and
                // this site's own vote in doubt, if any: what a peer holds
                // is its vote either way.
                let yes = match outcome {
                    PrepareOutcome::Committed | PrepareOutcome::Undecided => Some(true),
                    PrepareOutcome::AbortedOrForgotten => Some(false),
                    PrepareOutcome::Unreachable => None,
                };
                self.take_answer(*tid, *from, yes, &mut effects);
                let Some(t) = self.votes.get_mut(tid) else {
                    return effects;
                };
                if !t.participants.iter().any(|(s, _)| s == from) {
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
                if let Some(Request {
                    participants,
                    phase: RequestPhase::Collecting { votes, inquired },
                }) = self.requests.get_mut(tid)
                {
                    for (to, _) in participants.iter() {
                        if !votes.contains_key(to) {
                            inquired.insert(*to);
                            effects.push(Effect::Inquire {
                                tid: *tid,
                                site: *to,
                            });
                        }
                    }
                }
                if self
                    .votes
                    .get(tid)
                    .is_some_and(|t| t.phase == CoordPhase::Voted)
                {
                    self.ask_peers(*tid, &mut effects);
                }
            }

            Input::Wanted { tid } => {
                // Only a yes still waiting for its outcome: one being asked
                // about already has its answers coming.
                let Some(t) = self.votes.get_mut(tid) else {
                    return effects;
                };
                if t.phase != CoordPhase::Voted {
                    return effects;
                }
                if self.faults.wanted_presumes_commit {
                    Self::learned(t, site, *tid, true, &mut effects);
                } else {
                    self.ask_peers(*tid, &mut effects);
                }
            }

            Input::DelegateReq { tid, files } => {
                // A repeated delegation is answered from the record.
                if let Some(t) = self.votes.get(tid) {
                    if let Some(ok) = t.answer() {
                        effects.push(Effect::Answer { tid: *tid, ok });
                    }
                    return effects;
                }
                self.prepare_here(*tid, files, false, &mut effects);
            }

            Input::CommitReq { tid, .. } | Input::AbortReq { tid, .. } => {
                // Phase two to a yes among peers: the requester, or a peer
                // that learned the outcome, tells it.
                let commit = matches!(input, Input::CommitReq { .. });
                let Some(t) = self.votes.get_mut(tid).filter(|t| t.among_peers()) else {
                    return effects;
                };
                if commit || t.status != TxnStatus::Committed {
                    Self::learned(t, site, *tid, commit, &mut effects);
                }
            }

            Input::FinishedHere { tid, ok } => {
                let Some(t) = self.votes.get_mut(tid) else {
                    return effects;
                };
                let CoordPhase::PhaseTwo { commit } = t.phase else {
                    return effects;
                };
                let among_peers = t.among_peers();
                if !*ok {
                    // The install or rollback stalled here: the outcome
                    // stands. Among peers the phase-two message is nacked
                    // and resent; alone, the queue retries phase two as it
                    // would after a nack.
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
                    self.votes.remove(tid);
                    if among_peers {
                        effects.push(Effect::PurgeCoordLog { tid: *tid });
                        effects.push(Effect::DropFence { tid: *tid });
                    }
                }
                self.tell_requester(*tid, commit, &mut effects);
            }

            Input::Forget { tids } => {
                for tid in tids {
                    self.forget(*tid, &mut effects);
                }
            }

            // Participant-side inputs, and the acks no machine needs: the
            // last one is `Phase2Done`.
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
        // So does recovery's redo: the machine, which outlives the crash,
        // still waits for the requester's forget.
        let scan = Input::CoordScan {
            tid: tid(),
            files: vec![entry(D, 0)],
            status: TxnStatus::Committed,
            site: D,
            installed: false,
        };
        let redo = run(&mut sm, scan.clone());
        assert_eq!(
            names(&redo),
            [
                "NoteRecoveryRedo",
                "FinishHere",
                "DropFence",
                "NoteCompleted",
                "Answer"
            ]
        );
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Committed));
        // A record the machine had let go of was forgotten already: its
        // lost purge is redone with it.
        let mut forgot = CoordinatorSm::new(D);
        let redo = run(&mut forgot, scan);
        assert!(redo.contains(&Effect::PurgeCoordLog { tid: tid() }));
        assert!(forgot.is_empty());
    }

    #[test]
    fn a_forget_purges_a_remembered_record_once() {
        let mut sm = committed_delegate(ParticipantFaults::default());
        let forget = Input::Forget { tids: vec![tid()] };
        assert_eq!(sm.step(&forget), [Effect::PurgeCoordLog { tid: tid() }]);
        assert!(sm.is_empty());
        assert!(sm.step(&forget).is_empty());
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
    fn a_migrated_requester_delegates_too() {
        let mut sm = CoordinatorSm::new(SiteId(0));
        let migrated = TransId::new(SiteId(2), 5);
        assert_eq!(names(&requested(&mut sm, migrated)), ["SendDelegate"]);
    }

    /// A top-level process that migrated to D and wrote only files at D
    /// requests there, and holds the one file: its part is a step of its
    /// own machine, one record born committed, purged at its install
    /// because the requester that might ask again is itself. A crash that
    /// loses the purge redoes it with the install: the machine, which
    /// outlives the crash, had let the record go.
    #[test]
    fn a_migrated_coordinators_record_is_purged_after_a_crash() {
        let migrated = TransId::new(SiteId(2), 5);
        let mut sm = CoordinatorSm::new(D);
        let files = vec![entry(D, 4)];
        let effects = run(&mut sm, Input::commit_requested(migrated, files.clone()));
        assert_eq!(
            names(&effects),
            [
                "SendPrepare",
                "RaiseFences",
                "LogRecord",
                "FinishHere",
                "PurgeCoordLog",
                "DropFence",
                "NoteCompleted",
                "FinishLocal"
            ]
        );
        assert!(effects.contains(&Effect::LogRecord {
            tid: migrated,
            files: files.clone(),
            status: TxnStatus::Committed
        }));
        assert!(sm.is_empty());
        let scan = Input::CoordScan {
            tid: migrated,
            files,
            status: TxnStatus::Committed,
            site: D,
            installed: false,
        };
        let redo = run(&mut sm, scan);
        assert_eq!(
            names(&redo),
            [
                "NoteRecoveryRedo",
                "FinishHere",
                "PurgeCoordLog",
                "DropFence",
                "NoteCompleted",
                "Answer"
            ]
        );
        assert!(sm.is_empty());
    }

    #[test]
    fn a_lone_requesters_no_aborts_with_nothing_logged() {
        let mut sm = CoordinatorSm::new(D);
        requested(&mut sm, tid());
        let no = Input::Vote {
            tid: tid(),
            site: D,
            ok: false,
        };
        assert_eq!(names(&sm.step(&no)), ["FinishHere"]);
        let done = Input::FinishedHere {
            tid: tid(),
            ok: true,
        };
        assert_eq!(
            sm.step(&done),
            [Effect::FinishLocal {
                tid: tid(),
                commit: false
            }]
        );
        assert!(sm.is_empty());
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
        let forget = Input::Forget { tids: vec![tid()] };
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
            ["NoteRecoveryAbort", "LogStatus", "FinishHere"]
        );
    }

    #[test]
    fn a_recovered_yes_whose_install_is_live_commits_without_asking() {
        // D installed, then crashed before the lazy note of the commit hit
        // its journal; a peer may have forgotten the transaction since. Its
        // own live intentions are the proof: no question, no abort.
        let mut sm = voted();
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
                Effect::NoteRecoveryRedo { tid: tid() },
                Effect::LogStatus {
                    tid: tid(),
                    status: TxnStatus::Committed,
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
                }
            ]
        );
        // D's own yes waits for phase two.
        assert!(sm.holds_vote(tid()));
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Voted));
    }

    #[test]
    fn a_carried_record_is_read_by_its_status_never_by_its_shape() {
        // E's record carried to D decides nothing at D by itself: the
        // prepare records beside it are resolved by asking its peers.
        for status in [TxnStatus::Committed, TxnStatus::Aborted] {
            assert!(CoordinatorSm::new(D).step(&scanned(status, E)).is_empty());
        }
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

    // ----- The requester among peers ---------------------------------------

    /// Site 0 requests `tid()` and holds a file of it, as does D.
    fn mixed() -> Vec<FileListEntry> {
        vec![entry(SiteId(0), 0), entry(D, 0)]
    }

    /// Site 0's machine once its own yes among peers is durable.
    fn requester_voted(faults: ParticipantFaults) -> CoordinatorSm {
        let mut sm = CoordinatorSm::with_faults(SiteId(0), faults);
        let sent = run(&mut sm, Input::commit_requested(tid(), mixed()));
        // One wave: the delegation to D and its own part, no message.
        assert_eq!(
            names(&sent),
            ["SendDelegate", "SendPrepare", "RaiseFences", "LogRecord"]
        );
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Voted));
        assert!(sm.holds_vote(tid()));
        sm
    }

    #[test]
    fn a_requester_holding_a_file_votes_as_a_step_of_its_own_machine() {
        let mut sm = requester_voted(ParticipantFaults::default());
        // D's yes is the last one: the commit point. Its own phase two is a
        // step here; D's rides the next message there.
        let effects = run(&mut sm, answer(D, PrepareOutcome::Committed));
        assert_eq!(
            names(&effects),
            [
                "NoteCommitPoint",
                "LogStatus",
                "FinishHere",
                "QueuePhase2",
                "FinishLocal"
            ]
        );
        assert!(effects.contains(&Effect::QueuePhase2 {
            tid: tid(),
            commit: true,
            participants: vec![(D, fids())],
        }));
        let done = Input::Phase2Done {
            tid: tid(),
            commit: true,
        };
        // Its own record goes with no message; D hears it may forget.
        assert_eq!(
            sm.step(&done),
            [
                Effect::PurgeCoordLog { tid: tid() },
                Effect::Forget {
                    tid: tid(),
                    site: D
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
    fn a_cut_off_requester_keeps_asking_unless_the_fault_presumes_abort() {
        let mut sm = requester_voted(ParticipantFaults::default());
        let cut = Input::TopologyChanged {
            reachable: vec![SiteId(0)],
        };
        assert!(sm.step(&cut).is_empty());
        assert_eq!(
            names(&sm.step(&answer(D, PrepareOutcome::Unreachable))),
            ["Inquire"]
        );
        assert_eq!(sm.status_of(tid()), Some(TxnStatus::Voted));
        let faults = ParticipantFaults {
            requester_presumes_abort: true,
            ..ParticipantFaults::default()
        };
        let mut sm = requester_voted(faults);
        assert_eq!(
            names(&sm.step(&cut)),
            ["LogStatus", "FinishHere", "QueuePhase2", "FinishLocal"]
        );
    }
}
