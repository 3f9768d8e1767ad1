//! The coordinator's half of two-phase commit as a pure state machine.
//!
//! One [`CoordinatorSm`] lives at each site and tracks every transaction
//! that site coordinates, keyed by transaction id. The lifecycle of an
//! entry mirrors the journal: it is born `Unknown` when the start record is
//! requested, flips to `Committed`/`Aborted` exactly when the decision mark
//! is acknowledged durable, and dies when phase two completes everywhere
//! and the record is purged.
//!
//! **Commit where the data is.** A transaction whose files all live at one
//! other site has one participant, and that site decides it instead: the
//! requester sends a single delegation and logs nothing, and the storage
//! site — the *delegate* — prepares itself, writes the only record, born
//! `Committed`, behind its own prepare record (one force for both), installs
//! and answers. Its entry then outlives phase two until the requester, which
//! may have lost the answer and have to ask again, says it may forget.

use std::collections::{BTreeMap, BTreeSet};

use locus_types::{Fid, FileListEntry, SiteId, TransId, TxnStatus};

use super::{
    group_by_site, site_epochs, Effect, Input, ParticipantFaults, PrepareOutcome, ProtocolSm,
};

/// Where a coordinated transaction is in the protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CoordPhase {
    /// Waiting for the status-`Unknown` start record to reach the journal.
    LoggingStart,
    /// One prepare is out to every participant site; collecting votes.
    Preparing {
        /// Votes received so far, by site.
        votes: BTreeMap<SiteId, bool>,
    },
    /// Decision made; waiting for the durable decision mark.
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
    /// Requester: the decision is `site`'s. Waiting for its answer to the
    /// delegation or, once that answer was lost (`inquired`), to an inquiry.
    Delegated { site: SiteId, inquired: bool },
    /// Delegate: committed and installed here. The record stays until the
    /// requester forgets it.
    Remembered,
}

/// Per-transaction coordinator state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CoordTxn {
    pub files: Vec<FileListEntry>,
    /// File list grouped by storage site, fids sorted and deduplicated —
    /// the unit of prepare and phase-two messaging.
    pub participants: Vec<(SiteId, Vec<Fid>)>,
    /// Journal-mirrored status: what a `StatusInquiry` should answer.
    pub status: TxnStatus,
    pub phase: CoordPhase,
    /// This site decides for the requester, `tid.site`: it is the only
    /// participant, and its record is the only one.
    pub delegated: bool,
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
    /// [`ParticipantFaults::skip_delegate_record`]).
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
            .is_some_and(|t| t.status == TxnStatus::Unknown && !t.delegated)
    }

    /// The journal-mirrored status for `tid`, if coordinated here.
    pub fn status_of(&self, tid: TransId) -> Option<TxnStatus> {
        self.txns.get(&tid).map(|t| t.status)
    }

    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Make the commit/abort decision once all votes are in.
    fn decide(t: &mut CoordTxn, tid: TransId, commit: bool, effects: &mut Vec<Effect>) {
        t.phase = CoordPhase::Marking { commit };
        if commit {
            // Fence first, then mark: if the mark lands, failover must
            // already be blocked, because between the mark and phase two
            // the committed bytes exist only in primaries' prepare logs.
            let fids: Vec<Fid> = t.files.iter().map(|f| f.fid).collect();
            effects.push(Effect::RaiseFences { tid, files: fids });
            effects.push(if t.delegated {
                Effect::LogCommit {
                    tid,
                    files: t.files.clone(),
                }
            } else {
                Effect::LogStatus {
                    tid,
                    status: TxnStatus::Committed,
                    critical: true,
                }
            });
        } else if t.delegated {
            // Presumed abort logs nothing, and there is nobody else to tell.
            Self::finish_here(t, tid, false, effects);
        } else {
            effects.push(Effect::LogStatus {
                tid,
                status: TxnStatus::Aborted,
                critical: true,
            });
        }
    }

    /// A delegate's decision taken: phase two at this site, now.
    fn finish_here(t: &mut CoordTxn, tid: TransId, commit: bool, effects: &mut Vec<Effect>) {
        let (site, files) = t.participants[0].clone();
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

    /// A delegate's commit installed everywhere: the fence drops and the
    /// commit is announced, but the record waits for the requester.
    fn installed_here(&mut self, tid: TransId, effects: &mut Vec<Effect>) {
        if self.faults.skip_delegate_record {
            self.txns.remove(&tid);
            effects.push(Effect::PurgeCoordLog { tid });
        } else if let Some(t) = self.txns.get_mut(&tid) {
            t.phase = CoordPhase::Remembered;
        }
        effects.push(Effect::DropFence { tid });
        effects.push(Effect::NoteCompleted { tid, commit: true });
    }
}

impl ProtocolSm for CoordinatorSm {
    fn step(&mut self, input: &Input) -> Vec<Effect> {
        let mut effects = Vec::new();
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
                    let phase = match participants.as_slice() {
                        // Every file at one other site: that site decides.
                        // Only the transaction's home delegates, since a
                        // delegate takes a forget from `tid.site` alone; a
                        // migrated top-level process keeps two-phase commit.
                        [(site, fids)] if *site != self.site && tid.site == self.site => {
                            effects.push(Effect::SendDelegate {
                                tid: *tid,
                                site: *site,
                                files: fids.clone(),
                                epoch: site_epochs(files)[site],
                            });
                            CoordPhase::Delegated {
                                site: *site,
                                inquired: false,
                            }
                        }
                        _ => {
                            effects.push(Effect::LogStart {
                                tid: *tid,
                                files: files.clone(),
                            });
                            CoordPhase::LoggingStart
                        }
                    };
                    self.txns.insert(
                        *tid,
                        CoordTxn {
                            files: files.clone(),
                            participants,
                            status: TxnStatus::Unknown,
                            phase,
                            delegated: false,
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
                t.phase = CoordPhase::Preparing {
                    votes: BTreeMap::new(),
                };
            }

            Input::Vote { tid, site, ok } => {
                let Some(t) = self.txns.get_mut(tid) else {
                    return effects;
                };
                let CoordPhase::Preparing { ref mut votes } = t.phase else {
                    return effects;
                };
                // Only participants may vote: with duplicated messages a
                // stray vote from a non-participant must not complete the
                // tally. A duplicate from a participant lands on its own
                // entry.
                if !t.participants.iter().any(|(s, _)| s == site) {
                    return effects;
                }
                votes.insert(*site, *ok);
                if votes.len() == t.participants.len() {
                    let all_ok = votes.values().all(|v| *v);
                    Self::decide(t, *tid, all_ok, &mut effects);
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
                if t.delegated {
                    // A delegate logs only commits.
                    Self::finish_here(t, *tid, true, &mut effects);
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
                if self.txns.get(tid).is_some_and(|t| t.delegated) {
                    // A delegate's retried phase two: the record still
                    // answers the requester's inquiry until it forgets.
                    if *commit {
                        self.installed_here(*tid, &mut effects);
                    } else {
                        self.txns.remove(tid);
                    }
                    return effects;
                }
                // Unconditional and idempotent: recovery can requeue work
                // that a surviving pre-crash queue item also completes, so
                // the second completion must still purge cleanly.
                self.txns.remove(tid);
                effects.push(Effect::PurgeCoordLog { tid: *tid });
                effects.push(Effect::DropFence { tid: *tid });
                effects.push(Effect::NoteCompleted {
                    tid: *tid,
                    commit: *commit,
                });
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
                            && !matches!(t.phase, CoordPhase::Delegated { .. })
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
            }

            Input::CoordScan { tid, files, status } => {
                let participants = group_by_site(files);
                let pending: BTreeSet<SiteId> = participants.iter().map(|(s, _)| *s).collect();
                match status {
                    TxnStatus::Committed => {
                        // The durable mark is the commit point: re-drive
                        // phase two until every participant installs. A
                        // record of another site's transaction with this
                        // site its only participant is a delegate's: it
                        // waits for that site's forget.
                        let delegated =
                            tid.site != self.site && pending == BTreeSet::from([self.site]);
                        self.txns.insert(
                            *tid,
                            CoordTxn {
                                files: files.clone(),
                                participants: participants.clone(),
                                status: TxnStatus::Committed,
                                phase: CoordPhase::PhaseTwo {
                                    commit: true,
                                    pending,
                                },
                                delegated,
                            },
                        );
                        effects.push(Effect::NoteRecoveryRedo { tid: *tid });
                        effects.push(Effect::QueuePhase2 {
                            tid: *tid,
                            commit: true,
                            participants,
                        });
                    }
                    TxnStatus::Unknown | TxnStatus::Aborted => {
                        // No durable commit mark ⇒ presumed (or explicit)
                        // abort. Rewrite the record so a StatusInquiry that
                        // races phase two answers consistently.
                        self.txns.insert(
                            *tid,
                            CoordTxn {
                                files: files.clone(),
                                participants: participants.clone(),
                                status: TxnStatus::Aborted,
                                phase: CoordPhase::PhaseTwo {
                                    commit: false,
                                    pending,
                                },
                                delegated: false,
                            },
                        );
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
            }

            Input::DelegateAnswer { tid, outcome } => {
                let Some(t) = self.txns.get_mut(tid) else {
                    return effects;
                };
                let CoordPhase::Delegated { site, inquired } = t.phase else {
                    return effects;
                };
                match outcome {
                    PrepareOutcome::Committed => {
                        self.txns.remove(tid);
                        effects.push(Effect::FinishLocal {
                            tid: *tid,
                            commit: true,
                        });
                        effects.push(Effect::Forget { tid: *tid, site });
                    }
                    PrepareOutcome::AbortedOrForgotten => {
                        // Nothing was logged at the delegate for an abort,
                        // so there is nothing to forget.
                        self.txns.remove(tid);
                        effects.push(Effect::FinishLocal {
                            tid: *tid,
                            commit: false,
                        });
                    }
                    // A missing answer is never a no: only the delegate
                    // knows, so ask it, and keep asking.
                    PrepareOutcome::Undecided | PrepareOutcome::Unreachable if !inquired => {
                        t.phase = CoordPhase::Delegated {
                            site,
                            inquired: true,
                        };
                        effects.push(Effect::Inquire { tid: *tid, site });
                    }
                    PrepareOutcome::Undecided | PrepareOutcome::Unreachable => {
                        effects.push(Effect::QueueInquiry { tid: *tid });
                    }
                }
            }

            Input::RetryInquiry { tid } => {
                // Only while the answer is still awaited: one that arrived
                // since needs no question.
                if let Some(CoordTxn {
                    phase: CoordPhase::Delegated { site, .. },
                    ..
                }) = self.txns.get(tid)
                {
                    effects.push(Effect::Inquire {
                        tid: *tid,
                        site: *site,
                    });
                }
            }

            Input::DelegateReq { tid, files, epoch } => {
                if let Some(t) = self.txns.get(tid) {
                    // A repeated delegation is answered from the record; an
                    // undecided one has nothing to say yet.
                    match t.status {
                        TxnStatus::Committed => effects.push(Effect::Answer {
                            tid: *tid,
                            commit: true,
                        }),
                        TxnStatus::Aborted => effects.push(Effect::Answer {
                            tid: *tid,
                            commit: false,
                        }),
                        TxnStatus::Unknown => {}
                    }
                    return effects;
                }
                let entries: Vec<FileListEntry> = files
                    .iter()
                    .map(|fid| FileListEntry {
                        fid: *fid,
                        storage_site: self.site,
                        epoch: *epoch,
                    })
                    .collect();
                let participants = group_by_site(&entries);
                // This site's own participant machine runs every defence a
                // prepare meets, and its yes rides the mark's force.
                effects.push(Effect::SendPrepare {
                    tid: *tid,
                    site: self.site,
                    files: participants[0].1.clone(),
                    epoch: *epoch,
                });
                self.txns.insert(
                    *tid,
                    CoordTxn {
                        files: entries,
                        participants,
                        status: TxnStatus::Unknown,
                        phase: CoordPhase::Preparing {
                            votes: BTreeMap::new(),
                        },
                        delegated: true,
                    },
                );
            }

            Input::FinishedHere { tid, ok } => {
                let Some(t) = self.txns.get_mut(tid) else {
                    return effects;
                };
                let CoordPhase::PhaseTwo { commit, .. } = t.phase else {
                    return effects;
                };
                if !*ok {
                    // The install or rollback stalled here: the outcome
                    // stands, and the queue retries phase two as it would
                    // after a participant's nack.
                    effects.push(Effect::QueuePhase2 {
                        tid: *tid,
                        commit,
                        participants: t.participants.clone(),
                    });
                } else if commit {
                    self.installed_here(*tid, &mut effects);
                } else {
                    self.txns.remove(tid);
                }
                effects.push(Effect::Answer { tid: *tid, commit });
            }

            Input::Forget { from, tids } => {
                for tid in tids.iter().filter(|t| t.site == *from) {
                    let remembered = self
                        .txns
                        .get(tid)
                        .is_some_and(|t| t.delegated && t.phase == CoordPhase::Remembered);
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
        vec![Fid::new(VolumeId(1), 3)]
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
                    Effect::LogCommit { tid, .. } => Some(Input::StatusLogged { tid, ok: true }),
                    Effect::FinishHere { tid, .. } => Some(Input::FinishedHere { tid, ok: true }),
                    _ => next,
                };
                all.push(e);
            }
        }
        all
    }

    fn delegation() -> Input {
        Input::DelegateReq {
            tid: tid(),
            files: fids(),
            epoch: 0,
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
                "LogCommit",
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
                commit: true
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
                commit: false
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
                commit: true
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
        let files = vec![FileListEntry {
            fid: fids()[0],
            storage_site: D,
            epoch: 4,
        }];
        sm.step(&Input::commit_requested(tid, files))
    }

    #[test]
    fn a_lost_answer_is_asked_about_and_never_read_as_a_no() {
        let mut sm = CoordinatorSm::new(SiteId(0));
        assert_eq!(
            requested(&mut sm, tid()),
            [Effect::SendDelegate {
                tid: tid(),
                site: D,
                files: fids(),
                epoch: 4
            }]
        );
        let lost = Input::DelegateAnswer {
            tid: tid(),
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
}
