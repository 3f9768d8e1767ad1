//! The coordinator's half of two-phase commit as a pure state machine.
//!
//! One [`CoordinatorSm`] lives at each site and tracks every transaction
//! that site coordinates, keyed by transaction id. The lifecycle of an
//! entry mirrors the journal: it is born `Unknown` when the start record is
//! requested, flips to `Committed`/`Aborted` exactly when the decision mark
//! is acknowledged durable, and dies when phase two completes everywhere
//! and the record is purged.

use std::collections::{BTreeMap, BTreeSet};

use locus_types::{Fid, FileListEntry, SiteId, TransId, TxnStatus};

use super::{group_by_site, site_epochs, Effect, Input, ProtocolSm};

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
}

/// The coordinator protocol machine for one site.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CoordinatorSm {
    site: SiteId,
    txns: BTreeMap<TransId, CoordTxn>,
}

impl CoordinatorSm {
    pub fn new(site: SiteId) -> Self {
        CoordinatorSm {
            site,
            txns: BTreeMap::new(),
        }
    }

    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Whether this coordinator has an entry for `tid` — the "coordinating
    /// here" leg of a participant's known-transaction check when the
    /// coordinator and participant share a site.
    pub fn knows(&self, tid: TransId) -> bool {
        self.txns.contains_key(&tid)
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
            effects.push(Effect::LogStatus {
                tid,
                status: TxnStatus::Committed,
                critical: true,
            });
        } else {
            effects.push(Effect::LogStatus {
                tid,
                status: TxnStatus::Aborted,
                critical: true,
            });
        }
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
                    self.txns.insert(
                        *tid,
                        CoordTxn {
                            files: files.clone(),
                            participants,
                            status: TxnStatus::Unknown,
                            phase: CoordPhase::LoggingStart,
                        },
                    );
                    effects.push(Effect::LogStart {
                        tid: *tid,
                        files: files.clone(),
                    });
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
                let doomed: Vec<TransId> = self
                    .txns
                    .iter()
                    .filter(|(_, t)| {
                        t.status == TxnStatus::Unknown
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
                        // phase two until every participant installs.
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

            // Participant-side inputs: not ours, no transition.
            _ => {}
        }
        effects
    }
}
