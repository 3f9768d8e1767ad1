//! The participant's half of two-phase commit as a pure state machine.
//!
//! The participant's protocol obligations are mostly *refusals*: under
//! presumed abort a participant may always vote no, and every defense the
//! chaos campaigns forced into the codebase is a guarded no-vote here —
//! the permanent refusal set after a unilateral rollback, the boot-epoch
//! taint after a reboot, the deposed-primary check after a failover. A yes
//! vote, by contrast, is a promise: once `Staged` succeeds the site must be
//! able to install the intentions no matter what, until told otherwise.

use std::collections::{BTreeMap, BTreeSet};

use locus_types::{Fid, SiteId, TransId};

use super::{Effect, Input, PrepareOutcome, ProtocolSm};

/// Deliberately-breakable defenses, for the model checker's
/// bug-reintroduction mode. Production drivers always use the default
/// (everything enabled); the harness flips one off to confirm the checker
/// finds the historical bug as a concrete counterexample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ParticipantFaults {
    /// Skip the presumed-abort refusal-set check on prepare: a site that
    /// unilaterally rolled back a transaction may later vote yes for it.
    pub skip_refused_check: bool,
    /// Skip the boot-epoch taint check on prepare: a site that rebooted
    /// (losing unprepared dirty data) may still vote yes.
    pub skip_epoch_check: bool,
    /// A lone storage site, deciding for a remote requester, drops its
    /// commit record as soon as it installs instead of when the
    /// requester forgets it: a requester that lost the answer then hears
    /// "aborted" for a committed transaction. Read by [`CoordinatorSm`].
    ///
    /// [`CoordinatorSm`]: super::CoordinatorSm
    pub skip_delegate_record: bool,
    /// A delegate deciding among peers drops its record as soon as it
    /// installs instead of when the requester forgets it: a peer still in
    /// doubt then finds no record there and aborts a committed transaction.
    /// Read by [`CoordinatorSm`].
    ///
    /// [`CoordinatorSm`]: super::CoordinatorSm
    pub forget_before_all_installed: bool,
    /// A delegate deciding among peers that is in doubt presumes abort on
    /// its own instead of asking its peers, though the commit point may
    /// have passed without it. Read by [`CoordinatorSm`].
    ///
    /// [`CoordinatorSm`]: super::CoordinatorSm
    pub skip_peer_inquiry: bool,
    /// A delegate deciding among peers that is asked for a lock its
    /// transaction holds ([`Input::Wanted`]) commits on its own yes instead
    /// of asking its peers, though one of them may never have voted. Read
    /// by [`CoordinatorSm`].
    ///
    /// [`CoordinatorSm`]: super::CoordinatorSm
    pub wanted_presumes_commit: bool,
    /// A requester whose own yes among peers is durable aborts when a
    /// partition cuts it off from another storage site, instead of asking
    /// on, though every yes may be durable already. Read by
    /// [`CoordinatorSm`].
    ///
    /// [`CoordinatorSm`]: super::CoordinatorSm
    pub requester_presumes_abort: bool,
}

/// Progress of one in-flight prepare round.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PrepareStage {
    /// Waiting for the deposed-primary check.
    AwaitPrimary,
    /// Waiting for the known-transaction check.
    AwaitKnown,
    /// Waiting for the stage-and-log result.
    AwaitStage,
}

/// One in-flight prepare round (volatile: dies on reboot).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PrepareRound {
    pub coordinator: SiteId,
    pub files: Vec<Fid>,
    pub stage: PrepareStage,
}

/// The participant protocol machine for one site.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParticipantSm {
    site: SiteId,
    /// Current boot epoch; prepares claiming an older epoch are tainted.
    boot_epoch: u64,
    /// Presumed-abort refusal set: transactions this site unilaterally
    /// rolled back. Permanent for the site's lifetime — a later prepare
    /// for the same tid must vote no, because the rolled-back writes are
    /// gone and a yes would commit a partial transaction.
    refused: BTreeSet<TransId>,
    /// In-flight prepare rounds, keyed by tid. Volatile.
    rounds: BTreeMap<TransId, PrepareRound>,
    /// The files of each transaction this site has voted yes on and not yet
    /// resolved: the ones a partition may not roll back. Per file, because
    /// recovery resolves one prepare record at a time, and a volume carried
    /// in from a dead site may hold records of a transaction this site also
    /// prepared itself. Rebuilt from the journal scan after a reboot.
    prepared: BTreeMap<TransId, BTreeSet<Fid>>,
    faults: ParticipantFaults,
}

impl ParticipantSm {
    pub fn new(site: SiteId, boot_epoch: u64) -> Self {
        Self::with_faults(site, boot_epoch, ParticipantFaults::default())
    }

    pub fn with_faults(site: SiteId, boot_epoch: u64, faults: ParticipantFaults) -> Self {
        ParticipantSm {
            site,
            boot_epoch,
            refused: BTreeSet::new(),
            rounds: BTreeMap::new(),
            prepared: BTreeMap::new(),
            faults,
        }
    }

    pub fn site(&self) -> SiteId {
        self.site
    }

    pub fn boot_epoch(&self) -> u64 {
        self.boot_epoch
    }

    /// Whether the presumed-abort refusal set contains `tid`.
    pub fn refuses(&self, tid: TransId) -> bool {
        self.refused.contains(&tid)
    }

    /// Whether this site has voted yes on `tid` without a resolution yet.
    pub fn is_prepared(&self, tid: TransId) -> bool {
        self.prepared.contains_key(&tid)
    }

    /// Drops the promise for one recovered prepare record of `tid`.
    fn resolve(&mut self, tid: TransId, fid: Fid) {
        if let Some(files) = self.prepared.get_mut(&tid) {
            files.remove(&fid);
            if files.is_empty() {
                self.prepared.remove(&tid);
            }
        }
    }
}

impl ProtocolSm for ParticipantSm {
    fn step(&mut self, input: &Input) -> Vec<Effect> {
        let mut effects = Vec::new();
        match input {
            Input::PrepareReq {
                tid,
                coordinator,
                files,
                epoch,
            } => {
                if !self.faults.skip_refused_check && self.refused.contains(tid) {
                    // This site already rolled the transaction back; its
                    // writes here are gone for good. Voting yes would let
                    // the coordinator commit a partial transaction.
                    effects.push(Effect::Vote {
                        tid: *tid,
                        ok: false,
                    });
                } else if !self.faults.skip_epoch_check && *epoch != self.boot_epoch {
                    // The transaction used this site under an earlier boot
                    // epoch: unprepared dirty data from that incarnation
                    // died with it, so nothing here is trustworthy.
                    effects.push(Effect::Vote {
                        tid: *tid,
                        ok: false,
                    });
                } else {
                    self.rounds.insert(
                        *tid,
                        PrepareRound {
                            coordinator: *coordinator,
                            files: files.clone(),
                            stage: PrepareStage::AwaitPrimary,
                        },
                    );
                    effects.push(Effect::CheckPrimary {
                        tid: *tid,
                        files: files.clone(),
                    });
                }
            }

            Input::PrimaryChecked { tid, ok } => {
                let Some(round) = self.rounds.get_mut(tid) else {
                    return effects;
                };
                if round.stage != PrepareStage::AwaitPrimary {
                    return effects;
                }
                if !*ok {
                    // Deposed primary: a failover promoted a replica while
                    // we were partitioned or down, so our copy may be
                    // stale. Only the current primary may promise a commit.
                    self.rounds.remove(tid);
                    effects.push(Effect::Vote {
                        tid: *tid,
                        ok: false,
                    });
                } else {
                    round.stage = PrepareStage::AwaitKnown;
                    effects.push(Effect::CheckKnown {
                        tid: *tid,
                        files: round.files.clone(),
                    });
                }
            }

            Input::KnownChecked { tid, known } => {
                let Some(round) = self.rounds.get_mut(tid) else {
                    return effects;
                };
                if round.stage != PrepareStage::AwaitKnown {
                    return effects;
                }
                if !*known {
                    // Total stranger: no coordinating entry, no locks, no
                    // dirty pages, no prepare log. Under presumed abort an
                    // earlier incarnation's state is simply gone — vote no.
                    self.rounds.remove(tid);
                    effects.push(Effect::Vote {
                        tid: *tid,
                        ok: false,
                    });
                } else {
                    round.stage = PrepareStage::AwaitStage;
                    effects.push(Effect::StageAndLog {
                        tid: *tid,
                        coordinator: round.coordinator,
                        files: round.files.clone(),
                    });
                }
            }

            Input::Staged { tid, ok } => {
                let Some(round) = self.rounds.get(tid) else {
                    return effects;
                };
                if round.stage != PrepareStage::AwaitStage {
                    return effects;
                }
                let round = self.rounds.remove(tid).expect("round checked above");
                if *ok {
                    self.prepared.entry(*tid).or_default().extend(round.files);
                }
                effects.push(Effect::Vote { tid: *tid, ok: *ok });
            }

            Input::CommitReq { tid, files } => {
                effects.push(Effect::Install {
                    tid: *tid,
                    files: files.clone(),
                });
            }

            Input::Installed { tid, ok } => {
                if *ok {
                    // Every lock of `tid` goes too, so no partition can strand
                    // it here again; a carried record still in doubt is
                    // promised afresh by the next recovery pass.
                    self.prepared.remove(tid);
                    effects.push(Effect::ReleaseLocks { tid: *tid });
                    effects.push(Effect::Ack {
                        tid: *tid,
                        ok: true,
                    });
                } else {
                    // The install stalled (e.g. disk offline): keep the
                    // prepare log and locks, nack, and let the coordinator
                    // retry phase two.
                    effects.push(Effect::Ack {
                        tid: *tid,
                        ok: false,
                    });
                }
            }

            Input::AbortReq { tid, files } => {
                // Into the refusal set *before* any rollback work: if the
                // rollback is interrupted, a later prepare retry must still
                // see the refusal.
                self.refused.insert(*tid);
                effects.push(Effect::Rollback {
                    tid: *tid,
                    files: files.clone(),
                });
            }

            Input::Stranded { tid, files } => {
                if self.prepared.contains_key(tid) {
                    // In doubt: this site voted yes, and only the coordinator
                    // may release that promise. The prepare logs and the
                    // locks stay until phase two or recovery's status
                    // inquiry resolves every promised file.
                    return effects;
                }
                // Never promised, so presumed abort lets this site roll back
                // alone; nobody else will announce it. Refused before any
                // rollback work, as for a coordinator's abort.
                self.refused.insert(*tid);
                effects.push(Effect::NoteAborted { tid: *tid });
                effects.push(Effect::Rollback {
                    tid: *tid,
                    files: files.clone(),
                });
            }

            Input::RolledBack { tid, ok } => {
                if *ok {
                    self.prepared.remove(tid);
                    effects.push(Effect::ReleaseLocks { tid: *tid });
                    effects.push(Effect::Ack {
                        tid: *tid,
                        ok: true,
                    });
                } else {
                    effects.push(Effect::Ack {
                        tid: *tid,
                        ok: false,
                    });
                }
            }

            Input::RecoveredPrepare {
                tid,
                fid,
                coordinator,
            } => {
                // A logged yes vote is a promise whichever incarnation cast
                // it, until the coordinator's answer resolves it.
                self.prepared.entry(*tid).or_default().insert(*fid);
                effects.push(Effect::QueryStatus {
                    tid: *tid,
                    fid: *fid,
                    coordinator: *coordinator,
                });
            }

            Input::StatusResolved { tid, fid, outcome } => match outcome {
                PrepareOutcome::Committed => {
                    self.resolve(*tid, *fid);
                    effects.push(Effect::InstallRecovered {
                        tid: *tid,
                        fid: *fid,
                    });
                }
                PrepareOutcome::AbortedOrForgotten => {
                    // Purge the log; the scavenger reclaims shadow blocks.
                    // No refusal-set insert: the prepare log *was* the
                    // site's knowledge of the transaction, and purging it
                    // means a later prepare fails the known-check instead.
                    self.resolve(*tid, *fid);
                    effects.push(Effect::PurgePrepareLog {
                        tid: *tid,
                        fid: *fid,
                    });
                }
                PrepareOutcome::Undecided | PrepareOutcome::Unreachable => {
                    // Stay in doubt: keep the prepare log and re-resolve on
                    // the next recovery pass.
                }
            },

            Input::Rebooted { epoch } => {
                // Volatile state died with the old incarnation. The refusal
                // set survives in this machine because the machine itself
                // survives (the driver outlives the simulated kernel); the
                // promises in `prepared` are rebuilt from the journal scan.
                self.boot_epoch = *epoch;
                self.rounds.clear();
                self.prepared.clear();
            }

            // Coordinator-side inputs: not ours, no transition.
            _ => {}
        }
        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid() -> TransId {
        TransId::new(SiteId(0), 7)
    }

    fn fids() -> Vec<Fid> {
        vec![Fid::new(locus_types::VolumeId(1), 3)]
    }

    /// Drive one full prepare round with a compliant substrate (primary
    /// intact, transaction known, staging succeeds) and return the vote.
    fn drive_prepare(sm: &mut ParticipantSm, epoch: u64) -> bool {
        let mut queue: Vec<Input> = vec![Input::PrepareReq {
            tid: tid(),
            coordinator: SiteId(0),
            files: fids(),
            epoch,
        }];
        let mut vote = None;
        while let Some(inp) = queue.pop() {
            for e in sm.step(&inp) {
                match e {
                    Effect::CheckPrimary { tid, .. } => {
                        queue.push(Input::PrimaryChecked { tid, ok: true })
                    }
                    Effect::CheckKnown { tid, .. } => {
                        queue.push(Input::KnownChecked { tid, known: true })
                    }
                    Effect::StageAndLog { tid, .. } => queue.push(Input::Staged { tid, ok: true }),
                    Effect::Vote { ok, .. } => vote = Some(ok),
                    other => panic!("unexpected prepare effect {other:?}"),
                }
            }
        }
        vote.expect("prepare round must end in a vote")
    }

    #[test]
    fn compliant_prepare_votes_yes_and_records_promise() {
        let mut sm = ParticipantSm::new(SiteId(1), 4);
        assert!(drive_prepare(&mut sm, 4));
        assert!(sm.is_prepared(tid()));
    }

    #[test]
    fn refusal_set_is_permanent_and_votes_no() {
        let mut sm = ParticipantSm::new(SiteId(1), 0);
        // A rollback refuses the tid *before* any rollback work, so an
        // interrupted rollback still leaves the refusal behind.
        let effects = sm.step(&Input::AbortReq {
            tid: tid(),
            files: fids(),
        });
        assert!(sm.refuses(tid()));
        assert!(matches!(effects[0], Effect::Rollback { .. }));
        // Even with a fully compliant substrate — locks re-established,
        // dirty pages back — the prepare must vote no, forever.
        assert!(!drive_prepare(&mut sm, 0));
        assert!(!drive_prepare(&mut sm, 0));
        assert!(!sm.is_prepared(tid()));
    }

    fn stranded() -> Input {
        Input::Stranded {
            tid: tid(),
            files: fids(),
        }
    }

    #[test]
    fn stranded_unprepared_transaction_is_refused_and_rolled_back() {
        let mut sm = ParticipantSm::new(SiteId(1), 0);
        assert_eq!(
            sm.step(&stranded()),
            vec![
                Effect::NoteAborted { tid: tid() },
                Effect::Rollback {
                    tid: tid(),
                    files: fids()
                }
            ]
        );
        assert!(sm.refuses(tid()));
        // The partition heals and the coordinator's prepare arrives: the
        // rolled-back writes are gone, so the vote is no.
        assert!(!drive_prepare(&mut sm, 0));
    }

    #[test]
    fn stranded_prepared_transaction_stays_in_doubt() {
        let mut sm = ParticipantSm::new(SiteId(1), 0);
        assert!(drive_prepare(&mut sm, 0));
        assert!(sm.step(&stranded()).is_empty());
        assert!(sm.is_prepared(tid()));
        assert!(!sm.refuses(tid()));
    }

    #[test]
    fn stranded_transaction_recovered_in_doubt_stays_in_doubt() {
        let mut sm = ParticipantSm::new(SiteId(1), 0);
        assert!(drive_prepare(&mut sm, 0));
        sm.step(&Input::Rebooted { epoch: 1 });
        let effects = sm.step(&Input::RecoveredPrepare {
            tid: tid(),
            fid: fids()[0],
            coordinator: SiteId(0),
        });
        assert!(matches!(effects[..], [Effect::QueryStatus { .. }]));
        let effects = sm.step(&Input::StatusResolved {
            tid: tid(),
            fid: fids()[0],
            outcome: PrepareOutcome::Unreachable,
        });
        assert!(effects.is_empty());
        // The journal scan, not the dead incarnation's memory, says the
        // promise stands.
        assert!(sm.step(&stranded()).is_empty());
        assert!(!sm.refuses(tid()));
    }

    /// Recovers one prepare record of `tid()` on file `ino` and resolves it.
    fn recover_record(sm: &mut ParticipantSm, ino: u32, outcome: PrepareOutcome) {
        let fid = Fid::new(locus_types::VolumeId(2), ino);
        sm.step(&Input::RecoveredPrepare {
            tid: tid(),
            fid,
            coordinator: SiteId(0),
        });
        sm.step(&Input::StatusResolved {
            tid: tid(),
            fid,
            outcome,
        });
    }

    #[test]
    fn resolving_a_carried_record_keeps_the_sites_own_promise() {
        // This site voted yes on its own file; a volume carried in from a
        // dead site holds a record of the same transaction, which resolves.
        let mut sm = ParticipantSm::new(SiteId(1), 0);
        assert!(drive_prepare(&mut sm, 0));
        recover_record(&mut sm, 9, PrepareOutcome::Committed);
        assert!(sm.step(&stranded()).is_empty());
        assert!(!sm.refuses(tid()));
    }

    #[test]
    fn a_later_resolved_record_keeps_an_earlier_one_in_doubt() {
        let mut sm = ParticipantSm::new(SiteId(1), 0);
        sm.step(&Input::Rebooted { epoch: 1 });
        let in_doubt = fids()[0];
        sm.step(&Input::RecoveredPrepare {
            tid: tid(),
            fid: in_doubt,
            coordinator: SiteId(0),
        });
        sm.step(&Input::StatusResolved {
            tid: tid(),
            fid: in_doubt,
            outcome: PrepareOutcome::Unreachable,
        });
        recover_record(&mut sm, 9, PrepareOutcome::Committed);
        recover_record(&mut sm, 10, PrepareOutcome::AbortedOrForgotten);
        assert!(sm.step(&stranded()).is_empty());
        assert!(sm.is_prepared(tid()));
    }

    #[test]
    fn boot_epoch_taint_votes_no_after_reboot() {
        let mut sm = ParticipantSm::new(SiteId(1), 0);
        assert!(sm.step(&Input::Rebooted { epoch: 1 }).is_empty());
        assert_eq!(sm.boot_epoch(), 1);
        // The coordinator's file list still claims epoch 0: unprepared
        // dirty data from that incarnation died with it, so vote no even
        // though the known-check would pass.
        assert!(!drive_prepare(&mut sm, 0));
        // A prepare claiming the current incarnation is fine.
        assert!(drive_prepare(&mut sm, 1));
    }

    #[test]
    fn deposed_primary_votes_no() {
        let mut sm = ParticipantSm::new(SiteId(1), 0);
        let effects = sm.step(&Input::PrepareReq {
            tid: tid(),
            coordinator: SiteId(0),
            files: fids(),
            epoch: 0,
        });
        assert!(matches!(effects[0], Effect::CheckPrimary { .. }));
        // A failover promoted a replica elsewhere: this copy may be stale.
        let effects = sm.step(&Input::PrimaryChecked {
            tid: tid(),
            ok: false,
        });
        assert_eq!(
            effects,
            vec![Effect::Vote {
                tid: tid(),
                ok: false
            }]
        );
        assert!(!sm.is_prepared(tid()));
    }

    #[test]
    fn unknown_transaction_votes_no_under_presumed_abort() {
        let mut sm = ParticipantSm::new(SiteId(1), 0);
        sm.step(&Input::PrepareReq {
            tid: tid(),
            coordinator: SiteId(0),
            files: fids(),
            epoch: 0,
        });
        sm.step(&Input::PrimaryChecked {
            tid: tid(),
            ok: true,
        });
        let effects = sm.step(&Input::KnownChecked {
            tid: tid(),
            known: false,
        });
        assert_eq!(
            effects,
            vec![Effect::Vote {
                tid: tid(),
                ok: false
            }]
        );
    }

    #[test]
    fn reboot_kills_volatile_rounds_but_not_refusals() {
        let mut sm = ParticipantSm::new(SiteId(1), 0);
        sm.step(&Input::AbortReq {
            tid: tid(),
            files: fids(),
        });
        // Mid-flight round dies with the incarnation...
        sm.step(&Input::PrepareReq {
            tid: TransId::new(SiteId(0), 8),
            coordinator: SiteId(0),
            files: fids(),
            epoch: 0,
        });
        sm.step(&Input::Rebooted { epoch: 1 });
        let stale = sm.step(&Input::PrimaryChecked {
            tid: TransId::new(SiteId(0), 8),
            ok: true,
        });
        assert!(stale.is_empty(), "round must not survive the reboot");
        // ...but the refusal set survives: the machine outlives the kernel.
        assert!(sm.refuses(tid()));
    }

    #[test]
    fn fault_flags_disable_exactly_one_defense() {
        let faults = ParticipantFaults {
            skip_refused_check: true,
            ..ParticipantFaults::default()
        };
        let mut sm = ParticipantSm::with_faults(SiteId(1), 0, faults);
        sm.step(&Input::AbortReq {
            tid: tid(),
            files: fids(),
        });
        // Refusal check disabled: the historical bug is back...
        assert!(drive_prepare(&mut sm, 0));
        // ...but the epoch taint still holds.
        assert!(!drive_prepare(&mut sm, 5));
    }
}
