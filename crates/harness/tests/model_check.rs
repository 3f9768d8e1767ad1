//! Small-scope exhaustive model checking of the sans-IO 2PC machines.
//!
//! These tests keep the cheap scopes in the per-commit suite: the
//! 2-site/1-txn scope (full fault budgets, a few thousand states) is
//! exhausted on every `cargo test`, and both bug-reintroduction runs must
//! produce a concrete counterexample trace. The larger scopes
//! (3-site/1-txn, 2-site/2-txn, 3-site/2-txn) run through the `locus-mc`
//! binary in the CI model-check job where the state/time budget lives;
//! their measured sizes are recorded in EXPERIMENTS.md.

use locus_harness::mc::{check, McConfig};

#[test]
fn two_site_one_txn_scope_is_exhausted_without_violations() {
    let cfg = McConfig::new(2, 1);
    let report = check(&cfg);
    assert!(
        report.complete,
        "2-site/1-txn scope must exhaust within the default state budget"
    );
    assert!(
        report.violation.is_none(),
        "2PC invariant violated: {:?}",
        report.violation
    );
    // The scope is deterministic, so the count is pinned: a drift means the
    // transition system changed and EXPERIMENTS.md needs re-measuring.
    assert_eq!(report.distinct_states, 6906, "state count drifted");
    // Every protocol path in scope must actually fire. Spot-check the
    // load-bearing effect kinds rather than pinning the full set.
    for effect in [
        "LogStart",
        "SendPrepare",
        "RaiseFences",
        "LogStatus",
        "QueuePhase2",
        "DropFence",
        "PurgeCoordLog",
        "Install",
        "Rollback",
        "NoteAborted",
        "StageAndLog",
        "PurgePrepareLog",
        "QueryStatus",
        "InstallRecovered",
    ] {
        assert!(
            report.effects_seen.contains(effect),
            "effect {effect} never exercised in the 2-site/1-txn scope; seen: {:?}",
            report.effects_seen
        );
    }
}

#[test]
fn disabling_the_refusal_transition_yields_a_counterexample() {
    let mut cfg = McConfig::new(2, 1);
    cfg.faults.skip_refused_check = true;
    let report = check(&cfg);
    let v = report
        .violation
        .expect("checker must catch a participant that forgets its refusals");
    assert!(
        v.invariant.starts_with("refusal-set-honored"),
        "wrong invariant: {}",
        v.invariant
    );
    // BFS guarantees a shortest trace; the known witness is three steps
    // (start, unilateral rollback, late prepare delivery).
    assert!(
        !v.trace.is_empty() && v.trace.len() <= 4,
        "expected a short concrete trace, got {} steps: {:?}",
        v.trace.len(),
        v.trace
    );
}

#[test]
fn disabling_the_boot_epoch_taint_yields_a_counterexample() {
    let mut cfg = McConfig::new(2, 1);
    cfg.faults.skip_epoch_check = true;
    let report = check(&cfg);
    let v = report
        .violation
        .expect("checker must catch a rebooted participant voting on a stale promise");
    assert!(
        v.invariant.starts_with("boot-epoch-honored"),
        "wrong invariant: {}",
        v.invariant
    );
    assert!(
        !v.trace.is_empty() && v.trace.len() <= 6,
        "expected a short concrete trace, got {} steps: {:?}",
        v.trace.len(),
        v.trace
    );
}

#[test]
fn both_remote_only_scopes_are_exhausted_without_violations() {
    // Over two sites the one participant is not the requester, so it
    // decides; over three the requester holds no file and its two remote
    // storage sites decide by their votes (`commit_dist`'s shape), asking
    // each other when in doubt. Both scopes deliver the requester's forgets.
    for (sites, pinned, own) in [(2, 572, "Forget"), (3, 22355, "NoteCommitPoint")] {
        let mut cfg = McConfig::new(sites, 1);
        cfg.remote_only = true;
        let report = check(&cfg);
        assert!(report.complete && report.violation.is_none(), "{report:?}");
        assert_eq!(
            report.distinct_states, pinned,
            "{sites} sites: state count drifted"
        );
        assert!(report.effects_seen.contains(own), "{sites} sites");
    }
}

#[test]
fn skipping_the_delegate_record_yields_a_counterexample() {
    let mut cfg = McConfig::new(2, 1);
    cfg.remote_only = true;
    cfg.faults.skip_delegate_record = true;
    let report = check(&cfg);
    let v = report
        .violation
        .expect("checker must catch a delegate that forgets a commit its requester never heard");
    assert!(
        v.invariant.starts_with("commit-abort-exclusion"),
        "wrong invariant: {}",
        v.invariant
    );
    // Start, the delegation, its answer lost, the inquiry that finds no
    // record and aborts.
    assert_eq!(v.trace.len(), 4, "{:?}", v.trace);
}

/// Runs the 3-site remote-only scope with one defence of the delegates
/// among peers broken, and returns the violated invariant and its trace.
fn peers_scope_with(faults: impl FnOnce(&mut McConfig)) -> (String, Vec<String>) {
    let mut cfg = McConfig::new(3, 1);
    cfg.remote_only = true;
    faults(&mut cfg);
    let v = check(&cfg)
        .violation
        .expect("checker must catch the broken defence");
    (v.invariant, v.trace)
}

#[test]
fn forgetting_before_every_install_yields_a_counterexample() {
    let (invariant, trace) = peers_scope_with(|c| c.faults.forget_before_all_installed = true);
    // Site 2 recovers its yes, hears site 1's, commits and forgets at once;
    // the duplicated delegation then finds no record, votes no, and drops
    // the fence while site 1 still holds its prepare log.
    assert!(
        invariant.starts_with("fence-holds-through-phase-two"),
        "{invariant}: {trace:?}"
    );
    assert_eq!(trace.len(), 6, "{trace:?}");
}

#[test]
fn presuming_abort_in_doubt_yields_a_counterexample() {
    let (invariant, trace) = peers_scope_with(|c| c.faults.skip_peer_inquiry = true);
    // Both yes votes are durable — the commit point — and a delegate that
    // reboots presumes abort instead of asking its peer.
    assert!(
        invariant.starts_with("commit-abort-exclusion"),
        "{invariant}: {trace:?}"
    );
    assert_eq!(trace.len(), 5, "{trace:?}");
}
