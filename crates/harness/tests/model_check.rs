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
    assert_eq!(report.distinct_states, 2801, "state count drifted");
    // Every protocol path in scope must actually fire. Spot-check the
    // load-bearing effect kinds rather than pinning the full set. (A
    // prepare record is never found without the record of its site's vote
    // here: the model takes a site's prepare and its record's force as one
    // step, so the prepare-record recovery path is left to the crash-point
    // tests.)
    for effect in [
        "SendPrepare",
        "SendDelegate",
        "LogRecord",
        "RaiseFences",
        "LogStatus",
        "QueuePhase2",
        "DropFence",
        "PurgeCoordLog",
        "FinishHere",
        "Install",
        "Rollback",
        "NoteAborted",
        "StageAndLog",
        "NoteCommitPoint",
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
    // BFS guarantees a shortest trace; the known witness is four steps
    // (start, unilateral rollback, re-dirty, late delegation).
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
    // each other when in doubt — or when a request needs a lock their
    // transaction holds (`wanted`, which only a yes among peers answers, so
    // it adds states to the second scope alone). Both scopes deliver the
    // requester's forgets.
    for (sites, pinned, own) in [(2, 522, "Forget"), (3, 44625, "NoteCommitPoint")] {
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
    // Both yes votes are durable. Site 1, wanted, hears site 2's, commits
    // and forgets at once; site 2, wanted, then finds no record at site 1,
    // and a site with no record aborts.
    assert!(
        invariant.starts_with("commit-abort-exclusion"),
        "{invariant}: {trace:?}"
    );
    assert_eq!(trace.len(), 5, "{trace:?}");
}

#[test]
fn presuming_abort_in_doubt_yields_a_counterexample() {
    let (invariant, trace) = peers_scope_with(|c| c.faults.skip_peer_inquiry = true);
    // Both yes votes are durable — the commit point — and a delegate that
    // is wanted presumes abort instead of asking its peer.
    assert!(
        invariant.starts_with("commit-abort-exclusion"),
        "{invariant}: {trace:?}"
    );
    assert_eq!(trace.len(), 4, "{trace:?}");
}

#[test]
fn a_wanted_delegate_that_presumes_commit_yields_a_counterexample() {
    let (invariant, trace) = peers_scope_with(|c| c.faults.wanted_presumes_commit = true);
    // Site 1's yes is the only one; wanted, it commits on it alone, and
    // site 2 loses the writes it never voted on.
    assert!(
        invariant.starts_with("no-lost-committed-writes"),
        "{invariant}: {trace:?}"
    );
    assert_eq!(trace.len(), 4, "{trace:?}");
    assert!(trace[2].starts_with("wanted"), "{trace:?}");
}

#[test]
fn a_requester_that_presumes_abort_when_cut_off_yields_a_counterexample() {
    let mut cfg = McConfig::new(2, 1);
    cfg.faults.requester_presumes_abort = true;
    let v = check(&cfg)
        .violation
        .expect("checker must catch a requester that aborts on its own");
    // Both yes votes are durable — the commit point — when a partition
    // cuts the requester off, and it tells its caller the transaction
    // aborted.
    assert!(
        v.invariant.starts_with("commit-abort-exclusion"),
        "{}: {:?}",
        v.invariant,
        v.trace
    );
    assert_eq!(v.trace.len(), 3, "{:?}", v.trace);
}
