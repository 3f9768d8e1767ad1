//! Determinism of the latency-decomposition reports: the canonical
//! decomposition workload and the seed-1 chaos run must render byte-identical
//! tables run-to-run. The table is a committed artifact (EXPERIMENTS.md); if
//! two identical runs ever disagree, every comparison against it is noise.

use locus_harness::chaos::{run_seed, ChaosConfig};
use locus_harness::experiments::decomposition_workload;
use locus_harness::report::decomposition_table;
use locus_sim::{CostModel, SpanPhase};

/// The canonical workload behind the Figure-6 table is fully deterministic:
/// two runs produce a byte-identical decomposition table.
#[test]
fn decomposition_workload_json_is_reproducible() {
    let a = decomposition_workload(CostModel::default());
    let b = decomposition_workload(CostModel::default());
    assert_eq!(a, b, "span snapshots diverged between identical runs");
    assert_eq!(
        decomposition_table("pinned", &a),
        decomposition_table("pinned", &b)
    );
}

/// The canonical workload exercises every span phase the deterministic
/// driver can emit — a report with silent zero rows would hide a
/// wiring regression.
#[test]
fn decomposition_workload_covers_all_virtual_phases() {
    let snap = decomposition_workload(CostModel::default());
    for phase in SpanPhase::ALL {
        assert!(
            snap.virt_phase(phase).count > 0,
            "phase {} recorded no virtual spans",
            phase.name()
        );
    }
    // Virtual spans only: the script driver never touches the wall bank.
    assert!(snap.wall.iter().all(|p| p.count == 0));
}

/// Seed-1 chaos decomposition is as deterministic as its event trace: the
/// same seed yields the same spans, hence the same table rows, run-to-run.
#[test]
fn seed_1_chaos_decomposition_is_reproducible() {
    let a = run_seed(&ChaosConfig::with_seed(1));
    let b = run_seed(&ChaosConfig::with_seed(1));
    assert!(a.ok() && b.ok(), "seed 1 must stay clean");
    assert_eq!(
        a.spans, b.spans,
        "seed-1 span decomposition diverged between identical runs"
    );
    assert_eq!(
        decomposition_table("seed 1", &a.spans),
        decomposition_table("seed 1", &b.spans)
    );
    // The chaos workload commits transactions, so the commit pipeline's
    // spans must be present.
    assert!(a.spans.virt_phase(SpanPhase::Commit).count > 0);
    assert!(a.spans.virt_phase(SpanPhase::Flush).count > 0);
}
