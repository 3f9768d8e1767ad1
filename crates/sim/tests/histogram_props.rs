//! Property tests for the log-linear latency histogram: merging shards is
//! associative, commutative, and byte-deterministic, so per-site (or
//! per-phase-run) histograms can be folded together in any order without
//! moving a single bucket — the invariant any whole-run decomposition
//! assembled from per-site registries relies on.

use proptest::prelude::*;

use locus_sim::{
    Account, CostModel, Histogram, HistogramSnapshot, SimDuration, SpanPhase, SpanRegistry,
};
use locus_types::SiteId;

/// Records a batch of values into a fresh histogram and snapshots it.
fn hist_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::default();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

fn merged(parts: &[HistogramSnapshot]) -> HistogramSnapshot {
    let mut acc = HistogramSnapshot::default();
    for p in parts {
        acc.merge(p);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// merge(merge(a, b), c) == merge(a, merge(b, c)), byte for byte.
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(0u64..(1 << 48), 0..64),
        b in proptest::collection::vec(0u64..(1 << 48), 0..64),
        c in proptest::collection::vec(0u64..(1 << 48), 0..64),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.to_bytes(), right.to_bytes());
    }

    /// merge(a, b) == merge(b, a).
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(0u64..(1 << 48), 0..64),
        b in proptest::collection::vec(0u64..(1 << 48), 0..64),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.to_bytes(), ba.to_bytes());
    }

    /// Sharding a value stream arbitrarily and folding the shard snapshots
    /// in any order reproduces the single-recorder histogram exactly:
    /// bucket assignment is a pure function of the value, and the counts
    /// are plain sums.
    #[test]
    fn sharded_merge_matches_single_recorder(
        values in proptest::collection::vec(0u64..(1 << 48), 0..128),
        cuts in proptest::collection::vec(0usize..128, 0..4),
        rotate in 0usize..4,
    ) {
        let single = hist_of(&values);

        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(values.len())).collect();
        bounds.push(0);
        bounds.push(values.len());
        bounds.sort_unstable();
        let mut shards: Vec<HistogramSnapshot> = bounds
            .windows(2)
            .map(|w| hist_of(&values[w[0]..w[1]]))
            .collect();
        // Fold the shards in a different order than they were cut.
        let n = shards.len();
        if n > 0 {
            shards.rotate_left(rotate % n);
        }
        let folded = merged(&shards);
        prop_assert_eq!(&folded, &single);
        prop_assert_eq!(folded.to_bytes(), single.to_bytes());
    }

    /// A recorded value's quantile representative is its bucket floor:
    /// never above the value, and (beyond the exact linear range) within
    /// the 1/16-octave bucket width below it — the histogram's bounded
    /// relative error.
    #[test]
    fn bucket_floor_bounds_relative_error(v in any::<u64>()) {
        let snap = hist_of(&[v]);
        let rep = snap.quantile_ns(0.5);
        prop_assert!(rep <= v);
        if v < (1 << 42) {
            // Bucket width is at most floor/16 once past the linear range.
            prop_assert!(v - rep <= rep / 16, "v={v} rep={rep}");
        }
    }

    /// Span-registry snapshots merge phase-wise with the same order
    /// independence: fold A then B equals fold B then A for every phase's
    /// counts, axes (the overlapped one included), and histogram bytes — and
    /// the merged virtual rows still add up.
    #[test]
    fn span_registry_merge_is_commutative(
        xs in proptest::collection::vec((0usize..10, any::<u32>()), 0..32),
        ys in proptest::collection::vec((0usize..10, any::<u32>()), 0..32),
    ) {
        let model = CostModel::default();
        let fill = |pairs: &[(usize, u32)]| {
            let reg = SpanRegistry::default();
            for &(p, total) in pairs {
                reg.record_wall(SpanPhase::ALL[p], total as u64, (total / 2) as u64);
                // A virtual span over a two-branch wave, so `overlapped_ns`
                // is exercised: one branch waits `total`, the other half.
                let mut acct = Account::new(SiteId(0));
                let branches = [total, total / 2].map(|ns| {
                    let mut b = Account::new(SiteId(0));
                    b.wait(SimDuration::from_nanos(ns as u64));
                    b
                });
                acct.absorb_parallel(&branches);
                reg.record_virt(SpanPhase::ALL[p], &model, &acct);
            }
            reg.snapshot()
        };
        let (sa, sb) = (fill(&xs), fill(&ys));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        for v in &ab.virt {
            prop_assert_eq!(v.instr_ns + v.disk_ns + v.net_ns - v.overlapped_ns, v.total_ns);
        }
        prop_assert_eq!(ab, ba);
    }
}
