//! The count pass must repeat: with one client and one seed every counter
//! the program keeps comes out the same, run after run — that is what lets
//! a later change be judged on a count instead of on a noisy clock.

use locus_benchmark::metrics::end_to_end;
use locus_benchmark::run::count_only;
use locus_benchmark::workloads::{CommitDist, CommitLocal, HotRecords, ReadShared, Workload};

fn per_op(count: u64, ops: u64) -> f64 {
    count as f64 / ops as f64
}

fn within(a: f64, b: f64, share: f64) -> bool {
    (a - b).abs() <= share * a.abs().max(b.abs())
}

fn check<W: Workload>() {
    let name = W::SPEC.name;
    // A quarter of the real pass: long enough for the cross-seed figures to
    // settle, short enough for a debug build.
    let n = W::SPEC.count_ops / 4;
    let first = count_only::<W>(7, n).expect("count pass runs");
    let again = count_only::<W>(7, n).expect("count pass runs");
    assert_eq!(
        first.tally.failed, 0,
        "{name}: {:?}",
        first.tally.first_failure
    );
    assert_eq!(first.tally.attempted, u64::from(n));
    assert_eq!(
        first.counts, again.counts,
        "{name}: counts differ between two runs of seed 7"
    );
    assert_eq!(first.virt_ns, again.virt_ns, "{name}: modeled time differs");

    let other = count_only::<W>(8, n).expect("count pass runs");
    assert_eq!(
        other.tally.failed, 0,
        "{name}: {:?}",
        other.tally.first_failure
    );
    let ops = u64::from(n);
    let msgs =
        |c: &locus_benchmark::passes::CountPass| per_op(c.counts.counters.messages_sent, ops);
    let ios = |c: &locus_benchmark::passes::CountPass| per_op(c.counts.counters.total_ios(), ops);
    assert!(
        within(msgs(&first), msgs(&other), 0.01),
        "{name}: msgs/op {} vs {} across seeds",
        msgs(&first),
        msgs(&other)
    );
    let bound = end_to_end()
        .into_iter()
        .find(|d| d.name == "disk_ios_per_op")
        .and_then(|d| d.bound)
        .expect("disk_ios_per_op is an end-to-end metric");
    assert!(
        within(ios(&first), ios(&other), bound),
        "{name}: I/Os per op {} vs {} across seeds, bound {bound}",
        ios(&first),
        ios(&other)
    );
}

#[test]
fn commit_local_counts_repeat() {
    check::<CommitLocal>();
}

#[test]
fn commit_dist_counts_repeat() {
    check::<CommitDist>();
}

#[test]
fn read_shared_counts_repeat() {
    check::<ReadShared>();
}

#[test]
fn hot_records_counts_repeat() {
    check::<HotRecords>();
}
