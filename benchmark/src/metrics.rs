//! Every metric the benchmark reports: its name, unit, direction, and — for
//! the end-to-end ones — the share of the parent's median by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` at the
//! repository root repeats these tables; `tests/contract.rs` holds the two
//! to each other.

use locus_sim::SpanPhase;
use locus_types::Service;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// `Some` for end-to-end metrics only.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Same names on every workload.
///
/// Wall-clock figures come from the solo pass: one client on the process's
/// only thread, better quartile over 24 rounds (see `run::put_timed`).
/// Anything that involves the guest's second core swings by tens of percent
/// from run to run (measured: ten two-client `commit_local` runs spread 23%
/// on `ops_per_s` while the one-client latency in the same runs spread
/// 2.5%), so the two-client figures are per-layer metrics
/// (`client.contended_*`), without a bound.
///
/// No percentile beyond the median carries a bound. `p99_us` did, the widest
/// allowed, and spread past it (26% on `commit_dist`) when the driver
/// checked the benchmark on a busier host; the 90th percentile, tried in its
/// place, spread 23% on `commit_local`, whose latencies have a second mode
/// (18-21 us against 13-14) that holds between 5% and 20% of the requests
/// depending on the minute, so that the percentile's rank falls now in one
/// mode and now in the other. They are the per-layer `client.solo_p90_us`
/// and `client.solo_p99_us`. The tail still weighs on `ops_per_s`: with one
/// client in a closed loop it is the inverse of the *mean* latency.
///
/// Each wall-clock bound is about three times the widest spread ten runs of
/// one workload showed (`p50_us` 5%, `ops_per_s` and `cpu_us_per_op` 9%, all
/// on `read_shared`, whose 4 MiB working set feels the host's other guests
/// most).
///
/// `virt_ms_per_op` and `disk_ios_per_op` are the paper's own yardsticks
/// (Figure 6 latency on the 1985 cost model, Figure 5 I/O count) from the
/// count pass, where they repeat exactly for a seed and move only a little
/// between seeds. The modeled time has its own unit: it is computed, not
/// timed.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    [
        ("ops_per_s", "1/s", Higher, 0.25),
        ("p50_us", "us", Lower, 0.15),
        ("cpu_us_per_op", "us", Lower, 0.25),
        ("virt_ms_per_op", "model_ms", Lower, 0.02),
        ("disk_ios_per_op", "count", Lower, 0.05),
        ("setup_s", "s", Lower, 0.25),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    })
    .collect()
}

/// The span phases that never nest inside another phase on the paths the
/// workloads take. `commit` contains `prepare`, `flush` and the prepare
/// RPCs; `phase_two` contains `install` and the phase-two RPCs;
/// `lock_acquire` contains a remote lock's RPC. Everything a request's
/// modeled time holds beyond these four — reads, writes, seeks, unlocks and
/// their RPCs — is `sim.virt_other_ms_per_op`.
pub const TOP_LEVEL_PHASES: [SpanPhase; 4] = [
    SpanPhase::Begin,
    SpanPhase::Commit,
    SpanPhase::PhaseTwo,
    SpanPhase::LockAcquire,
];

/// Single-layer metrics. Names are `<crate>.<metric>`; the layers are this
/// repository's crates, plus `client` (the benchmark's own spans), `sim`
/// (the modeled-time decomposition) and `process`.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v = vec![
        // client: the benchmark's spans around its own calls (traced pass).
        def("client.op_us", "us", Lower),
        def("client.residual_share", "share", Lower),
        def("client.trace_overhead_share", "share", Lower),
        // client, a short solo pass: the tail, too unsteady on this host to
        // carry a bound.
        def("client.solo_p90_us", "us", Lower),
        def("client.solo_p99_us", "us", Lower),
        // client, contended pass: all of the workload's clients at once,
        // under the threaded driver's policy.
        def("client.contended_ops_per_s", "1/s", Higher),
        def("client.contended_p50_us", "us", Lower),
        def("client.contended_p99_us", "us", Lower),
        def("client.contended_cpu_us_per_op", "us", Lower),
        // core
        def("core.begin_us", "us", Lower),
        def("core.end_trans_us", "us", Lower),
        def("core.phase_two_us", "us", Lower),
        def("core.commits_per_op", "count", Higher),
        def("core.aborts_per_op", "count", Lower),
        def("core.recover_us", "us", Lower),
        def("core.coord_step_ns", "ns", Lower),
        def("core.participant_step_ns", "ns", Lower),
        // kernel
        def("kernel.lock_us", "us", Lower),
        def("kernel.lock_wait_us", "us", Lower),
        def("kernel.unlock_us", "us", Lower),
        def("kernel.read_us", "us", Lower),
        def("kernel.write_us", "us", Lower),
        def("kernel.seek_us", "us", Lower),
        def("kernel.pagecache_hit_rate", "share", Higher),
        def("kernel.prefetches_per_op", "count", Higher),
        def("kernel.local_fast_paths_per_op", "count", Higher),
        def("kernel.pagecache_read_ns", "ns", Lower),
        def("kernel.pagecache_insert_ns", "ns", Lower),
        // locks
        def("locks.granted_per_op", "count", Lower),
        def("locks.queued_per_op", "count", Lower),
        def("locks.cache_hits_per_op", "count", Higher),
        def("locks.list_request_ns", "ns", Lower),
        def("locks.manager_request_ns", "ns", Lower),
        def("locks.pump_ns", "ns", Lower),
        def("locks.cache_covers_ns", "ns", Lower),
        // net
        def("net.msgs_per_op", "count", Lower),
        def("net.batches_per_op", "count", Lower),
    ];
    for s in Service::ALL {
        v.push(def(format!("net.msgs_{}_per_op", s.name()), "count", Lower));
    }
    v.extend([
        def("net.rpc_ns", "ns", Lower),
        def("net.wire_encode_prepare_ns", "ns", Lower),
        def("net.wire_decode_prepare_ns", "ns", Lower),
        def("net.wire_encode_page_ns", "ns", Lower),
        def("net.wire_decode_page_ns", "ns", Lower),
        // wal
        def("wal.frames_per_op", "count", Lower),
        def("wal.flushes_per_op", "count", Lower),
        def("wal.frames_per_flush", "count", Higher),
        def("wal.append_ns", "ns", Lower),
        def("wal.barrier_ns", "ns", Lower),
        // fs
        def("fs.buffer_hit_rate", "share", Higher),
        def("fs.pages_direct_per_op", "count", Lower),
        def("fs.pages_diff_per_op", "count", Lower),
        def("fs.write_ns", "ns", Lower),
        def("fs.prepare_ns", "ns", Lower),
        def("fs.commit_prepared_ns", "ns", Lower),
        def("fs.diff_commit_ns", "ns", Lower),
        def("fs.read_hit_ns", "ns", Lower),
        def("fs.read_miss_ns", "ns", Lower),
        // disk
        def("disk.reads_per_op", "count", Lower),
        def("disk.writes_per_op", "count", Lower),
        def("disk.seq_writes_per_op", "count", Lower),
        def("disk.write_ns", "ns", Lower),
        def("disk.journal_flush_ns", "ns", Lower),
    ]);
    // sim: modeled time per span phase, and what no top-level phase covers.
    for p in SpanPhase::ALL {
        v.push(def(
            format!("sim.virt_{}_ms_per_op", p.name()),
            "model_ms",
            Lower,
        ));
    }
    v.extend([
        def("sim.virt_other_ms_per_op", "model_ms", Lower),
        // process
        def("process.peak_rss_mb", "MiB", Lower),
        def("process.sys_cpu_share", "share", Lower),
    ]);
    v
}

/// Measured values by metric name, in the order they were put.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} measured twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The values of exactly the metrics in `defs`, in that order. Panics on
    /// a metric that was defined but never measured: that is a bug in the
    /// benchmark, not a property of the run.
    pub fn in_order_of<'a>(&self, defs: &'a [MetricDef]) -> Vec<(&'a MetricDef, f64)> {
        defs.iter()
            .map(|d| {
                let v = self
                    .get(&d.name)
                    .unwrap_or_else(|| panic!("metric {} was never measured", d.name));
                (d, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::HashSet::new();
        for d in &all {
            assert!(seen.insert(d.name.clone()), "{} defined twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
        let setup = end_to_end()
            .into_iter()
            .find(|d| d.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(end_to_end().iter().all(|d| d
            .bound
            .is_some_and(|b| b > 0.0 && b <= 0.25 && b <= setup.bound.unwrap())));
    }
}
