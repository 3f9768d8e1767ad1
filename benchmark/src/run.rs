//! One run of one workload: which passes run for `--trace 0` and for
//! `--trace 1`, and how their measurements become named metrics.

use std::time::Duration;

use locus_sim::SpanPhase;
use locus_types::Service;

use crate::json::Json;
use crate::metrics::{self, MetricDef, Values, TOP_LEVEL_PHASES};
use crate::passes::{self, build, CountPass, Counts, Rounds, Tally, TimedPass};
use crate::stats;
use crate::trace::{self, SpanKind};
use crate::workloads::{Spec, Workload};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Wall seconds the timed pass measures, warm-up excluded.
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every pass so the whole suite finishes in seconds; the
    /// numbers are then only good for checking that the benchmark runs.
    pub smoke: bool,
    /// Where the traced pass's spans go.
    pub trace_dir: std::path::PathBuf,
}

/// Seconds one run measures unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 24;
/// Times the cluster is built per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Measured rounds of the solo timed pass; a round is `--seconds` / ROUNDS
/// long (1 s by default). Many short rounds rather than few long ones: a
/// neighbour's episode that lasts a second or two then spoils a few rounds,
/// not a quarter of them.
const ROUNDS: usize = 24;
/// Unmeasured first round of the solo timed pass. `read_shared`'s tail
/// latency kept falling for about three seconds after the count pass.
const WARMUP: Duration = Duration::from_secs(3);
/// The timed passes of a `--trace 1` run are short: a solo one for
/// `client.solo_p90_us` and `client.solo_p99_us`, then the contended one. Each is this many rounds of
/// `--seconds` / ROUNDS after a warm-up of one such round.
const LAYER_ROUNDS: usize = 5;
/// The traced pass records at most this many spans per request before the
/// recorder has to grow (a scan is 1 op + 2 seeks + lock + 64 reads + unlock).
const SPANS_PER_OP: usize = 72;
/// Raw spans are written for this many requests; the summary covers all.
const TRACE_FILE_OPS: u32 = 500;

pub struct RunResult {
    pub spec: Spec,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub defs: Vec<MetricDef>,
    pub values: Values,
    /// Lines for a person: spreads, sample counts, violated expectations.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The line the driver reads.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .values
            .in_order_of(&self.defs)
            .into_iter()
            .map(|(d, v)| {
                (
                    d.name.clone(),
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
                )
            });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn per_op(count: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        count as f64 / ops as f64
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    per_op(hits, hits + misses)
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn count_ops<W: Workload>(args: &RunArgs) -> u32 {
    if args.smoke {
        W::SPEC.count_ops / 20
    } else {
        W::SPEC.count_ops
    }
}

fn finish<W: Workload>(
    defs: Vec<MetricDef>,
    values: Values,
    mut tally: Tally,
    violations: Vec<String>,
    mut notes: Vec<String>,
) -> RunResult {
    if let Some(why) = &tally.first_failure {
        notes.push(format!("first failed request: {why}"));
    }
    for v in violations.iter().take(10) {
        notes.push(format!("VIOLATION {v}"));
    }
    // A lost or mismatched record is a failed request as far as the user is
    // concerned, whatever the call returned at the time.
    tally.failed += violations.len() as u64;
    RunResult {
        spec: W::SPEC,
        correct: violations.is_empty() && tally.wrong_answers == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        defs,
        values,
        notes,
    }
}

/// The count pass alone, on a freshly built cluster: what the determinism
/// test repeats.
pub fn count_only<W: Workload>(seed: u64, n: u32) -> locus_types::Result<CountPass> {
    let mut built = build::<W>()?;
    Ok(passes::count_pass::<W>(
        &built.cluster,
        &mut built.workers[0],
        seed,
        n,
        None,
    ))
}

/// `--trace 0`: set-up several times, then on one client the count pass
/// and the solo timed pass, then the final check. Reports the end-to-end
/// metrics.
pub fn run_end_to_end<W: Workload>(args: &RunArgs) -> locus_types::Result<RunResult> {
    let setups = if args.smoke { 2 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut built = build::<W>()?;
    setup_s.push(built.setup_s);
    while setup_s.len() < setups {
        built = build::<W>()?;
        setup_s.push(built.setup_s);
    }

    let count = passes::count_pass::<W>(
        &built.cluster,
        &mut built.workers[0],
        args.seed,
        count_ops::<W>(args),
        None,
    );
    let (warmup, rounds) = if args.smoke {
        (WARMUP / 12, 3)
    } else {
        (WARMUP, ROUNDS)
    };
    let timed = passes::timed_pass::<W>(
        &built.cluster,
        &mut built.workers[..1],
        args.seed,
        false,
        Rounds {
            warmup,
            rounds,
            round_len: Duration::from_secs_f64(args.seconds / rounds as f64),
        },
    );
    let violations = W::verify(&built.cluster, &built.workers)?;

    let mut values = Values::default();
    let mut notes = Vec::new();
    put_timed(&mut values, &timed, "", &mut notes);
    let n = count.tally.attempted;
    values.put("virt_ms_per_op", ns_to_ms(count.virt_ns) / n as f64);
    values.put(
        "disk_ios_per_op",
        per_op(count.counts.counters.total_ios(), n),
    );
    values.put("setup_s", stats::median(&setup_s));
    notes.push(format!("setup_s: {setups} set-ups, {setup_s:.4?}"));
    notes.push(format!(
        "count pass: {n} requests by one client in {:.2} s; net.msgs_per_op {:.3}",
        count.elapsed_s,
        per_op(count.counts.counters.messages_sent, n)
    ));

    let mut tally = count.tally;
    tally.absorb(timed.tally);
    Ok(finish::<W>(
        metrics::end_to_end(),
        values,
        tally,
        violations,
        notes,
    ))
}

/// Throughput, latency and processor time of a timed pass; `prefix` names
/// the pass. All five figures are put; the run's metric table picks the ones
/// it reports.
///
/// Each figure is its *better quartile* over the rounds — the third quartile
/// of throughput, the first of latency and processor time. A neighbour on a
/// shared host can only slow a round down, and does so for seconds at a
/// time (measured on `hot_records`: rounds sit at p50 11.7 us or at 17.8 us,
/// nothing between), so the undisturbed rounds say what the program costs
/// and the disturbed ones say what the host was doing. Over 16 runs in a
/// noisy quarter of an hour the median of rounds ranged 11.5-15.9 us on
/// `p50_us` and 57k-80k on `ops_per_s`, the better quartile 11.5-11.9 us
/// and 67k-81k (ten rounds of 2 s). A quartile rather than the best round, so that something
/// slow in the program which recurs in more than a quarter of the rounds
/// still shows. The median and both quartiles are printed beside it.
fn put_timed(values: &mut Values, timed: &TimedPass, prefix: &str, notes: &mut Vec<String>) {
    let over_rounds =
        |f: fn(&passes::Round) -> f64| -> Vec<f64> { timed.rounds.iter().map(f).collect() };
    for (name, higher_is_better, per_round) in [
        ("ops_per_s", true, over_rounds(|r| r.ops_per_s)),
        ("p50_us", false, over_rounds(|r| r.p50_us)),
        ("p90_us", false, over_rounds(|r| r.p90_us)),
        ("p99_us", false, over_rounds(|r| r.p99_us)),
        ("cpu_us_per_op", false, over_rounds(|r| r.cpu_us_per_op)),
    ] {
        let (q1, med, q3) = stats::quartiles(&per_round);
        let better = if higher_is_better { q3 } else { q1 };
        values.put(format!("{prefix}{name}"), better);
        notes.push(format!(
            "{prefix}{name}: better quartile {better:.2} (median {med:.2}, quartiles \
             {q1:.2} .. {q3:.2}) of rounds {per_round:.2?}"
        ));
    }
    let min_samples = timed.rounds.iter().map(|r| r.samples).min().unwrap_or(0);
    notes.push(format!(
        "{prefix}p99_us: smallest round has {min_samples} samples, {} beyond its p99; \
         highest percentile it supports is {:?}",
        stats::samples_beyond(min_samples, 0.99),
        stats::highest_supported_percentile(min_samples)
    ));
}

/// The per-request counts every layer keeps, from one pass's counter deltas.
fn put_counts(values: &mut Values, c: &Counts, ops: u64) {
    let k = &c.counters;
    values.put("core.commits_per_op", per_op(k.txns_committed, ops));
    values.put("core.aborts_per_op", per_op(k.txns_aborted, ops));
    values.put("kernel.prefetches_per_op", per_op(k.prefetches, ops));
    values.put(
        "kernel.local_fast_paths_per_op",
        per_op(k.local_fast_paths, ops),
    );
    values.put("locks.granted_per_op", per_op(k.locks_granted, ops));
    values.put("locks.cache_hits_per_op", per_op(k.lock_cache_hits, ops));
    values.put("net.msgs_per_op", per_op(k.messages_sent, ops));
    values.put("net.batches_per_op", per_op(k.batches_sent, ops));
    for s in Service::ALL {
        values.put(
            format!("net.msgs_{}_per_op", s.name()),
            per_op(k.msgs_for(s), ops),
        );
    }
    values.put("wal.frames_per_op", per_op(c.journal_frames, ops));
    values.put("wal.flushes_per_op", per_op(c.journal_flushes, ops));
    values.put("fs.buffer_hit_rate", rate(k.buffer_hits, k.buffer_misses));
    values.put("disk.reads_per_op", per_op(k.disk_reads, ops));
    values.put("disk.writes_per_op", per_op(k.disk_writes, ops));
    values.put("disk.seq_writes_per_op", per_op(k.disk_seq_writes, ops));
}

/// The modeled-time decomposition of the count pass.
fn put_virt(values: &mut Values, count: &CountPass, notes: &mut Vec<String>) {
    let ops = count.tally.attempted;
    for p in SpanPhase::ALL {
        values.put(
            format!("sim.virt_{}_ms_per_op", p.name()),
            ns_to_ms(count.counts.virt_phase_ns[p.index()]) / ops as f64,
        );
    }
    let top: u64 = TOP_LEVEL_PHASES
        .iter()
        .map(|p| count.counts.virt_phase_ns[p.index()])
        .sum();
    if top > count.virt_ns {
        notes.push(format!(
            "EXPECTATION VIOLATED: top-level phases hold {top} modeled ns, requests only {}",
            count.virt_ns
        ));
    }
    values.put(
        "sim.virt_other_ms_per_op",
        ns_to_ms(count.virt_ns.saturating_sub(top)) / ops as f64,
    );
}

/// The † metrics: counts that depend on how clients interleave, so they are
/// read over the timed pass.
fn put_contended(values: &mut Values, timed: &TimedPass) {
    let k = &timed.counts.counters;
    values.put(
        "kernel.pagecache_hit_rate",
        rate(k.page_cache_hits, k.page_cache_misses),
    );
    values.put("locks.queued_per_op", per_op(k.locks_queued, timed.ops));
    // Differencing needs two owners with uncommitted records on one page,
    // which one client alone never produces.
    values.put(
        "fs.pages_direct_per_op",
        per_op(k.pages_committed_direct, timed.ops),
    );
    values.put(
        "fs.pages_diff_per_op",
        per_op(k.pages_committed_diff, timed.ops),
    );
    values.put(
        "wal.frames_per_flush",
        per_op(timed.counts.journal_frames, timed.counts.journal_flushes),
    );
    values.put(
        "kernel.lock_wait_us",
        timed.parked_ns as f64 / 1_000.0 / timed.ops.max(1) as f64,
    );
    values.put(
        "process.sys_cpu_share",
        timed.cpu_sys_s / (timed.cpu_user_s + timed.cpu_sys_s).max(1e-9),
    );
}

/// The traced pass's spans as per-request times, and the check that they
/// add up.
fn put_spans(values: &mut Values, sum: &trace::TraceSummary, notes: &mut Vec<String>) {
    values.put("client.op_us", sum.us_per_op(SpanKind::Op));
    values.put(
        "client.residual_share",
        sum.self_time(SpanKind::Op) as f64 / sum.total(SpanKind::Op).max(1) as f64,
    );
    let children = [
        ("core.begin_us", SpanKind::BeginTrans),
        ("core.end_trans_us", SpanKind::EndTrans),
        ("core.phase_two_us", SpanKind::RunAsyncWork),
        ("kernel.lock_us", SpanKind::Lock),
        ("kernel.unlock_us", SpanKind::Unlock),
        ("kernel.read_us", SpanKind::Read),
        ("kernel.write_us", SpanKind::Write),
        ("kernel.seek_us", SpanKind::Seek),
    ];
    let mut covered = 0;
    for (name, kind) in children {
        values.put(name, sum.us_per_op(kind));
        covered += sum.total(kind);
    }
    if covered + sum.self_time(SpanKind::Op) != sum.total(SpanKind::Op) {
        notes.push(format!(
            "EXPECTATION VIOLATED: child spans {covered} ns + op self time {} ns != op time {} ns",
            sum.self_time(SpanKind::Op),
            sum.total(SpanKind::Op)
        ));
    }
}

/// `--trace 1`: the count pass on one cluster; on a second, identically
/// built one the same requests again with spans recorded, then the fault
/// step; the probes; and last, back on the first cluster, the contended
/// pass. Reports the per-layer metrics.
pub fn run_per_layer<W: Workload>(args: &RunArgs) -> locus_types::Result<RunResult> {
    let n = count_ops::<W>(args);
    let mut values = Values::default();
    let mut notes = Vec::new();

    // Everything that runs on this thread alone comes first; the contended
    // pass, which spawns the client threads, comes last (see `timed_pass`).
    let mut a = build::<W>()?;
    let count = passes::count_pass::<W>(&a.cluster, &mut a.workers[0], args.seed, n, None);
    values.put("process.peak_rss_mb", stats::process_peak_rss_mb());
    put_counts(&mut values, &count.counts, count.tally.attempted);
    put_virt(&mut values, &count, &mut notes);

    // The tail latency of one client alone. It does not repeat well enough on
    // this host to carry a bound (see the README), so it is reported here.
    let layer_rounds = |rounds| Rounds {
        warmup: Duration::from_secs_f64(args.seconds / ROUNDS as f64),
        rounds,
        round_len: Duration::from_secs_f64(args.seconds / ROUNDS as f64),
    };
    let rounds = if args.smoke { 3 } else { LAYER_ROUNDS };
    let solo = passes::timed_pass::<W>(
        &a.cluster,
        &mut a.workers[..1],
        args.seed,
        false,
        layer_rounds(rounds),
    );
    put_timed(&mut values, &solo, "client.solo_", &mut notes);

    let mut b = build::<W>()?;
    let traced = passes::count_pass::<W>(
        &b.cluster,
        &mut b.workers[0],
        args.seed,
        n,
        Some(SPANS_PER_OP),
    );
    if traced.counts != count.counts {
        notes.push(
            "EXPECTATION VIOLATED: the traced pass's counts differ from the count pass's \
             (same seed, same requests, fresh cluster): the counts do not repeat"
                .into(),
        );
    }
    let sum = trace::summarize(&traced.spans);
    put_spans(&mut values, &sum, &mut notes);
    values.put(
        "client.trace_overhead_share",
        traced.elapsed_s / count.elapsed_s.max(1e-9) - 1.0,
    );
    let fault = passes::fault_step::<W>(&b.cluster, &mut b.workers[0]);
    values.put("core.recover_us", fault.recover_us);
    let mut violations = W::verify(&b.cluster, &b.workers)?;
    notes.push(format!(
        "fault step: {} commits acknowledged without phase two, every site crashed and \
         recovered, {} violations after recovery",
        fault.tally.attempted - fault.tally.failed,
        violations.len()
    ));
    drop(b);

    std::fs::create_dir_all(&args.trace_dir).map_err(io_err)?;
    let path = args.trace_dir.join(format!("trace-{}.json", W::SPEC.name));
    let file = trace::to_json(W::SPEC.name, args.seed, &traced.spans, TRACE_FILE_OPS);
    std::fs::write(&path, file.render()).map_err(io_err)?;
    notes.push(format!(
        "traced pass: {} spans over {} requests, head written to {}",
        traced.spans.len(),
        sum.ops,
        path.display()
    ));

    crate::probes::run_all(&mut values, args.smoke);

    let timed = passes::timed_pass::<W>(
        &a.cluster,
        &mut a.workers,
        args.seed,
        true,
        layer_rounds(rounds),
    );
    put_timed(&mut values, &timed, "client.contended_", &mut notes);
    put_contended(&mut values, &timed);
    violations.extend(W::verify(&a.cluster, &a.workers)?);
    check_expectations(&W::SPEC, &values, &mut notes);

    let mut tally = count.tally;
    tally.absorb(solo.tally);
    tally.absorb(timed.tally);
    tally.absorb(traced.tally);
    tally.absorb(fault.tally);
    Ok(finish::<W>(
        metrics::per_layer(),
        values,
        tally,
        violations,
        notes,
    ))
}

/// The predictions that are exact, checked: what this workload bypasses
/// reads 0, what it exercises does not, and the benchmark's own overhead
/// stays a small share of a traced op.
fn check_expectations(spec: &Spec, values: &Values, notes: &mut Vec<String>) {
    let get = |name: &str| values.get(name).unwrap_or(f64::NAN);
    for name in spec.bypasses {
        if get(name) != 0.0 {
            notes.push(format!(
                "EXPECTATION VIOLATED: {name} is {} on {}, which is meant to bypass it",
                get(name),
                spec.name
            ));
        }
    }
    for name in spec.exercises {
        if get(name).is_nan() || get(name) <= 0.0 {
            notes.push(format!(
                "EXPECTATION VIOLATED: {name} is {} on {}, which is meant to exercise it",
                get(name),
                spec.name
            ));
        }
    }
    if get("client.residual_share") > 0.10 {
        notes.push(format!(
            "EXPECTATION VIOLATED: the benchmark's own share of a traced op is {:.3}, over 0.10",
            get("client.residual_share")
        ));
    }
}

fn io_err(e: std::io::Error) -> locus_types::Error {
    locus_types::Error::InvalidArgument(format!("cannot write the trace: {e}"))
}
