//! Contended-throughput scaling benchmark for the per-site hot paths.
//!
//! Drives N OS threads of lock and commit workloads through the threaded
//! harness against one site, at 1/2/4/8 threads, and reports ops/sec plus
//! p50/p99 per-operation latency for each phase:
//!
//! * `lock_distinct`   — each thread lock/unlock-cycles its own file; the
//!   threads contend on the site's shared structures (lock-manager stripes,
//!   process-table stripes, event log), not on each other's ranges. This is
//!   the headline scalability number.
//! * `lock_same_file`  — every thread cycles a disjoint 8-byte range of one
//!   shared file: all requests serialize on that file's lock list, so this
//!   bounds the single-stripe worst case.
//! * `lock_handoff`    — every thread queues on the *same* 8-byte range:
//!   each cycle is a blocking lock that parks until the previous holder
//!   unlocks. This measures grant-wakeup latency (the old driver polled on a
//!   50 ms timer here; wakeups are now targeted per pid).
//! * `commit_distinct` — each thread runs one-write transactions against its
//!   own file (begin, write, end), exercising the transaction path end to
//!   end.
//! * `commit_group`    — the same commit workload with a wider (100 µs)
//!   group-commit gather window on the home volume: barrier leaders that
//!   catch another committer mid-barrier hold the flush open so both
//!   batches land in one transfer. The per-phase `frames_per_flush` field
//!   is the group-commit evidence: > 1 means multiple journal records per
//!   stable barrier (the old per-record KV layout was 1.0 by definition).
//!   On a single-core host barriers rarely overlap, so the window seldom
//!   opens and `commit_group` ≈ `commit_distinct` — the ladder only
//!   separates on real cores.
//! * `read_hot`        — each thread re-reads 64 bytes of its own file on a
//!   *remote* storage site (two-site cluster) under a held shared lock.
//!   After the first miss every read is served from the per-site page
//!   cache: `cache_hit_rate` ≈ 1 and `remote_msgs_per_op` ≈ 0 are asserted
//!   (Section 5.1: the token holder "may use local copies").
//! * `read_cold`       — the same workload with the reader's page cache
//!   disabled: every read is a remote RPC. `read_hot` must beat this by at
//!   least 2x at one thread; the gap is the cache's whole value.
//! * `read_replica`    — the cold workload again (page cache still off),
//!   but each bench file carries a synced replica at the worker site, so
//!   non-transactional reads are served from the local copy instead of
//!   crossing the wire. The gate is on traffic, not time: `read_replica`
//!   must send at most half the remote messages per read that `read_cold`
//!   does (Section 5.2: replicas offload the primary's read load).
//!
//! Note that wall-clock *scaling* across the thread ladder is only
//! meaningful on a multi-core host; on a single-core container the distinct
//! phases hold flat and only `lock_handoff` shows the concurrency win.
//!
//! ```text
//! bench_scaling                        # full run, writes BENCH_scaling.json
//! bench_scaling --quick                # CI-sized run
//! bench_scaling --out path.json        # choose the report path
//! bench_scaling --baseline base.json   # exit 1 on >20% 1-thread regression
//! bench_scaling --threads 1,2,4,8      # override the thread ladder
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use locus_core::manager::EndOutcome;
use locus_harness::cluster::Cluster;
use locus_harness::report::{decomposition_table, JsonObj, Report};
use locus_harness::threaded::ThreadCtx;
use locus_sim::SpanRegistrySnapshot;
use locus_types::{LockRequestMode, SiteId};

/// A single-thread throughput drop beyond this fraction vs the baseline
/// fails the run (CI regression gate). The same fraction bounds the
/// commit-phase p99 latency rise and the frames-per-flush drop.
const REGRESSION_TOLERANCE: f64 = 0.20;

struct Args {
    quick: bool,
    out: PathBuf,
    baseline: Option<PathBuf>,
    threads: Vec<usize>,
}

fn usage(err: &str) -> ! {
    eprintln!("bench_scaling: {err}");
    eprintln!("usage: bench_scaling [--quick] [--out FILE] [--baseline FILE] [--threads A,B,..]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: PathBuf::from("BENCH_scaling.json"),
        baseline: None,
        threads: vec![1, 2, 4, 8],
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value("--out")),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline"))),
            "--threads" => {
                let v = value("--threads");
                args.threads = v
                    .split(',')
                    .map(|t| t.parse().unwrap_or_else(|_| usage("bad --threads")))
                    .collect();
                if args.threads.is_empty() {
                    usage("--threads wants at least one count");
                }
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

/// One (phase, thread-count) measurement.
struct Sample {
    phase: &'static str,
    threads: usize,
    ops: usize,
    elapsed_ms: f64,
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    /// Journal frames per group-commit flush on the site's home volume —
    /// anything above 1 means concurrent barriers coalesced (meaningful for
    /// the commit phases; the lock phases barely touch the journal).
    frames_per_flush: f64,
    /// Page-cache hits over hits+misses at the worker site (0 when the
    /// phase issues no cacheable reads).
    cache_hit_rate: f64,
    /// Network messages the worker site sent per timed operation.
    remote_msgs_per_op: f64,
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Shape of one benchmark phase: cluster size, worker count, cycle count,
/// and the reader-site cache switch.
struct PhaseSpec {
    phase: &'static str,
    threads: usize,
    per_thread: usize,
    /// Cluster size. Worker threads always run at site 0 and the bench
    /// files are created at the *last* site, so `sites > 1` makes every
    /// file operation remote — the configuration where the page cache has
    /// something to save.
    sites: usize,
    /// Whether the worker site runs with its page cache; `read_cold`
    /// disables it to measure the uncached reference.
    page_cache: bool,
    /// Size of each per-thread `/bench{t}` file.
    file_len: usize,
    /// Whether each bench file gets a synced replica at the worker site, so
    /// non-transactional reads are served locally (`read_replica`).
    replicate: bool,
    group_window: Option<Duration>,
}

impl PhaseSpec {
    fn local(phase: &'static str, threads: usize, per_thread: usize) -> Self {
        PhaseSpec {
            phase,
            threads,
            per_thread,
            sites: 1,
            page_cache: true,
            file_len: 64,
            replicate: false,
            group_window: None,
        }
    }
}

/// Runs `per_thread` timed cycles on `n` threads, one `ThreadCtx` each, and
/// folds the per-cycle latencies into a [`Sample`]. `prep` runs once per
/// thread (open files, position the pointer) and returns the cycle closure;
/// only the cycles are timed. Also returns the run's span-registry snapshot
/// (each phase gets a fresh cluster, so the snapshots merge cleanly into the
/// whole-run decomposition).
fn run_phase<F>(spec: PhaseSpec, prep: F) -> (Sample, SpanRegistrySnapshot)
where
    F: for<'a> Fn(usize, &'a ThreadCtx) -> Box<dyn FnMut() + 'a> + Sync,
{
    let (phase, n, per_thread) = (spec.phase, spec.threads, spec.per_thread);
    let cluster = Cluster::new(spec.sites);
    let site = cluster.site(0).clone();
    if !spec.page_cache {
        site.kernel
            .page_cache_enabled
            .store(false, std::sync::atomic::Ordering::Relaxed);
    }
    let journal_stats = {
        let home = site.kernel.home().unwrap();
        home.journal().set_group_window(spec.group_window);
        move || home.journal().flush_stats()
    };
    let (flushes0, frames0, _) = journal_stats();
    // Pre-create one file per thread plus the shared one so the timed loop
    // measures locking, not file creation. Files live at the last site;
    // with sites > 1 that makes every worker operation remote.
    let setup = ThreadCtx::new(cluster.site(spec.sites - 1).clone());
    for t in 0..n {
        let ch = setup.creat(&format!("/bench{t}")).unwrap();
        setup.write(ch, &vec![0u8; spec.file_len]).unwrap();
        setup.close(ch).unwrap();
    }
    let ch = setup.creat("/shared").unwrap();
    setup.write(ch, &vec![0u8; 8 * n]).unwrap();
    setup.close(ch).unwrap();
    if spec.replicate {
        // Replicate each bench file to the worker site and pull it synced
        // before the clock starts; the primary stays at the storage site.
        for t in 0..n {
            let name = format!("/bench{t}");
            cluster.add_replica(&name, spec.sites - 1, 0);
            if let Ok(loc) = cluster.catalog.resolve(&name) {
                cluster.catalog.mark_unsynced(loc.fid, SiteId(0));
            }
        }
        assert_eq!(cluster.resync_replicas(), n);
    }

    // Two barriers fence the timed region: every thread finishes prep
    // before the clock starts and the message/cache counters are
    // snapshotted, so warm-up traffic (e.g. the read phases' cache-priming
    // pass) never pollutes the measurement.
    let prep = &prep;
    let ready = std::sync::Barrier::new(n + 1);
    let go = std::sync::Barrier::new(n + 1);
    let (counters0, t0, lat): (_, Instant, Vec<Vec<u64>>) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..n {
            let site = site.clone();
            let (ready, go) = (&ready, &go);
            handles.push(s.spawn(move || {
                let ctx = ThreadCtx::new(site);
                let mut cycle = prep(t, &ctx);
                ready.wait();
                go.wait();
                let mut lat = Vec::with_capacity(per_thread);
                for _ in 0..per_thread {
                    let c0 = Instant::now();
                    cycle();
                    lat.push(c0.elapsed().as_nanos() as u64);
                }
                drop(cycle);
                ctx.exit().unwrap();
                lat
            }));
        }
        ready.wait();
        let counters0 = site.kernel.counters.snapshot();
        let t0 = Instant::now();
        go.wait();
        let lat = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (counters0, t0, lat)
    });
    let elapsed = t0.elapsed();
    let (flushes1, frames1, _) = journal_stats();
    let delta = site.kernel.counters.snapshot().since(&counters0);
    cluster.drain_async();

    let mut all: Vec<u64> = lat.into_iter().flatten().collect();
    all.sort_unstable();
    let ops = n * per_thread;
    let flushes = flushes1 - flushes0;
    let cache_reads = delta.page_cache_hits + delta.page_cache_misses;
    let sample = Sample {
        phase,
        threads: n,
        ops,
        elapsed_ms: elapsed.as_secs_f64() * 1_000.0,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64(),
        p50_us: percentile_us(&all, 0.50),
        p99_us: percentile_us(&all, 0.99),
        frames_per_flush: if flushes > 0 {
            (frames1 - frames0) as f64 / flushes as f64
        } else {
            0.0
        },
        cache_hit_rate: if cache_reads > 0 {
            delta.page_cache_hits as f64 / cache_reads as f64
        } else {
            0.0
        },
        remote_msgs_per_op: delta.messages_sent as f64 / ops as f64,
    };
    (sample, cluster.spans())
}

fn render_json(quick: bool, samples: &[Sample], spans: &SpanRegistrySnapshot) -> String {
    let mut report = Report::new("scaling", if quick { "quick" } else { "full" });
    for s in samples {
        report.phase(
            JsonObj::new()
                .str("phase", s.phase)
                .int("threads", s.threads as u64)
                .int("ops", s.ops as u64)
                .num("elapsed_ms", s.elapsed_ms, 3)
                .num("ops_per_sec", s.ops_per_sec, 1)
                .num("p50_us", s.p50_us, 2)
                .num("p99_us", s.p99_us, 2)
                .num("frames_per_flush", s.frames_per_flush, 2)
                .num("cache_hit_rate", s.cache_hit_rate, 4)
                .num("remote_msgs_per_op", s.remote_msgs_per_op, 3),
        );
    }
    report.decomposition(spans);
    report.render()
}

/// One phase row pulled back out of a baseline report.
struct BaseRow {
    phase: String,
    threads: usize,
    ops_per_sec: f64,
    p99_us: f64,
    frames_per_flush: f64,
}

/// Pulls the phase rows back out of a report produced by [`render_json`]
/// (one phase object per line; no external JSON dependency needed for that
/// shape). Decomposition rows have no `threads` field and are skipped.
fn parse_report(text: &str) -> Vec<BaseRow> {
    fn str_field(line: &str, key: &str) -> Option<String> {
        let tag = format!("\"{key}\": \"");
        let at = line.find(&tag)? + tag.len();
        Some(line[at..].split('"').next()?.to_string())
    }
    fn num_field(line: &str, key: &str) -> Option<f64> {
        let tag = format!("\"{key}\": ");
        let at = line.find(&tag)? + tag.len();
        line[at..].split([',', ' ', '}']).next()?.parse().ok()
    }
    text.lines()
        .filter_map(|line| {
            Some(BaseRow {
                phase: str_field(line, "phase")?,
                threads: num_field(line, "threads")? as usize,
                ops_per_sec: num_field(line, "ops_per_sec")?,
                p99_us: num_field(line, "p99_us").unwrap_or(0.0),
                frames_per_flush: num_field(line, "frames_per_flush").unwrap_or(0.0),
            })
        })
        .collect()
}

/// Compares the 1-thread rows of every phase against the baseline report;
/// returns the failures. Three gates, all bounded by
/// [`REGRESSION_TOLERANCE`]:
///
/// * every phase's throughput must not drop below the baseline floor;
/// * the commit phases' p99 latency must not rise above the baseline
///   ceiling (skipped while the baseline row carries `p99_us: 0.0`);
/// * the commit phases' frames-per-flush must not fall below the baseline
///   floor (group commit quietly degrading to one frame per barrier).
fn check_baseline(baseline: &str, samples: &[Sample]) -> Vec<String> {
    let base = parse_report(baseline);
    let mut failures = Vec::new();
    let pct = REGRESSION_TOLERANCE * 100.0;
    for s in samples.iter().filter(|s| s.threads == 1) {
        let Some(b) = base.iter().find(|b| b.phase == s.phase && b.threads == 1) else {
            continue;
        };
        let floor = b.ops_per_sec * (1.0 - REGRESSION_TOLERANCE);
        if s.ops_per_sec < floor {
            failures.push(format!(
                "{}: 1-thread throughput {:.0} ops/s is below {:.0} \
                 (baseline {:.0} ops/s, tolerance {:.0}%)",
                s.phase, s.ops_per_sec, floor, b.ops_per_sec, pct
            ));
        }
        if !s.phase.starts_with("commit") {
            continue;
        }
        if b.p99_us > 0.0 {
            let ceiling = b.p99_us * (1.0 + REGRESSION_TOLERANCE);
            if s.p99_us > ceiling {
                failures.push(format!(
                    "{}: 1-thread p99 {:.1} µs is above {:.1} µs \
                     (baseline {:.1} µs, tolerance {:.0}%)",
                    s.phase, s.p99_us, ceiling, b.p99_us, pct
                ));
            }
        }
        if b.frames_per_flush > 0.0 {
            let floor = b.frames_per_flush * (1.0 - REGRESSION_TOLERANCE);
            if s.frames_per_flush < floor {
                failures.push(format!(
                    "{}: frames/flush {:.2} is below {:.2} \
                     (baseline {:.2}, tolerance {:.0}%)",
                    s.phase, s.frames_per_flush, floor, b.frames_per_flush, pct
                ));
            }
        }
    }
    failures
}

fn main() -> ExitCode {
    let args = parse_args();
    // Per-thread cycle counts. The quick counts are sized so every phase's
    // timed region spans at least a few milliseconds: the baseline gate
    // divides by elapsed time, and a 100-op region (~200 µs) lets a single
    // scheduler stall on a shared runner masquerade as a 10x regression.
    let (lock_ops, handoff_ops, txn_ops, read_ops) = if args.quick {
        (2_000, 1_000, 500, 4_000)
    } else {
        (20_000, 2_000, 1_000, 20_000)
    };

    let mut samples = Vec::new();
    let mut spans = SpanRegistrySnapshot::default();
    let mut push = |(sample, snap): (Sample, SpanRegistrySnapshot)| {
        samples.push(sample);
        spans.merge(&snap);
    };
    for &n in &args.threads {
        push(run_phase(
            PhaseSpec::local("lock_distinct", n, lock_ops),
            |t, ctx| {
                let ch = ctx.open(&format!("/bench{t}"), true).unwrap();
                Box::new(move || {
                    ctx.lock_wait(ch, 8, LockRequestMode::Exclusive).unwrap();
                    ctx.unlock(ch, 8).unwrap();
                })
            },
        ));
        push(run_phase(
            PhaseSpec::local("lock_same_file", n, lock_ops),
            |t, ctx| {
                let ch = ctx.open("/shared", true).unwrap();
                ctx.seek(ch, 8 * t as u64).unwrap();
                Box::new(move || {
                    ctx.lock_wait(ch, 8, LockRequestMode::Exclusive).unwrap();
                    ctx.unlock(ch, 8).unwrap();
                })
            },
        ));
        push(run_phase(
            PhaseSpec::local("lock_handoff", n, handoff_ops),
            |_, ctx| {
                let ch = ctx.open("/shared", true).unwrap();
                Box::new(move || {
                    ctx.lock_wait(ch, 8, LockRequestMode::Exclusive).unwrap();
                    ctx.unlock(ch, 8).unwrap();
                })
            },
        ));
        push(run_phase(
            PhaseSpec::local("commit_distinct", n, txn_ops),
            |t, ctx| {
                let ch = ctx.open(&format!("/bench{t}"), true).unwrap();
                Box::new(move || {
                    ctx.begin_trans().unwrap();
                    ctx.seek(ch, 0).unwrap();
                    ctx.write(ch, &(t as u64).to_le_bytes()).unwrap();
                    assert!(matches!(ctx.end_trans(), Ok(EndOutcome::Committed(_))));
                })
            },
        ));
        push(run_phase(
            PhaseSpec {
                group_window: Some(Duration::from_micros(100)),
                ..PhaseSpec::local("commit_group", n, txn_ops)
            },
            |t, ctx| {
                let ch = ctx.open(&format!("/bench{t}"), true).unwrap();
                Box::new(move || {
                    ctx.begin_trans().unwrap();
                    ctx.seek(ch, 0).unwrap();
                    ctx.write(ch, &(t as u64).to_le_bytes()).unwrap();
                    assert!(matches!(ctx.end_trans(), Ok(EndOutcome::Committed(_))));
                })
            },
        ));
        // The read ladder runs against a remote storage site (files live at
        // site 1, workers at site 0). Each thread walks its own four-page
        // file sequentially in 64-byte reads under a shared whole-file lock
        // held for the entire phase, wrapping at end-of-file. The untimed
        // prep walks the file once so "hot" measures a warmed cache (the
        // walk's second miss reads ahead to the end of the file); cold runs
        // the identical cycle with the page cache disabled, so every read
        // is a remote RPC.
        push(run_phase(
            PhaseSpec {
                sites: 2,
                file_len: 4096,
                ..PhaseSpec::local("read_hot", n, read_ops)
            },
            |t, ctx| {
                let ch = ctx.open(&format!("/bench{t}"), true).unwrap();
                ctx.seek(ch, 0).unwrap();
                ctx.lock_wait(ch, 4096, LockRequestMode::Shared).unwrap();
                for _ in 0..64 {
                    assert_eq!(ctx.read(ch, 64).unwrap().len(), 64);
                }
                ctx.seek(ch, 0).unwrap();
                let mut pos = 0u64;
                Box::new(move || {
                    assert_eq!(ctx.read(ch, 64).unwrap().len(), 64);
                    pos += 64;
                    if pos == 4096 {
                        pos = 0;
                        ctx.seek(ch, 0).unwrap();
                    }
                })
            },
        ));
        push(run_phase(
            PhaseSpec {
                sites: 2,
                page_cache: false,
                file_len: 4096,
                ..PhaseSpec::local("read_cold", n, read_ops)
            },
            |t, ctx| {
                let ch = ctx.open(&format!("/bench{t}"), true).unwrap();
                ctx.seek(ch, 0).unwrap();
                ctx.lock_wait(ch, 4096, LockRequestMode::Shared).unwrap();
                for _ in 0..64 {
                    assert_eq!(ctx.read(ch, 64).unwrap().len(), 64);
                }
                ctx.seek(ch, 0).unwrap();
                let mut pos = 0u64;
                Box::new(move || {
                    assert_eq!(ctx.read(ch, 64).unwrap().len(), 64);
                    pos += 64;
                    if pos == 4096 {
                        pos = 0;
                        ctx.seek(ch, 0).unwrap();
                    }
                })
            },
        ));
        // Same cold cycle, but the file has a synced replica at the worker
        // site: a read-only, non-transactional open serves every read from
        // the local copy. No lock — the replica fast path is exactly the
        // unsynchronized read path of Section 5.2. The warm-up pass keeps
        // the shape identical to the cold phase (it is all local anyway).
        push(run_phase(
            PhaseSpec {
                sites: 2,
                page_cache: false,
                file_len: 4096,
                replicate: true,
                ..PhaseSpec::local("read_replica", n, read_ops)
            },
            |t, ctx| {
                let ch = ctx.open(&format!("/bench{t}"), false).unwrap();
                ctx.seek(ch, 0).unwrap();
                for _ in 0..64 {
                    assert_eq!(ctx.read(ch, 64).unwrap().len(), 64);
                }
                ctx.seek(ch, 0).unwrap();
                let mut pos = 0u64;
                Box::new(move || {
                    assert_eq!(ctx.read(ch, 64).unwrap().len(), 64);
                    pos += 64;
                    if pos == 4096 {
                        pos = 0;
                        ctx.seek(ch, 0).unwrap();
                    }
                })
            },
        ));
    }

    println!(
        "phase            threads      ops/sec    p50 µs    p99 µs  frames/flush  hit-rate  msgs/op"
    );
    for s in &samples {
        println!(
            "{:<16} {:>7} {:>12.0} {:>9.1} {:>9.1} {:>13.2} {:>9.2} {:>8.3}",
            s.phase,
            s.threads,
            s.ops_per_sec,
            s.p50_us,
            s.p99_us,
            s.frames_per_flush,
            s.cache_hit_rate,
            s.remote_msgs_per_op
        );
    }
    for phase in [
        "lock_distinct",
        "lock_same_file",
        "lock_handoff",
        "commit_distinct",
        "commit_group",
        "read_hot",
        "read_cold",
        "read_replica",
    ] {
        let at = |n: usize| {
            samples
                .iter()
                .find(|s| s.phase == phase && s.threads == n)
                .map(|s| s.ops_per_sec)
        };
        if let (Some(one), Some(four)) = (at(1), at(4)) {
            println!("{phase}: 1→4 thread scaling {:.2}x", four / one);
        }
    }
    // The page cache's acceptance gates, independent of any baseline file:
    // cached re-reads must at least double single-thread read throughput
    // over the uncached reference, and a hot phase must serve from the
    // cache without remote traffic (the first miss per thread plus setup
    // leaves a little slack under 5%).
    let one_thread = |phase: &str| samples.iter().find(|s| s.phase == phase && s.threads == 1);
    let mut gate_failures = Vec::new();
    if let (Some(hot), Some(cold)) = (one_thread("read_hot"), one_thread("read_cold")) {
        println!(
            "read_hot vs read_cold: {:.2}x at 1 thread (hit rate {:.3}, {:.3} msgs/op)",
            hot.ops_per_sec / cold.ops_per_sec,
            hot.cache_hit_rate,
            hot.remote_msgs_per_op
        );
        if hot.ops_per_sec < 2.0 * cold.ops_per_sec {
            gate_failures.push(format!(
                "read_hot {:.0} ops/s is under 2x read_cold {:.0} ops/s",
                hot.ops_per_sec, cold.ops_per_sec
            ));
        }
        if hot.remote_msgs_per_op > 0.05 {
            gate_failures.push(format!(
                "read_hot sent {:.3} remote messages per op; cached re-reads must stay local",
                hot.remote_msgs_per_op
            ));
        }
    }
    // The replica's acceptance gate: with a synced local copy, uncached
    // reads must send at most half the remote messages per read that the
    // all-primary cold phase does (in practice they send none).
    if let (Some(rep), Some(cold)) = (one_thread("read_replica"), one_thread("read_cold")) {
        println!(
            "read_replica vs read_cold: {:.3} vs {:.3} msgs/op at 1 thread ({:.2}x ops/s)",
            rep.remote_msgs_per_op,
            cold.remote_msgs_per_op,
            rep.ops_per_sec / cold.ops_per_sec
        );
        if rep.remote_msgs_per_op * 2.0 > cold.remote_msgs_per_op {
            gate_failures.push(format!(
                "read_replica sent {:.3} remote messages per op; a synced local \
                 replica must at least halve read_cold's {:.3}",
                rep.remote_msgs_per_op, cold.remote_msgs_per_op
            ));
        }
    }
    println!();
    print!(
        "{}",
        decomposition_table("Latency decomposition (all phases pooled)", &spans)
    );

    let report = render_json(args.quick, &samples, &spans);
    if let Err(e) = fs::write(&args.out, &report) {
        eprintln!("bench_scaling: cannot write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out.display());

    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("REGRESSION {f}");
        }
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.baseline {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_scaling: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let failures = check_baseline(&text, &samples);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("REGRESSION {f}");
            }
            return ExitCode::FAILURE;
        }
        println!("baseline check passed ({})", path.display());
    }
    ExitCode::SUCCESS
}
