//! The passes a run is made of: building the cluster, the count pass (one
//! client, a fixed number of requests, optionally traced), the timed pass
//! (closed loop, rounds; one client for the end-to-end figures, all of the
//! workload's clients for the contended ones), the fault step and the final
//! check.

use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use locus_harness::Cluster;
use locus_sim::{CountersSnapshot, SpanPhase};
use locus_types::Result;

use crate::client::Rng;
use crate::stats;
use crate::trace::Span;
use crate::workloads::{Worker, Workload, FAULT_OPS};

/// Random-stream numbers: one per pass and client, so passes never share
/// inputs and the count and traced passes (same stream) issue the same ones.
const STREAM_COUNT_PASS: u64 = 1;
const STREAM_TIMED_PASS: u64 = 16;

/// Requests attempted and requests failed (a call failed, or an answer was
/// wrong), with the first failure kept for the report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong_answers: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    fn record(&mut self, outcome: &Result<bool>) {
        self.attempted += 1;
        let why = match outcome {
            Ok(true) => return,
            Ok(false) => {
                self.wrong_answers += 1;
                "a read returned a wrong or torn record".to_string()
            }
            Err(e) => format!("{e:?}"),
        };
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong_answers += other.wrong_answers;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// One request, start to finish: fresh cost account, the workload's calls,
/// and the clean-up a failed call needs.
fn do_op<K: Worker>(w: &mut K, op: u32, f: impl FnOnce(&mut K) -> Result<bool>) -> Result<bool> {
    w.client().op_begin(op);
    let out = f(w);
    if out.is_err() {
        w.client().abandon_trans();
    }
    w.client().op_end();
    out
}

/// A freshly built cluster with its files made and its clients' files open.
pub struct Built<W: Workload> {
    pub cluster: Cluster,
    pub workers: Vec<W::Worker>,
    /// Cluster construction + file creation + prefill + opens, in seconds.
    pub setup_s: f64,
}

pub fn build<W: Workload>() -> Result<Built<W>> {
    let t0 = Instant::now();
    let cluster = Cluster::new(W::SPEC.sites);
    W::setup(&cluster)?;
    let workers = (0..W::SPEC.clients)
        .map(|i| W::worker(&cluster, i))
        .collect::<Result<Vec<_>>>()?;
    Ok(Built {
        cluster,
        workers,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// Switches every site between the transaction manager's own defaults
/// (`false`: prepares go out one after another on the caller's thread, the
/// journal flushes at once) and what `ThreadCtx::new` turns on for the
/// threaded driver (`true`: one scoped thread per participant site, and a
/// 50 µs gather window in which a flush leader waits for a racing committer).
///
/// Passes with a single client run with `false`. Their requests then stay on
/// one thread, which is what makes their wall-clock figures repeat on a
/// shared two-core guest; the gather window is moot for a lone committer. The
/// contended pass runs with `true`.
pub fn set_threaded_driver_policy(cluster: &Cluster, on: bool) {
    for site in &cluster.sites {
        site.txn.parallel_fanout.store(on, Ordering::Relaxed);
        if let Ok(home) = site.kernel.home() {
            home.journal()
                .set_group_window(on.then_some(Duration::from_micros(50)));
        }
    }
}

/// Everything the program counted between two points: the shared counters,
/// the journals' flush statistics summed over sites, and the modeled time
/// recorded per span phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub counters: CountersSnapshot,
    pub journal_flushes: u64,
    pub journal_frames: u64,
    /// Modeled nanoseconds per [`SpanPhase`], indexed by `SpanPhase::index`.
    pub virt_phase_ns: [u64; SpanPhase::COUNT],
}

impl Counts {
    pub fn now(cluster: &Cluster) -> Counts {
        let (mut journal_flushes, mut journal_frames) = (0, 0);
        for site in &cluster.sites {
            if let Ok(home) = site.kernel.home() {
                let (flushes, frames, _) = home.journal().flush_stats();
                journal_flushes += flushes;
                journal_frames += frames;
            }
        }
        let spans = cluster.spans();
        Counts {
            counters: cluster.counters(),
            journal_flushes,
            journal_frames,
            virt_phase_ns: std::array::from_fn(|i| spans.virt[i].total_ns),
        }
    }

    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            counters: self.counters.since(&earlier.counters),
            journal_flushes: self.journal_flushes - earlier.journal_flushes,
            journal_frames: self.journal_frames - earlier.journal_frames,
            virt_phase_ns: std::array::from_fn(|i| {
                self.virt_phase_ns[i] - earlier.virt_phase_ns[i]
            }),
        }
    }
}

/// What the count pass (or the traced pass: the same requests with spans
/// recorded) measured.
pub struct CountPass {
    pub tally: Tally,
    pub elapsed_s: f64,
    /// Modeled elapsed time summed over requests, in nanoseconds.
    pub virt_ns: u64,
    pub counts: Counts,
    /// The benchmark's own spans; empty unless traced.
    pub spans: Vec<Span>,
}

/// Runs `n` requests on one client. With a lone committer the journal's
/// group window never opens, so every count repeats exactly for a seed.
pub fn count_pass<W: Workload>(
    cluster: &Cluster,
    worker: &mut W::Worker,
    seed: u64,
    n: u32,
    spans_per_op: Option<usize>,
) -> CountPass {
    set_threaded_driver_policy(cluster, false);
    let mut rng = Rng::new(seed, STREAM_COUNT_PASS);
    let mut tally = Tally::default();
    if let Some(per_op) = spans_per_op {
        worker.client().start_tracing(per_op * n as usize);
    }
    cluster.events.clear();
    let virt0 = worker.client().virt_ns;
    let before = Counts::now(cluster);
    let start = Instant::now();
    for op in 0..n {
        let out = do_op(worker, op, |w| w.op(&mut rng));
        tally.record(&out);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let counts = Counts::now(cluster).since(&before);
    CountPass {
        tally,
        elapsed_s,
        virt_ns: worker.client().virt_ns - virt0,
        counts,
        spans: worker.client().take_spans(),
    }
}

/// One measured round of the timed pass.
#[derive(Debug, Clone)]
pub struct Round {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// Processor time the whole process used during the round, per
    /// successful request, in microseconds.
    pub cpu_us_per_op: f64,
    /// Successful requests in the round (the latency sample size).
    pub samples: usize,
}

pub struct TimedPass {
    pub tally: Tally,
    pub rounds: Vec<Round>,
    /// Successful requests over the measured rounds.
    pub ops: u64,
    /// Processor seconds the whole process used over the measured rounds.
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    /// Wall time clients spent parked on a lock grant, summed, nanoseconds.
    pub parked_ns: u64,
    pub counts: Counts,
}

struct ThreadRound {
    latencies_ns: Vec<u32>,
    elapsed_s: f64,
}

/// The shape of a timed pass: one unmeasured warm-up round, then `rounds`
/// measured rounds of `round_len` each.
#[derive(Debug, Clone, Copy)]
pub struct Rounds {
    pub warmup: Duration,
    pub rounds: usize,
    pub round_len: Duration,
}

/// One client's closed loop over all rounds: it waits for every call to
/// return before making the next. `between_rounds(r)` runs before round `r`
/// (0 is the warm-up) and once more, with `r = rounds + 1`, after the last.
fn client_rounds<K: Worker>(
    w: &mut K,
    mut rng: Rng,
    shape: Rounds,
    mut between_rounds: impl FnMut(usize),
) -> (Tally, Vec<ThreadRound>) {
    let mut tally = Tally::default();
    let mut out = Vec::with_capacity(shape.rounds);
    let mut op = 0u32;
    let (mut warm_ops, mut capacity) = (0usize, 0usize);
    for round in 0..=shape.rounds {
        let len = if round == 0 {
            shape.warmup
        } else {
            shape.round_len
        };
        let mut latencies_ns: Vec<u32> = Vec::with_capacity(capacity);
        between_rounds(round);
        let start = Instant::now();
        let mut last = start;
        while last - start < len {
            let res = do_op(w, op, |w| w.op(&mut rng));
            op = op.wrapping_add(1);
            let now = Instant::now();
            if round > 0 {
                tally.record(&res);
                if matches!(res, Ok(true)) {
                    let ns = (now - last).as_nanos();
                    latencies_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                }
            } else {
                warm_ops += 1;
            }
            last = now;
        }
        if round == 0 {
            // Room for half again the warm-up's rate, so the measured rounds
            // do not reallocate.
            let scale = shape.round_len.as_secs_f64() / shape.warmup.as_secs_f64().max(1e-3);
            capacity = (warm_ops as f64 * scale * 1.5) as usize + 1024;
        } else {
            out.push(ThreadRound {
                latencies_ns,
                elapsed_s: (last - start).as_secs_f64(),
            });
        }
    }
    between_rounds(shape.rounds + 1);
    (tally, out)
}

/// A timed pass over `workers`; every wall-clock figure is later taken as
/// the better quartile over its rounds.
///
/// One worker with the policy off is the *solo* pass the end-to-end figures
/// come from. It runs on the calling thread: a process that has only ever
/// had one thread gets no cross-processor interrupts for its own memory
/// management, and on this guest that alone separates a 2% run-to-run spread
/// from a 30% one. All of a workload's workers with the policy on is the
/// *contended* pass, one thread per client.
pub fn timed_pass<W: Workload>(
    cluster: &Cluster,
    workers: &mut [W::Worker],
    seed: u64,
    threaded_driver_policy: bool,
    shape: Rounds,
) -> TimedPass {
    set_threaded_driver_policy(cluster, threaded_driver_policy);
    let rounds = shape.rounds;
    let mut before = None;
    // Processor time at the start of every round and at the end of the last.
    let mut cpu_marks = Vec::with_capacity(rounds + 2);
    let parked0: u64 = workers.iter_mut().map(|w| w.client().parked_ns).sum();
    let mut housekeeping = |round: usize| {
        if round <= rounds {
            // The event log only ever grows; emptying it between rounds (it
            // keeps its capacity) bounds memory and keeps its reallocation
            // out of the measured rounds after the first.
            cluster.events.clear();
        }
        if round == 1 {
            before = Some(Counts::now(cluster));
        }
        cpu_marks.push(stats::process_cpu());
    };
    let stream = |i: usize| Rng::new(seed, STREAM_TIMED_PASS + i as u64);

    let per_thread: Vec<(Tally, Vec<ThreadRound>)> = if let [solo] = workers {
        vec![client_rounds(solo, stream(0), shape, housekeeping)]
    } else {
        // Two rendezvous per round: clients arrive, the calling thread does
        // the housekeeping, everyone leaves together.
        let sync = Barrier::new(workers.len() + 1);
        std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .iter_mut()
                .enumerate()
                .map(|(i, w)| {
                    let (sync, rng) = (&sync, stream(i));
                    s.spawn(move || {
                        client_rounds(w, rng, shape, |_| {
                            sync.wait();
                            sync.wait();
                        })
                    })
                })
                .collect();
            for round in 0..=rounds + 1 {
                sync.wait();
                housekeeping(round);
                sync.wait();
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };

    let counts = Counts::now(cluster).since(&before.expect("at least one measured round"));
    let parked1: u64 = workers.iter_mut().map(|w| w.client().parked_ns).sum();

    let mut tally = Tally::default();
    let mut by_round: Vec<Vec<&ThreadRound>> = vec![Vec::new(); rounds];
    for (t, thread_rounds) in &per_thread {
        tally.absorb(t.clone());
        for (r, tr) in thread_rounds.iter().enumerate() {
            by_round[r].push(tr);
        }
    }
    let mut ops = 0;
    let measured = by_round
        .into_iter()
        .enumerate()
        .map(|(r, threads)| {
            // Round `r` is the pass's round `r + 1`; round 0 is the warm-up.
            let (from, to) = (cpu_marks[r + 1], cpu_marks[r + 2]);
            let cpu_s = (to.0 - from.0) + (to.1 - from.1);
            let mut all: Vec<u64> = threads
                .iter()
                .flat_map(|t| t.latencies_ns.iter().map(|ns| u64::from(*ns)))
                .collect();
            all.sort_unstable();
            ops += all.len() as u64;
            Round {
                // Each client's own rate over its own elapsed time, summed:
                // a client finishes its last request a little past the
                // deadline, and that request counts.
                ops_per_s: threads
                    .iter()
                    .map(|t| t.latencies_ns.len() as f64 / t.elapsed_s)
                    .sum(),
                p50_us: stats::percentile(&all, 0.5) as f64 / 1_000.0,
                p90_us: stats::percentile(&all, 0.9) as f64 / 1_000.0,
                p99_us: stats::percentile(&all, 0.99) as f64 / 1_000.0,
                cpu_us_per_op: cpu_s * 1e6 / all.len().max(1) as f64,
                samples: all.len(),
            }
        })
        .collect();
    TimedPass {
        tally,
        rounds: measured,
        ops,
        cpu_user_s: cpu_marks[rounds + 1].0 - cpu_marks[1].0,
        cpu_sys_s: cpu_marks[rounds + 1].1 - cpu_marks[1].1,
        parked_ns: parked1 - parked0,
        counts,
    }
}

/// What the fault step found.
pub struct FaultStep {
    pub tally: Tally,
    /// Mean wall time of `reboot_and_recover` per site, in microseconds.
    pub recover_us: f64,
}

/// After the traced pass: commit [`FAULT_OPS`] more transactions without
/// running phase two, crash every site (the simulated disk drops its
/// volatile buffers, so unflushed writes really are discarded), reboot and
/// recover each, and finish whatever phase-two work recovery re-queued. The
/// caller's final check then has to find every acknowledged commit.
pub fn fault_step<W: Workload>(cluster: &Cluster, worker: &mut W::Worker) -> FaultStep {
    let mut tally = Tally::default();
    for i in 0..FAULT_OPS {
        let out = do_op(worker, i as u32, |w| w.fault_op(i));
        tally.record(&out);
    }
    for i in 0..cluster.n_sites() {
        cluster.crash_site(i);
    }
    let t0 = Instant::now();
    for i in 0..cluster.n_sites() {
        cluster.reboot_site(i);
    }
    let recover_us = t0.elapsed().as_secs_f64() * 1e6 / cluster.n_sites() as f64;
    cluster.drain_async();
    FaultStep { tally, recover_us }
}
