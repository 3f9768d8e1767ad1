//! Deterministic chaos harness: seeded fault schedules, invariant oracles,
//! and schedule minimization.
//!
//! One seed fully determines a run: it derives the workload (a set of
//! record-update transactions spread across the cluster), the fault schedule
//! (site crashes, reboots, partitions, heals, forced mid-transaction
//! migrations at driver steps; message drop / reply-drop / duplication /
//! delay at transport sequence numbers), and the script driver's
//! interleaving. Replaying the same seed reproduces a byte-identical event
//! trace, so any violation found by a sweep is a one-command repro:
//!
//! ```text
//! cargo run --release --bin locus-chaos -- --seed N
//! ```
//!
//! After every schedule the harness heals the network, reboots crashed
//! sites, drains asynchronous phase two, and runs the invariant oracles in
//! [`oracle`] plus the durable-state check here. On violation the report
//! carries the seed, the schedule text, and (in the binary) a greedily
//! minimized schedule.

pub mod conformance;
pub mod minimize;
pub mod oracle;
pub mod schedule;
pub mod torture;

pub use minimize::minimize;
pub use oracle::Violation;
pub use schedule::{ClusterFault, ClusterFaultKind, Schedule, WireFault, WireFaultKind};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use locus_disk::{CrashPointMode, MutationKind};
use locus_kernel::LockOpts;
use locus_net::{FaultDecision, FaultInjector, Msg};
use locus_sim::{DetRng, SpanRegistrySnapshot};
use locus_types::{ByteRange, LockRequestMode, SiteId, TransId, TxnStatus};

use crate::cluster::Cluster;
use crate::script::{Driver, Op, OpResult, RunOutcome};

/// Salt for the RNG stream that generates the workload, so workload and
/// fault schedule are independent draws from one seed.
const WORKLOAD_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
/// Salt for the fault-schedule stream.
const SCHEDULE_SALT: u64 = 0x6a09_e667_f3bc_c909;

/// Parameters of one chaos run. [`ChaosConfig::with_seed`] gives the
/// defaults used by the CI matrix.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    pub seed: u64,
    /// Number of sites; each hosts one workload file `/chaos<i>`.
    pub sites: usize,
    /// Number of workload transactions (one script process each).
    pub procs: usize,
    /// 8-byte records per workload file.
    pub records_per_file: u64,
    /// Distinct (file, record) targets each transaction writes.
    pub writes_per_txn: usize,
    /// Targets per transaction that get read probes: one read after the
    /// lock (must see a committed value) and one after the write (must see
    /// the transaction's own uncommitted tag). The stale-read oracle checks
    /// both against the run's results. `0` (the CI default) leaves the
    /// workload — and therefore every pinned trace — untouched.
    pub reads_per_txn: usize,
    /// Whether sites run with the kernel page cache enabled. Disabling it
    /// turns the cluster into the uncached reference the equivalence tests
    /// compare against.
    pub page_cache: bool,
    /// Extra replica copies per workload file (`0`, the default, leaves the
    /// cluster unreplicated and every pinned trace untouched). With `r > 0`
    /// each `/chaos<i>` is also stored at the next `r` sites round-robin;
    /// crashes and partitions trigger epoch-guarded failover, reboots and
    /// heals trigger catch-up resync, and the replica-convergence oracle
    /// asserts byte-identical copies after quiesce.
    pub replicas: usize,
    /// Cluster-fault draws in the schedule (crash/reboot and partition/heal
    /// pairs count as one draw).
    pub cluster_faults: usize,
    /// Wire-fault draws in the schedule.
    pub wire_faults: usize,
    /// Driver-step horizon for cluster faults.
    pub step_horizon: usize,
    /// Transport-sequence horizon for wire faults.
    pub seq_horizon: u64,
}

impl ChaosConfig {
    pub fn with_seed(seed: u64) -> Self {
        ChaosConfig {
            seed,
            sites: 3,
            procs: 6,
            records_per_file: 8,
            writes_per_txn: 3,
            reads_per_txn: 0,
            page_cache: true,
            replicas: 0,
            cluster_faults: 4,
            wire_faults: 6,
            step_horizon: 240,
            seq_horizon: 160,
        }
    }
}

/// The tag value written by transaction `slot`'s `k`-th write. Tags are
/// unique across the whole run and decodable, so the state oracle can name
/// the writer of any durable byte pattern.
fn tag(slot: usize, k: usize) -> u64 {
    ((slot as u64 + 1) << 16) | (k as u64 + 1)
}

/// Decodes a durable record value back to its writer, if it is a tag.
fn untag(v: u64) -> Option<(usize, usize)> {
    let slot = (v >> 16) as usize;
    let k = (v & 0xffff) as usize;
    if slot == 0 || k == 0 {
        return None;
    }
    Some((slot - 1, k - 1))
}

/// One read probe the workload planted for the stale-read oracle.
#[derive(Debug, Clone, Copy)]
pub struct ReadProbe {
    /// Index of the `Op::Read` in the spec's ops.
    pub op: usize,
    /// Channel index the read uses (open-order position, like the write's).
    pub ch: usize,
    /// Record the probe targets within the channel's file.
    pub record: u64,
    /// `Some((write op index, tag))` for a probe placed right after the
    /// slot's own write — it must observe that uncommitted tag. `None` for a
    /// probe placed after the lock but before the write — it must observe a
    /// committed value (zero or some writer's tag).
    pub after_write: Option<(usize, u64)>,
}

/// One workload transaction: a script process at site `home` that opens the
/// files it touches, then locks and writes each target in globally sorted
/// order (sorted order keeps the workload deadlock-free, so every stall is
/// the fault schedule's doing).
#[derive(Debug, Clone)]
pub struct TxnSpec {
    pub home: usize,
    /// `(op index of the Write, file, record, tag value)` per target.
    pub writes: Vec<(usize, usize, u64, u64)>,
    /// Read probes planted when [`ChaosConfig::reads_per_txn`] > 0.
    pub reads: Vec<ReadProbe>,
    pub ops: Vec<Op>,
}

/// Generates the workload for a config from the seed's workload stream.
pub fn generate_workload(cfg: &ChaosConfig, rng: &mut DetRng) -> Vec<TxnSpec> {
    let mut specs = Vec::with_capacity(cfg.procs);
    for slot in 0..cfg.procs {
        let home = slot % cfg.sites;
        let mut targets: BTreeSet<(usize, u64)> = BTreeSet::new();
        // Bounded draw count so a tiny record space cannot loop forever.
        let want = cfg
            .writes_per_txn
            .min(cfg.sites * cfg.records_per_file as usize);
        for _ in 0..cfg.writes_per_txn * 8 {
            if targets.len() >= want {
                break;
            }
            targets.insert((
                rng.below(cfg.sites as u64) as usize,
                rng.below(cfg.records_per_file),
            ));
        }
        let targets: Vec<(usize, u64)> = targets.into_iter().collect();
        let files: Vec<usize> = {
            let set: BTreeSet<usize> = targets.iter().map(|(f, _)| *f).collect();
            set.into_iter().collect()
        };
        let chan_of = |f: usize| files.iter().position(|x| *x == f).expect("file opened");
        let mut ops = vec![Op::BeginTrans];
        for f in &files {
            ops.push(Op::Open {
                name: format!("/chaos{f}"),
                write: true,
            });
        }
        let mut writes = Vec::with_capacity(targets.len());
        let mut reads = Vec::new();
        for (k, (f, r)) in targets.iter().enumerate() {
            let ch = chan_of(*f);
            let probed = k < cfg.reads_per_txn;
            ops.push(Op::Seek { ch, pos: r * 8 });
            ops.push(Op::Lock {
                ch,
                len: 8,
                mode: LockRequestMode::Exclusive,
                opts: LockOpts {
                    wait: true,
                    ..LockOpts::default()
                },
            });
            if probed {
                // Under the exclusive lock but before the write: the bytes
                // must be a committed value.
                ops.push(Op::Seek { ch, pos: r * 8 });
                reads.push(ReadProbe {
                    op: ops.len(),
                    ch,
                    record: *r,
                    after_write: None,
                });
                ops.push(Op::Read { ch, len: 8 });
            }
            ops.push(Op::Seek { ch, pos: r * 8 });
            let write_op = ops.len();
            writes.push((write_op, *f, *r, tag(slot, k)));
            ops.push(Op::Write {
                ch,
                data: tag(slot, k).to_le_bytes().to_vec(),
            });
            if probed {
                // After the write, still under the lock: the transaction
                // must see its own uncommitted bytes.
                ops.push(Op::Seek { ch, pos: r * 8 });
                reads.push(ReadProbe {
                    op: ops.len(),
                    ch,
                    record: *r,
                    after_write: Some((write_op, tag(slot, k))),
                });
                ops.push(Op::Read { ch, len: 8 });
            }
        }
        ops.push(Op::EndTrans);
        specs.push(TxnSpec {
            home,
            writes,
            reads,
            ops,
        });
    }
    specs
}

/// Generates the fault schedule for a config from the seed's schedule
/// stream.
pub fn generate_schedule(cfg: &ChaosConfig) -> Schedule {
    let mut rng = DetRng::seeded(cfg.seed ^ SCHEDULE_SALT);
    Schedule::generate(
        &mut rng,
        cfg.sites,
        cfg.procs,
        cfg.cluster_faults,
        cfg.wire_faults,
        cfg.step_horizon,
        cfg.seq_horizon,
    )
}

/// The wire-layer fault injector: counts every non-local message on a
/// deterministic sequence clock and fires the scheduled fault when the clock
/// hits a scheduled number.
struct ChaosInjector {
    seq: AtomicU64,
    faults: BTreeMap<u64, WireFaultKind>,
}

impl FaultInjector for ChaosInjector {
    fn decide(&self, _from: SiteId, _to: SiteId, _msg: &Msg, oneway: bool) -> FaultDecision {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        match self.faults.get(&n) {
            None => FaultDecision::Deliver,
            // One-way notifies carry kernel wakeups (lock grants, child
            // exits) with no retry path; losing one wedges the driver rather
            // than exercising the protocol, so drops degrade to a delay.
            Some(WireFaultKind::Drop) | Some(WireFaultKind::DropReply) if oneway => {
                FaultDecision::Delay(8)
            }
            Some(WireFaultKind::Drop) => FaultDecision::Drop,
            Some(WireFaultKind::DropReply) => FaultDecision::DropReply,
            Some(WireFaultKind::Dup) => FaultDecision::Duplicate,
            Some(WireFaultKind::Delay { millis }) => FaultDecision::Delay(*millis),
        }
    }
}

/// Everything one chaos run produced. `trace` is the full event trace in a
/// canonical text form; two runs of the same seed must produce identical
/// traces (asserted by the determinism test and `--check-determinism`).
pub struct ChaosReport {
    pub seed: u64,
    pub schedule: Schedule,
    pub outcome: RunOutcome,
    pub committed: usize,
    pub aborted: usize,
    pub violations: Vec<Violation>,
    pub notes: Vec<String>,
    pub trace: String,
    /// Per-phase latency decomposition of the whole run (virtual-clock
    /// bank; the script driver issues no wall-clock spans). Fully seed
    /// determined, like the trace.
    pub spans: SpanRegistrySnapshot,
}

impl ChaosReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "seed {}: {} ({} committed, {} aborted, {} faults, {} events)",
            self.seed,
            if self.ok() { "ok" } else { "VIOLATION" },
            self.committed,
            self.aborted,
            self.schedule.len(),
            self.trace.lines().count(),
        )?;
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if !self.ok() {
            writeln!(f, "--- schedule ---")?;
            write!(f, "{}", self.schedule)?;
        }
        Ok(())
    }
}

/// Runs the seed's generated schedule. The standard entry point: seed →
/// workload + schedule + interleaving → oracles.
pub fn run_seed(cfg: &ChaosConfig) -> ChaosReport {
    let schedule = generate_schedule(cfg);
    run_schedule(cfg, &schedule)
}

/// A disk-level crash point applied to one site's home volume during a run:
/// the site's disk dies at its `at`-th durable mutation (as counted by
/// [`locus_disk::SimDisk`]'s mutation clock), in the given mode. The harness
/// crashes the site at the next driver step after the point fires, then
/// recovers it in the epilogue and re-runs every oracle — including the
/// durability ledger — against the recovered state.
#[derive(Debug, Clone, Copy)]
pub struct DiskCrashPoint {
    pub site: usize,
    pub at: u64,
    pub mode: CrashPointMode,
}

/// A chaos run with disk-torture instrumentation attached (see
/// [`run_torture`]).
pub struct TortureRun {
    pub report: ChaosReport,
    /// Per-site recorded mutation streams of the home volumes (empty unless
    /// recording was requested).
    pub mutation_logs: Vec<Vec<MutationKind>>,
    /// Per-site mutation counts at the end of faultless setup; crash points
    /// below this boundary would hit file creation, not the commit path.
    pub setup_boundary: Vec<u64>,
    /// Whether the armed crash point fired during the run.
    pub fired: bool,
}

/// Runs one explicit schedule under the config's seed (used by `--schedule`
/// replay and by minimization, which re-runs candidate schedules).
pub fn run_schedule(cfg: &ChaosConfig, schedule: &Schedule) -> ChaosReport {
    run_inner(cfg, schedule, false, None).report
}

/// Runs one schedule with disk-torture instrumentation: optionally records
/// every durable mutation of every site's home volume, and optionally arms
/// one [`DiskCrashPoint`]. The torture driver first records a clean run to
/// enumerate commit-path mutations, then replays the same seed once per
/// selected point.
pub fn run_torture(
    cfg: &ChaosConfig,
    schedule: &Schedule,
    record: bool,
    crash_point: Option<DiskCrashPoint>,
) -> TortureRun {
    run_inner(cfg, schedule, record, crash_point)
}

fn run_inner(
    cfg: &ChaosConfig,
    schedule: &Schedule,
    record: bool,
    crash_point: Option<DiskCrashPoint>,
) -> TortureRun {
    let c = Cluster::new(cfg.sites);
    if !cfg.page_cache {
        for i in 0..cfg.sites {
            c.site(i)
                .kernel
                .page_cache_enabled
                .store(false, Ordering::Relaxed);
        }
    }
    // Record every protocol machine transition for the conformance oracle:
    // the whole run (setup included) must replay through the pure machines.
    for i in 0..cfg.sites {
        c.site(i).txn.set_transcript_recording(true);
    }
    let mut notes = Vec::new();

    let home_disk = |i: usize| c.site(i).kernel.home().expect("home volume").disk().clone();
    if record {
        for i in 0..cfg.sites {
            home_disk(i).set_recording(true);
        }
    }
    if let Some(p) = crash_point {
        assert!(p.site < cfg.sites, "crash point site out of range");
        home_disk(p.site).arm_crash_point(p.at, p.mode);
    }

    // Faultless setup: one file per site, zero-filled.
    let mut setup = Driver::new(&c, 1);
    for i in 0..cfg.sites {
        setup.spawn(
            i,
            vec![
                Op::Creat(format!("/chaos{i}")),
                Op::Write {
                    ch: 0,
                    data: vec![0; (cfg.records_per_file * 8) as usize],
                },
                Op::Close(0),
            ],
        );
    }
    if setup.run() != RunOutcome::Completed || setup.any_failures() {
        notes.push(format!("setup failed: {}", setup.failure_report()));
    }
    c.drain_async();
    // Replicated volumes: attach `replicas` extra copies of each workload
    // file round-robin, then pull the setup fill so every copy starts
    // byte-identical (the attach happens after the fill committed, so the
    // optimistic synced mark must be cleared before the pull).
    if cfg.replicas > 0 {
        let extra = cfg.replicas.min(cfg.sites.saturating_sub(1));
        for i in 0..cfg.sites {
            let name = format!("/chaos{i}");
            for r in 1..=extra {
                let rep = (i + r) % cfg.sites;
                c.add_replica(&name, i, rep);
                if let Ok(loc) = c.catalog.resolve(&name) {
                    c.catalog.mark_unsynced(loc.fid, SiteId(rep as u32));
                }
            }
        }
        c.resync_replicas();
    }
    c.events.clear();
    let setup_boundary: Vec<u64> = (0..cfg.sites)
        .map(|i| home_disk(i).mutation_count())
        .collect();

    // Workload + faults.
    let mut wrng = DetRng::seeded(cfg.seed ^ WORKLOAD_SALT);
    let specs = generate_workload(cfg, &mut wrng);
    let mut drv = Driver::new(&c, cfg.seed);
    for spec in &specs {
        drv.spawn(spec.home, spec.ops.clone());
    }
    c.transport.set_fault_injector(Some(Arc::new(ChaosInjector {
        seq: AtomicU64::new(0),
        faults: schedule.wire.iter().map(|w| (w.seq, w.kind)).collect(),
    })));
    let mut by_step: BTreeMap<usize, Vec<ClusterFaultKind>> = BTreeMap::new();
    for cf in &schedule.cluster {
        by_step.entry(cf.step).or_default().push(cf.kind.clone());
    }
    let mut violations = Vec::new();
    let mut fired = false;
    // Commit marks that reached the platters without being announced (see
    // [`durable_journal_marks`]); snapshotted at the moment the armed crash
    // point fires, keyed to that trace position.
    let mut journal_marks: BTreeMap<TransId, usize> = BTreeMap::new();
    let outcome = drv.run_with_hook(&mut |step, d| {
        if let Some(faults) = by_step.get(&step) {
            for fk in faults {
                apply_cluster_fault(&c, d, fk);
                if cfg.replicas > 0 {
                    // Replica lifecycle rides the fault schedule: a lost
                    // primary triggers epoch-guarded failover, a returning
                    // site pulls what it missed.
                    match fk {
                        ClusterFaultKind::Crash { .. } | ClusterFaultKind::Partition { .. } => {
                            c.try_failover();
                        }
                        ClusterFaultKind::Reboot { .. } | ClusterFaultKind::Heal => {
                            c.resync_replicas();
                        }
                        ClusterFaultKind::Migrate { .. } => {}
                    }
                }
            }
            // The durability ledger is asserted at every reboot: each
            // acknowledged write of a commit-marked transaction must
            // already be on the platters (or reachable through a pending
            // commit-marked prepare log). The check reads raw durable
            // state only, so it emits no events and cannot perturb the
            // deterministic trace.
            if faults
                .iter()
                .any(|fk| matches!(fk, ClusterFaultKind::Reboot { .. }))
            {
                check_durability(
                    &c,
                    &specs,
                    d,
                    &journal_marks,
                    &format!("(reboot at step {step})"),
                    &mut violations,
                );
            }
        }
        // An armed disk crash point that fired leaves the site's disk
        // offline; crash the site so the run proceeds like any other site
        // failure and the epilogue recovers it.
        if let Some(p) = crash_point {
            if !fired && home_disk(p.site).tripped() {
                fired = true;
                durable_journal_marks(&c, p.site, c.events.len(), &mut journal_marks);
                if !c.site(p.site).kernel.is_crashed() {
                    c.crash_site(p.site);
                }
            }
        }
        if step % 16 == 0 {
            oracle::check_lock_safety(&c, &mut violations);
        }
    });

    // Recovery epilogue: lift all faults, reboot the dead, finish phase two,
    // and give stalled processes one faultless chance to complete. Residual
    // blockage after that would be a real deadlock — the workload's sorted
    // lock order rules that out, so it is reported as a note, not hidden.
    c.transport.set_fault_injector(None);
    c.transport.heal();
    if let Some(p) = crash_point {
        // The point may have fired after the last driver step (e.g. during
        // draining); make sure the site goes through a full crash + reboot.
        if !fired && home_disk(p.site).tripped() {
            fired = true;
            durable_journal_marks(&c, p.site, c.events.len(), &mut journal_marks);
            if !c.site(p.site).kernel.is_crashed() {
                c.crash_site(p.site);
            }
        }
        if fired {
            notes.push(format!(
                "disk crash point fired: site {} mutation {} ({:?})",
                p.site, p.at, p.mode
            ));
        }
    }
    for i in 0..cfg.sites {
        if c.site(i).kernel.is_crashed() {
            c.reboot_site(i);
        }
    }
    c.drain_async();
    check_durability(
        &c,
        &specs,
        &drv,
        &journal_marks,
        "(after recovery epilogue)",
        &mut violations,
    );
    let outcome = match outcome {
        RunOutcome::Completed => RunOutcome::Completed,
        RunOutcome::Stuck { .. } => {
            let rerun = drv.run();
            if let RunOutcome::Stuck { ref blocked } = rerun {
                // Residual blockage with all faults lifted: consult the
                // deadlock detector's wait-for graph so the note says
                // whether this is a true cycle (a real deadlock the sorted
                // lock order should have ruled out) or starvation.
                let graph = locus_deadlock::DeadlockDetector::new(c.sites.clone()).build_graph();
                notes.push(format!(
                    "{} process(es) still blocked after recovery epilogue \
                     (wait-for graph: {} waiters, {} cycles)",
                    blocked.len(),
                    graph.node_count(),
                    graph.cycles().len()
                ));
            }
            rerun
        }
    };
    c.drain_async();
    if let Some(p) = crash_point {
        // A trip during the stuck-process rerun leaves the disk offline with
        // no scheduled recovery; finish the crash/reboot cycle so the final
        // oracles judge recovered state, not a half-dead site.
        if home_disk(p.site).tripped() {
            fired = true;
            durable_journal_marks(&c, p.site, c.events.len(), &mut journal_marks);
            if !c.site(p.site).kernel.is_crashed() {
                c.crash_site(p.site);
            }
            c.reboot_site(p.site);
            c.drain_async();
        }
    }

    // Replica epilogue: with the network healed and every site rebooted,
    // one last failover pass settles files whose primary only came back as
    // a replica, and one last pull brings every stale copy to the
    // primary's committed image — the quiesce the convergence oracle
    // judges.
    if cfg.replicas > 0 {
        c.try_failover();
        c.resync_replicas();
        c.drain_async();
    }

    // Capture the trace before the oracle probes read files (probes emit
    // events of their own and must not pollute the determinism comparison).
    let events = c.events.all();
    let trace: String = events.iter().map(|e| format!("{e:?}\n")).collect();

    oracle::check_lock_safety(&c, &mut violations);
    oracle::check_lock_leaks(&c, &events, &mut violations);
    oracle::check_two_phase_with_marks(&events, &journal_marks, &mut violations);
    // Every transition the run took must replay through the pure protocol
    // machines, and every transactional install must be machine-sanctioned.
    conformance::check_conformance(&c, &events, &mut violations);
    // No-op without replicated files; with them, every replica's durable
    // copy must match the primary's committed image after the quiesce.
    oracle::check_replica_convergence(&c, &mut violations);
    let mut fates = oracle::txn_fates(&events);
    for (t, pos) in &journal_marks {
        fates.commit_mark.entry(*t).or_insert(*pos);
    }
    check_durable_state(cfg, &c, &specs, &drv, &fates, &mut violations, &mut notes);
    check_stale_reads(&specs, &drv, schedule, crash_point, &mut violations);
    check_durability(
        &c,
        &specs,
        &drv,
        &journal_marks,
        "(at end of run)",
        &mut violations,
    );

    let tids: Vec<Option<TransId>> = (0..specs.len()).map(|s| slot_tid(&drv, s)).collect();
    let committed = tids
        .iter()
        .flatten()
        .filter(|t| fates.commit_mark.contains_key(t))
        .count();
    let aborted = tids
        .iter()
        .flatten()
        .filter(|t| fates.aborted.contains(t))
        .count();

    let mutation_logs = if record {
        (0..cfg.sites)
            .map(|i| home_disk(i).take_mutation_log())
            .collect()
    } else {
        Vec::new()
    };

    TortureRun {
        report: ChaosReport {
            seed: cfg.seed,
            schedule: schedule.clone(),
            outcome,
            committed,
            aborted,
            violations,
            notes,
            trace,
            spans: c.spans(),
        },
        mutation_logs,
        setup_boundary,
        fired,
    }
}

/// Builds the acked-write ledger from the driver's results and the event
/// trace's commit marks, then asserts it against raw durable state (see
/// [`oracle::DurabilityLedger`]). Runs at every mid-schedule reboot, after
/// the recovery epilogue, and at end of run; emits no events.
fn check_durability(
    c: &Cluster,
    specs: &[TxnSpec],
    drv: &Driver<'_>,
    journal_marks: &BTreeMap<TransId, usize>,
    context: &str,
    out: &mut Vec<Violation>,
) {
    let events = c.events.all();
    let mut fates = oracle::txn_fates(&events);
    // Durable-but-unannounced commit marks (torn flush landed the status
    // frame before the coordinator could say so) count as marked.
    for (t, pos) in journal_marks {
        fates.commit_mark.entry(*t).or_insert(*pos);
    }
    let mut ledger = oracle::DurabilityLedger::default();
    let mut committed: BTreeSet<TransId> = BTreeSet::new();
    for (slot, spec) in specs.iter().enumerate() {
        let Some(t) = slot_tid(drv, slot) else {
            continue;
        };
        let Some(pos) = fates.commit_mark.get(&t) else {
            continue;
        };
        committed.insert(t);
        let chans = actual_channels(spec, drv.results(slot));
        for (op_idx, _, r, val) in &spec.writes {
            let Some(Op::Write { ch, .. }) = spec.ops.get(*op_idx) else {
                continue;
            };
            let Some(actual_f) = chans.get(*ch).copied() else {
                continue;
            };
            let acked = matches!(drv.results(slot).get(*op_idx), Some(OpResult::Unit));
            ledger.record_write(actual_f, *r, *pos, *val, acked);
        }
    }
    let sub = oracle::ClusterSubstrate {
        cluster: c,
        committed,
    };
    ledger.check(&sub, context, out);
}

/// The stale-read oracle: every read probe the workload planted (see
/// [`ChaosConfig::reads_per_txn`]) must have observed legal bytes under its
/// held exclusive lock.
///
/// A probe placed *after* the slot's own acknowledged write must return the
/// slot's own uncommitted tag — the per-site page cache serving anything
/// older is exactly the stale-read bug this oracle exists to catch. The
/// check is skipped when the record's storage site crashed during the run
/// (a crash legitimately discards volatile uncommitted writes, so the
/// post-reboot read sees the last committed value instead) or when either
/// the write or the read failed outright.
///
/// A probe placed after the lock but *before* the write must return a
/// committed value: zero (the setup fill) or some slot's tag aimed at that
/// record. Exclusive locks make anything else — torn bytes, another
/// record's bytes, a value no writer produced — evidence of a stale or
/// corrupt read, crash or no crash (crash recovery also lands on committed
/// values). Channel redirection from failed opens is resolved the same way
/// the durable-state oracle resolves it, so probes are judged against the
/// file they actually hit.
fn check_stale_reads(
    specs: &[TxnSpec],
    drv: &Driver<'_>,
    schedule: &Schedule,
    crash_point: Option<DiskCrashPoint>,
    out: &mut Vec<Violation>,
) {
    // Sites whose volatile state died at least once during the run.
    let mut crashed: BTreeSet<usize> = schedule
        .cluster
        .iter()
        .filter_map(|cf| match cf.kind {
            ClusterFaultKind::Crash { site } => Some(site),
            _ => None,
        })
        .collect();
    if let Some(p) = crash_point {
        crashed.insert(p.site);
    }
    // A partition can make an isolated participant unilaterally roll a
    // transaction back (presumed abort), reverting acked uncommitted
    // writes; which transactions that hits depends on where the cut fell,
    // so any partition relaxes the own-write checks cluster-wide.
    let partitioned = schedule
        .cluster
        .iter()
        .any(|cf| matches!(cf.kind, ClusterFaultKind::Partition { .. }));
    // Every value any slot's write could have left at each (file, record),
    // resolved through actual channels; pre-write probes must land in here
    // (or on the zero fill).
    let mut producible: BTreeMap<(usize, u64), BTreeSet<u64>> = BTreeMap::new();
    for (slot, spec) in specs.iter().enumerate() {
        let chans = actual_channels(spec, drv.results(slot));
        for (op_idx, _, r, val) in &spec.writes {
            let Some(Op::Write { ch, .. }) = spec.ops.get(*op_idx) else {
                continue;
            };
            if let Some(actual_f) = chans.get(*ch).copied() {
                producible.entry((actual_f, *r)).or_default().insert(*val);
            }
        }
    }
    for (slot, spec) in specs.iter().enumerate() {
        let chans = actual_channels(spec, drv.results(slot));
        for probe in &spec.reads {
            let Some(OpResult::Data(data)) = drv.results(slot).get(probe.op) else {
                // Never executed (process died first) or failed (site down,
                // partition): no bytes were observed, nothing to judge.
                continue;
            };
            let Some(file) = chans.get(probe.ch).copied() else {
                continue;
            };
            if data.len() != 8 {
                out.push(Violation::StaleRead {
                    slot,
                    file,
                    record: probe.record,
                    detail: format!("read returned {} bytes, wanted 8", data.len()),
                });
                continue;
            }
            let v = u64::from_le_bytes(data[..8].try_into().expect("8-byte record"));
            match probe.after_write {
                Some((write_op, tagv)) => {
                    let acked = matches!(drv.results(slot).get(write_op), Some(OpResult::Unit));
                    if !acked || partitioned || crashed.contains(&file) {
                        continue;
                    }
                    if v != tagv {
                        out.push(Violation::StaleRead {
                            slot,
                            file,
                            record: probe.record,
                            detail: format!(
                                "read after own acked write saw {v:#x}, wanted own tag {tagv:#x}"
                            ),
                        });
                    }
                }
                None => {
                    let ok = v == 0
                        || producible
                            .get(&(file, probe.record))
                            .is_some_and(|s| s.contains(&v));
                    if !ok {
                        out.push(Violation::StaleRead {
                            slot,
                            file,
                            record: probe.record,
                            detail: format!("read under lock saw {v:#x}, which no writer produces"),
                        });
                    }
                }
            }
        }
    }
}

/// Snapshots the commit marks that reached `site`'s platters without being
/// announced: a torn group-commit flush can land the durable `Committed`
/// status frame even as the flush call fails and the site dies before
/// emitting [`locus_sim::Event::CommitMark`]. The durable frame — not the
/// in-memory acknowledgement — is the commit point, so recovery redoing
/// such a transaction is correct and the oracles must treat it as marked.
/// `pos` is the trace position of the crash (every pre-crash event precedes
/// the mark). Reads raw durable frames only; emits no events, charges no
/// I/O.
fn durable_journal_marks(c: &Cluster, site: usize, pos: usize, out: &mut BTreeMap<TransId, usize>) {
    let Ok(home) = c.site(site).kernel.home() else {
        return;
    };
    for rec in home.durable_coord_records() {
        if rec.status == TxnStatus::Committed {
            out.entry(rec.tid).or_insert(pos);
        }
    }
}

/// The transaction id slot `s` started, read from its `BeginTrans` result.
fn slot_tid(drv: &Driver<'_>, slot: usize) -> Option<TransId> {
    match drv.results(slot).first() {
        Some(OpResult::Tid(t)) => Some(*t),
        _ => None,
    }
}

fn apply_cluster_fault(c: &Cluster, d: &Driver<'_>, fk: &ClusterFaultKind) {
    match fk {
        ClusterFaultKind::Crash { site } => {
            if *site < c.n_sites() && !c.site(*site).kernel.is_crashed() {
                c.crash_site(*site);
            }
        }
        ClusterFaultKind::Reboot { site } => {
            if *site < c.n_sites() && c.site(*site).kernel.is_crashed() {
                c.reboot_site(*site);
            }
        }
        ClusterFaultKind::Partition { sites } => {
            let ids: Vec<SiteId> = sites
                .iter()
                .filter(|s| **s < c.n_sites())
                .map(|s| SiteId(*s as u32))
                .collect();
            if !ids.is_empty() && ids.len() < c.n_sites() {
                c.transport.partition(&ids);
            }
        }
        ClusterFaultKind::Heal => c.transport.heal(),
        ClusterFaultKind::Migrate { slot, to } => {
            if *slot >= d.n_procs() || *to >= c.n_sites() || d.is_blocked(*slot) {
                return;
            }
            if c.site(*to).kernel.is_crashed() {
                return;
            }
            let pid = d.pid(*slot);
            let Some(here) = c.registry.lookup(pid) else {
                return;
            };
            let src = &c.sites[here.0 as usize];
            if here.0 as usize == *to || src.kernel.is_crashed() {
                return;
            }
            // Only migrate mid-transaction — that is the interesting case
            // (the transaction's file list and locks must follow the
            // process, Section 4.1).
            let in_txn = src
                .kernel
                .procs
                .get(pid)
                .map(|r| r.tid.is_some())
                .unwrap_or(false);
            if in_txn {
                let mut acct = c.account(here.0 as usize);
                let _ = src.kernel.migrate(pid, SiteId(*to as u32), &mut acct);
            }
        }
    }
}

/// The file each of a slot's channel indices actually refers to. Channel
/// indices in a script are open-order positions, and a failed `Open` (its
/// storage site was crashed or partitioned away) pushes no channel — every
/// later index shifts down, silently redirecting the script's remaining
/// seeks, locks, and writes to a *different* file. That redirection is
/// deterministic and visible in the driver results, so the state oracle
/// replays writes against the file they actually hit, not the one the
/// generator intended.
fn actual_channels(spec: &TxnSpec, results: &[OpResult]) -> Vec<usize> {
    let mut files = Vec::new();
    for (i, op) in spec.ops.iter().enumerate() {
        if let Op::Open { name, .. } = op {
            if matches!(results.get(i), Some(OpResult::Channel(_))) {
                let f: usize = name
                    .strip_prefix("/chaos")
                    .and_then(|n| n.parse().ok())
                    .expect("workload file name");
                files.push(f);
            }
        }
    }
    files
}

/// The durable-state oracle: atomicity + serializability.
///
/// Replays the committed transactions in commit-mark order over a model of
/// every record, computing the set of *acceptable* final values. A write
/// whose driver result was `Unit` definitely reached the storage site and
/// replaces the acceptance set; a write whose result was an error is
/// *ambiguous* (a dropped reply loses the acknowledgement, not the write)
/// and widens the set. The actual durable value of every record must land
/// in the set; misses are classified by who wrote the stray value.
#[allow(clippy::too_many_arguments)]
fn check_durable_state(
    cfg: &ChaosConfig,
    c: &Cluster,
    specs: &[TxnSpec],
    drv: &Driver<'_>,
    fates: &oracle::TxnFates,
    out: &mut Vec<Violation>,
    notes: &mut Vec<String>,
) {
    // Commit order of workload slots.
    let mut committed: Vec<(usize, usize)> = Vec::new(); // (commit mark pos, slot)
    for (slot, _) in specs.iter().enumerate() {
        if let Some(t) = slot_tid(drv, slot) {
            if let Some(pos) = fates.commit_mark.get(&t) {
                committed.push((*pos, slot));
            }
        }
    }
    committed.sort_unstable();

    let mut acc: BTreeMap<(usize, u64), BTreeSet<u64>> = BTreeMap::new();
    for f in 0..cfg.sites {
        for r in 0..cfg.records_per_file {
            acc.insert((f, r), BTreeSet::from([0]));
        }
    }
    let mut writers_of: BTreeMap<(usize, u64), Vec<String>> = BTreeMap::new();
    for (_, slot) in &committed {
        let chans = actual_channels(&specs[*slot], drv.results(*slot));
        for (op_idx, _, r, val) in &specs[*slot].writes {
            let Some(Op::Write { ch, .. }) = specs[*slot].ops.get(*op_idx) else {
                unreachable!("write index points at a Write op");
            };
            let Some(actual_f) = chans.get(*ch).copied() else {
                // The channel never existed (BadChannel): the write hit
                // nothing, definitely.
                continue;
            };
            let definite = matches!(drv.results(*slot).get(*op_idx), Some(OpResult::Unit));
            let set = acc.entry((actual_f, *r)).or_default();
            if definite {
                set.clear();
            }
            set.insert(*val);
            writers_of.entry((actual_f, *r)).or_default().push(format!(
                "slot {slot} val {val:#x} ({})",
                if definite { "acked" } else { "unacked" }
            ));
        }
    }

    let window = ByteRange::new(0, cfg.records_per_file * 8);
    for f in 0..cfg.sites {
        // The durable image at the file's current primary, read off the
        // platters as `check_replica_convergence` reads it: no lock to be
        // refused, no event, no charge.
        let name = format!("/chaos{f}");
        let peeked = c.catalog.resolve(&name).ok().and_then(|loc| {
            c.site(loc.primary.0 as usize)
                .kernel
                .volume(loc.fid.volume)
                .ok()
                .and_then(|v| v.durable_peek(loc.fid, window))
        });
        let Some(mut data) = peeked else {
            notes.push(format!("state probe of {name} found no durable inode"));
            continue;
        };
        // Records past the durable length were never written.
        data.resize(window.len as usize, 0);
        for r in 0..cfg.records_per_file {
            let bytes = &data[(r * 8) as usize..((r + 1) * 8) as usize];
            let v = u64::from_le_bytes(bytes.try_into().expect("8-byte record"));
            if acc[&(f, r)].contains(&v) {
                continue;
            }
            let writer = untag(v).filter(|(slot, kk)| {
                specs
                    .get(*slot)
                    .map(|s| *kk < s.writes.len())
                    .unwrap_or(false)
            });
            out.push(match writer {
                None => Violation::Durability {
                    file: f,
                    record: r,
                    found: v,
                    detail: format!(
                        "value matches no writer (lost or torn write); committed writers: [{}]",
                        writers_of
                            .get(&(f, r))
                            .map(|w| w.join(", "))
                            .unwrap_or_default()
                    ),
                },
                Some((slot, _)) => {
                    let slot_committed = committed.iter().any(|(_, s)| *s == slot);
                    if slot_committed {
                        Violation::Serializability {
                            file: f,
                            record: r,
                            found: v,
                            detail: format!(
                                "stale write of committed slot {slot} survives out of order"
                            ),
                        }
                    } else {
                        Violation::Atomicity {
                            file: f,
                            record: r,
                            found: v,
                            detail: format!("write of uncommitted slot {slot} is durable"),
                        }
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trips() {
        for slot in 0..16 {
            for k in 0..8 {
                assert_eq!(untag(tag(slot, k)), Some((slot, k)));
            }
        }
        assert_eq!(untag(0), None);
        assert_eq!(untag(7), None); // k without slot
    }

    #[test]
    fn workload_is_deterministic_and_sorted() {
        let cfg = ChaosConfig::with_seed(11);
        let a = generate_workload(&cfg, &mut DetRng::seeded(3));
        let b = generate_workload(&cfg, &mut DetRng::seeded(3));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        for spec in &a {
            let targets: Vec<(usize, u64)> =
                spec.writes.iter().map(|(_, f, r, _)| (*f, *r)).collect();
            let mut sorted = targets.clone();
            sorted.sort_unstable();
            assert_eq!(targets, sorted, "lock order must be global");
        }
    }

    #[test]
    fn faultless_schedule_commits_everything() {
        let cfg = ChaosConfig::with_seed(5);
        let report = run_schedule(&cfg, &Schedule::default());
        assert!(report.ok(), "{report}");
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert_eq!(report.committed, cfg.procs, "{report}");
        assert_eq!(report.aborted, 0);
    }

    #[test]
    fn seeded_run_finds_no_violations() {
        let report = run_seed(&ChaosConfig::with_seed(2));
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn replicated_faultless_schedule_commits_and_converges() {
        let mut cfg = ChaosConfig::with_seed(5);
        cfg.replicas = 2;
        let report = run_schedule(&cfg, &Schedule::default());
        assert!(report.ok(), "{report}");
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert_eq!(report.committed, cfg.procs, "{report}");
    }

    #[test]
    fn replicated_seeded_runs_find_no_violations() {
        for seed in [2, 7] {
            let mut cfg = ChaosConfig::with_seed(seed);
            cfg.replicas = 2;
            let report = run_seed(&cfg);
            assert!(report.ok(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn replica_convergence_oracle_flags_divergence() {
        // A replica attached *after* a commit holds no durable copy: the
        // optimistic synced mark makes it divergent, and the oracle must
        // say so (a vacuous oracle would bless every campaign run). The
        // catch-up pull then repairs it.
        let c = Cluster::new(2);
        let mut a = c.account(0);
        let p = c.site(0).kernel.spawn();
        let ch = c.site(0).kernel.creat(p, "/conv", &mut a).unwrap();
        c.site(0).kernel.write(p, ch, &[7u8; 64], &mut a).unwrap();
        c.site(0).kernel.close(p, ch, &mut a).unwrap();
        c.add_replica("/conv", 0, 1);
        let mut v = Vec::new();
        oracle::check_replica_convergence(&c, &mut v);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::ReplicaDivergence { .. })),
            "oracle missed an empty replica copy: {v:?}"
        );
        let fid = c.catalog.resolve("/conv").unwrap().fid;
        c.catalog.mark_unsynced(fid, SiteId(1));
        assert_eq!(c.resync_replicas(), 1);
        let mut v = Vec::new();
        oracle::check_replica_convergence(&c, &mut v);
        assert!(v.is_empty(), "resynced replica still divergent: {v:?}");
    }

    #[test]
    fn read_probes_execute_and_stay_clean_faultlessly() {
        let mut cfg = ChaosConfig::with_seed(9);
        cfg.reads_per_txn = 2;
        let specs = generate_workload(&cfg, &mut DetRng::seeded(cfg.seed ^ WORKLOAD_SALT));
        let planted: usize = specs.iter().map(|s| s.reads.len()).sum();
        assert!(planted > 0, "workload planted no read probes");
        let report = run_schedule(&cfg, &Schedule::default());
        assert!(report.ok(), "{report}");
        assert_eq!(report.committed, cfg.procs, "{report}");
    }

    #[test]
    fn read_probes_off_leave_the_workload_unchanged() {
        // reads_per_txn = 0 must not perturb the op stream or the RNG
        // draws — the pinned seed-1 trace depends on it.
        let base = ChaosConfig::with_seed(1);
        let mut probed = base.clone();
        probed.reads_per_txn = 0;
        let a = generate_workload(&base, &mut DetRng::seeded(3));
        let b = generate_workload(&probed, &mut DetRng::seeded(3));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn stale_read_oracle_flags_wrong_bytes() {
        // Synthesizes a run where the post-write probe observed stale
        // zeros instead of the slot's own tag, and checks the oracle
        // actually fires (a vacuous oracle would pass every corpus run).
        let mut cfg = ChaosConfig::with_seed(9);
        cfg.sites = 1;
        cfg.procs = 1;
        cfg.reads_per_txn = 1;
        let c = Cluster::new(1);
        let mut setup = Driver::new(&c, 1);
        setup.spawn(
            0,
            vec![
                Op::Creat("/chaos0".into()),
                Op::Write {
                    ch: 0,
                    data: vec![0; 64],
                },
                Op::Close(0),
            ],
        );
        assert_eq!(setup.run(), RunOutcome::Completed);
        let specs = generate_workload(&cfg, &mut DetRng::seeded(cfg.seed ^ WORKLOAD_SALT));
        let mut drv = Driver::new(&c, cfg.seed);
        drv.spawn(specs[0].home, specs[0].ops.clone());
        assert_eq!(drv.run(), RunOutcome::Completed);
        let mut violations = Vec::new();
        check_stale_reads(&specs, &drv, &Schedule::default(), None, &mut violations);
        assert!(violations.is_empty(), "clean run misjudged: {violations:?}");

        // Corrupt the recorded observation of the after-write probe.
        let mut bad = specs.clone();
        let probe = bad[0]
            .reads
            .iter_mut()
            .find(|p| p.after_write.is_some())
            .expect("after-write probe planted");
        let (write_op, _) = probe.after_write.expect("probe carries the write");
        probe.after_write = Some((write_op, 0xdead_beef));
        let mut violations = Vec::new();
        check_stale_reads(&bad, &drv, &Schedule::default(), None, &mut violations);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::StaleRead { .. })),
            "oracle missed a read that disagrees with the own write"
        );
    }
}
