//! The figure/table reproductions.
//!
//! One function per evaluation artifact; each runs the *real* system inside
//! a fresh [`Cluster`], measures via per-activity accounts and counters, and
//! returns a structured report with a `render()` producing the paper-style
//! table. The `locus-bench` binaries print these; EXPERIMENTS.md records
//! paper-vs-measured.

use locus_sim::{Account, CostModel, SimDuration};
use locus_types::{lockmode, LockRequestMode, Service};

use locus_kernel::LockOpts;

use crate::cluster::Cluster;
use crate::table::Table;

/// Figure 1: the lock-mode compatibility matrix, straight from the code.
pub fn fig1_compatibility() -> String {
    format!(
        "== Figure 1: Transaction Synchronization Rules ==\n{}",
        lockmode::figure1_table()
    )
}

/// One measured scenario of Figure 6 / Section 6.2-style tables.
#[derive(Debug, Clone)]
pub struct Measured {
    pub label: String,
    /// CPU consumed at the requesting (local) site.
    pub service: SimDuration,
    /// Instructions equivalent of `service` under the model.
    pub instructions: u64,
    /// Elapsed (latency).
    pub latency: SimDuration,
}

impl Measured {
    fn from_delta(label: &str, d: &Account, model: &CostModel) -> Self {
        Measured {
            label: label.to_string(),
            service: d.cpu_home,
            instructions: d.cpu_home.as_nanos() / model.instr_ns.max(1),
            latency: d.elapsed,
        }
    }
}

/// Section 6.2: record-locking cost, local vs remote.
pub struct LockLatencyReport {
    pub rows: Vec<Measured>,
}

/// Measures the Section 6.2 table: the cost of obtaining a single lock when
/// the requester is at the storage site and when it is remote.
pub fn lock_latency(model: CostModel) -> LockLatencyReport {
    let c = Cluster::with_model(2, model.clone());
    // File stored at site 0.
    let mut a0 = c.account(0);
    let p0 = c.site(0).kernel.spawn();
    let ch0 = c.site(0).kernel.creat(p0, "/locks", &mut a0).unwrap();
    c.site(0)
        .kernel
        .write(p0, ch0, &vec![0u8; 8192], &mut a0)
        .unwrap();
    c.site(0).kernel.close(p0, ch0, &mut a0).unwrap();

    let measure = |site: usize, label: &str| -> Measured {
        let mut acct = c.account(site);
        let p = c.site(site).kernel.spawn();
        let ch = c
            .site(site)
            .kernel
            .open(p, "/locks", true, &mut acct)
            .unwrap();
        // "repeatedly locking ascending groups of bytes in a file"
        // (Section 6.2); average over the loop.
        let n = 64u64;
        let before = acct.clone();
        for i in 0..n {
            c.site(site).kernel.lseek(p, ch, i * 16, &mut acct).unwrap();
            c.site(site)
                .kernel
                .lock(
                    p,
                    ch,
                    16,
                    LockRequestMode::Exclusive,
                    LockOpts::default(),
                    &mut acct,
                )
                .unwrap();
        }
        let mut d = acct.delta_since(&before);
        d.cpu_home = d.cpu_home / n;
        d.elapsed = d.elapsed / n;
        // Remove the lseek syscall from the per-lock figure.
        let seek = c.model.instrs(c.model.syscall_instrs);
        d.cpu_home = d.cpu_home.saturating_sub(seek);
        d.elapsed = d.elapsed.saturating_sub(seek);
        // Release this measurement's locks so the next one starts clean.
        c.site(site).kernel.exit(p, &mut acct).unwrap();
        Measured::from_delta(label, &d, &c.model)
    };

    let local = measure(0, "local lock (requester at storage site)");
    let remote = measure(1, "remote lock (requester one RTT away)");
    LockLatencyReport {
        rows: vec![local, remote],
    }
}

impl LockLatencyReport {
    pub fn render(&self) -> String {
        let mut t = Table::new("Section 6.2: Record Locking Performance").header([
            "case",
            "service",
            "instructions",
            "latency",
        ]);
        for r in &self.rows {
            t.row([
                r.label.clone(),
                format!("{}", r.service),
                format!("~{} inst", r.instructions),
                format!("{}", r.latency),
            ]);
        }
        t.render()
    }
}

/// Figure 6: measured commit performance, local/remote × overlap/non-overlap.
pub struct Fig6Report {
    pub rows: Vec<Measured>,
}

/// Runs the four Figure 6 scenarios: committing a set of records on one data
/// page when another user's updates do / do not share the page, with the
/// file local or one network hop away.
pub fn fig6_commit_performance(model: CostModel) -> Fig6Report {
    let mut rows = Vec::new();
    for (remote, site_label) in [(false, "Local"), (true, "Remote")] {
        for (overlap, ov_label) in [(false, "Non-overlap"), (true, "Overlap")] {
            let c = Cluster::with_model(2, model.clone());
            let mut a0 = c.account(0);
            let p0 = c.site(0).kernel.spawn();
            let ch0 = c.site(0).kernel.creat(p0, "/data", &mut a0).unwrap();
            c.site(0)
                .kernel
                .write(p0, ch0, &vec![0u8; 1024], &mut a0)
                .unwrap();
            c.site(0).kernel.commit_file(p0, ch0, &mut a0).unwrap();

            if overlap {
                // A second user modifies a disjoint record on the same page
                // and holds its update uncommitted.
                let other = c.site(0).kernel.spawn();
                let och = c
                    .site(0)
                    .kernel
                    .open(other, "/data", true, &mut a0)
                    .unwrap();
                c.site(0).kernel.lseek(other, och, 600, &mut a0).unwrap();
                c.site(0)
                    .kernel
                    .lock(
                        other,
                        och,
                        100,
                        LockRequestMode::Exclusive,
                        LockOpts::default(),
                        &mut a0,
                    )
                    .unwrap();
                c.site(0)
                    .kernel
                    .write(other, och, &[9u8; 100], &mut a0)
                    .unwrap();
            }

            // The measured user updates records at the start of the page…
            let req_site = if remote { 1 } else { 0 };
            let mut acct = c.account(req_site);
            let p = c.site(req_site).kernel.spawn();
            let ch = c
                .site(req_site)
                .kernel
                .open(p, "/data", true, &mut acct)
                .unwrap();
            c.site(req_site)
                .kernel
                .lock(
                    p,
                    ch,
                    200,
                    LockRequestMode::Exclusive,
                    LockOpts::default(),
                    &mut acct,
                )
                .unwrap();
            c.site(req_site)
                .kernel
                .write(p, ch, &[7u8; 200], &mut acct)
                .unwrap();
            // …and commits them (the record commit of Section 6.3).
            let before = acct.clone();
            c.site(req_site)
                .kernel
                .commit_file(p, ch, &mut acct)
                .unwrap();
            let d = acct.delta_since(&before);
            rows.push(Measured::from_delta(
                &format!("{site_label} / {ov_label}"),
                &d,
                &c.model,
            ));
        }
    }
    Fig6Report { rows }
}

impl Fig6Report {
    pub fn render(&self) -> String {
        let mut t = Table::new("Figure 6: Measured Commit Performance").header([
            "case",
            "service time (requesting site)",
            "latency",
        ]);
        for r in &self.rows {
            t.row([
                r.label.clone(),
                format!("{} ({} inst)", r.service, r.instructions),
                format!("{}", r.latency),
            ]);
        }
        t.render()
    }
}

/// Figure 5: transaction I/O overhead, step by step.
pub struct Fig5Report {
    /// (step description, I/O count) in protocol order.
    pub steps: Vec<(String, u64)>,
    /// Synchronous I/Os before the transaction completes.
    pub sync_ios: u64,
    /// Deferred phase-two I/Os.
    pub async_ios: u64,
    pub label: String,
}

/// Counts the I/Os of a transaction updating `pages` pages in each of
/// `files` files (each file on its own site/volume), under `model`.
pub fn fig5_txn_io(model: CostModel, files: usize, pages: u64) -> Fig5Report {
    let log_ios = model.log_append_ios();
    let c = Cluster::with_model(files.max(1), model);
    // One file per site (per logical volume — Section 6.1's multi-volume
    // case).
    let mut names = Vec::new();
    for i in 0..files {
        let mut a = c.account(i);
        let p = c.site(i).kernel.spawn();
        let name = format!("/f{i}");
        let ch = c.site(i).kernel.creat(p, &name, &mut a).unwrap();
        c.site(i).kernel.close(p, ch, &mut a).unwrap();
        names.push(name);
    }
    let mut acct = c.account(0);
    let pid = c.site(0).kernel.spawn();
    c.site(0).txn.begin_trans(pid, &mut acct).unwrap();
    for name in &names {
        let ch = c.site(0).kernel.open(pid, name, true, &mut acct).unwrap();
        for pg in 0..pages {
            c.site(0)
                .kernel
                .lseek(pid, ch, pg * 1024, &mut acct)
                .unwrap();
            c.site(0).kernel.write(pid, ch, b"rec", &mut acct).unwrap();
        }
    }
    let before = acct.clone();
    c.site(0).txn.end_trans(pid, &mut acct).unwrap();
    let sync = acct.delta_since(&before);

    // Deferred phase two: a remote participant acks once its install has
    // landed, and with no transaction behind this one the requester's
    // resend is what forces it. Each commit rides the next message to its
    // site, going on its own after a pass with none, so the passes run
    // until nothing is pending.
    let mut async_acct = c.account(0);
    while c.sites.iter().any(|s| s.txn.pending_async() > 0) {
        for s in &c.sites {
            let mut a = Account::new(s.id());
            s.txn.run_async_work(&mut a);
            async_acct.disk_writes += a.disk_writes;
            async_acct.seq_ios += a.seq_ios;
            async_acct.disk_reads += a.disk_reads;
        }
    }

    // The rule, not a count: data pages, then one force per storage site of
    // its yes record with its prepare records ahead of it — the storage
    // sites' durable yes votes decide the transaction, so no site forces a
    // commit mark, and the requester's own site (file 0 lives there) takes
    // its part as a step of its own machine. Phase two's installs are
    // records under the same rule: the requester's own rides its journal's
    // next force — its forgets wait for it to land — and every other
    // site's rides that site's next force and is acked once it lands — the
    // requester forgets on the ack, and here, with no later transaction,
    // its resend forces it. Truncations are lazy everywhere.
    let other_sites = files.saturating_sub(1) as u64;
    let steps = vec![
        (
            "1. hand each other storage site its part of the decision (nothing logged)"
                .to_string(),
            0,
        ),
        (
            format!("2. flush modified data pages ({} × {} files)", pages, files),
            pages * files as u64,
        ),
        (
            format!("3. force of the yes record and prepare records (× {other_sites} other storage sites)"),
            log_ios * other_sites,
        ),
        (
            "4. force of the requester's own record and prepare records (born committed when alone)"
                .to_string(),
            log_ios,
        ),
        (
            format!("5. (async) inode records (× {files}), landed before the ack at the {other_sites} other site(s)"),
            log_ios * other_sites,
        ),
    ];
    Fig5Report {
        steps,
        sync_ios: sync.total_ios(),
        async_ios: async_acct.total_ios(),
        label: format!("{files} file(s) × {pages} page(s)"),
    }
}

/// Figure 5 in steady state: `(sequential, random)` I/Os of each of `txns`
/// consecutive one-page local transactions on one file, synchronous window
/// and deferred phase two together. [`fig5_txn_io`] prices the first
/// transaction on an empty journal; this prices the ones after it, when the
/// journal must also give back the space of the transactions before and
/// land the install each one left in its tail.
pub fn fig5_steady_state(model: CostModel, txns: usize) -> Vec<(u64, u64)> {
    let c = Cluster::with_model(1, model);
    let site = c.site(0);
    let mut acct = c.account(0);
    let pid = site.kernel.spawn();
    let ch = site.kernel.creat(pid, "/f", &mut acct).unwrap();
    (0..txns)
        .map(|_| {
            let before = acct.clone();
            site.txn.begin_trans(pid, &mut acct).unwrap();
            site.kernel.lseek(pid, ch, 0, &mut acct).unwrap();
            site.kernel.write(pid, ch, b"rec", &mut acct).unwrap();
            site.txn.end_trans(pid, &mut acct).unwrap();
            site.txn.run_async_work(&mut acct);
            let d = acct.delta_since(&before);
            (d.seq_ios, d.disk_reads + d.disk_writes)
        })
        .collect()
}

/// Stable barriers per commit, before vs. after group commit.
///
/// `frames` counts the commit-path journal records made durable during the
/// synchronous window of one `end_trans` — under the old individually
/// barriered KV layout each of those was its own synchronous stable write,
/// so it *is* the "before" barrier count. `flushes` counts the actual
/// forces issued in the same window ("after"): one per storage site, the
/// force of its yes record with its prepare record ahead of it. The async
/// pair covers phase two: an inode record and a truncation per file, among
/// peers a note of the commit per site, and the requester's purge of its
/// own record. The installs at sites other than the requester's land
/// before their acks — here the resend forces them, no later transaction
/// being there to carry them; the rest is lazy, and what is counted for it
/// is [`Cluster::drain_async`]'s step-boundary flush of the home journal.
/// Without that harness flush it rides the home journal's next
/// commit-path force.
pub struct GroupCommitReport {
    pub files: usize,
    pub sync_frames: u64,
    pub sync_flushes: u64,
    pub async_frames: u64,
    pub async_flushes: u64,
}

/// Measures journal frames vs. flushes across one distributed commit
/// touching `files` files, each on its own site/volume (site 0 requests).
pub fn group_commit_barriers(files: usize) -> GroupCommitReport {
    let c = Cluster::new(files.max(1));
    let mut names = Vec::new();
    for i in 0..files {
        let mut a = c.account(i);
        let p = c.site(i).kernel.spawn();
        let name = format!("/f{i}");
        let ch = c.site(i).kernel.creat(p, &name, &mut a).unwrap();
        c.site(i).kernel.close(p, ch, &mut a).unwrap();
        names.push(name);
    }
    let stats = |c: &Cluster| -> (u64, u64) {
        c.sites
            .iter()
            .map(|s| s.kernel.home().unwrap().journal().flush_stats())
            .fold((0, 0), |(fl, fr), (f, n, _)| (fl + f, fr + n))
    };
    let mut acct = c.account(0);
    let pid = c.site(0).kernel.spawn();
    c.site(0).txn.begin_trans(pid, &mut acct).unwrap();
    for name in &names {
        let ch = c.site(0).kernel.open(pid, name, true, &mut acct).unwrap();
        c.site(0).kernel.write(pid, ch, b"rec", &mut acct).unwrap();
    }
    let (fl0, fr0) = stats(&c);
    c.site(0).txn.end_trans(pid, &mut acct).unwrap();
    let (fl1, fr1) = stats(&c);
    c.drain_async();
    let (fl2, fr2) = stats(&c);
    GroupCommitReport {
        files,
        sync_frames: fr1 - fr0,
        sync_flushes: fl1 - fl0,
        async_frames: fr2 - fr1,
        async_flushes: fl2 - fl1,
    }
}

impl Fig5Report {
    pub fn render(&self) -> String {
        let mut t = Table::new(&format!(
            "Figure 5: Transaction I/O Overhead — {}",
            self.label
        ))
        .header(["step", "I/Os"]);
        for (s, n) in &self.steps {
            t.row([s.clone(), n.to_string()]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "measured: {} synchronous I/Os before completion + {} asynchronous\n",
            self.sync_ios, self.async_ios
        ));
        out
    }

    /// The step table's predicted totals (sync = steps 1–4, async = step 5).
    pub fn predicted(&self) -> (u64, u64) {
        let sync: u64 = self.steps[..4].iter().map(|(_, n)| n).sum();
        (sync, self.steps[4].1)
    }
}

/// Ablation: lock-then-read latency of a cold 4 KiB at a remote storage
/// site, with and without Section 5.2's prefetch of the locked pages. Both
/// paths exist side by side: an exclusive lock's grant is bare and the read
/// fetches; a shared lock's grant carries the pages and the read is local.
pub struct PrefetchReport {
    pub bare_grant: SimDuration,
    pub grant_with_pages: SimDuration,
}

pub fn prefetch_ablation(model: CostModel) -> PrefetchReport {
    let run = |mode: LockRequestMode| -> SimDuration {
        let c = Cluster::with_model(2, model.clone());
        let mut a0 = c.account(0);
        let p0 = c.site(0).kernel.spawn();
        let ch0 = c.site(0).kernel.creat(p0, "/big", &mut a0).unwrap();
        c.site(0)
            .kernel
            .write(p0, ch0, &vec![3u8; 4096], &mut a0)
            .unwrap();
        c.site(0).kernel.close(p0, ch0, &mut a0).unwrap();
        // Empty the storage site's buffers.
        c.crash_site(0);
        c.reboot_site(0);

        let mut acct = c.account(1);
        let p = c.site(1).kernel.spawn();
        let ch = c.site(1).kernel.open(p, "/big", true, &mut acct).unwrap();
        let before = acct.clone();
        c.site(1)
            .kernel
            .lock(p, ch, 4096, mode, LockOpts::default(), &mut acct)
            .unwrap();
        c.site(1).kernel.read(p, ch, 4096, &mut acct).unwrap();
        acct.delta_since(&before).elapsed
    };
    PrefetchReport {
        bare_grant: run(LockRequestMode::Exclusive),
        grant_with_pages: run(LockRequestMode::Shared),
    }
}

impl PrefetchReport {
    pub fn render(&self) -> String {
        let mut t = Table::new("Ablation: the grant carries its pages (Section 5.2)")
            .header(["configuration", "lock + read latency"]);
        t.row([
            "exclusive lock: bare grant, the read fetches".to_string(),
            format!("{}", self.bare_grant),
        ]);
        t.row([
            "shared lock: the grant carries the pages".to_string(),
            format!("{}", self.grant_with_pages),
        ]);
        t.render()
    }
}

/// Figure 4 demonstration: direct vs differencing record commit on one page.
pub struct Fig4Report {
    pub direct: Measured,
    pub differenced: Measured,
    pub direct_pages: u64,
    pub diffed_pages: u64,
}

pub fn fig4_record_commit(model: CostModel) -> Fig4Report {
    let c = Cluster::with_model(1, model);
    let mut a = c.account(0);
    let k = &c.site(0).kernel;
    let p = k.spawn();
    let ch = k.creat(p, "/page", &mut a).unwrap();
    k.write(p, ch, &vec![0u8; 1024], &mut a).unwrap();
    k.commit_file(p, ch, &mut a).unwrap();

    // Direct (Figure 4a): one writer on the page.
    let w1 = k.spawn();
    let c1 = k.open(w1, "/page", true, &mut a).unwrap();
    k.lock(
        w1,
        c1,
        100,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();
    k.write(w1, c1, &[1u8; 100], &mut a).unwrap();
    let before = a.clone();
    k.commit_file(w1, c1, &mut a).unwrap();
    let d_direct = a.delta_since(&before);
    let direct_pages = c.counters().pages_committed_direct;

    // Differenced (Figure 4b): two writers share the page; commit one.
    let w2 = k.spawn();
    let c2 = k.open(w2, "/page", true, &mut a).unwrap();
    k.lseek(w2, c2, 200, &mut a).unwrap();
    k.lock(
        w2,
        c2,
        100,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();
    k.write(w2, c2, &[2u8; 100], &mut a).unwrap();
    let w3 = k.spawn();
    let c3 = k.open(w3, "/page", true, &mut a).unwrap();
    k.lseek(w3, c3, 400, &mut a).unwrap();
    k.lock(
        w3,
        c3,
        100,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();
    k.write(w3, c3, &[3u8; 100], &mut a).unwrap();
    let before = a.clone();
    k.commit_file(w2, c2, &mut a).unwrap();
    let d_diff = a.delta_since(&before);
    let diffed_pages = c.counters().pages_committed_diff;

    Fig4Report {
        direct: Measured::from_delta("direct page commit (4a)", &d_direct, &c.model),
        differenced: Measured::from_delta("differencing merge (4b)", &d_diff, &c.model),
        direct_pages,
        diffed_pages,
    }
}

impl Fig4Report {
    pub fn render(&self) -> String {
        let mut t =
            Table::new("Figure 4: Record Commit Mechanism").header(["path", "service", "latency"]);
        for r in [&self.direct, &self.differenced] {
            t.row([
                r.label.clone(),
                format!("{} ({} inst)", r.service, r.instructions),
                format!("{}", r.latency),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "pages committed directly: {}, via differencing: {}\n",
            self.direct_pages, self.diffed_pages
        ));
        out
    }
}

/// Figure 3 demonstration: a live lock list, rendered like the paper's
/// structure diagram.
pub fn fig3_lock_list(model: CostModel) -> String {
    let c = Cluster::with_model(1, model);
    let k = &c.site(0).kernel;
    let mut a = c.account(0);
    let p1 = k.spawn();
    let ch = k.creat(p1, "/db", &mut a).unwrap();
    k.write(p1, ch, &vec![0u8; 2048], &mut a).unwrap();
    k.commit_file(p1, ch, &mut a).unwrap();
    c.site(0).txn.begin_trans(p1, &mut a).unwrap();
    k.lseek(p1, ch, 0, &mut a).unwrap();
    k.lock(
        p1,
        ch,
        512,
        LockRequestMode::Exclusive,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();
    let p2 = k.spawn();
    let ch2 = k.open(p2, "/db", true, &mut a).unwrap();
    k.lseek(p2, ch2, 1024, &mut a).unwrap();
    k.lock(
        p2,
        ch2,
        256,
        LockRequestMode::Shared,
        LockOpts::default(),
        &mut a,
    )
    .unwrap();

    let snap = k.locks.snapshot();
    let mut t = Table::new("Figure 3: Lock List Structure (live)").header([
        "file",
        "process",
        "transaction",
        "mode",
        "range",
        "retained",
    ]);
    for (fid, descs) in &snap.held {
        for d in descs {
            t.row([
                fid.to_string(),
                d.pid.to_string(),
                d.tid.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
                d.mode.to_string(),
                d.range.to_string(),
                d.retained.to_string(),
            ]);
        }
    }
    t.render()
}

/// End-to-end throughput measurement behind `locus-repro e2e_throughput`:
/// commits `n` simple transactions and reports modeled time per transaction.
pub fn txn_throughput(model: CostModel, n: usize, remote: bool) -> SimDuration {
    let c = Cluster::with_model(2, model);
    let storage = 0usize;
    let runner = if remote { 1 } else { 0 };
    let mut a = c.account(storage);
    let p = c.site(storage).kernel.spawn();
    let ch = c.site(storage).kernel.creat(p, "/t", &mut a).unwrap();
    c.site(storage)
        .kernel
        .write(p, ch, &vec![0u8; 1024], &mut a)
        .unwrap();
    c.site(storage).kernel.close(p, ch, &mut a).unwrap();

    let mut acct = c.account(runner);
    let pid = c.site(runner).kernel.spawn();
    let before = acct.clone();
    for i in 0..n {
        c.site(runner).txn.begin_trans(pid, &mut acct).unwrap();
        let ch = c
            .site(runner)
            .kernel
            .open(pid, "/t", true, &mut acct)
            .unwrap();
        c.site(runner)
            .kernel
            .lseek(pid, ch, (i as u64 % 16) * 64, &mut acct)
            .unwrap();
        c.site(runner)
            .kernel
            .write(pid, ch, &[5u8; 64], &mut acct)
            .unwrap();
        c.site(runner).txn.end_trans(pid, &mut acct).unwrap();
        c.drain_async();
    }
    acct.delta_since(&before).elapsed / n as u64
}

/// One measured phase of the [`service_breakdown`] workload.
pub struct ServicePhase {
    pub name: &'static str,
    /// Network messages (a batch envelope counts as one).
    pub messages: u64,
    /// Batch envelopes among those messages.
    pub batches: u64,
    /// Logical messages per service, in `Service::ALL` order.
    pub per_service: [u64; 6],
    /// Foreground latency of the phase's driving activity.
    pub latency: SimDuration,
}

/// Per-service RPC accounting over a mixed workload.
pub struct ServiceBreakdownReport {
    pub phases: Vec<ServicePhase>,
    /// (service, message kind, logical messages, of which batched).
    pub kinds: Vec<(Service, &'static str, u64, u64)>,
    /// Whole-run (network messages, batch envelopes).
    pub totals: (u64, u64),
}

/// Runs a mixed workload — remote file I/O, record locking, multi-site
/// transactions, process migration — and reports, per service and per
/// message kind, how many RPCs crossed the network and how many rode in
/// batches. This is the operational view of the typed service layer and the
/// batched 2PC fan-out.
pub fn service_breakdown(model: CostModel) -> ServiceBreakdownReport {
    let c = Cluster::with_model(4, model);
    let mut phases = Vec::new();
    let mut measure = |c: &Cluster, name: &'static str, f: &mut dyn FnMut(&Cluster) -> Account| {
        let before = c.counters();
        let acct = f(c);
        let after = c.counters();
        let per = std::array::from_fn(|i| after.service_msgs[i] - before.service_msgs[i]);
        phases.push(ServicePhase {
            name,
            messages: after.messages_sent - before.messages_sent,
            batches: after.batches_sent - before.batches_sent,
            per_service: per,
            latency: acct.elapsed,
        });
    };

    // Files live at site 0; remote clients work from site 3.
    measure(&c, "file I/O (remote)", &mut |c| {
        let mut a0 = c.account(0);
        let p0 = c.site(0).kernel.spawn();
        for name in ["/d0", "/d1", "/d2", "/d3"] {
            let ch = c.site(0).kernel.creat(p0, name, &mut a0).unwrap();
            c.site(0)
                .kernel
                .write(p0, ch, b"initial!", &mut a0)
                .unwrap();
            c.site(0).kernel.close(p0, ch, &mut a0).unwrap();
        }
        let mut a = c.account(3);
        let p = c.site(3).kernel.spawn();
        for name in ["/d0", "/d1", "/d2", "/d3"] {
            let ch = c.site(3).kernel.open(p, name, true, &mut a).unwrap();
            c.site(3).kernel.read(p, ch, 8, &mut a).unwrap();
            c.site(3).kernel.lseek(p, ch, 0, &mut a).unwrap();
            c.site(3).kernel.write(p, ch, b"rewrite!", &mut a).unwrap();
            c.site(3).kernel.close(p, ch, &mut a).unwrap();
        }
        a
    });

    measure(&c, "record locking", &mut |c| {
        let mut out = None;
        for client in [1usize, 2] {
            let mut a = c.account(client);
            let p = c.site(client).kernel.spawn();
            let ch = c.site(client).kernel.open(p, "/d0", true, &mut a).unwrap();
            for _ in 0..8 {
                c.site(client)
                    .kernel
                    .lock(
                        p,
                        ch,
                        4,
                        LockRequestMode::Exclusive,
                        LockOpts::default(),
                        &mut a,
                    )
                    .unwrap();
                c.site(client).kernel.unlock(p, ch, 4, &mut a).unwrap();
            }
            c.site(client).kernel.close(p, ch, &mut a).unwrap();
            out.get_or_insert(a);
        }
        out.unwrap()
    });

    // Multi-site transactions: requester at 3, storage at 1 and 2 — one
    // wave of delegations, whose durable yes votes decide, then the batched
    // phase-two fan-out.
    measure(&c, "2PC transactions", &mut |c| {
        for (site, name) in [(1usize, "/t-a"), (2usize, "/t-b")] {
            let mut a = c.account(site);
            let p = c.site(site).kernel.spawn();
            let ch = c.site(site).kernel.creat(p, name, &mut a).unwrap();
            c.site(site).kernel.close(p, ch, &mut a).unwrap();
        }
        let mut a = c.account(3);
        for round in 0..4u8 {
            let pid = c.site(3).kernel.spawn();
            c.site(3).txn.begin_trans(pid, &mut a).unwrap();
            for name in ["/t-a", "/t-b"] {
                let ch = c.site(3).kernel.open(pid, name, true, &mut a).unwrap();
                c.site(3)
                    .kernel
                    .write(pid, ch, &[round; 4], &mut a)
                    .unwrap();
            }
            c.site(3).txn.end_trans(pid, &mut a).unwrap();
            // Retained locks release in phase two; drain before the next
            // round re-locks the same records.
            c.drain_async();
        }
        a
    });

    measure(&c, "migration + commit", &mut |c| {
        let mut a = c.account(0);
        let pid = c.site(0).kernel.spawn();
        c.site(0).txn.begin_trans(pid, &mut a).unwrap();
        let ch = c.site(0).kernel.open(pid, "/t-a", true, &mut a).unwrap();
        c.site(0).kernel.write(pid, ch, b"mig!", &mut a).unwrap();
        c.site(0)
            .kernel
            .migrate(pid, locus_types::SiteId(2), &mut a)
            .unwrap();
        let mut a2 = c.account(2);
        c.site(2).txn.end_trans(pid, &mut a2).unwrap();
        c.drain_async();
        a
    });

    let mut kinds: std::collections::BTreeMap<(Service, &'static str), (u64, u64)> =
        std::collections::BTreeMap::new();
    for e in c.events.all() {
        if let locus_sim::Event::Rpc {
            service,
            kind,
            batched,
            ..
        } = e
        {
            let ent = kinds.entry((service, kind)).or_default();
            ent.0 += 1;
            ent.1 += u64::from(batched);
        }
    }
    let snap = c.counters();
    ServiceBreakdownReport {
        phases,
        kinds: kinds
            .into_iter()
            .map(|((s, k), (n, b))| (s, k, n, b))
            .collect(),
        totals: (snap.messages_sent, snap.batches_sent),
    }
}

/// Canonical workload behind the Figure-6-style latency-decomposition table:
/// a mix of local commits, remote (2PC fan-out) commits, and contended
/// locking on a two-site cluster, all through the deterministic driver so
/// the virtual-clock span banks fill reproducibly. Returns the cluster's
/// span-registry snapshot.
pub fn decomposition_workload(model: CostModel) -> locus_sim::SpanRegistrySnapshot {
    let c = Cluster::with_model(2, model);

    // Files: one local to site 0, one stored at site 1 (remote from the
    // runner's perspective).
    let mut a0 = c.account(0);
    let p0 = c.site(0).kernel.spawn();
    let ch = c.site(0).kernel.creat(p0, "/local", &mut a0).unwrap();
    c.site(0)
        .kernel
        .write(p0, ch, &vec![0u8; 1024], &mut a0)
        .unwrap();
    c.site(0).kernel.close(p0, ch, &mut a0).unwrap();
    let mut a1 = c.account(1);
    let p1 = c.site(1).kernel.spawn();
    let ch = c.site(1).kernel.creat(p1, "/remote", &mut a1).unwrap();
    c.site(1)
        .kernel
        .write(p1, ch, &vec![0u8; 1024], &mut a1)
        .unwrap();
    c.site(1).kernel.close(p1, ch, &mut a1).unwrap();

    let mut acct = c.account(0);
    let pid = c.site(0).kernel.spawn();
    for i in 0..8u64 {
        // Local one-file transaction.
        c.site(0).txn.begin_trans(pid, &mut acct).unwrap();
        let ch = c
            .site(0)
            .kernel
            .open(pid, "/local", true, &mut acct)
            .unwrap();
        c.site(0)
            .kernel
            .lseek(pid, ch, (i % 4) * 64, &mut acct)
            .unwrap();
        c.site(0)
            .kernel
            .write(pid, ch, &[1u8; 64], &mut acct)
            .unwrap();
        c.site(0).txn.end_trans(pid, &mut acct).unwrap();
        c.drain_async();

        // Distributed transaction touching both sites: remote lock, remote
        // prepare, network phase two.
        c.site(0).txn.begin_trans(pid, &mut acct).unwrap();
        for name in ["/local", "/remote"] {
            let ch = c.site(0).kernel.open(pid, name, true, &mut acct).unwrap();
            c.site(0)
                .kernel
                .lseek(pid, ch, (i % 4) * 32, &mut acct)
                .unwrap();
            c.site(0)
                .kernel
                .write(pid, ch, &[2u8; 32], &mut acct)
                .unwrap();
        }
        c.site(0).txn.end_trans(pid, &mut acct).unwrap();
        c.drain_async();
    }

    // Contended locking: a holder pins a range, a waiter queues, the
    // release transfers the lock (LockTransfer spans from the queue pump).
    let holder = c.site(0).kernel.spawn();
    let waiter = c.site(0).kernel.spawn();
    let hch = c
        .site(0)
        .kernel
        .open(holder, "/local", true, &mut acct)
        .unwrap();
    let wch = c
        .site(0)
        .kernel
        .open(waiter, "/local", true, &mut acct)
        .unwrap();
    c.site(0)
        .kernel
        .lock(
            holder,
            hch,
            64,
            LockRequestMode::Exclusive,
            LockOpts::default(),
            &mut acct,
        )
        .unwrap();
    let queued = c.site(0).kernel.lock(
        waiter,
        wch,
        64,
        LockRequestMode::Exclusive,
        LockOpts {
            wait: true,
            ..LockOpts::default()
        },
        &mut acct,
    );
    assert!(queued.is_err(), "waiter must queue behind the holder");
    c.site(0).kernel.unlock(holder, hch, 64, &mut acct).unwrap();

    c.spans()
}

impl ServiceBreakdownReport {
    pub fn render(&self) -> String {
        let mut t = Table::new("Per-service network messages, by workload phase").header([
            "phase", "net msgs", "batches", "file", "lock", "proc", "txn", "repl", "ctrl",
            "latency",
        ]);
        for p in &self.phases {
            t.row([
                p.name.to_string(),
                p.messages.to_string(),
                p.batches.to_string(),
                p.per_service[Service::File.index()].to_string(),
                p.per_service[Service::Lock.index()].to_string(),
                p.per_service[Service::Proc.index()].to_string(),
                p.per_service[Service::Txn.index()].to_string(),
                p.per_service[Service::Replica.index()].to_string(),
                p.per_service[Service::Control.index()].to_string(),
                format!("{}", p.latency),
            ]);
        }
        let mut k = Table::new("Per-kind RPC detail (whole run)")
            .header(["service", "kind", "msgs", "batched"]);
        for (svc, kind, n, b) in &self.kinds {
            k.row([
                svc.name().to_string(),
                kind.to_string(),
                n.to_string(),
                b.to_string(),
            ]);
        }
        format!(
            "{}\n{}\ntotals: {} network messages, {} batch envelopes",
            t.render(),
            k.render(),
            self.totals.0,
            self.totals.1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_latency_matches_paper_shape() {
        let r = lock_latency(CostModel::default());
        let local = &r.rows[0];
        let remote = &r.rows[1];
        // Paper: ~1.5 ms of lock processing (750 instructions), ~2 ms local
        // latency, ~18 ms remote.
        assert!((700..=1100).contains(&local.instructions), "{:?}", local);
        let lms = local.latency.as_millis_f64();
        assert!((1.5..3.0).contains(&lms), "local {lms} ms");
        let rms = remote.latency.as_millis_f64();
        assert!((16.0..20.0).contains(&rms), "remote {rms} ms");
    }

    #[test]
    fn fig6_shape_matches_paper() {
        let r = fig6_commit_performance(CostModel::default());
        let by_label = |l: &str| {
            r.rows
                .iter()
                .find(|m| m.label.starts_with(l))
                .unwrap_or_else(|| panic!("{l} missing"))
                .clone()
        };
        let local_plain = by_label("Local / Non-overlap");
        let local_ov = by_label("Local / Overlap");
        let remote_plain = by_label("Remote / Non-overlap");
        let remote_ov = by_label("Remote / Overlap");
        // Overlap costs moderately more locally (differencing CPU) …
        assert!(local_ov.service > local_plain.service);
        assert!(local_ov.latency > local_plain.latency);
        // … remote latency exceeds local latency …
        assert!(remote_plain.latency > local_plain.latency);
        // … and the requesting site's service time shrinks for remote
        // commits (work offloaded to the storage site).
        assert!(remote_plain.service < local_plain.service);
        // Remote overlap ≈ remote non-overlap at the requesting site.
        assert_eq!(remote_ov.service, remote_plain.service);
    }

    #[test]
    fn fig5_measured_equals_predicted() {
        for (files, pages) in [(1usize, 1u64), (1, 4), (2, 1), (3, 2)] {
            let r = fig5_txn_io(CostModel::default(), files, pages);
            let (sync, async_) = r.predicted();
            assert_eq!(r.sync_ios, sync, "{files} files {pages} pages (sync)");
            assert_eq!(r.async_ios, async_, "{files} files {pages} pages (async)");
        }
        // Footnote 9 variant: the one force costs double, so the simple
        // transaction pays 3 sync I/Os (was 6 with per-record writes).
        let r = fig5_txn_io(CostModel::paper_1985(), 1, 1);
        assert_eq!(r.sync_ios, 3);
    }

    #[test]
    fn fig5_steady_state_costs_what_the_first_transaction_costs() {
        // One journal force (the record born committed, carrying the
        // prepare record, and the install and purges of the transaction
        // before) and one
        // random write (the data page), every time: the journal gives back
        // the space of earlier transactions inside that same flush.
        let per_txn = fig5_steady_state(CostModel::default(), 100);
        assert_eq!(per_txn, vec![(1, 1); 100]);
        let first = fig5_txn_io(CostModel::default(), 1, 1);
        assert_eq!(first.sync_ios + first.async_ios, 1 + 1, "as the first");
    }

    #[test]
    fn grant_carried_pages_save_the_reads_round_trip() {
        let model = CostModel::default();
        let r = prefetch_ablation(model.clone());
        // Same disk reads, same page transfer: what goes is the `ReadReq`.
        let saved = r.bare_grant - r.grant_with_pages;
        assert!(
            saved >= model.net_rtt && saved < model.net_rtt + SimDuration::from_millis(2),
            "bare {} vs with pages {}",
            r.bare_grant,
            r.grant_with_pages
        );
    }

    #[test]
    fn fig4_differencing_costs_more_service() {
        let r = fig4_record_commit(CostModel::default());
        assert!(r.differenced.service > r.direct.service);
        assert!(r.diffed_pages >= 1);
        assert!(r.direct_pages >= 1);
        // The delta is ~1350 instructions (Figure 6's 10800 − 9450).
        let delta = r.differenced.instructions - r.direct.instructions;
        assert!((1000..1800).contains(&delta), "delta {delta}");
    }

    #[test]
    fn fig3_renders_live_lock_state() {
        let s = fig3_lock_list(CostModel::default());
        assert!(s.contains("exclusive"));
        assert!(s.contains("shared"));
        assert!(s.contains("txn0.1"));
    }

    #[test]
    fn throughput_remote_slower_than_local() {
        let local = txn_throughput(CostModel::default(), 4, false);
        let remote = txn_throughput(CostModel::default(), 4, true);
        assert!(remote > local);
    }

    #[test]
    fn service_breakdown_covers_all_exercised_services() {
        let r = service_breakdown(CostModel::default());
        assert_eq!(r.phases.len(), 4);
        // Each phase exercises its namesake service.
        let by_name: std::collections::HashMap<_, _> =
            r.phases.iter().map(|p| (p.name, p)).collect();
        assert!(by_name["file I/O (remote)"].per_service[Service::File.index()] > 0);
        assert!(by_name["record locking"].per_service[Service::Lock.index()] > 0);
        assert!(by_name["2PC transactions"].per_service[Service::Txn.index()] > 0);
        assert!(by_name["migration + commit"].per_service[Service::Proc.index()] > 0);
        // The batched close path and per-kind tagging are visible.
        assert!(r.totals.1 > 0, "no batches recorded");
        assert!(r
            .kinds
            .iter()
            .any(|(s, k, ..)| *s == Service::Txn && *k == "Delegate"));
        let rendered = r.render();
        assert!(rendered.contains("Per-service network messages"));
        assert!(rendered.contains("batch envelopes"));
    }

    /// The EXPERIMENTS.md group-commit table: 2N commit-path records (at
    /// each storage site a prepare record and the yes record behind it,
    /// born committed at the one site of a one-file commit) reach the
    /// platters in N sync forces, one per site — and phase two's records
    /// (an install and a truncation per file, a note of the commit per site
    /// among peers, the requester's purge of its own record) in N: N−1
    /// remote installs, each landed by the resend, and one step-boundary
    /// flush of the home journal.
    #[test]
    fn group_commit_coalesces_commit_path_barriers() {
        for files in [1usize, 2, 4] {
            let n = files as u64;
            let notes = if files > 1 { n } else { 0 };
            let r = group_commit_barriers(files);
            assert_eq!(r.sync_frames, 2 * n, "{files} files: sync frames");
            assert_eq!(r.sync_flushes, n, "{files} files: sync flushes");
            assert_eq!(
                r.async_frames,
                2 * n + notes + 1,
                "{files} files: async frames"
            );
            assert_eq!(r.async_flushes, n, "{files} files: async flushes");
        }
    }
}
