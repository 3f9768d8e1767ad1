//! Real-thread process driver.
//!
//! Each simulated process runs on an OS thread and issues *blocking* system
//! calls: a queued lock request parks the thread on the kernel's wakeup
//! condition variable and retries when granted; `EndTrans` likewise waits for
//! member completion. This exercises the same kernels as the deterministic
//! driver under genuine concurrency.
//!
//! The only threads are the processes': a commit runs on the thread that
//! called `EndTrans`, its prepares and phase-two messages as waves on that
//! thread (`TxnManager::wave`) exactly as under the deterministic driver. The
//! two drivers differ in who interleaves system calls, not in what one does.

use std::sync::Arc;
use std::time::{Duration, Instant};

use locus_core::manager::EndOutcome;
use locus_core::Site;
use locus_kernel::LockOpts;
use locus_sim::{Account, SpanPhase, SpanRegistry};
use locus_types::{ByteRange, Channel, Error, LockRequestMode, Pid, Result, TransId};

/// How long a blocking call waits for a wakeup before rechecking. Wakeups
/// are delivered to a per-pid slot (set-then-notify under the slot's own
/// mutex), so this is only a safety net against shutdown races — a grant
/// never has to wait it out.
const WAKEUP_RECHECK: Duration = Duration::from_secs(1);

/// Per-thread handle to a process on a site.
#[derive(Clone)]
pub struct ThreadCtx {
    pub site: Arc<Site>,
    pub pid: Pid,
}

impl ThreadCtx {
    /// Spawns a fresh process at `site`.
    pub fn new(site: Arc<Site>) -> Self {
        // With real concurrency, hold each journal flush open briefly so
        // commits racing on the same volume coalesce into one barrier
        // (group commit); the deterministic driver keeps a zero window.
        if let Ok(home) = site.kernel.home() {
            home.journal()
                .set_group_window(Some(Duration::from_micros(50)));
        }
        let pid = site.kernel.spawn();
        ThreadCtx { site, pid }
    }

    fn acct(&self) -> Account {
        Account::new(self.site.id())
    }

    /// The site's span registry (wall-clock bank for this driver).
    fn spans(&self) -> &SpanRegistry {
        &self.site.kernel.counters.spans
    }

    pub fn creat(&self, name: &str) -> Result<Channel> {
        self.site.kernel.creat(self.pid, name, &mut self.acct())
    }

    pub fn open(&self, name: &str, write: bool) -> Result<Channel> {
        self.site
            .kernel
            .open(self.pid, name, write, &mut self.acct())
    }

    pub fn close(&self, ch: Channel) -> Result<()> {
        self.site.kernel.close(self.pid, ch, &mut self.acct())
    }

    pub fn seek(&self, ch: Channel, pos: u64) -> Result<()> {
        self.site.kernel.lseek(self.pid, ch, pos, &mut self.acct())
    }

    pub fn write(&self, ch: Channel, data: &[u8]) -> Result<()> {
        self.retry_blocking(|| self.site.kernel.write(self.pid, ch, data, &mut self.acct()))
    }

    pub fn read(&self, ch: Channel, len: u64) -> Result<Vec<u8>> {
        self.retry_blocking(|| self.site.kernel.read(self.pid, ch, len, &mut self.acct()))
    }

    /// Blocking lock: queues behind conflicts and waits for the grant.
    pub fn lock_wait(&self, ch: Channel, len: u64, mode: LockRequestMode) -> Result<ByteRange> {
        let (res, total, parked) = self.retry_blocking_timed(|| {
            self.site.kernel.lock(
                self.pid,
                ch,
                len,
                mode,
                LockOpts {
                    wait: true,
                    ..LockOpts::default()
                },
                &mut self.acct(),
            )
        });
        if res.is_ok() {
            self.spans().record_wall(
                SpanPhase::LockAcquire,
                total.as_nanos() as u64,
                parked.as_nanos() as u64,
            );
        }
        res
    }

    pub fn unlock(&self, ch: Channel, len: u64) -> Result<ByteRange> {
        self.site.kernel.unlock(self.pid, ch, len, &mut self.acct())
    }

    pub fn begin_trans(&self) -> Result<TransId> {
        let start = Instant::now();
        let res = self.site.txn.begin_trans(self.pid, &mut self.acct());
        if res.is_ok() {
            self.spans()
                .record_wall(SpanPhase::Begin, start.elapsed().as_nanos() as u64, 0);
        }
        res
    }

    /// Whether this process is (still) inside a transaction. A deadlock
    /// victim's transaction can be aborted while the process is blocked; the
    /// process then continues as a non-transaction process, and callers that
    /// care (e.g. a transfer that must be atomic) should check before
    /// writing.
    pub fn in_transaction(&self) -> bool {
        self.site
            .kernel
            .procs
            .get(self.pid)
            .map(|r| r.tid.is_some())
            .unwrap_or(false)
    }

    /// Blocking `EndTrans`: waits for member processes to complete, then
    /// runs this site's asynchronous phase-two dæmon so retained locks are
    /// released promptly (in the deterministic driver the test harness pumps
    /// the queue; with real threads, waiters would otherwise stall until an
    /// explicit `drain_async`).
    pub fn end_trans(&self) -> Result<EndOutcome> {
        let (out, total, parked) =
            self.retry_blocking_timed(|| self.site.txn.end_trans(self.pid, &mut self.acct()));
        if matches!(out, Ok(EndOutcome::Committed(_))) {
            self.spans().record_wall(
                SpanPhase::Commit,
                total.as_nanos() as u64,
                parked.as_nanos() as u64,
            );
            let p2 = Instant::now();
            let mut bg = self.acct();
            if self.site.txn.run_async_work(&mut bg) > 0 {
                self.spans()
                    .record_wall(SpanPhase::PhaseTwo, p2.elapsed().as_nanos() as u64, 0);
            }
        }
        out
    }

    pub fn abort_trans(&self) -> Result<()> {
        self.site.txn.abort_trans(self.pid, &mut self.acct())
    }

    pub fn exit(self) -> Result<()> {
        self.site.kernel.exit(self.pid, &mut self.acct())
    }

    /// Retries a call that may report `WouldBlock`/`ChildrenActive`, parking
    /// on the kernel's wakeup condition variable between attempts.
    fn retry_blocking<T>(&self, f: impl FnMut() -> Result<T>) -> Result<T> {
        self.retry_blocking_timed(f).0
    }

    /// [`ThreadCtx::retry_blocking`], also reporting the call's total wall
    /// time and how much of it was spent parked waiting for a wakeup — the
    /// wall-clock span's `lock_wait` axis.
    fn retry_blocking_timed<T>(
        &self,
        mut f: impl FnMut() -> Result<T>,
    ) -> (Result<T>, Duration, Duration) {
        let start = Instant::now();
        let mut parked = Duration::ZERO;
        loop {
            match f() {
                Err(Error::WouldBlock { .. }) | Err(Error::ChildrenActive { .. }) => {
                    let park = Instant::now();
                    self.site.kernel.wait_wakeup(self.pid, WAKEUP_RECHECK);
                    parked += park.elapsed();
                }
                Err(Error::InTransit(_)) => {
                    std::thread::yield_now();
                }
                other => return (other, start.elapsed(), parked),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    #[test]
    fn threads_contend_on_one_lock_without_loss() {
        let c = Cluster::new(1);
        let site = c.site(0).clone();
        let setup = ThreadCtx::new(site.clone());
        let ch = setup.creat("/counter").unwrap();
        setup.write(ch, &[0u8; 8]).unwrap();
        setup.close(ch).unwrap();

        let mut handles = Vec::new();
        for _ in 0..4 {
            let site = site.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = ThreadCtx::new(site);
                let ch = ctx.open("/counter", true).unwrap();
                for _ in 0..25 {
                    ctx.seek(ch, 0).unwrap();
                    ctx.lock_wait(ch, 8, LockRequestMode::Exclusive).unwrap();
                    let v = ctx.read(ch, 8).unwrap();
                    let n = u64::from_le_bytes(v.try_into().unwrap());
                    ctx.seek(ch, 0).unwrap();
                    ctx.write(ch, &(n + 1).to_le_bytes()).unwrap();
                    ctx.seek(ch, 0).unwrap();
                    ctx.unlock(ch, 8).unwrap();
                }
                ctx.exit().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let reader = ThreadCtx::new(site);
        let ch = reader.open("/counter", false).unwrap();
        let v = reader.read(ch, 8).unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 100);
    }

    #[test]
    fn prepare_wave_commits_multi_site_transaction() {
        let c = Cluster::new(3);
        for (i, name) in [(1usize, "/p1"), (2usize, "/p2")] {
            let setup = ThreadCtx::new(c.site(i).clone());
            let ch = setup.creat(name).unwrap();
            setup.write(ch, b"old!").unwrap();
            setup.close(ch).unwrap();
        }
        let ctx = ThreadCtx::new(c.site(0).clone());
        ctx.begin_trans().unwrap();
        for name in ["/p1", "/p2"] {
            let ch = ctx.open(name, true).unwrap();
            ctx.write(ch, b"new!").unwrap();
        }
        assert!(matches!(ctx.end_trans(), Ok(EndOutcome::Committed(_))));
        c.drain_async();
        for (i, name) in [(1usize, "/p1"), (2usize, "/p2")] {
            let reader = ThreadCtx::new(c.site(i).clone());
            let ch = reader.open(name, false).unwrap();
            assert_eq!(reader.read(ch, 4).unwrap(), b"new!", "{name}");
        }
    }

    #[test]
    fn concurrent_transactions_serialize() {
        let c = Cluster::new(2);
        let s0 = c.site(0).clone();
        let setup = ThreadCtx::new(s0.clone());
        let ch = setup.creat("/acct").unwrap();
        setup.write(ch, &[0u8; 8]).unwrap();
        setup.close(ch).unwrap();

        let mut handles = Vec::new();
        for i in 0..2 {
            let site = c.site(i).clone();
            handles.push(std::thread::spawn(move || {
                let ctx = ThreadCtx::new(site);
                for _ in 0..10 {
                    ctx.begin_trans().unwrap();
                    let ch = ctx.open("/acct", true).unwrap();
                    // Lock exclusively up front: read-then-upgrade by two
                    // transactions would deadlock (by design — that is what
                    // the deadlock detector is for; this test avoids it).
                    ctx.lock_wait(ch, 8, LockRequestMode::Exclusive).unwrap();
                    let v = ctx.read(ch, 8).unwrap();
                    let n = u64::from_le_bytes(v.try_into().unwrap());
                    ctx.seek(ch, 0).unwrap();
                    ctx.write(ch, &(n + 1).to_le_bytes()).unwrap();
                    ctx.end_trans().unwrap();
                }
                ctx.exit().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        c.drain_async();
        let reader = ThreadCtx::new(s0);
        let ch = reader.open("/acct", false).unwrap();
        let v = reader.read(ch, 8).unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 20);
    }
}
