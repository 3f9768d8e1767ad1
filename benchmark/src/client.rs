//! A benchmark client: one process at one site, issuing blocking system
//! calls the way `locus_harness::ThreadCtx` does — the same public `Kernel`
//! and `TxnManager` functions, the same park-and-retry on a queued lock —
//! but keeping what `ThreadCtx` throws away, the modeled-cost [`Account`] of
//! each request, and able to record a span around every call.
//!
//! Unlike `ThreadCtx::new`, making a client changes no site-wide policy:
//! each pass states its own (see `passes::set_threaded_driver_policy`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use locus_core::manager::EndOutcome;
use locus_core::Site;
use locus_kernel::LockOpts;
use locus_sim::Account;
use locus_types::{Channel, Error, LockRequestMode, Pid, Result};

use crate::trace::{Span, SpanId, SpanKind, Tracer};

/// How long a parked call waits before rechecking; a grant never waits this
/// out (wakeups are delivered per process), it only bounds a shutdown race.
const WAKEUP_RECHECK: Duration = Duration::from_secs(1);

/// The benchmark's own generator (SplitMix64): inputs depend on `--seed`
/// and on nothing in the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`: distinct streams of one seed are
    /// unrelated, the same pair always gives the same stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        Rng(r.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` far below 2^64, so the modulo bias is nil).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub struct Client {
    site: Arc<Site>,
    pid: Pid,
    /// Modeled cost of the request in progress.
    acct: Account,
    /// Modeled elapsed time summed over finished requests, in nanoseconds.
    pub virt_ns: u64,
    /// Wall time spent parked waiting for a wakeup, in nanoseconds.
    pub parked_ns: u64,
    tracer: Option<Tracer>,
    op_span: Option<SpanId>,
}

impl Client {
    pub fn new(site: Arc<Site>) -> Self {
        Client {
            acct: Account::new(site.id()),
            pid: site.kernel.spawn(),
            site,
            virt_ns: 0,
            parked_ns: 0,
            tracer: None,
            op_span: None,
        }
    }

    /// Turns span recording on, with room for `capacity` spans.
    pub fn start_tracing(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::with_capacity(capacity));
    }

    /// Turns span recording off and hands back what was recorded.
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.tracer
            .take()
            .map(Tracer::into_spans)
            .unwrap_or_default()
    }

    /// Starts request number `op`: a fresh cost account and, when tracing,
    /// the request's span.
    pub fn op_begin(&mut self, op: u32) {
        self.acct = Account::new(self.site.id());
        self.op_span = self.tracer.as_mut().map(|t| t.begin_op(op));
    }

    pub fn op_end(&mut self) {
        self.virt_ns += self.acct.elapsed.as_nanos();
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), self.op_span.take()) {
            t.end(id);
        }
    }

    fn span<T>(&mut self, kind: SpanKind, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.tracer.as_mut().map(|t| t.begin(kind));
        let out = f(self);
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.end(id);
        }
        out
    }

    /// Retries a call that reports `WouldBlock` / `ChildrenActive`, parking
    /// on the kernel's per-process wakeup slot between attempts.
    fn blocking<T>(
        &mut self,
        mut f: impl FnMut(&Site, Pid, &mut Account) -> Result<T>,
    ) -> Result<T> {
        loop {
            match f(&self.site, self.pid, &mut self.acct) {
                Err(Error::WouldBlock { .. }) | Err(Error::ChildrenActive { .. }) => {
                    let t0 = Instant::now();
                    self.span(SpanKind::Park, |c| {
                        c.site.kernel.wait_wakeup(c.pid, WAKEUP_RECHECK)
                    });
                    self.parked_ns += t0.elapsed().as_nanos() as u64;
                }
                Err(Error::InTransit(_)) => std::thread::yield_now(),
                other => return other,
            }
        }
    }

    pub fn creat(&mut self, name: &str) -> Result<Channel> {
        self.site.kernel.creat(self.pid, name, &mut self.acct)
    }

    pub fn open(&mut self, name: &str, write: bool) -> Result<Channel> {
        self.site.kernel.open(self.pid, name, write, &mut self.acct)
    }

    pub fn close(&mut self, ch: Channel) -> Result<()> {
        self.site.kernel.close(self.pid, ch, &mut self.acct)
    }

    pub fn seek(&mut self, ch: Channel, pos: u64) -> Result<()> {
        self.span(SpanKind::Seek, |c| {
            c.site.kernel.lseek(c.pid, ch, pos, &mut c.acct)
        })
    }

    pub fn write(&mut self, ch: Channel, data: &[u8]) -> Result<()> {
        self.span(SpanKind::Write, |c| {
            c.blocking(|s, pid, a| s.kernel.write(pid, ch, data, a))
        })
    }

    pub fn read(&mut self, ch: Channel, len: u64) -> Result<Vec<u8>> {
        self.span(SpanKind::Read, |c| {
            c.blocking(|s, pid, a| s.kernel.read(pid, ch, len, a))
        })
    }

    /// Blocking lock at the channel's file pointer: queues behind conflicts
    /// and waits for the grant.
    pub fn lock(&mut self, ch: Channel, len: u64, mode: LockRequestMode) -> Result<()> {
        let opts = LockOpts {
            wait: true,
            ..LockOpts::default()
        };
        self.span(SpanKind::Lock, |c| {
            c.blocking(|s, pid, a| s.kernel.lock(pid, ch, len, mode, opts, a))
        })
        .map(|_| ())
    }

    pub fn unlock(&mut self, ch: Channel, len: u64) -> Result<()> {
        self.span(SpanKind::Unlock, |c| {
            c.site.kernel.unlock(c.pid, ch, len, &mut c.acct)
        })
        .map(|_| ())
    }

    pub fn begin_trans(&mut self) -> Result<()> {
        self.span(SpanKind::BeginTrans, |c| {
            c.site.txn.begin_trans(c.pid, &mut c.acct)
        })
        .map(|_| ())
    }

    /// `EndTrans` through the commit point. `Ok` means the commit is
    /// acknowledged; phase two is still queued.
    pub fn end_trans(&mut self) -> Result<()> {
        let out = self.span(SpanKind::EndTrans, |c| {
            c.blocking(|s, pid, a| s.txn.end_trans(pid, a))
        })?;
        match out {
            EndOutcome::Committed(_) => Ok(()),
            EndOutcome::Nested => Err(Error::ProtocolViolation(
                "benchmark transactions are not nested".into(),
            )),
        }
    }

    /// Runs this site's asynchronous phase-two dæmon once, as the threaded
    /// driver does after every commit so retained locks are released
    /// promptly. Charged to the request: the client's thread does the work.
    pub fn run_async_work(&mut self) {
        self.span(SpanKind::RunAsyncWork, |c| {
            c.site.txn.run_async_work(&mut c.acct)
        });
    }

    /// Leaves a transaction a failed request left open, so the next request
    /// starts clean. Errors are ignored: the request already counts as failed.
    pub fn abandon_trans(&mut self) {
        let in_transaction = self
            .site
            .kernel
            .procs
            .get(self.pid)
            .is_some_and(|rec| rec.tid.is_some());
        if in_transaction {
            let _ = self.site.txn.abort_trans(self.pid, &mut self.acct);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_repeat_and_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let again: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let other_stream: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let other_seed: Vec<u64> = {
            let mut r = Rng::new(8, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, again);
        assert_ne!(a, other_stream);
        assert_ne!(a, other_seed);
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }
}
