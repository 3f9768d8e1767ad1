//! Per-activity virtual-time and I/O accounting.
//!
//! An [`Account`] travels with one logical activity — a simulated process
//! executing a system call, a kernel dæmon doing phase-two commit work — and
//! accumulates the virtual time and operation counts the activity incurs,
//! including work executed *at remote sites* on its behalf (a remote lock
//! request is dispatched synchronously, so the same account flows through).
//!
//! CPU time is split between the activity's *home* site and remote sites so
//! that the Figure 6 "service time at the requesting site" column can be
//! reproduced for remote commits.

use locus_types::SiteId;

use crate::cost::CostModel;
use crate::time::SimDuration;

/// Virtual-time ledger for a single activity.
#[derive(Debug, Clone)]
pub struct Account {
    /// Site where the activity originates (the "requesting site").
    pub home: SiteId,
    /// Site currently executing on the activity's behalf.
    pub at: SiteId,
    /// Total elapsed virtual time (latency).
    pub elapsed: SimDuration,
    /// Time that passed on more than one branch at once: what
    /// [`Account::absorb_parallel`] left out of `elapsed` by charging only
    /// the slowest branch. `elapsed + overlapped` is the time all the work
    /// would have taken end to end.
    pub overlapped: SimDuration,
    /// CPU time consumed at the home site.
    pub cpu_home: SimDuration,
    /// CPU time consumed at other sites on this activity's behalf.
    pub cpu_remote: SimDuration,
    /// Random disk reads issued.
    pub disk_reads: u64,
    /// Random disk writes issued.
    pub disk_writes: u64,
    /// Sequential log I/Os issued (WAL baseline).
    pub seq_ios: u64,
    /// Network messages sent (a round trip counts as one exchange).
    pub messages: u64,
    /// Pages merged by the differencing commit path.
    pub pages_differenced: u64,
}

impl Account {
    /// A fresh account for an activity homed at `site`.
    pub fn new(site: SiteId) -> Self {
        Account {
            home: site,
            at: site,
            elapsed: SimDuration::ZERO,
            overlapped: SimDuration::ZERO,
            cpu_home: SimDuration::ZERO,
            cpu_remote: SimDuration::ZERO,
            disk_reads: 0,
            disk_writes: 0,
            seq_ios: 0,
            messages: 0,
            pages_differenced: 0,
        }
    }

    /// Charges `n` instructions of CPU at the currently-executing site.
    pub fn cpu_instrs(&mut self, model: &CostModel, n: u64) {
        let d = model.instrs(n);
        self.elapsed += d;
        if self.at == self.home {
            self.cpu_home += d;
        } else {
            self.cpu_remote += d;
        }
    }

    /// Charges pure wait time (disk rotation, network flight) that consumes
    /// no CPU.
    pub fn wait(&mut self, d: SimDuration) {
        self.elapsed += d;
    }

    /// Total disk I/Os of any kind.
    pub fn total_ios(&self) -> u64 {
        self.disk_reads + self.disk_writes + self.seq_ios
    }

    /// Total CPU (service) time across sites.
    pub fn cpu_total(&self) -> SimDuration {
        self.cpu_home + self.cpu_remote
    }

    /// Runs `f` with the execution site temporarily switched to `site`,
    /// restoring the previous site afterwards. Used by the transport when it
    /// dispatches a request handler at a remote site.
    pub fn at_site<T>(&mut self, site: SiteId, f: impl FnOnce(&mut Account) -> T) -> T {
        let prev = self.at;
        self.at = site;
        let out = f(self);
        self.at = prev;
        out
    }

    /// Folds the costs of activities that ran *in parallel* on this
    /// activity's behalf (e.g. a 2PC fan-out where every participant site
    /// works at once). Latency is the slowest branch; CPU, I/O, and message
    /// counts are the sum of all branches — the work happened, it just
    /// overlapped in time, and `overlapped` keeps how much. Each branch
    /// account should start from `Account::new` so its totals are pure
    /// deltas.
    pub fn absorb_parallel<'a>(&mut self, branches: impl IntoIterator<Item = &'a Account>) {
        let mut max_elapsed = SimDuration::ZERO;
        let mut sum_elapsed = SimDuration::ZERO;
        for b in branches {
            max_elapsed = max_elapsed.max(b.elapsed);
            sum_elapsed += b.elapsed;
            self.overlapped += b.overlapped;
            self.cpu_home += b.cpu_home;
            self.cpu_remote += b.cpu_remote;
            self.disk_reads += b.disk_reads;
            self.disk_writes += b.disk_writes;
            self.seq_ios += b.seq_ios;
            self.messages += b.messages;
            self.pages_differenced += b.pages_differenced;
        }
        self.elapsed += max_elapsed;
        self.overlapped += sum_elapsed - max_elapsed;
    }

    /// Difference `self − earlier`, for measuring a span of activity.
    pub fn delta_since(&self, earlier: &Account) -> Account {
        Account {
            home: self.home,
            at: self.at,
            elapsed: self.elapsed.saturating_sub(earlier.elapsed),
            overlapped: self.overlapped.saturating_sub(earlier.overlapped),
            cpu_home: self.cpu_home.saturating_sub(earlier.cpu_home),
            cpu_remote: self.cpu_remote.saturating_sub(earlier.cpu_remote),
            disk_reads: self.disk_reads - earlier.disk_reads,
            disk_writes: self.disk_writes - earlier.disk_writes,
            seq_ios: self.seq_ios - earlier.seq_ios,
            messages: self.messages - earlier.messages,
            pages_differenced: self.pages_differenced - earlier.pages_differenced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_attribution_follows_execution_site() {
        let model = CostModel::default();
        let mut a = Account::new(SiteId(1));
        a.cpu_instrs(&model, 1000);
        a.at_site(SiteId(2), |a| a.cpu_instrs(&model, 500));
        assert_eq!(a.cpu_home, model.instrs(1000));
        assert_eq!(a.cpu_remote, model.instrs(500));
        assert_eq!(a.elapsed, model.instrs(1500));
        // Execution site restored after the remote span.
        assert_eq!(a.at, SiteId(1));
    }

    #[test]
    fn nested_at_site_restores_properly() {
        let model = CostModel::default();
        let mut a = Account::new(SiteId(1));
        a.at_site(SiteId(2), |a| {
            a.at_site(SiteId(3), |a| a.cpu_instrs(&model, 100));
            assert_eq!(a.at, SiteId(2));
            a.cpu_instrs(&model, 100);
        });
        assert_eq!(a.cpu_remote, model.instrs(200));
    }

    #[test]
    fn wait_adds_latency_but_no_cpu() {
        let mut a = Account::new(SiteId(1));
        a.wait(SimDuration::from_millis(26));
        assert_eq!(a.elapsed, SimDuration::from_millis(26));
        assert_eq!(a.cpu_total(), SimDuration::ZERO);
    }

    #[test]
    fn absorb_parallel_takes_max_latency_and_sums_counts() {
        let model = CostModel::default();
        let mut main = Account::new(SiteId(1));
        main.cpu_instrs(&model, 100);
        let base = main.elapsed;

        let mut b1 = Account::new(SiteId(1));
        b1.wait(SimDuration::from_millis(30));
        b1.messages += 2;
        let mut b2 = Account::new(SiteId(1));
        b2.wait(SimDuration::from_millis(50));
        b2.messages += 3;
        b2.disk_writes += 1;

        main.absorb_parallel([&b1, &b2]);
        assert_eq!(main.elapsed, base + SimDuration::from_millis(50));
        assert_eq!(main.overlapped, SimDuration::from_millis(30));
        assert_eq!(main.messages, 5);
        assert_eq!(main.disk_writes, 1);
    }

    #[test]
    fn delta_since_isolates_a_span() {
        let model = CostModel::default();
        let mut a = Account::new(SiteId(1));
        a.cpu_instrs(&model, 100);
        a.disk_writes += 1;
        let mark = a.clone();
        a.cpu_instrs(&model, 50);
        a.disk_writes += 2;
        let d = a.delta_since(&mark);
        assert_eq!(d.cpu_home, model.instrs(50));
        assert_eq!(d.disk_writes, 2);
        assert_eq!(d.total_ios(), 2);
    }
}
