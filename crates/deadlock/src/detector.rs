//! The deadlock-detector system process: snapshot, detect, resolve.

use std::sync::Arc;

use locus_core::Site;
use locus_sim::Account;
use locus_types::{Owner, Pid, TransId};

use crate::graph::WaitForGraph;

/// One resolved deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedDeadlock {
    pub cycle: Vec<Owner>,
    pub victim: Owner,
}

/// A user-level deadlock detector over a set of sites.
pub struct DeadlockDetector {
    sites: Vec<Arc<Site>>,
}

impl DeadlockDetector {
    pub fn new(sites: Vec<Arc<Site>>) -> Self {
        DeadlockDetector { sites }
    }

    /// Builds the current global wait-for graph from every reachable site's
    /// exported lock tables, once every site has sent its queued lock
    /// releases (`Kernel::flush_releases`): no edge may run
    /// through a lock its holder already released.
    pub fn build_graph(&self) -> WaitForGraph {
        for site in &self.sites {
            if !site.kernel.is_crashed() {
                site.kernel.flush_releases(&mut Account::new(site.id()));
            }
        }
        let mut g = WaitForGraph::new();
        for site in &self.sites {
            if site.kernel.is_crashed() {
                continue;
            }
            for e in site.kernel.locks.snapshot().edges {
                g.add(e.waiter, e.holder);
            }
        }
        g
    }

    /// One detection pass: finds cycles, picks a victim per cycle, aborts
    /// it, and repeats until the graph is acyclic. Returns the resolutions.
    pub fn run_once(&self, acct: &mut Account) -> Vec<ResolvedDeadlock> {
        let mut resolved = Vec::new();
        let mut graph = self.build_graph();
        loop {
            let cycles = graph.cycles();
            let Some(cycle) = cycles.first() else {
                break;
            };
            let victim = Self::pick_victim(cycle);
            self.abort_owner(victim, acct);
            graph.remove(victim);
            resolved.push(ResolvedDeadlock {
                cycle: cycle.clone(),
                victim,
            });
        }
        resolved
    }

    /// The youngest transaction on the cycle (highest id): restarts are
    /// cheap and the oldest work survives. A cycle of plain processes loses
    /// its youngest process.
    fn pick_victim(cycle: &[Owner]) -> Owner {
        *cycle
            .iter()
            .max_by_key(|o| (o.is_transaction(), victim_key(o)))
            .expect("cycle is nonempty")
    }

    /// Aborts a deadlock victim: a transaction via `AbortTrans` from one of
    /// its member processes, a plain process by releasing its locks and
    /// rolling back its uncommitted changes.
    fn abort_owner(&self, victim: Owner, acct: &mut Account) {
        match victim {
            Owner::Trans(tid) => self.abort_transaction(tid, acct),
            Owner::Proc(pid) => self.abort_process(pid, acct),
        }
    }

    fn abort_transaction(&self, tid: TransId, acct: &mut Account) {
        // Find a site hosting a member process of the victim and issue the
        // abort there (any member may call AbortTrans, Section 4.3).
        for site in &self.sites {
            if site.kernel.is_crashed() {
                continue;
            }
            if let Some(pid) = site.kernel.procs.members_of(tid).first().copied() {
                let _ = site.txn.abort_trans(pid, acct);
                return;
            }
        }
        // No member process found (already gone): release the lock state
        // directly so the system can make progress.
        for site in &self.sites {
            if !site.kernel.is_crashed() {
                let granted = site.kernel.locks.release_owner(Owner::Trans(tid), acct);
                site.kernel.push_grants(granted, acct);
            }
        }
    }

    fn abort_process(&self, pid: Pid, acct: &mut Account) {
        // A non-transaction process is "aborted" by releasing its locks and
        // rolling back its uncommitted file changes at every site.
        for site in &self.sites {
            if site.kernel.is_crashed() {
                continue;
            }
            if site.kernel.procs.is_running(pid) {
                let _ = site.kernel.exit(pid, acct);
            }
            let granted = site.kernel.locks.release_owner(Owner::Proc(pid), acct);
            site.kernel.push_grants(granted, acct);
        }
    }
}

fn victim_key(o: &Owner) -> (u64, u64) {
    match o {
        Owner::Trans(t) => (t.seq, u64::from(t.site.0)),
        Owner::Proc(p) => (u64::from(p.seq()), p.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{SiteId, TransId};

    fn t(n: u64) -> Owner {
        Owner::Trans(TransId::new(SiteId(0), n))
    }

    #[test]
    fn victim_policies_pick_as_documented() {
        let cycle = vec![t(3), t(1), t(2)];
        assert_eq!(DeadlockDetector::pick_victim(&cycle), t(3));
    }

    #[test]
    fn transactions_preferred_over_processes_as_victims() {
        let p = Owner::Proc(locus_types::Pid::new(SiteId(0), 999));
        let cycle = vec![p, t(1)];
        assert_eq!(DeadlockDetector::pick_victim(&cycle), t(1));
    }
}
