//! Protocol event trace.
//!
//! Every significant protocol step — log writes, prepare/commit messages,
//! lock grants, migrations — is appended to a shared [`EventLog`]. Tests use
//! it to assert protocol *ordering* invariants (e.g. the commit mark is only
//! written after every participant logged its prepare record), and the
//! experiment binaries use it to narrate Figure 5's I/O sequence.

use std::fmt;

use parking_lot::Mutex;

use locus_types::{Fid, PageNo, Pid, Service, SiteId, TransId, TxnStatus};

/// One traced protocol event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A kernel-to-kernel RPC crossed the network, tagged with its service
    /// and message kind. Batch members are logged individually with
    /// `batched: true` (the batch envelope itself is not logged), so the
    /// count of `Rpc` events is the count of logical messages while
    /// `Counters::messages_sent` counts network messages.
    Rpc {
        from: SiteId,
        to: SiteId,
        service: Service,
        kind: &'static str,
        batched: bool,
    },
    /// Coordinator log record written/updated with the given status.
    CoordLog {
        site: SiteId,
        tid: TransId,
        status: TxnStatus,
    },
    /// Prepare message sent from coordinator to a participant.
    PrepareSent { tid: TransId, to: SiteId },
    /// The requester handed the decision to `to`, the one storage site of
    /// every file of the transaction: the commit mark, if any, is `to`'s.
    DelegateSent { tid: TransId, to: SiteId },
    /// Participant flushed a dirty data page during prepare.
    DataFlush {
        tid: TransId,
        fid: Fid,
        page: PageNo,
    },
    /// Participant wrote its prepare log for one file.
    PrepareLog {
        site: SiteId,
        tid: TransId,
        fid: Fid,
    },
    /// Participant acknowledged prepare.
    PrepareAck {
        tid: TransId,
        from: SiteId,
        ok: bool,
    },
    /// Commit mark written to the coordinator log — *the commit point*.
    CommitMark { tid: TransId },
    /// Phase-two commit message sent to a participant.
    CommitSent { tid: TransId, to: SiteId },
    /// Single-file commit (inode install) performed for a file.
    FileCommit { fid: Fid, tid: Option<TransId> },
    /// File rolled back.
    FileAbort { fid: Fid },
    /// A page was committed by writing it directly (Figure 4a).
    PageDirect { fid: Fid, page: PageNo },
    /// A page was committed via the differencing merge (Figure 4b).
    PageDiffed { fid: Fid, page: PageNo },
    /// Abort message sent to a site (cascading abort, Section 4.3).
    AbortSent { tid: TransId, to: SiteId },
    /// Transaction fully aborted.
    Aborted { tid: TransId },
    /// Transaction fully committed (phase two finished everywhere).
    Committed { tid: TransId },
    /// Record lock granted.
    LockGranted { fid: Fid, pid: Pid },
    /// Record lock request queued behind a conflict.
    LockQueued { fid: Fid, pid: Pid },
    /// Retained locks of a transaction released.
    RetainedReleased { tid: TransId, fid: Fid },
    /// Process began migrating (marked in-transit).
    MigrateStart { pid: Pid, from: SiteId, to: SiteId },
    /// Process finished migrating.
    MigrateEnd { pid: Pid, at: SiteId },
    /// A child's file-list merged into the top-level process.
    FileListMerged { tid: TransId, from: Pid },
    /// A file-list merge bounced off an in-transit top-level process and must
    /// be retried (the Section 4.1 race).
    FileListRetry { tid: TransId, from: Pid },
    /// Chaos injection: a wire message (request) was dropped — the handler
    /// never ran and the sender saw a transport failure.
    ChaosDrop {
        from: SiteId,
        to: SiteId,
        service: Service,
        kind: &'static str,
    },
    /// Chaos injection: the request was delivered and processed, but the
    /// reply was lost — the sender saw a transport failure anyway.
    ChaosDropReply {
        from: SiteId,
        to: SiteId,
        service: Service,
        kind: &'static str,
    },
    /// Chaos injection: a wire message was delivered twice (tests handler
    /// idempotency — Section 4.4 argues duplicates are harmless).
    ChaosDup {
        from: SiteId,
        to: SiteId,
        service: Service,
        kind: &'static str,
    },
    /// Chaos injection: a wire message was delayed by extra flight time.
    ChaosDelay {
        from: SiteId,
        to: SiteId,
        millis: u64,
    },
    /// Site crashed (volatile state lost).
    SiteCrash { site: SiteId },
    /// Site rebooted and recovery began.
    RecoveryStart { site: SiteId },
    /// Recovery re-drove phase two for a committed transaction.
    RecoveryRedo { tid: TransId },
    /// Recovery aborted an unfinished transaction.
    RecoveryAbort { tid: TransId },
    /// A replica promoted itself to primary update site for a file under a
    /// new replication epoch (the old primary crashed or partitioned away).
    ReplicaPromote { fid: Fid, site: SiteId, epoch: u64 },
    /// A stale replica finished a catch-up pull from the primary and is
    /// synced again.
    ReplicaResync { fid: Fid, site: SiteId },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Append-only shared event log: one buffer in push order. The mutex is the
/// order — two pushes that race are logged in the order they took it.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Mutex<Vec<Event>>,
}

impl EventLog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&self, e: Event) {
        self.events.lock().push(e);
    }

    /// Copy of all events so far, in push order.
    pub fn all(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    pub fn clear(&self) {
        self.events.lock().clear();
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Index of the first event satisfying `pred`, if any.
    pub fn position(&self, pred: impl Fn(&Event) -> bool) -> Option<usize> {
        self.events.lock().iter().position(pred)
    }

    /// Whether an event satisfying `a` occurs strictly before the first event
    /// satisfying `b`. Both must occur.
    pub fn happens_before(&self, a: impl Fn(&Event) -> bool, b: impl Fn(&Event) -> bool) -> bool {
        let events = self.events.lock();
        match (events.iter().position(a), events.iter().position(b)) {
            (Some(ia), Some(ib)) => ia < ib,
            _ => false,
        }
    }

    /// Number of events satisfying `pred`.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.lock().iter().filter(|e| pred(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid() -> TransId {
        TransId::new(SiteId(1), 1)
    }

    #[test]
    fn ordering_queries() {
        let log = EventLog::new();
        log.push(Event::CoordLog {
            site: SiteId(1),
            tid: tid(),
            status: TxnStatus::Unknown,
        });
        log.push(Event::PrepareSent {
            tid: tid(),
            to: SiteId(2),
        });
        log.push(Event::CommitMark { tid: tid() });
        assert!(log.happens_before(
            |e| matches!(e, Event::PrepareSent { .. }),
            |e| matches!(e, Event::CommitMark { .. }),
        ));
        assert!(!log.happens_before(
            |e| matches!(e, Event::CommitMark { .. }),
            |e| matches!(e, Event::PrepareSent { .. }),
        ));
        assert_eq!(log.count(|e| matches!(e, Event::CommitMark { .. })), 1);
    }

    #[test]
    fn happens_before_requires_both_events() {
        let log = EventLog::new();
        log.push(Event::CommitMark { tid: tid() });
        assert!(!log.happens_before(
            |e| matches!(e, Event::CommitMark { .. }),
            |e| matches!(e, Event::Aborted { .. }),
        ));
    }

    #[test]
    fn concurrent_pushes_keep_per_thread_order() {
        let log = std::sync::Arc::new(EventLog::new());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    log.push(Event::ChaosDelay {
                        from: SiteId(t),
                        to: SiteId(t),
                        millis: i,
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 1000);
        // The merged trace preserves each thread's push order.
        let mut last = std::collections::HashMap::new();
        for e in log.all() {
            if let Event::ChaosDelay { from, millis, .. } = e {
                if let Some(prev) = last.insert(from, millis) {
                    assert!(prev < millis, "thread {from:?} order broken");
                }
            }
        }
    }

    #[test]
    fn clear_resets() {
        let log = EventLog::new();
        log.push(Event::SiteCrash { site: SiteId(3) });
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(log.is_empty());
    }
}
