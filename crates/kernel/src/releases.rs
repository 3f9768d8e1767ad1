//! The release queue: explicit unlocks of locks whose list lives at another
//! site, waiting for the next message this kernel sends there.
//!
//! `Kernel::unlock` of such a lock ends the owner's coverage here and queues
//! its `LockMsg::Req { mode: Unlock }` per storage site; every request this
//! kernel then sends that site carries the site's queue ahead of itself, as
//! [`Msg::Batch`] members (`Kernel::exchange`). Three rules keep what the
//! synchronous unlock promised (DESIGN.md §3):
//!
//! * **Pull.** Before a request at the storage site waits on, or is refused
//!   by, a lock of a process living here, that site asks for the releases
//!   queued for it ([`LockMsg::Recall`](locus_net::LockMsg::Recall)), applies
//!   them and asks again.
//! * **Liveness.** A release that waited one pump turn with no message
//!   carrying it goes alone (`Kernel::pump_releases`); one queued for a site
//!   that recalled since a carrier last went there — a request may be
//!   waiting there — is due at once.
//! * **Volatility.** A crash drops the queue, a reply from a new incarnation
//!   of the site drops what was queued for the old one (a release reaching a
//!   rebooted site finds nothing to release anyway), and a migrating process
//!   sends its releases before it leaves.
//!
//! A carrier that is lost puts its releases back at the head of the queue:
//! the lost message may or may not have run there, and running a release
//! twice releases nothing the second time, because every later request this
//! kernel sends the site carries the queue ahead of itself. For the same
//! reason a process's own lock request waits while one of its releases is
//! on another thread's carrier ([`Releases::wait_settled`]). A release
//! handed to a `Recall` leaves the queue with the answer: if the answer is
//! lost the lock stays until close/exit's `UnlockAll`, as a lost unlock
//! reply left it before.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

use locus_net::Msg;
use locus_types::{Pid, SiteId};

/// One queued release.
#[derive(Debug)]
struct Release {
    /// The process that unlocked: its later requests are ordered after it.
    pid: Pid,
    msg: Msg,
    /// It has waited through a pump turn with no message carrying it since:
    /// the next turn sends it on its own.
    due: bool,
}

/// One storage site's releases.
#[derive(Debug, Default)]
struct Queue {
    waiting: Vec<Release>,
    /// Releases on carriers not yet answered, by carrier.
    in_flight: Vec<(u64, Release)>,
    /// The site recalled since a carrier last went there.
    wanted: bool,
}

#[derive(Debug, Default)]
struct Inner {
    sites: BTreeMap<SiteId, Queue>,
    next_carrier: u64,
    /// Threads in [`Releases::wait_settled`]: a settle wakes them only if
    /// there are any (a wake is a system call).
    sleepers: usize,
}

/// Releases one carrier took, to hand back to [`Releases::settle`].
#[derive(Debug)]
pub(crate) struct Carried {
    id: u64,
    pub msgs: Vec<Msg>,
}

/// A kernel's release queues, one per storage site.
#[derive(Default)]
pub(crate) struct Releases {
    /// Waiting releases over every site: the one load a send makes when
    /// there are none.
    waiting: AtomicUsize,
    /// Releases on carriers in flight, over every site.
    in_flight: AtomicUsize,
    inner: Mutex<Inner>,
    /// Signalled whenever a carrier settles.
    settled: Condvar,
}

impl Releases {
    /// Queues `pid`'s release `msg` for `site`.
    pub fn push(&self, site: SiteId, pid: Pid, msg: Msg) {
        let mut inner = self.inner.lock();
        let q = inner.sites.entry(site).or_default();
        let due = q.wanted;
        q.waiting.push(Release { pid, msg, due });
        self.waiting.fetch_add(1, Ordering::Relaxed);
    }

    /// Waiting releases, over every site.
    pub fn len(&self) -> usize {
        self.waiting.load(Ordering::Relaxed)
    }

    /// Takes `site`'s waiting releases for a carrier, in queue order.
    pub fn take(&self, site: SiteId) -> Option<Carried> {
        if self.len() == 0 {
            return None;
        }
        let mut inner = self.inner.lock();
        let id = inner.next_carrier;
        let q = inner.sites.get_mut(&site)?;
        if q.waiting.is_empty() {
            return None;
        }
        q.wanted = false;
        let taken = std::mem::take(&mut q.waiting);
        let msgs = taken.iter().map(|r| r.msg.clone()).collect();
        self.waiting.fetch_sub(taken.len(), Ordering::Relaxed);
        self.in_flight.fetch_add(taken.len(), Ordering::Relaxed);
        q.in_flight.extend(taken.into_iter().map(|r| (id, r)));
        inner.next_carrier += 1;
        Some(Carried { id, msgs })
    }

    /// The carrier that took `carried` from `site` was answered
    /// (`delivered`) or lost: a lost carrier's releases go back to the head
    /// of the queue, as they were. A queue a crash emptied meanwhile takes
    /// nothing back.
    pub fn settle(&self, site: SiteId, carried: Carried, delivered: bool) {
        let mut inner = self.inner.lock();
        if let Some(q) = inner.sites.get_mut(&site) {
            let before = q.in_flight.len();
            if delivered {
                q.in_flight.retain(|(id, _)| *id != carried.id);
            } else {
                let (mine, others) = std::mem::take(&mut q.in_flight)
                    .into_iter()
                    .partition::<Vec<_>, _>(|(id, _)| *id == carried.id);
                q.in_flight = others;
                self.waiting.fetch_add(mine.len(), Ordering::Relaxed);
                q.waiting.splice(0..0, mine.into_iter().map(|(_, r)| r));
            }
            let settled = before - q.in_flight.len();
            self.in_flight.fetch_sub(settled, Ordering::Relaxed);
        }
        if inner.sleepers > 0 {
            self.settled.notify_all();
        }
    }

    /// `site` recalled: its waiting releases, which leave the queue with the
    /// answer. Marks the site as wanting the next ones.
    pub fn recall(&self, site: SiteId) -> Vec<Msg> {
        let mut inner = self.inner.lock();
        let q = inner.sites.entry(site).or_default();
        q.wanted = true;
        let taken = std::mem::take(&mut q.waiting);
        self.waiting.fetch_sub(taken.len(), Ordering::Relaxed);
        taken.into_iter().map(|r| r.msg).collect()
    }

    /// One pump turn: the sites with a release that is due, whose queues
    /// go alone now; every other release begins its waiting turn, and how
    /// many did is returned.
    pub fn pump(&self) -> (Vec<SiteId>, usize) {
        let mut inner = self.inner.lock();
        let mut due = Vec::new();
        let mut began = 0;
        for (site, q) in inner.sites.iter_mut() {
            if q.waiting.iter().any(|r| r.due) {
                due.push(*site);
                continue;
            }
            for r in q.waiting.iter_mut() {
                r.due = true;
                began += 1;
            }
        }
        (due, began)
    }

    /// The sites with waiting releases (of `pid` only, when given).
    pub fn sites(&self, pid: Option<Pid>) -> Vec<SiteId> {
        let inner = self.inner.lock();
        let mine = |q: &Queue| q.waiting.iter().any(|r| pid.is_none_or(|p| r.pid == p));
        inner
            .sites
            .iter()
            .filter(|(_, q)| mine(q))
            .map(|(site, _)| *site)
            .collect()
    }

    /// Waits until no release of `pid` for `site` (for any site, when
    /// `None`) is on a carrier in flight: the process's next request to
    /// the site then carries every one still unapplied ahead of itself.
    pub fn wait_settled(&self, site: Option<SiteId>, pid: Pid) {
        if self.in_flight.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let pending = |inner: &Inner| {
            inner
                .sites
                .iter()
                .filter(|(s, _)| site.is_none_or(|want| **s == want))
                .any(|(_, q)| q.in_flight.iter().any(|(_, r)| r.pid == pid))
        };
        while pending(&inner) {
            inner.sleepers += 1;
            self.settled.wait(&mut inner);
            inner.sleepers -= 1;
        }
    }

    /// Drops `site`'s waiting releases (of `pid` only, when given).
    pub fn drop_site(&self, site: SiteId, pid: Option<Pid>) {
        let mut inner = self.inner.lock();
        if let Some(q) = inner.sites.get_mut(&site) {
            let before = q.waiting.len();
            q.waiting.retain(|r| pid.is_some_and(|p| r.pid != p));
            self.waiting
                .fetch_sub(before - q.waiting.len(), Ordering::Relaxed);
        }
    }

    /// Site crash: every queue is volatile state, and so is every carrier
    /// in flight, which takes nothing back when it settles.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        inner.sites.clear();
        self.waiting.store(0, Ordering::Relaxed);
        self.in_flight.store(0, Ordering::Relaxed);
        if inner.sleepers > 0 {
            self.settled.notify_all();
        }
    }
}

/// The sites a storage site is recalling releases from right now. A message
/// from one of them waits until the recalled releases are applied, so that
/// none is applied after a later request of the process it releases for
/// (threads only: under the deterministic driver no message arrives while a
/// recall is in progress).
#[derive(Default)]
pub(crate) struct Recalling {
    active: AtomicUsize,
    sites: Mutex<BTreeMap<SiteId, usize>>,
    done: Condvar,
}

impl Recalling {
    pub fn begin(&self, site: SiteId) {
        *self.sites.lock().entry(site).or_default() += 1;
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    pub fn end(&self, site: SiteId) {
        let mut sites = self.sites.lock();
        if let Some(n) = sites.get_mut(&site) {
            *n -= 1;
            if *n == 0 {
                sites.remove(&site);
            }
        }
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.done.notify_all();
    }

    /// Waits while a recall from `site` is in progress.
    pub fn wait(&self, site: SiteId) {
        if self.active.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut sites = self.sites.lock();
        while sites.contains_key(&site) {
            self.done.wait(&mut sites);
        }
    }
}
