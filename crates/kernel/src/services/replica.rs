//! The replica service: primary-site replication (Section 5.2), grown into a
//! fault-tolerant subsystem.
//!
//! Three mechanisms share this module:
//!
//! * **Push** — after a commit installs at the primary update site, the
//!   committed page images are pushed to every *synced* replica, batched per
//!   site through [`Msg::Batch`] ([`Kernel::sync_replicas`]). A failed push
//!   drops the replica from the synced set instead of failing the commit.
//! * **Failover** — when the primary crashes or partitions away, the lowest
//!   reachable synced replica promotes itself under a new replication epoch
//!   ([`Kernel::try_promotions`]). The epoch rides every replica message, so
//!   traffic from a deposed primary is refused rather than installed, and
//!   the catalog's compare-and-swap makes concurrent promotions race safely.
//!   Promotion is blocked while a commit fence is up: an acked transaction
//!   whose phase two has not finished installing pins the old primary
//!   (classic two-phase-commit blocking — no successor until it returns).
//! * **Catch-up pull** — a rebooted or healed replica asks the primary for
//!   exactly the pages it missed, comparing per-page install counters
//!   ([`Kernel::resync_replica`]); the chunked requests travel as one
//!   batched round trip. The replica marks *itself* synced only after the
//!   pull is applied, so a dropped reply can never advertise a stale copy
//!   as fresh.

use locus_net::{Msg, ReplicaMsg};
use locus_sim::{Account, Event};
use locus_types::{Error, Fid, IntentionsList, PageNo, Result, SiteId};

use crate::kernel::Kernel;
use crate::services::ServiceHandler;

/// Pages per catch-up pull request; several requests batch into one round
/// trip, so the chunk size only bounds per-message payload.
const PULL_CHUNK: usize = 16;

/// Replica-site handler: installs committed page images from the primary,
/// observes promotions, and serves catch-up pulls when primary.
pub(crate) struct ReplicaService;

impl ServiceHandler for ReplicaService {
    type Request = ReplicaMsg;

    fn handle(k: &Kernel, _from: SiteId, req: ReplicaMsg, acct: &mut Account) -> Result<Msg> {
        match req {
            ReplicaMsg::Sync {
                fid,
                new_len,
                epoch,
                pages,
            } => {
                if let Some(loc) = k.catalog.loc_of(fid) {
                    if epoch != loc.epoch {
                        return Err(Error::InvalidArgument(format!(
                            "stale replica epoch {epoch} for {fid} (current {})",
                            loc.epoch
                        )));
                    }
                    if loc.replicated() && loc.primary == k.site {
                        return Err(Error::InvalidArgument(format!(
                            "primary update site of {fid} refuses a sync push"
                        )));
                    }
                }
                let vol = k.volume(fid.volume)?;
                vol.replica_install(fid, new_len, &pages, acct)?;
                // Committed bytes at this site just changed without any
                // local lock traffic; cached pages of the file are suspect.
                k.pages.drop_file(fid);
                Ok(Msg::Ok)
            }
            ReplicaMsg::Promote { fid, site, epoch } => {
                if let Some(loc) = k.catalog.loc_of(fid) {
                    if epoch < loc.epoch {
                        return Err(Error::InvalidArgument(format!(
                            "stale promotion epoch {epoch} for {fid} (current {})",
                            loc.epoch
                        )));
                    }
                }
                let _ = site;
                // The primary moved: locally cached pages were justified by
                // lock coverage anchored at the old primary.
                k.pages.drop_file(fid);
                Ok(Msg::Ok)
            }
            ReplicaMsg::PullReq {
                fid,
                epoch,
                start,
                have,
                tail,
            } => {
                let loc = k.catalog.loc_of(fid).ok_or(Error::StaleFid(fid))?;
                if epoch != loc.epoch {
                    return Err(Error::InvalidArgument(format!(
                        "stale pull epoch {epoch} for {fid} (current {})",
                        loc.epoch
                    )));
                }
                if loc.primary != k.site {
                    return Err(Error::InvalidArgument(format!(
                        "site {} is not the primary update site of {fid}",
                        k.site
                    )));
                }
                let vol = k.volume(fid.volume)?;
                let (new_len, pages) = vol.pull_pages(fid, start, &have, tail, acct)?;
                Ok(Msg::Replica(ReplicaMsg::PullResp {
                    epoch,
                    new_len,
                    pages,
                }))
            }
            other => Err(Error::ProtocolViolation(format!(
                "replica service cannot handle {other:?}"
            ))),
        }
    }
}

impl Kernel {
    /// Stages the push of one committed intentions list toward the file's
    /// synced replicas: one [`ReplicaMsg::Sync`] per (site, file), collected
    /// into `staged` so a multi-file commit flushes a single batch per site.
    pub fn stage_replica_sync(
        &self,
        fid: Fid,
        il: &IntentionsList,
        staged: &mut std::collections::BTreeMap<SiteId, Vec<(Fid, Msg)>>,
        acct: &mut Account,
    ) -> Result<()> {
        if il.is_empty() {
            return Ok(());
        }
        let Some(loc) = self.catalog.loc_of(fid) else {
            return Ok(());
        };
        // Only the current primary pushes. A deposed primary reaching this
        // point installed bytes the true primary never saw — it must not
        // spread them, and its own copy is no longer trustworthy.
        if loc.replicated() && loc.primary != self.site {
            self.catalog.mark_unsynced(fid, self.site);
            return Ok(());
        }
        let targets: Vec<SiteId> = loc
            .synced
            .iter()
            .copied()
            .filter(|s| *s != self.site)
            .collect();
        if targets.is_empty() {
            return Ok(());
        }
        let vol = self.volume(fid.volume)?;
        let pages: Vec<_> = il.entries.iter().map(|e| e.page).collect();
        // `committed_pages` hands back shared buffers: the per-site clone
        // below duplicates handles, not page bytes.
        let data = vol.committed_pages(fid, &pages, acct)?;
        for site in targets {
            staged.entry(site).or_default().push((
                fid,
                Msg::Replica(ReplicaMsg::Sync {
                    fid,
                    new_len: il.new_len,
                    epoch: loc.epoch,
                    pages: data.clone(),
                }),
            ));
        }
        Ok(())
    }

    /// Sends the staged pushes, one batched round trip per replica site. A
    /// site that fails (down, partitioned, or refusing a stale epoch) is
    /// marked unsynced for every file in its batch — it stops serving local
    /// reads and catches up through the pull path; the commit itself never
    /// fails on a replica's account.
    pub fn flush_replica_sync(
        &self,
        staged: std::collections::BTreeMap<SiteId, Vec<(Fid, Msg)>>,
        acct: &mut Account,
    ) {
        for (site, items) in staged {
            let fids: Vec<Fid> = items.iter().map(|(f, _)| *f).collect();
            let msgs: Vec<Msg> = items.into_iter().map(|(_, m)| m).collect();
            let pushed = self
                .rpc_batch(site, msgs, acct)
                .is_ok_and(|resps| resps.iter().all(Result::is_ok));
            if !pushed {
                for fid in fids {
                    self.catalog.mark_unsynced(fid, site);
                }
            }
        }
    }

    /// Pushes the committed image of the pages in `il` to the file's synced
    /// replica sites (primary-site update strategy, Section 5.2). The
    /// single-file convenience over stage + flush.
    pub fn sync_replicas(&self, fid: Fid, il: &IntentionsList, acct: &mut Account) -> Result<()> {
        let mut staged = std::collections::BTreeMap::new();
        self.stage_replica_sync(fid, il, &mut staged, acct)?;
        self.flush_replica_sync(staged, acct);
        Ok(())
    }

    /// Attempts epoch-guarded failover for every replicated file whose
    /// primary is unreachable from this site. The successor rule is
    /// deterministic — the lowest reachable *synced* replica promotes — and
    /// the catalog's epoch compare-and-swap arbitrates races. Returns the
    /// files this site became primary for.
    pub fn try_promotions(&self, acct: &mut Account) -> Vec<(Fid, u64)> {
        let mut promoted = Vec::new();
        if self.check_up().is_err() {
            return promoted;
        }
        let view = self.partition_view();
        for name in self.catalog.names() {
            let Ok(loc) = self.catalog.resolve(&name) else {
                continue;
            };
            if !loc.replicated() || loc.primary == self.site {
                continue;
            }
            if view.contains(&loc.primary) {
                continue; // Primary reachable: nothing to fail over.
            }
            if !loc.fence.is_empty() {
                // An acked commit is still installing at the old primary;
                // promoting past it would lose the data.
                continue;
            }
            let successor = loc
                .synced
                .iter()
                .copied()
                .filter(|s| view.contains(s))
                .min();
            if successor != Some(self.site) {
                continue;
            }
            let Ok(epoch) = self.catalog.promote(loc.fid, self.site, loc.epoch) else {
                continue; // Lost the race, or the fence rose underfoot.
            };
            self.events.push(Event::ReplicaPromote {
                fid: loc.fid,
                site: self.site,
                epoch,
            });
            // Locks and page coverage anchored at the old primary are void.
            self.pages.drop_file(loc.fid);
            for s in loc
                .sites
                .iter()
                .copied()
                .filter(|s| *s != self.site && view.contains(s))
            {
                let _ = self.notify(
                    s,
                    Msg::Replica(ReplicaMsg::Promote {
                        fid: loc.fid,
                        site: self.site,
                        epoch,
                    }),
                    acct,
                );
            }
            promoted.push((loc.fid, epoch));
        }
        promoted
    }

    /// Catches up every stale replica this site holds (reboot/heal path).
    /// Returns how many files resynced; failures (primary still down) leave
    /// the replica unsynced, to be retried later.
    pub fn resync_replicas(&self, acct: &mut Account) -> usize {
        if self.check_up().is_err() {
            return 0;
        }
        let mut n = 0;
        for name in self.catalog.names() {
            let Ok(loc) = self.catalog.resolve(&name) else {
                continue;
            };
            if !loc.sites.contains(&self.site)
                || loc.primary == self.site
                || loc.synced.contains(&self.site)
            {
                continue;
            }
            if self.resync_replica(loc.fid, acct).is_ok() {
                n += 1;
            }
        }
        n
    }

    /// Version-ranged catch-up pull: fetches from the primary exactly the
    /// pages whose install counters differ from the local durable copy's,
    /// all chunks batched into one round trip. On success the local copy is
    /// byte-identical to the primary's committed image and this site rejoins
    /// the synced set.
    pub fn resync_replica(&self, fid: Fid, acct: &mut Account) -> Result<()> {
        self.check_up()?;
        let loc = self.catalog.loc_of(fid).ok_or(Error::StaleFid(fid))?;
        if loc.primary == self.site || !loc.sites.contains(&self.site) {
            return Err(Error::InvalidArgument(format!(
                "site {} holds no replica of {fid} to resync",
                self.site
            )));
        }
        if loc.synced.contains(&self.site) {
            return Ok(());
        }
        let vol = self.volume(fid.volume)?;
        let have = vol.replica_versions(fid, acct);
        let mut reqs = Vec::new();
        let mut off = 0usize;
        loop {
            let end = (off + PULL_CHUNK).min(have.len());
            let tail = end == have.len();
            reqs.push(Msg::Replica(ReplicaMsg::PullReq {
                fid,
                epoch: loc.epoch,
                start: PageNo(off as u32),
                have: have[off..end].to_vec(),
                tail,
            }));
            if tail {
                break;
            }
            off = end;
        }
        let resps = self.rpc_batch(loc.primary, reqs, acct)?;
        let mut new_len = 0u64;
        let mut pages = Vec::new();
        for r in resps {
            let r = r?;
            let Msg::Replica(ReplicaMsg::PullResp {
                epoch,
                new_len: l,
                pages: p,
            }) = r
            else {
                return Err(Error::ProtocolViolation(format!(
                    "unexpected pull response {r:?}"
                )));
            };
            if epoch != loc.epoch {
                return Err(Error::InvalidArgument(format!(
                    "pull answered under epoch {epoch}, expected {}",
                    loc.epoch
                )));
            }
            new_len = new_len.max(l);
            pages.extend(p);
        }
        vol.replica_install(fid, new_len, &pages, acct)?;
        self.pages.drop_file(fid);
        // Mark ourselves synced only now: had the primary marked us on
        // reply, a dropped response would advertise a stale copy as fresh.
        self.catalog.mark_synced(fid, self.site);
        self.events.push(Event::ReplicaResync {
            fid,
            site: self.site,
        });
        Ok(())
    }
}
