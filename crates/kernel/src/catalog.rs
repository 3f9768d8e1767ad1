//! The distributed, transparent namespace.
//!
//! Locus already provided "distributed name-mapping services" (Section 4);
//! the transaction work did not reimplement them, and neither do we model
//! their internals: the catalog is a replicated map every kernel can consult,
//! and name resolution charges CPU but no messages ("a program may perform
//! name mapping, a relatively expensive operation in a distributed system,
//! once, then lock and unlock records within the file" — Section 3.2; we make
//! the open carry the name-mapping cost).

use std::collections::{BTreeSet, HashMap};

use parking_lot::RwLock;

use locus_types::{Error, Fid, Result, SiteId, TransId};

/// Location information for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileLoc {
    pub fid: Fid,
    /// Sites holding a replica of the file's volume.
    pub sites: Vec<SiteId>,
    /// The primary update site: all locking and update activity is funneled
    /// through it (Section 5.2's single storage site strategy).
    pub primary: SiteId,
    /// Replication epoch, bumped on every primary promotion. Sync pushes and
    /// catch-up pulls carry it so traffic from a deposed primary — or toward
    /// a site that missed a promotion — is refused rather than installed.
    pub epoch: u64,
    /// Replica sites (including the primary) whose durable copy matches the
    /// primary's committed image. A replica outside this set must not serve
    /// local reads; it proxies to the primary until a catch-up pull brings
    /// it back in.
    pub synced: Vec<SiteId>,
    /// Commit fence: transactions that have durably decided *commit* but
    /// whose phase two has not yet finished installing at the primary.
    /// Promotion is refused while any fence is up — promoting past an
    /// uninstalled commit would lose acked data, so the file simply has no
    /// primary until the old one returns (classic 2PC blocking).
    pub fence: BTreeSet<TransId>,
}

impl FileLoc {
    /// A freshly created single-copy file: the creating site is primary and,
    /// trivially, synced.
    pub fn single(fid: Fid, site: SiteId) -> FileLoc {
        FileLoc {
            fid,
            sites: vec![site],
            primary: site,
            epoch: 0,
            synced: vec![site],
            fence: BTreeSet::new(),
        }
    }

    /// Whether the file has more than one copy.
    pub fn replicated(&self) -> bool {
        self.sites.len() > 1
    }
}

/// Replicated name → location catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    by_name: RwLock<HashMap<String, FileLoc>>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a newly created file.
    pub fn register(&self, name: &str, loc: FileLoc) -> Result<()> {
        let mut map = self.by_name.write();
        if map.contains_key(name) {
            return Err(Error::AlreadyExists(name.to_string()));
        }
        map.insert(name.to_string(), loc);
        Ok(())
    }

    /// Resolves a pathname.
    pub fn resolve(&self, name: &str) -> Result<FileLoc> {
        self.by_name
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NoSuchFile(name.to_string()))
    }

    /// Location by fid (reverse lookup).
    pub fn loc_of(&self, fid: Fid) -> Option<FileLoc> {
        self.by_name.read().values().find(|l| l.fid == fid).cloned()
    }

    /// The file's replication epoch, read in place (0 for a fid the catalog
    /// does not know, as for a file that never failed over).
    pub(crate) fn epoch_of(&self, fid: Fid) -> u64 {
        let map = self.by_name.read();
        map.values().find(|l| l.fid == fid).map_or(0, |l| l.epoch)
    }

    /// Adds a replica site for a file. The new replica is optimistically
    /// considered synced: replica volumes are attached before any commit
    /// traffic in this model, and the first push brings them the data. A
    /// replica attached late simply drops out of the synced set on its first
    /// failed push and catches up through the pull path.
    pub fn add_replica(&self, name: &str, site: SiteId) -> Result<()> {
        let mut map = self.by_name.write();
        let loc = map
            .get_mut(name)
            .ok_or_else(|| Error::NoSuchFile(name.to_string()))?;
        if !loc.sites.contains(&site) {
            loc.sites.push(site);
        }
        if !loc.synced.contains(&site) {
            loc.synced.push(site);
        }
        Ok(())
    }

    /// Marks a replica's durable copy as matching the primary's (catch-up
    /// pull completed, applied at the replica).
    pub fn mark_synced(&self, fid: Fid, site: SiteId) {
        let mut map = self.by_name.write();
        for loc in map.values_mut() {
            if loc.fid == fid && loc.sites.contains(&site) && !loc.synced.contains(&site) {
                loc.synced.push(site);
            }
        }
    }

    /// Marks a replica stale (a push to it failed, or it missed a
    /// promotion); it must not serve local reads until it pulls.
    pub fn mark_unsynced(&self, fid: Fid, site: SiteId) {
        let mut map = self.by_name.write();
        for loc in map.values_mut() {
            if loc.fid == fid {
                loc.synced.retain(|s| *s != site);
            }
        }
    }

    /// Promotes `site` to primary update site under a new epoch. The
    /// compare-and-swap on `expected_epoch` makes concurrent promotion
    /// attempts race safely: exactly one wins per epoch. Refused when the
    /// candidate is not synced (it would serve stale bytes) or while a
    /// commit fence is up (an acked commit has not finished installing at
    /// the old primary; promoting past it would lose the data).
    pub fn promote(&self, fid: Fid, site: SiteId, expected_epoch: u64) -> Result<u64> {
        let mut map = self.by_name.write();
        for loc in map.values_mut() {
            if loc.fid == fid {
                if loc.epoch != expected_epoch {
                    return Err(Error::InvalidArgument(format!(
                        "stale promotion: epoch {expected_epoch} != current {}",
                        loc.epoch
                    )));
                }
                if loc.primary == site {
                    return Ok(loc.epoch);
                }
                if !loc.synced.contains(&site) {
                    return Err(Error::InvalidArgument(format!(
                        "{site} is not synced for {fid}"
                    )));
                }
                if !loc.fence.is_empty() {
                    return Err(Error::InvalidArgument(format!(
                        "{fid} is commit-fenced; failover must wait"
                    )));
                }
                loc.primary = site;
                loc.epoch += 1;
                return Ok(loc.epoch);
            }
        }
        Err(Error::StaleFid(fid))
    }

    /// Raises the commit fence for `tid` on a replicated file (no-op for
    /// single-copy files: they cannot fail over).
    pub fn fence_add(&self, fid: Fid, tid: TransId) {
        let mut map = self.by_name.write();
        for loc in map.values_mut() {
            if loc.fid == fid && loc.replicated() {
                loc.fence.insert(tid);
            }
        }
    }

    /// Drops `tid`'s fences everywhere (phase two finished, or the
    /// transaction's fate no longer blocks failover).
    pub fn fence_remove(&self, tid: TransId) {
        let mut map = self.by_name.write();
        for loc in map.values_mut() {
            loc.fence.remove(&tid);
        }
    }

    /// Migrates the primary update site (storage-site service migration when
    /// an open-for-update arrives at a non-primary replica, Section 5.2
    /// footnote 8).
    pub fn set_primary(&self, fid: Fid, site: SiteId) -> Result<()> {
        let mut map = self.by_name.write();
        for loc in map.values_mut() {
            if loc.fid == fid {
                if !loc.sites.contains(&site) {
                    return Err(Error::InvalidArgument(format!(
                        "{site} holds no replica of {fid}"
                    )));
                }
                loc.primary = site;
                return Ok(());
            }
        }
        Err(Error::StaleFid(fid))
    }

    /// Removes a file (unlink).
    pub fn unregister(&self, name: &str) -> Option<FileLoc> {
        self.by_name.write().remove(name)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.by_name.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::VolumeId;

    fn loc(vol: u32, ino: u32, primary: u32) -> FileLoc {
        FileLoc::single(Fid::new(VolumeId(vol), ino), SiteId(primary))
    }

    #[test]
    fn register_resolve_roundtrip() {
        let c = Catalog::new();
        c.register("/db/accounts", loc(0, 1, 0)).unwrap();
        let got = c.resolve("/db/accounts").unwrap();
        assert_eq!(got.fid, Fid::new(VolumeId(0), 1));
        assert!(matches!(c.resolve("/nope"), Err(Error::NoSuchFile(_))));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        // Section 3.4's motivating example: two transactions creating the
        // same name — one must fail even before commit.
        let c = Catalog::new();
        c.register("/f", loc(0, 1, 0)).unwrap();
        assert_eq!(
            c.register("/f", loc(0, 2, 0)),
            Err(Error::AlreadyExists("/f".into()))
        );
    }

    #[test]
    fn replicas_and_primary_migration() {
        let c = Catalog::new();
        c.register("/f", loc(0, 1, 0)).unwrap();
        c.add_replica("/f", SiteId(2)).unwrap();
        let fid = Fid::new(VolumeId(0), 1);
        c.set_primary(fid, SiteId(2)).unwrap();
        assert_eq!(c.resolve("/f").unwrap().primary, SiteId(2));
        // Cannot make a non-replica the primary.
        assert!(c.set_primary(fid, SiteId(7)).is_err());
    }

    #[test]
    fn promote_is_epoch_guarded_and_fence_aware() {
        let c = Catalog::new();
        c.register("/f", loc(0, 1, 0)).unwrap();
        c.add_replica("/f", SiteId(1)).unwrap();
        c.add_replica("/f", SiteId(2)).unwrap();
        let fid = Fid::new(VolumeId(0), 1);

        // Unsynced candidates are refused.
        c.mark_unsynced(fid, SiteId(2));
        assert!(c.promote(fid, SiteId(2), 0).is_err());

        // A commit fence blocks failover until phase two finishes.
        let tid = TransId::new(SiteId(0), 7);
        c.fence_add(fid, tid);
        assert!(c.promote(fid, SiteId(1), 0).is_err());
        c.fence_remove(tid);

        assert_eq!(c.promote(fid, SiteId(1), 0).unwrap(), 1);
        let l = c.resolve("/f").unwrap();
        assert_eq!(l.primary, SiteId(1));
        assert_eq!(l.epoch, 1);
        // A racing promotion with the old epoch loses the CAS.
        assert!(c.promote(fid, SiteId(0), 0).is_err());
        // Re-promoting the current primary is an idempotent no-op.
        assert_eq!(c.promote(fid, SiteId(1), 1).unwrap(), 1);
    }

    #[test]
    fn fences_apply_only_to_replicated_files() {
        let c = Catalog::new();
        c.register("/single", loc(0, 1, 0)).unwrap();
        let fid = Fid::new(VolumeId(0), 1);
        c.fence_add(fid, TransId::new(SiteId(0), 1));
        assert!(c.loc_of(fid).unwrap().fence.is_empty());
    }

    #[test]
    fn reverse_lookup_and_unregister() {
        let c = Catalog::new();
        c.register("/f", loc(0, 3, 1)).unwrap();
        let fid = Fid::new(VolumeId(0), 3);
        assert_eq!(c.loc_of(fid).unwrap().primary, SiteId(1));
        c.unregister("/f");
        assert!(c.loc_of(fid).is_none());
        assert!(c.names().is_empty());
    }
}
