//! Identifier newtypes for sites, processes, transactions, volumes, files,
//! pages and open-file channels.
//!
//! All identifiers are small `Copy` values with a stable `Display` rendering
//! used in traces and error messages.

use std::fmt;

/// A network node ("site" in Locus terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A process identifier, globally unique across the network.
///
/// The originating site's number is kept in the high 32 bits so that a pid
/// allocated at one site can never collide with one allocated elsewhere, even
/// after the process migrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u64);

impl Pid {
    /// Builds a pid from its originating site and a site-local sequence.
    pub fn new(origin: SiteId, seq: u32) -> Self {
        Pid((u64::from(origin.0) << 32) | u64::from(seq))
    }

    /// The site that allocated this pid (not necessarily where the process
    /// currently runs — processes migrate).
    pub fn origin(self) -> SiteId {
        SiteId((self.0 >> 32) as u32)
    }

    /// Site-local sequence number component.
    pub fn seq(self) -> u32 {
        self.0 as u32
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}.{}", self.origin().0, self.seq())
    }
}

/// A temporally unique transaction identifier (Section 4.1).
///
/// Uniqueness is guaranteed by combining the coordinator-of-origin site with
/// a monotonically increasing per-site sequence that survives reboot (the
/// sequence is journalled to the site's volume). Temporal uniqueness is what
/// makes duplicate commit/abort messages harmless during recovery
/// (Section 4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransId {
    /// Site at which `BeginTrans` was issued.
    pub site: SiteId,
    /// Per-site monotone sequence number.
    pub seq: u64,
}

impl TransId {
    pub fn new(site: SiteId, seq: u64) -> Self {
        TransId { site, seq }
    }
}

impl fmt::Display for TransId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}.{}", self.site.0, self.seq)
    }
}

/// A logical volume (filesystem) identifier.
///
/// The paper keeps one transaction log per logical volume so that removable
/// media stay self-describing (Section 4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VolumeId(pub u32);

impl fmt::Display for VolumeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vol{}", self.0)
    }
}

/// Index of an inode within a volume's inode table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InodeNo(pub u32);

/// A globally unique file identifier: volume plus inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fid {
    pub volume: VolumeId,
    pub inode: InodeNo,
}

impl Fid {
    pub fn new(volume: VolumeId, inode: u32) -> Self {
        Fid {
            volume,
            inode: InodeNo(inode),
        }
    }
}

impl fmt::Display for Fid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}.{}", self.volume.0, self.inode.0)
    }
}

/// A logical page number within a file (byte offset / page size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageNo(pub u32);

impl fmt::Display for PageNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// A physical block number on a volume's block device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysPage(pub u32);

impl fmt::Display for PhysPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// An open-file channel number, as returned by `open` (the paper's record
/// locking interface identifies files by "the channel number returned by the
/// open call", Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel(pub u32);

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_roundtrips_origin_and_seq() {
        let p = Pid::new(SiteId(7), 42);
        assert_eq!(p.origin(), SiteId(7));
        assert_eq!(p.seq(), 42);
    }

    #[test]
    fn pids_from_different_sites_never_collide() {
        assert_ne!(Pid::new(SiteId(1), 5), Pid::new(SiteId(2), 5));
    }

    #[test]
    fn transid_ordering_is_by_site_then_seq() {
        let a = TransId::new(SiteId(1), 10);
        let b = TransId::new(SiteId(1), 11);
        let c = TransId::new(SiteId(2), 1);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(SiteId(3).to_string(), "site3");
        assert_eq!(Pid::new(SiteId(3), 9).to_string(), "pid3.9");
        assert_eq!(TransId::new(SiteId(2), 4).to_string(), "txn2.4");
        assert_eq!(Fid::new(VolumeId(1), 8).to_string(), "f1.8");
    }
}
