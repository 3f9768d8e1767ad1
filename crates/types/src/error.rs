//! The error vocabulary shared across subsystems.

use std::fmt;

use crate::id::{Fid, Pid, SiteId, TransId};
use crate::range::ByteRange;

pub type Result<T> = std::result::Result<T, Error>;

/// Every failure mode a Locus operation can report.
///
/// The multi-machine environment has "a richer set of failure and error
/// modes" than the single-machine case (Section 1); this enum is the catalog
/// of them. Variants that cross the wire (lock conflicts, in-transit
/// processes, site failures) are serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A lock request conflicts with an existing lock and the caller asked
    /// for a non-blocking attempt ("the requestor will receive an indication
    /// of the conflict", Section 3.2).
    LockConflict { fid: Fid, range: ByteRange },
    /// A lock request conflicts and has been queued; the caller will be woken
    /// when the lock is granted ("alternatively will be queued until the lock
    /// can be granted").
    WouldBlock { fid: Fid, range: ByteRange },
    /// Enforced locking denied a read or write (Figure 1 "no"/"read" cells).
    AccessDenied { fid: Fid, range: ByteRange },
    /// Locking requires write access to the file (Section 3.1 policy:
    /// enforced locks can deny access, so lockers must hold write permission).
    PermissionDenied { fid: Fid },
    /// The file does not exist (or the name did not resolve).
    NoSuchFile(String),
    /// The fid did not resolve at the storage site.
    StaleFid(Fid),
    /// The channel number is not an open file of the calling process.
    BadChannel,
    /// The process does not exist at the addressed site.
    NoSuchProcess(Pid),
    /// The target process is migrating; the sender must retry (the
    /// Section 4.1 file-list race-avoidance protocol).
    InTransit(Pid),
    /// The destination site is down or unknown.
    SiteDown(SiteId),
    /// The destination site is unreachable in the current partition.
    Partitioned { from: SiteId, to: SiteId },
    /// The transaction has been aborted (by a peer process, a failure, or the
    /// deadlock detector).
    TxnAborted(TransId),
    /// The process is not inside a transaction.
    NotInTransaction,
    /// `EndTrans` was issued but child processes are still running; the
    /// top-level process must wait for them to complete (Section 4.2).
    ChildrenActive { remaining: usize },
    /// The volume ran out of blocks or inodes.
    VolumeFull,
    /// Out-of-range or otherwise malformed argument.
    InvalidArgument(String),
    /// Transaction log or protocol state is inconsistent with the request
    /// (e.g. preparing an already-prepared transaction).
    ProtocolViolation(String),
    /// A file already exists under this name.
    AlreadyExists(String),
    /// The operation cannot proceed because the site has crashed (returned to
    /// in-flight callers when a crash is injected).
    Crashed(SiteId),
    /// The disk stopped accepting transfers mid-stream (an armed crash point
    /// fired). Durable state is frozen exactly as the crash left it; the
    /// owning site must be crashed and rebooted to continue.
    DiskOffline,
    /// A phase-two commit installed here, but its journal frames have not
    /// landed yet: no ack until they have. The sender sends the commit
    /// again.
    NotLanded(TransId),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::LockConflict { fid, range } => write!(f, "lock conflict on {fid} {range}"),
            Error::WouldBlock { fid, range } => write!(f, "queued for lock on {fid} {range}"),
            Error::AccessDenied { fid, range } => write!(f, "access denied on {fid} {range}"),
            Error::PermissionDenied { fid } => write!(f, "write permission required to lock {fid}"),
            Error::NoSuchFile(name) => write!(f, "no such file: {name}"),
            Error::StaleFid(fid) => write!(f, "stale fid {fid}"),
            Error::BadChannel => write!(f, "bad channel"),
            Error::NoSuchProcess(pid) => write!(f, "no such process {pid}"),
            Error::InTransit(pid) => write!(f, "process {pid} is migrating; retry"),
            Error::SiteDown(s) => write!(f, "{s} is down"),
            Error::Partitioned { from, to } => write!(f, "{from} cannot reach {to} (partitioned)"),
            Error::TxnAborted(tid) => write!(f, "{tid} aborted"),
            Error::NotInTransaction => write!(f, "not in a transaction"),
            Error::ChildrenActive { remaining } => {
                write!(f, "{remaining} child process(es) still active")
            }
            Error::VolumeFull => write!(f, "volume full"),
            Error::InvalidArgument(s) => write!(f, "invalid argument: {s}"),
            Error::ProtocolViolation(s) => write!(f, "protocol violation: {s}"),
            Error::AlreadyExists(name) => write!(f, "already exists: {name}"),
            Error::Crashed(s) => write!(f, "{s} crashed"),
            Error::DiskOffline => write!(f, "disk offline (crash point fired)"),
            Error::NotLanded(tid) => write!(f, "{tid} installed, not yet landed"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Whether the error indicates a transient condition the caller should
    /// retry (migration races, queued locks).
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::InTransit(_) | Error::WouldBlock { .. })
    }

    /// Whether the error stems from a site/communication failure, i.e. the
    /// class of faults that aborts in-flight transactions (Section 4.3).
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            Error::SiteDown(_) | Error::Partitioned { .. } | Error::Crashed(_) | Error::DiskOffline
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::VolumeId;

    #[test]
    fn retryable_classification() {
        assert!(Error::InTransit(Pid::new(SiteId(1), 1)).is_retryable());
        assert!(Error::WouldBlock {
            fid: Fid::new(VolumeId(0), 1),
            range: ByteRange::new(0, 1)
        }
        .is_retryable());
        assert!(!Error::VolumeFull.is_retryable());
    }

    #[test]
    fn failure_classification() {
        assert!(Error::SiteDown(SiteId(2)).is_failure());
        assert!(Error::Partitioned {
            from: SiteId(1),
            to: SiteId(2)
        }
        .is_failure());
        assert!(!Error::NotInTransaction.is_failure());
    }

    #[test]
    fn display_is_informative() {
        let e = Error::TxnAborted(TransId::new(SiteId(1), 7));
        assert_eq!(e.to_string(), "txn1.7 aborted");
    }
}
