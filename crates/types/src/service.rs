//! The per-subsystem service taxonomy for kernel-to-kernel RPC.
//!
//! Every message on the wire belongs to exactly one service; the transport
//! tags traces and counters with it so the Figure 5/6 message bins can be
//! decomposed per subsystem. This lives in `locus-types` (not `locus-net`)
//! so the simulation substrate can carry it in events without depending on
//! the network crate.

use std::fmt;

/// The subsystem a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Service {
    /// Filesystem data plane: open/close/read/write/prefetch, single-file
    /// commit and abort.
    File,
    /// Record locking: lock/unlock requests, grant pushes.
    Lock,
    /// Process machinery: migration, file-list merging, member tracking.
    Proc,
    /// Two-phase-commit control plane: prepare/commit/abort, status inquiry.
    Txn,
    /// Primary-site replication pushes.
    Replica,
    /// Protocol plumbing: batches, bare acks, and error responses.
    Control,
}

impl Service {
    /// All services, in display order. Used by reporting code to iterate the
    /// per-service counter columns.
    pub const ALL: [Service; 6] = [
        Service::File,
        Service::Lock,
        Service::Proc,
        Service::Txn,
        Service::Replica,
        Service::Control,
    ];

    /// Stable lowercase name (column header / trace tag).
    pub fn name(self) -> &'static str {
        match self {
            Service::File => "file",
            Service::Lock => "lock",
            Service::Proc => "proc",
            Service::Txn => "txn",
            Service::Replica => "replica",
            Service::Control => "control",
        }
    }

    /// Dense index into per-service counter arrays.
    pub fn index(self) -> usize {
        match self {
            Service::File => 0,
            Service::Lock => 1,
            Service::Proc => 2,
            Service::Txn => 3,
            Service::Replica => 4,
            Service::Control => 5,
        }
    }
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_dense_and_unique() {
        for (i, s) in Service::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Service::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Service::ALL.len());
    }
}
