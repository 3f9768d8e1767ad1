//! Lock modes and the Figure 1 compatibility matrix.
//!
//! Locus distinguishes three *holding* modes — implicit Unix access, shared
//! (read) locks, and exclusive (read/write) locks — and two *classes* of lock
//! holder: transaction locks (subject to two-phase locking) and
//! non-transaction locks (same compatibility rules, but two-phase locking is
//! not enforced; Section 3.4).

use std::fmt;

/// The mode in which a range of bytes is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Implicit, conventional Unix access with no lock held. Unix processes
    /// that have not issued lock requests fall in this row/column of
    /// Figure 1.
    Unix,
    /// Shared (read) lock.
    Shared,
    /// Exclusive (read/write) lock.
    Exclusive,
}

impl LockMode {
    /// All modes, in Figure 1 order.
    pub const ALL: [LockMode; 3] = [LockMode::Unix, LockMode::Shared, LockMode::Exclusive];

    /// Figure 1: what access does a requester in mode `self` retain when a
    /// range is concurrently held in mode `other`?
    ///
    /// ```text
    ///            | Unix | Shared | Exclusive
    ///  Unix      | r/w  | read   | no
    ///  Shared    | read | read   | no
    ///  Exclusive | no   | no     | no
    /// ```
    pub fn allowed_access(self, other: LockMode) -> AccessKind {
        use AccessKind::*;
        use LockMode::*;
        match (self, other) {
            (Unix, Unix) => ReadWrite,
            (Unix, Shared) | (Shared, Unix) | (Shared, Shared) => ReadOnly,
            (Exclusive, _) | (_, Exclusive) => None,
        }
    }

    /// Whether a *lock request* in mode `self` can be granted while a
    /// conflicting-range lock in mode `other` is held by a different owner.
    ///
    /// Exclusive conflicts with everything; Shared is compatible with Shared
    /// and with plain Unix access.
    pub fn compatible(self, other: LockMode) -> bool {
        self.allowed_access(other) != AccessKind::None
    }

    /// Whether this mode permits the given kind of data access by its holder.
    pub fn permits(self, access: AccessKind) -> bool {
        match self {
            // A Unix "holder" is just an unlocked accessor; on its own it may
            // read and write.
            LockMode::Unix => true,
            LockMode::Shared => access != AccessKind::ReadWrite,
            LockMode::Exclusive => true,
        }
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockMode::Unix => "unix",
            LockMode::Shared => "shared",
            LockMode::Exclusive => "exclusive",
        };
        f.write_str(s)
    }
}

/// What data access survives a pairing of holders (the *cells* of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Figure 1 cell "r/w".
    ReadWrite,
    /// Figure 1 cell "read".
    ReadOnly,
    /// Figure 1 cell "no".
    None,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::ReadWrite => "r/w",
            AccessKind::ReadOnly => "read",
            AccessKind::None => "no",
        };
        f.write_str(s)
    }
}

/// Which locking discipline governs a lock (Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockClass {
    /// Acquired by a process inside a transaction: two-phase locking is
    /// enforced, the lock is retained until commit or abort.
    Transaction,
    /// A *non-transaction lock*: obeys the Figure 1 rules but escapes
    /// two-phase locking — the first sanctioned way to selectively violate
    /// serializability.
    NonTransaction,
}

/// A lock *request* as issued through the `Lock(file, length, mode)` system
/// call (Section 3.2): shared, exclusive, or unlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockRequestMode {
    Shared,
    Exclusive,
    Unlock,
}

impl LockRequestMode {
    /// The holding mode a granted request produces, if any.
    pub fn as_mode(self) -> Option<LockMode> {
        match self {
            LockRequestMode::Shared => Some(LockMode::Shared),
            LockRequestMode::Exclusive => Some(LockMode::Exclusive),
            LockRequestMode::Unlock => None,
        }
    }
}

/// Renders the Figure 1 matrix exactly as the paper prints it. Used by the
/// `fig1_compat` binary and golden-tested below.
pub fn figure1_table() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<11}|{:^7}|{:^8}|{:^11}\n",
        "", "Unix", "Shared", "Exclusive"
    ));
    out.push_str(&format!("{:-<11}+{:-<7}+{:-<8}+{:-<11}\n", "", "", "", ""));
    for row in LockMode::ALL {
        let cells: Vec<String> = LockMode::ALL
            .iter()
            .map(|col| row.allowed_access(*col).to_string())
            .collect();
        out.push_str(&format!(
            "{:<11}|{:^7}|{:^8}|{:^11}\n",
            format!("{row}"),
            cells[0],
            cells[1],
            cells[2]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_matrix_is_exact() {
        use AccessKind::*;
        let expect = [
            // Rows: Unix, Shared, Exclusive; cols the same.
            [ReadWrite, ReadOnly, None],
            [ReadOnly, ReadOnly, None],
            [None, None, None],
        ];
        for (i, a) in LockMode::ALL.iter().enumerate() {
            for (j, b) in LockMode::ALL.iter().enumerate() {
                assert_eq!(a.allowed_access(*b), expect[i][j], "({a}, {b})");
            }
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                assert_eq!(a.allowed_access(b), b.allowed_access(a));
            }
        }
    }

    #[test]
    fn exclusive_conflicts_with_everything() {
        for m in LockMode::ALL {
            assert!(!LockMode::Exclusive.compatible(m));
            assert!(!m.compatible(LockMode::Exclusive));
        }
    }

    #[test]
    fn shared_allows_concurrent_readers() {
        assert!(LockMode::Shared.compatible(LockMode::Shared));
        assert!(LockMode::Shared.compatible(LockMode::Unix));
        assert!(LockMode::Shared.permits(AccessKind::ReadOnly));
        assert!(!LockMode::Shared.permits(AccessKind::ReadWrite));
    }

    #[test]
    fn request_mode_mapping() {
        assert_eq!(LockRequestMode::Shared.as_mode(), Some(LockMode::Shared));
        assert_eq!(
            LockRequestMode::Exclusive.as_mode(),
            Some(LockMode::Exclusive)
        );
        assert_eq!(LockRequestMode::Unlock.as_mode(), None);
    }

    #[test]
    fn figure1_rendering_matches_paper_cells() {
        let t = figure1_table();
        assert!(t.contains("r/w"));
        // One "r/w", three "read", five "no" cells.
        assert_eq!(t.matches("r/w").count(), 1);
        assert_eq!(t.matches("read").count(), 3);
        assert_eq!(t.matches("no").count(), 5);
    }
}
