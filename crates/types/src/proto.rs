//! Wire-visible structures: record/transaction ownership, intentions lists,
//! lock descriptors, file lists, and transaction status markers.
//!
//! These are defined here (rather than in the filesystem or lock crates) so
//! that the network message enum can carry them without creating dependency
//! cycles.

use std::fmt;

use crate::id::{Fid, PageNo, PhysPage, Pid, SiteId, TransId};
use crate::lockmode::{LockClass, LockMode};
use crate::pagedata::PageData;
use crate::range::ByteRange;

/// Who owns an uncommitted modification or a lock: a transaction (all of its
/// member processes act as one owner for synchronization, Section 3.1) or a
/// single non-transaction process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Owner {
    Trans(TransId),
    Proc(Pid),
}

impl Owner {
    pub fn trans_id(&self) -> Option<TransId> {
        match self {
            Owner::Trans(t) => Some(*t),
            Owner::Proc(_) => None,
        }
    }

    pub fn is_transaction(&self) -> bool {
        matches!(self, Owner::Trans(_))
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Owner::Trans(t) => write!(f, "{t}"),
            Owner::Proc(p) => write!(f, "{p}"),
        }
    }
}

/// One entry of an intentions list: logical page `page` of the file is to be
/// re-pointed at physical block `new_phys` when the list is committed.
///
/// `old_phys`, `old_vers` and `ranges` implement Figure 4b's commit
/// differencing across the prepare/commit gap: the shadow image was merged
/// against `old_phys` at prepare time, so if another owner commits the page
/// in between, the installer must re-read the *current* stable page and
/// transfer only `ranges` onto it — installing the stale image wholesale
/// would silently undo the interleaved commit. Staleness is judged by
/// `old_vers`, the inode's per-page install counter, not by the block
/// number alone: freed blocks are recycled, so a long-pending prepare (an
/// in-doubt transaction across a coordinator crash) can find the inode
/// pointing at a *reallocated* block with its old number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentionsEntry {
    pub page: PageNo,
    pub new_phys: PhysPage,
    /// Stable block the page occupied when the shadow image was built
    /// (`None`: the page did not exist yet).
    pub old_phys: Option<PhysPage>,
    /// The page's inode install counter when the shadow image was built;
    /// any later install of the page bumps it, so a mismatch at install
    /// time means the image is stale and `ranges` must be re-merged.
    pub old_vers: u64,
    /// Page-relative byte ranges the committing owner actually wrote. Empty
    /// means the shadow image is authoritative for the whole page (replica
    /// pushes of committed content).
    pub ranges: Vec<ByteRange>,
}

impl IntentionsEntry {
    /// A whole-page entry: the shadow image replaces the page outright.
    pub fn whole(page: PageNo, new_phys: PhysPage) -> Self {
        IntentionsEntry {
            page,
            new_phys,
            old_phys: None,
            old_vers: 0,
            ranges: Vec::new(),
        }
    }
}

/// An intentions list for a single file (Section 4): "The list consists of a
/// set of page pointers for the file". Committing the list atomically
/// overwrites the inode with the new pointers and frees the old pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentionsList {
    pub fid: Fid,
    pub entries: Vec<IntentionsEntry>,
    /// New file length after commit (append-mode extensions grow the file).
    pub new_len: u64,
}

impl IntentionsList {
    pub fn new(fid: Fid, new_len: u64) -> Self {
        IntentionsList {
            fid,
            entries: Vec::new(),
            new_len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Physical pages named by the list (the shadow pages that become live on
    /// commit).
    pub fn new_pages(&self) -> impl Iterator<Item = PhysPage> + '_ {
        self.entries.iter().map(|e| e.new_phys)
    }
}

/// A lock descriptor as kept on the storage site's per-file lock list
/// (Figure 3): holder process, transaction membership, mode, class, byte
/// range, and whether the lock is *retained* (unlocked by the holder but kept
/// until transaction outcome, Section 3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockDescriptor {
    /// Process that most recently held/touched the lock.
    pub pid: Pid,
    /// Transaction the holder belongs to, if any.
    pub tid: Option<TransId>,
    pub mode: LockMode,
    pub class: LockClass,
    pub range: ByteRange,
    pub retained: bool,
}

impl LockDescriptor {
    /// The synchronization owner: the whole transaction when the lock is a
    /// transaction lock, the individual process otherwise.
    pub fn owner(&self) -> Owner {
        match self.tid {
            Some(t) if self.class == LockClass::Transaction => Owner::Trans(t),
            _ => Owner::Proc(self.pid),
        }
    }
}

/// One file used by a transaction, with its storage site — the unit of the
/// per-process *file-list* that is merged up to the top-level process and
/// drives two-phase commit (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileListEntry {
    pub fid: Fid,
    pub storage_site: SiteId,
    /// The storage site's boot epoch (incarnation number) observed when the
    /// transaction first used the file there. At prepare time the
    /// coordinator sends the smallest epoch it saw per site; a participant
    /// whose current epoch is higher rebooted mid-transaction — its volatile
    /// buffers (possibly holding acked writes) were lost, so it must vote
    /// no even if post-reboot activity re-established dirty state.
    pub epoch: u64,
}

/// One page of the window a shared grant ships (Section 5.2: the storage
/// site "prefetches the locked pages"), in window order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrantPage {
    /// The requester's held copy is this page as it stands: the storage site
    /// neither read nor shipped it.
    Current,
    /// The page's bytes within the window, its install version (`u64::MAX`
    /// when another owner's uncommitted bytes are on it: not cacheable), and
    /// whether it is *clean* — nobody's uncommitted bytes are on it, so the
    /// bytes are the committed image at that version.
    Shipped {
        vers: u64,
        clean: bool,
        data: PageData,
    },
}

/// Status marker in the coordinator log (Section 4.2): initially `Unknown`,
/// flipped to `Committed` at the commit point or `Aborted` on abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnStatus {
    Unknown,
    Committed,
    Aborted,
    /// A storage site's durable yes among the peers its record lists: the
    /// requester holds no file, and every peer's yes together is the commit
    /// point. Never a coordinator's start record, so a recovery scan need
    /// not guess whose record it found.
    Voted,
}

impl fmt::Display for TxnStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxnStatus::Unknown => "unknown",
            TxnStatus::Committed => "committed",
            TxnStatus::Aborted => "aborted",
            TxnStatus::Voted => "voted",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::VolumeId;

    fn fid() -> Fid {
        Fid::new(VolumeId(0), 3)
    }

    #[test]
    fn owner_of_transaction_lock_is_the_transaction() {
        let tid = TransId::new(SiteId(1), 9);
        let d = LockDescriptor {
            pid: Pid::new(SiteId(1), 4),
            tid: Some(tid),
            mode: LockMode::Exclusive,
            class: LockClass::Transaction,
            range: ByteRange::new(0, 10),
            retained: false,
        };
        assert_eq!(d.owner(), Owner::Trans(tid));
    }

    #[test]
    fn owner_of_non_transaction_lock_is_the_process() {
        // A non-transaction lock taken by a process that happens to be inside
        // a transaction (Section 3.4) is owned by the process, not the txn.
        let pid = Pid::new(SiteId(1), 4);
        let d = LockDescriptor {
            pid,
            tid: Some(TransId::new(SiteId(1), 9)),
            mode: LockMode::Shared,
            class: LockClass::NonTransaction,
            range: ByteRange::new(0, 10),
            retained: false,
        };
        assert_eq!(d.owner(), Owner::Proc(pid));
    }

    #[test]
    fn intentions_list_tracks_new_pages() {
        let mut il = IntentionsList::new(fid(), 2048);
        assert!(il.is_empty());
        il.entries
            .push(IntentionsEntry::whole(PageNo(0), PhysPage(17)));
        il.entries
            .push(IntentionsEntry::whole(PageNo(1), PhysPage(18)));
        let pages: Vec<_> = il.new_pages().collect();
        assert_eq!(pages, vec![PhysPage(17), PhysPage(18)]);
    }
}
