//! Common identifiers, byte ranges, lock modes, errors, and wire-visible
//! structures shared by every Locus subsystem.
//!
//! This crate has no dependencies so that every other crate in
//! the workspace — the simulated disk, the filesystem, the lock manager, the
//! kernel, and the transaction facility — can share one vocabulary without
//! import cycles.
//!
//! The lock-mode compatibility rules in [`lockmode`] are a direct transcription
//! of Figure 1 of the paper ("Transaction Synchronization Rules").

pub mod codec;
pub mod error;
pub mod id;
pub mod journal;
pub mod lockmode;
pub mod pagedata;
pub mod proto;
pub mod range;
pub mod service;

pub use error::{Error, Result};
pub use id::{Channel, Fid, InodeNo, PageNo, PhysPage, Pid, SiteId, TransId, VolumeId};
pub use journal::{CoordLogRecord, JournalEntry, JournalKey, JournalOp, PrepareLogRecord};
pub use lockmode::{AccessKind, LockClass, LockMode, LockRequestMode};
pub use pagedata::PageData;
pub use proto::{
    FileListEntry, GrantPage, IntentionsEntry, IntentionsList, LockDescriptor, Owner, TxnStatus,
};
pub use range::ByteRange;
pub use service::Service;

/// Default page size, in bytes.
///
/// The paper's measurements use 1 KB pages (Section 6.3, footnote 11: "In
/// these measurements, 1k byte pages were used"). The cost model exposes a
/// knob to evaluate 4 KB pages as the footnote discusses.
pub const PAGE_SIZE: usize = 1024;
