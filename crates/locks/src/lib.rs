//! Distributed record-level locking (Sections 3 and 5 of the paper).
//!
//! A [`LockManager`] lives at each site and holds the lock lists for the
//! files *stored* at that site (locking is processed at the file's storage
//! site, Section 5.1). Byte-range locks come in shared and exclusive modes,
//! in two classes — transaction locks (two-phase, retained until commit or
//! abort) and non-transaction locks (same compatibility rules, no two-phase
//! enforcement, Section 3.4) — and are *enforced*: reads and writes are
//! validated against the lock list (Figure 1).
//!
//! Requesting sites keep a [`LockCache`] of granted ranges so that each read and
//! write can be validated locally without a network message (Section 5.1:
//! "it caches this response in its local lock list").

pub mod cache;
pub mod lock_list;
pub mod manager;

pub use cache::LockCache;
pub use lock_list::{EntryList, FileLocks, LockEntry, LockOutcome, LockRequest};
pub use manager::{GrantedWaiter, LockManager, LockTableSnapshot, WaitEdge};
