//! The per-site Locus kernel: system calls, storage-site request handling,
//! the distributed namespace, and replication with a primary update site.
//!
//! The kernel is the *data plane*: it tags every file modification with its
//! synchronization [`locus_types::Owner`] (the enclosing transaction, or the
//! process itself), enforces record locks on access (Figure 1), and performs
//! implicit two-phase locking for transaction processes. The transaction
//! *control plane* — `BeginTrans`/`EndTrans`/`AbortTrans`, two-phase commit,
//! and recovery — lives in `locus-core` and drives the kernel through the
//! public surface here.

pub mod catalog;
pub mod kernel;
pub mod pagecache;
mod releases;
pub mod services;

pub use catalog::{Catalog, FileLoc};
pub use kernel::Kernel;
pub use pagecache::PageCache;
pub use services::{LockOpts, TxnService};

#[cfg(test)]
mod tests;
