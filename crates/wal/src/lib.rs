//! The log side of the paper's Section 6 argument, and the log the
//! shadow-page side itself keeps.
//!
//! Section 6 opens: "Logging mechanisms are generally viewed as superior to
//! intentions list strategies ... However, some investigators have indicated
//! that the methods are competitive."
//!
//! * [`model`] — the Weinstein '85 *operation-counting* analysis the paper
//!   itself uses to weigh that sentence: closed-form I/O counts per
//!   transaction for shadow paging vs. commit logging over record size and
//!   placement, printed by `locus-repro tbl_shadow_vs_log` to locate the
//!   crossovers.
//! * [`journal::Journal`] — the shadow-page side's own log layer: the
//!   per-volume append-only **commit journal** with group commit that backs
//!   the coordinator and prepare logs of Section 4.2/4.4.

pub mod journal;
pub mod model;

pub use journal::Journal;
pub use model::{CommitCost, TxnProfile};
