//! User-level deadlock detection.
//!
//! "The Locus kernel does not detect deadlock. Instead, an interface to
//! operating system data is provided, permitting a system process to detect
//! deadlock by constructing a wait-for graph, using conventional techniques.
//! In this manner, a variety of deadlock resolution and redo strategies may
//! be implemented." (Section 3.1.)
//!
//! This crate is that system process: it gathers each site's
//! `locus_locks::LockTableSnapshot`, assembles the global wait-for graph,
//! finds cycles by depth-first search, picks victims under a pluggable
//! policy, and aborts them through the transaction facility.

pub mod detector;
pub mod graph;
pub mod probe;

pub use detector::{DeadlockDetector, ResolvedDeadlock, VictimPolicy};
pub use graph::WaitForGraph;
pub use probe::{Probe, ProbeDetector};
