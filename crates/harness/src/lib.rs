//! Experiment harness: cluster construction, process drivers, fault
//! injection, and the experiments and table printers behind every figure and
//! table reproduction.
//!
//! Two ways to run programs against a [`Cluster`]:
//!
//! * [`script::Driver`] — deterministic: each simulated process is a list of
//!   [`script::Op`]s; the driver interleaves them under a seeded schedule,
//!   suspending processes on queued locks and `EndTrans`-waiting-for-children
//!   and resuming them on kernel wakeups. Used by integration tests and the
//!   experiment binaries.
//! * [`threaded::ThreadCtx`] — real concurrency: each process is an OS
//!   thread issuing blocking system calls (parked on the kernel's wakeup
//!   condition variable). Used by the stress tests and examples to show the
//!   kernels are genuinely thread-safe.

pub mod chaos;
pub mod cluster;
pub mod experiments;
pub mod mc;
pub mod report;
pub mod script;
pub mod table;
pub mod threaded;

pub use cluster::Cluster;
pub use script::{Driver, FailureReport, Op, OpResult, RunOutcome};
pub use threaded::ThreadCtx;
