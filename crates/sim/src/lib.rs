//! Simulation substrate: virtual time, the calibrated cost model, per-activity
//! accounting, global metrics counters, a protocol event trace, and a
//! deterministic RNG.
//!
//! # Why accounting instead of wall-clock measurement
//!
//! The paper's evaluation (Section 6) was run on VAX 11/750s over a 10 Mb
//! Ethernet; the numbers it reports are decompositions into instructions
//! executed, network round trips, and disk I/Os. We reproduce those tables by
//! *charging* every simulated operation against a [`CostModel`] calibrated to
//! the paper's constants and accumulating virtual time on a per-activity
//! [`Account`]. This makes the reproduced tables exact and deterministic,
//! while `benchmark/` separately measures the real CPU cost of our
//! implementation.

pub mod account;
pub mod cost;
pub mod metrics;
pub mod rng;
pub mod time;
pub mod trace;

pub use account::Account;
pub use cost::CostModel;
pub use metrics::{
    Counters, CountersSnapshot, Histogram, HistogramSnapshot, PhaseSpanSnapshot, SpanPhase,
    SpanRegistry, SpanRegistrySnapshot, VirtSpan, HIST_BUCKETS,
};
pub use rng::DetRng;
pub use time::SimDuration;
pub use trace::{Event, EventLog};
