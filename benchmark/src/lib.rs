//! The benchmark for the Locus reproduction: four closed-loop workloads,
//! end-to-end metrics a user of the system would see, and single-layer
//! metrics for every crate underneath. See `benchmark/README.md`.

pub mod client;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod passes;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
