//! The runnable edge of the reproduction: four binaries, no library code.
//!
//! | binary          | what it does |
//! |-----------------|--------------|
//! | `locus-repro`   | prints the paper's tables and figures, one by name or all in paper order (`locus-repro no_such` lists them; DESIGN.md §4 is the index) |
//! | `locus-chaos`   | seeded fault-injection runs under the chaos oracles |
//! | `locus-recover` | crash-point torture of the commit and recovery paths |
//! | `locus-mc`      | exhaustive model check of two-phase commit |
//!
//! Wall-clock and per-layer measurement lives in `benchmark/`, a package of
//! its own (see its README).
