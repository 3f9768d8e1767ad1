//! The crash-recovery torture driver: enumerate every commit-path crash
//! point and prove no acknowledged write is ever lost.
//!
//! ```text
//! locus-recover --seed 1                  # full campaign for one seed
//! locus-recover --seeds 1..4              # inclusive seed range
//! locus-recover --seed 1 --quick          # one point per (site, class)
//! ```
//!
//! Each campaign records a clean run of the seed's workload, classifies the
//! durable-mutation stream of every site's home volume (shadow block
//! writes, prepare-log appends, coordinator-log records, the commit record,
//! inode installs, journal flushes that release a dead prefix), then replays
//! the same seed once per crash point with the disk armed to die at exactly
//! that mutation —
//! cleanly, torn mid-page, or losing unbarriered buffered writes. The site
//! is crashed when the point fires, recovered in the epilogue, and the
//! durability ledger asserts every acked committed write survived. Exits
//! nonzero on any loss, any point that failed to fire, or a campaign that
//! armed no reclaiming flush (space reclamation rides the commit path's own
//! flushes; a run that never crash-tests one has stopped covering it).

use std::process::ExitCode;

use locus_harness::chaos::torture::{run_campaign, CrashClass};
use locus_harness::chaos::ChaosConfig;
use locus_sim::CostModel;

struct Args {
    seeds: Vec<u64>,
    quick: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("locus-recover: {err}");
    eprintln!("usage: locus-recover [--seed N | --seeds A..B] [--quick]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: Vec::new(),
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--seed" => {
                let v = value("--seed");
                args.seeds
                    .push(v.parse().unwrap_or_else(|_| usage("bad --seed")));
            }
            "--seeds" => {
                let v = value("--seeds");
                let (a, b) = v
                    .split_once("..")
                    .unwrap_or_else(|| usage("--seeds wants A..B (inclusive)"));
                let (a, b): (u64, u64) = match (a.parse(), b.parse()) {
                    (Ok(a), Ok(b)) if a <= b => (a, b),
                    _ => usage("bad --seeds range"),
                };
                args.seeds.extend(a..=b);
            }
            "--quick" => args.quick = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if args.seeds.is_empty() {
        usage("nothing to run: give --seed or --seeds");
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let page_size = CostModel::default().page_size;
    let mut failures = 0usize;
    for &seed in &args.seeds {
        let report = run_campaign(&ChaosConfig::with_seed(seed), args.quick, page_size);
        print!("{report}");
        let reclaims = report.armed(CrashClass::JournalReclaim);
        if reclaims == 0 {
            println!("  FAIL no reclaiming journal flush was armed as a crash point");
        }
        if !report.ok() || reclaims == 0 {
            failures += 1;
        }
    }
    println!("{} campaign(s), {failures} failed", args.seeds.len());
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
