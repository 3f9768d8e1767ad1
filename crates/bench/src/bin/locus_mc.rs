//! The model-check driver: exhaustive small-scope exploration of the
//! sans-IO 2PC machines.
//!
//! ```text
//! locus-mc --sites 2 --txns 1                  # small scope, full report
//! locus-mc --sites 2 --txns 2 --rollbacks 0    # bigger scope, one fault budget zeroed
//! locus-mc --sites 2 --txns 1 --remote-only   # files everywhere but site 0
//! locus-mc --sites 2 --txns 1 --fault skip-refused-check
//!     # bug reintroduction: expects a counterexample, exits 3 if none found
//! ```
//!
//! Exits 0 on a clean exhaustive exploration, 1 on an invariant violation
//! (the shortest counterexample trace goes to stdout and, with
//! `--artifacts DIR`, to a file CI can upload), 2 on usage errors, and 3
//! if a `--fault` run — which *expects* the checker to catch the
//! reintroduced bug — finds nothing.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use locus_harness::mc::{check, McConfig};

struct Args {
    cfg: McConfig,
    fault: Option<String>,
    artifacts: Option<PathBuf>,
    allow_truncation: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("locus-mc: {err}");
    eprintln!(
        "usage: locus-mc [--sites N] [--txns N] [--remote-only] [--crashes N] \
         [--drops N] [--dups N] [--rollbacks N] [--max-states N] \
         [--allow-truncation] \
         [--fault skip-refused-check|skip-epoch-check|skip-delegate-record|\
         forget-before-all-installed|skip-peer-inquiry] \
         [--artifacts DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        cfg: McConfig::new(2, 1),
        fault: None,
        artifacts: None,
        allow_truncation: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--sites" => {
                args.cfg.sites = value("--sites")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --sites"));
            }
            "--txns" => {
                args.cfg.txns = value("--txns")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --txns"));
            }
            "--crashes" => {
                args.cfg.crashes = value("--crashes")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --crashes"));
            }
            "--drops" => {
                args.cfg.drops = value("--drops")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --drops"));
            }
            "--dups" => {
                args.cfg.dups = value("--dups")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --dups"));
            }
            "--rollbacks" => {
                args.cfg.rollbacks = value("--rollbacks")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --rollbacks"));
            }
            "--max-states" => {
                args.cfg.max_states = value("--max-states")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --max-states"));
            }
            "--fault" => {
                let v = value("--fault");
                match v.as_str() {
                    "skip-refused-check" => args.cfg.faults.skip_refused_check = true,
                    "skip-epoch-check" => args.cfg.faults.skip_epoch_check = true,
                    "skip-delegate-record" => args.cfg.faults.skip_delegate_record = true,
                    "forget-before-all-installed" => {
                        args.cfg.faults.forget_before_all_installed = true
                    }
                    "skip-peer-inquiry" => args.cfg.faults.skip_peer_inquiry = true,
                    _ => usage(
                        "bad --fault (skip-refused-check|skip-epoch-check|skip-delegate-record|\
                         forget-before-all-installed|skip-peer-inquiry)",
                    ),
                }
                args.fault = Some(v);
            }
            "--remote-only" => args.cfg.remote_only = true,
            "--allow-truncation" => args.allow_truncation = true,
            "--artifacts" => args.artifacts = Some(PathBuf::from(value("--artifacts"))),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.cfg.sites < 1 {
        usage("--sites must be at least 1");
    }
    if args.cfg.remote_only && args.cfg.sites < 2 {
        usage("--remote-only needs --sites 2 or more");
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let cfg = args.cfg;
    println!(
        "locus-mc: sites={} txns={}{} crashes={} drops={} dups={} rollbacks={}{}",
        cfg.sites,
        cfg.txns,
        if cfg.remote_only { " remote-only" } else { "" },
        cfg.crashes,
        cfg.drops,
        cfg.dups,
        cfg.rollbacks,
        args.fault
            .as_deref()
            .map(|f| format!(" fault={f}"))
            .unwrap_or_default(),
    );
    let start = Instant::now();
    let report = check(&cfg);
    let secs = start.elapsed().as_secs_f64();
    println!(
        "explored {} states ({} distinct) in {:.1}s, {} effect kinds exercised, complete={}",
        report.explored,
        report.distinct_states,
        secs,
        report.effects_seen.len(),
        report.complete,
    );
    println!(
        "effects: {}",
        report
            .effects_seen
            .iter()
            .copied()
            .collect::<Vec<_>>()
            .join(" ")
    );

    match (&report.violation, args.fault.is_some()) {
        (Some(v), expected) => {
            let mut text = format!(
                "invariant violated: {}\ncounterexample ({} steps):\n",
                v.invariant,
                v.trace.len()
            );
            for (i, step) in v.trace.iter().enumerate() {
                text.push_str(&format!("  {:2}. {step}\n", i + 1));
            }
            print!("{text}");
            if let Some(dir) = &args.artifacts {
                let _ = fs::create_dir_all(dir);
                let path = dir.join("mc-counterexample.txt");
                if fs::write(&path, &text).is_ok() {
                    println!("counterexample written to {}", path.display());
                }
            }
            if expected {
                println!("fault run: checker caught the reintroduced bug, as required");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (None, true) => {
            println!("fault run found NO counterexample: the checker lost its teeth");
            ExitCode::from(3)
        }
        (None, false) => {
            if !report.complete {
                if args.allow_truncation {
                    println!(
                        "exploration truncated by --max-states with no violation \
                         (bounded run; pass without --allow-truncation to require \
                         exhaustion)"
                    );
                    return ExitCode::SUCCESS;
                }
                println!("exploration truncated by --max-states; scope NOT exhausted");
                return ExitCode::FAILURE;
            }
            println!("no violations: scope exhausted");
            ExitCode::SUCCESS
        }
    }
}
