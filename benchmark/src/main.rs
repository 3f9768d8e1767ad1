//! Command line of the benchmark. See `benchmark/README.md`.
//!
//! ```text
//! locus-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! locus-benchmark                      # every workload, both passes
//! locus-benchmark --smoke              # the same in a few seconds
//! locus-benchmark compare BASE NEW     # the regression rule on two --out files
//! locus-benchmark spread FILE          # run-to-run spread of one --out file
//! locus-benchmark describe             # BENCHMARK.json, from the tables in the code
//! ```

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use locus_benchmark::compare;
use locus_benchmark::json::Json;
use locus_benchmark::metrics;
use locus_benchmark::run::{run_end_to_end, run_per_layer, RunArgs, RunResult, RUN_SECONDS};
use locus_benchmark::workloads::{
    CommitDist, CommitLocal, HotRecords, ReadShared, Workload, SPECS,
};

const SMOKE_SECONDS: f64 = 0.6;

fn workload_names() -> Vec<&'static str> {
    SPECS.iter().map(|s| s.name).collect()
}

fn usage(err: &str) -> ExitCode {
    eprintln!("locus-benchmark: {err}");
    eprintln!(
        "usage: locus-benchmark [--workload {}|all] [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out FILE]\n       locus-benchmark compare BASE NEW | spread FILE | describe",
        workload_names().join("|")
    );
    ExitCode::from(2)
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    /// `None`: both passes.
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds wants a number in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                })
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.workload != "all" && !workload_names().contains(&cli.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cli.workload));
    }
    Ok(cli)
}

fn run_one(workload: &str, args: &RunArgs) -> locus_types::Result<RunResult> {
    fn go<W: Workload>(args: &RunArgs) -> locus_types::Result<RunResult> {
        if args.trace {
            run_per_layer::<W>(args)
        } else {
            run_end_to_end::<W>(args)
        }
    }
    match workload {
        w if w == CommitLocal::SPEC.name => go::<CommitLocal>(args),
        w if w == CommitDist::SPEC.name => go::<CommitDist>(args),
        w if w == ReadShared::SPEC.name => go::<ReadShared>(args),
        w if w == HotRecords::SPEC.name => go::<HotRecords>(args),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn report(r: &RunResult, args: &RunArgs) {
    println!(
        "== {} ({} site(s), {} client(s)) seed {} trace {}{}",
        r.spec.name,
        r.spec.sites,
        r.spec.clients,
        args.seed,
        u8::from(args.trace),
        if args.smoke { " SMOKE" } else { "" }
    );
    println!("   {}", r.spec.why);
    for (d, v) in r.values.in_order_of(&r.defs) {
        println!("{:<34} {:>18.4} {}", d.name, v, d.unit);
    }
    for note in &r.notes {
        println!("   {note}");
    }
    println!(
        "   attempted {} failed {} correct {}",
        r.attempted, r.failed, r.correct
    );
}

fn append_record(
    path: &PathBuf,
    workload: &str,
    args: &RunArgs,
    r: &RunResult,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let rec = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("result", r.to_json()),
    ]);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", rec.render())
}

fn run(cli: Cli) -> ExitCode {
    let workloads: Vec<&str> = match cli.workload.as_str() {
        "all" => workload_names(),
        one => vec![one],
    };
    let passes = match cli.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut all_correct = true;
    for workload in workloads {
        for &trace in &passes {
            let args = RunArgs {
                seed: cli.seed,
                seconds: cli.seconds.unwrap_or(if cli.smoke {
                    SMOKE_SECONDS
                } else {
                    f64::from(RUN_SECONDS)
                }),
                trace,
                smoke: cli.smoke,
                trace_dir: PathBuf::from("benchmark/out"),
            };
            let result = match run_one(workload, &args) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("locus-benchmark: {workload} could not run: {e:?}");
                    return ExitCode::FAILURE;
                }
            };
            report(&result, &args);
            if let Some(path) = &cli.out {
                if let Err(e) = append_record(path, workload, &args, &result) {
                    eprintln!("locus-benchmark: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            // Last on standard output: the line the driver reads.
            println!("{}", result.to_json().render());
            all_correct &= result.correct;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("locus-benchmark: outputs were NOT correct");
        ExitCode::FAILURE
    }
}

fn compare_files(base: &str, new: &str) -> ExitCode {
    let read = |p: &str| {
        std::fs::read_to_string(p).map_err(|e| eprintln!("locus-benchmark: cannot read {p}: {e}"))
    };
    let (Ok(base), Ok(new)) = (read(base), read(new)) else {
        return ExitCode::from(2);
    };
    let rows = compare::compare(
        &metrics::end_to_end(),
        &compare::parse_results(&base),
        &compare::parse_results(&new),
    );
    if rows.is_empty() {
        eprintln!("locus-benchmark: the two files share no workload and end-to-end metric");
        return ExitCode::from(2);
    }
    print!("{}", compare::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} within, {} unresolved, {} regression",
        count(compare::Verdict::Within),
        count(compare::Verdict::Unresolved),
        count(compare::Verdict::Regression)
    );
    if count(compare::Verdict::Regression) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// How far each end-to-end metric's runs in one result file lie apart: the
/// distance between their quartiles as a share of their median, against the
/// metric's bound. The benchmark is steady enough when every spread is under
/// a third of its bound.
fn spread_of(path: &str) -> ExitCode {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("locus-benchmark: cannot read {path}");
        return ExitCode::from(2);
    };
    let samples = compare::parse_results(&text);
    let defs = metrics::end_to_end();
    let mut wide = 0;
    println!(
        "{:<13} {:<16} {:>4} {:>14} {:>8} {:>6}  steady",
        "workload", "metric", "runs", "median", "spread", "bound"
    );
    for ((workload, metric), values) in &samples {
        let Some(def) = defs.iter().find(|d| d.name == *metric) else {
            continue;
        };
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        let spread = locus_benchmark::stats::spread(values);
        let verdict = if spread * 3.0 <= bound {
            "yes"
        } else if spread <= bound {
            "within the bound, over a third of it"
        } else {
            wide += 1;
            "NO: wider than the bound"
        };
        println!(
            "{workload:<13} {metric:<16} {:>4} {:>14.4} {:>7.2}% {:>5.1}%  {verdict}",
            values.len(),
            locus_benchmark::stats::median(values),
            spread * 100.0,
            bound * 100.0
        );
    }
    if wide > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `BENCHMARK.json` as the tables in the code define it.
fn describe() {
    let lines = |items: Vec<Json>| {
        let body: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let metric = |d: &metrics::MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(d.name.clone())),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.name())),
        ];
        if let Some(b) = d.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    let workloads = SPECS
        .iter()
        .map(|s| {
            let why = s.why.split_whitespace().collect::<Vec<_>>().join(" ");
            Json::obj([("name", Json::str(s.name)), ("why", Json::str(why))])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    println!("{{");
    println!(
        "  \"command\": {},",
        Json::Arr(command.iter().map(|c| Json::str(*c)).collect()).render()
    );
    println!("  \"paths\": [\"benchmark\"],");
    println!("  \"run_seconds\": {RUN_SECONDS},");
    println!("  \"workloads\": {},", lines(workloads));
    println!(
        "  \"end_to_end\": {},",
        lines(metrics::end_to_end().iter().map(metric).collect())
    );
    println!(
        "  \"per_layer\": {}",
        lines(metrics::per_layer().iter().map(metric).collect())
    );
    println!("}}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [base, new] => compare_files(base, new),
            _ => usage("compare wants two result files"),
        },
        Some("spread") => match &args[1..] {
            [file] => spread_of(file),
            _ => usage("spread wants one result file"),
        },
        Some("describe") => {
            describe();
            ExitCode::SUCCESS
        }
        _ => match parse_cli(&args) {
            Ok(cli) => run(cli),
            Err(e) => usage(&e),
        },
    }
}
