//! `locus-repro [name]` — regenerates the paper's evaluation, the one-shot
//! target behind EXPERIMENTS.md.
//!
//! ```text
//! locus-repro            # every artifact below, in paper order
//! locus-repro fig5_txn_io  # one artifact
//! ```
//!
//! Everything printed is measured on the virtual clock and is byte-identical
//! run to run. An unknown name prints the list and exits 2.

use locus_harness::experiments as exp;
use locus_harness::report::decomposition_table;
use locus_harness::table::Table;
use locus_sim::CostModel;
use locus_wal::model::{sweep, wal_cost, SweepRow};

/// Name on the command line, what it reproduces, the function that renders it.
type Artifact = (&'static str, &'static str, fn() -> String);

/// One row per artifact, in paper order.
const ARTIFACTS: &[Artifact] = &[
    (
        "fig1_compat",
        "Figure 1: synchronization rules matrix",
        exp::fig1_compatibility,
    ),
    ("fig3_locklist", "Figure 3: a live lock list", || {
        exp::fig3_lock_list(model())
    }),
    (
        "fig4_record_commit",
        "Figure 4: direct vs differencing record commit",
        || exp::fig4_record_commit(model()).render(),
    ),
    (
        "fig5_txn_io",
        "Figure 5: transaction I/O overhead, steady state, multi-page / multi-volume / footnote 9",
        fig5_txn_io,
    ),
    (
        "tbl_lock_latency",
        "Section 6.2: local vs remote locking",
        || exp::lock_latency(model()).render() + "\n",
    ),
    (
        "fig6_commit_perf",
        "Figure 6: measured commit performance, plus footnote 11's 4 KB pages",
        fig6_commit_perf,
    ),
    (
        "tbl_shadow_vs_log",
        "Section 6 analysis: shadow paging vs logging, by operation counting",
        tbl_shadow_vs_log,
    ),
    (
        "ablation_prefetch",
        "Section 5.2: prefetch-on-lock ablation",
        || exp::prefetch_ablation(model()).render() + "\n",
    ),
    (
        "e2e_throughput",
        "End-to-end simple transaction, local and remote storage site (modeled)",
        e2e_throughput,
    ),
    (
        "rpc_breakdown",
        "Per-service network messages, by workload phase and by kind",
        || exp::service_breakdown(model()).render() + "\n",
    ),
    (
        "latency_decomposition",
        "Figure-6-style per-phase latency decomposition of the canonical workload",
        latency_decomposition,
    ),
];

fn model() -> CostModel {
    CostModel::default()
}

fn fig5_txn_io() -> String {
    let fig5 = |m: CostModel, files, pages| exp::fig5_txn_io(m, files, pages).render();
    let mut steady = exp::fig5_steady_state(model(), 100);
    let txns = steady.len();
    steady.dedup();
    format!(
        "{}\nsteady state: {txns} consecutive such transactions, (sequential, random) I/Os of \
         each: {steady:?}\n\n{}\n{}\n-- footnote 9: the 1985 prototype's double log writes --\n{}\n",
        fig5(model(), 1, 1),
        fig5(model(), 1, 4),
        fig5(model(), 3, 1),
        fig5(CostModel::paper_1985(), 1, 1)
    )
}

fn fig6_commit_perf() -> String {
    let big_pages = CostModel {
        page_size: 4096,
        ..model()
    };
    format!(
        "{}\n-- footnote 11: 4 KB pages --\n{}\n",
        exp::fig6_commit_performance(model()).render(),
        exp::fig6_commit_performance(big_pages).render()
    )
}

/// The Weinstein '85 operation-counting sweep over record size × placement.
/// The paper's claim: "the relative performance ... is highly dependent on
/// the nature of the access strings", and "for many combinations of record
/// size and placement, implementations of shadow paging can provide
/// comparable performance". The `competitive?` column marks those regimes.
fn tbl_shadow_vs_log() -> String {
    let model = model();
    let rows = sweep(8, 1, &model);
    let mut t = Table::new("Section 6: shadow paging vs commit log — 8-record transaction, 1 file")
        .header([
            "record B",
            "rec/page",
            "shadow sync I/O",
            "wal sync I/O",
            "sync ratio",
            "total ratio",
            "competitive?",
        ]);
    let competitive = |row: &SweepRow| row.total_ratio(&model) <= 1.25;
    for row in &rows {
        t.row([
            row.profile.record_size.to_string(),
            row.profile.records_per_page.to_string(),
            row.shadow.sync_ios().to_string(),
            row.wal.sync_ios().to_string(),
            format!("{:.2}x", row.sync_ratio(&model)),
            format!("{:.2}x", row.total_ratio(&model)),
            if competitive(row) { "yes" } else { "log wins" }.to_string(),
        ]);
    }
    // The log force of one clustered large-record profile, spelled out.
    let p = locus_wal::TxnProfile {
        records: 4,
        record_size: 1024,
        records_per_page: 1,
        files: 1,
    };
    format!(
        "{}\n{}/{} profiles have shadow paging within 25% of logging on total cost\n\
         (the paper: \"for many combinations of record size and placement, \
         implementations of shadow paging can provide comparable performance\")\n\
         \ncross-check, 4×1KB records: analytic WAL log force = {} seq I/Os\n",
        t.render(),
        rows.iter().filter(|r| competitive(r)).count(),
        rows.len(),
        wal_cost(&p, &model).seq_writes
    )
}

fn e2e_throughput() -> String {
    format!(
        "== End-to-end simple transaction (modeled) ==\n\
         local storage site:  {} per transaction\n\
         remote storage site: {} per transaction\n",
        exp::txn_throughput(model(), 8, false),
        exp::txn_throughput(model(), 8, true)
    )
}

/// The canonical mixed workload (local commits, distributed commits, lock
/// handoff), measured on the virtual clock.
fn latency_decomposition() -> String {
    decomposition_table(
        "Latency decomposition (canonical workload, virtual clock)",
        &exp::decomposition_workload(model()),
    ) + "\n"
}

fn usage() -> String {
    let mut out = String::from("usage: locus-repro [name]\n\nartifacts, in paper order:\n");
    for (name, what, _) in ARTIFACTS {
        out += &format!("  {name:<24} {what}\n");
    }
    out
}

/// What a run with these arguments prints, or the usage text for a bad one.
fn run(args: &[String]) -> Result<String, String> {
    match args {
        [] => Ok(ARTIFACTS.iter().map(|(_, _, render)| render()).collect()),
        [name] => ARTIFACTS
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, _, render)| render())
            .ok_or_else(usage),
        _ => Err(usage()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => print!("{out}"),
        Err(usage) => {
            eprint!("{usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_is_named_once_and_the_bare_run_prints_them_in_order() {
        let mut names: Vec<&str> = ARTIFACTS.iter().map(|(n, ..)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ARTIFACTS.len(), "duplicate artifact name");

        let mut all = String::new();
        for (name, ..) in ARTIFACTS {
            let one = run(&[name.to_string()]).expect("a table name is a valid argument");
            assert!(!one.trim().is_empty(), "{name} printed nothing");
            all += &one;
        }
        assert_eq!(run(&[]).unwrap(), all);
        assert_eq!(run(&["no_such_artifact".to_string()]), Err(usage()));
    }
}
