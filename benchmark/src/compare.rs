//! `compare BASE NEW`: the regression rule, applied to two result files.
//!
//! A result file holds one JSON object per line, as `--out FILE` appends
//! them: `{"workload", "seed", "trace", "result": {...the driver's line...}}`.
//! For every workload and end-to-end metric both files measured, the medians
//! over each file's runs are compared against the metric's bound.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Better, MetricDef};
use crate::stats;

/// Values of one metric on one workload, one per run.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Collects `(workload, metric) -> values` from a result file's text. Lines
/// that are not result records (the human-readable report) are skipped.
pub fn parse_results(text: &str) -> Samples {
    let mut out = Samples::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let Ok(rec) = Json::parse(line) else { continue };
        let (Some(workload), Some(metrics)) = (
            rec.get("workload").and_then(Json::as_str),
            rec.get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Json::as_obj),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound, and both sides repeat within it.
    Within,
    /// Worse than the base by more than the bound.
    Regression,
    /// Not worse by more than the bound, but one side's own runs spread
    /// wider than the bound: "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: &'static str,
    pub base: f64,
    pub new: f64,
    pub base_spread: f64,
    pub new_spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// How much worse `new` is than `base`, as a share of `base`, in the
/// metric's own direction (negative = better).
pub fn worsening(def: &MetricDef, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

pub fn judge(def: &MetricDef, base: &[f64], new: &[f64]) -> (Verdict, f64, f64) {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let (b, n) = (stats::median(base), stats::median(new));
    let noisy = stats::spread(base).max(stats::spread(new));
    let verdict = if worsening(def, b, n) > bound {
        Verdict::Regression
    } else if noisy > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    (verdict, b, n)
}

/// One row per workload and end-to-end metric present in both files, in
/// workload then metric-table order.
pub fn compare(defs: &[MetricDef], base: &Samples, new: &Samples) -> Vec<Row> {
    let mut workloads: Vec<&String> = base.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        for def in defs {
            let key = (w.clone(), def.name.clone());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let (verdict, base_med, new_med) = judge(def, b, n);
            rows.push(Row {
                workload: w.clone(),
                metric: def.name.clone(),
                unit: def.unit,
                base: base_med,
                new: new_med,
                base_spread: stats::spread(b),
                new_spread: stats::spread(n),
                bound: def.bound.expect("end-to-end metrics carry a bound"),
                verdict,
            });
        }
    }
    rows
}

/// The table, every ratio with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  {}\n",
        "workload", "metric", "base", "new", "new/base", "spread_b", "spread_n", "bound", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:<16} {:>14.4} {:>14.4} {:>8.4} {:>7.2}% {:>7.2}% {:>5.1}%  {} ({})\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            r.base_spread * 100.0,
            r.new_spread * 100.0,
            r.bound * 100.0,
            r.verdict.name(),
            r.unit,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn def(name: &str) -> MetricDef {
        end_to_end().into_iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(&def("ops_per_s"), 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worsening(&def("ops_per_s"), 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!((worsening(&def("p50_us"), 100.0, 120.0) - 0.2).abs() < 1e-12);
        assert_eq!(worsening(&def("p50_us"), 0.0, 0.0), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // Higher is better; a bound of its own, so the table can move.
        let ops = MetricDef {
            bound: Some(0.10),
            ..def("ops_per_s")
        };
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(judge(&ops, &steady, &[95.0, 96.0, 94.0]).0, Verdict::Within);
        assert_eq!(
            judge(&ops, &steady, &[85.0, 86.0, 84.0]).0,
            Verdict::Regression
        );
        // A gain is not a regression.
        assert_eq!(
            judge(&ops, &steady, &[150.0, 151.0, 149.0]).0,
            Verdict::Within
        );
        // Medians agree, but the new side swings by far more than the bound.
        assert_eq!(
            judge(&ops, &steady, &[70.0, 100.0, 130.0, 100.0, 60.0]).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn result_files_parse_and_compare() {
        let line = |w: &str, ops: f64| {
            format!(
                "some report text\n{{\"workload\": \"{w}\", \"seed\": 1, \"trace\": 0, \
                 \"result\": {{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
                 \"metrics\": {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}}}}}}}\n"
            )
        };
        let base = parse_results(&(line("a", 100.0) + &line("a", 102.0) + &line("b", 50.0)));
        let new = parse_results(&(line("a", 50.0) + &line("b", 50.0)));
        assert_eq!(
            base[&("a".to_string(), "ops_per_s".to_string())],
            vec![100.0, 102.0]
        );
        let rows = compare(&end_to_end(), &base, &new);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].verdict),
            ("a", Verdict::Regression)
        );
        assert_eq!(
            (rows[1].workload.as_str(), rows[1].verdict),
            ("b", Verdict::Within)
        );
        assert!(render(&rows).contains("regression"));
    }
}
