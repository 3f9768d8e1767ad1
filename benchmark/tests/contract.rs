//! `BENCHMARK.json` at the repository root and the tables in
//! `src/metrics.rs` / `src/workloads.rs` say the same thing.

use locus_benchmark::json::Json;
use locus_benchmark::metrics::{end_to_end, per_layer, MetricDef};
use locus_benchmark::run::RUN_SECONDS;
use locus_benchmark::workloads::SPECS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside benchmark/");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {obj:?}"))
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn top_level_keys_command_and_paths() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = m
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = m
        .get("command")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(command.first(), Some(&"cargo"));
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains(".."))
    );
    assert_eq!(
        m.get("run_seconds").and_then(Json::as_f64),
        Some(f64::from(RUN_SECONDS))
    );
}

#[test]
fn workloads_match_the_specs() {
    let m = manifest();
    let listed = m.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), SPECS.len());
    for (w, spec) in listed.iter().zip(SPECS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(str_of(w, "name"), spec.name);
        // Specs wrap their text over source lines; the manifest has one line.
        let why: String = spec.why.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_eq!(str_of(w, "why"), why);
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{}: why is {} chars",
            spec.name,
            why.len()
        );
    }
}

fn check_table(listed: &[Json], defs: &[MetricDef], with_bound: bool) {
    assert_eq!(listed.len(), defs.len());
    for (m, d) in listed.iter().zip(defs) {
        if with_bound {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
        } else {
            assert_eq!(keys(m), ["name", "unit", "better"]);
        }
        assert_eq!(str_of(m, "name"), d.name);
        assert_eq!(str_of(m, "unit"), d.unit, "{}", d.name);
        assert_eq!(str_of(m, "better"), d.better.name(), "{}", d.name);
    }
}

#[test]
fn metric_tables_match() {
    let m = manifest();
    check_table(
        m.get("end_to_end").and_then(Json::as_arr).unwrap(),
        &end_to_end(),
        true,
    );
    check_table(
        m.get("per_layer").and_then(Json::as_arr).unwrap(),
        &per_layer(),
        false,
    );
}
