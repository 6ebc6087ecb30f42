//! `BENCHMARK.json` at the repository root must say what the code does:
//! the driver reads the file, `perf` prints the metrics.

use dedisys_perf::cli::DEFAULT_SECONDS;
use dedisys_perf::harness::json::{parse, Json};
use dedisys_perf::report::{Better, END_TO_END, PER_LAYER};
use dedisys_perf::workloads::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string"))
}

fn list<'a>(file: &'a Json, key: &str) -> &'a [Json] {
    file.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
}

#[test]
fn has_exactly_the_contract_keys() {
    let file = benchmark_json();
    let keys: Vec<&str> = file
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        file.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let paths: Vec<&str> = list(&file, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["perf"]);
    let command: Vec<&str> = list(&file, "command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(command, ["bash", "perf/run.sh"]);
}

#[test]
fn workloads_match_the_table() {
    let file = benchmark_json();
    let listed: Vec<(&str, &str)> = list(&file, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let coded: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, coded);
    assert!(coded
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
}

#[test]
fn end_to_end_metrics_match_the_table() {
    let file = benchmark_json();
    let listed = list(&file, "end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, m) in listed.iter().zip(END_TO_END) {
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit);
        let better = match m.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        assert_eq!(text(entry, "better"), better, "{}", m.name);
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn per_layer_metrics_match_the_table() {
    let file = benchmark_json();
    let listed: Vec<(&str, &str)> = list(&file, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(listed, PER_LAYER);
    assert!(listed.len() <= 128);
}
