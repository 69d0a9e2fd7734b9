//! `BENCHMARK.json` at the repository root declares what this crate
//! measures; the two must not drift apart.

use serde::Value;
use unitherm_benchmark::{per_layer, Workload, END_TO_END};

fn manifest() -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json is JSON")
}

fn entries<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key}: expected a list, found {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

#[test]
fn workloads_match() {
    let m = manifest();
    let declared: Vec<(&str, &str)> =
        entries(&m, "workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
    let ours: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
    assert_eq!(declared, ours);
}

#[test]
fn end_to_end_metrics_match() {
    let m = manifest();
    let declared = entries(&m, "end_to_end");
    assert_eq!(declared.len(), END_TO_END.len());
    for (d, ours) in declared.iter().zip(END_TO_END) {
        assert_eq!(text(d, "name"), ours.name);
        assert_eq!(text(d, "unit"), ours.unit);
        assert_eq!(text(d, "better"), ours.better);
        assert_eq!(d.get("bound").and_then(Value::as_f64), Some(ours.bound), "{}", ours.name);
    }
}

#[test]
fn per_layer_metrics_match() {
    let m = manifest();
    let declared: Vec<(String, String)> = entries(&m, "per_layer")
        .iter()
        .map(|d| (text(d, "name").to_string(), text(d, "unit").to_string()))
        .collect();
    let ours: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(declared, ours);
}
