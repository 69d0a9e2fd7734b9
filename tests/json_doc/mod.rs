//! Scenario documents as JSON value trees, for tests that change one field
//! at a time and feed the result back through the scenario-file path.
//!
//! Paths are dot-separated: object keys by name, array elements by index
//! (`node_config.cpu.pstates.2.voltage_v`). Text written back out spells a
//! non-finite number `1e999` / `-1e999`, which is how a scenario file
//! carries one (the parser reads it as ±∞).

#![allow(dead_code)]

use serde_json::Value;
use unitherm::cluster::Scenario;

/// The value tree of `scenario` as it serializes to a scenario file.
pub fn tree(scenario: &Scenario) -> Value {
    let text = serde_json::to_string(scenario).expect("a scenario serializes");
    serde_json::parse_value(&text).expect("the writer emits valid JSON")
}

/// Replaces the value at `path` with the JSON `value`.
///
/// # Panics
/// Panics when `path` does not name a value in `doc`.
pub fn set(doc: &mut Value, path: &str, value: &str) {
    let value = serde_json::parse_value(value).unwrap_or_else(|e| panic!("{value}: {e}"));
    *at(doc, path) = value;
}

/// The value at `path`.
fn at<'a>(doc: &'a mut Value, path: &str) -> &'a mut Value {
    path.split('.').fold(doc, |node, key| match node {
        Value::Map(entries) => {
            let found = entries.iter_mut().find(|(k, _)| k == key);
            &mut found.unwrap_or_else(|| panic!("no key {key:?} in {path}")).1
        }
        Value::Seq(items) => {
            let index: usize = key.parse().unwrap_or_else(|_| panic!("{key:?} in {path}"));
            items.get_mut(index).unwrap_or_else(|| panic!("no element {index} in {path}"))
        }
        _ => panic!("{path}: {key:?} is below a leaf"),
    })
}

/// The path of every floating-point leaf of `doc`, in document order.
pub fn f64_leaves(doc: &Value) -> Vec<String> {
    fn walk(node: &Value, path: &str, out: &mut Vec<String>) {
        let join =
            |key: &str| if path.is_empty() { key.to_string() } else { format!("{path}.{key}") };
        match node {
            Value::F64(_) => out.push(path.to_string()),
            Value::Map(entries) => entries.iter().for_each(|(k, v)| walk(v, &join(k), out)),
            Value::Seq(items) => {
                items.iter().enumerate().for_each(|(i, v)| walk(v, &join(&i.to_string()), out))
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(doc, "", &mut out);
    out
}

/// `doc` as scenario-file text.
pub fn text(doc: &Value) -> String {
    match doc {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::I64(v) => v.to_string(),
        Value::U64(v) => v.to_string(),
        Value::F64(v) if v.is_nan() => panic!("JSON cannot carry NaN"),
        Value::F64(v) if v.is_infinite() => if *v > 0.0 { "1e999" } else { "-1e999" }.to_string(),
        // `Debug` is the shortest text that parses back to the same bits.
        Value::F64(v) => format!("{v:?}"),
        Value::Str(s) => format!("{s:?}"),
        Value::Seq(items) => format!("[{}]", items.iter().map(text).collect::<Vec<_>>().join(",")),
        Value::Map(entries) => {
            let fields: Vec<String> =
                entries.iter().map(|(k, v)| format!("{k:?}:{}", text(v))).collect();
            format!("{{{}}}", fields.join(","))
        }
    }
}

/// Parses `doc` as a scenario file and validates it, returning the error
/// message on failure.
///
/// # Panics
/// Panics when `doc` is not a well-formed scenario document.
pub fn validate(doc: &Value) -> Result<(), String> {
    let text = text(doc);
    let scenario: Scenario = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    scenario.validate().map_err(|e| e.message().to_string())
}
