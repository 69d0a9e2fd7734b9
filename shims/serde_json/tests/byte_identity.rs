//! Byte-identity fixtures for the JSON writer. Every expected string below
//! was produced by the value-tree serializer this streaming one replaced;
//! journals, reports, digests, scenario and corpus files all depend on
//! these exact bytes, so a change here is a wire-format change.

use serde::{Serialize, Value};
use unitherm_metrics::Summary;
use unitherm_obs::{
    ActuatorKind, CrossDirection, Event, EventRecord, InjectedFault, SearchPhase, TripCause,
    WindowLevel,
};

#[derive(Serialize)]
struct Nested {
    empty: Vec<u32>,
    grid: Vec<Vec<u32>>,
    none: Option<u32>,
    some: Option<String>,
    pair: (i8, f64),
    inner: Inner,
}

#[derive(Serialize)]
struct Inner {
    label: String,
    values: Vec<f64>,
}

#[derive(Serialize)]
struct Newtype(u16);

#[derive(Serialize)]
struct Pair(i32, bool);

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(f64),
    Tuple(u8, String),
    Named { a: u32, b: Option<f64> },
}

fn record(time_s: f64, node: u32, event: Event) -> EventRecord {
    EventRecord { time_s, node, event }
}

/// Every `Event` variant, with every inner enum variant at least once.
fn events() -> Vec<EventRecord> {
    use InjectedFault::*;
    let mut out = vec![
        record(
            0.25,
            0,
            Event::ModeChange {
                actuator: ActuatorKind::Fan,
                from: 25,
                to: 40,
                window_level: WindowLevel::L1,
            },
        ),
        record(
            1.0,
            1,
            Event::ModeChange {
                actuator: ActuatorKind::Dvfs,
                from: 2400,
                to: 2200,
                window_level: WindowLevel::L2,
            },
        ),
        record(
            1.5,
            2,
            Event::ModeChange {
                actuator: ActuatorKind::Sleep,
                from: 0,
                to: 3,
                window_level: WindowLevel::Feedforward,
            },
        ),
        record(
            2.75,
            3,
            Event::ModeChange {
                actuator: ActuatorKind::Dvfs,
                from: 1800,
                to: 2000,
                window_level: WindowLevel::Governor,
            },
        ),
        record(
            3.0,
            0,
            Event::ThresholdCross {
                threshold_c: 51.0,
                temp_c: 51.062_5,
                direction: CrossDirection::Above,
            },
        ),
        record(
            3.25,
            0,
            Event::ThresholdCross {
                threshold_c: 51.0,
                temp_c: 50.937_5,
                direction: CrossDirection::Below,
            },
        ),
        record(4.0, 4294967295, Event::TdvfsEngage { from_mhz: 2400, to_mhz: 2200 }),
        record(4.5, 0, Event::TdvfsRelease { to_mhz: 2400 }),
        record(5.0, 0, Event::FailsafeTrip { cause: TripCause::StaleSensor }),
        record(5.25, 0, Event::FailsafeTrip { cause: TripCause::OverTemperature }),
        record(5.5, 0, Event::FailsafeRelease),
        record(6.0, 0, Event::PredictionSample { utilization: 0.1 + 0.2, predicted_delta_c: -0.0 }),
        record(
            1e-7,
            0,
            Event::SearchProgress {
                phase: SearchPhase::Sample,
                evaluated: 0,
                counterexamples: 0,
                best_cost: u64::MAX,
            },
        ),
        record(
            1e16,
            0,
            Event::SearchProgress {
                phase: SearchPhase::Mutate,
                evaluated: 24,
                counterexamples: 3,
                best_cost: 141,
            },
        ),
        record(
            1e21,
            0,
            Event::SearchProgress {
                phase: SearchPhase::Bisect,
                evaluated: u32::MAX,
                counterexamples: 1,
                best_cost: 0,
            },
        ),
    ];
    let kinds = [
        FanFailure,
        FanRepair,
        SensorDropout,
        SensorRestore,
        I2cFailure,
        I2cRecovery,
        AmbientStep,
        PwmStuck,
        PwmRelease,
        SensorJitter,
    ];
    let magnitudes = [
        0.0,
        300.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        35.5,
        1e-300,
        9.999e15,
        0.75,
    ];
    for (i, (kind, magnitude)) in kinds.into_iter().zip(magnitudes).enumerate() {
        out.push(record(7.0 + i as f64 * 0.25, i as u32, Event::FaultInjected { kind, magnitude }));
    }
    out
}

fn nested() -> Nested {
    Nested {
        empty: Vec::new(),
        grid: vec![vec![], vec![1], vec![2, 3]],
        none: None,
        some: Some("quote \" backslash \\ bell \u{7} tab \t newline \n é ✓ 🚀".to_string()),
        pair: (-128, 300.0),
        inner: Inner { label: String::new(), values: vec![-0.0, f64::NAN, 1.5e-5, 12345.678] },
    }
}

fn value_tree() -> Value {
    Value::Map(vec![
        ("empty_map".into(), Value::Map(vec![])),
        ("empty_seq".into(), Value::Seq(vec![])),
        (
            "nested".into(),
            Value::Seq(vec![
                Value::Map(vec![("k\"ey".into(), Value::Null)]),
                Value::Seq(vec![Value::Seq(vec![]), Value::Bool(true), Value::Bool(false)]),
            ]),
        ),
        ("i64_min".into(), Value::I64(i64::MIN)),
        ("u64_max".into(), Value::U64(u64::MAX)),
        ("small_u64".into(), Value::U64(7)),
        ("float".into(), Value::F64(-2.5)),
        ("ctl".into(), Value::Str("\u{0}\u{1f}\r".into())),
    ])
}

fn summaries() -> Vec<Summary> {
    vec![
        Summary::default(),
        Summary::of([40.0, 42.5, 47.0]),
        Summary { count: 1, mean: 1.0, min: 1.0, max: 1.0, std_dev: 0.0 },
    ]
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape::Unit,
        Shape::Newtype(300.0),
        Shape::Tuple(7, "x".into()),
        Shape::Named { a: 1, b: None },
        Shape::Named { a: 2, b: Some(f64::INFINITY) },
    ]
}

fn both<T: Serialize>(name: &str, v: &T, out: &mut Vec<(String, String)>) {
    out.push((format!("{name} compact"), serde_json::to_string(v).unwrap()));
    out.push((format!("{name} pretty"), serde_json::to_string_pretty(v).unwrap()));
}

/// Every case as (name, encoded bytes).
fn cases() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (i, rec) in events().iter().enumerate() {
        out.push((format!("event {i}"), serde_json::to_string(rec).unwrap()));
    }
    both("events", &events()[..3].to_vec(), &mut out);
    both("nested", &nested(), &mut out);
    both("value", &value_tree(), &mut out);
    both("summaries", &summaries(), &mut out);
    both("shapes", &shapes(), &mut out);
    both("newtype", &Newtype(65535), &mut out);
    both("pair", &Pair(-1, true), &mut out);
    both("empty seq", &Vec::<u8>::new(), &mut out);
    both("empty map", &Value::Map(vec![]), &mut out);
    both("str", &"plain", &mut out);
    both("scalars", &(u64::MAX, i64::MIN, 1e300, f64::MIN_POSITIVE), &mut out);
    out
}

/// (case, expected bytes), in `cases()` order.
const EXPECTED: &[(&str, &str)] = &[
    ("event 0", "{\"time_s\":0.25,\"node\":0,\"event\":{\"ModeChange\":{\"actuator\":\"Fan\",\"from\":25,\"to\":40,\"window_level\":\"L1\"}}}"),
    ("event 1", "{\"time_s\":1.0,\"node\":1,\"event\":{\"ModeChange\":{\"actuator\":\"Dvfs\",\"from\":2400,\"to\":2200,\"window_level\":\"L2\"}}}"),
    ("event 2", "{\"time_s\":1.5,\"node\":2,\"event\":{\"ModeChange\":{\"actuator\":\"Sleep\",\"from\":0,\"to\":3,\"window_level\":\"Feedforward\"}}}"),
    ("event 3", "{\"time_s\":2.75,\"node\":3,\"event\":{\"ModeChange\":{\"actuator\":\"Dvfs\",\"from\":1800,\"to\":2000,\"window_level\":\"Governor\"}}}"),
    ("event 4", "{\"time_s\":3.0,\"node\":0,\"event\":{\"ThresholdCross\":{\"threshold_c\":51.0,\"temp_c\":51.0625,\"direction\":\"Above\"}}}"),
    ("event 5", "{\"time_s\":3.25,\"node\":0,\"event\":{\"ThresholdCross\":{\"threshold_c\":51.0,\"temp_c\":50.9375,\"direction\":\"Below\"}}}"),
    ("event 6", "{\"time_s\":4.0,\"node\":4294967295,\"event\":{\"TdvfsEngage\":{\"from_mhz\":2400,\"to_mhz\":2200}}}"),
    ("event 7", "{\"time_s\":4.5,\"node\":0,\"event\":{\"TdvfsRelease\":{\"to_mhz\":2400}}}"),
    ("event 8", "{\"time_s\":5.0,\"node\":0,\"event\":{\"FailsafeTrip\":{\"cause\":\"StaleSensor\"}}}"),
    ("event 9", "{\"time_s\":5.25,\"node\":0,\"event\":{\"FailsafeTrip\":{\"cause\":\"OverTemperature\"}}}"),
    ("event 10", "{\"time_s\":5.5,\"node\":0,\"event\":\"FailsafeRelease\"}"),
    ("event 11", "{\"time_s\":6.0,\"node\":0,\"event\":{\"PredictionSample\":{\"utilization\":0.30000000000000004,\"predicted_delta_c\":-0.0}}}"),
    ("event 12", "{\"time_s\":0.0000001,\"node\":0,\"event\":{\"SearchProgress\":{\"phase\":\"Sample\",\"evaluated\":0,\"counterexamples\":0,\"best_cost\":18446744073709551615}}}"),
    ("event 13", "{\"time_s\":10000000000000000,\"node\":0,\"event\":{\"SearchProgress\":{\"phase\":\"Mutate\",\"evaluated\":24,\"counterexamples\":3,\"best_cost\":141}}}"),
    ("event 14", "{\"time_s\":1000000000000000000000,\"node\":0,\"event\":{\"SearchProgress\":{\"phase\":\"Bisect\",\"evaluated\":4294967295,\"counterexamples\":1,\"best_cost\":0}}}"),
    ("event 15", "{\"time_s\":7.0,\"node\":0,\"event\":{\"FaultInjected\":{\"kind\":\"FanFailure\",\"magnitude\":0.0}}}"),
    ("event 16", "{\"time_s\":7.25,\"node\":1,\"event\":{\"FaultInjected\":{\"kind\":\"FanRepair\",\"magnitude\":300.0}}}"),
    ("event 17", "{\"time_s\":7.5,\"node\":2,\"event\":{\"FaultInjected\":{\"kind\":\"SensorDropout\",\"magnitude\":null}}}"),
    ("event 18", "{\"time_s\":7.75,\"node\":3,\"event\":{\"FaultInjected\":{\"kind\":\"SensorRestore\",\"magnitude\":null}}}"),
    ("event 19", "{\"time_s\":8.0,\"node\":4,\"event\":{\"FaultInjected\":{\"kind\":\"I2cFailure\",\"magnitude\":null}}}"),
    ("event 20", "{\"time_s\":8.25,\"node\":5,\"event\":{\"FaultInjected\":{\"kind\":\"I2cRecovery\",\"magnitude\":-0.0}}}"),
    ("event 21", "{\"time_s\":8.5,\"node\":6,\"event\":{\"FaultInjected\":{\"kind\":\"AmbientStep\",\"magnitude\":35.5}}}"),
    ("event 22", "{\"time_s\":8.75,\"node\":7,\"event\":{\"FaultInjected\":{\"kind\":\"PwmStuck\",\"magnitude\":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001}}}"),
    ("event 23", "{\"time_s\":9.0,\"node\":8,\"event\":{\"FaultInjected\":{\"kind\":\"PwmRelease\",\"magnitude\":9999000000000000.0}}}"),
    ("event 24", "{\"time_s\":9.25,\"node\":9,\"event\":{\"FaultInjected\":{\"kind\":\"SensorJitter\",\"magnitude\":0.75}}}"),
    ("events compact", "[{\"time_s\":0.25,\"node\":0,\"event\":{\"ModeChange\":{\"actuator\":\"Fan\",\"from\":25,\"to\":40,\"window_level\":\"L1\"}}},{\"time_s\":1.0,\"node\":1,\"event\":{\"ModeChange\":{\"actuator\":\"Dvfs\",\"from\":2400,\"to\":2200,\"window_level\":\"L2\"}}},{\"time_s\":1.5,\"node\":2,\"event\":{\"ModeChange\":{\"actuator\":\"Sleep\",\"from\":0,\"to\":3,\"window_level\":\"Feedforward\"}}}]"),
    ("events pretty", "[\n  {\n    \"time_s\": 0.25,\n    \"node\": 0,\n    \"event\": {\n      \"ModeChange\": {\n        \"actuator\": \"Fan\",\n        \"from\": 25,\n        \"to\": 40,\n        \"window_level\": \"L1\"\n      }\n    }\n  },\n  {\n    \"time_s\": 1.0,\n    \"node\": 1,\n    \"event\": {\n      \"ModeChange\": {\n        \"actuator\": \"Dvfs\",\n        \"from\": 2400,\n        \"to\": 2200,\n        \"window_level\": \"L2\"\n      }\n    }\n  },\n  {\n    \"time_s\": 1.5,\n    \"node\": 2,\n    \"event\": {\n      \"ModeChange\": {\n        \"actuator\": \"Sleep\",\n        \"from\": 0,\n        \"to\": 3,\n        \"window_level\": \"Feedforward\"\n      }\n    }\n  }\n]"),
    ("nested compact", "{\"empty\":[],\"grid\":[[],[1],[2,3]],\"none\":null,\"some\":\"quote \\\" backslash \\\\ bell \\u0007 tab \\t newline \\n é ✓ 🚀\",\"pair\":[-128,300.0],\"inner\":{\"label\":\"\",\"values\":[-0.0,null,0.000015,12345.678]}}"),
    ("nested pretty", "{\n  \"empty\": [],\n  \"grid\": [\n    [],\n    [\n      1\n    ],\n    [\n      2,\n      3\n    ]\n  ],\n  \"none\": null,\n  \"some\": \"quote \\\" backslash \\\\ bell \\u0007 tab \\t newline \\n é ✓ 🚀\",\n  \"pair\": [\n    -128,\n    300.0\n  ],\n  \"inner\": {\n    \"label\": \"\",\n    \"values\": [\n      -0.0,\n      null,\n      0.000015,\n      12345.678\n    ]\n  }\n}"),
    ("value compact", "{\"empty_map\":{},\"empty_seq\":[],\"nested\":[{\"k\\\"ey\":null},[[],true,false]],\"i64_min\":-9223372036854775808,\"u64_max\":18446744073709551615,\"small_u64\":7,\"float\":-2.5,\"ctl\":\"\\u0000\\u001f\\r\"}"),
    ("value pretty", "{\n  \"empty_map\": {},\n  \"empty_seq\": [],\n  \"nested\": [\n    {\n      \"k\\\"ey\": null\n    },\n    [\n      [],\n      true,\n      false\n    ]\n  ],\n  \"i64_min\": -9223372036854775808,\n  \"u64_max\": 18446744073709551615,\n  \"small_u64\": 7,\n  \"float\": -2.5,\n  \"ctl\": \"\\u0000\\u001f\\r\"\n}"),
    ("summaries compact", "[{\"count\":0,\"mean\":0.0,\"std_dev\":0.0},{\"count\":3,\"mean\":43.166666666666664,\"min\":40.0,\"max\":47.0,\"std_dev\":3.5472994422987947},{\"count\":1,\"mean\":1.0,\"min\":1.0,\"max\":1.0,\"std_dev\":0.0}]"),
    ("summaries pretty", "[\n  {\n    \"count\": 0,\n    \"mean\": 0.0,\n    \"std_dev\": 0.0\n  },\n  {\n    \"count\": 3,\n    \"mean\": 43.166666666666664,\n    \"min\": 40.0,\n    \"max\": 47.0,\n    \"std_dev\": 3.5472994422987947\n  },\n  {\n    \"count\": 1,\n    \"mean\": 1.0,\n    \"min\": 1.0,\n    \"max\": 1.0,\n    \"std_dev\": 0.0\n  }\n]"),
    ("shapes compact", "[\"Unit\",{\"Newtype\":300.0},{\"Tuple\":[7,\"x\"]},{\"Named\":{\"a\":1,\"b\":null}},{\"Named\":{\"a\":2,\"b\":null}}]"),
    ("shapes pretty", "[\n  \"Unit\",\n  {\n    \"Newtype\": 300.0\n  },\n  {\n    \"Tuple\": [\n      7,\n      \"x\"\n    ]\n  },\n  {\n    \"Named\": {\n      \"a\": 1,\n      \"b\": null\n    }\n  },\n  {\n    \"Named\": {\n      \"a\": 2,\n      \"b\": null\n    }\n  }\n]"),
    ("newtype compact", "65535"),
    ("newtype pretty", "65535"),
    ("pair compact", "[-1,true]"),
    ("pair pretty", "[\n  -1,\n  true\n]"),
    ("empty seq compact", "[]"),
    ("empty seq pretty", "[]"),
    ("empty map compact", "{}"),
    ("empty map pretty", "{}"),
    ("str compact", "\"plain\""),
    ("str pretty", "\"plain\""),
    ("scalars compact", "[18446744073709551615,-9223372036854775808,1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014]"),
    ("scalars pretty", "[\n  18446744073709551615,\n  -9223372036854775808,\n  1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,\n  0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014\n]"),
];

#[test]
fn writer_output_is_byte_identical_to_the_fixtures() {
    let got = cases();
    assert_eq!(got.len(), EXPECTED.len(), "one fixture per case");
    for ((name, bytes), (want_name, want)) in got.iter().zip(EXPECTED) {
        assert_eq!(name, want_name);
        assert_eq!(bytes, want, "case {name:?}");
    }
}

#[test]
fn to_writer_matches_to_string() {
    for rec in events() {
        let mut out = Vec::new();
        serde_json::to_writer(&mut out, &rec).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), serde_json::to_string(&rec).unwrap());
    }
}

/// A document with a value in the middle, held either as itself or as the
/// bytes the compact writer encoded for it.
#[derive(Serialize)]
struct Holder<'a, T> {
    id: u32,
    label: &'a str,
    #[serde(skip_serializing_if = "Option::is_none")]
    body: Option<T>,
    tail: Vec<T>,
}

#[test]
fn raw_json_writes_the_bytes_of_the_value_it_holds() {
    fn check<T: Serialize>(value: T) {
        let encoded = serde_json::to_string(&value).unwrap();
        let raw = serde_json::RawJson::new(encoded.as_bytes());
        let held = Holder { id: 7, label: "x\"y", body: Some(&value), tail: vec![&value, &value] };
        let spliced = Holder { id: 7, label: "x\"y", body: Some(raw), tail: vec![raw, raw] };
        assert_eq!(serde_json::to_string(&spliced).unwrap(), serde_json::to_string(&held).unwrap());
        let mut out = Vec::new();
        serde_json::to_writer(&mut out, &spliced).unwrap();
        assert_eq!(out, serde_json::to_string(&held).unwrap().into_bytes());
    }
    check(nested());
    check(value_tree());
    check(events());
    check(summaries());
    check(shapes());
    check(Value::Map(vec![]));
    check("plain");
    check(-0.0);
}

#[test]
fn raw_json_is_compact_only() {
    let raw = serde_json::RawJson::new(b"[1,2]");
    assert_eq!(serde_json::to_string(&raw).unwrap(), "[1,2]");
    let err = serde_json::to_string_pretty(&vec![raw]).unwrap_err();
    assert!(err.to_string().contains("compact output only"), "{err}");
}

/// The writer's fast paths against the `format!` output they replaced:
/// integers and integral floats below 1e16 written from a stack buffer,
/// strings with nothing to escape written in one piece.
mod fast_paths {
    use serde::Value;

    /// Integers, as the `{v}` formatter wrote them.
    fn integer_reference(v: i128) -> String {
        format!("{v}")
    }

    /// Floats, as the formatter wrote them: non-finite as `null`, integral
    /// values below 1e16 as `{v}.0`, everything else as `{v}`.
    fn float_reference(v: f64) -> String {
        if !v.is_finite() {
            "null".to_string()
        } else if v == v.trunc() && v.abs() < 1e16 {
            format!("{v}.0")
        } else {
            format!("{v}")
        }
    }

    /// Strings, escaped byte by byte with `\u{b:04x}` for control bytes.
    fn string_reference(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn compact<T: serde::Serialize + ?Sized>(v: &T) -> String {
        serde_json::to_string(v).unwrap()
    }

    #[test]
    fn integers_match_the_formatter() {
        for v in [0, -1, 1, 9, 10, 99, 100, i64::MAX, i64::MIN, i64::MIN + 1] {
            assert_eq!(compact(&v), integer_reference(v.into()), "{v}");
            assert_eq!(compact(&Value::I64(v)), integer_reference(v.into()), "{v}");
        }
        for v in [0, 1, 10, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            assert_eq!(compact(&v), integer_reference(v.into()), "{v}");
            assert_eq!(compact(&Value::U64(v)), integer_reference(v.into()), "{v}");
        }
        for v in [i8::MIN, -1, 0, i8::MAX] {
            assert_eq!(compact(&v), integer_reference(v.into()), "{v}");
        }
        for v in [0u32, 7, u32::MAX] {
            assert_eq!(compact(&v), integer_reference(v.into()), "{v}");
        }
        // Every power of ten and its neighbours, both signs.
        let mut p: u64 = 1;
        loop {
            for v in [p - 1, p, p + 1] {
                assert_eq!(compact(&v), integer_reference(v.into()), "{v}");
                if let Ok(v) = i64::try_from(v) {
                    assert_eq!(compact(&-v), integer_reference((-v).into()), "-{v}");
                }
            }
            match p.checked_mul(10) {
                Some(next) => p = next,
                None => break,
            }
        }
    }

    #[test]
    fn floats_match_the_formatter() {
        let two_53 = 9_007_199_254_740_992.0;
        let below_1e16 = 9_999_999_999_999_998.0; // 1e16 − 1 rounds to even
        let mut cases = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            300.0,
            1e16 - 1.0,
            -(1e16 - 1.0),
            below_1e16,
            -below_1e16,
            1e16,
            -1e16,
            two_53,
            -two_53,
            two_53 + 2.0,
            1e21,
            1e300,
            0.1,
            -0.1,
            0.25,
            51.0625,
            0.1 + 0.2,
            1e-7,
            1e-320,
            -1e-320,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for k in 0..64 {
            let x = 2f64.powi(k);
            cases.extend([x, -x, x - 1.0, x + 1.0, x + 0.5]);
        }
        for v in cases {
            assert_eq!(compact(&v), float_reference(v), "{v:e}");
            assert_eq!(compact(&Value::F64(v)), float_reference(v), "{v:e}");
            assert_eq!(compact(&(v as f32)), float_reference(f64::from(v as f32)), "{v:e} as f32");
        }
    }

    #[test]
    fn strings_match_the_escaper() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let long_plain = "x".repeat(1000);
        let long_escaped = format!("{}\"{}\\{}", "a".repeat(300), "é".repeat(100), "\u{1}");
        let mut cases = vec![
            String::new(),
            "plain".to_string(),
            "quote \" inside".to_string(),
            "back\\slash".to_string(),
            controls,
            "\u{7f} del is not escaped".to_string(),
            "é ✓ 🚀 non-ASCII".to_string(),
            "ends with a control\u{1f}".to_string(),
            "\"".to_string(),
            "\\".to_string(),
            long_plain,
            long_escaped,
        ];
        // Lengths on both sides of the writer's stack buffer, with and
        // without a byte to escape at the end.
        for len in 120..136 {
            cases.push("y".repeat(len));
            cases.push(format!("{}\n", "y".repeat(len)));
            cases.push("é".repeat(len / 2));
        }
        for s in &cases {
            let want = string_reference(s);
            assert_eq!(compact(s.as_str()), want, "{s:?}");
            assert_eq!(compact(&Value::Str(s.clone())), want, "{s:?}");
            // The same bytes as a map key, compact and pretty.
            let map = Value::Map(vec![(s.clone(), Value::Null), (s.clone(), Value::Bool(true))]);
            assert_eq!(compact(&map), format!("{{{want}:null,{want}:true}}"), "key {s:?}");
            assert_eq!(
                serde_json::to_string_pretty(&map).unwrap(),
                format!("{{\n  {want}: null,\n  {want}: true\n}}"),
                "key {s:?}"
            );
            assert_eq!(serde_json::from_str::<String>(&want).unwrap(), *s, "{s:?} round trips");
        }
    }
}
