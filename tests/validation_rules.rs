//! The rule tables (`RULES` on every config type a scenario file carries)
//! against the code, the scenario-file path and the docs:
//!
//! * completeness: every `f64` leaf of a fully populated scenario, set to
//!   `1e999` or `-1e999`, is refused by name — a new field without a rule
//!   fails here;
//! * boundaries: each bound row holds at its bound and breaks one ulp (or
//!   one integer step) past it, and `validate` walks the table in order;
//! * `docs/FORMATS.md` §1: the rule lists between `<!-- rules:TYPE -->`
//!   markers and the validation summary are generated from the tables.
//!   Regenerate them with
//!   `UNITHERM_UPDATE_GOLDEN=1 cargo test --test validation_rules`.

mod json_doc;

use std::ops::Bound;
use std::path::Path;

use serde_json::Value;
use unitherm::cluster::{DvfsScheme, FanScheme, RackConfig, Scenario, SchemeSpec, WorkloadSpec};
use unitherm::core::baseline::StaticFanCurve;
use unitherm::core::config::{check, Check, Rule};
use unitherm::core::control_array::Policy;
use unitherm::core::{
    ControllerConfig, CpuSpeedConfig, FailsafeConfig, FeedforwardConfig, TdvfsConfig, WindowConfig,
};
use unitherm::simnode::faults::{FaultEvent, FaultPlan, TickFaultSchedule};
use unitherm::simnode::NodeConfig;
use unitherm::workload::burn::BurnConfig;

/// A document that reaches every block but the control scheme: one
/// override of each kind, failsafe, rack, a tuned cpu-burn and both kinds
/// of fault entry.
fn populated(name: &str) -> Scenario {
    Scenario::new(name)
        .with_nodes(4)
        .with_node_config(2, NodeConfig::default())
        .with_failsafe(FailsafeConfig::default())
        .with_rack(RackConfig::default())
        .with_workload(WorkloadSpec::CpuBurnTuned(BurnConfig::default()))
        .with_fault(
            0,
            FaultPlan::none()
                .at(1.0, FaultEvent::AmbientStep(30.0))
                .at(2.0, FaultEvent::SensorJitter(0.5)),
        )
        .with_tick_faults(0, TickFaultSchedule::none().at_tick(5, FaultEvent::AmbientStep(25.0)))
}

/// Documents that between them hold every `FanScheme`, `DvfsScheme` and
/// `SchemeSpec` arm with a number in it, each where `validate` reads it.
fn documents() -> Vec<Scenario> {
    let pp = Policy::MODERATE;
    let curve = FanScheme::SoftwareStatic { curve: StaticFanCurve::default() };
    let full = |name: &str, scheme: SchemeSpec| populated(name).with_scheme(scheme);
    vec![
        populated("split")
            .with_fan(FanScheme::dynamic_feedforward(pp, 100))
            .with_dvfs(DvfsScheme::tdvfs(pp))
            .with_node_fan(1, curve.clone())
            .with_node_fan(2, FanScheme::dynamic(pp, 80)),
        populated("cpuspeed")
            .with_fan(FanScheme::Constant { duty: 60 })
            .with_dvfs(DvfsScheme::cpuspeed()),
        full("scheme-split", SchemeSpec::split(curve, DvfsScheme::cpuspeed())),
        full("hybrid", SchemeSpec::hybrid(pp, 60)),
        full("acpi", SchemeSpec::acpi_sleep(pp, FanScheme::dynamic_feedforward(pp, 90))),
    ]
}

#[test]
fn every_non_finite_number_is_refused_by_name() {
    let mut failures = Vec::new();
    let mut cases = 0;
    for scenario in documents() {
        let doc = json_doc::tree(&scenario);
        assert_eq!(json_doc::validate(&doc), Ok(()), "{} is valid as built", scenario.name);
        for path in json_doc::f64_leaves(&doc) {
            for bad in ["1e999", "-1e999"] {
                let mut mutated = doc.clone();
                json_doc::set(&mut mutated, &path, bad);
                let outcome = std::panic::catch_unwind(|| json_doc::validate(&mutated));
                cases += 1;
                match outcome {
                    Ok(Err(message)) if !message.is_empty() => {}
                    Ok(other) => {
                        failures.push(format!("{}: {path} = {bad}: {other:?}", scenario.name))
                    }
                    Err(_) => failures.push(format!("{}: {path} = {bad}: panicked", scenario.name)),
                }
            }
        }
    }
    assert!(cases > 500, "only {cases} cases: the documents lost their blocks");
    assert!(
        failures.is_empty(),
        "{} non-finite inputs passed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// One config type's table, with what the tests need to drive it through
/// its scenario-file form.
struct Table<T: 'static> {
    name: &'static str,
    rules: &'static [Rule<T>],
    /// A valid instance, as a value tree.
    base: Value,
    parse: fn(&str) -> T,
    validate: fn(&T) -> Result<(), String>,
}

macro_rules! table {
    ($T:ty, $base:expr, $validate:expr) => {
        Table::<$T> {
            name: stringify!($T),
            rules: <$T>::RULES,
            base: serde_json::parse_value(&serde_json::to_string(&$base).expect("serializes"))
                .expect("valid JSON"),
            parse: |text| serde_json::from_str(text).unwrap_or_else(|e| panic!("{e}: {text}")),
            validate: $validate,
        }
    };
}

/// `$visit` applied to every table (they differ in type), each result
/// paired with its table's name.
macro_rules! each_table {
    ($visit:ident) => {{
        macro_rules! visit {
            ($T:ty, $base:expr) => {{
                let table = table!($T, $base, |c| c.validate().map_err(|e| e.to_string()));
                (table.name, $visit(&table))
            }};
        }
        let curve = table!(StaticFanCurve, StaticFanCurve::default(), |c| {
            check(StaticFanCurve::RULES, c).map_err(|e| e.to_string())
        });
        vec![
            visit!(Scenario, Scenario::new("rules")),
            visit!(NodeConfig, NodeConfig::default()),
            visit!(RackConfig, RackConfig::default()),
            visit!(FailsafeConfig, FailsafeConfig::default()),
            visit!(ControllerConfig, ControllerConfig::default()),
            visit!(WindowConfig, WindowConfig::default()),
            visit!(TdvfsConfig, TdvfsConfig::default()),
            visit!(FeedforwardConfig, FeedforwardConfig::default()),
            visit!(CpuSpeedConfig, CpuSpeedConfig::default()),
            (curve.name, $visit(&curve)),
        ]
    }};
}

/// The last value inside and the first value outside each end of a bound
/// row, as JSON text.
fn edges<T>(rule: &Rule<T>) -> Vec<(String, String)> {
    let f = |v: f64| format!("{v:?}");
    let lower = |b: Bound<f64>| match b {
        Bound::Included(x) => Some((f(x), f(x.next_down()))),
        Bound::Excluded(x) => Some((f(x.next_up()), f(x))),
        Bound::Unbounded => None,
    };
    let upper = |b: Bound<f64>| match b {
        Bound::Included(x) => Some((f(x), f(x.next_up()))),
        Bound::Excluded(x) => Some((f(x.next_down()), f(x))),
        Bound::Unbounded => None,
    };
    match rule.check {
        Check::Range(_, (lo, hi)) => lower(lo).into_iter().chain(upper(hi)).collect(),
        Check::AtLeast(_, n) if n > 0 => vec![(n.to_string(), (n - 1).to_string())],
        Check::AtMost(_, n) => vec![(n.to_string(), (n + 1).to_string())],
        _ => Vec::new(),
    }
}

/// Drives every bound row of `table` across its edges; returns what went
/// wrong.
fn boundary_failures<T>(table: &Table<T>) -> Vec<String> {
    let mut failures = Vec::new();
    let at = |path: &str, value: &str| {
        let mut doc = table.base.clone();
        json_doc::set(&mut doc, path, value);
        (table.parse)(&json_doc::text(&doc))
    };
    for rule in table.rules {
        let row = format!("{}.{}", table.name, rule.field);
        for (inside, outside) in edges(rule) {
            let (pass, fail) = (at(rule.field, &inside), at(rule.field, &outside));
            if !rule.holds(&pass) || rule.holds(&fail) {
                failures.push(format!("{row}: the bound is not between {inside} and {outside}"));
                continue;
            }
            // `validate` walks the table: the first broken row names itself.
            let first =
                table.rules.iter().find(|r| !r.holds(&fail)).map(|r| r.error(&fail).to_string());
            if (table.validate)(&fail).err() != first {
                failures.push(format!(
                    "{row} = {outside}: {:?}, want {first:?}",
                    (table.validate)(&fail)
                ));
            }
            let others_hold = table.rules.iter().all(|r| r.holds(&pass));
            if others_hold && (table.validate)(&pass).is_err() {
                failures.push(format!("{row} = {inside}: {:?}", (table.validate)(&pass)));
            }
        }
    }
    failures
}

#[test]
fn bound_rows_hold_at_their_bound_and_break_one_step_past_it() {
    let results = each_table!(boundary_failures);
    let failures: Vec<String> = results.into_iter().flat_map(|(_, f)| f).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// What `rule` requires of its field, as the docs state it.
fn must_be<T>(rule: &Rule<T>) -> String {
    let bound = |b: Bound<f64>, open: &str, closed: &str| match b {
        Bound::Included(x) => format!("{closed}{x}"),
        Bound::Excluded(x) => format!("{open}{x}"),
        Bound::Unbounded => String::new(),
    };
    match rule.check {
        Check::Finite(_) => "finite".to_string(),
        Check::Range(_, (lo, Bound::Unbounded)) => bound(lo, "> ", "≥ "),
        Check::Range(_, (Bound::Unbounded, hi)) => bound(hi, "< ", "≤ "),
        Check::Range(_, (lo, hi)) => {
            format!("in {}, {}", bound(lo, "(", "["), bound(hi, "", ""))
                + if matches!(hi, Bound::Excluded(_)) { ")" } else { "]" }
        }
        Check::AtLeast(_, n) => format!("≥ {n}"),
        Check::AtMost(_, n) => format!("≤ {n}"),
        Check::Below(_, _, hi) => format!("< `{hi}`"),
        Check::Holds(_, relation) => relation.to_string(),
    }
}

/// One table as a markdown table: field, what it must be, the error (a
/// value the error repeats shown as `N`, a relation's sides by name).
fn rules_markdown<T>(table: &Table<T>) -> String {
    let mut out = String::from("| field | must be | error |\n|---|---|---|\n");
    for rule in table.rules {
        let message = match rule.check {
            Check::AtMost(_, n) => {
                rule.message.replace("{max}", &n.to_string()).replace("{got}", "N")
            }
            Check::Below(_, _, hi) => rule.message.replace("{lo}", rule.field).replace("{hi}", hi),
            _ => rule.message.to_string(),
        };
        out += &format!("| `{}` | {} | `{message}` |\n", rule.field, must_be(rule));
    }
    out
}

/// `docs/FORMATS.md` §1's validation summary: what `Scenario::validate`
/// checks, in order, with each table's size read from the table.
fn summary_markdown(sizes: &[(&str, usize)]) -> String {
    let n = |name: &str| sizes.iter().find(|(t, _)| *t == name).map(|(_, n)| *n).expect("a table");
    let items = [
        format!(
            "the [top-level rules](#top-level-fields): {};",
            Scenario::RULES
                .iter()
                .map(|r| format!("`{}` {}", r.field, must_be(r)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        "`workload` (`WorkloadSpec::validate`): a `Script` needs at least one segment, each with \
         `duration_s` > 0 and `utilization` in [0, 1]; `Trace` points need finite, non-negative, \
         strictly increasing times and utilization and activity in [0, 1]; a `CpuBurnTuned` \
         needs finite, positive, ordered `burst_s` and `gap_s`, utilizations in [0, 1] and a \
         finite, non-negative `jitter` (errors start `workload: `);"
            .to_string(),
        "each `faults` entry: its node < `nodes` (`fault plan for nonexistent node N`), then \
         its plan: times finite, ≥ 0 and in order, an `AmbientStep` finite, a `SensorJitter` \
         finite and ≥ 0 (`fault plan (node N): …`);"
            .to_string(),
        "each `tick_faults` entry: its node < `nodes`, then ticks ≥ 1 and in order with the \
         same event rules (`tick-fault schedule (node N): …`);"
            .to_string(),
        "each `fan_overrides` node < `nodes` (`fan override for nonexistent node N`);".to_string(),
        format!(
            "`node_config`: the {} [`NodeConfig` rules](#nodeconfig) — every number finite, \
             P-state voltages and frequencies positive (errors start `node_config: `);",
            n("NodeConfig")
        ),
        "each `node_config_overrides` entry: its node < `nodes` (`config override for \
         nonexistent node N`), then the `NodeConfig` rules (`node_config_overrides (node N): …`);"
            .to_string(),
        "no node twice in `fan_overrides` or in `node_config_overrides` (`fan_overrides: node N \
         has more than one entry` — no entry silently shadows another);"
            .to_string(),
        format!(
            "`rack`, when set: the {} [`RackConfig` rules](#rackconfig) (`rack: …`);",
            n("RackConfig")
        ),
        format!(
            "`failsafe`, when set: the {} [`FailsafeConfig` rules](#failsafeconfig);",
            n("FailsafeConfig")
        ),
        "with a full `scheme`: no `fan_overrides` (``fan_overrides cannot be combined with a \
         full `scheme` …``), then the scheme; otherwise the default `fan` (when some node uses \
         it), `dvfs` and each `fan_overrides` scheme."
            .to_string(),
    ];
    let mut out = String::new();
    for (i, item) in items.iter().enumerate() {
        out += &format!("{}. {item}\n", i + 1);
    }
    out += &format!(
        "\nEach scheme arm checks its `policy` in [1, 100] (`policy P_p = N outside [1, 100]`), \
         then its tuning: the {} [`ControllerConfig` rules](#controllerconfig) and the {} \
         `WindowConfig` rules, the {} [`FeedforwardConfig` rules](#feedforwardconfig), the {} \
         [`TdvfsConfig` rules](#tdvfsconfig) (then its embedded controller), the {} \
         [`CpuSpeedConfig` rules](#cpuspeedconfig) or the {} [`StaticFanCurve` \
         rules](#staticfancurve). The first broken rule is the error; the CLI prints it after \
         `unusable scenario: ` and `POST /jobs` answers 400 with it.\n",
        n("ControllerConfig"),
        n("WindowConfig"),
        n("FeedforwardConfig"),
        n("TdvfsConfig"),
        n("CpuSpeedConfig"),
        n("StaticFanCurve"),
    );
    out
}

/// Rewrites the block between `<!-- rules:ID -->` and `<!-- /rules:ID -->`
/// in `doc`, returning whether it changed.
fn replace_block(doc: &mut String, id: &str, body: &str) -> bool {
    let (open, close) = (format!("<!-- rules:{id} -->\n"), format!("<!-- /rules:{id} -->"));
    let start = doc.find(&open).unwrap_or_else(|| panic!("FORMATS.md lacks {open:?}")) + open.len();
    let len = doc[start..].find(&close).unwrap_or_else(|| panic!("no {close:?} after {open:?}"));
    let changed = doc[start..start + len] != *body;
    doc.replace_range(start..start + len, body);
    changed
}

#[test]
fn formats_md_rule_lists_are_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/FORMATS.md");
    let mut doc = std::fs::read_to_string(&path).expect("docs/FORMATS.md");
    let blocks = each_table!(rules_markdown);
    let sizes: Vec<(&str, usize)> =
        blocks.iter().map(|(id, md)| (*id, md.lines().count() - 2)).collect();
    let mut stale: Vec<&str> = blocks
        .iter()
        .filter(|(id, md)| replace_block(&mut doc, id, md))
        .map(|(id, _)| *id)
        .collect();
    if replace_block(&mut doc, "summary", &summary_markdown(&sizes)) {
        stale.push("summary");
    }
    if std::env::var_os("UNITHERM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, doc).expect("rewrite docs/FORMATS.md");
    } else {
        assert!(
            stale.is_empty(),
            "docs/FORMATS.md rule lists out of date for {stale:?}; regenerate with \
             UNITHERM_UPDATE_GOLDEN=1 cargo test --test validation_rules"
        );
    }
}
