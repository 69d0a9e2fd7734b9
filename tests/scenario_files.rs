//! The shipped example scenario files must stay loadable and runnable —
//! they are the first thing a downstream user will try.

use unitherm::experiments::scenario_file;

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn hot_rack_scenario_loads_and_validates() {
    let s = scenario_file::load(repo_path("examples/scenarios/hot_rack_bt.json")).unwrap();
    assert_eq!(s.name, "hot-rack-bt");
    assert_eq!(s.nodes, 4);
    assert!(s.rack.is_some(), "the hot-rack file couples the rack air");
}

#[test]
fn protected_burn_scenario_runs() {
    let mut s = scenario_file::load(repo_path("examples/scenarios/protected_burn.json")).unwrap();
    assert!(s.failsafe.is_some());
    // Shorten for the test; the file itself carries the full duration.
    s.max_time_s = 20.0;
    let (report, text) = scenario_file::run_and_render(s);
    assert_eq!(report.nodes.len(), 2);
    assert!(!report.any_shutdown());
    assert!(text.contains("node0:"));
}

#[test]
fn hybrid_scenario_loads_and_runs() {
    let mut s = scenario_file::load(repo_path("examples/scenarios/hybrid_burn.json")).unwrap();
    assert_eq!(s.fan_label(), "hybrid(P_p=50, max=30%)");
    assert_eq!(s.dvfs_label(), "hybrid-tDVFS(P_p=50)");
    s.max_time_s = 120.0;
    let (report, _) = scenario_file::run_and_render(s);
    // The capped hybrid fan saturates under burn; coordination hands the
    // remainder to the in-band tDVFS arm.
    assert!(report.total_freq_transitions() > 0, "hybrid tDVFS arm engaged");
    assert!(report.min_commanded_freq_mhz().unwrap() < 2400);
}

#[test]
fn acpi_sleep_scenario_loads_and_runs() {
    let mut s = scenario_file::load(repo_path("examples/scenarios/acpi_sleep_burn.json")).unwrap();
    assert_eq!(s.dvfs_label(), "acpi-sleep(P_p=25)");
    s.max_time_s = 120.0;
    let (report, _) = scenario_file::run_and_render(s);
    // A 15 % fan cannot hold cpu-burn; the sleep daemon's power gating
    // keeps the node both unthrottled and cooler than the CPU's emergency
    // throttle point.
    assert_eq!(report.nodes.len(), 1);
    assert!(report.nodes[0].temp_summary.max < 70.0, "{}", report.nodes[0].temp_summary.max);
}

#[test]
fn scenario_files_round_trip_through_to_json() {
    for file in [
        "examples/scenarios/hot_rack_bt.json",
        "examples/scenarios/protected_burn.json",
        "examples/scenarios/hybrid_burn.json",
        "examples/scenarios/acpi_sleep_burn.json",
    ] {
        let s = scenario_file::load(repo_path(file)).unwrap();
        let json = scenario_file::to_json(&s);
        let reparsed: unitherm::cluster::Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(reparsed.name, s.name, "{file}");
        assert_eq!(reparsed.fan, s.fan, "{file}");
        assert_eq!(reparsed.scheme, s.scheme, "{file}");
    }
}

#[test]
fn out_of_range_hardware_and_rack_configs_are_named_errors() {
    // Values a scenario file can carry that the physics cannot run with
    // must come back as a validation error naming the block, not a panic;
    // an event ring too large to pre-reserve, naming the field, not an
    // aborted process.
    let burn = scenario_file::load(repo_path("examples/scenarios/protected_burn.json")).unwrap();
    let json = scenario_file::to_json(&burn);
    let zero_capacity =
        json.replace("\"die_capacity_j_per_k\": 20.0", "\"die_capacity_j_per_k\": 0.0");
    assert_ne!(zero_capacity, json, "the mutation must hit the node config");

    let rack = std::fs::read_to_string(repo_path("examples/scenarios/hot_rack_bt.json")).unwrap();
    let bad_rack =
        rack.replace("\"recirculation_fraction\": 0.25", "\"recirculation_fraction\": 1.5");
    assert_ne!(bad_rack, rack, "the mutation must hit the rack block");

    let big_ring =
        r#"{"name":"big-ring","nodes":1,"max_time_s":5,"event_capacity":100000000000000}"#;

    let mut cases = vec![
        (zero_capacity, "node_config: die capacity must be positive".to_string()),
        (bad_rack, "rack: recirculation fraction must be in [0, 1]".to_string()),
        (
            big_ring.to_string(),
            "event_capacity must be at most 65536 records (got 100000000000000)".to_string(),
        ),
    ];
    // `1e999` parses to infinity. A thermal value that large used to pass
    // validation and panic mid-run (or inside `Simulation::try_new`), and
    // an infinite time limit let an endless workload run forever.
    for (key, name) in [
        ("die_capacity_j_per_k", "die capacity"),
        ("sink_capacity_j_per_k", "sink capacity"),
        ("die_sink_conductance_w_per_k", "die-sink conductance"),
        ("natural_conductance_w_per_k", "natural conductance"),
        ("airflow_conductance_w_per_k", "airflow conductance"),
        ("airflow_exponent", "airflow exponent"),
        ("ambient_c", "ambient temperature"),
    ] {
        let expected = format!("node_config: {name} must be finite");
        cases.push((with_value(&json, key, "1e999"), expected));
    }
    for (key, value, expected) in [
        ("max_time_s", "1e999", "time limit must be finite and positive"),
        ("cooldown_s", "1e999", "cooldown must be finite"),
        ("cooldown_s", "-1e999", "cooldown must be finite"),
    ] {
        cases.push((with_value(&json, key, value), expected.to_string()));
    }

    // Fault schedules and rack values from JSON skip the checks their
    // builders make: an out-of-order plan was delivered late, a tick-0
    // fault a tick late, and an infinite ambient panicked mid-run.
    for (from, to, expected) in [
        (
            "\"faults\": []",
            r#""faults": [[0, {"events": [[10.0, "FanFailure"], [1.0, {"AmbientStep": 40.0}]]}]]"#,
            "fault plan (node 0): event times must be in order",
        ),
        (
            "\"faults\": []",
            r#""faults": [[0, {"events": [[1.0, {"AmbientStep": 1e999}]]}]]"#,
            "fault plan (node 0): ambient step must be finite",
        ),
        (
            "\"faults\": []",
            r#""faults": [[1, {"events": [[1.0, {"SensorJitter": -1.0}]]}]]"#,
            "fault plan (node 1): sensor jitter must be finite and non-negative",
        ),
        (
            "\"tick_faults\": []",
            r#""tick_faults": [[0, {"events": [[0, "PwmStuck"]]}]]"#,
            "tick-fault schedule (node 0): tick faults are 1-based (delivered at the start of \
             that tick)",
        ),
        (
            "\"tick_faults\": []",
            r#""tick_faults": [[0, {"events": [[9, "PwmStuck"], [3, "PwmRelease"]]}]]"#,
            "tick-fault schedule (node 0): event ticks must be in order",
        ),
    ] {
        let text = json.replacen(from, to, 1);
        assert_ne!(text, json, "the mutation must hit {from}");
        cases.push((text, expected.to_string()));
    }
    for (key, name) in [
        ("air_capacity_j_per_k", "air capacity"),
        ("supply_air_c", "supply air temperature"),
        ("crac_conductance_w_per_k", "CRAC conductance"),
    ] {
        cases.push((with_value(&rack, key, "1e999"), format!("rack: {name} must be finite")));
    }

    for (text, expected) in cases {
        match scenario_file::parse(&text) {
            Err(scenario_file::ScenarioFileError::Invalid(e)) => {
                assert_eq!(e.message(), expected);
            }
            other => panic!("expected a validation error naming {expected:?}, got {other:?}"),
        }
    }
}

/// `json` with the number after the first `"key": ` replaced by `value`.
#[test]
fn an_ungrantable_event_ring_block_is_a_named_error_at_run_time() {
    // Valid, but 2^40 nodes' 65,536-record rings are 2^61 B: the reservation
    // must come back as the CLI's named error, not a panic or an abort.
    let huge =
        r#"{"name":"huge-fleet","nodes":1099511627776,"max_time_s":5,"event_capacity":65536}"#;
    let scenario = scenario_file::parse(huge).expect("the scenario validates");
    let err = scenario_file::run_and_render_with_journal(
        scenario,
        None,
        unitherm::obs::JournalFormat::Jsonl,
    )
    .expect_err("no allocator grants the rings");
    assert_eq!(
        err.to_string(),
        "unusable scenario: event rings: the allocator refused 2305843009213693952 B for \
         1099511627776 rings of 65536 records"
    );
}

fn with_value(json: &str, key: &str, value: &str) -> String {
    let field = format!("\"{key}\": ");
    let start =
        json.find(&field).unwrap_or_else(|| panic!("{key} not in the document")) + field.len();
    let end = start + json[start..].find([',', '\n', '}']).expect("the number ends");
    format!("{}{value}{}", &json[..start], &json[end..])
}
