//! Fault-injection resilience: what happens to the control stack when the
//! world misbehaves — sensors go dark, i2c buses wedge, fans die, machine
//! rooms heat up — with and without the failsafe watchdog.

use unitherm::cluster::{DvfsScheme, FanScheme, Scenario, Simulation, WorkloadSpec};
use unitherm::core::control_array::Policy;
use unitherm::core::failsafe::FailsafeConfig;
use unitherm::obs::{read_journal, JournalWriter};
use unitherm::simnode::faults::{FaultEvent, FaultPlan};

/// A sustained-burn scenario where the sensor goes permanently dark at
/// t = 0.5 s, before the fan controller has meaningfully ramped. The frozen
/// controller holds a low duty against a full-power workload.
fn blind_sensor_scenario(name: &str) -> Scenario {
    let sustained = unitherm::workload::burn::BurnConfig {
        burst_s: (250.0, 300.0),
        gap_s: (4.0, 6.0),
        ..Default::default()
    };
    Scenario::new(name)
        .with_nodes(1)
        .with_seed(0xB11D)
        .with_workload(WorkloadSpec::CpuBurnTuned(sustained))
        .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
        .with_max_time(600.0)
        .with_fault(0, FaultPlan::none().at(0.5, FaultEvent::SensorDropout))
}

#[test]
fn blind_controller_without_failsafe_overheats() {
    let report = Simulation::new(blind_sensor_scenario("blind-unprotected")).run();
    let node = &report.nodes[0];
    // The controller froze on the last (cool) reading while the burn kept
    // heating; the recorded temperature trace is the *stale* reading, so
    // the hardware monitor counters are the ground truth here.
    assert!(
        node.throttle_events > 0 || node.shut_down,
        "a blind controller under sustained burn must end in a hardware \
         emergency (frozen duty {:.0}%)",
        node.duty.last().map(|s| s.value).unwrap_or(0.0)
    );
}

#[test]
fn failsafe_rescues_a_blind_controller() {
    let report = Simulation::new(
        blind_sensor_scenario("blind-protected").with_failsafe(FailsafeConfig::default()),
    )
    .run();
    let node = &report.nodes[0];
    assert!(node.failsafe_engagements > 0, "failsafe must engage on the blackout");
    assert_eq!(node.throttle_events, 0, "no hardware emergency under failsafe");
    assert!(!node.shut_down);
    // Full fan under burn holds the node in the mid-50s.
    let settled = node.duty.value_at(report.wall_time_s).unwrap_or(0.0);
    assert!(settled >= 99.0, "failsafe holds the fan at full duty, got {settled}%");
}

#[test]
fn failsafe_releases_after_sensor_recovery() {
    let plan =
        FaultPlan::none().at(15.0, FaultEvent::SensorDropout).at(120.0, FaultEvent::SensorRestore);
    let report = Simulation::new(
        Scenario::new("blackout-recovery")
            .with_nodes(1)
            .with_seed(0xB11E)
            .with_workload(WorkloadSpec::Idle) // idle: cools quickly once fan maxes
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_failsafe(FailsafeConfig::default())
            .with_max_time(400.0)
            .with_fault(0, plan),
    )
    .run();
    let node = &report.nodes[0];
    assert_eq!(node.failsafe_engagements, 1);
    // After recovery + cooling the failsafe released: the fan is no longer
    // pinned at 100 % by the end of the run (idle needs almost none).
    let final_duty = node.duty.last().expect("recorded").value;
    assert!(final_duty < 100.0, "failsafe released, duty {final_duty}%");
}

#[test]
fn failsafe_panic_line_preempts_hardware_throttle() {
    // A weak constant fan under burn marches toward the 70 °C hardware
    // throttle; the failsafe's 65 °C panic line must fire first and force
    // DVFS down, keeping the hardware monitor out of it.
    let report = Simulation::new(
        Scenario::new("panic-line")
            .with_nodes(1)
            .with_seed(0xB11F)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::Constant { duty: 15 })
            .with_failsafe(FailsafeConfig::default())
            .with_max_time(600.0),
    )
    .run();
    let node = &report.nodes[0];
    assert!(node.failsafe_engagements > 0, "panic line must fire");
    assert_eq!(node.throttle_events, 0, "graceful path beats the hardware monitor");
    assert!(node.temp_summary.max < 70.0, "max {:.1}°C", node.temp_summary.max);
}

#[test]
fn ambient_excursion_is_absorbed_by_the_controllers() {
    // A machine-room hot spot (ambient +10 °C) mid-run: the coordinated
    // controllers absorb it without a hardware emergency.
    let report = Simulation::new(
        Scenario::new("hot-spot")
            .with_nodes(1)
            .with_seed(0xB120)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_max_time(500.0)
            .with_fault(0, FaultPlan::none().at(100.0, FaultEvent::AmbientStep(32.0))),
    )
    .run();
    let node = &report.nodes[0];
    assert_eq!(node.throttle_events, 0, "max {:.1}°C", node.temp_summary.max);
    // The excursion shows in the trace…
    assert!(node.temp_summary.max > 50.0);
    // …and the fan responded by running harder after the step.
    let before = node.duty.summary_between(0.0, 100.0).mean;
    let after = node.duty.summary_between(150.0, 500.0).mean;
    assert!(after > before, "duty before {before:.1}% vs after {after:.1}%");
}

#[test]
fn i2c_wedge_leaves_last_duty_but_daemons_survive() {
    // The fan-controller bus NACKs everything from t = 30 s: duty writes
    // fail silently (the daemon keeps running), the fan holds its last
    // commanded duty, and the simulation completes without panicking.
    let report = Simulation::new(
        Scenario::new("i2c-wedge")
            .with_nodes(1)
            .with_seed(0xB121)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_max_time(400.0)
            .with_fault(0, FaultPlan::none().at(30.0, FaultEvent::I2cFailure)),
    )
    .run();
    let node = &report.nodes[0];
    // The in-band side is unaffected by the fan bus: tDVFS still protects
    // the node once the stuck fan lets temperatures climb.
    assert!(
        node.freq_transitions > 0,
        "tDVFS must compensate for the wedged fan bus (max {:.1}°C)",
        node.temp_summary.max
    );
    assert!(!node.shut_down);
}

/// End-to-end NaN resilience: a sensor that is dark from the very first
/// tick starves the control plane of samples for the whole run. Report
/// aggregation must skip whatever non-finite values that produces instead
/// of panicking (report.rs used to `partial_cmp(..).expect(..)` on them),
/// the report must survive a JSON round trip, the journal must read back
/// cleanly — and all of it bit-identically 1, 2 and 4 wide (a forced pool
/// width: two nodes are far below the nodes-per-shard grain).
#[test]
fn sensor_dark_from_first_tick_aggregates_and_round_trips() {
    let build = || {
        Scenario::new("dark-from-birth")
            .with_nodes(2)
            .with_seed(0xB122)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_max_time(30.0)
            // Both sensors die before the 4 Hz sampler ever produces a
            // reading; no restore, no failsafe — worst case for the
            // aggregation layer.
            .with_fault(0, FaultPlan::none().at(0.05, FaultEvent::SensorDropout))
            .with_fault(1, FaultPlan::none().at(0.05, FaultEvent::SensorDropout))
    };

    let mut jsons = Vec::new();
    for width in [1usize, 2, 4] {
        let dir = std::env::temp_dir().join(format!("unitherm_nan_e2e_{width}"));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("events.jsonl");
        let file = std::fs::File::create(&journal_path).unwrap();
        let mut sim = Simulation::try_with_width(build(), width).expect("valid scenario");
        sim.attach_journal(Box::new(JournalWriter::new(std::io::BufWriter::new(file))));
        let report = sim.run();

        // Every aggregate that used to assume finite inputs must answer
        // without panicking and stay finite itself.
        for value in [report.avg_temp_c(), report.avg_node_power_w(), report.avg_duty_pct()] {
            assert!(value.is_finite(), "averages must skip non-finite samples, got {value}");
        }
        // An all-dark trace has no samples: the max folds to -inf (its
        // documented empty value), but it must never be NaN.
        assert!(!report.max_temp_c().is_nan());
        let _ = report.first_dvfs_event_time_s();
        assert!(!report.summary_line().is_empty());

        // The report must survive serde and the journal must read back.
        let json = serde_json::to_string(&report).expect("report serializes");
        let back: unitherm::cluster::RunReport =
            serde_json::from_str(&json).expect("report deserializes");
        assert_eq!(back.nodes.len(), 2);
        let reader = std::io::BufReader::new(std::fs::File::open(&journal_path).unwrap());
        read_journal(reader).expect("journal round-trips");
        let _ = std::fs::remove_dir_all(&dir);
        jsons.push(json);
    }
    assert_eq!(jsons[0], jsons[1], "1-wide vs 2-wide reports diverged");
    assert_eq!(jsons[1], jsons[2], "2-wide vs 4-wide reports diverged");
}
