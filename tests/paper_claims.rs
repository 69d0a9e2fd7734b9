//! The paper's prose claims, pinned as tests.
//!
//! Each test quotes a sentence from Li/Ge/Cameron (ICPP 2010) and verifies
//! the reproduced system exhibits the claimed behaviour. These complement
//! the figure/table shape checks in `tests/experiment_shapes.rs`: shapes
//! validate the evaluation, these validate the narrative.

use unitherm::cluster::{DvfsScheme, FanScheme, Scenario, Simulation, WorkloadSpec};
use unitherm::core::actuator::fan_mode_set;
use unitherm::core::classify::{BehaviorClassifier, ThermalBehavior};
use unitherm::core::control_array::Policy;
use unitherm::core::controller::{ControllerConfig, UnifiedController};
use unitherm::core::tdvfs::Tdvfs;
use unitherm::workload::{NpbBenchmark, NpbClass};

const LADDER: [u32; 5] = [2400, 2200, 2000, 1800, 1000];

/// §1: "scaling down DVFS processor frequency cubically reduces power
/// consumption" — dynamic power scales as V²f, which over a ladder where
/// voltage falls with frequency is super-linear (the cubic f·V(f)² law).
#[test]
fn claim_dvfs_reduces_power_superlinearly() {
    use unitherm::simnode::{Node, NodeConfig};
    // Isolate dynamic power: two fresh nodes at the same die temperature,
    // one busy and one idle, differ only in it.
    let mut busy = Node::new(NodeConfig::default(), 1);
    let mut idle = Node::new(NodeConfig::default(), 1);
    busy.view().set_utilization(1.0);
    let mut dyn_at = |mhz: u32| {
        let (mut b, mut i) = (busy.view(), idle.view());
        b.set_frequency_khz(mhz * 1000).unwrap();
        i.set_frequency_khz(mhz * 1000).unwrap();
        b.heat_output_w() - i.heat_output_w()
    };
    let p_top = dyn_at(2400);
    let p_bottom = dyn_at(1000);
    let freq_ratio = 2400.0 / 1000.0;
    let power_ratio = p_top / p_bottom;
    assert!(
        power_ratio > freq_ratio * 1.5,
        "dynamic power falls super-linearly: {power_ratio:.2}× power for {freq_ratio:.2}× frequency"
    );
}

/// §1: "Out-of-band techniques cool down hot spots without impacting system
/// computational capacity and application performance."
#[test]
fn claim_fan_control_costs_no_performance() {
    let run = |fan: FanScheme| {
        Simulation::new(
            Scenario::new("fan-perf")
                .with_nodes(4)
                .with_seed(31)
                .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::B })
                .with_fan(fan)
                .with_max_time(600.0)
                .with_recording(false),
        )
        .run()
    };
    let weak = run(FanScheme::Constant { duty: 30 });
    let strong = run(FanScheme::Constant { duty: 100 });
    // Identical execution times (to the tick) despite very different
    // thermal outcomes: the fan is outside the critical path.
    assert!(
        (weak.exec_time_s - strong.exec_time_s).abs() < 0.5,
        "fan speed must not affect execution time: {:.1} vs {:.1}",
        weak.exec_time_s,
        strong.exec_time_s
    );
    assert!(weak.avg_temp_c() > strong.avg_temp_c() + 3.0, "but it does affect temperature");
}

/// §1: "relying on cooling fan solely may fail to cool down the hot spots"
/// — a capped fan alone cannot keep BT under the emergency-free envelope
/// that the hybrid controller maintains.
#[test]
fn claim_fan_alone_is_not_enough() {
    let run = |dvfs: DvfsScheme| {
        Simulation::new(
            Scenario::new("fan-alone")
                .with_nodes(1)
                .with_seed(32)
                .with_workload(WorkloadSpec::CpuBurnTuned(unitherm::workload::burn::BurnConfig {
                    burst_s: (200.0, 250.0),
                    gap_s: (4.0, 6.0),
                    ..Default::default()
                }))
                .with_fan(FanScheme::dynamic(Policy::MODERATE, 15))
                .with_dvfs(dvfs)
                .with_max_time(600.0)
                .with_recording(false),
        )
        .run()
    };
    let fan_only = run(DvfsScheme::None);
    let hybrid = run(DvfsScheme::tdvfs(Policy::MODERATE));
    assert!(
        fan_only.total_throttle_events() > 0,
        "a 15 %-capped fan alone must fail under sustained burn"
    );
    assert_eq!(hybrid.total_throttle_events(), 0, "the in-band backup prevents the emergency");
}

/// §3.1: "Our temperature controller recognizes these types of workload
/// phases … It is also intelligent not to respond to periods of jitter."
#[test]
fn claim_controller_ignores_jitter_but_not_changes() {
    let mut fan =
        UnifiedController::new(&fan_mode_set(100), Policy::MODERATE, ControllerConfig::default());
    // Pure jitter for 100 rounds: no response.
    for i in 0..400 {
        let t = 45.0 + if i % 2 == 0 { 0.3 } else { -0.3 };
        assert!(fan.observe(t).is_none(), "sample {i}");
    }
    assert_eq!(fan.current_mode(), 1);
    // A genuine sudden change: immediate response.
    fan.observe(45.0);
    fan.observe(45.0);
    fan.observe(50.0);
    assert!(fan.observe(50.0).is_some(), "sudden change must be acted on");
}

/// §3.1 taxonomy: the classifier distinguishes all three behaviour types
/// the controller is built around.
#[test]
fn claim_three_behaviour_types_are_distinguishable() {
    let sudden = {
        let mut t = vec![45.0; 6];
        t.extend(vec![51.0; 10]);
        BehaviorClassifier::classify_trace(t)
    };
    assert!(sudden.contains(&ThermalBehavior::Sudden));

    let gradual = BehaviorClassifier::classify_trace((0..60).map(|i| 40.0 + 0.08 * f64::from(i)));
    assert!(gradual.contains(&ThermalBehavior::Gradual));
    assert!(!gradual.contains(&ThermalBehavior::Sudden));

    let jitter = BehaviorClassifier::classify_trace(
        (0..40).map(|i| 45.0 + if i % 2 == 0 { 0.5 } else { -0.5 }),
    );
    assert!(jitter.iter().all(|&l| l == ThermalBehavior::Jitter));
}

/// §3.2.2: "Controls using larger P_p tend to be cost-oriented, while ones
/// using smaller P_p tend to be temperature-oriented."
#[test]
fn claim_pp_is_a_temperature_vs_cost_knob() {
    let run = |pp: u32| {
        Simulation::new(
            Scenario::new("pp-knob")
                .with_nodes(1)
                .with_seed(33)
                .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::B })
                .with_fan(FanScheme::dynamic(Policy::new(pp).unwrap(), 100))
                .with_max_time(600.0)
                .with_recording(false),
        )
        .run()
    };
    let temp_oriented = run(10);
    let cost_oriented = run(90);
    assert!(
        temp_oriented.avg_temp_c() < cost_oriented.avg_temp_c(),
        "small P_p runs cooler: {:.2} vs {:.2}",
        temp_oriented.avg_temp_c(),
        cost_oriented.avg_temp_c()
    );
    assert!(
        temp_oriented.avg_duty_pct() > cost_oriented.avg_duty_pct(),
        "…by spending more fan: {:.1}% vs {:.1}%",
        temp_oriented.avg_duty_pct(),
        cost_oriented.avg_duty_pct()
    );
}

/// §4.3: "tDVFS has significantly reduced the number of frequency changes
/// …, which is greatly beneficial to the system reliability."
#[test]
fn claim_tdvfs_makes_orders_of_magnitude_fewer_transitions() {
    let run = |dvfs: DvfsScheme| {
        Simulation::new(
            Scenario::new("transitions")
                .with_nodes(4)
                .with_seed(34)
                .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::B })
                .with_fan(FanScheme::dynamic(Policy::MODERATE, 50))
                .with_dvfs(dvfs)
                .with_max_time(600.0)
                .with_recording(false),
        )
        .run()
    };
    let cpuspeed = run(DvfsScheme::cpuspeed());
    let tdvfs = run(DvfsScheme::tdvfs(Policy::MODERATE));
    assert!(
        tdvfs.total_freq_transitions() * 10 <= cpuspeed.total_freq_transitions(),
        "tDVFS {} vs CPUSPEED {}",
        tdvfs.total_freq_transitions(),
        cpuspeed.total_freq_transitions()
    );
}

/// §4.3 (Figure 8): "tDVFS algorithm scales up frequency to its original
/// value once the temperature is consistently below the threshold so as to
/// avoid performance loss."
#[test]
fn claim_tdvfs_restores_the_original_frequency() {
    let mut d = Tdvfs::with_defaults(&LADDER, Policy::MODERATE);
    for _ in 0..160 {
        let _ = d.observe(58.0); // hot: scales down
    }
    assert!(d.current_frequency_mhz() < 2400);
    let mut restored = None;
    for _ in 0..80 {
        restored = d.observe(45.0).or(restored); // cool: restores
    }
    assert_eq!(
        restored.map(|e| e.frequency_mhz()),
        Some(2400),
        "direct jump back to the original frequency"
    );
}

/// §5: "using a less powerful fan can achieve the same thermal efficiency
/// as a more powerful fan if we carefully design our fan controller
/// methods" — under dynamic control the 50 % and 75 % caps land within ~3 °C
/// of each other while the 25 % cap is far behind.
#[test]
fn claim_weaker_fan_matches_stronger_under_proactive_control() {
    let run = |cap: u8| {
        Simulation::new(
            Scenario::new("caps")
                .with_nodes(1)
                .with_seed(35)
                .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::B })
                .with_fan(FanScheme::dynamic(Policy::MODERATE, cap))
                .with_max_time(600.0)
                .with_recording(false),
        )
        .run()
    };
    let t25 = run(25).avg_temp_c();
    let t50 = run(50).avg_temp_c();
    let t75 = run(75).avg_temp_c();
    assert!(
        t50 - t75 < t25 - t50,
        "50 vs 75 gap ({:.1}) smaller than 25 vs 50 gap ({:.1})",
        t50 - t75,
        t25 - t50
    );
}
