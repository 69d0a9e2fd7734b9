//! Pins a standalone node's one-slot batch to the bits the retired scalar
//! node tick ended on.
//!
//! Before the scalar tick (`Node::tick` over per-device structs) was
//! deleted, each case below was run through it and the end state recorded:
//! the observable `NodeState`, the meter's energy, the heat output, the
//! tick count, throttle events and the fault log, every `f64` as its bit
//! pattern. A node now ticks its one-slot `PhysicsBatch`, the same lanes a
//! cluster shard ticks, and must end on exactly those bits.
//!
//! The cases cover the lane tick's distinct paths: an idle node, a die
//! small enough for many RC sub-steps per tick, a stiff sink whose split is
//! re-derived every tick, a burn, a node the hardware monitor throttles, a
//! change of step length (which re-derives the per-step constants), and
//! faults delivered between lane ticks.

use unitherm::cluster::Scenario;
use unitherm::simnode::cpu::ThermalCondition;
use unitherm::simnode::faults::{FaultEvent, FaultPlan, TickFaultSchedule};
use unitherm::simnode::{Node, NodeConfig};

/// The recorded end state of one case; every `u64` is an `f64`'s bits.
struct Pinned {
    time_s: u64,
    die_temp_c: u64,
    sink_temp_c: u64,
    fan_duty: u8,
    fan_rpm: u64,
    freq_mhz: u32,
    utilization: u64,
    wall_power_w: u64,
    condition: ThermalCondition,
    energy_j: u64,
    heat_w: u64,
    ticks: u64,
    throttle_events: u64,
    faults: &'static [(u64, FaultEvent)],
}

/// `idle`, as recorded.
const IDLE: Pinned = Pinned {
    time_s: 0x403900000000003e,
    die_temp_c: 0x40445712f39fc329,
    sink_temp_c: 0x40431d3eca22ec7d,
    fan_duty: 15,
    fan_rpm: 0x408427fffeb28b93,
    freq_mhz: 2400,
    utilization: 0x0000000000000000,
    wall_power_w: 0x404a1a7e14ce911a,
    condition: ThermalCondition::Nominal,
    energy_j: 0x40946466cbe08581,
    heat_w: 0x4046301e5e7c61bc,
    ticks: 500,
    throttle_events: 0,
    faults: &[],
};

/// `many_substep`, as recorded.
const MANY_SUBSTEP: Pinned = Pinned {
    time_s: 0x4058ffffffffff07,
    die_temp_c: 0x404d11fed0ab044d,
    sink_temp_c: 0x4048c470a33e2837,
    fan_duty: 51,
    fan_rpm: 0x40a11f00569f2eb7,
    freq_mhz: 2400,
    utilization: 0x3ff0000000000000,
    wall_power_w: 0x405c415e1aa0cc8a,
    condition: ThermalCondition::Nominal,
    energy_j: 0x40c5d0d66b4fb1a9,
    heat_w: 0x4058045cc9d57aa8,
    ticks: 2000,
    throttle_events: 0,
    faults: &[],
};

/// `stiff`, as recorded.
const STIFF: Pinned = Pinned {
    time_s: 0x4058ffffffffff07,
    die_temp_c: 0x404fd56c0be15bc9,
    sink_temp_c: 0x404b783bc4f7564f,
    fan_duty: 63,
    fan_rpm: 0x40a51ebf21a67503,
    freq_mhz: 2400,
    utilization: 0x3ff0000000000000,
    wall_power_w: 0x405cb4925a06956b,
    condition: ThermalCondition::Nominal,
    energy_j: 0x40c64d5e3abb97cb,
    heat_w: 0x4058664932ebff01,
    ticks: 2000,
    throttle_events: 0,
    faults: &[],
};

/// `burn`, as recorded.
const BURN: Pinned = Pinned {
    time_s: 0x4058ffffffffff07,
    die_temp_c: 0x404caa97d89f93bf,
    sink_temp_c: 0x4048747202284703,
    fan_duty: 50,
    fan_rpm: 0x40a084d8bae3bb18,
    freq_mhz: 2400,
    utilization: 0x3ff0000000000000,
    wall_power_w: 0x405c31ca2f5953e2,
    condition: ThermalCondition::Nominal,
    energy_j: 0x40c5c3a86b2dc826,
    heat_w: 0x4057f71f0ea5874d,
    ticks: 2000,
    throttle_events: 0,
    faults: &[],
};

/// `throttling`, as recorded.
const THROTTLING: Pinned = Pinned {
    time_s: 0x406f40000000031b,
    die_temp_c: 0x4050f1d9de12de66,
    sink_temp_c: 0x40501216e3ff23e3,
    fan_duty: 71,
    fan_rpm: 0x40a7d9ffff402ea0,
    freq_mhz: 1000,
    utilization: 0x3ff0000000000000,
    wall_power_w: 0x405025c3194b11ee,
    condition: ThermalCondition::Throttled,
    energy_j: 0x40d176205b362a94,
    heat_w: 0x404b736544993814,
    ticks: 5000,
    throttle_events: 1,
    faults: &[],
};

/// `step_change`, as recorded.
const STEP_CHANGE: Pinned = Pinned {
    time_s: 0x4050dffffffffff6,
    die_temp_c: 0x404b58b2d5a1cab8,
    sink_temp_c: 0x404731d8b7d20196,
    fan_duty: 44,
    fan_rpm: 0x409d6e4f5f2aed2b,
    freq_mhz: 2400,
    utilization: 0x3ff0000000000000,
    wall_power_w: 0x405c0236d62b3931,
    condition: ThermalCondition::Nominal,
    energy_j: 0x40bd40decc2d2af8,
    heat_w: 0x4057ceae9c718a36,
    ticks: 200,
    throttle_events: 0,
    faults: &[],
};

/// `faults`, as recorded.
const FAULTS: Pinned = Pinned {
    time_s: 0x4024000000000004,
    die_temp_c: 0x4047f1499423c62f,
    sink_temp_c: 0x404410239767d6ef,
    fan_duty: 30,
    fan_rpm: 0x40937078a110954c,
    freq_mhz: 2400,
    utilization: 0x3ff0000000000000,
    wall_power_w: 0x405b925fb3dc074b,
    condition: ThermalCondition::Nominal,
    energy_j: 0x4091255b7e762217,
    heat_w: 0x40576f9e25ae3966,
    ticks: 200,
    throttle_events: 0,
    faults: &[
        (20, FaultEvent::AmbientStep(35.0)),
        (30, FaultEvent::PwmStuck),
        (40, FaultEvent::FanFailure),
        (40, FaultEvent::FanFailure),
        (50, FaultEvent::PwmRelease),
        (81, FaultEvent::FanRepair),
    ],
};

/// Asserts that `node` ends on `pinned`, field by field.
fn assert_pinned(node: &mut Node, pinned: &Pinned) {
    let fault_log = node.fault_log().to_vec();
    let v = node.view();
    let s = v.state();
    let bits = |x: f64| format!("{:#018x}", x.to_bits());
    let want = |x: u64| format!("{x:#018x}");
    assert_eq!(bits(s.time_s), want(pinned.time_s), "time");
    assert_eq!(bits(s.die_temp_c), want(pinned.die_temp_c), "die temperature");
    assert_eq!(bits(s.sink_temp_c), want(pinned.sink_temp_c), "sink temperature");
    assert_eq!(s.fan_duty.percent(), pinned.fan_duty, "fan duty");
    assert_eq!(bits(s.fan_rpm), want(pinned.fan_rpm), "fan RPM");
    assert_eq!(s.freq_mhz, pinned.freq_mhz, "effective frequency");
    assert_eq!(bits(s.utilization), want(pinned.utilization), "utilization");
    assert_eq!(bits(s.wall_power_w), want(pinned.wall_power_w), "wall power");
    assert_eq!(s.condition, pinned.condition, "thermal condition");
    assert_eq!(bits(v.energy_j()), want(pinned.energy_j), "meter energy");
    assert_eq!(bits(v.heat_output_w()), want(pinned.heat_w), "heat output");
    assert_eq!(v.ticks(), pinned.ticks, "tick count");
    assert_eq!(v.throttle_event_count(), pinned.throttle_events, "throttle events");
    assert_eq!(fault_log, pinned.faults, "fault log");
}

/// A seed-42 node built from a mutated default config, ticked `ticks`
/// times at 50 ms under a constant utilization.
fn run(mutate: impl FnOnce(&mut NodeConfig), util: f64, ticks: u32) -> Node {
    let mut cfg = NodeConfig::default();
    mutate(&mut cfg);
    let mut node = Node::new(cfg, 42);
    node.view().set_utilization(util);
    for _ in 0..ticks {
        node.tick(0.05);
    }
    node
}

#[test]
fn idle_node_matches_the_scalar_tick() {
    assert_pinned(&mut run(|_| {}, 0.0, 500), &IDLE);
}

#[test]
fn many_substep_node_matches_the_scalar_tick() {
    let mut node = run(|cfg| cfg.thermal.die_capacity_j_per_k = 0.05, 1.0, 2_000);
    assert_pinned(&mut node, &MANY_SUBSTEP);
}

#[test]
fn stiff_node_matches_the_scalar_tick() {
    let mut node = run(|cfg| cfg.thermal.sink_capacity_j_per_k = 1.0, 1.0, 2_000);
    assert_pinned(&mut node, &STIFF);
}

#[test]
fn burn_node_matches_the_scalar_tick() {
    assert_pinned(&mut run(|_| {}, 1.0, 2_000), &BURN);
}

#[test]
fn throttling_node_matches_the_scalar_tick() {
    let mut node = run(|cfg| cfg.thermal.airflow_conductance_w_per_k = 0.4, 1.0, 5_000);
    assert_pinned(&mut node, &THROTTLING);
}

#[test]
fn a_new_step_length_matches_the_scalar_tick() {
    let mut node = Node::new(NodeConfig::default(), 3);
    node.view().set_utilization(1.0);
    for dt in [0.05, 0.25, 1.0, 0.05] {
        for _ in 0..50 {
            node.tick(dt);
        }
    }
    assert_pinned(&mut node, &STEP_CHANGE);
}

#[test]
fn faults_between_lane_ticks_match_the_scalar_tick() {
    let plan = FaultPlan::none()
        .at(1.0, FaultEvent::AmbientStep(35.0))
        .at(2.0, FaultEvent::FanFailure)
        .at(4.0, FaultEvent::FanRepair);
    let scenario = Scenario::new("faults").with_nodes(1).with_fault(0, plan).with_tick_faults(
        0,
        TickFaultSchedule::none()
            .at_tick(30, FaultEvent::PwmStuck)
            .at_tick(40, FaultEvent::FanFailure)
            .at_tick(50, FaultEvent::PwmRelease),
    );
    let mut node = Node::with_faults(NodeConfig::default(), 5, scenario.fault_schedule(0));
    node.view().set_utilization(1.0);
    for _ in 0..200 {
        node.tick(0.05);
    }
    assert_pinned(&mut node, &FAULTS);
}
