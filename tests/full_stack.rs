//! Cross-crate integration: a userspace daemon written against the
//! string-based sysfs interface drives the full hardware stack.
//!
//! This is the most end-to-end path in the repository: temperature flows
//! die → sensor → hwmon string attribute → parsed by the "daemon" →
//! two-level window → control array → duty decision → sysfs write →
//! register encode → i2c transaction → ADT7467 → fan → airflow → thermal
//! model. No crate-internal shortcuts.

use unitherm::core::actuator::fan_mode_set;
use unitherm::core::control_array::Policy;
use unitherm::core::controller::{ControllerConfig, UnifiedController};
use unitherm::core::tdvfs::Tdvfs;
use unitherm::hwmon::SysfsTree;
use unitherm::simnode::units::DutyCycle;
use unitherm::simnode::{Node, NodeConfig, NodeView};
use unitherm::workload::{CpuBurn, Workload};

/// A minimal userspace daemon: reads sysfs strings, writes sysfs strings.
struct SysfsDaemon {
    tree: SysfsTree,
    fan: UnifiedController<u8>,
    tdvfs: Tdvfs,
}

impl SysfsDaemon {
    fn new(node: &mut NodeView<'_>) -> Self {
        let mut tree = SysfsTree::new();
        // Take manual control of the PWM channel, Linux-style.
        tree.write(node, "hwmon0/pwm1_enable", "1").expect("manual mode");
        let freqs_khz =
            tree.read(node, "cpufreq/scaling_available_frequencies").expect("ladder readable");
        let freqs_mhz: Vec<u32> =
            freqs_khz.split_whitespace().map(|s| s.parse::<u32>().expect("kHz") / 1000).collect();
        Self {
            tree,
            fan: UnifiedController::new(
                &fan_mode_set(100),
                Policy::MODERATE,
                ControllerConfig::default(),
            ),
            tdvfs: Tdvfs::with_defaults(&freqs_mhz, Policy::MODERATE),
        }
    }

    /// One 4 Hz polling step, entirely through sysfs strings.
    fn poll(&mut self, node: &mut NodeView<'_>) {
        let millic: i64 = self
            .tree
            .read(node, "hwmon0/temp1_input")
            .expect("sensor readable")
            .parse()
            .expect("millidegrees");
        let temp_c = millic as f64 / 1000.0;

        if let Some(decision) = self.fan.observe(temp_c) {
            let raw = DutyCycle::new(decision.mode).to_register();
            self.tree.write(node, "hwmon0/pwm1", &raw.to_string()).expect("pwm writable");
        }
        if let Some(event) = self.tdvfs.observe(temp_c) {
            let khz = event.frequency_mhz() * 1000;
            self.tree
                .write(node, "cpufreq/scaling_setspeed", &khz.to_string())
                .expect("setspeed writable");
        }
    }
}

#[test]
fn sysfs_daemon_controls_the_node_end_to_end() {
    let mut node = Node::new(NodeConfig::default(), 99);
    let mut daemon = SysfsDaemon::new(&mut node.view());
    let mut burn = CpuBurn::new(5);

    let dt = 0.05;
    let mut since_sample = 0.0;
    let mut max_temp: f64 = 0.0;
    for _ in 0..(400.0 / dt) as usize {
        let out = burn.advance(dt, node.view().speed_factor());
        node.view().set_load(out.utilization, out.activity);
        node.tick(dt);
        since_sample += dt;
        if since_sample + 1e-9 >= 0.25 {
            since_sample = 0.0;
            daemon.poll(&mut node.view());
        }
        max_temp = max_temp.max(node.view().die_temp_c());
    }

    // The daemon must have engaged the fan well above its starting duty...
    let final_duty = node.view().fan_duty().percent();
    assert!(final_duty > 20, "daemon raised the fan to {final_duty}%");
    // ...kept the node out of thermal emergency...
    assert_eq!(node.view().throttle_event_count(), 0, "no emergencies (peak {max_temp:.1}°C)");
    assert!(max_temp < 70.0);
    // ...and the chip really is in manual mode with the daemon's duty.
    let mut tree = SysfsTree::new();
    assert_eq!(tree.read(&mut node.view(), "hwmon0/pwm1_enable").unwrap(), "1");
    let pwm_raw: u8 = tree.read(&mut node.view(), "hwmon0/pwm1").unwrap().parse().unwrap();
    assert_eq!(DutyCycle::from_register(pwm_raw).percent(), final_duty);
}

#[test]
fn sysfs_daemon_with_weak_fan_triggers_dvfs() {
    let mut node = Node::new(NodeConfig::default(), 101);
    let mut daemon = SysfsDaemon::new(&mut node.view());
    // Emulate a weak fan: rebuild the fan controller with a 25 % cap.
    daemon.fan =
        UnifiedController::new(&fan_mode_set(25), Policy::MODERATE, ControllerConfig::default());

    let mut burn = CpuBurn::new(6);
    let dt = 0.05;
    let mut since_sample = 0.0;
    for _ in 0..(400.0 / dt) as usize {
        let out = burn.advance(dt, node.view().speed_factor());
        node.view().set_load(out.utilization, out.activity);
        node.tick(dt);
        since_sample += dt;
        if since_sample + 1e-9 >= 0.25 {
            since_sample = 0.0;
            daemon.poll(&mut node.view());
        }
    }

    // The capped fan cannot hold 51 °C under burn: tDVFS must have scaled
    // down through cpufreq at least once.
    assert!(node.view().freq_transition_count() > 0, "tDVFS engaged through the sysfs path");
    assert!(daemon.tdvfs.scale_down_count() > 0);
}

#[test]
fn chip_automatic_mode_needs_no_daemon_at_all() {
    // Baseline sanity for the same stack: leave the chip in automatic mode
    // and verify the hardware curve does the work.
    let mut node = Node::new(NodeConfig::default(), 102);
    node.view().set_utilization(1.0);
    for _ in 0..8000 {
        node.tick(0.05);
    }
    let duty = node.view().fan_duty().percent();
    assert!(duty > 30, "automatic curve responded: {duty}%");
    assert_eq!(node.view().throttle_event_count(), 0);
}
