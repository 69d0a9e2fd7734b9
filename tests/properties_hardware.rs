//! Property-based tests over the hardware models: register-protocol
//! fuzzing, actuator invariants, and watchdog state-machine properties.

use proptest::prelude::*;

use unitherm::core::failsafe::{Failsafe, FailsafeAction, FailsafeConfig};
use unitherm::core::feedforward::{FeedforwardConfig, UtilizationFeedforward};
use unitherm::simnode::adt7467::regs;
use unitherm::simnode::i2c::SmbusDevice;
use unitherm::simnode::node::ADT7467_ADDR;
use unitherm::simnode::units::DutyCycle;
use unitherm::simnode::{Node, NodeConfig};
use unitherm::workload::{Phase, PhaseWorkload, WorkState, Workload};

proptest! {
    /// The ADT7467 register model never panics on any byte transaction
    /// sequence, and its commanded duty never exceeds the PWM_MAX register.
    #[test]
    fn adt7467_register_fuzz(ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..300)) {
        let mut node = Node::new(NodeConfig::default(), 1);
        let mut plant = node.view();
        let mut chip = plant.chip();
        for (reg, value, is_write) in ops {
            if is_write {
                let _ = chip.write_byte(reg, value);
            } else {
                let _ = chip.read_byte(reg);
            }
            let max = DutyCycle::from_register(
                chip.read_byte(regs::PWM_MAX).unwrap(),
            );
            prop_assert!(
                chip.commanded_duty() <= max,
                "duty {} exceeds PWM_MAX {}",
                chip.commanded_duty(),
                max
            );
        }
    }

    /// The automatic curve is monotone in temperature for any register
    /// configuration the fuzzer can produce.
    #[test]
    fn adt7467_curve_monotone_under_any_registers(
        pwm_min in any::<u8>(),
        pwm_max in any::<u8>(),
        tmin in 0u8..120,
        tmax in 0u8..120,
    ) {
        let mut node = Node::new(NodeConfig::default(), 1);
        let mut plant = node.view();
        let mut chip = plant.chip();
        let _ = chip.write_byte(regs::PWM_MIN, pwm_min);
        let _ = chip.write_byte(regs::PWM_MAX, pwm_max);
        let _ = chip.write_byte(regs::TMIN, tmin);
        let _ = chip.write_byte(regs::TMAX, tmax);
        let mut last = None;
        for t in 0..=130 {
            let d = chip.static_curve_duty(f64::from(t));
            if let Some(prev) = last {
                // Monotone except for the degenerate tmax <= tmin collapse,
                // which pins at the minimum (still monotone as a constant).
                prop_assert!(d >= prev, "curve dropped at {t}°C: {prev} -> {d}");
            }
            last = Some(d);
        }
    }

    /// Fan dynamics: RPM stays within [0, max_rpm] and never goes negative
    /// for any sequence of duty commands over the SMBus and step lengths.
    #[test]
    fn fan_rpm_bounded(commands in prop::collection::vec((0u8..=100, 0.01f64..3.0), 1..100)) {
        let mut node = Node::new(NodeConfig::default(), 1);
        node.view().smbus_write(ADT7467_ADDR, regs::PWM_CONFIG, 1).unwrap();
        for (duty, dt) in commands {
            let raw = DutyCycle::new(duty).to_register();
            node.view().smbus_write(ADT7467_ADDR, regs::PWM_CURRENT, raw).unwrap();
            node.tick(dt);
            let rpm = node.view().state().fan_rpm;
            prop_assert!(rpm >= 0.0);
            prop_assert!(rpm <= 4300.0 + 1e-9);
        }
    }

    /// Failsafe alternation: engage and release actions strictly alternate,
    /// and the engagement count matches the number of engage actions, for
    /// any observation sequence.
    #[test]
    fn failsafe_actions_alternate(
        obs in prop::collection::vec(prop::option::of(20.0f64..90.0), 1..500)
    ) {
        let mut fs = Failsafe::new(FailsafeConfig::default());
        let mut engaged = false;
        let mut engages = 0u64;
        for o in obs {
            match fs.observe(o) {
                Some(FailsafeAction::Engage(_)) => {
                    prop_assert!(!engaged, "double engage");
                    engaged = true;
                    engages += 1;
                }
                Some(FailsafeAction::Release) => {
                    prop_assert!(engaged, "release while armed");
                    engaged = false;
                }
                None => {}
            }
            prop_assert_eq!(fs.is_engaged(), engaged);
        }
        prop_assert_eq!(fs.engagement_count(), engages);
    }

    /// Feedforward predictions are bounded by the gain (utilization deltas
    /// cannot exceed 1).
    #[test]
    fn feedforward_prediction_bounded(utils in prop::collection::vec(0.0f64..=1.0, 1..300)) {
        let cfg = FeedforwardConfig::default();
        let mut p = UtilizationFeedforward::new(cfg);
        for u in utils {
            if let Some(delta) = p.observe(u) {
                prop_assert!(delta.abs() <= cfg.gain_c_per_util + 1e-9);
                prop_assert!(delta.abs() >= cfg.deadband_util * cfg.gain_c_per_util - 1e-9);
            }
        }
    }

    /// Mixed phase programs (compute / communicate / barrier) preserve the
    /// workload invariants when barriers are released as they appear.
    #[test]
    fn mixed_phase_program_invariants(
        spec in prop::collection::vec((0usize..3, 0.05f64..1.0, 0.0f64..=1.0), 1..15),
        speed in 0.1f64..=1.0,
    ) {
        let phases: Vec<Phase> = spec
            .iter()
            .map(|&(kind, dur, util)| match kind {
                0 => Phase::compute(dur, util, 0.5),
                1 => Phase::comm(dur, util),
                _ => Phase::Barrier,
            })
            .collect();
        let mut w = PhaseWorkload::new(phases);
        let mut barrier_ids = Vec::new();
        for _ in 0..100_000 {
            match w.state() {
                WorkState::Finished => break,
                WorkState::AtBarrier(id) => {
                    // Barrier ids must be strictly increasing.
                    if let Some(&last) = barrier_ids.last() {
                        prop_assert!(id > last);
                    }
                    barrier_ids.push(id);
                    w.release_barrier();
                }
                WorkState::Running => {
                    let out = w.advance(0.05, speed);
                    prop_assert!((0.0..=1.0).contains(&out.utilization));
                }
            }
        }
        prop_assert!(w.is_finished(), "program must terminate");
    }
}
