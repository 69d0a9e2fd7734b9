//! The third technique: ACPI sleep states under the same controller.
//!
//! §3.2.2 of the paper lists "valid sleep states for ACPI-compatible
//! system" alongside fan duties and DVFS frequencies as mode sets the
//! thermal control array can hold. This example runs the *identical*
//! unified controller machinery over C-states and replays a thermal trace
//! through three policies, showing that `P_p` means the same thing for a
//! third, completely different actuator — no new controller code.
//!
//! ```text
//! cargo run --release --example acpi_sleep
//! ```

use unitherm::core::acpi::SleepState;
use unitherm::core::control_array::Policy;
use unitherm::core::controller::{ControllerConfig, UnifiedController};
use unitherm::metrics::TextTable;

/// A synthetic 4 Hz trace: idle, sudden load, hot plateau with jitter,
/// gradual cool-down.
fn trace() -> Vec<f64> {
    let mut t = vec![42.0; 120];
    for i in 0..40 {
        t.push((42.0 + f64::from(i)).min(58.0));
    }
    for i in 0..240 {
        t.push(58.0 + if i % 2 == 0 { 0.3 } else { -0.3 });
    }
    for i in 0..240 {
        t.push(58.0 - 0.05 * f64::from(i));
    }
    t
}

fn main() {
    let mut table = TextTable::new(
        "ACPI C-state control under the unified controller (same trace, three policies)",
        &["P_p", "deepest state used", "final state", "time in C0 (%)", "decisions"],
    );

    for pp in [25u32, 50, 75] {
        let policy = Policy::new(pp).expect("valid");
        let mut ctl = UnifiedController::new(&SleepState::ALL, policy, ControllerConfig::default());
        let mut deepest = SleepState::C0;
        let mut c0_samples = 0usize;
        let mut total = 0usize;
        for temp in trace() {
            let _ = ctl.observe(temp);
            let mode = ctl.current_mode();
            deepest = deepest.max(mode);
            total += 1;
            if mode == SleepState::C0 {
                c0_samples += 1;
            }
        }
        let stats = ctl.stats();
        table.row(&[
            pp.to_string(),
            deepest.to_string(),
            ctl.current_mode().to_string(),
            format!("{:.0}", 100.0 * c0_samples as f64 / total as f64),
            (stats.level1 + stats.level2).to_string(),
        ]);
    }

    println!("{}", table.render());
    println!(
        "interpretation: a small P_p maps the same index motion onto deeper idle\n\
         states (more heat removed, more wake-up latency risked) — the identical\n\
         trade-off the knob expresses for fans and DVFS. Residency power factors:\n\
         C0={:.2} C1={:.2} C2={:.2} C3={:.2}; wake-up latencies: {}/{}/{}/{} µs.",
        SleepState::C0.power_fraction(),
        SleepState::C1.power_fraction(),
        SleepState::C2.power_fraction(),
        SleepState::C3.power_fraction(),
        SleepState::C0.wakeup_latency_us(),
        SleepState::C1.wakeup_latency_us(),
        SleepState::C2.wakeup_latency_us(),
        SleepState::C3.wakeup_latency_us(),
    );
}
