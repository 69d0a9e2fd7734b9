//! The process's thread count under many wide simulations.
//!
//! Every simulation pass wider than one shard runs on the process's one
//! pool of `host cores − 1` helpers, so keeping many wide simulations alive
//! adds no thread beyond those helpers. This is the only test in its
//! binary: another test running beside it would start threads of its own
//! and blur the count.

use unitherm_cluster::scenario::{Scenario, WorkloadSpec};
use unitherm_cluster::sim::Simulation;

/// The `Threads:` line of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("a Threads: line");
    line["Threads:".len()..].trim().parse().expect("a thread count")
}

#[cfg(target_os = "linux")]
#[test]
fn sixteen_live_wide_simulations_add_at_most_the_helpers() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = threads();
    let mut sims: Vec<Simulation> = (0..16)
        .map(|i| {
            let scenario = Scenario::new(format!("wide-{i}"))
                .with_nodes(8)
                .with_workload(WorkloadSpec::CpuBurn)
                .with_recording(false);
            let sim = Simulation::try_with_width(scenario, 4).expect("valid scenario");
            assert_eq!(sim.width(), 4);
            sim
        })
        .collect();
    for _ in 0..5 {
        for sim in &mut sims {
            sim.tick();
        }
    }
    let after = threads();
    assert!(
        after <= before + (cores - 1),
        "{} threads started for 16 live 4-wide simulations on {cores} cores",
        after.saturating_sub(before)
    );
}
