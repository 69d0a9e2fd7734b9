//! The pool's promises about a simulation pass wider than one shard.
//!
//! A shard that panics mid-pass, whether it runs on the pass's coordinator
//! (shard 0) or on another thread, re-raises its own message from
//! `Simulation::run`, exactly as the one-shard run of the same document
//! does, and the process's pool keeps running passes bit-identically
//! afterwards.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};

use unitherm_cluster::report_digest;
use unitherm_cluster::scenario::{Scenario, WorkloadSpec};
use unitherm_cluster::scheme::FanScheme;
use unitherm_cluster::sim::Simulation;
use unitherm_core::control_array::Policy;

/// An 8-node burn with recording off.
fn burn(name: &str) -> Scenario {
    Scenario::new(name)
        .with_nodes(8)
        .with_seed(0x5EED)
        .with_workload(WorkloadSpec::CpuBurn)
        .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
        .with_max_time(20.0)
        .with_recording(false)
}

/// `burn` with one node whose die-to-sink conductance drives its die
/// temperature non-finite mid-run, tripping an assert. The value validates;
/// if validation ever rejects it, pick another that validates and then
/// panics: this test is about the panic path, not the constant.
fn burn_panicking_on(node: usize) -> Scenario {
    let mut cfg = burn("x").node_config;
    cfg.thermal.die_sink_conductance_w_per_k = 1e18;
    burn(&format!("panic-on-{node}")).with_node_config(node, cfg)
}

/// The panic message of `payload`, whichever string type it carries.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// Runs `scenario` sharded `width` ways and returns its panic message.
fn panic_at(scenario: Scenario, width: usize) -> String {
    let sim = Simulation::try_with_width(scenario, width).expect("the scenario validates");
    assert_eq!(sim.width(), width, "forced width not built");
    let payload = panic::catch_unwind(AssertUnwindSafe(|| sim.run()))
        .expect_err("the scenario panics mid-run");
    panic_message(&*payload)
}

fn digest_at(scenario: Scenario, width: usize) -> String {
    report_digest(&Simulation::try_with_width(scenario, width).expect("valid").run())
}

#[test]
fn a_panicking_shard_reraises_its_message_and_the_next_wide_run_matches_serial() {
    // Node 7 sits in shard 3, which the coordinator does not run; node 0
    // sits in shard 0, which it always runs.
    for node in [7, 0] {
        let want = panic_at(burn_panicking_on(node), 1);
        assert!(!want.is_empty(), "node {node}: the one-shard run names its panic");
        let got = panic_at(burn_panicking_on(node), 4);
        assert_eq!(got, want, "node {node}: the 4-wide run re-raises the same panic");

        let serial = digest_at(burn("after"), 1);
        assert_eq!(digest_at(burn("after"), 2), serial, "node {node}: the next 2-wide run");
    }
}

#[test]
fn concurrent_sweeps_of_wide_simulations_match_serial_in_input_order() {
    // Four callers sweep at once, each over scenarios wide enough for a
    // multi-shard pass on any host with two cores or more: sweep jobs and
    // the passes nested in them share the process's helpers, and none of
    // it may deadlock or move a bit.
    use unitherm_cluster::sweep::run_scenarios_parallel;
    use unitherm_cluster::MIN_NODES_PER_SHARD;

    let build = |caller: usize| -> Vec<Scenario> {
        (0..3)
            .map(|i| {
                let mut s = burn(&format!("c{caller}-{i}"))
                    .with_nodes(8 * MIN_NODES_PER_SHARD)
                    .with_seed((caller * 10 + i) as u64)
                    .with_max_time(2.0 + i as f64)
                    .with_threads(4);
                s.fan =
                    FanScheme::dynamic(Policy::new(30 + 10 * (caller + i) as u32).unwrap(), 100);
                s
            })
            .collect()
    };
    let serial: Vec<Vec<String>> =
        (0..4).map(|c| build(c).into_iter().map(|s| digest_at(s, 1)).collect()).collect();
    let concurrent: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|c| {
                scope.spawn(move || {
                    run_scenarios_parallel(build(c), 4).iter().map(report_digest).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller")).collect()
    });
    assert_eq!(concurrent, serial);
}
