//! Layout regression test for the per-node hot state.
//!
//! The tick passes visit every node's `NodeSim` and workload box each tick,
//! and the 4 Hz sample pass reads each node's whole hot state. Each node also
//! owns an `event_capacity`-slot event ring (10 kB at the default 256 slots)
//! that the passes touch only when an event fires. If a node's ring is
//! allocated between its hot objects and the next node's, consecutive nodes'
//! hot state lands a ring's width apart and every node visit costs a fresh
//! page. `Simulation::build` therefore builds every node's hot state before
//! any ring; this test pins the resulting layout.
//!
//! Like `alloc_free_tick.rs`, this is a contract on the system allocator's
//! behaviour, not on the language: it assumes that allocations made back to
//! back on one thread are placed close together, as glibc's malloc does for
//! objects of this size. It runs as the only test in its binary so no other
//! test's allocations interleave.

use unitherm_cluster::scenario::{Scenario, WorkloadSpec};
use unitherm_cluster::scheme::FanScheme;
use unitherm_cluster::sim::Simulation;
use unitherm_core::control_array::Policy;
use unitherm_obs::EventRecord;

/// Median address distance between consecutive nodes' workload boxes.
fn median_workload_stride(sim: &Simulation) -> usize {
    let addrs: Vec<usize> = sim
        .nodes()
        .iter()
        .map(|ns| (&*ns.workload as *const dyn unitherm_workload::Workload).cast::<u8>() as usize)
        .collect();
    let mut strides: Vec<usize> = addrs.windows(2).map(|w| w[0].abs_diff(w[1])).collect();
    strides.sort_unstable();
    strides[strides.len() / 2]
}

#[test]
fn consecutive_nodes_hot_state_is_closer_than_one_ring() {
    let scenario = Scenario::new("hot-layout")
        .with_nodes(2048)
        .with_workload(WorkloadSpec::CpuBurn)
        .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
        .with_recording(false)
        .with_max_time(60.0);
    let ring_bytes = scenario.event_capacity * std::mem::size_of::<EventRecord>();
    for width in [1, 2] {
        let sim = Simulation::try_with_width(scenario.clone(), width).expect("valid scenario");
        assert_eq!(sim.width(), width);
        let stride = median_workload_stride(&sim);
        assert!(
            stride < ring_bytes,
            "width {width}: consecutive workloads sit a median {stride} B apart, \
             not below one {ring_bytes} B event ring: a ring is allocated between \
             two nodes' hot state"
        );
    }
}
