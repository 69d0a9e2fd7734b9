//! Layout regression test for the per-node state the tick passes walk.
//!
//! Pass A reads every rank's workload each tick, and the 4 Hz sample pass
//! reads each node's whole hot state (its `NodeSim` and the heap objects it
//! points to: sensor state, daemons, binding). Each node also has an
//! `event_capacity`-record event ring (8 kB of 32-byte frames at the
//! default 256 records) that the passes touch only when an event fires;
//! every ring of a shard lives in one zeroed block. `Simulation::build`
//! therefore reserves the ring blocks first, then allocates per-node state
//! in pass order: each shard's workloads back to back, then every node's
//! hot state. This test pins the resulting layout:
//!
//! * each shard's consecutive workload objects sit a median of 128 B apart
//!   or less, so pass A walks them densely;
//! * consecutive nodes' dynamic-fan daemon boxes sit a median of under
//!   2 kB apart, a quarter of one ring, so no ring or other cold per-node
//!   storage is allocated between two nodes' hot state;
//! * a recording-off `NodeSim` is at most 768 B, so the sample pass's
//!   per-node prefetch touches at most 13 cache lines.
//!
//! Like `alloc_free_tick.rs`, the first two are contracts on the system
//! allocator's behaviour, not on the language: they assume that allocations
//! made back to back on one thread are placed close together, as glibc's
//! malloc does for objects of this size. It runs as the only test in its
//! binary so no other test's allocations interleave.

use unitherm_cluster::node_sim::NodeSim;
use unitherm_cluster::scenario::{Scenario, WorkloadSpec};
use unitherm_cluster::scheme::FanScheme;
use unitherm_cluster::sim::Simulation;
use unitherm_core::actuator::FanDuty;
use unitherm_core::control_array::Policy;
use unitherm_core::control_plane::UnifiedDaemon;
use unitherm_obs::BJL_FRAME_LEN;

/// Median address distance between consecutive items of `addrs`.
fn median_stride(addrs: &[usize]) -> usize {
    let mut strides: Vec<usize> = addrs.windows(2).map(|w| w[0].abs_diff(w[1])).collect();
    strides.sort_unstable();
    strides[strides.len() / 2]
}

#[test]
fn per_node_state_is_laid_out_in_pass_order() {
    let scenario = Scenario::new("hot-layout")
        .with_nodes(2048)
        .with_workload(WorkloadSpec::CpuBurn)
        .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
        .with_recording(false)
        .with_max_time(60.0);
    let ring_bytes = scenario.event_capacity * BJL_FRAME_LEN;
    for width in [1, 2] {
        let sim = Simulation::try_with_width(scenario.clone(), width).expect("valid scenario");
        assert_eq!(sim.width(), width);

        for (s, workloads) in sim.shard_workloads().enumerate() {
            let addrs: Vec<usize> = workloads
                .iter()
                .map(|w| (&**w as *const dyn unitherm_workload::Workload).cast::<u8>() as usize)
                .collect();
            let stride = median_stride(&addrs);
            assert!(
                stride <= 128,
                "width {width}, shard {s}: consecutive workloads sit a median {stride} B \
                 apart, not 128 B or less: other per-node state is allocated between them"
            );
        }

        let daemons: Vec<usize> = sim
            .nodes()
            .iter()
            .map(|ns| {
                let fan = ns.plane.daemon::<UnifiedDaemon<FanDuty>>().expect("dynamic fan scheme");
                (fan as *const UnifiedDaemon<FanDuty>) as usize
            })
            .collect();
        let stride = median_stride(&daemons);
        assert!(
            stride < 2048,
            "width {width}: consecutive nodes' fan daemons sit a median {stride} B apart, \
             not under 2,048 B (one event ring is {ring_bytes} B): a ring or other cold \
             per-node storage is allocated between two nodes' hot state"
        );
    }

    let size = std::mem::size_of::<NodeSim>();
    assert!(size <= 768, "NodeSim is {size} B inline, above 768 B");
}
