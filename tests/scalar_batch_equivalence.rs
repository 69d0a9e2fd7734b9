//! Property test pinning the structure-of-arrays contract: for any
//! scenario, `Simulation` must produce a bit-identical `RunReport` whether
//! the physics runs through the `PhysicsBatch` lanes or the scalar
//! per-node tick (`Scenario::force_scalar`), at any worker-pool width.
//!
//! The fixed-scenario thread-identity suite lives in `parallel_tick.rs`;
//! this file randomizes over the configuration space instead: fleet size,
//! seed, control scheme, workload (endless burn and the finite NPB path),
//! sample cadence, run length, and per-node fault plans (faulted nodes
//! drop to scalar passthrough, so mixed batch/scalar shards are exercised
//! too). Each case compares FNV digests of the complete reports — traces,
//! counters, events — across scalar 1-thread vs batched 1/2/4-thread runs.

use proptest::prelude::*;
use unitherm::cluster::{report_digest, DvfsScheme, FanScheme, Scenario, Simulation, WorkloadSpec};
use unitherm::core::control_array::Policy;
use unitherm::simnode::faults::{FaultEvent, FaultPlan};
use unitherm::workload::{NpbBenchmark, NpbClass};

/// One randomized scenario configuration.
#[derive(Debug, Clone)]
struct Case {
    nodes: usize,
    seed: u64,
    scheme: u8,
    workload: u8,
    sample_period_s: f64,
    max_time_s: f64,
    /// `(node, time, event)` triples; node is reduced modulo the fleet size.
    faults: Vec<(usize, f64, u8)>,
}

fn fault_event(code: u8) -> FaultEvent {
    match code % 5 {
        0 => FaultEvent::FanFailure,
        1 => FaultEvent::SensorDropout,
        2 => FaultEvent::I2cFailure,
        3 => FaultEvent::PwmStuck,
        _ => FaultEvent::AmbientStep(38.0),
    }
}

fn build(case: &Case) -> Scenario {
    let mut s = Scenario::new("scalar-batch-equivalence")
        .with_nodes(case.nodes)
        .with_seed(case.seed)
        .with_max_time(case.max_time_s)
        .with_recording(true);
    s.sample_period_s = case.sample_period_s;
    s = match case.workload % 2 {
        0 => s.with_workload(WorkloadSpec::CpuBurn),
        _ => s.with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A }),
    };
    s = match case.scheme % 4 {
        0 => s.with_fan(FanScheme::dynamic(Policy::MODERATE, 100)),
        1 => s.with_fan(FanScheme::ChipAutomatic { max_duty: 100 }),
        2 => s
            .with_fan(FanScheme::dynamic(Policy::AGGRESSIVE, 100))
            .with_dvfs(DvfsScheme::tdvfs(Policy::AGGRESSIVE)),
        _ => s
            .with_fan(FanScheme::Constant { duty: 60 })
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE)),
    };
    for &(node, time_s, code) in &case.faults {
        let node = node % case.nodes;
        s = s.with_fault(node, FaultPlan::none().at(time_s, fault_event(code)));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_report_matches_scalar_at_any_thread_count(
        nodes in 1usize..=6,
        seed in any::<u64>(),
        scheme in any::<u8>(),
        workload in any::<u8>(),
        sample_idx in 0usize..3,
        max_time_s in 8.0f64..30.0,
        faults in prop::collection::vec((0usize..6, 1.0f64..25.0, any::<u8>()), 0..=2),
    ) {
        let case = Case {
            nodes,
            seed,
            scheme,
            workload,
            sample_period_s: [0.25, 0.5, 1.0][sample_idx],
            max_time_s,
            faults,
        };
        let scalar = Simulation::new(build(&case).with_force_scalar(true)).run();
        let want = report_digest(&scalar);
        // Forced widths: these clusters are below the nodes-per-shard grain.
        for width in [1usize, 2, 4] {
            let batched =
                Simulation::try_with_width(build(&case), width).expect("valid case").run();
            prop_assert_eq!(
                &report_digest(&batched),
                &want,
                "batched run diverged from scalar {} wide for {:?}",
                width,
                case
            );
        }
    }
}
