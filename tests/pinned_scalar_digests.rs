//! Pins the cluster's reports to digests taken from the retired scalar
//! per-node tick path.
//!
//! Every node now runs its physics on the structure-of-arrays lanes; nodes
//! with a per-tick daemon (CPUSPEED) or a fault source sync with their
//! scalar `Node` through a hook before each lane tick. Before the scalar
//! path was deleted, each case below was run through it at width 1 and its
//! `report_digest` recorded in [`PINNED`]. The lanes must reproduce those
//! digests bit for bit at widths 1, 2 and 4.
//!
//! The cases come from a fixed generator, not proptest, so the table stays
//! valid: 1–6 nodes; cpu-burn and NPB BT.A; dynamic, chip-automatic, tDVFS
//! and CPUSPEED schemes; rack coupling; the failsafe; and time- and
//! tick-addressed faults covering every `FaultEvent` kind, repairs and
//! restores included.

use unitherm::cluster::{
    report_digest, DvfsScheme, FanScheme, RackConfig, Scenario, Simulation, WorkloadSpec,
};
use unitherm::core::control_array::Policy;
use unitherm::core::failsafe::FailsafeConfig;
use unitherm::simnode::faults::{FaultEvent, FaultPlan, TickFaultSchedule};
use unitherm::workload::{NpbBenchmark, NpbClass};

/// SplitMix64: a fixed, dependency-free stream for the case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A value in `[lo, hi)` on a 1/1024 grid, so the f64 is exact.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.below(1024) as f64 / 1024.0
    }
}

/// Time-addressed fault events the generator draws from.
const TIME_FAULTS: [FaultEvent; 10] = [
    FaultEvent::FanFailure,
    FaultEvent::FanRepair,
    FaultEvent::SensorDropout,
    FaultEvent::SensorRestore,
    FaultEvent::I2cFailure,
    FaultEvent::I2cRecovery,
    FaultEvent::PwmStuck,
    FaultEvent::PwmRelease,
    FaultEvent::AmbientStep(38.0),
    FaultEvent::SensorJitter(1.5),
];

/// Injection/recovery pairs for tick-addressed fault windows.
const TICK_WINDOWS: [(FaultEvent, FaultEvent); 5] = [
    (FaultEvent::FanFailure, FaultEvent::FanRepair),
    (FaultEvent::SensorDropout, FaultEvent::SensorRestore),
    (FaultEvent::I2cFailure, FaultEvent::I2cRecovery),
    (FaultEvent::PwmStuck, FaultEvent::PwmRelease),
    (FaultEvent::SensorJitter(2.0), FaultEvent::SensorJitter(0.0)),
];

/// Number of generated cases.
const CASES: usize = 48;

/// Case `k`: the workload alternates, the scheme cycles every two cases,
/// and everything else is drawn from a stream seeded by `k`.
fn case(k: usize) -> Scenario {
    let mut rng = Rng(0x5CA1_AB1E ^ (k as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
    let nodes = 1 + rng.below(6) as usize;
    let max_time_s = rng.range(8.0, 30.0);
    let mut s = Scenario::new(format!("pinned-{k}"))
        .with_nodes(nodes)
        .with_seed(rng.next())
        .with_max_time(max_time_s)
        .with_recording(true);
    s.sample_period_s = [0.25, 0.5, 1.0][rng.below(3) as usize];
    s = if k.is_multiple_of(2) {
        s.with_workload(WorkloadSpec::CpuBurn)
    } else {
        s.with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A })
    };
    s = match (k / 2) % 4 {
        0 => s.with_fan(FanScheme::dynamic(Policy::MODERATE, 100)),
        1 => s.with_fan(FanScheme::ChipAutomatic { max_duty: 100 }),
        2 => s
            .with_fan(FanScheme::dynamic(Policy::AGGRESSIVE, 40))
            .with_dvfs(DvfsScheme::tdvfs(Policy::AGGRESSIVE)),
        _ => s.with_fan(FanScheme::Constant { duty: 60 }).with_dvfs(DvfsScheme::cpuspeed()),
    };
    if k.is_multiple_of(3) {
        s = s.with_rack(RackConfig::default());
    }

    // Every fault goes in as its own entry: a scenario folds all entries
    // listed for a node into its one schedule.
    if k.is_multiple_of(5) {
        // An 8 s sensor dropout outlasts a 4-sample stale budget at every
        // sample period drawn, so the failsafe engages.
        s = s
            .with_failsafe(FailsafeConfig { max_stale_samples: 4, ..FailsafeConfig::default() })
            .with_tick_faults(
                0,
                TickFaultSchedule::none()
                    .at_tick(20, FaultEvent::SensorDropout)
                    .at_tick(180, FaultEvent::SensorRestore),
            );
    }
    for _ in 0..rng.below(4) {
        let node = rng.below(nodes as u64) as usize;
        let event = TIME_FAULTS[rng.below(TIME_FAULTS.len() as u64) as usize];
        let at = rng.range(1.0, max_time_s - 1.0);
        s = s.with_fault(node, FaultPlan::none().at(at, event));
    }
    let last_tick = (max_time_s / s.dt_s) as u64 - 1;
    for _ in 0..rng.below(3) {
        let node = rng.below(nodes as u64) as usize;
        let (inject, recover) = TICK_WINDOWS[rng.below(TICK_WINDOWS.len() as u64) as usize];
        let start = 1 + rng.below(last_tick);
        let hold = 1 + rng.below(200);
        s = s.with_tick_faults(
            node,
            TickFaultSchedule::none().at_tick(start, inject).at_tick(start + hold, recover),
        );
    }
    s
}

/// `report_digest` of each case, recorded from the scalar tick path at
/// width 1.
const PINNED: [&str; CASES] = [
    "fnv1a64:c1f2d836f15284a7",
    "fnv1a64:2e2319242bbc674b",
    "fnv1a64:fb659f7439f69936",
    "fnv1a64:9dbe7fb7b81bf152",
    "fnv1a64:efbd7d4138f64db0",
    "fnv1a64:9fa3fab1229e3d84",
    "fnv1a64:71c3003ede8dcf77",
    "fnv1a64:8e0725090ff59fe3",
    "fnv1a64:be46d43ce60b89d8",
    "fnv1a64:1515a61eae84b6f8",
    "fnv1a64:aee554bfd89d5e6d",
    "fnv1a64:ffa09caf8fa46770",
    "fnv1a64:754e7a8983bcbbdc",
    "fnv1a64:e7e4a4e8a4cadd0d",
    "fnv1a64:820a2652bdb33467",
    "fnv1a64:fcba630e7248accf",
    "fnv1a64:97409e44a0dc86cb",
    "fnv1a64:e88e67d2373daa02",
    "fnv1a64:c2d33e3d2381e680",
    "fnv1a64:d9ac49c094903fda",
    "fnv1a64:d7c9dfcfe7380753",
    "fnv1a64:43ff4d6cc2030e49",
    "fnv1a64:03c801ef43789231",
    "fnv1a64:cd316bc4cb621ea1",
    "fnv1a64:aa1f1d001e61cffc",
    "fnv1a64:cb8d58149ae28fb1",
    "fnv1a64:eba67659cbc336ff",
    "fnv1a64:12ee89ca60c98c2c",
    "fnv1a64:d33d74df717bb3d4",
    "fnv1a64:194c57a6db5a96bd",
    "fnv1a64:1a2eca5c8c0b6c1d",
    "fnv1a64:89382316775a06df",
    "fnv1a64:6543a07729d1a06e",
    "fnv1a64:02f94ad240ad9796",
    "fnv1a64:f1a16966d945ba8a",
    "fnv1a64:0f6c2a974e1d46ad",
    "fnv1a64:c8fc45c32106a5cc",
    "fnv1a64:d584b693899e718f",
    "fnv1a64:0dffc2ec94ea2d56",
    "fnv1a64:4758b6c592ff7a53",
    "fnv1a64:ee75b659d47ef69b",
    "fnv1a64:8834d8029420d758",
    "fnv1a64:f01f29c38ecfcd2b",
    "fnv1a64:937ae0d1cccdb0c8",
    "fnv1a64:ecb8f538fbf8ed02",
    "fnv1a64:f0ec04c83adb91b1",
    "fnv1a64:926e0b0ab034c5eb",
    "fnv1a64:5f44dd31d022e2fd",
];

#[test]
fn lanes_reproduce_pinned_scalar_digests_at_widths_1_2_4() {
    for (k, want) in PINNED.iter().enumerate() {
        // Forced widths: these clusters are below the nodes-per-shard grain.
        for width in [1usize, 2, 4] {
            let report = Simulation::try_with_width(case(k), width).expect("valid case").run();
            assert_eq!(report_digest(&report), *want, "case {k} diverged {width} wide");
        }
    }
}
