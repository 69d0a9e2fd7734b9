//! Seeded input generators. The benchmark's seed reaches the program only
//! through what these functions return: experiment orders, scenario lists
//! and job documents.
//!
//! Each generator draws from a fixed multiset of shapes (node counts,
//! schemes, workloads, fault and rack placement) and lets the seed choose
//! the details — simulation seeds, fault times, which scenario gets which
//! shape, the order of experiments. Every seed therefore asks for about the
//! same amount of work, so runs on different seeds are comparable.

use unitherm_cluster::{DvfsScheme, FanScheme, RackConfig, Scenario, SchemeSpec, WorkloadSpec};
use unitherm_core::control_array::Policy;
use unitherm_simnode::faults::{FaultEvent, FaultPlan};
use unitherm_workload::{NpbBenchmark, NpbClass};

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a `stream` that separates independent
    /// uses of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, the hash behind the repository's report digests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes.
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `paper-suite` input: the order of the experiments in each pass.
pub fn suite_order(seed: u64, pass: u64, experiments: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..experiments).collect();
    Rng::new(seed, 0x5017E ^ pass.wrapping_mul(0x9E37)).shuffle(&mut order);
    order
}

/// `fleet-10k` input: a `nodes`-node cpu-burn fleet under dynamic fan
/// control with recording off, ticking on `threads` intra-run threads.
pub fn fleet_scenario(seed: u64, nodes: usize, threads: usize) -> Scenario {
    Scenario::new(format!("fleet-{nodes}"))
        .with_nodes(nodes)
        .with_seed(Rng::new(seed, 0xF1EE7).next_u64())
        .with_workload(WorkloadSpec::CpuBurn)
        .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
        .with_recording(false)
        .with_max_time(1e9)
        .with_threads(threads)
}

/// The control schemes the sweep and the service jobs rotate through.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    /// Dynamic fan control alone.
    DynamicFan,
    /// The coordinated fan + tDVFS hybrid.
    Hybrid,
    /// A capped dynamic fan with tDVFS behind it.
    Tdvfs,
    /// A dynamic fan with the utilization-driven CPUSPEED governor, whose
    /// per-tick daemon puts every node on the scalar passthrough path.
    CpuSpeed,
}

impl Scheme {
    const ALL: [Scheme; 4] = [Scheme::DynamicFan, Scheme::Hybrid, Scheme::Tdvfs, Scheme::CpuSpeed];

    fn apply(self, s: Scenario) -> Scenario {
        match self {
            Scheme::DynamicFan => s.with_fan(FanScheme::dynamic(Policy::MODERATE, 100)),
            Scheme::Hybrid => s.with_scheme(SchemeSpec::hybrid(Policy::MODERATE, 60)),
            Scheme::Tdvfs => s
                .with_fan(FanScheme::dynamic(Policy::MODERATE, 40))
                .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE)),
            Scheme::CpuSpeed => s
                .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
                .with_dvfs(DvfsScheme::cpuspeed()),
        }
    }
}

/// Node counts of the sweep's scenarios, largest first: a fixed descending
/// shape keeps the parallel sweep's tail (the last job to finish) the same
/// size on every seed.
const SWEEP_NODES: [usize; 4] = [32, 16, 8, 4];

/// `sweep-mixed` input: `count` scenarios (a multiple of 12 keeps every
/// shape equally represented). Node counts 4–32; cpu-burn and NPB class A;
/// dynamic-fan, hybrid, tDVFS and CPUSPEED; series recording on; a quarter
/// carry a time-addressed fault plan and a third sit in a rack; all run on
/// one intra-run thread.
pub fn sweep_scenarios(seed: u64, count: usize) -> Vec<Scenario> {
    let mut rng = Rng::new(seed, 0x5EEE9);
    let per_size = count.div_ceil(SWEEP_NODES.len());
    let mut out = Vec::with_capacity(count);
    for (size_idx, &nodes) in SWEEP_NODES.iter().enumerate() {
        // Within each node count: every scheme, cpu-burn and NPB in equal
        // parts; which of them carry faults or a rack is the seed's choice.
        let mut shapes: Vec<(Scheme, bool)> = (0..per_size)
            .map(|k| (Scheme::ALL[k % Scheme::ALL.len()], (k / Scheme::ALL.len()) % 2 == 1))
            .collect();
        rng.shuffle(&mut shapes);
        for (k, (scheme, npb)) in shapes.into_iter().enumerate() {
            if out.len() == count {
                break;
            }
            let workload = if npb {
                let bench = [NpbBenchmark::Bt, NpbBenchmark::Lu, NpbBenchmark::Sp][rng.below(3)];
                WorkloadSpec::Npb { bench, class: NpbClass::A }
            } else {
                WorkloadSpec::CpuBurn
            };
            let mut s = scheme.apply(
                Scenario::new(format!("sweep-{size_idx}-{k}"))
                    .with_nodes(nodes)
                    .with_seed(rng.next_u64())
                    .with_workload(workload)
                    .with_max_time(rng.range(28.0, 32.0))
                    .with_recording(true),
            );
            if k % 4 == 0 {
                let node = rng.below(nodes);
                let at = rng.range(5.0, 15.0);
                let plan = FaultPlan::none()
                    .at(at, FaultEvent::SensorDropout)
                    .at(at + rng.range(2.0, 6.0), FaultEvent::SensorRestore);
                s = s.with_fault(node, plan);
            }
            if k % 3 == 1 {
                s = s.with_rack(RackConfig::default());
            }
            out.push(s);
        }
    }
    out
}

/// Nodes of `scenarios` that take the scalar passthrough path (a per-tick
/// daemon or a fault source), as a share of all nodes.
pub fn passthrough_share(scenarios: &[Scenario]) -> f64 {
    let total: usize = scenarios.iter().map(|s| s.nodes).sum();
    let scalar: usize = scenarios
        .iter()
        .map(|s| {
            if matches!(s.dvfs, DvfsScheme::CpuSpeed { .. }) && s.scheme.is_none() {
                s.nodes
            } else {
                s.faults.len()
            }
        })
        .sum();
    scalar as f64 / total as f64
}

/// `serve-loopback` input: `count` scenario documents as a client would
/// `POST` them. 4–16 nodes, 60–120 simulated seconds, cpu-burn under the
/// rotating schemes (minus CPUSPEED, which a burn never down-steps), half
/// asking for two intra-run threads. Series recording is off: the service
/// keeps every finished job in memory, and the benchmark submits thousands.
pub fn serve_jobs(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x5E4E);
    let schemes = [Scheme::DynamicFan, Scheme::Hybrid, Scheme::Tdvfs];
    (0..count)
        .map(|i| {
            let scenario = schemes[i % schemes.len()].apply(
                Scenario::new(format!("job-{i}"))
                    .with_nodes(4 + 4 * (i / 2 % 4))
                    .with_seed(rng.next_u64())
                    .with_workload(WorkloadSpec::CpuBurn)
                    .with_max_time(60.0 + 20.0 * ((i / 8) % 4) as f64 + rng.range(0.0, 1.0))
                    .with_recording(false)
                    .with_threads(1 + i % 2),
            );
            serde_json::to_string(&scenario).expect("scenarios serialize")
        })
        .collect()
}
