//! Experiment descriptions.
//!
//! A [`Scenario`] is everything needed to run one experiment arm
//! deterministically: node count, workload, control schemes, fault plans,
//! duration bounds and the seed. Experiments construct scenarios; the
//! [`crate::sim::Simulation`] executes them.

use unitherm_simnode::faults::{FaultEvent, FaultPlan, TickFaultSchedule};
use unitherm_simnode::NodeConfig;
use unitherm_workload::burn::BurnConfig;
use unitherm_workload::{
    CpuBurn, NpbBenchmark, NpbClass, PhaseWorkload, ScriptWorkload, Segment, TraceWorkload,
    Workload,
};

use unitherm_core::config::{check, ConfigError, Rule, POSITIVE};
use unitherm_core::rule;

use crate::scheme::{DvfsScheme, FanScheme, SchemeSpec};

/// A scenario that cannot be run as described.
#[derive(Clone, PartialEq, Eq)]
pub struct ScenarioError {
    message: String,
}

impl ScenarioError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }

    /// The human-readable description of what is wrong.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Debug for ScenarioError {
    // Unwrapping a validation error should print the message itself, not a
    // struct dump.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ScenarioError: {}", self.message)
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ScenarioError {}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        Self::new(e.message())
    }
}

/// Which workload every rank runs.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WorkloadSpec {
    /// The cpu-burn stressor (unbounded; runs until `max_time_s`).
    #[default]
    CpuBurn,
    /// cpu-burn with explicit burst tuning.
    CpuBurnTuned(BurnConfig),
    /// A NAS-style benchmark.
    Npb {
        /// Which benchmark.
        bench: NpbBenchmark,
        /// Problem class.
        class: NpbClass,
    },
    /// A scripted utilization trace (same script on every rank).
    Script(Vec<Segment>),
    /// A recorded utilization trace replayed on every rank: rows of
    /// `(time_s, utilization, activity)`. Build from CSV with
    /// [`unitherm_workload::TraceWorkload::from_csv_file`] and embed the
    /// points, or write them directly in a scenario JSON.
    Trace {
        /// Trace rows, strictly increasing in time.
        points: Vec<(f64, f64, f64)>,
        /// Replay in a loop instead of finishing at the last timestamp.
        looped: bool,
    },
    /// Idle (baseline measurements).
    Idle,
}

impl WorkloadSpec {
    /// Instantiates the workload for one rank.
    pub fn instantiate(&self, rank: usize, seed: u64) -> Box<dyn Workload> {
        match self {
            WorkloadSpec::CpuBurn => {
                Box::new(CpuBurn::new(seed ^ (rank as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)))
            }
            WorkloadSpec::CpuBurnTuned(cfg) => Box::new(CpuBurn::with_config(
                *cfg,
                seed ^ (rank as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
            )),
            WorkloadSpec::Npb { bench, class } => Box::new(bench.rank_program(*class, rank, seed)),
            WorkloadSpec::Script(segments) => Box::new(ScriptWorkload::new(segments.clone())),
            WorkloadSpec::Trace { points, looped } => {
                let trace = TraceWorkload::from_points_with_activity(points);
                Box::new(if *looped { trace.looped() } else { trace })
            }
            WorkloadSpec::Idle => {
                Box::new(PhaseWorkload::new(vec![unitherm_workload::Phase::comm(
                    f64::MAX / 4.0,
                    0.02,
                )]))
            }
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::CpuBurn | WorkloadSpec::CpuBurnTuned(_) => "cpu-burn".to_string(),
            WorkloadSpec::Npb { bench, class } => bench.name(*class),
            WorkloadSpec::Script(_) => "script".to_string(),
            WorkloadSpec::Trace { .. } => "trace".to_string(),
            WorkloadSpec::Idle => "idle".to_string(),
        }
    }

    /// Checks what a scenario file can carry past the constructors: a
    /// non-empty script of valid segments, valid trace points and a valid
    /// cpu-burn tuning.
    ///
    /// # Errors
    /// Names the workload field at fault.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let checked = match self {
            WorkloadSpec::CpuBurnTuned(cfg) => cfg.validate(),
            WorkloadSpec::Script(segments) => ScriptWorkload::validate(segments),
            WorkloadSpec::Trace { points, .. } => {
                TraceWorkload::validate_points(points).map_err(|e| e.to_string())
            }
            WorkloadSpec::CpuBurn | WorkloadSpec::Npb { .. } | WorkloadSpec::Idle => Ok(()),
        };
        checked.map_err(|e| ScenarioError::new(format!("workload: {e}")))
    }

    /// True when the workload completes on its own (vs. running until the
    /// time limit).
    pub fn is_finite(&self) -> bool {
        matches!(
            self,
            WorkloadSpec::Npb { .. }
                | WorkloadSpec::Script(_)
                | WorkloadSpec::Trace { looped: false, .. }
        )
    }
}

// Serde defaults: scenario JSON files only need to name what they change.
fn default_nodes() -> usize {
    4
}
fn default_seed() -> u64 {
    0xC0FFEE
}
fn default_max_time() -> f64 {
    300.0
}
fn default_dt() -> f64 {
    0.05
}
fn default_sample_period() -> f64 {
    0.25
}
fn default_fan() -> FanScheme {
    FanScheme::ChipAutomatic { max_duty: 100 }
}
fn default_true() -> bool {
    true
}
fn default_event_capacity() -> usize {
    256
}
fn default_threads() -> usize {
    1
}

/// The most records a scenario may make any per-node buffer pre-reserve:
/// the recorder series (see [`Scenario::expected_samples`]) and the event
/// ring. Every node reserves its buffers at build time, so an unbounded
/// request would abort the process on allocation instead of failing.
const MAX_RESERVED_RECORDS: usize = 65_536;

/// A complete experiment description.
///
/// Serializable: scenario JSON files (see `examples/scenarios/`) only need
/// to carry the fields they change — everything else defaults to the
/// paper's 4-node setup.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Scenario {
    /// Human-readable name (appears in reports).
    pub name: String,
    /// Number of nodes (the paper uses 4).
    #[serde(default = "default_nodes")]
    pub nodes: usize,
    /// Master seed; per-node seeds derive from it.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Hard wall-clock limit in simulated seconds.
    #[serde(default = "default_max_time")]
    pub max_time_s: f64,
    /// Physics tick in seconds.
    #[serde(default = "default_dt")]
    pub dt_s: f64,
    /// Sensor sampling period in seconds (the paper: 250 ms).
    #[serde(default = "default_sample_period")]
    pub sample_period_s: f64,
    /// Fan-side control scheme (same on every node).
    #[serde(default = "default_fan")]
    pub fan: FanScheme,
    /// DVFS-side control scheme (same on every node).
    #[serde(default)]
    pub dvfs: DvfsScheme,
    /// Full control-plane scheme (same on every node). When set, this takes
    /// precedence over the split `fan`/`dvfs` pair — it is how coordinated
    /// arms like `Hybrid` (§4.4) and `AcpiSleep` (§3.2.2) are selected.
    #[serde(default)]
    pub scheme: Option<SchemeSpec>,
    /// Workload specification.
    #[serde(default)]
    pub workload: WorkloadSpec,
    /// Time-addressed fault plans keyed by node index. A node may be
    /// listed more than once; [`Scenario::fault_schedule`] places every
    /// plan on the run's tick clock.
    #[serde(default)]
    pub faults: Vec<(usize, FaultPlan)>,
    /// Tick-addressed fault schedules keyed by node index (deterministic
    /// replay: faults pinned to the exact ticks where a recorded run made
    /// interesting decisions). Composes with `faults`: within a tick these
    /// events deliver first. See [`Scenario::fault_schedule`] and
    /// `crate::replay`.
    #[serde(default)]
    pub tick_faults: Vec<(usize, TickFaultSchedule)>,
    /// Node hardware configuration.
    #[serde(default)]
    pub node_config: NodeConfig,
    /// Record full time series (disable for benchmark throughput runs).
    #[serde(default = "default_true")]
    pub record_series: bool,
    /// Extra simulated seconds after every rank finishes (still bounded by
    /// `max_time_s`). Lets experiments observe post-job cooldown behaviour,
    /// e.g. tDVFS restoring the original frequency (Figure 8).
    #[serde(default)]
    pub cooldown_s: f64,
    /// Optional failsafe watchdog on every node (forces maximum cooling on
    /// sensor blackouts or panic temperatures).
    #[serde(default)]
    pub failsafe: Option<unitherm_core::failsafe::FailsafeConfig>,
    /// Optional rack-level ambient coupling: node exhaust heat recirculates
    /// into a shared intake-air volume.
    #[serde(default)]
    pub rack: Option<crate::rack::RackConfig>,
    /// Per-node fan-scheme overrides (heterogeneous clusters: a dusty or
    /// undersized fan on one node). Nodes not listed use `fan`. Only the
    /// split `fan`/`dvfs` pair takes overrides: validation refuses them
    /// next to a full `scheme`.
    #[serde(default)]
    pub fan_overrides: Vec<(usize, FanScheme)>,
    /// Per-node hardware-config overrides (a hotter node position, a
    /// different heatsink). Nodes not listed use `node_config`.
    #[serde(default)]
    pub node_config_overrides: Vec<(usize, NodeConfig)>,
    /// Capacity of each node's observability event ring (most recent
    /// control-plane events kept for the report). 0 disables event
    /// retention — counters are still maintained — which makes it the
    /// sink-off arm of an overhead comparison. At most 65,536.
    #[serde(default = "default_event_capacity")]
    pub event_capacity: usize,
    /// Upper bound on threads for the intra-run tick loop. 1 — the
    /// default — runs every pass inline on the calling thread; larger
    /// values shard the nodes [`crate::pool_width`] ways (clamped to the
    /// host's cores and the nodes-per-shard grain), each pass running on
    /// the caller plus helpers claimed from the process's one pool, with
    /// bit-identical results. A sweep
    /// ([`crate::sweep::run_scenarios_parallel`]) divides its worker count
    /// by the widest such pass, so sweep workers × pass width stays within
    /// the host's cores; no caller needs to coordinate the two.
    #[serde(default = "default_threads")]
    pub threads: usize,
}

impl Scenario {
    /// A 4-node scenario with the paper's defaults: traditional fan control,
    /// no DVFS, cpu-burn, 300 s.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: 4,
            seed: 0xC0FFEE,
            max_time_s: 300.0,
            dt_s: 0.05,
            sample_period_s: 0.25,
            fan: FanScheme::ChipAutomatic { max_duty: 100 },
            dvfs: DvfsScheme::None,
            scheme: None,
            workload: WorkloadSpec::CpuBurn,
            faults: Vec::new(),
            tick_faults: Vec::new(),
            node_config: NodeConfig::default(),
            record_series: true,
            cooldown_s: 0.0,
            failsafe: None,
            rack: None,
            fan_overrides: Vec::new(),
            node_config_overrides: Vec::new(),
            event_capacity: default_event_capacity(),
            threads: 1,
        }
    }

    /// Builder: node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Builder: seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: time limit.
    pub fn with_max_time(mut self, seconds: f64) -> Self {
        self.max_time_s = seconds;
        self
    }

    /// Builder: fan scheme.
    pub fn with_fan(mut self, fan: FanScheme) -> Self {
        self.fan = fan;
        self
    }

    /// Builder: DVFS scheme.
    pub fn with_dvfs(mut self, dvfs: DvfsScheme) -> Self {
        self.dvfs = dvfs;
        self
    }

    /// Builder: full control-plane scheme (overrides the `fan`/`dvfs`
    /// split; selects coordinated arms like hybrid or ACPI sleep).
    pub fn with_scheme(mut self, scheme: SchemeSpec) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// Builder: workload.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Builder: attach a fault plan to a node.
    pub fn with_fault(mut self, node: usize, plan: FaultPlan) -> Self {
        self.faults.push((node, plan));
        self
    }

    /// Builder: attach a tick-addressed fault schedule to a node
    /// (deterministic replay; composes with [`Scenario::with_fault`]).
    pub fn with_tick_faults(mut self, node: usize, schedule: TickFaultSchedule) -> Self {
        self.tick_faults.push((node, schedule));
        self
    }

    /// Builder: series recording switch.
    pub fn with_recording(mut self, record: bool) -> Self {
        self.record_series = record;
        self
    }

    /// Builder: post-completion cooldown observation window.
    pub fn with_cooldown(mut self, seconds: f64) -> Self {
        self.cooldown_s = seconds;
        self
    }

    /// Builder: attach the failsafe watchdog to every node.
    pub fn with_failsafe(mut self, cfg: unitherm_core::failsafe::FailsafeConfig) -> Self {
        self.failsafe = Some(cfg);
        self
    }

    /// Builder: couple the nodes through a shared rack air volume.
    pub fn with_rack(mut self, cfg: crate::rack::RackConfig) -> Self {
        self.rack = Some(cfg);
        self
    }

    /// Builder: override the fan scheme on one node (heterogeneous
    /// clusters).
    pub fn with_node_fan(mut self, node: usize, fan: FanScheme) -> Self {
        self.fan_overrides.push((node, fan));
        self
    }

    /// Builder: override the hardware configuration on one node.
    pub fn with_node_config(mut self, node: usize, cfg: NodeConfig) -> Self {
        self.node_config_overrides.push((node, cfg));
        self
    }

    /// Builder: per-node event-ring capacity (0 disables event retention;
    /// at most 65,536).
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Builder: at most `threads` intra-run threads (1 = every pass inline;
    /// more shard the nodes [`crate::pool_width`] ways over the process's
    /// pool, bit-identically).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective fan scheme for a node (override or cluster default).
    pub fn fan_for(&self, node: usize) -> &FanScheme {
        self.fan_overrides.iter().find(|(n, _)| *n == node).map(|(_, f)| f).unwrap_or(&self.fan)
    }

    /// The effective hardware config for a node.
    pub fn node_config_for(&self, node: usize) -> &NodeConfig {
        self.node_config_overrides
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, c)| c)
            .unwrap_or(&self.node_config)
    }

    /// The effective control scheme for a node: the full `scheme` when
    /// set (validation refuses fan overrides next to it), else the split
    /// `fan`/`dvfs` pair honouring per-node fan overrides. This is what
    /// [`crate::node_sim::NodeSim::build`] hands to `SchemeSpec::build()`.
    pub fn effective_scheme(&self, node: usize) -> SchemeSpec {
        self.scheme.clone().unwrap_or_else(|| SchemeSpec::Split {
            fan: self.fan_for(node).clone(),
            dvfs: self.dvfs.clone(),
        })
    }

    /// The one fault schedule node `node` delivers, assembled at build:
    /// first the events of every `tick_faults` schedule listed for it, then
    /// the events of every `faults` plan listed for it, placed on the run's
    /// tick clock.
    ///
    /// The clock is the running sum `0.0 + dt_s + dt_s …` the plant keeps
    /// ([`unitherm_simnode::PhysicsBatch::begin_tick`]), so a plan event
    /// lands on the first tick whose clock reaches its time, exactly where
    /// a node comparing the clock against it would have delivered it. The
    /// run's last tick is the first whose clock reaches `max_time_s`;
    /// events after it are dropped. Within one tick the tick-addressed
    /// events come first, then the plan events in time order, with ties in
    /// list order.
    pub fn fault_schedule(&self, node: usize) -> TickFaultSchedule {
        let mut schedule = TickFaultSchedule::none();
        let listed = self.tick_faults.iter().filter(|(n, _)| *n == node);
        for &(tick, event) in listed.flat_map(|(_, listed)| listed.events()) {
            schedule.schedule(tick, event);
        }
        let mut timed: Vec<(f64, FaultEvent)> = self
            .faults
            .iter()
            .filter(|(n, _)| *n == node)
            .flat_map(|(_, plan)| plan.events().iter().copied())
            .collect();
        timed.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut tick, mut clock) = (1, self.dt_s);
        for (time_s, event) in timed {
            while clock < time_s {
                if clock >= self.max_time_s {
                    return schedule;
                }
                tick += 1;
                clock += self.dt_s;
            }
            schedule.schedule(tick, event);
        }
        schedule
    }

    /// Fan-side label for reports (cluster default, ignoring overrides).
    pub fn fan_label(&self) -> String {
        match &self.scheme {
            Some(spec) => spec.fan_label(),
            None => self.fan.label(),
        }
    }

    /// DVFS-side label for reports.
    pub fn dvfs_label(&self) -> String {
        match &self.scheme {
            Some(spec) => spec.dvfs_label(),
            None => self.dvfs.label(),
        }
    }

    /// What [`Scenario::validate`] checks of the top-level numbers, in
    /// order, before any block.
    pub const RULES: &'static [Rule<Self>] = &[
        rule!(AtLeast nodes, 1; "need at least one node"),
        rule!(AtLeast threads, 1; "need at least one worker thread"),
        // An infinite limit would let an endless workload hold its thread
        // (and a service job its permits) forever.
        rule!(Finite max_time_s; "time limit must be finite and positive"),
        rule!(Range max_time_s, POSITIVE; "time limit must be finite and positive"),
        rule!(Finite cooldown_s; "cooldown must be finite"),
        rule!(Finite dt_s; "tick must be finite"),
        rule!(Range dt_s, POSITIVE; "tick must be positive"),
        rule!("sample_period_s", Holds(|s| s.sample_period_s >= s.dt_s, "≥ dt_s");
            "sampling cannot outpace the tick"),
        rule!("sample_period_s", Holds(|s| {
            let ticks = s.sample_period_s / s.dt_s;
            (ticks - ticks.round()).abs() < 1e-9
        }, "a whole number of dt_s"); "sample period must be a whole number of ticks"),
        rule!(AtMost event_capacity, MAX_RESERVED_RECORDS;
            "event_capacity must be at most {max} records (got {got})"),
    ];

    /// Validates the scenario, returning a description of the first
    /// problem found: a top-level number breaking [`Scenario::RULES`], a
    /// workload its constructor would refuse, references to out-of-range
    /// nodes, a fault plan or tick-fault schedule its builder would refuse,
    /// a hardware ([`NodeConfig`]) or rack config outside its rules, a node
    /// with two entries in `fan_overrides` or `node_config_overrides`, fan
    /// overrides next to a full control scheme, or a control scheme whose
    /// controller tuning is unusable.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        check(Self::RULES, self)?;
        self.workload.validate()?;
        let exists = |node: usize, entry: &str| {
            if node < self.nodes {
                Ok(())
            } else {
                Err(ScenarioError::new(format!("{entry} for nonexistent node {node}")))
            }
        };
        // Deserialized schedules skip their builders' checks.
        for (node, plan) in &self.faults {
            exists(*node, "fault plan")?;
            plan.validate()
                .map_err(|e| ScenarioError::new(format!("fault plan (node {node}): {e}")))?;
        }
        for (node, sched) in &self.tick_faults {
            exists(*node, "tick-fault schedule")?;
            sched.validate().map_err(|e| {
                ScenarioError::new(format!("tick-fault schedule (node {node}): {e}"))
            })?;
        }
        for (node, _) in &self.fan_overrides {
            exists(*node, "fan override")?;
        }
        self.node_config.validate().map_err(|e| ScenarioError::new(format!("node_config: {e}")))?;
        for (node, cfg) in &self.node_config_overrides {
            exists(*node, "config override")?;
            cfg.validate().map_err(|e| {
                ScenarioError::new(format!("node_config_overrides (node {node}): {e}"))
            })?;
        }
        // `fan_for` and `node_config_for` take a node's first entry, so a
        // second one would be silently ignored.
        once_per_node("fan_overrides", &self.fan_overrides)?;
        once_per_node("node_config_overrides", &self.node_config_overrides)?;
        if let Some(rack) = &self.rack {
            rack.validate().map_err(|e| ScenarioError::new(format!("rack: {e}")))?;
        }
        // Deserialized configs bypass constructor checks, so every config
        // that can arrive in a scenario file validates here as a data error.
        if let Some(fs) = &self.failsafe {
            fs.validate()?;
        }
        // Each distinct scheme once, whatever the node count: the full
        // scheme, or else the default fan (when some node uses it), the
        // DVFS arm and each override.
        if let Some(scheme) = &self.scheme {
            if !self.fan_overrides.is_empty() {
                return Err(ScenarioError::new(
                    "fan_overrides cannot be combined with a full `scheme`, which sets every \
                     node's fan arm; use the split `fan`/`dvfs` fields",
                ));
            }
            return scheme.validate().map_err(Into::into);
        }
        if self.fan_overrides.len() < self.nodes {
            self.fan.validate()?;
        }
        self.dvfs.validate()?;
        for (_, fan) in &self.fan_overrides {
            fan.validate()?;
        }
        Ok(())
    }

    /// Expected number of recorder samples for a full-length run, used to
    /// pre-reserve time series so steady-state recording never reallocates.
    /// Capped so absurd `max_time_s` values don't pre-commit memory.
    pub fn expected_samples(&self) -> usize {
        if !self.record_series || self.sample_period_s <= 0.0 {
            return 0;
        }
        let n = (self.max_time_s / self.sample_period_s).ceil() + 1.0;
        if n.is_finite() {
            (n as usize).min(MAX_RESERVED_RECORDS)
        } else {
            MAX_RESERVED_RECORDS
        }
    }

    /// Per-node deterministic seed.
    pub fn node_seed(&self, node: usize) -> u64 {
        self.seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1)
    }
}

/// Fails naming the first node the per-node override list `field` names a
/// second time.
fn once_per_node<T>(field: &str, entries: &[(usize, T)]) -> Result<(), ScenarioError> {
    let mut seen = std::collections::HashSet::with_capacity(entries.len());
    let repeated = entries.iter().find(|(node, _)| !seen.insert(*node));
    repeated.map_or(Ok(()), |(node, _)| {
        Err(ScenarioError::new(format!("{field}: node {node} has more than one entry")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unitherm_workload::phases::WorkState;

    #[test]
    fn default_scenario_is_valid_and_paper_shaped() {
        let s = Scenario::new("test");
        s.validate().unwrap();
        assert_eq!(s.nodes, 4);
        assert_eq!(s.sample_period_s, 0.25);
    }

    #[test]
    fn builders_compose() {
        let s = Scenario::new("x")
            .with_nodes(2)
            .with_seed(9)
            .with_max_time(10.0)
            .with_fan(FanScheme::Constant { duty: 75 })
            .with_dvfs(DvfsScheme::cpuspeed())
            .with_workload(WorkloadSpec::Idle)
            .with_recording(false);
        s.validate().unwrap();
        assert_eq!(s.nodes, 2);
        assert_eq!(s.seed, 9);
        assert!(!s.record_series);
    }

    #[test]
    fn node_seeds_differ() {
        let s = Scenario::new("x");
        let seeds: Vec<u64> = (0..4).map(|n| s.node_seed(n)).collect();
        for i in 0..4 {
            for j in 0..i {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }

    #[test]
    fn workload_spec_instantiates_each_kind() {
        let specs = [
            WorkloadSpec::CpuBurn,
            WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A },
            WorkloadSpec::Script(vec![Segment::new(1.0, 0.5)]),
            WorkloadSpec::Idle,
        ];
        for spec in &specs {
            let mut w = spec.instantiate(0, 1);
            let out = w.advance(0.25, 1.0);
            assert!((0.0..=1.0).contains(&out.utilization), "{spec:?}");
        }
    }

    #[test]
    fn idle_spec_runs_forever_quietly() {
        let mut w = WorkloadSpec::Idle.instantiate(0, 1);
        for _ in 0..1000 {
            let u = w.advance(0.25, 1.0).utilization;
            assert!(u < 0.1);
        }
        assert_eq!(w.state(), WorkState::Running);
    }

    #[test]
    fn finiteness_classification() {
        assert!(!WorkloadSpec::CpuBurn.is_finite());
        assert!(!WorkloadSpec::Idle.is_finite());
        assert!(WorkloadSpec::Npb { bench: NpbBenchmark::Lu, class: NpbClass::B }.is_finite());
        assert!(WorkloadSpec::Script(vec![Segment::new(1.0, 0.5)]).is_finite());
        let points = vec![(0.0, 0.5, 0.5), (1.0, 0.8, 0.8)];
        assert!(WorkloadSpec::Trace { points: points.clone(), looped: false }.is_finite());
        assert!(!WorkloadSpec::Trace { points, looped: true }.is_finite());
    }

    #[test]
    fn trace_spec_replays_in_a_simulation() {
        use crate::sim::Simulation;
        let report = Simulation::new(
            Scenario::new("trace")
                .with_nodes(1)
                .with_workload(WorkloadSpec::Trace {
                    points: vec![(0.0, 0.1, 0.1), (10.0, 0.9, 0.9), (20.0, 0.1, 0.1)],
                    looped: false,
                })
                .with_max_time(60.0),
        )
        .run();
        assert!(report.completed, "finite trace finishes");
        assert!((report.exec_time_s - 20.0).abs() < 1.0, "exec {}", report.exec_time_s);
        // The utilization trace actually reached the node.
        let u = &report.nodes[0].util;
        assert!(u.value_at(15.0).unwrap() > 0.8);
        assert!(u.value_at(5.0).unwrap() < 0.2);
    }

    #[test]
    fn ranks_get_distinct_burn_streams() {
        let mut a = WorkloadSpec::CpuBurn.instantiate(0, 1);
        let mut b = WorkloadSpec::CpuBurn.instantiate(1, 1);
        let same = (0..500)
            .filter(|_| {
                (a.advance(0.25, 1.0).utilization - b.advance(0.25, 1.0).utilization).abs() < 1e-12
            })
            .count();
        assert!(same < 500);
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn fault_for_missing_node_rejected() {
        Scenario::new("x").with_nodes(2).with_fault(5, FaultPlan::none()).validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn tick_faults_for_missing_node_rejected() {
        Scenario::new("x")
            .with_nodes(2)
            .with_tick_faults(3, TickFaultSchedule::none())
            .validate()
            .unwrap();
    }

    /// The tick on which a standalone node's clock first reaches each of
    /// `times` at step `dt_s`, or `None` for a time after the last tick of
    /// a `max_time_s` run (the first tick whose clock reaches it).
    fn node_clock_ticks(dt_s: f64, max_time_s: f64, times: &[f64]) -> Vec<Option<u64>> {
        let mut node = unitherm_simnode::Node::new(NodeConfig::default(), 1);
        let mut found = vec![None; times.len()];
        loop {
            node.tick(dt_s);
            let view = node.view();
            for (tick, &t) in found.iter_mut().zip(times) {
                if tick.is_none() && view.time_s() >= t {
                    *tick = Some(view.ticks());
                }
            }
            if view.time_s() >= max_time_s {
                return found;
            }
        }
    }

    /// A one-node scenario on a `dt_s` clock, run to `max_time_s`.
    fn clocked(dt_s: f64, max_time_s: f64) -> Scenario {
        let mut s = Scenario::new("clock").with_nodes(1).with_max_time(max_time_s);
        s.dt_s = dt_s;
        s.sample_period_s = dt_s;
        s
    }

    #[test]
    fn plan_events_land_where_the_node_clock_reaches_them() {
        let times = [0.0, 0.05, 0.3, 1.0, 2.5, 3.0, 7.7, 9.95, 10.0, 10.2, 10.5, 40.0];
        for dt_s in [0.05, 0.1, 0.25, 1.0 / 3.0] {
            let plan = times
                .iter()
                .enumerate()
                .fold(FaultPlan::none(), |p, (i, &t)| p.at(t, FaultEvent::AmbientStep(i as f64)));
            let s = clocked(dt_s, 10.0).with_fault(0, plan);
            s.validate().unwrap();
            let want: Vec<(u64, FaultEvent)> = node_clock_ticks(dt_s, 10.0, &times)
                .into_iter()
                .enumerate()
                .filter_map(|(i, tick)| Some((tick?, FaultEvent::AmbientStep(i as f64))))
                .collect();
            assert_eq!(s.fault_schedule(0).events(), &want[..], "dt_s = {dt_s}");
        }
    }

    #[test]
    fn placement_pins_the_accumulated_clock() {
        let tick_of = |dt_s: f64, max_time_s: f64, time_s: f64| {
            let s = clocked(dt_s, max_time_s)
                .with_fault(0, FaultPlan::none().at(time_s, FaultEvent::FanFailure));
            s.fault_schedule(0).events().first().map(|&(tick, _)| tick)
        };
        // Ten additions of 0.1 read 0.9999999999999999.
        assert_eq!(tick_of(0.1, 5.0, 1.0), Some(11));
        // Twenty additions of 0.05 read 1.0000000000000002.
        assert_eq!(tick_of(0.05, 5.0, 1.0), Some(20));
        assert_eq!(tick_of(0.05, 5.0, 0.0), Some(1));
        // A 1 s run on a 0.1 s clock ends on tick 11 (1.0999999999999999):
        // an event inside it lands, one after it is dropped.
        assert_eq!(tick_of(0.1, 1.0, 1.05), Some(11));
        assert_eq!(tick_of(0.1, 1.0, 1.1), None);
        assert_eq!(node_clock_ticks(0.1, 1.0, &[1.05, 1.1]), vec![Some(11), None]);
    }

    #[test]
    fn within_a_tick_tick_faults_come_first_then_plans_in_time_order() {
        // 0.12 s and 0.15 s both land on tick 3 of a 0.05 s clock.
        let s = clocked(0.05, 5.0)
            .with_fault(
                0,
                FaultPlan::none()
                    .at(0.15, FaultEvent::SensorDropout)
                    .at(0.12, FaultEvent::FanFailure),
            )
            .with_tick_faults(0, TickFaultSchedule::none().at_tick(3, FaultEvent::PwmStuck))
            .with_fault(0, FaultPlan::none().at(0.12, FaultEvent::I2cFailure))
            .with_tick_faults(
                0,
                TickFaultSchedule::none().at_tick(3, FaultEvent::SensorJitter(1.0)),
            );
        assert_eq!(
            s.fault_schedule(0).events(),
            &[
                (3, FaultEvent::PwmStuck),
                (3, FaultEvent::SensorJitter(1.0)),
                (3, FaultEvent::FanFailure),
                (3, FaultEvent::I2cFailure),
                (3, FaultEvent::SensorDropout),
            ]
        );
        assert!(s.fault_schedule(1).is_empty(), "other nodes get none of it");
    }

    #[test]
    fn every_fault_entry_listed_for_a_node_is_delivered() {
        use crate::sim::Simulation;
        let s = Scenario::new("every-entry")
            .with_nodes(1)
            .with_max_time(30.0)
            .with_fault(0, FaultPlan::none().at(2.0, FaultEvent::SensorDropout))
            .with_fault(0, FaultPlan::none().at(3.0, FaultEvent::FanFailure))
            .with_tick_faults(0, TickFaultSchedule::none().at_tick(10, FaultEvent::PwmStuck))
            .with_tick_faults(0, TickFaultSchedule::none().at_tick(20, FaultEvent::I2cFailure));
        let report = Simulation::new(s).run();
        assert_eq!(
            report.nodes[0].faults_applied,
            vec![
                (10, FaultEvent::PwmStuck),
                (20, FaultEvent::I2cFailure),
                (40, FaultEvent::SensorDropout),
                // Sixty additions of 0.05 read 2.9999999999999973.
                (61, FaultEvent::FanFailure),
            ]
        );
    }

    #[test]
    fn event_capacity_is_capped() {
        let at_cap = Scenario::new("x").with_event_capacity(MAX_RESERVED_RECORDS);
        at_cap.validate().unwrap();
        let err = at_cap.with_event_capacity(MAX_RESERVED_RECORDS + 1).validate().unwrap_err();
        assert_eq!(err.message(), "event_capacity must be at most 65536 records (got 65537)");
    }

    #[test]
    #[should_panic(expected = "whole number of ticks")]
    fn misaligned_sampling_rejected() {
        let mut s = Scenario::new("x");
        s.sample_period_s = 0.13;
        s.validate().unwrap();
    }
}
