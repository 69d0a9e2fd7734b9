#![warn(missing_docs)]

//! Discrete-time cluster simulation.
//!
//! Reproduces the paper's experimental setup: a power-aware cluster (4 nodes
//! in the paper) running an MPI workload with one rank per node, each node
//! under a configurable combination of fan control and DVFS control:
//!
//! * physics advances at a fixed 50 ms tick;
//! * the thermal sensor is polled at the paper's 4 Hz through the
//!   lm-sensors driver, feeding whichever controllers are attached;
//! * fan decisions travel through the i2c fan driver, DVFS decisions
//!   through the cpufreq driver — the same seams the real system used;
//! * ranks are BSP-coupled: every rank must reach a barrier before any
//!   proceeds, so one throttled CPU stretches the whole job;
//! * the wall-power meter integrates each node's draw at 1 Hz.
//!
//! Modules:
//!
//! * [`scheme`] — the control-scheme vocabulary, re-exported from
//!   `unitherm_core::control_plane` (the shared `SchemeSpec::build()`
//!   factory is the only place a scheme becomes a daemon pipeline);
//! * [`scenario`] — a complete experiment description (workload, nodes,
//!   schemes, faults, duration, seed);
//! * [`node_sim`] — one node's simulation state: hardware + platform
//!   binding + control plane + recorders;
//! * [`sim`] — the cluster tick loop with barrier release; the per-node
//!   passes run [`pool_width`] shards wide (inline for one shard,
//!   shard-parallel on the process's one pool above that) with
//!   bit-identical results;
//! * [`report`] — structured run results (traces + the summary numbers the
//!   paper's tables report);
//! * [`replay`] — journal-driven fault injection: derive a tick-addressed
//!   fault schedule from a recorded event journal so the faults land
//!   exactly where an earlier run made interesting decisions;
//! * [`sweep`] — parallel execution of independent scenarios on the
//!   calling thread plus one process-wide pool of helper threads,
//!   budgeted against the host's cores and the intra-run thread counts
//!   so the two layers never oversubscribe;
//! * [`chaos`] — adversarial search over tick-addressed fault windows:
//!   finds the cheapest fault sequence that flips a scenario outcome
//!   (failsafe trip, thermal limit, SLA miss) and emits a replayable
//!   counterexample corpus.

pub mod chaos;
pub mod node_sim;
pub(crate) mod pool;
pub mod rack;
pub mod replay;
pub mod report;
pub mod scenario;
pub mod scheme;
pub mod sim;
pub mod sweep;

pub use chaos::{
    chaos_search, report_digest, report_json_and_digest, ChaosConfig, ChaosCorpus, ChaosError,
    Counterexample, OutcomePredicate, OutcomeSummary, CHAOS_SCHEMA,
};
pub use pool::{pool_width, MIN_NODES_PER_SHARD};
pub use rack::{RackConfig, RackModel};
pub use replay::{derive_fault_plan, AttackKind, FaultWindow, ReplayError, ReplayPlan};
pub use report::{NodeReport, RunReport};
pub use scenario::{Scenario, ScenarioError, WorkloadSpec};
pub use scheme::{DvfsScheme, FanScheme, SchemeSpec};
pub use sim::Simulation;
pub use sweep::{
    run_scenarios_parallel, thread_budget, try_run_scenarios_parallel, PermitGuard, SweepError,
    ThreadPermits,
};
