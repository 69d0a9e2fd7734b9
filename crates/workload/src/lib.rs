#![warn(missing_docs)]

//! Workload models driving the simulated cluster.
//!
//! The paper exercises its controllers with `cpu-burn` \[31\] and NAS Parallel
//! Benchmarks (BT class B and LU on 4 nodes, one MPI process per node). We
//! model workloads as *phase programs*: sequences of compute phases (whose
//! duration scales with CPU frequency), communication phases (wall-clock
//! bound) and BSP barriers (released by the cluster when every rank
//! arrives). This reproduces the two workload properties the paper's
//! evaluation depends on:
//!
//! * alternating compute/communication utilization, which makes the
//!   CPUSPEED governor thrash frequencies (Table 1's 101–139 transitions),
//! * barrier coupling, which makes one DVFS-throttled rank extend every
//!   rank's execution time (Table 1's execution-time column).
//!
//! Modules:
//!
//! * [`phases`] — the phase program machinery and the [`Workload`] trait;
//! * [`npb`] — NAS-style benchmark programs (BT, LU, CG, SP);
//! * [`burn`] — the `cpu-burn` stressor with seeded burst patterns;
//! * [`synthetic`] — scripted utilization traces that reproduce the
//!   sudden / gradual / jitter thermal profile of the paper's Figure 2;
//! * [`trace`] — CSV utilization-trace replay, the bridge for users with
//!   recorded production traces.

pub mod burn;
pub mod npb;
pub mod phases;
pub mod synthetic;
pub mod trace;

pub use burn::CpuBurn;
pub use npb::{NpbBenchmark, NpbClass};
pub use phases::{Phase, PhaseWorkload, StepOutcome, WorkState, Workload};
pub use synthetic::{ScriptWorkload, Segment};
pub use trace::{TracePointError, TraceWorkload};
