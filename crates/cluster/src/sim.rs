//! The cluster tick loop.
//!
//! [`Simulation::run`] drives all nodes in lockstep:
//!
//! ```text
//!   every dt (50 ms):   workload advance → BSP barrier release →
//!                       hooks (CPUSPEED, due faults) → physics lane tick
//!   every 250 ms:       sensor sample → fan/tDVFS daemons → recorders
//! ```
//!
//! Every node's physics runs on the structure-of-arrays lanes of its
//! shard's [`PhysicsBatch`]. What the lanes cannot do runs on the node's
//! scalar `Node` at a sync point: the sampling path for every node at
//! 4 Hz, and a per-tick hook for the few nodes with a per-tick daemon or
//! a fault source (see `hardware_pass`).
//!
//! Barrier release is all-or-nothing: a rank that reaches a barrier parks
//! (near-zero utilization) until every unfinished rank arrives. A rank on a
//! throttled or down-scaled CPU therefore delays the whole job — the
//! mechanism behind the paper's execution-time results.

use unitherm_obs::{EventSink, RingSink, VecSink};
use unitherm_simnode::PhysicsBatch;
use unitherm_workload::WorkState;

use crate::node_sim::NodeSim;
use crate::pool::{pool_width, shard_range, PassKind, ShardOut, WorkerPool};
use crate::report::{NodeReport, RunReport};
use crate::scenario::{Scenario, ScenarioError};

/// A runnable cluster simulation.
pub struct Simulation {
    /// The intra-run worker pool (width > 1). Declared first:
    /// fields drop in declaration order, and the pool's `Drop` joins its
    /// workers — which may still hold shard pointers into `nodes` if a
    /// coordinator-side panic is unwinding — before `nodes` is freed.
    pool: Option<WorkerPool>,
    scenario: Scenario,
    nodes: Vec<NodeSim>,
    rack: Option<crate::rack::RackModel>,
    rack_air: unitherm_metrics::TimeSeries,
    time_s: f64,
    ticks: u64,
    ticks_per_sample: u64,
    /// Ranks whose workload has finished (kept incrementally so the run
    /// loop's completion check is O(1) instead of a per-tick scan).
    finished_nodes: usize,
    /// Optional cluster-wide event journal; every node's event stream is
    /// teed into it on top of the per-node rings (e.g. a JSONL
    /// [`unitherm_obs::JournalWriter`] behind `repro run-scenario --journal`).
    journal: Option<Box<dyn EventSink>>,
    /// The physics lanes and hooked nodes of each shard (exactly one shard
    /// on the serial path).
    shards: Vec<Shard>,
    /// Per-shard reduction slots for the parallel passes (one slot on the
    /// serial path).
    shard_outs: Vec<ShardOut>,
    /// Per-node heat slots for the rack reduction: each pass fills its
    /// shard's rows, the coordinator folds them in node order so the f64
    /// summation order matches the historical serial loop exactly.
    heat_scratch: Vec<f64>,
    /// Per-shard journal scratch: parallel passes tee events here and the
    /// coordinator drains shard 0, 1, … — i.e. node order — into the
    /// journal after each pass. Pre-reserved in `attach_journal`.
    event_scratch: Vec<VecSink>,
}

impl Simulation {
    /// Builds the cluster from a scenario, or reports why the scenario
    /// cannot be run (the [`Scenario::validate`] error).
    ///
    /// `Scenario::threads` is an upper bound: the pool is
    /// [`pool_width`]`(threads, nodes)` shards wide (see [`Self::width`]).
    pub fn try_new(scenario: Scenario) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        let width = pool_width(scenario.threads, scenario.nodes);
        Ok(Self::build(scenario, width))
    }

    /// Like [`Self::try_new`], but shards the nodes exactly `width` ways
    /// (capped at the node count), bypassing the host-core clamp and the
    /// nodes-per-shard grain. For tests that must run the worker pool on
    /// small clusters; scenarios, the CLI and the service never reach it.
    #[doc(hidden)]
    pub fn try_with_width(scenario: Scenario, width: usize) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        let width = width.clamp(1, scenario.nodes);
        Ok(Self::build(scenario, width))
    }

    /// Builds a validated scenario on `shards` shards (1 = the serial loop).
    fn build(scenario: Scenario, shards: usize) -> Self {
        // Every node's hot state first, then every 10 kB event ring: the
        // passes walk each node's hot state per tick, and a ring built
        // between two nodes would put each visit on a fresh page.
        let mut nodes: Vec<NodeSim> =
            (0..scenario.nodes).map(|i| NodeSim::build_hot(&scenario, i)).collect();
        for ns in &mut nodes {
            ns.events = RingSink::with_capacity(scenario.event_capacity);
        }
        let ticks_per_sample = (scenario.sample_period_s / scenario.dt_s).round() as u64;
        // validate() rejects sample_period_s < dt_s, so this cannot be 0 —
        // a 0 here would make `is_multiple_of` false forever and silently
        // disable the whole sampling path (sensors, fan/tDVFS daemons).
        assert!(ticks_per_sample >= 1, "sampling period shorter than the tick");
        let rack = scenario.rack.map(|cfg| {
            let idle_heat: f64 = nodes.iter().map(|ns| ns.node.heat_output_w()).sum();
            let model = crate::rack::RackModel::new(cfg, idle_heat);
            // Nodes breathe the rack air from t = 0.
            for ns in &mut nodes {
                ns.node.set_ambient_c(model.air_c());
            }
            model
        });
        let pool = (shards > 1).then(|| WorkerPool::new(shards));
        let heat_scratch = if rack.is_some() { vec![0.0; nodes.len()] } else { Vec::new() };
        let shard_outs = vec![ShardOut::default(); shards];
        // One physics batch per shard, loaded from the post-attach (and
        // post-rack-ambient) node state so the lanes resume bit-exactly.
        let shards: Vec<Shard> = (0..shards)
            .map(|s| {
                let nodes = &nodes[shard_range(nodes.len(), shards, s)];
                Shard {
                    lanes: PhysicsBatch::from_nodes(nodes.iter().map(|ns| &ns.node)),
                    hooked: (0..nodes.len())
                        .filter(|&j| nodes[j].tick_daemon || nodes[j].node.has_fault_sources())
                        .collect(),
                }
            })
            .collect();
        Self {
            pool,
            scenario,
            nodes,
            rack,
            rack_air: unitherm_metrics::TimeSeries::new("rack.air", "°C"),
            time_s: 0.0,
            ticks: 0,
            ticks_per_sample,
            finished_nodes: 0,
            journal: None,
            shards,
            shard_outs,
            heat_scratch,
            event_scratch: Vec::new(),
        }
    }

    /// Builds the cluster from a scenario.
    ///
    /// # Panics
    /// On an invalid scenario; library callers who want the
    /// [`Scenario::validate`] error instead use [`Simulation::try_new`].
    pub fn new(scenario: Scenario) -> Self {
        Self::try_new(scenario).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Attaches a cluster-wide event journal: every node's control-plane
    /// event stream is teed into `sink` in addition to the per-node rings.
    /// The sink sees records in tick order (node order within a tick) at
    /// every thread count.
    pub fn attach_journal(&mut self, sink: Box<dyn EventSink>) {
        // If a journal sink hits an I/O error mid-run it latches the error
        // and stops writing; `into_report` surfaces it as
        // `RunReport::journal_warning` so a truncated journal is visible in
        // the report instead of only on `finish()`.
        self.journal = Some(sink);
        if let Some(pool) = &self.pool {
            // One pre-reserved scratch per shard; a tick rarely emits more
            // than a few events per node, so the reserve makes the buffer
            // effectively fixed-capacity (growth stays possible but is
            // amortized away and never affects determinism).
            self.event_scratch = (0..pool.shards())
                .map(|s| {
                    let mut sink = VecSink::default();
                    let shard_nodes = shard_range(self.nodes.len(), pool.shards(), s).len();
                    sink.records.reserve(32 * shard_nodes.max(1));
                    sink
                })
                .collect();
        }
    }

    /// Attaches a cluster-wide `unitherm-bjl/v1` binary event journal (see
    /// `docs/FORMATS.md` §5): the compact, fixed-width sibling of the JSONL
    /// [`Simulation::attach_journal`] path. The header is stamped with the
    /// scenario's tick width, so any reader can recover each record's tick.
    /// Callers wanting buffering should pass a `BufWriter`.
    pub fn attach_binary_journal<W: std::io::Write + 'static>(&mut self, out: W) {
        let dt_s = self.scenario.dt_s;
        self.attach_journal(Box::new(unitherm_obs::BinaryJournalWriter::new(out, dt_s)));
    }

    /// How many shards the nodes are split into: the worker-pool width
    /// (1 = the serial loop). Never enters the report or the journal.
    pub fn width(&self) -> usize {
        self.shards.len()
    }

    /// Current simulated time.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Immutable access to the nodes (diagnostics, tests).
    ///
    /// Between samples the hot physics state lives in the
    /// structure-of-arrays lanes, so the scalar `Node` structs seen here can
    /// lag by up to one sample period.
    pub fn nodes(&self) -> &[NodeSim] {
        &self.nodes
    }

    /// Advances the cluster one tick.
    ///
    /// The loop is fused into two passes over the nodes (plus the rack /
    /// sampling work that genuinely needs a completed pass) and performs no
    /// heap allocation in steady state — the barrier reduction folds into
    /// pass A instead of collecting per-rank states into a scratch `Vec`.
    /// At a width above 1 both passes (and the sampling pass) run
    /// shard-parallel on the persistent `pool::WorkerPool` with
    /// bit-identical results; the default runs the serial loop unchanged.
    pub fn tick(&mut self) {
        if self.pool.is_some() {
            self.tick_sharded();
        } else {
            self.tick_serial();
        }
    }

    /// The single-threaded tick loop (width 1): the shared pass
    /// functions over the lone shard.
    fn tick_serial(&mut self) {
        let dt = self.scenario.dt_s;
        self.ticks += 1;
        self.time_s += dt;
        let finite = self.scenario.workload.is_finite();

        // Pass A — workloads advance; the barrier reduction folds in.
        // Release is all-or-nothing, so the decision needs every rank's
        // post-advance state and cannot merge with pass B.
        let shard = &mut self.shards[0];
        let out = &mut self.shard_outs[0];
        workload_pass(&mut self.nodes, &mut shard.lanes, dt, out);
        let release = out.unfinished_parked && out.any_parked;

        // Pass B — hooks, the lane physics tick, rack heat capture, and
        // finish times.
        hardware_pass(
            &mut self.nodes,
            shard,
            dt,
            self.time_s,
            release,
            finite,
            self.rack.is_some().then_some(&mut self.heat_scratch[..]),
            self.journal.as_deref_mut(),
            out,
        );
        self.finished_nodes += out.finished_delta;

        self.step_rack(dt);

        // Sampling path at 4 Hz: lanes store back, daemons run, lanes
        // reload — fused per node so each cache line is touched once.
        if self.ticks.is_multiple_of(self.ticks_per_sample) {
            sample_pass(
                &mut self.nodes,
                &mut self.shards[0].lanes,
                self.time_s,
                self.journal.as_deref_mut(),
            );
            self.record_rack_air();
        }
    }

    /// Rack air coupling: folds the per-node heat slots in node order (the
    /// exact historical `heat += …` summation), steps the shared intake-air
    /// volume, and fans the new ambient out to every lane.
    fn step_rack(&mut self, dt: f64) {
        let Some(rack) = &mut self.rack else { return };
        let heat = self.heat_scratch.iter().fold(0.0f64, |acc, h| acc + h);
        rack.step(dt, heat);
        let air = rack.air_c();
        for shard in &mut self.shards {
            shard.lanes.set_ambient_all(air);
        }
    }

    /// Appends the rack air sample when a rack is coupled and series
    /// recording is on.
    fn record_rack_air(&mut self) {
        if let Some(rack) = &self.rack {
            if self.scenario.record_series {
                self.rack_air.push(self.time_s, rack.air_c());
            }
        }
    }

    /// The node-parallel tick loop (width > 1): the same passes as
    /// [`Self::tick_serial`], shard-parallel on the worker pool.
    ///
    /// Determinism: the barrier decision folds exact booleans; rack heat is
    /// captured per node and folded here in node order (the serial
    /// summation order); journal events drain shard 0, 1, … — node order —
    /// after each pass. See `crate::pool` for the full argument.
    fn tick_sharded(&mut self) {
        let dt = self.scenario.dt_s;
        self.ticks += 1;
        self.time_s += dt;
        let pool = self.pool.as_ref().expect("tick_sharded requires a pool");
        let teeing = self.journal.is_some();
        let finite = self.scenario.workload.is_finite();

        // Pass A — workloads advance shard-parallel; the barrier reduction
        // folds per shard, then across shards (order-free booleans).
        pool.run(
            &mut self.nodes,
            &mut self.shards,
            PassKind::Workload { dt_s: dt },
            None,
            &mut self.shard_outs,
            None,
        );
        let unfinished_parked = self.shard_outs.iter().all(|o| o.unfinished_parked);
        let any_parked = self.shard_outs.iter().any(|o| o.any_parked);
        let release = unfinished_parked && any_parked;

        // Pass B — barrier release + per-tick daemons + physics; workers
        // capture per-node heat and buffer journal events per shard.
        let couple_rack = self.rack.is_some();
        if teeing {
            for scratch in &mut self.event_scratch {
                scratch.records.clear();
            }
        }
        pool.run(
            &mut self.nodes,
            &mut self.shards,
            PassKind::Hardware { dt_s: dt, now_s: self.time_s, release, couple_rack, finite },
            couple_rack.then_some(&mut self.heat_scratch[..]),
            &mut self.shard_outs,
            teeing.then_some(&mut self.event_scratch[..]),
        );
        self.finished_nodes += self.shard_outs.iter().map(|o| o.finished_delta).sum::<usize>();
        if let Some(journal) = &mut self.journal {
            for scratch in &self.event_scratch {
                for rec in &scratch.records {
                    journal.record(rec);
                }
            }
        }

        self.step_rack(dt);

        // Sampling path at 4 Hz, shard-parallel with the same journal
        // buffering.
        if self.ticks.is_multiple_of(self.ticks_per_sample) {
            if teeing {
                for scratch in &mut self.event_scratch {
                    scratch.records.clear();
                }
            }
            let pool = self.pool.as_ref().expect("tick_sharded requires a pool");
            pool.run(
                &mut self.nodes,
                &mut self.shards,
                PassKind::Sample { now_s: self.time_s },
                None,
                &mut self.shard_outs,
                teeing.then_some(&mut self.event_scratch[..]),
            );
            if let Some(journal) = &mut self.journal {
                for scratch in &self.event_scratch {
                    for rec in &scratch.records {
                        journal.record(rec);
                    }
                }
            }
            self.record_rack_air();
        }
    }

    /// True when every rank's workload finished.
    pub fn all_finished(&self) -> bool {
        self.finished_nodes == self.nodes.len()
    }

    /// Runs to completion (every rank finished, plus the configured
    /// cooldown) or to the time limit, whichever comes first, and produces
    /// the report.
    pub fn run(mut self) -> RunReport {
        let finite = self.scenario.workload.is_finite();
        let mut finished_at: Option<f64> = None;
        while self.time_s < self.scenario.max_time_s {
            self.tick();
            if finite && finished_at.is_none() && self.all_finished() {
                finished_at = Some(self.time_s);
            }
            if let Some(t) = finished_at {
                if self.time_s >= t + self.scenario.cooldown_s {
                    break;
                }
            }
        }
        self.into_report()
    }

    /// Finalizes the report from the current state.
    pub fn into_report(mut self) -> RunReport {
        // Store every node's physics lanes back into its scalar `Node` and
        // flush the batched-tick counters.
        let (shards, len) = (self.shards.len(), self.nodes.len());
        for (s, shard) in self.shards.iter_mut().enumerate() {
            for (j, ns) in self.nodes[shard_range(len, shards, s)].iter_mut().enumerate() {
                store_node(&mut shard.lanes, j, ns);
            }
        }
        let completed = self.nodes.iter().all(|ns| ns.finish_time_s.is_some());
        let exec_time_s = if completed {
            self.nodes.iter().filter_map(|ns| ns.finish_time_s).fold(0.0f64, f64::max)
        } else {
            self.time_s
        };

        let journal_warning = self.journal.as_ref().and_then(|j| j.sink_error());

        let nodes = self
            .nodes
            .into_iter()
            .map(|ns| NodeReport {
                temp: ns.rec.temp,
                duty: ns.rec.duty,
                freq: ns.rec.freq,
                power: ns.rec.power,
                util: ns.rec.util,
                freq_events: ns.rec.freq_events,
                freq_transitions: ns.node.cpu().freq_transition_count(),
                throttle_events: ns.node.cpu().throttle_event_count(),
                failsafe_engagements: ns.plane.failsafe_engagement_count(),
                shut_down: ns.node.cpu().is_shut_down(),
                avg_wall_power_w: ns.node.meter().average_power_w(),
                energy_j: ns.node.meter().energy_j(),
                temp_summary: ns.rec.temp_stats.summary(),
                duty_summary: ns.rec.duty_stats.summary(),
                finish_time_s: ns.finish_time_s,
                counters: ns.counters,
                events_dropped: ns.events.dropped(),
                events: ns.events.to_vec(),
                faults_applied: ns.node.fault_log().to_vec(),
            })
            .collect();

        RunReport {
            name: self.scenario.name.clone(),
            fan_label: self.scenario.fan_label(),
            dvfs_label: self.scenario.dvfs_label(),
            workload_label: self.scenario.workload.label(),
            nodes,
            wall_time_s: self.time_s,
            completed,
            exec_time_s,
            rack_air: if self.rack.is_some() { Some(self.rack_air) } else { None },
            journal_warning,
        }
    }
}

// --- Shared per-shard pass bodies -----------------------------------------
//
// The serial loop and the worker pool's `exec_shard` both run these exact
// functions over (their slice of) the nodes plus the matching shard, so the
// two paths cannot drift apart. `nodes` and the shard's lanes are
// index-aligned: slot `i` of the batch mirrors `nodes[i]`.

/// One shard's physics: the lanes of its nodes, and which of them the
/// hardware pass hooks.
pub(crate) struct Shard {
    /// Structure-of-arrays physics state, slot `i` mirroring node `i` of
    /// the shard.
    pub(crate) lanes: PhysicsBatch,
    /// Shard-local indices, ascending, of the nodes with a per-tick daemon
    /// or a fault source, so the hardware pass visits only those.
    pub(crate) hooked: Vec<usize>,
}

/// Stores slot `i` of `lanes` back into `ns` and folds its lane ticks into
/// the node's `ticks_skipped`: each is one control-plane tick that observed
/// nothing. A per-tick daemon observes every tick, so its node counts none.
#[inline]
fn store_node(lanes: &mut PhysicsBatch, i: usize, ns: &mut NodeSim) {
    lanes.store(i, &mut ns.node);
    let skipped = lanes.take_skipped(i);
    if !ns.tick_daemon {
        ns.counters.ticks_skipped += skipped;
    }
}

/// How many nodes ahead of the one being processed a node pass
/// prefetches. Measured on the 10k-node fleet against 1, 2, 3 and 8
/// (DESIGN §14).
const PREFETCH_AHEAD: usize = 4;

/// The fewest nodes a pass must walk to prefetch at all. Measured on a
/// 2-vCPU x86-64 host with a 2 MB L2 (DESIGN §14): walks of 2,048 nodes
/// and more saved 10–19 % of a sample period, while walks of 256 to 1,024
/// nodes lost 4–9 %.
const PREFETCH_MIN_NODES: usize = 2048;

/// The node [`PREFETCH_AHEAD`] places after `i`, when `nodes` is long
/// enough for prefetching it to pay.
#[inline(always)]
fn node_ahead(nodes: &[NodeSim], i: usize) -> Option<&NodeSim> {
    if nodes.len() < PREFETCH_MIN_NODES {
        return None;
    }
    nodes.get(i + PREFETCH_AHEAD)
}

/// Asks the CPU to start loading every cache line of `value`, so a node
/// pass finds the state of the nodes ahead already in cache instead of
/// stalling on each one in turn. A hint with no semantic effect; it
/// compiles to nothing on targets other than x86_64.
#[inline(always)]
fn prefetch<T: ?Sized>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = (value as *const T).cast::<i8>();
        let lead = start as usize % 64;
        let first = start.wrapping_sub(lead);
        for offset in (0..lead + std::mem::size_of_val(value)).step_by(64) {
            // SAFETY: a prefetch only hints the cache; it never faults,
            // reads into a register or writes, whatever the address.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(offset)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// Pass A: advance every rank's workload and fold the barrier flags into
/// `out`. Ranks read their execution speed from and write their load into
/// the lanes.
pub(crate) fn workload_pass(
    nodes: &mut [NodeSim],
    batch: &mut PhysicsBatch,
    dt_s: f64,
    out: &mut ShardOut,
) {
    out.unfinished_parked = true;
    out.any_parked = false;
    for i in 0..nodes.len() {
        if let Some(ahead) = node_ahead(nodes, i) {
            prefetch(&ahead.endless);
            prefetch(&*ahead.workload);
        }
        let ns = &mut nodes[i];
        let speed = batch.speed_factor(i);
        let w = ns.workload.advance(dt_s, speed);
        batch.set_load(i, w.utilization, w.activity);
        // Endless workloads are `Running` by contract — skip the second
        // virtual dispatch on the hot path.
        if ns.endless {
            out.unfinished_parked = false;
            continue;
        }
        match ns.workload.state() {
            WorkState::AtBarrier(_) => out.any_parked = true,
            WorkState::Finished => {}
            _ => out.unfinished_parked = false,
        }
    }
}

/// Pass B: the hooks, optional barrier release, the lane physics tick,
/// per-node heat capture, finish detection.
///
/// A hooked node with work this tick — a per-tick daemon, which has work
/// every tick, or a fault that is due — has its lanes stored into its
/// scalar node, runs [`NodeSim::on_tick_hook`] (daemons, then faults, then
/// their events), and is reloaded: every lane after a fault, the control
/// lanes otherwise. This keeps the scalar tick's daemon → faults → physics
/// order, and the hooks run in ascending node order, so the journal sees
/// each node's events in the order the scalar tick emitted them. Barrier
/// release and finish detection touch only workload state, which neither
/// a hook nor a lane tick reads, so they run in their own loops.
#[allow(clippy::too_many_arguments)] // mirrors PassKind::Hardware exactly
pub(crate) fn hardware_pass(
    nodes: &mut [NodeSim],
    shard: &mut Shard,
    dt_s: f64,
    now_s: f64,
    release: bool,
    finite: bool,
    heat: Option<&mut [f64]>,
    mut journal: Option<&mut (dyn EventSink + 'static)>,
    out: &mut ShardOut,
) {
    out.finished_delta = 0;
    let batch = &mut shard.lanes;
    batch.begin_tick(dt_s);
    for &i in &shard.hooked {
        let ns = &mut nodes[i];
        if !ns.tick_daemon && !ns.node.fault_due(batch.ticks(), batch.time_s()) {
            continue;
        }
        batch.store(i, &mut ns.node);
        if ns.on_tick_hook(dt_s, now_s, journal.as_deref_mut()) {
            batch.load(i, &ns.node);
        } else {
            batch.reload_control(i, &ns.node);
        }
    }
    if release {
        for ns in nodes.iter_mut() {
            ns.workload.release_barrier();
        }
    }
    batch.tick_all(dt_s);
    if let Some(heat) = heat {
        batch.write_heat(heat);
    }
    if finite {
        for ns in nodes.iter_mut() {
            if ns.finish_time_s.is_none() && ns.workload.is_finished() {
                ns.finish_time_s = Some(now_s);
                out.finished_delta += 1;
            }
        }
    }
}

/// The 4 Hz sampling pass: for each rank, store the lanes back into the
/// scalar node, run the sampling path (sensor read, control plane,
/// recorders), and reload the lanes from the possibly-actuated node — fused
/// per node so each node's cache lines are touched once per sample.
/// Batched ticks flush into the node's `ticks_skipped` counter here (see
/// [`store_node`]).
pub(crate) fn sample_pass(
    nodes: &mut [NodeSim],
    batch: &mut PhysicsBatch,
    now_s: f64,
    mut journal: Option<&mut (dyn EventSink + 'static)>,
) {
    for i in 0..nodes.len() {
        if let Some(ahead) = node_ahead(nodes, i) {
            prefetch(ahead);
        }
        let ns = &mut nodes[i];
        store_node(batch, i, ns);
        ns.on_sample(now_s, journal.as_deref_mut());
        batch.reload_control(i, &ns.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadSpec;
    use crate::scheme::{DvfsScheme, FanScheme};
    use unitherm_core::control_array::Policy;
    use unitherm_workload::{NpbBenchmark, NpbClass, Segment};

    #[test]
    fn idle_cluster_stays_cool_and_runs_to_limit() {
        let report = Simulation::new(
            Scenario::new("idle")
                .with_nodes(2)
                .with_workload(WorkloadSpec::Idle)
                .with_max_time(30.0),
        )
        .run();
        assert!(!report.completed, "idle runs to the limit");
        assert!((report.wall_time_s - 30.0).abs() < 0.1);
        assert!(report.avg_temp_c() < 45.0, "idle temp {}", report.avg_temp_c());
        assert_eq!(report.total_freq_transitions(), 0);
    }

    #[test]
    fn failed_journal_sink_surfaces_as_report_warning() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let scenario = Scenario::new("burn")
            .with_nodes(1)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 60))
            .with_max_time(30.0);

        // JSONL sink: first event write fails, and the report says so.
        let mut sim = Simulation::new(scenario.clone());
        sim.attach_journal(Box::new(unitherm_obs::JournalWriter::new(Failing)));
        let report = sim.run();
        let warning = report.journal_warning.expect("failed sink must be surfaced");
        assert!(warning.contains("disk full"), "{warning}");

        // Binary sink: the header write already fails.
        let mut sim = Simulation::new(scenario.clone());
        sim.attach_binary_journal(Failing);
        let report = sim.run();
        assert!(report.journal_warning.is_some(), "binary sink failure must be surfaced");

        // A healthy sink leaves the warning empty.
        let mut sim = Simulation::new(scenario);
        sim.attach_binary_journal(Vec::new());
        let report = sim.run();
        assert_eq!(report.journal_warning, None);
    }

    #[test]
    fn npb_job_completes_near_nominal_time() {
        let report = Simulation::new(
            Scenario::new("bt-a")
                .with_nodes(4)
                .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A })
                .with_fan(FanScheme::Constant { duty: 75 })
                .with_max_time(200.0),
        )
        .run();
        assert!(report.completed, "BT.A must finish within 200 s");
        let nominal = NpbBenchmark::Bt.nominal_duration_s(NpbClass::A);
        assert!(
            (report.exec_time_s - nominal).abs() < nominal * 0.10,
            "exec {} vs nominal {nominal}",
            report.exec_time_s
        );
    }

    #[test]
    fn barrier_couples_ranks() {
        // All ranks must finish within a whisker of each other despite
        // per-rank wobble, because barriers re-synchronize every iteration.
        let report = Simulation::new(
            Scenario::new("bt-a")
                .with_nodes(4)
                .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A })
                .with_fan(FanScheme::Constant { duty: 75 })
                .with_max_time(200.0),
        )
        .run();
        let finishes: Vec<f64> = report.nodes.iter().map(|n| n.finish_time_s.unwrap()).collect();
        let spread = finishes.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - finishes.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1.0, "finish spread {spread} ({finishes:?})");
    }

    #[test]
    fn script_workload_completes() {
        let report = Simulation::new(
            Scenario::new("script")
                .with_nodes(1)
                .with_workload(WorkloadSpec::Script(vec![
                    Segment::new(5.0, 1.0),
                    Segment::new(5.0, 0.1),
                ]))
                .with_max_time(60.0),
        )
        .run();
        assert!(report.completed);
        assert!((report.exec_time_s - 10.0).abs() < 0.5, "exec {}", report.exec_time_s);
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            Scenario::new("det")
                .with_nodes(2)
                .with_seed(77)
                .with_workload(WorkloadSpec::CpuBurn)
                .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
                .with_max_time(60.0)
        };
        let a = Simulation::new(build()).run();
        let b = Simulation::new(build()).run();
        assert_eq!(a.avg_node_power_w(), b.avg_node_power_w());
        assert_eq!(a.avg_temp_c(), b.avg_temp_c());
        assert_eq!(a.nodes[0].temp.samples(), b.nodes[0].temp.samples());
    }

    #[test]
    fn dynamic_fan_cools_burn_vs_weak_policy() {
        let run = |pp: u32| {
            Simulation::new(
                Scenario::new(format!("burn-p{pp}"))
                    .with_nodes(1)
                    .with_workload(WorkloadSpec::CpuBurn)
                    .with_fan(FanScheme::dynamic(Policy::new(pp).unwrap(), 100))
                    .with_max_time(240.0),
            )
            .run()
        };
        let aggressive = run(25);
        let weak = run(75);
        assert!(
            aggressive.avg_temp_c() < weak.avg_temp_c(),
            "P25 {} vs P75 {}",
            aggressive.avg_temp_c(),
            weak.avg_temp_c()
        );
        assert!(
            aggressive.avg_duty_pct() > weak.avg_duty_pct(),
            "P25 duty {} vs P75 duty {}",
            aggressive.avg_duty_pct(),
            weak.avg_duty_pct()
        );
    }

    #[test]
    fn tdvfs_events_recorded_with_capped_fan() {
        let report = Simulation::new(
            Scenario::new("tdvfs")
                .with_nodes(1)
                .with_workload(WorkloadSpec::CpuBurn)
                .with_fan(FanScheme::dynamic(Policy::MODERATE, 25))
                .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
                .with_max_time(240.0),
        )
        .run();
        assert!(report.total_freq_transitions() > 0, "tDVFS must engage");
        assert!(report.first_dvfs_event_time_s().is_some());
        assert!(report.min_commanded_freq_mhz().unwrap() < 2400);
    }

    #[test]
    fn report_reflects_scenario_labels() {
        let report = Simulation::new(
            Scenario::new("labels")
                .with_nodes(1)
                .with_workload(WorkloadSpec::Idle)
                .with_fan(FanScheme::Constant { duty: 50 })
                .with_dvfs(DvfsScheme::cpuspeed())
                .with_max_time(5.0),
        )
        .run();
        assert_eq!(report.name, "labels");
        assert_eq!(report.fan_label, "constant(50%)");
        assert_eq!(report.dvfs_label, "CPUSPEED");
        assert_eq!(report.workload_label, "idle");
    }
}
