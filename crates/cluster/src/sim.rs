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
//! Every tick runs its passes through `crate::pool`: shard 0 on the
//! calling thread, any other shard on whichever pool helper claims it (or
//! on the caller); no simulation owns a thread. Every node's plant lives in
//! a slot of its shard's structure-of-arrays [`PhysicsBatch`], built there
//! at construction; the node itself keeps only the cold parts. What the
//! lanes do not model acts on the slot in place through the node's
//! `NodeView`: the sampling path for every node at 4 Hz, and a per-tick
//! hook for the few nodes with a per-tick daemon or a fault source (see
//! `hardware_pass`).
//!
//! Every rank's workload lives in its shard too, in one dense array: pass
//! A, barrier release and finish detection walk that array and the lanes,
//! never a `NodeSim`; so do the nodes' event rings, one zeroed block per
//! shard. `Simulation::build` reserves the ring blocks first, then
//! allocates per-node state in the order the passes read it: each shard's
//! workloads, then every node's hot state (DESIGN §14).
//!
//! Barrier release is all-or-nothing: a rank that reaches a barrier parks
//! (near-zero utilization) until every unfinished rank arrives. A rank on a
//! throttled or down-scaled CPU therefore delays the whole job — the
//! mechanism behind the paper's execution-time results.

use unitherm_obs::{EventRings, EventSink, VecSink};
use unitherm_simnode::PhysicsBatch;
use unitherm_workload::{WorkState, Workload};

use crate::node_sim::NodeSim;
use crate::pool::{pool_width, shard_range, PassKind, Passes, ShardOut};
use crate::report::{NodeReport, RunReport};
use crate::scenario::{Scenario, ScenarioError};

/// A runnable cluster simulation.
pub struct Simulation {
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
    /// True when every rank's workload reports `Running` forever (never
    /// parks, never finishes), which lets pass A skip its per-rank state
    /// poll. Every rank instantiates the same `WorkloadSpec`, so this is
    /// one flag per simulation.
    endless: bool,
    /// Optional cluster-wide event journal; every node's event stream is
    /// teed into it on top of the nodes' rings (e.g. a JSONL
    /// [`unitherm_obs::JournalWriter`] behind `repro run-scenario --journal`).
    journal: Option<Box<dyn EventSink>>,
    /// Each shard's physics lanes, event rings, workloads, finish times,
    /// hooked nodes, reduction slot and journal scratch, one entry per
    /// shard.
    shards: Vec<Shard>,
    /// The claim state every pass over the shards reopens.
    passes: Passes,
    /// Per-node heat slots for the rack reduction: each pass fills its
    /// shard's rows, the coordinator folds them in node order so the f64
    /// summation order is the same at every width.
    heat_scratch: Vec<f64>,
}

impl Simulation {
    /// Builds the cluster from a scenario, or reports why the scenario
    /// cannot be run: the [`Scenario::validate`] error, or an event-ring
    /// block (`event rings: …`) the allocator cannot grant.
    ///
    /// `Scenario::threads` is an upper bound: the run is
    /// [`pool_width`]`(threads, nodes)` shards wide (see [`Self::width`]).
    pub fn try_new(scenario: Scenario) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        let width = pool_width(scenario.threads, scenario.nodes);
        Self::build(scenario, width)
    }

    /// Like [`Self::try_new`], but shards the nodes exactly `width` ways
    /// (capped at the node count), bypassing the host-core clamp and the
    /// nodes-per-shard grain. For tests that must run multi-shard passes
    /// on small clusters; scenarios, the CLI and the service never reach it.
    #[doc(hidden)]
    pub fn try_with_width(scenario: Scenario, width: usize) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        let width = width.clamp(1, scenario.nodes);
        Self::build(scenario, width)
    }

    /// Builds a validated scenario sharded `shards` ways, or
    /// names the event-ring block the allocator could not grant.
    fn build(scenario: Scenario, shards: usize) -> Result<Self, ScenarioError> {
        // Each shard's event-ring block is reserved first, fallibly: it is
        // the one reservation a valid scenario can make too large to grant,
        // and a zeroed block faults its pages in only as events land.
        // Per-node state then follows in pass order: each shard's lanes,
        // then every rank's workload (pass A walks only these), then every
        // node's hot state with its plant built straight into its shard's
        // slot (the sample pass walks it). A workload built between two
        // nodes' hot state would spread each pass's walk over more lines
        // and pages.
        let width = shards;
        let rings = (0..width)
            .map(|s| {
                let n = shard_range(scenario.nodes, width, s).len();
                EventRings::try_new(n, scenario.event_capacity)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ScenarioError::new(format!("event rings: {e}")))?;
        let mut lanes: Vec<PhysicsBatch> = (0..width)
            .map(|s| PhysicsBatch::with_len(shard_range(scenario.nodes, width, s).len()))
            .collect();
        let workloads: Vec<Vec<Box<dyn Workload>>> = (0..width)
            .map(|s| {
                shard_range(scenario.nodes, width, s)
                    .map(|i| scenario.workload.instantiate(i, scenario.seed))
                    .collect()
            })
            .collect();
        let endless = workloads.iter().flatten().all(|w| w.is_endless());
        let mut nodes: Vec<NodeSim> = Vec::with_capacity(scenario.nodes);
        for (s, batch) in lanes.iter_mut().enumerate() {
            for (j, i) in shard_range(scenario.nodes, width, s).enumerate() {
                nodes.push(NodeSim::build_hot(&scenario, i, Some((&mut *batch, j))));
            }
        }
        let ticks_per_sample = (scenario.sample_period_s / scenario.dt_s).round() as u64;
        // validate() rejects sample_period_s < dt_s, so this cannot be 0 —
        // a 0 here would make `is_multiple_of` false forever and silently
        // disable the whole sampling path (sensors, fan/tDVFS daemons).
        assert!(ticks_per_sample >= 1, "sampling period shorter than the tick");
        let mut heat_scratch = Vec::new();
        let rack = scenario.rack.map(|cfg| {
            heat_scratch = vec![0.0; nodes.len()];
            for (s, batch) in lanes.iter().enumerate() {
                batch.write_heat(&mut heat_scratch[shard_range(nodes.len(), width, s)]);
            }
            let model = crate::rack::RackModel::new(cfg, heat_scratch.iter().sum());
            // Nodes breathe the rack air from t = 0.
            for batch in &mut lanes {
                batch.set_ambient_all(model.air_c());
            }
            model
        });
        let shards: Vec<Shard> = lanes
            .into_iter()
            .zip(rings)
            .zip(workloads)
            .enumerate()
            .map(|(s, ((lanes, rings), workloads))| {
                Shard::new(lanes, rings, workloads, &nodes[shard_range(nodes.len(), width, s)])
            })
            .collect();
        Ok(Self {
            scenario,
            nodes,
            rack,
            rack_air: unitherm_metrics::TimeSeries::new("rack.air", "°C"),
            time_s: 0.0,
            ticks: 0,
            ticks_per_sample,
            finished_nodes: 0,
            endless,
            journal: None,
            shards,
            passes: Passes::new(width),
            heat_scratch,
        })
    }

    /// Builds the cluster from a scenario.
    ///
    /// # Panics
    /// On an invalid scenario or an ungrantable event-ring block; library
    /// callers who want the error instead use [`Simulation::try_new`].
    pub fn new(scenario: Scenario) -> Self {
        Self::try_new(scenario).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Attaches a cluster-wide event journal: every node's control-plane
    /// event stream is teed into `sink` in addition to the nodes' rings.
    /// The sink sees records in tick order (node order within a tick) at
    /// every thread count.
    pub fn attach_journal(&mut self, sink: Box<dyn EventSink>) {
        // If a journal sink hits an I/O error mid-run it latches the error
        // and stops writing; `into_report` surfaces it as
        // `RunReport::journal_warning` so a truncated journal is visible in
        // the report instead of only on `finish()`.
        self.journal = Some(sink);
        // Shard 0 tees into the journal directly; every other shard gets a
        // pre-reserved scratch. A tick rarely emits more than a few events
        // per node, so the reserve makes the buffer effectively
        // fixed-capacity (growth stays possible but is amortized away and
        // never affects determinism).
        let (width, len) = (self.shards.len(), self.nodes.len());
        for (s, shard) in self.shards.iter_mut().enumerate().skip(1) {
            shard.events.records.reserve(32 * shard_range(len, width, s).len().max(1));
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

    /// How many shards the nodes are split into: the width of every pass.
    /// Never enters the report or the journal.
    pub fn width(&self) -> usize {
        self.shards.len()
    }

    /// Current simulated time.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Immutable access to the nodes (diagnostics, tests).
    ///
    /// Each node's plant lives in its shard's physics batch, not in the
    /// `Node` seen here, which holds only the node's cold parts, and its
    /// workload in its shard's workloads, not in the `NodeSim`.
    pub fn nodes(&self) -> &[NodeSim] {
        &self.nodes
    }

    /// Each shard's ranks' workloads, in node order. For the layout test,
    /// which checks that each shard's workloads sit back to back.
    #[doc(hidden)]
    pub fn shard_workloads(&self) -> impl Iterator<Item = &[Box<dyn Workload>]> {
        self.shards.iter().map(|s| &s.workloads[..])
    }

    /// Advances the cluster one tick.
    ///
    /// The loop is fused into two passes over the nodes (plus the rack /
    /// sampling work that genuinely needs a completed pass) and performs no
    /// heap allocation in steady state — the barrier reduction folds into
    /// pass A instead of collecting per-rank states into a scratch `Vec`.
    /// Every pass runs through the process's pool, shard-parallel when the
    /// run is wider than one shard, with bit-identical results at every
    /// width.
    ///
    /// Determinism: the barrier decision folds exact booleans; rack heat is
    /// captured per node and folded here in node order; journal events
    /// reach the sink in node order (shard 0 directly, then the buffered
    /// shards 1, 2, … after each pass). See `crate::pool` for the full
    /// argument.
    pub fn tick(&mut self) {
        let dt = self.scenario.dt_s;
        self.ticks += 1;
        self.time_s += dt;
        let finite = self.scenario.workload.is_finite();

        // Pass A — workloads advance; the barrier reduction folds per shard,
        // then across shards (order-free booleans). Release is
        // all-or-nothing, so the decision needs every rank's post-advance
        // state and cannot merge with pass B.
        let kind = PassKind::Workload { dt_s: dt, endless: self.endless };
        self.passes.run(&mut self.nodes, &mut self.shards, kind, None, None);
        let release = self.shards.iter().all(|s| s.out.unfinished_parked)
            && self.shards.iter().any(|s| s.out.any_parked);

        // Pass B — hooks, the lane physics tick, per-node rack heat capture,
        // then barrier release and finish times.
        let kind = PassKind::Hardware { dt_s: dt, now_s: self.time_s, release, finite };
        let heat = self.rack.is_some().then_some(&mut self.heat_scratch[..]);
        self.passes.run(&mut self.nodes, &mut self.shards, kind, heat, self.journal.as_deref_mut());
        self.finished_nodes += self.shards.iter().map(|s| s.out.finished_delta).sum::<usize>();
        self.drain_events();

        self.step_rack(dt);

        // Sampling path at 4 Hz: sensors, daemons and recorders on each
        // node's slot in place.
        if self.ticks.is_multiple_of(self.ticks_per_sample) {
            let kind = PassKind::Sample { now_s: self.time_s };
            self.passes.run(
                &mut self.nodes,
                &mut self.shards,
                kind,
                None,
                self.journal.as_deref_mut(),
            );
            self.drain_events();
            self.record_rack_air();
        }
    }

    /// Moves the events shards 1, 2, … buffered during the last pass into
    /// the journal, in shard (= node) order. Shard 0 tees directly.
    fn drain_events(&mut self) {
        let Some(journal) = &mut self.journal else { return };
        for shard in &mut self.shards[1..] {
            for rec in &shard.events.records {
                journal.record(rec);
            }
            shard.events.records.clear();
        }
    }

    /// Rack air coupling: folds the per-node heat slots in node order (one
    /// fixed `heat += …` summation), steps the shared intake-air volume,
    /// and fans the new ambient out to every lane.
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
        let finish_times: Vec<Option<f64>> =
            self.shards.iter().flat_map(|s| s.finish_time_s.iter().copied()).collect();
        let completed = finish_times.iter().all(Option::is_some);
        let exec_time_s = if completed {
            finish_times.iter().flatten().copied().fold(0.0f64, f64::max)
        } else {
            self.time_s
        };

        let journal_warning = self.journal.as_ref().and_then(|j| j.sink_error());

        let (width, len, ticks) = (self.shards.len(), self.nodes.len(), self.ticks);
        let slots =
            (0..width).flat_map(|s| (0..shard_range(len, width, s).len()).map(move |j| (s, j)));
        let nodes = self
            .nodes
            .into_iter()
            .zip(slots)
            .zip(finish_times)
            .map(|((mut ns, (s, j)), finish_time_s)| {
                let faults_applied = ns.node.fault_log().to_vec();
                let shard = &mut self.shards[s];
                let plant = ns.node.view_in(&mut shard.lanes, j);
                // Every lane tick of a node without a per-tick daemon is a
                // control-plane tick that observed nothing.
                let mut counters = ns.counters;
                if !ns.tick_daemon {
                    counters.ticks_skipped += ticks;
                }
                let series = ns.rec.series.map_or_else(Default::default, |s| *s);
                NodeReport {
                    freq_transitions: plant.freq_transition_count(),
                    throttle_events: plant.throttle_event_count(),
                    shut_down: plant.is_shut_down(),
                    avg_wall_power_w: plant.average_power_w(),
                    energy_j: plant.energy_j(),
                    faults_applied,
                    temp: series.temp,
                    duty: series.duty,
                    freq: series.freq,
                    power: series.power,
                    util: series.util,
                    freq_events: series.freq_events,
                    failsafe_engagements: ns.plane.failsafe_engagement_count(),
                    temp_summary: ns.rec.temp_stats.summary(),
                    duty_summary: ns.rec.duty_stats.summary(),
                    finish_time_s,
                    counters,
                    events_dropped: shard.rings.dropped(j),
                    events: shard.rings.records(j),
                }
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

// --- Per-shard pass bodies -----------------------------------------------
//
// `crate::pool`'s `exec_shard` runs these functions over a shard's slice
// of the nodes plus the matching shard. `nodes`, the shard's lanes, its
// rings, its workloads and its finish times are index-aligned: slot `i` of
// each belongs to `nodes[i]`.

/// One shard: the plants, event rings and workloads of its nodes, their
/// finish times, which nodes the hardware pass hooks, its reduction slot
/// and its journal scratch.
pub(crate) struct Shard {
    /// Structure-of-arrays plant state, slot `i` holding node `i` of the
    /// shard.
    pub(crate) lanes: PhysicsBatch,
    /// The shard's nodes' event rings in one block, ring `i` holding node
    /// `i`'s.
    pub(crate) rings: EventRings,
    /// The shard's ranks' workloads, built back to back before any node's
    /// hot state, so pass A walks them densely without touching a
    /// `NodeSim`.
    pub(crate) workloads: Vec<Box<dyn Workload>>,
    /// Wall-clock second at which each rank's workload finished.
    pub(crate) finish_time_s: Vec<Option<f64>>,
    /// Shard-local indices, ascending, of the nodes with a per-tick daemon
    /// or a fault source, so the hardware pass visits only those.
    pub(crate) hooked: Vec<usize>,
    /// The reduction outputs of the last pass over the shard.
    pub(crate) out: ShardOut,
    /// Events the shard buffered in the last pass when it does not run on
    /// the coordinator (shards 1, 2, …), drained by `drain_events`.
    pub(crate) events: VecSink,
}

impl Shard {
    /// The shard over `nodes`, whose plants `lanes`, whose event rings
    /// `rings` and whose workloads `workloads` hold.
    pub(crate) fn new(
        lanes: PhysicsBatch,
        rings: EventRings,
        workloads: Vec<Box<dyn Workload>>,
        nodes: &[NodeSim],
    ) -> Self {
        Self {
            lanes,
            rings,
            finish_time_s: vec![None; workloads.len()],
            workloads,
            hooked: (0..nodes.len())
                .filter(|&j| nodes[j].tick_daemon || nodes[j].node.has_fault_sources())
                .collect(),
            out: ShardOut::default(),
            events: VecSink::default(),
        }
    }
}

/// How many nodes ahead of the one being processed the sample pass
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

/// Asks the CPU to start loading every cache line of `value`, so the
/// sample pass finds the state of the nodes ahead already in cache instead
/// of stalling on each one in turn. A hint with no semantic effect; it
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

/// Pass A: advance every rank's workload and return the shard's barrier
/// flags. Ranks read their execution speed from and write their load into
/// the lanes. `endless` is the simulation's flag: every rank is `Running`
/// by contract.
pub(crate) fn workload_pass(
    workloads: &mut [Box<dyn Workload>],
    batch: &mut PhysicsBatch,
    dt_s: f64,
    endless: bool,
) -> ShardOut {
    let mut out = ShardOut { unfinished_parked: true, ..ShardOut::default() };
    for (i, workload) in workloads.iter_mut().enumerate() {
        let w = workload.advance(dt_s, batch.speed_factor(i));
        batch.set_load(i, w.utilization, w.activity);
        // Endless workloads are `Running` by contract — skip the second
        // virtual dispatch on the hot path.
        if endless {
            out.unfinished_parked = false;
            continue;
        }
        match workload.state() {
            WorkState::AtBarrier(_) => out.any_parked = true,
            WorkState::Finished => {}
            _ => out.unfinished_parked = false,
        }
    }
    out
}

/// Pass B's node half: the hooks and the lane physics tick (the pool then
/// captures per-node heat from the lanes).
///
/// A hooked node with work this tick — a per-tick daemon, which has work
/// every tick, or a fault that is due — runs [`NodeSim::on_tick_hook`]
/// (daemons, then faults, then their events) on its slot in place before
/// the lane tick: the daemon → faults → physics order of a standalone
/// node's tick. The hooks run in ascending node order, so the journal sees
/// each node's events in that order.
pub(crate) fn hardware_pass(
    nodes: &mut [NodeSim],
    batch: &mut PhysicsBatch,
    rings: &mut EventRings,
    hooked: &[usize],
    dt_s: f64,
    now_s: f64,
    mut journal: Option<&mut (dyn EventSink + 'static)>,
) {
    batch.begin_tick(dt_s);
    for &i in hooked {
        let ns = &mut nodes[i];
        if !ns.tick_daemon && !ns.node.fault_due(batch.ticks()) {
            continue;
        }
        ns.on_tick_hook(batch, rings, i, dt_s, now_s, journal.as_deref_mut());
    }
    batch.tick_all(dt_s);
}

/// Pass B's rank half: optional barrier release, then finish detection
/// when the workload can finish on its own. Returns how many ranks
/// finished on this tick. It reads and writes only workload state, which
/// no hook and no lane tick reads, so running it after [`hardware_pass`]
/// gives the same results as interleaving the two per node.
pub(crate) fn rank_pass(
    workloads: &mut [Box<dyn Workload>],
    finish_time_s: &mut [Option<f64>],
    release: bool,
    finite: bool,
    now_s: f64,
) -> usize {
    if release {
        for workload in workloads.iter_mut() {
            workload.release_barrier();
        }
    }
    let mut finished = 0;
    if finite {
        for (workload, finish) in workloads.iter().zip(finish_time_s) {
            if finish.is_none() && workload.is_finished() {
                *finish = Some(now_s);
                finished += 1;
            }
        }
    }
    finished
}

/// The 4 Hz sampling pass: for each rank, the sampling path (sensor read,
/// control plane, recorders) on its slot of the lanes and rings in place.
pub(crate) fn sample_pass(
    nodes: &mut [NodeSim],
    batch: &mut PhysicsBatch,
    rings: &mut EventRings,
    now_s: f64,
    mut journal: Option<&mut (dyn EventSink + 'static)>,
) {
    for i in 0..nodes.len() {
        if let Some(ahead) = node_ahead(nodes, i) {
            prefetch(ahead);
        }
        nodes[i].sample(Some((&mut *batch, &mut *rings, i)), now_s, journal.as_deref_mut());
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
    fn ungrantable_event_rings_are_a_named_error() {
        // 2^40 nodes of 65,536 records: 2^61 B, more than any allocator
        // can grant. 2^50 nodes: the size overflows before any allocator
        // is asked. Either is an error from `try_new`, not an abort.
        for (nodes, cause) in [(1usize << 40, "refused"), (1 << 50, "overflow")] {
            let scenario = Scenario::new("huge").with_nodes(nodes).with_event_capacity(65_536);
            let err = Simulation::try_new(scenario).err().expect("no block can be granted");
            assert!(err.message().starts_with("event rings: "), "{err}");
            assert!(err.message().contains(cause), "{err}");
        }
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
