//! Adversarial chaos search over deterministic replay.
//!
//! The replay layer ([`crate::replay`]) re-executes fault windows pinned
//! to a *recorded* run's decisions bit-identically; this module closes the
//! other half of the robustness loop: it *finds* the fault sequences that
//! matter. [`chaos_search`] runs a deterministic, seeded search — random
//! sampling, then greedy hold/magnitude mutation, then window bisection —
//! over the same tick-addressed [`FaultWindow`]s, lowered to schedules the
//! same way, hunting the **cheapest** sequence that flips a scenario's
//! outcome: a failsafe trip appears, a thermal limit is crossed, an SLA or
//! completion target is missed. Outcomes are expressed as serde-configurable
//! [`OutcomePredicate`]s evaluated from a [`RunReport`], so the same search
//! harness covers every safety property the paper's controllers claim.
//!
//! The evaluation engine is the existing sweep layer
//! ([`try_run_scenarios_parallel`] + [`crate::thread_budget`]): one
//! candidate = one independent scenario job. Because the sweep reassembles
//! results in input order and every simulation is bit-identical at any
//! thread count, the whole search is a pure function of `(scenario, config
//! seed)` — the same seed produces a byte-identical counterexample corpus
//! whether it evaluated on 1 or 16 threads.
//!
//! The product is a ranked, deduplicated [`ChaosCorpus`] (JSON, see
//! `docs/FORMATS.md`): each [`Counterexample`] carries the minimized fault
//! windows, the exact `tick_faults` schedules to install, an outcome
//! summary, and the FNV-1a digest of its replayed report — so
//! `repro run-scenario --replay-faults corpus.json` can re-execute it and
//! prove bit-identity. See `DESIGN.md` §13 for the architecture.

use std::sync::{Arc, Mutex};

use rand::prelude::*;
use unitherm_obs::{record_tick, Event, EventRecord, EventSink, SearchPhase, VecSink};
use unitherm_simnode::faults::TickFaultSchedule;

use crate::replay::to_schedules;
pub use crate::replay::{AttackKind, FaultWindow};
use crate::report::RunReport;
use crate::scenario::{Scenario, ScenarioError};
use crate::sim::Simulation;
use crate::sweep::try_run_scenarios_parallel;

/// A scenario outcome the search tries to flip, evaluated from a
/// [`RunReport`]. Serde-configurable so corpora and CLI flags can name the
/// property under attack.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum OutcomePredicate {
    /// The failsafe watchdog engaged on any node.
    FailsafeTrip,
    /// Some node exceeded the given die-temperature limit, °C.
    ThermalLimit {
        /// The limit, °C.
        limit_c: f64,
    },
    /// Some node crossed the shutdown threshold.
    Shutdown,
    /// The job did not complete within the scenario time limit.
    CompletionMiss,
    /// The job missed its SLA: it did not complete, or completed later
    /// than the given execution-time bound, seconds.
    SlaMiss {
        /// The execution-time bound, s.
        max_exec_time_s: f64,
    },
    /// Any of the inner predicates holds.
    AnyOf(Vec<OutcomePredicate>),
}

impl OutcomePredicate {
    /// Evaluates the predicate against a finished run.
    pub fn holds(&self, report: &RunReport) -> bool {
        match self {
            OutcomePredicate::FailsafeTrip => {
                report.nodes.iter().any(|n| n.failsafe_engagements > 0)
            }
            OutcomePredicate::ThermalLimit { limit_c } => report.max_temp_c() > *limit_c,
            OutcomePredicate::Shutdown => report.any_shutdown(),
            OutcomePredicate::CompletionMiss => !report.completed,
            OutcomePredicate::SlaMiss { max_exec_time_s } => {
                !report.completed || report.exec_time_s > *max_exec_time_s
            }
            OutcomePredicate::AnyOf(inner) => inner.iter().any(|p| p.holds(report)),
        }
    }
}

/// Most fault windows in one sampled candidate.
const MAX_WINDOWS: usize = 3;
/// Sampled hold range, ticks (inclusive).
const HOLD_TICKS: std::ops::RangeInclusive<u64> = 20..=400;
/// Largest sampled jitter magnitude, °C std-dev.
const JITTER_MAX_STD_C: f64 = 8.0;
/// Counterexamples kept in the ranked corpus.
const MAX_CORPUS: usize = 8;

/// Tuning for [`chaos_search`]: the knobs `repro chaos-search` exposes.
/// The sampling ranges and the corpus size are the constants above.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the search's own RNG (candidate sampling); independent of
    /// the scenario's physics seed.
    pub seed: u64,
    /// The outcome to flip.
    pub predicate: OutcomePredicate,
    /// Total simulation-run budget, including the baseline run.
    pub max_evaluations: usize,
    /// Candidates evaluated per sampling round (one parallel sweep).
    pub batch: usize,
    /// Worker threads for candidate evaluation; 0 = all host cores.
    /// Changes wall-clock only, never the corpus.
    pub threads: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            predicate: OutcomePredicate::FailsafeTrip,
            max_evaluations: 96,
            batch: 8,
            threads: 0,
        }
    }
}

/// Why a chaos search could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// The base scenario fails validation.
    InvalidScenario(ScenarioError),
    /// The search configuration is unusable (a budget below two runs, an
    /// empty batch).
    InvalidConfig(String),
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::InvalidScenario(e) => write!(f, "chaos search: unusable scenario: {e}"),
            ChaosError::InvalidConfig(msg) => write!(f, "chaos search: bad config: {msg}"),
        }
    }
}

impl std::error::Error for ChaosError {}

/// Outcome facts for one counterexample, so a corpus reads without
/// re-running anything.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OutcomeSummary {
    /// The predicate's value under this candidate (the baseline holds the
    /// opposite value — that is what "flipped" means).
    pub predicate_holds: bool,
    /// Did the job complete?
    pub completed: bool,
    /// Execution time, s.
    pub exec_time_s: f64,
    /// Hottest die temperature, °C.
    pub max_temp_c: f64,
    /// Total failsafe engagements across the cluster.
    pub failsafe_engagements: u64,
    /// Did any node shut down?
    pub any_shutdown: bool,
}

/// One minimized, outcome-flipping fault sequence.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Counterexample {
    /// Search cost: total faulted ticks + window count. The corpus is
    /// ranked by this, cheapest first.
    pub cost: u64,
    /// Sum of the windows' hold ticks.
    pub faulted_ticks: u64,
    /// The fault windows, in canonical order.
    pub windows: Vec<FaultWindow>,
    /// The exact per-node schedules to install as `Scenario::tick_faults`
    /// for a bit-identical re-execution.
    pub tick_faults: Vec<(usize, TickFaultSchedule)>,
    /// What the faulted run looked like.
    pub outcome: OutcomeSummary,
    /// FNV-1a 64 digest of the faulted run's serialized report
    /// (`fnv1a64:<16 hex>`); replaying [`Counterexample::tick_faults`] on
    /// the corpus scenario must reproduce it at any thread count.
    pub report_digest: String,
}

/// The ranked, deduplicated product of one [`chaos_search`] run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosCorpus {
    /// Format tag: `"unitherm-chaos/v1"`. How tooling distinguishes a
    /// corpus from a JSONL event journal.
    pub schema: String,
    /// Name of the scenario the search attacked.
    pub scenario: String,
    /// The search seed; rerunning with the same scenario + config
    /// reproduces this corpus byte for byte.
    pub seed: u64,
    /// The outcome predicate under attack.
    pub predicate: OutcomePredicate,
    /// The predicate's baseline (fault-free) value.
    pub baseline_holds: bool,
    /// Digest of the baseline report.
    pub baseline_digest: String,
    /// Simulation runs spent, baseline included.
    pub evaluations: u64,
    /// Counterexamples, cheapest first.
    pub counterexamples: Vec<Counterexample>,
}

/// The corpus schema tag.
pub const CHAOS_SCHEMA: &str = "unitherm-chaos/v1";

impl ChaosCorpus {
    /// Installs counterexample `index`'s schedules on a scenario (replacing
    /// its `tick_faults`), for re-execution. Returns `None` when the corpus
    /// has no such entry.
    pub fn apply(&self, scenario: Scenario, index: usize) -> Option<Scenario> {
        let entry = self.counterexamples.get(index)?;
        let mut scenario = scenario;
        scenario.tick_faults = entry.tick_faults.clone();
        Some(scenario)
    }
}

/// FNV-1a 64 digest of a serialized report, rendered `fnv1a64:<16 hex>` —
/// the determinism fingerprint used by the tests, the benchmark and chaos
/// corpora. The report's compact JSON is hashed as it streams out, never
/// held as a string.
pub fn report_digest(report: &RunReport) -> String {
    digest_json(report, std::io::sink())
}

/// The report's compact JSON together with its [`report_digest`], from one
/// encoding: the bytes are hashed as they are written, so a caller that
/// serves the JSON does not encode the report a second time.
pub fn report_json_and_digest(report: &RunReport) -> (Vec<u8>, String) {
    let mut json = Vec::new();
    let digest = digest_json(report, &mut json);
    (json, digest)
}

/// Streams `report`'s compact JSON into `out`, hashing every byte on the
/// way, and renders the hash: the one definition of the report digest.
fn digest_json<W: std::io::Write>(report: &RunReport, out: W) -> String {
    let mut tee = Fnv1a64 { hash: 0xcbf2_9ce4_8422_2325, out };
    serde_json::to_writer(&mut tee, report).expect("reports always serialize");
    format!("fnv1a64:{:016x}", tee.hash)
}

/// An FNV-1a 64 state that absorbs whatever is written through it to `out`.
struct Fnv1a64<W> {
    hash: u64,
    out: W,
}

impl<W: std::io::Write> std::io::Write for Fnv1a64<W> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.out.write_all(bytes)?;
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// A thread-safe sink handing the baseline run's journal back to the
/// search (Simulation owns its sink, so shared ownership is the seam).
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<VecSink>>);

impl EventSink for SharedSink {
    fn record(&mut self, rec: &EventRecord) {
        self.0.lock().expect("journal sink lock").record(rec);
    }
}

/// Canonical sort key for windows; candidates are kept in this order so
/// structurally equal candidates dedup regardless of sampling order.
fn window_key(w: &FaultWindow) -> (usize, u64, u8, u64, u64) {
    (w.node, w.start_tick, w.kind as u8, w.hold_ticks, w.magnitude.to_bits())
}

/// Puts a candidate in canonical form: windows sorted, and overlapping
/// same-kind windows on the same node unioned into one (a second injection
/// inside an open window would otherwise be cancelled early by the first
/// window's recovery).
fn normalize(mut windows: Vec<FaultWindow>) -> Vec<FaultWindow> {
    windows.sort_by_key(window_key);
    let mut out: Vec<FaultWindow> = Vec::with_capacity(windows.len());
    for w in windows {
        if let Some(prev) = out.iter_mut().rev().find(|p| p.node == w.node && p.kind == w.kind) {
            let prev_end = prev.start_tick + prev.hold_ticks;
            if w.start_tick <= prev_end {
                let end = (w.start_tick + w.hold_ticks).max(prev_end);
                prev.hold_ticks = end - prev.start_tick;
                prev.magnitude = prev.magnitude.max(w.magnitude);
                continue;
            }
        }
        out.push(w);
    }
    out
}

/// cost = total faulted ticks + window count: the search minimizes how
/// *little* misbehavior, in how few places, still flips the outcome.
fn cost(windows: &[FaultWindow]) -> u64 {
    windows.iter().map(|w| w.hold_ticks).sum::<u64>() + windows.len() as u64
}

/// Dedup key: the canonical windows, bit-exactly.
fn candidate_key(windows: &[FaultWindow]) -> String {
    let mut key = String::new();
    for w in windows {
        key.push_str(&format!(
            "n{}t{}h{}k{:?}m{:016x};",
            w.node,
            w.start_tick,
            w.hold_ticks,
            w.kind,
            w.magnitude.to_bits()
        ));
    }
    key
}

/// Decision anchors: `(node, tick)` moments where the baseline run made a
/// control decision — the places a fault is most likely to change the
/// outcome (the same insight replay derivation is built on). Falls back to
/// an even grid over the run when the baseline was quiet.
fn anchors_from_journal(records: &[EventRecord], scenario: &Scenario) -> Vec<(usize, u64)> {
    let last_tick = (scenario.max_time_s / scenario.dt_s).round() as u64;
    let mut anchors: Vec<(usize, u64)> = Vec::new();
    for rec in records {
        let interesting = matches!(
            rec.event,
            Event::ModeChange { .. }
                | Event::ThresholdCross { .. }
                | Event::TdvfsEngage { .. }
                | Event::FailsafeTrip { .. }
        );
        let node = rec.node as usize;
        if !interesting || node >= scenario.nodes {
            continue;
        }
        match record_tick(rec.time_s, scenario.dt_s) {
            Some(tick) if tick >= 1 && tick <= last_tick => anchors.push((node, tick)),
            _ => {}
        }
    }
    anchors.sort_unstable();
    anchors.dedup();
    if anchors.len() > 64 {
        // Keep an even spread instead of the earliest prefix.
        let step = anchors.len() as f64 / 64.0;
        anchors = (0..64).map(|i| anchors[(i as f64 * step) as usize]).collect();
        anchors.dedup();
    }
    if anchors.len() < 8 {
        // Quiet baseline: seed an even grid so sampling still has targets.
        for node in 0..scenario.nodes {
            for k in 1..=8u64 {
                let tick = (last_tick * k / 9).max(1);
                anchors.push((node, tick));
            }
        }
        anchors.sort_unstable();
        anchors.dedup();
    }
    anchors
}

/// Samples one candidate: 1..=[`MAX_WINDOWS`] windows anchored at
/// recorded decision points, with random kind, hold and (for jitter)
/// magnitude.
fn sample_candidate(rng: &mut SmallRng, anchors: &[(usize, u64)]) -> Vec<FaultWindow> {
    let n = rng.gen_range(1..=MAX_WINDOWS);
    let mut windows = Vec::with_capacity(n);
    for _ in 0..n {
        let (node, start_tick) = anchors[rng.gen_range(0..anchors.len())];
        let kind = AttackKind::ALL[rng.gen_range(0..AttackKind::ALL.len())];
        let hold_ticks = rng.gen_range(HOLD_TICKS);
        let magnitude = match kind {
            AttackKind::SensorJitter => rng.gen_range(0.5..=JITTER_MAX_STD_C),
            _ => 0.0,
        };
        windows.push(FaultWindow { node, start_tick, hold_ticks, kind, magnitude });
    }
    normalize(windows)
}

/// Mutation proposals for the minimize phase, cheapest-first greedy:
/// * drop a window entirely (the strongest move);
/// * bisect a window: keep only its first or second half;
/// * shrink a hold to 3/4 (fine-grained convergence between bisections);
/// * halve a jitter magnitude.
///
/// Every proposal is strictly cheaper than `current` or it is not offered.
fn proposals(current: &[FaultWindow]) -> Vec<Vec<FaultWindow>> {
    let mut out = Vec::new();
    let base_cost = cost(current);
    for i in 0..current.len() {
        if current.len() > 1 {
            let mut dropped = current.to_vec();
            dropped.remove(i);
            out.push(normalize(dropped));
        }
        let w = &current[i];
        if w.hold_ticks >= 2 {
            let half = w.hold_ticks / 2;
            let mut first = current.to_vec();
            first[i].hold_ticks = half;
            out.push(normalize(first));
            let mut second = current.to_vec();
            second[i].start_tick = w.start_tick + (w.hold_ticks - half);
            second[i].hold_ticks = half;
            out.push(normalize(second));
            let three_quarters = w.hold_ticks - w.hold_ticks / 4;
            if three_quarters < w.hold_ticks {
                let mut shrunk = current.to_vec();
                shrunk[i].hold_ticks = three_quarters;
                out.push(normalize(shrunk));
            }
        }
        if w.kind == AttackKind::SensorJitter && w.magnitude > 0.5 {
            let mut damped = current.to_vec();
            damped[i].magnitude = (w.magnitude / 2.0).max(0.25);
            out.push(normalize(damped));
        }
    }
    out.retain(|c| !c.is_empty());
    // A magnitude-only mutation keeps the cost equal; allow those, but
    // nothing costlier than the current candidate.
    out.retain(|c| cost(c) <= base_cost);
    // Dedup proposals (bisection of a tiny window degenerates).
    let mut seen = Vec::new();
    out.retain(|c| {
        let k = candidate_key(c);
        if seen.contains(&k) || k == candidate_key(current) {
            false
        } else {
            seen.push(k);
            true
        }
    });
    out
}

/// One found counterexample, pre-ranking.
struct Found {
    windows: Vec<FaultWindow>,
    report: RunReport,
}

/// The search driver state shared across phases.
struct Search<'a> {
    base: &'a Scenario,
    cfg: &'a ChaosConfig,
    threads: usize,
    evaluations: u64,
    baseline_holds: bool,
    /// Found counterexamples keyed canonically; `Found.report` is the run
    /// that proved the flip.
    found: Vec<(String, Found)>,
}

impl Search<'_> {
    /// Evaluates a batch of candidates — one sweep job each — and records
    /// any outcome flips. Returns per-candidate `did it flip`.
    fn evaluate(&mut self, candidates: &[Vec<FaultWindow>]) -> Vec<bool> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let scenarios: Vec<Scenario> = candidates
            .iter()
            .map(|c| {
                let mut s = self.base.clone();
                s.tick_faults = to_schedules(c);
                s
            })
            .collect();
        let results = try_run_scenarios_parallel(scenarios, self.threads);
        self.evaluations += candidates.len() as u64;
        let mut flips = Vec::with_capacity(candidates.len());
        for (candidate, result) in candidates.iter().zip(results) {
            // A candidate that fails to build (job failure) is simply not a
            // counterexample; the search moves on.
            let flipped = match result {
                Ok(report) => {
                    let holds = self.cfg.predicate.holds(&report);
                    if holds != self.baseline_holds {
                        let key = candidate_key(candidate);
                        if !self.found.iter().any(|(k, _)| *k == key) {
                            self.found.push((key, Found { windows: candidate.clone(), report }));
                        }
                        true
                    } else {
                        false
                    }
                }
                Err(_) => false,
            };
            flips.push(flipped);
        }
        flips
    }

    fn best_cost(&self) -> u64 {
        self.found.iter().map(|(_, f)| cost(&f.windows)).min().unwrap_or(u64::MAX)
    }

    fn remaining(&self) -> usize {
        (self.cfg.max_evaluations as u64).saturating_sub(self.evaluations) as usize
    }

    fn progress(&self, sink: &mut dyn EventSink, phase: SearchPhase) {
        sink.record(&EventRecord {
            // Simulated seconds spent, not wall clock: reruns stay
            // bit-identical.
            time_s: self.evaluations as f64 * self.base.max_time_s,
            node: 0,
            event: Event::SearchProgress {
                phase,
                evaluated: self.evaluations.min(u64::from(u32::MAX)) as u32,
                counterexamples: self.found.len().min(u32::MAX as usize) as u32,
                best_cost: self.best_cost(),
            },
        });
    }
}

/// Runs the full search: baseline → seeded random sampling → greedy
/// mutation + window bisection on the cheapest finds → ranked corpus.
///
/// `progress` receives [`Event::SearchProgress`] records after every
/// evaluation round (use a `NullSink` to discard them).
///
/// # Errors
/// [`ChaosError::InvalidScenario`] when the base scenario fails validation,
/// [`ChaosError::InvalidConfig`] for an unusable search configuration.
pub fn chaos_search(
    base: &Scenario,
    cfg: &ChaosConfig,
    progress: &mut dyn EventSink,
) -> Result<ChaosCorpus, ChaosError> {
    base.validate().map_err(ChaosError::InvalidScenario)?;
    if cfg.max_evaluations < 2 {
        return Err(ChaosError::InvalidConfig(
            "max_evaluations must be at least 2 (baseline + one candidate)".into(),
        ));
    }
    if cfg.batch == 0 {
        return Err(ChaosError::InvalidConfig("batch must be at least 1".into()));
    }
    // The sweep clamps its worker count to the host's cores.
    let threads = if cfg.threads == 0 { usize::MAX } else { cfg.threads };

    // Phase 0: baseline run, journal attached — its decision points become
    // the sampling anchors, its predicate value defines "flipped".
    let shared = SharedSink::default();
    let mut sim = Simulation::try_new(base.clone()).map_err(ChaosError::InvalidScenario)?;
    sim.attach_journal(Box::new(shared.clone()));
    let baseline_report = sim.run();
    let baseline_records = shared.0.lock().expect("journal sink lock").records.clone();
    let baseline_holds = cfg.predicate.holds(&baseline_report);
    let baseline_digest = report_digest(&baseline_report);
    let anchors = anchors_from_journal(&baseline_records, base);

    let mut search = Search {
        base,
        cfg,
        threads,
        evaluations: 1, // the baseline
        baseline_holds,
        found: Vec::new(),
    };
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Phase 1: seeded random sampling. Spend up to half the budget (always
    // at least one batch) hunting for any flip at all.
    let sample_budget = (cfg.max_evaluations / 2).max(cfg.batch);
    while search.evaluations < sample_budget as u64 && search.remaining() > 0 {
        let round = cfg.batch.min(search.remaining());
        let batch: Vec<Vec<FaultWindow>> =
            (0..round).map(|_| sample_candidate(&mut rng, &anchors)).collect();
        search.evaluate(&batch);
        search.progress(progress, SearchPhase::Sample);
        // Enough distinct seeds to minimize? Move on early.
        if search.found.len() >= MAX_CORPUS {
            break;
        }
    }

    // Phase 2 + 3: greedy minimize. Take the cheapest finds as seeds; each
    // improvement round proposes hold/magnitude mutations (Mutate) and
    // window drops/bisections (Bisect) together, evaluates them as one
    // sweep, and adopts the cheapest flipping proposal.
    let mut seeds: Vec<Vec<FaultWindow>> =
        search.found.iter().map(|(_, f)| f.windows.clone()).collect();
    seeds.sort_by_key(|w| (cost(w), candidate_key(w)));
    seeds.truncate(MAX_CORPUS);

    for seed in seeds {
        let mut current = seed;
        loop {
            if search.remaining() == 0 {
                break;
            }
            let mut props = proposals(&current);
            props.truncate(search.remaining());
            if props.is_empty() {
                break;
            }
            let flips = search.evaluate(&props);
            // The proposal list mixes shrink moves with drop/bisect moves;
            // stamp progress under the phase of the move that *won* (drop
            // and bisect shrink the window set, the rest mutate it).
            let mut adopted: Option<(u64, usize)> = None;
            for (i, (candidate, flipped)) in props.iter().zip(&flips).enumerate() {
                if !*flipped {
                    continue;
                }
                let c = cost(candidate);
                // Require strict improvement except for pure magnitude
                // dampening, which keeps cost but weakens the fault.
                let improves =
                    c < cost(&current) || (c == cost(&current) && candidate.len() == current.len());
                if improves && adopted.is_none_or(|(best, _)| c < best) {
                    adopted = Some((c, i));
                }
            }
            match adopted {
                Some((_, i)) => {
                    let phase = if props[i].len() < current.len() {
                        SearchPhase::Bisect
                    } else {
                        SearchPhase::Mutate
                    };
                    // Equal-cost adoption only moves once (magnitude is
                    // halved at most log2 times above the floor), so the
                    // loop terminates.
                    if cost(&props[i]) == cost(&current) && props[i] == current {
                        break;
                    }
                    current = props[i].clone();
                    search.progress(progress, phase);
                }
                None => {
                    search.progress(progress, SearchPhase::Mutate);
                    break;
                }
            }
        }
    }

    // Rank + dedup + truncate into the corpus.
    let mut entries: Vec<Counterexample> = search
        .found
        .iter()
        .map(|(_, f)| Counterexample {
            cost: cost(&f.windows),
            faulted_ticks: f.windows.iter().map(|w| w.hold_ticks).sum(),
            windows: f.windows.clone(),
            tick_faults: to_schedules(&f.windows),
            outcome: OutcomeSummary {
                predicate_holds: cfg.predicate.holds(&f.report),
                completed: f.report.completed,
                exec_time_s: f.report.exec_time_s,
                max_temp_c: f.report.max_temp_c(),
                failsafe_engagements: f.report.nodes.iter().map(|n| n.failsafe_engagements).sum(),
                any_shutdown: f.report.any_shutdown(),
            },
            report_digest: report_digest(&f.report),
        })
        .collect();
    entries.sort_by(|a, b| {
        a.cost.cmp(&b.cost).then_with(|| candidate_key(&a.windows).cmp(&candidate_key(&b.windows)))
    });
    entries.dedup_by(|a, b| candidate_key(&a.windows) == candidate_key(&b.windows));
    entries.truncate(MAX_CORPUS);

    Ok(ChaosCorpus {
        schema: CHAOS_SCHEMA.to_string(),
        scenario: base.name.clone(),
        seed: cfg.seed,
        predicate: cfg.predicate.clone(),
        baseline_holds,
        baseline_digest,
        evaluations: search.evaluations,
        counterexamples: entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unitherm_obs::NullSink;

    fn report_with(failsafe: u64, completed: bool, exec: f64, max_t: f64) -> RunReport {
        let mut r = RunReport {
            name: "t".into(),
            fan_label: String::new(),
            dvfs_label: String::new(),
            workload_label: String::new(),
            nodes: vec![],
            wall_time_s: exec,
            completed,
            exec_time_s: exec,
            rack_air: None,
            journal_warning: None,
        };
        let scenario = Scenario::new("t").with_max_time(1.0).with_recording(false);
        let node = Simulation::new(scenario).run().nodes.remove(0);
        let mut node = node;
        node.failsafe_engagements = failsafe;
        node.temp_summary.max = max_t;
        r.nodes.push(node);
        r
    }

    #[test]
    fn one_encoding_gives_the_report_json_and_its_digest() {
        let report = report_with(1, true, 50.0, 48.0);
        let (json, digest) = report_json_and_digest(&report);
        assert_eq!(json, serde_json::to_string(&report).expect("serialize").into_bytes());
        assert_eq!(digest, report_digest(&report));
        assert_eq!(digest, report_digest(&report_with(1, true, 50.0, 48.0)), "deterministic");
        assert_ne!(digest, report_digest(&report_with(2, true, 50.0, 48.0)));
    }

    #[test]
    fn predicates_evaluate_from_reports() {
        let quiet = report_with(0, true, 50.0, 48.0);
        let tripped = report_with(2, false, 120.0, 70.0);
        assert!(!OutcomePredicate::FailsafeTrip.holds(&quiet));
        assert!(OutcomePredicate::FailsafeTrip.holds(&tripped));
        assert!(OutcomePredicate::ThermalLimit { limit_c: 60.0 }.holds(&tripped));
        assert!(!OutcomePredicate::ThermalLimit { limit_c: 60.0 }.holds(&quiet));
        assert!(OutcomePredicate::CompletionMiss.holds(&tripped));
        assert!(OutcomePredicate::SlaMiss { max_exec_time_s: 40.0 }.holds(&quiet));
        assert!(!OutcomePredicate::SlaMiss { max_exec_time_s: 60.0 }.holds(&quiet));
        let any = OutcomePredicate::AnyOf(vec![
            OutcomePredicate::Shutdown,
            OutcomePredicate::FailsafeTrip,
        ]);
        assert!(any.holds(&tripped));
        assert!(!any.holds(&quiet));
    }

    #[test]
    fn predicate_round_trips_serde() {
        let predicate = OutcomePredicate::AnyOf(vec![
            OutcomePredicate::ThermalLimit { limit_c: 65.0 },
            OutcomePredicate::SlaMiss { max_exec_time_s: 100.0 },
        ]);
        let json = serde_json::to_string(&predicate).expect("serialize");
        let back: OutcomePredicate = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, predicate);
    }

    #[test]
    fn normalize_unions_overlapping_same_kind_windows() {
        let w = |start, hold| FaultWindow {
            node: 0,
            start_tick: start,
            hold_ticks: hold,
            kind: AttackKind::SensorDropout,
            magnitude: 0.0,
        };
        let merged = normalize(vec![w(100, 50), w(120, 100)]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].start_tick, 100);
        assert_eq!(merged[0].hold_ticks, 120, "union covers 100..220");
        // Disjoint windows and different kinds stay separate.
        let kept = normalize(vec![w(100, 10), w(200, 10)]);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn cost_counts_ticks_plus_windows() {
        let w = |start, hold| FaultWindow {
            node: 0,
            start_tick: start,
            hold_ticks: hold,
            kind: AttackKind::PwmStuck,
            magnitude: 0.0,
        };
        assert_eq!(cost(&[w(1, 100), w(300, 50)]), 152);
    }

    #[test]
    fn proposals_only_shrink() {
        let current = vec![
            FaultWindow {
                node: 0,
                start_tick: 100,
                hold_ticks: 200,
                kind: AttackKind::SensorDropout,
                magnitude: 0.0,
            },
            FaultWindow {
                node: 1,
                start_tick: 50,
                hold_ticks: 80,
                kind: AttackKind::SensorJitter,
                magnitude: 4.0,
            },
        ];
        let base = cost(&current);
        let props = proposals(&current);
        assert!(!props.is_empty());
        for p in &props {
            assert!(cost(p) <= base, "proposal got more expensive: {p:?}");
            assert!(!p.is_empty());
        }
        // Window drops are offered for multi-window candidates.
        assert!(props.iter().any(|p| p.len() == 1));
        // Jitter magnitude dampening is offered.
        assert!(props
            .iter()
            .any(|p| p.iter().any(|w| w.kind == AttackKind::SensorJitter && w.magnitude == 2.0)));
    }

    #[test]
    fn invalid_config_and_scenario_are_named_errors() {
        let base = Scenario::new("cfg").with_max_time(1.0);
        let bad_budget = ChaosConfig { max_evaluations: 1, ..ChaosConfig::default() };
        assert!(matches!(
            chaos_search(&base, &bad_budget, &mut NullSink),
            Err(ChaosError::InvalidConfig(_))
        ));
        let bad_batch = ChaosConfig { batch: 0, ..ChaosConfig::default() };
        assert!(matches!(
            chaos_search(&base, &bad_batch, &mut NullSink),
            Err(ChaosError::InvalidConfig(_))
        ));
        let mut invalid = base;
        invalid.nodes = 0;
        assert!(matches!(
            chaos_search(&invalid, &ChaosConfig::default(), &mut NullSink),
            Err(ChaosError::InvalidScenario(_))
        ));
    }
}
