//! Parallel execution of independent scenarios.
//!
//! Parameter sweeps (Figures 5, 7, 10; Table 1; the ablations) run many
//! independent simulations. Each simulation is deterministic and owns all
//! of its state, so a sweep is shared-nothing data parallelism: workers
//! claim scenarios from one atomic cursor, costliest first
//! ([`claim_order`]), each moves its scenario out of the sweep and runs it
//! to a report, and the reports come back in input order, bit-identical to
//! a one-worker run.
//!
//! # One pool of helpers per process
//!
//! Sweep workers come from one process-wide pool of `host cores − 1`
//! helper threads. The pool starts on the first sweep that wants more than
//! one worker and lives as long as the process; an idle helper parks on a
//! condvar. A sweep of `w` workers posts `w − 1` helper tasks and then
//! claims scenarios on the calling thread too, from the same cursor:
//!
//! * a sweep never waits for the pool. When the helpers are busy
//!   (concurrent or nested sweeps) the caller runs every job itself, and a
//!   task a helper reaches after its sweep drained finds nothing to claim;
//! * a one-worker sweep is the same loop with no helper tasks, and a
//!   one-core host never starts a thread;
//! * a process spawns its helpers once, not once per sweep, so the paper
//!   suite's few dozen sweeps per pass pay no thread spawn or join
//!   (DESIGN.md §9 has the measured cost).
//!
//! # Budget
//!
//! A sweep runs [`thread_budget`]`(min(max_threads, host cores), jobs,
//! widest pool width)` workers, so sweep workers × intra-run pool width
//! never exceeds the host's cores, and a sweep asking for more threads
//! than the host has runs correctly, on fewer.
//!
//! # Failures
//!
//! A scenario that fails validation is a [`SweepError`] naming it. A
//! simulation that panics is caught on whichever thread ran it (a helper
//! survives and serves the next sweep), the rest of the sweep still runs,
//! and the caller re-raises the original payload of the lowest-index
//! panicking job.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};

use crate::pool::{host_cores, width_on};
use crate::report::RunReport;
use crate::scenario::{Scenario, ScenarioError};
use crate::sim::Simulation;

/// A sweep job that could not run: its scenario failed validation. Carries
/// the scenario name, so one bad configuration deep inside a generated
/// sweep identifies itself instead of panicking an anonymous worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Name of the scenario whose job failed.
    pub scenario: String,
    /// The underlying validation error.
    pub error: ScenarioError,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep job \"{}\" failed: {}", self.scenario, self.error)
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The sweep's worker budget: how many scenario-level workers to run so
/// that `workers × threads_per_job` never exceeds `max_threads` (and no
/// worker sits idle when there are fewer jobs than threads).
///
/// `threads_per_job` is the *largest* intra-run pool width among the
/// jobs — a scenario whose [`pool_width`](crate::pool_width) is above 1
/// brings its own worker pool to every simulation, so the sweep must leave
/// room for it.
pub fn thread_budget(max_threads: usize, jobs: usize, threads_per_job: usize) -> usize {
    if jobs == 0 {
        return 0;
    }
    (max_threads.max(1) / threads_per_job.max(1)).clamp(1, jobs)
}

/// A counting semaphore over a fixed thread budget, for callers that run
/// simulations concurrently *over time* rather than as one batch.
///
/// [`thread_budget`] sizes a one-shot sweep up front; a long-lived service
/// (e.g. `unitherm-serve`) instead admits jobs as they arrive, each bringing
/// its own intra-run worker pool ([`pool_width`](crate::pool_width) wide).
/// `ThreadPermits` makes the same no-oversubscription guarantee dynamic: a
/// job acquires as many permits as its pool is wide before running and
/// returns them when the run finishes, so the sum of intra-run pool widths
/// in flight never exceeds the budget.
///
/// Requests larger than the whole budget are clamped to it (an oversized
/// pool still gets to run — alone), mirroring [`thread_budget`]'s
/// "an oversized pool still gets one worker" rule.
///
/// # Example
///
/// ```
/// use unitherm_cluster::sweep::ThreadPermits;
///
/// let permits = ThreadPermits::new(4);
/// let a = permits.acquire(3);
/// assert_eq!(permits.available(), 1);
/// drop(a); // releases the 3 permits
/// let b = permits.acquire(9); // clamped to the budget of 4
/// assert_eq!(permits.available(), 0);
/// drop(b);
/// assert_eq!(permits.available(), 4);
/// ```
pub struct ThreadPermits {
    available: Mutex<usize>,
    returned: Condvar,
    total: usize,
}

impl ThreadPermits {
    /// A budget of `total` thread permits (at least one, so a degenerate
    /// budget still makes progress).
    pub fn new(total: usize) -> Self {
        let total = total.max(1);
        Self { available: Mutex::new(total), returned: Condvar::new(), total }
    }

    /// The full budget.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Permits not currently held.
    pub fn available(&self) -> usize {
        *self.available.lock().expect("permit lock")
    }

    /// Blocks until `n` permits (clamped to the budget) are free, takes
    /// them, and returns a guard that gives them back on drop.
    pub fn acquire(&self, n: usize) -> PermitGuard<'_> {
        let n = n.clamp(1, self.total);
        let mut available = self.available.lock().expect("permit lock");
        while *available < n {
            available = self.returned.wait(available).expect("permit lock");
        }
        *available -= n;
        PermitGuard { permits: self, n }
    }
}

/// Holds `n` permits from a [`ThreadPermits`] budget; dropping the guard
/// returns them and wakes blocked acquirers.
pub struct PermitGuard<'a> {
    permits: &'a ThreadPermits,
    n: usize,
}

impl PermitGuard<'_> {
    /// How many permits this guard holds (the clamped request).
    pub fn held(&self) -> usize {
        self.n
    }
}

impl Drop for PermitGuard<'_> {
    fn drop(&mut self) {
        let mut available = self.permits.available.lock().expect("permit lock");
        *available += self.n;
        self.permits.returned.notify_all();
    }
}

/// Runs every scenario on up to `max_threads` workers and returns the
/// reports in input order.
///
/// The worker count is [`thread_budget`] over `min(max_threads, host
/// cores)`: capped at the scenario count and divided by the widest
/// intra-run pool any scenario builds ([`pool_width`](crate::pool_width)),
/// so sweep parallelism × intra-run parallelism never oversubscribes the
/// host. The workers are the caller plus helpers from the process-wide
/// pool (module docs).
///
/// # Panics
/// Re-raises the original payload of a simulation that panicked (a
/// panicking simulation is a bug), and panics with the failed job's
/// [`SweepError`] message — scenario name included — when a scenario fails
/// validation. Callers that must survive invalid jobs (the chaos search
/// evaluating generated candidates) use [`try_run_scenarios_parallel`]
/// instead.
pub fn run_scenarios_parallel(scenarios: Vec<Scenario>, max_threads: usize) -> Vec<RunReport> {
    try_run_scenarios_parallel(scenarios, max_threads)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// Fallible form of [`run_scenarios_parallel`]: every scenario produces
/// either its report or a [`SweepError`] naming it, in input order.
///
/// A scenario that fails validation becomes a job failure — the worker
/// moves on to the next claim — so one corrupt configuration (or one
/// pathological search candidate) cannot take down a whole sweep.
///
/// # Panics
/// Still re-raises *panics*: a simulation that validated and then panicked
/// mid-run is a bug, not a job failure. The other jobs run to completion
/// first, and the payload is that of the lowest-index panicking job.
pub fn try_run_scenarios_parallel(
    scenarios: Vec<Scenario>,
    max_threads: usize,
) -> Vec<Result<RunReport, SweepError>> {
    let workers = sweep_workers(&scenarios, max_threads);
    let sweep = Arc::new(Sweep::new(scenarios));
    if workers > 1 {
        HELPERS.post(&sweep, workers - 1);
    }
    sweep.work();
    sweep.finish()
}

/// How many scenario-level workers [`try_run_scenarios_parallel`] runs
/// `scenarios` on.
fn sweep_workers(scenarios: &[Scenario], max_threads: usize) -> usize {
    workers_on(scenarios, max_threads, host_cores())
}

/// [`sweep_workers`] on a host with `cores` cores: [`thread_budget`] over
/// `min(max_threads, cores)` with room for the widest pool the scenarios
/// build there.
fn workers_on(scenarios: &[Scenario], max_threads: usize, cores: usize) -> usize {
    let per_job = scenarios.iter().map(|s| width_on(s.threads, s.nodes, cores)).max().unwrap_or(1);
    thread_budget(max_threads.min(cores), scenarios.len(), per_job)
}

/// What one job produced.
type Outcome = Result<RunReport, SweepError>;

/// Validates and runs one scenario.
fn run_one(scenario: Scenario) -> Outcome {
    let name = scenario.name.clone();
    match Simulation::try_new(scenario) {
        Ok(sim) => Ok(sim.run()),
        Err(error) => Err(SweepError { scenario: name, error }),
    }
}

/// The order a sweep's workers claim `scenarios` in: costliest first, by
/// simulated node-ticks (`nodes × max_time_s / dt_s`), ties in input
/// order. A sweep ends no earlier than its last claim does, so a large job
/// claimed last leaves every other worker idle while it runs.
fn claim_order(scenarios: &[Scenario]) -> Vec<usize> {
    let cost = |i: usize| {
        let s = &scenarios[i];
        s.nodes as f64 * s.max_time_s / s.dt_s
    };
    let mut order: Vec<usize> = (0..scenarios.len()).collect();
    // A stable sort: equal costs keep their input order.
    order.sort_by(|&a, &b| cost(b).total_cmp(&cost(a)));
    order
}

/// One sweep in flight, shared by its caller and the helper tasks it
/// posted.
struct Sweep {
    /// Scenario `i`, until the worker that claims index `i` moves it out.
    jobs: Vec<Mutex<Option<Scenario>>>,
    /// The job indices in claim order ([`claim_order`]).
    order: Vec<usize>,
    /// The next unclaimed position in `order`.
    next: AtomicUsize,
    /// What the finished jobs produced.
    results: Mutex<Results>,
    /// Signalled when the last job finishes.
    all_done: Condvar,
}

/// The finished jobs of a [`Sweep`].
struct Results {
    /// Job `i`'s outcome, once it ran without panicking.
    outcomes: Vec<Option<Outcome>>,
    /// Jobs finished, panicked ones included.
    done: usize,
    /// The lowest-index job that panicked, with its payload.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

impl Sweep {
    fn new(scenarios: Vec<Scenario>) -> Self {
        let n = scenarios.len();
        Self {
            order: claim_order(&scenarios),
            jobs: scenarios.into_iter().map(|s| Mutex::new(Some(s))).collect(),
            next: AtomicUsize::new(0),
            results: Mutex::new(Results {
                outcomes: (0..n).map(|_| None).collect(),
                done: 0,
                panic: None,
            }),
            all_done: Condvar::new(),
        }
    }

    /// Claims and runs jobs in claim order until the cursor passes the
    /// last one. Every job's panic is caught here, so the thread running
    /// the loop — a helper or the caller — never unwinds out of it.
    fn work(&self) {
        loop {
            let claim = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&idx) = self.order.get(claim) else { return };
            let scenario =
                self.jobs[idx].lock().expect("sweep job").take().expect("each job is claimed once");
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_one(scenario)));
            let mut results = self.results.lock().expect("sweep results");
            match outcome {
                Ok(outcome) => results.outcomes[idx] = Some(outcome),
                Err(payload) => {
                    if results.panic.as_ref().is_none_or(|(first, _)| idx < *first) {
                        results.panic = Some((idx, payload));
                    }
                }
            }
            results.done += 1;
            if results.done == self.jobs.len() {
                self.all_done.notify_all();
            }
        }
    }

    /// Waits for the jobs other workers claimed, then returns every
    /// outcome in input order, or re-raises the first panic.
    fn finish(&self) -> Vec<Outcome> {
        let mut results = self.results.lock().expect("sweep results");
        while results.done < self.jobs.len() {
            results = self.all_done.wait(results).expect("sweep results");
        }
        if let Some((_, payload)) = results.panic.take() {
            drop(results);
            panic::resume_unwind(payload);
        }
        std::mem::take(&mut results.outcomes)
            .into_iter()
            .map(|r| r.expect("every job produced an outcome"))
            .collect()
    }
}

/// The process-wide sweep helpers: a queue of posted sweeps and the
/// condvar idle helpers park on.
struct Helpers {
    queue: Mutex<VecDeque<Arc<Sweep>>>,
    posted: Condvar,
    started: Once,
}

static HELPERS: Helpers =
    Helpers { queue: Mutex::new(VecDeque::new()), posted: Condvar::new(), started: Once::new() };

impl Helpers {
    /// Posts `tasks` helper tasks for `sweep`, starting the helpers on
    /// first use. A helper that cannot be spawned only means fewer
    /// workers: the caller runs whatever no helper claims.
    fn post(&'static self, sweep: &Arc<Sweep>, tasks: usize) {
        self.started.call_once(|| {
            for _ in 1..host_cores() {
                let _ = std::thread::Builder::new()
                    .name("unitherm-sweep".into())
                    .spawn(move || self.serve());
            }
        });
        self.queue.lock().expect("sweep queue").extend((0..tasks).map(|_| Arc::clone(sweep)));
        for _ in 0..tasks {
            self.posted.notify_one();
        }
    }

    /// A helper's life: take the oldest posted task and work its sweep.
    fn serve(&self) {
        loop {
            let sweep = {
                let mut queue = self.queue.lock().expect("sweep queue");
                loop {
                    if let Some(sweep) = queue.pop_front() {
                        break sweep;
                    }
                    queue = self.posted.wait(queue).expect("sweep queue");
                }
            };
            sweep.work();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::report_digest;
    use crate::pool::MIN_NODES_PER_SHARD;
    use crate::scenario::WorkloadSpec;
    use crate::scheme::FanScheme;
    use unitherm_core::control_array::Policy;

    fn quick(name: &str, pp: u32) -> Scenario {
        Scenario::new(name)
            .with_nodes(1)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::new(pp).unwrap(), 100))
            .with_max_time(20.0)
            .with_recording(false)
    }

    #[test]
    fn empty_sweep() {
        assert!(run_scenarios_parallel(vec![], 4).is_empty());
    }

    #[test]
    fn budget_caps_at_job_count() {
        assert_eq!(thread_budget(8, 3, 1), 3, "small sweeps spawn no idle workers");
        assert_eq!(thread_budget(8, 100, 1), 8);
        assert_eq!(thread_budget(0, 5, 1), 1, "degenerate budget still makes progress");
        assert_eq!(thread_budget(8, 0, 1), 0);
    }

    #[test]
    fn budget_leaves_room_for_intra_run_pools() {
        assert_eq!(thread_budget(8, 100, 4), 2, "2 sweep workers × 4 intra threads = 8");
        assert_eq!(thread_budget(8, 100, 16), 1, "an oversized pool still gets one worker");
        assert_eq!(thread_budget(16, 3, 4), 3, "job cap still applies");
    }

    #[test]
    fn sweep_of_threaded_scenarios_matches_serial() {
        // Scenarios that bring their own intra-run pools must produce the
        // same reports through the budgeted sweep as one at a time.
        let build = || -> Vec<Scenario> {
            (0..3)
                .map(|i| quick(&format!("t{i}"), 30 + 10 * i).with_nodes(3).with_threads(2))
                .collect()
        };
        // 3 nodes are below the grain, so no pool is built and the sweep
        // keeps one worker per job instead of halving for pools that never
        // exist.
        assert_eq!(workers_on(&build(), 4, 8), 3);
        let serial = run_scenarios_parallel(build(), 1);
        let parallel = run_scenarios_parallel(build(), 4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.avg_temp_c(), p.avg_temp_c());
            assert_eq!(s.avg_node_power_w(), p.avg_node_power_w());
        }
    }

    #[test]
    fn workers_never_exceed_the_host_the_budget_or_the_jobs() {
        // Every sweep shape on an injected host: the worker count stays
        // within min(max_threads, cores, jobs), and workers × the widest
        // pool the jobs build there fits the clamped budget whenever one
        // pool fits it at all (an oversized pool still gets one worker).
        let shapes: [(usize, usize); 4] =
            [(1, 4), (2, 3), (2, 2 * MIN_NODES_PER_SHARD), (4, 8 * MIN_NODES_PER_SHARD)];
        for cores in [1usize, 2, 8] {
            for max_threads in [0usize, 1, 2, 3, 4, 6, 16] {
                for jobs in [0usize, 1, 3, 6, 16] {
                    for &(threads, nodes) in &shapes {
                        let list: Vec<Scenario> = (0..jobs)
                            .map(|i| {
                                let s = quick(&format!("j{i}"), 50).with_nodes(4);
                                // The first job carries the shape under test.
                                if i == 0 {
                                    s.with_nodes(nodes).with_threads(threads)
                                } else {
                                    s
                                }
                            })
                            .collect();
                        let w = workers_on(&list, max_threads, cores);
                        let budget = max_threads.min(cores).max(1);
                        if jobs == 0 {
                            assert_eq!(w, 0);
                            continue;
                        }
                        let case = format!(
                            "cores {cores} max {max_threads} jobs {jobs} shape {threads}x{nodes}"
                        );
                        assert!(w >= 1, "{case}: no worker");
                        assert!(w <= budget.min(jobs), "{case}: {w} workers");
                        let widest = width_on(threads, nodes, cores);
                        if widest <= budget {
                            assert!(w * widest <= budget, "{case}: {w} × {widest} > {budget}");
                        } else {
                            assert_eq!(w, 1, "{case}");
                        }
                    }
                }
            }
        }
        let wide = vec![quick("wide", 50).with_nodes(8 * MIN_NODES_PER_SHARD).with_threads(4); 6];
        assert_eq!(workers_on(&wide, 8, 8), 2, "2 workers × 4-wide pools fill 8 cores");
        assert_eq!(workers_on(&wide, 8, 2), 1, "a 2-wide pool fills a 2-core host alone");
        assert_eq!(workers_on(&wide, 8, 1), 1);
        let narrow = vec![quick("narrow", 50); 6];
        assert_eq!(workers_on(&narrow, 6, 2), 2, "six threads asked, two cores to run them");
        assert_eq!(workers_on(&narrow, 6, 8), 6);
        assert_eq!(workers_on(&narrow, 6, 1), 1, "a one-core host runs every job inline");
    }

    #[test]
    fn jobs_are_claimed_costliest_first_with_ties_in_input_order() {
        // The `scaling` sweep's shape: 2, 4, 8 and 16 nodes over one
        // horizon. The 16-node job is claimed first, not last.
        let scaling: Vec<Scenario> =
            [2, 4, 8, 16].iter().map(|&n| quick(&format!("n{n}"), 50).with_nodes(n)).collect();
        assert_eq!(claim_order(&scaling), vec![3, 2, 1, 0]);
        // Equal-sized jobs keep their input order.
        let equal: Vec<Scenario> = (0..5).map(|i| quick(&format!("e{i}"), 50)).collect();
        assert_eq!(claim_order(&equal), vec![0, 1, 2, 3, 4]);
        // Cost is nodes × max_time_s / dt_s: 400 node-ticks for "small",
        // 200 for "coarse" (a tick twice as long), and 800 for both "long"
        // and "wide", a tie kept in input order.
        let mut coarse = quick("coarse", 50);
        coarse.dt_s = 0.1;
        let mixed = vec![
            quick("small", 50),
            coarse,
            quick("long", 50).with_max_time(40.0),
            quick("wide", 50).with_nodes(2),
        ];
        assert_eq!(claim_order(&mixed), vec![2, 3, 0, 1]);
        assert!(claim_order(&[]).is_empty());
    }

    #[test]
    fn results_preserve_input_order() {
        let scenarios = vec![quick("a", 25), quick("b", 50), quick("c", 75)];
        let reports = run_scenarios_parallel(scenarios, 3);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].name, "a");
        assert_eq!(reports[1].name, "b");
        assert_eq!(reports[2].name, "c");
    }

    #[test]
    fn parallel_matches_serial() {
        // 16 scenarios across varied policies: parallel dispatch must not
        // change any result relative to the single-threaded path.
        let policies = [10, 20, 25, 30, 40, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100];
        let build = || -> Vec<Scenario> {
            policies.iter().map(|&pp| quick(&format!("p{pp}"), pp)).collect()
        };
        let serial = run_scenarios_parallel(build(), 1);
        let parallel = run_scenarios_parallel(build(), 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.avg_temp_c(), p.avg_temp_c());
            assert_eq!(s.avg_node_power_w(), p.avg_node_power_w());
            assert_eq!(s.avg_duty_pct(), p.avg_duty_pct());
        }
    }

    #[test]
    fn more_scenarios_than_threads() {
        let scenarios: Vec<Scenario> = (0..6).map(|i| quick(&format!("s{i}"), 50)).collect();
        let reports = run_scenarios_parallel(scenarios, 2);
        assert_eq!(reports.len(), 6);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.name, format!("s{i}"));
        }
    }

    #[test]
    fn worker_panic_propagates_with_original_message() {
        // Regression: an invalid scenario used to panic inside the worker
        // thread (Simulation::new → validate), with nothing identifying
        // *which* job died. The failure now travels back as a SweepError
        // and the infallible entry point panics with the scenario name AND
        // the original validation message.
        let mut bad = quick("bad", 50);
        bad.nodes = 0; // validate() fails: "need at least one node"
        let scenarios = vec![quick("a", 25), bad, quick("b", 75), quick("c", 60)];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_scenarios_parallel(scenarios, 2)
        }))
        .expect_err("the bad scenario must panic the sweep");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(msg.contains("need at least one node"), "original message lost: {msg:?}");
        assert!(msg.contains("\"bad\""), "scenario name lost: {msg:?}");
    }

    #[test]
    fn invalid_scenario_is_a_named_job_failure_not_a_worker_panic() {
        // The fallible sweep keeps the surviving jobs: the bad job comes
        // back as Err naming its scenario, every other job still reports.
        let mut bad = quick("bad", 50);
        bad.nodes = 0;
        let scenarios = vec![quick("a", 25), bad, quick("b", 75)];
        let results = try_run_scenarios_parallel(scenarios, 2);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().expect("job a runs").name, "a");
        assert_eq!(results[2].as_ref().expect("job b runs").name, "b");
        let err = results[1].as_ref().expect_err("job 'bad' must fail");
        assert_eq!(err.scenario, "bad");
        assert_eq!(err.error.message(), "need at least one node");
        assert!(err.to_string().contains("\"bad\""), "{err}");
    }

    #[test]
    fn permits_clamp_block_and_release() {
        let permits = ThreadPermits::new(4);
        assert_eq!(permits.total(), 4);
        let a = permits.acquire(2);
        assert_eq!(a.held(), 2);
        assert_eq!(permits.available(), 2);
        // A request larger than the budget clamps instead of deadlocking.
        drop(a);
        let big = permits.acquire(100);
        assert_eq!(big.held(), 4);
        assert_eq!(permits.available(), 0);

        // A blocked acquirer proceeds once the permits come back.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let g = permits.acquire(3);
                g.held()
            });
            // Give the waiter a moment to block, then release.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(big);
            assert_eq!(waiter.join().expect("waiter"), 3);
        });
        assert_eq!(permits.available(), 4);
    }

    #[test]
    fn degenerate_permit_budget_still_makes_progress() {
        let permits = ThreadPermits::new(0);
        assert_eq!(permits.total(), 1);
        let g = permits.acquire(0);
        assert_eq!(g.held(), 1, "zero-width requests still hold one permit");
    }

    #[test]
    fn fallible_sweep_matches_serial_for_single_worker() {
        let mut bad = quick("bad", 50);
        bad.nodes = 0;
        // max_threads = 1 exercises the serial fast path.
        let results = try_run_scenarios_parallel(vec![quick("a", 25), bad], 1);
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().expect_err("bad fails serially").scenario, "bad");
    }

    /// The panic message of `payload`, whichever string type it carries.
    fn panic_message(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn mid_run_panic_reraises_its_own_message_and_the_next_sweep_runs() {
        // A plant constant no validation bounds yet drives the die
        // temperature non-finite mid-run, tripping an assert. If validation
        // ever rejects it, choose another scenario that validates and then
        // panics: this test is about the panic path, not the constant.
        let mut bad = quick("bad", 50);
        bad.node_config.thermal.die_sink_conductance_w_per_k = 1e18;
        let direct = panic::catch_unwind(AssertUnwindSafe(|| {
            Simulation::try_new(bad.clone()).expect("the scenario validates").run()
        }))
        .expect_err("the scenario panics mid-run");
        let want = panic_message(&*direct);
        assert!(!want.is_empty());

        let scenarios = vec![quick("a", 25), bad, quick("b", 75), quick("c", 60)];
        let err = panic::catch_unwind(AssertUnwindSafe(|| run_scenarios_parallel(scenarios, 2)))
            .expect_err("the panicking job must panic the sweep");
        assert_eq!(panic_message(&*err), want, "the original payload is re-raised");

        // Whichever thread caught the panic keeps serving sweeps.
        let build =
            || -> Vec<Scenario> { (0..6).map(|i| quick(&format!("n{i}"), 40 + i)).collect() };
        let serial: Vec<String> =
            run_scenarios_parallel(build(), 1).iter().map(report_digest).collect();
        let parallel: Vec<String> =
            run_scenarios_parallel(build(), 2).iter().map(report_digest).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn concurrent_sweeps_each_match_serial_in_input_order() {
        // Four callers sweep at once, so at least three of them find the
        // helpers busy and run their own jobs.
        let build = |caller: u32| -> Vec<Scenario> {
            (0..6).map(|i| quick(&format!("c{caller}-{i}"), 20 + 10 * i + caller)).collect()
        };
        let serial: Vec<Vec<String>> = (0..4)
            .map(|c| run_scenarios_parallel(build(c), 1).iter().map(report_digest).collect())
            .collect();
        let concurrent: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|c| {
                    scope.spawn(move || {
                        run_scenarios_parallel(build(c), 2).iter().map(report_digest).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("caller")).collect()
        });
        assert_eq!(concurrent, serial);
    }
}
