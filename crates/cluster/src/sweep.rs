//! Parallel execution of independent scenarios.
//!
//! Parameter sweeps (Figures 5, 7, 10; Table 1; the ablations) run many
//! independent simulations. Each simulation is single-threaded and
//! deterministic; the sweep fans them out across std scoped threads claiming
//! work through a lock-free atomic cursor — the shared-nothing data-parallel
//! idiom — and reassembles results in input order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

use crate::pool::pool_width;
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
/// jobs — a scenario whose [`pool_width`] is above 1 brings its own worker
/// pool to every simulation, so the sweep must leave room for it.
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
/// its own intra-run worker pool ([`pool_width`] wide). `ThreadPermits`
/// makes the same no-oversubscription guarantee dynamic: a job acquires as
/// many permits as its pool is wide before running and returns them when the
/// run finishes, so the sum of intra-run pool widths in flight never exceeds
/// the budget.
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

/// Runs every scenario, using up to `max_threads` worker threads, and
/// returns reports in the same order as the input.
///
/// The worker count is budgeted by [`thread_budget`]: capped at the
/// scenario count (small sweeps stop spawning idle threads) and divided by
/// the widest intra-run pool any scenario builds ([`pool_width`]), so
/// sweep parallelism × intra-run parallelism never oversubscribes the
/// machine.
///
/// Work is dispatched through an atomic claim index instead of a mutex-held
/// queue: a worker that panics mid-simulation cannot poison anything, so the
/// surviving workers drain the remaining scenarios and the original panic
/// payload propagates from the scope join untouched.
///
/// # Panics
/// Propagates panics from worker threads (a panicking simulation is a bug),
/// and panics with the failed job's [`SweepError`] message — scenario name
/// included — when a scenario fails validation. Callers that must survive
/// invalid jobs (the chaos search evaluating generated candidates) use
/// [`try_run_scenarios_parallel`] instead.
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
/// Still propagates *panics* from worker threads: a simulation that
/// validated and then panicked mid-run is a bug, not a job failure.
pub fn try_run_scenarios_parallel(
    scenarios: Vec<Scenario>,
    max_threads: usize,
) -> Vec<Result<RunReport, SweepError>> {
    let run_one = |scenario: Scenario| -> Result<RunReport, SweepError> {
        let name = scenario.name.clone();
        match Simulation::try_new(scenario) {
            Ok(sim) => Ok(sim.run()),
            Err(error) => Err(SweepError { scenario: name, error }),
        }
    };

    let n = scenarios.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = sweep_workers(&scenarios, max_threads);
    if workers == 1 {
        return scenarios.into_iter().map(run_one).collect();
    }

    let next = AtomicUsize::new(0);
    let (result_tx, result_rx) = mpsc::channel::<(usize, Result<RunReport, SweepError>)>();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let scenarios = &scenarios;
                let result_tx = result_tx.clone();
                let run_one = &run_one;
                scope.spawn(move || loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(scenario) = scenarios.get(idx) else { break };
                    let result = run_one(scenario.clone());
                    // Ignore a closed channel: it only closes early when a
                    // sibling panicked — dying here would mask the original
                    // message.
                    let _ = result_tx.send((idx, result));
                })
            })
            .collect();
        drop(result_tx);
        // Join manually and re-raise the first worker's own panic payload;
        // letting the scope auto-join would replace it with the generic
        // "a scoped thread panicked".
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut results: Vec<Option<Result<RunReport, SweepError>>> = (0..n).map(|_| None).collect();
    while let Ok((idx, result)) = result_rx.recv() {
        results[idx] = Some(result);
    }
    results.into_iter().map(|r| r.expect("every scenario produced a result")).collect()
}

/// How many scenario-level workers [`try_run_scenarios_parallel`] runs
/// `scenarios` on: [`thread_budget`] with room for the widest pool the
/// scenarios actually build.
fn sweep_workers(scenarios: &[Scenario], max_threads: usize) -> usize {
    let per_job = scenarios.iter().map(|s| pool_width(s.threads, s.nodes)).max().unwrap_or(1);
    thread_budget(max_threads, scenarios.len(), per_job)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(sweep_workers(&build(), 4), 3);
        let wide = vec![quick("wide", 50).with_nodes(2 * MIN_NODES_PER_SHARD).with_threads(2); 4];
        assert_eq!(sweep_workers(&wide, 4), 4 / pool_width(2, 2 * MIN_NODES_PER_SHARD));
        let serial = run_scenarios_parallel(build(), 1);
        let parallel = run_scenarios_parallel(build(), 4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.avg_temp_c(), p.avg_temp_c());
            assert_eq!(s.avg_node_power_w(), p.avg_node_power_w());
        }
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
}
