//! Runner threads: claim jobs from the [`JobQueue`], execute them through
//! [`Simulation`], and tee every journal event back into the queue.
//!
//! Concurrency discipline (DESIGN.md §15): the service owns one
//! [`ThreadPermits`] budget of `max_threads` permits. Each runner acquires
//! [`pool_width`]`(threads, nodes)` permits before it starts and builds the
//! simulation no wider than the permits it was granted, so the pools in
//! flight never hold more worker threads than `max_threads`, however many
//! jobs run at once. This is the same arithmetic `sweep::thread_budget`
//! applies to a static sweep, restated for a long-lived service where the
//! job count is open-ended.
//!
//! Determinism: the per-job journal sink collects [`EventRecord`]s in the
//! same order `JournalWriter` would receive them, and attaching a healthy
//! sink does not perturb the run, so the report (and its FNV digest) is
//! bit-identical to `repro run-scenario` on the same scenario JSON.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use unitherm_cluster::{
    pool_width, thread_budget, PermitGuard, Scenario, Simulation, ThreadPermits,
};
use unitherm_obs::{EventRecord, EventSink};

use crate::queue::{JobId, JobQueue};

/// Records a [`QueueSink`] holds before handing them to the queue in one
/// [`JobQueue::append_events`]: one lock and one wake-up per batch instead
/// of per event.
const EVENT_BATCH: usize = 64;

/// An [`EventSink`] that forwards records into the queue's per-job event
/// log in batches of `EVENT_BATCH` (64; the service-side analogue of a
/// `JournalWriter`). The first record goes out alone, so a subscriber sees
/// the job's first event without waiting for a full batch. The tail is
/// flushed on drop, which [`Simulation::run`] reaches before the runner
/// completes the job, so a finished job always holds its whole journal;
/// a panicking run drops the sink while it unwinds, so a failed job keeps
/// every event up to the panic.
pub struct QueueSink {
    queue: JobQueue,
    id: JobId,
    batch: Vec<EventRecord>,
    started: bool,
}

impl QueueSink {
    /// A sink feeding job `id` on `queue`.
    pub fn new(queue: JobQueue, id: JobId) -> Self {
        Self { queue, id, batch: Vec::with_capacity(EVENT_BATCH), started: false }
    }

    fn flush(&mut self) {
        if !self.batch.is_empty() {
            self.queue.append_events(self.id, &self.batch);
            self.batch.clear();
        }
    }
}

impl EventSink for QueueSink {
    fn record(&mut self, rec: &EventRecord) {
        self.batch.push(*rec);
        if self.batch.len() == EVENT_BATCH || !self.started {
            self.started = true;
            self.flush();
        }
    }
}

impl Drop for QueueSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Handle to the running pool; joining it only makes sense in tests, the
/// service keeps it alive for the process lifetime.
pub struct RunnerPool {
    /// The shared permit budget (exposed for `/metrics`).
    pub permits: Arc<ThreadPermits>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl RunnerPool {
    /// Number of runner threads.
    pub fn runners(&self) -> usize {
        self.handles.len()
    }
}

/// Spawns the runner pool: `thread_budget(max_threads, capacity, 1)`
/// claiming threads sharing a [`ThreadPermits`] budget of `max_threads`.
pub fn spawn_runners(queue: JobQueue, max_threads: usize) -> RunnerPool {
    let max_threads = max_threads.max(1);
    let permits = Arc::new(ThreadPermits::new(max_threads));
    let runners = thread_budget(max_threads, queue.config().capacity, 1);
    let handles = (0..runners)
        .map(|i| {
            let queue = queue.clone();
            let permits = Arc::clone(&permits);
            thread::Builder::new()
                .name(format!("unitherm-runner-{i}"))
                .spawn(move || runner_loop(queue, permits))
                .expect("spawn runner thread")
        })
        .collect();
    RunnerPool { permits, handles }
}

/// Takes the permits `scenario`'s passes need (one per shard) and narrows
/// the scenario to the width they cover. Oversized requests clamp to the
/// budget: the job still runs, narrower than asked, mirroring
/// `thread_budget`'s floor of one.
fn reserve(permits: &ThreadPermits, mut scenario: Scenario) -> (PermitGuard<'_>, Scenario) {
    let guard = permits.acquire(pool_width(scenario.threads, scenario.nodes));
    // `min` keeps an invalid `threads: 0` for validation to reject.
    scenario.threads = scenario.threads.min(guard.held());
    (guard, scenario)
}

/// Runs one job to completion: acquire permits, execute, record outcome.
/// Exposed so tests can drive a single job synchronously.
pub fn run_one(queue: &JobQueue, permits: &ThreadPermits, id: JobId, scenario: Scenario) {
    let (_guard, scenario) = reserve(permits, scenario);
    // Building the simulation spawns its pool, so it runs under the same
    // catch as the run: a panic in either fails the job instead of killing
    // the runner and leaving the job `running`.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Simulation::try_new(scenario).map(|mut sim| {
            sim.attach_journal(Box::new(QueueSink::new(queue.clone(), id)));
            sim.run()
        })
    }));
    match outcome {
        Ok(Ok(report)) => queue.complete(id, report),
        Ok(Err(e)) => queue.fail(id, format!("scenario rejected: {e}")),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "simulation panicked".to_string());
            queue.fail(id, format!("simulation panicked: {msg}"));
        }
    }
}

fn runner_loop(queue: JobQueue, permits: Arc<ThreadPermits>) {
    loop {
        let (id, scenario) = queue.claim();
        run_one(&queue, &permits, id, scenario);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{JobStatus, QueueConfig};
    use unitherm_cluster::{report_digest, MIN_NODES_PER_SHARD};

    fn tiny() -> Scenario {
        Scenario::new("runner-test").with_max_time(2.0).with_recording(false)
    }

    /// A short run that reliably emits journal events (dynamic fan + burn).
    fn eventful() -> Scenario {
        use unitherm_core::control_array::Policy;
        tiny()
            .with_max_time(5.0)
            .with_nodes(1)
            .with_fan(unitherm_cluster::FanScheme::dynamic(Policy::MODERATE, 100))
    }

    fn record(sink: &mut QueueSink, n: usize) {
        use unitherm_obs::Event;
        for i in 0..n {
            sink.record(&EventRecord { time_s: i as f64, node: 0, event: Event::FailsafeRelease });
        }
    }

    #[test]
    fn sink_hands_over_the_first_record_full_batches_and_the_tail() {
        let queue = JobQueue::new(QueueConfig::default());
        let id = queue.submit("t", tiny()).expect("submit");
        let (claimed, _) = queue.try_claim().expect("claim");
        let captured = || queue.events(id).expect("job exists").len();

        let mut sink = QueueSink::new(queue.clone(), claimed);
        record(&mut sink, 1);
        assert_eq!(captured(), 1, "the first record is not held back");
        record(&mut sink, EVENT_BATCH - 1);
        assert_eq!(captured(), 1, "a partial batch stays in the sink");
        record(&mut sink, 1);
        assert_eq!(captured(), 1 + EVENT_BATCH, "a full batch goes out at once");
        record(&mut sink, 5);
        drop(sink);
        assert_eq!(captured(), 1 + EVENT_BATCH + 5, "the tail flushes on drop");
    }

    #[test]
    fn panicking_run_keeps_its_journal_up_to_the_panic() {
        // The sink lives inside the simulation, so a panicking run drops it
        // while unwinding under `run_one`'s catch; the tail must still land.
        let queue = JobQueue::new(QueueConfig::default());
        let id = queue.submit("t", tiny()).expect("submit");
        let (claimed, _) = queue.try_claim().expect("claim");
        let recorded = 2 * EVENT_BATCH + 10;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut sink = QueueSink::new(queue.clone(), claimed);
            record(&mut sink, recorded);
            panic!("simulated failure");
        }));
        assert!(outcome.is_err());
        queue.fail(claimed, "simulation panicked: simulated failure".to_string());
        let snap = queue.snapshot(id).expect("job exists");
        assert_eq!(snap.status, JobStatus::Failed);
        assert_eq!(snap.events_len, recorded, "every event up to the panic is kept");
    }

    #[test]
    fn pool_runs_submitted_job_to_done() {
        let queue = JobQueue::new(QueueConfig { capacity: 2, tenant_quota: 2 });
        let _pool = spawn_runners(queue.clone(), 2);
        let id = queue.submit("t", eventful()).expect("submit");
        let snap = queue.wait_done(id).expect("job exists");
        assert_eq!(snap.status, JobStatus::Done, "error: {:?}", snap.error);
        assert!(snap.report.is_some());
        assert!(snap.events_len > 0, "journal tee captured events");
    }

    #[test]
    fn service_report_matches_direct_run_bit_for_bit() {
        let queue = JobQueue::new(QueueConfig::default());
        let permits = ThreadPermits::new(2);
        let scenario = tiny().with_nodes(2).with_threads(2);

        let direct = Simulation::try_new(scenario.clone()).expect("valid").run();
        let id = queue.submit("t", scenario.clone()).expect("submit");
        let (claimed, claimed_scenario) = queue.try_claim().expect("claim");
        run_one(&queue, &permits, claimed, claimed_scenario);

        let snap = queue.snapshot(id).expect("job exists");
        assert_eq!(snap.status, JobStatus::Done, "error: {:?}", snap.error);
        assert_eq!(snap.digest.as_deref(), Some(report_digest(&direct).as_str()));
    }

    #[test]
    fn oversized_thread_request_clamps_instead_of_deadlocking() {
        // Asks for 8 threads against budgets of 1 and 2; acquire() clamps,
        // and the job runs no wider than the permits it holds — also above
        // the grain, where the pool would otherwise be built.
        let wide = 2 * MIN_NODES_PER_SHARD + 1;
        for (budget, nodes) in [(1, 8), (1, wide), (2, wide)] {
            let queue = JobQueue::new(QueueConfig::default());
            let permits = ThreadPermits::new(budget);
            let scenario = tiny().with_max_time(3.0).with_nodes(nodes).with_threads(8);
            {
                let (guard, sized) = reserve(&permits, scenario.clone());
                let sim = Simulation::try_new(sized).expect("valid");
                assert!(sim.width() <= guard.held(), "{nodes} nodes on {budget} permit(s)");
            }
            let direct = Simulation::try_new(scenario.clone()).expect("valid").run();
            let id = queue.submit("t", scenario).expect("submit");
            let (claimed, claimed_scenario) = queue.try_claim().expect("claim");
            run_one(&queue, &permits, claimed, claimed_scenario);
            let snap = queue.snapshot(id).unwrap();
            assert_eq!(snap.status, JobStatus::Done, "error: {:?}", snap.error);
            assert_eq!(snap.digest.as_deref(), Some(report_digest(&direct).as_str()));
            assert_eq!(permits.available(), budget, "permits returned after the run");
        }
    }

    #[test]
    fn invalid_scenario_fails_with_named_reason() {
        // `threads: 0` must survive permit sizing to reach validation.
        for scenario in [tiny().with_max_time(-1.0), tiny().with_threads(0)] {
            let queue = JobQueue::new(QueueConfig::default());
            let permits = ThreadPermits::new(2);
            let id =
                queue.submit("t", scenario).expect("submit accepts; validation is the runner's");
            let (claimed, claimed_scenario) = queue.try_claim().expect("claim");
            run_one(&queue, &permits, claimed, claimed_scenario);
            let snap = queue.snapshot(id).unwrap();
            assert_eq!(snap.status, JobStatus::Failed);
            assert!(snap.error.as_deref().unwrap_or("").contains("scenario rejected"), "{snap:?}");
        }
    }
}
