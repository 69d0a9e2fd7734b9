//! Bounded multi-tenant job queue shared between the HTTP front end and the
//! runner pool.
//!
//! The queue is the service's only mutable state: submissions enqueue here,
//! runner threads claim from here, and every read endpoint (`GET /jobs/{id}`,
//! the SSE stream, `/metrics`) snapshots from here. Capacity is enforced at
//! submit time with named rejections — [`SubmitError::QueueFull`] when the
//! whole queue is at capacity, [`SubmitError::TenantQuota`] when one tenant
//! would exceed its share — so a burst from one client cannot starve the
//! rest.
//!
//! ```
//! use unitherm_cluster::Scenario;
//! use unitherm_serve::queue::{JobQueue, JobStatus, QueueConfig};
//!
//! let queue = JobQueue::new(QueueConfig { capacity: 2, tenant_quota: 1 });
//! let id = queue.submit("acme", Scenario::new("demo").with_max_time(1.0)).expect("submit");
//! assert_eq!(queue.snapshot(id).unwrap().status, JobStatus::Queued);
//! // The same tenant is over quota until that job finishes:
//! assert!(queue.submit("acme", Scenario::new("demo").with_max_time(1.0)).is_err());
//! // ...but another tenant still fits within the queue capacity.
//! assert!(queue.submit("umbrella", Scenario::new("demo").with_max_time(1.0)).is_ok());
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use unitherm_cluster::{report_digest, RunReport, Scenario};
use unitherm_obs::{Counters, EventRecord};

/// Identifier assigned to each accepted job, monotonically increasing from 1.
pub type JobId = u64;

/// Lifecycle of a job. Serialized lowercase in the status JSON
/// (`docs/FORMATS.md` §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a runner.
    Queued,
    /// A runner is executing the simulation.
    Running,
    /// Finished successfully; the report and digest are available.
    Done,
    /// The simulation could not run; `error` holds the named reason.
    Failed,
}

impl JobStatus {
    /// The lowercase wire name used in job-status JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// Queue sizing. `capacity` bounds jobs that are queued or running across
/// all tenants; `tenant_quota` bounds one tenant's share of that capacity.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Maximum open (queued + running) jobs across all tenants.
    pub capacity: usize,
    /// Maximum open jobs per tenant.
    pub tenant_quota: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self { capacity: 16, tenant_quota: 8 }
    }
}

/// Why a submission was rejected. Both variants name the limit that was hit
/// so the HTTP response can tell the client exactly what to back off on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue already holds `capacity` open jobs.
    QueueFull {
        /// The configured capacity.
        capacity: usize,
        /// Open (queued + running) jobs at rejection time.
        open: usize,
    },
    /// The submitting tenant already holds its full quota of open jobs.
    TenantQuota {
        /// The rejected tenant.
        tenant: String,
        /// The configured per-tenant quota.
        quota: usize,
        /// That tenant's open jobs at rejection time.
        open: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity, open } => {
                write!(f, "job queue is full ({open} open jobs, capacity {capacity}); retry later")
            }
            SubmitError::TenantQuota { tenant, quota, open } => write!(
                f,
                "tenant {tenant:?} is at its quota ({open} open jobs, quota {quota}); wait for one to finish"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Point-in-time public view of one job (what `GET /jobs/{id}` serves).
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job id.
    pub id: JobId,
    /// The submitting tenant.
    pub tenant: String,
    /// The scenario's `name` field.
    pub name: String,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// FNV-1a digest of the report JSON, once `Done`.
    pub digest: Option<String>,
    /// The finished report, once `Done` (shared, so snapshots stay cheap).
    pub report: Option<Arc<RunReport>>,
    /// The failure reason, once `Failed`.
    pub error: Option<String>,
    /// Journal events captured so far.
    pub events_len: usize,
}

struct Job {
    id: JobId,
    tenant: String,
    name: String,
    dt_s: f64,
    /// Present while Queued; taken by the claiming runner.
    scenario: Option<Scenario>,
    status: JobStatus,
    report: Option<Arc<RunReport>>,
    digest: Option<String>,
    error: Option<String>,
    events: Vec<EventRecord>,
    /// True once no further events will arrive (job reached Done/Failed).
    events_done: bool,
}

#[derive(Default)]
struct State {
    jobs: Vec<Job>,
    /// Ids of jobs awaiting a runner, FIFO.
    pending: VecDeque<JobId>,
    next_id: JobId,
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled when work is enqueued (runners block here).
    work: Condvar,
    /// Signalled on any job progress (event appended, status change);
    /// SSE streams and `wait_done` block here.
    progress: Condvar,
    cfg: QueueConfig,
}

/// Aggregate service-level statistics for `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    /// Jobs accepted since start.
    pub submitted: u64,
    /// Submissions rejected (full queue or tenant quota).
    pub rejected: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
}

/// Handle to the shared queue; cheap to clone across threads.
#[derive(Clone)]
pub struct JobQueue {
    inner: Arc<Inner>,
}

impl JobQueue {
    /// Creates an empty queue with the given bounds (each clamped to ≥ 1).
    pub fn new(cfg: QueueConfig) -> Self {
        let cfg = QueueConfig {
            capacity: cfg.capacity.max(1),
            tenant_quota: cfg.tenant_quota.max(1).min(cfg.capacity.max(1)),
        };
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State::default()),
                work: Condvar::new(),
                progress: Condvar::new(),
                cfg,
            }),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> QueueConfig {
        self.inner.cfg
    }

    /// Enqueues a validated scenario for `tenant`. Rejects with a named
    /// error when the queue or the tenant's quota is full.
    pub fn submit(&self, tenant: &str, scenario: Scenario) -> Result<JobId, SubmitError> {
        let mut state = self.lock();
        let open = state
            .jobs
            .iter()
            .filter(|j| matches!(j.status, JobStatus::Queued | JobStatus::Running))
            .count();
        if open >= self.inner.cfg.capacity {
            state.rejected += 1;
            return Err(SubmitError::QueueFull { capacity: self.inner.cfg.capacity, open });
        }
        let tenant_open = state
            .jobs
            .iter()
            .filter(|j| {
                j.tenant == tenant && matches!(j.status, JobStatus::Queued | JobStatus::Running)
            })
            .count();
        if tenant_open >= self.inner.cfg.tenant_quota {
            state.rejected += 1;
            return Err(SubmitError::TenantQuota {
                tenant: tenant.to_string(),
                quota: self.inner.cfg.tenant_quota,
                open: tenant_open,
            });
        }
        state.next_id += 1;
        let id = state.next_id;
        state.jobs.push(Job {
            id,
            tenant: tenant.to_string(),
            name: scenario.name.clone(),
            dt_s: scenario.dt_s,
            scenario: Some(scenario),
            status: JobStatus::Queued,
            report: None,
            digest: None,
            error: None,
            events: Vec::new(),
            events_done: false,
        });
        state.pending.push_back(id);
        state.submitted += 1;
        self.inner.work.notify_one();
        Ok(id)
    }

    /// Blocks until a queued job is available, marks it `Running`, and
    /// returns its id and scenario. Used by runner threads.
    pub fn claim(&self) -> (JobId, Scenario) {
        let mut state = self.lock();
        loop {
            if let Some(id) = state.pending.pop_front() {
                let job = state.jobs.iter_mut().find(|j| j.id == id).expect("pending job exists");
                job.status = JobStatus::Running;
                let scenario = job.scenario.take().expect("queued job holds its scenario");
                self.inner.progress.notify_all();
                return (id, scenario);
            }
            state = self.inner.work.wait(state).expect("queue lock poisoned");
        }
    }

    /// Non-blocking [`JobQueue::claim`]; `None` when nothing is queued.
    pub fn try_claim(&self) -> Option<(JobId, Scenario)> {
        let mut state = self.lock();
        let id = state.pending.pop_front()?;
        let job = state.jobs.iter_mut().find(|j| j.id == id).expect("pending job exists");
        job.status = JobStatus::Running;
        let scenario = job.scenario.take().expect("queued job holds its scenario");
        self.inner.progress.notify_all();
        Some((id, scenario))
    }

    /// Appends a batch of journal events to a running job, in order, and
    /// wakes its streams once (the runner's [`crate::QueueSink`] lands here).
    pub fn append_events(&self, id: JobId, recs: &[EventRecord]) {
        // The sink also flushes here while a panicking run unwinds, where a
        // second panic on a poisoned lock would abort the process.
        let mut state = self.inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(job) = state.jobs.iter_mut().find(|j| j.id == id) {
            job.events.extend_from_slice(recs);
        }
        self.inner.progress.notify_all();
    }

    /// Marks a job `Done`, storing its report and FNV digest. The digest
    /// serializes the whole report, so it is computed before the lock is
    /// taken: every other queue user would otherwise wait behind it.
    pub fn complete(&self, id: JobId, report: RunReport) {
        let digest = report_digest(&report);
        let mut state = self.lock();
        if let Some(job) = state.jobs.iter_mut().find(|j| j.id == id) {
            job.digest = Some(digest);
            job.report = Some(Arc::new(report));
            job.status = JobStatus::Done;
            job.events_done = true;
            state.completed += 1;
        }
        self.inner.progress.notify_all();
    }

    /// Marks a job `Failed` with a named reason.
    pub fn fail(&self, id: JobId, error: String) {
        let mut state = self.lock();
        if let Some(job) = state.jobs.iter_mut().find(|j| j.id == id) {
            job.error = Some(error);
            job.status = JobStatus::Failed;
            job.events_done = true;
            state.failed += 1;
        }
        self.inner.progress.notify_all();
    }

    /// Public snapshot of one job; `None` for unknown ids.
    pub fn snapshot(&self, id: JobId) -> Option<JobSnapshot> {
        let state = self.lock();
        state.jobs.iter().find(|j| j.id == id).map(|job| JobSnapshot {
            id: job.id,
            tenant: job.tenant.clone(),
            name: job.name.clone(),
            status: job.status,
            digest: job.digest.clone(),
            report: job.report.clone(),
            error: job.error.clone(),
            events_len: job.events.len(),
        })
    }

    /// Snapshots of every job, in submission order.
    pub fn snapshots(&self) -> Vec<JobSnapshot> {
        let state = self.lock();
        state
            .jobs
            .iter()
            .map(|job| JobSnapshot {
                id: job.id,
                tenant: job.tenant.clone(),
                name: job.name.clone(),
                status: job.status,
                digest: job.digest.clone(),
                report: job.report.clone(),
                error: job.error.clone(),
                events_len: job.events.len(),
            })
            .collect()
    }

    /// The scenario timestep of a job (needed to render its bjl journal).
    pub fn dt_s(&self, id: JobId) -> Option<f64> {
        let state = self.lock();
        state.jobs.iter().find(|j| j.id == id).map(|j| j.dt_s)
    }

    /// All journal events captured for a job so far.
    pub fn events(&self, id: JobId) -> Option<Vec<EventRecord>> {
        let state = self.lock();
        state.jobs.iter().find(|j| j.id == id).map(|j| j.events.clone())
    }

    /// Waits up to `timeout` for events past index `from`, returning the
    /// new events and whether the job has finished emitting. Returns the
    /// empty slice on timeout so SSE streams can emit keep-alives; `None`
    /// for unknown ids.
    pub fn wait_events(
        &self,
        id: JobId,
        from: usize,
        timeout: Duration,
    ) -> Option<(Vec<EventRecord>, bool)> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            let job = state.jobs.iter().find(|j| j.id == id)?;
            if job.events.len() > from || job.events_done {
                let fresh = job.events.get(from..).unwrap_or(&[]).to_vec();
                return Some((fresh, job.events_done));
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Some((Vec::new(), false));
            }
            let (next, timed_out) = self
                .inner
                .progress
                .wait_timeout(state, deadline - now)
                .expect("queue lock poisoned");
            state = next;
            if timed_out.timed_out() {
                let job = state.jobs.iter().find(|j| j.id == id)?;
                let fresh = if job.events.len() > from {
                    job.events.get(from..).unwrap_or(&[]).to_vec()
                } else {
                    Vec::new()
                };
                return Some((fresh, job.events_done));
            }
        }
    }

    /// Blocks until the job reaches `Done` or `Failed`, returning its final
    /// snapshot; `None` for unknown ids.
    pub fn wait_done(&self, id: JobId) -> Option<JobSnapshot> {
        let mut state = self.lock();
        loop {
            let finished = {
                let job = state.jobs.iter().find(|j| j.id == id)?;
                matches!(job.status, JobStatus::Done | JobStatus::Failed)
            };
            if finished {
                drop(state);
                return self.snapshot(id);
            }
            state = self.inner.progress.wait(state).expect("queue lock poisoned");
        }
    }

    /// Service-level counters for `/metrics`.
    pub fn stats(&self) -> QueueStats {
        let state = self.lock();
        QueueStats {
            submitted: state.submitted,
            rejected: state.rejected,
            completed: state.completed,
            failed: state.failed,
            queued: state.jobs.iter().filter(|j| j.status == JobStatus::Queued).count(),
            running: state.jobs.iter().filter(|j| j.status == JobStatus::Running).count(),
        }
    }

    /// Sum of the control-plane [`Counters`] over all finished reports —
    /// the simulator-level half of `/metrics`.
    pub fn counters_total(&self) -> Counters {
        let state = self.lock();
        let mut total = Counters::default();
        for job in &state.jobs {
            if let Some(report) = &job.report {
                total.merge(&report.counters_total());
            }
        }
        total
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.inner.state.lock().expect("queue lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario::new("queue-test").with_max_time(1.0).with_recording(false)
    }

    /// A short run that reliably emits journal events: one node under a
    /// dynamic fan controller ramping against cpu-burn heat.
    fn eventful() -> Scenario {
        use unitherm_core::control_array::Policy;
        tiny()
            .with_max_time(5.0)
            .with_nodes(1)
            .with_fan(unitherm_cluster::FanScheme::dynamic(Policy::MODERATE, 100))
    }

    #[test]
    fn submit_claim_complete_roundtrip() {
        let queue = JobQueue::new(QueueConfig { capacity: 4, tenant_quota: 4 });
        let id = queue.submit("t", tiny()).expect("submit");
        assert_eq!(queue.snapshot(id).unwrap().status, JobStatus::Queued);

        let (claimed, scenario) = queue.try_claim().expect("claim");
        assert_eq!(claimed, id);
        assert_eq!(queue.snapshot(id).unwrap().status, JobStatus::Running);

        let report =
            unitherm_cluster::Simulation::try_new(scenario).expect("scenario is valid").run();
        queue.complete(id, report);
        let snap = queue.snapshot(id).unwrap();
        assert_eq!(snap.status, JobStatus::Done);
        assert!(snap.digest.as_deref().unwrap_or("").starts_with("fnv1a64:"), "{snap:?}");
        assert!(snap.report.is_some());
    }

    #[test]
    fn capacity_and_quota_reject_by_name() {
        let queue = JobQueue::new(QueueConfig { capacity: 2, tenant_quota: 1 });
        queue.submit("a", tiny()).expect("first fits");
        match queue.submit("a", tiny()) {
            Err(SubmitError::TenantQuota { tenant, quota: 1, open: 1 }) => assert_eq!(tenant, "a"),
            other => panic!("expected tenant quota rejection, got {other:?}"),
        }
        queue.submit("b", tiny()).expect("second tenant fits");
        match queue.submit("c", tiny()) {
            Err(SubmitError::QueueFull { capacity: 2, open: 2 }) => {}
            other => panic!("expected queue-full rejection, got {other:?}"),
        }
        assert_eq!(queue.stats().rejected, 2);
    }

    #[test]
    fn finished_jobs_free_their_slots() {
        let queue = JobQueue::new(QueueConfig { capacity: 1, tenant_quota: 1 });
        let id = queue.submit("t", tiny()).expect("submit");
        assert!(queue.submit("t", tiny()).is_err());
        let (claimed, _scenario) = queue.try_claim().expect("claim");
        queue.fail(claimed, "synthetic failure".to_string());
        assert_eq!(queue.snapshot(id).unwrap().status, JobStatus::Failed);
        queue.submit("t", tiny()).expect("slot freed after failure");
    }

    #[test]
    fn wait_events_sees_appends_and_completion() {
        let queue = JobQueue::new(QueueConfig::default());
        let id = queue.submit("t", eventful()).expect("submit");
        let (claimed, scenario) = queue.try_claim().expect("claim");

        let waiter = {
            let queue = queue.clone();
            std::thread::spawn(move || {
                queue.wait_events(id, 0, Duration::from_secs(5)).expect("job exists")
            })
        };
        let mut sim = unitherm_cluster::Simulation::try_new(scenario).expect("valid");
        sim.attach_journal(Box::new(crate::QueueSink::new(queue.clone(), claimed)));
        let report = sim.run();
        queue.complete(claimed, report);

        let (events, _done) = waiter.join().expect("waiter");
        assert!(!events.is_empty(), "run emits at least the terminal events");
        let (tail, done) = queue
            .wait_events(id, queue.events(id).unwrap().len(), Duration::from_millis(10))
            .unwrap();
        assert!(tail.is_empty());
        assert!(done, "completed job reports events_done");
    }

    #[test]
    fn metrics_aggregate_across_done_jobs() {
        let queue = JobQueue::new(QueueConfig::default());
        for _ in 0..2 {
            let id = queue.submit("t", tiny()).expect("submit");
            let (claimed, scenario) = queue.try_claim().expect("claim");
            assert_eq!(claimed, id);
            let report = unitherm_cluster::Simulation::try_new(scenario).expect("valid").run();
            queue.complete(claimed, report);
        }
        let total = queue.counters_total();
        assert!(total.samples >= 2, "two finished runs contribute samples: {total:?}");
        let stats = queue.stats();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (2, 2, 0));
    }
}
