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

use unitherm_cluster::{report_json_and_digest, RunReport, Scenario};
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
    /// The report's compact JSON from the encoding that made `digest`.
    /// Only [`JobQueue::take_snapshot`] fills it, and only once per job.
    pub report_json: Option<Arc<[u8]>>,
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

impl Job {
    fn snapshot(&self) -> JobSnapshot {
        JobSnapshot {
            id: self.id,
            tenant: self.tenant.clone(),
            name: self.name.clone(),
            status: self.status,
            digest: self.digest.clone(),
            report: self.report.clone(),
            report_json: None,
            error: self.error.clone(),
            events_len: self.events.len(),
        }
    }
}

#[derive(Default)]
struct State {
    /// Every job in id order: `jobs[k]` has id `first_id + k`.
    jobs: VecDeque<Job>,
    first_id: JobId,
    /// Ids of the open (queued or running) jobs; at most `capacity`.
    open: Vec<JobId>,
    /// Ids of jobs awaiting a runner, FIFO.
    pending: VecDeque<JobId>,
    /// The report JSON `complete` encoded for each of the last `capacity`
    /// jobs to complete, oldest first, until a status document takes it.
    encoded: VecDeque<(JobId, Arc<[u8]>)>,
    /// The control-plane counters of every finished report, summed.
    counters: Counters,
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
}

impl State {
    fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(usize::try_from(id.checked_sub(self.first_id)?).ok()?)
    }

    fn job_mut(&mut self, id: JobId) -> Option<&mut Job> {
        self.jobs.get_mut(usize::try_from(id.checked_sub(self.first_id)?).ok()?)
    }

    /// Closes running job `id` for a final status; `None` (no change) when
    /// the job is unknown, still queued or already finished.
    fn finish(&mut self, id: JobId) -> Option<&mut Job> {
        if self.job(id)?.status != JobStatus::Running {
            return None;
        }
        self.open.retain(|&open| open != id);
        self.job_mut(id)
    }
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
                state: Mutex::new(State { first_id: 1, ..State::default() }),
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
        let open = state.open.len();
        if open >= self.inner.cfg.capacity {
            state.rejected += 1;
            return Err(SubmitError::QueueFull { capacity: self.inner.cfg.capacity, open });
        }
        let tenant_open = state
            .open
            .iter()
            .filter(|&&id| state.job(id).is_some_and(|j| j.tenant == tenant))
            .count();
        if tenant_open >= self.inner.cfg.tenant_quota {
            state.rejected += 1;
            return Err(SubmitError::TenantQuota {
                tenant: tenant.to_string(),
                quota: self.inner.cfg.tenant_quota,
                open: tenant_open,
            });
        }
        let id = state.first_id + state.jobs.len() as JobId;
        state.jobs.push_back(Job {
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
        state.open.push(id);
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
                let job = state.job_mut(id).expect("pending job exists");
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
        let job = state.job_mut(id).expect("pending job exists");
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
        if let Some(job) = state.job_mut(id) {
            job.events.extend_from_slice(recs);
        }
        self.inner.progress.notify_all();
    }

    /// Marks a running job `Done`, storing its report, FNV digest and the report's
    /// compact JSON, all from one encoding. The encoding is done before the
    /// lock is taken: every other queue user would otherwise wait behind it.
    /// The JSON is kept for the job's first status document; only the last
    /// `capacity` jobs to complete hold it, so it stays bounded however
    /// many jobs nobody reads.
    pub fn complete(&self, id: JobId, report: RunReport) {
        let (json, digest) = report_json_and_digest(&report);
        let json = Arc::<[u8]>::from(json);
        let counters = report.counters_total();
        let mut state = self.lock();
        let mut expired = None;
        if let Some(job) = state.finish(id) {
            job.digest = Some(digest);
            job.report = Some(Arc::new(report));
            job.status = JobStatus::Done;
            job.events_done = true;
            state.completed += 1;
            state.counters.merge(&counters);
            state.encoded.push_back((id, json));
            if state.encoded.len() > self.inner.cfg.capacity {
                expired = state.encoded.pop_front();
            }
        }
        self.inner.progress.notify_all();
        // Free the expired bytes after the lock, not under it.
        drop(state);
        drop(expired);
    }

    /// Marks a running job `Failed` with a named reason.
    pub fn fail(&self, id: JobId, error: String) {
        let mut state = self.lock();
        if let Some(job) = state.finish(id) {
            job.error = Some(error);
            job.status = JobStatus::Failed;
            job.events_done = true;
            state.failed += 1;
        }
        self.inner.progress.notify_all();
    }

    /// Public snapshot of one job; `None` for unknown ids.
    pub fn snapshot(&self, id: JobId) -> Option<JobSnapshot> {
        self.lock().job(id).map(Job::snapshot)
    }

    /// [`JobQueue::snapshot`] for a response that embeds the report: it
    /// also moves the report's encoded JSON out of the job, when the job
    /// still holds it, into `report_json`. The first such read of a job
    /// gets the bytes and releases them; later reads encode the report.
    pub fn take_snapshot(&self, id: JobId) -> Option<JobSnapshot> {
        let mut state = self.lock();
        let snap = state.job(id)?.snapshot();
        let held = state.encoded.iter().position(|&(done, _)| done == id);
        let report_json = held.and_then(|k| state.encoded.remove(k)).map(|(_, json)| json);
        Some(JobSnapshot { report_json, ..snap })
    }

    /// Snapshots of every job, in submission order.
    pub fn snapshots(&self) -> Vec<JobSnapshot> {
        self.lock().jobs.iter().map(Job::snapshot).collect()
    }

    /// The scenario timestep of a job (needed to render its bjl journal).
    pub fn dt_s(&self, id: JobId) -> Option<f64> {
        self.lock().job(id).map(|j| j.dt_s)
    }

    /// All journal events captured for a job so far.
    pub fn events(&self, id: JobId) -> Option<Vec<EventRecord>> {
        self.lock().job(id).map(|j| j.events.clone())
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
            let job = state.job(id)?;
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
                let job = state.job(id)?;
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
                let job = state.job(id)?;
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
            queued: state.pending.len(),
            running: state.open.len() - state.pending.len(),
        }
    }

    /// Sum of the control-plane [`Counters`] over all finished reports —
    /// the simulator-level half of `/metrics`, kept as jobs complete.
    pub fn counters_total(&self) -> Counters {
        self.lock().counters
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

    /// Submits, claims and completes one `tiny()` job; returns its id and
    /// a copy of its report.
    fn run_tiny(queue: &JobQueue) -> (JobId, RunReport) {
        let id = queue.submit("t", tiny()).expect("submit");
        let (claimed, scenario) = queue.try_claim().expect("claim");
        assert_eq!(claimed, id);
        let report = unitherm_cluster::Simulation::try_new(scenario).expect("valid").run();
        queue.complete(id, report.clone());
        (id, report)
    }

    #[test]
    fn first_status_read_takes_the_encoded_report() {
        let queue = JobQueue::new(QueueConfig::default());
        let (id, report) = run_tiny(&queue);
        assert!(
            queue.snapshot(id).unwrap().report_json.is_none(),
            "plain snapshots never carry it"
        );
        let first = queue.take_snapshot(id).unwrap();
        let json = first.report_json.as_deref().expect("the first status read gets the bytes");
        assert_eq!(json, serde_json::to_string(&report).unwrap().as_bytes());
        assert_eq!(first.digest, Some(unitherm_cluster::report_digest(&report)));
        assert!(queue.take_snapshot(id).unwrap().report_json.is_none(), "released after use");
        assert!(queue.take_snapshot(id).unwrap().report.is_some(), "the report itself stays");
    }

    #[test]
    fn unread_encodings_expire_after_capacity_completions() {
        let capacity = 3;
        let queue = JobQueue::new(QueueConfig { capacity, tenant_quota: capacity });
        let ids: Vec<JobId> = (0..2 * capacity).map(|_| run_tiny(&queue).0).collect();
        let failed = queue.submit("t", tiny()).expect("submit");
        queue.try_claim().expect("claim");
        queue.fail(failed, "synthetic failure".to_string());
        // Only the last `capacity` completions still hold their bytes; a
        // failure has none and evicts nothing.
        let held: Vec<bool> =
            ids.iter().map(|&id| queue.take_snapshot(id).unwrap().report_json.is_some()).collect();
        assert_eq!(held, [false, false, false, true, true, true]);
        assert!(queue.take_snapshot(failed).unwrap().report_json.is_none());
    }

    #[test]
    fn lookup_is_by_dense_id() {
        let queue = JobQueue::new(QueueConfig { capacity: 8, tenant_quota: 8 });
        let ids: Vec<JobId> = (0..5).map(|_| queue.submit("t", tiny()).expect("submit")).collect();
        assert_eq!(ids, [1, 2, 3, 4, 5]);
        for id in ids {
            assert_eq!(queue.snapshot(id).unwrap().id, id);
            assert_eq!(queue.dt_s(id), Some(tiny().dt_s));
        }
        for unknown in [0, 6, JobId::MAX] {
            assert!(queue.snapshot(unknown).is_none(), "id {unknown}");
            assert!(queue.take_snapshot(unknown).is_none(), "id {unknown}");
            assert!(queue.events(unknown).is_none(), "id {unknown}");
            assert!(queue.wait_events(unknown, 0, Duration::ZERO).is_none(), "id {unknown}");
            assert!(queue.wait_done(unknown).is_none(), "id {unknown}");
        }
        let stats = queue.stats();
        assert_eq!((stats.queued, stats.running), (5, 0));
    }

    #[test]
    fn only_running_jobs_finish() {
        let queue = JobQueue::new(QueueConfig::default());
        let (id, report) = run_tiny(&queue);
        let samples = queue.counters_total().samples;
        queue.complete(id, report.clone());
        queue.fail(id, "late failure".to_string());
        let queued = queue.submit("t", tiny()).expect("submit");
        queue.complete(queued, report);
        queue.fail(queued, "unclaimed failure".to_string());
        let stats = queue.stats();
        assert_eq!((stats.completed, stats.failed, stats.queued, stats.running), (1, 0, 1, 0));
        assert_eq!(queue.counters_total().samples, samples);
        assert_eq!(queue.snapshot(id).unwrap().status, JobStatus::Done);
        assert_eq!(queue.snapshot(queued).unwrap().status, JobStatus::Queued);
    }

    #[test]
    fn metrics_aggregate_across_done_jobs() {
        let queue = JobQueue::new(QueueConfig::default());
        for _ in 0..2 {
            run_tiny(&queue);
        }
        let total = queue.counters_total();
        assert!(total.samples >= 2, "two finished runs contribute samples: {total:?}");
        let stats = queue.stats();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (2, 2, 0));
    }
}
