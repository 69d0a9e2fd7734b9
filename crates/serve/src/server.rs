//! Routing and response rendering for the service's five endpoints
//! (`docs/API.md`): `POST /jobs`, `GET /jobs`, `GET /jobs/{id}`,
//! `GET /jobs/{id}/events`, `GET /metrics`, `GET /healthz`.
//!
//! The server is deliberately plain: one request per connection
//! (`Connection: close`), bodies bounded by [`Limits`], and each accepted
//! connection served by a handler thread that is reused. A handler that
//! has written its response waits for the next connection; the accept
//! loop hands each connection to a waiting handler and starts a thread
//! only when none waits, so a request never queues behind a busy handler
//! (an open SSE stream). A handler idle for `HANDLER_IDLE_TIMEOUT` (10 s)
//! exits. Connection handling never touches the simulator directly —
//! every route reads or writes through the shared [`JobQueue`], so HTTP
//! concurrency and simulation concurrency stay decoupled.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use serde::{Serialize, Serializer};
use serde_json::RawJson;
use unitherm_cluster::{RunReport, ThreadPermits};
use unitherm_experiments::scenario_file;
use unitherm_obs::{prometheus_text, records_to_bjl, write_sse_frame, EventSink, JournalWriter};

use crate::handoff::HandOff;
use crate::http::{
    parse_request, reason_phrase, render_response, HttpError, Limits, Method, Request,
};
use crate::queue::{JobId, JobQueue, JobSnapshot, SubmitError};
use crate::runner::{spawn_runners, RunnerPool};

/// How long a handler thread waits for its next connection before it
/// exits.
const HANDLER_IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Service configuration (flags of the `unitherm-serve` binary).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7070` (port 0 for tests).
    pub addr: String,
    /// Total simulation-thread budget shared by all concurrent jobs.
    pub max_threads: usize,
    /// Queue bounds.
    pub queue: crate::queue::QueueConfig,
    /// HTTP parser limits.
    pub limits: Limits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7070".to_string(),
            max_threads: thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue: crate::queue::QueueConfig::default(),
            limits: Limits::default(),
        }
    }
}

/// A bound listener plus the queue and runner pool behind it.
pub struct Server {
    listener: TcpListener,
    queue: JobQueue,
    pool: RunnerPool,
    limits: Limits,
}

impl Server {
    /// Binds the listener and spawns the runner pool. The returned server
    /// is not yet accepting — call [`Server::run`] (blocking) to serve.
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let queue = JobQueue::new(cfg.queue);
        let pool = spawn_runners(queue.clone(), cfg.max_threads);
        Ok(Server { listener, queue, pool, limits: cfg.limits })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared job queue (tests submit and poll through this).
    pub fn queue(&self) -> JobQueue {
        self.queue.clone()
    }

    /// Accept loop, forever: each connection goes to an idle handler
    /// thread, or to a new one when none is idle.
    pub fn run(self) -> std::io::Result<()> {
        let shared = Arc::new(Shared {
            queue: self.queue.clone(),
            permits: Arc::clone(&self.pool.permits),
            limits: self.limits,
            handoff: HandOff::new(HANDLER_IDLE_TIMEOUT),
            threads_started: AtomicU64::new(0),
        });
        for stream in self.listener.incoming() {
            let Ok(stream) = stream else { continue };
            if let Some(stream) = shared.handoff.offer(stream) {
                start_handler(&shared, stream);
            }
        }
        Ok(())
    }
}

/// What every handler thread shares.
struct Shared {
    queue: JobQueue,
    permits: Arc<ThreadPermits>,
    limits: Limits,
    handoff: HandOff<TcpStream>,
    /// Handler threads started, for `/metrics`.
    threads_started: AtomicU64,
}

/// Starts a handler thread serving `stream`, then every connection the
/// hand-off gives it until it has been idle for [`HANDLER_IDLE_TIMEOUT`].
/// If the thread cannot start, `stream` is closed unanswered.
fn start_handler(shared: &Arc<Shared>, stream: TcpStream) {
    // Counted before the thread runs, so a `/metrics` it serves counts it.
    shared.threads_started.fetch_add(1, Ordering::Relaxed);
    let handler = Arc::clone(shared);
    let spawned = thread::Builder::new().name("unitherm-conn".to_string()).spawn(move || {
        let mut stream = stream;
        loop {
            handle_connection(&mut stream, &handler);
            match handler.handoff.next(stream) {
                Some(next) => stream = next,
                None => return,
            }
        }
    });
    if spawned.is_err() {
        shared.threads_started.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The job-status document (`docs/FORMATS.md` §6); absent fields are
/// left out, not written as `null`.
#[derive(Serialize)]
struct JobStatusDoc<'a> {
    id: JobId,
    tenant: &'a str,
    name: &'a str,
    status: &'static str,
    events: usize,
    #[serde(skip_serializing_if = "Option::is_none")]
    digest: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    error: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    report: Option<ReportField<'a>>,
}

/// A status document's report: the bytes `JobQueue::complete` encoded, when
/// this read took them (`JobQueue::take_snapshot`), else the report itself.
/// Both write the same JSON.
enum ReportField<'a> {
    Encoded(RawJson<'a>),
    Report(&'a RunReport),
}

impl Serialize for ReportField<'_> {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        match self {
            ReportField::Encoded(json) => json.serialize(s),
            ReportField::Report(report) => report.serialize(s),
        }
    }
}

impl<'a> From<&'a JobSnapshot> for JobStatusDoc<'a> {
    fn from(snap: &'a JobSnapshot) -> Self {
        JobStatusDoc {
            id: snap.id,
            tenant: &snap.tenant,
            name: &snap.name,
            status: snap.status.as_str(),
            events: snap.events_len,
            digest: snap.digest.as_deref(),
            error: snap.error.as_deref(),
            report: match &snap.report_json {
                Some(json) => Some(ReportField::Encoded(RawJson::new(json))),
                None => snap.report.as_deref().map(ReportField::Report),
            },
        }
    }
}

/// `GET /jobs`.
#[derive(Serialize)]
struct JobListDoc<'a> {
    jobs: Vec<JobStatusDoc<'a>>,
}

/// `POST /jobs` accepted.
#[derive(Serialize)]
struct AcceptedDoc<'a> {
    id: JobId,
    status: &'static str,
    tenant: &'a str,
}

/// Every error body.
#[derive(Serialize)]
struct ErrorDoc<'a> {
    error: &'a str,
    detail: &'a str,
}

fn json<T: Serialize>(doc: &T) -> Vec<u8> {
    let mut out = Vec::new();
    serde_json::to_writer(&mut out, doc).expect("documents serialize into memory");
    out
}

fn write_all(stream: &mut TcpStream, bytes: &[u8]) {
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
}

/// Writes an error response: an [`ErrorDoc`] whose `error` field is the
/// status's reason phrase, as is the status line's.
fn reply_error(stream: &mut TcpStream, status: u16, extra_headers: &[&str], detail: &str) {
    let body = json(&ErrorDoc { error: reason_phrase(status), detail });
    write_all(stream, &render_response(status, "application/json", extra_headers, &body));
}

/// Reads one request, routes it and writes one response; the caller
/// closes the connection.
fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = parse_request(&mut BufReader::new(&*stream), &shared.limits);
    let request = match request {
        Ok(req) => req,
        Err(HttpError::ConnectionClosed) => return,
        Err(e) => return reply_error(stream, e.status(), &[], &e.to_string()),
    };
    let _ = stream.set_read_timeout(None);
    route(stream, &request, shared);
}

fn route(stream: &mut TcpStream, req: &Request, shared: &Shared) {
    let queue = &shared.queue;
    match (req.method, req.path.as_str()) {
        (Method::Get, "/healthz") => {
            write_all(stream, &render_response(200, "text/plain; charset=utf-8", &[], b"ok\n"));
        }
        (Method::Get, "/metrics") => serve_metrics(
            stream,
            queue,
            &shared.permits,
            shared.threads_started.load(Ordering::Relaxed),
        ),
        (Method::Post, "/jobs") => serve_submit(stream, req, queue),
        (Method::Get, "/jobs") => serve_job_list(stream, queue),
        (Method::Get, path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            match rest.split_once('/') {
                None => match rest.parse::<JobId>() {
                    Ok(id) => serve_job_status(stream, queue, id),
                    Err(_) => not_found(stream, path),
                },
                Some((id, "events")) => match id.parse::<JobId>() {
                    Ok(id) => serve_job_events(stream, req, queue, id),
                    Err(_) => not_found(stream, path),
                },
                Some(_) => not_found(stream, path),
            }
        }
        (_, path) => not_found(stream, path),
    }
}

fn not_found(stream: &mut TcpStream, path: &str) {
    reply_error(stream, 404, &[], &format!("no route for {path}"));
}

/// `POST /jobs`: validate the scenario body, enqueue, answer 202 with the
/// job id — or a named 4xx/503 rejection.
fn serve_submit(stream: &mut TcpStream, req: &Request, queue: &JobQueue) {
    let tenant = req
        .header("x-unitherm-tenant")
        .or_else(|| req.query_param("tenant"))
        .unwrap_or("default")
        .to_string();
    if tenant.is_empty()
        || tenant.len() > 64
        || !tenant.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return reply_error(stream, 400, &[], "tenant must be 1-64 chars of [A-Za-z0-9_-]");
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return reply_error(stream, 400, &[], "scenario body must be UTF-8 JSON");
    };
    let scenario = match scenario_file::parse(text) {
        Ok(s) => s,
        Err(e) => return reply_error(stream, 400, &[], &e.to_string()),
    };
    match queue.submit(&tenant, scenario) {
        Ok(id) => {
            let body = json(&AcceptedDoc { id, status: "queued", tenant: &tenant });
            let location = format!("Location: /jobs/{id}");
            write_all(stream, &render_response(202, "application/json", &[&location], &body));
        }
        Err(e @ SubmitError::QueueFull { .. }) => {
            reply_error(stream, 503, &["Retry-After: 1"], &e.to_string());
        }
        Err(e @ SubmitError::TenantQuota { .. }) => {
            reply_error(stream, 429, &["Retry-After: 1"], &e.to_string());
        }
    }
}

fn serve_job_list(stream: &mut TcpStream, queue: &JobQueue) {
    let snaps = queue.snapshots();
    let body = json(&JobListDoc { jobs: snaps.iter().map(JobStatusDoc::from).collect() });
    write_all(stream, &render_response(200, "application/json", &[], &body));
}

fn serve_job_status(stream: &mut TcpStream, queue: &JobQueue, id: JobId) {
    match queue.take_snapshot(id) {
        Some(snap) => {
            let body = json(&JobStatusDoc::from(&snap));
            write_all(stream, &render_response(200, "application/json", &[], &body));
        }
        None => reply_error(stream, 404, &[], &format!("no job {id}")),
    }
}

/// `GET /jobs/{id}/events`: SSE stream by default; `?format=jsonl` (or
/// `Accept: application/x-ndjson`) downloads the journal as JSONL,
/// `?format=bjl` (or `Accept: application/vnd.unitherm.bjl`) as
/// unitherm-bjl/v1 — both byte-identical to what `repro run-scenario
/// --journal/--bjl` writes for the same scenario (FORMATS.md §6).
fn serve_job_events(stream: &mut TcpStream, req: &Request, queue: &JobQueue, id: JobId) {
    if queue.snapshot(id).is_none() {
        return reply_error(stream, 404, &[], &format!("no job {id}"));
    }
    let accept = req.header("accept").unwrap_or("");
    let format = req.query_param("format").map(str::to_string).unwrap_or_else(|| {
        if accept.contains("application/vnd.unitherm.bjl") {
            "bjl".to_string()
        } else if accept.contains("application/x-ndjson") {
            "jsonl".to_string()
        } else {
            "sse".to_string()
        }
    });
    match format.as_str() {
        "sse" => stream_sse(stream, queue, id),
        "jsonl" => {
            // Journal downloads wait for the run to finish so the body is
            // the complete journal, not a racing prefix.
            let _ = queue.wait_done(id);
            let events = queue.events(id).unwrap_or_default();
            let mut journal = JournalWriter::new(Vec::with_capacity(events.len() * 128));
            for rec in &events {
                journal.record(rec);
            }
            let body = journal.finish().expect("an in-memory journal cannot fail");
            write_all(stream, &render_response(200, "application/x-ndjson", &[], &body));
        }
        "bjl" => {
            let _ = queue.wait_done(id);
            let events = queue.events(id).unwrap_or_default();
            let dt_s = queue.dt_s(id).unwrap_or(0.0);
            let body = records_to_bjl(&events, dt_s);
            write_all(stream, &render_response(200, "application/vnd.unitherm.bjl", &[], &body));
        }
        other => {
            reply_error(stream, 400, &[], &format!("unknown format {other:?} (sse, jsonl, bjl)"))
        }
    }
}

/// Streams a job's journal as SSE: one `event: journal` frame per record
/// (whose `data:` payload is the exact JSONL line), keep-alive comments
/// while idle, and a final `event: done` frame whose payload is the
/// job-status document, the same bytes as `GET /jobs/{id}`. Each batch
/// [`JobQueue::wait_events`] returns is encoded into one buffer and sent
/// as one write.
fn stream_sse(stream: &mut TcpStream, queue: &JobQueue, id: JobId) {
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut out = Vec::with_capacity(16 * 1024);
    let mut seq: u64 = 0;
    loop {
        let Some((fresh, done)) = queue.wait_events(id, seq as usize, Duration::from_secs(1))
        else {
            return;
        };
        out.clear();
        for rec in &fresh {
            write_sse_frame(&mut out, Some(seq), "journal", rec);
            seq += 1;
        }
        if done {
            // Jobs are never removed, so the snapshot exists. It carries
            // the report's encoded JSON if this is the job's first status
            // read, and drops it before the write.
            if let Some(snap) = queue.take_snapshot(id) {
                write_sse_frame(&mut out, None, "done", &JobStatusDoc::from(&snap));
            }
            write_all(stream, &out);
            return;
        }
        if fresh.is_empty() {
            // SSE comment line as a keep-alive so proxies don't cut us off.
            out.extend_from_slice(b": keep-alive\n\n");
        }
        if stream.write_all(&out).is_err() {
            return;
        }
    }
}

/// `GET /metrics`: service-level counters plus the merged control-plane
/// [`Counters`] of every finished job, in Prometheus text exposition.
fn serve_metrics(
    stream: &mut TcpStream,
    queue: &JobQueue,
    permits: &ThreadPermits,
    threads_started: u64,
) {
    let stats = queue.stats();
    let mut body = String::new();
    let mut counter = |name: &str, help: &str, kind: &str, value: u64| {
        body.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"));
    };
    counter(
        "unitherm_serve_jobs_submitted_total",
        "Jobs accepted since start.",
        "counter",
        stats.submitted,
    );
    counter(
        "unitherm_serve_jobs_rejected_total",
        "Submissions rejected (queue full or tenant quota).",
        "counter",
        stats.rejected,
    );
    counter(
        "unitherm_serve_jobs_completed_total",
        "Jobs finished successfully.",
        "counter",
        stats.completed,
    );
    counter("unitherm_serve_jobs_failed_total", "Jobs that failed.", "counter", stats.failed);
    counter(
        "unitherm_serve_jobs_queued",
        "Jobs currently waiting for a runner.",
        "gauge",
        stats.queued as u64,
    );
    counter(
        "unitherm_serve_jobs_running",
        "Jobs currently executing.",
        "gauge",
        stats.running as u64,
    );
    counter(
        "unitherm_serve_thread_permits_total",
        "Total simulation-thread budget.",
        "gauge",
        permits.total() as u64,
    );
    counter(
        "unitherm_serve_thread_permits_available",
        "Simulation-thread permits not currently held by a run.",
        "gauge",
        permits.available() as u64,
    );
    counter(
        "unitherm_serve_connection_threads_started_total",
        "Connection handler threads started; each serves connections until idle.",
        "counter",
        threads_started,
    );
    body.push_str(&prometheus_text(&queue.counters_total(), ""));
    write_all(
        stream,
        &render_response(200, "text/plain; version=0.0.4; charset=utf-8", &[], body.as_bytes()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{JobStatus, QueueConfig};
    use std::io::Read;
    use std::sync::Arc;
    use unitherm_cluster::{report_digest, Scenario};
    use unitherm_obs::Counters;

    fn text(bytes: Vec<u8>) -> String {
        String::from_utf8(bytes).expect("JSON is UTF-8")
    }

    fn snapshot(status: JobStatus) -> JobSnapshot {
        JobSnapshot {
            id: 7,
            tenant: "acme".into(),
            name: "we\"ird\\name\u{1}\té".into(),
            status,
            digest: None,
            report: None,
            report_json: None,
            error: None,
            events_len: 3,
        }
    }

    /// The documents' bytes as FORMATS.md §6 fixes them (they were
    /// hand-formatted before the shim wrote them).
    #[test]
    fn documents_keep_their_wire_bytes() {
        let queued = snapshot(JobStatus::Queued);
        let queued_doc = r#"{"id":7,"tenant":"acme","name":"we\"ird\\name\u0001\té","status":"queued","events":3}"#;
        assert_eq!(text(json(&JobStatusDoc::from(&queued))), queued_doc);

        let failed =
            JobSnapshot { error: Some("bad \"x\"\n".into()), ..snapshot(JobStatus::Failed) };
        assert_eq!(
            text(json(&JobStatusDoc::from(&failed))),
            r#"{"id":7,"tenant":"acme","name":"we\"ird\\name\u0001\té","status":"failed","events":3,"error":"bad \"x\"\n"}"#
        );

        let report = unitherm_cluster::Simulation::try_new(
            unitherm_cluster::Scenario::new("doc").with_max_time(1.0).with_recording(false),
        )
        .expect("valid")
        .run();
        let done = JobSnapshot {
            digest: Some("fnv1a64:0123456789abcdef".into()),
            report: Some(Arc::new(report.clone())),
            ..snapshot(JobStatus::Done)
        };
        assert_eq!(
            text(json(&JobStatusDoc::from(&done))),
            format!(
                r#"{{"id":7,"tenant":"acme","name":"we\"ird\\name\u0001\té","status":"done","events":3,"digest":"fnv1a64:0123456789abcdef","report":{}}}"#,
                serde_json::to_string(&report).unwrap()
            )
        );

        let list = JobListDoc { jobs: vec![(&queued).into(), (&queued).into()] };
        assert_eq!(text(json(&list)), format!(r#"{{"jobs":[{queued_doc},{queued_doc}]}}"#));
        assert_eq!(text(json(&JobListDoc { jobs: Vec::new() })), r#"{"jobs":[]}"#);
        assert_eq!(
            text(json(&AcceptedDoc { id: 3, status: "queued", tenant: "t-1" })),
            r#"{"id":3,"status":"queued","tenant":"t-1"}"#
        );
        let detail = "unknown format \"x\" (sse, jsonl, bjl)";
        assert_eq!(
            text(body(&response(|s| reply_error(s, 400, &[], detail))).to_vec()),
            r#"{"error":"Bad Request","detail":"unknown format \"x\" (sse, jsonl, bjl)"}"#
        );
    }

    /// Everything a route writes to one end of a loopback connection, read
    /// from the other end until the route closes it.
    fn response(serve: impl FnOnce(&mut TcpStream)) -> Vec<u8> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let reader = thread::spawn(move || {
            let mut bytes = Vec::new();
            (&client).read_to_end(&mut bytes).expect("read response");
            bytes
        });
        let (mut server, _) = listener.accept().expect("accept");
        serve(&mut server);
        drop(server);
        reader.join().expect("reader")
    }

    fn body(response: &[u8]) -> &[u8] {
        let split = response.windows(4).position(|w| w == b"\r\n\r\n").expect("head ends");
        &response[split + 4..]
    }

    fn status_body(queue: &JobQueue, id: JobId) -> Vec<u8> {
        body(&response(|s| serve_job_status(s, queue, id))).to_vec()
    }

    /// The `data:` payload of the SSE stream's `done` frame.
    fn done_payload(queue: &JobQueue, id: JobId) -> Vec<u8> {
        let sse = response(|s| stream_sse(s, queue, id));
        let text = String::from_utf8(body(&sse).to_vec()).expect("SSE is UTF-8");
        let frame = text.rsplit_once("event: done\ndata: ").expect("a done frame").1;
        frame.strip_suffix("\n\n").expect("the done frame ends the stream").as_bytes().to_vec()
    }

    /// A scenario short enough for a debug build that still emits events.
    fn eventful(name: &str) -> Scenario {
        use unitherm_core::control_array::Policy;
        Scenario::new(name)
            .with_max_time(5.0)
            .with_nodes(1)
            .with_recording(false)
            .with_fan(unitherm_cluster::FanScheme::dynamic(Policy::MODERATE, 100))
    }

    /// Claims job `id` and runs it to completion through the runner.
    fn run(queue: &JobQueue, id: JobId) {
        let (claimed, scenario) = queue.try_claim().expect("claim");
        assert_eq!(claimed, id);
        crate::run_one(queue, &ThreadPermits::new(1), claimed, scenario);
    }

    /// The status document with the report encoded in full, and, spelled
    /// out, the bytes FORMATS.md §6 gives it.
    fn encoded_in_full(queue: &JobQueue, id: JobId) -> Vec<u8> {
        let snap = queue.snapshot(id).expect("job exists");
        assert!(snap.report_json.is_none());
        let doc = json(&JobStatusDoc::from(&snap));
        let report = snap.report.as_deref().map(|r| serde_json::to_string(r).unwrap());
        let spelled = match (snap.status, report) {
            (JobStatus::Done, Some(report)) => format!(
                r#"{{"id":{id},"tenant":"acme","name":"{}","status":"done","events":{},"digest":"{}","report":{report}}}"#,
                snap.name,
                snap.events_len,
                report_digest(snap.report.as_deref().unwrap()),
            ),
            (JobStatus::Failed, None) => format!(
                r#"{{"id":{id},"tenant":"acme","name":"{}","status":"failed","events":{},"error":"{}"}}"#,
                snap.name,
                snap.events_len,
                snap.error.as_deref().unwrap(),
            ),
            other => panic!("unexpected final state {other:?}"),
        };
        assert_eq!(text(doc.clone()), spelled);
        doc
    }

    #[test]
    fn spliced_report_keeps_the_status_bytes() {
        let queue = JobQueue::new(QueueConfig::default());
        let streamed = queue.submit("acme", eventful("streamed")).expect("submit");
        let polled = queue.submit("acme", eventful("polled")).expect("submit");
        let failed = queue.submit("acme", eventful("failed")).expect("submit");
        run(&queue, streamed);
        run(&queue, polled);
        queue.try_claim().expect("claim");
        queue.fail(failed, "simulation panicked: synthetic".to_string());

        // The first `done` frame splices the encoded report and releases
        // it; a second subscriber and a status read encode it again.
        let want = encoded_in_full(&queue, streamed);
        assert!(queue.snapshot(streamed).unwrap().events_len > 0, "the run emits events");
        assert_eq!(text(done_payload(&queue, streamed)), text(want.clone()));
        assert!(queue.take_snapshot(streamed).unwrap().report_json.is_none(), "released");
        assert_eq!(text(done_payload(&queue, streamed)), text(want.clone()));
        assert_eq!(text(status_body(&queue, streamed)), text(want));

        // A status read can be the first use as well.
        let want = encoded_in_full(&queue, polled);
        assert_eq!(text(status_body(&queue, polled)), text(want.clone()));
        assert!(queue.take_snapshot(polled).unwrap().report_json.is_none(), "released");
        assert_eq!(text(status_body(&queue, polled)), text(want.clone()));
        assert_eq!(text(done_payload(&queue, polled)), text(want));

        let want = encoded_in_full(&queue, failed);
        assert_eq!(text(done_payload(&queue, failed)), text(want.clone()));
        assert_eq!(text(status_body(&queue, failed)), text(want));
    }

    #[test]
    fn metrics_sum_every_finished_job() {
        let queue = JobQueue::new(QueueConfig { capacity: 6, tenant_quota: 6 });
        let ids: Vec<JobId> = (0..6)
            .map(|k| queue.submit("acme", eventful(&format!("m{k}"))).expect("submit"))
            .collect();
        for &id in &ids[..3] {
            run(&queue, id);
        }
        queue.try_claim().expect("claim");
        queue.fail(ids[3], "synthetic".to_string());
        queue.try_claim().expect("claim");
        // Left: ids[4] running, ids[5] queued.

        let mut counters = Counters::default();
        for snap in queue.snapshots() {
            if let Some(report) = &snap.report {
                counters.merge(&report.counters_total());
            }
        }
        assert!(counters.samples > 0 && counters.events_emitted > 0, "{counters:?}");
        let permits = ThreadPermits::new(3);
        let want = format!(
            "# HELP unitherm_serve_jobs_submitted_total Jobs accepted since start.\n\
             # TYPE unitherm_serve_jobs_submitted_total counter\n\
             unitherm_serve_jobs_submitted_total 6\n\
             # HELP unitherm_serve_jobs_rejected_total Submissions rejected (queue full or tenant quota).\n\
             # TYPE unitherm_serve_jobs_rejected_total counter\n\
             unitherm_serve_jobs_rejected_total 0\n\
             # HELP unitherm_serve_jobs_completed_total Jobs finished successfully.\n\
             # TYPE unitherm_serve_jobs_completed_total counter\n\
             unitherm_serve_jobs_completed_total 3\n\
             # HELP unitherm_serve_jobs_failed_total Jobs that failed.\n\
             # TYPE unitherm_serve_jobs_failed_total counter\n\
             unitherm_serve_jobs_failed_total 1\n\
             # HELP unitherm_serve_jobs_queued Jobs currently waiting for a runner.\n\
             # TYPE unitherm_serve_jobs_queued gauge\n\
             unitherm_serve_jobs_queued 1\n\
             # HELP unitherm_serve_jobs_running Jobs currently executing.\n\
             # TYPE unitherm_serve_jobs_running gauge\n\
             unitherm_serve_jobs_running 1\n\
             # HELP unitherm_serve_thread_permits_total Total simulation-thread budget.\n\
             # TYPE unitherm_serve_thread_permits_total gauge\n\
             unitherm_serve_thread_permits_total 3\n\
             # HELP unitherm_serve_thread_permits_available Simulation-thread permits not currently held by a run.\n\
             # TYPE unitherm_serve_thread_permits_available gauge\n\
             unitherm_serve_thread_permits_available 3\n\
             # HELP unitherm_serve_connection_threads_started_total Connection handler threads started; each serves connections until idle.\n\
             # TYPE unitherm_serve_connection_threads_started_total counter\n\
             unitherm_serve_connection_threads_started_total 2\n{}",
            prometheus_text(&counters, "")
        );
        let got = response(|s| serve_metrics(s, &queue, &permits, 2));
        assert_eq!(text(body(&got).to_vec()), want);
    }
}
