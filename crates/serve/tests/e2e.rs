//! End-to-end test over a live TCP socket: bind a real server on port 0,
//! submit a scenario with a plain HTTP client, tail the SSE stream, and
//! check the service's two determinism guarantees (FORMATS.md §6):
//!
//! 1. the finished report's FNV digest equals a direct `Simulation` run
//!    of the same scenario, and
//! 2. the downloaded journal — JSONL or unitherm-bjl/v1, and the SSE
//!    `data:` payloads — is byte-identical to what a direct run's
//!    `JournalWriter` produces.

use std::io::{Read, Write};
use std::net::TcpStream;

use unitherm_cluster::{report_digest, RunReport, Simulation};
use unitherm_experiments::scenario_file;
use unitherm_obs::{records_to_bjl, EventRecord, EventSink, JournalWriter};
use unitherm_serve::{JobStatus, Limits, QueueConfig, ServeConfig, Server};

/// The committed example scenario the CI smoke also submits, shortened so
/// the test finishes in well under a second of wall clock.
fn scenario_json() -> String {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/scenarios/protected_burn.json"),
    )
    .expect("committed example scenario exists");
    // Trim the run to 20 simulated seconds; keep everything else intact.
    text.replace("\"max_time_s\": 180.0", "\"max_time_s\": 20.0")
}

/// Spawns a server on an ephemeral port; returns its base address.
fn start_server() -> String {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_threads: 2,
        queue: QueueConfig { capacity: 4, tenant_quota: 4 },
        limits: Limits::default(),
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        let _ = server.run();
    });
    addr
}

/// Minimal HTTP client: one request, reads to EOF (the server closes).
fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if let Some(body) = body {
        req.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    req.push_str("\r\n");
    if let Some(body) = body {
        req.push_str(body);
    }
    stream.write_all(req.as_bytes()).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body boundary");
    let head = String::from_utf8_lossy(&response[..split]).into_owned();
    let body = response[split + 4..].to_vec();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line has a code");
    (status, head, body)
}

/// Pulls a scalar field out of a flat JSON object without a full parser
/// (the status documents this test reads are single-level).
fn json_field(doc: &str, name: &str) -> Option<String> {
    let needle = format!("\"{name}\":");
    let start = doc.find(&needle)? + needle.len();
    let rest = &doc[start..];
    if let Some(quoted) = rest.strip_prefix('"') {
        return Some(quoted[..quoted.find('"')?].to_string());
    }
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().to_string())
}

/// Runs `json` directly, capturing its journal through the same
/// `EventSink` seam the service uses; returns the report, the records and
/// their JSONL journal.
fn direct_run(json: &str) -> (RunReport, Vec<EventRecord>, String) {
    #[derive(Default, Clone)]
    struct Capture(std::sync::Arc<std::sync::Mutex<Vec<EventRecord>>>);
    impl EventSink for Capture {
        fn record(&mut self, rec: &EventRecord) {
            self.0.lock().unwrap().push(*rec);
        }
    }
    let scenario = scenario_file::parse(json).expect("scenario parses");
    let capture = Capture::default();
    let mut direct = Simulation::try_new(scenario).expect("scenario valid");
    direct.attach_journal(Box::new(capture.clone()));
    let report = direct.run();
    let events = capture.0.lock().unwrap().clone();
    let mut writer = JournalWriter::new(Vec::new());
    for rec in &events {
        writer.record(rec);
    }
    let jsonl = String::from_utf8(writer.finish().expect("in memory")).expect("journal is UTF-8");
    (report, events, jsonl)
}

#[test]
fn submitted_job_matches_direct_run_bit_for_bit() {
    let addr = start_server();
    let json = scenario_json();

    let (direct_report, direct_events, direct_jsonl) = direct_run(&json);
    let dt_s = scenario_file::parse(&json).expect("scenario parses").dt_s;
    assert!(!direct_events.is_empty(), "protected burn emits journal events");

    // Submit the identical JSON over the wire.
    let (status, head, body) = request(&addr, "POST", "/jobs", Some(&json));
    let body_text = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(status, 202, "{head}\n{body_text}");
    assert!(head.contains("Location: /jobs/"), "{head}");
    let id = json_field(&body_text, "id").expect("submit response carries the job id");

    // Tail the SSE stream to completion; it only returns once the final
    // `event: done` frame is sent, so no polling loop is needed.
    let (status, head, sse) = request(&addr, "GET", &format!("/jobs/{id}/events"), None);
    let sse = String::from_utf8_lossy(&sse).into_owned();
    assert_eq!(status, 200, "{head}");
    assert!(head.contains("Content-Type: text/event-stream"), "{head}");
    assert!(sse.contains("event: done"), "stream ends with the done frame:\n{sse}");

    // Stripping the SSE framing must reproduce the direct run's journal.
    let streamed: Vec<String> = sse
        .lines()
        .skip_while(|l| !l.starts_with("event: journal"))
        .take_while(|l| !l.starts_with("event: done"))
        .filter_map(|l| l.strip_prefix("data: ").map(str::to_string))
        .collect();
    assert_eq!(
        streamed.join("\n") + "\n",
        direct_jsonl,
        "SSE data payloads are the exact JSONL journal lines"
    );

    // The status document reports done with the direct run's digest.
    let (status, _, body) = request(&addr, "GET", &format!("/jobs/{id}"), None);
    assert_eq!(status, 200);
    let doc = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(json_field(&doc, "status").as_deref(), Some(JobStatus::Done.as_str()), "{doc}");
    assert_eq!(
        json_field(&doc, "digest").as_deref(),
        Some(report_digest(&direct_report).as_str()),
        "service report digest equals the direct run's"
    );
    assert!(doc.contains("\"report\":"), "finished status embeds the report: {doc}");

    // The JSONL download is byte-identical to the direct journal...
    let (status, _, jsonl) =
        request(&addr, "GET", &format!("/jobs/{id}/events?format=jsonl"), None);
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8_lossy(&jsonl), direct_jsonl, "jsonl download is byte-identical");

    // ...and so is the binary journal.
    let (status, _, bjl) = request(&addr, "GET", &format!("/jobs/{id}/events?format=bjl"), None);
    assert_eq!(status, 200);
    assert_eq!(bjl, records_to_bjl(&direct_events, dt_s), "bjl download is byte-identical");
}

#[test]
fn batched_event_stream_is_contiguous_and_complete() {
    // The full-length example emits the sink's lone first record, several
    // full 64-record batches and a partial tail, so every flush path
    // (first record, full batch, drop) reaches the stream.
    let json = scenario_json().replace("\"max_time_s\": 20.0", "\"max_time_s\": 180.0");
    let (_, direct_events, direct_jsonl) = direct_run(&json);
    assert!(direct_events.len() > 1 + 2 * 64, "{} events", direct_events.len());
    assert_ne!((direct_events.len() - 1) % 64, 0, "the run ends on a partial batch");

    let addr = start_server();
    let (status, _, body) = request(&addr, "POST", "/jobs", Some(&json));
    assert_eq!(status, 202);
    let id = json_field(&String::from_utf8_lossy(&body), "id").expect("job id");
    let (status, _, sse) = request(&addr, "GET", &format!("/jobs/{id}/events"), None);
    assert_eq!(status, 200);
    let sse = String::from_utf8(sse).expect("SSE is UTF-8");

    // Frames are separated by a blank line; keep-alive comments carry no
    // fields.
    let frames: Vec<&str> =
        sse.split("\n\n").filter(|f| !f.is_empty() && !f.starts_with(':')).collect();
    let (done, journal) = frames.split_last().expect("at least the done frame");
    assert!(done.starts_with("event: done\ndata: {"), "the done frame is last: {done}");
    assert_eq!(sse.matches("event: done").count(), 1, "exactly one done frame");
    assert_eq!(journal.len(), direct_events.len(), "one frame per journal record");

    let mut data = String::new();
    for (seq, frame) in journal.iter().enumerate() {
        let mut lines = frame.lines();
        assert_eq!(lines.next(), Some(format!("id: {seq}").as_str()), "ids are contiguous");
        assert_eq!(lines.next(), Some("event: journal"));
        data.push_str(lines.next().and_then(|l| l.strip_prefix("data: ")).expect("data line"));
        data.push('\n');
        assert_eq!(lines.next(), None, "one data line per journal frame");
    }
    for (got, want) in data.lines().zip(direct_jsonl.lines()) {
        assert_eq!(got, want, "SSE data lines equal the direct journal line for line");
    }
    assert_eq!(data, direct_jsonl);

    let (status, _, jsonl) =
        request(&addr, "GET", &format!("/jobs/{id}/events?format=jsonl"), None);
    assert_eq!(status, 200);
    assert_eq!(jsonl, direct_jsonl.as_bytes(), "jsonl download is byte-identical");
}

#[test]
fn rejections_are_named_and_slots_recycle() {
    let addr = start_server();

    // Unparseable body → 400 with the parse error in the detail.
    let (status, _, body) = request(&addr, "POST", "/jobs", Some("{not json"));
    assert_eq!(status, 400);
    assert!(!body.is_empty());

    // Valid JSON, invalid scenario → 400 naming the validation failure.
    let (status, _, body) =
        request(&addr, "POST", "/jobs", Some("{\"name\": \"bad\", \"nodes\": 0}"));
    let text = String::from_utf8_lossy(&body);
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("node"), "validation failure is named: {text}");

    // Hardware and rack values outside their physical range → 400 naming
    // the block, not an accepted job that later panics in its runner.
    let full = scenario_file::to_json(&scenario_file::parse(&scenario_json()).expect("valid"));
    let zero_capacity =
        full.replace("\"die_capacity_j_per_k\": 20.0", "\"die_capacity_j_per_k\": 0.0");
    let bad_rack = full.replace(
        "\"rack\": null",
        "\"rack\": {\"air_capacity_j_per_k\": 800.0, \"supply_air_c\": 18.0, \
         \"crac_conductance_w_per_k\": 10.0, \"recirculation_fraction\": 1.5}",
    );
    // An event ring too large to allocate → 400, not an aborted process.
    let big_ring = full.replace("\"event_capacity\": 256", "\"event_capacity\": 100000000000000");
    // `1e999` parses to infinity: a job that would panic mid-run, and one
    // that would hold its permits forever → 400.
    let infinite_airflow = full
        .replace("\"airflow_conductance_w_per_k\": 2.38", "\"airflow_conductance_w_per_k\": 1e999");
    let endless = full.replace("\"max_time_s\": 20.0", "\"max_time_s\": 1e999");
    let infinite_step = full.replace(
        "\"faults\": []",
        r#""faults": [[0, {"events": [[1.0, {"AmbientStep": 1e999}]]}]]"#,
    );
    // An infinite controller setting → 400, not a job whose tDVFS never fires.
    let infinite_threshold = full.replace("\"threshold_c\": 51.0", "\"threshold_c\": 1e999");
    for (body, named) in [
        (zero_capacity, "die capacity"),
        (bad_rack, "recirculation fraction"),
        (big_ring, "event_capacity"),
        (infinite_airflow, "airflow conductance must be finite"),
        (endless, "time limit must be finite"),
        (infinite_step, "ambient step must be finite"),
        (infinite_threshold, "threshold_c must be finite"),
    ] {
        assert_ne!(body, full, "the mutation must hit the scenario");
        let (status, _, reply) = request(&addr, "POST", "/jobs", Some(&body));
        let text = String::from_utf8_lossy(&reply);
        assert_eq!(status, 400, "{text}");
        assert!(text.contains(named), "validation failure is named: {text}");
    }

    // Unknown job → 404.
    let (status, _, _) = request(&addr, "GET", "/jobs/999", None);
    assert_eq!(status, 404);

    // Health and metrics respond even with no jobs.
    let (status, _, body) = request(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n");
    let (status, _, body) = request(&addr, "GET", "/metrics", None);
    let text = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(status, 200);
    assert!(text.contains("unitherm_serve_jobs_submitted_total 0"), "{text}");
    assert!(text.contains("unitherm_samples_total"), "simulator counters present: {text}");
}

#[test]
fn tenant_quota_rejects_with_429_and_metrics_count_it() {
    // One-slot-per-tenant queue with a single runner; jobs are effectively
    // unbounded (huge max_time_s) so both stay open for the whole test —
    // slot recycling after completion is covered by the queue unit tests.
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_threads: 1,
        queue: QueueConfig { capacity: 2, tenant_quota: 1 },
        limits: Limits::default(),
    };
    let server = Server::bind(&cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        let _ = server.run();
    });

    let json = scenario_json()
        .replace("\"max_time_s\": 20.0", "\"max_time_s\": 1000000000.0")
        .replace("\"record_series\": true", "\"record_series\": false");
    let (status, _, _) = request(&addr, "POST", "/jobs?tenant=acme", Some(&json));
    assert_eq!(status, 202);
    // Same tenant again while the first job is open → 429.
    let (status, _, body) = request(&addr, "POST", "/jobs?tenant=acme", Some(&json));
    let text = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(status, 429, "{text}");
    assert!(text.contains("acme"), "rejection names the tenant: {text}");
    // A different tenant still fits.
    let (status, _, _) = request(&addr, "POST", "/jobs?tenant=zeta", Some(&json));
    assert_eq!(status, 202);
    // Queue now holds 2 open jobs → a third tenant sees 503 + Retry-After.
    let (status, head, _) = request(&addr, "POST", "/jobs?tenant=late", Some(&json));
    assert_eq!(status, 503, "{head}");
    assert!(head.contains("Retry-After"), "{head}");

    let (status, _, body) = request(&addr, "GET", "/metrics", None);
    let text = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(status, 200);
    assert!(text.contains("unitherm_serve_jobs_submitted_total 2"), "{text}");
    assert!(text.contains("unitherm_serve_jobs_rejected_total 2"), "{text}");
    assert!(text.contains("unitherm_serve_thread_permits_total 1"), "{text}");
}

#[test]
fn an_unallocatable_window_is_a_400_and_the_server_keeps_serving() {
    let addr = start_server();
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/scenarios/hybrid_burn.json"),
    )
    .expect("committed example scenario exists");
    let json = text.replace("\"max_time_s\": 300.0", "\"max_time_s\": 20.0");

    // A level-one window of 2^32 entries used to abort the whole process
    // on allocation in `TwoLevelWindow::new`, taking every job with it.
    let huge = json.replace("\"l1_len\": 4,", "\"l1_len\": 4294967296,");
    assert_ne!(huge, json, "the mutation must hit the scenario");
    let (status, _, reply) = request(&addr, "POST", "/jobs", Some(&huge));
    let reply = String::from_utf8_lossy(&reply).into_owned();
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("l1_len"), "validation failure names the field: {reply}");

    // The next job is accepted and runs to its done frame.
    let (status, _, body) = request(&addr, "POST", "/jobs", Some(&json));
    let body = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(status, 202, "{body}");
    let id = json_field(&body, "id").expect("submit response carries the job id");
    let (status, _, sse) = request(&addr, "GET", &format!("/jobs/{id}/events"), None);
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&sse).contains("event: done"), "the job completed");
    let (_, _, doc) = request(&addr, "GET", &format!("/jobs/{id}"), None);
    let doc = String::from_utf8_lossy(&doc).into_owned();
    assert_eq!(json_field(&doc, "status").as_deref(), Some(JobStatus::Done.as_str()), "{doc}");
}

#[test]
fn an_empty_script_workload_is_a_400_and_the_next_job_completes() {
    let addr = start_server();
    let json = scenario_json();

    // An empty script used to pass validation, be admitted, and then panic
    // while the job built its workloads.
    let empty = json.replacen("\"workload\": \"CpuBurn\"", "\"workload\": {\"Script\": []}", 1);
    assert_ne!(empty, json, "the mutation must hit the scenario");
    let (status, _, reply) = request(&addr, "POST", "/jobs", Some(&empty));
    let reply = String::from_utf8_lossy(&reply).into_owned();
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("workload: script must not be empty"), "names the field: {reply}");

    // The next job is accepted and runs to its done frame.
    let (status, _, body) = request(&addr, "POST", "/jobs", Some(&json));
    let body = String::from_utf8_lossy(&body).into_owned();
    assert_eq!(status, 202, "{body}");
    let id = json_field(&body, "id").expect("submit response carries the job id");
    let (status, _, sse) = request(&addr, "GET", &format!("/jobs/{id}/events"), None);
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&sse).contains("event: done"), "the job completed");
    let (_, _, doc) = request(&addr, "GET", &format!("/jobs/{id}"), None);
    let doc = String::from_utf8_lossy(&doc).into_owned();
    assert_eq!(json_field(&doc, "status").as_deref(), Some(JobStatus::Done.as_str()), "{doc}");
}

#[test]
fn an_unphysical_plant_constant_is_a_400_and_the_next_job_completes() {
    let addr = start_server();
    let json = scenario_json();

    // Each used to pass validation and then panic: a top P-state at 0 V
    // while building the first node (the power law's 0/0 reached the
    // sensor), a PSU efficiency of 1e-320 at the first recorded sample
    // (wall power became infinite).
    let cases = [
        ("\"voltage_v\": 1.5", "\"voltage_v\": 0.0", "P-state voltage"),
        ("\"psu_efficiency\": 0.85", "\"psu_efficiency\": 1e-320", "PSU efficiency"),
    ];
    for (from, to, field) in cases {
        let bad = json.replacen(from, to, 1);
        assert_ne!(bad, json, "the mutation must hit the scenario: {to}");
        let (status, _, reply) = request(&addr, "POST", "/jobs", Some(&bad));
        let reply = String::from_utf8_lossy(&reply).into_owned();
        assert_eq!(status, 400, "{to}: {reply}");
        assert!(reply.contains(field), "validation failure names the field: {reply}");

        // The next job is accepted and runs to its done frame.
        let (status, _, body) = request(&addr, "POST", "/jobs", Some(&json));
        let body = String::from_utf8_lossy(&body).into_owned();
        assert_eq!(status, 202, "{body}");
        let id = json_field(&body, "id").expect("submit response carries the job id");
        let (status, _, sse) = request(&addr, "GET", &format!("/jobs/{id}/events"), None);
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&sse).contains("event: done"), "the job completed");
        let (_, _, doc) = request(&addr, "GET", &format!("/jobs/{id}"), None);
        let doc = String::from_utf8_lossy(&doc).into_owned();
        assert_eq!(json_field(&doc, "status").as_deref(), Some(JobStatus::Done.as_str()), "{doc}");
    }
}

/// `unitherm_serve_connection_threads_started_total` from `/metrics`.
fn handler_threads_started(addr: &str) -> u64 {
    let (status, _, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let text = String::from_utf8_lossy(&body).into_owned();
    text.lines()
        .find_map(|l| l.strip_prefix("unitherm_serve_connection_threads_started_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("/metrics lists the handler-thread counter: {text}"))
}

#[test]
fn sequential_requests_reuse_handler_threads() {
    let addr = start_server();
    let json = scenario_json();
    let (status, _, body) = request(&addr, "POST", "/jobs", Some(&json));
    assert_eq!(status, 202);
    let id = json_field(&String::from_utf8_lossy(&body), "id").expect("job id");
    let paths = [
        format!("/jobs/{id}/events"),
        format!("/jobs/{id}"),
        format!("/jobs/{id}/events?format=bjl"),
        "/jobs".to_string(),
        "/healthz".to_string(),
        "/nowhere".to_string(),
        "/metrics".to_string(),
    ];
    for path in &paths {
        let (status, _, _) = request(&addr, "GET", path, None);
        assert!(status == 200 || status == 404, "{path}: {status}");
    }
    // Every request waited for the one before it, so a handler that had
    // answered was free for the next; one more may start while the first
    // is still closing its connection.
    let started = handler_threads_started(&addr);
    let requests = paths.len() + 2;
    assert!((1..=2).contains(&started), "{requests} requests started {started} handler threads");
}

#[test]
fn a_request_is_answered_at_once_while_an_sse_stream_holds_the_only_handler() {
    let addr = start_server();
    // A job that runs for the rest of the process, so its stream never
    // ends on its own.
    let json = scenario_json()
        .replace("\"max_time_s\": 20.0", "\"max_time_s\": 1000000000.0")
        .replace("\"record_series\": true", "\"record_series\": false");
    let (status, _, body) = request(&addr, "POST", "/jobs", Some(&json));
    assert_eq!(status, 202);
    let id = json_field(&String::from_utf8_lossy(&body), "id").expect("job id");

    // The POST's handler, now free, takes the stream; once the stream's
    // head is read, that handler is inside the stream loop for good.
    let mut sse = TcpStream::connect(&addr).expect("connect");
    write!(sse, "GET /jobs/{id}/events HTTP/1.1\r\nHost: {addr}\r\n\r\n").expect("send");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        sse.read_exact(&mut byte).expect("stream head");
        head.push(byte[0]);
    }
    assert!(head.starts_with(b"HTTP/1.1 200 OK\r\n"), "{}", String::from_utf8_lossy(&head));

    // Answered by a new handler, not queued behind the endless stream
    // (which would hit the read timeout and fail the request).
    let mut probe = TcpStream::connect(&addr).expect("connect");
    probe.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("timeout");
    write!(probe, "GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").expect("send");
    let mut reply = Vec::new();
    probe.read_to_end(&mut reply).expect("healthz is answered while the stream is open");
    assert!(reply.starts_with(b"HTTP/1.1 200 OK\r\n"), "{}", String::from_utf8_lossy(&reply));
    assert!(reply.ends_with(b"\r\n\r\nok\n"));

    // One thread for the POST and the stream, one for the probe, which is
    // free again for the metrics request.
    assert_eq!(handler_threads_started(&addr), 2);
    drop(sse);
}
