//! `serve-loopback`: an in-process `unitherm-serve` on a loopback port,
//! with the benchmark's thread budget, and one closed-loop client. Each job
//! is `POST /jobs`, then the SSE stream tailed to its `event: done` frame,
//! then the journal downloaded as `?format=bjl`.
//!
//! After the timed part every job is checked against a direct in-process
//! run of the same scenario document: the report digest in the `done`
//! frame, the SSE `data:` lines (byte-identical to the run's JSONL journal)
//! and the bjl download.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::rc::Rc;
use std::time::Instant;

use unitherm_cluster::{report_digest, Simulation};
use unitherm_experiments::scenario_file;
use unitherm_obs::{records_to_bjl, EventRecord, EventSink, JournalWriter};
use unitherm_serve::{Limits, QueueConfig, ServeConfig, Server};

use crate::gen::{fnv1a64, fnv1a64_extend, serve_jobs};
use crate::measure::{closed_loop, ms, Gauge, LoopOutcome, Summary};
use crate::trace::Trace;
use crate::{Config, WorkloadRun};

/// Service load dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Distinct job documents; the client cycles through them.
    pub distinct_jobs: usize,
    /// Untimed jobs before the timed part.
    pub warmup_jobs: usize,
}

impl Size {
    /// The benchmark's load.
    pub const FULL: Size = Size { distinct_jobs: 64, warmup_jobs: 2 };
}

/// What one job looked like from the client.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Index into the job list.
    pub job: usize,
    /// `POST` written → `202` read, ms.
    pub admit_ms: f64,
    /// `POST` written → first `event: journal` frame read (the `done` frame
    /// for a job without events), ms.
    pub first_event_ms: f64,
    /// `POST` written → `done` frame read, ms: the job's latency.
    pub done_ms: f64,
    /// SSE request written → `done` frame read, ms.
    pub stream_ms: f64,
    /// bjl download request written → body read, ms.
    pub download_ms: f64,
    /// Report digest from the `done` frame.
    pub digest: String,
    /// FNV-1a over the SSE `data:` payloads, one line each.
    pub sse_hash: u64,
    /// FNV-1a over the bjl download.
    pub bjl_hash: u64,
}

/// A direct in-process run of one job document.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `report_digest` of the run.
    pub digest: String,
    /// FNV-1a over the run's JSONL journal.
    pub jsonl_hash: u64,
    /// FNV-1a over the run's bjl journal.
    pub bjl_hash: u64,
    /// Journal events.
    pub events: usize,
    /// Host time of `Simulation::run`, ms.
    pub run_ms: f64,
}

/// A journal sink that hands its records to whoever holds the other `Rc`.
pub(crate) struct Capture(pub(crate) Rc<RefCell<Vec<EventRecord>>>);

impl EventSink for Capture {
    fn record(&mut self, rec: &EventRecord) {
        self.0.borrow_mut().push(*rec);
    }
}

/// Runs one job document directly: parse, run with a capturing journal
/// sink, encode the journal both ways.
pub fn reference(json: &str) -> Result<Reference, String> {
    let scenario = scenario_file::parse(json).map_err(|e| e.to_string())?;
    let dt_s = scenario.dt_s;
    let mut sim = Simulation::try_new(scenario).map_err(|e| e.to_string())?;
    let records = Rc::new(RefCell::new(Vec::new()));
    sim.attach_journal(Box::new(Capture(Rc::clone(&records))));
    let t0 = Instant::now();
    let report = sim.run();
    let run_ms = ms(t0.elapsed());
    let records = records.take();
    let mut writer = JournalWriter::new(Vec::new());
    for rec in &records {
        writer.record(rec);
    }
    let jsonl = writer.finish().map_err(|e| format!("in-memory journal: {e}"))?;
    Ok(Reference {
        digest: report_digest(&report),
        jsonl_hash: fnv1a64(&jsonl),
        bjl_hash: fnv1a64(&records_to_bjl(&records, dt_s)),
        events: records.len(),
        run_ms,
    })
}

/// Binds a server on an ephemeral loopback port with a `threads`-thread
/// simulation budget and serves it from a background thread; returns its
/// address. The server has no shutdown: its threads end with the process.
pub fn start_server(threads: usize) -> Result<String, String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_threads: threads,
        queue: QueueConfig { capacity: 16, tenant_quota: 8 },
        limits: Limits::default(),
    };
    let server = Server::bind(&cfg).map_err(|e| format!("bind loopback server: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("server address: {e}"))?.to_string();
    std::thread::Builder::new()
        .name("bench-serve".into())
        .spawn(move || {
            let _ = server.run();
        })
        .map_err(|e| format!("spawn server thread: {e}"))?;
    Ok(addr)
}

fn send(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if !body.is_empty() {
        request.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    request.push_str("\r\n");
    stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("{method} {path}: {e}"))?;
    Ok(stream)
}

/// Reads a whole response (the server closes every connection) and
/// returns its body, failing on a non-2xx status.
fn read_response(mut stream: TcpStream, what: &str) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).map_err(|e| format!("{what}: {e}"))?;
    let split = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{what}: response without a header end"))?;
    let status = status_code(&String::from_utf8_lossy(&bytes[..split]));
    if !(200..300).contains(&status) {
        return Err(format!(
            "{what}: status {status}: {}",
            String::from_utf8_lossy(&bytes[split + 4..])
        ));
    }
    Ok(bytes.split_off(split + 4))
}

fn status_code(head: &str) -> u16 {
    head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// The value of a scalar field of a flat JSON object prefix.
fn json_field<'a>(doc: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\":");
    let rest = &doc[doc.find(&needle)? + needle.len()..];
    match rest.strip_prefix('"') {
        Some(quoted) => Some(&quoted[..quoted.find('"')?]),
        None => Some(rest[..rest.find([',', '}'])?].trim()),
    }
}

/// Tails a job's SSE stream to its `done` frame. Returns the time of the
/// first journal frame and of the `done` frame (from `t0`), the hash of
/// the journal payloads, and the `done` payload.
fn tail_sse(addr: &str, id: &str, t0: Instant) -> Result<(f64, f64, u64, String), String> {
    let what = format!("GET /jobs/{id}/events");
    let mut reader = BufReader::new(send(addr, "GET", &format!("/jobs/{id}/events"), b"")?);
    let mut line = String::new();
    let read = |reader: &mut BufReader<TcpStream>, line: &mut String| -> Result<bool, String> {
        line.clear();
        let n = reader.read_line(line).map_err(|e| format!("{what}: {e}"))?;
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(n > 0)
    };
    if !read(&mut reader, &mut line)? || status_code(&line) != 200 {
        return Err(format!("{what}: status line {line:?}"));
    }
    while read(&mut reader, &mut line)? && !line.is_empty() {}
    let (mut event, mut first, mut hash) = (String::new(), None, 0xcbf2_9ce4_8422_2325);
    while read(&mut reader, &mut line)? {
        if let Some(name) = line.strip_prefix("event: ") {
            event = name.to_string();
            if event == "journal" && first.is_none() {
                first = Some(ms(t0.elapsed()));
            }
        } else if let Some(data) = line.strip_prefix("data: ") {
            if event == "done" {
                let done = ms(t0.elapsed());
                return Ok((first.unwrap_or(done), done, hash, data.to_string()));
            }
            hash = fnv1a64_extend(fnv1a64_extend(hash, data.as_bytes()), b"\n");
        }
    }
    Err(format!("{what}: stream ended before the done frame"))
}

/// Runs one job through the service: submit, tail, download. With a trace,
/// the job and its three requests are spans.
pub fn run_job(
    addr: &str,
    job: usize,
    body: &str,
    mut trace: Option<&mut Trace>,
) -> Result<JobResult, String> {
    let span = trace.as_mut().map(|t| t.begin(format!("job:{job}"), None));
    let child =
        |trace: &mut Option<&mut Trace>, name: &str| trace.as_mut().map(|t| t.begin(name, span));
    let close = |trace: &mut Option<&mut Trace>, id: Option<u32>| {
        if let (Some(t), Some(id)) = (trace.as_mut(), id) {
            t.end(id);
        }
    };

    let post = child(&mut trace, "post");
    let t0 = Instant::now();
    let accepted = read_response(send(addr, "POST", "/jobs", body.as_bytes())?, "POST /jobs")?;
    let admit_ms = ms(t0.elapsed());
    close(&mut trace, post);
    let accepted = String::from_utf8_lossy(&accepted);
    let id =
        json_field(&accepted, "id").ok_or_else(|| format!("POST /jobs answered {accepted}"))?;

    let stream = child(&mut trace, "stream");
    let stream_t0 = Instant::now();
    let (first_event_ms, done_ms, sse_hash, done) = tail_sse(addr, id, t0)?;
    let stream_ms = ms(stream_t0.elapsed());
    close(&mut trace, stream);
    if json_field(&done, "status") != Some("done") {
        return Err(format!("job {id} ended {:?}", json_field(&done, "status")));
    }
    let digest = json_field(&done, "digest")
        .ok_or_else(|| format!("job {id}: done frame without a digest"))?;

    let download = child(&mut trace, "download");
    let dl_t0 = Instant::now();
    let path = format!("/jobs/{id}/events?format=bjl");
    let bjl = read_response(send(addr, "GET", &path, b"")?, &path)?;
    let download_ms = ms(dl_t0.elapsed());
    close(&mut trace, download);
    close(&mut trace, span);

    Ok(JobResult {
        job,
        admit_ms,
        first_event_ms,
        done_ms,
        stream_ms,
        download_ms,
        digest: digest.to_string(),
        sse_hash,
        bjl_hash: fnv1a64(&bjl),
    })
}

/// Checks every job against a direct run of its document (computed once
/// per distinct document, on `threads` threads). Returns the references.
pub fn verify(
    jobs: &[String],
    results: &[JobResult],
    threads: usize,
    outcome: &mut LoopOutcome,
) -> BTreeMap<usize, Reference> {
    let mut used: Vec<usize> = results.iter().map(|r| r.job).collect();
    used.sort_unstable();
    used.dedup();
    let chunks: Vec<Vec<(usize, Result<Reference, String>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|w| {
                let used = &used;
                s.spawn(move || {
                    used.iter()
                        .skip(w)
                        .step_by(threads.max(1))
                        .map(|&j| (j, reference(&jobs[j])))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reference runs do not panic")).collect()
    });
    let mut refs = BTreeMap::new();
    for (j, r) in chunks.into_iter().flatten() {
        match r {
            Ok(r) => {
                refs.insert(j, r);
            }
            Err(e) => outcome.fail(format!("job {j}: direct run: {e}")),
        }
    }
    for r in results {
        let Some(want) = refs.get(&r.job) else { continue };
        if r.digest != want.digest {
            outcome.fail(format!(
                "job {}: digest {} but the direct run gives {}",
                r.job, r.digest, want.digest
            ));
        } else if r.sse_hash != want.jsonl_hash {
            outcome
                .fail(format!("job {}: SSE data lines differ from the direct run's JSONL", r.job));
        } else if r.bjl_hash != want.bjl_hash {
            outcome
                .fail(format!("job {}: bjl download differs from the direct run's journal", r.job));
        }
    }
    refs
}

/// The time to the service's first result: bind, then one job end to end.
pub fn first_result(seed: u64, size: Size, threads: usize) -> Result<(), String> {
    let jobs = serve_jobs(seed, size.distinct_jobs);
    let addr = start_server(threads)?;
    run_job(&addr, 0, &jobs[0], None).map(drop)
}

/// Runs the workload: start the server, warm up, run the client's closed
/// loop until the budget is spent, verify every job.
pub fn run(cfg: &Config, size: Size) -> WorkloadRun {
    let mut run = WorkloadRun::new(cfg);
    let jobs = serve_jobs(cfg.seed, size.distinct_jobs);
    let addr = match start_server(cfg.threads) {
        Ok(addr) => addr,
        Err(e) => {
            run.outcome.attempted += 1;
            run.outcome.fail(e);
            return run;
        }
    };
    let mut all = Vec::new();
    for (job, body) in jobs.iter().enumerate().take(size.warmup_jobs) {
        run.outcome.attempted += 1;
        match run_job(&addr, job, body, None) {
            Ok(r) => all.push(r),
            Err(e) => run.outcome.fail(e),
        }
    }

    let warmed = all.len();
    let mut next = size.warmup_jobs;
    let mut trace = run.trace.take();
    let outcome = closed_loop(cfg.seconds, cfg.arms(), &mut Gauge::new(cfg.threads), |arm| {
        let job = next % jobs.len();
        next += 1;
        let traced = if arm == 1 { trace.as_mut() } else { None };
        let r = run_job(&addr, job, &jobs[job], traced)?;
        let latency = (job, r.done_ms);
        all.push(r);
        Ok(latency)
    });
    run.trace = trace;
    run.outcome.merge(outcome);
    let timed = &all[warmed..];
    let refs = verify(&jobs, &all, cfg.threads, &mut run.outcome);
    let digests: Vec<&str> = refs.values().map(|r| r.digest.as_str()).collect();
    run.digests
        .push(("jobs".into(), format!("fnv1a64:{:016x}", fnv1a64(digests.concat().as_bytes()))));

    for (name, pick) in [
        ("admit_p50_ms", (|r: &JobResult| r.admit_ms) as fn(&JobResult) -> f64),
        ("first_event_p50_ms", |r| r.first_event_ms),
    ] {
        let samples: Vec<f64> = timed.iter().map(pick).collect();
        if let Some(s) = Summary::of(&samples) {
            run.notes.push((name, s.median, "ms"));
        }
    }
    run
}
