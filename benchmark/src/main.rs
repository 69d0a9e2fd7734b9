//! Command-line entry point of the end-to-end benchmark; see the crate
//! docs for the workloads and metrics.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde::Value;
use unitherm_benchmark::measure::{Comparison, Summary};
use unitherm_benchmark::{
    alloc, bench_threads, per_layer, probes, Config, Workload, END_TO_END, SETUP_RUNS,
};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: unitherm-benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--out PATH]\n       workloads: paper-suite fleet-10k \
                     sweep-mixed serve-loopback (default: all four)";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    /// Internal: time one fresh-process first result and print it.
    first_result: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        out: None,
        first_result: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads
                    .push(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--first-result" => args.first_result = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    summary: Option<Summary>,
}

/// Everything one workload run reports.
struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<(&'static str, f64, &'static str)>,
    digests: Vec<(String, String)>,
    /// The untraced arm's operation latencies, in completion order.
    latency_ms: Vec<f64>,
    /// The gauge timings of the run, in order.
    gauge_ms: Vec<f64>,
}

/// Runs `count` fresh processes to their first result; returns each one's
/// time in seconds and peak live heap in MB, and the failure messages.
fn setup_runs(workload: Workload, seed: u64, count: usize) -> (Vec<(f64, f64)>, Vec<String>) {
    let (mut runs, mut errors) = (Vec::new(), Vec::new());
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return (runs, vec![format!("locate the benchmark binary: {e}")]),
    };
    for _ in 0..count {
        let output = Command::new(&exe)
            .args(["--first-result", "--workload", workload.name(), "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let parsed = output.map_err(|e| e.to_string()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let line = text.lines().last().unwrap_or_default();
            let doc = serde_json::parse_value(line).ok();
            let field = |name: &str| doc.as_ref().and_then(|v| v.get(name)?.as_f64());
            match (field("setup_s"), field("peak_heap_bytes")) {
                (Some(s), Some(heap)) if o.status.success() => Ok((s, heap / 1e6)),
                _ => Err(format!("first-result process exited {} with {line:?}", o.status)),
            }
        });
        match parsed {
            Ok(run) => runs.push(run),
            Err(e) => errors.push(format!("setup: {e}")),
        }
    }
    (runs, errors)
}

fn run_workload(workload: Workload, args: &Args, threads: usize) -> Report {
    let cfg = Config { seed: args.seed, seconds: args.seconds, threads, trace: args.trace };
    eprintln!(
        "== {} (seed {}, {} s, {threads} thread(s), trace {}) ==",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    // Half the set-up processes run before the timed part and half after
    // it, so the median spans the run instead of the few seconds in which
    // a shared host may happen to be slow.
    let setups = if cfg.trace { 0 } else { SETUP_RUNS };
    let (mut setup, mut setup_errors) = setup_runs(workload, cfg.seed, setups.div_ceil(2));
    let mut run = workload.run(&cfg);
    let (after, after_errors) = setup_runs(workload, cfg.seed, setups / 2);
    setup.extend(after);
    setup_errors.extend(after_errors);
    run.outcome.attempted += setups as u64;
    for e in setup_errors {
        run.outcome.fail(e);
    }

    let mut metrics = Vec::new();
    if cfg.trace {
        let latencies = &run.outcome.latency_ms;
        if let Some(c) = Comparison::of(&latencies[0], &latencies[1]) {
            metrics.push(Metric {
                name: "trace_overhead_pct".into(),
                value: c.delta_pct,
                unit: "%",
                summary: Some(c.other),
            });
            run.notes.push(("trace_noise_floor_pct", c.noise_floor_pct, "%"));
        }
        let t0 = Instant::now();
        for m in probes::run_all(cfg.seed, threads, &mut run.outcome) {
            metrics.push(Metric { name: m.name, value: m.value, unit: m.unit, summary: None });
        }
        eprintln!("probes took {:.1} s", t0.elapsed().as_secs_f64());
        run.outcome.attempted += 1;
        if metrics.iter().map(|m| (m.name.clone(), m.unit)).ne(per_layer()) {
            run.outcome.fail("the per-layer metrics differ from the declared list".into());
        }
        if let Some(trace) = &run.trace {
            let path = format!(".bench_trace/{}-seed{}.json", workload.name(), cfg.seed);
            let written = std::fs::create_dir_all(".bench_trace").and_then(|()| {
                std::fs::write(&path, serde_json::to_string(&trace.to_value()).unwrap_or_default())
            });
            match written {
                Ok(()) => eprintln!("spans written to {path}"),
                Err(e) => eprintln!("warning: cannot write {path}: {e}"),
            }
        }
    } else if let (Some(s), Some(typical), Some(relative), Some(gauge)) = (
        run.latency_summary(),
        run.outcome.typical_ms(0),
        run.outcome.relative(0),
        Summary::of(&run.outcome.gauge_ms),
    ) {
        let heap = Summary::of(&setup.iter().map(|r| r.1).collect::<Vec<_>>());
        let setup = Summary::of(&setup.iter().map(|r| r.0).collect::<Vec<_>>());
        if let (Some(heap), Some(setup)) = (heap, setup) {
            let values = [(relative, None), (setup.median, Some(setup))];
            for (def, (value, summary)) in END_TO_END.iter().zip(values) {
                metrics.push(Metric { name: def.name.into(), value, unit: def.unit, summary });
            }
            run.notes.push(("setup_peak_heap_mb", heap.median, "MB"));
        }
        run.notes.extend([
            ("latency_ms", typical, "ms"),
            ("gauge_ms", gauge.median, "ms"),
            ("latency_p50_ms", s.median, "ms"),
            ("latency_p90_ms", s.p90, "ms"),
            ("latency_p99_ms", s.p99, "ms"),
            ("ops_per_s", s.n as f64 / run.outcome.wall_s, "1/s"),
        ]);
    }
    Report {
        workload,
        attempted: run.outcome.attempted,
        failed: run.outcome.failed,
        failures: run.outcome.failures,
        metrics,
        notes: run.notes,
        digests: run.digests,
        latency_ms: run.outcome.latency_ms.into_iter().next().unwrap_or_default(),
        gauge_ms: run.outcome.gauge_ms,
    }
}

fn print_report(r: &Report) {
    let name = r.workload.name();
    for m in &r.metrics {
        let detail = m.summary.map_or(String::new(), |s| {
            format!(
                "  (p05 {:.4}, median {:.4}, q1 {:.4}, q3 {:.4}, n {})",
                s.p05, s.median, s.q1, s.q3, s.n
            )
        });
        eprintln!("{name:<15} {:<34} {:>14.4} {}{detail}", m.name, m.value, m.unit);
    }
    for (note, value, unit) in &r.notes {
        eprintln!("{name:<15} {note:<34} {value:>14.4} {unit}");
    }
    for (what, digest) in &r.digests {
        eprintln!("{name:<15} digest {what:<27} {digest}");
    }
    eprintln!("{name:<15} {} attempted, {} failed", r.attempted, r.failed);
    for f in &r.failures {
        eprintln!("{name:<15} FAILED: {f}");
    }
}

fn num(v: f64) -> Value {
    Value::F64(v)
}

fn full_report(args: &Args, threads: usize, reports: &[Report]) -> Value {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads = reports
        .iter()
        .map(|r| {
            let metrics = r
                .metrics
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        ("value".into(), num(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ];
                    if let Some(s) = m.summary {
                        fields.extend([
                            ("p05".into(), num(s.p05)),
                            ("median".into(), num(s.median)),
                            ("q1".into(), num(s.q1)),
                            ("q3".into(), num(s.q3)),
                            ("p99".into(), num(s.p99)),
                            ("min".into(), num(s.min)),
                            ("n".into(), Value::U64(s.n as u64)),
                        ]);
                    }
                    (m.name.clone(), Value::Map(fields))
                })
                .collect();
            let notes = r.notes.iter().map(|(n, v, _)| (n.to_string(), num(*v))).collect();
            let digests =
                r.digests.iter().map(|(n, d)| (n.clone(), Value::Str(d.clone()))).collect();
            Value::Map(vec![
                ("name".into(), Value::Str(r.workload.name().into())),
                ("why".into(), Value::Str(r.workload.why().into())),
                ("attempted".into(), Value::U64(r.attempted)),
                ("failed".into(), Value::U64(r.failed)),
                (
                    "failures".into(),
                    Value::Seq(r.failures.iter().cloned().map(Value::Str).collect()),
                ),
                ("metrics".into(), Value::Map(metrics)),
                ("notes".into(), Value::Map(notes)),
                ("digests".into(), Value::Map(digests)),
                (
                    "latency_samples_ms".into(),
                    Value::Seq(r.latency_ms.iter().map(|&v| num(v)).collect()),
                ),
                (
                    "gauge_samples_ms".into(),
                    Value::Seq(r.gauge_ms.iter().map(|&v| num(v)).collect()),
                ),
            ])
        })
        .collect();
    Value::Map(vec![
        ("schema".into(), Value::Str("unitherm-benchmark/v1".into())),
        ("host_cores".into(), Value::U64(host_cores as u64)),
        ("threads".into(), Value::U64(threads as u64)),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("workloads".into(), Value::Seq(workloads)),
    ])
}

/// The result line: one workload's metrics by name, or every workload's
/// prefixed with its name.
fn result_line(reports: &[Report]) -> Value {
    let prefix = reports.len() > 1;
    let metrics = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}:{}", r.workload.name(), m.name)
                } else {
                    m.name.clone()
                };
                (
                    name,
                    Value::Map(vec![
                        ("value".into(), num(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
        })
        .collect();
    let attempted = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ])
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = bench_threads();
    if args.first_result {
        alloc::enable();
        let Some(&workload) = args.workloads.first() else { return ExitCode::from(2) };
        return match workload.first_result(args.seed, threads) {
            Ok(()) => {
                let secs = start.elapsed().as_secs_f64();
                println!("{{\"setup_s\":{secs},\"peak_heap_bytes\":{}}}", alloc::peak_bytes());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("first result failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.trace {
        alloc::enable();
    }
    eprintln!(
        "host cores {}, benchmark threads {threads}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let reports: Vec<Report> =
        args.workloads.iter().map(|&w| run_workload(w, &args, threads)).collect();
    for r in &reports {
        print_report(r);
    }
    if let Some(path) = &args.out {
        let json = serde_json::to_string_pretty(&full_report(&args, threads, &reports))
            .unwrap_or_default();
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let line = result_line(&reports);
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    if reports.iter().all(|r| r.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
