//! The unitherm end-to-end benchmark: four seeded, closed-loop workloads
//! that time what a user of the repository waits on, and a traced run that
//! splits the time by layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! ```
//!
//! Every workload uses `W = min(2, available_parallelism)` benchmark
//! threads, all from this one process; the service workload has one
//! client, so one connection open at a time. Warm-up is untimed. Each run
//! measures for `--seconds`, checks every output, prints each metric by
//! name and unit on stderr, and ends its stdout with one JSON line:
//! `correct`, `attempted`, `failed` and `metrics`. `--out` also writes a
//! full report with quartiles, sample counts, digests, every latency and
//! gauge sample and the host core count. Without `--workload` all four run
//! in turn.
//!
//! # Workloads
//!
//! | name | operation | why |
//! |---|---|---|
//! | `paper-suite` | one pass of the 18 `repro all` experiments at `Scale::Full`, in a seeded order | what a reproducer waits on: small recorded clusters, so sampling, recorders and reports dominate |
//! | `fleet-10k` | one sample period (5 ticks) of a 10,000-node cpu-burn fleet, recording off, on `W` threads | the lanes and the pool do the work on a working set far above the caches, with no journal or HTTP |
//! | `sweep-mixed` | one `try_run_scenarios_parallel` sweep on `W` workers of 48 scenarios: 4–32 nodes, cpu-burn and NPB class A, four schemes, recording on, a quarter faulted, a third in a rack | faulted and CPUSPEED nodes take the scalar path and NPB barriers load the workload layer, unlike the fleet |
//! | `serve-loopback` | one job from the client to a server with a `W`-thread budget: `POST`, SSE to the `done` frame, bjl download; 4–16 nodes, 60–120 simulated s, half asking for two intra-run threads | the service path: HTTP, queue, permits, journal tee, SSE and bjl; the only workload where journals matter |
//!
//! The seed makes the inputs ([`gen`]); the program sees only them. Each
//! generator draws from a fixed multiset of shapes, so every seed asks for
//! about the same work.
//!
//! These count as failed operations: a shape violation or a rendering that
//! changes between passes; a sweep job error or a report digest that
//! differs from a serial run of the list; a fleet report that differs
//! between 1 and `W` threads or a node that shuts down; a non-2xx response,
//! or a job whose digest, SSE `data:` lines or bjl download differ from a
//! direct in-process run of its document.
//!
//! # End-to-end metrics
//!
//! Measured with tracing off; every workload reports both. Times are
//! host time. The bound is the share of the parent's median by which a
//! metric may worsen before a change counts as a regression.
//!
//! | metric | unit | better | bound | what |
//! |---|---|---|---|---|
//! | `latency_rel` | ratio | lower | 0.25 | operation latency in units of the [`measure::Gauge`]: each operation's time divided by the median gauge timing around it, the median of that per distinct input, averaged over the inputs |
//! | `setup_s` | s | lower | 0.25 | time to first result in a fresh process (build the inputs and state, run one operation), median of ten processes, five started before the timed part and five after it |
//!
//! Why a ratio and not milliseconds: on a shared two-vCPU host the same
//! code's median latency moves by 10–35 % between runs a few minutes
//! apart, because the neighbours' load comes and goes and at times the
//! second vCPU gives no parallel speed at all. The gauge is a fixed
//! computation, independent of the program, timed on the same `W` threads
//! every quarter second between operations, so it slows down with the host
//! and the ratio stays put: across ten seeds its quartiles lie within
//! 3–10 % of the median where the milliseconds' lie within 11–20 %. Taking
//! the median per input keeps every input in the figure: the service's
//! jobs differ in size and thread count. The paper suite, the fleet and the
//! sweep repeat one input.
//!
//! `latency_ms` (the same figure in milliseconds, without the gauge), the
//! median gauge time `gauge_ms`, the pooled median, 90th and 99th
//! percentiles, the sample count, operations per second and
//! `setup_peak_heap_mb` (the set-up processes' median peak live heap) are
//! printed with every run and written by `--out`, but do not gate: the
//! heap repeats to the byte for the fleet on every seed, so it reads as a
//! constant. Neither do each workload's own figures: `suite_s`,
//! `fleet_node_ticks_per_s`, `sweep_s`, and for the service `admit_p50_ms`
//! and `first_event_p50_ms`.
//!
//! # Per-layer metrics
//!
//! `--trace 1` runs the workload with its timed part split into
//! interleaved untraced and traced slices, and then the per-layer probes
//! ([`probes`]): timed calls to each layer's public functions, made from
//! this crate. Every traced run reports every per-layer metric. Spans (the
//! workload's operations and their children) and per-call aggregates
//! (count, sum, median) stay in memory and are written at exit to
//! `.bench_trace/<workload>-seed<N>.json`.
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | `cluster` | `cluster.try_new_ms`, `cluster.heap_bytes_per_node` | `setup_s` @ fleet-10k |
//! | `cluster` | `cluster.tick_plain_us`, `cluster.tick_sample_us`, `cluster.sample_share`, `cluster.unattributed_pct` | `latency_rel` @ fleet-10k |
//! | `cluster` | `cluster.into_report_ms`, `cluster.run_ms_p50`, `cluster.run_ms_max` | `latency_rel` @ sweep-mixed, paper-suite |
//! | `pool` | `pool.speedup_4n` | `latency_rel` @ serve-loopback |
//! | `pool` | `pool.speedup_10k` | `latency_rel` @ fleet-10k |
//! | `sweep` | `sweep.busy_ratio` | `latency_rel` @ sweep-mixed |
//! | `workload` | `workload.tick_ns` | `latency_rel` @ sweep-mixed |
//! | `simnode` | `simnode.tick_hardware_ns`, `simnode.passthrough_share` | `latency_rel` @ sweep-mixed |
//! | `simnode` | `simnode.batch_tick_ns_per_node`, `simnode.batch_sync_ns_per_node` | `latency_rel` @ fleet-10k |
//! | `hwmon`+`core` | `node.on_sample_ns` | `latency_rel` @ paper-suite, sweep-mixed, fleet-10k |
//! | `core` | `core.window_push_ns`, `core.controller_observe_ns`, `core.tdvfs_observe_ns`, `core.cpuspeed_observe_ns`, `core.feedforward_observe_ns`, `core.failsafe_observe_ns`, `core.classifier_push_ns`, `core.array_build_ns` | `node.on_sample_ns`, then `latency_rel` @ paper-suite |
//! | `obs` | `obs.jsonl_record_ns`, `obs.bjl_record_ns`, `obs.sse_frame_ns`, `obs.events_per_job`, `obs.jsonl_bytes_per_event` | `latency_rel` @ serve-loopback |
//! | `serve` | `serve.parse_request_us`, `serve.scenario_parse_us`, `serve.admit_ms_p50`, `serve.first_event_ms_p50`, `serve.stream_ms_p50`, `serve.download_bjl_ms_p50`, `serve.direct_run_ms_p50`, `serve.overhead_ms` | `latency_rel` @ serve-loopback |
//! | `experiments` | `experiments.<id>_ms` for each of the 18 experiments | `latency_rel` @ paper-suite |
//! | (all) | `trace_overhead_pct`: the traced slices' median operation time against the untraced slices' | — |

pub mod alloc;
pub mod fleet;
pub mod gen;
pub mod measure;
pub mod probes;
pub mod serve;
pub mod suite;
pub mod sweep;
pub mod trace;

use measure::{LoopOutcome, Summary};
use trace::Trace;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Largest tolerated worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics, in report order.
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd { name: "latency_rel", unit: "ratio", better: "lower", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// Fresh processes timed for `setup_s`.
pub const SETUP_RUNS: usize = 10;

/// The per-layer metrics every traced run reports, by name and unit, in
/// report order: the tracing overhead, then [`probes::run_all`]'s output.
pub fn per_layer() -> Vec<(String, &'static str)> {
    const FIXED: [(&str, &str); 41] = [
        ("trace_overhead_pct", "%"),
        ("core.window_push_ns", "ns"),
        ("core.controller_observe_ns", "ns"),
        ("core.tdvfs_observe_ns", "ns"),
        ("core.cpuspeed_observe_ns", "ns"),
        ("core.feedforward_observe_ns", "ns"),
        ("core.failsafe_observe_ns", "ns"),
        ("core.classifier_push_ns", "ns"),
        ("core.array_build_ns", "ns"),
        ("workload.tick_ns", "ns"),
        ("simnode.tick_hardware_ns", "ns"),
        ("node.on_sample_ns", "ns"),
        ("simnode.batch_tick_ns_per_node", "ns"),
        ("simnode.batch_sync_ns_per_node", "ns"),
        ("obs.jsonl_record_ns", "ns"),
        ("obs.bjl_record_ns", "ns"),
        ("obs.sse_frame_ns", "ns"),
        ("obs.jsonl_bytes_per_event", "B"),
        ("serve.parse_request_us", "us"),
        ("serve.scenario_parse_us", "us"),
        ("serve.admit_ms_p50", "ms"),
        ("serve.first_event_ms_p50", "ms"),
        ("serve.stream_ms_p50", "ms"),
        ("serve.download_bjl_ms_p50", "ms"),
        ("serve.direct_run_ms_p50", "ms"),
        ("serve.overhead_ms", "ms"),
        ("serve.retained_bytes_per_job", "B"),
        ("obs.events_per_job", "count"),
        ("cluster.try_new_ms", "ms"),
        ("cluster.heap_bytes_per_node", "B"),
        ("cluster.tick_plain_us", "us"),
        ("cluster.tick_sample_us", "us"),
        ("cluster.sample_share", "ratio"),
        ("cluster.unattributed_pct", "%"),
        ("pool.speedup_10k", "ratio"),
        ("pool.speedup_4n", "ratio"),
        ("simnode.passthrough_share", "ratio"),
        ("cluster.run_ms_p50", "ms"),
        ("cluster.run_ms_max", "ms"),
        ("cluster.into_report_ms", "ms"),
        ("sweep.busy_ratio", "ratio"),
    ];
    FIXED
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .chain(suite::EXPERIMENTS.iter().map(|(id, _)| (format!("experiments.{id}_ms"), "ms")))
        .collect()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 18 `repro all` experiments.
    PaperSuite,
    /// A 10,000-node fleet.
    Fleet10k,
    /// A mixed scenario sweep.
    SweepMixed,
    /// Jobs through the HTTP service.
    ServeLoopback,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] =
        [Workload::PaperSuite, Workload::Fleet10k, Workload::SweepMixed, Workload::ServeLoopback];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::Fleet10k => "fleet-10k",
            Workload::SweepMixed => "sweep-mixed",
            Workload::ServeLoopback => "serve-loopback",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the benchmark has this workload (as in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSuite => "what a reproducer waits on: small recorded clusters, so sampling, recorders and reports dominate",
            Workload::Fleet10k => "the lanes and the pool do the work on a working set far above the caches, with no journal or HTTP",
            Workload::SweepMixed => "faulted and CPUSPEED nodes take the scalar path and NPB barriers load the workload layer, unlike the fleet",
            Workload::ServeLoopback => "the service path: HTTP, queue, permits, journal tee, SSE and bjl; the only workload where journals matter",
        }
    }

    /// Runs the workload at its benchmark size.
    pub fn run(self, cfg: &Config) -> WorkloadRun {
        match self {
            Workload::PaperSuite => suite::run(cfg, suite::Size::FULL),
            Workload::Fleet10k => fleet::run(cfg, fleet::Size::FULL),
            Workload::SweepMixed => sweep::run(cfg, sweep::Size::FULL),
            Workload::ServeLoopback => serve::run(cfg, serve::Size::FULL),
        }
    }

    /// Builds the workload's inputs and state and runs its first
    /// operation: what [`END_TO_END`]'s `setup_s` times in a fresh process.
    pub fn first_result(self, seed: u64, threads: usize) -> Result<(), String> {
        match self {
            Workload::PaperSuite => suite::first_result(seed, suite::Size::FULL),
            Workload::Fleet10k => fleet::first_result(seed, fleet::Size::FULL, threads),
            Workload::SweepMixed => sweep::first_result(seed, sweep::Size::FULL, threads),
            Workload::ServeLoopback => serve::first_result(seed, serve::Size::FULL, threads),
        }
    }
}

/// Settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed part, seconds.
    pub seconds: f64,
    /// Benchmark threads `W`: sweep workers, intra-run threads, the
    /// server's thread budget and the gauge's threads.
    pub threads: usize,
    /// Split the timed part into untraced and traced slices.
    pub trace: bool,
}

impl Config {
    /// Measurement arms of the timed part: the untraced arm 0, plus the
    /// traced arm 1 when tracing.
    pub fn arms(&self) -> usize {
        if self.trace {
            2
        } else {
            1
        }
    }
}

/// `min(2, available_parallelism)`: the benchmark's thread budget.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// What one workload run produced.
#[derive(Debug)]
pub struct WorkloadRun {
    /// The timed part's latencies by arm, plus every check's outcome.
    pub outcome: LoopOutcome,
    /// Digests of the simulated results, for showing they did not change.
    pub digests: Vec<(String, String)>,
    /// Workload-specific figures: name, value, unit.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    /// Spans and aggregates of the traced arm.
    pub trace: Option<Trace>,
}

impl WorkloadRun {
    /// An empty run for `cfg`, with a trace when it traces.
    pub fn new(cfg: &Config) -> Self {
        WorkloadRun {
            outcome: LoopOutcome::default(),
            digests: Vec::new(),
            notes: Vec::new(),
            trace: cfg.trace.then(|| Trace::new(std::time::Instant::now())),
        }
    }

    /// Summary of the untraced arm's latencies.
    pub fn latency_summary(&self) -> Option<Summary> {
        self.outcome.latency_ms.first().and_then(|l| Summary::of(l))
    }
}
