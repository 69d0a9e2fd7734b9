//! Per-layer probes for the traced run: each metric is a timed call to a
//! layer's public function, wrapped here, on inputs made from the seed.
//!
//! Every traced run measures every probe, whatever its workload, so each
//! layer's numbers can be compared across runs; the lib docs map each
//! metric to the end-to-end numbers it should move.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::Cursor;
use std::rc::Rc;
use std::time::Instant;

use unitherm_cluster::node_sim::NodeSim;
use unitherm_cluster::{
    report_digest, try_run_scenarios_parallel, FanScheme, Scenario, SchemeSpec, Simulation,
    WorkloadSpec,
};
use unitherm_core::actuator::fan_mode_set;
use unitherm_core::control_array::{Policy, ThermalControlArray};
use unitherm_core::controller::{ControllerConfig, UnifiedController};
use unitherm_core::{
    BehaviorClassifier, CpuSpeedGovernor, Failsafe, FeedforwardFanController, Tdvfs, TwoLevelWindow,
};
use unitherm_experiments::scenario_file;
use unitherm_obs::{sse_journal_frame, BinaryJournalWriter, EventSink, JournalWriter};
use unitherm_simnode::PhysicsBatch;
use unitherm_workload::{NpbBenchmark, NpbClass, WorkState};

use crate::fleet::TICKS_PER_SAMPLE;
use crate::gen::{
    fleet_scenario, passthrough_share, serve_jobs, suite_order, sweep_scenarios, Rng,
};
use crate::measure::{interleaved, ms, ns_per_call, LoopOutcome, Summary};
use crate::serve::Capture;
use crate::trace::Trace;
use crate::{alloc, serve, suite};

/// One per-layer measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, `<layer>.<what>`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Collects metrics and check outcomes.
struct Probe<'a> {
    out: Vec<Metric>,
    checks: &'a mut LoopOutcome,
}

impl Probe<'_> {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.out.push(Metric { name: name.into(), value, unit });
    }

    fn check(&mut self, result: Result<(), String>) {
        self.checks.attempted += 1;
        if let Err(e) = result {
            self.checks.fail(e);
        }
    }
}

const TICK_S: f64 = 0.05;
const FREQS: [u32; 5] = [2400, 2200, 2000, 1800, 1000];

/// Runs every probe on `threads` threads; check failures land in `checks`.
pub fn run_all(seed: u64, threads: usize, checks: &mut LoopOutcome) -> Vec<Metric> {
    let mut p = Probe { out: Vec::new(), checks };
    core(&mut p, seed);
    node(&mut p, seed);
    batch(&mut p, seed);
    obs(&mut p, seed);
    serve_layer(&mut p, seed, threads);
    cluster(&mut p, seed, threads);
    pool_4n(&mut p, seed, threads);
    sweep_layer(&mut p, seed, threads);
    experiments(&mut p, seed);
    p.out
}

/// A seeded temperature stream that crosses every controller regime.
fn temp_stream(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0x7E4);
    (0..n).map(|i| 48.0 + 6.0 * (i as f64 / 80.0).sin() + rng.range(-0.4, 0.4)).collect()
}

/// `core`: the controllers' per-sample entry points, per call.
fn core(p: &mut Probe, seed: u64) {
    const ROUNDS: usize = 15;
    const CALLS: usize = 4096;
    let s = temp_stream(seed, CALLS);
    let util = |i: usize| if (i / 40).is_multiple_of(2) { 0.95 } else { 0.2 };

    let mut w = TwoLevelWindow::default();
    let r = ns_per_call(ROUNDS, CALLS, |i| w.push(black_box(s[i])));
    p.put("core.window_push_ns", r.median, "ns");

    let mut c =
        UnifiedController::new(&fan_mode_set(100), Policy::MODERATE, ControllerConfig::default());
    let r = ns_per_call(ROUNDS, CALLS, |i| c.observe(black_box(s[i])));
    p.put("core.controller_observe_ns", r.median, "ns");

    let mut t = Tdvfs::with_defaults(&FREQS, Policy::MODERATE);
    let r = ns_per_call(ROUNDS, CALLS, |i| t.observe(black_box(s[i])));
    p.put("core.tdvfs_observe_ns", r.median, "ns");

    let mut g = CpuSpeedGovernor::with_defaults(&FREQS);
    let r = ns_per_call(ROUNDS, CALLS, |i| g.observe(0.25, black_box(util(i))));
    p.put("core.cpuspeed_observe_ns", r.median, "ns");

    let mut f = FeedforwardFanController::with_defaults(Policy::MODERATE, 100);
    let r = ns_per_call(ROUNDS, CALLS, |i| f.observe(black_box(s[i]), util(i)));
    p.put("core.feedforward_observe_ns", r.median, "ns");

    let mut fs = Failsafe::with_defaults();
    let r = ns_per_call(ROUNDS, CALLS, |i| {
        fs.observe(black_box(if i % 97 == 0 { None } else { Some(s[i]) }))
    });
    p.put("core.failsafe_observe_ns", r.median, "ns");

    let mut cl = BehaviorClassifier::default();
    let r = ns_per_call(ROUNDS, CALLS, |i| cl.push(black_box(s[i])));
    p.put("core.classifier_push_ns", r.median, "ns");

    let duties = fan_mode_set(100);
    let r = ns_per_call(ROUNDS, 256, |_| {
        ThermalControlArray::with_default_len(black_box(&duties), Policy::MODERATE)
    });
    p.put("core.array_build_ns", r.median, "ns");
}

/// `workload`, `simnode` and `hwmon`+`core` through one node's entry
/// points: 64 NPB BT.A nodes under CPUSPEED (a per-tick daemon, so
/// `tick_hardware` is the scalar passthrough path), ticked the way the
/// cluster loop ticks them. Samples are ns per node-call.
fn node(p: &mut Probe, seed: u64) {
    const NODES: usize = 64;
    let scenario = Scenario::new("probe-nodes")
        .with_nodes(NODES)
        .with_seed(Rng::new(seed, 0x40DE).next_u64())
        .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A })
        .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
        .with_dvfs(unitherm_cluster::DvfsScheme::cpuspeed())
        .with_max_time(1e9);
    let mut nodes: Vec<NodeSim> = (0..NODES).map(|i| NodeSim::build(&scenario, i)).collect();
    let (mut workload, mut hardware, mut sample) = (Vec::new(), Vec::new(), Vec::new());
    let per_node = |t0: Instant| t0.elapsed().as_nanos() as f64 / NODES as f64;
    for k in 1..=1000usize {
        let now = k as f64 * TICK_S;
        let t0 = Instant::now();
        let (mut all_parked, mut any_parked) = (true, false);
        for ns in &mut nodes {
            match ns.tick_workload(TICK_S) {
                WorkState::AtBarrier(_) => any_parked = true,
                WorkState::Finished => {}
                _ => all_parked = false,
            }
        }
        workload.push(per_node(t0));
        if all_parked && any_parked {
            for ns in &mut nodes {
                ns.workload.release_barrier();
            }
        }
        let t0 = Instant::now();
        for ns in &mut nodes {
            ns.tick_hardware(TICK_S, now, None);
        }
        hardware.push(per_node(t0));
        if k % TICKS_PER_SAMPLE == 0 {
            let t0 = Instant::now();
            for ns in &mut nodes {
                ns.on_sample(now, None);
            }
            sample.push(per_node(t0));
        }
    }
    p.put("workload.tick_ns", median(&workload), "ns");
    p.put("simnode.tick_hardware_ns", median(&hardware), "ns");
    p.put("node.on_sample_ns", median(&sample), "ns");
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

/// `simnode` lanes: `PhysicsBatch::tick_all` over 2048 burn nodes, and the
/// per-sample `store` + `reload_control` sync, per node.
fn batch(p: &mut Probe, seed: u64) {
    const NODES: usize = 2048;
    let scenario = fleet_scenario(seed, NODES, 1);
    let mut nodes: Vec<NodeSim> = (0..NODES).map(|i| NodeSim::build(&scenario, i)).collect();
    let mut lanes = PhysicsBatch::from_nodes(nodes.iter().map(|ns| &ns.node));
    for i in 0..NODES {
        lanes.set_load(i, 1.0, 1.0);
    }
    let (mut tick, mut sync) = (Vec::new(), Vec::new());
    for k in 1..=400usize {
        lanes.begin_tick(TICK_S);
        let t0 = Instant::now();
        lanes.tick_all(TICK_S);
        tick.push(t0.elapsed().as_nanos() as f64 / NODES as f64);
        if k % TICKS_PER_SAMPLE == 0 {
            let t0 = Instant::now();
            for (i, ns) in nodes.iter_mut().enumerate() {
                lanes.store(i, &mut ns.node);
                lanes.reload_control(i, &ns.node);
            }
            sync.push(t0.elapsed().as_nanos() as f64 / NODES as f64);
        }
    }
    p.put("simnode.batch_tick_ns_per_node", median(&tick), "ns");
    p.put("simnode.batch_sync_ns_per_node", median(&sync), "ns");
}

/// `obs`: the journal encoders and SSE framing over a captured event
/// stream, per event.
fn obs(p: &mut Probe, seed: u64) {
    const ROUNDS: usize = 9;
    let scenario = Scenario::new("probe-events")
        .with_nodes(16)
        .with_seed(Rng::new(seed, 0x0B5).next_u64())
        .with_scheme(SchemeSpec::hybrid(Policy::MODERATE, 40))
        .with_recording(false)
        .with_max_time(240.0);
    let dt_s = scenario.dt_s;
    let captured = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::new(scenario);
    sim.attach_journal(Box::new(Capture(Rc::clone(&captured))));
    drop(sim.run());
    let records = captured.take();
    p.check(if records.is_empty() {
        Err("the obs probe run emitted no events".into())
    } else {
        Ok(())
    });
    if records.is_empty() {
        return;
    }
    let n = records.len() as f64;
    let per_event = |mut encode: Box<dyn FnMut() -> usize + '_>| -> (f64, usize) {
        let mut bytes = 0;
        let samples: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let t0 = Instant::now();
                bytes = encode();
                t0.elapsed().as_nanos() as f64 / n
            })
            .collect();
        (median(&samples), bytes)
    };
    let (jsonl_ns, jsonl_bytes) = per_event(Box::new(|| {
        let mut w = JournalWriter::new(Vec::with_capacity(records.len() * 160));
        for rec in &records {
            w.record(rec);
        }
        w.finish().map_or(0, |b| b.len())
    }));
    let (bjl_ns, _) = per_event(Box::new(|| {
        let mut w = BinaryJournalWriter::new(Vec::with_capacity(records.len() * 40), dt_s);
        for rec in &records {
            w.record(rec);
        }
        w.finish().map_or(0, |b| b.len())
    }));
    let (sse_ns, _) = per_event(Box::new(|| {
        records
            .iter()
            .enumerate()
            .map(|(i, rec)| black_box(sse_journal_frame(i as u64, rec)).len())
            .sum()
    }));
    p.put("obs.jsonl_record_ns", jsonl_ns, "ns");
    p.put("obs.bjl_record_ns", bjl_ns, "ns");
    p.put("obs.sse_frame_ns", sse_ns, "ns");
    p.put("obs.jsonl_bytes_per_event", jsonl_bytes as f64 / n, "B");
}

/// `serve`: request and scenario parsing per call, then a short
/// one-client session against a loopback server, each job checked against
/// its direct run.
fn serve_layer(p: &mut Probe, seed: u64, threads: usize) {
    const JOBS: usize = 24;
    let jobs = serve_jobs(seed ^ 0x05E4_E0B5, 16);
    let body = &jobs[0];
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: probe\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let limits = unitherm_serve::Limits::default();
    let r = ns_per_call(9, 64, |_| {
        unitherm_serve::parse_request(&mut Cursor::new(black_box(request.as_bytes())), &limits)
    });
    p.put("serve.parse_request_us", r.median / 1e3, "us");
    let r = ns_per_call(9, 64, |_| scenario_file::parse(black_box(body)));
    p.put("serve.scenario_parse_us", r.median / 1e3, "us");

    let addr = match serve::start_server(threads) {
        Ok(addr) => addr,
        Err(e) => return p.check(Err(e)),
    };
    let mut results = Vec::new();
    let mut live_before = 0;
    for k in 0..JOBS + 2 {
        // Two warm-up jobs first; retained heap counts from after them.
        if k == 2 {
            live_before = alloc::live_bytes();
        }
        match serve::run_job(&addr, k % jobs.len(), &jobs[k % jobs.len()], None) {
            Ok(r) => results.push(r),
            Err(e) => p.check(Err(e)),
        }
    }
    let retained = (alloc::live_bytes() - live_before) as f64 / JOBS as f64;
    let mut outcome = LoopOutcome::default();
    let refs = serve::verify(&jobs, &results, threads, &mut outcome);
    p.checks.merge(LoopOutcome { attempted: results.len() as u64, ..outcome });
    let pick = |f: fn(&serve::JobResult) -> f64| {
        median(&results.iter().skip(2).map(f).collect::<Vec<_>>())
    };
    let direct: Vec<f64> = refs.values().map(|r| r.run_ms).collect();
    let events: f64 =
        refs.values().map(|r| r.events as f64).sum::<f64>() / refs.len().max(1) as f64;
    p.put("serve.admit_ms_p50", pick(|r| r.admit_ms), "ms");
    p.put("serve.first_event_ms_p50", pick(|r| r.first_event_ms), "ms");
    p.put("serve.stream_ms_p50", pick(|r| r.stream_ms), "ms");
    p.put("serve.download_bjl_ms_p50", pick(|r| r.download_ms), "ms");
    p.put("serve.direct_run_ms_p50", median(&direct), "ms");
    p.put("serve.overhead_ms", pick(|r| r.done_ms) - median(&direct), "ms");
    p.put("serve.retained_bytes_per_job", retained, "B");
    p.put("obs.events_per_job", events, "count");
}

/// Runs `ticks` ticks and returns the host time in µs.
fn ticks_us(sim: &mut Simulation, ticks: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..ticks {
        sim.tick();
    }
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// `cluster` and `pool` on the 10k-node fleet: build cost and heap per
/// node, plain and sample ticks, how much of an untraced sample period the
/// per-tick timings leave unexplained, and the speed-up of `threads`
/// threads over one.
fn cluster(p: &mut Probe, seed: u64, threads: usize) {
    const NODES: usize = 10_000;
    const ROUNDS: usize = 16;
    let build = |threads: usize| Simulation::try_new(fleet_scenario(seed, NODES, threads));
    let mut builds = Vec::new();
    let mut heap = 0.0;
    let mut sim = None;
    for _ in 0..3 {
        drop(sim.take());
        let live = alloc::live_bytes();
        let t0 = Instant::now();
        match build(threads) {
            Ok(s) => sim = Some(s),
            Err(e) => return p.check(Err(e.to_string())),
        }
        builds.push(ms(t0.elapsed()));
        heap = (alloc::live_bytes() - live) as f64 / NODES as f64;
    }
    let mut sim = sim.expect("three builds ran");
    p.put("cluster.try_new_ms", median(&builds), "ms");
    p.put("cluster.heap_bytes_per_node", heap, "B");

    ticks_us(&mut sim, 200);
    let (mut plain, mut sample) = (Vec::new(), Vec::new());
    let arms = interleaved(ROUNDS, 2, |arm| {
        if arm == 0 {
            return ticks_us(&mut sim, TICKS_PER_SAMPLE);
        }
        let mut total = 0.0;
        for k in 1..=TICKS_PER_SAMPLE {
            let us = ticks_us(&mut sim, 1);
            total += us;
            if k == TICKS_PER_SAMPLE {
                sample.push(us)
            } else {
                plain.push(us)
            }
        }
        total
    });
    let (plain, sample, period) = (median(&plain), median(&sample), median(&arms[0]));
    let attributed = (TICKS_PER_SAMPLE - 1) as f64 * plain + sample;
    p.put("cluster.tick_plain_us", plain, "us");
    p.put("cluster.tick_sample_us", sample, "us");
    p.put("cluster.sample_share", sample / attributed, "ratio");
    p.put("cluster.unattributed_pct", (period - attributed) / period * 100.0, "%");

    let mut serial = match build(1) {
        Ok(s) => s,
        Err(e) => return p.check(Err(e.to_string())),
    };
    ticks_us(&mut serial, 200);
    let arms = interleaved(ROUNDS, 2, |arm| {
        ticks_us(if arm == 0 { &mut serial } else { &mut sim }, TICKS_PER_SAMPLE)
    });
    p.put("pool.speedup_10k", median(&arms[0]) / median(&arms[1]), "ratio");
}

/// `pool` on a small cluster: a 4-node hybrid burn on `threads` threads
/// against one.
fn pool_4n(p: &mut Probe, seed: u64, threads: usize) {
    let scenario = |threads: usize| {
        Scenario::new("probe-4n")
            .with_nodes(4)
            .with_seed(Rng::new(seed, 0x4).next_u64())
            .with_scheme(SchemeSpec::hybrid(Policy::MODERATE, 60))
            .with_recording(false)
            .with_max_time(1e9)
            .with_threads(threads)
    };
    let (Ok(mut one), Ok(mut many)) =
        (Simulation::try_new(scenario(1)), Simulation::try_new(scenario(threads)))
    else {
        return p.check(Err("4-node probe scenario rejected".into()));
    };
    let arms = interleaved(16, 2, |arm| ticks_us(if arm == 0 { &mut one } else { &mut many }, 200));
    p.put("pool.speedup_4n", median(&arms[0]) / median(&arms[1]), "ratio");
}

/// `cluster` per run and `sweep`: the sweep list run scenario by scenario
/// through the public tick loop (run time, report time), then as one
/// parallel sweep whose reports must match.
fn sweep_layer(p: &mut Probe, seed: u64, threads: usize) {
    let list = sweep_scenarios(seed, 24);
    p.put("simnode.passthrough_share", passthrough_share(&list), "ratio");
    let (mut run_ms, mut report_ms, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    for scenario in &list {
        let (finite, max_t, cooldown) =
            (scenario.workload.is_finite(), scenario.max_time_s, scenario.cooldown_s);
        let t0 = Instant::now();
        let Ok(mut sim) = Simulation::try_new(scenario.clone()) else {
            return p.check(Err(format!("sweep probe scenario {:?} rejected", scenario.name)));
        };
        // `Simulation::run`'s loop, with the report step timed apart.
        let mut finished_at: Option<f64> = None;
        while sim.time_s() < max_t {
            sim.tick();
            if finite && finished_at.is_none() && sim.all_finished() {
                finished_at = Some(sim.time_s());
            }
            if finished_at.is_some_and(|t| sim.time_s() >= t + cooldown) {
                break;
            }
        }
        let t1 = Instant::now();
        let report = sim.into_report();
        report_ms.push(ms(t1.elapsed()));
        run_ms.push(ms(t0.elapsed()));
        digests.push(report_digest(&report));
    }
    let t0 = Instant::now();
    let parallel = try_run_scenarios_parallel(list.clone(), threads);
    let wall_ms = ms(t0.elapsed());
    for ((scenario, want), got) in list.iter().zip(&digests).zip(parallel) {
        p.check(match got {
            Ok(r) if report_digest(&r) == *want => Ok(()),
            Ok(_) => Err(format!("{}: sweep report differs from its direct run", scenario.name)),
            Err(e) => Err(e.to_string()),
        });
    }
    let s = Summary::of(&run_ms).expect("the sweep list is not empty");
    p.put("cluster.run_ms_p50", s.median, "ms");
    p.put("cluster.run_ms_max", s.max, "ms");
    p.put("cluster.into_report_ms", median(&report_ms), "ms");
    p.put("sweep.busy_ratio", run_ms.iter().sum::<f64>() / (threads as f64 * wall_ms), "ratio");
}

/// `experiments`: three suite passes with every experiment in its own span.
fn experiments(p: &mut Probe, seed: u64) {
    let mut trace = Trace::new(Instant::now());
    for pass_no in 0..3 {
        let span = trace.begin("pass", None);
        let order = suite_order(seed, pass_no, suite::EXPERIMENTS.len());
        for (i, violations, _) in
            suite::pass(&order, suite::Size::FULL.scale, Some((&mut trace, span)))
        {
            let id = suite::EXPERIMENTS[i].0;
            p.check(if violations.is_empty() {
                Ok(())
            } else {
                Err(format!("{id}: {}", violations.join("; ")))
            });
        }
        trace.end(span);
    }
    for (id, _) in suite::EXPERIMENTS {
        let name = format!("experiment:{id}");
        let times: Vec<f64> = trace
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        p.put(format!("experiments.{id}_ms"), median(&times), "ms");
    }
}
