//! `fleet-10k`: one 10,000-node cpu-burn fleet under dynamic fan control,
//! recording off, ticking on the benchmark's thread budget. One operation
//! is one sensor sample period: four plain ticks and one sample tick.

use std::time::Instant;

use unitherm_cluster::{report_digest, Simulation};

use crate::gen::fleet_scenario;
use crate::measure::{closed_loop, ms, Gauge};
use crate::{Config, WorkloadRun};

/// Ticks per sensor sample at the scenario's 50 ms tick and 250 ms sample
/// period.
pub const TICKS_PER_SAMPLE: usize = 5;

/// Fleet dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Nodes in the fleet.
    pub nodes: usize,
    /// Untimed ticks before the timed part (a multiple of
    /// [`TICKS_PER_SAMPLE`], so every operation ends on the sample tick).
    pub warmup_ticks: usize,
    /// Ticks of the 1-thread against `threads`-thread digest check.
    pub check_ticks: usize,
}

impl Size {
    /// The benchmark's fleet.
    pub const FULL: Size = Size { nodes: 10_000, warmup_ticks: 200, check_ticks: 200 };
}

/// Builds the fleet and runs `ticks` ticks; returns the report digest.
fn digest_after(seed: u64, size: Size, threads: usize, ticks: usize) -> Result<String, String> {
    let mut sim = Simulation::try_new(fleet_scenario(seed, size.nodes, threads))
        .map_err(|e| format!("fleet scenario rejected: {e}"))?;
    for _ in 0..ticks {
        sim.tick();
    }
    Ok(report_digest(&sim.into_report()))
}

/// The time to the fleet's first result: build it and run one sample
/// period.
pub fn first_result(seed: u64, size: Size, threads: usize) -> Result<(), String> {
    digest_after(seed, size, threads, TICKS_PER_SAMPLE).map(drop)
}

/// Runs the workload: build, warm up, time sample periods until the budget
/// is spent, then check that 1 and `threads` threads give the same report.
pub fn run(cfg: &Config, size: Size) -> WorkloadRun {
    let mut run = WorkloadRun::new(cfg);
    let mut sim = match Simulation::try_new(fleet_scenario(cfg.seed, size.nodes, cfg.threads)) {
        Ok(sim) => sim,
        Err(e) => {
            run.outcome.attempted += 1;
            run.outcome.fail(format!("fleet scenario rejected: {e}"));
            return run;
        }
    };
    for _ in 0..size.warmup_ticks {
        sim.tick();
    }

    let mut trace = run.trace.take();
    let outcome = closed_loop(cfg.seconds, cfg.arms(), &mut Gauge::new(cfg.threads), |arm| {
        let t0 = Instant::now();
        match (arm, trace.as_mut()) {
            (1, Some(t)) => {
                let span = t.begin("period", None);
                for k in 0..TICKS_PER_SAMPLE {
                    let tick = Instant::now();
                    sim.tick();
                    let us = tick.elapsed().as_nanos() as f64 / 1e3;
                    let timer =
                        if k + 1 == TICKS_PER_SAMPLE { "tick_sample_us" } else { "tick_plain_us" };
                    t.sample(timer, us);
                }
                t.end(span);
            }
            _ => {
                for _ in 0..TICKS_PER_SAMPLE {
                    sim.tick();
                }
            }
        }
        Ok((0, ms(t0.elapsed())))
    });
    run.trace = trace;
    run.outcome.merge(outcome);

    run.outcome.attempted += 1;
    if sim.into_report().any_shutdown() {
        run.outcome.fail("a fleet node shut down".into());
    }

    run.outcome.attempted += 1;
    let serial = digest_after(cfg.seed, size, 1, size.check_ticks);
    let parallel = digest_after(cfg.seed, size, cfg.threads, size.check_ticks);
    match (serial, parallel) {
        (Ok(a), Ok(b)) if a == b => run.digests.push((format!("{}-ticks", size.check_ticks), a)),
        (Ok(a), Ok(b)) => run.outcome.fail(format!(
            "report digest differs between 1 thread ({a}) and {} threads ({b})",
            cfg.threads
        )),
        (Err(e), _) | (_, Err(e)) => run.outcome.fail(e),
    }
    if let Some(s) = run.latency_summary() {
        let node_ticks = (size.nodes * TICKS_PER_SAMPLE) as f64;
        run.notes.push(("fleet_node_ticks_per_s", node_ticks / (s.median / 1e3), "1/s"));
    }
    run
}
