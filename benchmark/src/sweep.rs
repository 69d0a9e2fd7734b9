//! `sweep-mixed`: a seeded list of mixed scenarios through
//! `try_run_scenarios_parallel`, over and over. Every repetition must
//! reproduce, report for report, the digests of a serial run of the list.

use std::time::Instant;

use unitherm_cluster::{
    report_digest, try_run_scenarios_parallel, RunReport, Scenario, SweepError,
};

use crate::gen::{fnv1a64, fnv1a64_extend, sweep_scenarios};
use crate::measure::{closed_loop, ms, Gauge};
use crate::{Config, WorkloadRun};

/// Sweep dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Scenarios in the list.
    pub scenarios: usize,
}

impl Size {
    /// The benchmark's sweep.
    pub const FULL: Size = Size { scenarios: 48 };
}

/// A digest of a report's outcome that costs microseconds, not the
/// milliseconds of serializing its recorded series: run length, and per
/// node the energy integral (which every change to the power trajectory
/// moves), the actuation counts and the control-plane counters.
pub fn outcome_digest(report: &RunReport) -> String {
    let mut h = fnv1a64(report.name.as_bytes());
    for bits in
        [report.exec_time_s.to_bits(), report.wall_time_s.to_bits(), u64::from(report.completed)]
    {
        h = fnv1a64_extend(h, &bits.to_le_bytes());
    }
    for node in &report.nodes {
        for bits in [
            node.energy_j.to_bits(),
            node.avg_wall_power_w.to_bits(),
            node.freq_transitions,
            node.throttle_events,
            node.failsafe_engagements,
            node.temp.len() as u64,
            node.events.len() as u64,
        ] {
            h = fnv1a64_extend(h, &bits.to_le_bytes());
        }
        h = fnv1a64_extend(h, serde_json::to_string(&node.counters).unwrap_or_default().as_bytes());
    }
    format!("fnv1a64:{h:016x}")
}

/// Each sweep result's `digest`, or the first job failure.
pub fn digests(
    results: Vec<Result<RunReport, SweepError>>,
    digest: fn(&RunReport) -> String,
) -> Result<Vec<String>, String> {
    results
        .into_iter()
        .map(|r| r.map(|report| digest(&report)).map_err(|e| e.to_string()))
        .collect()
}

/// Compares a repetition's digests with the reference, naming the first
/// scenario that differs.
pub fn check_digests(list: &[Scenario], got: &[String], want: &[String]) -> Result<(), String> {
    match list.iter().zip(got.iter().zip(want)).find(|(_, (g, w))| g != w) {
        None if got.len() == want.len() => Ok(()),
        None => Err(format!("{} reports for {} scenarios", got.len(), want.len())),
        Some((s, (g, w))) => {
            Err(format!("scenario {:?}: digest {g}, serial reference {w}", s.name))
        }
    }
}

/// The time to the sweep's first result: generate the list and sweep it
/// once.
pub fn first_result(seed: u64, size: Size, threads: usize) -> Result<(), String> {
    let list = sweep_scenarios(seed, size.scenarios);
    digests(try_run_scenarios_parallel(list, threads), |_| String::new()).map(drop)
}

/// The serial reference: full report digests of a serial sweep, which a
/// parallel sweep must reproduce, and the serial sweep's outcome digests.
fn reference(list: &[Scenario], threads: usize) -> Result<(String, Vec<String>), String> {
    let serial: Vec<RunReport> = try_run_scenarios_parallel(list.to_vec(), 1)
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let full: Vec<String> = serial.iter().map(report_digest).collect();
    let parallel = digests(try_run_scenarios_parallel(list.to_vec(), threads), report_digest)?;
    check_digests(list, &parallel, &full)?;
    let all = format!("fnv1a64:{:016x}", fnv1a64(full.concat().as_bytes()));
    Ok((all, serial.iter().map(outcome_digest).collect()))
}

/// Runs the workload: the reference sweeps (which also warm up), then
/// parallel sweeps until the time budget is spent, each checked against
/// the reference's [`outcome_digest`]s.
pub fn run(cfg: &Config, size: Size) -> WorkloadRun {
    let mut run = WorkloadRun::new(cfg);
    let list = sweep_scenarios(cfg.seed, size.scenarios);
    run.outcome.attempted += 1;
    let reference = match reference(&list, cfg.threads) {
        Ok((all, outcomes)) => {
            run.digests.push(("reports".into(), all));
            outcomes
        }
        Err(e) => {
            run.outcome.fail(format!("reference sweeps: {e}"));
            return run;
        }
    };

    let mut trace = run.trace.take();
    let outcome = closed_loop(cfg.seconds, cfg.arms(), &mut Gauge::new(cfg.threads), |arm| {
        let input = list.clone();
        let span = match (arm, trace.as_mut()) {
            (1, Some(t)) => Some(t.begin("sweep", None)),
            _ => None,
        };
        let t0 = Instant::now();
        let results = try_run_scenarios_parallel(input, cfg.threads);
        let latency = ms(t0.elapsed());
        if let (Some(t), Some(span)) = (trace.as_mut(), span) {
            t.end(span);
        }
        check_digests(&list, &digests(results, outcome_digest)?, &reference).map(|()| (0, latency))
    });
    run.trace = trace;
    run.outcome.merge(outcome);
    if let Some(s) = run.latency_summary() {
        run.notes.push(("sweep_s", s.median / 1e3, "s"));
    }
    run
}
