//! Every workload at a tiny size runs without a failed operation, and a
//! wrong reference is counted as a failure, not ignored.

use unitherm_benchmark::measure::LoopOutcome;
use unitherm_benchmark::{fleet, gen, serve, suite, sweep, Config, WorkloadRun};
use unitherm_experiments::Scale;

fn cfg(trace: bool) -> Config {
    Config { seed: 11, seconds: 0.3, threads: 2, trace }
}

fn assert_clean(name: &str, run: &WorkloadRun) {
    assert_eq!(run.outcome.failed, 0, "{name}: {:?}", run.outcome.failures);
    assert!(!run.outcome.latency_ms[0].is_empty(), "{name}: no timed operation");
    assert!(!run.digests.is_empty(), "{name}: no digest");
}

#[test]
fn paper_suite_runs_clean() {
    let run = suite::run(&cfg(false), suite::Size { experiments: 3, scale: Scale::Fast });
    assert_clean("paper-suite", &run);
}

#[test]
fn fleet_runs_clean() {
    let run = fleet::run(&cfg(false), fleet::Size { nodes: 64, warmup_ticks: 20, check_ticks: 20 });
    assert_clean("fleet", &run);
    assert!(run.notes.iter().any(|(n, v, _)| *n == "fleet_node_ticks_per_s" && *v > 0.0));
}

#[test]
fn sweep_runs_clean() {
    let run = sweep::run(&cfg(false), sweep::Size { scenarios: 12 });
    assert_clean("sweep", &run);
}

#[test]
fn serve_runs_clean() {
    let run = serve::run(&cfg(false), serve::Size { distinct_jobs: 4, warmup_jobs: 1 });
    assert_clean("serve", &run);
}

#[test]
fn traced_run_fills_both_arms_and_records_spans() {
    let run = fleet::run(&cfg(true), fleet::Size { nodes: 64, warmup_ticks: 20, check_ticks: 20 });
    assert_clean("traced fleet", &run);
    assert!(!run.outcome.latency_ms[1].is_empty(), "traced arm ran");
    let trace = run.trace.expect("traced runs keep their trace");
    assert!(trace.spans().iter().any(|s| s.name == "period"));
    assert!(!trace.timer("tick_sample_us").is_empty());
    assert_eq!(trace.timer("tick_plain_us").len(), 4 * trace.timer("tick_sample_us").len());
}

#[test]
fn wrong_sweep_reference_is_a_failure() {
    let list = gen::sweep_scenarios(3, 12);
    let got: Vec<String> = (0..12).map(|i| format!("d{i}")).collect();
    let mut wrong = got.clone();
    wrong[5] = "fnv1a64:0000000000000000".into();
    assert!(sweep::check_digests(&list, &got, &got).is_ok());
    let err = sweep::check_digests(&list, &got, &wrong).expect_err("a wrong reference fails");
    assert!(err.contains(&list[5].name), "{err}");
}

#[test]
fn wrong_job_digest_is_a_failure() {
    let jobs = gen::serve_jobs(3, 2);
    let addr = serve::start_server(2).expect("loopback server");
    let results: Vec<serve::JobResult> =
        (0..2).map(|j| serve::run_job(&addr, j, &jobs[j], None).expect("job runs")).collect();

    let mut clean = LoopOutcome::default();
    serve::verify(&jobs, &results, 2, &mut clean);
    assert_eq!(clean.failed, 0, "{:?}", clean.failures);

    let mut tampered = results.clone();
    tampered[1].digest = "fnv1a64:0000000000000000".into();
    let mut outcome = LoopOutcome::default();
    serve::verify(&jobs, &tampered, 2, &mut outcome);
    assert_eq!(outcome.failed, 1, "{:?}", outcome.failures);
    assert!(outcome.failures[0].contains("digest"), "{:?}", outcome.failures);
}
