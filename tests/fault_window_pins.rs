//! Pinned outputs of the two fault-window producers (`DESIGN.md` §12–13).
//!
//! Journal replay and the chaos search both lower paired fault windows
//! onto a node's `TickFaultSchedule`. These pins hold what each produces
//! on the shipped examples, so a change to how windows are described or
//! lowered cannot move a derived schedule, a replayed report or a corpus
//! byte without failing here.

use unitherm::cluster::chaos::{chaos_search, report_digest, ChaosConfig, OutcomePredicate};
use unitherm::cluster::Simulation;
use unitherm::experiments::scenario_file;
use unitherm::obs::NullSink;

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// FNV-1a 64 of `text`, rendered like a report digest.
fn fnv(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("fnv1a64:{hash:016x}")
}

#[test]
fn committed_journal_derives_and_replays_the_pinned_schedule() {
    let scenario =
        scenario_file::load(repo_path("examples/scenarios/replay/hybrid_burn_replay.json"))
            .expect("example scenario loads");
    let (faulted, _) = scenario_file::apply_replay(
        scenario,
        repo_path("examples/scenarios/replay/recorded_events.jsonl"),
    )
    .expect("committed journal derives");
    let schedule = serde_json::to_string(&faulted.tick_faults).expect("schedules serialize");
    assert_eq!(fnv(&schedule), "fnv1a64:d4a00d65089b13f2", "derived tick_faults moved: {schedule}");
    let report = Simulation::new(faulted).run();
    assert_eq!(report_digest(&report), "fnv1a64:bc18741cf29aba7c", "replayed report moved");
}

#[test]
fn chaos_search_on_the_protected_burn_writes_the_pinned_corpus() {
    let mut base = scenario_file::load(repo_path("examples/scenarios/protected_burn.json"))
        .expect("shipped scenario loads");
    base.max_time_s = 60.0;
    let cfg = ChaosConfig {
        seed: 42,
        predicate: OutcomePredicate::FailsafeTrip,
        max_evaluations: 40,
        batch: 8,
        threads: 2,
    };
    let corpus = chaos_search(&base, &cfg, &mut NullSink).expect("search runs");
    let json = serde_json::to_string_pretty(&corpus).expect("corpus serializes");
    assert_eq!(fnv(&json), "fnv1a64:04d6de27de9df9a5", "corpus moved: {json}");
}
