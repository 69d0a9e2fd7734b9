//! The record → derive → replay round trip (`DESIGN.md` §12).
//!
//! A journal recorded from a clean run is fed to
//! [`unitherm::cluster::derive_fault_plan`], which pins fault windows to
//! the exact ticks where that run made decisions. These tests pin the
//! contract end to end: the derived plan is non-empty on a scenario that
//! actually makes decisions, the replayed run is bit-identical at every
//! thread count (report *and* journal stream), and every derived fault is
//! visible in the replayed run — as a `FaultInjected` journal event at its
//! pinned tick, in the per-node `faults_applied` report field, and in the
//! `faults_injected` counter.

use std::sync::{Arc, Mutex};

use unitherm::cluster::replay::classify_fault;
use unitherm::cluster::{derive_fault_plan, RunReport, Scenario, Simulation};
use unitherm::experiments::scenario_file;
use unitherm::obs::{read_journal, Event, EventRecord, EventSink};

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The recording scenario: the shipped hybrid-burn example, shortened. A
/// capped hybrid fan under cpu-burn produces fan mode changes *and* a
/// tDVFS engagement, so the derived plan covers more than one fault kind.
fn base_scenario() -> Scenario {
    let mut s = scenario_file::load(repo_path("examples/scenarios/hybrid_burn.json"))
        .expect("shipped scenario loads");
    s.max_time_s = 120.0;
    s
}

/// A journal that appends into a shared Vec, so the stream survives the
/// simulation consuming its boxed sink.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<EventRecord>>>);

impl EventSink for SharedSink {
    fn record(&mut self, rec: &EventRecord) {
        self.0.lock().expect("journal lock").push(*rec);
    }
}

/// Runs `scenario` sharded `width` ways with a journal attached. The width
/// is forced: the shipped scenarios are far below the nodes-per-shard
/// grain, where `Simulation::new` would run serially.
fn run_with_journal(scenario: Scenario, width: usize) -> (RunReport, Vec<EventRecord>) {
    let sink = SharedSink::default();
    let stream = Arc::clone(&sink.0);
    let mut sim = Simulation::try_with_width(scenario, width).expect("valid scenario");
    sim.attach_journal(Box::new(sink));
    let report = sim.run();
    let events = std::mem::take(&mut *stream.lock().expect("journal lock"));
    (report, events)
}

fn image(report: &RunReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

#[test]
fn journal_round_trip_replays_bit_identically_with_pinned_faults() {
    // Record: a clean run with a journal attached.
    let (_, recorded) = run_with_journal(base_scenario(), 1);
    assert!(!recorded.is_empty(), "the recording run must emit events");

    // Derive: fault windows pinned to the recorded decisions.
    let base = base_scenario();
    let plan = derive_fault_plan(&recorded, &base).expect("clean journal derives");
    assert!(!plan.is_empty(), "hybrid burn makes decisions to derive faults from");
    let dt = base.dt_s;

    // Replay at 1 thread: the reference faulted run.
    let (ref_report, ref_events) = run_with_journal(plan.apply(base_scenario()), 1);
    let ref_image = image(&ref_report);

    // Every derived injection lands on its pinned tick: a FaultInjected
    // record on the right node whose timestamp maps back to exactly the
    // derived tick, with the kind the classifier assigns to that fault.
    for d in &plan.windows {
        let (kind, magnitude) = classify_fault(d.kind.inject(d.magnitude));
        let hit = ref_events.iter().any(|rec| {
            rec.node as usize == d.node
                && (rec.time_s / dt).round() as u64 == d.start_tick
                && matches!(rec.event, Event::FaultInjected { kind: k, magnitude: m }
                    if k == kind && m == magnitude)
        });
        assert!(
            hit,
            "derived fault {d:?} missing from the replayed journal at tick {}",
            d.start_tick
        );
    }

    // The same deliveries are visible in the report: per-node fault logs
    // carry (tick, fault) pairs matching the schedule, and the counter sums
    // to the journal's FaultInjected population.
    let injected_events =
        ref_events.iter().filter(|r| matches!(r.event, Event::FaultInjected { .. })).count();
    let applied: usize = ref_report.nodes.iter().map(|n| n.faults_applied.len()).sum();
    assert_eq!(applied, injected_events, "every applied fault must be journaled");
    assert_eq!(
        ref_report.counters_total().faults_injected,
        applied as u64,
        "the faults_injected counter mirrors the fault log"
    );
    for d in &plan.windows {
        assert!(
            ref_report.nodes[d.node]
                .faults_applied
                .contains(&(d.start_tick, d.kind.inject(d.magnitude))),
            "derived fault {d:?} missing from node {}'s faults_applied",
            d.node
        );
    }

    // Replay 2 and 4 wide: bit-identical report and journal stream.
    for width in [2usize, 4] {
        let (report, events) = run_with_journal(plan.apply(base_scenario()), width);
        assert_eq!(ref_image, image(&report), "{width}-wide faulted replay diverged");
        assert_eq!(ref_events, events, "{width}-wide faulted journal stream diverged");
    }
}

#[test]
fn derivation_is_a_pure_function_of_the_journal() {
    let (_, recorded) = run_with_journal(base_scenario(), 1);
    let a = derive_fault_plan(&recorded, &base_scenario()).expect("derive a");
    let b = derive_fault_plan(&recorded, &base_scenario()).expect("derive b");
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

#[test]
fn committed_replay_example_derives_a_nonempty_plan() {
    // The shipped example pair (scenario + recorded journal) must keep
    // working as documented in examples/scenarios/replay/README.md.
    let scenario =
        scenario_file::load(repo_path("examples/scenarios/replay/hybrid_burn_replay.json"))
            .expect("example scenario loads");
    let file = std::fs::File::open(repo_path("examples/scenarios/replay/recorded_events.jsonl"))
        .expect("committed journal exists");
    let records = read_journal(std::io::BufReader::new(file)).expect("journal parses");
    assert!(!records.is_empty());
    let plan = derive_fault_plan(&records, &scenario).expect("committed journal derives");
    assert!(!plan.is_empty(), "the committed journal must derive fault windows");
    let report = Simulation::new(plan.apply(scenario)).run();
    assert!(!report.any_shutdown(), "the example replay must survive its faults");
    assert!(report.counters_total().faults_injected > 0);
}
