//! Format conformance for the two journal encodings (`docs/FORMATS.md`
//! §2 and §5): converting JSONL → `unitherm-bjl/v1` → JSONL must be
//! byte-identical — both on the committed example journal and on fresh
//! recordings, including a faulted run whose journal carries
//! `FaultInjected` events — and `derive_fault_plan` must produce the
//! same [`ReplayPlan`] no matter which encoding it reads. CI's
//! `journal-conformance` job runs this file plus the same round trip
//! through the `repro journal convert` CLI.

use unitherm::cluster::{derive_fault_plan, ReplayOptions, Scenario, Simulation};
use unitherm::experiments::scenario_file;
use unitherm::obs::{
    bjl_to_records, read_journal, records_to_bjl, EventRecord, EventSink, JournalWriter,
};

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Serializes records the exact way `Simulation::attach_journal` does, so
/// byte-identity against a recorded file is meaningful.
fn to_jsonl(records: &[EventRecord]) -> Vec<u8> {
    let mut writer = JournalWriter::new(Vec::new());
    for rec in records {
        writer.record(rec);
    }
    writer.finish().expect("in-memory journal write")
}

/// JSONL bytes → records → bjl → records → JSONL bytes, asserting identity
/// at every hop. Returns the parsed records for further checks.
fn assert_round_trip(jsonl: &[u8], dt_s: f64) -> Vec<EventRecord> {
    let records = read_journal(jsonl).expect("journal parses");
    let bjl = records_to_bjl(&records, dt_s);
    let decoded = bjl_to_records(&bjl).expect("own bjl decodes");
    assert_eq!(decoded, records, "bjl round trip changed the records");
    assert_eq!(to_jsonl(&decoded), jsonl, "jsonl -> bjl -> jsonl is not byte-identical");
    records
}

#[test]
fn committed_example_journal_round_trips_byte_identically() {
    let path = repo_path("examples/scenarios/replay/recorded_events.jsonl");
    let jsonl = std::fs::read(path).expect("committed journal exists");
    let scenario =
        scenario_file::load(repo_path("examples/scenarios/replay/hybrid_burn_replay.json"))
            .expect("committed scenario loads");
    let records = assert_round_trip(&jsonl, scenario.dt_s);
    assert!(!records.is_empty(), "committed journal must not be empty");
}

fn record_run(scenario: Scenario) -> Vec<u8> {
    let mut sim = Simulation::new(scenario);
    let buf = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    struct Sink(std::rc::Rc<std::cell::RefCell<Vec<EventRecord>>>);
    impl EventSink for Sink {
        fn record(&mut self, rec: &EventRecord) {
            self.0.borrow_mut().push(*rec);
        }
    }
    sim.attach_journal(Box::new(Sink(buf.clone())));
    sim.run();
    let records = buf.borrow();
    to_jsonl(&records)
}

#[test]
fn freshly_recorded_faulted_journal_round_trips_byte_identically() {
    // A faulted run: replay the committed journal's derived plan, so the
    // fresh journal carries `FaultInjected` events alongside the usual
    // control-plane stream.
    let jsonl = std::fs::read(repo_path("examples/scenarios/replay/recorded_events.jsonl"))
        .expect("committed journal exists");
    let scenario =
        scenario_file::load(repo_path("examples/scenarios/replay/hybrid_burn_replay.json"))
            .expect("committed scenario loads");
    let records = read_journal(jsonl.as_slice()).expect("journal parses");
    let plan =
        derive_fault_plan(&records, &scenario, &ReplayOptions::default()).expect("plan derives");
    let faulted = plan.apply(scenario);
    let dt_s = faulted.dt_s;
    let jsonl = record_run(faulted);
    let records = assert_round_trip(&jsonl, dt_s);
    assert!(
        records.iter().any(|r| matches!(r.event, unitherm::obs::Event::FaultInjected { .. })),
        "faulted scenario must journal FaultInjected events"
    );
}

#[test]
fn both_encodings_derive_identical_replay_plans() {
    let jsonl = std::fs::read(repo_path("examples/scenarios/replay/recorded_events.jsonl"))
        .expect("committed journal exists");
    let scenario =
        scenario_file::load(repo_path("examples/scenarios/replay/hybrid_burn_replay.json"))
            .expect("committed scenario loads");
    let records = read_journal(jsonl.as_slice()).expect("journal parses");
    let opts = ReplayOptions::default();

    let from_jsonl = derive_fault_plan(&records, &scenario, &opts).expect("jsonl plan derives");
    let bjl = records_to_bjl(&records, scenario.dt_s);
    let decoded = bjl_to_records(&bjl).expect("own bjl decodes");
    let from_bjl = derive_fault_plan(&decoded, &scenario, &opts).expect("bjl plan derives");

    assert!(!from_jsonl.derived.is_empty(), "committed journal must derive a non-trivial plan");
    assert_eq!(from_jsonl, from_bjl, "the two encodings derived different plans");
}
