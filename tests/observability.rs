//! End-to-end properties of the observability layer.
//!
//! The event journal is the audit trail for every control decision a run
//! makes, so its invariants have to hold for *any* scenario: events arrive
//! in non-decreasing tick time, tDVFS releases never appear without a
//! preceding engagement, the counters agree with the journal, and every
//! record survives a JSONL round trip.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use unitherm::cluster::{DvfsScheme, FanScheme, Scenario, Simulation, WorkloadSpec};
use unitherm::core::control_array::Policy;
use unitherm::obs::{read_journal, Event, EventRecord, EventSink, JournalWriter};

/// A sink whose storage outlives the simulation that owns it, so the
/// journal can be inspected after `into_report` consumes the box.
#[derive(Clone, Default)]
struct SharedSink(Rc<RefCell<Vec<EventRecord>>>);

impl EventSink for SharedSink {
    fn record(&mut self, rec: &EventRecord) {
        self.0.borrow_mut().push(*rec);
    }
}

/// Strategy over control schemes that exercise distinct event kinds: pure
/// fan control, a weak fan that forces tDVFS engagements, and the
/// feedforward + governor combination.
fn scheme() -> impl Strategy<Value = (FanScheme, DvfsScheme)> {
    prop_oneof![
        Just((FanScheme::dynamic(Policy::MODERATE, 100), DvfsScheme::None)),
        Just((FanScheme::dynamic(Policy::MODERATE, 20), DvfsScheme::tdvfs(Policy::MODERATE))),
        Just((FanScheme::dynamic_feedforward(Policy::MODERATE, 50), DvfsScheme::cpuspeed())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn journal_events_are_ordered_paired_and_counted(
        nodes in 1usize..=4,
        seed in any::<u64>(),
        fan_dvfs in scheme(),
        max_time in 30.0f64..90.0,
    ) {
        let (fan, dvfs) = fan_dvfs;
        let journal = SharedSink::default();
        let scenario = Scenario::new("obs-fuzz")
            .with_nodes(nodes)
            .with_seed(seed)
            .with_fan(fan)
            .with_dvfs(dvfs)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_max_time(max_time);
        let mut sim = Simulation::new(scenario);
        sim.attach_journal(Box::new(journal.clone()));
        let report = sim.run();
        let events = journal.0.borrow();

        // Global ordering: the journal sees ticks in wall order, so event
        // time must be non-decreasing across the whole stream.
        for pair in events.windows(2) {
            prop_assert!(
                pair[1].time_s >= pair[0].time_s,
                "journal time went backwards: {:?} then {:?}", pair[0], pair[1],
            );
        }

        // Every record names a node that exists.
        for rec in events.iter() {
            prop_assert!((rec.node as usize) < nodes, "unknown node in {rec:?}");
        }

        // tDVFS pairing per node: a release only makes sense after at least
        // one engagement since the previous release (one scale-*up* step per
        // release, but possibly several scale-down steps before it).
        for node in 0..nodes as u32 {
            let mut engaged_since_release = 0u32;
            for rec in events.iter().filter(|r| r.node == node) {
                match rec.event {
                    Event::TdvfsEngage { .. } => engaged_since_release += 1,
                    Event::TdvfsRelease { .. } => {
                        prop_assert!(
                            engaged_since_release > 0,
                            "node {node}: TdvfsRelease without a prior TdvfsEngage",
                        );
                        engaged_since_release = 0;
                    }
                    _ => {}
                }
            }
        }

        // The journal is teed from the same observer that bumps the
        // counters, so the counts must agree exactly.
        let totals = report.counters_total();
        prop_assert_eq!(events.len() as u64, totals.events_emitted);
        prop_assert_eq!(
            totals.tdvfs_engagements,
            events.iter().filter(|r| matches!(r.event, Event::TdvfsEngage { .. })).count() as u64
        );
        prop_assert_eq!(
            totals.tdvfs_releases,
            events.iter().filter(|r| matches!(r.event, Event::TdvfsRelease { .. })).count() as u64
        );
    }

    /// Every event stream a real run produces survives the JSONL journal
    /// round trip record-for-record.
    #[test]
    fn journal_jsonl_round_trips(seed in any::<u64>()) {
        let ring = SharedSink::default();
        let scenario = Scenario::new("obs-roundtrip")
            .with_nodes(2)
            .with_seed(seed)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 20))
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_workload(WorkloadSpec::CpuBurn)
            .with_max_time(60.0);
        let mut sim = Simulation::new(scenario);
        sim.attach_journal(Box::new(ring.clone()));
        sim.run();
        let events = ring.0.borrow();
        prop_assert!(!events.is_empty(), "burn run under a weak fan must emit events");

        let mut writer = JournalWriter::new(Vec::new());
        for rec in events.iter() {
            writer.record(rec);
        }
        let bytes = writer.finish().expect("in-memory journal cannot fail");
        let parsed = read_journal(std::io::Cursor::new(bytes)).expect("writer output parses");
        prop_assert_eq!(parsed.len(), events.len());
        for (a, b) in parsed.iter().zip(events.iter()) {
            prop_assert_eq!(a, b);
        }
    }
}

/// A small ring keeps exactly the newest records of its node's stream and
/// counts the rest as dropped, on the serial loop and on the worker pool.
#[test]
fn event_ring_keeps_the_newest_records_and_counts_the_rest() {
    const CAPACITY: usize = 4;
    let scenario = Scenario::new("obs-ring")
        .with_nodes(4)
        .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
        .with_workload(WorkloadSpec::CpuBurn)
        .with_event_capacity(CAPACITY)
        .with_max_time(120.0);
    for width in [1, 2] {
        let journal = SharedSink::default();
        let mut sim = Simulation::try_with_width(scenario.clone(), width).expect("valid scenario");
        assert_eq!(sim.width(), width);
        sim.attach_journal(Box::new(journal.clone()));
        let report = sim.run();
        let events = journal.0.borrow();
        for (node, nr) in report.nodes.iter().enumerate() {
            let stream: Vec<EventRecord> =
                events.iter().filter(|r| r.node as usize == node).copied().collect();
            assert!(
                stream.len() > CAPACITY,
                "width {width} node {node}: only {} events, the ring never wrapped",
                stream.len()
            );
            assert_eq!(
                nr.events[..],
                stream[stream.len() - CAPACITY..],
                "width {width} node {node}: ring is not the journal's newest records"
            );
            assert_eq!(
                nr.events_dropped,
                nr.counters.events_emitted - nr.events.len() as u64,
                "width {width} node {node}: dropped count"
            );
        }
    }
}
