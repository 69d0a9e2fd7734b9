//! Bit-identity of the intra-run node-parallel tick loop.
//!
//! A simulation whose pool is wider than one shards its nodes across a
//! persistent worker pool; these tests pin the contract that sharding is
//! *unobservable* in the results: the full `RunReport` — every f64 trace
//! sample, every counter, every retained event record — is identical to
//! the one-shard pool's run at every thread count, including odd shard sizes,
//! rack-coupled scenarios, and runs with a cluster-wide journal attached
//! (whose "tick order, node order within a tick" stream must also not
//! move).
//!
//! These clusters are far below the nodes-per-shard grain, where
//! `Simulation::try_new` would give them a one-shard pool, so the tests force the
//! pool width with `Simulation::try_with_width` and assert it was built.

use std::sync::{Arc, Mutex};

use unitherm::cluster::{
    report_digest, DvfsScheme, FanScheme, RackConfig, RunReport, Scenario, Simulation,
    WorkloadSpec, MIN_NODES_PER_SHARD,
};
use unitherm::core::control_array::Policy;
use unitherm::core::failsafe::FailsafeConfig;
use unitherm::obs::{EventRecord, EventSink};
use unitherm::simnode::faults::{FaultEvent, FaultPlan};
use unitherm::workload::{NpbBenchmark, NpbClass};

/// Full-fidelity image of a report: the serde encoding covers every field,
/// including event streams and counters, with exact f64 text round-trips.
fn image(report: &RunReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// Builds `scenario` sharded `width` ways (capped at the node count) and
/// checks the pool really is that wide.
fn sim_at(scenario: Scenario, width: usize) -> Simulation {
    let want = width.min(scenario.nodes);
    let sim = Simulation::try_with_width(scenario, width).expect("valid scenario");
    assert_eq!(sim.width(), want, "forced width not built");
    sim
}

/// Runs `scenario` sharded `width` ways and returns the full report image.
fn run_at(scenario: Scenario, width: usize) -> String {
    image(&sim_at(scenario, width).run())
}

/// Widths the identity must hold at: even, power-of-two, and a prime that
/// leaves ragged shard sizes (and exceeds some node counts, exercising the
/// cap at `nodes`).
const WIDTHS: [usize; 3] = [2, 4, 7];

fn assert_thread_invariant(name: &str, build: impl Fn() -> Scenario) {
    let serial = run_at(build(), 1);
    for width in WIDTHS {
        let parallel = run_at(build(), width);
        assert_eq!(serial, parallel, "{name}: {width}-wide run diverged from serial");
    }
}

#[test]
fn burn_cluster_is_thread_count_invariant() {
    // 5 nodes: every thread count in the set produces uneven shards.
    assert_thread_invariant("burn", || {
        Scenario::new("par-burn")
            .with_nodes(5)
            .with_seed(0xBEEF)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_max_time(30.0)
    });
}

#[test]
fn barrier_coupled_npb_is_thread_count_invariant() {
    // The barrier release is the one cross-node decision in pass A; a BSP
    // workload exercises it every iteration.
    assert_thread_invariant("npb", || {
        Scenario::new("par-npb")
            .with_nodes(6)
            .with_seed(7)
            .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A })
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 60))
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_max_time(150.0)
    });
}

#[test]
fn rack_coupled_cluster_is_thread_count_invariant() {
    // Rack coupling adds the f64 heat reduction — the one place where a
    // naive per-shard partial sum would change the bits.
    assert_thread_invariant("rack", || {
        Scenario::new("par-rack")
            .with_nodes(13)
            .with_seed(0xAC)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 80))
            .with_rack(RackConfig::default())
            .with_max_time(30.0)
    });
}

#[test]
fn faulted_failsafe_cluster_is_thread_count_invariant() {
    // Sensor dropouts + failsafe exercise the sampling pass's trip/release
    // event emission on one node only — shard placement must not matter.
    assert_thread_invariant("failsafe", || {
        Scenario::new("par-failsafe")
            .with_nodes(5)
            .with_seed(3)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::Constant { duty: 20 })
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_failsafe(FailsafeConfig::default())
            .with_fault(
                2,
                FaultPlan::none()
                    .at(5.0, FaultEvent::SensorDropout)
                    .at(15.0, FaultEvent::SensorRestore),
            )
            .with_max_time(30.0)
    });
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

fn run_with_journal(width: usize) -> (String, Vec<EventRecord>) {
    let scenario = Scenario::new("par-journal")
        .with_nodes(5)
        .with_seed(11)
        .with_workload(WorkloadSpec::CpuBurn)
        .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
        .with_rack(RackConfig::default())
        .with_max_time(20.0);
    let sink = SharedSink::default();
    let stream = Arc::clone(&sink.0);
    let mut sim = sim_at(scenario, width);
    sim.attach_journal(Box::new(sink));
    let report = sim.run();
    let events = std::mem::take(&mut *stream.lock().expect("journal lock"));
    (image(&report), events)
}

#[test]
fn journal_stream_is_thread_count_invariant() {
    let (serial_report, serial_events) = run_with_journal(1);
    assert!(!serial_events.is_empty(), "the reference journal must capture events");
    for width in WIDTHS {
        let (report, events) = run_with_journal(width);
        assert_eq!(serial_report, report, "{width}-wide journal run diverged");
        assert_eq!(
            serial_events, events,
            "{width}-wide journal stream differs from serial (order or content)"
        );
    }
}

#[test]
fn journal_keeps_node_order_within_each_timestamp() {
    // The documented sink contract, checked structurally rather than
    // against serial: within one emission timestamp, node ids never
    // decrease (pass-B events precede sampling events at the same time, and
    // each pass drains in node order — both groups are separately sorted).
    let (_, events) = run_with_journal(4);
    for window in events.windows(2) {
        let (a, b) = (&window[0], &window[1]);
        assert!(
            b.time_s >= a.time_s,
            "journal time went backwards: {} after {}",
            b.time_s,
            a.time_s
        );
    }
}

#[test]
fn thread_knob_caps_at_node_count() {
    // More threads (or a forced width) than nodes must behave exactly like
    // nodes-many shards (the pool is capped), not hang or change results.
    let build = || {
        Scenario::new("par-cap")
            .with_nodes(2)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_max_time(10.0)
    };
    assert_eq!(run_at(build(), 1), run_at(build(), 16));
    let knob = Simulation::new(build().with_threads(16));
    assert_eq!(knob.width(), 1, "two nodes are far below the grain");
    assert_eq!(run_at(build(), 1), image(&knob.run()));
}

#[test]
fn with_threads_builds_a_pool_above_the_grain() {
    // The public path: `threads` is an upper bound that the grain and the
    // host's cores clamp, and above two shards' grain a 2-core host really
    // builds the pool — with the serial run's results.
    let build = |threads: usize| {
        Scenario::new("par-grain")
            .with_nodes(2 * MIN_NODES_PER_SHARD)
            .with_seed(0x6A1)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_recording(false)
            .with_max_time(3.0)
            .with_threads(threads)
    };
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sim = Simulation::new(build(4));
    assert_eq!(sim.width(), host.min(2), "two shards' grain, clamped to {host} core(s)");
    let serial = Simulation::new(build(1));
    assert_eq!(serial.width(), 1);
    assert_eq!(report_digest(&serial.run()), report_digest(&sim.run()));
    let small = Simulation::new(build(4).with_nodes(2 * MIN_NODES_PER_SHARD - 1));
    assert_eq!(small.width(), 1, "below two shards' grain the run is serial");
}

#[test]
fn try_new_reports_validation_errors() {
    let bad = Scenario::new("bad").with_nodes(0);
    let Err(err) = Simulation::try_new(bad) else { panic!("zero nodes must be rejected") };
    assert!(err.message().contains("need at least one node"), "{err}");
    let bad_threads = {
        let mut s = Scenario::new("bad-threads");
        s.threads = 0;
        s
    };
    let Err(err) = Simulation::try_new(bad_threads) else {
        panic!("zero threads must be rejected")
    };
    assert!(err.message().contains("worker thread"), "{err}");
}
