//! Allocation regression test for the cluster hot path.
//!
//! The tick loop is the substrate every figure reproduction and sweep runs
//! on; a stray per-tick allocation is a silent throughput regression. This
//! harness installs a counting `#[global_allocator]` and asserts that
//! steady-state `Simulation::tick` — including the 4 Hz sampling path —
//! performs zero heap allocations once the simulation is warmed up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use unitherm_cluster::scenario::{Scenario, WorkloadSpec};
use unitherm_cluster::scheme::FanScheme;
use unitherm_cluster::sim::Simulation;
use unitherm_core::control_array::Policy;
use unitherm_obs::{EventRecord, EventSink};

/// Counts every allocation and reallocation going through the global
/// allocator (deallocations are free to happen — dropping a pre-reserved
/// buffer is not a hot-path cost), per thread: the test harness runs
/// tests and prints results on other threads at the same time. Every
/// scenario here but the 2-wide ones runs on a one-shard pool, so all of
/// the simulation's allocations land on the measuring thread's count; the
/// 2-wide runs count their coordinating thread, which builds every shard.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The allocations of at least [`LARGE`] bytes among them.
    static LARGE_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The size from which an allocation also counts as large.
const LARGE: usize = 1024;

fn count_allocation(size: usize) {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    if size >= LARGE {
        let _ = LARGE_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations performed by this thread while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of at least [`LARGE`] bytes performed by this thread while
/// running `f`.
fn large_allocations_during(f: impl FnOnce()) -> u64 {
    let before = LARGE_ALLOCATIONS.with(Cell::get);
    f();
    LARGE_ALLOCATIONS.with(Cell::get) - before
}

fn warmed(scenario: Scenario) -> Simulation {
    warm(Simulation::new(scenario))
}

fn warm(mut sim: Simulation) -> Simulation {
    // Past the spin-up transient and through many sampling ticks, so every
    // lazily-initialized path (sensor caches, controller windows) has run.
    for _ in 0..500 {
        sim.tick();
    }
    sim
}

#[test]
fn steady_state_tick_is_allocation_free() {
    let mut sim = warmed(
        Scenario::new("alloc-burn")
            .with_nodes(4)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_recording(false)
            .with_max_time(1e9),
    );
    let n = allocations_during(|| {
        for _ in 0..1000 {
            sim.tick();
        }
    });
    assert_eq!(n, 0, "steady-state tick allocated {n} times over 1000 ticks");
    // The zero-allocation window must not be an artifact of observability
    // sitting idle: the event rings and counters were live the whole time.
    let report = sim.into_report();
    let counters = report.counters_total();
    assert!(counters.samples > 0, "sampling path ran during the window");
    assert!(
        counters.events_emitted > 0,
        "dynamic-fan control under burn must emit events through the rings"
    );
    assert!(
        report.nodes.iter().any(|node| !node.events.is_empty()),
        "event rings captured events with zero heap allocations"
    );
}

#[test]
fn wrapping_rings_tick_allocation_free() {
    // Four-record rings fill during warm-up, so every event in the window
    // overwrites its ring's oldest frame.
    let mut sim = warmed(
        Scenario::new("alloc-wrap")
            .with_nodes(4)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_recording(false)
            .with_event_capacity(4)
            .with_max_time(1e9),
    );
    let dropped = |sim: Simulation| -> u64 {
        sim.into_report().nodes.iter().map(|node| node.events_dropped).sum()
    };
    let n = allocations_during(|| {
        for _ in 0..1000 {
            sim.tick();
        }
    });
    assert_eq!(n, 0, "wrapping-ring tick allocated {n} times over 1000 ticks");
    assert!(dropped(sim) > 0, "the rings wrapped");
}

#[test]
fn event_rings_are_one_allocation_per_shard() {
    // The nodes' rings are one zeroed block per shard: building with rings
    // costs exactly one allocation per shard more than building without,
    // however many nodes each shard holds. A ring of 256 records is 8 kB,
    // so the count is of large allocations: starting a 2-wide pool's
    // worker makes a timing-dependent number of small ones (channel and
    // thread bookkeeping) on the building thread.
    for width in [1, 2] {
        let build = |capacity: usize| {
            let scenario = Scenario::new("alloc-rings")
                .with_nodes(6)
                .with_workload(WorkloadSpec::CpuBurn)
                .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
                .with_recording(false)
                .with_event_capacity(capacity)
                .with_max_time(60.0);
            large_allocations_during(|| {
                let sim = Simulation::try_with_width(scenario, width).expect("valid scenario");
                assert_eq!(sim.width(), width);
                std::hint::black_box(sim);
            })
        };
        let (with_rings, without) = (build(256), build(0));
        assert_eq!(
            with_rings - without,
            width as u64,
            "{width}-wide build: {with_rings} large allocations with 256-record rings, \
             {without} without; the rings must add one block per shard"
        );
    }
}

#[test]
fn recording_run_stays_within_reserved_capacity() {
    // With series recording on, the recorders must append into the
    // capacity reserved at build time instead of growing per sample.
    let mut sim = warmed(
        Scenario::new("alloc-recorded")
            .with_nodes(2)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_max_time(300.0),
    );
    let n = allocations_during(|| {
        for _ in 0..1000 {
            sim.tick();
        }
    });
    assert_eq!(n, 0, "recording tick loop allocated {n} times over 1000 ticks");
}

#[test]
fn disabled_recording_skips_recorder_allocations_at_build() {
    // A recording-disabled run must not pay recorder heap at construction:
    // no metric-name strings, no pre-reserved series or event buffers. Pin
    // it by comparing identical builds that differ only in the recording
    // flag — the enabled build reserves several buffers per node (5 named
    // series plus the freq-event log), the disabled build none of them.
    let nodes = 8;
    let build = |record: bool| {
        Scenario::new("alloc-recorder-gate")
            .with_nodes(nodes)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_recording(record)
            .with_max_time(3600.0)
    };
    let disabled = allocations_during(|| {
        std::hint::black_box(Simulation::new(build(false)));
    });
    let enabled = allocations_during(|| {
        std::hint::black_box(Simulation::new(build(true)));
    });
    assert!(
        enabled >= disabled + 6 * nodes as u64,
        "recording-on build must reserve recorder buffers that the \
         recording-off build skips (enabled {enabled}, disabled {disabled})"
    );
}

/// A journal that only counts the records it receives, so it allocates
/// nothing itself.
struct CountingSink(Arc<AtomicU64>);

impl EventSink for CountingSink {
    fn record(&mut self, _: &EventRecord) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn journaled_tick_is_allocation_free_at_width_one_and_two() {
    // Shard 0 tees into the journal directly and shard 1 buffers into its
    // pre-reserved scratch, drained after each pass: neither route may
    // allocate on the coordinating thread.
    for width in [1, 2] {
        let scenario = Scenario::new("alloc-journal")
            .with_nodes(4)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_recording(false)
            .with_max_time(1e9);
        let mut sim = Simulation::try_with_width(scenario, width).expect("valid scenario");
        assert_eq!(sim.width(), width);
        let events = Arc::new(AtomicU64::new(0));
        sim.attach_journal(Box::new(CountingSink(Arc::clone(&events))));
        let mut sim = warm(sim);
        let before = events.load(Ordering::Relaxed);
        let n = allocations_during(|| {
            for _ in 0..1000 {
                sim.tick();
            }
        });
        assert_eq!(n, 0, "{width}-wide journaled tick allocated {n} times over 1000 ticks");
        let received = events.load(Ordering::Relaxed) - before;
        assert!(received > 0, "{width}-wide: the journal received no events in the window");
    }
}
