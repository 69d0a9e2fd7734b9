//! The persistent node-parallel worker pool behind [`crate::sim::Simulation`].
//!
//! Every simulation ticks on this pool. It shards the nodes into
//! [`pool_width`] contiguous ranges and runs the per-node halves of every
//! tick — workload advance (pass A), daemons + physics then barrier
//! release and finish detection (pass B), and the 4 Hz sampling pass —
//! over the shards. Each shard owns its nodes' plants and its ranks'
//! workloads as dense arrays; only the hooks and the sampling pass read
//! the nodes themselves. A one-shard pool spawns no thread and runs each
//! pass inline on the calling thread. A wider pool is created once per
//! simulation and persists across ticks: at a 50 ms simulated dt a tick
//! is microseconds of work, so spawn-per-tick (or even scope-per-tick)
//! would dominate the run.
//!
//! # Width
//!
//! [`pool_width`] is the one rule for how many shards a run gets; the
//! simulation, the sweep budget and the service permits all call it.
//! `Scenario::threads` is an upper bound, clamped to the host's cores and
//! to one shard per [`MIN_NODES_PER_SHARD`] nodes: below that grain the
//! pass barriers cost more than the work they split (DESIGN.md §11).
//!
//! # Determinism
//!
//! Results are bit-identical to a one-shard pool at every width:
//!
//! * per-node work is shared-nothing — a node's tick depends only on its
//!   own state plus tick-global inputs (the barrier-release decision, the
//!   rack air temperature) that are fixed before the pass starts;
//! * the two cross-node reductions are exact: the barrier flags are
//!   booleans (order-free), and rack heat is written **per node** into a
//!   scratch slot and folded by the coordinator in node order — one
//!   left-to-right f64 summation, independent of the shard layout;
//! * shard 0 runs on the coordinator and tees its events straight into the
//!   journal; shards 1, 2, … buffer theirs in pre-reserved scratch, which
//!   the coordinator drains in shard (= node) order after the pass,
//!   preserving the "tick order, node order within a tick" contract
//!   byte-for-byte.
//!
//! # Synchronization
//!
//! The coordinator publishes a [`Job`] (raw shard pointers + pass
//! parameters) under an epoch counter, executes shard 0 itself, and waits
//! for the workers' completion countdown. Workers spin briefly on the
//! epoch and then park, so an idle pool (a paused simulation, a pool
//! outliving its last tick) costs nothing; on oversubscribed machines the
//! park path keeps ticks correct, just not faster. Worker panics are
//! caught, carried across the countdown, and re-raised on the coordinator
//! thread with their original payload.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};

use crate::node_sim::NodeSim;
use crate::sim::Shard;
use unitherm_obs::EventSink;

/// The fewest nodes a shard may hold. Measured on a dynamic-fan burn with
/// recording off, two shards reliably beat one only once each holds about
/// 256 nodes (DESIGN.md §11 has the crossover table and how it was taken).
pub const MIN_NODES_PER_SHARD: usize = 256;

/// How many shards a run of `nodes` nodes asking for `threads` gets:
/// `min(threads, host cores, nodes / MIN_NODES_PER_SHARD)`, at least 1.
///
/// Results do not depend on the width, so narrowing a request only
/// removes barrier round-trips that would slow the run down. The host core
/// count is read once, and only for a request wider than one thread.
pub fn pool_width(threads: usize, nodes: usize) -> usize {
    if threads <= 1 {
        return 1;
    }
    static HOST_CORES: OnceLock<usize> = OnceLock::new();
    let cores =
        *HOST_CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    width_on(threads, nodes, cores)
}

/// [`pool_width`] on a host with `cores` cores.
fn width_on(threads: usize, nodes: usize, cores: usize) -> usize {
    threads.min(cores).min(nodes / MIN_NODES_PER_SHARD).max(1)
}

/// Which per-node pass to run over a shard.
#[derive(Clone, Copy)]
pub(crate) enum PassKind {
    /// Pass A: advance every rank's workload; fold the barrier flags.
    Workload {
        /// Physics tick, seconds.
        dt_s: f64,
        /// Whether every rank's workload runs forever (the simulation's
        /// flag; skips the per-rank state poll).
        endless: bool,
    },
    /// Pass B: hooks (per-tick daemons, due faults), the lane physics
    /// tick, per-node heat capture (when the pass is given heat slots),
    /// then optional barrier release and finish detection.
    Hardware {
        /// Physics tick, seconds.
        dt_s: f64,
        /// Simulated time after this tick.
        now_s: f64,
        /// Whether the barrier released this tick (decided from pass A).
        release: bool,
        /// Whether the workload can finish on its own (gates finish
        /// detection in `sim::rank_pass`).
        finite: bool,
    },
    /// The 4 Hz sampling pass: sensor read, control plane, recorders.
    Sample {
        /// Simulated time of the sample.
        now_s: f64,
    },
}

/// Per-shard reduction outputs of the last pass, written by the one thread
/// that ran the shard and read by the coordinator after the pass.
#[derive(Default)]
pub(crate) struct ShardOut {
    /// Pass A: every non-finished rank in the shard is parked at a barrier.
    pub unfinished_parked: bool,
    /// Pass A: at least one rank in the shard is parked at a barrier.
    pub any_parked: bool,
    /// Pass B: ranks in the shard that finished on this tick.
    pub finished_delta: usize,
}

/// One pass: everything a worker needs to process its shard.
///
/// Raw pointers stand in for the `&mut` borrows the coordinator holds; the
/// run protocol guarantees workers only dereference them between the epoch
/// publish and their completion decrement, while the coordinator is parked
/// inside [`WorkerPool::run`] and the borrows are live.
#[derive(Clone, Copy)]
struct Job {
    nodes: *mut NodeSim,
    /// Per-shard state (`width` entries); entry `s` mirrors the node range
    /// of shard `s`.
    shards: *mut Shard,
    len: usize,
    width: usize,
    kind: PassKind,
    /// Per-node heat slots (`len` entries) or null when the pass does not
    /// capture heat.
    heat: *mut f64,
    /// Whether a journal is attached, so shards 1, 2, … buffer their
    /// events in their scratch.
    teeing: bool,
}

// SAFETY: the pointers are only dereferenced under the run protocol above,
// over disjoint shard ranges.
unsafe impl Send for Job {}

struct Shared {
    /// Bumped (release) to publish `job`; workers acquire-load it.
    epoch: AtomicUsize,
    /// The published job; valid for the epoch it was published under.
    job: UnsafeCell<Option<Job>>,
    /// Workers yet to finish the current job.
    remaining: AtomicUsize,
    /// Set (then epoch bumped) to shut the pool down.
    shutdown: AtomicBool,
    /// The coordinator thread, unparked by the last finishing worker.
    coordinator: Thread,
    /// First worker panic of the current job, re-raised by the coordinator.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: `job` is written only by the coordinator before the epoch bump
// and read by workers after acquiring the new epoch; `remaining` orders the
// hand-back.
unsafe impl Sync for Shared {}

/// Spins this long on the epoch / countdown before parking. Short, so a
/// pool on an oversubscribed (or single-core) machine backs off to the
/// scheduler quickly instead of burning the very cycles the shards need.
const SPIN_LIMIT: u32 = 512;

/// The persistent pool: `width - 1` spawned workers plus the calling
/// thread, which always executes shard 0 itself.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<Thread>,
    handles: Vec<JoinHandle<()>>,
    width: usize,
}

/// The contiguous node range of shard `s` out of `shards` over `len` nodes.
pub(crate) fn shard_range(len: usize, shards: usize, s: usize) -> std::ops::Range<usize> {
    (s * len / shards)..((s + 1) * len / shards)
}

impl WorkerPool {
    /// Spawns `width - 1` workers (the coordinator is shard 0), so a
    /// one-shard pool spawns none.
    pub fn new(width: usize) -> Self {
        let shared = Arc::new(Shared {
            epoch: AtomicUsize::new(0),
            job: UnsafeCell::new(None),
            remaining: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            coordinator: std::thread::current(),
            panic: Mutex::new(None),
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<JoinHandle<()>> = (1..width)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("unitherm-shard{shard}"))
                    .spawn(move || {
                        tx.send(std::thread::current()).expect("pool creator is alive");
                        drop(tx);
                        worker_loop(&shared, shard);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        drop(tx);
        let workers: Vec<Thread> = rx.iter().take(width - 1).collect();
        Self { shared, workers, handles, width }
    }

    /// Runs one pass over `nodes`, returning when every shard (including
    /// the coordinator's own shard 0) has finished. A one-shard pool runs
    /// it inline, with nothing to publish or wait for.
    ///
    /// `shards` must hold one entry per shard; `heat`, when given, one slot
    /// per node. Shard 0 tees its events into `journal`; when a journal is
    /// given, every other shard buffers its events in its scratch for the
    /// caller to drain.
    pub fn run(
        &self,
        nodes: &mut [NodeSim],
        shards: &mut [Shard],
        kind: PassKind,
        heat: Option<&mut [f64]>,
        journal: Option<&mut (dyn EventSink + 'static)>,
    ) {
        assert_eq!(shards.len(), self.width, "one entry per shard");
        if let Some(heat) = &heat {
            assert_eq!(heat.len(), nodes.len(), "one heat slot per node");
        }
        let job = Job {
            nodes: nodes.as_mut_ptr(),
            shards: shards.as_mut_ptr(),
            len: nodes.len(),
            width: self.width,
            kind,
            heat: heat.map_or(std::ptr::null_mut(), |h| h.as_mut_ptr()),
            teeing: journal.is_some(),
        };
        if self.workers.is_empty() {
            // SAFETY: the one shard is ours alone.
            unsafe { exec_shard(&job, 0, journal) };
            return;
        }

        // Publish: countdown first, then the job, then the epoch (release)
        // so an acquiring worker sees both.
        self.shared.remaining.store(self.width - 1, Ordering::Relaxed);
        // SAFETY: workers only read `job` after the epoch bump below; no
        // other writer exists.
        unsafe { *self.shared.job.get() = Some(job) };
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.unpark();
        }

        // The coordinator is shard 0.
        // SAFETY: shard ranges are disjoint; shard 0 is ours alone.
        unsafe { exec_shard(&job, 0, journal) };

        // Wait for the workers, spinning briefly before parking; the last
        // worker unparks us.
        let mut spins = 0u32;
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        if let Some(payload) = self.shared.panic.lock().expect("panic slot").take() {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.unpark();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked outside catch_unwind already aborted
            // the process; a join error here cannot carry new information.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, shard: usize) {
    let mut seen = 0usize;
    loop {
        // Wait for a new epoch: spin briefly, then park.
        let mut spins = 0u32;
        let epoch = loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                break e;
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        };
        seen = epoch;
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // SAFETY: the coordinator published the job before this epoch and
        // keeps the underlying borrows alive until `remaining` hits 0.
        let job = unsafe { (*shared.job.get()).expect("epoch bump publishes a job") };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: disjoint shard ranges; this shard is ours alone.
            unsafe { exec_shard(&job, shard, None) };
        }));
        if let Err(payload) = result {
            shared.panic.lock().expect("panic slot").get_or_insert(payload);
        }
        if shared.remaining.fetch_sub(1, Ordering::Release) == 1 {
            shared.coordinator.unpark();
        }
    }
}

/// Processes shard `s` of the published job and leaves its reduction in
/// the shard's `out`. Events go to `journal` when given (shard 0, on the
/// coordinator), else to the shard's scratch when the job tees. The pass
/// bodies are the `crate::sim` functions, run over the shard's slice.
///
/// # Safety
/// The job's pointers must be live, and the caller must have exclusive
/// access to shard `s`'s node range, its entry of `shards` and its rows
/// of `heat` for the duration of the call.
unsafe fn exec_shard(job: &Job, s: usize, journal: Option<&mut (dyn EventSink + 'static)>) {
    let range = shard_range(job.len, job.width, s);
    let nodes = std::slice::from_raw_parts_mut(job.nodes.add(range.start), range.len());
    let Shard { lanes, workloads, finish_time_s, hooked, out, events } = &mut *job.shards.add(s);
    let journal = journal.or_else(|| job.teeing.then_some(events as &mut dyn EventSink));

    *out = match job.kind {
        PassKind::Workload { dt_s, endless } => {
            crate::sim::workload_pass(workloads, lanes, dt_s, endless)
        }
        PassKind::Hardware { dt_s, now_s, release, finite } => {
            let heat = (!job.heat.is_null())
                .then(|| std::slice::from_raw_parts_mut(job.heat.add(range.start), range.len()));
            crate::sim::hardware_pass(nodes, lanes, hooked, dt_s, now_s, heat, journal);
            let finished_delta =
                crate::sim::rank_pass(workloads, finish_time_s, release, finite, now_s);
            ShardOut { finished_delta, ..ShardOut::default() }
        }
        PassKind::Sample { now_s } => {
            crate::sim::sample_pass(nodes, lanes, now_s, journal);
            ShardOut::default()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_never_exceeds_threads_cores_or_grain() {
        for cores in [1usize, 2, 3, 8, 64] {
            for threads in [1usize, 2, 3, 4, 7, 16, 1000] {
                for nodes in [1usize, 4, 255, 256, 511, 512, 513, 1024, 10_000, 100_000] {
                    let w = width_on(threads, nodes, cores);
                    assert!(w >= 1, "{threads} threads, {nodes} nodes, {cores} cores");
                    assert!(w <= threads && w <= cores, "{w} > {threads} threads or {cores} cores");
                    if w > 1 {
                        assert!(w <= nodes / MIN_NODES_PER_SHARD, "{w} shards over {nodes} nodes");
                    }
                    if nodes < 2 * MIN_NODES_PER_SHARD {
                        assert_eq!(w, 1, "{nodes} nodes are below two shards' grain");
                    }
                }
            }
        }
        assert_eq!(width_on(2, 10_000, 2), 2, "a 10k fleet keeps its 2-shard pool");
        assert_eq!(width_on(16, 1024, 64), 4, "the grain caps a wide request");
        assert_eq!(width_on(16, 100_000, 4), 4, "the cores cap a wide request");
    }

    #[test]
    fn pool_width_clamps_to_this_host() {
        assert_eq!(pool_width(1, 100_000), 1);
        assert_eq!(pool_width(0, 100_000), 1, "a zero request still means one shard");
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(pool_width(4, 100_000), 4.min(host));
        assert_eq!(pool_width(8, 3), 1);
    }

    #[test]
    fn shard_ranges_cover_and_are_disjoint() {
        for len in [1usize, 2, 5, 7, 13, 64] {
            for shards in [1usize, 2, 3, 4, 7, 8] {
                let mut covered = 0;
                let mut prev_end = 0;
                for s in 0..shards {
                    let r = shard_range(len, shards, s);
                    assert_eq!(r.start, prev_end, "contiguous at len={len} shards={shards}");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end, len);
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn one_shard_pool_spawns_nothing_and_runs_on_the_caller() {
        use crate::scenario::{Scenario, WorkloadSpec};
        use unitherm_obs::EventRecord;
        use unitherm_simnode::faults::{FaultEvent, FaultPlan};

        /// Notes the thread each event was recorded on.
        struct ThreadSink(Vec<std::thread::ThreadId>);
        impl EventSink for ThreadSink {
            fn record(&mut self, _: &EventRecord) {
                self.0.push(std::thread::current().id());
            }
        }

        let pool = WorkerPool::new(1);
        assert!(pool.handles.is_empty() && pool.workers.is_empty(), "no worker thread");
        let scenario = Scenario::new("inline")
            .with_nodes(2)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fault(1, FaultPlan::none().at(0.1, FaultEvent::FanFailure));
        let mut lanes = unitherm_simnode::PhysicsBatch::with_len(2);
        let workloads = (0..2).map(|i| scenario.workload.instantiate(i, scenario.seed)).collect();
        let mut nodes: Vec<NodeSim> =
            (0..2).map(|i| NodeSim::build_hot(&scenario, i, Some((&mut lanes, i)))).collect();
        let mut shards = vec![Shard::new(lanes, workloads, &nodes)];
        let mut sink = ThreadSink(Vec::new());
        for tick in 1..=4 {
            let now_s = tick as f64 * 0.05;
            let kind = PassKind::Hardware { dt_s: 0.05, now_s, release: false, finite: false };
            pool.run(&mut nodes, &mut shards, kind, None, Some(&mut sink));
        }
        assert!(!sink.0.is_empty(), "the fault's event reached the journal");
        assert!(sink.0.iter().all(|&id| id == std::thread::current().id()), "ran inline");
    }

    #[test]
    fn shard_sizes_balanced_within_one() {
        for len in [5usize, 13, 64] {
            for shards in [2usize, 3, 4, 7] {
                let sizes: Vec<usize> =
                    (0..shards).map(|s| shard_range(len, shards, s).len()).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced {sizes:?} at len={len} shards={shards}");
            }
        }
    }
}
