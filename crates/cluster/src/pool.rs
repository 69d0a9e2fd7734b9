//! The process's one worker pool, and the per-shard passes of a simulation.
//!
//! Every simulation ticks through this module. It shards the nodes into
//! [`pool_width`] contiguous ranges and runs the per-node halves of every
//! tick — workload advance (pass A), daemons + physics then barrier
//! release and finish detection (pass B), and the 4 Hz sampling pass —
//! over the shards. Each shard owns its nodes' plants and its ranks'
//! workloads as dense arrays; only the hooks and the sampling pass read
//! the nodes themselves. A one-shard simulation runs each pass inline.
//!
//! # One pool, one claim rule
//!
//! A process has one pool of `host cores − 1` helper threads, started by
//! the first post that wants one (a one-core host starts none). Sweep jobs
//! (`crate::sweep`) and shards 1, 2, … of a pass are posted to it under
//! one rule:
//!
//! * for `n`-wide work the poster posts up to `n − 1` helper tasks, then
//!   claims items from the same atomic cursor itself;
//! * it waits only for items a helper has already claimed, never for a
//!   helper to wake;
//! * every claimed item runs under `catch_unwind`, and the poster re-raises
//!   the lowest-index panic once every claimed item has finished.
//!
//! A pass's coordinator always runs shard 0 itself (the journal tee below
//! needs it), and posting a pass allocates nothing: the claim state is the
//! simulation's, and the coordinator takes its task off the board before
//! it returns. No claimed item waits on a post, so nested or concurrent
//! work cannot deadlock and adds no thread. Idle helpers and waiting
//! posters spin briefly, then park.
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
//! Results are bit-identical to a one-shard run at every width, whichever
//! thread runs which shard:
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

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock};
use std::thread::Thread;

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
    width_on(threads, nodes, host_cores())
}

/// The cores this process may run on (its affinity mask and CPU quota
/// count), read once per process. The pool width and the sweep budget
/// both clamp to it, and the pool has one helper fewer.
pub(crate) fn host_cores() -> usize {
    static HOST_CORES: OnceLock<usize> = OnceLock::new();
    *HOST_CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// [`pool_width`] on a host with `cores` cores.
pub(crate) fn width_on(threads: usize, nodes: usize, cores: usize) -> usize {
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

/// One pass: everything a thread needs to process a shard of it.
///
/// Raw pointers stand in for the `&mut` borrows the coordinator holds. A
/// helper dereferences them only for a shard it claimed, and the
/// coordinator stays inside [`Passes::run`], with the borrows live, until
/// every claimed shard has finished.
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

// SAFETY: the pointers are only dereferenced under the claim rule above,
// over disjoint shard ranges.
unsafe impl Send for Job {}

/// Spins this long on the post counter / the outstanding claims before
/// parking. Short, so an oversubscribed (or single-core) machine backs off
/// to the scheduler quickly instead of burning the cycles the work needs.
const SPIN_LIMIT: u32 = 512;

/// The contiguous node range of shard `s` out of `shards` over `len` nodes.
pub(crate) fn shard_range(len: usize, shards: usize, s: usize) -> std::ops::Range<usize> {
    (s * len / shards)..((s + 1) * len / shards)
}

/// The claim state of one piece of posted work: items `start..end` are
/// claimed from one cursor, and the poster waits for those not finished.
struct Claims {
    /// The next unclaimed item; runs past `end` once the work is drained.
    /// Relaxed: an item's inputs reach a helper through the board lock it
    /// made its first claim under.
    next: AtomicUsize,
    /// One past the last item.
    end: usize,
    /// Items not yet finished, claimed or not. `finish` releases and
    /// `wait` acquires, so the poster sees every item's writes.
    remaining: AtomicUsize,
    /// The lowest-index panic so far, with its payload.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

impl Claims {
    fn new(end: usize) -> Self {
        let (next, remaining) = (AtomicUsize::new(0), AtomicUsize::new(end));
        Self { next, end, remaining, panic: Mutex::new(None) }
    }

    /// Reopens items `start..end`. Only between posts, when no helper
    /// holds a claim; the next post publishes it under the board lock.
    fn open(&self, start: usize) {
        self.remaining.store(self.end - start, Ordering::Relaxed);
        self.next.store(start, Ordering::Relaxed);
    }

    /// Claims the next item, if one is left.
    fn claim(&self) -> Option<usize> {
        let item = self.next.fetch_add(1, Ordering::Relaxed);
        (item < self.end).then_some(item)
    }

    /// Runs item `item`, keeping its panic if no lower item's is kept.
    fn run(&self, item: usize, body: impl FnOnce()) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(body)) {
            let mut slot = self.panic.lock().expect("panic slot");
            if slot.as_ref().is_none_or(|(first, _)| item < *first) {
                *slot = Some((item, payload));
            }
        }
    }

    /// Marks one claimed item finished; true for the last one.
    fn finish(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::Release) == 1
    }

    /// Waits until every item has finished (the thread finishing the last
    /// one unparks the poster), then re-raises the lowest-index panic.
    fn wait(&self) {
        let mut spins = 0u32;
        while self.remaining.load(Ordering::Acquire) != 0 {
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        if let Some((_, payload)) = self.panic.lock().expect("panic slot").take() {
            panic::resume_unwind(payload);
        }
    }
}

/// What a posted task's items are.
#[derive(Clone)]
enum Items {
    /// Shards of one simulation pass.
    Pass(Job),
    /// Items of work the closure keeps alive, such as a sweep's jobs.
    Shared(Arc<dyn Fn(usize) + Send + Sync>),
}

/// Posted work: its items and their claim state.
#[derive(Clone)]
struct Task {
    claims: Arc<Claims>,
    items: Items,
}

impl Task {
    /// Runs claimed item `item` under `catch_unwind`.
    fn run(&self, item: usize) {
        self.claims.run(item, || match &self.items {
            // SAFETY: `item` is a shard this thread claimed; its poster
            // waits for it with the pass's borrows live.
            Items::Pass(job) => unsafe { exec_shard(job, item, None) },
            Items::Shared(body) => body(item),
        });
    }

    /// A helper's turn on the task, from its first claimed item on. Each
    /// next claim is made before the item before it is marked finished, so
    /// the poster is still waiting and the task's borrows are live.
    fn help(&self, mut item: usize, poster: &Thread) {
        loop {
            self.run(item);
            let next = self.claims.claim();
            if self.claims.finish() {
                poster.unpark();
            }
            let Some(n) = next else { return };
            item = n;
        }
    }
}

/// A task on the board.
struct Posted {
    task: Task,
    /// Helpers that may still take the task.
    seats: usize,
    /// The poster, unparked by the helper that finishes the last item.
    poster: Thread,
}

/// The posted tasks and the parked helpers, behind one lock.
struct Board {
    /// Tasks with seats left, oldest first.
    posts: Vec<Posted>,
    /// Helpers parked until the next post.
    parked: Vec<Thread>,
}

impl Board {
    /// Takes a seat on the oldest task with an item left and claims the
    /// item under the lock, where every task's poster is still working it.
    /// Drained tasks leave on the way.
    fn take(&mut self) -> Option<(Task, Thread, usize)> {
        while let Some(posted) = self.posts.first_mut() {
            let Some(item) = posted.task.claims.claim() else {
                self.posts.remove(0);
                continue;
            };
            posted.seats -= 1;
            let taken = (posted.task.clone(), posted.poster.clone(), item);
            if posted.seats == 0 {
                self.posts.remove(0);
            }
            return Some(taken);
        }
        None
    }
}

static BOARD: Mutex<Board> = Mutex::new(Board { posts: Vec::new(), parked: Vec::new() });

/// Bumped after every post; idle helpers spin on it before parking. It
/// only prompts a helper to look: the board lock publishes the posts.
static POSTS: AtomicUsize = AtomicUsize::new(0);

fn board() -> MutexGuard<'static, Board> {
    BOARD.lock().expect("pool board")
}

/// How many helpers the process has: `host cores − 1`, started on the
/// first call. A helper that cannot be spawned only means fewer of them:
/// posters run whatever no helper claims.
fn helpers() -> usize {
    static STARTED: Once = Once::new();
    STARTED.call_once(|| {
        board().posts.reserve(host_cores());
        for _ in 1..host_cores() {
            let _ = std::thread::Builder::new().name("unitherm-helper".into()).spawn(serve);
        }
    });
    host_cores() - 1
}

/// A helper's life: help the oldest task with an item left; when there is
/// none, spin on the post counter, then park until a poster unparks it.
fn serve() {
    let me = std::thread::current();
    loop {
        let seen = POSTS.load(Ordering::Relaxed);
        let mut board = board();
        board.parked.retain(|h| h.id() != me.id());
        if let Some((task, poster, item)) = board.take() {
            drop(board);
            task.help(item, &poster);
            continue;
        }
        board.parked.push(me.clone());
        drop(board);
        let mut spins = 0u32;
        while POSTS.load(Ordering::Relaxed) == seen && spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        }
        if POSTS.load(Ordering::Relaxed) == seen {
            std::thread::park();
        }
    }
}

/// Runs `task` by the claim rule (module docs): posts it for up to `seats`
/// helpers, runs `first` (an item the poster keeps outside the cursor),
/// claims what is left, takes the task off the board and waits.
fn run_task(task: Task, seats: usize, first: impl FnOnce()) {
    let seats = if seats == 0 { 0 } else { seats.min(helpers()) };
    if seats > 0 {
        let mut board = board();
        let poster = std::thread::current();
        board.posts.push(Posted { task: task.clone(), seats, poster });
        for _ in 0..seats {
            let Some(helper) = board.parked.pop() else { break };
            helper.unpark();
        }
        drop(board);
        POSTS.fetch_add(1, Ordering::Relaxed);
    }
    first();
    while let Some(item) = task.claims.claim() {
        task.run(item);
        task.claims.finish();
    }
    if seats > 0 {
        board().posts.retain(|p| !Arc::ptr_eq(&p.task.claims, &task.claims));
    }
    task.claims.wait();
}

/// Runs `body` on every item of `0..items`, on the caller plus up to
/// `seats` helpers, by the claim rule (module docs), re-raising the
/// lowest-index panic.
pub(crate) fn run_items(items: usize, seats: usize, body: Arc<dyn Fn(usize) + Send + Sync>) {
    let task = Task { claims: Arc::new(Claims::new(items)), items: Items::Shared(body) };
    run_task(task, seats, || {});
}

/// A simulation's passes: the claim state every pass over its `width`
/// shards reopens, so posting one allocates nothing.
pub(crate) struct Passes(Arc<Claims>);

impl Passes {
    pub fn new(width: usize) -> Self {
        Self(Arc::new(Claims::new(width)))
    }

    /// Runs one pass over `nodes`, returning when every shard has finished
    /// (re-raising the lowest-index shard's panic). The calling thread runs
    /// shard 0 and posts shards 1, 2, … for up to `width − 1` helpers; a
    /// one-shard pass runs inline.
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
        let width = self.0.end;
        assert_eq!(shards.len(), width, "one entry per shard");
        if let Some(heat) = &heat {
            assert_eq!(heat.len(), nodes.len(), "one heat slot per node");
        }
        let job = Job {
            nodes: nodes.as_mut_ptr(),
            shards: shards.as_mut_ptr(),
            len: nodes.len(),
            width,
            kind,
            heat: heat.map_or(std::ptr::null_mut(), |h| h.as_mut_ptr()),
            teeing: journal.is_some(),
        };
        if width == 1 {
            // SAFETY: the one shard is ours alone.
            unsafe { exec_shard(&job, 0, journal) };
            return;
        }
        self.0.open(1);
        let task = Task { claims: Arc::clone(&self.0), items: Items::Pass(job) };
        // SAFETY: shard 0 is the coordinator's alone; the cursor hands out
        // shards 1, 2, … once each.
        run_task(task, width - 1, || self.0.run(0, || unsafe { exec_shard(&job, 0, journal) }));
    }
}

/// Processes shard `s` of the job and leaves its reduction in
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
    let Shard { lanes, rings, workloads, finish_time_s, hooked, out, events } =
        &mut *job.shards.add(s);
    let journal = journal.or_else(|| job.teeing.then_some(events as &mut dyn EventSink));

    *out = match job.kind {
        PassKind::Workload { dt_s, endless } => {
            crate::sim::workload_pass(workloads, lanes, dt_s, endless)
        }
        PassKind::Hardware { dt_s, now_s, release, finite } => {
            crate::sim::hardware_pass(nodes, lanes, rings, hooked, dt_s, now_s, journal);
            if !job.heat.is_null() {
                lanes.write_heat(std::slice::from_raw_parts_mut(
                    job.heat.add(range.start),
                    range.len(),
                ));
            }
            let finished_delta =
                crate::sim::rank_pass(workloads, finish_time_s, release, finite, now_s);
            ShardOut { finished_delta, ..ShardOut::default() }
        }
        PassKind::Sample { now_s } => {
            crate::sim::sample_pass(nodes, lanes, rings, now_s, journal);
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
    fn one_shard_pass_runs_on_the_caller_and_a_wide_one_leaves_no_post() {
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

        for width in [1, 2] {
            let scenario = Scenario::new("inline")
                .with_nodes(2)
                .with_workload(WorkloadSpec::CpuBurn)
                .with_fault(0, FaultPlan::none().at(0.1, FaultEvent::FanFailure));
            let mut shards = Vec::new();
            let mut nodes: Vec<NodeSim> = Vec::new();
            for s in 0..width {
                let range = shard_range(2, width, s);
                let mut lanes = unitherm_simnode::PhysicsBatch::with_len(range.len());
                let rings = unitherm_obs::EventRings::try_new(range.len(), 64).unwrap();
                let workloads = range
                    .clone()
                    .map(|i| scenario.workload.instantiate(i, scenario.seed))
                    .collect();
                let first = nodes.len();
                for (j, i) in range.enumerate() {
                    nodes.push(NodeSim::build_hot(&scenario, i, Some((&mut lanes, j))));
                }
                shards.push(Shard::new(lanes, rings, workloads, &nodes[first..]));
            }
            let passes = Passes::new(width);
            let mut sink = ThreadSink(Vec::new());
            for tick in 1..=4 {
                let now_s = tick as f64 * 0.05;
                let kind = PassKind::Hardware { dt_s: 0.05, now_s, release: false, finite: false };
                passes.run(&mut nodes, &mut shards, kind, None, Some(&mut sink));
                assert!(
                    board().posts.iter().all(|p| !Arc::ptr_eq(&p.task.claims, &passes.0)),
                    "{width}-wide pass left its task on the board"
                );
            }
            // Node 0 is shard 0's, which the coordinator always runs.
            assert!(!sink.0.is_empty(), "the fault's event reached the journal");
            assert!(sink.0.iter().all(|&id| id == std::thread::current().id()), "ran inline");
        }
    }

    #[test]
    fn every_item_runs_once_and_the_lowest_index_panic_is_reraised() {
        for seats in [0usize, 1, 3, 16] {
            let hits: Arc<Vec<AtomicUsize>> =
                Arc::new((0..40).map(|_| AtomicUsize::new(0)).collect());
            let counted = Arc::clone(&hits);
            run_items(40, seats, Arc::new(move |i| _ = counted[i].fetch_add(1, Ordering::Relaxed)));
            assert!(hits.iter().all(|n| n.load(Ordering::Relaxed) == 1), "{seats} seats");

            let panicking = Arc::new(|i: usize| assert!(i % 7 != 3, "item {i}"));
            let err = panic::catch_unwind(|| run_items(40, seats, panicking))
                .expect_err("items 3, 10, 17, … panic");
            let msg = err.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("item 3"), "{seats} seats");
        }
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
