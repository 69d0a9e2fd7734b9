//! The one measurement primitive every workload and probe uses: sample
//! summaries (median, quartiles, tail percentiles, spread), interleaved
//! arms with a noise floor, the fixed [`Gauge`] computation that gauges
//! the host's speed, and the closed loop that times operations until a
//! deadline.
//!
//! Quantiles follow Python's `statistics.quantiles(data, n)` with its
//! default `exclusive` method, so a number printed here can be checked
//! against the same formula anywhere.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::gen::Rng;

/// A summary of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// 5th percentile.
    pub p05: f64,
    /// Median (mean of the middle pair for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none or one is not
    /// finite.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|s| !s.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p05: quantile_sorted(&sorted, 1, 20),
            median: median_sorted(&sorted),
            q1: quantile_sorted(&sorted, 1, 4),
            q3: quantile_sorted(&sorted, 3, 4),
            p90: quantile_sorted(&sorted, 9, 10),
            p99: quantile_sorted(&sorted, 99, 100),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Median of an ascending slice (mean of the middle pair for even counts).
///
/// # Panics
/// On an empty slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `i`-th of the `n - 1` cut points that split an ascending slice into
/// `n` groups — `statistics.quantiles(sorted, n=n)[i - 1]` in Python
/// (exclusive method). A single sample is its own every quantile.
///
/// # Panics
/// On an empty slice or `i` outside `1..n`.
pub fn quantile_sorted(sorted: &[f64], i: usize, n: usize) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(i >= 1 && i < n, "cut point {i} of {n}");
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (i * m / n).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

/// Two arms measured under the same conditions.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// The reference arm.
    pub base: Summary,
    /// The arm compared against it.
    pub other: Summary,
    /// `other` median against `base` median, percent (positive = larger).
    pub delta_pct: f64,
    /// The larger of the two arms' spreads, percent: a delta below it
    /// cannot be told apart from noise.
    pub noise_floor_pct: f64,
}

impl Comparison {
    /// Compares two sample sets; `None` when either is empty.
    pub fn of(base: &[f64], other: &[f64]) -> Option<Comparison> {
        let (base, other) = (Summary::of(base)?, Summary::of(other)?);
        Some(Comparison {
            base,
            other,
            delta_pct: (other.median / base.median - 1.0) * 100.0,
            noise_floor_pct: base.spread().max(other.spread()) * 100.0,
        })
    }
}

/// The order in which `arms` arms run in round `round`: rounds alternate
/// between ascending and descending order (A B, B A, A B, …), so drift
/// during a run — caches warming, a neighbour's load — falls on every arm
/// alike instead of on whichever runs second.
pub fn arm_order(round: usize, arms: usize) -> Vec<usize> {
    if round.is_multiple_of(2) {
        (0..arms).collect()
    } else {
        (0..arms).rev().collect()
    }
}

/// Runs `arms` measurement arms interleaved over `rounds` rounds. `measure`
/// gets the arm index and returns one sample; the result holds each arm's
/// samples in round order.
pub fn interleaved(
    rounds: usize,
    arms: usize,
    mut measure: impl FnMut(usize) -> f64,
) -> Vec<Vec<f64>> {
    let mut samples = vec![Vec::with_capacity(rounds); arms];
    for round in 0..rounds {
        for arm in arm_order(round, arms) {
            samples[arm].push(measure(arm));
        }
    }
    samples
}

/// Host nanoseconds per call of `f`: `rounds` timed batches of `calls`
/// calls each, summarized. `f` gets the call index; its result goes
/// through `black_box`, so the call cannot be optimized away.
pub fn ns_per_call<T>(rounds: usize, calls: usize, mut f: impl FnMut(usize) -> T) -> Summary {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..calls {
                std::hint::black_box(f(i));
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    Summary::of(&samples).expect("at least one round of finite timings")
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A fixed computation that gauges how fast the host runs right now.
///
/// A shared host's speed drifts by tens of percent over minutes: neighbours
/// contend for the caches and memory, and at times the second vCPU is not
/// there at all, so two threads finish no sooner than one. Timing this
/// computation on the workload's own thread count, between the workload's
/// operations, measures the same drift, so an operation's time divided by
/// the gauge's time around it moves when the program changes and hardly
/// when the host does.
///
/// Nothing here calls the program under test, so a change to the program
/// cannot move the gauge. Each thread integrates a small RC thermal network
/// (floating point and `exp`), churns the allocator, and makes a strided
/// pass over a 4 MiB buffer of its own, larger than a server core's L2
/// cache: the three kinds of work the workloads do.
#[derive(Debug)]
pub struct Gauge {
    buffers: Vec<Vec<f64>>,
}

impl Gauge {
    /// Floats in each thread's buffer (4 MiB).
    const BUFFER: usize = 1 << 19;

    /// A gauge for `threads` threads, its buffers allocated and touched.
    pub fn new(threads: usize) -> Self {
        Gauge { buffers: vec![vec![1.0; Self::BUFFER]; threads.max(1)] }
    }

    /// Runs the computation once on every thread; returns the wall time in
    /// ms.
    pub fn time_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        if let [only] = self.buffers.as_mut_slice() {
            black_box(gauge_work(only, 0));
        } else {
            std::thread::scope(|s| {
                for (k, buf) in self.buffers.iter_mut().enumerate() {
                    s.spawn(move || black_box(gauge_work(buf, k as u64)));
                }
            });
        }
        ms(t0.elapsed())
    }
}

/// One thread's share of [`Gauge::time_ms`]: about a millisecond on a
/// current server core.
fn gauge_work(buf: &mut [f64], seed: u64) -> f64 {
    let mut rng = Rng::new(seed, 0x0EF);
    let mut temp = [40.0f64; 128];
    for _ in 0..64 {
        for (i, t) in temp.iter_mut().enumerate() {
            let util = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let power = 30.0 + 60.0 * util * (0.004 * (*t - 40.0)).exp();
            *t += (power - (0.5 + i as f64 * 1e-3) * (*t - 25.0)) * 0.01;
        }
    }
    let mut kept: Vec<Vec<f64>> = Vec::new();
    for i in 0..400 {
        let v: Vec<f64> = (0..16 + rng.below(1024)).map(|k| k as f64).collect();
        if i % 3 == 0 {
            kept.push(v);
        }
    }
    let n = buf.len();
    let mut acc = 0.0;
    for i in (0..n).step_by(8) {
        buf[i] = buf[i] * 0.5 + 1.0;
        acc += buf[(i * 7919) % n];
    }
    acc + temp.iter().sum::<f64>() + kept.len() as f64
}

/// What one closed loop measured.
#[derive(Debug, Clone, Default)]
pub struct LoopOutcome {
    /// Per-operation latency in ms, one vector per arm.
    pub latency_ms: Vec<Vec<f64>>,
    /// The input each latency was measured on, parallel to `latency_ms`.
    pub inputs: Vec<Vec<usize>>,
    /// For each latency, the index in `gauge_ms` of the last gauge timing
    /// before its operation; parallel to `latency_ms`.
    pub gauged_by: Vec<Vec<usize>>,
    /// [`Gauge::time_ms`] samples taken between the operations, in order.
    pub gauge_ms: Vec<f64>,
    /// Wall time of the timed part, seconds.
    pub wall_s: f64,
    /// Operations attempted in the timed part.
    pub attempted: u64,
    /// Operations whose outputs failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl LoopOutcome {
    /// Records one failure, keeping the first few messages.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Folds another outcome into this one (wall time is the longer of
    /// the two).
    pub fn merge(&mut self, other: LoopOutcome) {
        let arms = self.latency_ms.len().max(other.latency_ms.len());
        self.latency_ms.resize(arms, Vec::new());
        self.inputs.resize(arms, Vec::new());
        self.gauged_by.resize(arms, Vec::new());
        for (mine, theirs) in self.latency_ms.iter_mut().zip(other.latency_ms) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.inputs.iter_mut().zip(other.inputs) {
            mine.extend(theirs);
        }
        let offset = self.gauge_ms.len();
        for (mine, theirs) in self.gauged_by.iter_mut().zip(other.gauged_by) {
            mine.extend(theirs.into_iter().map(|g| g + offset));
        }
        self.gauge_ms.extend(other.gauge_ms);
        self.wall_s = self.wall_s.max(other.wall_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(message);
            }
        }
    }

    /// Arm `arm`'s median latency taken per distinct input and averaged
    /// over the inputs: what the workload's mix of operations costs, with
    /// every input weighted alike however often it ran. When every
    /// operation does the same work this is the plain median.
    pub fn typical_ms(&self, arm: usize) -> Option<f64> {
        typical(self.inputs.get(arm)?.iter().copied().zip(self.latency_ms[arm].iter().copied()))
    }

    /// Arm `arm`'s operation cost in units of the gauge's fixed
    /// computation: each latency divided by the median of the
    /// [`GAUGE_WINDOW`] gauge timings around its operation, then taken per
    /// input like [`typical_ms`](Self::typical_ms).
    pub fn relative(&self, arm: usize) -> Option<f64> {
        let n = self.gauge_ms.len();
        let local: Vec<f64> = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(GAUGE_WINDOW / 2);
                let window = &self.gauge_ms[lo..(lo + GAUGE_WINDOW).min(n)];
                Summary::of(window).map_or(f64::NAN, |s| s.median)
            })
            .collect();
        let inputs = self.inputs.get(arm)?.iter().copied();
        let ratios = self.latency_ms[arm]
            .iter()
            .zip(&self.gauged_by[arm])
            .map(|(&ms, &g)| ms / local.get(g).copied().unwrap_or(f64::NAN));
        typical(inputs.zip(ratios))
    }
}

/// Gauge timings whose median normalizes one operation in
/// [`LoopOutcome::relative`]: about a second of the run.
pub const GAUGE_WINDOW: usize = 5;

/// The per-input median of `(input, value)` pairs, averaged over the
/// inputs; `None` without a finite value.
fn typical(samples: impl Iterator<Item = (usize, f64)>) -> Option<f64> {
    let mut by_input: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (input, value) in samples {
        by_input.entry(input).or_default().push(value);
    }
    let medians: Vec<f64> =
        by_input.values().filter_map(|v| Summary::of(v)).map(|s| s.median).collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

/// Seconds between two [`Gauge`] timings in a [`closed_loop`].
pub const GAUGE_PERIOD_S: f64 = 0.25;

/// A closed loop: runs `op` back to back until `seconds` have passed, the
/// next operation starting only once the previous one returned. `op` gets
/// the arm index and returns the input it ran (an index the caller
/// chooses; operations on one input do the same work) with its latency in
/// ms (which may be a part of the operation, e.g. a job's time to its last
/// frame), or a failure message.
///
/// Before the first operation and then every [`GAUGE_PERIOD_S`], the
/// loop times `gauge` between two operations, outside any latency.
///
/// With `arms > 1` the time budget is cut into `4 × arms` equal slices
/// whose arms follow [`arm_order`], so each arm sees every phase of the
/// run.
pub fn closed_loop(
    seconds: f64,
    arms: usize,
    gauge: &mut Gauge,
    mut op: impl FnMut(usize) -> Result<(usize, f64), String>,
) -> LoopOutcome {
    let arms = arms.max(1);
    let schedule: Vec<usize> = (0..4).flat_map(|round| arm_order(round, arms)).collect();
    let slice_s = seconds / schedule.len() as f64;
    let mut out = LoopOutcome {
        latency_ms: vec![Vec::new(); arms],
        inputs: vec![Vec::new(); arms],
        gauged_by: vec![Vec::new(); arms],
        ..LoopOutcome::default()
    };
    let start = Instant::now();
    let mut next_gauge = 0.0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds {
            break;
        }
        if elapsed >= next_gauge {
            out.gauge_ms.push(gauge.time_ms());
            next_gauge = elapsed + GAUGE_PERIOD_S;
        }
        let arm = schedule[((elapsed / slice_s) as usize).min(schedule.len() - 1)];
        out.attempted += 1;
        match op(arm) {
            Ok((input, latency)) => {
                out.inputs[arm].push(input);
                out.latency_ms[arm].push(latency);
                out.gauged_by[arm].push(out.gauge_ms.len() - 1);
            }
            Err(message) => out.fail(message),
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}
