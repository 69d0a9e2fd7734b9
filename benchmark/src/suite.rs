//! `paper-suite`: the 18 experiments of `repro all`, run in process through
//! each module's `run()`, in a seeded order per pass. Every pass must keep
//! the paper's shape (`shape_violations()` empty) and render byte-identical
//! output to the first pass.

use std::time::Instant;

use unitherm_experiments::{
    ablations, fig1, fig10, fig2, fig5, fig6, fig7, fig8, fig9, rack, scaling, straggler, table1,
    Experiment, Scale,
};

use crate::gen::{fnv1a64, suite_order};
use crate::measure::{closed_loop, ms, Gauge};
use crate::trace::Trace;
use crate::{Config, WorkloadRun};

type Runner = fn(Scale) -> Box<dyn Experiment>;

/// The experiments of `repro all`, by id.
pub const EXPERIMENTS: [(&str, Runner); 18] = [
    ("fig1", |s| Box::new(fig1::run(s))),
    ("fig2", |s| Box::new(fig2::run(s))),
    ("fig5", |s| Box::new(fig5::run(s))),
    ("fig6", |s| Box::new(fig6::run(s))),
    ("fig7", |s| Box::new(fig7::run(s))),
    ("fig8", |s| Box::new(fig8::run(s))),
    ("fig9", |s| Box::new(fig9::run(s))),
    ("fig10", |s| Box::new(fig10::run(s))),
    ("table1", |s| Box::new(table1::run(s))),
    ("ablate-window", |s| Box::new(ablations::window_levels(s))),
    ("ablate-l1size", |s| Box::new(ablations::l1_size(s))),
    ("ablate-fill", |s| Box::new(ablations::fill_rule(s))),
    ("ablate-hybrid", |s| Box::new(ablations::hybrid_isolation(s))),
    ("ablate-hysteresis", |s| Box::new(ablations::tdvfs_hysteresis(s))),
    ("feedforward", |s| Box::new(ablations::feedforward(s))),
    ("rack", |s| Box::new(rack::run(s))),
    ("straggler", |s| Box::new(straggler::run(s))),
    ("scaling", |s| Box::new(scaling::run(s))),
];

/// How much of the suite a run covers.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// The first `experiments` entries of [`EXPERIMENTS`].
    pub experiments: usize,
    /// Experiment scale.
    pub scale: Scale,
}

impl Size {
    /// What `repro all` runs.
    pub const FULL: Size = Size { experiments: EXPERIMENTS.len(), scale: Scale::Full };
}

/// Checks one pass and the render digests it produced against the first
/// pass's (`reference`, filled in by the first pass that sees each id).
fn check_pass(
    outputs: &[(usize, Vec<String>, u64)],
    reference: &mut [Option<u64>],
) -> Result<(), String> {
    for (i, violations, digest) in outputs {
        let id = EXPERIMENTS[*i].0;
        if !violations.is_empty() {
            return Err(format!("{id}: shape violations: {}", violations.join("; ")));
        }
        match reference[*i] {
            None => reference[*i] = Some(*digest),
            Some(want) if want != *digest => {
                return Err(format!("{id}: rendered output changed between passes"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Runs one pass in `order`: each experiment, its shape check and its
/// rendering. Returns per-experiment violations and render digests. With a
/// trace, every experiment is a child span of `parent`.
pub fn pass(
    order: &[usize],
    scale: Scale,
    mut trace: Option<(&mut Trace, u32)>,
) -> Vec<(usize, Vec<String>, u64)> {
    order
        .iter()
        .map(|&i| {
            let (id, run) = EXPERIMENTS[i];
            let span = trace
                .as_mut()
                .map(|(t, parent)| t.begin(format!("experiment:{id}"), Some(*parent)));
            let result = run(scale);
            let violations = result.shape_violations();
            let text = result.render();
            if let (Some((t, _)), Some(span)) = (trace.as_mut(), span) {
                t.end(span);
            }
            (i, violations, fnv1a64(text.as_bytes()))
        })
        .collect()
}

/// The time to the suite's first result: one pass from a cold process.
pub fn first_result(seed: u64, size: Size) -> Result<(), String> {
    let order: Vec<usize> = suite_order(seed, 0, EXPERIMENTS.len())
        .into_iter()
        .filter(|&i| i < size.experiments)
        .collect();
    check_pass(&pass(&order, size.scale, None), &mut vec![None; EXPERIMENTS.len()])
}

/// Runs the workload: one warm-up pass, then passes until the time budget
/// is spent.
pub fn run(cfg: &Config, size: Size) -> WorkloadRun {
    let mut reference = vec![None; EXPERIMENTS.len()];
    let order_for = |pass_no: u64| -> Vec<usize> {
        suite_order(cfg.seed, pass_no, EXPERIMENTS.len())
            .into_iter()
            .filter(|&i| i < size.experiments)
            .collect()
    };
    let mut run = WorkloadRun::new(cfg);
    run.outcome.attempted += 1;
    if let Err(e) = check_pass(&pass(&order_for(0), size.scale, None), &mut reference) {
        run.outcome.fail(format!("warm-up pass: {e}"));
    }

    let mut pass_no = 0;
    let mut trace = run.trace.take();
    let outcome = closed_loop(cfg.seconds, cfg.arms(), &mut Gauge::new(cfg.threads), |arm| {
        pass_no += 1;
        let order = order_for(pass_no);
        let t0 = Instant::now();
        let outputs = match (arm, trace.as_mut()) {
            (1, Some(t)) => {
                let span = t.begin("pass", None);
                let outputs = pass(&order, size.scale, Some((&mut *t, span)));
                t.end(span);
                outputs
            }
            _ => pass(&order, size.scale, None),
        };
        let latency = ms(t0.elapsed());
        check_pass(&outputs, &mut reference).map(|()| (0, latency))
    });
    run.trace = trace;
    run.outcome.merge(outcome);

    let mut all = 0xcbf2_9ce4_8422_2325u64;
    for (i, digest) in reference.iter().enumerate() {
        if let Some(d) = digest {
            all = crate::gen::fnv1a64_extend(
                all,
                format!("{}={d:016x}\n", EXPERIMENTS[i].0).as_bytes(),
            );
        }
    }
    run.digests.push(("render".into(), format!("fnv1a64:{all:016x}")));
    if let Some(s) = run.latency_summary() {
        run.notes.push(("suite_s", s.median / 1e3, "s"));
    }
    run
}
