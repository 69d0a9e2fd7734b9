//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--fast] [--csv DIR]
//! repro run-scenario <file.json> [--journal OUT] [--journal-format jsonl|bjl]
//!                    [--replay-faults IN] [--digest]
//! repro journal convert <IN> <OUT> [--dt S]
//! repro chaos-search <file.json> [--out CORPUS.json] [--seed N] [--budget N]
//!                    [--batch N] [--threads N] [--predicate P]
//!
//! experiments:
//!   fig1 fig2 fig5 fig6 fig7 fig8 fig9 fig10 table1
//!   ablate-window ablate-l1size ablate-fill ablate-hybrid ablate-hysteresis
//!   feedforward rack scaling
//!   all            run everything
//!
//! `run-scenario` executes a JSON scenario file (see examples/scenarios/)
//! and prints its report. `--journal OUT` streams every control-plane
//! event to a journal as the run executes — JSONL by default,
//! `--journal-format bjl` for the compact fixed-width `unitherm-bjl/v1`
//! binary encoding; `--replay-faults IN` reads either a journal recorded by
//! an earlier run in either encoding, sniffed from the file (faults land at
//! the exact ticks where that run made interesting decisions), or a
//! chaos-search counterexample corpus (entry 0's fault windows are
//! installed and the resulting report digest is checked against the corpus)
//! — see docs/FORMATS.md and DESIGN.md §12–§13. The two flags compose:
//! replay a faulted run while recording its journal to diff fault delivery
//! against the plan. `--digest` prints the report's FNV-1a digest
//! (`fnv1a64:…`) on stdout — the same digest `unitherm-serve` reports for a
//! submitted job, so operators can check service runs against direct CLI
//! runs (docs/API.md).
//!
//! `journal convert` translates a journal between the JSONL and binary
//! encodings (direction inferred from the input's magic bytes); `--dt S`
//! sets the tick width stamped into the binary header on the jsonl→bjl
//! direction (default 0.05, the standard scenario tick). The conversion is
//! lossless and round-trips byte-identically.
//!
//! `chaos-search` runs the seeded adversarial search (DESIGN.md §13) over a
//! scenario, hunting the cheapest fault sequence that flips the outcome
//! predicate P (one of `failsafe-trip`, `thermal-limit:<°C>`, `shutdown`,
//! `completion-miss`, `sla-miss:<seconds>`; default `failsafe-trip`). The
//! ranked counterexample corpus is written to `--out` (default
//! `chaos_corpus.json`); exit code 1 when no counterexample was found.
//! ```
//!
//! Exit code 0 when every run experiment reproduces the paper's shape; 1 on
//! shape violations or bad usage.

use std::path::PathBuf;
use std::process::ExitCode;

use unitherm_cluster::chaos::{chaos_search, report_digest, ChaosConfig, OutcomePredicate};
use unitherm_experiments::{
    ablations, fig1, fig10, fig2, fig5, fig6, fig7, fig8, fig9, rack, scaling, scenario_file,
    straggler, table1, Experiment, Scale,
};
use unitherm_obs::{Event, EventRecord, EventSink};

const ALL: &[&str] = &[
    "fig1",
    "fig2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table1",
    "ablate-window",
    "ablate-l1size",
    "ablate-fill",
    "ablate-hybrid",
    "ablate-hysteresis",
    "feedforward",
    "rack",
    "straggler",
    "scaling",
];

fn usage() -> String {
    format!(
        "usage: repro <experiment> [--fast] [--csv DIR]\n       repro run-scenario <file.json> [--journal OUT] [--journal-format jsonl|bjl] [--replay-faults IN.jsonl|IN.bjl|CORPUS.json] [--digest]\n       repro journal convert <IN> <OUT> [--dt S]\n       repro chaos-search <file.json> [--out CORPUS.json] [--seed N] [--budget N] [--batch N] [--threads N] [--predicate failsafe-trip|thermal-limit:<C>|shutdown|completion-miss|sla-miss:<S>]\n       experiments: {} all",
        ALL.join(" ")
    )
}

/// The `journal convert <IN> <OUT> [--dt S]` subcommand: lossless
/// translation between the JSONL and `unitherm-bjl/v1` journal encodings,
/// direction inferred from the input's magic bytes.
fn journal_convert_mode(args: &[String]) -> ExitCode {
    let (Some(input), Some(output)) = (args.first(), args.get(1)) else {
        eprintln!("journal convert requires <IN> and <OUT> paths\n{}", usage());
        return ExitCode::FAILURE;
    };
    let mut dt_s = 0.05f64;
    let mut it = args.iter().skip(2);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dt" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v.is_finite() && v > 0.0 => dt_s = v,
                _ => {
                    eprintln!("--dt wants a positive tick width in seconds\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unexpected argument {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    match scenario_file::convert_journal(input, output, dt_s) {
        Ok(desc) => {
            eprint!("{desc}");
            eprintln!("written to {output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses a `--predicate` string into an [`OutcomePredicate`].
fn parse_predicate(s: &str) -> Result<OutcomePredicate, String> {
    match s {
        "failsafe-trip" => Ok(OutcomePredicate::FailsafeTrip),
        "shutdown" => Ok(OutcomePredicate::Shutdown),
        "completion-miss" => Ok(OutcomePredicate::CompletionMiss),
        _ => {
            if let Some(v) = s.strip_prefix("thermal-limit:") {
                let limit_c: f64 =
                    v.parse().map_err(|_| format!("thermal-limit wants a °C number, got {v:?}"))?;
                Ok(OutcomePredicate::ThermalLimit { limit_c })
            } else if let Some(v) = s.strip_prefix("sla-miss:") {
                let max_exec_time_s: f64 =
                    v.parse().map_err(|_| format!("sla-miss wants seconds, got {v:?}"))?;
                Ok(OutcomePredicate::SlaMiss { max_exec_time_s })
            } else {
                Err(format!(
                    "unknown predicate {s:?} (want failsafe-trip, thermal-limit:<C>, shutdown, completion-miss, or sla-miss:<S>)"
                ))
            }
        }
    }
}

/// Streams chaos-search progress lines to stderr as they arrive.
struct StderrProgress;

impl EventSink for StderrProgress {
    fn record(&mut self, rec: &EventRecord) {
        if let Event::SearchProgress { phase, evaluated, counterexamples, best_cost } = rec.event {
            let best = if best_cost == u64::MAX { "-".to_string() } else { best_cost.to_string() };
            eprintln!(
                "  [{phase:?}] evaluated={evaluated} counterexamples={counterexamples} best_cost={best}"
            );
        }
    }
}

/// The `chaos-search` subcommand: adversarial search for the cheapest
/// outcome-flipping fault sequence, written out as a replayable corpus.
fn chaos_search_mode(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("chaos-search requires a scenario file\n{}", usage());
        return ExitCode::FAILURE;
    };
    let mut cfg = ChaosConfig::default();
    let mut out = PathBuf::from("chaos_corpus.json");
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> Result<String, ExitCode> {
            it.next().cloned().ok_or_else(|| {
                eprintln!("{flag} requires a value\n{}", usage());
                ExitCode::FAILURE
            })
        };
        let result = match arg.as_str() {
            "--out" => take("--out").map(|v| out = PathBuf::from(v)),
            "--seed" => take("--seed").and_then(|v| {
                v.parse().map(|n| cfg.seed = n).map_err(|_| {
                    eprintln!("--seed wants an integer, got {v:?}");
                    ExitCode::FAILURE
                })
            }),
            "--budget" => take("--budget").and_then(|v| {
                v.parse().map(|n| cfg.max_evaluations = n).map_err(|_| {
                    eprintln!("--budget wants an integer, got {v:?}");
                    ExitCode::FAILURE
                })
            }),
            "--batch" => take("--batch").and_then(|v| {
                v.parse().map(|n| cfg.batch = n).map_err(|_| {
                    eprintln!("--batch wants an integer, got {v:?}");
                    ExitCode::FAILURE
                })
            }),
            "--threads" => take("--threads").and_then(|v| {
                v.parse().map(|n| cfg.threads = n).map_err(|_| {
                    eprintln!("--threads wants an integer, got {v:?}");
                    ExitCode::FAILURE
                })
            }),
            "--predicate" => take("--predicate").and_then(|v| {
                parse_predicate(&v).map(|p| cfg.predicate = p).map_err(|e| {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                })
            }),
            other => {
                eprintln!("unexpected argument {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        };
        if let Err(code) = result {
            return code;
        }
    }
    let scenario = match scenario_file::load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "== chaos-search over scenario {:?} (seed {}, budget {}, predicate {:?}) ==",
        scenario.name, cfg.seed, cfg.max_evaluations, cfg.predicate
    );
    let corpus = match chaos_search(&scenario, &cfg, &mut StderrProgress) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("chaos search failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = match serde_json::to_string_pretty(&corpus) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot serialize corpus: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("cannot write corpus to {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "evaluated {} run(s); baseline predicate holds: {}",
        corpus.evaluations, corpus.baseline_holds
    );
    for (i, ce) in corpus.counterexamples.iter().enumerate() {
        println!(
            "  #{i}: cost={} ({} faulted tick(s), {} window(s)) digest={}",
            ce.cost,
            ce.faulted_ticks,
            ce.windows.len(),
            ce.report_digest
        );
    }
    println!("corpus written to {}", out.display());
    if corpus.counterexamples.is_empty() {
        eprintln!("no counterexample found within the evaluation budget");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_one(id: &str, scale: Scale) -> Option<Box<dyn Experiment>> {
    match id {
        "fig1" => Some(Box::new(fig1::run(scale))),
        "fig2" => Some(Box::new(fig2::run(scale))),
        "fig5" => Some(Box::new(fig5::run(scale))),
        "fig6" => Some(Box::new(fig6::run(scale))),
        "fig7" => Some(Box::new(fig7::run(scale))),
        "fig8" => Some(Box::new(fig8::run(scale))),
        "fig9" => Some(Box::new(fig9::run(scale))),
        "fig10" => Some(Box::new(fig10::run(scale))),
        "table1" => Some(Box::new(table1::run(scale))),
        "ablate-window" => Some(Box::new(ablations::window_levels(scale))),
        "ablate-l1size" => Some(Box::new(ablations::l1_size(scale))),
        "ablate-fill" => Some(Box::new(ablations::fill_rule(scale))),
        "ablate-hybrid" => Some(Box::new(ablations::hybrid_isolation(scale))),
        "ablate-hysteresis" => Some(Box::new(ablations::tdvfs_hysteresis(scale))),
        "feedforward" => Some(Box::new(ablations::feedforward(scale))),
        "rack" => Some(Box::new(rack::run(scale))),
        "straggler" => Some(Box::new(straggler::run(scale))),
        "scaling" => Some(Box::new(scaling::run(scale))),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `chaos-search <file>` is its own mode.
    if args.first().map(String::as_str) == Some("chaos-search") {
        return chaos_search_mode(&args[1..]);
    }
    // `journal convert <IN> <OUT>` is its own mode.
    if args.first().map(String::as_str) == Some("journal") {
        if args.get(1).map(String::as_str) != Some("convert") {
            eprintln!("the journal subcommand is `journal convert`\n{}", usage());
            return ExitCode::FAILURE;
        }
        return journal_convert_mode(&args[2..]);
    }
    // `run-scenario <file>` is its own mode.
    if args.first().map(String::as_str) == Some("run-scenario") {
        let Some(path) = args.get(1) else {
            eprintln!("run-scenario requires a file\n{}", usage());
            return ExitCode::FAILURE;
        };
        let mut journal_out: Option<PathBuf> = None;
        let mut journal_format = unitherm_obs::JournalFormat::Jsonl;
        let mut replay_in: Option<PathBuf> = None;
        let mut print_digest = false;
        let mut it = args.iter().skip(2);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--digest" => print_digest = true,
                "--journal" => match it.next() {
                    Some(p) => journal_out = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--journal requires a path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                },
                "--journal-format" => {
                    match it.next().and_then(|v| unitherm_obs::JournalFormat::parse(v)) {
                        Some(f) => journal_format = f,
                        None => {
                            eprintln!("--journal-format wants jsonl or bjl\n{}", usage());
                            return ExitCode::FAILURE;
                        }
                    }
                }
                "--replay-faults" => match it.next() {
                    Some(p) => replay_in = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--replay-faults requires a path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                },
                other => {
                    eprintln!("unexpected argument {other:?}\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        }
        let mut scenario = match scenario_file::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        // `--replay-faults` accepts either a JSONL journal or a chaos
        // corpus; for a corpus, the resulting report must reproduce the
        // digest the corpus recorded for the entry, bit for bit.
        let mut expected_digest: Option<String> = None;
        if let Some(input) = &replay_in {
            if scenario_file::is_chaos_corpus(input) {
                let result = scenario_file::load_corpus(input)
                    .and_then(|corpus| scenario_file::apply_corpus(scenario.clone(), &corpus, 0));
                match result {
                    Ok((faulted, desc, digest)) => {
                        eprint!("{desc}");
                        scenario = faulted;
                        expected_digest = Some(digest);
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                match scenario_file::apply_replay(scenario, input) {
                    Ok((faulted, desc)) => {
                        eprint!("{desc}");
                        scenario = faulted;
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        eprintln!("== running scenario {:?} from {path} ==", scenario.name);
        let width = unitherm_cluster::pool_width(scenario.threads, scenario.nodes);
        if scenario.threads > width {
            eprintln!("pool width {width} (asked {})", scenario.threads);
        }
        let (report, text) = match scenario_file::run_and_render_with_journal(
            scenario,
            journal_out.as_deref(),
            journal_format,
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(out) = &journal_out {
            eprintln!("journal written to {} ({journal_format})", out.display());
        }
        println!("{text}");
        if print_digest {
            println!("report digest: {}", report_digest(&report));
        }
        if let Some(expected) = &expected_digest {
            let actual = report_digest(&report);
            if actual == *expected {
                eprintln!("report digest matches the corpus: {actual}");
            } else {
                eprintln!(
                    "report digest mismatch: corpus recorded {expected}, this run produced {actual}"
                );
                return ExitCode::FAILURE;
            }
        }
        return if report.any_shutdown() {
            eprintln!("a node shut down during the run");
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let mut target: Option<String> = None;
    let mut fast = false;
    let mut csv_dir: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--csv" => match it.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--csv requires a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if target.is_none() => target = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }

    let target = match target {
        Some(t) => t,
        None => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let scale = Scale::from_fast_flag(fast);
    let ids: Vec<&str> = if target == "all" {
        ALL.to_vec()
    } else if let Some(&id) = ALL.iter().find(|&&s| s == target) {
        vec![id]
    } else {
        eprintln!("unknown experiment {target:?}\n{}", usage());
        return ExitCode::FAILURE;
    };

    let mut failures = 0usize;
    for id in ids {
        eprintln!("== running {id} ({scale:?}) ==");
        let result = run_one(id, scale).expect("id validated against ALL");
        println!("{}", result.render());
        if let Some(dir) = &csv_dir {
            match result.write_csv(dir) {
                Ok(()) => eprintln!("   CSV written under {}", dir.display()),
                Err(e) => eprintln!("warning: CSV export for {id} failed: {e}"),
            }
        }
        let violations = result.shape_violations();
        if violations.is_empty() {
            println!("SHAPE OK: {id} reproduces the paper's qualitative result\n");
        } else {
            failures += 1;
            println!("SHAPE VIOLATIONS in {id}:");
            for v in &violations {
                println!("  - {v}");
            }
            println!();
        }
    }

    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} experiment(s) violated their shape criteria");
        ExitCode::FAILURE
    }
}
