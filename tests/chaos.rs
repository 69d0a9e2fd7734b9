//! Chaos-search contract tests (`DESIGN.md` §13).
//!
//! The adversarial search must (a) actually find an outcome-flipping,
//! minimized fault sequence on the shipped attack target, (b) emit
//! counterexamples that re-execute bit-identically at any thread count,
//! and (c) be a pure function of its seed — the corpus must come out
//! byte-identical whether candidates were evaluated on 1, 2 or 4 threads.

use unitherm::cluster::chaos::{chaos_search, report_digest, ChaosConfig, OutcomePredicate};
use unitherm::cluster::{Scenario, Simulation};
use unitherm::experiments::scenario_file;
use unitherm::obs::{Event, EventSink, NullSink, VecSink};

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The shipped attack target, shortened: a protected burn whose failsafe
/// never trips fault-free — the search's job is to make it trip.
fn target() -> Scenario {
    let mut s = scenario_file::load(repo_path("examples/scenarios/protected_burn.json"))
        .expect("shipped scenario loads");
    s.max_time_s = 60.0;
    s
}

/// A small budget that still reliably finds a dropout-driven failsafe trip.
fn quick_config(threads: usize) -> ChaosConfig {
    ChaosConfig {
        seed: 42,
        predicate: OutcomePredicate::FailsafeTrip,
        max_evaluations: 40,
        batch: 8,
        threads,
    }
}

#[test]
fn finds_minimizes_and_replays_a_failsafe_flip() {
    let base = target();
    let corpus = chaos_search(&base, &quick_config(2), &mut NullSink).expect("search runs");

    assert!(!corpus.baseline_holds, "protected burn must not trip its failsafe fault-free");
    assert!(
        !corpus.counterexamples.is_empty(),
        "the search must find a failsafe flip within {} evaluations",
        corpus.evaluations
    );
    assert!(corpus.evaluations <= 40, "budget overrun: {}", corpus.evaluations);

    // Ranked cheapest-first, costs consistent with their windows.
    let costs: Vec<u64> = corpus.counterexamples.iter().map(|c| c.cost).collect();
    let mut sorted = costs.clone();
    sorted.sort_unstable();
    assert_eq!(costs, sorted, "corpus must be ranked by cost");
    for entry in &corpus.counterexamples {
        assert_eq!(
            entry.cost,
            entry.faulted_ticks + entry.windows.len() as u64,
            "cost = faulted ticks + window count"
        );
        assert!(entry.outcome.predicate_holds, "a flip of a non-holding baseline must hold");
        assert!(entry.outcome.failsafe_engagements > 0);
    }

    // The top counterexample re-executes bit-identically 1/2/4 wide (forced:
    // the scenario is below the nodes-per-shard grain), matching the digest
    // recorded in the corpus.
    let entry = &corpus.counterexamples[0];
    for width in [1usize, 2, 4] {
        let faulted = corpus.apply(base.clone(), 0).expect("entry 0 exists");
        let report = Simulation::try_with_width(faulted, width).expect("valid scenario").run();
        assert_eq!(
            report_digest(&report),
            entry.report_digest,
            "replay {width} wide diverged from the corpus digest"
        );
        assert!(
            report.nodes.iter().any(|n| n.failsafe_engagements > 0),
            "replayed counterexample must still trip the failsafe"
        );
    }
}

#[test]
fn corpus_is_byte_identical_across_evaluation_thread_budgets() {
    let base = target();
    let runs: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let corpus =
                chaos_search(&base, &quick_config(threads), &mut NullSink).expect("search runs");
            serde_json::to_string_pretty(&corpus).expect("corpus serializes")
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1-thread vs 2-thread corpus diverged");
    assert_eq!(runs[1], runs[2], "2-thread vs 4-thread corpus diverged");
    // Same seed, same scenario: reruns reproduce the corpus exactly.
    let again = chaos_search(&base, &quick_config(2), &mut NullSink).expect("search reruns");
    assert_eq!(runs[1], serde_json::to_string_pretty(&again).expect("serializes"));
}

#[test]
fn corpus_round_trips_serde_and_reapplies() {
    let base = target();
    let corpus = chaos_search(&base, &quick_config(4), &mut NullSink).expect("search runs");
    let json = serde_json::to_string_pretty(&corpus).expect("serialize");
    let back: unitherm::cluster::ChaosCorpus = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, corpus);
    assert_eq!(back.schema, unitherm::cluster::CHAOS_SCHEMA);
    // A deserialized corpus installs the same schedules.
    let a = corpus.apply(base.clone(), 0).expect("entry 0");
    let b = back.apply(base, 0).expect("entry 0");
    assert_eq!(a.tick_faults, b.tick_faults);
}

#[test]
fn search_emits_progress_events() {
    let mut sink = VecSink::default();
    let _ = chaos_search(&target(), &quick_config(4), &mut sink).expect("search runs");
    let progress: Vec<_> =
        sink.records.iter().filter(|r| matches!(r.event, Event::SearchProgress { .. })).collect();
    assert!(!progress.is_empty(), "the search must report progress");
    // Evaluation counts are monotonic and times carry no wall clock.
    let mut last = 0u32;
    for rec in &progress {
        if let Event::SearchProgress { evaluated, .. } = rec.event {
            assert!(evaluated >= last, "progress went backwards");
            last = evaluated;
            assert!(rec.time_s.is_finite() && rec.time_s >= 0.0);
        }
    }
}

// Keep the unused-import lint honest: EventSink is the trait bound VecSink
// records through.
#[allow(dead_code)]
fn _sink_is_event_sink(s: &mut VecSink) -> &mut dyn EventSink {
    s
}
