//! JSON scenario files: experiments as data.
//!
//! Every scenario component serializes, so downstream users can describe a
//! run — workload, control schemes, faults, rack coupling, hardware
//! constants — as a JSON document and execute it with
//! `repro run-scenario <file>`, no Rust required. See
//! `examples/scenarios/` for ready-made files.

use std::path::Path;

use unitherm_cluster::{
    derive_fault_plan, ChaosCorpus, ReplayError, ReplayOptions, RunReport, Scenario, ScenarioError,
    Simulation, CHAOS_SCHEMA,
};
use unitherm_metrics::AsciiPlot;
use unitherm_obs::{
    bjl_to_records, read_journal, records_to_bjl, EventRecord, EventSink, JournalFormat,
    JournalWriter,
};

/// Errors loading or validating a scenario file.
#[derive(Debug)]
pub enum ScenarioFileError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The JSON did not parse into a [`Scenario`].
    Parse(serde_json::Error),
    /// The scenario parsed but cannot be run as described.
    Invalid(ScenarioError),
    /// An event journal could not be read or written.
    Journal(std::io::Error),
    /// The journal read cleanly but cannot be replayed against the
    /// scenario (corrupt timestamp or out-of-range node).
    Replay(ReplayError),
    /// A chaos counterexample corpus could not be used as requested
    /// (wrong schema tag, or a counterexample index out of range).
    Corpus(String),
}

impl std::fmt::Display for ScenarioFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioFileError::Io(e) => write!(f, "cannot read scenario file: {e}"),
            ScenarioFileError::Parse(e) => write!(f, "invalid scenario JSON: {e}"),
            ScenarioFileError::Invalid(e) => write!(f, "unusable scenario: {e}"),
            ScenarioFileError::Journal(e) => write!(f, "cannot access event journal: {e}"),
            ScenarioFileError::Replay(e) => write!(f, "cannot replay event journal: {e}"),
            ScenarioFileError::Corpus(msg) => write!(f, "cannot use chaos corpus: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioFileError {}

/// Parses and validates a scenario from JSON text.
///
/// The shared loading path for everything that accepts scenario JSON:
/// `repro run-scenario` goes through [`load`] (this plus file I/O), and
/// `unitherm-serve` feeds `POST /jobs` request bodies straight in — so a
/// scenario rejected on the command line is rejected with the same named
/// error over HTTP.
pub fn parse(text: &str) -> Result<Scenario, ScenarioFileError> {
    let scenario: Scenario = serde_json::from_str(text).map_err(ScenarioFileError::Parse)?;
    scenario.validate().map_err(ScenarioFileError::Invalid)?;
    Ok(scenario)
}

/// Loads a scenario from a JSON file and validates it.
pub fn load(path: impl AsRef<Path>) -> Result<Scenario, ScenarioFileError> {
    let text = std::fs::read_to_string(path).map_err(ScenarioFileError::Io)?;
    parse(&text)
}

/// Serializes a scenario to pretty JSON (the round-trip counterpart of
/// [`load`]; useful for generating templates).
pub fn to_json(scenario: &Scenario) -> String {
    serde_json::to_string_pretty(scenario).expect("scenarios always serialize")
}

/// Reads an event journal in either encoding, sniffing the format from the
/// file's first bytes (`unitherm-bjl` opens with the `UBJL` magic, JSONL
/// with `{`), and decodes it in full: this is the one place a journal on
/// disk becomes records. Returns the records and the detected format.
pub fn read_any_journal(
    path: impl AsRef<Path>,
) -> Result<(Vec<EventRecord>, JournalFormat), ScenarioFileError> {
    let bytes = std::fs::read(path).map_err(ScenarioFileError::Journal)?;
    let format = JournalFormat::sniff(&bytes);
    let records = match format {
        JournalFormat::Bjl => bjl_to_records(&bytes).map_err(std::io::Error::from),
        JournalFormat::Jsonl => read_journal(bytes.as_slice()),
    }
    .map_err(ScenarioFileError::Journal)?;
    Ok((records, format))
}

/// Reads an event journal (JSONL or `unitherm-bjl/v1`, sniffed from the
/// file) and derives a tick-addressed fault plan for `scenario` (see
/// `unitherm_cluster::replay`), returning the faulted scenario and a
/// one-line-per-window description of the derived plan. Both encodings of
/// the same journal derive the identical plan.
pub fn apply_replay(
    scenario: Scenario,
    journal_path: impl AsRef<Path>,
) -> Result<(Scenario, String), ScenarioFileError> {
    let (records, format) = read_any_journal(journal_path)?;
    let plan = derive_fault_plan(&records, &scenario, &ReplayOptions::default())
        .map_err(ScenarioFileError::Replay)?;
    let mut desc = format!(
        "derived {} fault window(s) from {} journal event(s) ({format}):\n",
        plan.len(),
        records.len()
    );
    for d in &plan.derived {
        desc.push_str(&format!(
            "  node {} tick {} (t={:.2} s): {:?} until tick {}\n",
            d.node, d.tick, d.trigger_time_s, d.fault, d.recovery_tick
        ));
    }
    Ok((plan.apply(scenario), desc))
}

/// Converts an event journal between the JSONL and `unitherm-bjl/v1`
/// encodings; the direction is inferred from the input's magic bytes.
/// `dt_s` stamps the binary header on the JSONL→bjl direction (pass the
/// scenario tick width the journal was recorded under; it is ignored
/// bjl→JSONL, where the header already carries it). Returns a one-line
/// description of what was converted. The conversion is lossless: `time_s`
/// round-trips through raw IEEE-754 bits, so converting back reproduces a
/// `JournalWriter`-produced JSONL file byte for byte.
pub fn convert_journal(
    input: impl AsRef<Path>,
    output: impl AsRef<Path>,
    dt_s: f64,
) -> Result<String, ScenarioFileError> {
    let (records, format) = read_any_journal(input)?;
    let (bytes, direction) = match format {
        JournalFormat::Bjl => {
            let mut writer = JournalWriter::new(Vec::new());
            for rec in &records {
                writer.record(rec);
            }
            (writer.finish().map_err(ScenarioFileError::Journal)?, "bjl -> jsonl".to_string())
        }
        JournalFormat::Jsonl => {
            (records_to_bjl(&records, dt_s), format!("jsonl -> bjl (dt_s = {dt_s})"))
        }
    };
    std::fs::write(output, bytes).map_err(ScenarioFileError::Journal)?;
    Ok(format!("converted {} event(s): {direction}\n", records.len()))
}

/// True when the file at `path` looks like a chaos counterexample corpus
/// (a JSON object carrying the `unitherm-chaos` schema tag) rather than a
/// JSONL event journal. Used by `--replay-faults` to accept either format.
pub fn is_chaos_corpus(path: impl AsRef<Path>) -> bool {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let t = text.trim_start();
            // Match the schema family, not the exact version: a corpus from
            // a future/wrong version should fail with a named schema error
            // from `load_corpus`, not fall through to the journal parser.
            t.starts_with('{') && t.contains("unitherm-chaos")
        }
        Err(_) => false,
    }
}

/// Loads a chaos counterexample corpus from JSON and checks its schema tag.
pub fn load_corpus(path: impl AsRef<Path>) -> Result<ChaosCorpus, ScenarioFileError> {
    let text = std::fs::read_to_string(path).map_err(ScenarioFileError::Io)?;
    let corpus: ChaosCorpus = serde_json::from_str(&text).map_err(ScenarioFileError::Parse)?;
    if corpus.schema != CHAOS_SCHEMA {
        return Err(ScenarioFileError::Corpus(format!(
            "unknown schema {:?} (expected {CHAOS_SCHEMA:?})",
            corpus.schema
        )));
    }
    Ok(corpus)
}

/// Installs corpus counterexample `entry` on a scenario, returning the
/// faulted scenario, a human-readable description, and the report digest
/// the corpus recorded for the entry (re-executions must reproduce it
/// bit-identically).
pub fn apply_corpus(
    scenario: Scenario,
    corpus: &ChaosCorpus,
    entry: usize,
) -> Result<(Scenario, String, String), ScenarioFileError> {
    let ce = corpus.counterexamples.get(entry).ok_or_else(|| {
        ScenarioFileError::Corpus(format!(
            "corpus has {} counterexample(s); entry {entry} does not exist",
            corpus.counterexamples.len()
        ))
    })?;
    let mut desc = format!(
        "corpus {} (seed {}): installing counterexample {entry} (cost {}, {} window(s)):\n",
        corpus.scenario,
        corpus.seed,
        ce.cost,
        ce.windows.len()
    );
    for w in &ce.windows {
        desc.push_str(&format!(
            "  node {} tick {}..{}: {:?} (magnitude {})\n",
            w.node,
            w.start_tick,
            w.start_tick + w.hold_ticks,
            w.kind,
            w.magnitude
        ));
    }
    desc.push_str(&format!("  expected report digest: {}\n", ce.report_digest));
    let faulted = corpus.apply(scenario, entry).expect("entry existence checked above");
    Ok((faulted, desc, ce.report_digest.clone()))
}

/// Runs a loaded scenario and renders a human-readable report: summary
/// line, per-node statistics, temperature plot. When `journal_out` is
/// given, every control-plane event is also streamed to that path in the
/// requested encoding: JSONL (one [`unitherm_obs::EventRecord`] per line)
/// or `unitherm-bjl/v1` binary frames — see `docs/FORMATS.md` §2 and §5.
pub fn run_and_render_with_journal(
    scenario: Scenario,
    journal_out: Option<&Path>,
    format: JournalFormat,
) -> Result<(RunReport, String), ScenarioFileError> {
    let mut sim = Simulation::new(scenario);
    if let Some(path) = journal_out {
        let file = std::fs::File::create(path).map_err(ScenarioFileError::Journal)?;
        let buffered = std::io::BufWriter::new(file);
        match format {
            JournalFormat::Jsonl => sim.attach_journal(Box::new(JournalWriter::new(buffered))),
            JournalFormat::Bjl => sim.attach_binary_journal(buffered),
        }
    }
    Ok(render(sim.run()))
}

/// Runs a loaded scenario and renders a human-readable report: summary
/// line, per-node statistics, temperature plot.
pub fn run_and_render(scenario: Scenario) -> (RunReport, String) {
    let report = Simulation::new(scenario).run();
    render(report)
}

fn render(report: RunReport) -> (RunReport, String) {
    let mut out = String::new();
    out.push_str(&report.summary_line());
    out.push('\n');
    if let Some(warning) = &report.journal_warning {
        out.push_str(&format!("WARNING: {warning} — the journal on disk is incomplete\n"));
    }
    if let Some(node) = report.nodes.first() {
        if !node.temp.is_empty() {
            out.push_str(
                &AsciiPlot::new("node-0 temperature (°C)").size(72, 12).add(&node.temp).render(),
            );
        }
    }
    if let Some(air) = &report.rack_air {
        if !air.is_empty() {
            out.push_str(&AsciiPlot::new("rack intake air (°C)").size(72, 8).add(air).render());
        }
    }
    for (i, n) in report.nodes.iter().enumerate() {
        out.push_str(&format!(
            "  node{i}: avgT={:.2}°C maxT={:.2}°C duty={:.1}% power={:.2}W freqChg={} throttles={} failsafe={}\n",
            n.temp_summary.mean,
            n.temp_summary.max,
            n.duty_summary.mean,
            n.avg_wall_power_w,
            n.freq_transitions,
            n.throttle_events,
            n.failsafe_engagements,
        ));
    }
    (report, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unitherm_cluster::{DvfsScheme, FanScheme, WorkloadSpec};
    use unitherm_core::control_array::Policy;

    fn sample() -> Scenario {
        Scenario::new("json-roundtrip")
            .with_nodes(2)
            .with_seed(99)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 60))
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_max_time(30.0)
            .with_failsafe(unitherm_core::failsafe::FailsafeConfig::default())
            .with_rack(unitherm_cluster::rack::RackConfig::default())
    }

    #[test]
    fn json_roundtrip_preserves_scenario() {
        let s = sample();
        let json = to_json(&s);
        let dir = std::env::temp_dir().join("unitherm_scn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.json");
        std::fs::write(&path, &json).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.name, s.name);
        assert_eq!(loaded.nodes, s.nodes);
        assert_eq!(loaded.fan, s.fan);
        assert_eq!(loaded.dvfs, s.dvfs);
        assert_eq!(loaded.workload, s.workload);
        assert_eq!(loaded.rack, s.rack);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roundtripped_scenario_runs_identically() {
        let direct = Simulation::new(sample()).run();
        let json = to_json(&sample());
        let reparsed: Scenario = serde_json::from_str(&json).unwrap();
        let via_json = Simulation::new(reparsed).run();
        assert_eq!(direct.avg_temp_c(), via_json.avg_temp_c());
        assert_eq!(direct.avg_node_power_w(), via_json.avg_node_power_w());
    }

    #[test]
    fn run_and_render_produces_report_text() {
        let (report, text) = run_and_render(sample());
        assert_eq!(report.nodes.len(), 2);
        assert!(text.contains("node0:"));
        assert!(text.contains("rack intake air"));
    }

    #[test]
    fn journal_converts_both_directions_byte_identically() {
        let dir = std::env::temp_dir().join("unitherm_scn_convert");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("events.jsonl");
        let bjl = dir.join("events.bjl");
        let back = dir.join("events_back.jsonl");

        // Record a real journal through the simulation's JSONL sink.
        let (_, _) = run_and_render_with_journal(sample(), Some(&jsonl), JournalFormat::Jsonl)
            .expect("record");
        let desc = convert_journal(&jsonl, &bjl, 0.05).expect("jsonl -> bjl");
        assert!(desc.contains("jsonl -> bjl"), "{desc}");
        let desc = convert_journal(&bjl, &back, 0.05).expect("bjl -> jsonl");
        assert!(desc.contains("bjl -> jsonl"), "{desc}");
        let original = std::fs::read(&jsonl).unwrap();
        let round_tripped = std::fs::read(&back).unwrap();
        assert!(!original.is_empty());
        assert_eq!(original, round_tripped, "round trip must be byte-identical");

        // Both encodings parse to the same records; the sniffing reader
        // agrees on the formats.
        let (rec_jsonl, f1) = read_any_journal(&jsonl).expect("read jsonl");
        let (rec_bjl, f2) = read_any_journal(&bjl).expect("read bjl");
        assert_eq!(f1, JournalFormat::Jsonl);
        assert_eq!(f2, JournalFormat::Bjl);
        assert_eq!(rec_jsonl, rec_bjl);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn apply_replay_accepts_both_encodings_identically() {
        let dir = std::env::temp_dir().join("unitherm_scn_replay_fmt");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("events.jsonl");
        let bjl = dir.join("events.bjl");
        let (_, _) = run_and_render_with_journal(sample(), Some(&jsonl), JournalFormat::Jsonl)
            .expect("record");
        convert_journal(&jsonl, &bjl, 0.05).expect("convert");

        let (s1, d1) = apply_replay(sample(), &jsonl).expect("jsonl replay");
        let (s2, d2) = apply_replay(sample(), &bjl).expect("bjl replay");
        assert_eq!(s1.tick_faults, s2.tick_faults, "both encodings derive the same plan");
        assert!(d1.contains("(jsonl)"), "{d1}");
        assert!(d2.contains("(bjl)"), "{d2}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn apply_replay_names_a_record_whose_time_goes_backwards() {
        use unitherm_obs::{ActuatorKind, Event, WindowLevel};
        let dir = std::env::temp_dir().join("unitherm_scn_replay_order");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("backwards.jsonl");
        let bjl = dir.join("backwards.bjl");
        let mode_change = Event::ModeChange {
            actuator: ActuatorKind::Fan,
            from: 20,
            to: 40,
            window_level: WindowLevel::L1,
        };
        let mut writer = JournalWriter::new(Vec::new());
        for (time_s, node, event) in [
            (5.0, 0, mode_change),
            (500.0, 0, mode_change),
            (10.0, 1, Event::TdvfsEngage { from_mhz: 2400, to_mhz: 2200 }),
        ] {
            writer.record(&EventRecord { time_s, node, event });
        }
        std::fs::write(&jsonl, writer.finish().unwrap()).unwrap();
        convert_journal(&jsonl, &bjl, 0.05).expect("convert");

        let scenario = Scenario::new("replay-order").with_nodes(2).with_max_time(300.0);
        let err = apply_replay(scenario.clone(), &jsonl).expect_err("out-of-order journal");
        assert!(matches!(
            err,
            ScenarioFileError::Replay(ReplayError::NonMonotonicTime { index: 2 })
        ));
        assert!(err.to_string().contains("journal record 2: time_s went backwards"), "{err}");
        let err = apply_replay(scenario, &bjl).expect_err("out-of-order journal");
        assert!(err.to_string().contains("frame 2: time_s went backwards"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_errors() {
        let err = load("/nonexistent/scenario.json").unwrap_err();
        assert!(matches!(err, ScenarioFileError::Io(_)));
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn bad_json_errors() {
        let dir = std::env::temp_dir().join("unitherm_scn_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{ not json").unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, ScenarioFileError::Parse(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
