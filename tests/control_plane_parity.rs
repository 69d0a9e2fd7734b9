//! Refactor-parity regression for the control plane.
//!
//! Every `FanScheme`/`DvfsScheme` arm, the §4.4 hybrid and the ACPI
//! sleep-state scheme are locked to a golden trace snapshot captured from
//! the original per-arm daemon wiring. The traces are compared bit-for-bit
//! (f64s via their raw bit patterns), so any behavioural drift in the
//! scheme → daemon pipeline fails these tests even when summary statistics
//! round the same.
//!
//! Regenerate snapshots (only when a behaviour change is *intended*) with:
//! `UNITHERM_UPDATE_GOLDEN=1 cargo test --test control_plane_parity`
//!
//! `UNITHERM_GOLDEN_THREADS=N` runs every scenario through the intra-run
//! worker pool sharded exactly N ways, forced past the nodes-per-shard
//! grain that would otherwise run these small clusters serially; N above a
//! scenario's node count fails rather than testing a narrower pool. The
//! snapshots must not move (CI regenerates 2 wide — the scenarios have two
//! nodes — and diffs against the committed serial traces).

use std::fmt::Write as _;
use std::path::PathBuf;

use unitherm::cluster::{
    report_digest, DvfsScheme, FanScheme, RunReport, Scenario, SchemeSpec, Simulation, WorkloadSpec,
};
use unitherm::core::baseline::StaticFanCurve;
use unitherm::core::control_array::Policy;
use unitherm::core::failsafe::FailsafeConfig;
use unitherm::metrics::TimeSeries;
use unitherm::simnode::faults::{FaultEvent, FaultPlan};

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn write_series(out: &mut String, tag: &str, series: &TimeSeries) {
    writeln!(out, "series {tag} n={}", series.len()).unwrap();
    for s in series.samples() {
        writeln!(out, "  {} {}", hex(s.time_s), hex(s.value)).unwrap();
    }
}

/// A complete, bit-exact textual image of a [`RunReport`].
fn fingerprint(report: &RunReport) -> String {
    let mut out = String::new();
    writeln!(out, "name {}", report.name).unwrap();
    writeln!(out, "fan_label {}", report.fan_label).unwrap();
    writeln!(out, "dvfs_label {}", report.dvfs_label).unwrap();
    writeln!(out, "workload_label {}", report.workload_label).unwrap();
    writeln!(out, "wall_time {}", hex(report.wall_time_s)).unwrap();
    writeln!(out, "exec_time {}", hex(report.exec_time_s)).unwrap();
    writeln!(out, "completed {}", report.completed).unwrap();
    // The report digest covers what the lines below do not: events,
    // counters and delivered faults.
    writeln!(out, "digest {}", report_digest(report)).unwrap();
    for (i, node) in report.nodes.iter().enumerate() {
        writeln!(out, "node {i}").unwrap();
        writeln!(
            out,
            "counters freq_transitions={} throttle_events={} failsafe_engagements={} shut_down={}",
            node.freq_transitions, node.throttle_events, node.failsafe_engagements, node.shut_down
        )
        .unwrap();
        writeln!(out, "power avg={} energy={}", hex(node.avg_wall_power_w), hex(node.energy_j))
            .unwrap();
        writeln!(
            out,
            "temp_summary count={} mean={} min={} max={} std={}",
            node.temp_summary.count,
            hex(node.temp_summary.mean),
            hex(node.temp_summary.min),
            hex(node.temp_summary.max),
            hex(node.temp_summary.std_dev)
        )
        .unwrap();
        writeln!(
            out,
            "duty_summary count={} mean={} min={} max={} std={}",
            node.duty_summary.count,
            hex(node.duty_summary.mean),
            hex(node.duty_summary.min),
            hex(node.duty_summary.max),
            hex(node.duty_summary.std_dev)
        )
        .unwrap();
        writeln!(out, "freq_events n={}", node.freq_events.len()).unwrap();
        for (t, f) in &node.freq_events {
            writeln!(out, "  {} {f}", hex(*t)).unwrap();
        }
        write_series(&mut out, "temp", &node.temp);
        write_series(&mut out, "duty", &node.duty);
        write_series(&mut out, "freq", &node.freq);
        write_series(&mut out, "power", &node.power);
        write_series(&mut out, "util", &node.util);
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.trace"))
}

fn assert_matches_golden(name: &str, fingerprint: &str) {
    let path = golden_path(name);
    if std::env::var_os("UNITHERM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, fingerprint).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden snapshot {path:?}; regenerate with UNITHERM_UPDATE_GOLDEN=1")
    });
    if want != fingerprint {
        let mismatch = want.lines().zip(fingerprint.lines()).enumerate().find(|(_, (a, b))| a != b);
        match mismatch {
            Some((line, (expected, got))) => panic!(
                "trace `{name}` diverged from golden snapshot at line {}:\n  expected: {expected}\n  got:      {got}",
                line + 1
            ),
            None => panic!(
                "trace `{name}` diverged from golden snapshot: lengths differ ({} vs {} lines)",
                want.lines().count(),
                fingerprint.lines().count()
            ),
        }
    }
}

fn base(name: &str) -> Scenario {
    Scenario::new(name)
        .with_nodes(2)
        .with_seed(0x90_1D_E2)
        .with_workload(WorkloadSpec::CpuBurn)
        .with_max_time(60.0)
}

fn check_scenario(name: &str, scenario: Scenario) {
    // The sharded tick loop is bit-identical to the serial one, so golden
    // traces hold at any thread count (tests/parallel_tick.rs pins the full
    // report; this pins it against the committed serial snapshots too).
    let threads: usize = std::env::var("UNITHERM_GOLDEN_THREADS")
        .ok()
        .map(|v| v.parse().expect("UNITHERM_GOLDEN_THREADS must be a thread count"))
        .unwrap_or(1);
    let sim = Simulation::try_with_width(scenario, threads).expect("valid scenario");
    assert_eq!(sim.width(), threads, "{name}: the pool was not built {threads} wide");
    let report = sim.run();
    assert_matches_golden(name, &fingerprint(&report));
}

#[test]
fn fan_chip_automatic_trace_is_stable() {
    check_scenario(
        "fan-chip-auto",
        base("fan-chip-auto").with_fan(FanScheme::ChipAutomatic { max_duty: 75 }),
    );
}

#[test]
fn fan_software_static_trace_is_stable() {
    check_scenario(
        "fan-static-sw",
        base("fan-static-sw")
            .with_fan(FanScheme::SoftwareStatic { curve: StaticFanCurve::default() }),
    );
}

#[test]
fn fan_constant_trace_is_stable() {
    check_scenario("fan-constant", base("fan-constant").with_fan(FanScheme::Constant { duty: 40 }));
}

#[test]
fn fan_dynamic_trace_is_stable() {
    check_scenario(
        "fan-dynamic",
        base("fan-dynamic").with_fan(FanScheme::dynamic(Policy::MODERATE, 100)),
    );
}

#[test]
fn fan_dynamic_feedforward_trace_is_stable() {
    check_scenario(
        "fan-dynamic-ff",
        base("fan-dynamic-ff").with_fan(FanScheme::dynamic_feedforward(Policy::MODERATE, 100)),
    );
}

#[test]
fn dvfs_tdvfs_trace_is_stable() {
    check_scenario(
        "dvfs-tdvfs",
        base("dvfs-tdvfs")
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 50))
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE)),
    );
}

#[test]
fn dvfs_cpuspeed_trace_is_stable() {
    check_scenario(
        "dvfs-cpuspeed",
        base("dvfs-cpuspeed")
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_dvfs(DvfsScheme::cpuspeed()),
    );
}

#[test]
fn hybrid_trace_is_stable() {
    check_scenario("hybrid", base("hybrid").with_scheme(SchemeSpec::hybrid(Policy::MODERATE, 60)));
}

#[test]
fn acpi_sleep_trace_is_stable() {
    check_scenario(
        "acpi-sleep",
        base("acpi-sleep").with_scheme(SchemeSpec::acpi_sleep(
            Policy::AGGRESSIVE,
            FanScheme::Constant { duty: 10 },
        )),
    );
}

#[test]
fn failsafe_engagement_trace_is_stable() {
    // A sensor blackout engages the failsafe (max cooling, lowest
    // frequency); the restore at t = 30 s lets it release and hand control
    // back to the constant-fan + tDVFS daemons — locking both transitions.
    let plan =
        FaultPlan::none().at(10.0, FaultEvent::SensorDropout).at(30.0, FaultEvent::SensorRestore);
    check_scenario(
        "failsafe-engage",
        base("failsafe-engage")
            .with_fan(FanScheme::Constant { duty: 15 })
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_failsafe(FailsafeConfig::default())
            .with_fault(0, plan),
    );
}
