//! Journal-driven fault injection and deterministic replay.
//!
//! A recorded event journal (JSONL, one [`EventRecord`] per line — see
//! `docs/FORMATS.md`) tells us exactly when a run made interesting
//! decisions: a window level moved an actuator, tDVFS engaged because a
//! capped fan could not hold the threshold, the failsafe tripped. Those
//! moments are precisely where a long-lived control daemon is most
//! vulnerable to lying sensors and seizing fans — a fault that lands mid
//! decision exercises the recovery paths a random fault time usually
//! misses.
//!
//! [`derive_fault_plan`] closes that loop: it walks a journal's decoded
//! records (from either encoding — `unitherm_obs::read_journal` for
//! JSONL, `unitherm_obs::bjl_to_records` for `unitherm-bjl/v1`) and pins
//! faults to the *exact ticks* of the recorded decisions
//! (`tick = round(time_s / dt_s)`). The simulation stamps events with its
//! accumulated clock `0.0 + dt_s + dt_s …`, which can sit an ulp off
//! `tick · dt_s` (tick 10 of a 0.05 s run reads `0.49999999999999994`),
//! far inside the half-tick rounding margin, so the tick comes back
//! exactly:
//!
//! * a `ModeChange` gets a [`FaultEvent::SensorJitter`] burst — the
//!   controller must re-make the decision through a degraded sensing path;
//! * a `TdvfsEngage` gets a [`FaultEvent::PwmStuck`] window — in-band
//!   control engages exactly while the out-of-band actuator is wedged;
//! * a `FailsafeTrip` gets a [`FaultEvent::SensorDropout`] window — the
//!   watchdog's stale-sensor path fires again under a true blackout.
//!
//! The derived [`ReplayPlan`] applies as `Scenario::tick_faults`, which
//! `Scenario::fault_schedule` folds, with the scenario's own time-addressed
//! plans, into the one `TickFaultSchedule` each node delivers when
//! [`crate::node_sim::NodeSim::build`] builds it. Delivery happens in the
//! node's per-tick hook of
//! the hardware pass, before the lane tick — per-node state only — so the
//! replay inherits the sharded tick loop's bit-identical guarantee at any
//! `threads` count (see `DESIGN.md` §12).

use unitherm_obs::{record_tick, Event, EventRecord, InjectedFault};
use unitherm_simnode::faults::{FaultEvent, TickFaultSchedule};

use crate::scenario::Scenario;

/// Maps a simulator fault onto the observability vocabulary: the event
/// `kind` plus the variant-specific magnitude recorded with it.
pub fn classify_fault(ev: FaultEvent) -> (InjectedFault, f64) {
    match ev {
        FaultEvent::FanFailure => (InjectedFault::FanFailure, 0.0),
        FaultEvent::FanRepair => (InjectedFault::FanRepair, 0.0),
        FaultEvent::SensorDropout => (InjectedFault::SensorDropout, 0.0),
        FaultEvent::SensorRestore => (InjectedFault::SensorRestore, 0.0),
        FaultEvent::I2cFailure => (InjectedFault::I2cFailure, 0.0),
        FaultEvent::I2cRecovery => (InjectedFault::I2cRecovery, 0.0),
        FaultEvent::AmbientStep(t) => (InjectedFault::AmbientStep, t),
        FaultEvent::PwmStuck => (InjectedFault::PwmStuck, 0.0),
        FaultEvent::PwmRelease => (InjectedFault::PwmRelease, 0.0),
        FaultEvent::SensorJitter(std) => (InjectedFault::SensorJitter, std),
    }
}

/// Tuning for [`derive_fault_plan`]. The defaults produce short, bounded
/// fault windows sized for the 50 ms tick (a 40-tick jitter burst is 2 s of
/// degraded sensing — eight 4 Hz samples).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplayOptions {
    /// Extra sensor noise injected at each recorded `ModeChange`, °C
    /// std-dev.
    #[serde(default = "default_jitter_std")]
    pub jitter_std_c: f64,
    /// Ticks a jitter burst lasts before it is cleared.
    #[serde(default = "default_jitter_hold")]
    pub jitter_hold_ticks: u64,
    /// Ticks the fan PWM stays stuck after a recorded `TdvfsEngage`.
    #[serde(default = "default_stuck_hold")]
    pub stuck_hold_ticks: u64,
    /// Ticks the sensors stay dropped out after a recorded `FailsafeTrip`.
    #[serde(default = "default_dropout_hold")]
    pub dropout_hold_ticks: u64,
    /// Cap on injected fault *windows* (injection + recovery pair) per
    /// node, so an event-dense journal cannot schedule unbounded faults.
    #[serde(default = "default_max_per_node")]
    pub max_faults_per_node: usize,
}

fn default_jitter_std() -> f64 {
    0.75
}
fn default_jitter_hold() -> u64 {
    40
}
fn default_stuck_hold() -> u64 {
    200
}
fn default_dropout_hold() -> u64 {
    100
}
fn default_max_per_node() -> usize {
    8
}

impl Default for ReplayOptions {
    fn default() -> Self {
        Self {
            jitter_std_c: default_jitter_std(),
            jitter_hold_ticks: default_jitter_hold(),
            stuck_hold_ticks: default_stuck_hold(),
            dropout_hold_ticks: default_dropout_hold(),
            max_faults_per_node: default_max_per_node(),
        }
    }
}

/// One fault window derived from a recorded decision: where it was pinned
/// and which journal record triggered it.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DerivedFault {
    /// Node the fault targets (the recorded event's node).
    pub node: usize,
    /// Tick the injection lands on (`round(time_s / dt_s)` of the trigger).
    pub tick: u64,
    /// The injected fault.
    pub fault: FaultEvent,
    /// Tick the paired recovery event lands on.
    pub recovery_tick: u64,
    /// Timestamp of the journal record that triggered the derivation, s.
    pub trigger_time_s: f64,
}

/// A derived, tick-addressed fault plan ready to apply to a scenario.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplayPlan {
    /// Per-node schedules (injection + recovery events), keyed by node
    /// index; the exact value [`ReplayPlan::apply`] installs as
    /// `Scenario::tick_faults`.
    pub schedules: Vec<(usize, TickFaultSchedule)>,
    /// The fault windows, in journal order, with their triggers — for
    /// reports and walkthroughs.
    pub derived: Vec<DerivedFault>,
}

impl ReplayPlan {
    /// Number of derived fault windows.
    pub fn len(&self) -> usize {
        self.derived.len()
    }

    /// True when the journal yielded nothing to replay against.
    pub fn is_empty(&self) -> bool {
        self.derived.is_empty()
    }

    /// Installs the derived schedules on a scenario (replacing any existing
    /// `tick_faults`); the stochastic `faults` plans are left untouched and
    /// compose with the replayed schedule.
    pub fn apply(&self, mut scenario: Scenario) -> Scenario {
        scenario.tick_faults = self.schedules.clone();
        scenario
    }
}

/// A journal record [`derive_fault_plan`] cannot map onto the scenario —
/// the replay analogue of `std::io::ErrorKind::InvalidData`. Each variant
/// identifies the offending record by its position in the journal, so a
/// corrupt line in a multi-megabyte JSONL file can be found and excised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayError {
    /// A record's `time_s` is NaN, infinite, or negative: it has no tick.
    /// (Before this check, NaN and negative times silently rounded to tick
    /// 0 and were dropped as "before the run".)
    InvalidTime {
        /// Zero-based record index within the journal.
        index: usize,
        /// The record's node field.
        node: u32,
        /// The offending timestamp.
        time_s: f64,
    },
    /// A record names a node the scenario does not have.
    NodeOutOfRange {
        /// Zero-based record index within the journal.
        index: usize,
        /// The record's node field.
        node: u32,
        /// The scenario's fleet size; valid nodes are `0..nodes`.
        nodes: usize,
    },
    /// A record's `time_s` is earlier than the record before it. Journals
    /// are tick-ordered (`docs/FORMATS.md` §2); out of order, records
    /// past the horizon could hide earlier decisions behind them.
    NonMonotonicTime {
        /// Zero-based index of the record whose time went backwards.
        index: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::InvalidTime { index, node, time_s } => write!(
                f,
                "journal record {index} (node {node}): time_s {time_s} is not a finite, \
                 non-negative timestamp"
            ),
            ReplayError::NodeOutOfRange { index, node, nodes } => write!(
                f,
                "journal record {index}: node {node} is outside the scenario's fleet \
                 (valid nodes are 0..{nodes})"
            ),
            ReplayError::NonMonotonicTime { index } => write!(
                f,
                "journal record {index}: time_s went backwards (journals are tick-ordered)"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<ReplayError> for std::io::Error {
    fn from(e: ReplayError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Per-node derivation state: open fault windows and the window budget.
#[derive(Clone, Copy, Default)]
struct NodeWindows {
    jitter_until: u64,
    stuck_until: u64,
    dropout_until: u64,
    windows: usize,
}

/// Derives a tick-addressed fault plan from a recorded journal.
///
/// `records` is the decoded journal, from either encoding; the same
/// journal yields the same [`ReplayPlan`] whichever it was stored in.
/// `scenario` supplies the geometry the journal is replayed against: the
/// tick width (`dt_s`, for the time → tick mapping), the node count and the
/// run length (`max_time_s`; windows that would open after the end are
/// skipped). Every record's time is checked; tick-0 records (which can
/// never open a window) and records past the horizon are then skipped
/// before their node is. Overlapping windows of the same kind on the same
/// node are coalesced into the first one, so a recovery event can never
/// cancel a later injection.
///
/// # Errors
/// Returns a [`ReplayError`] identifying the offending record when the
/// journal is corrupt: a non-finite or negative `time_s`, a `time_s`
/// earlier than the one before it, or a `node` the scenario does not
/// have. A corrupt journal is a corrupt *recording* — the derivation
/// refuses to guess which faults it meant.
pub fn derive_fault_plan(
    records: &[EventRecord],
    scenario: &Scenario,
    opts: &ReplayOptions,
) -> Result<ReplayPlan, ReplayError> {
    let last_tick = (scenario.max_time_s / scenario.dt_s).round() as u64;
    let mut windows = vec![NodeWindows::default(); scenario.nodes];
    let mut schedules: Vec<TickFaultSchedule> = vec![TickFaultSchedule::none(); scenario.nodes];
    let mut derived = Vec::new();

    let mut prev_time_s = 0.0f64;
    for (index, rec) in records.iter().enumerate() {
        let Some(tick) = record_tick(rec.time_s, scenario.dt_s) else {
            return Err(ReplayError::InvalidTime { index, node: rec.node, time_s: rec.time_s });
        };
        if rec.time_s < prev_time_s {
            return Err(ReplayError::NonMonotonicTime { index });
        }
        prev_time_s = rec.time_s;
        if tick == 0 || tick > last_tick {
            continue;
        }
        let node = rec.node as usize;
        if node >= scenario.nodes {
            return Err(ReplayError::NodeOutOfRange {
                index,
                node: rec.node,
                nodes: scenario.nodes,
            });
        }
        let w = &mut windows[node];
        if w.windows >= opts.max_faults_per_node {
            continue;
        }
        let (fault, recovery, hold, open_until) = match rec.event {
            Event::ModeChange { .. } => (
                FaultEvent::SensorJitter(opts.jitter_std_c),
                FaultEvent::SensorJitter(0.0),
                opts.jitter_hold_ticks,
                &mut w.jitter_until,
            ),
            Event::TdvfsEngage { .. } => (
                FaultEvent::PwmStuck,
                FaultEvent::PwmRelease,
                opts.stuck_hold_ticks,
                &mut w.stuck_until,
            ),
            Event::FailsafeTrip { .. } => (
                FaultEvent::SensorDropout,
                FaultEvent::SensorRestore,
                opts.dropout_hold_ticks,
                &mut w.dropout_until,
            ),
            _ => continue,
        };
        if tick <= *open_until {
            // A same-kind window is still open on this node; injecting
            // again would let the earlier recovery land mid-window.
            continue;
        }
        let recovery_tick = tick.saturating_add(hold.max(1));
        *open_until = recovery_tick;
        w.windows += 1;
        schedules[node].schedule(tick, fault);
        schedules[node].schedule(recovery_tick, recovery);
        derived.push(DerivedFault { node, tick, fault, recovery_tick, trigger_time_s: rec.time_s });
    }

    let schedules = schedules.into_iter().enumerate().filter(|(_, s)| !s.is_empty()).collect();
    Ok(ReplayPlan { schedules, derived })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unitherm_obs::{ActuatorKind, TripCause, WindowLevel};

    fn rec(time_s: f64, node: u32, event: Event) -> EventRecord {
        EventRecord { time_s, node, event }
    }

    fn mode_change() -> Event {
        Event::ModeChange {
            actuator: ActuatorKind::Fan,
            from: 20,
            to: 40,
            window_level: WindowLevel::L1,
        }
    }

    fn scenario() -> Scenario {
        Scenario::new("replay-test").with_nodes(2).with_max_time(300.0)
    }

    #[test]
    fn pins_each_decision_kind_to_its_exact_tick() {
        let records = vec![
            rec(5.0, 0, mode_change()),
            rec(10.0, 1, Event::TdvfsEngage { from_mhz: 2400, to_mhz: 2200 }),
            rec(20.0, 0, Event::FailsafeTrip { cause: TripCause::StaleSensor }),
        ];
        let plan = derive_fault_plan(&records, &scenario(), &ReplayOptions::default())
            .expect("clean journal derives");
        assert_eq!(plan.len(), 3);
        // dt = 0.05, so t=5 s is tick 100.
        assert_eq!(plan.derived[0].tick, 100);
        assert_eq!(plan.derived[0].fault, FaultEvent::SensorJitter(0.75));
        assert_eq!(plan.derived[0].recovery_tick, 140);
        assert_eq!(plan.derived[1].node, 1);
        assert_eq!(plan.derived[1].tick, 200);
        assert_eq!(plan.derived[1].fault, FaultEvent::PwmStuck);
        assert_eq!(plan.derived[2].tick, 400);
        assert_eq!(plan.derived[2].fault, FaultEvent::SensorDropout);
        // Node 0 carries jitter + dropout windows, node 1 the stuck window.
        assert_eq!(plan.schedules.len(), 2);
        assert_eq!(plan.schedules[0].1.len(), 4, "two windows = four events");
        assert_eq!(plan.schedules[1].1.len(), 2);
    }

    #[test]
    fn uninteresting_and_out_of_window_events_are_skipped() {
        let records = vec![
            rec(1.0, 0, Event::FailsafeRelease),
            rec(2.0, 0, Event::TdvfsRelease { to_mhz: 2400 }),
            rec(500.0, 0, mode_change()), // past max_time_s
        ];
        let plan = derive_fault_plan(&records, &scenario(), &ReplayOptions::default())
            .expect("skippable records are not errors");
        assert!(plan.is_empty());
        assert!(plan.schedules.is_empty());
    }

    #[test]
    fn foreign_node_is_a_named_error() {
        // Regression: a record for a node outside the fleet used to be
        // silently dropped, masking journals recorded against a different
        // scenario geometry. A tick-0 record is skipped before its node is
        // checked, and the index is the record's position in the journal.
        let records = vec![
            rec(0.0, 9, mode_change()),
            rec(1.0, 0, mode_change()),
            rec(3.0, 9, mode_change()),
        ];
        let err = derive_fault_plan(&records, &scenario(), &ReplayOptions::default())
            .expect_err("node 9 does not exist in a 2-node scenario");
        assert_eq!(err, ReplayError::NodeOutOfRange { index: 2, node: 9, nodes: 2 });
        let msg = err.to_string();
        assert!(msg.contains("record 2") && msg.contains("node 9"), "{msg}");
        let io: std::io::Error = err.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn non_finite_or_negative_time_is_a_named_error() {
        // Regression: NaN and negative times rounded to tick 0 and were
        // silently dropped as "before the run started".
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let records = vec![rec(1.0, 0, mode_change()), rec(bad, 1, mode_change())];
            let err = derive_fault_plan(&records, &scenario(), &ReplayOptions::default())
                .expect_err("corrupt timestamp must not derive");
            match err {
                ReplayError::InvalidTime { index, node, time_s } => {
                    assert_eq!(index, 1);
                    assert_eq!(node, 1);
                    assert!(time_s.is_nan() == bad.is_nan() && (bad.is_nan() || time_s == bad));
                }
                other => panic!("wrong error for {bad}: {other:?}"),
            }
            assert!(err.to_string().contains("record 1"), "{err}");
        }
    }

    #[test]
    fn overlapping_same_kind_windows_coalesce() {
        // Three mode changes inside one 40-tick (2 s) jitter window: only
        // the first injects, so its recovery cannot land mid-window of a
        // later injection.
        let records = vec![
            rec(5.0, 0, mode_change()),
            rec(5.5, 0, mode_change()),
            rec(6.0, 0, mode_change()),
            rec(8.0, 0, mode_change()), // tick 160 > 140: new window
        ];
        let plan =
            derive_fault_plan(&records, &scenario(), &ReplayOptions::default()).expect("derive");
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.derived[0].tick, 100);
        assert_eq!(plan.derived[1].tick, 160);
    }

    #[test]
    fn per_node_window_budget_is_enforced() {
        let opts = ReplayOptions { max_faults_per_node: 2, ..ReplayOptions::default() };
        // Far-apart mode changes: every one would open a window.
        let records: Vec<EventRecord> =
            (1..20).map(|i| rec(f64::from(i) * 10.0, 0, mode_change())).collect();
        let plan = derive_fault_plan(&records, &scenario(), &opts).expect("derive");
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn both_encodings_derive_identical_plans() {
        let records = vec![
            rec(0.0, 0, mode_change()), // tick 0: skipped
            rec(5.0, 0, mode_change()),
            rec(5.5, 0, mode_change()), // coalesces into the t=5 window
            rec(10.0, 1, Event::TdvfsEngage { from_mhz: 2400, to_mhz: 2200 }),
            rec(20.0, 0, Event::FailsafeTrip { cause: TripCause::StaleSensor }),
        ];
        let scenario = scenario();
        let from_jsonl = derive_fault_plan(&records, &scenario, &ReplayOptions::default())
            .expect("jsonl derives");
        let bytes = unitherm_obs::records_to_bjl(&records, scenario.dt_s);
        let decoded = unitherm_obs::bjl_to_records(&bytes).expect("decode");
        let from_bjl =
            derive_fault_plan(&decoded, &scenario, &ReplayOptions::default()).expect("bjl derives");
        assert_eq!(from_jsonl, from_bjl);
        assert_eq!(from_jsonl.len(), 3);
    }

    #[test]
    fn time_going_backwards_is_a_named_error_in_both_encodings() {
        // Regression: the 500 s record is past the 300 s horizon, and the
        // walk used to stop there, silently dropping the 10 s engagement
        // behind it, while the same records as bjl failed to decode.
        let records = vec![
            rec(5.0, 0, mode_change()),
            rec(500.0, 0, mode_change()),
            rec(10.0, 1, Event::TdvfsEngage { from_mhz: 2400, to_mhz: 2200 }),
        ];
        let err = derive_fault_plan(&records, &scenario(), &ReplayOptions::default())
            .expect_err("out-of-order journal must not derive");
        assert_eq!(err, ReplayError::NonMonotonicTime { index: 2 });
        assert!(err.to_string().contains("record 2"), "{err}");
        let bytes = unitherm_obs::records_to_bjl(&records, scenario().dt_s);
        assert_eq!(
            unitherm_obs::bjl_to_records(&bytes),
            Err(unitherm_obs::BinaryJournalError::NonMonotonicTime { frame: 2 })
        );
    }

    #[test]
    fn apply_installs_tick_faults_and_keeps_stochastic_plans() {
        use unitherm_simnode::faults::FaultPlan;
        let records = vec![rec(5.0, 0, mode_change())];
        let plan =
            derive_fault_plan(&records, &scenario(), &ReplayOptions::default()).expect("derive");
        let base = scenario().with_fault(1, FaultPlan::none().at(10.0, FaultEvent::FanFailure));
        let replayed = plan.apply(base);
        replayed.validate().unwrap();
        assert_eq!(replayed.tick_faults.len(), 1);
        assert_eq!(replayed.tick_faults[0].0, 0);
        assert_eq!(replayed.faults.len(), 1, "stochastic plan untouched");
    }

    #[test]
    fn options_round_trip_and_default_from_empty_json() {
        let opts = ReplayOptions::default();
        let json = serde_json::to_string(&opts).expect("serialize");
        let back: ReplayOptions = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, opts);
        let sparse: ReplayOptions = serde_json::from_str("{}").expect("defaults");
        assert_eq!(sparse, opts);
    }
}
