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
//! * a `ModeChange` gets an [`AttackKind::SensorJitter`] window (0.75 °C
//!   for 40 ticks) — the controller must re-make the decision through a
//!   degraded sensing path;
//! * a `TdvfsEngage` gets an [`AttackKind::PwmStuck`] window (200 ticks) —
//!   in-band control engages exactly while the out-of-band actuator is
//!   wedged;
//! * a `FailsafeTrip` gets an [`AttackKind::SensorDropout`] window (100
//!   ticks) — the watchdog's stale-sensor path fires again under a true
//!   blackout.
//!
//! [`FaultWindow`] is also the chaos search's vocabulary
//! ([`crate::chaos`]), and both producers lower their windows onto the
//! per-node schedules through one function, `to_schedules`.
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

/// The fault vocabulary of replay and of the chaos search
/// ([`crate::chaos`]). Every kind is a paired injection/recovery, so a
/// window is always bounded: the search minimizes *how little*
/// misbehavior flips an outcome, and a permanent fault has no cost to
/// shrink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AttackKind {
    /// Sensor blackout: [`FaultEvent::SensorDropout`] → `SensorRestore`.
    SensorDropout,
    /// Wedged fan output stage: [`FaultEvent::PwmStuck`] → `PwmRelease`.
    PwmStuck,
    /// Degraded sensing path: [`FaultEvent::SensorJitter`] (the window's
    /// magnitude is the extra std-dev, °C) → `SensorJitter(0.0)`.
    SensorJitter,
    /// Seized rotor: [`FaultEvent::FanFailure`] → `FanRepair`.
    FanFailure,
}

impl AttackKind {
    /// Every kind, in declaration order.
    pub(crate) const ALL: [AttackKind; 4] = [
        AttackKind::SensorDropout,
        AttackKind::PwmStuck,
        AttackKind::SensorJitter,
        AttackKind::FanFailure,
    ];

    /// The fault that opens a window of this kind.
    pub fn inject(self, magnitude: f64) -> FaultEvent {
        match self {
            AttackKind::SensorDropout => FaultEvent::SensorDropout,
            AttackKind::PwmStuck => FaultEvent::PwmStuck,
            AttackKind::SensorJitter => FaultEvent::SensorJitter(magnitude),
            AttackKind::FanFailure => FaultEvent::FanFailure,
        }
    }

    /// The fault that closes a window of this kind.
    pub(crate) fn recover(self) -> FaultEvent {
        match self {
            AttackKind::SensorDropout => FaultEvent::SensorRestore,
            AttackKind::PwmStuck => FaultEvent::PwmRelease,
            AttackKind::SensorJitter => FaultEvent::SensorJitter(0.0),
            AttackKind::FanFailure => FaultEvent::FanRepair,
        }
    }
}

/// One bounded fault window: `kind` is injected on `node` at `start_tick`
/// and recovered `hold_ticks` later.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultWindow {
    /// Target node index.
    pub node: usize,
    /// Injection tick (1-based, like all tick faults).
    pub start_tick: u64,
    /// Ticks until the paired recovery.
    pub hold_ticks: u64,
    /// What is injected.
    pub kind: AttackKind,
    /// Kind-specific magnitude ([`AttackKind::SensorJitter`]'s extra
    /// std-dev, °C; 0 for the on/off kinds). Always finite and
    /// non-negative.
    pub magnitude: f64,
}

/// Lowers fault windows onto per-node `tick_faults` schedules, in node
/// order. Each window schedules its injection and, at least one tick
/// later, its recovery; a node's windows are scheduled in the order given.
pub(crate) fn to_schedules(windows: &[FaultWindow]) -> Vec<(usize, TickFaultSchedule)> {
    let mut out: Vec<(usize, TickFaultSchedule)> = Vec::new();
    for w in windows {
        let i = out.iter().position(|(n, _)| *n == w.node).unwrap_or_else(|| {
            out.push((w.node, TickFaultSchedule::none()));
            out.len() - 1
        });
        let start = w.start_tick.max(1);
        out[i].1.schedule(start, w.kind.inject(w.magnitude));
        out[i].1.schedule(start.saturating_add(w.hold_ticks.max(1)), w.kind.recover());
    }
    out.sort_by_key(|(n, _)| *n);
    out
}

/// Most fault windows replay opens on one node, so an event-dense journal
/// cannot schedule unbounded faults.
const MAX_WINDOWS_PER_NODE: usize = 8;

/// The window replay opens at a recorded decision, as `(kind, magnitude,
/// hold ticks)`; the holds are sized for the 50 ms tick (a 40-tick jitter
/// burst is 2 s of degraded sensing, eight 4 Hz samples). `None` for
/// events that are not decisions.
fn window_for(event: &Event) -> Option<(AttackKind, f64, u64)> {
    match event {
        Event::ModeChange { .. } => Some((AttackKind::SensorJitter, 0.75, 40)),
        Event::TdvfsEngage { .. } => Some((AttackKind::PwmStuck, 0.0, 200)),
        Event::FailsafeTrip { .. } => Some((AttackKind::SensorDropout, 0.0, 100)),
        _ => None,
    }
}

/// A derived, tick-addressed fault plan ready to apply to a scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayPlan {
    /// The fault windows, in journal order.
    pub windows: Vec<FaultWindow>,
}

impl ReplayPlan {
    /// Number of derived fault windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when the journal yielded nothing to replay against.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Installs the windows' schedules on a scenario, lowered the way the
    /// chaos search lowers its candidates, replacing any existing
    /// `tick_faults`; the stochastic `faults` plans are left untouched and
    /// compose with the replayed schedule.
    pub fn apply(&self, mut scenario: Scenario) -> Scenario {
        scenario.tick_faults = to_schedules(&self.windows);
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

/// Per-node derivation state: the tick each kind's open window closes
/// on (indexed by `AttackKind as usize`), and the windows opened so far.
#[derive(Clone, Copy, Default)]
struct NodeWindows {
    open_until: [u64; AttackKind::ALL.len()],
    opened: usize,
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
/// before their node is. A trigger that lands while a same-kind window is
/// still open on its node is absorbed by that window, so a recovery event
/// can never cancel a later injection; a node opens at most 8 windows.
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
) -> Result<ReplayPlan, ReplayError> {
    let last_tick = (scenario.max_time_s / scenario.dt_s).round() as u64;
    let mut state = vec![NodeWindows::default(); scenario.nodes];
    let mut windows = Vec::new();

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
        let s = &mut state[node];
        if s.opened >= MAX_WINDOWS_PER_NODE {
            continue;
        }
        let Some((kind, magnitude, hold_ticks)) = window_for(&rec.event) else {
            continue;
        };
        // An open same-kind window absorbs the trigger; injecting again
        // would let the earlier recovery land mid-window. (The chaos search
        // unions overlapping windows instead: it owns both ends of each.)
        let open_until = &mut s.open_until[kind as usize];
        if tick <= *open_until {
            continue;
        }
        *open_until = tick.saturating_add(hold_ticks);
        s.opened += 1;
        windows.push(FaultWindow { node, start_tick: tick, hold_ticks, kind, magnitude });
    }
    Ok(ReplayPlan { windows })
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
        let plan = derive_fault_plan(&records, &scenario()).expect("clean journal derives");
        // dt = 0.05, so t=5 s is tick 100.
        let window = |node, start_tick, hold_ticks, kind, magnitude| FaultWindow {
            node,
            start_tick,
            hold_ticks,
            kind,
            magnitude,
        };
        assert_eq!(
            plan.windows,
            [
                window(0, 100, 40, AttackKind::SensorJitter, 0.75),
                window(1, 200, 200, AttackKind::PwmStuck, 0.0),
                window(0, 400, 100, AttackKind::SensorDropout, 0.0),
            ]
        );
        // Node 0 carries jitter + dropout windows, node 1 the stuck window.
        let schedules = to_schedules(&plan.windows);
        assert_eq!(schedules.len(), 2);
        assert_eq!(
            schedules[0].1.events(),
            &[
                (100, FaultEvent::SensorJitter(0.75)),
                (140, FaultEvent::SensorJitter(0.0)),
                (400, FaultEvent::SensorDropout),
                (500, FaultEvent::SensorRestore),
            ]
        );
        assert_eq!(
            schedules[1].1.events(),
            &[(200, FaultEvent::PwmStuck), (400, FaultEvent::PwmRelease)]
        );
    }

    #[test]
    fn schedules_install_paired_windows() {
        let windows = vec![
            FaultWindow {
                node: 1,
                start_tick: 100,
                hold_ticks: 40,
                kind: AttackKind::SensorJitter,
                magnitude: 2.5,
            },
            FaultWindow {
                node: 0,
                start_tick: 10,
                hold_ticks: 20,
                kind: AttackKind::SensorDropout,
                magnitude: 0.0,
            },
        ];
        let scheds = to_schedules(&windows);
        assert_eq!(scheds.len(), 2);
        assert_eq!(scheds[0].0, 0);
        assert_eq!(
            scheds[0].1.events(),
            &[(10, FaultEvent::SensorDropout), (30, FaultEvent::SensorRestore)]
        );
        assert_eq!(
            scheds[1].1.events(),
            &[(100, FaultEvent::SensorJitter(2.5)), (140, FaultEvent::SensorJitter(0.0))]
        );
    }

    #[test]
    fn uninteresting_and_out_of_window_events_are_skipped() {
        let records = vec![
            rec(1.0, 0, Event::FailsafeRelease),
            rec(2.0, 0, Event::TdvfsRelease { to_mhz: 2400 }),
            rec(500.0, 0, mode_change()), // past max_time_s
        ];
        let plan =
            derive_fault_plan(&records, &scenario()).expect("skippable records are not errors");
        assert!(plan.is_empty());
        assert!(to_schedules(&plan.windows).is_empty());
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
        let err = derive_fault_plan(&records, &scenario())
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
            let err = derive_fault_plan(&records, &scenario())
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
        let plan = derive_fault_plan(&records, &scenario()).expect("derive");
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.windows[0].start_tick, 100);
        assert_eq!(plan.windows[1].start_tick, 160);
    }

    #[test]
    fn per_node_window_budget_is_enforced() {
        // Far-apart mode changes: every one would open a window.
        let records: Vec<EventRecord> =
            (1..20).map(|i| rec(f64::from(i) * 10.0, 0, mode_change())).collect();
        let plan = derive_fault_plan(&records, &scenario()).expect("derive");
        assert_eq!(plan.len(), MAX_WINDOWS_PER_NODE);
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
        let from_jsonl = derive_fault_plan(&records, &scenario).expect("jsonl derives");
        let bytes = unitherm_obs::records_to_bjl(&records, scenario.dt_s);
        let decoded = unitherm_obs::bjl_to_records(&bytes).expect("decode");
        let from_bjl = derive_fault_plan(&decoded, &scenario).expect("bjl derives");
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
        let err = derive_fault_plan(&records, &scenario())
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
        let plan = derive_fault_plan(&records, &scenario()).expect("derive");
        let base = scenario().with_fault(1, FaultPlan::none().at(10.0, FaultEvent::FanFailure));
        let replayed = plan.apply(base);
        replayed.validate().unwrap();
        assert_eq!(replayed.tick_faults.len(), 1);
        assert_eq!(replayed.tick_faults[0].0, 0);
        assert_eq!(replayed.faults.len(), 1, "stochastic plan untouched");
    }
}
