//! Timed fault injection for resilience experiments.
//!
//! A [`FaultPlan`] is a time-ordered script of [`FaultEvent`]s applied to a
//! node as the simulation clock passes each event's deadline. It models the
//! failure scenarios the paper's related work reacts to (fan failure, per
//! Choi et al. \[10\] and Heath et al. \[7\]), plus sensor dropouts and ambient
//! (machine-room) temperature excursions.
//!
//! A [`TickFaultSchedule`] is the replay-oriented sibling: the same events,
//! addressed by integer tick number instead of seconds. Replay tooling
//! derives one from a recorded event journal so a fault lands on *exactly*
//! the tick where an earlier run made an interesting decision, independent
//! of floating-point time accumulation.

use serde::{Deserialize, Serialize};

/// A fault (or repair) applied to a node at a scheduled time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The fan rotor seizes.
    FanFailure,
    /// The fan is replaced/repaired.
    FanRepair,
    /// The thermal sensor stops responding.
    SensorDropout,
    /// The thermal sensor recovers.
    SensorRestore,
    /// The i2c fan controller starts NACKing transactions.
    I2cFailure,
    /// The i2c fan controller recovers.
    I2cRecovery,
    /// The intake air temperature changes to the given value (°C) —
    /// models an HVAC event or a hot spot forming in the rack.
    AmbientStep(f64),
    /// The fan's PWM line latches at its current duty: the rotor keeps
    /// spinning, but duty commands are ignored until [`FaultEvent::PwmRelease`].
    /// Models a wedged fan controller output stage.
    PwmStuck,
    /// The stuck PWM line releases; duty commands take effect again.
    PwmRelease,
    /// Adds the given extra gaussian standard deviation (°C) to every
    /// thermal-sensor reading; `0.0` clears it. Models a degraded sensing
    /// path (electrical noise, marginal diode).
    SensorJitter(f64),
}

impl FaultEvent {
    /// Checks the event's magnitude: the node asserts on a non-finite
    /// ambient step and on a negative or non-finite jitter.
    fn validate(self) -> Result<(), &'static str> {
        match self {
            FaultEvent::AmbientStep(c) if !c.is_finite() => Err("ambient step must be finite"),
            FaultEvent::SensorJitter(std) if !(std.is_finite() && std >= 0.0) => {
                Err("sensor jitter must be finite and non-negative")
            }
            _ => Ok(()),
        }
    }
}

/// A time-ordered script of fault events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<(f64, FaultEvent)>,
    #[serde(skip)]
    cursor: usize,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder-style: schedules an event at `time_s`.
    ///
    /// Events may be added in any order; the plan keeps them sorted by time.
    ///
    /// # Panics
    /// Panics if called after delivery has started (events already consumed)
    /// or with a non-finite time.
    pub fn at(mut self, time_s: f64, event: FaultEvent) -> Self {
        assert!(time_s.is_finite() && time_s >= 0.0, "event time must be finite and non-negative");
        assert_eq!(self.cursor, 0, "cannot extend a fault plan after delivery started");
        let idx = self.events.partition_point(|(t, _)| *t <= time_s);
        self.events.insert(idx, (time_s, event));
        self
    }

    /// Checks what [`FaultPlan::at`] enforces, for a plan that arrived
    /// deserialized: times finite, non-negative and in order, and every
    /// event usable by the node.
    pub fn validate(&self) -> Result<(), &'static str> {
        let mut prev = 0.0;
        for &(time_s, event) in &self.events {
            if !(time_s.is_finite() && time_s >= 0.0) {
                return Err("event time must be finite and non-negative");
            }
            if time_s < prev {
                return Err("event times must be in order");
            }
            prev = time_s;
            event.validate()?;
        }
        Ok(())
    }

    /// Number of scheduled events (delivered or not).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Pops the next event due at or before `now_s`, if any. Call in a
    /// loop to drain a tick's events in schedule order without allocating.
    pub fn pop_due(&mut self, now_s: f64) -> Option<FaultEvent> {
        let ev = self.next_due(now_s)?;
        self.cursor += 1;
        Some(ev)
    }

    /// True when [`FaultPlan::pop_due`] would deliver an event at `now_s`.
    pub fn has_due(&self, now_s: f64) -> bool {
        self.next_due(now_s).is_some()
    }

    fn next_due(&self, now_s: f64) -> Option<FaultEvent> {
        let &(t, ev) = self.events.get(self.cursor)?;
        (t <= now_s).then_some(ev)
    }

    /// Remaining undelivered events.
    pub fn pending(&self) -> usize {
        self.events.len() - self.cursor
    }
}

/// A tick-addressed script of fault events, for deterministic replay.
///
/// Where [`FaultPlan`] schedules in seconds (natural for hand-written
/// resilience scenarios), this schedules by tick number — the unit replay
/// derivation works in, since recorded journal events map exactly onto
/// ticks (`tick = round(time_s / dt_s)`). A node can carry both; tick
/// faults are delivered first within a tick.
///
/// Delivery is cursor-based and allocation-free: [`TickFaultSchedule::pop_due`]
/// hands out one event at a time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TickFaultSchedule {
    events: Vec<(u64, FaultEvent)>,
    #[serde(skip)]
    cursor: usize,
}

impl TickFaultSchedule {
    /// An empty schedule (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder-style: schedules an event at tick `tick` (ticks are 1-based;
    /// a node's first tick is tick 1).
    ///
    /// Events may be added in any order; the schedule keeps them sorted.
    ///
    /// # Panics
    /// Panics if called after delivery has started or with tick 0.
    pub fn at_tick(mut self, tick: u64, event: FaultEvent) -> Self {
        self.schedule(tick, event);
        self
    }

    /// Non-consuming form of [`TickFaultSchedule::at_tick`], for callers
    /// building schedules in a loop.
    ///
    /// # Panics
    /// Panics if called after delivery has started or with tick 0.
    pub fn schedule(&mut self, tick: u64, event: FaultEvent) {
        assert!(tick >= 1, "tick faults are 1-based (delivered at the start of that tick)");
        assert_eq!(self.cursor, 0, "cannot extend a fault schedule after delivery started");
        let idx = self.events.partition_point(|(t, _)| *t <= tick);
        self.events.insert(idx, (tick, event));
    }

    /// Checks what [`TickFaultSchedule::schedule`] enforces, for a
    /// schedule that arrived deserialized: ticks at least 1 and in order,
    /// and every event usable by the node.
    pub fn validate(&self) -> Result<(), &'static str> {
        let mut prev = 1;
        for &(tick, event) in &self.events {
            if tick < 1 {
                return Err("tick faults are 1-based (delivered at the start of that tick)");
            }
            if tick < prev {
                return Err("event ticks must be in order");
            }
            prev = tick;
            event.validate()?;
        }
        Ok(())
    }

    /// Number of scheduled events (delivered or not).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The full schedule, sorted by tick.
    pub fn events(&self) -> &[(u64, FaultEvent)] {
        &self.events
    }

    /// Pops the next event due at or before `tick`, if any. Call in a loop
    /// to drain a tick's events without allocating.
    pub fn pop_due(&mut self, tick: u64) -> Option<FaultEvent> {
        let ev = self.next_due(tick)?;
        self.cursor += 1;
        Some(ev)
    }

    /// True when [`TickFaultSchedule::pop_due`] would deliver an event at
    /// `tick`.
    pub fn has_due(&self, tick: u64) -> bool {
        self.next_due(tick).is_some()
    }

    fn next_due(&self, tick: u64) -> Option<FaultEvent> {
        let &(t, ev) = self.events.get(self.cursor)?;
        (t <= tick).then_some(ev)
    }

    /// Remaining undelivered events.
    pub fn pending(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Builds a single injection/recovery window: `inject` lands at
    /// `start_tick`, `recover` at `start_tick + hold_ticks` (hold is
    /// clamped to at least one tick, so the pair never collapses onto the
    /// same tick in the wrong order).
    ///
    /// This is the unit the chaos search mutates: a candidate fault
    /// sequence is a set of windows, each built here and combined with
    /// [`TickFaultSchedule::merge`].
    ///
    /// # Panics
    /// Panics when `start_tick` is 0 (ticks are 1-based).
    pub fn window(
        start_tick: u64,
        hold_ticks: u64,
        inject: FaultEvent,
        recover: FaultEvent,
    ) -> Self {
        Self::none()
            .at_tick(start_tick, inject)
            .at_tick(start_tick.saturating_add(hold_ticks.max(1)), recover)
    }

    /// Merges another schedule's events into this one, keeping tick order
    /// (equal ticks keep `self`'s events first, then `other`'s — a stable,
    /// deterministic interleave).
    ///
    /// # Panics
    /// Panics if delivery has started on either schedule.
    pub fn merge(&mut self, other: &TickFaultSchedule) {
        assert_eq!(other.cursor, 0, "cannot merge a schedule after its delivery started");
        for &(tick, ev) in &other.events {
            self.schedule(tick, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains every event `plan` delivers at `now_s`.
    fn drain(plan: &mut FaultPlan, now_s: f64) -> Vec<FaultEvent> {
        std::iter::from_fn(|| plan.pop_due(now_s)).collect()
    }

    #[test]
    fn delivers_in_time_order() {
        let mut plan = FaultPlan::none()
            .at(10.0, FaultEvent::FanFailure)
            .at(5.0, FaultEvent::AmbientStep(30.0))
            .at(20.0, FaultEvent::FanRepair);
        assert_eq!(plan.len(), 3);
        assert_eq!(drain(&mut plan, 4.9), vec![]);
        assert_eq!(drain(&mut plan, 5.0), vec![FaultEvent::AmbientStep(30.0)]);
        assert_eq!(drain(&mut plan, 15.0), vec![FaultEvent::FanFailure]);
        assert_eq!(plan.pending(), 1);
        assert_eq!(drain(&mut plan, 100.0), vec![FaultEvent::FanRepair]);
        assert_eq!(plan.pending(), 0);
        assert_eq!(drain(&mut plan, 200.0), vec![]);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut plan =
            FaultPlan::none().at(5.0, FaultEvent::FanFailure).at(5.0, FaultEvent::SensorDropout);
        assert_eq!(drain(&mut plan, 5.0), vec![FaultEvent::FanFailure, FaultEvent::SensorDropout]);
    }

    #[test]
    fn empty_plan() {
        let mut plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.has_due(1e9), "nothing pending");
        assert_eq!(plan.pop_due(1e9), None);
    }

    #[test]
    fn plan_peek_matches_delivery() {
        let mut plan = FaultPlan::none().at(2.5, FaultEvent::PwmStuck);
        assert!(!plan.has_due(2.499));
        // Due exactly at the boundary, like `pop_due`.
        assert!(plan.has_due(2.5));
        assert!(plan.has_due(2.5), "peeking consumes nothing");
        assert_eq!(plan.pop_due(2.5), Some(FaultEvent::PwmStuck));
        assert!(!plan.has_due(1e9), "nothing left after the drain");
    }

    #[test]
    #[should_panic(expected = "after delivery started")]
    fn cannot_extend_after_delivery() {
        let mut plan = FaultPlan::none().at(1.0, FaultEvent::FanFailure);
        let _ = plan.pop_due(2.0);
        let _ = plan.at(3.0, FaultEvent::FanRepair);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative_time() {
        let _ = FaultPlan::none().at(-1.0, FaultEvent::FanFailure);
    }

    #[test]
    fn tick_schedule_delivers_in_order_one_at_a_time() {
        let mut sched = TickFaultSchedule::none()
            .at_tick(200, FaultEvent::PwmRelease)
            .at_tick(40, FaultEvent::PwmStuck)
            .at_tick(40, FaultEvent::SensorJitter(0.5));
        assert_eq!(sched.len(), 3);
        assert_eq!(sched.pop_due(39), None);
        assert_eq!(sched.pop_due(40), Some(FaultEvent::PwmStuck));
        assert_eq!(sched.pop_due(40), Some(FaultEvent::SensorJitter(0.5)));
        assert_eq!(sched.pop_due(40), None);
        assert_eq!(sched.pending(), 1);
        assert_eq!(sched.pop_due(1000), Some(FaultEvent::PwmRelease));
        assert_eq!(sched.pop_due(1000), None);
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn tick_schedule_peek_matches_delivery() {
        let mut sched = TickFaultSchedule::none().at_tick(12, FaultEvent::I2cFailure);
        assert!(!sched.has_due(11));
        // Due exactly at its tick, like `pop_due`.
        assert!(sched.has_due(12));
        assert!(sched.has_due(12), "peeking consumes nothing");
        assert_eq!(sched.pop_due(12), Some(FaultEvent::I2cFailure));
        assert!(!sched.has_due(u64::MAX), "nothing left after the drain");
        assert!(!TickFaultSchedule::none().has_due(u64::MAX), "nothing pending");
    }

    #[test]
    fn tick_schedule_round_trips_and_resets_cursor() {
        let sched = TickFaultSchedule::none()
            .at_tick(10, FaultEvent::SensorDropout)
            .at_tick(110, FaultEvent::SensorRestore);
        let json = serde_json::to_string(&sched).expect("serialize");
        let mut back: TickFaultSchedule = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, sched);
        // The cursor is serde(skip): a deserialized schedule delivers from
        // the start, which is what replay needs.
        assert_eq!(back.pop_due(10), Some(FaultEvent::SensorDropout));
    }

    #[test]
    #[should_panic(expected = "after delivery started")]
    fn tick_schedule_cannot_extend_after_delivery() {
        let mut sched = TickFaultSchedule::none().at_tick(1, FaultEvent::FanFailure);
        let _ = sched.pop_due(5);
        sched.schedule(9, FaultEvent::FanRepair);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn tick_schedule_rejects_tick_zero() {
        let _ = TickFaultSchedule::none().at_tick(0, FaultEvent::FanFailure);
    }

    #[test]
    fn window_builds_an_injection_recovery_pair() {
        let w = TickFaultSchedule::window(
            100,
            50,
            FaultEvent::SensorDropout,
            FaultEvent::SensorRestore,
        );
        assert_eq!(
            w.events(),
            &[(100, FaultEvent::SensorDropout), (150, FaultEvent::SensorRestore)]
        );
        // A zero hold is clamped so recovery still lands after injection.
        let z = TickFaultSchedule::window(7, 0, FaultEvent::PwmStuck, FaultEvent::PwmRelease);
        assert_eq!(z.events(), &[(7, FaultEvent::PwmStuck), (8, FaultEvent::PwmRelease)]);
    }

    #[test]
    fn merge_interleaves_in_tick_order() {
        let mut a = TickFaultSchedule::window(10, 30, FaultEvent::PwmStuck, FaultEvent::PwmRelease);
        let b = TickFaultSchedule::window(
            20,
            5,
            FaultEvent::SensorJitter(2.0),
            FaultEvent::SensorJitter(0.0),
        );
        a.merge(&b);
        assert_eq!(
            a.events(),
            &[
                (10, FaultEvent::PwmStuck),
                (20, FaultEvent::SensorJitter(2.0)),
                (25, FaultEvent::SensorJitter(0.0)),
                (40, FaultEvent::PwmRelease),
            ]
        );
        // Merged schedules deliver like any other.
        assert_eq!(a.pop_due(10), Some(FaultEvent::PwmStuck));
    }

    #[test]
    #[should_panic(expected = "after its delivery started")]
    fn merge_rejects_consumed_source() {
        let mut a = TickFaultSchedule::none();
        let mut b = TickFaultSchedule::window(5, 5, FaultEvent::FanFailure, FaultEvent::FanRepair);
        let _ = b.pop_due(5);
        a.merge(&b);
    }
}
