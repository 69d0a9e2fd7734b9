//! Scripted fault injection for resilience experiments.
//!
//! The events model the failure scenarios the paper's related work reacts
//! to (fan failure, per Choi et al. \[10\] and Heath et al. \[7\]), plus
//! sensor dropouts, a wedged fan controller and ambient (machine-room)
//! temperature excursions.
//!
//! A node delivers exactly one [`TickFaultSchedule`]: events addressed by
//! integer tick number, popped at the start of each tick, so a fault lands
//! on *exactly* the tick its author meant, independent of floating-point
//! time accumulation. Replay derives one from a recorded journal, chaos
//! search from its fault windows. A [`FaultPlan`] is the hand-written,
//! time-addressed form a scenario may carry too; the scenario places it
//! on the run's tick clock when it builds the node's schedule
//! (`Scenario::fault_schedule` in the cluster crate).

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

/// A time-ordered script of fault events, in seconds. It is a
/// description only: a scenario places it on its run's tick clock, and the
/// node delivers the resulting [`TickFaultSchedule`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<(f64, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder-style: schedules an event at `time_s`.
    ///
    /// Events may be added in any order; the plan keeps them sorted by time
    /// (equal times in insertion order).
    ///
    /// # Panics
    /// Panics on a negative or non-finite time.
    pub fn at(mut self, time_s: f64, event: FaultEvent) -> Self {
        assert!(time_s.is_finite() && time_s >= 0.0, "event time must be finite and non-negative");
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

    /// The full plan, sorted by time.
    pub fn events(&self) -> &[(f64, FaultEvent)] {
        &self.events
    }
}

/// A tick-addressed script of fault events: the one schedule a node
/// delivers.
///
/// Ticks are the unit replay derivation works in, since recorded journal
/// events map exactly onto ticks (`tick = round(time_s / dt_s)`); a
/// scenario's time-addressed [`FaultPlan`]s are placed onto ticks before
/// the node is built. Events sharing a tick deliver in the order they were
/// scheduled.
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
    /// Events may be added in any order; the schedule keeps them sorted
    /// (equal ticks in insertion order).
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains every event `sched` delivers at `tick`.
    fn drain(sched: &mut TickFaultSchedule, tick: u64) -> Vec<FaultEvent> {
        std::iter::from_fn(|| sched.pop_due(tick)).collect()
    }

    #[test]
    fn plan_keeps_time_order_and_insertion_order_for_ties() {
        let plan = FaultPlan::none()
            .at(10.0, FaultEvent::FanFailure)
            .at(5.0, FaultEvent::AmbientStep(30.0))
            .at(10.0, FaultEvent::SensorDropout)
            .at(20.0, FaultEvent::FanRepair);
        assert_eq!(
            plan.events(),
            &[
                (5.0, FaultEvent::AmbientStep(30.0)),
                (10.0, FaultEvent::FanFailure),
                (10.0, FaultEvent::SensorDropout),
                (20.0, FaultEvent::FanRepair),
            ]
        );
        assert_eq!(plan.validate(), Ok(()));
        assert!(FaultPlan::none().events().is_empty());
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
        assert_eq!(drain(&mut sched, 39), vec![]);
        assert_eq!(
            drain(&mut sched, 40),
            vec![FaultEvent::PwmStuck, FaultEvent::SensorJitter(0.5)]
        );
        assert_eq!(drain(&mut sched, 1000), vec![FaultEvent::PwmRelease]);
        assert_eq!(drain(&mut sched, u64::MAX), vec![]);
        assert!(TickFaultSchedule::none().pop_due(u64::MAX).is_none());
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
    fn plan_json_shape_is_an_events_list() {
        let plan = FaultPlan::none().at(1.5, FaultEvent::FanFailure);
        let json = serde_json::to_string(&plan).expect("serialize");
        assert_eq!(json, r#"{"events":[[1.5,"FanFailure"]]}"#);
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, plan);
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
}
