//! The pluggable event-recording trait and the emission context.

use crate::counters::Counters;
use crate::event::{ActuatorKind, Event, EventRecord, InjectedFault, TripCause, WindowLevel};

/// Where emitted events go.
///
/// Implementations used on the simulation hot path must not allocate in
/// `record` — the counting-allocator regression test in `unitherm-cluster`
/// enforces this for the rings of an [`crate::EventRings`] block. Offline sinks (the JSONL
/// [`crate::JournalWriter`]) may allocate freely.
///
/// # Example
///
/// A custom sink is one method; [`VecSink`] is the simplest built-in:
///
/// ```
/// use unitherm_obs::{Event, EventRecord, EventSink, VecSink};
///
/// let mut sink = VecSink::default();
/// sink.record(&EventRecord { time_s: 1.5, node: 0, event: Event::FailsafeRelease });
/// assert_eq!(sink.records.len(), 1);
/// assert_eq!(sink.records[0].time_s, 1.5);
/// ```
pub trait EventSink {
    /// Records one event. The record is borrowed — hot-path sinks copy it
    /// into pre-reserved storage.
    fn record(&mut self, rec: &EventRecord);

    /// A human-readable description of a failure the sink entered while
    /// recording, if any. In-memory sinks never fail; journal writers latch
    /// their first I/O error here so the simulation can surface "your
    /// journal is incomplete" in the run report instead of silently
    /// dropping the tail of the stream.
    fn sink_error(&self) -> Option<String> {
        None
    }
}

/// Discards every event (the default when observability is off).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _rec: &EventRecord) {}
}

/// Collects every event into a growable `Vec` (tests, offline analysis —
/// not for the allocation-free hot path).
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// The collected records, in emission order.
    pub records: Vec<EventRecord>,
}

impl EventSink for VecSink {
    fn record(&mut self, rec: &EventRecord) {
        self.records.push(*rec);
    }
}

/// Fans one event stream out to two sinks (e.g. a node's event ring
/// plus a shared JSONL journal).
pub struct TeeSink<'a> {
    a: &'a mut dyn EventSink,
    b: &'a mut dyn EventSink,
}

impl<'a> TeeSink<'a> {
    /// Combines two sinks; both receive every record.
    pub fn new(a: &'a mut dyn EventSink, b: &'a mut dyn EventSink) -> Self {
        Self { a, b }
    }
}

impl EventSink for TeeSink<'_> {
    fn record(&mut self, rec: &EventRecord) {
        self.a.record(rec);
        self.b.record(rec);
    }

    fn sink_error(&self) -> Option<String> {
        self.a.sink_error().or_else(|| self.b.sink_error())
    }
}

/// The emission context the control plane threads through one sample or
/// tick: a sink, the counter block, and the metadata every record carries.
///
/// The helper methods keep the counters consistent with the event stream —
/// a `ModeChange` at level 2 always bumps `l2_fallbacks`, a trip always
/// bumps `failsafe_trips` — so callers cannot drift the two apart.
pub struct Observer<'a> {
    sink: &'a mut dyn EventSink,
    /// The monotonic counter block being maintained.
    pub counters: &'a mut Counters,
    node: u32,
    time_s: f64,
}

impl<'a> Observer<'a> {
    /// Creates an observer stamping records with `node` and `time_s`.
    pub fn new(
        sink: &'a mut dyn EventSink,
        counters: &'a mut Counters,
        node: u32,
        time_s: f64,
    ) -> Self {
        Self { sink, counters, node, time_s }
    }

    /// The timestamp records are being stamped with.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Emits one event through the sink.
    pub fn emit(&mut self, event: Event) {
        self.counters.events_emitted += 1;
        self.sink.record(&EventRecord { time_s: self.time_s, node: self.node, event });
    }

    /// Emits a [`Event::ModeChange`] and maintains the per-level decision
    /// counters. `saturated` marks a decision clamped at an array end.
    pub fn mode_change(
        &mut self,
        actuator: ActuatorKind,
        from: u32,
        to: u32,
        window_level: WindowLevel,
        saturated: bool,
    ) {
        match window_level {
            WindowLevel::L1 => self.counters.l1_decisions += 1,
            WindowLevel::L2 => self.counters.l2_fallbacks += 1,
            WindowLevel::Feedforward => self.counters.feedforward_decisions += 1,
            WindowLevel::Governor => self.counters.governor_decisions += 1,
        }
        if saturated {
            self.counters.saturations += 1;
        }
        self.emit(Event::ModeChange { actuator, from, to, window_level });
    }

    /// Emits a [`Event::TdvfsEngage`] and bumps its counter.
    pub fn tdvfs_engage(&mut self, from_mhz: u32, to_mhz: u32) {
        self.counters.tdvfs_engagements += 1;
        self.emit(Event::TdvfsEngage { from_mhz, to_mhz });
    }

    /// Emits a [`Event::TdvfsRelease`] and bumps its counter.
    pub fn tdvfs_release(&mut self, to_mhz: u32) {
        self.counters.tdvfs_releases += 1;
        self.emit(Event::TdvfsRelease { to_mhz });
    }

    /// Emits a [`Event::FailsafeTrip`] and bumps its counter.
    pub fn failsafe_trip(&mut self, cause: TripCause) {
        self.counters.failsafe_trips += 1;
        self.emit(Event::FailsafeTrip { cause });
    }

    /// Emits a [`Event::FaultInjected`] and bumps its counter.
    pub fn fault_injected(&mut self, kind: InjectedFault, magnitude: f64) {
        self.counters.faults_injected += 1;
        self.emit(Event::FaultInjected { kind, magnitude });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CrossDirection;

    #[test]
    fn observer_stamps_and_counts() {
        let mut sink = VecSink::default();
        let mut counters = Counters::default();
        {
            let mut obs = Observer::new(&mut sink, &mut counters, 7, 3.5);
            obs.mode_change(ActuatorKind::Fan, 1, 30, WindowLevel::L2, false);
            obs.tdvfs_engage(2400, 2200);
            obs.failsafe_trip(TripCause::StaleSensor);
            obs.emit(Event::ThresholdCross {
                threshold_c: 51.0,
                temp_c: 51.3,
                direction: CrossDirection::Above,
            });
        }
        assert_eq!(sink.records.len(), 4);
        assert!(sink.records.iter().all(|r| r.node == 7 && r.time_s == 3.5));
        assert_eq!(counters.events_emitted, 4);
        assert_eq!(counters.l2_fallbacks, 1);
        assert_eq!(counters.tdvfs_engagements, 1);
        assert_eq!(counters.failsafe_trips, 1);
        assert_eq!(counters.l1_decisions, 0);
    }

    #[test]
    fn tee_duplicates_records() {
        let mut a = VecSink::default();
        let mut b = VecSink::default();
        let rec = EventRecord { time_s: 0.0, node: 0, event: Event::FailsafeRelease };
        TeeSink::new(&mut a, &mut b).record(&rec);
        assert_eq!(a.records, vec![rec]);
        assert_eq!(b.records, vec![rec]);
    }
}
