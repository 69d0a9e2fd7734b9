//! Property tests over the `unitherm-bjl/v1` binary journal codec
//! (`docs/FORMATS.md` §5): arbitrary event sequences must survive the
//! encode → decode round trip bit-for-bit, corrupt streams must be
//! rejected with named errors rather than garbage records.

use proptest::prelude::*;

use unitherm::obs::{
    bjl_to_records, records_to_bjl, ActuatorKind, BinaryJournalError, CrossDirection, Event,
    EventRecord, InjectedFault, SearchPhase, TripCause, WindowLevel, BJL_FRAME_LEN, BJL_HEADER_LEN,
};

const DT_S: f64 = 0.05;

// ------------------------------------------------------------- strategies

fn actuator() -> impl Strategy<Value = ActuatorKind> {
    prop_oneof![Just(ActuatorKind::Fan), Just(ActuatorKind::Dvfs), Just(ActuatorKind::Sleep)]
}

fn window_level() -> impl Strategy<Value = WindowLevel> {
    prop_oneof![
        Just(WindowLevel::L1),
        Just(WindowLevel::L2),
        Just(WindowLevel::Feedforward),
        Just(WindowLevel::Governor),
    ]
}

fn direction() -> impl Strategy<Value = CrossDirection> {
    prop_oneof![Just(CrossDirection::Above), Just(CrossDirection::Below)]
}

fn trip_cause() -> impl Strategy<Value = TripCause> {
    prop_oneof![Just(TripCause::StaleSensor), Just(TripCause::OverTemperature)]
}

fn fault_kind() -> impl Strategy<Value = InjectedFault> {
    prop_oneof![
        Just(InjectedFault::FanFailure),
        Just(InjectedFault::FanRepair),
        Just(InjectedFault::SensorDropout),
        Just(InjectedFault::SensorRestore),
        Just(InjectedFault::I2cFailure),
        Just(InjectedFault::I2cRecovery),
        Just(InjectedFault::AmbientStep),
        Just(InjectedFault::PwmStuck),
        Just(InjectedFault::PwmRelease),
        Just(InjectedFault::SensorJitter),
    ]
}

fn search_phase() -> impl Strategy<Value = SearchPhase> {
    prop_oneof![Just(SearchPhase::Sample), Just(SearchPhase::Mutate), Just(SearchPhase::Bisect)]
}

/// Every [`Event`] variant with arbitrary payloads.
fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (actuator(), window_level(), any::<u32>(), any::<u32>()).prop_map(
            |(actuator, window_level, from, to)| Event::ModeChange {
                actuator,
                from,
                to,
                window_level
            }
        ),
        (any::<f64>(), any::<f64>(), direction()).prop_map(|(threshold_c, temp_c, direction)| {
            Event::ThresholdCross { threshold_c, temp_c, direction }
        }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(from_mhz, to_mhz)| Event::TdvfsEngage { from_mhz, to_mhz }),
        any::<u32>().prop_map(|to_mhz| Event::TdvfsRelease { to_mhz }),
        trip_cause().prop_map(|cause| Event::FailsafeTrip { cause }),
        Just(Event::FailsafeRelease),
        (any::<f64>(), any::<f64>()).prop_map(|(utilization, predicted_delta_c)| {
            Event::PredictionSample { utilization, predicted_delta_c }
        }),
        (fault_kind(), any::<f64>())
            .prop_map(|(kind, magnitude)| Event::FaultInjected { kind, magnitude }),
        (search_phase(), any::<u32>(), any::<u32>(), any::<u64>()).prop_map(
            |(phase, evaluated, counterexamples, best_cost)| Event::SearchProgress {
                phase,
                evaluated,
                counterexamples,
                best_cost
            }
        ),
    ]
}

/// A journal-shaped record stream: tick-stamped times that never decrease
/// (the §2 ordering contract the decoder validates).
fn records() -> impl Strategy<Value = Vec<EventRecord>> {
    prop::collection::vec((0u64..4, 0u32..64, event()), 0..80).prop_map(|steps| {
        let mut tick = 0u64;
        steps
            .into_iter()
            .map(|(delta, node, event)| {
                tick += delta;
                EventRecord { time_s: tick as f64 * DT_S, node, event }
            })
            .collect()
    })
}

// ------------------------------------------------------------- properties

proptest! {
    /// Encode → decode is the identity on every event variant and payload,
    /// and the encoding is exactly header + one fixed-width frame per event.
    #[test]
    fn round_trip_is_identity(records in records()) {
        let bytes = records_to_bjl(&records, DT_S);
        prop_assert_eq!(bytes.len(), BJL_HEADER_LEN + records.len() * BJL_FRAME_LEN);
        let decoded = bjl_to_records(&bytes).expect("self-produced journal decodes");
        prop_assert_eq!(decoded, records);
    }

    /// Cutting the stream anywhere off a frame boundary is rejected with a
    /// named truncation error; cutting *on* a boundary yields exactly the
    /// surviving prefix of records.
    #[test]
    fn truncation_is_detected_or_yields_a_prefix(records in records(), cut_frac in 0.0f64..=1.0) {
        let bytes = records_to_bjl(&records, DT_S);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        match bjl_to_records(&bytes[..cut]) {
            Ok(decoded) => {
                // Only a whole header plus whole frames may decode.
                prop_assert!(cut >= BJL_HEADER_LEN);
                prop_assert!((cut - BJL_HEADER_LEN).is_multiple_of(BJL_FRAME_LEN));
                let kept = (cut - BJL_HEADER_LEN) / BJL_FRAME_LEN;
                prop_assert_eq!(decoded, records[..kept].to_vec());
            }
            Err(BinaryJournalError::TruncatedHeader { len }) => {
                prop_assert!(cut < BJL_HEADER_LEN);
                prop_assert_eq!(len, cut);
            }
            Err(BinaryJournalError::TruncatedFrame { trailing, .. }) => {
                prop_assert!(cut >= BJL_HEADER_LEN);
                prop_assert_eq!(trailing, (cut - BJL_HEADER_LEN) % BJL_FRAME_LEN);
                prop_assert!(trailing != 0);
            }
            Err(other) => prop_assert!(false, "unexpected error on truncation: {other}"),
        }
    }

    /// Any corruption of the magic or version bytes is rejected by name —
    /// a foreign file can never be misread as a journal.
    #[test]
    fn corrupt_header_is_rejected_by_name(records in records(), byte in 0usize..6, flip in 1u8..=255) {
        let mut bytes = records_to_bjl(&records, DT_S);
        bytes[byte] ^= flip;
        match bjl_to_records(&bytes) {
            Err(BinaryJournalError::BadMagic { .. }) => prop_assert!(byte < 4),
            Err(BinaryJournalError::UnsupportedVersion { found }) => {
                prop_assert!(byte >= 4);
                prop_assert!(found != 1);
            }
            Ok(_) => prop_assert!(false, "corrupt header byte {byte} accepted"),
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }
}
