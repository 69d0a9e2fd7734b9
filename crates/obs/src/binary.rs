//! The `unitherm-bjl/v1` compact binary journal.
//!
//! JSONL journals cost ~120 bytes per event. This module defines a
//! versioned fixed-width encoding of the same [`EventRecord`] stream — a
//! 16-byte header followed by 32-byte frames — so week-long and
//! large-fleet traces are cheap to write and store:
//!
//! * [`BinaryJournalWriter`] — the streaming [`EventSink`]: one fixed-width
//!   frame per record, no per-event heap allocation after construction;
//! * [`records_to_bjl`] / [`bjl_to_records`] — lossless converters to and
//!   from the JSONL [`EventRecord`] vocabulary (`time_s` is stored as raw
//!   IEEE-754 bits, so JSONL → bjl → JSONL is byte-identical). Decoding is
//!   the format's one read edge: it validates the header, every frame and
//!   the time column in one pass, and readers work on the decoded records.
//!
//! The full byte layout is specified in `docs/FORMATS.md` §5; this module
//! is the normative implementation.
//!
//! ## Layout
//!
//! Header (16 bytes): magic `b"UBJL"`, version `u16`, frame length `u16`,
//! then the scenario tick width `dt_s` as an `f64` — everything
//! little-endian. The `dt_s` in the header is what makes frames
//! tick-addressable: `tick = round(time_s / dt_s)`.
//!
//! Frame (32 bytes): `time_s` (`f64` bits, offset 0), `node` (`u32`,
//! offset 8), event tag (`u8`, offset 12), a reserved byte, then an
//! 18-byte variant-specific payload zero-padded to the frame end.

use std::io::{self, Write};

use crate::event::{
    ActuatorKind, CrossDirection, Event, EventRecord, InjectedFault, SearchPhase, TripCause,
    WindowLevel,
};
use crate::sink::EventSink;

/// The four magic bytes every `unitherm-bjl` file starts with.
pub const BJL_MAGIC: [u8; 4] = *b"UBJL";
/// The format version this module reads and writes.
pub const BJL_VERSION: u16 = 1;
/// Header length in bytes: magic, version, frame length, `dt_s`.
pub const BJL_HEADER_LEN: usize = 16;
/// Fixed frame length in bytes (one frame per [`EventRecord`]).
pub const BJL_FRAME_LEN: usize = 32;

/// Why a byte stream is not a readable `unitherm-bjl/v1` journal. Every
/// variant names the offending location so a corrupt multi-gigabyte trace
/// can be diagnosed without a hex editor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BinaryJournalError {
    /// The stream is shorter than the 16-byte header.
    TruncatedHeader {
        /// Bytes actually present.
        len: usize,
    },
    /// The first four bytes are not [`BJL_MAGIC`].
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 4],
    },
    /// The header names a version this reader does not speak. Version
    /// negotiation is strict: v1 readers refuse rather than guess at
    /// future frame layouts.
    UnsupportedVersion {
        /// The version the header carries.
        found: u16,
    },
    /// The header's frame length is not [`BJL_FRAME_LEN`]; a future
    /// version may widen frames, v1 cannot.
    BadFrameLen {
        /// The frame length the header carries.
        found: u16,
    },
    /// The header's `dt_s` is not a finite positive tick width, so frames
    /// cannot be tick-addressed.
    InvalidDt {
        /// The offending tick width.
        dt_s: f64,
    },
    /// The byte stream ends mid-frame: the payload after the header is not
    /// a whole number of 32-byte frames.
    TruncatedFrame {
        /// Complete frames before the truncation.
        frames: usize,
        /// Dangling bytes after the last complete frame.
        trailing: usize,
    },
    /// A frame carries an event discriminant outside the v1 taxonomy.
    UnknownTag {
        /// Zero-based frame index.
        frame: usize,
        /// The unknown tag byte.
        tag: u8,
    },
    /// A frame's enum payload byte (actuator, window level, trip cause, …)
    /// is outside its vocabulary.
    BadEnum {
        /// Zero-based frame index.
        frame: usize,
        /// Which payload field was out of range.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A frame's `time_s` is NaN, infinite, or negative — it has no tick.
    InvalidTime {
        /// Zero-based frame index.
        frame: usize,
        /// The offending timestamp.
        time_s: f64,
    },
    /// A frame's `time_s` went backwards. Journals are written in tick
    /// order (`docs/FORMATS.md` §2), and replay relies on it.
    NonMonotonicTime {
        /// Zero-based index of the frame whose time went backwards.
        frame: usize,
    },
}

impl std::fmt::Display for BinaryJournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinaryJournalError::TruncatedHeader { len } => {
                write!(f, "binary journal truncated: {len} byte(s), header needs {BJL_HEADER_LEN}")
            }
            BinaryJournalError::BadMagic { found } => {
                write!(f, "not a unitherm-bjl journal: magic {found:02x?} != {BJL_MAGIC:02x?}")
            }
            BinaryJournalError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported unitherm-bjl version {found} (this reader speaks v{BJL_VERSION})"
                )
            }
            BinaryJournalError::BadFrameLen { found } => {
                write!(f, "unsupported frame length {found} (v{BJL_VERSION} frames are {BJL_FRAME_LEN} bytes)")
            }
            BinaryJournalError::InvalidDt { dt_s } => {
                write!(f, "header dt_s {dt_s} is not a finite positive tick width")
            }
            BinaryJournalError::TruncatedFrame { frames, trailing } => write!(
                f,
                "binary journal truncated: {trailing} dangling byte(s) after frame {frames}"
            ),
            BinaryJournalError::UnknownTag { frame, tag } => {
                write!(f, "frame {frame}: unknown event tag {tag}")
            }
            BinaryJournalError::BadEnum { frame, field, value } => {
                write!(f, "frame {frame}: {field} byte {value} is out of range")
            }
            BinaryJournalError::InvalidTime { frame, time_s } => {
                write!(f, "frame {frame}: time_s {time_s} is not a finite, non-negative timestamp")
            }
            BinaryJournalError::NonMonotonicTime { frame } => {
                write!(f, "frame {frame}: time_s went backwards (journals are tick-ordered)")
            }
        }
    }
}

impl std::error::Error for BinaryJournalError {}

impl From<BinaryJournalError> for io::Error {
    fn from(e: BinaryJournalError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

// ------------------------------------------------------------ enum codecs

// One table per enum: a value's wire code is its index here, which is also
// its declaration order, so encoding is an `as u8` cast and decoding a
// bounds-checked lookup (`tables_follow_declaration_order` pins the two).
// A new variant goes last in both, or the wire format changes.

const ACTUATORS: [ActuatorKind; 3] = [ActuatorKind::Fan, ActuatorKind::Dvfs, ActuatorKind::Sleep];

const LEVELS: [WindowLevel; 4] =
    [WindowLevel::L1, WindowLevel::L2, WindowLevel::Feedforward, WindowLevel::Governor];

const DIRECTIONS: [CrossDirection; 2] = [CrossDirection::Above, CrossDirection::Below];

const CAUSES: [TripCause; 2] = [TripCause::StaleSensor, TripCause::OverTemperature];

const FAULTS: [InjectedFault; 10] = [
    InjectedFault::FanFailure,
    InjectedFault::FanRepair,
    InjectedFault::SensorDropout,
    InjectedFault::SensorRestore,
    InjectedFault::I2cFailure,
    InjectedFault::I2cRecovery,
    InjectedFault::AmbientStep,
    InjectedFault::PwmStuck,
    InjectedFault::PwmRelease,
    InjectedFault::SensorJitter,
];

const PHASES: [SearchPhase; 3] = [SearchPhase::Sample, SearchPhase::Mutate, SearchPhase::Bisect];

/// The value with wire code `code` in `table`, if there is one.
fn from_code<T: Copy>(table: &[T], code: u8) -> Option<T> {
    table.get(usize::from(code)).copied()
}

// ----------------------------------------------------------- frame codec

/// Encodes the 16-byte `unitherm-bjl/v1` header.
fn encode_header(dt_s: f64) -> [u8; BJL_HEADER_LEN] {
    let mut h = [0u8; BJL_HEADER_LEN];
    h[0..4].copy_from_slice(&BJL_MAGIC);
    h[4..6].copy_from_slice(&BJL_VERSION.to_le_bytes());
    h[6..8].copy_from_slice(&(BJL_FRAME_LEN as u16).to_le_bytes());
    h[8..16].copy_from_slice(&dt_s.to_le_bytes());
    h
}

/// Encodes one record into its 32-byte frame (also the slot format of the
/// event rings, [`crate::EventRings`]).
pub(crate) fn encode_frame(rec: &EventRecord) -> [u8; BJL_FRAME_LEN] {
    let mut b = [0u8; BJL_FRAME_LEN];
    b[0..8].copy_from_slice(&rec.time_s.to_le_bytes());
    b[8..12].copy_from_slice(&rec.node.to_le_bytes());
    match rec.event {
        Event::ModeChange { actuator, from, to, window_level } => {
            b[12] = 0;
            b[14] = actuator as u8;
            b[15] = window_level as u8;
            b[16..20].copy_from_slice(&from.to_le_bytes());
            b[20..24].copy_from_slice(&to.to_le_bytes());
        }
        Event::ThresholdCross { threshold_c, temp_c, direction } => {
            b[12] = 1;
            b[14] = direction as u8;
            b[16..24].copy_from_slice(&threshold_c.to_le_bytes());
            b[24..32].copy_from_slice(&temp_c.to_le_bytes());
        }
        Event::TdvfsEngage { from_mhz, to_mhz } => {
            b[12] = 2;
            b[16..20].copy_from_slice(&from_mhz.to_le_bytes());
            b[20..24].copy_from_slice(&to_mhz.to_le_bytes());
        }
        Event::TdvfsRelease { to_mhz } => {
            b[12] = 3;
            b[16..20].copy_from_slice(&to_mhz.to_le_bytes());
        }
        Event::FailsafeTrip { cause } => {
            b[12] = 4;
            b[14] = cause as u8;
        }
        Event::FailsafeRelease => {
            b[12] = 5;
        }
        Event::PredictionSample { utilization, predicted_delta_c } => {
            b[12] = 6;
            b[16..24].copy_from_slice(&utilization.to_le_bytes());
            b[24..32].copy_from_slice(&predicted_delta_c.to_le_bytes());
        }
        Event::FaultInjected { kind, magnitude } => {
            b[12] = 7;
            b[14] = kind as u8;
            b[16..24].copy_from_slice(&magnitude.to_le_bytes());
        }
        Event::SearchProgress { phase, evaluated, counterexamples, best_cost } => {
            b[12] = 8;
            b[14] = phase as u8;
            b[16..20].copy_from_slice(&evaluated.to_le_bytes());
            b[20..24].copy_from_slice(&counterexamples.to_le_bytes());
            b[24..32].copy_from_slice(&best_cost.to_le_bytes());
        }
    }
    b
}

fn read_f64(b: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(b[at..at + 8].try_into().expect("8-byte slice"))
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4-byte slice"))
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8-byte slice"))
}

/// Decodes one 32-byte frame. `frame` is the zero-based index used in
/// error reports.
pub(crate) fn decode_frame(b: &[u8], frame: usize) -> Result<EventRecord, BinaryJournalError> {
    let bad = |field: &'static str, value: u8| BinaryJournalError::BadEnum { frame, field, value };
    let time_s = read_f64(b, 0);
    let node = read_u32(b, 8);
    let event = match b[12] {
        0 => Event::ModeChange {
            actuator: from_code(&ACTUATORS, b[14]).ok_or(bad("actuator", b[14]))?,
            window_level: from_code(&LEVELS, b[15]).ok_or(bad("window_level", b[15]))?,
            from: read_u32(b, 16),
            to: read_u32(b, 20),
        },
        1 => Event::ThresholdCross {
            direction: from_code(&DIRECTIONS, b[14]).ok_or(bad("direction", b[14]))?,
            threshold_c: read_f64(b, 16),
            temp_c: read_f64(b, 24),
        },
        2 => Event::TdvfsEngage { from_mhz: read_u32(b, 16), to_mhz: read_u32(b, 20) },
        3 => Event::TdvfsRelease { to_mhz: read_u32(b, 16) },
        4 => Event::FailsafeTrip { cause: from_code(&CAUSES, b[14]).ok_or(bad("cause", b[14]))? },
        5 => Event::FailsafeRelease,
        6 => Event::PredictionSample {
            utilization: read_f64(b, 16),
            predicted_delta_c: read_f64(b, 24),
        },
        7 => Event::FaultInjected {
            kind: from_code(&FAULTS, b[14]).ok_or(bad("kind", b[14]))?,
            magnitude: read_f64(b, 16),
        },
        8 => Event::SearchProgress {
            phase: from_code(&PHASES, b[14]).ok_or(bad("phase", b[14]))?,
            evaluated: read_u32(b, 16),
            counterexamples: read_u32(b, 20),
            best_cost: read_u64(b, 24),
        },
        tag => return Err(BinaryJournalError::UnknownTag { frame, tag }),
    };
    Ok(EventRecord { time_s, node, event })
}

// ---------------------------------------------------------------- writer

/// Streams every recorded event as one fixed-width `unitherm-bjl/v1`
/// frame.
///
/// The binary sibling of [`crate::JournalWriter`]: same latched-error
/// discipline (write errors park in [`BinaryJournalWriter::io_error`]
/// instead of panicking mid-simulation), but each record costs one 32-byte
/// stack buffer and a single `write_all` — no serialization allocations.
/// The header is written at construction.
pub struct BinaryJournalWriter<W: Write> {
    out: W,
    written: u64,
    io_error: Option<io::Error>,
}

impl<W: Write> BinaryJournalWriter<W> {
    /// Wraps a writer and emits the header stamped with the scenario tick
    /// width `dt_s` (what makes frames tick-addressable on read). Callers
    /// wanting buffering should pass a `BufWriter` themselves.
    pub fn new(out: W, dt_s: f64) -> Self {
        let mut w = Self { out, written: 0, io_error: None };
        if let Err(err) = w.out.write_all(&encode_header(dt_s)) {
            w.io_error = Some(err);
        }
        w
    }

    /// Records successfully written so far (header excluded).
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first I/O error hit while writing, if any.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.io_error.as_ref()
    }

    /// Flushes and returns the inner writer, or the latched/flush error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(err) = self.io_error {
            return Err(err);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> EventSink for BinaryJournalWriter<W> {
    fn record(&mut self, rec: &EventRecord) {
        if self.io_error.is_some() {
            return;
        }
        match self.out.write_all(&encode_frame(rec)) {
            Ok(()) => self.written += 1,
            Err(err) => self.io_error = Some(err),
        }
    }

    fn sink_error(&self) -> Option<String> {
        self.io_error.as_ref().map(|e| format!("binary journal sink failed: {e}"))
    }
}

// ------------------------------------------------------------ converters

/// Encodes records into a complete in-memory `unitherm-bjl/v1` journal
/// (header + frames).
pub fn records_to_bjl(records: &[EventRecord], dt_s: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(BJL_HEADER_LEN + records.len() * BJL_FRAME_LEN);
    out.extend_from_slice(&encode_header(dt_s));
    for rec in records {
        out.extend_from_slice(&encode_frame(rec));
    }
    out
}

/// Decodes a complete `unitherm-bjl/v1` byte stream back into records.
///
/// One pass checks the header, then decodes every frame and checks the
/// time column (finite, non-negative, never decreasing — the ordering
/// contract journals are written under), so every record returned is one
/// replay can trust.
///
/// # Errors
/// A named [`BinaryJournalError`] on a bad magic, an unsupported version
/// or frame length, a bad `dt_s`, a truncated stream, an unknown event
/// tag, an out-of-range enum byte, or a corrupt time column.
pub fn bjl_to_records(data: &[u8]) -> Result<Vec<EventRecord>, BinaryJournalError> {
    if data.len() < BJL_HEADER_LEN {
        return Err(BinaryJournalError::TruncatedHeader { len: data.len() });
    }
    let found: [u8; 4] = data[0..4].try_into().expect("4-byte slice");
    if found != BJL_MAGIC {
        return Err(BinaryJournalError::BadMagic { found });
    }
    let version = u16::from_le_bytes(data[4..6].try_into().expect("2-byte slice"));
    if version != BJL_VERSION {
        return Err(BinaryJournalError::UnsupportedVersion { found: version });
    }
    let frame_len = u16::from_le_bytes(data[6..8].try_into().expect("2-byte slice"));
    if usize::from(frame_len) != BJL_FRAME_LEN {
        return Err(BinaryJournalError::BadFrameLen { found: frame_len });
    }
    let dt_s = read_f64(data, 8);
    if !dt_s.is_finite() || dt_s <= 0.0 {
        return Err(BinaryJournalError::InvalidDt { dt_s });
    }
    let frames = &data[BJL_HEADER_LEN..];
    let trailing = frames.len() % BJL_FRAME_LEN;
    if trailing != 0 {
        return Err(BinaryJournalError::TruncatedFrame {
            frames: frames.len() / BJL_FRAME_LEN,
            trailing,
        });
    }
    let mut records = Vec::with_capacity(frames.len() / BJL_FRAME_LEN);
    let mut prev = 0.0f64;
    for (i, frame) in frames.chunks_exact(BJL_FRAME_LEN).enumerate() {
        let rec = decode_frame(frame, i)?;
        let t = rec.time_s;
        if !t.is_finite() || t < 0.0 {
            return Err(BinaryJournalError::InvalidTime { frame: i, time_s: t });
        }
        if t < prev {
            return Err(BinaryJournalError::NonMonotonicTime { frame: i });
        }
        prev = t;
        records.push(rec);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<EventRecord> {
        vec![
            EventRecord {
                time_s: 0.25,
                node: 0,
                event: Event::ModeChange {
                    actuator: ActuatorKind::Fan,
                    from: 1,
                    to: 2,
                    window_level: WindowLevel::L2,
                },
            },
            EventRecord {
                time_s: 0.5,
                node: 3,
                event: Event::ThresholdCross {
                    threshold_c: 51.0,
                    temp_c: 51.25,
                    direction: CrossDirection::Above,
                },
            },
            EventRecord {
                time_s: 0.5,
                node: 3,
                event: Event::TdvfsEngage { from_mhz: 2400, to_mhz: 2200 },
            },
            EventRecord { time_s: 0.75, node: 1, event: Event::TdvfsRelease { to_mhz: 2400 } },
            EventRecord {
                time_s: 1.0,
                node: 2,
                event: Event::FailsafeTrip { cause: TripCause::OverTemperature },
            },
            EventRecord { time_s: 1.25, node: 2, event: Event::FailsafeRelease },
            EventRecord {
                time_s: 1.5,
                node: 0,
                event: Event::PredictionSample { utilization: 0.875, predicted_delta_c: 2.5 },
            },
            EventRecord {
                time_s: 1.75,
                node: 1,
                event: Event::FaultInjected { kind: InjectedFault::SensorJitter, magnitude: 0.75 },
            },
            EventRecord {
                time_s: 2.0,
                node: 0,
                event: Event::SearchProgress {
                    phase: SearchPhase::Bisect,
                    evaluated: 17,
                    counterexamples: 2,
                    best_cost: 141,
                },
            },
        ]
    }

    #[test]
    fn tables_follow_declaration_order() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(table: &[T], code: impl Fn(T) -> u8) {
            for (i, &v) in table.iter().enumerate() {
                assert_eq!(usize::from(code(v)), i, "{v:?} encodes off its table index");
                assert_eq!(from_code(table, code(v)), Some(v));
            }
            assert_eq!(from_code(table, table.len() as u8), None);
        }
        check(&ACTUATORS, |v| v as u8);
        check(&LEVELS, |v| v as u8);
        check(&DIRECTIONS, |v| v as u8);
        check(&CAUSES, |v| v as u8);
        check(&FAULTS, |v| v as u8);
        check(&PHASES, |v| v as u8);
    }

    #[test]
    fn every_variant_round_trips_through_a_frame() {
        for (i, rec) in sample_records().iter().enumerate() {
            let frame = encode_frame(rec);
            assert_eq!(frame.len(), BJL_FRAME_LEN);
            let back = decode_frame(&frame, i).expect("decode");
            assert_eq!(back, *rec, "variant {i}");
        }
    }

    #[test]
    fn writer_round_trips_and_sizes() {
        let records = sample_records();
        let mut writer = BinaryJournalWriter::new(Vec::new(), 0.05);
        for rec in &records {
            writer.record(rec);
        }
        assert_eq!(writer.written(), records.len() as u64);
        let bytes = writer.finish().expect("finish");
        assert_eq!(bytes.len(), BJL_HEADER_LEN + records.len() * BJL_FRAME_LEN);
        assert_eq!(bjl_to_records(&bytes).expect("decode"), records);
    }

    #[test]
    fn nan_payload_bits_survive_the_round_trip() {
        // `time_s` itself must be finite (ordering contract), but payload
        // floats may carry any bit pattern, including NaNs from faulted
        // sensors; the codec must preserve the exact bits.
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let rec = EventRecord {
            time_s: 1.0,
            node: 0,
            event: Event::FaultInjected { kind: InjectedFault::AmbientStep, magnitude: weird },
        };
        let back = decode_frame(&encode_frame(&rec), 0).expect("decode");
        match back.event {
            Event::FaultInjected { magnitude, .. } => {
                assert_eq!(magnitude.to_bits(), weird.to_bits());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn corrupt_streams_are_named_errors() {
        let records = sample_records();
        let bytes = records_to_bjl(&records, 0.05);

        // Header truncation.
        assert_eq!(
            bjl_to_records(&bytes[..10]).unwrap_err(),
            BinaryJournalError::TruncatedHeader { len: 10 }
        );
        // Corrupt magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(bjl_to_records(&bad).unwrap_err(), BinaryJournalError::BadMagic { .. }));
        // Future version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert_eq!(
            bjl_to_records(&bad).unwrap_err(),
            BinaryJournalError::UnsupportedVersion { found: 9 }
        );
        // Foreign frame length.
        let mut bad = bytes.clone();
        bad[6] = 64;
        assert_eq!(
            bjl_to_records(&bad).unwrap_err(),
            BinaryJournalError::BadFrameLen { found: 64 }
        );
        // A tick width that cannot address frames.
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&0.0f64.to_le_bytes());
        assert_eq!(bjl_to_records(&bad).unwrap_err(), BinaryJournalError::InvalidDt { dt_s: 0.0 });
        // Frame truncation.
        let cut = bytes.len() - 7;
        assert_eq!(
            bjl_to_records(&bytes[..cut]).unwrap_err(),
            BinaryJournalError::TruncatedFrame { frames: records.len() - 1, trailing: 25 }
        );
        // Unknown tag.
        let mut bad = bytes.clone();
        bad[BJL_HEADER_LEN + 12] = 200;
        assert_eq!(
            bjl_to_records(&bad).unwrap_err(),
            BinaryJournalError::UnknownTag { frame: 0, tag: 200 }
        );
        // Out-of-range enum byte.
        let mut bad = bytes.clone();
        bad[BJL_HEADER_LEN + 14] = 9; // actuator of the ModeChange frame
        assert_eq!(
            bjl_to_records(&bad).unwrap_err(),
            BinaryJournalError::BadEnum { frame: 0, field: "actuator", value: 9 }
        );
        // Corrupt time column.
        let mut bad = bytes.clone();
        bad[BJL_HEADER_LEN..BJL_HEADER_LEN + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(
            bjl_to_records(&bad).unwrap_err(),
            BinaryJournalError::InvalidTime { frame: 0, .. }
        ));
        // Time going backwards.
        let mut bad = bytes.clone();
        let second = BJL_HEADER_LEN + BJL_FRAME_LEN;
        bad[second..second + 8].copy_from_slice(&0.01f64.to_le_bytes());
        assert_eq!(
            bjl_to_records(&bad).unwrap_err(),
            BinaryJournalError::NonMonotonicTime { frame: 1 }
        );
    }

    #[test]
    fn write_errors_latch_and_surface_as_sink_error() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut writer = BinaryJournalWriter::new(Failing, 0.05);
        let rec = EventRecord { time_s: 0.0, node: 0, event: Event::FailsafeRelease };
        writer.record(&rec);
        assert_eq!(writer.written(), 0);
        assert!(writer.io_error().is_some());
        assert!(writer.sink_error().expect("latched").contains("closed"));
        assert!(writer.finish().is_err());
    }

    #[test]
    fn empty_journal_is_valid() {
        let bytes = records_to_bjl(&[], 0.05);
        assert!(bjl_to_records(&bytes).expect("decode").is_empty());
    }
}
