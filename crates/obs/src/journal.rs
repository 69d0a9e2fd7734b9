//! JSONL event journal: one [`EventRecord`] per line.

use std::io::{self, BufRead, Write};

use crate::binary::BJL_MAGIC;
use crate::event::EventRecord;
use crate::sink::EventSink;

/// Which on-disk encoding an event journal uses: JSONL text
/// (`docs/FORMATS.md` §2) or the `unitherm-bjl/v1` fixed-width binary
/// format (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalFormat {
    /// One JSON object per line — human-greppable, ~120 bytes/event.
    Jsonl,
    /// `unitherm-bjl/v1` — 32 bytes/event, fixed-width frames.
    Bjl,
}

impl JournalFormat {
    /// Parses a `--journal-format` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "jsonl" => Some(JournalFormat::Jsonl),
            "bjl" => Some(JournalFormat::Bjl),
            _ => None,
        }
    }

    /// Sniffs the encoding from the first bytes of a journal (the binary
    /// format always opens with the `UBJL` magic).
    pub fn sniff(data: &[u8]) -> Self {
        if data.starts_with(&BJL_MAGIC) {
            JournalFormat::Bjl
        } else {
            JournalFormat::Jsonl
        }
    }
}

impl std::fmt::Display for JournalFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            JournalFormat::Jsonl => "jsonl",
            JournalFormat::Bjl => "bjl",
        })
    }
}

/// Streams every recorded event to a writer as one JSON object per line.
///
/// This is the offline sink: each record is encoded into a reused line
/// buffer and reaches the writer as one `write_all`, so keep it off the
/// allocation-free hot path (the cluster tees into it only at sample
/// boundaries when a journal is attached). Write errors are latched into
/// [`JournalWriter::io_error`] rather than panicking mid-simulation.
pub struct JournalWriter<W: Write> {
    out: W,
    /// The record being written, newline included.
    line: Vec<u8>,
    written: u64,
    io_error: Option<io::Error>,
}

impl<W: Write> JournalWriter<W> {
    /// Wraps a writer. Callers wanting fewer writes than one per record
    /// should pass a `BufWriter` themselves.
    pub fn new(out: W) -> Self {
        Self { out, line: Vec::with_capacity(256), written: 0, io_error: None }
    }

    /// Records successfully written so far.
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

impl<W: Write> EventSink for JournalWriter<W> {
    fn record(&mut self, rec: &EventRecord) {
        if self.io_error.is_some() {
            return;
        }
        self.line.clear();
        serde_json::to_writer(&mut self.line, rec).expect("records serialize into memory");
        self.line.push(b'\n');
        match self.out.write_all(&self.line) {
            Ok(()) => self.written += 1,
            Err(err) => self.io_error = Some(err),
        }
    }

    fn sink_error(&self) -> Option<String> {
        self.io_error.as_ref().map(|e| format!("journal sink failed: {e}"))
    }
}

/// The tick a journal timestamp addresses under tick width `dt_s`, or
/// `None` when the timestamp is not a finite non-negative time (replay
/// rejects such records with a named error rather than skipping them).
pub fn record_tick(time_s: f64, dt_s: f64) -> Option<u64> {
    if !time_s.is_finite() || time_s < 0.0 {
        return None;
    }
    Some((time_s / dt_s).round() as u64)
}

/// Parses a JSONL journal back into records. Blank lines are skipped;
/// a malformed line is an `InvalidData` error naming its line number.
pub fn read_journal<R: BufRead>(reader: R) -> io::Result<Vec<EventRecord>> {
    let mut records = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: EventRecord = serde_json::from_str(&line).map_err(|err| {
            io::Error::new(io::ErrorKind::InvalidData, format!("journal line {}: {err}", idx + 1))
        })?;
        records.push(rec);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, TripCause};

    #[test]
    fn writes_and_reads_round_trip() {
        let records = vec![
            EventRecord {
                time_s: 1.0,
                node: 0,
                event: Event::TdvfsEngage { from_mhz: 2400, to_mhz: 2200 },
            },
            EventRecord {
                time_s: 2.5,
                node: 1,
                event: Event::FailsafeTrip { cause: TripCause::OverTemperature },
            },
        ];
        let mut writer = JournalWriter::new(Vec::new());
        for rec in &records {
            writer.record(rec);
        }
        assert_eq!(writer.written(), 2);
        let bytes = writer.finish().expect("finish");
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 2);
        let back = read_journal(bytes.as_slice()).expect("read");
        assert_eq!(back, records);
    }

    #[test]
    fn blank_lines_skipped_malformed_lines_named() {
        let rec = EventRecord { time_s: 0.0, node: 0, event: Event::FailsafeRelease };
        let good = serde_json::to_string(&rec).unwrap();
        let text = format!("{good}\n\n{good}\n");
        let back = read_journal(text.as_bytes()).expect("read");
        assert_eq!(back.len(), 2);

        let bad = format!("{good}\nnot json\n");
        let err = read_journal(bad.as_bytes()).expect_err("malformed");
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn invalid_timestamps_have_no_tick() {
        assert_eq!(record_tick(f64::NAN, 0.05), None);
        assert_eq!(record_tick(-1.0, 0.05), None);
        assert_eq!(record_tick(f64::INFINITY, 0.05), None);
        assert_eq!(record_tick(1.0000000000000002, 0.05), Some(20));
    }

    #[test]
    fn format_parses_and_sniffs() {
        assert_eq!(JournalFormat::parse("jsonl"), Some(JournalFormat::Jsonl));
        assert_eq!(JournalFormat::parse("bjl"), Some(JournalFormat::Bjl));
        assert_eq!(JournalFormat::parse("csv"), None);
        assert_eq!(JournalFormat::sniff(b"{\"time_s\":0.0}"), JournalFormat::Jsonl);
        let bytes = crate::binary::records_to_bjl(&[], 0.05);
        assert_eq!(JournalFormat::sniff(&bytes), JournalFormat::Bjl);
        assert_eq!(JournalFormat::sniff(&bytes[..2]), JournalFormat::Jsonl, "a partial magic");
        assert_eq!(JournalFormat::Jsonl.to_string(), "jsonl");
        assert_eq!(JournalFormat::Bjl.to_string(), "bjl");
    }

    #[test]
    fn write_errors_latch_instead_of_panicking() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut writer = JournalWriter::new(Failing);
        let rec = EventRecord { time_s: 0.0, node: 0, event: Event::FailsafeRelease };
        writer.record(&rec);
        writer.record(&rec);
        assert_eq!(writer.written(), 0);
        assert!(writer.io_error().is_some());
        assert!(writer.finish().is_err());
    }
}
