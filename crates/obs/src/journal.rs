//! JSONL event journal: one [`EventRecord`] per line.

use std::io::{self, BufRead, Write};

use crate::binary::BinaryJournalReader;
use crate::event::EventRecord;
use crate::sink::EventSink;

/// Which on-disk encoding an event journal uses: JSONL text
/// (`docs/FORMATS.md` §2) or the `unitherm-bjl/v1` fixed-width binary
/// format (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalFormat {
    /// One JSON object per line — human-greppable, ~120 bytes/event.
    Jsonl,
    /// `unitherm-bjl/v1` — 32 bytes/event, seekable by tick.
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
        if crate::binary::is_bjl(data) {
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

enum CursorSource<'a> {
    /// Parsed JSONL records held in memory.
    Parsed(&'a [EventRecord]),
    /// A validated binary journal, decoded frame-by-frame on demand.
    Binary(&'a BinaryJournalReader<'a>),
}

/// A forward-only cursor over a recorded journal in either encoding.
///
/// Replay tooling walks a recorded event stream in order, peeking at the
/// next record to decide whether it is "interesting" (a mode change, a
/// tDVFS engagement, a failsafe trip) before consuming it. The cursor keeps
/// that walk position-aware and encoding-agnostic: [`JournalCursor::new`]
/// wraps parsed JSONL records, [`JournalCursor::from_binary`] wraps a
/// [`BinaryJournalReader`], and every accessor behaves identically so
/// `derive_fault_plan` produces the same plan from both. Records are
/// yielded by value — [`EventRecord`] is `Copy` and fits in a cache line.
///
/// [`JournalCursor::seek_tick`] is where the encodings diverge in cost:
/// the binary source binary-searches the frame time column (`O(log n)`),
/// the parsed source walks forward.
pub struct JournalCursor<'a> {
    source: CursorSource<'a>,
    pos: usize,
}

impl<'a> JournalCursor<'a> {
    /// Starts a cursor at the beginning of `records` (as returned by
    /// [`read_journal`]).
    pub fn new(records: &'a [EventRecord]) -> Self {
        Self { source: CursorSource::Parsed(records), pos: 0 }
    }

    /// Starts a cursor at the beginning of a validated binary journal.
    pub fn from_binary(reader: &'a BinaryJournalReader<'a>) -> Self {
        Self { source: CursorSource::Binary(reader), pos: 0 }
    }

    fn len(&self) -> usize {
        match self.source {
            CursorSource::Parsed(records) => records.len(),
            CursorSource::Binary(reader) => reader.len(),
        }
    }

    fn get(&self, i: usize) -> Option<EventRecord> {
        match self.source {
            CursorSource::Parsed(records) => records.get(i).copied(),
            CursorSource::Binary(reader) => (i < reader.len()).then(|| reader.get(i)),
        }
    }

    /// The next record without consuming it.
    pub fn peek(&self) -> Option<EventRecord> {
        self.get(self.pos)
    }

    /// Consumes and returns the next record.
    #[allow(clippy::should_implement_trait)] // iterator-style by design; Iterator impl below
    pub fn next(&mut self) -> Option<EventRecord> {
        let rec = self.get(self.pos)?;
        self.pos += 1;
        Some(rec)
    }

    /// Advances past every record stamped strictly before `time_s`.
    /// Returns how many records were skipped.
    pub fn seek_time(&mut self, time_s: f64) -> usize {
        let start = self.pos;
        while self.get(self.pos).is_some_and(|r| r.time_s < time_s) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Advances past every record whose tick (`round(time_s / dt_s)`) is
    /// strictly before `tick`, never moving backwards. Returns how many
    /// records were skipped.
    ///
    /// A record with a non-finite or negative timestamp has no tick; it is
    /// never skipped, so replay validation still sees it and can reject the
    /// journal with a named error. On a binary source this is a binary
    /// search over the frame time column (times were validated finite and
    /// non-decreasing at open) instead of a scan.
    pub fn seek_tick(&mut self, tick: u64, dt_s: f64) -> usize {
        let start = self.pos;
        match self.source {
            CursorSource::Parsed(records) => {
                while records
                    .get(self.pos)
                    .is_some_and(|r| record_tick(r.time_s, dt_s).is_some_and(|t| t < tick))
                {
                    self.pos += 1;
                }
            }
            CursorSource::Binary(reader) => {
                self.pos = self.pos.max(reader.seek_tick(tick));
            }
        }
        self.pos - start
    }

    /// Records not yet consumed.
    pub fn remaining(&self) -> usize {
        self.len() - self.pos
    }

    /// Index of the next record within the journal.
    pub fn position(&self) -> usize {
        self.pos
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

impl Iterator for JournalCursor<'_> {
    type Item = EventRecord;

    fn next(&mut self) -> Option<Self::Item> {
        JournalCursor::next(self)
    }
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
    fn cursor_walks_peeks_and_seeks() {
        let records: Vec<EventRecord> = (0..5)
            .map(|i| EventRecord { time_s: f64::from(i), node: 0, event: Event::FailsafeRelease })
            .collect();
        let mut cur = JournalCursor::new(&records);
        assert_eq!(cur.remaining(), 5);
        assert_eq!(cur.peek().unwrap().time_s, 0.0);
        assert_eq!(cur.next().unwrap().time_s, 0.0);
        assert_eq!(cur.seek_time(3.0), 2, "skips records before t=3");
        assert_eq!(cur.position(), 3);
        assert_eq!(cur.peek().unwrap().time_s, 3.0);
        // The cursor is an iterator over what remains.
        assert_eq!(cur.count(), 2);

        let mut empty = JournalCursor::new(&[]);
        assert_eq!(empty.seek_time(10.0), 0);
        assert!(empty.next().is_none());
    }

    #[test]
    fn cursor_behaves_identically_over_both_encodings() {
        let records: Vec<EventRecord> = (0..5)
            .map(|i| EventRecord { time_s: f64::from(i), node: 0, event: Event::FailsafeRelease })
            .collect();
        let bytes = crate::binary::records_to_bjl(&records, 0.5);
        let reader = crate::binary::BinaryJournalReader::new(&bytes).expect("open");

        let mut parsed = JournalCursor::new(&records);
        let mut binary = JournalCursor::from_binary(&reader);
        // dt = 0.5, so record i sits at tick 2i; tick 5 lands on t=3.0.
        assert_eq!(parsed.seek_tick(5, 0.5), 3);
        assert_eq!(binary.seek_tick(5, 0.5), 3);
        assert_eq!(parsed.position(), binary.position());
        assert_eq!(parsed.peek(), binary.peek());
        // Seeking backwards never rewinds.
        assert_eq!(parsed.seek_tick(0, 0.5), 0);
        assert_eq!(binary.seek_tick(0, 0.5), 0);
        let rest_parsed: Vec<EventRecord> = parsed.collect();
        let rest_binary: Vec<EventRecord> = binary.collect();
        assert_eq!(rest_parsed, rest_binary);
    }

    #[test]
    fn invalid_timestamps_have_no_tick_and_are_never_skipped() {
        assert_eq!(record_tick(f64::NAN, 0.05), None);
        assert_eq!(record_tick(-1.0, 0.05), None);
        assert_eq!(record_tick(1.0000000000000002, 0.05), Some(20));
        let records =
            vec![EventRecord { time_s: f64::NAN, node: 0, event: Event::FailsafeRelease }];
        let mut cur = JournalCursor::new(&records);
        assert_eq!(cur.seek_tick(u64::MAX, 0.05), 0, "invalid time must reach the validator");
        assert!(cur.peek().is_some());
    }

    #[test]
    fn format_parses_and_sniffs() {
        assert_eq!(JournalFormat::parse("jsonl"), Some(JournalFormat::Jsonl));
        assert_eq!(JournalFormat::parse("bjl"), Some(JournalFormat::Bjl));
        assert_eq!(JournalFormat::parse("csv"), None);
        assert_eq!(JournalFormat::sniff(b"{\"time_s\":0.0}"), JournalFormat::Jsonl);
        let bytes = crate::binary::records_to_bjl(&[], 0.05);
        assert_eq!(JournalFormat::sniff(&bytes), JournalFormat::Bjl);
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
