//! Server-Sent Events framing over the journal event stream.
//!
//! `unitherm-serve` streams a running job's control-plane events to HTTP
//! subscribers as `text/event-stream` frames (see `docs/API.md`). The
//! framing rules live here, next to the event vocabulary, so every server
//! and test agrees on the bytes:
//!
//! * each frame carries an optional `id:` (a journal record's 0-based
//!   sequence number in the journal), an `event:` name, and one `data:`
//!   line holding a compact JSON document;
//! * journal frames use `event: journal` and carry **exactly the JSONL
//!   encoding** of the [`EventRecord`] (`docs/FORMATS.md` §2) as their
//!   payload — stripping the SSE framing off a complete stream reproduces
//!   the journal file byte for byte.

use serde::Serialize;

use crate::event::EventRecord;

/// Appends one SSE frame to `out`: an optional `id:` field, the `event:`
/// name, and `data` as compact JSON on a single `data:` line, terminated
/// by the blank line that ends an SSE frame. Compact JSON escapes every
/// newline, so the payload never splits across `data:` lines and the
/// receiver gets the JSON bytes back unchanged. The document is encoded
/// in place: a server fills one buffer with a batch of frames and sends it
/// as one write.
///
/// # Example
///
/// ```
/// use unitherm_obs::write_sse_frame;
///
/// let mut out = Vec::new();
/// write_sse_frame(&mut out, Some(7), "journal", &vec![1.0, 2.5]);
/// write_sse_frame(&mut out, None, "done", &"ok");
/// assert_eq!(out, b"id: 7\nevent: journal\ndata: [1.0,2.5]\n\nevent: done\ndata: \"ok\"\n\n");
/// ```
pub fn write_sse_frame<T: Serialize + ?Sized>(
    out: &mut Vec<u8>,
    id: Option<u64>,
    event: &str,
    data: &T,
) {
    if let Some(id) = id {
        out.extend_from_slice(b"id: ");
        serde_json::to_writer(&mut *out, &id).expect("integers serialize into memory");
        out.push(b'\n');
    }
    out.extend_from_slice(b"event: ");
    out.extend_from_slice(event.as_bytes());
    out.extend_from_slice(b"\ndata: ");
    serde_json::to_writer(&mut *out, data).expect("documents serialize into memory");
    out.extend_from_slice(b"\n\n");
}

/// Renders one journal record as its SSE frame: `id:` is `seq` (the
/// record's position in the journal), `event:` is `journal`, and the data
/// payload is the record's JSONL line — the same bytes a
/// [`crate::JournalWriter`] would emit for it, minus the trailing newline.
///
/// # Example
///
/// ```
/// use unitherm_obs::{sse_journal_frame, Event, EventRecord};
///
/// let rec = EventRecord { time_s: 1.5, node: 0, event: Event::FailsafeRelease };
/// let frame = sse_journal_frame(3, &rec);
/// assert!(frame.starts_with("id: 3\nevent: journal\ndata: {"));
/// assert!(frame.ends_with("}\n\n"));
/// ```
pub fn sse_journal_frame(seq: u64, rec: &EventRecord) -> String {
    let mut out = Vec::with_capacity(160);
    write_sse_frame(&mut out, Some(seq), "journal", rec);
    String::from_utf8(out).expect("JSON is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::journal::JournalWriter;
    use crate::sink::EventSink;

    #[test]
    fn journal_frame_payload_matches_jsonl_encoding_exactly() {
        let records = vec![
            EventRecord {
                time_s: 0.25,
                node: 1,
                event: Event::TdvfsEngage { from_mhz: 2400, to_mhz: 2200 },
            },
            EventRecord { time_s: 0.5, node: 0, event: Event::FailsafeRelease },
        ];
        let mut writer = JournalWriter::new(Vec::new());
        for rec in &records {
            writer.record(rec);
        }
        let jsonl = String::from_utf8(writer.finish().expect("finish")).expect("utf8");

        // Stripping the SSE framing must reproduce the journal byte for byte.
        let mut reassembled = String::new();
        for (i, rec) in records.iter().enumerate() {
            let frame = sse_journal_frame(i as u64, rec);
            assert!(frame.starts_with(&format!("id: {i}\nevent: journal\ndata: ")), "{frame}");
            for line in frame.lines().filter_map(|l| l.strip_prefix("data: ")) {
                reassembled.push_str(line);
                reassembled.push('\n');
            }
        }
        assert_eq!(reassembled, jsonl);
    }

    #[test]
    fn multi_line_payloads_stay_on_one_data_line() {
        // A newline inside the document is escaped by compact JSON, so the
        // frame keeps a single `data:` line and the receiver gets the JSON
        // bytes back unchanged.
        let mut out = Vec::new();
        write_sse_frame(&mut out, None, "done", &"line1\nline2");
        assert_eq!(String::from_utf8(out).unwrap(), "event: done\ndata: \"line1\\nline2\"\n\n");
    }
}
