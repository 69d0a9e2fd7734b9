#![warn(missing_docs)]

//! Zero-allocation observability for the thermal control plane.
//!
//! The control loop is only trustworthy if we can see *why* it acted: which
//! window level (sudden L1 vs gradual L2 fallback) drove a fan mode change,
//! when tDVFS engaged because a capped fan could not hold the 51 °C
//! threshold, when the failsafe watchdog tripped. This crate provides the
//! shared vocabulary and plumbing:
//!
//! * [`Event`] / [`EventRecord`] — the typed, fixed-size (`Copy`, heap-free)
//!   event taxonomy every control layer emits;
//! * [`EventSink`] — the pluggable recording trait. An [`EventRings`]
//!   block holds the steady-state sinks: fixed-capacity rings, many to one
//!   zeroed block, whose [`Ring`] `record` path performs **zero heap
//!   allocations** (enforced by the counting-allocator test in
//!   `unitherm-cluster`). [`JournalWriter`] streams records as JSONL
//!   for offline analysis; [`BinaryJournalWriter`] streams the same records
//!   as compact fixed-width `unitherm-bjl/v1` frames (see [`binary`]);
//!   [`TeeSink`] fans one stream out to both. Reading either encoding
//!   decodes it once, at the edge, into a `Vec<EventRecord>`
//!   ([`read_journal`], [`bjl_to_records`]);
//! * [`Observer`] — the per-sample emission context threaded through
//!   `unitherm-core::control_plane`: a sink plus the [`Counters`] block and
//!   the record metadata (node id, timestamp);
//! * [`Counters`] — per-daemon monotonic counters (ticks skipped, L2
//!   fallbacks, saturations, …) with a Prometheus text-format exporter;
//! * [`sse`] — Server-Sent Events framing over the journal stream, shared
//!   by `unitherm-serve` and its clients so the SSE payload is bit-for-bit
//!   the JSONL journal encoding.
//!
//! The crate is deliberately at the bottom of the dependency graph (only
//! `serde` for the journal schema) so `unitherm-core`, the cluster
//! simulator, the service and the benchmark can all share it.

pub mod binary;
pub mod counters;
pub mod event;
pub mod journal;
pub mod ring;
pub mod sink;
pub mod sse;

pub use binary::{
    bjl_to_records, records_to_bjl, BinaryJournalError, BinaryJournalWriter, BJL_FRAME_LEN,
    BJL_HEADER_LEN, BJL_MAGIC, BJL_VERSION,
};
pub use counters::{prometheus_text, Counters};
pub use event::{
    ActuatorKind, CrossDirection, Event, EventRecord, InjectedFault, SearchPhase, TripCause,
    WindowLevel,
};
pub use journal::{read_journal, record_tick, JournalFormat, JournalWriter};
pub use ring::{EventRings, EventRingsError, Ring};
pub use sink::{EventSink, NullSink, Observer, TeeSink, VecSink};
pub use sse::{sse_journal_frame, write_sse_frame};
