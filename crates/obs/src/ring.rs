//! The fixed-capacity, allocation-free steady-state sink.

use crate::event::EventRecord;
use crate::sink::EventSink;

/// A ring buffer of the most recent events.
///
/// All storage is reserved at construction; `record` is a copy into that
/// storage (or, at capacity, an overwrite of the oldest slot) and never
/// touches the allocator — the property the cluster's counting-allocator
/// regression test pins. Overwritten records are counted in
/// [`RingSink::dropped`] so post-run analysis knows the window was clipped.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<EventRecord>,
    capacity: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` records. A capacity of 0
    /// drops (but still counts) everything.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { buf: Vec::with_capacity(capacity), capacity, head: 0, dropped: 0 }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records overwritten (or, at capacity 0, discarded) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held records in emission order (oldest first). Allocates the
    /// returned `Vec`; call off the hot path.
    pub fn to_vec(&self) -> Vec<EventRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Iterates the held records in emission order without allocating.
    pub fn iter(&self) -> impl Iterator<Item = &EventRecord> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// Clears the ring (storage stays reserved).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

impl EventSink for RingSink {
    fn record(&mut self, rec: &EventRecord) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.capacity {
            // Within reserved capacity: push cannot reallocate.
            self.buf.push(*rec);
        } else {
            self.buf[self.head] = *rec;
            // A compare, not `% capacity`: this runs on every event once
            // the ring is full, and a division costs far more.
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn rec(t: f64) -> EventRecord {
        EventRecord { time_s: t, node: 0, event: Event::FailsafeRelease }
    }

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut ring = RingSink::with_capacity(3);
        for t in 0..5 {
            ring.record(&rec(f64::from(t)));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let times: Vec<f64> = ring.to_vec().iter().map(|r| r.time_s).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0], "oldest records were overwritten");
        let iter_times: Vec<f64> = ring.iter().map(|r| r.time_s).collect();
        assert_eq!(iter_times, times);
    }

    #[test]
    fn head_wraps_past_the_end_any_number_of_times() {
        for n in 0..12u32 {
            let mut ring = RingSink::with_capacity(3);
            for t in 0..n {
                ring.record(&rec(f64::from(t)));
            }
            let want: Vec<f64> = (n.saturating_sub(3)..n).map(f64::from).collect();
            let times: Vec<f64> = ring.iter().map(|r| r.time_s).collect();
            assert_eq!(times, want, "{n} records");
            assert_eq!(ring.dropped(), u64::from(n.saturating_sub(3)));
        }
    }

    #[test]
    fn zero_capacity_counts_drops() {
        let mut ring = RingSink::with_capacity(0);
        ring.record(&rec(1.0));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut ring = RingSink::with_capacity(2);
        ring.record(&rec(1.0));
        ring.record(&rec(2.0));
        ring.record(&rec(3.0));
        ring.clear();
        assert!(ring.is_empty());
        ring.record(&rec(4.0));
        assert_eq!(ring.to_vec()[0].time_s, 4.0);
    }
}
