//! Fixed-capacity, allocation-free event rings, many to one block.
//!
//! An [`EventRings`] holds `rings` rings of `capacity` records each in one
//! zeroed block: ring `j` is the block's `j`-th run of `capacity` 32-byte
//! `unitherm-bjl/v1` frames (see [`crate::binary`]), with its own head,
//! length and drop count beside the block. A cluster shard keeps one
//! block for all of its nodes, so a fleet reserves one chunk per shard
//! instead of one per node, and a standalone node keeps a one-ring block.
//!
//! The block comes from the allocator's `alloc_zeroed` with no per-record
//! initialiser, so a large block is a fresh mapping whose pages are faulted
//! in only when a record lands there; an all-zero frame is never read
//! before it is written. Recording into a [`Ring`] encodes the record into
//! its slot and never touches the allocator (the property the cluster's
//! counting-allocator test pins); reading a ring back decodes its frames,
//! and the bjl frame codec is lossless, so a ring returns exactly the
//! records it was given.

use std::alloc::Layout;

use crate::binary::{decode_frame, encode_frame, BJL_FRAME_LEN};
use crate::event::EventRecord;
use crate::sink::EventSink;

/// One record's slot in a block: its bjl frame.
type Frame = [u8; BJL_FRAME_LEN];

/// Why an [`EventRings`] block could not be reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventRingsError {
    /// `rings × capacity` frames do not fit in an address space.
    TooLarge {
        /// Rings asked for.
        rings: usize,
        /// Records asked for per ring.
        capacity: usize,
    },
    /// The allocator refused the block.
    Refused {
        /// Rings asked for.
        rings: usize,
        /// Records asked for per ring.
        capacity: usize,
        /// Bytes of the refused reservation.
        bytes: usize,
    },
}

impl std::fmt::Display for EventRingsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::TooLarge { rings, capacity } => write!(
                f,
                "{rings} rings of {capacity} records ({BJL_FRAME_LEN} B each) overflow the \
                 address space"
            ),
            Self::Refused { rings, capacity, bytes } => {
                write!(f, "the allocator refused {bytes} B for {rings} rings of {capacity} records")
            }
        }
    }
}

impl std::error::Error for EventRingsError {}

/// Where one ring of a block stands.
#[derive(Debug, Clone, Copy, Default)]
struct RingState {
    /// Index of the oldest record once the ring has wrapped.
    head: u32,
    /// Records held.
    len: u32,
    /// Records overwritten (or, at capacity 0, discarded) so far.
    dropped: u64,
}

/// `rings` rings of the most recent events, `capacity` records each, in
/// one zeroed block.
///
/// All storage is reserved at construction; recording into a ring is a
/// frame encode into that storage (or, at capacity, an overwrite of the
/// ring's oldest slot). Overwritten records are counted per ring in
/// [`EventRings::dropped`] so post-run analysis knows the window was
/// clipped.
#[derive(Debug)]
pub struct EventRings {
    /// Ring `j`'s frames are `frames[j * capacity..(j + 1) * capacity]`.
    frames: Box<[Frame]>,
    capacity: usize,
    state: Vec<RingState>,
}

impl EventRings {
    /// Reserves `rings` rings of `capacity` records each. A capacity of 0
    /// drops (but still counts) everything and allocates no block.
    ///
    /// # Errors
    /// [`EventRingsError::TooLarge`] when the block size overflows, and
    /// [`EventRingsError::Refused`] when the allocator cannot grant it (or
    /// the per-ring bookkeeping): never an abort.
    pub fn try_new(rings: usize, capacity: usize) -> Result<Self, EventRingsError> {
        let too_large = EventRingsError::TooLarge { rings, capacity };
        if u32::try_from(capacity).is_err() {
            return Err(too_large);
        }
        let records = rings.checked_mul(capacity).ok_or(too_large)?;
        let layout = Layout::array::<Frame>(records).map_err(|_| too_large)?;
        let frames: Box<[Frame]> = if records == 0 {
            Box::default()
        } else {
            // SAFETY: `layout` has a non-zero size.
            let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
            if ptr.is_null() {
                return Err(EventRingsError::Refused { rings, capacity, bytes: layout.size() });
            }
            // SAFETY: `ptr` is a live, zeroed allocation from the global
            // allocator with `layout`, i.e. exactly `records` frames; frames
            // have alignment 1 and every byte pattern is a valid frame, and
            // the box frees it with the same layout.
            unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr.cast(), records)) }
        };
        let mut state = Vec::new();
        state.try_reserve_exact(rings).map_err(|_| EventRingsError::Refused {
            rings,
            capacity,
            bytes: rings.saturating_mul(std::mem::size_of::<RingState>()),
        })?;
        state.resize(rings, RingState::default());
        Ok(Self { frames, capacity, state })
    }

    /// Ring `j`, to record into.
    ///
    /// # Panics
    /// When the block has no ring `j`.
    #[inline]
    pub fn ring(&mut self, j: usize) -> Ring<'_> {
        let frames = &mut self.frames[j * self.capacity..(j + 1) * self.capacity];
        Ring { frames, state: &mut self.state[j] }
    }

    /// Records ring `j` overwrote (or, at capacity 0, discarded) so far.
    pub fn dropped(&self, j: usize) -> u64 {
        self.state[j].dropped
    }

    /// Ring `j`'s records in emission order (oldest first). Allocates the
    /// returned `Vec`; call off the hot path.
    pub fn records(&self, j: usize) -> Vec<EventRecord> {
        let RingState { head, len, .. } = self.state[j];
        let held = &self.frames[j * self.capacity..][..len as usize];
        let (newer, older) = held.split_at(head as usize);
        older
            .iter()
            .chain(newer)
            .enumerate()
            .map(|(i, frame)| decode_frame(frame, i).expect("a ring holds only frames it encoded"))
            .collect()
    }
}

/// One ring of an [`EventRings`] block, borrowed to record into.
pub struct Ring<'a> {
    frames: &'a mut [Frame],
    state: &'a mut RingState,
}

impl EventSink for Ring<'_> {
    fn record(&mut self, rec: &EventRecord) {
        let capacity = self.frames.len();
        let state = &mut *self.state;
        if capacity == 0 {
            state.dropped += 1;
            return;
        }
        let frame = encode_frame(rec);
        if (state.len as usize) < capacity {
            // Not yet wrapped: the head is 0 and the next slot is `len`.
            self.frames[state.len as usize] = frame;
            state.len += 1;
        } else {
            self.frames[state.head as usize] = frame;
            // A compare, not `% capacity`: this runs on every event once
            // the ring is full, and a division costs far more.
            state.head += 1;
            if state.head as usize == capacity {
                state.head = 0;
            }
            state.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn rec(t: f64) -> EventRecord {
        EventRecord { time_s: t, node: 0, event: Event::FailsafeRelease }
    }

    fn times(rings: &EventRings, j: usize) -> Vec<f64> {
        rings.records(j).iter().map(|r| r.time_s).collect()
    }

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut rings = EventRings::try_new(1, 3).unwrap();
        for t in 0..5 {
            rings.ring(0).record(&rec(f64::from(t)));
        }
        assert_eq!(rings.dropped(0), 2);
        assert_eq!(times(&rings, 0), vec![2.0, 3.0, 4.0], "oldest records were overwritten");
    }

    #[test]
    fn head_wraps_past_the_end_any_number_of_times() {
        for n in 0..12u32 {
            let mut rings = EventRings::try_new(1, 3).unwrap();
            for t in 0..n {
                rings.ring(0).record(&rec(f64::from(t)));
            }
            let want: Vec<f64> = (n.saturating_sub(3)..n).map(f64::from).collect();
            assert_eq!(times(&rings, 0), want, "{n} records");
            assert_eq!(rings.dropped(0), u64::from(n.saturating_sub(3)));
        }
    }

    #[test]
    fn zero_capacity_counts_drops() {
        let mut rings = EventRings::try_new(2, 0).unwrap();
        rings.ring(1).record(&rec(1.0));
        assert!(rings.records(1).is_empty());
        assert_eq!(rings.dropped(1), 1);
        assert_eq!(rings.dropped(0), 0);
    }

    #[test]
    fn oversized_blocks_are_named_errors() {
        let err = EventRings::try_new(usize::MAX, 2).unwrap_err();
        assert_eq!(err, EventRingsError::TooLarge { rings: usize::MAX, capacity: 2 });
        // Fits the multiplication, not the address space.
        let err = EventRings::try_new(1 << 60, 1).unwrap_err();
        assert_eq!(err, EventRingsError::TooLarge { rings: 1 << 60, capacity: 1 });
        // Fits the address space, not any allocator.
        let err = EventRings::try_new(1 << 40, 65_536).unwrap_err();
        assert_eq!(
            err,
            EventRingsError::Refused { rings: 1 << 40, capacity: 65_536, bytes: 1 << 61 }
        );
        assert!(err.to_string().contains("refused"), "{err}");
    }

    /// A ring as a double-ended queue: the last `capacity` records,
    /// oldest first, and a count of the ones pushed out.
    struct Model {
        held: VecDeque<EventRecord>,
        capacity: usize,
        dropped: u64,
    }

    impl Model {
        fn record(&mut self, rec: EventRecord) {
            self.held.push_back(rec);
            if self.held.len() > self.capacity {
                self.held.pop_front();
                self.dropped += 1;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn rings_sharing_a_block_match_a_deque_model(
            rings in 1usize..6,
            capacity in 0usize..6,
            writes in prop::collection::vec((0usize..6, any::<u32>()), 0..60),
        ) {
            let mut block = EventRings::try_new(rings, capacity).unwrap();
            let mut models: Vec<Model> = (0..rings)
                .map(|_| Model { held: VecDeque::new(), capacity, dropped: 0 })
                .collect();
            for (i, (ring, value)) in writes.into_iter().enumerate() {
                let j = ring % rings;
                let r = EventRecord {
                    time_s: i as f64 * 0.25,
                    node: j as u32,
                    event: Event::TdvfsRelease { to_mhz: value },
                };
                block.ring(j).record(&r);
                models[j].record(r);
            }
            for (j, model) in models.iter().enumerate() {
                let want: Vec<EventRecord> = model.held.iter().copied().collect();
                prop_assert_eq!(block.records(j), want);
                prop_assert_eq!(block.dropped(j), model.dropped);
            }
        }
    }
}
