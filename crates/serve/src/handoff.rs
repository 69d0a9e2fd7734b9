//! The hand-off of accepted connections to idle handler threads.
//!
//! A handler thread serves one connection, then waits here for the next
//! one; the accept loop gives each new connection to a waiting handler and
//! starts a thread only when none waits, so a connection never queues
//! behind a busy handler (an open SSE stream). A handler that waits
//! longer than the idle timeout exits.
//!
//! One lock guards both counts, so every connection [`HandOff::offer`]
//! takes has a waiting handler that will take it: a handler gives up only
//! when no connection waits for it, and the accept loop hands a connection
//! over only when a handler waits that no earlier connection was promised.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Connections waiting for a handler, and the handlers waiting for one.
pub(crate) struct HandOff<C> {
    state: Mutex<State<C>>,
    ready: Condvar,
    idle_timeout: Duration,
}

struct State<C> {
    /// Waiting handlers that no connection in `pending` is promised to.
    idle: usize,
    /// Connections promised to waiting handlers, oldest first. There are
    /// never more of them than handlers waiting.
    pending: VecDeque<C>,
}

impl<C> HandOff<C> {
    /// A hand-off whose handlers exit after `idle_timeout` without work.
    pub(crate) fn new(idle_timeout: Duration) -> Self {
        Self {
            state: Mutex::new(State { idle: 0, pending: VecDeque::new() }),
            ready: Condvar::new(),
            idle_timeout,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<C>> {
        // The state is two counts' worth of bookkeeping updated in single
        // steps, so a panic elsewhere cannot leave it half-changed.
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Gives `conn` to a waiting handler, or hands it back when none waits
    /// and the caller must start a handler for it.
    pub(crate) fn offer(&self, conn: C) -> Option<C> {
        let mut state = self.lock();
        if state.idle == 0 {
            return Some(conn);
        }
        state.idle -= 1;
        state.pending.push_back(conn);
        self.ready.notify_one();
        None
    }

    /// Called by a handler that has served `done`: waits for the next
    /// connection, or returns `None` once it has waited the idle timeout
    /// and the thread should exit. `done` is closed only after the
    /// handler counts as waiting, so a client that sends its next request
    /// when it sees the close finds this handler free.
    pub(crate) fn next(&self, done: C) -> Option<C> {
        self.lock().idle += 1;
        drop(done);
        let deadline = Instant::now() + self.idle_timeout;
        let mut state = self.lock();
        loop {
            if let Some(conn) = state.pending.pop_front() {
                if !state.pending.is_empty() {
                    // Another promised connection: make sure its handler
                    // is awake too.
                    self.ready.notify_one();
                }
                return Some(conn);
            }
            let now = Instant::now();
            if now >= deadline {
                // Nothing is pending, so this handler is one of `idle`.
                state.idle -= 1;
                return None;
            }
            state = self
                .ready
                .wait_timeout(state, deadline - now)
                .map_or_else(|poisoned| poisoned.into_inner().0, |(guard, _)| guard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    /// Handler threads alive and connections served.
    #[derive(Default)]
    struct Tally {
        live: AtomicUsize,
        served: AtomicUsize,
    }

    /// Serves `first` and every connection handed over after it, counting
    /// each, until the hand-off lets the thread go.
    fn handler(handoff: &Arc<HandOff<u32>>, first: u32, tally: &Arc<Tally>) {
        let (handoff, tally) = (Arc::clone(handoff), Arc::clone(tally));
        tally.live.fetch_add(1, Ordering::SeqCst);
        thread::spawn(move || {
            let mut conn = first;
            loop {
                tally.served.fetch_add(1, Ordering::SeqCst);
                match handoff.next(conn) {
                    Some(next) => conn = next,
                    None => break,
                }
            }
            tally.live.fetch_sub(1, Ordering::SeqCst);
        });
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_waiting_handler_takes_the_next_connection_and_exits_when_idle() {
        let handoff = Arc::new(HandOff::new(Duration::from_millis(200)));
        let tally = Arc::new(Tally::default());
        assert_eq!(handoff.offer(1), Some(1), "no handler waits yet");
        handler(&handoff, 1, &tally);
        wait_until("the handler waits", || handoff.lock().idle == 1);
        assert_eq!(handoff.offer(2), None, "the waiting handler takes it");
        wait_until("the handler serves it", || tally.served.load(Ordering::SeqCst) == 2);
        wait_until("the handler exits", || tally.live.load(Ordering::SeqCst) == 0);
        assert_eq!(handoff.lock().idle, 0);
        assert_eq!(handoff.offer(3), Some(3), "an exited handler takes nothing");
        assert_eq!(tally.served.load(Ordering::SeqCst), 2);
    }

    /// Offers race handlers that time out almost at once: every connection
    /// is either handed back to start a handler or served, never stranded.
    /// At most 8 handlers run at a time.
    #[test]
    fn no_offered_connection_is_stranded_by_an_exiting_handler() {
        let handoff = Arc::new(HandOff::new(Duration::from_micros(50)));
        let tally = Arc::new(Tally::default());
        let total = 2_000;
        for conn in 0..total {
            if let Some(conn) = handoff.offer(conn) {
                wait_until("a handler exits", || tally.live.load(Ordering::SeqCst) < 8);
                handler(&handoff, conn, &tally);
            }
        }
        wait_until("every connection is served", || {
            tally.served.load(Ordering::SeqCst) == total as usize
        });
        wait_until("every handler exits", || tally.live.load(Ordering::SeqCst) == 0);
        let state = handoff.lock();
        assert_eq!((state.idle, state.pending.len()), (0, 0));
    }
}
