//! The bounded frame inbox the in-process channel mesh hands frames to
//! its consumer through. Its consumer blocks in
//! [`Inbox::recv_timeout`], which a [`Waker`] from [`Inbox::waker`]
//! interrupts (see [`crate::wake`]).

use crate::transport::{InboundFrame, RecvOutcome};
use crate::wake::Waker;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

struct InboxState {
    queue: VecDeque<InboundFrame>,
    closed: bool,
    /// The consumer is parked on `not_empty`; producers (and wakes)
    /// that find it running skip the condvar's system call.
    receiver_parked: bool,
    /// Producers parked on `not_full`.
    senders_parked: usize,
}

/// Bounded multi-producer, single-consumer frame queue whose consumer
/// a [`Waker`] can interrupt (see the [module docs](self)).
///
/// A mutex and two condvars: a producer blocked on a full queue parks
/// on `not_full` and is woken by the very pop that makes room, so
/// backpressure releases within a scheduler wake-up, never a sleep
/// quantum.
pub struct Inbox {
    state: Mutex<InboxState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    waker: Waker,
}

impl Inbox {
    /// An open, empty inbox holding up to `capacity` frames (at least
    /// one).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new_cyclic(|inbox: &Weak<Inbox>| {
            let inbox = Weak::clone(inbox);
            Inbox {
                state: Mutex::new(InboxState {
                    queue: VecDeque::new(),
                    closed: false,
                    receiver_parked: false,
                    senders_parked: 0,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                capacity: capacity.max(1),
                // A wake takes the lock the consumer checks the flag
                // under before it parks, so it is never lost.
                waker: Waker::new(move || {
                    if let Some(inbox) = inbox.upgrade() {
                        let parked = inbox.lock().receiver_parked;
                        if parked {
                            inbox.not_empty.notify_one();
                        }
                    }
                }),
            }
        })
    }

    /// The handle that interrupts this inbox's consumer.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    fn lock(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().expect("inbox poisoned")
    }

    /// Queues a frame for the consumer, parking while the queue is at
    /// capacity for up to `timeout` (`Duration::MAX` parks until room
    /// or close). Returns whether the frame was queued: `false` means
    /// the inbox is closed, or stayed full for the whole timeout.
    pub fn push(&self, frame: InboundFrame, timeout: Duration) -> bool {
        let mut state = self.lock();
        if state.queue.len() >= self.capacity && !state.closed {
            state.senders_parked += 1;
            let (next, _) = self
                .not_full
                .wait_timeout_while(state, timeout, |s| {
                    s.queue.len() >= self.capacity && !s.closed
                })
                .expect("inbox poisoned");
            state = next;
            state.senders_parked -= 1;
        }
        if state.closed || state.queue.len() >= self.capacity {
            return false;
        }
        state.queue.push_back(frame);
        let wake = state.receiver_parked;
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
        true
    }

    /// Pops the next frame, waiting up to `timeout` (`Duration::MAX`
    /// waits without a deadline). Returns [`RecvOutcome::TimedOut`]
    /// early when [`Waker::wake`] was called since the previous return;
    /// any return consumes the pending wake-up, so the consumer must
    /// look at its other inputs after every return. Buffered frames
    /// still drain after close: `Closed` means closed *and* empty.
    pub fn recv_timeout(&self, timeout: Duration) -> RecvOutcome {
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.lock();
        let outcome = loop {
            if let Some(frame) = state.queue.pop_front() {
                break RecvOutcome::Frame(frame);
            }
            if state.closed {
                break RecvOutcome::Closed;
            }
            if self.waker.take() {
                break RecvOutcome::TimedOut;
            }
            state.receiver_parked = true;
            state = match deadline {
                None => self.not_empty.wait(state).expect("inbox poisoned"),
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        state.receiver_parked = false;
                        break RecvOutcome::TimedOut;
                    }
                    self.not_empty
                        .wait_timeout(state, remaining)
                        .expect("inbox poisoned")
                        .0
                }
            };
            state.receiver_parked = false;
        };
        self.waker.take();
        let unpark = state.senders_parked > 0 && matches!(outcome, RecvOutcome::Frame(_));
        drop(state);
        if unpark {
            self.not_full.notify_one();
        }
        outcome
    }

    /// Closes the inbox: parked producers and the consumer return, and
    /// further pushes are refused.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_model::ProcessId;

    fn frame(byte: u8) -> InboundFrame {
        InboundFrame {
            from: ProcessId::new(0),
            payload: vec![byte],
        }
    }

    /// With no frame and no pending wake, a timed wait lasts its whole
    /// timeout.
    fn assert_waits_out(inbox: &Inbox, why: &str) {
        let timeout = Duration::from_millis(10);
        let started = Instant::now();
        assert_eq!(inbox.recv_timeout(timeout), RecvOutcome::TimedOut);
        assert!(started.elapsed() >= timeout, "{why}");
    }

    #[test]
    fn frames_pop_in_order_and_drain_after_close() {
        let inbox = Inbox::new(4);
        assert!(inbox.push(frame(1), Duration::ZERO));
        assert!(inbox.push(frame(2), Duration::ZERO));
        inbox.close();
        assert!(!inbox.push(frame(3), Duration::ZERO));
        assert_eq!(
            inbox.recv_timeout(Duration::ZERO),
            RecvOutcome::Frame(frame(1))
        );
        assert_eq!(
            inbox.recv_timeout(Duration::MAX),
            RecvOutcome::Frame(frame(2))
        );
        assert_eq!(inbox.recv_timeout(Duration::MAX), RecvOutcome::Closed);
    }

    #[test]
    fn a_full_inbox_refuses_after_the_timeout_and_accepts_after_a_pop() {
        let inbox = Inbox::new(1);
        assert!(inbox.push(frame(1), Duration::ZERO));
        assert!(!inbox.push(frame(2), Duration::from_millis(5)));
        // A parked producer is released by the pop itself.
        let producer = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || inbox.push(frame(3), Duration::MAX))
        };
        assert_eq!(
            inbox.recv_timeout(Duration::MAX),
            RecvOutcome::Frame(frame(1))
        );
        assert!(producer.join().unwrap());
        assert_eq!(
            inbox.recv_timeout(Duration::MAX),
            RecvOutcome::Frame(frame(3))
        );
    }

    #[test]
    fn a_wake_interrupts_an_unbounded_wait_exactly_once() {
        let inbox = Inbox::new(1);
        let waker = inbox.waker();
        // Before the wait: the next call returns at once.
        waker.wake();
        waker.wake(); // coalesced with the first
        assert_eq!(inbox.recv_timeout(Duration::MAX), RecvOutcome::TimedOut);
        assert_waits_out(&inbox, "the wake was consumed by the previous return");
        // During the wait: the parked consumer is released. Whichever
        // side runs first, the one wake is seen by the one call.
        let consumer = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || inbox.recv_timeout(Duration::MAX))
        };
        waker.wake();
        assert_eq!(consumer.join().unwrap(), RecvOutcome::TimedOut);
    }

    #[test]
    fn a_frame_return_consumes_a_pending_wake() {
        let inbox = Inbox::new(2);
        let waker = inbox.waker();
        inbox.push(frame(1), Duration::ZERO);
        waker.wake();
        assert_eq!(
            inbox.recv_timeout(Duration::MAX),
            RecvOutcome::Frame(frame(1))
        );
        assert_waits_out(&inbox, "the wake outlived the return that consumed it");
    }
}
