//! [`Waker`]: how other threads end a consumer's one blocking wait.
//!
//! A node loop has more inputs than peer frames (client commands, a
//! stop request), but a thread can only block in one place: its
//! transport's `recv_timeout`. Instead of blocking there for a short
//! tick and polling the rest, the loop blocks until its next real
//! deadline and everything else that wants its attention calls
//! [`Waker::wake`]: the pending (or next) wait then returns
//! [`crate::RecvOutcome::TimedOut`] at once and the loop looks at its
//! other inputs. An idle loop therefore makes no timed wake-ups at all.
//!
//! What "interrupting the wait" means belongs to the wait — a condvar
//! signal for an [`crate::Inbox`], a byte on a wake socket for a
//! transport blocked in `poll(2)` — so the waker only wraps it, and
//! adds the one thing every such wait needs: a burst of wakes that
//! lands before the consumer looks costs one interruption.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A handle that interrupts one consumer's blocking wait
/// ([`crate::Transport::waker`]). Cloning shares it.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<Inner>,
}

struct Inner {
    /// A wake the consumer has not observed yet.
    woken: AtomicBool,
    interrupt: Box<dyn Fn() + Send + Sync>,
}

impl Waker {
    /// A waker whose first unobserved wake runs `interrupt`, which must
    /// make the consumer's pending wait return (or its next one return
    /// at once, if the consumer checks [`Waker::take`] before it
    /// blocks).
    pub fn new(interrupt: impl Fn() + Send + Sync + 'static) -> Self {
        Waker {
            inner: Arc::new(Inner {
                woken: AtomicBool::new(false),
                interrupt: Box::new(interrupt),
            }),
        }
    }

    /// Makes the consumer's pending or next wait return at once. A
    /// wake that finds an earlier one still unobserved does nothing,
    /// so a burst of wakes costs one interruption.
    pub fn wake(&self) {
        // SeqCst pairs with `take`: whatever the waking thread queued
        // before this call is visible to the consumer that observes it.
        if !self.inner.woken.swap(true, Ordering::SeqCst) {
            (self.inner.interrupt)();
        }
    }

    /// The consumer's side: whether a wake arrived since the previous
    /// call, clearing it. The consumer calls this before it blocks and
    /// after every interruption; nobody else should.
    pub fn take(&self) -> bool {
        self.inner.woken.swap(false, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn a_burst_of_wakes_interrupts_once_until_observed() {
        let interrupts = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&interrupts);
        let waker = Waker::new(move || {
            counted.fetch_add(1, Ordering::SeqCst);
        });
        assert!(!waker.take());
        waker.wake();
        waker.clone().wake();
        assert_eq!(interrupts.load(Ordering::SeqCst), 1);
        assert!(waker.take());
        assert!(!waker.take(), "one observation consumes the wake");
        waker.wake();
        assert_eq!(interrupts.load(Ordering::SeqCst), 2);
    }
}
