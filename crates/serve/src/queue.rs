//! The bounded MPMC queue on `Mutex` + `Condvar` — the only concurrency
//! primitive the service layer needs beyond `std::thread`. Each serve lane
//! owns two: its ingress of validated jobs (bounded by `queue_depth`) and
//! the group queue between its batcher and its workers.
//!
//! Producers block in [`Queue::push`] while the queue is full (that is the
//! service's backpressure: a full request queue blocks connection readers,
//! which stops draining their sockets, which pushes back on clients), and
//! consumers block in [`Queue::pop`] while it is empty. [`Queue::close`]
//! wakes everyone: pushes start failing immediately, pops keep returning
//! the already-queued items and then report closure — so a shutdown drains
//! in-flight work instead of dropping it.
//!
//! The deadline variant [`Queue::pop_deadline`] is what a batching window
//! is made of: pop the first request unconditionally, then keep popping
//! with the window's expiry as the deadline.
//!
//! # Example
//!
//! ```
//! use vlcsa_serve::queue::Queue;
//!
//! let queue: Queue<u32> = Queue::new(8);
//! queue.push(1).unwrap();
//! queue.push(2).unwrap();
//! queue.close();
//! assert_eq!(queue.push(3), Err(3));       // closed to producers…
//! assert_eq!(queue.pop(), Some(1));        // …but drains to consumers
//! assert_eq!(queue.pop(), Some(2));
//! assert_eq!(queue.pop(), None);           // drained and closed
//! ```

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// What [`Queue::pop_deadline`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopResult<T> {
    /// An item arrived (or was already queued) before the deadline.
    Item(T),
    /// The deadline passed with the queue empty and open.
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded MPMC queue — see the module docs for the blocking and
/// close semantics.
pub struct Queue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Queue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a queue needs capacity for at least 1 item");
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues `item`, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue is (or becomes, while blocked)
    /// closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("queue lock");
        }
    }

    /// Dequeues the oldest item, blocking while the queue is empty and
    /// open. Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock");
        }
    }

    /// Dequeues the oldest item, giving up at `deadline` — the batching
    /// window's wait primitive.
    pub fn pop_deadline(&self, deadline: Instant) -> PopResult<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return PopResult::Item(item);
            }
            if state.closed {
                return PopResult::Closed;
            }
            let now = Instant::now();
            let Some(wait) = deadline
                .checked_duration_since(now)
                .filter(|w| !w.is_zero())
            else {
                return PopResult::TimedOut;
            };
            let (guard, timeout) = self
                .not_empty
                .wait_timeout(state, wait)
                .expect("queue lock");
            state = guard;
            if timeout.timed_out() && state.items.is_empty() && !state.closed {
                return PopResult::TimedOut;
            }
        }
    }

    /// Closes the queue: pending and future pushes fail, pops drain what
    /// is already queued and then report closure. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether nothing is currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_within_one_producer() {
        let queue = Queue::new(16);
        assert!(queue.is_empty());
        for i in 0..10 {
            queue.push(i).unwrap();
        }
        assert_eq!(queue.len(), 10);
        for i in 0..10 {
            assert_eq!(queue.pop(), Some(i));
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn full_queue_blocks_until_popped() {
        let queue = Arc::new(Queue::new(2));
        queue.push(1).unwrap();
        queue.push(2).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(3))
        };
        // The producer is blocked on capacity; popping frees a slot.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.pop(), Some(1));
        producer.join().unwrap().unwrap();
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
    }

    #[test]
    fn blocked_producer_is_woken_by_pop_not_close() {
        let queue = Arc::new(Queue::new(1));
        queue.push(1).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!producer.is_finished(), "push must wait for a free slot");
        // A lane's batcher frees slots with `pop_deadline`; that pop alone
        // must admit the waiting producer, with the queue still open.
        let far = Instant::now() + Duration::from_secs(5);
        assert_eq!(queue.pop_deadline(far), PopResult::Item(1));
        assert_eq!(producer.join().unwrap(), Ok(()));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.push(3), Ok(()), "the queue was never closed");
    }

    #[test]
    fn deadline_pop_times_out_then_delivers() {
        let queue: Arc<Queue<u8>> = Arc::new(Queue::new(4));
        let deadline = Instant::now() + Duration::from_millis(10);
        assert_eq!(queue.pop_deadline(deadline), PopResult::TimedOut);
        let pusher = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                queue.push(7).unwrap();
            })
        };
        let far = Instant::now() + Duration::from_secs(5);
        assert_eq!(queue.pop_deadline(far), PopResult::Item(7));
        pusher.join().unwrap();
    }

    #[test]
    fn close_wakes_blocked_consumers_and_drains() {
        let queue: Arc<Queue<u8>> = Arc::new(Queue::new(4));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(Duration::from_millis(10));
        queue.push(5).unwrap();
        queue.close();
        // The blocked consumer gets the item, not the closure.
        assert_eq!(consumer.join().unwrap(), Some(5));
        assert_eq!(queue.pop(), None);
        assert_eq!(
            queue.pop_deadline(Instant::now() + Duration::from_millis(1)),
            PopResult::Closed
        );
        assert_eq!(queue.push(9), Err(9));
    }

    #[test]
    fn close_wakes_blocked_producers() {
        let queue = Arc::new(Queue::new(1));
        queue.push(1).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(2))
        };
        std::thread::sleep(Duration::from_millis(10));
        queue.close();
        assert_eq!(producer.join().unwrap(), Err(2));
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let queue: Arc<Queue<u64>> = Arc::new(Queue::new(16));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        queue.push(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = queue.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        queue.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expect: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect, "every pushed item popped exactly once");
    }
}
