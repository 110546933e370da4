//! A bounded MPMC queue with explicit backpressure semantics.
//!
//! The fleet engine's shards each consume from one of these. Producers
//! choose their backpressure policy per call: [`BoundedQueue::push`]
//! *parks* (blocks until a slot frees up), [`BoundedQueue::try_push`]
//! *sheds* (returns the rejected item immediately). Capacity is a hard
//! invariant — the queue never holds more than `capacity` items, so a
//! burst of producers cannot grow memory without bound.
//!
//! Built on `Mutex<VecDeque>` plus two condition variables (one for
//! "not full", one for "not empty"); no unsafe, no spinning.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`BoundedQueue::try_push`] rejected an item. Carries the item
/// back so the producer can retry, park or drop it deliberately.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The queue was at capacity; shedding is the caller's decision.
    Full(T),
    /// The queue was closed; no further items will ever be accepted.
    Closed(T),
}

impl<T> TryPushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            TryPushError::Full(item) | TryPushError::Closed(item) => item,
        }
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Producers blocked inside [`BoundedQueue::push`] right now.
    parked: usize,
}

/// A blocking bounded MPMC queue. See the module docs for the
/// backpressure contract.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity queue would make
    /// every `push` deadlock against its own condition.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                parked: 0,
            }),
            capacity,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// The hard capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued items (racy, for diagnostics only).
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }

    /// Whether the queue is currently empty (racy, diagnostics only).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of producers parked in [`push`](Self::push) waiting for a
    /// slot (racy, diagnostics only). A producer counts from the moment
    /// it starts waiting until it wakes to a free slot or a closed queue.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn parked_producers(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").parked
    }

    /// Enqueues `item`, **parking** (blocking) while the queue is full.
    /// On success reports whether the caller had to park — `Ok(true)`
    /// means the queue was full and this push waited for a slot, the
    /// signal the fleet engine's backpressure counters are built on.
    /// Returns the item back as `Err` if the queue is closed.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the queue has been [`close`](Self::close)d.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn push(&self, item: T) -> Result<bool, T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        let parked = state.items.len() >= self.capacity && !state.closed;
        if parked {
            state.parked += 1;
            while state.items.len() >= self.capacity && !state.closed {
                state = self.not_full.wait(state).expect("queue lock poisoned");
            }
            state.parked -= 1;
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(parked)
    }

    /// Enqueues `item` only if a slot is free right now, **shedding**
    /// otherwise. Never blocks.
    ///
    /// # Errors
    ///
    /// [`TryPushError::Full`] when at capacity, [`TryPushError::Closed`]
    /// after [`close`](Self::close); both return the item.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed **and** drained — the
    /// consumer's termination signal.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock poisoned");
        }
    }

    /// Closes the queue: subsequent pushes fail, parked producers wake
    /// with an error, and consumers drain the remaining items before
    /// [`pop`](Self::pop) returns `None`.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock poisoned");
        state.closed = true;
        drop(state);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Blocks until `n` producers are parked on `q`. The count changes
    /// under the queue lock right before a producer waits, so once it is
    /// seen the producer is inside `push` and will observe whatever the
    /// caller does next.
    fn wait_until_parked<T>(q: &BoundedQueue<T>, n: usize) {
        while q.parked_producers() < n {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn fifo_order_within_one_producer() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn try_push_sheds_at_capacity_and_len_never_exceeds_it() {
        let q = BoundedQueue::new(3);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(q.try_push(3).is_ok());
        match q.try_push(4) {
            Err(TryPushError::Full(item)) => assert_eq!(item, 4),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn push_parks_until_consumer_frees_a_slot_and_reports_it() {
        let q = Arc::new(BoundedQueue::new(1));
        assert_eq!(q.push(0u32), Ok(false), "free slot: no parking");
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(1).unwrap())
        };
        // The producer is parked on the full queue; popping releases it.
        wait_until_parked(&q, 1);
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap(), "full queue: push reports parking");
        assert_eq!(q.parked_producers(), 0);
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn close_wakes_parked_producer_with_error() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(7))
        };
        // Close underneath the parked producer.
        wait_until_parked(&q, 1);
        q.close();
        assert_eq!(producer.join().unwrap(), Err(7));
        assert_eq!(q.parked_producers(), 0);
    }

    #[test]
    fn consumers_drain_then_observe_close() {
        let q = BoundedQueue::new(4);
        q.push('a').unwrap();
        q.push('b').unwrap();
        q.close();
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), None);
        assert!(matches!(q.try_push('c'), Err(TryPushError::Closed('c'))));
    }

    #[test]
    fn mpmc_round_trip_preserves_every_item() {
        let q = Arc::new(BoundedQueue::new(4));
        let total: usize = 4 * 250;
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..250usize {
                        q.push(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), total);
        all.dedup();
        assert_eq!(all.len(), total, "items were duplicated or lost");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }
}
