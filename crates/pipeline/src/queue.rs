//! Bounded SPSC/MPSC batch queue between the ingest thread and shard
//! workers.
//!
//! Same `Mutex` + `Condvar` shape as the network frontend's accept queue
//! (`graphex-server`), with one deliberate difference: the push side
//! **blocks** instead of shedding. Ingestion is a batch job — when a
//! shard worker falls behind, the right behaviour is backpressure on the
//! reader (bounding memory to `capacity × batch` records per shard), not
//! dropping records.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded blocking queue.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocking push: waits while the queue is full. `Err` returns the
    /// item only if the queue was closed (consumer gone).
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocking pop. Returns `None` only once the queue is closed *and*
    /// drained, so closing never discards admitted work.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pushes start failing, poppers drain then get
    /// `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_blocks_until_popped() {
        let q = Arc::new(Bounded::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap(), "blocked push completed after pop");
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_drains_then_stops_and_rejects_pushes() {
        let q = Bounded::new(4);
        q.push("a").unwrap();
        q.close();
        assert_eq!(q.push("b"), Err("b"));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_producer() {
        let q = Arc::new(Bounded::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(
            producer.join().unwrap(),
            Err(2),
            "close unblocks the producer with its item"
        );
    }
}
