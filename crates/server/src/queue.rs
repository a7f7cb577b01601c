//! Bounded MPMC queue built on `Mutex` + `Condvar` (std-only): the accept
//! queue between the acceptor thread and the worker pool.
//!
//! Admission control lives in the push side: [`Bounded::try_push`] never
//! blocks — a full queue returns the item back so the acceptor can shed
//! load (HTTP 429) instead of buffering unboundedly. The pop side blocks,
//! and [`Bounded::close`] turns it into a *drain*: workers keep popping
//! queued items until empty, then observe `None` and exit.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer/multi-consumer queue.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
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
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking push; `Err` returns the item when the queue is full or
    /// closed (the caller sheds it).
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop. Returns `None` only once the queue is closed *and*
    /// drained, so closing never discards admitted work.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
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
    }

    /// Items currently queued (admission-pressure gauge).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo_and_shed_when_full() {
        let q = Bounded::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "full queue sheds");
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_stops() {
        let q = Bounded::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err("c"), "closed queue refuses new work");
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_producers_consumers() {
        let q = Arc::new(Bounded::new(8));
        let total = 400u32;
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
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
                std::thread::spawn(move || {
                    for i in 0..total / 4 {
                        let mut item = p * 1000 + i;
                        // Spin on a full queue: producers in this test must
                        // not shed, so every item is accounted for below.
                        while let Err(back) = q.try_push(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        assert_eq!(all.len() as u32, total);
        all.dedup();
        assert_eq!(all.len() as u32, total, "every item delivered exactly once");
    }
}
