//! A bounded MPMC queue on the workspace's poison-recovering
//! [`Mutex`]/[`Condvar`] — the channel underneath [`WorkPool`] and
//! [`PipelineIter`](crate::PipelineIter).
//!
//! The capacity bound is what turns "spawn everything" into
//! backpressure: a pipeline stage that outruns its consumer blocks in
//! [`push`](Bounded::push), and a pool submitter that finds the queue
//! full runs the job itself, instead of growing an unbounded buffer. A
//! closed queue wakes every waiter so shutdown never hangs.
//!
//! [`WorkPool`]: crate::WorkPool

use diesel_util::{Condvar, Mutex};
use std::collections::VecDeque;

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub(crate) struct Bounded<T> {
    pub(crate) capacity: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Bounded {
            capacity,
            state: Mutex::named(
                "exec.queue",
                State { items: VecDeque::with_capacity(capacity), closed: false },
            ),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Items currently queued.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Enqueue, blocking while the queue is full. Returns the item back
    /// when the queue has been closed.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let mut g = self.state.lock();
        loop {
            if g.closed {
                return Err(item);
            }
            if g.items.len() < self.capacity {
                g.items.push_back(item);
                drop(g);
                self.not_empty.notify_one();
                return Ok(());
            }
            g = self.not_full.wait(g);
        }
    }

    /// Enqueue without blocking. Returns the item back when the queue
    /// is full or closed.
    pub(crate) fn try_push(&self, item: T) -> Result<(), T> {
        let mut g = self.state.lock();
        if g.closed || g.items.len() >= self.capacity {
            return Err(item);
        }
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue, blocking while the queue is empty. Returns `None` once
    /// the queue is closed *and* drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut g = self.state.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g);
        }
    }

    /// Dequeue without blocking; `None` when nothing is queued.
    pub(crate) fn try_pop(&self) -> Option<T> {
        let mut g = self.state.lock();
        let item = g.items.pop_front()?;
        drop(g);
        self.not_full.notify_one();
        Some(item)
    }

    /// Close the queue: producers get their items back, consumers drain
    /// what is left and then see `None`. Idempotent.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_len() {
        let q = Bounded::new(4);
        assert_eq!(q.len(), 0);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn try_push_refuses_when_full() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3));
        q.pop();
        q.try_push(3).unwrap();
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = Bounded::new(0);
        assert_eq!(q.capacity, 1);
        q.push(9).unwrap();
        assert_eq!(q.try_push(10), Err(10));
    }

    #[test]
    fn close_unblocks_and_drains() {
        let q = Arc::new(Bounded::new(1));
        q.push(7).unwrap();
        // A producer blocked on a full queue gets its item back at close.
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.push(8));
        // Give the producer a moment to block on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(t.join().unwrap(), Err(8));
        // The queued item still drains; then consumers see the end.
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
        assert!(q.state.lock().closed);
        assert_eq!(q.push(9), Err(9));
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(2));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop());
        q.close();
        assert_eq!(t.join().unwrap(), None);
    }

    #[test]
    fn backpressure_blocks_until_space() {
        let q = Arc::new(Bounded::new(1));
        q.push(1).unwrap();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.push(2).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(q.pop(), Some(1));
        assert!(t.join().unwrap());
        assert_eq!(q.pop(), Some(2));
    }
}
