//! The service's job queue: two priority lanes, an optional bound, and a
//! worker gate.
//!
//! Std-only (`Mutex` + `Condvar` over two `VecDeque`s): submitters
//! [`try_push`] onto a [`Lane`]; workers block in [`pop`], which delivers
//! interactive work strictly before batch work, until an item arrives or
//! the queue is [`close`]d and drained.
//!
//! The bound is on the *combined* depth of both lanes: a push at capacity
//! is refused with [`PushError::Full`], handing the item back — the
//! service's admission-control decision and the wire front end's shed
//! threshold, so `max_depth() <= capacity` holds structurally.
//!
//! The gate (`held`) exists for deterministic admission accounting: a held
//! queue accepts pushes but delivers nothing, so a caller can submit its
//! whole load, observe refusals that are a pure function of arrival order,
//! then [`release`](JobQueue::release) the workers. [`close`] also opens
//! the gate, so a drain started while held still finishes every queued
//! item.
//!
//! Lock discipline: every acquisition goes through
//! [`br_obs::lock_recover`], so a worker that panics while holding the
//! queue mutex poisons nothing — the queue state is two `VecDeque`s plus a
//! few scalars, always consistent at every await point, and the remaining
//! workers keep draining.
//!
//! [`try_push`]: JobQueue::try_push
//! [`pop`]: JobQueue::pop
//! [`close`]: JobQueue::close

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use br_obs::lock_recover;

/// Which lane a submission waits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Low-latency lane, always drained before batch work.
    Interactive,
    /// Throughput lane.
    Batch,
}

impl Lane {
    /// Both lanes, in drain-priority order.
    pub const ALL: [Lane; 2] = [Lane::Interactive, Lane::Batch];

    /// Dense index (0 = interactive, 1 = batch).
    pub fn index(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Batch => 1,
        }
    }

    /// Metric-label name.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Batch => "batch",
        }
    }
}

/// Why [`JobQueue::try_push`] refused an item. The rejected item is handed
/// back so the caller can answer its submitter.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The combined depth is at capacity.
    Full(T),
    /// The queue has been closed.
    Closed(T),
}

struct Inner<T> {
    lanes: [VecDeque<T>; 2],
    capacity: Option<usize>,
    closed: bool,
    held: bool,
    max_depth: usize,
}

impl<T> Inner<T> {
    fn depth(&self) -> usize {
        self.lanes[0].len() + self.lanes[1].len()
    }
}

/// Blocking two-lane queue shared by submitters and the worker pool.
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> JobQueue<T> {
    /// An open, empty queue refusing pushes once `capacity` items wait
    /// (clamped to ≥ 1; `None` never refuses), optionally starting with the
    /// worker gate held.
    pub fn new(capacity: Option<usize>, held: bool) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                lanes: [VecDeque::new(), VecDeque::new()],
                capacity: capacity.map(|c| c.max(1)),
                closed: false,
                held,
                max_depth: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Non-blocking admission: enqueues onto `lane` and returns the
    /// combined depth after the push, or a typed rejection carrying the
    /// item back.
    pub fn try_push(&self, lane: Lane, item: T) -> Result<usize, PushError<T>> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.capacity.is_some_and(|c| inner.depth() >= c) {
            return Err(PushError::Full(item));
        }
        inner.lanes[lane.index()].push_back(item);
        let depth = inner.depth();
        inner.max_depth = inner.max_depth.max(depth);
        drop(inner);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks for the next item, draining interactive before batch;
    /// `None` once the queue is closed *and* empty.
    pub fn pop(&self) -> Option<(Lane, T)> {
        let mut inner = lock_recover(&self.inner);
        loop {
            if !inner.held {
                for lane in Lane::ALL {
                    if let Some(item) = inner.lanes[lane.index()].pop_front() {
                        return Some((lane, item));
                    }
                }
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Opens the worker gate; returns whether it was held.
    pub fn release(&self) -> bool {
        let was_held = std::mem::replace(&mut lock_recover(&self.inner).held, false);
        self.ready.notify_all();
        was_held
    }

    /// Closes the queue (new pushes refused, queued items still delivered)
    /// and opens the gate so a held drain finishes.
    pub fn close(&self) {
        let mut inner = lock_recover(&self.inner);
        inner.closed = true;
        inner.held = false;
        drop(inner);
        self.ready.notify_all();
    }

    /// Combined depth across both lanes.
    pub fn depth(&self) -> usize {
        lock_recover(&self.inner).depth()
    }

    /// Depth of one lane.
    pub fn lane_depth(&self, lane: Lane) -> usize {
        lock_recover(&self.inner).lanes[lane.index()].len()
    }

    /// Highest combined depth ever observed (never exceeds the capacity).
    pub fn max_depth(&self) -> usize {
        lock_recover(&self.inner).max_depth
    }

    /// Whether the gate is currently held.
    pub fn is_held(&self) -> bool {
        lock_recover(&self.inner).held
    }

    /// Test hook: panic inside the queue's critical section, leaving the
    /// mutex poisoned, to prove the poison-recovering lock discipline keeps
    /// the queue usable afterwards.
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock_recover(&self.inner);
            panic!("injected panic inside queue critical section");
        }));
        assert!(
            self.inner.is_poisoned(),
            "mutex must be poisoned by the injected panic"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn drain<T>(q: &JobQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| (q.depth() > 0).then(|| q.pop().unwrap().1)).collect()
    }

    #[test]
    fn fifo_order_and_high_water_mark() {
        let q = JobQueue::new(None, false);
        for i in 0..5 {
            assert_eq!(q.try_push(Lane::Batch, i), Ok(i + 1));
        }
        assert_eq!(q.max_depth(), 5);
        assert_eq!(drain(&q), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.max_depth(), 5, "high-water mark survives draining");
    }

    #[test]
    fn interactive_lane_pops_first() {
        let q = JobQueue::new(Some(8), false);
        q.try_push(Lane::Batch, "b1").unwrap();
        q.try_push(Lane::Batch, "b2").unwrap();
        q.try_push(Lane::Interactive, "i1").unwrap();
        q.try_push(Lane::Interactive, "i2").unwrap();
        assert_eq!(q.lane_depth(Lane::Interactive), 2);
        assert_eq!(q.pop(), Some((Lane::Interactive, "i1")));
        assert_eq!(drain(&q), vec!["i2", "b1", "b2"]);
    }

    #[test]
    fn close_unblocks_waiters_and_rejects_pushes() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::new(None, false));
        let waiter = {
            let q = q.clone();
            thread::spawn(move || q.pop())
        };
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
        assert_eq!(q.try_push(Lane::Batch, 7), Err(PushError::Closed(7)));
    }

    #[test]
    fn poisoned_queue_keeps_serving() {
        let q: JobQueue<u32> = JobQueue::new(None, false);
        assert!(q.try_push(Lane::Batch, 1).is_ok());
        q.poison_for_test();
        // Every operation must recover from the poisoned mutex.
        assert!(q.try_push(Lane::Batch, 2).is_ok());
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some((Lane::Batch, 1)));
        assert_eq!(q.pop(), Some((Lane::Batch, 2)));
        q.close();
        assert_eq!(q.pop(), None);
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn pushes_are_refused_at_the_combined_capacity() {
        let q = JobQueue::new(Some(3), true);
        assert_eq!(q.try_push(Lane::Batch, 1), Ok(1));
        assert_eq!(q.try_push(Lane::Interactive, 2), Ok(2));
        assert_eq!(q.try_push(Lane::Batch, 3), Ok(3));
        assert_eq!(q.try_push(Lane::Interactive, 4), Err(PushError::Full(4)));
        assert_eq!(q.depth(), 3, "the refusal leaves depth at capacity");
        assert_eq!(q.max_depth(), 3, "bound caps the high-water mark");
        assert!(q.release());
        assert_eq!(q.pop(), Some((Lane::Interactive, 2)));
        assert_eq!(
            q.try_push(Lane::Batch, 5),
            Ok(3),
            "room frees up after a pop"
        );
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let q: JobQueue<u32> = JobQueue::new(Some(0), false);
        assert_eq!(q.try_push(Lane::Batch, 1), Ok(1));
        assert_eq!(q.try_push(Lane::Batch, 2), Err(PushError::Full(2)));
    }

    #[test]
    fn unbounded_queue_never_refuses() {
        let q = JobQueue::new(None, false);
        for i in 0..1000usize {
            assert_eq!(q.try_push(Lane::Interactive, i), Ok(i + 1));
        }
    }

    #[test]
    fn held_queue_delivers_nothing_until_release() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::new(Some(4), true));
        q.try_push(Lane::Interactive, 7).unwrap();
        assert!(q.is_held());
        let popper = {
            let q = q.clone();
            thread::spawn(move || q.pop())
        };
        // The gate is held: the popper must still be blocked.
        thread::sleep(std::time::Duration::from_millis(30));
        assert!(!popper.is_finished(), "pop must block while held");
        assert!(q.release());
        assert!(!q.release(), "the gate was already open");
        assert_eq!(popper.join().unwrap(), Some((Lane::Interactive, 7)));
    }

    #[test]
    fn close_opens_a_held_gate_and_drains_queued_items() {
        let q: JobQueue<u32> = JobQueue::new(Some(4), true);
        q.try_push(Lane::Batch, 1).unwrap();
        q.close();
        assert!(!q.is_held());
        assert_eq!(q.pop(), Some((Lane::Batch, 1)), "held drain still runs");
        assert_eq!(q.pop(), None);
        assert_eq!(q.try_push(Lane::Batch, 2), Err(PushError::Closed(2)));
    }

    #[test]
    fn many_workers_consume_each_item_exactly_once() {
        let q: Arc<JobQueue<u64>> = Arc::new(JobQueue::new(None, false));
        let n = 200u64;
        for i in 0..n {
            let lane = Lane::ALL[(i % 2) as usize];
            q.try_push(lane, i).unwrap();
        }
        q.close();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                thread::spawn(move || {
                    let mut sum = 0u64;
                    let mut count = 0u64;
                    while let Some((_, v)) = q.pop() {
                        sum += v;
                        count += 1;
                    }
                    (sum, count)
                })
            })
            .collect();
        let (sum, count) = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(s, c), (s2, c2)| (s + s2, c + c2));
        assert_eq!(count, n);
        assert_eq!(sum, n * (n - 1) / 2);
    }
}
