//! Bounded admission control.
//!
//! The server accepts work through one [`AdmissionQueue`]: a FIFO of
//! pending jobs with a hard capacity. When the queue is full, [`offer`]
//! fails *immediately* — the caller sheds the request with a typed
//! `Overloaded` error instead of queueing it. That explicit shed is the
//! whole point: an unbounded queue converts a burst into unbounded latency
//! for every request behind it, while a bounded queue converts it into
//! fast, observable rejections that clients can retry against.
//!
//! Each dequeued job reports how long it waited, so the worker can enforce
//! the per-request latency budget *before* spending engine time on a
//! request that has already aged out (`SpeakQlError::Timeout`).
//!
//! Built on `std::sync::{Mutex, Condvar}`; lock poisoning is recovered by
//! adopting the inner state, since every critical section leaves the queue
//! structurally valid.
//!
//! [`offer`]: AdmissionQueue::offer

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A job rejected by a full queue; carries the occupancy snapshot for the
/// `Overloaded { queued, capacity }` error.
#[derive(Debug)]
pub struct Shed<T> {
    /// The rejected job, returned so the caller can answer its requester.
    pub job: T,
    /// Jobs waiting at the moment of rejection (= capacity).
    pub queued: usize,
    /// The queue's configured bound.
    pub capacity: usize,
}

struct Pending<T> {
    job: T,
    enqueued: Instant,
}

struct Inner<T> {
    queue: VecDeque<Pending<T>>,
    closed: bool,
    /// While true, workers park instead of dequeuing — lets tests and the
    /// load generator freeze drain to make overload counts deterministic.
    held: bool,
}

/// A bounded FIFO admission queue with explicit shed; see the module docs.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled on enqueue, close, and release.
    ready: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` (≥ 1) pending jobs.
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
                held: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The queue's configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// True when no job is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit `job`, or shed it immediately when the queue is at capacity
    /// (or closed). Never blocks.
    pub fn offer(&self, job: T) -> Result<(), Shed<T>> {
        let mut inner = self.lock();
        if inner.closed || inner.queue.len() >= self.capacity {
            let queued = inner.queue.len();
            drop(inner);
            return Err(Shed {
                job,
                queued,
                capacity: self.capacity,
            });
        }
        inner.queue.push_back(Pending {
            job,
            enqueued: Instant::now(),
        });
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue the oldest job, blocking while the queue is empty (or held).
    /// Returns the job and how long it waited since admission; `None` once
    /// the queue is closed and drained.
    pub fn take(&self) -> Option<(T, Duration)> {
        let mut inner = self.lock();
        loop {
            if !inner.held {
                if let Some(p) = inner.queue.pop_front() {
                    return Some((p.job, p.enqueued.elapsed()));
                }
                if inner.closed {
                    return None;
                }
            } else if inner.closed {
                // Close overrides hold so shutdown can't deadlock; remaining
                // jobs drain through the normal path above once released, or
                // are drained by `drain` during shutdown.
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Freeze (`true`) or release (`false`) the worker side. While held,
    /// `offer` keeps admitting up to capacity but no job is dequeued, so an
    /// overload test can fill the queue and count sheds exactly.
    pub fn hold(&self, held: bool) {
        self.lock().held = held;
        self.ready.notify_all();
    }

    /// Close the queue: subsequent `offer`s shed, and workers return `None`
    /// once the backlog is drained.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Remove and return every pending job (used at shutdown to answer
    /// still-queued requests instead of dropping them silently).
    pub fn drain(&self) -> Vec<T> {
        self.lock().queue.drain(..).map(|p| p.job).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_is_preserved() {
        let q = AdmissionQueue::new(8);
        for i in 0..5 {
            assert!(q.offer(i).is_ok(), "queue has room");
        }
        let drained: Vec<i32> = (0..5)
            .filter_map(|_| q.take().map(|(job, _)| job))
            .collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_queue_sheds_exactly_the_overflow() {
        let q = AdmissionQueue::new(3);
        let mut sheds = 0;
        for i in 0..10 {
            if let Err(shed) = q.offer(i) {
                sheds += 1;
                assert_eq!(shed.queued, 3);
                assert_eq!(shed.capacity, 3);
            }
        }
        assert_eq!(sheds, 7);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn hold_freezes_workers_and_release_drains() {
        let q = Arc::new(AdmissionQueue::new(4));
        q.hold(true);
        for i in 0..4 {
            assert!(q.offer(i).is_ok(), "queue has room");
        }
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((job, _)) = q.take() {
                    got.push(job);
                }
                got
            })
        };
        // The worker must not dequeue while held.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 4);
        q.hold(false);
        q.close();
        let got = worker
            .join()
            .unwrap_or_else(|_| panic!("worker thread must not panic"));
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn take_reports_queue_wait() {
        let q = AdmissionQueue::new(2);
        assert!(q.offer(()).is_ok(), "queue has room");
        std::thread::sleep(Duration::from_millis(5));
        let Some((_, waited)) = q.take() else {
            panic!("job present");
        };
        assert!(waited >= Duration::from_millis(5));
    }

    #[test]
    fn closed_queue_sheds_offers_and_wakes_workers() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(2));
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.take())
        };
        q.close();
        let taken = worker
            .join()
            .unwrap_or_else(|_| panic!("worker must not panic"));
        assert!(taken.is_none());
        assert!(q.offer(1).is_err());
    }
}
