//! The inter-stage FIFO of Figure 9.

use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, RecvError, SendError, Sender};
use parking_lot::Mutex;

/// Occupancy statistics of one queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Total items pushed.
    pub pushed: u64,
    /// Total items popped.
    pub popped: u64,
    /// High-water mark of queued items.
    pub peak: u64,
}

/// A bounded FIFO connecting two pipeline stages, with statistics.
///
/// [`push`](Self::push) blocks while the queue is full (the back-pressure
/// that keeps a producer from racing ahead of device memory) and
/// [`pop`](Self::pop) while it is empty. Clones share one queue.
#[derive(Clone)]
pub struct BoundedQueue<T> {
    tx: Sender<T>,
    rx: Receiver<T>,
    stats: Arc<Mutex<QueueStats>>,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("len", &self.rx.len())
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue of the given capacity (≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let (tx, rx) = bounded(capacity);
        BoundedQueue {
            tx,
            rx,
            stats: Arc::new(Mutex::new(QueueStats::default())),
        }
    }

    /// Blocking push; returns `Err` if all poppers are gone.
    pub fn push(&self, item: T) -> Result<(), SendError<T>> {
        self.tx.send(item)?;
        let mut s = self.stats.lock();
        s.pushed += 1;
        s.peak = s.peak.max(self.rx.len() as u64);
        Ok(())
    }

    /// Blocking pop; returns `Err` when the queue is closed **and** empty.
    pub fn pop(&self) -> Result<T, RecvError> {
        let item = self.rx.recv()?;
        self.stats.lock().popped += 1;
        Ok(item)
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> QueueStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop().unwrap(), i);
        }
        let s = q.stats();
        assert_eq!((s.pushed, s.popped), (5, 5));
        assert!(s.peak >= 1);
    }

    #[test]
    fn bounded_capacity_applies_backpressure() {
        let q = BoundedQueue::new(2);
        let tx = q.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..10 {
                tx.push(i).unwrap();
            }
        });
        // Slow consumer still sees all items in order.
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(q.pop().unwrap());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        producer.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(
            q.stats().peak <= 2,
            "peak {} exceeds capacity",
            q.stats().peak
        );
    }

    #[test]
    fn multi_producer_single_consumer_counts() {
        let q: BoundedQueue<usize> = BoundedQueue::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let tx = q.clone();
                s.spawn(move || {
                    for i in 0..25 {
                        tx.push(t * 100 + i).unwrap();
                    }
                });
            }
            let got: Vec<_> = (0..100).map(|_| q.pop().unwrap()).collect();
            assert_eq!(got.len(), 100);
        });
        assert_eq!(q.stats().pushed, 100);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: BoundedQueue<u8> = BoundedQueue::new(0);
    }
}
