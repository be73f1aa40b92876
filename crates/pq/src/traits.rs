//! Interfaces shared by all priority-queue implementations.

/// A sequential min-priority queue with a peek operation.
///
/// This is the interface the paper assumes for each of the `m` internal
/// queues of the MultiQueue (Section 7.1): `Add(e, p)`, `DeleteMin` and
/// `ReadMin`, where `ReadMin` returns the element with smallest priority
/// without removing it.
///
/// Implementations must order equal priorities in FIFO (insertion) order.
/// This matters when priorities are timestamps with limited resolution:
/// FIFO tie-breaking keeps the relaxed queue's per-queue behaviour
/// consistent with the sequential specification used in the analysis.
pub trait SeqPriorityQueue<P: Ord, V> {
    /// Inserts `value` with priority `priority`.
    fn add(&mut self, priority: P, value: V);

    /// Removes and returns the entry with the smallest priority
    /// (FIFO among ties), or `None` if the queue is empty.
    fn delete_min(&mut self) -> Option<(P, V)>;

    /// Returns the entry with the smallest priority without removing it.
    fn read_min(&self) -> Option<(&P, &V)>;

    /// Number of entries currently stored.
    fn len(&self) -> usize;

    /// `true` if no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all entries.
    fn clear(&mut self);
}

/// A thread-safe priority queue.
///
/// The `u64` priority domain matches the paper's usage: priorities are
/// either explicit ranks or clock timestamps, both of which fit in a
/// machine word and can therefore be published atomically for lock-free
/// `ReadMin` hints.
pub trait ConcurrentPq<V>: Sync {
    /// Inserts `value` with priority `priority`.
    fn insert(&self, priority: u64, value: V);

    /// Removes and returns an entry. For exact queues this is the global
    /// minimum; for relaxed queues it is an entry whose rank is bounded in
    /// distribution (see the paper's Theorem 7.1).
    fn remove_min(&self) -> Option<(u64, V)>;

    /// A (possibly stale) lower-bound hint of the smallest priority
    /// present, or `u64::MAX` if believed empty.
    fn min_hint(&self) -> u64;

    /// Total number of entries, summed over internal structures.
    /// May be transiently inconsistent under concurrency; exact when
    /// quiescent.
    fn approx_len(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryHeap;

    #[test]
    fn default_is_empty_tracks_len() {
        let mut h: BinaryHeap<u64, u32> = BinaryHeap::new();
        assert!(h.is_empty());
        h.add(3, 30);
        assert!(!h.is_empty());
        h.delete_min();
        assert!(h.is_empty());
    }
}
