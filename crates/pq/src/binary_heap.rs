//! An array-backed binary min-heap with FIFO tie-breaking.
//!
//! `std::collections::BinaryHeap` is a max-heap without a stable ordering
//! for equal priorities, so we implement our own. Entries with equal
//! priorities are returned in insertion order, which the MultiQueue relies
//! on when priorities are coarse timestamps (two elements enqueued to the
//! same internal queue with the same timestamp must come out in enqueue
//! order for the queue-like sequential specification to make sense).

use crate::traits::SeqPriorityQueue;

/// One heap entry: priority, tie-breaking sequence number, payload.
#[derive(Debug, Clone)]
struct Entry<P, V> {
    priority: P,
    seq: u64,
    value: V,
}

impl<P: Ord, V> Entry<P, V> {
    /// Lexicographic (priority, seq) order: FIFO among equal priorities.
    #[inline]
    fn key(&self) -> (&P, u64) {
        (&self.priority, self.seq)
    }
}

/// A binary min-heap over `(P, insertion index)` keys.
///
/// # Example
/// ```
/// use dlz_pq::{BinaryHeap, SeqPriorityQueue};
/// let mut h = BinaryHeap::new();
/// h.add(5u64, "five");
/// h.add(1, "one");
/// h.add(5, "five-again");
/// assert_eq!(h.delete_min(), Some((1, "one")));
/// assert_eq!(h.delete_min(), Some((5, "five")));        // FIFO tie-break
/// assert_eq!(h.delete_min(), Some((5, "five-again")));
/// assert_eq!(h.delete_min(), None);
/// ```
#[derive(Debug, Clone)]
pub struct BinaryHeap<P, V> {
    entries: Vec<Entry<P, V>>,
    next_seq: u64,
}

impl<P: Ord, V> Default for BinaryHeap<P, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Ord, V> BinaryHeap<P, V> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        BinaryHeap {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty heap that can hold `cap` entries without
    /// reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeap {
            entries: Vec::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Current backing-array capacity.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Drains the heap in priority order into a vector.
    pub fn into_sorted_vec(mut self) -> Vec<(P, V)> {
        let mut out = Vec::with_capacity(self.entries.len());
        while let Some(e) = self.delete_min() {
            out.push(e);
        }
        out
    }

    /// Iterates over entries in unspecified (heap) order.
    pub fn iter_unordered(&self) -> impl Iterator<Item = (&P, &V)> {
        self.entries.iter().map(|e| (&e.priority, &e.value))
    }

    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        self.entries[a].key() < self.entries[b].key()
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(i, parent) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut smallest = i;
            if l < n && self.less(l, smallest) {
                smallest = l;
            }
            if r < n && self.less(r, smallest) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.entries.swap(i, smallest);
            i = smallest;
        }
    }

    /// Verifies the heap invariant; used by tests and debug assertions.
    #[doc(hidden)]
    pub fn check_invariant(&self) -> bool {
        (1..self.entries.len()).all(|i| !self.less(i, (i - 1) / 2))
    }
}

impl<P: Ord, V> SeqPriorityQueue<P, V> for BinaryHeap<P, V> {
    fn add(&mut self, priority: P, value: V) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Entry {
            priority,
            seq,
            value,
        });
        self.sift_up(self.entries.len() - 1);
    }

    fn delete_min(&mut self) -> Option<(P, V)> {
        if self.entries.is_empty() {
            return None;
        }
        let last = self.entries.len() - 1;
        self.entries.swap(0, last);
        let e = self.entries.pop().expect("checked non-empty");
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        Some((e.priority, e.value))
    }

    fn read_min(&self) -> Option<(&P, &V)> {
        self.entries.first().map(|e| (&e.priority, &e.value))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.next_seq = 0;
    }
}

impl<P: Ord, V> FromIterator<(P, V)> for BinaryHeap<P, V> {
    fn from_iter<T: IntoIterator<Item = (P, V)>>(iter: T) -> Self {
        let mut h = BinaryHeap::new();
        for (p, v) in iter {
            h.add(p, v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_heap_behaviour() {
        let mut h: BinaryHeap<u64, ()> = BinaryHeap::new();
        assert_eq!(h.len(), 0);
        assert!(h.is_empty());
        assert_eq!(h.read_min(), None);
        assert_eq!(h.delete_min(), None);
    }

    #[test]
    fn single_element() {
        let mut h = BinaryHeap::new();
        h.add(7u64, 'a');
        assert_eq!(h.read_min(), Some((&7, &'a')));
        assert_eq!(h.delete_min(), Some((7, 'a')));
        assert!(h.is_empty());
    }

    #[test]
    fn ascending_and_descending_inserts_sort() {
        let mut h = BinaryHeap::new();
        for i in 0..100u64 {
            h.add(i, i);
        }
        for i in (100..200u64).rev() {
            h.add(i, i);
        }
        for i in 0..200u64 {
            assert_eq!(h.delete_min(), Some((i, i)));
        }
    }

    #[test]
    fn fifo_tie_break() {
        let mut h = BinaryHeap::new();
        for i in 0..50 {
            h.add(0u64, i);
        }
        for i in 0..50 {
            assert_eq!(h.delete_min(), Some((0, i)));
        }
    }

    #[test]
    fn interleaved_add_delete_keeps_invariant() {
        let mut h = BinaryHeap::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for step in 0..5_000u64 {
            // xorshift for a deterministic pseudo-random workload
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if step % 3 == 2 {
                h.delete_min();
            } else {
                h.add(x % 1000, step);
            }
            debug_assert!(h.check_invariant());
        }
        assert!(h.check_invariant());
        let sorted = h.into_sorted_vec();
        assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn clear_resets_sequence() {
        let mut h = BinaryHeap::new();
        h.add(1u64, 1);
        h.add(2, 2);
        h.clear();
        assert!(h.is_empty());
        h.add(5, 50);
        assert_eq!(h.delete_min(), Some((5, 50)));
    }

    #[test]
    fn from_iterator_collects() {
        let h: BinaryHeap<u64, u64> = (0..10u64).map(|i| (10 - i, i)).collect();
        assert_eq!(h.len(), 10);
        assert_eq!(h.read_min(), Some((&1, &9)));
    }

    #[test]
    fn max_u64_priority() {
        let mut h = BinaryHeap::new();
        h.add(u64::MAX, "inf");
        h.add(0, "zero");
        assert_eq!(h.delete_min(), Some((0, "zero")));
        assert_eq!(h.delete_min(), Some((u64::MAX, "inf")));
    }

    #[test]
    fn matches_an_ordered_map_model_under_random_interleavings() {
        use std::collections::BTreeMap;
        for seed in 1..=8u64 {
            let mut h = BinaryHeap::new();
            // Keyed by (priority, insertion index): the map's order is the
            // specification, FIFO among equal priorities included.
            let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
            let mut next = 0u64;
            let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            for step in 0..20_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match x % 100 {
                    0..=49 => {
                        // Heavy ties: a handful of priorities, u64::MAX
                        // among them, plus an occasional wide draw.
                        let p = match (x >> 8) % 8 {
                            0..=3 => (x >> 16) % 4,
                            4 => u64::MAX,
                            5 => u64::MAX - 1,
                            _ => x >> 20,
                        };
                        h.add(p, step);
                        model.insert((p, next), step);
                        next += 1;
                    }
                    50..=79 => {
                        let want = model.pop_first().map(|((p, _), v)| (p, v));
                        assert_eq!(h.delete_min(), want, "seed {seed} step {step}");
                    }
                    80..=98 => {
                        let want = model.first_key_value().map(|((p, _), v)| (p, v));
                        assert_eq!(h.read_min(), want, "seed {seed} step {step}");
                    }
                    _ => {
                        h.clear();
                        model.clear();
                    }
                }
                assert_eq!(h.len(), model.len(), "seed {seed} step {step}");
            }
            let rest: Vec<(u64, u64)> = model.into_iter().map(|((p, _), v)| (p, v)).collect();
            assert_eq!(h.into_sorted_vec(), rest, "seed {seed} drain");
        }
    }

    #[test]
    fn iter_unordered_visits_all() {
        let mut h = BinaryHeap::new();
        for i in 0..20u64 {
            h.add(i, i * 2);
        }
        let mut seen: Vec<u64> = h.iter_unordered().map(|(p, _)| *p).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20u64).collect::<Vec<_>>());
    }
}
