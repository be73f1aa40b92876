//! How one whole-operation attempt on a [`LockedPq`](crate::LockedPq)
//! ended.
//!
//! The MultiQueue's choice loops care about four outcomes, not about
//! lock mechanics: the operation happened (and at what stamp), the
//! queue was empty, the queue was contended, or the queue is poisoned
//! and must be quarantined. The `attempt_*` methods of
//! [`LockedPq`](crate::LockedPq) report exactly these.

/// How a single-entry insert attempt on one queue ended. The failure
/// variants hand the entry back so the caller can re-route it.
#[derive(Debug)]
pub enum InsertOutcome<V> {
    /// Inserted; carries the history stamp (0 when unstamped).
    Done(u64),
    /// Lock contended (try mode); entry returned.
    Contended(u64, V),
    /// Queue poisoned; entry returned for quarantine re-routing.
    Poisoned(u64, V),
}

/// How a single-entry dequeue attempt on one queue ended.
#[derive(Debug)]
pub enum DequeueOutcome<V> {
    /// Served `(priority, value, stamp)` (stamp 0 when unstamped).
    Served(u64, V, u64),
    /// The queue was acquired but empty (a stale hint).
    Empty,
    /// Lock contended (try mode).
    Contended,
    /// Queue poisoned; quarantine it and re-choose.
    Poisoned,
}

/// How a batch-insert attempt ended; failures return the items
/// iterator **unconsumed**.
#[derive(Debug)]
pub enum BatchPush<I> {
    /// All items inserted; carries the count.
    Done(usize),
    /// Lock contended (try mode); items returned.
    Contended(I),
    /// Queue poisoned; items returned.
    Poisoned(I),
}

/// How a batch-dequeue attempt ended (entries stream into the sink).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPop {
    /// At least one entry was served; carries the count.
    Served(usize),
    /// Acquired but empty.
    Empty,
    /// Lock contended (try mode).
    Contended,
    /// Queue poisoned.
    Poisoned,
}
