//! # dlz-pq — the per-queue building blocks of the MultiQueue
//!
//! Sequential priority queues and the locking machinery used to turn them
//! into the "m linearizable priority queues" assumed by Algorithm 2 of
//! *Distributionally Linearizable Data Structures* (SPAA 2018).
//!
//! The crate provides:
//!
//! * [`SeqPriorityQueue`] — the sequential interface (`add`, `delete_min`,
//!   `read_min`) that the paper's MultiQueue builds on.
//! * [`BinaryHeap`] — its one implementation, an array-backed min-heap
//!   that breaks priority ties in FIFO order using an internal sequence
//!   number, which is what gives the MultiQueue its queue-like semantics
//!   when priorities are timestamps.
//! * [`Backoff`] — exponential spin-then-yield backoff for contended
//!   retry loops.
//! * [`CachePadded`] — 128-byte cache-line padding, shared with
//!   `dlz-core` so every hot word in the workspace uses one definition.
//! * [`LockedPq`] — a linearizable concurrent priority queue whose lock
//!   flag, generation and entry count are packed into a single atomic
//!   header word (see [`locked::header`]), cache-padded together with
//!   the published minimum hint so that readers can perform the
//!   *ReadMin* step of Algorithm 2 without taking the lock and without
//!   false sharing. It is the MultiQueue's only per-queue queue: its
//!   `attempt_*` methods make one acquisition each and report the
//!   [`outcome`] ([`InsertOutcome`], [`DequeueOutcome`], [`BatchPush`],
//!   [`BatchPop`]), drawing history stamps inside the critical section.
//! * [`CoarsePq`] — an exact concurrent priority queue (one global lock),
//!   used as the non-relaxed baseline in benchmarks.
//! * [`ContentionStats`] — plain-`u64`, single-owner hot-path counters
//!   recorded by the `*_with_stats` lock entry points and merged like
//!   worker metrics.
//!
//! Everything in this crate is deterministic given its seeds: there is no
//! global RNG and no dependence on wall-clock time.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod backoff;
pub mod binary_heap;
pub mod coarse;
pub mod locked;
pub mod outcome;
pub mod padded;
pub mod stats;
pub mod traits;

pub use backoff::Backoff;
pub use binary_heap::BinaryHeap;
pub use coarse::CoarsePq;
pub use locked::{Contended, LockedPq, Poisoned, PqGuard};
pub use outcome::{BatchPop, BatchPush, DequeueOutcome, InsertOutcome};
pub use padded::CachePadded;
pub use stats::ContentionStats;
pub use traits::{ConcurrentPq, SeqPriorityQueue};
