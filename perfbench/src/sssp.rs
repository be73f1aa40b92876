//! `sssp`: label-correcting single-source shortest paths over one shared
//! MultiQueue, the paper's motivating application.
//!
//! Queue operations alternate with memory-bound graph work (the CSR
//! graph and distance array are ~88 MB at 10⁶ nodes, far beyond the
//! per-core caches), and inserted priorities sit near the current
//! minimum. The workload engine is not involved.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use dlz_core::queue::policy::ChoicePolicy;
use dlz_core::rng::{Rng64, Xoshiro256};
use dlz_core::{ContentionStats, MqHandle};
use dlz_pq::{ConcurrentPq, SeqPriorityQueue};

use crate::trace::{finish_thread, span_if, start_thread, Trace};

/// Random out-edges per node (plus one ring edge keeping every node
/// reachable from node 0).
pub const DEGREE: usize = 8;
/// Edge weights are drawn from `1..=MAX_WEIGHT`.
pub const MAX_WEIGHT: u64 = 100;

/// Compressed sparse row graph with `u32` weights.
pub struct Graph {
    offsets: Vec<u32>,
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// `n` nodes, each with [`DEGREE`] uniform random out-edges and a
    /// ring edge to its successor; weights uniform in `1..=MAX_WEIGHT`.
    pub fn random(n: usize, seed: u64) -> Self {
        assert!(n >= 2 && n < u32::MAX as usize / (DEGREE + 1));
        let mut rng = Xoshiro256::new(seed);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(n * (DEGREE + 1));
        offsets.push(0);
        for u in 0..n {
            for _ in 0..DEGREE {
                let v = rng.bounded(n as u64) as u32;
                edges.push((v, 1 + rng.bounded(MAX_WEIGHT) as u32));
            }
            edges.push((((u + 1) % n) as u32, 1 + rng.bounded(MAX_WEIGHT) as u32));
            offsets.push(edges.len() as u32);
        }
        Graph { offsets, edges }
    }

    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    fn neighbours(&self, u: usize) -> &[(u32, u32)] {
        &self.edges[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// FNV-1a over the CSR arrays: equal digests mean equal graphs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        self.offsets.iter().for_each(|&o| h.word(o as u64));
        self.edges
            .iter()
            .for_each(|&(v, w)| h.word(((v as u64) << 32) | w as u64));
        h.0
    }
}

/// 64-bit FNV-1a, fed word by word.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Sequential Dijkstra with an exact binary heap: the reference the
/// concurrent solve must match. `u64::MAX` marks unreachable nodes.
pub fn dijkstra(g: &Graph, source: usize) -> Vec<u64> {
    let mut dist = vec![u64::MAX; g.num_nodes()];
    let mut heap = std::collections::BinaryHeap::new();
    dist[source] = 0;
    heap.push(Reverse((0u64, source as u32)));
    while let Some(Reverse((d, u))) = heap.pop() {
        let u = u as usize;
        if d > dist[u] {
            continue;
        }
        for &(v, w) in g.neighbours(u) {
            let nd = d + w as u64;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Counts of one concurrent solve.
#[derive(Debug, Default)]
pub struct Solve {
    pub seconds: f64,
    /// Successful dequeues (including stale entries that were skipped).
    pub pops: u64,
    pub pushes: u64,
    /// Dequeue calls, including the ones that found the queue empty
    /// while other workers still had work in flight.
    pub dequeue_calls: u64,
    pub contention: ContentionStats,
    /// The workers' spans (empty unless traced).
    pub trace: Trace,
}

/// One worker's access to the shared queue.
pub trait Handle {
    fn insert(&mut self, priority: u64, node: u32);
    fn dequeue(&mut self) -> Option<(u64, u32)>;
    /// The queue's contention counters for this worker, where it keeps
    /// any.
    fn take_contention(&mut self) -> ContentionStats {
        ContentionStats::default()
    }
}

impl<Q: SeqPriorityQueue<u64, u32> + Send, P: ChoicePolicy> Handle for MqHandle<'_, u32, Q, P> {
    fn insert(&mut self, priority: u64, node: u32) {
        MqHandle::insert(self, priority, node)
    }

    fn dequeue(&mut self) -> Option<(u64, u32)> {
        MqHandle::dequeue(self)
    }

    fn take_contention(&mut self) -> ContentionStats {
        MqHandle::take_contention(self)
    }
}

/// An exact shared queue (e.g. the coarse-locked baseline): every
/// worker calls the same structure.
pub struct Shared<'a, C>(pub &'a C);

impl<C: ConcurrentPq<u32>> Handle for Shared<'_, C> {
    fn insert(&mut self, priority: u64, node: u32) {
        self.0.insert(priority, node)
    }

    fn dequeue(&mut self) -> Option<(u64, u32)> {
        self.0.remove_min()
    }
}

/// Label-correcting SSSP from node 0 with `workers` threads sharing one
/// empty queue, worker `w` through `handle(w)` (`handle(workers)` seeds
/// the source). Pops may arrive out of priority order; entries whose
/// distance was since improved are skipped, so the result is exact for
/// any pop order. `dist` must hold `u64::MAX` everywhere on entry and
/// holds the distances on return. With `TRACE`, each loop iteration is
/// one `sssp.step` operation with `mq.dequeue` and `mq.insert` spans
/// inside it, and every `keep_every`-th step keeps its raw spans.
pub fn solve<H: Handle, const TRACE: bool>(
    g: &Graph,
    dist: &[AtomicU64],
    workers: usize,
    handle: impl Fn(usize) -> H + Sync,
    keep_every: u64,
) -> Solve {
    dist[0].store(0, Ordering::Relaxed);
    handle(workers).insert(0, 0);
    let in_flight = AtomicUsize::new(1);
    let barrier = std::sync::Barrier::new(workers + 1);
    let (handle, barrier, in_flight) = (&handle, &barrier, &in_flight);
    let mut total = Solve::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut h = handle(w);
                    let mut out = Solve::default();
                    if TRACE {
                        start_thread(w as u64, keep_every);
                    }
                    barrier.wait();
                    let mut done = false;
                    while !done {
                        done = span_if::<TRACE, _>("sssp.step", || {
                            out.dequeue_calls += 1;
                            let Some((d, u)) = span_if::<TRACE, _>("mq.dequeue", || h.dequeue())
                            else {
                                // Empty only counts as done once no
                                // worker holds an unfinished node.
                                std::hint::spin_loop();
                                return in_flight.load(Ordering::Acquire) == 0;
                            };
                            out.pops += 1;
                            let u = u as usize;
                            if d <= dist[u].load(Ordering::Relaxed) {
                                for &(v, w) in g.neighbours(u) {
                                    let nd = d + w as u64;
                                    let v = v as usize;
                                    let mut cur = dist[v].load(Ordering::Relaxed);
                                    while nd < cur {
                                        match dist[v].compare_exchange_weak(
                                            cur,
                                            nd,
                                            Ordering::Relaxed,
                                            Ordering::Relaxed,
                                        ) {
                                            Ok(_) => {
                                                in_flight.fetch_add(1, Ordering::AcqRel);
                                                span_if::<TRACE, _>("mq.insert", || {
                                                    h.insert(nd, v as u32)
                                                });
                                                out.pushes += 1;
                                                break;
                                            }
                                            Err(now) => cur = now,
                                        }
                                    }
                                }
                            }
                            in_flight.fetch_sub(1, Ordering::AcqRel);
                            false
                        });
                    }
                    out.contention = h.take_contention();
                    out.trace = finish_thread();
                    out
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            let o = h.join().expect("sssp worker panicked");
            total.pops += o.pops;
            total.pushes += o.pushes;
            total.dequeue_calls += o.dequeue_calls;
            total.contention.merge(&o.contention);
            total.trace.merge(o.trace);
        }
        total.seconds = t0.elapsed().as_secs_f64();
    });
    // The source's initial insert is a queue op too.
    total.pushes += 1;
    total
}

/// Number of mismatching nodes between a solve and the reference.
pub fn mismatches(dist: &[AtomicU64], reference: &[u64]) -> usize {
    dist.iter()
        .zip(reference)
        .filter(|(d, r)| d.load(Ordering::Relaxed) != **r)
        .count()
}

/// A fresh all-unreached distance array.
pub fn unreached(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(u64::MAX)).collect()
}

/// Resets a distance array to all-unreached.
pub fn reset(dist: &[AtomicU64]) {
    dist.iter()
        .for_each(|d| d.store(u64::MAX, Ordering::Relaxed));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mqmix::multiqueue;
    use crate::trace::{TracedHeap, TracedPolicy};
    use dlz_core::{MultiQueue, PolicyCfg};
    use dlz_pq::{BinaryHeap, CoarsePq};

    fn handles<'a, Q: SeqPriorityQueue<u64, u32> + Send, P: ChoicePolicy>(
        q: &'a MultiQueue<u32, Q>,
        policy: impl Fn() -> P + Sync + 'a,
    ) -> impl Fn(usize) -> MqHandle<'a, u32, Q, P> + Sync + 'a {
        move |w| MqHandle::with_policy(q, 100 + w as u64, policy())
    }

    #[test]
    fn concurrent_solve_matches_dijkstra_on_a_small_graph() {
        let g = Graph::random(2_000, 11);
        let reference = dijkstra(&g, 0);
        assert!(
            reference.iter().all(|&d| d != u64::MAX),
            "ring keeps all reachable"
        );
        let q = multiqueue(BinaryHeap::new);
        let dist = unreached(g.num_nodes());
        let s = solve::<_, false>(
            &g,
            &dist,
            2,
            handles(&q, || PolicyCfg::TwoChoice.build()),
            1,
        );
        assert_eq!(mismatches(&dist, &reference), 0);
        assert!(q.is_empty());
        assert_eq!(s.pops, s.pushes, "every pushed entry is popped once");
        assert!(s.pops >= g.num_nodes() as u64);
        // The exact baseline runs the same loop.
        let coarse = CoarsePq::new();
        reset(&dist);
        let s = solve::<_, false>(&g, &dist, 2, |_| Shared(&coarse), 1);
        assert_eq!(mismatches(&dist, &reference), 0);
        assert_eq!(s.pops, s.pushes);
    }

    #[test]
    fn same_seed_same_graph() {
        let a = Graph::random(1_000, 42);
        assert_eq!(a.digest(), Graph::random(1_000, 42).digest());
        assert_ne!(a.digest(), Graph::random(1_000, 43).digest());
        assert_eq!(a.num_edges(), 1_000 * (DEGREE + 1));
    }

    #[test]
    fn traced_layers_match_bare_layers_single_threaded() {
        // One worker, same seed: the traced heap and policy must make
        // the same choices and return the same elements as the bare
        // ones, so the solve takes the identical path.
        let g = Graph::random(3_000, 9);
        let bare = multiqueue(BinaryHeap::new);
        let traced = multiqueue(|| TracedHeap(BinaryHeap::new()));
        let (d1, d2) = (unreached(g.num_nodes()), unreached(g.num_nodes()));
        let s1 = solve::<_, false>(
            &g,
            &d1,
            1,
            handles(&bare, || PolicyCfg::TwoChoice.build()),
            1,
        );
        let s2 = solve::<_, true>(
            &g,
            &d2,
            1,
            handles(&traced, || TracedPolicy(PolicyCfg::TwoChoice.build())),
            1,
        );
        assert_eq!(mismatches(&d1, &dijkstra(&g, 0)), 0);
        assert_eq!(mismatches(&d2, &dijkstra(&g, 0)), 0);
        assert_eq!(
            (s1.pops, s1.pushes, s1.dequeue_calls),
            (s2.pops, s2.pushes, s2.dequeue_calls)
        );
        // ...and the trace saw every step and every queue call.
        assert_eq!(s2.trace.ops, s2.dequeue_calls);
        assert_eq!(s2.trace.agg("mq.dequeue").calls, s2.dequeue_calls);
        assert_eq!(s2.trace.agg("mq.insert").calls + 1, s2.pushes);
        assert!(
            s2.trace.agg("heap.pop").calls > 0 && s2.trace.agg("policy.choose_insert").calls > 0
        );
    }
}
