//! `mq-mix`: the MultiQueue under a 50/50 insert/dequeue closed loop.
//!
//! Part 1 goes through `dlz_workload::engine::run`, so the engine's
//! worker loop is measured with the queue. Part 2 is a stamped-history
//! run of the same configuration replayed once through the exact
//! checker, which yields the dequeue ranks and the audit cost. The
//! heaps hold ~10⁵ entries (~1.6 MB), so per-op synchronisation, the
//! choice policy and the engine loop dominate part 1.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dlz_core::queue::policy::ChoicePolicy;
use dlz_core::rng::{Rng64, Xoshiro256};
use dlz_core::spec::{check_distributional, History, PqOp, PqSpec, StampClock, ThreadLog};
use dlz_core::{ContentionStats, DeleteMode, MqHandle, MultiQueue, PolicyCfg, SubstrateCfg};
use dlz_pq::{BinaryHeap, SeqPriorityQueue};
use dlz_workload::backends::queue::RANK_BOUND_C;
use dlz_workload::backends::{ConcurrentPqBackend, MultiQueueBackend};
use dlz_workload::dist::Sampler;
use dlz_workload::op::{Op, OpKind, OpMix};
use dlz_workload::report::RunReport;
use dlz_workload::scenario::{Budget, Family, Scenario};
use dlz_workload::{Backend, Dist};

use crate::stats::{quantile_sorted, tail_percentile};
use crate::trace::{finish_thread, now_ns, span_if, start_thread, BenchBackend, Trace};

/// Internal queues (the paper's `m`).
pub const QUEUES: usize = 16;
/// Inserted priorities are uniform over `0..PRIORITIES`.
pub const PRIORITIES: u64 = 1 << 20;
/// Entries inserted before the measured loop starts.
pub const PREFILL: u64 = 100_000;
/// The engine times every this-many-th operation for latency; the rest
/// run without clock reads.
pub const LATENCY_EVERY: u32 = 16;

/// The part-1 scenario: `workers` closed-loop threads, 50/50 mix.
pub fn scenario(seed: u64, workers: usize, budget: Budget) -> Scenario {
    Scenario::builder("mq-mix", Family::Queue)
        .threads(workers)
        .budget(budget)
        .mix(OpMix::new(50, 50, 0))
        .priorities(Dist::Uniform { n: PRIORITIES })
        .prefill(PREFILL)
        .seed(seed)
        .quality_every(0)
        .latency_every(LATENCY_EVERY)
        .build()
}

/// The MultiQueue configuration every workload uses: m = 16 heaps,
/// two-choice, packed-lock substrate, strict delete.
pub fn multiqueue<V: Send, Q: SeqPriorityQueue<u64, V> + Send>(
    make: impl Fn() -> Q,
) -> MultiQueue<V, Q> {
    MultiQueue::with_substrate(
        (0..QUEUES).map(|_| make()).collect(),
        DeleteMode::Strict,
        PolicyCfg::TwoChoice,
        SubstrateCfg::Locked,
    )
}

/// The engine's per-worker stream seed (mirrors `dlz_workload::engine`,
/// so the bench can replay exactly the operations the engine issued).
pub fn stream_seed(base: u64, worker: usize, stream: u64) -> u64 {
    base ^ (worker as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (stream + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// The operation stream the engine draws for one worker of a scenario
/// (worker id `threads` is the prefill stream).
pub struct OpStream {
    mix: OpMix,
    keys: Sampler,
    priorities: Sampler,
    weights: Sampler,
    rng: Xoshiro256,
}

impl OpStream {
    pub fn new(sc: &Scenario, worker: usize) -> Self {
        let streams = sc.threads + 1;
        OpStream {
            mix: sc.mix,
            keys: sc.keys.sampler(worker, streams),
            priorities: sc.priorities.sampler(worker, streams),
            weights: sc.weights.sampler(worker, streams),
            rng: Xoshiro256::new(stream_seed(sc.seed, worker, 1)),
        }
    }

    /// The next measured operation.
    pub fn next_op(&mut self) -> Op {
        let kind = self
            .mix
            .pick(self.rng.bounded(self.mix.total() as u64) as u32);
        self.next_of(kind)
    }

    /// The next operation of a forced kind (prefill draws updates).
    pub fn next_of(&mut self, kind: OpKind) -> Op {
        let key = self.keys.draw(&mut self.rng);
        let (priority, weight) = if kind == OpKind::Update {
            let p = self.priorities.draw(&mut self.rng);
            (p, self.weights.draw(&mut self.rng).max(1))
        } else {
            (0, 1)
        };
        Op {
            kind,
            key,
            priority,
            weight,
        }
    }
}

/// One engine run (part 1).
pub struct EngineRun {
    pub report: RunReport,
    /// Backend construction plus the engine's prefill.
    pub setup_s: f64,
    /// Merged worker traces (empty unless traced).
    pub trace: Trace,
}

/// Runs part 1 once for `dur` on the MultiQueue, or with `exact` on
/// the coarse-locked exact baseline; traced when `keep_every` is set.
pub fn engine_run(
    seed: u64,
    workers: usize,
    dur: Duration,
    exact: bool,
    keep_every: Option<u64>,
) -> EngineRun {
    let sc = scenario(seed, workers, Budget::Timed(dur));
    let t0 = now_ns();
    let inner: Box<dyn Backend> = if exact {
        Box::new(ConcurrentPqBackend::coarse())
    } else {
        Box::new(MultiQueueBackend::heap_full(
            QUEUES,
            DeleteMode::Strict,
            PolicyCfg::TwoChoice,
            1,
            SubstrateCfg::Locked,
        ))
    };
    let bench = BenchBackend::new(inner.as_ref(), keep_every);
    let report = dlz_workload::run(&sc, &bench);
    EngineRun {
        setup_s: bench.first_worker_ns().saturating_sub(t0) as f64 / 1e9,
        trace: bench.take_trace(),
        report,
    }
}

/// The engine's op stream replayed through `MqHandle` from the bench,
/// so the queue's inner layers can be split where the engine hides
/// them.
#[derive(Debug, Default)]
pub struct Replay {
    pub ops: u64,
    /// Sum over workers of their busy wall time.
    pub thread_ns: u64,
    pub dequeue_calls: u64,
    pub dequeue_hits: u64,
    pub contention: ContentionStats,
    pub trace: Trace,
}

/// Prefills like the engine, then replays `ops_per_worker` operations
/// of each worker's stream. With `TRACE`, every handle call is an
/// operation root (`mq.insert` / `mq.dequeue`).
pub fn replay<Q, P, const TRACE: bool>(
    mq: &MultiQueue<u64, Q>,
    sc: &Scenario,
    ops_per_worker: u64,
    policy: impl Fn() -> P + Sync,
    keep_every: u64,
) -> Replay
where
    Q: SeqPriorityQueue<u64, u64> + Send,
    P: ChoicePolicy,
{
    let workers = sc.threads;
    {
        let mut h = MqHandle::with_policy(mq, stream_seed(sc.seed, workers, 0), policy());
        let mut s = OpStream::new(sc, workers);
        for _ in 0..sc.prefill {
            let p = s.next_of(OpKind::Update).priority;
            h.insert(p, p);
        }
    }
    let barrier = Barrier::new(workers);
    let (policy, barrier) = (&policy, &barrier);
    let mut total = Replay::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut h = MqHandle::with_policy(mq, stream_seed(sc.seed, w, 0), policy());
                    let mut ops = OpStream::new(sc, w);
                    let mut out = Replay::default();
                    if TRACE {
                        start_thread(w as u64, keep_every);
                    }
                    barrier.wait();
                    let t0 = Instant::now();
                    for _ in 0..ops_per_worker {
                        let op = ops.next_op();
                        if op.kind == OpKind::Update {
                            span_if::<TRACE, _>("mq.insert", || h.insert(op.priority, op.priority));
                        } else {
                            out.dequeue_calls += 1;
                            let got = span_if::<TRACE, _>("mq.dequeue", || h.dequeue());
                            out.dequeue_hits += u64::from(got.is_some());
                        }
                    }
                    out.thread_ns = t0.elapsed().as_nanos() as u64;
                    out.ops = ops_per_worker;
                    out.contention = h.take_contention();
                    out.trace = finish_thread();
                    out
                })
            })
            .collect();
        for h in handles {
            let o = h.join().expect("replay worker panicked");
            total.ops += o.ops;
            total.thread_ns += o.thread_ns;
            total.dequeue_calls += o.dequeue_calls;
            total.dequeue_hits += o.dequeue_hits;
            total.contention.merge(&o.contention);
            total.trace.merge(o.trace);
        }
    });
    total
}

/// Part 2: a stamped run replayed once through the exact checker.
#[derive(Debug, Default)]
pub struct Audit {
    /// Measured operations (prefill excluded).
    pub ops: u64,
    pub stamped_s: f64,
    pub replay_s: f64,
    pub events: usize,
    pub linearizable: bool,
    /// Exact ranks (strictly smaller priorities present) of the
    /// DeleteMin events only, ascending.
    pub ranks: Vec<f64>,
    /// The policy's rank envelope `RANK_BOUND_C · factor · m`.
    pub rank_bound: f64,
    /// Dequeues that found the structure empty (not recorded).
    pub empty: u64,
    pub trace: Trace,
}

impl Audit {
    /// Stamped run plus replay.
    pub fn seconds(&self) -> f64 {
        self.stamped_s + self.replay_s
    }

    pub fn rank_mean(&self) -> f64 {
        crate::trace::ratio(self.ranks.iter().sum(), self.ranks.len() as f64)
    }

    pub fn rank_p99(&self) -> f64 {
        quantile_sorted(&self.ranks, 0.99)
    }

    /// The highest percentile with ten ranks beyond it, and its value.
    pub fn rank_tail(&self) -> Option<(f64, f64)> {
        tail_percentile(self.ranks.len() as u64)
            .map(|p| (p, quantile_sorted(&self.ranks, p / 100.0)))
    }

    pub fn within_policy_bound(&self) -> bool {
        !self.ranks.is_empty() && self.rank_mean() <= self.rank_bound
    }
}

/// Runs `ops_total` stamped operations of the part-1 configuration
/// (after a stamped prefill, so the history is complete) and replays
/// the history once. With `TRACE`, each stamped operation is an
/// `audit.stamped_op` root and the replay a `checker.replay` root.
pub fn audit<const TRACE: bool>(
    seed: u64,
    workers: usize,
    ops_total: u64,
    keep_every: u64,
) -> Audit {
    let sc = scenario(
        seed,
        workers,
        Budget::OpsPerWorker(ops_total / workers as u64),
    );
    let per_worker = ops_total / workers as u64;
    let mq = multiqueue(BinaryHeap::new);
    let clock = StampClock::new();
    let mut logs = Vec::with_capacity(workers + 1);
    {
        let mut h = mq.handle(stream_seed(seed, workers, 0));
        let mut s = OpStream::new(&sc, workers);
        let mut log = ThreadLog::new(workers);
        for _ in 0..sc.prefill {
            let p = s.next_of(OpKind::Update).priority;
            log.record(&clock, || {
                let stamp = h.stamped(clock.as_atomic()).insert(p, p);
                (PqOp::Insert { priority: p }, stamp)
            });
        }
        logs.push(log);
    }
    let empty = AtomicU64::new(0);
    let barrier = Barrier::new(workers + 1);
    let mut out = Audit::default();
    let (clock_ref, empty_ref, barrier_ref, sc_ref, mq_ref) = (&clock, &empty, &barrier, &sc, &mq);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut h = mq_ref.handle(stream_seed(seed, w, 0));
                    let mut ops = OpStream::new(sc_ref, w);
                    let mut log = ThreadLog::new(w);
                    if TRACE {
                        start_thread(w as u64, keep_every);
                    }
                    barrier_ref.wait();
                    for _ in 0..per_worker {
                        let op = ops.next_op();
                        span_if::<TRACE, _>("audit.stamped_op", || {
                            if op.kind == OpKind::Update {
                                let p = op.priority;
                                log.record(clock_ref, || {
                                    let stamp = h.stamped(clock_ref.as_atomic()).insert(p, p);
                                    (PqOp::Insert { priority: p }, stamp)
                                });
                            } else {
                                let invoke = clock_ref.stamp();
                                match h.stamped(clock_ref.as_atomic()).dequeue() {
                                    Some((p, _, update)) => log.push(dlz_core::spec::Event {
                                        thread: w,
                                        label: PqOp::DeleteMin { removed: p },
                                        invoke,
                                        update,
                                        response: clock_ref.stamp(),
                                    }),
                                    None => {
                                        empty_ref.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        });
                    }
                    (log, finish_thread())
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            let (log, t) = h.join().expect("audit worker panicked");
            logs.push(log);
            out.trace.merge(t);
        }
        out.stamped_s = t0.elapsed().as_secs_f64();
    });
    if TRACE {
        start_thread(workers as u64, keep_every);
    }
    let t0 = Instant::now();
    let (history, outcome) = span_if::<TRACE, _>("checker.replay", || {
        let history = History::from_logs(logs);
        let outcome = check_distributional(&PqSpec, &history);
        (history, outcome)
    });
    out.replay_s = t0.elapsed().as_secs_f64();
    out.trace.merge(finish_thread());
    out.ops = per_worker * workers as u64;
    out.events = history.len();
    out.linearizable = outcome.is_linearizable();
    out.empty = empty.into_inner();
    out.rank_bound = RANK_BOUND_C * PolicyCfg::TwoChoice.envelope_factor() * QUEUES as f64;
    // With every event mapped, costs align one-to-one with the labels
    // in update order; inserts cost 0 by definition and are left out.
    if out.linearizable {
        out.ranks = history
            .labels_in_update_order()
            .iter()
            .zip(outcome.costs.samples())
            .filter(|(l, _)| matches!(l, PqOp::DeleteMin { .. }))
            .map(|(_, &c)| c)
            .collect();
        out.ranks.sort_by(|a, b| a.total_cmp(b));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::Fnv;
    use crate::trace::{TracedHeap, TracedPolicy};
    use dlz_workload::{QualityReport, Worker, WorkerCfg};
    use std::sync::Mutex;

    /// A backend that only records the operations the engine issues.
    struct Recorder(Mutex<Vec<(usize, Vec<Op>)>>);

    struct RecWorker<'a>(&'a Recorder, usize, Vec<Op>);

    impl Worker for RecWorker<'_> {
        fn execute(&mut self, op: &Op) -> bool {
            self.2.push(*op);
            true
        }
    }

    impl Drop for RecWorker<'_> {
        fn drop(&mut self) {
            let ops = std::mem::take(&mut self.2);
            self.0 .0.lock().unwrap().push((self.1, ops));
        }
    }

    impl Backend for Recorder {
        fn name(&self) -> String {
            "recorder".into()
        }
        fn family(&self) -> Family {
            Family::Queue
        }
        fn worker<'a>(&'a self, cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a> {
            Box::new(RecWorker(self, cfg.id, Vec::new()))
        }
        fn residual(&self) -> u64 {
            0
        }
        fn verify(&self, _: &dlz_workload::op::OpCounts) -> Result<(), String> {
            Ok(())
        }
        fn quality(&self) -> QualityReport {
            QualityReport::named("none")
        }
    }

    fn digest(ops: &[Op]) -> u64 {
        let mut h = Fnv::default();
        for op in ops {
            h.word(op.kind as u64);
            h.word(op.priority);
            h.word(op.key);
        }
        h.0
    }

    fn bench_stream(sc: &Scenario, worker: usize, n: u64) -> Vec<Op> {
        let mut s = OpStream::new(sc, worker);
        (0..n)
            .map(|_| {
                if worker == sc.threads {
                    s.next_of(OpKind::Update)
                } else {
                    s.next_op()
                }
            })
            .collect()
    }

    #[test]
    fn replayed_stream_is_the_engines_stream() {
        let mut sc = scenario(77, 2, Budget::OpsPerWorker(500));
        sc.prefill = 300;
        let rec = Recorder(Mutex::new(Vec::new()));
        dlz_workload::run(&sc, &rec);
        let mut seen = rec.0.into_inner().unwrap();
        seen.sort_by_key(|(id, _)| *id);
        assert_eq!(seen.len(), 3, "two workers plus the prefill worker");
        for (id, ops) in &seen {
            assert_eq!(
                digest(ops),
                digest(&bench_stream(&sc, *id, ops.len() as u64)),
                "worker {id}"
            );
        }
        assert_eq!(seen[2].1.len(), 300);
    }

    #[test]
    fn same_seed_same_op_stream() {
        let a = scenario(5, 2, Budget::OpsPerWorker(1));
        let b = scenario(6, 2, Budget::OpsPerWorker(1));
        let d = |sc: &Scenario, w| digest(&bench_stream(sc, w, 10_000));
        assert_eq!(d(&a, 0), d(&a, 0));
        assert_ne!(d(&a, 0), d(&a, 1));
        assert_ne!(d(&a, 0), d(&b, 0));
        let ops = bench_stream(&a, 0, 10_000);
        let inserts = ops.iter().filter(|o| o.kind == OpKind::Update).count();
        assert!((4_500..5_500).contains(&inserts), "50/50 mix: {inserts}");
        assert!(ops.iter().all(|o| o.priority < PRIORITIES));
    }

    #[test]
    fn traced_replay_matches_bare_replay_single_threaded() {
        let mut sc = scenario(3, 1, Budget::OpsPerWorker(1));
        sc.prefill = 1_000;
        let bare = multiqueue(BinaryHeap::new);
        let traced = multiqueue(|| TracedHeap(BinaryHeap::new()));
        let r1 = replay::<_, _, false>(&bare, &sc, 20_000, || PolicyCfg::TwoChoice.build(), 1);
        let r2 = replay::<_, _, true>(
            &traced,
            &sc,
            20_000,
            || TracedPolicy(PolicyCfg::TwoChoice.build()),
            7,
        );
        assert_eq!(r1.dequeue_hits, r2.dequeue_hits);
        assert_eq!(bare.drain_sorted(), traced.drain_sorted());
        assert_eq!(r2.trace.ops, 20_000);
        assert!(r2.trace.agg("heap.push").calls >= r2.trace.agg("mq.insert").calls);
        assert!(!r2.trace.kept.is_empty());
    }

    #[test]
    fn traced_engine_backend_matches_bare_backend_single_threaded() {
        // One worker and a fixed op budget: the engine run is a function
        // of the seed, so wrapping the backend must change nothing but
        // the recorded trace.
        let sc = scenario(21, 1, Budget::OpsPerWorker(20_000));
        let backend = || {
            MultiQueueBackend::heap_full(
                QUEUES,
                DeleteMode::Strict,
                PolicyCfg::TwoChoice,
                1,
                SubstrateCfg::Locked,
            )
        };
        let (bare, inner) = (backend(), backend());
        let r1 = dlz_workload::run(&sc, &bare);
        let wrapped = BenchBackend::new(&inner, Some(1));
        let r2 = dlz_workload::run(&sc, &wrapped);
        assert!(r1.verified() && r2.verified());
        assert_eq!(
            (
                r1.counts.updates,
                r1.counts.removes,
                r1.counts.removes_empty
            ),
            (
                r2.counts.updates,
                r2.counts.removes,
                r2.counts.removes_empty
            )
        );
        assert_eq!(
            bare.multiqueue().drain_sorted(),
            inner.multiqueue().drain_sorted()
        );
        let t = wrapped.take_trace();
        assert_eq!(t.ops, 20_000, "prefill is set-up, not traced");
        assert_eq!(t.agg("engine.execute").calls, 20_000);
        assert!(wrapped.first_worker_ns() != u64::MAX);
    }

    #[test]
    fn audit_ranks_cover_dequeues_only() {
        let a = audit::<false>(9, 2, 20_000, 1);
        assert!(a.linearizable);
        assert_eq!(a.events as u64, PREFILL + a.ops - a.empty);
        // Half the measured ops are dequeues; inserts are not ranks.
        let dequeues = a.ranks.len() as f64;
        assert!(
            (0.45..0.55).contains(&(dequeues / a.ops as f64)),
            "{dequeues}"
        );
        assert!(a.rank_mean() > 0.0 && a.within_policy_bound());
        assert!(a.rank_p99() >= a.rank_mean());
    }
}
