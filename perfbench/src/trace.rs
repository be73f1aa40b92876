//! Outside-in tracing: spans recorded by the benchmark's own wrappers
//! around the public entry points of each layer.
//!
//! Every span carries a name, start, end, the span that caused it and
//! the id of the operation it belongs to. A span opened while no other
//! span is open on the thread is an operation's root; its id numbers
//! the operation. When a root closes, the operation's spans are folded
//! into per-name totals (calls, duration, self time); the raw spans of
//! every `keep_every`-th operation stay in memory so a run can write
//! them out at the end without holding every span of a multi-second run.
//!
//! Tracing is per thread and off unless [`start_thread`] installed a
//! recorder, so the untraced benchmark records nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use dlz_core::queue::policy::{ChoiceOp, ChoicePolicy, QueueView};
use dlz_core::rng::Rng64;
use dlz_core::spec::HistoryArtifact;
use dlz_core::ContentionStats;
use dlz_pq::SeqPriorityQueue;
use dlz_stm::{AbortReason, ClockStrategy};
use dlz_workload::metrics::TelemetrySample;
use dlz_workload::op::{Op, OpCounts};
use dlz_workload::scenario::Family;
use dlz_workload::{Backend, QualityReport, Worker, WorkerCfg};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's first call (the span time base).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Thread-qualified operation id (`thread << 40 | sequence`).
    pub op: u64,
    /// Layer entry point, e.g. `heap.push`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
    /// Index of the causing span within the same operation.
    pub parent: Option<u32>,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    fn add(&mut self, o: &Agg) {
        self.calls += o.calls;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
    }

    /// Mean duration per call.
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns as f64, self.calls as f64)
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What one thread (or a merge of threads) recorded.
#[derive(Debug, Default)]
pub struct Trace {
    /// Completed operations (closed root spans).
    pub ops: u64,
    /// Per-name totals, in first-seen order.
    pub spans: Vec<(&'static str, Agg)>,
    /// Per-name value sums: (samples, sum).
    pub gauges: Vec<(&'static str, (u64, f64))>,
    /// Raw spans of every `keep_every`-th operation.
    pub kept: Vec<Span>,
}

fn slot<'a, T: Default>(v: &'a mut Vec<(&'static str, T)>, name: &'static str) -> &'a mut T {
    let i = match v.iter().position(|(n, _)| *n == name) {
        Some(i) => i,
        None => {
            v.push((name, T::default()));
            v.len() - 1
        }
    };
    &mut v[i].1
}

impl Trace {
    /// Totals for `name` (zero if never recorded).
    pub fn agg(&self, name: &str) -> Agg {
        self.spans
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a)
            .unwrap_or_default()
    }

    /// Mean of gauge `name` (zero if never sampled).
    pub fn gauge_mean(&self, name: &str) -> f64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, (c, s))| ratio(*s, *c as f64))
    }

    /// Folds another thread's trace into this one.
    pub fn merge(&mut self, o: Trace) {
        self.ops += o.ops;
        for (n, a) in &o.spans {
            slot(&mut self.spans, n).add(a);
        }
        for (n, (c, s)) in &o.gauges {
            let g = slot(&mut self.gauges, n);
            g.0 += c;
            g.1 += s;
        }
        self.kept.extend(o.kept);
    }

    /// Sum of self time over the named spans.
    pub fn self_ns(&self, names: &[&str]) -> u64 {
        names.iter().map(|n| self.agg(n).self_ns).sum()
    }

    /// The kept spans as tab-separated lines:
    /// `op name start end parent` (parent `-` for roots).
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("op\tname\tstart_ns\tend_ns\tparent\n");
        for s in &self.kept {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                s.op, s.name, s.start, s.end, parent
            ));
        }
        out
    }
}

/// Self time of every span of one operation: its duration minus the
/// union of its children's intervals, clipped to its own interval.
/// Children may nest or overlap; each covered nanosecond counts once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end.saturating_sub(s.start);
            dur - covered(s.start, s.end, kids).min(dur)
        })
        .collect()
}

/// Length of the union of `intervals` within `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

struct Recorder {
    thread: u64,
    keep_every: u64,
    open: Vec<u32>,
    cur: Vec<Span>,
    trace: Trace,
}

impl Recorder {
    fn enter(&mut self, name: &'static str) -> u32 {
        let idx = self.cur.len() as u32;
        self.cur.push(Span {
            op: (self.thread << 40) | self.trace.ops,
            name,
            start: now_ns(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    fn exit(&mut self, idx: u32) {
        self.cur[idx as usize].end = now_ns();
        self.open.pop();
        if self.open.is_empty() {
            let selfs = self_times(&self.cur);
            for (s, own) in self.cur.iter().zip(selfs) {
                let a = slot(&mut self.trace.spans, s.name);
                a.calls += 1;
                a.total_ns += s.end - s.start;
                a.self_ns += own;
            }
            if self.trace.ops.is_multiple_of(self.keep_every) {
                self.trace.kept.append(&mut self.cur);
            }
            self.cur.clear();
            self.trace.ops += 1;
        }
    }
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turns tracing on for the calling thread.
pub fn start_thread(thread: u64, keep_every: u64) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            thread,
            keep_every: keep_every.max(1),
            open: Vec::new(),
            cur: Vec::new(),
            trace: Trace::default(),
        })
    });
}

/// Turns tracing off for the calling thread and returns what it
/// recorded (empty if it was never on).
pub fn finish_thread() -> Trace {
    REC.with(|r| r.borrow_mut().take())
        .map(|r| r.trace)
        .unwrap_or_default()
}

/// Runs `f` inside a span named `name` (just runs it when the thread is
/// not tracing).
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| r.borrow_mut().as_mut().map(|rec| rec.enter(name)));
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.exit(idx);
            }
        });
    }
    out
}

/// [`span`] when `ON`, a plain call otherwise: the untraced benchmark
/// instantiates its loops with `ON = false` and pays nothing.
#[inline(always)]
pub fn span_if<const ON: bool, R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if ON {
        span(name, f)
    } else {
        f()
    }
}

/// Adds one sample to gauge `name` (no-op when not tracing).
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let g = slot(&mut rec.trace.gauges, name);
            g.0 += 1;
            g.1 += value;
        }
    });
}

/// Sequential heap wrapper: spans `heap.push` / `heap.pop` and samples
/// the heap's length (`heap.len`) at each.
#[derive(Debug, Default)]
pub struct TracedHeap<H>(pub H);

impl<V, H: SeqPriorityQueue<u64, V>> SeqPriorityQueue<u64, V> for TracedHeap<H> {
    fn add(&mut self, priority: u64, value: V) {
        gauge("heap.len", self.0.len() as f64);
        span("heap.push", || self.0.add(priority, value))
    }

    fn delete_min(&mut self) -> Option<(u64, V)> {
        gauge("heap.len", self.0.len() as f64);
        span("heap.pop", || self.0.delete_min())
    }

    fn read_min(&self) -> Option<(&u64, &V)> {
        self.0.read_min()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn clear(&mut self) {
        self.0.clear()
    }
}

/// Choice-policy wrapper: spans `policy.choose_insert` /
/// `policy.choose_dequeue`; every other hook passes straight through.
#[derive(Debug, Clone)]
pub struct TracedPolicy<P>(pub P);

impl<P: ChoicePolicy> ChoicePolicy for TracedPolicy<P> {
    fn choose_insert(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> usize {
        span("policy.choose_insert", || self.0.choose_insert(rng, view))
    }

    fn choose_dequeue(&mut self, rng: &mut impl Rng64, view: &impl QueueView) -> Option<usize> {
        span("policy.choose_dequeue", || self.0.choose_dequeue(rng, view))
    }

    fn on_success(&mut self, op: ChoiceOp, queue: usize, view: &impl QueueView) {
        self.0.on_success(op, queue, view)
    }

    fn on_contention(&mut self, op: ChoiceOp, queue: usize) {
        self.0.on_contention(op, queue)
    }

    fn on_poisoned(&mut self, op: ChoiceOp, queue: usize) {
        self.0.on_poisoned(op, queue)
    }

    fn envelope_factor(&self) -> f64 {
        self.0.envelope_factor()
    }

    fn flush_telemetry(&mut self, stats: &mut ContentionStats) {
        self.0.flush_telemetry(stats)
    }
}

/// TL2 clock wrapper: spans `clock.read_version` /
/// `clock.write_version` and counts `on_abort` calls.
#[derive(Debug)]
pub struct TracedClock<C> {
    pub inner: C,
    pub on_abort_calls: AtomicU64,
}

impl<C> TracedClock<C> {
    pub fn new(inner: C) -> Self {
        TracedClock {
            inner,
            on_abort_calls: AtomicU64::new(0),
        }
    }
}

impl<C: ClockStrategy> ClockStrategy for TracedClock<C> {
    fn read_version(&self, tmax: u64) -> u64 {
        span("clock.read_version", || self.inner.read_version(tmax))
    }

    fn write_version(&self, tmax: u64, max_old_version: u64) -> u64 {
        span("clock.write_version", || {
            self.inner.write_version(tmax, max_old_version)
        })
    }

    fn is_exact(&self) -> bool {
        self.inner.is_exact()
    }

    fn on_abort(&self, reason: AbortReason) {
        self.on_abort_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.on_abort(reason)
    }
}

/// Engine-facing backend wrapper. It notes when the engine creates its
/// first measured worker, which ends the engine's set-up (backend
/// construction and prefill). With `keep_every` set, each measured
/// worker also traces its thread with `engine.execute` as the operation
/// root and hands its trace back when the engine drops it; without it
/// the engine gets the bare workers.
pub struct BenchBackend<'b> {
    inner: &'b dyn Backend,
    keep_every: Option<u64>,
    traces: Mutex<Vec<Trace>>,
    first_worker_ns: AtomicU64,
}

impl<'b> BenchBackend<'b> {
    pub fn new(inner: &'b dyn Backend, keep_every: Option<u64>) -> Self {
        BenchBackend {
            inner,
            keep_every,
            traces: Mutex::new(Vec::new()),
            first_worker_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// When (in [`now_ns`] time) the first measured worker was created.
    pub fn first_worker_ns(&self) -> u64 {
        self.first_worker_ns.load(Ordering::Relaxed)
    }

    /// Every measured worker's trace, merged.
    pub fn take_trace(&self) -> Trace {
        let mut all = Trace::default();
        for t in std::mem::take(&mut *self.traces.lock().expect("trace sink poisoned")) {
            all.merge(t);
        }
        all
    }
}

struct TracedWorker<'a> {
    inner: Box<dyn Worker + Send + 'a>,
    thread: u64,
    keep_every: u64,
    started: bool,
    sink: &'a Mutex<Vec<Trace>>,
}

impl Worker for TracedWorker<'_> {
    fn execute(&mut self, op: &Op) -> bool {
        if !self.started {
            // Installed lazily: the engine builds workers on its own
            // thread and moves them onto the worker threads.
            start_thread(self.thread, self.keep_every);
            self.started = true;
        }
        span("engine.execute", || self.inner.execute(op))
    }

    fn finish(&mut self) {
        self.inner.finish()
    }

    fn telemetry_sample(&mut self) -> Option<TelemetrySample> {
        self.inner.telemetry_sample()
    }
}

impl Drop for TracedWorker<'_> {
    fn drop(&mut self) {
        if self.started {
            let t = finish_thread();
            if let Ok(mut sink) = self.sink.lock() {
                sink.push(t);
            }
        }
    }
}

impl Backend for BenchBackend<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn family(&self) -> Family {
        self.inner.family()
    }

    fn worker<'a>(&'a self, cfg: WorkerCfg) -> Box<dyn Worker + Send + 'a> {
        let inner = self.inner.worker(cfg);
        // The engine's prefill worker has id == threads: set-up, not
        // measured work.
        if cfg.id >= cfg.threads {
            return inner;
        }
        self.first_worker_ns.fetch_min(now_ns(), Ordering::Relaxed);
        match self.keep_every {
            None => inner,
            Some(keep_every) => Box::new(TracedWorker {
                inner,
                thread: cfg.id as u64,
                keep_every,
                started: false,
                sink: &self.traces,
            }),
        }
    }

    fn residual(&self) -> u64 {
        self.inner.residual()
    }

    fn verify(&self, counts: &OpCounts) -> Result<(), String> {
        self.inner.verify(counts)
    }

    fn quality(&self) -> QualityReport {
        self.inner.quality()
    }

    fn take_history_artifact(&self) -> Option<HistoryArtifact> {
        self.inner.take_history_artifact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            op: 0,
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); c [50,60) under root.
        let spans = [
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 15, 25, Some(1)),
            sp("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        // Self times of a properly nested tree add up to the root span.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,40) and [30,50) overlap on [30,40): covered 40.
        // A child poking out of its parent is clipped to the parent.
        let spans = [
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 30, 50, Some(0)),
            sp("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
        // A child identical to the parent leaves no self time, and a
        // zero-length child takes none.
        let spans = [
            sp("root", 5, 9, None),
            sp("a", 5, 9, Some(0)),
            sp("b", 7, 7, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 4, 0]);
    }

    #[test]
    fn recorder_folds_operations_and_keeps_every_nth() {
        start_thread(3, 2);
        for _ in 0..5 {
            span("op", || {
                span("inner", || std::hint::black_box(1 + 1));
                gauge("g", 2.0);
            });
        }
        // Outside any tracing thread, span is a plain call.
        let t = finish_thread();
        assert_eq!(span("op", || 7), 7);
        assert_eq!(t.ops, 5);
        assert_eq!(t.agg("op").calls, 5);
        assert_eq!(t.agg("inner").calls, 5);
        let op = t.agg("op");
        assert_eq!(op.self_ns + t.agg("inner").self_ns, op.total_ns);
        assert_eq!(t.gauge_mean("g"), 2.0);
        // Operations 0, 2 and 4 kept, two spans each, ids thread-tagged.
        assert_eq!(t.kept.len(), 6);
        assert_eq!(t.kept[2].op, (3 << 40) | 2);
        assert_eq!(t.kept[3].parent, Some(0));
    }
}
