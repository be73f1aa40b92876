//! `tl2-relaxed`: TL2 with the paper's relaxed MultiCounter clock.
//!
//! 80% two-slot add transactions, 20% one-slot read-only transactions,
//! uniform slots over a 2²⁰-slot array. The 16 MB array has few
//! conflicts, so the clock's counter cells are the shared hot spot. No
//! MultiQueue code runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dlz_core::counter::MultiCounter;
use dlz_core::rng::{reseed_thread_rng, Rng64, Xoshiro256};
use dlz_stm::{ClockStrategy, RelaxedClock, Tl2, TxStats};

use crate::trace::{finish_thread, span_if, start_thread, Trace};

/// Transactional slots.
pub const SLOTS: usize = 1 << 20;
/// MultiCounter cells behind the clock.
pub const CLOCK_CELLS: usize = 4;
/// Percent of transactions that add to two slots; the rest read one.
pub const UPDATE_PERCENT: u64 = 80;

/// The clock as `StmBackend::relaxed` configures it:
/// m = 4 cells, Δ = `suggested_delta(4, 3.0)`.
pub fn relaxed_clock() -> RelaxedClock {
    RelaxedClock::new(
        MultiCounter::new(CLOCK_CELLS),
        RelaxedClock::suggested_delta(CLOCK_CELLS, 3.0),
    )
}

/// What one timed run did.
#[derive(Debug, Default)]
pub struct Run {
    /// Committed add transactions.
    pub adds: u64,
    /// Committed read-only transactions.
    pub reads: u64,
    pub stats: TxStats,
    pub seconds: f64,
    /// Sum over workers of their busy wall time.
    pub thread_ns: u64,
    pub trace: Trace,
}

impl Run {
    pub fn commits(&self) -> u64 {
        self.adds + self.reads
    }

    /// Committed transactions per second.
    pub fn rate(&self) -> f64 {
        self.commits() as f64 / self.seconds
    }
}

/// Runs the mix on `stm` with `workers` threads for `dur`. With
/// `TRACE`, each `TxThread::run` is one `tl2.tx` operation.
pub fn run<C: ClockStrategy, const TRACE: bool>(
    stm: &Tl2<C>,
    workers: usize,
    seed: u64,
    dur: Duration,
    keep_every: u64,
) -> Run {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(workers + 1);
    let slots = stm.array().len() as u64;
    let mut total = Run::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (stop, barrier) = (&stop, &barrier);
                s.spawn(move || {
                    let mut rng = Xoshiro256::new(seed ^ ((w as u64 + 1) << 40));
                    // The clock's MultiCounter draws from the thread
                    // generator; seed it too so the run is a function of
                    // the seed up to scheduling.
                    reseed_thread_rng(rng.next_u64());
                    let mut th = stm.thread();
                    let (mut adds, mut reads) = (0u64, 0u64);
                    if TRACE {
                        start_thread(w as u64, keep_every);
                    }
                    barrier.wait();
                    let t0 = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        let i = rng.bounded(slots) as usize;
                        if rng.bounded(100) < UPDATE_PERCENT {
                            let j = rng.bounded(slots) as usize;
                            span_if::<TRACE, _>("tl2.tx", || {
                                th.run(|tx| {
                                    tx.add(i, 1)?;
                                    tx.add(j, 1)
                                })
                            });
                            adds += 1;
                        } else {
                            let v = span_if::<TRACE, _>("tl2.tx", || th.run(|tx| tx.read(i)));
                            std::hint::black_box(v);
                            reads += 1;
                        }
                    }
                    let thread_ns = t0.elapsed().as_nanos() as u64;
                    (adds, reads, th.stats(), thread_ns, finish_thread())
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let (a, r, st, ns, t) = h.join().expect("tl2 worker panicked");
            total.adds += a;
            total.reads += r;
            total.stats.merge(&st);
            total.thread_ns += ns;
            total.trace.merge(t);
        }
        total.seconds = t0.elapsed().as_secs_f64();
    });
    total
}

/// The paper's conservation check: every committed add transaction
/// adds 1 to two slots, so the quiescent sum is twice their count.
pub fn conserved<C: ClockStrategy>(stm: &Tl2<C>, adds: u64) -> bool {
    stm.array().sum_quiescent() == 2 * adds as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TracedClock;

    #[test]
    fn run_conserves_and_counts() {
        let stm = Tl2::new(1 << 12, relaxed_clock());
        let r = run::<_, false>(&stm, 2, 1, Duration::from_millis(20), 1);
        assert!(r.commits() > 0 && r.rate() > 0.0);
        assert_eq!(r.stats.commits, r.commits());
        assert!(conserved(&stm, r.adds));
    }

    fn run_seq<C: ClockStrategy>(stm: &Tl2<C>) -> (Vec<u64>, u64, TxStats) {
        // The clock's counter draws its cells from the thread generator.
        reseed_thread_rng(5);
        let mut rng = Xoshiro256::new(4);
        let mut th = stm.thread();
        for _ in 0..5_000 {
            let (i, j) = (rng.bounded(64) as usize, rng.bounded(64) as usize);
            th.run(|tx| {
                tx.add(i, 1)?;
                tx.add(j, 1)
            });
        }
        (stm.array().snapshot(), th.tmax(), th.stats())
    }

    #[test]
    fn traced_clock_matches_bare_clock_single_threaded() {
        // Same seed, one worker, a fixed transaction sequence: the
        // traced clock hands out the same versions, so the array and
        // the thread's largest timestamp come out identical.
        let bare = Tl2::new(64, relaxed_clock());
        let traced = Tl2::new(64, TracedClock::new(relaxed_clock()));
        crate::trace::start_thread(0, 1);
        let b = run_seq(&bare);
        let t = run_seq(&traced);
        let trace = crate::trace::finish_thread();
        assert_eq!(b, t);
        assert!(conserved(&traced, 5_000));
        assert_eq!(trace.agg("clock.write_version").calls, 5_000);
        assert_eq!(
            trace.agg("clock.read_version").calls,
            b.2.attempts(),
            "one read version per attempt"
        );
        assert_eq!(
            traced.clock().on_abort_calls.load(Ordering::Relaxed),
            b.2.aborts
        );
    }
}
