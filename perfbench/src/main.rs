//! The repository benchmark: three closed-loop workloads, end-to-end
//! metrics measured with tracing off, and a separate traced run that
//! splits each workload's time by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sssp|mq-mix|tl2-relaxed --seed N --seconds S --trace 0|1 [--spans FILE]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --list
//! ```
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). The line before it carries the
//! host fingerprint and the workload's own figures; a table goes to
//! standard error. A failed output check counts every operation of the
//! run as failed and exits with status 1.

mod mqmix;
mod sssp;
mod stats;
mod tl2;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dlz_core::{MqHandle, MultiQueue, PolicyCfg};
use dlz_pq::{BinaryHeap, CoarsePq};
use dlz_stm::{ExactClock, Tl2};

use stats::{median, Fingerprint};
use trace::{ratio, Trace, TracedClock, TracedHeap, TracedPolicy};

/// End-to-end metrics: (name, unit, meaning per workload).
const END_TO_END: [(&str, &str, &str); 3] = [
    (
        "setup_s",
        "s",
        "input generation before timing (median of repeated set-ups): graph plus reference \
         Dijkstra / MultiQueue plus 10^5 prefill / TL2 array allocation and first touch",
    ),
    (
        "speedup",
        "x",
        "throughput of the relaxed structure over the paper's exact baseline on the same \
         input, median over interleaved pairs: SSSP solve time on the coarse-locked exact \
         queue over that on the MultiQueue / engine Mops of the MultiQueue over the \
         coarse-locked queue / committed tx/s of TL2 with the MultiCounter clock over TL2 \
         with the exact fetch-and-add clock",
    ),
    (
        "relax_cost",
        "ratio",
        "work per result that relaxation costs: dequeues per reachable node / 1 + mean exact \
         DeleteMin rank from the audited replay / attempts per committed transaction",
    ),
];

/// Per-layer metrics of the traced run: (name, unit). Layers a
/// workload does not run report 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("heap.push_ns", "ns"),
    ("heap.pop_ns", "ns"),
    ("heap.len_mean", "count"),
    ("policy.choose_insert_ns", "ns"),
    ("policy.choose_dequeue_ns", "ns"),
    ("mq.insert_ns", "ns"),
    ("mq.dequeue_ns", "ns"),
    ("mq.self_ns", "ns"),
    ("mq.dequeue_hit_ratio", "ratio"),
    ("mq.try_lock_failures", "1/op"),
    ("mq.cas_retries", "1/op"),
    ("mq.backoff_spins", "1/op"),
    ("mq.empty_confirms", "1/op"),
    ("sssp.relax_ns", "ns"),
    ("sssp.mq_share", "ratio"),
    ("engine.execute_ns", "ns"),
    ("engine.loop_self_ns", "ns"),
    ("audit.stamped_op_ns", "ns"),
    ("checker.replay_s", "s"),
    ("checker.ns_per_event", "ns"),
    ("checker.events", "count"),
    ("tl2.tx_ns", "ns"),
    ("tl2.tx_self_ns", "ns"),
    ("tl2.commits_per_attempt", "ratio"),
    ("tl2.aborts.locked_read", "count"),
    ("tl2.aborts.future_version", "count"),
    ("tl2.aborts.inconsistent_read", "count"),
    ("tl2.aborts.lock_busy", "count"),
    ("tl2.aborts.read_validation", "count"),
    ("tl2.aborts.user", "count"),
    ("clock.read_version_ns", "ns"),
    ("clock.write_version_ns", "ns"),
    ("clock.on_abort_calls", "count"),
    ("counter.max_read_error", "count"),
    ("split.e2e_ns", "ns"),
    ("split.sssp_ns", "ns"),
    ("split.mq_ns", "ns"),
    ("split.policy_ns", "ns"),
    ("split.heap_ns", "ns"),
    ("split.engine_ns", "ns"),
    ("split.tl2_ns", "ns"),
    ("split.clock_ns", "ns"),
    ("split.residual_ns", "ns"),
    ("split.untraced_ns", "ns"),
    ("split.overhead_ns", "ns"),
    ("replay.e2e_ns", "ns"),
    ("replay.mq_ns", "ns"),
    ("replay.policy_ns", "ns"),
    ("replay.heap_ns", "ns"),
    ("replay.residual_ns", "ns"),
];

const WORKLOADS: [(&str, &str); 3] = [
    (
        "sssp",
        "label-correcting SSSP on a seeded 10^6-node graph over one MultiQueue: queue ops \
         alternate with ~88 MB of memory-bound graph work",
    ),
    (
        "mq-mix",
        "engine closed loop, 50/50 insert/dequeue on the MultiQueue (heaps fit in L2), then a \
         stamped run replayed through the exact checker",
    ),
    (
        "tl2-relaxed",
        "TL2 with the MultiCounter clock over 2^20 slots: few conflicts, so the clock cells are \
         the shared hot spot; no MultiQueue code",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1> [--spans FILE]\n       perfbench --list",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds {val}: must be in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: must be 0 or 1")),
                }
            }
            "--spans" => a.spans = Some(val.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.0 == a.workload) {
        return Err(format!("unknown or missing --workload '{}'", a.workload));
    }
    Ok(Some(a))
}

/// What a workload run produces.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    /// End-to-end (untraced) or per-layer (traced) values by name.
    metrics: BTreeMap<&'static str, f64>,
    /// The workload's own figures, for the report line.
    figures: Vec<(&'static str, String)>,
    /// Why the output check failed, if it did.
    failures: Vec<String>,
    trace: Trace,
}

impl Outcome {
    fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    fn figure(&mut self, name: &'static str, v: impl std::fmt::Display) {
        self.figures.push((name, v.to_string()));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// SplitMix64 finaliser: spreads small command-line seeds over the state space.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The additive breakdowns a traced run reports: (total, residual).
const SPLIT: (&str, &str) = ("split.e2e_ns", "split.residual_ns");
const REPLAY: (&str, &str) = ("replay.e2e_ns", "replay.residual_ns");

/// Sets the per-op self time of each layer, the traced per-op time
/// `e2e_ns` and the residual that makes the layers add up to it.
fn split(
    o: &mut Outcome,
    (e2e, residual): (&'static str, &'static str),
    e2e_ns: f64,
    ops: u64,
    layers: &[(&'static str, u64)],
) {
    let mut sum = 0.0;
    for &(name, self_ns) in layers {
        let v = ratio(self_ns as f64, ops as f64);
        sum += v;
        o.set(name, v);
    }
    o.set(e2e, e2e_ns);
    o.set(residual, e2e_ns - sum);
}

fn mq_layer_metrics(o: &mut Outcome, t: &Trace, mq_ops: u64, c: &dlz_core::ContentionStats) {
    let (ins, deq) = (t.agg("mq.insert"), t.agg("mq.dequeue"));
    o.set("heap.push_ns", t.agg("heap.push").mean_ns());
    o.set("heap.pop_ns", t.agg("heap.pop").mean_ns());
    o.set("heap.len_mean", t.gauge_mean("heap.len"));
    o.set(
        "policy.choose_insert_ns",
        t.agg("policy.choose_insert").mean_ns(),
    );
    o.set(
        "policy.choose_dequeue_ns",
        t.agg("policy.choose_dequeue").mean_ns(),
    );
    o.set("mq.insert_ns", ins.mean_ns());
    o.set("mq.dequeue_ns", deq.mean_ns());
    o.set(
        "mq.self_ns",
        ratio((ins.self_ns + deq.self_ns) as f64, mq_ops as f64),
    );
    let per_op = |v: u64| ratio(v as f64, mq_ops as f64);
    o.set("mq.try_lock_failures", per_op(c.try_lock_failures));
    o.set("mq.cas_retries", per_op(c.cas_retries));
    o.set("mq.backoff_spins", per_op(c.backoff_spins));
    o.set("mq.empty_confirms", per_op(c.empty_confirms));
}

const SSSP_NODES: usize = 1_000_000;
/// Set-up runs this many times in an untraced run; the median counts.
const SETUP_REPEATS: usize = 3;
/// Traced runs keep the raw spans of every this-many-th operation.
const KEEP_EVERY: u64 = 1024;

/// Worker `w`'s handle on an SSSP MultiQueue.
fn mq_handles<'q>(
    q: &'q MultiQueue<u32>,
    seed: u64,
) -> impl Fn(usize) -> MqHandle<'q, u32> + Sync + 'q {
    move |w| q.handle(seed ^ ((w as u64 + 1) << 32))
}

fn run_sssp(a: &Args, workers: usize) -> Outcome {
    let mut o = Outcome::default();
    let seed = mix_seed(a.seed, 1);
    let mut setups = Vec::new();
    let setup = || {
        let g = sssp::Graph::random(SSSP_NODES, seed);
        let reference = sssp::dijkstra(&g, 0);
        (g, reference)
    };
    for _ in 1..if a.trace { 1 } else { SETUP_REPEATS } {
        let t = Instant::now();
        drop(std::hint::black_box(setup()));
        setups.push(secs(t));
    }
    let t = Instant::now();
    let (g, reference) = setup();
    setups.push(secs(t));
    let reachable = reference.iter().filter(|&&d| d != u64::MAX).count() as u64;
    let dist = sssp::unreached(g.num_nodes());
    o.figure("graph_digest", format!("{:016x}", g.digest()));
    o.figure("edges", g.num_edges());
    // One MultiQueue solve and one exact (coarse-locked) solve per pair,
    // in alternating order so drift in machine speed hits both sides.
    let begin = Instant::now();
    let (mut speedups, mut cost, mut mq_times, mut exact_times) = (vec![], vec![], vec![], vec![]);
    let mut pair = 0u64;
    let untraced_step_ns = loop {
        let mut step_ns = 0.0;
        for exact in [pair % 2 == 1, pair % 2 != 1] {
            sssp::reset(&dist);
            let s = if exact {
                let q = CoarsePq::with_capacity(g.num_nodes());
                sssp::solve::<_, false>(&g, &dist, workers, |_| sssp::Shared(&q), 1)
            } else {
                let q = mqmix::multiqueue(BinaryHeap::new);
                sssp::solve::<_, false>(&g, &dist, workers, mq_handles(&q, seed ^ pair), 1)
            };
            let bad = sssp::mismatches(&dist, &reference);
            o.check(bad == 0, || {
                format!("pair {pair} (exact={exact}): {bad} distances differ from Dijkstra")
            });
            o.attempted += s.dequeue_calls + s.pushes;
            if exact {
                exact_times.push(s.seconds);
            } else {
                mq_times.push(s.seconds);
                cost.push(s.pops as f64 / reachable as f64);
                step_ns = s.seconds * workers as f64 * 1e9 / s.dequeue_calls as f64;
            }
        }
        speedups.push(exact_times[exact_times.len() - 1] / mq_times[mq_times.len() - 1]);
        pair += 1;
        // Untraced: pairs until the time is used (at least three for a
        // median). Traced: one pair gives the untraced baseline.
        if a.trace || (secs(begin) >= a.seconds && pair >= 3) {
            break step_ns;
        }
    };
    o.figure("pairs", pair);
    o.figure("pair_speedups", format!("{:.3?}", speedups));
    o.figure("sssp_s", median(&mq_times));
    o.figure("sssp_exact_s", median(&exact_times));
    o.figure("sssp_pops_per_node", median(&cost));
    if !a.trace {
        o.set("setup_s", median(&setups));
        o.set("speedup", median(&speedups));
        o.set("relax_cost", median(&cost));
        return o;
    }
    sssp::reset(&dist);
    let q = mqmix::multiqueue(|| TracedHeap(BinaryHeap::new()));
    let handles = |w: usize| {
        MqHandle::with_policy(
            &q,
            seed ^ ((w as u64 + 1) << 32),
            TracedPolicy(PolicyCfg::TwoChoice.build()),
        )
    };
    let s = sssp::solve::<_, true>(&g, &dist, workers, handles, KEEP_EVERY);
    let bad = sssp::mismatches(&dist, &reference);
    o.check(bad == 0, || {
        format!("traced solve: {bad} distances differ from Dijkstra")
    });
    o.attempted += s.dequeue_calls + s.pushes;
    let t = &s.trace;
    let steps = t.ops;
    let e2e = s.seconds * workers as f64 * 1e9 / steps as f64;
    mq_layer_metrics(
        &mut o,
        t,
        t.agg("mq.dequeue").calls + t.agg("mq.insert").calls,
        &s.contention,
    );
    o.set(
        "mq.dequeue_hit_ratio",
        ratio(s.pops as f64, s.dequeue_calls as f64),
    );
    o.set(
        "sssp.relax_ns",
        ratio(t.agg("sssp.step").self_ns as f64, steps as f64),
    );
    let mq_total = t.agg("mq.dequeue").total_ns + t.agg("mq.insert").total_ns;
    o.set(
        "sssp.mq_share",
        ratio(mq_total as f64, s.seconds * workers as f64 * 1e9),
    );
    split(
        &mut o,
        SPLIT,
        e2e,
        steps,
        &[
            ("split.sssp_ns", t.agg("sssp.step").self_ns),
            ("split.mq_ns", t.self_ns(&["mq.insert", "mq.dequeue"])),
            (
                "split.policy_ns",
                t.self_ns(&["policy.choose_insert", "policy.choose_dequeue"]),
            ),
            ("split.heap_ns", t.self_ns(&["heap.push", "heap.pop"])),
        ],
    );
    o.set("split.untraced_ns", untraced_step_ns);
    o.set("split.overhead_ns", e2e - untraced_step_ns);
    o.trace = s.trace;
    o
}

/// Share of `--seconds` given to the timed engine runs; the stamped
/// audit takes most of the rest.
const ENGINE_SHARE: f64 = 0.75;
/// Length of one engine run; MultiQueue and exact runs alternate.
const ENGINE_SLICE: Duration = Duration::from_millis(250);
const AUDIT_OPS: u64 = 2_000_000;
const REPLAY_OPS_PER_WORKER: u64 = 1_000_000;

fn run_mq_mix(a: &Args, workers: usize) -> Outcome {
    let mut o = Outcome::default();
    let seed = mix_seed(a.seed, 2);
    // Traced: one pair for the untraced baseline, then one traced run
    // of the same length.
    let pairs = if a.trace {
        1
    } else {
        ((a.seconds * ENGINE_SHARE / (2.0 * ENGINE_SLICE.as_secs_f64())).round() as usize).max(3)
    };
    let dur = if a.trace {
        Duration::from_secs_f64(a.seconds * ENGINE_SHARE / 3.0)
    } else {
        ENGINE_SLICE
    };
    let (mut speedups, mut mq_mops, mut exact_mops, mut setups, mut p99s) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut samples = 0u64;
    let mut untraced_ns = 0.0;
    for p in 0..pairs {
        let mut pair = [0.0; 2];
        for exact in [p % 2 == 1, p % 2 != 1] {
            let e = mqmix::engine_run(seed ^ p as u64, workers, dur, exact, None);
            o.check(e.report.verified(), || {
                format!("pair {p} (exact={exact}): {:?}", e.report.verify_error)
            });
            o.attempted += e.report.total_ops();
            pair[usize::from(exact)] = e.report.mops();
            if !exact {
                setups.push(e.setup_s);
                p99s.push(e.report.latency.p99_ns as f64);
                samples += e.report.total_ops() / mqmix::LATENCY_EVERY as u64;
                untraced_ns = e.report.elapsed.as_secs_f64() * workers as f64 * 1e9
                    / e.report.total_ops() as f64;
            }
        }
        mq_mops.push(pair[0]);
        exact_mops.push(pair[1]);
        speedups.push(pair[0] / pair[1]);
    }
    o.figure("pair_speedups", format!("{:.3?}", speedups));
    o.figure("mq_mops", median(&mq_mops));
    o.figure("exact_mops", median(&exact_mops));
    o.figure("mq_p99_ns", median(&p99s));
    o.figure("mq_latency_samples", samples);
    o.figure(
        "mq_tail_percentile",
        format!("{:?}", stats::tail_percentile(samples)),
    );
    let audit = if a.trace {
        mqmix::audit::<true>(seed, workers, AUDIT_OPS, KEEP_EVERY)
    } else {
        mqmix::audit::<false>(seed, workers, AUDIT_OPS, 1)
    };
    o.attempted += audit.ops;
    o.check(audit.linearizable, || {
        "stamped history is not linearizable onto PqSpec".into()
    });
    o.check(audit.within_policy_bound(), || {
        format!(
            "mean DeleteMin rank {} exceeds the policy bound {}",
            audit.rank_mean(),
            audit.rank_bound
        )
    });
    o.figure("rank_mean", audit.rank_mean());
    o.figure("rank_p99", audit.rank_p99());
    o.figure("rank_samples", audit.ranks.len());
    o.figure("rank_tail", format!("{:?}", audit.rank_tail()));
    o.figure("audit_s", audit.seconds());
    o.figure("audit_empty_dequeues", audit.empty);
    if !a.trace {
        o.set("setup_s", median(&setups));
        o.set("speedup", median(&speedups));
        o.set("relax_cost", 1.0 + audit.rank_mean());
        return o;
    }
    // Engine split: execute (the whole queue, hidden by the engine) and
    // the engine's own loop as the residual.
    let e = mqmix::engine_run(seed, workers, dur, false, Some(KEEP_EVERY));
    o.check(e.report.verified(), || {
        format!("traced engine run: {:?}", e.report.verify_error)
    });
    o.attempted += e.report.total_ops();
    let ops = e.report.total_ops();
    let e2e = e.report.elapsed.as_secs_f64() * workers as f64 * 1e9 / ops as f64;
    let exec = e.trace.agg("engine.execute");
    o.set("engine.execute_ns", exec.mean_ns());
    o.set("engine.loop_self_ns", e2e - exec.mean_ns());
    split(
        &mut o,
        SPLIT,
        e2e,
        ops,
        &[("split.engine_ns", exec.self_ns)],
    );
    o.set("split.untraced_ns", untraced_ns);
    o.set("split.overhead_ns", e2e - untraced_ns);
    // Queue split: the engine's op stream replayed through MqHandle.
    let sc = mqmix::scenario(
        seed,
        workers,
        dlz_workload::scenario::Budget::OpsPerWorker(1),
    );
    let q = mqmix::multiqueue(|| TracedHeap(BinaryHeap::new()));
    let r = mqmix::replay::<_, _, true>(
        &q,
        &sc,
        REPLAY_OPS_PER_WORKER,
        || TracedPolicy(PolicyCfg::TwoChoice.build()),
        KEEP_EVERY,
    );
    let t = &r.trace;
    mq_layer_metrics(&mut o, t, r.ops, &r.contention);
    o.set(
        "mq.dequeue_hit_ratio",
        ratio(r.dequeue_hits as f64, r.dequeue_calls as f64),
    );
    split(
        &mut o,
        REPLAY,
        r.thread_ns as f64 / r.ops as f64,
        r.ops,
        &[
            ("replay.mq_ns", t.self_ns(&["mq.insert", "mq.dequeue"])),
            (
                "replay.policy_ns",
                t.self_ns(&["policy.choose_insert", "policy.choose_dequeue"]),
            ),
            ("replay.heap_ns", t.self_ns(&["heap.push", "heap.pop"])),
        ],
    );
    o.attempted += r.ops;
    // Audit layers.
    let at = &audit.trace;
    o.set("audit.stamped_op_ns", at.agg("audit.stamped_op").mean_ns());
    o.set("checker.replay_s", audit.replay_s);
    o.set("checker.events", audit.events as f64);
    o.set(
        "checker.ns_per_event",
        ratio(audit.replay_s * 1e9, audit.events as f64),
    );
    let mut all = e.trace;
    all.merge(r.trace);
    all.merge(audit.trace);
    o.trace = all;
    o
}

/// TL2 runs alternate between the two clocks in slices of this length.
const TL2_SLICE: Duration = Duration::from_millis(250);

fn run_tl2(a: &Args, workers: usize) -> Outcome {
    let mut o = Outcome::default();
    let seed = mix_seed(a.seed, 3);
    // Set-up allocates the array and writes every slot, so first-touch
    // page faults stay out of the timed loop.
    let zeros = std::hint::black_box(vec![0u64; tl2::SLOTS]);
    if !a.trace {
        let setup = || Tl2::from_values(&zeros, tl2::relaxed_clock());
        let mut setups = Vec::new();
        for _ in 1..SETUP_REPEATS {
            let t = Instant::now();
            drop(std::hint::black_box(setup()));
            setups.push(secs(t));
        }
        let t = Instant::now();
        let stm = setup();
        setups.push(secs(t));
        let exact = Tl2::from_values(&zeros, ExactClock::new());
        let pairs = ((a.seconds / (2.0 * TL2_SLICE.as_secs_f64())).round() as u64).max(3);
        let (mut relaxed, mut exact_run) = (tl2::Run::default(), tl2::Run::default());
        let (mut speedups, mut rates, mut exact_rates) = (vec![], vec![], vec![]);
        for p in 0..pairs {
            let mut pair = [0.0; 2];
            for ex in [p % 2 == 1, p % 2 != 1] {
                let s = seed ^ (p << 1) ^ u64::from(ex);
                let r = if ex {
                    tl2::run::<_, false>(&exact, workers, s, TL2_SLICE, 1)
                } else {
                    tl2::run::<_, false>(&stm, workers, s, TL2_SLICE, 1)
                };
                pair[usize::from(ex)] = r.rate();
                let acc = if ex { &mut exact_run } else { &mut relaxed };
                acc.adds += r.adds;
                acc.reads += r.reads;
                acc.stats.merge(&r.stats);
            }
            rates.push(pair[0]);
            exact_rates.push(pair[1]);
            speedups.push(pair[0] / pair[1]);
        }
        o.check(tl2::conserved(&stm, relaxed.adds), || {
            format!(
                "relaxed clock: array sum != 2 x {} committed adds",
                relaxed.adds
            )
        });
        o.check(tl2::conserved(&exact, exact_run.adds), || {
            format!(
                "exact clock: array sum != 2 x {} committed adds",
                exact_run.adds
            )
        });
        o.attempted = relaxed.commits() + exact_run.commits();
        o.figure("pairs", pairs);
        o.figure("pair_speedups", format!("{:.3?}", speedups));
        o.figure("tl2_mtxps", median(&rates) / 1e6);
        o.figure("tl2_exact_mtxps", median(&exact_rates) / 1e6);
        o.figure("tl2_abort_rate", relaxed.stats.abort_rate());
        o.figure(
            "counter_max_read_error",
            stm.clock().counter().max_read_error(),
        );
        o.set("setup_s", median(&setups));
        o.set("speedup", median(&speedups));
        o.set(
            "relax_cost",
            ratio(
                relaxed.stats.attempts() as f64,
                relaxed.stats.commits as f64,
            ),
        );
        return o;
    }
    let dur = Duration::from_secs_f64(a.seconds / 2.0);
    let bare = Tl2::from_values(&zeros, tl2::relaxed_clock());
    let b = tl2::run::<_, false>(&bare, workers, seed, dur, 1);
    o.check(tl2::conserved(&bare, b.adds), || {
        "untraced run: conservation broken".into()
    });
    let untraced = b.thread_ns as f64 / b.commits() as f64;
    let stm = Tl2::from_values(&zeros, TracedClock::new(tl2::relaxed_clock()));
    let r = tl2::run::<_, true>(&stm, workers, seed, dur, KEEP_EVERY);
    o.check(tl2::conserved(&stm, r.adds), || {
        "traced run: conservation broken".into()
    });
    o.attempted = b.commits() + r.commits();
    let t = &r.trace;
    let tx = t.agg("tl2.tx");
    let st = &r.stats;
    o.set("tl2.tx_ns", tx.mean_ns());
    o.set("tl2.tx_self_ns", ratio(tx.self_ns as f64, tx.calls as f64));
    o.set(
        "tl2.commits_per_attempt",
        ratio(st.commits as f64, st.attempts() as f64),
    );
    o.set("tl2.aborts.locked_read", st.locked_read as f64);
    o.set("tl2.aborts.future_version", st.future_version as f64);
    o.set("tl2.aborts.inconsistent_read", st.inconsistent_read as f64);
    o.set("tl2.aborts.lock_busy", st.lock_busy as f64);
    o.set("tl2.aborts.read_validation", st.read_validation as f64);
    o.set("tl2.aborts.user", st.user as f64);
    o.set(
        "clock.read_version_ns",
        t.agg("clock.read_version").mean_ns(),
    );
    o.set(
        "clock.write_version_ns",
        t.agg("clock.write_version").mean_ns(),
    );
    o.set(
        "clock.on_abort_calls",
        stm.clock()
            .on_abort_calls
            .load(std::sync::atomic::Ordering::Relaxed) as f64,
    );
    o.set(
        "counter.max_read_error",
        stm.clock().inner.counter().max_read_error() as f64,
    );
    let e2e = r.thread_ns as f64 / r.commits() as f64;
    split(
        &mut o,
        SPLIT,
        e2e,
        r.commits(),
        &[
            ("split.tl2_ns", tx.self_ns),
            (
                "split.clock_ns",
                t.self_ns(&["clock.read_version", "clock.write_version"]),
            ),
        ],
    );
    o.set("split.untraced_ns", untraced);
    o.set("split.overhead_ns", e2e - untraced);
    o.trace = r.trace;
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_list() {
    println!("end-to-end metrics (--trace 0):");
    for (n, u, d) in END_TO_END {
        println!("  {n:<12} [{u}] {d}");
    }
    println!("per-layer metrics (--trace 1; 0 where the workload does not run the layer):");
    for (n, u) in PER_LAYER {
        println!("  {n:<30} [{u}]");
    }
    println!("workloads:");
    for (n, d) in WORKLOADS {
        println!("  {n:<12} {d}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print_list();
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let fp = Fingerprint::host();
    let mut o = match args.workload.as_str() {
        "sssp" => run_sssp(&args, fp.workers),
        "mq-mix" => run_mq_mix(&args, fp.workers),
        _ => run_tl2(&args, fp.workers),
    };
    o.correct = o.failures.is_empty();
    let failed = if o.correct { 0 } else { o.attempted };
    for f in &o.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, o.trace.spans_tsv()) {
            eprintln!("warning: could not write spans to {path}: {e}");
        }
    }
    let catalogue: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    eprintln!(
        "{} seed={} trace={} workers={} nproc={} cpu={:?}",
        args.workload, args.seed, args.trace, fp.workers, fp.available_parallelism, fp.cpu_model
    );
    for (name, value) in &o.figures {
        eprintln!("  {name:<30} {value}");
    }
    let mut metrics = Vec::new();
    for (name, unit) in catalogue {
        let v = o.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<30} {v:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        ));
    }
    let figures: Vec<String> = o
        .figures
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v:?}"))
        .collect();
    println!(
        "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"figures\": {{{}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        fp.to_json(),
        figures.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        failed,
        metrics.join(", ")
    );
    if !o.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = dlz_core::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let list = json.get(key).and_then(|v| v.as_array()).expect(key);
            list.iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.into(), u.into()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
        let workloads = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads");
        let wl: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(wl, WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>());
    }

    #[test]
    fn args_are_checked() {
        let p = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = p("--workload sssp --seed 3 --seconds 2 --trace 1")
            .unwrap()
            .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sssp", 3, 2.0, true)
        );
        assert!(p("--list").unwrap().is_none());
        assert!(p("--workload nope").is_err());
        assert!(p("--workload sssp --trace 2").is_err());
        assert!(p("--workload sssp --seconds 0").is_err());
        assert!(p("--workload sssp --bogus 1").is_err());
        assert!(p("--workload sssp --seed").is_err());
    }

    #[test]
    fn split_adds_up() {
        let mut o = Outcome::default();
        split(
            &mut o,
            SPLIT,
            100.0,
            10,
            &[("split.mq_ns", 300), ("split.heap_ns", 200)],
        );
        let parts =
            o.metrics["split.mq_ns"] + o.metrics["split.heap_ns"] + o.metrics["split.residual_ns"];
        assert_eq!(parts, o.metrics["split.e2e_ns"]);
        assert_eq!(o.metrics["split.residual_ns"], 50.0);
    }
}
