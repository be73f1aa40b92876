//! **Ablation** — a design choice the paper discusses but does not
//! plot: the number of choices d per MultiCounter increment.
//!
//! ```text
//! cargo run -p dlz-bench --release --bin ablation
//! ```

use std::sync::atomic::AtomicBool;

use dlz_bench::tables::f3;
use dlz_bench::{Config, Table};
use dlz_core::rng::Xoshiro256;
use dlz_core::DChoiceCounter;
use dlz_workload::driver::{count_until_stopped, run_throughput};

/// d-choice: gap and throughput as d varies (d=1 diverges, d=2 is the
/// paper's algorithm, d=4 buys little at 2x the read cost).
fn dchoice_section(cfg: &Config) {
    println!("-- choices per increment (d): balance vs cost --");
    let mut table = Table::new(&["d", "threads", "Mops/s", "final max_gap"]);
    let n = *cfg.threads.last().expect("non-empty");
    for d in [1usize, 2, 4] {
        let counter = DChoiceCounter::new(8 * n, d, cfg.seed);
        let t = run_throughput(n, cfg.duration, |tid| {
            let c = &counter;
            let mut rng = Xoshiro256::new(cfg.seed ^ ((tid as u64) << 11));
            move |stop: &AtomicBool| count_until_stopped(stop, || c.increment_with(&mut rng))
        });
        table.row(vec![
            d.to_string(),
            n.to_string(),
            f3(t.mops()),
            counter.max_gap().to_string(),
        ]);
    }
    table.print();
    println!("Expected: d=1 fastest per op but unbounded gap growth; d=2 bounded gap;");
    println!("d=4 slightly tighter gap at lower throughput.\n");
}

fn main() {
    let cfg = Config::from_args();
    println!("Ablation (threads = {:?})\n", cfg.threads);
    dchoice_section(&cfg);
}
