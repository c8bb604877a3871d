//! Sweep a functional-execution workload over every registered backend
//! and report wall-clock, counter totals and plan-cache behaviour.
//!
//! `cargo run --release -p an5d-bench --bin backend_sweep`
//!
//! The workload honours `AN5D_BACKEND` for the facade default but always
//! sweeps the full registry, so the output doubles as a correctness check
//! (identical counters) and a speedup report (each backend vs serial).

use an5d::{suite, BatchDriver, BatchJob, BlockConfig, Precision, TrafficCounters};
use an5d_bench::experiments::common::plan_cache;
use std::time::Instant;

fn jobs() -> Vec<BatchJob> {
    let c2d = |bt: usize, bs: usize| BlockConfig::new(bt, &[bs], None, Precision::Double).unwrap();
    let c3d = |bt: usize, bs: usize, h: usize| {
        BlockConfig::new(bt, &[bs, bs], Some(h), Precision::Double).unwrap()
    };
    vec![
        BatchJob::new(suite::j2d5pt(), &[128, 128], 8, c2d(4, 32)),
        BatchJob::new(suite::star2d(2), &[96, 96], 6, c2d(2, 32)),
        BatchJob::new(suite::box2d(1), &[96, 96], 6, c2d(2, 24)),
        BatchJob::new(suite::star3d(1), &[24, 24, 24], 4, c3d(2, 12, 12)),
        BatchJob::new(suite::j3d27pt(), &[20, 20, 20], 3, c3d(1, 10, 10)),
    ]
}

fn main() {
    let mut baseline: Option<(Vec<TrafficCounters>, f64)> = None;
    for spec in an5d::available_backends() {
        let backend = an5d::create_backend(spec).expect("registered backend");
        let description = backend.describe();
        let driver = BatchDriver::new(backend).with_cache(plan_cache());
        let started = Instant::now();
        let results = driver.run(&jobs());
        let elapsed = started.elapsed().as_secs_f64();
        let counters: Vec<TrafficCounters> = results
            .iter()
            .map(|r| r.as_ref().expect("suite jobs are valid").counters)
            .collect();
        let updates: u128 = counters.iter().map(|c| c.cell_updates).sum();
        match &baseline {
            None => {
                println!("{description:<28} {elapsed:8.3}s  {updates} cell updates  (baseline)");
                baseline = Some((counters, elapsed));
            }
            Some((expected, serial_elapsed)) => {
                assert_eq!(expected, &counters, "{description}: counters diverged");
                println!(
                    "{description:<28} {elapsed:8.3}s  {updates} cell updates  ({:.2}x vs serial)",
                    serial_elapsed / elapsed
                );
            }
        }
    }
    let stats = plan_cache().stats();
    println!(
        "plan cache: {} hits / {} misses ({:.0}% hit rate)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
}
