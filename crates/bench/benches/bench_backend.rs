//! Criterion benchmark sweeping the `vector` backend's thread count
//! (1, 2, and one executor per CPU) on a 3-D suite stencil, reporting
//! the threading gain on its own: `vector[N]` against `vector[1]`, so
//! the row-kernel gain over `serial` (see `bench_vector`) does not mix
//! into it.

use an5d::{suite, ExecutionBackend};
use an5d::{
    BlockConfig, FrameworkScheme, Grid, GridInit, KernelPlan, Precision, StencilProblem,
    VectorCpuBackend,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;

fn workload() -> (KernelPlan, StencilProblem, Grid<f64>) {
    let def = suite::star3d(1);
    let problem = StencilProblem::new(def.clone(), &[32, 32, 32], 4).expect("valid problem");
    let config = BlockConfig::new(2, &[12, 12], Some(12), Precision::Double).expect("valid config");
    let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).expect("plan");
    let initial = Grid::<f64>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 11 });
    (plan, problem, initial)
}

fn bench_thread_sweep(c: &mut Criterion) {
    let (plan, problem, initial) = workload();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut sweep = vec![1usize, 2, threads];
    sweep.sort_unstable();
    sweep.dedup();

    let mut group = c.benchmark_group("backend/star3d1r_32cubed_bt2");
    for &workers in &sweep {
        let backend = VectorCpuBackend::new(workers);
        group.bench_with_input(
            BenchmarkId::new("vector", workers),
            &backend,
            |b, backend| {
                b.iter(|| backend.execute_f64(&plan, &problem, initial.clone()));
            },
        );
    }
    group.finish();

    // Direct speedup report (min-of-3 wall clock), independent of the
    // harness: >1.5x is expected on a multi-core runner.
    let time = |backend: &dyn ExecutionBackend| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                criterion::black_box(backend.execute_f64(&plan, &problem, initial.clone()));
                start.elapsed()
            })
            .min()
            .expect("three samples")
    };
    let single = time(&VectorCpuBackend::new(1));
    let multi = time(&VectorCpuBackend::new(threads));
    println!(
        "backend speedup: vector[1] {single:?} / vector[{threads}] {multi:?} = {:.2}x",
        single.as_secs_f64() / multi.as_secs_f64()
    );
}

criterion_group!(benches, bench_thread_sweep);
criterion_main!(benches);
