//! Criterion benchmark racing the registered CPU backends (serial, and
//! vectorized on one executor and on one per CPU) on the paper's
//! representative 2D and 3D kernels against a `reference` row — a direct
//! single-thread stride-1 loop over the same grid and steps, the ceiling
//! the kernels are reported against — and persisting the measured
//! wall-clock comparison as `BENCH_backend.json` at the workspace root
//! (override the destination with `AN5D_BENCH_OUT`). The single-executor
//! `vector` row separates the row-kernel gain over serial from the
//! threading gain.
//!
//! The JSON artifact is what CI asserts against (vector must beat serial
//! on the 2D kernel; the reference row must be present) and what the
//! README documents:
//!
//! ```json
//! {"kernels": [{"name": "...", "interior": [...], "steps": N,
//!   "config": "...", "flops_per_cell": N, "cell_updates": N,
//!   "backends": [{"backend": "serial", "seconds": S,
//!     "mcells_per_s": M, "gflops": G, "speedup_vs_serial": X,
//!     "fraction_of_reference": F}, ...]}]}
//! ```
//!
//! `mcells_per_s` counts every computed cell update, so a blocked row
//! includes its redundant halo updates; the reference row computes each
//! interior cell once per step. `fraction_of_reference` is reference
//! seconds / row seconds, the same work either way.
//!
//! Backends are semantically transparent, so the run doubles as a
//! correctness check: counters must be identical across all backend rows,
//! and every backend's final grid must equal the reference loop's bit for
//! bit.

use an5d::{
    suite, BlockConfig, ExecutionBackend, FrameworkScheme, Grid, GridInit, KernelPlan, Precision,
    SerialBackend, StencilDef, StencilProblem, TrafficCounters, VectorCpuBackend,
};
use an5d_service::Json;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Instant;

struct Workload {
    def: StencilDef,
    interior: Vec<usize>,
    steps: usize,
    config: BlockConfig,
    /// The direct stride-1 loop for `def`.
    reference: fn(&Grid<f64>, usize) -> Grid<f64>,
}

/// The paper's flagship 2D kernel (Jacobi 5-point) and a 3D star with
/// streaming division, sized so a bench run finishes in seconds while
/// still giving the threaded backends enough rows to win on.
fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            def: suite::j2d5pt(),
            interior: vec![512, 512],
            steps: 24,
            config: BlockConfig::new(4, &[32], None, Precision::Double).unwrap(),
            reference: reference_j2d5pt,
        },
        Workload {
            def: suite::star3d(1),
            interior: vec![56, 56, 56],
            steps: 8,
            config: BlockConfig::new(2, &[14, 14], Some(14), Precision::Double).unwrap(),
            reference: reference_star3d1r,
        },
    ]
}

// The direct loops replay the suite definitions' expression order term by
// term, so their results are bit-identical to any correct executor:
//   j2d5pt   = (5.1·N + 12.1·W + 15.0·C + 12.2·E + 5.2·S) / 118
//   star3d1r = 0.4·C + Σ_k w_k·n_k, w_k = 0.6·k / 21, neighbours in the
//              order +i, −i, +j, −j, +k, −k.

fn reference_j2d5pt(grid: &Grid<f64>, steps: usize) -> Grid<f64> {
    let (rows, cols) = (grid.shape()[0], grid.shape()[1]);
    let mut src = grid.clone();
    let mut dst = grid.clone();
    for _ in 0..steps {
        let s = src.as_slice();
        let d = dst.as_mut_slice();
        for i in 1..rows - 1 {
            let up = &s[(i - 1) * cols..i * cols];
            let mid = &s[i * cols..(i + 1) * cols];
            let down = &s[(i + 1) * cols..(i + 2) * cols];
            let out = &mut d[i * cols..(i + 1) * cols];
            for j in 1..cols - 1 {
                out[j] = (5.1 * up[j]
                    + 12.1 * mid[j - 1]
                    + 15.0 * mid[j]
                    + 12.2 * mid[j + 1]
                    + 5.2 * down[j])
                    / 118.0;
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

fn reference_star3d1r(grid: &Grid<f64>, steps: usize) -> Grid<f64> {
    let (n0, n1, n2) = (grid.shape()[0], grid.shape()[1], grid.shape()[2]);
    let w = |k: f64| 0.6 * k / 21.0;
    let (w1, w2, w3, w4, w5, w6) = (w(1.0), w(2.0), w(3.0), w(4.0), w(5.0), w(6.0));
    let plane = n1 * n2;
    let mut src = grid.clone();
    let mut dst = grid.clone();
    for _ in 0..steps {
        let s = src.as_slice();
        let d = dst.as_mut_slice();
        for i in 1..n0 - 1 {
            for j in 1..n1 - 1 {
                let row = i * plane + j * n2;
                let c = &s[row..row + n2];
                let ip = &s[row + plane..row + plane + n2];
                let im = &s[row - plane..row - plane + n2];
                let jp = &s[row + n2..row + 2 * n2];
                let jm = &s[row - n2..row];
                let out = &mut d[row..row + n2];
                for x in 1..n2 - 1 {
                    out[x] = 0.4 * c[x]
                        + w1 * ip[x]
                        + w2 * im[x]
                        + w3 * jp[x]
                        + w4 * jm[x]
                        + w5 * c[x + 1]
                        + w6 * c[x - 1];
                }
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Serial first (the speedup base), then `vector` on one executor and on
/// one per CPU (at least two). The threaded row comes last, so a lookup
/// of the report's rows by backend name finds it.
fn backends() -> Vec<Arc<dyn ExecutionBackend>> {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(2);
    vec![
        Arc::new(SerialBackend),
        Arc::new(VectorCpuBackend::new(1)),
        Arc::new(VectorCpuBackend::new(threads)),
    ]
}

/// Min-of-3 wall clock of `run`, and its last result.
fn min_of_3<R>(mut run: impl FnMut() -> R) -> (f64, R) {
    let mut result = None;
    let seconds = (0..3)
        .map(|_| {
            let start = Instant::now();
            result = Some(criterion::black_box(run()));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (seconds, result.expect("three samples ran"))
}

fn bench_backends(c: &mut Criterion) {
    let mut kernels = Vec::new();
    for workload in workloads() {
        let Workload {
            def,
            interior,
            steps,
            config,
            ..
        } = &workload;
        let problem = StencilProblem::new(def.clone(), interior, *steps).expect("valid problem");
        let plan = KernelPlan::build(def, &problem, config, FrameworkScheme::an5d()).expect("plan");
        let initial = Grid::<f64>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 11 });

        let mut group = c.benchmark_group(format!("backend/{}", def.name()));
        for backend in backends() {
            let b = Arc::clone(&backend);
            let (plan_ref, problem_ref, initial_ref) = (&plan, &problem, &initial);
            group.bench_function(backend.describe(), move |bench| {
                bench.iter(|| b.execute_f64(plan_ref, problem_ref, initial_ref.clone()));
            });
        }
        group.finish();

        // The persisted report times each backend and the reference loop
        // directly (min-of-3), independent of the harness, and checks
        // transparency on the way.
        let (reference_seconds, reference_grid) =
            min_of_3(|| (workload.reference)(criterion::black_box(&initial), *steps));
        let reference_updates = interior.iter().product::<usize>() as f64 * *steps as f64;
        let mut timed = Vec::new();
        let mut expected_counters: Option<TrafficCounters> = None;
        for backend in backends() {
            let (seconds, run) = min_of_3(|| backend.execute_f64(&plan, &problem, initial.clone()));
            assert_eq!(
                run.grid,
                reference_grid,
                "{}: {} diverged from the reference loop",
                def.name(),
                backend.describe()
            );
            let expected = *expected_counters.get_or_insert(run.counters);
            assert_eq!(
                expected,
                run.counters,
                "{}: {} counters diverged from serial",
                def.name(),
                backend.name()
            );
            let updates = run.counters.cell_updates as f64;
            timed.push((backend.name(), backend.describe(), seconds, updates));
        }
        timed.push((
            "reference",
            "direct stride-1 loop (1 thread)".to_string(),
            reference_seconds,
            reference_updates,
        ));
        let serial = timed[0].2;
        let mut rows = Vec::new();
        for (name, describe, seconds, updates) in timed {
            rows.push(Json::obj(vec![
                ("backend", Json::str(name)),
                ("describe", Json::str(&describe)),
                ("seconds", Json::Num(seconds)),
                ("mcells_per_s", Json::Num(updates / seconds / 1e6)),
                (
                    "gflops",
                    Json::Num(updates * def.flops_per_cell() as f64 / seconds / 1e9),
                ),
                ("speedup_vs_serial", Json::Num(serial / seconds)),
                (
                    "fraction_of_reference",
                    Json::Num(reference_seconds / seconds),
                ),
            ]));
            println!(
                "{:<10} {describe:<32} {seconds:8.3}s  {:.2}x vs serial  {:.3} of reference",
                def.name(),
                serial / seconds,
                reference_seconds / seconds
            );
        }
        kernels.push(Json::obj(vec![
            ("name", Json::str(def.name())),
            ("interior", Json::usize_array(interior)),
            ("steps", Json::Int(*steps as i128)),
            ("config", Json::str(&config.to_string())),
            ("flops_per_cell", Json::Int(def.flops_per_cell() as i128)),
            (
                "cell_updates",
                Json::Int(expected_counters.expect("timed").cell_updates as i128),
            ),
            ("backends", Json::Arr(rows)),
        ]));
    }

    let report = Json::obj(vec![("kernels", Json::Arr(kernels))]);
    let out = std::env::var("AN5D_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_backend.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, report.render() + "\n").expect("write BENCH_backend.json");
    println!("wrote {out}");
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
