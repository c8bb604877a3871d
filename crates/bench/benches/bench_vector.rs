//! Criterion benchmark racing the registered CPU backends (serial, and
//! vectorized on one executor and on one per CPU) on the paper's
//! representative 2D and 3D kernels, and persisting the measured
//! wall-clock comparison as `BENCH_backend.json` at the workspace root
//! (override the destination with `AN5D_BENCH_OUT`). The single-executor
//! `vector` row separates the row-kernel gain over serial from the
//! threading gain.
//!
//! The JSON artifact is what CI asserts against (vector must beat serial
//! on the 2D kernel) and what the README documents:
//!
//! ```json
//! {"kernels": [{"name": "...", "interior": [...], "steps": N,
//!   "config": "...", "flops_per_cell": N, "cell_updates": N,
//!   "backends": [{"backend": "serial", "seconds": S,
//!     "mcells_per_s": M, "gflops": G, "speedup_vs_serial": X}, ...]}]}
//! ```
//!
//! Backends are semantically transparent, so the run doubles as a
//! correctness check: counters must be identical across all rows.

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
        },
        Workload {
            def: suite::star3d(1),
            interior: vec![56, 56, 56],
            steps: 8,
            config: BlockConfig::new(2, &[14, 14], Some(14), Precision::Double).unwrap(),
        },
    ]
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

/// Min-of-3 wall clock for one backend on one prepared workload.
fn time_one(
    backend: &dyn ExecutionBackend,
    plan: &KernelPlan,
    problem: &StencilProblem,
    initial: &Grid<f64>,
) -> (f64, TrafficCounters) {
    let mut counters = None;
    let seconds = (0..3)
        .map(|_| {
            let start = Instant::now();
            let run = criterion::black_box(backend.execute_f64(plan, problem, initial.clone()));
            let elapsed = start.elapsed().as_secs_f64();
            counters = Some(run.counters);
            elapsed
        })
        .fold(f64::INFINITY, f64::min);
    (seconds, counters.expect("three samples ran"))
}

fn bench_backends(c: &mut Criterion) {
    let mut kernels = Vec::new();
    for workload in workloads() {
        let Workload {
            def,
            interior,
            steps,
            config,
        } = workload;
        let problem = StencilProblem::new(def.clone(), &interior, steps).expect("valid problem");
        let plan =
            KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).expect("plan");
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

        // The persisted report times each backend directly (min-of-3),
        // independent of the harness, and checks transparency on the way.
        let mut rows = Vec::new();
        let mut serial_seconds = None;
        let mut expected_counters: Option<TrafficCounters> = None;
        for backend in backends() {
            let (seconds, counters) = time_one(backend.as_ref(), &plan, &problem, &initial);
            if let Some(expected) = expected_counters {
                assert_eq!(
                    expected,
                    counters,
                    "{}: {} counters diverged from serial",
                    def.name(),
                    backend.name()
                );
            } else {
                expected_counters = Some(counters);
            }
            let serial = *serial_seconds.get_or_insert(seconds);
            let updates = counters.cell_updates as f64;
            rows.push(Json::obj(vec![
                ("backend", Json::str(backend.name())),
                ("describe", Json::str(&backend.describe())),
                ("seconds", Json::Num(seconds)),
                ("mcells_per_s", Json::Num(updates / seconds / 1e6)),
                (
                    "gflops",
                    Json::Num(updates * def.flops_per_cell() as f64 / seconds / 1e9),
                ),
                ("speedup_vs_serial", Json::Num(serial / seconds)),
            ]));
            println!(
                "{:<10} {:<28} {seconds:8.3}s  {:.2}x vs serial",
                def.name(),
                backend.describe(),
                serial / seconds
            );
        }
        kernels.push(Json::obj(vec![
            ("name", Json::str(def.name())),
            ("interior", Json::usize_array(&interior)),
            ("steps", Json::Int(steps as i128)),
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
