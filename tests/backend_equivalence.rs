//! The backend-subsystem contract: every execution backend produces
//! bit-identical `f64` grids and identical counters to the naive
//! reference executor and to the serial backend, across suite stencils
//! and thread counts — and the plan cache answers repeated keys with the
//! identical plan.

use an5d::reference::run_reference;
use an5d::{
    create_backend, BatchDriver, BatchJob, BlockConfig, ExecutionBackend, FrameworkScheme, Grid,
    GridDiff, GridInit, KernelPlan, PlanCache, Precision, SerialBackend, StencilDef,
    StencilProblem, VectorCpuBackend,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Representative suite slice: 2D star, 2D box (non-associative path) and
/// a 3D star with streaming division.
fn workloads() -> Vec<(StencilDef, Vec<usize>, usize, BlockConfig)> {
    use an5d::suite;
    vec![
        (
            suite::j2d5pt(),
            vec![28, 26],
            7,
            BlockConfig::new(3, &[12], Some(12), Precision::Double).unwrap(),
        ),
        (
            suite::box2d(1),
            vec![20, 24],
            5,
            BlockConfig::new(2, &[10], None, Precision::Double).unwrap(),
        ),
        (
            suite::star3d(1),
            vec![12, 10, 14],
            5,
            BlockConfig::new(2, &[8, 10], Some(6), Precision::Double).unwrap(),
        ),
    ]
}

/// The tile-parallel backend as a user selects it: a `vector:<threads>`
/// registry spec behind `dyn ExecutionBackend`.
#[test]
fn parallel_backend_is_bit_identical_to_reference_and_serial() {
    for (def, interior, steps, config) in workloads() {
        let problem = StencilProblem::new(def.clone(), &interior, steps).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let init = GridInit::Hash { seed: 2020 };
        let reference = run_reference::<f64>(&problem, init);
        let initial = Grid::<f64>::from_init(&problem.grid_shape(), init);

        let serial = SerialBackend.execute_f64(&plan, &problem, initial.clone());
        let diff = GridDiff::compute(&reference, &serial.grid).unwrap();
        assert!(
            diff.is_exact(),
            "{}: serial diverged from reference",
            def.name()
        );

        for threads in [2usize, 5] {
            let backend = create_backend(&format!("vector:{threads}")).unwrap();
            let parallel = backend.execute_f64(&plan, &problem, initial.clone());
            assert_eq!(
                serial.grid,
                parallel.grid,
                "{}: vector:{threads} grid differs from serial",
                def.name()
            );
            let diff = GridDiff::compute(&reference, &parallel.grid).unwrap();
            assert!(
                diff.is_exact(),
                "{}: vector:{threads} diverged from reference (max {:.3e})",
                def.name(),
                diff.max_abs
            );
            assert_eq!(
                serial.counters,
                parallel.counters,
                "{}: vector:{threads} counters differ",
                def.name()
            );
        }
    }
}

#[test]
fn vector_backend_is_bit_identical_to_reference_and_serial() {
    for (def, interior, steps, config) in workloads() {
        let problem = StencilProblem::new(def.clone(), &interior, steps).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let init = GridInit::Hash { seed: 2020 };
        let reference = run_reference::<f64>(&problem, init);
        let initial = Grid::<f64>::from_init(&problem.grid_shape(), init);
        let initial32 = Grid::<f32>::from_init(&problem.grid_shape(), init);

        let serial = SerialBackend.execute_f64(&plan, &problem, initial.clone());
        let serial32 = SerialBackend.execute_f32(&plan, &problem, initial32.clone());
        for threads in [1usize, 2, 5] {
            let vector =
                VectorCpuBackend::new(threads).execute_f64(&plan, &problem, initial.clone());
            assert_eq!(
                serial.grid,
                vector.grid,
                "{}: vector[{threads}] f64 grid differs from serial",
                def.name()
            );
            let diff = GridDiff::compute(&reference, &vector.grid).unwrap();
            assert!(
                diff.is_exact(),
                "{}: vector[{threads}] diverged from reference (max {:.3e})",
                def.name(),
                diff.max_abs
            );
            assert_eq!(
                serial.counters,
                vector.counters,
                "{}: vector[{threads}] counters differ",
                def.name()
            );
            let vector32 =
                VectorCpuBackend::new(threads).execute_f32(&plan, &problem, initial32.clone());
            assert_eq!(
                serial32.grid,
                vector32.grid,
                "{}: vector[{threads}] f32 grid differs from serial",
                def.name()
            );
            assert_eq!(
                serial32.counters,
                vector32.counters,
                "{}: vector[{threads}] f32 counters differ",
                def.name()
            );
        }
    }
}

#[test]
fn vector_backend_matches_serial_for_tuned_configs_on_every_registry_device() {
    // Each registry profile tunes to a different winning configuration;
    // whatever geometry a device's tuner picks, the vector backend must
    // execute it bit-for-bit like the serial backend (both precisions).
    use an5d::{SearchSpace, Tuner};
    let def = an5d::suite::star2d(1);
    let problem = StencilProblem::new(def.clone(), &[40, 36], 6).unwrap();
    let registry = an5d::standard_registry();
    assert!(registry.len() >= 4, "expected the four standard profiles");
    for (id, device) in registry.devices() {
        for precision in [Precision::Single, Precision::Double] {
            let space = SearchSpace::quick(2, precision);
            let result = Tuner::new(device.clone(), precision)
                .tune(&def, &problem, &space)
                .unwrap();
            let config = result.best.config.clone();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            let init = GridInit::Hash { seed: 9 };
            match precision {
                Precision::Single => {
                    let initial = Grid::<f32>::from_init(&problem.grid_shape(), init);
                    let serial = SerialBackend.execute_f32(&plan, &problem, initial.clone());
                    let vector = VectorCpuBackend::new(3).execute_f32(&plan, &problem, initial);
                    assert_eq!(serial.grid, vector.grid, "{id}: f32 grid with {config}");
                    assert_eq!(serial.counters, vector.counters, "{id}: f32 counters");
                }
                Precision::Double => {
                    let initial = Grid::<f64>::from_init(&problem.grid_shape(), init);
                    let serial = SerialBackend.execute_f64(&plan, &problem, initial.clone());
                    let vector = VectorCpuBackend::new(3).execute_f64(&plan, &problem, initial);
                    assert_eq!(serial.grid, vector.grid, "{id}: f64 grid with {config}");
                    assert_eq!(serial.counters, vector.counters, "{id}: f64 counters");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Randomised vector-vs-serial equivalence over odd tile/halo
    /// geometries: random star/box stencil and radius, random temporal
    /// degree, deliberately odd-capable block sizes, optional streaming
    /// division, random thread counts and both precisions.
    #[test]
    fn vector_backend_matches_serial_on_random_odd_geometries(
        star in any::<bool>(),
        radius in 1usize..=2,
        bt in 1usize..=3,
        extra_block in 0usize..9,
        stream_div in prop_oneof![Just(None), (5usize..13).prop_map(Some)],
        height in 13usize..29,
        width in 11usize..27,
        steps in 1usize..=7,
        threads in 1usize..=6,
        double in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use an5d::suite;
        let def = if star { suite::star2d(radius) } else { suite::box2d(radius) };
        // Base of 3 over the halo keeps many drawn sizes odd.
        let bs = 2 * bt * radius + 3 + extra_block;
        let precision = if double { Precision::Double } else { Precision::Single };
        let config = BlockConfig::new(bt, &[bs], stream_div, precision).unwrap();
        let problem = StencilProblem::new(def.clone(), &[height, width], steps).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let init = GridInit::Hash { seed };
        if double {
            let initial = Grid::<f64>::from_init(&problem.grid_shape(), init);
            let serial = SerialBackend.execute_f64(&plan, &problem, initial.clone());
            let vector = VectorCpuBackend::new(threads).execute_f64(&plan, &problem, initial);
            prop_assert_eq!(&serial.grid, &vector.grid, "{} with {}: f64 grid", def.name(), config);
            prop_assert_eq!(serial.counters, vector.counters, "{} with {}: f64 counters", def.name(), config);
        } else {
            let initial = Grid::<f32>::from_init(&problem.grid_shape(), init);
            let serial = SerialBackend.execute_f32(&plan, &problem, initial.clone());
            let vector = VectorCpuBackend::new(threads).execute_f32(&plan, &problem, initial);
            prop_assert_eq!(&serial.grid, &vector.grid, "{} with {}: f32 grid", def.name(), config);
            prop_assert_eq!(serial.counters, vector.counters, "{} with {}: f32 counters", def.name(), config);
        }
    }

    /// The 3D streaming path gets its own smaller randomised sweep: odd
    /// interiors and block faces exercise the ragged final tiles in every
    /// spatial dimension plus the streaming division.
    #[test]
    fn vector_backend_matches_serial_on_random_3d_geometries(
        bt in 1usize..=2,
        extra_y in 0usize..5,
        extra_x in 0usize..5,
        stream_div in prop_oneof![Just(None), (4usize..9).prop_map(Some)],
        depth in 7usize..13,
        height in 7usize..12,
        width in 8usize..15,
        steps in 1usize..=5,
        threads in 2usize..=5,
        seed in any::<u64>(),
    ) {
        use an5d::suite;
        let def = suite::star3d(1);
        let bs_y = 2 * bt + 3 + extra_y;
        let bs_x = 2 * bt + 3 + extra_x;
        let config =
            BlockConfig::new(bt, &[bs_y, bs_x], stream_div, Precision::Double).unwrap();
        let problem =
            StencilProblem::new(def.clone(), &[depth, height, width], steps).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let init = GridInit::Hash { seed };
        let initial = Grid::<f64>::from_init(&problem.grid_shape(), init);
        let serial = SerialBackend.execute_f64(&plan, &problem, initial.clone());
        let vector = VectorCpuBackend::new(threads).execute_f64(&plan, &problem, initial);
        prop_assert_eq!(&serial.grid, &vector.grid, "star3d1r with {}: grid", config);
        prop_assert_eq!(serial.counters, vector.counters, "star3d1r with {}: counters", config);
    }
}

#[test]
fn registry_backends_agree_through_the_facade() {
    // The same verification run through An5d must match regardless of the
    // backend the pipeline is wired to.
    let an5d = an5d::An5d::benchmark("j2d9pt").unwrap();
    let problem = an5d.problem(&[24, 22], 5).unwrap();
    let config = BlockConfig::new(2, &[14], None, Precision::Double).unwrap();
    for spec in ["serial", "vector", "vector:3"] {
        let backend = create_backend(spec).unwrap();
        let report = an5d
            .clone()
            .with_backend(backend)
            .verify(&problem, &config)
            .unwrap();
        assert!(report.matches_reference, "{spec}: diverged");
        assert_eq!(report.max_abs_diff, 0.0, "{spec}: not bit-identical");
    }
}

#[test]
fn plan_cache_hits_on_repeated_keys_with_identical_plans() {
    let cache = PlanCache::new(16);
    let (def, interior, steps, config) = workloads().remove(0);
    let problem = StencilProblem::new(def.clone(), &interior, steps).unwrap();

    let first = cache
        .get_or_build(&def, &problem, &config, FrameworkScheme::an5d())
        .unwrap();
    for _ in 0..3 {
        let again = cache
            .get_or_build(&def, &problem, &config, FrameworkScheme::an5d())
            .unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "hit must return the cached plan"
        );
        assert_eq!(*first, *again);
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.entries, 1);
}

#[test]
fn batch_driver_runs_a_suite_identically_on_both_backends() {
    let jobs: Vec<BatchJob> = workloads()
        .into_iter()
        .map(|(def, interior, steps, config)| BatchJob::new(def, &interior, steps, config))
        .collect();
    let serial = BatchDriver::new(Arc::new(SerialBackend)).run(&jobs);
    let vector = BatchDriver::new(Arc::new(VectorCpuBackend::new(4)))
        .with_workers(2)
        .run(&jobs);
    assert_eq!(serial.len(), jobs.len());
    for (a, b) in serial.iter().zip(&vector) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.name, b.name);
        assert_eq!(a.checksum, b.checksum, "{}", a.name);
        assert_eq!(a.counters, b.counters, "{}", a.name);
    }
}

#[test]
fn batch_driver_is_deterministic_across_pool_concurrency_caps() {
    // The driver fans jobs onto the shared persistent pool; whatever the
    // concurrency cap (1 = inline on the caller), outcomes must be
    // bit-identical in input order.
    let jobs: Vec<BatchJob> = workloads()
        .into_iter()
        .map(|(def, interior, steps, config)| BatchJob::new(def, &interior, steps, config))
        .collect();
    let baseline = BatchDriver::new(Arc::new(SerialBackend))
        .with_workers(1)
        .run(&jobs);
    for workers in [2usize, 3, 8] {
        let again = BatchDriver::new(Arc::new(SerialBackend))
            .with_workers(workers)
            .run(&jobs);
        for (a, b) in baseline.iter().zip(&again) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.checksum, b.checksum, "workers={workers} {}", a.name);
            assert_eq!(a.counters, b.counters, "workers={workers} {}", a.name);
        }
    }
}

/// A from-scratch serial re-implementation of the Section 6.3 tuning
/// flow: enumerate → plan → register-prune → rank by model → measure the
/// top-5 under every register cap → pick the best. The pool-backed
/// streaming tuner must reproduce it bit for bit.
fn serial_tune_reference(
    def: &an5d::StencilDef,
    problem: &StencilProblem,
    device: &an5d::GpuDevice,
    space: &an5d::SearchSpace,
) -> Vec<an5d::TunedCandidate> {
    use an5d::{measure, predict, RegisterCap};
    let mut ranked: Vec<(BlockConfig, KernelPlan, f64)> = Vec::new();
    for config in space.iter() {
        let Ok(plan) = KernelPlan::build(def, problem, &config, FrameworkScheme::an5d()) else {
            continue;
        };
        let regs = plan.resources().registers_per_thread;
        if regs > device.max_registers_per_thread
            || regs * plan.geometry().nthr > device.registers_per_sm
        {
            continue;
        }
        let score = predict(&plan, problem, device).gflops;
        ranked.push((config, plan, score));
    }
    ranked.sort_by(|a, b| b.2.total_cmp(&a.2));
    let mut measured: Vec<an5d::TunedCandidate> = Vec::new();
    for (config, plan, predicted_gflops) in ranked.into_iter().take(5) {
        let mut best: Option<an5d::TunedCandidate> = None;
        for cap in RegisterCap::tuning_candidates() {
            let Ok(m) = measure(&plan, problem, device, cap) else {
                continue;
            };
            let candidate = an5d::TunedCandidate {
                config: config.clone(),
                register_cap: cap,
                predicted_gflops,
                measured_gflops: m.gflops,
                measured_gcells: m.gcells,
                seconds: m.seconds,
            };
            if best
                .as_ref()
                .is_none_or(|b| candidate.measured_gflops > b.measured_gflops)
            {
                best = Some(candidate);
            }
        }
        measured.extend(best);
    }
    measured.sort_by(|a, b| b.measured_gflops.total_cmp(&a.measured_gflops));
    measured
}

#[test]
fn streaming_pool_backed_tuner_matches_a_serial_reference_sweep() {
    use an5d::{GpuDevice, SearchSpace, Tuner};
    let device = GpuDevice::tesla_v100();
    for (def, space) in [
        (
            an5d::suite::star2d(1),
            SearchSpace::paper(2, Precision::Single),
        ),
        (
            an5d::suite::star3d(1),
            SearchSpace::quick(3, Precision::Single),
        ),
    ] {
        let interior: Vec<usize> = match def.ndim() {
            2 => vec![2048, 2048],
            _ => vec![128, 128, 128],
        };
        let problem = StencilProblem::new(def.clone(), &interior, 64).unwrap();
        let expected = serial_tune_reference(&def, &problem, &device, &space);
        let result = Tuner::new(device.clone(), Precision::Single)
            .tune(&def, &problem, &space)
            .unwrap();
        assert_eq!(
            result.measured,
            expected,
            "{}: pool-backed tuner diverged from the serial reference",
            def.name()
        );
        assert_eq!(result.best, expected[0]);
    }
}

#[test]
fn warmed_cache_serves_the_same_plans_it_would_build_on_demand() {
    use an5d::WarmRequest;
    let scheme = FrameworkScheme::an5d();
    let requests: Vec<WarmRequest> = workloads()
        .into_iter()
        .map(|(def, interior, steps, config)| {
            let problem = StencilProblem::new(def.clone(), &interior, steps).unwrap();
            WarmRequest::new(def, problem, config, scheme)
        })
        .collect();

    let warmed = PlanCache::new(32);
    let stats = warmed.warm(&requests);
    assert_eq!(stats.built, requests.len());
    assert_eq!(stats.failed, 0);

    let cold = PlanCache::new(32);
    for request in &requests {
        let from_warm = warmed
            .get_or_build(&request.def, &request.problem, &request.config, scheme)
            .unwrap();
        let from_cold = cold
            .get_or_build(&request.def, &request.problem, &request.config, scheme)
            .unwrap();
        assert_eq!(*from_warm, *from_cold, "{}", request.def.name());
    }
    // Every post-warm lookup was a hit.
    assert_eq!(warmed.stats().misses, requests.len() as u64);
    assert_eq!(warmed.stats().hits, requests.len() as u64);
}
