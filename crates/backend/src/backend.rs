//! The [`ExecutionBackend`] trait and its CPU implementations.

use an5d_gpusim::{execute_plan_on, run_temporal_blocks, BlockedRun, TrafficCounters};
use an5d_grid::{Element, Grid};
use an5d_plan::KernelPlan;
use an5d_stencil::StencilProblem;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Grid element types a backend can execute (`f32` and `f64`).
///
/// The trait routes a generic element type to the matching monomorphic
/// [`ExecutionBackend`] method, so generic code (tests, the batch driver)
/// can run any backend through a `dyn` reference.
pub trait BackendElement: Element + Send + Sync + sealed::Sealed {
    /// Execute `plan` on `backend` starting from `initial`.
    fn execute_on(
        backend: &dyn ExecutionBackend,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<Self>,
    ) -> BlockedRun<Self>;
}

impl BackendElement for f32 {
    fn execute_on(
        backend: &dyn ExecutionBackend,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f32>,
    ) -> BlockedRun<f32> {
        backend.execute_f32(plan, problem, initial)
    }
}

impl BackendElement for f64 {
    fn execute_on(
        backend: &dyn ExecutionBackend,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f64>,
    ) -> BlockedRun<f64> {
        backend.execute_f64(plan, problem, initial)
    }
}

/// An execution strategy for blocked kernel plans.
///
/// A backend takes a [`KernelPlan`] plus a [`StencilProblem`] and produces
/// the final grid and the [`an5d_gpusim::TrafficCounters`] of the run.
/// Every implementation must be *semantically transparent*: for the same
/// inputs it must return bit-identical grids and identical counter totals
/// as the reference serial driver ([`an5d_gpusim::execute_plan_on`]) —
/// backends may only change *how fast* the answer arrives, never the
/// answer.
pub trait ExecutionBackend: Send + Sync {
    /// Registry name of this backend (e.g. `"serial"`, `"vector"`).
    fn name(&self) -> &'static str;

    /// Human-readable description of the schedule (worker count etc.).
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// Execute a plan over single-precision cells.
    fn execute_f32(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f32>,
    ) -> BlockedRun<f32>;

    /// Execute a plan over double-precision cells.
    fn execute_f64(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f64>,
    ) -> BlockedRun<f64>;
}

/// The reference backend: one thread, tiles in canonical order, exactly
/// the behaviour of [`an5d_gpusim::execute_plan_on`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialBackend;

impl ExecutionBackend for SerialBackend {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn execute_f32(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f32>,
    ) -> BlockedRun<f32> {
        let _span = an5d_obs::Span::enter("backend.execute");
        execute_plan_on(plan, problem, initial)
    }

    fn execute_f64(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f64>,
    ) -> BlockedRun<f64> {
        let _span = an5d_obs::Span::enter("backend.execute");
        execute_plan_on(plan, problem, initial)
    }
}

/// Vectorized, tile-parallel CPU backend.
///
/// Within each temporal block the spatial tiles are independent: every
/// tile reads only the immutable input grid and owns a disjoint write-back
/// region of the output grid. This backend fans the tiles of each temporal
/// block across the shared persistent worker pool
/// ([`an5d_runtime::global`]), with tiles claimed one at a time (dynamic
/// scheduling, so an expensive tile never serialises a static chunk
/// behind it), collects the detached [`an5d_gpusim::TileRun`]s, and
/// applies them **in canonical tile order** on the driving thread, one
/// row copy per innermost row of each write-back region. Temporal blocks
/// stay sequential (block *k + 1* consumes the grid block *k* produced).
/// The run clones the initial grid once; the two grids then swap roles
/// between blocks ([`an5d_gpusim::run_temporal_blocks`]).
///
/// Each tile runs through the row-major fast path
/// ([`an5d_gpusim::TileContext::execute_tile_rows`]): the stencil
/// expression, compiled once per plan and local stride set, is a postfix
/// tape with its constant and cell operands fused into the operations,
/// evaluated over fixed-width lane blocks of contiguous stride-1 rows,
/// with all halo/bounds logic hoisted out of the inner loops — the shape
/// the compiler autovectorizes. Monomorphic `f32`/`f64` specialization
/// comes from the [`BackendElement`] seal, so both precisions get their
/// own vector code.
///
/// Determinism: every cell value is produced by exactly one tile through
/// the identical scalar operation sequence as [`SerialBackend`] (the tape
/// applies the expression tree's operations in the recursive evaluator's
/// order and operand order, and lanes never interact), and counters are
/// aggregated in canonical tile order — grids *and* counter totals are
/// bit-identical to the serial driver for any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorCpuBackend {
    threads: usize,
}

impl VectorCpuBackend {
    /// A backend with an explicit tile-execution concurrency cap
    /// (clamped to ≥ 1): at most `threads` threads — pool workers plus
    /// the driving thread — execute tiles at once.
    ///
    /// The clamp is for programmatic construction only; the string
    /// registry rejects `"vector:0"` as an invalid spec (see
    /// [`crate::create_backend`]) instead of masking the zero.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A backend with one executor per available CPU.
    #[must_use]
    pub fn with_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::new(threads)
    }

    /// The tile-execution concurrency cap.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn execute<T: BackendElement>(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<T>,
    ) -> BlockedRun<T> {
        let _span = an5d_obs::Span::enter("backend.execute");
        let pool = an5d_runtime::global();
        run_temporal_blocks(plan, problem, initial, |ctx, current, chunk, next| {
            // The slot index doubles as the tile index, keeping
            // aggregation order canonical no matter which thread ran
            // which tile.
            let tiles = ctx.tiles();
            let runs = pool.map_indexed_limited(self.threads, tiles.len(), |k| {
                ctx.execute_tile_rows(current, &tiles[k], chunk)
            });

            // Deterministic aggregation: apply write-backs and sum counters
            // in canonical tile order on the driving thread.
            let mut counters = TrafficCounters::new();
            for run in runs {
                run.apply_to(next);
                counters += run.counters;
            }
            counters
        })
    }
}

impl Default for VectorCpuBackend {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

impl ExecutionBackend for VectorCpuBackend {
    fn name(&self) -> &'static str {
        "vector"
    }

    fn describe(&self) -> String {
        format!("vector ({} pool executors, row kernels)", self.threads)
    }

    fn execute_f32(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f32>,
    ) -> BlockedRun<f32> {
        self.execute(plan, problem, initial)
    }

    fn execute_f64(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f64>,
    ) -> BlockedRun<f64> {
        self.execute(plan, problem, initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::{GridInit, Precision};
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::suite;

    fn setup(
        interior: &[usize],
        steps: usize,
        bt: usize,
        bs: &[usize],
        hsn: Option<usize>,
    ) -> (KernelPlan, StencilProblem, Grid<f64>) {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
        let config = BlockConfig::new(bt, bs, hsn, Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let initial = Grid::<f64>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 77 });
        (plan, problem, initial)
    }

    #[test]
    fn vector_handles_more_workers_than_tiles() {
        let (plan, problem, initial) = setup(&[16, 16], 3, 3, &[16], None);
        let serial = SerialBackend.execute_f64(&plan, &problem, initial.clone());
        let vector = VectorCpuBackend::new(64).execute_f64(&plan, &problem, initial);
        assert_eq!(serial.grid, vector.grid);
        assert_eq!(serial.counters, vector.counters);
    }

    #[test]
    fn generic_dispatch_reaches_the_right_method() {
        let (plan, problem, initial) = setup(&[20, 20], 4, 2, &[10], None);
        let backend: &dyn ExecutionBackend = &VectorCpuBackend::new(2);
        let via_trait = f64::execute_on(backend, &plan, &problem, initial.clone());
        let direct = VectorCpuBackend::new(2).execute_f64(&plan, &problem, initial);
        assert_eq!(via_trait.grid, direct.grid);
    }

    #[test]
    fn thread_count_is_clamped_to_at_least_one() {
        assert_eq!(VectorCpuBackend::new(0).threads(), 1);
    }

    #[test]
    fn describe_mentions_the_worker_count() {
        assert!(VectorCpuBackend::new(4).describe().contains('4'));
        assert_eq!(SerialBackend.describe(), "serial");
    }

    #[test]
    fn vector_matches_serial_bitwise_across_thread_counts() {
        let (plan, problem, initial) = setup(&[32, 28], 7, 3, &[12], Some(12));
        let serial = SerialBackend.execute_f64(&plan, &problem, initial.clone());
        for threads in [1, 2, 3, 8] {
            let vector =
                VectorCpuBackend::new(threads).execute_f64(&plan, &problem, initial.clone());
            assert_eq!(serial.grid, vector.grid, "{threads} threads");
            assert_eq!(serial.counters, vector.counters, "{threads} threads");
        }
    }

    /// The tile-parallel fan-out on a ragged tiling (the last tile is
    /// narrower) with a partial last temporal block (9 = 4 + 4 + 1 steps).
    #[test]
    fn parallel_matches_serial_bitwise_across_thread_counts() {
        let (plan, problem, initial) = setup(&[41, 29], 9, 4, &[16], Some(10));
        let serial = SerialBackend.execute_f64(&plan, &problem, initial.clone());
        for threads in [1, 2, 3, 8] {
            let parallel =
                VectorCpuBackend::new(threads).execute_f64(&plan, &problem, initial.clone());
            assert_eq!(serial.grid, parallel.grid, "{threads} threads");
            assert_eq!(serial.counters, parallel.counters, "{threads} threads");
        }
    }

    #[test]
    fn vector_matches_serial_bitwise_in_single_precision() {
        let def = suite::gradient2d();
        let problem = StencilProblem::new(def.clone(), &[26, 22], 5).unwrap();
        let config = BlockConfig::new(2, &[10], None, Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let initial = Grid::<f32>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 31 });
        let serial = SerialBackend.execute_f32(&plan, &problem, initial.clone());
        let vector = VectorCpuBackend::new(3).execute_f32(&plan, &problem, initial);
        assert_eq!(serial.grid, vector.grid);
        assert_eq!(serial.counters, vector.counters);
    }
}
