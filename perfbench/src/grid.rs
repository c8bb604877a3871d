//! `execute_grid`: seeded `BatchDriver` jobs on the `vector` backend.
//!
//! Jobs cover j2d5pt and star3d1r in f32 and f64 at bT ∈ {2, 4, 8}, on
//! one working set that fits L2 (512² / 64³, 2 MiB per f64 grid) and one
//! far beyond it (2048², 32 MiB per f64 grid / 128³, 16 MiB). Every job
//! is checked against the benchmark's own naive stride-1 loop.

use crate::stats::{self, median, percentile, Ratio, Rng};
use crate::trace::Tracer;
use crate::{peak_rss_mib, Ctx, Report, SETUP_REPEATS};
use an5d::{
    default_tolerance, global_pool, suite, BackendElement, BatchDriver, BatchJob, BlockConfig,
    Element, ExecutionBackend, FrameworkScheme, Grid, GridInit, KernelPlan, Precision,
    StencilProblem, TrafficCounters, VectorCpuBackend,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const STEPS: usize = 8;
const BTS: [usize; 3] = [2, 4, 8];
/// Bytes copied by the memory-bandwidth ceiling: over 4x the 105 MiB L3
/// of the reference machine.
const COPY_BYTES: usize = 448 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stencil {
    J2d5pt,
    Star3d1r,
}

/// One (stencil, precision, size): the unit the naive oracle runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Case {
    stencil: Stencil,
    precision: Precision,
    large: bool,
}

impl Case {
    fn all() -> Vec<Case> {
        let mut out = Vec::new();
        for stencil in [Stencil::J2d5pt, Stencil::Star3d1r] {
            for precision in [Precision::Single, Precision::Double] {
                for large in [false, true] {
                    out.push(Case {
                        stencil,
                        precision,
                        large,
                    });
                }
            }
        }
        out
    }

    fn interior(&self) -> Vec<usize> {
        match (self.stencil, self.large) {
            (Stencil::J2d5pt, false) => vec![512, 512],
            (Stencil::J2d5pt, true) => vec![2048, 2048],
            (Stencil::Star3d1r, false) => vec![64, 64, 64],
            (Stencil::Star3d1r, true) => vec![128, 128, 128],
        }
    }

    fn def(&self) -> an5d::StencilDef {
        match self.stencil {
            Stencil::J2d5pt => suite::j2d5pt(),
            Stencil::Star3d1r => suite::star3d(1),
        }
    }

    fn config(&self, bt: usize) -> BlockConfig {
        let bs: &[usize] = match self.stencil {
            Stencil::J2d5pt => &[256],
            Stencil::Star3d1r => &[32, 32],
        };
        BlockConfig::new(bt, bs, None, self.precision).expect("valid benchmark config")
    }

    /// Useful interior cell updates of one job.
    fn useful_cells(&self) -> u128 {
        self.interior().iter().product::<usize>() as u128 * STEPS as u128
    }

    fn label(&self) -> String {
        format!(
            "{:?}/{}/{}",
            self.stencil,
            self.precision,
            self.interior()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("x")
        )
    }
}

/// The naive loop's result for one case: the oracle every job is held to.
struct Expected {
    case: Case,
    init: GridInit,
    /// The naive result, kept for the small grids that are also compared
    /// cell by cell (the large ones would only inflate peak memory).
    grid: Option<Grid<f64>>,
    checksum: f64,
    naive_s: f64,
}

// ---------------------------------------------------------------------
// The naive stride-1 loops (oracle and single-thread ceiling).
//
// They replay the suite definitions' expression order term by term, so
// f64 results are bit-identical to any correct executor:
//   j2d5pt   = (5.1·N + 12.1·W + 15.0·C + 12.2·E + 5.2·S) / 118
//   star3d1r = 0.4·C + Σ_k w_k·n_k, w_k = 0.6·k / 21, neighbours in the
//              order +i, −i, +j, −j, +k, −k.
// ---------------------------------------------------------------------

fn naive_j2d5pt<T: Element>(grid: &Grid<T>, steps: usize) -> Grid<T> {
    let (rows, cols) = (grid.shape()[0], grid.shape()[1]);
    let k = |c: f64| T::from_f64(c);
    let (k0, k1, k2, k3, k4, div) = (k(5.1), k(12.1), k(15.0), k(12.2), k(5.2), k(118.0));
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
                out[j] =
                    (k0 * up[j] + k1 * mid[j - 1] + k2 * mid[j] + k3 * mid[j + 1] + k4 * down[j])
                        / div;
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

fn naive_star3d1r<T: Element>(grid: &Grid<T>, steps: usize) -> Grid<T> {
    let (n0, n1, n2) = (grid.shape()[0], grid.shape()[1], grid.shape()[2]);
    let w = |k: usize| T::from_f64(0.6 * k as f64 / 21.0);
    let (c0, w1, w2, w3, w4, w5, w6) = (T::from_f64(0.4), w(1), w(2), w(3), w(4), w(5), w(6));
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
                    out[x] = c0 * c[x]
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

fn naive<T: Element>(case: &Case, grid: &Grid<T>) -> Grid<T> {
    match case.stencil {
        Stencil::J2d5pt => naive_j2d5pt(grid, STEPS),
        Stencil::Star3d1r => naive_star3d1r(grid, STEPS),
    }
}

fn grid_shape(case: &Case) -> Vec<usize> {
    case.interior().iter().map(|e| e + 2).collect()
}

/// Run the naive loop on the case's initial grid; returns the result in
/// f64, its checksum (summed like `BatchDriver`) and the loop's seconds.
fn run_naive(case: &Case, init: GridInit) -> (Grid<f64>, f64, f64) {
    fn go<T: Element>(case: &Case, init: GridInit) -> (Grid<f64>, f64, f64) {
        let initial = Grid::<T>::from_init(&grid_shape(case), init);
        let t = Instant::now();
        let out = black_box(naive(case, black_box(&initial)));
        let secs = t.elapsed().as_secs_f64();
        let checksum: f64 = out.as_slice().iter().map(|v| v.into_f64()).sum();
        (out.to_f64(), checksum, secs)
    }
    match case.precision {
        Precision::Single => go::<f32>(case, init),
        Precision::Double => go::<f64>(case, init),
    }
}

struct Job {
    case: usize,
    bt: usize,
}

fn batch_job(expected: &Expected, bt: usize) -> BatchJob {
    let case = &expected.case;
    BatchJob::new(case.def(), &case.interior(), STEPS, case.config(bt)).with_init(expected.init)
}

/// The per-job oracle: checksum within tolerance of the naive loop's,
/// and exactly interior × steps valid updates.
fn check_job(
    expected: &Expected,
    bt: usize,
    checksum: f64,
    counters: &TrafficCounters,
) -> Option<String> {
    let case = &expected.case;
    let tol = default_tolerance(case.precision, STEPS);
    let cells = grid_shape(case).iter().product::<usize>() as f64;
    if !within((checksum - expected.checksum).abs(), tol * cells) {
        return Some(format!(
            "{} bT={bt}: checksum {checksum} vs naive {} (tolerance {tol} per cell)",
            case.label(),
            expected.checksum
        ));
    }
    if counters.valid_updates != case.useful_cells() {
        return Some(format!(
            "{} bT={bt}: valid_updates {} != interior x steps {}",
            case.label(),
            counters.valid_updates,
            case.useful_cells()
        ));
    }
    None
}

fn setup(ctx: &Ctx) -> Vec<Expected> {
    let mut rng = Rng::new(ctx.seed);
    Case::all()
        .into_iter()
        .map(|case| {
            let init = GridInit::Hash {
                seed: rng.next_u64(),
            };
            let (grid, checksum, naive_s) = run_naive(&case, init);
            Expected {
                case,
                init,
                grid: (!case.large).then_some(grid),
                checksum,
                naive_s,
            }
        })
        .collect()
}

/// Seeded rounds: every round is a fresh permutation of the job kinds
/// of `cases` (all three bT of each, as often as the case is listed), so
/// every seed runs the same mix in a different order.
fn round(rng: &mut Rng, cases: &[usize]) -> Vec<Job> {
    let mut jobs: Vec<Job> = cases
        .iter()
        .flat_map(|&case| BTS.iter().map(move |&bt| Job { case, bt }))
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

struct Loop {
    latencies_us: Vec<f64>,
    /// The same latencies by job kind (case index, bT).
    by_kind: BTreeMap<(usize, usize), Vec<f64>>,
    wall_s: f64,
    useful_cells: u128,
}

impl Loop {
    /// Every job's time replaced by the median time of its kind,
    /// ascending: the sample the job-time percentiles are taken over, so
    /// a percentile moves with a kind's typical time rather than with its
    /// slowest or fastest job.
    fn kind_median_per_job_us(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .by_kind
            .values()
            .flat_map(|v| std::iter::repeat_n(median(v), v.len()))
            .collect();
        stats::sort(&mut out);
        out
    }
}

/// How a loop spends its budget.
#[derive(Clone, Copy)]
enum Budget {
    /// Whole rounds of every job kind, the L2-resident ones twice, ending
    /// as near the budget as the length of a round allows: the untraced
    /// run, whose mix is fixed.
    WholeRounds,
    /// Rounds of the L2-resident kinds, stopping as soon as the budget is
    /// spent: the traced run's shares of a few seconds.
    SmallKinds,
}

/// Run jobs until the budget is spent.
fn run_loop(
    budget_s: f64,
    budget: Budget,
    rng: &mut Rng,
    expected: &[Expected],
    report: &mut Report,
    mut one: impl FnMut(&Expected, usize, u64) -> (f64, TrafficCounters),
) -> Loop {
    let small = (0..expected.len()).filter(|&i| !expected[i].case.large);
    let cases: Vec<usize> = match budget {
        // The L2-resident kinds are an order of magnitude faster than the
        // others. Run once each, they would put the job-time median on the
        // edge between the two groups, where it is the slowest L2-resident
        // kind's time and moves by a third between runs; run twice, they
        // put it inside their own group. They add about a tenth to a
        // round's time.
        Budget::WholeRounds => (0..expected.len()).chain(small).collect(),
        Budget::SmallKinds => small.collect(),
    };
    let started = Instant::now();
    let mut out = Loop {
        latencies_us: Vec::new(),
        by_kind: BTreeMap::new(),
        wall_s: 0.0,
        useful_cells: 0,
    };
    let mut op = 0u64;
    let mut round_s = 0.0;
    'rounds: while started.elapsed().as_secs_f64() + round_s / 2.0 < budget_s {
        let round_start = Instant::now();
        for job in round(rng, &cases) {
            if matches!(budget, Budget::SmallKinds)
                && op > 0
                && started.elapsed().as_secs_f64() >= budget_s
            {
                break 'rounds;
            }
            let exp = &expected[job.case];
            let t = Instant::now();
            let (checksum, counters) = one(exp, job.bt, op);
            let us = stats::us(t.elapsed());
            out.latencies_us.push(us);
            out.by_kind.entry((job.case, job.bt)).or_default().push(us);
            op += 1;
            report.attempted += 1;
            out.useful_cells += exp.case.useful_cells();
            if let Some(miss) = check_job(exp, job.bt, checksum, &counters) {
                report.miss(miss);
            }
        }
        round_s = round_start.elapsed().as_secs_f64();
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

fn driver() -> BatchDriver {
    BatchDriver::new(Arc::new(VectorCpuBackend::new(2))).with_workers(2)
}

/// One job through the driver. A failed job comes back with no counters,
/// so the update-count oracle records it as a miss.
fn via_driver(driver: &BatchDriver, exp: &Expected, bt: usize) -> (f64, TrafficCounters) {
    match driver.run(&[batch_job(exp, bt)]).pop() {
        Some(Ok(outcome)) => (outcome.checksum, outcome.counters),
        failed => {
            if let Some(Err(e)) = failed {
                eprintln!("perfbench: job failed: {e}");
            }
            (f64::NAN, TrafficCounters::new())
        }
    }
}

/// Element-wise oracle outside the timed loop: every small-grid job kind
/// run once directly on the backend, compared cell by cell with the
/// naive loop. (Large-grid jobs are held to the checksum and update-count
/// oracle of every timed job; a cell-by-cell pass over them would cost
/// more than the timed loop itself.)
fn verify_elementwise(expected: &[Expected], report: &mut Report) {
    let backend = VectorCpuBackend::new(2);
    for exp in expected {
        let Some(naive) = &exp.grid else {
            continue;
        };
        for bt in BTS {
            let case = &exp.case;
            let problem = StencilProblem::new(case.def(), &case.interior(), STEPS)
                .expect("valid benchmark problem");
            let plan = KernelPlan::build(
                &case.def(),
                &problem,
                &case.config(bt),
                FrameworkScheme::an5d(),
            )
            .expect("valid benchmark plan");
            let got = match case.precision {
                Precision::Single => execute::<f32>(&backend, &plan, &problem, exp.init),
                Precision::Double => execute::<f64>(&backend, &plan, &problem, exp.init),
            };
            let tol = default_tolerance(case.precision, STEPS);
            let worst = worst_diff(got.as_slice(), naive.as_slice());
            report.attempted += 1;
            if !within(worst, tol) {
                report.miss(format!(
                    "{} bT={bt}: max |blocked - naive| = {worst:e} > {tol:e}",
                    case.label()
                ));
            }
        }
    }
}

/// `value <= limit`; false for a NaN value, so a NaN result is a miss.
fn within(value: f64, limit: f64) -> bool {
    value <= limit
}

/// The largest `|a - b|`, or NaN as soon as one difference is NaN.
fn worst_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(
            0.0,
            |worst, d| if d.is_nan() || d > worst { d } else { worst },
        )
}

fn execute<T: BackendElement>(
    backend: &dyn ExecutionBackend,
    plan: &KernelPlan,
    problem: &StencilProblem,
    init: GridInit,
) -> Grid<f64> {
    let initial = Grid::<T>::from_init(&problem.grid_shape(), init);
    T::execute_on(backend, plan, problem, initial).grid.to_f64()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    // Time from process start to the first set-up, plus the median
    // set-up.
    let before = ctx.start.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..ctx.setup_repeats() {
        let t = Instant::now();
        expected = setup(ctx);
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = before + median(&setups);
    let mut rng = Rng::new(ctx.seed ^ 0xE8EC);
    let driver = driver();

    if !ctx.trace {
        let run = run_loop(
            ctx.seconds,
            Budget::WholeRounds,
            &mut rng,
            &expected,
            &mut report,
            |exp, bt, _| via_driver(&driver, exp, bt),
        );
        let mut lat = run.latencies_us.clone();
        stats::sort(&mut lat);
        report.metric(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUP_REPEATS} set-ups: naive oracle on 8 grids"),
        );
        report.metric(
            "ops_per_s",
            lat.len() as f64 / run.wall_s,
            "1/s",
            format!("{} jobs in {:.3} s", lat.len(), run.wall_s),
        );
        report.info(
            "mcells_per_s",
            run.useful_cells as f64 / run.wall_s / 1e6,
            "Mcells/s",
            format!(
                "useful interior cell updates ({}) per wall second",
                run.useful_cells
            ),
        );
        let kinds = run.kind_median_per_job_us();
        let note = format!(
            "{} jobs, each at its kind's median time ({} kinds)",
            kinds.len(),
            run.by_kind.len()
        );
        report.metric(
            "latency_p50_us",
            percentile(&kinds, 50.0),
            "us",
            note.clone(),
        );
        report.metric("latency_p90_us", percentile(&kinds, 90.0), "us", note);
        report.metric(
            "peak_rss_mib",
            peak_rss_mib(None),
            "MiB",
            "VmHWM of the benchmark process",
        );
        verify_elementwise(&expected, &mut report);
        return Ok(report);
    }

    // Traced run, on the L2-resident job kinds only (a traced large-grid
    // job takes seconds, and the traced run has a share of `--seconds`):
    // an untraced segment through the driver for the end-to-end median,
    // then every job decomposed into its layer calls, once with spans
    // recorded and once with the tracer disabled (the overhead base), in
    // alternating order; then the same job on `vector:1`, outside both.
    let third = ctx.seconds / 3.0;
    let untraced = run_loop(
        third,
        Budget::SmallKinds,
        &mut rng,
        &expected,
        &mut report,
        |exp, bt, _| via_driver(&driver, exp, bt),
    );
    let mut tracer = Tracer::new(ctx.start);
    let mut spans_off = Tracer::disabled(ctx.start);
    let one_thread = VectorCpuBackend::new(1);
    let mut totals = TrafficCounters::new();
    let mut gm_bytes = 0u128;
    let (mut exec_s, mut exec_1t_s, mut naive_s) = (0.0, 0.0, 0.0);
    let mut pool = PoolDelta::default();
    let (mut on_us, mut off_us) = (Vec::new(), Vec::new());
    let mut off_results = Vec::new();
    let traced = run_loop(
        third,
        Budget::SmallKinds,
        &mut rng,
        &expected,
        &mut report,
        |exp, bt, op| {
            let case = &exp.case;
            let mut run = |tracer: &mut Tracer| decomposed(tracer, &driver, exp, bt, op, &mut pool);
            let (on, off) = if op % 2 == 0 {
                let on = run(&mut tracer);
                (on, run(&mut spans_off))
            } else {
                let off = run(&mut spans_off);
                (run(&mut tracer), off)
            };
            on_us.push(on.job_us);
            off_us.push(off.job_us);
            let case_index = expected
                .iter()
                .position(|e| e.case == *case)
                .expect("the job's case");
            off_results.push((case_index, bt, off.checksum, off.counters));
            let t = Instant::now();
            let span = tracer.begin(op, None, "backend.execute_1t");
            let _ = match case.precision {
                Precision::Single => execute::<f32>(&one_thread, &on.plan, &on.problem, exp.init),
                Precision::Double => execute::<f64>(&one_thread, &on.plan, &on.problem, exp.init),
            };
            tracer.end(span);
            exec_1t_s += t.elapsed().as_secs_f64();
            exec_s += on.execute_s;
            naive_s += exp.naive_s;
            totals += on.counters;
            gm_bytes += on.counters.gm_bytes(case.precision.bytes());
            (on.checksum, on.counters)
        },
    );
    for (case_index, bt, checksum, counters) in off_results {
        report.attempted += 1;
        if let Some(miss) = check_job(&expected[case_index], bt, checksum, &counters) {
            report.miss(format!("spans off: {miss}"));
        }
    }

    let mut lat_untraced = untraced.latencies_us.clone();
    stats::sort(&mut lat_untraced);
    let untraced_p50 = percentile(&lat_untraced, 50.0);
    let medians = tracer.medians_us();
    let m = |name: &str| medians.get(name).copied().unwrap_or(0.0);

    report.metric(
        "backend.execute_ms",
        m("backend.execute") / 1e3,
        "ms",
        format!(
            "median vector ({} executors) run per L2-resident job, n={}",
            2,
            traced.latencies_us.len()
        ),
    );
    report.metric(
        "backend.execute_1t_ms",
        m("backend.execute_1t") / 1e3,
        "ms",
        "median vector:1 run of the same jobs",
    );
    report.ratio(
        "backend.thread_speedup",
        Ratio::new(exec_1t_s, exec_s),
        "vector:1 seconds / vector seconds, same jobs",
    );
    report.metric(
        "backend.plan_us",
        m("backend.plan"),
        "us",
        "median PlanCache::get_or_build per job (driver cache)",
    );
    report.ratio(
        "gpusim.redundant_share",
        Ratio::new(
            (totals.cell_updates - totals.valid_updates) as f64,
            totals.cell_updates as f64,
        ),
        "(computed - valid) / computed cell updates",
    );
    report.per(
        "gpusim.gm_bytes_per_cell",
        Ratio::new(gm_bytes as f64, totals.valid_updates as f64),
        "B/cell",
        "computed global-memory bytes / valid updates",
    );
    report.per(
        "gpusim.flops_per_cell",
        Ratio::new(totals.flops as f64, totals.valid_updates as f64),
        "flop/cell",
        "flops / valid updates",
    );
    report.per(
        "runtime.batch_wall_us",
        Ratio::new(pool.micros as f64, pool.batches as f64),
        "us",
        "pool batch-wall µs / batches, summed over the vector runs of the decomposed jobs",
    );

    // Ceilings on the same grids: the naive loop, single thread, and a
    // copy over an array far beyond the last-level cache.
    let mut naive_cells = 0u128;
    let mut naive_secs = 0.0;
    for exp in expected.iter().filter(|e| e.case.large) {
        let (_, _, secs) = run_naive(&exp.case, exp.init);
        naive_cells += exp.case.useful_cells();
        naive_secs += secs;
    }
    report.metric(
        "ceiling.naive_mcells_per_s",
        naive_cells as f64 / naive_secs / 1e6,
        "Mcells/s",
        format!("single-thread naive loop over 2048^2 and 128^3, f32+f64, {STEPS} steps"),
    );
    report.metric(
        "ceiling.copy_gb_per_s",
        copy_gb_per_s(),
        "GB/s",
        format!(
            "copy of a {} MiB array into another, bytes copied / s",
            COPY_BYTES >> 20
        ),
    );
    report.ratio(
        "kernel.fraction_of_naive",
        Ratio::new(naive_s, exec_1t_s),
        "naive seconds / vector:1 seconds, same jobs",
    );
    report.overhead(
        off_us.iter().sum(),
        on_us.iter().sum(),
        &format!("summed over {} decomposed jobs run both ways", on_us.len()),
    );
    report.reconcile(
        &medians,
        &["grid.init", "backend.plan", "backend.execute", "checksum"],
        untraced_p50,
        format!("untraced BatchDriver job p50, n={}", lat_untraced.len()),
    );
    verify_elementwise(&expected, &mut report);
    tracer
        .write_jsonl(&ctx.trace_path("execute_grid"))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(report)
}

/// Pool batch statistics summed over bracketed backend runs.
#[derive(Default)]
struct PoolDelta {
    batches: u64,
    micros: u64,
}

/// One job decomposed into its layer calls.
struct Decomposed {
    plan: Arc<KernelPlan>,
    problem: StencilProblem,
    checksum: f64,
    counters: TrafficCounters,
    /// The whole job, timed outside the spans.
    job_us: f64,
    execute_s: f64,
}

/// Plan lookup in the driver's cache, grid initialisation, the backend
/// run and the checksum, each inside a span of `tracer` (which may be
/// disabled). The pool's statistics are taken around the backend run
/// only and added to `pool`.
fn decomposed(
    tracer: &mut Tracer,
    driver: &BatchDriver,
    exp: &Expected,
    bt: usize,
    op: u64,
    pool: &mut PoolDelta,
) -> Decomposed {
    fn go<T: BackendElement>(
        tracer: &mut Tracer,
        op: u64,
        root: usize,
        backend: &dyn ExecutionBackend,
        plan: &KernelPlan,
        problem: &StencilProblem,
        init: GridInit,
    ) -> (f64, TrafficCounters, f64, PoolDelta) {
        let initial = tracer.time(op, Some(root), "grid.init", || {
            Grid::<T>::from_init(&problem.grid_shape(), init)
        });
        let before = global_pool().stats();
        let t = Instant::now();
        let run = tracer.time(op, Some(root), "backend.execute", || {
            T::execute_on(backend, plan, problem, initial)
        });
        let secs = t.elapsed().as_secs_f64();
        let after = global_pool().stats();
        let delta = PoolDelta {
            batches: after.batches_executed - before.batches_executed,
            micros: after.total_batch_micros - before.total_batch_micros,
        };
        let checksum = tracer.time(op, Some(root), "checksum", || {
            run.grid
                .as_slice()
                .iter()
                .map(|v| v.into_f64())
                .sum::<f64>()
        });
        (checksum, run.counters, secs, delta)
    }

    let case = &exp.case;
    let t = Instant::now();
    let root = tracer.begin(op, None, "job");
    let problem =
        StencilProblem::new(case.def(), &case.interior(), STEPS).expect("valid benchmark problem");
    let plan = tracer
        .time(op, Some(root), "backend.plan", || {
            driver.cache().get_or_build(
                &case.def(),
                &problem,
                &case.config(bt),
                FrameworkScheme::an5d(),
            )
        })
        .expect("valid benchmark plan");
    let backend = driver.backend();
    let (checksum, counters, execute_s, delta) = match case.precision {
        Precision::Single => go::<f32>(
            tracer,
            op,
            root,
            backend.as_ref(),
            &plan,
            &problem,
            exp.init,
        ),
        Precision::Double => go::<f64>(
            tracer,
            op,
            root,
            backend.as_ref(),
            &plan,
            &problem,
            exp.init,
        ),
    };
    tracer.end(root);
    pool.batches += delta.batches;
    pool.micros += delta.micros;
    Decomposed {
        plan,
        problem,
        checksum,
        counters,
        job_us: stats::us(t.elapsed()),
        execute_s,
    }
}

/// Bytes copied per second over a `COPY_BYTES` array (median of 3).
fn copy_gb_per_s() -> f64 {
    let src = vec![1u64; COPY_BYTES / 8];
    let mut dst = vec![0u64; COPY_BYTES / 8];
    let mut rates = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        rates.push(COPY_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_take_each_job_at_its_kinds_median() {
        let mut run = Loop {
            latencies_us: Vec::new(),
            by_kind: BTreeMap::new(),
            wall_s: 0.0,
            useful_cells: 0,
        };
        // An outlier within a kind does not reach the percentiles; each
        // kind weighs as many jobs as it ran.
        run.by_kind.insert((0, 2), vec![10.0, 12.0, 11.0, 90.0]);
        run.by_kind.insert((0, 4), vec![20.0, 21.0, 22.0]);
        run.by_kind.insert((1, 2), vec![500.0]);
        let jobs = run.kind_median_per_job_us();
        assert_eq!(jobs, [11.0, 11.0, 11.0, 11.0, 21.0, 21.0, 21.0, 500.0]);
        assert_eq!(percentile(&jobs, 50.0), 11.0);
        assert_eq!(percentile(&jobs, 90.0), 500.0);
    }

    #[test]
    fn naive_loops_match_the_reference_executor_bit_for_bit() {
        for (case, interior) in [
            (
                Case {
                    stencil: Stencil::J2d5pt,
                    precision: Precision::Double,
                    large: false,
                },
                vec![13, 17],
            ),
            (
                Case {
                    stencil: Stencil::Star3d1r,
                    precision: Precision::Double,
                    large: false,
                },
                vec![7, 9, 11],
            ),
        ] {
            let problem = StencilProblem::new(case.def(), &interior, STEPS).unwrap();
            let init = GridInit::Hash { seed: 3 };
            let reference = an5d::reference::run_reference::<f64>(&problem, init);
            let initial = Grid::<f64>::from_init(&problem.grid_shape(), init);
            let ours = naive(&case, &initial);
            assert_eq!(ours.as_slice(), reference.as_slice(), "{case:?}");
        }
    }

    fn expected_small_f64() -> Expected {
        Expected {
            case: Case {
                stencil: Stencil::J2d5pt,
                precision: Precision::Double,
                large: false,
            },
            init: GridInit::Hash { seed: 1 },
            grid: None,
            checksum: 1.0,
            naive_s: 0.0,
        }
    }

    #[test]
    fn a_nan_checksum_is_a_miss() {
        let exp = expected_small_f64();
        let mut counters = TrafficCounters::new();
        counters.valid_updates = exp.case.useful_cells();
        assert!(check_job(&exp, 2, 1.0, &counters).is_none());
        assert!(check_job(&exp, 2, f64::NAN, &counters).is_some());
        assert!(check_job(&exp, 2, f64::INFINITY, &counters).is_some());
        assert!(!within(f64::NAN, 1.0));
    }

    #[test]
    fn a_nan_cell_is_the_worst_difference() {
        assert_eq!(worst_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert!(worst_diff(&[f64::NAN, 2.0], &[1.0, 2.5]).is_nan());
        assert!(worst_diff(&[1.0, f64::NAN], &[1.0, 2.5]).is_nan());
        assert!(worst_diff(&[1.0, 9.0, 2.0], &[1.0, f64::NAN, 2.5]).is_nan());
    }
}
