//! `compile_cold`: C source → tuned plan → CUDA, always cold.
//!
//! Each operation parses one of the 21 Table 3 stencils from the C
//! source `emit_c_source` renders, tunes it with the paper's search
//! space on the paper-scale problem against a fresh `PlanCache` and a
//! fresh `TuneDb` (a miss, so the winner is appended with fsync), and
//! generates CUDA for the winner. Devices rotate through the registry.

use crate::stats::{self, median, percentile, Ratio, Rng};
use crate::trace::Tracer;
use crate::{peak_rss_mib, Ctx, Report, SETUP_REPEATS};
use an5d::{
    emit_c_source, generate_cuda_for_plan, measure_best_cap, parse_stencil, predict,
    standard_registry, suite, An5d, BlockConfig, DeviceId, ExecutionBackend, FrameworkScheme,
    GpuDevice, KernelPlan, PlanCache, Precision, SearchSpace, StencilDef, TuneDb, Tuner,
    VectorCpuBackend,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

struct Inputs {
    defs: Vec<StencilDef>,
    sources: Vec<String>,
    devices: Vec<(DeviceId, GpuDevice)>,
    dir: PathBuf,
}

fn setup(ctx: &Ctx) -> Result<Inputs, String> {
    let defs = suite::all_benchmarks();
    let sources = defs.iter().map(|d| emit_c_source(d, "A")).collect();
    let devices = standard_registry()
        .devices()
        .map(|(id, d)| (id.clone(), d.clone()))
        .collect();
    let dir = ctx.out_dir.join(format!("compile-seed{}", ctx.seed));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(Inputs {
        defs,
        sources,
        devices,
        dir,
    })
}

/// One operation's draw.
#[derive(Clone, Copy)]
struct Draw {
    stencil: usize,
    precision: Precision,
    device: usize,
}

/// Seeded rounds: each round is a permutation of every (stencil,
/// precision, device) combination, so every seed measures the same mix.
struct Draws {
    rng: Rng,
    pending: Vec<Draw>,
    devices: usize,
    stencils: usize,
}

impl Draws {
    /// The next draw, and whether it starts a new round.
    fn next(&mut self) -> (Draw, bool) {
        let round_start = self.pending.is_empty();
        if round_start {
            for stencil in 0..self.stencils {
                for precision in [Precision::Single, Precision::Double] {
                    for device in 0..self.devices {
                        self.pending.push(Draw {
                            stencil,
                            precision,
                            device,
                        });
                    }
                }
            }
            self.rng.shuffle(&mut self.pending);
        }
        (self.pending.pop().expect("refilled above"), round_start)
    }
}

struct Outcome {
    latency_us: f64,
    winner: BlockConfig,
}

fn fresh_db(dir: &Path, op: u64, sync: bool) -> Result<(TuneDb, PathBuf), String> {
    let path = dir.join(format!("op{op}.tunedb"));
    let _ = std::fs::remove_file(&path);
    let db = TuneDb::open(&path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?
        .sync_on_append(sync);
    Ok((db, path))
}

/// The untimed check of one operation's outputs.
fn check(
    inputs: &Inputs,
    draw: Draw,
    parsed: &StencilDef,
    from_db: bool,
    persist_error: Option<&str>,
    kernel: &str,
) -> Option<String> {
    let name = inputs.defs[draw.stencil].name();
    if parsed != &inputs.defs[draw.stencil] {
        return Some(format!(
            "{name}: parsed definition differs from the suite definition"
        ));
    }
    if from_db {
        return Some(format!("{name}: fresh tune DB answered a hit"));
    }
    if let Some(e) = persist_error {
        return Some(format!("{name}: tune DB append failed: {e}"));
    }
    if !kernel.contains("__global__") {
        return Some(format!(
            "{name}: generated kernel has no __global__ function"
        ));
    }
    None
}

/// One cold compile through the facade; `sync` makes the tune DB fsync
/// its append.
fn facade_op(
    inputs: &Inputs,
    draw: Draw,
    op: u64,
    sync: bool,
    report: &mut Report,
) -> Result<Outcome, String> {
    let def = &inputs.defs[draw.stencil];
    let (id, device) = &inputs.devices[draw.device];
    let (db, path) = fresh_db(&inputs.dir, op, sync)?;
    let cache = Arc::new(PlanCache::default());
    let t = Instant::now();
    let an5d = An5d::from_c_source(&inputs.sources[draw.stencil], def.name())
        .map_err(|e| format!("{}: {e}", def.name()))?;
    let problem = an5d.paper_problem();
    let space = SearchSpace::paper(def.ndim(), draw.precision);
    let tuned = an5d
        .tune_with_db(&problem, id, device, &space, cache, &db, false)
        .map_err(|e| format!("{}: {e}", def.name()))?;
    let code = an5d
        .generate_cuda(&problem, &tuned.result.best.config)
        .map_err(|e| format!("{}: {e}", def.name()))?;
    let latency_us = stats::us(t.elapsed());
    report.attempted += 1;
    if let Some(miss) = check(
        inputs,
        draw,
        an5d.def(),
        tuned.from_db,
        tuned.persist_error.as_deref(),
        &code.kernel_source,
    ) {
        report.miss(miss);
    }
    drop(db);
    let _ = std::fs::remove_file(path);
    Ok(Outcome {
        latency_us,
        winner: tuned.result.best.config,
    })
}

/// Per-operation figures only the traced run collects.
#[derive(Default)]
struct Counts {
    candidates: Vec<f64>,
    ranked: f64,
    total: f64,
    lines: Vec<f64>,
}

/// The same cold compile, decomposed into its layer calls inside spans
/// of `tracer` (which may be disabled); the returned latency is timed
/// outside the spans. The plan/predict/measure replay over the op's
/// candidates runs after the operation's root span, outside the
/// blocking path.
fn traced_op(
    inputs: &Inputs,
    draw: Draw,
    op: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
    report: &mut Report,
) -> Result<Outcome, String> {
    let def = &inputs.defs[draw.stencil];
    let (id, device) = &inputs.devices[draw.device];
    let (db, path) = fresh_db(&inputs.dir, op, true)?;
    let cache = Arc::new(PlanCache::default());
    let t = Instant::now();
    let root = tracer.begin(op, None, "op");
    let detected = tracer
        .time(op, Some(root), "frontend.parse", || {
            parse_stencil(&inputs.sources[draw.stencil], def.name())
        })
        .map_err(|e| format!("{}: {e}", def.name()))?;
    let an5d = An5d::from_def(detected.def);
    let problem = an5d.paper_problem();
    let space = SearchSpace::paper(def.ndim(), draw.precision);
    let key = tracer.time(op, Some(root), "tune.key", || {
        an5d.tune_key(&problem, id, &space)
    });
    let hit = tracer.time(op, Some(root), "tunedb.get", || db.get(&key));
    let result = tracer
        .time(op, Some(root), "tuner.tune", || {
            Tuner::new(device.clone(), draw.precision)
                .with_plan_cache(cache)
                .tune(an5d.def(), &problem, &space)
        })
        .map_err(|e| format!("{}: {e}", def.name()))?;
    let put = tracer.time(op, Some(root), "tunedb.put", || {
        db.put(&key, Some(def.name()), &result)
    });
    let plan = tracer
        .time(op, Some(root), "plan.build_winner", || {
            KernelPlan::build(
                an5d.def(),
                &problem,
                &result.best.config,
                FrameworkScheme::an5d(),
            )
        })
        .map_err(|e| format!("{}: {e}", def.name()))?;
    let code = tracer.time(op, Some(root), "codegen.generate", || {
        generate_cuda_for_plan(&plan)
    });
    tracer.end(root);
    let latency_us = stats::us(t.elapsed());
    report.attempted += 1;
    let put_error = put.err().map(|e| e.to_string());
    if let Some(miss) = check(
        inputs,
        draw,
        an5d.def(),
        hit.is_some(),
        put_error.as_deref(),
        &code.kernel_source,
    ) {
        report.miss(miss);
    }
    if tracer.enabled() {
        counts.candidates.push(result.total_candidates as f64);
        counts.ranked += result.ranked_candidates as f64;
        counts.total += result.total_candidates as f64;
        counts.lines.push(code.total_lines() as f64);
    }

    // Replay plan build, prediction and simulated measurement over the
    // candidates the tuner enumerated (only when spans are recorded).
    let scheme = FrameworkScheme::an5d();
    let enabled = tracer.enabled();
    let replayed = space
        .iter()
        .filter(|c| enabled && c.fits_stencil(an5d.def()));
    for config in replayed {
        let Ok(plan) = tracer.time(op, None, "plan.build", || {
            KernelPlan::build(an5d.def(), &problem, &config, scheme)
        }) else {
            continue;
        };
        let p = tracer.time(op, None, "model.predict", || {
            predict(&plan, &problem, device)
        });
        std::hint::black_box(p);
        let m = tracer.time(op, None, "model.measure", || {
            measure_best_cap(&plan, &problem, device)
        });
        let _ = std::hint::black_box(m);
    }
    drop(db);
    let _ = std::fs::remove_file(path);
    Ok(Outcome {
        latency_us,
        winner: result.best.config,
    })
}

fn note_winner(winners: &mut Vec<(usize, BlockConfig)>, stencil: usize, config: BlockConfig) {
    if !winners.iter().any(|(s, c)| *s == stencil && *c == config) {
        winners.push((stencil, config));
    }
}

/// Outside the timed loop: every distinct winner must verify against
/// the naive reference on a small problem.
fn verify_winners(inputs: &Inputs, winners: &[(usize, BlockConfig)], report: &mut Report) {
    let backend: Arc<dyn ExecutionBackend> = Arc::new(VectorCpuBackend::new(2));
    for (stencil, config) in winners {
        let def = &inputs.defs[*stencil];
        let an5d = An5d::from_def(def.clone()).with_backend(Arc::clone(&backend));
        let bt = config.bt();
        // Wider than one block in every blocked dimension, so tiles and
        // their halos are exercised; one temporal block plus one step.
        let interior: Vec<usize> = match def.ndim() {
            2 => vec![12, config.bs()[0] + 8],
            _ => vec![6, config.bs()[0] + 4, config.bs()[1] + 4],
        };
        report.attempted += 1;
        let verdict = an5d
            .problem(&interior, bt + 1)
            .and_then(|problem| an5d.verify(&problem, config));
        match verdict {
            Ok(v) if v.matches_reference => {}
            Ok(v) => report.miss(format!(
                "{} {config:?}: winner does not verify (max diff {:e})",
                def.name(),
                v.max_abs_diff
            )),
            Err(e) => report.miss(format!("{} {config:?}: verify failed: {e}", def.name())),
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    // Time from process start to the first set-up, plus the median
    // set-up.
    let before = ctx.start.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..ctx.setup_repeats() {
        let t = Instant::now();
        let fresh = setup(ctx)?;
        // Warm-up: one operation lets the worker pool and lazy statics
        // start before the first timed operation. Its append is not
        // fsync'd: set-up needs no durable write, and an fsync's time
        // follows the host's disk more than this program.
        let mut scratch = Report::default();
        let draw = Draw {
            stencil: 0,
            precision: Precision::Single,
            device: 0,
        };
        facade_op(&fresh, draw, u64::MAX, false, &mut scratch)?;
        setups.push(t.elapsed().as_secs_f64());
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");
    let setup_s = before + median(&setups);
    let mut draws = Draws {
        rng: Rng::new(ctx.seed),
        pending: Vec::new(),
        devices: inputs.devices.len(),
        stencils: inputs.defs.len(),
    };
    let mut winners: Vec<(usize, BlockConfig)> = Vec::new();

    // Untraced: whole rounds, so every seed measures the same mix, ending
    // as near the budget as the length of a round allows. Traced: a third
    // of the budget untraced (the reconciliation's base), two thirds
    // decomposed, each ending as soon as its time is spent (a traced run
    // has a share of `--seconds`).
    let segment = if ctx.trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    };
    let mut latencies = Vec::new();
    let mut op = 0u64;
    let started = Instant::now();
    let (mut round_began, mut round_s) = (started, 0.0);
    loop {
        let (draw, round_start) = draws.next();
        let elapsed = started.elapsed().as_secs_f64();
        if round_start && op > 0 {
            round_s = round_began.elapsed().as_secs_f64();
            round_began = Instant::now();
        }
        let done = if ctx.trace {
            elapsed >= segment
        } else {
            round_start && elapsed + round_s / 2.0 >= segment
        };
        if done && op > 0 {
            break;
        }
        let out = facade_op(&inputs, draw, op, true, &mut report)?;
        latencies.push(out.latency_us);
        note_winner(&mut winners, draw.stencil, out.winner);
        op += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    // The loop drew one operation it did not run; start the next segment
    // on a fresh round.
    draws.pending.clear();
    stats::sort(&mut latencies);

    if !ctx.trace {
        report.metric(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUP_REPEATS} set-ups: 21 C sources, warm-up compile"),
        );
        report.metric(
            "ops_per_s",
            latencies.len() as f64 / wall_s,
            "1/s",
            format!("{} compiles in {wall_s:.3} s", latencies.len()),
        );
        report.metric(
            "latency_p50_us",
            percentile(&latencies, 50.0),
            "us",
            format!("n={}", latencies.len()),
        );
        report.metric(
            "latency_p90_us",
            percentile(&latencies, 90.0),
            "us",
            format!("n={}", latencies.len()),
        );
        report.metric(
            "peak_rss_mib",
            peak_rss_mib(None),
            "MiB",
            "VmHWM of the benchmark process",
        );
        verify_winners(&inputs, &winners, &mut report);
        let _ = std::fs::remove_dir_all(&inputs.dir);
        return Ok(report);
    }

    // Every draw decomposed twice, with spans recorded and with the
    // tracer disabled (the overhead base), in alternating order.
    let mut tracer = Tracer::new(ctx.start);
    let mut spans_off = Tracer::disabled(ctx.start);
    let mut counts = Counts::default();
    let (mut on_us, mut off_us) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let (draw, _) = draws.next();
        if !on_us.is_empty() && started.elapsed().as_secs_f64() >= 2.0 * segment {
            break;
        }
        let on_first = on_us.len() % 2 == 0;
        for on in [on_first, !on_first] {
            let (tracer, lat) = if on {
                (&mut tracer, &mut on_us)
            } else {
                (&mut spans_off, &mut off_us)
            };
            let out = traced_op(&inputs, draw, op, tracer, &mut counts, &mut report)?;
            lat.push(out.latency_us);
            note_winner(&mut winners, draw.stencil, out.winner);
            op += 1;
        }
    }
    let medians = tracer.medians_us();
    let m = |name: &str| medians.get(name).copied().unwrap_or(0.0);
    let untraced_p50 = percentile(&latencies, 50.0);

    report.metric(
        "frontend.parse_us",
        m("frontend.parse"),
        "us",
        "median parse_stencil",
    );
    report.metric(
        "tuner.tune_us",
        m("tuner.tune"),
        "us",
        "median Tuner::tune, fresh plan cache",
    );
    report.metric(
        "tuner.candidates",
        median(&counts.candidates),
        "count",
        "median candidates enumerated per tune",
    );
    report.ratio(
        "tuner.feasible_share",
        Ratio::new(counts.ranked, counts.total),
        "ranked / enumerated candidates",
    );
    report.metric(
        "plan.build_us",
        m("plan.build"),
        "us",
        "median KernelPlan::build over the ops' candidates",
    );
    report.metric(
        "model.predict_us",
        m("model.predict"),
        "us",
        "median predict over the same plans",
    );
    report.metric(
        "model.measure_us",
        m("model.measure"),
        "us",
        "median measure_best_cap over the same plans",
    );
    report.metric(
        "tunedb.put_us",
        m("tunedb.put"),
        "us",
        "median TuneDb::put (append + fsync)",
    );
    report.metric(
        "codegen.generate_us",
        m("codegen.generate"),
        "us",
        "median generate_cuda_for_plan of the winner",
    );
    report.metric(
        "codegen.lines",
        median(&counts.lines),
        "count",
        "median CudaCode::total_lines",
    );
    report.overhead(
        off_us.iter().sum(),
        on_us.iter().sum(),
        &format!(
            "summed over {} decomposed compiles run both ways",
            on_us.len()
        ),
    );
    report.reconcile(
        &medians,
        &[
            "frontend.parse",
            "tune.key",
            "tunedb.get",
            "tuner.tune",
            "tunedb.put",
            "plan.build_winner",
            "codegen.generate",
        ],
        untraced_p50,
        format!("untraced facade compile p50, n={}", latencies.len()),
    );
    verify_winners(&inputs, &winners, &mut report);
    tracer
        .write_jsonl(&ctx.trace_path("compile_cold"))
        .map_err(|e| format!("writing spans: {e}"))?;
    let _ = std::fs::remove_dir_all(&inputs.dir);
    Ok(report)
}
