//! `serve_mixed`: one keep-alive client process against an
//! `an5d-serve --workers <nproc>` child whose tune DB is pre-seeded.
//!
//! The mix is the template set of `load_gen`'s mixed workload
//! (`crates/bench/src/bin/load_gen.rs`), sent with equal weight per
//! template as `load_gen` sends it: `/parse` carrying source, warm
//! `/tune` per registry device, `/plan` and `/codegen` of one 2D problem,
//! `/plan` of one 3D problem, `/predict` of both per registry device and
//! two tiny `/execute` jobs. Every request but `/parse` names a
//! `benchmark`. The seed draws the block configs, the `/tune` precision,
//! the `/execute` grid seeds and the order of each round. Every `200` must
//! be byte-identical to the facade render computed in set-up. The load
//! runs first as an open loop at a fixed rate, then as a closed loop,
//! both on `nproc` connections. Throughput and the gated latency
//! percentiles come from the closed loop; the open-loop latency (from
//! each request's due time) and the generator's lateness are printed
//! beside them.

use crate::client::{request_bytes, Conn};
use crate::stats::{self, median, percentile, OpenLoopSample, Ratio, Rng, Schedule};
use crate::trace::Tracer;
use crate::{peak_rss_mib, Ctx, Report, SETUP_REPEATS};
use an5d::{
    create_backend, emit_c_source, generate_cuda_for_plan, parse_stencil, predict,
    standard_registry, suite, An5d, BatchDriver, BatchJob, BlockConfig, DeviceId, FrameworkScheme,
    GpuDevice, GridInit, KernelPlan, PlanCache, Precision, SearchSpace, SerialBackend, StencilDef,
    StencilProblem, TuneDb, TuneKey,
};
use an5d_service::{api, dispatch, parse_json, Json, Parse, RequestParser, ServiceState};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop request rate (requests per second). Fixed, so latency is
/// compared at the same offered load on every commit; it sits well
/// below the closed-loop saturation rate of every seed on the 2-core
/// reference machine.
const OPEN_LOOP_RATE: f64 = 400.0;

/// One `/codegen` request in `STREAM_EVERY` is sent with `?stream=1`.
/// An assumption, not taken from `load_gen`: its mixed workload sends no
/// streamed request. `/codegen` is one template in 18, so this share
/// moves one request in 36.
const STREAM_EVERY: usize = 2;

/// The backend of the server child and of the in-process replay. The
/// `/execute` jobs are tiny, and `serial` is the server's default.
const SERVER_BACKEND: &str = "serial";

struct Template {
    /// Endpoint path, e.g. `/plan`.
    endpoint: &'static str,
    /// Names a `benchmark` (rather than carrying `source`).
    named: bool,
    body: Vec<u8>,
    /// The facade's rendered response: what every `200` must equal
    /// (streamed bodies reassemble to the same bytes).
    expected: Vec<u8>,
    /// The response value, for timing `Json::render` alone.
    response: Json,
    tune_key: Option<TuneKey>,
}

/// One request of the seeded sequence.
#[derive(Clone, Copy)]
struct Pick {
    template: usize,
    stream: bool,
}

impl Template {
    fn path(&self, stream: bool) -> &'static str {
        if stream {
            "/codegen?stream=1"
        } else {
            self.endpoint
        }
    }
}

fn usize_array(values: &[usize]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Int(v as i128)).collect())
}

fn precision_name(p: Precision) -> &'static str {
    match p {
        Precision::Single => "single",
        Precision::Double => "double",
    }
}

fn draw_precision(rng: &mut Rng) -> Precision {
    if rng.below(2) == 0 {
        Precision::Single
    } else {
        Precision::Double
    }
}

fn config_json(config: &BlockConfig) -> Json {
    Json::obj(vec![
        ("bt", Json::Int(config.bt() as i128)),
        ("bs", usize_array(config.bs())),
        (
            "hsn",
            config.hsn().map_or(Json::Null, |h| Json::Int(h as i128)),
        ),
        ("precision", Json::str(precision_name(config.precision()))),
    ])
}

/// The request fields naming a stencil and its problem.
fn problem_fields(def: &StencilDef, interior: &[usize], steps: usize) -> Vec<(&'static str, Json)> {
    vec![
        ("benchmark", Json::str(def.name())),
        ("interior", usize_array(interior)),
        ("steps", Json::Int(steps as i128)),
    ]
}

fn template(endpoint: &'static str, fields: Vec<(&'static str, Json)>, response: Json) -> Template {
    Template {
        endpoint,
        named: fields.iter().any(|(key, _)| *key == "benchmark"),
        body: Json::obj(fields).render().into_bytes(),
        expected: response.render().into_bytes(),
        response,
        tune_key: None,
    }
}

/// A seeded block config that plans on `problem`. The choices include
/// the config `load_gen` sends for the same problem.
fn draw_config(
    rng: &mut Rng,
    def: &StencilDef,
    problem: &StencilProblem,
) -> (BlockConfig, Arc<KernelPlan>) {
    loop {
        let precision = draw_precision(rng);
        let (bt, bs, hsn): (usize, Vec<usize>, Option<usize>) = if def.ndim() == 2 {
            (
                1 + rng.below(8),
                vec![[32, 64, 128][rng.below(3)]],
                [None, Some(32), Some(64)][rng.below(3)],
            )
        } else {
            (
                1 + rng.below(4),
                [[8, 8], [16, 16], [32, 16]][rng.below(3)].to_vec(),
                None,
            )
        };
        let Ok(config) = BlockConfig::new(bt, &bs, hsn, precision) else {
            continue;
        };
        if let Ok(plan) = KernelPlan::build(def, problem, &config, FrameworkScheme::an5d()) {
            return (config, Arc::new(plan));
        }
    }
}

/// Build the seeded templates with their expected bytes, seeding the
/// tune DB with every `/tune` answer on the way.
///
/// The composition is `load_gen`'s and the same for every seed; with the
/// four registry devices it is 18 templates: 1 `/parse`, 4 `/tune`,
/// 2 `/plan`, 1 `/codegen`, 8 `/predict` and 2 `/execute`.
fn templates(seed: u64, db: &TuneDb) -> Result<Vec<Template>, String> {
    let mut rng = Rng::new(seed);
    let devices: Vec<(DeviceId, GpuDevice)> = standard_registry()
        .devices()
        .map(|(id, d)| (id.clone(), d.clone()))
        .collect();
    let mut out = Vec::new();

    // /parse: the one request that carries source.
    let def = suite::star2d(1);
    let source = emit_c_source(&def, "A");
    let detected = parse_stencil(&source, def.name()).map_err(|e| e.to_string())?;
    out.push(template(
        "/parse",
        vec![
            ("source", Json::str(&source)),
            ("name", Json::str(def.name())),
        ],
        api::parse_response(&detected),
    ));

    // Warm /tune per device: the answers are seeded into the DB the
    // server starts from.
    let pipeline = An5d::from_def(suite::j2d5pt());
    let (interior, steps) = ([512, 512], 50);
    let problem = pipeline
        .problem(&interior, steps)
        .map_err(|e| e.to_string())?;
    let precision = draw_precision(&mut rng);
    let space = SearchSpace::quick(2, precision);
    for (id, device) in &devices {
        let outcome = pipeline
            .tune_with_db(
                &problem,
                id,
                device,
                &space,
                Arc::new(PlanCache::default()),
                db,
                false,
            )
            .map_err(|e| e.to_string())?;
        if let Some(e) = outcome.persist_error {
            return Err(format!("seeding the tune DB: {e}"));
        }
        let mut fields = problem_fields(pipeline.def(), &interior, steps);
        fields.extend([
            ("device", Json::str(id.as_str())),
            ("precision", Json::str(precision_name(precision))),
            ("space", Json::str("quick")),
        ]);
        let mut t = template("/tune", fields, api::tune_response(&outcome.result));
        t.tune_key = Some(pipeline.tune_key(&problem, id, &space));
        out.push(t);
    }

    // /plan of a 2D and a 3D problem, /codegen of the 2D one, /predict
    // of both per device.
    for (def, interior, steps) in [
        (suite::star2d(1), vec![256, 256], 32),
        (suite::star3d(1), vec![64, 64, 64], 8),
    ] {
        let problem =
            StencilProblem::new(def.clone(), &interior, steps).map_err(|e| e.to_string())?;
        let (config, plan) = draw_config(&mut rng, &def, &problem);
        let mut common = problem_fields(&def, &interior, steps);
        common.push(("config", config_json(&config)));
        out.push(template("/plan", common.clone(), api::plan_response(&plan)));
        if def.ndim() == 2 {
            out.push(template(
                "/codegen",
                common.clone(),
                api::codegen_response(&generate_cuda_for_plan(&plan)),
            ));
        }
        for (id, device) in &devices {
            let mut fields = common.clone();
            fields.push(("device", Json::str(id.as_str())));
            out.push(template(
                "/predict",
                fields,
                api::predict_response(&predict(&plan, &problem, device)),
            ));
        }
    }

    // Tiny /execute jobs, expected from a serial driver.
    let serial = BatchDriver::new(Arc::new(SerialBackend)).with_workers(1);
    for (def, interior, steps, bt, bs) in [
        (suite::j2d5pt(), vec![24, 24], 5, 2, vec![12]),
        (suite::box2d(1), vec![20, 20], 4, 1, vec![10]),
    ] {
        let config =
            BlockConfig::new(bt, &bs, None, Precision::Double).map_err(|e| e.to_string())?;
        let seed = rng.next_u64() >> 12;
        let job = BatchJob::new(def.clone(), &interior, steps, config.clone())
            .with_init(GridInit::Hash { seed });
        let outcome = serial
            .run(&[job])
            .pop()
            .expect("one job in, one result out")
            .map_err(|e| e.to_string())?;
        let mut fields = problem_fields(&def, &interior, steps);
        fields.extend([
            ("config", config_json(&config)),
            ("seed", Json::Int(i128::from(seed))),
        ]);
        out.push(template(
            "/execute",
            fields,
            api::execute_response(&outcome),
        ));
    }
    Ok(out)
}

/// The seeded request sequence: rounds that each send every template
/// once, in a seeded order, so every template has the same weight as in
/// `load_gen`. One `/codegen` in `STREAM_EVERY` is streamed.
fn sequence(seed: u64, templates: &[Template], len: usize) -> Vec<Pick> {
    let mut rng = Rng::new(seed ^ 0x5E9E);
    let mut out = Vec::with_capacity(len);
    let mut codegens = 0;
    while out.len() < len {
        let mut round: Vec<usize> = (0..templates.len()).collect();
        rng.shuffle(&mut round);
        for template in round {
            let stream = templates[template].endpoint == "/codegen" && {
                codegens += 1;
                codegens % STREAM_EVERY == 0
            };
            out.push(Pick { template, stream });
        }
    }
    out
}

/// The `an5d-serve` child; killed and reaped on drop if still running.
struct ServerChild {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerChild {
    fn spawn(bin: &Path, tune_db: &Path, workers: usize) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--backend",
                SERVER_BACKEND,
                "--faults",
                "",
            ])
            .args(["--workers", &workers.to_string()])
            .args([
                "--max-requests",
                "1000000000",
                "--keep-alive-timeout",
                "120",
            ])
            .arg("--tune-db")
            .arg(tune_db)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .map(str::to_string);
        let server = Self {
            child,
            _stdout: stdout,
            addr: addr.clone().unwrap_or_default(),
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err(format!("an5d-serve printed no banner: {banner:?}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown` over `conn`, then reap the child.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let _ = conn.request("POST", "/shutdown", b"");
        self.child
            .wait()
            .map_err(|e| format!("waiting for an5d-serve: {e}"))?;
        Ok(())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Setup {
    templates: Vec<Template>,
    seq: Vec<Pick>,
    server: ServerChild,
    conns: Vec<Conn>,
    db_path: PathBuf,
}

fn check(t: &Template, status: u16, body: &[u8]) -> Option<String> {
    if status != 200 {
        return Some(format!("{}: status {status}", t.endpoint));
    }
    if body != t.expected.as_slice() {
        return Some(format!(
            "{}: {} body bytes differ from the facade's {}",
            t.endpoint,
            body.len(),
            t.expected.len()
        ));
    }
    None
}

fn setup_once(ctx: &Ctx, report: &mut Report) -> Result<Setup, String> {
    let db_path = ctx.out_dir.join(format!("serve-seed{}.tunedb", ctx.seed));
    let _ = std::fs::remove_file(&db_path);
    let templates = {
        let db = TuneDb::open(&db_path).map_err(|e| format!("opening the tune DB: {e}"))?;
        templates(ctx.seed, &db)?
    };
    let seq = sequence(ctx.seed, &templates, 400_000);
    let server = ServerChild::spawn(&ctx.serve_bin, &db_path, ctx.nproc)?;
    let mut conns = Vec::new();
    for _ in 0..ctx.nproc {
        conns.push(Conn::connect(&server.addr).map_err(|e| format!("connecting: {e}"))?);
    }
    // One pass over every template: warms the server's caches and checks
    // every response once before anything is timed.
    for t in &templates {
        report.attempted += 1;
        match conns[0].request("POST", t.endpoint, &t.body) {
            Ok(reply) => {
                if let Some(miss) = check(t, reply.status, &reply.body) {
                    report.miss(miss);
                }
            }
            Err(e) => report.miss(format!("{}: {e}", t.endpoint)),
        }
    }
    Ok(Setup {
        templates,
        seq,
        server,
        conns,
        db_path,
    })
}

#[derive(Clone, Copy)]
enum Mode {
    Open(Schedule),
    Closed,
}

struct Sample {
    due: Option<Instant>,
    sent: Instant,
    done: Instant,
}

struct Drive {
    samples: Vec<Sample>,
    misses: Vec<String>,
    /// Requests whose connection failed (no sample recorded).
    broken: usize,
    wall_s: f64,
    tracer: Option<Tracer>,
}

/// What one connection's thread brings back.
struct ConnDrive {
    samples: Vec<Sample>,
    misses: Vec<String>,
    broken: bool,
    tracer: Option<Tracer>,
}

/// Drive the load on every connection (one thread each) until `end`.
fn drive(
    ctx: &Ctx,
    setup: &mut Setup,
    next: &AtomicUsize,
    mode: Mode,
    end: Instant,
    traced: bool,
) -> Drive {
    let started = Instant::now();
    let templates = &setup.templates;
    let seq = &setup.seq;
    let per_conn: Vec<ConnDrive> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut misses = Vec::new();
                    let mut tracer = traced.then(|| Tracer::new(ctx.start));
                    let mut broken = false;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let due = match mode {
                            Mode::Open(schedule) => {
                                let due = schedule.due(i as u64);
                                if due >= end {
                                    break;
                                }
                                let now = Instant::now();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                                Some(due)
                            }
                            Mode::Closed => {
                                if Instant::now() >= end {
                                    break;
                                }
                                None
                            }
                        };
                        let pick = seq[i % seq.len()];
                        let t = &templates[pick.template];
                        let sent = Instant::now();
                        let reply = conn.request("POST", t.path(pick.stream), &t.body);
                        let done = Instant::now();
                        let first_body = match reply {
                            Ok(reply) => {
                                if let Some(miss) = check(t, reply.status, &reply.body) {
                                    misses.push(miss);
                                }
                                reply.first_body
                            }
                            Err(e) => {
                                misses.push(format!("{}: {e}", t.endpoint));
                                broken = true;
                                break;
                            }
                        };
                        if let Some(tracer) = tracer.as_mut() {
                            let root = tracer.record(i as u64, None, "request", sent, done);
                            if pick.stream {
                                tracer.record(
                                    i as u64,
                                    Some(root),
                                    "stream.ttfb",
                                    sent,
                                    first_body,
                                );
                            }
                        }
                        samples.push(Sample { due, sent, done });
                    }
                    ConnDrive {
                        samples,
                        misses,
                        broken,
                        tracer,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut out = Drive {
        samples: Vec::new(),
        misses: Vec::new(),
        broken: 0,
        wall_s: started.elapsed().as_secs_f64(),
        tracer: traced.then(|| Tracer::new(ctx.start)),
    };
    for ConnDrive {
        samples,
        misses,
        broken,
        tracer,
    } in per_conn
    {
        out.broken += usize::from(broken);
        out.samples.extend(samples);
        out.misses.extend(misses);
        if let (Some(all), Some(one)) = (out.tracer.as_mut(), tracer) {
            all.absorb(one);
        }
    }
    out
}

fn account(report: &mut Report, drive: &Drive) {
    report.attempted += (drive.samples.len() + drive.broken) as u64;
    for miss in &drive.misses {
        report.miss(miss.clone());
    }
}

fn wire_us(samples: &[Sample]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(|s| stats::us(s.done - s.sent)).collect();
    stats::sort(&mut v);
    v
}

/// Sum of every sample of a Prometheus metric, over all label sets.
fn prom_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            (key.split('{').next()? == name).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

fn get(conn: &mut Conn, path: &str) -> Result<String, String> {
    let reply = conn
        .request("GET", path, b"")
        .map_err(|e| format!("GET {path}: {e}"))?;
    if reply.status != 200 {
        return Err(format!("GET {path}: status {}", reply.status));
    }
    String::from_utf8(reply.body).map_err(|e| format!("GET {path}: {e}"))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    // Time from process start to the first set-up, plus the median
    // set-up. Shutting down a discarded server is outside both.
    let before = ctx.start.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut kept = None;
    let repeats = ctx.setup_repeats();
    for k in 0..repeats {
        let t = Instant::now();
        let mut setup = setup_once(ctx, &mut report)?;
        setups.push(t.elapsed().as_secs_f64());
        if k + 1 < repeats {
            let server = setup.server;
            server.shutdown(&mut setup.conns[0])?;
        } else {
            kept = Some(setup);
        }
    }
    let mut setup = kept.expect("at least one set-up");
    let setup_s = before + median(&setups);
    let next = AtomicUsize::new(0);
    // Untraced: a quarter open loop, three quarters closed loop. Traced:
    // open, untraced closed, traced closed and in-process replay, a
    // quarter each.
    let slice = Duration::from_secs_f64(ctx.seconds / 4.0);
    let closed_len = if ctx.trace { slice } else { 3 * slice };

    // Open loop at a fixed rate, timed from each request's due time.
    let now = Instant::now();
    let schedule = Schedule::new(now, OPEN_LOOP_RATE);
    let open_next = AtomicUsize::new(0);
    let open = drive(
        ctx,
        &mut setup,
        &open_next,
        Mode::Open(schedule),
        now + slice,
        false,
    );
    account(&mut report, &open);
    let open_samples: Vec<OpenLoopSample> = open
        .samples
        .iter()
        .map(|s| OpenLoopSample {
            due: s.due.expect("open-loop sample"),
            sent: s.sent,
            done: s.done,
        })
        .collect();
    let mut open_lat: Vec<f64> = open_samples
        .iter()
        .map(|s| stats::us(s.latency()))
        .collect();
    let mut late: Vec<f64> = open_samples
        .iter()
        .map(|s| stats::us(s.lateness()))
        .collect();
    stats::sort(&mut open_lat);
    stats::sort(&mut late);
    next.store(open_next.load(Ordering::Relaxed), Ordering::Relaxed);

    // Closed loop on every connection.
    let closed = drive(
        ctx,
        &mut setup,
        &next,
        Mode::Closed,
        Instant::now() + closed_len,
        false,
    );
    account(&mut report, &closed);

    if !ctx.trace {
        let peak = peak_rss_mib(Some(setup.server.pid()));
        setup.server.shutdown(&mut setup.conns[0])?;
        let _ = std::fs::remove_file(&setup.db_path);
        report.metric("setup_s", setup_s, "s", format!("median of {SETUP_REPEATS} set-ups: expected bytes, tune-DB seeding, server spawn, one checked pass"));
        report.metric(
            "ops_per_s",
            closed.samples.len() as f64 / closed.wall_s,
            "1/s",
            format!(
                "closed loop, {} connections: {} requests in {:.3} s",
                ctx.nproc,
                closed.samples.len(),
                closed.wall_s
            ),
        );
        // Gated latency comes from the closed loop, at p50 and p90. The
        // closed-loop p99 and the open-loop figures are printed with their
        // sample counts but left out of the result: on a shared 2-vCPU VM
        // they follow the host (stalls of several ms, and how fast it wakes
        // a halted vCPU), and their run-to-run IQR/median reached 0.4 for
        // the closed-loop p99, 0.6 for the open-loop p50 and 1.7 for the
        // open-loop p99, beyond any usable bound.
        let wire = wire_us(&closed.samples);
        let closed_note = format!("closed loop, {} connections, n={}", ctx.nproc, wire.len());
        report.metric(
            "latency_p50_us",
            percentile(&wire, 50.0),
            "us",
            closed_note.clone(),
        );
        report.metric(
            "latency_p90_us",
            percentile(&wire, 90.0),
            "us",
            closed_note.clone(),
        );
        report.info("latency_p99_us", percentile(&wire, 99.0), "us", closed_note);
        report.metric("peak_rss_mib", peak, "MiB", "VmHWM of the an5d-serve child");
        let open_note = format!(
            "open loop at {OPEN_LOOP_RATE}/s from due time, n={}",
            open_lat.len()
        );
        report.info(
            "open_latency_p50_us",
            percentile(&open_lat, 50.0),
            "us",
            open_note.clone(),
        );
        report.info(
            "open_latency_p99_us",
            percentile(&open_lat, 99.0),
            "us",
            open_note,
        );
        report.info(
            "open_late_p99_us",
            percentile(&late, 99.0),
            "us",
            format!("open-loop send lateness p99, n={}", late.len()),
        );
        return Ok(report);
    }

    // Traced closed loop, bracketed by /metrics scrapes.
    let metrics_before = get(&mut setup.conns[0], "/metrics")?;
    let traced = drive(
        ctx,
        &mut setup,
        &next,
        Mode::Closed,
        Instant::now() + slice,
        true,
    );
    account(&mut report, &traced);
    let metrics_after = get(&mut setup.conns[0], "/metrics")?;
    let trace_ring = get(&mut setup.conns[0], "/trace")?;
    let mut tracer = traced.tracer.expect("traced drive keeps spans");
    let delta = |name: &str| prom_sum(&metrics_after, name) - prom_sum(&metrics_before, name);
    let handler_us: Vec<f64> = parse_json(&trace_ring)
        .ok()
        .and_then(|j| {
            j.get("traces").and_then(Json::as_array).map(|ts| {
                ts.iter()
                    .filter_map(|t| t.get("total_us").and_then(Json::as_usize))
                    .map(|v| v as f64)
                    .collect()
            })
        })
        .unwrap_or_default();

    // In-process replay of the same mix through each layer's public call.
    let replay_db = ctx
        .out_dir
        .join(format!("serve-seed{}-replay.tunedb", ctx.seed));
    std::fs::copy(&setup.db_path, &replay_db).map_err(|e| format!("copying the tune DB: {e}"))?;
    let db = Arc::new(TuneDb::open(&replay_db).map_err(|e| format!("opening the replay DB: {e}"))?);
    let backend = create_backend(SERVER_BACKEND).expect("a registered backend spec");
    let state = ServiceState::new(backend, 256).with_tune_db(Arc::clone(&db));
    let bodies: Vec<Json> = setup
        .templates
        .iter()
        .map(|t| parse_json(std::str::from_utf8(&t.body).expect("utf-8 body")).expect("valid body"))
        .collect();
    let end = Instant::now() + slice;
    let mut i = next.load(Ordering::Relaxed);
    let (mut named, mut replayed) = (0usize, 0usize);
    while Instant::now() < end {
        let pick = setup.seq[i % setup.seq.len()];
        let t = &setup.templates[pick.template];
        replayed += 1;
        named += usize::from(t.named);
        let op = i as u64;
        let raw = request_bytes("POST", t.path(pick.stream), &t.body);
        let root = tracer.begin(op, None, "inproc");
        let parsed = tracer.time(op, Some(root), "http.parse", || {
            let mut parser = RequestParser::new();
            parser.feed(&raw);
            parser.parse()
        });
        let Parse::Ready(request) = parsed else {
            report.attempted += 1;
            report.miss(format!(
                "{}: RequestParser did not yield the request",
                t.endpoint
            ));
            tracer.end(root);
            i += 1;
            continue;
        };
        let mut response = tracer.time(op, Some(root), "handlers.dispatch", || {
            dispatch(&state, &request)
        });
        tracer.end(root);
        report.attempted += 1;
        match response.body.collect() {
            Ok(bytes) => {
                if let Some(miss) = check(t, response.status, bytes.as_bytes()) {
                    report.miss(format!("in-process {miss}"));
                }
            }
            Err(e) => report.miss(format!("in-process {}: {e}", t.endpoint)),
        }
        let b = &bodies[pick.template];
        match t.endpoint {
            "/parse" => {}
            "/tune" => {
                let _ = tracer.time(op, None, "api.decode", || {
                    api::pipeline_from(b).and_then(|p| api::problem_from(b, &p))
                });
            }
            _ => {
                let _ = tracer.time(op, None, "api.decode", || {
                    api::pipeline_from(b)
                        .and_then(|p| api::problem_from(b, &p))
                        .and_then(|_| api::config_from(b))
                });
            }
        }
        std::hint::black_box(tracer.time(op, None, "api.render", || t.response.render()));
        if let Some(key) = &t.tune_key {
            std::hint::black_box(tracer.time(op, None, "tunedb.get", || db.get(key)));
        }
        i += 1;
    }
    setup.server.shutdown(&mut setup.conns[0])?;
    let _ = std::fs::remove_file(&setup.db_path);
    drop(state);
    drop(db);
    let _ = std::fs::remove_file(&replay_db);

    let medians = tracer.medians_us();
    let m = |name: &str| medians.get(name).copied().unwrap_or(0.0);
    let untraced_wire = wire_us(&closed.samples);
    let traced_wire = wire_us(&traced.samples);
    let untraced_p50 = percentile(&untraced_wire, 50.0);
    let traced_p50 = percentile(&traced_wire, 50.0);
    let handler_p50 = if handler_us.is_empty() {
        0.0
    } else {
        median(&handler_us)
    };

    report.metric(
        "http.parse_us",
        m("http.parse"),
        "us",
        "median RequestParser::feed + parse over the mix",
    );
    report.metric(
        "api.decode_us",
        m("api.decode"),
        "us",
        format!(
            "median pipeline_from + problem_from (+ config_from) over the {} requests that decode; \
             {named} of {replayed} replayed requests name a benchmark, the rest carry source",
            tracer.durations_us("api.decode").len()
        ),
    );
    report.info(
        "mix.named_share",
        Ratio::new(named as f64, replayed as f64).value(),
        "ratio",
        format!("requests naming a benchmark / replayed requests: {named} / {replayed}"),
    );
    report.metric(
        "api.render_us",
        m("api.render"),
        "us",
        "median response Json::render",
    );
    report.metric(
        "handlers.dispatch_us",
        m("handlers.dispatch"),
        "us",
        "median handlers::dispatch on an in-process ServiceState",
    );
    report.metric(
        "server.handler_p50_us",
        handler_p50,
        "us",
        format!(
            "median dispatch time of the server's last {} traced requests (GET /trace)",
            handler_us.len()
        ),
    );
    report.metric(
        "server.wire_gap_us",
        traced_p50 - handler_p50,
        "us",
        format!("client wire p50 {traced_p50:.1} µs - server.handler_p50_us"),
    );
    // Means from the histograms' sums and counts: the exported quantiles
    // are bucket bounds, which read the same on nearly every run.
    report.per(
        "server.reactor_loop_mean_us",
        Ratio::new(
            delta("an5d_reactor_loop_us_sum"),
            delta("an5d_reactor_loop_us_count"),
        ),
        "us",
        "an5d_reactor_loop_us sum / count in the traced window",
    );
    report.per(
        "runtime.queue_wait_mean_us",
        Ratio::new(
            prom_sum(&metrics_after, "an5d_pool_queue_wait_us_sum"),
            prom_sum(&metrics_after, "an5d_pool_queue_wait_us_count"),
        ),
        "us",
        "an5d_pool_queue_wait_us sum / count since server start",
    );
    let (hits, misses) = (
        delta("an5d_plan_cache_hits_total"),
        delta("an5d_plan_cache_misses_total"),
    );
    report.ratio(
        "backend.plan_cache_hit_rate",
        Ratio::new(hits, hits + misses),
        "plan-cache hits / lookups in the traced window",
    );
    let (hits, misses) = (
        delta("an5d_tunedb_hits_total"),
        delta("an5d_tunedb_misses_total"),
    );
    report.ratio(
        "tunedb.hit_rate",
        Ratio::new(hits, hits + misses),
        "tune-DB hits / lookups in the traced window",
    );
    report.metric(
        "tunedb.get_us",
        m("tunedb.get"),
        "us",
        "median TuneDb::get of the /tune keys",
    );
    report.metric(
        "stream.ttfb_p50_us",
        m("stream.ttfb"),
        "us",
        format!(
            "send to first chunk on ?stream=1, n={}",
            tracer.durations_us("stream.ttfb").len()
        ),
    );
    report.metric(
        "loadgen.late_p99_us",
        percentile(&late, 99.0),
        "us",
        format!("open-loop send lateness p99, n={}", late.len()),
    );
    report.overhead(
        untraced_p50,
        traced_p50,
        "closed-loop wire p50, untraced window then traced window",
    );
    report.reconcile(
        &medians,
        &["http.parse", "handlers.dispatch"],
        untraced_p50,
        format!(
            "untraced closed-loop wire p50, n={}; the gap is reactor, queue, socket and client",
            untraced_wire.len()
        ),
    );
    tracer
        .write_jsonl(&ctx.trace_path("serve_mixed"))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(report)
}
