//! Seeded end-to-end and per-layer benchmark of the AN5D-rs workspace.
//!
//! ```text
//! perfbench --workload serve_mixed|compile_cold|execute_grid --seed N
//!           --seconds S --trace 0|1 [--serve-bin PATH]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of the workload. `--trace 1`
//! runs the traced path of every workload, with spans recorded around the
//! calls into each layer, so that every per-layer metric is printed on
//! every workload: the named workload gets half of `--seconds`, the other
//! two a quarter each. The tracing overhead and the reconciliation of
//! layer medians against the end-to-end median are the named workload's.
//! Every output is checked against an independent oracle; any miss makes
//! the run exit non-zero. The last stdout line is one JSON object.

mod client;
mod compile;
mod grid;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up is repeated this many times per untraced run and its median
/// reported.
pub const SETUP_REPEATS: usize = 5;

const WORKLOADS: [&str; 3] = ["serve_mixed", "compile_cold", "execute_grid"];

/// Traced-run metrics that describe one workload's whole path rather than
/// a layer; a traced run keeps only the named workload's.
const PATH_METRICS: [&str; 4] = [
    "trace.overhead_share",
    "reconcile.layer_sum_us",
    "reconcile.e2e_p50_us",
    "reconcile.gap_share",
];

/// Everything a workload needs to know about the run.
pub struct Ctx {
    /// Process start (taken first thing in `main`).
    pub start: Instant,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    /// Scratch directory for tune DBs and the written-out spans.
    pub out_dir: PathBuf,
    /// Threads and connections the load may use (`nproc`).
    pub nproc: usize,
}

impl Ctx {
    /// Set-ups per run: `SETUP_REPEATS` untraced (`setup_s` is their
    /// median); one traced, where `setup_s` is not reported.
    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPEATS
        }
    }

    fn with_seconds(&self, seconds: f64) -> Ctx {
        Ctx {
            start: self.start,
            seed: self.seed,
            seconds,
            trace: self.trace,
            serve_bin: self.serve_bin.clone(),
            out_dir: self.out_dir.clone(),
            nproc: self.nproc,
        }
    }

    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.out_dir
            .join(format!("trace-{workload}-seed{}.jsonl", self.seed))
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// What a workload hands back: operation counts and metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Figures printed for reading but not part of the JSON result.
    pub info: Vec<Metric>,
    /// Oracle misses, printed to stderr (first few only).
    pub misses: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// A figure printed beside the metrics but left out of the result.
    pub fn info(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.info.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn ratio(&mut self, name: &'static str, ratio: stats::Ratio, what: &str) {
        self.per(name, ratio, "ratio", what);
    }

    /// A quotient with a unit of its own (bytes per cell, µs per batch).
    pub fn per(&mut self, name: &'static str, ratio: stats::Ratio, unit: &'static str, what: &str) {
        self.metric(
            name,
            ratio.value(),
            unit,
            format!("{what}: {}", ratio.base()),
        );
    }

    /// `trace.overhead_share`: the time of one operation path with spans
    /// recorded against the time of the same path without them; `what`
    /// says which times.
    pub fn overhead(&mut self, spans_off_us: f64, spans_on_us: f64, what: &str) {
        self.ratio(
            "trace.overhead_share",
            stats::Ratio::new(spans_on_us - spans_off_us, spans_off_us),
            &format!("(spans on - spans off µs) / spans off µs, {what}"),
        );
    }

    /// The sum of per-layer medians along the blocking `path` next to the
    /// untraced end-to-end median, with the gap between them.
    pub fn reconcile(
        &mut self,
        medians: &BTreeMap<&'static str, f64>,
        path: &[&str],
        e2e_p50: f64,
        e2e_note: String,
    ) {
        let layer_sum: f64 = path
            .iter()
            .map(|n| medians.get(n).copied().unwrap_or(0.0))
            .sum();
        self.metric(
            "reconcile.layer_sum_us",
            layer_sum,
            "us",
            format!("sum of medians along {}", path.join(" + ")),
        );
        self.metric("reconcile.e2e_p50_us", e2e_p50, "us", e2e_note);
        self.ratio(
            "reconcile.gap_share",
            stats::Ratio::new(e2e_p50 - layer_sum, e2e_p50),
            "(e2e p50 - layer sum) / e2e p50 µs",
        );
    }

    pub fn miss(&mut self, message: String) {
        self.failed += 1;
        if self.misses.len() < 20 {
            self.misses.push(message);
        }
    }

    /// Fold in the traced report of another workload's path: its counts,
    /// misses and per-layer metrics, but not its path metrics or notes.
    fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.misses.len());
        self.misses.extend(other.misses.into_iter().take(room));
        self.metrics.extend(
            other
                .metrics
                .into_iter()
                .filter(|m| !PATH_METRICS.contains(&m.name)),
        );
    }

    /// `failed_share`, printed with its base.
    fn failed_share(&self) -> stats::Ratio {
        stats::Ratio::new(self.failed as f64, self.attempted as f64)
    }
}

/// Peak resident memory (VmHWM) in MiB of a process (`None`: this one).
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One malloc arena for the whole benchmark process. The tuner starts
/// short-lived threads on every tune, and which glibc arena each lands in
/// otherwise moves the process's peak RSS by up to a fifth between
/// identical runs. The `an5d-serve` child is not affected.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: glibc's `mallopt` takes two ints; it is called first thing
    // in `main`, before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload serve_mixed|compile_cold|execute_grid --seed N \
         --seconds S --trace 0|1 [--serve-bin PATH]"
    );
    std::process::exit(2);
}

fn run_workload(ctx: &Ctx, workload: &str) -> Result<Report, String> {
    match workload {
        "serve_mixed" => serve::run(ctx),
        "compile_cold" => compile::run(ctx),
        _ => grid::run(ctx),
    }
}

/// The traced run: every workload's traced path, the named one on half
/// the time and first, so its figures are not taken after the others.
fn traced(ctx: &Ctx, workload: &str) -> Result<Report, String> {
    let mut report = run_workload(&ctx.with_seconds(ctx.seconds / 2.0), workload)?;
    for other in WORKLOADS.into_iter().filter(|w| *w != workload) {
        let part = run_workload(&ctx.with_seconds(ctx.seconds / 4.0), other)
            .map_err(|e| format!("traced {other} path: {e}"))?;
        report.absorb(part);
    }
    Ok(report)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    single_malloc_arena();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = PathBuf::from(".bench_build/release/an5d-serve");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok().or_else(|| usage()),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .or_else(|| usage())
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--serve-bin" => serve_bin = PathBuf::from(value),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx = Ctx {
        start,
        seed,
        seconds,
        trace,
        serve_bin,
        out_dir,
        nproc,
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        eprintln!("perfbench: unknown workload {workload:?}");
        usage()
    }
    let result = if trace {
        traced(&ctx, &workload)
    } else {
        run_workload(&ctx, &workload)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for miss in &report.misses {
        eprintln!("perfbench: oracle miss: {miss}");
    }

    println!(
        "# {workload} seed={seed} seconds={seconds} trace={} nproc={nproc}",
        u8::from(trace)
    );
    for m in report.metrics.iter().chain(&report.info) {
        println!("{:<32} {:>16.4} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    let share = report.failed_share();
    println!(
        "{:<32} {:>16.4} {:<8} failed or mismatched / attempted operations: {}",
        "failed_share",
        share.value(),
        "ratio",
        share.base()
    );
    let correct = report.failed == 0 && report.attempted > 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_keeps_layer_metrics_and_drops_path_metrics() {
        let mut own = Report {
            attempted: 3,
            ..Report::default()
        };
        own.metric("trace.overhead_share", 0.01, "ratio", "own path");
        let mut other = Report {
            attempted: 5,
            ..Report::default()
        };
        other.metric("http.parse_us", 7.0, "us", "");
        other.metric("trace.overhead_share", 0.5, "ratio", "other path");
        other.metric("reconcile.gap_share", 0.2, "ratio", "");
        other.info("mix.named_share", 0.9, "ratio", "");
        other.miss("a miss".to_string());
        own.absorb(other);
        assert_eq!((own.attempted, own.failed), (8, 1));
        let names: Vec<&str> = own.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, ["trace.overhead_share", "http.parse_us"]);
        assert_eq!(own.metrics[0].value, 0.01);
        assert!(own.info.is_empty());
    }

    #[test]
    fn traced_shares_add_up_to_the_run() {
        let ctx = Ctx {
            start: Instant::now(),
            seed: 1,
            seconds: 20.0,
            trace: true,
            serve_bin: PathBuf::new(),
            out_dir: PathBuf::new(),
            nproc: 2,
        };
        assert_eq!(ctx.setup_repeats(), 1);
        let own = ctx.with_seconds(ctx.seconds / 2.0).seconds;
        let others = (WORKLOADS.len() - 1) as f64 * ctx.with_seconds(ctx.seconds / 4.0).seconds;
        assert_eq!(own + others, ctx.seconds);
    }
}
