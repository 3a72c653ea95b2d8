//! The SecDir reproduction's benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 1 --seconds 20 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer metrics, which the benchmark
//! takes by timing its own calls into each layer's public functions and
//! by reading host counters from `/proc/self`. Both check the simulated
//! outputs. The last line of standard output is one JSON object; a
//! summary goes to standard error. See `perfbench/README.md`.

mod campaign;
mod host;
mod json;
mod pins;
mod report;
mod serve_journal;
mod solo;
mod stats;
mod verify;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;

/// The seed at which the pinned digests in [`pins`] apply.
pub const DEFAULT_SEED: u64 = 1;

/// What every workload receives.
pub struct Ctx {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measurement.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Worker threads for every parallel layer (`nproc`).
    pub threads: usize,
}

impl Ctx {
    /// The time the untraced windows get: all of it in an untraced run,
    /// half in a traced run, whose other half goes to traced windows.
    pub fn untraced_budget(&self) -> Duration {
        if self.traced {
            self.seconds / 2
        } else {
            self.seconds
        }
    }

    /// Whether the pinned default-seed digests apply to this run.
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED
    }
}

/// Fewest set-up passes per run; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 7;

/// Set-up passes continue until this much time has gone, so that a cheap
/// set-up is timed often enough for its median to settle.
const SETUP_BUDGET: Duration = Duration::from_millis(200);

/// Times `pass` repeatedly (see [`SETUP_BUDGET`]) and returns each
/// pass's result.
pub fn setup_passes<T>(mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < SETUP_MIN_REPS || (start.elapsed() < SETUP_BUDGET && out.len() < 10_000) {
        out.push(pass());
    }
    out
}

/// Fewest timed windows a measurement takes, however long each is.
const MIN_WINDOWS: usize = 3;

/// Calls `window(true)` once to let the allocator and caches settle, then
/// `window(false)` until `budget` has elapsed and at least
/// [`MIN_WINDOWS`] windows ran. A window called with `true` is checked
/// but not timed into any metric.
pub fn repeat_for(budget: Duration, mut window: impl FnMut(bool)) {
    window(true);
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_WINDOWS || start.elapsed() < budget {
        window(false);
        n += 1;
    }
}

/// Notes the spread of a run's timed windows: count, min, median, max.
pub fn note_windows(r: &mut Report, what: &str, xs: &[f64]) {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(0.0, f64::max);
    let med = stats::median(xs);
    r.note(format!(
        "{what}: {} windows, min {min:.6} median {med:.6} max {max:.6}",
        xs.len()
    ));
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// 64-bit FNV-1a, the digest of pinned outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Reports the host counters over a traced measurement: CPU utilisation
/// over `wall` seconds on `threads` CPUs, and context switches of the
/// main thread per thousand `accesses` (skipped when 0) and per `ticks`
/// (skipped when 0).
pub fn report_host(
    r: &mut Report,
    delta: Option<host::Snap>,
    wall: f64,
    threads: usize,
    accesses: f64,
    ticks: f64,
) {
    let names = [
        ("host.cpu_util", true),
        ("host.vcsw_per_kacc", accesses > 0.0),
        ("host.nivcsw_per_kacc", accesses > 0.0),
        ("host.vcsw_per_tick", ticks > 0.0),
    ];
    let Some(d) = delta else {
        for (name, applies) in names {
            if applies {
                r.absent(name, "/proc/self is not readable");
            }
        }
        return;
    };
    r.set(
        "host.cpu_util",
        stats::ratio(d.cpu_s, wall * threads as f64),
    );
    if accesses > 0.0 {
        r.set("host.vcsw_per_kacc", d.vcsw as f64 / accesses * 1e3);
        r.set("host.nivcsw_per_kacc", d.nivcsw as f64 / accesses * 1e3);
    }
    if ticks > 0.0 {
        r.set("host.vcsw_per_tick", d.vcsw as f64 / ticks);
    }
}

/// Records the end-to-end metrics of an untraced run from the medians of
/// its set-up passes and timed windows.
pub fn report_end_to_end(
    r: &mut Report,
    setup_s: &[f64],
    per_s: f64,
    job_s: &[f64],
    result_ms: f64,
) {
    r.set("setup_s", stats::median(setup_s));
    r.set("throughput_per_s", per_s);
    r.set("job_s", stats::median(job_s));
    r.set("result_p50_ms", result_ms);
    match host::peak_rss_mb() {
        Some(mb) => r.set("peak_rss_mb", mb),
        None => r.absent("peak_rss_mb", "/proc/self/status is not readable"),
    }
}

/// Records `trace.overhead`: how much slower the traced windows ran than
/// the untraced ones of the same run.
pub fn report_overhead(r: &mut Report, untraced_per_s: f64, traced_per_s: f64) {
    r.set(
        "trace.overhead",
        stats::ratio(untraced_per_s, traced_per_s) - 1.0,
    );
}

const USAGE: &str = "usage: perfbench --workload campaign|solo|serve-journal|verify \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => {
                traced = match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("`--trace` is 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("`--workload` is required")?;
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if seconds == 0 {
        return Err("`--seconds` must be at least 1".into());
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed,
        seconds: Duration::from_secs(seconds),
        traced,
        threads,
    };
    Ok((workload, ctx))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut r = Report::default();
    let declared = report::check_declarations(include_str!("../../BENCHMARK.json"));
    r.check(declared.is_ok(), || {
        format!("BENCHMARK.json: {}", declared.clone().unwrap_err())
    });
    r.note(format!(
        "workload {workload}, seed {}, {} s, trace {}, {} threads",
        ctx.seed,
        ctx.seconds.as_secs(),
        u8::from(ctx.traced),
        ctx.threads
    ));
    match workload.as_str() {
        "campaign" => campaign::run(&ctx, &mut r),
        "solo" => solo::run(&ctx, &mut r),
        "serve-journal" => serve_journal::run(&ctx, &mut r),
        _ => verify::run(&ctx, &mut r),
    }
    println!("{}", r.finish(ctx.traced));
    ExitCode::SUCCESS
}
