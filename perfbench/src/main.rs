//! Wall-clock benchmark of the similarity operators.
//!
//! ```text
//! perfbench --workload <paper-mix|serve-zipf|write-read> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Prints a description of the run, a table of every metric, and as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! See README.md for the workloads and the metrics.

mod check;
mod layers;
mod paper_mix;
mod report;
mod serve_zipf;
mod trace;
mod write_read;

use report::Run;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <paper-mix|serve-zipf|write-read> --seed <n> \
                     --seconds <s> --trace <0|1> [--out-dir <dir>]";

/// Seed of the datasets. The data is fixed, as in the paper's evaluation;
/// `--seed` draws everything else: search strings, initiating peers,
/// arrivals, and the overlay's own random choices.
pub const DATA_SEED: u64 = 42;

/// Engine builds per run; `setup_s` is their median.
pub const SETUP_BUILDS: usize = 5;

/// What every workload is told.
pub struct Ctx {
    pub seed: u64,
    /// Nominal length of the measured window; sizes each workload's
    /// operation count (a fixed function of the seed and this value, so
    /// exact counts repeat across runs).
    pub seconds: u64,
    pub trace: bool,
}

impl Ctx {
    /// With tracing, odd rounds of a workload run traced and even rounds
    /// untraced, so the two can be compared within one run.
    pub fn traced_round(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }
}

/// Build the engine [`SETUP_BUILDS`] times, dropping each before the
/// next, and return the last one with the median build time in seconds.
pub fn setup<E>(mut build: impl FnMut() -> E) -> (E, f64) {
    let mut times = Vec::with_capacity(SETUP_BUILDS);
    let mut engine = None;
    for _ in 0..SETUP_BUILDS {
        drop(engine.take());
        let t0 = Instant::now();
        engine = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (engine.expect("at least one build"), report::percentile(&times, 0.5))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// First line of a command's output, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(String::from))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A hash of this executable: runs of one build share it, so exact counts
/// recorded by one run can be compared by the next.
fn build_id() -> String {
    use std::hash::{Hash, Hasher};
    let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// Compare this run's exact message and byte totals with those an earlier
/// run of the same build, workload, seed and size recorded; a difference
/// means the program is not deterministic and is reported as a failure.
fn check_repeatable(args: &Args, run: &mut Run) {
    let (m, b, ops) = run.counts;
    let line = format!("messages={m} bytes={b} ops={ops}");
    let path = args.out_dir.join(format!(
        "counts-{}-seed{}-s{}-{}.txt",
        args.workload,
        args.seed,
        args.seconds,
        build_id()
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == line => {
            run.notes.push(format!("counts repeat an earlier run: {line}"))
        }
        Ok(prev) => run.fail(format!(
            "nondeterminism: this run counted {line}, an earlier run of the same seed {}",
            prev.trim()
        )),
        Err(_) => {
            if std::fs::write(&path, &line).is_ok() {
                run.notes.push(format!("counts recorded for later runs: {line}"));
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, trace: args.trace };
    let mut tracer = trace::Tracer::new();
    let mut run = match args.workload.as_str() {
        "paper-mix" => paper_mix::run(&ctx, &mut tracer),
        "serve-zipf" => serve_zipf::run(&ctx, &mut tracer),
        "write-read" => write_read::run(&ctx, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(1);
    }
    check_repeatable(&args, &mut run);
    run.e2e.insert("peak_rss_mb", report::peak_rss_mb());
    run.e2e.insert(
        "failed_ratio",
        report::ratio(run.failures.len() as f64, run.attempted.max(1) as f64),
    );
    if args.trace {
        let path = args.out_dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => run.notes.push(format!(
                "{} spans written to {}",
                tracer.spans.len(),
                path.display()
            )),
            Err(e) => run.fail(format!("writing spans to {}: {e}", path.display())),
        }
    }

    println!("workload: {} (seed {}, trace {})", run.workload, args.seed, u8::from(args.trace));
    println!("why: {}", run.why);
    println!(
        "toolchain: {}; cores: {}; commit: {}",
        command_line("rustc", &["-V"]),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        // Only this checkout's own repository, never one above it.
        if std::path::Path::new(".git").exists() {
            command_line("git", &["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        } else {
            "unknown (not a git checkout)".into()
        },
    );
    let sizes: Vec<String> = run.sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("sizes: {}", sizes.join(" "));
    println!("measured window: {:.3} s (nominal {} s)", run.window_s, args.seconds);
    for note in &run.notes {
        println!("note: {note}");
    }
    for f in run.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    print!("{}", report::table(&run, args.trace));
    let correct = run.failures.is_empty();
    println!("{}", report::result_line(&run, args.trace, correct));
    ExitCode::SUCCESS
}
