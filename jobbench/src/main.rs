//! `jobbench` — the benchmark of the three jobs this system is run for:
//! characterise modules with the §6 methodology (`characterize`,
//! `characterize-mild`), evaluate the §7 custom attacks (`attack`,
//! `attack-mild`), and hunt for TRR bypasses (`hunt`).
//!
//! ```text
//! jobbench --workload W --seed N --seconds S --trace 0|1
//! jobbench record-digests
//! ```
//!
//! The untraced run (`--trace 0`) calls the library's public entry
//! points the way the `repro-*` binaries do and reports the end-to-end
//! metrics. The traced run (`--trace 1`) drives the same work through
//! the public stage calls, timed from this crate's own files, and
//! reports the per-layer metrics. The last stdout line is the result
//! object; `README.md` has the metric definitions.

mod attack;
mod characterize;
mod checks;
mod hunt;
mod layers;
mod pipeline;
mod report;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Host, Report};

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Workload seed (fleet, fault, fuzz and eval seeds derive from it).
    pub seed: u64,
    /// How long the measured phase runs, at least one repetition.
    pub seconds: f64,
    /// Worker threads.
    pub threads: usize,
    /// Scratch and artifact directory, inside the checkout.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A fresh, empty work directory `name` under the output directory.
    pub fn work_dir(&self, name: &str) -> PathBuf {
        let dir = self.out_dir.join("work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Runs `rep` once, then again while the next repetition, at the mean
/// pace so far, should end inside `seconds`; returns each repetition's
/// output. A repetition longer than `seconds` runs once.
pub fn repeat_for<T>(seconds: f64, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = vec![rep(0)];
    while start.elapsed().as_secs_f64() * (out.len() + 1) as f64 / out.len() as f64 <= seconds {
        out.push(rep(out.len()));
    }
    out
}

/// Set-up is timed in batches of back-to-back set-ups, each batch at
/// least [`SETUP_BATCH_SECONDS`] long: a set-up takes microseconds, and
/// a single one reads the timer and the cache state more than the work.
pub const SETUP_BATCH_SECONDS: f64 = 0.02;
/// Batches timed at each sampling moment.
pub const SETUP_BATCHES: usize = 10;

/// Times a workload's set-up at several moments of the run: at the
/// start, between repetitions and after the checks. Each moment's figure
/// is the median batch time per set-up over [`SETUP_BATCHES`] batches.
///
/// `setup_s` is the fastest moment's median. On a shared host the speed
/// of this allocation-bound microsecond work flips between a fast state
/// and one about twice as slow, each lasting a second or so, and a
/// moment reads whichever state it lands in. The share of slow moments
/// varies from run to run, so a median over moments jumps between the
/// two states; the fastest moment reads the work itself, and only a run
/// spent wholly in the slow state reads slow.
pub struct SetupClock<F> {
    setup: F,
    batch: usize,
    moments: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupClock<F> {
    /// Calibrates the batch size (doubling until a batch lasts
    /// [`SETUP_BATCH_SECONDS`]) and takes the first moment; returns the
    /// clock and the last set-up's value.
    pub fn start(setup: F) -> (Self, T) {
        let mut clock = SetupClock { setup, batch: 1, moments: Vec::new() };
        let (mut time, mut value) = clock.run_batch();
        while time < SETUP_BATCH_SECONDS {
            clock.batch *= 2;
            (time, value) = clock.run_batch();
        }
        clock.sample();
        (clock, value)
    }

    /// Takes one more moment.
    pub fn sample(&mut self) {
        let times: Vec<f64> =
            (0..SETUP_BATCHES).map(|_| self.run_batch().0 / self.batch as f64).collect();
        self.moments.extend(stats::median(&times));
    }

    /// Seconds per set-up: the fastest moment's median.
    pub fn seconds(&self) -> f64 {
        let fastest = self.moments.iter().copied().reduce(f64::min);
        let all: Vec<String> = self.moments.iter().map(|m| format!("{:.2}", m * 1e6)).collect();
        eprintln!("set-up moments (µs per set-up): {}", all.join(" "));
        fastest.unwrap_or(f64::NAN)
    }

    /// Runs one batch; its seconds and the last set-up's value.
    fn run_batch(&mut self) -> (f64, T) {
        let (n, setup) = (self.batch, &mut self.setup);
        timed(|| {
            for _ in 1..n {
                std::hint::black_box(setup());
            }
            setup()
        })
    }
}

/// Seconds elapsed running `f`, and its output.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

const WORKLOADS: &[&str] = &["characterize", "characterize-mild", "attack", "attack-mild", "hunt"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |key: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == key).ok_or(format!("missing {key}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{key} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {}", WORKLOADS.join(", ")));
    }
    let number = |key: &str| value(key)?.parse::<f64>().map_err(|_| format!("{key}: not a number"));
    let seed = value("--seed")?.parse().map_err(|_| "--seed: not an unsigned integer")?;
    let seconds = number("--seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace, threads: par::available_threads().min(2) })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: creating {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    if args.first().map(String::as_str) == Some("record-digests") {
        return match attack::record_digests() {
            Ok(paths) => {
                for path in paths {
                    eprintln!("wrote {}", path.display());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: jobbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::capture(args.threads);
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, threads: args.threads, out_dir };
    let mild = faults::FaultProfile::Mild;
    let none = faults::FaultProfile::None;
    let workload = || match (args.workload.as_str(), args.trace) {
        ("characterize", false) => characterize::run(&ctx, none),
        ("characterize", true) => characterize::traced(&ctx, none),
        ("characterize-mild", false) => characterize::run(&ctx, mild),
        ("characterize-mild", true) => characterize::traced(&ctx, mild),
        ("attack", false) => attack::run(&ctx, none),
        ("attack", true) => attack::traced(&ctx, none),
        ("attack-mild", false) => attack::run(&ctx, mild),
        ("attack-mild", true) => attack::traced(&ctx, mild),
        ("hunt", false) => hunt::run(&ctx),
        (_, _) => hunt::traced(&ctx),
    };
    // A panic inside the library (e.g. a module whose reverse engineering
    // exhausts its retries) is a failed run, reported as such.
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(workload)).unwrap_or_else(
        |payload| {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            let mut report = Report::new(1);
            report.failed = 1;
            report.fail(format!("panic: {message}"));
            report
        },
    );
    let seeds = match args.workload.as_str() {
        "attack" | "attack-mild" => attack::seeds(&ctx),
        "hunt" => hunt::seeds(&ctx),
        _ => characterize::seeds(&ctx),
    };
    remove_work_dirs(&ctx.out_dir.join("work"));

    let result = report.to_json(args.trace);
    let context = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seeds\":{seeds},\"host\":{}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host.to_json()
    );
    summarise(&report, args.trace);
    let problems: Vec<String> = report.problems.iter().map(|p| format!("{p:?}")).collect();
    let line = format!(
        "{{\"context\":{context},\"result\":{result},\"problems\":[{}]}}\n",
        problems.join(",")
    );
    if let Err(e) = append(&ctx.out_dir.join("results.jsonl"), &line) {
        eprintln!("warning: results log not written: {e}");
    }
    println!("{context}");
    println!("{result}");
    ExitCode::SUCCESS
}

/// The human-readable summary, on stderr.
fn summarise(report: &Report, traced: bool) {
    let catalogue = if traced { report::PER_LAYER } else { report::END_TO_END };
    for &(name, unit) in catalogue {
        eprintln!("{name:>30} {:>16.6} {unit}", report.get(name).unwrap_or(0.0));
    }
    if let Some(ok) = report.get("ok_frac") {
        eprintln!("{:>30} {:>16.6} share (1 - ok_frac)", "fail_frac", 1.0 - ok);
    }
    eprintln!("{:>30} {} of {} operations", "failed", report.failed, report.attempted);
    for problem in &report.problems {
        eprintln!("problem: {problem}");
    }
}

/// Removes this process's work directories (see [`Ctx::work_dir`]).
fn remove_work_dirs(work: &std::path::Path) {
    let suffix = format!("-{}", std::process::id());
    for entry in std::fs::read_dir(work).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().ends_with(&suffix) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

fn append(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::OpenOptions::new().create(true).append(true).open(path)?.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::jsonl::{parse_json, JsonValue};

    #[test]
    fn benchmark_json_workloads_are_harness_workloads() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(JsonValue::Arr(workloads)) = json.get("workloads") else {
            panic!("BENCHMARK.json has no workloads array");
        };
        for w in workloads {
            let name = w.get("name").and_then(JsonValue::as_str).unwrap();
            assert!(WORKLOADS.contains(&name), "{name} is not a harness workload");
        }
    }

    #[test]
    fn repeat_for_stops_before_overrunning_the_window() {
        assert_eq!(repeat_for(0.0, |i| i), vec![0], "one repetition always runs");
        let reps = repeat_for(0.05, |i| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            i
        });
        assert_eq!(reps, vec![0, 1], "a third 20 ms repetition would end past 50 ms");
    }

    #[test]
    fn setup_clock_reports_time_per_setup() {
        let mut calls = 0u64;
        let (mut clock, value) = SetupClock::start(|| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_micros(500));
            calls
        });
        clock.sample();
        assert!(value > 1, "the last set-up's value is returned");
        let seconds = clock.seconds();
        assert!((5e-4..5e-3).contains(&seconds), "{seconds} s per set-up");
    }
}
