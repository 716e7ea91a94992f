//! The command line every repro binary shares: typed `--key value`
//! accessors ([`Args`]) and the run context built from them
//! ([`RunContext`]) — worker pool, fault injection, flight recorder, and
//! the end-of-run artifacts.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

use attacks::eval::EvalConfig;
use faults::FaultProfile;
use obs::MetricsRegistry;
use utrr_modules::{catalog, ModuleSpec};

use crate::{BenchPhases, Substrate};

/// Flags whose value falls back to an environment variable when the
/// flag itself is absent. (`--threads` falls back to `UTRR_THREADS`
/// inside [`par::resolve_threads`].)
const ENV_FALLBACKS: [(&str, &str); 2] =
    [("--metrics-out", "UTRR_METRICS_OUT"), ("--threshold", "UTRR_BENCH_THRESHOLD")];

/// `--key value` command-line arguments with typed accessors. A flag
/// without a following value reads as absent.
#[derive(Debug, Clone)]
pub struct Args(Vec<String>);

impl Args {
    /// The process arguments, program name skipped.
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1))
    }

    /// Arguments from an explicit list.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        Args(args.into_iter().map(Into::into).collect())
    }

    /// The value after `key`, else its environment fallback, with the
    /// name to report it under.
    fn lookup<'k>(&self, key: &'k str) -> Option<(&'k str, String)> {
        let flag = self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1));
        match flag {
            Some(value) => Some((key, value.clone())),
            None => ENV_FALLBACKS
                .iter()
                .find(|(flag, _)| *flag == key)
                .and_then(|&(_, env)| Some((env, std::env::var(env).ok()?))),
        }
    }

    /// The raw value of `key`.
    pub fn value(&self, key: &str) -> Option<String> {
        self.lookup(key).map(|(_, value)| value)
    }

    /// Whether a bare `key` is present.
    pub fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    /// The value of `key` parsed as `T`; `None` when absent. Exits with
    /// status 2 on a value that does not parse.
    pub fn num<T: FromStr>(&self, key: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.try_num(key).unwrap_or_else(|e| usage_error(&e))
    }

    fn try_num<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.lookup(key)
            .map(|(name, value)| value.parse().map_err(|e| format!("{name}: {e} ({value:?})")))
            .transpose()
    }
}

/// Reports a malformed command line and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Everything a repro binary's run shares, parsed once from its flags:
///
/// - `--threads N` (or `UTRR_THREADS`): the worker count;
/// - `--faults none|mild|hostile` and `--fault-seed N` (default 1);
/// - `--metrics-out PATH` (or `UTRR_METRICS_OUT`): the metrics artifact;
/// - `--trace-out PATH` (JSONL, schema `utrr-trace/1`), `--trace-chrome
///   PATH` (Chrome `trace_event` JSON), and `--trace-rows SPEC` (`all`,
///   or a comma list of rows and inclusive `A-B` ranges, capturing
///   those rows ±2);
/// - `--bench-out PATH`: the phase-timing artifact, for the binaries
///   that pass their [`BenchPhases`] to [`RunContext::finish`].
///
/// It owns the run registry (with a flight recorder installed when a
/// trace was requested; otherwise every `trace()` call stays a single
/// relaxed load) and the metered worker pool. It dereferences to its
/// [`Args`] for the binary's own flags.
pub struct RunContext {
    args: Args,
    /// Worker count.
    pub threads: usize,
    /// Fault profile installed into every controller of the run.
    pub fault_profile: FaultProfile,
    /// Seed of the deterministic fault plan.
    pub fault_seed: u64,
    /// The run registry every module attaches to.
    pub registry: Arc<MetricsRegistry>,
    /// The worker pool, metered into the run registry.
    pub pool: par::ParConfig,
}

impl std::ops::Deref for RunContext {
    type Target = Args;

    fn deref(&self) -> &Args {
        &self.args
    }
}

impl RunContext {
    /// The run context of the process arguments. Exits with status 2 on
    /// a malformed shared flag.
    pub fn from_env() -> Self {
        RunContext::new(Args::from_env())
    }

    /// The run context of `args`. Exits with status 2 on a malformed
    /// shared flag.
    pub fn new(args: Args) -> Self {
        let fault_profile = match args.value("--faults") {
            Some(name) => name.parse().unwrap_or_else(|e| usage_error(&format!("{e}"))),
            None => FaultProfile::None,
        };
        let fault_seed = args.num("--fault-seed").unwrap_or(1);
        let threads = par::resolve_threads(args.num("--threads"));
        let filter = match args.value("--trace-rows") {
            Some(spec) => obs::TraceFilter::parse(&spec)
                .unwrap_or_else(|e| usage_error(&format!("--trace-rows: {e}"))),
            None => obs::TraceFilter::all(),
        };
        let registry = MetricsRegistry::shared();
        if args.value("--trace-out").is_some() || args.value("--trace-chrome").is_some() {
            registry.install_recorder(Arc::new(obs::FlightRecorder::new(
                obs::DEFAULT_TRACE_CAPACITY,
                filter,
            )));
        }
        let pool = par::ParConfig::metered(threads, Arc::clone(&registry));
        RunContext { args, threads, fault_profile, fault_seed, registry, pool }
    }

    /// The catalog, restricted to the ids of `--modules A5,B0,...` when
    /// given, in catalog order.
    pub fn modules(&self) -> Vec<ModuleSpec> {
        let filter = self.value("--modules");
        catalog()
            .into_iter()
            .filter(|spec| match &filter {
                Some(list) => list.split(',').any(|id| id == spec.id),
                None => true,
            })
            .collect()
    }

    /// Prints the `# fault injection:` report header line, when faults
    /// are on.
    pub fn print_fault_banner(&self) {
        if self.fault_profile != FaultProfile::None {
            println!("# fault injection: {} profile, seed {}", self.fault_profile, self.fault_seed);
        }
    }

    /// A sampled attack-sweep configuration on this run's registry and
    /// fault plan.
    pub fn eval_config(&self, samples: u32, windows: u32, rows: u32) -> EvalConfig {
        EvalConfig {
            sample_count: samples,
            windows,
            scaled_rows: Some(rows),
            registry: Some(Arc::clone(&self.registry)),
            fault_profile: self.fault_profile,
            fault_seed: self.fault_seed,
            ..EvalConfig::quick(samples)
        }
    }

    /// The characterisation substrate of this run at `rows` rows per
    /// bank.
    pub fn substrate(&self, rows: u32) -> Substrate<'_> {
        Substrate {
            rows,
            registry: Some(&self.registry),
            fault_profile: self.fault_profile,
            fault_seed: self.fault_seed,
        }
    }

    /// Ends the run: writes the `--bench-out` artifact (from `bench`),
    /// the trace artifacts and the metrics artifact, then prints the
    /// metrics summary table to stderr. Exits with status 1, naming the
    /// path, when an artifact cannot be written.
    pub fn finish(self, bench: Option<&BenchPhases>) {
        if let (Some(bench), Some(path)) = (bench, self.value("--bench-out")) {
            let path = PathBuf::from(path);
            artifact_written(&path, bench.write(&path));
            eprintln!("bench artifact: {}", path.display());
        }
        if let Some(recorder) = self.registry.recorder() {
            let (events, dropped) = recorder.snapshot();
            if let Some(path) = self.value("--trace-out").map(PathBuf::from) {
                artifact_written(
                    &path,
                    obs::trace::write_trace_jsonl_to_path(&events, dropped, &path),
                );
                eprintln!(
                    "trace artifact: {} ({} events, {dropped} dropped)",
                    path.display(),
                    events.len()
                );
            }
            if let Some(path) = self.value("--trace-chrome").map(PathBuf::from) {
                artifact_written(&path, obs::trace::write_chrome_trace_to_path(&events, &path));
                eprintln!("chrome trace: {} ({} events)", path.display(), events.len());
            }
        }
        if let Some(path) = self.value("--metrics-out").map(PathBuf::from) {
            artifact_written(&path, obs::jsonl::write_jsonl_to_path(&self.registry, &path));
            eprintln!("metrics artifact: {}", path.display());
        }
        eprint!("{}", obs::report::render_summary(&self.registry));
    }
}

/// Exits with status 1 when writing the artifact at `path` failed.
fn artifact_written(path: &Path, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("error: writing {}: {e}", path.display());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().copied())
    }

    #[test]
    fn values_and_flags() {
        let args = args(&["--rows", "512", "--full", "--modules", "A5,B0"]);
        assert_eq!(args.value("--rows").as_deref(), Some("512"));
        assert_eq!(args.value("--modules").as_deref(), Some("A5,B0"));
        assert_eq!(args.value("--samples"), None);
        assert!(args.flag("--full"));
        assert!(!args.flag("--quick"));
    }

    #[test]
    fn integer_flags_parse_default_or_fail() {
        let args = args(&["--rows", "1024", "--samples", "1O24", "--windows"]);
        assert_eq!(args.try_num::<u32>("--rows"), Ok(Some(1_024)));
        assert_eq!(args.try_num::<u32>("--seed"), Ok(None));
        // A trailing flag with no value reads as absent.
        assert_eq!(args.try_num::<u32>("--windows"), Ok(None));
        let err = args.try_num::<u32>("--samples").unwrap_err();
        assert!(err.starts_with("--samples: "), "{err}");
        assert!(err.contains("1O24"), "{err}");
    }

    #[test]
    fn float_flags_parse_default_or_fail() {
        let args = args(&["--para-prob", "0.002", "--threshold", "x"]);
        assert_eq!(args.try_num::<f64>("--para-prob"), Ok(Some(0.002)));
        assert_eq!(args.try_num::<f64>("--missing"), Ok(None));
        let err = args.try_num::<f64>("--threshold").unwrap_err();
        assert!(err.starts_with("--threshold: "), "{err}");
    }
}
