//! Metric catalogue, result line, and host context.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), name and unit. Every workload
/// reports every one of them; `README.md` defines each per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("modules_per_s", "modules/s"),
    ("sim_s_per_module", "sim_s"),
    ("positions_per_s", "positions/s"),
    ("candidates_per_s", "candidates/s"),
    ("ok_frac", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), name and unit. A layer a workload
/// does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("modules.build_ms", "ms"),
    ("dram-sim.act_ns", "ns"),
    ("dram-sim.ref_ns", "ns"),
    ("dram-sim.restore_ns_per_row", "ns"),
    ("dram-sim.acts", "count"),
    ("dram-sim.refs", "count"),
    ("dram-sim.rows_restored", "count"),
    ("dram-sim.row_reads", "count"),
    ("dram-sim.row_writes", "count"),
    ("dram-sim.bit_flips", "count"),
    ("trr.counter.act_hook_ns", "ns"),
    ("trr.sampler.act_hook_ns", "ns"),
    ("trr.window.act_hook_ns", "ns"),
    ("trr.counter.ref_hook_ns", "ns"),
    ("trr.sampler.ref_hook_ns", "ns"),
    ("trr.window.ref_hook_ns", "ns"),
    ("trr.detections", "count"),
    ("trr.row_refreshes", "count"),
    ("faults.injected", "count"),
    ("core.scout_ms", "ms"),
    ("core.scout_sim_s", "sim_s"),
    ("core.scout_acts", "count"),
    ("core.classify_ms", "ms"),
    ("core.classify_sim_s", "sim_s"),
    ("core.classify_acts", "count"),
    ("core.schedule_ms", "ms"),
    ("core.schedule_sim_s", "sim_s"),
    ("core.hc_first_ms", "ms"),
    ("core.scout_quarantined", "count"),
    ("core.re_attempts", "count"),
    ("core.voted_reads", "count"),
    ("core.read_disagreements", "count"),
    ("core.write_retries", "count"),
    ("attacks.sweep_ms_p50", "ms"),
    ("attacks.sweep_ms_tail", "ms"),
    ("attacks.sweep_tail_pct", "percentile"),
    ("attacks.sweep_samples", "count"),
    ("attacks.task_ns_per_act", "ns"),
    ("attacks.vulnerable_frac", "share"),
    ("attacks.fuzz_eval_ms_p50", "ms"),
    ("attacks.fuzz_eval_ms_tail", "ms"),
    ("attacks.fuzz_eval_tail_pct", "percentile"),
    ("attacks.fuzz_eval_samples", "count"),
    ("attacks.fuzz_bypass_frac", "share"),
    ("attacks.fuzz_a_trr1_bypass", "share"),
    ("fleet.module_ms_p50", "ms"),
    ("fleet.module_ms_tail", "ms"),
    ("fleet.module_tail_pct", "percentile"),
    ("fleet.module_samples", "count"),
    ("fleet.executor_self_ms", "ms"),
    ("fleet.resume_ms", "ms"),
    ("par.speedup", "ratio"),
    ("par.busy_frac", "share"),
    ("obs.registry_overhead", "ratio"),
    ("obs.recorder_overhead", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (modules, modules, hunts).
    pub attempted: u64,
    /// Operations that did not complete or whose outputs failed a check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// A report that is correct until a check says otherwise.
    pub fn new(attempted: u64) -> Self {
        Report { correct: true, attempted, ..Report::default() }
    }

    /// Sets metric `name` (must be in one of the catalogues).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Marks the run incorrect.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.correct = false;
        self.problems.push(problem.into());
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of the catalogue (`PER_LAYER` when traced, else
    /// `END_TO_END`). Unset per-layer metrics (layers the workload does
    /// not run) read 0; values print with all their digits.
    pub fn to_json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().filter(|v| v.is_finite());
                format!("\"{name}\":{{\"value\":{:?},\"unit\":\"{unit}\"}}", value.unwrap_or(0.0))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Where and how a result was produced, so later comparisons are like
/// with like.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Worker threads the workload ran with.
    pub threads: usize,
    /// Cargo profile of this binary.
    pub profile: &'static str,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: &'static str,
    /// 1/5/15-minute load average at start.
    pub loadavg: String,
}

impl Host {
    /// Captures the context at harness start.
    pub fn capture(threads: usize) -> Self {
        Host {
            available_parallelism: par::available_threads(),
            threads,
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            git_rev: git_rev(std::path::Path::new(".")).unwrap_or_else(|| "unknown".into()),
            rustc: env!("JOBBENCH_RUSTC"),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
                .unwrap_or_else(|_| "unknown".into()),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\":{},\"threads\":{},\"profile\":\"{}\",\"git_rev\":\"{}\",\
             \"rustc\":\"{}\",\"loadavg\":\"{}\"}}",
            self.available_parallelism,
            self.threads,
            self.profile,
            self.git_rev,
            self.rustc,
            self.loadavg
        )
    }
}

/// Reads the checked-out commit from `root/.git` without running git
/// (and without looking above `root`).
fn git_rev(root: &std::path::Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// metrics this harness prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogues() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = obs::jsonl::parse_json(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(obs::jsonl::JsonValue::Arr(entries)) = json.get(key) else {
                panic!("BENCHMARK.json has no {key} array");
            };
            let declared: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    let field = |k| e.get(k).and_then(obs::jsonl::JsonValue::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, catalogue.to_vec(), "{key} drifted from the harness");
        }
    }

    #[test]
    fn result_line_has_every_metric_of_its_mode() {
        let mut report = Report::new(3);
        report.set("setup_s", 0.25);
        report.failed = 1;
        let line = report.to_json(false);
        let json = obs::jsonl::parse_json(&line).unwrap();
        assert_eq!(json.get("attempted").and_then(obs::jsonl::JsonValue::as_u64), Some(3));
        assert_eq!(json.get("failed").and_then(obs::jsonl::JsonValue::as_u64), Some(1));
        let metrics = json.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(obs::jsonl::JsonValue::as_str), Some(*unit));
        }
        let traced = obs::jsonl::parse_json(&report.to_json(true)).unwrap();
        assert!(traced.get("metrics").unwrap().get("par.speedup").is_some());
        assert!(traced.get("metrics").unwrap().get("setup_s").is_none());
    }
}
