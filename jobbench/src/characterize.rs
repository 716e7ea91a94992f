//! `characterize` / `characterize-mild`: `utrr_fleet::run_fleet` over a
//! seeded synthetic population into a fresh output directory, as
//! `repro-fleet` runs it, under the `none` or `mild` fault profile.

use std::sync::Arc;

use faults::FaultProfile;
use obs::MetricsRegistry;
use utrr_fleet::record::SweepParams;
use utrr_fleet::{synth_spec, FleetConfig, RunOptions, SynthModule};

use crate::checks::check_fleet;
use crate::pipeline::{characterize_module, Counters, ModuleRun};
use crate::report::{peak_rss_mb, Report};
use crate::spans::Recorder;
use crate::{layers, stats, timed, Ctx, SetupClock};

/// Population size of the untraced run: one `run_fleet` pass over it
/// fills most of the 25-second run window on a 2-core host. A longer
/// pass averages more of the host's speed swings, which move a
/// 20-second pass by up to 15%.
pub const MODULES: u64 = 160;
/// Modules the stage-by-stage pipeline runs: the traced run's whole
/// population (it sweeps it about seven times), and the untraced run's
/// sample for the record check and the simulated time. They are the
/// first modules of the full population; a record depends only on the
/// sweep parameters and the module index.
pub const PIPELINE_MODULES: u64 = 32;
/// Checkpoint shards.
pub const SHARDS: u32 = 4;
/// Base scaled rows per bank (`repro-fleet`'s default).
pub const ROWS: u32 = 2_048;
/// `HC_first` victim samples (`repro-fleet`'s default).
pub const HC_SAMPLES: u32 = 6;
/// Attack-column victim samples (`repro-fleet`'s default).
pub const ATTACK_SAMPLES: u32 = 6;

/// The seeds this workload derives from `--seed`.
pub fn seeds(ctx: &Ctx) -> String {
    format!("{{\"fleet\":{0},\"fault\":{0}}}", ctx.seed)
}

/// The sweep of `modules` modules for `seed` under `profile`.
pub fn fleet_config(seed: u64, profile: FaultProfile, modules: u64) -> FleetConfig {
    FleetConfig {
        modules,
        shards: SHARDS,
        params: SweepParams {
            fleet_seed: seed,
            base_rows: ROWS,
            hc_samples: HC_SAMPLES,
            attack_samples: ATTACK_SAMPLES,
            fault_profile: profile,
            fault_seed: seed,
        },
    }
}

struct Setup {
    config: FleetConfig,
    first: SynthModule,
    registry: Arc<MetricsRegistry>,
    pool: par::ParConfig,
}

/// Specs generated, run registry and pool built: everything before the
/// first call into the fleet layer.
fn setup(ctx: &Ctx, profile: FaultProfile, modules: u64) -> Setup {
    let config = fleet_config(ctx.seed, profile, modules);
    let population: Vec<SynthModule> = (0..config.modules)
        .map(|i| synth_spec(config.params.fleet_seed, i, config.params.base_rows))
        .collect();
    let registry = MetricsRegistry::shared();
    let pool = par::ParConfig::metered(ctx.threads, Arc::clone(&registry));
    let first = population.into_iter().next().expect("a non-empty population");
    Setup { config, first, registry, pool }
}

/// One `run_fleet` into a fresh directory: wall seconds and the merged
/// artifact. The directory is left in place for a resume.
fn fleet_run(
    config: &FleetConfig,
    dir: &std::path::Path,
    pool: par::ParConfig,
    registry: Option<Arc<MetricsRegistry>>,
) -> Result<(f64, String), String> {
    let _ = std::fs::remove_dir_all(dir);
    let opts = RunOptions { pool, registry, ..RunOptions::new(dir) };
    let (wall, outcome) = timed(|| utrr_fleet::executor::run_fleet(config, &opts));
    outcome.map_err(|e| format!("run_fleet: {e}"))?;
    let text = std::fs::read_to_string(dir.join("fleet.jsonl"))
        .map_err(|e| format!("reading fleet.jsonl: {e}"))?;
    Ok((wall, text))
}

/// The same population through the stage-by-stage pipeline, shard by
/// shard with the executor's layout, one `par` task per module.
struct PipelinePass {
    wall: f64,
    runs: Vec<ModuleRun>,
}

fn pipeline_pass(
    config: &FleetConfig,
    threads: usize,
    rec: Option<&Recorder>,
    flight_recorder: bool,
) -> PipelinePass {
    let pool = par::ParConfig::with_threads(threads);
    let (wall, runs) = timed(|| {
        let mut runs = Vec::new();
        for shard in 0..config.effective_shards() {
            let (start, end) = config.shard_range(shard);
            let indices: Vec<u64> = (start..end).collect();
            runs.extend(par::par_map(&pool, &indices, |&i| match rec {
                Some(rec) => rec.span("fleet.module", i, || {
                    characterize_module(&config.params, i, Some(rec), flight_recorder)
                }),
                None => characterize_module(&config.params, i, None, flight_recorder),
            }));
        }
        runs
    });
    PipelinePass { wall, runs }
}

/// The pipeline's records rendered as `run_fleet` renders them.
fn records_text(runs: &[ModuleRun]) -> String {
    runs.iter().map(|r| r.record.to_json_line() + "\n").collect()
}

/// Checks `text`, and that the pipeline's records are its first
/// records; returns how many modules are not ok.
fn check(report: &mut Report, text: &str, config: &FleetConfig, pipeline: &[ModuleRun]) -> u64 {
    let body = text.split_once('\n').map_or("", |(_, body)| body);
    if !body.starts_with(&records_text(pipeline)) {
        report.fail("stage-by-stage pipeline records differ from run_fleet's");
    }
    match check_fleet(text, config.modules, config.params.fault_profile) {
        Ok(not_ok) => not_ok.len() as u64,
        Err(e) => {
            report.fail(e);
            report.failed = config.modules;
            config.modules
        }
    }
}

/// Untraced run: the end-to-end metrics.
pub fn run(ctx: &Ctx, profile: FaultProfile) -> Report {
    let (mut clock, s) = SetupClock::start(|| setup(ctx, profile, MODULES));
    let mut report = Report::new(s.config.modules);
    let dir = ctx.work_dir("fleet");
    let reps = crate::repeat_for(ctx.seconds, |_| {
        let out = fleet_run(&s.config, &dir, s.pool.clone(), Some(Arc::clone(&s.registry)));
        clock.sample();
        out
    });
    let peak_rss = peak_rss_mb();
    let reps: Vec<(f64, String)> = match reps.into_iter().collect::<Result<_, _>>() {
        Ok(reps) => reps,
        Err(e) => {
            report.fail(e);
            report.failed = s.config.modules;
            return report;
        }
    };
    if reps.iter().any(|(_, text)| *text != reps[0].1) {
        report.fail("merged fleet artifact differs between repetitions");
    }
    // The stage-by-stage pass over the sample gives the simulated time
    // and must agree with run_fleet record for record.
    let sample = FleetConfig { modules: PIPELINE_MODULES, ..s.config.clone() };
    let pass = pipeline_pass(&sample, ctx.threads, None, false);
    clock.sample();
    let not_ok = check(&mut report, &reps[0].1, &s.config, &pass.runs);

    let walls: Vec<f64> = reps.iter().map(|(w, _)| *w).collect();
    let wall = stats::median(&walls).unwrap_or(f64::NAN);
    let modules = s.config.modules as f64;
    let sampled = pass.runs.len() as f64;
    let positions_per_module = pass.runs.iter().map(|r| r.positions).sum::<u64>() as f64 / sampled;
    let sim_ns = pass.runs.iter().map(|r| r.costs.sim_ns()).sum::<u64>() as f64;
    report.set("setup_s", clock.seconds());
    report.set("modules_per_s", modules / wall);
    report.set("sim_s_per_module", sim_ns / 1e9 / sampled);
    report.set("positions_per_s", modules * positions_per_module / wall);
    report.set("candidates_per_s", modules / wall);
    report.set("ok_frac", 1.0 - not_ok as f64 / modules);
    report.set("peak_rss_mb", peak_rss);
    report
}

/// Modules the flight-recorder price is measured on (tracing every
/// event of a whole population would dominate the run).
const RECORDER_MODULES: u64 = 4;

/// Traced run: the per-layer metrics.
pub fn traced(ctx: &Ctx, profile: FaultProfile) -> Report {
    let s = setup(ctx, profile, PIPELINE_MODULES);
    let mut report = Report::new(s.config.modules);
    let dir = ctx.work_dir("fleet-traced");
    let metered = |threads| par::ParConfig::metered(threads, Arc::clone(&s.registry));

    let untraced = fleet_run(&s.config, &dir, metered(ctx.threads), Some(Arc::clone(&s.registry)));
    let Ok((wall_u, text)) = untraced else {
        report.fail(untraced.unwrap_err());
        report.failed = s.config.modules;
        return report;
    };
    let resume = RunOptions {
        resume: true,
        pool: metered(ctx.threads),
        registry: Some(Arc::clone(&s.registry)),
        ..RunOptions::new(&dir)
    };
    let (resume_s, resumed) = timed(|| utrr_fleet::executor::run_fleet(&s.config, &resume));
    match resumed {
        Ok(o) if o.skipped_shards == s.config.effective_shards() => {}
        Ok(_) => report.fail("resume recomputed checkpointed shards"),
        Err(e) => report.fail(format!("resume: {e}")),
    }
    if std::fs::read_to_string(dir.join("fleet.jsonl")).ok().as_deref() != Some(text.as_str()) {
        report.fail("resumed merge differs from the uninterrupted one");
    }
    let wall_1 = fleet_run(&s.config, &dir, metered(1), Some(Arc::clone(&s.registry)))
        .map(|(w, t)| {
            if t != text {
                report.fail("fleet artifact differs between 1 thread and the workload's threads");
            }
            w
        })
        .unwrap_or(f64::NAN);
    let wall_noreg = fleet_run(&s.config, &dir, par::ParConfig::with_threads(ctx.threads), None)
        .map(|(w, _)| w)
        .unwrap_or(f64::NAN);

    let plain = pipeline_pass(&s.config, ctx.threads, None, false);
    let rec = Recorder::default();
    let traced = pipeline_pass(&s.config, ctx.threads, Some(&rec), false);
    check(&mut report, &text, &s.config, &traced.runs);
    let counters = Counters::sum(traced.runs.iter().map(|r| &r.counters));
    if counters != Counters::sum(plain.runs.iter().map(|r| &r.counters)) {
        report.fail("traced exact counters differ from the untraced pass");
    }
    let sample = FleetConfig { modules: RECORDER_MODULES, shards: 1, ..s.config.clone() };
    let without = pipeline_pass(&sample, ctx.threads, None, false);
    let with = pipeline_pass(&sample, ctx.threads, None, true);

    let runs = &traced.runs;
    let modules = runs.len() as f64;
    let mean = |f: &dyn Fn(&ModuleRun) -> f64| runs.iter().map(f).sum::<f64>() / modules;
    let builds: Vec<f64> =
        runs.iter().flat_map(|r| r.costs.builds_ns.iter().map(|&ns| ns as f64 / 1e6)).collect();
    report.set("modules.build_ms", stats::median(&builds).unwrap_or(0.0));
    layers::device_metrics(&mut report, &s.first.spec, s.first.rows, s.first.seed);
    layers::trr_metrics(&mut report);
    layers::counter_metrics(&mut report, &counters);
    report.set("core.scout_ms", mean(&|r| r.costs.scout.host_ns as f64 / 1e6));
    report.set("core.scout_sim_s", mean(&|r| r.costs.scout.sim_ns as f64 / 1e9));
    report.set("core.scout_acts", mean(&|r| r.costs.scout.acts as f64));
    report.set("core.classify_ms", mean(&|r| r.costs.classify.host_ns as f64 / 1e6));
    report.set("core.classify_sim_s", mean(&|r| r.costs.classify.sim_ns as f64 / 1e9));
    report.set("core.classify_acts", mean(&|r| r.costs.classify.acts as f64));
    report.set("core.schedule_ms", mean(&|r| r.costs.schedule.host_ns as f64 / 1e6));
    report.set("core.schedule_sim_s", mean(&|r| r.costs.schedule.sim_ns as f64 / 1e9));
    report.set("core.hc_first_ms", mean(&|r| r.costs.hc_first.host_ns as f64 / 1e6));
    let sum = |f: &dyn Fn(&ModuleRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    report.set("core.scout_quarantined", sum(&|r| r.record.scout_quarantined));
    report.set("core.re_attempts", mean(&|r| f64::from(r.record.re_attempts)));
    report.set("core.voted_reads", sum(&|r| r.record.reads_voted));
    report.set("core.read_disagreements", sum(&|r| r.record.read_disagreements));
    report.set("core.write_retries", sum(&|r| r.record.write_retries));

    let sweeps: Vec<f64> = runs.iter().map(|r| r.costs.attack.host_ns as f64 / 1e6).collect();
    layers::tail_metrics(
        &mut report,
        &sweeps,
        [
            "attacks.sweep_ms_p50",
            "attacks.sweep_ms_tail",
            "attacks.sweep_tail_pct",
            "attacks.sweep_samples",
        ],
    );
    report.set(
        "attacks.task_ns_per_act",
        sum(&|r| r.costs.attack.host_ns) / sum(&|r| r.costs.attack.acts).max(1.0),
    );
    report.set("attacks.vulnerable_frac", sum(&|r| r.vulnerable) / sum(&|r| r.positions).max(1.0));

    let module_ms = rec.durations_ms("fleet.module");
    layers::tail_metrics(
        &mut report,
        &module_ms,
        [
            "fleet.module_ms_p50",
            "fleet.module_ms_tail",
            "fleet.module_tail_pct",
            "fleet.module_samples",
        ],
    );
    let module_total_ms: f64 = module_ms.iter().sum();
    // The plain pass runs the same modules with the executor's shard
    // layout and pool but without its files, manifest and merge.
    report.set("fleet.executor_self_ms", (wall_u - plain.wall) * 1e3);
    report.set("fleet.resume_ms", resume_s * 1e3);
    report.set("par.speedup", wall_1 / wall_u);
    report.set("par.busy_frac", module_total_ms / 1e3 / (ctx.threads as f64 * traced.wall));
    report.set("obs.registry_overhead", wall_u / wall_noreg);
    report.set("obs.recorder_overhead", with.wall / without.wall);
    report.set("bench.trace_overhead", traced.wall / plain.wall);
    let spans = ctx.out_dir.join(format!("spans-characterize-{profile}-{}.jsonl", ctx.seed));
    if let Err(e) = rec.write_jsonl(&spans) {
        eprintln!("warning: span dump not written: {e}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}
