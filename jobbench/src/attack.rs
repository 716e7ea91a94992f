//! `attack` / `attack-mild`: the §7.1 custom-pattern attack columns over
//! all 45 catalog modules (all 8 TRR versions) on one shared run
//! registry, as `repro-fig9` and `repro-table1` run them, under the
//! `none` or `mild` fault profile (`repro-fig9 --faults mild`).

use std::sync::Arc;

use attacks::custom;
use attacks::eval::{sweep_bank_module, BankSweep, EvalConfig};
use faults::FaultProfile;
use obs::MetricsRegistry;
use utrr_modules::{catalog, ModuleSpec};

use crate::checks::{attack_module_ok, sweep_digest, DigestTable};
use crate::pipeline::{build, sweep_sim_ns, Counters};
use crate::report::{peak_rss_mb, Report};
use crate::spans::Recorder;
use crate::{layers, stats, timed, Ctx, SetupClock};

/// Scaled rows per bank (`repro-fig9`'s default).
pub const ROWS: u32 = 2_048;
/// Victim positions per module.
pub const SAMPLES: u32 = 12;
/// Refresh windows per position.
pub const WINDOWS: u32 = 1;
/// Eval seeds the digest table covers; `--seed` picks slot
/// `seed % SLOTS`.
pub const SLOTS: u64 = 16;
/// Eval seed of slot 0: `EvalConfig::quick`'s, the repro binaries' seed.
pub const EVAL_SEED_BASE: u64 = 77;

/// The digest table recorded for `profile`'s sweeps (the workloads run
/// `none` and `mild`).
fn recorded_digests(profile: FaultProfile) -> &'static str {
    match profile {
        FaultProfile::None => include_str!("../digests/attack.tsv"),
        _ => include_str!("../digests/attack-mild.tsv"),
    }
}

/// Where `record-digests` writes `profile`'s table.
fn digests_path(profile: FaultProfile) -> String {
    let name = match profile {
        FaultProfile::None => "attack",
        _ => "attack-mild",
    };
    format!("{}/digests/{name}.tsv", env!("CARGO_MANIFEST_DIR"))
}

fn params_line(profile: FaultProfile) -> String {
    let line =
        format!("rows {ROWS} samples {SAMPLES} windows {WINDOWS} eval_seed {EVAL_SEED_BASE}+slot");
    match profile {
        FaultProfile::None => line,
        _ => format!("{line} faults {profile} fault_seed eval_seed"),
    }
}

/// The eval seed of `seed`'s slot.
pub fn eval_seed(seed: u64) -> u64 {
    EVAL_SEED_BASE + seed % SLOTS
}

/// The seeds this workload derives from `--seed`.
pub fn seeds(ctx: &Ctx) -> String {
    format!("{{\"eval\":{},\"slot\":{}}}", eval_seed(ctx.seed), ctx.seed % SLOTS)
}

fn eval_config(
    seed: u64,
    profile: FaultProfile,
    registry: Option<Arc<MetricsRegistry>>,
) -> EvalConfig {
    EvalConfig {
        sample_count: SAMPLES,
        windows: WINDOWS,
        scaled_rows: Some(ROWS),
        seed: eval_seed(seed),
        registry,
        fault_profile: profile,
        fault_seed: eval_seed(seed),
        ..EvalConfig::quick(SAMPLES)
    }
}

struct Setup {
    profile: FaultProfile,
    specs: Vec<ModuleSpec>,
    digests: DigestTable,
    /// The first repetition's registry and pool; later repetitions build
    /// their own, so each repetition's counters are its own.
    first: Option<Rep>,
}

/// Catalog and recorded digests loaded, run registry and pool built:
/// everything before the first call into the attacks layer.
fn setup(ctx: &Ctx, profile: FaultProfile) -> Result<Setup, String> {
    Ok(Setup {
        profile,
        specs: catalog(),
        digests: DigestTable::parse(recorded_digests(profile))?,
        first: Some(Rep::new(ctx.seed, profile, ctx.threads, true, false)),
    })
}

/// One repetition's registry, pool and eval config.
struct Rep {
    registry: Arc<MetricsRegistry>,
    pool: par::ParConfig,
    eval: EvalConfig,
}

impl Rep {
    fn new(
        seed: u64,
        profile: FaultProfile,
        threads: usize,
        metered: bool,
        flight_recorder: bool,
    ) -> Rep {
        let registry = MetricsRegistry::shared();
        if flight_recorder {
            registry.install_recorder(Arc::new(obs::FlightRecorder::new(
                obs::DEFAULT_TRACE_CAPACITY,
                obs::TraceFilter::all(),
            )));
        }
        let (pool, eval) = if metered {
            (
                par::ParConfig::metered(threads, Arc::clone(&registry)),
                eval_config(seed, profile, Some(Arc::clone(&registry))),
            )
        } else {
            (par::ParConfig::with_threads(threads), eval_config(seed, profile, None))
        };
        Rep { registry, pool, eval }
    }
}

struct Outcome {
    wall: f64,
    digests: Vec<String>,
    positions: u64,
    counters: Counters,
    sim_ns: u64,
}

fn outcome(wall: f64, sweeps: &[BankSweep], registry: &MetricsRegistry) -> Outcome {
    Outcome {
        wall,
        digests: sweeps.iter().map(sweep_digest).collect(),
        positions: sweeps.iter().map(|s| s.results.len() as u64).sum(),
        counters: Counters::of(registry),
        sim_ns: sweep_sim_ns(registry),
    }
}

/// The library path: `attack_columns_par`, one task per module.
fn library_rep(specs: &[ModuleSpec], rep: &Rep) -> Outcome {
    let (wall, sweeps) = timed(|| utrr_bench::attack_columns_par(specs, &rep.eval, &rep.pool));
    outcome(wall, &sweeps, &rep.registry)
}

/// Untraced run: the end-to-end metrics.
pub fn run(ctx: &Ctx, profile: FaultProfile) -> Report {
    let (mut clock, setup) = SetupClock::start(|| setup(ctx, profile));
    let mut s = match setup {
        Ok(s) => s,
        Err(e) => {
            let mut report = Report::new(45);
            report.fail(e);
            return report;
        }
    };
    let mut report = Report::new(s.specs.len() as u64);
    let mut first = s.first.take();
    let reps = crate::repeat_for(ctx.seconds, |_| {
        let rep =
            first.take().unwrap_or_else(|| Rep::new(ctx.seed, profile, ctx.threads, true, false));
        let out = library_rep(&s.specs, &rep);
        clock.sample();
        out
    });
    let peak_rss = peak_rss_mb();
    let single = library_rep(&s.specs, &Rep::new(ctx.seed, profile, 1, true, false));
    clock.sample();
    check(&mut report, &s, ctx.seed, &reps[0], &single);
    if reps.iter().any(|r| r.digests != reps[0].digests || r.counters != reps[0].counters) {
        report.fail("attack sweeps differ between repetitions");
    }

    let wall = stats::median(&reps.iter().map(|r| r.wall).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    let modules = s.specs.len() as f64;
    report.set("setup_s", clock.seconds());
    report.set("modules_per_s", modules / wall);
    report.set("sim_s_per_module", reps[0].sim_ns as f64 / 1e9 / modules);
    report.set("positions_per_s", reps[0].positions as f64 / wall);
    report.set("candidates_per_s", modules / wall);
    report.set("ok_frac", 1.0 - report.failed as f64 / modules);
    report.set("peak_rss_mb", peak_rss);
    report
}

/// Per-module digest check against the recorded table and the
/// single-thread run; counts failures into `report`.
fn check(report: &mut Report, s: &Setup, seed: u64, run: &Outcome, single: &Outcome) {
    if s.digests.params != params_line(s.profile) {
        report.fail(format!("digest table was recorded at `{}`", s.digests.params));
    }
    for (i, spec) in s.specs.iter().enumerate() {
        let recorded = s.digests.get(seed % SLOTS, &spec.id);
        if !attack_module_ok(recorded, &run.digests[i], &single.digests[i]) {
            report.failed += 1;
            report.fail(format!("{}: sweep digest drifted", spec.id));
        }
    }
    if run.counters != single.counters {
        report.fail("exact counters differ between 1 thread and the workload's threads");
    }
}

/// Modules the flight-recorder price is measured on.
const RECORDER_MODULES: usize = 8;

/// Traced run: the per-layer metrics.
pub fn traced(ctx: &Ctx, profile: FaultProfile) -> Report {
    let mut report = Report::new(45);
    let s = match setup(ctx, profile) {
        Ok(s) => s,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    let untraced = library_rep(&s.specs, &Rep::new(ctx.seed, profile, ctx.threads, true, false));
    let single = library_rep(&s.specs, &Rep::new(ctx.seed, profile, 1, true, false));
    check(&mut report, &s, ctx.seed, &untraced, &single);
    let noreg = library_rep(&s.specs, &Rep::new(ctx.seed, profile, ctx.threads, false, false));

    // The traced path: attack_columns split into its calls, each timed.
    let rec = Recorder::default();
    let rep = Rep::new(ctx.seed, profile, ctx.threads, true, false);
    let (wall_t, sweeps) = timed(|| {
        par::par_map_indexed(&rep.pool, &s.specs, |i, spec| {
            rec.span("attacks.module", i as u64, || {
                let pattern = custom::pattern_for(spec);
                let module =
                    build(spec, ROWS, rep.eval.seed, Some(&rec), i as u64, &mut Vec::new());
                rec.span("attacks.sweep", i as u64, || {
                    sweep_bank_module(module, pattern.as_ref(), &rep.eval)
                })
            })
        })
    });
    let traced = outcome(wall_t, &sweeps, &rep.registry);
    if traced.digests != untraced.digests {
        report.fail("traced sweeps differ from the untraced run");
    }
    if traced.counters != untraced.counters {
        report.fail("traced exact counters differ from the untraced run");
    }
    let sample = &s.specs[..RECORDER_MODULES];
    let without = library_rep(sample, &Rep::new(ctx.seed, profile, ctx.threads, true, false));
    let with = library_rep(sample, &Rep::new(ctx.seed, profile, ctx.threads, true, true));

    report
        .set("modules.build_ms", stats::median(&rec.durations_ms("modules.build")).unwrap_or(0.0));
    layers::device_metrics(&mut report, &s.specs[0], ROWS, eval_seed(ctx.seed));
    layers::trr_metrics(&mut report);
    layers::counter_metrics(&mut report, &traced.counters);
    layers::tail_metrics(
        &mut report,
        &rec.durations_ms("attacks.sweep"),
        [
            "attacks.sweep_ms_p50",
            "attacks.sweep_ms_tail",
            "attacks.sweep_tail_pct",
            "attacks.sweep_samples",
        ],
    );
    report.set(
        "attacks.task_ns_per_act",
        rec.total_ns("attacks.sweep") as f64 / traced.counters.acts.max(1) as f64,
    );
    let positions: u64 = sweeps.iter().map(|s| s.results.len() as u64).sum();
    let vulnerable: u64 =
        sweeps.iter().map(|s| s.results.iter().filter(|r| r.flips > 0).count() as u64).sum();
    report.set("attacks.vulnerable_frac", vulnerable as f64 / positions.max(1) as f64);
    report.set("par.speedup", single.wall / untraced.wall);
    report.set(
        "par.busy_frac",
        rec.total_ns("attacks.module") as f64 / 1e9 / (ctx.threads as f64 * wall_t),
    );
    report.set("obs.registry_overhead", untraced.wall / noreg.wall);
    report.set("obs.recorder_overhead", with.wall / without.wall);
    report.set("bench.trace_overhead", wall_t / untraced.wall);
    if let Err(e) = rec.write_jsonl(&ctx.out_dir.join(format!("spans-attack-{}.jsonl", ctx.seed))) {
        eprintln!("warning: span dump not written: {e}");
    }
    report
}

/// Regenerates the digest tables from the current library: one digest
/// per (profile, slot, module), at the workloads' parameters.
pub fn record_digests() -> Result<Vec<std::path::PathBuf>, String> {
    let specs = catalog();
    let mut paths = Vec::new();
    for profile in [FaultProfile::None, FaultProfile::Mild] {
        let mut text = format!(
            "# Attack-column sweep digests (jobbench/src/checks.rs sweep_digest) per eval-seed\n\
             # slot and catalog module, recorded with `jobbench record-digests`.\n\
             # params: {}\n",
            params_line(profile)
        );
        for slot in 0..SLOTS {
            let rep = Rep::new(slot, profile, par::available_threads().min(2), true, false);
            let out = library_rep(&specs, &rep);
            for (spec, digest) in specs.iter().zip(&out.digests) {
                text.push_str(&format!("{slot}\t{}\t{digest}\n", spec.id));
            }
        }
        let path = digests_path(profile);
        std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
        paths.push(path.into());
    }
    Ok(paths)
}
