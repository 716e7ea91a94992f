//! `hunt`: `attacks::fuzz::run_fuzz` over A_TRR1, B_TRR1 and C_TRR1
//! with the shared run registry, as `repro-fuzz` runs its CI recipe.

use std::sync::Arc;

use attacks::eval::{sweep_bank_module, EvalConfig};
use attacks::fuzz::{
    best_for_engine, engine_spec, render_fuzz_jsonl, run_fuzz, Candidate, EngineScore, FuzzConfig,
    FuzzOutcome, FuzzParams, FuzzPattern, CTR_FUZZ_BYPASSES, CTR_FUZZ_CANDIDATES, CTR_FUZZ_EVALS,
    CTR_FUZZ_MUTATIONS,
};
use attacks::AttackBuilder;
use dram_sim::rng::{derive_seed, SplitMix64};
use obs::MetricsRegistry;
use utrr_modules::ModuleSpec;

use crate::checks::{a_trr1_bypassed, check_hunt};
use crate::pipeline::{build, sweep_sim_ns, Counters};
use crate::report::{peak_rss_mb, Report};
use crate::spans::Recorder;
use crate::{layers, stats, timed, Ctx, SetupClock};

/// Search rounds (the CI recipe's).
pub const ROUNDS: u32 = 2;
/// Candidates per round (the CI recipe's).
pub const CANDIDATES: u32 = 32;
/// Elites kept per engine (`repro-fuzz`'s default).
pub const ELITES: u32 = 4;
/// Engines scored (`repro-fuzz`'s default).
pub const ENGINES: [&str; 3] = ["A_TRR1", "B_TRR1", "C_TRR1"];
/// Scaled rows per bank (`repro-fuzz`'s default).
pub const ROWS: u32 = 1_024;
/// Victim positions per evaluation (`repro-fuzz`'s default).
pub const SAMPLES: u32 = 6;

/// The seeds this workload derives from `--seed`.
pub fn seeds(ctx: &Ctx) -> String {
    let fuzz: Vec<String> = (0..HUNTS).map(|j| fuzz_seed(ctx.seed, j).to_string()).collect();
    format!("{{\"fuzz\":[{}],\"eval\":{}}}", fuzz.join(","), EvalConfig::quick(SAMPLES).seed)
}

fn fuzz_config(
    seed: u64,
    rounds: u32,
    candidates: u32,
    registry: Option<Arc<MetricsRegistry>>,
) -> FuzzConfig {
    FuzzConfig {
        seed,
        rounds,
        candidates,
        elites: ELITES,
        engines: ENGINES.iter().map(|e| e.to_string()).collect(),
        eval: EvalConfig {
            sample_count: SAMPLES,
            windows: 1,
            scaled_rows: Some(ROWS),
            registry,
            ..EvalConfig::quick(SAMPLES)
        },
    }
}

/// One hunt's config, registry and pool.
struct Rep {
    registry: Arc<MetricsRegistry>,
    pool: par::ParConfig,
    config: FuzzConfig,
}

impl Rep {
    fn new(seed: u64, threads: usize, size: (u32, u32), metered: bool, flight: bool) -> Rep {
        let registry = MetricsRegistry::shared();
        if flight {
            registry.install_recorder(Arc::new(obs::FlightRecorder::new(
                obs::DEFAULT_TRACE_CAPACITY,
                obs::TraceFilter::all(),
            )));
        }
        let (rounds, candidates) = size;
        let (pool, config) = if metered {
            (
                par::ParConfig::metered(threads, Arc::clone(&registry)),
                fuzz_config(seed, rounds, candidates, Some(Arc::clone(&registry))),
            )
        } else {
            (par::ParConfig::with_threads(threads), fuzz_config(seed, rounds, candidates, None))
        };
        Rep { registry, pool, config }
    }
}

const FULL: (u32, u32) = (ROUNDS, CANDIDATES);

/// Hunts per repetition. One hunt's 64 candidates are too few to average
/// out the seed-to-seed cost of the candidate mix (about 20%), so a
/// repetition hunts with three fuzz seeds and reports the aggregate.
pub const HUNTS: u64 = 3;

/// Fuzz seed of hunt `j` of run seed `seed`.
pub fn fuzz_seed(seed: u64, j: u64) -> u64 {
    seed * HUNTS + j
}

/// Engine specs resolved, run registries and pools built: everything
/// before the first call into the attacks layer.
fn setup(ctx: &Ctx) -> Result<Vec<Rep>, String> {
    for engine in ENGINES {
        engine_spec(engine).ok_or(format!("unknown TRR engine {engine}"))?;
    }
    Ok(hunts(ctx))
}

fn hunts(ctx: &Ctx) -> Vec<Rep> {
    (0..HUNTS).map(|j| Rep::new(fuzz_seed(ctx.seed, j), ctx.threads, FULL, true, false)).collect()
}

struct Outcome {
    wall: f64,
    artifact: String,
    candidates: u64,
    evals: u64,
    counters: Counters,
    sim_ns: u64,
}

fn outcome(wall: f64, rep: &Rep, fuzz: &FuzzOutcome) -> Outcome {
    Outcome {
        wall,
        artifact: render_fuzz_jsonl(&rep.config, fuzz),
        candidates: fuzz.candidates.len() as u64,
        evals: (fuzz.candidates.len() * fuzz.engines.len()) as u64,
        counters: Counters::of(&rep.registry),
        sim_ns: sweep_sim_ns(&rep.registry),
    }
}

/// The library path, as `repro-fuzz` calls it.
fn library_rep(rep: &Rep) -> Result<Outcome, String> {
    let (wall, fuzz) = timed(|| run_fuzz(&rep.config, &rep.pool));
    Ok(outcome(wall, rep, &fuzz?))
}

/// Victim positions one evaluation sweeps (`sweep_bank`'s sampling).
fn positions_per_eval() -> u64 {
    u64::from(SAMPLES.clamp(1, (ROWS / 8).max(1)))
}

/// Untraced run: the end-to-end metrics.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new(HUNTS);
    let (mut clock, setup) = SetupClock::start(|| setup(ctx));
    let mut first = match setup {
        Ok(reps) => Some(reps),
        Err(e) => {
            report.fail(e);
            report.failed = HUNTS;
            return report;
        }
    };
    let passes = crate::repeat_for(ctx.seconds, |_| {
        let reps = first.take().unwrap_or_else(|| hunts(ctx));
        let pass = reps.iter().map(|rep| {
            let hunt = library_rep(rep);
            clock.sample();
            hunt
        });
        pass.collect::<Result<Vec<_>, _>>()
    });
    let peak_rss = peak_rss_mb();
    let single = library_rep(&Rep::new(fuzz_seed(ctx.seed, 0), 1, FULL, true, false));
    clock.sample();
    let (passes, single) = match (passes.into_iter().collect::<Result<Vec<_>, _>>(), single) {
        (Ok(passes), Ok(single)) => (passes, single),
        (Err(e), _) | (_, Err(e)) => {
            report.fail(e);
            report.failed = HUNTS;
            return report;
        }
    };
    let hunts = &passes[0];
    if let Err(e) = check_hunt(&hunts[0].artifact, &single.artifact) {
        report.fail(e);
        report.failed = HUNTS;
    }
    let same = |a: &[Outcome], b: &[Outcome]| {
        a.iter().zip(b).all(|(x, y)| x.artifact == y.artifact && x.counters == y.counters)
    };
    if passes.iter().any(|p| !same(p, hunts)) {
        report.fail("fuzz outputs differ between repetitions");
        report.failed = HUNTS;
    }
    let found = hunts.iter().filter(|h| a_trr1_bypassed(&h.artifact)).count();
    eprintln!("A_TRR1 leader bypass in {found} of {HUNTS} hunts");

    let total = |f: &dyn Fn(&Outcome) -> f64| hunts.iter().map(f).sum::<f64>();
    let walls: Vec<f64> = passes.iter().map(|p| p.iter().map(|h| h.wall).sum()).collect();
    let wall = stats::median(&walls).unwrap_or(f64::NAN);
    let evals = total(&|h| h.evals as f64);
    report.set("setup_s", clock.seconds());
    report.set("modules_per_s", evals / wall);
    report.set("sim_s_per_module", total(&|h| h.sim_ns as f64) / 1e9 / evals);
    report.set("positions_per_s", evals * positions_per_eval() as f64 / wall);
    report.set("candidates_per_s", total(&|h| h.candidates as f64) / wall);
    report.set("ok_frac", 1.0 - report.failed as f64 / HUNTS as f64);
    report.set("peak_rss_mb", peak_rss);
    report
}

/// Per-round parent assignment of `run_fuzz`: elites per engine by
/// `(flips desc, round, index)`, every fourth slot exploring.
fn assign_parents(round: u32, all: &[Candidate], config: &FuzzConfig) -> Vec<Option<FuzzParams>> {
    let n = config.candidates as usize;
    if round == 0 || all.is_empty() {
        return vec![None; n];
    }
    let engines = config.engines.len().max(1);
    let boards: Vec<Vec<&Candidate>> = (0..engines)
        .map(|e| {
            let mut hits: Vec<&Candidate> = all.iter().filter(|c| c.scores[e].flips > 0).collect();
            hits.sort_by_key(|c| (std::cmp::Reverse(c.scores[e].flips), c.round, c.index));
            hits.truncate(config.elites.max(1) as usize);
            hits
        })
        .collect();
    (0..n)
        .map(|i| {
            let board = &boards[i % engines];
            if i % 4 == 3 || board.is_empty() {
                None
            } else {
                Some(board[(i / engines) % board.len()].params)
            }
        })
        .collect()
}

/// `run_fuzz` with each candidate task, engine evaluation and module
/// build timed as a span. Same seeds, same calls, same counters.
fn traced_fuzz(rep: &Rep, rec: &Recorder) -> FuzzOutcome {
    let config = &rep.config;
    let specs: Vec<ModuleSpec> =
        config.engines.iter().map(|v| engine_spec(v).expect("engines were resolved")).collect();
    let rows = config.eval.scaled_rows.expect("the hunt runs scaled");
    let mut all: Vec<Candidate> = Vec::new();
    for round in 0..config.rounds {
        let parents = assign_parents(round, &all, config);
        let seed = derive_seed(config.seed, u64::from(round));
        let produced = par::par_map_seeded(&rep.pool, seed, &parents, |i, seed, parent| {
            let task = u64::from(round) * u64::from(config.candidates) + i as u64;
            rec.span("par.task", task, || {
                let mut rng = SplitMix64::new(seed);
                let params = match parent {
                    None => FuzzParams::sample(&mut rng),
                    Some(p) => p.mutated(&mut rng),
                };
                let scores = specs
                    .iter()
                    .map(|spec| {
                        rec.span("attacks.fuzz_eval", task, || {
                            let attack = AttackBuilder::from_attack(FuzzPattern { params }).build();
                            let module = build(
                                spec,
                                rows,
                                config.eval.seed,
                                Some(rec),
                                task,
                                &mut Vec::new(),
                            );
                            let sweep = rec.span("attacks.sweep_bank", task, || {
                                sweep_bank_module(module, &attack, &config.eval)
                            });
                            EngineScore {
                                flips: sweep.results.iter().map(|r| u64::from(r.flips)).sum(),
                                vulnerable: sweep.results.iter().filter(|r| r.flips > 0).count()
                                    as u32,
                            }
                        })
                    })
                    .collect();
                Candidate { round, index: i as u32, params, scores }
            })
        });
        let r = &rep.registry;
        r.counter(CTR_FUZZ_CANDIDATES).add(produced.len() as u64);
        r.counter(CTR_FUZZ_EVALS).add((produced.len() * specs.len()) as u64);
        let bypasses = produced.iter().flat_map(|c| &c.scores).filter(|s| s.flips > 0).count();
        r.counter(CTR_FUZZ_BYPASSES).add(bypasses as u64);
        r.counter(CTR_FUZZ_MUTATIONS).add(parents.iter().filter(|p| p.is_some()).count() as u64);
        all.extend(produced);
    }
    let leaders =
        (0..config.engines.len()).filter_map(|e| best_for_engine(&all, e).cloned()).collect();
    FuzzOutcome {
        engines: config.engines.clone(),
        specs: specs.into_iter().map(|s| s.id).collect(),
        candidates: all,
        leaders,
    }
}

/// Hunt size the flight-recorder price is measured on.
const RECORDER_SIZE: (u32, u32) = (1, 4);

/// Traced run: the per-layer metrics.
pub fn traced(ctx: &Ctx) -> Report {
    let mut report = Report::new(1);
    if let Err(e) = setup(ctx) {
        report.fail(e);
        report.failed = 1;
        return report;
    }
    let seed = fuzz_seed(ctx.seed, 0);
    let runs = (
        library_rep(&Rep::new(seed, ctx.threads, FULL, true, false)),
        library_rep(&Rep::new(seed, 1, FULL, true, false)),
        library_rep(&Rep::new(seed, ctx.threads, FULL, false, false)),
        library_rep(&Rep::new(seed, ctx.threads, RECORDER_SIZE, true, false)),
        library_rep(&Rep::new(seed, ctx.threads, RECORDER_SIZE, true, true)),
    );
    let (Ok(untraced), Ok(single), Ok(noreg), Ok(without), Ok(with)) = runs else {
        report.fail("run_fuzz failed");
        report.failed = 1;
        return report;
    };
    if let Err(e) = check_hunt(&untraced.artifact, &single.artifact) {
        report.fail(e);
        report.failed = 1;
    }

    let rec = Recorder::default();
    let rep = Rep::new(seed, ctx.threads, FULL, true, false);
    let (wall_t, fuzz) = timed(|| traced_fuzz(&rep, &rec));
    let traced = outcome(wall_t, &rep, &fuzz);
    if traced.artifact != untraced.artifact {
        report.fail("traced fuzz artifact differs from the untraced run");
    }
    if traced.counters != untraced.counters {
        report.fail("traced exact counters differ from the untraced run");
    }

    let first = engine_spec(ENGINES[0]).expect("A_TRR1 has a catalog module");
    report
        .set("modules.build_ms", stats::median(&rec.durations_ms("modules.build")).unwrap_or(0.0));
    layers::device_metrics(&mut report, &first, ROWS, rep.config.eval.seed);
    layers::trr_metrics(&mut report);
    layers::counter_metrics(&mut report, &traced.counters);
    report.set(
        "attacks.task_ns_per_act",
        rec.total_ns("attacks.sweep_bank") as f64 / traced.counters.acts.max(1) as f64,
    );
    let scores: Vec<&EngineScore> = fuzz.candidates.iter().flat_map(|c| &c.scores).collect();
    let vulnerable: u64 = scores.iter().map(|s| u64::from(s.vulnerable)).sum();
    let positions = scores.len() as u64 * positions_per_eval();
    report.set("attacks.vulnerable_frac", vulnerable as f64 / positions.max(1) as f64);
    layers::tail_metrics(
        &mut report,
        &rec.durations_ms("attacks.fuzz_eval"),
        [
            "attacks.fuzz_eval_ms_p50",
            "attacks.fuzz_eval_ms_tail",
            "attacks.fuzz_eval_tail_pct",
            "attacks.fuzz_eval_samples",
        ],
    );
    let found = a_trr1_bypassed(&traced.artifact);
    report.set("attacks.fuzz_a_trr1_bypass", if found { 1.0 } else { 0.0 });
    let bypassing = scores.iter().filter(|s| s.flips > 0).count();
    report.set("attacks.fuzz_bypass_frac", bypassing as f64 / scores.len().max(1) as f64);
    report.set("par.speedup", single.wall / untraced.wall);
    report.set(
        "par.busy_frac",
        rec.total_ns("par.task") as f64 / 1e9 / (ctx.threads as f64 * wall_t),
    );
    report.set("obs.registry_overhead", untraced.wall / noreg.wall);
    report.set("obs.recorder_overhead", with.wall / without.wall);
    report.set("bench.trace_overhead", wall_t / untraced.wall);
    if let Err(e) = rec.write_jsonl(&ctx.out_dir.join(format!("spans-hunt-{}.jsonl", ctx.seed))) {
        eprintln!("warning: span dump not written: {e}");
    }
    report
}
