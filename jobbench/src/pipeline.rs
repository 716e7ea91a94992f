//! The per-module characterisation pipeline, driven stage by stage from
//! this file so each stage's host time, simulated time and ACTs can be
//! measured: Row Scout (`RowScout::scan_recover`), §6 classification
//! (`reverse::classify_recover`), schedule learning
//! (`learn_refresh_schedule`), `HC_first` (`measure_hc_first`) and the
//! §7.1 attack columns (`sweep_bank_module`).
//!
//! It makes the same calls, with the same seeds, as
//! `utrr_fleet::record::characterize` (via
//! `utrr_bench::try_reverse_engineer_module_faulty`). Its records must
//! therefore be byte-identical to the `run_fleet` ones; the workloads
//! check that on every run.

use std::sync::Arc;
use std::time::Instant;

use attacks::custom;
use attacks::eval::{sweep_bank_module, EvalConfig};
use dram_sim::metrics as dm;
use dram_sim::rng::derive_seed;
use dram_sim::{Bank, Topology};
use faults::FaultProfile;
use obs::MetricsRegistry;
use softmc::MemoryController;
use utrr_bench::{
    detection_label, ReMatches, ReOutcome, HOSTILE_PHASE_ACT_BUDGET, HOSTILE_SCOUT_ACT_BUDGET,
};
use utrr_core::reverse::{self, DetectionKind, ReverseOptions};
use utrr_core::{recovery, RowGroupLayout, RowScout, ScoutConfig, UtrrError, VerdictTier};
use utrr_fleet::record::{SweepParams, CTR_RE_RETRIES, RE_ATTEMPTS};
use utrr_fleet::{synth_spec, FleetRecord};
use utrr_modules::ModuleSpec;

use crate::spans::Recorder;

/// Host time, simulated time and ACTs spent in one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageCost {
    /// Host ns.
    pub host_ns: u64,
    /// Simulated ns.
    pub sim_ns: u64,
    /// ACT commands issued.
    pub acts: u64,
}

impl StageCost {
    fn add(&mut self, other: StageCost) {
        self.host_ns += other.host_ns;
        self.sim_ns += other.sim_ns;
        self.acts += other.acts;
    }
}

/// Exact device/engine work counters of one registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `ACT`s.
    pub acts: u64,
    /// `REF`s.
    pub refs: u64,
    /// Rows restored by regular and TRR refreshes.
    pub rows_restored: u64,
    /// Row reads.
    pub row_reads: u64,
    /// Row writes.
    pub row_writes: u64,
    /// RowHammer bit flips.
    pub bit_flips: u64,
    /// TRR detections.
    pub trr_detections: u64,
    /// Rows refreshed by TRR.
    pub trr_row_refreshes: u64,
    /// Faults injected.
    pub faults_injected: u64,
}

impl Counters {
    /// Reads the counters of `registry`.
    pub fn of(registry: &MetricsRegistry) -> Self {
        let c = |name: &str| registry.counter(name).get();
        Counters {
            acts: c(dm::CTR_ACT),
            refs: c(dm::CTR_REF),
            rows_restored: c(dm::CTR_REGULAR_ROW_REFRESHES) + c(dm::CTR_TRR_ROW_REFRESHES),
            row_reads: c(dm::CTR_ROW_READS),
            row_writes: c(dm::CTR_ROW_WRITES),
            bit_flips: c(dm::CTR_BIT_FLIPS),
            trr_detections: c(dm::CTR_TRR_DETECTIONS),
            trr_row_refreshes: c(dm::CTR_TRR_ROW_REFRESHES),
            faults_injected: c(faults::CTR_INJECTED_TOTAL),
        }
    }

    /// Field-wise sum.
    pub fn sum<'a>(all: impl IntoIterator<Item = &'a Counters>) -> Counters {
        all.into_iter().fold(Counters::default(), |a, b| Counters {
            acts: a.acts + b.acts,
            refs: a.refs + b.refs,
            rows_restored: a.rows_restored + b.rows_restored,
            row_reads: a.row_reads + b.row_reads,
            row_writes: a.row_writes + b.row_writes,
            bit_flips: a.bit_flips + b.bit_flips,
            trr_detections: a.trr_detections + b.trr_detections,
            trr_row_refreshes: a.trr_row_refreshes + b.trr_row_refreshes,
            faults_injected: a.faults_injected + b.faults_injected,
        })
    }
}

/// Per-stage costs of one module.
#[derive(Debug, Clone, Default)]
pub struct Costs {
    /// Row Scout scans (all three, every RE attempt).
    pub scout: StageCost,
    /// §6 classification.
    pub classify: StageCost,
    /// Refresh-schedule learning.
    pub schedule: StageCost,
    /// `HC_first` measurement.
    pub hc_first: StageCost,
    /// Attack-column sweep (excluding its module build).
    pub attack: StageCost,
    /// Host ns of every module build, in call order.
    pub builds_ns: Vec<u64>,
}

impl Costs {
    /// Simulated time of every stage.
    pub fn sim_ns(&self) -> u64 {
        [self.scout, self.classify, self.schedule, self.hc_first, self.attack]
            .iter()
            .map(|s| s.sim_ns)
            .sum()
    }
}

/// One characterised module with its per-stage costs.
#[derive(Debug, Clone)]
pub struct ModuleRun {
    /// The record, as `run_fleet` would write it.
    pub record: FleetRecord,
    /// Per-stage costs.
    pub costs: Costs,
    /// Attack-column victim positions.
    pub positions: u64,
    /// Positions with at least one flip.
    pub vulnerable: u64,
    /// The module's private registry counters at the end.
    pub counters: Counters,
}

/// Runs `f` on `mc` as stage `name`, adding its cost to `acc`.
fn stage<R>(
    mc: &mut MemoryController,
    acc: &mut StageCost,
    rec: Option<&Recorder>,
    name: &'static str,
    task: u64,
    f: impl FnOnce(&mut MemoryController) -> R,
) -> R {
    let acts = mc.registry().counter(dm::CTR_ACT);
    let (sim0, acts0, t0) = (mc.now().as_ns(), acts.get(), Instant::now());
    let out = match rec {
        Some(rec) => rec.span(name, task, || f(mc)),
        None => f(mc),
    };
    acc.add(StageCost {
        host_ns: t0.elapsed().as_nanos() as u64,
        sim_ns: mc.now().as_ns() - sim0,
        acts: acts.get() - acts0,
    });
    out
}

/// `spec.build_scaled(rows, seed)`, timed as `modules.build`.
pub fn build(
    spec: &ModuleSpec,
    rows: u32,
    seed: u64,
    rec: Option<&Recorder>,
    task: u64,
    builds_ns: &mut Vec<u64>,
) -> dram_sim::Module {
    let t0 = Instant::now();
    let module = match rec {
        Some(rec) => rec.span("modules.build", task, || spec.build_scaled(rows, seed)),
        None => spec.build_scaled(rows, seed),
    };
    builds_ns.push(t0.elapsed().as_nanos() as u64);
    module
}

struct Ctx<'a> {
    rec: Option<&'a Recorder>,
    task: u64,
    registry: &'a Arc<MetricsRegistry>,
    profile: FaultProfile,
    fault_seed: u64,
}

/// The §6 suite of `try_reverse_engineer_module_faulty`, stage by stage.
fn reverse_engineer(
    spec: &ModuleSpec,
    rows: u32,
    seed: u64,
    cx: &Ctx<'_>,
    costs: &mut Costs,
) -> Result<ReOutcome, UtrrError> {
    let mut module = build(spec, rows, seed, cx.rec, cx.task, &mut costs.builds_ns);
    module.attach_registry(Arc::clone(cx.registry));
    let mut mc = MemoryController::new(module);
    faults::install(&mut mc, cx.profile, cx.fault_seed);
    let ladder_on = recovery::ladder_active(&mc);
    let scout_budget = ladder_on.then_some(HOSTILE_SCOUT_ACT_BUDGET);
    let mut tier = VerdictTier::Confirmed;
    let bank = Bank::new(0);
    let mut scan = |mc: &mut MemoryController, cfg: ScoutConfig| {
        let mut cfg = cfg;
        cfg.max_acts = scout_budget;
        stage(mc, &mut costs.scout, cx.rec, "core.scout", cx.task, |mc| {
            RowScout::new(cfg).scan_recover(mc)
        })
    };
    let (groups, scout_tier) =
        scan(&mut mc, ScoutConfig::new(bank, rows, RowGroupLayout::single_aggressor_pair(), 18))?;
    tier.merge(&scout_tier);
    let (mut probe_groups, probe_tier) =
        scan(&mut mc, ScoutConfig::new(bank, rows, RowGroupLayout::neighbor_probe(), 1))?;
    tier.merge(&probe_tier);
    let probe = probe_groups.remove(0);
    let other_bank = Bank::new(1);
    let (mut cross_groups, cross_tier) = scan(
        &mut mc,
        ScoutConfig::new(other_bank, rows, RowGroupLayout::single_aggressor_pair(), 1),
    )?;
    tier.merge(&cross_tier);
    let cross = cross_groups.remove(0);

    let opts = ReverseOptions {
        trigger_hammers: (spec.hc_first / 4).clamp(400, 4_000),
        ratio_iterations: 80,
        long_iterations: 400,
        phase_act_budget: ladder_on.then_some(HOSTILE_PHASE_ACT_BUDGET),
    };
    let (profile, classify_tier) =
        stage(&mut mc, &mut costs.classify, cx.rec, "core.classify", cx.task, |mc| {
            reverse::classify_recover(
                mc,
                bank,
                &groups,
                &probe,
                Some((other_bank, &cross)),
                &opts,
                tier.clone(),
            )
        })?;
    tier.merge(&classify_tier);
    let refresh_period =
        stage(&mut mc, &mut costs.schedule, cx.rec, "core.schedule", cx.task, |mc| {
            utrr_core::learn_refresh_schedule(mc, &groups[0], bank)
        })?
        .period;

    let detection_matches = matches!(
        (&profile.detection, spec.detection),
        (DetectionKind::Counter { .. }, "Counter-based")
            | (DetectionKind::Sampler { .. }, "Sampling-based")
            | (DetectionKind::Window { .. }, "Mix")
    );
    let capacity_matches = match (spec.aggressor_capacity, &profile.detection) {
        (Some(gt), DetectionKind::Counter { capacity, .. }) => *capacity == gt as usize,
        (Some(1), DetectionKind::Sampler { .. }) => true,
        (None, _) => true,
        _ => false,
    };
    let expected_neighbors =
        if spec.topology() == Topology::Paired { 1 } else { spec.neighbors_refreshed };
    let matches = ReMatches {
        ratio: profile.trr_ref_ratio == spec.trr_to_ref_ratio,
        neighbors: profile.neighbors_refreshed == expected_neighbors,
        detection: detection_matches,
        capacity: capacity_matches,
        per_bank: profile.per_bank == spec.per_bank_trr,
        refresh_period: refresh_period == spec.refresh().period_refs as u64,
    };
    Ok(ReOutcome {
        id: spec.id.clone(),
        profile,
        refresh_period,
        matches,
        tier,
        ladder: *mc.recovery(),
    })
}

/// Characterises module `index` of the population in `params`; with a
/// recorder, every stage is a span. `flight_recorder` installs an `obs`
/// flight recorder on the module's registry (the tracing the repro bins
/// offer), to price it.
///
/// # Panics
///
/// Like `utrr_fleet::record::characterize`: when reverse engineering
/// exhausts its retries below the hostile profile.
pub fn characterize_module(
    params: &SweepParams,
    index: u64,
    rec: Option<&Recorder>,
    flight_recorder: bool,
) -> ModuleRun {
    let synth = synth_spec(params.fleet_seed, index, params.base_rows);
    let spec = &synth.spec;
    let registry = MetricsRegistry::shared();
    if flight_recorder {
        registry.install_recorder(Arc::new(obs::FlightRecorder::new(
            obs::DEFAULT_TRACE_CAPACITY,
            obs::TraceFilter::all(),
        )));
    }
    let fault_seed = derive_seed(synth.seed ^ params.fault_seed, 5);
    let cx =
        Ctx { rec, task: index, registry: &registry, profile: params.fault_profile, fault_seed };
    let mut costs = Costs::default();

    let mut re_attempts = 0;
    let re = loop {
        let re_seed = derive_seed(synth.seed, 2 + 16 * u64::from(re_attempts));
        re_attempts += 1;
        match reverse_engineer(spec, synth.rows, re_seed, &cx, &mut costs) {
            Ok(re) => break Some(re),
            Err(_) if re_attempts < RE_ATTEMPTS => registry.counter(CTR_RE_RETRIES).inc(),
            Err(_) if params.fault_profile == FaultProfile::Hostile => break None,
            Err(e) => panic!(
                "module {} (index {index}): reverse engineering failed after \
                 {re_attempts} attempts: {e}",
                spec.id
            ),
        }
    };

    let mut module =
        build(spec, synth.rows, derive_seed(synth.seed, 3), rec, index, &mut costs.builds_ns);
    module.attach_registry(Arc::clone(&registry));
    let mut mc = MemoryController::new(module);
    faults::install(&mut mc, params.fault_profile, fault_seed);
    let hc = stage(&mut mc, &mut costs.hc_first, rec, "core.hc_first", index, |mc| {
        utrr_core::measure_hc_first(mc, Bank::new(0), params.hc_samples, spec.hc_first * 2)
            .expect("characterization runs on an in-range bank")
    });
    drop(mc);

    let eval = EvalConfig {
        sample_count: params.attack_samples,
        windows: 1,
        scaled_rows: Some(synth.rows),
        seed: derive_seed(synth.seed, 4),
        registry: Some(Arc::clone(&registry)),
        fault_profile: params.fault_profile,
        fault_seed,
        ..EvalConfig::quick(params.attack_samples)
    };
    let pattern = custom::pattern_for(spec);
    let module = build(spec, synth.rows, eval.seed, rec, index, &mut costs.builds_ns);
    let acts0 = registry.counter(dm::CTR_ACT).get();
    let t_attack = Instant::now();
    let sweep = match rec {
        Some(r) => {
            r.span("attacks.sweep", index, || sweep_bank_module(module, pattern.as_ref(), &eval))
        }
        None => sweep_bank_module(module, pattern.as_ref(), &eval),
    };
    costs.attack = StageCost {
        host_ns: t_attack.elapsed().as_nanos() as u64,
        sim_ns: sweep_sim_ns(&registry),
        acts: registry.counter(dm::CTR_ACT).get() - acts0,
    };

    let counter = |name: &str| registry.counter(name).get();
    let (re_match, ratio, neighbors, detection, per_bank, refresh_period, tier) = match &re {
        Some(re) => (
            re.matches.all(),
            re.profile.trr_ref_ratio,
            re.profile.neighbors_refreshed,
            detection_label(&re.profile.detection),
            re.profile.per_bank,
            re.refresh_period,
            re.tier.clone(),
        ),
        None => (false, 0, 0, "inconclusive".to_string(), false, 0, VerdictTier::Inconclusive),
    };
    let record = FleetRecord {
        index,
        id: spec.id.clone(),
        anchor: synth.anchor_id.clone(),
        vendor: spec.vendor.to_string(),
        trr_version: spec.trr_version.to_string(),
        banks: spec.banks,
        rows: synth.rows,
        seed: synth.seed,
        retention_scale: spec.retention_scale,
        hc_first_gt: spec.hc_first,
        re_match,
        re_attempts,
        ratio,
        neighbors,
        detection,
        per_bank,
        refresh_period,
        hc_first_measured: hc,
        vulnerable_pct: sweep.vulnerable_pct(),
        max_flips_per_hammer: sweep.max_flips_per_row_per_hammer(),
        max_flips_per_word: sweep.max_flips_per_dataword(),
        scout_retries: counter(utrr_core::rowscout::CTR_SCOUT_RETRIES),
        scout_quarantined: counter(utrr_core::rowscout::CTR_SCOUT_QUARANTINED),
        faults_injected: counter(faults::CTR_INJECTED_TOTAL),
        reads_voted: counter(utrr_core::robust::CTR_VOTED_READS),
        read_disagreements: counter(utrr_core::robust::CTR_READ_DISAGREEMENTS),
        write_retries: counter(utrr_core::robust::CTR_WRITE_RETRIES),
        tier: tier.label().to_string(),
        tier_reasons: tier.reasons_string(),
        vote_widenings: counter(recovery::CTR_VOTE_WIDENINGS),
        relocations: counter(recovery::CTR_RELOCATIONS),
        reprofiles: counter(recovery::CTR_REPROFILES),
        budget_trips: counter(recovery::CTR_BUDGET_TRIPS),
    };
    ModuleRun {
        record,
        costs,
        positions: sweep.results.len() as u64,
        vulnerable: sweep.results.iter().filter(|r| r.flips > 0).count() as u64,
        counters: Counters::of(&registry),
    }
}

/// Simulated time the attack sweeps attached to `registry` spent, from
/// the library's own `attacks.eval.sweep` spans.
pub fn sweep_sim_ns(registry: &MetricsRegistry) -> u64 {
    let (spans, _) = registry.spans_snapshot();
    spans
        .iter()
        .filter(|s| s.name == "attacks.eval.sweep")
        .map(|s| s.sim_end.saturating_sub(s.sim_start))
        .sum()
}
