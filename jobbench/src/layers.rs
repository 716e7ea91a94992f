//! Per-layer figures shared by the traced runs: device and TRR-hook
//! micro-timings, exact work counters, and latency tails.

use std::hint::black_box;
use std::time::Instant;

use dram_sim::{Bank, Nanos, PhysRow, RowAddr};
use utrr_modules::ModuleSpec;

use crate::pipeline::Counters;
use crate::report::Report;
use crate::stats;

/// Hammer calls per device timing trial, each a 74-ACT burst (the
/// largest per-aggressor dose the §7.1 patterns issue per `tREFI`).
const HAMMER_CALLS: u64 = 20_000;
const BURST: u64 = 74;
/// Trials per micro-timing; the median is reported.
const TRIALS: usize = 3;

/// `dram-sim.act_ns`, `.ref_ns`, `.restore_ns_per_row`: `Module::hammer`
/// and `Module::refresh` on the workload's first spec, one thread.
pub fn device_metrics(report: &mut Report, spec: &ModuleSpec, rows: u32, seed: u64) {
    let mut act = Vec::new();
    let mut refresh = Vec::new();
    let mut restore = Vec::new();
    for _ in 0..TRIALS {
        let registry = obs::MetricsRegistry::shared();
        let mut module = spec.build_scaled(rows, seed);
        module.attach_registry(std::sync::Arc::clone(&registry));
        let bank = Bank::new(0);
        let t0 = Instant::now();
        for k in 0..HAMMER_CALLS {
            let row = RowAddr::new(((k * 97) % u64::from(rows)) as u32);
            module.hammer(bank, black_box(row), BURST).expect("in-range hammer");
        }
        act.push(t0.elapsed().as_nanos() as f64 / (HAMMER_CALLS * BURST) as f64);
        let refs = u64::from(spec.refresh().period_refs);
        let restored = |r: &obs::MetricsRegistry| Counters::of(r).rows_restored;
        let before = restored(&registry);
        let t0 = Instant::now();
        for _ in 0..refs {
            black_box(&mut module).refresh();
        }
        let ns = t0.elapsed().as_nanos() as f64;
        refresh.push(ns / refs as f64);
        restore.push(ns / (restored(&registry) - before).max(1) as f64);
    }
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    report.set("dram-sim.act_ns", median(&act));
    report.set("dram-sim.ref_ns", median(&refresh));
    report.set("dram-sim.restore_ns_per_row", median(&restore));
}

/// Hook calls per TRR timing trial.
const HOOK_CALLS: u64 = 200_000;
/// `REF`s per TRR timing trial, each after 16 activation hooks.
const HOOK_REFS: u64 = 20_000;

/// `trr.{counter,sampler,window}.{act,ref}_hook_ns`: the
/// `MitigationEngine::on_activations` / `on_refresh` hooks of the
/// A_TRR1, B_TRR1 and C_TRR1 engines from `trr::engine_for_version`.
pub fn trr_metrics(report: &mut Report) {
    const ENGINES: [(&str, &str, &str); 3] = [
        ("A_TRR1", "trr.counter.act_hook_ns", "trr.counter.ref_hook_ns"),
        ("B_TRR1", "trr.sampler.act_hook_ns", "trr.sampler.ref_hook_ns"),
        ("C_TRR1", "trr.window.act_hook_ns", "trr.window.ref_hook_ns"),
    ];
    for (version, act_name, ref_name) in ENGINES {
        let mut act = Vec::new();
        let mut refresh = Vec::new();
        for trial in 0..TRIALS {
            let mut engine = trr::engine_for_version(version, 16, 7 + trial as u64);
            let bank = Bank::new(0);
            let row = |i: u64| PhysRow::new(((i * 131) % 1_024) as u32);
            let t0 = Instant::now();
            for i in 0..HOOK_CALLS {
                engine.on_activations(bank, black_box(row(i)), 1 + i % 8, Nanos::from_ns(i * 50));
            }
            act.push(t0.elapsed().as_nanos() as f64 / HOOK_CALLS as f64);
            let mut out = Vec::new();
            let mut ref_ns = 0u128;
            for r in 0..HOOK_REFS {
                for i in 0..16 {
                    engine.on_activations(bank, row(r * 16 + i), 4, Nanos::from_ns(r * 7_800));
                }
                let t0 = Instant::now();
                black_box(&mut engine).on_refresh(Nanos::from_ns(r * 7_800 + 7_000), &mut out);
                ref_ns += t0.elapsed().as_nanos();
                out.clear();
            }
            refresh.push(ref_ns as f64 / HOOK_REFS as f64);
        }
        report.set(act_name, stats::median(&act).unwrap_or(0.0));
        report.set(ref_name, stats::median(&refresh).unwrap_or(0.0));
    }
}

/// The exact device and engine work counters.
pub fn counter_metrics(report: &mut Report, c: &Counters) {
    report.set("dram-sim.acts", c.acts as f64);
    report.set("dram-sim.refs", c.refs as f64);
    report.set("dram-sim.rows_restored", c.rows_restored as f64);
    report.set("dram-sim.row_reads", c.row_reads as f64);
    report.set("dram-sim.row_writes", c.row_writes as f64);
    report.set("dram-sim.bit_flips", c.bit_flips as f64);
    report.set("trr.detections", c.trr_detections as f64);
    report.set("trr.row_refreshes", c.trr_row_refreshes as f64);
    report.set("faults.injected", c.faults_injected as f64);
}

/// Median, tail value, tail percentile and sample count of `ms`, into
/// the four metrics named in `names`.
pub fn tail_metrics(report: &mut Report, ms: &[f64], names: [&'static str; 4]) {
    let [p50, tail, pct, samples] = names;
    report.set(p50, stats::median(ms).unwrap_or(0.0));
    if let Some(t) = stats::tail(ms) {
        report.set(tail, t.value);
        report.set(pct, f64::from(t.percentile));
        report.set(samples, t.samples as f64);
    }
}
