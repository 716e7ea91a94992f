//! The shared-registry contract at the facade's test tier: attack
//! columns over modules of every engine family, all reporting into one
//! run registry, produce identical sweeps and identical counter
//! snapshots at one and two worker threads. Devices and TRR engines
//! publish their counts on drop, and counter totals are sums, so the
//! snapshot cannot depend on how tasks were spread over workers.

use std::sync::Arc;

use obs::MetricsRegistry;
use utrr::attacks::eval::{BankSweep, EvalConfig};
use utrr::utrr_modules::{by_id, ModuleSpec};
use utrr_bench::attack_columns_par;

/// Counter (A_TRR1, A_TRR2), sampler (B_TRR1) and window (C_TRR2)
/// engines.
const MODULES: [&str; 4] = ["A5", "A13", "B0", "C9"];

fn run(specs: &[ModuleSpec], threads: usize) -> (Vec<BankSweep>, Vec<(String, u64)>) {
    let registry = MetricsRegistry::shared();
    let config = EvalConfig {
        scaled_rows: Some(1_024),
        windows: 1,
        registry: Some(Arc::clone(&registry)),
        ..EvalConfig::quick(4)
    };
    let pool = par::ParConfig::metered(threads, Arc::clone(&registry));
    let sweeps = attack_columns_par(specs, &config, &pool);
    (sweeps, registry.counters_snapshot())
}

#[test]
fn attack_columns_counters_are_identical_at_one_and_two_threads() {
    let specs: Vec<ModuleSpec> = MODULES.iter().map(|id| by_id(id).expect("catalog")).collect();
    let (sweeps_1, counters_1) = run(&specs, 1);
    let (sweeps_2, counters_2) = run(&specs, 2);
    assert_eq!(sweeps_1, sweeps_2, "BankSweeps differ between 1 and 2 threads");
    assert_eq!(counters_1, counters_2, "counter snapshots differ between 1 and 2 threads");

    let value = |name: &str| counters_1.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert!(value("dram.cmd.act").is_some_and(|acts| acts > 0), "{counters_1:?}");
    for spec in &specs {
        let detections = value(&format!("trr.{}.detections", spec.trr_version));
        assert!(detections.is_some_and(|d| d > 0), "{}: {counters_1:?}", spec.id);
    }
}
