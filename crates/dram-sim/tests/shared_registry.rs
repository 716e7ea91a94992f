//! The publish-on-drop contract of a registry shared by parallel
//! workers: while the devices run, the registry's device counters read
//! zero (nothing crosses between workers per command); once they are
//! dropped, each counter equals exactly the sum of the devices' own
//! [`Module::stats`].

use std::sync::{Arc, Barrier};

use dram_sim::metrics::{
    CTR_ACT, CTR_BIT_FLIPS, CTR_PRE, CTR_REF, CTR_REGULAR_ROW_REFRESHES, CTR_ROW_READS,
    CTR_ROW_WRITES,
};
use dram_sim::{Bank, DataPattern, Module, ModuleConfig, ModuleStats, RowAddr};
use obs::MetricsRegistry;

/// Reads one [`ModuleStats`] field.
type StatField = fn(&ModuleStats) -> u64;

/// Each device counter with its [`ModuleStats`] field.
const DEVICE_COUNTERS: [(&str, StatField); 6] = [
    (CTR_ACT, |s| s.activations),
    (CTR_REF, |s| s.refreshes),
    (CTR_ROW_READS, |s| s.row_reads),
    (CTR_ROW_WRITES, |s| s.row_writes),
    (CTR_REGULAR_ROW_REFRESHES, |s| s.regular_row_refreshes),
    (CTR_BIT_FLIPS, |s| s.bit_flips),
];

/// A seed-dependent command mix, so the two workers' totals differ.
/// Issues exactly three `PRE`s (write, explicit close, read).
fn drive(module: &mut Module, seed: u64) {
    let bank = Bank::new(0);
    let victim = RowAddr::new(300 + seed as u32);
    module.write_row(bank, victim, DataPattern::Ones).expect("in range");
    for i in 0..(2_000 + 500 * seed) {
        module.hammer(bank, victim.plus(1 + (i % 2) as u32), 40).expect("in range");
        if i % 16 == 0 {
            module.refresh();
        }
    }
    module.activate(bank, victim).expect("in range");
    module.precharge(bank).expect("in range");
    let _ = module.read_row(bank, victim).expect("in range");
}

#[test]
fn shared_registry_reads_zero_mid_run_and_the_exact_sum_after_drop() {
    let registry = MetricsRegistry::shared();
    let counter = |name: &str| registry.counter(name).get();
    let mid_run = Barrier::new(3);
    let release = Barrier::new(3);
    let stats: Vec<ModuleStats> = std::thread::scope(|scope| {
        let workers: Vec<_> = [1u64, 2]
            .into_iter()
            .map(|seed| {
                let registry = Arc::clone(&registry);
                let (mid_run, release) = (&mid_run, &release);
                scope.spawn(move || {
                    let mut module = Module::new(ModuleConfig::small_test(), seed);
                    module.attach_registry(registry);
                    drive(&mut module, seed);
                    let stats = module.stats();
                    mid_run.wait();
                    release.wait();
                    drop(module);
                    stats
                })
            })
            .collect();
        mid_run.wait();
        for name in DEVICE_COUNTERS.iter().map(|(name, _)| *name).chain([CTR_PRE]) {
            assert_eq!(counter(name), 0, "{name} published before drop");
        }
        release.wait();
        workers.into_iter().map(|w| w.join().expect("worker")).collect()
    });

    assert_ne!(stats[0], stats[1], "the workers must do different work");
    assert!(stats.iter().all(|s| s.activations > 0 && s.bit_flips > 0), "{stats:?}");
    for (name, field) in DEVICE_COUNTERS {
        assert_eq!(counter(name), field(&stats[0]) + field(&stats[1]), "{name}");
    }
    assert_eq!(counter(CTR_PRE), 6, "three PREs per worker");
}
