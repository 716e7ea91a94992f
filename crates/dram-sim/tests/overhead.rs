//! Instrumentation overhead gates for the device command path.
//!
//! - One device with a shared, detail-on registry must run within 10 %
//!   of a device with its private, detail-off registry.
//! - Two workers each driving their own device, all attached to one
//!   shared registry, must run within 15 % of the same two workers each
//!   on its own registry. Devices count in owned tallies and publish on
//!   drop, so sharing a registry costs the workers nothing; a
//!   per-command atomic on a shared counter fails this gate on any host
//!   with two or more cores (it measured +65–90 % on two cores).
//!
//! Wall-clock assertions are noisy, so each side keeps the minimum of
//! several interleaved trials (the least scheduler-disturbed run). The
//! workload is calibrated to at least [`EPSILON`] × 50, so the absolute
//! epsilon that absorbs timer jitter is at most 2 % of what it guards.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dram_sim::{Bank, DataPattern, Module, ModuleConfig, RowAddr};
use obs::MetricsRegistry;

/// Absolute slack for timer jitter.
const EPSILON: Duration = Duration::from_millis(2);
/// Interleaved trials per variant in one round.
const TRIALS: usize = 7;
/// Rounds of trials before the gate fails.
const ROUNDS: usize = 3;

/// The gates time wall clock, so they must not run concurrently with
/// each other.
static SERIAL: Mutex<()> = Mutex::new(());

/// A command mix heavy on the per-command path: unbatched hammers (one
/// ACT each), explicit activate/read/precharge cycles, and periodic
/// refreshes.
fn run_workload(module: &mut Module) {
    let bank = Bank::new(0);
    module.write_row(bank, RowAddr::new(500), DataPattern::Ones).expect("in range");
    for i in 0..6_000u32 {
        let row = RowAddr::new(400 + (i % 128));
        module.hammer(bank, row, 1).expect("in range");
        if i % 64 == 0 {
            module.refresh();
        }
    }
    let _ = module.read_row(bank, RowAddr::new(500)).expect("in range");
}

/// Runs `reps` workloads on one fresh module; `registry` is attached
/// when given. The module is dropped (publishing its counts) inside the
/// timed region.
fn drive(reps: u32, seed: u64, registry: Option<Arc<MetricsRegistry>>) {
    let mut module = Module::new(ModuleConfig::small_test(), seed);
    if let Some(registry) = registry {
        module.attach_registry(registry);
    }
    for _ in 0..reps {
        run_workload(&mut module);
    }
}

/// Wall time of one device running `reps` workloads.
fn timed_single(reps: u32, shared: bool) -> Duration {
    let registry = shared.then(MetricsRegistry::shared);
    let start = Instant::now();
    drive(reps, 7, registry);
    start.elapsed()
}

/// Wall time of two workers, each driving its own device for `reps`
/// workloads: on one shared registry, or each on its own registry.
/// Every registry has detail off, so the variants differ only in
/// whether the workers share counters. (Detail-on registries also share
/// one event buffer, whose mutex serializes the workers until the
/// buffer fills; that cost is the event recorder's, not the counters'.)
fn timed_pair(reps: u32, shared: bool) -> Duration {
    let registry = Arc::new(MetricsRegistry::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for seed in [7, 8] {
            let registry =
                if shared { Arc::clone(&registry) } else { Arc::new(MetricsRegistry::new()) };
            scope.spawn(move || drive(reps, seed, Some(registry)));
        }
    });
    start.elapsed()
}

/// The smallest repetition count whose private-registry run takes at
/// least 60 × [`EPSILON`] (a margin over the 50× floor for trials that
/// run faster than the calibration run).
fn calibrated_reps(time: impl Fn(u32, bool) -> Duration) -> u32 {
    let floor = EPSILON * 60;
    let mut reps = 1;
    while time(reps, false) < floor {
        reps *= 2;
    }
    reps
}

/// Best-of-[`TRIALS`] wall times `(private, shared)` at `reps`, the
/// variants interleaved so slow host phases hit both.
fn best_of_trials(time: &impl Fn(u32, bool) -> Duration, reps: u32) -> (Duration, Duration) {
    let mut best_private = Duration::MAX;
    let mut best_shared = Duration::MAX;
    for _ in 0..TRIALS {
        best_private = best_private.min(time(reps, false));
        best_shared = best_shared.min(time(reps, true));
    }
    (best_private, best_shared)
}

/// Asserts the shared variant's best trial is within `pct` percent
/// plus [`EPSILON`] of the private variant's best trial. A noisy host
/// can slow one round of trials; the gate fails only if every one of
/// [`ROUNDS`] rounds is over budget.
fn assert_within(what: &str, time: impl Fn(u32, bool) -> Duration, pct: u32) {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let reps = calibrated_reps(&time);
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let (private, shared) = best_of_trials(&time, reps);
        if shared <= private + private * pct / 100 + EPSILON {
            return;
        }
        rounds.push(format!("{shared:?} vs {private:?}"));
    }
    panic!(
        "{what}: shared registry over the {pct}% budget in every round ({reps} reps): {rounds:?}"
    );
}

#[test]
fn metrics_detail_overhead_is_small() {
    assert_within("one device", timed_single, 10);
}

#[test]
fn shared_registry_costs_parallel_workers_nothing() {
    assert_within("two workers", timed_pair, 15);
}
