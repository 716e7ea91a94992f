//! The hot-path equivalence contracts at the facade's test tier, each
//! a fast representative of a full suite that runs under
//! `--workspace`:
//!
//! * the event-driven `Module::refresh` against the full-window
//!   `refresh_naive` reference (full suite: `dram-sim`'s
//!   `refresh_equiv`), on seeded command traces over both banks of a
//!   module guarded by a real counter-based TRR engine;
//! * the builder-assembled §7.1 custom patterns and Half-Double, which
//!   plan their layout once per victim position, against the frozen
//!   per-interval bodies in `attacks::reference` (full suite:
//!   `attacks`' `builder_equiv`), as whole `BankSweep`s.

use utrr::attacks::custom::{VendorAPattern, VendorBPattern, VendorCPattern};
use utrr::attacks::eval::{sweep_bank_module, BankSweep, EvalConfig};
use utrr::attacks::half_double::HalfDouble;
use utrr::attacks::reference::Legacy;
use utrr::attacks::{AccessPattern, AttackBuilder, BuiltinAttack};
use utrr::dram_sim::rng::SplitMix64;
use utrr::dram_sim::{Bank, DataPattern, Module, ModuleConfig, ModuleStats, Nanos, RowAddr};
use utrr::trr::CounterTrr;
use utrr::utrr_modules::by_id;

/// Readouts of every written row, the device counters and the clock.
type Outcome = (Vec<(u8, u32, Vec<u32>)>, ModuleStats, Nanos);

/// Drives one seeded trace of writes, hammers, idle time and `REF`
/// bursts over both banks; `naive` selects the reference refresh.
fn run_trace(seed: u64, naive: bool) -> Outcome {
    let config = ModuleConfig::small_test();
    let (banks, rows) = (config.geometry.banks, config.geometry.rows_per_bank);
    let engine = Box::new(CounterTrr::a_trr1(banks));
    let mut m = Module::with_engine(config, engine, seed);
    let mut rng = SplitMix64::new(seed);
    let mut written = Vec::new();
    for _ in 0..200 {
        let bank = Bank::new(rng.next_below(u64::from(banks)) as u8);
        let row = RowAddr::new(rng.next_below(u64::from(rows)) as u32);
        match rng.next_below(4) {
            0 => {
                m.write_row(bank, row, DataPattern::Ones).unwrap();
                written.push((bank, row));
            }
            1 => m.hammer(bank, row, 1 + rng.next_below(400)).unwrap(),
            2 => m.advance(Nanos::from_us(1 + rng.next_below(5_000))),
            _ => {
                for _ in 0..1 + rng.next_below(40) {
                    if naive {
                        m.refresh_naive();
                    } else {
                        m.refresh();
                    }
                }
            }
        }
    }
    written.sort_unstable();
    written.dedup();
    let readouts = written
        .into_iter()
        .map(|(bank, row)| {
            let flips = m.read_row(bank, row).unwrap().flipped_bits().to_vec();
            (bank.index(), row.index(), flips)
        })
        .collect();
    (readouts, m.stats(), m.now())
}

#[test]
fn event_driven_refresh_matches_the_naive_reference() {
    let mut detections = 0;
    for seed in 0..24 {
        let fast = run_trace(seed, false);
        assert_eq!(fast, run_trace(seed, true), "seed {seed}: refresh diverged from refresh_naive");
        detections += fast.1.trr_detections;
    }
    assert!(detections > 0, "the sample must exercise TRR-induced refreshes");
}

/// Sweeps 4 positions of a 1024-row build of `module` with the frozen
/// per-interval body and with the builder assembly of `attack`.
fn sweeps<T>(module: &str, attack: T) -> (BankSweep, BankSweep)
where
    T: BuiltinAttack + Copy + 'static,
    Legacy<T>: AccessPattern,
{
    let spec = by_id(module).expect("catalog module");
    let config = EvalConfig { scaled_rows: Some(1_024), windows: 1, ..EvalConfig::quick(4) };
    let build = || spec.build_scaled(1_024, config.seed);
    let legacy = sweep_bank_module(build(), &Legacy(attack), &config);
    let composed = sweep_bank_module(build(), &AttackBuilder::from_attack(attack).build(), &config);
    (legacy, composed)
}

#[test]
fn planned_patterns_match_the_frozen_per_interval_bodies() {
    let b = by_id("B0").unwrap();
    let c = by_id("C9").unwrap();
    let cases = [
        ("A5 vendor-A", sweeps("A5", VendorAPattern::paper_optimum())),
        ("B0 vendor-B", sweeps("B0", VendorBPattern::for_module(&b))),
        ("C9 vendor-C", sweeps("C9", VendorCPattern::for_module(&c))),
        ("A5 half-double", sweeps("A5", HalfDouble::standard())),
    ];
    let mut flips = 0;
    for (name, (legacy, composed)) in cases {
        assert_eq!(legacy.results.len(), 4, "{name}");
        assert_eq!(legacy, composed, "{name}: the planned pattern diverged");
        flips += legacy.results.iter().map(|r| r.flips).sum::<u32>();
    }
    assert!(flips > 0, "the sample must include vulnerable positions");
}
