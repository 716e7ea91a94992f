//! The `--faults none` contract: the `none` profile is a strict no-op.
//! Reverse engineering under it issues the same commands and reaches
//! the same results, bit for bit, whatever the fault seed — the plan is
//! never installed, so the seed cannot matter.

use faults::FaultProfile;
use obs::MetricsRegistry;
use utrr::utrr_modules::by_id;
use utrr_bench::{reverse_engineer, Substrate};

const ROWS: u32 = 2_048;
const SEED: u64 = 7;

#[test]
fn none_profile_is_a_strict_noop() {
    let spec = by_id("A5").expect("catalog module");
    let run = |fault_seed: u64| {
        let registry = MetricsRegistry::shared();
        let substrate = Substrate {
            rows: ROWS,
            registry: Some(&registry),
            fault_profile: FaultProfile::None,
            fault_seed,
        };
        let outcome = reverse_engineer(&spec, SEED, &substrate).expect("suite completes");
        (outcome, registry)
    };
    let (clean, clean_registry) = run(0);
    let (noop, noop_registry) = run(0xDEAD_BEEF);

    assert_eq!(noop.profile, clean.profile);
    assert_eq!(noop.refresh_period, clean.refresh_period);
    assert_eq!(noop.matches, clean.matches);
    // Same command traffic, not merely the same conclusion.
    for name in [dram_sim::metrics::CTR_ACT, dram_sim::metrics::CTR_ROW_READS] {
        let count = clean_registry.counter(name).get();
        assert!(count > 0, "command counter {name} never counted");
        assert_eq!(
            noop_registry.counter(name).get(),
            count,
            "command counter {name} diverged under the none profile"
        );
    }
    assert_eq!(noop_registry.counter(faults::CTR_INJECTED_TOTAL).get(), 0);
}
