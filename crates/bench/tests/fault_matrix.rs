//! The fault matrix: the reverse-engineering pipeline must stay
//! *correct* under the `mild` fault profile, recovering every module's
//! ground-truth TRR parameters through retries, voting, and
//! quarantine. (The `none` profile's strict no-op contract is pinned by
//! the workspace root's `tests/fault_contract.rs`.)

use faults::FaultProfile;
use obs::MetricsRegistry;
use utrr_bench::{measure_hc_first, reverse_engineer, Substrate};
use utrr_modules::by_id;

/// One module per vendor: counter-based (A), sampling-based (B), and
/// the mixed window design (C).
const VENDOR_SAMPLE: [&str; 3] = ["A5", "B0", "C9"];
const ROWS: u32 = 2_048;
const SEED: u64 = 7;

#[test]
fn mild_faults_do_not_break_reverse_engineering() {
    let registry = MetricsRegistry::shared();
    for id in VENDOR_SAMPLE {
        let spec = by_id(id).expect("catalog module");
        let substrate = Substrate {
            rows: ROWS,
            registry: Some(&registry),
            fault_profile: FaultProfile::Mild,
            fault_seed: 1,
        };
        let outcome = reverse_engineer(&spec, SEED, &substrate)
            .unwrap_or_else(|e| panic!("{id}: reverse engineering failed under mild faults: {e}"));
        assert!(
            outcome.matches.all(),
            "{id}: mild faults broke the inference: {:?} (profile {:?})",
            outcome.matches,
            outcome.profile,
        );
    }
    // The run must actually have been faulty — a pass with zero injected
    // faults would only prove the plan never fired.
    let injected = registry.counter(faults::CTR_INJECTED_TOTAL).get();
    assert!(injected > 0, "mild profile injected no faults at all");
    // And the pipeline must have visibly *recovered*, not just been
    // lucky: at least one retry, disagreement, or quarantine.
    let recoveries = registry.counter(utrr_core::robust::CTR_READ_DISAGREEMENTS).get()
        + registry.counter(utrr_core::robust::CTR_WRITE_RETRIES).get()
        + registry.counter(utrr_core::rowscout::CTR_SCOUT_RETRIES).get()
        + registry.counter(utrr_core::rowscout::CTR_SCOUT_QUARANTINED).get()
        + registry.counter(utrr_core::schedule::CTR_SCHEDULE_RETRIES).get();
    assert!(
        recoveries > 0,
        "{injected} faults injected but no retry/disagreement/quarantine recorded"
    );
}

#[test]
fn hc_first_measurement_survives_mild_faults() {
    let spec = by_id("A5").expect("catalog module");
    let clean = measure_hc_first(&spec, 16, 11, &Substrate::clean(ROWS));
    let mild =
        Substrate { fault_profile: FaultProfile::Mild, fault_seed: 1, ..Substrate::clean(ROWS) };
    let faulty = measure_hc_first(&spec, 16, 11, &mild);
    // The binary-search characterization self-heals through voted
    // reads; the mild substrate may nudge individual probes but the
    // estimate must stay within the sampling tolerance of Table 1.
    let lo = clean as f64 * 0.5;
    let hi = clean as f64 * 2.0;
    assert!(
        (faulty as f64) >= lo && (faulty as f64) <= hi,
        "HC_first under mild faults drifted out of tolerance: clean {clean}, faulty {faulty}"
    );
}
