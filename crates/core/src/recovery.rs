//! The adaptive recovery ladder and tiered verdict confidence.
//!
//! PR 3's self-healing layer (voting, bounded retries, quarantine)
//! keeps the pipeline *correct* under the `mild` fault profile. Under
//! `hostile` the static policies run out: vote disagreements become
//! frequent enough that triple-modular redundancy itself mis-votes,
//! whole scan windows are poisoned by VRT bursts, and the injected
//! retention drift outgrows the static 1.05×/0.5× validation margins.
//! This module holds the escalation policy that keeps a hostile run
//! *finishing with useful output*:
//!
//! * **vote widening** — the majority-vote width escalates 3→5→7 when
//!   the per-controller disagreement rate crosses
//!   [`VOTE_WIDEN_NUM`]/[`VOTE_WIDEN_DEN`] over a window of at least
//!   [`VOTE_WINDOW_MIN`] voted reads;
//! * **candidate relocation** — a Row Scout whose window runs dry
//!   relocates to fresh subarray regions via a deterministic seeded
//!   search instead of giving up (see
//!   [`RowScout::scan_recover`](crate::rowscout::RowScout::scan_recover));
//! * **drift re-profiling** — a [`DriftEstimator`] escalates the
//!   retention-validation margins mid-run when repeated margin failures
//!   show the static envelope no longer holds;
//! * **ACT-budget circuit breakers** — every discovery phase carries an
//!   activation budget ([`PhaseBudget`]) and closes with partial
//!   evidence instead of spinning or erroring when it runs out.
//!
//! Every stage is gated on
//! [`MemoryController::fault_severity`]` >= `[`LADDER_SEVERITY`], so
//! the `none` and `mild` profiles keep their exact command streams.
//! Ladder *decisions* read only the per-controller
//! [`softmc::RecoveryLadder`] state (deterministic at any thread
//! count); the totals are mirrored into registry counters for
//! reporting, where concurrent adds commute.
//!
//! What the pipeline still knows after degrading is expressed as a
//! [`VerdictTier`] carried alongside every profile, record, and fleet
//! summary.

use dram_sim::{Bank, RowAddr};
use softmc::MemoryController;

/// Counter: majority-vote width escalations (3→5, 5→7).
pub const CTR_VOTE_WIDENINGS: &str = "utrr.recovery.vote_widenings";
/// Counter: Row Scout windows relocated to fresh subarray regions.
pub const CTR_RELOCATIONS: &str = "utrr.recovery.relocations";
/// Counter: mid-run retention-drift margin re-profiles.
pub const CTR_REPROFILES: &str = "utrr.recovery.reprofiles";
/// Counter: phases closed early by an ACT-budget circuit breaker.
pub const CTR_BUDGET_TRIPS: &str = "utrr.recovery.budget_trips";

/// Minimum [`MemoryController::fault_severity`] that unlocks the
/// escalating recovery ladder.
pub const LADDER_SEVERITY: u8 = 2;

/// Disagreement-rate numerator/denominator that triggers vote widening:
/// more than 1 disagreement per 8 voted reads.
pub const VOTE_WIDEN_NUM: u64 = 1;
/// See [`VOTE_WIDEN_NUM`].
pub const VOTE_WIDEN_DEN: u64 = 8;
/// Voted reads required in the rate window before widening can trigger.
pub const VOTE_WINDOW_MIN: u64 = 24;
/// The widest majority vote the ladder escalates to.
pub const VOTE_WIDTH_MAX: u8 = 7;

/// Whether the escalating ladder is unlocked on this controller.
pub fn ladder_active(mc: &MemoryController) -> bool {
    mc.fault_severity() >= LADDER_SEVERITY
}

/// How confident the pipeline is in a result it produced.
///
/// The tier is about *process*, not about matching any ground truth: a
/// profile whose phases all completed within budget — retries, votes,
/// and quarantines included — is `Confirmed` even if its conclusions
/// are wrong. A phase that closed early or was skipped degrades the
/// tier and records why; a pipeline with no usable profile at all is
/// `Inconclusive`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictTier {
    /// Every phase completed within its budget with verified evidence.
    Confirmed,
    /// The pipeline completed, but at least one phase closed early or
    /// ran on partial evidence; `reasons` lists the degradations in the
    /// order they occurred (deduplicated).
    Degraded {
        /// Stable lower-kebab-case degradation labels (e.g.
        /// `scout-shortfall`, `schedule`, `act-budget`, `hc-cap`).
        reasons: Vec<String>,
    },
    /// No usable profile: the recovery ladder was exhausted.
    Inconclusive,
}

impl VerdictTier {
    /// The stable lower-case label (`confirmed`, `degraded`,
    /// `inconclusive`) used in fleet records and trace events.
    pub fn label(&self) -> &'static str {
        match self {
            VerdictTier::Confirmed => "confirmed",
            VerdictTier::Degraded { .. } => "degraded",
            VerdictTier::Inconclusive => "inconclusive",
        }
    }

    /// Numeric code for trace-event fields (0/1/2 in tier order).
    pub fn code(&self) -> u64 {
        match self {
            VerdictTier::Confirmed => 0,
            VerdictTier::Degraded { .. } => 1,
            VerdictTier::Inconclusive => 2,
        }
    }

    /// The degradation reasons, `+`-joined (empty unless `Degraded`).
    pub fn reasons_string(&self) -> String {
        match self {
            VerdictTier::Degraded { reasons } => reasons.join("+"),
            _ => String::new(),
        }
    }

    /// Whether the tier is [`VerdictTier::Confirmed`].
    pub fn is_confirmed(&self) -> bool {
        matches!(self, VerdictTier::Confirmed)
    }

    /// Degrades the tier with `reason` (idempotent per reason; an
    /// `Inconclusive` tier stays inconclusive).
    pub fn degrade(&mut self, reason: &str) {
        match self {
            VerdictTier::Confirmed => {
                *self = VerdictTier::Degraded { reasons: vec![reason.to_string()] };
            }
            VerdictTier::Degraded { reasons } => {
                if !reasons.iter().any(|r| r == reason) {
                    reasons.push(reason.to_string());
                }
            }
            VerdictTier::Inconclusive => {}
        }
    }

    /// Folds another tier in, keeping the worse of the two and the
    /// union of degradation reasons.
    pub fn merge(&mut self, other: &VerdictTier) {
        match other {
            VerdictTier::Confirmed => {}
            VerdictTier::Degraded { reasons } => {
                for reason in reasons {
                    self.degrade(reason);
                }
            }
            VerdictTier::Inconclusive => *self = VerdictTier::Inconclusive,
        }
    }

    /// Parses a `(label, reasons_string)` pair back (the fleet-record
    /// wire form). Unknown labels read as `Confirmed`, matching the
    /// pre-tier streams where the field is absent.
    pub fn from_wire(label: &str, reasons: &str) -> VerdictTier {
        match label {
            "inconclusive" => VerdictTier::Inconclusive,
            "degraded" => VerdictTier::Degraded {
                reasons: reasons.split('+').filter(|r| !r.is_empty()).map(str::to_string).collect(),
            },
            _ => VerdictTier::Confirmed,
        }
    }
}

/// Records one ladder event: bumps `counter`, adds it to the
/// controller's [`softmc::RecoveryLadder`] via `bump`, and emits a
/// `recovery` trace event with `detail` so the flight recorder carries
/// the provenance.
pub fn ladder_event(
    mc: &mut MemoryController,
    counter: &'static str,
    detail: &str,
    bank: Bank,
    row: Option<RowAddr>,
) {
    mc.counter(counter).inc();
    let phys = row.map(|r| mc.module().phys_of(r).index());
    mc.registry().trace(
        obs::TraceKind::Recovery,
        mc.now().as_ns(),
        u32::from(bank.index()),
        phys,
        &[],
        detail,
    );
}

/// The majority-vote width currently in effect on this controller
/// (always odd; 3 until the ladder widens it).
pub fn vote_width(mc: &MemoryController) -> u8 {
    match mc.recovery().vote_width {
        0 => 3,
        w => w,
    }
}

/// Records one voted read's outcome and escalates the vote width when
/// the disagreement rate over the current window crosses the widening
/// threshold. Only called with the ladder active.
pub fn note_vote(mc: &mut MemoryController, bank: Bank, row: RowAddr, disagreed: bool) {
    mc.recovery_mut().record_vote(disagreed);
    let ladder = *mc.recovery();
    let width = vote_width(mc);
    if width >= VOTE_WIDTH_MAX
        || ladder.voted_reads < VOTE_WINDOW_MIN
        || ladder.disagreements * VOTE_WIDEN_DEN <= ladder.voted_reads * VOTE_WIDEN_NUM
    {
        return;
    }
    let ladder = mc.recovery_mut();
    ladder.vote_width = width + 2;
    ladder.vote_widenings += 1;
    ladder.reset_vote_window();
    ladder_event(mc, CTR_VOTE_WIDENINGS, "vote_widen", bank, Some(row));
}

/// An ACT-budget circuit breaker for one pipeline phase.
///
/// The budget is charged against the device's activation counter, so it
/// bounds real command traffic, not wall-clock. A tripped budget
/// latches (like the Row Scout's scan budget): once exhausted, the
/// phase must close with whatever partial evidence it has.
#[derive(Debug, Clone, Copy)]
pub struct PhaseBudget {
    acts_start: u64,
    max_acts: Option<u64>,
    tripped: bool,
}

impl PhaseBudget {
    /// A breaker allowing `max_acts` activations from now (`None` =
    /// unlimited, the fault-free shape).
    pub fn begin(mc: &MemoryController, max_acts: Option<u64>) -> PhaseBudget {
        PhaseBudget { acts_start: mc.module().stats().activations, max_acts, tripped: false }
    }

    /// Whether the budget is exhausted, latching and recording the trip
    /// (counter + trace event) the first time it is.
    pub fn exhausted(&mut self, mc: &mut MemoryController, bank: Bank) -> bool {
        if self.tripped {
            return true;
        }
        let Some(max) = self.max_acts else { return false };
        if mc.module().stats().activations - self.acts_start >= max {
            self.tripped = true;
            mc.recovery_mut().budget_trips += 1;
            ladder_event(mc, CTR_BUDGET_TRIPS, "budget_trip", bank, None);
        }
        self.tripped
    }

    /// Whether the breaker has tripped.
    pub fn tripped(&self) -> bool {
        self.tripped
    }
}

/// Margin-failure count at one estimator level before escalating.
const REPROFILE_AFTER: u32 = 3;

/// Mid-run retention-drift re-profiler.
///
/// The Row Scout validates candidate groups against static margins: a
/// row must fail within 1.05× its retention bucket and hold at 0.5×.
/// Under hostile drift (±8%) those margins reject rows that are in
/// fact usable — the decay point wanders past the margins between
/// measurements. The estimator watches margin-type failures
/// (`retention-drift` quarantines) and, after [`REPROFILE_AFTER`] of
/// them at the current level, re-profiles: the decay margin widens and
/// the hold margin relaxes one step, re-anchoring the validation
/// envelope to the drift actually observed mid-run.
///
/// | level | fail-by margin | hold-at margin |
/// |-------|----------------|----------------|
/// | 0     | 1.05× (21/20)  | 0.50× (1/2)    |
/// | 1     | 1.10× (11/10)  | 0.40× (2/5)    |
/// | 2     | 1.15× (23/20)  | 0.33× (1/3)    |
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftEstimator {
    level: u8,
    failures_at_level: u32,
}

impl DriftEstimator {
    /// The current escalation level (0..=2).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The fail-by margin as a `(num, den)` multiplier on the retention
    /// bucket: the row must decay within `retention * num / den`.
    pub fn wait_margin(&self) -> (u64, u64) {
        match self.level {
            0 => (21, 20),
            1 => (11, 10),
            _ => (23, 20),
        }
    }

    /// The hold-at margin as a `(num, den)` multiplier on the retention
    /// bucket: the row must stay clean at `retention * num / den`.
    pub fn hold_margin(&self) -> (u64, u64) {
        match self.level {
            0 => (1, 2),
            1 => (2, 5),
            _ => (1, 3),
        }
    }

    /// Records a margin-type validation failure; escalates (and
    /// records the re-profile) when the level's failure budget is
    /// spent. Returns whether an escalation happened.
    pub fn note_margin_failure(
        &mut self,
        mc: &mut MemoryController,
        bank: Bank,
        row: RowAddr,
    ) -> bool {
        if self.level >= 2 {
            return false;
        }
        self.failures_at_level += 1;
        if self.failures_at_level < REPROFILE_AFTER {
            return false;
        }
        self.level += 1;
        self.failures_at_level = 0;
        mc.recovery_mut().reprofiles += 1;
        ladder_event(mc, CTR_REPROFILES, "reprofile", bank, Some(row));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{Module, ModuleConfig};

    const BANK: Bank = Bank::new(0);

    fn controller() -> MemoryController {
        MemoryController::new(Module::new(ModuleConfig::small_test(), 7))
    }

    #[test]
    fn tier_degrades_and_merges_in_order() {
        let mut tier = VerdictTier::Confirmed;
        assert!(tier.is_confirmed());
        assert_eq!(tier.label(), "confirmed");
        tier.degrade("schedule");
        tier.degrade("act-budget");
        tier.degrade("schedule");
        assert_eq!(tier.reasons_string(), "schedule+act-budget");
        assert_eq!(tier.code(), 1);

        let mut other = VerdictTier::Confirmed;
        other.merge(&tier);
        assert_eq!(other, tier);
        other.merge(&VerdictTier::Inconclusive);
        assert_eq!(other, VerdictTier::Inconclusive);
        other.degrade("late");
        assert_eq!(other, VerdictTier::Inconclusive, "inconclusive is terminal");
    }

    #[test]
    fn tier_wire_form_round_trips() {
        for tier in [
            VerdictTier::Confirmed,
            VerdictTier::Degraded { reasons: vec!["scout-shortfall".into(), "hc-cap".into()] },
            VerdictTier::Inconclusive,
        ] {
            let back = VerdictTier::from_wire(tier.label(), &tier.reasons_string());
            assert_eq!(back, tier);
        }
        // Pre-tier streams (absent field) read as confirmed.
        assert_eq!(VerdictTier::from_wire("", ""), VerdictTier::Confirmed);
    }

    #[test]
    fn vote_width_widens_on_sustained_disagreement() {
        let mut mc = controller();
        assert_eq!(vote_width(&mc), 3);
        // Below the window minimum nothing happens, whatever the rate.
        for _ in 0..VOTE_WINDOW_MIN - 1 {
            note_vote(&mut mc, BANK, RowAddr::new(1), true);
        }
        assert_eq!(vote_width(&mc), 3);
        note_vote(&mut mc, BANK, RowAddr::new(1), true);
        assert_eq!(vote_width(&mc), 5, "sustained disagreement widens the vote");
        assert_eq!(mc.recovery().vote_widenings, 1);
        assert_eq!(mc.recovery().voted_reads, 0, "window resets after widening");
        // Escalate once more, then saturate at 7.
        for _ in 0..VOTE_WINDOW_MIN + 1 {
            note_vote(&mut mc, BANK, RowAddr::new(1), true);
        }
        assert_eq!(vote_width(&mc), 7);
        for _ in 0..VOTE_WINDOW_MIN + 1 {
            note_vote(&mut mc, BANK, RowAddr::new(1), true);
        }
        assert_eq!(vote_width(&mc), 7, "the ladder saturates at {VOTE_WIDTH_MAX}");
        assert_eq!(mc.registry().counter(CTR_VOTE_WIDENINGS).get(), 2);
    }

    #[test]
    fn low_disagreement_rates_never_widen() {
        let mut mc = controller();
        for i in 0..400u32 {
            // 1 disagreement per 10 voted reads (at the end of each run
            // of 10, so no prefix of the window ever exceeds the 1/8
            // threshold either).
            note_vote(&mut mc, BANK, RowAddr::new(1), i % 10 == 9);
        }
        assert_eq!(vote_width(&mc), 3);
        assert_eq!(mc.recovery().vote_widenings, 0);
    }

    #[test]
    fn phase_budget_trips_once_and_latches() {
        let mut mc = controller();
        let mut unlimited = PhaseBudget::begin(&mc, None);
        assert!(!unlimited.exhausted(&mut mc, BANK));

        let mut budget = PhaseBudget::begin(&mc, Some(10));
        assert!(!budget.exhausted(&mut mc, BANK));
        mc.module_mut().hammer(BANK, RowAddr::new(3), 12).unwrap();
        assert!(budget.exhausted(&mut mc, BANK));
        assert!(budget.exhausted(&mut mc, BANK), "latched");
        assert_eq!(mc.recovery().budget_trips, 1, "recorded once, not per poll");
        assert_eq!(mc.registry().counter(CTR_BUDGET_TRIPS).get(), 1);
    }

    /// Budgets count the controller's own ACTs: a second controller
    /// hammering a module on the same shared registry must not trip
    /// this one's breaker (the ladder never reads a shared registry).
    #[test]
    fn phase_budget_ignores_other_devices_on_a_shared_registry() {
        let registry = obs::MetricsRegistry::shared();
        let mut a = controller();
        let mut b = controller();
        a.module_mut().attach_registry(std::sync::Arc::clone(&registry));
        b.module_mut().attach_registry(std::sync::Arc::clone(&registry));
        let mut budget = PhaseBudget::begin(&b, Some(10));
        a.module_mut().hammer(BANK, RowAddr::new(3), 50).unwrap();
        a.module_mut().flush_metrics();
        assert!(!budget.exhausted(&mut b, BANK), "A's ACTs tripped B's budget");
        b.module_mut().hammer(BANK, RowAddr::new(3), 10).unwrap();
        assert!(budget.exhausted(&mut b, BANK));
        assert_eq!(a.recovery().budget_trips, 0);
    }

    #[test]
    fn drift_estimator_escalates_after_repeated_margin_failures() {
        let mut mc = controller();
        let mut est = DriftEstimator::default();
        assert_eq!(est.wait_margin(), (21, 20));
        assert_eq!(est.hold_margin(), (1, 2));
        let mut escalations = 0;
        for _ in 0..20 {
            if est.note_margin_failure(&mut mc, BANK, RowAddr::new(9)) {
                escalations += 1;
            }
        }
        assert_eq!(escalations, 2, "two levels, then saturation");
        assert_eq!(est.level(), 2);
        assert_eq!(est.wait_margin(), (23, 20));
        assert_eq!(est.hold_margin(), (1, 3));
        assert_eq!(mc.recovery().reprofiles, 2);
        assert_eq!(mc.registry().counter(CTR_REPROFILES).get(), 2);
    }
}
