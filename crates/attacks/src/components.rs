//! The composable attack pipeline: pattern generators, schedulers, and
//! the builder that assembles them into [`AccessPattern`]s.
//!
//! The §7.1 custom patterns all decompose into the same three concerns,
//! and the decomposition is what makes a pattern *searchable* (the
//! [`crate::fuzz`] module samples each axis independently):
//!
//! * a [`PatternGenerator`] decides **which rows** carry the attack and
//!   the per-row activation dose — the aggressor layout;
//! * a [`Scheduler`] decides **when** those activations are issued
//!   within and across `tREFI` intervals: ordering, pair interleaving
//!   vs. cascading, and phase relative to the TRR-capable-`REF` cadence
//!   (REF-synchronised schedulers) or none at all (free-running ones);
//! * a [`crate::verdict::Verdict`] stage decides **what counts as
//!   success** once the hammering stops — by default flip counting
//!   against the module's `WeakCells` ground truth.
//!
//! [`AttackBuilder`] assembles the three into a [`ComposedAttack`]; the
//! pre-existing baseline/custom/half-double structs are themselves
//! generators (each with a canonical scheduler via [`BuiltinAttack`]),
//! so `AttackBuilder::from_attack(VendorAPattern::paper_optimum())`
//! reproduces the hand-written §7.1 pattern byte-for-byte.

use dram_sim::{Bank, DramError, RowAddr};
use softmc::MemoryController;

use crate::pattern::{AccessPattern, PatternTarget};
use crate::verdict::Verdict;

/// Single-bank activation budget between two `REF`s (footnote 10).
pub const INTERVAL_BUDGET: u64 = 149;

/// One row of the attack layout together with its per-interval
/// activation dose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowDose {
    /// Logical row address.
    pub row: RowAddr,
    /// Activations this row receives per scheduled interval.
    pub acts: u64,
}

impl RowDose {
    /// Convenience constructor.
    pub fn new(row: RowAddr, acts: u64) -> Self {
        RowDose { row, acts }
    }
}

/// A generator's answer for one victim position: which rows to drive
/// and how hard. The scheduler turns this into per-interval [`Slot`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggressorLayout {
    /// True aggressors, in hammering order.
    pub aggressors: Vec<RowDose>,
    /// Same-bank dummy rows (tracker eviction, sampler stealing, window
    /// exhaustion), in hammering order.
    pub dummies: Vec<RowDose>,
    /// Dummy rows in other banks, for sampler-stealing diversions that
    /// overlap the target bank's timing.
    pub other_bank: Vec<(Bank, RowDose)>,
}

/// One scheduled unit of work inside a `tREFI` interval. Executing a
/// slot with a zero dose is a strict no-op on the device (no state, no
/// metrics, no clock), so schedulers may emit them freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Back-to-back activations of one row.
    Burst {
        /// Row to activate.
        row: RowAddr,
        /// Activation count.
        acts: u64,
    },
    /// Alternating activations of two rows (`first`, `second`, `first`,
    /// …) — `pairs` activations of each.
    Pair {
        /// First row of the pair.
        first: RowAddr,
        /// Second row of the pair.
        second: RowAddr,
        /// Activations per row.
        pairs: u64,
    },
    /// Activations in another bank, overlapped with the target bank's
    /// interval (they do not consume the target bank's budget).
    OtherBank {
        /// The other bank.
        bank: Bank,
        /// Row to activate there.
        row: RowAddr,
        /// Activation count.
        acts: u64,
    },
}

/// Produces the aggressor layout for a victim position.
///
/// Method names deliberately differ from [`AccessPattern`]'s so a type
/// can implement both without call-site ambiguity (the blanket impl for
/// [`BuiltinAttack`] bridges them).
pub trait PatternGenerator: Send + Sync {
    /// Short identifier used in reports ([`AccessPattern::name`]).
    fn id(&self) -> &str;

    /// Average hammers per single aggressor row per `REF` — the Fig. 8
    /// x-axis ([`AccessPattern::hammers_per_aggressor_per_ref`]).
    fn rate_per_ref(&self) -> f64;

    /// The rows this generator drives for `target`, with per-interval
    /// doses. Needs the controller for physical-to-logical mapping
    /// (Half-Double derives its distance-2 rows here).
    fn layout(&self, mc: &MemoryController, target: &PatternTarget) -> AggressorLayout;

    /// Rows the evaluation harness should initialize with the
    /// coupling-maximizing stripe ([`AccessPattern::init_rows`]).
    fn seed_rows(&self, target: &PatternTarget) -> Vec<RowAddr> {
        target.aggressors.clone()
    }
}

/// Orders a layout's activations within one `tREFI` interval.
///
/// `interval` counts `REF`s since power-on, so REF-synchronised
/// schedulers can phase their work against the TRR-capable-`REF`
/// cadence; free-running schedulers ignore it.
pub trait Scheduler: Send + Sync {
    /// Short identifier for reports and artifacts.
    fn id(&self) -> &str;

    /// Appends this interval's slots to `slots` (cleared by the
    /// caller).
    fn schedule(&self, layout: &AggressorLayout, interval: u64, slots: &mut Vec<Slot>);
}

/// Issues scheduled slots to the device, in order.
///
/// # Errors
///
/// Propagates device protocol errors.
pub fn execute_slots(
    mc: &mut MemoryController,
    bank: Bank,
    slots: &[Slot],
) -> Result<(), DramError> {
    for slot in slots {
        match *slot {
            Slot::Burst { row, acts } => mc.module_mut().hammer(bank, row, acts)?,
            Slot::Pair { first, second, pairs } => {
                mc.module_mut().hammer_pair(bank, first, second, pairs)?;
            }
            Slot::OtherBank { bank: other, row, acts } => {
                mc.module_mut().hammer_overlapped(other, row, acts)?;
            }
        }
    }
    Ok(())
}

/// Runs one interval of a generator/scheduler pair: layout → slots →
/// device.
///
/// # Errors
///
/// Propagates device protocol errors.
pub fn run_composed(
    generator: &dyn PatternGenerator,
    scheduler: &dyn Scheduler,
    mc: &mut MemoryController,
    target: &PatternTarget,
    interval: u64,
) -> Result<(), DramError> {
    let layout = generator.layout(mc, target);
    let mut slots = Vec::with_capacity(
        layout.aggressors.len() + layout.dummies.len() + layout.other_bank.len(),
    );
    scheduler.schedule(&layout, interval, &mut slots);
    execute_slots(mc, target.bank, &slots)
}

/// A generator with a canonical scheduler — what the hand-written
/// attack structs implement so they run standalone *and* slot into the
/// builder. The blanket impl below gives every `BuiltinAttack` an
/// [`AccessPattern`] that is byte-identical to
/// `AttackBuilder::from_attack(it).build()`.
pub trait BuiltinAttack: PatternGenerator {
    /// The scheduler this attack was designed around.
    type Sched: Scheduler + Send + Sync + 'static;

    /// Builds the canonical scheduler instance (usually `Copy` data
    /// derived from the attack's own parameters).
    fn scheduler(&self) -> Self::Sched;
}

impl<T: BuiltinAttack> AccessPattern for T {
    fn name(&self) -> &str {
        self.id()
    }

    fn hammers_per_aggressor_per_ref(&self) -> f64 {
        self.rate_per_ref()
    }

    fn init_rows(&self, target: &PatternTarget) -> Vec<RowAddr> {
        self.seed_rows(target)
    }

    fn run_interval(
        &self,
        mc: &mut MemoryController,
        target: &PatternTarget,
        interval: u64,
    ) -> Result<(), DramError> {
        run_composed(self, &self.scheduler(), mc, target, interval)
    }
}

/// A builder-assembled attack: generator + scheduler + verdict behind
/// one [`AccessPattern`].
pub struct ComposedAttack {
    name: Option<String>,
    generator: Box<dyn PatternGenerator>,
    scheduler: Box<dyn Scheduler>,
    verdict: Box<dyn Verdict>,
}

impl ComposedAttack {
    /// The scheduler's identifier (for reports).
    pub fn scheduler_id(&self) -> &str {
        self.scheduler.id()
    }
}

impl std::fmt::Debug for ComposedAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComposedAttack")
            .field("name", &self.name())
            .field("scheduler", &self.scheduler.id())
            .field("verdict", &self.verdict.id())
            .finish()
    }
}

impl AccessPattern for ComposedAttack {
    fn name(&self) -> &str {
        self.name.as_deref().unwrap_or_else(|| self.generator.id())
    }

    fn hammers_per_aggressor_per_ref(&self) -> f64 {
        self.generator.rate_per_ref()
    }

    fn init_rows(&self, target: &PatternTarget) -> Vec<RowAddr> {
        self.generator.seed_rows(target)
    }

    fn run_interval(
        &self,
        mc: &mut MemoryController,
        target: &PatternTarget,
        interval: u64,
    ) -> Result<(), DramError> {
        run_composed(self.generator.as_ref(), self.scheduler.as_ref(), mc, target, interval)
    }

    fn verdict(&self) -> &dyn Verdict {
        self.verdict.as_ref()
    }
}

/// Assembles a [`ComposedAttack`] from components.
///
/// Defaults: the generator's canonical name, a
/// [`crate::schedulers::CascadeScheduler`], and a
/// [`crate::verdict::FlipCountVerdict`].
pub struct AttackBuilder {
    name: Option<String>,
    generator: Box<dyn PatternGenerator>,
    scheduler: Box<dyn Scheduler>,
    verdict: Box<dyn Verdict>,
}

impl AttackBuilder {
    /// Starts a builder from a generator.
    pub fn new(generator: impl PatternGenerator + 'static) -> Self {
        AttackBuilder {
            name: None,
            generator: Box::new(generator),
            scheduler: Box::new(crate::schedulers::CascadeScheduler),
            verdict: Box::new(crate::verdict::FlipCountVerdict),
        }
    }

    /// Starts a builder from a [`BuiltinAttack`] with its canonical
    /// scheduler pre-selected — `build()` then reproduces the
    /// hand-written attack byte-for-byte.
    pub fn from_attack<T>(attack: T) -> Self
    where
        T: BuiltinAttack + 'static,
    {
        let scheduler = attack.scheduler();
        AttackBuilder::new(attack).scheduler(scheduler)
    }

    /// Overrides the reported pattern name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the scheduler.
    pub fn scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Sets the verdict stage.
    pub fn verdict(mut self, verdict: impl Verdict + 'static) -> Self {
        self.verdict = Box::new(verdict);
        self
    }

    /// Finishes the assembly.
    pub fn build(self) -> ComposedAttack {
        ComposedAttack {
            name: self.name,
            generator: self.generator,
            scheduler: self.scheduler,
            verdict: self.verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::DoubleSided;
    use dram_sim::{Module, ModuleConfig, PhysRow};

    #[test]
    fn zero_dose_slots_are_device_noops() {
        let mut mc = MemoryController::new(Module::new(ModuleConfig::small_test(), 3));
        let before = mc.module().ref_count();
        let acts_before = mc.module().stats().activations;
        let slots = [
            Slot::Burst { row: RowAddr::new(10), acts: 0 },
            Slot::Pair { first: RowAddr::new(10), second: RowAddr::new(12), pairs: 0 },
            Slot::OtherBank { bank: Bank::new(1), row: RowAddr::new(10), acts: 0 },
        ];
        execute_slots(&mut mc, Bank::new(0), &slots).unwrap();
        assert_eq!(mc.module().ref_count(), before);
        assert_eq!(mc.module().stats().activations, acts_before);
    }

    #[test]
    fn builder_preserves_generator_identity() {
        let composed = AttackBuilder::from_attack(DoubleSided::max_rate()).build();
        assert_eq!(composed.name(), "double-sided");
        assert_eq!(composed.hammers_per_aggressor_per_ref(), 74.0);
        assert_eq!(composed.scheduler_id(), "interleave");
        assert_eq!(composed.verdict().id(), "flip-count");
        let renamed = AttackBuilder::from_attack(DoubleSided::max_rate()).named("ds-74").build();
        assert_eq!(renamed.name(), "ds-74");
    }

    #[test]
    fn composed_attack_matches_builtin_on_a_position() {
        let config = ModuleConfig::small_test();
        let builtin = DoubleSided::max_rate();
        let composed = AttackBuilder::from_attack(builtin).build();
        let eval = crate::eval::EvalConfig {
            positions: vec![PhysRow::new(400)],
            ..crate::eval::EvalConfig::quick(1)
        };
        let a = crate::eval::sweep_bank_module(Module::new(config.clone(), 9), &builtin, &eval);
        let b = crate::eval::sweep_bank_module(Module::new(config, 9), &composed, &eval);
        assert_eq!(a, b);
    }
}
