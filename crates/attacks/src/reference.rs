//! Frozen pre-refactor pattern implementations, kept as an equivalence
//! oracle.
//!
//! Before the component refactor ([`crate::components`]), every attack
//! hand-wrote its per-interval body against the device API. Those
//! bodies are preserved here verbatim, wrapped in [`Legacy`] and run
//! once per interval (no planning across intervals), so property
//! tests can assert that the generator/scheduler decomposition issues
//! the *exact same device-call sequence* — same flips, same counters —
//! for every parameterisation (the precedent is `dram-sim`'s
//! `refresh_naive` reference for the event-driven refresh path).
//!
//! Nothing in the production path uses this module.

use dram_sim::DramError;
use softmc::MemoryController;

use crate::baseline::{DoubleSided, ManySided, SingleSided};
use crate::components::{PatternGenerator, INTERVAL_BUDGET};
use crate::custom::{VendorAPattern, VendorBPattern, VendorCPattern};
use crate::half_double::HalfDouble;
use crate::pattern::{for_each_interval, AccessPattern, Between, PatternTarget};

/// Wraps an attack's parameter struct with the frozen pre-refactor
/// interval body. Reports the same name/rate/init rows as the modern
/// implementation so whole [`crate::BankSweep`]s compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Legacy<T>(pub T);

macro_rules! legacy_pattern {
    ($ty:ty, $body:expr) => {
        impl AccessPattern for Legacy<$ty> {
            fn name(&self) -> &str {
                self.0.id()
            }

            fn hammers_per_aggressor_per_ref(&self) -> f64 {
                self.0.rate_per_ref()
            }

            fn init_rows(&self, target: &PatternTarget) -> Vec<dram_sim::RowAddr> {
                self.0.seed_rows(target)
            }

            fn run_intervals(
                &self,
                mc: &mut MemoryController,
                target: &PatternTarget,
                intervals: u64,
                between: &mut Between<'_>,
            ) -> Result<(), DramError> {
                for_each_interval(mc, intervals, between, |mc, interval| {
                    #[allow(clippy::redundant_closure_call)]
                    ($body)(&self.0, mc, target, interval)
                })
            }
        }
    };
}

legacy_pattern!(SingleSided, |p: &SingleSided,
                              mc: &mut MemoryController,
                              target: &PatternTarget,
                              _interval: u64| {
    mc.module_mut().hammer(target.bank, target.aggressors[0], p.hammers)
});

legacy_pattern!(DoubleSided, |p: &DoubleSided,
                              mc: &mut MemoryController,
                              target: &PatternTarget,
                              _interval: u64| {
    match target.aggressors[..] {
        [a] => mc.module_mut().hammer(target.bank, a, p.hammers_per_aggressor),
        [a, b] => mc.module_mut().hammer_pair(target.bank, a, b, p.hammers_per_aggressor),
        _ => Ok(()),
    }
});

legacy_pattern!(ManySided, |p: &ManySided,
                            mc: &mut MemoryController,
                            target: &PatternTarget,
                            _interval: u64| {
    let mut rows = target.aggressors.clone();
    rows.extend(target.dummies.iter().copied().take((p.sides as usize).saturating_sub(rows.len())));
    for _ in 0..p.hammers_per_aggressor {
        for &row in &rows {
            mc.module_mut().hammer(target.bank, row, 1)?;
        }
    }
    Ok(())
});

legacy_pattern!(VendorAPattern, |p: &VendorAPattern,
                                 mc: &mut MemoryController,
                                 target: &PatternTarget,
                                 _interval: u64| {
    for &aggressor in &target.aggressors {
        mc.module_mut().hammer(target.bank, aggressor, p.aggressor_hammers)?;
    }
    for &dummy in target.dummies.iter().take(p.dummy_rows) {
        mc.module_mut().hammer(target.bank, dummy, p.dummy_hammers)?;
    }
    Ok(())
});

legacy_pattern!(VendorBPattern, |p: &VendorBPattern,
                                 mc: &mut MemoryController,
                                 target: &PatternTarget,
                                 interval: u64| {
    let trr_ref_next = (interval + 1).is_multiple_of(p.ratio);
    if trr_ref_next && p.ratio > 1 {
        if p.per_bank_sampler {
            let Some(&dummy) = target.dummies.first() else {
                return Ok(());
            };
            mc.module_mut().hammer(target.bank, dummy, INTERVAL_BUDGET)?;
        } else {
            for &(bank, dummy) in target.other_bank_dummies.iter().take(4) {
                mc.module_mut().hammer_overlapped(bank, dummy, p.dummy_hammers)?;
            }
        }
    } else {
        match target.aggressors[..] {
            [a] => mc.module_mut().hammer(target.bank, a, p.hammers_per_interval)?,
            [a, b] => {
                mc.module_mut().hammer_pair(target.bank, a, b, p.hammers_per_interval)?;
            }
            _ => {}
        }
    }
    Ok(())
});

legacy_pattern!(VendorCPattern, |p: &VendorCPattern,
                                 mc: &mut MemoryController,
                                 target: &PatternTarget,
                                 interval: u64| {
    let pos = interval % p.ratio;
    let consumed = pos * INTERVAL_BUDGET;
    let dummy_now = p.dummy_acts.saturating_sub(consumed).min(INTERVAL_BUDGET);
    if dummy_now > 0 {
        let Some(&dummy) = target.dummies.first() else {
            return Ok(());
        };
        mc.module_mut().hammer(target.bank, dummy, dummy_now)?;
    }
    let budget = INTERVAL_BUDGET - dummy_now;
    if budget == 0 {
        return Ok(());
    }
    match target.aggressors[..] {
        [a] => {
            mc.module_mut().hammer(target.bank, a, budget.min(p.hammers_per_interval * 2))?;
        }
        [a, b] => {
            let pairs = (budget / 2).min(p.hammers_per_interval);
            mc.module_mut().hammer_pair(target.bank, a, b, pairs)?;
        }
        _ => {}
    }
    Ok(())
});

legacy_pattern!(HalfDouble, |p: &HalfDouble,
                             mc: &mut MemoryController,
                             target: &PatternTarget,
                             _interval: u64| {
    let module = mc.module();
    let victim_phys = module.phys_of(target.victim).index();
    let rows = module.geometry().rows_per_bank;
    let (Some(far_up), far_down) = (victim_phys.checked_sub(2), victim_phys + 2) else {
        return Ok(());
    };
    if far_down >= rows {
        return Ok(());
    }
    let far_up = module.logical_of(dram_sim::PhysRow::new(far_up));
    let far_down = module.logical_of(dram_sim::PhysRow::new(far_down));
    mc.module_mut().hammer_pair(target.bank, far_up, far_down, p.far_pairs)?;
    if let [near_up, near_down] = target.aggressors[..] {
        mc.module_mut().hammer_pair(target.bank, near_up, near_down, p.near_pairs)?;
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{sweep_bank_module, EvalConfig};
    use dram_sim::{Module, ModuleConfig};

    #[test]
    fn legacy_reports_the_modern_identity() {
        let legacy = Legacy(DoubleSided::max_rate());
        assert_eq!(legacy.name(), "double-sided");
        assert_eq!(legacy.hammers_per_aggressor_per_ref(), 74.0);
    }

    #[test]
    fn legacy_and_modern_agree_on_a_smoke_sweep() {
        let config = EvalConfig { sample_count: 4, ..EvalConfig::quick(4) };
        let old = sweep_bank_module(
            Module::new(ModuleConfig::small_test(), 9),
            &Legacy(DoubleSided::max_rate()),
            &config,
        );
        let new = sweep_bank_module(
            Module::new(ModuleConfig::small_test(), 9),
            &DoubleSided::max_rate(),
            &config,
        );
        assert_eq!(old, new);
    }
}
