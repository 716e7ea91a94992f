//! Fault-tolerant device-access primitives (the self-healing layer).
//!
//! Transient faults at the device/controller boundary — in-flight read
//! bit flips, stuck reads, dropped or garbled writes (see the `faults`
//! crate) — would corrupt the retention side channel the whole
//! methodology rests on. The helpers here reconcile repeated reads into
//! a consensus readout and verify writes by reading them back.
//!
//! Every extra device command is gated on
//! [`MemoryController::faults_enabled`]: on a fault-free controller the
//! helpers degrade to exactly one read or one write, keeping command
//! traces (and therefore experiment output) bit-identical to a build
//! without this layer.

use dram_sim::{majority3_flips, Bank, DataPattern, RowAddr, RowReadout};
use softmc::MemoryController;

use crate::error::UtrrError;

/// Counter: majority-voted reads performed (fault-aware mode only).
pub const CTR_VOTED_READS: &str = "utrr.robust.voted_reads";
/// Counter: voted reads whose three samples did not all agree.
pub const CTR_READ_DISAGREEMENTS: &str = "utrr.robust.read_disagreements";
/// Counter: verified writes that needed at least one retry.
pub const CTR_WRITE_RETRIES: &str = "utrr.robust.write_retries";
/// Counter: verified writes that never read back clean within the retry
/// budget (the row is left for quarantine logic to handle).
pub const CTR_WRITE_GIVEUPS: &str = "utrr.robust.write_giveups";

/// Verified-write retry budget (first attempt included).
const WRITE_ATTEMPTS: u32 = 4;

/// Reads `row` with majority-vote redundancy when fault injection is
/// active: a bit counts as flipped only when a strict majority of the
/// samples report it. Reading a row activates (and therefore restores)
/// it, so the samples observe the same cell state and differ only
/// through in-flight faults — the majority recovers the true readout
/// unless independent faults collide on the same bit across half the
/// samples.
///
/// The vote width is 3 by default; on a hostile substrate
/// (severity ≥ 2) the recovery ladder widens it adaptively to 5 and 7
/// when the running disagreement rate shows triple redundancy is no
/// longer enough (see [`crate::recovery::note_vote`]).
///
/// With no fault injector installed this is exactly one
/// [`MemoryController::read_row`].
///
/// # Errors
///
/// Propagates device protocol errors.
pub fn read_row_voted(
    mc: &mut MemoryController,
    bank: Bank,
    row: RowAddr,
) -> Result<RowReadout, UtrrError> {
    if !mc.faults_enabled() {
        return Ok(mc.read_row(bank, row)?);
    }
    if crate::recovery::ladder_active(mc) {
        return read_row_voted_wide(mc, bank, row);
    }
    let a = mc.read_row(bank, row)?;
    let b = mc.read_row(bank, row)?;
    let c = mc.read_row(bank, row)?;
    mc.counter(CTR_VOTED_READS).inc();
    if a.flipped_bits() == b.flipped_bits() && b.flipped_bits() == c.flipped_bits() {
        return Ok(a);
    }
    mc.counter(CTR_READ_DISAGREEMENTS).inc();
    mc.registry().trace(
        obs::TraceKind::Recovery,
        mc.now().as_ns(),
        u32::from(bank.index()),
        Some(mc.module().phys_of(row).index()),
        &[],
        "read_disagreement",
    );
    let majority = majority3_flips(a.flipped_bits(), b.flipped_bits(), c.flipped_bits());
    Ok(a.with_flips(majority))
}

/// The adaptive-width vote of the hostile recovery ladder: N samples
/// (N = current ladder width), a bit is flipped iff a strict majority
/// of the samples report it, and every vote feeds the disagreement-rate
/// window that drives 3→5→7 widening.
fn read_row_voted_wide(
    mc: &mut MemoryController,
    bank: Bank,
    row: RowAddr,
) -> Result<RowReadout, UtrrError> {
    let width = crate::recovery::vote_width(mc);
    let mut samples = Vec::with_capacity(usize::from(width));
    for _ in 0..width {
        samples.push(mc.read_row(bank, row)?);
    }
    mc.counter(CTR_VOTED_READS).inc();
    let unanimous = samples.windows(2).all(|pair| pair[0].flipped_bits() == pair[1].flipped_bits());
    crate::recovery::note_vote(mc, bank, row, !unanimous);
    if unanimous {
        return Ok(samples.swap_remove(0));
    }
    mc.counter(CTR_READ_DISAGREEMENTS).inc();
    mc.registry().trace(
        obs::TraceKind::Recovery,
        mc.now().as_ns(),
        u32::from(bank.index()),
        Some(mc.module().phys_of(row).index()),
        &[("width", u64::from(width))],
        "read_disagreement",
    );
    // Strict-majority merge: count each reported bit across the sorted
    // per-sample flip lists (BTreeMap keeps the merged list ordered).
    let mut counts = std::collections::BTreeMap::new();
    for sample in &samples {
        for &bit in sample.flipped_bits() {
            *counts.entry(bit).or_insert(0u32) += 1;
        }
    }
    let majority: Vec<u32> = counts
        .into_iter()
        .filter(|&(_, n)| u64::from(n) * 2 > u64::from(width))
        .map(|(bit, _)| bit)
        .collect();
    Ok(samples.swap_remove(0).with_flips(majority))
}

/// Writes `pattern` into `row` and, when fault injection is active,
/// reads it back (majority-voted) to confirm the write landed; dropped
/// or garbled writes are retried up to a bounded number of attempts.
///
/// Returns `Ok(true)` when the row verifiably holds the pattern (always
/// the case fault-free, where this is exactly one
/// [`MemoryController::write_row`]) and `Ok(false)` when the retry
/// budget ran out — callers decide whether that quarantines the row.
///
/// # Errors
///
/// Propagates device protocol errors.
pub fn write_row_checked(
    mc: &mut MemoryController,
    bank: Bank,
    row: RowAddr,
    pattern: &DataPattern,
) -> Result<bool, UtrrError> {
    if !mc.faults_enabled() {
        mc.write_row(bank, row, pattern.clone())?;
        return Ok(true);
    }
    for attempt in 0..WRITE_ATTEMPTS {
        mc.write_row(bank, row, pattern.clone())?;
        let back = read_row_voted(mc, bank, row)?;
        if back.pattern() == pattern && back.is_clean() {
            return Ok(true);
        }
        if attempt + 1 < WRITE_ATTEMPTS {
            mc.counter(CTR_WRITE_RETRIES).inc();
            mc.registry().trace(
                obs::TraceKind::Recovery,
                mc.now().as_ns(),
                u32::from(bank.index()),
                Some(mc.module().phys_of(row).index()),
                &[("attempt", u64::from(attempt + 1))],
                "write_retry",
            );
        }
    }
    mc.counter(CTR_WRITE_GIVEUPS).inc();
    mc.registry().trace(
        obs::TraceKind::Recovery,
        mc.now().as_ns(),
        u32::from(bank.index()),
        Some(mc.module().phys_of(row).index()),
        &[("attempts", u64::from(WRITE_ATTEMPTS))],
        "write_giveup",
    );
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{Module, ModuleConfig, Nanos};
    use softmc::{FaultInjector, WriteFault};

    const BANK: Bank = Bank::new(0);

    /// Deterministic injector: corrupts every read until `reads_clean_after`
    /// reads have happened, and drops the first `drop_writes` writes.
    #[derive(Debug)]
    struct Scripted {
        flip_reads: u32,
        drop_writes: u32,
        reads: u32,
        writes: u32,
    }

    impl FaultInjector for Scripted {
        fn on_read(&mut self, _bank: Bank, _row: RowAddr, readout: &mut RowReadout, _now: Nanos) {
            self.reads += 1;
            if self.flip_reads > 0 {
                self.flip_reads -= 1;
                // Corrupt a different bit per read: no two samples agree.
                readout.inject_flip(self.reads % readout.row_bits());
            }
        }

        fn on_write(
            &mut self,
            _bank: Bank,
            _row: RowAddr,
            _pattern: &DataPattern,
            _now: Nanos,
        ) -> WriteFault {
            self.writes += 1;
            if self.drop_writes > 0 {
                self.drop_writes -= 1;
                WriteFault::Dropped
            } else {
                WriteFault::None
            }
        }

        fn on_tick(&mut self, _now: Nanos, _module: &mut Module) {}
    }

    fn controller() -> MemoryController {
        MemoryController::new(Module::new(ModuleConfig::small_test(), 7))
    }

    #[test]
    fn fault_free_paths_issue_single_commands() {
        let mut mc = controller();
        let row = RowAddr::new(5);
        assert!(write_row_checked(&mut mc, BANK, row, &DataPattern::Ones).unwrap());
        let reads_before = mc.module().stats().row_reads;
        let readout = read_row_voted(&mut mc, BANK, row).unwrap();
        assert!(readout.is_clean());
        assert_eq!(mc.module().stats().row_reads, reads_before + 1);
        assert_eq!(mc.registry().counter(CTR_VOTED_READS).get(), 0);
    }

    #[test]
    fn voted_read_filters_uncorrelated_flips() {
        let mut mc = controller();
        let row = RowAddr::new(5);
        mc.write_row(BANK, row, DataPattern::Ones).unwrap();
        mc.set_fault_injector(Some(Box::new(Scripted {
            flip_reads: u32::MAX,
            drop_writes: 0,
            reads: 0,
            writes: 0,
        })));
        let readout = read_row_voted(&mut mc, BANK, row).unwrap();
        assert!(readout.is_clean(), "one corrupt bit per sample never reaches majority");
        assert_eq!(mc.registry().counter(CTR_READ_DISAGREEMENTS).get(), 1);
    }

    #[test]
    fn checked_write_retries_through_dropped_writes() {
        let mut mc = controller();
        // A dropped re-write is only observable when the stale contents
        // are dirty, so pick a row guaranteed to decay within the wait.
        let row = (0..256u32)
            .map(RowAddr::new)
            .find(|&r| {
                let view = mc.module_mut().inspect_row(BANK, r);
                view.weak_cells.iter().any(|&(_, ret, vrt)| !vrt && ret < Nanos::from_ms(1_500))
            })
            .expect("small_test banks have fast-decaying rows");
        mc.write_row(BANK, row, DataPattern::Zeros).unwrap();
        // Decay the row so a dropped re-write is observable as dirt.
        mc.wait_no_refresh(Nanos::from_ms(2_000));
        mc.set_fault_injector(Some(Box::new(Scripted {
            flip_reads: 0,
            drop_writes: 2,
            reads: 0,
            writes: 0,
        })));
        assert!(write_row_checked(&mut mc, BANK, row, &DataPattern::Zeros).unwrap());
        assert!(mc.registry().counter(CTR_WRITE_RETRIES).get() >= 1);
        mc.set_fault_injector(None);
        assert!(mc.read_row(BANK, row).unwrap().is_clean());
    }
}
