//! Cumulative device statistics.

/// A point-in-time snapshot of the counters accumulated over a
/// [`crate::Module`]'s lifetime. Useful for asserting experiment cost
/// envelopes and for the benchmark harness.
///
/// This is a view of the device's own tallies (see [`crate::metrics`]),
/// which [`crate::Module::stats`] materializes into this struct. It
/// counts this device's commands only, even when several modules share
/// one registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleStats {
    /// Total row activations (batched hammers count individually).
    pub activations: u64,
    /// Total `REF` commands.
    pub refreshes: u64,
    /// Rows restored by the regular (round-robin) refresh machinery.
    pub regular_row_refreshes: u64,
    /// Rows restored by TRR-induced refreshes.
    pub trr_row_refreshes: u64,
    /// TRR detections (aggressor rows acted upon).
    pub trr_detections: u64,
    /// Full-row reads.
    pub row_reads: u64,
    /// Full-row writes.
    pub row_writes: u64,
    /// Bit flips materialized (retention + RowHammer).
    pub bit_flips: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = ModuleStats::default();
        assert_eq!(s.activations, 0);
        assert_eq!(s.bit_flips, 0);
    }
}
