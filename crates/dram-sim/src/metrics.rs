//! The device's bridge into the workspace [`obs`] instrumentation layer.
//!
//! Every [`crate::Module`] owns a [`DeviceMetrics`]: one owned
//! [`Tally`] per `dram.*` counter, resolved once against a
//! [`MetricsRegistry`], so the per-command hot path increments plain
//! fields — no atomics, no name lookups, no locks. Modules start with a
//! private registry (keeping unit tests isolated); callers that want one
//! artifact per run attach a shared registry via
//! [`crate::Module::attach_registry`].
//!
//! # Publish-on-drop
//!
//! A device publishes its counts into the registry when it is dropped,
//! or when its owner calls [`crate::Module::flush_metrics`]; until then
//! the registry's `dram.*` counters do not include them. Totals are
//! sums, so a registry shared by many workers reads the same totals at
//! any thread count, and workers never contend on a counter's cache
//! line. Code that needs a device's own counts while it runs reads
//! [`crate::Module::stats`], which never depends on other devices
//! sharing the registry.

use std::sync::Arc;

use obs::{MetricsRegistry, Tally, TraceKind};

use crate::stats::ModuleStats;

/// Counter name for row activations (`ACT`), batched hammers included.
pub const CTR_ACT: &str = "dram.cmd.act";
/// Counter name for precharges (`PRE`).
pub const CTR_PRE: &str = "dram.cmd.pre";
/// Counter name for `REF` commands.
pub const CTR_REF: &str = "dram.cmd.ref";
/// Counter name for full-row reads.
pub const CTR_ROW_READS: &str = "dram.row.reads";
/// Counter name for full-row writes.
pub const CTR_ROW_WRITES: &str = "dram.row.writes";
/// Counter name for rows restored by the regular refresh machinery.
pub const CTR_REGULAR_ROW_REFRESHES: &str = "dram.rows.regular_refresh";
/// Counter name for rows restored by TRR-induced refreshes.
pub const CTR_TRR_ROW_REFRESHES: &str = "dram.rows.trr_refresh";
/// Counter name for TRR detections.
pub const CTR_TRR_DETECTIONS: &str = "dram.trr.detections";
/// Counter name for materialized bit flips.
pub const CTR_BIT_FLIPS: &str = "dram.bit_flips";

/// Event kind emitted when a restore materializes bit flips.
pub const EVT_BIT_FLIP: &str = "dram.bit_flip";
/// Event kind emitted per TRR detection acted on.
pub const EVT_TRR_DETECTION: &str = "dram.trr.detection";

/// One device's owned counts and its registry (see the
/// [module docs](self) for when the registry sees the counts).
#[derive(Debug)]
pub struct DeviceMetrics {
    registry: Arc<MetricsRegistry>,
    /// `ACT` count (see [`CTR_ACT`]).
    pub act: Tally,
    /// `PRE` count (see [`CTR_PRE`]).
    pub pre: Tally,
    /// `REF` count (see [`CTR_REF`]).
    pub refresh: Tally,
    /// Row-read count (see [`CTR_ROW_READS`]).
    pub row_reads: Tally,
    /// Row-write count (see [`CTR_ROW_WRITES`]).
    pub row_writes: Tally,
    /// Regular-refresh restore count (see [`CTR_REGULAR_ROW_REFRESHES`]).
    pub regular_row_refreshes: Tally,
    /// TRR-induced restore count (see [`CTR_TRR_ROW_REFRESHES`]).
    pub trr_row_refreshes: Tally,
    /// TRR detection count (see [`CTR_TRR_DETECTIONS`]).
    pub trr_detections: Tally,
    /// Bit-flip count (see [`CTR_BIT_FLIPS`]).
    pub bit_flips: Tally,
    /// This device's events that overflowed the registry's full event
    /// buffer.
    events_dropped: Tally,
}

impl DeviceMetrics {
    /// Resolves all tallies against `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        DeviceMetrics {
            act: registry.tally(CTR_ACT),
            pre: registry.tally(CTR_PRE),
            refresh: registry.tally(CTR_REF),
            row_reads: registry.tally(CTR_ROW_READS),
            row_writes: registry.tally(CTR_ROW_WRITES),
            regular_row_refreshes: registry.tally(CTR_REGULAR_ROW_REFRESHES),
            trr_row_refreshes: registry.tally(CTR_TRR_ROW_REFRESHES),
            trr_detections: registry.tally(CTR_TRR_DETECTIONS),
            bit_flips: registry.tally(CTR_BIT_FLIPS),
            events_dropped: Tally::new(registry.events_dropped_counter()),
            registry,
        }
    }

    /// A private per-device registry (detail off): the default for
    /// modules constructed without an explicit registry.
    pub fn private() -> Self {
        DeviceMetrics::new(Arc::new(MetricsRegistry::new()))
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Publishes every count accrued since the last flush into the
    /// registry. Dropping the metrics does the same.
    pub fn flush(&mut self) {
        for tally in [
            &mut self.act,
            &mut self.pre,
            &mut self.refresh,
            &mut self.row_reads,
            &mut self.row_writes,
            &mut self.regular_row_refreshes,
            &mut self.trr_row_refreshes,
            &mut self.trr_detections,
            &mut self.bit_flips,
            &mut self.events_dropped,
        ] {
            tally.flush();
        }
    }

    /// Records an event (no-op unless the registry's detail is on); an
    /// event the full buffer cannot hold is counted as this device's
    /// drop.
    #[inline]
    pub fn event(&mut self, kind: &'static str, t_sim: u64, fields: &[(&'static str, u64)]) {
        if !self.registry.try_event(kind, t_sim, fields) {
            self.events_dropped.inc();
        }
    }

    /// Whether a flight recorder is attached (one relaxed load).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.registry.tracing_enabled()
    }

    /// Emits a flight-recorder trace event (no-op unless tracing is
    /// on; see [`MetricsRegistry::trace`]).
    #[inline]
    pub fn trace(
        &self,
        kind: TraceKind,
        t_sim: u64,
        bank: u32,
        row: Option<u32>,
        fields: &[(&str, u64)],
        detail: &str,
    ) -> Option<u64> {
        self.registry.trace(kind, t_sim, bank, row, fields, detail)
    }

    /// The classic [`ModuleStats`] view over this device's own counts.
    pub fn stats_view(&self) -> ModuleStats {
        ModuleStats {
            activations: self.act.get(),
            refreshes: self.refresh.get(),
            regular_row_refreshes: self.regular_row_refreshes.get(),
            trr_row_refreshes: self.trr_row_refreshes.get(),
            trr_detections: self.trr_detections.get(),
            row_reads: self.row_reads.get(),
            row_writes: self.row_writes.get(),
            bit_flips: self.bit_flips.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_view_reads_own_counts_and_drop_publishes_them() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut metrics = DeviceMetrics::new(Arc::clone(&registry));
        metrics.act.add(11);
        metrics.bit_flips.add(3);
        let stats = metrics.stats_view();
        assert_eq!(stats.activations, 11);
        assert_eq!(stats.bit_flips, 3);
        assert_eq!(stats.refreshes, 0);
        drop(metrics);
        assert_eq!(registry.counter(CTR_ACT).get(), 11);
        assert_eq!(registry.counter(CTR_BIT_FLIPS).get(), 3);
    }

    #[test]
    fn two_devices_can_share_one_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut a = DeviceMetrics::new(Arc::clone(&registry));
        let mut b = DeviceMetrics::new(Arc::clone(&registry));
        a.act.add(2);
        b.act.add(3);
        assert_eq!(a.stats_view().activations, 2, "a device sees only its own ACTs");
        assert_eq!(b.stats_view().activations, 3);
        a.flush();
        b.flush();
        assert_eq!(registry.counter(CTR_ACT).get(), 5);
        drop((a, b));
        assert_eq!(registry.counter(CTR_ACT).get(), 5, "a drop after a flush adds nothing");
    }
}
