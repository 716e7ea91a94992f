//! Named counters, gauges, log₂-binned histograms, and events.
//!
//! Handles returned by the registry are cheap `Arc` clones over atomic
//! cells, so no handle takes the registry lock after it is resolved.
//! Lock-free is not contention-free: every worker that bumps the same
//! shared [`Counter`] fights over one cache line, and on a per-command
//! hot path that costs more than a second worker gains. Hot paths
//! therefore count in an owned [`Tally`] — a plain `u64` field — and
//! publish the total into the shared counter once, on
//! [`Tally::flush`] or drop.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::span::{SpanCollector, SpanGuard, SpanRecord};
use crate::trace::{FlightRecorder, TraceKind};

/// Number of histogram bins: bin 0 holds zeros, bin `b ≥ 1` holds
/// values in `[2^(b-1), 2^b)`, up to bin 64 for the top of the u64
/// range.
pub const BIN_COUNT: usize = 65;

/// Cap on buffered [`EventRecord`]s; later events are counted as
/// dropped rather than stored.
const EVENT_CAPACITY: usize = 65_536;

/// The bin a value falls into (log₂ binning).
#[inline]
pub fn bin_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Smallest value belonging to a bin.
#[inline]
pub fn bin_lower_bound(bin: usize) -> u64 {
    if bin == 0 {
        0
    } else {
        1u64 << (bin - 1)
    }
}

/// Largest value belonging to a bin.
#[inline]
pub fn bin_upper_bound(bin: usize) -> u64 {
    if bin == 0 {
        0
    } else if bin >= 64 {
        u64::MAX
    } else {
        (1u64 << bin) - 1
    }
}

/// A monotonically increasing named count.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An owned, single-writer count that publishes into a registry
/// [`Counter`].
///
/// A `Tally` counts in a plain field: incrementing it touches no
/// atomic and no shared cache line. [`Tally::flush`], and dropping the
/// tally, add the count accrued since the last publish to the counter
/// it was resolved from. Counter totals are sums, and sums do not
/// depend on the order the owners publish in, so a registry shared by
/// many workers reads the same totals at any thread count. Until its
/// owner flushes or drops it, the registry does not see the count.
///
/// A default `Tally` publishes into a detached counter nobody reads.
#[derive(Debug, Default)]
pub struct Tally {
    target: Counter,
    total: u64,
    published: u64,
}

impl Tally {
    /// A zero tally publishing into `target`.
    pub fn new(target: Counter) -> Self {
        Tally { target, total: 0, published: 0 }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.total += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.total += n;
    }

    /// Everything this tally has counted, published or not.
    #[inline]
    pub fn get(&self) -> u64 {
        self.total
    }

    /// Publishes the count accrued since the last publish.
    pub fn flush(&mut self) {
        let delta = self.total - self.published;
        if delta > 0 {
            self.target.add(delta);
            self.published = self.total;
        }
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A named last-written value.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Raises the value to `candidate` if larger.
    #[inline]
    pub fn set_max(&self, candidate: u64) {
        self.cell.fetch_max(candidate, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    bins: [AtomicU64; BIN_COUNT],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A named log₂-binned value distribution.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of the same value in O(1) — used by the
    /// simulator's batched command paths so a 5 000-activation hammer
    /// costs one update, not 5 000.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        // The device hot paths record one histogram observation per
        // command, so every atomic here is paid millions of times per
        // run. The total count is derivable from the bins (each record
        // lands in exactly one), and min/max stabilize after the first
        // few observations — a relaxed load screens out the RMW in the
        // overwhelmingly common no-change case. Net: two RMWs per
        // record instead of five.
        let core = &*self.core;
        core.bins[bin_index(value)].fetch_add(n, Ordering::Relaxed);
        core.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
        if core.min.load(Ordering::Relaxed) > value {
            core.min.fetch_min(value, Ordering::Relaxed);
        }
        if core.max.load(Ordering::Relaxed) < value {
            core.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.core;
        let bins: [u64; BIN_COUNT] = std::array::from_fn(|b| core.bins[b].load(Ordering::Relaxed));
        HistogramSnapshot {
            count: bins.iter().sum(),
            bins,
            sum: core.sum.load(Ordering::Relaxed),
            min: core.min.load(Ordering::Relaxed),
            max: core.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state, supporting quantile
/// estimation and merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bin observation counts (see [`bin_index`]).
    pub bins: [u64; BIN_COUNT],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping).
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { bins: [0; BIN_COUNT], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`). The estimate is the
    /// upper bound of the bin containing the true quantile, clamped to
    /// the observed min/max — so it is off by at most one bin.
    /// Returns `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // The extremes are known exactly — q=0 must be the observed
        // min (rank clamping below would otherwise land it in the
        // first non-empty bin's *upper* bound) and q=1 the observed
        // max.
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        // The rank of the target observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bin, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bin_upper_bound(bin).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Combines two snapshots, as if every observation of both had been
    /// recorded into one histogram.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            bins: std::array::from_fn(|b| self.bins[b] + other.bins[b]),
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

/// Most coordinate fields an [`EventRecord`] carries inline.
pub const EVENT_FIELDS: usize = 3;

/// A rare, high-value moment: a bit flip, a TRR detection. Timestamped
/// in simulated nanoseconds with up to [`EVENT_FIELDS`] integer
/// coordinate fields. Fixed-size and `Copy`: buffering one allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Simulated time of the event, in nanoseconds.
    pub t_sim: u64,
    /// Event kind, dotted-path style (`"dram.bit_flip"`).
    pub kind: &'static str,
    fields: [(&'static str, u64); EVENT_FIELDS],
    len: u8,
}

impl EventRecord {
    /// An event with the first [`EVENT_FIELDS`] of `fields`.
    pub(crate) fn new(kind: &'static str, t_sim: u64, fields: &[(&'static str, u64)]) -> Self {
        debug_assert!(fields.len() <= EVENT_FIELDS, "event {kind} has too many fields");
        let len = fields.len().min(EVENT_FIELDS);
        let mut inline = [("", 0); EVENT_FIELDS];
        inline[..len].copy_from_slice(&fields[..len]);
        EventRecord { t_sim, kind, fields: inline, len: len as u8 }
    }

    /// Coordinates and attributes (`("bank", 1), ("row", 4242)`, …).
    pub fn fields(&self) -> &[(&'static str, u64)] {
        &self.fields[..usize::from(self.len)]
    }
}

#[derive(Debug, Default)]
struct EventBuffer {
    events: Vec<EventRecord>,
}

/// Full-capacity event buffers of dropped registries, cleared, for the
/// next registry that stores an event.
///
/// A buffer is reserved whole, once, when its registry stores its first
/// event — one allocation instead of ~16 doublings, each a copy that
/// leaves the previous chunk behind. That first event comes from
/// whichever worker thread gets there first, so successive run
/// registries would reserve in different allocator arenas, and a freed
/// buffer's memory would not serve the next one: peak memory would grow
/// with the number of runs a process makes. Recycling the buffers here
/// bounds it by the number of registries alive at once.
static SPARE_EVENT_BUFFERS: Mutex<Vec<Vec<EventRecord>>> = Mutex::new(Vec::new());

impl EventBuffer {
    /// An empty buffer with room for [`EVENT_CAPACITY`] events.
    fn reserve() -> Vec<EventRecord> {
        let spare = SPARE_EVENT_BUFFERS.lock().ok().and_then(|mut spare| spare.pop());
        spare.unwrap_or_else(|| Vec::with_capacity(EVENT_CAPACITY))
    }
}

impl Drop for EventBuffer {
    fn drop(&mut self) {
        if self.events.capacity() != EVENT_CAPACITY {
            return;
        }
        // A poisoned list just stops recycling; a drop must not panic.
        if let Ok(mut spare) = SPARE_EVENT_BUFFERS.lock() {
            let mut events = std::mem::take(&mut self.events);
            events.clear();
            spare.push(events);
        }
    }
}

/// The central sink all layers report into.
///
/// Construction is cheap; the simulator gives every `Module` a private
/// registry by default so unit tests stay isolated, and callers that
/// want one artifact per run share a single `Arc<MetricsRegistry>`
/// across modules, controllers, and methodology passes.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    events: Mutex<EventBuffer>,
    /// Relaxed mirror of the event buffer's fill level, maintained under
    /// the buffer lock, so that `event()` skips the mutex once the
    /// buffer is full.
    events_full: AtomicBool,
    /// Events that overflowed the full buffer. Its own allocation, off
    /// the cache line of the flags every command reads; devices count
    /// their drops in a [`Tally`] over it.
    events_dropped: Counter,
    spans: SpanCollector,
    detail: AtomicBool,
    recorder: OnceLock<Arc<FlightRecorder>>,
    tracing: AtomicBool,
}

impl MetricsRegistry {
    /// An empty registry with event recording **off**.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty shared registry with event recording **on** — the
    /// constructor run artifacts use.
    pub fn shared() -> Arc<Self> {
        let registry = Self::new();
        registry.set_detail(true);
        Arc::new(registry)
    }

    /// Whether events should be recorded. Counters, gauges, histograms
    /// and spans are always live; [`Self::event`] consults this flag
    /// first, so a detail-off registry stores no events.
    #[inline]
    pub fn detail_enabled(&self) -> bool {
        self.detail.load(Ordering::Relaxed)
    }

    /// Turns event recording on or off.
    pub fn set_detail(&self, enabled: bool) {
        self.detail.store(enabled, Ordering::Relaxed);
    }

    /// The counter registered under `name`, creating it at zero on
    /// first use. The handle is lock-free; keep it around rather than
    /// re-looking it up in a loop.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap();
        if let Some(counter) = map.get(name) {
            return counter.clone();
        }
        map.entry(name.to_string()).or_default().clone()
    }

    /// An owned [`Tally`] publishing into the counter `name` (created
    /// at zero on first use, so it lists in snapshots before the first
    /// publish).
    pub fn tally(&self, name: &str) -> Tally {
        Tally::new(self.counter(name))
    }

    /// The gauge registered under `name` (see [`Self::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram registered under `name` (see [`Self::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Records an event if detail is enabled and the buffer has room;
    /// overflow is tallied, not stored.
    pub fn event(&self, kind: &'static str, t_sim: u64, fields: &[(&'static str, u64)]) {
        if !self.try_event(kind, t_sim, fields) {
            self.events_dropped.inc();
        }
    }

    /// [`Self::event`] without the drop tally: returns `false` when the
    /// event overflowed the full buffer, leaving the caller to count the
    /// drop (see [`Self::events_dropped_counter`]). Returns `true` when
    /// the event was stored or detail is off.
    #[inline]
    pub fn try_event(
        &self,
        kind: &'static str,
        t_sim: u64,
        fields: &[(&'static str, u64)],
    ) -> bool {
        if !self.detail_enabled() {
            return true;
        }
        if self.events_full.load(Ordering::Relaxed) {
            return false;
        }
        let mut buffer = self.events.lock().unwrap();
        if buffer.events.len() >= EVENT_CAPACITY {
            self.events_full.store(true, Ordering::Relaxed);
            return false;
        }
        if buffer.events.capacity() == 0 {
            buffer.events = EventBuffer::reserve();
        }
        buffer.events.push(EventRecord::new(kind, t_sim, fields));
        if buffer.events.len() >= EVENT_CAPACITY {
            self.events_full.store(true, Ordering::Relaxed);
        }
        true
    }

    /// The counter of events that overflowed the buffer, for callers
    /// that tally their drops from [`Self::try_event`].
    pub fn events_dropped_counter(&self) -> Counter {
        self.events_dropped.clone()
    }

    /// Installs a flight recorder and arms the tracing fast-gate.
    /// Returns `false` (leaving the existing recorder in place) if one
    /// was already installed.
    pub fn install_recorder(&self, recorder: Arc<FlightRecorder>) -> bool {
        let installed = self.recorder.set(recorder).is_ok();
        if installed {
            self.tracing.store(true, Ordering::Relaxed);
        }
        installed
    }

    /// Whether a flight recorder is installed. The hot-path gate: one
    /// relaxed load, false for every run without `--trace-out`, so
    /// tracing-off is a no-op.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.get()
    }

    /// Records a trace event (see [`FlightRecorder::record`]); returns
    /// the event ID, or `None` when tracing is off or the row filter
    /// rejects it.
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
        if !self.tracing_enabled() {
            return None;
        }
        self.recorder.get()?.record(kind, t_sim, bank, row, fields, detail)
    }

    /// [`MetricsRegistry::trace`] plus evidence links.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn trace_with_evidence(
        &self,
        kind: TraceKind,
        t_sim: u64,
        bank: u32,
        row: Option<u32>,
        fields: &[(&str, u64)],
        detail: &str,
        evidence: &[u64],
    ) -> Option<u64> {
        if !self.tracing_enabled() {
            return None;
        }
        self.recorder.get()?.record_with_evidence(kind, t_sim, bank, row, fields, detail, evidence)
    }

    /// Opens a span named `name` at simulated time `sim_now`; the
    /// parent is the innermost span still open on this thread. Prefer
    /// the [`crate::span!`] macro, which also attaches fields.
    pub fn span(self: &Arc<Self>, name: &str, sim_now: u64) -> SpanGuard {
        SpanGuard::open(Arc::clone(self), name, sim_now)
    }

    /// The span collector (used by [`SpanGuard`]).
    pub(crate) fn span_collector(&self) -> &SpanCollector {
        &self.spans
    }

    /// All counters, sorted by name.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.counters.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// All gauges, sorted by name.
    pub fn gauges_snapshot(&self) -> Vec<(String, u64)> {
        self.gauges.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// All histograms, sorted by name.
    pub fn histograms_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }

    /// Buffered events in arrival order, plus how many overflowed.
    pub fn events_snapshot(&self) -> (Vec<EventRecord>, u64) {
        let buffer = self.events.lock().unwrap();
        (buffer.events.clone(), self.events_dropped.get())
    }

    /// Closed spans in completion order, plus how many the ring
    /// evicted.
    pub fn spans_snapshot(&self) -> (Vec<SpanRecord>, u64) {
        self.spans.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(registry.counter("x").get(), 4);
        assert_eq!(registry.counters_snapshot(), vec![("x".to_string(), 4)]);
    }

    #[test]
    fn gauge_set_and_max() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("depth");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn events_respect_detail_flag() {
        let registry = MetricsRegistry::new();
        registry.event("dram.bit_flip", 10, &[("bank", 1)]);
        assert_eq!(registry.events_snapshot().0.len(), 0);
        registry.set_detail(true);
        registry.event("dram.bit_flip", 10, &[("bank", 1), ("row", 42)]);
        let (events, dropped) = registry.events_snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "dram.bit_flip");
        assert_eq!(events[0].fields(), &[("bank", 1), ("row", 42)]);
    }

    #[test]
    fn recycled_event_buffers_start_empty() {
        for round in 0..4 {
            let registry = MetricsRegistry::shared();
            for t in 0..=round {
                registry.event("dram.bit_flip", t, &[("round", round)]);
            }
            let (events, _) = registry.events_snapshot();
            assert_eq!(events.len() as u64, round + 1, "round {round} sees only its own events");
            assert!(events.iter().all(|e| e.fields() == [("round", round)]));
            assert_eq!(registry.events.lock().unwrap().events.capacity(), EVENT_CAPACITY);
        }
    }

    #[test]
    fn tally_publishes_its_delta_on_flush_and_drop() {
        let registry = MetricsRegistry::new();
        let mut tally = registry.tally("x");
        tally.add(3);
        tally.inc();
        assert_eq!(tally.get(), 4);
        assert_eq!(registry.counters_snapshot(), vec![("x".to_string(), 0)]);
        tally.flush();
        assert_eq!(registry.counter("x").get(), 4);
        tally.flush();
        assert_eq!(registry.counter("x").get(), 4, "a second flush publishes nothing");
        tally.add(2);
        drop(tally);
        assert_eq!(registry.counter("x").get(), 6);
    }

    #[test]
    fn event_overflow_is_counted_by_whoever_owns_the_drop() {
        let registry = MetricsRegistry::shared();
        for t in 0..EVENT_CAPACITY as u64 {
            assert!(registry.try_event("e", t, &[]));
        }
        assert!(!registry.try_event("e", 0, &[]), "the caller owns this drop");
        registry.event("e", 0, &[("bank", 1)]);
        let mut owned = Tally::new(registry.events_dropped_counter());
        owned.add(5);
        drop(owned);
        let (events, dropped) = registry.events_snapshot();
        assert_eq!(events.len(), EVENT_CAPACITY);
        assert_eq!(dropped, 6);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let snapshot = HistogramSnapshot::default();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(snapshot.quantile(q), None);
        }
    }

    #[test]
    fn quantile_extremes_return_observed_min_and_max() {
        let h = Histogram::default();
        // All mass inside one log₂ bin ([64, 128)), min != max.
        h.record(70);
        h.record(100);
        h.record(120);
        let snapshot = h.snapshot();
        assert_eq!(snapshot.quantile(0.0), Some(70));
        assert_eq!(snapshot.quantile(1.0), Some(120));
        assert_eq!(snapshot.quantile(-0.5), Some(70));
        assert_eq!(snapshot.quantile(2.0), Some(120));
        // Interior quantiles stay within [min, max] for single-bin mass.
        let p50 = snapshot.quantile(0.5).unwrap();
        assert!((70..=120).contains(&p50), "p50={p50}");
    }

    #[test]
    fn quantile_single_observation_is_that_observation() {
        let h = Histogram::default();
        h.record(42);
        let snapshot = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(snapshot.quantile(q), Some(42), "q={q}");
        }
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let h = Histogram::default();
        for v in [0u64, 1, 3, 9, 100, 5_000, 1 << 40] {
            h.record(v);
        }
        let snapshot = h.snapshot();
        let mut last = 0u64;
        for i in 0..=100 {
            let q = f64::from(i) / 100.0;
            let value = snapshot.quantile(q).unwrap();
            assert!(value >= last, "quantile not monotone at q={q}");
            last = value;
        }
        assert_eq!(snapshot.quantile(0.0), Some(0));
        assert_eq!(snapshot.quantile(1.0), Some(1 << 40));
    }

    #[test]
    fn tracing_is_off_until_a_recorder_is_installed() {
        use crate::trace::{FlightRecorder, TraceFilter, TraceKind};
        let registry = MetricsRegistry::new();
        assert!(!registry.tracing_enabled());
        assert_eq!(registry.trace(TraceKind::Act, 0, 0, Some(1), &[], ""), None);
        let recorder = Arc::new(FlightRecorder::new(16, TraceFilter::all()));
        assert!(registry.install_recorder(Arc::clone(&recorder)));
        assert!(registry.tracing_enabled());
        assert_eq!(registry.trace(TraceKind::Act, 5, 0, Some(1), &[("n", 2)], ""), Some(1));
        assert_eq!(recorder.len(), 1);
        // Second install is rejected; first recorder keeps receiving.
        assert!(!registry.install_recorder(Arc::new(FlightRecorder::unfiltered())));
        registry.trace(TraceKind::Ref, 6, 0, None, &[], "");
        assert_eq!(recorder.len(), 2);
    }

    #[test]
    fn counters_are_safe_under_parallel_writers() {
        let registry = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    let c = registry.counter("shared");
                    let h = registry.histogram("h");
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 128);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(registry.counter("shared").get(), 40_000);
        assert_eq!(registry.histogram("h").snapshot().count, 40_000);
    }
}
