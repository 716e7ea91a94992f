//! Vendor A's counter-based TRR (§6.1 of the paper).
//!
//! Reverse-engineered behaviour reproduced here, by observation number:
//!
//! * **A1** — only every 9th `REF` performs a TRR-induced refresh.
//! * **A2** — A_TRR1 refreshes the four physically closest rows (±1, ±2);
//!   A_TRR2 refreshes two (±1).
//! * **A3** — two alternating TRR refresh types: `TREF_a` detects the
//!   table entry with the highest counter value; `TREF_b` walks the table
//!   slots with a pointer, detecting one entry per instance.
//! * **A4** — a per-bank table tracks activation counts for 16 rows.
//! * **A5** — inserting a new row evicts an existing entry. The paper
//!   infers "the entry with the smallest counter value" from an
//!   experiment in which one row is hammered 50 times *first* and 16
//!   rows 100 times each *afterwards* — an experiment that cannot
//!   distinguish smallest-count from least-recently-used eviction,
//!   because the low-count row is also the least recent. We implement
//!   **LRU eviction with per-entry activation counters**, which is the
//!   only policy also consistent with the §7.1 attack: hammering 16
//!   dummy rows after the aggressors flushes a 16-slot LRU regardless of
//!   the aggressors' counter values, and the Fig. 8 optimum of ~26
//!   hammers per aggressor falls out of the REF-interval budget
//!   arithmetic ((149 − 16·6) / 2 = 26). Under smallest-count eviction
//!   the 6-hammer dummies could never displace 24-hammer aggressors and
//!   the paper's attack could not work.
//! * **A6** — detection resets the detected entry's counter to zero.
//! * **A7** — entries persist until evicted; `TREF_b` keeps re-detecting
//!   a stale entry every 16th instance because slots are stable.

use std::fmt;

use dram_sim::{Bank, MitigationEngine, Nanos, NeighborSpan, PhysRow, TrrDetection};

/// Configuration of a [`CounterTrr`] engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterTrrConfig {
    /// Counter-table entries per bank (Observation A4: 16).
    pub table_size: usize,
    /// Every `trr_ref_interval`-th `REF` is TRR-capable (Observation A1: 9).
    pub trr_ref_interval: u64,
    /// Neighbours refreshed per detection (Observation A2).
    pub span: NeighborSpan,
}

impl CounterTrrConfig {
    /// A_TRR1: 16 entries, every 9th REF, ±1 and ±2 victims.
    pub const fn a_trr1() -> Self {
        CounterTrrConfig { table_size: 16, trr_ref_interval: 9, span: NeighborSpan::Two }
    }

    /// A_TRR2: like A_TRR1 but only the immediate neighbours (±1).
    pub const fn a_trr2() -> Self {
        CounterTrrConfig { table_size: 16, trr_ref_interval: 9, span: NeighborSpan::One }
    }
}

/// Per-bank table state: fixed slots so the `TREF_b` pointer walk is
/// stable under replacement.
///
/// Struct-of-arrays: slot `i` is `(rows[i], counts[i], last_used[i])`.
/// Slots fill in order and never empty again (only a reset rebuilds
/// the table), so the occupied slots are exactly `0..rows.len()` and
/// "the first empty slot" is always slot `rows.len()`. Lookups and the
/// `TREF_a` and LRU scans therefore run over plain arrays with no
/// occupancy test, branch-free over the whole occupied prefix.
#[derive(Debug, Clone, Default)]
struct BankTable {
    rows: Vec<u32>,
    counts: Vec<u64>,
    /// Activation sequence number of each row's most recent
    /// activation, for LRU eviction. Every insertion advances the
    /// sequence by at least one, so occupied slots hold distinct values.
    last_used: Vec<u64>,
    /// Slot count (Observation A4: 16).
    capacity: usize,
    /// `TREF_b` walk pointer (slot index).
    pointer: usize,
    /// Per-bank activation sequence counter.
    seq: u64,
}

impl BankTable {
    fn with_capacity(capacity: usize) -> Self {
        BankTable {
            rows: Vec::with_capacity(capacity),
            counts: Vec::with_capacity(capacity),
            last_used: Vec::with_capacity(capacity),
            capacity,
            pointer: 0,
            seq: 0,
        }
    }

    /// Whether no slot is occupied.
    #[inline]
    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The slot holding `row`, if it is resident.
    #[inline]
    fn position(&self, row: PhysRow) -> Option<usize> {
        let row = row.index();
        let mut found = usize::MAX;
        for (i, &r) in self.rows.iter().enumerate() {
            found = if r == row { i } else { found };
        }
        (found != usize::MAX).then_some(found)
    }

    /// Records `count` back-to-back activations of `row`: exactly
    /// equivalent to `count` single activations (the first may insert by
    /// LRU eviction; the rest increment). Returns the entry the
    /// insertion displaced, if any.
    #[inline]
    fn add(&mut self, row: PhysRow, count: u64) -> Option<PhysRow> {
        if count == 0 {
            return None;
        }
        self.seq += count;
        let seq = self.seq;
        if let Some(i) = self.position(row) {
            self.counts[i] += count;
            self.last_used[i] = seq;
            return None;
        }
        if self.rows.len() < self.capacity {
            // The first empty slot.
            self.rows.push(row.index());
            self.counts.push(count);
            self.last_used.push(seq);
            return None;
        }
        let slot = self.lru_slot();
        let evicted = PhysRow::new(self.rows[slot]);
        self.rows[slot] = row.index();
        self.counts[slot] = count;
        self.last_used[slot] = seq;
        Some(evicted)
    }

    /// The slot of the least recently used entry: the minimum of
    /// `last_used` (distinct over occupied slots, so no ties).
    #[inline]
    fn lru_slot(&self) -> usize {
        let (mut best, mut best_used) = (0, u64::MAX);
        for (i, &used) in self.last_used.iter().enumerate() {
            let better = used < best_used;
            best = if better { i } else { best };
            best_used = if better { used } else { best_used };
        }
        best
    }

    /// `TREF_a`: the highest-count entry, if any activity is recorded;
    /// ties go to the last such slot.
    fn detect_max(&mut self) -> Option<PhysRow> {
        let (mut best, mut best_count) = (0, 0);
        for (i, &count) in self.counts.iter().enumerate() {
            let better = count >= best_count;
            best = if better { i } else { best };
            best_count = if better { count } else { best_count };
        }
        if best_count == 0 {
            return None;
        }
        self.counts[best] = 0;
        Some(PhysRow::new(self.rows[best]))
    }

    /// `TREF_b`: the next occupied slot at or after the pointer (detected
    /// even with a zero counter — Observation A7), then advance the
    /// pointer.
    fn detect_pointer(&mut self) -> Option<PhysRow> {
        if self.is_empty() {
            return None;
        }
        // Occupied slots are a prefix: the walk either lands on the
        // pointer's slot or wraps around to slot 0.
        let idx = if self.pointer < self.rows.len() { self.pointer } else { 0 };
        self.counts[idx] = 0;
        self.pointer = (idx + 1) % self.capacity;
        Some(PhysRow::new(self.rows[idx]))
    }

    /// Occupied entries as `(row, count)`, in slot order.
    fn entries(&self) -> Vec<(PhysRow, u64)> {
        self.rows
            .iter()
            .zip(&self.counts)
            .map(|(&row, &count)| (PhysRow::new(row), count))
            .collect()
    }
}

/// Vendor A's counter-based TRR engine. See the [module docs](self).
///
/// # Example
///
/// ```
/// use dram_sim::{MitigationEngine, MitigationEngineExt, Bank, PhysRow, Nanos};
/// use trr::CounterTrr;
///
/// let mut e = CounterTrr::a_trr2(2);
/// e.on_activations(Bank::new(1), PhysRow::new(7), 1_000, Nanos::ZERO);
/// let detections: Vec<_> = (0..9).flat_map(|_| e.refresh_detections(Nanos::ZERO)).collect();
/// assert_eq!(detections.len(), 1);
/// assert_eq!(detections[0].bank, Bank::new(1));
/// ```
pub struct CounterTrr {
    config: CounterTrrConfig,
    name: &'static str,
    banks: Vec<BankTable>,
    ref_count: u64,
    /// Alternates TREF_a / TREF_b on successive TRR-capable REFs.
    next_is_tref_a: bool,
    /// `trr.<name>.detections` — published once a registry is attached.
    det_ctr: obs::Tally,
    /// `trr.<name>.evictions` — table entries displaced by LRU insertion.
    evict_ctr: obs::Tally,
    /// The attached registry, for flight-recorder eviction events.
    registry: Option<std::sync::Arc<obs::MetricsRegistry>>,
}

impl CounterTrr {
    /// Builds an engine with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `table_size < 2` (the batched interleaved-pair path
    /// relies on both rows fitting in the table simultaneously).
    pub fn new(config: CounterTrrConfig, name: &'static str, banks: u8) -> Self {
        assert!(config.table_size >= 2, "counter table needs at least two entries");
        CounterTrr {
            config,
            name,
            banks: (0..banks).map(|_| BankTable::with_capacity(config.table_size)).collect(),
            ref_count: 0,
            next_is_tref_a: true,
            det_ctr: obs::Tally::default(),
            evict_ctr: obs::Tally::default(),
            registry: None,
        }
    }

    /// Whether a flight recorder listens (one relaxed load): eviction
    /// events are built only then.
    #[inline]
    fn tracing(&self) -> bool {
        self.registry.as_ref().is_some_and(|registry| registry.tracing_enabled())
    }

    /// Flight-recorder event for one LRU eviction: `evicted` lost its
    /// slot to `inserted`.
    #[cold]
    fn trace_eviction(&self, bank: Bank, evicted: PhysRow, inserted: PhysRow, now: Nanos) {
        if let Some(registry) = &self.registry {
            registry.trace(
                obs::TraceKind::TrrEvict,
                now.as_ns(),
                bank.index() as u32,
                Some(evicted.index()),
                &[("inserted", inserted.index() as u64)],
                "",
            );
        }
    }

    /// The A_TRR1 mechanism (modules A0–A12 of Table 1).
    pub fn a_trr1(banks: u8) -> Self {
        CounterTrr::new(CounterTrrConfig::a_trr1(), "A_TRR1", banks)
    }

    /// The A_TRR2 mechanism (modules A13–A14 of Table 1).
    pub fn a_trr2(banks: u8) -> Self {
        CounterTrr::new(CounterTrrConfig::a_trr2(), "A_TRR2", banks)
    }

    /// The engine configuration.
    pub fn config(&self) -> CounterTrrConfig {
        self.config
    }

    /// Ground-truth inspection of a bank's occupied entries as
    /// `(row, count)` pairs — test support only.
    pub fn table(&self, bank: Bank) -> Vec<(PhysRow, u64)> {
        self.banks[bank.index() as usize].entries()
    }
}

impl fmt::Debug for CounterTrr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CounterTrr")
            .field("name", &self.name)
            .field("config", &self.config)
            .field("ref_count", &self.ref_count)
            .finish_non_exhaustive()
    }
}

impl MitigationEngine for CounterTrr {
    fn on_activations(&mut self, bank: Bank, row: PhysRow, count: u64, now: Nanos) {
        if let Some(evicted) = self.banks[bank.index() as usize].add(row, count) {
            self.evict_ctr.inc();
            if self.tracing() {
                self.trace_eviction(bank, evicted, row, now);
            }
        }
    }

    fn on_interleaved_pair(
        &mut self,
        bank: Bank,
        first: PhysRow,
        second: PhysRow,
        pairs: u64,
        now: Nanos,
    ) {
        if pairs == 0 {
            return;
        }
        // Equivalent to the alternating loop: after the first pair both
        // rows are resident (LRU eviction cannot evict the row inserted
        // by the immediately preceding activation while older entries
        // exist — and with table size ≥ 2 one always does), so the
        // remaining activations are pure increments; only the final
        // recency order matters, with `second` activated last.
        let table = &mut self.banks[bank.index() as usize];
        let mut evicted = [None, None, None, None];
        evicted[0] = table.add(first, 1);
        evicted[1] = table.add(second, 1);
        if pairs > 1 {
            evicted[2] = table.add(first, pairs - 1);
            evicted[3] = table.add(second, pairs - 1);
        }
        let evictions = evicted.iter().flatten().count() as u64;
        if evictions > 0 {
            self.evict_ctr.add(evictions);
            if !self.tracing() {
                return;
            }
            for (i, row) in evicted.iter().enumerate() {
                if let Some(row) = row {
                    let inserted = if i % 2 == 0 { first } else { second };
                    self.trace_eviction(bank, *row, inserted, now);
                }
            }
        }
    }

    fn on_refresh(&mut self, _now: Nanos, out: &mut Vec<TrrDetection>) {
        self.ref_count += 1;
        if !self.ref_count.is_multiple_of(self.config.trr_ref_interval) {
            return;
        }
        let tref_a = self.next_is_tref_a;
        self.next_is_tref_a = !tref_a;
        let span = self.config.span;
        let before = out.len();
        for (idx, table) in self.banks.iter_mut().enumerate() {
            if table.is_empty() {
                // Nothing to detect: skip the walk (it would not move
                // the pointer either).
                continue;
            }
            let detected = if tref_a { table.detect_max() } else { table.detect_pointer() };
            if let Some(row) = detected {
                out.push(TrrDetection { bank: Bank::new(idx as u8), aggressor: row, span });
            }
        }
        self.det_ctr.add((out.len() - before) as u64);
    }

    fn attach_metrics(&mut self, registry: &std::sync::Arc<obs::MetricsRegistry>) {
        self.det_ctr = registry.tally(&format!("trr.{}.detections", self.name));
        self.evict_ctr = registry.tally(&format!("trr.{}.evictions", self.name));
        self.registry = Some(std::sync::Arc::clone(registry));
    }

    fn flush_metrics(&mut self) {
        self.det_ctr.flush();
        self.evict_ctr.flush();
    }

    fn detects_inline(&self) -> bool {
        // Counter-based TRR only acts at `REF` (tREFab/tREFsb piggyback).
        false
    }

    fn reset(&mut self) {
        let capacity = self.config.table_size;
        for table in &mut self.banks {
            *table = BankTable::with_capacity(capacity);
        }
        self.ref_count = 0;
        self.next_is_tref_a = true;
    }

    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod table_model {
    //! [`BankTable`] against a plain reference model: a slot vector of
    //! optional entries, each rule written as the iterator chain that
    //! states it (first empty slot, `min_by_key` for LRU, `max_by_key`
    //! for `TREF_a`).

    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Entry {
        row: PhysRow,
        count: u64,
        last_used: u64,
    }

    #[derive(Debug)]
    struct ModelTable {
        slots: Vec<Option<Entry>>,
        pointer: usize,
        seq: u64,
    }

    impl ModelTable {
        fn new(capacity: usize) -> Self {
            ModelTable { slots: vec![None; capacity], pointer: 0, seq: 0 }
        }

        fn add(&mut self, row: PhysRow, count: u64) -> Option<PhysRow> {
            if count == 0 {
                return None;
            }
            self.seq += count;
            let seq = self.seq;
            if let Some(entry) = self.slots.iter_mut().flatten().find(|e| e.row == row) {
                entry.count += count;
                entry.last_used = seq;
                return None;
            }
            // First empty slot, else the least recently used entry.
            let slot = self.slots.iter().position(Option::is_none).unwrap_or_else(|| {
                self.slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.map(|e| e.last_used))
                    .map(|(i, _)| i)
                    .unwrap()
            });
            let evicted = self.slots[slot].map(|e| e.row);
            self.slots[slot] = Some(Entry { row, count, last_used: seq });
            evicted
        }

        /// Highest count; `max_by_key` keeps the last of equal maxima.
        fn detect_max(&mut self) -> Option<PhysRow> {
            let (idx, entry) = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.map(|e| (i, e)))
                .max_by_key(|(_, e)| e.count)?;
            if entry.count == 0 {
                return None;
            }
            self.slots[idx].as_mut().unwrap().count = 0;
            Some(entry.row)
        }

        fn detect_pointer(&mut self) -> Option<PhysRow> {
            let size = self.slots.len();
            for probe in 0..size {
                let idx = (self.pointer + probe) % size;
                if let Some(entry) = &mut self.slots[idx] {
                    entry.count = 0;
                    self.pointer = (idx + 1) % size;
                    return Some(entry.row);
                }
            }
            None
        }

        fn entries(&self) -> Vec<(PhysRow, u64)> {
            self.slots.iter().flatten().map(|e| (e.row, e.count)).collect()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Add(u32, u64),
        DetectMax,
        DetectPointer,
        Reset,
    }

    /// Mostly insertions of few rows at tiny counts, so residency
    /// churn, re-insertions and equal counts (the `TREF_a` tie rule) are
    /// common; detections of both kinds and the odd reset in between.
    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u32..16, 0u32..10, 0u64..4).prop_map(|(kind, row, count)| match kind {
            0..=8 => Op::Add(row, count),
            9..=11 => Op::DetectMax,
            12..=14 => Op::DetectPointer,
            _ => Op::Reset,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every operation returns the same row (eviction victim or
        /// detection) and leaves the same entries in the same slots.
        #[test]
        fn bank_table_matches_reference_model(
            ops in prop::collection::vec(op_strategy(), 1..120),
            capacity in 2usize..7,
        ) {
            let mut table = BankTable::with_capacity(capacity);
            let mut model = ModelTable::new(capacity);
            for (step, op) in ops.iter().enumerate() {
                let (got, want) = match *op {
                    Op::Add(row, count) => {
                        (table.add(PhysRow::new(row), count), model.add(PhysRow::new(row), count))
                    }
                    Op::DetectMax => (table.detect_max(), model.detect_max()),
                    Op::DetectPointer => (table.detect_pointer(), model.detect_pointer()),
                    Op::Reset => {
                        table = BankTable::with_capacity(capacity);
                        model = ModelTable::new(capacity);
                        (None, None)
                    }
                };
                prop_assert_eq!(got, want, "step {} ({:?}) diverged", step, op);
                prop_assert_eq!(table.entries(), model.entries(), "slots after step {}", step);
                prop_assert_eq!(table.pointer, model.pointer);
            }
        }
    }

    #[test]
    fn detect_max_ties_go_to_the_last_slot() {
        let mut table = BankTable::with_capacity(4);
        for row in [7, 3, 9] {
            table.add(PhysRow::new(row), 5);
        }
        assert_eq!(table.detect_max(), Some(PhysRow::new(9)));
        assert_eq!(table.detect_max(), Some(PhysRow::new(3)));
        assert_eq!(table.detect_max(), Some(PhysRow::new(7)));
        assert_eq!(table.detect_max(), None, "all counters reset");
    }

    #[test]
    fn insertion_takes_the_first_empty_slot_then_the_lru_entry() {
        let mut table = BankTable::with_capacity(3);
        assert_eq!(table.add(PhysRow::new(1), 1), None);
        assert_eq!(table.add(PhysRow::new(2), 1), None);
        assert_eq!(table.add(PhysRow::new(3), 1), None);
        // Row 1 is refreshed in recency, so row 2 is now the LRU entry.
        assert_eq!(table.add(PhysRow::new(1), 1), None);
        assert_eq!(table.add(PhysRow::new(4), 1), Some(PhysRow::new(2)));
        assert_eq!(
            table.entries(),
            vec![(PhysRow::new(1), 2), (PhysRow::new(4), 1), (PhysRow::new(3), 1)]
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::MitigationEngineExt;

    const B0: Bank = Bank::new(0);
    const T0: Nanos = Nanos::ZERO;

    fn drain_refs(e: &mut CounterTrr, refs: u64) -> Vec<(u64, TrrDetection)> {
        let mut out = Vec::new();
        for i in 0..refs {
            for d in e.refresh_detections(T0) {
                out.push((i + 1, d));
            }
        }
        out
    }

    #[test]
    fn attached_registry_counts_detections_and_evictions() {
        let registry = std::sync::Arc::new(obs::MetricsRegistry::new());
        let mut e = CounterTrr::a_trr1(1);
        e.attach_metrics(&registry);
        // 20 distinct rows through a 16-slot table: exactly 4 evictions.
        for i in 0..20 {
            e.on_activations(B0, PhysRow::new(i), 100, T0);
        }
        let hits = drain_refs(&mut e, 9);
        assert_eq!(registry.counter("trr.A_TRR1.evictions").get(), 0, "nothing published yet");
        e.flush_metrics();
        assert_eq!(registry.counter("trr.A_TRR1.evictions").get(), 4);
        assert_eq!(registry.counter("trr.A_TRR1.detections").get(), hits.len() as u64);
        assert!(!hits.is_empty());
        drop(e);
        assert_eq!(
            registry.counter("trr.A_TRR1.evictions").get(),
            4,
            "drop after flush adds nothing"
        );
    }

    #[test]
    fn only_every_ninth_ref_detects() {
        let mut e = CounterTrr::a_trr1(1);
        e.on_activations(B0, PhysRow::new(10), 5_000, T0);
        let hits = drain_refs(&mut e, 36);
        assert!(!hits.is_empty());
        for (ref_idx, _) in &hits {
            assert_eq!(ref_idx % 9, 0, "TRR only on every 9th REF, got {ref_idx}");
        }
    }

    #[test]
    fn tref_a_detects_highest_count() {
        let mut e = CounterTrr::a_trr1(1);
        e.on_activations(B0, PhysRow::new(10), 50, T0);
        e.on_activations(B0, PhysRow::new(20), 5_000, T0);
        let hits = drain_refs(&mut e, 9);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1.aggressor, PhysRow::new(20));
    }

    #[test]
    fn detection_resets_counter_and_alternation_continues() {
        let mut e = CounterTrr::a_trr1(1);
        // Observation A6's experiment: H0 = 2K and H1 = 3K per 9 REFs.
        // The higher-count row is caught first; once reset, the other
        // row's accumulated count wins next time.
        let (r0, r1) = (PhysRow::new(10), PhysRow::new(20));
        let mut caught = Vec::new();
        for _ in 0..8 {
            for _ in 0..9 {
                e.on_activations(B0, r0, 2_000, T0);
                e.on_activations(B0, r1, 3_000, T0);
                for d in e.refresh_detections(T0) {
                    caught.push(d.aggressor);
                }
            }
        }
        assert!(caught.contains(&r0), "reset counters let the slower row win eventually");
        assert!(caught.contains(&r1));
    }

    #[test]
    fn tref_b_walks_the_table_cyclically() {
        let mut e = CounterTrr::a_trr1(1);
        // Fill the table with 16 rows, then stop hammering entirely.
        for i in 0..16 {
            e.on_activations(B0, PhysRow::new(100 + i), 100, T0);
        }
        // TREF_b instances (every other TRR REF) keep detecting entries
        // even long after every counter has been reset (Observation A7).
        let hits = drain_refs(&mut e, 9 * 64);
        let late_hits: Vec<_> = hits.iter().filter(|(r, _)| *r > 9 * 32).collect();
        assert!(!late_hits.is_empty(), "TREF_b keeps detecting stale entries indefinitely");
        // The pointer walk revisits the same row every 16 TREF_b
        // instances: late detections cycle through all 16 rows.
        let mut late_rows: Vec<u32> = late_hits.iter().map(|(_, d)| d.aggressor.index()).collect();
        late_rows.sort_unstable();
        late_rows.dedup();
        assert_eq!(late_rows.len(), 16, "the walk covers the whole table");
    }

    #[test]
    fn eviction_drops_the_first_hammered_row() {
        // Observation A5's experiment: one row hammered 50 times, then 16
        // rows hammered 100 times each. The first row must be evicted and
        // never detected.
        let mut e = CounterTrr::a_trr1(1);
        let weak = PhysRow::new(5);
        e.on_activations(B0, weak, 50, T0);
        for i in 0..16 {
            e.on_activations(B0, PhysRow::new(100 + i), 100, T0);
        }
        let hits = drain_refs(&mut e, 9 * 40);
        assert!(
            hits.iter().all(|(_, d)| d.aggressor != weak),
            "the first-inserted row must have been evicted"
        );
    }

    #[test]
    fn table_capacity_is_sixteen() {
        let mut e = CounterTrr::a_trr1(1);
        for i in 0..16 {
            e.on_activations(B0, PhysRow::new(i), 10, T0);
        }
        assert_eq!(e.table(B0).len(), 16);
        // A 17th row enters by evicting the least recently used entry
        // (row 0 here).
        e.on_activations(B0, PhysRow::new(16), 1, T0);
        let table = e.table(B0);
        assert_eq!(table.len(), 16);
        assert!(table.iter().any(|&(row, count)| row == PhysRow::new(16) && count == 1));
        assert!(table.iter().all(|&(row, _)| row != PhysRow::new(0)));
    }

    #[test]
    fn per_bank_tables_are_independent() {
        let mut e = CounterTrr::a_trr1(2);
        e.on_activations(Bank::new(0), PhysRow::new(1), 1_000, T0);
        e.on_activations(Bank::new(1), PhysRow::new(2), 1_000, T0);
        let hits: Vec<TrrDetection> = (0..9).flat_map(|_| e.refresh_detections(T0)).collect();
        assert_eq!(hits.len(), 2, "one detection per bank on a TRR REF");
        assert_ne!(hits[0].bank, hits[1].bank);
    }

    #[test]
    fn span_matches_version() {
        assert_eq!(CounterTrr::a_trr1(1).config().span, NeighborSpan::Two);
        assert_eq!(CounterTrr::a_trr2(1).config().span, NeighborSpan::One);
    }

    #[test]
    fn reset_clears_everything() {
        let mut e = CounterTrr::a_trr1(1);
        e.on_activations(B0, PhysRow::new(10), 5_000, T0);
        for _ in 0..5 {
            e.refresh_detections(T0);
        }
        e.reset();
        assert!(e.table(B0).is_empty());
        let hits = drain_refs(&mut e, 18);
        assert!(hits.is_empty());
    }

    #[test]
    fn batched_activations_match_singles() {
        let mut batched = CounterTrr::a_trr1(1);
        let mut singles = CounterTrr::a_trr1(1);
        // An adversarial mix of rows so evictions happen.
        let rows: Vec<PhysRow> = (0..24).map(PhysRow::new).collect();
        for (i, &row) in rows.iter().enumerate() {
            let n = (i as u64 % 7) + 1;
            batched.on_activations(B0, row, n, T0);
            for _ in 0..n {
                singles.on_activations(B0, row, 1, T0);
            }
        }
        assert_eq!(batched.table(B0), singles.table(B0));
    }

    #[test]
    fn interleaved_pair_matches_singles() {
        for fill in [0u32, 8, 16] {
            let mut batched = CounterTrr::a_trr1(1);
            let mut singles = CounterTrr::a_trr1(1);
            for e in [&mut batched, &mut singles] {
                for i in 0..fill {
                    e.on_activations(B0, PhysRow::new(1_000 + i), 6, T0);
                }
            }
            let (a, b) = (PhysRow::new(1), PhysRow::new(2));
            batched.on_interleaved_pair(B0, a, b, 24, T0);
            for _ in 0..24 {
                singles.on_activations(B0, a, 1, T0);
                singles.on_activations(B0, b, 1, T0);
            }
            assert_eq!(batched.table(B0), singles.table(B0), "fill={fill}");
        }
    }

    /// Runs the §7.1 vendor-A attack shape for `intervals` REF intervals
    /// and returns (aggressor detections, total detections).
    fn run_attack_shape(
        agg_hammers: u64,
        dummies: u32,
        dummy_hammers: u64,
        intervals: u32,
    ) -> (u32, u32) {
        let mut e = CounterTrr::a_trr1(1);
        let (a0, a1) = (PhysRow::new(500), PhysRow::new(502));
        let mut aggressor_detections = 0;
        let mut total_detections = 0;
        for _ in 0..intervals {
            e.on_activations(B0, a0, agg_hammers, T0);
            e.on_activations(B0, a1, agg_hammers, T0);
            for d in 0..dummies {
                e.on_activations(B0, PhysRow::new(1_000 + d * 4), dummy_hammers, T0);
            }
            for det in e.refresh_detections(T0) {
                total_detections += 1;
                if det.aggressor == a0 || det.aggressor == a1 {
                    aggressor_detections += 1;
                }
            }
        }
        (aggressor_detections, total_detections)
    }

    #[test]
    fn sixteen_dummies_flush_the_aggressors() {
        // §7.1 vendor-A attack shape: 24 hammers per aggressor, then 16
        // dummy rows hammered 6 times each, every REF interval. Inserting
        // 16 rows into the 16-slot LRU always pushes both aggressors out
        // before the TRR-capable REF.
        let (agg, total) = run_attack_shape(24, 16, 6, 9 * 200);
        assert!(total > 100, "TRR keeps firing (on dummies), total {total}");
        assert_eq!(agg, 0, "aggressors must never be detected");
    }

    #[test]
    fn too_few_dummies_leave_aggressors_exposed() {
        // The Fig. 8 trade-off: spending the REF-interval budget on the
        // aggressors leaves too few dummy insertions to flush the LRU, so
        // an aggressor stays resident and its huge counter makes TREF_a
        // detect it.
        let (agg, total) = run_attack_shape(60, 4, 6, 9 * 200);
        assert!(
            agg as f64 > 0.3 * total as f64,
            "under-pressured LRU must expose aggressors: {agg}/{total}"
        );
    }
}
