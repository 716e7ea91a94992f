//! Output checks. Each workload's outputs are checked before any of its
//! figures is reported; a figure from a run whose outputs are wrong
//! describes a different program.
//!
//! Three kinds of verdict come out of here:
//! - a structural failure (`Err`): the artifact is malformed, a
//!   contract is broken (thread-count identity, the `none` no-op), or a
//!   pinned digest no longer matches. The run is reported incorrect.
//! - a per-operation quality verdict (`ok` / not ok): a characterised
//!   module whose verdict is wrong or not confirmed. These are measured,
//!   not hidden: they set the `ok_frac` metric.
//! - a measured search outcome: whether a hunt's A_TRR1 leader is a
//!   bypass (`a_trr1_bypassed`).

use std::collections::BTreeMap;

use attacks::eval::BankSweep;
use faults::FaultProfile;
use obs::jsonl::{parse_json, parse_jsonl, JsonValue};
use utrr_fleet::record::RE_ATTEMPTS;
use utrr_fleet::{content_hash, FleetRecord, FLEET_SCHEMA};

/// A characterised module is ok when its reverse-engineered profile
/// matches the planted ground truth, its verdict tier is `confirmed`,
/// and it needed no more than [`RE_ATTEMPTS`] experiment seeds.
pub fn module_ok(record: &FleetRecord) -> bool {
    record.re_match && record.tier == "confirmed" && (1..=RE_ATTEMPTS).contains(&record.re_attempts)
}

/// Checks a merged `fleet.jsonl` of `modules` records swept under
/// `profile`; returns the indices of modules whose record fails
/// [`module_ok`].
///
/// # Errors
///
/// A malformed or incomplete artifact, records out of index order, or
/// any recovery traffic under the `none` profile (which must be a strict
/// no-op).
pub fn check_fleet(text: &str, modules: u64, profile: FaultProfile) -> Result<Vec<u64>, String> {
    let mut lines = text.lines();
    let meta = parse_json(lines.next().ok_or("empty fleet artifact")?)
        .map_err(|e| format!("fleet meta line: {e}"))?;
    if meta.get("schema").and_then(JsonValue::as_str) != Some(FLEET_SCHEMA) {
        return Err(format!("fleet artifact is not {FLEET_SCHEMA}"));
    }
    if meta.get("modules").and_then(JsonValue::as_u64) != Some(modules) {
        return Err(format!("fleet meta line does not declare {modules} modules"));
    }
    let mut records = Vec::new();
    for (i, line) in lines.enumerate() {
        let value = parse_json(line).map_err(|e| format!("record {i}: {e}"))?;
        let record = FleetRecord::from_json(&value).ok_or(format!("record {i} is malformed"))?;
        if record.index != i as u64 {
            return Err(format!("record {i} carries index {}", record.index));
        }
        if profile == FaultProfile::None {
            let recovery = record.faults_injected
                + record.reads_voted
                + record.read_disagreements
                + record.write_retries;
            if recovery != 0 {
                return Err(format!("record {i}: recovery traffic under the none profile"));
            }
        }
        records.push(record);
    }
    if records.len() as u64 != modules {
        return Err(format!("fleet artifact holds {} of {modules} records", records.len()));
    }
    Ok(records.iter().filter(|r| !module_ok(r)).map(|r| r.index).collect())
}

/// A stable digest of one attack sweep: pattern, hammer rate, and every
/// position's victim, flip count and dataword histogram.
pub fn sweep_digest(sweep: &BankSweep) -> String {
    let mut text =
        format!("{}|{:016x}", sweep.pattern, sweep.hammers_per_aggressor_per_ref.to_bits());
    for r in &sweep.results {
        text.push_str(&format!("|{}:{}:{:?}", r.victim.index(), r.flips, r.dataword_hist));
    }
    content_hash(text.as_bytes())
}

/// Attack digests recorded from the seed commit, keyed by
/// `(seed slot, module id)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DigestTable {
    /// The parameter line the table was recorded at.
    pub params: String,
    entries: BTreeMap<(u64, String), String>,
}

impl DigestTable {
    /// Parses the table: a `# params: …` line, then `slot\tmodule\tdigest`
    /// lines.
    ///
    /// # Errors
    ///
    /// A missing parameter line or a malformed entry.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut table = DigestTable::default();
        for (n, line) in text.lines().enumerate() {
            if let Some(params) = line.strip_prefix("# params: ") {
                table.params = params.to_string();
                continue;
            }
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split('\t');
            let (Some(slot), Some(id), Some(digest), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(format!("digest table line {}: expected 3 fields", n + 1));
            };
            let slot = slot.parse().map_err(|_| format!("digest table line {}: slot", n + 1))?;
            table.entries.insert((slot, id.to_string()), digest.to_string());
        }
        if table.params.is_empty() {
            return Err("digest table has no `# params:` line".into());
        }
        Ok(table)
    }

    /// The recorded digest of module `id` at seed slot `slot`.
    pub fn get(&self, slot: u64, id: &str) -> Option<&str> {
        self.entries.get(&(slot, id.to_string())).map(String::as_str)
    }
}

/// An attacked module is ok when its sweep digest equals the recorded
/// one and the run at one thread produced the same digest.
pub fn attack_module_ok(recorded: Option<&str>, digest: &str, single_thread_digest: &str) -> bool {
    recorded == Some(digest) && digest == single_thread_digest
}

/// Checks a hunt: the `utrr-fuzz/1` artifact must be byte-identical at
/// one and at the workload's thread count.
///
/// # Errors
///
/// Differing artifacts or an artifact without its meta line.
pub fn check_hunt(artifact: &str, single_thread_artifact: &str) -> Result<(), String> {
    if artifact != single_thread_artifact {
        return Err("fuzz artifact differs between 1 thread and the workload's threads".into());
    }
    let values = parse_jsonl(artifact).map_err(|e| format!("fuzz artifact: {e}"))?;
    if values.first().and_then(|m| m.get("schema")).and_then(JsonValue::as_str)
        != Some(attacks::fuzz::FUZZ_SCHEMA)
    {
        return Err("fuzz artifact has no utrr-fuzz/1 meta line".into());
    }
    Ok(())
}

/// Whether the hunt's A_TRR1 leader is a bypass. Blind search at the CI
/// recipe's budget misses it on some fuzz seeds, so this is a measured
/// outcome, not a check.
pub fn a_trr1_bypassed(artifact: &str) -> bool {
    parse_jsonl(artifact).unwrap_or_default().iter().any(|v| {
        v.get("record").and_then(JsonValue::as_str) == Some("leader")
            && v.get("engine").and_then(JsonValue::as_str) == Some("A_TRR1")
            && matches!(v.get("bypass"), Some(JsonValue::Bool(true)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacks::eval::PositionResult;
    use dram_sim::PhysRow;

    fn record(index: u64) -> FleetRecord {
        FleetRecord {
            index,
            id: format!("S{index:06}"),
            anchor: "A5".into(),
            vendor: "A".into(),
            trr_version: "A_TRR1".into(),
            banks: 16,
            rows: 2048,
            seed: 42,
            retention_scale: 1.0,
            hc_first_gt: 10_000,
            re_match: true,
            re_attempts: 1,
            ratio: 9,
            neighbors: 2,
            detection: "Counter(16)".into(),
            per_bank: true,
            refresh_period: 3758,
            hc_first_measured: 10_100,
            vulnerable_pct: 100.0,
            max_flips_per_hammer: 1.0,
            max_flips_per_word: 2,
            scout_retries: 0,
            scout_quarantined: 0,
            faults_injected: 0,
            reads_voted: 0,
            read_disagreements: 0,
            write_retries: 0,
            tier: "confirmed".into(),
            tier_reasons: String::new(),
            vote_widenings: 0,
            relocations: 0,
            reprofiles: 0,
            budget_trips: 0,
        }
    }

    fn artifact(records: &[FleetRecord], profile: &str) -> String {
        let mut text = format!(
            "{{\"schema\":\"{FLEET_SCHEMA}\",\"modules\":{},\"faults\":\"{profile}\"}}\n",
            records.len()
        );
        for r in records {
            text.push_str(&r.to_json_line());
            text.push('\n');
        }
        text
    }

    #[test]
    fn a_clean_fleet_passes() {
        let records = [record(0), record(1)];
        let not_ok = check_fleet(&artifact(&records, "none"), 2, FaultProfile::None).unwrap();
        assert!(not_ok.is_empty());
    }

    #[test]
    fn tampered_verdicts_are_counted_not_ok() {
        let mut wrong = record(1);
        wrong.re_match = false;
        let mut degraded = record(2);
        degraded.tier = "degraded".into();
        let mut retried = record(3);
        retried.re_attempts = RE_ATTEMPTS + 1;
        let records = [record(0), wrong, degraded, retried];
        let not_ok = check_fleet(&artifact(&records, "mild"), 4, FaultProfile::Mild).unwrap();
        assert_eq!(not_ok, vec![1, 2, 3]);
    }

    #[test]
    fn broken_fleet_artifacts_fail() {
        let records = [record(0), record(1)];
        // Missing record.
        assert!(check_fleet(&artifact(&records[..1], "none"), 2, FaultProfile::None).is_err());
        // Out-of-order index.
        let swapped = [record(1), record(0)];
        assert!(check_fleet(&artifact(&swapped, "none"), 2, FaultProfile::None).is_err());
        // A truncated record line.
        let text = artifact(&records, "none");
        let torn = &text[..text.len() - 20];
        assert!(check_fleet(torn, 2, FaultProfile::None).is_err());
        // Recovery traffic under `none` breaks the no-op contract.
        let mut noisy = record(1);
        noisy.reads_voted = 3;
        let text = artifact(&[record(0), noisy], "none");
        assert!(check_fleet(&text, 2, FaultProfile::None).is_err());
        // Wrong schema.
        let text = artifact(&records, "none").replacen(FLEET_SCHEMA, "utrr-fleet/0", 1);
        assert!(check_fleet(&text, 2, FaultProfile::None).is_err());
    }

    fn sweep(flips: u32) -> BankSweep {
        BankSweep {
            pattern: "custom-A".into(),
            hammers_per_aggressor_per_ref: 37.5,
            results: vec![PositionResult {
                victim: PhysRow::new(9),
                flips,
                dataword_hist: vec![(1, flips)],
            }],
        }
    }

    #[test]
    fn a_wrong_attack_digest_fails() {
        let good = sweep_digest(&sweep(3));
        let bad = sweep_digest(&sweep(4));
        assert_ne!(good, bad);
        let table = DigestTable::parse(&format!("# params: test\n0\tA5\t{good}\n")).unwrap();
        assert!(attack_module_ok(table.get(0, "A5"), &good, &good));
        assert!(!attack_module_ok(table.get(0, "A5"), &bad, &bad), "digest drift must fail");
        assert!(!attack_module_ok(table.get(0, "A5"), &good, &bad), "thread drift must fail");
        assert!(!attack_module_ok(table.get(1, "A5"), &good, &good), "unrecorded slot must fail");
        assert!(DigestTable::parse("0\tA5\tabc\n").is_err(), "a table needs its params line");
        assert!(DigestTable::parse("# params: x\n0\tA5\n").is_err());
    }

    const FUZZ: &str = "{\"schema\":\"utrr-fuzz/1\",\"seed\":1}\n\
        {\"record\":\"leader\",\"engine\":\"A_TRR1\",\"bypass\":true,\"flips\":9}\n\
        {\"record\":\"leader\",\"engine\":\"B_TRR1\",\"bypass\":false,\"flips\":0}\n";

    #[test]
    fn a_non_identical_hunt_fails() {
        assert!(check_hunt(FUZZ, FUZZ).is_ok());
        let drifted = FUZZ.replace("\"flips\":9", "\"flips\":8");
        assert!(check_hunt(FUZZ, &drifted).is_err(), "thread-count drift must fail");
        let unschema = FUZZ.replace("utrr-fuzz/1", "utrr-fuzz/0");
        assert!(check_hunt(&unschema, &unschema).is_err());
    }

    #[test]
    fn a_lost_a_trr1_bypass_is_seen() {
        assert!(a_trr1_bypassed(FUZZ));
        let no_bypass = FUZZ.replace(
            "\"engine\":\"A_TRR1\",\"bypass\":true",
            "\"engine\":\"A_TRR1\",\"bypass\":false",
        );
        assert!(!a_trr1_bypassed(&no_bypass));
        assert!(!a_trr1_bypassed("not json"));
    }
}
