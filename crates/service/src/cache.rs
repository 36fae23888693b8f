//! The content-addressed plan cache with JSONL persistence.
//!
//! Every successful tune is stored under two fingerprints:
//!
//! * `exact` — the canonical fingerprint of the *fully resolved* query
//!   (model spec, cluster, search-space content, budget, batch,
//!   calibration seed, grad-accum cap). An exact hit returns the cached
//!   [`TuneOutcome`] without touching the tuner.
//! * `family` — the same material minus global batch, node count and
//!   budget, with the cluster reduced to its tape environment
//!   (platform, GPUs per node, single-node flag). Family neighbours are
//!   eligible warm-start seed donors: their frontier records are
//!   tape-compatible by construction, and per-record candidate-list and
//!   budget checks (in `mist-tuner`) establish exact reusability.
//!
//! Persistence is one JSON line per entry. The vendored `serde_json`
//! prints `f64`s in shortest round-trip form, so load → save reproduces
//! the file byte-for-byte — the golden-testing contract the CI daemon
//! stage relies on. A save after inserts only serializes the new
//! entries: an entry's frontier export runs to megabytes, and
//! re-serializing every cached entry made each query's save grow with
//! the cache.

use std::cell::Cell;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use mist_tuner::{FrontierExport, FrontierRecord, TuneOutcome};
use serde::{Deserialize, Serialize};

/// Human-readable description of the query an entry answered (for
/// debugging and cache inspection; the fingerprints are authoritative).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySummary {
    /// Model preset name.
    pub model: String,
    /// Platform wire name.
    pub platform: String,
    /// Total GPU count.
    pub gpus: u32,
    /// Global batch size.
    pub batch: u64,
    /// Search-space name (QoS restriction included).
    pub space: String,
    /// Per-GPU memory budget (bytes).
    pub budget: f64,
    /// Sequence length.
    pub seq: u64,
    /// QoS profile name.
    pub qos: String,
}

/// One cached plan: the outcome plus its warm-start frontier export.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheEntry {
    /// Exact-query fingerprint (cache key).
    pub exact: String,
    /// Family fingerprint (warm-start neighbour key).
    pub family: String,
    /// The resolved query this entry answered.
    pub summary: QuerySummary,
    /// The cached tuning outcome.
    pub outcome: TuneOutcome,
    /// Exported intra-stage frontiers for seeding neighbours.
    pub export: FrontierExport,
}

/// Content-addressed plan cache, optionally backed by a JSONL file.
pub struct PlanCache {
    entries: Vec<CacheEntry>,
    path: Option<PathBuf>,
    // `Some(k)` when the backing file holds exactly the lines of
    // `entries[..k]`, as this cache last wrote them; `None` before the
    // first save and after a replace or remove.
    on_disk: Cell<Option<usize>>,
}

impl PlanCache {
    /// An unbacked in-memory cache.
    pub fn in_memory() -> Self {
        PlanCache {
            entries: Vec::new(),
            path: None,
            on_disk: Cell::new(None),
        }
    }

    /// Opens a file-backed cache, loading existing entries. A missing
    /// file is an empty cache; a malformed line is an error (a corrupt
    /// cache should fail loudly, not silently drop plans).
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut cache = PlanCache {
            entries: Vec::new(),
            path: Some(path.clone()),
            on_disk: Cell::new(None),
        };
        match fs::read_to_string(&path) {
            Ok(text) => {
                for (lineno, line) in text.lines().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let entry: CacheEntry = serde_json::from_str(line).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("{}:{}: {e}", path.display(), lineno + 1),
                        )
                    })?;
                    cache.entries.push(entry);
                }
                Ok(cache)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(cache),
            Err(e) => Err(e),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Exact-fingerprint lookup.
    pub fn lookup(&self, exact: &str) -> Option<&CacheEntry> {
        self.entries.iter().find(|e| e.exact == exact)
    }

    /// All entries of a family except `skip_exact`, in insertion order
    /// (the deterministic donor order for warm-start seeding).
    pub fn family(&self, family: &str, skip_exact: &str) -> Vec<&CacheEntry> {
        self.entries
            .iter()
            .filter(|e| e.family == family && e.exact != skip_exact)
            .collect()
    }

    /// Builds the warm-start seed for a query under `budget`: the union
    /// of all family donors' frontier records that are reusable under
    /// that budget, first donor wins on duplicate record identity.
    /// Returns `None` when there are no donors or no such records.
    pub fn warm_seed(&self, family: &str, exact: &str, budget: f64) -> Option<FrontierExport> {
        let mut records: Vec<FrontierRecord> = Vec::new();
        for donor in self.family(family, exact) {
            for record in &donor.export.records {
                if record.reusable_under(budget)
                    && !records.iter().any(|r| r.identity() == record.identity())
                {
                    records.push(record.clone());
                }
            }
        }
        if records.is_empty() {
            None
        } else {
            Some(FrontierExport { records })
        }
    }

    /// Inserts an entry, replacing any previous entry with the same
    /// exact fingerprint.
    pub fn insert(&mut self, entry: CacheEntry) {
        if let Some(existing) = self.entries.iter_mut().find(|e| e.exact == entry.exact) {
            *existing = entry;
            self.on_disk.set(None);
        } else {
            self.entries.push(entry);
        }
    }

    /// Removes the entry with this exact fingerprint, if present.
    /// Returns whether an entry was removed. Used by the planner to
    /// evict cached plans whose certificate no longer checks out.
    pub fn remove(&mut self, exact: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.exact != exact);
        self.on_disk.set(None);
        self.entries.len() != before
    }

    /// The cache's JSONL serialization (one entry per line).
    pub fn to_jsonl(&self) -> String {
        jsonl(&self.entries)
    }

    /// Persists to the backing file (atomic: temp file + rename).
    /// When the file already holds the leading entries, it is copied
    /// and only the entries inserted since are serialized. A no-op for
    /// in-memory caches.
    pub fn save(&self) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let tmp = path.with_extension("tmp");
        let written = match self.on_disk.take() {
            Some(k) => fs::copy(path, &tmp).and_then(|_| {
                let mut file = fs::OpenOptions::new().append(true).open(&tmp)?;
                file.write_all(jsonl(&self.entries[k..]).as_bytes())
            }),
            None => fs::write(&tmp, self.to_jsonl()),
        };
        written.and_then(|()| fs::rename(&tmp, path))?;
        self.on_disk.set(Some(self.entries.len()));
        Ok(())
    }
}

/// One JSON line per entry.
fn jsonl(entries: &[CacheEntry]) -> String {
    let mut out = String::new();
    for entry in entries {
        out.push_str(&serde_json::to_string(entry).expect("cache entry serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mist_tuner::{BudgetProof, SeedCandidate};

    fn entry(exact: &str, family: &str, records: Vec<FrontierRecord>) -> CacheEntry {
        CacheEntry {
            exact: exact.to_owned(),
            family: family.to_owned(),
            summary: QuerySummary {
                model: "gpt3-1.3b".into(),
                platform: "l4".into(),
                gpus: 2,
                batch: 8,
                space: "mist".into(),
                budget: 22.0e9,
                seq: 2048,
                qos: "exhaustive".into(),
            },
            outcome: TuneOutcome {
                plan: mist_schedule::TrainingPlan {
                    grad_accum: 1,
                    stages: Vec::new(),
                    global_batch: 8,
                },
                predicted_iteration: 1.5,
                predicted_throughput: 8.0 / 1.5,
                stage_points: Vec::new(),
                stats: Default::default(),
                telemetry: Default::default(),
                certificate: Default::default(),
            },
            export: FrontierExport { records },
        }
    }

    fn record(dp: u32) -> FrontierRecord {
        FrontierRecord {
            mesh: mist_hardware::DeviceMesh::new(1, 2),
            role: mist_graph::StageRole::Only,
            inflight: 1,
            candidates: vec![SeedCandidate {
                dp,
                tp: 2 / dp.max(1),
                micro_batch: 4,
            }],
            budget: 22.0e9,
            proof: BudgetProof::Fit { mem_hi: 20.0e9 },
            per_l: vec![Vec::new(); 4],
        }
    }

    #[test]
    fn insert_replaces_same_exact() {
        let mut cache = PlanCache::in_memory();
        cache.insert(entry("a", "f", vec![]));
        cache.insert(entry("b", "f", vec![]));
        cache.insert(entry("a", "f", vec![record(1)]));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup("a").unwrap().export.records.len(), 1);
    }

    #[test]
    fn warm_seed_unions_family_donors() {
        let mut cache = PlanCache::in_memory();
        cache.insert(entry("a", "f", vec![record(1), record(2)]));
        cache.insert(entry("b", "f", vec![record(2), record(4)])); // dup dp=2
        cache.insert(entry("c", "other", vec![record(8)]));
        let seed = cache.warm_seed("f", "none", 22.0e9).unwrap();
        let dps: Vec<u32> = seed.records.iter().map(|r| r.candidates[0].dp).collect();
        assert_eq!(dps, vec![1, 2, 4], "first-donor-wins union, in order");
        // The querying entry itself is never its own donor.
        assert!(cache.warm_seed("other", "c", 22.0e9).is_none());
        assert!(cache.warm_seed("unknown", "x", 22.0e9).is_none());
        // No record is reusable below its `Fit` bound.
        assert!(cache.warm_seed("f", "none", 10.0e9).is_none());
    }

    /// A donor record the query's budget cannot reuse must not hide a
    /// later donor's reusable record of the same identity.
    #[test]
    fn warm_seed_skips_records_the_budget_cannot_reuse() {
        let mut cache = PlanCache::in_memory();
        let tight = FrontierRecord {
            budget: 3.0e9,
            proof: BudgetProof::Sensitive,
            ..record(2)
        };
        let exact = FrontierRecord {
            proof: BudgetProof::Sensitive,
            ..record(2)
        };
        cache.insert(entry("a", "f", vec![tight]));
        cache.insert(entry("b", "f", vec![exact.clone()]));
        let seed = cache.warm_seed("f", "none", exact.budget).unwrap();
        assert_eq!(seed.records, vec![exact]);
    }

    #[test]
    fn jsonl_round_trip_is_byte_stable() {
        let dir = std::env::temp_dir().join(format!("mist-cache-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let mut cache = PlanCache::open(&path).unwrap();
        assert!(cache.is_empty());
        cache.insert(entry("a", "f", vec![record(1)]));
        cache.insert(entry("b", "f", vec![record(2)]));
        cache.save().unwrap();
        let first = fs::read_to_string(&path).unwrap();

        let reloaded = PlanCache::open(&path).unwrap();
        assert_eq!(reloaded.len(), 2);
        reloaded.save().unwrap();
        let second = fs::read_to_string(&path).unwrap();
        assert_eq!(first, second, "load → save must be byte-identical");
        fs::remove_dir_all(&dir).ok();
    }

    /// Saves that append, replace and remove entries leave exactly the
    /// file a full rewrite of the current entries writes.
    #[test]
    fn every_save_writes_the_full_serialization() {
        let dir = std::env::temp_dir().join(format!("mist-cache-inc-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let mut cache = PlanCache::open(&path).unwrap();
        let check = |cache: &PlanCache, step: &str| {
            cache.save().unwrap();
            assert_eq!(
                fs::read_to_string(&path).unwrap(),
                cache.to_jsonl(),
                "{step}"
            );
        };
        cache.insert(entry("a", "f", vec![record(1)]));
        check(&cache, "first save");
        cache.insert(entry("b", "f", vec![record(2)]));
        cache.insert(entry("c", "f", vec![record(3)]));
        check(&cache, "two appended entries");
        check(&cache, "nothing new");
        cache.insert(entry("b", "f", vec![record(4)]));
        check(&cache, "replaced entry");
        cache.remove("a");
        check(&cache, "removed entry");
        cache.insert(entry("d", "g", vec![record(5)]));
        check(&cache, "appended after a rewrite");
        assert_eq!(cache.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_fails_loudly() {
        let dir = std::env::temp_dir().join(format!("mist-cache-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        fs::write(&path, "{not valid json\n").unwrap();
        assert!(PlanCache::open(&path).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
