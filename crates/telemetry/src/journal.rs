//! Append-only decision journal: typed provenance events from the
//! tuner.
//!
//! Spans answer *where wall-clock went*; the journal answers *why the
//! search went the way it did*: which candidates were rejected and for
//! what reason, how each Pareto frontier was carved down, and what each
//! inter-stage DP solve kept and pruned. Every record is stamped with
//! the enclosing span id (see [`crate::current_span_id`]) so traces and
//! decisions cross-link, and with a monotone per-journal sequence number
//! so emission order survives serialization.
//!
//! Like `span!`, emission is zero-cost when disabled: [`journal_event`]
//! takes a closure and returns after one relaxed atomic load without
//! calling it — no locks, no allocation, no clock reads. Records live
//! in a bounded ring (oldest dropped first, with a drop counter) and
//! are flushed to a JSONL file by the CLI's `--journal` flag; each line
//! round-trips through the vendored `serde_json`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::collector::current_span_id;

/// Default ring capacity: large enough that a full GPT-3-scale tune
/// (tens of thousands of frontier and DP events) fits without drops, small
/// enough that an enabled journal stays tens of megabytes at worst.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 17;

/// Outcome of one outer-loop candidate `(grad_accum, stages)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OuterOutcome {
    /// Solved and became the best plan seen so far.
    Incumbent,
    /// Solved, but its selector lost to the incumbent — a runner-up.
    Dominated,
    /// The inter-stage solve was cut off by the incumbent-derived
    /// bound before completing: every partial assignment's lower bound
    /// already exceeded the budget.
    OutOfBudget,
    /// No feasible layer assignment at all (every split OOMs).
    Infeasible,
}

/// One typed provenance event.
///
/// Counting identities the `explain` digest relies on (per
/// `FrontierSummary`): `enumerated = oom + nonfinite + feasible` and
/// `feasible = survived + dominated` — every
/// enumerated configuration is accounted for by exactly one outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// One intra-stage frontier computation: the sweep over
    /// `(layers, zero, offload)` rows for every stage candidate of one
    /// frontier key, reduced to per-layer-count Pareto frontiers.
    FrontierSummary {
        /// Mesh nodes of the stage candidates swept.
        mesh_nodes: u32,
        /// GPUs per node of the stage candidates swept.
        mesh_gpus: u32,
        /// Stage role (`"First"` / `"Middle"` / `"Last"` / `"Only"`).
        role: String,
        /// In-flight microbatches the stage must hold.
        inflight: u32,
        /// Gradient-accumulation factor of the enclosing outer round.
        grad_accum: u32,
        /// Frontiers were built for layer counts `1..=max_layers`.
        max_layers: u32,
        /// Configurations enumerated by the sweep.
        enumerated: u64,
        /// Rejected: no checkpointing choice fits the memory budget
        /// (includes the post-hoc peak-memory recheck).
        oom: u64,
        /// Rejected: predicted time was NaN/∞ (degenerate division).
        nonfinite: u64,
        /// Rows that produced a feasible `(time, memory)` point.
        feasible: u64,
        /// Points surviving Pareto reduction + frontier sampling.
        survived: u64,
        /// Feasible points dominated away (`feasible - survived`).
        dominated: u64,
        /// Sampled frontier size per layer count (index 0 = 1 layer).
        sizes: Vec<u32>,
    },
    /// One plan-certificate check: an independent re-derivation of a
    /// plan's memory and cost claims through the abstract-interpretation
    /// framework, at tune time or when a cached plan is served.
    CertCheck {
        /// Where the check ran (`"tune"` / `"serve"` / `"verify"`).
        phase: String,
        /// Pipeline stages certified.
        stages: u32,
        /// Whether every stage obligation held.
        ok: bool,
        /// Human-readable failures (empty when `ok`).
        failures: Vec<String>,
    },
    /// One outer-loop candidate `(grad_accum, stages)` and its fate.
    OuterCandidate {
        /// Gradient-accumulation factor.
        grad_accum: u32,
        /// Pipeline stage count.
        stages: u32,
        /// What happened to the candidate.
        outcome: OuterOutcome,
        /// Its selector value (iteration-time proxy), when solved.
        selector: Option<f64>,
        /// Predicted iteration time in seconds, when solved.
        objective: Option<f64>,
        /// Per-stage layer assignment, when solved.
        layers: Vec<u32>,
        /// The incumbent selector the candidate had to beat (None for
        /// the first feasible candidate).
        incumbent: Option<f64>,
        /// For `OutOfBudget` candidates whose search was truncated
        /// before any complete assignment: a proven lower bound on what
        /// the shape could have achieved (the killing constraint).
        bound: Option<f64>,
    },
    /// The best plan improved: frontier evolution of the outer search.
    Incumbent {
        /// Gradient-accumulation factor of the new best plan.
        grad_accum: u32,
        /// Stage count of the new best plan.
        stages: u32,
        /// New best selector value.
        selector: f64,
        /// Predicted iteration time in seconds.
        objective: f64,
    },
    /// One inter-stage dynamic-programming solve.
    DpSummary {
        /// Pipeline stage count.
        stages: u32,
        /// Gradient-accumulation factor.
        grad_accum: u32,
        /// Pareto states inserted across all DP cells.
        states: u64,
        /// Transitions discarded because their lower bound crossed the
        /// incumbent-derived cutoff.
        bound_pruned: u64,
        /// `"solved"`, `"cutoff"` or `"infeasible"`.
        result: String,
    },
}

/// A journal record: a typed event stamped with its sequence number and
/// the id of the span that was open where it was emitted (0 = none).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Monotone per-journal sequence number (0-based).
    pub seq: u64,
    /// Enclosing span id at emission, per [`crate::current_span_id`].
    pub span: u64,
    /// The event payload.
    pub event: JournalEvent,
}

impl JournalRecord {
    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("journal records always serialize")
    }

    /// Parses a record from one JSONL line.
    pub fn from_jsonl(line: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(line)
    }
}

struct Ring {
    records: VecDeque<JournalRecord>,
    next_seq: u64,
    dropped: u64,
    capacity: usize,
}

/// Bounded append-only event journal.
///
/// One process-global instance (see [`global_journal`]) backs the
/// [`journal_event`] free function; independent instances exist for
/// tests. Starts disabled; disabled emission is a single relaxed
/// atomic-flag load.
pub struct Journal {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
}

impl Journal {
    /// Creates a disabled journal with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// Creates a disabled journal holding at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        Journal {
            enabled: AtomicBool::new(false),
            ring: Mutex::new(Ring {
                records: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
                capacity: capacity.max(1),
            }),
        }
    }

    /// Turns emission on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns emission off.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether emission is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Emits an event lazily: `f` runs only when the journal is
    /// enabled. The record is stamped with the current span id and the
    /// next sequence number; when the ring is full the oldest record is
    /// dropped and counted.
    pub fn emit(&self, f: impl FnOnce() -> JournalEvent) {
        if !self.is_enabled() {
            return;
        }
        let event = f();
        let span = current_span_id();
        let mut ring = self.ring.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.records.len() == ring.capacity {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        ring.records.push_back(JournalRecord { seq, span, event });
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().records.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Removes and returns all buffered records (oldest first).
    /// Sequence numbering continues across drains.
    pub fn drain(&self) -> Vec<JournalRecord> {
        self.ring.lock().records.drain(..).collect()
    }

    /// Clears the ring and resets sequence and drop counters.
    pub fn reset(&self) {
        let mut ring = self.ring.lock();
        ring.records.clear();
        ring.next_seq = 0;
        ring.dropped = 0;
    }

    /// Drains the ring to `out` as JSONL, one record per line.
    pub fn flush_to(&self, out: &mut dyn std::io::Write) -> std::io::Result<usize> {
        let records = self.drain();
        for r in &records {
            writeln!(out, "{}", r.to_jsonl())?;
        }
        Ok(records.len())
    }
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-global journal used by [`journal_event`].
pub fn global_journal() -> &'static Journal {
    static GLOBAL: OnceLock<Journal> = OnceLock::new();
    GLOBAL.get_or_init(Journal::new)
}

/// Emits an event into the global journal. Zero-cost when disabled:
/// one relaxed atomic load, `f` is never called.
pub fn journal_event(f: impl FnOnce() -> JournalEvent) {
    global_journal().emit(f);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JournalEvent {
        JournalEvent::OuterCandidate {
            grad_accum: 4,
            stages: 2,
            outcome: OuterOutcome::Dominated,
            selector: Some(1.5),
            objective: Some(1.25),
            layers: vec![16, 16],
            incumbent: Some(1.25),
            bound: None,
        }
    }

    #[test]
    fn disabled_journal_never_calls_the_closure() {
        let j = Journal::new();
        j.emit(|| panic!("closure must not run while disabled"));
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn records_are_stamped_and_ordered() {
        let j = Journal::new();
        j.enable();
        j.emit(sample);
        j.emit(|| JournalEvent::Incumbent {
            grad_accum: 1,
            stages: 1,
            selector: 2.0,
            objective: 2.0,
        });
        let records = j.drain();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert_eq!(records[0].event, sample());
        // Seq numbering continues after a drain.
        j.emit(sample);
        assert_eq!(j.drain()[0].seq, 2);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let j = Journal::with_capacity(2);
        j.enable();
        for _ in 0..5 {
            j.emit(sample);
        }
        assert_eq!(j.dropped(), 3);
        let records = j.drain();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 3);
        assert_eq!(records[1].seq, 4);
    }

    #[test]
    fn records_carry_the_enclosing_span_id() {
        let j = Journal::new();
        j.enable();
        let _ctx = crate::parent_scope(42);
        j.emit(sample);
        assert_eq!(j.drain()[0].span, 42);
    }

    #[test]
    fn jsonl_round_trip() {
        let r = JournalRecord {
            seq: 7,
            span: 3,
            event: sample(),
        };
        let line = r.to_jsonl();
        assert!(!line.contains('\n'));
        assert_eq!(JournalRecord::from_jsonl(&line).unwrap(), r);
    }

    #[test]
    fn flush_to_writes_jsonl_lines() {
        let j = Journal::new();
        j.enable();
        j.emit(sample);
        j.emit(sample);
        let mut buf = Vec::new();
        assert_eq!(j.flush_to(&mut buf).unwrap(), 2);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            JournalRecord::from_jsonl(line).unwrap();
        }
        assert!(j.is_empty());
    }
}
