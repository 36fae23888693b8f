//! Frontier export/seed API for warm-started re-tuning.
//!
//! The planner service caches, next to each `TuneOutcome`, the sampled
//! per-stage Pareto frontiers the tune computed. A later query that
//! differs only in global batch size, node count, or memory cap can
//! *seed* its intra-stage sweep from those frontiers: whenever the new
//! sweep would enumerate exactly the same candidate rows, the cached
//! frontier is reused verbatim and the whole sweep is skipped.
//!
//! # Soundness
//!
//! A sampled frontier for a [`FrontierKey`] is a pure function of
//!
//! * the `(dp, tp, micro_batch)` candidate list (derived from the mesh,
//!   the gradient-accumulation step and the global batch),
//! * the stage role and in-flight microbatch count,
//! * the model/cluster/cost-db/interference context the tapes were
//!   compiled from, the search space, and the memory budget.
//!
//! Global batch and `G` influence the sweep *only* through the candidate
//! list, so a record is reusable exactly when its candidate list matches
//! the list the new sweep would enumerate — which [`FrontierExport::
//! lookup`] checks literally. The caller is responsible for only
//! installing seeds produced under an identical tape context (same
//! model, search space, interference model, and a tape-equivalent
//! cluster); the planner service enforces that via its cache
//! fingerprints.
//!
//! Budget deltas are governed by a [`BudgetProof`] attached to each
//! record:
//!
//! * [`BudgetProof::Fit`] — memory shaped no row: every row resolved to
//!   its mode's budget-free `ckpt` (no OOM rejection and, under tuned
//!   checkpointing, every resolved `ckpt` zero). `mem_hi` is the largest
//!   peak memory of any row the 22-root stage program evaluated. That
//!   program reproduces the checkpoint probes' memory roots bit for bit,
//!   so under any budget `>= mem_hi` — below the recorded one included —
//!   every row resolves and classifies exactly as it did.
//! * [`BudgetProof::Sensitive`] — memory influenced at least one row;
//!   only the exact recorded budget reproduces the sweep.
//!
//! [`FrontierRecord::reusable_under`] applies the rule.
//!
//! Frontier points carry `(t, d, mem_peak)` and the configuration that
//! rebuilds them, not their evaluated [`mist_graph::StagePoint`]s: the
//! driver re-evaluates the winning plan's few points on demand.

use mist_graph::StageRole;
use mist_hardware::DeviceMesh;
use serde::{Deserialize, Serialize};

use crate::intra::ParetoPoint;

/// Why (and under which budgets) a cached frontier record reproduces
/// the sweep that produced it. See the module docs for the soundness
/// argument.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BudgetProof {
    /// Memory shaped no row: the rows are budget-independent under any
    /// budget `>= mem_hi`, even below the recorded one.
    Fit {
        /// Largest peak memory (bytes) of any row the stage program
        /// evaluated; 0 for a sweep without such rows.
        mem_hi: f64,
    },
    /// Memory influenced at least one row (OOM rejection or a nonzero
    /// tuned checkpoint count); exact budget match required.
    Sensitive,
}

/// One `(dp, tp, micro_batch)` parallelism candidate, as enumerated by
/// the intra-stage sweep for a given mesh and `G`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SeedCandidate {
    /// Data-parallel degree.
    pub dp: u32,
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Micro-batch size `b = B / (dp · G)`.
    pub micro_batch: u64,
}

/// One cached frontier family: the sampled Pareto frontiers for every
/// layer count `1..=per_l.len()` of one `(mesh, role, inflight)` stage
/// shape, together with everything needed to decide reuse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierRecord {
    /// Stage device mesh.
    pub mesh: DeviceMesh,
    /// Pipeline role.
    pub role: StageRole,
    /// In-flight microbatches.
    pub inflight: u32,
    /// The exact candidate list the sweep enumerated. Reuse requires
    /// literal equality with the new sweep's list.
    pub candidates: Vec<SeedCandidate>,
    /// Per-GPU memory budget (bytes) the sweep ran under.
    pub budget: f64,
    /// Proof governing reuse under other budgets.
    pub proof: BudgetProof,
    /// `per_l[l - 1]` = sampled frontier for a stage of `l` layers.
    pub per_l: Vec<Vec<ParetoPoint>>,
}

impl FrontierRecord {
    /// The seed identity `(mesh, role, inflight, candidates)`: two
    /// records with equal identities describe the same sweep rows.
    pub fn identity(&self) -> (DeviceMesh, StageRole, u32, &[SeedCandidate]) {
        (self.mesh, self.role, self.inflight, &self.candidates)
    }

    /// Whether this record's frontiers are exactly what a sweep under
    /// `budget` would produce.
    pub fn reusable_under(&self, budget: f64) -> bool {
        budget == self.budget
            || matches!(self.proof, BudgetProof::Fit { mem_hi } if budget >= mem_hi)
    }
}

/// The full set of frontier families one tune computed, in a canonical
/// deterministic order (so serialization is byte-stable).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FrontierExport {
    /// Deduplicated records, canonically sorted.
    pub records: Vec<FrontierRecord>,
}

/// Deterministic ordering index for [`StageRole`] (sorting only).
pub(crate) fn role_rank(role: StageRole) -> u8 {
    match role {
        StageRole::Only => 0,
        StageRole::First => 1,
        StageRole::Middle => 2,
        StageRole::Last => 3,
    }
}

impl FrontierExport {
    /// Whether the export carries no records (uniform-stage spaces).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finds a record whose sweep is provably identical to the one the
    /// caller is about to run: same stage shape, literally equal
    /// candidate list, at least `max_layers` layer families, and a
    /// compatible budget. Records are canonically ordered, so the first
    /// match is deterministic.
    pub fn lookup(
        &self,
        mesh: DeviceMesh,
        role: StageRole,
        inflight: u32,
        candidates: &[SeedCandidate],
        budget: f64,
        max_layers: u32,
    ) -> Option<&FrontierRecord> {
        self.records.iter().find(|r| {
            r.identity() == (mesh, role, inflight, candidates)
                && r.per_l.len() >= max_layers as usize
                && r.reusable_under(budget)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(budget: f64, proof: BudgetProof) -> FrontierRecord {
        FrontierRecord {
            mesh: DeviceMesh::new(1, 4),
            role: StageRole::Only,
            inflight: 1,
            candidates: vec![SeedCandidate {
                dp: 2,
                tp: 2,
                micro_batch: 4,
            }],
            budget,
            proof,
            per_l: vec![Vec::new(); 8],
        }
    }

    #[test]
    fn budget_reuse_rules() {
        let sensitive = record(10.0, BudgetProof::Sensitive);
        assert!(sensitive.reusable_under(10.0), "exact budget always ok");
        assert!(!sensitive.reusable_under(20.0));
        assert!(!sensitive.reusable_under(5.0));
        let fit = record(10.0, BudgetProof::Fit { mem_hi: 4.0 });
        assert!(fit.reusable_under(10.0));
        assert!(fit.reusable_under(20.0), "upward reuse is sound");
        assert!(fit.reusable_under(4.0), "and downward reuse to mem_hi");
        assert!(!fit.reusable_under(3.0), "but never below the bound");
    }

    #[test]
    fn lookup_requires_exact_candidates_and_length() {
        let rec = record(10.0, BudgetProof::Fit { mem_hi: 4.0 });
        let export = FrontierExport {
            records: vec![rec.clone()],
        };
        let mesh = DeviceMesh::new(1, 4);
        let cands = rec.candidates.clone();
        assert!(export
            .lookup(mesh, StageRole::Only, 1, &cands, 10.0, 8)
            .is_some());
        // Longer than recorded: no reuse.
        assert!(export
            .lookup(mesh, StageRole::Only, 1, &cands, 10.0, 9)
            .is_none());
        // Different candidate list: no reuse.
        let other = vec![SeedCandidate {
            dp: 4,
            tp: 1,
            micro_batch: 2,
        }];
        assert!(export
            .lookup(mesh, StageRole::Only, 1, &other, 10.0, 8)
            .is_none());
        // Different role / inflight: no reuse.
        assert!(export
            .lookup(mesh, StageRole::First, 1, &cands, 10.0, 8)
            .is_none());
        assert!(export
            .lookup(mesh, StageRole::Only, 2, &cands, 10.0, 8)
            .is_none());
    }
}
