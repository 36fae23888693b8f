//! Mist's imbalance-aware hierarchical auto-tuner (paper §5.3).
//!
//! The tuner decouples the search into:
//!
//! * **Intra-stage tuning** ([`IntraStageTuner`]) — for every pipeline
//!   partitioning candidate `(layer count, mesh, role, inflight)`, find
//!   the Pareto frontier of `(t, d)` pairs over micro-batch/DP/TP
//!   factorizations, ZeRO levels, checkpointing counts and the four
//!   offloading ratios (Eq. 4), using batched symbolic evaluation.
//! * **Inter-stage tuning** ([`solve_inter_stage`]) — Eq. 2 over the
//!   per-stage Pareto samples: choose layer counts and frontier points
//!   that minimize the imbalance-aware pipeline objective (Eq. 1). The
//!   paper uses a MILP solver; here an exact Pareto-state dynamic
//!   program solves it, tested against the brute-force
//!   [`enumerate_inter_stage`].
//! * **The driver** ([`Tuner`]) — enumerates gradient-accumulation steps
//!   and stage counts/device assignments, runs the two levels, and emits
//!   the best [`mist_schedule::TrainingPlan`].
//!
//! Search-space restrictions of prior systems (Megatron-LM, DeepSpeed,
//! Aceso, Alpa, uniform heuristics) are expressed as [`SearchSpace`]
//! presets — the methodology behind the paper's Fig. 13 breakdown.

mod certify;
mod driver;
mod inter;
mod intra;
mod pareto;
mod seed;
mod space;

pub use certify::{certify_plan, CertBound, CertReport, PlanCertificate, StageCert};
pub use driver::{TuneOutcome, TuneStats, Tuner, DEFAULT_MAX_GRAD_ACCUM, MAX_GRAD_ACCUM};
pub use inter::{enumerate_inter_stage, solve_inter_stage, InterSolveStats, InterStageSolution};
pub use intra::{FrontierKey, IntraStageTuner, ParetoPoint};
pub use pareto::{pareto_frontier, sample_frontier};
pub use seed::{BudgetProof, FrontierExport, FrontierRecord, SeedCandidate};
pub use space::{CkptMode, SearchSpace};
