//! Symbolic computational-graph analysis for Mist (paper §5.2).
//!
//! The pipeline mirrors the paper's symbolic analysis system:
//!
//! 1. **Tracing** ([`trace_layer`]) — walk a model's layer structure
//!    and materialize a [`TracedLayer`]: one op per kernel with its cost
//!    database query, output/saved tensor sizes, and communication bytes.
//!    This substitutes the paper's symbolic `torch.fx` trace; shapes come
//!    from the model spec instead of fake tensors.
//! 2. **Liveness analysis** ([`profile_layer`]) — forward and
//!    (fake-)backward walks over the traced ops to find the transient
//!    memory high-water mark, the bytes stashed for backward, and the
//!    aggregate compute/communication times per layer.
//! 3. **Stage analysis** ([`StageAnalyzer`]) — assemble, for one
//!    candidate (micro-batch, DP, TP, mesh) tuple, *symbolic expressions*
//!    for peak memory and for the four per-stream time totals of both a
//!    stable microbatch and the first/last microbatch delta, fused into
//!    one multi-root [`Program`](mist_symbolic::Program) over the
//!    optimization symbols `(L, ckpt, zero, wo, go, oo, ao, inflight)`.
//!
//! That program is where the search-space explosion is tamed: one build,
//! then tens of thousands of configurations evaluated by value
//! substitution through its compiled form ([`StageTapes::compiled`]).

mod analyze;
mod liveness;
mod op;
mod trace;

pub use analyze::{
    stage_domains, stage_roots, stage_unit_registry, StageAnalyzer, StageCandidate,
    StageConfigValues, StagePoint, StageRole, StageTapes, SYMS,
};
pub use liveness::{profile_layer, LayerProfile};
pub use op::{TracedOp, TracedOpKind};
pub use trace::{trace_layer, TracedLayer};
