//! Traced operator representation.

use mist_hardware::OpQuery;
use serde::{Deserialize, Serialize};

/// What a traced op does, from the analyzer's point of view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TracedOpKind {
    /// A GPU kernel: costed via the operator database.
    Compute {
        /// Cost-database query with concrete shapes.
        query: OpQuery,
        /// Backward-pass cost as a multiple of the forward cost (dgrad +
        /// wgrad for GEMMs ≈ 2×; FlashAttention backward ≈ 2.5×).
        bwd_factor: f64,
    },
    /// A GPU↔GPU collective on the TP group (activations all-reduce).
    TpComm {
        /// Bytes moved in the forward direction.
        fwd_bytes: f64,
        /// Bytes moved in the backward direction.
        bwd_bytes: f64,
    },
    /// A no-kernel op (residual add handled in-place by fusion).
    Free,
}

/// One node of a traced layer graph.
///
/// `out_bytes` is the op's output tensor (live until its last consumer in
/// the forward pass); `saved_bytes` is what must survive until the backward
/// pass (activation stash). Both are per-GPU, already TP-sharded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracedOp {
    /// Qualified name, e.g. `"attn.qkv_proj"`.
    pub name: String,
    /// Kind and cost info.
    pub kind: TracedOpKind,
    /// Output tensor bytes (transient, forward pass).
    pub out_bytes: f64,
    /// Bytes stashed for the backward pass.
    pub saved_bytes: f64,
}
