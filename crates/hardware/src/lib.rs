//! Hardware models for Mist: GPUs, clusters, links, collectives and the
//! operator cost database.
//!
//! The paper evaluates on real GCP L4 and AWS A100 machines (Table 3) and
//! profiles real kernels into an *operator computation database* (§5.2.1).
//! This crate is the synthetic substitute: a parametric, analytic hardware
//! model exposing the same quantities the tuner consumes — operator
//! runtimes, collective communication times, host-transfer times, and
//! memory capacities. See DESIGN.md for the substitution rationale.
//!
//! Everything is deterministic; the cost database adds a deterministic
//! per-shape "measurement" perturbation so costs behave like profiled
//! numbers (not perfectly smooth analytic curves).

mod cluster;
mod collective;
mod gpu;
mod mesh;
mod opcost;

pub use cluster::{ClusterSpec, LinkSpec, Platform};
pub use collective::{
    all_gather_time, all_reduce_time, broadcast_time, p2p_time, reduce_scatter_time,
};
pub use gpu::GpuSpec;
pub use mesh::DeviceMesh;
pub use opcost::{OpCostDb, OpKind, OpQuery};

/// Bytes per GiB, used throughout memory accounting.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// A per-GPU memory budget given in GiB, in bytes. The byte count must
/// be positive and finite: `1e300` GiB overflows to `+∞` bytes, which
/// no JSON writer can record.
pub fn budget_bytes(gib: f64) -> Result<f64, String> {
    let bytes = gib * GIB;
    if gib > 0.0 && bytes.is_finite() {
        Ok(bytes)
    } else {
        Err(format!(
            "must be a positive number of GiB with a finite byte count, got {gib:?}"
        ))
    }
}
