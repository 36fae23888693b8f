//! # Mist — memory-parallelism co-optimization for distributed LLM training
//!
//! A from-scratch Rust reproduction of *Mist: Efficient Distributed
//! Training of Large Language Models via Memory-Parallelism
//! Co-Optimization* (Zhu et al., EuroSys 2025).
//!
//! Mist automatically finds the best *joint* configuration of parallelism
//! (data / tensor / pipeline, micro-batching, gradient accumulation) and
//! every GPU-memory-footprint optimization (activation checkpointing,
//! ZeRO-1/2/3, weight/gradient/optimizer-state/activation offloading) for
//! training a transformer on a GPU cluster. Three ideas make the search
//! tractable and accurate:
//!
//! 1. **Overlap-centric scheduling** with an interference model for
//!    concurrently running compute/NCCL/D2H/H2D kernels,
//! 2. **Symbolic performance analysis** — trace once, compile cost
//!    expressions to tapes, evaluate thousands of configurations by
//!    batched value substitution,
//! 3. **Imbalance-aware hierarchical tuning** — intra-stage Pareto
//!    frontiers of (stable time, first/last-microbatch delta) feeding an
//!    exact inter-stage DP for the paper's Eq. 2 MILP.
//!
//! Real GPUs are replaced by a calibrated analytic hardware model plus a
//! discrete-event cluster simulator (see `DESIGN.md` for the substitution
//! map). The end-to-end flow:
//!
//! ```
//! use mist::{MistSession, Platform, presets};
//!
//! let model = presets::gpt3(presets::ModelSize::B1_3, 2048,
//!                           presets::AttentionImpl::Flash);
//! let session = MistSession::builder(model, Platform::GcpL4, 2).build();
//! let outcome = session.tune(8).expect("feasible plan");
//! let measured = session.execute(&outcome);
//! assert!(measured.iteration_time > 0.0);
//! println!("{:.1} samples/s", measured.throughput(8));
//! ```

pub mod cli;
mod explain;
mod lint;
mod report;
mod session;

pub use lint::{lint_model, ModelLint};
pub use report::{AccuracyReport, AccuracySample};
pub use session::{MistSession, SessionBuilder};

pub use mist_baselines::Baseline;
pub use mist_graph::{
    StageAnalyzer, StageCandidate, StageConfigValues, StagePoint, StageRole, StageTapes,
};
pub use mist_hardware::{ClusterSpec, DeviceMesh, GpuSpec, OpCostDb, Platform, GIB};
pub use mist_interference::{fit as fit_interference, InterferenceModel};
pub use mist_schedule::{
    averaged_objective, mist_objective, overlap_template, stable_only_objective, stage_times,
    IterationSchedule, StagePlan, StageStreams, TrainingPlan,
};
pub use mist_sim::{
    benchmark_interference, calibrate, interference_prior, simulate, GroundTruth, SimReport,
    TaskKind,
};
pub use mist_telemetry as telemetry;
pub use mist_tuner::{CkptMode, SearchSpace, TuneOutcome, Tuner};

/// Model presets (GPT-3 / LLaMa / Falcon at Table 4 sizes).
pub mod presets {
    pub use mist_models::{
        falcon, gpt3, gpt3_with_layers, llama, preset, preset_names, AttentionImpl, Family,
        ModelSize, ModelSpec, ModelStats,
    };
}
