//! Discrete-event multi-GPU training simulator.
//!
//! This crate is the synthetic substitute for the paper's physical
//! testbeds: it *executes* an [`IterationSchedule`] event by event —
//! per-stage 1F1B task ordering, cross-stage activation/gradient
//! dependencies, per-task engine occupancy — and reports measured
//! iteration time and per-stage peak memory. The symbolic analyzer's
//! predictions are validated against these measurements exactly as the
//! paper validates against real runs (§6.6).
//!
//! To keep the measurement honest, the simulator owns a *hidden*
//! ground-truth interference law ([`GroundTruth`]) whose slowdown factors
//! differ from the analyzer defaults and which adds deterministic
//! per-task jitter; the analyzer's interference model must be *fitted* to
//! benchmark samples produced by [`benchmark_interference`] — the same
//! data-driven loop the paper runs on real hardware. [`calibrate`] runs
//! that loop with the one recipe every front door shares.

mod ledger;
mod run;
mod trace;
mod truth;

pub use ledger::MemoryLedger;
pub use run::{simulate, SimReport, TaskKind, TaskRecord};
pub use trace::STREAM_LANES;
pub use truth::{benchmark_interference, calibrate, interference_prior, GroundTruth, DEFAULT_SEED};
