//! Overlap-centric scheduling for Mist (paper §5.1) and the pipeline cost
//! model with inter-microbatch imbalance awareness (§5.3, Eq. 1).
//!
//! This crate owns the vocabulary shared by the tuner, the baselines and
//! the simulator:
//!
//! * [`StagePlan`] / [`TrainingPlan`] — a fully resolved training
//!   configuration (the tuner's output, the executor's input).
//! * [`stage_times`] — folds a stage's per-stream totals through the
//!   interference model `I` into the stable microbatch time `t` and the
//!   first/last-microbatch delta `d` (Eq. 5/6); [`stage_streams`] picks
//!   it or the serial stream sums by the search space's overlap switch,
//!   and [`stage_streams_columns`] does the same for every row of a
//!   compiled batch evaluation.
//! * [`mist_objective`] — the imbalance-aware pipeline iteration time
//!   (Eq. 1), plus the naive variants existing systems use
//!   ([`averaged_objective`], [`stable_only_objective`]) for the
//!   ablations of Figs. 13 and 15.
//! * [`overlap_template`] — the Fig. 7 schedule template: which
//!   computation, GPU↔GPU and CPU↔GPU transfers co-run in each slot.
//! * [`IterationSchedule`] — the event-level lowering consumed by the
//!   `mist-sim` discrete-event simulator.

mod phases;
mod pipeline;
mod plan;
mod template;

pub use phases::{stage_streams, stage_streams_columns, stage_times, StageStreams};
pub use pipeline::{averaged_objective, mist_objective, stable_only_objective};
pub use plan::{IterationSchedule, StageMemory, StagePlan, StageTask, StreamSeconds, TrainingPlan};
pub use template::{overlap_template, OverlapSlot, SlotOp, TemplatePhase};
