//! Baseline distributed-training systems as restricted search spaces.
//!
//! The paper compares Mist against Megatron-LM, DeepSpeed, Aceso and Alpa
//! (§6.1). All of them optimize the same physical problem with (a) a
//! smaller optimization space and (b) a less accurate predictor; this
//! crate pins down those restrictions (see `SearchSpace` presets in
//! `mist-tuner`) and provides a uniform driver so experiment harnesses
//! can sweep every system with one call.
//!
//! The paper's methodology for the *manual* systems (Megatron-LM,
//! DeepSpeed) is a grid search over their configuration space, keeping
//! the best measured result; for the *automatic* systems (Aceso, Alpa)
//! the system's own — flawed — predictor picks the plan, which is then
//! measured. The same split is reproduced here: every baseline's plan
//! selection runs through `mist-tuner` with the preset's awareness flags,
//! and the chosen plan is executed on the `mist-sim` cluster by the
//! caller.

use mist_hardware::{ClusterSpec, OpCostDb};
use mist_interference::InterferenceModel;
use mist_models::ModelSpec;
use mist_tuner::{SearchSpace, TuneOutcome, Tuner};
use serde::{Deserialize, Serialize};

/// The baseline systems of the evaluation (§6.1), plus the
/// uniform-heuristic strawman of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Baseline {
    /// Megatron-LM: manual, parallelism + full recompute + distributed
    /// optimizer; grid-searched.
    MegatronLM,
    /// DeepSpeed: manual, adds ZeRO-2/3; grid-searched.
    DeepSpeed,
    /// Aceso: automatic, per-stage recompute tuning, no sharded DP /
    /// offloading, overlap- and imbalance-unaware predictor.
    Aceso,
    /// Alpa: automatic parallelism with full recompute.
    Alpa,
    /// Yuan et al.'s uniform-stage heuristic (§3.3): Mist's space forced
    /// uniform across stages.
    UniformHeuristic,
}

impl Baseline {
    /// All baselines in presentation order.
    pub fn all() -> [Baseline; 5] {
        [
            Baseline::MegatronLM,
            Baseline::DeepSpeed,
            Baseline::Aceso,
            Baseline::Alpa,
            Baseline::UniformHeuristic,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::MegatronLM => "Megatron-LM",
            Baseline::DeepSpeed => "DeepSpeed",
            Baseline::Aceso => "Aceso",
            Baseline::Alpa => "Alpa",
            Baseline::UniformHeuristic => "Uniform heuristic",
        }
    }

    /// The search space + predictor restrictions of this system.
    pub fn space(&self) -> SearchSpace {
        match self {
            Baseline::MegatronLM => SearchSpace::megatron(),
            Baseline::DeepSpeed => SearchSpace::deepspeed(),
            Baseline::Aceso => SearchSpace::aceso(),
            Baseline::Alpa => SearchSpace::alpa(),
            Baseline::UniformHeuristic => SearchSpace {
                name: "uniform-heuristic".into(),
                uniform_stages: true,
                ..SearchSpace::mist()
            },
        }
    }

    /// Tunes this baseline's best plan for a workload.
    ///
    /// Returns `None` when the baseline's space has no feasible
    /// configuration (e.g. Alpa on memory-tight L4 workloads, §6.1).
    pub fn tune(
        &self,
        model: &ModelSpec,
        cluster: &ClusterSpec,
        db: &OpCostDb,
        interference: &InterferenceModel,
        global_batch: u64,
    ) -> Option<TuneOutcome> {
        let space = self.space();
        Tuner::new(model, cluster, db, &space, interference).tune(global_batch)
    }
}

/// The search-space preset names [`space_preset`] accepts, in listing
/// order: Mist's two spaces, then one per [`Baseline`].
pub const SPACE_PRESETS: [&str; 7] = [
    "mist",
    "mist-fine",
    "megatron",
    "deepspeed",
    "aceso",
    "alpa",
    "uniform",
];

/// Resolves a search-space preset name (any case; `megatron-lm` is an
/// alias of `megatron`).
pub fn space_preset(name: &str) -> Result<SearchSpace, String> {
    match name.to_ascii_lowercase().as_str() {
        "mist" => Ok(SearchSpace::mist()),
        "mist-fine" => Ok(SearchSpace::mist_fine()),
        "megatron" | "megatron-lm" => Ok(Baseline::MegatronLM.space()),
        "deepspeed" => Ok(Baseline::DeepSpeed.space()),
        "aceso" => Ok(Baseline::Aceso.space()),
        "alpa" => Ok(Baseline::Alpa.space()),
        "uniform" => Ok(Baseline::UniformHeuristic.space()),
        other => Err(format!("unknown search space `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mist_hardware::{GpuSpec, Platform};
    use mist_models::{gpt3, AttentionImpl, ModelSize};

    #[test]
    fn names_and_spaces_are_consistent() {
        for b in Baseline::all() {
            assert!(!b.name().is_empty());
            let s = b.space();
            match b {
                Baseline::MegatronLM | Baseline::DeepSpeed => assert!(s.uniform_stages),
                Baseline::Aceso => {
                    assert!(!s.overlap_aware);
                    assert!(!s.imbalance_aware);
                }
                Baseline::Alpa => assert_eq!(s.ckpt, mist_tuner::CkptMode::Full),
                Baseline::UniformHeuristic => {
                    assert!(s.uniform_stages);
                    assert!(s.imbalance_aware);
                }
            }
        }
    }

    #[test]
    fn baselines_tune_small_workload() {
        let model = gpt3(ModelSize::B1_3, 2048, AttentionImpl::Flash);
        let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 2);
        let db = OpCostDb::new(GpuSpec::l4());
        let intf = InterferenceModel::pcie_defaults();
        for b in [Baseline::MegatronLM, Baseline::Aceso] {
            let out = b.tune(&model, &cluster, &db, &intf, 8);
            assert!(out.is_some(), "{} found no plan", b.name());
            assert_eq!(out.unwrap().plan.validate(), Ok(()));
        }
    }
}
