//! The `mist-cli lint-ir` command: drives the `mist-irlint` static
//! analyzer over the fused stage programs the symbolic compiler emits.
//!
//! For each model preset the driver builds a 4-GPU probe candidate in
//! every pipeline role, compiles the full 22-root stage program plus the
//! 2-root memory pair, and lints both against the declared stage units
//! ([`mist_graph::stage_unit_registry`]) and the symbol domains of the
//! chosen search space (`SearchSpace::symbol_domains`). A clean run
//! proves — statically, before any tuning sweep — that every cost root
//! is dimensionally consistent, finite, and non-negative over the whole
//! space.

use mist_graph::{stage_unit_registry, StageAnalyzer, StageCandidate, StageRole};
use mist_hardware::{ClusterSpec, DeviceMesh, OpCostDb, Platform};
use mist_irlint::LintReport;
use mist_models::ModelSpec;
use mist_tuner::SearchSpace;

/// Lint reports for every probe program of one model preset.
#[derive(Debug)]
pub struct ModelLint {
    /// The preset's name (e.g. `gpt3-6.7b`).
    pub model: String,
    /// One report per `(role, program)` pair, in role order with the
    /// fused 22-root program before the memory pair.
    pub reports: Vec<LintReport>,
}

impl ModelLint {
    /// Total error-severity diagnostics across all reports.
    pub fn error_count(&self) -> usize {
        self.reports.iter().map(LintReport::error_count).sum()
    }

    /// Total warning-severity diagnostics across all reports.
    pub fn warning_count(&self) -> usize {
        self.reports.iter().map(LintReport::warning_count).sum()
    }

    /// Total info-severity diagnostics across all reports.
    pub fn info_count(&self) -> usize {
        self.reports.iter().map(LintReport::info_count).sum()
    }
}

/// Lints the stage programs of `model` over `space`'s symbol domains.
///
/// The probe cluster is a single 4-GPU node of the given platform with a
/// `dp=2, tp=2` mesh split — large enough to exercise every collective
/// (all-gather, reduce, P2P) in the compiled expressions; the lint
/// verdict is about the *structure* of the programs, which does not
/// change with the candidate's scale.
pub fn lint_model(model: &ModelSpec, platform: Platform, space: &SearchSpace) -> ModelLint {
    let cluster = ClusterSpec::for_gpu_count(platform, 4);
    let db = OpCostDb::new(cluster.gpu.clone());
    let analyzer = StageAnalyzer::new(model, &cluster, &db);
    let registry = stage_unit_registry();
    let domains = space.symbol_domains(model);
    let mut reports = Vec::new();
    for role in [
        StageRole::First,
        StageRole::Middle,
        StageRole::Last,
        StageRole::Only,
    ] {
        let tapes = analyzer.analyze(&StageCandidate {
            mesh: DeviceMesh::new(1, 4),
            dp: 2,
            tp: 2,
            micro_batch: 2,
            role,
        });
        let tag = match role {
            StageRole::First => "first",
            StageRole::Middle => "middle",
            StageRole::Last => "last",
            StageRole::Only => "only",
        };
        for (program, kind) in [(&tapes.program, "stage"), (&tapes.mem_pair, "mem_pair")] {
            reports.push(mist_irlint::lint_program(
                program,
                &registry,
                &domains,
                &format!("{}/{tag}/{kind}", model.name),
            ));
        }
    }
    ModelLint {
        model: model.name.clone(),
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mist_models::{gpt3, AttentionImpl, ModelSize};

    #[test]
    fn preset_lints_clean_over_the_mist_space() {
        let model = gpt3(ModelSize::B1_3, 2048, AttentionImpl::Flash);
        let lint = lint_model(&model, Platform::GcpL4, &SearchSpace::mist());
        assert_eq!(lint.reports.len(), 8);
        assert_eq!(lint.error_count(), 0, "{:#?}", lint.reports);
        assert_eq!(lint.warning_count(), 0, "{:#?}", lint.reports);
    }
}
