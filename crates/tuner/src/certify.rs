//! Plan certificates: independent re-derivation of a plan's claims.
//!
//! The tuner's sweep machinery is fast because it is heavily batched,
//! compiled and pruned — which makes it exactly the wrong code to
//! trust blindly. A [`PlanCertificate`] is produced by a *separate*
//! path with none of those optimizations: each chosen stage candidate
//! is re-analyzed from scratch with [`StageAnalyzer`], its symbolic
//! program is pushed through the `mist-irlint` interval framework with
//! every search symbol pinned to the chosen configuration value, and
//! the resulting root bounds must
//!
//! 1. contain the [`StagePoint`] values the tuner reported (the sweep
//!    and the framework agree on all 22 roots),
//! 2. prove both peak-memory roots fit the per-GPU budget, and
//! 3. reproduce the reported Eq. 1 objective when folded through the
//!    interference model (or costed serially, for overlap-unaware
//!    baseline spaces).
//!
//! [`certify_plan`] runs the check and emits a
//! [`CertCheck`](mist_telemetry::JournalEvent::CertCheck) journal
//! event. It is called in three phases: `"tune"` (the tuner certifies
//! its own output), `"serve"` (`mist-service` re-checks a cached or
//! warm-started plan before serving it), and `"verify"` (`mist-cli
//! verify-plan` re-derives the certificate offline).

use mist_graph::{stage_roots, StageAnalyzer, StagePoint};
use mist_hardware::{ClusterSpec, OpCostDb};
use mist_interference::InterferenceModel;
use mist_irlint::{root_intervals, DomainMap, SymbolDomain};
use mist_models::ModelSpec;
use mist_schedule::{mist_objective, stage_streams, StageStreams, TrainingPlan};
use serde::{Deserialize, Serialize};

/// Relative tolerance for containment and objective agreement. The
/// sweep and the framework execute the same SSA instructions in the
/// same order, so disagreement beyond float noise means one of them is
/// wrong (or the plan was tampered with).
const REL_TOL: f64 = 1e-9;

/// One root's re-derived interval bound at the chosen configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CertBound {
    /// Root label (e.g. `mem_fwd`).
    pub label: String,
    /// Interval lower bound.
    pub lo: f64,
    /// Interval upper bound.
    pub hi: f64,
}

/// Re-derived facts about one pipeline stage of a certified plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageCert {
    /// Stage index in pipeline order.
    pub stage: u32,
    /// Re-derived peak forward-memory bound (bytes).
    pub mem_fwd: CertBound,
    /// Re-derived peak backward-memory bound (bytes).
    pub mem_bwd: CertBound,
    /// Number of program roots whose bounds were checked against the
    /// recorded stage point (all of them, or the check failed).
    pub roots_checked: u32,
}

/// An independently re-derived proof that a [`TrainingPlan`]'s memory
/// and cost claims hold. Carried on every
/// [`TuneOutcome`](crate::TuneOutcome).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlanCertificate {
    /// Per-GPU memory budget the memory roots were proven against
    /// (bytes).
    pub budget: f64,
    /// Eq. 1 objective recomputed from the recorded stage points
    /// through the interference model (seconds).
    pub objective: f64,
    /// Per-stage re-derived bounds.
    pub stages: Vec<StageCert>,
}

/// The result of [`certify_plan`]: the re-derived certificate plus
/// every check that failed (empty means the plan is certified).
#[derive(Debug, Clone)]
pub struct CertReport {
    /// The re-derived certificate.
    pub certificate: PlanCertificate,
    /// Human-readable failure descriptions; empty when certified.
    pub failures: Vec<String>,
}

impl CertReport {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// `v` is inside `[lo, hi]` up to float noise.
fn contains(lo: f64, hi: f64, v: f64) -> bool {
    let tol = REL_TOL * v.abs().max(1.0);
    v >= lo - tol && v <= hi + tol
}

/// The 22 recorded values of a stage point in `stage_roots` order.
fn point_values(p: &StagePoint) -> [f64; stage_roots::COUNT] {
    let mut vals = [0.0; stage_roots::COUNT];
    vals[stage_roots::MEM_FWD] = p.mem_fwd;
    vals[stage_roots::MEM_BWD] = p.mem_bwd;
    vals[stage_roots::MEM_RESIDENT] = p.mem_resident;
    vals[stage_roots::MEM_ACT_PER_MB] = p.mem_act_per_mb;
    vals[stage_roots::MEM_TRANSIENT_FWD] = p.mem_transient_fwd;
    vals[stage_roots::MEM_TRANSIENT_BWD] = p.mem_transient_bwd;
    vals[stage_roots::FWD..stage_roots::FWD + 4].copy_from_slice(&p.fwd);
    vals[stage_roots::BWD..stage_roots::BWD + 4].copy_from_slice(&p.bwd);
    vals[stage_roots::FIRST_EXTRA..stage_roots::FIRST_EXTRA + 4].copy_from_slice(&p.first_extra);
    vals[stage_roots::LAST_EXTRA..stage_roots::LAST_EXTRA + 4].copy_from_slice(&p.last_extra);
    vals
}

/// Independently re-derives and checks a plan's certificate.
///
/// `overlap_aware` must match the search space the plan came from: it
/// selects how [`stage_streams`] folds the stage points (interference
/// model, or the serial sums of restricted baselines such as Aceso).
/// `phase` tags the emitted `CertCheck` journal event: `"tune"`,
/// `"serve"` or `"verify"`.
#[allow(clippy::too_many_arguments)]
pub fn certify_plan(
    model: &ModelSpec,
    cluster: &ClusterSpec,
    db: &OpCostDb,
    interference: &InterferenceModel,
    plan: &TrainingPlan,
    stage_points: &[StagePoint],
    predicted_iteration: f64,
    budget: f64,
    overlap_aware: bool,
    phase: &str,
) -> CertReport {
    let _span = mist_telemetry::span!("tuner.certify", stages = plan.stages.len());
    let mut failures = Vec::new();
    let mut stages = Vec::new();

    if let Err(e) = plan.validate() {
        failures.push(format!("plan validation: {e}"));
    }
    if stage_points.len() != plan.stages.len() {
        failures.push(format!(
            "{} stage points for {} plan stages",
            stage_points.len(),
            plan.stages.len()
        ));
    }

    let analyzer = StageAnalyzer::new(model, cluster, db);
    for (i, (st, point)) in plan.stages.iter().zip(stage_points).enumerate() {
        if !st.candidate.mesh.supports(st.candidate.dp, st.candidate.tp) {
            failures.push(format!(
                "stage {i}: (dp={}, tp={}) does not factor mesh {:?}",
                st.candidate.dp, st.candidate.tp, st.candidate.mesh
            ));
            continue;
        }
        let tapes = analyzer.analyze(&st.candidate);
        // Pin all eight search symbols to the chosen configuration; the
        // interval framework then re-derives every root from first
        // principles, independent of the sweep's batching and pruning.
        let mut domains = DomainMap::new();
        let integral = ["L", "ckpt", "zero", "inflight"];
        for (sym, v) in st.config.bindings() {
            domains = domains.declare(sym, SymbolDomain::point(v, integral.contains(&sym)));
        }
        let bounds = root_intervals(&tapes.program, &domains);
        let vals = point_values(point);
        if bounds.len() != vals.len() {
            failures.push(format!(
                "stage {i}: {} root bounds for {} recorded values",
                bounds.len(),
                vals.len()
            ));
            continue;
        }
        for (b, &v) in bounds.iter().zip(&vals) {
            if b.may_nonfinite {
                failures.push(format!("stage {i}: root {} may be non-finite", b.label));
            } else if !contains(b.lo, b.hi, v) {
                failures.push(format!(
                    "stage {i}: recorded {} = {v} outside derived [{}, {}]",
                    b.label, b.lo, b.hi
                ));
            }
        }
        let mem_tol = budget.abs() * REL_TOL;
        for idx in [stage_roots::MEM_FWD, stage_roots::MEM_BWD] {
            let b = &bounds[idx];
            // NaN upper bounds are caught by the may_nonfinite check
            // above, so a plain comparison suffices here.
            if b.hi > budget + mem_tol {
                failures.push(format!(
                    "stage {i}: {} upper bound {} exceeds budget {budget}",
                    b.label, b.hi
                ));
            }
        }
        let cert_bound = |idx: usize| CertBound {
            label: bounds[idx].label.clone(),
            lo: bounds[idx].lo,
            hi: bounds[idx].hi,
        };
        stages.push(StageCert {
            stage: i as u32,
            mem_fwd: cert_bound(stage_roots::MEM_FWD),
            mem_bwd: cert_bound(stage_roots::MEM_BWD),
            roots_checked: vals.len() as u32,
        });
    }

    // Fold the recorded points through the interference model and Eq. 1
    // exactly as the driver does; the reported objective must agree.
    let objective = if stage_points.is_empty() {
        failures.push("plan has no stage points to fold into Eq. 1".into());
        f64::NAN
    } else {
        let streams: Vec<StageStreams> = stage_points
            .iter()
            .map(|p| stage_streams(p, interference, overlap_aware))
            .collect();
        let obj = mist_objective(&streams, plan.grad_accum.max(1));
        if !contains(obj, obj, predicted_iteration) {
            failures.push(format!(
                "reported objective {predicted_iteration} disagrees with re-derived {obj}"
            ));
        }
        obj
    };

    mist_telemetry::journal_event(|| mist_telemetry::JournalEvent::CertCheck {
        phase: phase.to_owned(),
        stages: plan.stages.len() as u32,
        ok: failures.is_empty(),
        failures: failures.clone(),
    });

    CertReport {
        certificate: PlanCertificate {
            budget,
            objective,
            stages,
        },
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SearchSpace, Tuner};
    use mist_hardware::{GpuSpec, Platform};
    use mist_models::{gpt3, AttentionImpl, ModelSize};

    fn certified_outcome() -> (
        ModelSpec,
        ClusterSpec,
        OpCostDb,
        InterferenceModel,
        crate::TuneOutcome,
    ) {
        let model = gpt3(ModelSize::B1_3, 2048, AttentionImpl::Flash);
        let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 2);
        let db = OpCostDb::new(GpuSpec::l4());
        let intf = InterferenceModel::pcie_defaults();
        let space = SearchSpace::mist();
        let out = Tuner::new(&model, &cluster, &db, &space, &intf)
            .with_max_grad_accum(8)
            .tune(8)
            .expect("1.3B on 2 GPUs must be tunable");
        (model, cluster, db, intf, out)
    }

    #[test]
    fn tuned_plan_certifies() {
        let (model, cluster, db, intf, out) = certified_outcome();
        let report = certify_plan(
            &model,
            &cluster,
            &db,
            &intf,
            &out.plan,
            &out.stage_points,
            out.predicted_iteration,
            cluster.gpu.memory_bytes,
            true,
            "verify",
        );
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert_eq!(report.certificate, out.certificate);
        assert_eq!(report.certificate.stages.len(), out.plan.stages.len());
        for st in &report.certificate.stages {
            assert!(st.mem_fwd.hi <= cluster.gpu.memory_bytes);
            assert!(st.roots_checked == stage_roots::COUNT as u32);
        }
    }

    #[test]
    fn corrupted_memory_claim_is_rejected() {
        let (model, cluster, db, intf, mut out) = certified_outcome();
        out.stage_points[0].mem_fwd *= 2.0;
        let report = certify_plan(
            &model,
            &cluster,
            &db,
            &intf,
            &out.plan,
            &out.stage_points,
            out.predicted_iteration,
            cluster.gpu.memory_bytes,
            true,
            "verify",
        );
        assert!(!report.ok());
        assert!(
            report.failures.iter().any(|f| f.contains("mem_fwd")),
            "failures must name the tampered root: {:?}",
            report.failures
        );
    }

    #[test]
    fn corrupted_objective_is_rejected() {
        let (model, cluster, db, intf, out) = certified_outcome();
        let report = certify_plan(
            &model,
            &cluster,
            &db,
            &intf,
            &out.plan,
            &out.stage_points,
            out.predicted_iteration * 0.5,
            cluster.gpu.memory_bytes,
            true,
            "verify",
        );
        assert!(!report.ok());
        assert!(report.failures.iter().any(|f| f.contains("objective")));
    }

    #[test]
    fn shrunk_budget_fails_the_memory_proof() {
        let (model, cluster, db, intf, out) = certified_outcome();
        let tight = out
            .stage_points
            .iter()
            .map(|p| p.mem_peak())
            .fold(0.0, f64::max)
            * 0.5;
        let report = certify_plan(
            &model,
            &cluster,
            &db,
            &intf,
            &out.plan,
            &out.stage_points,
            out.predicted_iteration,
            tight,
            true,
            "verify",
        );
        assert!(!report.ok());
        assert!(report.failures.iter().any(|f| f.contains("budget")));
    }

    #[test]
    fn tampered_plan_shape_is_rejected() {
        let (model, cluster, db, intf, mut out) = certified_outcome();
        out.plan.stages[0].config.inflight += 1;
        let report = certify_plan(
            &model,
            &cluster,
            &db,
            &intf,
            &out.plan,
            &out.stage_points,
            out.predicted_iteration,
            cluster.gpu.memory_bytes,
            true,
            "verify",
        );
        assert!(!report.ok(), "1F1B inflight violation must fail validate");
    }
}
