//! The end-to-end Mist session: calibrate → tune → execute.

use mist_graph::StageAnalyzer;
use mist_hardware::{ClusterSpec, OpCostDb, Platform};
use mist_interference::InterferenceModel;
use mist_models::ModelSpec;
use mist_schedule::IterationSchedule;
use mist_sim::{calibrate, interference_prior, simulate, GroundTruth, SimReport};
use mist_tuner::{SearchSpace, TuneOutcome, Tuner, DEFAULT_MAX_GRAD_ACCUM};

use crate::report::{AccuracyReport, AccuracySample};

/// Builder for a [`MistSession`].
pub struct SessionBuilder {
    model: ModelSpec,
    cluster: ClusterSpec,
    space: SearchSpace,
    fit_interference: bool,
    max_grad_accum: u32,
    seed: u64,
}

impl SessionBuilder {
    /// Chooses the search space (defaults to full Mist).
    pub fn space(mut self, space: SearchSpace) -> Self {
        self.space = space;
        self
    }

    /// Disables the interference-fitting calibration pass (the tuner then
    /// uses the platform's prior factors).
    pub fn skip_interference_fit(mut self) -> Self {
        self.fit_interference = false;
        self
    }

    /// Caps the gradient-accumulation sweep.
    pub fn max_grad_accum(mut self, cap: u32) -> Self {
        self.max_grad_accum = cap;
        self
    }

    /// Seeds the calibration benchmarks.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Calibrates and builds the session.
    pub fn build(self) -> MistSession {
        let db = OpCostDb::new(self.cluster.gpu.clone());
        let interference = if self.fit_interference {
            calibrate(self.cluster.platform, self.seed)
        } else {
            interference_prior(self.cluster.platform)
        };
        MistSession {
            model: self.model,
            cluster: self.cluster,
            db,
            space: self.space,
            interference,
            max_grad_accum: self.max_grad_accum,
        }
    }
}

/// A tuned-and-executable Mist deployment for one model on one cluster.
pub struct MistSession {
    model: ModelSpec,
    cluster: ClusterSpec,
    db: OpCostDb,
    space: SearchSpace,
    interference: InterferenceModel,
    max_grad_accum: u32,
}

impl MistSession {
    /// Starts building a session for `total_gpus` GPUs of `platform`
    /// (Table 3 shapes).
    pub fn builder(model: ModelSpec, platform: Platform, total_gpus: u32) -> SessionBuilder {
        Self::builder_with_cluster(model, ClusterSpec::for_gpu_count(platform, total_gpus))
    }

    /// Builder from an explicit cluster spec.
    pub fn builder_with_cluster(model: ModelSpec, cluster: ClusterSpec) -> SessionBuilder {
        SessionBuilder {
            model,
            cluster,
            space: SearchSpace::mist(),
            fit_interference: true,
            max_grad_accum: DEFAULT_MAX_GRAD_ACCUM,
            seed: mist_sim::DEFAULT_SEED,
        }
    }

    /// The model being tuned.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The cluster being targeted.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The calibrated interference model.
    pub fn interference(&self) -> &InterferenceModel {
        &self.interference
    }

    /// The operator-cost database.
    pub fn cost_db(&self) -> &OpCostDb {
        &self.db
    }

    /// The active search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Runs Mist's hierarchical auto-tuner for a global batch size.
    pub fn tune(&self, global_batch: u64) -> Option<TuneOutcome> {
        Tuner::new(
            &self.model,
            &self.cluster,
            &self.db,
            &self.space,
            &self.interference,
        )
        .with_max_grad_accum(self.max_grad_accum)
        .tune(global_batch)
    }

    /// Executes a tuned plan on the discrete-event cluster simulator and
    /// returns the *measured* report.
    pub fn execute(&self, outcome: &TuneOutcome) -> SimReport {
        let schedule =
            IterationSchedule::from_points(outcome.plan.grad_accum, &outcome.stage_points);
        simulate(&schedule, &GroundTruth::for_platform(self.cluster.platform))
    }

    /// Executes an arbitrary plan (re-analyzing its stages first).
    pub fn execute_plan(&self, plan: &mist_schedule::TrainingPlan) -> SimReport {
        let analyzer = StageAnalyzer::new(&self.model, &self.cluster, &self.db);
        let tapes: Vec<_> = plan
            .stages
            .iter()
            .map(|s| analyzer.analyze(&s.candidate))
            .collect();
        let schedule = IterationSchedule::from_plan(plan, &tapes);
        simulate(&schedule, &GroundTruth::for_platform(self.cluster.platform))
    }

    /// Prediction-accuracy study (§6.6): tunes plans across several batch
    /// sizes, compares the analyzer's predicted iteration time and peak
    /// memory against the simulator's measurements.
    pub fn accuracy_report(&self, batch_sizes: &[u64]) -> AccuracyReport {
        let mut samples = Vec::new();
        for &b in batch_sizes {
            let Some(outcome) = self.tune(b) else {
                continue;
            };
            let measured = self.execute(&outcome);
            let predicted_mem = outcome
                .stage_points
                .iter()
                .map(|p| p.mem_fwd.max(p.mem_bwd))
                .fold(0.0, f64::max);
            let measured_mem = measured.stage_peak_mem.iter().cloned().fold(0.0, f64::max);
            samples.push(AccuracySample {
                global_batch: b,
                predicted_time: outcome.predicted_iteration,
                measured_time: measured.iteration_time,
                predicted_mem,
                measured_mem,
            });
        }
        AccuracyReport::from_samples(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mist_models::{gpt3, AttentionImpl, ModelSize};

    fn small_session() -> MistSession {
        let model = gpt3(ModelSize::B1_3, 2048, AttentionImpl::Flash);
        MistSession::builder(model, Platform::GcpL4, 2)
            .max_grad_accum(8)
            .build()
    }

    #[test]
    fn tune_and_execute_round_trip() {
        let session = small_session();
        let outcome = session.tune(8).expect("feasible plan");
        let report = session.execute(&outcome);
        assert!(report.iteration_time > 0.0);
        // The measured time should be in the ballpark of the prediction
        // (the §6.6 study quantifies this precisely).
        let rel =
            (report.iteration_time - outcome.predicted_iteration).abs() / report.iteration_time;
        assert!(rel < 0.35, "prediction off by {:.1}%", rel * 100.0);
        // Memory must fit the GPU.
        for &m in &report.stage_peak_mem {
            assert!(m <= session.cluster().gpu.memory_bytes * 1.05);
        }
    }

    #[test]
    fn execute_plan_matches_execute_points() {
        let session = small_session();
        let outcome = session.tune(8).unwrap();
        let a = session.execute(&outcome);
        let b = session.execute_plan(&outcome.plan);
        let rel = (a.iteration_time - b.iteration_time).abs() / a.iteration_time;
        assert!(rel < 1e-9, "point-lowering and plan-lowering must agree");
    }

    #[test]
    fn fitted_interference_differs_from_prior() {
        let session = small_session();
        let prior = InterferenceModel::pcie_defaults();
        assert_ne!(
            session.interference(),
            &prior,
            "calibration must adjust factors"
        );
    }

    #[test]
    fn accuracy_report_has_small_errors() {
        let session = small_session();
        let report = session.accuracy_report(&[4, 8]);
        assert!(report.samples.len() == 2);
        assert!(
            report.mean_time_error < 0.25,
            "mean runtime error {:.1}%",
            report.mean_time_error * 100.0
        );
        assert!(
            report.mean_mem_error < 0.10,
            "mean memory error {:.1}%",
            report.mean_mem_error * 100.0
        );
    }
}
