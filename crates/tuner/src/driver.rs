//! The top-level tuning driver.
//!
//! Enumerates the outer loop the paper describes in §5.3 — gradient
//! accumulation steps `G` and pipeline shapes `(S, device assignment)` —
//! and for each runs intra-stage tuning (Pareto frontiers per layer
//! count) followed by the exact inter-stage DP. The best plan under the
//! space's own selector metric wins; its *true* Eq. 1 objective is
//! reported.
//!
//! Uniform-stage spaces (Megatron-LM, DeepSpeed, the Yuan-et-al.
//! heuristic of §3.3) bypass the DP: every stage is forced to the same
//! layer count and optimization knobs, and the driver enumerates those
//! directly.

use std::time::Instant;

use mist_graph::{StageCandidate, StageConfigValues, StagePoint, StageRole};
use mist_hardware::{ClusterSpec, DeviceMesh, OpCostDb};
use mist_interference::InterferenceModel;
use mist_models::ModelSpec;
use mist_schedule::{StagePlan, TrainingPlan};
use mist_telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};

use std::sync::Arc;

use crate::inter::{
    selector_objective, solve_inter_stage, true_objective, InterSolveStats, InterStageSolution,
};
use crate::intra::{FrontierKey, IntraStageTuner, ParetoPoint};
use crate::seed::FrontierExport;
use crate::space::{CkptMode, SearchSpace};

/// Tuning statistics (Fig. 16's tuning-time study).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TuneStats {
    /// Configurations evaluated through the symbolic tapes.
    pub configs_evaluated: u64,
    /// Inter-stage DP solves (one per non-uniform `(G, S)` candidate).
    /// The name predates the DP; it stays so that serialized outcomes,
    /// the daemon's plan cache and the committed results keep their key.
    pub milp_solves: u32,
    /// `(G, S)` outer-loop candidates examined.
    pub outer_candidates: u32,
    /// Wall-clock tuning seconds.
    pub elapsed_secs: f64,
    /// Seconds spent computing intra-stage frontiers (the pool fan-out;
    /// for uniform-stage spaces, the whole enumeration).
    pub intra_secs: f64,
    /// Seconds spent in inter-stage (DP) selection.
    pub inter_secs: f64,
}

/// The tuner's output: a plan plus its predicted performance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneOutcome {
    /// The chosen training plan.
    pub plan: TrainingPlan,
    /// Predicted iteration time under Eq. 1 (seconds).
    pub predicted_iteration: f64,
    /// Predicted throughput (samples/second).
    pub predicted_throughput: f64,
    /// Evaluated stream/memory decomposition per stage (for lowering to
    /// the simulator without re-analysis).
    pub stage_points: Vec<StagePoint>,
    /// Statistics of the tuning run.
    pub stats: TuneStats,
    /// Telemetry accumulated during this tune: the tuner's own counters
    /// plus, when the global collector is enabled, everything the
    /// instrumented library layers recorded (DP states, tape compiles,
    /// symbolic program sizes, ...).
    pub telemetry: MetricsSnapshot,
    /// Independently re-derived proof (through the `mist-irlint`
    /// interval framework) that the plan's memory claims fit the budget
    /// and its cost claims reproduce the reported objective. Checked
    /// again by `mist-service` before serving a cached plan and by
    /// `mist-cli verify-plan`.
    pub certificate: crate::PlanCertificate,
}

/// Default cap on the gradient-accumulation sweep.
pub const DEFAULT_MAX_GRAD_ACCUM: u32 = 256;

/// Largest gradient-accumulation cap the front doors accept. The sweep
/// scans `1..=min(cap, batch)` for divisors, so the cap bounds the work
/// one query can ask for.
pub const MAX_GRAD_ACCUM: u32 = 65_536;

/// Top-level auto-tuner for one `(model, cluster, search space)`.
pub struct Tuner<'a> {
    model: &'a ModelSpec,
    cluster: &'a ClusterSpec,
    db: &'a OpCostDb,
    space: &'a SearchSpace,
    interference: &'a InterferenceModel,
    max_grad_accum: u32,
    max_outer: u32,
    budget: Option<f64>,
    seed: Option<Arc<FrontierExport>>,
}

impl<'a> Tuner<'a> {
    /// Creates a tuner.
    pub fn new(
        model: &'a ModelSpec,
        cluster: &'a ClusterSpec,
        db: &'a OpCostDb,
        space: &'a SearchSpace,
        interference: &'a InterferenceModel,
    ) -> Self {
        Tuner {
            model,
            cluster,
            db,
            space,
            interference,
            max_grad_accum: DEFAULT_MAX_GRAD_ACCUM,
            max_outer: u32::MAX,
            budget: None,
            seed: None,
        }
    }

    /// Caps the gradient-accumulation sweep (tuning-time experiments).
    pub fn with_max_grad_accum(mut self, cap: u32) -> Self {
        self.max_grad_accum = cap;
        self
    }

    /// Caps the `(G, S)` outer-loop candidates examined — a
    /// deterministic work bound for interactive-QoS queries (the first
    /// `cap` candidates in sweep order are examined, independent of
    /// wall-clock and thread count).
    pub fn with_max_outer_candidates(mut self, cap: u32) -> Self {
        self.max_outer = cap.max(1);
        self
    }

    /// Overrides the per-GPU memory budget (bytes; defaults to the
    /// GPU's usable memory).
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Installs a warm-start seed exported by a compatible earlier tune
    /// (see [`crate::seed`] for the soundness contract).
    pub fn with_frontier_seed(mut self, seed: Arc<FrontierExport>) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Gradient-accumulation candidates: the divisors of the global
    /// batch up to the cap, ascending.
    fn grad_accum_candidates(&self, global_batch: u64) -> Vec<u32> {
        (1..=self.max_grad_accum)
            .take_while(|&g| u64::from(g) <= global_batch)
            .filter(|&g| global_batch.is_multiple_of(u64::from(g)))
            .collect()
    }

    /// Pipeline shapes: `S` equal sub-meshes covering the cluster.
    fn pipeline_shapes(&self) -> Vec<(u32, DeviceMesh)> {
        let total = self.cluster.total_gpus();
        let m = self.cluster.gpus_per_node;
        let mut out = Vec::new();
        for s in 1..=total.min(self.model.num_layers).min(64) {
            if !total.is_multiple_of(s) {
                continue;
            }
            let per = total / s;
            let mesh = if per >= m {
                if !per.is_multiple_of(m) {
                    continue;
                }
                DeviceMesh::new(per / m, m)
            } else {
                if !m.is_multiple_of(per) {
                    continue;
                }
                DeviceMesh::new(1, per)
            };
            out.push((s, mesh));
        }
        out
    }

    /// Builds the intra-stage tuner this driver sweeps through,
    /// applying the configured budget/seed overrides.
    fn make_intra(&self, global_batch: u64) -> IntraStageTuner<'a> {
        let mut intra = IntraStageTuner::new(
            self.model,
            self.cluster,
            self.db,
            self.space,
            self.interference,
            global_batch,
        );
        if let Some(budget) = self.budget {
            intra = intra.with_budget(budget);
        }
        if let Some(seed) = &self.seed {
            intra = intra.with_seed(Arc::clone(seed));
        }
        intra
    }

    /// Runs the full hierarchical tuning loop.
    ///
    /// Returns `None` when no feasible plan exists in the space (the
    /// "all OOM" outcome of Fig. 2a).
    pub fn tune(&self, global_batch: u64) -> Option<TuneOutcome> {
        let intra = self.make_intra(global_batch);
        self.tune_on(&intra, global_batch)
    }

    /// Like [`Tuner::tune`], but also exports the computed intra-stage
    /// frontiers for warm-starting later, compatible tunes.
    pub fn tune_with_export(&self, global_batch: u64) -> Option<(TuneOutcome, FrontierExport)> {
        let intra = self.make_intra(global_batch);
        let out = self.tune_on(&intra, global_batch)?;
        Some((out, intra.export_frontiers()))
    }

    fn tune_on(&self, intra: &IntraStageTuner<'a>, global_batch: u64) -> Option<TuneOutcome> {
        assert!(global_batch >= 1);
        let start = Instant::now();
        let collector = mist_telemetry::global();
        let baseline = collector.snapshot();
        let _tune_span = mist_telemetry::span!("tuner.tune", global_batch = global_batch);
        let mut stats = TuneStats::default();
        let mut best: Option<(InterStageSolution, u32)> = None;
        // Outer-level rejection attribution (sequential driver loop, so
        // plain accumulators are deterministic at any thread count).
        let mut out_of_budget: u64 = 0;
        let mut bound_pruned: u64 = 0;

        'outer: for g in self.grad_accum_candidates(global_batch) {
            for (s, mesh) in self.pipeline_shapes() {
                if stats.outer_candidates >= self.max_outer {
                    break 'outer; // Interactive-QoS work cap.
                }
                stats.outer_candidates += 1;
                let _outer_span = mist_telemetry::span!("tuner.outer", grad_accum = g, stages = s);
                let mut solve_stats = InterSolveStats::default();
                let solution = if self.space.uniform_stages {
                    let t_intra = Instant::now();
                    let sol = {
                        let _sweep_span =
                            mist_telemetry::span!("intra.sweep", grad_accum = g, stages = s);
                        self.solve_uniform(intra, g, s, mesh)
                    };
                    stats.intra_secs += t_intra.elapsed().as_secs_f64();
                    sol
                } else {
                    let l = self.model.num_layers;
                    let max_layers = l - (s - 1);
                    let keys: Vec<FrontierKey> = (0..s)
                        .map(|i| FrontierKey {
                            mesh,
                            role: StageRole::of(i, s),
                            inflight: g.min(s - i),
                            grad_accum: g,
                        })
                        .collect();
                    // Dedupe before fanning out (first-seen order): stages
                    // often share a key, and each unique key is computed
                    // exactly once. Keys never repeat across outer
                    // candidates (the mesh follows from `s`, and `g` is
                    // part of the key), so nothing is computed twice.
                    let mut unique: Vec<FrontierKey> = Vec::new();
                    for &k in &keys {
                        if !unique.contains(&k) {
                            unique.push(k);
                        }
                    }
                    let t_intra = Instant::now();
                    let computed = {
                        let _sweep_span =
                            mist_telemetry::span!("intra.sweep", grad_accum = g, stages = s);
                        intra
                            .pool()
                            .map_ordered(unique.clone(), |k| intra.frontiers(k, max_layers))
                    };
                    stats.intra_secs += t_intra.elapsed().as_secs_f64();
                    let frontier_handles: Vec<_> = keys
                        .iter()
                        .map(|k| {
                            let idx = unique
                                .iter()
                                .position(|u| u == k)
                                .expect("every key was deduped from `keys`");
                            std::sync::Arc::clone(&computed[idx])
                        })
                        .collect();
                    let refs: Vec<&Vec<Vec<ParetoPoint>>> =
                        frontier_handles.iter().map(|h| &h.per_l).collect();
                    stats.milp_solves += 1;
                    let cutoff = best
                        .as_ref()
                        .map_or(f64::INFINITY, |(b, _)| b.selector_objective);
                    let t_inter = Instant::now();
                    let sol = {
                        let _solve_span =
                            mist_telemetry::span!("inter.solve", stages = s, grad_accum = g);
                        solve_inter_stage(&refs, l, g, self.space, cutoff, &mut solve_stats)
                    };
                    stats.inter_secs += t_inter.elapsed().as_secs_f64();
                    bound_pruned += solve_stats.bound_pruned;
                    mist_telemetry::journal_event(|| mist_telemetry::JournalEvent::DpSummary {
                        stages: s,
                        grad_accum: g,
                        states: solve_stats.dp_states,
                        bound_pruned: solve_stats.bound_pruned,
                        result: if sol.is_some() {
                            "solved".to_owned()
                        } else if solve_stats.cutoff_hit {
                            "cutoff".to_owned()
                        } else {
                            "infeasible".to_owned()
                        },
                    });
                    sol
                };
                let incumbent = best.as_ref().map(|(b, _)| b.selector_objective);
                match solution {
                    Some(sol) => {
                        let (selector, objective) = (sol.selector_objective, sol.objective);
                        let takes_lead = incumbent.is_none_or(|b| selector < b);
                        mist_telemetry::journal_event(|| {
                            mist_telemetry::JournalEvent::OuterCandidate {
                                grad_accum: g,
                                stages: s,
                                outcome: if takes_lead {
                                    mist_telemetry::OuterOutcome::Incumbent
                                } else {
                                    mist_telemetry::OuterOutcome::Dominated
                                },
                                selector: Some(selector),
                                objective: Some(objective),
                                layers: sol.choices.iter().map(|p| p.config.layers).collect(),
                                incumbent,
                                bound: None,
                            }
                        });
                        if takes_lead {
                            mist_telemetry::journal_event(|| {
                                mist_telemetry::JournalEvent::Incumbent {
                                    grad_accum: g,
                                    stages: s,
                                    selector,
                                    objective,
                                }
                            });
                            best = Some((sol, g));
                        }
                    }
                    None => {
                        // A `None` under a finite cutoff is attributed to
                        // the budget when the solver saw the cutoff bite;
                        // otherwise the shape is genuinely infeasible.
                        let killed_by_cutoff = solve_stats.cutoff_hit;
                        if killed_by_cutoff {
                            out_of_budget += 1;
                        }
                        mist_telemetry::journal_event(|| {
                            mist_telemetry::JournalEvent::OuterCandidate {
                                grad_accum: g,
                                stages: s,
                                outcome: if killed_by_cutoff {
                                    mist_telemetry::OuterOutcome::OutOfBudget
                                } else {
                                    mist_telemetry::OuterOutcome::Infeasible
                                },
                                selector: solve_stats.best_rejected,
                                objective: None,
                                layers: Vec::new(),
                                incumbent,
                                bound: solve_stats.pruned_bound,
                            }
                        });
                    }
                }
            }
        }

        stats.configs_evaluated = intra.configs_evaluated();
        stats.elapsed_secs = start.elapsed().as_secs_f64();

        // Publish the tuner's own counters and gauges into the global
        // registry, then capture everything this tune added on top of the
        // baseline. Inserting the same list into the snapshot keeps
        // `telemetry` self-contained even when the collector is disabled
        // and the publish was a no-op.
        let rej = intra.rejections();
        let mut counters: Vec<(&str, u64)> = Vec::new();
        // Published only when a warm-start seed fired, so cold-run
        // telemetry stays byte-identical to older builds.
        let seeded = intra.seeded_frontiers();
        if seeded > 0 {
            counters.push(("tuner.seeded_frontiers", seeded));
        }
        counters.extend([
            ("tuner.configs_evaluated", stats.configs_evaluated),
            ("tuner.outer_candidates", stats.outer_candidates as u64),
            ("tuner.inter_solves", stats.milp_solves as u64),
            ("tuner.rejections.oom", rej.oom.value()),
            ("tuner.rejections.nonfinite", rej.nonfinite.value()),
            ("tuner.rejections.dominated", rej.dominated.value()),
            ("tuner.rejections.out_of_budget", out_of_budget),
            ("tuner.rejections.bound_pruned", bound_pruned),
        ]);
        // `pool.workers` varies with --threads, so consumers comparing
        // outcomes across thread counts must strip it.
        let gauges = [
            ("frontier.size", intra.frontier_size_high_water()),
            ("pool.workers", intra.pool().threads() as f64),
        ];
        for &(name, value) in &counters {
            collector.counter_add(name, value);
        }
        for (name, value) in gauges {
            collector.gauge_set(name, value);
        }
        let mut telemetry = collector.snapshot_delta(&baseline);
        for (name, value) in counters {
            telemetry.counters.entry(name.to_owned()).or_insert(value);
        }
        for (name, value) in gauges {
            telemetry.gauges.entry(name.to_owned()).or_insert(value);
        }

        let (sol, g) = best?;
        let (predicted, points) = (sol.objective, sol.choices);
        let plan = TrainingPlan {
            grad_accum: g,
            stages: points
                .iter()
                .map(|p| StagePlan {
                    candidate: p.candidate,
                    config: p.config,
                })
                .collect(),
            global_batch,
        };
        debug_assert_eq!(plan.validate(), Ok(()));
        let stage_points: Vec<StagePoint> = points.iter().map(|p| intra.stage_point(p)).collect();
        // Certify the winner through the independent interval-framework
        // path; a failure here is a tuner bug, not an input error.
        let cert = crate::certify_plan(
            self.model,
            self.cluster,
            self.db,
            self.interference,
            &plan,
            &stage_points,
            predicted,
            self.budget.unwrap_or(self.cluster.gpu.memory_bytes),
            self.space.overlap_aware,
            "tune",
        );
        debug_assert!(
            cert.ok(),
            "tune-time certificate failed: {:?}",
            cert.failures
        );
        Some(TuneOutcome {
            predicted_iteration: predicted,
            predicted_throughput: global_batch as f64 / predicted,
            stage_points,
            stats,
            telemetry,
            plan,
            certificate: cert.certificate,
        })
    }

    /// Uniform-stages solver: same layer count and same optimization
    /// knobs on every stage (§3.3's heuristic and the manual baselines).
    fn solve_uniform(
        &self,
        intra: &IntraStageTuner<'_>,
        g: u32,
        s: u32,
        mesh: DeviceMesh,
    ) -> Option<InterStageSolution> {
        let l_total = self.model.num_layers;
        if !l_total.is_multiple_of(s) {
            return None;
        }
        let l = l_total / s;
        let mut best: Option<InterStageSolution> = None;
        for c in intra.parallelism_candidates(mesh, g) {
            for &zero in self.space.zero_levels() {
                for off in self.space.offload_combos() {
                    // Uniform checkpoint count: smallest that fits every
                    // stage (or the mode's fixed value).
                    let ckpt_candidates: Vec<u32> = match self.space.ckpt {
                        CkptMode::None => vec![0],
                        CkptMode::Full => vec![l],
                        CkptMode::Tuned => (0..=l).collect(),
                    };
                    let mut combo_feasible = false;
                    'ckpt: for ckpt in ckpt_candidates {
                        let mut points = Vec::with_capacity(s as usize);
                        for i in 0..s {
                            let cand = StageCandidate {
                                mesh,
                                dp: c.dp,
                                tp: c.tp,
                                micro_batch: c.micro_batch,
                                role: StageRole::of(i, s),
                            };
                            let cfg = StageConfigValues {
                                layers: l,
                                ckpt,
                                zero,
                                wo: off[0],
                                go: off[1],
                                oo: off[2],
                                ao: off[3],
                                inflight: g.min(s - i),
                            };
                            let p = intra.evaluate_config(&cand, &cfg);
                            if p.mem_peak > intra.budget() {
                                continue 'ckpt; // Try more recomputation.
                            }
                            points.push(p);
                        }
                        let picked: Vec<&ParetoPoint> = points.iter().collect();
                        let selector = selector_objective(&picked, g, self.space.imbalance_aware);
                        if best
                            .as_ref()
                            .is_none_or(|b| selector < b.selector_objective)
                        {
                            best = Some(InterStageSolution {
                                objective: true_objective(&picked, g),
                                selector_objective: selector,
                                choices: points,
                            });
                        }
                        combo_feasible = true;
                        break; // Minimal feasible ckpt found for this combo.
                    }
                    if !combo_feasible {
                        // No checkpoint count fits: same OOM semantics as
                        // the non-uniform per-row rejection.
                        intra.rejections().oom.inc();
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BudgetProof;
    use mist_hardware::{GpuSpec, Platform};
    use mist_models::{gpt3, AttentionImpl, ModelSize};

    fn setup(gpus: u32) -> (ModelSpec, ClusterSpec, OpCostDb, InterferenceModel) {
        (
            gpt3(ModelSize::B1_3, 2048, AttentionImpl::Flash),
            ClusterSpec::for_gpu_count(Platform::GcpL4, gpus),
            OpCostDb::new(GpuSpec::l4()),
            InterferenceModel::pcie_defaults(),
        )
    }

    /// What an outcome answers, serialized: plan, stage points, predicted
    /// iteration time (shortest round-trip, so bit for bit) and
    /// certificate. Warm and cold tunes must agree on all of it.
    fn answer(o: &TuneOutcome) -> String {
        let answer = (
            (&o.plan, &o.stage_points),
            (o.predicted_iteration, &o.certificate),
        );
        serde_json::to_string(&answer).unwrap()
    }

    #[test]
    fn tune_produces_valid_plan() {
        let (model, cluster, db, intf) = setup(2);
        let space = SearchSpace::mist();
        let tuner = Tuner::new(&model, &cluster, &db, &space, &intf).with_max_grad_accum(8);
        let out = tuner.tune(8).expect("1.3B on 2 GPUs must be tunable");
        assert_eq!(out.plan.validate(), Ok(()));
        assert_eq!(out.plan.global_batch, 8);
        assert_eq!(out.plan.total_layers(), model.num_layers);
        assert!(out.predicted_iteration > 0.0);
        assert!(out.stats.configs_evaluated > 0);
        assert_eq!(
            out.telemetry.counter("tuner.configs_evaluated"),
            out.stats.configs_evaluated
        );
        assert_eq!(
            out.telemetry.counter("tuner.outer_candidates"),
            out.stats.outer_candidates as u64
        );
    }

    #[test]
    fn mist_space_beats_restricted_spaces() {
        let (model, cluster, db, intf) = setup(4);
        let intf2 = intf.clone();
        let mist_space = SearchSpace::mist();
        let mega_space = SearchSpace::megatron();
        let mist = Tuner::new(&model, &cluster, &db, &mist_space, &intf)
            .with_max_grad_accum(8)
            .tune(16)
            .expect("mist plan");
        let mega = Tuner::new(&model, &cluster, &db, &mega_space, &intf2)
            .with_max_grad_accum(8)
            .tune(16)
            .expect("megatron plan");
        assert!(
            mist.predicted_iteration <= mega.predicted_iteration * 1.001,
            "mist {} vs megatron {}",
            mist.predicted_iteration,
            mega.predicted_iteration
        );
    }

    #[test]
    fn grad_accum_candidates_divide_batch() {
        // Every divisor of the batch up to the cap, ascending.
        let (model, cluster, db, intf) = setup(2);
        let space = SearchSpace::mist();
        let tuner = Tuner::new(&model, &cluster, &db, &space, &intf);
        let table: [(u64, &[u32]); 6] = [
            (8, &[1, 2, 4, 8]),
            (15, &[1, 3, 5, 15]),
            (48, &[1, 2, 3, 4, 6, 8, 12, 16, 24, 48]),
            (96, &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 96]),
            (100, &[1, 2, 4, 5, 10, 20, 25, 50, 100]),
            (256, &[1, 2, 4, 8, 16, 32, 64, 128, 256]),
        ];
        for (batch, want) in table {
            assert_eq!(tuner.grad_accum_candidates(batch), want, "B={batch}");
        }
        let capped = Tuner::new(&model, &cluster, &db, &space, &intf).with_max_grad_accum(10);
        assert_eq!(capped.grad_accum_candidates(48), [1, 2, 3, 4, 6, 8]);
    }

    #[test]
    fn pipeline_shapes_cover_cluster() {
        let (model, cluster, db, intf) = setup(8);
        let space = SearchSpace::mist();
        let tuner = Tuner::new(&model, &cluster, &db, &space, &intf);
        let shapes = tuner.pipeline_shapes();
        assert!(shapes.iter().any(|&(s, _)| s == 1));
        assert!(shapes.iter().any(|&(s, _)| s == 8));
        for (s, mesh) in shapes {
            assert_eq!(s * mesh.total(), 8);
        }
    }

    #[test]
    fn uniform_space_still_finds_plans() {
        let (model, cluster, db, intf) = setup(4);
        let space = SearchSpace::deepspeed();
        let out = Tuner::new(&model, &cluster, &db, &space, &intf)
            .with_max_grad_accum(8)
            .tune(8)
            .expect("deepspeed-style plan");
        assert_eq!(out.plan.validate(), Ok(()));
        // Uniform: all stages share layers/zero/offload.
        let first = &out.plan.stages[0].config;
        for st in &out.plan.stages {
            assert_eq!(st.config.layers, first.layers);
            assert_eq!(st.config.zero, first.zero);
        }
    }

    /// Warm-start soundness, end to end at the driver level: seeding a
    /// tune at a *different* global batch from an export must return a
    /// byte-identical plan/prediction while evaluating strictly fewer
    /// configurations, with at least one frontier family reused.
    #[test]
    fn warm_start_is_byte_identical_and_cheaper() {
        let (model, cluster, db, intf) = setup(2);
        let space = SearchSpace::mist();
        let (_, export) = Tuner::new(&model, &cluster, &db, &space, &intf)
            .with_max_grad_accum(8)
            .tune_with_export(8)
            .expect("cold tune at B=8");
        assert!(!export.is_empty());

        let cold = Tuner::new(&model, &cluster, &db, &space, &intf)
            .with_max_grad_accum(8)
            .tune(16)
            .expect("cold tune at B=16");
        let warm = Tuner::new(&model, &cluster, &db, &space, &intf)
            .with_max_grad_accum(8)
            .with_frontier_seed(std::sync::Arc::new(export))
            .tune(16)
            .expect("warm tune at B=16");

        assert_eq!(answer(&cold), answer(&warm));
        assert!(
            warm.stats.configs_evaluated < cold.stats.configs_evaluated,
            "warm {} must evaluate strictly fewer configs than cold {}",
            warm.stats.configs_evaluated,
            cold.stats.configs_evaluated
        );
        assert!(
            warm.telemetry.counter("tuner.seeded_frontiers") > 0,
            "at least one frontier family must come from the seed"
        );
        assert!(
            !cold
                .telemetry
                .counters
                .contains_key("tuner.seeded_frontiers"),
            "cold runs must not grow new telemetry keys"
        );
    }

    /// An exact-batch re-tune from the export skips every sweep.
    #[test]
    fn exact_seed_skips_all_sweeps() {
        let (model, cluster, db, intf) = setup(2);
        let space = SearchSpace::mist();
        let (cold, export) = Tuner::new(&model, &cluster, &db, &space, &intf)
            .with_max_grad_accum(8)
            .tune_with_export(8)
            .expect("cold tune");
        let warm = Tuner::new(&model, &cluster, &db, &space, &intf)
            .with_max_grad_accum(8)
            .with_frontier_seed(std::sync::Arc::new(export))
            .tune(8)
            .expect("warm tune");
        assert_eq!(
            warm.stats.configs_evaluated, 0,
            "same-query warm start must not evaluate anything"
        );
        assert_eq!(answer(&cold), answer(&warm));
    }

    /// Downward budget reuse: a tune at the largest `Fit` bound of an
    /// export, below the default budget, reuses every `Fit` family and
    /// answers exactly as a cold tune at that budget.
    #[test]
    fn fit_bounds_license_downward_budget_reuse() {
        let (model, cluster, db, intf) = setup(4);
        let space = SearchSpace::mist();
        let tuner = || Tuner::new(&model, &cluster, &db, &space, &intf);
        let (_, export) = tuner().tune_with_export(8).expect("cold tune");
        let bounds: Vec<f64> = export
            .records
            .iter()
            .filter_map(|r| match r.proof {
                BudgetProof::Fit { mem_hi } => Some(mem_hi),
                BudgetProof::Sensitive => None,
            })
            .collect();
        let budget = bounds.iter().copied().fold(0.0, f64::max);
        assert!(
            budget < cluster.gpu.memory_bytes,
            "{budget} must sit below the default"
        );

        let cold = tuner().with_budget(budget).tune(8).expect("cold tune");
        let warm = tuner()
            .with_budget(budget)
            .with_frontier_seed(std::sync::Arc::new(export))
            .tune(8)
            .expect("warm tune at the bound");
        assert_eq!(
            warm.telemetry.counter("tuner.seeded_frontiers"),
            bounds.len() as u64,
            "every `Fit` family must be reused"
        );
        assert_eq!(answer(&cold), answer(&warm));
    }

    #[test]
    fn outer_candidate_cap_limits_work() {
        let (model, cluster, db, intf) = setup(4);
        let space = SearchSpace::mist();
        let full = Tuner::new(&model, &cluster, &db, &space, &intf)
            .with_max_grad_accum(8)
            .tune(16)
            .expect("full tune");
        assert!(full.stats.outer_candidates > 2);
        let capped = Tuner::new(&model, &cluster, &db, &space, &intf)
            .with_max_grad_accum(8)
            .with_max_outer_candidates(2)
            .tune(16)
            .expect("prefix of the sweep still finds a plan");
        assert_eq!(capped.stats.outer_candidates, 2);
        assert!(capped.stats.configs_evaluated < full.stats.configs_evaluated);
    }

    #[test]
    fn infeasible_workload_returns_none() {
        // 2.6B with no memory optimizations at all on one tiny-budget GPU.
        let model = gpt3(ModelSize::B2_6, 4096, AttentionImpl::Flash);
        let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 2);
        let db = OpCostDb::new(GpuSpec::l4());
        let intf = InterferenceModel::pcie_defaults();
        let space = SearchSpace {
            ckpt: CkptMode::None,
            zero_levels: vec![0],
            offload_grid: vec![],
            offload_enabled: [false; 4],
            ..SearchSpace::mist()
        };
        let out = Tuner::new(&model, &cluster, &db, &space, &intf)
            .with_max_grad_accum(2)
            .tune(4);
        assert!(out.is_none(), "parallelism-only must OOM (Fig. 2a)");
    }
}
