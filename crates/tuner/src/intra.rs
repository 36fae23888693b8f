//! Intra-stage tuning (paper §5.3, Eq. 4).
//!
//! For one pipeline-stage candidate — a device mesh, its role in the
//! pipeline, its in-flight microbatch count and the iteration's `G` —
//! this module finds, for *every* possible layer count at once, the
//! Pareto frontier of `(t, d)` over:
//!
//! * `(dp, tp)` factorizations of the mesh (micro-batch size follows from
//!   `b = B / (dp · G)`),
//! * ZeRO levels and the offloading-ratio grid of the [`SearchSpace`],
//! * the recomputed-layer count `ckpt`.
//!
//! Everything is evaluated through the compiled symbolic tapes in large
//! batches (key idea #2). Two search-space reductions keep the batch
//! tractable, both justified by monotonicity:
//!
//! * `ckpt` only increases `t` (recompute time) and only decreases peak
//!   memory, and it never touches `d`, so for every other knob setting the
//!   *minimal feasible* `ckpt` dominates. It is resolved analytically from
//!   the memory tapes' linearity in `ckpt` instead of being enumerated.
//!   (The second-order effect that recomputing layers also shrinks
//!   activation-offload traffic is deliberately ignored.)
//! * Layer count `l` enters the tapes as a plain symbol, so all layer
//!   counts share one batch — the frontier for every `l` falls out of a
//!   single evaluation pass.
//!
//! Each `(dp, tp, b)` candidate is swept as **one columnar batch**: its
//! rows are the layer counts × ZeRO levels × offload combos,
//! with every knob a value column. Rows are group-major and layer-minor
//! (`(zero, offload)` outer, `L` inner), so appending feasible rows to
//! each layer count's list reproduces the order of a row-by-row sweep
//! over `(zero, offload)` groups exactly — Pareto reduction, and with it
//! every sampled frontier, sees a byte-identical input sequence. The
//! sweep keeps one small [`ParetoPoint`] per feasible row, and Pareto
//! reduction runs on their `(t, d)` values.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use mist_graph::{
    stage_roots, StageAnalyzer, StageCandidate, StageConfigValues, StagePoint, StageRole,
    StageTapes,
};
use mist_hardware::{ClusterSpec, DeviceMesh, OpCostDb};
use mist_interference::InterferenceModel;
use mist_models::ModelSpec;
use mist_pool::ThreadPool;
use mist_schedule::{stage_streams, stage_streams_columns};
use mist_symbolic::{BatchBindings, CompiledWorkspace};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::pareto::{pareto_frontier, sample_frontier};
use crate::seed::{role_rank, BudgetProof, FrontierExport, FrontierRecord, SeedCandidate};
use crate::space::{CkptMode, SearchSpace};

/// One sampled point of an intra-stage Pareto frontier: the `(t, d)`
/// value plus the candidate and configuration that rebuild it
/// ([`IntraStageTuner::stage_point`] re-evaluates its streams).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Stable microbatch time (seconds).
    pub t: f64,
    /// First/last microbatch delta (seconds).
    pub d: f64,
    /// Peak memory of the configuration (bytes).
    pub mem_peak: f64,
    /// The parallelism candidate.
    pub candidate: StageCandidate,
    /// The full optimization configuration (including `layers`).
    pub config: StageConfigValues,
}

/// Cache key of one frontier family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FrontierKey {
    /// Stage device mesh.
    pub mesh: DeviceMesh,
    /// Pipeline role.
    pub role: StageRole,
    /// In-flight microbatches (`min(G, S − i)`).
    pub inflight: u32,
    /// Gradient-accumulation steps.
    pub grad_accum: u32,
}

type TapeKey = (DeviceMesh, u32, u32, u64, StageRole);

/// The four offloading-ratio symbols, in `SearchSpace::offload_combos`
/// element order.
const OFFLOAD_SYMS: [&str; 4] = ["wo", "go", "oo", "ao"];

/// The sweep of one `(dp, tp, b)` candidate: feasible rows per layer
/// count, in `per_l` append order.
struct CandidateSweep {
    per_l: Vec<Vec<ParetoPoint>>,
    tally: SweepTally,
}

/// One evaluation workspace per compiled program, so alternating
/// between `mem_pair` and the stage program never re-prepares either.
#[derive(Default)]
struct SweepWorkspaces {
    mem: CompiledWorkspace,
    stage: CompiledWorkspace,
}

/// Per-sweep rejection tally, accumulated while a candidate's rows are
/// evaluated and merged across candidates. Plain sums (and an
/// order-independent max for `mem_hi`), so merging is order-independent
/// and the totals are deterministic at any thread count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SweepTally {
    /// `(layers, zero, offload)` rows enumerated.
    pub enumerated: u64,
    /// Rows rejected because no checkpoint count fits the memory budget
    /// (including the conservative post-evaluation recheck).
    pub oom: u64,
    /// Rows rejected because the predicted time was not finite.
    pub nonfinite: u64,
    /// Whether the memory budget influenced any row: a resolved `ckpt`
    /// other than the mode's budget-free choice (L under full
    /// checkpointing, 0 otherwise; the `∞` OOM marker included). Drives
    /// [`BudgetProof::Sensitive`] for warm-start reuse.
    pub budget_bound: bool,
    /// Largest peak memory `max(mem_fwd, mem_bwd)` of any row the
    /// 22-root program evaluated (0 before any): the bound of
    /// [`BudgetProof::Fit`].
    pub mem_hi: f64,
}

impl SweepTally {
    fn merge(&mut self, other: &SweepTally) {
        self.enumerated += other.enumerated;
        self.oom += other.oom;
        self.nonfinite += other.nonfinite;
        self.budget_bound |= other.budget_bound;
        self.mem_hi = self.mem_hi.max(other.mem_hi);
    }
}

/// Always-on rejection counters (satellite provenance: journal-off runs
/// still get aggregate attribution through `TuneOutcome.telemetry`).
/// Per-instance like `configs_evaluated`, so counts never leak across
/// tuner instances.
pub(crate) struct RejectionCounters {
    /// Rows with no memory-feasible checkpointing choice.
    pub oom: mist_telemetry::Counter,
    /// Rows whose predicted time was NaN/∞.
    pub nonfinite: mist_telemetry::Counter,
    /// Feasible points dominated away by Pareto reduction + sampling.
    pub dominated: mist_telemetry::Counter,
}

impl RejectionCounters {
    fn new() -> Self {
        RejectionCounters {
            oom: mist_telemetry::Counter::new(),
            nonfinite: mist_telemetry::Counter::new(),
            dominated: mist_telemetry::Counter::new(),
        }
    }
}

/// Intra-stage tuner with a tape cache and the store of the frontier
/// families it produced.
///
/// The type is `Sync`: frontier computations fan out over the pool, so
/// shared state sits behind mutexes, shared compiled artifacts are
/// `Arc`s, and evaluation scratch lives in a pool of per-worker
/// workspaces.
pub struct IntraStageTuner<'a> {
    model: &'a ModelSpec,
    cluster: &'a ClusterSpec,
    db: &'a OpCostDb,
    space: &'a SearchSpace,
    interference: &'a InterferenceModel,
    global_batch: u64,
    budget: f64,
    pool: Arc<ThreadPool>,
    // One cell per tape key, so concurrent sweeps that share a
    // candidate (same role, different in-flight count) wait for one
    // analysis instead of each running their own.
    tape_cache: Mutex<HashMap<TapeKey, Arc<OnceLock<Arc<StageTapes>>>>>,
    // Every frontier family this tuner swept or seeded, with its budget
    // proof: the store `export_frontiers` serializes. Write-only during a
    // tune — a tune never asks for one key twice.
    records: Mutex<HashMap<FrontierKey, Arc<FrontierRecord>>>,
    // Warm-start seed: frontiers exported by an earlier, provably
    // compatible tune.
    seed: Option<Arc<FrontierExport>>,
    // Frontier families taken from the seed instead of being swept.
    seeded: mist_telemetry::Counter,
    // Per-instance telemetry counter (not the global registry): tests
    // compare exact counts, so the count must not leak across tuner
    // instances.
    configs_evaluated: mist_telemetry::Counter,
    // Rejection attribution for `TuneOutcome.telemetry` (same
    // per-instance rationale).
    rejections: RejectionCounters,
    // High-water sampled frontier size across all (key, layer) families.
    frontier_size: mist_telemetry::Gauge,
    // Reused across candidates: register and output columns are
    // allocated once per concurrent evaluator and recycled for the whole
    // search. Tasks check a workspace pair out, use it, and return it.
    workspaces: Mutex<Vec<SweepWorkspaces>>,
}

impl<'a> IntraStageTuner<'a> {
    /// Creates a tuner for one workload. `budget` defaults to the GPU's
    /// usable memory.
    pub fn new(
        model: &'a ModelSpec,
        cluster: &'a ClusterSpec,
        db: &'a OpCostDb,
        space: &'a SearchSpace,
        interference: &'a InterferenceModel,
        global_batch: u64,
    ) -> Self {
        IntraStageTuner {
            model,
            cluster,
            db,
            space,
            interference,
            global_batch,
            budget: cluster.gpu.memory_bytes,
            pool: mist_pool::global(),
            tape_cache: Mutex::new(HashMap::new()),
            records: Mutex::new(HashMap::new()),
            seed: None,
            seeded: mist_telemetry::Counter::new(),
            configs_evaluated: mist_telemetry::Counter::new(),
            rejections: RejectionCounters::new(),
            frontier_size: mist_telemetry::Gauge::new(),
            workspaces: Mutex::new(Vec::new()),
        }
    }

    /// Overrides the per-GPU memory budget (tests, what-if studies).
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the thread pool (defaults to the process-global one).
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Installs a warm-start seed. The caller must guarantee the seed
    /// was exported under an identical tape context — same model,
    /// search space, interference model, and a tape-equivalent cluster
    /// (see [`crate::seed`] module docs); candidate-list equality and
    /// budget compatibility are then checked per lookup.
    pub fn with_seed(mut self, seed: Arc<FrontierExport>) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The pool frontier computations fan out on.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Number of configurations evaluated so far (tuning-time studies).
    pub fn configs_evaluated(&self) -> u64 {
        self.configs_evaluated.value()
    }

    /// Number of frontier families taken from the warm-start seed.
    pub fn seeded_frontiers(&self) -> u64 {
        self.seeded.value()
    }

    /// Rejection attribution counters (driver publication).
    pub(crate) fn rejections(&self) -> &RejectionCounters {
        &self.rejections
    }

    /// Largest sampled per-layer frontier seen so far.
    pub(crate) fn frontier_size_high_water(&self) -> f64 {
        self.frontier_size.value()
    }

    /// The memory budget in use.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The frontier family of `key`: `per_l[l − 1]` = sampled Pareto
    /// points for a stage of `l` layers, for `l ∈ 1..=max_layers`, plus
    /// the budget proof of the sweep. Taken from the warm-start seed when
    /// a compatible record exists, swept otherwise; either way stored for
    /// [`Self::export_frontiers`].
    pub fn frontiers(&self, key: FrontierKey, max_layers: u32) -> Arc<FrontierRecord> {
        let candidates = self.parallelism_candidates(key.mesh, key.grad_accum);
        let record = Arc::new(match self.seeded_frontier(key, &candidates, max_layers) {
            Some(seeded) => seeded,
            None => self.compute_frontiers(key, candidates, max_layers),
        });
        self.records.lock().insert(key, Arc::clone(&record));
        record
    }

    /// Consults the warm-start seed for a frontier family whose sweep
    /// would be row-identical to the one about to run. On a hit, the
    /// record is truncated to exactly `max_layers` families — the same
    /// shape a cold sweep would produce — so downstream inter-stage
    /// selection sees byte-identical input.
    fn seeded_frontier(
        &self,
        key: FrontierKey,
        candidates: &[SeedCandidate],
        max_layers: u32,
    ) -> Option<FrontierRecord> {
        let seed = self.seed.as_ref()?;
        let record = seed.lookup(
            key.mesh,
            key.role,
            key.inflight,
            candidates,
            self.budget,
            max_layers,
        )?;
        self.seeded.inc();
        Some(FrontierRecord {
            mesh: key.mesh,
            role: key.role,
            inflight: key.inflight,
            candidates: candidates.to_vec(),
            budget: self.budget,
            // The reused family's proof is the one a sweep under this
            // budget would record: a `Fit` bound does not depend on the
            // budget, and a `Sensitive` record is only reused at its own
            // budget.
            proof: record.proof,
            per_l: record.per_l[..max_layers as usize].to_vec(),
        })
    }

    /// Exports every stored frontier family as a [`FrontierExport`]:
    /// canonically sorted, deduplicated on the seed identity
    /// `(mesh, role, inflight, candidates)` (two grad-accum steps that
    /// enumerate the same candidate list share one record).
    pub fn export_frontiers(&self) -> FrontierExport {
        let stored = self.records.lock();
        let mut keys: Vec<&FrontierKey> = stored.keys().collect();
        keys.sort_by_key(|k| {
            (
                k.mesh.nodes,
                k.mesh.gpus_per_node,
                role_rank(k.role),
                k.inflight,
                k.grad_accum,
            )
        });
        let mut records: Vec<FrontierRecord> = Vec::new();
        for key in keys {
            let record = &stored[key];
            if !records.iter().any(|r| r.identity() == record.identity()) {
                records.push(FrontierRecord::clone(record));
            }
        }
        FrontierExport { records }
    }

    /// Evaluates one explicit configuration on one candidate (used by the
    /// uniform-stages heuristic and by enumeration-style experiments).
    /// No feasibility filtering — inspect `mem_peak` yourself.
    pub fn evaluate_config(&self, cand: &StageCandidate, cfg: &StageConfigValues) -> ParetoPoint {
        self.configs_evaluated.inc();
        let point = self.tapes(cand).eval_point(cfg);
        let st = stage_streams(&point, self.interference, self.space.overlap_aware);
        ParetoPoint {
            t: st.t,
            d: st.d,
            mem_peak: point.mem_peak(),
            candidate: *cand,
            config: *cfg,
        }
    }

    /// The stream/memory decomposition of a frontier point, evaluated
    /// through the scalar reference path on its cached tapes — the same
    /// bits the sweep's compiled rows held.
    pub fn stage_point(&self, p: &ParetoPoint) -> StagePoint {
        self.tapes(&p.candidate).eval_point(&p.config)
    }

    fn tapes(&self, cand: &StageCandidate) -> Arc<StageTapes> {
        let key: TapeKey = (cand.mesh, cand.dp, cand.tp, cand.micro_batch, cand.role);
        let cell = Arc::clone(self.tape_cache.lock().entry(key).or_default());
        let tapes = cell.get_or_init(|| {
            mist_telemetry::counter_add("intra.tape_compiles", 1);
            let analyzer = StageAnalyzer::new(self.model, self.cluster, self.db);
            Arc::new(analyzer.analyze(cand))
        });
        Arc::clone(tapes)
    }

    /// The valid `(dp, tp, b)` parallelism candidates of a mesh under
    /// gradient accumulation `g` — also the candidate list of a frontier
    /// family's seed identity.
    pub fn parallelism_candidates(&self, mesh: DeviceMesh, g: u32) -> Vec<SeedCandidate> {
        let mut out = Vec::new();
        for (dp, tp) in mesh.dp_tp_choices() {
            let denom = dp as u64 * g as u64;
            if !self.global_batch.is_multiple_of(denom) {
                continue;
            }
            let micro_batch = self.global_batch / denom;
            if micro_batch == 0 || micro_batch > 512 {
                continue;
            }
            if !self.model.heads.is_multiple_of(tp as u64)
                || !self.model.hidden.is_multiple_of(tp as u64)
            {
                continue;
            }
            out.push(SeedCandidate {
                dp,
                tp,
                micro_batch,
            });
        }
        out
    }

    fn compute_frontiers(
        &self,
        key: FrontierKey,
        candidates: Vec<SeedCandidate>,
        max_layers: u32,
    ) -> FrontierRecord {
        assert!(max_layers >= 1);
        let _span = mist_telemetry::span!(
            "intra.frontier",
            layers = max_layers,
            inflight = key.inflight,
            grad_accum = key.grad_accum
        );
        let cands: Vec<StageCandidate> = candidates
            .iter()
            .map(|c| StageCandidate {
                mesh: key.mesh,
                dp: c.dp,
                tp: c.tp,
                micro_batch: c.micro_batch,
                role: key.role,
            })
            .collect();

        // Fan the candidates out over the pool. Merging the per-candidate
        // sweeps in submission order keeps the pareto input sequence —
        // and therefore the sampled frontier — byte-identical to a
        // sequential sweep at any thread count.
        let sweeps = self.pool.map_ordered(cands, |cand| {
            let mut ws = self.workspaces.lock().pop().unwrap_or_default();
            let sweep = self.sweep_candidate(cand, key, max_layers, &mut ws);
            self.workspaces.lock().push(ws);
            sweep
        });
        let phase = mist_telemetry::span!("phase.pareto");
        let mut tally = SweepTally::default();
        for sweep in &sweeps {
            tally.merge(&sweep.tally);
        }
        let feasible: u64 = sweeps
            .iter()
            .flat_map(|s| &s.per_l)
            .map(|rows| rows.len() as u64)
            .sum();
        debug_assert_eq!(
            tally.enumerated,
            tally.oom + tally.nonfinite + feasible,
            "every enumerated row must be attributed to exactly one outcome"
        );

        // Pareto-reduce and sample each layer count on `(t, d)` alone.
        let mut td: Vec<(f64, f64)> = Vec::new();
        let per_l: Vec<Vec<ParetoPoint>> = (0..max_layers as usize)
            .map(|l| {
                let rows: Vec<&ParetoPoint> = sweeps.iter().flat_map(|s| &s.per_l[l]).collect();
                if rows.is_empty() {
                    return Vec::new();
                }
                td.clear();
                td.extend(rows.iter().map(|p| (p.t, p.d)));
                let frontier = pareto_frontier(&td);
                let sampled = sample_frontier(&frontier, self.space.pareto_samples);
                let mut kept: Vec<ParetoPoint> = sampled.iter().map(|&i| rows[i].clone()).collect();
                kept.sort_by(|a, b| a.t.total_cmp(&b.t));
                kept
            })
            .collect();
        drop(sweeps);
        drop(phase);

        let sizes: Vec<u32> = per_l.iter().map(|p| p.len() as u32).collect();
        let survived: u64 = sizes.iter().map(|&s| s as u64).sum();
        let dominated = feasible - survived;
        self.rejections.oom.add(tally.oom);
        self.rejections.nonfinite.add(tally.nonfinite);
        self.rejections.dominated.add(dominated);
        self.frontier_size
            .set_max(sizes.iter().copied().max().unwrap_or(0) as f64);
        mist_telemetry::journal_event(|| mist_telemetry::JournalEvent::FrontierSummary {
            mesh_nodes: key.mesh.nodes,
            mesh_gpus: key.mesh.gpus_per_node,
            role: format!("{:?}", key.role),
            inflight: key.inflight,
            grad_accum: key.grad_accum,
            max_layers,
            enumerated: tally.enumerated,
            oom: tally.oom,
            nonfinite: tally.nonfinite,
            feasible,
            survived,
            dominated,
            sizes: sizes.clone(),
        });
        FrontierRecord {
            mesh: key.mesh,
            role: key.role,
            inflight: key.inflight,
            candidates,
            budget: self.budget,
            proof: if tally.budget_bound {
                BudgetProof::Sensitive
            } else {
                BudgetProof::Fit {
                    mem_hi: tally.mem_hi,
                }
            },
            per_l,
        }
    }

    /// Sweeps one `(dp, tp, b)` candidate over all layer counts, ZeRO
    /// levels and offload combos as a single columnar batch.
    ///
    /// Rows are group-major and layer-minor: `(zero, offload)` groups in
    /// ZeRO-outer/offload-inner order, and within a group one row per
    /// layer count. Walking rows in that order appends feasible
    /// rows to each layer count's list in exactly the order a row-by-row
    /// `(l, zero, offload)` sweep produced, so downstream Pareto
    /// reduction sees a byte-identical input sequence.
    ///
    /// Evaluation is memory-first: checkpoint resolution — one
    /// `mem_pair` pass over the whole batch (three under tuned
    /// checkpointing) — is the only memory test before the 22-root
    /// stage program, which runs on the rows some `ckpt` fits,
    /// compacted in row order. The walk re-checks their peak memory
    /// once, as the safety check on the linear checkpoint solve.
    ///
    /// Each step runs under its own `phase.*` span, a child of the
    /// key's `intra.frontier` span on whichever lane runs the sweep.
    fn sweep_candidate(
        &self,
        cand: StageCandidate,
        key: FrontierKey,
        max_layers: u32,
        ws: &mut SweepWorkspaces,
    ) -> CandidateSweep {
        let nl = max_layers as usize;
        let phase = mist_telemetry::span!("phase.tapes");
        let tapes = self.tapes(&cand);
        let (stage, mem) = tapes.compiled();
        drop(phase);

        let phase = mist_telemetry::span!("phase.ckpt_resolve");

        let mut sweep = CandidateSweep {
            per_l: vec![Vec::new(); nl],
            tally: SweepTally::default(),
        };
        let tally = &mut sweep.tally;
        let combos = self.space.offload_combos();
        let zeros = self.space.zero_levels();
        let groups = zeros.len() * combos.len();
        let n = groups * nl;
        tally.enumerated += n as u64;
        if n == 0 {
            return sweep;
        }
        self.configs_evaluated.add(n as u64);

        // The candidate's rows as columns, group-major and layer-minor.
        let mut l_col = Vec::with_capacity(n);
        let mut zero_col = Vec::with_capacity(n);
        let mut off_cols: [Vec<f64>; 4] = std::array::from_fn(|_| Vec::with_capacity(n));
        for &z in zeros {
            for off in &combos {
                for l in 1..=max_layers {
                    l_col.push(f64::from(l));
                    zero_col.push(f64::from(z));
                    for (col, &v) in off_cols.iter_mut().zip(off) {
                        col.push(v);
                    }
                }
            }
        }
        let mut batch = BatchBindings::new(n);
        batch.set_values("L", l_col.clone());
        batch.set_values("zero", zero_col.clone());
        for (name, col) in OFFLOAD_SYMS.iter().zip(&off_cols) {
            batch.set_values(name, col.clone());
        }
        batch.set_scalar("inflight", f64::from(key.inflight));

        // Checkpoint resolution is the memory filter. Every mode resolves
        // its `ckpt` column from peak-memory probes of the two-root
        // `mem_pair` program: `None` probes ckpt 0 and `Full` probes
        // ckpt L once each, `Tuned` probes ckpt 0, 1 and L and solves
        // for the minimal fitting count. Rows that no count fits get the
        // `∞` marker; every finite row runs the 22-root program.
        let free_col = match self.space.ckpt {
            CkptMode::Full => l_col.clone(),
            CkptMode::None | CkptMode::Tuned => vec![0.0; n],
        };
        let mut peaks_at = |ckpt: Vec<f64>| -> Vec<f64> {
            batch.set_values("ckpt", ckpt);
            mem.eval_batch(&batch, &mut ws.mem)
                .expect("mem_pair program");
            ws.mem
                .output(0)
                .iter()
                .zip(ws.mem.output(1))
                .map(|(&f, &b)| f.max(b))
                .collect()
        };
        let ckpt_col: Vec<f64> = match self.space.ckpt {
            CkptMode::None | CkptMode::Full => {
                let peaks = peaks_at(free_col.clone());
                free_col
                    .iter()
                    .zip(peaks)
                    .map(|(&c, m)| if m > self.budget { f64::INFINITY } else { c })
                    .collect()
            }
            CkptMode::Tuned => {
                let m0 = peaks_at(vec![0.0; n]);
                let m1 = peaks_at(vec![1.0; n]);
                let ml = peaks_at(l_col.clone());
                (0..n)
                    .map(|r| minimal_ckpt(m0[r], m1[r], ml[r], (r % nl) as u32 + 1, self.budget))
                    .collect()
            }
        };
        drop(batch);
        // The budget shaped a row exactly when its resolved `ckpt`
        // differs from the mode's budget-free choice (the `∞` marker
        // included); such a sweep is not reusable under other budgets.
        // The walk's re-check adds nothing here: at a probed `ckpt` the
        // 22-root program recomputes the probe's memory roots bit for
        // bit, so it can only reject rows whose tuned `ckpt` came from
        // the linear solve, and those are already budget-shaped.
        tally.budget_bound |= ckpt_col != free_col;
        let survivors: Vec<usize> = (0..n).filter(|&r| !ckpt_col[r].is_infinite()).collect();
        drop(phase);

        // One 22-root pass over the survivors, compacted in row order.
        let phase = mist_telemetry::span!("phase.full_eval");
        if !survivors.is_empty() {
            let gather = |col: &[f64]| survivors.iter().map(|&r| col[r]).collect::<Vec<f64>>();
            let mut compact = BatchBindings::new(survivors.len());
            compact.set_values("L", gather(&l_col));
            compact.set_values("ckpt", gather(&ckpt_col));
            compact.set_values("zero", gather(&zero_col));
            for (name, col) in OFFLOAD_SYMS.iter().zip(&off_cols) {
                compact.set_values(name, gather(col));
            }
            compact.set_scalar("inflight", f64::from(key.inflight));
            stage
                .eval_batch(&compact, &mut ws.stage)
                .expect("compiled stage program");
        }
        drop(phase);

        // Time and imbalance of every survivor.
        let phase = mist_telemetry::span!("phase.interference");
        let mut t_col = vec![0.0; survivors.len()];
        let mut d_col = vec![0.0; survivors.len()];
        stage_streams_columns(
            &ws.stage,
            self.interference,
            self.space.overlap_aware,
            &mut t_col,
            &mut d_col,
        );
        drop(phase);

        // Classify every survivor in sweep order.
        let _phase = mist_telemetry::span!("phase.walk");
        let (mem_fwd, mem_bwd) = if survivors.is_empty() {
            (&[][..], &[][..])
        } else {
            (
                ws.stage.output(stage_roots::MEM_FWD),
                ws.stage.output(stage_roots::MEM_BWD),
            )
        };
        tally.oom += (n - survivors.len()) as u64; // No feasible checkpoint count.
        for (j, &r) in survivors.iter().enumerate() {
            let mem_peak = mem_fwd[j].max(mem_bwd[j]);
            tally.mem_hi = tally.mem_hi.max(mem_peak);
            if mem_peak > self.budget {
                tally.oom += 1;
                continue; // Conservative re-check of the linear solve.
            }
            let (t, d) = (t_col[j], d_col[j]);
            if !t.is_finite() {
                tally.nonfinite += 1;
                continue;
            }
            let group = r / nl;
            let off = combos[group % combos.len()];
            let l = r % nl + 1;
            sweep.per_l[l - 1].push(ParetoPoint {
                t,
                d,
                mem_peak,
                candidate: cand,
                config: StageConfigValues {
                    layers: l as u32,
                    ckpt: ckpt_col[r] as u32,
                    zero: zeros[group / combos.len()],
                    wo: off[0],
                    go: off[1],
                    oo: off[2],
                    ao: off[3],
                    inflight: key.inflight,
                },
            });
        }
        sweep
    }
}

/// Smallest `ckpt ∈ [0, l]` whose (linear-in-ckpt) peak memory fits the
/// budget; `f64::INFINITY` when even full recomputation does not fit.
fn minimal_ckpt(m0: f64, m1: f64, ml: f64, l: u32, budget: f64) -> f64 {
    if m0 <= budget {
        return 0.0;
    }
    if ml > budget {
        return f64::INFINITY;
    }
    if m1 <= budget || l == 1 {
        return 1.0;
    }
    // Memory falls linearly from m1 (ckpt=1) to ml (ckpt=l).
    let slope = (m1 - ml) / (l as f64 - 1.0);
    debug_assert!(slope >= 0.0, "checkpointing must not increase memory");
    if slope <= 0.0 {
        return l as f64;
    }
    let need = ((m1 - budget) / slope).ceil() + 1.0;
    need.clamp(1.0, l as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mist_hardware::{GpuSpec, Platform};
    use mist_models::{gpt3, AttentionImpl, ModelSize};

    struct Ctx {
        model: ModelSpec,
        cluster: ClusterSpec,
        db: OpCostDb,
        interference: InterferenceModel,
    }

    fn ctx() -> Ctx {
        Ctx {
            model: gpt3(ModelSize::B2_6, 2048, AttentionImpl::Flash),
            cluster: ClusterSpec::for_gpu_count(Platform::GcpL4, 4),
            db: OpCostDb::new(GpuSpec::l4()),
            interference: InterferenceModel::pcie_defaults(),
        }
    }

    fn key(mesh: DeviceMesh, g: u32) -> FrontierKey {
        FrontierKey {
            mesh,
            role: StageRole::Only,
            inflight: 1,
            grad_accum: g,
        }
    }

    #[test]
    fn minimal_ckpt_logic() {
        // Budget already met at ckpt=0.
        assert_eq!(minimal_ckpt(10.0, 9.0, 5.0, 8, 12.0), 0.0);
        // Infeasible even at full recompute.
        assert_eq!(minimal_ckpt(10.0, 9.0, 5.0, 8, 4.0), f64::INFINITY);
        // One layer of recompute suffices.
        assert_eq!(minimal_ckpt(10.0, 7.0, 5.0, 8, 8.0), 1.0);
        // Interior solve: m1=10, ml=3 over l=8 → slope=1; budget 6.5 →
        // need = ceil(3.5) + 1 = 5.
        assert_eq!(minimal_ckpt(12.0, 10.0, 3.0, 8, 6.5), 5.0);
        // Full recompute exactly fits.
        assert_eq!(minimal_ckpt(12.0, 10.0, 3.0, 8, 3.0), 8.0);
    }

    #[test]
    fn frontier_points_respect_budget_and_sorting() {
        let c = ctx();
        let space = SearchSpace::mist();
        let tuner = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 8);
        let fr = tuner.frontiers(key(DeviceMesh::new(1, 4), 4), c.model.num_layers);
        assert_eq!(fr.per_l.len(), 32);
        let full = &fr.per_l[31]; // All 32 layers in one stage.
        assert!(
            !full.is_empty(),
            "32-layer stage must have feasible configs"
        );
        for p in full.iter() {
            assert!(p.mem_peak <= tuner.budget());
            assert_eq!(p.config.layers, 32);
        }
        for w in full.windows(2) {
            assert!(w[0].t <= w[1].t, "frontier must be t-sorted");
            assert!(w[0].d >= w[1].d, "frontier must be d-antitone");
        }
    }

    #[test]
    fn bigger_budget_never_hurts() {
        let c = ctx();
        let space = SearchSpace::mist();
        let small = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 8)
            .with_budget(16e9);
        let large = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 8)
            .with_budget(64e9);
        let mesh = DeviceMesh::new(1, 4);
        let fs = small.frontiers(key(mesh, 4), 32);
        let fl = large.frontiers(key(mesh, 4), 32);
        let best = |f: &FrontierRecord| f.per_l[31].first().map(|p| p.t).unwrap_or(f64::INFINITY);
        assert!(best(&fl) <= best(&fs) + 1e-12);
    }

    #[test]
    fn zero_and_offload_unlock_memory_constrained_configs() {
        let c = ctx();
        // A tiny budget: without memory optimizations nothing fits.
        let bare = SearchSpace {
            ckpt: CkptMode::None,
            zero_levels: vec![0],
            ..SearchSpace::megatron()
        };
        let mist = SearchSpace::mist();
        let budget = 6e9;
        let mesh = DeviceMesh::new(1, 4);
        let t_bare = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &bare, &c.interference, 8)
            .with_budget(budget);
        let t_mist = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &mist, &c.interference, 8)
            .with_budget(budget);
        let fb = t_bare.frontiers(key(mesh, 4), 32);
        let fm = t_mist.frontiers(key(mesh, 4), 32);
        assert!(
            fb.per_l[31].is_empty(),
            "parallelism-only must OOM (Fig. 2a)"
        );
        assert!(!fm.per_l[31].is_empty(), "the co-optimized space must fit");
    }

    /// End-to-end exactness of the columnar sweep: every frontier
    /// point must be bit-identical to re-evaluating its configuration
    /// through the *original* fused program's scalar path.
    #[test]
    fn specialized_sweep_matches_scalar_reference_exactly() {
        let c = ctx();
        for space in [SearchSpace::mist(), SearchSpace::megatron()] {
            let tuner =
                IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 8);
            let fr = tuner.frontiers(key(DeviceMesh::new(1, 4), 4), c.model.num_layers);
            let mut checked = 0usize;
            for per_l in &fr.per_l {
                for p in per_l {
                    let reference = tuner.evaluate_config(&p.candidate, &p.config);
                    assert_eq!(
                        format!("{p:?}"),
                        format!("{reference:?}"),
                        "space {}",
                        space.name
                    );
                    checked += 1;
                }
            }
            assert!(checked > 0, "space {} produced no points", space.name);
        }
    }

    /// Tapes — and with them their one lazily built compile — are
    /// shared across frontier keys: re-sweeping the same candidates for
    /// a larger layer cap neither re-analyzes nor recompiles.
    #[test]
    fn compile_cache_is_shared_across_frontier_keys() {
        let c = ctx();
        let space = SearchSpace::mist();
        let tuner = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 8);
        let k = key(DeviceMesh::new(1, 4), 4);
        let compiled_tapes = |tuner: &IntraStageTuner| {
            let cache = tuner.tape_cache.lock();
            let mut v: Vec<(TapeKey, usize, usize)> = cache
                .iter()
                .map(|(key, cell)| {
                    let (stage, mem) = cell.get().expect("analyzed tapes").compiled();
                    (*key, stage as *const _ as usize, mem as *const _ as usize)
                })
                .collect();
            v.sort_by_key(|&(_, stage, _)| stage);
            v
        };
        tuner.frontiers(k, 16);
        let first = compiled_tapes(&tuner);
        assert!(!first.is_empty(), "the sweep must build tapes");
        tuner.frontiers(k, 32);
        assert_eq!(
            compiled_tapes(&tuner),
            first,
            "recomputation over identical tapes must not recompile"
        );
    }

    /// Row outcome tally of the scalar reference sweep.
    #[derive(Debug, Default, PartialEq)]
    struct OracleTally {
        enumerated: u64,
        oom: u64,
        nonfinite: u64,
        dominated: u64,
    }

    /// The slow, obviously-correct reference for one frontier key: every
    /// `(candidate, l, zero, offload)` row goes through the scalar
    /// `eval_scalar` path one at a time, `ckpt` is resolved from scalar
    /// probes at `ckpt ∈ {0, 1, L}`, every feasible row becomes a full
    /// `ParetoPoint`, and each layer count is reduced with
    /// `pareto_frontier` + `sample_frontier`. No batched checkpoint
    /// resolution and no survivor compaction. Also returns the key's
    /// budget proof: `Sensitive` when the budget shaped some row (an
    /// OOM, or a nonzero tuned checkpoint count), otherwise `Fit` with
    /// the largest peak memory of the non-OOM rows.
    fn oracle_frontiers(
        tuner: &IntraStageTuner<'_>,
        key: FrontierKey,
        max_layers: u32,
        tally: &mut OracleTally,
    ) -> (Vec<Vec<ParetoPoint>>, BudgetProof) {
        let space = tuner.space;
        let budget = tuner.budget();
        let mut shaped = false;
        let mut mem_hi = 0.0f64;
        let mut per_l: Vec<Vec<ParetoPoint>> = vec![Vec::new(); max_layers as usize];
        for c in tuner.parallelism_candidates(key.mesh, key.grad_accum) {
            let cand = StageCandidate {
                mesh: key.mesh,
                dp: c.dp,
                tp: c.tp,
                micro_batch: c.micro_batch,
                role: key.role,
            };
            let tapes = tuner.tapes(&cand);
            for l in 1..=max_layers {
                for &zero in space.zero_levels() {
                    for off in space.offload_combos() {
                        tally.enumerated += 1;
                        let cfg = |ckpt: u32| StageConfigValues {
                            layers: l,
                            ckpt,
                            zero,
                            wo: off[0],
                            go: off[1],
                            oo: off[2],
                            ao: off[3],
                            inflight: key.inflight,
                        };
                        let peak = |ckpt: u32| tapes.eval_point(&cfg(ckpt)).mem_peak();
                        let ckpt = match space.ckpt {
                            CkptMode::None => 0.0,
                            CkptMode::Full => f64::from(l),
                            CkptMode::Tuned => minimal_ckpt(peak(0), peak(1), peak(l), l, budget),
                        };
                        shaped |= space.ckpt == CkptMode::Tuned && ckpt > 0.0;
                        if ckpt.is_infinite() {
                            tally.oom += 1;
                            shaped = true;
                            continue;
                        }
                        let config = cfg(ckpt as u32);
                        let point = tapes.eval_point(&config);
                        if point.mem_peak() > budget {
                            tally.oom += 1;
                            shaped = true;
                            continue;
                        }
                        mem_hi = mem_hi.max(point.mem_peak());
                        let st = stage_streams(&point, tuner.interference, space.overlap_aware);
                        if !st.t.is_finite() {
                            tally.nonfinite += 1;
                            continue;
                        }
                        per_l[(l - 1) as usize].push(ParetoPoint {
                            t: st.t,
                            d: st.d,
                            mem_peak: point.mem_peak(),
                            candidate: cand,
                            config,
                        });
                    }
                }
            }
        }
        for points in per_l.iter_mut() {
            let td: Vec<(f64, f64)> = points.iter().map(|p| (p.t, p.d)).collect();
            let sampled = sample_frontier(&pareto_frontier(&td), space.pareto_samples);
            let mut kept: Vec<ParetoPoint> = sampled.iter().map(|&i| points[i].clone()).collect();
            kept.sort_by(|a, b| a.t.total_cmp(&b.t));
            tally.dominated += (points.len() - kept.len()) as u64;
            *points = kept;
        }
        let proof = if shaped {
            BudgetProof::Sensitive
        } else {
            BudgetProof::Fit { mem_hi }
        };
        (per_l, proof)
    }

    /// The columnar sweep must reproduce the scalar reference sweep
    /// exactly: byte-identical serialized frontiers, every enumerated
    /// row in the same outcome bucket, and each key's budget proof
    /// bitwise equal to the reference's: `Sensitive` exactly when the
    /// budget shaped some reference row, `Fit` with the reference's
    /// largest non-OOM peak otherwise.
    /// Covers tuned (`mist`, `aceso` with its serial predictor), full
    /// (`megatron`) and disabled checkpointing, tight to default
    /// budgets, two in-flight levels and 1 and 2 pool threads.
    #[test]
    fn columnar_sweep_matches_scalar_oracle() {
        let c = ctx();
        let no_ckpt = SearchSpace {
            name: "mist-no-ckpt".into(),
            ckpt: CkptMode::None,
            ..SearchSpace::mist()
        };
        let spaces = [
            SearchSpace::mist(),
            SearchSpace::megatron(),
            SearchSpace::aceso(),
            no_ckpt,
        ];
        let max_layers = 8;
        let keys: Vec<FrontierKey> = [1, 2]
            .into_iter()
            .map(|inflight| FrontierKey {
                mesh: DeviceMesh::new(1, 4),
                role: StageRole::First,
                inflight,
                grad_accum: 4,
            })
            .collect();
        let mut oom_somewhere = false;
        for space in &spaces {
            // Which proof classes (budget-free, budget-shaped) the space saw.
            let mut classes = [false; 2];
            for budget in [3e9, 8e9, 16e9, c.cluster.gpu.memory_bytes] {
                let mk = || {
                    IntraStageTuner::new(&c.model, &c.cluster, &c.db, space, &c.interference, 8)
                        .with_budget(budget)
                };
                let reference = mk();
                let mut want = OracleTally::default();
                let (want_frontiers, want_proofs): (Vec<String>, Vec<BudgetProof>) = keys
                    .iter()
                    .map(|&k| {
                        let (f, proof) = oracle_frontiers(&reference, k, max_layers, &mut want);
                        (serde_json::to_string(&f).unwrap(), proof)
                    })
                    .unzip();
                for threads in [1, 2] {
                    let tuner = mk().with_pool(Arc::new(ThreadPool::new(threads)));
                    let got: Vec<_> = keys
                        .iter()
                        .map(|&k| tuner.frontiers(k, max_layers))
                        .collect();
                    let ctx = format!("space {} budget {budget:e} threads {threads}", space.name);
                    for (g, w) in got.iter().zip(&want_frontiers) {
                        assert_eq!(&serde_json::to_string(&g.per_l).unwrap(), w, "{ctx}");
                    }
                    for ((k, g), want_proof) in keys.iter().zip(&got).zip(&want_proofs) {
                        let proof = g.proof;
                        assert_eq!(
                            format!("{proof:?}"),
                            format!("{want_proof:?}"),
                            "{ctx} inflight {}",
                            k.inflight
                        );
                        classes[usize::from(proof == BudgetProof::Sensitive)] = true;
                    }
                    let rej = tuner.rejections();
                    assert_eq!(tuner.configs_evaluated(), want.enumerated, "{ctx}");
                    assert_eq!(rej.oom.value(), want.oom, "{ctx}");
                    assert_eq!(rej.nonfinite.value(), want.nonfinite, "{ctx}");
                    assert_eq!(rej.dominated.value(), want.dominated, "{ctx}");
                    oom_somewhere |= rej.oom.value() > 0;
                }
            }
            assert_eq!(
                classes, [true; 2],
                "space {} must see budget-free and budget-shaped keys",
                space.name
            );
        }
        assert!(oom_somewhere, "some budget must reject rows as OOM");
    }

    #[test]
    fn candidates_respect_global_batch_divisibility() {
        let c = ctx();
        let space = SearchSpace::mist();
        let tuner = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &space, &c.interference, 6);
        // B=6, mesh 4 GPUs: dp=4 needs 6 % (4·G) == 0 — fails for G=1; dp=2
        // works (b=3); dp=1 works (b=6).
        let cands = tuner.parallelism_candidates(DeviceMesh::new(1, 4), 1);
        assert!(cands.iter().all(|c| c.dp as u64 * c.micro_batch == 6));
        assert!(cands.iter().any(|c| c.dp == 2));
        assert!(!cands.iter().any(|c| c.dp == 4));
    }

    #[test]
    fn overlap_awareness_reduces_predicted_time() {
        let c = ctx();
        let aware = SearchSpace::mist();
        let unaware = SearchSpace {
            overlap_aware: false,
            ..SearchSpace::mist()
        };
        let mesh = DeviceMesh::new(1, 4);
        let ta = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &aware, &c.interference, 8);
        let tu = IntraStageTuner::new(&c.model, &c.cluster, &c.db, &unaware, &c.interference, 8);
        let fa = ta.frontiers(key(mesh, 4), 32);
        let fu = tu.frontiers(key(mesh, 4), 32);
        let best_a = fa.per_l[31].first().map(|p| p.t).unwrap();
        let best_u = fu.per_l[31].first().map(|p| p.t).unwrap();
        assert!(
            best_a <= best_u + 1e-12,
            "overlap-aware t must not be worse"
        );
    }
}

#[cfg(test)]
mod pruning_tests {
    use super::*;
    use mist_hardware::{GpuSpec, Platform};
    use mist_models::{gpt3, preset, preset_names, AttentionImpl, ModelSize};

    /// Validates the minimal-checkpoint pruning: enumerating every ckpt
    /// value exhaustively never finds a feasible configuration with a
    /// better stable time than the analytically resolved minimal ckpt,
    /// and over a grid of every preset, role, activation-offload ratio,
    /// ZeRO level and in-flight count, `minimal_ckpt` returns exactly
    /// the smallest fitting count a scalar linear scan finds — at every
    /// budget equal to some `m(ckpt)` (ties included) and every midpoint
    /// between consecutive ones.
    #[test]
    fn minimal_ckpt_pruning_is_lossless() {
        let model = gpt3(ModelSize::B2_6, 2048, AttentionImpl::Flash);
        let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 4);
        let db = OpCostDb::new(GpuSpec::l4());
        let intf = InterferenceModel::pcie_defaults();
        let space = SearchSpace {
            // Offloading off so ckpt is the only memory lever (the pruning
            // argument assumes ckpt does not reduce other stream traffic).
            offload_grid: vec![],
            offload_enabled: [false; 4],
            ..SearchSpace::mist()
        };
        let budget = 10e9; // Tight enough to force recomputation.
        let tuner =
            IntraStageTuner::new(&model, &cluster, &db, &space, &intf, 8).with_budget(budget);
        let mesh = DeviceMesh::new(1, 4);
        let key = FrontierKey {
            mesh,
            role: StageRole::Only,
            inflight: 1,
            grad_accum: 4,
        };
        let frontier = tuner.frontiers(key, 32);

        // Exhaustive reference over every (dp, tp, zero, ckpt).
        for l in [16u32, 32] {
            let Some(best_pruned) = frontier.per_l[(l - 1) as usize].first() else {
                continue;
            };
            let mut best_exhaustive = f64::INFINITY;
            for c in tuner.parallelism_candidates(mesh, 4) {
                let cand = StageCandidate {
                    mesh,
                    dp: c.dp,
                    tp: c.tp,
                    micro_batch: c.micro_batch,
                    role: StageRole::Only,
                };
                for zero in 0..=3u8 {
                    for ckpt in 0..=l {
                        let cfg = StageConfigValues {
                            layers: l,
                            ckpt,
                            zero,
                            wo: 0.0,
                            go: 0.0,
                            oo: 0.0,
                            ao: 0.0,
                            inflight: 1,
                        };
                        let p = tuner.evaluate_config(&cand, &cfg);
                        if p.mem_peak <= budget {
                            best_exhaustive = best_exhaustive.min(p.t);
                        }
                    }
                }
            }
            assert!(
                best_pruned.t <= best_exhaustive + 1e-9,
                "l={l}: pruned best {} vs exhaustive {}",
                best_pruned.t,
                best_exhaustive
            );
        }

        let roles = [
            StageRole::First,
            StageRole::Middle,
            StageRole::Last,
            StageRole::Only,
        ];
        let mut cases = 0usize;
        for name in preset_names() {
            let model = preset(&name, 2048, AttentionImpl::Flash).unwrap();
            let analyzer = StageAnalyzer::new(&model, &cluster, &db);
            let n = model.num_layers;
            for role in roles {
                let tapes = analyzer.analyze(&StageCandidate {
                    mesh,
                    dp: 2,
                    tp: 2,
                    micro_batch: 2,
                    role,
                });
                for ao in [0.0, 0.5, 1.0] {
                    for zero in [0u8, 3] {
                        for inflight in [1u32, 4] {
                            for l in [1, 2, n / 2, n] {
                                let m: Vec<f64> = (0..=l)
                                    .map(|ckpt| {
                                        let cfg = StageConfigValues {
                                            layers: l,
                                            ckpt,
                                            zero,
                                            wo: 0.0,
                                            go: 0.0,
                                            oo: 0.0,
                                            ao,
                                            inflight,
                                        };
                                        tapes.eval_point(&cfg).mem_peak()
                                    })
                                    .collect();
                                let midpoints = m.windows(2).map(|w| 0.5 * (w[0] + w[1]));
                                for budget in m.iter().copied().chain(midpoints) {
                                    let scan = m
                                        .iter()
                                        .position(|&mc| mc <= budget)
                                        .map_or(f64::INFINITY, |c| c as f64);
                                    let solved = minimal_ckpt(m[0], m[1], m[l as usize], l, budget);
                                    assert_eq!(
                                        solved, scan,
                                        "{name} {role:?} ao={ao} zero={zero} \
                                         inflight={inflight} l={l} budget={budget}: {m:?}"
                                    );
                                    cases += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(cases > 100_000, "grid too small: {cases} cases");
    }
}
