//! Replays the sub-layers of one tune's intra-stage sweep from outside
//! the tuner.
//!
//! `Tuner::tune` runs the whole sweep behind one call, so the layers
//! inside it cannot be timed around their public functions during the
//! tune itself. The replay walks the same outer candidates, frontier
//! keys, parallelism candidates, `(zero, offload)` groups and batch
//! shapes the tuner walks, in the same order and with the same caches
//! (tapes per candidate, monotonicity proofs per tapes, interval bounds
//! per in-flight count, all-OOM floors for monotone pruning), and calls
//! each layer's public function inside a span:
//!
//! | span | call |
//! |---|---|
//! | `graph.analyze` | `StageAnalyzer::analyze` |
//! | `irlint.mono` | `monotonicity` |
//! | `irlint.intervals` | `root_intervals` |
//! | `symbolic.compile` | `CompiledProgram::compile` |
//! | `symbolic.eval_mem` / `symbolic.eval_full` | `CompiledProgram::eval_batch` |
//! | `interference.predict` | `InterferenceModel::predict_batch` |
//! | `pareto` | `pareto_frontier` + `sample_frontier` |
//!
//! Row counts are returned so the caller can check the replay walked
//! exactly the rows the tune evaluated.

use std::collections::{HashMap, HashSet};

use mist_graph::{StageAnalyzer, StageCandidate, StagePoint, StageRole, StageTapes};
use mist_hardware::{ClusterSpec, DeviceMesh, OpCostDb};
use mist_interference::InterferenceModel;
use mist_irlint::{monotonicity, root_intervals, DomainMap, SymbolDomain};
use mist_models::ModelSpec;
use mist_symbolic::{BatchBindings, CompiledProgram, CompiledWorkspace, Program};
use mist_tuner::{pareto_frontier, sample_frontier, CkptMode, SearchSpace};

use crate::trace::Tracer;

/// What the tune was asked: the replay needs every input that shapes
/// the sweep.
pub struct SweepInput<'a> {
    pub model: &'a ModelSpec,
    pub cluster: &'a ClusterSpec,
    pub db: &'a OpCostDb,
    pub space: &'a SearchSpace,
    pub interference: &'a InterferenceModel,
    pub global_batch: u64,
    pub budget: f64,
    pub max_grad_accum: u32,
}

/// Rows and calls the replay made.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub rows_evaluated: u64,
    pub rows_oom: u64,
    pub rows_nonfinite: u64,
    pub rows_mono_pruned: u64,
    pub mem_rows: u64,
    pub full_rows: u64,
    pub predict_rows: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    mesh: DeviceMesh,
    role: StageRole,
    inflight: u32,
    grad_accum: u32,
}

type TapeKey = (DeviceMesh, u32, u32, u64, StageRole);

struct Tapes {
    tapes: StageTapes,
    /// The compiled `(program, mem_pair)`, built on first evaluation.
    compiled: Option<(CompiledProgram, CompiledProgram)>,
    mono: Option<bool>,
}

struct Replay<'a, 't> {
    inp: &'a SweepInput<'a>,
    tr: &'t mut Tracer,
    domains: DomainMap,
    tapes: HashMap<TapeKey, Tapes>,
    bounded: HashSet<(TapeKey, u32)>,
    frontiers: HashMap<Key, u32>,
    floors: HashMap<(TapeKey, u32), u32>,
    pending: Vec<((TapeKey, u32), u32)>,
    ws: CompiledWorkspace,
    counts: ReplayCounts,
}

/// Replays the sweep of `Tuner::tune(inp.global_batch)` with monotone
/// pruning and the compiled backend on (the tuner's defaults).
pub fn replay_sweep(inp: &SweepInput<'_>, tr: &mut Tracer) -> ReplayCounts {
    assert!(
        !inp.space.uniform_stages,
        "the replay covers the frontier sweep of non-uniform spaces"
    );
    let mut r = Replay {
        inp,
        tr,
        domains: inp.space.symbol_domains(inp.model),
        tapes: HashMap::new(),
        bounded: HashSet::new(),
        frontiers: HashMap::new(),
        floors: HashMap::new(),
        pending: Vec::new(),
        ws: CompiledWorkspace::default(),
        counts: ReplayCounts::default(),
    };
    let layers = inp.model.num_layers;
    for g in grad_accum_candidates(inp.global_batch, inp.max_grad_accum) {
        for (s, mesh) in pipeline_shapes(inp.cluster, layers) {
            let keys: Vec<Key> = (0..s)
                .map(|i| Key {
                    mesh,
                    role: StageRole::of(i, s),
                    inflight: g.min(s - i),
                    grad_accum: g,
                })
                .collect();
            let mut unique: Vec<Key> = Vec::new();
            for k in keys {
                if !unique.contains(&k) {
                    unique.push(k);
                }
            }
            let mut levels: Vec<u32> = unique.iter().map(|k| k.inflight).collect();
            levels.sort_unstable();
            levels.dedup();
            for level in levels {
                for &k in unique.iter().filter(|k| k.inflight == level) {
                    r.frontier(k, layers - (s - 1));
                }
                for (key, inflight) in std::mem::take(&mut r.pending) {
                    let e = r.floors.entry(key).or_insert(inflight);
                    *e = (*e).min(inflight);
                }
            }
        }
    }
    r.counts
}

impl Replay<'_, '_> {
    fn frontier(&mut self, key: Key, max_layers: u32) {
        if self.frontiers.get(&key).is_some_and(|&m| m >= max_layers) {
            return;
        }
        self.frontiers.insert(key, max_layers);
        let mut per_l: Vec<Vec<(f64, f64)>> = vec![Vec::new(); max_layers as usize];
        for (dp, tp, b) in parallelism_candidates(self.inp, key.mesh, key.grad_accum) {
            let cand = StageCandidate {
                mesh: key.mesh,
                dp,
                tp,
                micro_batch: b,
                role: key.role,
            };
            let tk: TapeKey = (cand.mesh, dp, tp, b, cand.role);
            if !self.tapes.contains_key(&tk) {
                let analyzer = StageAnalyzer::new(self.inp.model, self.inp.cluster, self.inp.db);
                let tapes = self.tr.span("graph.analyze", || analyzer.analyze(&cand));
                self.tapes.insert(
                    tk,
                    Tapes {
                        tapes,
                        compiled: None,
                        mono: None,
                    },
                );
            }
            if self.bounded.insert((tk, key.inflight)) {
                let domains = self.domains.clone().declare(
                    "inflight",
                    SymbolDomain::point(f64::from(key.inflight), true),
                );
                let program = &self.tapes[&tk].tapes.program;
                let bounds = self
                    .tr
                    .span("irlint.intervals", || root_intervals(program, &domains));
                std::hint::black_box(bounds);
            }
            self.candidate(tk, key, max_layers, &mut per_l);
        }
        for td in per_l.iter().filter(|td| !td.is_empty()) {
            let samples = self.inp.space.pareto_samples;
            self.tr.span("pareto", || {
                std::hint::black_box(sample_frontier(&pareto_frontier(td), samples));
            });
        }
    }

    /// One `(dp, tp, b)` candidate over all layer counts, ZeRO levels
    /// and offload combos: the tuner's memory-first filtered sweep.
    fn candidate(&mut self, tk: TapeKey, key: Key, max_layers: u32, per_l: &mut [Vec<(f64, f64)>]) {
        let space = self.inp.space;
        let budget = self.inp.budget;
        let combos = space.offload_combos();
        let zeros = space.zero_levels().to_vec();
        let rows_per_l = (zeros.len() * combos.len()) as u64;

        let licensed = rows_per_l > 0 && self.mono_licensed(tk);
        let mut retained: Vec<u32> = Vec::new();
        for l in 1..=max_layers {
            match self.floors.get(&(tk, l)) {
                Some(&fl) if licensed && fl < key.inflight => {
                    self.counts.rows_mono_pruned += rows_per_l
                }
                _ => retained.push(l),
            }
        }
        if retained.is_empty() {
            return;
        }
        self.counts.rows_evaluated += retained.len() as u64 * rows_per_l;
        let entry = self.tapes.get_mut(&tk).expect("tapes analyzed above");
        if entry.compiled.is_none() {
            let tapes = &entry.tapes;
            entry.compiled = Some(self.tr.span("symbolic.compile", || {
                (
                    CompiledProgram::compile(&tapes.program),
                    CompiledProgram::compile(&tapes.mem_pair),
                )
            }));
        }
        let entry = &self.tapes[&tk];
        let (program, mem_pair) = entry.compiled.as_ref().expect("compiled above");

        let nr = retained.len();
        let ls: Vec<f64> = retained.iter().map(|&l| f64::from(l)).collect();
        let mut any_feasible = vec![false; nr];
        let mut any_nonfinite = vec![false; nr];
        let mut recheck_oom = vec![false; nr];
        let ws = &mut self.ws;
        let tr = &mut *self.tr;
        let counts = &mut self.counts;
        for &z in &zeros {
            for off in &combos {
                let mut batch = BatchBindings::new(nr);
                batch.set_values("L", ls.clone());
                bind_group(&mut batch, z, off, key.inflight);
                let mut mem_at = |batch: &mut BatchBindings, ckpt: Vec<f64>| -> Vec<f64> {
                    batch.set_values("ckpt", ckpt);
                    tr.span("symbolic.eval_mem", || {
                        mem_pair.eval_batch(batch, ws).expect("mem_pair program")
                    });
                    counts.mem_rows += nr as u64;
                    ws.output(0)
                        .iter()
                        .zip(ws.output(1))
                        .map(|(&f, &b)| f.max(b))
                        .collect()
                };
                let ckpt_col: Vec<f64> = match space.ckpt {
                    CkptMode::None => vec![0.0; nr],
                    CkptMode::Full => ls.clone(),
                    CkptMode::Tuned => {
                        let m0 = mem_at(&mut batch, vec![0.0; nr]);
                        let m1 = mem_at(&mut batch, vec![1.0; nr]);
                        let ml = mem_at(&mut batch, ls.clone());
                        retained
                            .iter()
                            .enumerate()
                            .map(|(i, &l)| minimal_ckpt(m0[i], m1[i], ml[i], l, budget))
                            .collect()
                    }
                };
                let mem_peaks = mem_at(&mut batch, ckpt_col.clone());
                // The tuner's survivor test: `!(peak > budget)`, so a NaN
                // peak survives the pre-pass exactly as it does there.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let survivors: Vec<usize> = (0..nr)
                    .filter(|&i| !ckpt_col[i].is_infinite() && !(mem_peaks[i] > budget))
                    .collect();
                for i in (0..nr).filter(|i| !survivors.contains(i)) {
                    counts.rows_oom += 1;
                    if !ckpt_col[i].is_infinite() {
                        recheck_oom[i] = true;
                    }
                }
                if survivors.is_empty() {
                    continue;
                }
                let mut surv = BatchBindings::new(survivors.len());
                surv.set_values("L", survivors.iter().map(|&i| ls[i]).collect());
                surv.set_values("ckpt", survivors.iter().map(|&i| ckpt_col[i]).collect());
                bind_group(&mut surv, z, off, key.inflight);
                tr.span("symbolic.eval_full", || {
                    program.eval_batch(&surv, ws).expect("stage program")
                });
                counts.full_rows += survivors.len() as u64;

                let mut rows: Vec<(usize, [[f64; 4]; 4])> = Vec::with_capacity(survivors.len());
                for (cursor, &i) in survivors.iter().enumerate() {
                    let p: StagePoint = entry.tapes.point_at_compiled(ws, cursor);
                    if p.mem_peak() > budget {
                        counts.rows_oom += 1;
                        recheck_oom[i] = true;
                        continue;
                    }
                    let tuple = StagePoint::interference_tuple;
                    rows.push((
                        i,
                        [
                            tuple(p.fwd),
                            tuple(p.bwd),
                            tuple(add(p.fwd, p.first_extra)),
                            tuple(add(p.bwd, p.last_extra)),
                        ],
                    ));
                }
                let flat: Vec<[f64; 4]> = rows.iter().flat_map(|(_, r)| *r).collect();
                let times = tr.span("interference.predict", || {
                    self.inp.interference.predict_batch(&flat)
                });
                counts.predict_rows += rows.len() as u64;
                for ((i, _), w) in rows.iter().zip(times.chunks_exact(4)) {
                    let t = w[0] + w[1];
                    if !t.is_finite() {
                        counts.rows_nonfinite += 1;
                        any_nonfinite[*i] = true;
                        continue;
                    }
                    any_feasible[*i] = true;
                    per_l[(retained[*i] - 1) as usize].push((t, (w[2] + w[3] - t).max(0.0)));
                }
            }
        }
        if licensed {
            for (i, &l) in retained.iter().enumerate() {
                let extrapolatable = space.ckpt != CkptMode::Tuned || !recheck_oom[i];
                if !any_feasible[i] && !any_nonfinite[i] && extrapolatable {
                    self.pending.push(((tk, l), key.inflight));
                }
            }
        }
    }

    fn mono_licensed(&mut self, tk: TapeKey) -> bool {
        if let Some(proven) = self.tapes[&tk].mono {
            return proven;
        }
        let domains = &self.domains;
        let tapes = &self.tapes[&tk].tapes;
        let non_decreasing = |p: &Program| {
            let report = monotonicity(p, domains);
            report.verdict("mem_fwd", "inflight").non_decreasing()
                && report.verdict("mem_bwd", "inflight").non_decreasing()
        };
        let proven = self.tr.span("irlint.mono", || {
            non_decreasing(&tapes.program) && non_decreasing(&tapes.mem_pair)
        });
        self.tapes.get_mut(&tk).expect("tapes exist").mono = Some(proven);
        proven
    }
}

fn bind_group(batch: &mut BatchBindings, zero: u8, off: &[f64; 4], inflight: u32) {
    batch.set_scalar("zero", f64::from(zero));
    batch.set_scalar("wo", off[0]);
    batch.set_scalar("go", off[1]);
    batch.set_scalar("oo", off[2]);
    batch.set_scalar("ao", off[3]);
    batch.set_scalar("inflight", f64::from(inflight));
}

fn add(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]
}

/// The tuner's analytic checkpoint solve: smallest `ckpt ∈ [0, l]`
/// whose linear-in-`ckpt` peak memory fits, `∞` when none does.
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
    let slope = (m1 - ml) / (l as f64 - 1.0);
    if slope <= 0.0 {
        return l as f64;
    }
    (((m1 - budget) / slope).ceil() + 1.0).clamp(1.0, l as f64)
}

/// The tuner's gradient-accumulation candidates: powers of two up to
/// the cap that divide the batch, plus odd divisors for batches that
/// are not powers of two.
fn grad_accum_candidates(global_batch: u64, cap: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut g = 1u64;
    while g <= global_batch && g <= cap as u64 {
        if global_batch.is_multiple_of(g) {
            out.push(g as u32);
        }
        g *= 2;
    }
    if !global_batch.is_power_of_two() {
        let mut d = 3u64;
        while d * d <= global_batch && d <= cap as u64 {
            if global_batch.is_multiple_of(d) {
                out.push(d as u32);
            }
            d += 2;
        }
        out.sort_unstable();
        out.dedup();
    }
    out
}

/// The tuner's pipeline shapes: `S` equal sub-meshes covering the
/// cluster.
fn pipeline_shapes(cluster: &ClusterSpec, layers: u32) -> Vec<(u32, DeviceMesh)> {
    let total = cluster.total_gpus();
    let m = cluster.gpus_per_node;
    let mut out = Vec::new();
    for s in 1..=total.min(layers).min(64) {
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

/// The tuner's valid `(dp, tp, b)` candidates of a mesh under `G`.
fn parallelism_candidates(inp: &SweepInput<'_>, mesh: DeviceMesh, g: u32) -> Vec<(u32, u32, u64)> {
    let mut out = Vec::new();
    for (dp, tp) in mesh.dp_tp_choices() {
        let denom = dp as u64 * g as u64;
        if !inp.global_batch.is_multiple_of(denom) {
            continue;
        }
        let b = inp.global_batch / denom;
        if b == 0 || b > 512 {
            continue;
        }
        if !inp.model.heads.is_multiple_of(tp as u64) || !inp.model.hidden.is_multiple_of(tp as u64)
        {
            continue;
        }
        out.push((dp, tp, b));
    }
    out
}
