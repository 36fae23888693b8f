//! Inter-layer (stage-level) symbolic analysis.
//!
//! For a concrete candidate `(mesh, dp, tp, micro-batch, role)`, the
//! analyzer builds symbolic expressions — over the optimization symbols in
//! [`SYMS`] — for:
//!
//! * peak memory of the forward and backward passes (feasibility, Eq. 4),
//! * the four per-stream time totals (compute, NCCL, D2H, H2D) of the
//!   forward and backward phases of a *stable* microbatch, and
//! * the *extra* stream totals only incurred by the first microbatch
//!   (parameter all-gather, optimizer-state swaps, the decoupled &
//!   repositioned optimizer step) and the last microbatch (gradient
//!   reduction) — paper §5.1 and Fig. 4/10.
//!
//! The expressions are fused into one multi-root [`Program`], compiled
//! once per candidate, so the tuner can evaluate whole grids of
//! `(L, ckpt, zero, wo, go, oo, ao)` values in one batched pass — the
//! paper's key idea #2.
//!
//! # Modeling conventions
//!
//! * `micro_batch` is the per-DP-rank microbatch size `b`; the global
//!   batch is `b · dp · G`.
//! * All byte quantities are per GPU. Model states follow the
//!   mixed-precision 16 bytes/param split (2 fp16 params + 2 fp16 grads +
//!   12 fp32 optimizer) of the ZeRO analysis.
//! * The embedding block lives on the first stage and the (untied) LM head
//!   on the last stage, matching Megatron-LM's placement.
//! * The decoupled optimizer step never raises peak memory: Mist
//!   repositions each layer's step right before its first forward
//!   (paper §5.1), so `max(mem_fwd, mem_bwd)` is the binding constraint.
//! * Interference between the streams is *not* applied here — the tuner
//!   folds each 4-tuple through the interference model `I` (Eq. 5/6).

use std::sync::OnceLock;

use mist_hardware::{
    all_gather_time, all_reduce_time, p2p_time, ClusterSpec, DeviceMesh, OpCostDb, OpKind, OpQuery,
};
use mist_irlint::{DomainMap, SymbolDomain, Unit, UnitRegistry};
use mist_models::ModelSpec;
use mist_symbolic::{CmpOp, CompiledProgram, CompiledWorkspace, Context, Program};
use serde::{Deserialize, Serialize};

use crate::liveness::{profile_layer, LayerProfile};
use crate::trace::{trace_embedding, trace_head, trace_layer};

/// The optimization symbols every stage tape is expressed over, in
/// canonical order:
///
/// `L` — layers in the stage; `ckpt` — checkpointed (recomputed) layers;
/// `zero` — ZeRO level 0–3; `wo`/`go`/`oo`/`ao` — weight / gradient /
/// optimizer-state / activation offloading ratios in `[0, 1]`;
/// `inflight` — in-flight microbatches at this stage under 1F1B
/// (`min(G, S − stage_index)`).
pub const SYMS: [&str; 8] = ["L", "ckpt", "zero", "wo", "go", "oo", "ao", "inflight"];

/// Declared units of the [`SYMS`] symbols and the stage roots, for the
/// `mist-irlint` static analyzer.
///
/// The byte and second scales of the stage cost model live in *constant*
/// coefficients (bytes per parameter, seconds per byte, ...), which the
/// SSA IR does not annotate; the residual symbolic dimension of every
/// root is therefore a pure count (`elements`, carried by `L` and
/// `ckpt`). Declaring that residual still catches the regressions that
/// matter at this layer: a raw offload ratio summed into a memory
/// estimate, an `L²` term sneaking into a linear cost, or a guard
/// comparing a ZeRO level against a layer count.
pub fn stage_unit_registry() -> UnitRegistry {
    let mut registry = UnitRegistry::new()
        .declare_symbol("L", Unit::ELEMENTS)
        .declare_symbol("ckpt", Unit::ELEMENTS)
        .declare_symbol("zero", Unit::DIMENSIONLESS)
        .declare_symbol("wo", Unit::DIMENSIONLESS)
        .declare_symbol("go", Unit::DIMENSIONLESS)
        .declare_symbol("oo", Unit::DIMENSIONLESS)
        .declare_symbol("ao", Unit::DIMENSIONLESS)
        // Microbatch counts multiply activation footprints (bytes · count),
        // so they are declared dimensionless rather than as a second,
        // incompatible count dimension.
        .declare_symbol("inflight", Unit::DIMENSIONLESS);
    for root in [
        "mem_fwd",
        "mem_bwd",
        "mem_resident",
        "mem_act_per_mb",
        "mem_transient_fwd",
        "mem_transient_bwd",
        "fwd_compute",
        "fwd_nccl",
        "fwd_d2h",
        "fwd_h2d",
        "bwd_compute",
        "bwd_nccl",
        "bwd_d2h",
        "bwd_h2d",
        "first_compute",
        "first_nccl",
        "first_d2h",
        "first_h2d",
        "last_compute",
        "last_nccl",
        "last_d2h",
        "last_h2d",
    ] {
        registry = registry.declare_root(root, Unit::ELEMENTS);
    }
    registry
}

/// The widest symbol domains any tuning sweep can bind for a model with
/// `num_layers` transformer layers, including the ordering fact
/// `ckpt <= L` (you cannot checkpoint more layers than the stage holds).
///
/// Restricted search spaces narrow these further (see
/// `SearchSpace::symbol_domains` in `mist-tuner`); this default is what
/// the debug-build lint inside [`StageAnalyzer::analyze`] verifies
/// against, so its guarantees hold for *every* sweep.
pub fn stage_domains(num_layers: u32) -> DomainMap {
    let l = f64::from(num_layers.max(1));
    DomainMap::new()
        .declare("L", SymbolDomain::new(1.0, l, true))
        .declare("ckpt", SymbolDomain::new(0.0, l, true))
        .declare("zero", SymbolDomain::new(0.0, 3.0, true))
        .declare("wo", SymbolDomain::new(0.0, 1.0, false))
        .declare("go", SymbolDomain::new(0.0, 1.0, false))
        .declare("oo", SymbolDomain::new(0.0, 1.0, false))
        .declare("ao", SymbolDomain::new(0.0, 1.0, false))
        // 1F1B keeps at most `num_stages` microbatches in flight; bound it
        // by a generous constant so the proof covers any pipeline depth.
        .declare("inflight", SymbolDomain::new(1.0, 4096.0, true))
        .declare_le("ckpt", "L")
}

/// Where a stage sits in the pipeline (decides embedding/head ownership).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageRole {
    /// First of several stages: owns the input embedding.
    First,
    /// Interior stage: transformer layers only.
    Middle,
    /// Last of several stages: owns the LM head and loss.
    Last,
    /// Single-stage pipeline: owns both ends.
    Only,
}

impl StageRole {
    /// Whether this stage holds the input embedding.
    pub fn has_embedding(self) -> bool {
        matches!(self, StageRole::First | StageRole::Only)
    }

    /// Whether this stage holds the LM head.
    pub fn has_head(self) -> bool {
        matches!(self, StageRole::Last | StageRole::Only)
    }

    /// Whether the stage has a pipeline neighbour (incurs p2p traffic).
    pub fn has_p2p(self) -> bool {
        !matches!(self, StageRole::Only)
    }

    /// The role of stage `index` in a pipeline of `num_stages`.
    pub fn of(index: u32, num_stages: u32) -> StageRole {
        assert!(index < num_stages);
        match (index, num_stages) {
            (_, 1) => StageRole::Only,
            (0, _) => StageRole::First,
            (i, s) if i + 1 == s => StageRole::Last,
            _ => StageRole::Middle,
        }
    }
}

/// A concrete intra-stage parallelism candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCandidate {
    /// Devices assigned to the stage.
    pub mesh: DeviceMesh,
    /// Data-parallel degree (`dp · tp == mesh.total()`).
    pub dp: u32,
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Per-DP-rank microbatch size `b`.
    pub micro_batch: u64,
    /// Pipeline position.
    pub role: StageRole,
}

/// Root indices of the fused [`StageTapes::program`].
///
/// The six memory roots come first, then the four schedule phases with
/// their streams in `[compute, nccl, d2h, h2d]` order (the same order as
/// the [`StagePoint`] arrays).
pub mod stage_roots {
    /// Peak forward-pass memory (bytes).
    pub const MEM_FWD: usize = 0;
    /// Peak backward-pass memory (bytes).
    pub const MEM_BWD: usize = 1;
    /// Iteration-resident bytes.
    pub const MEM_RESIDENT: usize = 2;
    /// Stashed activation bytes per in-flight microbatch.
    pub const MEM_ACT_PER_MB: usize = 3;
    /// Transient forward working bytes.
    pub const MEM_TRANSIENT_FWD: usize = 4;
    /// Transient backward working bytes.
    pub const MEM_TRANSIENT_BWD: usize = 5;
    /// First stream root of the stable forward phase.
    pub const FWD: usize = 6;
    /// First stream root of the stable backward phase.
    pub const BWD: usize = 10;
    /// First stream root of the first-microbatch extras.
    pub const FIRST_EXTRA: usize = 14;
    /// First stream root of the last-microbatch extras.
    pub const LAST_EXTRA: usize = 18;
    /// Total number of roots.
    pub const COUNT: usize = 22;
}

/// Compiled symbolic performance model of one stage candidate.
#[derive(Debug, Clone)]
pub struct StageTapes {
    /// The candidate these tapes describe.
    pub candidate: StageCandidate,
    /// All 22 stage expressions fused into one multi-root program with
    /// cross-root CSE. Root order is given by [`stage_roots`]; the
    /// memory decomposition roots split peak memory into resident
    /// bytes, stashed activations per in-flight microbatch and
    /// transient working sets.
    pub program: Program,
    /// Two-root (`mem_fwd`, `mem_bwd`) program for feasibility probes
    /// (e.g. the tuner's analytic minimal-checkpoint solve), which only
    /// need the peak-memory pair and not the full 22 roots.
    pub mem_pair: Program,
    /// The per-layer profile behind the tapes (for the simulator and for
    /// educational dumps).
    pub layer: LayerProfile,
    /// Bytes crossing each pipeline boundary per microbatch per direction.
    pub p2p_bytes: f64,
    /// `program` and `mem_pair` lowered for batch evaluation, built on
    /// first use so callers that only analyze or evaluate single points
    /// never pay for lowering.
    compiled: OnceLock<(CompiledProgram, CompiledProgram)>,
}

/// One evaluated configuration point (scalar convenience for tests and
/// for lowering a chosen plan to the simulator).
///
/// Stream arrays are ordered `[compute, nccl, d2h, h2d]`, matching
/// `mist_interference::StreamKind` up to the swap of the last two (the
/// interference model orders them `[compute, nccl, h2d, d2h]` — use
/// [`StagePoint::interference_tuple`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StagePoint {
    /// Peak forward memory (bytes).
    pub mem_fwd: f64,
    /// Peak backward memory (bytes).
    pub mem_bwd: f64,
    /// Iteration-resident bytes (states, working sets, buffers).
    pub mem_resident: f64,
    /// Stashed activation bytes per in-flight microbatch.
    pub mem_act_per_mb: f64,
    /// Transient forward working bytes.
    pub mem_transient_fwd: f64,
    /// Transient backward working bytes.
    pub mem_transient_bwd: f64,
    /// Forward-phase stream seconds.
    pub fwd: [f64; 4],
    /// Backward-phase stream seconds.
    pub bwd: [f64; 4],
    /// First-microbatch extra stream seconds.
    pub first_extra: [f64; 4],
    /// Last-microbatch extra stream seconds.
    pub last_extra: [f64; 4],
}

impl StagePoint {
    /// Assembles a point from per-root values, `root(i)` being the value
    /// of the root at [`stage_roots`] index `i` — e.g. one row of a batch
    /// evaluation's output columns.
    pub fn from_roots(root: impl Fn(usize) -> f64) -> StagePoint {
        let quad = |base: usize| [root(base), root(base + 1), root(base + 2), root(base + 3)];
        StagePoint {
            mem_fwd: root(stage_roots::MEM_FWD),
            mem_bwd: root(stage_roots::MEM_BWD),
            mem_resident: root(stage_roots::MEM_RESIDENT),
            mem_act_per_mb: root(stage_roots::MEM_ACT_PER_MB),
            mem_transient_fwd: root(stage_roots::MEM_TRANSIENT_FWD),
            mem_transient_bwd: root(stage_roots::MEM_TRANSIENT_BWD),
            fwd: quad(stage_roots::FWD),
            bwd: quad(stage_roots::BWD),
            first_extra: quad(stage_roots::FIRST_EXTRA),
            last_extra: quad(stage_roots::LAST_EXTRA),
        }
    }

    /// Peak memory over both passes (the Eq. 4 constraint quantity).
    pub fn mem_peak(&self) -> f64 {
        self.mem_fwd.max(self.mem_bwd)
    }

    /// Reorders a stream array (of times, or of their columns) into the
    /// interference model's `[compute, nccl, h2d, d2h]` convention.
    pub fn interference_tuple<T>(streams: [T; 4]) -> [T; 4] {
        let [compute, nccl, d2h, h2d] = streams;
        [compute, nccl, h2d, d2h]
    }
}

/// Assignment of values to the [`SYMS`] symbols.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageConfigValues {
    /// Layers in the stage.
    pub layers: u32,
    /// Checkpointed layers (`<= layers`).
    pub ckpt: u32,
    /// ZeRO level 0–3.
    pub zero: u8,
    /// Weight offloading ratio.
    pub wo: f64,
    /// Gradient offloading ratio.
    pub go: f64,
    /// Optimizer-state offloading ratio.
    pub oo: f64,
    /// Activation offloading ratio.
    pub ao: f64,
    /// In-flight microbatches at this stage.
    pub inflight: u32,
}

impl StageConfigValues {
    /// A configuration with every optimization off.
    pub fn plain(layers: u32, inflight: u32) -> Self {
        StageConfigValues {
            layers,
            ckpt: 0,
            zero: 0,
            wo: 0.0,
            go: 0.0,
            oo: 0.0,
            ao: 0.0,
            inflight,
        }
    }

    /// Binding list in [`SYMS`] order.
    pub fn bindings(&self) -> [(&'static str, f64); 8] {
        [
            ("L", self.layers as f64),
            ("ckpt", self.ckpt as f64),
            ("zero", self.zero as f64),
            ("wo", self.wo),
            ("go", self.go),
            ("oo", self.oo),
            ("ao", self.ao),
            ("inflight", self.inflight as f64),
        ]
    }
}

/// Builds [`StageTapes`] for candidates against one model and cluster.
#[derive(Debug, Clone, Copy)]
pub struct StageAnalyzer<'a> {
    model: &'a ModelSpec,
    cluster: &'a ClusterSpec,
    db: &'a OpCostDb,
}

impl<'a> StageAnalyzer<'a> {
    /// Creates an analyzer.
    pub fn new(model: &'a ModelSpec, cluster: &'a ClusterSpec, db: &'a OpCostDb) -> Self {
        StageAnalyzer { model, cluster, db }
    }

    /// Traces, profiles and compiles the full symbolic model of one
    /// candidate. This is the expensive-once step; evaluating the result
    /// is cheap and batched.
    ///
    /// # Panics
    ///
    /// Panics if the candidate's `(dp, tp)` does not factor its mesh.
    pub fn analyze(&self, cand: &StageCandidate) -> StageTapes {
        assert!(
            cand.mesh.supports(cand.dp, cand.tp),
            "candidate (dp={}, tp={}) does not fit mesh {:?}",
            cand.dp,
            cand.tp,
            cand.mesh
        );
        let b = cand.micro_batch;
        let tp = cand.tp as u64;
        let dp = cand.dp;
        let tp_link = cand.mesh.tp_link(self.cluster, cand.tp);
        let dp_link = cand.mesh.dp_link(self.cluster, cand.dp, cand.tp);
        let gpu = &self.cluster.gpu;

        // --- Intra-layer pass: trace + liveness --------------------------
        let layer = profile_layer(&trace_layer(self.model, b, tp), self.db, tp_link);
        let embed = if cand.role.has_embedding() {
            Some(profile_layer(
                &trace_embedding(self.model, b, tp),
                self.db,
                tp_link,
            ))
        } else {
            None
        };
        let head = if cand.role.has_head() {
            Some(profile_layer(
                &trace_head(self.model, b, tp),
                self.db,
                tp_link,
            ))
        } else {
            None
        };

        // --- Symbolic inter-layer pass -----------------------------------
        let ctx = Context::new();
        let l = ctx.symbol("L");
        let ckpt = ctx.symbol("ckpt");
        let zero = ctx.symbol("zero");
        let wo = ctx.symbol("wo");
        let go = ctx.symbol("go");
        let oo = ctx.symbol("oo");
        let ao = ctx.symbol("ao");
        let inflight = ctx.symbol("inflight");
        let one = ctx.constant(1.0);
        let zero_c = ctx.constant(0.0);

        let z1 = ctx.cmp(CmpOp::Ge, zero, ctx.constant(1.0));
        let z2 = ctx.cmp(CmpOp::Ge, zero, ctx.constant(2.0));
        let z3 = ctx.cmp(CmpOp::Ge, zero, ctx.constant(3.0));

        // Parameter counts per GPU (TP-sharded), symbolic in L.
        let extra_params =
            embed.map_or(0.0, |e| e.params_per_gpu) + head.map_or(0.0, |h| h.params_per_gpu);
        let params = l * layer.params_per_gpu + extra_params;
        let p16 = params * 2.0; // fp16 parameter bytes
        let g16 = params * 2.0; // fp16 gradient bytes
        let opt32 = params * 12.0; // fp32 master + Adam moments

        let inv_dp = 1.0 / dp as f64;
        let sh_p = ctx.select(z3, ctx.constant(inv_dp), one);
        let sh_g = ctx.select(z2, ctx.constant(inv_dp), one);
        let sh_o = ctx.select(z1, ctx.constant(inv_dp), one);

        // --- Memory ------------------------------------------------------
        let resident_states =
            p16 * sh_p * (1.0 - wo) + g16 * sh_g * (1.0 - go) + opt32 * sh_o * (1.0 - oo);

        // ZeRO-3 / weight-offload working set: two layers' fp16 params
        // (current + prefetched next), per the overlap schedule (Fig. 7).
        let pl16 = 2.0 * layer.params_per_gpu;
        let gathered = ctx.constant(2.0 * pl16);
        let z3_working = ctx.select(z3, gathered, zero_c);
        let wo_pos = ctx.cmp(CmpOp::Gt, wo, zero_c);
        let wo_working = ctx.select(wo_pos, gathered, zero_c);
        let working_p = z3_working.max(wo_working);

        // Per-microbatch resident activations after offloading.
        let acts_per_mb =
            ((l - ckpt) * layer.saved_act_bytes + ckpt * layer.boundary_bytes) * (1.0 - ao);
        // Activation-offload staging buffer: double-buffered one layer.
        let ao_pos = ctx.cmp(CmpOp::Gt, ao, zero_c);
        let ao_buffer = ctx.select(ao_pos, ctx.constant(2.0 * layer.saved_act_bytes), zero_c);

        let head_transient_fwd = head.map_or(0.0, |h| h.transient_fwd_bytes);
        let head_transient_bwd = head.map_or(0.0, |h| 2.0 * h.transient_bwd_bytes);
        let embed_transient = embed.map_or(0.0, |e| e.transient_fwd_bytes);
        let transient_fwd = layer
            .transient_fwd_bytes
            .max(head_transient_fwd)
            .max(embed_transient);
        let transient_bwd = layer.transient_bwd_bytes.max(head_transient_bwd);

        let mem_resident = resident_states + working_p + ao_buffer;
        let mem_fwd = mem_resident + inflight * acts_per_mb + transient_fwd;
        // Backward adds the recompute working set of one checkpointed
        // layer (its full activations are rebuilt before use).
        let ckpt_pos = ctx.cmp(CmpOp::Gt, ckpt, zero_c);
        let recompute_ws = ctx.select(ckpt_pos, ctx.constant(layer.saved_act_bytes), zero_c);
        let mem_transient_bwd = recompute_ws + transient_bwd;
        let mem_bwd = mem_resident + inflight * acts_per_mb + mem_transient_bwd;

        // --- Stable microbatch: forward phase ------------------------------
        let c_fwd = l * layer.fwd_compute
            + embed.map_or(0.0, |e| e.fwd_compute)
            + head.map_or(0.0, |h| h.fwd_compute);
        // ZeRO-3 per-layer parameter all-gather, once per phase.
        let ag_layer = all_gather_time(pl16, dp, dp_link);
        let z3_ag = ctx.select(z3, ctx.constant(ag_layer), zero_c);
        let p2p_bytes = layer.boundary_bytes;
        let p2p_one = if cand.role.has_p2p() {
            // A stage mesh smaller than a node keeps most boundaries
            // inside a node (PCIe/NVLink); node-sized or larger stages
            // hand activations to the next node over the shared NIC, with
            // all of the boundary's dp·tp ranks sending at once.
            let link =
                if cand.mesh.total() < self.cluster.gpus_per_node || self.cluster.num_nodes == 1 {
                    self.cluster.intra_node
                } else {
                    self.cluster.shared_inter_node(self.cluster.gpus_per_node)
                };
            p2p_time(p2p_bytes, link)
        } else {
            0.0
        };
        let role_comm_fwd =
            embed.map_or(0.0, |e| e.tp_comm_fwd) + head.map_or(0.0, |h| h.tp_comm_fwd);
        let nccl_fwd = l * (layer.tp_comm_fwd + z3_ag) + (role_comm_fwd + p2p_one);

        let acts_all = (l - ckpt) * layer.saved_act_bytes + ckpt * layer.boundary_bytes;
        let inv_pcie = 1.0 / gpu.pcie_bandwidth;
        // Activations stream out during forward.
        let d2h_fwd = ao * acts_all * inv_pcie;
        // Offloaded weights stream in for the forward pass.
        let h2d_fwd = wo * p16 * sh_p * inv_pcie;

        // --- Stable microbatch: backward phase ----------------------------
        let c_bwd = l * layer.bwd_compute
            + ckpt * layer.fwd_compute // Recomputation.
            + embed.map_or(0.0, |e| e.bwd_compute)
            + head.map_or(0.0, |h| h.bwd_compute);
        let role_comm_bwd =
            embed.map_or(0.0, |e| e.tp_comm_bwd) + head.map_or(0.0, |h| h.tp_comm_bwd);
        let nccl_bwd = l * (layer.tp_comm_bwd + z3_ag) + (role_comm_bwd + p2p_one);
        // Gradients stream out every backward when offloaded (CPU
        // accumulation, ZeRO-Offload style).
        let d2h_bwd = go * g16 * sh_g * inv_pcie;
        // Activations stream back in; offloaded weights stream in again.
        let h2d_bwd = (ao * acts_all + wo * p16 * sh_p) * inv_pcie;

        // --- First-microbatch extras ---------------------------------------
        // Decoupled optimizer step (repositioned before the first forward):
        // linear model fitted from two database probes.
        let probe = 64_000_000u64;
        let t1 = self
            .db
            .query(OpQuery::new(OpKind::OptimizerStep, [probe, 0, 0, 0]));
        let t2 = self
            .db
            .query(OpQuery::new(OpKind::OptimizerStep, [2 * probe, 0, 0, 0]));
        let opt_slope = (t2 - t1) / probe as f64;
        let opt_base = (t1 - opt_slope * probe as f64).max(0.0);
        let c_first = params * sh_o * opt_slope + opt_base;

        // Updated-parameter all-gather, needed by ZeRO-1/2 (ZeRO-3
        // re-gathers per layer anyway).
        let (ag_coeff, ag_lat) = linear_collective(|bytes| all_gather_time(bytes, dp, dp_link));
        let param_ag = p16 * ag_coeff + ag_lat;
        let z12 = z1 * (1.0 - z3);
        let nccl_first = ctx.select(ctx.cmp(CmpOp::Gt, z12, zero_c), param_ag, zero_c);

        // Refresh the CPU copy of offloaded weights after the step.
        let d2h_first = wo * p16 * sh_p * inv_pcie;
        // Swap in optimizer states (and offloaded gradients) for the step.
        let h2d_first = (oo * opt32 * sh_o + go * g16 * sh_g) * inv_pcie;

        // --- Last-microbatch extras ----------------------------------------
        // Gradient reduction: all-reduce below ZeRO-2, reduce-scatter at
        // ZeRO-2+. Linear in bytes, symbolic in L.
        let (ar_coeff, ar_lat) = linear_collective(|bytes| all_reduce_time(bytes, dp, dp_link));
        let (rs_coeff, rs_lat) =
            linear_collective(|bytes| mist_hardware::reduce_scatter_time(bytes, dp, dp_link));
        let grad_ar = g16 * ar_coeff + ar_lat;
        let grad_rs = g16 * rs_coeff + rs_lat;
        let nccl_last = ctx.select(z2, grad_rs, grad_ar);
        // Swap optimizer states back out after the (next) step; modelled
        // in the last microbatch so one iteration carries both directions.
        let d2h_last = oo * opt32 * sh_o * inv_pcie;
        let c_last = zero_c;
        let h2d_last = zero_c;

        // Fuse all 22 roots into one program (cross-root CSE: the shared
        // sharding/offload subtrees are compiled once, not per root).
        let mem_transient_fwd_e = ctx.constant(transient_fwd);
        let program = ctx.compile_program(&[
            ("mem_fwd", mem_fwd),
            ("mem_bwd", mem_bwd),
            ("mem_resident", mem_resident),
            ("mem_act_per_mb", acts_per_mb),
            ("mem_transient_fwd", mem_transient_fwd_e),
            ("mem_transient_bwd", mem_transient_bwd),
            ("fwd_compute", c_fwd),
            ("fwd_nccl", nccl_fwd),
            ("fwd_d2h", d2h_fwd),
            ("fwd_h2d", h2d_fwd),
            ("bwd_compute", c_bwd),
            ("bwd_nccl", nccl_bwd),
            ("bwd_d2h", d2h_bwd),
            ("bwd_h2d", h2d_bwd),
            ("first_compute", c_first),
            ("first_nccl", nccl_first),
            ("first_d2h", d2h_first),
            ("first_h2d", h2d_first),
            ("last_compute", c_last),
            ("last_nccl", nccl_last),
            ("last_d2h", d2h_last),
            ("last_h2d", h2d_last),
        ]);
        debug_assert_eq!(program.num_roots(), stage_roots::COUNT);
        let mem_pair = ctx.compile_program(&[("mem_fwd", mem_fwd), ("mem_bwd", mem_bwd)]);

        // Debug/CI builds statically verify every fused program: units
        // line up and all roots are provably finite and non-negative over
        // the widest knob domain any sweep can bind.
        #[cfg(debug_assertions)]
        for (prog, label) in [(&program, "stage"), (&mem_pair, "stage.mem_pair")] {
            let report = mist_irlint::lint_program(
                prog,
                &stage_unit_registry(),
                &stage_domains(self.model.num_layers),
                label,
            );
            debug_assert!(report.is_clean(), "IR lint errors in `{label}`:\n{report}");
        }

        StageTapes {
            candidate: *cand,
            program,
            mem_pair,
            layer,
            p2p_bytes,
            compiled: OnceLock::new(),
        }
    }
}

/// Fits `time(bytes) ≈ coeff · bytes + lat` from two probes of a
/// collective cost function (they are exactly linear in bytes).
fn linear_collective(f: impl Fn(f64) -> f64) -> (f64, f64) {
    let b1 = 1e6;
    let b2 = 2e6;
    let t1 = f(b1);
    let t2 = f(b2);
    let coeff = (t2 - t1) / (b2 - b1);
    (coeff, (t1 - coeff * b1).max(0.0))
}

impl StageTapes {
    /// Evaluates every root at one configuration through the fused
    /// program (scalar path).
    ///
    /// # Panics
    ///
    /// Panics if evaluation fails (cannot happen for the symbols this
    /// module emits).
    pub fn eval_point(&self, cfg: &StageConfigValues) -> StagePoint {
        let inputs = self
            .program
            .symbols()
            .resolve_scalars(&cfg.bindings())
            .expect("stage symbols");
        let mut out = Vec::with_capacity(stage_roots::COUNT);
        self.program
            .eval_scalar(&inputs, &mut out)
            .expect("stage program");
        StagePoint::from_roots(|root| out[root])
    }

    /// The compiled `(program, mem_pair)` — the only batch evaluators
    /// of this candidate — lowered on the first call and shared by every
    /// later one.
    pub fn compiled(&self) -> (&CompiledProgram, &CompiledProgram) {
        let (program, mem_pair) = self.compiled.get_or_init(|| {
            (
                CompiledProgram::compile(&self.program),
                CompiledProgram::compile(&self.mem_pair),
            )
        });
        (program, mem_pair)
    }

    /// Assembles row `i` of a compiled-backend batch evaluation into a
    /// [`StagePoint`]. The compiled backend is bit-identical to
    /// [`StageTapes::eval_point`] on in-domain rows, so the assembled
    /// point is byte-for-byte the scalar one for the same row.
    ///
    /// The tuner's sweep builds no points: it reads the stream roots as
    /// columns (`mist_schedule::stage_streams_columns`). Perfbench's
    /// replay still assembles its rows here.
    ///
    /// # Panics
    ///
    /// Panics if `ws` was not filled by evaluating the fused stage
    /// program's compiled form, or `i` is out of range.
    pub fn point_at_compiled(&self, ws: &CompiledWorkspace, i: usize) -> StagePoint {
        StagePoint::from_roots(|root| ws.output(root)[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mist_hardware::{ClusterSpec, GpuSpec, Platform};
    use mist_models::{gpt3, AttentionImpl, ModelSize};
    use mist_symbolic::BatchBindings;

    fn setup() -> (mist_models::ModelSpec, ClusterSpec) {
        (
            gpt3(ModelSize::B2_6, 2048, AttentionImpl::Flash),
            ClusterSpec::for_gpu_count(Platform::GcpL4, 4),
        )
    }

    fn base_cfg() -> StageConfigValues {
        StageConfigValues::plain(16, 1)
    }

    fn tapes(
        model: &mist_models::ModelSpec,
        cluster: &ClusterSpec,
        dp: u32,
        tp: u32,
    ) -> StageTapes {
        let db = OpCostDb::new(GpuSpec::l4());
        let analyzer = StageAnalyzer::new(model, cluster, &db);
        analyzer.analyze(&StageCandidate {
            mesh: DeviceMesh::new(1, dp * tp),
            dp,
            tp,
            micro_batch: 1,
            role: StageRole::Only,
        })
    }

    #[test]
    fn stage_programs_lint_clean_over_widest_domains() {
        let (model, cluster) = setup();
        let db = OpCostDb::new(GpuSpec::l4());
        let analyzer = StageAnalyzer::new(&model, &cluster, &db);
        let registry = stage_unit_registry();
        let domains = stage_domains(model.num_layers);
        for role in [
            StageRole::Only,
            StageRole::First,
            StageRole::Middle,
            StageRole::Last,
        ] {
            let t = analyzer.analyze(&StageCandidate {
                mesh: DeviceMesh::new(1, 4),
                dp: 2,
                tp: 2,
                micro_batch: 2,
                role,
            });
            for (prog, label) in [(&t.program, "stage"), (&t.mem_pair, "mem_pair")] {
                let report = mist_irlint::lint_program(prog, &registry, &domains, label);
                assert_eq!(report.error_count(), 0, "{role:?}/{label}:\n{report}");
                assert_eq!(report.warning_count(), 0, "{role:?}/{label}:\n{report}");
                // Interval analysis must prove every root finite and
                // non-negative over the whole sweep, not just error-free.
                for rb in &report.root_bounds {
                    assert!(rb.lo >= 0.0, "{role:?}/{label} root {}: {rb:?}", rb.label);
                    assert!(
                        rb.hi.is_finite(),
                        "{role:?}/{label} root {}: {rb:?}",
                        rb.label
                    );
                }
            }
        }
    }

    #[test]
    fn role_of_matches_pipeline_shape() {
        assert_eq!(StageRole::of(0, 1), StageRole::Only);
        assert_eq!(StageRole::of(0, 4), StageRole::First);
        assert_eq!(StageRole::of(3, 4), StageRole::Last);
        assert_eq!(StageRole::of(2, 4), StageRole::Middle);
    }

    #[test]
    fn checkpointing_trades_memory_for_compute() {
        let (model, cluster) = setup();
        let t = tapes(&model, &cluster, 1, 1);
        let mut cfg = base_cfg();
        let p0 = t.eval_point(&cfg);
        cfg.ckpt = 16;
        let p1 = t.eval_point(&cfg);
        assert!(p1.mem_fwd < p0.mem_fwd, "ckpt must reduce memory");
        assert!(p1.bwd[0] > p0.bwd[0], "ckpt adds recompute to backward");
        assert_eq!(p1.fwd[0], p0.fwd[0], "forward compute unchanged");
    }

    #[test]
    fn zero_levels_progressively_shard_states() {
        let (model, cluster) = setup();
        let t = tapes(&model, &cluster, 4, 1);
        let mut cfg = base_cfg();
        let mut prev = f64::INFINITY;
        for z in 0..=3u8 {
            cfg.zero = z;
            let p = t.eval_point(&cfg);
            assert!(p.mem_fwd < prev, "zero={z} must shrink memory");
            prev = p.mem_fwd;
        }
    }

    #[test]
    fn zero3_adds_stable_allgather_traffic() {
        let (model, cluster) = setup();
        let t = tapes(&model, &cluster, 4, 1);
        let mut cfg = base_cfg();
        let p0 = t.eval_point(&cfg);
        cfg.zero = 3;
        let p3 = t.eval_point(&cfg);
        assert!(p3.fwd[1] > p0.fwd[1]);
        assert!(p3.bwd[1] > p0.bwd[1]);
    }

    #[test]
    fn offloading_reduces_memory_and_adds_transfers() {
        let (model, cluster) = setup();
        let t = tapes(&model, &cluster, 2, 2);
        let mut cfg = base_cfg();
        let p0 = t.eval_point(&cfg);
        cfg.oo = 1.0;
        let p1 = t.eval_point(&cfg);
        assert!(p1.mem_fwd < p0.mem_fwd);
        assert_eq!(p0.first_extra[3], 0.0);
        assert!(
            p1.first_extra[3] > 0.0,
            "optimizer swap-in in first microbatch"
        );
        assert!(
            p1.last_extra[2] > 0.0,
            "optimizer swap-out in last microbatch"
        );

        cfg.oo = 0.0;
        cfg.ao = 0.5;
        let p2 = t.eval_point(&cfg);
        assert!(p2.mem_fwd < p0.mem_fwd);
        assert!(p2.fwd[2] > 0.0, "activation offload streams out in forward");
        assert!(p2.bwd[3] > 0.0, "activations stream back in backward");
    }

    #[test]
    fn weight_offload_streams_twice_per_microbatch() {
        let (model, cluster) = setup();
        let t = tapes(&model, &cluster, 1, 4);
        let mut cfg = base_cfg();
        cfg.wo = 1.0;
        let p = t.eval_point(&cfg);
        let params = 16.0 * t.layer.params_per_gpu;
        let expect_min = 2.0 * 2.0 * params / 24e9;
        let total_h2d = p.fwd[3] + p.bwd[3];
        assert!(total_h2d >= expect_min * 0.9, "{total_h2d} vs {expect_min}");
    }

    #[test]
    fn inflight_scales_activation_memory() {
        let (model, cluster) = setup();
        let t = tapes(&model, &cluster, 1, 1);
        let mut cfg = base_cfg();
        let p1 = t.eval_point(&cfg);
        cfg.inflight = 4;
        let p4 = t.eval_point(&cfg);
        assert!(p4.mem_fwd > p1.mem_fwd);
        assert!(p4.mem_fwd < 4.0 * p1.mem_fwd);
    }

    #[test]
    fn delta_contains_gradient_reduction_only_with_dp() {
        let (model, cluster) = setup();
        let t1 = tapes(&model, &cluster, 1, 4);
        let t4 = tapes(&model, &cluster, 4, 1);
        let cfg = base_cfg();
        assert_eq!(
            t1.eval_point(&cfg).last_extra[1],
            0.0,
            "dp=1: no grad all-reduce"
        );
        assert!(t4.eval_point(&cfg).last_extra[1] > 0.0);
    }

    #[test]
    fn zero2_reduce_scatter_cheaper_than_allreduce() {
        let (model, cluster) = setup();
        let t = tapes(&model, &cluster, 4, 1);
        let mut cfg = base_cfg();
        let ar = t.eval_point(&cfg).last_extra[1];
        cfg.zero = 2;
        let rs = t.eval_point(&cfg).last_extra[1];
        assert!(rs < ar, "reduce-scatter {rs} vs all-reduce {ar}");
    }

    #[test]
    fn batched_and_scalar_evaluation_agree() {
        let (model, cluster) = setup();
        let t = tapes(&model, &cluster, 2, 2);
        let mut batch = BatchBindings::new(3);
        batch.set_scalar("L", 16.0);
        batch.set_values("ckpt", vec![0.0, 8.0, 16.0]);
        batch.set_scalar("zero", 2.0);
        batch.set_scalar("wo", 0.0);
        batch.set_scalar("go", 0.0);
        batch.set_values("oo", vec![0.0, 0.5, 1.0]);
        batch.set_scalar("ao", 0.25);
        batch.set_scalar("inflight", 2.0);
        let (program, _) = t.compiled();
        let mut ws = CompiledWorkspace::new();
        program.eval_batch(&batch, &mut ws).unwrap();
        for (i, (&ck, &oo)) in [0.0f64, 8.0, 16.0]
            .iter()
            .zip(&[0.0f64, 0.5, 1.0])
            .enumerate()
        {
            let cfg = StageConfigValues {
                layers: 16,
                ckpt: ck as u32,
                zero: 2,
                wo: 0.0,
                go: 0.0,
                oo,
                ao: 0.25,
                inflight: 2,
            };
            let p = t.eval_point(&cfg);
            let row = t.point_at_compiled(&ws, i);
            assert!((row.mem_fwd - p.mem_fwd).abs() < 1.0, "row {i}");
            for (s, want) in row.bwd.iter().enumerate() {
                assert!((want - p.bwd[s]).abs() < 1e-12, "row {i} stream {s}");
            }
        }
    }

    #[test]
    fn last_stage_pays_for_logits() {
        let (model, cluster) = setup();
        let db = OpCostDb::new(GpuSpec::l4());
        let analyzer = StageAnalyzer::new(&model, &cluster, &db);
        let mk = |role| {
            analyzer.analyze(&StageCandidate {
                mesh: DeviceMesh::new(1, 2),
                dp: 1,
                tp: 2,
                micro_batch: 1,
                role,
            })
        };
        let mid = mk(StageRole::Middle);
        let last = mk(StageRole::Last);
        let cfg = base_cfg();
        assert!(last.eval_point(&cfg).mem_fwd > mid.eval_point(&cfg).mem_fwd);
        assert!(last.eval_point(&cfg).fwd[0] > mid.eval_point(&cfg).fwd[0]);
    }

    #[test]
    fn interference_tuple_reorders_streams() {
        let t = StagePoint::interference_tuple([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t, [1.0, 2.0, 4.0, 3.0]);
    }

    /// The compiled GPT-3 6.7B `program` and `mem_pair` of every role,
    /// over a knob grid inside [`stage_domains`], agree bit for bit with
    /// the scalar reference `Program::eval_scalar` — with `inflight`
    /// bound as a broadcast scalar, the shape the tuner's sweep binds.
    #[test]
    fn stage_programs_match_scalar_oracle() {
        let model = gpt3(ModelSize::B6_7, 2048, AttentionImpl::Flash);
        let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 8);
        let db = OpCostDb::new(GpuSpec::l4());
        let analyzer = StageAnalyzer::new(&model, &cluster, &db);
        let nl = model.num_layers;

        let mut grid: Vec<[f64; 7]> = Vec::new();
        for l in [1, 2, nl / 2, nl] {
            for ckpt in [0, 1, l / 2, l] {
                for zero in 0..=3 {
                    for wo in [0.0, 0.5, 1.0] {
                        for go in [0.0, 1.0] {
                            for oo in [0.0, 0.5, 1.0] {
                                for ao in [0.0, 0.25, 1.0] {
                                    let (l, ckpt) = (f64::from(l), f64::from(ckpt.min(l)));
                                    grid.push([l, ckpt, f64::from(zero), wo, go, oo, ao]);
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut batch = BatchBindings::new(grid.len());
        for (k, name) in SYMS[..7].iter().enumerate() {
            batch.set_values(name, grid.iter().map(|row| row[k]).collect());
        }

        let mut ws = CompiledWorkspace::new();
        let mut out = Vec::new();
        for role in [
            StageRole::First,
            StageRole::Middle,
            StageRole::Last,
            StageRole::Only,
        ] {
            let t = analyzer.analyze(&StageCandidate {
                mesh: DeviceMesh::new(1, 4),
                dp: 2,
                tp: 2,
                micro_batch: 2,
                role,
            });
            let (program, mem_pair) = t.compiled();
            for inflight in [1.0, 4.0] {
                batch.set_scalar("inflight", inflight);
                for (source, compiled) in [(&t.program, program), (&t.mem_pair, mem_pair)] {
                    compiled.eval_batch(&batch, &mut ws).unwrap();
                    for (i, row) in grid.iter().enumerate() {
                        let mut bindings: Vec<(&str, f64)> =
                            SYMS[..7].iter().copied().zip(row.iter().copied()).collect();
                        bindings.push(("inflight", inflight));
                        let inputs = source.symbols().resolve_scalars(&bindings).unwrap();
                        source.eval_scalar(&inputs, &mut out).unwrap();
                        for (root, want) in out.iter().enumerate() {
                            assert_eq!(
                                ws.output(root)[i].to_bits(),
                                want.to_bits(),
                                "{role:?} {} root {root} row {row:?} inflight {inflight}",
                                source.root_labels()[root]
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mist_hardware::{ClusterSpec, GpuSpec, Platform};
    use mist_models::{gpt3, AttentionImpl, ModelSize};
    use proptest::prelude::*;

    fn tapes() -> StageTapes {
        let model = gpt3(ModelSize::B2_6, 2048, AttentionImpl::Flash);
        let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 4);
        let db = OpCostDb::new(GpuSpec::l4());
        StageAnalyzer::new(&model, &cluster, &db).analyze(&StageCandidate {
            mesh: DeviceMesh::new(1, 4),
            dp: 2,
            tp: 2,
            micro_batch: 2,
            role: StageRole::Only,
        })
    }

    fn arb_cfg() -> impl Strategy<Value = StageConfigValues> {
        (
            1u32..=32,
            0u32..=32,
            0u8..=3,
            prop::sample::select(vec![0.0f64, 0.25, 0.5, 1.0]),
            prop::sample::select(vec![0.0f64, 0.25, 0.5, 1.0]),
            prop::sample::select(vec![0.0f64, 0.25, 0.5, 1.0]),
            prop::sample::select(vec![0.0f64, 0.25, 0.5, 1.0]),
            1u32..=8,
        )
            .prop_map(
                |(layers, ckpt, zero, wo, go, oo, ao, inflight)| StageConfigValues {
                    layers,
                    ckpt: ckpt.min(layers),
                    zero,
                    wo,
                    go,
                    oo,
                    ao,
                    inflight,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// All evaluated quantities are finite and non-negative for any
        /// valid configuration.
        #[test]
        fn points_are_finite_and_nonnegative(cfg in arb_cfg()) {
            let t = tapes();
            let p = t.eval_point(&cfg);
            for v in [p.mem_fwd, p.mem_bwd, p.mem_resident, p.mem_act_per_mb] {
                prop_assert!(v.is_finite() && v >= 0.0, "memory {v}");
            }
            for arr in [p.fwd, p.bwd, p.first_extra, p.last_extra] {
                for v in arr {
                    prop_assert!(v.is_finite() && v >= 0.0, "stream {v}");
                }
            }
        }

        /// Memory decomposition is consistent with the peak expressions.
        #[test]
        fn memory_decomposition_adds_up(cfg in arb_cfg()) {
            let t = tapes();
            let p = t.eval_point(&cfg);
            let fwd = p.mem_resident + cfg.inflight as f64 * p.mem_act_per_mb
                + p.mem_transient_fwd;
            let bwd = p.mem_resident + cfg.inflight as f64 * p.mem_act_per_mb
                + p.mem_transient_bwd;
            prop_assert!((fwd - p.mem_fwd).abs() < 1.0, "{fwd} vs {}", p.mem_fwd);
            prop_assert!((bwd - p.mem_bwd).abs() < 1.0, "{bwd} vs {}", p.mem_bwd);
        }

        /// More aggressive memory optimization never increases memory.
        #[test]
        fn knob_monotonicity(cfg in arb_cfg()) {
            let t = tapes();
            let base = t.eval_point(&cfg).mem_fwd;
            // Raise each memory knob and check memory does not grow.
            let mut c = cfg; c.ckpt = cfg.layers;
            prop_assert!(t.eval_point(&c).mem_fwd <= base + 1.0);
            let mut c = cfg; c.zero = 3;
            prop_assert!(t.eval_point(&c).mem_fwd <= base + 1.0);
            let mut c = cfg; c.oo = 1.0;
            prop_assert!(t.eval_point(&c).mem_fwd <= base + 1.0);
            // Activation offload only pays once the removed stash exceeds
            // its double buffer (two layers' activations): tiny stages
            // with one in-flight microbatch can legitimately grow.
            if cfg.inflight as f64 * (cfg.layers - cfg.ckpt) as f64 >= 3.0 {
                let mut c = cfg; c.ao = 1.0;
                prop_assert!(t.eval_point(&c).mem_fwd <= base + 1.0);
            }
        }

        /// Compute time is layer-linear: doubling layers doubles the
        /// layer-proportional part of forward compute.
        #[test]
        fn compute_is_layer_linear(l in 1u32..=16, inflight in 1u32..=4) {
            let t = tapes();
            let mk = |layers: u32| StageConfigValues::plain(layers, inflight);
            let c1 = t.eval_point(&mk(l)).fwd[0];
            let c2 = t.eval_point(&mk(2 * l)).fwd[0];
            // Subtract the role-constant part (embedding/head) by
            // extrapolation: c2 - c1 == l * per_layer.
            let per_layer = (c2 - c1) / l as f64;
            let c3 = t.eval_point(&mk(3 * l)).fwd[0];
            prop_assert!(((c3 - c2) / l as f64 - per_layer).abs() < 1e-9);
        }
    }
}
