//! Direct-threaded compiled evaluation backend.
//!
//! A [`CompiledProgram`] lowers a fused SSA [`Program`] — after running
//! the peephole superinstruction pass of [`crate::fuse`] — into a flat
//! array of [`Step`]s, each holding a *monomorphized kernel function
//! pointer* plus register indices. Evaluation walks the step table once
//! per row block with **no `match` anywhere in the hot path**: dispatch
//! cost is one indirect call per instruction per block of [`BLOCK`]
//! rows, amortized to a fraction of a cycle per row.
//!
//! This is the only batch executor; [`Program::eval_scalar`] is its
//! reference. Two layout choices matter for throughput, and neither
//! changes results:
//!
//! * **Blocked registers.** Instead of full batch-length columns (80 KB
//!   each at 10k rows — far beyond L1), every register is a fixed
//!   [`BLOCK`]-row block (`128 × 8 B = 1 KiB`). A stage program's entire
//!   register file stays resident in L1d while all its steps run over
//!   one block, then the next block starts. Partial tail blocks run the
//!   full-width kernels over stale-but-initialized garbage lanes —
//!   lanewise `f64` arithmetic never faults — and only the live prefix
//!   is copied out.
//! * **Tiered kernels.** Each kernel body is compiled three times — a
//!   baseline scalar tier plus AVX2 and AVX-512 tiers behind
//!   `#[target_feature]` on `x86_64` — and the best tier supported by
//!   the running CPU is selected **once** at compile time, not per
//!   call. All tiers execute the same IEEE-754 double operations in
//!   the same order, so results are bit-identical across tiers.
//!
//! # Exactness
//!
//! For every binding, including ±∞, NaN and `-0.0` rows, a row whose
//! [`Program::eval_scalar_root`] is `Ok(v)` evaluates to exactly `v`'s
//! bits, and a row it rejects as non-finite evaluates to `+∞`:
//!
//! * kernels perform the same `f64` operations in the same order as the
//!   scalar evaluator (n-ary folds lower to one binary step plus
//!   left-to-right accumulate steps — the first-operand fold of
//!   `eval_scalar`);
//! * `muladd` computes `(a * b) + c` as two IEEE operations — it is
//!   never lowered to a hardware FMA (Rust does not contract float
//!   expressions), preserving the double rounding of the unfused pair;
//! * root copy-out maps non-finite values to `f64::INFINITY`, the
//!   infeasible sentinel the tuner's budget checks rely on;
//! * scalar-bound symbols are splatted across the block, so every row
//!   runs the same IEEE operations on the same inputs.
//!
//! There is no program shape the backend cannot lower: the tuner's
//! intra-stage sweep runs every batch through it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::SymbolicError;
use crate::fuse::fuse_superinstructions;
use crate::node::CmpOp;
use crate::program::{Op, Program, SymbolTable};
use crate::tape::{BatchBindings, Column};

/// Process-wide compile id source. Ids start at 1 so that a fresh
/// [`CompiledWorkspace`] (`prepared == 0`) is never considered prepared.
static NEXT_PROGRAM_ID: AtomicU64 = AtomicU64::new(1);

/// Rows per register block. 128 doubles = 1 KiB per register: a
/// stage program's whole register file fits in L1d, and the fixed-width
/// kernel loops compile to straight-line vector code.
pub const BLOCK: usize = 128;

/// One register: a fixed-width block of rows.
type Block = [f64; BLOCK];

/// One lowered instruction: a monomorphized kernel plus up to four
/// source registers and one destination. Unused operand fields are 0.
#[derive(Debug, Clone, Copy)]
struct Step {
    kernel: Kernel,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
    d: u32,
}

/// A kernel processes one full [`Block`] for one step.
///
/// # Safety
///
/// Callers must guarantee: the step's register indices are in bounds of
/// the register file behind `regs`; the destination register does not
/// alias any *distinct-role* source register (accumulator kernels read
/// and write `dst` through the single `&mut`); and the CPU supports the
/// target features the kernel was compiled with.
type Kernel = unsafe fn(*mut Block, &Step);

/// Kernel bodies, written once and re-compiled per tier. Each body is a
/// safe `#[inline(always)]` function doing internal unsafe register
/// derefs; the per-tier wrappers inline them under their
/// `#[target_feature]`, so one source definition yields scalar, AVX2
/// and AVX-512 code.
mod body {
    use super::{Block, Step, BLOCK};

    #[inline(always)]
    fn dst<'a>(regs: *mut Block, s: &Step) -> &'a mut Block {
        // SAFETY: the lowerer keeps every index < num_regs and never
        // assigns a step's destination to a source register, so this
        // `&mut` is unique (see `Kernel`'s safety contract).
        unsafe { &mut *regs.add(s.dst as usize) }
    }

    #[inline(always)]
    fn src<'a>(regs: *mut Block, i: u32) -> &'a Block {
        // SAFETY: in bounds per the lowerer; shared reads may alias
        // each other but never the destination.
        unsafe { &*regs.add(i as usize) }
    }

    macro_rules! unary_body {
        ($name:ident, $f:expr) => {
            #[inline(always)]
            pub fn $name(regs: *mut Block, s: &Step) {
                let (d, a) = (dst(regs, s), src(regs, s.a));
                let f = $f;
                for (x, &p) in d.iter_mut().zip(a.iter()) {
                    *x = f(p);
                }
            }
        };
    }

    macro_rules! bin_body {
        ($name:ident, $f:expr) => {
            #[inline(always)]
            pub fn $name(regs: *mut Block, s: &Step) {
                let (d, a, b) = (dst(regs, s), src(regs, s.a), src(regs, s.b));
                let f = $f;
                for ((x, &p), &q) in d.iter_mut().zip(a.iter()).zip(b.iter()) {
                    *x = f(p, q);
                }
            }
        };
    }

    /// In-place fold step: `dst = f(dst, src)` lanewise — one step of
    /// a left-to-right n-ary fold.
    macro_rules! acc_body {
        ($name:ident, $f:expr) => {
            #[inline(always)]
            pub fn $name(regs: *mut Block, s: &Step) {
                let (d, a) = (dst(regs, s), src(regs, s.a));
                let f = $f;
                for (x, &p) in d.iter_mut().zip(a.iter()) {
                    *x = f(*x, p);
                }
            }
        };
    }

    /// Guarded select: `dst = if cmp(a, b) { c } else { d }` lanewise.
    macro_rules! selcmp_body {
        ($name:ident, $f:expr) => {
            #[inline(always)]
            pub fn $name(regs: *mut Block, s: &Step) {
                let (d, a, b) = (dst(regs, s), src(regs, s.a), src(regs, s.b));
                let (t, e) = (src(regs, s.c), src(regs, s.d));
                let f = $f;
                for i in 0..BLOCK {
                    d[i] = if f(a[i], b[i]) { t[i] } else { e[i] };
                }
            }
        };
    }

    #[inline(always)]
    pub fn copy(regs: *mut Block, s: &Step) {
        *dst(regs, s) = *src(regs, s.a);
    }

    bin_body!(add2, |x: f64, y: f64| x + y);
    bin_body!(mul2, |x: f64, y: f64| x * y);
    bin_body!(min2, f64::min);
    bin_body!(max2, f64::max);
    acc_body!(acc_add, |x: f64, y: f64| x + y);
    acc_body!(acc_mul, |x: f64, y: f64| x * y);
    acc_body!(acc_min, f64::min);
    acc_body!(acc_max, f64::max);
    bin_body!(div, |x: f64, y: f64| x / y);
    unary_body!(floor, f64::floor);
    unary_body!(ceil, f64::ceil);
    bin_body!(cmp_le, |x: f64, y: f64| f64::from(x <= y));
    bin_body!(cmp_lt, |x: f64, y: f64| f64::from(x < y));
    bin_body!(cmp_ge, |x: f64, y: f64| f64::from(x >= y));
    bin_body!(cmp_gt, |x: f64, y: f64| f64::from(x > y));
    bin_body!(cmp_eq, |x: f64, y: f64| f64::from(x == y));

    #[inline(always)]
    pub fn select(regs: *mut Block, s: &Step) {
        let (d, c) = (dst(regs, s), src(regs, s.a));
        let (t, e) = (src(regs, s.b), src(regs, s.c));
        for i in 0..BLOCK {
            d[i] = if c[i] != 0.0 { t[i] } else { e[i] };
        }
    }

    // Two roundings, never a hardware FMA: Rust does not contract
    // `a * b + c`, so this is the exact unfused Mul-then-Add pair.
    #[inline(always)]
    pub fn muladd(regs: *mut Block, s: &Step) {
        let (d, a, b, c) = (dst(regs, s), src(regs, s.a), src(regs, s.b), src(regs, s.c));
        for i in 0..BLOCK {
            d[i] = a[i] * b[i] + c[i];
        }
    }

    selcmp_body!(selcmp_le, |x: f64, y: f64| x <= y);
    selcmp_body!(selcmp_lt, |x: f64, y: f64| x < y);
    selcmp_body!(selcmp_ge, |x: f64, y: f64| x >= y);
    selcmp_body!(selcmp_gt, |x: f64, y: f64| x > y);
    selcmp_body!(selcmp_eq, |x: f64, y: f64| x == y);
    bin_body!(divfloor, |x: f64, y: f64| (x / y).floor());
    bin_body!(divceil, |x: f64, y: f64| (x / y).ceil());

    /// Root copy-out: finite-maps one register block into an output
    /// column slice. Lives here (and is tier-wrapped like the kernels)
    /// because `eval_batch` itself compiles at baseline features —
    /// without the wrapper this loop runs at SSE2 width and dominates
    /// the whole evaluation.
    #[inline(always)]
    pub fn finite_out(src: &Block, out: &mut [f64]) {
        if let Ok(out) = <&mut [f64; BLOCK]>::try_from(&mut *out) {
            // Fixed trip count: compiles to straight-line vector code.
            for (o, &v) in out.iter_mut().zip(src.iter()) {
                *o = super::finite_or_inf(v);
            }
        } else {
            let len = out.len();
            for (o, &v) in out.iter_mut().zip(&src[..len]) {
                *o = super::finite_or_inf(v);
            }
        }
    }
}

/// Invokes `$m!` with the full kernel name list — the single source of
/// truth shared by the tier modules, [`KernelId`] and `resolve`.
macro_rules! with_kernels {
    ($m:ident) => {
        $m!(
            copy, add2, mul2, min2, max2, acc_add, acc_mul, acc_min, acc_max, div, floor, ceil,
            cmp_le, cmp_lt, cmp_ge, cmp_gt, cmp_eq, select, muladd, selcmp_le, selcmp_lt,
            selcmp_ge, selcmp_gt, selcmp_eq, divfloor, divceil
        );
    };
}

macro_rules! declare_kernel_ids {
    ($($k:ident),* $(,)?) => {
        /// Symbolic kernel selector, resolved to a tiered fn pointer at
        /// lowering time. Variants are named after the kernel bodies.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(non_camel_case_types)]
        enum KernelId { $($k),* }
    };
}
with_kernels!(declare_kernel_ids);

macro_rules! declare_scalar_tier {
    ($($k:ident),* $(,)?) => {
        /// Baseline tier: the kernel bodies at the crate's default
        /// target features (autovectorized at whatever the build
        /// baseline allows).
        mod scalar {
            $(
                pub unsafe fn $k(regs: *mut super::Block, step: &super::Step) {
                    super::body::$k(regs, step)
                }
            )*
        }
    };
}
with_kernels!(declare_scalar_tier);

#[cfg(target_arch = "x86_64")]
macro_rules! declare_avx2_tier {
    ($($k:ident),* $(,)?) => {
        /// AVX2 tier: same bodies inlined under
        /// `#[target_feature(enable = "avx2")]`.
        mod avx2 {
            $(
                #[target_feature(enable = "avx2")]
                pub unsafe fn $k(regs: *mut super::Block, step: &super::Step) {
                    super::body::$k(regs, step)
                }
            )*
        }
    };
}
#[cfg(target_arch = "x86_64")]
with_kernels!(declare_avx2_tier);

#[cfg(target_arch = "x86_64")]
macro_rules! declare_avx512_tier {
    ($($k:ident),* $(,)?) => {
        /// AVX-512 tier: same bodies inlined under
        /// `#[target_feature(enable = "avx512f")]`.
        mod avx512 {
            $(
                #[target_feature(enable = "avx512f")]
                pub unsafe fn $k(regs: *mut super::Block, step: &super::Step) {
                    super::body::$k(regs, step)
                }
            )*
        }
    };
}
#[cfg(target_arch = "x86_64")]
with_kernels!(declare_avx512_tier);

macro_rules! declare_resolve {
    ($($k:ident),* $(,)?) => {
        /// Picks the fn pointer for `id` in `tier`.
        fn resolve(id: KernelId, tier: Tier) -> Kernel {
            match tier {
                Tier::Scalar => match id { $(KernelId::$k => scalar::$k as Kernel,)* },
                #[cfg(target_arch = "x86_64")]
                Tier::Avx2 => match id { $(KernelId::$k => avx2::$k as Kernel,)* },
                #[cfg(target_arch = "x86_64")]
                Tier::Avx512 => match id { $(KernelId::$k => avx512::$k as Kernel,)* },
            }
        }
    };
}
with_kernels!(declare_resolve);

/// Tier-resolved root copy-out (see [`body::finite_out`]).
///
/// # Safety
///
/// The CPU must support the target features the function was compiled
/// with — guaranteed by resolving against the [`detect_tier`] result.
type FiniteOut = unsafe fn(&Block, &mut [f64]);

unsafe fn finite_out_scalar(src: &Block, out: &mut [f64]) {
    body::finite_out(src, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn finite_out_avx2(src: &Block, out: &mut [f64]) {
    body::finite_out(src, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn finite_out_avx512(src: &Block, out: &mut [f64]) {
    body::finite_out(src, out)
}

fn resolve_finite_out(tier: Tier) -> FiniteOut {
    match tier {
        Tier::Scalar => finite_out_scalar,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => finite_out_avx2,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => finite_out_avx512,
    }
}

/// Instruction-set tier the kernels were resolved against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Best tier the running CPU supports, detected once per compile.
fn detect_tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return Tier::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
    }
    Tier::Scalar
}

/// A step before kernel resolution (lowering keeps these symbolic so
/// the whole table resolves against one detected tier at the end).
struct RawStep {
    k: KernelId,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
    d: u32,
}

/// How one root's output column is materialized. Only [`RootPlan::Block`]
/// roots pay a per-block strided write into their column; the rest are
/// recognized at lowering time and filled (or aliased) in one sequential
/// pass, which keeps copy-out off the critical path when a program has
/// constant, symbol or duplicate roots.
#[derive(Debug, Clone, Copy)]
enum RootPlan {
    /// Computed value: copied out of this register block by block.
    Block(u32),
    /// Same slot as an earlier root: reads resolve to that root's
    /// column, no copy at all.
    Alias(u32),
    /// Constant root: the column is one splatted value, filled only
    /// when the batch length changes.
    Const(f64),
    /// Bare-symbol root: the column is the binding itself (finite-
    /// mapped), filled sequentially once per evaluation.
    Sym(u32),
}

/// A [`Program`] lowered to a direct-threaded step table.
///
/// Build one with [`CompiledProgram::compile`]; evaluate batches with
/// [`CompiledProgram::eval_batch`] against a reusable
/// [`CompiledWorkspace`]. Every finite result is bit-identical to
/// [`Program::eval_scalar`] on the source program (see the
/// [module docs](self) for the exactness argument). The value is plain
/// `Send + Sync` data, so one compile can be shared across pool
/// workers behind an `Arc`.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Process-unique identity (fresh per compile; keys the
    /// workspace's prepared-state check).
    id: u64,
    steps: Vec<Step>,
    num_regs: usize,
    /// Constant registers, splatted once when a workspace is prepared.
    const_splats: Vec<(u32, f64)>,
    /// `(register, symbol input slot)` pairs: scalar-bound symbols are
    /// splatted once per evaluation, column-bound ones loaded per block.
    sym_regs: Vec<(u32, u32)>,
    /// Register holding each root's value, in root-index order.
    root_regs: Vec<u32>,
    /// Per-root materialization plan (see [`RootPlan`]).
    root_plan: Vec<RootPlan>,
    /// Tier-resolved root copy-out.
    finite_out: FiniteOut,
    table: SymbolTable,
    labels: Vec<String>,
    superinstrs: usize,
    tier: Tier,
}

impl CompiledProgram {
    /// Runs superinstruction fusion over `program` and lowers the fused
    /// stream to a step table with kernels resolved for this CPU.
    pub fn compile(program: &Program) -> CompiledProgram {
        let (fused, superinstrs) = fuse_superinstructions(program);
        Self::lower(fused, superinstrs, detect_tier())
    }

    fn lower(fused: Program, superinstrs: usize, tier: Tier) -> CompiledProgram {
        let n = fused.ops.len();

        // Slot liveness: roots stay live forever.
        let mut last_use: Vec<u32> = (0..n as u32).collect();
        for slot in 0..n {
            fused
                .instr(slot)
                .for_each_operand(|s| last_use[s as usize] = slot as u32);
        }
        for &r in &fused.roots {
            last_use[r as usize] = u32::MAX;
        }

        // Pass 1: pin constants and symbols to dedicated registers that
        // the step loop never writes (consts splat at prepare; symbol
        // registers are reloaded per evaluation / per block).
        let mut reg_of = vec![u32::MAX; n];
        let mut pinned = vec![false; n];
        let mut next_reg: u32 = 0;
        let mut const_splats = Vec::new();
        let mut sym_regs = Vec::new();
        for (slot, op) in fused.ops.iter().enumerate() {
            match *op {
                Op::Const(c) => {
                    reg_of[slot] = next_reg;
                    pinned[slot] = true;
                    const_splats.push((next_reg, c));
                    next_reg += 1;
                }
                Op::Sym(s) => {
                    reg_of[slot] = next_reg;
                    pinned[slot] = true;
                    sym_regs.push((next_reg, s));
                    next_reg += 1;
                }
                _ => {}
            }
        }

        // Pass 2: emit steps, allocating temp registers linear-scan.
        // The destination is claimed *before* operands are freed, so a
        // destination never aliases a same-step source; pinned
        // registers are never recycled.
        let mut raw: Vec<RawStep> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut freed = vec![false; n];
        for (slot, op) in fused.ops.iter().enumerate() {
            if !matches!(op, Op::Const(_) | Op::Sym(_)) {
                let dst = free.pop().unwrap_or_else(|| {
                    next_reg += 1;
                    next_reg - 1
                });
                reg_of[slot] = dst;
                emit_op(&mut raw, &fused, &reg_of, *op, dst);
            }
            fused.instr(slot).for_each_operand(|s| {
                let su = s as usize;
                if last_use[su] == slot as u32 && !freed[su] && !pinned[su] {
                    freed[su] = true;
                    free.push(reg_of[su]);
                }
            });
        }

        let steps: Vec<Step> = raw
            .into_iter()
            .map(|r| Step {
                kernel: resolve(r.k, tier),
                dst: r.dst,
                a: r.a,
                b: r.b,
                c: r.c,
                d: r.d,
            })
            .collect();
        let root_regs: Vec<u32> = fused.roots.iter().map(|&r| reg_of[r as usize]).collect();

        // Classify roots: duplicate slots alias the first occurrence,
        // constant and bare-symbol roots fill sequentially, and only
        // computed roots take the per-block copy-out path.
        let mut root_plan = Vec::with_capacity(fused.roots.len());
        let mut first_for_reg: HashMap<u32, u32> = HashMap::new();
        for (i, &slot) in fused.roots.iter().enumerate() {
            let reg = reg_of[slot as usize];
            if let Some(&of) = first_for_reg.get(&reg) {
                root_plan.push(RootPlan::Alias(of));
                continue;
            }
            first_for_reg.insert(reg, i as u32);
            root_plan.push(match fused.ops[slot as usize] {
                Op::Const(c) => RootPlan::Const(c),
                Op::Sym(s) => RootPlan::Sym(s),
                _ => RootPlan::Block(reg),
            });
        }

        CompiledProgram {
            id: NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed),
            steps,
            num_regs: next_reg as usize,
            const_splats,
            sym_regs,
            root_regs,
            root_plan,
            finite_out: resolve_finite_out(tier),
            table: fused.table,
            labels: fused.labels,
            superinstrs,
            tier,
        }
    }

    /// Process-unique identity of this compile (fresh per
    /// [`CompiledProgram::compile`] call).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The interned symbol table (names in input-slot order).
    pub fn symbols(&self) -> &SymbolTable {
        &self.table
    }

    /// Number of lowered steps (a proxy for evaluation cost; n-ary
    /// folds count one step per binary/accumulate stage).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of register blocks a workspace materializes.
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Number of roots.
    pub fn num_roots(&self) -> usize {
        self.root_regs.len()
    }

    /// Root labels, in root-index order.
    pub fn root_labels(&self) -> &[String] {
        &self.labels
    }

    /// Root index of the root labeled `name`.
    pub fn root_index(&self, name: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == name)
    }

    /// Superinstructions the peephole pass fused into this program.
    pub fn superinstrs(&self) -> usize {
        self.superinstrs
    }

    /// Name of the instruction-set tier the kernels resolved to
    /// (`"scalar"`, `"avx2"` or `"avx512"`).
    pub fn tier_name(&self) -> &'static str {
        match self.tier {
            Tier::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => "avx512",
        }
    }

    /// Evaluates every root over a batch, writing one output column per
    /// root into `ws` (read them back with [`CompiledWorkspace::output`]).
    ///
    /// Rows that evaluate non-finite become `f64::INFINITY`; every other
    /// row is bit-identical to [`Program::eval_scalar`] on the source
    /// program.
    ///
    /// # Errors
    ///
    /// [`SymbolicError::UnboundSymbol`] if a program symbol is missing
    /// from `bindings`; [`SymbolicError::BatchLengthMismatch`] if a
    /// bound column's length differs from the batch length.
    pub fn eval_batch(
        &self,
        bindings: &BatchBindings,
        ws: &mut CompiledWorkspace,
    ) -> Result<(), SymbolicError> {
        let n = bindings.len();
        let cols = self.table.resolve_batch(bindings)?;

        if ws.prepared != self.id {
            ws.regs.clear();
            ws.regs.resize(self.num_regs, [0.0; BLOCK]);
            for &(r, v) in &self.const_splats {
                ws.regs[r as usize] = [v; BLOCK];
            }
            if ws.outputs.len() < self.root_plan.len() {
                ws.outputs.resize_with(self.root_plan.len(), Vec::new);
            }
            ws.root_src = self
                .root_plan
                .iter()
                .enumerate()
                .map(|(i, p)| match *p {
                    RootPlan::Alias(of) => of,
                    _ => i as u32,
                })
                .collect();
            ws.prepared = self.id;
            // Forces the constant-root columns to refill below.
            ws.prepared_len = usize::MAX;
        }
        // Scalar-bound symbols broadcast once per evaluation; their
        // registers are never written by steps, so every block sees
        // the splat.
        for &(r, s) in &self.sym_regs {
            if let Column::Scalar(v) = cols[s as usize] {
                ws.regs[r as usize] = [*v; BLOCK];
            }
        }
        // Materialize the sequential root classes and size the
        // block-copied columns. Block columns already at length `n` are
        // reused as-is — the copy-out overwrites every live element, so
        // skipping the `clear` + `resize` pair avoids a full memset of
        // the output matrix per evaluation.
        for (i, plan) in self.root_plan.iter().enumerate() {
            let out = &mut ws.outputs[i];
            match *plan {
                RootPlan::Alias(_) => {}
                RootPlan::Const(c) => {
                    if ws.prepared_len != n {
                        out.clear();
                        out.resize(n, finite_or_inf(c));
                    }
                }
                RootPlan::Sym(s) => match cols[s as usize] {
                    Column::Scalar(v) => {
                        out.clear();
                        out.resize(n, finite_or_inf(*v));
                    }
                    Column::Values(v) => {
                        out.clear();
                        out.extend(v.iter().map(|&x| finite_or_inf(x)));
                    }
                },
                RootPlan::Block(_) => {
                    if out.len() != n {
                        out.clear();
                        out.resize(n, 0.0);
                    }
                }
            }
        }
        ws.prepared_len = n;
        // Column-bound symbols re-load per block; hoist the filter so
        // the block loop touches only what it must. Same for the
        // block-copied roots.
        let col_loads: Vec<(u32, &[f64])> = self
            .sym_regs
            .iter()
            .filter_map(|&(r, s)| match cols[s as usize] {
                Column::Values(v) => Some((r, v.as_slice())),
                Column::Scalar(_) => None,
            })
            .collect();
        let block_roots: Vec<(u32, u32)> = self
            .root_plan
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match *p {
                RootPlan::Block(reg) => Some((i as u32, reg)),
                _ => None,
            })
            .collect();

        let mut start = 0usize;
        while start < n {
            let len = (n - start).min(BLOCK);
            for &(r, v) in &col_loads {
                ws.regs[r as usize][..len].copy_from_slice(&v[start..start + len]);
            }
            let regs = ws.regs.as_mut_ptr();
            for step in &self.steps {
                // SAFETY: `resolve` paired every kernel with `tier`,
                // which `detect_tier` confirmed on this CPU, so the
                // kernel's target features are available. The lowerer
                // keeps every step index `< num_regs` (the workspace
                // holds exactly `num_regs` blocks while `prepared ==
                // id`) and never allocates a step's destination from a
                // register that is still a live source, so the
                // `&mut`/`&` block references inside the kernel are
                // disjoint.
                unsafe { (step.kernel)(regs, step) }
            }
            for &(i, rr) in &block_roots {
                let src = &ws.regs[rr as usize];
                let out = &mut ws.outputs[i as usize][start..start + len];
                // SAFETY: `finite_out` was resolved against the tier
                // `detect_tier` confirmed on this CPU.
                unsafe { (self.finite_out)(src, out) }
            }
            start += len;
        }
        Ok(())
    }
}

/// The root materialization rule: non-finite rows become `+∞` (an
/// infeasible sentinel the tuner's budget checks rely on).
#[inline(always)]
fn finite_or_inf(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::INFINITY
    }
}

/// Reusable evaluation scratch for a [`CompiledProgram`]: the block
/// register file plus per-root output columns. Create one per
/// evaluating thread; after the first call with a given program,
/// evaluation allocates nothing.
#[derive(Debug, Default)]
pub struct CompiledWorkspace {
    regs: Vec<Block>,
    outputs: Vec<Vec<f64>>,
    /// Canonical column index per root: aliased roots (duplicate root
    /// slots) resolve reads to the first root sharing their slot.
    root_src: Vec<u32>,
    /// Id of the program this workspace was last prepared for (0 =
    /// none; program ids start at 1).
    prepared: u64,
    /// Batch length of the most recent evaluation (constant-root
    /// columns refill only when this changes).
    prepared_len: usize,
}

impl CompiledWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Output column of root `i` from the most recent
    /// [`CompiledProgram::eval_batch`] call.
    ///
    /// # Panics
    ///
    /// Panics if no evaluation has populated root `i` yet.
    pub fn output(&self, i: usize) -> &[f64] {
        &self.outputs[self.root_src[i] as usize]
    }

    /// An owned copy of root `i`'s output column. Roots whose column is
    /// shared (duplicate root slots) clone; sole owners move their
    /// allocation out (the workspace reallocates it on next use).
    pub fn take_output(&mut self, i: usize) -> Vec<f64> {
        let src = self.root_src[i] as usize;
        let shared = self
            .root_src
            .iter()
            .enumerate()
            .any(|(j, &s)| j != i && s as usize == src);
        if src == i && !shared {
            std::mem::take(&mut self.outputs[i])
        } else {
            self.outputs[src].clone()
        }
    }
}

/// Lowers one SSA op into raw steps. N-ary folds become a binary first
/// step plus accumulate steps, preserving the scalar evaluator's
/// left-to-right fold order; single-operand folds degenerate to `copy`.
fn emit_op(raw: &mut Vec<RawStep>, fused: &Program, reg_of: &[u32], op: Op, dst: u32) {
    let r = |s: u32| reg_of[s as usize];
    let step = |k: KernelId, a: u32, b: u32, c: u32, d: u32| RawStep { k, dst, a, b, c, d };
    let fold = |raw: &mut Vec<RawStep>, start: u32, len: u32, bin: KernelId, acc: KernelId| {
        let args = &fused.operands[start as usize..(start + len) as usize];
        if args.len() == 1 {
            raw.push(step(KernelId::copy, r(args[0]), 0, 0, 0));
            return;
        }
        raw.push(step(bin, r(args[0]), r(args[1]), 0, 0));
        for &s in &args[2..] {
            raw.push(step(acc, r(s), 0, 0, 0));
        }
    };
    match op {
        Op::Const(_) | Op::Sym(_) => unreachable!("consts and symbols are pinned, not lowered"),
        Op::Add { start, len } => fold(raw, start, len, KernelId::add2, KernelId::acc_add),
        Op::Mul { start, len } => fold(raw, start, len, KernelId::mul2, KernelId::acc_mul),
        Op::Min { start, len } => fold(raw, start, len, KernelId::min2, KernelId::acc_min),
        Op::Max { start, len } => fold(raw, start, len, KernelId::max2, KernelId::acc_max),
        Op::Div(a, b) => raw.push(step(KernelId::div, r(a), r(b), 0, 0)),
        Op::Floor(a) => raw.push(step(KernelId::floor, r(a), 0, 0, 0)),
        Op::Ceil(a) => raw.push(step(KernelId::ceil, r(a), 0, 0, 0)),
        Op::Cmp(cmp, a, b) => {
            let k = match cmp {
                CmpOp::Le => KernelId::cmp_le,
                CmpOp::Lt => KernelId::cmp_lt,
                CmpOp::Ge => KernelId::cmp_ge,
                CmpOp::Gt => KernelId::cmp_gt,
                CmpOp::Eq => KernelId::cmp_eq,
            };
            raw.push(step(k, r(a), r(b), 0, 0));
        }
        Op::Select(c, t, e) => raw.push(step(KernelId::select, r(c), r(t), r(e), 0)),
        Op::MulAdd(a, b, c) => raw.push(step(KernelId::muladd, r(a), r(b), r(c), 0)),
        Op::SelectCmp(cmp, a, b, t, e) => {
            let k = match cmp {
                CmpOp::Le => KernelId::selcmp_le,
                CmpOp::Lt => KernelId::selcmp_lt,
                CmpOp::Ge => KernelId::selcmp_ge,
                CmpOp::Gt => KernelId::selcmp_gt,
                CmpOp::Eq => KernelId::selcmp_eq,
            };
            raw.push(step(k, r(a), r(b), r(t), r(e)));
        }
        Op::DivFloor(a, b) => raw.push(step(KernelId::divfloor, r(a), r(b), 0, 0)),
        Op::DivCeil(a, b) => raw.push(step(KernelId::divceil, r(a), r(b), 0, 0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Context, Expr};
    use proptest::prelude::*;

    /// Checks every root of every row against the scalar oracle: where
    /// `eval_scalar_root` returns `Ok(v)` the compiled output has `v`'s
    /// bits (`-0.0` vs `0.0` must not pass), and where it rejects the
    /// row as non-finite the compiled output is `+∞`.
    fn assert_matches_scalar_oracle(
        p: &Program,
        c: &CompiledProgram,
        ws: &mut CompiledWorkspace,
        batch: &BatchBindings,
    ) {
        c.eval_batch(batch, ws).unwrap();
        let cols = p.symbols().resolve_batch(batch).unwrap();
        for row in 0..batch.len() {
            let inputs: Vec<f64> = cols
                .iter()
                .map(|col| match col {
                    Column::Scalar(v) => *v,
                    Column::Values(v) => v[row],
                })
                .collect();
            for root in 0..p.num_roots() {
                let got = ws.output(root)[row];
                match p.eval_scalar_root(root, &inputs) {
                    Ok(v) => assert_eq!(
                        got.to_bits(),
                        v.to_bits(),
                        "root {root} ({}) row {row}: compiled {got} vs scalar {v}, inputs {inputs:?}",
                        p.root_labels()[root]
                    ),
                    Err(SymbolicError::NonFinite { .. }) => assert_eq!(
                        got,
                        f64::INFINITY,
                        "root {root} row {row}: non-finite must map to +inf, inputs {inputs:?}"
                    ),
                    Err(e) => panic!("unexpected scalar error {e}"),
                }
            }
        }
    }

    fn stage_like_program(ctx: &Context) -> Program {
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let z = ctx.symbol("z");
        let chain = x * y + y * z + x + 2.5; // MulAdd triggers
        let guard = ctx.cmp(CmpOp::Ge, x + y, ctx.constant(1.0));
        let sel = ctx.select(guard, chain, z * 4.0); // SelectCmp trigger
        let steps = (x / z).ceil() * (y / ctx.constant(3.0)).floor(); // Div{Ceil,Floor}
        let folds = ctx.min_of(&[x, y, z, chain]) + ctx.max_of(&[x * x, y, z + 1.0]);
        ctx.compile_program(&[
            ("sel", sel),
            ("steps", steps),
            ("folds", folds),
            ("chain", chain),
        ])
    }

    #[test]
    fn compiled_matches_interpreted_across_batch_sizes() {
        let ctx = Context::new();
        let program = stage_like_program(&ctx);
        let compiled = CompiledProgram::compile(&program);
        assert!(
            compiled.superinstrs() > 0,
            "expected superinstruction fusion"
        );

        let mut ws = CompiledWorkspace::new();
        for n in [1usize, 5, BLOCK, BLOCK + 1, 1000] {
            let mut batch = BatchBindings::new(n);
            let specials = [
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                0.0,
                -3.75,
                1e18,
            ];
            batch.set_values("x", (0..n).map(|i| i as f64 - 2.0).collect());
            batch.set_values("y", (0..n).map(|i| specials[i % specials.len()]).collect());
            batch.set_scalar("z", 3.0);
            assert_matches_scalar_oracle(&program, &compiled, &mut ws, &batch);
        }
    }

    #[test]
    fn uniform_and_empty_batches_match() {
        let ctx = Context::new();
        let program = stage_like_program(&ctx);
        let compiled = CompiledProgram::compile(&program);
        let mut ws = CompiledWorkspace::new();

        // All-scalar bindings: every block is one broadcast value.
        let mut uniform = BatchBindings::new(300);
        uniform.set_scalar("x", 2.0);
        uniform.set_scalar("y", -0.0);
        uniform.set_scalar("z", 7.0);
        assert_matches_scalar_oracle(&program, &compiled, &mut ws, &uniform);

        let mut empty = BatchBindings::new(0);
        empty.set_scalar("x", 1.0);
        empty.set_scalar("y", 1.0);
        empty.set_scalar("z", 1.0);
        compiled.eval_batch(&empty, &mut ws).unwrap();
        for root in 0..program.num_roots() {
            assert!(ws.output(root).is_empty(), "root {root}");
        }
    }

    #[test]
    fn workspace_is_reused_across_programs_and_sizes() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let p1 = ctx.compile_program(&[("a", x * 2.0 + 1.0)]);
        let p2 = ctx.compile_program(&[("b", (x / 3.0).floor()), ("c", x.max(ctx.constant(0.0)))]);
        let (c1, c2) = (CompiledProgram::compile(&p1), CompiledProgram::compile(&p2));

        let mut ws = CompiledWorkspace::new();
        for n in [10usize, 500, 3] {
            let mut batch = BatchBindings::new(n);
            batch.set_values("x", (0..n).map(|i| i as f64 * 1.5 - 4.0).collect());
            for (p, c) in [(&p1, &c1), (&p2, &c2)] {
                assert_matches_scalar_oracle(p, c, &mut ws, &batch);
            }
        }
    }

    #[test]
    fn binding_errors_match_the_interpreter() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let program = ctx.compile_program(&[("r", x + y)]);
        let compiled = CompiledProgram::compile(&program);
        let mut ws = CompiledWorkspace::new();

        let mut missing = BatchBindings::new(2);
        missing.set_values("x", vec![1.0, 2.0]);
        assert!(matches!(
            compiled.eval_batch(&missing, &mut ws),
            Err(SymbolicError::UnboundSymbol(name)) if name == "y"
        ));

        let mut short = BatchBindings::new(3);
        short.set_values("x", vec![1.0, 2.0]);
        short.set_scalar("y", 0.0);
        assert!(matches!(
            compiled.eval_batch(&short, &mut ws),
            Err(SymbolicError::BatchLengthMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn compiled_program_is_send_sync_and_introspectable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledProgram>();
        assert_send_sync::<CompiledWorkspace>();

        let ctx = Context::new();
        let x = ctx.symbol("x");
        let program = ctx.compile_program(&[("r", x * 2.0 + 1.0)]);
        let compiled = CompiledProgram::compile(&program);
        assert_eq!(compiled.num_roots(), 1);
        assert_eq!(compiled.root_index("r"), Some(0));
        assert_eq!(compiled.root_labels(), program.root_labels());
        assert_eq!(compiled.symbols().names(), program.symbols().names());
        assert!(compiled.num_steps() >= 1);
        assert!(compiled.num_regs() >= 1);
        assert!(["scalar", "avx2", "avx512"].contains(&compiled.tier_name()));
        assert_ne!(compiled.id(), 0);
    }

    /// One random DAG-construction move over a growing expression pool.
    #[derive(Debug, Clone, Copy)]
    enum Move {
        Add(u8, u8),
        Mul(u8, u8),
        MulAddChain(u8, u8, u8),
        Min(u8, u8),
        Max(u8, u8),
        Div(u8, u8),
        FloorDiv(u8, u8),
        CeilDiv(u8, u8),
        Floor(u8),
        Ceil(u8),
        Cmp(u8, u8, u8),
        Select(u8, u8, u8, u8, u8),
    }

    fn move_strategy() -> impl Strategy<Value = Move> {
        let i = || 0u8..=255u8;
        prop_oneof![
            (i(), i()).prop_map(|(a, b)| Move::Add(a, b)),
            (i(), i()).prop_map(|(a, b)| Move::Mul(a, b)),
            (i(), i(), i()).prop_map(|(a, b, c)| Move::MulAddChain(a, b, c)),
            (i(), i()).prop_map(|(a, b)| Move::Min(a, b)),
            (i(), i()).prop_map(|(a, b)| Move::Max(a, b)),
            (i(), i()).prop_map(|(a, b)| Move::Div(a, b)),
            (i(), i()).prop_map(|(a, b)| Move::FloorDiv(a, b)),
            (i(), i()).prop_map(|(a, b)| Move::CeilDiv(a, b)),
            i().prop_map(Move::Floor),
            i().prop_map(Move::Ceil),
            (i(), i(), i()).prop_map(|(o, a, b)| Move::Cmp(o, a, b)),
            (i(), i(), i(), i(), i()).prop_map(|(o, a, b, t, e)| Move::Select(o, a, b, t, e)),
        ]
    }

    /// Row values including every special class the exactness argument
    /// covers: ±0.0, ±∞, NaN and magnitudes that overflow or underflow.
    fn row_strategy() -> impl Strategy<Value = f64> {
        // The vendored proptest's `prop_oneof!` draws arms uniformly, so
        // the finite range repeats to keep special values a minority.
        prop_oneof![
            -100.0..100.0f64,
            -100.0..100.0f64,
            -100.0..100.0f64,
            -100.0..100.0f64,
            -100.0..100.0f64,
            -100.0..100.0f64,
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(-0.0f64),
            Just(0.0f64),
            Just(1e300),
            Just(-1e300),
            Just(1e-300),
        ]
    }

    fn apply_moves<'c>(ctx: &'c Context, moves: &[Move]) -> Vec<Expr<'c>> {
        let mut pool = vec![
            ctx.symbol("x"),
            ctx.symbol("y"),
            ctx.symbol("z"),
            ctx.constant(2.0),
            ctx.constant(-3.5),
            ctx.constant(0.5),
        ];
        let cmp_ops = [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq];
        for &mv in moves {
            let p = |i: u8| pool[i as usize % pool.len()];
            // `Context::div` rejects constant-zero denominators at
            // construction time; fall back to a symbol (which may still
            // be zero per row — that path stays covered).
            let denom = |i: u8| {
                let d = p(i);
                if d.as_const() == Some(0.0) {
                    pool[0]
                } else {
                    d
                }
            };
            let cmp = |o: u8| cmp_ops[o as usize % cmp_ops.len()];
            let e = match mv {
                Move::Add(a, b) => p(a) + p(b),
                Move::Mul(a, b) => p(a) * p(b),
                Move::MulAddChain(a, b, c) => p(a) * p(b) + p(c),
                Move::Min(a, b) => p(a).min(p(b)),
                Move::Max(a, b) => p(a).max(p(b)),
                Move::Div(a, b) => p(a) / denom(b),
                Move::FloorDiv(a, b) => (p(a) / denom(b)).floor(),
                Move::CeilDiv(a, b) => (p(a) / denom(b)).ceil(),
                Move::Floor(a) => p(a).floor(),
                Move::Ceil(a) => p(a).ceil(),
                Move::Cmp(o, a, b) => ctx.cmp(cmp(o), p(a), p(b)),
                Move::Select(o, a, b, t, e) => ctx.select(ctx.cmp(cmp(o), p(a), p(b)), p(t), p(e)),
            };
            pool.push(e);
        }
        pool
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The compiled backend against the scalar interpreter
        /// `Program::eval_scalar`: random multi-root DAGs with shared
        /// subtrees, special row values, mixed scalar and column
        /// bindings, and batch sizes around the block width.
        #[test]
        fn compiled_is_bit_identical_to_interpreted(
            moves in prop::collection::vec(move_strategy(), 1..40),
            picks in prop::collection::vec(0u8..=255u8, 1..6),
            xs in prop::collection::vec(row_strategy(), 1000),
            ys in prop::collection::vec(row_strategy(), 1000),
            zs in prop::collection::vec(row_strategy(), 1000),
            n in prop::sample::select(vec![0usize, 1, BLOCK - 1, BLOCK, BLOCK + 1, 1000]),
            scalar_mask in 0u8..8,
        ) {
            let ctx = Context::new();
            let pool = apply_moves(&ctx, &moves);
            // The newest expression plus a few picked anywhere in the
            // pool: roots share subtrees and may repeat.
            let mut chosen = vec![pool[pool.len() - 1]];
            chosen.extend(picks.iter().map(|&i| pool[i as usize % pool.len()]));
            let labeled: Vec<(String, Expr)> = chosen
                .into_iter()
                .enumerate()
                .map(|(i, e)| (format!("r{i}"), e))
                .collect();
            let roots: Vec<(&str, Expr)> =
                labeled.iter().map(|(name, e)| (name.as_str(), *e)).collect();
            let program = ctx.compile_program(&roots);
            let compiled = CompiledProgram::compile(&program);

            let mut batch = BatchBindings::new(n);
            for (bit, (name, col)) in [("x", &xs), ("y", &ys), ("z", &zs)].into_iter().enumerate() {
                if scalar_mask & (1 << bit) != 0 {
                    batch.set_scalar(name, col[0]);
                } else {
                    batch.set_values(name, col[..n].to_vec());
                }
            }
            let mut ws = CompiledWorkspace::new();
            assert_matches_scalar_oracle(&program, &compiled, &mut ws, &batch);
        }
    }
}
