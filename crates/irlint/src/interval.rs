//! Interval (abstract value) analysis over the SSA stream.
//!
//! Each slot is mapped to an [`AbstractValue`]: an interval `[lo, hi]`
//! guaranteed to contain every value the instruction can produce when
//! the symbols range over their declared [`DomainMap`](crate::DomainMap)
//! domains, plus an *integrality* bit and a *may-be-non-finite* bit.
//! The analysis is a forward instance of the crate's
//! [`framework`](crate::framework): the lattice is interval union with
//! the empty interval as bottom, and diagnostics (missing domains,
//! reachable division by zero) are derived from the final facts by a
//! deterministic post-pass.
//!
//! Soundness under round-to-nearest: every transfer function evaluates
//! the same floating-point operations the evaluator runs, at interval
//! endpoints (or 4-corner products/quotients). Because IEEE-754
//! round-to-nearest is monotone and these operations are coordinatewise
//! monotone, interior points cannot escape the endpoint results — no
//! directed rounding is needed. Whenever a bound overflows to infinity
//! the `may_nonfinite` bit is set, so "provably finite" claims survive
//! overflow too.

use mist_symbolic::{CmpOp, Instr, Program};

use crate::diag::{Analysis, Diagnostic, Severity};
use crate::domain::DomainMap;
use crate::framework::{self, Direction, FactEnv, Lattice, TransferFunction};

/// What the analysis knows about one slot's value over the whole domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbstractValue {
    /// Lower bound (`-inf` when unbounded below).
    pub lo: f64,
    /// Upper bound (`+inf` when unbounded above).
    pub hi: f64,
    /// True when the value is a mathematical integer at every point of
    /// the domain.
    pub integral: bool,
    /// True when evaluation may produce NaN or ±infinity somewhere in
    /// the domain (division by zero, overflow, undeclared symbol).
    pub may_nonfinite: bool,
}

impl AbstractValue {
    /// The unbounded, possibly-non-finite value (top of the lattice).
    pub fn top() -> Self {
        AbstractValue {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            integral: false,
            may_nonfinite: true,
        }
    }

    /// The abstract value of a constant.
    pub fn constant(c: f64) -> Self {
        AbstractValue {
            lo: c,
            hi: c,
            integral: c.is_finite() && c.fract() == 0.0,
            may_nonfinite: !c.is_finite(),
        }
    }

    /// True when both bounds are finite and no non-finite evaluation is
    /// possible.
    pub fn provably_finite(&self) -> bool {
        !self.may_nonfinite && self.lo.is_finite() && self.hi.is_finite()
    }

    /// True when the interval contains `v` (NaN is never contained).
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    pub(crate) fn bounded(lo: f64, hi: f64, integral: bool, child_mnf: bool) -> Self {
        AbstractValue {
            lo,
            hi,
            integral,
            may_nonfinite: child_mnf || !(lo.is_finite() && hi.is_finite()),
        }
    }
}

impl Lattice for AbstractValue {
    /// The empty interval: join identity (`min`/`max` against an empty
    /// range yields the other side).
    fn bottom() -> Self {
        AbstractValue {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            integral: true,
            may_nonfinite: false,
        }
    }

    fn join(&self, other: &Self) -> Self {
        AbstractValue {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            integral: self.integral && other.integral,
            may_nonfinite: self.may_nonfinite || other.may_nonfinite,
        }
    }
}

/// Per-slot abstract values plus the diagnostics found along the way.
pub(crate) struct IntervalOutcome {
    pub values: Vec<AbstractValue>,
    pub diags: Vec<Diagnostic>,
}

/// A `coeff * symbol` term inside an `Add`, for ordering refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinearTerm {
    coeff: f64,
    sym: u32,
}

/// The forward interval instance: symbol intervals come from the
/// declared domains, ordering facts refine sums and comparisons.
struct IntervalAnalysis<'p> {
    program: &'p Program,
    sym_values: Vec<AbstractValue>,
    le: Vec<(u32, u32)>,
}

impl TransferFunction for IntervalAnalysis<'_> {
    type Fact = AbstractValue;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn transfer(
        &mut self,
        _slot: u32,
        instr: Instr<'_>,
        env: &FactEnv<'_, AbstractValue>,
    ) -> AbstractValue {
        let values = env.facts();
        match instr {
            Instr::Const(c) => AbstractValue::constant(c),
            Instr::Sym(i) => self.sym_values[i as usize],
            Instr::Add(ops) => transfer_add(self.program, ops, values, &self.sym_values, &self.le),
            Instr::Mul(ops) => ops
                .iter()
                .map(|&op| values[op as usize])
                .reduce(mul_pair)
                .unwrap_or(AbstractValue::constant(1.0)),
            Instr::Min(ops) => fold_minmax(ops, values, f64::min),
            Instr::Max(ops) => fold_minmax(ops, values, f64::max),
            Instr::Div(a, b) => transfer_div(values[a as usize], values[b as usize]),
            Instr::Floor(a) => {
                let x = values[a as usize];
                AbstractValue::bounded(x.lo.floor(), x.hi.floor(), true, x.may_nonfinite)
            }
            Instr::Ceil(a) => {
                let x = values[a as usize];
                AbstractValue::bounded(x.lo.ceil(), x.hi.ceil(), true, x.may_nonfinite)
            }
            Instr::Cmp(op, a, b) => transfer_cmp(
                self.program,
                op,
                a,
                b,
                values[a as usize],
                values[b as usize],
                &self.le,
            ),
            Instr::Select(c, a, b) => {
                let (cv, av, bv) = (values[c as usize], values[a as usize], values[b as usize]);
                match guard_constant(cv) {
                    Some(true) => av,
                    Some(false) => bv,
                    None => av.join(&bv),
                }
            }
            // Superinstructions transfer exactly like the op pairs they
            // fuse (see `mist_symbolic::fuse_superinstructions`).
            Instr::MulAdd(a, b, c) => {
                let m = mul_pair(values[a as usize], values[b as usize]);
                let cv = values[c as usize];
                AbstractValue::bounded(
                    m.lo + cv.lo,
                    m.hi + cv.hi,
                    m.integral && cv.integral,
                    m.may_nonfinite || cv.may_nonfinite,
                )
            }
            Instr::SelectCmp(op, a, b, t, e) => {
                let cv = transfer_cmp(
                    self.program,
                    op,
                    a,
                    b,
                    values[a as usize],
                    values[b as usize],
                    &self.le,
                );
                let (tv, ev) = (values[t as usize], values[e as usize]);
                match guard_constant(cv) {
                    Some(true) => tv,
                    Some(false) => ev,
                    None => tv.join(&ev),
                }
            }
            Instr::DivFloor(a, b) => {
                let q = transfer_div(values[a as usize], values[b as usize]);
                AbstractValue::bounded(q.lo.floor(), q.hi.floor(), true, q.may_nonfinite)
            }
            Instr::DivCeil(a, b) => {
                let q = transfer_div(values[a as usize], values[b as usize]);
                AbstractValue::bounded(q.lo.ceil(), q.hi.ceil(), true, q.may_nonfinite)
            }
        }
    }
}

/// Resolves declared `a <= b` ordering facts to symbol-table indices.
pub(crate) fn resolve_le(program: &Program, domains: &DomainMap) -> Vec<(u32, u32)> {
    let table = program.symbols();
    domains
        .le_pairs()
        .iter()
        .filter_map(|(a, b)| Some((table.index_of(a)? as u32, table.index_of(b)? as u32)))
        .collect()
}

/// Per-symbol abstract values from the declared domains, in symbol-table
/// order; symbols without a domain map to top and (when `diags` is
/// given) a `no-domain` warning.
pub(crate) fn symbol_values(
    program: &Program,
    domains: &DomainMap,
    mut diags: Option<&mut Vec<Diagnostic>>,
) -> Vec<AbstractValue> {
    program
        .symbols()
        .names()
        .iter()
        .map(|name| match domains.get(name) {
            Some(d) => AbstractValue::bounded(d.lo, d.hi, d.integral, false),
            None => {
                if let Some(diags) = diags.as_deref_mut() {
                    diags.push(Diagnostic {
                        severity: Severity::Warning,
                        analysis: Analysis::Intervals,
                        code: "no-domain",
                        slot: None,
                        root: None,
                        message: format!(
                            "symbol `{name}` has no declared domain; assuming unbounded"
                        ),
                    });
                }
                AbstractValue::top()
            }
        })
        .collect()
}

pub(crate) fn analyze(program: &Program, domains: &DomainMap) -> IntervalOutcome {
    let mut diags = Vec::new();
    let sym_values = symbol_values(program, domains, Some(&mut diags));
    let le = resolve_le(program, domains);

    let mut analysis = IntervalAnalysis {
        program,
        sym_values,
        le,
    };
    let values = framework::fixpoint(program, &mut analysis);

    // Diagnostic post-pass, in ascending slot order: a division whose
    // final denominator interval straddles zero is reachable ÷0. When
    // ordering refinement proved the divisor sign-definite, the transfer
    // already propagated refined quotient bounds and nothing is
    // reported.
    for (slot, instr) in program.instrs().enumerate() {
        if let Instr::Div(a, b) | Instr::DivFloor(a, b) | Instr::DivCeil(a, b) = instr {
            let (num, den) = (values[a as usize], values[b as usize]);
            if den.lo <= 0.0 && den.hi >= 0.0 {
                let nan_note = if num.lo <= 0.0 && num.hi >= 0.0 {
                    " (0/0 would be NaN)"
                } else {
                    ""
                };
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    analysis: Analysis::Intervals,
                    code: "div-by-zero",
                    slot: Some(slot as u32),
                    root: None,
                    message: format!(
                        "denominator range [{}, {}] contains zero{nan_note}",
                        den.lo, den.hi
                    ),
                });
            }
        }
    }

    IntervalOutcome { values, diags }
}

/// Proven interval bounds of every root over `domains`, in root order.
///
/// A lighter entry point than [`crate::lint_program`] for callers that
/// only need the bounds (no unit registry, no diagnostics): the tuner's
/// static budget-fit proof and the plan certifier both re-derive memory
/// and cost claims through these intervals.
pub fn root_intervals(program: &Program, domains: &DomainMap) -> Vec<crate::RootBounds> {
    let outcome = analyze(program, domains);
    program
        .root_labels()
        .iter()
        .zip(program.root_slots())
        .map(|(label, &slot)| {
            let v = outcome.values[slot as usize];
            crate::RootBounds {
                label: label.clone(),
                lo: v.lo,
                hi: v.hi,
                may_nonfinite: v.may_nonfinite,
            }
        })
        .collect()
}

/// `Some(taken_then)` when the guard is provably constant over the domain.
pub(crate) fn guard_constant(cv: AbstractValue) -> Option<bool> {
    if cv.may_nonfinite {
        return None;
    }
    if cv.lo > 0.0 || cv.hi < 0.0 {
        Some(true) // never zero: `Select` always takes the then-branch
    } else if cv.lo == 0.0 && cv.hi == 0.0 {
        Some(false)
    } else {
        None
    }
}

/// A product of interval endpoints, with `0 * inf` resolved to `0`: a
/// zero *endpoint* that is attained means the product is exactly zero,
/// and an infinite endpoint is a bound, not an attained value.
fn corner_mul(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        a * b
    }
}

pub(crate) fn mul_pair(x: AbstractValue, y: AbstractValue) -> AbstractValue {
    let corners = [
        corner_mul(x.lo, y.lo),
        corner_mul(x.lo, y.hi),
        corner_mul(x.hi, y.lo),
        corner_mul(x.hi, y.hi),
    ];
    let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    AbstractValue::bounded(
        lo,
        hi,
        x.integral && y.integral,
        x.may_nonfinite || y.may_nonfinite,
    )
}

fn fold_minmax(ops: &[u32], values: &[AbstractValue], pick: fn(f64, f64) -> f64) -> AbstractValue {
    let mut it = ops.iter().map(|&op| values[op as usize]);
    let first = it.next().expect("min/max has at least one operand");
    it.fold(first, |acc, x| AbstractValue {
        lo: pick(acc.lo, x.lo),
        hi: pick(acc.hi, x.hi),
        integral: acc.integral && x.integral,
        may_nonfinite: acc.may_nonfinite || x.may_nonfinite,
    })
}

/// Quotient transfer. A denominator interval that straddles zero yields
/// top (the post-pass reports the reachable ÷0); a sign-definite
/// denominator — including one proved sign-definite by the `Add`
/// ordering refinement — propagates 4-corner quotient bounds.
fn transfer_div(num: AbstractValue, den: AbstractValue) -> AbstractValue {
    if den.lo <= 0.0 && den.hi >= 0.0 {
        return AbstractValue::top();
    }
    let corners = [
        num.lo / den.lo,
        num.lo / den.hi,
        num.hi / den.lo,
        num.hi / den.hi,
    ];
    let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    AbstractValue::bounded(lo, hi, false, num.may_nonfinite || den.may_nonfinite)
}

fn transfer_cmp(
    program: &Program,
    op: CmpOp,
    a_slot: u32,
    b_slot: u32,
    a: AbstractValue,
    b: AbstractValue,
    le: &[(u32, u32)],
) -> AbstractValue {
    let bool_interval = |lo: f64, hi: f64| AbstractValue {
        lo,
        hi,
        integral: true,
        may_nonfinite: false,
    };
    // Ordering facts between raw symbols can decide a comparison even
    // when the per-symbol intervals overlap.
    let (a_le_b_known, b_le_a_known) = match (
        program.instr(a_slot as usize),
        program.instr(b_slot as usize),
    ) {
        (Instr::Sym(sa), Instr::Sym(sb)) => (le.contains(&(sa, sb)), le.contains(&(sb, sa))),
        _ => (false, false),
    };
    let sound = !a.may_nonfinite && !b.may_nonfinite;
    let decided = match op {
        CmpOp::Le => {
            if (sound && a.hi <= b.lo) || a_le_b_known {
                Some(true)
            } else if sound && a.lo > b.hi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Lt => {
            if sound && a.hi < b.lo {
                Some(true)
            } else if (sound && a.lo >= b.hi) || b_le_a_known {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Ge => {
            if (sound && a.lo >= b.hi) || b_le_a_known {
                Some(true)
            } else if sound && a.hi < b.lo {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Gt => {
            if sound && a.lo > b.hi {
                Some(true)
            } else if (sound && a.hi <= b.lo) || a_le_b_known {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Eq => {
            if sound && a.lo == a.hi && b.lo == b.hi && a.lo == b.lo {
                Some(true)
            } else if sound && (a.hi < b.lo || b.hi < a.lo) {
                Some(false)
            } else {
                None
            }
        }
    };
    match decided {
        Some(true) => bool_interval(1.0, 1.0),
        Some(false) => bool_interval(0.0, 0.0),
        None => bool_interval(0.0, 1.0),
    }
}

/// N-ary sum with ordering-constraint refinement of both bounds.
///
/// The naive bound folds endpoint sums in operand order (sound under
/// monotone rounding). On top of that, operand pairs of the shape
/// `c*x + (-c)*y` with `c > 0` are refined by declared ordering facts:
///
/// * a fact `y <= x` proves the pair contributes at least
///   `c * max(0, lo(x) - hi(y))` — what proves stage expressions like
///   `L - ckpt` non-negative;
/// * a fact `x <= y` proves the pair contributes at most
///   `c * min(0, hi(x) - lo(y))` — what proves expressions like
///   `ckpt - L - 1` negative, so a division by them is not a reachable
///   ÷0.
///
/// The two refinements are gated independently: each replaces the naive
/// bound only when at least one pair of its own direction exists, so
/// programs with one-directional facts keep the other bound's exact
/// floating-point summation order.
fn transfer_add(
    program: &Program,
    ops: &[u32],
    values: &[AbstractValue],
    sym_values: &[AbstractValue],
    le: &[(u32, u32)],
) -> AbstractValue {
    let mut lo = 0.0f64;
    let mut hi = 0.0f64;
    let mut integral = true;
    let mut mnf = false;
    for &op in ops {
        let v = values[op as usize];
        lo += v.lo;
        hi += v.hi;
        integral &= v.integral;
        mnf |= v.may_nonfinite;
    }

    if !le.is_empty() && ops.len() >= 2 {
        let terms: Vec<Option<LinearTerm>> =
            ops.iter().map(|&op| linear_term(program, op)).collect();

        // Lower-bound refinement: pairs `c*x + (-c)*y` with `y <= x`.
        let mut used = vec![false; ops.len()];
        let mut refined = 0.0f64;
        let mut any_pair = false;
        for i in 0..ops.len() {
            if used[i] {
                continue;
            }
            let Some(ti) = terms[i] else { continue };
            if !ti.coeff.is_finite() || ti.coeff <= 0.0 {
                continue;
            }
            for j in 0..ops.len() {
                if i == j || used[j] {
                    continue;
                }
                let Some(tj) = terms[j] else { continue };
                if tj.coeff == -ti.coeff && le.contains(&(tj.sym, ti.sym)) {
                    let x = sym_values[ti.sym as usize];
                    let y = sym_values[tj.sym as usize];
                    refined += ti.coeff * (x.lo - y.hi).max(0.0);
                    used[i] = true;
                    used[j] = true;
                    any_pair = true;
                    break;
                }
            }
        }
        if any_pair {
            for (i, &op) in ops.iter().enumerate() {
                if !used[i] {
                    refined += values[op as usize].lo;
                }
            }
            lo = lo.max(refined);
        }

        // Upper-bound refinement, mirrored: pairs `c*x + (-c)*y` with
        // `x <= y`, contributing at most `c * min(0, hi(x) - lo(y))`.
        let mut used_hi = vec![false; ops.len()];
        let mut refined_hi = 0.0f64;
        let mut any_hi_pair = false;
        for i in 0..ops.len() {
            if used_hi[i] {
                continue;
            }
            let Some(ti) = terms[i] else { continue };
            if !ti.coeff.is_finite() || ti.coeff <= 0.0 {
                continue;
            }
            for j in 0..ops.len() {
                if i == j || used_hi[j] {
                    continue;
                }
                let Some(tj) = terms[j] else { continue };
                if tj.coeff == -ti.coeff && le.contains(&(ti.sym, tj.sym)) {
                    let x = sym_values[ti.sym as usize];
                    let y = sym_values[tj.sym as usize];
                    refined_hi += ti.coeff * (x.hi - y.lo).min(0.0);
                    used_hi[i] = true;
                    used_hi[j] = true;
                    any_hi_pair = true;
                    break;
                }
            }
        }
        if any_hi_pair {
            for (i, &op) in ops.iter().enumerate() {
                if !used_hi[i] {
                    refined_hi += values[op as usize].hi;
                }
            }
            hi = hi.min(refined_hi);
        }
    }

    AbstractValue::bounded(lo, hi, integral, mnf)
}

/// Recognizes an `Add` operand as `coeff * symbol`: a bare `Sym`, or a
/// two-operand `Mul` of a `Sym` and a `Const`.
fn linear_term(program: &Program, slot: u32) -> Option<LinearTerm> {
    match program.instr(slot as usize) {
        Instr::Sym(s) => Some(LinearTerm { coeff: 1.0, sym: s }),
        Instr::Mul(ops) if ops.len() == 2 => {
            match (
                program.instr(ops[0] as usize),
                program.instr(ops[1] as usize),
            ) {
                (Instr::Sym(s), Instr::Const(c)) | (Instr::Const(c), Instr::Sym(s)) => {
                    Some(LinearTerm { coeff: c, sym: s })
                }
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::SymbolDomain;
    use mist_symbolic::Context;

    /// Satellite check: `x / (ckpt - L - 1)` used to be a reported
    /// reachable ÷0 (the naive upper bound of `ckpt - L - 1` is
    /// `hi(ckpt) - lo(L) - 1 > 0`); with the mirrored ordering
    /// refinement the divisor is provably `<= -1`, the report
    /// disappears, and refined quotient bounds propagate.
    #[test]
    fn le_refinement_discharges_divisor_zero() {
        let ctx = Context::new();
        let l = ctx.symbol("L");
        let ckpt = ctx.symbol("ckpt");
        let x = ctx.symbol("x");
        let denom = ckpt - l - 1.0;
        let program = ctx.compile_program(&[("q", x / denom)]);

        let base = DomainMap::new()
            .declare("L", SymbolDomain::new(1.0, 32.0, true))
            .declare("ckpt", SymbolDomain::new(0.0, 32.0, true))
            .declare("x", SymbolDomain::new(0.0, 8.0, false));

        // Without the ordering fact the divisor straddles zero.
        let out = analyze(&program, &base);
        assert!(
            out.diags.iter().any(|d| d.code == "div-by-zero"),
            "unconstrained divisor must report ÷0"
        );

        // With `ckpt <= L` the divisor's refined range is [-33, -1]:
        // no report, and the quotient bounds follow the 4 corners.
        let refined = base.declare_le("ckpt", "L");
        let out = analyze(&program, &refined);
        assert!(
            !out.diags.iter().any(|d| d.code == "div-by-zero"),
            "ordering-refined divisor must not report ÷0: {:?}",
            out.diags
        );
        let root = program.root_slots()[0] as usize;
        let q = out.values[root];
        assert!(q.provably_finite(), "quotient must be provably finite");
        assert!(q.lo >= -8.0 && q.hi <= 0.0, "bounds [{}, {}]", q.lo, q.hi);
    }

    /// The two refinement directions are gated independently: a program
    /// whose facts only support the lower-bound pair keeps the naive
    /// upper bound bit for bit.
    #[test]
    fn one_directional_fact_leaves_other_bound_naive() {
        let ctx = Context::new();
        let l = ctx.symbol("L");
        let ckpt = ctx.symbol("ckpt");
        let program = ctx.compile_program(&[("r", l - ckpt)]);
        let domains = DomainMap::new()
            .declare("L", SymbolDomain::new(1.0, 32.0, true))
            .declare("ckpt", SymbolDomain::new(0.0, 32.0, true))
            .declare_le("ckpt", "L");
        let out = analyze(&program, &domains);
        let root = program.root_slots()[0] as usize;
        let v = out.values[root];
        assert_eq!(v.lo, 0.0, "lower bound refined by ckpt <= L");
        assert_eq!(v.hi, 32.0 - 0.0, "upper bound stays the naive sum");
    }
}
