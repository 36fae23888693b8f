//! Monotonicity (sensitivity-sign) analysis.
//!
//! For every root and every symbol the analysis derives a [`Mono`]
//! verdict: is the root provably non-decreasing, non-increasing, or
//! constant as that symbol sweeps its domain with every other symbol
//! held fixed? Verdicts compose operator monotonicity with interval
//! signs from [`crate::AbstractValue`]: a product is direction-
//! preserving when its factors are sign-definite, a quotient flips
//! through the denominator, a `Select` is directional when its guard
//! is sign-definite and its branches are provably ordered.
//!
//! The claims are deliberately *weak* (non-strict) and hold for the
//! program's actual `f64` evaluation, not just its real-number
//! reading: every rule is a composition of coordinatewise-monotone
//! floating-point operations, so `Increasing` means the evaluated
//! value never decreases when the symbol increases. This is what lets
//! the tuner treat a verdict as a proof: if a memory root is
//! `Increasing` in `inflight` and already over budget at some
//! inflight depth, every deeper depth is out of budget too, and the
//! sweep may skip it without evaluating. No algebraic cancellation is
//! attempted — summing terms with mixed-sign coefficients can locally
//! reverse direction under rounding, so such sums honestly report
//! [`Mono::Unknown`].

use std::fmt;

use mist_symbolic::{CmpOp, Instr, Program};

use crate::diag::Severity;
use crate::domain::DomainMap;
use crate::framework::{self, Direction, FactEnv, Lattice, TransferFunction};
use crate::interval::{self, guard_constant, mul_pair, AbstractValue};

/// The direction a value provably moves as one symbol increases.
///
/// Verdicts are weak: `Increasing` means *non-decreasing*,
/// `Decreasing` means *non-increasing*, and `Constant` satisfies
/// both. `Unknown` is the honest top — no direction could be proved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mono {
    /// The value does not depend on the symbol.
    Constant,
    /// The value never decreases as the symbol increases.
    Increasing,
    /// The value never increases as the symbol increases.
    Decreasing,
    /// No direction could be proved.
    Unknown,
}

impl Mono {
    /// The verdict of the negated value: swaps `Increasing` and
    /// `Decreasing`, fixes `Constant` and `Unknown`.
    pub fn flip(self) -> Mono {
        match self {
            Mono::Increasing => Mono::Decreasing,
            Mono::Decreasing => Mono::Increasing,
            other => other,
        }
    }

    /// Least upper bound in the verdict lattice
    /// (`Constant ⊑ Increasing, Decreasing ⊑ Unknown`). Also the
    /// transfer for sums, minima and maxima: agreeing directions
    /// survive, disagreeing ones become `Unknown`.
    pub fn join(self, other: Mono) -> Mono {
        match (self, other) {
            (Mono::Constant, x) | (x, Mono::Constant) => x,
            (Mono::Increasing, Mono::Increasing) => Mono::Increasing,
            (Mono::Decreasing, Mono::Decreasing) => Mono::Decreasing,
            _ => Mono::Unknown,
        }
    }

    /// Whether the value provably never decreases as the symbol
    /// increases (`Constant` or `Increasing`).
    pub fn non_decreasing(self) -> bool {
        matches!(self, Mono::Constant | Mono::Increasing)
    }
}

impl fmt::Display for Mono {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mono::Constant => "constant",
            Mono::Increasing => "increasing",
            Mono::Decreasing => "decreasing",
            Mono::Unknown => "unknown",
        })
    }
}

/// Per-slot fact: one verdict per symbol, in symbol-table order. The
/// empty vector is the lattice bottom (join identity); every
/// transferred slot carries a full vector.
#[derive(Debug, Clone, PartialEq)]
struct MonoFact {
    per_sym: Vec<Mono>,
}

impl Lattice for MonoFact {
    fn bottom() -> Self {
        MonoFact {
            per_sym: Vec::new(),
        }
    }
    fn join(&self, other: &Self) -> Self {
        if self.per_sym.is_empty() {
            return other.clone();
        }
        if other.per_sym.is_empty() {
            return self.clone();
        }
        MonoFact {
            per_sym: self
                .per_sym
                .iter()
                .zip(&other.per_sym)
                .map(|(&a, &b)| a.join(b))
                .collect(),
        }
    }
}

/// Whether `v` is provably non-negative over the whole domain.
fn nonneg(v: AbstractValue) -> bool {
    !v.may_nonfinite && v.lo >= 0.0
}

/// Whether `v` is provably non-positive over the whole domain.
fn nonpos(v: AbstractValue) -> bool {
    !v.may_nonfinite && v.hi <= 0.0
}

/// Direction of `factor * g` when `factor` is constant in the symbol:
/// a sign-definite factor preserves or flips `g`'s direction.
fn scale_by_sign(factor: AbstractValue, g: Mono) -> Mono {
    if g == Mono::Constant {
        Mono::Constant
    } else if nonneg(factor) {
        g
    } else if nonpos(factor) {
        g.flip()
    } else {
        Mono::Unknown
    }
}

/// Direction of `f * g` in one symbol, given each factor's direction
/// and value interval. Sound for the floating-point product because
/// multiplication is coordinatewise monotone and the sign conditions
/// make both normalized factors non-negative and non-decreasing.
fn mul_mono(mf: Mono, vf: AbstractValue, mg: Mono, vg: AbstractValue) -> Mono {
    match (mf, mg) {
        (Mono::Constant, Mono::Constant) => Mono::Constant,
        (Mono::Constant, g) => scale_by_sign(vf, g),
        (f, Mono::Constant) => scale_by_sign(vg, f),
        (Mono::Unknown, _) | (_, Mono::Unknown) => Mono::Unknown,
        (f, g) => {
            // Both factors vary. Normalize each sign-definite factor
            // to a non-negative one (flipping its direction when the
            // factor is non-positive); the product of two non-negative
            // factors follows their common direction, and each
            // normalization flips the result once.
            let mut flips = 0u32;
            let f = if nonneg(vf) {
                f
            } else if nonpos(vf) {
                flips += 1;
                f.flip()
            } else {
                return Mono::Unknown;
            };
            let g = if nonneg(vg) {
                g
            } else if nonpos(vg) {
                flips += 1;
                g.flip()
            } else {
                return Mono::Unknown;
            };
            let base = match (f, g) {
                (Mono::Increasing, Mono::Increasing) => Mono::Increasing,
                (Mono::Decreasing, Mono::Decreasing) => Mono::Decreasing,
                _ => return Mono::Unknown,
            };
            if flips % 2 == 1 {
                base.flip()
            } else {
                base
            }
        }
    }
}

/// Direction of the guard indicator `[c != 0]` in one symbol. Sound
/// when the guard is sign-definite: over `c >= 0` the indicator is
/// `[c > 0]`, which moves with `c`; over `c <= 0` it is `[c < 0]`,
/// which moves against it.
fn indicator_dir(vc: AbstractValue, mc: Mono) -> Mono {
    if mc == Mono::Constant {
        return Mono::Constant;
    }
    if vc.may_nonfinite {
        return Mono::Unknown;
    }
    if vc.lo >= 0.0 {
        mc
    } else if vc.hi <= 0.0 {
        mc.flip()
    } else {
        Mono::Unknown
    }
}

/// The forward monotonicity instance. Consumes the final facts of a
/// prior interval run for the sign and branch-ordering side
/// conditions.
struct MonoAnalysis<'p> {
    values: &'p [AbstractValue],
    nsyms: usize,
}

impl MonoAnalysis<'_> {
    /// The verdict of `fact` for symbol `s`, tolerating the bottom
    /// (empty) fact a not-yet-visited operand would carry.
    fn at(fact: &MonoFact, s: usize) -> Mono {
        fact.per_sym.get(s).copied().unwrap_or(Mono::Unknown)
    }

    fn constant_fact(&self) -> MonoFact {
        MonoFact {
            per_sym: vec![Mono::Constant; self.nsyms],
        }
    }

    /// Pointwise fold of [`Mono::join`] over `ops` — the transfer for
    /// sums, minima and maxima.
    fn fold_join(&self, ops: &[u32], env: &FactEnv<'_, MonoFact>) -> MonoFact {
        let mut acc = self.constant_fact();
        for &op in ops {
            let f = env.fact(op);
            for (s, m) in acc.per_sym.iter_mut().enumerate() {
                *m = m.join(Self::at(f, s));
            }
        }
        acc
    }

    /// The quotient transfer — shared between `Div` and the fused
    /// `DivFloor`/`DivCeil` superinstructions.
    fn div_fact(&self, a: u32, b: u32, env: &FactEnv<'_, MonoFact>) -> MonoFact {
        let (fa, fb) = (env.fact(a), env.fact(b));
        let (va, vb) = (self.values[a as usize], self.values[b as usize]);
        let sign_definite = !vb.may_nonfinite && (vb.lo > 0.0 || vb.hi < 0.0);
        let per_sym = (0..self.nsyms)
            .map(|s| {
                let (ma, mb) = (Self::at(fa, s), Self::at(fb, s));
                if ma == Mono::Constant && mb == Mono::Constant {
                    return Mono::Constant;
                }
                if !sign_definite {
                    return Mono::Unknown;
                }
                // x → 1/x is antitone on each sign-definite
                // half-line, so the quotient is the product of
                // the numerator with a flipped-direction
                // reciprocal whose interval is [1/hi, 1/lo].
                let recip = AbstractValue {
                    lo: 1.0 / vb.hi,
                    hi: 1.0 / vb.lo,
                    integral: false,
                    may_nonfinite: false,
                };
                mul_mono(ma, va, mb.flip(), recip)
            })
            .collect();
        MonoFact { per_sym }
    }

    /// The comparison-indicator transfer — shared between `Cmp` and
    /// the guard of the fused `SelectCmp` superinstruction.
    fn cmp_fact(&self, op: CmpOp, a: u32, b: u32, env: &FactEnv<'_, MonoFact>) -> MonoFact {
        let (fa, fb) = (env.fact(a), env.fact(b));
        let (va, vb) = (self.values[a as usize], self.values[b as usize]);
        let ordered = !va.may_nonfinite && !vb.may_nonfinite;
        let per_sym = (0..self.nsyms)
            .map(|s| {
                let (ma, mb) = (Self::at(fa, s), Self::at(fb, s));
                if ma == Mono::Constant && mb == Mono::Constant {
                    return Mono::Constant;
                }
                if !ordered {
                    return Mono::Unknown;
                }
                match op {
                    // [a <= b] moves with b - a: it needs b
                    // non-decreasing and a non-increasing (or
                    // the mirror image) to be directional.
                    CmpOp::Le | CmpOp::Lt => ma.flip().join(mb),
                    CmpOp::Ge | CmpOp::Gt => mb.flip().join(ma),
                    CmpOp::Eq => Mono::Unknown,
                }
            })
            .collect();
        MonoFact { per_sym }
    }

    fn transfer_select(&self, c: u32, a: u32, b: u32, env: &FactEnv<'_, MonoFact>) -> MonoFact {
        self.select_with_guard(self.values[c as usize], env.fact(c), a, b, env)
    }

    /// Select transfer with the guard's interval and fact supplied by
    /// the caller — shared between `Select` (whose guard is a slot)
    /// and `SelectCmp` (whose guard is the fused comparison).
    fn select_with_guard(
        &self,
        vc: AbstractValue,
        fc: &MonoFact,
        a: u32,
        b: u32,
        env: &FactEnv<'_, MonoFact>,
    ) -> MonoFact {
        // A guard the interval analysis proved constant pins the
        // program to one branch over the whole domain; the fact is
        // that branch's fact, exactly.
        if let Some(taken_then) = guard_constant(vc) {
            let taken = if taken_then { a } else { b };
            let f = env.fact(taken);
            if f.per_sym.is_empty() {
                return self.constant_fact();
            }
            return f.clone();
        }
        let (fa, fb) = (env.fact(a), env.fact(b));
        let (va, vb) = (self.values[a as usize], self.values[b as usize]);
        let per_sym = (0..self.nsyms)
            .map(|s| {
                let (ma, mb) = (Self::at(fa, s), Self::at(fb, s));
                match indicator_dir(vc, Self::at(fc, s)) {
                    // The chooser is fixed along any line where only
                    // this symbol varies, so the value follows one
                    // branch function along it.
                    Mono::Constant => ma.join(mb),
                    Mono::Unknown => Mono::Unknown,
                    dir @ (Mono::Increasing | Mono::Decreasing) => {
                        // Directional switch between two branches that
                        // are constant in the symbol: sound when the
                        // intervals prove the branch ordering.
                        if ma != Mono::Constant
                            || mb != Mono::Constant
                            || va.may_nonfinite
                            || vb.may_nonfinite
                        {
                            return Mono::Unknown;
                        }
                        // dir == Increasing: else(b) then then(a).
                        let (from, to) = if dir == Mono::Increasing {
                            (vb, va)
                        } else {
                            (va, vb)
                        };
                        let step_up = from.hi <= to.lo;
                        let step_down = to.hi <= from.lo;
                        match (step_up, step_down) {
                            (true, true) => Mono::Constant,
                            (true, false) => Mono::Increasing,
                            (false, true) => Mono::Decreasing,
                            (false, false) => Mono::Unknown,
                        }
                    }
                }
            })
            .collect();
        MonoFact { per_sym }
    }
}

impl TransferFunction for MonoAnalysis<'_> {
    type Fact = MonoFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn transfer(&mut self, _slot: u32, instr: Instr<'_>, env: &FactEnv<'_, MonoFact>) -> MonoFact {
        match instr {
            Instr::Const(_) => self.constant_fact(),
            Instr::Sym(i) => {
                let mut fact = self.constant_fact();
                if let Some(m) = fact.per_sym.get_mut(i as usize) {
                    *m = Mono::Increasing;
                }
                fact
            }
            Instr::Add(ops) | Instr::Min(ops) | Instr::Max(ops) => self.fold_join(ops, env),
            Instr::Mul(ops) => {
                let mut acc = self.constant_fact();
                let mut acc_v = AbstractValue::constant(1.0);
                for &op in ops {
                    let f = env.fact(op);
                    let v = self.values[op as usize];
                    for (s, m) in acc.per_sym.iter_mut().enumerate() {
                        *m = mul_mono(*m, acc_v, Self::at(f, s), v);
                    }
                    acc_v = mul_pair(acc_v, v);
                }
                acc
            }
            Instr::Div(a, b) => self.div_fact(a, b, env),
            Instr::Floor(a) | Instr::Ceil(a) => {
                let f = env.fact(a);
                if f.per_sym.is_empty() {
                    self.constant_fact()
                } else {
                    f.clone()
                }
            }
            Instr::Cmp(op, a, b) => self.cmp_fact(op, a, b, env),
            Instr::Select(c, a, b) => self.transfer_select(c, a, b, env),
            // Superinstructions transfer exactly like the op pairs
            // they fuse (see `mist_symbolic::fuse_superinstructions`):
            // the fused intermediate's fact is recomputed inline.
            Instr::MulAdd(a, b, c) => {
                let mut acc = self.constant_fact();
                let mut acc_v = AbstractValue::constant(1.0);
                for &op in &[a, b] {
                    let f = env.fact(op);
                    let v = self.values[op as usize];
                    for (s, m) in acc.per_sym.iter_mut().enumerate() {
                        *m = mul_mono(*m, acc_v, Self::at(f, s), v);
                    }
                    acc_v = mul_pair(acc_v, v);
                }
                let fc = env.fact(c);
                for (s, m) in acc.per_sym.iter_mut().enumerate() {
                    *m = m.join(Self::at(fc, s));
                }
                acc
            }
            Instr::SelectCmp(op, a, b, t, e) => {
                let fc = self.cmp_fact(op, a, b, env);
                let vc = cmp_interval(op, self.values[a as usize], self.values[b as usize]);
                self.select_with_guard(vc, &fc, t, e, env)
            }
            // Floor/ceil are non-decreasing, so they pass the
            // quotient's verdict through unchanged.
            Instr::DivFloor(a, b) | Instr::DivCeil(a, b) => self.div_fact(a, b, env),
        }
    }
}

/// The interval of a comparison indicator derived from its operand
/// intervals alone: `{0, 1}` unless the intervals decide the outcome.
/// Weaker than the interval analysis' own `Cmp` transfer (which may
/// also use relational facts), but sound — an undecided guard only
/// costs precision, never direction.
fn cmp_interval(op: CmpOp, va: AbstractValue, vb: AbstractValue) -> AbstractValue {
    let decided = if va.may_nonfinite || vb.may_nonfinite {
        None
    } else {
        match op {
            CmpOp::Le if va.hi <= vb.lo => Some(true),
            CmpOp::Le if va.lo > vb.hi => Some(false),
            CmpOp::Lt if va.hi < vb.lo => Some(true),
            CmpOp::Lt if va.lo >= vb.hi => Some(false),
            CmpOp::Ge if va.lo >= vb.hi => Some(true),
            CmpOp::Ge if va.hi < vb.lo => Some(false),
            CmpOp::Gt if va.lo > vb.hi => Some(true),
            CmpOp::Gt if va.hi <= vb.lo => Some(false),
            CmpOp::Eq if va.lo == va.hi && vb.lo == vb.hi && va.lo == vb.lo => Some(true),
            CmpOp::Eq if va.hi < vb.lo || va.lo > vb.hi => Some(false),
            _ => None,
        }
    };
    match decided {
        Some(true) => AbstractValue::constant(1.0),
        Some(false) => AbstractValue::constant(0.0),
        None => AbstractValue::bounded(0.0, 1.0, true, false),
    }
}

/// Per-root monotonicity verdicts, one per symbol.
#[derive(Debug, Clone, PartialEq)]
pub struct RootMono {
    /// The root's label, as compiled.
    pub label: String,
    /// One verdict per symbol, in [`MonoReport::symbols`] order.
    pub per_symbol: Vec<Mono>,
}

/// The result of [`monotonicity`]: every root's sensitivity sign with
/// respect to every symbol the program reads.
#[derive(Debug, Clone, PartialEq)]
pub struct MonoReport {
    /// Symbol names in table order; indexes [`RootMono::per_symbol`].
    pub symbols: Vec<String>,
    /// One entry per root, in root order.
    pub roots: Vec<RootMono>,
}

impl MonoReport {
    /// The verdicts for the root labelled `label`, if present.
    pub fn root(&self, label: &str) -> Option<&RootMono> {
        self.roots.iter().find(|r| r.label == label)
    }

    /// The verdict for `(root, symbol)`. A symbol the program never
    /// reads is `Constant` (the root trivially does not depend on
    /// it); a missing root is `Unknown`.
    pub fn verdict(&self, root: &str, symbol: &str) -> Mono {
        let Some(r) = self.root(root) else {
            return Mono::Unknown;
        };
        match self.symbols.iter().position(|s| s == symbol) {
            Some(i) => r.per_symbol[i],
            None => Mono::Constant,
        }
    }
}

/// Runs the monotonicity analysis for `program` over `domains`.
///
/// The interval analysis runs first (its final facts supply the sign
/// and branch-ordering side conditions); interval *errors* — a
/// reachable division by zero, say — poison every verdict to
/// [`Mono::Unknown`] rather than reason about a program whose
/// evaluation may fault.
pub fn monotonicity(program: &Program, domains: &DomainMap) -> MonoReport {
    let symbols = program.symbols().names().to_vec();
    let outcome = interval::analyze(program, domains);
    let roots = if outcome.diags.iter().any(|d| d.severity == Severity::Error) {
        program
            .root_labels()
            .iter()
            .map(|label| RootMono {
                label: label.clone(),
                per_symbol: vec![Mono::Unknown; symbols.len()],
            })
            .collect()
    } else {
        let mut analysis = MonoAnalysis {
            values: &outcome.values,
            nsyms: symbols.len(),
        };
        let facts = framework::fixpoint(program, &mut analysis);
        program
            .root_labels()
            .iter()
            .zip(program.root_slots())
            .map(|(label, &slot)| {
                let fact = &facts[slot as usize];
                let per_symbol = if fact.per_sym.is_empty() {
                    vec![Mono::Unknown; symbols.len()]
                } else {
                    fact.per_sym.clone()
                };
                RootMono {
                    label: label.clone(),
                    per_symbol,
                }
            })
            .collect()
    };
    MonoReport { symbols, roots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::SymbolDomain;
    use mist_symbolic::Context;

    fn domains_xy() -> DomainMap {
        DomainMap::new()
            .declare("x", SymbolDomain::new(0.0, 10.0, false))
            .declare("y", SymbolDomain::new(1.0, 4.0, false))
    }

    #[test]
    fn sums_and_differences_carry_signs() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let program = ctx.compile_program(&[("sum", x + 2.0 * y), ("diff", x - y)]);
        let report = monotonicity(&program, &domains_xy());
        assert_eq!(report.verdict("sum", "x"), Mono::Increasing);
        assert_eq!(report.verdict("sum", "y"), Mono::Increasing);
        assert_eq!(report.verdict("diff", "x"), Mono::Increasing);
        assert_eq!(report.verdict("diff", "y"), Mono::Decreasing);
        // A symbol the program never reads is trivially constant.
        assert_eq!(report.verdict("sum", "unread"), Mono::Constant);
    }

    #[test]
    fn products_and_quotients_use_interval_signs() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let program = ctx.compile_program(&[
            ("scaled", x * (-3.0)),
            ("prod", x * y),
            ("quot", x / y),
            ("inv", 1.0 / y),
        ]);
        let report = monotonicity(&program, &domains_xy());
        assert_eq!(report.verdict("scaled", "x"), Mono::Decreasing);
        // Both factors non-negative and increasing in their own symbol.
        assert_eq!(report.verdict("prod", "x"), Mono::Increasing);
        assert_eq!(report.verdict("prod", "y"), Mono::Increasing);
        assert_eq!(report.verdict("quot", "x"), Mono::Increasing);
        assert_eq!(report.verdict("quot", "y"), Mono::Decreasing);
        assert_eq!(report.verdict("inv", "y"), Mono::Decreasing);
    }

    #[test]
    fn mixed_sign_sums_are_honest_about_rounding() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        // 0.5x - 0.7x is mathematically decreasing, but the two
        // rounded terms can locally reverse; no cancellation happens.
        let program = ctx.compile_program(&[("net", x * 0.5 - x * 0.7)]);
        let report = monotonicity(
            &program,
            &DomainMap::new().declare("x", SymbolDomain::new(0.0, 1e6, false)),
        );
        assert_eq!(report.verdict("net", "x"), Mono::Unknown);
    }

    #[test]
    fn directional_select_needs_ordered_branches() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let hi = ctx.symbol("hi");
        let lo = ctx.symbol("lo");
        let domains = DomainMap::new()
            .declare("x", SymbolDomain::new(0.0, 1.0, true))
            .declare("y", SymbolDomain::new(0.0, 8.0, false))
            .declare("hi", SymbolDomain::new(5.0, 6.0, false))
            .declare("lo", SymbolDomain::new(1.0, 2.0, false));
        let program = ctx.compile_program(&[
            // Guard x in [0, 1], increasing in x; branches ordered.
            ("step_up", ctx.select(x, hi, lo)),
            ("step_down", ctx.select(x, lo, hi)),
            // Branches overlap ([5, 6] vs [0, 8]): no ordering, no verdict.
            ("tangled", ctx.select(x, hi, y)),
            // Guard constant in y: the chooser never moves with y.
            ("joined", ctx.select(x, y, y * 2.0)),
        ]);
        let report = monotonicity(&program, &domains);
        assert_eq!(report.verdict("step_up", "x"), Mono::Increasing);
        assert_eq!(report.verdict("step_down", "x"), Mono::Decreasing);
        assert_eq!(report.verdict("tangled", "x"), Mono::Unknown);
        assert_eq!(report.verdict("joined", "y"), Mono::Increasing);
        assert_eq!(report.verdict("joined", "x"), Mono::Unknown);
    }

    #[test]
    fn comparisons_are_directional_indicators() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let program = ctx.compile_program(&[("le", ctx.cmp(CmpOp::Le, x, y))]);
        let report = monotonicity(&program, &domains_xy());
        // [x <= y] falls as x rises and rises as y rises.
        assert_eq!(report.verdict("le", "x"), Mono::Decreasing);
        assert_eq!(report.verdict("le", "y"), Mono::Increasing);
    }

    #[test]
    fn interval_errors_poison_all_verdicts() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let program = ctx.compile_program(&[("q", x / y)]);
        let domains = DomainMap::new()
            .declare("x", SymbolDomain::new(0.0, 1.0, false))
            .declare("y", SymbolDomain::new(-1.0, 1.0, false));
        let report = monotonicity(&program, &domains);
        assert_eq!(report.verdict("q", "x"), Mono::Unknown);
        assert_eq!(report.verdict("q", "y"), Mono::Unknown);
    }
}
