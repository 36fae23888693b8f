//! Interval-analysis soundness: for random expression DAGs over random
//! sample points, (1) the proven root bounds must contain every finite
//! `eval_scalar` result, and (2) a program the linter passes as
//! division-safe (`may_nonfinite == false` at the root) must never
//! produce NaN or infinity on any sampled point.

use mist_irlint::{lint_program, DomainMap, SymbolDomain, UnitRegistry};
use mist_symbolic::{CmpOp, Context, Expr};
use proptest::prelude::*;

/// The fixed symbol universe: name, domain, integral sampling.
const SYMS: [(&str, f64, f64, bool); 4] = [
    ("a", 0.0, 10.0, true),
    ("b", -5.0, 5.0, false),
    ("c", 1.0, 8.0, true),
    ("d", 0.25, 4.0, false),
];

/// A generation recipe for one expression tree.
#[derive(Debug, Clone)]
enum Spec {
    Sym(usize),
    Const(f64),
    Add(Vec<Spec>),
    Mul(Box<Spec>, Box<Spec>),
    Min(Box<Spec>, Box<Spec>),
    Max(Box<Spec>, Box<Spec>),
    Div(Box<Spec>, Box<Spec>),
    Floor(Box<Spec>),
    Ceil(Box<Spec>),
    Cmp(usize, Box<Spec>, Box<Spec>),
    Select(Box<Spec>, Box<Spec>, Box<Spec>),
}

const CMP_OPS: [CmpOp; 4] = [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt];

fn build<'c>(ctx: &'c Context, spec: &Spec) -> Expr<'c> {
    match spec {
        Spec::Sym(i) => ctx.symbol(SYMS[*i].0),
        Spec::Const(c) => ctx.constant(*c),
        Spec::Add(parts) => {
            let mut it = parts.iter().map(|p| build(ctx, p));
            let first = it.next().expect("non-empty add");
            it.fold(first, |acc, x| acc + x)
        }
        Spec::Mul(a, b) => build(ctx, a) * build(ctx, b),
        Spec::Min(a, b) => build(ctx, a).min(build(ctx, b)),
        Spec::Max(a, b) => build(ctx, a).max(build(ctx, b)),
        Spec::Div(a, b) => build(ctx, a) / build(ctx, b),
        Spec::Floor(a) => build(ctx, a).floor(),
        Spec::Ceil(a) => build(ctx, a).ceil(),
        Spec::Cmp(op, a, b) => ctx.cmp(CMP_OPS[*op], build(ctx, a), build(ctx, b)),
        Spec::Select(c, a, b) => ctx.select(build(ctx, c), build(ctx, a), build(ctx, b)),
    }
}

fn spec_strategy() -> BoxedStrategy<Spec> {
    let leaf = prop_oneof![
        (0usize..SYMS.len()).prop_map(Spec::Sym),
        prop::sample::select(vec![-2.0, -0.5, 0.0, 0.5, 1.0, 3.0, 64.0]).prop_map(Spec::Const),
    ]
    .boxed();
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Spec::Add),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Spec::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Spec::Min(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Spec::Max(Box::new(a), Box::new(b))),
            // Divisors are symbols: the expression builder rejects
            // constant `x / 0` at build time, while `a` and `b` still
            // contain 0 in their domains, so division-by-zero analysis
            // stays exercised.
            (inner.clone(), 0usize..SYMS.len())
                .prop_map(|(a, s)| Spec::Div(Box::new(a), Box::new(Spec::Sym(s)))),
            inner.clone().prop_map(|a| Spec::Floor(Box::new(a))),
            inner.clone().prop_map(|a| Spec::Ceil(Box::new(a))),
            (0usize..CMP_OPS.len(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Spec::Cmp(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, a, b)| Spec::Select(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

/// Maps a unit-cube fraction to a point in symbol `i`'s domain,
/// honoring integrality.
fn domain_value(i: usize, f: f64) -> f64 {
    let (_, lo, hi, integral) = SYMS[i];
    if integral {
        (lo + (f * (hi - lo + 1.0)).floor()).min(hi)
    } else {
        lo + f * (hi - lo)
    }
}

/// Maps a unit-cube fraction to a point in each symbol's domain.
fn sample_point(fractions: &[f64; 4]) -> [f64; 4] {
    let mut point = [0.0; 4];
    for i in 0..SYMS.len() {
        point[i] = domain_value(i, fractions[i]);
    }
    point
}

fn all_domains() -> DomainMap {
    let mut domains = DomainMap::new();
    for &(name, lo, hi, integral) in &SYMS {
        domains = domains.declare(name, SymbolDomain::new(lo, hi, integral));
    }
    domains
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interval_bounds_contain_sampled_evaluations(
        spec in spec_strategy(),
        fracs in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 16),
    ) {
        let ctx = Context::new();
        let expr = build(&ctx, &spec);
        let program = ctx.compile_program(&[("root", expr)]);

        let domains = all_domains();
        let report = lint_program(&program, &UnitRegistry::new(), &domains, "prop");
        let bounds = &report.root_bounds[0];

        let names = program.symbols().names().to_vec();
        for fr in &fracs {
            let point = sample_point(&[fr.0, fr.1, fr.2, fr.3]);
            let inputs: Vec<f64> = names
                .iter()
                .map(|n| {
                    let i = SYMS.iter().position(|s| s.0 == n).expect("known symbol");
                    point[i]
                })
                .collect();
            match program.eval_scalar_root(0, &inputs) {
                Ok(v) => {
                    prop_assert!(
                        bounds.lo <= v && v <= bounds.hi,
                        "value {v} escapes proven bounds [{}, {}] at {point:?}",
                        bounds.lo,
                        bounds.hi
                    );
                }
                Err(_) => {
                    // A non-finite evaluation must have been anticipated:
                    // programs the linter passes as division-safe never
                    // produce NaN/Inf.
                    prop_assert!(
                        bounds.may_nonfinite,
                        "linter claimed division-safety but evaluation was \
                         non-finite at {point:?}"
                    );
                }
            }
        }
    }
}
