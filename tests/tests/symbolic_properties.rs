//! Property-based tests of the symbolic engine's core invariants.

use mist_symbolic::{
    BatchBindings, CmpOp, CompiledProgram, CompiledWorkspace, Context, Expr, Program, SymbolicError,
};
use proptest::prelude::*;

/// `expr` compiled alone, as a one-root program.
fn alone(expr: Expr<'_>) -> Program {
    expr.context().compile_program(&[("alone", expr)])
}

/// Evaluates root 0 binding only the symbols the program actually
/// reads: `resolve_scalars` is strict and rejects bindings that match
/// no symbol, but generated expressions may collapse away `x` or `y`
/// entirely.
fn eval_filtered(program: &Program, bindings: &[(&str, f64)]) -> Result<f64, SymbolicError> {
    let filtered: Vec<(&str, f64)> = bindings
        .iter()
        .copied()
        .filter(|(n, _)| program.symbols().index_of(n).is_some())
        .collect();
    let inputs = program.symbols().resolve_scalars(&filtered)?;
    program.eval_scalar_root(0, &inputs)
}

/// Every root's output column from the compiled form of `program`.
fn compiled_outputs(program: &Program, batch: &BatchBindings) -> Vec<Vec<f64>> {
    let compiled = CompiledProgram::compile(program);
    let mut ws = CompiledWorkspace::new();
    compiled.eval_batch(batch, &mut ws).unwrap();
    (0..program.num_roots())
        .map(|i| ws.output(i).to_vec())
        .collect()
}

/// A tiny expression AST we can generate and mirror both symbolically and
/// concretely.
#[derive(Debug, Clone)]
enum E {
    X,
    Y,
    K(f64),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Min(Box<E>, Box<E>),
    Max(Box<E>, Box<E>),
    Ceil(Box<E>),
    Select(Box<E>, Box<E>, Box<E>),
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::X),
        Just(E::Y),
        (-100i32..100).prop_map(|k| E::K(k as f64 / 4.0)),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Min(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Max(a.into(), b.into())),
            inner.clone().prop_map(|a| E::Ceil(a.into())),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| E::Select(
                c.into(),
                a.into(),
                b.into()
            )),
        ]
    })
}

fn build<'c>(e: &E, ctx: &'c Context) -> mist_symbolic::Expr<'c> {
    match e {
        E::X => ctx.symbol("x"),
        E::Y => ctx.symbol("y"),
        E::K(k) => ctx.constant(*k),
        E::Add(a, b) => build(a, ctx) + build(b, ctx),
        E::Sub(a, b) => build(a, ctx) - build(b, ctx),
        E::Mul(a, b) => build(a, ctx) * build(b, ctx),
        E::Div(a, b) => build(a, ctx) / build(b, ctx),
        E::Min(a, b) => build(a, ctx).min(build(b, ctx)),
        E::Max(a, b) => build(a, ctx).max(build(b, ctx)),
        E::Ceil(a) => build(a, ctx).ceil(),
        E::Select(c, a, b) => {
            let cond = ctx.cmp(CmpOp::Gt, build(c, ctx), ctx.constant(0.0));
            ctx.select(cond, build(a, ctx), build(b, ctx))
        }
    }
}

fn reference(e: &E, x: f64, y: f64) -> f64 {
    match e {
        E::X => x,
        E::Y => y,
        E::K(k) => *k,
        E::Add(a, b) => reference(a, x, y) + reference(b, x, y),
        E::Sub(a, b) => reference(a, x, y) - reference(b, x, y),
        E::Mul(a, b) => reference(a, x, y) * reference(b, x, y),
        E::Div(a, b) => reference(a, x, y) / reference(b, x, y),
        E::Min(a, b) => reference(a, x, y).min(reference(b, x, y)),
        E::Max(a, b) => reference(a, x, y).max(reference(b, x, y)),
        E::Ceil(a) => reference(a, x, y).ceil(),
        E::Select(c, a, b) => {
            if reference(c, x, y) > 0.0 {
                reference(a, x, y)
            } else {
                reference(b, x, y)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The simplifying builders + compiled program agree with a direct
    /// reference interpreter.
    #[test]
    fn tape_matches_reference(
        e in arb_expr(),
        x in -8.0f64..8.0,
        y in -8.0f64..8.0,
    ) {
        let ctx = Context::new();
        let expr = build(&e, &ctx);
        let got = eval_filtered(&alone(expr), &[("x", x), ("y", y)]).unwrap();
        let want = reference(&e, x, y);
        // Symbolic simplification may reassociate sums/products, so allow
        // an fp tolerance proportional to magnitude.
        let tol = 1e-9 * (1.0 + want.abs());
        prop_assert!((got - want).abs() <= tol, "got {got}, want {want}");
    }

    /// Compiled batched evaluation equals scalar evaluation row by row,
    /// bit for bit.
    #[test]
    fn batch_rows_match_scalar(
        e in arb_expr(),
        xs in prop::collection::vec(-8.0f64..8.0, 1..20),
    ) {
        let ctx = Context::new();
        let expr = build(&e, &ctx);
        let program = alone(expr);
        let ys: Vec<f64> = xs.iter().map(|v| v * 0.5 + 1.0).collect();
        let mut batch = BatchBindings::new(xs.len());
        batch.set_values("x", xs.clone());
        batch.set_values("y", ys.clone());
        let out = &compiled_outputs(&program, &batch)[0];
        for (i, o) in out.iter().enumerate() {
            let scalar = eval_filtered(&program, &[("x", xs[i]), ("y", ys[i])]).unwrap();
            prop_assert!(o.to_bits() == scalar.to_bits(), "row {i}: {o} vs {scalar}");
        }
    }

    /// Hash-consing: building the same expression twice allocates no new
    /// nodes.
    #[test]
    fn interning_is_idempotent(e in arb_expr()) {
        let ctx = Context::new();
        let e1 = build(&e, &ctx);
        let n = ctx.node_count();
        let e2 = build(&e, &ctx);
        prop_assert_eq!(e1.id(), e2.id());
        prop_assert_eq!(ctx.node_count(), n);
    }
}

/// Like [`arb_expr`] but with division, so random DAGs can produce
/// non-finite rows (mapped to `INFINITY` in batched evaluation).
fn arb_expr_div() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::X),
        Just(E::Y),
        (-100i32..100).prop_map(|k| E::K(k as f64 / 4.0)),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Div(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Min(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Max(a.into(), b.into())),
            inner.clone().prop_map(|a| E::Ceil(a.into())),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| E::Select(
                c.into(),
                a.into(),
                b.into()
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A fused multi-root program's compiled outputs are exactly — bit
    /// for bit — each root compiled alone, with cross-root CSE, register
    /// reuse, mixed scalar/column bindings and non-finite rows in play.
    #[test]
    fn fused_program_matches_tapes_batched(
        roots in prop::collection::vec(arb_expr_div(), 1..6),
        xs in prop::collection::vec(-8.0f64..8.0, 1..16),
        y in -8.0f64..8.0,
        y_is_scalar in prop::sample::select(vec![true, false]),
    ) {
        let ctx = Context::new();
        let exprs: Vec<_> = roots.iter().map(|e| build(e, &ctx)).collect();
        let labels: Vec<String> = (0..exprs.len()).map(|i| format!("r{i}")).collect();
        let labeled: Vec<(&str, _)> = labels
            .iter()
            .map(|l| l.as_str())
            .zip(exprs.iter().copied())
            .collect();
        let program = ctx.compile_program(&labeled);

        let n = xs.len();
        let mut batch = BatchBindings::new(n);
        batch.set_values("x", xs.clone());
        if y_is_scalar {
            batch.set_scalar("y", y);
        } else {
            batch.set_values("y", xs.iter().map(|v| v * 0.5 + y).collect());
        }

        let fused = compiled_outputs(&program, &batch);
        for (i, &expr) in exprs.iter().enumerate() {
            let want = &compiled_outputs(&alone(expr), &batch)[0];
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert!(
                bits(&fused[i]) == bits(want),
                "root {i}: fused {:?} vs alone {:?}",
                fused[i],
                want
            );
        }
    }

    /// Scalar evaluation through the fused program agrees with each root
    /// compiled alone — same values bit for bit, and errors (non-finite
    /// results) on exactly the same roots.
    #[test]
    fn fused_program_matches_tapes_scalar(
        roots in prop::collection::vec(arb_expr_div(), 1..5),
        x in -8.0f64..8.0,
        y in -8.0f64..8.0,
    ) {
        let ctx = Context::new();
        let exprs: Vec<_> = roots.iter().map(|e| build(e, &ctx)).collect();
        let labels: Vec<String> = (0..exprs.len()).map(|i| format!("r{i}")).collect();
        let labeled: Vec<(&str, _)> = labels
            .iter()
            .map(|l| l.as_str())
            .zip(exprs.iter().copied())
            .collect();
        let program = ctx.compile_program(&labeled);
        let fused_bindings: Vec<(&str, f64)> = [("x", x), ("y", y)]
            .into_iter()
            .filter(|(n, _)| program.symbols().index_of(n).is_some())
            .collect();
        let inputs = program.symbols().resolve_scalars(&fused_bindings).unwrap();

        for (i, &expr) in exprs.iter().enumerate() {
            match (
                program.eval_scalar_root(i, &inputs),
                eval_filtered(&alone(expr), &[("x", x), ("y", y)]),
            ) {
                (Ok(a), Ok(b)) => prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "root {i}: fused {a} vs alone {b}"
                ),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "root {i}: fused {a:?} vs alone {b:?}"),
            }
        }
    }
}

/// Deterministic check that rows dividing by zero map to `INFINITY` in
/// both the fused program and the root compiled alone, at matching rows.
#[test]
fn nonfinite_rows_map_to_infinity_in_fused_and_tape() {
    let ctx = Context::new();
    let x = ctx.symbol("x");
    let r0 = ctx.constant(1.0) / (x - 2.0);
    let r1 = x + 1.0;
    let program = ctx.compile_program(&[("r0", r0), ("r1", r1)]);

    let mut batch = BatchBindings::new(3);
    batch.set_values("x", vec![1.0, 2.0, 3.0]);
    let fused = compiled_outputs(&program, &batch);

    assert_eq!(fused[0], &[1.0 / -1.0, f64::INFINITY, 1.0]);
    assert_eq!(fused[1], &[2.0, 3.0, 4.0]);
    assert_eq!(compiled_outputs(&alone(r0), &batch)[0], fused[0]);
}

/// Register-reuse stress: a long alternating chain forces many short-lived
/// intermediates through a small register pool; outputs must still match
/// the root compiled alone and the scalar reference bit for bit.
#[test]
fn register_reuse_stress_chain_matches_tape() {
    let ctx = Context::new();
    let x = ctx.symbol("x");
    let y = ctx.symbol("y");
    let mut e = x;
    for i in 1..=64 {
        let k = i as f64;
        e = (e * (y + k)).max(e - k).min(ctx.constant(1e12)) + x / k;
    }
    let program = ctx.compile_program(&[("chain", e), ("aux", e * 2.0 + y)]);
    assert!(
        CompiledProgram::compile(&program).num_regs() < program.len(),
        "chain must not need one register per slot"
    );

    let n = 64;
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 4.0).collect();
    let ys: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let mut batch = BatchBindings::new(n);
    batch.set_values("x", xs.clone());
    batch.set_values("y", ys.clone());
    let fused = compiled_outputs(&program, &batch);
    assert_eq!(fused[0], compiled_outputs(&alone(e), &batch)[0]);
    for row in 0..n {
        let want = eval_filtered(&alone(e), &[("x", xs[row]), ("y", ys[row])]).unwrap();
        assert_eq!(fused[0][row].to_bits(), want.to_bits(), "row {row}");
    }
}
