//! Batch bindings: the per-row symbol columns of one batched evaluation.
//!
//! Batched evaluation is the core of Mist's "single symbolic pass, many
//! value substitutions" idea: symbols are bound to *columns* (or to one
//! broadcast scalar) and every instruction processes the whole batch.

use std::collections::HashMap;

/// A bound column in a batched evaluation.
#[derive(Debug, Clone)]
pub enum Column {
    /// The symbol has the same value in every row (broadcast).
    Scalar(f64),
    /// One value per row.
    Values(Vec<f64>),
}

/// Symbol bindings for [`CompiledProgram::eval_batch`](crate::CompiledProgram::eval_batch).
///
/// # Example
///
/// ```
/// use mist_symbolic::{BatchBindings, CompiledProgram, CompiledWorkspace, Context};
///
/// let ctx = Context::new();
/// let b = ctx.symbol("b");
/// let tp = ctx.symbol("tp");
/// let program = CompiledProgram::compile(&ctx.compile_program(&[("bytes", b * 100.0 / tp)]));
///
/// let mut batch = BatchBindings::new(3);
/// batch.set_values("b", vec![1.0, 2.0, 4.0]);
/// batch.set_scalar("tp", 2.0);
/// let mut ws = CompiledWorkspace::new();
/// program.eval_batch(&batch, &mut ws).unwrap();
/// assert_eq!(ws.output(0), &[50.0, 100.0, 200.0]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchBindings {
    len: usize,
    columns: HashMap<String, Column>,
}

impl BatchBindings {
    /// Creates bindings for a batch of `len` rows.
    pub fn new(len: usize) -> Self {
        BatchBindings {
            len,
            columns: HashMap::new(),
        }
    }

    /// Batch length (number of rows).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Binds a symbol to a per-row column of values.
    pub fn set_values(&mut self, name: &str, values: Vec<f64>) -> &mut Self {
        self.columns.insert(name.to_owned(), Column::Values(values));
        self
    }

    /// Binds a symbol to a broadcast scalar.
    pub fn set_scalar(&mut self, name: &str, value: f64) -> &mut Self {
        self.columns.insert(name.to_owned(), Column::Scalar(value));
        self
    }

    /// The column bound to `name`, if any.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Op;
    use crate::{CompiledProgram, CompiledWorkspace, Context, Expr, SymbolicError};

    /// Compiles `e` alone and evaluates it over `batch`.
    fn eval_batch(e: Expr<'_>, batch: &BatchBindings) -> Result<Vec<f64>, SymbolicError> {
        let compiled = CompiledProgram::compile(&e.context().compile_program(&[("e", e)]));
        let mut ws = CompiledWorkspace::new();
        compiled.eval_batch(batch, &mut ws)?;
        Ok(ws.take_output(0))
    }

    #[test]
    fn scalar_and_batch_agree() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let e = (x * y + 3.0).max(x / y).min(ctx.constant(1e9));

        let xs = [1.0, 2.5, 7.0, 0.0];
        let ys = [2.0, 0.5, 3.0, 1.0];
        let mut batch = BatchBindings::new(xs.len());
        batch.set_values("x", xs.to_vec());
        batch.set_values("y", ys.to_vec());
        let got = eval_batch(e, &batch).unwrap();
        for i in 0..xs.len() {
            let want = ctx.eval(e, &[("x", xs[i]), ("y", ys[i])]).unwrap();
            assert_eq!(got[i].to_bits(), want.to_bits(), "row {i}");
        }
    }

    #[test]
    fn batch_nonfinite_rows_become_infinity() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let mut batch = BatchBindings::new(2);
        batch.set_values("x", vec![0.0, 2.0]);
        let got = eval_batch(1.0 / x, &batch).unwrap();
        assert_eq!(got[0], f64::INFINITY);
        assert_eq!(got[1], 0.5);
    }

    #[test]
    fn batch_length_mismatch_is_rejected() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let mut batch = BatchBindings::new(3);
        batch.set_values("x", vec![1.0, 2.0]);
        assert!(matches!(
            eval_batch(x + 1.0, &batch),
            Err(SymbolicError::BatchLengthMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn missing_column_is_rejected() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let batch = BatchBindings::new(1);
        assert!(matches!(
            eval_batch(x + 1.0, &batch),
            Err(SymbolicError::UnboundSymbol(_))
        ));
    }

    #[test]
    fn shared_subexpression_computed_once() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let shared = (x + 1.0) * (x + 2.0);
        let e = shared.max(shared * 2.0);
        let program = ctx.compile_program(&[("e", e)]);
        // x, 1, x+1, 2, x+2, mul, 2(shared const), mul2, max — the shared
        // product must not be duplicated.
        let muls = program
            .ops()
            .iter()
            .filter(|op| matches!(op, Op::Mul { .. }))
            .count();
        assert_eq!(muls, 2, "shared product duplicated");
    }

    #[test]
    fn constant_tape_is_detected() {
        let ctx = Context::new();
        let k = ctx.compile_program(&[("k", ctx.constant(2.0) * 21.0)]);
        assert!(k.symbols().is_empty());
        assert!(
            !k.is_empty(),
            "compiled programs always hold the root instr"
        );
        assert_eq!(k.eval_scalar_root(0, &[]).unwrap(), 42.0);

        let x = ctx.symbol("x");
        assert!(!ctx.compile_program(&[("t", x + 1.0)]).symbols().is_empty());
    }

    #[test]
    fn scalar_binding_resolution_is_strict() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let e = x * 10.0 + y;
        // A binding that names no symbol is a caller bug, not a no-op.
        assert!(matches!(
            ctx.eval(e, &[("unused", 9.0), ("x", 2.0), ("y", 5.0)]),
            Err(SymbolicError::UnknownBinding(name)) if name == "unused"
        ));
        // Agreeing duplicates are fine; conflicting ones are an error.
        let got = ctx.eval(e, &[("x", 2.0), ("y", 5.0), ("x", 2.0)]).unwrap();
        assert_eq!(got, 25.0);
        assert!(matches!(
            ctx.eval(e, &[("x", 2.0), ("y", 5.0), ("x", 7.0)]),
            Err(SymbolicError::ConflictingBinding { ref name, first, second })
                if name == "x" && first == 2.0 && second == 7.0
        ));
        assert!(matches!(
            ctx.eval(e, &[("x", 1.0)]),
            Err(SymbolicError::UnboundSymbol(name)) if name == "y"
        ));
    }

    #[test]
    fn select_in_batch() {
        let ctx = Context::new();
        let z = ctx.symbol("zero_level");
        let cond = ctx.cmp(crate::CmpOp::Ge, z, ctx.constant(2.0));
        let e = ctx.select(cond, ctx.constant(10.0), ctx.constant(20.0));
        let mut batch = BatchBindings::new(4);
        batch.set_values("zero_level", vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(eval_batch(e, &batch).unwrap(), vec![20.0, 20.0, 10.0, 10.0]);
    }
}
