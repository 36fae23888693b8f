//! Fused multi-root SSA programs and their scalar reference evaluator.
//!
//! A [`Program`] compiles *many* expression roots from one [`Context`]
//! into a single SSA instruction stream:
//!
//! * hash-consing means structurally equal sub-expressions across all
//!   roots land in the same SSA slot and are computed exactly once
//!   (cross-root CSE);
//! * variadic operands live in one flat arena (`Vec<u32>` plus
//!   `(start, len)` ranges) rather than a heap `Vec` per instruction;
//! * symbols are interned in a [`SymbolTable`], so bindings resolve to
//!   input slots once per evaluation.
//!
//! [`Program::eval_scalar`] is the reference semantics: it evaluates one
//! point op by op, folding n-ary operands from the first operand in
//! operand order. Batches run through
//! [`CompiledProgram`](crate::CompiledProgram), which is bit-identical to
//! it on every row whose result is finite and maps the rest to `+∞`.
//!
//! [`Context`]: crate::Context

use std::collections::HashMap;

use crate::error::SymbolicError;
use crate::node::{CmpOp, ExprId, Node, SymbolId};
use crate::tape::{BatchBindings, Column};

/// Interned symbol names with O(1) name→input-slot lookup.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl SymbolTable {
    /// Interns `name`, returning its input slot.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        i
    }

    /// Symbol names in input-slot order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no symbols are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Input slot of `name`, if interned.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).map(|&i| i as usize)
    }

    /// Resolves scalar `(name, value)` bindings into input-slot order in
    /// one pass over `bindings`.
    ///
    /// Every binding must name a symbol the program actually reads, and
    /// a symbol may be bound more than once only with the same value —
    /// a binding that silently went nowhere (or silently lost to an
    /// earlier conflicting one) is almost always a caller bug.
    ///
    /// # Errors
    ///
    /// [`SymbolicError::UnboundSymbol`] if any interned symbol has no
    /// binding; [`SymbolicError::UnknownBinding`] if a binding names a
    /// symbol that is not interned; [`SymbolicError::ConflictingBinding`]
    /// if a symbol is bound twice with different values.
    pub fn resolve_scalars(&self, bindings: &[(&str, f64)]) -> Result<Vec<f64>, SymbolicError> {
        let mut inputs = vec![f64::NAN; self.names.len()];
        let mut filled = vec![false; self.names.len()];
        let mut remaining = self.names.len();
        for (name, v) in bindings {
            let Some(&i) = self.index.get(*name) else {
                return Err(SymbolicError::UnknownBinding((*name).to_owned()));
            };
            let i = i as usize;
            if filled[i] {
                // Duplicate bindings are tolerated only when they agree
                // (NaN agreeing with NaN, so a repeat never conflicts
                // with itself).
                let same = inputs[i] == *v || (inputs[i].is_nan() && v.is_nan());
                if !same {
                    return Err(SymbolicError::ConflictingBinding {
                        name: (*name).to_owned(),
                        first: inputs[i],
                        second: *v,
                    });
                }
                continue;
            }
            filled[i] = true;
            remaining -= 1;
            inputs[i] = *v;
        }
        if remaining > 0 {
            let missing = self
                .names
                .iter()
                .zip(&filled)
                .find(|(_, done)| !**done)
                .map(|(name, _)| name.clone())
                .expect("remaining > 0 implies an unfilled slot");
            return Err(SymbolicError::UnboundSymbol(missing));
        }
        Ok(inputs)
    }

    /// Resolves batch bindings to columns in input-slot order, validating
    /// column lengths against the batch length.
    pub(crate) fn resolve_batch<'b>(
        &self,
        bindings: &'b BatchBindings,
    ) -> Result<Vec<&'b Column>, SymbolicError> {
        let n = bindings.len();
        let mut cols = Vec::with_capacity(self.names.len());
        for name in &self.names {
            let col = bindings
                .column(name)
                .ok_or_else(|| SymbolicError::UnboundSymbol(name.clone()))?;
            if let Column::Values(v) = col {
                if v.len() != n {
                    return Err(SymbolicError::BatchLengthMismatch {
                        expected: n,
                        got: v.len(),
                    });
                }
            }
            cols.push(col);
        }
        Ok(cols)
    }
}

/// One SSA instruction. Operands are *slot* indices (the instruction's
/// position in the stream); variadic operands live in the program's flat
/// arena as a `(start, len)` range.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Const(f64),
    /// Reads input slot `u32` of the [`SymbolTable`].
    Sym(u32),
    Add {
        start: u32,
        len: u32,
    },
    Mul {
        start: u32,
        len: u32,
    },
    Min {
        start: u32,
        len: u32,
    },
    Max {
        start: u32,
        len: u32,
    },
    Div(u32, u32),
    Floor(u32),
    Ceil(u32),
    Cmp(CmpOp, u32, u32),
    Select(u32, u32, u32),
    /// Fused `(a * b) + c` with *two* roundings — the peephole pass
    /// never emits hardware FMA, so results stay bit-identical to the
    /// unfused `Mul` + `Add` pair.
    MulAdd(u32, u32, u32),
    /// Fused `if cmp(a, b) { t } else { f }` (guarded select). Exact
    /// because `Cmp` only ever produces `1.0`/`0.0` and `Select` tests
    /// `!= 0.0`.
    SelectCmp(CmpOp, u32, u32, u32, u32),
    /// Fused `(a / b).floor()` (integer division pattern).
    DivFloor(u32, u32),
    /// Fused `(a / b).ceil()` (rounding-up division pattern).
    DivCeil(u32, u32),
}

/// A read-only view of one SSA instruction of a [`Program`], for
/// analysis passes (e.g. the `mist-irlint` static analyzer).
///
/// Scalar `u32` operands and the borrowed slices hold *slot* indices
/// into the instruction stream; [`Instr::Sym`] holds an input slot of
/// the program's [`SymbolTable`]. The variants mirror the evaluation
/// semantics documented on [`crate::Node`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr<'p> {
    /// A finite constant.
    Const(f64),
    /// Reads input slot `u32` of the symbol table.
    Sym(u32),
    /// N-ary sum over the operand slots.
    Add(&'p [u32]),
    /// N-ary product over the operand slots.
    Mul(&'p [u32]),
    /// N-ary minimum over the operand slots.
    Min(&'p [u32]),
    /// N-ary maximum over the operand slots.
    Max(&'p [u32]),
    /// `lhs / rhs`.
    Div(u32, u32),
    /// `floor(x)`.
    Floor(u32),
    /// `ceil(x)`.
    Ceil(u32),
    /// Comparison producing `1.0` / `0.0`.
    Cmp(CmpOp, u32, u32),
    /// `if cond != 0 { then } else { other }` as `Select(cond, then, other)`.
    Select(u32, u32, u32),
    /// Fused `(a * b) + c` as `MulAdd(a, b, c)`, rounded twice exactly
    /// like the separate `Mul` and `Add` (never a hardware FMA).
    MulAdd(u32, u32, u32),
    /// Fused `if cmp(a, b) { t } else { f }` as
    /// `SelectCmp(op, a, b, t, f)`.
    SelectCmp(CmpOp, u32, u32, u32, u32),
    /// Fused `(a / b).floor()` as `DivFloor(a, b)`.
    DivFloor(u32, u32),
    /// Fused `(a / b).ceil()` as `DivCeil(a, b)`.
    DivCeil(u32, u32),
}

impl Instr<'_> {
    /// Calls `f` for every operand slot, in evaluation order.
    pub fn for_each_operand(&self, mut f: impl FnMut(u32)) {
        match *self {
            Instr::Const(_) | Instr::Sym(_) => {}
            Instr::Add(v) | Instr::Mul(v) | Instr::Min(v) | Instr::Max(v) => {
                v.iter().copied().for_each(&mut f)
            }
            Instr::Div(a, b) | Instr::Cmp(_, a, b) => {
                f(a);
                f(b);
            }
            Instr::Floor(a) | Instr::Ceil(a) => f(a),
            Instr::Select(c, a, b) => {
                f(c);
                f(a);
                f(b);
            }
            Instr::MulAdd(a, b, c) => {
                f(a);
                f(b);
                f(c);
            }
            Instr::SelectCmp(_, a, b, t, e) => {
                f(a);
                f(b);
                f(t);
                f(e);
            }
            Instr::DivFloor(a, b) | Instr::DivCeil(a, b) => {
                f(a);
                f(b);
            }
        }
    }
}

/// A fused, immutable multi-root evaluation program.
///
/// Build one with [`Context::compile_program`](crate::Context::compile_program);
/// evaluate one point with [`Program::eval_scalar`], or lower it with
/// [`CompiledProgram::compile`](crate::CompiledProgram::compile) to
/// evaluate batches.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) ops: Vec<Op>,
    /// Flat operand arena for `Add`/`Mul`/`Min`/`Max` (slot indices).
    pub(crate) operands: Vec<u32>,
    pub(crate) table: SymbolTable,
    /// Output slot per root.
    pub(crate) roots: Vec<u32>,
    /// Human-readable root labels (for errors and lookup).
    pub(crate) labels: Vec<String>,
}

impl Program {
    /// Compiles `roots` against the arena (called by
    /// `Context::compile_program`).
    pub(crate) fn build(
        nodes: &[Node],
        symbol_names: &[String],
        roots: &[(&str, ExprId)],
    ) -> Program {
        assert!(!roots.is_empty(), "a program needs at least one root");

        let mut slot_of: HashMap<ExprId, u32> = HashMap::new();
        let mut sym_slot: HashMap<SymbolId, u32> = HashMap::new();
        let mut table = SymbolTable::default();
        let mut ops: Vec<Op> = Vec::new();
        let mut operands: Vec<u32> = Vec::new();

        // Iterative post-order DFS, shared across roots: a sub-expression
        // reached from a later root that was already emitted for an
        // earlier one reuses its slot (cross-root CSE).
        enum Frame {
            Visit(ExprId),
            Emit(ExprId),
        }
        for &(_, root) in roots {
            let mut stack = vec![Frame::Visit(root)];
            while let Some(frame) = stack.pop() {
                match frame {
                    Frame::Visit(id) => {
                        if slot_of.contains_key(&id) {
                            continue;
                        }
                        stack.push(Frame::Emit(id));
                        for child in nodes[id.0 as usize].children() {
                            stack.push(Frame::Visit(child));
                        }
                    }
                    Frame::Emit(id) => {
                        if slot_of.contains_key(&id) {
                            continue;
                        }
                        let s = |eid: ExprId| slot_of[&eid];
                        let fold = |v: &Vec<ExprId>, operands: &mut Vec<u32>| {
                            let start = operands.len() as u32;
                            operands.extend(v.iter().map(|e| s(*e)));
                            (start, v.len() as u32)
                        };
                        let op = match &nodes[id.0 as usize] {
                            Node::Const(c) => Op::Const(c.to_f64()),
                            Node::Sym(sid) => {
                                let slot = *sym_slot
                                    .entry(*sid)
                                    .or_insert_with(|| table.intern(&symbol_names[sid.0 as usize]));
                                Op::Sym(slot)
                            }
                            Node::Add(v) => {
                                let (start, len) = fold(v, &mut operands);
                                Op::Add { start, len }
                            }
                            Node::Mul(v) => {
                                let (start, len) = fold(v, &mut operands);
                                Op::Mul { start, len }
                            }
                            Node::Min(v) => {
                                let (start, len) = fold(v, &mut operands);
                                Op::Min { start, len }
                            }
                            Node::Max(v) => {
                                let (start, len) = fold(v, &mut operands);
                                Op::Max { start, len }
                            }
                            Node::Div(a, b) => Op::Div(s(*a), s(*b)),
                            Node::Floor(a) => Op::Floor(s(*a)),
                            Node::Ceil(a) => Op::Ceil(s(*a)),
                            Node::Cmp(op, a, b) => Op::Cmp(*op, s(*a), s(*b)),
                            Node::Select(c, a, b) => Op::Select(s(*c), s(*a), s(*b)),
                        };
                        slot_of.insert(id, ops.len() as u32);
                        ops.push(op);
                    }
                }
            }
        }

        let root_slots: Vec<u32> = roots.iter().map(|&(_, id)| slot_of[&id]).collect();
        let labels: Vec<String> = roots.iter().map(|&(name, _)| name.to_owned()).collect();

        mist_telemetry::gauge_max("symbolic.program.instrs", ops.len() as f64);
        Program {
            ops,
            operands,
            table,
            roots: root_slots,
            labels,
        }
    }

    /// The interned symbol table (names in input-slot order).
    pub fn symbols(&self) -> &SymbolTable {
        &self.table
    }

    /// Number of SSA instructions (a proxy for evaluation cost).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program has no instructions (never the case for
    /// compiled programs; provided for `len()` symmetry).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of roots.
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// Root labels, in root-index order.
    pub fn root_labels(&self) -> &[String] {
        &self.labels
    }

    /// Root index of the root labeled `name`.
    pub fn root_index(&self, name: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == name)
    }

    /// Output slot per root, in root-index order.
    pub fn root_slots(&self) -> &[u32] {
        &self.roots
    }

    /// Read-only view of the instruction at `slot` (analysis passes).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    pub fn instr(&self, slot: usize) -> Instr<'_> {
        let arena = |start: u32, len: u32| &self.operands[start as usize..(start + len) as usize];
        match self.ops[slot] {
            Op::Const(c) => Instr::Const(c),
            Op::Sym(s) => Instr::Sym(s),
            Op::Add { start, len } => Instr::Add(arena(start, len)),
            Op::Mul { start, len } => Instr::Mul(arena(start, len)),
            Op::Min { start, len } => Instr::Min(arena(start, len)),
            Op::Max { start, len } => Instr::Max(arena(start, len)),
            Op::Div(a, b) => Instr::Div(a, b),
            Op::Floor(a) => Instr::Floor(a),
            Op::Ceil(a) => Instr::Ceil(a),
            Op::Cmp(op, a, b) => Instr::Cmp(op, a, b),
            Op::Select(c, a, b) => Instr::Select(c, a, b),
            Op::MulAdd(a, b, c) => Instr::MulAdd(a, b, c),
            Op::SelectCmp(op, a, b, t, e) => Instr::SelectCmp(op, a, b, t, e),
            Op::DivFloor(a, b) => Instr::DivFloor(a, b),
            Op::DivCeil(a, b) => Instr::DivCeil(a, b),
        }
    }

    /// Iterates over every instruction in stream (slot) order.
    pub fn instrs(&self) -> impl ExactSizeIterator<Item = Instr<'_>> + '_ {
        (0..self.ops.len()).map(|i| self.instr(i))
    }

    /// Instruction stream (crate-internal introspection for tests).
    #[cfg(test)]
    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Evaluates every root at a single scalar point, appending one value
    /// per root to `out` (cleared first).
    ///
    /// `inputs[i]` binds symbol `self.symbols().names()[i]`. Unlike
    /// batched evaluation, which maps non-finite rows to `+∞`, a
    /// non-finite root is an error.
    ///
    /// # Errors
    ///
    /// [`SymbolicError::NonFinite`] naming the offending root.
    pub fn eval_scalar(&self, inputs: &[f64], out: &mut Vec<f64>) -> Result<(), SymbolicError> {
        let slots = self.scalar_slots(inputs);
        out.clear();
        for (i, &root) in self.roots.iter().enumerate() {
            let v = slots[root as usize];
            if !v.is_finite() {
                return Err(SymbolicError::NonFinite {
                    detail: format!("root `{}` of fused program", self.labels[i]),
                });
            }
            out.push(v);
        }
        Ok(())
    }

    /// Evaluates a single root at a scalar point.
    ///
    /// All slots feeding any root are computed (the stream is fused), so
    /// prefer [`Program::eval_scalar`] when more than one root is needed.
    ///
    /// # Errors
    ///
    /// [`SymbolicError::NonFinite`] if the requested root's value is not
    /// finite.
    pub fn eval_scalar_root(&self, root: usize, inputs: &[f64]) -> Result<f64, SymbolicError> {
        let slots = self.scalar_slots(inputs);
        let v = slots[self.roots[root] as usize];
        if !v.is_finite() {
            return Err(SymbolicError::NonFinite {
                detail: format!("root `{}` evaluation result", self.labels[root]),
            });
        }
        Ok(v)
    }

    /// Computes every slot's scalar value in stream order.
    fn scalar_slots(&self, inputs: &[f64]) -> Vec<f64> {
        debug_assert_eq!(inputs.len(), self.table.len());
        let mut slots: Vec<f64> = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let v = self.scalar_op(*op, &slots, inputs);
            slots.push(v);
        }
        slots
    }

    /// Scalar semantics of one op — the reference the compiled backend
    /// must reproduce bit for bit.
    fn scalar_op(&self, op: Op, slots: &[f64], inputs: &[f64]) -> f64 {
        // N-ary ops fold from the first operand, in operand order, with
        // no synthetic identity element: `min(+∞, NaN)` is `+∞` but
        // `min(NaN, NaN)` is NaN, so seeding with ±∞ would decide guards
        // differently from the compiled kernels.
        let fold = |start: u32, len: u32, f: fn(f64, f64) -> f64| {
            let args = &self.operands[start as usize..(start + len) as usize];
            args[1..]
                .iter()
                .fold(slots[args[0] as usize], |acc, &s| f(acc, slots[s as usize]))
        };
        match op {
            Op::Const(c) => c,
            Op::Sym(i) => inputs[i as usize],
            Op::Add { start, len } => fold(start, len, |x, y| x + y),
            Op::Mul { start, len } => fold(start, len, |x, y| x * y),
            Op::Min { start, len } => fold(start, len, f64::min),
            Op::Max { start, len } => fold(start, len, f64::max),
            Op::Div(a, b) => slots[a as usize] / slots[b as usize],
            Op::Floor(a) => slots[a as usize].floor(),
            Op::Ceil(a) => slots[a as usize].ceil(),
            Op::Cmp(op, a, b) => op.apply(slots[a as usize], slots[b as usize]),
            Op::Select(c, a, b) => {
                if slots[c as usize] != 0.0 {
                    slots[a as usize]
                } else {
                    slots[b as usize]
                }
            }
            Op::MulAdd(a, b, c) => slots[a as usize] * slots[b as usize] + slots[c as usize],
            Op::SelectCmp(op, a, b, t, e) => {
                if op.apply(slots[a as usize], slots[b as usize]) != 0.0 {
                    slots[t as usize]
                } else {
                    slots[e as usize]
                }
            }
            Op::DivFloor(a, b) => (slots[a as usize] / slots[b as usize]).floor(),
            Op::DivCeil(a, b) => (slots[a as usize] / slots[b as usize]).ceil(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledProgram, CompiledWorkspace, Context};

    /// Every root's compiled output column over `batch`.
    fn compiled_outputs(program: &Program, batch: &BatchBindings) -> Vec<Vec<f64>> {
        let compiled = CompiledProgram::compile(program);
        let mut ws = CompiledWorkspace::new();
        compiled.eval_batch(batch, &mut ws).unwrap();
        (0..program.num_roots())
            .map(|i| ws.output(i).to_vec())
            .collect()
    }

    #[test]
    fn fused_roots_match_individual_tapes() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let shared = (x + 1.0) * (y + 2.0);
        let r0 = shared.max(x / y);
        let r1 = shared + y.ceil();
        let r2 = ctx.constant(7.0) * 6.0;

        let program = ctx.compile_program(&[("r0", r0), ("r1", r1), ("r2", r2)]);
        let alone = [r0, r1, r2].map(|e| ctx.compile_program(&[("alone", e)]));

        let xs = vec![1.0, 2.5, -3.0, 0.0];
        let ys = vec![2.0, 0.5, 4.0, 0.0];
        let mut batch = BatchBindings::new(xs.len());
        batch.set_values("x", xs.clone());
        batch.set_values("y", ys.clone());

        let fused = compiled_outputs(&program, &batch);
        for (i, one) in alone.iter().enumerate() {
            assert_eq!(fused[i], compiled_outputs(one, &batch)[0], "root {i}");
        }
    }

    #[test]
    fn cross_root_cse_shares_slots() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let shared = (x + 1.0) * (x + 2.0);
        let r0 = shared + 3.0;
        let r1 = shared * 4.0;

        let program = ctx.compile_program(&[("r0", r0), ("r1", r1)]);
        let separate =
            ctx.compile_program(&[("r0", r0)]).len() + ctx.compile_program(&[("r1", r1)]).len();
        assert!(
            program.len() < separate,
            "fused {} should beat separate {}",
            program.len(),
            separate
        );
    }

    #[test]
    fn register_allocation_reuses_registers() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        // A long dependency chain: each step's input dies immediately, so
        // the compiled backend's linear-scan allocator needs far fewer
        // registers than there are slots.
        let mut e = x;
        for i in 0..40 {
            e = e * 1.5 + (i as f64);
        }
        let program = ctx.compile_program(&[("chain", e)]);
        let compiled = CompiledProgram::compile(&program);
        assert!(
            compiled.num_regs() < program.len() / 2,
            "regs {} vs slots {}",
            compiled.num_regs(),
            program.len()
        );

        let xs = [0.0, 1.0, 2.0];
        let mut batch = BatchBindings::new(3);
        batch.set_values("x", xs.to_vec());
        let got = &compiled_outputs(&program, &batch)[0];
        for (row, &xv) in xs.iter().enumerate() {
            assert_eq!(got[row], program.eval_scalar_root(0, &[xv]).unwrap());
        }
    }

    #[test]
    fn mixed_lanes_match_all_column_evaluation() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let cond = ctx.cmp(CmpOp::Gt, x + y, ctx.constant(2.0));
        let e = ctx.select(cond, x * y, x - y) + (y + 0.5).floor();
        let program = ctx.compile_program(&[("e", e)]);

        let xs = vec![0.5, 1.5, 2.5, 3.5];
        let yv = 1.25;
        // Scalar-bound y (broadcast)...
        let mut mixed = BatchBindings::new(xs.len());
        mixed.set_values("x", xs.clone());
        mixed.set_scalar("y", yv);
        // ...must equal a fully materialized column binding.
        let mut full = BatchBindings::new(xs.len());
        full.set_values("x", xs.clone());
        full.set_values("y", vec![yv; xs.len()]);

        assert_eq!(
            compiled_outputs(&program, &mixed),
            compiled_outputs(&program, &full)
        );
    }

    #[test]
    fn workspace_reuse_across_batch_sizes() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let e = (x + 1.0) * (x + 2.0);
        let compiled = CompiledProgram::compile(&ctx.compile_program(&[("e", e)]));
        let mut ws = CompiledWorkspace::new();

        for n in [5usize, 3, 8, 1, 300] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut batch = BatchBindings::new(n);
            batch.set_values("x", xs.clone());
            compiled.eval_batch(&batch, &mut ws).unwrap();
            let want: Vec<f64> = xs.iter().map(|&v| (v + 1.0) * (v + 2.0)).collect();
            assert_eq!(ws.output(0), &want[..], "batch size {n}");
        }
    }

    #[test]
    fn scalar_eval_reports_nonfinite_root_by_label() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let program = ctx.compile_program(&[("ok", x + 1.0), ("bad", x / ctx.constant(0.0))]);
        let mut out = Vec::new();
        let err = program.eval_scalar(&[3.0], &mut out).unwrap_err();
        assert!(matches!(
            err,
            SymbolicError::NonFinite { ref detail } if detail.contains("bad")
        ));
        assert_eq!(program.eval_scalar_root(0, &[3.0]).unwrap(), 4.0);
    }

    /// Regression: n-ary folds start from the first operand, as the
    /// compiled kernels do. Seeding `min` with `+∞` made
    /// `min(NaN, NaN) > 5` true in the scalar oracle and false in the
    /// compiled backend.
    #[test]
    fn nary_folds_start_from_the_first_operand() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let guard = |e| ctx.cmp(CmpOp::Gt, e, ctx.constant(5.0));
        let pick = |e| ctx.select(guard(e), ctx.constant(1.0), ctx.constant(2.0));
        let program = ctx.compile_program(&[("min", pick(x.min(y))), ("max", pick(x.max(y)))]);
        let inputs = [f64::NAN, f64::NAN];
        let mut batch = BatchBindings::new(1);
        batch.set_values("x", vec![f64::NAN]);
        batch.set_values("y", vec![f64::NAN]);
        let compiled = compiled_outputs(&program, &batch);
        for (root, column) in compiled.iter().enumerate() {
            assert_eq!(program.eval_scalar_root(root, &inputs).unwrap(), 2.0);
            assert_eq!(column, &[2.0], "root {root}");
        }
    }

    #[test]
    fn root_lookup_by_label() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let program = ctx.compile_program(&[("a", x + 1.0), ("b", x * 2.0)]);
        assert_eq!(program.root_index("b"), Some(1));
        assert_eq!(program.root_index("missing"), None);
        assert_eq!(program.root_labels(), &["a".to_string(), "b".to_string()]);
        assert_eq!(program.num_roots(), 2);
    }

    #[test]
    fn duplicate_roots_share_one_slot() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let e = x + 1.0;
        let program = ctx.compile_program(&[("a", e), ("b", e)]);
        let mut batch = BatchBindings::new(2);
        batch.set_values("x", vec![1.0, 2.0]);
        let out = compiled_outputs(&program, &batch);
        assert_eq!(out[0], out[1]);
        assert_eq!(program.len(), ctx.compile_program(&[("a", e)]).len());
    }
    #[test]
    fn resolve_scalars_rejects_unknown_and_conflicting_bindings() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let program = ctx.compile_program(&[("r", x + y)]);
        let table = program.symbols();

        let ok = table.resolve_scalars(&[("y", 2.0), ("x", 1.0)]).unwrap();
        assert_eq!(ok[table.index_of("x").unwrap()], 1.0);
        assert_eq!(ok[table.index_of("y").unwrap()], 2.0);

        assert!(matches!(
            table.resolve_scalars(&[("x", 1.0), ("y", 2.0), ("z", 3.0)]),
            Err(SymbolicError::UnknownBinding(name)) if name == "z"
        ));
        assert!(matches!(
            table.resolve_scalars(&[("x", 1.0), ("x", 4.0), ("y", 2.0)]),
            Err(SymbolicError::ConflictingBinding { ref name, first, second })
                if name == "x" && first == 1.0 && second == 4.0
        ));
        // Agreeing duplicates (including NaN with NaN) are accepted.
        assert!(table
            .resolve_scalars(&[("x", 1.0), ("x", 1.0), ("y", 2.0)])
            .is_ok());
        assert!(table
            .resolve_scalars(&[("x", f64::NAN), ("x", f64::NAN), ("y", 2.0)])
            .is_ok());
    }

    #[test]
    fn instr_view_exposes_the_stream() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let cond = ctx.cmp(CmpOp::Gt, x, y);
        let e = ctx.select(cond, x + y, x / y).floor();
        let program = ctx.compile_program(&[("e", e)]);

        assert_eq!(program.instrs().len(), program.len());
        assert_eq!(program.root_slots().len(), 1);
        let root = program.root_slots()[0] as usize;
        assert!(matches!(program.instr(root), Instr::Floor(_)));

        // Every operand referenced by any instruction is an earlier slot
        // (SSA stream order), and each opcode appears as expected.
        let mut saw_select = false;
        for (slot, instr) in program.instrs().enumerate() {
            instr.for_each_operand(|s| assert!((s as usize) < slot));
            if let Instr::Select(c, a, b) = instr {
                saw_select = true;
                assert!(matches!(program.instr(c as usize), Instr::Cmp(..)));
                assert!(matches!(program.instr(a as usize), Instr::Add(_)));
                assert!(matches!(program.instr(b as usize), Instr::Div(..)));
            }
        }
        assert!(saw_select);
    }

    #[test]
    fn program_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Program>();
    }
}
