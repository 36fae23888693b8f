//! Hash-consing expression arena and the [`Expr`] handle.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::error::SymbolicError;
use crate::node::{CmpOp, ConstBits, ExprId, Node, SymbolId};
use crate::program::Program;

/// Interning arena for symbols and expression nodes.
///
/// All expression construction goes through a `Context`; structurally equal
/// nodes are interned once and local simplification (constant folding,
/// identities, flattening of n-ary operators) is applied eagerly, keeping
/// the DAG compact even for very large traced models.
///
/// The context is single-threaded (`RefCell` inside). Compiled
/// [`Program`]s are plain data and can be shipped across threads for
/// parallel batched evaluation.
#[derive(Debug, Default)]
pub struct Context {
    inner: RefCell<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    nodes: Vec<Node>,
    intern: HashMap<Node, ExprId>,
    symbols: Vec<String>,
    symbol_ids: HashMap<String, SymbolId>,
}

impl Inner {
    fn intern(&mut self, node: Node) -> ExprId {
        if let Some(&id) = self.intern.get(&node) {
            return id;
        }
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.intern.insert(node, id);
        id
    }

    fn node(&self, id: ExprId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    fn as_const(&self, id: ExprId) -> Option<f64> {
        match self.node(id) {
            Node::Const(c) => Some(c.to_f64()),
            _ => None,
        }
    }
}

/// A copyable handle to an interned expression.
///
/// `Expr` implements the arithmetic operators against other `Expr`s and
/// against `f64`, so cost formulas read naturally:
///
/// ```
/// use mist_symbolic::Context;
/// let ctx = Context::new();
/// let b = ctx.symbol("b");
/// let cost = 2.0 * b + 1.0;
/// assert_eq!(ctx.eval(cost, &[("b", 3.0)]).unwrap(), 7.0);
/// ```
#[derive(Clone, Copy)]
pub struct Expr<'c> {
    ctx: &'c Context,
    id: ExprId,
}

impl std::fmt::Debug for Expr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.ctx.render(*self))
    }
}

impl<'c> Expr<'c> {
    /// The interned id of this expression.
    pub fn id(&self) -> ExprId {
        self.id
    }

    /// The owning context.
    pub fn context(&self) -> &'c Context {
        self.ctx
    }

    /// Returns the constant value if this expression is a literal constant.
    pub fn as_const(&self) -> Option<f64> {
        self.ctx.inner.borrow().as_const(self.id)
    }

    /// `max(self, other)`.
    pub fn max(self, other: Expr<'c>) -> Expr<'c> {
        self.ctx.max_of(&[self, other])
    }

    /// `min(self, other)`.
    pub fn min(self, other: Expr<'c>) -> Expr<'c> {
        self.ctx.min_of(&[self, other])
    }

    /// `floor(self)`.
    pub fn floor(self) -> Expr<'c> {
        self.ctx.floor(self)
    }

    /// `ceil(self)`.
    pub fn ceil(self) -> Expr<'c> {
        self.ctx.ceil(self)
    }
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned expression nodes (a proxy for DAG size).
    pub fn node_count(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Interns (or looks up) a symbol by name.
    ///
    /// The same name always maps to the same symbol.
    pub fn symbol(&self, name: &str) -> Expr<'_> {
        let mut inner = self.inner.borrow_mut();
        let sid = if let Some(&sid) = inner.symbol_ids.get(name) {
            sid
        } else {
            let sid = SymbolId(inner.symbols.len() as u32);
            inner.symbols.push(name.to_owned());
            inner.symbol_ids.insert(name.to_owned(), sid);
            sid
        };
        let id = inner.intern(Node::Sym(sid));
        drop(inner);
        Expr { ctx: self, id }
    }

    /// Interns a finite constant.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN or infinite — cost expressions must stay finite.
    pub fn constant(&self, v: f64) -> Expr<'_> {
        assert!(v.is_finite(), "symbolic constants must be finite, got {v}");
        let id = self
            .inner
            .borrow_mut()
            .intern(Node::Const(ConstBits::from_f64(v)));
        Expr { ctx: self, id }
    }

    /// Clones an expression handle from a raw id (must belong to this context).
    pub fn expr(&self, id: ExprId) -> Expr<'_> {
        assert!(
            (id.0 as usize) < self.inner.borrow().nodes.len(),
            "expression id out of range"
        );
        Expr { ctx: self, id }
    }

    /// Returns a snapshot of the node for an id (for analysis passes).
    pub fn node(&self, id: ExprId) -> Node {
        self.inner.borrow().node(id).clone()
    }

    fn intern(&self, node: Node) -> ExprId {
        self.inner.borrow_mut().intern(node)
    }

    /// N-ary sum with flattening, constant folding and identity removal.
    pub fn add_of<'c>(&'c self, terms: &[Expr<'c>]) -> Expr<'c> {
        let mut ops: Vec<ExprId> = Vec::with_capacity(terms.len());
        let mut konst = 0.0;
        {
            let inner = self.inner.borrow();
            let mut stack: Vec<ExprId> = terms.iter().rev().map(|e| e.id).collect();
            while let Some(id) = stack.pop() {
                match inner.node(id) {
                    Node::Const(c) => konst += c.to_f64(),
                    Node::Add(v) => stack.extend(v.iter().rev().copied()),
                    _ => ops.push(id),
                }
            }
        }
        if konst != 0.0 || ops.is_empty() {
            ops.push(self.constant(konst).id);
        }
        if ops.len() == 1 {
            return Expr {
                ctx: self,
                id: ops[0],
            };
        }
        ops.sort_unstable();
        let id = self.intern(Node::Add(ops));
        Expr { ctx: self, id }
    }

    /// N-ary product with flattening, constant folding and absorbing zero.
    pub fn mul_of<'c>(&'c self, factors: &[Expr<'c>]) -> Expr<'c> {
        let mut ops: Vec<ExprId> = Vec::with_capacity(factors.len());
        let mut konst = 1.0;
        {
            let inner = self.inner.borrow();
            let mut stack: Vec<ExprId> = factors.iter().rev().map(|e| e.id).collect();
            while let Some(id) = stack.pop() {
                match inner.node(id) {
                    Node::Const(c) => konst *= c.to_f64(),
                    Node::Mul(v) => stack.extend(v.iter().rev().copied()),
                    _ => ops.push(id),
                }
            }
        }
        if konst == 0.0 {
            return self.constant(0.0);
        }
        if konst != 1.0 || ops.is_empty() {
            ops.push(self.constant(konst).id);
        }
        if ops.len() == 1 {
            return Expr {
                ctx: self,
                id: ops[0],
            };
        }
        ops.sort_unstable();
        let id = self.intern(Node::Mul(ops));
        Expr { ctx: self, id }
    }

    /// `lhs / rhs`, folding constants and `x / 1`.
    pub fn div<'c>(&'c self, lhs: Expr<'c>, rhs: Expr<'c>) -> Expr<'c> {
        let inner = self.inner.borrow();
        let lc = inner.as_const(lhs.id);
        let rc = inner.as_const(rhs.id);
        drop(inner);
        match (lc, rc) {
            (Some(a), Some(b)) => {
                assert!(b != 0.0, "symbolic constant division by zero");
                self.constant(a / b)
            }
            (Some(0.0), _) => self.constant(0.0),
            (_, Some(1.0)) => lhs,
            // Fold `x / c` into `x * (1/c)` so products flatten further.
            (_, Some(b)) if b != 0.0 => self.mul_of(&[lhs, self.constant(1.0 / b)]),
            _ => {
                let id = self.intern(Node::Div(lhs.id, rhs.id));
                Expr { ctx: self, id }
            }
        }
    }

    fn min_max_of<'c>(&'c self, ops_in: &[Expr<'c>], is_min: bool) -> Expr<'c> {
        assert!(!ops_in.is_empty(), "min/max of empty operand list");
        let mut ops: Vec<ExprId> = Vec::with_capacity(ops_in.len());
        let mut konst: Option<f64> = None;
        {
            let inner = self.inner.borrow();
            let mut stack: Vec<ExprId> = ops_in.iter().rev().map(|e| e.id).collect();
            while let Some(id) = stack.pop() {
                match inner.node(id) {
                    Node::Const(c) => {
                        let v = c.to_f64();
                        konst = Some(match konst {
                            None => v,
                            Some(k) if is_min => k.min(v),
                            Some(k) => k.max(v),
                        });
                    }
                    Node::Min(v) if is_min => stack.extend(v.iter().rev().copied()),
                    Node::Max(v) if !is_min => stack.extend(v.iter().rev().copied()),
                    _ => ops.push(id),
                }
            }
        }
        if let Some(k) = konst {
            ops.push(self.constant(k).id);
        }
        ops.sort_unstable();
        ops.dedup();
        if ops.len() == 1 {
            return Expr {
                ctx: self,
                id: ops[0],
            };
        }
        let node = if is_min {
            Node::Min(ops)
        } else {
            Node::Max(ops)
        };
        let id = self.intern(node);
        Expr { ctx: self, id }
    }

    /// N-ary minimum.
    pub fn min_of<'c>(&'c self, ops: &[Expr<'c>]) -> Expr<'c> {
        self.min_max_of(ops, true)
    }

    /// N-ary maximum.
    pub fn max_of<'c>(&'c self, ops: &[Expr<'c>]) -> Expr<'c> {
        self.min_max_of(ops, false)
    }

    /// `floor(x)`.
    pub fn floor<'c>(&'c self, x: Expr<'c>) -> Expr<'c> {
        if let Some(v) = x.as_const() {
            return self.constant(v.floor());
        }
        let node = self.node(x.id);
        if matches!(node, Node::Floor(_) | Node::Ceil(_)) {
            return x;
        }
        let id = self.intern(Node::Floor(x.id));
        Expr { ctx: self, id }
    }

    /// `ceil(x)`.
    pub fn ceil<'c>(&'c self, x: Expr<'c>) -> Expr<'c> {
        if let Some(v) = x.as_const() {
            return self.constant(v.ceil());
        }
        let node = self.node(x.id);
        if matches!(node, Node::Floor(_) | Node::Ceil(_)) {
            return x;
        }
        let id = self.intern(Node::Ceil(x.id));
        Expr { ctx: self, id }
    }

    /// `ceil(a / b)` — integer ceiling division, e.g. microbatch counts.
    pub fn ceil_div<'c>(&'c self, a: Expr<'c>, b: Expr<'c>) -> Expr<'c> {
        self.ceil(self.div(a, b))
    }

    /// Comparison producing `1.0` / `0.0`.
    pub fn cmp<'c>(&'c self, op: CmpOp, lhs: Expr<'c>, rhs: Expr<'c>) -> Expr<'c> {
        if let (Some(a), Some(b)) = (lhs.as_const(), rhs.as_const()) {
            return self.constant(op.apply(a, b));
        }
        let id = self.intern(Node::Cmp(op, lhs.id, rhs.id));
        Expr { ctx: self, id }
    }

    /// `if cond != 0 { then } else { other }`.
    pub fn select<'c>(&'c self, cond: Expr<'c>, then: Expr<'c>, other: Expr<'c>) -> Expr<'c> {
        if let Some(c) = cond.as_const() {
            return if c != 0.0 { then } else { other };
        }
        if then.id == other.id {
            return then;
        }
        let id = self.intern(Node::Select(cond.id, then.id, other.id));
        Expr { ctx: self, id }
    }

    /// Evaluates an expression against scalar bindings `(name, value)`.
    ///
    /// Bindings must name exactly the expression's symbols: unknown names
    /// and conflicting duplicates are rejected (see
    /// [`SymbolTable::resolve_scalars`](crate::SymbolTable::resolve_scalars)).
    ///
    /// # Errors
    ///
    /// Returns [`SymbolicError::UnboundSymbol`] if a symbol in the
    /// expression has no binding, or [`SymbolicError::NonFinite`] if
    /// evaluation produces NaN/inf (e.g. division by zero).
    pub fn eval(&self, expr: Expr<'_>, bindings: &[(&str, f64)]) -> Result<f64, SymbolicError> {
        let program = self.compile_program(&[("expr", expr)]);
        let inputs = program.symbols().resolve_scalars(bindings)?;
        program.eval_scalar_root(0, &inputs)
    }

    /// Compiles many labeled roots into one fused [`Program`].
    ///
    /// Structurally equal sub-expressions *across* roots share one SSA
    /// slot and are computed once per batch (cross-root CSE), and a
    /// single evaluation pass produces every root's output column. Root
    /// outputs are indexed in the order given here; labels are for
    /// diagnostics and [`Program::root_index`] lookup.
    ///
    /// # Panics
    ///
    /// Panics if `roots` is empty.
    pub fn compile_program(&self, roots: &[(&str, Expr<'_>)]) -> Program {
        let inner = self.inner.borrow();
        let ids: Vec<(&str, crate::node::ExprId)> =
            roots.iter().map(|&(name, e)| (name, e.id)).collect();
        Program::build(&inner.nodes, &inner.symbols, &ids)
    }

    /// Renders an expression as a human-readable string.
    pub fn render(&self, expr: Expr<'_>) -> String {
        let inner = self.inner.borrow();
        crate::display::render(&inner.nodes, &inner.symbols, expr.id)
    }
}

// --- Operator overloading -------------------------------------------------

impl<'c> Add for Expr<'c> {
    type Output = Expr<'c>;
    fn add(self, rhs: Expr<'c>) -> Expr<'c> {
        self.ctx.add_of(&[self, rhs])
    }
}

impl<'c> Add<f64> for Expr<'c> {
    type Output = Expr<'c>;
    fn add(self, rhs: f64) -> Expr<'c> {
        let r = self.ctx.constant(rhs);
        self.ctx.add_of(&[self, r])
    }
}

impl<'c> Add<Expr<'c>> for f64 {
    type Output = Expr<'c>;
    fn add(self, rhs: Expr<'c>) -> Expr<'c> {
        rhs + self
    }
}

impl<'c> Sub for Expr<'c> {
    type Output = Expr<'c>;
    fn sub(self, rhs: Expr<'c>) -> Expr<'c> {
        let neg = self.ctx.mul_of(&[rhs, self.ctx.constant(-1.0)]);
        self.ctx.add_of(&[self, neg])
    }
}

impl<'c> Sub<f64> for Expr<'c> {
    type Output = Expr<'c>;
    fn sub(self, rhs: f64) -> Expr<'c> {
        self + (-rhs)
    }
}

impl<'c> Sub<Expr<'c>> for f64 {
    type Output = Expr<'c>;
    fn sub(self, rhs: Expr<'c>) -> Expr<'c> {
        let l = rhs.ctx.constant(self);
        l - rhs
    }
}

impl<'c> Mul for Expr<'c> {
    type Output = Expr<'c>;
    fn mul(self, rhs: Expr<'c>) -> Expr<'c> {
        self.ctx.mul_of(&[self, rhs])
    }
}

impl<'c> Mul<f64> for Expr<'c> {
    type Output = Expr<'c>;
    fn mul(self, rhs: f64) -> Expr<'c> {
        let r = self.ctx.constant(rhs);
        self.ctx.mul_of(&[self, r])
    }
}

impl<'c> Mul<Expr<'c>> for f64 {
    type Output = Expr<'c>;
    fn mul(self, rhs: Expr<'c>) -> Expr<'c> {
        rhs * self
    }
}

impl<'c> Div for Expr<'c> {
    type Output = Expr<'c>;
    fn div(self, rhs: Expr<'c>) -> Expr<'c> {
        self.ctx.div(self, rhs)
    }
}

impl<'c> Div<f64> for Expr<'c> {
    type Output = Expr<'c>;
    fn div(self, rhs: f64) -> Expr<'c> {
        let r = self.ctx.constant(rhs);
        self.ctx.div(self, r)
    }
}

impl<'c> Div<Expr<'c>> for f64 {
    type Output = Expr<'c>;
    fn div(self, rhs: Expr<'c>) -> Expr<'c> {
        let l = rhs.ctx.constant(self);
        rhs.ctx.div(l, rhs)
    }
}

impl<'c> Neg for Expr<'c> {
    type Output = Expr<'c>;
    fn neg(self) -> Expr<'c> {
        self * -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold() {
        let ctx = Context::new();
        let e = ctx.constant(2.0) + ctx.constant(3.0);
        assert_eq!(e.as_const(), Some(5.0));
        let e = ctx.constant(2.0) * ctx.constant(3.0) / ctx.constant(4.0);
        assert_eq!(e.as_const(), Some(1.5));
    }

    #[test]
    fn identities_simplify() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        assert_eq!((x + 0.0).id(), x.id());
        assert_eq!((x * 1.0).id(), x.id());
        assert_eq!((x * 0.0).as_const(), Some(0.0));
        assert_eq!((x / 1.0).id(), x.id());
    }

    #[test]
    fn hash_consing_canonicalizes_commutative_ops() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        assert_eq!((x + y).id(), (y + x).id());
        assert_eq!((x * y).id(), (y * x).id());
        assert_eq!(x.max(y).id(), y.max(x).id());
    }

    #[test]
    fn same_symbol_name_same_id() {
        let ctx = Context::new();
        assert_eq!(ctx.symbol("dp").id(), ctx.symbol("dp").id());
        assert_ne!(ctx.symbol("dp").id(), ctx.symbol("tp").id());
    }

    #[test]
    fn min_max_collapse_constants() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let e = ctx.min_of(&[x, ctx.constant(3.0), ctx.constant(1.0)]);
        // `min(x, 3, 1)` keeps one constant (1).
        assert_eq!(ctx.eval(e, &[("x", 10.0)]).unwrap(), 1.0);
        assert_eq!(ctx.eval(e, &[("x", 0.5)]).unwrap(), 0.5);
        let m = ctx.max_of(&[ctx.constant(2.0), ctx.constant(7.0)]);
        assert_eq!(m.as_const(), Some(7.0));
    }

    #[test]
    fn select_folds_constant_condition() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let t = ctx.cmp(CmpOp::Le, ctx.constant(1.0), ctx.constant(2.0));
        assert_eq!(ctx.select(t, x, y).id(), x.id());
        let f = ctx.cmp(CmpOp::Gt, ctx.constant(1.0), ctx.constant(2.0));
        assert_eq!(ctx.select(f, x, y).id(), y.id());
        // Identical branches collapse regardless of the condition.
        let c = ctx.cmp(CmpOp::Le, x, y);
        assert_eq!(ctx.select(c, x, x).id(), x.id());
    }

    #[test]
    fn eval_nested_expression() {
        let ctx = Context::new();
        let b = ctx.symbol("b");
        let tp = ctx.symbol("tp");
        let e = (b * 4096.0 * 2.0 / tp + 7.0).max(ctx.constant(10.0));
        let v = ctx.eval(e, &[("b", 2.0), ("tp", 4.0)]).unwrap();
        assert_eq!(v, (2.0 * 4096.0 * 2.0 / 4.0 + 7.0f64).max(10.0));
    }

    #[test]
    fn eval_unbound_symbol_errors() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let err = ctx.eval(x + 1.0, &[]).unwrap_err();
        assert!(matches!(err, SymbolicError::UnboundSymbol(_)));
    }

    #[test]
    fn ceil_div_behaves_like_integer_ceiling() {
        let ctx = Context::new();
        let g = ctx.symbol("g");
        let e = ctx.ceil_div(g, ctx.constant(4.0));
        assert_eq!(ctx.eval(e, &[("g", 9.0)]).unwrap(), 3.0);
        assert_eq!(ctx.eval(e, &[("g", 8.0)]).unwrap(), 2.0);
    }

    #[test]
    fn floor_of_floor_is_idempotent() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let f = ctx.floor(x);
        assert_eq!(ctx.floor(f).id(), f.id());
    }

    #[test]
    fn subtraction_and_negation() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let e = 10.0 - x;
        assert_eq!(ctx.eval(e, &[("x", 4.0)]).unwrap(), 6.0);
        assert_eq!(ctx.eval(-x, &[("x", 4.0)]).unwrap(), -4.0);
    }

    #[test]
    fn shared_subexpressions_are_interned_once() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let shared = x * 2.0 + 1.0;
        let n0 = ctx.node_count();
        let _again = x * 2.0 + 1.0;
        assert_eq!(ctx.node_count(), n0);
        let combined = shared + shared;
        // `shared + shared` flattens into `Add([s, s])`… which dedups in
        // canonical sorted order but keeps both (sum semantics).
        assert_eq!(ctx.eval(combined, &[("x", 1.0)]).unwrap(), 6.0);
    }
}
