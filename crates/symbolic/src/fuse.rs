//! Peephole superinstruction fusion over an SSA [`Program`].
//!
//! The compiled evaluation backend (see [`crate::compiled`]) executes a
//! flat step table with one indirect call per instruction per row
//! block, so every instruction it can *remove* saves a dispatch and a
//! full block of intermediate traffic. This pass rewrites a program by
//! fusing three IEEE-exact patterns into the superinstruction opcodes
//! of [`crate::Instr`]:
//!
//! * a binary `Mul` whose only user is an `Add` fold folds into the
//!   chain as `MulAdd(a, b, acc)`;
//! * a `Cmp` whose only user is a `Select` *condition* becomes a
//!   guarded select `SelectCmp(op, a, b, t, f)`;
//! * a `Div` whose only user is a `Floor`/`Ceil` becomes
//!   `DivFloor`/`DivCeil`.
//!
//! # Exactness
//!
//! Fused execution is bit-identical to the unfused program for every
//! row value, finite or not:
//!
//! * `MulAdd(a, b, c)` evaluates `(a * b) + c` with **two** roundings —
//!   it is never lowered to a hardware FMA — so it is the exact
//!   product-then-sum the separate instructions computed. An `Add`
//!   fold consumes its fusable `Mul` operands left-to-right in the
//!   original fold order; when the running sum is added to a product,
//!   the operands of the IEEE addition are swapped (`(a·b) + acc`
//!   instead of `acc + (a·b)`), which is exact: IEEE-754 addition is
//!   commutative for all values, including signed zeros (`+0 + -0`
//!   is `+0` in either order under round-to-nearest), and NaN payloads
//!   are unobservable downstream (roots map non-finite to `+∞`,
//!   comparisons are payload-insensitive).
//! * `SelectCmp` is exact because `Cmp` only ever produces `1.0`/`0.0`
//!   and `Select` tests `!= 0.0` — testing the comparison directly is
//!   the same branch decision.
//! * `DivFloor`/`DivCeil` evaluate `(a / b).floor()`/`.ceil()` — the
//!   identical operation pair, merely dispatched once.
//!
//! An inner instruction is only fused when it has exactly one use and
//! is not itself a root (a root's column must still materialize).

use crate::program::{Op, Program};

/// One term of an `Add`-chain rewrite: an already-emitted slot, or a
/// consumed binary `Mul` waiting to fuse into a `MulAdd`.
#[derive(Clone, Copy)]
enum Term {
    Slot(u32),
    Mul(u32, u32),
}

/// The output stream under construction.
#[derive(Default)]
struct Out {
    ops: Vec<Op>,
    operands: Vec<u32>,
    superinstrs: usize,
}

impl Out {
    fn push(&mut self, op: Op) -> u32 {
        let slot = self.ops.len() as u32;
        self.ops.push(op);
        slot
    }

    fn push_nary(&mut self, kind: &Op, args: &[u32]) -> u32 {
        let start = self.operands.len() as u32;
        self.operands.extend_from_slice(args);
        let len = args.len() as u32;
        let op = match kind {
            Op::Add { .. } => Op::Add { start, len },
            Op::Mul { .. } => Op::Mul { start, len },
            Op::Min { .. } => Op::Min { start, len },
            Op::Max { .. } => Op::Max { start, len },
            _ => unreachable!("push_nary is only called for fold opcodes"),
        };
        self.push(op)
    }

    /// Adds `term` into the running chain value, fusing consumed
    /// multiplies into `MulAdd` steps.
    fn combine(&mut self, acc: Term, term: Term) -> Term {
        let slot = match (acc, term) {
            (Term::Slot(x), Term::Slot(y)) => {
                self.push_nary(&Op::Add { start: 0, len: 0 }, &[x, y])
            }
            // `acc + (a·b)` fuses as `MulAdd(a, b, acc)` — IEEE `+` is
            // commutative (module docs), so the swap is exact.
            (Term::Slot(x), Term::Mul(a, b)) | (Term::Mul(a, b), Term::Slot(x)) => {
                self.superinstrs += 1;
                self.push(Op::MulAdd(a, b, x))
            }
            (Term::Mul(a, b), Term::Mul(c, d)) => {
                let m = self.push_nary(&Op::Mul { start: 0, len: 0 }, &[a, b]);
                self.superinstrs += 1;
                self.push(Op::MulAdd(c, d, m))
            }
        };
        Term::Slot(slot)
    }

    /// Materializes a chain value into a real slot (a trailing consumed
    /// `Mul` with nothing to fuse into re-emits as a plain multiply).
    fn resolve(&mut self, term: Term) -> u32 {
        match term {
            Term::Slot(s) => s,
            Term::Mul(a, b) => self.push_nary(&Op::Mul { start: 0, len: 0 }, &[a, b]),
        }
    }
}

/// Fuses superinstruction patterns in `program`, returning the rewritten
/// program and the number of superinstructions emitted.
///
/// The result evaluates bit-identically to the input for every binding
/// (see the [module docs](self) for the exactness argument). Roots,
/// labels and the symbol table are preserved.
pub fn fuse_superinstructions(program: &Program) -> (Program, usize) {
    let n = program.ops.len();
    let arena = |start: u32, len: u32| &program.operands[start as usize..(start + len) as usize];

    // Operand-occurrence counts: a slot read twice by one instruction
    // counts twice, so `uses == 1` really means a unique read site.
    let mut uses = vec![0u32; n];
    for slot in 0..n {
        program
            .instr(slot)
            .for_each_operand(|s| uses[s as usize] += 1);
    }
    let mut is_root = vec![false; n];
    for &r in &program.roots {
        is_root[r as usize] = true;
    }
    let fusable = |s: u32| uses[s as usize] == 1 && !is_root[s as usize];

    // Mark the inner instructions each pattern consumes. Single-use
    // guarantees the marking user is the *only* user, so checking the
    // operand position (e.g. `Select` condition vs. branch) suffices.
    let mut consumed = vec![false; n];
    for op in &program.ops {
        match *op {
            Op::Add { start, len } => {
                for &s in arena(start, len) {
                    if fusable(s) && matches!(program.ops[s as usize], Op::Mul { len: 2, .. }) {
                        consumed[s as usize] = true;
                    }
                }
            }
            Op::Select(c, _, _) if fusable(c) && matches!(program.ops[c as usize], Op::Cmp(..)) => {
                consumed[c as usize] = true;
            }
            Op::Floor(a) | Op::Ceil(a)
                if fusable(a) && matches!(program.ops[a as usize], Op::Div(..)) =>
            {
                consumed[a as usize] = true;
            }
            _ => {}
        }
    }

    // Forward re-emission. Consumed slots are skipped; their unique
    // user inlines them, so their remap entry is never read.
    let mut out = Out::default();
    let mut remap = vec![u32::MAX; n];
    for (slot, op) in program.ops.iter().enumerate() {
        if consumed[slot] {
            continue;
        }
        let r = |s: u32| remap[s as usize];
        let new_slot = match *op {
            Op::Const(c) => out.push(Op::Const(c)),
            Op::Sym(s) => out.push(Op::Sym(s)),
            Op::Add { start, len } => {
                let args = arena(start, len);
                if args.iter().any(|&s| consumed[s as usize]) {
                    // Fold the chain in original operand order, fusing
                    // consumed multiplies as they are reached.
                    let mut acc: Option<Term> = None;
                    for &s in args {
                        let term = if consumed[s as usize] {
                            let Op::Mul { start: ms, len: 2 } = program.ops[s as usize] else {
                                unreachable!("only binary multiplies are consumed by Add");
                            };
                            let margs = arena(ms, 2);
                            Term::Mul(r(margs[0]), r(margs[1]))
                        } else {
                            Term::Slot(r(s))
                        };
                        acc = Some(match acc {
                            None => term,
                            Some(a) => out.combine(a, term),
                        });
                    }
                    let acc = acc.expect("folds have at least one operand");
                    out.resolve(acc)
                } else {
                    let args: Vec<u32> = args.iter().map(|&s| r(s)).collect();
                    out.push_nary(op, &args)
                }
            }
            Op::Mul { start, len } | Op::Min { start, len } | Op::Max { start, len } => {
                let args: Vec<u32> = arena(start, len).iter().map(|&s| r(s)).collect();
                out.push_nary(op, &args)
            }
            Op::Div(a, b) => out.push(Op::Div(r(a), r(b))),
            Op::Floor(a) => {
                if consumed[a as usize] {
                    let Op::Div(da, db) = program.ops[a as usize] else {
                        unreachable!("only divisions are consumed by Floor");
                    };
                    out.superinstrs += 1;
                    out.push(Op::DivFloor(r(da), r(db)))
                } else {
                    out.push(Op::Floor(r(a)))
                }
            }
            Op::Ceil(a) => {
                if consumed[a as usize] {
                    let Op::Div(da, db) = program.ops[a as usize] else {
                        unreachable!("only divisions are consumed by Ceil");
                    };
                    out.superinstrs += 1;
                    out.push(Op::DivCeil(r(da), r(db)))
                } else {
                    out.push(Op::Ceil(r(a)))
                }
            }
            Op::Cmp(cmp, a, b) => out.push(Op::Cmp(cmp, r(a), r(b))),
            Op::Select(c, a, b) => {
                if consumed[c as usize] {
                    let Op::Cmp(cmp, ca, cb) = program.ops[c as usize] else {
                        unreachable!("only comparisons are consumed by Select");
                    };
                    out.superinstrs += 1;
                    out.push(Op::SelectCmp(cmp, r(ca), r(cb), r(a), r(b)))
                } else {
                    out.push(Op::Select(r(c), r(a), r(b)))
                }
            }
            // Already-fused programs pass through unchanged.
            Op::MulAdd(a, b, c) => out.push(Op::MulAdd(r(a), r(b), r(c))),
            Op::SelectCmp(cmp, a, b, t, e) => out.push(Op::SelectCmp(cmp, r(a), r(b), r(t), r(e))),
            Op::DivFloor(a, b) => out.push(Op::DivFloor(r(a), r(b))),
            Op::DivCeil(a, b) => out.push(Op::DivCeil(r(a), r(b))),
        };
        remap[slot] = new_slot;
    }

    let roots: Vec<u32> = program.roots.iter().map(|&r| remap[r as usize]).collect();
    let Out {
        ops,
        operands,
        superinstrs,
    } = out;
    mist_telemetry::gauge_max("symbolic.program.superinstrs", superinstrs as f64);
    let fused = Program {
        ops,
        operands,
        table: program.table.clone(),
        roots,
        labels: program.labels.clone(),
    };
    (fused, superinstrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Context, Instr};

    /// Per row, every root's scalar result as bits (`None` when
    /// non-finite). `rows` bind the program's symbols in table order.
    fn outputs(p: &Program, rows: &[Vec<f64>]) -> Vec<Vec<Option<u64>>> {
        rows.iter()
            .map(|row| {
                (0..p.num_roots())
                    .map(|i| p.eval_scalar_root(i, row).ok().map(f64::to_bits))
                    .collect()
            })
            .collect()
    }

    /// Rows from per-symbol columns, in `p`'s symbol-table order.
    fn rows(p: &Program, cols: &[(&str, Vec<f64>)]) -> Vec<Vec<f64>> {
        let n = cols[0].1.len();
        let col = |name: &str| &cols.iter().find(|(c, _)| *c == name).unwrap().1;
        (0..n)
            .map(|i| p.symbols().names().iter().map(|s| col(s)[i]).collect())
            .collect()
    }

    #[test]
    fn mul_chains_fuse_into_muladds() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let z = ctx.symbol("z");
        // a·b + c·d + e: two fusable products in one fold.
        let e = x * y + y * z + x;
        let program = ctx.compile_program(&[("e", e)]);
        let (fused, count) = fuse_superinstructions(&program);
        assert!(count >= 1, "expected MulAdd fusion, got {count}");
        assert!(fused.instrs().any(|i| matches!(i, Instr::MulAdd(..))));
        assert!(fused.len() < program.len());

        let rows = rows(
            &program,
            &[
                ("x", vec![1.5, -0.0, f64::INFINITY, 2.0, f64::NAN]),
                ("y", vec![2.0, 3.0, 0.0, -1.0, 1.0]),
                ("z", vec![0.5, -2.0, 1.0, f64::NEG_INFINITY, 4.0]),
            ],
        );
        assert_eq!(outputs(&fused, &rows), outputs(&program, &rows));
    }

    #[test]
    fn cmp_select_fuses_into_guarded_select() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let guard = ctx.cmp(CmpOp::Ge, x, y);
        let e = ctx.select(guard, x + 1.0, y * 2.0);
        let program = ctx.compile_program(&[("e", e)]);
        let (fused, count) = fuse_superinstructions(&program);
        assert_eq!(count, 1);
        assert!(fused
            .instrs()
            .any(|i| matches!(i, Instr::SelectCmp(CmpOp::Ge, ..))));
        assert!(!fused.instrs().any(|i| matches!(i, Instr::Select(..))));

        let rows = rows(
            &program,
            &[
                ("x", vec![1.0, -3.0, f64::NAN, 0.0]),
                ("y", vec![1.0, 2.0, 1.0, -0.0]),
            ],
        );
        assert_eq!(outputs(&fused, &rows), outputs(&program, &rows));
    }

    #[test]
    fn div_floor_and_ceil_fuse() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let program = ctx.compile_program(&[("f", (x / y).floor()), ("c", ((x + 1.0) / y).ceil())]);
        let (fused, count) = fuse_superinstructions(&program);
        assert_eq!(count, 2);
        assert!(fused.instrs().any(|i| matches!(i, Instr::DivFloor(..))));
        assert!(fused.instrs().any(|i| matches!(i, Instr::DivCeil(..))));

        let rows = rows(
            &program,
            &[
                ("x", vec![7.0, -7.0, 1e18, f64::NAN]),
                ("y", vec![2.0, 3.0, 0.0, 2.0]),
            ],
        );
        assert_eq!(outputs(&fused, &rows), outputs(&program, &rows));
    }

    #[test]
    fn multi_use_and_root_inner_ops_do_not_fuse() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let prod = x * y;
        // The product is a root *and* an Add operand: must stay.
        let program = ctx.compile_program(&[("sum", prod + x), ("prod", prod)]);
        let (fused, count) = fuse_superinstructions(&program);
        assert_eq!(count, 0);
        assert!(!fused.instrs().any(|i| matches!(i, Instr::MulAdd(..))));

        // A Cmp read by two Selects keeps both Selects unfused.
        let guard = ctx.cmp(CmpOp::Lt, x, y);
        let two = ctx.compile_program(&[
            ("a", ctx.select(guard, x, y)),
            ("b", ctx.select(guard, y, x)),
        ]);
        let (fused2, count2) = fuse_superinstructions(&two);
        assert_eq!(count2, 0);
        assert_eq!(
            fused2
                .instrs()
                .filter(|i| matches!(i, Instr::Select(..)))
                .count(),
            2
        );
    }

    #[test]
    fn fused_programs_keep_roots_labels_and_symbols() {
        let ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let program = ctx.compile_program(&[("r0", x * y + 1.0), ("r1", (x / y).floor())]);
        let (fused, _) = fuse_superinstructions(&program);
        assert_eq!(fused.root_labels(), program.root_labels());
        assert_eq!(fused.symbols().names(), program.symbols().names());

        let rows = rows(&program, &[("x", vec![1.0, 2.0, 3.0]), ("y", vec![2.0; 3])]);
        assert_eq!(outputs(&fused, &rows), outputs(&program, &rows));
    }
}
