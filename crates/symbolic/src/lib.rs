//! Symbolic expression engine for Mist.
//!
//! This crate implements the substrate behind Mist's *symbolic-based
//! efficient performance analysis* (paper §5.2): instead of re-simulating a
//! model for every candidate optimization configuration, Mist traces the
//! model once into expressions over *symbols* (micro-batch size, TP size,
//! offloading ratios, …) and then evaluates thousands of candidate
//! configurations by substituting values into those expressions.
//!
//! The engine is built around four pieces:
//!
//! * [`Context`] — a hash-consing arena. Structurally identical
//!   sub-expressions are interned once, so the expression DAGs produced by
//!   tracing a 96-layer transformer stay small.
//! * [`Expr`] — a lightweight copyable handle with operator overloading.
//!   Construction performs aggressive local simplification (constant
//!   folding, `x + 0`, `x * 1`, `min`/`max` collapsing, …).
//! * [`Program`] — the one IR: a fused multi-root SSA instruction stream.
//!   All the expressions a caller needs per evaluation point (e.g. every
//!   memory and latency estimate of a pipeline stage) compile together
//!   with cross-root common-subexpression elimination.
//!   [`Program::eval_scalar`] is the reference evaluator.
//! * [`CompiledProgram`] — the only batch executor: a program after
//!   superinstruction fusion, lowered to a direct-threaded step table
//!   over fixed-width register blocks. It is bit-identical to
//!   [`Program::eval_scalar`] on every finite row, and is what makes the
//!   paper's "batched value substitution" fast.
//!
//! # Example
//!
//! ```
//! use mist_symbolic::{BatchBindings, CompiledProgram, CompiledWorkspace, Context};
//!
//! let ctx = Context::new();
//! let b = ctx.symbol("b");            // micro-batch size
//! let tp = ctx.symbol("tp");          // tensor-parallel degree
//! let bytes = b * 4096.0 * 2.0 / tp;  // activation bytes per layer
//!
//! assert_eq!(ctx.eval(bytes, &[("b", 4.0), ("tp", 2.0)]).unwrap(), 16384.0);
//!
//! let program = CompiledProgram::compile(&ctx.compile_program(&[("bytes", bytes)]));
//! let mut batch = BatchBindings::new(2);
//! batch.set_values("b", vec![1.0, 4.0]).set_scalar("tp", 2.0);
//! let mut ws = CompiledWorkspace::new();
//! program.eval_batch(&batch, &mut ws).unwrap();
//! assert_eq!(ws.output(0), &[4096.0, 16384.0]);
//! ```

#![warn(missing_docs)]

mod compiled;
mod context;
mod display;
mod error;
mod fuse;
mod node;
mod program;
mod tape;

pub use compiled::{CompiledProgram, CompiledWorkspace};
pub use context::{Context, Expr};
pub use error::SymbolicError;
pub use fuse::fuse_superinstructions;
pub use node::{CmpOp, ExprId, Node, SymbolId};
pub use program::{Instr, Program, SymbolTable};
pub use tape::{BatchBindings, Column};
