//! Static analysis over compiled symbolic SSA programs.
//!
//! Every number Mist reports — stage runtimes, peak memory, the pipeline
//! objective — comes out of a compiled [`Program`](mist_symbolic::Program),
//! yet evaluation alone cannot tell a correct cost model from one that
//! adds bytes to seconds or divides by a tuner knob that sweeps through
//! zero. This crate is the missing static check: three cooperating
//! analyses over the SSA instruction stream, reported as
//! severity-sorted [`Diagnostic`]s.
//!
//! 1. **Unit inference** ([`Unit`], [`UnitRegistry`]) — symbols carry
//!    declared units (bytes, seconds, elements, dimensionless); units
//!    propagate through every opcode and mismatches are errors.
//! 2. **Interval analysis** ([`AbstractValue`], [`DomainMap`]) — symbol
//!    domains from the tuner's search space are pushed through the
//!    program to prove every root finite and non-negative over the whole
//!    sweep, and to flag reachable division by zero and `Select` guards
//!    that are constant over the domain.
//! 3. **Dead-code detection** — instructions that can never influence a
//!    root (untaken branches of constant guards) and symbols read only
//!    by such code.
//!
//! # Example
//!
//! ```
//! use mist_irlint::{lint_program, DomainMap, SymbolDomain, Unit, UnitRegistry};
//! use mist_symbolic::Context;
//!
//! let ctx = Context::new();
//! let bytes = ctx.symbol("bytes");
//! let secs = ctx.symbol("secs");
//! let program = ctx.compile_program(&[("bandwidth", bytes / secs)]);
//!
//! let registry = UnitRegistry::new()
//!     .declare_symbol("bytes", Unit::BYTES)
//!     .declare_symbol("secs", Unit::SECONDS);
//! let domains = DomainMap::new()
//!     .declare("bytes", SymbolDomain::new(0.0, 1e12, true))
//!     .declare("secs", SymbolDomain::new(1e-6, 60.0, false));
//!
//! let report = lint_program(&program, &registry, &domains, "example");
//! assert!(report.is_clean());
//! assert!(report.root_bounds[0].lo >= 0.0);
//! ```

#![warn(missing_docs)]

mod deadcode;
mod diag;
mod domain;
pub mod framework;
mod interval;
mod lint;
pub mod mono;
mod unit;

pub use diag::{Analysis, Diagnostic, LintReport, RootBounds, Severity};
pub use domain::{DomainMap, SymbolDomain};
pub use framework::{fixpoint, Direction, FactEnv, Lattice, TransferFunction};
pub use interval::{root_intervals, AbstractValue};
pub use lint::lint_program;
pub use mono::{monotonicity, Mono, MonoReport, RootMono};
pub use unit::{DimExponents, Unit, UnitRegistry};
