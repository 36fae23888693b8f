//! Empty on purpose.
//!
//! The inter-stage tuner solves Eq. 2 with an exact dynamic program
//! (`mist_tuner::solve_inter_stage`), so this package holds no code. It
//! stays, with its dependency edges, only because `perfbench/Cargo.lock`
//! records them: without the package, the benchmark's unlocked build
//! would rewrite that lock file. The benchmark change that refreshes the
//! lock removes this package.
