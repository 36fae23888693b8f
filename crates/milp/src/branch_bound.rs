//! Best-first branch-and-bound for mixed-integer linear programs.
//!
//! The search runs on the `mist-pool` work-stealing pool: sibling
//! subtrees are explored concurrently under a shared best-incumbent
//! bound (read with a relaxed atomic load on the hot pruning path, locked
//! only on improvement). Determinism at any thread count comes from two
//! canonical orderings:
//!
//! * open nodes are popped best-first on `(bound, branch path)`, where
//!   the path — the down/up directions from the root — is a
//!   thread-count-independent identity for every node, and
//! * the incumbent breaks objective ties (within `1e-12`) toward the
//!   lexicographically smallest path, so whichever of two equally good
//!   leaves is *found* first, the same one is *kept*.
//!
//! Pruning only ever discards subtrees whose relaxation bound exceeds the
//! final incumbent objective (plus the configured gap), so the returned
//! solution is the same one the sequential search finds whenever the
//! optimum is unique up to the gap tolerance.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};

use crate::lp::{Lp, LpOutcome};
use crate::simplex::solve_lp;

/// A mixed-integer linear program: an [`Lp`] plus integrality marks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Milp {
    /// The linear relaxation.
    pub lp: Lp,
    /// Indices of variables required to take integer values.
    pub integer_vars: Vec<usize>,
}

/// Solver knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MilpOptions {
    /// Maximum explored branch-and-bound nodes.
    pub max_nodes: usize,
    /// Relative optimality gap at which to stop.
    pub gap: f64,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Known upper bound on the useful objective: subtrees whose LP bound
    /// meets or exceeds it are pruned, and solutions at or above it are
    /// discarded. `INFINITY` disables the cutoff.
    pub cutoff: f64,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            max_nodes: 50_000,
            gap: 1e-6,
            int_tol: 1e-6,
            cutoff: f64::INFINITY,
        }
    }
}

/// Outcome of a MILP solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MilpOutcome {
    /// Proven-optimal (within the gap) integer solution.
    Optimal {
        /// Variable values (integers are exact up to `int_tol`).
        x: Vec<f64>,
        /// Objective value.
        objective: f64,
    },
    /// Best incumbent when the node budget ran out.
    Feasible {
        /// Variable values.
        x: Vec<f64>,
        /// Objective value.
        objective: f64,
        /// Best lower bound proven.
        bound: f64,
    },
    /// No integer-feasible point.
    Infeasible,
    /// Relaxation unbounded.
    Unbounded,
}

impl MilpOutcome {
    /// The solution vector, if any.
    pub fn solution(&self) -> Option<(&[f64], f64)> {
        match self {
            MilpOutcome::Optimal { x, objective } | MilpOutcome::Feasible { x, objective, .. } => {
                Some((x, *objective))
            }
            _ => None,
        }
    }
}

/// Objective ties closer than this are broken on the branch path.
const TIE_TOL: f64 = 1e-12;

#[derive(Debug)]
struct Node {
    bound: f64,
    /// Branch directions from the root (0 = down, 1 = up): a canonical
    /// identity independent of exploration order, used to break bound and
    /// objective ties deterministically.
    path: Vec<u8>,
    extra_bounds: Vec<(usize, f64, f64)>, // (var, lo, hi) overrides.
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.path == other.path
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (relaxation bound, branch path): best-first with a
        // deterministic order among equal bounds.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.path.cmp(&self.path))
    }
}

/// Mutable search front, shared by every worker under one lock. LP
/// solves (the expensive part) happen outside it.
struct SearchState {
    heap: BinaryHeap<Node>,
    /// `(ticket, bound)` of nodes currently being processed: their
    /// children are not in the heap yet, so "heap empty" alone does not
    /// mean the search is finished.
    inflight: Vec<(u64, f64)>,
    next_ticket: u64,
    nodes: usize,
    stopped: bool,
    budget_exhausted: bool,
    /// Smallest relaxation bound among pruned/remaining subtrees — the
    /// proven global lower bound when the search stops early.
    final_bound: f64,
}

/// Best integer-feasible solution found so far.
struct Incumbent {
    x: Vec<f64>,
    obj: f64,
    path: Vec<u8>,
}

struct Search<'a> {
    milp: &'a Milp,
    opts: MilpOptions,
    state: Mutex<SearchState>,
    work_cv: Condvar,
    /// f64 bits of the incumbent objective (`INFINITY` when none): the
    /// relaxed-load fast path for pruning.
    incumbent_bits: AtomicU64,
    incumbent: Mutex<Option<Incumbent>>,
}

impl<'a> Search<'a> {
    fn incumbent_obj(&self) -> f64 {
        f64::from_bits(self.incumbent_bits.load(AtomicOrdering::Relaxed))
    }

    /// Offers an integer-feasible `(x, obj)` found at `path` as the new
    /// incumbent. Ties within [`TIE_TOL`] go to the smaller path, which
    /// makes the winner independent of discovery order.
    fn offer(&self, x: Vec<f64>, obj: f64, path: &[u8]) {
        if obj >= self.opts.cutoff {
            return;
        }
        let mut inc = self.incumbent.lock();
        let better = match &*inc {
            None => true,
            Some(cur) => {
                obj < cur.obj - TIE_TOL || (obj <= cur.obj + TIE_TOL && path < cur.path.as_slice())
            }
        };
        if better {
            // The pruning bound must never increase, even when a tie is
            // re-broken toward a marginally larger objective.
            let bound = match &*inc {
                Some(cur) => obj.min(cur.obj),
                None => obj,
            };
            self.incumbent_bits
                .store(bound.to_bits(), AtomicOrdering::Release);
            *inc = Some(Incumbent {
                x,
                obj,
                path: path.to_vec(),
            });
        }
    }

    /// Pops the next node to process, waiting for in-flight siblings to
    /// publish children when the heap runs dry. Returns `None` when the
    /// search is over (space exhausted, budget, or stop flag).
    fn next_node(&self) -> Option<(u64, Node)> {
        let mut st = self.state.lock();
        loop {
            if st.stopped {
                return None;
            }
            if let Some(node) = st.heap.pop() {
                let inc = self.incumbent_obj();
                let gap_cut = if inc.is_finite() {
                    inc - self.opts.gap * inc.abs().max(1.0)
                } else {
                    f64::INFINITY
                };
                if node.bound >= self.opts.cutoff || node.bound >= gap_cut {
                    st.final_bound = st.final_bound.min(node.bound);
                    continue; // Subtree cannot beat the incumbent/cutoff.
                }
                if st.nodes >= self.opts.max_nodes {
                    st.stopped = true;
                    st.budget_exhausted = true;
                    let mut lb = node.bound;
                    for &(_, b) in &st.inflight {
                        lb = lb.min(b);
                    }
                    st.final_bound = st.final_bound.min(lb);
                    drop(st);
                    self.work_cv.notify_all();
                    return None;
                }
                st.nodes += 1;
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                st.inflight.push((ticket, node.bound));
                return Some((ticket, node));
            }
            if st.inflight.is_empty() {
                drop(st);
                self.work_cv.notify_all();
                return None; // Search space exhausted.
            }
            // Children of in-flight nodes may still arrive; the timeout
            // covers the notify-vs-wait race.
            let (guard, _) = self.work_cv.wait_timeout(st, Duration::from_micros(200));
            st = guard;
        }
    }

    /// Solves one node's relaxation and either records an incumbent or
    /// branches, pushing both children onto the shared heap.
    fn process(&self, node: Node) {
        let mut lp = self.milp.lp.clone();
        let mut empty = false;
        for &(v, lo, hi) in &node.extra_bounds {
            let (clo, chi) = lp.bounds[v];
            let nlo = clo.max(lo);
            let nhi = chi.min(hi);
            if nlo > nhi {
                empty = true;
                break;
            }
            lp.bounds[v] = (nlo, nhi);
        }
        if empty {
            return;
        }
        let (x, obj) = match solve_lp(&lp) {
            LpOutcome::Optimal { x, objective } => (x, objective),
            _ => return,
        };
        // Dominance prune. Ties pass through so the path tie-break can
        // still canonicalize the incumbent; the incumbent only improves
        // over time, so anything pruned here can never win at the end.
        if obj > self.incumbent_obj() + TIE_TOL {
            return;
        }
        match most_fractional(&x, &self.milp.integer_vars, self.opts.int_tol) {
            None => {
                let x = round_ints(x, &self.milp.integer_vars);
                let obj = self.milp.lp.objective_value(&x);
                self.offer(x, obj, &node.path);
            }
            Some(v) => {
                let val = x[v];
                let mut down = node.extra_bounds.clone();
                down.push((v, f64::NEG_INFINITY, val.floor()));
                let mut down_path = node.path.clone();
                down_path.push(0);
                let mut up = node.extra_bounds;
                up.push((v, val.ceil(), f64::INFINITY));
                let mut up_path = node.path;
                up_path.push(1);
                let mut st = self.state.lock();
                st.heap.push(Node {
                    bound: obj,
                    path: down_path,
                    extra_bounds: down,
                });
                st.heap.push(Node {
                    bound: obj,
                    path: up_path,
                    extra_bounds: up,
                });
                drop(st);
                self.work_cv.notify_all();
            }
        }
    }

    /// One worker: drain nodes until the search ends.
    fn run_worker(&self) {
        while let Some((ticket, node)) = self.next_node() {
            self.process(node);
            let mut st = self.state.lock();
            if let Some(i) = st.inflight.iter().position(|&(t, _)| t == ticket) {
                st.inflight.swap_remove(i);
            }
            drop(st);
            self.work_cv.notify_all();
        }
    }
}

/// Solves a MILP by LP-relaxation branch-and-bound with most-fractional
/// branching, on the process-global thread pool.
pub fn solve_milp(milp: &Milp, opts: MilpOptions) -> MilpOutcome {
    solve_milp_on(milp, opts, &mist_pool::global())
}

/// [`solve_milp`] on an explicit pool. The result is identical at any
/// thread count whenever the optimum is unique up to the gap tolerance
/// (see the module docs for the tie-breaking contract).
pub fn solve_milp_on(milp: &Milp, opts: MilpOptions, pool: &mist_pool::ThreadPool) -> MilpOutcome {
    let _span = mist_telemetry::span!(
        "milp.solve",
        vars = milp.lp.objective.len(),
        ints = milp.integer_vars.len()
    );
    // Root relaxation.
    let root = solve_lp(&milp.lp);
    let (root_x, root_obj) = match root {
        LpOutcome::Optimal { x, objective } => (x, objective),
        LpOutcome::Infeasible => return MilpOutcome::Infeasible,
        LpOutcome::Unbounded => return MilpOutcome::Unbounded,
    };
    if most_fractional(&root_x, &milp.integer_vars, opts.int_tol).is_none() {
        return MilpOutcome::Optimal {
            x: round_ints(root_x, &milp.integer_vars),
            objective: root_obj,
        };
    }
    if root_obj >= opts.cutoff {
        return MilpOutcome::Infeasible; // Nothing below the cutoff exists.
    }

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        bound: root_obj,
        path: Vec::new(),
        extra_bounds: Vec::new(),
    });
    let search = Search {
        milp,
        opts,
        state: Mutex::new(SearchState {
            heap,
            inflight: Vec::new(),
            next_ticket: 0,
            nodes: 0,
            stopped: false,
            budget_exhausted: false,
            final_bound: f64::INFINITY,
        }),
        work_cv: Condvar::new(),
        incumbent_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        incumbent: Mutex::new(None),
    };

    let workers = pool.threads();
    if workers <= 1 {
        search.run_worker();
    } else {
        pool.scope(|s| {
            for _ in 0..workers {
                s.spawn(|| search.run_worker());
            }
        });
    }

    let state = search.state.into_inner();
    mist_telemetry::counter_add("milp.nodes_explored", state.nodes as u64);
    match search.incumbent.into_inner() {
        Some(Incumbent { x, obj, .. }) => {
            let proven =
                !state.budget_exhausted && state.final_bound >= obj - opts.gap * obj.abs().max(1.0);
            if proven {
                MilpOutcome::Optimal { x, objective: obj }
            } else {
                MilpOutcome::Feasible {
                    x,
                    objective: obj,
                    bound: state.final_bound.min(obj),
                }
            }
        }
        None => MilpOutcome::Infeasible,
    }
}

fn most_fractional(x: &[f64], ints: &[usize], tol: f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for &v in ints {
        let frac = (x[v] - x[v].round()).abs();
        if frac > tol && best.is_none_or(|(_, b)| frac > b) {
            best = Some((v, frac));
        }
    }
    best.map(|(v, _)| v)
}

fn round_ints(mut x: Vec<f64>, ints: &[usize]) -> Vec<f64> {
    for &v in ints {
        x[v] = x[v].round();
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::{ConstraintOp::*, Lp};

    fn assert_optimal(out: &MilpOutcome, want: f64) -> Vec<f64> {
        match out {
            MilpOutcome::Optimal { x, objective } => {
                assert!(
                    (objective - want).abs() < 1e-5,
                    "objective {objective} want {want}"
                );
                x.clone()
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c with 3a + 4b + 2c ≤ 6, binary → a=0,b=1,c=1 (20)
        let mut lp = Lp::new(3, vec![-10.0, -13.0, -7.0]);
        lp.constrain(vec![(0, 3.0), (1, 4.0), (2, 2.0)], Le, 6.0);
        for v in 0..3 {
            lp.set_bounds(v, 0.0, 1.0);
        }
        let milp = Milp {
            lp,
            integer_vars: vec![0, 1, 2],
        };
        let x = assert_optimal(&solve_milp(&milp, MilpOptions::default()), -20.0);
        assert_eq!(
            x.iter().map(|v| v.round() as i32).collect::<Vec<_>>(),
            vec![0, 1, 1]
        );
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y ≤ 5, ints → 2 (not 2.5).
        let mut lp = Lp::new(2, vec![-1.0, -1.0]);
        lp.constrain(vec![(0, 2.0), (1, 2.0)], Le, 5.0);
        let milp = Milp {
            lp,
            integer_vars: vec![0, 1],
        };
        assert_optimal(&solve_milp(&milp, MilpOptions::default()), -2.0);
    }

    #[test]
    fn mixed_continuous_and_integer() {
        // min 3x + 2y, x int, x + y ≥ 3.7, y ≤ 1.2 → x = 3 (ceil(2.5)),
        // y = 0.7 → obj 10.4? Check: x+y≥3.7, y≤1.2. Options: x=3,y=0.7 →
        // 10.4; x=4,y=0 → 12. So 10.4.
        let mut lp = Lp::new(2, vec![3.0, 2.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Ge, 3.7);
        lp.set_bounds(1, 0.0, 1.2);
        let milp = Milp {
            lp,
            integer_vars: vec![0],
        };
        let x = assert_optimal(&solve_milp(&milp, MilpOptions::default()), 10.4);
        assert!((x[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 ≤ x ≤ 0.6 with x integer.
        let mut lp = Lp::new(1, vec![1.0]);
        lp.set_bounds(0, 0.4, 0.6);
        let milp = Milp {
            lp,
            integer_vars: vec![0],
        };
        assert_eq!(
            solve_milp(&milp, MilpOptions::default()),
            MilpOutcome::Infeasible
        );
    }

    #[test]
    fn assignment_structure_like_inter_stage() {
        // Two stages, each must pick exactly one of three candidates;
        // chosen layer counts must sum to 8; minimize summed times.
        // Candidates (layers, time): s0: (2, 1.0) (4, 1.8) (6, 2.9);
        //                            s1: (2, 1.2) (4, 2.0) (6, 3.1).
        // Feasible combos: (2,6)=4.1, (4,4)=3.8, (6,2)=4.1 → best 3.8.
        let layers = [[2.0, 4.0, 6.0], [2.0, 4.0, 6.0]];
        let times = [[1.0, 1.8, 2.9], [1.2, 2.0, 3.1]];
        let nv = 6;
        let mut obj = vec![0.0; nv];
        for s in 0..2 {
            for j in 0..3 {
                obj[s * 3 + j] = times[s][j];
            }
        }
        let mut lp = Lp::new(nv, obj);
        for s in 0..2 {
            lp.constrain((0..3).map(|j| (s * 3 + j, 1.0)).collect(), Eq, 1.0);
        }
        lp.constrain(
            (0..2)
                .flat_map(|s| (0..3).map(move |j| (s * 3 + j, layers[s][j])))
                .collect(),
            Eq,
            8.0,
        );
        for v in 0..nv {
            lp.set_bounds(v, 0.0, 1.0);
        }
        let milp = Milp {
            lp,
            integer_vars: (0..nv).collect(),
        };
        let x = assert_optimal(&solve_milp(&milp, MilpOptions::default()), 3.8);
        assert!((x[1] - 1.0).abs() < 1e-6 && (x[4] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn respects_node_budget() {
        // A 12-item knapsack with a tiny node cap still returns something
        // feasible (or proven infeasible), never panics.
        let n = 12;
        let mut lp = Lp::new(n, (0..n).map(|i| -((i % 5) as f64 + 1.0)).collect());
        lp.constrain((0..n).map(|i| (i, (i % 3) as f64 + 1.0)).collect(), Le, 9.0);
        for v in 0..n {
            lp.set_bounds(v, 0.0, 1.0);
        }
        let milp = Milp {
            lp: lp.clone(),
            integer_vars: (0..n).collect(),
        };
        let out = solve_milp(
            &milp,
            MilpOptions {
                max_nodes: 5,
                ..Default::default()
            },
        );
        if let Some((x, _)) = out.solution() {
            assert!(lp.is_feasible(x, 1e-5));
        }
    }

    /// A knapsack with several distinct optimal solutions: the path
    /// tie-break must pick the same one at every thread count.
    fn degenerate_knapsack() -> Milp {
        // max a + b + c + d with a + b + c + d ≤ 2, binary: every pair is
        // optimal at objective 2.
        let mut lp = Lp::new(4, vec![-1.0, -1.0, -1.0, -1.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)], Le, 2.0);
        for v in 0..4 {
            lp.set_bounds(v, 0.0, 1.0);
        }
        Milp {
            lp,
            integer_vars: vec![0, 1, 2, 3],
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let problems: Vec<Milp> = vec![
            degenerate_knapsack(),
            {
                let n = 10;
                let mut lp = Lp::new(n, (0..n).map(|i| -((i * 7 % 11) as f64 + 1.0)).collect());
                lp.constrain(
                    (0..n).map(|i| (i, (i * 3 % 5) as f64 + 1.0)).collect(),
                    Le,
                    11.0,
                );
                for v in 0..n {
                    lp.set_bounds(v, 0.0, 1.0);
                }
                Milp {
                    lp,
                    integer_vars: (0..n).collect(),
                }
            },
            {
                // Mixed integer/continuous with an equality.
                let mut lp = Lp::new(3, vec![2.0, 3.0, 1.0]);
                lp.constrain(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Ge, 7.3);
                lp.constrain(vec![(0, 1.0), (1, -1.0)], Le, 2.0);
                lp.set_bounds(2, 0.0, 1.5);
                Milp {
                    lp,
                    integer_vars: vec![0, 1],
                }
            },
        ];
        for (pi, milp) in problems.iter().enumerate() {
            let reference =
                solve_milp_on(milp, MilpOptions::default(), &mist_pool::ThreadPool::new(1));
            for threads in [2, 4, 8] {
                let pool = mist_pool::ThreadPool::new(threads);
                let out = solve_milp_on(milp, MilpOptions::default(), &pool);
                assert_eq!(out, reference, "problem {pi} at {threads} threads");
            }
        }
    }

    #[test]
    fn repeated_parallel_solves_are_stable() {
        // Re-running the degenerate problem many times on the same pool
        // shakes out scheduling races in the tie-break.
        let milp = degenerate_knapsack();
        let pool = mist_pool::ThreadPool::new(4);
        let reference = solve_milp_on(&milp, MilpOptions::default(), &pool);
        assert!(matches!(reference, MilpOutcome::Optimal { .. }));
        for round in 0..25 {
            let out = solve_milp_on(&milp, MilpOptions::default(), &pool);
            assert_eq!(out, reference, "round {round}");
        }
    }

    #[test]
    fn cutoff_prunes_to_infeasible() {
        // The knapsack optimum is −20; a cutoff below it must make the
        // solve infeasible, at any thread count.
        let mut lp = Lp::new(3, vec![-10.0, -13.0, -7.0]);
        lp.constrain(vec![(0, 3.0), (1, 4.0), (2, 2.0)], Le, 6.0);
        for v in 0..3 {
            lp.set_bounds(v, 0.0, 1.0);
        }
        let milp = Milp {
            lp,
            integer_vars: vec![0, 1, 2],
        };
        for threads in [1, 4] {
            let pool = mist_pool::ThreadPool::new(threads);
            let out = solve_milp_on(
                &milp,
                MilpOptions {
                    cutoff: -25.0,
                    ..Default::default()
                },
                &pool,
            );
            assert_eq!(out, MilpOutcome::Infeasible, "threads={threads}");
        }
    }
}
