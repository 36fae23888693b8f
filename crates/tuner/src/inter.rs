//! Inter-stage tuning: layer partitioning + Pareto-point selection
//! (paper §5.3, Eq. 2), solved exactly by a Pareto-state dynamic program.
//!
//! Given per-stage-index Pareto frontiers (one family per layer count),
//! choose one `(l_i, f_i)` per stage such that `Σ l_i = L` and the
//! imbalance-aware pipeline objective (Eq. 1) is minimal:
//!
//! `(G−1)·max_i t_i + Σ_i t_i + max(0, max_i (d_i − Σ_{j<i} t_j))`.
//!
//! The paper hands Eq. 2 to an off-the-shelf MILP solver. The objective
//! is not separable, but after a stage prefix its *sufficient statistic*
//! is the triple `(max t, Σ t, max exposed d)`, where stage `i`'s exposed
//! delta is `d_i − Σ_{j<i} t_j` (deltas hide in the fill bubble before
//! them). [`solve_inter_stage`] runs a forward DP over `(stage, layers
//! used)` cells, each holding the non-dominated triples of the prefixes
//! that reach it. The DP is exact because domination is componentwise
//! and every completion preserves it: a prefix with no larger `max t`
//! and `Σ t` never has a larger bottleneck or sum term, and although a
//! smaller `Σ t` raises each later exposed term, it raises it by at most
//! what it saves in the `Σ t` term. So some optimal assignment always
//! extends a retained prefix.
//!
//! The DP's only inexactness is the `1e-15` tie tolerance of
//! `dominates`: a state may be dropped for one that is worse by at
//! most that much per component. Cells stay small in practice, so no
//! cap is needed: across the fig binaries, the test suite and CLI
//! tunes up to Falcon-40B on 64 A100s, the largest held 100 states.
//!
//! When the space is *not* imbalance-aware (prior systems), candidate
//! times are pre-blended to `t + d/G` and deltas are dropped — exactly
//! the "averaged microbatch" approximation of Shortcoming #3.
//! [`enumerate_inter_stage`] is the brute-force reference the DP is
//! tested against.

use mist_schedule::{mist_objective, StageStreams};
use serde::{Deserialize, Serialize};

use crate::intra::ParetoPoint;
use crate::space::SearchSpace;

/// Result of inter-stage tuning for one `(G, S, device assignment)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterStageSolution {
    /// The chosen Pareto point of each stage (carrying layers, config
    /// and streams), pipeline order.
    pub choices: Vec<ParetoPoint>,
    /// The true Eq. 1 objective of the chosen plan (seconds/iteration).
    pub objective: f64,
    /// The objective *as the space's own predictor sees it* — equals
    /// `objective` for imbalance-aware spaces, the blended `t + d/G`
    /// approximation otherwise. Cross-candidate selection must use this
    /// (a flawed predictor picks by its own flawed metric).
    pub selector_objective: f64,
}

/// The Eq. 1 objective of one stage assignment.
pub(crate) fn true_objective(choices: &[&ParetoPoint], g: u32) -> f64 {
    let streams: Vec<StageStreams> = choices
        .iter()
        .map(|p| StageStreams { t: p.t, d: p.d })
        .collect();
    mist_objective(&streams, g)
}

/// The objective as a (possibly imbalance-unaware) predictor sees it.
pub(crate) fn selector_objective(choices: &[&ParetoPoint], g: u32, imbalance_aware: bool) -> f64 {
    if imbalance_aware {
        return true_objective(choices, g);
    }
    let blended: Vec<StageStreams> = choices
        .iter()
        .map(|p| StageStreams {
            t: p.t + p.d / g as f64,
            d: 0.0,
        })
        .collect();
    mist_objective(&blended, g)
}

/// Layer counts stage `i` may take: `L/S ± window`, clamped to `[1, L]`
/// (`u32::MAX` disables the window).
fn layer_candidates(total_layers: u32, num_stages: u32, window: u32) -> Vec<u32> {
    let base = total_layers / num_stages;
    let lo = base.saturating_sub(window).max(1);
    let hi = base
        .saturating_add(window)
        .saturating_add(u32::from(!total_layers.is_multiple_of(num_stages)))
        .min(total_layers);
    (lo..=hi).collect()
}

/// Provenance statistics of one inter-stage DP solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterSolveStats {
    /// Pareto states alive across all DP cells after pruning.
    pub dp_states: u64,
    /// Transitions discarded because their objective lower bound
    /// crossed the incumbent-derived cutoff.
    pub bound_pruned: u64,
    /// Whether a `None` result was caused by the cutoff (the instance
    /// may have had feasible assignments, all provably worse than the
    /// incumbent) rather than by plain infeasibility.
    pub cutoff_hit: bool,
    /// Best complete selector objective found and then rejected by the
    /// cutoff (exact — the shape's best, had there been no incumbent,
    /// when the bound pruning did not truncate the search first).
    pub best_rejected: Option<f64>,
    /// Smallest objective lower bound among cutoff-pruned transitions: a
    /// proven lower bound on what the truncated subtrees could have
    /// achieved. The shape's killing constraint when no complete
    /// assignment survived.
    pub pruned_bound: Option<f64>,
}

/// One DP state: sufficient statistics of a stage prefix plus the
/// back-pointer for plan reconstruction.
#[derive(Debug, Clone, Copy)]
struct State {
    max_t: f64,
    sum_t: f64,
    exposed: f64,
    /// (candidate index in the stage's list, predecessor state index).
    back: (usize, usize),
}

/// Componentwise domination, with a `1e-15` tie tolerance that keeps
/// near-duplicate states out of the cells.
fn dominates(a: &State, b: &State) -> bool {
    a.max_t <= b.max_t + 1e-15 && a.sum_t <= b.sum_t + 1e-15 && a.exposed <= b.exposed + 1e-15
}

/// Solves the inter-stage problem exactly with the Pareto-state DP.
///
/// `frontiers[i][l − 1]` is the sampled frontier of stage `i` with `l`
/// layers. `cutoff` is the driver's best selector objective so far:
/// transitions whose objective lower bound reaches it are pruned, and a
/// best assignment that reaches it is rejected. `stats` receives the
/// live state count, the pruned transitions and, for a `None` result,
/// whether the cutoff caused it. Returns `None` when no assignment
/// beats the cutoff or none is feasible.
pub fn solve_inter_stage(
    frontiers: &[&Vec<Vec<ParetoPoint>>],
    total_layers: u32,
    grad_accum: u32,
    space: &SearchSpace,
    cutoff: f64,
    stats: &mut InterSolveStats,
) -> Option<InterStageSolution> {
    let s = frontiers.len();
    assert!(s >= 1);
    let g = grad_accum as f64;
    let stage_t = |p: &ParetoPoint| {
        if space.imbalance_aware {
            p.t
        } else {
            p.t + p.d / g
        }
    };
    let stage_d = |p: &ParetoPoint| if space.imbalance_aware { p.d } else { 0.0 };

    // Candidate lists per stage, restricted to the layer window.
    let lcands = layer_candidates(total_layers, s as u32, space.layer_window);
    let mut cands: Vec<Vec<&ParetoPoint>> = Vec::with_capacity(s);
    for fr in frontiers {
        let mut list: Vec<&ParetoPoint> = Vec::new();
        for &l in &lcands {
            if let Some(points) = fr.get(l as usize - 1) {
                list.extend(points.iter());
            }
        }
        if list.is_empty() {
            return None;
        }
        cands.push(list);
    }

    let lmax = total_layers as usize;
    // table[stage][layers] = Pareto-pruned states.
    let mut prev: Vec<Vec<State>> = vec![Vec::new(); lmax + 1];
    let mut backs: Vec<Vec<Vec<State>>> = Vec::with_capacity(s);

    // Stage 0.
    for (c, p) in cands[0].iter().enumerate() {
        let l = p.config.layers as usize;
        if l > lmax {
            continue;
        }
        let st = State {
            max_t: stage_t(p),
            sum_t: stage_t(p),
            exposed: stage_d(p),
            back: (c, usize::MAX),
        };
        insert_state(&mut prev[l], st);
    }
    backs.push(prev.clone());

    for (stage, stage_cands) in cands.iter().enumerate().skip(1) {
        let mut next: Vec<Vec<State>> = vec![Vec::new(); lmax + 1];
        for (layers, states) in prev.iter().enumerate() {
            if states.is_empty() {
                continue;
            }
            // Remaining stages need at least one layer each.
            if layers + (s - stage) > lmax {
                continue;
            }
            for (si, st) in states.iter().enumerate() {
                for (c, p) in stage_cands.iter().enumerate() {
                    let l = layers + p.config.layers as usize;
                    if l > lmax {
                        continue;
                    }
                    let t = stage_t(p);
                    let d = stage_d(p);
                    let ns = State {
                        max_t: st.max_t.max(t),
                        sum_t: st.sum_t + t,
                        exposed: st.exposed.max(d - st.sum_t),
                        back: (c, si),
                    };
                    // Cutoff-based pruning on a lower bound of the final
                    // objective.
                    let lb = (g - 1.0) * ns.max_t + ns.sum_t + ns.exposed.max(0.0);
                    if lb >= cutoff {
                        stats.bound_pruned += 1;
                        stats.pruned_bound =
                            Some(stats.pruned_bound.map_or(lb, |prev| prev.min(lb)));
                        continue;
                    }
                    insert_state(&mut next[l], ns);
                }
            }
        }
        backs.push(next.clone());
        prev = next;
    }

    stats.dp_states = backs
        .iter()
        .flat_map(|table| table.iter())
        .map(|cell| cell.len() as u64)
        .sum();
    mist_telemetry::counter_add("inter.dp_states", stats.dp_states);

    // Pick the best full assignment.
    let finals = &prev[lmax];
    let Some((best_idx, best_sel)) = finals
        .iter()
        .enumerate()
        .map(|(i, st)| ((g - 1.0) * st.max_t + st.sum_t + st.exposed.max(0.0), i))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(sel, i)| (i, sel))
    else {
        // An empty final cell after bound-pruning means the cutoff (not
        // the instance) emptied the search.
        stats.cutoff_hit = stats.bound_pruned > 0;
        return None;
    };
    if best_sel >= cutoff {
        stats.cutoff_hit = true;
        stats.best_rejected = Some(best_sel);
        return None;
    }

    // Reconstruct: walk back pointers through the per-stage tables.
    let mut picked: Vec<&ParetoPoint> = Vec::with_capacity(s);
    let mut layers = lmax;
    let mut state = finals[best_idx];
    for stage in (0..s).rev() {
        let (c, back_idx) = state.back;
        let p = cands[stage][c];
        picked.push(p);
        layers -= p.config.layers as usize;
        if stage > 0 {
            state = backs[stage - 1][layers][back_idx];
        }
    }
    picked.reverse();
    Some(InterStageSolution {
        objective: true_objective(&picked, grad_accum),
        selector_objective: best_sel,
        choices: picked.into_iter().cloned().collect(),
    })
}

/// Inserts a state unless the cell already holds one that dominates it,
/// evicting the states it dominates.
fn insert_state(cell: &mut Vec<State>, st: State) {
    if cell.iter().any(|existing| dominates(existing, &st)) {
        return;
    }
    cell.retain(|e| !dominates(&st, e));
    cell.push(st);
}

/// Exhaustive inter-stage solver: the brute-force reference for
/// [`solve_inter_stage`]. Only practical for small instances (a few
/// stages, narrow windows).
pub fn enumerate_inter_stage(
    frontiers: &[&Vec<Vec<ParetoPoint>>],
    total_layers: u32,
    grad_accum: u32,
    space: &SearchSpace,
) -> Option<InterStageSolution> {
    let s = frontiers.len();
    let lcands = layer_candidates(total_layers, s as u32, space.layer_window);
    let mut best: Option<InterStageSolution> = None;
    let mut stack: Vec<&ParetoPoint> = Vec::with_capacity(s);
    #[allow(clippy::too_many_arguments)]
    fn recurse<'p>(
        frontiers: &[&'p Vec<Vec<ParetoPoint>>],
        lcands: &[u32],
        stage: usize,
        layers_left: i64,
        grad_accum: u32,
        space: &SearchSpace,
        stack: &mut Vec<&'p ParetoPoint>,
        best: &mut Option<InterStageSolution>,
    ) {
        let s = frontiers.len();
        if stage == s {
            if layers_left != 0 {
                return;
            }
            let sel = selector_objective(stack, grad_accum, space.imbalance_aware);
            let better = best.as_ref().is_none_or(|b| sel < b.selector_objective);
            if better {
                *best = Some(InterStageSolution {
                    choices: stack.iter().map(|p| (*p).clone()).collect(),
                    objective: true_objective(stack, grad_accum),
                    selector_objective: sel,
                });
            }
            return;
        }
        for &l in lcands {
            let left = layers_left - l as i64;
            if left < (s - stage - 1) as i64 {
                continue;
            }
            if let Some(points) = frontiers[stage].get(l as usize - 1) {
                for p in points {
                    stack.push(p);
                    recurse(
                        frontiers,
                        lcands,
                        stage + 1,
                        left,
                        grad_accum,
                        space,
                        stack,
                        best,
                    );
                    stack.pop();
                }
            }
        }
    }
    recurse(
        frontiers,
        &lcands,
        0,
        total_layers as i64,
        grad_accum,
        space,
        &mut stack,
        &mut best,
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mist_graph::{StageCandidate, StageConfigValues, StageRole};
    use mist_hardware::DeviceMesh;

    fn mk_point(l: u32, t: f64, d: f64) -> ParetoPoint {
        ParetoPoint {
            t,
            d,
            mem_peak: 1.0,
            candidate: StageCandidate {
                mesh: DeviceMesh::new(1, 1),
                dp: 1,
                tp: 1,
                micro_batch: 1,
                role: StageRole::Middle,
            },
            config: StageConfigValues::plain(l, 1),
        }
    }

    /// A frontier family where a stage of `l` layers costs `l·per_layer`,
    /// with a cheap-t/high-d alternative at each size.
    fn family(max_l: u32, per_layer: f64) -> Vec<Vec<ParetoPoint>> {
        (1..=max_l)
            .map(|l| {
                vec![
                    mk_point(l, l as f64 * per_layer, 0.0),
                    mk_point(l, l as f64 * per_layer * 0.8, 0.6),
                ]
            })
            .collect()
    }

    fn space() -> SearchSpace {
        SearchSpace {
            layer_window: 8,
            ..SearchSpace::mist()
        }
    }

    /// The DP with no cutoff.
    fn solve(
        frontiers: &[&Vec<Vec<ParetoPoint>>],
        total_layers: u32,
        grad_accum: u32,
        space: &SearchSpace,
    ) -> Option<InterStageSolution> {
        let mut stats = InterSolveStats::default();
        solve_inter_stage(
            frontiers,
            total_layers,
            grad_accum,
            space,
            f64::INFINITY,
            &mut stats,
        )
    }

    #[test]
    fn single_stage_picks_best_point() {
        let f = family(8, 1.0);
        let sol = solve(&[&f], 8, 4, &space()).unwrap();
        assert_eq!(sol.choices.len(), 1);
        assert_eq!(sol.choices[0].config.layers, 8);
        // With G=4 the 0.8·t / 0.6·d point wins: 4·6.4+0.6 < 4·8.
        assert!(sol.choices[0].d > 0.0);
    }

    /// Seeded frontier families on a dyadic grid, with some layer counts
    /// left empty. `t` is a multiple of 1/64 and `d` of 3/64, so the
    /// blended `t + d/G` of every tested `G` is a multiple of 1/256 and
    /// every sum and `(G−1)·max` the objective forms is exact.
    fn dyadic_families(stages: usize, max_l: u32, seed: u64) -> Vec<Vec<Vec<ParetoPoint>>> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        (0..stages)
            .map(|_| {
                (1..=max_l)
                    .map(|l| {
                        (0..next(4))
                            .map(|_| {
                                let t = (l as u64 * 16 + next(48)) as f64 / 64.0;
                                let d = (3 * next(32)) as f64 / 64.0;
                                mk_point(l, t, d)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn dp_matches_brute_force_oracle() {
        const L: u32 = 7;
        let (mut seed, mut solved) = (0u64, 0);
        for stages in 1..=4usize {
            for g in [1u32, 4, 12, 32] {
                for imbalance_aware in [true, false] {
                    for layer_window in [0, 1, u32::MAX] {
                        for _ in 0..3 {
                            seed += 1;
                            let owned = dyadic_families(stages, L, seed);
                            let fr: Vec<&Vec<Vec<ParetoPoint>>> = owned.iter().collect();
                            let sp = SearchSpace {
                                imbalance_aware,
                                layer_window,
                                ..SearchSpace::mist()
                            };
                            let case = format!(
                                "S={stages} G={g} aware={imbalance_aware} \
                                 window={layer_window} seed={seed}"
                            );
                            solved += usize::from(check_against_oracle(&fr, L, g, &sp, &case));
                        }
                    }
                }
            }
        }
        // 235 of the 288 instances are feasible; the rest check that the
        // DP agrees on infeasibility.
        assert!(solved > 200, "only {solved} feasible instances");
    }

    /// The hand-built `family` fixtures, with stages of different speeds and
    /// per-layer costs off the dyadic grid.
    #[test]
    fn dp_matches_oracle_on_heterogeneous_families() {
        let sp = space();
        for (g, scale) in [(4u32, 1.0f64), (12, 1.7), (32, 0.6)] {
            let f0 = family(12, scale);
            let f1 = family(12, 1.5 * scale);
            let f2 = family(12, 0.8 * scale);
            let case = format!("S=3 G={g} scale={scale}");
            assert!(check_against_oracle(&[&f0, &f1, &f2], 12, g, &sp, &case));
        }
        let f0 = family(12, 1.0);
        let f1 = family(12, 1.5);
        assert!(check_against_oracle(&[&f0, &f1], 12, 6, &sp, "S=2 G=6"));
    }

    /// Checks the DP on one instance and returns whether it is feasible.
    fn check_against_oracle(
        fr: &[&Vec<Vec<ParetoPoint>>],
        total_layers: u32,
        g: u32,
        sp: &SearchSpace,
        case: &str,
    ) -> bool {
        let oracle = enumerate_inter_stage(fr, total_layers, g, sp);
        let mut stats = InterSolveStats::default();
        let dp = solve_inter_stage(fr, total_layers, g, sp, f64::INFINITY, &mut stats);
        let Some(best) = oracle else {
            assert!(dp.is_none(), "{case}: the oracle finds no assignment");
            assert!(!stats.cutoff_hit, "{case}");
            // Infeasible stays infeasible under any cutoff.
            let mut stats = InterSolveStats::default();
            assert!(solve_inter_stage(fr, total_layers, g, sp, 1.0, &mut stats).is_none());
            return false;
        };
        let dp = dp.unwrap_or_else(|| panic!("{case}: the oracle solves it, the DP does not"));
        let picked: Vec<&ParetoPoint> = dp.choices.iter().collect();
        assert_eq!(
            dp.selector_objective.to_bits(),
            best.selector_objective.to_bits(),
            "{case}"
        );
        assert_eq!(
            dp.selector_objective.to_bits(),
            selector_objective(&picked, g, sp.imbalance_aware).to_bits(),
            "{case}"
        );
        let streams: Vec<StageStreams> = picked
            .iter()
            .map(|p| StageStreams { t: p.t, d: p.d })
            .collect();
        assert_eq!(
            dp.objective.to_bits(),
            mist_objective(&streams, g).to_bits(),
            "{case}"
        );
        let layers: u32 = dp.choices.iter().map(|p| p.config.layers).sum();
        assert_eq!(layers, total_layers, "{case}");
        assert!(
            stats.dp_states >= fr.len() as u64,
            "{case}: states not counted"
        );

        // A cutoff strictly above the optimum keeps it; one at or below
        // rejects the shape and says so.
        for (cutoff, solved) in [
            (best.selector_objective + 1.0 / 64.0, true),
            (best.selector_objective, false),
            (best.selector_objective / 2.0, false),
        ] {
            let mut stats = InterSolveStats::default();
            let sol = solve_inter_stage(fr, total_layers, g, sp, cutoff, &mut stats);
            assert_eq!(sol.is_some(), solved, "{case} cutoff={cutoff}");
            match sol {
                Some(sol) => assert_eq!(
                    sol.selector_objective.to_bits(),
                    best.selector_objective.to_bits(),
                    "{case} cutoff={cutoff}"
                ),
                None => assert!(stats.cutoff_hit, "{case} cutoff={cutoff}"),
            }
        }
        true
    }

    #[test]
    fn faster_stage_gets_more_layers() {
        let f0 = family(12, 0.5); // Twice as fast.
        let f1 = family(12, 1.0);
        let sol = solve(&[&f0, &f1], 12, 8, &space()).unwrap();
        let l0 = sol.choices[0].config.layers;
        let l1 = sol.choices[1].config.layers;
        assert!(l0 > l1, "fast stage {l0} should outweigh slow stage {l1}");
    }

    #[test]
    fn imbalance_unaware_selection_can_differ() {
        // Stage 0 candidates: (t=1.0, d=0) or (t=0.9, d=1.0), G=16. The
        // averaged selector sees the second as 0.9 + 1/16 = 0.96 < 1.0 and
        // takes it, but stage 0's delta is fully exposed (no fill before
        // the first stage), so the true objective is 0.9 more per
        // iteration — the bottleneck-drift trap of Shortcoming #3.
        let f0: Vec<Vec<ParetoPoint>> = vec![vec![mk_point(1, 1.0, 0.0), mk_point(1, 0.9, 1.0)]];
        let f1: Vec<Vec<ParetoPoint>> = vec![vec![mk_point(1, 1.0, 0.0)]];
        let fr = [&f0, &f1];
        let aware = SearchSpace {
            layer_window: 1,
            ..SearchSpace::mist()
        };
        let unaware = SearchSpace {
            imbalance_aware: false,
            ..aware.clone()
        };
        let sa = solve(&fr, 2, 16, &aware).unwrap();
        let su = solve(&fr, 2, 16, &unaware).unwrap();
        assert_eq!(sa.choices[0].d, 0.0, "aware avoids the exposed delta");
        assert!(su.choices[0].d > 0.0, "unaware takes the trap");
        // Both report the TRUE objective; the unaware one is worse.
        assert!(su.objective > sa.objective);
    }

    #[test]
    fn infeasible_when_layers_cannot_sum() {
        // Frontiers only offer l=1 but we need 10 layers over 2 stages
        // with window 0 around base 5 → no l=5 entries.
        let f: Vec<Vec<ParetoPoint>> = vec![vec![mk_point(1, 1.0, 0.0)]];
        let fr = [&f, &f];
        let sp = SearchSpace {
            layer_window: 0,
            ..SearchSpace::mist()
        };
        assert!(solve(&fr, 10, 2, &sp).is_none());
    }

    #[test]
    fn deltas_hidden_in_bubbles_are_free() {
        // Stage 1 may take d=0.5 for a cheaper t; the fill before it
        // (t_0 = 1.0) hides the delta entirely, so the DP should take it.
        let f0: Vec<Vec<ParetoPoint>> = vec![vec![mk_point(1, 1.0, 0.0)]];
        let f1: Vec<Vec<ParetoPoint>> = vec![vec![mk_point(1, 1.0, 0.0), mk_point(1, 0.95, 0.5)]];
        let fr = [&f0, &f1];
        let sp = SearchSpace {
            layer_window: 1,
            ..SearchSpace::mist()
        };
        let sol = solve(&fr, 2, 8, &sp).unwrap();
        assert!(sol.choices[1].d > 0.0, "hidden delta should be exploited");
    }
}
