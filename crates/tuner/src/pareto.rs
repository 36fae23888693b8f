//! Pareto-frontier extraction and sampling.
//!
//! Intra-stage tuning produces many `(t, d)` pairs per candidate; only the
//! non-dominated ones can appear in an optimal pipeline (paper §5.3). The
//! frontier is extracted exactly, then down-sampled to `K` points picked
//! evenly by index. That is *not* the paper's uniform-`α` sampling of
//! `α·G·t + (1−α)·d`, and it can drop the point an optimal plan needs
//! (DESIGN.md, "Pareto sampling gap").

/// Returns the indices of the Pareto-optimal `(t, d)` points (minimizing
/// both), sorted by increasing `t`.
///
/// Duplicate-coordinate points keep only the first occurrence.
pub fn pareto_frontier(points: &[(f64, f64)]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then(points[a].1.total_cmp(&points[b].1))
    });
    let mut out: Vec<usize> = Vec::new();
    let mut best_d = f64::INFINITY;
    let mut last_t = f64::NAN;
    for &i in &idx {
        let (t, d) = points[i];
        if t == last_t {
            continue; // Same t: the earlier (smaller-d) one dominates.
        }
        if d < best_d {
            out.push(i);
            best_d = d;
            last_t = t;
        }
    }
    out
}

/// Down-samples a frontier (indices into `points`, sorted by `t`) to at
/// most `k` entries: always keeps both endpoints, fills the middle with
/// evenly spaced picks.
pub fn sample_frontier(frontier: &[usize], k: usize) -> Vec<usize> {
    assert!(k >= 1);
    if frontier.len() <= k {
        return frontier.to_vec();
    }
    if k == 1 {
        return vec![frontier[0]];
    }
    let mut out = Vec::with_capacity(k);
    let n = frontier.len();
    for j in 0..k {
        let pos = j * (n - 1) / (k - 1);
        out.push(frontier[pos]);
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominated_points_are_dropped() {
        let pts = vec![(1.0, 5.0), (2.0, 3.0), (3.0, 4.0), (4.0, 1.0), (2.5, 3.5)];
        let f = pareto_frontier(&pts);
        assert_eq!(f, vec![0, 1, 3]);
    }

    #[test]
    fn single_point_is_its_own_frontier() {
        assert_eq!(pareto_frontier(&[(1.0, 1.0)]), vec![0]);
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn all_nondominated_survive_in_t_order() {
        let pts = vec![(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)];
        let f = pareto_frontier(&pts);
        assert_eq!(f, vec![1, 2, 0]);
    }

    #[test]
    fn duplicates_keep_one() {
        let pts = vec![(1.0, 2.0), (1.0, 2.0), (1.0, 1.0)];
        let f = pareto_frontier(&pts);
        assert_eq!(f.len(), 1);
        assert_eq!(pts[f[0]], (1.0, 1.0));
    }

    #[test]
    fn sampling_keeps_endpoints() {
        let frontier: Vec<usize> = (0..20).collect();
        let s = sample_frontier(&frontier, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(*s.first().unwrap(), 0);
        assert_eq!(*s.last().unwrap(), 19);
    }

    #[test]
    fn sampling_never_exceeds_k_or_input() {
        let frontier: Vec<usize> = (0..3).collect();
        assert_eq!(sample_frontier(&frontier, 10), vec![0, 1, 2]);
        assert_eq!(sample_frontier(&frontier, 1), vec![0]);
    }

    #[test]
    fn infinite_t_points_never_dominate() {
        let pts = vec![(f64::INFINITY, 0.0), (1.0, 1.0)];
        let f = pareto_frontier(&pts);
        assert!(f.contains(&1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn frontier_is_mutually_nondominated(
            pts in prop::collection::vec((0.1f64..100.0, 0.0f64..100.0), 1..60)
        ) {
            let f = pareto_frontier(&pts);
            prop_assert!(!f.is_empty());
            for &i in &f {
                for &j in &f {
                    if i != j {
                        let dominated = pts[j].0 <= pts[i].0
                            && pts[j].1 <= pts[i].1
                            && (pts[j].0 < pts[i].0 || pts[j].1 < pts[i].1);
                        prop_assert!(!dominated, "{i} dominated by {j}");
                    }
                }
            }
            // The frontier contains the global minima of both axes.
            let min_t = pts.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
            let min_d = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            prop_assert!(f.iter().any(|&i| pts[i].0 == min_t));
            prop_assert!(f.iter().any(|&i| pts[i].1 == min_d));
        }

        #[test]
        fn every_point_is_dominated_by_some_frontier_point(
            pts in prop::collection::vec((0.1f64..100.0, 0.0f64..100.0), 1..60)
        ) {
            let f = pareto_frontier(&pts);
            for (k, p) in pts.iter().enumerate() {
                let covered = f.iter().any(|&i| pts[i].0 <= p.0 && pts[i].1 <= p.1);
                prop_assert!(covered, "point {k} uncovered");
            }
        }

        #[test]
        fn sampling_is_a_subsequence(k in 1usize..10, n in 1usize..40) {
            let frontier: Vec<usize> = (0..n).map(|i| i * 3).collect();
            let s = sample_frontier(&frontier, k);
            prop_assert!(s.len() <= k.max(1).min(n));
            // Subsequence check.
            let mut it = frontier.iter();
            for v in &s {
                prop_assert!(it.any(|x| x == v));
            }
        }
    }
}
