//! Folding per-stream totals into microbatch times via the interference
//! model (Eq. 5/6).

use mist_graph::StagePoint;
use mist_interference::InterferenceModel;
use serde::{Deserialize, Serialize};

/// The `(t, d)` decomposition of a stage's runtime (paper Fig. 10):
/// `t` is the stable-microbatch wall-clock; `d` the extra wall-clock the
/// first and last microbatches add on top of one stable microbatch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageStreams {
    /// Stable microbatch time `t` (seconds).
    pub t: f64,
    /// First/last-microbatch delta `d` (seconds, ≥ 0).
    pub d: f64,
}

/// Computes `t = I(fwd) + I(bwd)` and
/// `d = I(fwd + first_extra) + I(bwd + last_extra) − t` for one stage
/// point (Eq. 5/6). Interference is applied *within* each phase: forward
/// transfers overlap forward compute, never backward compute.
pub fn stage_times(point: &StagePoint, model: &InterferenceModel) -> StageStreams {
    let i = |streams: [f64; 4]| model.predict(StagePoint::interference_tuple(streams));
    let t = i(point.fwd) + i(point.bwd);
    let first = add(point.fwd, point.first_extra);
    let last = add(point.bwd, point.last_extra);
    let d = (i(first) + i(last) - t).max(0.0);
    StageStreams { t, d }
}

/// A stage's `(t, d)` as a search space costs it: through the
/// interference model ([`stage_times`]) when `overlap_aware`, otherwise
/// as serial stream sums (the overlap-unaware baselines, shortcoming #1).
pub fn stage_streams(
    point: &StagePoint,
    model: &InterferenceModel,
    overlap_aware: bool,
) -> StageStreams {
    if overlap_aware {
        return stage_times(point, model);
    }
    let sum = |s: [f64; 4]| s.iter().sum::<f64>();
    StageStreams {
        t: sum(point.fwd) + sum(point.bwd),
        d: sum(point.first_extra) + sum(point.last_extra),
    }
}

fn add(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> StagePoint {
        StagePoint {
            mem_fwd: 0.0,
            mem_bwd: 0.0,
            mem_resident: 0.0,
            mem_act_per_mb: 0.0,
            mem_transient_fwd: 0.0,
            mem_transient_bwd: 0.0,
            fwd: [10e-3, 2e-3, 1e-3, 1e-3],
            bwd: [20e-3, 2e-3, 0.0, 2e-3],
            first_extra: [3e-3, 1e-3, 0.0, 4e-3],
            last_extra: [0.0, 5e-3, 2e-3, 0.0],
        }
    }

    #[test]
    fn stable_time_reflects_overlap() {
        let m = InterferenceModel::pcie_defaults();
        let st = stage_times(&point(), &m);
        // Never better than pure compute, never worse than serial sum.
        assert!(st.t >= 30e-3);
        let serial: f64 = point().fwd.iter().sum::<f64>() + point().bwd.iter().sum::<f64>();
        assert!(st.t < serial);
    }

    #[test]
    fn delta_is_nonnegative_and_grows_with_extras() {
        let m = InterferenceModel::pcie_defaults();
        let mut p = point();
        let d1 = stage_times(&p, &m).d;
        p.first_extra[3] *= 4.0;
        let d2 = stage_times(&p, &m).d;
        assert!(d1 >= 0.0);
        assert!(d2 > d1);
    }

    #[test]
    fn extras_can_hide_inside_compute() {
        // A small extra transfer under a long compute phase costs almost
        // nothing extra — the overlap-centric schedule at work.
        let m = InterferenceModel::nvlink_defaults();
        let p = StagePoint {
            mem_fwd: 0.0,
            mem_bwd: 0.0,
            mem_resident: 0.0,
            mem_act_per_mb: 0.0,
            mem_transient_fwd: 0.0,
            mem_transient_bwd: 0.0,
            fwd: [50e-3, 0.0, 0.0, 0.0],
            bwd: [100e-3, 0.0, 0.0, 0.0],
            first_extra: [0.0, 0.0, 0.0, 5e-3],
            last_extra: [0.0, 0.0, 0.0, 0.0],
        };
        let st = stage_times(&p, &m);
        assert!(st.d < 1e-3, "delta {} should be mostly hidden", st.d);
    }

    #[test]
    fn zero_extras_give_zero_delta() {
        let m = InterferenceModel::pcie_defaults();
        let mut p = point();
        p.first_extra = [0.0; 4];
        p.last_extra = [0.0; 4];
        let st = stage_times(&p, &m);
        assert!(st.d.abs() < 1e-12);
    }
}
