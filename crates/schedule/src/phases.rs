//! Folding per-stream totals into microbatch times via the interference
//! model (Eq. 5/6).

use mist_graph::{stage_roots, StagePoint};
use mist_interference::InterferenceModel;
use mist_symbolic::CompiledWorkspace;
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
    stage_streams(point, model, true)
}

/// A stage's `(t, d)` as a search space costs it: through the
/// interference model ([`stage_times`]) when `overlap_aware`, otherwise
/// as serial stream sums (the overlap-unaware baselines, shortcoming #1).
///
/// The one-row case of [`stage_streams_columns`]: both run the same
/// arithmetic, so a point's `(t, d)` is bit for bit its sweep row's.
pub fn stage_streams(
    point: &StagePoint,
    model: &InterferenceModel,
    overlap_aware: bool,
) -> StageStreams {
    fn col(quad: &[f64; 4]) -> [&[f64]; 4] {
        quad.each_ref().map(std::slice::from_ref)
    }
    let cols = StreamColumns {
        fwd: col(&point.fwd),
        bwd: col(&point.bwd),
        first_extra: col(&point.first_extra),
        last_extra: col(&point.last_extra),
    };
    let (mut t, mut d) = ([0.0], [0.0]);
    fold_streams::<1>(&cols, model, overlap_aware, &mut t, &mut d);
    StageStreams { t: t[0], d: d[0] }
}

/// [`stage_streams`] for every row of a batch evaluation of the fused
/// stage program: reads the 16 stream roots straight from `ws` and writes
/// row `r`'s `(t, d)` to `t[r]` and `d[r]`.
///
/// # Panics
///
/// Panics if `t` and `d` differ in length from each other or, when
/// non-empty, from `ws`'s output columns, or if `ws` was not filled by
/// the fused stage program.
pub fn stage_streams_columns(
    ws: &CompiledWorkspace,
    model: &InterferenceModel,
    overlap_aware: bool,
    t: &mut [f64],
    d: &mut [f64],
) {
    if t.is_empty() && d.is_empty() {
        return;
    }
    let quad = |base: usize| std::array::from_fn(|s| ws.output(base + s));
    let cols = StreamColumns {
        fwd: quad(stage_roots::FWD),
        bwd: quad(stage_roots::BWD),
        first_extra: quad(stage_roots::FIRST_EXTRA),
        last_extra: quad(stage_roots::LAST_EXTRA),
    };
    fold_streams::<BLOCK>(&cols, model, overlap_aware, t, d);
}

/// Rows per block of [`stage_streams_columns`]: its per-block buffers
/// (twelve columns, 24 KiB) stay in L1d.
const BLOCK: usize = 256;

/// The stream columns of a batch of stage points, each quad in the
/// [`StagePoint`] order `[compute, nccl, d2h, h2d]`.
struct StreamColumns<'a> {
    fwd: [&'a [f64]; 4],
    bwd: [&'a [f64]; 4],
    first_extra: [&'a [f64]; 4],
    last_extra: [&'a [f64]; 4],
}

/// The arithmetic of [`stage_streams`], over blocks of `B` rows: the
/// interference sums go through `B`-row stack buffers, so the columns
/// are read once and nothing is allocated.
fn fold_streams<'a, const B: usize>(
    cols: &StreamColumns<'a>,
    model: &InterferenceModel,
    overlap_aware: bool,
    t: &mut [f64],
    d: &mut [f64],
) {
    let n = t.len();
    assert_eq!(d.len(), n, "one d per t");
    let all = [cols.fwd, cols.bwd, cols.first_extra, cols.last_extra];
    assert!(
        all.iter().flatten().all(|c| c.len() == n),
        "every stream column needs one value per row"
    );
    if !overlap_aware {
        let sum =
            |q: &[&[f64]; 4], r: usize| [q[0][r], q[1][r], q[2][r], q[3][r]].iter().sum::<f64>();
        for r in 0..n {
            t[r] = sum(&cols.fwd, r) + sum(&cols.bwd, r);
            d[r] = sum(&cols.first_extra, r) + sum(&cols.last_extra, r);
        }
        return;
    }
    let mut first = [[0.0; B]; 4];
    let mut last = [[0.0; B]; 4];
    let mut i_fwd = [0.0; B];
    let mut i_bwd = [0.0; B];
    let mut i_first = [0.0; B];
    let mut i_last = [0.0; B];
    for start in (0..n).step_by(B) {
        let m = B.min(n - start);
        let rows = |q: [&'a [f64]; 4]| q.map(|c| &c[start..start + m]);
        let (fwd, bwd) = (rows(cols.fwd), rows(cols.bwd));
        let (first_extra, last_extra) = (rows(cols.first_extra), rows(cols.last_extra));
        for s in 0..4 {
            for r in 0..m {
                first[s][r] = fwd[s][r] + first_extra[s][r];
                last[s][r] = bwd[s][r] + last_extra[s][r];
            }
        }
        model.predict_columns(StagePoint::interference_tuple(fwd), &mut i_fwd[..m]);
        model.predict_columns(StagePoint::interference_tuple(bwd), &mut i_bwd[..m]);
        let first_cols = std::array::from_fn(|s| &first[s][..m]);
        model.predict_columns(
            StagePoint::interference_tuple(first_cols),
            &mut i_first[..m],
        );
        let last_cols = std::array::from_fn(|s| &last[s][..m]);
        model.predict_columns(StagePoint::interference_tuple(last_cols), &mut i_last[..m]);
        for r in 0..m {
            let stable = i_fwd[r] + i_bwd[r];
            t[start + r] = stable;
            d[start + r] = (i_first[r] + i_last[r] - stable).max(0.0);
        }
    }
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

    /// `stage_times` is Eq. 5/6 written out with `predict`, bit for bit,
    /// under a table that tells every stream apart (the defaults treat
    /// H2D and D2H alike, so they would hide a swapped stream order).
    #[test]
    fn stage_times_follow_eq5_eq6() {
        let m = InterferenceModel::from_pairwise(|i, j| 1.0 + 0.05 * (4 * i + j) as f64);
        let p = point();
        let i = |s: [f64; 4]| m.predict(StagePoint::interference_tuple(s));
        let add = |a: [f64; 4], b: [f64; 4]| std::array::from_fn(|s| a[s] + b[s]);
        let t = i(p.fwd) + i(p.bwd);
        let d = (i(add(p.fwd, p.first_extra)) + i(add(p.bwd, p.last_extra)) - t).max(0.0);
        let st = stage_times(&p, &m);
        assert_eq!((st.t.to_bits(), st.d.to_bits()), (t.to_bits(), d.to_bits()));
    }

    /// The columnar path gives every row of a compiled GPT-3 2.6B batch
    /// (seven blocks, the last partial) the bits of the scalar path, in
    /// both overlap modes.
    #[test]
    fn columnar_stage_streams_equal_scalar_per_row() {
        use mist_graph::{StageAnalyzer, StageCandidate, StageRole};
        use mist_hardware::{ClusterSpec, DeviceMesh, GpuSpec, OpCostDb, Platform};
        use mist_models::{gpt3, AttentionImpl, ModelSize};
        use mist_symbolic::BatchBindings;

        let model = gpt3(ModelSize::B2_6, 2048, AttentionImpl::Flash);
        let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 4);
        let db = OpCostDb::new(GpuSpec::l4());
        let tapes = StageAnalyzer::new(&model, &cluster, &db).analyze(&StageCandidate {
            mesh: DeviceMesh::new(1, 4),
            dp: 2,
            tp: 2,
            micro_batch: 2,
            role: StageRole::First,
        });
        let mut cols: [Vec<f64>; 7] = Default::default();
        for l in 1..=33u32 {
            for zero in 0..4u32 {
                for off in [0.0, 0.25, 0.5, 1.0] {
                    for ckpt in [0, l / 2, l] {
                        let row = [l, ckpt, zero].map(f64::from);
                        let offload = [off, 1.0 - off, off, off / 2.0];
                        for (c, v) in cols.iter_mut().zip(row.into_iter().chain(offload)) {
                            c.push(v);
                        }
                    }
                }
            }
        }
        let n = cols[0].len();
        assert!(n > 2 * BLOCK && !n.is_multiple_of(BLOCK), "{n} rows");
        let mut batch = BatchBindings::new(n);
        for (name, col) in ["L", "ckpt", "zero", "wo", "go", "oo", "ao"]
            .iter()
            .zip(cols)
        {
            batch.set_values(name, col);
        }
        batch.set_scalar("inflight", 2.0);
        let mut ws = CompiledWorkspace::new();
        tapes.compiled().0.eval_batch(&batch, &mut ws).unwrap();

        let interference = InterferenceModel::pcie_defaults();
        for overlap_aware in [true, false] {
            let (mut t, mut d) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            stage_streams_columns(&ws, &interference, overlap_aware, &mut t, &mut d);
            for r in 0..n {
                let point = StagePoint::from_roots(|root| ws.output(root)[r]);
                let want = stage_streams(&point, &interference, overlap_aware);
                assert_eq!(
                    (t[r].to_bits(), d[r].to_bits()),
                    (want.t.to_bits(), want.d.to_bits()),
                    "row {r} overlap_aware {overlap_aware}: {point:?}"
                );
            }
        }
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
