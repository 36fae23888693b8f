//! The slowdown-factor interference model and Algorithm 1.

use serde::{Deserialize, Serialize};

/// Number of concurrent stream classes the model resolves.
pub const NUM_STREAMS: usize = 4;

/// The four kernel classes of the paper: compute, GPU↔GPU communication,
/// host→device copies and device→host copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamKind {
    /// GPU computation (`C` in Algorithm 1).
    Compute = 0,
    /// NCCL GPU↔GPU communication (`G2G`).
    Nccl = 1,
    /// Host→device copy (`C2G`).
    H2d = 2,
    /// Device→host copy (`G2C`).
    D2h = 3,
}

impl StreamKind {
    /// All stream kinds in index order.
    pub fn all() -> [StreamKind; NUM_STREAMS] {
        [
            StreamKind::Compute,
            StreamKind::Nccl,
            StreamKind::H2d,
            StreamKind::D2h,
        ]
    }
}

/// Interference model: per-combination slowdown factors.
///
/// `factors[mask][i]` is the slowdown (≥ 1) stream `i` experiences while
/// exactly the streams in `mask` (a 4-bit set) are busy. Entries for masks
/// where `i` does not participate are unused.
///
/// # Example
///
/// ```
/// use mist_interference::InterferenceModel;
///
/// let m = InterferenceModel::pcie_defaults();
/// // 10 ms of compute fully hides 5 ms of H2D (modulo slowdown).
/// let t = m.predict([10e-3, 0.0, 5e-3, 0.0]);
/// assert!(t > 10e-3 && t < 10e-3 + 5e-3);
/// // Serial execution would be 15 ms; overlap must beat it.
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterferenceModel {
    factors: Vec<[f64; NUM_STREAMS]>, // Indexed by mask, len 16.
}

impl InterferenceModel {
    /// Builds a model from explicit pairwise factors, compounding them
    /// multiplicatively (damped) for triples and quadruples.
    ///
    /// `pair(i, j)` returns the slowdown of stream `i` when co-running
    /// with stream `j` alone.
    pub fn from_pairwise(pair: impl Fn(usize, usize) -> f64) -> Self {
        let mut factors = vec![[1.0; NUM_STREAMS]; 1 << NUM_STREAMS];
        for (mask, entry) in factors.iter_mut().enumerate() {
            for (i, f) in entry.iter_mut().enumerate() {
                if mask & (1 << i) == 0 {
                    continue;
                }
                let mut acc = 1.0f64;
                for j in 0..NUM_STREAMS {
                    if j != i && mask & (1 << j) != 0 {
                        // Damped compounding: a third co-runner hurts, but
                        // less than the pairwise product would suggest.
                        acc *= pair(i, j).powf(0.85);
                    }
                }
                *f = acc.max(1.0);
            }
        }
        InterferenceModel { factors }
    }

    /// Default factors for PCIe-only machines (L4): NCCL and host copies
    /// share the PCIe bus and interfere strongly; compute is mostly
    /// isolated but loses some SMs/DRAM bandwidth to communication.
    pub fn pcie_defaults() -> Self {
        Self::from_pairwise(pcie_pair)
    }

    /// Default factors for NVLink machines (A100): GPU↔GPU traffic
    /// bypasses PCIe, so NCCL barely contends with host copies.
    pub fn nvlink_defaults() -> Self {
        Self::from_pairwise(nvlink_pair)
    }

    /// Builds a model directly from a factor table (used by fitting).
    pub fn from_factors(factors: Vec<[f64; NUM_STREAMS]>) -> Self {
        assert_eq!(factors.len(), 1 << NUM_STREAMS);
        InterferenceModel { factors }
    }

    /// Read access to the factor table.
    pub fn factors(&self) -> &[[f64; NUM_STREAMS]] {
        &self.factors
    }

    /// Predicts wall-clock time for one 4-tuple of per-stream busy times
    /// `[compute, nccl, h2d, d2h]` (seconds).
    ///
    /// Scalar specialisation of Algorithm 1: repeatedly take the current
    /// set of still-busy streams, apply its slowdown factors, consume the
    /// smallest scaled remaining time as fully-overlapped progress, and
    /// drop the exhausted stream; the final lone stream runs undisturbed.
    pub fn predict(&self, x: [f64; NUM_STREAMS]) -> f64 {
        debug_assert!(x.iter().all(|v| v.is_finite() && *v >= 0.0));
        let mut x = x;
        let mut total = 0.0;
        loop {
            let mask = live_mask(&x);
            if mask.count_ones() <= 1 {
                total += x.iter().sum::<f64>();
                return total;
            }
            let f = &self.factors[mask as usize];
            // Scaled remaining times; the minimum is the overlapped chunk.
            let mut overlap = f64::INFINITY;
            for i in 0..NUM_STREAMS {
                if mask & (1 << i) != 0 {
                    overlap = overlap.min(x[i] * f[i]);
                }
            }
            total += overlap;
            for i in 0..NUM_STREAMS {
                if mask & (1 << i) != 0 {
                    x[i] = (x[i] * f[i] - overlap).max(0.0) / f[i];
                    if x[i] < 1e-15 {
                        x[i] = 0.0;
                    }
                }
            }
        }
    }

    /// Batched Algorithm 1, exactly as printed in the paper: iterates
    /// concurrency levels `n = 4 → 2`, and for each of the `C(4, n)`
    /// stream combinations updates *all* rows whose live-stream pattern
    /// matches that combination. Returns one wall-clock time per row.
    pub fn predict_batch(&self, rows: &[[f64; NUM_STREAMS]]) -> Vec<f64> {
        let mut x: Vec<[f64; NUM_STREAMS]> = rows.to_vec();
        let mut t = vec![0.0f64; rows.len()];
        for n in (2..=NUM_STREAMS as u32).rev() {
            for mask in 1u8..(1 << NUM_STREAMS) {
                if mask.count_ones() != n {
                    continue;
                }
                self.update_mask(&mut x, &mut t, mask);
            }
        }
        for (ti, xi) in t.iter_mut().zip(&x) {
            *ti += xi.iter().sum::<f64>();
        }
        t
    }

    /// `Update` from Algorithm 1 for one mask, applied until no row
    /// matches it any more (consuming one overlap chunk may leave the row
    /// still matching a *smaller* mask, which later iterations handle).
    fn update_mask(&self, x: &mut [[f64; NUM_STREAMS]], t: &mut [f64], mask: u8) {
        let f = &self.factors[mask as usize];
        for (row, trow) in x.iter_mut().zip(t.iter_mut()) {
            if live_mask(row) != mask {
                continue;
            }
            let mut overlap = f64::INFINITY;
            for i in 0..NUM_STREAMS {
                if mask & (1 << i) != 0 {
                    overlap = overlap.min(row[i] * f[i]);
                }
            }
            *trow += overlap;
            for i in 0..NUM_STREAMS {
                if mask & (1 << i) != 0 {
                    row[i] = (row[i] * f[i] - overlap).max(0.0) / f[i];
                    if row[i] < 1e-15 {
                        row[i] = 0.0;
                    }
                }
            }
        }
    }
}

fn live_mask(x: &[f64; NUM_STREAMS]) -> u8 {
    let mut mask = 0u8;
    for (i, v) in x.iter().enumerate() {
        if *v > 0.0 {
            mask |= 1 << i;
        }
    }
    mask
}

/// Pairwise slowdowns on PCIe machines. Indices follow [`StreamKind`].
fn pcie_pair(i: usize, j: usize) -> f64 {
    const C: usize = 0;
    const N: usize = 1;
    const H2D: usize = 2;
    const D2H: usize = 3;
    match (i, j) {
        // Compute loses a little to any communication (the paper measures
        // 7.7% for a linear layer next to all-reduce).
        (C, N) => 1.08,
        (C, H2D) | (C, D2H) => 1.04,
        // NCCL over PCIe contends hard with host copies in its direction.
        (N, C) => 1.12,
        (N, H2D) | (N, D2H) => 1.45,
        (H2D, N) | (D2H, N) => 1.45,
        // Host copies in opposite directions are near-duplex.
        (H2D, D2H) | (D2H, H2D) => 1.08,
        (H2D, C) | (D2H, C) => 1.06,
        _ => 1.0,
    }
}

/// Pairwise slowdowns on NVLink machines: NCCL is off the PCIe bus.
fn nvlink_pair(i: usize, j: usize) -> f64 {
    const C: usize = 0;
    const N: usize = 1;
    const H2D: usize = 2;
    const D2H: usize = 3;
    match (i, j) {
        (C, N) => 1.05,
        (C, H2D) | (C, D2H) => 1.03,
        (N, C) => 1.08,
        (N, H2D) | (N, D2H) => 1.05,
        (H2D, N) | (D2H, N) => 1.05,
        (H2D, D2H) | (D2H, H2D) => 1.08,
        (H2D, C) | (D2H, C) => 1.05,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stream_is_exact() {
        let m = InterferenceModel::pcie_defaults();
        assert_eq!(m.predict([3.0, 0.0, 0.0, 0.0]), 3.0);
        assert_eq!(m.predict([0.0, 0.0, 0.0, 2.5]), 2.5);
        assert_eq!(m.predict([0.0; 4]), 0.0);
    }

    #[test]
    fn overlap_beats_serial_but_costs_more_than_max() {
        let m = InterferenceModel::pcie_defaults();
        let x = [10e-3, 4e-3, 3e-3, 2e-3];
        let t = m.predict(x);
        let serial: f64 = x.iter().sum();
        let max = x.iter().cloned().fold(0.0, f64::max);
        assert!(t < serial, "t={t} serial={serial}");
        assert!(t >= max, "t={t} max={max}");
    }

    #[test]
    fn prediction_is_monotone_in_each_stream() {
        let m = InterferenceModel::pcie_defaults();
        let base = [5e-3, 2e-3, 1e-3, 1e-3];
        let t0 = m.predict(base);
        for i in 0..NUM_STREAMS {
            let mut x = base;
            x[i] *= 1.5;
            assert!(m.predict(x) > t0, "stream {i} not monotone");
        }
    }

    #[test]
    fn batch_matches_scalar() {
        let m = InterferenceModel::pcie_defaults();
        let rows = vec![
            [10e-3, 4e-3, 3e-3, 2e-3],
            [1e-3, 0.0, 0.0, 0.0],
            [0.0, 2e-3, 2e-3, 0.0],
            [5e-3, 5e-3, 5e-3, 5e-3],
            [0.0; 4],
        ];
        let batch = m.predict_batch(&rows);
        for (i, row) in rows.iter().enumerate() {
            let scalar = m.predict(*row);
            assert!(
                (batch[i] - scalar).abs() < 1e-12,
                "row {i}: batch {} vs scalar {scalar}",
                batch[i]
            );
        }
    }

    #[test]
    fn nvlink_interferes_less_than_pcie() {
        let pcie = InterferenceModel::pcie_defaults();
        let nvl = InterferenceModel::nvlink_defaults();
        let x = [5e-3, 5e-3, 5e-3, 0.0];
        assert!(nvl.predict(x) < pcie.predict(x));
    }

    #[test]
    fn compute_hides_small_transfers_almost_fully() {
        let m = InterferenceModel::nvlink_defaults();
        let t = m.predict([100e-3, 0.0, 1e-3, 0.0]);
        assert!(t < 101e-3, "t={t}");
        assert!(t > 100e-3);
    }

    #[test]
    fn factors_table_has_all_masks() {
        let m = InterferenceModel::pcie_defaults();
        assert_eq!(m.factors().len(), 16);
        for row in m.factors() {
            for f in row {
                assert!(*f >= 1.0);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One busy time: zero, around the `1e-15` clamp, ordinary, or large.
    fn busy_time() -> BoxedStrategy<f64> {
        prop_oneof![
            Just(0.0),
            Just(1e-15),
            1e-16f64..1e-14,
            1e-6f64..10.0,
            1e6f64..1e15,
        ]
        .boxed()
    }

    /// A `[compute, nccl, h2d, d2h]` row in which any stream may reuse a
    /// shared value, so exact ties between streams are common.
    fn row() -> BoxedStrategy<[f64; NUM_STREAMS]> {
        (
            (busy_time(), busy_time(), busy_time(), busy_time()),
            busy_time(),
            (0u8..3, 0u8..3, 0u8..3, 0u8..3),
        )
            .prop_map(|((a, b, c, d), shared, (pa, pb, pc, pd))| {
                let pick = |fresh: f64, p: u8| if p == 0 { shared } else { fresh };
                [pick(a, pa), pick(b, pb), pick(c, pc), pick(d, pd)]
            })
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The batched Algorithm 1 applies the same update sequence to
        /// every row as the scalar loop, so the two agree bit for bit —
        /// the contract a columnar interference pass relies on.
        #[test]
        fn predict_batch_equals_predict_bitwise(
            rows in prop::collection::vec(row(), 1..48),
            nvlink in 0u8..2,
        ) {
            let model = if nvlink == 1 {
                InterferenceModel::nvlink_defaults()
            } else {
                InterferenceModel::pcie_defaults()
            };
            let batch = model.predict_batch(&rows);
            prop_assert_eq!(batch.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                let scalar = model.predict(*row);
                prop_assert_eq!(
                    batch[i].to_bits(),
                    scalar.to_bits(),
                    "row {} {:?}: batch {} vs scalar {}",
                    i,
                    row,
                    batch[i],
                    scalar
                );
            }
        }
    }
}
