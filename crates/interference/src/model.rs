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
/// Algorithm 1 runs in *select form*: at most `NUM_STREAMS − 1` rounds,
/// each of which takes the live mask from compares, loads that mask's
/// factor row and updates every live stream through selects rather than
/// branches. That many rounds always suffice. A round with two or more
/// live streams adds `overlap = min(x·f)` over them and sets each live
/// stream to `(x·f − overlap).max(0) / f`. For the argmin stream `k`,
/// `x_k·f_k − overlap` is `0`, or NaN if the product overflowed to
/// `+∞`; `.max(0)` turns either into `0`, and `0 / f_k` is `0`, `−0` or
/// NaN whatever the factor. None of those is `> 0`, so `k` leaves the
/// live set. Each such round therefore drops at least one of the four
/// streams, and after three rounds at most one is live — the point
/// where the loop of the paper stops and adds the remaining busy times
/// serially. Rounds that start with fewer than two live streams change
/// nothing.
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

/// The factor table, one row per live-stream mask.
type Table = [[f64; NUM_STREAMS]; 1 << NUM_STREAMS];

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
        Self::from_factors(factors)
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
    ///
    /// # Panics
    ///
    /// Panics unless the table has one row per mask and every
    /// participating entry (stream `i` in `mask`, with at least two
    /// streams in `mask`) is a finite slowdown of at least 1: a factor
    /// below 1 would be a speedup, and a NaN one turns its stream's
    /// remaining time into NaN, which poisons the prediction.
    pub fn from_factors(factors: Vec<[f64; NUM_STREAMS]>) -> Self {
        assert_eq!(factors.len(), 1 << NUM_STREAMS);
        for (mask, row) in factors.iter().enumerate() {
            if mask.count_ones() < 2 {
                continue;
            }
            for (i, f) in row.iter().enumerate() {
                assert!(
                    mask & (1 << i) == 0 || (f.is_finite() && *f >= 1.0),
                    "factor of stream {i} in mask {mask:#06b} must be finite and >= 1, got {f}"
                );
            }
        }
        InterferenceModel { factors }
    }

    /// Read access to the factor table.
    pub fn factors(&self) -> &[[f64; NUM_STREAMS]] {
        &self.factors
    }

    fn table(&self) -> &Table {
        self.factors
            .as_slice()
            .try_into()
            .expect("one factor row per mask")
    }

    /// Predicts wall-clock time for one 4-tuple of per-stream busy times
    /// `[compute, nccl, h2d, d2h]` (seconds).
    ///
    /// Scalar specialisation of Algorithm 1: repeatedly take the current
    /// set of still-busy streams, apply its slowdown factors, consume the
    /// smallest scaled remaining time as fully-overlapped progress, and
    /// drop the exhausted stream; the final lone stream runs undisturbed.
    /// Runs in the select form described on [`InterferenceModel`].
    pub fn predict(&self, x: [f64; NUM_STREAMS]) -> f64 {
        debug_assert!(x.iter().all(|v| v.is_finite() && *v >= 0.0));
        predict_row(self.table(), x)
    }

    /// [`predict`](Self::predict) over columns: row `r` is
    /// `[x[0][r], x[1][r], x[2][r], x[3][r]]` and its prediction goes to
    /// `out[r]`, bit for bit what `predict` returns for that row.
    ///
    /// Runs the same per-row body as `predict` in a row loop compiled
    /// twice — plain and AVX-512 (`x86_64` only) — and picks the AVX-512
    /// variant on each call when the running CPU supports it. The body
    /// is branch-free, so the AVX-512 variant vectorizes across rows;
    /// both variants perform the same IEEE-754 operations in the same
    /// order, so they agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if a column's length differs from `out.len()`.
    pub fn predict_columns(&self, x: [&[f64]; NUM_STREAMS], out: &mut [f64]) {
        predict_columns_on(Tier::detect(), self.table(), x, out);
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

/// One row of Algorithm 1 in select form (see [`InterferenceModel`]):
/// its `NUM_STREAMS − 1` rounds, then the serial sum of what is left.
///
/// The rounds are spelled out rather than looped so that the body is
/// straight-line code, which the row loop of [`predict_rows`] can
/// vectorize across rows (a loop over rounds stays a loop, and only an
/// innermost loop vectorizes).
#[inline(always)]
fn predict_row(table: &Table, mut x: [f64; NUM_STREAMS]) -> f64 {
    const _: () = assert!(NUM_STREAMS == 4, "one `round` call per round");
    let mut total = 0.0;
    round(table, &mut x, &mut total);
    round(table, &mut x, &mut total);
    round(table, &mut x, &mut total);
    total + x.iter().sum::<f64>()
}

/// One round of Algorithm 1 in select form. Every operation it applies
/// to a stream is the one the paper's loop applies, in the same order;
/// an inactive round (fewer than two live streams) and the non-live
/// streams keep their values through selects, and a non-live stream
/// contributes `+∞` to the minimum, which leaves it unchanged.
#[inline(always)]
fn round(table: &Table, x: &mut [f64; NUM_STREAMS], total: &mut f64) {
    let live = x.map(|v| v > 0.0);
    let mut mask = 0usize;
    let mut count = 0u32;
    for (i, &l) in live.iter().enumerate() {
        mask |= usize::from(l) << i;
        count += u32::from(l);
    }
    let active = count >= 2;
    // `mask < 16` already; the `&` lets the compiler drop the bounds
    // check, whose panic branch would keep the row loop scalar.
    let f = &table[mask & ((1 << NUM_STREAMS) - 1)];
    let scaled: [f64; NUM_STREAMS] = std::array::from_fn(|i| x[i] * f[i]);
    let mut overlap = f64::INFINITY;
    for i in 0..NUM_STREAMS {
        overlap = overlap.min(if live[i] { scaled[i] } else { f64::INFINITY });
    }
    *total = if active { *total + overlap } else { *total };
    for i in 0..NUM_STREAMS {
        let left = (scaled[i] - overlap).max(0.0) / f[i];
        let left = if left < 1e-15 { 0.0 } else { left };
        x[i] = if active && live[i] { left } else { x[i] };
    }
}

/// [`predict_row`] over every row of the columns.
#[inline(always)]
fn predict_rows(table: &Table, x: [&[f64]; NUM_STREAMS], out: &mut [f64]) {
    let [c, n, h, d] = x;
    let rows = c.iter().zip(n).zip(h).zip(d);
    for (o, (((&c, &n), &h), &d)) in out.iter_mut().zip(rows) {
        *o = predict_row(table, [c, n, h, d]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn predict_rows_avx512(table: &Table, x: [&[f64]; NUM_STREAMS], out: &mut [f64]) {
    predict_rows(table, x, out)
}

/// Instruction-set variant of [`InterferenceModel::predict_columns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// Best variant the running CPU supports (the feature probes are
    /// cached by `std`).
    fn detect() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Tier::Avx512;
            }
        }
        Tier::Scalar
    }
}

fn predict_columns_on(tier: Tier, table: &Table, x: [&[f64]; NUM_STREAMS], out: &mut [f64]) {
    assert!(
        x.iter().all(|c| c.len() == out.len()),
        "every stream column needs one value per output row"
    );
    debug_assert!(x
        .iter()
        .all(|c| c.iter().all(|v| v.is_finite() && *v >= 0.0)));
    match tier {
        Tier::Scalar => predict_rows(table, x, out),
        // SAFETY: a tier other than `Scalar` comes from `Tier::detect`
        // (or, in tests, `Tier::supported`), which checked that the CPU
        // has the feature the variant was compiled for.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { predict_rows_avx512(table, x, out) },
    }
}

/// The paper's loop as it was written before the select form: the
/// reference the select form is checked against, bit for bit.
#[cfg(test)]
fn predict_reference(factors: &[[f64; NUM_STREAMS]], x: [f64; NUM_STREAMS]) -> f64 {
    let mut x = x;
    let mut total = 0.0;
    loop {
        let mask = live_mask(&x);
        if mask.count_ones() <= 1 {
            total += x.iter().sum::<f64>();
            return total;
        }
        let f = &factors[mask as usize];
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

#[cfg(test)]
impl Tier {
    /// Every variant the running CPU supports.
    fn supported() -> Vec<Tier> {
        #[allow(unused_mut)]
        let mut tiers = vec![Tier::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                tiers.push(Tier::Avx512);
            }
        }
        tiers
    }
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

    /// The default PCIe table with one participating entry replaced.
    fn with_factor(mask: usize, i: usize, f: f64) -> InterferenceModel {
        let mut factors = InterferenceModel::pcie_defaults().factors().to_vec();
        factors[mask][i] = f;
        InterferenceModel::from_factors(factors)
    }

    #[test]
    #[should_panic(expected = "must be finite and >= 1")]
    fn from_factors_rejects_nan() {
        with_factor(0b0011, 1, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must be finite and >= 1")]
    fn from_factors_rejects_infinity() {
        with_factor(0b1111, 3, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "must be finite and >= 1")]
    fn from_factors_rejects_speedups() {
        with_factor(0b0101, 0, 0.5);
    }

    #[test]
    fn from_factors_ignores_unused_entries() {
        // Stream 1 is not in mask 0b0101, and mask 0b0100 has one stream.
        with_factor(0b0101, 1, f64::NAN);
        with_factor(0b0100, 2, 0.0);
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

    /// A factor table: one of the two defaults, the all-ones table, or
    /// random factors in the fitted `[1, 4]` range with exact `1.0` and
    /// `4.0` entries common.
    fn table() -> BoxedStrategy<InterferenceModel> {
        let factor = prop_oneof![Just(1.0), Just(4.0), 1.0f64..=4.0];
        prop_oneof![
            Just(InterferenceModel::pcie_defaults()),
            Just(InterferenceModel::nvlink_defaults()),
            Just(InterferenceModel::from_pairwise(|_, _| 1.0)),
            prop::collection::vec((factor.clone(), factor.clone(), factor.clone(), factor), 16)
                .prop_map(|rows| {
                    InterferenceModel::from_factors(
                        rows.into_iter().map(|(a, b, c, d)| [a, b, c, d]).collect(),
                    )
                }),
        ]
        .boxed()
    }

    /// Rows of small multiples of `1e-15`: under unit factors a round
    /// leaves exactly `1e-15` behind, the flush threshold itself.
    fn flush_row() -> BoxedStrategy<[f64; NUM_STREAMS]> {
        let k = || (0u8..4).prop_map(|k| f64::from(k) * 1e-15);
        (k(), k(), k(), k())
            .prop_map(|(a, b, c, d)| [a, b, c, d])
            .boxed()
    }

    /// Batches around the 256-row block and the AVX-512 variant's remainders.
    fn rows() -> BoxedStrategy<Vec<[f64; NUM_STREAMS]>> {
        let n = |len: usize| prop::collection::vec(prop_oneof![row(), flush_row()], len);
        prop_oneof![n(0), n(1), n(255), n(256), n(257), n(1000)].boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `predict` and every `predict_columns` variant the host
        /// supports return the paper loop's bits on every row.
        #[test]
        fn select_form_equals_reference_loop_bitwise(model in table(), rows in rows()) {
            let cols: [Vec<f64>; NUM_STREAMS] =
                std::array::from_fn(|i| rows.iter().map(|r| r[i]).collect());
            let want: Vec<u64> = rows
                .iter()
                .map(|r| predict_reference(model.factors(), *r).to_bits())
                .collect();
            for (r, row) in rows.iter().enumerate() {
                prop_assert_eq!(model.predict(*row).to_bits(), want[r], "row {:?}", row);
            }
            for tier in Tier::supported() {
                let mut out = vec![f64::NAN; rows.len()];
                predict_columns_on(tier, model.table(), cols.each_ref().map(|c| &c[..]), &mut out);
                let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&got, &want, "{:?}", tier);
            }
            let mut out = vec![f64::NAN; rows.len()];
            model.predict_columns(cols.each_ref().map(|c| &c[..]), &mut out);
            prop_assert!(out.iter().map(|v| v.to_bits()).eq(want.iter().copied()));
        }
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
