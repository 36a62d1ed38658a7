//! Distance metrics over feature vectors.
//!
//! The approximate-cache hit test compares a query signature against cached
//! signatures under one of these metrics. Euclidean distance is the default
//! (it is what the synthetic feature space and threshold calibration
//! assume); cosine distance is provided for direction-only signatures.

// The one module where bit-exact float comparison is the point: metric
// identities (d(x, x) == 0, symmetry) and calibrated thresholds are
// checked for exact equality. The workspace denies `float_cmp` elsewhere.
#![allow(clippy::float_cmp)]

use serde::{Deserialize, Serialize};

use crate::vector::FeatureVector;

/// The metric a cache or index compares signatures under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Metric {
    /// Straight-line (L2) distance. The default.
    #[default]
    Euclidean,
    /// `1 - cos(angle)`: 0 for parallel vectors, 2 for opposite. Zero
    /// vectors are treated as maximally distant from everything.
    Cosine,
    /// City-block (L1) distance.
    Manhattan,
}

impl Metric {
    /// Distance between `a` and `b` under this metric.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' dimensions differ (mixing signature spaces in
    /// one index is a programming error, not a runtime condition).
    pub fn distance(self, a: &FeatureVector, b: &FeatureVector) -> f64 {
        match self {
            Metric::Euclidean => euclidean(a, b),
            Metric::Cosine => cosine(a, b),
            Metric::Manhattan => manhattan(a, b),
        }
    }

    /// All supported metrics, for sweeps and tests.
    pub fn all() -> [Metric; 3] {
        [Metric::Euclidean, Metric::Cosine, Metric::Manhattan]
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Metric::Euclidean => "euclidean",
            Metric::Cosine => "cosine",
            Metric::Manhattan => "manhattan",
        };
        f.write_str(name)
    }
}

fn assert_same_dim(a: &FeatureVector, b: &FeatureVector) {
    assert_eq!(
        a.dim(),
        b.dim(),
        "distance: dimension mismatch ({} vs {})",
        a.dim(),
        b.dim()
    );
}

/// Squared Euclidean distance (cheaper than [`euclidean`] when only
/// comparisons matter, e.g. inside nearest-neighbour search).
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn squared_euclidean(a: &FeatureVector, b: &FeatureVector) -> f64 {
    assert_same_dim(a, b);
    squared_euclidean_flat(a.as_slice(), b.as_slice())
}

/// How many difference terms [`squared_euclidean_flat`] evaluates per
/// chunk before folding them into the accumulator. Also the width of a
/// head block: [`squared_euclidean_head_block`] scores the first chunk of
/// `LANES` rows at once.
pub const LANES: usize = 8;

/// Components in one head block: `LANES` rows × their first `LANES`
/// components, stored transposed (component `j` of row `r` at
/// `j * LANES + r`).
pub const HEAD_BLOCK: usize = LANES * LANES;

/// Squared Euclidean distance over raw `f32` slices — the hot-path kernel
/// behind every nearest-neighbour scan.
///
/// The per-component work (widen to `f64`, subtract, square) is done in
/// chunks of [`LANES`] independent terms so the compiler can vectorize
/// it, but the terms are folded into the single `f64` accumulator in
/// strict index order. That keeps the result bit-identical to the naive
/// sequential loop (see `squared_euclidean_ref`): f64 addition is not
/// associative, so a multi-accumulator kernel would drift from the
/// recorded golden results. A lane-reordered variant was measured and
/// dropped for exactly that reason.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn squared_euclidean_flat(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "distance: dimension mismatch ({} vs {})",
        a.len(),
        b.len()
    );
    let split = a.len() - a.len() % LANES;
    let (a_main, a_tail) = a.split_at(split);
    let (b_main, b_tail) = b.split_at(split);
    let mut acc = 0.0f64;
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        let mut terms = [0.0f64; LANES];
        for ((term, &x), &y) in terms.iter_mut().zip(ca).zip(cb) {
            let d = x as f64 - y as f64;
            *term = d * d;
        }
        // In-order fold: keeps bit-equality with the reference kernel.
        for term in terms {
            acc += term;
        }
    }
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        let d = x as f64 - y as f64;
        acc += d * d;
    }
    acc
}

/// [`squared_euclidean_flat`] with a monotone early exit: returns `None`
/// as soon as the partial sum strictly exceeds `bound`.
///
/// Every term is a square, so the accumulator only grows — once a prefix
/// exceeds `bound` the full sum must too, and a caller that would discard
/// any distance above `bound` (a bounded k-selection holding its current
/// k-th best) loses nothing by skipping the rest of the row. When the sum
/// *does* complete, it was accumulated in exactly the reference order, so
/// `Some(d)` is bit-identical to the unbounded kernel. Ties are safe:
/// `bound` itself never exits early (the exit is strict), so a candidate
/// equal to the current worst still surfaces for id-order tie-breaking.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn squared_euclidean_flat_within(a: &[f32], b: &[f32], bound: f64) -> Option<f64> {
    squared_euclidean_resume_within(a, b, 0.0, bound)
}

/// [`squared_euclidean_flat_within`] resumed from a partial sum: `acc`
/// is the sum over the components that precede `a` and `b`, which must
/// start on a chunk boundary (a multiple of [`LANES`]) of the full
/// vectors. The remaining chunks are folded onto `acc` in the reference
/// order with the same strict early exit, so resuming after a head
/// block's partial sum gives the full kernel's bits.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline(always)]
pub fn squared_euclidean_resume_within(
    a: &[f32],
    b: &[f32],
    mut acc: f64,
    bound: f64,
) -> Option<f64> {
    assert_eq!(
        a.len(),
        b.len(),
        "distance: dimension mismatch ({} vs {})",
        a.len(),
        b.len()
    );
    let split = a.len() - a.len() % LANES;
    let (a_main, a_tail) = a.split_at(split);
    let (b_main, b_tail) = b.split_at(split);
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        let mut terms = [0.0f64; LANES];
        for ((term, &x), &y) in terms.iter_mut().zip(ca).zip(cb) {
            let d = x as f64 - y as f64;
            *term = d * d;
        }
        for term in terms {
            acc += term;
        }
        if acc > bound {
            return None;
        }
    }
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        let d = x as f64 - y as f64;
        acc += d * d;
    }
    if acc > bound {
        return None;
    }
    Some(acc)
}

/// [`pad_head`] widened to `f64`, the operand
/// [`squared_euclidean_head_block`] takes. Widening is exact, and the pad
/// lanes stay `0.0`.
#[inline]
pub fn widen_head(query: &[f32]) -> [f64; LANES] {
    pad_head(query).map(f64::from)
}

/// Squared distances over the first [`LANES`] components of one head
/// block's `LANES` rows — the first chunk of [`squared_euclidean_flat`],
/// eight rows per step.
///
/// `block` holds component `j` of row `r` at `j * LANES + r`; `query` is
/// [`widen_head`] of the query. Each row keeps its own accumulator and
/// adds its terms in ascending component order, so entry `r` has exactly
/// the bits the row-at-a-time kernel holds after its first chunk (the
/// whole distance when the dimension is at most `LANES`), and
/// [`squared_euclidean_resume_within`] finishes the row from it. The
/// lanes run across rows, never across a row's terms, which is what
/// lets this vectorize without reordering any sum.
#[inline(always)]
pub fn squared_euclidean_head_block(
    block: &[f32; HEAD_BLOCK],
    query: &[f64; LANES],
) -> [f64; LANES] {
    let mut acc = [0.0f64; LANES];
    let (lanes, _) = block.as_chunks::<LANES>();
    for (lane, &q) in lanes.iter().zip(query) {
        for (a, &x) in acc.iter_mut().zip(lane) {
            let d = x as f64 - q;
            *a += d * d;
        }
    }
    acc
}

/// The first [`LANES`] components of `query` as they are, the operand
/// [`squared_euclidean_head_block_f32`] takes ([`widen_head`] widens it
/// for [`squared_euclidean_head_block`]). Lanes at or beyond
/// `query.len()` are `0.0`, matching a head block's zero pad lanes: each
/// such lane adds `(0 − 0)² = +0.0`, which leaves every sum's bits as
/// they were.
#[inline]
pub fn pad_head(query: &[f32]) -> [f32; LANES] {
    let mut head = [0.0f32; LANES];
    for (h, &q) in head.iter_mut().zip(query) {
        *h = q;
    }
    head
}

/// [`squared_euclidean_head_block`] in single precision: each row's
/// first-chunk terms subtracted, squared and summed in `f32`, one
/// `LANES`-wide vector per component and no widening. The sums are not
/// the scan's distances; they feed only the skip test against
/// [`head_skip_threshold`], which lets a block go unscored in `f64` when
/// every sum is over it.
///
/// Each row's sum is within 11 roundings of 2⁻²⁴ of the exact sum of
/// its squared differences (one for the difference, two for its square,
/// eight for the additions), plus at most 2⁻¹⁵⁰ of absolute error for
/// each square that underflows into the subnormals. A square or sum
/// past `f32::MAX` becomes `+∞`, which exceeds every finite threshold;
/// that is sound, because the exact sum is then past `f32::MAX` too.
#[inline(always)]
pub fn squared_euclidean_head_block_f32(
    block: &[f32; HEAD_BLOCK],
    query: &[f32; LANES],
) -> [f32; LANES] {
    let mut acc = [0.0f32; LANES];
    let (lanes, _) = block.as_chunks::<LANES>();
    for (lane, &q) in lanes.iter().zip(query) {
        for (a, &x) in acc.iter_mut().zip(lane) {
            let d = x - q;
            *a += d * d;
        }
    }
    acc
}

/// `1 − 2⁻¹⁸`: the relative margin of [`head_skip_threshold`], well
/// beyond the `f32` sum's 11 roundings of 2⁻²⁴ plus the `f64` partial's
/// 11 roundings of 2⁻⁵³ and the threshold's own two.
const HEAD_SKIP_SCALE: f64 = 1.0 - 1.0 / 262_144.0;

/// The absolute margin of [`head_skip_threshold`]: above the at most
/// 8 × 2⁻¹⁵⁰ ≈ 5.6e-45 that subnormal squares can add to an `f32` sum,
/// so a bound of 0 still proves its skipped rows' partials positive.
const HEAD_SKIP_FLOOR: f64 = 1e-40;

/// The `f32` threshold above which a [`squared_euclidean_head_block_f32`]
/// sum proves its row's `f64` first-chunk partial (the
/// [`squared_euclidean_head_block`] entry) strictly above `bound`:
/// `bound / (1 − 2⁻¹⁸) + 1e-40`, rounded up to `f32`. A bound at or
/// beyond `f32::MAX` gives `+∞`, which no sum exceeds, so nothing is
/// skipped on `f32` evidence there; a NaN bound gives NaN, likewise.
///
/// The margin argument: with `S` the exact sum of the row's squared
/// differences, the `f32` sum is at most `(1 + 2⁻²⁴)¹¹·S + 8·2⁻¹⁵⁰` and
/// the `f64` partial at least `(1 − 2⁻⁵³)¹¹·S` (in `f64` nothing an `f32`
/// difference can square to underflows or overflows). A sum over the
/// threshold therefore puts `S` above `bound·(1 − 2⁻¹⁸)⁻¹·(1 + 2⁻²⁴)⁻¹¹`
/// less a few ulps, and the partial above `bound`; at `bound = 0` the
/// floor keeps `S`, and with it the partial, positive. A sum that
/// overflowed to `+∞` means `S ≥ f32::MAX·(1 + 2⁻²⁴)⁻¹¹`, above any
/// bound whose threshold is finite.
#[inline]
pub fn head_skip_threshold(bound: f64) -> f32 {
    if bound >= f32::MAX as f64 {
        return f32::INFINITY;
    }
    let wide = bound / HEAD_SKIP_SCALE + HEAD_SKIP_FLOOR;
    let narrow = wide as f32;
    if (narrow as f64) < wide {
        narrow.next_up()
    } else {
        narrow
    }
}

/// The pre-optimisation scalar kernel, kept as the equivalence oracle for
/// the chunked kernel (proptests pin bit-equality).
#[doc(hidden)]
pub fn squared_euclidean_ref(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "distance: dimension mismatch ({} vs {})",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum()
}

/// Euclidean (L2) distance.
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn euclidean(a: &FeatureVector, b: &FeatureVector) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Manhattan (L1) distance.
///
/// # Panics
///
/// Panics if the dimensions differ.
fn manhattan(a: &FeatureVector, b: &FeatureVector) -> f64 {
    assert_same_dim(a, b);
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x as f64 - y as f64).abs())
        .sum()
}

/// Cosine distance `1 - cos(a, b)` in `[0, 2]`. If either vector is
/// numerically zero the vectors carry no directional information, so the
/// maximum distance `2.0` is returned.
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn cosine(a: &FeatureVector, b: &FeatureVector) -> f64 {
    assert_same_dim(a, b);
    let dot = a.dot(b).expect("dimensions checked");
    let denom = a.l2_norm() * b.l2_norm();
    if denom < 1e-24 {
        return 2.0;
    }
    // Clamp to guard against floating-point drift outside [-1, 1].
    1.0 - (dot / denom).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(components: &[f32]) -> FeatureVector {
        FeatureVector::from_vec(components.to_vec()).unwrap()
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        let a = fv(&[0.0, 0.0]);
        let b = fv(&[3.0, 4.0]);
        assert!((euclidean(&a, &b) - 5.0).abs() < 1e-9);
        assert!((squared_euclidean(&a, &b) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn manhattan_matches_hand_computation() {
        let a = fv(&[1.0, -1.0]);
        let b = fv(&[4.0, 1.0]);
        assert!((manhattan(&a, &b) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_of_parallel_orthogonal_opposite() {
        let x = fv(&[1.0, 0.0]);
        let x2 = fv(&[5.0, 0.0]);
        let y = fv(&[0.0, 1.0]);
        let neg = fv(&[-2.0, 0.0]);
        assert!(cosine(&x, &x2).abs() < 1e-9);
        assert!((cosine(&x, &y) - 1.0).abs() < 1e-9);
        assert!((cosine(&x, &neg) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_of_zero_vector_is_max() {
        let z = FeatureVector::zeros(2);
        let x = fv(&[1.0, 0.0]);
        assert_eq!(cosine(&z, &x), 2.0);
        assert_eq!(cosine(&z, &z), 2.0);
    }

    #[test]
    fn metric_dispatch_agrees_with_functions() {
        let a = fv(&[1.0, 2.0, 3.0]);
        let b = fv(&[4.0, 6.0, 8.0]);
        assert_eq!(Metric::Euclidean.distance(&a, &b), euclidean(&a, &b));
        assert_eq!(Metric::Cosine.distance(&a, &b), cosine(&a, &b));
        assert_eq!(Metric::Manhattan.distance(&a, &b), manhattan(&a, &b));
    }

    #[test]
    fn metric_display_and_all() {
        assert_eq!(Metric::Euclidean.to_string(), "euclidean");
        assert_eq!(Metric::all().len(), 3);
        assert_eq!(Metric::default(), Metric::Euclidean);
    }

    #[test]
    fn head_skip_threshold_rounds_up_and_gives_up_at_f32_max() {
        let max = f32::MAX as f64;
        assert_eq!(head_skip_threshold(max), f32::INFINITY);
        assert_eq!(head_skip_threshold(f64::INFINITY), f32::INFINITY);
        assert_eq!(head_skip_threshold(max.next_down()), f32::INFINITY);
        assert!(head_skip_threshold(f64::NAN).is_nan());
        let zero = head_skip_threshold(0.0);
        assert!(zero > 0.0 && f64::from(zero) >= 1e-40);
        for bound in [1e-30, 0.1, 1.0, 3.0, 1e20] {
            let threshold = f64::from(head_skip_threshold(bound));
            assert!(threshold >= bound / HEAD_SKIP_SCALE + HEAD_SKIP_FLOOR);
            assert!(
                threshold <= bound * (1.0 + 1e-5) + 1e-39,
                "{bound}: {threshold}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        euclidean(&fv(&[1.0]), &fv(&[1.0, 2.0]));
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use proptest::prelude::*;

    const DIM: usize = 8;

    fn finite_vec() -> impl Strategy<Value = FeatureVector> {
        proptest::collection::vec(-100.0f32..100.0, DIM)
            .prop_map(|v| FeatureVector::from_vec(v).unwrap())
    }

    /// Components spanning eight decades in both signs (and exact zeros).
    pub(crate) fn mixed_component() -> impl Strategy<Value = f32> {
        (-4i32..4, -1.0f32..1.0).prop_map(|(exp, m)| m * 10f32.powi(exp))
    }

    /// Components at the magnitudes where `f32` arithmetic breaks down:
    /// up to ±`f32::MAX`/2 (a difference reaches `f32::MAX`, its square
    /// overflows), around ±1e30 (squares overflow), subnormals (squares
    /// underflow to zero), exact zeros, and the ordinary decades.
    fn extreme_component() -> impl Strategy<Value = f32> {
        let signed = |x: f32, negative: bool| if negative { -x } else { x };
        prop_oneof![
            Just(0.0f32),
            (0.5f32..1.0, any::<bool>()).prop_map(move |(m, n)| signed(m * (f32::MAX / 2.0), n)),
            (-1.0f32..1.0).prop_map(|m| m * 1e30),
            (1u32..0x0080_0000, any::<bool>()).prop_map(move |(b, n)| signed(f32::from_bits(b), n)),
            mixed_component(),
        ]
    }

    proptest! {
        /// d(a, a) == 0 for Euclidean/Manhattan (identity of indiscernibles).
        #[test]
        fn self_distance_is_zero(a in finite_vec()) {
            prop_assert!(euclidean(&a, &a) < 1e-9);
            prop_assert!(manhattan(&a, &a) < 1e-9);
        }

        /// Symmetry: d(a, b) == d(b, a) under every metric.
        #[test]
        fn symmetry(a in finite_vec(), b in finite_vec()) {
            for m in Metric::all() {
                let ab = m.distance(&a, &b);
                let ba = m.distance(&b, &a);
                prop_assert!((ab - ba).abs() < 1e-9, "{m}: {ab} vs {ba}");
            }
        }

        /// Non-negativity under every metric.
        #[test]
        fn non_negative(a in finite_vec(), b in finite_vec()) {
            for m in Metric::all() {
                prop_assert!(m.distance(&a, &b) >= 0.0);
            }
        }

        /// Triangle inequality for the true metrics (Euclidean, Manhattan).
        #[test]
        fn triangle_inequality(a in finite_vec(), b in finite_vec(), c in finite_vec()) {
            let slack = 1e-6; // float tolerance
            prop_assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + slack);
            prop_assert!(manhattan(&a, &c) <= manhattan(&a, &b) + manhattan(&b, &c) + slack);
        }

        /// Cosine distance is scale-invariant.
        #[test]
        fn cosine_scale_invariant(a in finite_vec(), b in finite_vec(), s in 0.1f32..10.0) {
            prop_assume!(a.l2_norm() > 1e-3 && b.l2_norm() > 1e-3);
            let d1 = cosine(&a, &b);
            let d2 = cosine(&a.scale(s), &b);
            prop_assert!((d1 - d2).abs() < 1e-6);
        }

        /// Squared Euclidean orders pairs identically to Euclidean.
        #[test]
        fn squared_preserves_order(a in finite_vec(), b in finite_vec(), c in finite_vec()) {
            let closer_sq = squared_euclidean(&a, &b) < squared_euclidean(&a, &c);
            let closer = euclidean(&a, &b) < euclidean(&a, &c);
            prop_assert_eq!(closer_sq, closer);
        }

        /// The chunked hot-path kernel is bit-identical to the reference
        /// scalar kernel at every dimension — including lengths around
        /// the chunk boundary, which the 1..64 sweep covers. This is the
        /// proptest that lets the optimized kernel replace the reference
        /// without perturbing the golden results.
        #[test]
        fn flat_kernel_is_bit_exact(
            a in proptest::collection::vec(-100.0f32..100.0, 64),
            b in proptest::collection::vec(-100.0f32..100.0, 64),
            dim in 1usize..64,
        ) {
            let flat = squared_euclidean_flat(&a[..dim], &b[..dim]);
            let reference = squared_euclidean_ref(&a[..dim], &b[..dim]);
            prop_assert_eq!(flat.to_bits(), reference.to_bits());
        }

        /// The bounded kernel either completes with the exact same bits as
        /// the unbounded one, or proves (by monotonicity) that the full
        /// distance exceeds the bound.
        #[test]
        fn bounded_kernel_is_exact_or_provably_over(
            a in proptest::collection::vec(-100.0f32..100.0, 64),
            b in proptest::collection::vec(-100.0f32..100.0, 64),
            dim in 1usize..64,
            bound in 0.0f64..200_000.0,
        ) {
            let full = squared_euclidean_flat(&a[..dim], &b[..dim]);
            match squared_euclidean_flat_within(&a[..dim], &b[..dim], bound) {
                Some(d) => {
                    prop_assert_eq!(d.to_bits(), full.to_bits());
                    prop_assert!(d <= bound);
                }
                None => prop_assert!(full > bound),
            }
        }

        /// A head block scores each of its rows' first chunk with the bits
        /// of the scalar reference over those components, and resuming
        /// from that partial sum gives the reference's full distance, at
        /// every dimension (`dim <= LANES` leaves zero pad lanes and an
        /// empty tail). Components span eight decades, so a sum taken in
        /// any other order shows in the low bits.
        #[test]
        fn head_block_then_resume_is_bit_exact(
            rows in proptest::collection::vec(
                proptest::collection::vec(mixed_component(), 64),
                LANES,
            ),
            query in proptest::collection::vec(mixed_component(), 64),
            dim in 1usize..65,
        ) {
            let head_dim = dim.min(LANES);
            let mut block = [0.0f32; HEAD_BLOCK];
            for (r, row) in rows.iter().enumerate() {
                for (j, &x) in row[..head_dim].iter().enumerate() {
                    block[j * LANES + r] = x;
                }
            }
            let heads = squared_euclidean_head_block(&block, &widen_head(&query[..dim]));
            for (r, row) in rows.iter().enumerate() {
                let head_ref = squared_euclidean_ref(&row[..head_dim], &query[..head_dim]);
                prop_assert_eq!(heads[r].to_bits(), head_ref.to_bits());
                let full = squared_euclidean_resume_within(
                    &row[head_dim..dim],
                    &query[head_dim..dim],
                    heads[r],
                    f64::INFINITY,
                );
                let reference = squared_euclidean_ref(&row[..dim], &query[..dim]);
                prop_assert_eq!(full.map(f64::to_bits), Some(reference.to_bits()));
            }
        }

        /// The single-precision skip is sound: whenever a row's `f32`
        /// first-chunk sum exceeds `head_skip_threshold(bound)`, its
        /// `f64` partial exceeds `bound` — for components whose `f32`
        /// squares overflow or underflow, and for bounds at 0, 1e-40,
        /// each row's exact partial and its neighbours, `f32::MAX` and
        /// beyond, and ∞. It is also not vacuous: a partial of ordinary
        /// size is skipped once the bound sits 2⁻¹⁶ below it.
        #[test]
        fn f32_head_skip_proves_the_f64_partial_over_the_bound(
            rows in proptest::collection::vec(
                proptest::collection::vec(extreme_component(), LANES),
                LANES,
            ),
            query in proptest::collection::vec(extreme_component(), LANES),
            dim in 1usize..LANES + 1,
        ) {
            let mut block = [0.0f32; HEAD_BLOCK];
            for (r, row) in rows.iter().enumerate() {
                for (j, &x) in row[..dim].iter().enumerate() {
                    block[j * LANES + r] = x;
                }
            }
            let sums = squared_euclidean_head_block_f32(&block, &pad_head(&query[..dim]));
            let partials = squared_euclidean_head_block(&block, &widen_head(&query[..dim]));
            let max = f32::MAX as f64;
            let mut bounds = vec![0.0, 1e-40, max, max.next_up(), 2.0 * max, f64::MAX, f64::INFINITY];
            for &p in &partials {
                bounds.extend([p, p.next_down(), p.next_up(), p * (1.0 - 1e-6)]);
            }
            for bound in bounds {
                let threshold = head_skip_threshold(bound);
                for (r, (&sum, &partial)) in sums.iter().zip(&partials).enumerate() {
                    if sum > threshold {
                        prop_assert!(
                            partial > bound,
                            "row {r}: f32 sum {sum:e} > threshold {threshold:e} \
                             but f64 partial {partial:e} <= bound {bound:e}"
                        );
                    }
                }
            }
            for (&sum, &partial) in sums.iter().zip(&partials) {
                if (1e-30..1e37).contains(&partial) {
                    let threshold = head_skip_threshold(partial * (1.0 - 1.0 / 65_536.0));
                    prop_assert!(sum > threshold, "{sum:e} not over {threshold:e}");
                }
            }
        }

        /// The cached norm is the norm: caching must not change the value,
        /// and clones/serde round-trips must agree.
        #[test]
        fn cached_norm_matches_recomputation(a in finite_vec()) {
            let expected = a.as_slice()
                .iter()
                .map(|&c| (c as f64) * (c as f64))
                .sum::<f64>()
                .sqrt();
            prop_assert_eq!(a.l2_norm().to_bits(), expected.to_bits());
            // Second read comes from the cache; clone carries it along.
            prop_assert_eq!(a.l2_norm().to_bits(), expected.to_bits());
            prop_assert_eq!(a.clone().l2_norm().to_bits(), expected.to_bits());
        }
    }
}
