//! Seeded Gaussian random projection (Johnson–Lindenstrauss).
//!
//! Real deployments extract cache keys from an early DNN layer; this
//! repository's substitute is a random projection of the synthetic frame
//! descriptor. By the JL lemma the projection approximately preserves
//! relative Euclidean distances, which is the only property the
//! approximate-cache hit test needs from its key space.

use rand::Rng;

use simcore::SimRng;

use crate::vector::FeatureVector;

/// How many output rows [`RandomProjection::project`] accumulates side by
/// side: one block of the stored matrix.
const LANES: usize = 8;

/// A fixed `dim_in → dim_out` Gaussian projection matrix, deterministic in
/// its seed.
///
/// Every device in a collaborative deployment must build keys with the
/// *same* projection (otherwise peer lookups compare incompatible spaces),
/// so the matrix is a pure function of `(dim_in, dim_out, seed)`: devices
/// agree by sharing the seed, and one simulation's devices share one
/// matrix.
///
/// # Example
///
/// ```
/// use features::{FeatureVector, RandomProjection};
///
/// let p = RandomProjection::new(128, 16, 7);
/// let x = FeatureVector::from_vec(vec![1.0; 128]).unwrap();
/// let y = p.project(&x);
/// assert_eq!(y.dim(), 16);
/// // Deterministic: same seed, same key.
/// assert_eq!(RandomProjection::new(128, 16, 7).project(&x), y);
/// ```
#[derive(Debug, Clone)]
pub struct RandomProjection {
    dim_in: usize,
    dim_out: usize,
    seed: u64,
    /// The `dim_out × dim_in` matrix, scaled by `1/sqrt(dim_out)` so
    /// expected squared norms are preserved, stored in blocks of
    /// [`LANES`] rows: `blocks × dim_in × LANES`, element `(r, j)` at
    /// `((r / LANES) * dim_in + j) * LANES + r % LANES`. The rows past
    /// `dim_out` in the last block are zero.
    blocks: Vec<f32>,
}

impl RandomProjection {
    /// Builds the projection for the given dimensions and seed.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(dim_in: usize, dim_out: usize, seed: u64) -> RandomProjection {
        assert!(dim_in > 0, "RandomProjection: dim_in must be positive");
        assert!(dim_out > 0, "RandomProjection: dim_out must be positive");
        let rows = draw_rows(dim_in, dim_out, seed);
        let mut blocks = vec![0.0f32; dim_out.div_ceil(LANES) * dim_in * LANES];
        for (r, row) in rows.chunks_exact(dim_in).enumerate() {
            let block = (r / LANES) * dim_in * LANES;
            for (j, &m) in row.iter().enumerate() {
                blocks[block + j * LANES + r % LANES] = m;
            }
        }
        RandomProjection {
            dim_in,
            dim_out,
            seed,
            blocks,
        }
    }

    /// Input dimension.
    pub fn dim_in(&self) -> usize {
        self.dim_in
    }

    /// Output (key) dimension.
    pub fn dim_out(&self) -> usize {
        self.dim_out
    }

    /// The seed the matrix was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Projects `input` into the key space.
    ///
    /// Each block of `LANES` rows is walked once, input index by input
    /// index, with one `f64` accumulator per row. Every accumulator sees
    /// the same products, added in the same ascending order, as a
    /// row-at-a-time dot product, so the key is bit-identical to it. The
    /// eight chains are independent, which lets the compiler vectorize
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `input.dim() != dim_in`.
    pub fn project(&self, input: &FeatureVector) -> FeatureVector {
        assert_eq!(
            input.dim(),
            self.dim_in,
            "project: input dim {} does not match projection dim_in {}",
            input.dim(),
            self.dim_in
        );
        let x = input.as_slice();
        let mut out = vec![0.0f32; self.dim_out];
        let blocks = self.blocks.chunks_exact(self.dim_in * LANES);
        for (block, out_block) in blocks.zip(out.chunks_mut(LANES)) {
            let mut acc = [0.0f64; LANES];
            for (column, &xj) in block.chunks_exact(LANES).zip(x) {
                for (a, &m) in acc.iter_mut().zip(column) {
                    *a += m as f64 * xj as f64;
                }
            }
            for (o, a) in out_block.iter_mut().zip(acc) {
                *o = a as f32;
            }
        }
        FeatureVector::from_vec(out).expect("projection of finite input is finite")
    }
}

/// The scaled Gaussian matrix in row-major `dim_out × dim_in` draw order.
fn draw_rows(dim_in: usize, dim_out: usize, seed: u64) -> Vec<f32> {
    let mut rng = SimRng::seed(seed).split("random-projection");
    let scale = 1.0 / (dim_out as f64).sqrt();
    (0..dim_in * dim_out)
        .map(|_| (rng.std_normal() * scale) as f32)
        .collect()
}

/// Generates `count` random Gaussian vectors of dimension `dim` — a helper
/// for tests and benchmarks that need plausible raw descriptors.
pub fn random_vectors(count: usize, dim: usize, rng: &mut SimRng) -> Vec<FeatureVector> {
    (0..count)
        .map(|_| {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            FeatureVector::from_vec(v).expect("generated components are finite")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean;

    #[test]
    fn deterministic_in_seed() {
        let a = RandomProjection::new(32, 8, 1);
        let b = RandomProjection::new(32, 8, 1);
        let c = RandomProjection::new(32, 8, 2);
        let mut rng = SimRng::seed(9);
        let x = &random_vectors(1, 32, &mut rng)[0];
        assert_eq!(a.project(x), b.project(x));
        assert_ne!(a.project(x), c.project(x));
    }

    #[test]
    fn output_dimension_is_dim_out() {
        let p = RandomProjection::new(100, 10, 3);
        assert_eq!(p.dim_in(), 100);
        assert_eq!(p.dim_out(), 10);
        assert_eq!(p.seed(), 3);
        let mut rng = SimRng::seed(4);
        let x = &random_vectors(1, 100, &mut rng)[0];
        assert_eq!(p.project(x).dim(), 10);
    }

    #[test]
    #[should_panic(expected = "does not match projection dim_in")]
    fn rejects_wrong_input_dim() {
        let p = RandomProjection::new(8, 4, 0);
        p.project(&FeatureVector::zeros(9));
    }

    #[test]
    fn zero_maps_to_zero() {
        let p = RandomProjection::new(16, 4, 0);
        let y = p.project(&FeatureVector::zeros(16));
        assert!(y.l2_norm() < 1e-9);
    }

    #[test]
    fn projection_is_linear() {
        let p = RandomProjection::new(16, 4, 5);
        let mut rng = SimRng::seed(6);
        let vs = random_vectors(2, 16, &mut rng);
        let sum_then_project = p.project(&vs[0].add(&vs[1]).unwrap());
        let project_then_sum = p.project(&vs[0]).add(&p.project(&vs[1])).unwrap();
        for i in 0..4 {
            assert!((sum_then_project[i] - project_then_sum[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn norms_preserved_in_expectation() {
        // Average ratio of projected-to-original norm should be near 1.
        let p = RandomProjection::new(64, 32, 7);
        let mut rng = SimRng::seed(8);
        let vs = random_vectors(200, 64, &mut rng);
        let mean_ratio: f64 = vs
            .iter()
            .map(|v| p.project(v).l2_norm() / v.l2_norm())
            .sum::<f64>()
            / vs.len() as f64;
        assert!((mean_ratio - 1.0).abs() < 0.1, "mean ratio {mean_ratio}");
    }

    #[test]
    fn distances_roughly_preserved() {
        // JL property: with dim_out = 32 the pairwise distance distortion
        // on a small sample should be modest.
        let p = RandomProjection::new(128, 32, 11);
        let mut rng = SimRng::seed(12);
        let vs = random_vectors(20, 128, &mut rng);
        let projected: Vec<FeatureVector> = vs.iter().map(|v| p.project(v)).collect();
        let mut max_distortion: f64 = 0.0;
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                let orig = euclidean(&vs[i], &vs[j]);
                let proj = euclidean(&projected[i], &projected[j]);
                max_distortion = max_distortion.max((proj / orig - 1.0).abs());
            }
        }
        assert!(max_distortion < 0.6, "max distortion {max_distortion}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::distance::euclidean;
    use crate::distance::proptests::mixed_component;
    use proptest::prelude::*;

    /// The row-at-a-time kernel the blocked one replaced, kept verbatim
    /// as the exactness oracle. `matrix` is the row-major draw.
    fn project_ref(matrix: &[f32], dim_in: usize, dim_out: usize, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; dim_out];
        for (r, out_c) in out.iter_mut().enumerate() {
            let row = &matrix[r * dim_in..(r + 1) * dim_in];
            let mut acc = 0.0f64;
            for (a, b) in row.iter().zip(x) {
                acc += *a as f64 * *b as f64;
            }
            *out_c = acc as f32;
        }
        out
    }

    /// Sets `x[k]` so that `row · x` nearly cancels. The `f64` rounding
    /// of the sum is then large against the result, so a sum taken in
    /// any other order than the reference's shows in the `f32` output;
    /// without the cancellation it almost never does.
    fn cancel_row(x: &mut [f32], row: &[f32], k: usize) {
        let rest: f64 = (0..x.len())
            .filter(|&j| j != k)
            .map(|j| row[j] as f64 * x[j] as f64)
            .sum();
        let cancelling = (-rest / row[k] as f64) as f32;
        if cancelling.is_finite() {
            x[k] = cancelling;
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|c| c.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The JL projection keeps *relative* distances: if a is much closer
        /// to b than to c in the input space, the projection rarely inverts
        /// the relationship by a large factor. We assert the weaker, robust
        /// property that projected distance is within a wide multiplicative
        /// band of the original for 64→16 dims.
        #[test]
        fn distance_band(seed in 0u64..1000) {
            let p = RandomProjection::new(64, 16, seed);
            let mut rng = SimRng::seed(seed ^ 0xdead_beef);
            let vs = random_vectors(6, 64, &mut rng);
            for i in 0..vs.len() {
                for j in (i + 1)..vs.len() {
                    let orig = euclidean(&vs[i], &vs[j]);
                    let proj = euclidean(&p.project(&vs[i]), &p.project(&vs[j]));
                    prop_assert!(proj > orig * 0.2 && proj < orig * 2.5,
                        "orig {orig}, proj {proj}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The blocked kernel is bit-identical to the row-at-a-time
        /// reference for every output size from 1 to 64 (partial blocks,
        /// and whole ones like the 16-row sketch and the 64-row key) and
        /// every input size from 1 to 300 (the 256-wide descriptor
        /// included), with one row's sum driven to near-cancellation.
        #[test]
        fn blocked_kernel_is_bit_exact(
            mut x in proptest::collection::vec(mixed_component(), 1..301),
            dim_out in 1usize..65,
            seed in any::<u64>(),
            pick in any::<usize>(),
        ) {
            let dim_in = x.len();
            let matrix = draw_rows(dim_in, dim_out, seed);
            let r = pick % dim_out;
            cancel_row(&mut x, &matrix[r * dim_in..(r + 1) * dim_in], pick % dim_in);
            let p = RandomProjection::new(dim_in, dim_out, seed);
            let blocked = p.project(&FeatureVector::from_vec(x.clone()).unwrap());
            let expected = project_ref(&matrix, dim_in, dim_out, &x);
            prop_assert_eq!(bits(blocked.as_slice()), bits(&expected));
        }
    }
}
