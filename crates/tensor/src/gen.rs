//! Seeded random tensor generators.
//!
//! The paper evaluates pruned checkpoints (Table IV); we substitute
//! synthetic tensors with the same densities (see DESIGN.md, substitution
//! table). Two generation flavours match the two sparsity sources the paper
//! names:
//!
//! * **weight pruning** — unstructured magnitude pruning leaves an
//!   (approximately) i.i.d. Bernoulli nonzero pattern over the weight
//!   tensor ([`TensorGen::pruned_weights`]),
//! * **ReLU** — activations are zero wherever the pre-activation was
//!   negative, which for a roughly sign-symmetric distribution is again an
//!   element-wise i.i.d. pattern ([`TensorGen::relu_activations`]).
//!
//! All generators are deterministic given the seed so that experiments are
//! exactly reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::mask::SparsityMask;
use crate::matrix::Matrix;

/// A deterministic tensor generator.
///
/// ```
/// use griffin_tensor::gen::TensorGen;
/// let mut g1 = TensorGen::seeded(42);
/// let mut g2 = TensorGen::seeded(42);
/// let a = g1.pruned_weights(32, 32, 0.25);
/// let b = g2.pruned_weights(32, 32, 0.25);
/// assert_eq!(a, b); // same seed, same tensor
/// ```
#[derive(Debug, Clone)]
pub struct TensorGen {
    rng: SmallRng,
}

impl TensorGen {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        TensorGen {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Clamped density: probabilities are silently clipped into `[0, 1]`
    /// so sweep code can pass computed values without ceremony.
    fn clamp_density(density: f64) -> f64 {
        density.clamp(0.0, 1.0)
    }

    /// A nonzero INT8 value, uniform over `[-127, 127] \ {0}`.
    fn nonzero_value(&mut self) -> i8 {
        loop {
            let v = self.rng.gen_range(-127i16..=127) as i8;
            if v != 0 {
                return v;
            }
        }
    }

    /// An i.i.d. Bernoulli mask with the given nonzero probability.
    pub fn bernoulli_mask(&mut self, rows: usize, cols: usize, density: f64) -> SparsityMask {
        let p = Self::clamp_density(density);
        // `gen_bool` consumes no randomness at p = 1.0 (it
        // short-circuits), so the dense case can skip the element loop
        // without perturbing the RNG stream — workload builders draw
        // many fully-dense operand masks.
        if p >= 1.0 {
            return SparsityMask::ones(rows, cols);
        }
        self.draw_mask(rows, cols, std::iter::repeat_n(p, rows * cols))
    }

    /// One `gen_bool(pp)` per element, in row-major order, for the
    /// `rows · cols` probabilities `pps` yields. Row-major element order
    /// is plain linear bit order, so each 64-bit word is assembled in a
    /// register and stored once.
    fn draw_mask(
        &mut self,
        rows: usize,
        cols: usize,
        mut pps: impl Iterator<Item = f64>,
    ) -> SparsityMask {
        let words = (rows * cols).div_ceil(64);
        let mut bits = Vec::with_capacity(words);
        for _ in 0..words {
            let mut w = 0u64;
            for (b, pp) in pps.by_ref().take(64).enumerate() {
                if self.rng.gen_bool(pp) {
                    w |= 1u64 << b;
                }
            }
            bits.push(w);
        }
        SparsityMask::from_words(rows, cols, bits)
    }

    /// Synthetic magnitude-pruned weight matrix (`K × N` for a layer) with
    /// the given density of nonzeros.
    pub fn pruned_weights(&mut self, rows: usize, cols: usize, density: f64) -> Matrix<i8> {
        self.masked_values(rows, cols, density)
    }

    /// Synthetic post-ReLU activation matrix (`M × K`) with the given
    /// density of nonzeros. Nonzero values are positive, as ReLU outputs.
    pub fn relu_activations(&mut self, rows: usize, cols: usize, density: f64) -> Matrix<i8> {
        let p = Self::clamp_density(density);
        let mut m = Matrix::<i8>::zeros(rows, cols).expect("validated dims");
        for r in 0..rows {
            for c in 0..cols {
                if self.rng.gen_bool(p) {
                    m[(r, c)] = self.rng.gen_range(1i16..=127) as i8;
                }
            }
        }
        m
    }

    /// A fully dense random INT8 matrix (every element nonzero) — the
    /// `DNN.dense` case (swish / GeLU activations, unpruned weights).
    pub fn dense(&mut self, rows: usize, cols: usize) -> Matrix<i8> {
        let mut m = Matrix::<i8>::zeros(rows, cols).expect("validated dims");
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = self.nonzero_value();
            }
        }
        m
    }

    /// Matrix whose nonzero pattern is Bernoulli(`density`) and whose
    /// nonzero values are uniform nonzero INT8.
    fn masked_values(&mut self, rows: usize, cols: usize, density: f64) -> Matrix<i8> {
        let p = Self::clamp_density(density);
        let mut m = Matrix::<i8>::zeros(rows, cols).expect("validated dims");
        for r in 0..rows {
            for c in 0..cols {
                if self.rng.gen_bool(p) {
                    m[(r, c)] = self.nonzero_value();
                }
            }
        }
        m
    }

    /// A standard-normal draw (Box–Muller, avoids a rand_distr
    /// dependency).
    fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A mask with *channel-minor* per-channel density variation: the
    /// reduction axis enumerates `k = spatial · Cin + cin` (NHWC /
    /// channels-last im2col, the layout of mobile NPUs including the
    /// paper's), and every input channel `cin` draws one log-normal
    /// density factor with standard deviation `spread`.
    ///
    /// When `Cin` is a multiple of the lane count `K0`, the lane of an
    /// element is `cin mod K0`, so per-channel variation becomes
    /// *persistent per-lane load imbalance* — the precise effect the
    /// paper's rotation shuffler and `d2` routing mitigate (§III "Load
    /// Balancing", observations 3-4 of §VI-A).
    ///
    /// `k_axis_is_rows` is `true` for weight matrices (`K × N`) and
    /// `false` for activation matrices (`M × K`).
    ///
    /// Element `(k, o)` is nonzero with probability
    /// `pp = clamp(p · gain · chan_f[k mod Cin] · other_f[o], 0, 1)`,
    /// where `gain` comes from a 4-pass calibration of the mean density
    /// over the factor grid. The calibration is part of the model: its
    /// f64 sums set `gain`, so reordering or subsampling them changes
    /// every mask. The draw contract is exact too: after the factors,
    /// the mask takes one `gen_bool(pp)` per element with `pp < 1`, in
    /// row-major order, and none for an element with `pp ≥ 1`.
    pub fn channel_minor_mask(
        &mut self,
        rows: usize,
        cols: usize,
        density: f64,
        cin: usize,
        spread: f64,
        k_axis_is_rows: bool,
    ) -> SparsityMask {
        let (scale, chan_f, other_f) =
            self.channel_factors(rows, cols, density, cin, spread, k_axis_is_rows);
        // `scale · chan_f · other_f` evaluates left to right, so folding
        // `scale` into the channel factor keeps every `pp` bit-exact. The
        // K-axis factor is expanded to its full length so that no element
        // pays for `k mod Cin`.
        let k_len = if k_axis_is_rows { rows } else { cols };
        let k_f: Vec<f64> = chan_f
            .iter()
            .map(|f| scale * f)
            .cycle()
            .take(k_len)
            .collect();
        let (row_f, col_f) = if k_axis_is_rows {
            (k_f, other_f)
        } else {
            (other_f, k_f)
        };
        let pps = row_f
            .iter()
            .flat_map(|&rf| col_f.iter().map(move |&cf| (rf * cf).clamp(0.0, 1.0)));
        self.draw_mask(rows, cols, pps)
    }

    /// The factors of [`TensorGen::channel_minor_mask`]: `p · gain`, the
    /// per-channel factors and the per-index factors of the other axis.
    fn channel_factors(
        &mut self,
        rows: usize,
        cols: usize,
        density: f64,
        cin: usize,
        spread: f64,
        k_axis_is_rows: bool,
    ) -> (f64, Vec<f64>, Vec<f64>) {
        let p = Self::clamp_density(density);
        let cin = cin.max(1);
        let lognormal = |g: &mut Self, s: f64| (g.standard_normal() * s - s * s / 2.0).exp();
        let chan_f: Vec<f64> = (0..cin).map(|_| lognormal(self, spread)).collect();
        let other_len = if k_axis_is_rows { cols } else { rows };
        let other_f: Vec<f64> = (0..other_len)
            .map(|_| lognormal(self, spread * 0.3))
            .collect();

        // Clamping per-element probabilities into [0, 1] biases the mean
        // density downward (heavy log-normal tails saturate); calibrate a
        // global gain so the realized mean matches the target. The mean
        // is evaluated on the deterministic factor grid (subsampled along
        // the non-channel axis for speed).
        let stride = (other_len / 512).max(1);
        let mut gain = 1.0f64;
        if p > 0.0 && p < 1.0 {
            for _ in 0..4 {
                let mut sum = 0.0;
                let mut count = 0usize;
                for f in &chan_f {
                    for g in other_f.iter().step_by(stride) {
                        sum += (p * gain * f * g).clamp(0.0, 1.0);
                        count += 1;
                    }
                }
                let mean = sum / count as f64;
                if mean <= 0.0 {
                    break;
                }
                // Saturated (clamped) channels cannot rise further, so
                // the required gain may exceed 1/p; cap only to keep the
                // loop numerically tame.
                gain = (gain * p / mean).min(100.0);
            }
        }
        (p * gain, chan_f, other_f)
    }

    /// A fresh sub-generator whose stream is independent of subsequent
    /// draws on `self`. Handy for per-layer seeding.
    pub fn fork(&mut self) -> TensorGen {
        TensorGen::seeded(self.rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-element `channel_minor_mask` loop the word-assembled one
    /// must reproduce bit for bit, draw for draw.
    fn channel_minor_mask_reference(
        g: &mut TensorGen,
        rows: usize,
        cols: usize,
        density: f64,
        cin: usize,
        spread: f64,
        k_axis_is_rows: bool,
    ) -> SparsityMask {
        let (scale, chan_f, other_f) =
            g.channel_factors(rows, cols, density, cin, spread, k_axis_is_rows);
        let cin = chan_f.len();
        let mut m = SparsityMask::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let (k_idx, o_idx) = if k_axis_is_rows { (r, c) } else { (c, r) };
                let pp = (scale * chan_f[k_idx % cin] * other_f[o_idx]).clamp(0.0, 1.0);
                if g.rng.gen_bool(pp) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The word-assembled generator equals the per-element reference
        /// and leaves the stream where it does: the next draw agrees.
        /// Shapes cover partial last words and `cin` not dividing K;
        /// densities cover 0 and, with a wide spread, saturated `pp ≥ 1`
        /// elements that draw nothing.
        #[test]
        fn channel_minor_mask_matches_per_element_reference(
            seed in 0u64..1_000_000,
            shape in (1usize..40, 1usize..150),
            density_pct in 0u64..=100,
            cin in 1usize..80,
            spread in 0.0f64..2.5,
            k_axis_is_rows in proptest::bool::ANY,
        ) {
            let (rows, cols) = shape;
            // A quarter of the cases at density 0, a quarter in 0.6–1.0
            // (where a wide spread saturates elements), the rest uniform.
            let density = match density_pct % 4 {
                0 => 0.0,
                1 => 0.6 + 0.4 * density_pct as f64 / 100.0,
                _ => density_pct as f64 / 100.0,
            };
            let mut fast = TensorGen::seeded(seed);
            let mut slow = TensorGen::seeded(seed);
            let got = fast.channel_minor_mask(rows, cols, density, cin, spread, k_axis_is_rows);
            let want = channel_minor_mask_reference(
                &mut slow, rows, cols, density, cin, spread, k_axis_is_rows,
            );
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(fast.bernoulli_mask(1, 70, 0.5), slow.bernoulli_mask(1, 70, 0.5));
        }
    }

    #[test]
    fn saturated_and_empty_masks_match_the_reference() {
        // One fixed case of each regime the proptest samples: some
        // `pp ≥ 1` (no draw), and density 0 (a draw per element, none set).
        for (density, spread, saturated) in [(0.9, 2.0, true), (0.0, 0.8, false)] {
            let (scale, chan_f, other_f) =
                TensorGen::seeded(1).channel_factors(8, 67, density, 5, spread, true);
            let any_saturated = chan_f
                .iter()
                .any(|f| other_f.iter().any(|g| scale * f * g >= 1.0));
            assert_eq!(any_saturated, saturated, "density {density}");
            let mut fast = TensorGen::seeded(1);
            let mut slow = TensorGen::seeded(1);
            let got = fast.channel_minor_mask(8, 67, density, 5, spread, true);
            let want = channel_minor_mask_reference(&mut slow, 8, 67, density, 5, spread, true);
            assert_eq!(got, want, "density {density}");
            assert_eq!(got.nnz() == 0, density == 0.0);
            assert_eq!(
                fast.bernoulli_mask(1, 70, 0.5),
                slow.bernoulli_mask(1, 70, 0.5)
            );
        }
    }

    #[test]
    fn determinism_given_seed() {
        let a = TensorGen::seeded(1).bernoulli_mask(16, 16, 0.5);
        let b = TensorGen::seeded(1).bernoulli_mask(16, 16, 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TensorGen::seeded(1).bernoulli_mask(32, 32, 0.5);
        let b = TensorGen::seeded(2).bernoulli_mask(32, 32, 0.5);
        assert_ne!(a, b);
    }

    #[test]
    fn density_is_respected_in_expectation() {
        let m = TensorGen::seeded(3).bernoulli_mask(128, 128, 0.2);
        let d = m.density();
        assert!((d - 0.2).abs() < 0.02, "density {d} too far from 0.2");
    }

    #[test]
    fn pruned_weights_have_target_density() {
        let w = TensorGen::seeded(4).pruned_weights(100, 100, 0.11);
        assert!((w.density() - 0.11).abs() < 0.03);
    }

    #[test]
    fn relu_activations_are_nonnegative() {
        let a = TensorGen::seeded(5).relu_activations(64, 64, 0.5);
        assert!(a.as_slice().iter().all(|&v| v >= 0));
        assert!((a.density() - 0.5).abs() < 0.05);
    }

    #[test]
    fn dense_matrix_has_no_zeros() {
        let d = TensorGen::seeded(6).dense(32, 32);
        assert_eq!(d.nnz(), 32 * 32);
    }

    #[test]
    fn density_extremes() {
        let empty = TensorGen::seeded(7).bernoulli_mask(16, 16, 0.0);
        assert_eq!(empty.nnz(), 0);
        let full = TensorGen::seeded(7).bernoulli_mask(16, 16, 1.0);
        assert_eq!(full.nnz(), 256);
        // Out-of-range densities are clamped, not rejected.
        let clamped = TensorGen::seeded(7).bernoulli_mask(8, 8, 1.7);
        assert_eq!(clamped.nnz(), 64);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut g = TensorGen::seeded(9);
        let mut f1 = g.fork();
        let mut f2 = g.fork();
        assert_ne!(
            f1.bernoulli_mask(16, 16, 0.5),
            f2.bernoulli_mask(16, 16, 0.5)
        );
    }
}
