//! Small parameterized synthetic workloads for tests and examples.

use griffin_core::accelerator::Workload;
use griffin_core::category::DnnCategory;
use griffin_sim::layer::GemmLayer;
use griffin_tensor::error::TensorError;
use griffin_tensor::gen::TensorGen;
use griffin_tensor::shape::GemmShape;

/// Builds one synthetic GEMM layer with realistic channel-varied masks.
///
/// `b_density` / `a_density` are the nonzero fractions of the weight and
/// activation tensors (Table IV uses e.g. 0.19 / 0.57 for ResNet-50).
///
/// # Errors
///
/// Returns [`TensorError`] for zero dimensions.
///
/// ```
/// use griffin_workloads::synth::synthetic_layer;
/// let l = synthetic_layer(64, 256, 64, 0.2, 0.5, 1)?;
/// assert!(l.b_density() < 0.3);
/// # Ok::<(), griffin_tensor::TensorError>(())
/// ```
pub fn synthetic_layer(
    m: usize,
    k: usize,
    n: usize,
    b_density: f64,
    a_density: f64,
    seed: u64,
) -> Result<GemmLayer, TensorError> {
    let shape = GemmShape::new(m, k, n)?;
    let mut gen = TensorGen::seeded(seed);
    // Treat the whole K extent as one channel group of width min(k, 64).
    let cin = k.min(64);
    let a = if a_density >= 1.0 {
        griffin_tensor::mask::SparsityMask::ones(m, k)
    } else {
        gen.channel_minor_mask(m, k, a_density, cin, 0.6, false)
    };
    let b = if b_density >= 1.0 {
        griffin_tensor::mask::SparsityMask::ones(k, n)
    } else {
        gen.channel_minor_mask(k, n, b_density, cin, 0.8, true)
    };
    GemmLayer::new(shape, a, b)
}

/// Builds a synthetic multi-layer workload of the given category with
/// plausible layer shapes.
///
/// # Errors
///
/// Propagates shape validation errors (never for `layers ≥ 1`).
pub fn synthetic_workload(
    name: &str,
    category: DnnCategory,
    layers: usize,
    seed: u64,
) -> Result<Workload, TensorError> {
    let (a_d, b_d) = densities(category);
    let mut v = Vec::new();
    for i in 0..layers {
        let (m, k, n) = SHAPES[i % SHAPES.len()];
        v.push(synthetic_layer(
            m,
            k,
            n,
            b_d,
            a_d,
            seed.wrapping_add(i as u64),
        )?);
    }
    Ok(Workload::new(name, category, v))
}

/// The layer shapes [`synthetic_workload`] cycles through.
const SHAPES: [(usize, usize, usize); 4] = [
    (196, 1152, 256),
    (784, 576, 128),
    (49, 2304, 512),
    (64, 768, 768),
];

/// The (A, B) nonzero fractions of [`synthetic_workload`]'s layers.
fn densities(category: DnnCategory) -> (f64, f64) {
    let a_d = if category.a_sparse() { 0.45 } else { 1.0 };
    let b_d = if category.b_sparse() { 0.19 } else { 1.0 };
    (a_d, b_d)
}

/// Mask elements a layer's build draws at random: a side at density 1.0
/// or above is an all-ones mask and draws nothing (the rule
/// [`synthetic_layer`] and the suite builders share).
pub fn drawn_layer_elements(m: usize, k: usize, n: usize, b_density: f64, a_density: f64) -> usize {
    let a = if a_density >= 1.0 { 0 } else { m * k };
    let b = if b_density >= 1.0 { 0 } else { k * n };
    a + b
}

/// Mask elements [`synthetic_workload`] draws at random, from the layer
/// shapes alone.
pub fn drawn_workload_elements(category: DnnCategory, layers: usize) -> usize {
    let (a_d, b_d) = densities(category);
    (0..layers)
        .map(|i| {
            let (m, k, n) = SHAPES[i % SHAPES.len()];
            drawn_layer_elements(m, k, n, b_d, a_d)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_densities_are_respected() {
        let l = synthetic_layer(128, 512, 128, 0.2, 0.5, 1).unwrap();
        assert!((l.b_density() - 0.2).abs() < 0.06);
        assert!((l.a_density() - 0.5).abs() < 0.06);
    }

    #[test]
    fn drawn_elements_count_the_masks_a_build_draws() {
        for cat in DnnCategory::ALL {
            let wl = synthetic_workload("s", cat, 5, 3).unwrap();
            let drawn: usize = wl
                .layers
                .iter()
                .flat_map(|l| [&l.a, &l.b])
                .filter(|m| m.nnz() < m.rows() * m.cols())
                .map(|m| m.rows() * m.cols())
                .sum();
            assert_eq!(drawn_workload_elements(cat, 5), drawn, "{cat:?}");
        }
        assert_eq!(drawn_layer_elements(8, 16, 4, 0.5, 1.0), 16 * 4);
    }

    #[test]
    fn dense_densities_shortcut_to_ones() {
        let l = synthetic_layer(16, 64, 16, 1.0, 1.0, 2).unwrap();
        assert_eq!(l.a_density(), 1.0);
        assert_eq!(l.b_density(), 1.0);
    }

    #[test]
    fn workload_category_controls_masks() {
        let b = synthetic_workload("b", DnnCategory::B, 2, 3).unwrap();
        assert!(b.layers[0].a_density() == 1.0 && b.layers[0].b_density() < 0.5);
        let a = synthetic_workload("a", DnnCategory::A, 2, 3).unwrap();
        assert!(a.layers[0].a_density() < 0.7 && a.layers[0].b_density() == 1.0);
    }

    #[test]
    fn workload_has_requested_layer_count() {
        let w = synthetic_workload("n", DnnCategory::AB, 5, 4).unwrap();
        assert_eq!(w.layers.len(), 5);
    }
}
