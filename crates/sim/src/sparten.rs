//! SparTen-style per-MAC comparison model.
//!
//! SparTen (MICRO 2019) is the paper's main dual-sparse comparison point.
//! Architecturally it differs from the Griffin family in three ways that
//! matter for cycles and cost (§VI-B, §VI-E, Table VII):
//!
//! * **no K-unrolling**: each PE is a scalar MAC with its own
//!   accumulator, computing one output's inner product sequentially;
//! * **time-only routing, per MAC**: each MAC streams the *intersection*
//!   of its compressed operand chunks (deep, depth-128 buffers), so
//!   compaction within one output is nearly ideal;
//! * **coarse-grain load balancing**: whole output computations are
//!   dispatched to idle MACs, so imbalance exists only across outputs.
//!
//! We model exactly that: per output `(m, n)` the work is the per-chunk
//! intersection cardinality of `A[m, :]` and `B[:, n]` (at least one
//! cycle per occupied chunk, modelling the chunk pipeline), and outputs
//! are list-scheduled onto the MAC pool.
//!
//! The pair counts are word-parallel. Once per layer, a sparse B is
//! transposed into one row of `⌈k / 64⌉` bit words per column, in
//! O(nnz B); once per sampled row, `A[m, :]` is loaded as words. A
//! chunk's count is then `Σ popcount(a & b)` over its words, with the
//! first and last word masked to the chunk's bit range. A dense operand
//! is all-ones words, so the one-sided variants take the same path.
//! Counts are integers, so the result is exactly the per-element count
//! (pinned by a differential test against it).
//!
//! An all-ones B — dense, or sparse with no zero in its mask — is one
//! shared all-ones column instead of a transpose. Every output of a row
//! then has the same per-chunk counts, so the row is counted once and
//! its outputs join the dispatch waves in runs; only a B with a zero
//! takes the per-output loop. The run sums are integers too, so the
//! result is bit-identical to counting output by output.

use crate::config::{Fidelity, SimConfig};
use crate::layer::GemmLayer;
use crate::sampling::sample_indices;
use crate::scratch::SimScratch;
use crate::single::ScheduleAccum;

/// Structural parameters of the SparTen model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpartenParams {
    /// Number of scalar MAC units (matched to the baseline: 1024).
    pub macs: usize,
    /// Depth of the per-PE compressed sequence buffers (paper: 128).
    pub buffer_depth: usize,
}

impl Default for SpartenParams {
    fn default() -> Self {
        SpartenParams {
            macs: 1024,
            buffer_depth: 128,
        }
    }
}

/// Effectual pairs of one output element per `chunk`-wide slice of
/// the reduction dimension, written into `out` (length `⌈k / chunk⌉`).
/// Returns the total.
///
/// `arow` holds `A[m, :]` and `bcol` holds `B[:, n]` as bit words (bit
/// `kk % 64` of word `kk / 64`); a dense operand is passed as all-ones
/// words. Each chunk is the popcount of the AND of its words, with the
/// first and last word masked to the chunk's bit range because neither
/// `chunk` nor `k` need be a multiple of 64.
fn word_chunk_pairs(arow: &[u64], bcol: &[u64], k: usize, chunk: usize, out: &mut [u64]) -> u64 {
    let mut total = 0u64;
    for (c, slot) in out.iter_mut().enumerate() {
        let lo = c * chunk;
        let hi = (lo + chunk).min(k);
        let (first, last) = (lo / 64, (hi - 1) / 64);
        let mut pairs = 0u64;
        for w in first..=last {
            let mut x = arow[w] & bcol[w];
            if w == first {
                x &= !0u64 << (lo % 64);
            }
            if w == last && !hi.is_multiple_of(64) {
                x &= (1u64 << (hi % 64)) - 1;
            }
            pairs += u64::from(x.count_ones());
        }
        *slot = pairs;
        total += pairs;
    }
    total
}

/// Simulates a layer on a SparTen-style architecture.
///
/// `a_sparse` / `b_sparse` select the one-sided variants `SparTen.A` /
/// `SparTen.B` or the full `SparTen.AB`.
pub fn simulate_sparten(
    layer: &GemmLayer,
    a_sparse: bool,
    b_sparse: bool,
    params: SpartenParams,
    cfg: &SimConfig,
) -> ScheduleAccum {
    simulate_sparten_with(
        layer,
        a_sparse,
        b_sparse,
        params,
        cfg,
        &mut SimScratch::new(),
    )
}

/// [`simulate_sparten`] with caller-provided scratch for the operand
/// words and the per-chunk and per-wave accumulators.
pub fn simulate_sparten_with(
    layer: &GemmLayer,
    a_sparse: bool,
    b_sparse: bool,
    params: SpartenParams,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
) -> ScheduleAccum {
    let mut counter = WordPairs::new(
        layer,
        a_sparse,
        b_sparse,
        params.buffer_depth,
        &mut scratch.sparten_arow,
        &mut scratch.sparten_bcols,
    );
    let uniform_rows = counter.b_stride == 0;
    dispatch_waves(
        layer,
        params,
        cfg,
        &mut scratch.chunk_pairs,
        &mut scratch.wave_sum,
        &mut scratch.wave_max,
        uniform_rows,
        |mi, ni, out| counter.count(mi, ni, out),
    )
}

/// One layer's operands as bit words, for [`word_chunk_pairs`].
struct WordPairs<'a> {
    layer: &'a GemmLayer,
    a_sparse: bool,
    chunk: usize,
    /// Words per operand vector, `⌈k / 64⌉`.
    words: usize,
    /// `A[m, :]` of the row loaded last (all ones when A is dense).
    arow: &'a mut [u64],
    loaded_row: Option<usize>,
    /// `B[:, n]` at offset `n * b_stride`.
    bcols: &'a [u64],
    /// `words` when B has a zero; 0 when every output shares one
    /// all-ones column.
    b_stride: usize,
}

impl<'a> WordPairs<'a> {
    /// Transposes B's columns into rows of words — once per layer, in
    /// O(nnz B) — when B is sparse and has a zero.
    fn new(
        layer: &'a GemmLayer,
        a_sparse: bool,
        b_sparse: bool,
        chunk: usize,
        arow: &'a mut Vec<u64>,
        bcols: &'a mut Vec<u64>,
    ) -> Self {
        let (k, n) = (layer.shape.k, layer.shape.n);
        let words = k.div_ceil(64);
        bcols.clear();
        let b_stride = if b_sparse && !layer.b.all_set(0..k, 0..n) {
            bcols.resize(n * words, 0);
            for kk in 0..k {
                let (w, bit) = (kk / 64, 1u64 << (kk % 64));
                layer
                    .b
                    .for_each_set_in_row(kk, 0, n, |ni| bcols[ni * words + w] |= bit);
            }
            words
        } else {
            bcols.resize(words, !0);
            0
        };
        arow.clear();
        arow.resize(words, !0);
        WordPairs {
            layer,
            a_sparse,
            chunk,
            words,
            arow,
            loaded_row: None,
            bcols,
            b_stride,
        }
    }

    /// Per-chunk effectual pairs of output `(mi, ni)` into `out`;
    /// returns the total. Loads `A[mi, :]` when `mi` changes.
    fn count(&mut self, mi: usize, ni: usize, out: &mut [u64]) -> u64 {
        if self.a_sparse && self.loaded_row != Some(mi) {
            for (w, word) in self.arow.iter_mut().enumerate() {
                *word = self.layer.a.span_bits(mi, w * 64, 64);
            }
            self.loaded_row = Some(mi);
        }
        let bcol = &self.bcols[ni * self.b_stride..][..self.words];
        word_chunk_pairs(self.arow, bcol, self.layer.shape.k, self.chunk, out)
    }
}

/// The cycle model shared by every pair count: samples output rows,
/// dispatches outputs to the MAC pool in waves and prices each wave's
/// chunks. `count(m, n, out)` writes output `(m, n)`'s per-chunk pair
/// counts into `out` and returns their total; it is called row by row.
///
/// With `uniform_rows` set, every output of a row has the same counts
/// (B is all ones): `count` runs once per row, at `n = 0`, and the row's
/// outputs join the waves in runs that split at wave boundaries. The
/// wave sums and maxima are integers, so the result is bit-identical to
/// one output at a time.
#[allow(clippy::too_many_arguments)]
fn dispatch_waves(
    layer: &GemmLayer,
    params: SpartenParams,
    cfg: &SimConfig,
    pairs: &mut Vec<u64>,
    wave_sum: &mut Vec<u64>,
    wave_max: &mut Vec<u64>,
    uniform_rows: bool,
    mut count: impl FnMut(usize, usize, &mut [u64]) -> u64,
) -> ScheduleAccum {
    let (m, k, n) = (layer.shape.m, layer.shape.k, layer.shape.n);

    // Sample output rows for tractability on big layers; columns are
    // kept exact. The sample must fill whole dispatch waves (macs
    // outputs), otherwise a partial wave's cost would be scaled as if
    // the idle MACs had been busy.
    let rows_per_wave = params.macs.div_ceil(n.max(1));
    let row_fidelity = match cfg.fidelity {
        Fidelity::Exact => Fidelity::Exact,
        Fidelity::Sampled { tiles, seed } => Fidelity::Sampled {
            tiles: tiles.max(8).max(rows_per_wave),
            seed,
        },
    };
    let (rows, scale) = sample_indices(m, row_fidelity);

    // Coarse-grain dispatch: outputs are issued to the MAC pool in
    // waves of `macs`, and each wave streams its operand chunks through
    // the depth-`buffer_depth` buffers roughly in step (the compressed
    // sequence fetcher is shared). A wave's chunk therefore costs
    // between the mean and the max of the per-output pair counts; the
    // relaxation constant 0.5 models the partial decoupling the FIFOs
    // provide. This is what caps SparTen below ideal compaction (the
    // paper measures 3.9x for SparTen.B at ~81-89% weight sparsity).
    const BARRIER_RELAXATION: f64 = 0.5;
    let chunks_n = k.div_ceil(params.buffer_depth);
    pairs.clear();
    pairs.resize(chunks_n, 0);
    wave_sum.clear();
    wave_sum.resize(chunks_n, 0);
    wave_max.clear();
    wave_max.resize(chunks_n, 0);
    let mut wave_count = 0usize;
    let mut ops = 0f64;
    let mut cycles = 0f64;
    let mut starved = 0f64;

    let flush = |sum: &mut [u64],
                 max: &mut [u64],
                 count: &mut usize,
                 cycles: &mut f64,
                 starved: &mut f64| {
        if *count == 0 {
            return;
        }
        for c in 0..sum.len() {
            if max[c] == 0 {
                continue;
            }
            let mean = sum[c] as f64 / *count as f64;
            let wave_cost = mean + BARRIER_RELAXATION * (max[c] as f64 - mean);
            *cycles += wave_cost.max(1.0);
            *starved += wave_cost - mean;
            sum[c] = 0;
            max[c] = 0;
        }
        *count = 0;
    };

    for &mi in &rows {
        let (mut ni, mut total) = (0, 0);
        while ni < n {
            // `run` outputs with this count join the current wave.
            let run = if uniform_rows {
                if ni == 0 {
                    total = count(mi, 0, pairs);
                }
                (n - ni).min(params.macs - wave_count)
            } else {
                total = count(mi, ni, pairs);
                1
            };
            ni += run;
            ops += (total * run as u64) as f64;
            for c in 0..chunks_n {
                wave_sum[c] += pairs[c] * run as u64;
                wave_max[c] = wave_max[c].max(pairs[c]);
            }
            wave_count += run;
            if wave_count == params.macs {
                flush(
                    wave_sum,
                    wave_max,
                    &mut wave_count,
                    &mut cycles,
                    &mut starved,
                );
            }
        }
    }
    flush(
        wave_sum,
        wave_max,
        &mut wave_count,
        &mut cycles,
        &mut starved,
    );

    ScheduleAccum {
        cycles: (cycles * scale).max(1.0),
        ops: ops * scale,
        borrowed: 0.0,
        starved: starved * scale,
        sampled: scale > 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_tensor::mask::SparsityMask;
    use griffin_tensor::shape::{CoreDims, GemmShape};
    use proptest::prelude::*;

    /// Per-element reference for [`word_chunk_pairs`]: effectual pairs
    /// of one output element per `chunk`-wide slice of the reduction
    /// dimension, written into `out` (length `⌈k / chunk⌉`), one mask
    /// bit at a time. Returns the total.
    #[allow(clippy::too_many_arguments)]
    fn output_chunk_pairs(
        a: &SparsityMask,
        b: &SparsityMask,
        m: usize,
        n: usize,
        k: usize,
        chunk: usize,
        a_sparse: bool,
        b_sparse: bool,
        out: &mut [u64],
    ) -> u64 {
        let mut total = 0u64;
        for (c, slot) in out.iter_mut().enumerate() {
            let base = c * chunk;
            let end = (base + chunk).min(k);
            let mut pairs = 0u64;
            for kk in base..end {
                let a_nz = a.get(m, kk);
                let b_nz = b.get(kk, n);
                let effectual = match (a_sparse, b_sparse) {
                    (true, true) => a_nz && b_nz,
                    (true, false) => a_nz,
                    (false, true) => b_nz,
                    (false, false) => true,
                };
                if effectual {
                    pairs += 1;
                }
            }
            *slot = pairs;
            total += pairs;
        }
        total
    }

    /// [`simulate_sparten`]'s cycle model over the per-element
    /// reference count.
    fn simulate_reference(
        l: &GemmLayer,
        a_sparse: bool,
        b_sparse: bool,
        params: SpartenParams,
        cfg: &SimConfig,
    ) -> ScheduleAccum {
        let (k, chunk) = (l.shape.k, params.buffer_depth);
        let (mut pairs, mut sum, mut max) = (Vec::new(), Vec::new(), Vec::new());
        dispatch_waves(
            l,
            params,
            cfg,
            &mut pairs,
            &mut sum,
            &mut max,
            false,
            |mi, ni, out| output_chunk_pairs(&l.a, &l.b, mi, ni, k, chunk, a_sparse, b_sparse, out),
        )
    }

    const DEPTHS: [usize; 6] = [1, 7, 64, 100, 128, 200];

    fn layer(m: usize, k: usize, n: usize, da: f64, db: f64, seed: u64) -> GemmLayer {
        GemmLayer::with_densities(GemmShape::new(m, k, n).unwrap(), da, db, seed).unwrap()
    }

    #[test]
    fn dense_input_costs_about_macs_over_pool() {
        let l = layer(32, 256, 32, 1.0, 1.0, 1);
        let acc = simulate_sparten(
            &l,
            true,
            true,
            SpartenParams::default(),
            &SimConfig::exact(),
        );
        let ideal = (32.0 * 256.0 * 32.0) / 1024.0;
        assert!(
            (acc.cycles - ideal).abs() / ideal < 0.05,
            "{} vs {}",
            acc.cycles,
            ideal
        );
    }

    #[test]
    fn sparten_ab_approaches_ideal_intersection_speedup() {
        // 50% x 20% -> ~10% effectual; deep buffers + per-MAC streams
        // should realize most of the 10x over its own dense run.
        let l = layer(64, 512, 64, 0.5, 0.2, 2);
        let acc = simulate_sparten(
            &l,
            true,
            true,
            SpartenParams::default(),
            &SimConfig::exact(),
        );
        let dense_ideal = (64.0 * 512.0 * 64.0) / 1024.0;
        let speedup = dense_ideal / acc.cycles;
        assert!(speedup > 6.0, "speedup {speedup}");
    }

    #[test]
    fn one_sided_variants_skip_only_their_operand() {
        let l = layer(32, 512, 32, 0.5, 0.2, 3);
        let cfg = SimConfig::exact();
        let p = SpartenParams::default();
        let ab = simulate_sparten(&l, true, true, p, &cfg);
        let only_b = simulate_sparten(&l, false, true, p, &cfg);
        let only_a = simulate_sparten(&l, true, false, p, &cfg);
        assert!(ab.cycles < only_b.cycles);
        assert!(ab.cycles < only_a.cycles);
        // B is sparser than A, so SparTen.B is faster than SparTen.A.
        assert!(only_b.cycles < only_a.cycles);
    }

    #[test]
    fn speedup_vs_tiled_dense_baseline_matches_paper_ballpark() {
        // SparTen.B on an 80%-sparse weight tensor: paper reports ~3.9x
        // over the tiled dense baseline.
        let l = layer(64, 1024, 64, 1.0, 0.19, 4);
        let acc = simulate_sparten(
            &l,
            false,
            true,
            SpartenParams::default(),
            &SimConfig::exact(),
        );
        let dense = l.shape.dense_cycles(CoreDims::PAPER) as f64;
        let speedup = dense / acc.cycles;
        assert!(speedup > 3.0 && speedup < 6.0, "speedup {speedup}");
    }

    #[test]
    fn sampled_rows_are_unbiased() {
        let l = layer(128, 256, 32, 0.5, 0.3, 5);
        let exact = simulate_sparten(
            &l,
            true,
            true,
            SpartenParams::default(),
            &SimConfig::exact(),
        );
        let cfg = SimConfig {
            fidelity: Fidelity::Sampled { tiles: 16, seed: 6 },
            ..SimConfig::default()
        };
        let sampled = simulate_sparten(&l, true, true, SpartenParams::default(), &cfg);
        let rel = (sampled.cycles - exact.cycles).abs() / exact.cycles;
        assert!(rel < 0.15, "rel {rel}");
    }

    #[test]
    fn empty_chunks_cost_nothing() {
        let a = SparsityMask::zeros(1, 256);
        let b = SparsityMask::ones(256, 1);
        let mut out = vec![0u64; 2];
        let total = output_chunk_pairs(&a, &b, 0, 0, 256, 128, true, true, &mut out);
        assert_eq!(total, 0);
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn chunk_pairs_split_across_chunks() {
        let mut a = SparsityMask::zeros(1, 256);
        a.set(0, 0, true);
        a.set(0, 200, true);
        let b = SparsityMask::ones(256, 1);
        let mut out = vec![0u64; 2];
        let total = output_chunk_pairs(&a, &b, 0, 0, 256, 128, true, true, &mut out);
        assert_eq!(total, 2);
        assert_eq!(out, vec![1, 1]);
    }

    #[test]
    fn wave_barrier_keeps_speedup_below_ideal() {
        // Ideal intersection speedup at 50% x 20% is 10x; the chunk
        // barrier must keep SparTen visibly below it.
        let l = layer(64, 1024, 64, 0.5, 0.2, 9);
        let acc = simulate_sparten(
            &l,
            true,
            true,
            SpartenParams::default(),
            &SimConfig::exact(),
        );
        let ideal = (64.0 * 1024.0 * 64.0) / 1024.0;
        let speedup = ideal / acc.cycles;
        assert!(
            speedup < 9.0,
            "speedup {speedup} suspiciously close to ideal"
        );
        assert!(acc.starved > 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The word-parallel count equals the per-element reference for
        /// every output, chunk and operand side.
        #[test]
        fn word_count_matches_per_element_reference(
            m in 1usize..6,
            k in 1usize..300,
            n in 1usize..12,
            da in 0.0f64..1.0,
            db in 0.0f64..1.0,
            depth in 0usize..6,
            seed in 0u64..1000,
        ) {
            let l = layer(m, k, n, da, db, seed);
            let chunk = DEPTHS[depth];
            let chunks = k.div_ceil(chunk);
            let (mut arow, mut bcols) = (Vec::new(), Vec::new());
            let (mut got, mut want) = (vec![0u64; chunks], vec![0u64; chunks]);
            for (a_sparse, b_sparse) in [(true, true), (true, false), (false, true), (false, false)] {
                let mut counter =
                    WordPairs::new(&l, a_sparse, b_sparse, chunk, &mut arow, &mut bcols);
                for mi in 0..m {
                    for ni in 0..n {
                        let total = counter.count(mi, ni, &mut got);
                        let expect = output_chunk_pairs(
                            &l.a, &l.b, mi, ni, k, chunk, a_sparse, b_sparse, &mut want,
                        );
                        prop_assert_eq!(total, expect, "({}, {}) a{} b{}", mi, ni, a_sparse, b_sparse);
                        prop_assert_eq!(&got, &want, "({}, {}) a{} b{}", mi, ni, a_sparse, b_sparse);
                    }
                }
            }
        }

        /// The whole `ScheduleAccum` is bitwise the reference's, under
        /// exact and sampled fidelity, with few enough MACs that several
        /// waves flush, through one reused scratch. `ones` makes B (1)
        /// or both operands (2) all ones, so the uniform-row runs meet
        /// an `n` that need not divide `macs` and rows that split
        /// across waves; the reference counts one output at a time.
        #[test]
        fn schedule_matches_per_element_reference(
            m in 1usize..40,
            k in 1usize..300,
            n in 1usize..12,
            da in 0.0f64..1.0,
            db in 0.0f64..1.0,
            depth in 0usize..6,
            macs in 1usize..24,
            seed in 0u64..1000,
            ones in 0usize..3,
        ) {
            let l = layer(m, k, n, da, db, seed);
            let l = match ones {
                0 => l,
                1 => GemmLayer::new(l.shape, l.a, SparsityMask::ones(k, n)).unwrap(),
                _ => GemmLayer::new(l.shape, SparsityMask::ones(m, k), SparsityMask::ones(k, n))
                    .unwrap(),
            };
            let params = SpartenParams { macs, buffer_depth: DEPTHS[depth] };
            let sampled = SimConfig {
                fidelity: Fidelity::Sampled { tiles: 3, seed },
                ..SimConfig::default()
            };
            let mut scratch = SimScratch::new();
            for cfg in [SimConfig::exact(), sampled] {
                for (a_sparse, b_sparse) in [(true, true), (true, false), (false, true), (false, false)] {
                    let got = simulate_sparten_with(&l, a_sparse, b_sparse, params, &cfg, &mut scratch);
                    let want = simulate_reference(&l, a_sparse, b_sparse, params, &cfg);
                    prop_assert_eq!(got, want, "a{} b{} {:?}", a_sparse, b_sparse, cfg.fidelity);
                }
            }
        }
    }
}
