//! Bit-set sparsity masks.
//!
//! The borrowing simulator only cares about *which* operands are zero, not
//! their values, so workloads are represented as [`SparsityMask`]es: a
//! packed bit-set over a `rows × cols` grid with `true` marking a nonzero
//! element.

use std::ops::Range;

use crate::error::TensorError;

/// A packed 2-D bit-set, `true` = nonzero element.
///
/// The nonzero count is kept alongside the bits (every constructor and
/// mutator maintains it), so [`nnz`](SparsityMask::nnz) and
/// [`density`](SparsityMask::density) cost O(1): the simulator reads
/// them per layer, per mode and per plane.
///
/// An all-ones mask holds no words: the dense operands of DNN.dense,
/// DNN.A and DNN.B are stored as their shape alone, and the readers
/// synthesize their words. Every constructor and mutator keeps this
/// canonical form, so the derived `PartialEq` compares content.
///
/// ```
/// use griffin_tensor::mask::SparsityMask;
/// let m = SparsityMask::from_fn(2, 3, |r, c| (r + c) % 2 == 0);
/// assert_eq!(m.nnz(), 3);
/// assert!((m.density() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityMask {
    rows: usize,
    cols: usize,
    /// Row-major packed bits, the trailing bits of the last word zero.
    /// Empty exactly when every element is set (`nnz == rows · cols`);
    /// dimensions are positive, so an empty vector means nothing else.
    bits: Vec<u64>,
    /// Nonzero elements.
    nnz: usize,
}

impl SparsityMask {
    /// Creates an all-zero (fully sparse) mask.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero; masks always describe a concrete
    /// tensor which the shape layer has already validated.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mask dimensions must be positive");
        let words = (rows * cols).div_ceil(64);
        SparsityMask {
            rows,
            cols,
            bits: vec![0; words],
            nnz: 0,
        }
    }

    /// Creates an all-one (fully dense) mask, which holds no words.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn ones(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mask dimensions must be positive");
        SparsityMask {
            rows,
            cols,
            bits: Vec::new(),
            nnz: rows * cols,
        }
    }

    /// Builds a mask from a predicate over `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> bool>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Builds a mask from its packed words, for bulk in-crate builders
    /// (row-major bit order; the trailing bits of the last word must be
    /// zero).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, `bits` is not exactly
    /// `⌈rows · cols / 64⌉` words, or a trailing bit is set: the count
    /// decides whether the words are kept, so a stray padding bit would
    /// make a mask with a zero read as all ones.
    pub(crate) fn from_words(rows: usize, cols: usize, bits: Vec<u64>) -> Self {
        assert!(rows > 0 && cols > 0, "mask dimensions must be positive");
        let len = rows * cols;
        assert_eq!(bits.len(), len.div_ceil(64), "mask word count");
        assert!(
            len.is_multiple_of(64) || bits[bits.len() - 1] >> (len % 64) == 0,
            "trailing bits must be zero"
        );
        let nnz = count_ones(&bits);
        SparsityMask {
            rows,
            cols,
            bits: if nnz == len { Vec::new() } else { bits },
            nnz,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn bit_index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Packed word `wi`. An all-ones mask synthesizes it: `u64::MAX`,
    /// the last word masked to the `rows · cols mod 64` bits in range.
    #[inline]
    fn word(&self, wi: usize) -> u64 {
        if self.bits.is_empty() {
            let left = self.rows * self.cols - wi * 64;
            if left >= 64 {
                u64::MAX
            } else {
                (1u64 << left) - 1
            }
        } else {
            self.bits[wi]
        }
    }

    /// Returns the bit at `(row, col)`; out-of-bounds coordinates read as
    /// `false` (a padded zero), which is exactly the semantics of tile
    /// edges in the blocked view.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        if row >= self.rows || col >= self.cols {
            return false;
        }
        let i = self.bit_index(row, col);
        self.word(i / 64) >> (i % 64) & 1 == 1
    }

    /// Sets the bit at `(row, col)`. Clearing a bit of an all-ones mask
    /// first materializes its words; setting the last zero drops them.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(
            row < self.rows && col < self.cols,
            "mask index ({row},{col}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        if self.get(row, col) == value {
            return;
        }
        let len = self.rows * self.cols;
        if self.bits.is_empty() {
            self.bits = (0..len.div_ceil(64)).map(|wi| self.word(wi)).collect();
        }
        let i = self.bit_index(row, col);
        self.bits[i / 64] ^= 1u64 << (i % 64);
        if value {
            self.nnz += 1;
        } else {
            self.nnz -= 1;
        }
        if self.nnz == len {
            self.bits = Vec::new();
        }
    }

    /// Number of nonzero elements.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Heap bytes held by the packed bits: 0 for an all-ones mask.
    pub fn heap_bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>()
    }

    /// Fraction of nonzero elements in `[0, 1]`.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Element-wise AND of two masks of identical shape — the effectual
    /// operations of a dual-sparse GEMM position pair. An all-ones
    /// operand returns a copy of the other.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn and(&self, other: &SparsityMask) -> Result<SparsityMask, TensorError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                found: format!("{}x{}", other.rows, other.cols),
            });
        }
        if self.bits.is_empty() {
            return Ok(other.clone());
        }
        if other.bits.is_empty() {
            return Ok(self.clone());
        }
        let bits = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| a & b)
            .collect();
        Ok(Self::from_words(self.rows, self.cols, bits))
    }

    /// Calls `f(col)` for every set bit of `row` with
    /// `col_start <= col < col_end`, walking the packed words directly
    /// (trailing-zeros iteration) instead of testing every coordinate.
    ///
    /// This is the word-level primitive the scheduler's op-grid builders
    /// are made of: a whole 64-element span of zeros costs one word
    /// load. Out-of-range rows produce no calls and `col_end` is clipped
    /// to the mask width — the same zero-padding semantics as [`get`].
    ///
    /// [`get`]: SparsityMask::get
    #[inline]
    pub fn for_each_set_in_row<F: FnMut(usize)>(
        &self,
        row: usize,
        col_start: usize,
        col_end: usize,
        mut f: F,
    ) {
        if row >= self.rows {
            return;
        }
        let end = col_end.min(self.cols);
        if col_start >= end {
            return;
        }
        let base = row * self.cols;
        let lo = base + col_start; // first bit, inclusive
        let hi = base + end; // last bit, exclusive
        let first_word = lo / 64;
        let last_word = (hi - 1) / 64;
        for wi in first_word..=last_word {
            let mut w = self.word(wi);
            if wi == first_word {
                w &= !0u64 << (lo % 64);
            }
            if wi == last_word && !hi.is_multiple_of(64) {
                w &= (1u64 << (hi % 64)) - 1;
            }
            while w != 0 {
                f(wi * 64 + w.trailing_zeros() as usize - base);
                w &= w - 1;
            }
        }
    }

    /// Returns up to 64 consecutive bits of one row as a word: bit `i`
    /// of the result is the mask at `(row, col_start + i)` for
    /// `i < width`. Out-of-range positions read as zero (padding), so a
    /// tile edge simply truncates the span.
    ///
    /// This is the fastest bulk read the mask offers — one or two word
    /// loads — and what the op-grid builders use for the narrow spatial
    /// spans of B tiles.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `width > 64`.
    #[inline]
    pub fn span_bits(&self, row: usize, col_start: usize, width: usize) -> u64 {
        debug_assert!(width <= 64, "span width {width} exceeds one word");
        if row >= self.rows || col_start >= self.cols {
            return 0;
        }
        let w = width.min(self.cols - col_start);
        let lo = row * self.cols + col_start;
        let wi = lo / 64;
        let sh = lo % 64;
        let mut v = self.word(wi) >> sh;
        if sh != 0 && (wi + 1) * 64 < self.rows * self.cols {
            v |= self.word(wi + 1) << (64 - sh);
        }
        if w < 64 {
            v &= (1u64 << w) - 1;
        }
        v
    }

    /// Whether every element of the block `rows × cols` is nonzero,
    /// tested a word (up to 64 columns) at a time through
    /// [`span_bits`](SparsityMask::span_bits). A range that runs past the
    /// mask reads as `false`, even when empty: a block that reaches into
    /// the zero padding is not full. An empty block inside the mask is
    /// vacuously full, and so is every block inside an all-ones mask:
    /// O(1).
    pub fn all_set(&self, rows: Range<usize>, cols: Range<usize>) -> bool {
        if rows.end > self.rows || cols.end > self.cols {
            return false;
        }
        if self.bits.is_empty() {
            return true;
        }
        for r in rows {
            for c in cols.clone().step_by(64) {
                let width = (cols.end - c).min(64);
                if self.span_bits(r, c, width) != u64::MAX >> (64 - width) {
                    return false;
                }
            }
        }
        true
    }
}

/// Set bits in a word slice.
fn count_ones(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_ones() {
        let z = SparsityMask::zeros(3, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.density(), 0.0);
        let o = SparsityMask::ones(3, 5);
        assert_eq!(o.nnz(), 15);
        assert_eq!(o.density(), 1.0);
    }

    #[test]
    fn ones_equals_per_element_construction() {
        // All but 8x8 and 4x32 end inside a word.
        for (rows, cols) in [(1, 1), (3, 5), (9, 9), (7, 67), (8, 8), (4, 32), (3, 130)] {
            assert_eq!(
                SparsityMask::ones(rows, cols),
                SparsityMask::from_fn(rows, cols, |_, _| true),
                "{rows}x{cols}"
            );
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = SparsityMask::zeros(4, 4);
        m.set(2, 3, true);
        assert!(m.get(2, 3));
        m.set(2, 3, false);
        assert!(!m.get(2, 3));
    }

    #[test]
    fn nnz_tracks_every_constructor_and_mutation() {
        let coords = || (0..3).flat_map(|r| (0..70).map(move |c| (r, c)));
        let mut m = SparsityMask::zeros(3, 70);
        for (i, (r, c)) in coords().enumerate() {
            // Set some bits twice and clear some unset ones: only real
            // flips move the count.
            m.set(r, c, i % 3 == 0);
            m.set(r, c, i % 3 == 0);
            if i % 5 == 0 {
                m.set(r, c, false);
            }
        }
        let want = coords().filter(|&(r, c)| m.get(r, c)).count();
        assert_eq!(m.nnz(), want);
        let o = SparsityMask::ones(3, 70);
        assert_eq!(m.and(&o).unwrap().nnz(), want);
        let words = SparsityMask::from_words(3, 70, m.bits.clone());
        assert_eq!(words, m);
        assert_eq!(words.nnz(), want);
        assert_eq!(m.heap_bytes(), 4 * 8);
    }

    #[test]
    fn out_of_bounds_reads_as_zero_padding() {
        let m = SparsityMask::ones(2, 2);
        assert!(!m.get(2, 0));
        assert!(!m.get(0, 2));
        assert!(!m.get(100, 100));
    }

    #[test]
    fn and_requires_same_shape() {
        let a = SparsityMask::ones(2, 2);
        let b = SparsityMask::ones(2, 3);
        assert!(a.and(&b).is_err());
    }

    #[test]
    fn and_computes_intersection() {
        let a = SparsityMask::from_fn(2, 2, |r, _| r == 0);
        let b = SparsityMask::from_fn(2, 2, |_, c| c == 0);
        let c = a.and(&b).unwrap();
        assert_eq!(c.nnz(), 1);
        assert!(c.get(0, 0));
    }

    #[test]
    fn word_iteration_matches_per_element_reads() {
        // Shapes chosen so rows start at every word phase: 3, 64, 67 and
        // 130 columns exercise sub-word, exact-word and multi-word rows.
        for cols in [3usize, 64, 67, 130] {
            let m = SparsityMask::from_fn(5, cols, |r, c| (r * 31 + c * 7) % 3 == 0);
            for r in 0..5 {
                for (start, end) in [(0, cols), (1, cols - 1), (cols / 2, cols), (2, 2)] {
                    let mut got = Vec::new();
                    m.for_each_set_in_row(r, start, end, |c| got.push(c));
                    let want: Vec<usize> =
                        (start..end.min(cols)).filter(|&c| m.get(r, c)).collect();
                    assert_eq!(got, want, "cols={cols} r={r} range={start}..{end}");
                }
            }
        }
    }

    #[test]
    fn span_bits_matches_per_element_reads() {
        for cols in [3usize, 64, 67, 130] {
            let m = SparsityMask::from_fn(4, cols, |r, c| (r * 13 + c * 5) % 3 == 0);
            for r in 0..4 {
                for start in [0, 1, cols / 2, cols - 1, cols + 5] {
                    for width in [1usize, 16, 63, 64] {
                        let got = m.span_bits(r, start, width);
                        let mut want = 0u64;
                        for i in 0..width {
                            if m.get(r, start + i) {
                                want |= 1 << i;
                            }
                        }
                        assert_eq!(got, want, "cols={cols} r={r} start={start} width={width}");
                    }
                }
            }
        }
        assert_eq!(SparsityMask::ones(2, 8).span_bits(5, 0, 8), 0);
    }

    #[test]
    fn word_iteration_pads_out_of_range() {
        let m = SparsityMask::ones(2, 8);
        let mut calls = 0;
        m.for_each_set_in_row(2, 0, 8, |_| calls += 1); // row out of range
        assert_eq!(calls, 0);
        m.for_each_set_in_row(0, 6, 100, |_| calls += 1); // end clipped
        assert_eq!(calls, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `all_set` agrees with a per-element `get` scan, including
        /// ranges that start or end past the mask and empty ranges.
        #[test]
        fn all_set_matches_per_element_reads(
            rows in 1usize..6,
            cols in 1usize..140,
            holes in 0usize..3,
            seed in 0usize..1000,
            r in (0usize..8, 0usize..8),
            c in (0usize..150, 0usize..150),
        ) {
            // Mostly-full masks with 0-2 holes, so full blocks are common.
            let hole = |i: usize| (seed * 7919 + i * 104_729) % (rows * cols);
            let m = SparsityMask::from_fn(rows, cols, |rr, cc| {
                !(0..holes).any(|i| hole(i) == rr * cols + cc)
            });
            let (r0, r1) = (r.0.min(r.1), r.0.max(r.1));
            let (c0, c1) = (c.0.min(c.1), c.0.max(c.1));
            let want = r1 <= rows
                && c1 <= cols
                && (r0..r1).all(|rr| (c0..c1).all(|cc| m.get(rr, cc)));
            prop_assert_eq!(m.all_set(r0..r1, c0..c1), want, "{}..{} x {}..{}", r0, r1, c0, c1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `ones`, which holds no words, reads exactly as the per-element
        /// definition: set in bounds, zero padding outside. Clearing one
        /// bit materializes the words; setting it back drops them.
        #[test]
        fn ones_matches_the_per_element_definition(
            rows in 1usize..5,
            whole_words in 0usize..4,
            tail in 0usize..96,
            ranges in proptest::collection::vec((0usize..300, 0usize..300), 8..9),
            seed in 0usize..1000,
        ) {
            // A third of the widths are whole words (64, 128, 192).
            let cols = match 64 * whole_words + if tail < 64 { tail } else { 0 } {
                0 => 64,
                cols => cols,
            };
            let m = SparsityMask::ones(rows, cols);
            let inside = |r: usize, c: usize| r < rows && c < cols;
            prop_assert_eq!(m.heap_bytes(), 0);
            prop_assert_eq!(m.nnz(), rows * cols);
            prop_assert_eq!(m.density(), 1.0);
            for r in 0..rows + 2 {
                for c in 0..cols + 2 {
                    prop_assert_eq!(m.get(r, c), inside(r, c), "get({}, {})", r, c);
                }
            }
            for r in 0..=rows {
                for start in 0..cols + 3 {
                    for width in 0..=64 {
                        let want = (0..width)
                            .filter(|&i| inside(r, start + i))
                            .fold(0u64, |w, i| w | 1 << i);
                        prop_assert_eq!(
                            m.span_bits(r, start, width), want,
                            "span_bits({}, {}, {})", r, start, width
                        );
                    }
                }
            }
            for &(a, b) in &ranges {
                let (lo, hi) = (a.min(b) % (cols + 70), a.max(b) % (cols + 70));
                for r in 0..=rows {
                    let mut got = Vec::new();
                    m.for_each_set_in_row(r, lo, hi, |c| got.push(c));
                    let want: Vec<usize> = (lo..hi).filter(|&c| inside(r, c)).collect();
                    prop_assert_eq!(got, want, "row {} cols {}..{}", r, lo, hi);
                }
                let (r0, r1) = (a % (rows + 2), b % (rows + 2));
                let (r0, r1) = (r0.min(r1), r0.max(r1));
                let want = r1 <= rows && hi <= cols;
                prop_assert_eq!(m.all_set(r0..r1, lo..hi), want, "{}..{} x {}..{}", r0, r1, lo, hi);
            }

            let other = SparsityMask::from_fn(rows, cols, |r, c| (seed + r * 31 + c * 7) % 3 != 0);
            prop_assert_eq!(&m.and(&other).unwrap(), &other);
            prop_assert_eq!(&other.and(&m).unwrap(), &other);
            prop_assert_eq!(&m.and(&m).unwrap(), &m);

            let (hr, hc) = (seed % rows, seed / rows % cols);
            let mut holed = m.clone();
            holed.set(hr, hc, false);
            prop_assert_eq!(&holed, &SparsityMask::from_fn(rows, cols, |r, c| (r, c) != (hr, hc)));
            prop_assert_eq!(holed.heap_bytes(), (rows * cols).div_ceil(64) * 8);
            holed.set(hr, hc, true);
            prop_assert_eq!(&holed, &m);
            prop_assert_eq!(holed.heap_bytes(), 0);
            prop_assert_eq!(&SparsityMask::from_fn(rows, cols, |_, _| true), &m);
        }
    }

    #[test]
    fn all_set_sees_a_hole_at_every_bit_and_refuses_the_padding() {
        // 130 columns: two full words and a partial third per row.
        let full = SparsityMask::ones(3, 130);
        for hole in 0..130 {
            let mut m = full.clone();
            m.set(1, hole, false);
            for c0 in [0, 1, 63, 64, 65, 127] {
                for c1 in c0..=130 {
                    let want = !(c0..c1).contains(&hole);
                    assert_eq!(m.all_set(0..3, c0..c1), want, "hole {hole} cols {c0}..{c1}");
                    assert!(m.all_set(2..3, c0..c1));
                }
            }
        }
        assert!(full.all_set(1..1, 5..5));
        assert!(!full.all_set(0..4, 0..130));
        assert!(!full.all_set(0..3, 64..131));
        assert!(!full.all_set(3..4, 0..0));
    }

    #[test]
    fn crossing_word_boundaries() {
        // 9x9 = 81 bits spans two u64 words.
        let m = SparsityMask::from_fn(9, 9, |r, c| (r * 9 + c) % 2 == 0);
        assert_eq!(m.nnz(), 41);
        assert!(m.get(8, 8));
        assert!(!m.get(8, 7));
    }
}
