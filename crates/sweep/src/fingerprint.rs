//! Stable content fingerprints for scenario cells.
//!
//! A scenario's fingerprint must be identical across processes, runs and
//! platforms so that the on-disk cache survives restarts — `std`'s
//! `Hasher`s make no such guarantee, so this module hashes a canonical
//! byte encoding of every field through two independent FNV-1a streams
//! (128 bits total, making accidental collisions across campaign sizes
//! of interest vanishingly unlikely).

use std::fmt;

use griffin_core::arch::{ArchKind, ArchSpec};
use griffin_core::category::DnnCategory;
use griffin_sim::bandwidth::BwPolicy;
use griffin_sim::config::{Fidelity, Priority, SimConfig};
use griffin_sim::window::BorrowWindow;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A 128-bit stable content fingerprint, rendered as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64, pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

impl Fingerprint {
    /// Parses the 32-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<Fingerprint> {
        // Hex digits only: a multi-byte character would make the split
        // below panic, and `from_str_radix` alone would accept a sign.
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint(hi, lo))
    }
}

/// Incremental stable hasher: two FNV-1a streams with distinct offsets.
#[derive(Debug, Clone)]
pub struct Hasher {
    h1: u64,
    h2: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher at the FNV offset bases.
    pub fn new() -> Self {
        // Standard FNV-1a offset basis and a second, independent stream
        // seeded from it.
        Hasher {
            h1: 0xcbf2_9ce4_8422_2325,
            h2: 0x84222325_cbf29ce4,
        }
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.h1 = (self.h1 ^ u64::from(x)).wrapping_mul(FNV_PRIME);
            self.h2 = (self.h2 ^ u64::from(x).rotate_left(17)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a `u64` (little-endian bytes).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds a `usize` widened to 64 bits.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Feeds an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Feeds a bool as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.bytes(&[u8::from(v)])
    }

    /// Feeds a string, length-prefixed so concatenations cannot collide.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        self.bytes(s.as_bytes())
    }

    /// Feeds any fingerprintable value.
    pub fn feed<T: Fingerprintable + ?Sized>(&mut self, v: &T) -> &mut Self {
        v.feed(self);
        self
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.h1, self.h2)
    }
}

/// Types with a canonical byte encoding for stable fingerprinting.
pub trait Fingerprintable {
    /// Feeds the canonical encoding of `self` into the hasher.
    fn feed(&self, h: &mut Hasher);
}

impl Fingerprintable for BorrowWindow {
    fn feed(&self, h: &mut Hasher) {
        h.usize(self.d1).usize(self.d2).usize(self.d3);
    }
}

impl Fingerprintable for ArchSpec {
    fn feed(&self, h: &mut Hasher) {
        // The kind discriminant is encoded by name: stable across
        // recompilations even if the enum is reordered.
        let kind = match self.kind {
            ArchKind::Dense => "dense",
            ArchKind::SparseA => "sparse_a",
            ArchKind::SparseB => "sparse_b",
            ArchKind::SparseAB => "sparse_ab",
            ArchKind::Griffin => "griffin",
            ArchKind::TclB => "tcl_b",
            ArchKind::TensorDash => "tensordash",
            ArchKind::SparTenA => "sparten_a",
            ArchKind::SparTenB => "sparten_b",
            ArchKind::SparTenAB => "sparten_ab",
            ArchKind::Cnvlutin => "cnvlutin",
            ArchKind::CambriconX => "cambricon_x",
        };
        // The display name participates because the cost model keys its
        // calibrated Table VII rows on it (e.g. "Sparse.B*" vs the
        // parametrically priced "Sparse.B(4,0,1),on" — same routing
        // hardware, different published cost).
        h.str(kind)
            .str(&self.name)
            .feed(&self.a)
            .feed(&self.b)
            .bool(self.shuffle);
    }
}

impl Fingerprintable for DnnCategory {
    fn feed(&self, h: &mut Hasher) {
        let s = match self {
            DnnCategory::Dense => "dense",
            DnnCategory::A => "a",
            DnnCategory::B => "b",
            DnnCategory::AB => "ab",
        };
        h.str(s);
    }
}

impl Fingerprintable for SimConfig {
    fn feed(&self, h: &mut Hasher) {
        h.usize(self.core.k0)
            .usize(self.core.n0)
            .usize(self.core.m0);
        match self.priority {
            Priority::OwnFirst => h.str("own_first"),
            Priority::EarliestFirst => h.str("earliest_first"),
        };
        match self.fidelity {
            Fidelity::Exact => {
                h.str("exact");
            }
            Fidelity::Sampled { tiles, seed } => {
                h.str("sampled").usize(tiles).u64(seed);
            }
        }
        match self.bw {
            BwPolicy::Provisioned => {
                h.str("provisioned");
            }
            BwPolicy::Fixed {
                a_bytes_per_cycle,
                b_bytes_per_cycle,
                dram_bytes_per_cycle,
            } => {
                h.str("fixed")
                    .f64(a_bytes_per_cycle)
                    .f64(b_bytes_per_cycle)
                    .f64(dram_bytes_per_cycle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("nope"), None);
        assert_eq!(Fingerprint::parse(&"x".repeat(32)), None);
        // 32 bytes whose 16th and 17th form one character: refused, not
        // split mid-character.
        assert_eq!(
            Fingerprint::parse(&format!("{0}é{0}", "0".repeat(15))),
            None
        );
        // `from_str_radix` would take a sign; a fingerprint has none.
        assert_eq!(Fingerprint::parse(&format!("+{}", "f".repeat(31))), None);
    }

    #[test]
    fn identical_inputs_identical_outputs() {
        let a = Hasher::new()
            .feed(&ArchSpec::griffin())
            .feed(&SimConfig::default())
            .finish();
        let b = Hasher::new()
            .feed(&ArchSpec::griffin())
            .feed(&SimConfig::default())
            .finish();
        assert_eq!(a, b);
    }

    #[test]
    fn field_order_and_values_matter() {
        let base = Hasher::new().feed(&ArchSpec::sparse_b_star()).finish();
        let other = Hasher::new().feed(&ArchSpec::sparse_a_star()).finish();
        assert_ne!(base, other);

        let w1 = Hasher::new().feed(&BorrowWindow::new(1, 2, 3)).finish();
        let w2 = Hasher::new().feed(&BorrowWindow::new(3, 2, 1)).finish();
        assert_ne!(w1, w2);
    }

    #[test]
    fn string_length_prefix_prevents_concat_collisions() {
        let a = Hasher::new().str("ab").str("c").finish();
        let b = Hasher::new().str("a").str("bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn sim_config_fields_reach_the_hash() {
        use griffin_sim::config::Fidelity;
        let base = Hasher::new().feed(&SimConfig::default()).finish();
        let exact = Hasher::new().feed(&SimConfig::exact()).finish();
        assert_ne!(base, exact);
        let tiles = SimConfig {
            fidelity: Fidelity::Sampled {
                tiles: 25,
                seed: 0xC0FFEE,
            },
            ..SimConfig::default()
        };
        assert_ne!(Hasher::new().feed(&tiles).finish(), base);
    }

    /// Golden value: guards the canonical encoding against accidental
    /// changes, which would silently invalidate every on-disk cache.
    /// The literal is intentionally hard-coded — recomputing it through
    /// `Hasher` would let encoding changes slip past the test. If it
    /// ever needs to change, treat that as a cache-format bump.
    #[test]
    fn golden_fingerprint_is_stable() {
        let fp = Hasher::new().feed(&ArchSpec::griffin()).finish();
        assert_eq!(fp.to_string(), "c3510ee59e02cfe748de0eac5722248c");
        // The encoding the literal corresponds to, for documentation:
        // str("griffin"), str("Griffin"), the two windows, bool(true).
        let mut h = Hasher::new();
        h.str("griffin").str("Griffin");
        h.usize(2).usize(0).usize(0);
        h.usize(2).usize(0).usize(1);
        h.bool(true);
        assert_eq!(h.finish(), fp);
    }

    #[test]
    fn same_hardware_different_name_gets_distinct_fingerprints() {
        // The cost model prices "Sparse.B*" from its calibrated Table
        // VII row but "Sparse.B(4,0,1),on" parametrically — they must
        // not share a cache slot.
        let starred = ArchSpec::sparse_b_star();
        let enumerated = ArchSpec::sparse_b(starred.b, true);
        assert_eq!(starred.b, enumerated.b);
        let f1 = Hasher::new().feed(&starred).finish();
        let f2 = Hasher::new().feed(&enumerated).finish();
        assert_ne!(f1, f2);
    }
}
