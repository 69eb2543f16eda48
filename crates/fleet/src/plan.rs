//! The campaign spec fingerprint.
//!
//! A hash over the campaign name and the ordered cell-fingerprint list,
//! which the journal persists, so resuming a *different* grid is
//! rejected instead of quietly mixing in alien results.

use griffin_sweep::fingerprint::{Fingerprint, Hasher};
use griffin_sweep::spec::SweepSpec;

/// The stable identity of a whole campaign grid: name, cell count, and
/// every cell fingerprint in deterministic grid order. Two specs share
/// a spec fingerprint exactly when they would produce byte-identical
/// reports, which is the invariant resume checks.
pub fn spec_fingerprint(spec: &SweepSpec) -> Fingerprint {
    let mut h = Hasher::new();
    h.str("griffin-fleet-spec-v1").str(&spec.name);
    let cells = spec.cells();
    h.usize(cells.len());
    for c in &cells {
        let fp = c.fingerprint(&spec.sim);
        h.u64(fp.0).u64(fp.1);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_core::arch::ArchSpec;
    use griffin_core::category::DnnCategory;

    fn spec() -> SweepSpec {
        SweepSpec::new("plan")
            .adhoc_layer("l0", 32, 256, 32, 1.0, 0.2)
            .adhoc_layer("l1", 16, 128, 64, 0.5, 0.5)
            .category(DnnCategory::B)
            .category(DnnCategory::Dense)
            .arch(ArchSpec::dense())
            .arch(ArchSpec::sparse_b_star())
            .arch(ArchSpec::griffin())
            .seeds([1, 2])
    }

    #[test]
    fn spec_fingerprint_tracks_report_identity() {
        let base = spec_fingerprint(&spec());
        assert_eq!(base, spec_fingerprint(&spec()), "deterministic");
        // Anything that changes the report changes the identity: the
        // name (serialized in JSON), a seed, the grid order.
        let renamed = SweepSpec {
            name: "other".into(),
            ..spec()
        };
        assert_ne!(base, spec_fingerprint(&renamed));
        assert_ne!(base, spec_fingerprint(&spec().seeds([1, 3])));
        let reordered = SweepSpec {
            seeds: vec![2, 1],
            ..spec()
        };
        assert_ne!(base, spec_fingerprint(&reordered));
    }
}
