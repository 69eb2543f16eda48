//! The cheap rows of the mask-digest oracle, checked in the test
//! profile; CI reruns the full `mask_digests` example against the same
//! golden file.

#[allow(dead_code)]
#[path = "../examples/mask_digests.rs"]
mod mask_digests;

#[test]
fn synth_and_alexnet_masks_match_the_golden_digests() {
    let golden = include_str!("../../../tests/golden/mask-digests.txt");
    for workload in ["synth", "alexnet"] {
        for category in ["dense", "a", "b", "ab"] {
            let line = mask_digests::line(workload, category);
            assert!(
                golden.lines().any(|g| g == line),
                "{line} is not in tests/golden/mask-digests.txt"
            );
        }
    }
}
