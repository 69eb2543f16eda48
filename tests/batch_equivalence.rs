//! Family-equivalence properties: `Accelerator::run_family_batch` over
//! V architectures and K seed-variant workloads must be **bitwise**
//! identical to V × K independent `Accelerator::run_with` calls — for
//! every mode (shared single-sparse tile-driver calls and per-mode
//! pipelines alike), on fresh and on reused scratch. This is the
//! contract that lets the sweep executor group work freely:
//! grouping is an execution strategy, never a result change. The
//! per-layer family entry the executor schedules
//! (`Accelerator::run_family_layer`) is pinned the same way, layer by
//! layer.

use griffin::core::accelerator::{Accelerator, RunReport, Workload};
use griffin::core::arch::ArchSpec;
use griffin::core::category::DnnCategory;
use griffin::sim::config::{Fidelity, SimConfig};
use griffin::sim::layer::GemmLayer;
use griffin::sim::report::NetworkReport;
use griffin::sim::scratch::SimScratch;
use griffin::tensor::shape::GemmShape;
use proptest::prelude::*;

/// One seed variant: the same named network shape with masks drawn from
/// `seed`.
fn variant(
    category: DnnCategory,
    shapes: &[(usize, usize, usize)],
    da: f64,
    db: f64,
    seed: u64,
) -> Workload {
    let layers = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, n, k))| {
            GemmLayer::with_densities(
                GemmShape::new(m, n, k).unwrap(),
                da,
                db,
                seed.wrapping_mul(1000).wrapping_add(i as u64),
            )
            .unwrap()
        })
        .collect();
    Workload::new(format!("variant-{seed}"), category, layers)
}

/// Asserts two run reports are bitwise identical, down to every per-layer
/// counter.
fn assert_reports_identical(solo: &RunReport, batched: &RunReport, what: &str) {
    assert_eq!(
        solo.speedup.to_bits(),
        batched.speedup.to_bits(),
        "{what}: speedup"
    );
    assert_eq!(
        solo.effective_tops_per_w.to_bits(),
        batched.effective_tops_per_w.to_bits(),
        "{what}: tops/W"
    );
    assert_eq!(
        solo.effective_tops_per_mm2.to_bits(),
        batched.effective_tops_per_mm2.to_bits(),
        "{what}: tops/mm2"
    );
    assert_eq!(
        solo.network.layers.len(),
        batched.network.layers.len(),
        "{what}: layer count"
    );
    for (i, (a, b)) in solo
        .network
        .layers
        .iter()
        .zip(&batched.network.layers)
        .enumerate()
    {
        assert_eq!(
            a.dense_cycles, b.dense_cycles,
            "{what}: layer {i} dense_cycles"
        );
        assert_eq!(
            a.schedule_cycles.to_bits(),
            b.schedule_cycles.to_bits(),
            "{what}: layer {i} schedule_cycles"
        );
        assert_eq!(
            a.bw_floor_cycles.to_bits(),
            b.bw_floor_cycles.to_bits(),
            "{what}: layer {i} bw_floor_cycles"
        );
        assert_eq!(
            a.cycles.to_bits(),
            b.cycles.to_bits(),
            "{what}: layer {i} cycles"
        );
        assert_eq!(
            a.effectual_ops.to_bits(),
            b.effectual_ops.to_bits(),
            "{what}: layer {i} effectual_ops"
        );
        assert_eq!(
            a.borrowed_ops.to_bits(),
            b.borrowed_ops.to_bits(),
            "{what}: layer {i} borrowed_ops"
        );
        assert_eq!(
            a.starved_cycles.to_bits(),
            b.starved_cycles.to_bits(),
            "{what}: layer {i} starved_cycles"
        );
        assert_eq!(a.sampled, b.sampled, "{what}: layer {i} sampled flag");
    }
}

fn arch_for(category: DnnCategory) -> Vec<ArchSpec> {
    let mut archs = vec![ArchSpec::dense(), ArchSpec::griffin()];
    match category {
        DnnCategory::A => archs.push(ArchSpec::sparse_a_star()),
        DnnCategory::B => archs.push(ArchSpec::sparse_b_star()),
        _ => archs.push(ArchSpec::sparse_ab_star()),
    }
    archs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// K seed variants of one workload through one family call equal K
    /// solo runs — across categories (so the single-sparse tile driver
    /// and the dual pipeline both run), exact and sampled fidelity, and
    /// 1..=4 planes.
    #[test]
    fn seed_planes_equal_independent_runs(
        seed in 0u64..500,
        planes in 1usize..5,
        cat_pick in 0usize..3,
        da in 0.3f64..1.0,
        db in 0.1f64..0.9,
        sampled in proptest::bool::ANY,
    ) {
        let category = [DnnCategory::A, DnnCategory::B, DnnCategory::AB][cat_pick];
        let shapes = [(16, 128, 32), (32, 64, 64)];
        let workloads: Vec<Workload> = (0..planes)
            .map(|p| variant(category, &shapes, da, db, seed + p as u64))
            .collect();
        let cfg = SimConfig {
            fidelity: if sampled {
                Fidelity::Sampled { tiles: 2, seed: 7 }
            } else {
                Fidelity::Exact
            },
            ..SimConfig::default()
        };
        for arch in arch_for(category) {
            check_family(&[arch], cfg, &workloads);
        }
    }
}

/// Runs a whole architecture family as per-pair `run_with` calls and as
/// two family-batch passes on one reused scratch, and checks every
/// `[accelerator][workload]` report agrees bitwise.
fn check_family(archs: &[ArchSpec], cfg: SimConfig, workloads: &[Workload]) {
    let accels: Vec<Accelerator> = archs
        .iter()
        .map(|a| Accelerator::new(a.clone(), cfg))
        .collect();
    let refs: Vec<&Accelerator> = accels.iter().collect();
    let planes: Vec<&Workload> = workloads.iter().collect();
    let solo: Vec<Vec<RunReport>> = accels
        .iter()
        .map(|a| {
            workloads
                .iter()
                .map(|w| a.run_with(w, &mut SimScratch::new()))
                .collect()
        })
        .collect();

    // The second pass reuses the first pass's scratch, whose buffers
    // already hold every grid of the family: capacity, never results.
    let mut scratch = SimScratch::new();
    for pass in 0..2 {
        let batched = Accelerator::run_family_batch(&refs, &planes, &mut scratch);
        assert_eq!(batched.len(), archs.len());
        for (a, (srow, brow)) in solo.iter().zip(&batched).enumerate() {
            assert_eq!(brow.len(), workloads.len());
            for (p, (s, b)) in srow.iter().zip(brow).enumerate() {
                assert_reports_identical(s, b, &format!("family pass {pass} accel {a} plane {p}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A whole architecture family through one `run_family_batch` call
    /// equals per-pair `run_with` calls — over random single-sparse
    /// families with shared-reach members, duplicates, and both shuffle
    /// flags, on K seed-variant workloads.
    #[test]
    fn run_family_batch_equals_independent_runs(
        seed in 0u64..300,
        planes in 1usize..4,
        b_side in proptest::bool::ANY,
        picks in proptest::collection::vec((1usize..5, 0usize..3, 0usize..2, proptest::bool::ANY), 2..6),
        da in 0.3f64..1.0,
        db in 0.1f64..0.9,
    ) {
        use griffin::sim::window::BorrowWindow;
        let category = if b_side { DnnCategory::B } else { DnnCategory::A };
        let archs: Vec<ArchSpec> = picks
            .iter()
            .map(|&(d1, d2, d3, shuffle)| {
                let w = BorrowWindow::new(d1, d2, d3);
                if b_side {
                    ArchSpec::sparse_b(w, shuffle)
                } else {
                    ArchSpec::sparse_a(w, shuffle)
                }
            })
            .collect();
        let workloads: Vec<Workload> = (0..planes)
            .map(|p| variant(category, &[(16, 128, 32), (32, 64, 64)], da, db, seed + p as u64))
            .collect();
        let cfg = SimConfig {
            fidelity: Fidelity::Sampled { tiles: 2, seed: 7 },
            ..SimConfig::default()
        };
        check_family(&archs, cfg, &workloads);
    }
}

#[test]
fn mixed_mode_family_falls_back_and_still_matches() {
    // Dense + Griffin (conf.B on DNN.B) + Sparse.B* in one family: the
    // two `Sparse.B` members share one tile-driver call, the dense
    // baseline runs on its own — and every report still matches
    // bitwise.
    let archs = [
        ArchSpec::dense(),
        ArchSpec::griffin(),
        ArchSpec::sparse_b_star(),
    ];
    let workloads = [
        variant(DnnCategory::B, &[(16, 128, 32)], 1.0, 0.25, 31),
        variant(DnnCategory::B, &[(16, 128, 32)], 1.0, 0.25, 32),
    ];
    check_family(&archs, SimConfig::default(), &workloads);
}

#[test]
fn lineup_family_matches_per_arch_runs_in_every_category() {
    // The Table VII lineup over all four categories, where the family
    // reuses known answers: Griffin's conf.AB repeats `Sparse.AB*`'s
    // mode on DNN.dense and DNN.AB and is simulated once, dual pairs
    // reuse the N slice of a dense-B row tile and the M slice of a
    // column met by full A row tiles, and SparTen.AB counts once per row
    // of an all-ones B. The memos and row runs sit below both entries;
    // their differentials against the general path and the per-output
    // count are in `sim::dual` and `sim::sparten`. Shapes `(m, k, n)`:
    // one with ragged K and partial M and N edge tiles (37 % 4,
    // 200 % 16 and 40 % 16 are all nonzero), one of whole tiles with six
    // row tiles per column; their 1480 and 1152 outputs split a SparTen
    // row across the 1024-MAC waves.
    let shapes = [(37, 200, 40), (24, 128, 48)];
    for (category, da, db) in [
        (DnnCategory::Dense, 1.0, 1.0),
        (DnnCategory::A, 0.5, 1.0),
        (DnnCategory::B, 1.0, 0.3),
        (DnnCategory::AB, 0.5, 0.3),
    ] {
        let workloads = [
            variant(category, &shapes, da, db, 71),
            variant(category, &shapes, da, db, 72),
        ];
        check_family(&ArchSpec::table7_lineup(), SimConfig::exact(), &workloads);
    }
}

#[test]
fn empty_batch_returns_no_reports() {
    let acc = Accelerator::with_defaults(ArchSpec::griffin());
    let w = variant(DnnCategory::B, &[(16, 128, 32)], 1.0, 0.3, 1);
    assert!(Accelerator::run_family_batch(&[], &[&w], &mut SimScratch::new()).is_empty());
    assert!(
        Accelerator::run_family_batch(&[&acc], &[], &mut SimScratch::new())
            .iter()
            .all(Vec::is_empty)
    );
}

#[test]
fn mixed_category_batch_falls_back_per_plane() {
    let shapes = [(16, 128, 32)];
    let a = variant(DnnCategory::A, &shapes, 0.5, 1.0, 11);
    let b = variant(DnnCategory::B, &shapes, 1.0, 0.2, 12);
    check_family(
        &[ArchSpec::griffin()],
        SimConfig::default(),
        &[a.clone(), b.clone()],
    );

    // Explicitly: the mixed batch equals the per-plane solo runs.
    let acc = Accelerator::with_defaults(ArchSpec::griffin());
    let batched = Accelerator::run_family_batch(&[&acc], &[&a, &b], &mut SimScratch::new())
        .pop()
        .expect("one accelerator row");
    let solo_a = acc.run_with(&a, &mut SimScratch::new());
    let solo_b = acc.run_with(&b, &mut SimScratch::new());
    assert_reports_identical(&solo_a, &batched[0], "mixed plane 0");
    assert_reports_identical(&solo_b, &batched[1], "mixed plane 1");
}

#[test]
fn uneven_shapes_fall_back_and_still_match() {
    // Same category, different per-plane layer shapes: each plane's
    // tiles are its own, and every report must still match.
    let a = variant(DnnCategory::B, &[(16, 128, 32)], 1.0, 0.3, 21);
    let b = variant(DnnCategory::B, &[(32, 64, 64)], 1.0, 0.3, 22);
    check_family(
        &[ArchSpec::sparse_b_star()],
        SimConfig::default(),
        &[a.clone(), b.clone()],
    );
    // A plane of a different depth: no layer index spans every plane,
    // so each (accelerator, plane) pair runs through `run_with`.
    let c = variant(DnnCategory::B, &[(16, 128, 32), (32, 64, 64)], 1.0, 0.3, 23);
    check_family(
        &[ArchSpec::sparse_b_star()],
        SimConfig::default(),
        &[a, b, c],
    );
}

#[test]
fn uneven_shapes_in_a_multi_arch_family_still_match() {
    // Same depth, different per-plane layer shapes, a multi-arch
    // single-sparse family: the arch axis still shares one tile-driver
    // call per plane, the planes run one after another.
    use griffin::sim::window::BorrowWindow;
    let shapes_a = [(16, 128, 32), (32, 64, 64)];
    let shapes_b = [(32, 64, 64), (16, 64, 128)];
    for b_side in [true, false] {
        let (category, da, db) = if b_side {
            (DnnCategory::B, 1.0, 0.3)
        } else {
            (DnnCategory::A, 0.4, 1.0)
        };
        let archs: Vec<ArchSpec> = [(2, 1, 0), (4, 0, 1), (2, 1, 0)]
            .iter()
            .zip([false, true, true])
            .map(|(&(d1, d2, d3), shuffle)| {
                let w = BorrowWindow::new(d1, d2, d3);
                if b_side {
                    ArchSpec::sparse_b(w, shuffle)
                } else {
                    ArchSpec::sparse_a(w, shuffle)
                }
            })
            .collect();
        let workloads = [
            variant(category, &shapes_a, da, db, 61),
            variant(category, &shapes_b, da, db, 62),
        ];
        check_family(&archs, SimConfig::default(), &workloads);
        check_layer_entry(&archs, SimConfig::default(), &workloads);
    }
}

/// Runs every layer through [`Accelerator::run_family_layer`] — twice,
/// both passes threading one scratch through every layer, as a sweep
/// worker does — and checks each `[accelerator][workload]` network,
/// finished with [`Accelerator::finish`], bitwise against `run_with`.
fn check_layer_entry(archs: &[ArchSpec], cfg: SimConfig, workloads: &[Workload]) {
    let accels: Vec<Accelerator> = archs
        .iter()
        .map(|a| Accelerator::new(a.clone(), cfg))
        .collect();
    let refs: Vec<&Accelerator> = accels.iter().collect();
    let planes: Vec<&Workload> = workloads.iter().collect();
    let depth = workloads[0].layers.len();

    let mut scratch = SimScratch::new();
    for pass in 0..2 {
        let mut nets = vec![vec![NetworkReport::default(); planes.len()]; refs.len()];
        for i in 0..depth {
            let layer = Accelerator::run_family_layer(&refs, &planes, i, &mut scratch);
            assert_eq!(layer.len(), refs.len());
            for (row, layer_row) in nets.iter_mut().zip(layer) {
                assert_eq!(layer_row.len(), planes.len());
                for (net, l) in row.iter_mut().zip(layer_row) {
                    net.layers.push(l);
                }
            }
        }
        for (a, (acc, row)) in accels.iter().zip(nets).enumerate() {
            for (p, (w, net)) in workloads.iter().zip(row).enumerate() {
                let solo = acc.run_with(w, &mut SimScratch::new());
                assert_reports_identical(
                    &solo,
                    &acc.finish(w, net),
                    &format!("layer entry pass {pass} accel {a} plane {p}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The per-layer family entry equals `run_with` layer by layer, for
    /// every arch and plane: on homogeneous single-sparse families and on
    /// the `sweep-b` shape — the dense baseline plus `Sparse.B`
    /// variants.
    #[test]
    fn layer_entry_equals_run_with_per_layer(
        seed in 0u64..300,
        planes in 1usize..4,
        with_baseline in proptest::bool::ANY,
        b_side in proptest::bool::ANY,
        picks in proptest::collection::vec((1usize..5, 0usize..3, 0usize..2, proptest::bool::ANY), 1..5),
        da in 0.3f64..1.0,
        db in 0.1f64..0.9,
    ) {
        use griffin::sim::window::BorrowWindow;
        // The baseline rides with the B side, as in the Fig. 5 sweep.
        let b_side = b_side || with_baseline;
        let category = if b_side { DnnCategory::B } else { DnnCategory::A };
        let mut archs: Vec<ArchSpec> = Vec::new();
        if with_baseline {
            archs.push(ArchSpec::dense());
        }
        archs.extend(picks.iter().map(|&(d1, d2, d3, shuffle)| {
            let w = BorrowWindow::new(d1, d2, d3);
            if b_side {
                ArchSpec::sparse_b(w, shuffle)
            } else {
                ArchSpec::sparse_a(w, shuffle)
            }
        }));
        let workloads: Vec<Workload> = (0..planes)
            .map(|p| {
                variant(
                    category,
                    &[(16, 128, 32), (32, 64, 64), (16, 64, 128)],
                    da,
                    db,
                    seed + p as u64,
                )
            })
            .collect();
        let cfg = SimConfig {
            fidelity: Fidelity::Sampled { tiles: 2, seed: 7 },
            ..SimConfig::default()
        };
        check_layer_entry(&archs, cfg, &workloads);
    }
}

#[test]
fn layer_entry_covers_dual_sparse_fallbacks() {
    // Dual-sparse pipelines next to single-sparse members on a
    // dual-sparse workload — the dual stage 1 builds the same B grids
    // the `Sparse.B*` tile driver uses, into the same scratch.
    let archs = [
        ArchSpec::dense(),
        ArchSpec::griffin(),
        ArchSpec::sparse_b_star(),
        ArchSpec::sparse_ab_star(),
        ArchSpec::sparse_a_star(),
    ];
    let shapes = [(16, 128, 32), (32, 64, 64)];
    let ab = [
        variant(DnnCategory::AB, &shapes, 0.5, 0.3, 51),
        variant(DnnCategory::AB, &shapes, 0.5, 0.3, 52),
    ];
    check_layer_entry(&archs, SimConfig::default(), &ab);
}

#[test]
#[should_panic(expected = "one simulator configuration")]
fn layer_entry_refuses_a_mixed_category_family() {
    let acc = Accelerator::with_defaults(ArchSpec::sparse_b_star());
    let shapes = [(16, 128, 32)];
    let a = variant(DnnCategory::A, &shapes, 0.5, 1.0, 53);
    let b = variant(DnnCategory::B, &shapes, 1.0, 0.2, 54);
    Accelerator::run_family_layer(&[&acc], &[&a, &b], 0, &mut SimScratch::new());
}
