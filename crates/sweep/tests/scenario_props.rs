//! Property tests of the scenario parser: randomized scenarios must
//! round-trip exactly through their canonical text
//! (`parse(canonical(s)) == s`), their fingerprints must be stable
//! across the round-trip, and `to_spec` must stay lossless
//! (`to_spec(from_spec(x)) == x`).

use griffin_core::arch::{ArchKind, ArchSpec};
use griffin_core::category::DnnCategory;
use griffin_sim::bandwidth::BwPolicy;
use griffin_sim::config::{Fidelity, Priority, SimConfig};
use griffin_sim::window::BorrowWindow;
use griffin_sweep::scenario::{ArchEntry, FleetSettings, Scenario};
use griffin_sweep::spec::{ArchFamily, WorkloadSpec};
use proptest::prelude::*;

/// A deterministic pseudo-random scenario from integer draws. Field
/// values are derived (not drawn independently) so one test signature
/// covers many shapes: every workload variant, every arch-entry
/// variant, sampled/exact fidelity, both priorities, both bandwidth
/// policies, and present/absent fleet sections.
fn build_scenario(a: u64, b: u64, seed: u64, flag: bool) -> Scenario {
    let pick = |x: u64, n: u64| (x % n) as usize;

    let workloads = vec![
        match pick(a, 3) {
            0 => WorkloadSpec::Suite(griffin_workloads::suite::Benchmark::ALL[pick(b, 6)]),
            1 => WorkloadSpec::Synthetic {
                // Names stress quoting: quotes, backslashes, commas.
                name: format!("syn \"{a}\" \\ {b},\nline\ttab\rcr"),
                layers: 1 + pick(b, 7),
            },
            _ => WorkloadSpec::AdHoc {
                name: format!("gemm-{a}"),
                m: 1 + pick(a, 64),
                k: 1 + pick(b, 512),
                n: 1 + pick(a ^ b, 64),
                a_density: (pick(a, 100) as f64) / 100.0,
                b_density: (pick(b, 100) as f64) / 100.0,
            },
        },
        WorkloadSpec::Synthetic {
            name: "fixed".into(),
            layers: 2,
        },
    ];

    let categories = match pick(b, 4) {
        0 => vec![DnnCategory::B],
        1 => vec![DnnCategory::A, DnnCategory::Dense],
        2 => vec![DnnCategory::AB, DnnCategory::B],
        _ => vec![DnnCategory::Dense],
    };

    // One of each entry kind; the custom point varies windows/shuffle.
    // (SparseB customs are excluded: their default names could collide
    // with the SparseB family entry below, which the parser rejects.)
    let kind = [ArchKind::SparseA, ArchKind::SparseAB][pick(a ^ 3, 2)];
    let win = BorrowWindow::new(1 + pick(a, 8), pick(b, 4), pick(a ^ b, 3));
    let mut builder = ArchSpec::builder(kind).shuffle(flag);
    if kind.routes_a() {
        builder = builder.a(win);
    }
    if kind.routes_b() {
        builder = builder.b(win);
    }
    if a.is_multiple_of(5) {
        builder = builder.name(format!("custom \"{b}\""));
    }
    let custom = builder.build().expect("valid windows");
    let archs = vec![
        ArchEntry::Preset("griffin".into()),
        ArchEntry::Family(ArchFamily::SparseB {
            max_fanin: 4 + pick(b, 8),
        }),
        ArchEntry::Custom(custom),
    ];

    let sim = SimConfig {
        fidelity: if flag {
            Fidelity::Exact
        } else {
            Fidelity::Sampled {
                tiles: 1 + pick(a, 40),
                seed,
            }
        },
        priority: if a.is_multiple_of(2) {
            Priority::OwnFirst
        } else {
            Priority::EarliestFirst
        },
        bw: if b.is_multiple_of(2) {
            BwPolicy::Provisioned
        } else {
            BwPolicy::Fixed {
                a_bytes_per_cycle: 1.0 + (pick(a, 1000) as f64) / 8.0,
                b_bytes_per_cycle: 256.0,
                dram_bytes_per_cycle: 62.5,
            }
        },
        ..SimConfig::default()
    };

    let fleet = (a.is_multiple_of(3)).then(|| FleetSettings {
        shards: 1 + pick(b, 16),
        heartbeat_every: (a.is_multiple_of(7)).then(|| pick(a, 100)),
    });

    Scenario {
        name: format!("prop \"{a}\"\n\\{b}"),
        workloads,
        categories,
        archs,
        seeds: vec![seed, seed ^ a, u64::MAX - (b % 17)],
        sim,
        fleet,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn canonical_text_roundtrips_exactly(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        flag in proptest::bool::ANY,
    ) {
        let s = build_scenario(a, b, seed, flag);
        let text = s.canonical();
        let back = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("canonical text must parse: {e}\n{text}"));
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.fingerprint(), s.fingerprint());
        // Canonicalization is idempotent.
        prop_assert_eq!(back.canonical(), text);
    }

    #[test]
    fn spec_conversion_is_lossless(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        flag in proptest::bool::ANY,
    ) {
        let s = build_scenario(a, b, seed, flag);
        let spec = s.to_spec();
        // from_spec is a right inverse of to_spec on specs.
        let back = Scenario::from_spec(&spec, s.fleet.clone());
        prop_assert_eq!(back.to_spec(), spec);
        // And the re-derived scenario's canonical form still parses.
        prop_assert_eq!(
            Scenario::parse(&back.canonical()).expect("canonical parses").to_spec(),
            s.to_spec()
        );
    }
}
