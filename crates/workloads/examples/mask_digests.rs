//! Prints an FNV-1a-64 digest of every suite mask set, one line per
//! (workload, category) at mask seed 42: the six Table-IV benchmarks and
//! the 4-layer `synth` network, each under DNN.dense, DNN.A, DNN.B and
//! DNN.AB. The DNN.dense rows are made of all-ones masks only.
//!
//! The output is checked in as `tests/golden/mask-digests.txt`, so a
//! change to mask synthesis shows up without running a simulation:
//!
//! ```bash
//! cargo run --release -p griffin-workloads --example mask_digests \
//!     | diff - tests/golden/mask-digests.txt
//! ```

use griffin_core::accelerator::Workload;
use griffin_core::category::DnnCategory;
use griffin_tensor::mask::SparsityMask;
use griffin_workloads::suite::{build_workload, Benchmark};
use griffin_workloads::synth::synthetic_workload;

/// The mask seed every row is built with.
const SEED: u64 = 42;

/// The workload tokens in output order: `synth`, then Table IV order.
const WORKLOADS: [&str; 7] = [
    "synth",
    "alexnet",
    "googlenet",
    "resnet50",
    "inceptionv3",
    "mobilenetv2",
    "bert",
];

/// The categories in output order, Table I's.
const CATEGORIES: [(&str, DnnCategory); 4] = [
    ("dense", DnnCategory::Dense),
    ("a", DnnCategory::A),
    ("b", DnnCategory::B),
    ("ab", DnnCategory::AB),
];

fn build(workload: &str, category: DnnCategory) -> Workload {
    let bench = match workload {
        // The CLI's `synth` token: 4 synthetic layers.
        "synth" => {
            return synthetic_workload("synth", category, 4, SEED).expect("valid synthetic shapes")
        }
        "alexnet" => Benchmark::AlexNet,
        "googlenet" => Benchmark::GoogleNet,
        "resnet50" => Benchmark::ResNet50,
        "inceptionv3" => Benchmark::InceptionV3,
        "mobilenetv2" => Benchmark::MobileNetV2,
        "bert" => Benchmark::Bert,
        other => panic!("unknown workload {other}"),
    };
    build_workload(bench, category, SEED)
}

/// FNV-1a-64, fed little-endian `u64`s.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Shape, then each row in 64-column chunks (bit `i` = column
    /// `c0 + i`), so the digest depends on the mask's contents only.
    fn mask(&mut self, m: &SparsityMask) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for r in 0..m.rows() {
            for c0 in (0..m.cols()).step_by(64) {
                self.u64(m.span_bits(r, c0, 64.min(m.cols() - c0)));
            }
        }
    }
}

/// One output line: `<workload> <category> <seed> <layers> <digest>`,
/// the digest covering every layer's A then B mask.
pub fn line(workload: &str, category: &str) -> String {
    let (_, cat) = CATEGORIES
        .iter()
        .find(|(name, _)| *name == category)
        .expect("known category");
    let wl = build(workload, *cat);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for l in &wl.layers {
        h.mask(&l.a);
        h.mask(&l.b);
    }
    format!(
        "{workload} {category} {SEED} {} {:016x}",
        wl.layers.len(),
        h.0
    )
}

fn main() {
    for w in WORKLOADS {
        for (c, _) in CATEGORIES {
            println!("{}", line(w, c));
        }
    }
}
