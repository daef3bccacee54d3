//! Pins the simulator's output. Every profile the bench baselines and the
//! paper figures report comes out of `GpuSimulator::run_sequence`; this test
//! folds the Cold-mode profiles of a small grid into one FNV-1a digest, so
//! a change to the L2 model, the timing passes or the scheduler that moves
//! a single bit of a profile fails `cargo test`, not only the CI gate.
//!
//! Grid: `rmat` 9,8 and 10,8 (the hostbench size classes, seed 7) squared,
//! on every paper device, under the degree-reordered reorganizer plan and
//! the four baseline expansion methods. The digest must not depend on the
//! simulator's host thread count, so it is checked at 1 and at 2 threads.

use blockreorg::gpu_sim::sim::GpuSimulator;
use blockreorg::prelude::*;
use blockreorg::spgemm::estimate::MethodChoice;
use blockreorg::spgemm::ProblemContext;

/// `rmat` (scale, edge factor) shapes, as in the `rmat=<scale>,<ef>` job spec.
const SHAPES: [(u32, usize); 2] = [(9, 8), (10, 8)];
const SEED: u64 = 7;

const BASELINES: [MethodChoice; 4] = [
    MethodChoice::RowProduct,
    MethodChoice::OuterProduct,
    MethodChoice::Esc,
    MethodChoice::Hash,
];

/// Digest of the grid's profiles, taken before the flat L2 model replaced
/// the per-set `Vec` storage. Only a deliberate model change (with a
/// `MODEL_VERSION` bump and refreshed baselines) may update it.
const EXPECTED: u64 = 0xa6e3_8628_8150_10c4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

fn grid_digest(threads: usize) -> u64 {
    let cfg = ReorganizerConfig::default();
    let mut h = FNV_OFFSET;
    for (scale, edge_factor) in SHAPES {
        let a = rmat(RmatConfig::graph500(scale, edge_factor, SEED)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        for dev in DeviceConfig::all_paper_targets() {
            let sim = GpuSimulator::new(dev.clone()).with_threads(threads);
            let exact = ReorgPlan::build(&ctx, &dev, &cfg.into());
            let mut plans = vec![ReorgPlan::build_with_reorder(
                &ctx,
                &cfg,
                &dev,
                ReorderStrategy::Degree,
            )];
            for method in BASELINES {
                let mut plan = exact.clone();
                plan.method = method;
                plans.push(plan);
            }
            for plan in &plans {
                let run = plan.execute_on(&sim, &ctx, PlanMode::Cold).unwrap();
                h = fnv1a(h, format!("{:?}", run.profiles).as_bytes());
            }
        }
    }
    h
}

#[test]
fn cold_profiles_match_the_pinned_digest_at_one_thread() {
    let got = grid_digest(1);
    assert_eq!(got, EXPECTED, "digest {got:#018x}");
}

#[test]
fn cold_profiles_match_the_pinned_digest_at_two_threads() {
    let got = grid_digest(2);
    assert_eq!(got, EXPECTED, "digest {got:#018x}");
}
