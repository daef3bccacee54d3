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
//!
//! A second digest pins the standalone baseline runner on the same grid:
//! the six Figure 8 baselines plus AC-like, each run's profiles, total
//! time and result matrix bits.

use blockreorg::gpu_sim::sim::GpuSimulator;
use blockreorg::prelude::*;
use blockreorg::spgemm::estimate::MethodChoice;
use blockreorg::spgemm::pipeline::run_method;
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

/// Digest of the standalone baseline runs (profiles, `total_ms` and the
/// result's `ptr`, `idx` and value bits), taken while the cuSPARSE-, CUSP-,
/// bhSPARSE- and AC-like baselines still multiplied through their own hash
/// and sort-reduce mergers.
const EXPECTED_BASELINES: u64 = 0xb533_2af9_7159_b508;

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
                let run = plan
                    .execute_with_scratch(&sim, &ctx, PlanMode::Cold, None)
                    .unwrap();
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

fn baseline_digest() -> u64 {
    let mut h = FNV_OFFSET;
    for (scale, edge_factor) in SHAPES {
        let a = rmat(RmatConfig::graph500(scale, edge_factor, SEED)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        for dev in DeviceConfig::all_paper_targets() {
            for method in SpgemmMethod::all()
                .into_iter()
                .chain([SpgemmMethod::AcLike])
            {
                let run = run_method(&ctx, method, &dev).unwrap();
                h = fnv1a(h, format!("{:?}", run.profiles).as_bytes());
                h = fnv1a(h, &run.total_ms.to_bits().to_le_bytes());
                for &p in run.result.ptr() {
                    h = fnv1a(h, &(p as u64).to_le_bytes());
                }
                for &j in run.result.idx() {
                    h = fnv1a(h, &j.to_le_bytes());
                }
                for &v in run.result.val() {
                    h = fnv1a(h, &v.to_bits().to_le_bytes());
                }
            }
        }
    }
    h
}

#[test]
fn baseline_runs_match_the_pinned_digest() {
    let got = baseline_digest();
    assert_eq!(got, EXPECTED_BASELINES, "digest {got:#018x}");
}
