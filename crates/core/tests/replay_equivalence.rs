//! A replayed Cached execution must be bitwise equal to a fresh simulation
//! (DESIGN.md §8.1): for every plan family the bench suites run — exact and
//! estimated plans under every expansion method, every reorder strategy,
//! forced k-way bins — at simulator thread counts 1 and 4, a plan's second
//! Cached execution (served from its memo) equals a Cached execution of a
//! fresh clone, whose memo is empty.

use block_reorganizer::config::ReorganizerConfig;
use block_reorganizer::pass::ReorganizerRun;
use block_reorganizer::plan::{PlanMode, ReorgPlan};
use block_reorganizer::reorder::ReorderStrategy;
use block_reorganizer::PlanSettings;
use br_datasets::registry::{RealWorldRegistry, ScaleFactor};
use br_datasets::rmat::{rmat, RmatConfig};
use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::sim::GpuSimulator;
use br_spgemm::accum::{BinThresholds, RowBins};
use br_spgemm::context::ProblemContext;
use br_spgemm::estimate::{EstimatorConfig, MethodChoice};
use proptest::prelude::*;

/// The bench suites' datasets (quick, estplan, kway, reorder grids).
const SUITE_DATASETS: [&str; 3] = ["harbor", "emailEnron", "patents_main"];

const METHODS: [MethodChoice; 5] = [
    MethodChoice::Reorganized,
    MethodChoice::RowProduct,
    MethodChoice::OuterProduct,
    MethodChoice::Esc,
    MethodChoice::Hash,
];

const STRATEGIES: [ReorderStrategy; 5] = [
    ReorderStrategy::None,
    ReorderStrategy::Degree,
    ReorderStrategy::Rcm,
    ReorderStrategy::Cluster,
    ReorderStrategy::Auto,
];

/// `kway_min` the `kway` bench suite forces open.
const KWAY_MIN: u64 = 128;

fn assert_bitwise_equal(replay: &ReorganizerRun<f64>, fresh: &ReorganizerRun<f64>, what: &str) {
    assert_eq!(
        format!("{:?}", replay.profiles),
        format!("{:?}", fresh.profiles),
        "{what}: profiles"
    );
    assert_eq!(
        replay.total_ms.to_bits(),
        fresh.total_ms.to_bits(),
        "{what}: total_ms"
    );
    assert_eq!(
        replay.preprocess_ms.to_bits(),
        fresh.preprocess_ms.to_bits(),
        "{what}: preprocess_ms"
    );
    assert_eq!(replay.flops, fresh.flops, "{what}: flops");
    assert_eq!(replay.stats, fresh.stats, "{what}: stats");
    assert_eq!(replay.result.ptr(), fresh.result.ptr(), "{what}: ptr");
    assert_eq!(replay.result.idx(), fresh.result.idx(), "{what}: idx");
    let bits = |r: &ReorganizerRun<f64>| -> Vec<u64> {
        r.result.val().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(replay), bits(fresh), "{what}: values");
}

/// Fills the memo of a fresh copy of `plan` with the simulator at
/// `fill_threads` host threads, replays it at `replay_threads`, and
/// compares the replay (and the filling execution) with a memo-less clone
/// simulated at `replay_threads`.
fn assert_replay_is_exact(
    plan: &ReorgPlan,
    ctx: &ProblemContext<f64>,
    (fill_threads, replay_threads): (usize, usize),
    what: &str,
) {
    let what = format!("{what} (fill t{fill_threads}, replay t{replay_threads})");
    let dev = DeviceConfig::titan_xp();
    let plan = plan.clone();
    assert_eq!(plan.replay_device(), None, "{what}: a clone starts empty");
    let fill_sim = GpuSimulator::new(dev.clone()).with_threads(fill_threads);
    let replay_sim = GpuSimulator::new(dev.clone()).with_threads(replay_threads);
    let first = plan
        .execute_with_scratch(&fill_sim, ctx, PlanMode::Cached, None)
        .unwrap();
    assert_eq!(plan.replay_device(), Some(dev.fingerprint()), "{what}");
    let replay = plan
        .execute_with_scratch(&replay_sim, ctx, PlanMode::Cached, None)
        .unwrap();
    let fresh = plan
        .clone()
        .execute_with_scratch(&replay_sim, ctx, PlanMode::Cached, None)
        .unwrap();
    assert_bitwise_equal(&replay, &fresh, &what);
    assert_bitwise_equal(&first, &fresh, &what);
}

/// Simulator thread counts (fill, replay) for the `i`-th family: the two
/// orders alternate, so fills and replays both run at 1 and at 4 threads.
fn threads_for(i: usize) -> (usize, usize) {
    [(1, 4), (4, 1)][i % 2]
}

/// `plan` with its bins re-classified so the k-way bin opens at
/// [`KWAY_MIN`] products, as the `kway` suite's `KwayMerge` case does.
fn with_forced_kway(plan: &ReorgPlan, ncols: usize) -> ReorgPlan {
    let mut forced = plan.clone();
    forced.bins = RowBins::classify(
        &plan.bins.row_products,
        BinThresholds {
            kway_min: KWAY_MIN,
            ..BinThresholds::recommended(ncols)
        },
    );
    forced
}

/// Sampled planning with the default estimator under `reorder`.
fn sampled(reorder: ReorderStrategy) -> PlanSettings {
    PlanSettings {
        estimator: Some(EstimatorConfig::default()),
        reorder,
        ..PlanSettings::default()
    }
}

/// Every plan family of the bench suites over one problem. Each expansion
/// method is forced once, so the estimator's picks are covered whatever
/// they are; its own plan runs too.
fn assert_every_family_replays_exactly(ctx: &ProblemContext<f64>, what: &str) {
    let dev = DeviceConfig::titan_xp();
    let cfg = ReorganizerConfig::default();
    let exact = ReorgPlan::build(ctx, &dev, &cfg.into());
    let mut families: Vec<(String, ReorgPlan)> = Vec::new();
    for method in METHODS {
        let mut plan = exact.clone();
        plan.method = method;
        families.push((format!("exact/{method:?}"), plan));
    }
    families.push(("kway".into(), with_forced_kway(&exact, ctx.ncols())));
    // `STRATEGIES[0]` is `None`: the exact plan itself.
    for &strategy in &STRATEGIES[1..] {
        let plan = ReorgPlan::build_with_reorder(ctx, &cfg, &dev, strategy);
        families.push((format!("reorder-{strategy:?}"), plan));
    }
    let estimated = sampled(ReorderStrategy::None);
    let plan = ReorgPlan::build(ctx, &dev, &estimated);
    families.push((format!("estimated/{:?}", plan.method), plan));
    let plan = ReorgPlan::build(ctx, &dev, &sampled(ReorderStrategy::Degree));
    families.push(("estimated-degree".into(), plan));
    for (i, (family, plan)) in families.iter().enumerate() {
        assert_replay_is_exact(plan, ctx, threads_for(i), &format!("{what}/{family}"));
    }
}

#[test]
fn every_suite_plan_family_replays_bitwise() {
    for name in SUITE_DATASETS {
        let a = RealWorldRegistry::get(name)
            .expect("suite dataset is registered")
            .generate(ScaleFactor::Tiny);
        let ctx = ProblemContext::new(&a, &a).unwrap();
        assert_every_family_replays_exactly(&ctx, name);
    }
}

#[test]
fn replays_beyond_the_parallel_block_threshold_are_exact() {
    // Large enough that the simulator's per-block passes actually fan out
    // at 4 threads (launches above its 512-block sequential cutoff).
    let a = rmat(RmatConfig::graph500(11, 8, 3)).to_csr();
    let ctx = ProblemContext::new(&a, &a).unwrap();
    let dev = DeviceConfig::titan_xp();
    let plan = ReorgPlan::build(&ctx, &dev, &PlanSettings::default());
    let run = plan.clone().execute(&ctx, &dev, PlanMode::Cached).unwrap();
    assert!(run.profiles.iter().any(|p| p.num_blocks > 512));
    assert_replay_is_exact(&plan, &ctx, (1, 4), "rmat-11");
    assert_replay_is_exact(&plan, &ctx, (4, 1), "rmat-11");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rmat_replays_equal_fresh_simulations(
        seed in 0u64..10_000,
        scale in 5u32..9,
        method in 0usize..METHODS.len(),
        strategy in 0usize..STRATEGIES.len(),
        estimated in 0u32..2,
        kway in 0u32..2,
        threads in 0usize..2,
    ) {
        let a = rmat(RmatConfig::graph500(scale, 6, seed)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let dev = DeviceConfig::titan_xp();
        let cfg = ReorganizerConfig::default();
        let mut plan = if estimated == 1 {
            ReorgPlan::build(&ctx, &dev, &sampled(STRATEGIES[strategy]))
        } else {
            ReorgPlan::build_with_reorder(&ctx, &cfg, &dev, STRATEGIES[strategy])
        };
        if kway == 1 {
            plan = with_forced_kway(&plan, ctx.ncols());
        }
        plan.method = METHODS[method];
        let what = format!("rmat seed {seed} scale {scale}");
        assert_replay_is_exact(&plan, &ctx, threads_for(threads), &what);
    }
}
