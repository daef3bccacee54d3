//! Criterion microbenchmarks of the real (host-executed) computational
//! kernels: the CPU oracle against the adaptive numeric engine, symbolic
//! analysis, generators, classification/splitting preprocessing, and the
//! L2 simulator itself.
//!
//! These measure *wall-clock Rust performance* of the library (the thing a
//! downstream user of the crates cares about), complementing the simulated
//! GPU times the fig/table binaries report.

use block_reorganizer::classify::{precalc_launch, Classification};
use block_reorganizer::config::ReorganizerConfig;
use block_reorganizer::plan::ReorgPlan;
use block_reorganizer::split::{plan_splits, SplitPlan};
use block_reorganizer::PlanSettings;
use br_datasets::chung_lu::{chung_lu, ChungLuConfig};
use br_datasets::rmat::{rmat, RmatConfig};
use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::l2cache::L2Cache;
use br_gpu_sim::sim::GpuSimulator;
use br_gpu_sim::trace::{AccessPattern, KernelLaunch, MemSegment, MemoryLayout};
use br_sparse::ops::{block_products, spgemm_gustavson, symbolic_nnz};
use br_sparse::CsrMatrix;
use br_spgemm::accum::{spgemm_adaptive, BinThresholds};
use br_spgemm::context::ProblemContext;
use br_spgemm::merge::kway::binned_merge_launches;
use br_spgemm::numeric::default_threads;
use br_spgemm::workspace::Workspace;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn skewed_input() -> CsrMatrix<f64> {
    chung_lu(ChungLuConfig::social(8_000, 64_000, 42)).to_csr()
}

fn regular_input() -> CsrMatrix<f64> {
    rmat(RmatConfig::uniform(13, 8, 42)).to_csr()
}

fn bench_numeric_mergers(c: &mut Criterion) {
    let a = skewed_input();
    let mut g = c.benchmark_group("numeric-mergers");
    g.sample_size(10);
    g.bench_function("gustavson-oracle", |b| {
        b.iter(|| spgemm_gustavson(black_box(&a), black_box(&a)).unwrap())
    });
    let (threads, bins) = (default_threads(), BinThresholds::recommended(a.ncols()));
    g.bench_function("adaptive", |b| {
        b.iter(|| spgemm_adaptive(black_box(&a), black_box(&a), threads, bins).unwrap())
    });
    g.finish();
}

fn bench_symbolic(c: &mut Criterion) {
    let a = skewed_input();
    let mut g = c.benchmark_group("symbolic");
    g.bench_function("block-products", |b| {
        b.iter(|| block_products(black_box(&a), black_box(&a)).unwrap())
    });
    g.bench_function("symbolic-nnz", |b| {
        b.iter(|| symbolic_nnz(black_box(&a), black_box(&a)).unwrap())
    });
    g.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut g = c.benchmark_group("generators");
    g.sample_size(10);
    g.bench_function("rmat-scale13-ef8", |b| {
        b.iter(|| rmat(RmatConfig::graph500(13, 8, 7)))
    });
    g.bench_function("chung-lu-8k-64k", |b| {
        b.iter(|| chung_lu(ChungLuConfig::social(8_000, 64_000, 7)))
    });
    g.finish();
}

fn bench_preprocessing(c: &mut Criterion) {
    let a = skewed_input();
    let ctx = ProblemContext::new(&a, &a).unwrap();
    let dev = DeviceConfig::titan_xp();
    let cfg = ReorganizerConfig::default();
    let mut g = c.benchmark_group("reorganizer-preprocessing");
    g.bench_function("classification", |b| {
        b.iter(|| Classification::of(black_box(&ctx), black_box(&cfg)))
    });
    let cls = Classification::of(&ctx, &cfg);
    g.bench_function("split-planning", |b| {
        b.iter(|| {
            plan_splits(
                black_box(&ctx),
                &cls.dominators,
                cfg.split_policy,
                &dev,
                cls.threshold,
            )
        })
    });
    g.bench_function("split-plan-1M-column", |b| {
        b.iter(|| SplitPlan::new(0, black_box(1_000_000), 64))
    });
    g.finish();
}

fn bench_oracle_by_class(c: &mut Criterion) {
    let skewed = skewed_input();
    let regular = regular_input();
    let mut g = c.benchmark_group("oracle-gustavson");
    g.sample_size(10);
    g.bench_function("skewed-8k", |b| {
        b.iter(|| spgemm_gustavson(black_box(&skewed), black_box(&skewed)).unwrap())
    });
    g.bench_function("regular-8k", |b| {
        b.iter(|| spgemm_gustavson(black_box(&regular), black_box(&regular)).unwrap())
    });
    g.finish();
}

fn bench_l2_simulator(c: &mut Criterion) {
    let dev = DeviceConfig::titan_xp();
    let mut layout = MemoryLayout::new();
    let region = layout.alloc(256 << 20);
    let coalesced = MemSegment {
        region,
        offset: 0,
        bytes: 8 << 20,
        pattern: AccessPattern::Coalesced,
        write: false,
        atomic: false,
    };
    let random = MemSegment {
        region,
        offset: 0,
        bytes: 64 << 20,
        pattern: AccessPattern::Random {
            count: 100_000,
            width: 8,
        },
        write: true,
        atomic: true,
    };
    let mut g = c.benchmark_group("l2-simulator");
    g.bench_function("stream-8MiB-coalesced", |b| {
        b.iter_batched(
            || L2Cache::for_device(&dev),
            |mut l2| l2.stream_segment(black_box(&layout), black_box(&coalesced)),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("scatter-100k-random", |b| {
        b.iter_batched(
            || L2Cache::for_device(&dev),
            |mut l2| l2.stream_segment(black_box(&layout), black_box(&random)),
            BatchSize::SmallInput,
        )
    });
    // A whole Cold request of the `rmat=9,8` size class: precalculation,
    // expansion and merge launches on one L2, as a plan-cache miss runs.
    let (ws, launches) = cold_rmat_9_8_launches(&dev);
    let sim = GpuSimulator::new(dev.clone()).with_threads(1);
    g.bench_function("simulate-cold-rmat-9-8", |b| {
        b.iter(|| sim.run_sequence(black_box(&launches), black_box(&ws.layout)))
    });
    g.finish();
}

/// The Cold-mode launch stream of the exact reorganizer plan for
/// `rmat=9,8` squared (seed 7).
fn cold_rmat_9_8_launches(dev: &DeviceConfig) -> (Workspace, Vec<KernelLaunch>) {
    let a = rmat(RmatConfig::graph500(9, 8, 7)).to_csr();
    let ctx = ProblemContext::new(&a, &a).unwrap();
    let plan = ReorgPlan::build(&ctx, dev, &PlanSettings::default());
    let ws = Workspace::for_context(&ctx);
    let mut launches = vec![
        precalc_launch(&ctx, &ws),
        plan.expansion_launch(&ctx, &ws).0,
    ];
    launches.extend(binned_merge_launches(
        &ctx,
        &ws,
        plan.config.block_size,
        true,
        &plan.bins,
        |r| plan.limit_plan.extra_smem(r),
    ));
    (ws, launches)
}

criterion_group!(
    benches,
    bench_numeric_mergers,
    bench_symbolic,
    bench_generators,
    bench_preprocessing,
    bench_oracle_by_class,
    bench_l2_simulator
);
criterion_main!(benches);
