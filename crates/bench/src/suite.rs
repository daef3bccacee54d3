//! Benchmark suites: fixed grids of (dataset × method × device) cases plus
//! a plan-cache service batch, executed on the simulator and folded into a
//! [`BenchReport`].
//!
//! The suites trade coverage against runtime:
//!
//! * `quick` — three datasets at `tiny` scale, three methods, one device;
//!   seconds. This is the per-PR CI regression gate.
//! * `full` — eight datasets at `default` scale, all seven methods, the
//!   Titan Xp, plus the reorganizer on all three devices; tens of minutes.
//!   Run weekly by the scheduled workflow.
//! * `scaling` — one regular and one power-law dataset swept across the
//!   three devices and three scales for the outer-product baseline and the
//!   reorganizer; minutes.
//! * `estplan` — the quick grid's datasets planned exactly vs via the
//!   sampling estimator, executed cold; the cold-plan CI gate.
//! * `kway` — the quick grid's datasets run through the reorganizer with
//!   the default merge bins and again with the k-way tournament bin forced
//!   open, so the heavy-row merge crossover shows up in the report.
//! * `reorder` — the quick grid's datasets planned under each row-reorder
//!   strategy (`none`/`degree`/`rcm`/`cluster`), so the per-strategy LBI
//!   and L2-hit-rate deltas show up in the report.

use crate::schema::{
    git_sha, BenchReport, BinHostStats, CaseMetrics, CaseReport, ChainCaseReport, ChainSection,
    ChainStepReport, HostSection, ObsHostStats, PhaseMetrics, PlanCaseReport, PlanSection,
    ServiceSection, SCHEMA_VERSION,
};
use block_reorganizer::plan::{PlanMode, ReorgPlan};
use block_reorganizer::reorder::ReorderStrategy;
use block_reorganizer::PlanSettings;
use br_datasets::registry::{RealWorldRegistry, ScaleFactor};
use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::profiler::KernelProfile;
use br_obs::Registry;
use br_service::prelude::*;
use br_sparse::par;
use br_spgemm::accum::{BinThresholds, RowBins};
use br_spgemm::estimate::EstimatorConfig;
use br_spgemm::pipeline::{run_method, SpgemmMethod, SpgemmRun};
use br_workloads::Workload;
use std::sync::Arc;
use std::time::Instant;

/// Which benchmark suite to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// CI regression gate: small, seconds.
    Quick,
    /// Weekly coverage run: all methods, minutes.
    Full,
    /// Device/scale sweep.
    Scaling,
    /// Cold-plan planning-latency gate: the quick grid's datasets, each
    /// planned twice — exact precalculation vs the sampling estimator —
    /// and executed cold. Records a [`crate::schema::PlanSection`].
    Estplan,
    /// K-way merge crossover sweep: the quick grid's datasets through the
    /// reorganizer with default bins and with the k-way tournament bin
    /// forced open ([`KWAY_SUITE_MIN`]), on the Titan Xp.
    Kway,
    /// Row-reordering sweep: the quick grid's datasets planned under each
    /// strategy (`none`/`degree`/`rcm`/`cluster`) and executed from the
    /// cached plan, on the Titan Xp. Results are bit-identical across
    /// strategies; the report captures the LBI / L2-hit-rate deltas.
    Reorder,
    /// Chained-workload suite: every canonical [`Workload`] program
    /// (iterated squaring, triangle counting, Markov clustering, the
    /// Galerkin triple product) over the quick grid's datasets, each chain
    /// executed step by step through the plan-cached service path against
    /// a fresh per-case cache. Records a [`ChainSection`]; the grid of
    /// single-multiplication [`BenchCase`]s is empty.
    Chain,
}

impl Suite {
    /// Parses the CLI spelling.
    pub fn parse(text: &str) -> Option<Suite> {
        match text {
            "quick" => Some(Suite::Quick),
            "full" => Some(Suite::Full),
            "scaling" => Some(Suite::Scaling),
            "estplan" => Some(Suite::Estplan),
            "kway" => Some(Suite::Kway),
            "reorder" => Some(Suite::Reorder),
            "chain" => Some(Suite::Chain),
            _ => None,
        }
    }

    /// The canonical name, used for the `BENCH_<suite>.json` filename.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Quick => "quick",
            Suite::Full => "full",
            Suite::Scaling => "scaling",
            Suite::Estplan => "estplan",
            Suite::Kway => "kway",
            Suite::Reorder => "reorder",
            Suite::Chain => "chain",
        }
    }

    /// The suite's case grid, in a fixed, stable order.
    pub fn cases(self) -> Vec<BenchCase> {
        match self {
            Suite::Quick => {
                let mut out = Vec::new();
                for dataset in ["harbor", "emailEnron", "patents_main"] {
                    for method in [
                        MethodSel::Baseline(SpgemmMethod::RowProduct),
                        MethodSel::Baseline(SpgemmMethod::OuterProduct),
                        MethodSel::Reorganizer,
                    ] {
                        out.push(BenchCase {
                            dataset,
                            scale: ScaleFactor::Tiny,
                            method,
                            device: DeviceSel::TitanXp,
                        });
                    }
                }
                out
            }
            Suite::Full => {
                let datasets = [
                    "filter3D",
                    "harbor",
                    "protein",
                    "2cube_sphere",
                    "youtube",
                    "emailEnron",
                    "patents_main",
                    "epinions",
                ];
                let mut out = Vec::new();
                for dataset in datasets {
                    for m in SpgemmMethod::all() {
                        out.push(BenchCase {
                            dataset,
                            scale: ScaleFactor::Default,
                            method: MethodSel::Baseline(m),
                            device: DeviceSel::TitanXp,
                        });
                    }
                    for device in [
                        DeviceSel::TitanXp,
                        DeviceSel::TeslaV100,
                        DeviceSel::Rtx2080Ti,
                    ] {
                        out.push(BenchCase {
                            dataset,
                            scale: ScaleFactor::Default,
                            method: MethodSel::Reorganizer,
                            device,
                        });
                    }
                }
                out
            }
            Suite::Estplan => {
                let mut out = Vec::new();
                for dataset in ["harbor", "emailEnron", "patents_main"] {
                    for method in [MethodSel::PlanExact, MethodSel::PlanEstimate] {
                        out.push(BenchCase {
                            dataset,
                            scale: ScaleFactor::Tiny,
                            method,
                            device: DeviceSel::TitanXp,
                        });
                    }
                }
                out
            }
            Suite::Kway => {
                let mut out = Vec::new();
                for dataset in ["harbor", "emailEnron", "patents_main"] {
                    for method in [MethodSel::Reorganizer, MethodSel::KwayMerge] {
                        out.push(BenchCase {
                            dataset,
                            scale: ScaleFactor::Tiny,
                            method,
                            device: DeviceSel::TitanXp,
                        });
                    }
                }
                out
            }
            Suite::Reorder => {
                let mut out = Vec::new();
                for dataset in ["harbor", "emailEnron", "patents_main"] {
                    for strategy in [
                        ReorderStrategy::None,
                        ReorderStrategy::Degree,
                        ReorderStrategy::Rcm,
                        ReorderStrategy::Cluster,
                    ] {
                        out.push(BenchCase {
                            dataset,
                            scale: ScaleFactor::Tiny,
                            method: MethodSel::Reordered(strategy),
                            device: DeviceSel::TitanXp,
                        });
                    }
                }
                out
            }
            // The chain suite's unit of work is a whole program, not a
            // single multiplication — its grid lives in `chain_cases`.
            Suite::Chain => Vec::new(),
            Suite::Scaling => {
                let mut out = Vec::new();
                for dataset in ["harbor", "emailEnron"] {
                    for scale in [
                        ScaleFactor::Div(64),
                        ScaleFactor::Div(32),
                        ScaleFactor::Div(16),
                    ] {
                        for device in [
                            DeviceSel::TitanXp,
                            DeviceSel::TeslaV100,
                            DeviceSel::Rtx2080Ti,
                        ] {
                            for method in [
                                MethodSel::Baseline(SpgemmMethod::OuterProduct),
                                MethodSel::Reorganizer,
                            ] {
                                out.push(BenchCase {
                                    dataset,
                                    scale,
                                    method,
                                    device,
                                });
                            }
                        }
                    }
                }
                out
            }
        }
    }
}

/// Which method a case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodSel {
    /// One of the six Figure 8 baselines.
    Baseline(SpgemmMethod),
    /// The Block Reorganizer (default config).
    Reorganizer,
    /// Build a [`ReorgPlan`] with exact precalculation and execute it cold
    /// (`estplan` suite).
    PlanExact,
    /// Build a [`ReorgPlan`] under the run's estimator setting (per-problem
    /// method selection, estimated bin thresholds) and execute it cold
    /// (`estplan` suite). Without an estimator (`--no-estimate`) this
    /// flavor plans exactly too.
    PlanEstimate,
    /// The reorganizer plan with the k-way tournament bin forced open at
    /// [`KWAY_SUITE_MIN`] products (`kway` suite): the plan is built
    /// exactly, then its bins are re-classified per case.
    KwayMerge,
    /// The reorganizer plan built under a forced row-reorder strategy and
    /// executed from the cached plan (`reorder` suite). The numeric result
    /// stays bit-identical because the permutation reaches only the
    /// simulated launch stream.
    Reordered(ReorderStrategy),
}

impl MethodSel {
    /// Display name in the paper's legend spelling.
    pub fn name(self) -> &'static str {
        match self {
            MethodSel::Baseline(m) => m.name(),
            MethodSel::Reorganizer => "Block-Reorganizer",
            MethodSel::PlanExact => "plan-exact",
            MethodSel::PlanEstimate => "plan-estimate",
            MethodSel::KwayMerge => "kway-merge",
            MethodSel::Reordered(ReorderStrategy::None) => "reorder-none",
            MethodSel::Reordered(ReorderStrategy::Degree) => "reorder-degree",
            MethodSel::Reordered(ReorderStrategy::Rcm) => "reorder-rcm",
            MethodSel::Reordered(ReorderStrategy::Cluster) => "reorder-cluster",
            MethodSel::Reordered(ReorderStrategy::Auto) => "reorder-auto",
        }
    }
}

/// `kway_min` the `kway` suite forces: low enough that every suite dataset
/// routes its heaviest rows through the tournament merge at tiny scale
/// (patents_main's tiny-scale rows top out at ~250 intermediate products).
pub const KWAY_SUITE_MIN: u64 = 128;

/// The thresholds a [`MethodSel::KwayMerge`] case (and the `kway` suite's
/// census) applies: the width's recommendation, with the k-way bin opened
/// at [`KWAY_SUITE_MIN`] intermediate products.
fn kway_suite_thresholds(ncols: usize) -> BinThresholds {
    BinThresholds {
        kway_min: KWAY_SUITE_MIN,
        ..BinThresholds::recommended(ncols)
    }
}

/// The plan settings `bench run` uses without flags: the reorganizer's
/// defaults and the width-recommended bins, with the default estimator for
/// the `estplan` suite's `plan-estimate` flavor. Every other case plans
/// exactly whatever the estimator setting.
pub fn default_settings() -> PlanSettings {
    PlanSettings {
        estimator: Some(EstimatorConfig::default()),
        ..PlanSettings::default()
    }
}

/// Which modelled device a case runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceSel {
    /// Table I System 1.
    TitanXp,
    /// Table I System 2.
    TeslaV100,
    /// Table I System 3.
    Rtx2080Ti,
}

impl DeviceSel {
    /// Builds the configuration.
    pub fn config(self) -> DeviceConfig {
        match self {
            DeviceSel::TitanXp => DeviceConfig::titan_xp(),
            DeviceSel::TeslaV100 => DeviceConfig::tesla_v100(),
            DeviceSel::Rtx2080Ti => DeviceConfig::rtx_2080_ti(),
        }
    }

    /// Short slug used in case ids.
    pub fn slug(self) -> &'static str {
        match self {
            DeviceSel::TitanXp => "titan-xp",
            DeviceSel::TeslaV100 => "tesla-v100",
            DeviceSel::Rtx2080Ti => "rtx-2080-ti",
        }
    }
}

/// One (dataset × scale × method × device) grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchCase {
    /// Table II dataset name.
    pub dataset: &'static str,
    /// Surrogate scale.
    pub scale: ScaleFactor,
    /// Method under test.
    pub method: MethodSel,
    /// Target device.
    pub device: DeviceSel,
}

impl BenchCase {
    /// The stable identity string cases are matched by across reports.
    pub fn id(&self) -> String {
        format!(
            "{}@{}/{}/{}",
            self.dataset,
            self.scale.label(),
            self.method.name(),
            self.device.slug()
        )
    }
}

/// Runs a whole suite under `settings` and assembles the report, with the
/// worker count resolved from the ambient [`par`] configuration
/// (`BR_THREADS`, which `--threads` sets, else available cores). `progress`
/// receives one line per completed case (pass `|_| {}` to silence).
pub fn run_suite(suite: Suite, settings: &PlanSettings, progress: impl FnMut(&str)) -> BenchReport {
    run_suite_threaded(suite, par::effective_threads(None), settings, progress)
}

/// [`run_suite`] with an explicit host worker count.
///
/// Grid cells are independent measurements, so they fan out over `threads`
/// scoped workers; results (and progress lines) are emitted in suite
/// definition order, and the service batch runs `threads` workers against
/// the single-flight plan cache — so everything in the report except the
/// wall-clock `host` section is byte-identical at any thread count.
pub fn run_suite_threaded(
    suite: Suite,
    threads: usize,
    settings: &PlanSettings,
    mut progress: impl FnMut(&str),
) -> BenchReport {
    let started = Instant::now();
    let threads = threads.max(1);
    let grid = suite.cases();
    let results: Vec<(CaseReport, Option<PlanCaseReport>)> =
        par::ordered_map(&grid, threads, |_, case| run_case(case, settings));
    let mut cases = Vec::with_capacity(results.len());
    let mut plan_cases = Vec::new();
    for (case, plan_case) in results {
        cases.push(case);
        plan_cases.extend(plan_case);
    }
    for report in &cases {
        progress(&format!(
            "{:<55} {:>14.0} cycles  {:>9.3} ms",
            report.id, report.metrics.makespan_cycles, report.metrics.total_ms
        ));
    }
    let chain = (suite == Suite::Chain).then(|| {
        let grid = chain_cases();
        let cases: Vec<ChainCaseReport> =
            par::ordered_map(&grid, threads, |_, &(dataset, workload)| {
                run_chain_case(dataset, workload, settings)
            });
        for case in &cases {
            progress(&format!(
                "{:<55} {:>2} steps  {} hits / {} misses  {:>9.3} ms",
                case.id,
                case.steps.len(),
                case.cache_hits,
                case.cache_misses,
                case.total_ms
            ));
        }
        ChainSection { cases }
    });
    let service = run_service_batch(suite, threads, settings);
    progress(&format!(
        "service batch: {} jobs, cache hit rate {:.2}",
        service.jobs, service.cache_hit_rate
    ));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let per_sec = |n: u64| {
        if wall_ms > 0.0 {
            n as f64 / (wall_ms / 1e3)
        } else {
            0.0
        }
    };
    // Registry size at the end of the run. Stored under `host` (and
    // stripped by --no-host) because sample counts depend on what else
    // ran in the process, not on the suite's simulated results.
    let obs_totals = br_obs::global().totals();
    let host = Some(HostSection {
        threads: threads as u64,
        wall_ms,
        cases_per_sec: per_sec(cases.len() as u64),
        jobs_per_sec: per_sec(service.jobs),
        bins: Some(bin_census(suite, threads)),
        obs: Some(ObsHostStats {
            families: obs_totals.families,
            samples: obs_totals.samples,
            span_events: obs_totals.span_events,
        }),
    });
    // The estimator setting that planned the estplan cases identifies the
    // section the same way config_fingerprint identifies the grid.
    let plan = (suite == Suite::Estplan).then(|| PlanSection {
        estimator_fingerprint: settings.estimator.map_or(0, |e| e.fingerprint()),
        cases: plan_cases,
    });
    BenchReport {
        schema_version: SCHEMA_VERSION,
        suite: suite.name().to_string(),
        git_sha: git_sha(),
        model_version: br_gpu_sim::MODEL_VERSION,
        config_fingerprint: settings.config.fingerprint(),
        cases,
        service,
        plan,
        chain,
        host,
    }
}

/// The chain suite's grid: every canonical workload over the quick grid's
/// datasets, in a fixed, stable order.
pub fn chain_cases() -> Vec<(&'static str, Workload)> {
    let mut out = Vec::new();
    for dataset in ["harbor", "emailEnron", "patents_main"] {
        for workload in Workload::canonical() {
            out.push((dataset, workload));
        }
    }
    out
}

/// Runs one chain case: the workload's program over the dataset at tiny
/// scale, step by step through an engine with a fresh cache and a private
/// registry — so the recorded hit/miss pattern is intra-chain and a pure
/// function of the program, independent of what other grid cells run
/// concurrently.
fn run_chain_case(
    dataset: &'static str,
    workload: Workload,
    settings: &PlanSettings,
) -> ChainCaseReport {
    let a = RealWorldRegistry::get(dataset)
        .unwrap_or_else(|| panic!("chain suite references unknown dataset {dataset:?}"))
        .generate(ScaleFactor::Tiny);
    let engine = Engine::new(exact(settings), 8, Arc::new(Registry::new()));
    let worker = Worker::new(0, DeviceConfig::titan_xp());
    let request = ChainRequest::workload(0, workload, &a);
    let outcome = engine
        .run_chain(&worker, &request, 0.0)
        .unwrap_or_else(|e| panic!("chain case {dataset}/{} failed: {e:?}", workload.spec()));
    ChainCaseReport {
        id: format!("{dataset}@tiny/{}/titan-xp", workload.spec()),
        dataset: dataset.to_string(),
        workload: workload.spec(),
        steps: outcome
            .steps
            .iter()
            .map(|s| ChainStepReport {
                label: s.label.clone(),
                cache_hit: s.cache_hit,
                fresh_structure: s.fresh_structure,
                method: s.method.to_string(),
                total_ms: s.total_ms,
                product_nnz: s.product_nnz as u64,
                output_nnz: s.output_nnz as u64,
                fill_in_permille: s.fill_in_permille,
            })
            .collect(),
        cache_hits: outcome.cache_hits() as u64,
        cache_misses: outcome.cache_misses() as u64,
        structure_churn: outcome.structure_churn() as u64,
        total_ms: outcome.total_ms,
        result_nnz: outcome.result.nnz() as u64,
    }
}

/// `settings` with exact precalculation: what every case but the estplan
/// suite's `plan-estimate` flavor plans under.
fn exact(settings: &PlanSettings) -> PlanSettings {
    PlanSettings {
        estimator: None,
        ..*settings
    }
}

/// Runs one grid point. Plan-building cases (`estplan` suite) also return
/// the planner's decision record for the report's plan section.
fn run_case(case: &BenchCase, settings: &PlanSettings) -> (CaseReport, Option<PlanCaseReport>) {
    let spec = RealWorldRegistry::get(case.dataset)
        .unwrap_or_else(|| panic!("suite references unknown dataset {:?}", case.dataset));
    let a = spec.generate(case.scale);
    let ctx = crate::harness::square_context(&a);
    let device = case.device.config();
    let exact = exact(settings);
    let mut plan_case = None;
    let run: SpgemmRun<f64> = match case.method {
        MethodSel::Baseline(m) => run_method(&ctx, m, &device).expect("square shapes always agree"),
        MethodSel::Reorganizer => ReorgPlan::build(&ctx, &device, &exact)
            .execute(&ctx, &device, PlanMode::Cold)
            .expect("square shapes always agree")
            .into_spgemm_run(),
        MethodSel::KwayMerge => {
            // Exact plan, then the bins re-classified with the k-way bin
            // forced open. Bin membership only redirects rows between
            // merge kernels — the numeric result stays bit-identical.
            let mut plan = ReorgPlan::build(&ctx, &device, &exact);
            plan.bins = RowBins::classify(
                &plan.bins.row_products.clone(),
                kway_suite_thresholds(a.ncols()),
            );
            plan.execute(&ctx, &device, PlanMode::Cached)
                .expect("square shapes always agree")
                .into_spgemm_run()
        }
        MethodSel::Reordered(reorder) => {
            // The permutation is planned once and stored in the plan, so
            // the cached execution replays it exactly like a cache hit in
            // the service would.
            let plan = ReorgPlan::build(&ctx, &device, &PlanSettings { reorder, ..exact });
            plan.execute(&ctx, &device, PlanMode::Cached)
                .expect("square shapes always agree")
                .into_spgemm_run()
        }
        MethodSel::PlanExact | MethodSel::PlanEstimate => {
            let planned = if case.method == MethodSel::PlanEstimate {
                settings
            } else {
                &exact
            };
            let plan = ReorgPlan::build(&ctx, &device, planned);
            plan_case = Some(PlanCaseReport {
                id: case.id(),
                mode: if plan.build.fallback {
                    "fallback"
                } else if plan.build.estimated {
                    "estimate"
                } else {
                    "exact"
                }
                .to_string(),
                method: plan.method.name().to_string(),
                ops: plan.build.ops,
                sampled_cols: plan.build.sampled_cols,
                rel_band_ppm: plan.build.rel_band_ppm,
            });
            plan.execute(&ctx, &device, PlanMode::Cold)
                .expect("square shapes always agree")
                .into_spgemm_run()
        }
    };
    let report = CaseReport {
        id: case.id(),
        dataset: case.dataset.to_string(),
        scale: case.scale.label(),
        method: case.method.name().to_string(),
        device: device.name.clone(),
        device_fingerprint: device.fingerprint(),
        metrics: metrics_of(&run),
    };
    (report, plan_case)
}

/// Folds a run's kernel profiles into the tracked counters.
fn metrics_of(run: &SpgemmRun<f64>) -> CaseMetrics {
    let phases: Vec<PhaseMetrics> = run
        .profiles
        .iter()
        .map(|p| PhaseMetrics {
            name: p.name.clone(),
            makespan_cycles: p.makespan_cycles,
            lbi: p.lbi(),
            l2_hit_rate: p.l2.hit_rate(),
            sync_stall_ratio: p.sync_stall_ratio(),
        })
        .collect();
    let makespan_cycles: f64 = phases.iter().map(|p| p.makespan_cycles).sum();
    let (accesses, hits) = run
        .profiles
        .iter()
        .fold((0u64, 0u64), |(a, h), p| (a + p.l2.accesses, h + p.l2.hits));
    let (busy, stalls) = run.profiles.iter().fold((0.0f64, 0.0f64), |(b, s), p| {
        (b + p.busy_cycles, s + p.sync_stall_cycles)
    });
    CaseMetrics {
        makespan_cycles,
        phases,
        total_ms: run.total_ms,
        lbi: worst_lbi(&run.profiles),
        l2_hit_rate: if accesses == 0 {
            0.0
        } else {
            hits as f64 / accesses as f64
        },
        sync_stall_ratio: if busy <= 0.0 { 0.0 } else { stalls / busy },
        gflops: run.gflops(),
        flops: run.flops,
        result_nnz: run.result.nnz() as u64,
    }
}

fn worst_lbi(profiles: &[KernelProfile]) -> f64 {
    profiles.iter().map(|p| p.lbi()).fold(0.0, f64::max)
}

/// The thresholds [`bin_census`] applies to a problem of width `ncols` in
/// `suite`: the `kway` suite censuses under its forced k-way thresholds —
/// the same ones its merge cases execute with — every other suite under
/// what an exact plan applies, the width-aware recommendation.
fn suite_thresholds(suite: Suite, ncols: usize) -> BinThresholds {
    match suite {
        Suite::Kway => kway_suite_thresholds(ncols),
        _ => BinThresholds::recommended(ncols),
    }
}

/// Censuses the adaptive engine's row bins over the suite's distinct
/// (dataset, scale) problems (each squared, as the grid runs them), under
/// [`suite_thresholds`]. The recorded thresholds are the first problem's,
/// in deterministic suite order — at one suite scale the recommendation is
/// uniform in practice. Kway rows additionally record a log2 histogram of
/// their run counts (A-row nonzeros): the tournament-tree widths the
/// simulated k-way kernel builds. Structure-only and deterministic;
/// recorded in the report's informational `host` section, never compared.
/// Row products are counted over `threads` workers.
fn bin_census(suite: Suite, threads: usize) -> BinHostStats {
    let mut seen: Vec<(&'static str, String)> = Vec::new();
    let mut recorded: Option<BinThresholds> = None;
    let mut runs_hist: Vec<u64> = Vec::new();
    let mut stats = BinHostStats {
        tiny_max: 0,
        heavy_min: 0,
        tiny_rows: 0,
        medium_rows: 0,
        heavy_rows: 0,
        tiny_products: 0,
        medium_products: 0,
        heavy_products: 0,
        kway_min: None,
        kway_rows: Some(0),
        kway_products: Some(0),
        runs_per_row: None,
    };
    for case in suite.cases() {
        let key = (case.dataset, case.scale.label());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let a = RealWorldRegistry::get(case.dataset)
            .expect("suite datasets are registered")
            .generate(case.scale);
        let thresholds = suite_thresholds(suite, a.ncols());
        if recorded.is_none() {
            recorded = Some(thresholds);
            stats.tiny_max = thresholds.tiny_max;
            stats.heavy_min = thresholds.heavy_min;
            stats.kway_min = Some(thresholds.kway_min);
        }
        let bins = RowBins::of(&a, &a, thresholds, threads).expect("square shapes always agree");
        for (r, &p) in bins.row_products.iter().enumerate() {
            if thresholds.bin_of(p) == br_spgemm::accum::RowBin::Kway {
                let runs = a.row_nnz(r).max(1) as u64;
                let bucket = (63 - runs.leading_zeros()) as usize;
                if runs_hist.len() <= bucket {
                    runs_hist.resize(bucket + 1, 0);
                }
                runs_hist[bucket] += 1;
            }
        }
        stats.tiny_rows += bins.rows[0];
        stats.medium_rows += bins.rows[1];
        stats.heavy_rows += bins.rows[2];
        stats.kway_rows = Some(stats.kway_rows.unwrap_or(0) + bins.rows[3]);
        stats.tiny_products += bins.products[0];
        stats.medium_products += bins.products[1];
        stats.heavy_products += bins.products[2];
        stats.kway_products = Some(stats.kway_products.unwrap_or(0) + bins.products[3]);
    }
    stats.runs_per_row = Some(runs_hist);
    stats
}

/// Exercises the `br-service` plan cache with a deterministic batch: a few
/// distinct matrices, each multiplied several times, so the cache sees
/// both cold misses and warm hits regardless of worker interleaving.
fn run_service_batch(suite: Suite, threads: usize, settings: &PlanSettings) -> ServiceSection {
    let (repeats, scale) = match suite {
        Suite::Quick => (3usize, ScaleFactor::Tiny),
        Suite::Full => (4, ScaleFactor::Default),
        Suite::Scaling | Suite::Estplan | Suite::Kway | Suite::Reorder | Suite::Chain => {
            (3, ScaleFactor::Tiny)
        }
    };
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for dataset in ["harbor", "emailEnron"] {
        let spec = RealWorldRegistry::get(dataset).expect("registry dataset");
        let a = Arc::new(spec.generate(scale));
        for _ in 0..repeats {
            jobs.push(ChainRequest::square(id, a.clone()).with_label(dataset));
            id += 1;
        }
    }
    // The plan cache is single-flight, so workers racing on the same cold
    // key produce exactly one miss however they interleave — the counters
    // below are a function of the job list alone, and the report stays
    // byte-identical at any worker count.
    let workers = threads.min(jobs.len()).max(1);
    // Record job-lifecycle counters and spans in the process-wide registry
    // so `bench run --metrics` covers the service batch too.
    let batch = SpgemmService::run_batch(
        ServiceConfig::uniform(DeviceConfig::titan_xp(), workers, 8)
            .with_registry(br_obs::global_arc())
            .with_settings(exact(settings)),
        jobs,
    );
    let stats = &batch.stats;
    ServiceSection {
        jobs: stats.jobs as u64,
        failures: stats.failures as u64,
        cache_hits: stats.cache.hits,
        cache_misses: stats.cache.misses,
        cache_evictions: stats.cache.evictions,
        cache_hit_rate: stats.cache.hit_rate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_SUITES: [Suite; 7] = [
        Suite::Quick,
        Suite::Full,
        Suite::Scaling,
        Suite::Estplan,
        Suite::Kway,
        Suite::Reorder,
        Suite::Chain,
    ];

    #[test]
    fn suite_parsing_and_names_roundtrip() {
        for s in ALL_SUITES {
            assert_eq!(Suite::parse(s.name()), Some(s));
        }
        assert_eq!(Suite::parse("nope"), None);
    }

    #[test]
    fn case_ids_are_unique_within_each_suite() {
        for suite in ALL_SUITES {
            let ids: Vec<String> = suite.cases().iter().map(BenchCase::id).collect();
            let mut dedup = ids.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(ids.len(), dedup.len(), "{} has duplicate ids", suite.name());
        }
    }

    #[test]
    fn quick_suite_references_known_datasets_only() {
        for suite in ALL_SUITES {
            for case in suite.cases() {
                assert!(
                    RealWorldRegistry::get(case.dataset).is_some(),
                    "{} references unknown dataset {}",
                    suite.name(),
                    case.dataset
                );
            }
        }
    }

    #[test]
    fn quick_suite_run_is_deterministic() {
        let mut a = run_suite(Suite::Quick, &default_settings(), |_| {});
        let mut b = run_suite(Suite::Quick, &default_settings(), |_| {});
        // Whole-report equality except provenance (git_sha is stable here
        // anyway) and the wall-clock host section, which is the one part
        // that legitimately differs between runs.
        assert_eq!(a.cases, b.cases, "cycle counts must be bit-identical");
        assert_eq!(a.service.cache_hits, b.service.cache_hits);
        a.host = None;
        b.host = None;
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn quick_suite_is_byte_identical_at_any_thread_count() {
        // The tentpole contract: with the host section stripped, the
        // report file is byte-for-byte the same whether the grid and the
        // service batch ran on 1 worker or several.
        let mut seq = run_suite_threaded(Suite::Quick, 1, &default_settings(), |_| {});
        let mut par4 = run_suite_threaded(Suite::Quick, 4, &default_settings(), |_| {});
        assert_eq!(seq.host.as_ref().map(|h| h.threads), Some(1));
        assert_eq!(par4.host.as_ref().map(|h| h.threads), Some(4));
        seq.host = None;
        par4.host = None;
        assert_eq!(seq.to_json(), par4.to_json());
    }

    #[test]
    fn bin_census_is_deterministic_and_counts_every_row() {
        let census = bin_census(Suite::Quick, 2);
        assert_eq!(census, bin_census(Suite::Quick, 2));
        // The recorded pair is what the engine applies to the suite's
        // first problem (harbor, tiny scale).
        let harbor = RealWorldRegistry::get("harbor")
            .unwrap()
            .generate(ScaleFactor::Tiny);
        let thresholds = BinThresholds::recommended(harbor.ncols());
        assert_eq!(census.tiny_max, thresholds.tiny_max);
        assert_eq!(census.heavy_min, thresholds.heavy_min);
        // The quick suite censuses under the engine's own thresholds,
        // where the k-way bin is off.
        assert_eq!(census.kway_min, Some(thresholds.kway_min));
        assert_eq!(census.kway_rows, Some(0));
        assert_eq!(census.kway_products, Some(0));
        assert_eq!(census.runs_per_row, Some(vec![]));
        // Every distinct (dataset, scale) problem's rows are counted once.
        let expected_rows: u64 = ["harbor", "emailEnron", "patents_main"]
            .iter()
            .map(|d| {
                RealWorldRegistry::get(d)
                    .unwrap()
                    .generate(ScaleFactor::Tiny)
                    .nrows() as u64
            })
            .sum();
        assert_eq!(
            census.tiny_rows + census.medium_rows + census.heavy_rows + census.kway_rows.unwrap(),
            expected_rows
        );
        assert!(census.tiny_rows > 0, "{census:?}");
    }

    #[test]
    fn kway_census_routes_rows_and_sizes_their_trees() {
        // Under the kway suite's forced thresholds the census must move
        // rows into the k-way bin and the runs histogram must cover
        // exactly those rows.
        let census = bin_census(Suite::Kway, 2);
        assert_eq!(census, bin_census(Suite::Kway, 2));
        assert_eq!(census.kway_min, Some(KWAY_SUITE_MIN));
        let kway_rows = census.kway_rows.expect("kway census records the bin");
        assert!(kway_rows > 0, "{census:?}");
        assert!(census.kway_products.unwrap() >= kway_rows * KWAY_SUITE_MIN);
        let hist = census.runs_per_row.as_ref().unwrap();
        assert_eq!(hist.iter().sum::<u64>(), kway_rows, "{census:?}");
    }

    #[test]
    fn quick_suite_measures_real_work() {
        let report = run_suite(Suite::Quick, &default_settings(), |_| {});
        assert_eq!(report.cases.len(), 9);
        for case in &report.cases {
            assert!(
                case.metrics.makespan_cycles > 0.0,
                "{} has no cycles",
                case.id
            );
            assert!(case.metrics.result_nnz > 0, "{} empty result", case.id);
            assert!(!case.metrics.phases.is_empty(), "{} has no phases", case.id);
            let phase_sum: f64 = case.metrics.phases.iter().map(|p| p.makespan_cycles).sum();
            assert!(
                (phase_sum - case.metrics.makespan_cycles).abs() < 1e-6,
                "{} phases do not sum to the total",
                case.id
            );
        }
        assert_eq!(report.service.failures, 0);
        assert!(
            report.service.cache_hits >= 2,
            "repeated jobs must hit the plan cache"
        );
    }

    /// ISSUE acceptance criterion: on the quick grid's datasets the
    /// estimated plan build costs ≤ half the exact precalc (modeled ops),
    /// never falls back, produces identical output, and its cold execution
    /// stays within the compare gate's makespan tolerance.
    #[test]
    fn estplan_estimate_flavor_halves_cold_plan_cost_at_matched_makespan() {
        let report = run_suite(Suite::Estplan, &default_settings(), |_| {});
        let plan = report
            .plan
            .as_ref()
            .expect("estplan records a plan section");
        assert_eq!(report.cases.len(), 6);
        assert_eq!(plan.cases.len(), 6);
        for dataset in ["harbor", "emailEnron", "patents_main"] {
            let case = |flavor: &str| {
                let id = format!("{dataset}@tiny/{flavor}/titan-xp");
                (
                    report.case(&id).unwrap_or_else(|| panic!("missing {id}")),
                    plan.cases
                        .iter()
                        .find(|c| c.id == id)
                        .unwrap_or_else(|| panic!("missing plan record {id}")),
                )
            };
            let (exact_case, exact_plan) = case("plan-exact");
            let (est_case, est_plan) = case("plan-estimate");
            assert_eq!(exact_plan.mode, "exact");
            assert_eq!(exact_plan.method, "reorganized");
            assert_eq!(
                est_plan.mode, "estimate",
                "{dataset}: band {} ppm forced a fallback",
                est_plan.rel_band_ppm
            );
            assert!(
                exact_plan.ops >= 2 * est_plan.ops,
                "{dataset}: cold-plan cost must drop >= 2x (exact {} vs estimated {})",
                exact_plan.ops,
                est_plan.ops
            );
            // Identical work and identical results whichever way it planned.
            assert_eq!(exact_case.metrics.flops, est_case.metrics.flops);
            assert_eq!(exact_case.metrics.result_nnz, est_case.metrics.result_nnz);
            // Estimation may only change simulated scheduling within the
            // compare gate's tolerance, never degrade it beyond the gate.
            let delta = (est_case.metrics.makespan_cycles - exact_case.metrics.makespan_cycles)
                / exact_case.metrics.makespan_cycles;
            assert!(
                delta <= 0.05,
                "{dataset}: estimated plan regressed makespan {:.2}% (method {})",
                delta * 100.0,
                est_plan.method
            );
        }
    }

    /// ISSUE acceptance criterion: forcing the k-way bin open must keep
    /// the numeric work bit-identical on every dataset and show a modeled
    /// merge-phase improvement on at least one heavy-row dataset.
    #[test]
    fn kway_suite_improves_the_merge_phase_on_a_heavy_dataset() {
        let report = run_suite(Suite::Kway, &default_settings(), |_| {});
        assert_eq!(report.cases.len(), 6);
        let merge_cycles = |case: &CaseReport| -> f64 {
            case.metrics
                .phases
                .iter()
                .filter(|p| p.name.ends_with("-merge"))
                .map(|p| p.makespan_cycles)
                .sum()
        };
        let mut improved = Vec::new();
        for dataset in ["harbor", "emailEnron", "patents_main"] {
            let base = report
                .case(&format!("{dataset}@tiny/Block-Reorganizer/titan-xp"))
                .unwrap_or_else(|| panic!("missing baseline case for {dataset}"));
            let kway = report
                .case(&format!("{dataset}@tiny/kway-merge/titan-xp"))
                .unwrap_or_else(|| panic!("missing kway case for {dataset}"));
            // Bin membership redirects rows between merge kernels; the
            // numeric work and result must not change.
            assert_eq!(base.metrics.flops, kway.metrics.flops, "{dataset}");
            assert_eq!(
                base.metrics.result_nnz, kway.metrics.result_nnz,
                "{dataset}"
            );
            assert!(
                kway.metrics.phases.iter().any(|p| p.name == "kway-merge"),
                "{dataset}: forced thresholds must route rows to the kway kernel"
            );
            if merge_cycles(kway) < merge_cycles(base) {
                improved.push(dataset);
            }
        }
        assert!(
            !improved.is_empty(),
            "no dataset improved its merge phase under the kway bin"
        );
    }

    /// The kway report is byte-identical across thread counts, like the
    /// quick suite — the contract the bench_gate kway step byte-compares.
    #[test]
    fn kway_suite_is_byte_identical_at_any_thread_count() {
        let mut seq = run_suite_threaded(Suite::Kway, 1, &default_settings(), |_| {});
        let mut par4 = run_suite_threaded(Suite::Kway, 4, &default_settings(), |_| {});
        seq.host = None;
        par4.host = None;
        assert_eq!(seq.to_json(), par4.to_json());
    }

    /// The estplan report is byte-identical across thread counts and
    /// reruns, like the quick suite — the determinism contract the
    /// bench_gate estimator step byte-compares.
    #[test]
    fn estplan_suite_is_byte_identical_at_any_thread_count() {
        let mut seq = run_suite_threaded(Suite::Estplan, 1, &default_settings(), |_| {});
        let mut par4 = run_suite_threaded(Suite::Estplan, 4, &default_settings(), |_| {});
        seq.host = None;
        par4.host = None;
        assert_eq!(seq.to_json(), par4.to_json());
    }

    /// ISSUE acceptance criterion: every reorder strategy keeps the
    /// numeric work bit-identical on every dataset, and at least one
    /// strategy improves LBI or L2 hit rate over `reorder-none` on at
    /// least one dataset.
    #[test]
    fn reorder_suite_improves_lbi_or_l2_somewhere_without_changing_results() {
        let report = run_suite(Suite::Reorder, &default_settings(), |_| {});
        assert_eq!(report.cases.len(), 12);
        let mut improved = Vec::new();
        for dataset in ["harbor", "emailEnron", "patents_main"] {
            let base = report
                .case(&format!("{dataset}@tiny/reorder-none/titan-xp"))
                .unwrap_or_else(|| panic!("missing baseline case for {dataset}"));
            for flavor in ["reorder-degree", "reorder-rcm", "reorder-cluster"] {
                let reordered = report
                    .case(&format!("{dataset}@tiny/{flavor}/titan-xp"))
                    .unwrap_or_else(|| panic!("missing {flavor} case for {dataset}"));
                // Reordering only permutes the launch schedule; the
                // numeric work and the result must not change.
                assert_eq!(
                    base.metrics.flops, reordered.metrics.flops,
                    "{dataset}/{flavor}"
                );
                assert_eq!(
                    base.metrics.result_nnz, reordered.metrics.result_nnz,
                    "{dataset}/{flavor}"
                );
                if reordered.metrics.lbi < base.metrics.lbi
                    || reordered.metrics.l2_hit_rate > base.metrics.l2_hit_rate
                {
                    improved.push(format!("{dataset}/{flavor}"));
                }
            }
        }
        assert!(
            !improved.is_empty(),
            "no strategy improved LBI or L2 hit rate over reorder-none"
        );
    }

    /// The reorder report is byte-identical across thread counts, like the
    /// quick suite — the contract the bench_gate reorder step byte-compares.
    #[test]
    fn reorder_suite_is_byte_identical_at_any_thread_count() {
        let mut seq = run_suite_threaded(Suite::Reorder, 1, &default_settings(), |_| {});
        let mut par4 = run_suite_threaded(Suite::Reorder, 4, &default_settings(), |_| {});
        seq.host = None;
        par4.host = None;
        assert_eq!(seq.to_json(), par4.to_json());
    }

    /// ISSUE acceptance criterion: the chain suite runs all four canonical
    /// workloads per dataset; the Galerkin chain shows at least one
    /// plan-cache hit (the refresh products) while iterated squaring
    /// misses on every step (structure churn).
    #[test]
    fn chain_suite_caches_galerkin_and_churns_squaring() {
        let report = run_suite(Suite::Chain, &default_settings(), |_| {});
        assert!(report.cases.is_empty(), "the chain suite has no grid cases");
        let chain = report.chain.as_ref().expect("chain suite records chains");
        assert_eq!(chain.cases.len(), 12, "3 datasets x 4 canonical workloads");
        for dataset in ["harbor", "emailEnron", "patents_main"] {
            let case = |workload: &str| {
                let id = format!("{dataset}@tiny/{workload}/titan-xp");
                chain
                    .cases
                    .iter()
                    .find(|c| c.id == id)
                    .unwrap_or_else(|| panic!("missing chain case {id}"))
            };
            let galerkin = case("galerkin");
            assert_eq!(galerkin.steps.len(), 4);
            let hits: Vec<bool> = galerkin.steps.iter().map(|s| s.cache_hit).collect();
            assert_eq!(
                hits,
                [false, false, true, true],
                "{dataset}: the refresh products reuse the restrict/coarsen plans"
            );
            assert_eq!(galerkin.cache_hits, 2);
            assert_eq!(galerkin.structure_churn, 2);

            let square = case("square:3");
            assert_eq!(square.steps.len(), 3);
            assert_eq!(square.cache_hits, 0, "{dataset}: squaring churns structure");
            assert_eq!(square.cache_misses, 3);
            assert_eq!(square.structure_churn, 3);

            assert_eq!(case("triangle").steps.len(), 1);
            assert_eq!(case("markov:3,0.001").steps.len(), 3);
            for c in [galerkin, square] {
                assert!(c.result_nnz > 0, "{}: empty result", c.id);
                assert!(c.total_ms > 0.0, "{}: no simulated time", c.id);
                assert!(
                    c.steps.iter().all(|s| s.total_ms > 0.0),
                    "{}: a step reports no makespan",
                    c.id
                );
            }
        }
    }

    /// The chain report is byte-identical across thread counts, like the
    /// quick suite — the contract the bench_gate chain step byte-compares.
    #[test]
    fn chain_suite_is_byte_identical_at_any_thread_count() {
        let mut seq = run_suite_threaded(Suite::Chain, 1, &default_settings(), |_| {});
        let mut par4 = run_suite_threaded(Suite::Chain, 4, &default_settings(), |_| {});
        seq.host = None;
        par4.host = None;
        assert_eq!(seq.to_json(), par4.to_json());
    }
}
