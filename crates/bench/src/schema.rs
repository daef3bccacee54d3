//! The versioned `BENCH_<suite>.json` report schema.
//!
//! A report is a snapshot of the simulator's performance counters for a
//! fixed grid of (dataset × method × device) cases plus one service batch,
//! annotated with enough provenance (git SHA, timing-model version, device
//! and reorganizer-config fingerprints) for a later comparison to tell a
//! code regression apart from an intentional model change.
//!
//! Every tracked metric is a pure function of simulated execution — cycle
//! counts, counter-derived rates, and simulated milliseconds — never wall
//! clock, so two runs of the same commit produce byte-identical files
//! (`serde_json`'s writer preserves map insertion order and prints floats
//! with shortest-round-trip text).

use serde::{Deserialize, Serialize};

/// Current schema version. Bump on any breaking change to the report
/// layout; `compare` refuses to diff reports with mismatched versions.
pub const SCHEMA_VERSION: u32 = 1;

/// One complete benchmark report — the unit written to `BENCH_<suite>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Layout version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Suite name (`quick`, `full`, `scaling`).
    pub suite: String,
    /// `git rev-parse HEAD` at run time (`unknown` outside a checkout).
    /// Provenance only — excluded from comparison.
    pub git_sha: String,
    /// [`br_gpu_sim::MODEL_VERSION`] of the simulator that produced the
    /// numbers. A mismatch between baseline and current means cycle
    /// deltas are expected; `compare` reports it as an error.
    pub model_version: u32,
    /// Fingerprint of the `ReorganizerConfig` used for reorganizer cases
    /// (`br_service::cache::config_fingerprint`).
    pub config_fingerprint: u64,
    /// Per-case measurements, in suite definition order.
    pub cases: Vec<CaseReport>,
    /// Plan-cache service batch measurements.
    pub service: ServiceSection,
    /// Estimation-based planning measurements (`estplan` suite): one entry
    /// per plan-building case, recording the planner's decisions and its
    /// modeled cold-plan cost. `None` for suites that don't build plans
    /// directly and in reports written before the section existed — legacy
    /// reports parse with the key absent.
    pub plan: Option<PlanSection>,
    /// Chained-workload measurements (`chain` suite): one entry per
    /// (dataset × canonical workload) chain, each executed step by step
    /// through the plan-cached service path against a fresh per-case
    /// cache — so every hit/miss is intra-chain and a pure function of
    /// the program. `None` for every other suite and in reports written
    /// before chains existed — legacy reports parse with the key absent.
    pub chain: Option<ChainSection>,
    /// Host-side wall-clock measurements of the run itself (worker count,
    /// elapsed time, throughput). `None` in reports written before the
    /// section existed and in runs invoked with `--no-host` (byte-compare
    /// workflows). **Not a tracked metric**: wall clock varies run to run,
    /// so [`mod@crate::compare`] ignores this section entirely.
    pub host: Option<HostSection>,
}

/// One (dataset × method × device) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseReport {
    /// Stable identity: `<dataset>@<scale>/<method>/<device-slug>` —
    /// comparison matches baseline and current cases by this string.
    pub id: String,
    /// Dataset name from the Table II registry.
    pub dataset: String,
    /// Scale label (`tiny`, `default`, `full`, or a divisor).
    pub scale: String,
    /// Method display name (Figure 8 legend spelling).
    pub method: String,
    /// Device marketing name.
    pub device: String,
    /// Fingerprint of the full [`br_gpu_sim::device::DeviceConfig`].
    pub device_fingerprint: u64,
    /// The tracked performance counters.
    pub metrics: CaseMetrics,
}

/// Deterministic performance counters for one case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseMetrics {
    /// Total simulated makespan over all kernels, in core cycles — the
    /// primary regression-gate metric.
    pub makespan_cycles: f64,
    /// Per-phase makespan breakdown, in kernel launch order.
    pub phases: Vec<PhaseMetrics>,
    /// Total simulated time (kernels + preprocessing) in ms.
    pub total_ms: f64,
    /// Worst per-kernel Load Balancing Index (Equation 3; 1.0 = balanced).
    pub lbi: f64,
    /// Aggregate L2 hit rate over all kernels (hits / accesses).
    pub l2_hit_rate: f64,
    /// Aggregate sync-stall ratio (stall cycles / busy cycles).
    pub sync_stall_ratio: f64,
    /// Achieved GFLOPS (Figure 9 metric).
    pub gflops: f64,
    /// FLOP count (`2·nnz(Ĉ)`) — a workload-identity tripwire: it must be
    /// byte-equal between baseline and current.
    pub flops: u64,
    /// `nnz(C)` of the computed result — a correctness tripwire.
    pub result_nnz: u64,
}

/// One kernel phase's share of the makespan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseMetrics {
    /// Kernel/phase name as emitted by the method (e.g. `expansion`,
    /// `merge`, `precalc`).
    pub name: String,
    /// Simulated makespan of this phase in core cycles.
    pub makespan_cycles: f64,
    /// Load Balancing Index of this phase.
    pub lbi: f64,
    /// L2 hit rate of this phase.
    pub l2_hit_rate: f64,
    /// Sync-stall ratio of this phase.
    pub sync_stall_ratio: f64,
}

/// Plan-cache behaviour of the suite's service batch (`br-service`
/// worker pool running repeated jobs). Only counter-derived values are
/// recorded; queue latencies are wall clock and therefore excluded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSection {
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs that failed (must be 0 in a healthy run).
    pub failures: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache evictions.
    pub cache_evictions: u64,
    /// hits / (hits + misses).
    pub cache_hit_rate: f64,
}

/// Estimation-based planning measurements: the `estplan` suite builds one
/// plan per (dataset, flavor) grid point — exact precalculation vs the
/// sampling estimator — and records what the planner decided plus its
/// modeled host cost. Every field is a pure function of the operands'
/// structure and the estimator configuration, so the section byte-compares
/// across runs and thread counts; `compare` gates the `ops` column with
/// [`crate::compare::Thresholds::plan_ops_pct`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSection {
    /// [`EstimatorConfig::fingerprint`](br_spgemm::estimate::EstimatorConfig)
    /// of the estimator setting in effect (0 when estimation is disabled).
    /// Baseline/current skew here is an identity error, like
    /// `config_fingerprint`.
    pub estimator_fingerprint: u64,
    /// Per-case planning records, in suite definition order.
    pub cases: Vec<PlanCaseReport>,
}

/// One plan build's record in the `estplan` suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanCaseReport {
    /// Case identity, same scheme as [`CaseReport::id`].
    pub id: String,
    /// How the plan's workloads were obtained: `exact`, `estimate`, or
    /// `fallback` (estimation attempted, band too wide, exact pass added).
    pub mode: String,
    /// Expansion method the planner chose (`reorganized`, `row-product`,
    /// `outer-product`, `esc`, `hash`).
    pub method: String,
    /// Modeled host operations of the plan build — the deterministic
    /// cold-plan latency metric, pinned by the estplan baseline.
    pub ops: u64,
    /// Columns of `A` the estimator sampled (0 on the exact path).
    pub sampled_cols: u64,
    /// Relative confidence-band half-width, in ppm (0 on the exact path).
    pub rel_band_ppm: u64,
}

/// Chained-workload measurements: the `chain` suite runs every canonical
/// [`br_workloads::Workload`] program over each grid dataset and records
/// the per-step plan-cache behaviour plus the simulated per-step makespan.
/// Every field is a pure function of the operands and the program, so the
/// section byte-compares across runs and thread counts; `compare` gates
/// the per-step timings like case metrics and treats any change in the
/// hit/miss/structure pattern as an identity error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainSection {
    /// Per-chain records, in suite definition order.
    pub cases: Vec<ChainCaseReport>,
}

/// One chain's record in the `chain` suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainCaseReport {
    /// Case identity: `<dataset>@<scale>/<workload-spec>/<device-slug>`.
    pub id: String,
    /// Dataset name from the Table II registry.
    pub dataset: String,
    /// Workload spec (`square:3`, `triangle`, `markov:3,0.001`,
    /// `galerkin`).
    pub workload: String,
    /// Per-step roll-up, in program order.
    pub steps: Vec<ChainStepReport>,
    /// Steps whose plan came from the (per-case) cache.
    pub cache_hits: u64,
    /// Steps that built a fresh plan.
    pub cache_misses: u64,
    /// Steps whose operand structures were first seen within the chain.
    pub structure_churn: u64,
    /// Summed simulated latency across all steps, ms.
    pub total_ms: f64,
    /// `nnz` of the chain's final output — a correctness tripwire.
    pub result_nnz: u64,
}

/// One chain step's record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainStepReport {
    /// Step label from the program (`square`, `restrict`, …).
    pub label: String,
    /// Whether this step's plan came from the cache.
    pub cache_hit: bool,
    /// Whether the step's operand structures were first seen within the
    /// chain.
    pub fresh_structure: bool,
    /// Execution method the plan selected (`reorganized`, `hash`, …).
    pub method: String,
    /// Simulated end-to-end latency of the step, ms — the per-step
    /// makespan metric `compare` gates.
    pub total_ms: f64,
    /// `nnz` of the raw product, before post-ops.
    pub product_nnz: u64,
    /// `nnz` of the step output, after post-ops.
    pub output_nnz: u64,
    /// Fill-in of the multiply: `product_nnz * 1000 / nnz(A)`.
    pub fill_in_permille: u64,
}

/// Wall-clock diagnostics of the benchmark run itself — the only section
/// of the report that is *not* deterministic. It exists so perf work on the
/// harness is visible (`bench run` prints it), while every comparison and
/// byte-identity check excludes it: `compare` never reads it, and
/// `bench run --no-host` omits it from the file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSection {
    /// Host worker threads the run was configured with.
    pub threads: u64,
    /// Wall-clock duration of the whole suite, ms.
    pub wall_ms: f64,
    /// Grid cases completed per wall-clock second.
    pub cases_per_sec: f64,
    /// Service-batch jobs completed per wall-clock second.
    pub jobs_per_sec: f64,
    /// Adaptive-engine row-bin census over the suite's distinct problems.
    /// `None` in reports written before the adaptive engine existed —
    /// legacy reports parse with the field absent. Like the rest of the
    /// `host` section, never compared.
    pub bins: Option<BinHostStats>,
    /// Size of the process-wide observability registry at the end of the
    /// run (`br_obs::global().totals()`). `None` in reports written before
    /// the obs subsystem existed. Informational only — sample counts vary
    /// with what else ran in the process, so this lives under `host` and
    /// is never compared.
    pub obs: Option<ObsHostStats>,
}

/// Snapshot of the observability registry's size: how many metric
/// families, label-distinct samples, and span events the run recorded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsHostStats {
    /// Registered metric families.
    pub families: u64,
    /// Label-distinct instruments across all families.
    pub samples: u64,
    /// Span enter/exit events: two per completed span.
    pub span_events: u64,
}

/// Per-bin census of the adaptive host merge engine: how the suite's
/// distinct (dataset, scale) problems' rows and intermediate products
/// split across the tiny/medium/heavy/kway bins under the thresholds in
/// effect. Structure-derived and deterministic, but stored under `host`
/// because it describes the host numeric path, not the simulated device.
///
/// The kway fields and the runs-per-row histogram are `None` in reports
/// written before the k-way tournament bin existed; legacy reports parse
/// with them absent, and `compare` never reads this section either way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinHostStats {
    /// `tiny_max` threshold the census used.
    pub tiny_max: u64,
    /// `heavy_min` threshold the census used.
    pub heavy_min: u64,
    /// Rows handled by the insertion-sorted small buffer.
    pub tiny_rows: u64,
    /// Rows handled by the open-addressing hash table.
    pub medium_rows: u64,
    /// Rows handled by the dense accumulator.
    pub heavy_rows: u64,
    /// Intermediate products expanded by tiny rows.
    pub tiny_products: u64,
    /// Intermediate products expanded by medium rows.
    pub medium_products: u64,
    /// Intermediate products expanded by heavy rows.
    pub heavy_products: u64,
    /// `kway_min` threshold the census used (`u64::MAX` = bin disabled).
    pub kway_min: Option<u64>,
    /// Rows in the kway bin: the simulated k-way tournament merges them,
    /// the host's dense accumulator computes them.
    pub kway_rows: Option<u64>,
    /// Intermediate products expanded by kway rows.
    pub kway_products: Option<u64>,
    /// Histogram of runs (A-row nonzeros) per *kway* row in log2 buckets:
    /// `runs_per_row[i]` counts kway rows with `runs in [2^i, 2^(i+1))`.
    /// Sizes the tournament trees the simulated k-way kernel builds.
    pub runs_per_row: Option<Vec<u64>>,
}

impl BenchReport {
    /// Serializes to the canonical on-disk form (pretty, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serialization cannot fail");
        s.push('\n');
        s
    }

    /// Parses a report and validates its schema version.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let report: BenchReport =
            serde_json::from_str(text).map_err(|e| format!("malformed report: {e}"))?;
        if report.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema version {} unsupported (this binary reads version {})",
                report.schema_version, SCHEMA_VERSION
            ));
        }
        Ok(report)
    }

    /// Looks up a case by id.
    pub fn case(&self, id: &str) -> Option<&CaseReport> {
        self.cases.iter().find(|c| c.id == id)
    }
}

/// Best-effort `git rev-parse HEAD`; honors `GITHUB_SHA` when set (CI
/// checkouts can be shallow or detached), else `unknown`.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            suite: "quick".to_string(),
            git_sha: "deadbeef".to_string(),
            model_version: 1,
            config_fingerprint: 42,
            cases: vec![CaseReport {
                id: "wiki-Vote@tiny/row-product/titan-xp".to_string(),
                dataset: "wiki-Vote".to_string(),
                scale: "tiny".to_string(),
                method: "row-product".to_string(),
                device: "NVIDIA TITAN Xp".to_string(),
                device_fingerprint: 7,
                metrics: CaseMetrics {
                    makespan_cycles: 123456.0,
                    phases: vec![PhaseMetrics {
                        name: "expansion".to_string(),
                        makespan_cycles: 100000.0,
                        lbi: 1.25,
                        l2_hit_rate: 0.5,
                        sync_stall_ratio: 0.01,
                    }],
                    total_ms: 0.25,
                    lbi: 1.5,
                    l2_hit_rate: 0.625,
                    sync_stall_ratio: 0.02,
                    gflops: 1.75,
                    flops: 1000,
                    result_nnz: 500,
                },
            }],
            service: ServiceSection {
                jobs: 8,
                failures: 0,
                cache_hits: 6,
                cache_misses: 2,
                cache_evictions: 0,
                cache_hit_rate: 0.75,
            },
            plan: None,
            chain: None,
            host: Some(HostSection {
                threads: 4,
                wall_ms: 1234.5,
                cases_per_sec: 2.5,
                jobs_per_sec: 10.0,
                bins: Some(BinHostStats {
                    tiny_max: 16,
                    heavy_min: 2048,
                    tiny_rows: 100,
                    medium_rows: 50,
                    heavy_rows: 3,
                    tiny_products: 800,
                    medium_products: 9000,
                    heavy_products: 70000,
                    kway_min: Some(u64::MAX),
                    kway_rows: Some(0),
                    kway_products: Some(0),
                    runs_per_row: Some(vec![]),
                }),
                obs: Some(ObsHostStats {
                    families: 12,
                    samples: 40,
                    span_events: 256,
                }),
            }),
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let report = sample();
        let text = report.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text, "re-serialization is stable");
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn legacy_report_without_host_section_still_parses() {
        // Reports written before the `host` section existed (e.g. the
        // checked-in baselines) have no such key: it must read back as
        // `None` under the same schema version, not error.
        let mut report = sample();
        report.host = None;
        let text = report.to_json();
        let legacy = text.replace(",\n  \"host\": null", "");
        assert_ne!(legacy, text, "the host key was present to remove");
        let back = BenchReport::from_json(&legacy).expect("legacy layout parses");
        assert_eq!(back.host, None);
        assert_eq!(back.cases, report.cases);
    }

    #[test]
    fn host_section_roundtrips_when_present() {
        let report = sample();
        assert!(report.host.is_some());
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.host, report.host);
    }

    #[test]
    fn host_section_without_bins_key_parses_as_none() {
        // Reports written before the adaptive engine existed have a host
        // section but no `bins` key: it must read back as `None`.
        let mut report = sample();
        if let Some(host) = &mut report.host {
            host.bins = None;
        }
        let with_null = report.to_json();
        let legacy = with_null.replace(",\n    \"bins\": null", "");
        assert_ne!(legacy, with_null, "the bins key was present to remove");
        let back = BenchReport::from_json(&legacy).expect("pre-bins host section parses");
        assert_eq!(back.host.as_ref().unwrap().bins, None);
        assert_eq!(back.host.as_ref().unwrap().wall_ms, 1234.5);
    }

    #[test]
    fn bin_stats_without_kway_fields_parse_as_none() {
        // Reports written before the k-way tournament bin existed carry a
        // three-bin census with no kway keys: they must read back as
        // `None`, not error, and the legacy fields must survive.
        let mut report = sample();
        if let Some(bins) = report.host.as_mut().and_then(|h| h.bins.as_mut()) {
            bins.kway_min = None;
            bins.kway_rows = None;
            bins.kway_products = None;
            bins.runs_per_row = None;
        }
        let with_nulls = report.to_json();
        let legacy = with_nulls
            .replace(",\n      \"kway_min\": null", "")
            .replace(",\n      \"kway_rows\": null", "")
            .replace(",\n      \"kway_products\": null", "")
            .replace(",\n      \"runs_per_row\": null", "");
        assert_ne!(legacy, with_nulls, "the kway keys were present to remove");
        let back = BenchReport::from_json(&legacy).expect("pre-kway census parses");
        let bins = back.host.as_ref().unwrap().bins.as_ref().unwrap();
        assert_eq!(bins.kway_min, None);
        assert_eq!(bins.kway_rows, None);
        assert_eq!(bins.kway_products, None);
        assert_eq!(bins.runs_per_row, None);
        assert_eq!(bins.heavy_products, 70000, "legacy fields survive");
    }

    #[test]
    fn host_section_without_obs_key_parses_as_none() {
        // Reports written before the obs subsystem existed have a host
        // section but no `obs` key: it must read back as `None`.
        let mut report = sample();
        if let Some(host) = &mut report.host {
            host.obs = None;
        }
        let with_null = report.to_json();
        let legacy = with_null.replace(",\n    \"obs\": null", "");
        assert_ne!(legacy, with_null, "the obs key was present to remove");
        let back = BenchReport::from_json(&legacy).expect("pre-obs host section parses");
        assert_eq!(back.host.as_ref().unwrap().obs, None);
        assert_eq!(back.host.as_ref().unwrap().wall_ms, 1234.5);
    }

    #[test]
    fn legacy_report_without_plan_section_still_parses() {
        // Reports written before estimation-based planning existed (e.g.
        // the checked-in quick baseline) have no `plan` key: it must read
        // back as `None` under the same schema version, not error.
        let report = sample();
        let text = report.to_json();
        let legacy = text.replace(",\n  \"plan\": null", "");
        assert_ne!(legacy, text, "the plan key was present to remove");
        let back = BenchReport::from_json(&legacy).expect("legacy layout parses");
        assert_eq!(back.plan, None);
        assert_eq!(back.cases, report.cases);
    }

    #[test]
    fn plan_section_roundtrips_when_present() {
        let mut report = sample();
        report.plan = Some(PlanSection {
            estimator_fingerprint: 0xfeed,
            cases: vec![PlanCaseReport {
                id: "harbor@tiny/plan-estimate/titan-xp".to_string(),
                mode: "estimate".to_string(),
                method: "reorganized".to_string(),
                ops: 1234,
                sampled_cols: 64,
                rel_band_ppm: 104_000,
            }],
        });
        let text = report.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back.plan, report.plan);
        assert_eq!(back.to_json(), text, "re-serialization is stable");
    }

    #[test]
    fn legacy_report_without_chain_section_still_parses() {
        // Reports written before chained workloads existed (e.g. the
        // checked-in quick baseline) have no `chain` key: it must read
        // back as `None` under the same schema version, not error.
        let report = sample();
        let text = report.to_json();
        let legacy = text.replace(",\n  \"chain\": null", "");
        assert_ne!(legacy, text, "the chain key was present to remove");
        let back = BenchReport::from_json(&legacy).expect("legacy layout parses");
        assert_eq!(back.chain, None);
        assert_eq!(back.cases, report.cases);
    }

    #[test]
    fn chain_section_roundtrips_when_present() {
        let mut report = sample();
        report.chain = Some(ChainSection {
            cases: vec![ChainCaseReport {
                id: "harbor@tiny/galerkin/titan-xp".to_string(),
                dataset: "harbor".to_string(),
                workload: "galerkin".to_string(),
                steps: vec![ChainStepReport {
                    label: "restrict".to_string(),
                    cache_hit: false,
                    fresh_structure: true,
                    method: "reorganized".to_string(),
                    total_ms: 0.5,
                    product_nnz: 900,
                    output_nnz: 900,
                    fill_in_permille: 1500,
                }],
                cache_hits: 0,
                cache_misses: 1,
                structure_churn: 1,
                total_ms: 0.5,
                result_nnz: 900,
            }],
        });
        let text = report.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back.chain, report.chain);
        assert_eq!(back.to_json(), text, "re-serialization is stable");
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut report = sample();
        report.schema_version = SCHEMA_VERSION + 1;
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(BenchReport::from_json("{").is_err());
        assert!(BenchReport::from_json("[1,2]").is_err());
    }

    #[test]
    fn case_lookup_by_id() {
        let report = sample();
        assert!(report.case("wiki-Vote@tiny/row-product/titan-xp").is_some());
        assert!(report.case("nope").is_none());
    }
}
