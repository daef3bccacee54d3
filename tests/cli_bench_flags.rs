//! CLI contract for the plan-shaping `bench run` flags: what `--no-estimate`,
//! `--est-samples` and `--bins` change in the report and the metrics dump.

use std::process::Command;

use blockreorg::bench::schema::BenchReport;
use blockreorg::spgemm::estimate::EstimatorConfig;

/// Runs `bench run --no-host` with `flags`, returning the report and the
/// strict Prometheus dump.
fn bench_run(tag: &str, flags: &[&str]) -> (BenchReport, String) {
    let dir = std::env::temp_dir().join(format!("cli-bench-flags-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("report.json");
    let metrics = dir.join("metrics.prom");
    let run = Command::new(env!("CARGO_BIN_EXE_blockreorg-cli"))
        .args(["bench", "run", "--no-host"])
        .args(flags)
        .arg("--out")
        .arg(&out)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("CLI binary runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let report = BenchReport::from_json(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let prom = std::fs::read_to_string(&metrics).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (report, prom)
}

#[test]
fn no_estimate_plans_every_estplan_case_exactly() {
    let (report, _) = bench_run("no-estimate", &["--suite", "estplan", "--no-estimate"]);
    let plan = report.plan.expect("estplan records a plan section");
    assert_eq!(plan.estimator_fingerprint, 0);
    assert_eq!(plan.cases.len(), 6);
    for case in &plan.cases {
        assert_eq!(case.mode, "exact", "{}", case.id);
        assert_eq!(case.sampled_cols, 0, "{}", case.id);
    }
}

#[test]
fn est_samples_sets_the_estimator_and_caps_the_sample() {
    let (report, _) = bench_run(
        "est-samples",
        &["--suite", "estplan", "--est-samples", "32"],
    );
    let plan = report.plan.expect("estplan records a plan section");
    let expected = EstimatorConfig {
        samples: 32,
        tolerance: 1.0,
    };
    assert_eq!(plan.estimator_fingerprint, expected.fingerprint());
    assert!(plan.cases.iter().any(|c| c.sampled_cols == 32), "{plan:?}");
    for case in &plan.cases {
        assert!(
            case.sampled_cols <= 32,
            "{}: {}",
            case.id,
            case.sampled_cols
        );
    }
}

#[test]
fn bins_with_a_kway_field_route_rows_to_the_kway_kernel() {
    let (default_report, _) = bench_run("bins-default", &["--suite", "quick"]);
    let (report, prom) = bench_run("bins-kway", &["--suite", "quick", "--bins", "4,32,64"]);
    let kway_rows: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("br_spgemm_rows_merged_total{bin=\"kway\"} "))
        .expect("the kway row counter is exported")
        .parse()
        .unwrap();
    assert_eq!(kway_rows, 7410);
    let reorganizer: Vec<_> = report
        .cases
        .iter()
        .filter(|c| c.id.contains("/Block-Reorganizer/"))
        .collect();
    assert_eq!(reorganizer.len(), 3);
    for case in reorganizer {
        assert!(
            case.metrics.phases.iter().any(|p| p.name == "kway-merge"),
            "{}: no kway-merge phase",
            case.id
        );
        let before = default_report.case(&case.id).unwrap();
        assert!(
            before.metrics.phases.iter().all(|p| p.name != "kway-merge"),
            "{}",
            case.id
        );
    }
    let harbor = "harbor@tiny/Block-Reorganizer/titan-xp";
    let cycles = |r: &BenchReport| r.case(harbor).unwrap().metrics.makespan_cycles.round();
    assert_eq!(cycles(&default_report), 622_890.0);
    assert_eq!(cycles(&report), 195_258.0);
}
