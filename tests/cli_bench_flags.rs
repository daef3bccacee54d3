//! CLI contract for the plan-shaping `bench run` flags: what `--no-estimate`
//! and `--est-samples` change in the report. Merge-bin thresholds are the
//! planner's alone, so `--bins` is not a flag.

use std::process::Command;

use blockreorg::bench::schema::BenchReport;
use blockreorg::spgemm::estimate::EstimatorConfig;

/// Runs `bench run --no-host` with `flags`, returning the report.
fn bench_run(tag: &str, flags: &[&str]) -> BenchReport {
    let dir = std::env::temp_dir().join(format!("cli-bench-flags-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("report.json");
    let run = Command::new(env!("CARGO_BIN_EXE_blockreorg-cli"))
        .args(["bench", "run", "--no-host"])
        .args(flags)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("CLI binary runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let report = BenchReport::from_json(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    report
}

#[test]
fn no_estimate_plans_every_estplan_case_exactly() {
    let report = bench_run("no-estimate", &["--suite", "estplan", "--no-estimate"]);
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
    let report = bench_run(
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
fn bins_is_not_a_bench_run_flag() {
    let run = Command::new(env!("CARGO_BIN_EXE_blockreorg-cli"))
        .args(["bench", "run", "--suite", "quick", "--bins", "4,512"])
        .output()
        .expect("CLI binary runs");
    assert_eq!(run.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains(r#"unknown flag "--bins" in bench run mode"#),
        "{stderr}"
    );
}
