//! CLI contract: what `blockreorg-cli` prints and how it exits.
//!
//! The digests pin the exact stdout of one run per mode, so a change to
//! how the CLI parses its flags or loads its operands that moves a single
//! byte of a report fails here. They were taken before the operand flags
//! moved onto the job-spec grammar; only the `--help` digest moved since:
//! when the batch paragraph gained `chain=`, when the `--reorder`
//! paragraph stopped saying results are un-permuted, when `bench run`
//! lost its `--bins` flag and paragraph, and when `bench compare` went
//! with its synopsis and the sentences about its tolerances. Batch output
//! drops its three wall-clock lines (`ms wall`, `mean wait`, `busy`); the
//! second batch file repeats one structure five times on one worker, so
//! its fourth and fifth executions compute values only, and its digest
//! was taken before that pass existed.
//!
//! The exit tests pin what the job-spec grammar bounds (`rmat=` scale and
//! edge factor), that a bad `--lane` is refused before connecting, what a
//! closed output pipe leaves the exit code at, what malformed Matrix
//! Market files exit with, and how a failed chain words its error.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_blockreorg-cli"))
        .args(args)
        .output()
        .expect("CLI binary runs")
}

/// A scratch directory of this test process, holding `files`.
fn scratch(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli-contract-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap();
    }
    dir
}

/// Runs `args`, requires exit 0, and returns stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = cli(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn assert_digest(args: &[&str], stdout: &str, want: u64) {
    let got = fnv1a(stdout.as_bytes());
    assert_eq!(got, want, "{args:?}: digest {got:#018x}, stdout:\n{stdout}");
}

#[test]
fn single_multiply_reports_hold() {
    for (args, want) in [
        (
            &["--rmat", "8,4", "--method", "all", "--verify"][..],
            0xbe5d_d7ee_0c21_cf98,
        ),
        (
            &[
                "--dataset",
                "harbor",
                "--scale",
                "64",
                "--method",
                "reorganizer",
                "--report",
            ][..],
            0xa9a0_3086_de22_48ef,
        ),
    ] {
        assert_digest(args, &stdout_of(args), want);
    }
}

#[test]
fn chain_reports_hold() {
    let dir = scratch(
        "chain",
        &[(
            "cube.chain",
            "chain cube-pruned\ninput A\nstep sq = A * A | prune 1e-3\nstep cube = sq * A | normalize\n",
        )],
    );
    let spec = dir.join("cube.chain");
    let spec = spec.to_str().unwrap();
    for (args, want) in [
        (
            &["chain", "--workload", "galerkin", "--rmat", "8,6"][..],
            0x10fe_863e_e5ca_89c4,
        ),
        (
            &[
                "chain",
                "--spec-file",
                spec,
                "--dataset",
                "harbor",
                "--scale",
                "64",
            ][..],
            0xcf43_491b_342b_51d5,
        ),
    ] {
        assert_digest(args, &stdout_of(args), want);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_chain_words_its_error_once() {
    let dir = scratch(
        "chain-fail",
        &[
            (
                "tall.mtx",
                "%%MatrixMarket matrix coordinate real general\n3 2 2\n1 1 1.0\n3 2 2.0\n",
            ),
            (
                "mask.chain",
                "chain masked\ninput A\nstep s = A' * A | mask A\n",
            ),
        ],
    );
    let (spec, input) = (dir.join("mask.chain"), dir.join("tall.mtx"));
    let out = cli(&[
        "chain",
        "--spec-file",
        spec.to_str().unwrap(),
        "--input",
        input.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.matches("chain failed:").count(), 1, "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_report_holds_without_its_wall_clock_lines() {
    let dir = scratch(
        "batch",
        &[
            (
                "jobs.txt",
                "# two lines, one repeated\nrmat=8,4 seed=3 repeat=2\ndataset=harbor scale=64\n",
            ),
            ("repeat.txt", "rmat=8,4 seed=3 repeat=5\n"),
        ],
    );
    for (file, want) in [
        ("jobs.txt", 0xbb41_f7bc_e622_7ed7),
        ("repeat.txt", 0x4e51_8ebe_4489_4f01),
    ] {
        let jobs = dir.join(file);
        let args = ["batch", "--jobs", jobs.to_str().unwrap(), "--workers", "1"];
        let stdout: String = stdout_of(&args)
            .lines()
            .filter(|l| {
                !["ms wall", "mean wait", "busy"]
                    .iter()
                    .any(|w| l.contains(w))
            })
            .map(|l| format!("{l}\n"))
            .collect();
        // The job-file path is part of the header line; pin it out.
        let stdout = stdout.replace(jobs.to_str().unwrap(), "<jobs>");
        assert_digest(&args, &stdout, want);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_text_holds() {
    assert_digest(&["--help"], &stdout_of(&["--help"]), 0x9c0a_9b91_d382_83f5);
}

#[test]
fn rmat_bounds_exit_2_naming_the_bound() {
    for (rmat, bound) in [
        ("1,8", "exceeds 2^scale = 2"),
        ("40,1", "exceeds 31"),
        ("64,1", "exceeds 31"),
        // Within the parser's bounds, but every cell of a 64 × 64 grid:
        // the generator's candidate budget runs out.
        ("6,64", "after 1048576 candidates"),
    ] {
        for args in [
            &["--rmat", rmat][..],
            &["chain", "--workload", "square:2", "--rmat", rmat][..],
        ] {
            let out = cli(args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains(bound), "{args:?}: {stderr}");
        }
    }
}

/// A bad `--lane` is a usage error read with the other flags, so the
/// client exits before it connects: nothing listens on port 1.
#[test]
fn an_unknown_lane_exits_2_before_connecting() {
    let out = cli(&[
        "client",
        "--connect",
        "127.0.0.1:1",
        "--spec",
        "rmat=6,4",
        "--lane",
        "bogus",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(r#"unknown lane "bogus""#), "{stderr}");
}

#[test]
fn batch_runs_chain_lines() {
    let dir = scratch(
        "batch-chain",
        &[("jobs.txt", "rmat=7,4\nchain=galerkin rmat=7,4 repeat=2\n")],
    );
    let jobs = dir.join("jobs.txt");
    let stdout = stdout_of(&["batch", "--jobs", jobs.to_str().unwrap(), "--workers", "1"]);
    assert!(stdout.contains("rmat-7-4:galerkin[1/2]"), "{stdout}");
    assert!(stdout.contains("rmat-7-4:galerkin[2/2]"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A batch of a job and two chains prints its lines in file order and a
/// report over all 3 submissions and all 9 multiplications (3 cold,
/// 6 warm), whose latency and phase lines are the means and sums computed
/// by hand over the steps of the same batch run in process.
#[test]
fn mixed_batch_reports_every_submission_and_multiplication() {
    use blockreorg::service::prelude::*;

    let text = "rmat=7,4\nchain=galerkin rmat=9,6 repeat=2\n";
    let dir = scratch("batch-mixed", &[("jobs.txt", text)]);
    let jobs = dir.join("jobs.txt");
    let stdout = stdout_of(&["batch", "--jobs", jobs.to_str().unwrap(), "--workers", "1"]);
    std::fs::remove_dir_all(&dir).unwrap();
    let line = |prefix: &str| -> usize {
        let found = stdout.lines().position(|l| l.starts_with(prefix));
        found.unwrap_or_else(|| panic!("no line starting {prefix:?}:\n{stdout}"))
    };
    assert!(stdout.starts_with("batch: 3 jobs from"), "{stdout}");
    assert!(line("rmat-7-4[1/1]") < line("rmat-9-6:galerkin[1/2]"));
    assert!(line("rmat-9-6:galerkin[1/2]") < line("rmat-9-6:galerkin[2/2]"));
    assert!(stdout.contains("batch: 3 jobs (0 failed)"), "{stdout}");
    assert!(stdout.contains("cache: 6 hits / 3 misses"), "{stdout}");

    let requests = expand_submissions(&parse_job_file(text).unwrap()).unwrap();
    let batch = SpgemmService::run_batch(ServiceConfig::default(), requests);
    let steps: Vec<&StepOutcome> = batch.outcomes.iter().flat_map(|o| &o.steps).collect();
    assert_eq!(steps.len(), 9);
    let mean = |keep: fn(&StepOutcome) -> bool| {
        let ms: Vec<f64> = steps
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.total_ms)
            .collect();
        ms.iter().sum::<f64>() / ms.len() as f64
    };
    let sum = |phase: fn(&StepOutcome) -> f64| steps.iter().map(|s| phase(s)).sum::<f64>();
    let latency = format!(
        "latency (simulated): mean {:.4} ms  cold {:.4} ms  warm {:.4} ms",
        mean(|_| true),
        mean(|s| !s.cache_hit),
        mean(|s| s.cache_hit)
    );
    let phases = format!(
        "phases (summed): precalc {:.4} ms  expansion {:.4} ms  merge {:.4} ms  host preprocess {:.4} ms",
        sum(|s| s.precalc_ms),
        sum(|s| s.expansion_ms),
        sum(|s| s.merge_ms),
        sum(|s| s.preprocess_ms)
    );
    assert!(stdout.contains(&latency), "want {latency:?}:\n{stdout}");
    assert!(stdout.contains(&phases), "want {phases:?}:\n{stdout}");
}

/// Runs `args` with stdout (or stderr) writing into a pipe nobody reads.
fn with_closed(stream: &str, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_blockreorg-cli"));
    cmd.args(args);
    match stream {
        "stdout" => cmd.stdout(Stdio::from(writer)).stderr(Stdio::piped()),
        _ => cmd.stdout(Stdio::piped()).stderr(Stdio::from(writer)),
    };
    cmd.output().expect("CLI binary runs")
}

#[test]
fn a_closed_pipe_leaves_the_exit_code_alone() {
    for (stream, args, code) in [
        ("stdout", &["--help"][..], 0),
        ("stdout", &["--list"][..], 0),
        ("stdout", &["--rmat", "6,4", "--method", "all"][..], 0),
        (
            "stdout",
            &["--dataset", "poisson3Da", "--scale", "0", "--method", "row"][..],
            2,
        ),
        (
            "stderr",
            &["--dataset", "poisson3Da", "--scale", "0", "--method", "row"][..],
            2,
        ),
    ] {
        let out = with_closed(stream, args);
        assert_eq!(
            out.status.code(),
            Some(code),
            "{args:?} with {stream} closed: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn malformed_matrix_market_files_exit_1_with_a_typed_message() {
    let header = "%%MatrixMarket matrix coordinate real general\n";
    let files = [
        ("wide.mtx", format!("{header}4294967296 1 0\n")),
        ("count.mtx", format!("{header}2 2 4294967295\n1 1 1.0\n")),
        (
            "symmetric.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 18446744073709551615\n1 1 1.0\n"
                .to_string(),
        ),
        ("index.mtx", format!("{header}3 3 1\n4294967297 1 2.5\n")),
    ];
    let named: Vec<(&str, &str)> = files.iter().map(|(n, t)| (*n, t.as_str())).collect();
    let dir = scratch("mtx", &named);
    for (name, _) in &files {
        let path = dir.join(name);
        let out = cli(&["--input", path.to_str().unwrap(), "--verify"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("cannot read"), "{name}: {stderr}");
        assert!(stderr.contains("line"), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
