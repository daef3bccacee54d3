//! CLI contract for `--scale`: the surrogate divisor must be a positive
//! integer. `0` is a usage error (exit 2), not a silent request for the
//! published Table II size.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_blockreorg-cli"))
        .args(args)
        .output()
        .expect("CLI binary runs")
}

#[test]
fn zero_scale_is_rejected_with_exit_2() {
    for args in [
        &["--dataset", "poisson3Da", "--scale", "0", "--method", "row"][..],
        &[
            "chain",
            "--workload",
            "square:2",
            "--dataset",
            "poisson3Da",
            "--scale",
            "0",
        ][..],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--scale must be a positive integer"),
            "{stderr}"
        );
    }
}
