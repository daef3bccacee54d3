//! # br-bench — the paper's evaluation, regenerated
//!
//! One binary per table/figure (see DESIGN.md §4 for the full index):
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_systems` | Table I (system configurations) |
//! | `table2_datasets` | Table II (28 real-world datasets + surrogates) |
//! | `table3_synthetic` | Table III (synthetic families) |
//! | `fig03a_sm_variance` | Fig. 3(a) per-SM execution-time variance |
//! | `fig03b_block_histogram` | Fig. 3(b) effective-thread histogram |
//! | `fig03c_phase_split` | Fig. 3(c) expansion vs merge split |
//! | `fig08_speedup` | Fig. 8 normalized speedups (7 methods × 28 sets) |
//! | `fig09_gflops` | Fig. 9 absolute GFLOPS |
//! | `fig10_ablation` | Fig. 10 per-technique ablation |
//! | `fig11_lbi` | Fig. 11 LBI vs splitting factor |
//! | `fig12_l2_split` | Fig. 12 L2 throughput with B-Splitting |
//! | `fig13_sync_stalls` | Fig. 13 sync stalls with B-Gathering |
//! | `fig14_l2_limit` | Fig. 14 L2 throughput vs limiting factor |
//! | `fig15_scalability` | Fig. 15 three-GPU scalability |
//! | `fig16a_synthetic_a2` | Fig. 16(a) synthetic `C = A²` |
//! | `fig16b_synthetic_ab` | Fig. 16(b) synthetic `C = AB` |
//! | `walkthrough_youtube` | §IV-E YouTube walkthrough |
//!
//! Every binary accepts `--scale tiny|default|full|<divisor>` (default:
//! `default`, i.e. 1/16 of published sizes) and `--json <path>` to dump
//! machine-readable results alongside the printed table.
//!
//! Beyond the figure binaries, the crate is the regression-tracking
//! library behind `blockreorg-cli bench`:
//!
//! * [`suite`] — the `quick`/`full`/`scaling` benchmark grids and runner,
//! * [`schema`] — the versioned, byte-deterministic `BENCH_<suite>.json`
//!   report format, which CI byte-compares with its checked-in baseline.

#![warn(missing_docs)]

pub mod harness;
pub mod report;
pub mod schema;
pub mod suite;

pub use harness::{parse_args, BenchArgs};
pub use report::Table;
pub use schema::BenchReport;
pub use suite::{run_suite, Suite};
