//! `hostbench` — host-time benchmark of `blockreorg-cli serve`.
//!
//! ```text
//! hostbench       --server <blockreorg-cli> --workload <name> --seed <n> --seconds <s> --trace 0
//! hostbench-trace --server <blockreorg-cli> --workload <name> --seed <n> --seconds <s> --trace 1
//! ```
//!
//! The untraced binary measures the end-to-end metrics over the wire; it
//! needs only the wire protocol, the job-spec parser and the oracles, so it
//! keeps building while the layers' internal interfaces change. The traced
//! binary adds the in-process replay that times each layer's public calls.
//! `hostbench/run.py` builds the right one. See `README.md` for why the
//! workloads and the load are what they are.

pub mod bench;
pub mod oracle;
pub mod stats;
pub mod wire;
pub mod workload;
