//! Device configurations — Table I of the paper, plus microarchitectural
//! parameters from the vendors' published specifications.
//!
//! Absolute simulated time is a model quantity; what matters for the
//! reproduction is that the *ratios* between resources (SM count, shared
//! L2/DRAM bandwidth per SM, shared-memory capacity) match real silicon,
//! because those ratios decide where load imbalance, warp underfill and
//! contention bite.

use serde::{Deserialize, Serialize};

/// A GPU configuration for the performance model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Marketing name, e.g. `"NVIDIA TITAN Xp"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Threads per warp (32 on every NVIDIA architecture to date).
    pub warp_size: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// CUDA cores per SM (determines warp issue width).
    pub cores_per_sm: u32,
    /// Boost clock in MHz (Table I "MAX GPU Clock").
    pub core_clock_mhz: u32,
    /// L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// L2 cache line size in bytes.
    pub l2_line_bytes: u32,
    /// L2 associativity (ways).
    pub l2_assoc: u32,
    /// DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbs: f64,
    /// Aggregate L2 bandwidth in GB/s (roughly 2–2.5× DRAM on these parts).
    pub l2_bandwidth_gbs: f64,
    /// DRAM access latency in core cycles.
    pub dram_latency_cycles: u32,
    /// L2 hit latency in core cycles.
    pub l2_latency_cycles: u32,
    /// Cost model knobs (see [`CostParams`]).
    pub cost: CostParams,
}

/// Tunable cost constants of the timing model. Defaults are calibrated once
/// against the paper's headline shapes (see `crates/bench` calibration test)
/// and then left alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Cycles per multiply-accumulate including index arithmetic.
    pub cycles_per_mac: f64,
    /// Serialization cost of one L2 atomic RMW, in cycles.
    pub atomic_cycles: f64,
    /// Fixed per-block dispatch/launch overhead, in cycles.
    pub block_overhead_cycles: f64,
    /// Maximum memory-level parallelism one warp sustains (outstanding
    /// requests); hiding saturates at `mlp_per_warp × resident warps`.
    pub mlp_per_warp: f64,
    /// Cap on the total latency-hiding factor per SM.
    pub max_hiding: f64,
    /// Queueing knee: contention inflation activates as demanded bandwidth
    /// approaches this fraction of capacity.
    pub contention_knee: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            cycles_per_mac: 4.0,
            atomic_cycles: 16.0,
            block_overhead_cycles: 600.0,
            mlp_per_warp: 6.0,
            max_hiding: 64.0,
            contention_knee: 0.55,
        }
    }
}

impl DeviceConfig {
    /// NVIDIA TITAN Xp (Pascal, CUDA capability 6.1) — Table I System 1,
    /// the paper's primary evaluation target. 30 SMs.
    pub fn titan_xp() -> Self {
        DeviceConfig {
            name: "NVIDIA TITAN Xp".to_string(),
            num_sms: 30,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_sm: 96 * 1024,
            registers_per_sm: 65_536,
            cores_per_sm: 128,
            core_clock_mhz: 1582,
            l2_bytes: 3 * 1024 * 1024,
            l2_line_bytes: 128,
            l2_assoc: 16,
            dram_bandwidth_gbs: 547.6,
            l2_bandwidth_gbs: 1300.0,
            dram_latency_cycles: 440,
            l2_latency_cycles: 220,
            cost: CostParams::default(),
        }
    }

    /// NVIDIA Tesla V100 (Volta, 7.0) — Table I System 2 (DGX Station).
    /// 80 SMs.
    pub fn tesla_v100() -> Self {
        DeviceConfig {
            name: "NVIDIA Tesla V100".to_string(),
            num_sms: 80,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_sm: 96 * 1024,
            registers_per_sm: 65_536,
            cores_per_sm: 64,
            core_clock_mhz: 1380,
            l2_bytes: 6 * 1024 * 1024,
            l2_line_bytes: 128,
            l2_assoc: 16,
            dram_bandwidth_gbs: 900.0,
            l2_bandwidth_gbs: 2150.0,
            dram_latency_cycles: 400,
            l2_latency_cycles: 200,
            cost: CostParams::default(),
        }
    }

    /// NVIDIA GeForce RTX 2080 Ti (Turing, 7.5) — Table I System 3. 68 SMs.
    pub fn rtx_2080_ti() -> Self {
        DeviceConfig {
            name: "NVIDIA RTX 2080 Ti".to_string(),
            num_sms: 68,
            warp_size: 32,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 16,
            shared_mem_per_sm: 64 * 1024,
            registers_per_sm: 65_536,
            cores_per_sm: 64,
            core_clock_mhz: 1545,
            l2_bytes: 5_632 * 1024,
            l2_line_bytes: 128,
            l2_assoc: 16,
            dram_bandwidth_gbs: 616.0,
            l2_bandwidth_gbs: 1800.0,
            dram_latency_cycles: 420,
            l2_latency_cycles: 210,
            cost: CostParams::default(),
        }
    }

    /// The paper's three targets, in Table I / Figure 15 order.
    pub fn all_paper_targets() -> Vec<DeviceConfig> {
        vec![Self::titan_xp(), Self::tesla_v100(), Self::rtx_2080_ti()]
    }

    /// Warp issue width: warps the SM can issue per cycle.
    pub fn issue_width(&self) -> f64 {
        self.cores_per_sm as f64 / self.warp_size as f64
    }

    /// DRAM bandwidth share of one SM, in bytes per core cycle.
    pub fn dram_bytes_per_cycle_per_sm(&self) -> f64 {
        self.dram_bandwidth_gbs * 1e9 / (self.core_clock_mhz as f64 * 1e6) / self.num_sms as f64
    }

    /// L2 bandwidth share of one SM, in bytes per core cycle.
    pub fn l2_bytes_per_cycle_per_sm(&self) -> f64 {
        self.l2_bandwidth_gbs * 1e9 / (self.core_clock_mhz as f64 * 1e6) / self.num_sms as f64
    }

    /// Converts core cycles to milliseconds.
    pub fn cycles_to_ms(&self, cycles: f64) -> f64 {
        cycles / (self.core_clock_mhz as f64 * 1e3)
    }

    /// A stable 64-bit fingerprint of the full configuration (resources,
    /// bandwidths, cost-model knobs). Benchmark reports record it so a
    /// comparison can tell "the code regressed" apart from "the device
    /// model changed"; two configs fingerprint equal iff every modelled
    /// parameter is equal.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the Debug rendering: every field (including nested
        // `CostParams`) participates, and Rust's float formatting is the
        // shortest exact round-trip, so the text is canonical.
        br_sparse::hash::fnv1a(format!("{self:?}").as_bytes())
    }
}

/// CPU configuration for the MKL-like baseline, in the same simulated-time
/// domain as the GPUs (Table I CPU columns).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Model name.
    pub name: String,
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads.
    pub threads: u32,
    /// Max clock in MHz.
    pub clock_mhz: u32,
    /// Sustained MACs per core per cycle on sparse gather-heavy code
    /// (far below peak FMA throughput; dominated by indexing — measured
    /// spGEMM rates on server Xeons are a few percent of peak).
    pub macs_per_cycle: f64,
    /// Peak memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Fraction of peak bandwidth achieved by the SPA's random scatters.
    pub scatter_efficiency: f64,
}

impl CpuConfig {
    /// Intel Xeon E5-2640 v4 — Table I System 1 (10C/20T, 3.40 GHz max).
    pub fn xeon_e5_2640v4() -> Self {
        CpuConfig {
            name: "Intel Xeon E5-2640 v4".to_string(),
            cores: 10,
            threads: 20,
            clock_mhz: 3400,
            macs_per_cycle: 0.12,
            mem_bandwidth_gbs: 68.3,
            scatter_efficiency: 0.35,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sm_counts() {
        assert_eq!(DeviceConfig::titan_xp().num_sms, 30);
        assert_eq!(DeviceConfig::tesla_v100().num_sms, 80);
        assert_eq!(DeviceConfig::rtx_2080_ti().num_sms, 68);
    }

    #[test]
    fn table1_clocks() {
        assert_eq!(DeviceConfig::titan_xp().core_clock_mhz, 1582);
        assert_eq!(DeviceConfig::tesla_v100().core_clock_mhz, 1380);
        assert_eq!(DeviceConfig::rtx_2080_ti().core_clock_mhz, 1545);
    }

    #[test]
    fn issue_width_pascal_vs_volta() {
        assert_eq!(DeviceConfig::titan_xp().issue_width(), 4.0);
        assert_eq!(DeviceConfig::tesla_v100().issue_width(), 2.0);
    }

    #[test]
    fn bandwidth_shares_are_positive_and_v100_richest() {
        let xp = DeviceConfig::titan_xp();
        let v100 = DeviceConfig::tesla_v100();
        assert!(xp.dram_bytes_per_cycle_per_sm() > 0.0);
        // V100 has more SMs but also much more bandwidth; per-SM DRAM share
        // at its lower clock is still comparable.
        assert!(v100.dram_bytes_per_cycle_per_sm() > 0.5 * xp.dram_bytes_per_cycle_per_sm());
    }

    #[test]
    fn cycles_to_ms_inverts_clock() {
        let xp = DeviceConfig::titan_xp();
        let ms = xp.cycles_to_ms(1582e3);
        assert!((ms - 1.0).abs() < 1e-9);
    }

    #[test]
    fn paper_targets_are_three() {
        assert_eq!(DeviceConfig::all_paper_targets().len(), 3);
    }

    #[test]
    fn configs_are_serializable() {
        // serde_json lives only in the bench crate; here we just confirm the
        // Serialize/Deserialize impls exist via trait bounds.
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<DeviceConfig>();
        assert_serde::<CpuConfig>();
    }
}
