//! Block Reorganizer tuning knobs.

use br_sparse::hash::{fnv_mix, FNV_OFFSET};
use serde::{Deserialize, Serialize};

/// Bytes of one shared-memory allocation unit used by B-Limiting; the paper
/// "increases the allocated memory by 6144 bytes" per limiting step.
pub const LIMIT_UNIT_BYTES: u32 = 6144;

/// How B-Splitting chooses the per-dominator splitting factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitPolicy {
    /// One factor for all dominators: the smallest power of two that
    /// spreads a dominator over at least every SM of the target device
    /// (Figure 11 shows LBI saturating once the factor reaches the SM
    /// count; larger factors keep helping via L2 reuse, so `Auto` doubles
    /// once more).
    Auto,
    /// A fixed power-of-two factor — used by the Figure 11 sweep.
    Fixed(u32),
    /// The paper's per-vector greedy heuristic ("the nnz of vectors varies,
    /// and the splitting factor for each vector should be selected
    /// carefully ... split into several smaller vectors in a greedy
    /// manner"): each dominator picks the smallest power of two that both
    /// spreads it over every SM *and* shrinks its pieces below the
    /// dominator classification threshold.
    Greedy,
}

/// Configuration of the Block Reorganizer pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReorganizerConfig {
    /// Dominator classification multiplier α: a pair is a *dominator* when
    /// its workload exceeds `α × mean block workload`
    /// (`mean = nnz(Ĉ)/#blocks`). Higher α selects fewer dominators — the
    /// paper notes networks with many medium hubs need a stricter cut.
    pub alpha: f64,
    /// Merge-limiting multiplier β: a row is *limited* when its
    /// intermediate-product count exceeds `β × mean row workload`
    /// (paper: "β is currently 10").
    pub beta: f64,
    /// Shared-memory units (× [`LIMIT_UNIT_BYTES`]) added to limited merge
    /// blocks. The paper fixes 4 × 6144 B after the Figure 14 sweep.
    pub limiting_units: u32,
    /// Splitting-factor policy.
    pub split_policy: SplitPolicy,
    /// Thread-block size for normal (non-gathered) expansion and merge.
    pub block_size: u32,
    /// Target size of gathered blocks (the warp size: gathered blocks are
    /// packed to exactly one fully-effective warp).
    pub gather_block: u32,
    /// Enable B-Splitting (ablation toggle).
    pub enable_split: bool,
    /// Enable B-Gathering (ablation toggle).
    pub enable_gather: bool,
    /// Enable B-Limiting (ablation toggle).
    pub enable_limit: bool,
}

impl Default for ReorganizerConfig {
    fn default() -> Self {
        ReorganizerConfig {
            alpha: 16.0,
            beta: 10.0,
            limiting_units: 4,
            split_policy: SplitPolicy::Auto,
            block_size: 256,
            gather_block: 32,
            enable_split: true,
            enable_gather: true,
            enable_limit: true,
        }
    }
}

impl ReorganizerConfig {
    /// Config with only B-Splitting enabled (Figure 10's "B-Splitting" bar).
    pub fn split_only() -> Self {
        ReorganizerConfig {
            enable_gather: false,
            enable_limit: false,
            ..Default::default()
        }
    }

    /// Config with only B-Gathering enabled.
    pub fn gather_only() -> Self {
        ReorganizerConfig {
            enable_split: false,
            enable_limit: false,
            ..Default::default()
        }
    }

    /// Config with only B-Limiting enabled.
    pub fn limit_only() -> Self {
        ReorganizerConfig {
            enable_split: false,
            enable_gather: false,
            ..Default::default()
        }
    }

    /// Extra shared-memory bytes a limited merge block receives.
    pub fn limit_bytes(&self) -> u32 {
        self.limiting_units * LIMIT_UNIT_BYTES
    }

    /// FNV fingerprint over every field: part of the plan-cache key (the
    /// thresholds and split policy change the plan), and the identity of
    /// a bench report's grid.
    pub fn fingerprint(&self) -> u64 {
        let policy = match self.split_policy {
            SplitPolicy::Auto => 1u64 << 32,
            SplitPolicy::Fixed(f) => (2u64 << 32) | f as u64,
            SplitPolicy::Greedy => 3u64 << 32,
        };
        let toggles = (self.enable_split as u64)
            | ((self.enable_gather as u64) << 1)
            | ((self.enable_limit as u64) << 2);
        [
            self.alpha.to_bits(),
            self.beta.to_bits(),
            self.limiting_units as u64,
            self.block_size as u64,
            self.gather_block as u64,
            policy,
            toggles,
        ]
        .iter()
        .fold(FNV_OFFSET, |h, &v| fnv_mix(h, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = ReorganizerConfig::default();
        assert_eq!(c.beta, 10.0);
        assert_eq!(c.limit_bytes(), 4 * 6144);
        assert_eq!(c.gather_block, 32);
        assert!(c.enable_split && c.enable_gather && c.enable_limit);
    }

    #[test]
    fn ablation_configs_toggle_exactly_one_technique() {
        assert!(ReorganizerConfig::split_only().enable_split);
        assert!(!ReorganizerConfig::split_only().enable_gather);
        assert!(!ReorganizerConfig::split_only().enable_limit);
        assert!(ReorganizerConfig::gather_only().enable_gather);
        assert!(!ReorganizerConfig::gather_only().enable_split);
        assert!(ReorganizerConfig::limit_only().enable_limit);
        assert!(!ReorganizerConfig::limit_only().enable_gather);
    }
}
