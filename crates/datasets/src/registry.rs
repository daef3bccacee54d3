//! The Table II dataset registry.
//!
//! Records every one of the paper's 28 real-world matrices — its published
//! dimension, `nnz(A)`, and `nnz(C = A²)` — together with a surrogate recipe
//! in the same *distribution class*. Regular FEM/circuit matrices from the
//! Florida collection map to stencil/banded generators matched on mean
//! degree; skewed SNAP networks map to Chung–Lu generators whose exponent is
//! tuned to the published `nnz(C)/nnz(A)` amplification (heavier hubs ⇒
//! larger amplification).
//!
//! Surrogates are generated at a configurable [`ScaleFactor`]; the default
//! divides the published dimension by 16 (keeping mean degree) so the whole
//! 28-matrix suite runs in minutes on a laptop. `ScaleFactor::Full`
//! approaches paper sizes for users with time to spare. EXPERIMENTS.md
//! reports all results at the default scale.

use crate::chung_lu::{chung_lu, ChungLuConfig};
use crate::mesh::{banded, stencil3d};
use br_sparse::hash::fnv1a;
use br_sparse::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Distribution class of a dataset — drives which optimizations matter
/// (Section VI-A: splitting/limiting help skewed data; gathering helps all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetClass {
    /// Near-uniform degrees (Florida FEM/circuit matrices).
    Regular,
    /// Power-law degrees with hub nodes (SNAP social/web networks).
    Skewed,
}

/// Source collection, as in Table II's two columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Collection {
    /// University of Florida sparse matrix collection (SuiteSparse).
    Florida,
    /// Stanford large network dataset collection (SNAP).
    Snap,
}

/// How far to scale a surrogate down from the published size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleFactor {
    /// ÷64 — seconds for the full suite; used by integration tests.
    Tiny,
    /// ÷16 — minutes for the full suite; used by the benchmark harness.
    Default,
    /// ÷1 — published sizes (long-running; needs several GB of memory).
    Full,
    /// Custom divisor.
    Div(usize),
}

impl ScaleFactor {
    /// The dimension divisor this factor represents.
    pub fn divisor(self) -> usize {
        match self {
            ScaleFactor::Tiny => 64,
            ScaleFactor::Default => 16,
            ScaleFactor::Full => 1,
            ScaleFactor::Div(d) => d.max(1),
        }
    }

    /// Parses the CLI/bench spelling: `tiny`, `default`, `full`, or a
    /// numeric divisor ≥ 1.
    pub fn parse(text: &str) -> Option<ScaleFactor> {
        match text {
            "tiny" => Some(ScaleFactor::Tiny),
            "default" => Some(ScaleFactor::Default),
            "full" => Some(ScaleFactor::Full),
            other => match other.parse::<usize>() {
                Ok(d) if d >= 1 => Some(ScaleFactor::Div(d)),
                _ => None,
            },
        }
    }

    /// The canonical spelling [`ScaleFactor::parse`] accepts, used in
    /// report files and usage messages.
    pub fn label(self) -> String {
        match self {
            ScaleFactor::Tiny => "tiny".to_string(),
            ScaleFactor::Default => "default".to_string(),
            ScaleFactor::Full => "full".to_string(),
            ScaleFactor::Div(d) => d.to_string(),
        }
    }
}

/// Surrogate generation recipe (see module docs for the mapping rationale).
#[derive(Debug, Clone, PartialEq)]
enum Recipe {
    /// 3-D stencil with the given reach — interior degree `(2r+1)³`.
    Stencil { reach: usize },
    /// Band matrix with the given mean degree; bandwidth is `8·deg`.
    Banded { deg: usize },
    /// Chung–Lu power-law with exponent `gamma` (smaller = heavier hubs).
    ChungLu { gamma: f64 },
}

/// One Table II dataset: published numbers plus its surrogate recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// Which collection it came from.
    pub collection: Collection,
    /// Regular or skewed degree distribution.
    pub class: DatasetClass,
    /// Published matrix dimension.
    pub paper_dim: usize,
    /// Published `nnz(A)`.
    pub paper_nnz_a: usize,
    /// Published `nnz(C)` for `C = A²`.
    pub paper_nnz_c: usize,
    /// Member of the 10-dataset panel used in Figures 3, 11, 12 and 14
    /// (5 regular + 5 skewed).
    pub fig3_panel: bool,
    recipe: Recipe,
}

impl DatasetSpec {
    /// Surrogate dimension at the given scale (≥ 256 so tiny scales stay
    /// meaningful).
    pub fn scaled_dim(&self, scale: ScaleFactor) -> usize {
        (self.paper_dim / scale.divisor()).max(256)
    }

    /// Surrogate nnz target at the given scale (mean degree preserved).
    pub fn scaled_nnz(&self, scale: ScaleFactor) -> usize {
        let dim = self.scaled_dim(scale);
        let mean_deg = (self.paper_nnz_a as f64 / self.paper_dim as f64).max(1.0);
        // Cap at 60% grid density so tiny scales of dense-ish matrices
        // remain generatable with distinct coordinates.
        (((dim as f64) * mean_deg) as usize).min(dim * dim * 3 / 5)
    }

    /// Generates the surrogate matrix at the given scale (deterministic:
    /// the seed is derived from the dataset name).
    pub fn generate(&self, scale: ScaleFactor) -> CsrMatrix<f64> {
        let dim = self.scaled_dim(scale);
        let nnz = self.scaled_nnz(scale);
        let seed = fnv1a(self.name.as_bytes());
        match self.recipe {
            Recipe::Stencil { reach } => {
                // Pick grid sides multiplying to ≈ dim.
                let side = (dim as f64).cbrt().round().max(2.0) as usize;
                stencil3d(side, side, side, reach).to_csr()
            }
            Recipe::Banded { deg } => {
                let bw = (deg * 8).min(dim.saturating_sub(1)).max(1);
                banded(dim, bw, deg, seed).to_csr()
            }
            Recipe::ChungLu { gamma } => chung_lu(ChungLuConfig {
                nodes: dim,
                edges: nnz,
                gamma,
                offset: 1.0,
                seed,
            })
            .to_csr(),
        }
    }
}

/// The full Table II registry.
pub struct RealWorldRegistry;

impl RealWorldRegistry {
    /// All 28 datasets in the paper's table order (left column first).
    pub fn all() -> Vec<DatasetSpec> {
        use Collection::*;
        use DatasetClass::*;
        use Recipe::*;
        let spec =
            |name, collection, class, paper_dim, paper_nnz_a, paper_nnz_c, fig3_panel, recipe| {
                DatasetSpec {
                    name,
                    collection,
                    class,
                    paper_dim,
                    paper_nnz_a,
                    paper_nnz_c,
                    fig3_panel,
                    recipe,
                }
            };
        vec![
            // ---- Florida matrix suite (regular distributions) ----
            spec(
                "filter3D",
                Florida,
                Regular,
                106_000,
                2_700_000,
                20_100_000,
                true,
                Stencil { reach: 1 },
            ),
            spec(
                "ship",
                Florida,
                Regular,
                140_000,
                3_700_000,
                23_000_000,
                true,
                Stencil { reach: 1 },
            ),
            spec(
                "harbor",
                Florida,
                Regular,
                46_000,
                2_300_000,
                7_500_000,
                true,
                Banded { deg: 50 },
            ),
            spec(
                "protein",
                Florida,
                Regular,
                36_000,
                2_100_000,
                18_700_000,
                true,
                Banded { deg: 58 },
            ),
            spec(
                "sphere",
                Florida,
                Regular,
                81_000,
                2_900_000,
                25_300_000,
                false,
                Banded { deg: 36 },
            ),
            spec(
                "2cube_sphere",
                Florida,
                Regular,
                99_000,
                854_000,
                8_600_000,
                false,
                Banded { deg: 9 },
            ),
            spec(
                "accelerator",
                Florida,
                Regular,
                118_000,
                1_300_000,
                17_800_000,
                false,
                Banded { deg: 11 },
            ),
            spec(
                "cage12",
                Florida,
                Regular,
                127_000,
                1_900_000,
                14_500_000,
                false,
                Banded { deg: 15 },
            ),
            spec(
                "hood",
                Florida,
                Regular,
                215_000,
                5_200_000,
                32_700_000,
                false,
                Stencil { reach: 1 },
            ),
            spec(
                "m133-b3",
                Florida,
                Regular,
                196_000,
                782_000,
                3_000_000,
                false,
                Banded { deg: 4 },
            ),
            spec(
                "majorbasis",
                Florida,
                Regular,
                156_000,
                1_700_000,
                7_900_000,
                false,
                Banded { deg: 11 },
            ),
            spec(
                "mario002",
                Florida,
                Regular,
                381_000,
                1_100_000,
                6_200_000,
                false,
                Banded { deg: 3 },
            ),
            spec(
                "mono_500Hz",
                Florida,
                Regular,
                165_000,
                4_800_000,
                39_500_000,
                false,
                Stencil { reach: 1 },
            ),
            spec(
                "offshore",
                Florida,
                Regular,
                254_000,
                2_100_000,
                22_200_000,
                false,
                Banded { deg: 8 },
            ),
            spec(
                "patents_main",
                Florida,
                Regular,
                235_000,
                548_000,
                2_200_000,
                false,
                ChungLu { gamma: 3.0 },
            ),
            spec(
                "poisson3Da",
                Florida,
                Regular,
                13_000,
                344_000,
                2_800_000,
                false,
                Stencil { reach: 1 },
            ),
            spec(
                "QCD",
                Florida,
                Regular,
                48_000,
                1_800_000,
                10_400_000,
                true,
                Banded { deg: 39 },
            ),
            spec(
                "scircuit",
                Florida,
                Regular,
                167_000,
                900_000,
                5_000_000,
                false,
                Banded { deg: 6 },
            ),
            spec(
                "power197k",
                Florida,
                Regular,
                193_000,
                3_300_000,
                38_000_000,
                false,
                Banded { deg: 17 },
            ),
            // ---- Stanford large network collection (skewed) ----
            spec(
                "youtube",
                Snap,
                Skewed,
                1_100_000,
                2_800_000,
                148_000_000,
                true,
                ChungLu { gamma: 2.2 },
            ),
            spec(
                "as-caida",
                Snap,
                Skewed,
                26_000,
                104_000,
                25_600_000,
                true,
                ChungLu { gamma: 2.0 },
            ),
            spec(
                "sx-mathoverflow",
                Snap,
                Skewed,
                87_000,
                495_000,
                17_700_000,
                true,
                ChungLu { gamma: 2.2 },
            ),
            spec(
                "loc-gowalla",
                Snap,
                Skewed,
                192_000,
                1_800_000,
                456_000_000,
                true,
                ChungLu { gamma: 2.0 },
            ),
            spec(
                "emailEnron",
                Snap,
                Skewed,
                36_000,
                359_000,
                29_100_000,
                false,
                ChungLu { gamma: 2.1 },
            ),
            spec(
                "slashDot",
                Snap,
                Skewed,
                76_000,
                884_000,
                75_200_000,
                true,
                ChungLu { gamma: 2.1 },
            ),
            spec(
                "epinions",
                Snap,
                Skewed,
                74_000,
                497_000,
                19_600_000,
                false,
                ChungLu { gamma: 2.2 },
            ),
            spec(
                "web-Notredame",
                Snap,
                Skewed,
                318_000,
                1_400_000,
                16_000_000,
                false,
                ChungLu { gamma: 2.4 },
            ),
            spec(
                "stanford",
                Snap,
                Skewed,
                275_000,
                2_200_000,
                19_800_000,
                false,
                ChungLu { gamma: 2.4 },
            ),
        ]
    }

    /// Looks a dataset up by (case-sensitive) paper name.
    pub fn get(name: &str) -> Option<DatasetSpec> {
        Self::all().into_iter().find(|d| d.name == name)
    }

    /// The SNAP (skewed) subset, in table order.
    pub fn snap() -> Vec<DatasetSpec> {
        Self::all()
            .into_iter()
            .filter(|d| d.collection == Collection::Snap)
            .collect()
    }

    /// The 10-dataset panel of Figures 3, 11, 12 and 14
    /// (5 regular, then 5 skewed).
    pub fn fig3_panel() -> Vec<DatasetSpec> {
        let mut panel: Vec<DatasetSpec> =
            Self::all().into_iter().filter(|d| d.fig3_panel).collect();
        panel.sort_by_key(|d| d.class == DatasetClass::Skewed); // regular first
        panel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_sparse::stats::DegreeStats;

    #[test]
    fn registry_has_28_datasets() {
        let all = RealWorldRegistry::all();
        assert_eq!(all.len(), 28);
        let florida = all.iter().filter(|d| d.collection == Collection::Florida);
        assert_eq!(florida.count(), 19);
        assert_eq!(RealWorldRegistry::snap().len(), 9);
    }

    #[test]
    fn names_are_unique() {
        let all = RealWorldRegistry::all();
        let mut names: Vec<_> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 28);
    }

    #[test]
    fn fig3_panel_is_5_regular_plus_5_skewed() {
        let panel = RealWorldRegistry::fig3_panel();
        assert_eq!(panel.len(), 10);
        assert!(panel[..5].iter().all(|d| d.class == DatasetClass::Regular));
        assert!(panel[5..].iter().all(|d| d.class == DatasetClass::Skewed));
    }

    #[test]
    fn lookup_by_name() {
        let yt = RealWorldRegistry::get("youtube").unwrap();
        assert_eq!(yt.paper_nnz_c, 148_000_000);
        assert!(RealWorldRegistry::get("nonexistent").is_none());
    }

    #[test]
    fn surrogates_match_declared_class_at_tiny_scale() {
        for spec in [
            RealWorldRegistry::get("filter3D").unwrap(),
            RealWorldRegistry::get("harbor").unwrap(),
            RealWorldRegistry::get("youtube").unwrap(),
            RealWorldRegistry::get("as-caida").unwrap(),
        ] {
            let m = spec.generate(ScaleFactor::Tiny);
            let stats = DegreeStats::of_rows(&m);
            match spec.class {
                DatasetClass::Regular => {
                    assert!(
                        !stats.is_skewed(),
                        "{} should be regular: {stats:?}",
                        spec.name
                    )
                }
                DatasetClass::Skewed => {
                    assert!(
                        stats.is_skewed(),
                        "{} should be skewed: {stats:?}",
                        spec.name
                    )
                }
            }
        }
    }

    #[test]
    fn scaled_dim_honours_divisor_and_floor() {
        let yt = RealWorldRegistry::get("youtube").unwrap();
        assert_eq!(yt.scaled_dim(ScaleFactor::Default), 1_100_000 / 16);
        assert_eq!(yt.scaled_dim(ScaleFactor::Full), 1_100_000);
        let small = RealWorldRegistry::get("poisson3Da").unwrap();
        assert_eq!(small.scaled_dim(ScaleFactor::Tiny), 256); // floored
    }

    #[test]
    fn scaled_nnz_preserves_mean_degree() {
        let p = RealWorldRegistry::get("protein").unwrap();
        let dim = p.scaled_dim(ScaleFactor::Tiny);
        let nnz = p.scaled_nnz(ScaleFactor::Tiny);
        let mean = nnz as f64 / dim as f64;
        let paper_mean = p.paper_nnz_a as f64 / p.paper_dim as f64;
        assert!((mean - paper_mean).abs() / paper_mean < 0.1);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = RealWorldRegistry::get("emailEnron").unwrap();
        assert_eq!(
            spec.generate(ScaleFactor::Tiny),
            spec.generate(ScaleFactor::Tiny)
        );
    }
}
