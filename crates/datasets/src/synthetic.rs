//! Table III — the paper's synthetic dataset families.
//!
//! * **S (scalability)**: four matrices of growing dimension
//!   (250 k → 1 M nodes) at fixed skew `(0.45, 0.15, 0.15, 0.25)`.
//! * **P (skewness)**: 1 M nodes / 1 M elements at four skew levels, from
//!   uniform `(0.25, 0.25, 0.25, 0.25)` to `(0.57, 0.19, 0.19, 0.05)`.
//! * **SP (sparsity)**: 1 M nodes at 4 M → 1 M elements, uniform quadrants.
//! * **AB pairs**: independent `(A, B)` R-MAT pairs at scales 15–18 with
//!   edge-factor 16, for the `C = AB` experiment (Figure 16(b)); the
//!   table's exact distinct-edge counts are reproduced verbatim.

use crate::registry::ScaleFactor;
use crate::rmat::{rmat, RmatConfig};
use br_sparse::hash::fnv1a;
use br_sparse::CsrMatrix;

/// Which product the dataset is used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticOp {
    /// `C = A²` (S, P, SP families).
    Square,
    /// `C = A·B` with an independent pair (scale-15…18 pairs).
    Pair,
}

/// One Table III entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Name as printed in the paper (`s1`…`s4`, `p1`…`p4`, `sp1`…`sp4`,
    /// `15`…`18`).
    pub name: &'static str,
    /// Published dimension.
    pub dim: usize,
    /// Published element count for `A` (and `B`, when `op == Pair`, of the
    /// same magnitude — the exact published pair counts are stored below).
    pub elements: usize,
    /// Element count for `B` (pairs only; equals `elements` for squares).
    pub elements_b: usize,
    /// R-MAT quadrant probabilities.
    pub probs: [f64; 4],
    /// Square or pair experiment.
    pub op: SyntheticOp,
}

impl SyntheticSpec {
    fn scaled(&self, x: usize, scale: ScaleFactor) -> usize {
        (x / scale.divisor()).max(64)
    }

    /// Scaled dimension.
    pub fn scaled_dim(&self, scale: ScaleFactor) -> usize {
        self.scaled(self.dim, scale)
    }

    fn gen_one(&self, edges: usize, scale: ScaleFactor, seed: u64) -> CsrMatrix<f64> {
        let dim = self.scaled_dim(scale);
        let edges = self.scaled(edges, scale).min(dim * dim / 2);
        let grid_scale = (usize::BITS - (dim - 1).leading_zeros()).max(1);
        rmat(RmatConfig {
            scale: grid_scale,
            edges,
            probs: self.probs,
            seed,
            noise: 0.1,
            dim: Some(dim),
        })
        .to_csr()
    }

    /// Generates `A` at the given scale.
    pub fn generate_a(&self, scale: ScaleFactor) -> CsrMatrix<f64> {
        self.gen_one(self.elements, scale, fnv1a(self.name.as_bytes()) ^ 0xA)
    }

    /// Generates `B` at the given scale: the independent pair partner for
    /// `Pair` specs, or `A` itself for `Square` specs.
    pub fn generate_b(&self, scale: ScaleFactor) -> CsrMatrix<f64> {
        match self.op {
            SyntheticOp::Square => self.generate_a(scale),
            SyntheticOp::Pair => {
                self.gen_one(self.elements_b, scale, fnv1a(self.name.as_bytes()) ^ 0xB)
            }
        }
    }
}

const UNIFORM: [f64; 4] = [0.25, 0.25, 0.25, 0.25];
const SKEW_45: [f64; 4] = [0.45, 0.15, 0.15, 0.25];
const SKEW_55: [f64; 4] = [0.55, 0.15, 0.15, 0.15];
const SKEW_57: [f64; 4] = [0.57, 0.19, 0.19, 0.05];

fn square(name: &'static str, dim: usize, elements: usize, probs: [f64; 4]) -> SyntheticSpec {
    SyntheticSpec {
        name,
        dim,
        elements,
        elements_b: elements,
        probs,
        op: SyntheticOp::Square,
    }
}

/// The S (scalability) family: growing size, fixed skew.
pub fn s_family() -> Vec<SyntheticSpec> {
    vec![
        square("s1", 250_000, 62_500, SKEW_45),
        square("s2", 500_000, 250_000, SKEW_45),
        square("s3", 750_000, 562_500, SKEW_45),
        square("s4", 1_000_000, 1_000_000, SKEW_45),
    ]
}

/// The P (skewness) family: fixed size, growing skew.
pub fn p_family() -> Vec<SyntheticSpec> {
    vec![
        square("p1", 1_000_000, 1_000_000, UNIFORM),
        square("p2", 1_000_000, 1_000_000, SKEW_45),
        square("p3", 1_000_000, 1_000_000, SKEW_55),
        square("p4", 1_000_000, 1_000_000, SKEW_57),
    ]
}

/// The SP (sparsity) family: fixed size, shrinking density.
pub fn sp_family() -> Vec<SyntheticSpec> {
    vec![
        square("sp1", 1_000_000, 4_000_000, UNIFORM),
        square("sp2", 1_000_000, 3_000_000, UNIFORM),
        square("sp3", 1_000_000, 2_000_000, UNIFORM),
        square("sp4", 1_000_000, 1_000_000, UNIFORM),
    ]
}

/// The `C = AB` pairs at scales 15–18, edge-factor 16, with Table III's
/// published distinct-edge counts.
pub fn ab_pairs() -> Vec<SyntheticSpec> {
    let pair = |name, scale: u32, ea, eb| SyntheticSpec {
        name,
        dim: 1usize << scale,
        elements: ea,
        elements_b: eb,
        probs: SKEW_45,
        op: SyntheticOp::Pair,
    };
    vec![
        pair("15", 15, 440_747, 440_024),
        pair("16", 16, 908_672, 909_957),
        pair("17", 17, 1_864_289, 1_868_244),
        pair("18", 18, 3_806_124, 3_801_872),
    ]
}

/// All twelve `C = A²` synthetic datasets in Figure 16(a) order.
pub fn all_square() -> Vec<SyntheticSpec> {
    let mut v = s_family();
    v.extend(p_family());
    v.extend(sp_family());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_sparse::stats::DegreeStats;

    #[test]
    fn family_sizes_match_table() {
        assert_eq!(s_family().len(), 4);
        assert_eq!(p_family().len(), 4);
        assert_eq!(sp_family().len(), 4);
        assert_eq!(ab_pairs().len(), 4);
        assert_eq!(all_square().len(), 12);
    }

    #[test]
    fn s_family_grows_in_dimension() {
        let dims: Vec<_> = s_family().iter().map(|s| s.dim).collect();
        assert!(dims.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sp_family_shrinks_in_density() {
        let els: Vec<_> = sp_family().iter().map(|s| s.elements).collect();
        assert!(els.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn p_family_skew_increases_generated_gini() {
        let scale = ScaleFactor::Div(64);
        let p1 = p_family()[0].generate_a(scale);
        let p4 = p_family()[3].generate_a(scale);
        let g1 = DegreeStats::of_rows(&p1).gini;
        let g4 = DegreeStats::of_rows(&p4).gini;
        assert!(
            g4 > g1 + 0.15,
            "p4 should be clearly more skewed: {g1} vs {g4}"
        );
    }

    #[test]
    fn pair_generates_distinct_a_and_b_of_same_shape() {
        let spec = &ab_pairs()[0];
        let scale = ScaleFactor::Div(32);
        let a = spec.generate_a(scale);
        let b = spec.generate_b(scale);
        assert_eq!(a.nrows(), b.nrows());
        assert_ne!(a, b);
    }

    #[test]
    fn square_spec_b_equals_a() {
        let spec = &s_family()[0];
        let scale = ScaleFactor::Div(64);
        assert_eq!(spec.generate_a(scale), spec.generate_b(scale));
    }

    #[test]
    fn scaled_edges_respect_divisor() {
        let spec = &sp_family()[0]; // 4M elements
        let a = spec.generate_a(ScaleFactor::Div(64));
        let expect = 4_000_000 / 64;
        assert_eq!(a.nnz(), expect);
    }
}
