//! The four canonical chained-multiplication workloads, as typed chain
//! programs plus their input builders.
//!
//! * **square-k-times** — `A^(2^k)` by iterated squaring: every step's
//!   operand structure is new (fill-in changes the sparsity pattern), so a
//!   plan cache misses on every step. This is the honest stress test for
//!   per-step plan keying and cache eviction.
//! * **triangle-count** — `A² ∘ A`: the masked square whose entry `(i,j)`
//!   counts the common neighbours of a stored edge; summing and dividing
//!   by 6 yields the triangle count of an undirected simple graph.
//! * **markov-cluster** — iterated squaring with column normalisation and
//!   threshold pruning after each step (the MCL expansion/inflation loop,
//!   pruning standing in for inflation); on a clustered graph the matrix
//!   converges to a block fixed point.
//! * **galerkin** — the AMG triple product `Pᵀ·A·P`, run twice with a
//!   value-refreshed `A'` (same structure, new values) exactly as a
//!   Newton/AMG outer loop re-assembles its operator: the refresh steps
//!   repeat the first pass's operand structures, so a structure-keyed plan
//!   cache *hits* on them — the counterpoint to iterated squaring.

use std::sync::Arc;

use br_sparse::ops::sparse_add;
use br_sparse::{CooMatrix, CsrMatrix};

use crate::chain::{ChainProgram, ChainStep, Operand, PostOp};

/// A canonical workload selection, parseable from a compact spec string
/// (`square:3`, `triangle`, `markov:4,0.001`, `galerkin`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Iterated squaring: `k` steps, producing `A^(2^k)`.
    Square {
        /// Number of squaring steps (≥ 1).
        k: usize,
    },
    /// Masked square `A² ∘ A`.
    Triangle,
    /// Markov clustering: `iters` expansion steps, each column-normalised
    /// then pruned at `tol`.
    Markov {
        /// Number of expansion iterations (≥ 1).
        iters: usize,
        /// Inflation-proxy prune tolerance.
        tol: f64,
    },
    /// Galerkin triple product `Pᵀ·A·P`, assembled twice (original and
    /// value-refreshed operator).
    Galerkin,
}

/// Scale applied to `A`'s values for the Galerkin refresh pass — any
/// non-unit factor works; the structure (and therefore the plan key) is
/// what matters.
const GALERKIN_REFRESH_SCALE: f64 = 1.5;

/// Aggregate size of the canonical Galerkin prolongator (2 fine nodes per
/// coarse aggregate).
const GALERKIN_GROUP: usize = 2;

impl Workload {
    /// Parses a workload spec: `square[:k]`, `triangle`,
    /// `markov[:iters[,tol]]`, `galerkin`.
    pub fn parse(spec: &str) -> Result<Workload, String> {
        let (head, args) = match spec.split_once(':') {
            Some((h, a)) => (h.trim(), Some(a.trim())),
            None => (spec.trim(), None),
        };
        let no_args = |w: Workload| match args {
            Some(a) => Err(format!("workload {head:?} takes no arguments, got {a:?}")),
            None => Ok(w),
        };
        match head {
            "square" => {
                let k = match args {
                    Some(a) => {
                        a.parse::<usize>().ok().filter(|&k| k >= 1).ok_or_else(|| {
                            format!("square:k needs a positive integer, got {a:?}")
                        })?
                    }
                    None => 3,
                };
                Ok(Workload::Square { k })
            }
            "triangle" => no_args(Workload::Triangle),
            "markov" => {
                let (iters, tol) = match args {
                    Some(a) => {
                        let (i, t) = match a.split_once(',') {
                            Some((i, t)) => (i.trim(), Some(t.trim())),
                            None => (a, None),
                        };
                        let iters =
                            i.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                                format!("markov:iters needs a positive integer, got {i:?}")
                            })?;
                        let tol = match t {
                            Some(t) => t
                                .parse::<f64>()
                                .ok()
                                .filter(|v| v.is_finite() && *v >= 0.0)
                                .ok_or_else(|| {
                                    format!(
                                        "markov tolerance must be a finite number ≥ 0, got {t:?}"
                                    )
                                })?,
                            None => 1e-3,
                        };
                        (iters, tol)
                    }
                    None => (4, 1e-3),
                };
                Ok(Workload::Markov { iters, tol })
            }
            "galerkin" => no_args(Workload::Galerkin),
            other => Err(format!(
                "unknown workload {other:?} (expected square, triangle, markov, or galerkin)"
            )),
        }
    }

    /// The workload family name (no parameters).
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Square { .. } => "square",
            Workload::Triangle => "triangle",
            Workload::Markov { .. } => "markov",
            Workload::Galerkin => "galerkin",
        }
    }

    /// The compact spec string this workload parses back from.
    pub fn spec(&self) -> String {
        match self {
            Workload::Square { k } => format!("square:{k}"),
            Workload::Triangle => "triangle".into(),
            Workload::Markov { iters, tol } => format!("markov:{iters},{tol}"),
            Workload::Galerkin => "galerkin".into(),
        }
    }

    /// The four canonical instances the `chain` bench suite runs.
    pub fn canonical() -> Vec<Workload> {
        vec![
            Workload::Square { k: 3 },
            Workload::Triangle,
            Workload::Markov {
                iters: 3,
                tol: 1e-3,
            },
            Workload::Galerkin,
        ]
    }

    /// The typed chain program for this workload.
    pub fn program(&self) -> ChainProgram {
        match *self {
            Workload::Square { k } => square_k_times(k),
            Workload::Triangle => triangle_count(),
            Workload::Markov { iters, tol } => markov_cluster(iters, tol),
            Workload::Galerkin => galerkin(),
        }
    }

    /// Builds the program's input matrices from a single base matrix
    /// (adjacency-style, square). Every derivation is deterministic:
    /// Markov seeds with the column-normalised `|A| + I`, Galerkin pairs
    /// `A` with an aggregation prolongator and a value-refreshed copy.
    pub fn prepare_inputs(&self, a: &CsrMatrix<f64>) -> Vec<Arc<CsrMatrix<f64>>> {
        match self {
            Workload::Square { .. } | Workload::Triangle => vec![Arc::new(a.clone())],
            Workload::Markov { .. } => vec![Arc::new(markov_seed(a))],
            Workload::Galerkin => {
                let p = aggregation_prolongator(a.nrows(), GALERKIN_GROUP);
                let refreshed = a.map_values(|v| v * GALERKIN_REFRESH_SCALE);
                vec![Arc::new(a.clone()), Arc::new(p), Arc::new(refreshed)]
            }
        }
    }
}

/// The one-step product `C = A·B` over the inputs `A`, `B`: a single
/// multiplication as a chain program.
pub fn multiply() -> ChainProgram {
    ChainProgram {
        name: "multiply".into(),
        inputs: vec!["A".into(), "B".into()],
        steps: vec![ChainStep {
            label: "C".into(),
            a: Operand::Input(0),
            transpose_a: false,
            b: Operand::Input(1),
            post: Vec::new(),
        }],
    }
}

/// `k` iterated-squaring steps: `S₀ = A·A`, `Sᵢ = Sᵢ₋₁·Sᵢ₋₁`, result
/// `A^(2^k)`. Every step multiplies a structure no earlier step saw.
pub fn square_k_times(k: usize) -> ChainProgram {
    let k = k.max(1);
    let steps = (0..k)
        .map(|i| {
            let src = if i == 0 {
                Operand::Input(0)
            } else {
                Operand::Step(i - 1)
            };
            ChainStep {
                label: format!("square{i}"),
                a: src,
                transpose_a: false,
                b: src,
                post: Vec::new(),
            }
        })
        .collect();
    ChainProgram {
        name: "square".into(),
        inputs: vec!["A".into()],
        steps,
    }
}

/// The masked square `A² ∘ A`: entry `(i,j)` counts paths of length two
/// between stored neighbours — the per-edge triangle incidence.
pub fn triangle_count() -> ChainProgram {
    ChainProgram {
        name: "triangle".into(),
        inputs: vec!["A".into()],
        steps: vec![ChainStep {
            label: "masked-square".into(),
            a: Operand::Input(0),
            transpose_a: false,
            b: Operand::Input(0),
            post: vec![PostOp::MaskBy(Operand::Input(0))],
        }],
    }
}

/// `iters` Markov-cluster expansion steps over a stochastic seed matrix:
/// each step squares the current matrix, column-normalises, and prunes at
/// `tol`. Feed it [`markov_seed`] of an adjacency matrix.
pub fn markov_cluster(iters: usize, tol: f64) -> ChainProgram {
    let iters = iters.max(1);
    let steps = (0..iters)
        .map(|i| {
            let src = if i == 0 {
                Operand::Input(0)
            } else {
                Operand::Step(i - 1)
            };
            ChainStep {
                label: format!("expand{i}"),
                a: src,
                transpose_a: false,
                b: src,
                post: vec![PostOp::ColumnNormalize, PostOp::ThresholdPrune(tol)],
            }
        })
        .collect();
    ChainProgram {
        name: "markov".into(),
        inputs: vec!["M".into()],
        steps,
    }
}

/// The Galerkin triple product `Pᵀ·A·P`, assembled twice: once for `A`
/// and once for the value-refreshed `A'` (inputs `A`, `P`, `A'`). The
/// refresh pass repeats the first pass's operand *structures* — `Pᵀ` is
/// unchanged and `Pᵀ·A'` has the structure of `Pᵀ·A` — so a
/// structure-keyed plan cache hits on both refresh steps.
pub fn galerkin() -> ChainProgram {
    ChainProgram {
        name: "galerkin".into(),
        inputs: vec!["A".into(), "P".into(), "A'".into()],
        steps: vec![
            ChainStep {
                label: "restrict".into(),
                a: Operand::Input(1),
                transpose_a: true,
                b: Operand::Input(0),
                post: Vec::new(),
            },
            ChainStep {
                label: "coarsen".into(),
                a: Operand::Step(0),
                transpose_a: false,
                b: Operand::Input(1),
                post: Vec::new(),
            },
            ChainStep {
                label: "restrict-refresh".into(),
                a: Operand::Input(1),
                transpose_a: true,
                b: Operand::Input(2),
                post: Vec::new(),
            },
            ChainStep {
                label: "coarsen-refresh".into(),
                a: Operand::Step(2),
                transpose_a: false,
                b: Operand::Input(1),
                post: Vec::new(),
            },
        ],
    }
}

/// The Markov-cluster seed: `|A| + I`, column-normalised — the standard
/// MCL preparation (self-loops keep the random walk aperiodic, absolute
/// values make it a transition matrix).
pub fn markov_seed(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let abs = a.map_values(|v| v.abs());
    let eye = CsrMatrix::identity(a.nrows());
    sparse_add(&abs, &eye)
        .expect("square adjacency plus identity cannot mismatch")
        .column_normalize()
}

/// A piecewise-constant aggregation prolongator: fine node `i` belongs to
/// coarse aggregate `i / group`, `P[i, i/group] = 1`. The canonical AMG
/// tentative prolongator for contiguous aggregates.
pub fn aggregation_prolongator(n: usize, group: usize) -> CsrMatrix<f64> {
    let group = group.max(1);
    let ncoarse = n.div_ceil(group);
    let ptr = (0..=n).collect();
    let idx = (0..n).map(|i| (i / group) as u32).collect();
    let val = vec![1.0; n];
    CsrMatrix::from_parts_unchecked(n, ncoarse, ptr, idx, val)
}

/// A deterministic planted-partition graph: `blocks` cliques of
/// `per_block` nodes each (self-loop-free, symmetric), plus `noise`
/// cross-block edges placed by a seeded xorshift. The ground-truth
/// clustering Markov clustering must converge to.
pub fn planted_partition(
    blocks: usize,
    per_block: usize,
    noise: usize,
    seed: u64,
) -> CsrMatrix<f64> {
    let n = blocks * per_block;
    let mut coo = CooMatrix::with_capacity(n, n, blocks * per_block * per_block + 2 * noise);
    for b in 0..blocks {
        let base = b * per_block;
        for i in 0..per_block {
            for j in 0..per_block {
                if i != j {
                    coo.push((base + i) as u32, (base + j) as u32, 1.0)
                        .expect("in-bounds clique edge");
                }
            }
        }
    }
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut placed = 0usize;
    while placed < noise && blocks > 1 {
        let u = (next() % n as u64) as usize;
        let v = (next() % n as u64) as usize;
        if u / per_block != v / per_block {
            coo.push(u as u32, v as u32, 1.0)
                .expect("in-bounds noise edge");
            coo.push(v as u32, u as u32, 1.0)
                .expect("in-bounds noise edge");
            placed += 1;
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_sparse::ops::spgemm_gustavson;
    use br_sparse::DenseMatrix;

    fn ring(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::with_capacity(n, n, 2 * n);
        for i in 0..n {
            let j = (i + 1) % n;
            coo.push(i as u32, j as u32, 1.0).unwrap();
            coo.push(j as u32, i as u32, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn workload_spec_round_trips() {
        for spec in [
            "square:3",
            "triangle",
            "markov:4,0.001",
            "galerkin",
            "square:1",
            "markov:2,0",
        ] {
            let w = Workload::parse(spec).unwrap();
            assert_eq!(Workload::parse(&w.spec()).unwrap(), w, "{spec}");
        }
        assert_eq!(Workload::parse("square"), Ok(Workload::Square { k: 3 }));
        assert_eq!(
            Workload::parse("markov"),
            Ok(Workload::Markov {
                iters: 4,
                tol: 1e-3
            })
        );
        for bad in [
            "",
            "square:0",
            "square:x",
            "triangle:1",
            "markov:0",
            "markov:2,nan",
            "galerkin:2",
            "mystery",
        ] {
            assert!(Workload::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn every_canonical_program_validates() {
        for w in Workload::canonical() {
            let p = w.program();
            p.validate().unwrap();
            assert_eq!(p.name, w.name());
            let inputs = w.prepare_inputs(&ring(8));
            assert_eq!(inputs.len(), p.inputs.len(), "{}", w.name());
            p.execute_reference(&inputs).unwrap();
        }
    }

    /// Dense SPA reference for the masked square: accumulate A² densely,
    /// then zero every position not stored in A.
    fn masked_square_dense(a: &CsrMatrix<f64>) -> DenseMatrix<f64> {
        let d = a.to_dense();
        let mut sq = d.matmul(&d);
        for r in 0..a.nrows() {
            for c in 0..a.ncols() {
                if !a.row(r).0.contains(&(c as u32)) {
                    *sq.get_mut(r, c) = 0.0;
                }
            }
        }
        sq
    }

    #[test]
    fn triangle_count_matches_the_dense_spa_reference() {
        // A ring plus one chord gives a single triangle (0,1,n-1)… build a
        // graph with known triangles instead: two cliques of 4 share no
        // nodes → each K4 has 4 triangles, 8 total.
        let g = planted_partition(2, 4, 0, 7);
        let run = triangle_count()
            .execute_reference(&Workload::Triangle.prepare_inputs(&g))
            .unwrap();
        let dense = masked_square_dense(&g);
        for r in 0..g.nrows() {
            for c in 0..g.ncols() {
                assert_eq!(run.result.get(r, c), dense.get(r, c), "({r},{c})");
            }
        }
        // Σ (A² ∘ A) = 6 · triangles.
        let total: f64 = run.result.val().iter().sum();
        assert_eq!(total, 6.0 * 8.0);
    }

    #[test]
    fn markov_cluster_converges_on_a_planted_partition() {
        let g = planted_partition(3, 5, 2, 42);
        let w = Workload::Markov {
            iters: 6,
            tol: 0.05,
        };
        let inputs = w.prepare_inputs(&g);
        let run = w.program().execute_reference(&inputs).unwrap();
        // Fixed point: the last two iterates agree (structure and values).
        let last = &run.steps[run.steps.len() - 1];
        let prev = &run.steps[run.steps.len() - 2];
        assert_eq!(last.output_nnz, prev.output_nnz, "structure converged");
        // And the converged matrix respects the planted blocks: every
        // surviving entry links two nodes of the same block.
        for (r, c, _) in run.result.iter() {
            assert_eq!(
                r as usize / 5,
                c as usize / 5,
                "entry ({r},{c}) crosses blocks"
            );
        }
    }

    #[test]
    fn galerkin_matches_the_two_step_reference() {
        let a = ring(10);
        let w = Workload::Galerkin;
        let inputs = w.prepare_inputs(&a);
        let run = w.program().execute_reference(&inputs).unwrap();
        // Two-step reference: T = Pᵀ·A', C = T·P (the chain result is the
        // refreshed operator, its last step).
        let p = aggregation_prolongator(a.nrows(), 2);
        let refreshed = a.map_values(|v| v * GALERKIN_REFRESH_SCALE);
        let t = spgemm_gustavson(&p.transpose(), &refreshed).unwrap();
        let c = spgemm_gustavson(&t, &p).unwrap();
        assert_eq!(*run.result, c, "bit-identical to the two-step reference");
        // The refresh pass repeats the first pass's structures.
        assert_eq!(run.steps.len(), 4);
        assert!(run.steps[0].fresh_structure);
        assert!(run.steps[1].fresh_structure);
        assert!(
            !run.steps[2].fresh_structure,
            "Pᵀ·A' repeats Pᵀ·A's structure"
        );
        assert!(
            !run.steps[3].fresh_structure,
            "T'·P repeats T·P's structure"
        );
    }

    #[test]
    fn multiply_is_one_fresh_product_of_its_two_inputs() {
        let a = Arc::new(ring(6));
        let b = Arc::new(planted_partition(2, 3, 2, 4));
        let program = multiply();
        program.validate().unwrap();
        let run = program.execute_reference(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(*run.result, spgemm_gustavson(&a, &b).unwrap());
        assert_eq!(run.steps.len(), 1);
        assert!(run.steps[0].fresh_structure, "its only step is fresh");
    }

    #[test]
    fn iterated_squaring_is_fresh_on_every_step() {
        let g = planted_partition(2, 4, 3, 9);
        let w = Workload::Square { k: 3 };
        let run = w
            .program()
            .execute_reference(&w.prepare_inputs(&g))
            .unwrap();
        assert_eq!(run.fresh_structures(), run.steps.len());
        // And the result is A^(2^3).
        let mut oracle = g.clone();
        for _ in 0..3 {
            oracle = spgemm_gustavson(&oracle, &oracle).unwrap();
        }
        assert_eq!(*run.result, oracle);
    }

    #[test]
    fn prolongator_partitions_the_fine_nodes() {
        let p = aggregation_prolongator(7, 2);
        assert_eq!(p.nrows(), 7);
        assert_eq!(p.ncols(), 4);
        p.check_invariants().unwrap();
        // Each row has exactly one entry; column sums count aggregate sizes.
        assert!(p.row_degrees().iter().all(|&d| d == 1));
    }

    #[test]
    fn markov_seed_is_column_stochastic() {
        let g = ring(6);
        let m = markov_seed(&g);
        let mut colsum = vec![0.0f64; m.ncols()];
        for (_, c, v) in m.iter() {
            assert!(v > 0.0);
            colsum[c as usize] += v;
        }
        for s in colsum {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }
}
