//! Chain programs and their step-by-step executor.
//!
//! A [`ChainProgram`] is a straight-line DAG over named input matrices:
//! each [`ChainStep`] multiplies two operands (an input or a previous
//! step's output, the left one optionally transposed) and then applies a
//! sequence of deterministic element-wise [`PostOp`]s. The output of step
//! `i` is [`Arc`]-shared — later steps and post-op masks reference it
//! without deep-cloning, and the executor hands the same `Arc`s to the
//! injected runner so a plan-cached service can key each step's plan on
//! the operands' structure.
//!
//! The executor is deliberately generic over *how* a single SpGEMM runs:
//! [`ChainProgram::execute_with`] takes a runner closure returning the
//! product plus runner-specific metadata (a plan-cache hit flag, makespan,
//! …), and [`ChainProgram::execute_reference`] plugs in the sequential
//! Gustavson oracle — the correctness reference every simulated execution
//! is compared against.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use br_sparse::hash::{fnv_mix, FNV_OFFSET};
use br_sparse::ops::spgemm_gustavson;
use br_sparse::{CsrMatrix, SparseError};

/// A reference to one matrix in a chain: a named input or the output of
/// an earlier step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// The `k`-th input matrix of the program.
    Input(usize),
    /// The output of step `j` (which must precede the referencing step).
    Step(usize),
}

/// A deterministic element-wise operator applied to a step's product.
///
/// Every post-op is value-deterministic and bit-identical at any
/// `BR_THREADS` count (see `br_sparse::eltwise`), so chains report
/// byte-identical results regardless of host parallelism.
#[derive(Debug, Clone, PartialEq)]
pub enum PostOp {
    /// Keep only entries whose position is stored in the operand's
    /// pattern (triangle counting's `A² ∘ A`).
    MaskBy(Operand),
    /// Divide every entry by its column sum (Markov expansion).
    ColumnNormalize,
    /// Drop entries of magnitude ≤ the tolerance (Markov inflation proxy).
    ThresholdPrune(f64),
}

/// One chain step: `out = op(a [ᵀ] · b)` followed by post-ops in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStep {
    /// Human-readable step name, unique within the program.
    pub label: String,
    /// Left operand.
    pub a: Operand,
    /// Whether the left operand is transposed before multiplying.
    pub transpose_a: bool,
    /// Right operand.
    pub b: Operand,
    /// Element-wise post-ops, applied to the product in order.
    pub post: Vec<PostOp>,
}

/// A straight-line chain program; the last step's output is the result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainProgram {
    /// Workload name (`square`, `triangle`, `markov`, `galerkin`, or a
    /// caller-chosen name for generic chains).
    pub name: String,
    /// Names of the input matrices, in positional order.
    pub inputs: Vec<String>,
    /// The steps, in execution order.
    pub steps: Vec<ChainStep>,
}

/// Why a chain failed: a malformed program, a failed post-op, or the
/// injected runner failing on one step.
#[derive(Debug)]
pub enum ChainError<E> {
    /// The program itself is invalid (dangling operand, no steps, …).
    Program(String),
    /// An element-wise post-op failed (e.g. mask shape mismatch).
    Post(SparseError),
    /// The runner failed executing the step at `index`.
    Step {
        /// Index of the failing step.
        index: usize,
        /// The runner's error.
        source: E,
    },
}

impl<E: fmt::Display> fmt::Display for ChainError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Program(msg) => write!(f, "invalid chain program: {msg}"),
            ChainError::Post(e) => write!(f, "chain post-op failed: {e}"),
            ChainError::Step { index, source } => {
                write!(f, "chain step {index} failed: {source}")
            }
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for ChainError<E> {}

/// Per-step record of one chain execution, carrying the runner's metadata
/// `M` (e.g. a plan-cache hit flag and makespan for plan-cached runs, or
/// `()` for the reference executor).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord<M> {
    /// Step index within the program.
    pub index: usize,
    /// Step label, copied from the program.
    pub label: String,
    /// Stored entries of the (possibly transposed) left operand.
    pub a_nnz: usize,
    /// Stored entries of the right operand.
    pub b_nnz: usize,
    /// Stored entries of the raw product, before post-ops.
    pub product_nnz: usize,
    /// Stored entries of the step output, after post-ops.
    pub output_nnz: usize,
    /// Fill-in of the multiply in permille: `product_nnz * 1000 / a_nnz`
    /// (0 for an empty left operand) — the integer the chain fill-in
    /// histogram observes.
    pub fill_in_permille: u64,
    /// `true` when this step's operand-pair *structure* had not appeared
    /// earlier in the chain — the structure-churn signal. Iterated
    /// squaring is fresh on every step; a Galerkin value-refresh repeats
    /// structures and re-uses cached plans.
    pub fresh_structure: bool,
    /// Runner-specific metadata.
    pub meta: M,
}

/// The outcome of executing a chain: per-step records plus the final
/// output (the last step's post-op result), `Arc`-shared with the
/// executor's internal table.
#[derive(Debug, Clone)]
pub struct ChainRun<M> {
    /// One record per executed step, in program order.
    pub steps: Vec<StepRecord<M>>,
    /// The last step's output.
    pub result: Arc<CsrMatrix<f64>>,
}

impl<M> ChainRun<M> {
    /// Number of steps whose operand structure was fresh (not seen
    /// earlier in the chain) — the chain's structure churn.
    pub fn fresh_structures(&self) -> usize {
        self.steps.iter().filter(|s| s.fresh_structure).count()
    }
}

/// Value-independent fingerprint of an operand pair's sparsity structure:
/// each operand's dimensions and [`CsrMatrix::structure_hash`] (the hash
/// the plan cache's matrix signature uses), word-mixed — the chain-local
/// structure-churn signal, without depending on the planning stack.
fn structure_fingerprint(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>) -> u64 {
    [a, b].iter().fold(FNV_OFFSET, |h, m| {
        [m.nrows() as u64, m.ncols() as u64, m.structure_hash()]
            .iter()
            .fold(h, |h, &v| fnv_mix(h, v))
    })
}

impl ChainProgram {
    /// Checks structural validity: at least one step, every operand
    /// reference resolvable (inputs in range, steps strictly earlier),
    /// prune tolerances finite and non-negative, labels unique.
    pub fn validate(&self) -> Result<(), String> {
        if self.steps.is_empty() {
            return Err("chain has no steps".into());
        }
        let check = |op: Operand, at: usize, role: &str| -> Result<(), String> {
            match op {
                Operand::Input(k) if k >= self.inputs.len() => Err(format!(
                    "step {at} references {role} input #{k} but the chain has {} inputs",
                    self.inputs.len()
                )),
                Operand::Step(j) if j >= at => Err(format!(
                    "step {at} references {role} step #{j}, which does not precede it"
                )),
                _ => Ok(()),
            }
        };
        for (i, step) in self.steps.iter().enumerate() {
            check(step.a, i, "left")?;
            check(step.b, i, "right")?;
            for post in &step.post {
                match post {
                    PostOp::MaskBy(op) => check(*op, i, "mask")?,
                    PostOp::ThresholdPrune(tol) => {
                        if !tol.is_finite() || *tol < 0.0 {
                            return Err(format!("step {i} prunes with invalid tolerance {tol}"));
                        }
                    }
                    PostOp::ColumnNormalize => {}
                }
            }
            if self.steps[..i].iter().any(|s| s.label == step.label) {
                return Err(format!("duplicate step label {:?}", step.label));
            }
        }
        Ok(())
    }

    /// Executes the chain, one injected-runner call per step.
    ///
    /// `run(index, label, a, b)` performs the single SpGEMM `a · b` (the
    /// left operand already transposed when the step asked for it) and
    /// returns the product plus metadata; the executor applies the step's
    /// post-ops, records fill-in and structure churn, and feeds the
    /// `Arc`-shared output forward. Transposed inputs are memoized per
    /// operand, so a Galerkin chain transposes `P` once regardless of how
    /// many steps read `Pᵀ`.
    pub fn execute_with<M, E, F>(
        &self,
        inputs: &[Arc<CsrMatrix<f64>>],
        mut run: F,
    ) -> Result<ChainRun<M>, ChainError<E>>
    where
        F: FnMut(
            usize,
            &str,
            &Arc<CsrMatrix<f64>>,
            &Arc<CsrMatrix<f64>>,
        ) -> Result<(CsrMatrix<f64>, M), E>,
    {
        self.validate().map_err(ChainError::Program)?;
        if inputs.len() != self.inputs.len() {
            return Err(ChainError::Program(format!(
                "chain {:?} expects {} inputs ({}), got {}",
                self.name,
                self.inputs.len(),
                self.inputs.join(", "),
                inputs.len()
            )));
        }
        let mut outputs: Vec<Arc<CsrMatrix<f64>>> = Vec::with_capacity(self.steps.len());
        let mut transposed: HashMap<Operand, Arc<CsrMatrix<f64>>> = HashMap::new();
        let mut seen: Vec<u64> = Vec::new();
        let mut records = Vec::with_capacity(self.steps.len());
        for (i, step) in self.steps.iter().enumerate() {
            let resolve = |op: Operand| -> Arc<CsrMatrix<f64>> {
                match op {
                    Operand::Input(k) => inputs[k].clone(),
                    Operand::Step(j) => outputs[j].clone(),
                }
            };
            let a = if step.transpose_a {
                transposed
                    .entry(step.a)
                    .or_insert_with(|| Arc::new(resolve(step.a).transpose()))
                    .clone()
            } else {
                resolve(step.a)
            };
            let b = resolve(step.b);
            // A one-step program's only step is fresh by definition, so a
            // plain multiplication hashes nothing.
            let fresh_structure = self.steps.len() == 1 || {
                let fp = structure_fingerprint(&a, &b);
                let fresh = !seen.contains(&fp);
                if fresh {
                    seen.push(fp);
                }
                fresh
            };
            let (product, meta) = run(i, &step.label, &a, &b)
                .map_err(|source| ChainError::Step { index: i, source })?;
            let product_nnz = product.nnz();
            let mut out = product;
            for post in &step.post {
                out = match post {
                    PostOp::MaskBy(op) => out
                        .mask_by_pattern(&resolve(*op))
                        .map_err(ChainError::Post)?,
                    PostOp::ColumnNormalize => out.column_normalize(),
                    PostOp::ThresholdPrune(tol) => out.threshold_prune(*tol),
                };
            }
            records.push(StepRecord {
                index: i,
                label: step.label.clone(),
                a_nnz: a.nnz(),
                b_nnz: b.nnz(),
                product_nnz,
                output_nnz: out.nnz(),
                fill_in_permille: if a.nnz() == 0 {
                    0
                } else {
                    (product_nnz as u64 * 1000) / a.nnz() as u64
                },
                fresh_structure,
                meta,
            });
            outputs.push(Arc::new(out));
        }
        let result = outputs.last().expect("validated chains have steps").clone();
        Ok(ChainRun {
            steps: records,
            result,
        })
    }

    /// Executes the chain through the sequential Gustavson oracle — the
    /// reference every plan-cached execution must match bit-for-bit.
    pub fn execute_reference(
        &self,
        inputs: &[Arc<CsrMatrix<f64>>],
    ) -> Result<ChainRun<()>, ChainError<SparseError>> {
        self.execute_with(inputs, |_, _, a, b| spgemm_gustavson(a, b).map(|c| (c, ())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Arc<CsrMatrix<f64>> {
        let mut coo = br_sparse::CooMatrix::with_capacity(n, n, 2 * n);
        for i in 0..n - 1 {
            coo.push(i as u32, i as u32 + 1, 1.0).unwrap();
            coo.push(i as u32 + 1, i as u32, 1.0).unwrap();
        }
        Arc::new(coo.to_csr())
    }

    fn square_once() -> ChainProgram {
        ChainProgram {
            name: "square".into(),
            inputs: vec!["A".into()],
            steps: vec![ChainStep {
                label: "s0".into(),
                a: Operand::Input(0),
                transpose_a: false,
                b: Operand::Input(0),
                post: Vec::new(),
            }],
        }
    }

    #[test]
    fn validate_rejects_dangling_references() {
        let mut p = square_once();
        p.steps[0].b = Operand::Input(3);
        assert!(p.validate().is_err());
        let mut p = square_once();
        p.steps[0].a = Operand::Step(0); // self-reference
        assert!(p.validate().is_err());
        let mut p = square_once();
        p.steps[0].post = vec![PostOp::ThresholdPrune(f64::NAN)];
        assert!(p.validate().is_err());
        let mut p = square_once();
        p.steps.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn reference_execution_squares() {
        let a = path_graph(6);
        let run = square_once()
            .execute_reference(std::slice::from_ref(&a))
            .unwrap();
        let oracle = spgemm_gustavson(&a, &a).unwrap();
        assert_eq!(*run.result, oracle);
        assert_eq!(run.steps.len(), 1);
        assert!(run.steps[0].fresh_structure);
        assert_eq!(run.steps[0].product_nnz, oracle.nnz());
        assert_eq!(run.steps[0].output_nnz, oracle.nnz());
    }

    #[test]
    fn wrong_input_arity_is_a_program_error() {
        let err = square_once().execute_reference(&[]).unwrap_err();
        assert!(matches!(err, ChainError::Program(_)));
    }

    #[test]
    fn transposes_are_memoized_and_structure_churn_is_tracked() {
        // Two steps that both read Aᵀ with identical operands: the second
        // re-uses both the memoized transpose and the seen structure.
        let a = path_graph(5);
        let p = ChainProgram {
            name: "t".into(),
            inputs: vec!["A".into()],
            steps: vec![
                ChainStep {
                    label: "first".into(),
                    a: Operand::Input(0),
                    transpose_a: true,
                    b: Operand::Input(0),
                    post: Vec::new(),
                },
                ChainStep {
                    label: "second".into(),
                    a: Operand::Input(0),
                    transpose_a: true,
                    b: Operand::Input(0),
                    post: Vec::new(),
                },
            ],
        };
        let run = p.execute_reference(&[a]).unwrap();
        assert!(run.steps[0].fresh_structure);
        assert!(!run.steps[1].fresh_structure);
        assert_eq!(run.fresh_structures(), 1);
    }

    #[test]
    fn post_ops_apply_in_order() {
        // Square a path graph, mask by the original pattern, then prune
        // with a huge tolerance: everything dies.
        let a = path_graph(6);
        let mut p = square_once();
        p.steps[0].post = vec![
            PostOp::MaskBy(Operand::Input(0)),
            PostOp::ThresholdPrune(1e9),
        ];
        let run = p.execute_reference(std::slice::from_ref(&a)).unwrap();
        assert_eq!(run.result.nnz(), 0);
        // product_nnz still reports the raw square.
        assert_eq!(
            run.steps[0].product_nnz,
            spgemm_gustavson(&a, &a).unwrap().nnz()
        );
    }

    #[test]
    fn runner_errors_carry_the_step_index() {
        let a = path_graph(4);
        let p = ChainProgram {
            name: "two".into(),
            inputs: vec!["A".into()],
            steps: vec![
                ChainStep {
                    label: "ok".into(),
                    a: Operand::Input(0),
                    transpose_a: false,
                    b: Operand::Input(0),
                    post: Vec::new(),
                },
                ChainStep {
                    label: "boom".into(),
                    a: Operand::Step(0),
                    transpose_a: false,
                    b: Operand::Step(0),
                    post: Vec::new(),
                },
            ],
        };
        let err = p
            .execute_with::<(), _, _>(&[a], |i, _, a, b| {
                if i == 1 {
                    Err("kaput".to_string())
                } else {
                    spgemm_gustavson(a, b)
                        .map(|c| (c, ()))
                        .map_err(|e| e.to_string())
                }
            })
            .unwrap_err();
        match err {
            ChainError::Step { index, source } => {
                assert_eq!(index, 1);
                assert_eq!(source, "kaput");
            }
            other => panic!("expected step error, got {other:?}"),
        }
    }
}
