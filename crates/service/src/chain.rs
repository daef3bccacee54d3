//! Requests: every submission is a [`br_workloads::ChainProgram`] over
//! `Arc`-shared inputs, executed through the plan-cached service stack.
//!
//! A [`ChainRequest`] carries a whole program (iterated squaring, triangle
//! counting, Markov clustering, the Galerkin triple product, or a generic
//! parsed spec) plus its input matrices. A plain multiplication is the
//! one-step program `C = A·B` over the inputs `[A, B]`
//! ([`ChainRequest::multiply`], [`ChainRequest::square`]); every such
//! request shares one copy of that program. [`RequestKind`] remembers
//! which of the two the caller asked for, for what the outside sees.
//!
//! [`crate::engine::Engine::run_chain`] runs a request step by step on one
//! worker: every step goes through the plan path
//! ([`crate::engine::Engine::run`]), so each step gets its own cache hit
//! or miss. Steps that repeat an operand structure already planned (the
//! Galerkin refresh products, repeats of a converged Markov iterate) hit
//! the cache; structure-churning steps (iterated squaring) miss every time.
//!
//! Instrumentation: [`register_chain_instruments`] pre-registers the
//! `br_chain_*` families — steps executed, per-step plan-cache hits and
//! misses, a structure-churn counter (steps whose operand structures were
//! first seen within the chain), and a fill-in histogram — so expositions
//! show every family at zero before the first chain runs. They count the
//! steps of [`RequestKind::Chain`] requests only.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use br_obs::{Counter, Histogram, Registry};
use br_sparse::CsrMatrix;
use br_workloads::{ChainProgram, Workload};

/// What the outside calls a request. Both kinds run as a chain program;
/// the kind decides only the wire frame that answers it, the batch line,
/// the span root, the `br_chain_*` counts, and the wording of its failure
/// and refusal messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// One multiplication `C = A·B`, the one-step program.
    Job,
    /// A multi-step chain program.
    Chain,
}

impl RequestKind {
    /// `job` or `chain`: the span root and the word reports use.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Job => "job",
            RequestKind::Chain => "chain",
        }
    }
}

/// A request's positional inputs. A plain multiplication holds its two
/// operands inline, so building one allocates nothing: `br-net` builds a
/// request on its connection thread and the worker frees it, and such a
/// per-request allocation costs the cache-hit path page faults (ROADMAP
/// item 2).
#[derive(Debug, Clone)]
pub enum Inputs {
    /// `[A, B]` of a plain multiplication.
    Pair([Arc<CsrMatrix<f64>>; 2]),
    /// A chain's inputs.
    List(Vec<Arc<CsrMatrix<f64>>>),
}

impl Deref for Inputs {
    type Target = [Arc<CsrMatrix<f64>>];

    fn deref(&self) -> &Self::Target {
        match self {
            Inputs::Pair(pair) => pair,
            Inputs::List(list) => list,
        }
    }
}

impl DerefMut for Inputs {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            Inputs::Pair(pair) => pair,
            Inputs::List(list) => list,
        }
    }
}

/// One request: a program over its inputs.
#[derive(Debug, Clone)]
pub struct ChainRequest {
    /// Caller-chosen identifier, echoed in the outcome. Ids of one batch
    /// share one namespace.
    pub id: u64,
    /// Human-readable label for reports (workload spec, file stem, …).
    pub label: String,
    /// A plain multiplication or a chain.
    pub kind: RequestKind,
    /// The program to run.
    pub program: Arc<ChainProgram>,
    /// Positional input matrices (`program.inputs` order).
    pub inputs: Inputs,
}

/// The program `C = A·B` of every plain multiplication, built once.
fn multiply_program() -> Arc<ChainProgram> {
    static PROGRAM: OnceLock<Arc<ChainProgram>> = OnceLock::new();
    PROGRAM
        .get_or_init(|| Arc::new(br_workloads::multiply()))
        .clone()
}

impl ChainRequest {
    /// A plain multiplication `C = A · B`.
    pub fn multiply(id: u64, a: Arc<CsrMatrix<f64>>, b: Arc<CsrMatrix<f64>>) -> Self {
        ChainRequest {
            id,
            label: format!("job-{id}"),
            kind: RequestKind::Job,
            program: multiply_program(),
            inputs: Inputs::Pair([a, b]),
        }
    }

    /// A squaring `C = A²`.
    pub fn square(id: u64, a: Arc<CsrMatrix<f64>>) -> Self {
        Self::multiply(id, a.clone(), a)
    }

    /// A canonical-workload chain over base matrix `base`.
    pub fn workload(id: u64, workload: Workload, base: &CsrMatrix<f64>) -> Self {
        ChainRequest {
            id,
            label: workload.spec(),
            kind: RequestKind::Chain,
            program: Arc::new(workload.program()),
            inputs: Inputs::List(workload.prepare_inputs(base)),
        }
    }

    /// A generic-program chain over explicit inputs.
    pub fn program(id: u64, program: ChainProgram, inputs: Vec<Arc<CsrMatrix<f64>>>) -> Self {
        ChainRequest {
            id,
            label: program.name.clone(),
            kind: RequestKind::Chain,
            program: Arc::new(program),
            inputs: Inputs::List(inputs),
        }
    }

    /// Replaces the label (builder-style).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// What one executed chain step reports.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Step index within the program.
    pub index: usize,
    /// Step label from the program.
    pub label: String,
    /// Whether this step's plan came from the cache.
    pub cache_hit: bool,
    /// Execution method the plan selected (`reorganized`, `hash`, …).
    pub method: &'static str,
    /// Simulated end-to-end latency of the step, ms.
    pub total_ms: f64,
    /// Simulated precalculation-kernel time, ms (0 on cache hits).
    pub precalc_ms: f64,
    /// Simulated expansion-kernel time, ms.
    pub expansion_ms: f64,
    /// Simulated merge-kernel time, ms.
    pub merge_ms: f64,
    /// Host-side preprocessing charged to the step, ms (0 on cache hits).
    pub preprocess_ms: f64,
    /// Achieved simulated GFLOPS.
    pub gflops: f64,
    /// `nnz` of the raw product, before post-ops.
    pub product_nnz: usize,
    /// `nnz` of the step output, after post-ops.
    pub output_nnz: usize,
    /// Fill-in of the multiply: `product_nnz * 1000 / nnz(A)`.
    pub fill_in_permille: u64,
    /// Whether the step's operand structures were first seen within this
    /// chain (the chain-local structure-churn signal).
    pub fresh_structure: bool,
}

/// What the service reports for one completed request.
#[derive(Debug, Clone)]
pub struct ChainOutcome {
    /// Identifier from the request.
    pub id: u64,
    /// Label from the request.
    pub label: String,
    /// Kind from the request.
    pub kind: RequestKind,
    /// Index of the worker that executed the request.
    pub worker: usize,
    /// Name of the worker's device.
    pub device: String,
    /// Per-step roll-up, in program order.
    pub steps: Vec<StepOutcome>,
    /// Summed simulated latency across all steps, ms.
    pub total_ms: f64,
    /// Wall-clock time the request spent queued, ms.
    pub queue_ms: f64,
    /// Wall-clock time the worker spent on the request, ms.
    pub host_ms: f64,
    /// The final step's output.
    pub result: Arc<CsrMatrix<f64>>,
}

impl ChainOutcome {
    /// Steps whose plan came from the cache.
    pub fn cache_hits(&self) -> usize {
        self.steps.iter().filter(|s| s.cache_hit).count()
    }

    /// Steps that built a fresh plan.
    pub fn cache_misses(&self) -> usize {
        self.steps.len() - self.cache_hits()
    }

    /// Steps that introduced operand structures unseen earlier in the
    /// chain.
    pub fn structure_churn(&self) -> usize {
        self.steps.iter().filter(|s| s.fresh_structure).count()
    }
}

/// Handles to the pre-registered `br_chain_*` instrument families.
#[derive(Clone)]
pub struct ChainInstruments {
    /// `br_chain_steps_total` — chain steps executed (one SpGEMM each).
    pub steps: Counter,
    /// `br_chain_step_cache_hits_total` — steps served a cached plan.
    pub cache_hits: Counter,
    /// `br_chain_step_cache_misses_total` — steps that built a plan.
    pub cache_misses: Counter,
    /// `br_chain_structure_churn_total` — steps with chain-fresh operand
    /// structures.
    pub structure_churn: Counter,
    /// `br_chain_fill_in_permille` — per-step fill-in distribution.
    pub fill_in: Histogram,
}

/// Pre-registers every `br_chain_*` family in `registry` (idempotent —
/// re-registration returns the existing cells), so expositions show the
/// families at zero before any chain runs.
pub fn register_chain_instruments(registry: &Registry) -> ChainInstruments {
    ChainInstruments {
        steps: registry.counter(
            "br_chain_steps_total",
            "Chain steps executed (one SpGEMM each).",
            &[],
        ),
        cache_hits: registry.counter(
            "br_chain_step_cache_hits_total",
            "Chain steps whose reorganization plan came from the cache.",
            &[],
        ),
        cache_misses: registry.counter(
            "br_chain_step_cache_misses_total",
            "Chain steps that built a fresh reorganization plan.",
            &[],
        ),
        structure_churn: registry.counter(
            "br_chain_structure_churn_total",
            "Chain steps whose operand structure pair was first seen within the chain.",
            &[],
        ),
        fill_in: registry.histogram(
            "br_chain_fill_in_permille",
            "Per-step fill-in: product nnz relative to the left operand, in permille.",
            &[],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, SpgemmService};
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_workloads::Workload;

    fn base_matrix(seed: u64) -> CsrMatrix<f64> {
        rmat(RmatConfig::snap_like(7, 6, seed)).to_csr()
    }

    #[test]
    fn galerkin_chain_hits_the_cache_on_refresh_steps() {
        let base = base_matrix(1);
        let request = ChainRequest::workload(0, Workload::Galerkin, &base);
        let batch = SpgemmService::run_batch(ServiceConfig::default(), vec![request]);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        let chain = &batch.outcomes[0];
        assert_eq!(chain.steps.len(), 4);
        // The refresh products repeat the restrict/coarsen structures with
        // new values, so the value-independent plan keys hit.
        assert_eq!(chain.cache_hits(), 2, "refresh steps must hit");
        assert_eq!(chain.cache_misses(), 2);
        assert_eq!(chain.structure_churn(), 2);
        let hits: Vec<bool> = chain.steps.iter().map(|s| s.cache_hit).collect();
        assert_eq!(hits, vec![false, false, true, true]);
        // Cache hits pay no precalculation and no host preprocessing.
        for s in chain.steps.iter().filter(|s| s.cache_hit) {
            assert_eq!(s.precalc_ms, 0.0, "{}", s.label);
            assert_eq!(s.preprocess_ms, 0.0, "{}", s.label);
        }
    }

    #[test]
    fn squaring_chain_misses_every_step() {
        let base = base_matrix(2);
        let request = ChainRequest::workload(0, Workload::Square { k: 3 }, &base);
        let batch = SpgemmService::run_batch(ServiceConfig::default(), vec![request]);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        let chain = &batch.outcomes[0];
        assert_eq!(chain.cache_hits(), 0, "every squaring changes structure");
        assert_eq!(chain.cache_misses(), 3);
        assert_eq!(chain.structure_churn(), 3);
    }

    #[test]
    fn chain_results_match_the_sequential_reference_bitwise() {
        let base = base_matrix(3);
        for workload in Workload::canonical() {
            let inputs = workload.prepare_inputs(&base);
            let oracle = workload
                .program()
                .execute_reference(&inputs)
                .expect("reference run");
            let request = ChainRequest::workload(7, workload, &base);
            let batch = SpgemmService::run_batch(ServiceConfig::default(), vec![request]);
            assert!(batch.failures.is_empty(), "{:?}", batch.failures);
            let got = &batch.outcomes[0].result;
            assert_eq!(got.ptr(), oracle.result.ptr(), "{}", workload.name());
            assert_eq!(got.idx(), oracle.result.idx(), "{}", workload.name());
            assert_eq!(got.val(), oracle.result.val(), "{}", workload.name());
        }
    }

    #[test]
    fn chain_instruments_reflect_step_counters() {
        let registry = Arc::new(Registry::new());
        let base = base_matrix(4);
        let request = ChainRequest::workload(0, Workload::Galerkin, &base);
        let config = ServiceConfig::default().with_registry(registry.clone());
        let batch = SpgemmService::run_batch(config, vec![request]);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        let text = registry.render_prometheus(false);
        assert!(text.contains("br_chain_steps_total 4"), "{text}");
        assert!(text.contains("br_chain_step_cache_hits_total 2"), "{text}");
        assert!(
            text.contains("br_chain_step_cache_misses_total 2"),
            "{text}"
        );
        assert!(text.contains("br_chain_structure_churn_total 2"), "{text}");
        assert!(text.contains("br_chain_fill_in_permille_count 4"), "{text}");
    }

    #[test]
    fn plain_jobs_share_one_program_and_count_no_chain_steps() {
        let a = Arc::new(base_matrix(6));
        let (x, y) = (
            ChainRequest::square(0, a.clone()),
            ChainRequest::square(1, a),
        );
        assert!(Arc::ptr_eq(&x.program, &y.program), "one multiply program");
        assert!(matches!(x.inputs, Inputs::Pair(_)), "operands held inline");
        let registry = Arc::new(Registry::new());
        let config = ServiceConfig::default().with_registry(registry.clone());
        let batch = SpgemmService::run_batch(config, vec![x, y]);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        assert_eq!(batch.stats.cache.hits, 1);
        let text = registry.render_prometheus(false);
        assert!(text.contains("br_chain_steps_total 0"), "{text}");
        assert!(
            text.contains("br_span_total{path=\"job/plan\"} 2"),
            "{text}"
        );
        assert!(!text.contains("path=\"chain"), "{text}");
    }

    #[test]
    fn chain_families_are_visible_before_any_chain_runs() {
        let registry = Arc::new(Registry::new());
        let service =
            SpgemmService::start(ServiceConfig::default().with_registry(registry.clone()));
        let text = registry.render_prometheus(false);
        for family in [
            "br_chain_steps_total 0",
            "br_chain_step_cache_hits_total 0",
            "br_chain_step_cache_misses_total 0",
            "br_chain_structure_churn_total 0",
            "br_chain_fill_in_permille_count 0",
        ] {
            assert!(text.contains(family), "missing {family}:\n{text}");
        }
        let batch = service.drain();
        assert!(batch.outcomes.is_empty());
    }

    #[test]
    fn failed_chain_reports_the_step_that_died() {
        // Mismatched input shape: the prolongator of a *different* size.
        let base = base_matrix(5);
        let mut request = ChainRequest::workload(3, Workload::Galerkin, &base);
        request.inputs[1] = Arc::new(br_workloads::aggregation_prolongator(4, 2));
        let batch = SpgemmService::run_batch(ServiceConfig::default(), vec![request]);
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.failures.len(), 1);
        let failure = &batch.failures[0];
        assert_eq!(failure.id, 3);
        assert!(
            failure.message.contains("chain failed"),
            "{}",
            failure.message
        );
        assert!(failure.message.contains("step"), "{}", failure.message);
    }
}
