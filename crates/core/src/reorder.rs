//! Deterministic row-reordering strategies for the planning stage.
//!
//! The Block Reorganizer restructures *work* (splitting, gathering,
//! limiting) but runs over whatever row order the input shipped with —
//! block scheduling and L2 behavior are at the mercy of the data layout.
//! Following Islam & Dai's matrix-reordering/cluster-wise-computation
//! line, this module reorders the **rows of A** before planning so that
//! similar rows (and therefore similar merge blocks) are adjacent in the
//! launch stream. Only the simulated schedule moves: row `i` of the
//! permuted problem is row `forward[i]` of the original, and the numeric
//! merge runs on the operands as given, so the multiply stays bit-for-bit
//! identical to the unreordered one.
//!
//! Everything here is a pure function of A's **structure** (never its
//! values), so a [`Permutation`] can live inside a cached, serializable
//! `ReorgPlan` and be replayed by every simulation of that plan: permute
//! the problem, then build and simulate the planned launch stream over it.
//!
//! Three concrete strategies (plus `none` and an `auto` selector):
//!
//! * **degree** — rows sorted by nnz descending. Longest-processing-time
//!   ordering for the one-block-per-row merge launch: the greedy list
//!   scheduler sees the heavy blocks first and balances them across SMs
//!   instead of tail-loading whichever SM drew them last.
//! * **rcm** — reverse Cuthill–McKee-style BFS bandwidth reduction:
//!   per-component breadth-first traversal from a minimum-degree seed,
//!   neighbors visited degree-ascending, final order reversed. Rows that
//!   touch the same columns end up close together, so consecutive merge
//!   blocks re-hit the same B rows in L2.
//! * **cluster** — a cheap clustering heuristic over row-structure
//!   hashes: each row is keyed by an FNV-1a hash of its bucketed column
//!   pattern (`j >> 3`), and rows sort by `(hash, index)`. Rows with
//!   identical or near-identical sparsity patterns collapse into runs,
//!   approximating cluster-wise computation without a similarity matrix.

use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;

use br_obs::Counter;
use br_sparse::hash::{fnv1a, fnv_mix, splitmix64, FNV_OFFSET};
use br_sparse::{CsrMatrix, Scalar};
use serde::{Deserialize, Serialize};

/// Which row ordering the planner applies to A before analysis.
///
/// `None` is the default and keeps every plan byte-identical to the
/// pre-reordering pipeline; `Auto` resolves to a concrete strategy per
/// problem from sampled structure (see [`auto_select`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReorderStrategy {
    /// Keep the input row order (the historical pipeline, byte-identical).
    #[default]
    None,
    /// Rows by nnz descending — LPT ordering for the merge launch.
    Degree,
    /// Reverse Cuthill–McKee-style BFS bandwidth reduction.
    Rcm,
    /// Row-structure-hash clustering (rows with similar patterns adjacent).
    Cluster,
    /// Pick one of the above per problem from sampled structure.
    Auto,
}

/// Every spelling [`ReorderStrategy::parse`] accepts, for error messages.
pub const REORDER_CHOICES: &str = "none, degree, rcm, cluster, auto";

/// Typed rejection from [`ReorderStrategy::parse`]: the spelling did not
/// name a known strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReorderParseError {
    /// Not one of the spellings in [`REORDER_CHOICES`].
    Unknown(String),
}

impl fmt::Display for ReorderParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReorderParseError::Unknown(text) => write!(
                f,
                "unknown reorder strategy {text:?}; valid strategies: {REORDER_CHOICES}"
            ),
        }
    }
}

impl std::error::Error for ReorderParseError {}

impl ReorderStrategy {
    /// Parses the CLI spelling (case-insensitive): `none`, `degree`,
    /// `rcm`, `cluster`, or `auto`.
    pub fn parse(text: &str) -> std::result::Result<ReorderStrategy, ReorderParseError> {
        match text.trim().to_ascii_lowercase().as_str() {
            "none" => Ok(ReorderStrategy::None),
            "degree" => Ok(ReorderStrategy::Degree),
            "rcm" => Ok(ReorderStrategy::Rcm),
            "cluster" => Ok(ReorderStrategy::Cluster),
            "auto" => Ok(ReorderStrategy::Auto),
            _ => Err(ReorderParseError::Unknown(text.to_string())),
        }
    }

    /// The canonical lowercase spelling (also the obs label value).
    pub fn name(self) -> &'static str {
        match self {
            ReorderStrategy::None => "none",
            ReorderStrategy::Degree => "degree",
            ReorderStrategy::Rcm => "rcm",
            ReorderStrategy::Cluster => "cluster",
            ReorderStrategy::Auto => "auto",
        }
    }

    /// Cache-key fingerprint. `None` maps to 0 so pre-reordering plan
    /// keys keep their exact historical value; every other strategy
    /// (including `Auto`, which is keyed as *requested* — its per-problem
    /// resolution is deterministic, so the key stays stable) hashes its
    /// name so no two strategies alias.
    pub fn fingerprint(self) -> u64 {
        match self {
            ReorderStrategy::None => 0,
            other => fnv1a(other.name().as_bytes()),
        }
    }
}

/// A row permutation with both directions materialized, serializable so
/// it can live inside a cached `ReorgPlan`.
///
/// The **forward** direction is the gather convention used by
/// `CsrMatrix::permute_rows`: row `i` of the permuted matrix is row
/// `forward[i]` of the original. The **inverse** undoes it
/// (`inverse[forward[i]] = i`), so permuting the permuted product's rows
/// by `inverse` restores the original row order exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Permutation {
    forward: Vec<u32>,
    inverse: Vec<u32>,
}

impl Permutation {
    /// Builds the pair from the forward order, which must be a
    /// permutation of `0..forward.len()`.
    pub fn from_forward(forward: Vec<u32>) -> Permutation {
        let mut inverse = vec![u32::MAX; forward.len()];
        for (i, &r) in forward.iter().enumerate() {
            debug_assert!(
                (r as usize) < forward.len() && inverse[r as usize] == u32::MAX,
                "forward order must be a permutation of 0..n"
            );
            inverse[r as usize] = i as u32;
        }
        Permutation { forward, inverse }
    }

    /// The identity permutation over `n` rows.
    pub fn identity(n: usize) -> Permutation {
        let forward: Vec<u32> = (0..n as u32).collect();
        Permutation {
            inverse: forward.clone(),
            forward,
        }
    }

    /// True when applying this permutation is a no-op.
    pub fn is_identity(&self) -> bool {
        self.forward
            .iter()
            .enumerate()
            .all(|(i, &r)| r as usize == i)
    }

    /// Number of rows the permutation covers.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True for the zero-row permutation.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// The gather order: row `i` of the permuted matrix is row
    /// `forward()[i]` of the original.
    pub fn forward(&self) -> &[u32] {
        &self.forward
    }

    /// The scatter-back order: permuting the permuted rows by this
    /// restores the original order.
    pub fn inverse(&self) -> &[u32] {
        &self.inverse
    }
}

/// Rows by nnz descending, ties broken by original index ascending — the
/// longest-processing-time order for the one-block-per-row merge launch.
pub fn degree_order<T: Scalar>(a: &CsrMatrix<T>) -> Vec<u32> {
    let mut order: Vec<u32> = (0..a.nrows() as u32).collect();
    order.sort_unstable_by_key(|&r| (std::cmp::Reverse(a.row_nnz(r as usize)), r));
    order
}

/// Reverse Cuthill–McKee-style order over A's row structure. Each
/// component is traversed breadth-first from its minimum-degree row
/// (ties by index); a row's neighbors are the rows named by its column
/// indices (columns `>= nrows` have no row counterpart and are skipped),
/// visited degree-ascending; the concatenated visit order is reversed.
/// Fully deterministic — no degree ties are left to hash or pointer
/// order.
pub fn rcm_order<T: Scalar>(a: &CsrMatrix<T>) -> Vec<u32> {
    let n = a.nrows();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut seeds: Vec<u32> = (0..n as u32).collect();
    seeds.sort_unstable_by_key(|&r| (a.row_nnz(r as usize), r));
    let mut queue = VecDeque::new();
    let mut neighbors: Vec<u32> = Vec::new();
    for &seed in &seeds {
        if visited[seed as usize] {
            continue;
        }
        visited[seed as usize] = true;
        queue.push_back(seed);
        while let Some(r) = queue.pop_front() {
            order.push(r);
            neighbors.clear();
            let (cols, _) = a.row(r as usize);
            for &c in cols {
                if (c as usize) < n && !visited[c as usize] {
                    visited[c as usize] = true;
                    neighbors.push(c);
                }
            }
            neighbors.sort_unstable_by_key(|&c| (a.row_nnz(c as usize), c));
            queue.extend(neighbors.iter().copied());
        }
    }
    order.reverse();
    order
}

/// Rows sorted by an FNV-1a hash of their bucketed column pattern
/// (`j >> 3`), ties by index — rows with identical or near-identical
/// sparsity patterns collapse into adjacent runs, a cheap stand-in for
/// cluster-wise computation.
pub fn cluster_order<T: Scalar>(a: &CsrMatrix<T>) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> = (0..a.nrows())
        .map(|r| {
            let mut hash = FNV_OFFSET;
            let (cols, _) = a.row(r);
            for &c in cols {
                hash = fnv_mix(hash, (c >> 3) as u64);
            }
            (hash, r as u32)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Structural bandwidth of A: the maximum `|i - j|` over stored entries.
/// Purely informational (the before/after gauges) — row-only permutations
/// change it even though classic RCM would relabel columns too.
pub fn bandwidth<T: Scalar>(a: &CsrMatrix<T>) -> u64 {
    bandwidth_under(a, None)
}

/// Bandwidth of `a.permute_rows(order)` without materializing the
/// permuted matrix: row `i` of the permuted matrix is row `order[i]`.
fn bandwidth_under<T: Scalar>(a: &CsrMatrix<T>, order: Option<&[u32]>) -> u64 {
    let mut widest = 0u64;
    for i in 0..a.nrows() {
        let src = order.map_or(i, |o| o[i] as usize);
        let (cols, _) = a.row(src);
        for &c in cols {
            widest = widest.max((i as i64 - c as i64).unsigned_abs());
        }
    }
    widest
}

/// Number of rows the auto-selector samples.
const AUTO_SAMPLES: usize = 64;
/// A sampled max degree at least this many times the sampled mean reads
/// as a skewed (power-law) problem, where LPT balancing wins.
const AUTO_SKEW_RATIO: u64 = 4;

/// Picks a concrete strategy for `a` from sampled structure, seeded by
/// the shape alone so the choice is deterministic per problem:
///
/// * empty structure → `None` (nothing to gain);
/// * skewed degrees (sampled max ≥ 4× sampled mean) → `Degree`, because
///   the merge launch is LPT-sensitive exactly when a few rows dominate;
/// * square with a wide band (> nrows/4) → `Rcm`, the bandwidth reducer;
/// * otherwise → `Cluster`, the pattern grouper.
pub fn auto_select<T: Scalar>(a: &CsrMatrix<T>) -> ReorderStrategy {
    let n = a.nrows();
    if n == 0 || a.nnz() == 0 {
        return ReorderStrategy::None;
    }
    let mut state = fnv_mix(fnv_mix(FNV_OFFSET, n as u64), a.nnz() as u64);
    let samples = AUTO_SAMPLES.min(n);
    let mut max_degree = 0u64;
    let mut total = 0u64;
    for _ in 0..samples {
        let r = (splitmix64(&mut state) % n as u64) as usize;
        let degree = a.row_nnz(r) as u64;
        max_degree = max_degree.max(degree);
        total += degree;
    }
    let mean = (total / samples as u64).max(1);
    if max_degree >= AUTO_SKEW_RATIO * mean {
        ReorderStrategy::Degree
    } else if a.nrows() == a.ncols() && bandwidth(a) > (n as u64) / 4 {
        ReorderStrategy::Rcm
    } else {
        ReorderStrategy::Cluster
    }
}

/// Reorder instrument handles, registered as one unit so every strategy
/// cell exists as soon as any of them is touched — exports stay
/// byte-deterministic whichever strategies a run exercises.
struct ReorderInstruments {
    /// Permutations planned, by resolved concrete strategy (indexed
    /// `None`/`Degree`/`Rcm`/`Cluster`; `Auto` always resolves first).
    plans: [Counter; 4],
}

fn reorder_instruments() -> &'static ReorderInstruments {
    static INSTRUMENTS: OnceLock<ReorderInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let reg = br_obs::global();
        let help = "Plan-time row reorderings, by resolved strategy.";
        ReorderInstruments {
            plans: [
                reg.counter("br_reorder_plans_total", help, &[("strategy", "none")]),
                reg.counter("br_reorder_plans_total", help, &[("strategy", "degree")]),
                reg.counter("br_reorder_plans_total", help, &[("strategy", "rcm")]),
                reg.counter("br_reorder_plans_total", help, &[("strategy", "cluster")]),
            ],
        }
    })
}

/// Structural bandwidth before reordering. Which problem wrote last
/// depends on scheduling, so the gauge is timing-flagged.
fn bandwidth_before_gauge() -> &'static br_obs::Gauge {
    static GAUGE: OnceLock<br_obs::Gauge> = OnceLock::new();
    GAUGE.get_or_init(|| {
        br_obs::global().timing_gauge(
            "br_reorder_bandwidth_before",
            "Structural bandwidth of A before reordering (last plan built).",
            &[],
        )
    })
}

/// Structural bandwidth after reordering; timing-flagged like `before`.
fn bandwidth_after_gauge() -> &'static br_obs::Gauge {
    static GAUGE: OnceLock<br_obs::Gauge> = OnceLock::new();
    GAUGE.get_or_init(|| {
        br_obs::global().timing_gauge(
            "br_reorder_bandwidth_after",
            "Structural bandwidth of A after reordering (last plan built).",
            &[],
        )
    })
}

/// Pre-registers every `br_reorder_*` instrument cell (the per-strategy
/// plan counter and both bandwidth gauges) without recording anything,
/// so metric exports carry the same cell set whether or not a run built
/// any reordered plan.
pub fn register_reorder_instruments() {
    let _ = reorder_instruments();
    let _ = bandwidth_before_gauge();
    let _ = bandwidth_after_gauge();
}

/// Resolves `strategy` (running [`auto_select`] for `Auto`), builds the
/// permutation over A's row structure, and records the reorder
/// instruments. Returns the resolved strategy plus the permutation —
/// `None` both for strategy `none` and whenever the chosen order turns
/// out to be the identity (already-sorted input), so default-path plans
/// carry no permutation at all.
pub fn plan_permutation<T: Scalar>(
    a: &CsrMatrix<T>,
    strategy: ReorderStrategy,
) -> (ReorderStrategy, Option<Permutation>) {
    let resolved = match strategy {
        ReorderStrategy::Auto => auto_select(a),
        concrete => concrete,
    };
    let _span = br_obs::global().span("reorder_build");
    reorder_instruments().plans[resolved as usize].add(1);
    let order = match resolved {
        ReorderStrategy::None => return (resolved, None),
        ReorderStrategy::Degree => degree_order(a),
        ReorderStrategy::Rcm => rcm_order(a),
        ReorderStrategy::Cluster => cluster_order(a),
        ReorderStrategy::Auto => unreachable!("auto resolves before dispatch"),
    };
    bandwidth_before_gauge().set(bandwidth(a) as f64);
    bandwidth_after_gauge().set(bandwidth_under(a, Some(&order)) as f64);
    let permutation = Permutation::from_forward(order);
    if permutation.is_identity() {
        (resolved, None)
    } else {
        (resolved, Some(permutation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_sparse::CooMatrix;

    fn sample() -> CsrMatrix<f64> {
        // Row degrees 3, 1, 0, 2 over a 4x4 structure.
        let mut coo = CooMatrix::new(4, 4);
        for &(r, c) in &[(0, 0), (0, 2), (0, 3), (1, 1), (3, 0), (3, 3)] {
            coo.push(r, c, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn parse_accepts_every_choice_and_rejects_garbage() {
        for (text, want) in [
            ("none", ReorderStrategy::None),
            ("degree", ReorderStrategy::Degree),
            ("RCM", ReorderStrategy::Rcm),
            (" cluster ", ReorderStrategy::Cluster),
            ("auto", ReorderStrategy::Auto),
        ] {
            assert_eq!(ReorderStrategy::parse(text).unwrap(), want);
        }
        let err = ReorderStrategy::parse("degre").unwrap_err();
        assert_eq!(err, ReorderParseError::Unknown("degre".to_string()));
        assert!(err.to_string().contains("valid strategies: none, degree"));
    }

    #[test]
    fn fingerprints_keep_none_at_zero_and_never_alias() {
        assert_eq!(ReorderStrategy::None.fingerprint(), 0);
        let prints: Vec<u64> = [
            ReorderStrategy::Degree,
            ReorderStrategy::Rcm,
            ReorderStrategy::Cluster,
            ReorderStrategy::Auto,
        ]
        .iter()
        .map(|s| s.fingerprint())
        .collect();
        for (i, &p) in prints.iter().enumerate() {
            assert_ne!(p, 0);
            for &q in &prints[i + 1..] {
                assert_ne!(p, q);
            }
        }
    }

    #[test]
    fn permutation_inverse_round_trips() {
        let p = Permutation::from_forward(vec![2, 0, 3, 1]);
        for i in 0..4 {
            assert_eq!(p.inverse()[p.forward()[i] as usize], i as u32);
        }
        assert!(!p.is_identity());
        assert!(Permutation::identity(5).is_identity());
        assert!(Permutation::identity(0).is_identity());
    }

    #[test]
    fn degree_order_is_nnz_descending_with_index_ties() {
        let a = sample();
        assert_eq!(degree_order(&a), vec![0, 3, 1, 2]);
        // All-equal degrees keep the input order.
        let i = CsrMatrix::<f64>::identity(4);
        assert_eq!(degree_order(&i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn orders_are_permutations_of_all_rows() {
        let a = sample();
        for order in [degree_order(&a), rcm_order(&a), cluster_order(&a)] {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn rcm_reduces_bandwidth_on_a_banded_matrix_in_reverse_order() {
        // An arrowhead matrix: row 0 touches everyone. RCM-style BFS from
        // the min-degree corner pushes the hub to the far end.
        let n = 8;
        let mut coo = CooMatrix::new(n as usize, n as usize);
        for c in 0..n {
            coo.push(0, c, 1.0).unwrap();
        }
        for r in 1..n {
            coo.push(r, r, 1.0).unwrap();
            coo.push(r, 0, 1.0).unwrap();
        }
        let a = coo.to_csr();
        let order = rcm_order(&a);
        // BFS starts from a min-degree spoke, so the hub (row 0) is
        // visited early and the reversal pushes it toward the tail.
        let hub_at = order.iter().position(|&r| r == 0).unwrap();
        assert!(hub_at >= n as usize / 2, "hub must sit in the tail half");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn cluster_order_groups_identical_row_patterns() {
        let mut coo = CooMatrix::new(6, 16);
        // Rows 0, 3, 5 share one pattern; rows 1, 4 share another.
        for &r in &[0, 3, 5] {
            coo.push(r, 1, 1.0).unwrap();
            coo.push(r, 9, 1.0).unwrap();
        }
        for &r in &[1, 4] {
            coo.push(r, 12, 1.0).unwrap();
        }
        coo.push(2, 5, 1.0).unwrap();
        let order = cluster_order(&coo.to_csr());
        let pos = |r: u32| order.iter().position(|&x| x == r).unwrap();
        let spread = |rows: &[u32]| {
            rows.iter().map(|&r| pos(r)).max().unwrap()
                - rows.iter().map(|&r| pos(r)).min().unwrap()
        };
        assert_eq!(spread(&[0, 3, 5]), 2, "identical rows must be adjacent");
        assert_eq!(spread(&[1, 4]), 1, "identical rows must be adjacent");
    }

    #[test]
    fn bandwidth_matches_hand_computation() {
        let a = sample();
        // Widest entry: (0,3) or (3,0) → 3.
        assert_eq!(bandwidth(&a), 3);
        assert_eq!(bandwidth(&CsrMatrix::<f64>::identity(7)), 0);
        assert_eq!(bandwidth(&CsrMatrix::<f64>::zeros(3, 3)), 0);
    }

    #[test]
    fn auto_select_is_deterministic_and_handles_degenerates() {
        let empty = CsrMatrix::<f64>::zeros(0, 0);
        assert_eq!(auto_select(&empty), ReorderStrategy::None);
        let blank = CsrMatrix::<f64>::zeros(5, 5);
        assert_eq!(auto_select(&blank), ReorderStrategy::None);
        let a = sample();
        assert_eq!(auto_select(&a), auto_select(&a));
    }

    #[test]
    fn plan_permutation_resolves_none_and_identity_to_no_permutation() {
        let a = sample();
        let (resolved, perm) = plan_permutation(&a, ReorderStrategy::None);
        assert_eq!(resolved, ReorderStrategy::None);
        assert!(perm.is_none());
        // Identity input under degree sort (all-equal degrees) stays put.
        let i = CsrMatrix::<f64>::identity(4);
        let (resolved, perm) = plan_permutation(&i, ReorderStrategy::Degree);
        assert_eq!(resolved, ReorderStrategy::Degree);
        assert!(perm.is_none(), "already-sorted input needs no permutation");
    }

    #[test]
    fn plan_permutation_resolves_auto_to_a_concrete_strategy() {
        let a = sample();
        let (resolved, _) = plan_permutation(&a, ReorderStrategy::Auto);
        assert_ne!(resolved, ReorderStrategy::Auto);
    }

    #[test]
    fn serde_round_trips_strategy_and_permutation() {
        let p = Permutation::from_forward(vec![1, 2, 0]);
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<Permutation>(&json).unwrap(), p);
        for s in [
            ReorderStrategy::None,
            ReorderStrategy::Degree,
            ReorderStrategy::Rcm,
            ReorderStrategy::Cluster,
            ReorderStrategy::Auto,
        ] {
            let json = serde_json::to_string(&s).unwrap();
            assert_eq!(serde_json::from_str::<ReorderStrategy>(&json).unwrap(), s);
        }
    }
}
