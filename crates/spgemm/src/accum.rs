//! Adaptive row-binned numeric merge engine.
//!
//! The paper's core move is *classify, then specialize*: measure each
//! block's workload and give overloaded and underloaded blocks different
//! treatment. This module applies the same idea to the **host** numeric
//! path (the real arithmetic behind every simulated run): every output row
//! is binned by its intermediate-product upper bound — the `row_products`
//! quantity the symbolic precalculation already computes — and merged by a
//! per-bin kernel, bhSPARSE-style:
//!
//! * **tiny** rows (few products) → an insertion-sorted small buffer; no
//!   hashing, no dense sweep, output already sorted.
//! * **medium** rows → an open-addressing hash table sized to the row's
//!   upper bound; gather + sort at the end.
//! * **heavy** rows → a generation-stamped dense accumulator (SPA): clears
//!   cost O(row nnz), not O(ncols), because a stamp comparison replaces
//!   zeroing the whole array.
//! * **kway** rows (the heaviest, past `kway_min`) → the dense SPA too.
//!   The kway bin selects the simulated SpArch-style tournament launch
//!   ([`crate::merge::kway`]); on the host its rows are heavy rows.
//!
//! **Bin choice cannot change the numeric result.** All three mergers
//! accumulate the products of one output column in *generation order* —
//! `k` ascending within the A-row, `j` ascending within each B-row — which
//! is exactly the order [`spgemm_gustavson`](br_sparse::ops::spgemm_gustavson)
//! adds them in, and all three emit the row sorted by column. Floating-point
//! addition is deterministic for a fixed order, so the output is bit-for-bit
//! the dense-SPA reference at every thread count and threshold setting; the
//! thresholds are purely a performance knob.
//!
//! All per-row state lives in a reusable [`MergeScratch`]; in steady state
//! (scratch warm, output buffers at capacity) the merge loop performs zero
//! heap allocations. `br-service` workers keep scratches in a
//! [`ScratchPool`] across jobs, and [`RowBins`] — a pure function of the
//! operands' structure — is cached alongside the `ReorgPlan` under the same
//! `ProblemSignature` key.
//!
//! **Values only, once C's pattern is known.** C's pattern is a pure
//! function of the operands' patterns (explicit zeros are kept, nothing is
//! filtered), so a plan that has merged its structure once can keep it as a
//! [`CsrPattern`]. [`spgemm_values_only`] then maps each row's columns to
//! their output slots and scatters every product into its slot in
//! generation order — the first product written, the rest added, as in
//! every merger — with no sort, insertion, probe or stitch. A pattern that
//! does not fit the operands is refused, and the adaptive merge runs
//! instead.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use br_obs::Counter;
use br_sparse::ops::row_intermediate_nnz_threaded;
use br_sparse::{par, CsrMatrix, Result, Scalar, SparseError};
use serde::{Deserialize, Serialize};

/// Merge-phase instrument handles, registered as one unit so every cell
/// (including the kway ones) exists as soon as any of them is touched —
/// exports stay byte-deterministic even when a bin merged nothing.
struct MergeInstruments {
    /// Per-bin row counters, one per [`RowBin`] (indexed by `bin as usize`).
    rows: [Counter; 4],
    /// Total sorted runs the simulated k-way tournament merges for the
    /// kway rows — a pure function of the merged work (bins + operand
    /// structure).
    kway_runs: Counter,
}

/// Handles are cached so the merge hot path never touches the registry
/// lock; counts are batched per [`merge_rows_into`] call, and additions
/// commute, so the totals are a pure function of the merged work at any
/// thread count.
fn merge_instruments() -> &'static MergeInstruments {
    static INSTRUMENTS: OnceLock<MergeInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let reg = br_obs::global();
        let help = "Output rows merged, by bin kernel.";
        MergeInstruments {
            rows: [
                reg.counter("br_spgemm_rows_merged_total", help, &[("bin", "tiny")]),
                reg.counter("br_spgemm_rows_merged_total", help, &[("bin", "medium")]),
                reg.counter("br_spgemm_rows_merged_total", help, &[("bin", "heavy")]),
                reg.counter("br_spgemm_rows_merged_total", help, &[("bin", "kway")]),
            ],
            kway_runs: reg.counter(
                "br_spgemm_kway_runs_total",
                "Sorted partial-row runs merged through the k-way tournament tree.",
                &[],
            ),
        }
    })
}

/// Scratch footprint high-water gauge. Which scratch handles which rows
/// (and therefore how far each one grows) depends on pool assignment and
/// the thread partition, so this is timing-flagged.
fn scratch_footprint_gauge() -> &'static br_obs::Gauge {
    static GAUGE: OnceLock<br_obs::Gauge> = OnceLock::new();
    GAUGE.get_or_init(|| {
        br_obs::global().timing_gauge(
            "br_spgemm_scratch_footprint_bytes",
            "High-water merge-scratch footprint (scheduling/pool-dependent).",
            &[],
        )
    })
}

/// Pre-registers every merge-phase instrument cell (per-bin row counters,
/// the kway run counter, and the scratch high-water gauge) without
/// recording anything. Metric exports taken before any merge — or from a
/// run whose kway bin stayed empty — then carry the same cell set as a
/// busy run, keeping the rendered output byte-deterministic.
pub fn register_merge_instruments() {
    let _ = merge_instruments();
    let _ = scratch_footprint_gauge();
}

/// Row-bin boundaries on the intermediate-product upper bound.
///
/// A row with `products <= tiny_max` is **tiny**; otherwise, a row with
/// `products >= kway_min` is **kway**; otherwise, a row with
/// `products >= heavy_min` is **heavy**; everything in between is
/// **medium**. `kway_min = u64::MAX` (the default) disables the kway bin
/// entirely. Degenerate settings are legal and simply collapse bins
/// (e.g. `tiny_max = u64::MAX` sends every row through the small buffer) —
/// the numeric result is identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinThresholds {
    /// Largest upper bound still handled by the tiny-bin small buffer.
    pub tiny_max: u64,
    /// Smallest upper bound handled by the heavy-bin dense accumulator.
    pub heavy_min: u64,
    /// Smallest upper bound in the kway bin, whose rows the simulated
    /// k-way tournament merges (the host merges them in the dense SPA).
    /// `u64::MAX` disables the bin.
    pub kway_min: u64,
}

impl Default for BinThresholds {
    /// Tiny rows fit a cache line of products; heavy rows are those whose
    /// hash table would rival the dense accumulator anyway. The k-way
    /// bin is off by default — the estimator opts in per problem.
    fn default() -> Self {
        BinThresholds {
            tiny_max: 16,
            heavy_min: 2048,
            kway_min: u64::MAX,
        }
    }
}

impl BinThresholds {
    /// Measurement-backed thresholds for a problem with `ncols` output
    /// columns. The hash bin only pays off once the dense accumulator
    /// (stamps + values, ~9 bytes per column) stops being cache-resident:
    /// below that, probing costs more per product than a direct dense
    /// write, and routing medium rows through the hash table is a strict
    /// loss (measured ~20-40% on RMAT squarings up to 2^17 columns, ~6%
    /// win at 2^20). Small problems therefore get an empty medium band.
    /// The k-way bin stays off here; `select_thresholds` places the
    /// kway/dense-SPA crossover per problem from the workload estimate.
    pub fn recommended(ncols: usize) -> BinThresholds {
        const HASH_PAYS_OFF_COLS: usize = 1 << 19;
        if ncols < HASH_PAYS_OFF_COLS {
            BinThresholds {
                tiny_max: 16,
                heavy_min: 17,
                kway_min: u64::MAX,
            }
        } else {
            BinThresholds::default()
        }
    }

    /// The bin a row with the given intermediate-product upper bound
    /// lands in. Tiny wins over every other bin, and kway wins over
    /// heavy, when the thresholds overlap.
    pub fn bin_of(&self, products: u64) -> RowBin {
        if products <= self.tiny_max {
            RowBin::Tiny
        } else if products >= self.kway_min {
            RowBin::Kway
        } else if products >= self.heavy_min {
            RowBin::Heavy
        } else {
            RowBin::Medium
        }
    }

    /// Whether any row can land in the k-way bin under these thresholds.
    pub fn kway_enabled(&self) -> bool {
        self.kway_min < u64::MAX
    }
}

/// Which merge kernel handles a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBin {
    /// Insertion-sorted small buffer.
    Tiny,
    /// Open-addressing hash table.
    Medium,
    /// Generation-stamped dense accumulator.
    Heavy,
    /// The simulated k-way tournament merge over sorted partial-row runs;
    /// the host merges these rows in the dense accumulator.
    Kway,
}

/// Number of row bins ([`RowBin`] variants).
pub const NUM_BINS: usize = 4;

/// Counts every [`RowBins::classify`] run in this process — the
/// re-binning tripwire: a plan-cache hit must serve the stored bins
/// instead of classifying again.
static CLASSIFY_RUNS: AtomicU64 = AtomicU64::new(0);

/// Number of [`RowBins::classify`] runs so far in this process.
pub fn classification_runs() -> u64 {
    CLASSIFY_RUNS.load(Ordering::SeqCst)
}

/// Counts every [`spgemm_values_only`] pass that produced its result —
/// the tripwire showing which executions skipped the merge.
static VALUES_ONLY_RUNS: AtomicU64 = AtomicU64::new(0);

/// Number of values-only passes so far in this process.
pub fn values_only_runs() -> u64 {
    VALUES_ONLY_RUNS.load(Ordering::SeqCst)
}

/// The row-binning artifact: per-row intermediate-product upper bounds
/// plus the thresholds they were binned under.
///
/// A pure function of the operands' *structure* (never their values), so
/// it is cacheable under the same `ProblemSignature` key as a `ReorgPlan`
/// — `br-service` stores it inside the plan and reuses it on every cache
/// hit. The stored `row_products` double as the weights for the balanced
/// row partition, so a planned execution skips the weights scan too.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowBins {
    /// Thresholds the summary counts below were computed under.
    pub thresholds: BinThresholds,
    /// Per-row intermediate-product upper bounds (duplicates included).
    pub row_products: Vec<u64>,
    /// Rows per bin: `[tiny, medium, heavy, kway]`.
    pub rows: [u64; NUM_BINS],
    /// Intermediate products per bin: `[tiny, medium, heavy, kway]`.
    pub products: [u64; NUM_BINS],
}

impl RowBins {
    /// Bins each row by its intermediate-product upper bound.
    pub fn classify(row_products: &[u64], thresholds: BinThresholds) -> RowBins {
        CLASSIFY_RUNS.fetch_add(1, Ordering::SeqCst);
        let mut rows = [0u64; NUM_BINS];
        let mut products = [0u64; NUM_BINS];
        for &p in row_products {
            let bin = thresholds.bin_of(p) as usize;
            rows[bin] += 1;
            products[bin] += p;
        }
        RowBins {
            thresholds,
            row_products: row_products.to_vec(),
            rows,
            products,
        }
    }

    /// Classifies the rows of `C = A · B` from the operands' structure,
    /// counting row products over `threads` workers.
    pub fn of<T: Scalar>(
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        thresholds: BinThresholds,
        threads: usize,
    ) -> Result<RowBins> {
        let _span = br_obs::global().span("spgemm_classify");
        let weights = row_intermediate_nnz_threaded(a, b, threads)?;
        Ok(Self::classify(&weights, thresholds))
    }

    /// The same bins with rows gathered into `order`: row `i` of the result
    /// is row `order[i]` of `self`, as in `CsrMatrix::permute_rows`. The
    /// per-bin totals do not depend on row order, so nothing is classified
    /// again.
    pub fn permuted(&self, order: &[u32]) -> RowBins {
        assert_eq!(order.len(), self.nrows(), "order must cover every row");
        RowBins {
            thresholds: self.thresholds,
            row_products: order
                .iter()
                .map(|&r| self.row_products[r as usize])
                .collect(),
            rows: self.rows,
            products: self.products,
        }
    }

    /// Number of classified rows.
    pub fn nrows(&self) -> usize {
        self.row_products.len()
    }

    /// The bin of row `r`.
    pub fn bin(&self, r: usize) -> RowBin {
        self.thresholds.bin_of(self.row_products[r])
    }

    /// Rows that landed in the k-way bin.
    pub fn kway_rows(&self) -> u64 {
        self.rows[RowBin::Kway as usize]
    }
}

/// C's sparsity pattern without its values: row pointer and column
/// indices, as a merge emitted them (rows sorted by column).
///
/// Built only from a merged result ([`CsrPattern::of`]), so it is always a
/// valid CSR pattern. [`spgemm_values_only`] fills it with the values of
/// any operand pair with the same structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrPattern {
    ncols: usize,
    ptr: Vec<usize>,
    idx: Vec<u32>,
}

impl CsrPattern {
    /// The pattern of `c`.
    pub fn of<T: Scalar>(c: &CsrMatrix<T>) -> CsrPattern {
        CsrPattern {
            ncols: c.ncols(),
            ptr: c.ptr().to_vec(),
            idx: c.idx().to_vec(),
        }
    }

    /// Number of rows.
    pub(crate) fn nrows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Number of columns.
    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Heap bytes of the two arrays: `(nrows + 1) · 8 + nnz · 4`.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.ptr.len() * size_of::<usize>() + self.idx.len() * size_of::<u32>()
    }
}

/// What one call merged: rows per bin and the runs the simulated k-way
/// tree merges for the kway rows, the units of
/// `br_spgemm_rows_merged_total` and `br_spgemm_kway_runs_total`. A pure
/// function of the merged rows, whichever pass merged them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeTally {
    /// Rows merged per bin: `[tiny, medium, heavy, kway]`.
    pub rows: [u64; NUM_BINS],
    /// Sorted runs a k-way merge of the kway rows feeds its tree.
    pub kway_runs: u64,
}

impl MergeTally {
    /// Counts a row of `A` with columns `a_cols` as merged in `bin`.
    fn count(&mut self, bin: RowBin, a_cols: &[u32], b: &CsrMatrix<impl Scalar>) {
        self.rows[bin as usize] += 1;
        if bin == RowBin::Kway {
            // One run per A-row entry whose B-row is not empty.
            self.kway_runs += a_cols
                .iter()
                .filter(|&&k| b.row_nnz(k as usize) > 0)
                .count() as u64;
        }
    }

    /// The two tallies summed.
    fn plus(mut self, other: MergeTally) -> MergeTally {
        for (mine, theirs) in self.rows.iter_mut().zip(other.rows) {
            *mine += theirs;
        }
        self.kway_runs += other.kway_runs;
        self
    }

    /// Adds this tally to the merge counters: one atomic add per bin, not
    /// per row. Additions commute, so the totals are a pure function of
    /// the merged work at any thread count.
    fn record(&self) {
        let instruments = merge_instruments();
        for (counter, &n) in instruments.rows.iter().zip(&self.rows) {
            if n > 0 {
                counter.add(n);
            }
        }
        if self.kway_runs > 0 {
            instruments.kway_runs.add(self.kway_runs);
        }
    }
}

/// Reusable per-thread merge state for all three bin kernels.
///
/// Grow-only: buffers are sized to the largest row seen and kept across
/// rows (and, pooled, across jobs), so a warm scratch performs no heap
/// allocation per row. Clearing is O(touched entries): the dense side
/// compares a per-column stamp against the current generation instead of
/// zeroing `ncols` slots, and the hash side resets exactly the slots its
/// `used` list recorded.
#[derive(Debug)]
pub struct MergeScratch<T> {
    // Dense SPA (heavy rows): stamps[j] == generation ⇔ vals[j] is live.
    // One-byte stamps keep the stamp array 4x denser in cache than a
    // u32 generation would; the cheap wrap refill every 255 rows is the
    // price, amortized to O(ncols/255) per row.
    stamps: Vec<u8>,
    dense_vals: Vec<T>,
    generation: u8,
    touched: Vec<u32>,
    // Open-addressing table (medium rows): keys u32::MAX = empty.
    hash_keys: Vec<u32>,
    hash_vals: Vec<T>,
    hash_used: Vec<usize>,
    // Gather buffer shared by the hash path, and the tiny-bin
    // insertion-sorted buffer.
    row_buf: Vec<(u32, T)>,
    // Values-only pass: per column, (stamp, position in the row). Column
    // j is in the current row's pattern when its stamp is the row's `open`
    // stamp (no product yet) or `filled` stamp (first product written).
    slots: Vec<(u32, u32)>,
    slot_stamp: u32,
}

impl<T: Scalar> Default for MergeScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> MergeScratch<T> {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MergeScratch {
            stamps: Vec::new(),
            dense_vals: Vec::new(),
            generation: 0,
            touched: Vec::new(),
            hash_keys: Vec::new(),
            hash_vals: Vec::new(),
            hash_used: Vec::new(),
            row_buf: Vec::new(),
            slots: Vec::new(),
            slot_stamp: 0,
        }
    }

    /// Approximate heap footprint of this scratch's buffers — the
    /// high-water quantity exported through the obs gauge.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.stamps.capacity() * size_of::<u8>()
            + self.dense_vals.capacity() * size_of::<T>()
            + self.touched.capacity() * size_of::<u32>()
            + self.hash_keys.capacity() * size_of::<u32>()
            + self.hash_vals.capacity() * size_of::<T>()
            + self.hash_used.capacity() * size_of::<usize>()
            + self.row_buf.capacity() * size_of::<(u32, T)>()
            + self.slots.capacity() * size_of::<(u32, u32)>()
    }

    /// Grows the dense accumulator to cover `ncols` columns (stamp 0 =
    /// never touched; the live generation starts at 1).
    fn ensure_dense(&mut self, ncols: usize) {
        if self.stamps.len() < ncols {
            self.stamps.resize(ncols, 0);
            self.dense_vals.resize(ncols, T::ZERO);
        }
    }

    /// Grows the hash table to at least `cap` slots (a power of two).
    /// Existing slots are empty between rows, so a grow keeps the
    /// all-`u32::MAX` invariant.
    fn ensure_hash(&mut self, cap: usize) {
        if self.hash_keys.len() < cap {
            self.hash_keys.resize(cap, u32::MAX);
            self.hash_vals.resize(cap, T::ZERO);
        }
    }

    /// Doubles the hash table mid-row and reinserts the live entries.
    ///
    /// Bit-identity safe: each key moves with its *accumulated* value, so
    /// the per-column addition order is untouched, and the gather at the
    /// end of [`Self::merge_row_hash`] sorts by column anyway — capacity
    /// only ever changes probe paths. `row_buf` doubles as staging; it is
    /// idle during accumulation and cleared before the gather.
    fn grow_rehash(&mut self) {
        self.row_buf.clear();
        for &slot in &self.hash_used {
            self.row_buf
                .push((self.hash_keys[slot], self.hash_vals[slot]));
            self.hash_keys[slot] = u32::MAX;
        }
        let new_cap = (self.hash_keys.len() * 2).max(4);
        self.hash_keys.resize(new_cap, u32::MAX);
        self.hash_vals.resize(new_cap, T::ZERO);
        self.hash_used.clear();
        let mask = new_cap - 1;
        for i in 0..self.row_buf.len() {
            let (j, v) = self.row_buf[i];
            let mut slot = (j as usize).wrapping_mul(0x9E37_79B1) & mask;
            while self.hash_keys[slot] != u32::MAX {
                slot = (slot + 1) & mask;
            }
            self.hash_keys[slot] = j;
            self.hash_vals[slot] = v;
            self.hash_used.push(slot);
        }
        self.row_buf.clear();
    }

    /// Advances the dense generation, recycling the stamp space on wrap.
    fn next_generation(&mut self) -> u8 {
        if self.generation == u8::MAX {
            self.stamps.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }

    /// Heavy and kway bins: generation-stamped dense SPA. Accumulation
    /// order and the sorted gather match `spgemm_gustavson` exactly.
    fn merge_row_dense(
        &mut self,
        a_cols: &[u32],
        a_vals: &[T],
        b: &CsrMatrix<T>,
        idx: &mut Vec<u32>,
        val: &mut Vec<T>,
    ) {
        let generation = self.next_generation();
        self.touched.clear();
        for (&k, &a_rk) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k as usize);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                let slot = j as usize;
                if self.stamps[slot] != generation {
                    self.stamps[slot] = generation;
                    self.dense_vals[slot] = a_rk * b_kj;
                    self.touched.push(j);
                } else {
                    self.dense_vals[slot] += a_rk * b_kj;
                }
            }
        }
        self.touched.sort_unstable();
        for &j in &self.touched {
            idx.push(j);
            val.push(self.dense_vals[j as usize]);
        }
    }

    /// Medium bin: open-addressing hash (multiplicative hashing, linear
    /// probing — the standard GPU spGEMM table design), gather + sort.
    /// `cap` is the power-of-two slot count for this row; the table may be
    /// larger from an earlier row, which only changes probe paths, never
    /// the per-column accumulation order.
    ///
    /// `cap` is only a *hint*: when the planner bins rows from **estimated**
    /// upper bounds, a row can hold more distinct columns than the table was
    /// sized for. Inserting a new key while the table is at least half full
    /// doubles it first ([`Self::grow_rehash`]), so the probe loop always
    /// terminates. With exact bounds `cap = 2·products ≥ 2·distinct`, so the
    /// growth path never triggers and behavior is unchanged.
    fn merge_row_hash(
        &mut self,
        a_cols: &[u32],
        a_vals: &[T],
        b: &CsrMatrix<T>,
        cap: usize,
        idx: &mut Vec<u32>,
        val: &mut Vec<T>,
    ) {
        self.ensure_hash(cap);
        let mut mask = self.hash_keys.len() - 1;
        self.hash_used.clear();
        for (&k, &a_rk) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k as usize);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                let mut slot = (j as usize).wrapping_mul(0x9E37_79B1) & mask;
                loop {
                    if self.hash_keys[slot] == j {
                        self.hash_vals[slot] += a_rk * b_kj;
                        break;
                    }
                    if self.hash_keys[slot] == u32::MAX {
                        if (self.hash_used.len() + 1) * 2 > self.hash_keys.len() {
                            self.grow_rehash();
                            mask = self.hash_keys.len() - 1;
                            slot = (j as usize).wrapping_mul(0x9E37_79B1) & mask;
                            continue;
                        }
                        self.hash_keys[slot] = j;
                        self.hash_vals[slot] = a_rk * b_kj;
                        self.hash_used.push(slot);
                        break;
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
        self.row_buf.clear();
        for &slot in &self.hash_used {
            self.row_buf
                .push((self.hash_keys[slot], self.hash_vals[slot]));
            self.hash_keys[slot] = u32::MAX; // restore the empty invariant
        }
        self.row_buf.sort_unstable_by_key(|&(j, _)| j);
        for &(j, v) in &self.row_buf {
            idx.push(j);
            val.push(v);
        }
    }

    /// Tiny bin: insertion into a small buffer kept sorted by column.
    /// Duplicate columns accumulate in place (generation order), so the
    /// per-column sums — and the already-sorted output — match the SPA.
    fn merge_row_tiny(
        &mut self,
        a_cols: &[u32],
        a_vals: &[T],
        b: &CsrMatrix<T>,
        idx: &mut Vec<u32>,
        val: &mut Vec<T>,
    ) {
        self.row_buf.clear();
        for (&k, &a_rk) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k as usize);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                match self.row_buf.binary_search_by_key(&j, |&(c, _)| c) {
                    Ok(pos) => self.row_buf[pos].1 += a_rk * b_kj,
                    Err(pos) => self.row_buf.insert(pos, (j, a_rk * b_kj)),
                }
            }
        }
        for &(j, v) in &self.row_buf {
            idx.push(j);
            val.push(v);
        }
    }

    /// Grows the values-only slot map to cover `ncols` columns (stamp 0 =
    /// never in a pattern; live stamps start at 1).
    fn ensure_slots(&mut self, ncols: usize) {
        if self.slots.len() < ncols {
            self.slots.resize(ncols, (0, 0));
        }
    }

    /// The `(open, filled)` stamp pair of the next values-only row,
    /// recycling the stamp space when it runs out.
    fn next_slot_stamps(&mut self) -> (u32, u32) {
        if self.slot_stamp >= u32::MAX - 1 {
            self.slots.fill((0, 0));
            self.slot_stamp = 0;
        }
        self.slot_stamp += 2;
        (self.slot_stamp - 1, self.slot_stamp)
    }

    /// Values-only row: scatters the row's products into `out`, the values
    /// of the output row whose columns are `cols`. Products arrive in
    /// generation order; each entry's first product is written and the
    /// rest are added, which is every merger's arithmetic, so `out` is
    /// bitwise what a merge would emit. Returns `false` when the pattern
    /// does not fit: a product's column is not in `cols`, or an entry of
    /// `cols` gets no product.
    fn scatter_row(
        &mut self,
        a_cols: &[u32],
        a_vals: &[T],
        b: &CsrMatrix<T>,
        cols: &[u32],
        out: &mut [T],
    ) -> bool {
        let (open, filled) = self.next_slot_stamps();
        for (pos, &j) in cols.iter().enumerate() {
            self.slots[j as usize] = (open, pos as u32);
        }
        let mut written = 0usize;
        for (&k, &a_rk) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k as usize);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                let slot = &mut self.slots[j as usize];
                let pos = slot.1 as usize;
                if slot.0 == filled {
                    out[pos] += a_rk * b_kj;
                } else if slot.0 == open {
                    slot.0 = filled;
                    out[pos] = a_rk * b_kj;
                    written += 1;
                } else {
                    return false;
                }
            }
        }
        written == cols.len()
    }
}

/// A shared pool of [`MergeScratch`]es — `br-service` workers draw from it
/// per job and return the warmed-up scratch afterwards, so steady-state
/// jobs merge without growing (or allocating) any per-row buffer.
#[derive(Debug)]
pub struct ScratchPool<T> {
    free: Mutex<Vec<MergeScratch<T>>>,
}

impl<T: Scalar> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> ScratchPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Takes a scratch out of the pool (or a fresh one when empty).
    pub fn acquire(&self) -> MergeScratch<T> {
        self.free
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
            .unwrap_or_default()
    }

    /// Returns a scratch for reuse.
    pub fn release(&self, scratch: MergeScratch<T>) {
        self.free
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(scratch);
    }

    /// Scratches currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

/// Merges output rows `rows` of `C = A · B` into caller-owned CSR triple
/// buffers, dispatching each row to its bin's kernel.
///
/// The buffers are cleared, then filled so that `ptr` holds
/// `rows.len() + 1` range-local offsets starting at 0. Reusing buffers
/// that already reached capacity (and a warm `scratch`) makes the whole
/// call allocation-free — the property the counting-allocator test pins
/// down.
#[allow(clippy::too_many_arguments)]
pub fn merge_rows_into<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: Range<usize>,
    bins: &RowBins,
    scratch: &mut MergeScratch<T>,
    ptr: &mut Vec<usize>,
    idx: &mut Vec<u32>,
    val: &mut Vec<T>,
) {
    ptr.clear();
    idx.clear();
    val.clear();
    ptr.push(0);
    scratch.ensure_dense(b.ncols());
    let mut tally = MergeTally::default();
    for r in rows {
        let (a_cols, a_vals) = a.row(r);
        let products = bins.row_products[r];
        let bin = bins.thresholds.bin_of(products);
        match bin {
            RowBin::Tiny => scratch.merge_row_tiny(a_cols, a_vals, b, idx, val),
            RowBin::Medium => {
                let cap = ((products.max(1) as usize) * 2).next_power_of_two();
                scratch.merge_row_hash(a_cols, a_vals, b, cap, idx, val);
            }
            RowBin::Heavy | RowBin::Kway => scratch.merge_row_dense(a_cols, a_vals, b, idx, val),
        }
        tally.count(bin, a_cols, b);
        ptr.push(idx.len());
    }
    tally.record();
    scratch_footprint_gauge().set_max(scratch.footprint_bytes() as f64);
}

/// Values-only merge of output rows `rows` of `C = A · B`, whose pattern is
/// `pattern`: fills `val` — C's values from entry `pattern.ptr[rows.start]`
/// to entry `pattern.ptr[rows.end]` — through the per-row scatter, and
/// returns what it merged per bin, which [`spgemm_values_only`] records
/// once every range has succeeded. `None` means the pattern does not fit
/// these rows of the operands; `val` then holds garbage.
///
/// A warm `scratch` makes the call allocation-free.
///
/// # Panics
///
/// When `pattern` does not have `A`'s rows and `B`'s columns, or `val`
/// does not have the rows' entry count.
pub fn scatter_rows_into<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: Range<usize>,
    pattern: &CsrPattern,
    bins: &RowBins,
    scratch: &mut MergeScratch<T>,
    val: &mut [T],
) -> Option<MergeTally> {
    assert!(
        pattern.nrows() == a.nrows() && pattern.ncols() == b.ncols(),
        "pattern must have A's rows and B's columns"
    );
    let base = pattern.ptr[rows.start];
    assert_eq!(
        val.len(),
        pattern.ptr[rows.end] - base,
        "one value per entry"
    );
    scratch.ensure_slots(b.ncols());
    let mut tally = MergeTally::default();
    for r in rows {
        let (a_cols, a_vals) = a.row(r);
        let (start, end) = (pattern.ptr[r], pattern.ptr[r + 1]);
        let out = &mut val[start - base..end - base];
        if !scratch.scatter_row(a_cols, a_vals, b, &pattern.idx[start..end], out) {
            return None;
        }
        tally.count(bins.bin(r), a_cols, b);
    }
    scratch_footprint_gauge().set_max(scratch.footprint_bytes() as f64);
    Some(tally)
}

/// Adaptive row-binned spGEMM: classifies rows, then merges each through
/// its bin's kernel over `threads` workers. Bit-identical to
/// [`br_sparse::ops::spgemm_gustavson`] at every thread count and
/// threshold setting.
pub fn spgemm_adaptive<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    threads: usize,
    thresholds: BinThresholds,
) -> Result<CsrMatrix<T>> {
    let bins = RowBins::of(a, b, thresholds, threads)?;
    spgemm_adaptive_planned(a, b, threads, &bins, None)
}

/// Rejects operands that cannot be multiplied, and bins that describe
/// another row count.
fn check_planned_shapes<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    bins: &RowBins,
) -> Result<()> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            op: "spgemm",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.nrows(), b.ncols()),
        });
    }
    if bins.nrows() != a.nrows() {
        return Err(SparseError::InvalidStructure(format!(
            "row bins cover {} rows but A has {}",
            bins.nrows(),
            a.nrows()
        )));
    }
    Ok(())
}

/// A scratch from `pool`, or a fresh one without a pool.
fn acquire_scratch<T: Scalar>(pool: Option<&ScratchPool<T>>) -> MergeScratch<T> {
    pool.map_or_else(MergeScratch::new, ScratchPool::acquire)
}

/// Returns `scratches` to `pool`, if there is one.
fn release_scratches<T: Scalar>(pool: Option<&ScratchPool<T>>, scratches: Vec<MergeScratch<T>>) {
    if let Some(p) = pool {
        for scratch in scratches {
            p.release(scratch);
        }
    }
}

/// The row partition both passes run on, as range bounds: every row in
/// one range on one thread or under 256 rows, else contiguous ranges
/// balanced by the bins' cached per-row products (no symbolic scan).
fn row_bounds(bins: &RowBins, threads: usize) -> Vec<usize> {
    if threads <= 1 || bins.nrows() < 256 {
        vec![0, bins.nrows()]
    } else {
        par::weighted_bounds(&bins.row_products, threads)
    }
}

/// [`spgemm_adaptive`] with a precomputed (typically plan-cached)
/// [`RowBins`] and an optional scratch pool. The bins must describe the
/// same `A` (row count check); the cached `row_products` also serve as the
/// partition weights, so no symbolic scan runs here.
pub fn spgemm_adaptive_planned<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    threads: usize,
    bins: &RowBins,
    pool: Option<&ScratchPool<T>>,
) -> Result<CsrMatrix<T>> {
    check_planned_shapes(a, b, bins)?;
    // The numeric merge phase. Opened on the calling thread (one span per
    // multiply); the fan-out below never opens spans inside short-lived
    // worker threads.
    let _span = br_obs::global().span("spgemm_merge");
    Ok(merge_planned(a, b, threads, bins, pool))
}

/// The adaptive merge, checked and spanned by its callers: each range of
/// the partition merges into its own CSR triple, and the triples are
/// stitched onto the first one in row order.
fn merge_planned<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    threads: usize,
    bins: &RowBins,
    pool: Option<&ScratchPool<T>>,
) -> CsrMatrix<T> {
    let (parts, scratches) = par::ordered_bounds_map_with(
        &row_bounds(bins, threads),
        || acquire_scratch(pool),
        |scratch, range| {
            let (mut ptr, mut idx, mut val) = (Vec::new(), Vec::new(), Vec::new());
            merge_rows_into(a, b, range, bins, scratch, &mut ptr, &mut idx, &mut val);
            (ptr, idx, val)
        },
    );
    release_scratches(pool, scratches);
    let mut parts = parts.into_iter();
    let (mut ptr, mut idx, mut val) = parts.next().expect("the partition has a range");
    for (p_ptr, p_idx, p_val) in parts {
        let base = idx.len();
        ptr.extend(p_ptr.iter().skip(1).map(|&x| base + x));
        idx.extend(p_idx);
        val.extend(p_val);
    }
    CsrMatrix::from_parts_unchecked(a.nrows(), b.ncols(), ptr, idx, val)
}

/// The values-only pass: `C = A · B` when C's pattern is known, bitwise
/// [`spgemm_adaptive_planned`]'s result on the same bins and thread count.
///
/// Each worker owns a contiguous row range of the same balanced partition
/// the adaptive merge uses and writes its rows' values in place, into one
/// value array allocated once; the result takes a copy of the pattern's
/// two arrays. Rows count under `br_spgemm_rows_merged_total` in their
/// plan bins and kway rows under `br_spgemm_kway_runs_total`, exactly as
/// the adaptive merge would count them, inside one `spgemm_merge` span.
///
/// A `pattern` that does not fit the operands (other dimensions, a product
/// outside a row's pattern, or a pattern entry with no product) is
/// refused: the refused pass records nothing, and the adaptive merge
/// computes C inside the same span. Either way one span and the merge's
/// tallies are recorded; [`values_only_runs`] counts only the passes that
/// were not refused.
pub fn spgemm_values_only<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    pattern: &CsrPattern,
    threads: usize,
    bins: &RowBins,
    pool: Option<&ScratchPool<T>>,
) -> Result<CsrMatrix<T>> {
    check_planned_shapes(a, b, bins)?;
    let _span = br_obs::global().span("spgemm_merge");
    Ok(scatter_planned(a, b, pattern, threads, bins, pool)
        .unwrap_or_else(|| merge_planned(a, b, threads, bins, pool)))
}

/// The values-only pass, checked and spanned by [`spgemm_values_only`]:
/// `None`, recording nothing, when `pattern` does not fit.
fn scatter_planned<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    pattern: &CsrPattern,
    threads: usize,
    bins: &RowBins,
    pool: Option<&ScratchPool<T>>,
) -> Option<CsrMatrix<T>> {
    if pattern.nrows() != a.nrows() || pattern.ncols() != b.ncols() {
        return None;
    }
    let bounds = row_bounds(bins, threads);
    let mut val = vec![T::ZERO; pattern.nnz()];
    let mut windows = Vec::with_capacity(bounds.len() - 1);
    let mut rest = val.as_mut_slice();
    for w in bounds.windows(2) {
        let (chunk, tail) = rest.split_at_mut(pattern.ptr[w[1]] - pattern.ptr[w[0]]);
        windows.push((w[0]..w[1], chunk));
        rest = tail;
    }
    let (tallies, scratches) = par::ordered_items_map_with(
        windows,
        || acquire_scratch(pool),
        |scratch, (rows, chunk)| scatter_rows_into(a, b, rows, pattern, bins, scratch, chunk),
    );
    release_scratches(pool, scratches);
    let tally = tallies
        .into_iter()
        .try_fold(MergeTally::default(), |sum, t| Some(sum.plus(t?)))?;
    tally.record();
    VALUES_ONLY_RUNS.fetch_add(1, Ordering::SeqCst);
    Some(CsrMatrix::from_parts_unchecked(
        a.nrows(),
        b.ncols(),
        pattern.ptr.clone(),
        pattern.idx.clone(),
        val,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_sparse::hash::splitmix64;
    use br_sparse::ops::spgemm_gustavson;
    use br_sparse::CooMatrix;

    /// A result's arrays, values as bits: `CsrMatrix`'s `==` compares
    /// values as floats, so `-0.0 == 0.0` there.
    fn bits(c: &CsrMatrix<f64>) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
        (
            c.ptr().to_vec(),
            c.idx().to_vec(),
            c.val().iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// `m` under the two value sets every bitwise test runs on, each drawn
    /// per entry by a seeded hash:
    /// * each weight `w` becomes `w`, `-w`, `0.0` or `-0.0` (3:3:1:1). The
    ///   weights lie in [0.5, 1.5), so sums round differently when their
    ///   products are added in another order, and an order bug shows;
    /// * values from signed zeros, cancelling pairs and a few exact
    ///   magnitudes, so entries sum to `+0.0`, to `-0.0` (all products
    ///   `-0.0`) and to cancelled zeros. These sums are exact in any
    ///   order: they check only that an entry starts at its first product.
    fn value_sets(m: &CsrMatrix<f64>, seed: u64) -> [CsrMatrix<f64>; 2] {
        const EXACT: [f64; 8] = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -2.25];
        let signed = |w: f64, h: u64| match h % 8 {
            0..=2 => w,
            3..=5 => -w,
            6 => 0.0,
            _ => -0.0,
        };
        let exact = |_: f64, h: u64| EXACT[(h % 8) as usize];
        [revalue(m, seed, signed), revalue(m, seed, exact)]
    }

    /// `m`'s structure with each value `w` replaced by `f(w, hash)`.
    fn revalue(m: &CsrMatrix<f64>, seed: u64, f: impl Fn(f64, u64) -> f64) -> CsrMatrix<f64> {
        let mut state = seed;
        let val = m
            .val()
            .iter()
            .map(|&w| f(w, splitmix64(&mut state)))
            .collect();
        CsrMatrix::from_parts_unchecked(
            m.nrows(),
            m.ncols(),
            m.ptr().to_vec(),
            m.idx().to_vec(),
            val,
        )
    }

    /// A seeded `nrows × ncols` operand with every third row empty and up
    /// to `max_row` entries in each other row, weighted in [0.5, 1.5) like
    /// RMAT's.
    fn rectangular(nrows: usize, ncols: usize, max_row: u64, seed: u64) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut state = seed;
        for r in (0..nrows).filter(|r| r % 3 != 0) {
            for _ in 0..splitmix64(&mut state) % max_row {
                let c = splitmix64(&mut state) % ncols as u64;
                let w = 0.5 + (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                coo.push(r as u32, c as u32, w).unwrap();
            }
        }
        coo.to_csr()
    }

    /// The values-only pass over `a · b` on the adaptive merge's bins,
    /// checked bitwise against both that merge and the oracle.
    fn check_values_only(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, threads: &[usize], what: &str) {
        let oracle = bits(&spgemm_gustavson(a, b).unwrap());
        let pattern = CsrPattern::of(&spgemm_gustavson(a, b).unwrap());
        let pool = ScratchPool::new();
        for thresholds in threshold_grid() {
            for &t in threads {
                let bins = RowBins::of(a, b, thresholds, t).unwrap();
                let merged = spgemm_adaptive_planned(a, b, t, &bins, None).unwrap();
                let c = scatter_planned(a, b, &pattern, t, &bins, Some(&pool))
                    .expect("the product's own pattern fits");
                let at = format!("{what}: threads={t} thresholds={thresholds:?}");
                assert_eq!(bits(&merged), oracle, "{at}");
                assert_eq!(bits(&c), oracle, "{at}");
            }
        }
    }

    /// The acceptance-criterion threshold settings plus the degenerate
    /// single-bin collapses — with and without the k-way bin.
    fn threshold_grid() -> Vec<BinThresholds> {
        vec![
            BinThresholds::default(),
            BinThresholds {
                tiny_max: 4,
                heavy_min: 64,
                kway_min: u64::MAX,
            },
            BinThresholds {
                tiny_max: 0,
                heavy_min: u64::MAX,
                kway_min: u64::MAX,
            }, // all medium (and empty rows tiny)
            BinThresholds {
                tiny_max: u64::MAX,
                heavy_min: u64::MAX,
                kway_min: u64::MAX,
            }, // all tiny
            BinThresholds {
                tiny_max: 0,
                heavy_min: 0,
                kway_min: u64::MAX,
            }, // all heavy (empty rows tiny)
            BinThresholds {
                tiny_max: 1,
                heavy_min: 2,
                kway_min: u64::MAX,
            }, // no medium bin
            BinThresholds {
                tiny_max: 4,
                heavy_min: 64,
                kway_min: 256,
            }, // all four bins live
            BinThresholds {
                tiny_max: 0,
                heavy_min: 0,
                kway_min: 0,
            }, // all kway (empty rows tiny)
            BinThresholds {
                tiny_max: 4,
                heavy_min: 64,
                kway_min: 64,
            }, // kway swallows the whole dense band
        ]
    }

    /// All the work in one hub row: the partition must still cover every
    /// row exactly once.
    fn hub_row() -> CsrMatrix<f64> {
        let n = 600;
        let mut ptr = vec![0usize; n + 1];
        let mut idx: Vec<u32> = (0..n as u32).collect();
        ptr[1] = n;
        for r in 1..n {
            idx.push(0);
            ptr[r + 1] = ptr[r] + 1;
        }
        CsrMatrix::try_new(n, n, ptr, idx, vec![1.0; 2 * n - 1]).unwrap()
    }

    /// Every other row empty (zero weight): the stitched `ptr` must stay
    /// flat across the empty ones.
    fn interspersed_empty_rows() -> CsrMatrix<f64> {
        let n = 400;
        let mut ptr = vec![0usize; n + 1];
        let mut idx = Vec::new();
        for r in 0..n {
            if r % 2 == 0 {
                idx.push((r % 7) as u32);
                idx.push((7 + r % 11) as u32);
            }
            ptr[r + 1] = idx.len();
        }
        let nnz = idx.len();
        CsrMatrix::try_new(n, n, ptr, idx, vec![0.5f64; nnz]).unwrap()
    }

    /// Weights arranged so greedy prefix cuts land right before or after
    /// huge rows: runs of featherweight rows, then one row that multiplies
    /// against the dense hub rows 0..8 of B.
    fn weight_cliffs() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
        let n = 512;
        let hub_width = 256u32;
        let mut ptr = vec![0usize; n + 1];
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for r in 0..n {
            if r % 64 == 63 {
                for j in 0..8 {
                    idx.push(j);
                    val.push(1.0 + j as f64);
                }
            } else {
                idx.push((r % 32) as u32 + 8);
                val.push(0.25);
            }
            ptr[r + 1] = idx.len();
        }
        let a = CsrMatrix::try_new(n, n, ptr, idx, val).unwrap();
        let mut bptr = vec![0usize; n + 1];
        let mut bidx = Vec::new();
        let mut bval = Vec::new();
        for r in 0..n {
            if r < 8 {
                for j in 0..hub_width {
                    bidx.push(j);
                    bval.push(1.0 / (1.0 + j as f64));
                }
            } else {
                bidx.push((r % 300) as u32);
                bval.push(2.0);
            }
            bptr[r + 1] = bidx.len();
        }
        (a, CsrMatrix::try_new(n, n, bptr, bidx, bval).unwrap())
    }

    /// B with a single column: every product of a row lands on the same
    /// accumulator slot, the worst case for accumulation order.
    fn one_column_b() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
        let a = rmat(RmatConfig::snap_like(8, 5, 9)).to_csr();
        let n = a.ncols();
        let b = CsrMatrix::try_new(
            n,
            1,
            (0..=n).collect(),
            vec![0u32; n],
            (0..n).map(|k| 1.0 + (k % 13) as f64 * 0.125).collect(),
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn adaptive_is_bit_identical_across_thresholds_and_threads() {
        let [signed, exact] = value_sets(&rmat(RmatConfig::graph500(9, 8, 77)).to_csr(), 7);
        let hub = hub_row();
        let sparse = interspersed_empty_rows();
        let identity = CsrMatrix::<f64>::identity(10);
        let (cliff_a, cliff_b) = weight_cliffs();
        let (col_a, col_b) = one_column_b();
        let cases = [
            ("power-law signed", &signed, &signed, &[1, 2, 3, 8, 20][..]),
            ("power-law exact", &exact, &exact, &[1, 2, 3, 8, 20][..]),
            ("hub row", &hub, &hub, &[8][..]),
            ("empty rows", &sparse, &sparse, &[2, 5, 16][..]),
            ("weight cliffs", &cliff_a, &cliff_b, &[2, 3, 7, 8, 64][..]),
            ("one column", &col_a, &col_b, &[2, 8][..]),
            ("small identity", &identity, &identity, &[16][..]),
        ];
        for (name, a, b, thread_counts) in cases {
            let oracle = bits(&spgemm_gustavson(a, b).unwrap());
            for thresholds in threshold_grid() {
                for &threads in thread_counts {
                    let c = spgemm_adaptive(a, b, threads, thresholds).unwrap();
                    assert_eq!(
                        bits(&c),
                        oracle,
                        "{name}: threads={threads} thresholds={thresholds:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn values_only_is_bitwise_the_merge_and_the_oracle() {
        let hub = hub_row();
        let sparse = interspersed_empty_rows();
        let identity = CsrMatrix::<f64>::identity(10);
        let (cliff_a, cliff_b) = weight_cliffs();
        let (col_a, col_b) = one_column_b();
        let empty = CsrMatrix::<f64>::zeros(4, 4);
        let cases = [
            ("hub row", &hub, &hub, &[1, 8][..]),
            ("empty rows", &sparse, &sparse, &[2, 5][..]),
            ("weight cliffs", &cliff_a, &cliff_b, &[3, 8][..]),
            ("one column", &col_a, &col_b, &[2, 8][..]),
            ("small identity", &identity, &identity, &[16][..]),
            ("all empty", &empty, &empty, &[1, 2][..]),
        ];
        for (name, a, b, thread_counts) in cases {
            check_values_only(a, b, thread_counts, name);
        }
        let power_law = value_sets(&rmat(RmatConfig::graph500(9, 8, 77)).to_csr(), 5);
        let rect_a = value_sets(&rectangular(300, 170, 12, 1), 2);
        let rect_b = value_sets(&rectangular(170, 290, 12, 3), 4);
        for set in 0..2 {
            let at = |what: &str| format!("{what}, value set {set}");
            let (p, threads) = (&power_law[set], &[1, 2, 3, 8]);
            check_values_only(p, p, threads, &at("power-law"));
            check_values_only(&rect_a[set], &rect_b[set], threads, &at("rectangular"));
        }
    }

    #[test]
    fn a_pattern_that_does_not_fit_is_refused() {
        let a = rmat(RmatConfig::graph500(9, 8, 3)).to_csr();
        let bins = RowBins::of(&a, &a, BinThresholds::default(), 2).unwrap();
        let c = spgemm_gustavson(&a, &a).unwrap();
        let refit = |ptr: Vec<usize>, idx: Vec<u32>| {
            let nnz = idx.len();
            CsrPattern::of(&CsrMatrix::<f64>::from_parts_unchecked(
                c.nrows(),
                c.ncols(),
                ptr,
                idx,
                vec![0.0; nnz],
            ))
        };
        // One entry moved to a column its row never produces: same dims
        // and nnz, so only the scatter can tell.
        let r = (0..c.nrows()).find(|&r| c.row_nnz(r) > 0).unwrap();
        let (cols, _) = c.row(r);
        let free = (0..c.ncols() as u32).find(|j| !cols.contains(j)).unwrap();
        let mut moved: Vec<u32> = cols.iter().copied().skip(1).chain([free]).collect();
        moved.sort_unstable();
        let mut idx = c.idx().to_vec();
        idx[c.ptr()[r]..c.ptr()[r + 1]].copy_from_slice(&moved);
        let foreign_column = refit(c.ptr().to_vec(), idx);
        // A row's last entry moved to the front of the next row, where it
        // keeps that row sorted: row lengths differ.
        let r = (0..c.nrows() - 1)
            .find(|&r| {
                let (cols, next) = (c.row(r).0, c.row(r + 1).0);
                !cols.is_empty() && next.first().is_none_or(|&j| cols[cols.len() - 1] < j)
            })
            .unwrap();
        let mut ptr = c.ptr().to_vec();
        ptr[r + 1] -= 1;
        let foreign_rows = refit(ptr, c.idx().to_vec());
        // Another shape.
        let small = CsrPattern::of(&CsrMatrix::<f64>::identity(3));
        for (what, pattern) in [
            ("column", &foreign_column),
            ("rows", &foreign_rows),
            ("shape", &small),
        ] {
            for threads in [1, 4] {
                let at = format!("{what} threads={threads}");
                let refused = scatter_planned(&a, &a, pattern, threads, &bins, None);
                assert!(refused.is_none(), "{at}");
                // The public pass merges instead: the oracle's bits.
                let merged = spgemm_values_only(&a, &a, pattern, threads, &bins, None).unwrap();
                assert_eq!(bits(&merged), bits(&c), "{at}");
            }
        }
        assert_eq!(foreign_column.nnz(), c.nnz());
        assert_eq!(foreign_rows.nnz(), c.nnz());
        // The fitting pattern still fits, and its byte size is the rule's.
        let own = CsrPattern::of(&c);
        assert_eq!(own.bytes(), (c.nrows() + 1) * 8 + c.nnz() * 4);
        let fitted = scatter_planned(&a, &a, &own, 4, &bins, None);
        assert_eq!(bits(&fitted.expect("C's own pattern fits")), bits(&c));
    }

    #[test]
    fn adaptive_handles_rectangular_and_edge_cases() {
        let a = rmat(RmatConfig::uniform(6, 4, 1).with_dim(50).with_edges(150)).to_csr();
        let b = rmat(RmatConfig::uniform(6, 4, 2).with_dim(50).with_edges(120)).to_csr();
        let oracle = spgemm_gustavson(&a, &b).unwrap();
        assert_eq!(
            bits(&spgemm_adaptive(&a, &b, 4, BinThresholds::default()).unwrap()),
            bits(&oracle)
        );

        let z = CsrMatrix::<f64>::zeros(4, 4);
        assert_eq!(
            spgemm_adaptive(&z, &z, 2, BinThresholds::default())
                .unwrap()
                .nnz(),
            0
        );
        let i = CsrMatrix::<f64>::identity(5);
        assert_eq!(
            bits(&spgemm_adaptive(&i, &i, 2, BinThresholds::default()).unwrap()),
            bits(&spgemm_gustavson(&i, &i).unwrap())
        );

        let bad = CsrMatrix::<f64>::zeros(2, 3);
        assert!(spgemm_adaptive(&bad, &bad, 2, BinThresholds::default()).is_err());
    }

    #[test]
    fn merge_tallies_per_bin_rows_in_the_global_registry() {
        let a = rmat(RmatConfig::graph500(8, 8, 13)).to_csr();
        let thresholds = BinThresholds {
            tiny_max: 8,
            heavy_min: 128,
            kway_min: 512,
        };
        let bins = RowBins::of(&a, &a, thresholds, 2).unwrap();
        assert!(
            bins.rows.iter().all(|&r| r > 0),
            "want all bins populated: {:?}",
            bins.rows
        );
        let instruments = merge_instruments();
        let before: Vec<u64> = instruments.rows.iter().map(|c| c.get()).collect();
        let runs_before = instruments.kway_runs.get();
        let _ = spgemm_adaptive_planned(&a, &a, 2, &bins, None).unwrap();
        // The global registry is shared with concurrently running tests, so
        // assert monotone deltas of at least this merge's contribution.
        for (i, counter) in instruments.rows.iter().enumerate() {
            assert!(
                counter.get() >= before[i] + bins.rows[i],
                "bin {i}: {} < {} + {}",
                counter.get(),
                before[i],
                bins.rows[i]
            );
        }
        // Every kway row merges at least one run.
        assert!(
            instruments.kway_runs.get() >= runs_before + bins.kway_rows(),
            "kway runs: {} < {} + {}",
            instruments.kway_runs.get(),
            runs_before,
            bins.kway_rows()
        );
        let footprint = scratch_footprint_gauge().get();
        assert!(footprint > 0.0, "scratch high-water must be recorded");
    }

    #[test]
    fn instrument_registration_is_idempotent_and_covers_kway_cells() {
        register_merge_instruments();
        register_merge_instruments();
        let text = br_obs::global().render_prometheus(false);
        assert!(text.contains("br_spgemm_rows_merged_total{bin=\"kway\"}"));
        assert!(text.contains("br_spgemm_kway_runs_total"));
    }

    #[test]
    fn undersized_estimated_bins_still_merge_bit_identically() {
        // Simulate a badly underestimating planner: every row claims one
        // intermediate product, and the thresholds route everything through
        // the medium-bin hash. The initial 4-slot tables must grow mid-row
        // (instead of looping forever) and the output must stay bit-exact.
        let a = rmat(RmatConfig::graph500(8, 8, 41)).to_csr();
        let oracle = bits(&spgemm_gustavson(&a, &a).unwrap());
        let all_medium = BinThresholds {
            tiny_max: 0,
            heavy_min: u64::MAX,
            kway_min: u64::MAX,
        };
        let fake_products = vec![1u64; a.nrows()];
        let bins = RowBins::classify(&fake_products, all_medium);
        for threads in [1usize, 4] {
            let c = spgemm_adaptive_planned(&a, &a, threads, &bins, None).unwrap();
            assert_eq!(bits(&c), oracle, "threads={threads}");
        }
    }

    #[test]
    fn planned_execution_rejects_mismatched_bins() {
        let a = rmat(RmatConfig::snap_like(7, 6, 5)).to_csr();
        let other = CsrMatrix::<f64>::identity(3);
        let bins = RowBins::of(&other, &other, BinThresholds::default(), 2).unwrap();
        assert!(spgemm_adaptive_planned(&a, &a, 2, &bins, None).is_err());
    }

    #[test]
    fn planned_execution_with_pool_matches_and_recycles_scratch() {
        let a = rmat(RmatConfig::graph500(9, 8, 3)).to_csr();
        let bins = RowBins::of(&a, &a, BinThresholds::default(), 2).unwrap();
        let oracle = bits(&spgemm_gustavson(&a, &a).unwrap());
        let pool = ScratchPool::<f64>::new();
        for _ in 0..3 {
            let c = spgemm_adaptive_planned(&a, &a, 4, &bins, Some(&pool)).unwrap();
            assert_eq!(bits(&c), oracle);
        }
        assert!(pool.idle() > 0, "scratches must return to the pool");
    }

    #[test]
    fn classification_is_structure_only_and_counts_runs() {
        let a = rmat(RmatConfig::snap_like(7, 6, 11)).to_csr();
        let before = classification_runs();
        let bins = RowBins::of(&a, &a, BinThresholds::default(), 2).unwrap();
        let scaled = a.map_values(|v| v * 3.0);
        let bins_scaled = RowBins::of(&scaled, &scaled, BinThresholds::default(), 2).unwrap();
        assert_eq!(bins, bins_scaled, "values must not influence binning");
        assert!(classification_runs() >= before + 2);
        assert_eq!(bins.rows.iter().sum::<u64>(), a.nrows() as u64);
        assert_eq!(
            bins.products.iter().sum::<u64>(),
            bins.row_products.iter().sum::<u64>()
        );
    }

    #[test]
    fn permuted_bins_gather_rows_and_keep_the_totals() {
        let a = rmat(RmatConfig::snap_like(7, 6, 11)).to_csr();
        let bins = RowBins::of(&a, &a, BinThresholds::default(), 2).unwrap();
        let n = bins.nrows() as u32;
        let reversed: Vec<u32> = (0..n).rev().collect();
        let permuted = bins.permuted(&reversed);
        for (i, &r) in reversed.iter().enumerate() {
            assert_eq!(permuted.row_products[i], bins.row_products[r as usize]);
            assert_eq!(permuted.bin(i), bins.bin(r as usize));
        }
        assert_eq!(permuted.rows, bins.rows);
        assert_eq!(permuted.products, bins.products);
        assert_eq!(permuted.permuted(&reversed), bins);
    }

    #[test]
    fn row_bins_survive_a_serde_round_trip() {
        let a = rmat(RmatConfig::snap_like(7, 6, 21)).to_csr();
        let bins = RowBins::of(
            &a,
            &a,
            BinThresholds {
                tiny_max: 3,
                heavy_min: 99,
                kway_min: 400,
            },
            2,
        )
        .unwrap();
        let json = serde_json::to_string(&bins).unwrap();
        let back: RowBins = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bins);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        /// Property: the adaptive engine is bit-for-bit the oracle for
        /// arbitrary power-law inputs, thread counts, and thresholds —
        /// including degenerate thresholds collapsing everything into one
        /// bin. `kway_sel` sweeps the kway band from swallowing everything
        /// past tiny (0) through disabled (>= 288 maps to `u64::MAX`).
        /// Each input runs under both [`value_sets`], and results compare
        /// as bits, so an order bug or a `-0.0` turned into `+0.0` fails
        /// here. The heavy and kway thresholds are drawn below 320, around
        /// the inputs' largest row (about 260 products).
        #[test]
        fn prop_adaptive_bit_identical(
            seed in 0u64..500,
            value_seed in 0u64..1000,
            threads in 1usize..10,
            tiny_max in 0u64..64,
            heavy_min in 0u64..320,
            kway_sel in 0u64..320,
        ) {
            let kway_min = if kway_sel >= 288 { u64::MAX } else { kway_sel };
            let thresholds = BinThresholds { tiny_max, heavy_min, kway_min };
            for a in value_sets(&rmat(RmatConfig::snap_like(8, 6, seed)).to_csr(), value_seed) {
                let oracle = spgemm_gustavson(&a, &a).unwrap();
                let c = spgemm_adaptive(&a, &a, threads, thresholds).unwrap();
                proptest::prop_assert_eq!(bits(&c), bits(&oracle));
            }
        }

        /// Property: the values-only pass is bitwise the oracle and the
        /// adaptive merge, on square RMAT or rectangular operands with
        /// empty rows, under both [`value_sets`] (rounding-sensitive
        /// signed weights; signed zeros and cancelling products), at
        /// thread counts 1, 2, 3 and 8 and every threshold setting of the
        /// grid.
        #[test]
        fn prop_values_only_bit_identical(
            seed in 0u64..500,
            value_seed in 0u64..1000,
            shape in 0u8..2,
        ) {
            let (a, b) = if shape == 1 {
                (rectangular(300, 170, 12, seed), rectangular(170, 290, 12, seed ^ 1))
            } else {
                let a = rmat(RmatConfig::snap_like(8, 6, seed)).to_csr();
                (a.clone(), a)
            };
            let sets = value_sets(&a, value_seed).into_iter().zip(value_sets(&b, value_seed + 1));
            for (a, b) in sets {
                check_values_only(&a, &b, &[1, 2, 3, 8], "prop");
            }
        }
    }
}
