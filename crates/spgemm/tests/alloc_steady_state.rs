//! Steady-state merge loop performs zero per-row heap allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warm-up pass (scratch and output buffers grow to capacity), repeated
//! adaptive merges of the same problem must not allocate at all, and
//! neither must repeated values-only passes into a caller's value buffer
//! through a pooled scratch. This file holds exactly one `#[test]` so no
//! parallel test can touch the global counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use br_datasets::rmat::{rmat, RmatConfig};
use br_sparse::ops::spgemm_gustavson;
use br_spgemm::accum::{
    merge_rows_into, scatter_rows_into, BinThresholds, CsrPattern, MergeScratch, RowBins,
    ScratchPool,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_merge_allocates_nothing() {
    // A power-law input large enough to populate all four bins: the
    // default tiny/heavy split with the kway bin opened just above the
    // heavy threshold, so the small buffer, hash table, and dense SPA all
    // run, the dense SPA for heavy and kway rows alike.
    let a = rmat(RmatConfig::graph500(10, 8, 7)).to_csr();
    let thresholds = BinThresholds {
        kway_min: 4096,
        ..BinThresholds::default()
    };
    let bins = RowBins::of(&a, &a, thresholds, 1).unwrap();
    assert!(
        bins.rows.iter().all(|&r| r > 0),
        "input must exercise every bin: {:?}",
        bins.rows
    );

    let mut scratch = MergeScratch::<f64>::new();
    let (mut ptr, mut idx, mut val) = (Vec::new(), Vec::new(), Vec::new());

    // Warm-up: scratch tables and output buffers grow to their final
    // capacity here (allocations allowed).
    merge_rows_into(
        &a,
        &a,
        0..a.nrows(),
        &bins,
        &mut scratch,
        &mut ptr,
        &mut idx,
        &mut val,
    );
    let warm = (ptr.clone(), idx.clone(), val.clone());

    // Steady state: same problem through the warm scratch — zero heap
    // allocations over entire repeated merges, hence zero per row.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..3 {
        merge_rows_into(
            &a,
            &a,
            0..a.nrows(),
            &bins,
            &mut scratch,
            &mut ptr,
            &mut idx,
            &mut val,
        );
    }
    let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocated, 0,
        "steady-state merge must not allocate (got {allocated} allocations over 3 full merges)"
    );

    // And the allocation-free passes still produce the exact result.
    assert_eq!((ptr, idx, val), warm);
    let oracle = spgemm_gustavson(&a, &a).unwrap();
    assert_eq!(warm.0, oracle.ptr());
    assert_eq!(warm.1, oracle.idx());
    let bits: Vec<u64> = warm.2.iter().map(|v| v.to_bits()).collect();
    let oracle_bits: Vec<u64> = oracle.val().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, oracle_bits);

    // The values-only pass over C's pattern, into the caller's value
    // buffer through a pooled scratch: one warm-up grows the scratch's
    // slot map, then repeated passes allocate nothing.
    let pattern = CsrPattern::of(&oracle);
    let pool = ScratchPool::<f64>::new();
    let mut values = vec![0.0f64; pattern.nnz()];
    let scatter = |values: &mut [f64]| {
        let mut scratch = pool.acquire();
        let tally = scatter_rows_into(&a, &a, 0..a.nrows(), &pattern, &bins, &mut scratch, values);
        pool.release(scratch);
        tally.expect("C's own pattern fits")
    };
    let warm_tally = scatter(&mut values);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..3 {
        assert_eq!(scatter(&mut values), warm_tally);
    }
    let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocated, 0,
        "a warm values-only pass must not allocate (got {allocated} allocations over 3 passes)"
    );
    assert_eq!(warm_tally.rows, bins.rows);
    let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, oracle_bits);
}
