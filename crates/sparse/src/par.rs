//! Deterministic scoped-thread parallelism for host-side hot paths.
//!
//! Every parallel construct in this workspace must satisfy one contract:
//! **the result is a pure function of the input, independent of the thread
//! count** — `BENCH_*.json` reports are byte-compared across machines and
//! thread counts, and every numeric kernel is checked bit-for-bit against
//! its sequential twin. The helpers here make that contract easy to keep:
//!
//! * **Fixed index-based chunking** — [`chunk_bounds`] / [`weighted_bounds`]
//!   partition an index space into contiguous ranges as a deterministic
//!   function of `(len, parts)` (or the weights), never of runtime timing.
//! * **Ordered assembly** — [`ordered_map`], [`ordered_index_map`] and
//!   [`ordered_bounds_map`] hand each worker a contiguous range and join
//!   the results back **in index order**, so concatenation-style reductions
//!   (CSR stitching, report rows) see exactly the sequential layout;
//!   [`ordered_bounds_map_with`] additionally gives each worker private,
//!   reusable scratch state (and returns it for pooling), and
//!   [`ordered_items_map_with`] hands each worker an owned work item, such
//!   as the disjoint `&mut` slice of an output array its rows fill.
//! * **Sequential float reductions** — none of these helpers reduce
//!   floating-point values across threads. Callers that need a float sum
//!   map each element to its value in parallel and fold the resulting
//!   vector **on the calling thread in index order**, which reproduces the
//!   sequential rounding bit-for-bit at any thread count.
//!
//! The worker count is resolved by [`effective_threads`] from, in priority
//! order: an explicit argument, the `BR_THREADS` environment variable
//! (which `blockreorg-cli --threads` sets while it reads its flags, before
//! any thread starts), and finally [`available_threads`]. Callers resolve
//! it once and pass the count down. A count of `1` always takes the exact
//! sequential code path (no scope, no spawn).

use std::ops::Range;

/// Name of the environment variable consulted by [`effective_threads`].
pub const THREADS_ENV_VAR: &str = "BR_THREADS";

/// Parses a thread-count spelling: a positive integer. Returns `None` for
/// anything else (empty, zero, garbage) so callers fall through to the
/// next configuration source.
pub fn parse_threads(text: &str) -> Option<usize> {
    text.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The `BR_THREADS` environment variable, if set to a positive integer.
pub fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV_VAR)
        .ok()
        .and_then(|v| parse_threads(&v))
}

/// The machine's available parallelism (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves the worker count: `explicit` > `BR_THREADS` >
/// [`available_threads`]; always ≥ 1.
pub fn effective_threads(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(env_threads)
        .unwrap_or_else(available_threads)
        .max(1)
}

/// Even contiguous partition of `0..len` into at most `parts` chunks:
/// returns ascending boundaries `b` with `b[0] = 0`, `b.last() = len`, and
/// chunk `i` being `b[i]..b[i+1]`. A pure function of `(len, parts)` —
/// never of timing — with chunk sizes differing by at most one.
pub fn chunk_bounds(len: usize, parts: usize) -> Vec<usize> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut bounds = Vec::with_capacity(parts + 1);
    let mut at = 0;
    bounds.push(at);
    for i in 0..parts {
        at += base + usize::from(i < extra);
        bounds.push(at);
    }
    bounds
}

/// Contiguous partition of `0..weights.len()` into at most `parts` chunks
/// of roughly equal total weight (greedy prefix cut at `total/parts`), so
/// one heavy region does not serialize a parallel pass. Deterministic in
/// the weights alone. Returns boundaries like [`chunk_bounds`].
pub fn weighted_bounds(weights: &[u64], parts: usize) -> Vec<usize> {
    let len = weights.len();
    let parts = parts.clamp(1, len.max(1));
    if parts == 1 {
        return vec![0, len];
    }
    let total: u64 = weights.iter().sum();
    let per_part = total / parts as u64 + 1;
    let mut bounds = vec![0usize];
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if acc >= per_part && bounds.len() < parts {
            bounds.push(i + 1);
            acc = 0;
        }
    }
    bounds.push(len);
    bounds
}

/// Applies `f` to every item, distributing contiguous index chunks over at
/// most `threads` scoped workers, and returns the results **in item
/// order**. Because `f` is applied per item and the output is assembled by
/// index, the result is bit-identical at any thread count; `threads = 1`
/// runs the plain sequential loop.
pub fn ordered_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let bounds = chunk_bounds(items.len(), threads);
    let chunks = ordered_bounds_map(&bounds, |range| {
        range.map(|i| f(i, &items[i])).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// [`ordered_map`] over a bare index space `0..len` (no backing slice).
pub fn ordered_index_map<R, F>(len: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.clamp(1, len.max(1));
    if threads == 1 {
        return (0..len).map(f).collect();
    }
    let bounds = chunk_bounds(len, threads);
    let chunks = ordered_bounds_map(&bounds, |range| range.map(&f).collect::<Vec<R>>());
    let mut out = Vec::with_capacity(len);
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Runs `f` once per boundary window (`bounds[i]..bounds[i+1]`), one scoped
/// worker per window, and returns the per-window results **in window
/// order**. The caller owns the chunking (e.g. [`weighted_bounds`]), so
/// this is for chunk-composable work — per-row-independent computations
/// whose outputs concatenate, like CSR row-range stitching. A single
/// window runs on the calling thread.
pub fn ordered_bounds_map<R, F>(bounds: &[usize], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let windows = bounds.len().saturating_sub(1);
    if windows == 0 {
        return Vec::new();
    }
    if windows == 1 {
        return vec![f(bounds[0]..bounds[1])];
    }
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(windows, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(windows);
        for w in 0..windows {
            let range = bounds[w]..bounds[w + 1];
            let f = &f;
            handles.push(scope.spawn(move || f(range)));
        }
        for (slot, handle) in out.iter_mut().zip(handles) {
            *slot = Some(handle.join().expect("parallel worker must not panic"));
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every window produced a result"))
        .collect()
}

/// [`ordered_bounds_map`] with per-worker scratch state: each window's
/// worker first builds its own state with `init` (e.g. pulling a reusable
/// merge scratch from a pool), then runs `f(&mut state, range)`. Results
/// come back **in window order**, and the final per-window states are
/// returned alongside them so callers can recycle scratch (return it to a
/// pool) instead of dropping it. Determinism is unchanged from
/// [`ordered_bounds_map`]: state is private to one worker and the output
/// order is fixed by the bounds, never by timing.
pub fn ordered_bounds_map_with<S, R, I, F>(bounds: &[usize], init: I, f: F) -> (Vec<R>, Vec<S>)
where
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) -> R + Sync,
{
    let windows = bounds.windows(2).map(|w| w[0]..w[1]).collect();
    ordered_items_map_with(windows, init, f)
}

/// [`ordered_bounds_map_with`] over owned work items instead of bare
/// windows, one scoped worker per item — e.g. a row range paired with the
/// disjoint `&mut` slice of an output array that those rows fill, so
/// workers write their results in place and nothing is stitched. Results
/// and states come back **in item order**; a single item runs on the
/// calling thread.
pub fn ordered_items_map_with<W, S, R, I, F>(items: Vec<W>, init: I, f: F) -> (Vec<R>, Vec<S>)
where
    W: Send,
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, W) -> R + Sync,
{
    if items.len() <= 1 {
        return items
            .into_iter()
            .map(|item| {
                let mut state = init();
                let out = f(&mut state, item);
                (out, state)
            })
            .unzip();
    }
    let results: Vec<(R, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                let (init, f) = (&init, &f);
                scope.spawn(move || {
                    let mut state = init();
                    let out = f(&mut state, item);
                    (out, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("parallel worker must not panic"))
            .collect()
    });
    results.into_iter().unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_the_range_exactly_once() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let b = chunk_bounds(len, parts);
                assert_eq!(*b.first().unwrap(), 0, "len={len} parts={parts}");
                assert_eq!(*b.last().unwrap(), len, "len={len} parts={parts}");
                assert!(b.windows(2).all(|w| w[0] <= w[1]));
                assert!(b.len() <= parts.max(1) + 1);
                // Even split: sizes differ by at most one.
                let sizes: Vec<usize> = b.windows(2).map(|w| w[1] - w[0]).collect();
                if let (Some(&min), Some(&max)) = (sizes.iter().min(), sizes.iter().max()) {
                    assert!(max - min <= 1, "len={len} parts={parts}: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn weighted_bounds_cover_the_range_and_respect_parts() {
        let weights = [100u64, 1, 1, 1, 1, 1, 1, 100];
        for parts in [1usize, 2, 4, 16] {
            let b = weighted_bounds(&weights, parts);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), weights.len());
            assert!(b.len() <= parts + 1);
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(weighted_bounds(&[], 4), vec![0, 0]);
    }

    #[test]
    fn ordered_map_matches_sequential_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 7, 64, 5000] {
            let par = ordered_map(&items, threads, |i, v| v * 3 + i as u64);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn ordered_index_map_matches_sequential() {
        let seq: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1, 4, 13] {
            assert_eq!(ordered_index_map(257, threads, |i| i * i), seq);
        }
    }

    #[test]
    fn ordered_bounds_map_preserves_window_order() {
        let bounds = chunk_bounds(100, 7);
        let ranges = ordered_bounds_map(&bounds, |r| (r.start, r.end));
        let expected: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
        assert_eq!(ranges, expected);
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(ordered_map(&[] as &[u8], 8, |_, &b| b).is_empty());
        assert!(ordered_index_map(0, 8, |i| i).is_empty());
        assert!(ordered_bounds_map(&[0], |r| r.len()).is_empty());
        assert!(ordered_bounds_map(&[], |r| r.len()).is_empty());
        let (r, s) = ordered_bounds_map_with(&[], Vec::<u8>::new, |_, r| r.len());
        assert!(r.is_empty() && s.is_empty());
    }

    #[test]
    fn ordered_bounds_map_with_threads_scratch_and_returns_it() {
        // Each worker accumulates into its own scratch; results stay in
        // window order and one state per window comes back for recycling.
        let bounds = chunk_bounds(100, 5);
        let (results, states) =
            ordered_bounds_map_with(&bounds, Vec::<usize>::new, |scratch, range| {
                scratch.extend(range.clone());
                range.sum::<usize>()
            });
        let expected: Vec<usize> = bounds.windows(2).map(|w| (w[0]..w[1]).sum()).collect();
        assert_eq!(results, expected);
        assert_eq!(states.len(), bounds.len() - 1);
        let mut all: Vec<usize> = states.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<usize>>());
    }

    #[test]
    fn ordered_bounds_map_with_single_window_runs_inline() {
        let (r, s) = ordered_bounds_map_with(&[0, 10], || 7usize, |st, range| *st + range.len());
        assert_eq!(r, vec![17]);
        assert_eq!(s, vec![7]);
    }

    #[test]
    fn float_fold_over_ordered_map_is_bit_identical() {
        // The pattern every caller uses for float reductions: map in
        // parallel, fold sequentially in index order on this thread.
        let items: Vec<f64> = (0..10_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let seq: f64 = items.iter().map(|v| v.sin()).sum();
        for threads in [2, 5, 32] {
            let mapped = ordered_map(&items, threads, |_, v| v.sin());
            let par: f64 = mapped.iter().sum();
            assert_eq!(par.to_bits(), seq.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn explicit_count_wins_and_zero_means_unset() {
        // Explicit argument always wins; `0` explicit means "unset".
        assert_eq!(effective_threads(Some(3)), 3);
        assert!(effective_threads(None) >= 1);
        assert!(effective_threads(Some(0)) >= 1);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("many"), None);
    }
}
