//! Set-associative LRU model of the GPU's shared L2 cache.
//!
//! Fed by [`MemSegment`]s at cache-line granularity in block launch order —
//! an approximation of execution order that preserves the reuse pattern the
//! paper exploits: B-Splitting's sub-blocks are launched back-to-back and
//! re-read the same dominator vectors, so their lines hit; unsplit
//! monolithic traversals evict themselves before any reuse.
//!
//! The simulator returns per-block hit/miss transaction counts which the
//! timing model converts into latency, plus kernel-level byte counters for
//! the L2-throughput figures (12 and 14).

use std::cell::Cell;
use std::mem;
use std::sync::OnceLock;

use crate::device::DeviceConfig;
use crate::trace::{AccessPattern, MemSegment, MemoryLayout};

/// Per-block outcome of the L2 pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockL2 {
    /// Transactions that hit in L2.
    pub hit_transactions: u64,
    /// Transactions that missed to DRAM.
    pub miss_transactions: u64,
    /// Bytes read by the block (logical).
    pub read_bytes: u64,
    /// Bytes written by the block (logical).
    pub write_bytes: u64,
}

impl BlockL2 {
    /// All transactions.
    pub fn transactions(&self) -> u64 {
        self.hit_transactions + self.miss_transactions
    }

    /// Hit fraction in `[0, 1]` (1 when there were no transactions).
    pub fn hit_rate(&self) -> f64 {
        let t = self.transactions();
        if t == 0 {
            1.0
        } else {
            self.hit_transactions as f64 / t as f64
        }
    }
}

/// Accesses a `Random` segment simulates; longer scatters are sampled and
/// their hit ratio extrapolated, keeping the pass O(1)-bounded per segment.
const SAMPLE_CAP: u64 = 4096;

/// Step of the Weyl sequence that spreads `Random` accesses: 1/φ.
const WEYL_STEP: f64 = 0.618_033_988_749_894_9;

/// The first [`SAMPLE_CAP`] points of the Weyl sequence every `Random`
/// segment walks from x₀ = 1/φ. Computed once, with the same float steps
/// (`x += 1/φ; x -= x.floor()`) a per-segment loop takes, so each point is
/// bit-identical to the one that loop would produce.
fn weyl_points() -> &'static [f64; SAMPLE_CAP as usize] {
    static POINTS: OnceLock<[f64; SAMPLE_CAP as usize]> = OnceLock::new();
    POINTS.get_or_init(|| {
        let mut x = WEYL_STEP;
        std::array::from_fn(|_| {
            x += WEYL_STEP;
            x -= x.floor();
            x
        })
    })
}

/// A cache's flat storage: `(tags, fill)`, see [`L2Cache`].
type Storage = (Vec<u64>, Vec<usize>);

thread_local! {
    /// Storage of the last cache dropped on this thread. Every launch
    /// sequence simulates on a fresh cache; building it from the previous
    /// one's arrays keeps a 128–256 KiB allocation, and the page faults
    /// that follow it, off every simulated request.
    static SPARE: Cell<Option<Storage>> = const { Cell::new(None) };
}

/// A set-associative LRU cache over 64-bit line addresses.
///
/// Tags live in one flat `num_sets × assoc` array; set `s` holds its
/// `fill[s]` valid tags at `tags[s * assoc..]`, least-recently-used first
/// and most-recently-used last (DESIGN.md §5.1). Tags past `fill[s]` are
/// never read, so a cache built from a dropped cache's storage only resets
/// the fill counts.
#[derive(Debug, Clone)]
pub struct L2Cache {
    /// log2 of the line size.
    line_shift: u32,
    /// `num_sets - 1`; the set count is a power of two.
    set_mask: u64,
    assoc: usize,
    /// `num_sets × assoc` tags, laid out as above.
    tags: Vec<u64>,
    /// Valid tags per set.
    fill: Vec<usize>,
    accesses: u64,
    hits: u64,
}

impl L2Cache {
    /// Builds the cache for a device configuration.
    pub fn for_device(device: &DeviceConfig) -> Self {
        Self::new(
            device.l2_bytes,
            device.l2_line_bytes as u64,
            device.l2_assoc as usize,
        )
    }

    /// Builds a cache of `capacity_bytes` with the given line size and
    /// associativity. Set count is rounded down to a power of two (≥ 1).
    pub fn new(capacity_bytes: u64, line_bytes: u64, assoc: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(assoc >= 1);
        let lines = (capacity_bytes / line_bytes).max(1);
        let sets = (lines / assoc as u64).max(1);
        let num_sets = 1u64 << (63 - sets.leading_zeros()); // prev power of 2
        let sets = num_sets as usize;
        let (tags, fill) = match SPARE.try_with(Cell::take).ok().flatten() {
            Some((tags, mut fill)) if tags.len() == sets * assoc && fill.len() == sets => {
                fill.fill(0);
                (tags, fill)
            }
            _ => (vec![0; sets * assoc], vec![0; sets]),
        };
        L2Cache {
            line_shift: line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            assoc,
            tags,
            fill,
            accesses: 0,
            hits: 0,
        }
    }

    /// Effective capacity in bytes after rounding.
    pub fn capacity_bytes(&self) -> u64 {
        ((self.set_mask + 1) * self.assoc as u64) << self.line_shift
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Touches one byte address; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr >> self.line_shift)
    }

    /// Touches one line; returns `true` on hit. A hit moves the line to the
    /// set's most-recently-used end; a miss appends it, first dropping the
    /// least-recently-used front when the set is full.
    fn access_line(&mut self, line: u64) -> bool {
        self.accesses += 1;
        let set = (line & self.set_mask) as usize;
        let len = self.fill[set];
        let ways = &mut self.tags[set * self.assoc..(set + 1) * self.assoc];
        // Re-touching the most recent line leaves the order as it is.
        if len > 0 && ways[len - 1] == line {
            self.hits += 1;
            return true;
        }
        let hit = ways[..len].iter().position(|&t| t == line);
        let from = match hit {
            Some(pos) => pos,
            None if len == self.assoc => 0,
            None => {
                ways[len] = line;
                self.fill[set] = len + 1;
                return false;
            }
        };
        ways.copy_within(from + 1..len, from);
        ways[len - 1] = line;
        self.hits += hit.is_some() as u64;
        hit.is_some()
    }

    /// Streams one segment through the cache, returning
    /// `(hit_transactions, miss_transactions)`.
    ///
    /// Coalesced/strided segments touch their exact line sequence. `Random`
    /// segments touch `count` lines pseudo-randomly spread over the range
    /// (deterministic low-discrepancy sequence, so runs are reproducible).
    pub fn stream_segment(&mut self, layout: &MemoryLayout, seg: &MemSegment) -> (u64, u64) {
        let base = layout.base(seg.region) + seg.offset;
        let shift = self.line_shift;
        let mut hits = 0u64;
        match seg.pattern {
            AccessPattern::Coalesced => {
                let first = base >> shift;
                let last = (base + seg.bytes.max(1) - 1) >> shift;
                for line in first..=last {
                    hits += self.access_line(line) as u64;
                }
                (hits, last - first + 1 - hits)
            }
            AccessPattern::Strided(stride) => {
                let stride = stride.max(1) as u64;
                let mut addr = base;
                let end = base + seg.bytes;
                let mut prev_line = u64::MAX;
                let mut touched = 0u64;
                while addr < end {
                    let line = addr >> shift;
                    if line != prev_line {
                        hits += self.access_line(line) as u64;
                        touched += 1;
                        prev_line = line;
                    }
                    addr += stride;
                }
                (hits, touched - hits)
            }
            AccessPattern::Random { count, width } => {
                // Weyl sequence over the range: uniform, deterministic,
                // uncorrelated with set indexing.
                let range = seg.bytes.max(width as u64);
                let slots = (range / width.max(1) as u64).max(1);
                let lines_per_access = (width as u64).div_ceil(1 << shift).max(1);
                let simulated = count.min(SAMPLE_CAP);
                for &x in &weyl_points()[..simulated as usize] {
                    // `x < 1`, but the product can round up to `slots`.
                    let mut slot = (x * slots as f64) as u64;
                    if slot >= slots {
                        slot %= slots;
                    }
                    let first = (base + slot * width as u64) >> shift;
                    for line in first..first + lines_per_access {
                        hits += self.access_line(line) as u64;
                    }
                }
                let mut misses = simulated * lines_per_access - hits;
                if simulated < count {
                    // Extrapolate the sampled hit ratio to the full count,
                    // keeping the bookkeeping counters consistent.
                    let scale = count as f64 / simulated as f64;
                    let extra_h = (hits as f64 * (scale - 1.0)).round() as u64;
                    let extra_m = (misses as f64 * (scale - 1.0)).round() as u64;
                    hits += extra_h;
                    misses += extra_m;
                    self.hits += extra_h;
                    self.accesses += extra_h + extra_m;
                }
                (hits, misses)
            }
        }
    }
}

impl Drop for L2Cache {
    /// Leaves the storage to the next cache built on this thread.
    fn drop(&mut self) {
        let storage = (mem::take(&mut self.tags), mem::take(&mut self.fill));
        // Fails only while the thread is exiting; the storage is freed then.
        let _ = SPARE.try_with(|spare| spare.set(Some(storage)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> L2Cache {
        // 8 lines of 128 B, 2-way → 4 sets.
        L2Cache::new(1024, 128, 2)
    }

    #[test]
    fn capacity_reflects_rounding() {
        let c = tiny_cache();
        assert_eq!(c.capacity_bytes(), 1024);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny_cache();
        assert!(!c.access(0));
        assert!(c.access(64)); // same 128 B line
        assert!(c.access(0));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn a_cache_built_from_dropped_storage_starts_empty() {
        let mut c = tiny_cache();
        for addr in (0..16).map(|l| l * 128) {
            c.access(addr);
        }
        drop(c);
        let mut c = tiny_cache();
        assert!(!c.access(0), "stale tag read as a hit");
        assert!(!c.access(15 * 128));
        assert_eq!((c.accesses(), c.hits()), (2, 0));
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let mut c = tiny_cache(); // 4 sets → addresses 0, 512, 1024 share set 0
        assert!(!c.access(0));
        assert!(!c.access(512));
        assert!(!c.access(1024)); // evicts line 0 (2-way)
        assert!(!c.access(0)); // miss again
        assert!(c.access(1024)); // still resident
    }

    #[test]
    fn working_set_within_capacity_fully_hits_on_second_pass() {
        let mut c = L2Cache::new(64 * 1024, 128, 16);
        let mut layout = MemoryLayout::new();
        let r = layout.alloc(32 * 1024);
        let seg = MemSegment {
            region: r,
            offset: 0,
            bytes: 32 * 1024,
            pattern: AccessPattern::Coalesced,
            write: false,
            atomic: false,
        };
        let (h1, m1) = c.stream_segment(&layout, &seg);
        assert_eq!(h1, 0);
        assert_eq!(m1, 256);
        let (h2, m2) = c.stream_segment(&layout, &seg);
        assert_eq!(h2, 256, "fits in cache → second pass all hits");
        assert_eq!(m2, 0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = L2Cache::new(4 * 1024, 128, 4);
        let mut layout = MemoryLayout::new();
        let r = layout.alloc(64 * 1024);
        let seg = MemSegment {
            region: r,
            offset: 0,
            bytes: 64 * 1024,
            pattern: AccessPattern::Coalesced,
            write: false,
            atomic: false,
        };
        c.stream_segment(&layout, &seg);
        let (h2, _) = c.stream_segment(&layout, &seg);
        assert_eq!(h2, 0, "16× larger than cache → LRU streaming gets no reuse");
    }

    #[test]
    fn random_segment_generates_count_transactions() {
        let mut c = tiny_cache();
        let mut layout = MemoryLayout::new();
        let r = layout.alloc(1 << 20);
        let seg = MemSegment {
            region: r,
            offset: 0,
            bytes: 1 << 20,
            pattern: AccessPattern::Random {
                count: 500,
                width: 8,
            },
            write: true,
            atomic: true,
        };
        let (h, m) = c.stream_segment(&layout, &seg);
        assert_eq!(h + m, 500);
        // 1 MiB range through a 1 KiB cache: nearly everything misses.
        assert!(m > 400);
    }

    #[test]
    fn hit_rate_bounds() {
        let b = BlockL2 {
            hit_transactions: 3,
            miss_transactions: 1,
            read_bytes: 0,
            write_bytes: 0,
        };
        assert!((b.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(BlockL2::default().hit_rate(), 1.0);
    }

    #[test]
    #[should_panic(expected = "line size must be 2^k")]
    fn non_power_of_two_line_rejected() {
        let _ = L2Cache::new(1024, 100, 2);
    }
}
