//! The flat L2 model must count exactly what the model it replaced counted.
//!
//! `ReferenceL2` below is that earlier model, kept as a test oracle: one
//! heap `Vec` per set with `remove`/`push` LRU, byte addresses divided by
//! the line size, and a Weyl loop that recomputes `floor` for every access
//! of every `Random` segment. Over random geometries and random segment
//! streams, `L2Cache` must return the same `(hits, misses)` for every
//! segment and the same running `accesses()`/`hits()` totals. Each test
//! runs its streams one after another on one thread, so a cache is often
//! built from the storage the previous one dropped; it must start empty.

use br_gpu_sim::l2cache::L2Cache;
use br_gpu_sim::trace::{AccessPattern, MemSegment, MemoryLayout, RegionId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The per-set `Vec` LRU the flat model replaced.
struct ReferenceL2 {
    line_bytes: u64,
    num_sets: u64,
    assoc: usize,
    /// `sets[s]` holds up to `assoc` tags, most-recently-used last.
    sets: Vec<Vec<u64>>,
    accesses: u64,
    hits: u64,
}

impl ReferenceL2 {
    fn new(capacity_bytes: u64, line_bytes: u64, assoc: usize) -> Self {
        let lines = (capacity_bytes / line_bytes).max(1);
        let sets = (lines / assoc as u64).max(1);
        let num_sets = 1u64 << (63 - sets.leading_zeros()); // prev power of 2
        ReferenceL2 {
            line_bytes,
            num_sets,
            assoc,
            sets: vec![Vec::with_capacity(assoc); num_sets as usize],
            accesses: 0,
            hits: 0,
        }
    }

    fn capacity_bytes(&self) -> u64 {
        self.num_sets * self.assoc as u64 * self.line_bytes
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set_idx = (line & (self.num_sets - 1)) as usize;
        let set = &mut self.sets[set_idx];
        self.accesses += 1;
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set.remove(pos);
            set.push(line);
            self.hits += 1;
            true
        } else {
            if set.len() == self.assoc {
                set.remove(0);
            }
            set.push(line);
            false
        }
    }

    fn stream_segment(&mut self, layout: &MemoryLayout, seg: &MemSegment) -> (u64, u64) {
        let base = layout.base(seg.region) + seg.offset;
        let (mut hits, mut misses) = (0u64, 0u64);
        match seg.pattern {
            AccessPattern::Coalesced => {
                let first = base / self.line_bytes;
                let last = (base + seg.bytes.max(1) - 1) / self.line_bytes;
                for line in first..=last {
                    if self.access(line * self.line_bytes) {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
            }
            AccessPattern::Strided(stride) => {
                let stride = stride.max(1) as u64;
                let mut addr = base;
                let end = base + seg.bytes;
                let mut prev_line = u64::MAX;
                while addr < end {
                    let line = addr / self.line_bytes;
                    if line != prev_line {
                        if self.access(addr) {
                            hits += 1;
                        } else {
                            misses += 1;
                        }
                        prev_line = line;
                    }
                    addr += stride;
                }
            }
            AccessPattern::Random { count, width } => {
                let range = seg.bytes.max(width as u64);
                let slots = (range / width.max(1) as u64).max(1);
                let lines_per_access = (width as u64).div_ceil(self.line_bytes).max(1);
                const SAMPLE_CAP: u64 = 4096;
                let simulated = count.min(SAMPLE_CAP);
                let mut x = 0.618_033_988_749_894_9_f64; // 1/φ
                for _ in 0..simulated {
                    x += 0.618_033_988_749_894_9;
                    x -= x.floor();
                    let slot = (x * slots as f64) as u64 % slots;
                    let first = base + slot * width as u64;
                    for l in 0..lines_per_access {
                        if self.access(first + l * self.line_bytes) {
                            hits += 1;
                        } else {
                            misses += 1;
                        }
                    }
                }
                if simulated < count {
                    let scale = count as f64 / simulated as f64;
                    let extra_h = (hits as f64 * (scale - 1.0)).round() as u64;
                    let extra_m = (misses as f64 * (scale - 1.0)).round() as u64;
                    hits += extra_h;
                    misses += extra_m;
                    self.hits += extra_h;
                    self.accesses += extra_h + extra_m;
                }
            }
        }
        (hits, misses)
    }
}

/// One step of a stream: a whole segment, or a single byte address.
#[derive(Debug)]
enum Op {
    Segment(MemSegment),
    Access(u64),
}

/// Regions a stream draws from, each this many lines (plus a ragged tail)
/// long: a few times the largest cache under test, so streams both reuse
/// and evict.
const REGION_LINES: u64 = 96;

/// A random stream of `len` steps over `regions`. Segment kinds and their
/// parameters are mixed so every branch of `stream_segment` runs: empty
/// and unaligned coalesced segments, strides below and above the line
/// size, and `Random` counts below, at and above the 4,096-access sample
/// cap with widths up to three lines.
fn random_stream(rng: &mut SmallRng, line: u64, regions: &[RegionId], len: usize) -> Vec<Op> {
    let span = REGION_LINES * line;
    (0..len)
        .map(|_| {
            let region = regions[rng.gen_range(0..regions.len())];
            let offset = rng.gen_range(0..span);
            let pattern = match rng.gen_range(0u32..4) {
                0 => AccessPattern::Coalesced,
                1 => {
                    let stride = if rng.gen_bool(0.5) {
                        rng.gen_range(1..line + 1)
                    } else {
                        rng.gen_range(line..4 * line + 1)
                    };
                    AccessPattern::Strided(stride as u32)
                }
                2 => {
                    let count = match rng.gen_range(0u32..3) {
                        0 => rng.gen_range(0..4096),
                        1 => 4096,
                        _ => rng.gen_range(4097..10_000),
                    };
                    let width = rng.gen_range(1..3 * line as u32 + 2);
                    AccessPattern::Random { count, width }
                }
                _ => return Op::Access(offset + rng.gen_range(0..3) * span),
            };
            let bytes = if rng.gen_bool(0.2) {
                0
            } else {
                rng.gen_range(1..span / 2 + 2)
            };
            Op::Segment(MemSegment {
                region,
                offset,
                bytes,
                pattern,
                write: rng.gen_bool(0.5),
                atomic: rng.gen_bool(0.5),
            })
        })
        .collect()
}

/// Runs one stream through both models, comparing after every step.
fn assert_matches_reference(capacity: u64, line: u64, assoc: usize, seed: u64) {
    let what = format!("capacity {capacity} line {line} assoc {assoc} seed {seed:#x}");
    let mut flat = L2Cache::new(capacity, line, assoc);
    let mut reference = ReferenceL2::new(capacity, line, assoc);
    assert_eq!(flat.capacity_bytes(), reference.capacity_bytes(), "{what}");
    let mut layout = MemoryLayout::new();
    // Ragged region sizes, so region bases shift against set boundaries.
    let regions: Vec<RegionId> = (0..3)
        .map(|r| layout.alloc(REGION_LINES * line + 37 * r))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for (i, op) in random_stream(&mut rng, line, &regions, 40)
        .iter()
        .enumerate()
    {
        match op {
            Op::Segment(seg) => assert_eq!(
                flat.stream_segment(&layout, seg),
                reference.stream_segment(&layout, seg),
                "{what}: step {i} {seg:?}"
            ),
            Op::Access(addr) => assert_eq!(
                flat.access(*addr),
                reference.access(*addr),
                "{what}: step {i} access {addr}"
            ),
        }
        assert_eq!(flat.accesses(), reference.accesses, "{what}: step {i}");
        assert_eq!(flat.hits(), reference.hits, "{what}: step {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any geometry: lines from 1 B to 256 B, associativity 1 to 8, and a
    /// capacity of `lines` whole lines plus a partial one, so set counts
    /// round down to a power of two (and to one set below `2 × assoc`).
    #[test]
    fn flat_model_matches_the_reference_on_random_streams(
        line_log in 0u32..9,
        assoc in 1usize..9,
        lines in 0u64..300,
        slack in 0u64..256,
        seed in any::<u64>(),
    ) {
        let line = 1u64 << line_log;
        assert_matches_reference(lines * line + slack % line, line, assoc, seed);
    }
}

/// Geometries at the edges of the indexing, each over a few streams:
/// direct-mapped, a single set, capacities that round down, 1 B lines, and
/// the paper devices' line size and associativity on a small capacity.
#[test]
fn flat_model_matches_the_reference_on_edge_geometries() {
    let geometries: [(u64, u64, usize); 6] = [
        (1024, 128, 1),           // direct-mapped, 8 sets
        (512, 128, 4),            // one full set
        (100, 128, 2),            // under one line: one set
        (3 * 4 * 64 + 32, 64, 4), // 3 sets + a partial line: rounds to 2
        (7 * 1000, 1, 7),         // 1 B lines, 1000 sets: rounds to 512
        (16 * 128 * 24, 128, 16), // 24 sets of a 16-way, 128 B-line L2: 16
    ];
    for (capacity, line, assoc) in geometries {
        for seed in 0..4 {
            assert_matches_reference(capacity, line, assoc, seed);
        }
    }
}
