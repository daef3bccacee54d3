//! The cost-trace vocabulary spoken by simulated kernels.
//!
//! A kernel's performance-relevant behaviour is summarised per thread block
//! as a [`BlockTrace`]: how much uniform per-thread compute it does, how
//! imbalanced its warp lanes are, which byte ranges of which logical memory
//! regions it touches and in what pattern, how many barriers and atomics it
//! issues, and what SM resources it occupies. Traces are O(#segments), not
//! O(nnz) — a block that streams ten million products records one segment.

use serde::{Deserialize, Serialize};

/// Identifier of a logical global-memory region (one array: `A.val`,
/// `B.idx`, `Ĉ`, …). Regions get non-overlapping base addresses from
/// [`MemoryLayout`]; the L2 simulator works on `base + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u32);

/// How a segment's bytes are touched, which decides how many cache-line
/// transactions it generates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Consecutive threads touch consecutive addresses: `bytes / line`
    /// transactions (perfectly coalesced).
    Coalesced,
    /// Fixed stride in bytes between consecutive accesses: one transaction
    /// per `max(1, line/stride)` accesses.
    Strided(u32),
    /// Data-dependent scatter/gather of `count` accesses of `width` bytes
    /// anywhere inside the segment's range: one transaction each.
    Random {
        /// Number of accesses.
        count: u64,
        /// Bytes per access.
        width: u32,
    },
}

/// One contiguous byte-range of one region, touched by one block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemSegment {
    /// Which logical array.
    pub region: RegionId,
    /// Byte offset of the range inside the region.
    pub offset: u64,
    /// Length of the range in bytes.
    pub bytes: u64,
    /// Access pattern within the range.
    pub pattern: AccessPattern,
    /// Write (true) or read (false).
    pub write: bool,
    /// Atomic read-modify-write (implies `write`).
    pub atomic: bool,
}

impl MemSegment {
    /// Number of cache-line transactions this segment generates.
    pub fn transactions(&self, line_bytes: u32) -> u64 {
        let line = line_bytes as u64;
        match self.pattern {
            AccessPattern::Coalesced => self.bytes.div_ceil(line).max(1),
            AccessPattern::Strided(stride) => {
                let stride = stride.max(1) as u64;
                let accesses = self.bytes.div_ceil(stride);
                let per_line = (line / stride).max(1);
                accesses.div_ceil(per_line).max(1)
            }
            AccessPattern::Random { count, width } => {
                // Each access is internally contiguous: wide accesses span
                // several lines (e.g. a row-chunk relocation write).
                count.max(1) * (width as u64).div_ceil(line).max(1)
            }
        }
    }
}

/// Per-block cost summary produced while the kernel executes functionally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockTrace {
    /// Launched threads (the CUDA block size).
    pub threads: u32,
    /// Threads that perform useful work (`nnz(bᵢ₌)` for an outer-product
    /// block); drives sync-stall and latency-hiding behaviour.
    pub effective_threads: u32,
    /// Uniform per-thread compute, in MAC-equivalents.
    pub compute_per_thread: u64,
    /// Intra-warp lane imbalance: max-lane work over mean-lane work
    /// (1.0 = perfectly uniform, as in the outer product; the row product's
    /// divergence shows up here).
    pub lane_imbalance: f64,
    /// Memory segments touched.
    pub segments: Vec<MemSegment>,
    /// Block-wide `__syncthreads()` count.
    pub barriers: u32,
    /// Atomic RMW operations issued (also reflected in `segments` as
    /// `atomic` writes; this count drives serialization cost).
    pub atomics: u64,
    /// Average number of atomics contending for the same address
    /// (≥ 1; duplicates per output element during merge).
    pub atomic_conflict: f64,
    /// Static shared-memory allocation of the block, in bytes.
    pub shared_mem_bytes: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
}

impl BlockTrace {
    /// Warps launched by this block.
    pub fn warps(&self, warp_size: u32) -> u32 {
        self.threads.div_ceil(warp_size).max(1)
    }

    /// Effective warps as a fraction: `effective_threads / warp_size`.
    ///
    /// This is the latency-hiding currency — a warp with 2 of 32 lanes
    /// active sustains 1/16 of the outstanding requests of a full warp,
    /// which is why underloaded blocks cannot hide memory latency
    /// (Section III-A.2) and why B-Gathering works.
    pub fn effective_warp_fraction(&self, warp_size: u32) -> f64 {
        self.effective_threads as f64 / warp_size as f64
    }

    /// Fraction of launched threads that are effective.
    pub fn effective_ratio(&self) -> f64 {
        if self.threads == 0 {
            0.0
        } else {
            self.effective_threads as f64 / self.threads as f64
        }
    }

    /// Total bytes read by the block.
    pub fn bytes_read(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| !s.write)
            .map(|s| s.logical_bytes())
            .sum()
    }

    /// Total bytes written by the block.
    pub fn bytes_written(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.write)
            .map(|s| s.logical_bytes())
            .sum()
    }
}

impl MemSegment {
    /// Bytes actually moved (for Random patterns: `count × width`, which can
    /// differ from the range length).
    pub fn logical_bytes(&self) -> u64 {
        match self.pattern {
            AccessPattern::Random { count, width } => count * width as u64,
            _ => self.bytes,
        }
    }
}

/// Fluent builder for [`BlockTrace`]; kernels use it while executing.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: BlockTrace,
}

impl TraceBuilder {
    /// Starts a trace for a block of `threads` launched threads, of which
    /// `effective` do useful work.
    pub fn new(threads: u32, effective: u32) -> Self {
        TraceBuilder {
            trace: BlockTrace {
                threads,
                effective_threads: effective.min(threads),
                compute_per_thread: 0,
                lane_imbalance: 1.0,
                segments: Vec::new(),
                barriers: 0,
                atomics: 0,
                atomic_conflict: 1.0,
                shared_mem_bytes: 0,
                regs_per_thread: 32,
            },
        }
    }

    /// Adds `n` MAC-equivalents of uniform per-thread compute.
    pub fn compute(mut self, macs_per_thread: u64) -> Self {
        self.trace.compute_per_thread += macs_per_thread;
        self
    }

    /// Sets the intra-warp lane-imbalance multiplier (≥ 1).
    pub fn lane_imbalance(mut self, factor: f64) -> Self {
        self.trace.lane_imbalance = factor.max(1.0);
        self
    }

    /// Records a coalesced read of `bytes` at `offset` in `region`.
    pub fn read(mut self, region: RegionId, offset: u64, bytes: u64) -> Self {
        self.trace.segments.push(MemSegment {
            region,
            offset,
            bytes,
            pattern: AccessPattern::Coalesced,
            write: false,
            atomic: false,
        });
        self
    }

    /// Records a coalesced write of `bytes` at `offset` in `region`.
    pub fn write(mut self, region: RegionId, offset: u64, bytes: u64) -> Self {
        self.trace.segments.push(MemSegment {
            region,
            offset,
            bytes,
            pattern: AccessPattern::Coalesced,
            write: true,
            atomic: false,
        });
        self
    }

    /// Records a data-dependent gather of `count × width` bytes anywhere in
    /// `[offset, offset + range)` of `region`.
    pub fn gather(
        mut self,
        region: RegionId,
        offset: u64,
        range: u64,
        count: u64,
        width: u32,
    ) -> Self {
        self.trace.segments.push(MemSegment {
            region,
            offset,
            bytes: range,
            pattern: AccessPattern::Random { count, width },
            write: false,
            atomic: false,
        });
        self
    }

    /// Records a non-atomic scattered write of `count` chunks of `width`
    /// bytes anywhere in `[offset, offset + range)` of `region` — e.g. the
    /// Block Reorganizer's row-wise relocation of outer-product results,
    /// whose destinations are precomputed (no atomics needed) but not
    /// contiguous.
    pub fn scatter_write(
        mut self,
        region: RegionId,
        offset: u64,
        range: u64,
        count: u64,
        width: u32,
    ) -> Self {
        self.trace.segments.push(MemSegment {
            region,
            offset,
            bytes: range,
            pattern: AccessPattern::Random { count, width },
            write: true,
            atomic: false,
        });
        self
    }

    /// Records `count` atomic RMWs of `width` bytes scattered over
    /// `[offset, offset + range)` of `region`, with the given mean number of
    /// conflicting atomics per address.
    pub fn atomic_scatter(
        mut self,
        region: RegionId,
        offset: u64,
        range: u64,
        count: u64,
        width: u32,
        conflict: f64,
    ) -> Self {
        self.trace.segments.push(MemSegment {
            region,
            offset,
            bytes: range,
            pattern: AccessPattern::Random { count, width },
            write: true,
            atomic: true,
        });
        self.trace.atomics += count;
        // Running weighted mean over all atomic segments of the block.
        let prev = self.trace.atomic_conflict;
        let total = self.trace.atomics.max(1) as f64;
        let w_new = count as f64 / total;
        self.trace.atomic_conflict = prev * (1.0 - w_new) + conflict.max(1.0) * w_new;
        self
    }

    /// Records `n` block-wide barriers.
    pub fn barriers(mut self, n: u32) -> Self {
        self.trace.barriers += n;
        self
    }

    /// Sets the block's static shared-memory allocation.
    pub fn shared_mem(mut self, bytes: u32) -> Self {
        self.trace.shared_mem_bytes = bytes;
        self
    }

    /// Sets registers per thread (default 32).
    pub fn regs(mut self, regs_per_thread: u32) -> Self {
        self.trace.regs_per_thread = regs_per_thread;
        self
    }

    /// Finishes the trace.
    pub fn build(self) -> BlockTrace {
        self.trace
    }
}

/// One kernel launch: a name (for profiles) and its blocks in launch order.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelLaunch {
    /// Kernel name, surfaced in profiles.
    pub name: String,
    /// Thread blocks in launch (= dispatch) order.
    pub blocks: Vec<BlockTrace>,
}

impl KernelLaunch {
    /// Creates a launch.
    pub fn new(name: impl Into<String>, blocks: Vec<BlockTrace>) -> Self {
        KernelLaunch {
            name: name.into(),
            blocks,
        }
    }

    /// Histogram of blocks by effective-thread count in log2 buckets
    /// (bucket `k` ⇔ `[2ᵏ, 2ᵏ⁺¹)`, bucket 0 holds 0 and 1) — Figure 3(b).
    pub fn effective_thread_histogram(&self) -> Vec<usize> {
        let mut hist = Vec::new();
        for b in &self.blocks {
            let e = b.effective_threads as usize;
            let bucket = if e <= 1 {
                0
            } else {
                (usize::BITS - e.leading_zeros()) as usize - 1
            };
            if hist.len() <= bucket {
                hist.resize(bucket + 1, 0);
            }
            hist[bucket] += 1;
        }
        hist
    }
}

/// Assigns non-overlapping base addresses to logical regions so the L2
/// simulator sees a consistent flat address space.
#[derive(Debug, Clone, Default)]
pub struct MemoryLayout {
    bases: Vec<(u64, u64)>, // (base, size)
    next: u64,
}

impl MemoryLayout {
    /// An empty layout starting at address 0.
    pub fn new() -> Self {
        MemoryLayout {
            bases: Vec::new(),
            next: 0,
        }
    }

    /// Allocates a region of `bytes`, aligned to 256 B like `cudaMalloc`.
    pub fn alloc(&mut self, bytes: u64) -> RegionId {
        let id = RegionId(self.bases.len() as u32);
        let base = self.next;
        self.bases.push((base, bytes));
        self.next = (base + bytes + 255) & !255u64;
        id
    }

    /// Base address of a region.
    pub fn base(&self, region: RegionId) -> u64 {
        self.bases[region.0 as usize].0
    }

    /// Declared size of a region.
    pub fn size(&self, region: RegionId) -> u64 {
        self.bases[region.0 as usize].1
    }

    /// Total allocated footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_transactions_round_up() {
        let seg = MemSegment {
            region: RegionId(0),
            offset: 0,
            bytes: 129,
            pattern: AccessPattern::Coalesced,
            write: false,
            atomic: false,
        };
        assert_eq!(seg.transactions(128), 2);
    }

    #[test]
    fn strided_transactions_account_for_line_sharing() {
        // stride 64 B inside 128 B lines: 2 accesses share a line.
        let seg = MemSegment {
            region: RegionId(0),
            offset: 0,
            bytes: 1024,
            pattern: AccessPattern::Strided(64),
            write: false,
            atomic: false,
        };
        assert_eq!(seg.transactions(128), 8);
        // stride 256 B: every access its own line.
        let seg = MemSegment {
            pattern: AccessPattern::Strided(256),
            ..seg
        };
        assert_eq!(seg.transactions(128), 4);
    }

    #[test]
    fn random_transactions_equal_count() {
        let seg = MemSegment {
            region: RegionId(0),
            offset: 0,
            bytes: 1 << 20,
            pattern: AccessPattern::Random {
                count: 1000,
                width: 8,
            },
            write: true,
            atomic: true,
        };
        assert_eq!(seg.transactions(128), 1000);
        assert_eq!(seg.logical_bytes(), 8000);
    }

    #[test]
    fn builder_accumulates() {
        let t = TraceBuilder::new(256, 40)
            .compute(100)
            .compute(50)
            .read(RegionId(1), 0, 4096)
            .write(RegionId(2), 128, 1024)
            .barriers(2)
            .shared_mem(8192)
            .build();
        assert_eq!(t.threads, 256);
        assert_eq!(t.effective_threads, 40);
        assert_eq!(t.compute_per_thread, 150);
        assert_eq!(t.segments.len(), 2);
        assert_eq!(t.barriers, 2);
        assert_eq!(t.bytes_read(), 4096);
        assert_eq!(t.bytes_written(), 1024);
        assert_eq!(t.warps(32), 8);
        assert!((t.effective_ratio() - 40.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn effective_threads_clamped_to_launched() {
        let t = TraceBuilder::new(32, 100).build();
        assert_eq!(t.effective_threads, 32);
    }

    #[test]
    fn atomic_conflict_weighted_mean() {
        let t = TraceBuilder::new(32, 32)
            .atomic_scatter(RegionId(0), 0, 4096, 100, 8, 4.0)
            .atomic_scatter(RegionId(0), 0, 4096, 300, 8, 1.0)
            .build();
        assert_eq!(t.atomics, 400);
        // mean conflict = (100*4 + 300*1)/400 = 1.75
        assert!((t.atomic_conflict - 1.75).abs() < 1e-9);
    }

    #[test]
    fn layout_is_non_overlapping_and_aligned() {
        let mut layout = MemoryLayout::new();
        let a = layout.alloc(100);
        let b = layout.alloc(1000);
        assert_eq!(layout.base(a), 0);
        assert_eq!(layout.base(b) % 256, 0);
        assert!(layout.base(b) >= 100);
        assert_eq!(layout.size(b), 1000);
        assert!(layout.footprint() >= 1100);
    }

    #[test]
    fn histogram_buckets_blocks_by_effective_threads() {
        let blocks = vec![
            TraceBuilder::new(32, 1).build(),
            TraceBuilder::new(32, 2).build(),
            TraceBuilder::new(32, 3).build(),
            TraceBuilder::new(256, 200).build(),
        ];
        let k = KernelLaunch::new("k", blocks);
        let h = k.effective_thread_histogram();
        assert_eq!(h[0], 1); // eff=1
        assert_eq!(h[1], 2); // eff=2,3
        assert_eq!(h[7], 1); // eff=200 in [128,256)
    }
}
