//! The simulator front-end: L2 pass → context derivation → two-pass timing
//! → scheduling → profile.

use std::collections::HashMap;

use crate::device::DeviceConfig;
use crate::l2cache::{BlockL2, L2Cache};
use crate::occupancy::{max_resident_blocks, warp_occupancy};
use crate::profiler::{KernelProfile, L2Stats};
use crate::scheduler::schedule;
use crate::timing::{block_timing, unfloored_duration, SmContext};
use crate::trace::{BlockTrace, KernelLaunch, MemoryLayout};
use br_sparse::par;

/// Fixed kernel launch latency in core cycles (driver + grid setup).
const KERNEL_LAUNCH_CYCLES: f64 = 4000.0;

/// Records one finished kernel profile into the global observability
/// registry. Launch counts and makespan histograms are deterministic
/// (commutative adds keyed by kernel name); the LBI / L2-hit-rate summary
/// gauges are last-write-wins and therefore registered as *timing*
/// instruments — concurrent jobs race on them, so they are excluded from
/// the byte-compared exposition.
fn record_profile(profile: &KernelProfile) {
    let reg = br_obs::global();
    let labels = &[("kernel", profile.name.as_str())][..];
    reg.counter(
        "br_sim_kernel_launches_total",
        "Simulated kernel launches per kernel name.",
        labels,
    )
    .inc();
    reg.histogram(
        "br_sim_makespan_cycles",
        "Simulated kernel makespan, core cycles.",
        labels,
    )
    .observe(profile.makespan_cycles as u64);
    reg.timing_gauge(
        "br_sim_lbi",
        "Load-balancing index of the most recent launch of this kernel.",
        labels,
    )
    .set(profile.lbi());
    reg.timing_gauge(
        "br_sim_l2_hit_rate",
        "L2 hit rate of the most recent launch of this kernel.",
        labels,
    )
    .set(profile.l2.hit_rate());
}

/// Records launches served from a memoized profile instead of simulated
/// (a plan's replayed Cached-mode execution) under their own counter, so
/// `br_sim_kernel_launches_total` keeps counting only real simulations.
/// A replay records no makespan histogram and no LBI / L2 gauges: the
/// simulated launch it repeats already did.
pub fn record_replays(profiles: &[KernelProfile]) {
    let reg = br_obs::global();
    for profile in profiles {
        reg.counter(
            "br_sim_kernel_replays_total",
            "Kernel launches replayed from a memoized profile instead of simulated, per kernel name.",
            &[("kernel", profile.name.as_str())],
        )
        .inc();
    }
}

/// Below this block count the per-block passes run sequentially — spawn
/// overhead would dominate, and small launches are the common case inside
/// already-parallel benchmark grids.
const PAR_BLOCK_THRESHOLD: usize = 512;

/// Executes [`KernelLaunch`]es against one device configuration.
///
/// L2 state persists across a [`GpuSimulator::run_sequence`] — data produced
/// by the expansion kernel is still (partially) resident when the merge
/// kernel starts, as on real hardware.
///
/// The per-block timing passes distribute over scoped host threads (see
/// [`GpuSimulator::with_threads`]); profiles are bit-identical at any
/// thread count because every floating-point reduction is folded on the
/// calling thread in block launch order, and the stateful L2 streaming
/// pass always runs as a sequential pre-pass.
#[derive(Debug, Clone)]
pub struct GpuSimulator {
    device: DeviceConfig,
    threads: usize,
}

/// Key grouping blocks of identical resource shape: occupancy and hiding
/// are computed per group (homogeneous-residency approximation).
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct ShapeKey {
    threads: u32,
    shared_mem: u32,
    regs: u32,
}

impl ShapeKey {
    fn of(b: &BlockTrace) -> Self {
        ShapeKey {
            threads: b.threads,
            shared_mem: b.shared_mem_bytes,
            regs: b.regs_per_thread,
        }
    }
}

impl GpuSimulator {
    /// Creates a simulator for the given device, with the host worker
    /// count resolved once from `BR_THREADS` (which `--threads` sets), else
    /// the available cores.
    pub fn new(device: DeviceConfig) -> Self {
        GpuSimulator {
            device,
            threads: par::effective_threads(None),
        }
    }

    /// Overrides the host worker count for the per-block timing passes
    /// (`1` = exact sequential path). Profiles do not depend on it.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The host worker count used for per-block passes.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Runs one kernel on a cold L2.
    pub fn run(&self, launch: &KernelLaunch, layout: &MemoryLayout) -> KernelProfile {
        self.launch(launch, layout, &mut L2Cache::for_device(&self.device))
    }

    /// Runs a sequence of kernels back-to-back, L2 state carried across.
    pub fn run_sequence(
        &self,
        launches: &[KernelLaunch],
        layout: &MemoryLayout,
    ) -> Vec<KernelProfile> {
        let mut l2 = L2Cache::for_device(&self.device);
        launches
            .iter()
            .map(|k| self.launch(k, layout, &mut l2))
            .collect()
    }

    /// Runs one kernel against the L2 state `l2`, leaving it there.
    fn launch(
        &self,
        launch: &KernelLaunch,
        layout: &MemoryLayout,
        l2: &mut L2Cache,
    ) -> KernelProfile {
        let dev = &self.device;
        #[cfg(debug_assertions)]
        if let Err(e) = crate::validate::validate_launch(launch, layout, dev) {
            panic!("malformed kernel launch {:?}: {e}", launch.name);
        }
        if launch.blocks.is_empty() {
            let profile = KernelProfile {
                name: launch.name.clone(),
                makespan_cycles: KERNEL_LAUNCH_CYCLES,
                time_ms: dev.cycles_to_ms(KERNEL_LAUNCH_CYCLES),
                sm_busy: vec![0.0; dev.num_sms as usize],
                num_blocks: 0,
                busy_cycles: 0.0,
                sync_stall_cycles: 0.0,
                l2: L2Stats::default(),
                effective_thread_histogram: vec![],
                occupancy: 0.0,
                bandwidth_pressure: 0.0,
            };
            record_profile(&profile);
            return profile;
        }

        // Host worker count for the per-block passes. Everything reduced
        // across blocks is either assembled in block order or folded
        // sequentially on this thread, so the count never changes a
        // profile — it only changes wall-clock.
        let threads = if launch.blocks.len() < PAR_BLOCK_THRESHOLD {
            1
        } else {
            self.threads
        };

        // ---- per-shape contexts (occupancy, hiding) ----
        // The per-block warp fractions are computed in parallel; the float
        // sums are folded here in block launch order (bit-stable).
        let eff_warp_frac: Vec<f64> = par::ordered_map(&launch.blocks, threads, |_, b| {
            b.effective_warp_fraction(dev.warp_size)
        });
        let mut shape_stats: HashMap<ShapeKey, (u64, f64)> = HashMap::new(); // (blocks, eff_warp_frac_sum)
        for (b, &frac) in launch.blocks.iter().zip(&eff_warp_frac) {
            let e = shape_stats.entry(ShapeKey::of(b)).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += frac;
        }

        // ---- concurrency-thrashing model ----
        //
        // The sequential L2 streaming below captures launch-order reuse
        // (split blocks re-hitting their shared dominator row) but is blind
        // to concurrent interference: on real silicon, `num_sms × resident`
        // blocks interleave their accesses, and every block's **private**
        // scatter working set (dense-accumulator slices, per-row chunks)
        // stays resident only for its share of the cache. We estimate how
        // many blocks are live at once, give each an even share of the
        // cache, and retain a block's scatter hits in proportion to how much
        // of its private working set fits in that share. Heavy-row merge
        // blocks carry most of the private traffic, so their residency sets
        // the live count for *everyone* — precisely the contention
        // B-Limiting relieves by shrinking their residency (Figure 7:
        // "Large memory contention" → "Small memory contention").
        // Only scattered accesses with *reuse* form a working set that
        // concurrency can evict: atomic RMW (accumulators) and random
        // reads. One-shot scatter writes (row relocation streams) have no
        // reuse to lose and are excluded.
        let is_working_set = |s: &crate::trace::MemSegment| {
            matches!(s.pattern, crate::trace::AccessPattern::Random { .. })
                && (s.atomic || !s.write)
        };
        let private_bytes = |b: &BlockTrace| -> u64 {
            b.segments
                .iter()
                .filter(|s| is_working_set(s))
                .map(|s| s.logical_bytes().min(s.bytes))
                .sum()
        };
        // Expected concurrently-live blocks, weighting each shape group by
        // its share of the private bytes (a block's own scatter traffic is
        // the duration proxy — it stays resident roughly in proportion to
        // it):
        //
        //   live_blocks = num_sms × Σ_g timeshare_g × resident_g
        //
        // with timeshare_g = Σ private_g / Σ private_all and resident_g the
        // group's per-SM residency limit.
        //
        // The per-block segment scans parallelize; the group fold and the
        // `live_blocks` sum run on this thread, the latter over groups in
        // first-appearance (launch) order so the float sum never depends on
        // hash-map iteration order.
        let private: Vec<u64> = par::ordered_map(&launch.blocks, threads, |_, b| private_bytes(b));
        // Per group, in launch order: (index of its first block, Σ private).
        let mut groups: Vec<(usize, f64)> = Vec::new();
        let mut group_of: HashMap<ShapeKey, usize> = HashMap::new();
        for (i, (b, &p)) in launch.blocks.iter().zip(&private).enumerate() {
            let g = *group_of.entry(ShapeKey::of(b)).or_insert_with(|| {
                groups.push((i, 0.0));
                groups.len() - 1
            });
            groups[g].1 += p as f64;
        }
        let total_private: f64 = groups.iter().map(|&(_, sum_p)| sum_p).sum();
        let mut live_blocks = 0.0f64;
        if total_private > 0.0 {
            for &(first, sum_p) in &groups {
                if sum_p <= 0.0 {
                    continue;
                }
                let resident = max_resident_blocks(dev, &launch.blocks[first]) as f64;
                let timeshare = sum_p / total_private;
                live_blocks += dev.num_sms as f64 * timeshare * resident;
            }
        }
        // Each concurrently-live block gets an even share of (half) the L2
        // for its private data; a block retains its scatter hits only to the
        // extent its own working set fits in that share. Small accumulators
        // survive; hub-row giants thrash — and limiting the giants' residency
        // grows everyone's share.
        let per_block_share = if live_blocks > 0.0 {
            dev.l2_bytes as f64 * 0.5 / live_blocks
        } else {
            f64::INFINITY
        };
        let retention_of = |private: u64| -> f64 {
            if private == 0 {
                1.0
            } else {
                (per_block_share / private as f64).clamp(0.0, 1.0)
            }
        };

        // ---- L2 pass: stream every block's segments in launch order ----
        // The cache state is carried block to block (launch-order reuse is
        // the point), so this pass is inherently sequential and always runs
        // as an ordered pre-pass on this thread regardless of `threads`.
        let block_l2: Vec<BlockL2> = launch
            .blocks
            .iter()
            .zip(&private)
            .map(|(b, &private_b)| {
                let mut out = BlockL2::default();
                let mut scatter_hits = 0u64;
                for seg in &b.segments {
                    let (h, m) = l2.stream_segment(layout, seg);
                    if is_working_set(seg) {
                        scatter_hits += h;
                    }
                    out.hit_transactions += h;
                    out.miss_transactions += m;
                    if seg.write {
                        out.write_bytes += seg.logical_bytes();
                    } else {
                        out.read_bytes += seg.logical_bytes();
                    }
                }
                let retention = retention_of(private_b);
                let demoted = (scatter_hits as f64 * (1.0 - retention)).round() as u64;
                out.hit_transactions -= demoted;
                out.miss_transactions += demoted;
                out
            })
            .collect();
        let context_for = |b: &BlockTrace, rho: f64| -> SmContext {
            let key = ShapeKey::of(b);
            let (count, eff_warp_sum) = shape_stats[&key];
            let resident_limit = max_resident_blocks(dev, b);
            // Cannot be more resident than exist per SM on average.
            let avail = (count as f64 / dev.num_sms as f64).ceil().max(1.0);
            let resident = (resident_limit as f64).min(avail);
            let avg_eff_warps = eff_warp_sum / count as f64;
            SmContext {
                resident_blocks: resident as u32,
                hiding_warps: resident * avg_eff_warps,
                bandwidth_pressure: rho,
            }
        };

        // ---- pass 1: unthrottled durations to estimate bandwidth demand ----
        // Each block's timing depends only on its own trace and L2 summary,
        // so this fans out; the reductions below fold sequentially in launch
        // order on this thread, keeping the result bit-identical for any
        // thread count.
        let durations0: Vec<f64> = par::ordered_map(&launch.blocks, threads, |i, b| {
            unfloored_duration(&block_timing(dev, b, &block_l2[i], &context_for(b, 0.0)))
        });
        let total_bytes: u64 = block_l2.iter().map(|l| l.read_bytes + l.write_bytes).sum();
        let total_work: f64 = durations0.iter().sum();
        let longest: f64 = durations0.iter().copied().fold(0.0, f64::max);
        let parallel_sms = (launch.blocks.len() as f64)
            .min(dev.num_sms as f64)
            .max(1.0);
        let est_time = (total_work / parallel_sms).max(longest).max(1.0);
        let device_bytes_per_cycle = dev.l2_bandwidth_gbs * 1e9 / (dev.core_clock_mhz as f64 * 1e6);
        let rho = (total_bytes as f64 / est_time) / device_bytes_per_cycle;

        // ---- pass 2: final timings under contention, then schedule ----
        let timings: Vec<(f64, f64, f64)> = par::ordered_map(&launch.blocks, threads, |i, b| {
            let t = block_timing(dev, b, &block_l2[i], &context_for(b, rho));
            (t.duration, t.sync_stall_cycles, warp_occupancy(dev, b))
        });
        let mut sync_stall = 0.0;
        let mut occupancy_sum = 0.0;
        let mut durations = Vec::with_capacity(timings.len());
        for &(duration, stall, occ) in &timings {
            sync_stall += stall;
            occupancy_sum += occ;
            durations.push(duration);
        }
        let sched = schedule(&durations, dev.num_sms);

        let l2_stats = L2Stats {
            accesses: block_l2.iter().map(|l| l.transactions()).sum(),
            hits: block_l2.iter().map(|l| l.hit_transactions).sum(),
            read_bytes: block_l2.iter().map(|l| l.read_bytes).sum(),
            write_bytes: block_l2.iter().map(|l| l.write_bytes).sum(),
        };
        let makespan = sched.makespan + KERNEL_LAUNCH_CYCLES;
        let profile = KernelProfile {
            name: launch.name.clone(),
            makespan_cycles: makespan,
            time_ms: dev.cycles_to_ms(makespan),
            sm_busy: sched.sm_busy,
            num_blocks: launch.blocks.len(),
            busy_cycles: durations.iter().sum(),
            sync_stall_cycles: sync_stall,
            l2: l2_stats,
            effective_thread_histogram: launch.effective_thread_histogram(),
            occupancy: occupancy_sum / launch.blocks.len() as f64,
            bandwidth_pressure: rho,
        };
        record_profile(&profile);
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{RegionId, TraceBuilder};

    fn sim() -> GpuSimulator {
        GpuSimulator::new(DeviceConfig::titan_xp())
    }

    fn layout_with(bytes: u64) -> (MemoryLayout, RegionId) {
        let mut l = MemoryLayout::new();
        let r = l.alloc(bytes);
        (l, r)
    }

    #[test]
    fn empty_kernel_costs_launch_latency_only() {
        let p = sim().run(&KernelLaunch::new("empty", vec![]), &MemoryLayout::new());
        assert_eq!(p.num_blocks, 0);
        assert!((p.makespan_cycles - KERNEL_LAUNCH_CYCLES).abs() < 1e-9);
    }

    #[test]
    fn balanced_launch_has_high_lbi() {
        let (layout, r) = layout_with(1 << 24);
        let blocks: Vec<_> = (0..300)
            .map(|i| {
                TraceBuilder::new(256, 256)
                    .compute(5_000)
                    .read(r, (i * 4096) as u64, 4096)
                    .build()
            })
            .collect();
        let p = sim().run(&KernelLaunch::new("balanced", blocks), &layout);
        assert!(p.lbi() > 0.9, "LBI {}", p.lbi());
        assert_eq!(p.num_blocks, 300);
    }

    #[test]
    fn dominator_launch_has_low_lbi_and_splitting_fixes_it() {
        let (layout, r) = layout_with(1 << 24);
        // One 1M-MAC dominator + 100 tiny blocks.
        let mut blocks = vec![TraceBuilder::new(256, 256).compute(1_000_000).build()];
        blocks.extend((0..100).map(|_| TraceBuilder::new(256, 256).compute(100).build()));
        let p_skew = sim().run(&KernelLaunch::new("skewed", blocks), &layout);

        // Split the dominator into 64 equal parts.
        let mut split: Vec<_> = (0..64)
            .map(|_| TraceBuilder::new(256, 256).compute(1_000_000 / 64).build())
            .collect();
        split.extend((0..100).map(|_| TraceBuilder::new(256, 256).compute(100).build()));
        let p_split = sim().run(&KernelLaunch::new("split", split), &layout);

        assert!(p_skew.lbi() < 0.3, "skewed LBI {}", p_skew.lbi());
        assert!(p_split.lbi() > 0.6, "split LBI {}", p_split.lbi());
        assert!(p_split.makespan_cycles < p_skew.makespan_cycles / 2.0);
        let _ = r;
    }

    #[test]
    fn gathering_improves_underloaded_blocks() {
        let (layout, r) = layout_with(1 << 26);
        // The Section III-A.2 scenario: thousands of underloaded blocks
        // (2 effective of 256 launched threads), each touching a little
        // memory. No latency hiding, huge per-block overhead.
        let under: Vec<_> = (0..2048)
            .map(|i| {
                TraceBuilder::new(256, 2)
                    .compute(64)
                    .read(r, (i * 2048) as u64, 2048)
                    .barriers(1)
                    .build()
            })
            .collect();
        let p_before = sim().run(&KernelLaunch::new("under", under), &layout);

        // After B-Gathering with factor 16: 128 blocks of 32 threads, all
        // effective; same total traffic and per-thread compute.
        let gathered: Vec<_> = (0..128)
            .map(|i| {
                TraceBuilder::new(32, 32)
                    .compute(64)
                    .read(r, (i * 32768) as u64, 32768)
                    .barriers(1)
                    .build()
            })
            .collect();
        let p_after = sim().run(&KernelLaunch::new("gathered", gathered), &layout);

        assert!(
            p_after.makespan_cycles < p_before.makespan_cycles / 2.0,
            "gathering should clearly win: {} vs {}",
            p_after.makespan_cycles,
            p_before.makespan_cycles
        );
        assert!(p_after.sync_stall_ratio() < p_before.sync_stall_ratio());
    }

    #[test]
    fn l2_counters_accumulate() {
        let (layout, r) = layout_with(1 << 20);
        let blocks = vec![TraceBuilder::new(32, 32)
            .read(r, 0, 128 * 100)
            .write(r, 0, 128 * 50)
            .build()];
        let p = sim().run(&KernelLaunch::new("io", blocks), &layout);
        assert_eq!(p.l2.read_bytes, 12_800);
        assert_eq!(p.l2.write_bytes, 6_400);
        assert!(p.l2.accesses >= 150);
    }

    #[test]
    fn sequence_shares_l2_state() {
        let (layout, r) = layout_with(1 << 18); // 256 KiB, fits in 3 MiB L2
        let writer = KernelLaunch::new(
            "producer",
            vec![TraceBuilder::new(256, 256).write(r, 0, 1 << 18).build()],
        );
        let reader = KernelLaunch::new(
            "consumer",
            vec![TraceBuilder::new(256, 256).read(r, 0, 1 << 18).build()],
        );
        let profiles = sim().run_sequence(&[writer, reader.clone()], &layout);
        // Consumer should hit on lines the producer left resident…
        assert!(profiles[1].l2.hit_rate() > 0.9);
        // …whereas a cold run of the same consumer misses everywhere.
        let cold = sim().run(&reader, &layout);
        assert!(cold.l2.hit_rate() < 0.1);
    }

    #[test]
    fn bandwidth_pressure_rises_with_streaming_volume() {
        let (layout, r) = layout_with(1 << 30);
        let light = KernelLaunch::new(
            "light",
            (0..64)
                .map(|_| TraceBuilder::new(256, 256).compute(100_000).build())
                .collect(),
        );
        let heavy = KernelLaunch::new(
            "heavy",
            (0..64)
                .map(|i| {
                    TraceBuilder::new(256, 256)
                        .read(r, (i as u64) << 24, 1 << 24)
                        .build()
                })
                .collect(),
        );
        let p_light = sim().run(&light, &layout);
        let p_heavy = sim().run(&heavy, &layout);
        assert!(p_light.bandwidth_pressure < 0.1);
        assert!(p_heavy.bandwidth_pressure > 0.5);
    }

    /// A mixed-shape launch large enough to cross `PAR_BLOCK_THRESHOLD`,
    /// with scattered/atomic traffic so every model stage (shape stats,
    /// thrashing footprint, both timing passes) is exercised.
    fn mixed_launch(r: RegionId, n: usize) -> KernelLaunch {
        let blocks: Vec<_> = (0..n)
            .map(|i| {
                let base = (i as u64 % 64) << 16;
                match i % 3 {
                    0 => TraceBuilder::new(256, 256)
                        .compute(1_000 + (i as u64 * 37) % 5_000)
                        .read(r, base, 4096)
                        .atomic_scatter(r, base, 1 << 14, 200, 8, 1.5)
                        .barriers(1)
                        .build(),
                    1 => TraceBuilder::new(128, 96)
                        .compute(700 + (i as u64 * 13) % 900)
                        .gather(r, base, 1 << 16, 300, 4)
                        .build(),
                    _ => TraceBuilder::new(64, 64)
                        .scatter_write(r, base, 1 << 15, 100, 8)
                        .write(r, base, 2048)
                        .build(),
                }
            })
            .collect();
        KernelLaunch::new("mixed", blocks)
    }

    #[test]
    fn launches_are_tallied_in_the_global_registry() {
        let (layout, r) = layout_with(1 << 20);
        let launch = KernelLaunch::new(
            "obs-probe",
            vec![TraceBuilder::new(64, 64)
                .compute(500)
                .read(r, 0, 2048)
                .build()],
        );
        let counter = br_obs::global().counter(
            "br_sim_kernel_launches_total",
            "Simulated kernel launches per kernel name.",
            &[("kernel", "obs-probe")],
        );
        let before = counter.get();
        let _ = sim().run(&launch, &layout);
        let _ = sim().run(&launch, &layout);
        // Delta-based: other tests in this binary share the registry.
        assert!(counter.get() >= before + 2);
        let text = br_obs::global().render_prometheus(false);
        assert!(
            text.contains("br_sim_makespan_cycles_count{kernel=\"obs-probe\"}"),
            "makespan histogram missing:\n{text}"
        );
        // LBI / L2 gauges are timing instruments: absent from the
        // deterministic exposition, present in the timing one.
        assert!(!text.contains("br_sim_lbi"));
        assert!(br_obs::global()
            .render_prometheus(true)
            .contains("br_sim_lbi{kernel=\"obs-probe\"}"));
    }

    #[test]
    fn profiles_are_bit_identical_at_any_thread_count() {
        let (layout, r) = layout_with(1 << 24);
        let launch = mixed_launch(r, 700); // > PAR_BLOCK_THRESHOLD
        let dev = DeviceConfig::titan_xp();
        let baseline = GpuSimulator::new(dev.clone())
            .with_threads(1)
            .run(&launch, &layout);
        for threads in [2, 3, 8] {
            let parallel = GpuSimulator::new(dev.clone())
                .with_threads(threads)
                .run(&launch, &layout);
            // Every float must match exactly, not approximately: the
            // reductions are folded in launch order on the calling thread.
            assert_eq!(
                format!("{:?}", baseline),
                format!("{:?}", parallel),
                "threads={threads} diverged from sequential"
            );
        }
    }
}
