//! # br-obs — deterministic observability
//!
//! A zero-dependency instrumentation layer for the Block Reorganizer stack:
//! a [`Registry`] of typed instruments (monotonic [`Counter`]s, [`Gauge`]s,
//! fixed power-of-two-bucket [`Histogram`]s, and nested spans counted by
//! path) plus two exposition formats — Prometheus text and JSONL — whose
//! non-timing output is **byte-deterministic**:
//! sorted label sets, `BTreeMap`-ordered families, and no timestamps unless a
//! caller supplies a [`Clock`], so `BR_THREADS=1` and `BR_THREADS=8` runs of
//! the same work render identical bytes.
//!
//! ## Determinism contract
//!
//! Instruments come in two flavors:
//!
//! - **Deterministic** (default): values are pure functions of the work
//!   performed — cache hit/miss counters under single-flight, per-bin row
//!   counts, simulated cycle histograms. Updates are commutative integer
//!   atomics (or order-independent `max`), so thread interleaving cannot
//!   change the final value.
//! - **Timing-flagged** (`timing_*` constructors): values depend on
//!   scheduling or wall clocks — queue depth over time, scratch-pool
//!   high-water marks, span durations. Renderers exclude these families
//!   unless asked for them with `include_timing = true`.
//!
//! Components register instruments against either a local registry (e.g. one
//! per service, so tests don't interfere) or the process-wide [`global`]
//! registry used by library internals that have no registry to thread
//! through.

#![warn(missing_docs)]

mod registry;
mod render;
mod span;

pub use registry::{
    lock_recover, Counter, FamilySnapshot, Gauge, Histogram, HistogramSpec, Kind, LabelSet,
    Registry, RegistryTotals, SampleValue,
};
pub use span::SpanGuard;

use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A monotonic nanosecond clock. Installing one on a registry (via
/// [`Registry::set_clock`]) is the *only* way timestamps enter the system;
/// without it spans record order but never durations.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
}

/// Wall clock anchored at construction time.
pub struct WallClock {
    anchor: Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl WallClock {
    /// Create a wall clock anchored at "now".
    pub fn new() -> Self {
        WallClock {
            anchor: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }
}

/// The process-wide registry. Library internals (spgemm merge bins, gpu-sim
/// pass histograms) record here; binaries snapshot it on exit.
pub fn global() -> &'static Registry {
    global_cell().as_ref()
}

/// The process-wide registry as a shared handle, for injection into
/// components that hold an `Arc<Registry>` (e.g. a service config).
pub fn global_arc() -> Arc<Registry> {
    global_cell().clone()
}

fn global_cell() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// Convenience: install a [`WallClock`] on `reg`.
pub fn install_wall_clock(reg: &Registry) {
    reg.set_clock(Arc::new(WallClock::new()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn counter_accumulates_and_shares_cells() {
        let reg = Registry::new();
        let a = reg.counter("hits_total", "Hits.", &[("device", "gpu0")]);
        let b = reg.counter("hits_total", "Hits.", &[("device", "gpu0")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(b.get(), 4);
        let other = reg.counter("hits_total", "Hits.", &[("device", "gpu1")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn gauge_set_and_max() {
        let reg = Registry::new();
        let g = reg.gauge("depth", "Depth.", &[]);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set_max(1.0);
        assert_eq!(g.get(), 2.5);
        g.set_max(7.0);
        assert_eq!(g.get(), 7.0);
        g.set_u64(3);
        assert_eq!(g.get(), 3.0);
    }

    #[test]
    fn histogram_bucket_edges() {
        let reg = Registry::new();
        // Default spec: le = 2^0, 2^2, ..., 2^32.
        let h = reg.histogram("cycles", "Cycles.", &[]);
        h.observe(0); // le=1
        h.observe(1); // le=1 (le semantics: v <= bound)
        h.observe(2); // le=4
        h.observe(4); // le=4
        h.observe(5); // le=16
        h.observe(u64::MAX); // overflow (+Inf)
        assert_eq!(h.count(), 6);
        let snap = reg.snapshot();
        let fam = snap.iter().find(|f| f.name == "cycles").unwrap();
        match &fam.samples[0].1 {
            SampleValue::Histogram { counts, bounds, .. } => {
                assert_eq!(bounds[0], 1);
                assert_eq!(bounds[1], 4);
                assert_eq!(counts[0], 2);
                assert_eq!(counts[1], 2);
                assert_eq!(counts[2], 1);
                assert_eq!(*counts.last().unwrap(), 1);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x_total", "X.", &[]);
        let _ = reg.gauge("x_total", "X.", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        let reg = Registry::new();
        let _ = reg.counter("bad name", "X.", &[]);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        let a = reg.counter("m_total", "M.", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("m_total", "M.", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    /// Completed-span counts by path, from the strict exposition.
    fn span_totals(reg: &Registry) -> Vec<(String, u64)> {
        reg.snapshot()
            .into_iter()
            .filter(|f| f.name == "br_span_total")
            .flat_map(|f| f.samples)
            .map(|(labels, value)| match value {
                SampleValue::Counter(n) => (labels[0].1.clone(), n),
                other => panic!("br_span_total is a counter, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn spans_nest_per_thread_and_count_deterministically() {
        let reg = Registry::new();
        {
            let _job = reg.span("job");
            {
                let plan = reg.span("plan");
                assert_eq!(plan.path(), "job/plan");
            }
            let exec = reg.span("execute");
            assert_eq!(exec.path(), "job/execute");
        }
        // A span on another thread starts its own stack.
        std::thread::scope(|s| {
            s.spawn(|| {
                let plan = reg.span("plan");
                assert_eq!(plan.path(), "plan");
            });
        });
        assert_eq!(
            span_totals(&reg),
            vec![
                ("job".to_string(), 1),
                ("job/execute".to_string(), 1),
                ("job/plan".to_string(), 1),
                ("plan".to_string(), 1),
            ]
        );
        // No clock: no durations, and no timing histogram family.
        assert!(reg
            .snapshot()
            .iter()
            .all(|f| f.name != "br_span_duration_ns"));
    }

    #[test]
    fn clock_enables_durations_in_timing_output_only() {
        let reg = Registry::new();
        install_wall_clock(&reg);
        {
            let _s = reg.span("work");
        }
        assert_eq!(span_totals(&reg), vec![("work".to_string(), 1)]);
        let strict = reg.render_prometheus(false);
        assert!(!strict.contains("br_span_duration_ns"));
        assert!(
            strict.contains("br_span_total{path=\"work\"} 1"),
            "{strict}"
        );
        let full = reg.render_prometheus(true);
        assert!(
            full.contains("br_span_duration_ns_count{path=\"work\"} 1"),
            "{full}"
        );
    }

    #[test]
    fn exposition_is_independent_of_registration_order_and_threads() {
        let build = |flip: bool| {
            let reg = Registry::new();
            let names = if flip {
                ["b_total", "a_total"]
            } else {
                ["a_total", "b_total"]
            };
            for n in names {
                reg.counter(n, "N.", &[("k", "v")]).add(2);
            }
            reg.gauge("g", "G.", &[]).set(1.5);
            reg.histogram("h", "H.", &[]).observe(10);
            (reg.render_prometheus(false), reg.render_jsonl(false))
        };
        assert_eq!(build(false), build(true));

        // Concurrent updates from many threads land on identical bytes.
        let reg = std::sync::Arc::new(Registry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move || {
                    for i in 0..100u64 {
                        reg.counter("n_total", "N.", &[]).inc();
                        reg.histogram("h", "H.", &[]).observe(i);
                    }
                });
            }
        });
        let seq = Registry::new();
        for _ in 0..8 {
            for i in 0..100u64 {
                seq.counter("n_total", "N.", &[]).inc();
                seq.histogram("h", "H.", &[]).observe(i);
            }
        }
        assert_eq!(reg.render_prometheus(false), seq.render_prometheus(false));
        assert_eq!(reg.render_jsonl(false), seq.render_jsonl(false));
    }

    #[test]
    fn timing_families_are_filtered() {
        let reg = Registry::new();
        reg.counter("work_total", "Work.", &[]).inc();
        reg.timing_gauge("queue_depth", "Depth.", &[]).set(3.0);
        let strict = reg.render_prometheus(false);
        assert!(strict.contains("work_total"));
        assert!(!strict.contains("queue_depth"));
        let full = reg.render_prometheus(true);
        assert!(full.contains("queue_depth 3"));
        let strict_jsonl = reg.render_jsonl(false);
        assert!(!strict_jsonl.contains("queue_depth"));
        for line in strict_jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    /// Golden-file test for the Prometheus text renderer: a fixed registry
    /// must render these exact bytes. If the format changes intentionally,
    /// update the expectation *and* DESIGN.md §11.
    #[test]
    fn prometheus_golden() {
        let reg = Registry::new();
        reg.counter(
            "br_cache_hits_total",
            "Plan cache hits.",
            &[("device", "default")],
        )
        .add(42);
        reg.counter(
            "br_cache_hits_total",
            "Plan cache hits.",
            &[("device", "edge\"1")],
        )
        .add(7);
        reg.gauge(
            "br_lbi",
            "Load balancing inefficiency.",
            &[("kernel", "spgemm")],
        )
        .set(1.25);
        let h = reg.histogram_with(
            "br_rows",
            "Rows per merge call.",
            &[],
            HistogramSpec {
                start_exp: 0,
                step_exp: 1,
                buckets: 3,
            },
            false,
        );
        h.observe(1);
        h.observe(2);
        h.observe(100);
        let expected = "\
# HELP br_cache_hits_total Plan cache hits.
# TYPE br_cache_hits_total counter
br_cache_hits_total{device=\"default\"} 42
br_cache_hits_total{device=\"edge\\\"1\"} 7
# HELP br_lbi Load balancing inefficiency.
# TYPE br_lbi gauge
br_lbi{kernel=\"spgemm\"} 1.25
# HELP br_rows Rows per merge call.
# TYPE br_rows histogram
br_rows_bucket{le=\"1\"} 1
br_rows_bucket{le=\"2\"} 2
br_rows_bucket{le=\"4\"} 2
br_rows_bucket{le=\"+Inf\"} 3
br_rows_sum 103
br_rows_count 3
";
        assert_eq!(reg.render_prometheus(false), expected);
    }

    #[test]
    fn jsonl_shape_is_stable() {
        let reg = Registry::new();
        reg.counter("c_total", "C.", &[("k", "v")]).add(5);
        reg.gauge("g", "G.", &[]).set(0.5);
        let jsonl = reg.render_jsonl(false);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"metric\",\"name\":\"c_total\",\"kind\":\"counter\",\"labels\":{\"k\":\"v\"},\"value\":5}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"metric\",\"name\":\"g\",\"kind\":\"gauge\",\"labels\":{},\"value\":0.5}"
        );
    }

    #[test]
    fn lock_recover_survives_poison() {
        let m = std::sync::Mutex::new(1u32);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(res.is_err());
        assert!(m.is_poisoned());
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 2);
    }

    #[test]
    fn totals_count_families_samples_events() {
        let reg = Registry::new();
        reg.counter("a_total", "A.", &[]).inc();
        reg.counter("a_total", "A.", &[("k", "v")]).inc();
        reg.gauge("g", "G.", &[]).set(1.0);
        {
            let _s = reg.span("x");
        }
        let t = reg.totals();
        // Families: a_total, g, br_span_total.
        assert_eq!(t.families, 3);
        assert_eq!(t.samples, 4);
        assert_eq!(t.span_events, 2);
    }

    #[test]
    fn global_registry_is_shared() {
        static ONCE: AtomicU64 = AtomicU64::new(0);
        if ONCE.fetch_add(1, Ordering::Relaxed) == 0 {
            let before = global()
                .counter("br_obs_selftest_total", "Self test.", &[])
                .get();
            global()
                .counter("br_obs_selftest_total", "Self test.", &[])
                .add(3);
            let after = global()
                .counter("br_obs_selftest_total", "Self test.", &[])
                .get();
            assert_eq!(after, before + 3);
        }
    }
}
