//! Typed instrument registry.
//!
//! A [`Registry`] owns a set of metric *families* (one per metric name), each
//! holding one instrument per distinct label set. Handles returned by the
//! registration methods ([`Counter`], [`Gauge`], [`Histogram`]) are cheap
//! clones of shared atomic cells: hot paths update them without touching the
//! registry lock, and re-registering the same `(name, labels)` pair returns a
//! handle to the *same* cell, so independent call sites accumulate into one
//! sample.
//!
//! Determinism contract: families are stored in a `BTreeMap` keyed by name and
//! samples in a `BTreeMap` keyed by the sorted label set, so exposition order
//! is a pure function of registry *content*, never of registration order or
//! thread interleaving. Instruments whose values depend on scheduling or wall
//! clocks (queue depths over time, durations, pool high-water marks) must be
//! registered through the `timing_*` variants; renderers exclude those
//! families unless explicitly asked for them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::span::SpanGuard;
use crate::Clock;

/// Acquire a mutex guard, recovering the inner data if a previous holder
/// panicked and poisoned the lock.
///
/// Instrument cells are plain atomics and the registry maps are only held for
/// short, panic-free critical sections, so recovering from poison is always
/// safe here; the helper is public because dependents (notably `br-service`)
/// reuse it for the same discipline on their own locks.
pub fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The kind of a metric family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Arbitrary `f64` that can go up and down.
    Gauge,
    /// Fixed-bucket distribution of `u64` observations.
    Histogram,
}

impl Kind {
    /// Prometheus `# TYPE` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A sorted, owned label set identifying one sample within a family.
pub type LabelSet = Vec<(String, String)>;

/// Monotonic counter handle.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`. Additions commute, so concurrent updates from any
    /// thread interleaving yield the same final value.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Gauge handle storing an `f64` as atomic bits.
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge to `v` (last write wins).
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Convenience for integer-valued gauges.
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// Raise the gauge to `v` if `v` exceeds the current value (high-water
    /// mark semantics). The max operation commutes, so concurrent updates are
    /// order-independent.
    pub fn set_max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Bucket layout for a [`Histogram`]: upper bounds at
/// `2^(start_exp + i*step_exp)` for `i` in `0..buckets`, plus an implicit
/// `+Inf` overflow bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSpec {
    /// Exponent of the first bucket's upper bound.
    pub start_exp: u32,
    /// Exponent stride between consecutive bounds.
    pub step_exp: u32,
    /// Number of finite buckets.
    pub buckets: usize,
}

impl Default for HistogramSpec {
    /// `le = 2^0, 2^2, ..., 2^32` — 17 finite buckets spanning one to ~4e9,
    /// wide enough for row counts and simulated cycle totals alike.
    fn default() -> Self {
        HistogramSpec {
            start_exp: 0,
            step_exp: 2,
            buckets: 17,
        }
    }
}

impl HistogramSpec {
    /// The finite upper bounds described by this spec.
    pub fn bounds(&self) -> Vec<u64> {
        (0..self.buckets)
            .map(|i| 1u64 << (self.start_exp + (i as u32) * self.step_exp))
            .collect()
    }
}

struct HistogramCore {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` cells; the last one is the `+Inf` overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    total: AtomicU64,
}

/// Fixed-bucket histogram handle over `u64` observations.
///
/// Observations, sums, and counts are all integers updated with commutative
/// atomic additions, so the final state is independent of thread interleaving.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.core.bounds.partition_point(|b| *b < v);
        self.core.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
        self.core.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.core.total.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    help: String,
    kind: Kind,
    timing: bool,
    samples: BTreeMap<LabelSet, Cell>,
}

/// Snapshot of one sample's value, decoupled from the live atomics.
#[derive(Clone, Debug)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state: finite bounds, per-bucket (non-cumulative) counts
    /// including the trailing overflow bucket, sum, and total count.
    Histogram {
        /// Finite bucket upper bounds.
        bounds: Vec<u64>,
        /// Per-bucket counts; `bounds.len() + 1` entries.
        counts: Vec<u64>,
        /// Sum of observations.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// Snapshot of a whole family for rendering.
#[derive(Clone, Debug)]
pub struct FamilySnapshot {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Family kind.
    pub kind: Kind,
    /// Whether values depend on scheduling / wall clocks.
    pub timing: bool,
    /// Samples in sorted label-set order.
    pub samples: Vec<(LabelSet, SampleValue)>,
}

/// Coarse totals over a registry, for informational report sections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryTotals {
    /// Number of metric families.
    pub families: u64,
    /// Number of samples across all families.
    pub samples: u64,
    /// Span enter/exit events: two per completed span, derived from
    /// `br_span_total`.
    pub span_events: u64,
}

static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

/// A process- or component-scoped collection of instruments and spans.
pub struct Registry {
    id: u64,
    families: Mutex<BTreeMap<String, Family>>,
    clock: Mutex<Option<Arc<dyn Clock>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let totals = self.totals();
        f.debug_struct("Registry")
            .field("families", &totals.families)
            .field("samples", &totals.samples)
            .field("span_events", &totals.span_events)
            .finish()
    }
}

impl Registry {
    /// Create an empty registry with no clock (all output timestamp-free).
    pub fn new() -> Self {
        Registry {
            id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
            families: Mutex::new(BTreeMap::new()),
            clock: Mutex::new(None),
        }
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Install a clock. Span guards start recording durations (into the
    /// timing-flagged `br_span_duration_ns` histogram) from this point on;
    /// without a clock no instrument ever sees a timestamp.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *lock_recover(&self.clock) = Some(clock);
    }

    pub(crate) fn clock(&self) -> Option<Arc<dyn Clock>> {
        lock_recover(&self.clock).clone()
    }

    /// Register (or look up) a deterministic counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, help, labels, Kind::Counter, false) {
            Cell::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Register (or look up) a counter whose value depends on scheduling.
    pub fn timing_counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, help, labels, Kind::Counter, true) {
            Cell::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Register (or look up) a deterministic gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, help, labels, Kind::Gauge, false) {
            Cell::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Register (or look up) a gauge whose value depends on scheduling or
    /// wall clocks (queue depth over time, pool high-water marks).
    pub fn timing_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, help, labels, Kind::Gauge, true) {
            Cell::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Register (or look up) a deterministic histogram with default
    /// power-of-two buckets.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with(name, help, labels, HistogramSpec::default(), false)
    }

    /// Register (or look up) a timing-flagged histogram (wall-clock
    /// durations) with default power-of-two buckets.
    pub fn timing_histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with(name, help, labels, HistogramSpec::default(), true)
    }

    /// Register (or look up) a histogram with an explicit bucket layout. If
    /// the sample already exists, the existing cell (and its original bucket
    /// layout) is returned.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        spec: HistogramSpec,
        timing: bool,
    ) -> Histogram {
        let cell = self.instrument_with(name, help, labels, Kind::Histogram, timing, || {
            let bounds = spec.bounds();
            let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
            Cell::Histogram(Histogram {
                core: Arc::new(HistogramCore {
                    bounds,
                    counts,
                    sum: AtomicU64::new(0),
                    total: AtomicU64::new(0),
                }),
            })
        });
        match cell {
            Cell::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        timing: bool,
    ) -> Cell {
        self.instrument_with(name, help, labels, kind, timing, || match kind {
            Kind::Counter => Cell::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
            }),
            Kind::Gauge => Cell::Gauge(Gauge {
                bits: Arc::new(AtomicU64::new(0f64.to_bits())),
            }),
            Kind::Histogram => unreachable!("histograms go through histogram_with"),
        })
    }

    fn instrument_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        timing: bool,
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        validate_name(name);
        let key = sorted_labels(labels);
        let mut families = lock_recover(&self.families);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            timing,
            samples: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} re-registered as {:?} but is {:?}",
            kind,
            family.kind
        );
        assert!(
            family.timing == timing,
            "metric {name:?} re-registered with timing={timing} but was timing={}",
            family.timing
        );
        family.samples.entry(key).or_insert_with(make).clone()
    }

    /// Open a span named `name`, nested under this thread's innermost open
    /// span. Dropping the returned guard closes it.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard::enter(self, name)
    }

    /// Snapshot all families (and their current values) in deterministic
    /// name / label-set order.
    pub fn snapshot(&self) -> Vec<FamilySnapshot> {
        let families = lock_recover(&self.families);
        families
            .iter()
            .map(|(name, fam)| FamilySnapshot {
                name: name.clone(),
                help: fam.help.clone(),
                kind: fam.kind,
                timing: fam.timing,
                samples: fam
                    .samples
                    .iter()
                    .map(|(labels, cell)| (labels.clone(), sample_value(cell)))
                    .collect(),
            })
            .collect()
    }

    /// Coarse totals for informational report sections.
    pub fn totals(&self) -> RegistryTotals {
        let snap = self.snapshot();
        let completed_spans: u64 = snap
            .iter()
            .filter(|f| f.name == "br_span_total")
            .flat_map(|f| &f.samples)
            .map(|(_, value)| match value {
                SampleValue::Counter(n) => *n,
                _ => 0,
            })
            .sum();
        RegistryTotals {
            families: snap.len() as u64,
            samples: snap.iter().map(|f| f.samples.len() as u64).sum(),
            span_events: 2 * completed_spans,
        }
    }

    /// Render the registry in Prometheus text exposition format. With
    /// `include_timing == false` (the deterministic mode), timing-flagged
    /// families are omitted and the output is byte-identical across thread
    /// counts and repeated runs over the same work.
    pub fn render_prometheus(&self, include_timing: bool) -> String {
        crate::render::render_prometheus(self, include_timing)
    }

    /// Render the registry as JSONL (one JSON object per metric sample),
    /// with the same timing-family filtering and determinism contract as
    /// [`Registry::render_prometheus`].
    pub fn render_jsonl(&self, include_timing: bool) -> String {
        crate::render::render_jsonl(self, include_timing)
    }
}

fn sample_value(cell: &Cell) -> SampleValue {
    match cell {
        Cell::Counter(c) => SampleValue::Counter(c.get()),
        Cell::Gauge(g) => SampleValue::Gauge(g.get()),
        Cell::Histogram(h) => SampleValue::Histogram {
            bounds: h.core.bounds.clone(),
            counts: h
                .core
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: h.sum(),
            count: h.count(),
        },
    }
}

fn validate_name(name: &str) {
    let mut chars = name.chars();
    let ok = match chars.next() {
        Some(c) => {
            (c.is_ascii_alphabetic() || c == '_')
                && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        None => false,
    };
    assert!(
        ok,
        "invalid metric name {name:?}: want [a-zA-Z_][a-zA-Z0-9_]*"
    );
}

fn sorted_labels(labels: &[(&str, &str)]) -> LabelSet {
    let mut out: LabelSet = labels
        .iter()
        .map(|(k, v)| {
            validate_name(k);
            (k.to_string(), v.to_string())
        })
        .collect();
    out.sort();
    for pair in out.windows(2) {
        assert!(
            pair[0].0 != pair[1].0,
            "duplicate label key {:?}",
            pair[0].0
        );
    }
    out
}
