//! LRU cache of reorganization plans.
//!
//! A [`block_reorganizer::plan::ReorgPlan`] depends only on the operands'
//! sparsity *structure*, the target device (split factors scale with the SM
//! count), and the [`PlanSettings`] it was built under. [`PlanKey`]
//! captures exactly those three inputs, so a cached plan is valid for every
//! request that maps to the same key — including requests whose matrix
//! *values* differ, since plans are value-independent.
//!
//! The cache is a plain `Mutex<HashMap>` with a monotonic recency tick:
//! capacities are small (tens of plans), so `O(n)` eviction is cheaper and
//! simpler than an intrusive list. Plans are handed out as
//! `Arc<ReorgPlan>`, so concurrent workers share one artifact without
//! copying, and eviction never invalidates an executing plan.
//!
//! The capacity counts plans, whose size is O(operand size). What a plan
//! memoizes of C grows with nnz(C) instead, so the cache bounds those
//! patterns separately, by bytes ([`PATTERN_BUDGET_BYTES`]): it drops
//! patterns, never plans, so hits, misses and evictions do not depend on
//! the budget.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use block_reorganizer::plan::ReorgPlan;
use block_reorganizer::reorder::ReorderStrategy;
use block_reorganizer::{PlanSettings, ReorganizerConfig};
use br_obs::{lock_recover, Counter, Registry};
use br_spgemm::context::ProblemSignature;
use br_spgemm::estimate::EstimatorConfig;

/// The full cache key: what a plan is a function of.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Sparsity signature of the operand pair.
    pub problem: ProblemSignature,
    /// Target device name (split factors depend on the SM count).
    pub device: String,
    /// [`PlanSettings::fingerprint`] of the settings the plan is built
    /// under: plans built under different settings (estimated vs exact,
    /// a reorder strategy) are different artifacts.
    pub settings: u64,
}

impl PlanKey {
    /// The key of the plan `settings` build for `problem` on `device`.
    pub fn for_settings(problem: ProblemSignature, device: &str, settings: &PlanSettings) -> Self {
        PlanKey {
            problem,
            device: device.to_string(),
            settings: settings.fingerprint(),
        }
    }

    /// [`PlanKey::for_settings`] with the settings spelled out.
    pub fn with_options(
        problem: ProblemSignature,
        device: &str,
        config: &ReorganizerConfig,
        estimator: Option<&EstimatorConfig>,
        reorder: ReorderStrategy,
    ) -> Self {
        Self::for_settings(
            problem,
            device,
            &PlanSettings {
                config: *config,
                estimator: estimator.copied(),
                reorder,
            },
        )
    }
}

/// Bytes of memoized C patterns ([`ReorgPlan::pattern_bytes`]) the
/// resident plans of one [`PlanCache`] may hold together: 64 MiB, a dozen
/// patterns of an rmat 12,8 product (≈ 5.3 MB each) or 250 of rmat 9,8.
pub const PATTERN_BUDGET_BYTES: usize = 64 << 20;

/// Hit/miss/eviction counters of a [`PlanCache`], sampled atomically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Plans evicted to make room.
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
    /// Maximum resident plans.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups that hit, in `[0, 1]` (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: Arc<ReorgPlan>,
    last_used: u64,
}

struct Inner {
    map: HashMap<PlanKey, Entry>,
    /// Keys whose plan is currently being built by some worker
    /// (single-flight: later requesters wait instead of rebuilding).
    building: HashSet<PlanKey>,
    tick: u64,
    /// This cache's own hit/miss/eviction counts (see [`PlanCache::stats`]).
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl InFlight<PlanKey> for Inner {
    fn in_flight(&mut self) -> &mut HashSet<PlanKey> {
        &mut self.building
    }
}

impl Inner {
    /// Evicts the least-recently-used entry if inserting `key` would
    /// overflow `capacity`, returning whether an eviction happened.
    fn make_room_for(&mut self, key: &PlanKey, capacity: usize) -> bool {
        if !self.map.contains_key(key) && self.map.len() >= capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                return true;
            }
        }
        false
    }

    /// Drops memoized C patterns until the resident plans' patterns fit in
    /// `budget` bytes: the least recently used holder's first, never
    /// `keep`'s. The plans themselves stay resident.
    fn trim_patterns(&self, keep: &PlanKey, budget: usize) {
        let mut held: usize = self.map.values().map(|e| e.plan.pattern_bytes()).sum();
        if held <= budget {
            return;
        }
        let mut holders: Vec<&Entry> = self
            .map
            .iter()
            .filter(|(key, e)| *key != keep && e.plan.pattern_bytes() > 0)
            .map(|(_, e)| e)
            .collect();
        holders.sort_unstable_by_key(|e| e.last_used);
        for entry in holders {
            if held <= budget {
                break;
            }
            held = held.saturating_sub(entry.plan.drop_pattern());
        }
    }
}

/// Thread-safe LRU plan cache.
///
/// The cache counts its own hits, misses, and evictions (what
/// [`PlanCache::stats`] reports) and mirrors every increment into a
/// [`br_obs::Registry`] (one private registry per cache by default, or a
/// shared one via [`PlanCache::with_registry`]) for the service's
/// Prometheus/JSONL exposition. A shared registry hands every cache the
/// *same* named counters, so the exposition sums all caches on it while
/// each cache's `stats()` stays its own. Hits, misses, and evictions are
/// deterministic under single-flight; the single-flight *wait* counter is
/// timing-flagged because whether a waiter actually blocks depends on
/// scheduling.
pub struct PlanCache {
    capacity: usize,
    /// [`PATTERN_BUDGET_BYTES`]; smaller in tests.
    pattern_budget: usize,
    inner: Mutex<Inner>,
    /// Signalled when a pending build lands (or is abandoned).
    ready: Condvar,
    registry: Arc<Registry>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    single_flight_waits: Counter,
}

/// A cache's locked state, recording which keys some caller is producing:
/// the single-flight bookkeeping [`PlanCache`] and
/// [`OperandCache`](crate::operands::OperandCache) share. Callers that
/// find their key in flight wait on the cache's condvar instead of
/// producing it again.
pub(crate) trait InFlight<K> {
    /// The keys being produced right now.
    fn in_flight(&mut self) -> &mut HashSet<K>;
}

/// Marks a key in flight until dropped. Dropping it — also on the panic
/// path of the producing closure — unmarks the key and wakes the waiters,
/// which then find the landed value or produce it themselves instead of
/// sleeping forever.
pub(crate) struct Claim<'a, S: InFlight<K>, K: Eq + Hash> {
    state: &'a Mutex<S>,
    ready: &'a Condvar,
    key: &'a K,
}

impl<'a, S: InFlight<K>, K: Eq + Hash + Clone> Claim<'a, S, K> {
    /// Claims `key` in `locked`, the content of `state` its caller holds
    /// locked.
    pub(crate) fn new(state: &'a Mutex<S>, locked: &mut S, ready: &'a Condvar, key: &'a K) -> Self {
        locked.in_flight().insert(key.clone());
        Claim { state, ready, key }
    }
}

impl<S: InFlight<K>, K: Eq + Hash> Drop for Claim<'_, S, K> {
    fn drop(&mut self) {
        let mut locked = lock_recover(self.state);
        locked.in_flight().remove(self.key);
        drop(locked);
        self.ready.notify_all();
    }
}

/// Sleeps on `ready` until some [`Claim`] is dropped, relocking `locked`.
pub(crate) fn wait_for_claim<'a, S>(
    ready: &Condvar,
    locked: MutexGuard<'a, S>,
) -> MutexGuard<'a, S> {
    ready
        .wait(locked)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (minimum 1), with
    /// its own private metrics registry.
    pub fn new(capacity: usize) -> Self {
        Self::with_registry(capacity, Arc::new(Registry::new()))
    }

    /// Creates a cache whose counters are registered in `registry` — the
    /// service passes its own registry here so cache counters show up in
    /// the exported exposition.
    pub fn with_registry(capacity: usize, registry: Arc<Registry>) -> Self {
        let hits = registry.counter(
            "br_cache_hits_total",
            "Plan-cache lookups served from cache (single-flight waiters count as hits).",
            &[],
        );
        let misses = registry.counter(
            "br_cache_misses_total",
            "Plan-cache lookups that built a plan.",
            &[],
        );
        let evictions = registry.counter(
            "br_cache_evictions_total",
            "Plans evicted to make room.",
            &[],
        );
        let single_flight_waits = registry.timing_counter(
            "br_cache_single_flight_waits_total",
            "Requests that blocked on another worker's in-flight build (scheduling-dependent).",
            &[],
        );
        PlanCache {
            capacity: capacity.max(1),
            pattern_budget: PATTERN_BUDGET_BYTES,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                building: HashSet::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            ready: Condvar::new(),
            registry,
            hits,
            misses,
            evictions,
            single_flight_waits,
        }
    }

    /// Counts a hit in `inner` and mirrors it into the registry.
    fn count_hit(&self, inner: &mut Inner) {
        inner.hits += 1;
        self.hits.inc();
    }

    /// Counts a miss in `inner` and mirrors it into the registry.
    fn count_miss(&self, inner: &mut Inner) {
        inner.misses += 1;
        self.misses.inc();
    }

    /// Makes room for `key` (see [`Inner::make_room_for`]), counting and
    /// mirroring the eviction if one happened.
    fn make_room_for(&self, inner: &mut Inner, key: &PlanKey) {
        if inner.make_room_for(key, self.capacity) {
            inner.evictions += 1;
            self.evictions.inc();
        }
    }

    /// The same cache with another pattern budget.
    #[cfg(test)]
    pub(crate) fn with_pattern_budget(mut self, bytes: usize) -> Self {
        self.pattern_budget = bytes;
        self
    }

    /// The registry holding this cache's counters.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Returns the cached plan for `key`, building and inserting it with
    /// `build` on a miss. Single-flight: when several workers race on the
    /// same absent key, exactly one runs `build` (counted as **one miss**)
    /// while the rest block and are served the landed plan (counted as
    /// **one hit each**). Counters therefore depend only on the multiset
    /// of requested keys — not on worker count or scheduling — as long as
    /// no eviction intervenes (capacity ≥ distinct live keys).
    ///
    /// The returned flag is `true` when the plan came from cache (a hit,
    /// including waited-for builds) and `false` when this call built it.
    ///
    /// Every call also enforces the pattern budget: while the resident
    /// plans' memoized C patterns exceed [`PATTERN_BUDGET_BYTES`], it drops
    /// the pattern of the least recently used plan holding one, other than
    /// the plan it returns.
    ///
    /// If `build` panics, the pending marker is cleared and waiters retry
    /// the build themselves.
    pub fn get_or_build(
        &self,
        key: &PlanKey,
        build: impl FnOnce() -> Arc<ReorgPlan>,
    ) -> (Arc<ReorgPlan>, bool) {
        let mut inner = lock_recover(&self.inner);
        let mut counted_hit = false;
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(key) {
                entry.last_used = tick;
                let plan = entry.plan.clone();
                if !counted_hit {
                    self.count_hit(&mut inner);
                }
                inner.trim_patterns(key, self.pattern_budget);
                return (plan, true);
            }
            if !inner.building.contains(key) {
                break;
            }
            // Another worker is building this plan: count the hit now (the
            // outcome is already determined) and wait for it to land. The
            // wait itself is scheduling-dependent, hence a timing counter.
            if !counted_hit {
                self.count_hit(&mut inner);
                self.single_flight_waits.inc();
                counted_hit = true;
            }
            inner = wait_for_claim(&self.ready, inner);
        }
        // This call is the builder for `key`.
        self.count_miss(&mut inner);
        let claim = Claim::new(&self.inner, &mut inner, &self.ready, key);
        drop(inner);

        let plan = build();
        {
            let mut inner = lock_recover(&self.inner);
            inner.tick += 1;
            let tick = inner.tick;
            self.make_room_for(&mut inner, key);
            inner.map.insert(
                key.clone(),
                Entry {
                    plan: plan.clone(),
                    last_used: tick,
                },
            );
            inner.trim_patterns(key, self.pattern_budget);
        }
        drop(claim); // clears the pending marker and wakes waiters
        (plan, false)
    }

    /// Current counters — this cache's activity only, even when the
    /// registry (and therefore the named counters) is shared.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_recover(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).map.len()
    }

    /// True when no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident plans that hold a memoized C pattern.
    #[cfg(test)]
    pub(crate) fn resident_patterns(&self) -> usize {
        let inner = lock_recover(&self.inner);
        inner
            .map
            .values()
            .filter(|e| e.plan.pattern_bytes() > 0)
            .count()
    }

    /// Whether a key is resident, *without* touching counters or recency
    /// (test/diagnostic hook).
    pub fn contains(&self, key: &PlanKey) -> bool {
        lock_recover(&self.inner).map.contains_key(key)
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use block_reorganizer::plan::PlanMode;
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_gpu_sim::device::DeviceConfig;
    use br_spgemm::context::ProblemContext;

    fn plan_for(seed: u64) -> (PlanKey, Arc<ReorgPlan>, ProblemContext<f64>) {
        let a = rmat(RmatConfig::snap_like(7, 6, seed)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let dev = DeviceConfig::titan_xp();
        let settings = PlanSettings::default();
        let key = PlanKey::for_settings(ctx.signature(), &dev.name, &settings);
        let plan = Arc::new(ReorgPlan::build(&ctx, &dev, &settings));
        (key, plan, ctx)
    }

    /// Builds `key` into `cache` (or hits it), returning whether the plan
    /// came from the cache.
    fn fetch(cache: &PlanCache, key: &PlanKey, plan: &Arc<ReorgPlan>) -> bool {
        cache.get_or_build(key, || plan.clone()).1
    }

    /// Whether `key` hits, without ever building it.
    fn hit(cache: &PlanCache, key: &PlanKey) -> bool {
        cache.get_or_build(key, || panic!("must not rebuild")).1
    }

    #[test]
    fn hit_on_identical_signature_miss_on_different() {
        let cache = PlanCache::new(8);
        let (key, plan, _) = plan_for(1);
        assert!(!fetch(&cache, &key, &plan));
        assert!(hit(&cache, &key));
        let (other_key, other_plan, _) = plan_for(2);
        assert!(!fetch(&cache, &other_key, &other_plan));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn value_mutation_hits_structure_mutation_misses() {
        let cache = PlanCache::new(8);
        let a = rmat(RmatConfig::snap_like(7, 6, 3)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let dev = DeviceConfig::titan_xp();
        let settings = PlanSettings::default();
        let key_of = |ctx: &ProblemContext<f64>| {
            PlanKey::for_settings(ctx.signature(), &dev.name, &settings)
        };
        let plan = Arc::new(ReorgPlan::build(&ctx, &dev, &settings));
        assert!(!fetch(&cache, &key_of(&ctx), &plan));

        // Same structure, new values → same key → hit.
        let scaled = a.map_values(|v| v + 1.0);
        let scaled_ctx = ProblemContext::new(&scaled, &scaled).unwrap();
        assert!(hit(&cache, &key_of(&scaled_ctx)));

        // Structure mutated (an entry pruned) → different key → miss.
        let mut val = a.val().to_vec();
        val[0] = 0.0;
        let mutated = br_sparse::CsrMatrix::try_new(
            a.nrows(),
            a.ncols(),
            a.ptr().to_vec(),
            a.idx().to_vec(),
            val,
        )
        .unwrap()
        .prune(1e-12);
        let mutated_ctx = ProblemContext::new(&mutated, &mutated).unwrap();
        assert!(!cache.contains(&key_of(&mutated_ctx)));
    }

    #[test]
    fn different_device_or_config_is_a_different_key() {
        let (key, _, ctx) = plan_for(4);
        let v100 = DeviceConfig::tesla_v100();
        let other_dev =
            PlanKey::for_settings(ctx.signature(), &v100.name, &PlanSettings::default());
        assert_ne!(key, other_dev);
        let strict = ReorganizerConfig {
            alpha: 64.0,
            ..Default::default()
        };
        let other_cfg = PlanKey::for_settings(ctx.signature(), "NVIDIA TITAN Xp", &strict.into());
        assert_ne!(key.settings, other_cfg.settings);
    }

    #[test]
    fn estimator_settings_separate_keys() {
        let (key, _, ctx) = plan_for(5);
        let cfg = ReorganizerConfig::default();
        let est = EstimatorConfig::default();
        let none = ReorderStrategy::None;
        let estimated =
            PlanKey::with_options(ctx.signature(), "NVIDIA TITAN Xp", &cfg, Some(&est), none);
        // Exact vs estimated must not alias.
        assert_ne!(key, estimated);
        // Different estimator settings must not alias either.
        let other = EstimatorConfig {
            samples: 128,
            ..est
        };
        let other_key =
            PlanKey::with_options(ctx.signature(), "NVIDIA TITAN Xp", &cfg, Some(&other), none);
        assert_ne!(estimated.settings, other_key.settings);
        // And the spelled-out exact options are the default settings.
        assert_eq!(
            key,
            PlanKey::with_options(ctx.signature(), "NVIDIA TITAN Xp", &cfg, None, none)
        );
    }

    #[test]
    fn reorder_strategies_separate_keys() {
        let (key, _, ctx) = plan_for(6);
        let cfg = ReorganizerConfig::default();
        // Every non-default strategy (auto included — it is keyed as
        // requested) gets its own key.
        let mut prints = vec![key.settings];
        for strategy in [
            ReorderStrategy::Degree,
            ReorderStrategy::Rcm,
            ReorderStrategy::Cluster,
            ReorderStrategy::Auto,
        ] {
            let reordered =
                PlanKey::with_options(ctx.signature(), "NVIDIA TITAN Xp", &cfg, None, strategy);
            assert_ne!(reordered, key, "{strategy:?} must not alias the baseline");
            assert!(
                !prints.contains(&reordered.settings),
                "{strategy:?} fingerprint must be unique"
            );
            prints.push(reordered.settings);
        }
    }

    #[test]
    fn lru_eviction_order_under_small_capacity() {
        let cache = PlanCache::new(2);
        let (ka, pa, _) = plan_for(10);
        let (kb, pb, _) = plan_for(11);
        let (kc, pc, _) = plan_for(12);
        fetch(&cache, &ka, &pa);
        fetch(&cache, &kb, &pb);
        // Touch A so B becomes the LRU victim.
        assert!(hit(&cache, &ka));
        fetch(&cache, &kc, &pc);
        assert!(cache.contains(&ka), "recently-used survives");
        assert!(!cache.contains(&kb), "LRU entry is evicted");
        assert!(cache.contains(&kc));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_follows_exact_recency_order_across_multiple_evictions() {
        // Fill to capacity 3, then establish recency A < C < B by hits
        // and verify successive builds evict in exactly that order.
        let cache = PlanCache::new(3);
        let (ka, pa, _) = plan_for(40);
        let (kb, pb, _) = plan_for(41);
        let (kc, pc, _) = plan_for(42);
        let (kd, pd, _) = plan_for(43);
        let (ke, pe, _) = plan_for(44);
        fetch(&cache, &ka, &pa);
        fetch(&cache, &kb, &pb);
        fetch(&cache, &kc, &pc);
        assert!(hit(&cache, &kc));
        assert!(hit(&cache, &kb));

        fetch(&cache, &kd, &pd);
        assert!(!cache.contains(&ka), "A is oldest → first victim");
        assert!(cache.contains(&kb) && cache.contains(&kc) && cache.contains(&kd));

        fetch(&cache, &ke, &pe);
        assert!(!cache.contains(&kc), "C is next-oldest → second victim");
        assert!(cache.contains(&kb) && cache.contains(&kd) && cache.contains(&ke));
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn a_repeat_request_refreshes_recency() {
        // Requesting a resident key again must protect it from the next
        // eviction.
        let cache = PlanCache::new(2);
        let (ka, pa, _) = plan_for(50);
        let (kb, pb, _) = plan_for(51);
        let (kc, pc, _) = plan_for(52);
        fetch(&cache, &ka, &pa);
        fetch(&cache, &kb, &pb);
        assert!(fetch(&cache, &ka, &pa)); // refresh A; B is now the LRU entry
        fetch(&cache, &kc, &pc);
        assert!(cache.contains(&ka), "refreshed entry survives");
        assert!(!cache.contains(&kb), "stale entry is the victim");
    }

    #[test]
    fn probing_an_absent_key_does_not_disturb_recency() {
        let cache = PlanCache::new(2);
        let (ka, pa, _) = plan_for(60);
        let (kb, pb, _) = plan_for(61);
        let (kc, pc, _) = plan_for(62);
        let (kd, _, _) = plan_for(63);
        fetch(&cache, &ka, &pa);
        fetch(&cache, &kb, &pb);
        // Probes of an absent key must not age or refresh resident
        // entries, nor count as lookups.
        for _ in 0..5 {
            assert!(!cache.contains(&kd));
        }
        fetch(&cache, &kc, &pc);
        assert!(!cache.contains(&ka), "A is still the LRU victim");
        assert!(cache.contains(&kb));
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn capacity_one_always_evicts_the_previous_plan() {
        let cache = PlanCache::new(1);
        let (ka, pa, _) = plan_for(70);
        let (kb, pb, _) = plan_for(71);
        fetch(&cache, &ka, &pa);
        fetch(&cache, &kb, &pb);
        assert!(!cache.contains(&ka));
        assert!(cache.contains(&kb));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn requesting_a_resident_key_does_not_evict() {
        let cache = PlanCache::new(2);
        let (ka, pa, _) = plan_for(20);
        let (kb, pb, _) = plan_for(21);
        fetch(&cache, &ka, &pa);
        fetch(&cache, &kb, &pb);
        assert!(hit(&cache, &ka));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn get_or_build_counts_one_miss_then_hits() {
        let cache = PlanCache::new(4);
        let (key, plan, _) = plan_for(80);
        let (p1, cached1) = cache.get_or_build(&key, || plan.clone());
        assert!(!cached1, "first request builds");
        for _ in 0..3 {
            let (p, cached) = cache.get_or_build(&key, || panic!("must not rebuild"));
            assert!(cached);
            assert!(Arc::ptr_eq(&p, &p1), "same artifact is shared");
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (3, 1));
    }

    #[test]
    fn get_or_build_single_flight_under_contention() {
        // 8 threads race on 2 distinct keys: exactly one build per key must
        // run, and the counters must equal (requests - distinct, distinct)
        // regardless of interleaving.
        use std::sync::atomic::{AtomicU64, Ordering};
        let cache = Arc::new(PlanCache::new(8));
        let (ka, pa, _) = plan_for(90);
        let (kb, pb, _) = plan_for(91);
        let builds = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for i in 0..8 {
            let cache = cache.clone();
            let key = if i % 2 == 0 { ka.clone() } else { kb.clone() };
            let plan = if i % 2 == 0 { pa.clone() } else { pb.clone() };
            let builds = builds.clone();
            handles.push(std::thread::spawn(move || {
                let (_, cached) = cache.get_or_build(&key, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    // Widen the race window so waiters actually wait.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    plan
                });
                cached
            }));
        }
        let served_from_cache = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&c| c)
            .count();
        assert_eq!(builds.load(Ordering::SeqCst), 2, "one build per key");
        assert_eq!(served_from_cache, 6);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (6, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn get_or_build_recovers_from_a_panicking_builder() {
        let cache = PlanCache::new(4);
        let (key, plan, _) = plan_for(95);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&key, || panic!("builder died"));
        }));
        assert!(result.is_err());
        // The pending marker must be gone: the next request builds afresh
        // instead of deadlocking.
        let (_, cached) = cache.get_or_build(&key, || plan);
        assert!(!cached);
        assert!(cache.contains(&key));
    }

    #[test]
    fn counters_surface_in_registry_exposition() {
        let registry = Arc::new(Registry::new());
        let cache = PlanCache::with_registry(2, registry.clone());
        let (key, plan, _) = plan_for(99);
        assert!(!fetch(&cache, &key, &plan));
        assert!(hit(&cache, &key));
        let text = registry.render_prometheus(false);
        assert!(text.contains("br_cache_hits_total 1"), "{text}");
        assert!(text.contains("br_cache_misses_total 1"), "{text}");
        assert!(text.contains("br_cache_evictions_total 0"), "{text}");
        // The wait counter is scheduling-dependent → timing-flagged → only
        // visible when timing families are requested.
        assert!(!text.contains("single_flight_waits"), "{text}");
        let full = registry.render_prometheus(true);
        assert!(
            full.contains("br_cache_single_flight_waits_total 0"),
            "{full}"
        );
    }

    #[test]
    fn stats_are_per_cache_even_with_a_shared_registry() {
        // Two caches on one registry share the named counters; stats()
        // must still report only each cache's own activity (the second
        // cache starts from the first one's cumulative totals).
        let registry = Arc::new(Registry::new());
        let first = PlanCache::with_registry(2, registry.clone());
        let (key, plan, _) = plan_for(7);
        assert!(!fetch(&first, &key, &plan));
        assert!(hit(&first, &key));
        let s1 = first.stats();
        assert_eq!((s1.hits, s1.misses), (1, 1));

        let second = PlanCache::with_registry(2, registry.clone());
        assert!(!fetch(&second, &key, &plan));
        assert!(hit(&second, &key));
        assert!(hit(&second, &key));
        let s2 = second.stats();
        assert_eq!((s2.hits, s2.misses), (2, 1));
        // The exposition keeps the cumulative process-wide view.
        let text = registry.render_prometheus(false);
        assert!(text.contains("br_cache_hits_total 3"), "{text}");
        assert!(text.contains("br_cache_misses_total 2"), "{text}");
    }

    #[test]
    fn interleaved_caches_on_one_registry_keep_exact_stats() {
        // Two live caches on one registry, lookups interleaved: each
        // cache's stats() counts only its own activity, and the exposition
        // shows the sum.
        let registry = Arc::new(Registry::new());
        let first = PlanCache::with_registry(1, registry.clone());
        let second = PlanCache::with_registry(1, registry.clone());
        let (ka, pa, _) = plan_for(100);
        let (kb, pb, _) = plan_for(101);
        first.get_or_build(&ka, || pa.clone()); // first: miss
        second.get_or_build(&kb, || pb.clone()); // second: miss
        first.get_or_build(&ka, || unreachable!()); // first: hit
        second.get_or_build(&ka, || pa.clone()); // second: miss + eviction
        first.get_or_build(&kb, || pb.clone()); // first: miss + eviction
        assert!(hit(&second, &ka)); // second: hit
        second.get_or_build(&ka, || unreachable!()); // second: hit
        let (s1, s2) = (first.stats(), second.stats());
        assert_eq!((s1.hits, s1.misses, s1.evictions), (1, 2, 1));
        assert_eq!((s2.hits, s2.misses, s2.evictions), (2, 2, 1));
        let text = registry.render_prometheus(false);
        assert!(text.contains("br_cache_hits_total 3"), "{text}");
        assert!(text.contains("br_cache_misses_total 4"), "{text}");
        assert!(text.contains("br_cache_evictions_total 2"), "{text}");
    }

    /// Executes `plan` until it stores C's pattern (Cold, fill, replay).
    fn store_pattern(plan: &ReorgPlan, ctx: &ProblemContext<f64>) {
        let dev = DeviceConfig::titan_xp();
        for mode in [PlanMode::Cold, PlanMode::Cached, PlanMode::Cached] {
            plan.execute(ctx, &dev, mode).unwrap();
        }
        assert!(plan.pattern_bytes() > 0);
    }

    #[test]
    fn the_pattern_budget_drops_least_recent_patterns_and_keeps_plans() {
        let (ka, pa, ca) = plan_for(110);
        let (kb, pb, cb) = plan_for(111);
        let (kc, pc, cc) = plan_for(112);
        for (plan, ctx) in [(&pa, &ca), (&pb, &cb), (&pc, &cc)] {
            store_pattern(plan, ctx);
        }
        // Room for two of the three patterns.
        let budget = pa
            .pattern_bytes()
            .max(pb.pattern_bytes())
            .max(pc.pattern_bytes())
            * 2;
        let cache = PlanCache::new(8).with_pattern_budget(budget);
        fetch(&cache, &ka, &pa);
        fetch(&cache, &kb, &pb);
        assert_eq!(cache.resident_patterns(), 2);
        // C's insert overflows the budget: A, the least recent, drops its.
        fetch(&cache, &kc, &pc);
        assert_eq!(pa.pattern_bytes(), 0);
        assert!(pb.pattern_bytes() > 0 && pc.pattern_bytes() > 0);
        assert_eq!(cache.resident_patterns(), 2);
        // A refreshed and stored again: B is now the least recent holder.
        assert!(hit(&cache, &ka));
        store_pattern(&pa, &ca);
        assert!(hit(&cache, &ka));
        assert_eq!(pb.pattern_bytes(), 0);
        assert!(pa.pattern_bytes() > 0 && pc.pattern_bytes() > 0);
        // No budget: only the returned plan keeps its pattern.
        let none = PlanCache::new(8).with_pattern_budget(0);
        for (key, plan) in [(&ka, &pa), (&kc, &pc)] {
            fetch(&none, key, plan);
        }
        assert_eq!(pa.pattern_bytes(), 0);
        assert!(pc.pattern_bytes() > 0);
        // Every plan stays resident, and the counts are the usual ones.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn cross_thread_reuse_of_one_arc_plan() {
        let cache = Arc::new(PlanCache::new(4));
        let (key, plan, ctx) = plan_for(30);
        assert!(!fetch(&cache, &key, &plan));
        let ctx = Arc::new(ctx);
        let dev = DeviceConfig::titan_xp();

        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = cache.clone();
            let key = key.clone();
            let ctx = ctx.clone();
            let dev = dev.clone();
            handles.push(std::thread::spawn(move || {
                let (plan, cached) = cache.get_or_build(&key, || panic!("plan is resident"));
                assert!(cached);
                let run = plan.execute(&ctx, &dev, PlanMode::Cached).unwrap();
                (run.result.ptr().to_vec(), run.result.nnz())
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.stats().hits, 4);
    }
}
