//! The server's operand cache: a repeated spec's matrix, loaded once.
//!
//! A spec names its matrix exactly — `rmat=9,8 seed=1` is one matrix, and
//! a registry surrogate is a pure function of its name and scale — so a
//! server can keep what it loaded and hand the same `Arc` to every later
//! request for that source instead of generating it again. Files are never
//! cached, because a file's contents can change (the wire refuses them
//! anyway).
//!
//! Three rules keep the cache exact and bounded:
//!
//! * **Admission on the second sighting.** A fixed-size doorkeeper holds
//!   the hashes of recently seen sources. A source is stored only when its
//!   load finds its hash there, so a stream of unique specs
//!   (`cold_unique`, `galerkin_reorder`) stores nothing, and a repeated
//!   spec is loaded twice and then served from the cache.
//! * **A byte bound.** Resident operands hold at most
//!   [`OPERAND_BUDGET_BYTES`]; storing one evicts the least recently used
//!   until it fits, and an operand larger than the whole budget is never
//!   stored.
//! * **Single flight.** Concurrent lookups of one source share one load:
//!   later callers wait for it (the plan cache's `Claim` mechanism) and
//!   then find it resident, or load it themselves when it was not
//!   admitted. So the load and hit counters depend only on the order of
//!   lookups, and are deterministic families (DESIGN §11).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::{Arc, Condvar, Mutex};

use br_obs::{lock_recover, Counter, Registry};
use br_sparse::CsrMatrix;

use crate::cache::{wait_for_claim, Claim, InFlight};
use crate::job::MatrixSource;

/// Bytes of loaded operands one [`OperandCache`] holds at most: 64 MiB,
/// the plan cache's pattern budget, or about 1,200 `rmat=9,8` operands
/// (≈ 53 KB each).
pub const OPERAND_BUDGET_BYTES: usize = 64 << 20;

/// Slots of the doorkeeper: a direct-mapped table of the hashes of
/// recently seen sources. A source whose slot another source took since
/// its last sighting counts as unseen again.
const DOORKEEPER_SLOTS: usize = 1024;

/// Heap bytes of a loaded operand.
fn operand_bytes(m: &CsrMatrix<f64>) -> usize {
    (m.nrows() + 1) * size_of::<usize>() + m.nnz() * (size_of::<u32>() + size_of::<f64>())
}

struct Resident {
    matrix: Arc<CsrMatrix<f64>>,
    bytes: usize,
    last_used: u64,
}

struct State {
    resident: HashMap<MatrixSource, Resident>,
    /// Sources some caller is loading (single flight).
    loading: HashSet<MatrixSource>,
    doorkeeper: Vec<u64>,
    /// Bytes of the resident operands.
    bytes: usize,
    tick: u64,
}

impl InFlight<MatrixSource> for State {
    fn in_flight(&mut self) -> &mut HashSet<MatrixSource> {
        &mut self.loading
    }
}

impl State {
    /// Records a sighting of `source`: whether the doorkeeper held its
    /// hash, which admits it.
    fn sighted(&mut self, source: &MatrixSource) -> bool {
        let mut hasher = DefaultHasher::new();
        source.hash(&mut hasher);
        // 0 marks an empty slot.
        let hash = hasher.finish().max(1);
        let slot = &mut self.doorkeeper[(hash % DOORKEEPER_SLOTS as u64) as usize];
        let seen = *slot == hash;
        *slot = hash;
        seen
    }

    /// Stores `matrix` under `source`, evicting the least recently used
    /// operands until the resident ones fit in `budget` bytes; an operand
    /// larger than `budget` is not stored.
    fn store(&mut self, source: &MatrixSource, matrix: &Arc<CsrMatrix<f64>>, budget: usize) {
        let bytes = operand_bytes(matrix);
        if bytes > budget {
            return;
        }
        while self.bytes + bytes > budget {
            let Some(victim) = self
                .resident
                .iter()
                .min_by_key(|(_, r)| r.last_used)
                .map(|(s, _)| s.clone())
            else {
                break;
            };
            if let Some(evicted) = self.resident.remove(&victim) {
                self.bytes -= evicted.bytes;
            }
        }
        self.tick += 1;
        self.bytes += bytes;
        self.resident.insert(
            source.clone(),
            Resident {
                matrix: matrix.clone(),
                bytes,
                last_used: self.tick,
            },
        );
    }
}

/// A byte-bounded, single-flight cache from a canonical [`MatrixSource`]
/// to its loaded matrix, admitting a source on its second sighting (see
/// the module docs). A server owns one, with its counters in the server's
/// registry.
pub struct OperandCache {
    budget: usize,
    state: Mutex<State>,
    /// Signalled when a load lands, is not admitted, or fails.
    ready: Condvar,
    loads: Counter,
    hits: Counter,
}

impl OperandCache {
    /// An empty cache bounded by [`OPERAND_BUDGET_BYTES`], counting into
    /// `registry`'s `br_operand_loads_total` and
    /// `br_operand_cache_hits_total`.
    pub fn new(registry: &Registry) -> Self {
        Self::with_budget(OPERAND_BUDGET_BYTES, registry)
    }

    fn with_budget(budget: usize, registry: &Registry) -> Self {
        OperandCache {
            budget,
            state: Mutex::new(State {
                resident: HashMap::new(),
                loading: HashSet::new(),
                doorkeeper: vec![0; DOORKEEPER_SLOTS],
                bytes: 0,
                tick: 0,
            }),
            ready: Condvar::new(),
            loads: registry.counter(
                "br_operand_loads_total",
                "Operands generated or read for a request (cache misses, files included).",
                &[],
            ),
            hits: registry.counter(
                "br_operand_cache_hits_total",
                "Operands served from the operand cache without loading.",
                &[],
            ),
        }
    }

    /// `source`'s matrix: the resident one, else loaded with
    /// [`MatrixSource::load`] and stored if the doorkeeper saw `source`
    /// recently. Waits while another caller loads the same source. A
    /// `File` source is loaded every time and never stored.
    pub fn load(&self, source: &MatrixSource) -> Result<Arc<CsrMatrix<f64>>, String> {
        if matches!(source, MatrixSource::File(_)) {
            self.loads.inc();
            return source.load().map(Arc::new);
        }
        let mut state = lock_recover(&self.state);
        loop {
            state.tick += 1;
            let tick = state.tick;
            if let Some(resident) = state.resident.get_mut(source) {
                resident.last_used = tick;
                self.hits.inc();
                return Ok(resident.matrix.clone());
            }
            if !state.loading.contains(source) {
                break;
            }
            state = wait_for_claim(&self.ready, state);
        }
        let admit = state.sighted(source);
        let claim = Claim::new(&self.state, &mut state, &self.ready, source);
        drop(state);
        self.loads.inc();
        let matrix = Arc::new(source.load()?);
        if admit {
            lock_recover(&self.state).store(source, &matrix, self.budget);
        }
        drop(claim);
        Ok(matrix)
    }

    /// Bytes of the resident operands.
    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        lock_recover(&self.state).bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rmat(seed: u64) -> MatrixSource {
        MatrixSource::Rmat {
            scale: 6,
            edge_factor: 4,
            seed,
        }
    }

    /// `(loads, hits)` counted so far.
    fn counts(cache: &OperandCache) -> (u64, u64) {
        (cache.loads.get(), cache.hits.get())
    }

    #[test]
    fn a_source_looked_up_n_times_loads_twice_and_hits_n_minus_2_times() {
        let cache = OperandCache::new(&Registry::new());
        let source = rmat(1);
        let expected = source.load().unwrap();
        let mut got = Vec::new();
        for _ in 0..7 {
            got.push(cache.load(&source).unwrap());
        }
        assert_eq!(counts(&cache), (2, 5));
        assert!(got.iter().all(|m| **m == expected));
        // The second load is the stored one; every hit shares it.
        assert!(got[2..].iter().all(|m| Arc::ptr_eq(m, &got[1])));
        assert!(
            !Arc::ptr_eq(&got[0], &got[1]),
            "the first sighting is not kept"
        );
        assert_eq!(cache.resident_bytes(), operand_bytes(&expected));
    }

    #[test]
    fn a_stream_of_unique_sources_leaves_nothing_resident() {
        let cache = OperandCache::new(&Registry::new());
        for seed in 0..50 {
            cache.load(&rmat(seed)).unwrap();
        }
        assert_eq!(counts(&cache), (50, 0));
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn file_sources_are_never_cached() {
        let dir = std::env::temp_dir().join(format!("br-operands-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.0\n",
        )
        .unwrap();
        let cache = OperandCache::new(&Registry::new());
        let source = MatrixSource::File(path.to_string_lossy().into_owned());
        for _ in 0..4 {
            assert_eq!(cache.load(&source).unwrap().nnz(), 1);
        }
        assert_eq!(counts(&cache), (4, 0));
        assert_eq!(cache.resident_bytes(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_byte_bound_evicts_the_least_recently_used_operand() {
        let one = operand_bytes(&rmat(1).load().unwrap());
        // Room for two operands of this size, not three.
        let cache = OperandCache::with_budget(2 * one + one / 2, &Registry::new());
        let (x, y, z) = (rmat(1), rmat(2), rmat(3));
        for source in [&x, &x, &y, &y] {
            cache.load(source).unwrap();
        }
        assert_eq!(counts(&cache), (4, 0));
        cache.load(&x).unwrap(); // x is now more recent than y
        assert_eq!(counts(&cache), (4, 1));
        for source in [&z, &z] {
            cache.load(source).unwrap(); // storing z evicts y
        }
        assert_eq!(cache.resident_bytes(), 2 * one);
        cache.load(&x).unwrap();
        assert_eq!(counts(&cache), (6, 2), "x stayed");
        cache.load(&y).unwrap();
        assert_eq!(counts(&cache), (7, 2), "y was evicted");
        // An operand larger than the whole budget is never stored.
        let tiny = OperandCache::with_budget(one - 1, &Registry::new());
        for _ in 0..3 {
            tiny.load(&x).unwrap();
        }
        assert_eq!((counts(&tiny), tiny.resident_bytes()), ((3, 0), 0));
    }

    #[test]
    fn concurrent_lookups_of_one_source_load_it_once() {
        let cache = Arc::new(OperandCache::new(&Registry::new()));
        // Large enough that its load spans the threads' arrival.
        let source = MatrixSource::Rmat {
            scale: 13,
            edge_factor: 8,
            seed: 5,
        };
        cache.load(&source).unwrap(); // first sighting: loaded, not kept
        let start = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (cache, source, start) = (cache.clone(), source.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    cache.load(&source).unwrap()
                })
            })
            .collect();
        let got: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(counts(&cache), (2, 7));
        assert!(got.iter().all(|m| Arc::ptr_eq(m, &got[0])));
    }

    #[test]
    fn a_failed_load_stores_nothing() {
        let cache = OperandCache::new(&Registry::new());
        let dense = MatrixSource::Rmat {
            scale: 6,
            edge_factor: 64,
            seed: 1,
        };
        for _ in 0..2 {
            let err = cache.load(&dense).unwrap_err();
            assert!(err.contains("budget exhausted"), "{err}");
        }
        assert_eq!((counts(&cache), cache.resident_bytes()), ((2, 0), 0));
    }
}
