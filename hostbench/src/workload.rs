//! The three fixed workloads and the request sequences they send.
//!
//! Every request is a job-spec line derived from the benchmark's `--seed`;
//! the server generates the operands itself, so it receives only specs.
//! All requests of one workload are in one size class, so the median does
//! not sit on the boundary between two classes.

/// Which frame a request travels in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Submit`, answered by `Result`.
    Single,
    /// `SubmitChain`, answered by `ChainResult`.
    Chain,
}

/// One fixed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Frame type of every request.
    pub kind: Kind,
    /// Job-spec prefix; the seed is appended per request.
    pub spec_prefix: &'static str,
    /// Flags added to the server's defaults.
    pub server_flags: &'static [&'static str],
    /// `true`: every request repeats the warm-up structure (cache hits);
    /// `false`: request `i` uses seed `seed + 1 + i` (cache misses).
    pub repeat: bool,
    /// Expected per-step plan-cache hits of every timed request.
    pub expected_hits: &'static [bool],
}

/// Warm-up requests sent before every timed phase. The first one plans the
/// workload's structure; the rest let the server's allocator and scratch
/// pools settle, so the first timed requests do not land in the tail.
pub const WARMUP: u64 = 4;

/// Why each exists and which layers it loads: see README.md.
pub const WORKLOADS: [Workload; 3] = [
    // Repeats one structure, so every timed request hits the plan cache:
    // loads the cache-hit path, where re-simulation is most of a request.
    Workload {
        name: "hot_repeat",
        kind: Kind::Single,
        spec_prefix: "rmat=9,8",
        server_flags: &[],
        repeat: true,
        expected_hits: &[true],
    },
    // Same size class with a fresh structure per request, so every request
    // misses, plans and runs cold: bypasses the cache-hit path.
    Workload {
        name: "cold_unique",
        kind: Kind::Single,
        spec_prefix: "rmat=9,8",
        server_flags: &[],
        repeat: false,
        expected_hits: &[false],
    },
    // Four-step Galerkin chains under degree reordering: the only workload
    // where the chain executor, permute and un-permute do work.
    Workload {
        name: "galerkin_reorder",
        kind: Kind::Chain,
        spec_prefix: "chain=galerkin rmat=10,8",
        server_flags: &["--reorder", "degree"],
        repeat: false,
        expected_hits: &[false, false, true, true],
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One request of a sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request id on the wire (unique within a run).
    pub id: u64,
    /// Frame type.
    pub kind: Kind,
    /// Job-spec line.
    pub spec: String,
}

impl Workload {
    fn request(&self, id: u64, seed: u64) -> Request {
        Request {
            id,
            kind: self.kind,
            spec: format!("{} seed={seed}", self.spec_prefix),
        }
    }

    /// The warm-up requests for `seed`. Their seeds count down from
    /// `seed`, so they never collide with the timed seeds `seed + 1 + i`.
    pub fn warmup(&self, seed: u64) -> Vec<Request> {
        (0..WARMUP)
            .map(|j| {
                let s = if self.repeat {
                    seed
                } else {
                    seed.wrapping_sub(j)
                };
                self.request(j, s)
            })
            .collect()
    }

    /// Timed request `i` (0-based) for `seed`.
    pub fn timed(&self, seed: u64, i: u64) -> Request {
        let s = if self.repeat {
            seed
        } else {
            seed.wrapping_add(1).wrapping_add(i)
        };
        self.request(WARMUP + i, s)
    }

    /// The first `n` timed requests for `seed`.
    #[cfg(test)]
    pub fn timed_prefix(&self, seed: u64, n: u64) -> Vec<Request> {
        (0..n).map(|i| self.timed(seed, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn a_seed_always_gives_the_same_sequence() {
        for w in WORKLOADS {
            assert_eq!(w.timed_prefix(7, 50), w.timed_prefix(7, 50));
            assert_eq!(w.warmup(7), w.warmup(7));
            // A longer run extends the sequence; it never reshuffles it.
            assert_eq!(w.timed_prefix(7, 20)[..], w.timed_prefix(7, 50)[..20]);
        }
    }

    #[test]
    fn hot_repeats_one_spec_and_the_others_never_repeat() {
        let hot = by_name("hot_repeat").unwrap();
        let specs: Vec<String> = hot
            .timed_prefix(3, 10)
            .into_iter()
            .map(|r| r.spec)
            .collect();
        assert!(specs.iter().all(|s| s == "rmat=9,8 seed=3"));
        assert!(hot.warmup(3).iter().all(|r| r.spec == "rmat=9,8 seed=3"));
        for name in ["cold_unique", "galerkin_reorder"] {
            let w = by_name(name).unwrap();
            let mut specs: Vec<String> = w.warmup(3).into_iter().map(|r| r.spec).collect();
            specs.extend(w.timed_prefix(3, 100).into_iter().map(|r| r.spec));
            let n = specs.len();
            specs.sort();
            specs.dedup();
            assert_eq!(specs.len(), n, "{name} repeats a spec");
        }
    }

    #[test]
    fn other_seeds_give_other_inputs() {
        for w in WORKLOADS {
            assert_ne!(w.timed(1, 0).spec, w.timed(2, 0).spec);
        }
    }

    #[test]
    fn ids_are_unique_across_warmup_and_timed() {
        let w = by_name("cold_unique").unwrap();
        let mut ids: Vec<u64> = w.warmup(9).iter().map(|r| r.id).collect();
        ids.extend(w.timed_prefix(9, 10).iter().map(|r| r.id));
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn frame_kinds_match_the_specs() {
        for w in WORKLOADS {
            let chain = w.timed(1, 0).spec.contains("chain=");
            assert_eq!(chain, w.kind == Kind::Chain, "{}", w.name);
        }
    }
}
