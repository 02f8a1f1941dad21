//! Deterministic parallel rollout engine and reward memoization.
//!
//! REINFORCE training spends almost all of its wall-clock time in
//! rollouts — decode a decision vector, contract the graph, place the
//! coarse graph, simulate. The rollouts of one policy-gradient step (and
//! the graphs of one evaluation pass) are independent, so they fan out
//! over a scoped worker pool here. Two invariants keep the parallel path
//! **bitwise identical** to the sequential one:
//!
//! * **Seed-per-sample**: the master RNG pre-draws one `u64` seed per
//!   sample *before* the batch starts. Each sample decodes from its own
//!   `ChaCha8Rng::seed_from_u64(seed)`, so its stream is a pure function
//!   of its index no matter which worker (or how many workers) runs it,
//!   and the master RNG advances identically either way.
//! * **Ordered reduction**: every job writes into its own slot and the
//!   results are consumed in job order, so downstream floating-point
//!   accumulation sees the same operand sequence regardless of
//!   scheduling.
//!
//! [`run_ordered`] with `num_workers <= 1` is a plain sequential loop
//! over the same closures, which makes the equivalence trivial to state:
//! both paths evaluate the identical pure function at every index.
//!
//! The [`RewardCache`] exploits that a rollout's reward is a pure
//! function of its *collapse key* — the accepted edges in
//! descending-probability order: [`crate::policy::CoarseningPolicy::apply`]
//! consumes the probabilities only through that priority, and
//! [`crate::pipeline::MetisCoarsePlacer`] seeds its placement RNG from
//! the coarse graph's content fingerprint. Repeated decision vectors
//! (converging policies, buffer replays) therefore skip the simulator
//! entirely.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Evaluate `f(0), ..., f(n_jobs - 1)` and return the results in index
/// order. With `num_workers <= 1` (or a single job) this is a plain
/// sequential map; otherwise jobs are pulled from a shared counter by a
/// scoped worker pool and written into per-index slots, so the output —
/// and any reduction over it — is independent of scheduling.
pub fn run_ordered<T, F>(num_workers: usize, n_jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if num_workers <= 1 || n_jobs <= 1 {
        return (0..n_jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    // A slot's lock is held only to store a finished result, which
    // cannot panic, so it is never poisoned.
    std::thread::scope(|s| {
        for _ in 0..num_workers.min(n_jobs) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_jobs {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("slot lock is never poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock is never poisoned")
                .expect("every job ran")
        })
        .collect()
}

/// [`run_ordered`] with per-job panic isolation: job `i`'s panic becomes
/// `Err(message)` in slot `i` instead of unwinding through the pool, so
/// one poisoned sample cannot take down the epoch and the ordered
/// deterministic reduction over the surviving slots is preserved (the
/// catch wraps the closure itself, so the sequential and parallel paths
/// degrade identically).
pub fn run_ordered_catching<T, F>(num_workers: usize, n_jobs: usize, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_ordered(num_workers, n_jobs, |i| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))).map_err(panic_message)
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Canonical memoization key of a rollout: the accepted (collapsed)
/// edges in the order [`crate::policy::CoarseningPolicy::apply`] applies
/// them. Two (decisions, probs) pairs with equal keys produce the same
/// coarsening and — under a content-seeded placer — the same reward.
pub type CollapseKey = Vec<u32>;

/// Build the [`CollapseKey`] for a decision vector under a priority
/// order (see [`crate::policy::priority_by_prob`]).
pub fn collapse_key(priority: &[u32], decisions: &[bool]) -> CollapseKey {
    priority
        .iter()
        .copied()
        .filter(|&e| decisions[e as usize])
        .collect()
}

/// The result of one rollout job: what was decoded, its memo key, the
/// reward, and whether the simulator was skipped.
#[derive(Debug, Clone)]
pub struct RolloutOutcome {
    /// The decoded decision vector.
    pub decisions: Vec<bool>,
    /// Memo key of the decisions under the step's priority order.
    pub key: CollapseKey,
    /// Relative-throughput reward.
    pub reward: f64,
    /// True if the reward came from the cache (simulator skipped).
    pub cached: bool,
}

/// Per-graph memoization of rollout rewards, keyed by [`CollapseKey`].
///
/// Workers read an immutable per-graph snapshot during a batch
/// ([`RewardCache::graph`]); the trainer inserts misses afterwards in
/// sample order, so cache contents — like everything else on the rollout
/// path — do not depend on the worker count. Keys are only meaningful
/// for the graph they were computed on; replacing a training graph
/// requires [`RewardCache::invalidate`] for its slot.
#[derive(Debug, Default)]
pub struct RewardCache {
    maps: Vec<HashMap<CollapseKey, f64>>,
    hits: u64,
    misses: u64,
}

impl RewardCache {
    /// Empty cache with one slot per training graph.
    pub fn new(num_graphs: usize) -> Self {
        Self {
            maps: (0..num_graphs).map(|_| HashMap::new()).collect(),
            hits: 0,
            misses: 0,
        }
    }

    /// Read-only snapshot of graph `gi`'s memo map (shareable across
    /// workers for the duration of a batch).
    pub fn graph(&self, gi: usize) -> &HashMap<CollapseKey, f64> {
        &self.maps[gi]
    }

    /// Record a computed reward for graph `gi`.
    pub fn insert(&mut self, gi: usize, key: CollapseKey, reward: f64) {
        self.maps[gi].insert(key, reward);
    }

    /// Count one lookup.
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Lookups served from the cache (simulator skipped).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh rollout.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total memoized rewards across graphs.
    pub fn entries(&self) -> usize {
        self.maps.iter().map(|m| m.len()).sum()
    }

    /// Drop every memoized reward for graph `gi` (required if the graph
    /// at that slot is replaced — keys do not transfer between graphs).
    pub fn invalidate(&mut self, gi: usize) {
        self.maps[gi].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ordered_is_worker_count_invariant() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) as f64;
        let seq = run_ordered(1, 100, f);
        for workers in [2, 4, 7] {
            let par = run_ordered(workers, 100, f);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn run_ordered_handles_empty_and_single() {
        assert!(run_ordered(4, 0, |i| i).is_empty());
        assert_eq!(run_ordered(4, 1, |i| i), vec![0]);
    }

    #[test]
    fn run_ordered_catching_isolates_panics_per_job() {
        // Suppress the default panic hook's stderr spam for the
        // intentional panics below.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let f = |i: usize| {
            if i.is_multiple_of(3) {
                panic!("boom at {i}");
            }
            i * 10
        };
        let seq = run_ordered_catching(1, 10, f);
        let par = run_ordered_catching(4, 10, f);
        std::panic::set_hook(prev);
        assert_eq!(seq, par, "panic isolation must stay scheduling-invariant");
        assert_eq!(seq[0], Err("boom at 0".to_string()));
        assert_eq!(seq[1], Ok(10));
        assert_eq!(seq.iter().filter(|r| r.is_err()).count(), 4);
    }

    #[test]
    fn collapse_key_filters_in_priority_order() {
        let priority = [2u32, 0, 3, 1];
        let decisions = [true, true, false, true];
        assert_eq!(collapse_key(&priority, &decisions), vec![0, 3, 1]);
        assert_eq!(collapse_key(&priority, &[false; 4]), Vec::<u32>::new());
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut c = RewardCache::new(2);
        assert!(c.graph(0).get(&vec![1, 2]).is_none());
        c.record(false);
        c.insert(0, vec![1, 2], 0.5);
        assert_eq!(c.graph(0).get(&vec![1, 2]), Some(&0.5));
        c.record(true);
        // Same key on another graph is independent.
        assert!(c.graph(1).get(&vec![1, 2]).is_none());
        assert_eq!((c.hits(), c.misses(), c.entries()), (1, 1, 1));
        c.invalidate(0);
        assert_eq!(c.entries(), 0);
    }
}
