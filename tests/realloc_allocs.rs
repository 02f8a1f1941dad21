//! Heap allocations of warm re-allocation, counted and bounded.
//!
//! A counting global allocator tallies the allocations (fresh blocks and
//! reallocations) that the test thread makes inside `realloc_decide`,
//! over every drift kind on seeded scaled large graphs with
//! `kway_partition` priors. The count is a property of the input, not
//! of the host or of its timing, so the bound is exact: a change that
//! adds allocations to the warm path fails here and must raise the
//! bound on purpose.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spg::gen::{drift_delta, generate_graph, DatasetSpec, DriftKind, Setting};
use spg::graph::WeightedGraph;
use spg::partition::{
    kway_partition, realloc_decide, IncrementalConfig, PartitionConfig, ReallocDecision,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations the 24 warm calls below make, recorded exactly: any
/// increase fails.
const BOUND: u64 = 1_850;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting on threads that switched counting on.
struct Counting;

fn note() {
    // `try_with`: thread-locals may already be gone while a thread exits.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its value and the allocations this thread made in it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = COUNT.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, COUNT.with(Cell::get) - before)
}

#[test]
fn warm_reallocation_allocations_are_bounded() {
    let spec = DatasetSpec::scaled_down(Setting::Large);
    let cluster = spec.cluster();
    let cfg = IncrementalConfig::default();
    let mut warm = 0;
    let mut total = 0;
    for seed in 0..8u64 {
        let graph = generate_graph(&spec, seed);
        let wg = WeightedGraph::from_stream(&graph, spec.source_rate);
        let mut rng = ChaCha8Rng::seed_from_u64(200 + seed);
        let prior = kway_partition(&wg, spec.devices, &PartitionConfig::default(), &mut rng);
        for kind in DriftKind::ALL {
            let delta = drift_delta(&graph, kind, spec.devices, spec.source_rate, seed);
            let (decision, allocs) = counted(|| {
                realloc_decide(&graph, &prior, &delta, &cluster, spec.source_rate, &cfg)
            });
            assert!(
                matches!(decision, Ok(ReallocDecision::Warm { .. })),
                "seed {seed}, {}: drift must warm-start",
                kind.slug()
            );
            warm += 1;
            total += allocs;
        }
    }
    assert_eq!(warm, 24);
    assert!(
        total <= BOUND,
        "{total} allocations over {warm} warm re-allocations, above the bound {BOUND}"
    );
}
