//! Heap allocations of the serve wire path, counted exactly.
//!
//! A counting global allocator tallies the allocations (fresh blocks and
//! reallocations) that the test thread makes while `parse_request` reads
//! a fixed scaled large alloc line and a fixed realloc line, and while
//! `AllocResponse::to_line` renders an answer to the first. The counts
//! are properties of the input, not of the host or of its timing, so
//! they are gated exactly: a change that moves one must re-record it on
//! purpose.

use spg::gen::{drift_delta, generate_graph, DatasetSpec, DriftKind, Setting};
use spg::graph::wire::{parse_request, AllocRequest, AllocResponse, ReallocRequest, WireRequest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations `parse_request` makes on the alloc line below.
const PARSE_ALLOC: u64 = 42;
/// Allocations `parse_request` makes on the realloc line below.
const PARSE_REALLOC: u64 = 53;
/// Allocations `AllocResponse::to_line` makes on the answer below.
const RENDER: u64 = 1;

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
fn wire_path_allocations_are_pinned() {
    let spec = DatasetSpec::scaled_down(Setting::Large);
    let graph = generate_graph(&spec, 3);
    let n = graph.num_nodes();
    let alloc_line = AllocRequest {
        id: "a1".to_string(),
        graph: graph.clone(),
        source_rate: Some(spec.source_rate + 1e-4),
        devices: Some(spec.devices),
        v: Some(2),
        deadline_ms: None,
    }
    .to_line();
    let realloc_line = ReallocRequest {
        id: "r1".to_string(),
        graph: graph.clone(),
        prior_placement: (0..n as u32).map(|v| v % spec.devices as u32).collect(),
        delta: drift_delta(
            &graph,
            DriftKind::HotSwap,
            spec.devices,
            spec.source_rate,
            3,
        ),
        source_rate: Some(spec.source_rate),
        devices: Some(spec.devices),
        v: Some(2),
        deadline_ms: None,
    }
    .to_line();

    let (alloc, parse_alloc) = counted(|| parse_request(&alloc_line));
    assert!(matches!(alloc, Ok(WireRequest::Alloc(_))), "{alloc:?}");
    let (realloc, parse_realloc) = counted(|| parse_request(&realloc_line));
    assert!(
        matches!(realloc, Ok(WireRequest::Realloc(_))),
        "{realloc:?}"
    );
    let answer = AllocResponse {
        id: "a1".to_string(),
        placement: (0..n as u32)
            .map(|v| (v * 7) % spec.devices as u32)
            .collect(),
        relative_throughput: 0.8125,
        cached: false,
        v: Some(2),
        shard: Some(0),
        realloc: None,
    };
    let (line, render) = counted(|| answer.to_line());
    assert!(
        line.starts_with("{\"id\":\"a1\",\"placement\":[0,7,4,1,"),
        "{line}"
    );

    assert_eq!(
        (parse_alloc, parse_realloc, render),
        (PARSE_ALLOC, PARSE_REALLOC, RENDER),
        "allocations of (alloc parse, realloc parse, response render)"
    );
}
