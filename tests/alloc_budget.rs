//! Allocation budget of a cold analysis.
//!
//! Nearly every jump function the paper's study transmits is a constant
//! or a single pass-through slot, and the per-procedure phases (SSA,
//! return jump functions, symbolic values, forward jump functions) run
//! once per procedure. Their representation therefore decides how many
//! heap objects a cold run makes and how long dropping them takes. This
//! test pins that count: a cold, sequential `analyze` of a generated
//! 1000-procedure corpus must stay within a per-procedure ceiling, so a
//! change that puts one-term polynomials back on the heap, or deep-copies
//! stored per-procedure artifacts again, fails here rather than only in
//! a benchmark.
//!
//! The counting allocator is per thread, and the analysis runs at
//! `jobs = 1`, so tests running on other threads do not disturb it.

use ipcp::suite::gen::{generate_scale, ScaleSpec};
use ipcp::AnalysisConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting allocations and
/// reallocations made on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a const
// thread-local without a destructor, so touching it never allocates or
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Allocations per procedure of a cold, sequential analysis, session
/// set-up and teardown included (the frontend is not counted). Measured
/// at 133.9 on this corpus; the ceiling leaves a 10% margin.
const CEILING_PER_PROC: f64 = 147.0;

#[test]
fn cold_analyze_stays_within_its_allocation_budget() {
    let source = generate_scale(&ScaleSpec::with_procs(1000, 7)).source;
    let program = ipcp::ir::compile_to_ir(&source).expect("generated corpus compiles");
    let config = AnalysisConfig {
        jobs: 1,
        ..AnalysisConfig::default()
    };
    let n = allocations(|| drop(ipcp::analyze(&program, &config)));
    let per_proc = n as f64 / program.procs.len() as f64;
    assert!(
        per_proc <= CEILING_PER_PROC,
        "cold analyze made {n} allocations for {} procedures \
         ({per_proc:.1} per procedure, ceiling {CEILING_PER_PROC})",
        program.procs.len()
    );
}
