//! Allocation budgets of the frontend and of a cold analysis.
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
//! The frontend has a budget of its own. Identifiers are interned once
//! per program, so parsing, checking and lowering allocate for the
//! syntax tree and the IR, not for every occurrence of a name; a change
//! that puts owned strings back into tokens, the tree or the checker's
//! tables fails the second test.
//!
//! Bytes from outside are held to the input they came in: a summary
//! pack segment's decoder, fed a hostile length prefix at every offset
//! of every segment, never makes a single allocation larger than the
//! payload it decodes.
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
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a const
// thread-local without a destructor, so touching it never allocates or
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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

/// Allocations per procedure of `parse` + `check` + `lower`. Measured at
/// 16.8 on this corpus (the string-keyed frontend made 36.3, one owned
/// string per identifier token plus copies in the checker's tables);
/// the ceiling leaves a 10% margin.
const FRONTEND_CEILING_PER_PROC: f64 = 18.4;

#[test]
fn frontend_stays_within_its_allocation_budget() {
    let source = generate_scale(&ScaleSpec::with_procs(1000, 7)).source;
    let mut procs = 0;
    let n = allocations(|| {
        let ast = ipcp::lang::parser::parse(&source).expect("generated corpus parses");
        let checked = ipcp::lang::typeck::check(ast).expect("generated corpus checks");
        procs = ipcp::ir::lower::lower(&checked).procs.len();
    });
    let per_proc = n as f64 / procs as f64;
    assert!(
        per_proc <= FRONTEND_CEILING_PER_PROC,
        "the frontend made {n} allocations for {procs} procedures \
         ({per_proc:.1} per procedure, ceiling {FRONTEND_CEILING_PER_PROC})"
    );
}

/// The largest single allocation `f` makes on the calling thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|c| c.set(0));
    f();
    LARGEST.with(Cell::get)
}

#[test]
fn hostile_pack_length_prefixes_allocate_within_the_payload() {
    use ipcp::core::diskcache::pack_segments;
    use ipcp::core::pack::SummaryPack;
    use ipcp::core::{pack_key, AnalysisSession, DiskCache};
    use ipcp::ir::codec::decode_from_slice;
    let dir = std::env::temp_dir().join(format!("ipcp-alloc-pack-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let source = generate_scale(&ScaleSpec::with_procs(40, 7)).source;
    let config = AnalysisConfig::default();
    // A cold run writes the pack; two edited cold runs append a
    // segment each.
    for edit in ["", "  print(1)\n", "  print(2)\n"] {
        let at = source.find("proc rdr0()\n").expect("corpus has rdr0") + "proc rdr0()\n".len();
        let edited = format!("{}{edit}{}", &source[..at], &source[at..]);
        let mut session = AnalysisSession::from_source(&edited).expect("generated corpus compiles");
        session.attach_disk_cache(std::sync::Arc::new(DiskCache::open(&dir).expect("cache")));
        session.set_audit_label("alloc.mf");
        session.analyze(&config);
    }
    let key = pack_key("alloc.mf", &config);
    let image = std::fs::read(dir.join(format!("{key:016x}.pack"))).expect("pack written");
    let segments = pack_segments(key, &image).expect("valid pack");
    assert_eq!(segments.len(), 3, "two appended segments");

    for payload in segments {
        let genuine = largest_allocation(|| {
            assert!(decode_from_slice::<SummaryPack>(payload).is_ok());
        });
        // A tiny segment's genuine decode may already allocate a little
        // more than its wire bytes (a `Vec` grows to four elements); a
        // hostile prefix must add nothing beyond that or the payload.
        let bound = payload.len().max(genuine);
        // At every offset, a length prefix claiming one element per byte
        // left: the most a prefix may claim before it is rejected outright.
        let mut worst = 0;
        for at in 0..payload.len().saturating_sub(8) {
            let mut bytes = payload.to_vec();
            let claim = (payload.len() - at - 8) as u64;
            bytes[at..at + 8].copy_from_slice(&claim.to_le_bytes());
            worst = worst.max(largest_allocation(|| {
                let _ = decode_from_slice::<SummaryPack>(&bytes);
            }));
        }
        assert!(
            worst <= bound,
            "a hostile prefix made a {worst}-byte allocation from a {}-byte payload",
            payload.len()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
