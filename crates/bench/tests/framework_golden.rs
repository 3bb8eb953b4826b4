//! Golden equivalence for the generic value-context engine: every one
//! of the 72 pinned Table-2 cells must come out bit-identical through
//! the refactored solver — at different worker counts, through a
//! fuel-metered (store-less) run, and across a disk-cache close and
//! reopen (the artifact format version was bumped with the refactor, so
//! pre-engine artifacts are never silently reused).

use ipcp_bench::{prepare_suite, table2_configs, TABLE2_GOLDEN};
use ipcp_core::{AnalysisConfig, AnalysisSession, DiskCache};
use std::sync::Arc;

fn assert_pins(totals: &[Vec<usize>], what: &str) {
    for (row, (name, expect)) in totals.iter().zip(TABLE2_GOLDEN.iter()) {
        assert_eq!(row, &expect.to_vec(), "{what}: {name}");
    }
}

/// One full Table-2 sweep through fresh sessions, with `jobs` and
/// `fuel` forced onto every configuration.
fn sweep(jobs: usize, fuel: Option<u64>, cache: Option<&Arc<DiskCache>>) -> Vec<Vec<usize>> {
    let suite = prepare_suite();
    let configs = table2_configs();
    suite
        .iter()
        .map(|p| {
            let mut session = AnalysisSession::new(&p.ir);
            if let Some(cache) = cache {
                session.attach_disk_cache(Arc::clone(cache));
            }
            configs
                .iter()
                .map(|(_, c)| {
                    let config = AnalysisConfig { jobs, fuel, ..*c };
                    session.analyze(&config).substitutions.total
                })
                .collect()
        })
        .collect()
}

#[test]
fn cells_are_pinned_at_one_and_four_workers() {
    assert_pins(&sweep(1, None, None), "jobs=1");
    assert_pins(&sweep(4, None, None), "jobs=4");
}

#[test]
fn cells_are_pinned_under_generous_fuel() {
    // A fuel-metered run is store-less and walks the jump-function
    // builders' precision ladder instead of the session's per-procedure
    // caches; a generous budget must not change a single cell.
    assert_pins(&sweep(1, Some(1 << 40), None), "fuel");
}

#[test]
fn cells_are_pinned_across_a_disk_cache_reopen() {
    let dir = std::env::temp_dir().join(format!("ipcp-framework-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_cache = Arc::new(DiskCache::open(&dir).expect("open cache"));
    assert_pins(&sweep(1, None, Some(&cold_cache)), "cold cache");
    assert!(cold_cache.stats().writes > 0, "{:?}", cold_cache.stats());
    drop(cold_cache);

    // A fresh handle on the persisted directory: the warm pass must be
    // served from the cache written by the engine, not recomputed, and
    // still reproduce every pin.
    let warm_cache = Arc::new(DiskCache::open(&dir).expect("reopen cache"));
    assert!(warm_cache.entry_count() > 0);
    assert_pins(&sweep(1, None, Some(&warm_cache)), "warm cache");
    let stats = warm_cache.stats();
    assert!(stats.hits > 0, "{stats:?}");
    assert_eq!(stats.quarantined, 0, "{stats:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_matches_the_legacy_solver_loop() {
    // The bespoke pre-refactor solve loop, replayed on identical inputs:
    // the generic engine must reach the identical fixpoint in the
    // identical number of iterations on every suite program.
    for p in prepare_suite() {
        let inputs = ipcp_bench::solver_inputs(&p.ir, true);
        let engine = ipcp_core::solve(&inputs.program, &inputs.cg, &inputs.modref, &inputs.jfs);
        let legacy =
            ipcp_bench::legacy_solve(&inputs.program, &inputs.cg, &inputs.modref, &inputs.jfs);
        ipcp_bench::assert_solver_agreement(&inputs.program, &engine, &legacy);
    }
}
