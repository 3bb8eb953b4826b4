//! Golden regression test: the measured table cells are deterministic
//! (fixed generator seeds, deterministic analyzer), so any change to
//! these numbers is a behaviour change that EXPERIMENTS.md must track.
//!
//! Every sweep runs through `measure_par`, the column fan-out the
//! `table2`, `table3` and `report` binaries print from, once inline and
//! once over four workers sharing each program's session store.

use ipcp_bench::{
    measure_par, prepare_suite, table2_configs, table3_configs, TABLE2_GOLDEN, TABLE3_GOLDEN,
};

/// Worker counts every sweep runs at: inline, then fanned out.
const JOBS: [usize; 2] = [1, 4];

#[test]
fn table2_numbers_are_pinned() {
    let configs = table2_configs();
    for jobs in JOBS {
        for (p, (name, expect)) in prepare_suite().iter().zip(TABLE2_GOLDEN.iter()) {
            assert_eq!(&p.generated.name, name);
            let measured = measure_par(p, &configs, jobs);
            assert_eq!(measured, expect.to_vec(), "{name} at jobs={jobs}");
        }
    }
}

#[test]
fn table3_numbers_are_pinned() {
    let configs = table3_configs();
    for jobs in JOBS {
        for (p, (name, expect)) in prepare_suite().iter().zip(TABLE3_GOLDEN.iter()) {
            assert_eq!(&p.generated.name, name);
            let measured = measure_par(p, &configs, jobs);
            assert_eq!(measured, expect.to_vec(), "{name} at jobs={jobs}");
        }
    }
}

/// Both sweeps through one warm session per program still reproduce the
/// pinned cells, so Table-3 columns measured against caches primed by
/// Table 2 read nothing stale.
#[test]
fn warm_session_tables_match_golden() {
    let mut configs = table2_configs();
    configs.extend(table3_configs());
    for jobs in JOBS {
        let golden = TABLE2_GOLDEN.iter().zip(TABLE3_GOLDEN.iter());
        for (p, ((name, t2), (_, t3))) in prepare_suite().iter().zip(golden) {
            assert_eq!(&p.generated.name, name);
            let want: Vec<usize> = t2.iter().chain(t3.iter()).copied().collect();
            assert_eq!(
                measure_par(p, &configs, jobs),
                want,
                "{name} at jobs={jobs}"
            );
        }
    }
}

#[test]
fn suite_is_alias_clean() {
    // The generator must respect the FORTRAN no-alias rule the analyses
    // assume.
    use ipcp_analysis::{check_aliasing, compute_modref, CallGraph};
    for p in prepare_suite() {
        let cg = CallGraph::new(&p.ir);
        let modref = compute_modref(&p.ir, &cg);
        let violations = check_aliasing(&p.ir, &modref);
        assert!(
            violations.is_empty(),
            "{}: {violations:?}",
            p.generated.name
        );
    }
}
