//! Golden regression test: the measured table cells are deterministic
//! (fixed generator seeds, deterministic analyzer), so any change to
//! these numbers is a behaviour change that EXPERIMENTS.md must track.

use ipcp_bench::{
    measure, prepare_suite, table2_configs, table3_configs, TABLE2_GOLDEN, TABLE3_GOLDEN,
};

#[test]
fn table2_numbers_are_pinned() {
    let mut suite = prepare_suite();
    let configs = table2_configs();
    for (p, (name, expect)) in suite.iter_mut().zip(TABLE2_GOLDEN.iter()) {
        assert_eq!(&p.generated.name, name);
        let measured = measure(p, &configs);
        assert_eq!(measured, expect.to_vec(), "{name}");
    }
}

#[test]
fn table3_numbers_are_pinned() {
    let mut suite = prepare_suite();
    let configs = table3_configs();
    for (p, (name, expect)) in suite.iter_mut().zip(TABLE3_GOLDEN.iter()) {
        assert_eq!(&p.generated.name, name);
        let measured = measure(p, &configs);
        assert_eq!(measured, expect.to_vec(), "{name}");
    }
}

/// Both sweeps through one warm session per program still reproduce the
/// pinned cells, so Table-3 columns measured against caches primed by
/// Table 2 read nothing stale.
#[test]
fn warm_session_tables_match_golden() {
    let mut suite = prepare_suite();
    let mut configs = table2_configs();
    configs.extend(table3_configs());
    let golden = TABLE2_GOLDEN.iter().zip(TABLE3_GOLDEN.iter());
    for (p, ((name, t2), (_, t3))) in suite.iter_mut().zip(golden) {
        assert_eq!(&p.generated.name, name);
        let want: Vec<usize> = t2.iter().chain(t3.iter()).copied().collect();
        assert_eq!(measure(p, &configs), want, "{name}");
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
