//! Early cutoff for substitution counting: the session caches each
//! procedure's count under its closure, the facets its SCCP run reads,
//! and its entry constants. Sweeping the Table-2 columns through one
//! session must recount exactly the procedures whose entry constants are
//! new for their facets — e.g. `pass+rjf` after `poly+rjf` recounts only
//! the procedures where pass-through and polynomial jump functions
//! disagree — and every one of the ten columns must still match a fresh
//! session, at one worker and at two.

use ipcp_analysis::{CallGraph, Slot};
use ipcp_bench::{prepare_suite, table2_configs, table3_configs};
use ipcp_core::{AnalysisConfig, AnalysisSession, SessionPhase};
use ipcp_ir::{ProcId, Program};
use std::collections::{BTreeMap, HashSet};

/// What a count's cache key reads, as the test observes it: the
/// facets, the procedure (its closure never changes in this sweep), and
/// its entry constants.
type EntryKey = ((bool, bool), ProcId, BTreeMap<Slot, i64>);

/// The facets a count's key reads besides the procedure and its entry
/// constants (`gsa` is off in every paper column).
fn facets(config: &AnalysisConfig) -> (bool, bool) {
    (
        config.mod_info,
        config.mod_info && config.return_jump_functions,
    )
}

/// Sweeps the Table-2 columns through one session over `ir`, checking
/// that each column recounts exactly the reachable procedures whose entry
/// constants are new for the column's facets. Returns the recounts per
/// column label.
fn sweep_recounts(name: &str, ir: &Program, jobs: usize) -> BTreeMap<&'static str, u64> {
    let cg = CallGraph::new(ir);
    // Unreachable procedures count 0 without a lookup.
    let reachable: Vec<ProcId> = ir.proc_ids().filter(|&q| cg.is_reachable(q)).collect();
    let session = AnalysisSession::new(ir);
    let mut seen: HashSet<EntryKey> = HashSet::new();
    let mut recounts = BTreeMap::new();
    for (label, config) in table2_configs() {
        let config = AnalysisConfig { jobs, ..config };
        let before = session.stats().counter(SessionPhase::Subst);
        let out = session.analyze(&config);
        let after = session.stats().counter(SessionPhase::Subst);
        let moved = reachable
            .iter()
            .filter(|&&q| seen.insert((facets(&config), q, out.constants[q.index()].clone())))
            .count() as u64;
        let (misses, hits) = (after.misses - before.misses, after.hits - before.hits);
        let what = format!("{name} / {label} / jobs={jobs}");
        assert_eq!(misses, moved, "{what}: recounts vs new entry constants");
        assert_eq!(hits + misses, reachable.len() as u64, "{what}: lookups");
        recounts.insert(label, misses);
    }
    recounts
}

/// Polynomial jump functions carry `a + 1` into `g`; pass-through ones
/// do not, so the two columns disagree on `g`'s entry constants only.
const POLY_BEATS_PASS: &str = "\
proc g(b)\nprint(b)\nend\n\
proc f(a)\ncall g(a + 1)\nprint(a)\nend\n\
main\ncall f(1)\nend\n";

#[test]
fn table2_sweep_recounts_only_procedures_whose_entry_constants_moved() {
    let ir = ipcp_ir::compile_to_ir(POLY_BEATS_PASS).expect("compiles");
    for jobs in [1, 2] {
        let recounts = sweep_recounts("poly-beats-pass", &ir, jobs);
        assert_eq!(
            recounts["poly+rjf"], 3,
            "a cold column counts every procedure"
        );
        assert_eq!(recounts["pass+rjf"], 1, "only g's entry constants moved");

        let (mut recounted, mut total) = (0, 0);
        for p in prepare_suite() {
            let recounts = sweep_recounts(&p.generated.name, &p.ir, jobs);
            recounted += recounts.values().sum::<u64>() - recounts["poly+rjf"];
            total += p.ir.procs.len() as u64 * (recounts.len() as u64 - 1);
        }
        assert!(
            recounted * 2 < total,
            "warm columns recounted {recounted} of {total} procedures"
        );
    }
}

#[test]
fn every_column_matches_a_fresh_session_at_one_and_two_workers() {
    let mut columns = table2_configs();
    columns.extend(table3_configs());
    assert_eq!(columns.len(), 10);
    for p in prepare_suite() {
        let fresh: Vec<_> = columns
            .iter()
            .map(|(_, config)| AnalysisSession::new(&p.ir).analyze(config))
            .collect();
        for jobs in [1, 2] {
            let session = AnalysisSession::new(&p.ir);
            for ((label, config), want) in columns.iter().zip(&fresh) {
                let got = session.analyze(&AnalysisConfig { jobs, ..*config });
                let what = format!("{} / {label} / jobs={jobs}", p.generated.name);
                assert_eq!(got.program, want.program, "{what}: program");
                assert_eq!(got.constants, want.constants, "{what}: constants");
                assert_eq!(
                    got.substitutions, want.substitutions,
                    "{what}: substitutions"
                );
                assert_eq!(got.stats, want.stats, "{what}: stats");
                assert_eq!(got.robustness, want.robustness, "{what}: robustness");
            }
        }
    }
}
