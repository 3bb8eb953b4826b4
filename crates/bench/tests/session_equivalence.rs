//! Acceptance check for the memoized session path: over every example
//! program shipped in `examples/programs/` and every synthetic suite
//! program, a single warm session swept across all Table-2 and Table-3
//! configurations produces outcomes identical — program, CONSTANTS,
//! substitution counts, cost stats, robustness — to the store-less run
//! of each configuration, which recomputes every artifact every round.

use ipcp_bench::{prepare_suite, table2_configs, table3_configs};
use ipcp_core::{analyze, AnalysisConfig, AnalysisOutcome, AnalysisSession};

fn sweep() -> Vec<(&'static str, AnalysisConfig)> {
    let mut configs = table2_configs();
    configs.extend(table3_configs());
    configs
}

/// The store-less run of the unmetered `config`: metered at an ample
/// `fuel: Some(1 << 40)`, with the report's fuel limit put back.
fn store_less(ir: &ipcp_ir::Program, config: &AnalysisConfig) -> AnalysisOutcome {
    let mut outcome = analyze(
        ir,
        &AnalysisConfig {
            fuel: Some(1 << 40),
            ..*config
        },
    );
    outcome.robustness.fuel_limit = config.fuel;
    outcome
}

fn assert_outcomes_identical(got: &AnalysisOutcome, want: &AnalysisOutcome, what: &str) {
    assert_eq!(got.program, want.program, "{what}: program");
    assert_eq!(got.constants, want.constants, "{what}: constants");
    assert_eq!(
        got.substitutions, want.substitutions,
        "{what}: substitutions"
    );
    assert_eq!(got.stats, want.stats, "{what}: stats");
    assert_eq!(got.robustness, want.robustness, "{what}: robustness");
}

fn check_program(name: &str, ir: &ipcp_ir::Program) {
    let session = AnalysisSession::new(ir);
    for (label, config) in sweep() {
        let got = session.analyze(&config);
        let want = store_less(ir, &config);
        assert_outcomes_identical(&got, &want, &format!("{name} / {label}"));
    }
    assert!(
        session.stats().total_hits() > 0,
        "{name}: the sweep never reused an artifact"
    );
}

#[test]
fn example_programs_identical_across_sweep() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
    let mut found = 0;
    for entry in std::fs::read_dir(dir).expect("examples/programs exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "mf") {
            continue;
        }
        found += 1;
        let source = std::fs::read_to_string(&path).expect("readable");
        let ir = ipcp_ir::compile_to_ir(&source)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", path.display()));
        check_program(&path.display().to_string(), &ir);
    }
    assert!(found >= 2, "expected the shipped example programs");
}

#[test]
fn suite_programs_identical_across_sweep() {
    for p in prepare_suite() {
        check_program(&p.generated.name, &p.ir);
    }
}
