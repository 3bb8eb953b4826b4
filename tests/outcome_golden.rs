//! Outcome golden: pins every byte of what `analyze` returns — the
//! analyzed program, `CONSTANTS`, substitution counts, cost statistics
//! and the `RobustnessReport` — unmetered and under metered budgets, so
//! a change to how the pipeline executes cannot move a byte unnoticed.
//!
//! Each row's digest is the 64-bit FNV-1a of the Wire encoding the disk
//! cache stores (`ipcp::ir::codec::encode_to_vec(&outcome)`), labelled
//! per program and folded over the row's programs in order. The rows:
//!
//! * `unmetered <config>` — the Table-2 and Table-3 configurations plus
//!   gated φs, full composition, the binding solver and `cond`, one
//!   session per program serving every configuration in turn, over the
//!   twelve suite programs, the examples and the fuzz corpus;
//! * `fuel <n> <corner>` — a `Budget::with_fuel` grid over six
//!   configuration corners and the same corpus (only a finite tank makes
//!   the jump-function precision ladder slide);
//! * `faults <corner> <program>` — a `FaultInjector` at every checkpoint
//!   of the run, over the examples and the fuzz corpus;
//! * `checkpoints default <program>` — a `FaultInjector` at eight evenly
//!   spaced checkpoints of each suite program, at the default
//!   configuration (the fuel grid already runs complete propagation over
//!   the suite; adding it here would double the file's running time).
//!
//! When a row no longer matches, the failure message prints the whole
//! table as computed, so a deliberate change can be reviewed and pasted
//! back in.

use ipcp::core::{
    analyze_with_budget, AnalysisConfig, AnalysisOutcome, AnalysisSession, Budget, FaultInjector,
    FuelSource, JumpFunctionKind, Phase, SolverKind,
};
use ipcp::ir::Program;
use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;

/// 64-bit FNV-1a, folded incrementally: stable across platforms and
/// Rust releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in one labelled outcome.
    fn outcome(&mut self, label: &str, outcome: &AnalysisOutcome) {
        self.feed(format!("== {label}\n").as_bytes());
        self.feed(&ipcp::ir::codec::encode_to_vec(outcome));
    }
}

/// The `.mf` files of a repository directory, sorted by name, compiled.
fn mf_programs(dir: &str) -> Vec<(String, Program)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mf"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&p).expect("readable source");
            let ir = ipcp::ir::compile_to_ir(&source).expect("corpus programs compile");
            (format!("{dir}/{name}"), ir)
        })
        .collect()
}

/// The twelve suite programs, labelled.
fn suite() -> Vec<(String, Program)> {
    ipcp::suite::all_specs()
        .iter()
        .map(|spec| {
            let generated = ipcp::suite::generate(spec);
            let ir = ipcp::ir::compile_to_ir(&generated.source).expect("suite compiles");
            (format!("suite/{}", generated.name), ir)
        })
        .collect()
}

/// The examples and the fuzz corpus, labelled.
fn small_corpus() -> Vec<(String, Program)> {
    let mut out = mf_programs("examples/programs");
    out.extend(mf_programs("tests/fuzz-corpus"));
    out
}

/// Every program the unmetered and fuel-grid rows cover.
fn corpus() -> Vec<(String, Program)> {
    let mut out = suite();
    out.extend(small_corpus());
    out
}

fn jf(kind: JumpFunctionKind, rjf: bool) -> AnalysisConfig {
    AnalysisConfig {
        jump_function: kind,
        return_jump_functions: rjf,
        ..AnalysisConfig::default()
    }
}

/// The unmetered configurations, in sweep order: Table 2's columns,
/// Table 3's, then the extensions.
fn unmetered_configs() -> Vec<(&'static str, AnalysisConfig)> {
    use JumpFunctionKind::*;
    let base = AnalysisConfig::default();
    vec![
        ("poly+rjf", jf(Polynomial, true)),
        ("pass+rjf", jf(PassThrough, true)),
        ("intra+rjf", jf(IntraproceduralConstant, true)),
        ("lit+rjf", jf(Literal, true)),
        ("poly-rjf", jf(Polynomial, false)),
        ("pass-rjf", jf(PassThrough, false)),
        (
            "poly w/o MOD",
            AnalysisConfig {
                mod_info: false,
                ..base
            },
        ),
        ("poly w/ MOD", base),
        (
            "complete",
            AnalysisConfig {
                complete_propagation: true,
                ..base
            },
        ),
        ("intraproc", AnalysisConfig::intraprocedural_baseline()),
        ("gsa", AnalysisConfig { gsa: true, ..base }),
        (
            "compose",
            AnalysisConfig {
                rjf_full_composition: true,
                ..base
            },
        ),
        (
            "binding",
            AnalysisConfig {
                solver: SolverKind::BindingGraph,
                ..base
            },
        ),
        ("cond", AnalysisConfig::conditional()),
    ]
}

/// The configuration corners the metered rows run.
fn corner(name: &str) -> AnalysisConfig {
    let base = AnalysisConfig::default();
    match name {
        "default" => base,
        "binding" => AnalysisConfig {
            solver: SolverKind::BindingGraph,
            ..base
        },
        "complete" => AnalysisConfig {
            complete_propagation: true,
            ..base
        },
        "gsa+compose" => AnalysisConfig {
            gsa: true,
            rjf_full_composition: true,
            ..base
        },
        "cond" => AnalysisConfig::conditional(),
        "no-mod" => AnalysisConfig {
            mod_info: false,
            ..base
        },
        _ => panic!("unknown corner {name}"),
    }
}

/// A fuel source that grants every request and counts the checkpoints.
struct CountingFuel(Rc<Cell<u64>>);

impl FuelSource for CountingFuel {
    fn try_consume(&self, _phase: Phase, _amount: u64) -> bool {
        self.0.set(self.0.get() + 1);
        true
    }

    fn remaining(&self) -> Option<u64> {
        None
    }
}

/// The number of budget checkpoints a metered run of `config` passes.
fn checkpoints(program: &Program, config: &AnalysisConfig) -> u64 {
    let seen = Rc::new(Cell::new(0));
    let budget = Budget::from_source(CountingFuel(Rc::clone(&seen)));
    analyze_with_budget(program, config, &budget);
    seen.get()
}

/// Folds the fault-injected runs of `program` at each of `allowed`
/// checkpoints, after the checkpoint count itself.
fn fold_faults(h: &mut Fnv, program: &Program, config: &AnalysisConfig, allowed: &[u64]) {
    for &n in allowed {
        let budget = Budget::from_source(FaultInjector::new(n));
        h.outcome(
            &n.to_string(),
            &analyze_with_budget(program, config, &budget),
        );
    }
}

/// Compares computed digests with the pinned table, printing the
/// computed table on any difference.
fn assert_digests(what: &str, pinned: &[(&str, u64)], computed: &[(String, u64)]) {
    let same = pinned.len() == computed.len()
        && pinned
            .iter()
            .zip(computed)
            .all(|((pl, pd), (cl, cd))| pl == cl && pd == cd);
    if !same {
        let mut table = String::new();
        for (label, digest) in computed {
            let mark = if pinned.iter().any(|(l, d)| l == label && d == digest) {
                ""
            } else {
                "  // moved"
            };
            table.push_str(&format!("    ({label:?}, 0x{digest:016x}),{mark}\n"));
        }
        panic!("{what} differs from the golden; computed table:\n{table}");
    }
}

#[test]
fn unmetered_outcomes_match_golden() {
    let configs = unmetered_configs();
    let mut digests: Vec<Fnv> = configs.iter().map(|_| Fnv::new()).collect();
    for (label, program) in corpus() {
        let session = AnalysisSession::new(&program);
        for ((_, config), h) in configs.iter().zip(&mut digests) {
            h.outcome(&label, &session.analyze(config));
        }
    }
    let computed: Vec<(String, u64)> = configs
        .iter()
        .zip(digests)
        .map(|((name, _), h)| (format!("unmetered {name}"), h.0))
        .collect();
    assert_digests("unmetered", UNMETERED, &computed);
}

/// The fuel grid over `corners`, one row per (fuel, corner).
fn fuel_grid(corners: &[&str]) -> Vec<(String, u64)> {
    let corpus = corpus();
    let mut out = Vec::new();
    for fuel in FUELS {
        for &name in corners {
            let config = corner(name);
            let mut h = Fnv::new();
            for (label, program) in &corpus {
                let budget = Budget::with_fuel(fuel);
                h.outcome(label, &analyze_with_budget(program, &config, &budget));
            }
            out.push((format!("fuel {fuel} {name}"), h.0));
        }
    }
    out
}

const FUELS: [u64; 6] = [0, 10, 100, 1_000, 10_000, 100_000];

#[test]
fn fuel_grid_default_and_binding_match_golden() {
    let computed = fuel_grid(&["default", "binding"]);
    assert_digests("fuel grid", FUEL_DEFAULT_BINDING, &computed);
}

#[test]
fn fuel_grid_complete_and_gsa_compose_match_golden() {
    let computed = fuel_grid(&["complete", "gsa+compose"]);
    assert_digests("fuel grid", FUEL_COMPLETE_GSA, &computed);
}

#[test]
fn fuel_grid_cond_and_no_mod_match_golden() {
    let computed = fuel_grid(&["cond", "no-mod"]);
    assert_digests("fuel grid", FUEL_COND_NO_MOD, &computed);
}

/// Every checkpoint of every small-corpus program, failed in turn.
#[test]
fn every_fault_injection_checkpoint_matches_golden() {
    let mut computed = Vec::new();
    for name in ["default", "complete"] {
        let config = corner(name);
        for (label, program) in small_corpus() {
            let total = checkpoints(&program, &config);
            let mut h = Fnv::new();
            h.feed(&total.to_le_bytes());
            let allowed: Vec<u64> = (0..=total).collect();
            fold_faults(&mut h, &program, &config, &allowed);
            computed.push((format!("faults {name} {label}"), h.0));
        }
    }
    assert_digests("fault injection", FAULTS, &computed);
}

/// Eight evenly spaced checkpoints of each suite program, from fully
/// starved to ample.
#[test]
fn suite_checkpoints_match_golden() {
    let config = corner("default");
    let mut computed = Vec::new();
    for (label, program) in suite() {
        let total = checkpoints(&program, &config);
        let mut h = Fnv::new();
        h.feed(&total.to_le_bytes());
        let allowed: Vec<u64> = (0..8).map(|i| total * i / 7).collect();
        fold_faults(&mut h, &program, &config, &allowed);
        computed.push((format!("checkpoints default {label}"), h.0));
    }
    assert_digests("suite checkpoints", CHECKPOINTS, &computed);
}

const UNMETERED: &[(&str, u64)] = &[
    ("unmetered poly+rjf", 0x0e21b0c109bc254b),
    ("unmetered pass+rjf", 0xd9a3fc2ffa5b2a0e),
    ("unmetered intra+rjf", 0x2c03d18c78b0aae8),
    ("unmetered lit+rjf", 0x306bd7f8ffea29ec),
    ("unmetered poly-rjf", 0xfbea5da2d5edfb6b),
    ("unmetered pass-rjf", 0xe72f894e6c64c9a3),
    ("unmetered poly w/o MOD", 0x99777aa25343f060),
    ("unmetered poly w/ MOD", 0x0e21b0c109bc254b),
    ("unmetered complete", 0xa46f8be01b7a5e3d),
    ("unmetered intraproc", 0x16c02ff541d74410),
    ("unmetered gsa", 0x2773c7ce4a1465d9),
    ("unmetered compose", 0x0e21b0c109bc254b),
    ("unmetered binding", 0x50404bcde6af413d),
    ("unmetered cond", 0xc6a98deceb328406),
];

const FUEL_DEFAULT_BINDING: &[(&str, u64)] = &[
    ("fuel 0 default", 0x3a48563bf458e799),
    ("fuel 0 binding", 0xd9d3e45943b0f52b),
    ("fuel 10 default", 0xbfea0827b2bec28f),
    ("fuel 10 binding", 0xa36a245d16bd863c),
    ("fuel 100 default", 0x3e15a07e07c06020),
    ("fuel 100 binding", 0xdac29364ee4bbfb4),
    ("fuel 1000 default", 0x015fd8d58b6afcf2),
    ("fuel 1000 binding", 0x3a5dbd84dab71e32),
    ("fuel 10000 default", 0x01ab90611c142253),
    ("fuel 10000 binding", 0x3d117f2a20d76044),
    ("fuel 100000 default", 0x4cdb12344249e3a7),
    ("fuel 100000 binding", 0x063fd9ed9dfda701),
];

const FUEL_COMPLETE_GSA: &[(&str, u64)] = &[
    ("fuel 0 complete", 0x849ba3da0e4f158f),
    ("fuel 0 gsa+compose", 0x3a48563bf458e799),
    ("fuel 10 complete", 0x8d1c51e05b23be99),
    ("fuel 10 gsa+compose", 0xbfea0827b2bec28f),
    ("fuel 100 complete", 0x2f644be72e691204),
    ("fuel 100 gsa+compose", 0x3e15a07e07c06020),
    ("fuel 1000 complete", 0x3821a4691df428ad),
    ("fuel 1000 gsa+compose", 0x015fd8d58b6afcf2),
    ("fuel 10000 complete", 0x927a313d7c966eff),
    ("fuel 10000 gsa+compose", 0x01ab90611c142253),
    ("fuel 100000 complete", 0xdb6fcb30927e9e11),
    ("fuel 100000 gsa+compose", 0x2837f61a5055ccdd),
];

const FUEL_COND_NO_MOD: &[(&str, u64)] = &[
    ("fuel 0 cond", 0x3a48563bf458e799),
    ("fuel 0 no-mod", 0x3a48563bf458e799),
    ("fuel 10 cond", 0xbfea0827b2bec28f),
    ("fuel 10 no-mod", 0x139ea5828870312f),
    ("fuel 100 cond", 0x3e15a07e07c06020),
    ("fuel 100 no-mod", 0x6a494446785303a1),
    ("fuel 1000 cond", 0xfad6ce3086abb0cd),
    ("fuel 1000 no-mod", 0xed176f79609b08e9),
    ("fuel 10000 cond", 0xfac51400ca4d2bd2),
    ("fuel 10000 no-mod", 0xbf75f6210cb982a5),
    ("fuel 100000 cond", 0xf8a777385667c72e),
    ("fuel 100000 no-mod", 0x5e6927650aa34b92),
];

const FAULTS: &[(&str, u64)] = &[
    (
        "faults default examples/programs/heat.mf",
        0xfed8ee9e466c47f3,
    ),
    (
        "faults default examples/programs/poly.mf",
        0x6b150c8ab02cfca6,
    ),
    (
        "faults default examples/programs/provenance.mf",
        0xb43389d0db694fb8,
    ),
    (
        "faults default tests/fuzz-corpus/cond-infeasible-branch-prune.mf",
        0x683b588a2b0dd8f6,
    ),
    (
        "faults default tests/fuzz-corpus/dce-by-ref-global.mf",
        0xbb8597d85150a1d0,
    ),
    (
        "faults default tests/fuzz-corpus/div-by-zero-trap-preserved.mf",
        0xbde054d5e87a2c95,
    ),
    (
        "faults default tests/fuzz-corpus/div-min-by-neg-one.mf",
        0x80fd90df92bd23f0,
    ),
    (
        "faults default tests/fuzz-corpus/min-literal-roundtrip.mf",
        0x75f6e239f94abde8,
    ),
    (
        "faults default tests/fuzz-corpus/negative-division-truncation.mf",
        0xdc1851a2e64c3b90,
    ),
    (
        "faults default tests/fuzz-corpus/zero-step-loop-trap.mf",
        0xf2759025d0126ca4,
    ),
    (
        "faults complete examples/programs/heat.mf",
        0x0ae8a932cb2f47e6,
    ),
    (
        "faults complete examples/programs/poly.mf",
        0x4af30ef329f72fbb,
    ),
    (
        "faults complete examples/programs/provenance.mf",
        0x94f4b4e9f08169df,
    ),
    (
        "faults complete tests/fuzz-corpus/cond-infeasible-branch-prune.mf",
        0x08d51aa398038e30,
    ),
    (
        "faults complete tests/fuzz-corpus/dce-by-ref-global.mf",
        0xbc380b250103b0a3,
    ),
    (
        "faults complete tests/fuzz-corpus/div-by-zero-trap-preserved.mf",
        0x540fac340e5ece65,
    ),
    (
        "faults complete tests/fuzz-corpus/div-min-by-neg-one.mf",
        0xbf8e971458d87cbb,
    ),
    (
        "faults complete tests/fuzz-corpus/min-literal-roundtrip.mf",
        0x57519b1b9cc564e8,
    ),
    (
        "faults complete tests/fuzz-corpus/negative-division-truncation.mf",
        0xd052fbbc7e09c297,
    ),
    (
        "faults complete tests/fuzz-corpus/zero-step-loop-trap.mf",
        0xe9ef5e84a60faa58,
    ),
];

const CHECKPOINTS: &[(&str, u64)] = &[
    ("checkpoints default suite/adm", 0x9b0886a5312c5b0c),
    ("checkpoints default suite/doduc", 0x624def35ea92bfcb),
    ("checkpoints default suite/fpppp", 0xc22c1c42491cb85b),
    ("checkpoints default suite/linpackd", 0x7d8e81ae2e5b960a),
    ("checkpoints default suite/matrix300", 0x9a0d9075f85e1dae),
    ("checkpoints default suite/mdg", 0xdc691d79e1c5c86f),
    ("checkpoints default suite/ocean", 0xef7a114db1f9605d),
    ("checkpoints default suite/qcd", 0xfd5cfbe455957294),
    ("checkpoints default suite/simple", 0xdf94ecf4be157c7c),
    ("checkpoints default suite/snasa7", 0x2d5241236b6a9bc4),
    ("checkpoints default suite/spec77", 0xa8c4aab5eaf2bd48),
    ("checkpoints default suite/trfd", 0xbf43f7135b1eff30),
];
