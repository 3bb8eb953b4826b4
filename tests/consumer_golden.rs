//! Consumer golden: pins what the analysis's consumers print — source
//! transformation (`ipcp transform`), the optimizer with and without
//! cloning (`ipcp optimize [--clone]`), the cloning report
//! (`ipcp clones`) and whole-program subscript classification
//! (`subscript_counts`) — so a change to how they obtain their solved
//! analysis cannot move a byte unnoticed.
//!
//! Every row is one consumer under one set of command-line flags, run
//! over the twelve suite programs, the examples and the fuzz corpus. A
//! row covers the default configuration or a flag that consumer honours;
//! its digest is the 64-bit FNV-1a of every program's labelled output in
//! corpus order. When a row no longer matches, the failure message
//! prints the whole table as computed, so a deliberate change can be
//! reviewed and pasted back in.

use ipcp::cli::{execute, parse_args};
use std::path::Path;

/// 64-bit FNV-1a: stable across platforms and Rust releases.
fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `.mf` files of a repository directory, sorted by name.
fn mf_files(dir: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mf"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("readable source"))
        })
        .collect()
}

/// Every program the golden covers, labelled.
fn corpus() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = ipcp::suite::all_specs()
        .iter()
        .map(|spec| {
            let program = ipcp::suite::generate(spec);
            (format!("suite/{}", program.name), program.source)
        })
        .collect();
    for dir in ["examples/programs", "tests/fuzz-corpus"] {
        for (name, source) in mf_files(dir) {
            out.push((format!("{dir}/{name}"), source));
        }
    }
    out
}

/// One consumer's output on `source` under the command line `row`
/// (a command word followed by flags; `subscripts` is the library's
/// `subscript_counts` under the configuration those flags parse to).
fn consumer_output(row: &str, source: &str) -> String {
    let mut words: Vec<String> = row.split_whitespace().map(String::from).collect();
    let subscripts = words[0] == "subscripts";
    if subscripts {
        words[0] = "analyze".into();
    }
    words.insert(1, "golden.mf".into());
    let cli = parse_args(&words).unwrap_or_else(|e| panic!("{row}: {e}"));
    if subscripts {
        let program = ipcp::ir::compile_to_ir(source).expect("corpus programs compile");
        return format!(
            "{:?}\n",
            ipcp::core::subscript_counts(&program, &cli.config)
        );
    }
    match execute(&cli, source) {
        Ok(out) => out,
        Err(err) => format!("error: {err}"),
    }
}

/// The rows, each the digest of its consumer's output over the corpus.
fn computed_rows(rows: &[&str]) -> Vec<(String, u64)> {
    let corpus = corpus();
    rows.iter()
        .map(|row| {
            let mut text = String::new();
            for (label, source) in &corpus {
                text.push_str(&format!("== {label}\n"));
                text.push_str(&consumer_output(row, source));
            }
            (row.to_string(), fnv64(&text))
        })
        .collect()
}

/// Compares computed digests with the pinned table, printing the
/// computed table on any difference.
fn assert_digests(what: &str, pinned: &[(&str, u64)]) {
    let rows: Vec<&str> = pinned.iter().map(|&(row, _)| row).collect();
    let computed = computed_rows(&rows);
    let same = pinned
        .iter()
        .zip(&computed)
        .all(|((_, pd), (_, cd))| pd == cd);
    if !same {
        let mut table = String::new();
        for (label, digest) in &computed {
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
fn transform_matches_golden() {
    assert_digests("transform", TRANSFORM);
}

#[test]
fn subscript_counts_match_golden() {
    assert_digests("subscript_counts", SUBSCRIPTS);
}

#[test]
fn optimize_matches_golden() {
    assert_digests("optimize", OPTIMIZE);
}

#[test]
fn optimize_with_cloning_matches_golden() {
    assert_digests("optimize --clone", OPTIMIZE_CLONE);
}

#[test]
fn clones_report_matches_golden() {
    assert_digests("clones", CLONES);
}

const TRANSFORM: &[(&str, u64)] = &[
    ("transform", 0x3ebdb59a46b1a282),
    ("transform --jf literal", 0x563ea5f7b94cc8e5),
    ("transform --jf intra", 0x4fb0e8d2a016f278),
    ("transform --jf pass", 0xc940b2a8b996315e),
    ("transform --no-rjf", 0x8fefe34dd42e992c),
    ("transform --no-mod", 0xa39778ea3559b4bf),
    ("transform --gsa", 0x38f451d80058fef7),
    ("transform --intraprocedural", 0xe5f4b3fd6da91936),
];

const SUBSCRIPTS: &[(&str, u64)] = &[
    ("subscripts", 0xec197f8356460db9),
    ("subscripts --jf literal", 0x8fe410e5b09c9681),
    ("subscripts --jf intra", 0x2cbd0dbcc09bae35),
    ("subscripts --jf pass", 0x2cbd0dbcc09bae35),
    ("subscripts --no-rjf", 0xcffb3a0432b3d555),
    ("subscripts --no-mod", 0xcffb3a0432b3d555),
    ("subscripts --gsa", 0xec197f8356460db9),
    ("subscripts --intraprocedural", 0x8fe410e5b09c9681),
];

const OPTIMIZE: &[(&str, u64)] = &[
    ("optimize", 0x8dcc4f08bff31a34),
    ("optimize --jf literal", 0x27b79d9bbe1585d1),
    ("optimize --jf intra", 0x2845e49e7f336dc8),
    ("optimize --jf pass", 0xa9aae5c8cec17c17),
    ("optimize --no-rjf", 0x431dd3bd1f9bdcfd),
    ("optimize --gsa", 0xe5f602c022bdec3a),
];

const OPTIMIZE_CLONE: &[(&str, u64)] = &[
    ("optimize --clone", 0x6db52834cd79af24),
    ("optimize --clone --jf literal", 0x63b9b9ccb549d062),
    ("optimize --clone --jf intra", 0x12493c045296b5be),
    ("optimize --clone --jf pass", 0xec8c15a128716209),
    ("optimize --clone --no-rjf", 0x06db27c9284521b2),
    ("optimize --clone --gsa", 0x3644d80e21de089e),
];

const CLONES: &[(&str, u64)] = &[
    ("clones", 0x2342ff57f11d1b19),
    ("clones --jf literal", 0x2342ff57f11d1b19),
    ("clones --jf intra", 0x60567ff650a38fde),
    ("clones --jf pass", 0x2342ff57f11d1b19),
];

/// Branch feasibility reaches the optimizer. At `cond` the infeasible
/// `kernel(9)` edge no longer meets into `kernel`'s `k`, so a single
/// round already folds `print(k + 1)` to `print(4)`; polynomial jump
/// functions see `k` only after that round has folded `dispatch`'s
/// branch.
#[test]
fn optimize_honours_branch_feasibility() {
    use ipcp::core::{optimize, AnalysisConfig, OptimizeConfig};
    use ipcp::ir::print::program_to_string;

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fuzz-corpus/cond-infeasible-branch-prune.mf");
    let source = std::fs::read_to_string(path).expect("readable corpus program");
    let program = ipcp::ir::compile_to_ir(&source).expect("compiles");
    let run = |p: &ipcp::ir::Program| {
        ipcp::ir::eval::run(p, &Default::default())
            .expect("runs")
            .output
    };
    let optimized = |analysis: AnalysisConfig, max_rounds: usize| {
        let config = OptimizeConfig {
            analysis,
            max_rounds,
            ..OptimizeConfig::default()
        };
        optimize(&program, &config)
    };

    let (poly, _) = optimized(AnalysisConfig::default(), 1);
    let (cond, _) = optimized(AnalysisConfig::conditional(), 1);
    let (poly, cond) = (program_to_string(&poly), program_to_string(&cond));
    assert_ne!(poly, cond, "cond and poly optimize alike");
    assert!(cond.contains("print(4)"), "{cond}");
    assert!(!poly.contains("print(4)"), "{poly}");

    let (cond, cond_stats) = optimized(AnalysisConfig::conditional(), 8);
    let (_, poly_stats) = optimized(AnalysisConfig::default(), 8);
    assert_eq!(run(&cond), run(&program));
    assert!(
        cond_stats.rounds < poly_stats.rounds,
        "{cond_stats:?} vs {poly_stats:?}"
    );
}
