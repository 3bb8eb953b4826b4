//! # ipcp-bench — experiment harness
//!
//! Regenerates the paper's evaluation artifacts over the synthetic
//! benchmark suite:
//!
//! * `table1` binary — program characteristics (paper Table 1),
//! * `table2` binary — constants substituted per jump function, with and
//!   without return jump functions (paper Table 2),
//! * `table3` binary — MOD information, complete propagation, and the
//!   intraprocedural baseline (paper Table 3),
//! * `report` binary — all three side by side with the paper's numbers,
//!   plus `--timing` (the §3.1.5 per-jump-function cost view), the
//!   scaling and observability-overhead gates, and suite traces.
//!
//! Wall-clock measurement of the pipeline, end to end and per layer,
//! lives in the repository benchmark (`perfbench/`).

use ipcp_core::{analyze, AnalysisConfig, AnalysisSession, JumpFunctionKind};
use ipcp_suite::{all_specs, generate, paper_row, program_stats, GeneratedProgram, PAPER_SIZES};
use std::fmt::Write as _;

pub mod framework;

pub use framework::{
    assert_solver_agreement, legacy_solve, solver_inputs, SolverInputs, TABLE2_GOLDEN,
    TABLE3_GOLDEN,
};

/// A generated benchmark plus its compiled IR and an open analysis
/// session, so every table column measured over the program reuses the
/// configuration-independent artifacts (call graph, MOD/REF, SSA,
/// return jump functions) instead of recomputing them per column.
pub struct PreparedProgram {
    /// The generated source.
    pub generated: GeneratedProgram,
    /// Compiled IR.
    pub ir: ipcp_ir::Program,
    session: AnalysisSession,
}

impl PreparedProgram {
    /// The program's memoized analysis session.
    pub fn session(&self) -> &AnalysisSession {
        &self.session
    }
}

/// Generates and compiles the whole suite, opening one session per
/// program.
pub fn prepare_suite() -> Vec<PreparedProgram> {
    all_specs()
        .iter()
        .map(|spec| {
            let generated = generate(spec);
            let ir = ipcp_ir::compile_to_ir(&generated.source)
                .unwrap_or_else(|e| panic!("{} does not compile: {e}", generated.name));
            let session = AnalysisSession::new(&ir);
            PreparedProgram {
                generated,
                ir,
                session,
            }
        })
        .collect()
}

/// The Table 2 configurations, in column order.
pub fn table2_configs() -> Vec<(&'static str, AnalysisConfig)> {
    let base = AnalysisConfig::default();
    vec![
        (
            "poly+rjf",
            AnalysisConfig {
                jump_function: JumpFunctionKind::Polynomial,
                ..base
            },
        ),
        (
            "pass+rjf",
            AnalysisConfig {
                jump_function: JumpFunctionKind::PassThrough,
                ..base
            },
        ),
        (
            "intra+rjf",
            AnalysisConfig {
                jump_function: JumpFunctionKind::IntraproceduralConstant,
                ..base
            },
        ),
        (
            "lit+rjf",
            AnalysisConfig {
                jump_function: JumpFunctionKind::Literal,
                ..base
            },
        ),
        (
            "poly-rjf",
            AnalysisConfig {
                jump_function: JumpFunctionKind::Polynomial,
                return_jump_functions: false,
                ..base
            },
        ),
        (
            "pass-rjf",
            AnalysisConfig {
                jump_function: JumpFunctionKind::PassThrough,
                return_jump_functions: false,
                ..base
            },
        ),
    ]
}

/// The Table 3 configurations, in column order.
pub fn table3_configs() -> Vec<(&'static str, AnalysisConfig)> {
    let base = AnalysisConfig::default();
    vec![
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
    ]
}

/// Renders Table 1: program characteristics, measured vs paper.
pub fn render_table1(suite: &[PreparedProgram]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: characteristics of program test suite (measured | paper*)\n"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>9} {:>7} {:>8} {:>8} {:>8}",
        "program", "lines", "paper*", "procs", "paper*", "mean", "median"
    );
    for p in suite {
        let stats = program_stats(&p.generated.source);
        let paper = PAPER_SIZES.iter().find(|r| r.name == p.generated.name);
        let (pl, pp) = paper.map(|r| (r.lines, r.procedures)).unwrap_or((0, 0));
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>9} {:>7} {:>8} {:>8.1} {:>8.1}",
            p.generated.name,
            stats.lines,
            pl,
            stats.procedures,
            pp,
            stats.mean_proc_lines,
            stats.median_proc_lines
        );
    }
    let _ = writeln!(
        out,
        "\n* Table 1 of the paper is partially illegible; starred figures are\n  reconstructed targets (see EXPERIMENTS.md)."
    );
    out
}

/// One measured row: substitution totals per configuration, driven
/// through the program's session so per-program artifacts are computed
/// once rather than once per column. The columns fan out over `jobs`
/// worker threads, all sharing the session's one store (the `RwLock`'d
/// [`ipcp_core::ArtifactStore`] admits concurrent readers); at one
/// worker they run inline. Results come back in column order and are
/// bit-identical at any worker count.
pub fn measure_par(
    program: &PreparedProgram,
    configs: &[(&'static str, AnalysisConfig)],
    jobs: usize,
) -> Vec<usize> {
    ipcp_core::parallel::par_map(jobs, configs, |_, (_, c)| {
        program.session.analyze(c).substitutions.total
    })
}

/// Wall-clock analysis time per configuration, in microseconds, of one
/// fresh run each — the `report --timing` view.
pub fn measure_timing(
    program: &ipcp_ir::Program,
    configs: &[(&'static str, AnalysisConfig)],
) -> Vec<u128> {
    configs
        .iter()
        .map(|(_, c)| {
            let start = std::time::Instant::now();
            let _ = analyze(program, c);
            start.elapsed().as_micros()
        })
        .collect()
}

/// Renders per-configuration analysis times over the suite — the paper's
/// §3.1.5 cost/precision tradeoff as a table.
pub fn render_timings(suite: &[PreparedProgram]) -> String {
    let configs = table2_configs();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Analysis wall-clock per jump function (µs, single run)
"
    );
    let _ = write!(out, "{:<10}", "program");
    for (name, _) in &configs {
        let _ = write!(out, " {name:>11}");
    }
    out.push('\n');
    for p in suite {
        // Fresh one-shot runs, not the shared session: per-kind costs
        // stay comparable instead of the first column paying for all.
        let times = measure_timing(&p.ir, &configs);
        let _ = write!(out, "{:<10}", p.generated.name);
        for t in times {
            let _ = write!(out, " {t:>11}");
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "
The four kinds cost nearly the same end-to-end (§3.1.5: complex
polynomial jump functions are rare in practice, so cost(J) of the
polynomial kind approaches pass-through)."
    );
    out
}

/// Renders Table 2: constants found through use of jump functions.
/// Columns are measured concurrently over `jobs` workers, sharing each
/// program's session store; the printed numbers are identical at any
/// worker count.
pub fn render_table2(suite: &[PreparedProgram], jobs: usize) -> String {
    let configs = table2_configs();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: constants found through use of jump functions"
    );
    let _ = writeln!(out, "          (each cell: measured (paper))\n");
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>12} {:>12} | {:>12} {:>12}",
        "program", "polynomial", "pass-thru", "intraproc", "literal", "poly no-RJF", "pass no-RJF"
    );
    for p in suite {
        let measured = measure_par(p, &configs, jobs);
        let paper = paper_row(&p.generated.name).expect("paper row");
        let pv = [
            paper.poly,
            paper.pass_through,
            paper.intraprocedural,
            paper.literal,
            paper.poly_no_rjf,
            paper.pass_through_no_rjf,
        ];
        let cell = |i: usize| format!("{} ({})", measured[i], pv[i]);
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>12} {:>12} {:>12} | {:>12} {:>12}",
            p.generated.name,
            cell(0),
            cell(1),
            cell(2),
            cell(3),
            cell(4),
            cell(5)
        );
    }
    out
}

/// Renders Table 3: comparison with other propagation techniques.
/// Columns fan out over `jobs` workers like [`render_table2`].
pub fn render_table3(suite: &[PreparedProgram], jobs: usize) -> String {
    let configs = table3_configs();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: most precise jump function vs other techniques"
    );
    let _ = writeln!(out, "          (each cell: measured (paper))\n");
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "program", "poly w/o MOD", "poly w/ MOD", "complete", "intraproc"
    );
    for p in suite {
        let measured = measure_par(p, &configs, jobs);
        let paper = paper_row(&p.generated.name).expect("paper row");
        let pv = [
            paper.poly_no_mod,
            paper.poly,
            paper.complete,
            paper.intraprocedural_only,
        ];
        let cell = |i: usize| format!("{} ({})", measured[i], pv[i]);
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>14} {:>14} {:>14}",
            p.generated.name,
            cell(0),
            cell(1),
            cell(2),
            cell(3)
        );
    }
    out
}
