//! The analyzer driver: the configuration that selects one column of the
//! paper's Tables 2 and 3, the outcome of a run, and the one-shot entry
//! points.
//!
//! Pipeline (paper §4.1): call graph → MOD/REF summaries → return jump
//! function generation (bottom-up) → forward jump function generation →
//! interprocedural propagation → substitution counting; with *complete
//! propagation* (Table 3, column 3) the analysis additionally runs dead
//! code elimination and, if anything died, repeats on the cleaned
//! program. [`crate::AnalysisSession`] executes the pipeline; the entry
//! points here open a one-shot session.

use crate::jump::JumpFunctionKind;
use crate::session::AnalysisSession;
use crate::subst::SubstitutionCounts;
use ipcp_analysis::{Budget, ExhaustionPolicy, RobustnessReport, Slot};
use ipcp_ir::Program;
use ipcp_lang::Diagnostics;
use std::collections::BTreeMap;

/// Which interprocedural solver formulation to run (both produce
/// identical `VAL` sets; see `crate::binding`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// The paper's simple worklist iteration over the call graph (§4.1).
    #[default]
    CallGraph,
    /// The sparse binding-multigraph formulation (§2, citing
    /// Cooper–Kennedy).
    BindingGraph,
}

/// Full analyzer configuration — one point in the study's design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Which forward jump function implementation to use (Table 2
    /// columns).
    pub jump_function: JumpFunctionKind,
    /// Whether return jump functions are generated and used (Table 2,
    /// "Using"/"No Return Jump Functions").
    pub return_jump_functions: bool,
    /// Whether interprocedural MOD information is available (Table 3,
    /// "without MOD"/"with MOD"). Without it, SSA construction assumes
    /// every call kills every by-ref actual and every global.
    pub mod_info: bool,
    /// Whether to iterate propagation with dead code elimination until
    /// nothing more dies (Table 3, "Complete Propagation").
    pub complete_propagation: bool,
    /// Whether interprocedural propagation runs at all; `false` is the
    /// purely intraprocedural baseline (Table 3, column 4 — MOD
    /// information is still honoured).
    pub interprocedural: bool,
    /// Extension beyond the paper: evaluate return jump functions at
    /// forward-generation time by full symbolic composition instead of
    /// the paper's constant-or-⊥ rule (§3.2). Off by default.
    pub rjf_full_composition: bool,
    /// Which solver formulation to use (identical results either way).
    pub solver: SolverKind,
    /// Extension beyond the paper: build gated (γ) jump functions from
    /// if-joins, the gated-single-assignment idea of §4.2. Subsumes most
    /// of what complete propagation buys, without iterating dead code
    /// elimination. Off by default.
    pub gsa: bool,
    /// Extension beyond the paper: conditional constant propagation with
    /// interprocedural branch feasibility (`--level cond`). The solver
    /// prunes call edges sitting in branches whose predicates are proven
    /// constant under the caller's entry context (SCCP executable-edge
    /// tracking lifted across calls; see [`crate::cond`]), sharpening
    /// callee contexts. Always solves over the call graph regardless of
    /// [`AnalysisConfig::solver`] (the binding-graph formulation has no
    /// per-procedure visit at which to re-decide feasibility). Off by
    /// default.
    pub branch_feasibility: bool,
    /// Worker threads for the session's parallel fan-outs (0 is treated
    /// as 1; see [`ipcp_analysis::Parallelism`]). Results are
    /// bit-identical at every setting — parallelism only changes
    /// wall-clock — so `jobs` deliberately takes no part in artifact
    /// cache keys. Metered runs (finite fuel, fault injection) ignore it
    /// and run sequentially, because the budget they meter on is not
    /// shared across threads. Defaults to the `IPCP_JOBS`
    /// environment override, else 1; the CLI defaults to every
    /// available core instead.
    pub jobs: usize,
    /// Fuel budget shared by every analysis phase; `None` is unlimited.
    /// When the tank runs dry, phases degrade along the jump-function
    /// precision ladder instead of panicking or looping (see
    /// [`ipcp_analysis::budget`]).
    pub fuel: Option<u64>,
    /// What exhaustion means for the caller: keep the degraded (sound,
    /// coarser) result, or treat it as an error.
    pub on_exhausted: ExhaustionPolicy,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            jump_function: JumpFunctionKind::Polynomial,
            return_jump_functions: true,
            mod_info: true,
            complete_propagation: false,
            interprocedural: true,
            rjf_full_composition: false,
            solver: SolverKind::CallGraph,
            gsa: false,
            branch_feasibility: false,
            jobs: ipcp_analysis::Parallelism::default_jobs(),
            fuel: None,
            on_exhausted: ExhaustionPolicy::Degrade,
        }
    }
}

impl AnalysisConfig {
    /// The paper's best practical configuration: pass-through jump
    /// functions with return jump functions and MOD information.
    pub fn pass_through() -> Self {
        AnalysisConfig {
            jump_function: JumpFunctionKind::PassThrough,
            ..Self::default()
        }
    }

    /// The purely intraprocedural baseline (Table 3, column 4).
    pub fn intraprocedural_baseline() -> Self {
        AnalysisConfig {
            interprocedural: false,
            return_jump_functions: false,
            ..Self::default()
        }
    }

    /// Conditional constant propagation (`--level cond`): polynomial
    /// jump functions plus interprocedural branch feasibility.
    pub fn conditional() -> Self {
        AnalysisConfig {
            jump_function: JumpFunctionKind::Polynomial,
            branch_feasibility: true,
            ..Self::default()
        }
    }
}

/// Aggregate cost/size statistics of one analysis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Return jump functions built (non-⊥).
    pub return_jfs: usize,
    /// Forward (site, slot) jump functions built.
    pub forward_jfs: usize,
    /// Non-⊥ forward jump functions.
    pub useful_forward_jfs: usize,
    /// Worklist pops in the interprocedural solver.
    pub solver_iterations: usize,
    /// Complete-propagation rounds that found dead code.
    pub dce_rounds: usize,
    /// Call edges pruned as infeasible by conditional propagation
    /// (always 0 unless [`AnalysisConfig::branch_feasibility`]).
    pub pruned_call_edges: usize,
}

/// Everything an analysis run produces.
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// The analyzed program (transformed when complete propagation ran).
    pub program: Program,
    /// `CONSTANTS(p)` per procedure. Empty (zero-length) for the
    /// intraprocedural baseline — no per-procedure placeholder maps are
    /// materialized; index through [`AnalysisOutcome::constants_of`].
    pub constants: Vec<BTreeMap<Slot, i64>>,
    /// Substitution counts — the study's effectiveness metric.
    pub substitutions: SubstitutionCounts,
    /// Cost statistics.
    pub stats: PhaseStats,
    /// What the fuel budget did to the run: consumption, exhaustion,
    /// per-phase degradation counts and precision-ladder steps. Clean
    /// (all-zero) for unlimited fuel.
    pub robustness: RobustnessReport,
}

/// The shared empty `CONSTANTS` set returned for baseline outcomes —
/// one static map instead of one placeholder per procedure.
static NO_CONSTANTS: BTreeMap<Slot, i64> = BTreeMap::new();

impl AnalysisOutcome {
    /// Total number of interprocedural constants across all `CONSTANTS`
    /// sets.
    pub fn constant_slot_count(&self) -> usize {
        self.constants.iter().map(BTreeMap::len).sum()
    }

    /// `CONSTANTS(p)`: the procedure's entry in [`Self::constants`], or
    /// the shared empty set when the run tracked none (intraprocedural
    /// baseline).
    pub fn constants_of(&self, p: ipcp_ir::ProcId) -> &BTreeMap<Slot, i64> {
        self.constants.get(p.index()).unwrap_or(&NO_CONSTANTS)
    }
}

/// The analysis ran out of fuel under [`ExhaustionPolicy::Error`]. The
/// degraded-but-sound outcome is included so the caller can still
/// inspect (or salvage) it.
#[derive(Debug, Clone)]
pub struct ResourceExhausted {
    /// What degraded, and by how much.
    pub report: RobustnessReport,
}

impl std::fmt::Display for ResourceExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "analysis fuel exhausted after {} units ({} degradations); \
             rerun with a larger --fuel or --on-exhausted degrade",
            self.report.fuel_consumed,
            self.report.total_degradations()
        )
    }
}

impl std::error::Error for ResourceExhausted {}

/// Runs the configured analysis on a program.
///
/// One-shot entry point: opens a throwaway [`crate::AnalysisSession`]
/// and analyzes once. Callers analyzing the same program under several
/// configurations (a Table-2/3 sweep) should hold a session themselves
/// to reuse artifacts across the runs.
pub fn analyze(program: &Program, config: &AnalysisConfig) -> AnalysisOutcome {
    AnalysisSession::new(program).analyze(config)
}

/// [`analyze`], but honoring [`AnalysisConfig::on_exhausted`]: under
/// [`ExhaustionPolicy::Error`] a run that exhausts its fuel becomes an
/// error instead of a silently coarser result.
///
/// # Errors
///
/// Returns [`ResourceExhausted`] when the budget ran dry and the policy
/// is [`ExhaustionPolicy::Error`].
pub fn analyze_checked(
    program: &Program,
    config: &AnalysisConfig,
) -> Result<AnalysisOutcome, ResourceExhausted> {
    AnalysisSession::new(program).analyze_checked(config)
}

/// Applies [`AnalysisConfig::on_exhausted`] to a finished run: under
/// [`ExhaustionPolicy::Error`] an exhausted run becomes
/// [`ResourceExhausted`].
pub(crate) fn honour_exhaustion_policy(
    config: &AnalysisConfig,
    outcome: AnalysisOutcome,
) -> Result<AnalysisOutcome, ResourceExhausted> {
    if config.on_exhausted == ExhaustionPolicy::Error && outcome.robustness.exhausted {
        return Err(ResourceExhausted {
            report: outcome.robustness,
        });
    }
    Ok(outcome)
}

/// [`analyze`] against a caller-supplied fuel source — the entry point
/// the fault-injection harness uses to fail the analysis at an exact
/// checkpoint. `config.fuel` is ignored; the budget decides.
pub fn analyze_with_budget(
    program: &Program,
    config: &AnalysisConfig,
    budget: &Budget,
) -> AnalysisOutcome {
    AnalysisSession::new(program).analyze_with_budget(config, budget)
}

/// Compiles Minifor source and runs the configured analysis.
///
/// # Errors
///
/// Returns front-end diagnostics if the source does not compile.
pub fn analyze_source(
    source: &str,
    config: &AnalysisConfig,
) -> Result<AnalysisOutcome, Diagnostics> {
    Ok(analyze(&ipcp_ir::compile_to_ir(source)?, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 2/3 configurations, by column.
    fn table2_config(kind: JumpFunctionKind, rjf: bool) -> AnalysisConfig {
        AnalysisConfig {
            jump_function: kind,
            return_jump_functions: rjf,
            ..Default::default()
        }
    }

    const OCEAN_LIKE: &str = "\
global n\nglobal m\n\
proc init()\nn = 64\nm = 32\nend\n\
proc compute(k)\nx = n\ny = m\nz = k\nprint(x + y + z)\nend\n\
main\ncall init()\ncall compute(8)\nend\n";

    #[test]
    fn default_config_finds_init_constants() {
        let out = analyze_source(OCEAN_LIKE, &AnalysisConfig::default()).unwrap();
        // compute sees n=64, m=32, k=8.
        assert!(out.constant_slot_count() >= 3, "{:?}", out.constants);
        assert!(out.substitutions.total >= 3);
        assert!(out.stats.return_jfs >= 2);
    }

    #[test]
    fn return_jfs_matter_for_init_pattern() {
        let with = analyze_source(
            OCEAN_LIKE,
            &table2_config(JumpFunctionKind::Polynomial, true),
        )
        .unwrap();
        let without = analyze_source(
            OCEAN_LIKE,
            &table2_config(JumpFunctionKind::Polynomial, false),
        )
        .unwrap();
        assert!(
            with.substitutions.total > without.substitutions.total,
            "with {} vs without {}",
            with.substitutions.total,
            without.substitutions.total
        );
    }

    const CHAIN: &str = "\
proc c(z)\nprint(z)\nend\n\
proc b(y)\ncall c(y)\nend\n\
proc a(x)\ncall b(x)\nend\n\
main\ncall a(7)\nend\n";

    #[test]
    fn jump_function_hierarchy_on_chain() {
        let mut totals = Vec::new();
        for kind in JumpFunctionKind::ALL {
            let out = analyze_source(CHAIN, &table2_config(kind, true)).unwrap();
            totals.push(out.substitutions.total);
        }
        // Non-decreasing in precision; pass-through strictly beats
        // intraprocedural here.
        assert!(totals.windows(2).all(|w| w[0] <= w[1]), "{totals:?}");
        assert!(totals[2] > totals[1], "{totals:?}");
        // Pass-through and polynomial agree (the paper's headline).
        assert_eq!(totals[2], totals[3], "{totals:?}");
    }

    const MOD_SENSITIVE: &str = "\
global g\n\
proc harmless(x)\nprint(x)\nend\n\
proc f()\ng = 5\ncall harmless(1)\nprint(g)\nend\n\
main\ncall f()\nend\n";

    #[test]
    fn mod_information_matters() {
        let with = analyze_source(
            MOD_SENSITIVE,
            &AnalysisConfig {
                mod_info: true,
                ..Default::default()
            },
        )
        .unwrap();
        let without = analyze_source(
            MOD_SENSITIVE,
            &AnalysisConfig {
                mod_info: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            with.substitutions.total > without.substitutions.total,
            "with {} vs without {}",
            with.substitutions.total,
            without.substitutions.total
        );
    }

    const DEAD_GUARD: &str = "\
proc f(debug)\n\
if debug then\n\
read(q)\nx = q\n\
else\n\
x = 3\n\
end\n\
print(x)\nend\n\
main\ncall f(0)\nend\n";

    #[test]
    fn complete_propagation_exposes_more() {
        let plain = analyze_source(DEAD_GUARD, &AnalysisConfig::default()).unwrap();
        let complete = analyze_source(
            DEAD_GUARD,
            &AnalysisConfig {
                complete_propagation: true,
                ..Default::default()
            },
        )
        .unwrap();
        // With debug = 0 the read-branch is dead; x is 3 at the print.
        assert!(complete.substitutions.total >= plain.substitutions.total);
        assert!(complete.stats.dce_rounds >= 1);
    }

    #[test]
    fn intraprocedural_baseline_finds_less() {
        let inter = analyze_source(CHAIN, &AnalysisConfig::default()).unwrap();
        let intra = analyze_source(CHAIN, &AnalysisConfig::intraprocedural_baseline()).unwrap();
        assert!(intra.substitutions.total < inter.substitutions.total);
        assert_eq!(intra.constant_slot_count(), 0);
    }

    #[test]
    fn full_composition_extension_is_at_least_as_good() {
        let src = "\
global g\n\
proc setg(v)\ng = v\nend\n\
proc f(a)\ncall setg(a)\ncall useg()\nend\n\
proc useg()\nprint(g)\nend\n\
main\ncall f(5)\nend\n";
        let paper = analyze_source(src, &AnalysisConfig::default()).unwrap();
        let ext = analyze_source(
            src,
            &AnalysisConfig {
                rjf_full_composition: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(ext.substitutions.total >= paper.substitutions.total);
        // Composition tracks g = a through f's body; the paper rule cannot.
        assert!(
            ext.constant_slot_count() > paper.constant_slot_count(),
            "ext {:?} vs paper {:?}",
            ext.constants,
            paper.constants
        );
    }

    #[test]
    fn analyze_source_reports_errors() {
        assert!(analyze_source("main\n", &AnalysisConfig::default()).is_err());
    }

    #[test]
    fn outcome_program_still_validates() {
        let out = analyze_source(
            DEAD_GUARD,
            &AnalysisConfig {
                complete_propagation: true,
                ..Default::default()
            },
        )
        .unwrap();
        ipcp_ir::validate::validate(&out.program).expect("transformed program validates");
    }

    #[test]
    fn pass_through_constructor() {
        let c = AnalysisConfig::pass_through();
        assert_eq!(c.jump_function, JumpFunctionKind::PassThrough);
        assert!(c.return_jump_functions && c.mod_info && c.interprocedural);
    }
}
