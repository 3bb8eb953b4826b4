//! # ipcp-core — interprocedural constant propagation with jump functions
//!
//! A faithful implementation of the system studied in *"Interprocedural
//! Constant Propagation: A Study of Jump Function Implementations"*
//! (Grove & Torczon, PLDI 1993), in the Callahan–Cooper–Kennedy–Torczon
//! framework:
//!
//! * the three-level constant lattice (re-exported from
//!   [`ipcp_analysis::lattice`]; the paper's Figure 1),
//! * the four **forward jump functions** — literal, intraprocedural
//!   constant, pass-through parameter, polynomial parameter ([`jump`],
//!   [`forward`]),
//! * the polynomial **return jump function**, generated bottom-up over
//!   the call graph ([`retjf`]),
//! * the interprocedural **worklist solver** over `VAL` sets ([`solver`]),
//! * **substitution counting** — the study's effectiveness metric
//!   ([`subst`]),
//! * a configurable [`driver`] covering every Table 2/3 column, including
//!   MOD on/off, return jump functions on/off, complete propagation
//!   (iterated with dead code elimination), and the purely
//!   intraprocedural baseline.
//!
//! ```
//! use ipcp_core::{analyze_source, AnalysisConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = "
//! global n
//! proc init()
//!   n = 64
//! end
//! proc compute(k)
//!   print(n + k)
//! end
//! main
//!   call init()
//!   call compute(8)
//! end
//! ";
//! let outcome = analyze_source(source, &AnalysisConfig::default())?;
//! // `compute` learns both its formal k = 8 and the global n = 64.
//! assert_eq!(outcome.constant_slot_count(), 2);
//! # Ok(())
//! # }
//! ```

pub mod audit;
pub mod binding;
pub mod cloning;
pub mod cond;
pub mod dependence;
pub mod diskcache;
pub mod driver;
pub mod forward;
pub mod framework;
pub mod jump;
pub mod optimize;
pub mod pack;
pub mod parallel;
pub mod provenance;
pub mod report;
pub mod retjf;
pub mod serve;
pub mod session;
pub mod solver;
pub mod source_transform;
pub mod subst;

/// The constant-propagation lattice (the paper's Figure 1).
pub mod lattice {
    pub use ipcp_analysis::lattice::LatticeVal;
}

/// The structured-observability layer (re-exported from [`ipcp_obs`]):
/// sinks, the in-memory trace recorder, Chrome trace-event export, and
/// Prometheus-style metrics exposition.
pub mod obs {
    pub use ipcp_obs::*;
}

pub use audit::{IncrementalAudit, Ledger, MissReason, PhaseAudit, RunRecord};
pub use binding::{solve_binding, solve_binding_budgeted};
pub use cloning::{apply_cloning, clone_report, cloning_opportunities, CloneOpportunity};
pub use cond::{solve_cond, solve_cond_budgeted, solve_cond_traced};
pub use dependence::subscript_counts;
pub use diskcache::{
    outcome_key, pack_key, CacheIo, CacheStats, DiskCache, FaultyIo, LoadMiss, RealIo,
    VerifyOutcome,
};
pub use driver::{
    analyze, analyze_checked, analyze_source, analyze_with_budget, AnalysisConfig, AnalysisOutcome,
    PhaseStats, ResourceExhausted, SolverKind,
};
pub use forward::{
    build_forward_jfs, build_forward_jfs_budgeted, build_forward_jfs_with, build_literal_jfs_fast,
    ForwardJumpFns, SiteJumpFns,
};
pub use framework::{
    run_budgeted_pass, solve_value_contexts, BudgetedProcPass, DataflowProblem, EdgeSink,
    EngineOutcome, Rung,
};
pub use ipcp_analysis::{
    Budget, ExhaustionPolicy, FaultInjector, FuelSource, IoFaultInjector, IoFaultKind, IoOp,
    LatticeVal, Phase, RobustnessReport, Slot,
};
pub use jump::{arena_high_water, JumpFn, JumpFunctionKind};
pub use optimize::{optimize, OptimizeConfig, OptimizeStats};
pub use parallel::{effective_jobs, Parallelism};
pub use provenance::{
    analyze_provenance, Attribution, JustifyingEdge, Provenance, RjfRecovery, SlotProvenance,
};
pub use retjf::{
    build_return_jfs, build_return_jfs_budgeted, build_return_jfs_with, ReturnJumpFns, RjfComposer,
    RjfConstEval, RjfLattice,
};
pub use serve::{ServeConfig, ServeHandle, ServeSummary};
pub use session::{AnalysisSession, ArtifactStore, PhaseCounter, SessionPhase, SessionStats};
pub use solver::{solve, solve_budgeted, ValSets};
pub use source_transform::{transform_source, TransformedSource};
pub use subst::{apply_substitutions, count_substitutions, SubstitutionCounts};
