//! # ipcp — interprocedural constant propagation with jump functions
//!
//! A from-scratch reproduction of *"Interprocedural Constant Propagation:
//! A Study of Jump Function Implementations"* (Grove & Torczon,
//! PLDI 1993), including every substrate the study needed:
//!
//! | crate | role |
//! |---|---|
//! | [`lang`] | Minifor, a FORTRAN-77-flavoured mini language (front end + reference interpreter) |
//! | [`ir`] | three-address CFG IR, lowering, validation, evaluation |
//! | [`ssa`] | dominators, dominance frontiers, SSA construction with pluggable call-kill oracles |
//! | [`analysis`] | call graph, MOD/REF summaries, polynomials, symbolic value numbering, SCCP, DCE |
//! | [`core`] | the paper's contribution: four forward jump functions, return jump functions, the interprocedural solver, substitution counting, the configurable driver |
//! | [`suite`] | the twelve synthetic SPEC/PERFECT-style benchmark programs |
//!
//! The `ipcp-bench` crate regenerates the paper's Tables 1–3 (binaries
//! `table1`/`table2`/`table3`/`report`); `report --timing` prints the
//! §3.1.5 per-jump-function cost view.
//!
//! ## Quick start
//!
//! ```
//! use ipcp::core::{analyze_source, AnalysisConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let outcome = analyze_source(
//!     "global n\n\
//!      proc init()\n  n = 64\nend\n\
//!      proc kernel(k)\n  print(n + k)\nend\n\
//!      main\n  call init()\n  call kernel(8)\nend\n",
//!     &AnalysisConfig::default(),
//! )?;
//! assert_eq!(outcome.constant_slot_count(), 2); // kernel: k = 8, n = 64
//! # Ok(())
//! # }
//! ```

pub mod cli;

/// The Minifor front end (re-export of `ipcp-lang`).
pub use ipcp_lang as lang;

/// The mid-level IR (re-export of `ipcp-ir`).
pub use ipcp_ir as ir;

/// SSA construction (re-export of `ipcp-ssa`).
pub use ipcp_ssa as ssa;

/// Supporting analyses (re-export of `ipcp-analysis`).
pub use ipcp_analysis as analysis;

/// Interprocedural constant propagation (re-export of `ipcp-core`).
pub use ipcp_core as core;

/// The synthetic benchmark suite (re-export of `ipcp-suite`).
pub use ipcp_suite as suite;

pub use ipcp_core::{analyze, analyze_source, AnalysisConfig, AnalysisOutcome, JumpFunctionKind};
