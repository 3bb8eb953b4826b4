//! # ipcp-lang — the Minifor front end
//!
//! Minifor is a small FORTRAN-77-flavoured imperative language built as the
//! substrate for reproducing *"Interprocedural Constant Propagation: A Study
//! of Jump Function Implementations"* (Grove & Torczon, PLDI 1993). It keeps
//! exactly the features that matter to the paper's analysis — by-reference
//! parameters, `COMMON`-style globals, integer and real scalars and arrays,
//! structured control flow, and I/O — and nothing else.
//!
//! The crate provides:
//!
//! * [`lexer`] / [`parser`] — source text → [`ast::Program`],
//! * [`symbol`] — interned identifiers: every name in a parsed program
//!   is a [`Symbol`] of that program's own [`symbol::Interner`],
//! * [`typeck`] — name resolution, implicit FORTRAN-style integer locals,
//!   and type checking, producing a [`typeck::CheckedProgram`],
//! * [`pretty`] — AST → parseable source text,
//! * [`interp`] — a reference interpreter defining observable semantics,
//! * [`diag`] / [`span`] — diagnostics with line/column rendering.
//!
//! ## Quick start
//!
//! ```
//! use ipcp_lang::{compile, interp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = "
//! func double(x)
//!   return x * 2
//! end
//! main
//!   print(double(21))
//! end
//! ";
//! let checked = compile(source)?;
//! let out = interp::run(&checked, &interp::InterpConfig::default())?;
//! assert_eq!(out.output, vec![interp::Value::Int(42)]);
//! # Ok(())
//! # }
//! ```
//!
//! ## Aliasing restriction
//!
//! Like FORTRAN 77, Minifor programs must not create aliases between
//! by-reference formals, or between a formal and a global: do not pass the
//! same variable twice to one call, and do not pass a global to a procedure
//! that also accesses that global directly. The analyses in the sibling
//! crates assume this (standard FORTRAN) restriction; the
//! `ipcp-analysis` crate offers a conservative alias lint for checking it.

pub mod ast;
pub mod diag;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod symbol;
pub mod token;
pub mod typeck;

pub use ast::Program;
pub use diag::{Diagnostic, Diagnostics};
pub use span::Span;
pub use symbol::Symbol;
pub use typeck::CheckedProgram;

/// Parses and type-checks Minifor source in one step.
///
/// # Errors
///
/// Returns lexical, parse, or semantic diagnostics.
pub fn compile(source: &str) -> Result<CheckedProgram, Diagnostics> {
    typeck::check(parser::parse(source)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_pipeline() {
        let checked = compile("main\nx = 1\nend\n").expect("compiles");
        assert_eq!(checked.program.procs.len(), 1);
    }

    #[test]
    fn compile_reports_parse_errors() {
        assert!(compile("main\n").is_err());
    }

    #[test]
    fn compile_reports_check_errors() {
        assert!(compile("main\ncall missing()\nend\n").is_err());
    }
}
