//! Source-to-source constant substitution (paper §4.1, "Recording the
//! results": "the analyzer can produce a transformed version of the
//! original source in which the interprocedural constants are textually
//! substituted into the code").
//!
//! Textual substitution is position-independent, so a variable may only
//! be replaced by a literal when it holds that constant at *every* use in
//! the procedure. The analyzer computes, per procedure and variable, the
//! meet of every SSA version's lattice value under the seeded
//! interprocedural facts; a uniform constant licenses replacing every
//! (non-assigned, non-by-reference) occurrence in the AST.

use crate::driver::AnalysisConfig;
use crate::retjf::{build_return_jfs_with, ReturnJumpFns, RjfConstEval, RjfLattice};
use crate::solver::{entry_env_of, solve};
use ipcp_analysis::sccp::{sccp, CallLattice, PessimisticCalls, SccpConfig};
use ipcp_analysis::symeval::SymEvalOptions;
use ipcp_analysis::{augment_global_vars, compute_modref, CallGraph, LatticeVal, ModKills};
use ipcp_ir::VarKind;
use ipcp_lang::ast::{Expr, ExprKind, LValueKind, Proc, Stmt, StmtKind, Symbol};
use ipcp_lang::{pretty, Diagnostics, Span};
use ipcp_ssa::{build_ssa, KillOracle, WorstCaseKills};
use std::collections::HashMap;

/// Result of a source-level transformation.
#[derive(Debug, Clone)]
pub struct TransformedSource {
    /// The transformed Minifor source text.
    pub source: String,
    /// Number of variable occurrences replaced by literals.
    pub substitutions: usize,
}

/// Produces a transformed version of `source` with every uniformly
/// constant variable occurrence replaced by its literal value.
///
/// # Errors
///
/// Returns front-end diagnostics when `source` does not compile.
pub fn transform_source(
    source: &str,
    config: &AnalysisConfig,
) -> Result<TransformedSource, Diagnostics> {
    let checked = ipcp_lang::compile(source)?;
    let mut program = ipcp_ir::lower::lower(&checked);

    // ---- analysis (mirrors the driver) -----------------------------------
    let cg = CallGraph::new(&program);
    let modref = compute_modref(&program, &cg);
    augment_global_vars(&mut program, &modref);
    let cg = CallGraph::new(&program);
    let sym_options = SymEvalOptions {
        gated_phis: config.gsa,
    };
    let mod_kills;
    let kills: &dyn KillOracle = if config.mod_info {
        mod_kills = ModKills::new(&program, &modref);
        &mod_kills
    } else {
        &WorstCaseKills
    };
    let rjfs = if config.return_jump_functions {
        build_return_jfs_with(&program, &cg, kills, sym_options)
    } else {
        ReturnJumpFns::empty(program.procs.len())
    };
    let rjf_recovery = config.return_jump_functions && config.mod_info;
    let const_eval = RjfConstEval { rjfs: &rjfs };
    let vals = if config.interprocedural {
        let call_sym: &dyn ipcp_analysis::symeval::CallSymbolics = if rjf_recovery {
            &const_eval
        } else {
            &ipcp_analysis::NoCallSymbolics
        };
        let jfs = crate::forward::build_forward_jfs_with(
            &program,
            &cg,
            &modref,
            config.jump_function,
            kills,
            call_sym,
            sym_options,
        );
        Some(solve(&program, &cg, &modref, &jfs))
    } else {
        None
    };
    let rjf_lattice = RjfLattice { rjfs: &rjfs };
    let calls: &dyn CallLattice = if rjf_recovery {
        &rjf_lattice
    } else {
        &PessimisticCalls
    };

    // ---- per-procedure uniform constants ----------------------------------
    // uniform[proc name][var name] = c when every SSA version of the
    // variable is the same constant (⊤ versions in unreached code ignored).
    let mut uniform: HashMap<String, HashMap<Symbol, i64>> = HashMap::new();
    let names = &checked.program.names;
    for pid in program.proc_ids() {
        if !cg.is_reachable(pid) {
            continue;
        }
        let proc = program.proc(pid);
        let ssa = build_ssa(&program, proc, kills);
        let bottom = ipcp_analysis::sccp::bottom_entry;
        let result = match vals.as_ref() {
            Some(v) => {
                let env = entry_env_of(&program, pid, v);
                sccp(
                    proc,
                    &ssa,
                    &SccpConfig {
                        entry_env: &env,
                        calls,
                    },
                )
            }
            None => sccp(
                proc,
                &ssa,
                &SccpConfig {
                    entry_env: &bottom,
                    calls,
                },
            ),
        };

        let mut per_var: HashMap<ipcp_ir::VarId, LatticeVal> = HashMap::new();
        for (i, def) in ssa.defs.iter().enumerate() {
            let decl = proc.var(def.var);
            if decl.kind == VarKind::Temp || decl.ty != ipcp_lang::ast::Ty::INT {
                continue;
            }
            let v = result.values[i];
            per_var
                .entry(def.var)
                .and_modify(|acc| *acc = acc.meet(v))
                .or_insert(v);
        }
        // Every non-temporary IR variable carries a source name.
        let map: HashMap<Symbol, i64> = per_var
            .into_iter()
            .filter_map(|(var, v)| Some((names.get(&proc.var(var).name)?, v.as_const()?)))
            .collect();
        uniform.insert(proc.name.clone(), map);
    }

    // ---- AST rewrite -------------------------------------------------------
    let mut ast = checked.program.clone();
    let mut substitutions = 0usize;
    let empty = HashMap::new();
    for proc in &mut ast.procs {
        let consts = uniform.get(&ast.names[proc.name]).unwrap_or(&empty);
        rewrite_proc(proc, consts, &mut substitutions);
    }

    Ok(TransformedSource {
        source: pretty::program_to_string(&ast),
        substitutions,
    })
}

fn rewrite_proc(proc: &mut Proc, consts: &HashMap<Symbol, i64>, count: &mut usize) {
    for stmt in &mut proc.body {
        rewrite_stmt(stmt, consts, count);
    }
}

fn rewrite_stmt(stmt: &mut Stmt, consts: &HashMap<Symbol, i64>, count: &mut usize) {
    match &mut stmt.kind {
        StmtKind::Assign { target, value } => {
            if let LValueKind::Element(_, idx) = &mut target.kind {
                rewrite_expr(idx, consts, count);
            }
            rewrite_expr(value, consts, count);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            rewrite_expr(cond, consts, count);
            for s in then_blk.iter_mut().chain(else_blk.iter_mut()) {
                rewrite_stmt(s, consts, count);
            }
        }
        StmtKind::While { cond, body } => {
            rewrite_expr(cond, consts, count);
            for s in body {
                rewrite_stmt(s, consts, count);
            }
        }
        StmtKind::Do {
            from,
            to,
            step,
            body,
            ..
        } => {
            rewrite_expr(from, consts, count);
            rewrite_expr(to, consts, count);
            if let Some(step) = step {
                rewrite_expr(step, consts, count);
            }
            for s in body {
                rewrite_stmt(s, consts, count);
            }
        }
        StmtKind::Call { args, .. } => {
            for arg in args {
                rewrite_arg(arg, consts, count);
            }
        }
        StmtKind::Return { value } => {
            if let Some(v) = value {
                rewrite_expr(v, consts, count);
            }
        }
        StmtKind::Read { target } => {
            if let LValueKind::Element(_, idx) = &mut target.kind {
                rewrite_expr(idx, consts, count);
            }
        }
        StmtKind::Print { value } => rewrite_expr(value, consts, count),
    }
}

/// Call arguments: a bare name may be bound by reference, so it is left
/// alone; everything inside a larger expression is fair game.
fn rewrite_arg(arg: &mut Expr, consts: &HashMap<Symbol, i64>, count: &mut usize) {
    if matches!(arg.kind, ExprKind::Name(_)) {
        return;
    }
    rewrite_expr(arg, consts, count);
}

fn rewrite_expr(expr: &mut Expr, consts: &HashMap<Symbol, i64>, count: &mut usize) {
    match &mut expr.kind {
        ExprKind::Name(name) => {
            if let Some(&c) = consts.get(name) {
                expr.kind = ExprKind::IntLit(c);
                expr.span = Span::default();
                *count += 1;
            }
        }
        ExprKind::Index(_, idx) => rewrite_expr(idx, consts, count),
        ExprKind::CallFn(_, args) => {
            for a in args {
                rewrite_arg(a, consts, count);
            }
        }
        ExprKind::NameArgs(_, args) => {
            for a in args {
                rewrite_arg(a, consts, count);
            }
        }
        ExprKind::Unary(_, inner) => rewrite_expr(inner, consts, count),
        ExprKind::Binary(_, lhs, rhs) => {
            rewrite_expr(lhs, consts, count);
            rewrite_expr(rhs, consts, count);
        }
        ExprKind::IntLit(_) | ExprKind::RealLit(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_lang::interp::{InterpConfig, Value};

    fn run_source(src: &str, input: Vec<i64>) -> Vec<Value> {
        let checked = ipcp_lang::compile(src).expect("compiles");
        let cfg = InterpConfig {
            input,
            ..InterpConfig::default()
        };
        ipcp_lang::interp::run(&checked, &cfg).expect("runs").output
    }

    const SRC: &str = "\
global n\n\
proc init()\n  n = 64\nend\n\
proc kernel(k)\n  print(n + k)\n  print(n * 2)\nend\n\
main\n  call init()\n  call kernel(8)\nend\n";

    #[test]
    fn substitutes_uniform_constants_into_source() {
        let out = transform_source(SRC, &AnalysisConfig::default()).unwrap();
        // kernel's n and k are uniformly constant; occurrences replaced.
        assert!(out.source.contains("print(64 + 8)"), "{}", out.source);
        assert!(out.source.contains("print(64 * 2)"), "{}", out.source);
        assert_eq!(out.substitutions, 3);
        // The transformed source still compiles and behaves identically.
        assert_eq!(run_source(&out.source, vec![]), run_source(SRC, vec![]));
    }

    #[test]
    fn reassigned_variables_are_not_substituted() {
        let src = "main\n  x = 5\n  print(x)\n  read(x)\n  print(x)\nend\n";
        let out = transform_source(src, &AnalysisConfig::default()).unwrap();
        // x is 5 at the first print but unknown at the second: textual
        // substitution must leave both alone.
        assert_eq!(out.substitutions, 0, "{}", out.source);
        assert_eq!(run_source(&out.source, vec![9]), run_source(src, vec![9]));
    }

    #[test]
    fn by_ref_arguments_are_preserved() {
        let src =
            "proc bump(a)\n  a = a + 1\nend\nmain\n  x = 5\n  call bump(x)\n  print(x)\nend\n";
        let out = transform_source(src, &AnalysisConfig::default()).unwrap();
        assert!(out.source.contains("call bump(x)"), "{}", out.source);
        assert_eq!(run_source(&out.source, vec![]), vec![Value::Int(6)]);
    }

    #[test]
    fn loop_bounds_become_literals() {
        let src = "\
global size\n\
proc setup()\n  size = 16\nend\n\
proc work()\n  s = 0\n  do i = 1, size\n    s = s + i\n  end\n  print(s)\nend\n\
main\n  call setup()\n  call work()\nend\n";
        let out = transform_source(src, &AnalysisConfig::default()).unwrap();
        assert!(out.source.contains("do i = 1, 16"), "{}", out.source);
        assert_eq!(run_source(&out.source, vec![]), run_source(src, vec![]));
    }

    #[test]
    fn configuration_matters() {
        // Without return jump functions the init-routine constant is lost.
        let with = transform_source(SRC, &AnalysisConfig::default()).unwrap();
        let without = transform_source(
            SRC,
            &AnalysisConfig {
                return_jump_functions: false,
                ..AnalysisConfig::default()
            },
        )
        .unwrap();
        assert!(with.substitutions > without.substitutions);
    }

    #[test]
    fn compile_errors_propagate() {
        assert!(transform_source("main\ncall nope()\nend\n", &AnalysisConfig::default()).is_err());
    }

    #[test]
    fn transformed_source_round_trips() {
        let out = transform_source(SRC, &AnalysisConfig::default()).unwrap();
        let reparsed = ipcp_lang::parser::parse(&out.source).expect("reparses");
        assert_eq!(pretty::program_to_string(&reparsed), out.source);
    }
}
