//! Constant substitution — the study's effectiveness metric (paper §4.1,
//! "Recording the results").
//!
//! Following Metzger & Stroud, effectiveness is measured as *the number
//! of constants textually substituted into the code*: every use of a
//! named variable (formal, global, or local — compiler temporaries do not
//! correspond to source text) that the seeded intraprocedural propagation
//! proves constant counts once, in executable code only. By-reference
//! actual arguments are never substituted (replacing them with a literal
//! would break the callee's store), and call-graph-unreachable procedures
//! are not counted.
//!
//! [`apply_substitutions`] performs the same rewrite on the IR itself
//! (all constant operands, including temporaries), which the examples use
//! to emit transformed programs and the property tests use to check
//! semantic preservation.

use crate::solver::{entry_env_of, ValSets};
use ipcp_analysis::sccp::{sccp_budgeted, CallLattice, SccpConfig};
use ipcp_analysis::{Budget, CallGraph, LatticeVal};
use ipcp_ir::{Instr, Operand, Program, Terminator, VarKind};
use ipcp_ssa::{build_ssa, KillOracle, SsaInstr, SsaOperand, SsaTerminator};

/// Per-procedure and total substitution counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstitutionCounts {
    /// Substitutions per procedure (0 for unreachable procedures).
    pub per_proc: Vec<usize>,
    /// Program total.
    pub total: usize,
}

/// Counts substitutions for every procedure under the given information
/// sources (see module docs for the exact metric).
pub fn count_substitutions(
    program: &Program,
    cg: &CallGraph,
    kills: &dyn KillOracle,
    calls: &dyn CallLattice,
    vals: Option<&ValSets>,
) -> SubstitutionCounts {
    let per_proc: Vec<usize> = program
        .proc_ids()
        .map(|pid| {
            if !cg.is_reachable(pid) {
                return 0;
            }
            let ssa = build_ssa(program, program.proc(pid), kills);
            count_one_proc(program, calls, vals, pid, &ssa)
        })
        .collect();
    let total = per_proc.iter().sum();
    SubstitutionCounts { per_proc, total }
}

/// The substitution count of one reachable procedure (see the module
/// docs for the metric). A pure function of the procedure, its SSA form,
/// the call lattice and its entry constants, which is what lets the
/// session cache it per procedure.
pub(crate) fn count_one_proc(
    program: &Program,
    calls: &dyn CallLattice,
    vals: Option<&ValSets>,
    pid: ipcp_ir::ProcId,
    ssa: &ipcp_ssa::SsaProc,
) -> usize {
    let result = seeded_sccp(program, calls, vals, pid, ssa);
    let mut count = 0usize;
    for_each_counted_use(program.proc(pid), ssa, &result, &mut |_| count += 1);
    count
}

/// SCCP of one procedure seeded with its entry constants from `vals`
/// (every entry ⊥ without them): the walk the counting pass counts over.
pub(crate) fn seeded_sccp(
    program: &Program,
    calls: &dyn CallLattice,
    vals: Option<&ValSets>,
    pid: ipcp_ir::ProcId,
    ssa: &ipcp_ssa::SsaProc,
) -> ipcp_analysis::SccpResult {
    seeded_sccp_budgeted(program, calls, vals, pid, ssa, &Budget::unlimited())
}

/// [`seeded_sccp`] under a fuel budget (complete propagation's DCE step).
pub(crate) fn seeded_sccp_budgeted(
    program: &Program,
    calls: &dyn CallLattice,
    vals: Option<&ValSets>,
    pid: ipcp_ir::ProcId,
    ssa: &ipcp_ssa::SsaProc,
    budget: &Budget,
) -> ipcp_analysis::SccpResult {
    let env = vals.map(|v| entry_env_of(program, pid, v));
    let entry_env: &dyn Fn(ipcp_ir::VarId) -> LatticeVal = match &env {
        Some(env) => env,
        None => &ipcp_analysis::sccp::bottom_entry,
    };
    let config = SccpConfig { entry_env, calls };
    sccp_budgeted(program.proc(pid), ssa, &config, budget)
}

/// Visits every *counted* use of one procedure: each executable textual
/// use of a named (non-temporary) variable whose SCCP value is constant,
/// with by-reference actuals skipped. [`count_one_proc`] and the
/// provenance attribution pass share this walk, so per-level attribution
/// totals sum to the substitution count by construction.
pub(crate) fn for_each_counted_use(
    proc: &ipcp_ir::Procedure,
    ssa: &ipcp_ssa::SsaProc,
    result: &ipcp_analysis::SccpResult,
    f: &mut dyn FnMut(ipcp_ssa::SsaName),
) {
    let mut visit = |op: SsaOperand| {
        let Some(n) = op.as_name() else { return };
        if proc.var(ssa.var_of(n)).kind == VarKind::Temp {
            return;
        }
        if matches!(result.values[n.index()], LatticeVal::Const(_)) {
            f(n);
        }
    };
    for (b, blk) in ssa.rpo_blocks() {
        if !result.executable[b.index()] {
            continue;
        }
        for instr in &blk.instrs {
            match instr {
                SsaInstr::Call { args, .. } => {
                    for a in args {
                        // Only by-value actuals are textual value uses.
                        if a.by_ref_var.is_none() {
                            if let Some(op) = a.value {
                                visit(op);
                            }
                        }
                    }
                }
                other => {
                    other.for_each_use(&mut visit);
                }
            }
        }
        match &blk.term {
            SsaTerminator::Branch { cond, .. } => visit(*cond),
            SsaTerminator::Return {
                value: Some(op), ..
            } => {
                visit(*op);
            }
            _ => {}
        }
    }
}

/// Rewrites every substitutable operand (including temporaries) to its
/// constant in the IR, skipping by-reference arguments and non-executable
/// code. Returns the number of operands rewritten.
pub fn apply_substitutions(
    program: &mut Program,
    kills: &dyn KillOracle,
    calls: &dyn CallLattice,
    vals: Option<&ValSets>,
) -> usize {
    let snapshot = program.clone();
    let mut rewritten = 0usize;
    for pid in snapshot.proc_ids() {
        let ssa = build_ssa(&snapshot, snapshot.proc(pid), kills);
        let result = seeded_sccp(&snapshot, calls, vals, pid, &ssa);
        rewritten += substitute_proc(program.proc_mut(pid), &ssa, &result);
    }
    rewritten
}

/// Rewrites one procedure's substitutable operands to the constants its
/// SSA form and SCCP result prove (see [`apply_substitutions`]); `target`
/// is the procedure `ssa` was built from. Returns the number of operands
/// rewritten.
pub(crate) fn substitute_proc(
    target: &mut ipcp_ir::Procedure,
    ssa: &ipcp_ssa::SsaProc,
    result: &ipcp_analysis::SccpResult,
) -> usize {
    let mut rewritten = 0usize;
    let rewrite = |ir_op: &mut Operand, ssa_op: SsaOperand, rewritten: &mut usize| {
        if let SsaOperand::Name(n) = ssa_op {
            if let LatticeVal::Const(c) = result.values[n.index()] {
                if matches!(ir_op, Operand::Var(_)) {
                    *ir_op = Operand::Const(c);
                    *rewritten += 1;
                }
            }
        }
    };

    for (b, blk) in target.blocks.iter_mut().enumerate() {
        let Some(ssa_blk) = ssa.block(ipcp_ir::BlockId::from_index(b)) else {
            continue;
        };
        if !result.executable[b] {
            continue;
        }
        debug_assert_eq!(blk.instrs.len(), ssa_blk.instrs.len());
        for (instr, ssa_instr) in blk.instrs.iter_mut().zip(ssa_blk.instrs.iter()) {
            match (instr, ssa_instr) {
                (Instr::Copy { src, .. }, SsaInstr::Copy { src: s, .. })
                | (Instr::Unary { src, .. }, SsaInstr::Unary { src: s, .. })
                | (Instr::IntToReal { src, .. }, SsaInstr::IntToReal { src: s, .. }) => {
                    rewrite(src, *s, &mut rewritten);
                }
                (
                    Instr::Binary { lhs, rhs, .. },
                    SsaInstr::Binary {
                        lhs: sl, rhs: sr, ..
                    },
                ) => {
                    rewrite(lhs, *sl, &mut rewritten);
                    rewrite(rhs, *sr, &mut rewritten);
                }
                (Instr::Load { index, .. }, SsaInstr::Load { index: si, .. }) => {
                    rewrite(index, *si, &mut rewritten);
                }
                (
                    Instr::Store { index, value, .. },
                    SsaInstr::Store {
                        index: si,
                        value: sv,
                        ..
                    },
                ) => {
                    rewrite(index, *si, &mut rewritten);
                    rewrite(value, *sv, &mut rewritten);
                }
                (Instr::Call { args, .. }, SsaInstr::Call { args: sargs, .. }) => {
                    for (arg, sarg) in args.iter_mut().zip(sargs.iter()) {
                        if !arg.by_ref {
                            if let Some(sop) = sarg.value {
                                rewrite(&mut arg.value, sop, &mut rewritten);
                            }
                        }
                    }
                }
                (Instr::Print { value }, SsaInstr::Print { value: sv }) => {
                    rewrite(value, *sv, &mut rewritten);
                }
                _ => {}
            }
        }
        match (&mut blk.term, &ssa_blk.term) {
            (Terminator::Branch { cond, .. }, SsaTerminator::Branch { cond: sc, .. }) => {
                rewrite(cond, *sc, &mut rewritten);
            }
            (
                Terminator::Return(Some(op)),
                SsaTerminator::Return {
                    value: Some(sv), ..
                },
            ) => {
                rewrite(op, *sv, &mut rewritten);
            }
            _ => {}
        }
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_analysis::{augment_global_vars, compute_modref, ModKills, PessimisticCalls};
    use ipcp_ir::compile_to_ir;
    use ipcp_lang::interp::{InterpConfig, Value};

    /// Counts with MOD info but no interprocedural seeding.
    fn count_plain(src: &str) -> SubstitutionCounts {
        let mut program = compile_to_ir(src).expect("compiles");
        let cg = CallGraph::new(&program);
        let modref = compute_modref(&program, &cg);
        augment_global_vars(&mut program, &modref);
        let cg = CallGraph::new(&program);
        let kills = ModKills::new(&program, &modref);
        count_substitutions(&program, &cg, &kills, &PessimisticCalls, None)
    }

    #[test]
    fn straight_line_counting() {
        // Uses of x and of y after constant propagation: `y = x + 1` (x),
        // `print(y)` (y) — 2 substitutions. Literal operands don't count.
        let c = count_plain("main\nx = 5\ny = x + 1\nprint(y)\nend\n");
        assert_eq!(c.total, 2);
    }

    #[test]
    fn non_constants_not_counted() {
        let c = count_plain("main\nread(x)\ny = x + 1\nprint(y)\nend\n");
        assert_eq!(c.total, 0);
    }

    #[test]
    fn each_use_counts_once() {
        let c = count_plain("main\nx = 2\ny = x * x + x\nprint(x)\nend\n");
        // Three uses in the expression + one in print.
        assert_eq!(c.total, 4);
    }

    #[test]
    fn by_ref_args_not_counted() {
        // x is constant 5 but passed by reference — not substitutable.
        let c = count_plain("proc f(a)\na = a + 1\nend\nmain\nx = 5\ncall f(x)\nprint(9)\nend\n");
        assert_eq!(c.total, 0);
    }

    #[test]
    fn by_value_args_counted() {
        let c = count_plain("proc f(a)\nend\nmain\nx = 5\ncall f(x + 0)\nend\n");
        // The use of x inside the argument expression counts once.
        assert_eq!(c.total, 1);
    }

    #[test]
    fn unreachable_code_not_counted() {
        let c = count_plain("main\nx = 1\nif x == 0 then\ny = 2\nprint(y)\nend\nprint(x)\nend\n");
        // Only the branch condition use of x and the final print(x):
        // the `then` block is not executable.
        assert_eq!(c.total, 2);
    }

    #[test]
    fn uncalled_procs_not_counted() {
        let c = count_plain("proc dead()\nx = 1\nprint(x)\nend\nmain\nprint(2)\nend\n");
        assert_eq!(c.total, 0);
    }

    #[test]
    fn branch_and_loop_conditions_counted() {
        let src = "main\nn = 3\nif n > 0 then\nprint(n)\nend\nend\n";
        // Uses: `n > 0` (1) + print (1). The comparison's result feeds the
        // branch through a temp, which does not count.
        let c = count_plain(src);
        assert_eq!(c.total, 2);
    }

    #[test]
    fn apply_substitutions_preserves_semantics() {
        let srcs = [
            "main\nx = 5\ny = x + 1\nprint(y)\nprint(x * 2)\nend\n",
            "main\nk = 2\ns = 0\ndo i = 1, 10, k\ns = s + i\nend\nprint(s)\nend\n",
            "proc f(a)\nprint(a)\nend\nmain\nx = 3\ncall f(x)\nprint(x)\nend\n",
            "main\nread(q)\nx = 4\nif q then\nprint(x)\nelse\nprint(x + 1)\nend\nend\n",
        ];
        for src in srcs {
            let mut program = compile_to_ir(src).expect("compiles");
            let cg = CallGraph::new(&program);
            let modref = compute_modref(&program, &cg);
            augment_global_vars(&mut program, &modref);
            let _ = cg;
            let kills = ModKills::new(&program, &modref);
            let before = ipcp_ir::eval::run(
                &program,
                &InterpConfig {
                    input: vec![1],
                    ..InterpConfig::default()
                },
            )
            .expect("runs");
            let mut transformed = program.clone();
            let n = apply_substitutions(&mut transformed, &kills, &PessimisticCalls, None);
            assert!(n > 0, "{src}");
            ipcp_ir::validate::validate(&transformed).expect("still valid");
            let after = ipcp_ir::eval::run(
                &transformed,
                &InterpConfig {
                    input: vec![1],
                    ..InterpConfig::default()
                },
            )
            .expect("still runs");
            assert_eq!(before.output, after.output, "{src}");
        }
    }

    #[test]
    fn apply_skips_by_ref_args() {
        let src = "proc bump(a)\na = a + 1\nend\nmain\nx = 5\ncall bump(x)\nprint(x)\nend\n";
        let mut program = compile_to_ir(src).unwrap();
        let cg = CallGraph::new(&program);
        let modref = compute_modref(&program, &cg);
        augment_global_vars(&mut program, &modref);
        let kills = ModKills::new(&program, &modref);
        let mut transformed = program.clone();
        apply_substitutions(&mut transformed, &kills, &PessimisticCalls, None);
        let out = ipcp_ir::eval::run(&transformed, &InterpConfig::default()).unwrap();
        assert_eq!(out.output, vec![Value::Int(6)]);
    }
}
