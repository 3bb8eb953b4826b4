//! Lowering from the checked AST to the IR.
//!
//! Key correspondences with the AST semantics (see `ipcp_lang::ast`):
//!
//! * `do` loops freeze their bound and step into temporaries (evaluated
//!   once, in source order `from`, `to`, `step`), then lower to a
//!   `while`-shaped CFG; a zero step reaches a [`Terminator::Trap`].
//!   When the step is a literal the direction test is lowered directly;
//!   otherwise a composite sign-dependent condition is built.
//! * Only bare variable names whose type matches the formal exactly are
//!   passed by reference; all other actuals are by value (with an
//!   [`Instr::IntToReal`] conversion when a real formal receives an
//!   integer).
//! * Statements after a `return` in the same block land in an unreachable
//!   block that still gets a valid terminator.

use crate::ids::{GlobalId, ProcId, VarId};
use crate::instr::{CallArg, Instr, Operand, Terminator, TrapKind};
use crate::procedure::{Block, Procedure, VarDecl, VarKind};
use crate::program::{GlobalVar, Program};
use ipcp_lang::ast::{
    self, Base, BinOp, Expr, ExprKind, LValueKind, ProcKind, Stmt, StmtKind, Ty, UnOp,
};
use ipcp_lang::typeck::{CheckedProgram, ProcInfo, VarOrigin};
use std::collections::HashMap;

/// Lowers a checked program to IR.
///
/// # Panics
///
/// Panics on malformed input that the type checker is guaranteed to
/// reject; feeding an unchecked AST through this function is a bug.
pub fn lower(checked: &CheckedProgram) -> Program {
    let globals: Vec<GlobalVar> = checked
        .program
        .globals
        .iter()
        .map(|g| GlobalVar {
            name: g.name.clone(),
            ty: g.ty,
            init: g.init,
        })
        .collect();

    let proc_ids: HashMap<&str, ProcId> = checked
        .program
        .procs
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), ProcId::from_index(i)))
        .collect();

    let mut procs = Vec::with_capacity(checked.program.procs.len());
    for (idx, ast_proc) in checked.program.procs.iter().enumerate() {
        let info = &checked.proc_info[idx];
        procs.push(lower_proc(checked, ast_proc, info, &proc_ids));
    }

    let main = checked
        .program
        .procs
        .iter()
        .position(|p| p.kind == ProcKind::Main)
        .map(ProcId::from_index)
        .expect("checked program has main");

    Program {
        globals,
        procs,
        main,
    }
}

fn lower_proc(
    checked: &CheckedProgram,
    ast_proc: &ast::Proc,
    info: &ProcInfo,
    proc_ids: &HashMap<&str, ProcId>,
) -> Procedure {
    let mut proc = Procedure::new(ast_proc.name.clone(), ast_proc.kind);
    proc.num_formals = ast_proc.params.len() as u32;
    for var in &info.vars {
        let kind = match var.origin {
            VarOrigin::Param(i) => VarKind::Formal(i),
            VarOrigin::Global(g) => VarKind::Global(GlobalId(g)),
            VarOrigin::Local => VarKind::Local,
        };
        proc.add_var(VarDecl {
            name: var.name.clone(),
            ty: var.ty,
            kind,
        });
    }

    let mut lowerer = Lowerer {
        checked,
        info,
        proc_ids,
        proc,
        current: crate::ids::ENTRY_BLOCK,
    };
    lowerer.lower_body(&ast_proc.body);

    // Implicit return at the end of the body.
    let ret = match ast_proc.kind {
        ProcKind::Function => Terminator::Return(Some(Operand::Const(0))),
        _ => Terminator::Return(None),
    };
    lowerer.set_term(ret);
    lowerer.proc
}

struct Lowerer<'a> {
    checked: &'a CheckedProgram,
    info: &'a ProcInfo,
    proc_ids: &'a HashMap<&'a str, ProcId>,
    proc: Procedure,
    current: crate::ids::BlockId,
}

impl Lowerer<'_> {
    // ---- plumbing ------------------------------------------------------

    fn emit(&mut self, instr: Instr) {
        self.proc.block_mut(self.current).instrs.push(instr);
    }

    fn new_block(&mut self) -> crate::ids::BlockId {
        self.proc.add_block(Block::new(Terminator::Return(None)))
    }

    fn set_term(&mut self, term: Terminator) {
        self.proc.block_mut(self.current).term = term;
    }

    fn new_temp(&mut self, base: Base) -> VarId {
        let n = self.proc.vars.len();
        self.proc.add_var(VarDecl {
            name: format!("%t{n}"),
            ty: Ty {
                base,
                shape: ast::Shape::Scalar,
            },
            kind: VarKind::Temp,
        })
    }

    /// Variable id for a resolved name (same index as the checked symbol
    /// table).
    fn var_of(&self, name: &str) -> VarId {
        VarId::from_index(
            *self
                .info
                .by_name
                .get(name)
                .unwrap_or_else(|| panic!("unresolved variable `{name}`")),
        )
    }

    fn var_base(&self, v: VarId) -> Base {
        self.proc.var(v).ty.base
    }

    /// Converts an integer-typed operand to a real-typed one.
    fn coerce_real(&mut self, op: Operand) -> Operand {
        match op {
            Operand::Const(c) => Operand::RealConst(c as f64),
            Operand::RealConst(_) => op,
            Operand::Var(v) => {
                if self.var_base(v) == Base::Real {
                    op
                } else {
                    let t = self.new_temp(Base::Real);
                    self.emit(Instr::IntToReal { dst: t, src: op });
                    Operand::Var(t)
                }
            }
        }
    }

    fn operand_base(&self, op: Operand) -> Base {
        match op {
            Operand::Const(_) => Base::Int,
            Operand::RealConst(_) => Base::Real,
            Operand::Var(v) => self.var_base(v),
        }
    }

    // ---- statements ----------------------------------------------------

    fn lower_body(&mut self, body: &[Stmt]) {
        for stmt in body {
            self.lower_stmt(stmt);
        }
    }

    fn lower_stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Assign { target, value } => match &target.kind {
                LValueKind::Scalar(name) => {
                    let dst = self.var_of(name);
                    self.lower_expr_into(dst, value);
                }
                LValueKind::Element(name, idx) => {
                    let arr = self.var_of(name);
                    let index = self.lower_expr(idx);
                    let mut v = self.lower_expr(value);
                    if self.var_base(arr) == Base::Real {
                        v = self.coerce_real(v);
                    }
                    self.emit(Instr::Store {
                        arr,
                        index,
                        value: v,
                    });
                }
            },
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.lower_expr(cond);
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.set_term(Terminator::Branch {
                    cond: c,
                    then_bb,
                    else_bb,
                });

                self.current = then_bb;
                self.lower_body(then_blk);
                self.set_term(Terminator::Jump(join));

                self.current = else_bb;
                self.lower_body(else_blk);
                self.set_term(Terminator::Jump(join));

                self.current = join;
            }
            StmtKind::While { cond, body } => {
                let header = self.new_block();
                self.set_term(Terminator::Jump(header));

                self.current = header;
                let c = self.lower_expr(cond);
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.set_term(Terminator::Branch {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit,
                });

                self.current = body_bb;
                self.lower_body(body);
                self.set_term(Terminator::Jump(header));

                self.current = exit;
            }
            StmtKind::Do {
                var,
                from,
                to,
                step,
                body,
            } => {
                self.lower_do(var, from, to, step.as_ref(), body);
            }
            StmtKind::Call { name, args } => {
                self.lower_call(name, args, None);
            }
            StmtKind::Return { value } => {
                let term = match value {
                    Some(e) => {
                        let op = self.lower_expr(e);
                        Terminator::Return(Some(op))
                    }
                    None => Terminator::Return(None),
                };
                self.set_term(term);
                // Anything following in this statement list is unreachable;
                // give it a fresh block so lowering can continue.
                self.current = self.new_block();
            }
            StmtKind::Read { target } => match &target.kind {
                LValueKind::Scalar(name) => {
                    let dst = self.var_of(name);
                    self.emit(Instr::Read { dst });
                }
                LValueKind::Element(name, idx) => {
                    let arr = self.var_of(name);
                    let index = self.lower_expr(idx);
                    let t = self.new_temp(self.var_base(arr));
                    self.emit(Instr::Read { dst: t });
                    self.emit(Instr::Store {
                        arr,
                        index,
                        value: Operand::Var(t),
                    });
                }
            },
            StmtKind::Print { value } => {
                let v = self.lower_expr(value);
                self.emit(Instr::Print { value: v });
            }
        }
    }

    /// Freezes an operand that may change during the loop into a
    /// temporary; constants and single-assignment temporaries pass through.
    fn freeze(&mut self, op: Operand) -> Operand {
        match op {
            Operand::Var(v) if self.proc.var(v).kind != VarKind::Temp => {
                let t = self.new_temp(self.var_base(v));
                self.emit(Instr::Copy { dst: t, src: op });
                Operand::Var(t)
            }
            _ => op,
        }
    }

    fn lower_do(&mut self, var: &str, from: &Expr, to: &Expr, step: Option<&Expr>, body: &[Stmt]) {
        let v = self.var_of(var);
        // Evaluate in source order, then initialize the loop variable.
        let from_op = {
            let op = self.lower_expr(from);
            self.freeze(op)
        };
        let to_op = {
            let op = self.lower_expr(to);
            self.freeze(op)
        };
        let step_op = match step {
            Some(e) => {
                let op = self.lower_expr(e);
                self.freeze(op)
            }
            None => Operand::Const(1),
        };
        self.emit(Instr::Copy {
            dst: v,
            src: from_op,
        });

        // Zero-step check.
        let const_step = step_op.as_const();
        if const_step == Some(0) {
            self.set_term(Terminator::Trap(TrapKind::ZeroStep));
            self.current = self.new_block();
            return;
        }
        if const_step.is_none() {
            let is_zero = self.new_temp(Base::Int);
            self.emit(Instr::Binary {
                dst: is_zero,
                op: BinOp::Eq,
                lhs: step_op,
                rhs: Operand::Const(0),
            });
            let trap_bb = self.new_block();
            let cont = self.new_block();
            self.set_term(Terminator::Branch {
                cond: Operand::Var(is_zero),
                then_bb: trap_bb,
                else_bb: cont,
            });
            self.proc.block_mut(trap_bb).term = Terminator::Trap(TrapKind::ZeroStep);
            self.current = cont;
        }

        let header = self.new_block();
        self.set_term(Terminator::Jump(header));
        self.current = header;

        // Continuation condition.
        let cond = match const_step {
            Some(c) if c > 0 => {
                let t = self.new_temp(Base::Int);
                self.emit(Instr::Binary {
                    dst: t,
                    op: BinOp::Le,
                    lhs: Operand::Var(v),
                    rhs: to_op,
                });
                Operand::Var(t)
            }
            Some(_) => {
                let t = self.new_temp(Base::Int);
                self.emit(Instr::Binary {
                    dst: t,
                    op: BinOp::Ge,
                    lhs: Operand::Var(v),
                    rhs: to_op,
                });
                Operand::Var(t)
            }
            None => {
                // (step > 0 and v <= to) or (step < 0 and v >= to)
                let pos = self.new_temp(Base::Int);
                self.emit(Instr::Binary {
                    dst: pos,
                    op: BinOp::Gt,
                    lhs: step_op,
                    rhs: Operand::Const(0),
                });
                let le = self.new_temp(Base::Int);
                self.emit(Instr::Binary {
                    dst: le,
                    op: BinOp::Le,
                    lhs: Operand::Var(v),
                    rhs: to_op,
                });
                let up = self.new_temp(Base::Int);
                self.emit(Instr::Binary {
                    dst: up,
                    op: BinOp::And,
                    lhs: Operand::Var(pos),
                    rhs: Operand::Var(le),
                });
                let neg = self.new_temp(Base::Int);
                self.emit(Instr::Binary {
                    dst: neg,
                    op: BinOp::Lt,
                    lhs: step_op,
                    rhs: Operand::Const(0),
                });
                let ge = self.new_temp(Base::Int);
                self.emit(Instr::Binary {
                    dst: ge,
                    op: BinOp::Ge,
                    lhs: Operand::Var(v),
                    rhs: to_op,
                });
                let down = self.new_temp(Base::Int);
                self.emit(Instr::Binary {
                    dst: down,
                    op: BinOp::And,
                    lhs: Operand::Var(neg),
                    rhs: Operand::Var(ge),
                });
                let cond = self.new_temp(Base::Int);
                self.emit(Instr::Binary {
                    dst: cond,
                    op: BinOp::Or,
                    lhs: Operand::Var(up),
                    rhs: Operand::Var(down),
                });
                Operand::Var(cond)
            }
        };

        let body_bb = self.new_block();
        let exit = self.new_block();
        self.set_term(Terminator::Branch {
            cond,
            then_bb: body_bb,
            else_bb: exit,
        });

        self.current = body_bb;
        self.lower_body(body);
        self.emit(Instr::Binary {
            dst: v,
            op: BinOp::Add,
            lhs: Operand::Var(v),
            rhs: step_op,
        });
        self.set_term(Terminator::Jump(header));

        self.current = exit;
    }

    // ---- calls ----------------------------------------------------------

    fn lower_call(&mut self, name: &str, args: &[Expr], dst: Option<VarId>) {
        let callee = *self.proc_ids.get(name).expect("resolved callee");
        let callee_ast = &self.checked.program.procs[callee.index()];
        let formal_tys: Vec<Ty> = callee_ast.params.iter().map(|p| p.ty).collect();
        let mut call_args = Vec::with_capacity(args.len());
        for (arg, &formal) in args.iter().zip(formal_tys.iter()) {
            call_args.push(self.lower_arg(arg, formal));
        }
        self.emit(Instr::Call {
            callee,
            args: call_args,
            dst,
        });
    }

    fn lower_arg(&mut self, arg: &Expr, formal: Ty) -> CallArg {
        if let ExprKind::Name(name) = &arg.kind {
            let v = self.var_of(name);
            let actual_ty = self.proc.var(v).ty;
            let compatible =
                actual_ty.base == formal.base && (actual_ty.is_array() == formal.is_array());
            if compatible {
                return CallArg::by_ref(v);
            }
        }
        let mut op = self.lower_expr(arg);
        if formal.base == Base::Real && self.operand_base(op) == Base::Int {
            op = self.coerce_real(op);
        }
        CallArg::by_value(op)
    }

    // ---- expressions ----------------------------------------------------

    /// Lowers `expr` directly into `dst` when possible, avoiding a
    /// temporary-plus-copy.
    fn lower_expr_into(&mut self, dst: VarId, expr: &Expr) {
        let dst_base = self.var_base(dst);
        match &expr.kind {
            ExprKind::Binary(op, lhs, rhs) => {
                let (l, r, result_base) = self.lower_binop_operands(*op, lhs, rhs);
                if result_base == dst_base {
                    self.emit(Instr::Binary {
                        dst,
                        op: *op,
                        lhs: l,
                        rhs: r,
                    });
                } else {
                    debug_assert_eq!(dst_base, Base::Real);
                    let t = self.new_temp(result_base);
                    self.emit(Instr::Binary {
                        dst: t,
                        op: *op,
                        lhs: l,
                        rhs: r,
                    });
                    self.emit(Instr::IntToReal {
                        dst,
                        src: Operand::Var(t),
                    });
                }
            }
            ExprKind::Unary(op, operand) => {
                let src = self.lower_expr(operand);
                let src_base = self.operand_base(src);
                if src_base == dst_base {
                    self.emit(Instr::Unary { dst, op: *op, src });
                } else {
                    debug_assert_eq!((dst_base, *op), (Base::Real, UnOp::Neg));
                    let t = self.new_temp(src_base);
                    self.emit(Instr::Unary {
                        dst: t,
                        op: *op,
                        src,
                    });
                    self.emit(Instr::IntToReal {
                        dst,
                        src: Operand::Var(t),
                    });
                }
            }
            ExprKind::Index(name, idx) => {
                let arr = self.var_of(name);
                let index = self.lower_expr(idx);
                if self.var_base(arr) == dst_base {
                    self.emit(Instr::Load { dst, arr, index });
                } else {
                    let t = self.new_temp(self.var_base(arr));
                    self.emit(Instr::Load { dst: t, arr, index });
                    self.emit(Instr::IntToReal {
                        dst,
                        src: Operand::Var(t),
                    });
                }
            }
            ExprKind::CallFn(name, args) => {
                if dst_base == Base::Int {
                    self.lower_call(name, args, Some(dst));
                } else {
                    let t = self.new_temp(Base::Int);
                    self.lower_call(name, args, Some(t));
                    self.emit(Instr::IntToReal {
                        dst,
                        src: Operand::Var(t),
                    });
                }
            }
            _ => {
                let op = self.lower_expr(expr);
                if self.operand_base(op) == dst_base {
                    self.emit(Instr::Copy { dst, src: op });
                } else {
                    debug_assert_eq!(dst_base, Base::Real);
                    let src = self.coerce_real(op);
                    self.emit(Instr::Copy { dst, src });
                }
            }
        }
    }

    /// Lowers both operands of a binary op, inserting promotions, and
    /// returns them plus the result base type.
    fn lower_binop_operands(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> (Operand, Operand, Base) {
        let mut l = self.lower_expr(lhs);
        let mut r = self.lower_expr(rhs);
        let any_real = self.operand_base(l) == Base::Real || self.operand_base(r) == Base::Real;
        if any_real {
            l = self.coerce_real(l);
            r = self.coerce_real(r);
        }
        let result_base = if any_real && op.is_arithmetic() {
            Base::Real
        } else {
            Base::Int
        };
        (l, r, result_base)
    }

    fn lower_expr(&mut self, expr: &Expr) -> Operand {
        match &expr.kind {
            ExprKind::IntLit(v) => Operand::Const(*v),
            ExprKind::RealLit(v) => Operand::RealConst(*v),
            ExprKind::Name(name) => Operand::Var(self.var_of(name)),
            ExprKind::Index(name, idx) => {
                let arr = self.var_of(name);
                let index = self.lower_expr(idx);
                let t = self.new_temp(self.var_base(arr));
                self.emit(Instr::Load { dst: t, arr, index });
                Operand::Var(t)
            }
            ExprKind::CallFn(name, args) => {
                let t = self.new_temp(Base::Int);
                self.lower_call(name, args, Some(t));
                Operand::Var(t)
            }
            ExprKind::Unary(op, operand) => {
                let src = self.lower_expr(operand);
                let base = self.operand_base(src);
                let t = self.new_temp(base);
                self.emit(Instr::Unary {
                    dst: t,
                    op: *op,
                    src,
                });
                Operand::Var(t)
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let (l, r, result_base) = self.lower_binop_operands(*op, lhs, rhs);
                let t = self.new_temp(result_base);
                self.emit(Instr::Binary {
                    dst: t,
                    op: *op,
                    lhs: l,
                    rhs: r,
                });
                Operand::Var(t)
            }
            ExprKind::NameArgs(..) => unreachable!("checked AST has no NameArgs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_lang::compile;

    fn lower_src(src: &str) -> Program {
        lower(&compile(src).expect("compiles"))
    }

    #[test]
    fn minimal_main() {
        let p = lower_src("main\nend\n");
        assert_eq!(p.procs.len(), 1);
        assert_eq!(p.main, ProcId(0));
        let main = p.proc(p.main);
        assert_eq!(main.blocks.len(), 1);
        assert_eq!(main.block(main.entry()).term, Terminator::Return(None));
    }

    #[test]
    fn assign_lowering_is_direct() {
        let p = lower_src("main\nx = y + 1\nend\n");
        let main = p.proc(p.main);
        // One Binary straight into x; no temp copy.
        assert_eq!(main.instr_count(), 1);
        match &main.block(main.entry()).instrs[0] {
            Instr::Binary { op: BinOp::Add, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_creates_diamond() {
        let p = lower_src("main\nif x then\ny = 1\nelse\ny = 2\nend\nz = y\nend\n");
        let main = p.proc(p.main);
        assert_eq!(main.blocks.len(), 4); // entry, then, else, join
        assert!(matches!(
            main.block(main.entry()).term,
            Terminator::Branch { .. }
        ));
    }

    #[test]
    fn while_creates_loop() {
        let p = lower_src("main\nwhile x < 3 do\nx = x + 1\nend\nend\n");
        let main = p.proc(p.main);
        // entry, header, body, exit
        assert_eq!(main.blocks.len(), 4);
        let preds = main.predecessors();
        // Header has two predecessors: entry and body.
        let header = 1;
        assert_eq!(preds[header].len(), 2);
    }

    #[test]
    fn do_constant_step_has_simple_condition() {
        let p = lower_src("main\ndo i = 1, 10\ns = s + i\nend\nend\n");
        let main = p.proc(p.main);
        // No trap blocks for a literal non-zero step.
        assert!(main
            .blocks
            .iter()
            .all(|b| !matches!(b.term, Terminator::Trap(_))));
        // Header condition is a single Le.
        let le_count = main
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Binary { op: BinOp::Le, .. }))
            .count();
        assert_eq!(le_count, 1);
    }

    #[test]
    fn do_negative_literal_step_uses_ge() {
        let p = lower_src("main\ndo i = 10, 1, -2\ns = s + i\nend\nend\n");
        let main = p.proc(p.main);
        let ge_count = main
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Binary { op: BinOp::Ge, .. }))
            .count();
        assert_eq!(ge_count, 1);
    }

    #[test]
    fn do_variable_step_emits_trap_check() {
        let p = lower_src("main\nread(k)\ndo i = 1, 10, k\ns = s + i\nend\nend\n");
        let main = p.proc(p.main);
        assert!(main
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::Trap(TrapKind::ZeroStep))));
    }

    #[test]
    fn do_zero_literal_step_traps_immediately() {
        let p = lower_src("main\ndo i = 1, 10, 0\ns = s + i\nend\nend\n");
        let main = p.proc(p.main);
        assert!(matches!(
            main.block(main.entry()).term,
            Terminator::Trap(TrapKind::ZeroStep)
        ));
    }

    #[test]
    fn by_ref_vs_by_value_args() {
        let p = lower_src("proc f(a, b, real r, v())\nend\nmain\ninteger arr(5)\nx = 1\ncall f(x, x + 1, x, arr)\nend\n");
        let main = p.proc(p.main);
        let call = main
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find_map(|i| match i {
                Instr::Call { args, .. } => Some(args.clone()),
                _ => None,
            })
            .expect("has call");
        assert!(call[0].by_ref, "bare matching scalar is by-ref");
        assert!(!call[1].by_ref, "expression is by-value");
        assert!(!call[2].by_ref, "int actual for real formal is by-value");
        assert!(call[3].by_ref, "whole array is by-ref");
    }

    #[test]
    fn global_vars_in_table() {
        let p = lower_src("global g = 2\nmain\nx = g\nend\n");
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.globals[0].init, Some(2));
        let main = p.proc(p.main);
        assert!(main
            .vars
            .iter()
            .any(|v| v.kind == VarKind::Global(GlobalId(0))));
    }

    #[test]
    fn function_implicit_return_zero() {
        let p = lower_src("func f(x)\nif x then\nreturn 1\nend\nend\nmain\ny = f(0)\nend\n");
        let f = p.proc(p.proc_by_name("f").unwrap());
        let returns: Vec<_> = f
            .blocks
            .iter()
            .filter_map(|b| match &b.term {
                Terminator::Return(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert!(returns.contains(&Some(Operand::Const(1))));
        assert!(returns.contains(&Some(Operand::Const(0))));
    }

    #[test]
    fn statements_after_return_are_isolated() {
        let p = lower_src("proc f()\nreturn\nx = 1\nend\nmain\ncall f()\nend\n");
        let f = p.proc(p.proc_by_name("f").unwrap());
        // Entry returns; the dead statement lives in a separate block.
        assert_eq!(f.block(f.entry()).term, Terminator::Return(None));
        assert!(f.blocks.len() >= 2);
    }

    #[test]
    fn read_into_element_goes_through_temp() {
        let p = lower_src("main\ninteger a(4)\nread(a(2))\nend\n");
        let main = p.proc(p.main);
        let instrs = &main.block(main.entry()).instrs;
        assert!(matches!(instrs[0], Instr::Read { .. }));
        assert!(matches!(instrs[1], Instr::Store { .. }));
    }

    #[test]
    fn mixed_arithmetic_promotes() {
        let p = lower_src("main\nreal r\nr = r + 1\nend\n");
        let main = p.proc(p.main);
        // `1` becomes a RealConst, no conversion instruction needed.
        let has_real_const = main.blocks.iter().flat_map(|b| &b.instrs).any(|i| {
            matches!(
                i,
                Instr::Binary {
                    rhs: Operand::RealConst(_),
                    ..
                }
            )
        });
        assert!(has_real_const);
    }

    #[test]
    fn int_var_to_real_promotes_with_conversion() {
        let p = lower_src("main\nreal r\nx = 1\nr = x + 0.5\nend\n");
        let main = p.proc(p.main);
        assert!(main
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, Instr::IntToReal { .. })));
    }

    #[test]
    fn do_bounds_frozen() {
        // `n` is modified inside the body, but the bound uses the frozen copy.
        let p = lower_src("main\nn = 3\ndo i = 1, n\nn = 100\nend\nend\n");
        let main = p.proc(p.main);
        // There must be a Copy freezing n into a temp before the loop.
        let freeze_count = main
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::Copy { .. }))
            .count();
        assert!(freeze_count >= 2, "from-init plus frozen bound");
    }
}
