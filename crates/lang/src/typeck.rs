//! Type checking and name resolution for Minifor.
//!
//! Checking produces a [`CheckedProgram`] in which every ambiguous
//! [`ExprKind::NameArgs`] node has been rewritten into an array element
//! reference or a function call, and each procedure carries a variable
//! table describing every name it touches (parameters, declared locals,
//! implicit integer locals, and referenced globals).
//!
//! Minifor follows FORTRAN's implicit-declaration convention: an undeclared
//! scalar name becomes an integer local on first use. Variables may not
//! share a name with any procedure.
//!
//! Names are resolved through tables indexed by [`Symbol`], one slot per
//! symbol of the program's interner; the per-procedure scope is cleared
//! by bumping a generation rather than by rebuilding it.

use crate::ast::*;
use crate::diag::{Diagnostic, Diagnostics, Phase};
use crate::span::Span;
use crate::symbol::SymbolMap;

/// How a variable came to exist in a procedure's scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarOrigin {
    /// The `i`-th formal parameter (0-based).
    Param(u32),
    /// A declared or implicit local.
    Local,
    /// The `i`-th global declaration (0-based index into `Program::globals`).
    Global(u32),
}

impl VarOrigin {
    /// Whether the variable is a formal parameter.
    pub fn is_param(self) -> bool {
        matches!(self, VarOrigin::Param(_))
    }

    /// Whether the variable is a global.
    pub fn is_global(self) -> bool {
        matches!(self, VarOrigin::Global(_))
    }
}

/// A variable visible inside one procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// Source name.
    pub name: Symbol,
    /// Resolved type.
    pub ty: Ty,
    /// Parameter / local / global.
    pub origin: VarOrigin,
}

/// Per-procedure symbol information produced by checking.
#[derive(Debug, Clone, Default)]
pub struct ProcInfo {
    /// Every variable the procedure can touch: parameters first (in
    /// declaration order), then declared locals, then globals and implicit
    /// locals in order of first reference. Names are unique.
    pub vars: Vec<VarInfo>,
}

impl ProcInfo {
    /// Index into [`ProcInfo::vars`] of the variable named `name`.
    ///
    /// This scans the table. A pass that resolves every name of a
    /// procedure loads the table into a [`SymbolMap`] instead.
    pub fn var_index(&self, name: Symbol) -> Option<usize> {
        self.vars.iter().position(|v| v.name == name)
    }

    /// Looks up a variable by name.
    pub fn var(&self, name: Symbol) -> Option<&VarInfo> {
        self.var_index(name).map(|i| &self.vars[i])
    }
}

/// A checked, fully resolved program.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    /// The resolved AST (no [`ExprKind::NameArgs`] nodes remain).
    pub program: Program,
    /// Symbol tables parallel to `program.procs`.
    pub proc_info: Vec<ProcInfo>,
    /// Name → index of the first procedure with that name, as the
    /// checker resolved calls.
    proc_of: SymbolMap,
}

impl CheckedProgram {
    /// Index of the procedure named `name`.
    pub fn proc_index(&self, name: &str) -> Option<usize> {
        self.proc_of(self.program.names.get(name)?)
    }

    /// Index of the procedure whose name is the symbol `name`.
    pub fn proc_of(&self, name: Symbol) -> Option<usize> {
        self.proc_of.get(name).map(|i| i as usize)
    }
}

/// Type checks `program`, resolving names and ambiguous references.
///
/// # Errors
///
/// Returns every semantic error found: duplicate or conflicting
/// declarations, unknown or mis-used names, arity and type mismatches,
/// a missing `main`, and misuse of `return`.
pub fn check(mut program: Program) -> Result<CheckedProgram, Diagnostics> {
    let Program {
        globals,
        procs,
        names,
    } = &mut program;
    let mut checker = Checker::new(globals, procs, names);
    checker.check_toplevel(globals, procs);
    let proc_info: Vec<ProcInfo> = procs.iter_mut().map(|p| checker.check_proc(p)).collect();

    let Checker {
        mut errors,
        proc_of,
        ..
    } = checker;
    if errors.is_empty() {
        Ok(CheckedProgram {
            program,
            proc_info,
            proc_of,
        })
    } else {
        errors.sort_by_key(|d| (d.span.start, d.span.end));
        Err(Diagnostics::new(errors))
    }
}

/// Signature of a procedure as seen by its callers.
#[derive(Debug, Clone, Copy)]
struct Sig {
    kind: ProcKind,
    /// The formals' types: `Checker::param_tys[start..end]`.
    params: (u32, u32),
}

/// Resolves names through tables indexed by [`Symbol`]: no name is
/// hashed or copied while checking.
struct Checker<'p> {
    names: &'p Interner,
    globals: &'p [GlobalDecl],
    /// Name → index of the first procedure with that name.
    proc_of: SymbolMap,
    /// Per procedure, in program order.
    sigs: Vec<Sig>,
    /// Every procedure's formal types, concatenated.
    param_tys: Vec<Ty>,
    /// Name → index of the first global with that name.
    global_of: SymbolMap,
    /// The current procedure's scope: name → index into `vars`.
    scope: SymbolMap,
    /// The current procedure's variables.
    vars: Vec<VarInfo>,
    errors: Vec<Diagnostic>,
}

/// The type of a checked expression (arrays appear only as call arguments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExprTy {
    Scalar(Base),
    Array(Base),
    /// Error already reported; suppress cascading errors.
    Err,
}

impl<'p> Checker<'p> {
    fn new(globals: &'p [GlobalDecl], procs: &[Proc], names: &'p Interner) -> Self {
        let mut proc_of = SymbolMap::new(names.len());
        let mut sigs = Vec::with_capacity(procs.len());
        let mut param_tys = Vec::with_capacity(procs.iter().map(|p| p.params.len()).sum());
        for (i, p) in procs.iter().enumerate() {
            if !proc_of.contains(p.name) {
                proc_of.insert(p.name, i as u32);
            }
            let start = param_tys.len() as u32;
            param_tys.extend(p.params.iter().map(|q| q.ty));
            sigs.push(Sig {
                kind: p.kind,
                params: (start, param_tys.len() as u32),
            });
        }
        let mut global_of = SymbolMap::new(names.len());
        for (i, g) in globals.iter().enumerate() {
            if !global_of.contains(g.name) {
                global_of.insert(g.name, i as u32);
            }
        }
        Checker {
            names,
            globals,
            proc_of,
            sigs,
            param_tys,
            global_of,
            scope: SymbolMap::new(names.len()),
            vars: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn error(&mut self, span: Span, msg: impl Into<String>) {
        self.errors.push(Diagnostic::new(Phase::Check, span, msg));
    }

    /// The text of `sym`, for a diagnostic.
    fn name(&self, sym: Symbol) -> &'p str {
        &self.names[sym]
    }

    fn check_toplevel(&mut self, globals: &[GlobalDecl], procs: &[Proc]) {
        // `scope` is idle until the first procedure: it serves as the
        // set of names seen so far.
        for g in globals {
            if self.scope.contains(g.name) {
                self.error(g.span, format!("duplicate global `{}`", self.name(g.name)));
            }
            self.scope.insert(g.name, 0);
            if self.proc_of.contains(g.name) {
                self.error(
                    g.span,
                    format!(
                        "global `{}` conflicts with a procedure name",
                        self.name(g.name)
                    ),
                );
            }
        }
        self.scope.clear();
        let mut mains = 0usize;
        for p in procs {
            if self.scope.contains(p.name) {
                self.error(
                    p.span,
                    format!("duplicate procedure `{}`", self.name(p.name)),
                );
            }
            self.scope.insert(p.name, 0);
            if p.kind == ProcKind::Main {
                mains += 1;
            }
        }
        self.scope.clear();
        if mains == 0 {
            self.error(Span::default(), "program has no `main`");
        }
    }

    fn check_proc(&mut self, proc: &mut Proc) -> ProcInfo {
        self.scope.clear();
        self.vars.clear();
        for (i, param) in proc.params.iter().enumerate() {
            if self.proc_of.contains(param.name) {
                self.error(
                    param.span,
                    format!(
                        "parameter `{}` conflicts with a procedure name",
                        self.name(param.name)
                    ),
                );
            }
            if self
                .declare(param.name, param.ty, VarOrigin::Param(i as u32))
                .is_none()
            {
                self.error(
                    param.span,
                    format!("duplicate parameter `{}`", self.name(param.name)),
                );
            }
        }
        for decl in &proc.decls {
            if self.proc_of.contains(decl.name) {
                self.error(
                    decl.span,
                    format!(
                        "local `{}` conflicts with a procedure name",
                        self.name(decl.name)
                    ),
                );
            }
            if self.declare(decl.name, decl.ty, VarOrigin::Local).is_none() {
                self.error(
                    decl.span,
                    format!(
                        "`{}` is already declared in this procedure",
                        self.name(decl.name)
                    ),
                );
            }
        }

        let kind = proc.kind;
        for stmt in &mut proc.body {
            self.check_stmt(stmt, kind);
        }

        ProcInfo {
            vars: self.vars.as_slice().to_vec(),
        }
    }

    /// Adds `name` to the current scope; `None` if it is already there.
    fn declare(&mut self, name: Symbol, ty: Ty, origin: VarOrigin) -> Option<usize> {
        if self.scope.contains(name) {
            return None;
        }
        let idx = self.vars.len();
        self.scope.insert(name, idx as u32);
        self.vars.push(VarInfo { name, ty, origin });
        Some(idx)
    }

    /// Resolves `name` to a variable, creating an implicit integer local if
    /// it is entirely unknown. Returns `None` (after reporting) if the name
    /// is a procedure.
    fn resolve_var(&mut self, name: Symbol, span: Span) -> Option<usize> {
        if let Some(idx) = self.scope.get(name) {
            return Some(idx as usize);
        }
        if let Some(gidx) = self.global_of.get(name) {
            let ty = self.globals[gidx as usize].ty;
            let idx = self
                .declare(name, ty, VarOrigin::Global(gidx))
                .expect("global not yet in scope");
            return Some(idx);
        }
        if self.proc_of.contains(name) {
            self.error(
                span,
                format!("`{}` is a procedure, not a variable", self.name(name)),
            );
            return None;
        }
        // Implicit integer scalar local, FORTRAN-style.
        Some(
            self.declare(name, Ty::INT, VarOrigin::Local)
                .expect("fresh implicit local"),
        )
    }

    fn check_stmt(&mut self, stmt: &mut Stmt, kind: ProcKind) {
        let span = stmt.span;
        match &mut stmt.kind {
            StmtKind::Assign { target, value } => {
                let vt = self.check_expr(value, false);
                let tt = self.check_lvalue(target);
                self.check_store(tt, vt, span);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let ct = self.check_expr(cond, false);
                self.require_int(ct, cond.span, "`if` condition");
                for s in then_blk.iter_mut().chain(else_blk.iter_mut()) {
                    self.check_stmt(s, kind);
                }
            }
            StmtKind::While { cond, body } => {
                let ct = self.check_expr(cond, false);
                self.require_int(ct, cond.span, "`while` condition");
                for s in body {
                    self.check_stmt(s, kind);
                }
            }
            StmtKind::Do {
                var,
                from,
                to,
                step,
                body,
            } => {
                let var = *var;
                if let Some(idx) = self.resolve_var(var, span) {
                    if self.vars[idx].ty != Ty::INT {
                        self.error(
                            span,
                            format!(
                                "`do` variable `{}` must be an integer scalar",
                                self.name(var)
                            ),
                        );
                    }
                }
                for (e, what) in [
                    (Some(&mut *from), "`do` initial value"),
                    (Some(&mut *to), "`do` bound"),
                ]
                .into_iter()
                .chain(std::iter::once((step.as_mut(), "`do` step")))
                {
                    if let Some(e) = e {
                        let t = self.check_expr(e, false);
                        self.require_int(t, e.span, what);
                    }
                }
                for s in body {
                    self.check_stmt(s, kind);
                }
            }
            StmtKind::Call { name, args } => {
                let name = *name;
                match self.proc_of.get(name).map(|p| self.sigs[p as usize]) {
                    None => self.error(span, format!("unknown procedure `{}`", self.name(name))),
                    Some(sig) => match sig.kind {
                        ProcKind::Function => {
                            self.error(
                                span,
                                format!(
                                    "`{}` is a function; call it inside an expression",
                                    self.name(name)
                                ),
                            );
                            // Still check args for secondary errors.
                            self.check_args(name, sig, args, span);
                        }
                        ProcKind::Main => self.error(span, "`main` cannot be called"),
                        ProcKind::Subroutine => {
                            self.check_args(name, sig, args, span);
                        }
                    },
                }
            }
            StmtKind::Return { value } => match (kind, value) {
                (ProcKind::Function, Some(e)) => {
                    let t = self.check_expr(e, false);
                    self.require_int(t, e.span, "function return value");
                }
                (ProcKind::Function, None) => {
                    self.error(span, "function `return` requires a value");
                }
                (_, Some(_)) => {
                    self.error(span, "only functions may return a value");
                }
                (_, None) => {}
            },
            StmtKind::Read { target } => {
                let t = self.check_lvalue(target);
                if matches!(t, ExprTy::Array(_)) {
                    self.error(span, "cannot `read` into a whole array");
                }
            }
            StmtKind::Print { value } => {
                let t = self.check_expr(value, false);
                if matches!(t, ExprTy::Array(_)) {
                    self.error(span, "cannot `print` a whole array");
                }
            }
        }
    }

    fn check_store(&mut self, target: ExprTy, value: ExprTy, span: Span) {
        match (target, value) {
            (ExprTy::Err, _) | (_, ExprTy::Err) => {}
            (ExprTy::Scalar(Base::Int), ExprTy::Scalar(Base::Int)) => {}
            (ExprTy::Scalar(Base::Real), ExprTy::Scalar(_)) => {}
            (ExprTy::Scalar(Base::Int), ExprTy::Scalar(Base::Real)) => {
                self.error(span, "cannot assign a real value to an integer location");
            }
            (ExprTy::Array(_), _) | (_, ExprTy::Array(_)) => {
                self.error(span, "whole arrays cannot be assigned");
            }
        }
    }

    fn check_lvalue(&mut self, lv: &mut LValue) -> ExprTy {
        let span = lv.span;
        match &mut lv.kind {
            LValueKind::Scalar(name) => {
                let name = *name;
                match self.resolve_var(name, span) {
                    None => ExprTy::Err,
                    Some(idx) => {
                        let ty = self.vars[idx].ty;
                        if ty.is_array() {
                            self.error(
                                span,
                                format!("array `{}` needs an index here", self.name(name)),
                            );
                            ExprTy::Err
                        } else {
                            ExprTy::Scalar(ty.base)
                        }
                    }
                }
            }
            LValueKind::Element(name, idx_expr) => {
                let it = self.check_expr(idx_expr, false);
                self.require_int(it, idx_expr.span, "array index");
                let name = *name;
                match self.resolve_var(name, span) {
                    None => ExprTy::Err,
                    Some(idx) => {
                        let ty = self.vars[idx].ty;
                        if ty.is_scalar() {
                            self.error(
                                span,
                                format!("`{}` is a scalar and cannot be indexed", self.name(name)),
                            );
                            ExprTy::Err
                        } else {
                            ExprTy::Scalar(ty.base)
                        }
                    }
                }
            }
        }
    }

    fn check_args(&mut self, callee: Symbol, sig: Sig, args: &mut [Expr], call_span: Span) {
        let (start, end) = (sig.params.0 as usize, sig.params.1 as usize);
        if end - start != args.len() {
            self.error(
                call_span,
                format!(
                    "`{}` expects {} argument(s), found {}",
                    self.name(callee),
                    end - start,
                    args.len()
                ),
            );
        }
        for (arg, i) in args.iter_mut().zip(start..end) {
            let formal = self.param_tys[i];
            let at = self.check_expr(arg, formal.is_array());
            match (formal.shape, at) {
                (_, ExprTy::Err) => {}
                (Shape::Scalar, ExprTy::Scalar(b)) => {
                    if formal.base == Base::Int && b == Base::Real {
                        self.error(
                            arg.span,
                            "cannot pass a real value for an integer parameter",
                        );
                    }
                }
                (Shape::Scalar, ExprTy::Array(_)) => {
                    self.error(arg.span, "cannot pass a whole array for a scalar parameter");
                }
                (Shape::Array(_), ExprTy::Array(b)) => {
                    if b != formal.base {
                        self.error(arg.span, "array argument element type mismatch");
                    }
                }
                (Shape::Array(_), ExprTy::Scalar(_)) => {
                    self.error(
                        arg.span,
                        "expected a whole array argument (bare array name)",
                    );
                }
            }
        }
    }

    /// Checks an expression; `allow_array` permits a bare array name (used
    /// for whole-array actual arguments).
    fn check_expr(&mut self, expr: &mut Expr, allow_array: bool) -> ExprTy {
        let span = expr.span;
        match &mut expr.kind {
            ExprKind::IntLit(_) => ExprTy::Scalar(Base::Int),
            ExprKind::RealLit(_) => ExprTy::Scalar(Base::Real),
            ExprKind::Name(name) => {
                let name = *name;
                match self.resolve_var(name, span) {
                    None => ExprTy::Err,
                    Some(idx) => {
                        let ty = self.vars[idx].ty;
                        if ty.is_array() {
                            if allow_array {
                                ExprTy::Array(ty.base)
                            } else {
                                self.error(
                                    span,
                                    format!("array `{}` needs an index here", self.name(name)),
                                );
                                ExprTy::Err
                            }
                        } else {
                            ExprTy::Scalar(ty.base)
                        }
                    }
                }
            }
            ExprKind::NameArgs(name, args) => {
                let name = *name;
                // A visible variable (or global) wins over a function: this
                // is an array element reference.
                let is_var = self.scope.contains(name) || self.global_of.contains(name);
                if is_var {
                    let idx = self.resolve_var(name, span).expect("variable exists");
                    let ty = self.vars[idx].ty;
                    if args.len() != 1 {
                        self.error(
                            span,
                            format!("array `{}` takes exactly one index", self.name(name)),
                        );
                        return ExprTy::Err;
                    }
                    if ty.is_scalar() {
                        self.error(
                            span,
                            format!("`{}` is a scalar and cannot be indexed", self.name(name)),
                        );
                        return ExprTy::Err;
                    }
                    let mut idx_expr = args.pop().expect("one index");
                    let it = self.check_expr(&mut idx_expr, false);
                    self.require_int(it, idx_expr.span, "array index");
                    expr.kind = ExprKind::Index(name, Box::new(idx_expr));
                    ExprTy::Scalar(ty.base)
                } else {
                    match self.proc_of.get(name).map(|p| self.sigs[p as usize]) {
                        Some(sig) if sig.kind == ProcKind::Function => {
                            let mut args_taken = std::mem::take(args);
                            self.check_args(name, sig, &mut args_taken, span);
                            expr.kind = ExprKind::CallFn(name, args_taken);
                            ExprTy::Scalar(Base::Int)
                        }
                        Some(_) => {
                            let name = self.name(name);
                            self.error(
                                span,
                                format!("`{name}` is a subroutine; use `call {name}(...)`"),
                            );
                            ExprTy::Err
                        }
                        None => {
                            self.error(
                                span,
                                format!("unknown array or function `{}`", self.name(name)),
                            );
                            ExprTy::Err
                        }
                    }
                }
            }
            ExprKind::Index(..) | ExprKind::CallFn(..) => {
                unreachable!("parser never produces resolved nodes")
            }
            ExprKind::Unary(op, operand) => {
                let op = *op;
                let t = self.check_expr(operand, false);
                match (op, t) {
                    (_, ExprTy::Err) => ExprTy::Err,
                    (UnOp::Neg, ExprTy::Scalar(b)) => ExprTy::Scalar(b),
                    (UnOp::Not, ExprTy::Scalar(Base::Int)) => ExprTy::Scalar(Base::Int),
                    (UnOp::Not, ExprTy::Scalar(Base::Real)) => {
                        self.error(span, "`not` requires an integer operand");
                        ExprTy::Err
                    }
                    (_, ExprTy::Array(_)) => {
                        self.error(span, "cannot operate on a whole array");
                        ExprTy::Err
                    }
                }
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let op = *op;
                let lt = self.check_expr(lhs, false);
                let rt = self.check_expr(rhs, false);
                match (lt, rt) {
                    (ExprTy::Err, _) | (_, ExprTy::Err) => ExprTy::Err,
                    (ExprTy::Array(_), _) | (_, ExprTy::Array(_)) => {
                        self.error(span, "cannot operate on a whole array");
                        ExprTy::Err
                    }
                    (ExprTy::Scalar(lb), ExprTy::Scalar(rb)) => {
                        let any_real = lb == Base::Real || rb == Base::Real;
                        if (op.is_logical() || op == BinOp::Rem) && any_real {
                            self.error(span, format!("`{op}` requires integer operands"));
                            return ExprTy::Err;
                        }
                        if op.is_comparison() {
                            ExprTy::Scalar(Base::Int)
                        } else if any_real {
                            ExprTy::Scalar(Base::Real)
                        } else {
                            ExprTy::Scalar(Base::Int)
                        }
                    }
                }
            }
        }
    }

    fn require_int(&mut self, t: ExprTy, span: Span, what: &str) {
        match t {
            ExprTy::Scalar(Base::Int) | ExprTy::Err => {}
            ExprTy::Scalar(Base::Real) => self.error(span, format!("{what} must be an integer")),
            ExprTy::Array(_) => self.error(span, format!("{what} cannot be a whole array")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_ok(src: &str) -> CheckedProgram {
        let ast = parse(src).expect("parse");
        match check(ast) {
            Ok(c) => c,
            Err(e) => panic!("check failed:\n{}", e.render(src)),
        }
    }

    /// The variable `name` of procedure `proc`.
    fn var<'c>(c: &'c CheckedProgram, proc: usize, name: &str) -> &'c VarInfo {
        let sym = c.program.names.get(name).expect("interned name");
        c.proc_info[proc].var(sym).expect("variable in scope")
    }

    fn check_err(src: &str) -> Vec<String> {
        let ast = parse(src).expect("parse");
        check(ast)
            .unwrap_err()
            .into_iter()
            .map(|d| d.message)
            .collect()
    }

    #[test]
    fn minimal_program() {
        let c = check_ok("main\nend\n");
        assert_eq!(c.proc_info.len(), 1);
    }

    #[test]
    fn missing_main_rejected() {
        let msgs = check_err("proc f()\nend\n");
        assert!(msgs.iter().any(|m| m.contains("no `main`")), "{msgs:?}");
    }

    #[test]
    fn implicit_locals_are_int() {
        let c = check_ok("main\nx = 1\ny = x + 2\nend\n");
        assert_eq!(var(&c, 0, "x").ty, Ty::INT);
        assert_eq!(var(&c, 0, "x").origin, VarOrigin::Local);
        assert_eq!(var(&c, 0, "y").ty, Ty::INT);
    }

    #[test]
    fn params_resolve() {
        let c = check_ok("proc f(a, real b)\nx = a\nend\nmain\nend\n");
        assert_eq!(var(&c, 0, "a").origin, VarOrigin::Param(0));
        assert_eq!(var(&c, 0, "b").origin, VarOrigin::Param(1));
        assert_eq!(var(&c, 0, "b").ty, Ty::REAL);
    }

    #[test]
    fn globals_resolve() {
        let c = check_ok("global g = 3\nmain\nx = g\nend\n");
        assert_eq!(var(&c, 0, "g").origin, VarOrigin::Global(0));
    }

    #[test]
    fn param_shadows_global() {
        let c = check_ok("global g\nproc f(g)\nx = g\nend\nmain\nend\n");
        assert_eq!(var(&c, 0, "g").origin, VarOrigin::Param(0));
    }

    #[test]
    fn name_args_resolves_to_index() {
        let c = check_ok("main\ninteger a(10)\nx = a(3)\nend\n");
        match &c.program.procs[0].body[0].kind {
            StmtKind::Assign { value, .. } => {
                assert!(
                    matches!(value.kind, ExprKind::Index(..)),
                    "{:?}",
                    value.kind
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn name_args_resolves_to_call() {
        let c = check_ok("func f(x)\nreturn x + 1\nend\nmain\ny = f(3)\nend\n");
        let main_idx = c.proc_index("main").unwrap();
        match &c.program.procs[main_idx].body[0].kind {
            StmtKind::Assign { value, .. } => {
                assert!(
                    matches!(value.kind, ExprKind::CallFn(..)),
                    "{:?}",
                    value.kind
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn global_array_element() {
        let c = check_ok("global a(5)\nmain\na(1) = 2\nx = a(1)\nend\n");
        assert_eq!(var(&c, 0, "a").origin, VarOrigin::Global(0));
        assert!(var(&c, 0, "a").ty.is_array());
    }

    #[test]
    fn unknown_callee_rejected() {
        let msgs = check_err("main\ncall nope(1)\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("unknown procedure")),
            "{msgs:?}"
        );
    }

    #[test]
    fn arity_mismatch_rejected() {
        let msgs = check_err("proc f(a, b)\nend\nmain\ncall f(1)\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("expects 2 argument")),
            "{msgs:?}"
        );
    }

    #[test]
    fn calling_function_with_call_rejected() {
        let msgs = check_err("func f(x)\nreturn x\nend\nmain\ncall f(1)\nend\n");
        assert!(msgs.iter().any(|m| m.contains("is a function")), "{msgs:?}");
    }

    #[test]
    fn subroutine_in_expression_rejected() {
        let msgs = check_err("proc f(x)\nend\nmain\ny = f(1)\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("is a subroutine")),
            "{msgs:?}"
        );
    }

    #[test]
    fn calling_main_rejected() {
        // `main` is a keyword, so `call main()` never even parses.
        assert!(crate::parser::parse("main\ncall main()\nend\n").is_err());
    }

    #[test]
    fn indexing_scalar_rejected() {
        let msgs = check_err("main\nx = 1\ny = x(2)\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("cannot be indexed")),
            "{msgs:?}"
        );
    }

    #[test]
    fn bare_array_in_arithmetic_rejected() {
        let msgs = check_err("main\ninteger a(5)\nx = a + 1\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("needs an index")),
            "{msgs:?}"
        );
    }

    #[test]
    fn whole_array_argument_ok() {
        check_ok("proc f(v())\nv(1) = 2\nend\nmain\ninteger a(10)\ncall f(a)\nend\n");
    }

    #[test]
    fn array_argument_base_mismatch_rejected() {
        let msgs = check_err("proc f(v())\nend\nmain\nreal a(10)\ncall f(a)\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("element type mismatch")),
            "{msgs:?}"
        );
    }

    #[test]
    fn scalar_for_array_param_rejected() {
        let msgs = check_err("proc f(v())\nend\nmain\ncall f(3)\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("whole array argument")),
            "{msgs:?}"
        );
    }

    #[test]
    fn real_to_int_assignment_rejected() {
        let msgs = check_err("main\nreal r\nx = r\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("real value to an integer")),
            "{msgs:?}"
        );
    }

    #[test]
    fn int_to_real_assignment_ok() {
        check_ok("main\nreal r\nr = 3\nend\n");
    }

    #[test]
    fn real_to_int_param_rejected() {
        let msgs = check_err("proc f(x)\nend\nmain\nreal r\ncall f(r)\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("real value for an integer")),
            "{msgs:?}"
        );
    }

    #[test]
    fn int_to_real_param_ok() {
        check_ok("proc f(real x)\nend\nmain\ncall f(3)\nend\n");
    }

    #[test]
    fn rem_on_real_rejected() {
        let msgs = check_err("main\nreal r\nreal s\nr = s % 2.0\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("integer operands")),
            "{msgs:?}"
        );
    }

    #[test]
    fn do_var_must_be_int() {
        let msgs = check_err("main\nreal r\ndo r = 1, 3\nend\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("integer scalar")),
            "{msgs:?}"
        );
    }

    #[test]
    fn return_value_outside_function_rejected() {
        let msgs = check_err("proc f()\nreturn 3\nend\nmain\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("only functions")),
            "{msgs:?}"
        );
    }

    #[test]
    fn bare_return_in_function_rejected() {
        let msgs = check_err("func f(x)\nreturn\nend\nmain\ny = f(1)\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("requires a value")),
            "{msgs:?}"
        );
    }

    #[test]
    fn duplicate_declarations_rejected() {
        let msgs = check_err("global g\nglobal g\nmain\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("duplicate global")),
            "{msgs:?}"
        );
        let msgs = check_err("proc f(a, a)\nend\nmain\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("duplicate parameter")),
            "{msgs:?}"
        );
        let msgs = check_err("proc f()\ninteger x\ninteger x\nend\nmain\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("already declared")),
            "{msgs:?}"
        );
        let msgs = check_err("proc f()\nend\nproc f()\nend\nmain\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("duplicate procedure")),
            "{msgs:?}"
        );
    }

    #[test]
    fn variable_shadowing_procedure_rejected() {
        let msgs = check_err("proc f()\nend\nmain\nf = 3\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("is a procedure")),
            "{msgs:?}"
        );
    }

    #[test]
    fn recursion_allowed() {
        check_ok("func fact(n)\nif n <= 1 then\nreturn 1\nend\nreturn n * fact(n - 1)\nend\nmain\nx = fact(5)\nend\n");
    }

    #[test]
    fn read_whole_array_rejected() {
        let msgs = check_err("main\ninteger a(5)\nread(a)\nend\n");
        assert!(
            msgs.iter().any(|m| m.contains("needs an index")),
            "{msgs:?}"
        );
    }

    #[test]
    fn multiple_errors_collected() {
        let msgs = check_err("main\ncall nope(1)\ncall alsonope(2)\nend\n");
        assert_eq!(msgs.len(), 2);
    }
}
