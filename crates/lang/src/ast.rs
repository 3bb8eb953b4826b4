//! Abstract syntax for Minifor.
//!
//! Minifor deliberately mirrors the FORTRAN 77 features interprocedural
//! constant propagation cares about: every parameter is passed **by
//! reference** (expression actuals are passed through an invisible
//! temporary, so callee stores do not escape), globals model `COMMON`
//! variables, only integer values are ever propagated, and arrays are
//! opaque to the analysis.
//!
//! Semantic notes (shared by the interpreter and the IR lowering):
//!
//! * Scalars and array elements are zero-initialized.
//! * `and`/`or` evaluate both operands (no short-circuiting), treating zero
//!   as false and any non-zero integer as true; comparisons yield 0 or 1.
//! * Integer division truncates toward zero; division or remainder by zero
//!   is a runtime error.
//! * `do v = from, to [, step]` evaluates `from`, `to` and `step` once, then
//!   iterates while `v <= to` (positive step) or `v >= to` (negative step),
//!   adding `step` after each iteration. A zero step is a runtime error.
//! * A `func` that falls off the end returns 0.
//!
//! Names in the tree are [`Symbol`]s of the [`Program`]'s own
//! [`Interner`]; `program.names[sym]` is the text.

use crate::span::Span;
pub use crate::symbol::{Interner, Symbol};
use std::fmt;

/// Base (element) type of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Base {
    /// 64-bit signed integer — the only type the analysis propagates.
    Int,
    /// 64-bit float; always treated as non-constant by the analysis.
    Real,
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Base::Int => f.write_str("integer"),
            Base::Real => f.write_str("real"),
        }
    }
}

/// Scalar-versus-array shape of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// A single value.
    Scalar,
    /// A 1-based array. `Some(n)` is a declared length; `None` is an
    /// assumed-size array formal (`name()` in a parameter list).
    Array(Option<u32>),
}

/// The type of a variable: base type plus shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ty {
    /// Element type.
    pub base: Base,
    /// Scalar or array.
    pub shape: Shape,
}

impl Ty {
    /// The integer scalar type.
    pub const INT: Ty = Ty {
        base: Base::Int,
        shape: Shape::Scalar,
    };
    /// The real scalar type.
    pub const REAL: Ty = Ty {
        base: Base::Real,
        shape: Shape::Scalar,
    };

    /// An array type with the given base and declared length.
    pub fn array(base: Base, len: u32) -> Ty {
        Ty {
            base,
            shape: Shape::Array(Some(len)),
        }
    }

    /// An assumed-size array formal.
    pub fn assumed_array(base: Base) -> Ty {
        Ty {
            base,
            shape: Shape::Array(None),
        }
    }

    /// Whether this is a scalar type.
    pub fn is_scalar(self) -> bool {
        self.shape == Shape::Scalar
    }

    /// Whether this is an array type.
    pub fn is_array(self) -> bool {
        !self.is_scalar()
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shape {
            Shape::Scalar => write!(f, "{}", self.base),
            Shape::Array(Some(n)) => write!(f, "{}({n})", self.base),
            Shape::Array(None) => write!(f, "{}()", self.base),
        }
    }
}

/// A top-level global variable declaration (models FORTRAN `COMMON`).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Variable name; unique among globals.
    pub name: Symbol,
    /// Declared type.
    pub ty: Ty,
    /// Optional compile-time initializer (integer scalars only).
    pub init: Option<i64>,
    /// Source location.
    pub span: Span,
}

/// Procedure flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcKind {
    /// `proc` — invoked with `call`, no return value.
    Subroutine,
    /// `func` — integer-valued, invoked inside expressions.
    Function,
    /// `main` — the unique entry point; no parameters.
    Main,
}

impl fmt::Display for ProcKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcKind::Subroutine => f.write_str("proc"),
            ProcKind::Function => f.write_str("func"),
            ProcKind::Main => f.write_str("main"),
        }
    }
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name; unique within the procedure.
    pub name: Symbol,
    /// Declared type (`integer` scalar by default).
    pub ty: Ty,
    /// Source location.
    pub span: Span,
}

/// An explicit local declaration (`integer x, y(10)` / `real z`).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDecl {
    /// Local name.
    pub name: Symbol,
    /// Declared type.
    pub ty: Ty,
    /// Source location.
    pub span: Span,
}

/// A procedure: subroutine, function, or main.
#[derive(Debug, Clone, PartialEq)]
pub struct Proc {
    /// Procedure name; unique program-wide (`main` has the name `main`).
    pub name: Symbol,
    /// Subroutine / function / main.
    pub kind: ProcKind,
    /// Formal parameters (empty for `main`).
    pub params: Vec<Param>,
    /// Explicit local declarations, which must precede the first statement.
    pub decls: Vec<LocalDecl>,
    /// Statement list.
    pub body: Block,
    /// Source location of the header.
    pub span: Span,
}

/// A statement sequence.
pub type Block = Vec<Stmt>;

/// A statement with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What the statement does.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement forms.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `target = value`
    Assign {
        /// Destination scalar or array element.
        target: LValue,
        /// Assigned expression.
        value: Expr,
    },
    /// `if cond then ... [else ...] end`
    If {
        /// Condition (integer; non-zero is true).
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Else branch (possibly empty).
        else_blk: Block,
    },
    /// `while cond do ... end`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `do var = from, to [, step] ... end`
    Do {
        /// Loop variable (an integer scalar).
        var: Symbol,
        /// Initial value.
        from: Expr,
        /// Inclusive bound.
        to: Expr,
        /// Step; defaults to 1.
        step: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `call name(args)`
    Call {
        /// Callee subroutine name.
        name: Symbol,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `return [expr]`
    Return {
        /// Returned value (functions only).
        value: Option<Expr>,
    },
    /// `read(target)` — consumes one input value.
    Read {
        /// Destination of the read.
        target: LValue,
    },
    /// `print(expr)` — appends one output value.
    Print {
        /// Printed expression.
        value: Expr,
    },
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub struct LValue {
    /// Scalar or element.
    pub kind: LValueKind,
    /// Source location.
    pub span: Span,
}

/// Assignable location forms.
#[derive(Debug, Clone, PartialEq)]
pub enum LValueKind {
    /// A scalar variable.
    Scalar(Symbol),
    /// An array element `name(index)`.
    Element(Symbol, Box<Expr>),
}

impl LValue {
    /// The variable name being assigned (the array name for elements).
    pub fn name(&self) -> Symbol {
        match self.kind {
            LValueKind::Scalar(n) | LValueKind::Element(n, _) => n,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation: `not e` is 1 if `e == 0`, else 0 (integers only).
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("-"),
            UnOp::Not => f.write_str("not "),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division truncates toward zero)
    Div,
    /// `%` (remainder; integers only)
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and` (non-short-circuit, integers only)
    And,
    /// `or` (non-short-circuit, integers only)
    Or,
}

impl BinOp {
    /// Whether the operator is a comparison (result is always integer 0/1).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether the operator is `and`/`or`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Whether the operator is arithmetic (`+ - * / %`).
    pub fn is_arithmetic(self) -> bool {
        !self.is_comparison() && !self.is_logical()
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        f.write_str(s)
    }
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression form.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Real literal.
    RealLit(f64),
    /// A scalar variable reference, or a whole-array reference in an
    /// argument position.
    Name(Symbol),
    /// `name(args)` before name resolution: either an array element
    /// reference or a function call. The type checker rewrites every
    /// occurrence into [`ExprKind::Index`] or [`ExprKind::CallFn`]; later
    /// phases reject this variant.
    NameArgs(Symbol, Vec<Expr>),
    /// An array element reference (post-resolution).
    Index(Symbol, Box<Expr>),
    /// A function call (post-resolution).
    CallFn(Symbol, Vec<Expr>),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Creates an integer literal expression.
    pub fn int(value: i64, span: Span) -> Expr {
        Expr {
            kind: ExprKind::IntLit(value),
            span,
        }
    }

    /// Creates a name reference expression.
    pub fn name(name: Symbol, span: Span) -> Expr {
        Expr {
            kind: ExprKind::Name(name),
            span,
        }
    }

    /// Returns the literal value if this is an integer literal.
    pub fn as_int_lit(&self) -> Option<i64> {
        match self.kind {
            ExprKind::IntLit(v) => Some(v),
            _ => None,
        }
    }
}

/// A whole Minifor program (compilation unit).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Global variables, in declaration order.
    pub globals: Vec<GlobalDecl>,
    /// All procedures including `main`.
    pub procs: Vec<Proc>,
    /// The text of every [`Symbol`] in the program.
    pub names: Interner,
}

impl Program {
    /// Finds a procedure by name.
    pub fn proc(&self, name: &str) -> Option<&Proc> {
        let name = self.names.get(name)?;
        self.procs.iter().find(|p| p.name == name)
    }

    /// The `main` procedure, if present.
    pub fn main(&self) -> Option<&Proc> {
        self.procs.iter().find(|p| p.kind == ProcKind::Main)
    }

    /// Finds a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalDecl> {
        let name = self.names.get(name)?;
        self.globals.iter().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ty_display() {
        assert_eq!(Ty::INT.to_string(), "integer");
        assert_eq!(Ty::REAL.to_string(), "real");
        assert_eq!(Ty::array(Base::Int, 10).to_string(), "integer(10)");
        assert_eq!(Ty::assumed_array(Base::Real).to_string(), "real()");
    }

    #[test]
    fn ty_predicates() {
        assert!(Ty::INT.is_scalar());
        assert!(!Ty::INT.is_array());
        assert!(Ty::array(Base::Real, 3).is_array());
        assert!(Ty::assumed_array(Base::Int).is_array());
    }

    #[test]
    fn binop_classes_partition() {
        use BinOp::*;
        for op in [Add, Sub, Mul, Div, Rem, Eq, Ne, Lt, Le, Gt, Ge, And, Or] {
            let classes = [op.is_comparison(), op.is_logical(), op.is_arithmetic()]
                .iter()
                .filter(|&&b| b)
                .count();
            assert_eq!(classes, 1, "{op:?} must be in exactly one class");
        }
    }

    #[test]
    fn lvalue_name() {
        let a = Interner::new().intern("a");
        let lv = LValue {
            kind: LValueKind::Element(a, Box::new(Expr::int(1, Span::default()))),
            span: Span::default(),
        };
        assert_eq!(lv.name(), a);
    }

    #[test]
    fn program_lookup() {
        let mut p = Program::default();
        assert!(p.main().is_none());
        let main = p.names.intern("main");
        p.procs.push(Proc {
            name: main,
            kind: ProcKind::Main,
            params: vec![],
            decls: vec![],
            body: vec![],
            span: Span::default(),
        });
        assert!(p.main().is_some());
        assert!(p.proc("main").is_some());
        assert!(p.proc("other").is_none());
        assert!(p.global("g").is_none());
    }
}
