//! Jump function representations (paper §2–3).
//!
//! A forward jump function `J_y^s` gives the value of actual parameter
//! `y` at call site `s` as a function of the *calling* procedure's entry
//! slots. The four implementations studied, in increasing precision and
//! cost:
//!
//! 1. [`JumpFunctionKind::Literal`] — constant only when the actual is a
//!    source literal; misses globals entirely (§3.1.1);
//! 2. [`JumpFunctionKind::IntraproceduralConstant`] — constant when
//!    intraprocedural propagation (plus MOD information) proves it
//!    (§3.1.2);
//! 3. [`JumpFunctionKind::PassThrough`] — additionally transmits an
//!    unmodified entry slot symbolically (§3.1.3);
//! 4. [`JumpFunctionKind::Polynomial`] — transmits any expressible
//!    function of the entry slots (§3.1.4; like the paper's
//!    implementation, ours supports all integer operations via expression
//!    trees, with polynomials as the canonical fragment).
//!
//! The same representation serves as the *return* jump function `R_x^p`,
//! expressed over the callee's own entry slots (§3.2).

use ipcp_analysis::symeval::Sym;
use ipcp_analysis::{LatticeVal, Slot, SymExpr};
use std::collections::BTreeSet;
use std::fmt;

/// Which forward jump function implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JumpFunctionKind {
    /// §3.1.1 — source literals at the call site only.
    Literal,
    /// §3.1.2 — intraprocedural constants (and constant globals).
    IntraproceduralConstant,
    /// §3.1.3 — constants plus unmodified pass-through slots.
    PassThrough,
    /// §3.1.4 — full polynomial/expression jump functions.
    Polynomial,
}

impl JumpFunctionKind {
    /// All kinds, in increasing precision order.
    pub const ALL: [JumpFunctionKind; 4] = [
        JumpFunctionKind::Literal,
        JumpFunctionKind::IntraproceduralConstant,
        JumpFunctionKind::PassThrough,
        JumpFunctionKind::Polynomial,
    ];
}

impl fmt::Display for JumpFunctionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JumpFunctionKind::Literal => "literal",
            JumpFunctionKind::IntraproceduralConstant => "intraprocedural",
            JumpFunctionKind::PassThrough => "pass-through",
            JumpFunctionKind::Polynomial => "polynomial",
        };
        f.write_str(s)
    }
}

/// A jump function: the value of one callee slot as a function of the
/// caller's entry slots (or, for return jump functions, of the callee's
/// own entry slots).
#[derive(Debug, Clone, PartialEq)]
pub enum JumpFn {
    /// A known constant.
    Const(i64),
    /// Exactly the value of one entry slot (the pass-through shape).
    PassThrough(Slot),
    /// A general expression over entry slots.
    Expr(SymExpr),
    /// Unknown / not representable at the chosen kind — evaluates to ⊥.
    Bottom,
}

impl JumpFn {
    /// Builds a jump function of the requested `kind` from a symbolic
    /// value. The [`JumpFunctionKind::Literal`] kind is *not* handled
    /// here — literalness is a syntactic property of the call site, not
    /// of the symbolic value (see the forward builder).
    pub fn from_sym(kind: JumpFunctionKind, sym: &Sym) -> JumpFn {
        let Some(expr) = sym.as_expr() else {
            return JumpFn::Bottom;
        };
        if let Some(c) = expr.as_const() {
            return JumpFn::Const(c);
        }
        match kind {
            JumpFunctionKind::Literal | JumpFunctionKind::IntraproceduralConstant => JumpFn::Bottom,
            JumpFunctionKind::PassThrough => match expr.as_var() {
                Some(slot) => JumpFn::PassThrough(slot),
                None => JumpFn::Bottom,
            },
            JumpFunctionKind::Polynomial => JumpFn::Expr(expr.clone()),
        }
    }

    /// The paper's *support*: the exact set of entry slots whose values
    /// the jump function reads.
    pub fn support(&self) -> BTreeSet<Slot> {
        match self {
            JumpFn::Const(_) | JumpFn::Bottom => BTreeSet::new(),
            JumpFn::PassThrough(s) => std::iter::once(*s).collect(),
            JumpFn::Expr(e) => e.support(),
        }
    }

    /// Evaluates over the constant lattice given the caller's entry
    /// values.
    pub fn eval_lattice(&self, env: &dyn Fn(Slot) -> LatticeVal) -> LatticeVal {
        match self {
            JumpFn::Const(c) => LatticeVal::Const(*c),
            JumpFn::PassThrough(s) => env(*s),
            JumpFn::Expr(e) => e.eval_lattice(env),
            JumpFn::Bottom => LatticeVal::Bottom,
        }
    }

    /// The constant, if this jump function is one.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            JumpFn::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Whether this jump function is ⊥.
    pub fn is_bottom(&self) -> bool {
        matches!(self, JumpFn::Bottom)
    }

    /// Converts into the underlying symbolic expression, when one exists.
    pub fn to_expr(&self) -> Option<SymExpr> {
        match self {
            JumpFn::Const(c) => Some(SymExpr::constant(*c)),
            JumpFn::PassThrough(s) => Some(SymExpr::var(*s)),
            JumpFn::Expr(e) => Some(e.clone()),
            JumpFn::Bottom => None,
        }
    }
}

impl fmt::Display for JumpFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JumpFn::Const(c) => write!(f, "{c}"),
            JumpFn::PassThrough(s) => write!(f, "{s}"),
            JumpFn::Expr(e) => write!(f, "{e}"),
            JumpFn::Bottom => f.write_str("⊥"),
        }
    }
}

/// Process-wide high-water mark of the largest return-jump-function
/// table, in entries (see [`arena_high_water`]).
static ARENA_HIGH_WATER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// The largest return-jump-function table built by this process so far,
/// in jump functions across all its procedures — the high-water mark
/// surfaced by `--timings` and `ipcp metrics`.
pub fn arena_high_water() -> usize {
    ARENA_HIGH_WATER.load(std::sync::atomic::Ordering::Relaxed)
}

/// Raises [`arena_high_water`] to `entries` if that is higher.
pub(crate) fn note_table_size(entries: usize) {
    ARENA_HIGH_WATER.fetch_max(entries, std::sync::atomic::Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_lang::ast::BinOp;

    fn sym_var(slot: Slot) -> Sym {
        Sym::Expr(SymExpr::var(slot))
    }

    fn sym_expr() -> Sym {
        Sym::Expr(
            SymExpr::binop(
                BinOp::Add,
                &SymExpr::var(Slot::Formal(0)),
                &SymExpr::constant(1),
            )
            .unwrap(),
        )
    }

    #[test]
    fn kinds_ordered_by_precision() {
        use JumpFunctionKind::*;
        assert!(Literal < IntraproceduralConstant);
        assert!(IntraproceduralConstant < PassThrough);
        assert!(PassThrough < Polynomial);
        assert_eq!(JumpFunctionKind::ALL.len(), 4);
    }

    #[test]
    fn constants_survive_every_kind() {
        for kind in JumpFunctionKind::ALL {
            let jf = JumpFn::from_sym(kind, &Sym::constant(7));
            assert_eq!(jf.as_const(), Some(7), "{kind}");
        }
    }

    #[test]
    fn bottom_sym_is_bottom_everywhere() {
        for kind in JumpFunctionKind::ALL {
            assert!(JumpFn::from_sym(kind, &Sym::Bottom).is_bottom(), "{kind}");
        }
    }

    #[test]
    fn pass_through_needs_pass_through_kind() {
        let v = sym_var(Slot::Formal(2));
        assert!(JumpFn::from_sym(JumpFunctionKind::IntraproceduralConstant, &v).is_bottom());
        assert_eq!(
            JumpFn::from_sym(JumpFunctionKind::PassThrough, &v),
            JumpFn::PassThrough(Slot::Formal(2))
        );
        // Polynomial represents it too (as an expression).
        let p = JumpFn::from_sym(JumpFunctionKind::Polynomial, &v);
        assert_eq!(p.support().len(), 1);
    }

    #[test]
    fn expressions_need_polynomial_kind() {
        let e = sym_expr();
        assert!(JumpFn::from_sym(JumpFunctionKind::PassThrough, &e).is_bottom());
        let p = JumpFn::from_sym(JumpFunctionKind::Polynomial, &e);
        assert!(matches!(p, JumpFn::Expr(_)));
        assert_eq!(
            p.eval_lattice(&|_| LatticeVal::Const(4)),
            LatticeVal::Const(5)
        );
    }

    #[test]
    fn support_matches_definition() {
        assert!(JumpFn::Const(3).support().is_empty());
        assert!(JumpFn::Bottom.support().is_empty());
        assert_eq!(JumpFn::PassThrough(Slot::Formal(1)).support().len(), 1);
        let p = JumpFn::from_sym(JumpFunctionKind::Polynomial, &sym_expr());
        assert!(p.support().contains(&Slot::Formal(0)));
    }

    #[test]
    fn eval_lattice_levels() {
        use LatticeVal::*;
        let pt = JumpFn::PassThrough(Slot::Formal(0));
        assert_eq!(pt.eval_lattice(&|_| Const(9)), Const(9));
        assert_eq!(pt.eval_lattice(&|_| Top), Top);
        assert_eq!(pt.eval_lattice(&|_| Bottom), Bottom);
        assert_eq!(JumpFn::Bottom.eval_lattice(&|_| Top), Bottom);
        assert_eq!(JumpFn::Const(2).eval_lattice(&|_| Bottom), Const(2));
    }

    #[test]
    fn to_expr_roundtrip() {
        assert_eq!(JumpFn::Const(4).to_expr().unwrap().as_const(), Some(4));
        assert_eq!(
            JumpFn::PassThrough(Slot::Formal(0))
                .to_expr()
                .unwrap()
                .as_var(),
            Some(Slot::Formal(0))
        );
        assert!(JumpFn::Bottom.to_expr().is_none());
    }

    #[test]
    fn display() {
        assert_eq!(JumpFn::Const(3).to_string(), "3");
        assert_eq!(JumpFn::PassThrough(Slot::Formal(0)).to_string(), "arg0");
        assert_eq!(JumpFn::Bottom.to_string(), "⊥");
        assert_eq!(JumpFunctionKind::PassThrough.to_string(), "pass-through");
    }
}
