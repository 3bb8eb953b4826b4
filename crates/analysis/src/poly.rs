//! Multivariate integer polynomials over procedure entry slots.
//!
//! These are the canonical form behind the paper's *polynomial parameter
//! jump function*: an actual parameter expressible as a polynomial in the
//! caller's entry values (formals and globals) is transmitted
//! symbolically. Arithmetic is wrapping `i64`, matching the language
//! semantics, so folding a polynomial at a call site produces exactly the
//! value the program would compute.
//!
//! Sizes are bounded ([`MAX_TERMS`], [`MAX_DEGREE`]): operations that
//! would exceed the bounds return `None`, and the symbolic layer falls
//! back to an opaque expression node.

use crate::modref::Slot;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Maximum number of terms a polynomial may hold.
pub const MAX_TERMS: usize = 32;
/// Maximum total degree of any monomial.
pub const MAX_DEGREE: u32 = 8;

/// Size bounds for polynomial arithmetic. The defaults are the module
/// constants; fuel-governed callers tighten them so symbolic work
/// shrinks as the budget runs down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolyCaps {
    /// Maximum number of terms a result may hold.
    pub max_terms: usize,
    /// Maximum total degree of any monomial in a result.
    pub max_degree: u32,
}

impl Default for PolyCaps {
    fn default() -> Self {
        PolyCaps {
            max_terms: MAX_TERMS,
            max_degree: MAX_DEGREE,
        }
    }
}

/// A power product of slots, e.g. `arg0^2 * g3`. The empty monomial is
/// the constant term.
///
/// Up to two factors are held inline; longer products spill to the heap.
/// Equality, order, hashing and `Debug` see only the sorted factor slice,
/// whichever storage holds it.
#[derive(Clone, Default)]
pub struct Monomial {
    factors: Factors,
}

/// The factor storage of a [`Monomial`]: `(slot, exponent)` pairs,
/// sorted by slot, exponents ≥ 1.
#[derive(Clone)]
enum Factors {
    /// At most two factors; entries past `len` are unused.
    Inline { len: u8, buf: [(Slot, u32); 2] },
    /// Three or more factors.
    Heap(Vec<(Slot, u32)>),
}

impl Default for Factors {
    fn default() -> Self {
        Factors::Inline {
            len: 0,
            buf: [(Slot::Result, 0); 2],
        }
    }
}

impl Factors {
    fn as_slice(&self) -> &[(Slot, u32)] {
        match self {
            Factors::Inline { len, buf } => &buf[..usize::from(*len)],
            Factors::Heap(v) => v,
        }
    }

    /// Appends a factor whose slot is greater than every slot held.
    fn push(&mut self, factor: (Slot, u32), capacity: usize) {
        match self {
            Factors::Inline { len, buf } if usize::from(*len) < buf.len() => {
                buf[usize::from(*len)] = factor;
                *len += 1;
            }
            Factors::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(capacity.max(buf.len() + 1));
                v.extend_from_slice(buf);
                v.push(factor);
                *self = Factors::Heap(v);
            }
            Factors::Heap(v) => v.push(factor),
        }
    }
}

impl Monomial {
    /// The constant monomial (degree 0).
    pub fn unit() -> Self {
        Monomial::default()
    }

    /// The monomial `slot^1`.
    pub fn var(slot: Slot) -> Self {
        let mut m = Monomial::unit();
        m.factors.push((slot, 1), 1);
        m
    }

    /// Total degree.
    pub fn degree(&self) -> u32 {
        self.factors().iter().map(|&(_, e)| e).sum()
    }

    /// Product of two monomials.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let (a, b) = (self.factors(), other.factors());
        let capacity = a.len() + b.len();
        let mut out = Monomial::unit();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let factor = match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    i += 1;
                    a[i - 1]
                }
                Ordering::Greater => {
                    j += 1;
                    b[j - 1]
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (a[i - 1].0, a[i - 1].1 + b[j - 1].1)
                }
            };
            out.factors.push(factor, capacity);
        }
        for &factor in a[i..].iter().chain(&b[j..]) {
            out.factors.push(factor, capacity);
        }
        out
    }

    /// The factors, sorted by slot.
    pub fn factors(&self) -> &[(Slot, u32)] {
        self.factors.as_slice()
    }

    /// The monomial with `factors`, or `None` unless they are canonical:
    /// slots strictly increasing, every exponent at least 1, total degree
    /// within [`MAX_DEGREE`]. The codec's entry point, so decoded bytes
    /// can never build a monomial arithmetic would not.
    pub(crate) fn from_factors(factors: &[(Slot, u32)]) -> Option<Monomial> {
        let degree = factors.iter().try_fold(0u32, |d, &(_, e)| {
            (e >= 1).then(|| d.checked_add(e)).flatten()
        });
        let canonical =
            factors.windows(2).all(|w| w[0].0 < w[1].0) && degree.is_some_and(|d| d <= MAX_DEGREE);
        if !canonical {
            return None;
        }
        let mut m = Monomial::unit();
        for &factor in factors {
            m.factors.push(factor, factors.len());
        }
        Some(m)
    }

    /// Evaluates with wrapping arithmetic; `None` if any slot is unmapped.
    pub fn eval(&self, env: &dyn Fn(Slot) -> Option<i64>) -> Option<i64> {
        let mut acc = 1i64;
        for &(s, e) in self.factors() {
            let v = env(s)?;
            for _ in 0..e {
                acc = acc.wrapping_mul(v);
            }
        }
        Some(acc)
    }
}

impl PartialEq for Monomial {
    fn eq(&self, other: &Self) -> bool {
        self.factors() == other.factors()
    }
}

impl Eq for Monomial {}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    fn cmp(&self, other: &Self) -> Ordering {
        self.factors().cmp(other.factors())
    }
}

impl Hash for Monomial {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.factors().hash(state);
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monomial")
            .field("factors", &self.factors())
            .finish()
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.factors().is_empty() {
            return f.write_str("1");
        }
        for (i, (s, e)) in self.factors().iter().enumerate() {
            if i > 0 {
                f.write_str("*")?;
            }
            if *e == 1 {
                write!(f, "{s}")?;
            } else {
                write!(f, "{s}^{e}")?;
            }
        }
        Ok(())
    }
}

/// A multivariate polynomial with `i64` coefficients (wrapping).
///
/// Terms are kept sorted by monomial, with cancelled terms removed. A
/// one-term polynomial (a constant or a pass-through slot, the shapes
/// jump functions nearly always take) is held inline; others keep their
/// terms in one vector, which the zero polynomial leaves unallocated.
/// Equality, hashing and `Debug` see only the sorted term slice,
/// whichever storage holds it; `Debug` renders it as a map.
#[derive(Clone, Default)]
pub struct Poly {
    terms: Terms,
}

/// The term storage of a [`Poly`].
#[derive(Clone)]
enum Terms {
    /// Exactly one term.
    One((Monomial, i64)),
    /// Zero, or two or more, terms.
    Many(Vec<(Monomial, i64)>),
}

impl Default for Terms {
    fn default() -> Self {
        Terms::Many(Vec::new())
    }
}

impl Terms {
    fn as_slice(&self) -> &[(Monomial, i64)] {
        match self {
            Terms::One(t) => std::slice::from_ref(t),
            Terms::Many(v) => v,
        }
    }

    /// Terms from a sorted vector, a single term moved inline.
    fn from_vec(mut v: Vec<(Monomial, i64)>) -> Terms {
        if v.len() == 1 {
            Terms::One(v.pop().expect("one term"))
        } else {
            Terms::Many(v)
        }
    }

    /// Appends a term whose monomial is greater than every one held.
    fn push(&mut self, term: (Monomial, i64), capacity: usize) {
        match self {
            Terms::Many(v) if v.is_empty() => *self = Terms::One(term),
            Terms::Many(v) => v.push(term),
            Terms::One(_) => {
                let mut v = Vec::with_capacity(capacity.max(2));
                if let Terms::One(first) = std::mem::take(self) {
                    v.push(first);
                }
                v.push(term);
                *self = Terms::Many(v);
            }
        }
    }
}

impl Poly {
    /// The constant polynomial `c`.
    pub fn constant(c: i64) -> Poly {
        if c == 0 {
            return Poly::default();
        }
        Poly {
            terms: Terms::One((Monomial::unit(), c)),
        }
    }

    /// The polynomial `slot`.
    pub fn var(slot: Slot) -> Poly {
        Poly {
            terms: Terms::One((Monomial::var(slot), 1)),
        }
    }

    fn term_slice(&self) -> &[(Monomial, i64)] {
        self.terms.as_slice()
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.term_slice().is_empty()
    }

    /// The constant value, if this polynomial is constant.
    pub fn as_const(&self) -> Option<i64> {
        match self.term_slice() {
            [] => Some(0),
            [(m, c)] if m.degree() == 0 => Some(*c),
            _ => None,
        }
    }

    /// The single slot, if this polynomial is exactly `1 * slot` — the
    /// shape the *pass-through parameter jump function* transmits.
    pub fn as_var(&self) -> Option<Slot> {
        match self.term_slice() {
            [(m, 1)] => match m.factors() {
                &[(slot, 1)] => Some(slot),
                _ => None,
            },
            _ => None,
        }
    }

    /// Number of terms.
    pub fn term_count(&self) -> usize {
        self.term_slice().len()
    }

    /// Total degree (0 for constants and zero).
    pub fn degree(&self) -> u32 {
        self.term_slice()
            .iter()
            .map(|(m, _)| m.degree())
            .max()
            .unwrap_or(0)
    }

    /// The slots this polynomial depends on (the jump function's
    /// *support*).
    pub fn support(&self) -> BTreeSet<Slot> {
        self.term_slice()
            .iter()
            .flat_map(|(m, _)| m.factors())
            .map(|&(slot, _)| slot)
            .collect()
    }

    /// Sum, or `None` if the result would exceed [`MAX_TERMS`].
    pub fn checked_add(&self, other: &Poly) -> Option<Poly> {
        self.checked_add_with(other, &PolyCaps::default())
    }

    /// Sum under explicit size bounds.
    pub fn checked_add_with(&self, other: &Poly, caps: &PolyCaps) -> Option<Poly> {
        let (a, b) = (self.term_slice(), other.term_slice());
        let capacity = a.len() + b.len();
        let mut terms = Terms::default();
        let mut len = 0;
        let (mut i, mut j) = (0, 0);
        // A sorted merge; the result only grows, so it fails as soon as
        // it passes the term cap.
        while i < a.len() || j < b.len() {
            let order = match (a.get(i), b.get(j)) {
                (Some((ma, _)), Some((mb, _))) => ma.cmp(mb),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            let term = match order {
                Ordering::Less => {
                    i += 1;
                    a[i - 1].clone()
                }
                Ordering::Greater => {
                    j += 1;
                    b[j - 1].clone()
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    let v = a[i - 1].1.wrapping_add(b[j - 1].1);
                    if v == 0 {
                        continue;
                    }
                    (a[i - 1].0.clone(), v)
                }
            };
            len += 1;
            if len > caps.max_terms {
                return None;
            }
            terms.push(term, capacity);
        }
        Some(Poly { terms })
    }

    /// Negation.
    #[must_use]
    pub fn neg(&self) -> Poly {
        let terms = match &self.terms {
            Terms::One((m, c)) => Terms::One((m.clone(), c.wrapping_neg())),
            Terms::Many(v) => Terms::Many(
                v.iter()
                    .map(|(m, c)| (m.clone(), c.wrapping_neg()))
                    .collect(),
            ),
        };
        Poly { terms }
    }

    /// Difference, or `None` on overflow of the term bound.
    pub fn checked_sub(&self, other: &Poly) -> Option<Poly> {
        self.checked_add(&other.neg())
    }

    /// Difference under explicit size bounds.
    pub fn checked_sub_with(&self, other: &Poly, caps: &PolyCaps) -> Option<Poly> {
        self.checked_add_with(&other.neg(), caps)
    }

    /// Product, or `None` if the result would exceed [`MAX_TERMS`] or
    /// [`MAX_DEGREE`].
    pub fn checked_mul(&self, other: &Poly) -> Option<Poly> {
        self.checked_mul_with(other, &PolyCaps::default())
    }

    /// Product under explicit size bounds.
    ///
    /// Term products accumulate in row-major order (each term of `self`
    /// against every term of `other`), and the product fails as soon as
    /// the *intermediate* term count passes the cap, even if later
    /// cancellation would bring it back under. A product coefficient that
    /// wraps to zero still enters as a term; only cancellation between
    /// products removes one.
    pub fn checked_mul_with(&self, other: &Poly, caps: &PolyCaps) -> Option<Poly> {
        let (a, b) = (self.term_slice(), other.term_slice());
        let mut acc: Vec<(Monomial, i64)> = Vec::new();
        for (ma, ca) in a {
            for (mb, cb) in b {
                let m = ma.mul(mb);
                if m.degree() > caps.max_degree {
                    return None;
                }
                let c = ca.wrapping_mul(*cb);
                match acc.binary_search_by(|(t, _)| t.cmp(&m)) {
                    Err(at) => acc.insert(at, (m, c)),
                    Ok(at) => {
                        let v = acc[at].1.wrapping_add(c);
                        if v == 0 {
                            acc.remove(at);
                        } else {
                            acc[at].1 = v;
                        }
                    }
                }
                if acc.len() > caps.max_terms {
                    return None;
                }
            }
        }
        Some(Poly {
            terms: Terms::from_vec(acc),
        })
    }

    /// Evaluates with wrapping arithmetic; `None` if any needed slot is
    /// unmapped.
    pub fn eval(&self, env: &dyn Fn(Slot) -> Option<i64>) -> Option<i64> {
        let mut acc = 0i64;
        for (m, c) in self.term_slice() {
            acc = acc.wrapping_add(c.wrapping_mul(m.eval(env)?));
        }
        Some(acc)
    }

    /// Iterates over `(monomial, coefficient)` terms.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, i64)> {
        self.term_slice().iter().map(|(m, c)| (m, *c))
    }

    /// The polynomial with `terms`, or `None` unless they are canonical:
    /// at most [`MAX_TERMS`] of them, monomials strictly increasing, no
    /// zero coefficient. The codec's entry point (see
    /// [`Monomial::from_factors`]).
    pub(crate) fn from_terms(terms: Vec<(Monomial, i64)>) -> Option<Poly> {
        let canonical = terms.len() <= MAX_TERMS
            && terms.windows(2).all(|w| w[0].0 < w[1].0)
            && terms.iter().all(|&(_, c)| c != 0);
        canonical.then(|| Poly {
            terms: Terms::from_vec(terms),
        })
    }
}

impl PartialEq for Poly {
    fn eq(&self, other: &Self) -> bool {
        self.term_slice() == other.term_slice()
    }
}

impl Eq for Poly {}

impl Hash for Poly {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.term_slice().hash(state);
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// The term slice rendered as the map it reads as.
        struct TermMap<'a>(&'a [(Monomial, i64)]);
        impl fmt::Debug for TermMap<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(m, c)| (m, c)))
                    .finish()
            }
        }
        f.debug_struct("Poly")
            .field("terms", &TermMap(self.term_slice()))
            .finish()
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        for (i, (m, c)) in self.term_slice().iter().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            if m.degree() == 0 {
                write!(f, "{c}")?;
            } else if *c == 1 {
                write!(f, "{m}")?;
            } else {
                write!(f, "{c}*{m}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::GlobalId;

    fn x() -> Poly {
        Poly::var(Slot::Formal(0))
    }

    fn y() -> Poly {
        Poly::var(Slot::Global(GlobalId(0)))
    }

    #[test]
    fn constants() {
        assert_eq!(Poly::constant(0), Poly::default());
        assert!(Poly::constant(0).is_zero());
        assert_eq!(Poly::constant(5).as_const(), Some(5));
        assert_eq!(Poly::constant(0).as_const(), Some(0));
        assert_eq!(x().as_const(), None);
    }

    #[test]
    fn pass_through_shape() {
        assert_eq!(x().as_var(), Some(Slot::Formal(0)));
        assert_eq!(Poly::constant(3).as_var(), None);
        let two_x = x().checked_add(&x()).unwrap();
        assert_eq!(two_x.as_var(), None, "2*x is not a pass-through");
        let x_plus_1 = x().checked_add(&Poly::constant(1)).unwrap();
        assert_eq!(x_plus_1.as_var(), None);
    }

    #[test]
    fn ring_identities() {
        let p = x()
            .checked_mul(&y())
            .unwrap()
            .checked_add(&Poly::constant(2))
            .unwrap();
        // p + 0 = p; p * 1 = p; p * 0 = 0; p - p = 0.
        assert_eq!(p.checked_add(&Poly::constant(0)).unwrap(), p);
        assert_eq!(p.checked_mul(&Poly::constant(1)).unwrap(), p);
        assert!(p.checked_mul(&Poly::constant(0)).unwrap().is_zero());
        assert!(p.checked_sub(&p).unwrap().is_zero());
        // Commutativity.
        assert_eq!(x().checked_add(&y()), y().checked_add(&x()));
        assert_eq!(x().checked_mul(&y()), y().checked_mul(&x()));
    }

    #[test]
    fn distribution() {
        // (x + 1) * (x - 1) = x^2 - 1
        let a = x().checked_add(&Poly::constant(1)).unwrap();
        let b = x().checked_sub(&Poly::constant(1)).unwrap();
        let prod = a.checked_mul(&b).unwrap();
        let x2 = x().checked_mul(&x()).unwrap();
        let expect = x2.checked_sub(&Poly::constant(1)).unwrap();
        assert_eq!(prod, expect);
        assert_eq!(prod.degree(), 2);
    }

    #[test]
    fn eval_wrapping() {
        // 2*x + 3 at x = i64::MAX wraps.
        let p = x()
            .checked_mul(&Poly::constant(2))
            .unwrap()
            .checked_add(&Poly::constant(3))
            .unwrap();
        let env = |s: Slot| {
            if s == Slot::Formal(0) {
                Some(i64::MAX)
            } else {
                None
            }
        };
        let expect = i64::MAX.wrapping_mul(2).wrapping_add(3);
        assert_eq!(p.eval(&env), Some(expect));
    }

    #[test]
    fn eval_missing_slot() {
        let p = x().checked_add(&y()).unwrap();
        let env = |s: Slot| if s == Slot::Formal(0) { Some(1) } else { None };
        assert_eq!(p.eval(&env), None);
        assert_eq!(Poly::constant(7).eval(&|_| None), Some(7));
    }

    #[test]
    fn support_tracks_slots() {
        let p = x()
            .checked_mul(&y())
            .unwrap()
            .checked_add(&Poly::constant(4))
            .unwrap();
        let s = p.support();
        assert_eq!(s.len(), 2);
        assert!(s.contains(&Slot::Formal(0)));
        assert!(s.contains(&Slot::Global(GlobalId(0))));
        assert!(Poly::constant(1).support().is_empty());
    }

    #[test]
    fn cancellation_removes_terms() {
        let p = x().checked_add(&Poly::constant(1)).unwrap();
        let q = x().neg();
        let sum = p.checked_add(&q).unwrap();
        assert_eq!(sum.as_const(), Some(1));
        assert_eq!(sum.term_count(), 1);
    }

    #[test]
    fn wrapping_agrees_with_interpreter_on_min_edges() {
        use ipcp_lang::ast::BinOp;
        use ipcp_lang::interp::eval_binop_int;
        // Polynomial arithmetic is wrapping i64, exactly like the runtime:
        // any disagreement here would let the Poly jump functions prove a
        // "constant" the program never computes.
        let min = Poly::constant(i64::MIN);
        let cases = [
            (BinOp::Mul, i64::MIN, -1),
            (BinOp::Add, i64::MIN, i64::MIN),
            (BinOp::Sub, 0, i64::MIN),
            (BinOp::Mul, i64::MAX, i64::MAX),
        ];
        for (op, a, b) in cases {
            let pa = Poly::constant(a);
            let pb = Poly::constant(b);
            let got = match op {
                BinOp::Add => pa.checked_add(&pb),
                BinOp::Sub => pa.checked_sub(&pb),
                BinOp::Mul => pa.checked_mul(&pb),
                _ => unreachable!(),
            }
            .unwrap();
            let want = eval_binop_int(op, a, b).unwrap();
            assert_eq!(got.as_const(), Some(want), "{op:?} {a} {b}");
        }
        // Negation of i64::MIN wraps back to i64::MIN.
        assert_eq!(min.neg().as_const(), Some(i64::MIN));
        // Evaluation at i64::MIN wraps too: (-1) * x at x = MIN is MIN.
        let p = x().checked_mul(&Poly::constant(-1)).unwrap();
        let env = |s: Slot| (s == Slot::Formal(0)).then_some(i64::MIN);
        assert_eq!(p.eval(&env), Some(i64::MIN));
    }

    #[test]
    fn division_is_not_a_ring_op() {
        // Poly deliberately has no division: `/` and `%` only enter symbolic
        // jump functions through guarded constant folding (see symexpr), so
        // a divide whose RHS could be zero is never folded away.
        use ipcp_lang::ast::BinOp;
        use ipcp_lang::interp::eval_binop_int;
        assert!(eval_binop_int(BinOp::Div, 1, 0).is_err());
        assert!(eval_binop_int(BinOp::Rem, 1, 0).is_err());
        assert_eq!(eval_binop_int(BinOp::Div, i64::MIN, -1), Ok(i64::MIN));
        assert_eq!(eval_binop_int(BinOp::Rem, i64::MIN, -1), Ok(0));
        assert_eq!(eval_binop_int(BinOp::Div, -7, 2), Ok(-3));
        assert_eq!(eval_binop_int(BinOp::Rem, -7, 2), Ok(-1));
    }

    #[test]
    fn degree_cap_enforced() {
        // x^(MAX_DEGREE+1) fails.
        let mut p = x();
        let mut ok = true;
        for _ in 0..MAX_DEGREE {
            match p.checked_mul(&x()) {
                Some(q) => p = q,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        assert!(!ok || p.degree() == MAX_DEGREE);
        assert!(p.checked_mul(&x()).is_none());
    }

    #[test]
    fn term_cap_enforced() {
        // Product of (x0 + 1)(x1 + 1)...(x5 + 1) has 2^6 = 64 terms > MAX.
        let mut p = Poly::constant(1);
        let mut capped = false;
        for i in 0..6 {
            let factor = Poly::var(Slot::Formal(i))
                .checked_add(&Poly::constant(1))
                .unwrap();
            match p.checked_mul(&factor) {
                Some(q) => p = q,
                None => {
                    capped = true;
                    break;
                }
            }
        }
        assert!(capped, "term bound must trigger");
    }

    #[test]
    fn tightened_caps_reject_what_defaults_allow() {
        let tight = PolyCaps {
            max_terms: 1,
            max_degree: 1,
        };
        // x + 1 has two terms: fine by default, rejected under the cap.
        assert!(x().checked_add(&Poly::constant(1)).is_some());
        assert!(x().checked_add_with(&Poly::constant(1), &tight).is_none());
        // x * x has degree 2: fine by default, rejected under the cap.
        assert!(x().checked_mul(&x()).is_some());
        assert!(x().checked_mul_with(&x(), &tight).is_none());
        // Subtraction shares the add path.
        assert!(x().checked_sub_with(&Poly::constant(1), &tight).is_none());
        // Results within the caps still succeed.
        assert_eq!(
            x().checked_mul_with(&Poly::constant(2), &tight)
                .unwrap()
                .term_count(),
            1
        );
    }

    #[test]
    fn display_readable() {
        let p = x()
            .checked_mul(&x())
            .unwrap()
            .checked_mul(&Poly::constant(3))
            .unwrap()
            .checked_add(&y())
            .unwrap()
            .checked_add(&Poly::constant(-2))
            .unwrap();
        let s = p.to_string();
        assert!(s.contains("3*arg0^2"), "{s}");
        assert!(s.contains("g0"), "{s}");
        assert_eq!(Poly::constant(0).to_string(), "0");
        assert_eq!(Monomial::unit().to_string(), "1");
    }
}
