//! Property pin for the compact polynomial representation.
//!
//! [`reference`] is the map-based `Poly` the compact one replaced: a
//! `BTreeMap<Monomial, i64>` over `Vec<(Slot, u32)>` factor lists, with
//! the same type and field names so its derived `Debug` and `Hash` are
//! the ones the old type had. Over random polynomials on one to four
//! slots, under default and tightened [`PolyCaps`], every operation of
//! the compact type must agree with it: the same value or the same
//! `None`, the same queries, and the same `Display`, `Debug`, `Eq`, `Ord`
//! and `Hash`. Coefficients include values whose products wrap to zero,
//! so the zero-coefficient terms the arithmetic can produce are covered.

use ipcp_analysis::poly::{Monomial, Poly, PolyCaps};
use ipcp_analysis::Slot;
use ipcp_ir::GlobalId;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The pre-compaction polynomial arithmetic, verbatim.
mod reference {
    use ipcp_analysis::poly::PolyCaps;
    use ipcp_analysis::Slot;
    use std::collections::btree_map::Entry;
    use std::collections::{BTreeMap, BTreeSet};
    use std::fmt;

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub struct Monomial {
        pub factors: Vec<(Slot, u32)>,
    }

    impl Monomial {
        pub fn degree(&self) -> u32 {
            self.factors.iter().map(|&(_, e)| e).sum()
        }

        pub fn mul(&self, other: &Monomial) -> Monomial {
            let mut factors: BTreeMap<Slot, u32> = self.factors.iter().copied().collect();
            for &(s, e) in &other.factors {
                *factors.entry(s).or_insert(0) += e;
            }
            Monomial {
                factors: factors.into_iter().collect(),
            }
        }

        pub fn eval(&self, env: &dyn Fn(Slot) -> Option<i64>) -> Option<i64> {
            let mut acc = 1i64;
            for &(s, e) in &self.factors {
                let v = env(s)?;
                for _ in 0..e {
                    acc = acc.wrapping_mul(v);
                }
            }
            Some(acc)
        }
    }

    impl fmt::Display for Monomial {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.factors.is_empty() {
                return f.write_str("1");
            }
            for (i, (s, e)) in self.factors.iter().enumerate() {
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

    #[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
    pub struct Poly {
        pub terms: BTreeMap<Monomial, i64>,
    }

    impl Poly {
        pub fn constant(c: i64) -> Poly {
            let mut terms = BTreeMap::new();
            if c != 0 {
                terms.insert(Monomial::default(), c);
            }
            Poly { terms }
        }

        pub fn var(slot: Slot) -> Poly {
            let mut terms = BTreeMap::new();
            terms.insert(
                Monomial {
                    factors: vec![(slot, 1)],
                },
                1,
            );
            Poly { terms }
        }

        pub fn as_const(&self) -> Option<i64> {
            match self.terms.len() {
                0 => Some(0),
                1 => {
                    let (m, &c) = self.terms.iter().next().expect("one term");
                    if m.degree() == 0 {
                        Some(c)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }

        pub fn as_var(&self) -> Option<Slot> {
            if self.terms.len() != 1 {
                return None;
            }
            let (m, &c) = self.terms.iter().next().expect("one term");
            if c == 1 && m.factors.len() == 1 && m.factors[0].1 == 1 {
                Some(m.factors[0].0)
            } else {
                None
            }
        }

        pub fn degree(&self) -> u32 {
            self.terms.keys().map(Monomial::degree).max().unwrap_or(0)
        }

        pub fn support(&self) -> BTreeSet<Slot> {
            let mut s = BTreeSet::new();
            for m in self.terms.keys() {
                for &(slot, _) in &m.factors {
                    s.insert(slot);
                }
            }
            s
        }

        pub fn checked_add_with(&self, other: &Poly, caps: &PolyCaps) -> Option<Poly> {
            let mut terms = self.terms.clone();
            for (m, &c) in &other.terms {
                match terms.entry(m.clone()) {
                    Entry::Vacant(e) => {
                        e.insert(c);
                    }
                    Entry::Occupied(mut e) => {
                        let v = e.get().wrapping_add(c);
                        if v == 0 {
                            e.remove();
                        } else {
                            *e.get_mut() = v;
                        }
                    }
                }
            }
            if terms.len() > caps.max_terms {
                None
            } else {
                Some(Poly { terms })
            }
        }

        pub fn neg(&self) -> Poly {
            Poly {
                terms: self
                    .terms
                    .iter()
                    .map(|(m, &c)| (m.clone(), c.wrapping_neg()))
                    .collect(),
            }
        }

        pub fn checked_sub_with(&self, other: &Poly, caps: &PolyCaps) -> Option<Poly> {
            self.checked_add_with(&other.neg(), caps)
        }

        pub fn checked_mul_with(&self, other: &Poly, caps: &PolyCaps) -> Option<Poly> {
            let mut terms: BTreeMap<Monomial, i64> = BTreeMap::new();
            for (ma, &ca) in &self.terms {
                for (mb, &cb) in &other.terms {
                    let m = ma.mul(mb);
                    if m.degree() > caps.max_degree {
                        return None;
                    }
                    let c = ca.wrapping_mul(cb);
                    match terms.entry(m) {
                        Entry::Vacant(e) => {
                            e.insert(c);
                        }
                        Entry::Occupied(mut e) => {
                            let v = e.get().wrapping_add(c);
                            if v == 0 {
                                e.remove();
                            } else {
                                *e.get_mut() = v;
                            }
                        }
                    }
                    if terms.len() > caps.max_terms {
                        return None;
                    }
                }
            }
            Some(Poly { terms })
        }

        pub fn eval(&self, env: &dyn Fn(Slot) -> Option<i64>) -> Option<i64> {
            let mut acc = 0i64;
            for (m, &c) in &self.terms {
                acc = acc.wrapping_add(c.wrapping_mul(m.eval(env)?));
            }
            Some(acc)
        }
    }

    impl fmt::Display for Poly {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.terms.is_empty() {
                return f.write_str("0");
            }
            for (i, (m, c)) in self.terms.iter().enumerate() {
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
}

/// The slots random polynomials range over; a case uses a prefix of one
/// to four of them.
const SLOTS: [Slot; 4] = [
    Slot::Formal(0),
    Slot::Formal(2),
    Slot::Global(GlobalId(1)),
    Slot::Result,
];

/// Default caps, the tightest fuel caps, and shapes in between.
const CAPS: [PolyCaps; 5] = [
    PolyCaps {
        max_terms: 32,
        max_degree: 8,
    },
    PolyCaps {
        max_terms: 1,
        max_degree: 1,
    },
    PolyCaps {
        max_terms: 2,
        max_degree: 2,
    },
    PolyCaps {
        max_terms: 3,
        max_degree: 8,
    },
    PolyCaps {
        max_terms: 32,
        max_degree: 1,
    },
];

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Asserts that `new` and `old` are the same polynomial by every
/// observation the public API offers.
fn assert_same(new: &Poly, old: &reference::Poly) {
    assert_eq!(format!("{new:?}"), format!("{old:?}"));
    assert_eq!(format!("{new:#?}"), format!("{old:#?}"));
    assert_eq!(new.to_string(), old.to_string());
    assert_eq!(hash_of(new), hash_of(old));
    assert_eq!(new.is_zero(), old.terms.is_empty());
    assert_eq!(new.term_count(), old.terms.len());
    assert_eq!(new.as_const(), old.as_const());
    assert_eq!(new.as_var(), old.as_var());
    assert_eq!(new.degree(), old.degree());
    assert_eq!(new.support(), old.support());
    assert_eq!(new.terms().count(), old.terms.len());
    for ((m, c), (om, &oc)) in new.terms().zip(&old.terms) {
        assert_eq!(m.factors(), &om.factors[..]);
        assert_eq!(c, oc);
        assert_eq!(m.degree(), om.degree());
        assert_eq!(m.to_string(), om.to_string());
        assert_eq!(format!("{m:?}"), format!("{om:?}"));
        assert_eq!(hash_of(m), hash_of(om));
    }
}

/// Checks that both sides failed, or both succeeded with the same
/// polynomial; returns the agreed result.
fn agree(
    new: Option<Poly>,
    old: Option<reference::Poly>,
    what: &str,
) -> Option<(Poly, reference::Poly)> {
    match (new, old) {
        (Some(n), Some(o)) => {
            assert_same(&n, &o);
            Some((n, o))
        }
        (None, None) => None,
        (n, o) => panic!("{what}: compact {n:?} vs reference {o:?}"),
    }
}

/// A polynomial recipe: terms of `(coefficient, [(slot index, exponent)])`.
type Recipe = Vec<(i64, Vec<(usize, u32)>)>;

/// Builds a recipe through the public API on both implementations,
/// checking every intermediate step; terms the caps reject are skipped.
fn build(recipe: &Recipe, slots: usize) -> (Poly, reference::Poly) {
    let caps = PolyCaps::default();
    let mut acc = (Poly::constant(0), reference::Poly::constant(0));
    for (c, factors) in recipe {
        let mut term = Some((Poly::constant(*c), reference::Poly::constant(*c)));
        for &(i, e) in factors {
            let slot = SLOTS[i % slots];
            for _ in 0..e {
                term = term.and_then(|(n, o)| {
                    agree(
                        n.checked_mul_with(&Poly::var(slot), &caps),
                        o.checked_mul_with(&reference::Poly::var(slot), &caps),
                        "build mul",
                    )
                });
            }
        }
        if let Some((n, o)) = term {
            if let Some(sum) = agree(
                acc.0.checked_add_with(&n, &caps),
                acc.1.checked_add_with(&o, &caps),
                "build add",
            ) {
                acc = sum;
            }
        }
    }
    acc
}

fn coefficient() -> impl Strategy<Value = i64> {
    prop_oneof![
        3 => -3i64..4,
        1 => prop::sample::select(vec![
            i64::MIN,
            i64::MAX,
            1i64 << 32,
            -(1i64 << 32),
            1i64 << 62,
        ]),
        1 => i64::MIN..i64::MAX,
    ]
}

fn recipe() -> impl Strategy<Value = Recipe> {
    prop::collection::vec(
        (
            coefficient(),
            prop::collection::vec((0usize..4, 1u32..4), 0..4),
        ),
        0..7,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn compact_poly_matches_the_map_reference(
        slots in 1usize..5,
        p in recipe(),
        q in recipe(),
        env in prop::collection::vec(prop::sample::select(vec![
            None, Some(0i64), Some(1), Some(-1), Some(2), Some(7), Some(i64::MIN), Some(1 << 32),
        ]), 4..5),
    ) {
        let (p, op) = build(&p, slots);
        let (q, oq) = build(&q, slots);
        // A product of the two adds wrap-to-zero terms and cross terms.
        let (r, or) = agree(
            p.checked_mul(&q),
            op.checked_mul_with(&oq, &PolyCaps::default()),
            "seed mul",
        )
        .unwrap_or_else(|| (p.clone(), op.clone()));
        let polys = [(&p, &op), (&q, &oq), (&r, &or)];

        for &(a, oa) in &polys {
            assert_same(&a.neg(), &oa.neg());
            let lookup = |s: Slot| env[SLOTS.iter().position(|&t| t == s).expect("known slot")];
            prop_assert_eq!(a.eval(&lookup), oa.eval(&lookup));
            for &(b, ob) in &polys {
                prop_assert_eq!(a == b, oa == ob);
                for caps in &CAPS {
                    agree(a.checked_add_with(b, caps), oa.checked_add_with(ob, caps), "add");
                    agree(a.checked_sub_with(b, caps), oa.checked_sub_with(ob, caps), "sub");
                    agree(a.checked_mul_with(b, caps), oa.checked_mul_with(ob, caps), "mul");
                }
                for ((ma, _), (oma, _)) in a.terms().zip(&oa.terms) {
                    for ((mb, _), (omb, _)) in b.terms().zip(&ob.terms) {
                        prop_assert_eq!(ma.cmp(mb), oma.cmp(omb));
                        prop_assert_eq!(ma == mb, oma == omb);
                        let product: Monomial = ma.mul(mb);
                        let reference = oma.mul(omb);
                        prop_assert_eq!(product.factors(), &reference.factors[..]);
                        prop_assert_eq!(format!("{product:?}"), format!("{reference:?}"));
                    }
                }
            }
        }
        // The default-cap entry points are the explicit-cap ones at the
        // module constants.
        let caps = PolyCaps::default();
        agree(p.checked_add(&q), op.checked_add_with(&oq, &caps), "checked_add");
        agree(p.checked_sub(&q), op.checked_sub_with(&oq, &caps), "checked_sub");
        assert_same(&Poly::default(), &reference::Poly::default());
        for &slot in &SLOTS[..slots] {
            assert_same(&Poly::var(slot), &reference::Poly::var(slot));
        }
    }
}
