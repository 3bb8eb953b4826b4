//! [`Wire`] codec implementations for the analysis-side types that the
//! persistent artifact cache persists: [`Slot`], [`Phase`],
//! [`RobustnessReport`], and the pieces of jump functions — [`Poly`],
//! [`SymExpr`] and [`SlotTable`]. (The trait lives in `ipcp_ir::codec`;
//! these impls live here because the types do.)
//!
//! Decoders rebuild values through the same invariants the analyses
//! keep — sorted tables, canonical polynomials, expressions within
//! [`MAX_NODES`] — so bytes that decode always form a value the
//! analyses could have built; anything else is a [`WireError`].

use crate::budget::{Phase, RobustnessReport};
use crate::dense::SlotTable;
use crate::modref::Slot;
use crate::poly::{Monomial, Poly};
use crate::symexpr::{SymExpr, MAX_NODES};
use ipcp_ir::codec::{ByteReader, Wire, WireError, WireSink};
use ipcp_ir::GlobalId;
use ipcp_lang::ast::BinOp;
use std::collections::BTreeMap;
use std::sync::Arc;

impl Wire for Slot {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            Slot::Formal(i) => {
                w.u8(0);
                w.u32(*i);
            }
            Slot::Global(g) => {
                w.u8(1);
                g.encode(w);
            }
            Slot::Result => w.u8(2),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Slot::Formal(r.u32()?)),
            1 => Ok(Slot::Global(GlobalId::decode(r)?)),
            2 => Ok(Slot::Result),
            tag => Err(WireError::BadTag { what: "Slot", tag }),
        }
    }
}

impl Wire for Phase {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u8(match self {
            Phase::SymEval => 0,
            Phase::Poly => 1,
            Phase::Sccp => 2,
            Phase::ModRef => 3,
            Phase::ReturnJf => 4,
            Phase::ForwardJf => 5,
            Phase::Solver => 6,
        });
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => Phase::SymEval,
            1 => Phase::Poly,
            2 => Phase::Sccp,
            3 => Phase::ModRef,
            4 => Phase::ReturnJf,
            5 => Phase::ForwardJf,
            6 => Phase::Solver,
            tag => return Err(WireError::BadTag { what: "Phase", tag }),
        })
    }
}

impl Wire for RobustnessReport {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.fuel_limit.encode(w);
        self.fuel_consumed.encode(w);
        self.exhausted.encode(w);
        self.degradations.encode(w);
        self.ladder_steps.encode(w);
        self.anomalies.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(RobustnessReport {
            fuel_limit: Option::<u64>::decode(r)?,
            fuel_consumed: u64::decode(r)?,
            exhausted: bool::decode(r)?,
            degradations: BTreeMap::<Phase, u64>::decode(r)?,
            ladder_steps: BTreeMap::<(String, String), u64>::decode(r)?,
            anomalies: BTreeMap::<String, u64>::decode(r)?,
        })
    }
}

// Term and factor counts and exponents travel as single bytes: the
// caps ([`crate::poly::MAX_TERMS`], [`crate::poly::MAX_DEGREE`]) keep
// them far below 256, and jump-function tables are mostly polynomials.
impl Wire for Poly {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u8(self.term_count() as u8);
        for (m, c) in self.terms() {
            w.u8(m.factors().len() as u8);
            for (slot, exp) in m.factors() {
                slot.encode(w);
                w.u8(*exp as u8);
            }
            c.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let non_canonical = WireError::NonCanonical { what: "Poly" };
        let n = usize::from(r.u8()?);
        if n > crate::poly::MAX_TERMS {
            return Err(non_canonical);
        }
        let room = r.remaining() / std::mem::size_of::<(Monomial, i64)>();
        let mut terms = Vec::with_capacity(n.min(room));
        let mut factors = Vec::new();
        for _ in 0..n {
            factors.clear();
            for _ in 0..r.u8()? {
                factors.push((Slot::decode(r)?, u32::from(r.u8()?)));
            }
            let m = Monomial::from_factors(&factors).ok_or(non_canonical.clone())?;
            terms.push((m, i64::decode(r)?));
        }
        Poly::from_terms(terms).ok_or(non_canonical)
    }
}

impl<V: Wire> Wire for SlotTable<V> {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u64(self.len() as u64);
        for (slot, v) in self {
            slot.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n = r.length_prefix()?;
        // As `Vec::decode`: reserve no more than the input has left.
        let room = r.remaining() / (std::mem::size_of::<Slot>() + std::mem::size_of::<V>()).max(1);
        let mut slots = Vec::with_capacity(n.min(room));
        let mut vals = Vec::with_capacity(n.min(room));
        for _ in 0..n {
            slots.push(Slot::decode(r)?);
            vals.push(V::decode(r)?);
        }
        SlotTable::from_parts(slots, vals).ok_or(WireError::NonCanonical { what: "SlotTable" })
    }
}

fn encode_operand<W: WireSink>(e: &Option<Arc<SymExpr>>, w: &mut W) {
    match e {
        None => w.u8(0),
        Some(e) => {
            w.u8(1);
            e.encode(w);
        }
    }
}

/// Decodes one expression of weight at most `room`. Every node weighs
/// at least 1, so the recursion is at most [`MAX_NODES`] deep whatever
/// the input, and the weights are recomputed exactly as the smart
/// constructors compute them.
fn decode_expr(r: &mut ByteReader<'_>, room: u32) -> Result<SymExpr, WireError> {
    let too_big = WireError::NonCanonical { what: "SymExpr" };
    if room == 0 {
        return Err(too_big);
    }
    let expr = match r.u8()? {
        0 => SymExpr::Poly(Poly::decode(r)?),
        1 => {
            let op = BinOp::decode(r)?;
            let lhs = decode_expr(r, room - 1)?;
            let rhs = decode_expr(r, room - 1 - lhs.size().min(room - 1))?;
            SymExpr::Node {
                op,
                size: 1 + lhs.size() + rhs.size(),
                lhs: Arc::new(lhs),
                rhs: Arc::new(rhs),
            }
        }
        2 => {
            let inner = decode_expr(r, room - 1)?;
            SymExpr::Not {
                size: 1 + inner.size(),
                inner: Arc::new(inner),
            }
        }
        3 => {
            let cond = decode_expr(r, room - 1)?;
            let mut left = room - 1 - cond.size().min(room - 1);
            let mut branch = |r: &mut ByteReader<'_>| -> Result<Option<SymExpr>, WireError> {
                match r.u8()? {
                    0 => Ok(None),
                    1 => {
                        let e = decode_expr(r, left)?;
                        left -= e.size().min(left);
                        Ok(Some(e))
                    }
                    tag => Err(WireError::BadTag {
                        what: "SymExpr gate",
                        tag,
                    }),
                }
            };
            let then_val = branch(r)?;
            let else_val = branch(r)?;
            SymExpr::Gate {
                size: 1
                    + cond.size()
                    + then_val.as_ref().map_or(0, SymExpr::size)
                    + else_val.as_ref().map_or(0, SymExpr::size),
                cond: Arc::new(cond),
                then_val: then_val.map(Arc::new),
                else_val: else_val.map(Arc::new),
            }
        }
        tag => {
            return Err(WireError::BadTag {
                what: "SymExpr",
                tag,
            })
        }
    };
    if expr.size() > room {
        return Err(too_big);
    }
    Ok(expr)
}

impl Wire for SymExpr {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            SymExpr::Poly(p) => {
                w.u8(0);
                p.encode(w);
            }
            SymExpr::Node { op, lhs, rhs, .. } => {
                w.u8(1);
                op.encode(w);
                lhs.encode(w);
                rhs.encode(w);
            }
            SymExpr::Not { inner, .. } => {
                w.u8(2);
                inner.encode(w);
            }
            SymExpr::Gate {
                cond,
                then_val,
                else_val,
                ..
            } => {
                w.u8(3);
                cond.encode(w);
                encode_operand(then_val, w);
                encode_operand(else_val, w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        decode_expr(r, MAX_NODES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::codec::{decode_from_slice, encode_to_vec};

    #[test]
    fn slot_and_phase_roundtrip() {
        let slots = vec![Slot::Formal(3), Slot::Global(GlobalId(7)), Slot::Result];
        let bytes = encode_to_vec(&slots);
        assert_eq!(decode_from_slice::<Vec<Slot>>(&bytes).unwrap(), slots);
        for phase in Phase::ALL {
            let bytes = encode_to_vec(&phase);
            assert_eq!(decode_from_slice::<Phase>(&bytes).unwrap(), phase);
        }
    }

    #[test]
    fn robustness_report_roundtrips() {
        let mut report = RobustnessReport {
            fuel_limit: Some(64),
            fuel_consumed: 64,
            exhausted: true,
            ..RobustnessReport::default()
        };
        report.degradations.insert(Phase::Sccp, 2);
        report
            .ladder_steps
            .insert(("polynomial".into(), "literal".into()), 1);
        report.anomalies.insert("dce: mismatch".into(), 3);
        let bytes = encode_to_vec(&report);
        assert_eq!(
            decode_from_slice::<RobustnessReport>(&bytes).unwrap(),
            report
        );
    }

    #[test]
    fn slot_map_roundtrips_in_btree_order() {
        let mut map = BTreeMap::new();
        map.insert(Slot::Result, 1i64);
        map.insert(Slot::Formal(0), -2);
        map.insert(Slot::Global(GlobalId(1)), 3);
        let bytes = encode_to_vec(&map);
        assert_eq!(
            decode_from_slice::<BTreeMap<Slot, i64>>(&bytes).unwrap(),
            map
        );
        // Stability across re-encode.
        let back: BTreeMap<Slot, i64> = decode_from_slice(&bytes).unwrap();
        assert_eq!(encode_to_vec(&back), bytes);
    }

    #[test]
    fn jump_function_pieces_roundtrip_with_their_weights() {
        let x = SymExpr::var(Slot::Formal(0));
        let g = SymExpr::var(Slot::Global(GlobalId(2)));
        let sum = SymExpr::binop(BinOp::Add, &x, &g).unwrap();
        let poly = SymExpr::binop(BinOp::Mul, &sum, &x).unwrap();
        let node = SymExpr::binop(BinOp::Div, &poly, &g).unwrap();
        let not = SymExpr::not(&node).unwrap();
        let gate = SymExpr::gate(&x, Some(&not), None).unwrap();
        for expr in [SymExpr::constant(0), x, poly, node, not, gate] {
            let bytes = encode_to_vec(&expr);
            let back: SymExpr = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, expr);
            assert_eq!(back.size(), expr.size());
            assert_eq!(encode_to_vec(&back), bytes);
        }
        let table = SlotTable::from_sorted_pairs(vec![
            (Slot::Formal(0), 1i64),
            (Slot::Global(GlobalId(1)), -2),
        ]);
        let bytes = encode_to_vec(&table);
        assert_eq!(decode_from_slice::<SlotTable<i64>>(&bytes).unwrap(), table);
    }

    #[test]
    fn values_the_analyses_never_build_do_not_decode() {
        let non_canonical = |what| Some(WireError::NonCanonical { what });
        // 100k nested `not`s around the zero polynomial: far deeper than
        // the weight cap admits, refused without recursing that deep.
        let mut deep = vec![2u8; 100_000];
        deep.extend([0, 0]);
        assert_eq!(
            decode_from_slice::<SymExpr>(&deep).err(),
            non_canonical("SymExpr")
        );
        // x^9: beyond MAX_DEGREE.
        let mut high = vec![1u8, 1];
        high.extend(encode_to_vec(&Slot::Formal(0)));
        high.push(9);
        high.extend(1i64.to_le_bytes());
        assert_eq!(
            decode_from_slice::<Poly>(&high).err(),
            non_canonical("Poly")
        );
        // A zero coefficient.
        let zero = [1u8, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(
            decode_from_slice::<Poly>(&zero).err(),
            non_canonical("Poly")
        );
        // Slots out of order.
        let unsorted = SlotTable::from_iter([(Slot::Formal(1), 1i64), (Slot::Formal(0), 2)]);
        let mut bytes = encode_to_vec(&unsorted);
        // Swap the two (slot, value) records behind the 8-byte length.
        let record = (bytes.len() - 8) / 2;
        let (a, b) = bytes[8..].split_at_mut(record);
        a.swap_with_slice(b);
        assert_eq!(
            decode_from_slice::<SlotTable<i64>>(&bytes).err(),
            non_canonical("SlotTable")
        );
    }
}
