//! [`Wire`] codec implementations for the analysis-side types that the
//! persistent artifact cache persists: [`Slot`], [`Phase`], and
//! [`RobustnessReport`]. (The trait lives in `ipcp_ir::codec`; these
//! impls live here because the types do.)

use crate::budget::{Phase, RobustnessReport};
use crate::modref::Slot;
use ipcp_ir::codec::{ByteReader, Wire, WireError, WireSink};
use ipcp_ir::GlobalId;
use std::collections::BTreeMap;

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
}
