//! Per-procedure summary packs: the part of a session's artifact store
//! that outlives the process.
//!
//! The paper's analyzer builds each procedure's jump functions — return
//! (`R`) and forward (`J`) — once, then runs one whole-program solve. A
//! [`SummaryPack`] persists the per-procedure half of that split for
//! one labelled program and configuration: return-jump-function tables
//! (each with its fingerprint, the table's part of the procedure's
//! summary), forward site vectors (with the symbolic-value fuel beneath
//! them), substitution counts and complete propagation's DCE steps,
//! each under the exact store key the session looks it up by, with the
//! fuel its computation recorded. A later process that misses the
//! whole-outcome entry (the source was edited) loads the pack into its
//! store, so only the procedures whose keys changed are rebuilt.
//!
//! On disk a pack is one [`crate::diskcache::DiskCache`] file under
//! [`crate::diskcache::pack_key`] holding a sequence of segments, each a
//! `SummaryPack` framed like a cache entry: the first written afresh,
//! every later one appended by a cold run with only the summaries it
//! computed (see the disk cache's format docs). Framing, checksums,
//! quarantine, locking and LRU eviction are the cache's own. SSA and
//! symbolic values stay out (large, and cheap to rebuild for the few
//! procedures that need them), as do the program-scoped artifacts (call
//! graph, MOD/REF, the solve), which are keyed by the whole program
//! state.

use crate::forward::SiteJumpFns;
use crate::jump::JumpFn;
use crate::retjf::RjfTable;
use crate::session::{DceStep, EntryKey, ForwardKey, RjfKey};
use ipcp_analysis::{Slot, SlotTable, SymExpr};
use ipcp_ir::codec::{ByteReader, Wire, WireError, WireSink};
use ipcp_ir::{ProcId, Procedure};
use std::collections::BTreeMap;
use std::mem::size_of;
use std::sync::Arc;

/// One segment of persisted per-procedure artifacts of one program and
/// configuration. Each list is sorted by key, so equal key sets encode
/// to equal bytes. Opaque outside the crate: it is written and read only
/// through its [`Wire`] encoding.
#[derive(Default)]
pub struct SummaryPack {
    /// Return-jump-function tables with their recorded fuel and their
    /// fingerprint.
    pub(crate) rjfs: Vec<(RjfKey, u64, u128, Arc<RjfTable>)>,
    /// Forward jump-function site vectors, each with the fuel the
    /// symbolic evaluation beneath it recorded: a hit replays that fuel
    /// instead of evaluating. The site vectors record no fuel of their
    /// own; the forward phase's checkpoint is recomputed on every run.
    pub(crate) forwards: Vec<(ForwardKey, u64, Arc<Vec<SiteJumpFns>>)>,
    /// Per-procedure substitution counts.
    pub(crate) substs: Vec<(EntryKey, usize)>,
    /// Complete propagation's per-procedure DCE steps, with their fuel.
    pub(crate) dces: Vec<(EntryKey, u64, Arc<DceStep>)>,
}

/// A reserve for `n` decoded elements of `T`, capped by what the rest
/// of the input could hold, so a hostile length prefix allocates within
/// the payload.
fn bounded<T>(n: usize, r: &ByteReader<'_>) -> Vec<T> {
    Vec::with_capacity(n.min(r.remaining() / size_of::<T>().max(1)))
}

impl Wire for SummaryPack {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u64(self.rjfs.len() as u64);
        for (key, fuel, fp, table) in &self.rjfs {
            key.encode(w);
            fuel.encode(w);
            fp.encode(w);
            table.encode(w);
        }
        w.u64(self.forwards.len() as u64);
        for (key, sym_fuel, sites) in &self.forwards {
            key.encode(w);
            sym_fuel.encode(w);
            sites.encode(w);
        }
        self.substs.encode(w);
        w.u64(self.dces.len() as u64);
        for (key, fuel, step) in &self.dces {
            key.encode(w);
            fuel.encode(w);
            step.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n = r.length_prefix()?;
        let mut rjfs = bounded(n, r);
        for _ in 0..n {
            let key = RjfKey::decode(r)?;
            let fuel = u64::decode(r)?;
            let fp = u128::decode(r)?;
            rjfs.push((key, fuel, fp, Arc::new(RjfTable::decode(r)?)));
        }
        let n = r.length_prefix()?;
        let mut forwards = bounded(n, r);
        for _ in 0..n {
            let key = ForwardKey::decode(r)?;
            let sym_fuel = u64::decode(r)?;
            forwards.push((key, sym_fuel, Arc::new(Vec::<SiteJumpFns>::decode(r)?)));
        }
        let substs = Vec::decode(r)?;
        let n = r.length_prefix()?;
        let mut dces = bounded(n, r);
        for _ in 0..n {
            let key = EntryKey::decode(r)?;
            let fuel = u64::decode(r)?;
            dces.push((key, fuel, Arc::new(DceStep::decode(r)?)));
        }
        Ok(SummaryPack {
            rjfs,
            forwards,
            substs,
            dces,
        })
    }
}

impl Wire for DceStep {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.proc.encode(w);
        self.changed.encode(w);
        self.anomalies.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(DceStep {
            proc: Procedure::decode(r)?,
            changed: bool::decode(r)?,
            anomalies: BTreeMap::decode(r)?,
        })
    }
}

// ---- jump functions -------------------------------------------------------

impl Wire for JumpFn {
    fn encode<W: WireSink>(&self, w: &mut W) {
        match self {
            JumpFn::Const(c) => {
                w.u8(0);
                c.encode(w);
            }
            JumpFn::PassThrough(slot) => {
                w.u8(1);
                slot.encode(w);
            }
            JumpFn::Expr(e) => {
                w.u8(2);
                e.encode(w);
            }
            JumpFn::Bottom => w.u8(3),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(JumpFn::Const(i64::decode(r)?)),
            1 => Ok(JumpFn::PassThrough(Slot::decode(r)?)),
            2 => Ok(JumpFn::Expr(SymExpr::decode(r)?)),
            3 => Ok(JumpFn::Bottom),
            tag => Err(WireError::BadTag {
                what: "JumpFn",
                tag,
            }),
        }
    }
}

impl Wire for SiteJumpFns {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.callee.encode(w);
        self.reachable.encode(w);
        self.jfs.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(SiteJumpFns {
            callee: ProcId::decode(r)?,
            reachable: bool::decode(r)?,
            jfs: SlotTable::decode(r)?,
        })
    }
}

// ---- store keys -----------------------------------------------------------

impl Wire for RjfKey {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.0.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(RjfKey(u128::decode(r)?))
    }
}

impl Wire for ForwardKey {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.0.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(ForwardKey(u128::decode(r)?))
    }
}

impl Wire for EntryKey {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.0.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(EntryKey(u128::decode(r)?))
    }
}
