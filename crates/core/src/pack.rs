//! Per-procedure summary packs: the part of a session's artifact store
//! that outlives the process.
//!
//! The paper's analyzer builds each procedure's jump functions — return
//! (`R`) and forward (`J`) — once, then runs one whole-program solve. A
//! [`SummaryPack`] persists the per-procedure half of that split for
//! one labelled program and configuration: every return-jump-function
//! table, forward site vector (with the symbolic-value fuel beneath it)
//! and substitution count of the program's current procedure closures,
//! each under the exact store key the session looks it up by, with the
//! fuel its computation recorded. A later process that misses the
//! whole-outcome entry (the source was edited) loads the pack into its
//! store, so only the procedures whose closures changed are rebuilt.
//!
//! The pack is one ordinary [`crate::diskcache::DiskCache`] entry under
//! [`crate::diskcache::pack_key`], so framing, checksums, quarantine,
//! locking and LRU eviction are the cache's own. SSA and symbolic values
//! stay out (large, and cheap to rebuild for the few procedures that
//! need them), as do the program-scoped artifacts (call graph, MOD/REF,
//! the solve), which are keyed by the whole program state.

use crate::forward::SiteJumpFns;
use crate::jump::JumpFn;
use crate::retjf::RjfTable;
use crate::session::{CallSymMode, EntryKey, ForwardKey, RjfKey};
use ipcp_analysis::{Slot, SlotTable, SymExpr};
use ipcp_ir::codec::{ByteReader, Wire, WireError, WireSink};
use ipcp_ir::ProcId;
use std::mem::size_of;
use std::sync::Arc;

/// The persisted per-procedure artifacts of one program and
/// configuration. Each list is sorted by key, so equal stores encode to
/// equal bytes. Opaque outside the crate: it is written and read only
/// through its [`Wire`] encoding.
#[derive(Default)]
pub struct SummaryPack {
    /// Return-jump-function tables with their recorded fuel.
    pub(crate) rjfs: Vec<(RjfKey, u64, Arc<RjfTable>)>,
    /// Forward jump-function site vectors, each with the fuel the
    /// symbolic evaluation beneath it recorded (under the key's
    /// [`SymKey`] part): a hit replays that fuel instead of evaluating.
    /// The site vectors record no fuel of their own; the forward
    /// phase's checkpoint is recomputed on every run.
    pub(crate) forwards: Vec<(ForwardKey, u64, Arc<Vec<SiteJumpFns>>)>,
    /// Per-procedure substitution counts.
    pub(crate) substs: Vec<(EntryKey, usize)>,
}

impl Wire for SummaryPack {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u64(self.rjfs.len() as u64);
        for (key, fuel, table) in &self.rjfs {
            key.encode(w);
            fuel.encode(w);
            table.encode(w);
        }
        w.u64(self.forwards.len() as u64);
        for (key, sym_fuel, sites) in &self.forwards {
            key.encode(w);
            sym_fuel.encode(w);
            sites.encode(w);
        }
        self.substs.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let n = r.length_prefix()?;
        let mut rjfs =
            Vec::with_capacity(n.min(r.remaining() / size_of::<(RjfKey, u64, Arc<RjfTable>)>()));
        for _ in 0..n {
            let key = RjfKey::decode(r)?;
            let fuel = u64::decode(r)?;
            rjfs.push((key, fuel, Arc::new(RjfTable::decode(r)?)));
        }
        let n = r.length_prefix()?;
        let mut forwards = Vec::with_capacity(
            n.min(r.remaining() / size_of::<(ForwardKey, u64, Arc<Vec<SiteJumpFns>>)>()),
        );
        for _ in 0..n {
            let key = ForwardKey::decode(r)?;
            let sym_fuel = u64::decode(r)?;
            forwards.push((key, sym_fuel, Arc::new(Vec::<SiteJumpFns>::decode(r)?)));
        }
        Ok(SummaryPack {
            rjfs,
            forwards,
            substs: Vec::decode(r)?,
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

impl Wire for CallSymMode {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.u8(match self {
            CallSymMode::Pessimistic => 0,
            CallSymMode::ConstEval => 1,
            CallSymMode::Compose => 2,
        });
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(CallSymMode::Pessimistic),
            1 => Ok(CallSymMode::ConstEval),
            2 => Ok(CallSymMode::Compose),
            tag => Err(WireError::BadTag {
                what: "CallSymMode",
                tag,
            }),
        }
    }
}

impl Wire for RjfKey {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.closure_fp.encode(w);
        self.mod_info.encode(w);
        self.gsa.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(RjfKey {
            closure_fp: u64::decode(r)?,
            mod_info: bool::decode(r)?,
            gsa: bool::decode(r)?,
        })
    }
}

impl Wire for ForwardKey {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.closure_fp.encode(w);
        self.mod_info.encode(w);
        self.gsa.encode(w);
        self.mode.encode(w);
        self.kind.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(ForwardKey {
            closure_fp: u64::decode(r)?,
            mod_info: bool::decode(r)?,
            gsa: bool::decode(r)?,
            mode: CallSymMode::decode(r)?,
            kind: Wire::decode(r)?,
        })
    }
}

impl Wire for EntryKey {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.closure_fp.encode(w);
        self.mod_info.encode(w);
        self.gsa.encode(w);
        self.recovery.encode(w);
        self.entry_fp.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(EntryKey {
            closure_fp: u64::decode(r)?,
            mod_info: bool::decode(r)?,
            gsa: bool::decode(r)?,
            recovery: bool::decode(r)?,
            entry_fp: u64::decode(r)?,
        })
    }
}
