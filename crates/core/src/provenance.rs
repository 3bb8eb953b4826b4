//! Solver provenance: *why* each interprocedural constant holds.
//!
//! The propagation solver (`crate::solver`) computes `VAL(p, slot)` by
//! meeting forward-jump-function evaluations over every reachable call
//! edge. This module is a view over one solved round of the session's
//! pipeline ([`AnalysisSession::provenance`]): it reads the round's call
//! graph, jump functions, `VAL` sets and SSA forms, and records, for
//! every slot that ends `Const`, the **justifying edges**: the reachable
//! call sites whose jump functions evaluate to exactly that constant
//! under the final `VAL` sets. By the meet semantics a final `Const`
//! value always has at least one such edge (or, for `main`'s globals, a
//! compile-time initializer seed): a `⊤` edge never contributes and a
//! `⊥`-evaluating edge would have forced the meet to `⊥`.
//!
//! Each edge carries its **representation level** — the weakest forward
//! jump function implementation (Table 2 column) able to express it:
//! `literal` for a constant actual at the call site, `intraprocedural`
//! for a locally derived constant, `pass-through` for a forwarded
//! formal/global, `polynomial` for anything needing symbolic
//! composition. A slot's **transitive level** is the maximum along its
//! justification chain (a pass-through of an intraprocedural constant
//! is still intraprocedural-expressible end to end only if every link
//! is): levels only rise during the fixpoint and are bounded by
//! `polynomial`, so it terminates.
//!
//! The module also decomposes the study's substitution counts (Figure
//! 7/8) by provenance level. The attribution pass replays the exact
//! SCCP walk `crate::subst` counts with (`seeded_sccp` and
//! `for_each_counted_use` are shared), tracking for every SSA name the
//! set of constant entry slots it was derived from; a counted use is
//! attributed to the maximum ledger level of its dependency slots, or to
//! `local` when it owes nothing to interprocedural propagation. Because
//! walk and inputs are identical, per-level totals sum to the
//! substitution count by construction.

use crate::driver::AnalysisConfig;
use crate::forward::ForwardJumpFns;
use crate::jump::{JumpFn, JumpFunctionKind};
use crate::retjf::{ReturnJumpFns, RjfComposer, RjfConstEval};
use crate::session::{AnalysisSession, SolvedRound};
use crate::solver::ValSets;
use crate::subst::{for_each_counted_use, seeded_sccp};
use ipcp_analysis::sccp::SccpResult;
use ipcp_analysis::symeval::{symbolic_eval_with, CallSymbolics, Sym, SymEvalOptions};
use ipcp_analysis::{slot_of_var, CallGraph, LatticeVal, Slot};
use ipcp_ir::{BlockId, GlobalId, Instr, ProcId, Procedure, Program, VarKind};
use ipcp_obs::{NoopSink, ObsSink};
use ipcp_ssa::{SsaInstr, SsaName, SsaOperand, SsaProc, SsaTerminator};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Mutex;

/// One reachable call edge that justifies a constant slot value: the
/// site's jump function evaluates to the slot's constant under the
/// caller's final `VAL` set.
#[derive(Debug, Clone)]
pub struct JustifyingEdge {
    /// The calling procedure.
    pub caller: ProcId,
    /// Block containing the call site.
    pub block: BlockId,
    /// Instruction index of the call within the block.
    pub index: usize,
    /// The forward jump function for this `(site, slot)` pair.
    pub jump_fn: JumpFn,
    /// The weakest jump function implementation able to express this
    /// edge (not counting what its support slots themselves needed).
    pub level: JumpFunctionKind,
}

/// The recorded provenance of one constant entry-slot value.
#[derive(Debug, Clone)]
pub struct SlotProvenance {
    /// The propagated constant.
    pub value: i64,
    /// Transitive representation level: the weakest jump function
    /// implementation able to establish this constant end to end.
    pub level: JumpFunctionKind,
    /// Justified by a compile-time global initializer at `main`.
    pub seeded: bool,
    /// Justifying call edges (empty only for pure seeds).
    pub edges: Vec<JustifyingEdge>,
}

/// One constant recovered through a return jump function while building
/// a caller's symbolic values (the chain `explain` reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RjfRecovery {
    /// The callee whose return jump function produced the constant.
    pub callee: ProcId,
    /// The callee slot (formal, global, or result) that was recovered.
    pub slot: Slot,
    /// The recovered constant.
    pub value: i64,
}

/// Substitution counts decomposed by provenance level (the per-level
/// attribution of the study's Figure 7/8 totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Uses owing to literal-expressible constants.
    pub literal: usize,
    /// Uses owing to intraprocedural-constant jump functions.
    pub intraprocedural: usize,
    /// Uses owing to pass-through jump functions.
    pub pass_through: usize,
    /// Uses needing polynomial (symbolic) jump functions.
    pub polynomial: usize,
    /// Uses established without interprocedural propagation.
    pub local: usize,
}

impl Attribution {
    /// Sum of all five buckets; equals the substitution total of the
    /// same configuration by construction.
    pub fn total(&self) -> usize {
        self.literal + self.intraprocedural + self.pass_through + self.polynomial + self.local
    }

    /// The bucket for one jump-function level.
    pub fn of_level(&self, level: JumpFunctionKind) -> usize {
        match level {
            JumpFunctionKind::Literal => self.literal,
            JumpFunctionKind::IntraproceduralConstant => self.intraprocedural,
            JumpFunctionKind::PassThrough => self.pass_through,
            JumpFunctionKind::Polynomial => self.polynomial,
        }
    }

    fn bump(&mut self, level: JumpFunctionKind) {
        match level {
            JumpFunctionKind::Literal => self.literal += 1,
            JumpFunctionKind::IntraproceduralConstant => self.intraprocedural += 1,
            JumpFunctionKind::PassThrough => self.pass_through += 1,
            JumpFunctionKind::Polynomial => self.polynomial += 1,
        }
    }
}

/// The provenance ledger of one analysis configuration: every constant
/// slot with its justifying edges, per-caller return-jump-function
/// recovery chains, and the per-level substitution attribution.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// The analyzed (globals-augmented) program the ledger indexes into.
    program: Program,
    /// Per-procedure slot ledger.
    ledger: Vec<BTreeMap<Slot, SlotProvenance>>,
    /// Per-caller constants recovered through return jump functions.
    rjf_chains: Vec<Vec<RjfRecovery>>,
    /// Substitution counts decomposed by provenance level.
    pub attribution: Attribution,
}

/// Builds the provenance ledger for `program` under `config` in a fresh
/// session ([`AnalysisSession::provenance`]).
pub fn analyze_provenance(program: &Program, config: &AnalysisConfig) -> Provenance {
    AnalysisSession::new(program).provenance(config, &NoopSink)
}

/// A recorded ledger still missing the program it indexes into, which
/// the round lends to [`record`] and hands over once it ends.
pub(crate) struct Record {
    ledger: Vec<BTreeMap<Slot, SlotProvenance>>,
    rjf_chains: Vec<Vec<RjfRecovery>>,
    attribution: Attribution,
}

impl Record {
    /// The provenance of `program`, the round's (augmented) program.
    pub(crate) fn into_provenance(self, program: Program) -> Provenance {
        Provenance {
            program,
            ledger: self.ledger,
            rjf_chains: self.rjf_chains,
            attribution: self.attribution,
        }
    }
}

/// Records the ledger, return-jump-function chains and per-level
/// attribution of one solved round under `config`.
pub(crate) fn record(
    round: &SolvedRound<'_>,
    config: &AnalysisConfig,
    sink: &dyn ObsSink,
) -> Record {
    let program = round.program;
    let vals = round.vals.as_deref();
    let ledger = build_ledger(program, round.cg, round.jfs.as_ref().zip(vals));
    sink.count(
        "provenance.constants",
        ledger.iter().map(BTreeMap::len).sum::<usize>() as u64,
    );

    let rjf_recovery = config.return_jump_functions && config.mod_info;
    let const_eval = RjfConstEval { rjfs: round.rjfs };
    let composer = RjfComposer { rjfs: round.rjfs };
    let call_sym: &dyn CallSymbolics = if config.rjf_full_composition {
        &composer
    } else {
        &const_eval
    };
    let sym_options = SymEvalOptions {
        gated_phis: config.gsa,
    };

    let mut rjf_chains: Vec<Vec<RjfRecovery>> = vec![Vec::new(); program.procs.len()];
    let mut attribution = Attribution::default();
    for pid in program.proc_ids() {
        if !round.cg.is_reachable(pid) {
            continue;
        }
        let proc = program.proc(pid);
        let ssa = round.ssa(pid);

        // Replay the symbolic evaluation with a recording wrapper to
        // capture which callee slots were recovered through return jump
        // functions (the `explain` chain; empty without call sites).
        if rjf_recovery && !round.cg.sites(pid).is_empty() {
            let recorder = Recording {
                inner: call_sym,
                log: Mutex::new(Vec::new()),
            };
            let _ = symbolic_eval_with(proc, &ssa, &recorder, sym_options);
            let mut log = recorder.log.into_inner().expect("recorder lock");
            log.sort_by_key(|r| (r.callee.index(), r.slot, r.value));
            log.dedup();
            rjf_chains[pid.index()] = log;
        }

        // Attribution: the exact SCCP + counted-use walk of the counting
        // pass, with constant-entry-slot dependency tracking on top.
        // Without constant entry slots every dependency set is empty, so
        // every counted use is local: the stored count is the answer.
        let Some(vals) = vals.filter(|_| !ledger[pid.index()].is_empty()) else {
            attribution.local += round.count(pid);
            continue;
        };
        let result = seeded_sccp(program, round.calls, Some(vals), pid, &ssa);
        let deps = const_slot_deps(
            proc,
            pid,
            &ssa,
            &result,
            vals,
            rjf_recovery.then_some(round.rjfs),
        );
        for_each_counted_use(proc, &ssa, &result, &mut |n| {
            let d = &deps[n.index()];
            if d.is_empty() {
                attribution.local += 1;
            } else {
                let level = d
                    .iter()
                    .filter_map(|t| ledger[pid.index()].get(t))
                    .map(|e| e.level)
                    .max()
                    .unwrap_or(JumpFunctionKind::Polynomial);
                attribution.bump(level);
            }
        });
    }

    Record {
        ledger,
        rjf_chains,
        attribution,
    }
}

/// Builds the slot ledger: entries for every constant slot of every
/// reachable procedure, initializer seeds for `main`'s globals, one
/// pass over all reachable sites for justifying edges, then the
/// transitive-level fixpoint.
fn build_ledger(
    program: &Program,
    cg: &CallGraph,
    solved: Option<(&ForwardJumpFns, &ValSets)>,
) -> Vec<BTreeMap<Slot, SlotProvenance>> {
    let mut ledger: Vec<BTreeMap<Slot, SlotProvenance>> =
        vec![BTreeMap::new(); program.procs.len()];
    let Some((jfs, vals)) = solved else {
        return ledger;
    };

    for q in program.proc_ids() {
        if !cg.is_reachable(q) {
            continue;
        }
        for (&slot, lv) in vals.of(q) {
            if let Some(v) = lv.as_const() {
                ledger[q.index()].insert(
                    slot,
                    SlotProvenance {
                        value: v,
                        level: JumpFunctionKind::Literal,
                        seeded: false,
                        edges: Vec::new(),
                    },
                );
            }
        }
    }

    // The solver seeds main's global slots from compile-time
    // initializers; those constants are justified by the seed, not by a
    // call edge (main has no callers).
    let main = program.main;
    for g in program.global_ids() {
        if let Some(init) = program.global(g).init {
            if let Some(entry) = ledger[main.index()].get_mut(&Slot::Global(g)) {
                if entry.value == init {
                    entry.seeded = true;
                }
            }
        }
    }

    for p in program.proc_ids() {
        if !cg.is_reachable(p) {
            continue;
        }
        let sites = cg.sites(p);
        for (i, sjf) in jfs.sites(p).iter().enumerate() {
            if !sjf.reachable {
                continue;
            }
            let q = sjf.callee;
            for (&slot, jf) in &sjf.jfs {
                let Some(value) = ledger[q.index()].get(&slot).map(|e| e.value) else {
                    continue;
                };
                let env = |t: Slot| vals.value(p, t);
                if jf.eval_lattice(&env) == LatticeVal::Const(value) {
                    let level = repr_level(program, p, sites[i].block, sites[i].index, slot, jf);
                    ledger[q.index()]
                        .get_mut(&slot)
                        .expect("entry present")
                        .edges
                        .push(JustifyingEdge {
                            caller: p,
                            block: sites[i].block,
                            index: sites[i].index,
                            jump_fn: jf.clone(),
                            level,
                        });
                }
            }
        }
    }

    // Transitive levels: a chain is only as cheap as its weakest link.
    // Levels start at `literal` and only rise, bounded by `polynomial`.
    let mut changed = true;
    while changed {
        changed = false;
        for q in program.proc_ids() {
            let slots: Vec<Slot> = ledger[q.index()].keys().copied().collect();
            for s in slots {
                let entry = &ledger[q.index()][&s];
                let mut level = JumpFunctionKind::Literal;
                for e in &entry.edges {
                    let mut edge_level = e.level;
                    for t in e.jump_fn.support() {
                        if let Some(dep) = ledger[e.caller.index()].get(&t) {
                            edge_level = edge_level.max(dep.level);
                        }
                    }
                    level = level.max(edge_level);
                }
                if level > ledger[q.index()][&s].level {
                    ledger[q.index()].get_mut(&s).expect("entry present").level = level;
                    changed = true;
                }
            }
        }
    }
    ledger
}

/// The weakest forward jump function implementation (Table 2 column)
/// able to express one `(site, slot)` jump function.
fn repr_level(
    program: &Program,
    caller: ProcId,
    block: BlockId,
    index: usize,
    slot: Slot,
    jf: &JumpFn,
) -> JumpFunctionKind {
    match jf {
        JumpFn::Const(_) => {
            // A constant jump function is literal-expressible only when
            // the actual at the call site is itself a literal; constant
            // globals and locally folded actuals need the
            // intraprocedural implementation.
            if let Slot::Formal(k) = slot {
                let instr = &program.proc(caller).block(block).instrs[index];
                if let Instr::Call { args, .. } = instr {
                    if let Some(a) = args.get(k as usize) {
                        if !a.by_ref && a.value.as_const().is_some() {
                            return JumpFunctionKind::Literal;
                        }
                    }
                }
            }
            JumpFunctionKind::IntraproceduralConstant
        }
        JumpFn::PassThrough(_) => JumpFunctionKind::PassThrough,
        JumpFn::Expr(e) => {
            if e.as_const().is_some() {
                JumpFunctionKind::IntraproceduralConstant
            } else if e.as_var().is_some() {
                JumpFunctionKind::PassThrough
            } else {
                JumpFunctionKind::Polynomial
            }
        }
        JumpFn::Bottom => JumpFunctionKind::Polynomial,
    }
}

/// Wraps a [`CallSymbolics`] provider, logging every constant it
/// recovers (the visible effect a return jump function has on a
/// caller's symbolic values).
struct Recording<'a> {
    inner: &'a dyn CallSymbolics,
    log: Mutex<Vec<RjfRecovery>>,
}

impl CallSymbolics for Recording<'_> {
    fn slot_after_call(
        &self,
        callee: ProcId,
        slot: Slot,
        arg_sym: &dyn Fn(u32) -> Sym,
        global_sym: &dyn Fn(GlobalId) -> Sym,
    ) -> Sym {
        let r = self
            .inner
            .slot_after_call(callee, slot, arg_sym, global_sym);
        if let Some(value) = r.as_const() {
            self.log.lock().expect("recorder lock").push(RjfRecovery {
                callee,
                slot,
                value,
            });
        }
        r
    }
}

/// For every SSA name of `proc`, the set of constant entry slots its
/// (constant) value was derived from — empty for names owing nothing to
/// interprocedural propagation. A may-dependency fixpoint over the
/// executable portion of the SCCP result: sets only grow, so it
/// terminates.
fn const_slot_deps(
    proc: &Procedure,
    pid: ProcId,
    ssa: &SsaProc,
    result: &SccpResult,
    vals: &ValSets,
    rjfs: Option<&ReturnJumpFns>,
) -> Vec<BTreeSet<Slot>> {
    let mut deps: Vec<BTreeSet<Slot>> = vec![BTreeSet::new(); ssa.name_count()];
    for (&var, &name) in &ssa.entry_names {
        if let Some(slot) = slot_of_var(proc, var) {
            if vals.value(pid, slot).as_const().is_some() {
                deps[name.index()].insert(slot);
            }
        }
    }

    // Replay the executable CFG edges from the final SCCP values (the
    // lattice only descends, so the final values induce the same edge
    // set the internal fixpoint saw).
    let mut exec: HashSet<(BlockId, BlockId)> = HashSet::new();
    for (b, blk) in ssa.rpo_blocks() {
        if !result.executable[b.index()] {
            continue;
        }
        match &blk.term {
            SsaTerminator::Jump(t) => {
                exec.insert((b, *t));
            }
            SsaTerminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => match result.of_operand(*cond) {
                LatticeVal::Top => {}
                LatticeVal::Const(c) => {
                    exec.insert((b, if c != 0 { *then_bb } else { *else_bb }));
                }
                LatticeVal::Bottom => {
                    exec.insert((b, *then_bb));
                    exec.insert((b, *else_bb));
                }
            },
            SsaTerminator::Return { .. } | SsaTerminator::Trap(_) => {}
        }
    }

    fn operand_deps(op: SsaOperand, deps: &[BTreeSet<Slot>]) -> BTreeSet<Slot> {
        match op {
            SsaOperand::Name(n) => deps[n.index()].clone(),
            SsaOperand::Const(_) | SsaOperand::RealConst(_) => BTreeSet::new(),
        }
    }
    fn grow(deps: &mut [BTreeSet<Slot>], name: SsaName, acc: BTreeSet<Slot>) -> bool {
        let before = deps[name.index()].len();
        deps[name.index()].extend(acc);
        deps[name.index()].len() != before
    }

    let mut changed = true;
    while changed {
        changed = false;
        for (b, blk) in ssa.rpo_blocks() {
            if !result.executable[b.index()] {
                continue;
            }
            for phi in &blk.phis {
                let mut acc = BTreeSet::new();
                for &(pred, arg) in &phi.args {
                    if exec.contains(&(pred, b)) {
                        acc.extend(deps[arg.index()].iter().copied());
                    }
                }
                changed |= grow(&mut deps, phi.dst, acc);
            }
            for instr in &blk.instrs {
                match instr {
                    SsaInstr::Copy { dst, src }
                    | SsaInstr::Unary { dst, src, .. }
                    | SsaInstr::IntToReal { dst, src } => {
                        let acc = operand_deps(*src, &deps);
                        changed |= grow(&mut deps, *dst, acc);
                    }
                    SsaInstr::Binary { dst, lhs, rhs, .. } => {
                        let mut acc = operand_deps(*lhs, &deps);
                        acc.extend(operand_deps(*rhs, &deps));
                        changed |= grow(&mut deps, *dst, acc);
                    }
                    SsaInstr::Call {
                        callee,
                        args,
                        dst,
                        kills,
                        globals_in,
                    } => {
                        // Post-call values come from the callee's return
                        // jump functions; their dependencies are the
                        // caller-side values bound to the RJF's support
                        // slots at this site. Without RJF recovery every
                        // killed name is ⊥ (never counted), so empty
                        // dependencies are exact.
                        let Some(rjfs) = rjfs else { continue };
                        let site_deps = |t: Slot, deps: &[BTreeSet<Slot>]| -> BTreeSet<Slot> {
                            match t {
                                Slot::Formal(j) => args
                                    .get(j as usize)
                                    .and_then(|a| a.value)
                                    .map(|v| operand_deps(v, deps))
                                    .unwrap_or_default(),
                                Slot::Global(g) => globals_in
                                    .iter()
                                    .find(|(var, _)| proc.var(*var).kind == VarKind::Global(g))
                                    .map(|&(_, nm)| deps[nm.index()].clone())
                                    .unwrap_or_default(),
                                Slot::Result => BTreeSet::new(),
                            }
                        };
                        let callee_slot_deps =
                            |cs: Slot, deps: &[BTreeSet<Slot>]| -> BTreeSet<Slot> {
                                let mut acc = BTreeSet::new();
                                if let Some(jf) = rjfs.get(*callee, cs) {
                                    for t in jf.support() {
                                        acc.extend(site_deps(t, deps));
                                    }
                                }
                                acc
                            };
                        for k in kills {
                            let cs = if let Some(j) =
                                args.iter().position(|a| a.by_ref_var == Some(k.var))
                            {
                                Some(Slot::Formal(j as u32))
                            } else if let VarKind::Global(g) = proc.var(k.var).kind {
                                Some(Slot::Global(g))
                            } else {
                                None
                            };
                            let acc = cs.map(|cs| callee_slot_deps(cs, &deps)).unwrap_or_default();
                            changed |= grow(&mut deps, k.name, acc);
                        }
                        if let Some(d) = dst {
                            let acc = callee_slot_deps(Slot::Result, &deps);
                            changed |= grow(&mut deps, *d, acc);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    deps
}

impl Provenance {
    /// The (globals-augmented) program the ledger describes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The ledger entries of one procedure.
    pub fn of(&self, p: ProcId) -> &BTreeMap<Slot, SlotProvenance> {
        &self.ledger[p.index()]
    }

    /// Constants recovered through return jump functions while building
    /// `p`'s symbolic values.
    pub fn rjf_chain(&self, p: ProcId) -> &[RjfRecovery] {
        &self.rjf_chains[p.index()]
    }

    /// Total number of ledger entries (constant slots).
    pub fn constant_count(&self) -> usize {
        self.ledger.iter().map(BTreeMap::len).sum()
    }

    /// True when every constant in the ledger has at least one
    /// justifying edge or an initializer seed — the solver never
    /// produced a constant this module cannot explain.
    pub fn fully_justified(&self) -> bool {
        self.ledger
            .iter()
            .flat_map(|m| m.values())
            .all(|e| e.seeded || !e.edges.is_empty())
    }

    /// Renders the provenance of `proc_name`'s constants — all of them,
    /// or just the slot named `param` — as the `ipcp explain` report.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown procedure, or for a named slot
    /// that holds no interprocedural constant.
    pub fn explain(&self, proc_name: &str, param: Option<&str>) -> Result<String, String> {
        let pid = self
            .program
            .proc_by_name(proc_name)
            .ok_or_else(|| format!("unknown procedure `{proc_name}`"))?;
        let entries: Vec<(Slot, &SlotProvenance)> = self.ledger[pid.index()]
            .iter()
            .filter(|(s, _)| match param {
                Some(p) => crate::report::slot_name(&self.program, pid, **s) == p,
                None => true,
            })
            .map(|(s, e)| (*s, e))
            .collect();
        if entries.is_empty() {
            if let Some(p) = param {
                return Err(format!(
                    "no interprocedural constant for `{p}` in `{proc_name}`"
                ));
            }
        }

        let mut out = String::new();
        if entries.is_empty() {
            out.push_str(&format!("{proc_name}: no interprocedural constants\n"));
        }
        for (slot, e) in &entries {
            out.push_str(&format!(
                "{}.{} = {}  [level: {}]\n",
                proc_name,
                crate::report::slot_name(&self.program, pid, *slot),
                e.value,
                e.level
            ));
            if e.seeded {
                out.push_str("  <- seeded by compile-time global initializer\n");
            }
            for edge in &e.edges {
                let caller = &self.program.proc(edge.caller).name;
                out.push_str(&format!(
                    "  <- {} at b{}#{}: jump function `{}` ({})\n",
                    caller,
                    edge.block.index(),
                    edge.index,
                    edge.jump_fn,
                    edge.level
                ));
                for t in edge.jump_fn.support() {
                    if let Some(dep) = self.ledger[edge.caller.index()].get(&t) {
                        out.push_str(&format!(
                            "     where {}.{} = {} ({})\n",
                            caller,
                            crate::report::slot_name(&self.program, edge.caller, t),
                            dep.value,
                            dep.level
                        ));
                    }
                }
            }
        }
        if param.is_none() {
            let chain = &self.rjf_chains[pid.index()];
            if !chain.is_empty() {
                out.push_str("return-jump-function recoveries:\n");
                for r in chain {
                    out.push_str(&format!(
                        "  {}.{} -> {}\n",
                        self.program.proc(r.callee).name,
                        crate::report::slot_name(&self.program, r.callee, r.slot),
                        r.value
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Renders the per-level attribution table (one line per level plus
    /// `local` and the total).
    pub fn attribution_table(&self) -> String {
        let a = &self.attribution;
        let mut out = String::from("substitutions by provenance level:\n");
        for kind in JumpFunctionKind::ALL {
            out.push_str(&format!(
                "  {:<16} {:>6}\n",
                kind.to_string(),
                a.of_level(kind)
            ));
        }
        out.push_str(&format!("  {:<16} {:>6}\n", "local", a.local));
        out.push_str(&format!("  {:<16} {:>6}\n", "total", a.total()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{analyze, AnalysisConfig};
    use ipcp_ir::compile_to_ir;

    const OCEAN_LIKE: &str = "\
global n\nglobal m\n\
proc init()\nn = 64\nm = 32\nend\n\
proc compute(k)\nx = n\ny = m\nz = k\nprint(x + y + z)\nend\n\
main\ncall init()\ncall compute(8)\nend\n";

    const CHAIN: &str = "\
proc c(z)\nprint(z)\nend\n\
proc b(y)\ncall c(y)\nend\n\
proc a(x)\ncall b(x)\nend\n\
main\ncall a(7)\nend\n";

    fn sweep() -> Vec<AnalysisConfig> {
        let mut configs = Vec::new();
        for kind in JumpFunctionKind::ALL {
            for rjf in [true, false] {
                configs.push(AnalysisConfig {
                    jump_function: kind,
                    return_jump_functions: rjf,
                    ..AnalysisConfig::default()
                });
            }
        }
        configs.push(AnalysisConfig::intraprocedural_baseline());
        configs.push(AnalysisConfig {
            rjf_full_composition: true,
            ..AnalysisConfig::default()
        });
        configs
    }

    #[test]
    fn attribution_sums_to_substitution_total() {
        for src in [OCEAN_LIKE, CHAIN] {
            let program = compile_to_ir(src).expect("compiles");
            for config in sweep() {
                let out = analyze(&program, &config);
                let prov = analyze_provenance(&program, &config);
                assert_eq!(
                    prov.attribution.total(),
                    out.substitutions.total,
                    "{config:?}"
                );
            }
        }
    }

    #[test]
    fn every_constant_is_justified() {
        for src in [OCEAN_LIKE, CHAIN] {
            let program = compile_to_ir(src).expect("compiles");
            for config in sweep() {
                let prov = analyze_provenance(&program, &config);
                assert!(prov.fully_justified(), "{config:?}");
            }
        }
    }

    #[test]
    fn literal_actual_is_attributed_literal() {
        let program = compile_to_ir(CHAIN).expect("compiles");
        let prov = analyze_provenance(&program, &AnalysisConfig::default());
        // a(7) is a literal actual; the chained pass-throughs in b and c
        // raise the transitive level of y and z to pass-through.
        let a = program.proc_by_name("a").expect("a exists");
        let entry = &prov.of(a)[&Slot::Formal(0)];
        assert_eq!(entry.value, 7);
        assert_eq!(entry.level, JumpFunctionKind::Literal);
        let c = program.proc_by_name("c").expect("c exists");
        let entry = &prov.of(c)[&Slot::Formal(0)];
        assert_eq!(entry.value, 7);
        assert_eq!(entry.level, JumpFunctionKind::PassThrough);
        assert!(prov.attribution.pass_through >= 1, "{:?}", prov.attribution);
    }

    #[test]
    fn explain_reports_justifying_edges() {
        let program = compile_to_ir(OCEAN_LIKE).expect("compiles");
        let prov = analyze_provenance(&program, &AnalysisConfig::default());
        let text = prov.explain("compute", Some("k")).expect("explains");
        assert!(text.contains("compute.k = 8"), "{text}");
        assert!(text.contains("<- main"), "{text}");
        let all = prov.explain("compute", None).expect("explains");
        assert!(all.contains("compute.n = 64"), "{all}");
        // main calls init(), whose return jump functions recover the
        // global constants — the chain is reported on the caller.
        let main = prov.explain("main", None).expect("explains");
        assert!(main.contains("return-jump-function recoveries"), "{main}");
        assert!(main.contains("init.n -> 64"), "{main}");
    }

    #[test]
    fn explain_rejects_unknowns() {
        let program = compile_to_ir(OCEAN_LIKE).expect("compiles");
        let prov = analyze_provenance(&program, &AnalysisConfig::default());
        assert!(prov.explain("nosuch", None).is_err());
        assert!(prov.explain("compute", Some("nosuch")).is_err());
    }

    #[test]
    fn seeded_globals_need_no_edges() {
        let program = compile_to_ir("global g = 5\nproc f()\nprint(g)\nend\nmain\ncall f()\nend\n")
            .expect("compiles");
        let prov = analyze_provenance(&program, &AnalysisConfig::default());
        let g = program.global_ids().next().expect("one global");
        let entry = prov.of(program.main).get(&Slot::Global(g));
        if let Some(entry) = entry {
            assert!(entry.seeded);
        }
        assert!(prov.fully_justified());
    }

    #[test]
    fn intraprocedural_baseline_is_all_local() {
        let program = compile_to_ir(OCEAN_LIKE).expect("compiles");
        let prov = analyze_provenance(&program, &AnalysisConfig::intraprocedural_baseline());
        assert_eq!(prov.constant_count(), 0);
        let a = prov.attribution;
        assert_eq!(a.total(), a.local);
    }

    #[test]
    fn attribution_table_renders() {
        let program = compile_to_ir(CHAIN).expect("compiles");
        let prov = analyze_provenance(&program, &AnalysisConfig::default());
        let table = prov.attribution_table();
        assert!(table.contains("pass-through"), "{table}");
        assert!(table.contains("total"), "{table}");
    }
}
