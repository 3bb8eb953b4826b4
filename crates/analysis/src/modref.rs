//! Interprocedural MOD/REF side-effect summaries.
//!
//! A procedure's *slots* are its formal parameters plus the globals it
//! (transitively) touches — the paper treats globals as extra parameters
//! (footnote 1). `MOD(p)` is the set of slots an invocation of `p` may
//! modify; `REF(p)` the set it may reference. Both are flow-insensitive
//! and computed by a worklist fixpoint over the call graph, in the spirit
//! of Cooper–Kennedy (no aliasing: FORTRAN/Minifor forbid aliased
//! actuals, see the `ipcp-lang` crate docs).
//!
//! Only **integer/real scalar** slots are tracked; arrays are opaque to
//! the constant analyses and excluded throughout (the paper's
//! limitation 2).
//!
//! The [`ModKills`] oracle translates `MOD` into caller-side SSA kill
//! sets; [`ipcp_ssa::WorstCaseKills`] is the "no MOD information"
//! counterpart.

use crate::budget::{Budget, Phase};
use crate::callgraph::CallGraph;
use ipcp_ir::{GlobalId, Instr, ProcId, Procedure, Program, VarId, VarKind};
use ipcp_ssa::KillOracle;
use std::collections::BTreeSet;

/// An interprocedural parameter slot of a procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Slot {
    /// The `i`-th formal parameter.
    Formal(u32),
    /// A program global.
    Global(GlobalId),
    /// The function result (Minifor functions return by value; this slot
    /// carries returned-constant information like a by-ref formal would
    /// in FORTRAN).
    Result,
}

impl std::fmt::Display for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Slot::Formal(i) => write!(f, "arg{i}"),
            Slot::Global(g) => write!(f, "{g}"),
            Slot::Result => write!(f, "result"),
        }
    }
}

/// The slot a caller-side variable corresponds to, if any.
pub fn slot_of_var(proc: &Procedure, v: VarId) -> Option<Slot> {
    match proc.var(v).kind {
        VarKind::Formal(i) => Some(Slot::Formal(i)),
        VarKind::Global(g) => Some(Slot::Global(g)),
        VarKind::Local | VarKind::Temp => None,
    }
}

/// MOD/REF summaries for every procedure.
#[derive(Debug, Clone)]
pub struct ModRefInfo {
    mods: Vec<BTreeSet<Slot>>,
    refs: Vec<BTreeSet<Slot>>,
}

impl ModRefInfo {
    /// Slots procedure `p` may modify.
    pub fn mods(&self, p: ProcId) -> &BTreeSet<Slot> {
        &self.mods[p.index()]
    }

    /// Slots procedure `p` may reference.
    pub fn refs(&self, p: ProcId) -> &BTreeSet<Slot> {
        &self.refs[p.index()]
    }

    /// Whether `p` may modify `slot`.
    pub fn is_modified(&self, p: ProcId, slot: Slot) -> bool {
        self.mods[p.index()].contains(&slot)
    }

    /// The interprocedural parameter slots of `p` for constant
    /// propagation: its scalar integer formals plus every global in
    /// `REF(p) ∪ MOD(p)`.
    ///
    /// Real-typed formals are included (they simply stay ⊥); array formals
    /// are not.
    pub fn param_slots(&self, program: &Program, p: ProcId) -> Vec<Slot> {
        let proc = program.proc(p);
        let mut slots = Vec::new();
        for (i, v) in proc.formal_ids().enumerate() {
            if proc.var(v).ty.is_scalar() {
                slots.push(Slot::Formal(i as u32));
            }
        }
        let mut globals: BTreeSet<GlobalId> = BTreeSet::new();
        for s in self.refs[p.index()]
            .iter()
            .chain(self.mods[p.index()].iter())
        {
            if let Slot::Global(g) = s {
                if program.global(*g).ty.is_scalar() {
                    globals.insert(*g);
                }
            }
        }
        slots.extend(globals.into_iter().map(Slot::Global));
        slots
    }
}

/// Computes MOD/REF summaries by fixpoint over the call graph.
pub fn compute_modref(program: &Program, cg: &CallGraph) -> ModRefInfo {
    compute_modref_budgeted(program, cg, &Budget::unlimited())
}

/// The sound worst case: every procedure may modify and reference all of
/// its scalar formals and every scalar global — what "no MOD/REF
/// information" means for the downstream analyses.
fn worst_case_modref(program: &Program) -> ModRefInfo {
    let globals: Vec<Slot> = program
        .global_ids()
        .filter(|&g| program.global(g).ty.is_scalar())
        .map(Slot::Global)
        .collect();
    let mut mods = Vec::with_capacity(program.procs.len());
    let mut refs = Vec::with_capacity(program.procs.len());
    for pid in program.proc_ids() {
        let proc = program.proc(pid);
        let mut set: BTreeSet<Slot> = globals.iter().copied().collect();
        for (i, v) in proc.formal_ids().enumerate() {
            if proc.var(v).ty.is_scalar() {
                set.insert(Slot::Formal(i as u32));
            }
        }
        mods.push(set.clone());
        refs.push(set);
    }
    ModRefInfo { mods, refs }
}

/// Computes MOD/REF summaries under a fuel budget. Each procedure visit
/// of the transitive fixpoint draws one unit; on exhaustion every
/// summary degrades to the worst case (all scalar formals and globals
/// both modified and referenced), which is sound for every consumer.
pub fn compute_modref_budgeted(program: &Program, cg: &CallGraph, budget: &Budget) -> ModRefInfo {
    let (mut mods, mut refs) = direct_summaries(program);

    // Transitive effects: iterate bottom-up until stable (the bottom-up
    // SCC order makes most programs converge in one pass; recursion takes
    // a few more).
    let mut changed = true;
    while changed {
        changed = false;
        for scc in cg.sccs() {
            for &pid in scc {
                if !budget.checkpoint(Phase::ModRef, 1) {
                    budget.record_degradation(Phase::ModRef);
                    return worst_case_modref(program);
                }
                changed |= step_in_place(program, cg, pid, &mut mods, &mut refs);
            }
        }
    }

    ModRefInfo { mods, refs }
}

/// Every procedure's direct (local) effects, in `ProcId` order: one
/// cheap linear scan, which a fan-out would only slow down with spawns
/// and cross-thread frees.
fn direct_summaries(program: &Program) -> (Vec<BTreeSet<Slot>>, Vec<BTreeSet<Slot>>) {
    program
        .proc_ids()
        .map(|pid| direct_effects(program.proc(pid)))
        .unzip()
}

/// One transitive step of `pid` against the summaries in place: the
/// sequential fixpoint's visit. Returns whether a summary grew.
fn step_in_place(
    program: &Program,
    cg: &CallGraph,
    pid: ProcId,
    mods: &mut [BTreeSet<Slot>],
    refs: &mut [BTreeSet<Slot>],
) -> bool {
    let (new_mods, new_refs) = transitive_effects(
        program.proc(pid),
        cg.sites(pid),
        |c| &mods[c.index()],
        |c| &refs[c.index()],
    );
    let mut changed = false;
    for s in new_mods {
        changed |= mods[pid.index()].insert(s);
    }
    for s in new_refs {
        changed |= refs[pid.index()].insert(s);
    }
    changed
}

/// The slots one transitive step propagates into `proc` from its call
/// sites, given the current callee summaries. Shared by the sequential
/// fixpoint and the SCC-wave parallel fixpoint so both see identical
/// propagation rules. The summaries are borrowed, never copied.
fn transitive_effects<'s>(
    proc: &Procedure,
    sites: &[crate::callgraph::CallSite],
    callee_mods: impl Fn(ProcId) -> &'s BTreeSet<Slot>,
    callee_refs: impl Fn(ProcId) -> &'s BTreeSet<Slot>,
) -> (Vec<Slot>, Vec<Slot>) {
    let mut new_mods = Vec::new();
    let mut new_refs = Vec::new();
    for site in sites {
        let Instr::Call { callee, args, .. } = &proc.block(site.block).instrs[site.index] else {
            unreachable!("call site indexes a call");
        };
        for &slot in callee_mods(*callee) {
            match slot {
                Slot::Formal(k) => {
                    let arg = &args[k as usize];
                    if arg.by_ref {
                        if let Some(v) = arg.value.as_var() {
                            if let Some(s) = slot_of_var(proc, v) {
                                new_mods.push(s);
                            }
                        }
                    }
                }
                Slot::Global(g) => new_mods.push(Slot::Global(g)),
                Slot::Result => {}
            }
        }
        for &slot in callee_refs(*callee) {
            // Formal refs are covered by the caller's direct operand scan
            // (the actual's value is an operand of the call); only global
            // refs propagate.
            if let Slot::Global(g) = slot {
                new_refs.push(Slot::Global(g));
            }
        }
    }
    (new_mods, new_refs)
}

/// The slots one SCC's transitive step adds to each member's summaries:
/// `(member, added MOD slots, added REF slots)`, only for members that
/// grew.
type SccGrowth = Vec<(ProcId, Vec<Slot>, Vec<Slot>)>;

/// One transitive step over a whole SCC against a snapshot of the global
/// summaries, returning only what it adds. Members are visited in SCC
/// order and see each other's updates through a local overlay — exactly
/// the data the sequential bottom-up iteration would read, because
/// same-wave SCCs never call each other and lower waves are already
/// merged into `mods`/`refs`. A single non-recursive member (the common
/// case) needs no overlay and copies no summary.
fn scc_transitive_step(
    program: &Program,
    cg: &CallGraph,
    members: &[ProcId],
    mods: &[BTreeSet<Slot>],
    refs: &[BTreeSet<Slot>],
) -> SccGrowth {
    if let [pid] = members[..] {
        let (new_mods, new_refs) = transitive_effects(
            program.proc(pid),
            cg.sites(pid),
            |c| &mods[c.index()],
            |c| &refs[c.index()],
        );
        let fresh = |new: Vec<Slot>, have: &BTreeSet<Slot>| -> Vec<Slot> {
            let mut added: Vec<Slot> = new.into_iter().filter(|s| !have.contains(s)).collect();
            added.sort_unstable();
            added.dedup();
            added
        };
        let added_mods = fresh(new_mods, &mods[pid.index()]);
        let added_refs = fresh(new_refs, &refs[pid.index()]);
        if added_mods.is_empty() && added_refs.is_empty() {
            return Vec::new();
        }
        return vec![(pid, added_mods, added_refs)];
    }
    let mut local: Vec<(BTreeSet<Slot>, BTreeSet<Slot>)> = members
        .iter()
        .map(|&p| (mods[p.index()].clone(), refs[p.index()].clone()))
        .collect();
    // Sorted member index: the per-callee `position` scan is quadratic in
    // the SCC size, which matters for deep recursion towers.
    let mut member_idx: Vec<(ProcId, usize)> =
        members.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    member_idx.sort_unstable_by_key(|&(p, _)| p);
    let find = |c: ProcId| -> Option<usize> {
        member_idx
            .binary_search_by_key(&c, |&(p, _)| p)
            .ok()
            .map(|k| member_idx[k].1)
    };
    let mut grown = vec![false; members.len()];
    for idx in 0..members.len() {
        let pid = members[idx];
        let (new_mods, new_refs) = transitive_effects(
            program.proc(pid),
            cg.sites(pid),
            |c| match find(c) {
                Some(j) => &local[j].0,
                None => &mods[c.index()],
            },
            |c| match find(c) {
                Some(j) => &local[j].1,
                None => &refs[c.index()],
            },
        );
        let entry = &mut local[idx];
        for s in new_mods {
            grown[idx] |= entry.0.insert(s);
        }
        for s in new_refs {
            grown[idx] |= entry.1.insert(s);
        }
    }
    members
        .iter()
        .zip(local)
        .zip(grown)
        .filter(|(_, grew)| *grew)
        .map(|((&pid, (m, r)), _)| {
            let added_mods = m.difference(&mods[pid.index()]).copied().collect();
            let added_refs = r.difference(&refs[pid.index()]).copied().collect();
            (pid, added_mods, added_refs)
        })
        .collect()
}

/// Computes MOD/REF summaries with the transitive fixpoint scheduled in
/// SCC-condensation waves: every SCC of one reverse-topological level
/// runs concurrently, and each wave's results merge before the next wave
/// starts. Bit-identical to [`compute_modref_budgeted`] (same data reads,
/// same pass count, same fuel draw) at any `jobs` value; with `jobs <= 1`,
/// or when the cost gate would run every wave inline, it simply
/// delegates to the sequential fixpoint, so extra jobs never cost time.
pub fn compute_modref_par(
    program: &Program,
    cg: &CallGraph,
    budget: &Budget,
    jobs: usize,
) -> ModRefInfo {
    if jobs <= 1 {
        return compute_modref_budgeted(program, cg, budget);
    }
    let sccs = cg.sccs();
    let waves = crate::par::scc_waves(cg);
    // The cost gate's width per wave. A transitive step visits the
    // procedure's call sites and nothing else, so they are its work
    // estimate: a wave of leaves, however long their bodies, has no
    // work to fan out.
    let widths: Vec<usize> = waves
        .iter()
        .map(|wave| {
            let units: u64 = wave
                .iter()
                .flat_map(|&si| sccs[si].iter())
                .map(|&pid| cg.sites(pid).len() as u64)
                .sum();
            crate::par::wave_jobs(jobs, wave.len(), units)
        })
        .collect();
    if widths.iter().all(|&w| w <= 1) {
        return compute_modref_budgeted(program, cg, budget);
    }
    let (mut mods, mut refs) = direct_summaries(program);
    let mut changed = true;
    while changed {
        changed = false;
        for (wave, &wave_jobs) in waves.iter().zip(&widths) {
            // Fuel: one unit per procedure visit, drawn deterministically
            // on the calling thread — the same count per pass as the
            // sequential fixpoint.
            for &si in wave {
                for _ in &sccs[si] {
                    if !budget.checkpoint(Phase::ModRef, 1) {
                        budget.record_degradation(Phase::ModRef);
                        return worst_case_modref(program);
                    }
                }
            }
            if wave_jobs <= 1 {
                // A wave the cost gate runs inline steps in place, as the
                // sequential fixpoint does: same-wave SCCs never call
                // each other, so the order within the wave is invisible.
                for &si in wave {
                    for &pid in &sccs[si] {
                        changed |= step_in_place(program, cg, pid, &mut mods, &mut refs);
                    }
                }
                continue;
            }
            let results = crate::par::par_map(wave_jobs, wave, |_, &si| {
                scc_transitive_step(program, cg, &sccs[si], &mods, &refs)
            });
            for (pid, added_mods, added_refs) in results.into_iter().flatten() {
                changed = true;
                mods[pid.index()].extend(added_mods);
                refs[pid.index()].extend(added_refs);
            }
        }
    }

    ModRefInfo { mods, refs }
}

/// [`compute_modref_par`] with a phase span and summary counters
/// reported to `sink`: `modref.mod_slots` / `modref.ref_slots` total
/// the computed summary sizes. The returned summaries are the same
/// bytes at any sink.
pub fn compute_modref_obs(
    program: &Program,
    cg: &CallGraph,
    budget: &Budget,
    jobs: usize,
    sink: &dyn ipcp_obs::ObsSink,
) -> ModRefInfo {
    let start = sink.now();
    let modref = compute_modref_par(program, cg, budget, jobs);
    if sink.enabled() {
        sink.span("modref", "phase", start, sink.now().saturating_sub(start));
        let mods: usize = program.proc_ids().map(|p| modref.mods(p).len()).sum();
        let refs: usize = program.proc_ids().map(|p| modref.refs(p).len()).sum();
        sink.count("modref.mod_slots", mods as u64);
        sink.count("modref.ref_slots", refs as u64);
    }
    modref
}

/// Local (intraprocedural) MOD/REF of one procedure. Scalar slots only.
fn direct_effects(proc: &Procedure) -> (BTreeSet<Slot>, BTreeSet<Slot>) {
    let mut mods = BTreeSet::new();
    let mut refs = BTreeSet::new();
    let reference = |v: VarId, set: &mut BTreeSet<Slot>| {
        if proc.var(v).ty.is_scalar() {
            if let Some(s) = slot_of_var(proc, v) {
                set.insert(s);
            }
        }
    };
    for b in proc.block_ids() {
        let block = proc.block(b);
        for instr in &block.instrs {
            if let Some(d) = instr.def() {
                reference(d, &mut mods);
            }
            instr.for_each_use(|op| {
                if let Some(v) = op.as_var() {
                    reference(v, &mut refs);
                }
            });
        }
        block.term.for_each_use(|op| {
            if let Some(v) = op.as_var() {
                reference(v, &mut refs);
            }
        });
    }
    (mods, refs)
}

/// Extends every procedure's variable table with an entry for each scalar
/// global in its transitive `REF ∪ MOD` set that lowering did not already
/// add (lowering only records globals the procedure *names*).
///
/// This is required for soundness of the per-procedure analyses: a global
/// modified or read only by callees must have SSA names in the caller so
/// call kill sets and call-site snapshots track its flow-sensitive value.
/// Returns the number of entries added.
pub fn augment_global_vars(program: &mut Program, modref: &ModRefInfo) -> usize {
    let mut added = 0;
    for p in 0..program.procs.len() {
        let pid = ProcId::from_index(p);
        let mut wanted: BTreeSet<GlobalId> = BTreeSet::new();
        for s in modref.refs(pid).iter().chain(modref.mods(pid).iter()) {
            if let Slot::Global(g) = s {
                if program.global(*g).ty.is_scalar() {
                    wanted.insert(*g);
                }
            }
        }
        let decls: Vec<(GlobalId, String, ipcp_lang::ast::Ty)> = wanted
            .into_iter()
            .map(|g| (g, program.global(g).name.clone(), program.global(g).ty))
            .collect();
        let proc = &mut program.procs[p];
        for (g, name, ty) in decls {
            let present = proc.vars.iter().any(|v| v.kind == VarKind::Global(g));
            if !present {
                proc.vars.push(ipcp_ir::VarDecl {
                    name,
                    ty,
                    kind: VarKind::Global(g),
                });
                added += 1;
            }
        }
    }
    added
}

/// A [`KillOracle`] backed by MOD summaries: a call kills exactly the
/// by-reference scalar actuals bound to modified formals, plus the
/// caller-visible globals in the callee's MOD set.
#[derive(Debug, Clone)]
pub struct ModKills<'a> {
    program: &'a Program,
    modref: &'a ModRefInfo,
}

impl<'a> ModKills<'a> {
    /// Creates the oracle.
    pub fn new(program: &'a Program, modref: &'a ModRefInfo) -> Self {
        ModKills { program, modref }
    }
}

impl KillOracle for ModKills<'_> {
    fn kills(&self, caller: &Procedure, callee: ProcId, args: &[ipcp_ir::CallArg]) -> Vec<VarId> {
        let mods = self.modref.mods(callee);
        let _ = self.program;
        let mut kills = Vec::new();
        for (k, arg) in args.iter().enumerate() {
            if !arg.by_ref {
                continue;
            }
            let Some(v) = arg.value.as_var() else {
                continue;
            };
            if caller.var(v).ty.is_array() {
                continue;
            }
            if mods.contains(&Slot::Formal(k as u32)) && !kills.contains(&v) {
                kills.push(v);
            }
        }
        for v in caller.var_ids() {
            let decl = caller.var(v);
            if let VarKind::Global(g) = decl.kind {
                if decl.ty.is_scalar() && mods.contains(&Slot::Global(g)) && !kills.contains(&v) {
                    kills.push(v);
                }
            }
        }
        kills
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::compile_to_ir;

    fn analyze(src: &str) -> (Program, CallGraph, ModRefInfo) {
        let program = compile_to_ir(src).expect("compiles");
        let cg = CallGraph::new(&program);
        let mr = compute_modref(&program, &cg);
        (program, cg, mr)
    }

    fn slot_names(program: &Program, p: ProcId, slots: &BTreeSet<Slot>) -> Vec<String> {
        slots
            .iter()
            .map(|s| match s {
                Slot::Formal(i) => {
                    let proc = program.proc(p);
                    proc.var(ipcp_ir::VarId(*i)).name.clone()
                }
                Slot::Global(g) => program.global(*g).name.clone(),
                Slot::Result => "result".into(),
            })
            .collect()
    }

    #[test]
    fn exhausted_budget_degrades_to_worst_case() {
        let src = "global g\nproc f(a, b)\na = b + 1\nend\nmain\ncall f(x, y)\nend\n";
        let program = compile_to_ir(src).unwrap();
        let cg = CallGraph::new(&program);
        let budget = Budget::with_fuel(0);
        let mr = compute_modref_budgeted(&program, &cg, &budget);
        let f = program.proc_by_name("f").unwrap();
        // Worst case: both formals and the global count as modified and
        // referenced — a superset of the precise answer, sound everywhere.
        assert!(mr.is_modified(f, Slot::Formal(0)));
        assert!(mr.is_modified(f, Slot::Formal(1)));
        assert!(mr.refs(f).iter().any(|s| matches!(s, Slot::Global(_))));
        assert!(budget.report().degradations[&Phase::ModRef] > 0);
        // The precise run is a subset of the degraded one.
        let precise = compute_modref(&program, &cg);
        for pid in program.proc_ids() {
            assert!(precise.mods(pid).is_subset(mr.mods(pid)));
        }
    }

    #[test]
    fn direct_formal_mod() {
        let (program, _, mr) = analyze("proc f(a, b)\na = b + 1\nend\nmain\ncall f(x, y)\nend\n");
        let f = program.proc_by_name("f").unwrap();
        assert!(mr.is_modified(f, Slot::Formal(0)));
        assert!(!mr.is_modified(f, Slot::Formal(1)));
        assert!(mr.refs(f).contains(&Slot::Formal(1)));
        assert!(!mr.refs(f).contains(&Slot::Formal(0)));
    }

    #[test]
    fn global_mod_and_ref() {
        let (program, _, mr) =
            analyze("global g\nglobal h\nproc f()\ng = h\nend\nmain\ncall f()\nend\n");
        let f = program.proc_by_name("f").unwrap();
        assert_eq!(slot_names(&program, f, mr.mods(f)), vec!["g"]);
        assert_eq!(slot_names(&program, f, mr.refs(f)), vec!["h"]);
    }

    #[test]
    fn transitive_mod_through_binding() {
        // h modifies its formal; g passes its own formal through; so g
        // modifies its formal too, transitively.
        let src = "proc h(x)\nx = 1\nend\nproc g(y)\ncall h(y)\nend\nmain\ncall g(z)\nend\n";
        let (program, _, mr) = analyze(src);
        let g = program.proc_by_name("g").unwrap();
        assert!(mr.is_modified(g, Slot::Formal(0)));
        // main modifies nothing slot-like (z is a local).
        assert!(mr.mods(program.main).is_empty());
    }

    #[test]
    fn transitive_global_mod() {
        let src = "global c\nproc inner()\nc = 5\nend\nproc outer()\ncall inner()\nend\nmain\ncall outer()\nend\n";
        let (program, _, mr) = analyze(src);
        let outer = program.proc_by_name("outer").unwrap();
        assert_eq!(slot_names(&program, outer, mr.mods(outer)), vec!["c"]);
        // main also "modifies" c transitively.
        assert_eq!(
            slot_names(&program, program.main, mr.mods(program.main)),
            vec!["c"]
        );
    }

    #[test]
    fn by_value_args_do_not_propagate_mod() {
        let src = "proc h(x)\nx = 1\nend\nproc g(y)\ncall h(y + 0)\nend\nmain\ncall g(z)\nend\n";
        let (program, _, mr) = analyze(src);
        let g = program.proc_by_name("g").unwrap();
        assert!(!mr.is_modified(g, Slot::Formal(0)));
    }

    #[test]
    fn read_counts_as_mod() {
        let (program, _, mr) = analyze("proc f(a)\nread(a)\nend\nmain\ncall f(x)\nend\n");
        let f = program.proc_by_name("f").unwrap();
        assert!(mr.is_modified(f, Slot::Formal(0)));
    }

    #[test]
    fn recursive_mod_converges() {
        let src = "\
global acc\n\
proc walk(n)\nif n > 0 then\nacc = acc + n\ncall walk(n - 1)\nend\nend\n\
main\ncall walk(5)\nend\n";
        let (program, _, mr) = analyze(src);
        let walk = program.proc_by_name("walk").unwrap();
        assert_eq!(slot_names(&program, walk, mr.mods(walk)), vec!["acc"]);
        assert!(mr.refs(walk).contains(&Slot::Formal(0)));
    }

    #[test]
    fn mutual_recursion_converges() {
        let src = "\
global depth\n\
proc ping(n)\ndepth = depth + 1\nif n > 0 then\ncall pong(n - 1)\nend\nend\n\
proc pong(n)\nif n > 0 then\ncall ping(n - 1)\nend\nend\n\
main\ncall ping(4)\nend\n";
        let (program, _, mr) = analyze(src);
        let pong = program.proc_by_name("pong").unwrap();
        // pong modifies depth only transitively through ping.
        assert_eq!(slot_names(&program, pong, mr.mods(pong)), vec!["depth"]);
    }

    #[test]
    fn arrays_are_not_slots() {
        let src = "global a(5)\nproc f(v())\nv(1) = 2\na(1) = 3\nend\nmain\ninteger b(5)\ncall f(b)\nend\n";
        let (program, _, mr) = analyze(src);
        let f = program.proc_by_name("f").unwrap();
        assert!(mr.mods(f).is_empty(), "{:?}", mr.mods(f));
    }

    #[test]
    fn param_slots_include_touched_globals_only() {
        let src = "global used\nglobal untouched\nglobal real r\n\
                   proc f(a, real b, v())\na = used\nr = b\nend\nmain\ninteger w(3)\ncall f(x, 1.5, w)\nend\n";
        let (program, _, mr) = analyze(src);
        let f = program.proc_by_name("f").unwrap();
        let slots = mr.param_slots(&program, f);
        // Formals: a (int), b (real) — the array v is excluded.
        assert!(slots.contains(&Slot::Formal(0)));
        assert!(slots.contains(&Slot::Formal(1)));
        assert_eq!(
            slots
                .iter()
                .filter(|s| matches!(s, Slot::Formal(_)))
                .count(),
            2
        );
        // Globals: `used` (ref'd); `r` is real but scalar → included; `untouched` absent.
        let globals: Vec<String> = slots
            .iter()
            .filter_map(|s| match s {
                Slot::Global(g) => Some(program.global(*g).name.clone()),
                _ => None,
            })
            .collect();
        assert!(globals.contains(&"used".to_string()));
        assert!(globals.contains(&"r".to_string()));
        assert!(!globals.contains(&"untouched".to_string()));
    }

    #[test]
    fn mod_kills_oracle() {
        let src = "global g\nglobal h\nproc f(a, b)\na = 1\ng = 2\nend\n\
                   main\nx = h\ny = 0\ncall f(y, x)\nz = g\nend\n";
        let (program, _, mr) = analyze(src);
        let oracle = ModKills::new(&program, &mr);
        let main = program.proc(program.main);
        let f = program.proc_by_name("f").unwrap();
        // Find the call's args.
        let mut killed_names = Vec::new();
        for b in main.block_ids() {
            for instr in &main.block(b).instrs {
                if let Instr::Call { args, .. } = instr {
                    for v in oracle.kills(main, f, args) {
                        killed_names.push(main.var(v).name.clone());
                    }
                }
            }
        }
        // y (bound to modified formal a) and g (modified global) die;
        // x (bound to unmodified b) and h (unreferenced... h is read by
        // main itself but f does not modify it) survive.
        assert!(killed_names.contains(&"y".to_string()), "{killed_names:?}");
        assert!(killed_names.contains(&"g".to_string()), "{killed_names:?}");
        assert!(!killed_names.contains(&"x".to_string()), "{killed_names:?}");
        assert!(!killed_names.contains(&"h".to_string()), "{killed_names:?}");
    }

    #[test]
    fn parallel_fixpoint_matches_sequential_bit_for_bit() {
        let sources = [
            "global c\nproc inner()\nc = 5\nend\nproc outer()\ncall inner()\nend\nmain\ncall outer()\nend\n",
            "global depth\n\
             proc ping(n)\ndepth = depth + 1\nif n > 0 then\ncall pong(n - 1)\nend\nend\n\
             proc pong(n)\nif n > 0 then\ncall ping(n - 1)\nend\nend\n\
             main\ncall ping(4)\nend\n",
            "proc h(x)\nx = 1\nend\nproc g(y)\ncall h(y)\nend\nmain\ncall g(z)\nend\n",
        ];
        for src in sources {
            let program = compile_to_ir(src).unwrap();
            let cg = CallGraph::new(&program);
            let seq_budget = Budget::unlimited();
            let seq = compute_modref_budgeted(&program, &cg, &seq_budget);
            for jobs in [0, 1, 2, 8] {
                let par_budget = Budget::unlimited();
                let par = compute_modref_par(&program, &cg, &par_budget, jobs);
                for pid in program.proc_ids() {
                    assert_eq!(seq.mods(pid), par.mods(pid), "mods of {pid:?} at {jobs}");
                    assert_eq!(seq.refs(pid), par.refs(pid), "refs of {pid:?} at {jobs}");
                }
                // Identical pass count → identical fuel draw.
                assert_eq!(seq_budget.fuel_consumed(), par_budget.fuel_consumed());
            }
        }
    }

    /// A program wide enough that the cost gate fans waves out: two hub
    /// procedures and a recursive pair, each with thousands of call
    /// sites into leaves that write globals and by-reference formals.
    #[test]
    fn fanned_out_waves_match_sequential_bit_for_bit() {
        let mut src = String::new();
        for g in 0..8 {
            src.push_str(&format!("global g{g}\n"));
        }
        for l in 0..8 {
            src.push_str(&format!(
                "proc leaf{l}(x)\nx = g{l}\ng{} = 1\nend\n",
                (l + 1) % 8
            ));
        }
        for hub in ["hub0", "hub1", "ping", "pong"] {
            src.push_str(&format!("proc {hub}(y)\n"));
            for i in 0..2200 {
                src.push_str(&format!("call leaf{}(y)\n", i % 8));
            }
            match hub {
                "ping" => src.push_str("if y > 0 then\ncall pong(y)\nend\n"),
                "pong" => src.push_str("if y > 0 then\ncall ping(y)\nend\n"),
                _ => {}
            }
            src.push_str("end\n");
        }
        src.push_str("main\ncall hub0(a)\ncall hub1(b)\ncall ping(c)\nend\n");
        let program = compile_to_ir(&src).unwrap();
        let cg = CallGraph::new(&program);
        let waves = crate::par::scc_waves(&cg);
        assert!(
            waves.iter().any(|wave| {
                let sites: usize = wave
                    .iter()
                    .flat_map(|&si| cg.sccs()[si].iter())
                    .map(|&pid| cg.sites(pid).len())
                    .sum();
                crate::par::wave_jobs(2, wave.len(), sites as u64) > 1
            }),
            "no wave fans out; the test would not exercise the parallel path"
        );
        let seq_budget = Budget::unlimited();
        let seq = compute_modref_budgeted(&program, &cg, &seq_budget);
        for jobs in [2, 8] {
            let par_budget = Budget::unlimited();
            let par = compute_modref_par(&program, &cg, &par_budget, jobs);
            for pid in program.proc_ids() {
                assert_eq!(seq.mods(pid), par.mods(pid), "mods of {pid:?} at {jobs}");
                assert_eq!(seq.refs(pid), par.refs(pid), "refs of {pid:?} at {jobs}");
            }
            assert_eq!(seq_budget.fuel_consumed(), par_budget.fuel_consumed());
        }
    }

    #[test]
    fn slot_display() {
        assert_eq!(Slot::Formal(2).to_string(), "arg2");
        assert_eq!(Slot::Global(GlobalId(1)).to_string(), "g1");
        assert_eq!(Slot::Result.to_string(), "result");
    }
}
