//! Return jump functions (paper §3.2).
//!
//! For each procedure `p` and each slot `x` (by-reference formal, global,
//! or the function result), `R_x^p` approximates `x`'s value on return
//! from `p` as a function of `p`'s entry slots. They are generated in a
//! bottom-up pass over the call graph: the symbolic evaluation of `p`
//! *composes* the already-computed return jump functions of `p`'s callees
//! into `p`'s own exit values ([`RjfComposer`]). Procedures in recursive
//! cycles use ⊥ for their same-cycle callees (FORTRAN has no recursion;
//! Minifor allows it and stays sound).
//!
//! During *forward* jump function generation the paper evaluates each
//! return jump function with intraprocedural information and keeps only
//! constants: "any return jump function that cannot be evaluated as
//! constant … is set to ⊥", so "return jump functions that depend on
//! parameters to the calling procedure can never be evaluated as
//! constant". [`RjfConstEval`] implements exactly that behaviour;
//! [`RjfComposer`] (full symbolic composition) is also available as an
//! extension toggle in the driver.

use crate::framework::{run_budgeted_pass, BudgetedProcPass, Rung};
use crate::jump::{note_table_size, JumpFn, JumpFunctionKind};
use ipcp_analysis::symeval::{symbolic_eval_budgeted, CallSymbolics, Sym, SymEvalOptions};
use ipcp_analysis::{Budget, CallGraph, LatticeVal, Phase, Slot, SlotTable};
use ipcp_ir::{GlobalId, ProcId, Program};
use ipcp_ssa::{build_ssa, KillOracle, SsaTerminator};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One procedure's return jump functions, by slot: a dense table, as
/// small in memory as on disk.
pub(crate) type RjfTable = SlotTable<JumpFn>;

/// Return jump functions of every procedure, keyed by slot and expressed
/// over the owning procedure's entry slots.
///
/// Each procedure's table is shared: a table assembled from a session's
/// stored per-procedure tables copies no jump function, and procedures
/// without return jump functions all share one empty table.
#[derive(Debug, Clone, Default)]
pub struct ReturnJumpFns {
    per_proc: Vec<Arc<RjfTable>>,
    /// Jump functions installed so far, across all procedures.
    entries: usize,
}

impl ReturnJumpFns {
    /// An empty table (the "no return jump functions" configuration —
    /// every lookup misses, so every call effect is ⊥).
    pub fn empty(proc_count: usize) -> Self {
        ReturnJumpFns {
            per_proc: vec![Arc::default(); proc_count],
            entries: 0,
        }
    }

    /// The return jump function of `(p, slot)`, if one was built.
    pub fn get(&self, p: ProcId, slot: Slot) -> Option<&JumpFn> {
        self.per_proc.get(p.index()).and_then(|m| m.get(&slot))
    }

    /// Iterates over the slots of `p` with return jump functions.
    pub fn slots(&self, p: ProcId) -> impl Iterator<Item = (&Slot, &JumpFn)> {
        self.per_proc[p.index()].iter()
    }

    /// Total number of non-⊥ return jump functions.
    pub fn useful_count(&self) -> usize {
        self.per_proc
            .iter()
            .flat_map(|m| m.values())
            .filter(|jf| !jf.is_bottom())
            .count()
    }

    /// Installs the slot table of `p` (used by the session when it
    /// assembles a table from cached per-procedure pieces).
    pub(crate) fn set_proc(&mut self, p: ProcId, table: Arc<RjfTable>) {
        self.entries += table.len();
        note_table_size(self.entries);
        self.per_proc[p.index()] = table;
    }

    /// Records table-shape counters (slot totals per jump-function form)
    /// into the observability sink. No-op when tracing is disabled.
    pub fn emit_counters(&self, sink: &dyn ipcp_obs::ObsSink) {
        if !sink.enabled() {
            return;
        }
        let (mut consts, mut pass, mut exprs, mut bottoms) = (0u64, 0u64, 0u64, 0u64);
        for jf in self.per_proc.iter().flat_map(|m| m.values()) {
            match jf {
                JumpFn::Const(_) => consts += 1,
                JumpFn::PassThrough(_) => pass += 1,
                JumpFn::Expr(_) => exprs += 1,
                JumpFn::Bottom => bottoms += 1,
            }
        }
        sink.count("rjf.useful", self.useful_count() as u64);
        sink.count("rjf.const", consts);
        sink.count("rjf.pass_through", pass);
        sink.count("rjf.expr", exprs);
        sink.count("rjf.bottom", bottoms);
    }
}

/// Builds return jump functions for all procedures, bottom-up over the
/// call-graph condensation, with default symbolic-evaluation options.
pub fn build_return_jfs(
    program: &Program,
    cg: &CallGraph,
    kills: &dyn KillOracle,
) -> ReturnJumpFns {
    build_return_jfs_with(program, cg, kills, SymEvalOptions::default())
}

/// Builds return jump functions with explicit symbolic-evaluation options
/// (e.g. the gated-single-assignment extension).
pub fn build_return_jfs_with(
    program: &Program,
    cg: &CallGraph,
    kills: &dyn KillOracle,
    options: SymEvalOptions,
) -> ReturnJumpFns {
    build_return_jfs_budgeted(program, cg, kills, options, &Budget::unlimited())
}

/// Builds return jump functions under a fuel budget. Each procedure
/// draws one unit before its SSA construction and symbolic evaluation;
/// on exhaustion the procedure's table stays empty — every lookup misses
/// and call effects degrade to ⊥, exactly the "no return jump functions"
/// configuration.
///
/// This is the bottom-up construction expressed as a single-rung
/// [`BudgetedProcPass`]: the SCC condensation supplies the build order
/// (members of a recursive SCC see ⊥ for in-SCC callees, whose entries
/// are still empty when processed), and the generic driver supplies the
/// fuel checkpoints and degradation records.
pub fn build_return_jfs_budgeted(
    program: &Program,
    cg: &CallGraph,
    kills: &dyn KillOracle,
    options: SymEvalOptions,
    budget: &Budget,
) -> ReturnJumpFns {
    let mut rjfs = ReturnJumpFns::empty(program.procs.len());
    let pass = RjfPass {
        program,
        cg,
        kills,
        options,
    };
    run_budgeted_pass(&pass, &mut rjfs, budget);
    rjfs
}

/// The return-jump-function construction as a problem definition for
/// [`run_budgeted_pass`]: one rung of unit weight per procedure, the
/// bottom-up SCC order, and the empty table as the exhaustion fallback.
struct RjfPass<'a> {
    program: &'a Program,
    cg: &'a CallGraph,
    kills: &'a dyn KillOracle,
    options: SymEvalOptions,
}

impl BudgetedProcPass for RjfPass<'_> {
    type Acc = ReturnJumpFns;
    type Kind = ();

    fn phase(&self) -> Phase {
        Phase::ReturnJf
    }

    fn order(&self) -> Vec<ProcId> {
        self.cg.sccs().iter().flatten().copied().collect()
    }

    fn ladder(&self) -> Vec<Rung<()>> {
        vec![Rung {
            kind: (),
            name: "rjf".to_string(),
            weight: 1,
        }]
    }

    fn estimate(&self, _p: ProcId) -> u64 {
        1
    }

    fn build(&self, acc: &mut ReturnJumpFns, p: ProcId, _kind: (), budget: &Budget) {
        let ssa = build_ssa(self.program, self.program.proc(p), self.kills);
        let map = build_rjf_for_proc(self.program, p, acc, &ssa, self.options, budget);
        acc.set_proc(p, Arc::new(map));
    }

    fn fallback(&self, _acc: &mut ReturnJumpFns, _p: ProcId) {
        // The entry stays empty: every lookup misses, call effects are ⊥.
    }

    fn tracks_ladder(&self) -> bool {
        false
    }
}

/// Builds the return-jump-function table of one procedure from its
/// (prebuilt) SSA form and the tables of its already-processed callees.
/// Exposed at crate level so the session can drive the bottom-up pass
/// with cached SSA artifacts.
pub(crate) fn build_rjf_for_proc(
    program: &Program,
    pid: ProcId,
    rjfs: &dyn RjfSource,
    ssa: &ipcp_ssa::SsaProc,
    options: SymEvalOptions,
    budget: &Budget,
) -> RjfTable {
    let proc = program.proc(pid);
    let composer = SourceComposer { src: rjfs };
    let sym = symbolic_eval_budgeted(proc, ssa, &composer, options, budget);

    // Meet the exit snapshots of every reachable return.
    let mut merged: BTreeMap<ipcp_ir::VarId, Option<Sym>> = BTreeMap::new();
    let mut result: Option<Sym> = None;
    let mut saw_return = false;
    for (_, blk) in ssa.rpo_blocks() {
        let SsaTerminator::Return { value, exit } = &blk.term else {
            continue;
        };
        saw_return = true;
        for &(var, name) in exit {
            let v = sym.of(name).clone();
            merged
                .entry(var)
                .and_modify(|acc| {
                    if let Some(prev) = acc {
                        if *prev != v {
                            *acc = None; // differing exit values ⇒ ⊥
                        }
                    }
                })
                .or_insert(Some(v));
        }
        if let Some(op) = value {
            let v = sym.of_operand(*op);
            match &result {
                None => result = Some(v),
                Some(prev) if *prev != v => result = Some(Sym::Bottom),
                _ => {}
            }
        }
    }

    let mut map = RjfTable::new();
    if !saw_return {
        // The procedure never returns normally; leave everything ⊥ (miss).
        return map;
    }
    for (var, acc) in merged {
        let decl = proc.var(var);
        if decl.ty != ipcp_lang::ast::Ty::INT {
            continue;
        }
        let Some(slot) = ipcp_analysis::slot_of_var(proc, var) else {
            continue;
        };
        let jf = match acc {
            Some(s) => JumpFn::from_sym(JumpFunctionKind::Polynomial, &s),
            None => JumpFn::Bottom,
        };
        map.insert(slot, jf);
    }
    if let Some(r) = result {
        map.insert(
            Slot::Result,
            JumpFn::from_sym(JumpFunctionKind::Polynomial, &r),
        );
    }
    map
}

/// A return-jump-function lookup source: the complete shared table, or a
/// copy-free SCC overlay layered on top of it.
pub(crate) trait RjfSource: Sync {
    /// The return jump function of `(p, slot)`, if one was built.
    fn lookup(&self, p: ProcId, slot: Slot) -> Option<&JumpFn>;
}

impl RjfSource for ReturnJumpFns {
    fn lookup(&self, p: ProcId, slot: Slot) -> Option<&JumpFn> {
        self.get(p, slot)
    }
}

/// A recursive SCC's private view of the table under construction:
/// entries of members already processed this SCC shadow the shared base.
/// Lookups scan the (SCC-sized) local list first — the base is never
/// cloned, so building an SCC costs O(SCC), not O(program).
pub(crate) struct SccOverlay<'a> {
    base: &'a ReturnJumpFns,
    local: Vec<(ProcId, Arc<RjfTable>)>,
}

impl<'a> SccOverlay<'a> {
    /// An overlay with no local entries yet.
    pub(crate) fn new(base: &'a ReturnJumpFns) -> Self {
        SccOverlay {
            base,
            local: Vec::new(),
        }
    }

    /// Records `p`'s freshly built table; later members see it.
    pub(crate) fn push(&mut self, p: ProcId, map: Arc<RjfTable>) {
        self.local.push((p, map));
    }
}

impl RjfSource for SccOverlay<'_> {
    fn lookup(&self, p: ProcId, slot: Slot) -> Option<&JumpFn> {
        for (member, map) in &self.local {
            if *member == p {
                return map.get(&slot);
            }
        }
        self.base.get(p, slot)
    }
}

/// Full symbolic composition of return jump functions into a caller's
/// value numbering — used while *generating* the caller's own return jump
/// functions ("to expose as many return jump functions as possible in the
/// calling procedure", §3.2).
#[derive(Debug, Clone, Copy)]
pub struct RjfComposer<'a> {
    /// The return jump functions computed so far.
    pub rjfs: &'a ReturnJumpFns,
}

impl CallSymbolics for RjfComposer<'_> {
    fn slot_after_call(
        &self,
        callee: ProcId,
        slot: Slot,
        arg_sym: &dyn Fn(u32) -> Sym,
        global_sym: &dyn Fn(GlobalId) -> Sym,
    ) -> Sym {
        compose_after_call(self.rjfs, callee, slot, arg_sym, global_sym)
    }
}

/// [`RjfComposer`] over any [`RjfSource`] — the crate-internal face used
/// by the bottom-up builder, where a recursive SCC composes against its
/// overlay instead of a clone of the whole table.
struct SourceComposer<'a> {
    src: &'a dyn RjfSource,
}

impl CallSymbolics for SourceComposer<'_> {
    fn slot_after_call(
        &self,
        callee: ProcId,
        slot: Slot,
        arg_sym: &dyn Fn(u32) -> Sym,
        global_sym: &dyn Fn(GlobalId) -> Sym,
    ) -> Sym {
        compose_after_call(self.src, callee, slot, arg_sym, global_sym)
    }
}

/// The composition shared by both composer fronts: substitute the call's
/// argument and global symbolics into the callee's return jump function.
fn compose_after_call(
    src: &dyn RjfSource,
    callee: ProcId,
    slot: Slot,
    arg_sym: &dyn Fn(u32) -> Sym,
    global_sym: &dyn Fn(GlobalId) -> Sym,
) -> Sym {
    let Some(jf) = src.lookup(callee, slot) else {
        return Sym::Bottom;
    };
    if let Some(c) = jf.as_const() {
        return Sym::constant(c);
    }
    let Some(expr) = jf.to_expr() else {
        return Sym::Bottom;
    };
    let substituted = expr.subst(&|s| match s {
        Slot::Formal(k) => arg_sym(k).as_expr().cloned(),
        Slot::Global(g) => global_sym(g).as_expr().cloned(),
        Slot::Result => None,
    });
    match substituted {
        Some(e) => Sym::Expr(e),
        None => Sym::Bottom,
    }
}

/// The paper's forward-generation evaluation: a return jump function
/// contributes only when it evaluates to a *constant* from the values
/// known at the call site; anything symbolic is ⊥.
#[derive(Debug, Clone, Copy)]
pub struct RjfConstEval<'a> {
    /// The completed return jump function table.
    pub rjfs: &'a ReturnJumpFns,
}

impl CallSymbolics for RjfConstEval<'_> {
    fn slot_after_call(
        &self,
        callee: ProcId,
        slot: Slot,
        arg_sym: &dyn Fn(u32) -> Sym,
        global_sym: &dyn Fn(GlobalId) -> Sym,
    ) -> Sym {
        let Some(jf) = self.rjfs.get(callee, slot) else {
            return Sym::Bottom;
        };
        if let Some(c) = jf.as_const() {
            return Sym::constant(c);
        }
        let Some(expr) = jf.to_expr() else {
            return Sym::Bottom;
        };
        let value = expr.eval(&|s| match s {
            Slot::Formal(k) => arg_sym(k).as_const(),
            Slot::Global(g) => global_sym(g).as_const(),
            Slot::Result => None,
        });
        match value {
            Some(c) => Sym::constant(c),
            None => Sym::Bottom,
        }
    }
}

/// Lattice-level return-jump-function evaluation, used when SCCP needs
/// call effects (substitution counting and dead-code elimination).
#[derive(Debug, Clone, Copy)]
pub struct RjfLattice<'a> {
    /// The completed return jump function table.
    pub rjfs: &'a ReturnJumpFns,
}

impl ipcp_analysis::CallLattice for RjfLattice<'_> {
    fn slot_after_call(
        &self,
        callee: ProcId,
        slot: Slot,
        arg: &dyn Fn(u32) -> LatticeVal,
        global: &dyn Fn(GlobalId) -> LatticeVal,
    ) -> LatticeVal {
        let Some(jf) = self.rjfs.get(callee, slot) else {
            return LatticeVal::Bottom;
        };
        jf.eval_lattice(&|s| match s {
            Slot::Formal(k) => arg(k),
            Slot::Global(g) => global(g),
            Slot::Result => LatticeVal::Bottom,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_analysis::{augment_global_vars, compute_modref, ModKills};
    use ipcp_ir::compile_to_ir;

    fn build(src: &str) -> (Program, ReturnJumpFns) {
        let mut program = compile_to_ir(src).expect("compiles");
        let cg = CallGraph::new(&program);
        let modref = compute_modref(&program, &cg);
        augment_global_vars(&mut program, &modref);
        let cg = CallGraph::new(&program);
        let kills = ModKills::new(&program, &modref);
        let rjfs = build_return_jfs(&program, &cg, &kills);
        (program, rjfs)
    }

    fn rjf_of(program: &Program, rjfs: &ReturnJumpFns, proc: &str, slot: Slot) -> JumpFn {
        let pid = program.proc_by_name(proc).unwrap();
        rjfs.get(pid, slot).cloned().unwrap_or(JumpFn::Bottom)
    }

    #[test]
    fn constant_assignment_gives_constant_rjf() {
        let (p, r) = build("proc init(x)\nx = 42\nend\nmain\ncall init(q)\nprint(q)\nend\n");
        assert_eq!(rjf_of(&p, &r, "init", Slot::Formal(0)).as_const(), Some(42));
    }

    #[test]
    fn unmodified_formal_gives_identity_rjf() {
        let (p, r) = build("proc f(x, y)\ny = 1\nend\nmain\ncall f(a, b)\nend\n");
        let jf = rjf_of(&p, &r, "f", Slot::Formal(0));
        assert_eq!(jf.to_expr().and_then(|e| e.as_var()), Some(Slot::Formal(0)));
    }

    #[test]
    fn symbolic_rjf_over_own_formals() {
        let (p, r) = build("proc f(x, y)\ny = x * 2 + 1\nend\nmain\ncall f(3, b)\nprint(b)\nend\n");
        let jf = rjf_of(&p, &r, "f", Slot::Formal(1));
        let e = jf.to_expr().expect("expression");
        assert_eq!(e.eval(&|_| Some(3)), Some(7));
    }

    #[test]
    fn global_initialization_rjf() {
        let (p, r) = build("global n\nglobal m\nproc init()\nn = 10\nm = 20\nend\nmain\ncall init()\nprint(n + m)\nend\n");
        assert_eq!(
            rjf_of(&p, &r, "init", Slot::Global(GlobalId(0))).as_const(),
            Some(10)
        );
        assert_eq!(
            rjf_of(&p, &r, "init", Slot::Global(GlobalId(1))).as_const(),
            Some(20)
        );
    }

    #[test]
    fn function_result_rjf() {
        let (p, r) = build("func sq(x)\nreturn x * x\nend\nmain\ny = sq(4)\nprint(y)\nend\n");
        let jf = rjf_of(&p, &r, "sq", Slot::Result);
        assert_eq!(jf.to_expr().unwrap().eval(&|_| Some(4)), Some(16));
    }

    #[test]
    fn conflicting_exits_are_bottom() {
        let src =
            "proc f(x, c)\nif c then\nx = 1\nelse\nx = 2\nend\nend\nmain\ncall f(a, b)\nend\n";
        let (p, r) = build(src);
        assert!(rjf_of(&p, &r, "f", Slot::Formal(0)).is_bottom());
    }

    #[test]
    fn agreeing_exits_merge() {
        let src =
            "proc f(x, c)\nif c then\nx = 5\nreturn\nend\nx = 5\nend\nmain\ncall f(a, b)\nend\n";
        let (p, r) = build(src);
        assert_eq!(rjf_of(&p, &r, "f", Slot::Formal(0)).as_const(), Some(5));
    }

    #[test]
    fn composition_chains_bottom_up() {
        // inner sets g = 7; outer calls inner; outer's RJF for g is 7.
        let src = "global g\nproc inner()\ng = 7\nend\nproc outer()\ncall inner()\nend\nmain\ncall outer()\nprint(g)\nend\n";
        let (p, r) = build(src);
        assert_eq!(
            rjf_of(&p, &r, "inner", Slot::Global(GlobalId(0))).as_const(),
            Some(7)
        );
        assert_eq!(
            rjf_of(&p, &r, "outer", Slot::Global(GlobalId(0))).as_const(),
            Some(7)
        );
    }

    #[test]
    fn composition_substitutes_arguments() {
        // inner doubles its arg into g; outer passes its own formal + 1.
        let src = "global g\nproc inner(x)\ng = x * 2\nend\nproc outer(y)\ncall inner(y + 1)\nend\nmain\ncall outer(4)\nprint(g)\nend\n";
        let (p, r) = build(src);
        let jf = rjf_of(&p, &r, "outer", Slot::Global(GlobalId(0)));
        let e = jf.to_expr().expect("composed");
        // g on return from outer(y) = (y + 1) * 2.
        assert_eq!(e.eval(&|_| Some(4)), Some(10));
    }

    #[test]
    fn recursion_is_conservative() {
        let src = "global acc\nproc walk(n)\nif n > 0 then\nacc = n\ncall walk(n - 1)\nend\nend\nmain\ncall walk(3)\nend\n";
        let (p, r) = build(src);
        assert!(rjf_of(&p, &r, "walk", Slot::Global(GlobalId(0))).is_bottom());
    }

    #[test]
    fn loops_inside_make_bottom() {
        let src = "proc f(x)\nx = 0\ndo i = 1, 3\nx = x + 1\nend\nend\nmain\ncall f(a)\nend\n";
        let (p, r) = build(src);
        assert!(rjf_of(&p, &r, "f", Slot::Formal(0)).is_bottom());
    }

    #[test]
    fn const_eval_mode_keeps_constants_only() {
        let (p, r) = build("proc f(x, y)\ny = x + 1\nend\nmain\ncall f(a, b)\nend\n");
        let pid = p.proc_by_name("f").unwrap();
        let eval = RjfConstEval { rjfs: &r };
        // Constant argument ⇒ constant effect.
        let got = eval.slot_after_call(pid, Slot::Formal(1), &|_| Sym::constant(9), &|_| {
            Sym::Bottom
        });
        assert_eq!(got.as_const(), Some(10));
        // Symbolic argument ⇒ ⊥ (the paper's limitation).
        let got = eval.slot_after_call(
            pid,
            Slot::Formal(1),
            &|_| Sym::Expr(ipcp_analysis::SymExpr::var(Slot::Formal(0))),
            &|_| Sym::Bottom,
        );
        assert!(got.is_bottom());
    }

    #[test]
    fn composer_mode_keeps_symbolic_results() {
        let (p, r) = build("proc f(x, y)\ny = x + 1\nend\nmain\ncall f(a, b)\nend\n");
        let pid = p.proc_by_name("f").unwrap();
        let comp = RjfComposer { rjfs: &r };
        let got = comp.slot_after_call(
            pid,
            Slot::Formal(1),
            &|_| Sym::Expr(ipcp_analysis::SymExpr::var(Slot::Formal(0))),
            &|_| Sym::Bottom,
        );
        let e = got.as_expr().expect("symbolic composition");
        assert_eq!(e.eval(&|_| Some(4)), Some(5));
    }

    #[test]
    fn lattice_mode() {
        use LatticeVal::*;
        let (p, r) = build("proc f(x, y)\ny = x + 1\nend\nmain\ncall f(a, b)\nend\n");
        let pid = p.proc_by_name("f").unwrap();
        let lat = RjfLattice { rjfs: &r };
        use ipcp_analysis::CallLattice as _;
        assert_eq!(
            lat.slot_after_call(pid, Slot::Formal(1), &|_| Const(1), &|_| Bottom),
            Const(2)
        );
        assert_eq!(
            lat.slot_after_call(pid, Slot::Formal(1), &|_| Bottom, &|_| Bottom),
            Bottom
        );
        assert_eq!(
            lat.slot_after_call(pid, Slot::Formal(1), &|_| Top, &|_| Bottom),
            Top
        );
    }

    #[test]
    fn empty_table_misses() {
        let (p, _) = build("proc f(x)\nx = 1\nend\nmain\ncall f(a)\nend\n");
        let empty = ReturnJumpFns::empty(p.procs.len());
        assert!(empty.get(ipcp_ir::ProcId(0), Slot::Formal(0)).is_none());
        assert_eq!(empty.useful_count(), 0);
    }

    #[test]
    fn installed_tables_raise_the_high_water_mark() {
        let mut rjfs = ReturnJumpFns::empty(2);
        let one = RjfTable::from_sorted_pairs(vec![(Slot::Formal(0), JumpFn::Const(3))]);
        rjfs.set_proc(ProcId(0), Arc::new(one));
        let two = RjfTable::from_sorted_pairs(vec![
            (Slot::Formal(0), JumpFn::Const(3)),
            (Slot::Formal(1), JumpFn::PassThrough(Slot::Formal(0))),
        ]);
        rjfs.set_proc(ProcId(1), Arc::new(two));
        // The count is cumulative over every installed table.
        assert_eq!(rjfs.entries, 3);
        assert!(crate::jump::arena_high_water() >= 3);
        assert_eq!(
            rjfs.get(ProcId(1), Slot::Formal(0)),
            Some(&JumpFn::Const(3))
        );
    }

    #[test]
    fn useful_count_counts_non_bottom() {
        let (p, r) = build("proc f(x)\nx = 1\nend\nmain\ncall f(a)\nend\n");
        let _ = p;
        assert!(r.useful_count() >= 1);
    }

    #[test]
    fn exhausted_budget_leaves_tables_empty() {
        let src = "proc init(x)\nx = 42\nend\nmain\ncall init(q)\nprint(q)\nend\n";
        let mut program = compile_to_ir(src).unwrap();
        let cg = CallGraph::new(&program);
        let modref = compute_modref(&program, &cg);
        augment_global_vars(&mut program, &modref);
        let cg = CallGraph::new(&program);
        let kills = ModKills::new(&program, &modref);
        let budget = Budget::with_fuel(0);
        let rjfs =
            build_return_jfs_budgeted(&program, &cg, &kills, SymEvalOptions::default(), &budget);
        assert_eq!(rjfs.useful_count(), 0, "every lookup misses (⊥)");
        assert!(budget.report().degradations[&Phase::ReturnJf] > 0);
    }
}
