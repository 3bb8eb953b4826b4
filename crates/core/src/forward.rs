//! Forward jump function construction (paper §3.1, §4.1).
//!
//! For every call site `s` in every procedure, and for every slot of the
//! callee (formal positions plus the globals the callee transitively
//! touches — its implicit parameters), a [`JumpFn`] of the configured
//! [`JumpFunctionKind`] is built from the caller's symbolic values at the
//! site:
//!
//! * **literal** — a constant only when the actual is a source literal;
//!   global slots are always ⊥ ("this jump function misses any constant
//!   globals which are passed implicitly at the call site", §3.1.1);
//! * **intraprocedural constant** — the symbolic value must already be
//!   constant (`gcp(y, s)`);
//! * **pass-through** — additionally keeps a bare entry slot;
//! * **polynomial** — keeps any representable expression.
//!
//! Call sites in CFG-unreachable code get no jump functions and are
//! skipped by the solver (they can never execute).

use crate::framework::{run_budgeted_pass, BudgetedProcPass, Rung};
use crate::jump::{JumpFn, JumpFunctionKind};
use ipcp_analysis::symeval::{symbolic_eval_budgeted, CallSymbolics, SymEvalOptions};
use ipcp_analysis::{Budget, CallGraph, ModRefInfo, Phase, Slot, SlotTable};
use ipcp_ir::{ProcId, Program, VarKind};
use ipcp_ssa::{build_ssa, KillOracle, SsaInstr, SsaOperand};
use std::sync::Arc;

/// Jump functions of one call site.
#[derive(Debug, Clone)]
pub struct SiteJumpFns {
    /// The callee.
    pub callee: ProcId,
    /// Whether the site sits in CFG-reachable code; unreachable sites
    /// never propagate.
    pub reachable: bool,
    /// Callee slot → jump function over the *caller's* entry slots —
    /// a dense table: slots and jump functions in two contiguous,
    /// slot-ordered vectors instead of a map of heap nodes.
    pub jfs: SlotTable<JumpFn>,
}

/// Forward jump functions for every call site of every procedure,
/// parallel to [`CallGraph::sites`]. Each procedure's site vector is
/// shared, so a table assembled from a session's stored vectors copies
/// no jump function.
#[derive(Debug, Clone)]
pub struct ForwardJumpFns {
    per_proc: Vec<Arc<Vec<SiteJumpFns>>>,
}

impl ForwardJumpFns {
    /// Jump functions of `p`'s call sites, in [`CallGraph::sites`] order.
    pub fn sites(&self, p: ProcId) -> &[SiteJumpFns] {
        &self.per_proc[p.index()]
    }

    /// Every call site of every procedure, in `ProcId` order.
    fn all_sites(&self) -> impl Iterator<Item = &SiteJumpFns> {
        self.per_proc.iter().flat_map(|sites| sites.iter())
    }

    /// Total number of constructed (site, slot) jump functions.
    pub fn count(&self) -> usize {
        self.all_sites().map(|s| s.jfs.len()).sum()
    }

    /// Total number of non-⊥ jump functions.
    pub fn useful_count(&self) -> usize {
        self.all_sites()
            .flat_map(|s| s.jfs.values())
            .filter(|jf| !jf.is_bottom())
            .count()
    }

    /// Assembles a table from per-procedure site vectors (used by the
    /// session, which caches those vectors individually).
    pub(crate) fn from_parts(per_proc: Vec<Arc<Vec<SiteJumpFns>>>) -> Self {
        ForwardJumpFns { per_proc }
    }

    /// Reports summary counters to `sink`: the table size plus a
    /// breakdown by jump-function representation (`jf.const`,
    /// `jf.pass_through`, `jf.expr`, `jf.bottom`). No-op when disabled.
    pub fn emit_counters(&self, sink: &dyn ipcp_obs::ObsSink) {
        if !sink.enabled() {
            return;
        }
        let (mut consts, mut pass, mut exprs, mut bottoms) = (0u64, 0u64, 0u64, 0u64);
        for jf in self.all_sites().flat_map(|s| s.jfs.values()) {
            match jf {
                JumpFn::Const(_) => consts += 1,
                JumpFn::PassThrough(_) => pass += 1,
                JumpFn::Expr(_) => exprs += 1,
                JumpFn::Bottom => bottoms += 1,
            }
        }
        sink.count("jf.sites", self.all_sites().count() as u64);
        sink.count("jf.const", consts);
        sink.count("jf.pass_through", pass);
        sink.count("jf.expr", exprs);
        sink.count("jf.bottom", bottoms);
    }
}

/// Builds forward jump functions of the given kind for the whole program.
///
/// `call_sym` supplies the effect of calls on the caller's symbolic state
/// (return-jump-function constant evaluation, or the pessimistic provider
/// when return jump functions are disabled).
pub fn build_forward_jfs(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    kind: JumpFunctionKind,
    kills: &dyn KillOracle,
    call_sym: &dyn CallSymbolics,
) -> ForwardJumpFns {
    build_forward_jfs_with(
        program,
        cg,
        modref,
        kind,
        kills,
        call_sym,
        SymEvalOptions::default(),
    )
}

/// Builds forward jump functions with explicit symbolic-evaluation
/// options (e.g. the gated-single-assignment extension).
#[allow(clippy::too_many_arguments)]
pub fn build_forward_jfs_with(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    kind: JumpFunctionKind,
    kills: &dyn KillOracle,
    call_sym: &dyn CallSymbolics,
    options: SymEvalOptions,
) -> ForwardJumpFns {
    build_forward_jfs_budgeted(
        program,
        cg,
        modref,
        kind,
        kills,
        call_sym,
        options,
        &Budget::unlimited(),
    )
}

/// Relative construction cost of each jump-function kind — the §3.1.5
/// cost ordering, used to decide which rung of the precision ladder the
/// remaining fuel can afford.
pub(crate) fn kind_weight(kind: JumpFunctionKind) -> u64 {
    match kind {
        JumpFunctionKind::Literal => 1,
        JumpFunctionKind::IntraproceduralConstant => 2,
        JumpFunctionKind::PassThrough => 4,
        JumpFunctionKind::Polynomial => 8,
    }
}

/// The next rung down the precision ladder, or `None` below Literal (⊥).
fn next_rung_down(kind: JumpFunctionKind) -> Option<JumpFunctionKind> {
    match kind {
        JumpFunctionKind::Polynomial => Some(JumpFunctionKind::PassThrough),
        JumpFunctionKind::PassThrough => Some(JumpFunctionKind::IntraproceduralConstant),
        JumpFunctionKind::IntraproceduralConstant => Some(JumpFunctionKind::Literal),
        JumpFunctionKind::Literal => None,
    }
}

/// All-⊥ jump functions for every site of `pid` — the bottom of the
/// precision ladder. Sites stay `reachable` (an unreachable-marked site
/// would be skipped by the solver, which is only sound when reachability
/// was actually proven); ⊥ functions merely propagate nothing.
fn bottom_sites_for_proc(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    pid: ProcId,
) -> Vec<SiteJumpFns> {
    cg.sites(pid)
        .iter()
        .map(|site| {
            let jfs = modref
                .param_slots(program, site.callee)
                .into_iter()
                .filter(|slot| *slot != Slot::Result)
                .map(|slot| (slot, JumpFn::Bottom))
                .collect();
            SiteJumpFns {
                callee: site.callee,
                reachable: true,
                jfs,
            }
        })
        .collect()
}

/// Builds forward jump functions under a fuel budget. Per procedure the
/// cost is `kind_weight × instruction count`; when the remaining fuel
/// cannot afford the requested kind the builder slides down the paper's
/// precision ladder (`Polynomial → PassThrough → IntraproceduralConstant
/// → Literal → ⊥`), recording every ladder step, until a rung fits. At ⊥
/// no SSA is built at all: every slot's jump function is ⊥, which
/// propagates nothing and is sound for any solver.
#[allow(clippy::too_many_arguments)]
pub fn build_forward_jfs_budgeted(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    kind: JumpFunctionKind,
    kills: &dyn KillOracle,
    call_sym: &dyn CallSymbolics,
    options: SymEvalOptions,
    budget: &Budget,
) -> ForwardJumpFns {
    let mut per_proc = Vec::with_capacity(program.procs.len());
    let pass = ForwardPass {
        program,
        cg,
        modref,
        kind,
        kills,
        call_sym,
        options,
    };
    run_budgeted_pass(&pass, &mut per_proc, budget);
    ForwardJumpFns { per_proc }
}

/// Forward jump function construction as a problem definition for
/// [`run_budgeted_pass`]: the §3.1.5 precision ladder from the requested
/// kind down to Literal, per-instruction cost estimates, and all-⊥ site
/// tables as the exhaustion fallback.
struct ForwardPass<'a> {
    program: &'a Program,
    cg: &'a CallGraph,
    modref: &'a ModRefInfo,
    kind: JumpFunctionKind,
    kills: &'a dyn KillOracle,
    call_sym: &'a dyn CallSymbolics,
    options: SymEvalOptions,
}

impl BudgetedProcPass for ForwardPass<'_> {
    type Acc = Vec<Arc<Vec<SiteJumpFns>>>;
    type Kind = JumpFunctionKind;

    fn phase(&self) -> Phase {
        Phase::ForwardJf
    }

    fn order(&self) -> Vec<ProcId> {
        self.program.proc_ids().collect()
    }

    fn ladder(&self) -> Vec<Rung<JumpFunctionKind>> {
        let mut rungs = Vec::new();
        let mut next = Some(self.kind);
        while let Some(k) = next {
            rungs.push(Rung {
                kind: k,
                name: k.to_string(),
                weight: kind_weight(k),
            });
            next = next_rung_down(k);
        }
        rungs
    }

    fn estimate(&self, p: ProcId) -> u64 {
        proc_estimate(self.program.proc(p))
    }

    fn build(
        &self,
        acc: &mut Vec<Arc<Vec<SiteJumpFns>>>,
        p: ProcId,
        kind: JumpFunctionKind,
        budget: &Budget,
    ) {
        let proc = self.program.proc(p);
        let ssa = build_ssa(self.program, proc, self.kills);
        let sym = symbolic_eval_budgeted(proc, &ssa, self.call_sym, self.options, budget);
        acc.push(Arc::new(site_jfs_for_proc(
            self.program,
            self.cg,
            self.modref,
            kind,
            p,
            &ssa,
            &sym,
        )));
    }

    fn fallback(&self, acc: &mut Vec<Arc<Vec<SiteJumpFns>>>, p: ProcId) {
        acc.push(Arc::new(bottom_sites_for_proc(
            self.program,
            self.cg,
            self.modref,
            p,
        )));
    }
}

/// The per-procedure fuel estimate of forward jump function construction
/// (`kind_weight × this`): one unit per instruction plus one per block.
pub(crate) fn proc_estimate(proc: &ipcp_ir::Procedure) -> u64 {
    proc.block_ids()
        .map(|b| proc.block(b).instrs.len() as u64 + 1)
        .sum::<u64>()
        .max(1)
}

/// Builds the jump functions of every call site of `pid` from its SSA
/// form and symbolic values — the pure, fuel-free tail of the budgeted
/// builder, exposed at crate level so the session can reuse cached SSA
/// and symbolic-evaluation artifacts.
pub(crate) fn site_jfs_for_proc(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    kind: JumpFunctionKind,
    pid: ProcId,
    ssa: &ipcp_ssa::SsaProc,
    sym: &ipcp_analysis::symeval::SymMap,
) -> Vec<SiteJumpFns> {
    let proc = program.proc(pid);
    let mut sites = Vec::new();
    for site in cg.sites(pid) {
        let Some(ssa_block) = ssa.block(site.block) else {
            sites.push(SiteJumpFns {
                callee: site.callee,
                reachable: false,
                jfs: SlotTable::new(),
            });
            continue;
        };
        let SsaInstr::Call {
            callee,
            args,
            globals_in,
            ..
        } = &ssa_block.instrs[site.index]
        else {
            unreachable!("call site indexes a call instruction");
        };
        debug_assert_eq!(*callee, site.callee);

        let mut jfs = SlotTable::new();
        for slot in modref.param_slots(program, site.callee) {
            let jf = match slot {
                Slot::Formal(k) => {
                    let value = args.get(k as usize).and_then(|a| a.value);
                    match (kind, value) {
                        // Literal: only source literals count.
                        (JumpFunctionKind::Literal, Some(SsaOperand::Const(c))) => JumpFn::Const(c),
                        (JumpFunctionKind::Literal, _) => JumpFn::Bottom,
                        (_, Some(op)) => JumpFn::from_sym(kind, &sym.of_operand(op)),
                        (_, None) => JumpFn::Bottom,
                    }
                }
                Slot::Global(g) => {
                    if kind == JumpFunctionKind::Literal {
                        // Globals are passed implicitly; the literal
                        // jump function misses them (§3.1.1).
                        JumpFn::Bottom
                    } else {
                        let snapshot = globals_in
                            .iter()
                            .find(|&&(var, _)| proc.var(var).kind == VarKind::Global(g));
                        match snapshot {
                            Some(&(_, name)) => JumpFn::from_sym(kind, sym.of(name)),
                            None => JumpFn::Bottom,
                        }
                    }
                }
                Slot::Result => continue,
            };
            jfs.insert(slot, jf);
        }
        sites.push(SiteJumpFns {
            callee: site.callee,
            reachable: true,
            jfs,
        });
    }
    sites
}

/// Builds **literal** jump functions with the cheap construction the
/// paper describes: "a textual scan of the call sites provides all the
/// required information" (§3.1.5) — no SSA, no value numbering, just the
/// IR call instructions plus CFG reachability. Produces exactly the same
/// table as [`build_forward_jfs`] at [`JumpFunctionKind::Literal`]; a
/// differential test and a bench pin down the equivalence and the cost
/// gap.
pub fn build_literal_jfs_fast(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
) -> ForwardJumpFns {
    let mut per_proc = Vec::with_capacity(program.procs.len());
    for pid in program.proc_ids() {
        let proc = program.proc(pid);
        let cfg = ipcp_ssa::Cfg::new(proc);
        let mut sites = Vec::new();
        for site in cg.sites(pid) {
            if !cfg.is_reachable(site.block) {
                sites.push(SiteJumpFns {
                    callee: site.callee,
                    reachable: false,
                    jfs: SlotTable::new(),
                });
                continue;
            }
            let ipcp_ir::Instr::Call { args, .. } = &proc.block(site.block).instrs[site.index]
            else {
                unreachable!("call site indexes a call instruction");
            };
            let mut jfs = SlotTable::new();
            for slot in modref.param_slots(program, site.callee) {
                let jf = match slot {
                    Slot::Formal(k) => match args.get(k as usize) {
                        Some(arg) if !arg.by_ref => match arg.value.as_const() {
                            Some(c) => JumpFn::Const(c),
                            None => JumpFn::Bottom,
                        },
                        _ => JumpFn::Bottom,
                    },
                    // Implicitly-passed globals are missed (§3.1.1).
                    Slot::Global(_) => JumpFn::Bottom,
                    Slot::Result => continue,
                };
                jfs.insert(slot, jf);
            }
            sites.push(SiteJumpFns {
                callee: site.callee,
                reachable: true,
                jfs,
            });
        }
        per_proc.push(Arc::new(sites));
    }
    ForwardJumpFns { per_proc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retjf::{build_return_jfs, RjfConstEval};
    use ipcp_analysis::symeval::NoCallSymbolics;
    use ipcp_analysis::{augment_global_vars, compute_modref, ModKills};
    use ipcp_ir::compile_to_ir;

    /// Builds JFs for `src` at `kind` with MOD info and return JFs.
    fn build(src: &str, kind: JumpFunctionKind) -> (Program, CallGraph, ForwardJumpFns) {
        let mut program = compile_to_ir(src).expect("compiles");
        let cg = CallGraph::new(&program);
        let modref = compute_modref(&program, &cg);
        augment_global_vars(&mut program, &modref);
        let cg = CallGraph::new(&program);
        let kills = ModKills::new(&program, &modref);
        let rjfs = build_return_jfs(&program, &cg, &kills);
        let eval = RjfConstEval { rjfs: &rjfs };
        let jfs = build_forward_jfs(&program, &cg, &modref, kind, &kills, &eval);
        (program, cg, jfs)
    }

    /// The jump function for `slot` at the first call site of `caller`.
    fn jf_at(src: &str, kind: JumpFunctionKind, caller: &str, slot: Slot) -> JumpFn {
        let (program, _, jfs) = build(src, kind);
        let pid = program.proc_by_name(caller).unwrap();
        let site = &jfs.sites(pid)[0];
        site.jfs.get(&slot).cloned().unwrap_or(JumpFn::Bottom)
    }

    const LIT: &str = "proc f(a)\nend\nmain\ncall f(5)\nend\n";

    #[test]
    fn literal_actual_is_constant_for_all_kinds() {
        for kind in JumpFunctionKind::ALL {
            assert_eq!(
                jf_at(LIT, kind, "main", Slot::Formal(0)).as_const(),
                Some(5),
                "{kind}"
            );
        }
    }

    const COMPUTED: &str = "proc f(a)\nend\nmain\nx = 2 + 3\ncall f(x)\nend\n";

    #[test]
    fn computed_constant_needs_intraprocedural() {
        assert!(jf_at(COMPUTED, JumpFunctionKind::Literal, "main", Slot::Formal(0)).is_bottom());
        for kind in &JumpFunctionKind::ALL[1..] {
            assert_eq!(
                jf_at(COMPUTED, *kind, "main", Slot::Formal(0)).as_const(),
                Some(5),
                "{kind}"
            );
        }
    }

    const CHAIN: &str =
        "proc inner(b)\nend\nproc outer(a)\ncall inner(a)\nend\nmain\ncall outer(7)\nend\n";

    #[test]
    fn pass_through_needs_pass_through_kind() {
        for kind in [
            JumpFunctionKind::Literal,
            JumpFunctionKind::IntraproceduralConstant,
        ] {
            assert!(
                jf_at(CHAIN, kind, "outer", Slot::Formal(0)).is_bottom(),
                "{kind}"
            );
        }
        assert_eq!(
            jf_at(
                CHAIN,
                JumpFunctionKind::PassThrough,
                "outer",
                Slot::Formal(0)
            ),
            JumpFn::PassThrough(Slot::Formal(0))
        );
        let poly = jf_at(
            CHAIN,
            JumpFunctionKind::Polynomial,
            "outer",
            Slot::Formal(0),
        );
        assert!(!poly.is_bottom());
    }

    const POLY: &str =
        "proc inner(b)\nend\nproc outer(a)\ncall inner(a * 2 + 1)\nend\nmain\ncall outer(7)\nend\n";

    #[test]
    fn polynomial_needs_polynomial_kind() {
        assert!(jf_at(
            POLY,
            JumpFunctionKind::PassThrough,
            "outer",
            Slot::Formal(0)
        )
        .is_bottom());
        let jf = jf_at(POLY, JumpFunctionKind::Polynomial, "outer", Slot::Formal(0));
        let e = jf.to_expr().expect("polynomial");
        assert_eq!(e.eval(&|_| Some(7)), Some(15));
    }

    const GLOBALS: &str = "global n = 0\nproc f()\nx = n\nend\nmain\nn = 9\ncall f()\nend\n";

    #[test]
    fn global_slots_missed_by_literal_kind() {
        let (program, _, jfs) = build(GLOBALS, JumpFunctionKind::Literal);
        let main = program.main;
        let site = &jfs.sites(main)[0];
        let g = site
            .jfs
            .iter()
            .find(|(s, _)| matches!(s, Slot::Global(_)))
            .expect("global slot");
        assert!(g.1.is_bottom());
    }

    #[test]
    fn global_slots_seen_by_intraprocedural_kind() {
        let (program, _, jfs) = build(GLOBALS, JumpFunctionKind::IntraproceduralConstant);
        let main = program.main;
        let site = &jfs.sites(main)[0];
        let (_, jf) = site
            .jfs
            .iter()
            .find(|(s, _)| matches!(s, Slot::Global(_)))
            .unwrap();
        assert_eq!(jf.as_const(), Some(9));
    }

    #[test]
    fn global_pass_through() {
        // f reads n; caller g doesn't touch n: n passes through g's body.
        let src =
            "global n\nproc f()\nx = n\nend\nproc g()\ncall f()\nend\nmain\nn = 3\ncall g()\nend\n";
        let (program, _, jfs) = build(src, JumpFunctionKind::PassThrough);
        let gp = program.proc_by_name("g").unwrap();
        let site = &jfs.sites(gp)[0];
        let (slot, jf) = site
            .jfs
            .iter()
            .find(|(s, _)| matches!(s, Slot::Global(_)))
            .unwrap();
        assert_eq!(jf, &JumpFn::PassThrough(*slot));
    }

    #[test]
    fn return_jump_functions_feed_forward_jfs() {
        // init() sets n = 4; after the call main passes n to f — the RJF
        // constant makes the jump function constant.
        let src = "global n\nproc init()\nn = 4\nend\nproc f(a)\nend\nmain\ncall init()\ncall f(n)\nend\n";
        let (program, _, jfs) = build(src, JumpFunctionKind::IntraproceduralConstant);
        let main = program.main;
        let f_site = &jfs.sites(main)[1];
        assert_eq!(
            f_site.jfs.get(&Slot::Formal(0)).unwrap().as_const(),
            Some(4)
        );
    }

    #[test]
    fn without_return_jfs_calls_kill() {
        let src = "global n\nproc init()\nn = 4\nend\nproc f(a)\nend\nmain\ncall init()\ncall f(n)\nend\n";
        let mut program = compile_to_ir(src).unwrap();
        let cg = CallGraph::new(&program);
        let modref = compute_modref(&program, &cg);
        augment_global_vars(&mut program, &modref);
        let cg = CallGraph::new(&program);
        let kills = ModKills::new(&program, &modref);
        let jfs = build_forward_jfs(
            &program,
            &cg,
            &modref,
            JumpFunctionKind::Polynomial,
            &kills,
            &NoCallSymbolics,
        );
        let f_site = &jfs.sites(program.main)[1];
        assert!(f_site.jfs.get(&Slot::Formal(0)).unwrap().is_bottom());
    }

    #[test]
    fn unreachable_sites_marked() {
        let src = "proc f(a)\nend\nproc g()\nreturn\ncall f(1)\nend\nmain\ncall g()\nend\n";
        let (program, _, jfs) = build(src, JumpFunctionKind::Polynomial);
        let gp = program.proc_by_name("g").unwrap();
        assert_eq!(jfs.sites(gp).len(), 1);
        assert!(!jfs.sites(gp)[0].reachable);
        assert!(jfs.sites(gp)[0].jfs.is_empty());
    }

    #[test]
    fn counts() {
        let (_, _, jfs) = build(CHAIN, JumpFunctionKind::PassThrough);
        assert_eq!(jfs.count(), 2);
        assert_eq!(jfs.useful_count(), 2);
        let (_, _, jfs) = build(CHAIN, JumpFunctionKind::Literal);
        assert_eq!(jfs.useful_count(), 1);
    }

    #[test]
    fn by_value_expression_arguments_use_their_value() {
        let src = "proc f(a)\nend\nproc outer(k)\ncall f(k + k)\nend\nmain\ncall outer(1)\nend\n";
        let jf = jf_at(src, JumpFunctionKind::Polynomial, "outer", Slot::Formal(0));
        let e = jf.to_expr().expect("2k");
        assert_eq!(e.eval(&|_| Some(3)), Some(6));
    }

    #[test]
    fn fast_literal_builder_matches_general_path() {
        let srcs = [
            LIT,
            COMPUTED,
            CHAIN,
            POLY,
            GLOBALS,
            "proc f(a)\nend\nproc g()\nreturn\ncall f(1)\nend\nmain\ncall g()\ncall f(2 + 3)\ncall f(9)\nend\n",
        ];
        for src in srcs {
            let (program, cg, general) = build(src, JumpFunctionKind::Literal);
            let modref = compute_modref(&program, &cg);
            let fast = build_literal_jfs_fast(&program, &cg, &modref);
            for pid in program.proc_ids() {
                let a = general.sites(pid);
                let b = fast.sites(pid);
                assert_eq!(a.len(), b.len(), "{src}");
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.callee, y.callee, "{src}");
                    assert_eq!(x.reachable, y.reachable, "{src}");
                    assert_eq!(x.jfs, y.jfs, "{src}");
                }
            }
        }
    }

    #[test]
    fn zero_fuel_bottoms_every_site_without_panicking() {
        let mut program = compile_to_ir(CHAIN).unwrap();
        let cg = CallGraph::new(&program);
        let modref = compute_modref(&program, &cg);
        augment_global_vars(&mut program, &modref);
        let cg = CallGraph::new(&program);
        let kills = ModKills::new(&program, &modref);
        let budget = Budget::with_fuel(0);
        let jfs = build_forward_jfs_budgeted(
            &program,
            &cg,
            &modref,
            JumpFunctionKind::Polynomial,
            &kills,
            &NoCallSymbolics,
            SymEvalOptions::default(),
            &budget,
        );
        for pid in program.proc_ids() {
            for site in jfs.sites(pid) {
                assert!(site.reachable, "⊥ sites stay reachable for soundness");
                assert!(site.jfs.values().all(|jf| jf.is_bottom()));
            }
        }
        let report = budget.report();
        assert!(report.degradations[&Phase::ForwardJf] > 0);
        // The full ladder was walked: polynomial → … → ⊥.
        assert!(report
            .ladder_steps
            .keys()
            .any(|(from, to)| from == "polynomial" && to == "pass-through"));
        assert!(report.ladder_steps.keys().any(|(_, to)| to == "⊥"));
    }

    #[test]
    fn small_fuel_clamps_to_a_cheaper_rung() {
        // Enough fuel for literal-kind construction but not polynomial.
        let mut program = compile_to_ir(CHAIN).unwrap();
        let cg = CallGraph::new(&program);
        let modref = compute_modref(&program, &cg);
        augment_global_vars(&mut program, &modref);
        let cg = CallGraph::new(&program);
        let kills = ModKills::new(&program, &modref);
        for fuel in 1..64u64 {
            let budget = Budget::with_fuel(fuel);
            let jfs = build_forward_jfs_budgeted(
                &program,
                &cg,
                &modref,
                JumpFunctionKind::Polynomial,
                &kills,
                &NoCallSymbolics,
                SymEvalOptions::default(),
                &budget,
            );
            // Whatever rung was used, the result must be sound: any
            // constant it claims must match the polynomial run's claim.
            let full = build_forward_jfs(
                &program,
                &cg,
                &modref,
                JumpFunctionKind::Polynomial,
                &kills,
                &NoCallSymbolics,
            );
            for pid in program.proc_ids() {
                for (site, full_site) in jfs.sites(pid).iter().zip(full.sites(pid)) {
                    for (slot, jf) in &site.jfs {
                        if let Some(c) = jf.as_const() {
                            assert_eq!(
                                full_site.jfs.get(slot).and_then(JumpFn::as_const),
                                Some(c),
                                "fuel {fuel}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn real_arguments_are_bottom() {
        let src = "proc f(real r)\nend\nmain\nreal q\nq = 1.5\ncall f(q)\nend\n";
        let jf = jf_at(src, JumpFunctionKind::Polynomial, "main", Slot::Formal(0));
        assert!(jf.is_bottom());
    }
}
