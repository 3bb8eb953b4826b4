//! The interprocedural propagation phase (paper §2, §4.1).
//!
//! A worklist iteration over the call graph: each procedure's `VAL` set
//! maps its slots (formals + transitively-touched globals) to lattice
//! values, initialized optimistically to ⊤; `main`'s globals are seeded
//! from their compile-time initializers (uninitialized globals are ⊥,
//! like FORTRAN's undefined values). Processing a procedure evaluates the
//! jump functions at each of its (reachable) call sites against its
//! current `VAL` and meets the results into the callees. The lattice has
//! bounded depth (every value lowers at most twice), so the iteration
//! terminates; the paper reports the same scheme "converged quickly".

use crate::forward::ForwardJumpFns;
use crate::framework::{solve_value_contexts, DataflowProblem, EdgeSink, EngineOutcome};
use ipcp_analysis::{Budget, CallGraph, LatticeVal, ModRefInfo, Slot, SlotTable};
use ipcp_ir::fingerprint::Fp128;
use ipcp_ir::{ProcId, Procedure, Program, VarId, VarKind};
use std::collections::BTreeMap;

/// The solver's result: per-procedure `VAL` sets, stored as dense
/// [`SlotTable`]s (ascending slot order, as the maps they replaced).
#[derive(Debug, Clone)]
pub struct ValSets {
    vals: Vec<SlotTable<LatticeVal>>,
    iterations: usize,
    pruned: usize,
}

impl ValSets {
    /// The `VAL` set of `p`.
    pub fn of(&self, p: ProcId) -> &SlotTable<LatticeVal> {
        &self.vals[p.index()]
    }

    /// Value of one slot (⊤ when the slot is untracked).
    pub fn value(&self, p: ProcId, slot: Slot) -> LatticeVal {
        self.vals[p.index()]
            .get(&slot)
            .copied()
            .unwrap_or(LatticeVal::Top)
    }

    /// `CONSTANTS(p)`: the slots with known constant entry values.
    pub fn constants(&self, p: ProcId) -> BTreeMap<Slot, i64> {
        self.vals[p.index()]
            .iter()
            .filter_map(|(s, v)| v.as_const().map(|c| (*s, c)))
            .collect()
    }

    /// Number of worklist steps taken (a cost proxy: procedure visits for
    /// the call-graph solver, jump-function evaluations for the
    /// binding-graph solver).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Call edges pruned as infeasible by conditional propagation
    /// (always 0 for the unconditional solvers).
    pub fn pruned_call_edges(&self) -> usize {
        self.pruned
    }

    /// Assembles a result (used by the alternative solver formulations).
    pub(crate) fn from_parts(vals: Vec<BTreeMap<Slot, LatticeVal>>, iterations: usize) -> ValSets {
        ValSets {
            vals: vals.into_iter().map(SlotTable::from_map).collect(),
            iterations,
            pruned: 0,
        }
    }

    /// Assembles a result from a generic-engine outcome.
    pub(crate) fn from_engine(outcome: EngineOutcome<LatticeVal>) -> ValSets {
        ValSets {
            vals: outcome.contexts,
            iterations: outcome.iterations,
            pruned: outcome.pruned_edges,
        }
    }
}

/// The paper's interprocedural constant propagation as a
/// [`DataflowProblem`]: the Figure-1 lattice over `VAL` contexts
/// (formals + transitively-touched globals), forward jump functions as
/// the call-edge transfers, and global initializers seeding `main`.
pub(crate) struct ConstProp<'a> {
    pub program: &'a Program,
    pub cg: &'a CallGraph,
    pub modref: &'a ModRefInfo,
    pub jfs: &'a ForwardJumpFns,
}

impl DataflowProblem for ConstProp<'_> {
    type Value = LatticeVal;

    fn top(&self) -> LatticeVal {
        LatticeVal::Top
    }

    fn bottom(&self) -> LatticeVal {
        LatticeVal::Bottom
    }

    fn meet(&self, a: LatticeVal, b: LatticeVal) -> LatticeVal {
        a.meet(b)
    }

    fn missing_value(&self) -> LatticeVal {
        LatticeVal::Bottom
    }

    fn context_slots(&self, program: &Program, p: ProcId) -> Vec<Slot> {
        self.modref.param_slots(program, p)
    }

    fn root_value(&self, program: &Program, slot: Slot) -> LatticeVal {
        // Global initializers are constants, uninitialized globals are ⊥
        // (FORTRAN-undefined). Main has no formals; anything else stays ⊤.
        match slot {
            Slot::Global(g) => match program.global(g).init {
                Some(c) => LatticeVal::Const(c),
                None => LatticeVal::Bottom,
            },
            _ => LatticeVal::Top,
        }
    }

    fn seeded(&self, p: ProcId) -> bool {
        self.cg.is_reachable(p)
    }

    fn site_count(&self, p: ProcId) -> usize {
        self.jfs.sites(p).len()
    }

    fn site_target(&self, p: ProcId, s: usize) -> Option<ProcId> {
        let site = &self.jfs.sites(p)[s];
        site.reachable.then_some(site.callee)
    }

    fn eval_edge(&self, p: ProcId, s: usize, sink: &mut dyn EdgeSink<LatticeVal>) {
        for (&slot, jf) in &self.jfs.sites(p)[s].jfs {
            let incoming = jf.eval_lattice(&|sl| sink.caller_value(sl));
            sink.meet_into(slot, incoming, jf);
        }
    }

    fn proc_name(&self, p: ProcId) -> &str {
        &self.program.proc(p).name
    }

    fn slot_name(&self, q: ProcId, slot: Slot) -> String {
        crate::report::slot_name(self.program, q, slot)
    }

    fn site_label(&self, p: ProcId, s: usize) -> String {
        let cs = &self.cg.sites(p)[s];
        format!("b{}#{}", cs.block.index(), cs.index)
    }
}

/// Runs the interprocedural propagation.
pub fn solve(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    jfs: &ForwardJumpFns,
) -> ValSets {
    solve_budgeted(program, cg, modref, jfs, &Budget::unlimited())
}

/// [`solve`] under a fuel budget: each worklist pop costs one unit of
/// [`Phase::Solver`](ipcp_analysis::Phase::Solver) fuel. On exhaustion the iteration stops and every
/// tracked slot is lowered to ⊥ — an always-sound (if useless) fixpoint.
/// Leaving the optimistic intermediate values in place would be unsound:
/// a slot still at ⊤ or at a constant may not have seen all its call
/// sites yet.
pub fn solve_budgeted(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    jfs: &ForwardJumpFns,
    budget: &Budget,
) -> ValSets {
    solve_traced(program, cg, modref, jfs, budget, &ipcp_obs::NoopSink)
}

/// [`solve_budgeted`] with every lattice transition reported to `sink`:
/// the moment a slot's value lowers (⊤→c or c/⊤→⊥), a
/// [`ipcp_obs::TransitionEvent`] records the justifying call edge —
/// caller, call site, and the jump function whose evaluation forced the
/// meet. With a disabled sink this *is* `solve_budgeted` (one shared
/// code path), so results and fuel draw are identical bytes.
///
/// This is the `ConstProp` problem run through the generic
/// value-context engine ([`crate::framework::solve_value_contexts`]);
/// the bespoke worklist loop it replaced is bit-identical to the
/// engine's.
pub fn solve_traced(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    jfs: &ForwardJumpFns,
    budget: &Budget,
    sink: &dyn ipcp_obs::ObsSink,
) -> ValSets {
    let problem = ConstProp {
        program,
        cg,
        modref,
        jfs,
    };
    ValSets::from_engine(solve_value_contexts(program, &problem, budget, sink))
}

/// The constant `p`'s variable `v` enters SCCP with, if any (see
/// [`entry_env_of`]).
fn entry_constant(proc: &Procedure, p: ProcId, v: VarId, vals: &ValSets) -> Option<i64> {
    let slot = match proc.var(v).kind {
        VarKind::Formal(i) => Slot::Formal(i),
        VarKind::Global(g) => Slot::Global(g),
        _ => return None,
    };
    vals.value(p, slot).as_const()
}

/// Builds a per-variable entry environment for SCCP from a procedure's
/// `VAL` set (used by substitution counting and complete propagation):
/// formals and globals whose `VAL` is a constant enter with it; every
/// other variable — locals, temporaries, ⊥ slots, and the ⊤ slots of a
/// procedure never actually invoked — enters as ⊥.
pub fn entry_env_of(program: &Program, p: ProcId, vals: &ValSets) -> impl Fn(VarId) -> LatticeVal {
    let proc = program.proc(p);
    let per_var: Vec<LatticeVal> = proc
        .var_ids()
        .map(|v| entry_constant(proc, p, v, vals).map_or(LatticeVal::Bottom, LatticeVal::Const))
        .collect();
    move |v: VarId| {
        per_var
            .get(v.index())
            .copied()
            .unwrap_or(LatticeVal::Bottom)
    }
}

/// Absorbs into `h` exactly what [`entry_env_of`] passes to SCCP: the
/// `(variable, constant)` pairs of `p`. Every other variable enters as
/// ⊥, so two `VAL` sets that absorb alike seed identical SCCP runs — as
/// does `None` (the unseeded, all-⊥ baseline) whenever `p` has no entry
/// constants.
pub(crate) fn hash_entry_constants(
    h: &mut Fp128,
    program: &Program,
    p: ProcId,
    vals: Option<&ValSets>,
) {
    if let Some(vals) = vals {
        let proc = program.proc(p);
        for v in proc.var_ids() {
            if let Some(c) = entry_constant(proc, p, v, vals) {
                h.word(u64::from(v.0));
                h.word(c as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::build_forward_jfs;
    use crate::jump::JumpFunctionKind;
    use crate::retjf::{build_return_jfs, RjfConstEval};
    use ipcp_analysis::symeval::NoCallSymbolics;
    use ipcp_analysis::{augment_global_vars, compute_modref, ModKills, Phase};
    use ipcp_ir::compile_to_ir;

    fn run(src: &str, kind: JumpFunctionKind, rjf: bool) -> (Program, ValSets) {
        let mut program = compile_to_ir(src).expect("compiles");
        let cg = CallGraph::new(&program);
        let modref = compute_modref(&program, &cg);
        augment_global_vars(&mut program, &modref);
        let cg = CallGraph::new(&program);
        let kills = ModKills::new(&program, &modref);
        let rjfs = build_return_jfs(&program, &cg, &kills);
        let jfs = if rjf {
            let eval = RjfConstEval { rjfs: &rjfs };
            build_forward_jfs(&program, &cg, &modref, kind, &kills, &eval)
        } else {
            build_forward_jfs(&program, &cg, &modref, kind, &kills, &NoCallSymbolics)
        };
        let vals = solve(&program, &cg, &modref, &jfs);
        (program, vals)
    }

    fn const_of(program: &Program, vals: &ValSets, proc: &str, slot: Slot) -> Option<i64> {
        vals.value(program.proc_by_name(proc).unwrap(), slot)
            .as_const()
    }

    #[test]
    fn single_literal_call() {
        let (p, v) = run(
            "proc f(a)\nend\nmain\ncall f(5)\nend\n",
            JumpFunctionKind::Literal,
            true,
        );
        assert_eq!(const_of(&p, &v, "f", Slot::Formal(0)), Some(5));
    }

    #[test]
    fn conflicting_calls_meet_to_bottom() {
        let src = "proc f(a)\nend\nmain\ncall f(5)\ncall f(6)\nend\n";
        let (p, v) = run(src, JumpFunctionKind::Polynomial, true);
        assert_eq!(
            v.value(p.proc_by_name("f").unwrap(), Slot::Formal(0)),
            LatticeVal::Bottom
        );
    }

    #[test]
    fn agreeing_calls_stay_constant() {
        let src = "proc f(a)\nend\nmain\ncall f(5)\ncall f(2 + 3)\nend\n";
        let (p, v) = run(src, JumpFunctionKind::Polynomial, true);
        assert_eq!(const_of(&p, &v, "f", Slot::Formal(0)), Some(5));
    }

    #[test]
    fn pass_through_chains_constants() {
        // 7 flows main → a → b → c only with pass-through or better.
        let src = "proc c(z)\nend\nproc b(y)\ncall c(y)\nend\nproc a(x)\ncall b(x)\nend\nmain\ncall a(7)\nend\n";
        for (kind, expect) in [
            (JumpFunctionKind::Literal, None),
            (JumpFunctionKind::IntraproceduralConstant, None),
            (JumpFunctionKind::PassThrough, Some(7)),
            (JumpFunctionKind::Polynomial, Some(7)),
        ] {
            let (p, v) = run(src, kind, true);
            assert_eq!(const_of(&p, &v, "c", Slot::Formal(0)), expect, "{kind}");
        }
    }

    #[test]
    fn polynomial_chains_computed_values() {
        let src =
            "proc leaf(z)\nend\nproc mid(x)\ncall leaf(x * x + 1)\nend\nmain\ncall mid(3)\nend\n";
        let (p, v) = run(src, JumpFunctionKind::Polynomial, true);
        assert_eq!(const_of(&p, &v, "leaf", Slot::Formal(0)), Some(10));
        // Pass-through cannot express x*x+1.
        let (p, v) = run(src, JumpFunctionKind::PassThrough, true);
        assert_eq!(const_of(&p, &v, "leaf", Slot::Formal(0)), None);
    }

    #[test]
    fn global_initializers_seed_main() {
        let src = "global n = 11\nproc f()\nx = n\nend\nmain\ncall f()\nend\n";
        let (p, v) = run(src, JumpFunctionKind::PassThrough, true);
        let g = Slot::Global(ipcp_ir::GlobalId(0));
        assert_eq!(const_of(&p, &v, "f", g), Some(11));
    }

    #[test]
    fn uninitialized_globals_are_bottom() {
        let src = "global n\nproc f()\nx = n\nend\nmain\ncall f()\nend\n";
        let (p, v) = run(src, JumpFunctionKind::Polynomial, true);
        let g = Slot::Global(ipcp_ir::GlobalId(0));
        assert_eq!(v.value(p.proc_by_name("f").unwrap(), g), LatticeVal::Bottom);
    }

    #[test]
    fn init_routine_requires_return_jfs() {
        // The ocean pattern: an initialization routine assigns globals,
        // and later calls see them — but only with return jump functions.
        let src = "global n\nproc init()\nn = 64\nend\nproc compute()\nx = n\nend\n\
                   main\ncall init()\ncall compute()\nend\n";
        let g = Slot::Global(ipcp_ir::GlobalId(0));
        let (p, v) = run(src, JumpFunctionKind::Polynomial, true);
        assert_eq!(const_of(&p, &v, "compute", g), Some(64));
        let (p, v) = run(src, JumpFunctionKind::Polynomial, false);
        assert_eq!(
            v.value(p.proc_by_name("compute").unwrap(), g),
            LatticeVal::Bottom
        );
    }

    #[test]
    fn uncalled_procedures_stay_top() {
        let src = "proc dead(a)\nend\nproc live(b)\nend\nmain\ncall live(1)\nend\n";
        let (p, v) = run(src, JumpFunctionKind::Polynomial, true);
        assert_eq!(
            v.value(p.proc_by_name("dead").unwrap(), Slot::Formal(0)),
            LatticeVal::Top
        );
        assert_eq!(const_of(&p, &v, "live", Slot::Formal(0)), Some(1));
        // ⊤ slots are not constants.
        assert!(v.constants(p.proc_by_name("dead").unwrap()).is_empty());
    }

    #[test]
    fn recursion_converges() {
        let src = "proc walk(n, k)\nif n > 0 then\ncall walk(n - 1, k)\nend\nend\nmain\ncall walk(9, 3)\nend\n";
        let (p, v) = run(src, JumpFunctionKind::Polynomial, true);
        let walk = p.proc_by_name("walk").unwrap();
        // n varies (9, n-1), k is invariant 3.
        assert_eq!(v.value(walk, Slot::Formal(0)), LatticeVal::Bottom);
        assert_eq!(v.value(walk, Slot::Formal(1)).as_const(), Some(3));
    }

    #[test]
    fn function_results_propagate_through_rjfs() {
        let src = "func five()\nreturn 5\nend\nproc f(a)\nend\nmain\nx = five()\ncall f(x)\nend\n";
        let (p, v) = run(src, JumpFunctionKind::IntraproceduralConstant, true);
        assert_eq!(const_of(&p, &v, "f", Slot::Formal(0)), Some(5));
        let (p, v) = run(src, JumpFunctionKind::IntraproceduralConstant, false);
        assert_eq!(
            v.value(p.proc_by_name("f").unwrap(), Slot::Formal(0)),
            LatticeVal::Bottom
        );
    }

    #[test]
    fn constants_sets_extracted() {
        let src = "global g = 2\nproc f(a, b)\nx = g\nend\nmain\ncall f(1, q)\nend\n";
        let (p, v) = run(src, JumpFunctionKind::Polynomial, true);
        let f = p.proc_by_name("f").unwrap();
        let consts = v.constants(f);
        assert_eq!(consts.get(&Slot::Formal(0)), Some(&1));
        assert_eq!(
            consts.get(&Slot::Formal(1)),
            None,
            "q is an undefined local → ⊥"
        );
        assert_eq!(consts.get(&Slot::Global(ipcp_ir::GlobalId(0))), Some(&2));
    }

    #[test]
    fn slotless_intermediaries_still_propagate() {
        // q has no formals and touches no globals, so its VAL set never
        // changes — its call sites must still be evaluated.
        let src = "proc r(a)\nprint(a)\nend\nproc q()\ncall r(5)\nend\nmain\ncall q()\nend\n";
        let (p, v) = run(src, JumpFunctionKind::Literal, true);
        assert_eq!(const_of(&p, &v, "r", Slot::Formal(0)), Some(5));
    }

    #[test]
    fn iterations_counted() {
        let (_, v) = run(
            "proc f(a)\nend\nmain\ncall f(1)\nend\n",
            JumpFunctionKind::Literal,
            true,
        );
        assert!(v.iterations() >= 1);
    }

    #[test]
    fn exhausted_budget_lowers_every_slot_to_bottom() {
        let src = "proc c(z)\nend\nproc b(y)\ncall c(y)\nend\nproc a(x)\ncall b(x)\nend\nmain\ncall a(7)\nend\n";
        let mut program = compile_to_ir(src).expect("compiles");
        let cg = CallGraph::new(&program);
        let modref = compute_modref(&program, &cg);
        augment_global_vars(&mut program, &modref);
        let cg = CallGraph::new(&program);
        let kills = ModKills::new(&program, &modref);
        let rjfs = build_return_jfs(&program, &cg, &kills);
        let eval = RjfConstEval { rjfs: &rjfs };
        let jfs = build_forward_jfs(
            &program,
            &cg,
            &modref,
            JumpFunctionKind::Polynomial,
            &kills,
            &eval,
        );
        let full = solve(&program, &cg, &modref, &jfs);
        // Partial budgets never claim a constant the full run disagrees with.
        for fuel in 0..8u64 {
            let budget = Budget::with_fuel(fuel);
            let v = solve_budgeted(&program, &cg, &modref, &jfs, &budget);
            for pid in program.proc_ids() {
                for (&slot, &val) in v.of(pid) {
                    if let LatticeVal::Const(c) = val {
                        assert_eq!(
                            full.value(pid, slot),
                            LatticeVal::Const(c),
                            "degraded run invented a constant at fuel {fuel}"
                        );
                    }
                }
            }
            if budget.is_exhausted() {
                for pid in program.proc_ids() {
                    for (&slot, &val) in v.of(pid) {
                        assert_eq!(val, LatticeVal::Bottom, "{slot} left optimistic");
                    }
                }
                assert!(budget.report().degradations[&Phase::Solver] > 0);
            }
        }
    }

    #[test]
    fn entry_env_maps_vars() {
        let src = "global g = 2\nproc f(a)\nx = g + a\nend\nmain\ncall f(1)\nend\n";
        let (p, v) = run(src, JumpFunctionKind::Polynomial, true);
        let f = p.proc_by_name("f").unwrap();
        let env = entry_env_of(&p, f, &v);
        let proc = p.proc(f);
        for var in proc.var_ids() {
            let val = env(var);
            match proc.var(var).kind {
                VarKind::Formal(0) => assert_eq!(val, LatticeVal::Const(1)),
                VarKind::Global(_) => assert_eq!(val, LatticeVal::Const(2)),
                _ => assert_eq!(val, LatticeVal::Bottom),
            }
        }
    }
}
