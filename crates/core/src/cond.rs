//! Conditional constant propagation with interprocedural branch
//! feasibility — the first genuinely new analysis on the dataflow
//! framework (`--level cond`).
//!
//! Plain interprocedural propagation evaluates the jump functions of
//! *every* CFG-reachable call site. But when a branch predicate is a
//! known constant under the caller's current entry context, one arm of
//! the branch can never execute — and any call sites in it should not
//! lower their callees. This is Wegman–Zadeck executable-edge tracking
//! (SCCP) lifted across calls: as the solver discovers a procedure's
//! entry constants, an intraprocedural SCCP pass over that procedure
//! (seeded *optimistically* — ⊤ entries stay ⊤) decides which blocks
//! can execute, and the generic engine's
//! [`site_feasible`](crate::framework::DataflowProblem::site_feasible)
//! hook prunes the call edges in dead blocks. Pruned edges sharpen
//! callee contexts: two sites that meet a formal to ⊥ under `poly`
//! leave it a constant under `cond` when one of them is infeasible.
//!
//! **Soundness.** Contexts only descend, and the SCCP executable set
//! only *grows* as entry values descend (⊤ predicates execute nothing,
//! constants one arm, ⊥ both), so feasibility is monotone: an edge is
//! pruned only while the caller's context proves its block dead, and
//! the caller is re-popped — re-deciding feasibility — whenever its
//! context lowers. At the fixpoint every feasible edge has been
//! evaluated under the final context. A procedure all of whose
//! incoming edges are pruned keeps its optimistic ⊤ context; ⊤ slots
//! are not constants ([`ValSets::constants`]) and are mapped to ⊥ by
//! [`entry_env_of`](crate::solver::entry_env_of) before any
//! transformation, exactly like statically-uncalled procedures.
//!
//! **Budgeting.** Feasibility SCCP runs on a scratch unlimited budget:
//! it is a pruning device computed on the side, and drawing from the
//! main tank would perturb the solver phase's fuel accounting (which
//! the session records and replays on cache hits). The engine's
//! per-pop checkpoint still degrades the whole result to ⊥ on
//! exhaustion, which is sound with or without pruning.
//!
//! `cond` always solves over the call graph (the binding-graph
//! formulation has no per-procedure pop at which to re-decide
//! feasibility); the driver routes `branch_feasibility` configurations
//! here regardless of [`SolverKind`](crate::driver::SolverKind).

use crate::forward::ForwardJumpFns;
use crate::framework::{solve_value_contexts, DataflowProblem, EdgeSink};
use crate::solver::{ConstProp, ValSets};
use ipcp_analysis::{
    sccp_budgeted, Budget, CallGraph, CallLattice, LatticeVal, ModRefInfo, Phase, SccpConfig, Slot,
};
use ipcp_ir::{ProcId, Program, VarKind};
use ipcp_ssa::{build_ssa, KillOracle, SsaProc};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// [`crate::solver::solve`] with interprocedural branch feasibility.
pub fn solve_cond(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    jfs: &ForwardJumpFns,
    kills: &dyn KillOracle,
    calls: &dyn CallLattice,
) -> ValSets {
    solve_cond_traced(
        program,
        cg,
        modref,
        jfs,
        kills,
        calls,
        &Budget::unlimited(),
        &ipcp_obs::NoopSink,
    )
}

/// [`solve_cond`] under a fuel budget (same solver-phase discipline as
/// [`crate::solver::solve_budgeted`]).
#[allow(clippy::too_many_arguments)]
pub fn solve_cond_budgeted(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    jfs: &ForwardJumpFns,
    kills: &dyn KillOracle,
    calls: &dyn CallLattice,
    budget: &Budget,
) -> ValSets {
    solve_cond_traced(
        program,
        cg,
        modref,
        jfs,
        kills,
        calls,
        budget,
        &ipcp_obs::NoopSink,
    )
}

/// [`solve_cond_budgeted`] with lattice transitions reported to `sink`
/// (the `ipcp explain` provenance path): the `CondProp` problem run
/// through the generic value-context engine.
#[allow(clippy::too_many_arguments)]
pub fn solve_cond_traced(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    jfs: &ForwardJumpFns,
    kills: &dyn KillOracle,
    calls: &dyn CallLattice,
    budget: &Budget,
    sink: &dyn ipcp_obs::ObsSink,
) -> ValSets {
    let problem = CondProp {
        base: ConstProp {
            program,
            cg,
            modref,
            jfs,
        },
        kills,
        calls,
        ssa_cache: RefCell::new(vec![None; program.procs.len()]),
        slots_cache: RefCell::new(vec![None; program.procs.len()]),
        feasibility: RefCell::new(HashMap::new()),
    };
    ValSets::from_engine(solve_value_contexts(program, &problem, budget, sink))
}

/// (procedure, entry-context snapshot) → per-site feasibility flags.
type FeasibilityMemo = HashMap<(ProcId, Vec<LatticeVal>), Rc<Vec<bool>>>;

/// The conditional-propagation problem: [`ConstProp`] plus an SCCP-based
/// edge-feasibility oracle, memoized per (procedure, entry-context
/// snapshot).
struct CondProp<'a> {
    base: ConstProp<'a>,
    kills: &'a dyn KillOracle,
    calls: &'a dyn CallLattice,
    /// SSA per procedure, built lazily (feasibility only needs the
    /// procedures the solver actually pops).
    ssa_cache: RefCell<Vec<Option<Rc<SsaProc>>>>,
    /// Context slots per procedure, built lazily: [`site_feasible`]
    /// (DataflowProblem::site_feasible) runs on every call-site visit and
    /// recomputing the slot universe each time is a hot-path allocation.
    slots_cache: RefCell<Vec<Option<Rc<Vec<Slot>>>>>,
    feasibility: RefCell<FeasibilityMemo>,
}

impl CondProp<'_> {
    fn slots_of(&self, p: ProcId) -> Rc<Vec<Slot>> {
        let mut cache = self.slots_cache.borrow_mut();
        let entry = &mut cache[p.index()];
        if entry.is_none() {
            *entry = Some(Rc::new(self.base.context_slots(self.base.program, p)));
        }
        Rc::clone(entry.as_ref().expect("just built"))
    }

    fn ssa_of(&self, p: ProcId) -> Rc<SsaProc> {
        let mut cache = self.ssa_cache.borrow_mut();
        let entry = &mut cache[p.index()];
        if entry.is_none() {
            let program = self.base.program;
            *entry = Some(Rc::new(build_ssa(program, program.proc(p), self.kills)));
        }
        Rc::clone(entry.as_ref().expect("just built"))
    }

    /// Per-site feasibility of `p` under the entry snapshot `key`: a
    /// site is feasible iff its block is SCCP-executable when `p`'s
    /// entry variables are seeded with the snapshot values.
    fn feasible_sites(&self, p: ProcId, slots: &[Slot], key: Vec<LatticeVal>) -> Rc<Vec<bool>> {
        if let Some(hit) = self.feasibility.borrow().get(&(p, key.clone())) {
            return Rc::clone(hit);
        }
        let program = self.base.program;
        let proc = program.proc(p);
        let by_slot: BTreeMap<Slot, LatticeVal> =
            slots.iter().copied().zip(key.iter().copied()).collect();

        // The *optimistic* entry environment: tracked slots keep their
        // current lattice value — crucially, ⊤ stays ⊤ (a not-yet-seen
        // entry executes nothing), unlike `entry_env_of`, which maps ⊤
        // to ⊥ for counting. Mapping ⊤ to ⊥ here would raise the seed
        // from ⊥ back to a constant as the context descends, breaking
        // the monotone-growth argument. Slot-less variables (locals,
        // temporaries) are ⊥.
        let mut per_var = Vec::with_capacity(proc.vars.len());
        for v in proc.var_ids() {
            let value = match proc.var(v).kind {
                VarKind::Formal(i) => by_slot
                    .get(&Slot::Formal(i))
                    .copied()
                    .unwrap_or(LatticeVal::Bottom),
                VarKind::Global(g) => by_slot
                    .get(&Slot::Global(g))
                    .copied()
                    .unwrap_or(LatticeVal::Bottom),
                _ => LatticeVal::Bottom,
            };
            per_var.push(value);
        }
        let entry = |v: ipcp_ir::VarId| -> LatticeVal {
            per_var
                .get(v.index())
                .copied()
                .unwrap_or(LatticeVal::Bottom)
        };
        let config = SccpConfig {
            entry_env: &entry,
            calls: self.calls,
        };
        let ssa = self.ssa_of(p);
        let result = sccp_budgeted(proc, &ssa, &config, &Budget::unlimited());
        let flags: Vec<bool> = self
            .base
            .cg
            .sites(p)
            .iter()
            .map(|site| result.executable[site.block.index()])
            .collect();
        let rc = Rc::new(flags);
        self.feasibility
            .borrow_mut()
            .insert((p, key), Rc::clone(&rc));
        rc
    }
}

impl DataflowProblem for CondProp<'_> {
    type Value = LatticeVal;

    fn top(&self) -> LatticeVal {
        self.base.top()
    }

    fn bottom(&self) -> LatticeVal {
        self.base.bottom()
    }

    fn meet(&self, a: LatticeVal, b: LatticeVal) -> LatticeVal {
        self.base.meet(a, b)
    }

    fn missing_value(&self) -> LatticeVal {
        self.base.missing_value()
    }

    fn context_slots(&self, program: &Program, p: ProcId) -> Vec<Slot> {
        self.base.context_slots(program, p)
    }

    fn root_value(&self, program: &Program, slot: Slot) -> LatticeVal {
        self.base.root_value(program, slot)
    }

    fn seeded(&self, p: ProcId) -> bool {
        self.base.seeded(p)
    }

    fn site_count(&self, p: ProcId) -> usize {
        self.base.site_count(p)
    }

    fn site_target(&self, p: ProcId, s: usize) -> Option<ProcId> {
        self.base.site_target(p, s)
    }

    fn site_feasible(&self, p: ProcId, s: usize, env: &dyn Fn(Slot) -> LatticeVal) -> bool {
        let slots = self.slots_of(p);
        let key: Vec<LatticeVal> = slots.iter().map(|&sl| env(sl)).collect();
        let flags = self.feasible_sites(p, &slots, key);
        flags.get(s).copied().unwrap_or(true)
    }

    fn eval_edge(&self, p: ProcId, s: usize, sink: &mut dyn EdgeSink<LatticeVal>) {
        self.base.eval_edge(p, s, sink);
    }

    fn phase(&self) -> Phase {
        self.base.phase()
    }

    fn proc_name(&self, p: ProcId) -> &str {
        self.base.proc_name(p)
    }

    fn slot_name(&self, q: ProcId, slot: Slot) -> String {
        self.base.slot_name(q, slot)
    }

    fn site_label(&self, p: ProcId, s: usize) -> String {
        self.base.site_label(p, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::build_forward_jfs;
    use crate::jump::JumpFunctionKind;
    use crate::retjf::{build_return_jfs, RjfConstEval, RjfLattice};
    use ipcp_analysis::{augment_global_vars, compute_modref, ModKills};
    use ipcp_ir::compile_to_ir;

    /// An interprocedurally-constant predicate (`mode == 1`) proves the
    /// `else` arm of `dispatch` dead; only then is `kernel(3)` the sole
    /// live call and `k` a constant.
    pub const DISPATCH: &str = "proc kernel(k)\nprint(k + 1)\nend\n\
        proc dispatch(mode)\nif mode == 1 then\ncall kernel(3)\nelse\ncall kernel(9)\nend\nend\n\
        main\ncall dispatch(1)\nend\n";

    fn solve_both(src: &str) -> (Program, ValSets, ValSets) {
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
        let poly = crate::solver::solve(&program, &cg, &modref, &jfs);
        let calls = RjfLattice { rjfs: &rjfs };
        let cond = solve_cond(&program, &cg, &modref, &jfs, &kills, &calls);
        (program, poly, cond)
    }

    #[test]
    fn infeasible_branch_prune_sharpens_callee() {
        let (p, poly, cond) = solve_both(DISPATCH);
        let kernel = p.proc_by_name("kernel").unwrap();
        // poly meets 3 ∧ 9 = ⊥; cond prunes the else-arm call.
        assert_eq!(poly.value(kernel, Slot::Formal(0)), LatticeVal::Bottom);
        assert_eq!(cond.value(kernel, Slot::Formal(0)), LatticeVal::Const(3));
        assert!(cond.pruned_call_edges() > 0);
        assert_eq!(poly.pruned_call_edges(), 0);
    }

    #[test]
    fn cond_never_loses_per_proc_constants() {
        // On every procedure where cond claims any constant, it must
        // preserve all of poly's constants for that procedure.
        for src in [
            DISPATCH,
            "proc f(a)\nend\nmain\ncall f(5)\ncall f(6)\nend\n",
            "global n = 4\nproc g(x)\nend\nproc h(y)\nif y then\ncall g(n)\nend\nend\nmain\ncall h(0)\ncall h(2)\nend\n",
        ] {
            let (p, poly, cond) = solve_both(src);
            for pid in p.proc_ids() {
                let cc = cond.constants(pid);
                if cc.is_empty() {
                    continue; // proved infeasible — exempt
                }
                for (slot, c) in poly.constants(pid) {
                    assert_eq!(cc.get(&slot), Some(&c), "{src}: {}", p.proc(pid).name);
                }
            }
        }
    }

    #[test]
    fn feasible_programs_match_plain_solver() {
        // No constant predicates: cond must agree with poly exactly.
        let src = "proc f(a)\nend\nproc g(b)\ncall f(b)\nend\nmain\ncall g(7)\ncall f(2)\nend\n";
        let (p, poly, cond) = solve_both(src);
        for pid in p.proc_ids() {
            assert_eq!(poly.of(pid), cond.of(pid));
        }
        assert_eq!(cond.pruned_call_edges(), 0);
    }

    #[test]
    fn exhausted_budget_is_sound_under_pruning() {
        let mut program = compile_to_ir(DISPATCH).unwrap();
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
        let calls = RjfLattice { rjfs: &rjfs };
        let full = solve_cond(&program, &cg, &modref, &jfs, &kills, &calls);
        for fuel in 0..8u64 {
            let budget = Budget::with_fuel(fuel);
            let v = solve_cond_budgeted(&program, &cg, &modref, &jfs, &kills, &calls, &budget);
            for pid in program.proc_ids() {
                for (&slot, &val) in v.of(pid) {
                    if let LatticeVal::Const(c) = val {
                        assert_eq!(full.value(pid, slot), LatticeVal::Const(c), "fuel {fuel}");
                    }
                }
            }
        }
    }
}
