//! Reference oracles for the solver.
//!
//! The value-context solver runs through the generic
//! `ipcp_core::framework` engine. This module keeps two oracles that pin
//! what it computes:
//!
//! * the **golden Table-2/Table-3 pins** ([`TABLE2_GOLDEN`],
//!   [`TABLE3_GOLDEN`]) every engine change must reproduce bit-for-bit
//!   (consumed by `tests/golden.rs`, `tests/framework_golden.rs`, and
//!   the repository benchmark's `paper_sweep`), and
//! * a **verbatim replica of the pre-refactor bespoke solve loop**
//!   ([`legacy_solve`]) that the engine must agree with — identical
//!   fixpoint, identical iteration count — on identical inputs
//!   (`tests/framework_golden.rs`, `tests/flat_table_property.rs`).

use ipcp_core::{ForwardJumpFns, ValSets};
use ipcp_ir::{ProcId, Program};
use ipcp_ssa::{KillOracle, WorstCaseKills};
use std::collections::{BTreeMap, VecDeque};

use ipcp_analysis::{
    augment_global_vars, compute_modref, CallGraph, LatticeVal, ModKills, ModRefInfo, Slot,
};

/// Pinned Table-2 cells:
/// `(program, [poly, pass, intra, literal, poly-noRJF, pass-noRJF])`,
/// in [`crate::table2_configs`] column order.
pub const TABLE2_GOLDEN: [(&str, [usize; 6]); 12] = [
    ("adm", [110, 110, 110, 110, 110, 110]),
    ("doduc", [289, 289, 289, 286, 287, 287]),
    ("fpppp", [60, 60, 54, 49, 56, 56]),
    ("linpackd", [170, 170, 170, 94, 170, 170]),
    ("matrix300", [138, 138, 122, 71, 138, 138]),
    ("mdg", [41, 41, 40, 31, 40, 40]),
    ("ocean", [194, 194, 194, 57, 62, 62]),
    ("qcd", [180, 180, 180, 180, 180, 180]),
    ("simple", [183, 183, 179, 174, 183, 183]),
    ("snasa7", [336, 336, 336, 254, 336, 336]),
    ("spec77", [137, 137, 137, 104, 137, 137]),
    ("trfd", [16, 16, 16, 16, 16, 16]),
];

/// Pinned Table-3 cells:
/// `(program, [poly w/o MOD, poly w/ MOD, complete, intraprocedural])`,
/// in [`crate::table3_configs`] column order.
pub const TABLE3_GOLDEN: [(&str, [usize; 4]); 12] = [
    ("adm", [25, 110, 110, 105]),
    ("doduc", [286, 289, 289, 3]),
    ("fpppp", [34, 60, 60, 38]),
    ("linpackd", [33, 170, 170, 74]),
    ("matrix300", [18, 138, 138, 69]),
    ("mdg", [31, 41, 41, 31]),
    ("ocean", [62, 194, 204, 55]),
    ("qcd", [169, 180, 180, 179]),
    ("simple", [3, 183, 183, 173]),
    ("snasa7", [303, 336, 336, 254]),
    ("spec77", [76, 137, 141, 82]),
    ("trfd", [10, 16, 16, 15]),
];

/// Everything the propagation solver consumes, built once per program so
/// the engine and [`legacy_solve`] run on identical inputs.
pub struct SolverInputs {
    /// The (global-augmented) program.
    pub program: Program,
    /// Its call graph.
    pub cg: CallGraph,
    /// MOD/REF summaries.
    pub modref: ModRefInfo,
    /// Polynomial forward jump functions with RJF recovery — the
    /// default (most demanding) Table-2 column.
    pub jfs: ForwardJumpFns,
}

/// Builds [`SolverInputs`] with the default configuration's choices
/// (MOD-aware kills, return jump functions with constant-evaluating
/// recovery, polynomial forward jump functions).
pub fn solver_inputs(ir: &Program, mod_info: bool) -> SolverInputs {
    let mut program = ir.clone();
    let cg = CallGraph::new(&program);
    let modref = compute_modref(&program, &cg);
    augment_global_vars(&mut program, &modref);
    let cg = CallGraph::new(&program);
    let modref = compute_modref(&program, &cg);
    let mod_kills;
    let kills: &dyn KillOracle = if mod_info {
        mod_kills = ModKills::new(&program, &modref);
        &mod_kills
    } else {
        &WorstCaseKills
    };
    let rjfs = ipcp_core::build_return_jfs(&program, &cg, kills);
    let recovery = ipcp_core::RjfConstEval { rjfs: &rjfs };
    let jfs = ipcp_core::build_forward_jfs(
        &program,
        &cg,
        &modref,
        ipcp_core::JumpFunctionKind::Polynomial,
        kills,
        &recovery,
    );
    SolverInputs {
        program,
        cg,
        modref,
        jfs,
    }
}

/// The pre-refactor bespoke propagation loop, ported verbatim (minus
/// observability) from the solver as it stood before the generic
/// value-context engine replaced it. Kept as the overhead baseline:
/// [`assert_solver_agreement`] checks the engine still computes the
/// identical fixpoint in the identical number of iterations.
pub fn legacy_solve(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    jfs: &ForwardJumpFns,
) -> (Vec<BTreeMap<Slot, LatticeVal>>, usize) {
    let n = program.procs.len();
    let mut vals: Vec<BTreeMap<Slot, LatticeVal>> = Vec::with_capacity(n);
    for pid in program.proc_ids() {
        let mut map = BTreeMap::new();
        for slot in modref.param_slots(program, pid) {
            map.insert(slot, LatticeVal::Top);
        }
        vals.push(map);
    }

    let main = program.main;
    let main_slots: Vec<Slot> = vals[main.index()].keys().copied().collect();
    for slot in main_slots {
        if let Slot::Global(g) = slot {
            let v = match program.global(g).init {
                Some(c) => LatticeVal::Const(c),
                None => LatticeVal::Bottom,
            };
            vals[main.index()].insert(slot, v);
        }
    }

    let mut queued = vec![false; n];
    let mut work: VecDeque<ProcId> = VecDeque::new();
    work.push_back(main);
    queued[main.index()] = true;
    for pid in program.proc_ids() {
        if cg.is_reachable(pid) && !queued[pid.index()] {
            queued[pid.index()] = true;
            work.push_back(pid);
        }
    }

    let mut iterations = 0usize;
    while let Some(p) = work.pop_front() {
        queued[p.index()] = false;
        iterations += 1;

        for site in jfs.sites(p) {
            if !site.reachable {
                continue;
            }
            let q = site.callee;
            for (&slot, jf) in &site.jfs {
                let env = |s: Slot| -> LatticeVal {
                    vals[p.index()]
                        .get(&s)
                        .copied()
                        .unwrap_or(LatticeVal::Bottom)
                };
                let incoming = jf.eval_lattice(&env);
                let old = vals[q.index()]
                    .get(&slot)
                    .copied()
                    .unwrap_or(LatticeVal::Top);
                let new = old.meet(incoming);
                if new != old {
                    vals[q.index()].insert(slot, new);
                    if !queued[q.index()] {
                        queued[q.index()] = true;
                        work.push_back(q);
                    }
                }
            }
        }
    }

    (vals, iterations)
}

/// Asserts the generic engine's result is bit-identical to the legacy
/// loop's: same iteration count, same value for every tracked slot.
///
/// # Panics
///
/// Panics on the first divergence, naming the procedure and slot.
pub fn assert_solver_agreement(
    program: &Program,
    engine: &ValSets,
    legacy: &(Vec<BTreeMap<Slot, LatticeVal>>, usize),
) {
    assert_eq!(
        engine.iterations(),
        legacy.1,
        "engine iteration count diverged from the legacy loop"
    );
    for pid in program.proc_ids() {
        let legacy_map = &legacy.0[pid.index()];
        assert_eq!(
            engine.of(pid),
            legacy_map,
            "VAL({}) diverged",
            program.proc(pid).name
        );
    }
}
