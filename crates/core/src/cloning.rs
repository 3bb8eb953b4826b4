//! Procedure-cloning guidance from interprocedural constants.
//!
//! One of the paper's motivating applications (§1): Metzger & Stroud
//! "used interprocedural constants to guide procedure cloning", and
//! found that "goal-directed cloning of procedures based on
//! interprocedural constants can substantially increase the number of
//! interprocedural constants available".
//!
//! This module reports the opportunities such a cloner would act on: a
//! slot whose `VAL` met to ⊥ *only because different call sites supply
//! different constants*. Cloning the procedure per arriving value would
//! make the slot constant inside each clone.

use crate::driver::AnalysisConfig;
use crate::forward::ForwardJumpFns;
use crate::session::AnalysisSession;
use crate::solver::ValSets;
use ipcp_analysis::{CallGraph, LatticeVal, Slot};
use ipcp_ir::{ProcId, Program};
use ipcp_obs::NoopSink;
use std::collections::BTreeMap;

/// A slot that would become constant under per-value procedure cloning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloneOpportunity {
    /// The procedure to clone.
    pub proc: ProcId,
    /// The slot that would become constant in each clone.
    pub slot: Slot,
    /// Distinct constant values arriving, with how many call sites supply
    /// each.
    pub variants: Vec<(i64, usize)>,
    /// Call sites supplying a non-constant value (these would share one
    /// "generic" clone).
    pub unknown_sites: usize,
}

impl CloneOpportunity {
    /// Number of clones a by-value cloner would create (one per distinct
    /// constant, plus one generic clone if any site is unknown).
    pub fn clone_count(&self) -> usize {
        self.variants.len() + usize::from(self.unknown_sites > 0)
    }
}

/// Finds cloning opportunities: reachable procedures with a ⊥ slot fed by
/// at least two sites of which at least two supply constants (or one
/// constant shared by several sites mixed with unknowns).
pub fn cloning_opportunities(
    program: &Program,
    cg: &CallGraph,
    jfs: &ForwardJumpFns,
    vals: &ValSets,
) -> Vec<CloneOpportunity> {
    // Gather, per (callee, slot), the incoming lattice values.
    let mut incoming: BTreeMap<(ProcId, Slot), (BTreeMap<i64, usize>, usize)> = BTreeMap::new();
    for pid in program.proc_ids() {
        if !cg.is_reachable(pid) {
            continue;
        }
        for site in jfs.sites(pid) {
            if !site.reachable {
                continue;
            }
            for (&slot, jf) in &site.jfs {
                let env = |s: Slot| vals.value(pid, s);
                let v = jf.eval_lattice(&env);
                let entry = incoming.entry((site.callee, slot)).or_default();
                match v {
                    LatticeVal::Const(c) => *entry.0.entry(c).or_default() += 1,
                    LatticeVal::Bottom => entry.1 += 1,
                    // A ⊤ input comes from a never-invoked caller; ignore.
                    LatticeVal::Top => {}
                }
            }
        }
    }

    let mut out = Vec::new();
    for ((proc, slot), (consts, unknown_sites)) in incoming {
        // Only slots that actually met to ⊥ are interesting.
        if vals.value(proc, slot) != LatticeVal::Bottom {
            continue;
        }
        // A cloner needs at least one constant variant, and the situation
        // must actually be resolved by cloning: either ≥2 distinct
        // constants, or ≥1 constant alongside unknown sites.
        let worthwhile = consts.len() >= 2 || (!consts.is_empty() && unknown_sites > 0);
        if !worthwhile {
            continue;
        }
        out.push(CloneOpportunity {
            proc,
            slot,
            variants: consts.into_iter().collect(),
            unknown_sites,
        });
    }
    // Most valuable first: most constant-providing sites.
    out.sort_by_key(|o| {
        let sites: usize = o.variants.iter().map(|&(_, n)| n).sum();
        (std::cmp::Reverse(sites), o.proc, o.slot)
    });
    out
}

/// Applies by-value procedure cloning for the given opportunities
/// (formal-parameter slots only — global-slot cloning would need calling
/// contexts): each constant variant gets a dedicated clone, and every
/// call site whose jump function evaluates to that constant is redirected
/// to it. Returns the transformed program and the number of clones
/// created.
///
/// The transformation is semantics-preserving (clones are exact copies);
/// re-running the analysis afterwards finds strictly more constants when
/// any opportunity existed — Metzger & Stroud's observation.
pub fn apply_cloning(
    program: &Program,
    cg: &CallGraph,
    jfs: &ForwardJumpFns,
    vals: &ValSets,
    opportunities: &[CloneOpportunity],
) -> (Program, usize) {
    use std::collections::HashMap;

    let mut out = program.clone();
    let mut clones_created = 0usize;
    // One cloned slot per procedure (the best opportunity is listed
    // first); (proc, value) → clone ProcId.
    let mut cloned_slot: HashMap<ProcId, Slot> = HashMap::new();
    let mut clone_of: HashMap<(ProcId, i64), ProcId> = HashMap::new();

    for o in opportunities {
        let Slot::Formal(_) = o.slot else { continue };
        cloned_slot.entry(o.proc).or_insert(o.slot);
    }

    // Redirect call sites. Iterate the *original* program's sites; clones
    // appended to `out` only contain calls to original procedures, which
    // we do not redirect again (one level of cloning per application).
    for pid in program.proc_ids() {
        if !cg.is_reachable(pid) {
            continue;
        }
        for (call_site, site_jfs) in cg.sites(pid).iter().zip(jfs.sites(pid)) {
            if !site_jfs.reachable {
                continue;
            }
            let Some(&slot) = cloned_slot.get(&site_jfs.callee) else {
                continue;
            };
            let Some(jf) = site_jfs.jfs.get(&slot) else {
                continue;
            };
            let env = |s: Slot| vals.value(pid, s);
            let LatticeVal::Const(c) = jf.eval_lattice(&env) else {
                continue;
            };
            let clones = &mut clones_created;
            let target = *clone_of.entry((site_jfs.callee, c)).or_insert_with(|| {
                let original = program.proc(site_jfs.callee);
                let mut clone = original.clone();
                let tag = if c < 0 {
                    format!("m{}", c.unsigned_abs())
                } else {
                    c.to_string()
                };
                clone.name = format!("{}__c{}", original.name, tag);
                *clones += 1;
                let id = ProcId::from_index(out.procs.len());
                out.procs.push(clone);
                id
            });
            let block = out.proc_mut(pid).block_mut(call_site.block);
            let ipcp_ir::Instr::Call { callee, .. } = &mut block.instrs[call_site.index] else {
                unreachable!("call site indexes a call instruction");
            };
            *callee = target;
        }
    }
    (out, clones_created)
}

/// The cloning report of `program` under `config` (what `ipcp clones`
/// prints): [`cloning_opportunities`] over the analysis session's solved
/// round, rendered by [`opportunities_to_string`]. Without
/// interprocedural propagation there are no forward jump functions and
/// so no opportunities.
pub fn clone_report(program: &Program, config: &AnalysisConfig) -> String {
    let session = AnalysisSession::new(program);
    let mut round = program.clone();
    session.solved_view(&mut round, session.base_state(), config, &NoopSink, |r| {
        let ops = match (&r.jfs, r.vals.as_deref()) {
            (Some(jfs), Some(vals)) => cloning_opportunities(r.program, r.cg, jfs, vals),
            _ => Vec::new(),
        };
        opportunities_to_string(r.program, &ops)
    })
}

/// Renders opportunities with source names resolved.
pub fn opportunities_to_string(program: &Program, opportunities: &[CloneOpportunity]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if opportunities.is_empty() {
        out.push_str("(no cloning opportunities)\n");
        return out;
    }
    for o in opportunities {
        let name = &program.proc(o.proc).name;
        let slot = crate::report::slot_name(program, o.proc, o.slot);
        let _ = write!(out, "clone `{name}` on {slot}: ");
        for (i, (value, sites)) in o.variants.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{value} ({sites} site(s))");
        }
        if o.unknown_sites > 0 {
            let _ = write!(out, ", non-constant ({} site(s))", o.unknown_sites);
        }
        let _ = writeln!(out, " → {} clones", o.clone_count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::build_forward_jfs;
    use crate::jump::JumpFunctionKind;
    use crate::retjf::{build_return_jfs, RjfConstEval};
    use crate::solver::solve;
    use ipcp_analysis::{augment_global_vars, compute_modref, ModKills};
    use ipcp_ir::compile_to_ir;

    fn opportunities(src: &str) -> (Program, Vec<CloneOpportunity>) {
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
        let vals = solve(&program, &cg, &modref, &jfs);
        let ops = cloning_opportunities(&program, &cg, &jfs, &vals);
        (program, ops)
    }

    #[test]
    fn two_constant_variants() {
        let src = "proc f(a)\nprint(a)\nend\nmain\ncall f(1)\ncall f(2)\ncall f(2)\nend\n";
        let (program, ops) = opportunities(src);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].proc, program.proc_by_name("f").unwrap());
        assert_eq!(ops[0].slot, Slot::Formal(0));
        assert_eq!(ops[0].variants, vec![(1, 1), (2, 2)]);
        assert_eq!(ops[0].unknown_sites, 0);
        assert_eq!(ops[0].clone_count(), 2);
        let s = opportunities_to_string(&program, &ops);
        assert!(s.contains("clone `f` on a"), "{s}");
    }

    #[test]
    fn constant_plus_unknown() {
        let src = "proc f(a)\nprint(a)\nend\nmain\nread(x)\ncall f(7)\ncall f(x)\nend\n";
        let (_, ops) = opportunities(src);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].variants, vec![(7, 1)]);
        assert_eq!(ops[0].unknown_sites, 1);
        assert_eq!(ops[0].clone_count(), 2);
    }

    #[test]
    fn already_constant_slots_not_reported() {
        let src = "proc f(a)\nprint(a)\nend\nmain\ncall f(5)\ncall f(5)\nend\n";
        let (_, ops) = opportunities(src);
        assert!(ops.is_empty(), "{ops:?}");
    }

    #[test]
    fn all_unknown_not_reported() {
        let src = "proc f(a)\nprint(a)\nend\nmain\nread(x)\nread(y)\ncall f(x)\ncall f(y)\nend\n";
        let (_, ops) = opportunities(src);
        assert!(ops.is_empty(), "{ops:?}");
    }

    #[test]
    fn ordering_by_constant_site_count() {
        let src = "\
proc f(a)\nprint(a)\nend\n\
proc g(b)\nprint(b)\nend\n\
main\n\
call f(1)\ncall f(2)\n\
call g(1)\ncall g(2)\ncall g(3)\n\
end\n";
        let (program, ops) = opportunities(src);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].proc, program.proc_by_name("g").unwrap());
        assert_eq!(ops[0].clone_count(), 3);
    }

    #[test]
    fn apply_cloning_redirects_sites_and_preserves_behaviour() {
        use ipcp_lang::interp::{InterpConfig, Value};
        let src = "proc f(a)\nprint(a * 10)\nend\nmain\ncall f(1)\ncall f(2)\ncall f(2)\nend\n";
        let mut program = compile_to_ir(src).unwrap();
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
        let vals = solve(&program, &cg, &modref, &jfs);
        let ops = cloning_opportunities(&program, &cg, &jfs, &vals);
        assert_eq!(ops.len(), 1);

        let (cloned, n) = apply_cloning(&program, &cg, &jfs, &vals, &ops);
        assert_eq!(n, 2, "one clone per distinct constant");
        assert_eq!(cloned.procs.len(), program.procs.len() + 2);
        ipcp_ir::validate::validate(&cloned).expect("cloned program validates");

        // Behaviour unchanged.
        let before = ipcp_ir::eval::run(&program, &InterpConfig::default()).unwrap();
        let after = ipcp_ir::eval::run(&cloned, &InterpConfig::default()).unwrap();
        assert_eq!(before.output, after.output);
        assert_eq!(
            after.output,
            vec![Value::Int(10), Value::Int(20), Value::Int(20)]
        );

        // Re-analysis on the cloned program finds MORE constants: each
        // clone's formal is now constant.
        let plain = crate::driver::analyze(&program, &crate::driver::AnalysisConfig::default());
        let recloned = crate::driver::analyze(&cloned, &crate::driver::AnalysisConfig::default());
        assert!(
            recloned.constant_slot_count() > plain.constant_slot_count(),
            "cloning exposes constants: {} vs {}",
            recloned.constant_slot_count(),
            plain.constant_slot_count()
        );
        assert!(recloned.substitutions.total > plain.substitutions.total);
    }

    #[test]
    fn apply_cloning_with_unknown_sites() {
        let src = "proc f(a)\nprint(a)\nend\nmain\nread(x)\ncall f(7)\ncall f(x)\nend\n";
        let mut program = compile_to_ir(src).unwrap();
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
        let vals = solve(&program, &cg, &modref, &jfs);
        let ops = cloning_opportunities(&program, &cg, &jfs, &vals);
        let (cloned, n) = apply_cloning(&program, &cg, &jfs, &vals, &ops);
        assert_eq!(n, 1, "only the constant site is redirected");
        // The unknown site still calls the original f.
        use ipcp_lang::interp::{InterpConfig, Value};
        let out = ipcp_ir::eval::run(
            &cloned,
            &InterpConfig {
                input: vec![3],
                ..InterpConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.output, vec![Value::Int(7), Value::Int(3)]);
    }

    #[test]
    fn empty_rendering() {
        let (program, ops) = opportunities("main\nprint(1)\nend\n");
        assert!(opportunities_to_string(&program, &ops).contains("no cloning"));
    }
}
