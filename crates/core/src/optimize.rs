//! The whole-program optimizer: analysis plus transformation in one call.
//!
//! [`optimize`] is the entry point a downstream compiler would use: run
//! interprocedural constant propagation at a chosen configuration, then
//! *apply* the results — substitute constants into the IR, fold branches,
//! strip unreachable code, delete dead assignments, and (optionally)
//! clone procedures by arriving constant and re-run to convergence. The
//! result is a semantically equivalent program (pinned by the equivalence
//! tests) plus a metrics trail.

use crate::cloning::{apply_cloning, cloning_opportunities};
use crate::driver::AnalysisConfig;
use crate::session::{AnalysisSession, ProgramState};
use crate::subst::{seeded_sccp, substitute_proc};
use ipcp_analysis::dce::dce_round;
use ipcp_ir::Program;
use ipcp_obs::NoopSink;
use ipcp_ssa::build_ssa;

/// Options for [`optimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeConfig {
    /// The analysis configuration. Every facet that shapes the solved
    /// round is honoured, branch feasibility included; fuel is not (the
    /// optimizer runs unmetered), and `complete_propagation` is ignored:
    /// the optimizer always iterates substitution + DCE to a fixpoint
    /// itself.
    pub analysis: AnalysisConfig,
    /// Additionally clone procedures whose slots receive conflicting
    /// constants, then re-analyze (Metzger & Stroud).
    pub clone_procedures: bool,
    /// Upper bound on substitute/DCE/clone rounds (a safety valve; two or
    /// three rounds reach the fixpoint in practice).
    pub max_rounds: usize,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            analysis: AnalysisConfig::default(),
            clone_procedures: false,
            max_rounds: 8,
        }
    }
}

/// What [`optimize`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Operands rewritten to constants.
    pub substituted_operands: usize,
    /// Procedure clones created.
    pub clones_created: usize,
    /// Substitute/DCE rounds executed.
    pub rounds: usize,
    /// Instructions before optimization.
    pub instrs_before: usize,
    /// Instructions after optimization.
    pub instrs_after: usize,
}

/// Runs the full optimize pipeline; returns the transformed program and
/// the work done. The result is observationally equivalent to the input.
///
/// Every round is a view over one analysis session's solved round, so
/// `config.analysis` shapes the analysis exactly as it shapes `analyze`
/// (fuel, the disk cache and tracing aside), and a later round reuses
/// the artifacts of every procedure the previous round left unchanged.
/// Without interprocedural propagation there are no forward jump
/// functions, so there is nothing to clone.
pub fn optimize(program: &Program, config: &OptimizeConfig) -> (Program, OptimizeStats) {
    let session = AnalysisSession::new(program);
    let mut program = program.clone();
    let mut state = session.base_state().clone();
    let mut stats = OptimizeStats {
        instrs_before: program.instr_count(),
        ..OptimizeStats::default()
    };

    for _round in 0..config.max_rounds {
        stats.rounds += 1;
        // Each round yields the next program, the clones it created (the
        // clones are analyzed next round), the operands it substituted,
        // and whether it changed anything.
        let (next, clones, substituted, changed) =
            session.solved_view(&mut program, &state, &config.analysis, &NoopSink, |r| {
                // ---- clone (optional) ------------------------------------
                if let (true, Some(jfs), Some(vals)) =
                    (config.clone_procedures, &r.jfs, r.vals.as_deref())
                {
                    let ops = cloning_opportunities(r.program, r.cg, jfs, vals);
                    if !ops.is_empty() {
                        let (cloned, n) = apply_cloning(r.program, r.cg, jfs, vals, &ops);
                        if n > 0 {
                            return (cloned, n, 0, true);
                        }
                    }
                }

                // ---- substitute ------------------------------------------
                let mut next = r.program.clone();
                let mut substituted = 0;
                for pid in r.program.proc_ids() {
                    let (ssa, result) = r.sccp(pid);
                    substituted += substitute_proc(next.proc_mut(pid), &ssa, &result);
                }

                // ---- dead code elimination --------------------------------
                let mut changed = substituted > 0;
                for pid in r.program.proc_ids() {
                    let mut proc = next.proc(pid).clone();
                    let ssa = build_ssa(&next, &proc, r.kills);
                    let result = seeded_sccp(&next, r.calls, r.vals.as_deref(), pid, &ssa);
                    changed |= dce_round(&next, &mut proc, &ssa, &result, r.kills);
                    *next.proc_mut(pid) = proc;
                }
                (next, 0, substituted, changed)
            });
        program = next;
        stats.clones_created += clones;
        stats.substituted_operands += substituted;
        if !changed {
            break;
        }
        state = ProgramState::of(&program, crate::parallel::effective_jobs(&config.analysis));
    }

    stats.instrs_after = program.instr_count();
    (program, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::compile_to_ir;
    use ipcp_lang::interp::{InterpConfig, Value};

    fn run_program(p: &Program, input: Vec<i64>) -> Vec<Value> {
        ipcp_ir::eval::run(
            p,
            &InterpConfig {
                input,
                ..InterpConfig::default()
            },
        )
        .expect("runs")
        .output
    }

    #[test]
    fn optimize_shrinks_and_preserves() {
        let src = "
global mode
proc configure()
  mode = 2
end
proc kernel(n)
  if mode == 1 then
    read(extra)
    print(n + extra)
  else
    print(n * mode)
  end
end
main
  call configure()
  call kernel(21)
end
";
        let program = compile_to_ir(src).unwrap();
        let before = run_program(&program, vec![]);
        let (optimized, stats) = optimize(&program, &OptimizeConfig::default());
        ipcp_ir::validate::validate(&optimized).expect("valid");
        assert_eq!(run_program(&optimized, vec![]), before);
        assert!(stats.substituted_operands > 0);
        assert!(stats.instrs_after < stats.instrs_before, "{stats:?}");
        // The dead `mode == 1` arm is gone: no Read instructions remain.
        let reads = optimized
            .procs
            .iter()
            .flat_map(|p| p.blocks.iter())
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(i, ipcp_ir::Instr::Read { .. }))
            .count();
        assert_eq!(reads, 0);
    }

    #[test]
    fn optimize_with_cloning_specializes() {
        let src = "
proc kernel(radius)
  s = 0
  do i = 1, 8
    s = s + i * radius
  end
  print(s)
end
main
  call kernel(1)
  call kernel(3)
end
";
        let program = compile_to_ir(src).unwrap();
        let before = run_program(&program, vec![]);
        let config = OptimizeConfig {
            clone_procedures: true,
            ..OptimizeConfig::default()
        };
        let (optimized, stats) = optimize(&program, &config);
        ipcp_ir::validate::validate(&optimized).expect("valid");
        assert_eq!(run_program(&optimized, vec![]), before);
        assert_eq!(stats.clones_created, 2);
        // Each clone has its radius substituted: no remaining reference to
        // the clones' formal in their multiply.
        assert!(stats.substituted_operands >= 2, "{stats:?}");
    }

    #[test]
    fn optimize_reaches_fixpoint_quickly() {
        let src = "main\nx = 1\nif x then\nprint(2)\nelse\nprint(3)\nend\nend\n";
        let program = compile_to_ir(src).unwrap();
        let (optimized, stats) = optimize(&program, &OptimizeConfig::default());
        assert!(stats.rounds <= 3, "{stats:?}");
        assert_eq!(run_program(&optimized, vec![]), vec![Value::Int(2)]);
    }

    #[test]
    fn optimize_is_idempotent() {
        let src = "global n\nproc init()\nn = 4\nend\nproc f(k)\nprint(n + k)\nend\nmain\ncall init()\ncall f(1)\nend\n";
        let program = compile_to_ir(src).unwrap();
        let (once, _) = optimize(&program, &OptimizeConfig::default());
        let (twice, stats) = optimize(&once, &OptimizeConfig::default());
        assert_eq!(
            ipcp_ir::print::program_to_string(&once),
            ipcp_ir::print::program_to_string(&twice)
        );
        assert_eq!(stats.substituted_operands, 0, "nothing left to do");
    }

    #[test]
    fn optimize_noop_on_dynamic_program() {
        let src = "main\nread(x)\nprint(x + 1)\nend\n";
        let program = compile_to_ir(src).unwrap();
        let (optimized, stats) = optimize(&program, &OptimizeConfig::default());
        assert_eq!(stats.substituted_operands, 0);
        assert_eq!(run_program(&optimized, vec![7]), vec![Value::Int(8)]);
    }
}
