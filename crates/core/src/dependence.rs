//! Whole-program subscript classification under a chosen analysis
//! configuration — the dependence-analysis consumer from the paper's
//! introduction (Shen–Li–Yew).
//!
//! [`subscript_counts`] runs the configured interprocedural analysis and
//! classifies every array subscript in call-graph-reachable code with
//! [`ipcp_analysis::subscripts`]. Comparing the intraprocedural baseline
//! against a full configuration shows how many previously *nonlinear*
//! subscripts become linear or constant once interprocedural constants
//! are known.

use crate::driver::AnalysisConfig;
use crate::session::AnalysisSession;
use ipcp_analysis::subscripts::{count_subscripts, SubscriptCounts};
use ipcp_ir::Program;
use ipcp_obs::NoopSink;

/// Classifies every subscript in the program under `config`, read off
/// the analysis session's solved round. Every facet of `config` that
/// shapes that round is honoured; fuel is not (the view runs unmetered).
pub fn subscript_counts(program: &Program, config: &AnalysisConfig) -> SubscriptCounts {
    let session = AnalysisSession::new(program);
    let mut round = program.clone();
    session.solved_view(&mut round, session.base_state(), config, &NoopSink, |r| {
        let mut total = SubscriptCounts::default();
        for pid in r.program.proc_ids().filter(|&pid| r.cg.is_reachable(pid)) {
            let (ssa, result) = r.sccp(pid);
            total.absorb(count_subscripts(r.program.proc(pid), &ssa, &result));
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_ir::compile_to_ir;

    /// Strided kernels whose strides arrive interprocedurally — the
    /// Shen–Li–Yew shape.
    const STRIDED: &str = "
global width
proc setup()
  width = 10
end
proc row(v(), stride, base)
  do i = 1, 10
    v(base + stride * i) = i
  end
end
proc grid(v())
  do i = 1, 9
    do j = 1, 9
      x = v(width * i + j)
    end
  end
end
main
  integer m(200)
  call setup()
  call row(m, 2, 100)
  call row(m, 2, 100)
  call grid(m)
end
";

    #[test]
    fn interprocedural_constants_linearize_subscripts() {
        let program = compile_to_ir(STRIDED).unwrap();
        let baseline = subscript_counts(&program, &AnalysisConfig::intraprocedural_baseline());
        let full = subscript_counts(&program, &AnalysisConfig::default());
        // Three subscripts total: row's store, grid's load, main has none.
        assert_eq!(baseline.total(), 2);
        assert_eq!(full.total(), 2);
        // Baseline: both strides unknown → nonlinear.
        assert_eq!(baseline.nonlinear, 2, "{baseline:?}");
        // With interprocedural constants: stride = 2, width = 10 → linear.
        assert_eq!(full.nonlinear, 0, "{full:?}");
        assert_eq!(full.linear, 2, "{full:?}");
    }

    #[test]
    fn return_jump_functions_matter_for_grid() {
        let program = compile_to_ir(STRIDED).unwrap();
        let no_rjf = subscript_counts(
            &program,
            &AnalysisConfig {
                return_jump_functions: false,
                ..AnalysisConfig::default()
            },
        );
        // Without return JFs, width stays unknown → grid's load nonlinear;
        // row's stride is a direct literal, still linear.
        assert_eq!(no_rjf.linear, 1, "{no_rjf:?}");
        assert_eq!(no_rjf.nonlinear, 1, "{no_rjf:?}");
    }
}
