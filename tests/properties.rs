//! Property-based tests over randomly generated Minifor programs.
//!
//! The generator below produces arbitrary well-typed programs (globals,
//! two subroutines, one function, and a main, with nested control flow,
//! arrays, reads, and cross-procedure calls) whose loops always have
//! small literal bounds, so every program terminates quickly. On these
//! programs we check the repository's deepest invariants:
//!
//! 1. the AST interpreter and the IR evaluator agree exactly;
//! 2. SSA construction always verifies (under both kill oracles);
//! 3. substituting the analyzer's constants into the IR — at any
//!    configuration — never changes program behaviour;
//! 4. the `CONSTANTS` sets grow monotonically with jump-function
//!    precision;
//! 5. the analysis is deterministic.

use ipcp::core::{analyze, AnalysisConfig, JumpFunctionKind};
use ipcp::lang::interp::{self as ast_interp, InterpConfig};
use proptest::prelude::*;

// ---- random program generation -----------------------------------------

/// Scalar integer variables usable inside a procedure body.
const VARS: [&str; 4] = ["va", "vb", "vc", "vd"];
/// Global integer scalars.
const GLOBALS: [&str; 2] = ["ga", "gb"];

fn literal() -> impl Strategy<Value = String> {
    (-20i64..21).prop_map(|v| {
        if v < 0 {
            format!("(0 - {})", -v)
        } else {
            v.to_string()
        }
    })
}

fn var_name() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::sample::select(VARS.to_vec()).prop_map(str::to_string),
        proptest::sample::select(GLOBALS.to_vec()).prop_map(str::to_string),
    ]
}

fn expr(depth: u32, params: &'static [&'static str]) -> BoxedStrategy<String> {
    let leaf = if params.is_empty() {
        prop_oneof![
            literal(),
            var_name(),
            // Bounded array read: index forced into 1..=7 (length 8).
            var_name().prop_map(|v| format!("arr({v} % 4 + 4)")),
        ]
        .boxed()
    } else {
        prop_oneof![
            literal(),
            var_name(),
            proptest::sample::select(params.to_vec()).prop_map(str::to_string),
            var_name().prop_map(|v| format!("arr({v} % 4 + 4)")),
        ]
        .boxed()
    };
    leaf.prop_recursive(depth, 16, 2, |inner| {
        (
            inner.clone(),
            inner,
            proptest::sample::select(vec!["+", "-", "*", "/", "%", "==", "<", ">="]),
        )
            .prop_map(|(a, b, op)| format!("({a} {op} {b})"))
    })
    .boxed()
}

fn stmt(depth: u32, params: &'static [&'static str], calls: bool) -> BoxedStrategy<String> {
    let assign = (var_name(), expr(2, params)).prop_map(|(v, e)| format!("{v} = {e}\n"));
    let store =
        (var_name(), expr(1, params)).prop_map(|(v, e)| format!("arr({v} % 4 + 4) = {e}\n"));
    let print = expr(2, params).prop_map(|e| format!("print({e})\n"));
    let read = var_name().prop_map(|v| format!("read({v})\n"));
    // Real-typed traffic exercises the promotion/conversion paths; real
    // values never propagate, so these are analysis-neutral.
    let real_stmt = (expr(1, params), prop::bool::ANY).prop_map(|(e, show)| {
        if show {
            format!("rv = {e} * 0.5\nprint(rv)\n")
        } else {
            format!("rv = rv + {e}\n")
        }
    });
    let base = if params.is_empty() {
        prop_oneof![3 => assign, 2 => print, 1 => store, 1 => read, 1 => real_stmt].boxed()
    } else {
        let param_assign = (proptest::sample::select(params.to_vec()), expr(2, params))
            .prop_map(|(v, e)| format!("{v} = {e}\n"));
        prop_oneof![3 => assign, 2 => param_assign, 2 => print, 1 => store, 1 => read, 1 => real_stmt]
            .boxed()
    };
    if depth == 0 {
        return base;
    }
    let block =
        proptest::collection::vec(stmt(depth - 1, params, calls), 0..3).prop_map(|v| v.concat());
    let if_stmt = (expr(1, params), block.clone(), block.clone())
        .prop_map(|(c, t, e)| format!("if {c} then\n{t}else\n{e}end\n"));
    // Each nesting level gets its own loop variable: reusing one across
    // nested loops can produce a non-terminating reset cycle under the
    // language's while-style `do` semantics.
    let do_stmt = (1i64..4, 1i64..6, block.clone())
        .prop_map(move |(lo, hi, b)| format!("do d{depth} = {lo}, {hi}\n{b}end\n"));
    // Bounded `while`: a dedicated counter (per nesting level, never
    // touched by the generated body, which only uses VARS/GLOBALS/params)
    // guarantees termination.
    let while_stmt = (1i64..6, block.clone()).prop_map(move |(n, b)| {
        format!("w{depth} = {n}\nwhile w{depth} > 0 do\nw{depth} = w{depth} - 1\n{b}end\n")
    });
    let call_p0 = expr(1, params).prop_map(|e| format!("call p0({e})\n"));
    let call_fn = (var_name(), expr(1, params)).prop_map(|(v, e)| format!("{v} = f0({e})\n"));
    if calls {
        prop_oneof![4 => base, 2 => if_stmt, 2 => do_stmt, 1 => while_stmt, 1 => call_p0, 1 => call_fn]
            .boxed()
    } else {
        prop_oneof![4 => base, 2 => if_stmt, 2 => do_stmt, 1 => while_stmt].boxed()
    }
}

fn body(params: &'static [&'static str], calls: bool) -> impl Strategy<Value = String> {
    proptest::collection::vec(stmt(2, params, calls), 0..6).prop_map(|v| v.concat())
}

prop_compose! {
    fn program()(
        ga in -9i64..10,
        p0_body in body(&["px"], false),
        f0_body in body(&["fx"], false),
        p1_body in body(&["qx", "qy"], true),
        main_body in body(&[], true),
        ret in expr(1, &["fx"]),
    ) -> String {
        format!(
            "global ga = {ga}\nglobal gb\n\
             proc p0(px)\n  integer arr(8)\n  real rv\n{p0_body}end\n\
             func f0(fx)\n  integer arr(8)\n  real rv\n{f0_body}  return {ret}\nend\n\
             proc p1(qx, qy)\n  integer arr(8)\n  real rv\n{p1_body}end\n\
             main\n  integer arr(8)\n  real rv\n{main_body}  call p1(3, va)\nend\n"
        )
    }
}

/// Plenty of input for `read` (bounded loops keep the count finite).
fn test_input() -> Vec<i64> {
    (0..512).map(|i| (i * 7 + 3) % 23 - 11).collect()
}

fn interp_config() -> InterpConfig {
    InterpConfig {
        input: test_input(),
        max_steps: 2_000_000,
        ..InterpConfig::default()
    }
}

// ---- properties ----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn ast_and_ir_semantics_agree(src in program()) {
        let checked = ipcp::lang::compile(&src).expect("generated programs compile");
        let ir = ipcp::ir::lower::lower(&checked);
        ipcp::ir::validate::validate(&ir).expect("lowered IR validates");
        let cfg = interp_config();
        let ast_out = ast_interp::run(&checked, &cfg).map(|o| o.output);
        let ir_out = ipcp::ir::eval::run(&ir, &cfg).map(|o| o.output);
        prop_assert_eq!(ast_out, ir_out);
    }

    #[test]
    fn ssa_always_verifies(src in program()) {
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        for pid in ir.proc_ids() {
            let proc = ir.proc(pid);
            for oracle in [
                &ipcp::ssa::WorstCaseKills as &dyn ipcp::ssa::KillOracle,
                &ipcp::ssa::NoKills,
            ] {
                let ssa = ipcp::ssa::build_ssa(&ir, proc, oracle);
                if let Err(errs) = ipcp::ssa::verify::verify(proc, &ssa) {
                    prop_assert!(false, "SSA invalid for {}: {errs:?}", proc.name);
                }
            }
        }
    }

    #[test]
    fn substitution_preserves_behaviour(src in program()) {
        use ipcp::analysis::{augment_global_vars, compute_modref, CallGraph, ModKills};
        use ipcp::core::{apply_substitutions, build_return_jfs, solver, RjfConstEval, RjfLattice};

        let mut ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        let cfg = interp_config();
        let before = ipcp::ir::eval::run(&ir, &cfg);

        let cg = CallGraph::new(&ir);
        let modref = compute_modref(&ir, &cg);
        augment_global_vars(&mut ir, &modref);
        let cg = CallGraph::new(&ir);
        let kills = ModKills::new(&ir, &modref);
        let rjfs = build_return_jfs(&ir, &cg, &kills);
        let eval_rjfs = RjfConstEval { rjfs: &rjfs };
        let jfs = ipcp::core::build_forward_jfs(
            &ir, &cg, &modref, JumpFunctionKind::Polynomial, &kills, &eval_rjfs,
        );
        let vals = solver::solve(&ir, &cg, &modref, &jfs);
        let lattice = RjfLattice { rjfs: &rjfs };

        let mut transformed = ir.clone();
        apply_substitutions(&mut transformed, &kills, &lattice, Some(&vals));
        ipcp::ir::validate::validate(&transformed).expect("valid after substitution");
        let after = ipcp::ir::eval::run(&transformed, &cfg);

        match (&before, &after) {
            (Ok(b), Ok(a)) => prop_assert_eq!(&b.output, &a.output),
            // Runtime errors (division by zero, bounds) must be identical.
            (Err(b), Err(a)) => prop_assert_eq!(b, a),
            _ => prop_assert!(false, "one run failed, the other did not: {before:?} vs {after:?}"),
        }
    }

    #[test]
    fn constants_grow_with_jump_function_precision(src in program()) {
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        let mut prev: Option<Vec<std::collections::BTreeMap<ipcp::core::Slot, i64>>> = None;
        for kind in JumpFunctionKind::ALL {
            let out = analyze(&ir, &AnalysisConfig { jump_function: kind, ..Default::default() });
            if let Some(prev_consts) = &prev {
                for (weaker, stronger) in prev_consts.iter().zip(out.constants.iter()) {
                    for (slot, value) in weaker {
                        prop_assert_eq!(
                            stronger.get(slot),
                            Some(value),
                            "{:?} lost by more precise kind {}",
                            slot,
                            kind
                        );
                    }
                }
            }
            prev = Some(out.constants);
        }
    }

    #[test]
    fn gsa_extension_is_sound_and_no_weaker(src in program()) {
        // Gated jump functions must (a) find at least the default
        // configuration's constants and (b) stay semantically sound when
        // substituted.
        use ipcp::analysis::{augment_global_vars, compute_modref, CallGraph, ModKills};
        use ipcp::core::{apply_substitutions, solver, RjfLattice};
        use ipcp::analysis::symeval::SymEvalOptions;

        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        let plain = analyze(&ir, &AnalysisConfig::default());
        let gsa_cfg = AnalysisConfig { gsa: true, ..AnalysisConfig::default() };
        let gsa = analyze(&ir, &gsa_cfg);
        for (weaker, stronger) in plain.constants.iter().zip(gsa.constants.iter()) {
            for (slot, value) in weaker {
                prop_assert_eq!(stronger.get(slot), Some(value), "gsa lost {:?}", slot);
            }
        }

        // Soundness via substitution equivalence under gsa.
        let mut prog = ir.clone();
        let cfg = interp_config();
        let before = ipcp::ir::eval::run(&prog, &cfg);
        let cg = CallGraph::new(&prog);
        let modref = compute_modref(&prog, &cg);
        augment_global_vars(&mut prog, &modref);
        let cg = CallGraph::new(&prog);
        let kills = ModKills::new(&prog, &modref);
        let options = SymEvalOptions { gated_phis: true };
        let rjfs = ipcp::core::retjf::build_return_jfs_with(&prog, &cg, &kills, options);
        let eval_rjfs = ipcp::core::RjfConstEval { rjfs: &rjfs };
        let jfs = ipcp::core::forward::build_forward_jfs_with(
            &prog, &cg, &modref, JumpFunctionKind::Polynomial, &kills, &eval_rjfs, options,
        );
        let vals = solver::solve(&prog, &cg, &modref, &jfs);
        let lattice = RjfLattice { rjfs: &rjfs };
        let mut transformed = prog.clone();
        apply_substitutions(&mut transformed, &kills, &lattice, Some(&vals));
        ipcp::ir::validate::validate(&transformed).expect("valid");
        let after = ipcp::ir::eval::run(&transformed, &cfg);
        match (&before, &after) {
            (Ok(b), Ok(a)) => prop_assert_eq!(&b.output, &a.output),
            (Err(b), Err(a)) => prop_assert_eq!(b, a),
            _ => prop_assert!(false, "divergence: {before:?} vs {after:?}"),
        }
    }

    #[test]
    fn optimize_preserves_behaviour(src in program()) {
        use ipcp::core::{optimize, OptimizeConfig};
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        let cfg = interp_config();
        let before = ipcp::ir::eval::run(&ir, &cfg);
        for (clone_procedures, gsa) in [(false, false), (true, false), (false, true)] {
            let config = OptimizeConfig {
                clone_procedures,
                analysis: AnalysisConfig { gsa, ..AnalysisConfig::default() },
                ..OptimizeConfig::default()
            };
            let (optimized, _) = optimize(&ir, &config);
            ipcp::ir::validate::validate(&optimized).expect("valid");
            let after = ipcp::ir::eval::run(&optimized, &cfg);
            match (&before, &after) {
                (Ok(b), Ok(a)) => prop_assert_eq!(&b.output, &a.output),
                (Err(b), Err(a)) => prop_assert_eq!(b, a),
                _ => prop_assert!(
                    false,
                    "optimize diverged (clone={clone_procedures}, gsa={gsa}): {before:?} vs {after:?}"
                ),
            }
        }
    }

    #[test]
    fn analysis_deterministic(src in program()) {
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        let a = analyze(&ir, &AnalysisConfig::default());
        let b = analyze(&ir, &AnalysisConfig::default());
        prop_assert_eq!(a.constants, b.constants);
        prop_assert_eq!(a.substitutions, b.substitutions);
    }
}

// ---- resource-governance properties ---------------------------------------

/// Asserts a degraded outcome is sound against the full-fuel outcome:
/// where the degraded run claims a constant, the full run must have
/// found the *same* constant. (The converse — the full run knowing more
/// — is exactly what degradation is allowed to lose.)
fn assert_degraded_soundness(
    full: &ipcp::core::AnalysisOutcome,
    degraded: &ipcp::core::AnalysisOutcome,
) {
    for (p, (full_consts, degraded_consts)) in full
        .constants
        .iter()
        .zip(degraded.constants.iter())
        .enumerate()
    {
        for (slot, value) in degraded_consts {
            assert_eq!(
                full_consts.get(slot),
                Some(value),
                "degraded run invented {slot:?} = {value} in proc {p}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The whole pipeline terminates without panicking at any fuel level,
    /// and every constant a starved run still claims agrees with the
    /// unlimited run.
    #[test]
    fn fuel_limited_analysis_never_panics_and_stays_sound(
        src in program(),
        fuel in 0u64..4000,
    ) {
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        let full = analyze(&ir, &AnalysisConfig::default());
        let starved = analyze(&ir, &AnalysisConfig { fuel: Some(fuel), ..Default::default() });
        assert_degraded_soundness(&full, &starved);
        let report = &starved.robustness;
        prop_assert!(report.exhausted || report.total_degradations() == 0);
        if let Some(limit) = report.fuel_limit {
            prop_assert!(report.fuel_consumed <= limit);
        }
    }

    /// Deterministic fault injection: failing the budget at exactly the
    /// Nth checkpoint — for every configuration corner — still produces a
    /// sound outcome. 48 cases × 4 configs ≥ the issue's 100-pair floor.
    #[test]
    fn fault_injection_at_any_checkpoint_is_sound(
        src in program(),
        allowed in 0u64..600,
    ) {
        use ipcp::core::{analyze_with_budget, Budget, FaultInjector, SolverKind};
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        for config in [
            AnalysisConfig::default(),
            AnalysisConfig { solver: SolverKind::BindingGraph, ..Default::default() },
            AnalysisConfig { complete_propagation: true, ..Default::default() },
            AnalysisConfig { gsa: true, rjf_full_composition: true, ..Default::default() },
        ] {
            let full = analyze(&ir, &config);
            let budget = Budget::from_source(FaultInjector::new(allowed));
            let injected = analyze_with_budget(&ir, &config, &budget);
            assert_degraded_soundness(&full, &injected);
        }
    }
}

#[test]
fn deep_call_chain_completes_under_tiny_fuel() {
    let depth = 60;
    let mut src = format!("proc p{depth}(v)\nprint(v)\nend\n");
    for i in (1..depth).rev() {
        src.push_str(&format!("proc p{i}(v)\ncall p{}(v + 1)\nend\n", i + 1));
    }
    src.push_str("main\ncall p1(0)\nend\n");
    let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
    let full = analyze(&ir, &AnalysisConfig::default());
    assert!(full.constant_slot_count() >= depth as usize);
    for fuel in [0, 1, 7, 50, 500] {
        let out = analyze(
            &ir,
            &AnalysisConfig {
                fuel: Some(fuel),
                ..Default::default()
            },
        );
        for (full_consts, degraded) in full.constants.iter().zip(out.constants.iter()) {
            for (slot, value) in degraded {
                assert_eq!(full_consts.get(slot), Some(value), "fuel {fuel}");
            }
        }
        assert!(
            out.robustness.exhausted,
            "fuel {fuel} should starve the chain"
        );
    }
}

#[test]
fn mutual_recursion_completes_under_tiny_fuel() {
    let src = "\
proc even(n)\nif n > 0 then\ncall odd(n - 1)\nend\nend\n\
proc odd(n)\nif n > 0 then\ncall even(n - 1)\nend\nend\n\
main\ncall even(8)\nend\n";
    let ir = ipcp::ir::compile_to_ir(src).expect("compiles");
    for fuel in 0..40u64 {
        let out = analyze(
            &ir,
            &AnalysisConfig {
                fuel: Some(fuel),
                ..Default::default()
            },
        );
        // No panic, no divergence; a starved run records why it is coarse.
        if out.robustness.exhausted {
            assert!(out.robustness.total_degradations() > 0, "fuel {fuel}");
        }
    }
}

// ---- analysis-session properties -------------------------------------------

/// A random point in the full configuration space, including fuel-limited
/// corners (which the session runs store-less).
fn arb_config() -> impl Strategy<Value = AnalysisConfig> {
    use ipcp::core::{ExhaustionPolicy, SolverKind};
    (
        proptest::sample::select(JumpFunctionKind::ALL.to_vec()),
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
        (
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        proptest::sample::select(vec![SolverKind::CallGraph, SolverKind::BindingGraph]),
        (
            proptest::sample::select(vec![None, Some(0u64), Some(50), Some(5000)]),
            proptest::sample::select(vec![0usize, 1, 2, 8]),
        ),
    )
        .prop_map(
            |(
                jump_function,
                rjf,
                mod_info,
                complete,
                interprocedural,
                (compose, gsa, branch_feasibility),
                solver,
                (fuel, jobs),
            )| {
                AnalysisConfig {
                    jump_function,
                    return_jump_functions: rjf,
                    mod_info,
                    complete_propagation: complete,
                    interprocedural,
                    rjf_full_composition: compose,
                    solver,
                    gsa,
                    branch_feasibility,
                    jobs,
                    fuel,
                    on_exhausted: ExhaustionPolicy::Degrade,
                }
            },
        )
}

/// The store-less run of `config`: metered, so it recomputes every
/// artifact every round on the run's own budget. An unmetered `config`
/// runs at an ample `fuel: Some(1 << 40)`, and the report's fuel limit
/// is put back, so the outcome compares field by field with the
/// memoized run of the same configuration.
fn store_less(ir: &ipcp::ir::Program, config: &AnalysisConfig) -> ipcp::core::AnalysisOutcome {
    let fuel = Some(config.fuel.unwrap_or(1 << 40));
    let mut outcome = analyze(ir, &AnalysisConfig { fuel, ..*config });
    outcome.robustness.fuel_limit = config.fuel;
    outcome
}

/// Field-by-field outcome equality (the outcome struct itself is not
/// `PartialEq`).
fn assert_outcomes_identical(
    got: &ipcp::core::AnalysisOutcome,
    want: &ipcp::core::AnalysisOutcome,
    what: &str,
) {
    assert_eq!(got.program, want.program, "{what}: program");
    assert_eq!(got.constants, want.constants, "{what}: constants");
    assert_eq!(
        got.substitutions, want.substitutions,
        "{what}: substitutions"
    );
    assert_eq!(got.stats, want.stats, "{what}: stats");
    assert_eq!(got.robustness, want.robustness, "{what}: robustness");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// One shared session, an arbitrary sweep of configurations: every
    /// outcome — program, CONSTANTS, substitution counts, cost stats, and
    /// the robustness report — is identical to the store-less run of the
    /// same configuration in a fresh session.
    #[test]
    fn session_sweep_equivalent_to_reference(
        src in program(),
        configs in proptest::collection::vec(arb_config(), 1..5),
    ) {
        use ipcp::core::AnalysisSession;
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        let session = AnalysisSession::new(&ir);
        for (i, config) in configs.iter().enumerate() {
            let got = session.analyze(config);
            let want = store_less(&ir, config);
            assert_outcomes_identical(&got, &want, &format!("config #{i}: {config:?}"));
        }
    }

    /// Ample fuel changes nothing but the report's fuel limit: a metered
    /// run whose tank never runs dry equals the unmetered run of the
    /// same configuration, at any thread count.
    #[test]
    fn ample_fuel_matches_unmetered(
        src in program(),
        config in arb_config(),
    ) {
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        for jobs in [1usize, 2, 8] {
            let config = AnalysisConfig { jobs, fuel: None, ..config };
            let what = format!("ample vs unmetered: {config:?}");
            assert_outcomes_identical(&store_less(&ir, &config), &analyze(&ir, &config), &what);
        }
    }

    /// Incremental complete propagation (invalidate only fingerprints
    /// that moved) reaches exactly the fixpoint of the store-less restart
    /// loop — and replaying the converged analysis is pure cache traffic.
    #[test]
    fn incremental_complete_propagation_matches_restart_loop(
        src in program(),
        kind in proptest::sample::select(JumpFunctionKind::ALL.to_vec()),
        gsa in proptest::bool::ANY,
    ) {
        use ipcp::core::AnalysisSession;
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        let config = AnalysisConfig {
            jump_function: kind,
            complete_propagation: true,
            gsa,
            ..AnalysisConfig::default()
        };
        let session = AnalysisSession::new(&ir);
        let got = session.analyze(&config);
        let want = store_less(&ir, &config);
        assert_outcomes_identical(&got, &want, "complete propagation");

        // The converged state is fully memoized: re-analyzing computes
        // nothing new, whatever the DCE round count was.
        let misses = session.stats().total_misses();
        let again = session.analyze(&config);
        assert_outcomes_identical(&again, &want, "replay");
        prop_assert_eq!(session.stats().total_misses(), misses, "replay computed artifacts");
    }

    /// Determinism under parallelism: for any program and configuration,
    /// running the analysis at 1, 2, and 8 worker threads yields
    /// byte-identical outcomes — same transformed program, same CONSTANTS
    /// sets, same substitution counts, same cost stats, same robustness
    /// report.
    #[test]
    fn thread_count_never_changes_the_outcome(
        src in program(),
        config in arb_config(),
    ) {
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        let want = analyze(&ir, &AnalysisConfig { jobs: 1, ..config });
        for jobs in [2usize, 8] {
            let got = analyze(&ir, &AnalysisConfig { jobs, ..config });
            assert_outcomes_identical(&got, &want, &format!("jobs={jobs} vs 1: {config:?}"));
        }
    }

    /// Observability is free: running the analysis with a recording
    /// trace sink attached produces an outcome — program, CONSTANTS,
    /// substitution counts, cost stats, robustness report — identical
    /// to the untraced run, at 1 and 4 workers and under fuel metering.
    #[test]
    fn tracing_never_changes_the_outcome(
        src in program(),
        config in arb_config(),
    ) {
        use ipcp::core::obs::TraceSink;
        use ipcp::core::AnalysisSession;
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        for jobs in [1usize, 4] {
            for fuel in [None, Some(200u64), Some(100_000)] {
                let config = AnalysisConfig { jobs, fuel, ..config };
                let plain = AnalysisSession::new(&ir)
                    .analyze_checked(&config)
                    .expect("Degrade policy never errors");
                let sink = TraceSink::new();
                let traced = AnalysisSession::new(&ir)
                    .analyze_checked_obs(&config, &sink)
                    .expect("Degrade policy never errors");
                assert_outcomes_identical(
                    &traced,
                    &plain,
                    &format!("traced vs plain: {config:?}"),
                );
                prop_assert_eq!(
                    &traced.robustness, &plain.robustness,
                    "robustness report drifted under tracing: {:?}", config
                );
            }
        }
    }

    /// The full observability stack — trace sink, latency histograms,
    /// and the disk cache's audit ledger — never changes the outcome:
    /// cold and warm cached+traced runs match the plain run byte for
    /// byte, and the warm run's audit reports nothing recomputed.
    #[test]
    fn cache_and_tracing_together_never_change_the_outcome(
        src in program(),
        config in arb_config(),
    ) {
        use ipcp::core::obs::TraceSink;
        use ipcp::core::{AnalysisSession, DiskCache};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let ir = ipcp::ir::compile_to_ir(&src).expect("compiles");
        let config = AnalysisConfig { fuel: None, ..config };
        let plain = AnalysisSession::new(&ir)
            .analyze_checked(&config)
            .expect("Degrade policy never errors");
        let dir = std::env::temp_dir().join(format!(
            "ipcp-prop-obs-cache-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for pass in ["cold", "warm"] {
            let mut session = AnalysisSession::new(&ir);
            session.attach_disk_cache(Arc::new(DiskCache::open(&dir).expect("cache opens")));
            session.set_audit_label("prop.mf");
            let session = session;
            let sink = TraceSink::new();
            let got = session
                .analyze_checked_obs(&config, &sink)
                .expect("Degrade policy never errors");
            assert_outcomes_identical(
                &got,
                &plain,
                &format!("{pass} cached+traced vs plain: {config:?}"),
            );
            let audit = session.last_audit().expect("unmetered run always audits");
            if pass == "warm" {
                prop_assert_eq!(
                    audit.total_recomputed(), 0,
                    "warm cached run recomputed artifacts: {:?}", config
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- front-end round-trip property ---------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn pretty_print_round_trips(src in program()) {
        let ast = ipcp::lang::parser::parse(&src).expect("parses");
        let printed = ipcp::lang::pretty::program_to_string(&ast);
        let reparsed = ipcp::lang::parser::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed:\n{}\n{printed}", e.render(&printed)));
        prop_assert_eq!(ipcp::lang::pretty::program_to_string(&reparsed), printed);
    }
}

// ---- single-procedure edits ------------------------------------------------

/// A single-procedure edit of a fuzz program: the `which`-th procedure
/// (main included, in source order) gets `print(k)` (`kind` 0); its
/// result becomes `k` (1; for a function, else its first integer literal
/// becomes `k`); or — when the program has globals — it assigns `k` to
/// the first one (2). A print leaves the procedure's summary unchanged;
/// a new result moves its return jump function; the assignment moves MOD.
fn edit_one_proc(source: &str, which: usize, kind: u8, k: u32) -> String {
    let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
    let mut spans = Vec::new();
    let mut open = None;
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with("proc ") || line.starts_with("func ") || line == "main" {
            open = Some(i);
        } else if line == "end" {
            spans.extend(open.take().map(|h| (h, i)));
        }
    }
    // A new result goes to a function when there is one: callers read
    // it through its return jump function.
    let funcs: Vec<(usize, usize)> = spans
        .iter()
        .copied()
        .filter(|&(h, _)| lines[h].starts_with("func "))
        .collect();
    let pool = if kind == 1 && !funcs.is_empty() {
        &funcs
    } else {
        &spans
    };
    let (header, end) = pool[which % pool.len()];
    // Statements go first in a procedure, last in `main` (after its
    // declarations).
    let at = if lines[header] == "main" {
        end
    } else {
        header + 1
    };
    let global = lines
        .iter()
        .find_map(|l| l.strip_prefix("global "))
        .and_then(|g| g.split_whitespace().next())
        .map(str::to_string);
    let literal = (header + 1..end).find_map(|i| {
        let bytes = lines[i].as_bytes();
        let start = (0..bytes.len()).find(|&j| {
            bytes[j].is_ascii_digit()
                && (j == 0 || !(bytes[j - 1].is_ascii_alphanumeric() || bytes[j - 1] == b'_'))
        })?;
        let len = bytes[start..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        Some((i, start, start + len))
    });
    let ret = (header + 1..end).find(|&i| lines[i].starts_with("  return "));
    match (kind, literal, global) {
        (1, _, _) if ret.is_some() => lines[ret.unwrap()] = format!("  return {k}"),
        (1, Some((i, from, to)), _) => lines[i].replace_range(from..to, &k.to_string()),
        (2, _, Some(g)) => lines.insert(at, format!("  {g} = {k}")),
        _ => lines.insert(at, format!("  print({k})")),
    }
    lines.join("\n") + "\n"
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A single-procedure edit of a fuzz program answers alike, byte for
    /// byte, three ways: through a session reused across the edit (its
    /// store warm with the unedited program's artifacts), through a
    /// fresh session backed by the summary pack the unedited program's
    /// cold run left, and store-less — at 1, 2 and 8 jobs, at every
    /// fuzzing level, conditional propagation included. Early cutoff may
    /// reuse a caller's artifacts only when that is sound.
    #[test]
    fn single_procedure_edits_answer_alike_reused_pack_backed_and_store_less(
        seed in 0u64..100_000,
        which in 0usize..8,
        kind in 0u8..3,
        k in 0u32..20,
        level in proptest::sample::select(ipcp::suite::fuzz::FuzzLevel::ALL.to_vec()),
    ) {
        use ipcp::core::{AnalysisSession, DiskCache};
        use ipcp::ir::codec::encode_to_vec;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let source = ipcp::suite::fuzz::random_case(seed).source;
        let edited = edit_one_proc(&source, which, kind, k);
        let (Ok(before), Ok(after)) = (
            ipcp::ir::compile_to_ir(&source),
            ipcp::ir::compile_to_ir(&edited),
        ) else {
            return;
        };
        for jobs in [1usize, 2, 8] {
            let config = AnalysisConfig { jobs, ..level.config() };
            let want = store_less(&after, &config);
            let what = format!("{} jobs={jobs}:\n{edited}", level.name());

            let mut reused = AnalysisSession::new(&before);
            reused.analyze(&config);
            reused.set_program(&after);
            assert_outcomes_identical(&reused.analyze(&config), &want, &format!("reused, {what}"));

            let dir = std::env::temp_dir().join(format!(
                "ipcp-prop-edit-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut outcomes = Vec::new();
            for program in [&before, &after] {
                let mut session = AnalysisSession::new(program);
                session.attach_disk_cache(Arc::new(DiskCache::open(&dir).expect("cache opens")));
                session.set_audit_label("edit.mf");
                outcomes.push(session.analyze(&config));
            }
            let _ = std::fs::remove_dir_all(&dir);
            let packed = outcomes.pop().expect("two runs");
            assert_outcomes_identical(&packed, &want, &format!("pack-backed, {what}"));
            prop_assert_eq!(encode_to_vec(&packed), encode_to_vec(&want));
        }
    }
}
