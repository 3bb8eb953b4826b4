//! Differential and metamorphic fuzzing oracles for semantic
//! preservation of the optimize pipeline.
//!
//! The paper's payoff — textual substitution of proven constants — is
//! only meaningful if substitution + DCE preserve program semantics at
//! every jump-function level. This module generates seeded random
//! Minifor programs biased toward the arithmetic corners where constant
//! propagation classically goes wrong (`i64::MIN`, division edges,
//! negative modulo, by-reference parameters, globals, recursion) and
//! checks two oracles over each one:
//!
//! 1. **Differential**: interpret the program before and after the full
//!    `ipcp_core::optimize` pipeline at each forward jump-function
//!    level; the observable output must be byte-identical, or both runs
//!    must stop with the identical trap.
//! 2. **Metamorphic (precision monotonicity)**: raising the
//!    jump-function level along the paper's ladder (Literal ⊆ Intra ⊆
//!    Pass ⊆ Poly) must never lose a proven constant and never change
//!    program output. Conditional propagation (`cond`, layered on
//!    Poly) is held to a per-procedure variant of the same rule: it may
//!    prove every incoming edge of a procedure infeasible — dropping
//!    *all* of that procedure's constants at once — but any procedure
//!    where it keeps a constant must preserve every Poly constant with
//!    an identical value.
//!
//! Failing programs are reduced by a greedy line-removal shrinker and
//! written to a corpus directory as self-describing `.mf` repros that
//! `tests/fuzz_corpus.rs` replays on every `cargo test`.

use ipcp_analysis::par_map;
use ipcp_core::{optimize, AnalysisConfig, AnalysisSession, JumpFunctionKind, OptimizeConfig};
use ipcp_ir::Program;
use ipcp_lang::interp::{InterpConfig, InterpError, Value};
use ipcp_obs::ObsSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One generated fuzz input: a Minifor program plus its `read` feed.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The per-iteration seed the case was derived from.
    pub seed: u64,
    /// Minifor source text.
    pub source: String,
    /// Values consumed by `read` (deliberately short sometimes, to
    /// exercise the input-exhausted trap).
    pub input: Vec<i64>,
}

/// One precision level of the fuzzing ladder: the paper's four forward
/// jump-function kinds plus conditional propagation (`cond`), which
/// layers interprocedural branch feasibility on polynomial jump
/// functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzLevel {
    /// A plain forward jump-function level.
    Forward(JumpFunctionKind),
    /// Conditional constant propagation (`--level cond`).
    Conditional,
}

impl FuzzLevel {
    /// The four forward levels in increasing precision order — the
    /// default campaign ladder.
    pub const FORWARD: [FuzzLevel; 4] = [
        FuzzLevel::Forward(JumpFunctionKind::Literal),
        FuzzLevel::Forward(JumpFunctionKind::IntraproceduralConstant),
        FuzzLevel::Forward(JumpFunctionKind::PassThrough),
        FuzzLevel::Forward(JumpFunctionKind::Polynomial),
    ];

    /// Every level, conditional propagation included.
    pub const ALL: [FuzzLevel; 5] = [
        FuzzLevel::Forward(JumpFunctionKind::Literal),
        FuzzLevel::Forward(JumpFunctionKind::IntraproceduralConstant),
        FuzzLevel::Forward(JumpFunctionKind::PassThrough),
        FuzzLevel::Forward(JumpFunctionKind::Polynomial),
        FuzzLevel::Conditional,
    ];

    /// The stable name used in reports, repro headers, and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            FuzzLevel::Forward(JumpFunctionKind::Literal) => "literal",
            FuzzLevel::Forward(JumpFunctionKind::IntraproceduralConstant) => "intra",
            FuzzLevel::Forward(JumpFunctionKind::PassThrough) => "pass",
            FuzzLevel::Forward(JumpFunctionKind::Polynomial) => "poly",
            FuzzLevel::Conditional => "cond",
        }
    }

    /// The analysis configuration this level runs under.
    pub fn config(self) -> AnalysisConfig {
        match self {
            FuzzLevel::Forward(kind) => AnalysisConfig {
                jump_function: kind,
                ..AnalysisConfig::default()
            },
            FuzzLevel::Conditional => AnalysisConfig::conditional(),
        }
    }
}

/// Fuzzing campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of programs to generate and check.
    pub iters: u64,
    /// Campaign seed; per-iteration seeds are derived deterministically,
    /// so reports are independent of `jobs`.
    pub seed: u64,
    /// Worker threads for the iteration fan-out.
    pub jobs: usize,
    /// Precision levels to check, in increasing precision order.
    pub levels: Vec<FuzzLevel>,
    /// Where minimized repros are written (`None` disables writing).
    pub corpus_dir: Option<PathBuf>,
    /// Interpreter step budget per run.
    pub max_steps: u64,
    /// Maximum compile+run attempts the shrinker may spend per failure.
    pub shrink_budget: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 100,
            seed: 1993,
            jobs: 1,
            levels: FuzzLevel::FORWARD.to_vec(),
            corpus_dir: None,
            max_steps: 2_000_000,
            shrink_budget: 2_000,
        }
    }
}

/// A confirmed oracle violation, minimized.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Per-iteration seed that produced the program.
    pub seed: u64,
    /// Which oracle failed: `differential`, `monotonic-constants`.
    pub oracle: String,
    /// Jump-function level the failure was observed at.
    pub level: String,
    /// Human-readable mismatch description.
    pub detail: String,
    /// Minimized source that still exhibits the failure.
    pub source: String,
    /// Input feed of the failing run.
    pub input: Vec<i64>,
}

/// Campaign summary.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Programs generated and checked.
    pub iters: u64,
    /// Programs skipped as incomparable (baseline hit the step or depth
    /// limit, so "same behavior" is not decidable).
    pub skipped: u64,
    /// Confirmed violations, minimized.
    pub violations: Vec<Violation>,
    /// How often each baseline trap class was observed (`ok` counts
    /// trap-free runs).
    pub trap_classes: BTreeMap<String, u64>,
    /// Repro files written to the corpus directory.
    pub repro_paths: Vec<PathBuf>,
    /// Corpus repros replayed clean at the start of the campaign.
    pub corpus_replayed: u64,
    /// Corpus files skipped as unreadable or malformed (diagnosed on
    /// stderr; never aborts the campaign).
    pub corpus_skipped: u64,
    /// Repro files that could not be written (diagnosed on stderr).
    pub corpus_write_errors: u64,
}

impl FuzzReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        let traps: Vec<String> = self
            .trap_classes
            .iter()
            .map(|(k, v)| format!("{k}:{v}"))
            .collect();
        let mut out = format!(
            "fuzz: {} programs, {} skipped, {} violations [{}]",
            self.iters,
            self.skipped,
            self.violations.len(),
            traps.join(" ")
        );
        if self.corpus_replayed + self.corpus_skipped > 0 {
            out.push_str(&format!(
                ", corpus: {} replayed, {} skipped",
                self.corpus_replayed, self.corpus_skipped
            ));
        }
        if self.corpus_write_errors > 0 {
            out.push_str(&format!(
                ", {} repro write errors",
                self.corpus_write_errors
            ));
        }
        out
    }
}

/// Outcome of checking one case against every oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckOutcome {
    /// All oracles passed; carries the baseline trap class (or `ok`).
    Pass(String),
    /// Baseline ran into the step/depth limit: incomparable, skipped.
    Skip,
    /// An oracle failed.
    Fail {
        /// Which oracle.
        oracle: String,
        /// At which level.
        level: String,
        /// What differed.
        detail: String,
    },
}

fn trap_class(e: &InterpError) -> &'static str {
    match e {
        InterpError::DivByZero => "div-by-zero",
        InterpError::ZeroStep => "zero-step",
        InterpError::OutOfBounds { .. } => "out-of-bounds",
        InterpError::InputExhausted => "input-exhausted",
        InterpError::StepLimit => "step-limit",
        InterpError::DepthLimit => "depth-limit",
    }
}

fn behavior(program: &Program, input: &[i64], max_steps: u64) -> Result<Vec<Value>, InterpError> {
    ipcp_ir::eval::run(
        program,
        &InterpConfig {
            input: input.to_vec(),
            max_steps,
            ..InterpConfig::default()
        },
    )
    .map(|o| o.output)
}

fn render_behavior(r: &Result<Vec<Value>, InterpError>) -> String {
    match r {
        Ok(vals) => {
            let rendered: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
            format!("ok [{}]", rendered.join(" "))
        }
        Err(e) => format!("trap {}", trap_class(e)),
    }
}

/// Runs both oracles over one case. Pure and deterministic: the same
/// `(source, input, levels)` always yields the same outcome.
pub fn check_case(
    source: &str,
    input: &[i64],
    levels: &[FuzzLevel],
    max_steps: u64,
) -> CheckOutcome {
    let program = match ipcp_ir::compile_to_ir(source) {
        Ok(p) => p,
        Err(e) => {
            // The generator only emits valid programs; a compile error here
            // is itself a bug worth a repro.
            return CheckOutcome::Fail {
                oracle: "generator".into(),
                level: "-".into(),
                detail: format!("generated program does not compile: {}", e.first().message),
            };
        }
    };
    let base = behavior(&program, input, max_steps);
    if matches!(base, Err(InterpError::StepLimit | InterpError::DepthLimit)) {
        return CheckOutcome::Skip;
    }

    // ---- differential oracle -------------------------------------------
    for &level in levels {
        let config = OptimizeConfig {
            analysis: level.config(),
            clone_procedures: false,
            max_rounds: 8,
        };
        let (optimized, _) = optimize(&program, &config);
        // The pipeline only removes work, so the doubled budget flags an
        // optimized program that suddenly needs *more* steps.
        let got = behavior(&optimized, input, max_steps.saturating_mul(2));
        if got != base {
            return CheckOutcome::Fail {
                oracle: "differential".into(),
                level: level.name().into(),
                detail: format!(
                    "before: {} / after: {}",
                    render_behavior(&base),
                    render_behavior(&got)
                ),
            };
        }
    }

    // ---- metamorphic precision oracle ----------------------------------
    // Walking up the ladder must never lose a proven constant (output
    // equality across levels is already transitively covered above).
    // One session serves every level, so the call graph, MOD/REF and SSA
    // are built once per program.
    let session = AnalysisSession::new(&program);
    let outcomes: Vec<_> = levels
        .iter()
        .map(|&level| session.analyze(&level.config()))
        .collect();
    for (w, pair) in outcomes.windows(2).enumerate() {
        let (lower, higher) = (&pair[0], &pair[1]);
        let (lo, hi) = (levels[w], levels[w + 1]);
        for (pid, consts) in lower.constants.iter().enumerate() {
            // Conditional propagation may prove every incoming edge of
            // a procedure infeasible, legitimately dropping ALL of that
            // procedure's constants at once (its context stays ⊤). A
            // procedure that keeps any constant kept feasible incoming
            // edges, and jump-function monotonicity then guarantees
            // every lower-level constant survives with an equal value.
            let higher_consts = higher.constants_of(ipcp_ir::ProcId::from_index(pid));
            if hi == FuzzLevel::Conditional && higher_consts.is_empty() && !consts.is_empty() {
                continue;
            }
            for (slot, v) in consts {
                match higher_consts.get(slot) {
                    Some(w) if w == v => {}
                    other => {
                        return CheckOutcome::Fail {
                            oracle: "monotonic-constants".into(),
                            level: lo.name().into(),
                            detail: format!(
                                "proc #{pid} slot {slot:?}: {v} at {} but {:?} at {}",
                                lo.name(),
                                other,
                                hi.name()
                            ),
                        };
                    }
                }
            }
        }
    }

    CheckOutcome::Pass(match &base {
        Ok(_) => "ok".into(),
        Err(e) => trap_class(e).into(),
    })
}

// ---------------------------------------------------------------------------
// Random program generation
// ---------------------------------------------------------------------------

/// Integer constants biased toward the arithmetic corners: `i64::MIN`,
/// its neighbourhood, `-1`, `0`, and small values that keep loops short.
const EDGE_CONSTANTS: [i64; 12] = [
    i64::MIN,
    i64::MIN + 1,
    i64::MAX,
    i64::MAX - 1,
    -9223372036854775807,
    -1,
    0,
    1,
    2,
    3,
    7,
    1009,
];

struct FuzzGen {
    rng: StdRng,
    globals: Vec<String>,
    /// Declarations emitted at the top of main (arrays).
    decls: String,
    main: String,
    /// Scalar variables currently assigned in main.
    vars: Vec<String>,
    /// Arrays declared in main, each of length 4.
    arrays: Vec<String>,
    input: Vec<i64>,
    next_id: usize,
    /// Callables: (name, arity, is_func).
    callables: Vec<(String, usize, bool)>,
}

impl FuzzGen {
    fn fresh(&mut self, prefix: &str) -> String {
        let id = self.next_id;
        self.next_id += 1;
        format!("{prefix}{id}")
    }

    fn constant(&mut self) -> i64 {
        if self.rng.gen_bool(0.5) {
            EDGE_CONSTANTS[self.rng.gen_range(0..EDGE_CONSTANTS.len())]
        } else {
            self.rng.gen_range(-20i64..50)
        }
    }

    /// A small constant, safe as a loop bound.
    fn small(&mut self) -> i64 {
        self.rng.gen_range(0i64..6)
    }

    fn atom(&mut self, scope: &[String]) -> String {
        if !scope.is_empty() && self.rng.gen_bool(0.55) {
            scope[self.rng.gen_range(0..scope.len())].clone()
        } else {
            self.constant().to_string()
        }
    }

    /// A parenthesized random expression over `scope`.
    fn expr(&mut self, scope: &[String], depth: usize) -> String {
        if depth == 0 || self.rng.gen_bool(0.35) {
            return self.atom(scope);
        }
        let op = ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="]
            [self.rng.gen_range(0..11usize)];
        let lhs = self.expr(scope, depth - 1);
        let rhs = if op == "/" || op == "%" {
            // Division RHS: usually a nonzero constant (including -1, the
            // i64::MIN/-1 wrapping edge), sometimes a variable that may
            // well be zero at runtime — trap preservation is the point.
            match self.rng.gen_range(0..10) {
                0..=5 => {
                    let c: i64 = [1, 2, 3, -1, -2, 7, 1009][self.rng.gen_range(0..7usize)];
                    c.to_string()
                }
                6..=8 => self.atom(scope),
                _ => self.constant().to_string(),
            }
        } else {
            self.expr(scope, depth - 1)
        };
        format!("({lhs} {op} {rhs})")
    }

    fn line(&mut self, text: &str) {
        self.main.push_str("  ");
        self.main.push_str(text);
        self.main.push('\n');
    }
}

/// Generates one random case from `seed`. Deterministic: the same seed
/// always yields byte-identical source and input.
pub fn random_case(seed: u64) -> FuzzCase {
    let mut g = FuzzGen {
        rng: StdRng::seed_from_u64(seed),
        globals: Vec::new(),
        decls: String::new(),
        main: String::new(),
        vars: Vec::new(),
        arrays: Vec::new(),
        input: Vec::new(),
        next_id: 0,
        callables: Vec::new(),
    };
    let mut source = String::new();

    // Globals, sometimes initialized to an edge constant.
    for _ in 0..g.rng.gen_range(0..3usize) {
        let name = g.fresh("gl");
        if g.rng.gen_bool(0.6) {
            let c = g.constant();
            let _ = writeln!(source, "global {name} = {c}");
        } else {
            let _ = writeln!(source, "global {name}");
        }
        g.globals.push(name);
    }

    // Procedures.
    for _ in 0..g.rng.gen_range(1..4usize) {
        emit_proc(&mut g, &mut source);
    }

    // Main body.
    let globals = g.globals.clone();
    g.vars.extend(globals);
    let stanzas = g.rng.gen_range(3..9usize);
    for _ in 0..stanzas {
        emit_stanza(&mut g);
    }
    // Observable epilogue: print every variable still in scope.
    let tail: Vec<String> = g.vars.clone();
    for v in tail {
        g.line(&format!("print({v})"));
    }

    source.push_str("main\n");
    source.push_str(&g.decls);
    source.push_str(&g.main);
    source.push_str("end\n");

    FuzzCase {
        seed,
        source,
        input: g.input,
    }
}

fn emit_proc(g: &mut FuzzGen, source: &mut String) {
    match g.rng.gen_range(0..4u8) {
        // A printing leaf: the classic jump-function target.
        0 => {
            let name = g.fresh("leaf");
            let scope = vec!["a".to_string(), "b".to_string()];
            let e1 = g.expr(&scope, 2);
            let e2 = g.expr(&scope, 2);
            let _ = writeln!(source, "proc {name}(a, b)");
            let _ = writeln!(source, "  t = {e1}");
            let _ = writeln!(source, "  print((t + {e2}))");
            let _ = writeln!(source, "end");
            g.callables.push((name, 2, false));
        }
        // A function with an arithmetic body.
        1 => {
            let name = g.fresh("fun");
            let scope = vec!["a".to_string()];
            let e = g.expr(&scope, 2);
            let _ = writeln!(source, "func {name}(a)");
            let _ = writeln!(source, "  return {e}");
            let _ = writeln!(source, "end");
            g.callables.push((name, 1, true));
        }
        // A by-reference mutator (bare-name actuals pass by reference).
        2 => {
            let name = g.fresh("bump");
            let scope = vec!["r".to_string()];
            let e = g.expr(&scope, 2);
            let _ = writeln!(source, "proc {name}(r)");
            let _ = writeln!(source, "  r = {e}");
            if !g.globals.is_empty() && g.rng.gen_bool(0.5) {
                let gv = g.globals[g.rng.gen_range(0..g.globals.len())].clone();
                let ge = g.expr(&[gv.clone(), "r".to_string()], 1);
                let _ = writeln!(source, "  {gv} = {ge}");
            }
            let _ = writeln!(source, "end");
            g.callables.push((name, 1, false));
        }
        // Bounded recursion over a decreasing counter.
        _ => {
            let name = g.fresh("rec");
            let scope = vec!["k".to_string(), "acc".to_string()];
            let e = g.expr(&scope, 1);
            let _ = writeln!(source, "proc {name}(k, acc)");
            let _ = writeln!(source, "  if k > 0 then");
            let _ = writeln!(source, "    call {name}((k - 1), (acc + {e}))");
            let _ = writeln!(source, "  else");
            let _ = writeln!(source, "    print(acc)");
            let _ = writeln!(source, "  end");
            let _ = writeln!(source, "end");
            g.callables.push((name, 2, true)); // flagged: counter-first call
        }
    }
}

fn emit_stanza(g: &mut FuzzGen) {
    match g.rng.gen_range(0..9u8) {
        // Plain assignment.
        0 | 1 => {
            let scope = g.vars.clone();
            let e = g.expr(&scope, 3);
            let v = g.fresh("x");
            g.line(&format!("{v} = {e}"));
            g.vars.push(v);
        }
        // read, occasionally starved to exercise input exhaustion.
        2 => {
            let v = g.fresh("rv");
            g.line(&format!("read({v})"));
            if g.rng.gen_bool(0.95) {
                let val = g.rng.gen_range(-4i64..10);
                g.input.push(val);
            }
            g.vars.push(v);
        }
        // print of an expression.
        3 => {
            let scope = g.vars.clone();
            let e = g.expr(&scope, 3);
            g.line(&format!("print({e})"));
        }
        // A call to some generated procedure.
        4 => {
            if g.callables.is_empty() {
                let scope = g.vars.clone();
                let e = g.expr(&scope, 2);
                g.line(&format!("print({e})"));
                return;
            }
            let (name, arity, is_func) = g.callables[g.rng.gen_range(0..g.callables.len())].clone();
            let recursive = name.starts_with("rec");
            let mut args = Vec::new();
            let mut used: Vec<String> = Vec::new();
            for i in 0..arity {
                if recursive && i == 0 {
                    // Keep the recursion counter small and non-negative.
                    args.push(g.small().to_string());
                    continue;
                }
                // Bare variables pass by reference; use each at most once
                // per call and never pass a global bare (Fortran's
                // no-aliasing rule makes those calls undefined).
                let locals: Vec<String> = g
                    .vars
                    .iter()
                    .filter(|v| !g.globals.contains(v) && !used.contains(v))
                    .cloned()
                    .collect();
                if !locals.is_empty() && g.rng.gen_bool(0.4) {
                    let v = locals[g.rng.gen_range(0..locals.len())].clone();
                    used.push(v.clone());
                    args.push(v);
                } else {
                    // A depth-1 expression can collapse to a bare variable
                    // name — possibly a global — and a name actual passes
                    // by reference even when parenthesized (the parser
                    // strips parens in the AST). `+ 0` keeps the value and
                    // forces by-value binding; without it the fuzzer once
                    // generated `call bump(gl)` against a `gl`-writing
                    // callee — an aliasing-undefined program.
                    let scope = g.vars.clone();
                    args.push(format!("({} + 0)", g.expr(&scope, 1)));
                }
            }
            let arglist = args.join(", ");
            if is_func && !recursive {
                let v = g.fresh("x");
                g.line(&format!("{v} = {name}({arglist})"));
                g.vars.push(v);
            } else {
                g.line(&format!("call {name}({arglist})"));
            }
        }
        // A do-loop accumulation; step is occasionally zero (a trap).
        5 => {
            let acc = g.fresh("s");
            let iv = g.fresh("i");
            let hi = g.rng.gen_range(1..6);
            let scope = g.vars.clone();
            let e = g.expr(&scope, 2);
            g.line(&format!("{acc} = 0"));
            let step = match g.rng.gen_range(0..12u8) {
                0 => Some(0),
                1 => Some(2),
                _ => None,
            };
            match step {
                Some(s) => g.line(&format!("do {iv} = 1, {hi}, {s}")),
                None => g.line(&format!("do {iv} = 1, {hi}")),
            }
            g.line(&format!("  {acc} = ({acc} + ({iv} * {e}))"));
            g.line("end");
            g.vars.push(acc);
        }
        // A while-loop over a bounded counter.
        6 => {
            let w = g.fresh("w");
            let n = g.rng.gen_range(1..5);
            g.line(&format!("{w} = {n}"));
            g.line(&format!("while {w} > 0 do"));
            let scope = g.vars.clone();
            let e = g.expr(&scope, 1);
            g.line(&format!("  print(({w} * {e}))"));
            g.line(&format!("  {w} = ({w} - 1)"));
            g.line("end");
            g.vars.push(w);
        }
        // Array store + load; the index is usually in bounds (1..=4) but
        // occasionally 0 or 5, so the out-of-bounds trap class is covered.
        7 => {
            if g.arrays.is_empty() {
                let a = g.fresh("arr");
                let _ = writeln!(g.decls, "  integer {a}(4)");
                g.arrays.push(a);
            }
            let a = g.arrays[g.rng.gen_range(0..g.arrays.len())].clone();
            let scope = g.vars.clone();
            let e = g.expr(&scope, 2);
            let idx = match g.rng.gen_range(0..16u8) {
                0 => 0,
                1 => 5,
                n => i64::from(n % 4) + 1,
            };
            g.line(&format!("{a}({idx}) = {e}"));
            let v = g.fresh("x");
            let ridx = g.rng.gen_range(1i64..5);
            g.line(&format!("{v} = ({a}({ridx}) + 1)"));
            g.vars.push(v);
        }
        // An if/else diamond.
        _ => {
            let scope = g.vars.clone();
            let cond = g.expr(&scope, 2);
            let v = g.fresh("x");
            let e1 = g.expr(&scope, 2);
            let e2 = g.expr(&scope, 2);
            g.line(&format!("if {cond} then"));
            g.line(&format!("  {v} = {e1}"));
            g.line("else");
            g.line(&format!("  {v} = {e2}"));
            g.line("end");
            g.vars.push(v);
        }
    }
}

// ---------------------------------------------------------------------------
// Shrinking and corpus
// ---------------------------------------------------------------------------

fn same_failure(outcome: &CheckOutcome, oracle: &str, level: &str) -> bool {
    matches!(outcome, CheckOutcome::Fail { oracle: o, level: l, .. } if o == oracle && l == level)
}

/// Greedy ddmin-style minimizer: repeatedly removes line chunks (halves
/// down to single lines) as long as the reduced program still compiles
/// and fails the same oracle at the same level. `budget` caps the number
/// of candidate evaluations.
pub fn shrink(
    source: &str,
    input: &[i64],
    levels: &[FuzzLevel],
    max_steps: u64,
    oracle: &str,
    level: &str,
    budget: usize,
) -> String {
    let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
    let mut attempts = 0usize;
    let mut chunk = (lines.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut start = 0;
        while start < lines.len() {
            if attempts >= budget {
                return lines.join("\n") + "\n";
            }
            let end = (start + chunk).min(lines.len());
            let candidate: Vec<String> = lines[..start]
                .iter()
                .chain(lines[end..].iter())
                .cloned()
                .collect();
            if candidate.is_empty() {
                start = end;
                continue;
            }
            let text = candidate.join("\n") + "\n";
            attempts += 1;
            if same_failure(&check_case(&text, input, levels, max_steps), oracle, level) {
                lines = candidate;
                removed_any = true;
                // Do not advance: the next chunk shifted into `start`.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !removed_any {
            return lines.join("\n") + "\n";
        }
        if !removed_any {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// Renders a violation as a self-describing corpus file: header comments
/// carry everything the replay harness needs.
pub fn render_repro(v: &Violation) -> String {
    let inputs: Vec<String> = v.input.iter().map(|x| x.to_string()).collect();
    let mut out = String::new();
    let _ = writeln!(out, "# fuzz repro (minimized)");
    let _ = writeln!(out, "# oracle: {}", v.oracle);
    let _ = writeln!(out, "# level: {}", v.level);
    let _ = writeln!(out, "# seed: {:#018x}", v.seed);
    let _ = writeln!(out, "# detail: {}", v.detail.replace('\n', " "));
    let _ = writeln!(out, "# input: {}", inputs.join(" "));
    out.push_str(&v.source);
    out
}

/// Parses the `# input:` header of a corpus file written by
/// [`render_repro`] (or hand-written in the same format).
pub fn parse_repro_input(text: &str) -> Vec<i64> {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# input:") {
            return rest
                .split_whitespace()
                .filter_map(|w| w.parse::<i64>().ok())
                .collect();
        }
    }
    Vec::new()
}

/// Derives the per-iteration seed. SplitMix-style so neighbouring
/// iterations explore unrelated programs.
fn iter_seed(campaign: u64, i: u64) -> u64 {
    let mut z = campaign ^ (i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs a fuzzing campaign. Results are independent of `config.jobs`:
/// every iteration derives its own seed and the iteration fan-out is an
/// ordered deterministic map.
pub fn run_fuzz(config: &FuzzConfig, sink: &dyn ObsSink) -> FuzzReport {
    let mut report = FuzzReport {
        iters: config.iters,
        ..FuzzReport::default()
    };
    // Replay the existing corpus first: a regression caught by an old
    // repro is worth more than any number of fresh random programs.
    if let Some(dir) = &config.corpus_dir {
        replay_corpus(dir, config, sink, &mut report);
    }

    let seeds: Vec<u64> = (0..config.iters)
        .map(|i| iter_seed(config.seed, i))
        .collect();
    let outcomes = par_map(config.jobs, &seeds, |i, &s| {
        // Observability names deliberately include JSON-hostile
        // characters; the chrome-trace exporter must escape them.
        if sink.enabled() {
            let name = format!("fuzz \"iter\" \\{i}\\ §{s:x}");
            let start = sink.now();
            let case = random_case(s);
            let outcome = check_case(&case.source, &case.input, &config.levels, config.max_steps);
            sink.span(&name, "fuzz", start, sink.now().saturating_sub(start));
            (case, outcome)
        } else {
            let case = random_case(s);
            let outcome = check_case(&case.source, &case.input, &config.levels, config.max_steps);
            (case, outcome)
        }
    });

    for (case, outcome) in outcomes {
        sink.count("fuzz.iters", 1);
        match outcome {
            CheckOutcome::Pass(class) => {
                sink.count(&format!("fuzz.trap.{class}"), 1);
                *report.trap_classes.entry(class).or_insert(0) += 1;
            }
            CheckOutcome::Skip => {
                sink.count("fuzz.skipped", 1);
                report.skipped += 1;
            }
            CheckOutcome::Fail {
                oracle,
                level,
                detail,
            } => {
                sink.count("fuzz.violations", 1);
                let minimized = shrink(
                    &case.source,
                    &case.input,
                    &config.levels,
                    config.max_steps,
                    &oracle,
                    &level,
                    config.shrink_budget,
                );
                let violation = Violation {
                    seed: case.seed,
                    oracle,
                    level,
                    detail,
                    source: minimized,
                    input: case.input,
                };
                if let Some(dir) = &config.corpus_dir {
                    match write_repro(dir, &violation) {
                        Ok(path) => report.repro_paths.push(path),
                        Err(e) => {
                            eprintln!(
                                "fuzz: cannot write repro for seed {:#018x}: {e}",
                                violation.seed
                            );
                            report.corpus_write_errors += 1;
                            sink.count("fuzz.corpus.write_errors", 1);
                        }
                    }
                }
                report.violations.push(violation);
            }
        }
    }
    report
}

/// Parses the `# seed:` header of a corpus file written by
/// [`render_repro`]; 0 when absent or unparsable.
pub fn parse_repro_seed(text: &str) -> u64 {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# seed:") {
            let word = rest.trim().trim_start_matches("0x");
            return u64::from_str_radix(word, 16).unwrap_or(0);
        }
    }
    0
}

/// Replays every `.mf` repro in `dir` before the random campaign starts.
/// A missing directory is fine (nothing to replay yet); an unreadable,
/// truncated, or malformed file is skipped with a stderr diagnostic and
/// counted — one bad file must never abort the whole campaign. A repro
/// that fails its oracle again is a genuine regression and lands in
/// `violations`.
fn replay_corpus(dir: &Path, config: &FuzzConfig, sink: &dyn ObsSink, report: &mut FuzzReport) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|d| d.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("mf"))
        .collect();
    paths.sort();
    for path in paths {
        let skip = |why: &str, report: &mut FuzzReport| {
            eprintln!("fuzz: skipping repro `{}`: {why}", path.display());
            report.corpus_skipped += 1;
            sink.count("fuzz.corpus.skipped", 1);
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                skip(&format!("unreadable ({e})"), report);
                continue;
            }
        };
        // Compile up front: `check_case` would report a malformed file
        // as a "generator" violation, but a truncated or hand-mangled
        // repro is corpus damage, not an optimizer bug.
        if let Err(e) = ipcp_ir::compile_to_ir(&text) {
            skip(&format!("malformed ({})", e.first().message), report);
            continue;
        }
        let input = parse_repro_input(&text);
        match check_case(&text, &input, &config.levels, config.max_steps) {
            CheckOutcome::Fail {
                oracle,
                level,
                detail,
            } => {
                sink.count("fuzz.corpus.regressions", 1);
                report.violations.push(Violation {
                    seed: parse_repro_seed(&text),
                    oracle,
                    level,
                    detail,
                    source: text,
                    input,
                });
            }
            _ => {
                report.corpus_replayed += 1;
                sink.count("fuzz.corpus.replayed", 1);
            }
        }
    }
}

fn write_repro(dir: &Path, v: &Violation) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("fuzz-{}-{:016x}.mf", v.oracle, v.seed));
    std::fs::write(&path, render_repro(v))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_core::analyze;
    use ipcp_obs::NoopSink;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 1993] {
            let a = random_case(seed);
            let b = random_case(seed);
            assert_eq!(a.source, b.source);
            assert_eq!(a.input, b.input);
        }
    }

    #[test]
    fn generated_programs_compile_and_validate() {
        for i in 0..60 {
            let case = random_case(iter_seed(7, i));
            let ir = ipcp_ir::compile_to_ir(&case.source).unwrap_or_else(|e| {
                panic!(
                    "seed {:#x} does not compile: {}\n{}",
                    case.seed,
                    e.first().message,
                    case.source
                )
            });
            ipcp_ir::validate::validate(&ir)
                .unwrap_or_else(|e| panic!("seed {:#x} IR invalid: {e:?}", case.seed));
        }
    }

    #[test]
    fn generated_programs_never_alias() {
        // The no-alias rule is the optimizer's license; a generated
        // program that violates it makes the differential oracle report
        // nonsense (found in the wild: a bare global actual to a
        // global-writing callee — argument expressions are parenthesized
        // to force by-value precisely because of this).
        use ipcp_analysis::{check_aliasing, compute_modref, CallGraph};
        for i in 0..200 {
            let case = random_case(iter_seed(77, i));
            let program = ipcp_ir::compile_to_ir(&case.source).unwrap();
            let cg = CallGraph::new(&program);
            let modref = compute_modref(&program, &cg);
            let violations = check_aliasing(&program, &modref);
            assert!(
                violations.is_empty(),
                "seed {:#x} generated an aliasing-undefined program:\n{}",
                case.seed,
                case.source
            );
        }
    }

    #[test]
    fn generator_hits_interesting_traps() {
        // Across a modest sweep the baseline must exercise at least
        // division traps — the arithmetic edges are the whole point.
        let config = FuzzConfig {
            iters: 120,
            seed: 2024,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config, &NoopSink);
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        assert!(
            report.trap_classes.contains_key("div-by-zero"),
            "{:?}",
            report.trap_classes
        );
        assert!(
            report.trap_classes.contains_key("ok"),
            "{:?}",
            report.trap_classes
        );
    }

    #[test]
    fn campaign_is_independent_of_jobs() {
        let base = FuzzConfig {
            iters: 20,
            seed: 5,
            ..FuzzConfig::default()
        };
        let seq = run_fuzz(&base, &NoopSink);
        let par = run_fuzz(
            &FuzzConfig {
                jobs: 4,
                ..base.clone()
            },
            &NoopSink,
        );
        assert_eq!(seq.trap_classes, par.trap_classes);
        assert_eq!(seq.skipped, par.skipped);
        assert_eq!(seq.violations.len(), par.violations.len());
    }

    #[test]
    fn cond_ladder_campaign_is_clean() {
        // The full ladder including conditional propagation: both
        // oracles (differential at cond, per-procedure monotonicity
        // poly→cond) must hold over a seeded random campaign.
        let config = FuzzConfig {
            iters: 40,
            seed: 1993,
            levels: FuzzLevel::ALL.to_vec(),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config, &NoopSink);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn check_case_accepts_an_infeasible_branch_prune() {
        // `dispatch(1)` makes the else-branch infeasible, so cond
        // sharpens kernel.k from ⊥ (3 ∧ 9) to Const(3) — strictly more
        // constants than poly, which the per-procedure metamorphic rule
        // must accept (and the differential oracle must find sound).
        let src = "proc kernel(k)\nprint((k + 1))\nend\n\
                   proc dispatch(mode)\nif (mode == 1) then\ncall kernel(3)\n\
                   else\ncall kernel(9)\nend\nend\n\
                   main\ncall dispatch(1)\nend\n";
        assert_eq!(
            check_case(src, &[], &FuzzLevel::ALL, 100_000),
            CheckOutcome::Pass("ok".into())
        );
        let program = ipcp_ir::compile_to_ir(src).unwrap();
        let poly = analyze(
            &program,
            &FuzzLevel::Forward(JumpFunctionKind::Polynomial).config(),
        );
        let cond = analyze(&program, &FuzzLevel::Conditional.config());
        let count = |o: &ipcp_core::AnalysisOutcome| -> usize {
            o.constants
                .iter()
                .map(std::collections::BTreeMap::len)
                .sum()
        };
        assert!(count(&cond) > count(&poly), "cond must sharpen dispatch");
    }

    #[test]
    fn check_case_flags_a_seeded_semantic_break() {
        // Sanity-check the differential oracle itself: a program whose
        // optimized form we corrupt by hand must be flagged. Simulate by
        // checking two different programs through the same comparator.
        let src = "main\nx = 4\nprint((x / 2))\nend\n";
        assert_eq!(
            check_case(src, &[], &FuzzLevel::ALL, 100_000),
            CheckOutcome::Pass("ok".into())
        );
        // And a trap-class baseline is classified, not an error.
        let trap = "main\nread(n)\nprint((1 / n))\nend\n";
        assert_eq!(
            check_case(trap, &[0], &FuzzLevel::ALL, 100_000),
            CheckOutcome::Pass("div-by-zero".into())
        );
    }

    #[test]
    fn shrink_preserves_the_failure_signature() {
        // Build an artificial failure via the "generator" oracle: an
        // uncompilable program stays uncompilable while irrelevant lines
        // are stripped.
        let src = "main\nx = 1\nprint(x)\ny = (2 +\nend\n";
        let outcome = check_case(src, &[], &FuzzLevel::ALL, 10_000);
        assert!(same_failure(&outcome, "generator", "-"), "{outcome:?}");
        let small = shrink(src, &[], &FuzzLevel::ALL, 10_000, "generator", "-", 500);
        assert!(small.lines().count() < src.lines().count());
        assert!(same_failure(
            &check_case(&small, &[], &FuzzLevel::ALL, 10_000),
            "generator",
            "-"
        ));
    }

    #[test]
    fn traced_campaign_exports_a_valid_chrome_trace() {
        // Fuzz span names contain quotes, backslashes, and non-ASCII on
        // purpose: the whole campaign must still export a trace the
        // validator accepts, with the counters present in the snapshot.
        let sink = ipcp_obs::TraceSink::new();
        let config = FuzzConfig {
            iters: 8,
            seed: 3,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config, &sink);
        assert!(report.violations.is_empty());
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.counters.get("fuzz.iters"), Some(&8));
        assert!(snapshot.spans.iter().any(|s| s.name.contains('"')));
        let json = ipcp_obs::chrome_trace_json(&snapshot);
        let stats = ipcp_obs::validate_chrome_trace(&json).expect("valid trace");
        assert!(stats.spans >= 8, "{stats:?}");
    }

    #[test]
    fn repro_roundtrip_preserves_input() {
        let v = Violation {
            seed: 0xabcd,
            oracle: "differential".into(),
            level: "poly".into(),
            detail: "before: ok [1] / after: ok [2]".into(),
            source: "main\nprint(1)\nend\n".into(),
            input: vec![3, -4, 5],
        };
        let text = render_repro(&v);
        assert_eq!(parse_repro_input(&text), vec![3, -4, 5]);
        assert_eq!(parse_repro_seed(&text), 0xabcd);
        // The repro body still compiles (comments are stripped by the lexer).
        assert!(ipcp_ir::compile_to_ir(&text).is_ok());
    }

    fn temp_corpus(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ipcp-fuzz-corpus-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn corpus_replay_counts_clean_repros() {
        let dir = temp_corpus("clean");
        std::fs::write(dir.join("good.mf"), "# input: \nmain\nprint(1)\nend\n").unwrap();
        let config = FuzzConfig {
            iters: 2,
            seed: 5,
            corpus_dir: Some(dir.clone()),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config, &NoopSink);
        assert_eq!(report.corpus_replayed, 1);
        assert_eq!(report.corpus_skipped, 0);
        assert!(report.violations.is_empty());
        assert!(report.summary().contains("corpus: 1 replayed, 0 skipped"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_replay_skips_malformed_files_without_aborting() {
        let dir = temp_corpus("damage");
        // A truncated repro (no `end`), a syntactically hostile file, and
        // one good repro: the campaign must survive all three.
        std::fs::write(dir.join("a-truncated.mf"), "main\nprint(").unwrap();
        std::fs::write(dir.join("b-garbage.mf"), "\x00\x01 not minifor at all").unwrap();
        std::fs::write(dir.join("c-good.mf"), "main\nprint(7)\nend\n").unwrap();
        // Non-.mf files are not corpus entries and are ignored outright.
        std::fs::write(dir.join("README.txt"), "not a repro").unwrap();
        let config = FuzzConfig {
            iters: 1,
            seed: 9,
            corpus_dir: Some(dir.clone()),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config, &NoopSink);
        assert_eq!(report.corpus_skipped, 2);
        assert_eq!(report.corpus_replayed, 1);
        assert!(report.violations.is_empty(), "damage is not a violation");
        assert!(report.summary().contains("corpus: 1 replayed, 2 skipped"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_corpus_dir_is_silently_fine() {
        let dir =
            std::env::temp_dir().join(format!("ipcp-fuzz-corpus-missing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = FuzzConfig {
            iters: 2,
            seed: 13,
            corpus_dir: Some(dir.clone()),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config, &NoopSink);
        assert_eq!(report.corpus_replayed + report.corpus_skipped, 0);
        assert!(report.violations.is_empty());
        assert!(!report.summary().contains("corpus:"));
    }
}
