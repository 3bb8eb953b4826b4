//! Command-line interface for the `ipcp` binary.
//!
//! Hand-rolled argument parsing (no CLI dependency) kept in the library
//! so it is unit-testable; the binary in `src/bin/ipcp.rs` is a thin
//! wrapper.

use crate::core::{AnalysisConfig, ExhaustionPolicy, JumpFunctionKind, SolverKind};
use crate::suite::fuzz::FuzzLevel;
use std::fmt;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to run.
    pub command: Command,
    /// Input source file.
    pub file: String,
    /// Analysis configuration assembled from the flags.
    pub config: AnalysisConfig,
    /// Whether `optimize` should clone procedures (`--clone`).
    pub clone_procedures: bool,
    /// `read` inputs for `run` (from `--input a,b,c`).
    pub input: Vec<i64>,
    /// Whether `analyze` should print per-phase wall-clock and cache
    /// statistics from the analysis session (`--timings`).
    pub timings: bool,
    /// Where `analyze` should write a Chrome trace-event JSON file
    /// (`--trace-out <path>`); `None` leaves tracing disabled.
    pub trace_out: Option<String>,
    /// The procedure `explain` should report on.
    pub explain_proc: Option<String>,
    /// Optional phase or procedure filter for `why`.
    pub why_filter: Option<String>,
    /// The parameter/global/slot name `explain` should narrow to.
    pub explain_param: Option<String>,
    /// Iteration count for `fuzz` (`--iters`).
    pub fuzz_iters: u64,
    /// Campaign seed for `fuzz` (`--seed`).
    pub fuzz_seed: u64,
    /// Where `fuzz` writes minimized repros (`--corpus-dir`); `None`
    /// reports violations without writing files.
    pub fuzz_corpus_dir: Option<String>,
    /// Precision ladder `fuzz` checks (from `--level`, which caps the
    /// ladder at the named level; default: the four forward levels).
    pub fuzz_levels: Vec<FuzzLevel>,
    /// Persistent artifact cache directory (`--cache-dir`); `None`
    /// leaves the cross-run cache disabled.
    pub cache_dir: Option<String>,
    /// The action for the `cache` command.
    pub cache_action: Option<CacheAction>,
    /// Unix socket path for `serve` (`--socket`).
    pub socket: Option<String>,
    /// Bound on concurrently executing analysis requests for `serve`
    /// (`--max-inflight`); excess requests get an `overloaded` error.
    pub max_inflight: usize,
    /// Byte budget for resident tenant sessions in `serve`
    /// (`--max-tenant-bytes`); `None` never evicts.
    pub max_tenant_bytes: Option<u64>,
}

/// Maintenance actions of the `cache` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Report entry count, total bytes, and quarantine count.
    Stats,
    /// Validate every entry, quarantining the ones that fail.
    Verify,
    /// Remove every entry and quarantined file.
    Clear,
}

impl CacheAction {
    fn parse(word: &str) -> Option<CacheAction> {
        Some(match word {
            "stats" => CacheAction::Stats,
            "verify" => CacheAction::Verify,
            "clear" => CacheAction::Clear,
            _ => return None,
        })
    }
}

/// Subcommands of the `ipcp` binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Analyze and print CONSTANTS sets plus the substitution counts.
    Analyze,
    /// Run the program through the IR evaluator.
    Run,
    /// Print the lowered IR.
    Ir,
    /// Substitute constants + eliminate dead code, print transformed IR.
    Transform,
    /// Run the full optimizer (substitute + DCE + optional cloning) and
    /// print the optimized IR.
    Optimize,
    /// Report procedure-cloning opportunities.
    Clones,
    /// Check the FORTRAN no-alias rule.
    Lint,
    /// Explain the provenance of a procedure's interprocedural
    /// constants (justifying call edges, jump-function levels,
    /// return-jump-function recoveries).
    Explain,
    /// Print Prometheus-style metrics of one traced analysis run.
    Metrics,
    /// Explain what an incremental re-analysis recomputed and why,
    /// against the audit ledger persisted next to the disk cache.
    Why,
    /// Differential + metamorphic fuzzing of the optimize pipeline
    /// (semantic preservation at every jump-function level).
    Fuzz,
    /// Inspect or maintain a persistent artifact cache directory.
    Cache,
    /// Run the resident multi-tenant analysis daemon on a Unix socket.
    Serve,
}

impl Command {
    fn parse(word: &str) -> Option<Command> {
        Some(match word {
            "analyze" => Command::Analyze,
            "run" => Command::Run,
            "ir" => Command::Ir,
            "transform" => Command::Transform,
            "optimize" => Command::Optimize,
            "clones" => Command::Clones,
            "lint" => Command::Lint,
            "explain" => Command::Explain,
            "metrics" => Command::Metrics,
            "why" => Command::Why,
            "fuzz" => Command::Fuzz,
            "cache" => Command::Cache,
            "serve" => Command::Serve,
            _ => return None,
        })
    }
}

/// A usage / parse error with a message for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.0)?;
        f.write_str(USAGE)
    }
}

impl std::error::Error for UsageError {}

/// The usage text.
pub const USAGE: &str = "\
usage: ipcp <command> <file.mf> [options]

commands:
  analyze     print CONSTANTS sets and substitution counts
  run         execute the program (IR evaluator)
  ir          print the lowered IR
  transform   substitute constants into the *source* and print it
  optimize    full optimizer: substitute + DCE (+ cloning with --clone)
  clones      report procedure-cloning opportunities
              (transform/optimize/clones honour every analysis flag
              except --fuel, --cache-dir and --trace-out)
  lint        check the FORTRAN no-alias rule
  explain     explain a constant's provenance: explain <file.mf> <proc> [param]
  metrics     print Prometheus-style metrics of one traced analysis run
  why         re-analyze against the persistent cache and explain every
              recomputed phase: why <file.mf> [phase|proc] --cache-dir <dir>
              (names the changed procedures/globals or config facets; the
              audit ledger lives under <dir>/audit/)
  fuzz        differential fuzzing of the optimizer (no file argument);
              checks semantic preservation at all four jump-function levels
              (add --level cond to extend the ladder to conditional
              propagation with its per-procedure monotonicity oracle)
  cache       persistent cache maintenance (no file argument):
              cache <stats|verify|clear> --cache-dir <dir>
  serve       resident analysis daemon (no file argument):
              serve --socket <path> [--cache-dir <dir>] [--max-inflight <N>]
              [--max-tenant-bytes <N>]; accepts line-delimited JSON requests
              ({\"id\":1,\"op\":\"analyze\",\"source\":\"...\"}) with ops
              analyze/explain/why/metrics/shutdown; responses are
              byte-identical to one-shot output

options:
  --level <literal|intra|pass|poly|cond>
                                  analysis precision level: the four forward
                                  jump-function kinds, or `cond` = conditional
                                  constant propagation (polynomial jump
                                  functions + interprocedural branch
                                  feasibility; infeasible call edges are
                                  pruned, sharpening callee constants).
                                  for `fuzz`, checks the whole ladder up to
                                  and including the named level
  --jf <literal|intra|pass|poly>  forward jump function kind (default poly)
  --no-rjf                        disable return jump functions
  --no-mod                        drop interprocedural MOD information
  --complete                      iterate propagation with dead code elimination
  --intraprocedural               purely intraprocedural baseline
  --composition                   full symbolic return-JF composition (extension)
  --gsa                           gated (γ) jump functions (extension)
  --binding-solver                use the binding-multigraph solver
  --clone                         enable procedure cloning in `optimize`
  --input <a,b,c>                 read() inputs for `run`
  --fuel <N>                      analysis fuel budget (default unlimited);
                                  exhausted phases degrade gracefully
  --jobs <N>                      worker threads for the parallel analysis
                                  phases (default: every available core;
                                  0 or 1 runs sequentially — results are
                                  bit-identical at any setting)
  --timings                       print per-phase wall-clock + cache stats
                                  of the analysis session (`analyze` only)
  --trace-out <path>              write a Chrome trace-event JSON file of
                                  the analysis run (`analyze` only; open
                                  in chrome://tracing or Perfetto)
  --on-exhausted <degrade|error>  what fuel exhaustion means (default degrade)
  --iters <N>                     programs to generate (`fuzz` only, default 100)
  --seed <N>                      campaign seed (`fuzz` only, default 1993);
                                  results are independent of --jobs
  --corpus-dir <path>             write minimized repros here (`fuzz` only;
                                  default: report without writing files)
  --cache-dir <path>              persistent artifact cache: `analyze` serves
                                  unmetered runs from it (corrupt entries are
                                  quarantined and recomputed cold); required
                                  by the `cache` command; shared by every
                                  tenant under `serve`
  --socket <path>                 Unix socket the `serve` daemon listens on
                                  (required by `serve`)
  --max-inflight <N>              analysis requests allowed in flight at once
                                  (`serve` only, default 64); excess requests
                                  fail fast with an `overloaded` error
  --max-tenant-bytes <N>          byte budget for resident tenant sessions
                                  (`serve` only, default unlimited); least
                                  recently used sessions are evicted
";

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a [`UsageError`] describing the first problem found.
pub fn parse_args(args: &[String]) -> Result<Cli, UsageError> {
    let mut it = args.iter();
    let command = it
        .next()
        .and_then(|w| Command::parse(w))
        .ok_or_else(|| UsageError("missing or unknown command".into()))?;
    // `fuzz` generates its own programs, `cache` operates on a
    // directory, and `serve` receives sources over its socket, so none
    // of them takes a file argument.
    let file = if matches!(command, Command::Fuzz | Command::Cache | Command::Serve) {
        String::new()
    } else {
        it.next()
            .cloned()
            .ok_or_else(|| UsageError("missing input file".into()))?
    };

    // The CLI is a leaf consumer, so it defaults to every available core
    // (library callers keep the conservative `IPCP_JOBS`-or-1 default).
    let mut config = AnalysisConfig {
        jobs: crate::core::Parallelism::auto().jobs,
        ..AnalysisConfig::default()
    };
    let mut input = Vec::new();
    let mut clone_procedures = false;
    let mut timings = false;
    let mut trace_out = None;
    let mut fuzz_iters = 100u64;
    let mut fuzz_seed = 1993u64;
    let mut fuzz_corpus_dir = None;
    let mut fuzz_levels = FuzzLevel::FORWARD.to_vec();
    let mut cache_dir = None;
    let mut socket = None;
    let mut max_inflight = crate::core::serve::DEFAULT_MAX_INFLIGHT;
    let mut max_tenant_bytes = None;
    let mut positionals: Vec<String> = Vec::new();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--jf" => {
                let kind = it
                    .next()
                    .ok_or_else(|| UsageError("--jf needs a value".into()))?;
                config.jump_function = match kind.as_str() {
                    "literal" => JumpFunctionKind::Literal,
                    "intra" => JumpFunctionKind::IntraproceduralConstant,
                    "pass" => JumpFunctionKind::PassThrough,
                    "poly" => JumpFunctionKind::Polynomial,
                    other => {
                        return Err(UsageError(format!("unknown jump function `{other}`")));
                    }
                };
            }
            "--level" => {
                let name = it
                    .next()
                    .ok_or_else(|| UsageError("--level needs a value".into()))?;
                let level = match name.as_str() {
                    "literal" => FuzzLevel::Forward(JumpFunctionKind::Literal),
                    "intra" => FuzzLevel::Forward(JumpFunctionKind::IntraproceduralConstant),
                    "pass" => FuzzLevel::Forward(JumpFunctionKind::PassThrough),
                    "poly" => FuzzLevel::Forward(JumpFunctionKind::Polynomial),
                    "cond" => FuzzLevel::Conditional,
                    other => {
                        return Err(UsageError(format!("unknown level `{other}`")));
                    }
                };
                // `--level` reconfigures the analysis for file commands
                // and caps the fuzzing ladder for `fuzz`.
                let lcfg = level.config();
                config.jump_function = lcfg.jump_function;
                config.branch_feasibility = lcfg.branch_feasibility;
                let cut = FuzzLevel::ALL
                    .iter()
                    .position(|&l| l == level)
                    .unwrap_or(FuzzLevel::ALL.len() - 1);
                fuzz_levels = FuzzLevel::ALL[..=cut].to_vec();
            }
            "--no-rjf" => config.return_jump_functions = false,
            "--no-mod" => config.mod_info = false,
            "--complete" => config.complete_propagation = true,
            "--intraprocedural" => {
                config.interprocedural = false;
                config.return_jump_functions = false;
            }
            "--composition" => config.rjf_full_composition = true,
            "--gsa" => config.gsa = true,
            "--clone" => clone_procedures = true,
            "--timings" => timings = true,
            "--trace-out" => {
                let path = it
                    .next()
                    .ok_or_else(|| UsageError("--trace-out needs a path".into()))?;
                trace_out = Some(path.clone());
            }
            "--binding-solver" => config.solver = SolverKind::BindingGraph,
            "--fuel" => {
                let n = it
                    .next()
                    .ok_or_else(|| UsageError("--fuel needs a value".into()))?;
                config.fuel = Some(
                    n.parse::<u64>()
                        .map_err(|_| UsageError(format!("bad --fuel value `{n}`")))?,
                );
            }
            "--jobs" => {
                let n = it
                    .next()
                    .ok_or_else(|| UsageError("--jobs needs a value".into()))?;
                config.jobs = n
                    .parse::<usize>()
                    .map_err(|_| UsageError(format!("bad --jobs value `{n}`")))?;
            }
            "--on-exhausted" => {
                let policy = it
                    .next()
                    .ok_or_else(|| UsageError("--on-exhausted needs a value".into()))?;
                config.on_exhausted = match policy.as_str() {
                    "degrade" => ExhaustionPolicy::Degrade,
                    "error" => ExhaustionPolicy::Error,
                    other => {
                        return Err(UsageError(format!(
                            "unknown exhaustion policy `{other}` (expected degrade or error)"
                        )));
                    }
                };
            }
            "--iters" => {
                let n = it
                    .next()
                    .ok_or_else(|| UsageError("--iters needs a value".into()))?;
                fuzz_iters = n
                    .parse::<u64>()
                    .map_err(|_| UsageError(format!("bad --iters value `{n}`")))?;
            }
            "--seed" => {
                let n = it
                    .next()
                    .ok_or_else(|| UsageError("--seed needs a value".into()))?;
                fuzz_seed = n
                    .parse::<u64>()
                    .map_err(|_| UsageError(format!("bad --seed value `{n}`")))?;
            }
            "--corpus-dir" => {
                let path = it
                    .next()
                    .ok_or_else(|| UsageError("--corpus-dir needs a path".into()))?;
                fuzz_corpus_dir = Some(path.clone());
            }
            "--cache-dir" => {
                let path = it
                    .next()
                    .ok_or_else(|| UsageError("--cache-dir needs a path".into()))?;
                cache_dir = Some(path.clone());
            }
            "--socket" => {
                let path = it
                    .next()
                    .ok_or_else(|| UsageError("--socket needs a path".into()))?;
                socket = Some(path.clone());
            }
            "--max-inflight" => {
                let n = it
                    .next()
                    .ok_or_else(|| UsageError("--max-inflight needs a value".into()))?;
                max_inflight = n
                    .parse::<usize>()
                    .map_err(|_| UsageError(format!("bad --max-inflight value `{n}`")))?;
            }
            "--max-tenant-bytes" => {
                let n = it
                    .next()
                    .ok_or_else(|| UsageError("--max-tenant-bytes needs a value".into()))?;
                max_tenant_bytes = Some(
                    n.parse::<u64>()
                        .map_err(|_| UsageError(format!("bad --max-tenant-bytes value `{n}`")))?,
                );
            }
            "--input" => {
                let list = it
                    .next()
                    .ok_or_else(|| UsageError("--input needs a value".into()))?;
                input = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse::<i64>()
                            .map_err(|_| UsageError(format!("bad --input element `{s}`")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            other if other.starts_with("--") => {
                return Err(UsageError(format!("unknown option `{other}`")));
            }
            word => positionals.push(word.to_string()),
        }
    }

    let mut cache_action = None;
    let mut why_filter = None;
    let (explain_proc, explain_param) = if command == Command::Explain {
        let mut pos = positionals.into_iter();
        let proc = pos
            .next()
            .ok_or_else(|| UsageError("explain needs a procedure name".into()))?;
        let param = pos.next();
        if let Some(extra) = pos.next() {
            return Err(UsageError(format!("unexpected argument `{extra}`")));
        }
        (Some(proc), param)
    } else if command == Command::Cache {
        let mut pos = positionals.into_iter();
        let action = pos
            .next()
            .ok_or_else(|| UsageError("cache needs an action (stats, verify, or clear)".into()))?;
        cache_action = Some(CacheAction::parse(&action).ok_or_else(|| {
            UsageError(format!(
                "unknown cache action `{action}` (expected stats, verify, or clear)"
            ))
        })?);
        if let Some(extra) = pos.next() {
            return Err(UsageError(format!("unexpected argument `{extra}`")));
        }
        if cache_dir.is_none() {
            return Err(UsageError("cache needs --cache-dir <dir>".into()));
        }
        (None, None)
    } else if command == Command::Why {
        let mut pos = positionals.into_iter();
        why_filter = pos.next();
        if let Some(extra) = pos.next() {
            return Err(UsageError(format!("unexpected argument `{extra}`")));
        }
        if cache_dir.is_none() {
            return Err(UsageError("why needs --cache-dir <dir>".into()));
        }
        (None, None)
    } else if command == Command::Serve {
        if let Some(extra) = positionals.first() {
            return Err(UsageError(format!("unexpected argument `{extra}`")));
        }
        if socket.is_none() {
            return Err(UsageError("serve needs --socket <path>".into()));
        }
        (None, None)
    } else {
        if let Some(extra) = positionals.first() {
            return Err(UsageError(format!("unexpected argument `{extra}`")));
        }
        (None, None)
    };

    Ok(Cli {
        command,
        file,
        config,
        clone_procedures,
        input,
        timings,
        trace_out,
        explain_proc,
        why_filter,
        explain_param,
        fuzz_iters,
        fuzz_seed,
        fuzz_corpus_dir,
        fuzz_levels,
        cache_dir,
        cache_action,
        socket,
        max_inflight,
        max_tenant_bytes,
    })
}

/// A drift between `parse_args` and `execute`: an invariant the parser
/// should have enforced did not hold at execution time (e.g. a library
/// caller constructed a [`Cli`] by hand). Degrades to a diagnostic with
/// nonzero exit, never a panic.
fn internal_usage(what: &str) -> String {
    format!("internal usage error: {what} (parse_args/execute drift — please report this)")
}

/// Executes a parsed command against source text; returns the output to
/// print.
///
/// # Errors
///
/// Returns a rendered error string (front-end diagnostics or runtime
/// failures).
pub fn execute(cli: &Cli, source: &str) -> Result<String, String> {
    use crate::analysis::{compute_modref, CallGraph};
    use crate::core::report;
    use std::fmt::Write as _;

    let render_diag = |e: crate::lang::Diagnostics| -> String { e.render(source) };

    match cli.command {
        Command::Analyze => {
            let program = crate::ir::compile_to_ir(source).map_err(render_diag)?;
            let mut session = crate::core::AnalysisSession::new(&program);
            if let Some(dir) = &cli.cache_dir {
                let cache = crate::core::DiskCache::open(dir)
                    .map_err(|e| format!("cannot open cache `{dir}`: {e}"))?;
                session.attach_disk_cache(std::sync::Arc::new(cache));
            }
            session.set_audit_label(&cli.file);
            let session = session;
            let mut trace_note = None;
            let outcome = match &cli.trace_out {
                Some(path) => {
                    let sink = crate::core::obs::TraceSink::new();
                    let outcome = session
                        .analyze_checked_obs(&cli.config, &sink)
                        .map_err(|e| e.to_string())?;
                    let snapshot = sink.snapshot();
                    let json = crate::core::obs::chrome_trace_json(&snapshot);
                    std::fs::write(path, &json)
                        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                    trace_note = Some(format!(
                        "trace: {} spans, {} transitions written to {path}",
                        snapshot.spans.len(),
                        snapshot.transitions.len()
                    ));
                    outcome
                }
                None => session
                    .analyze_checked(&cli.config)
                    .map_err(|e| e.to_string())?,
            };
            // One renderer for the CLI and the serve daemon keeps their
            // outputs byte-identical (only fuel-limited runs that
            // actually degraded say anything beyond the default).
            let mut out = report::analyze_to_string(&outcome);
            if cli.timings {
                let _ = write!(
                    out,
                    "\nphase timings (analysis session):\n{}",
                    session.stats()
                );
                // Cache traffic rides on --timings so default output
                // stays byte-identical with and without --cache-dir.
                if let Some(cache) = session.disk_cache() {
                    let _ = writeln!(out, "disk cache: {}", cache.stats());
                }
                // Miss-reason attribution from the incrementality audit
                // (`ipcp why` has the per-phase breakdown).
                let miss_reasons = session.stats().miss_reasons;
                if !miss_reasons.is_empty() {
                    let rendered: Vec<String> = miss_reasons
                        .iter()
                        .map(|(label, n)| format!("{label} {n}"))
                        .collect();
                    let _ = writeln!(out, "miss reasons: {}", rendered.join(", "));
                }
                // Memory figures of the scaling study: process peak RSS
                // (when procfs exposes it) and the jump-function arena's
                // high-water mark.
                if let Some(peak) = crate::core::obs::peak_rss_bytes() {
                    let _ = writeln!(out, "peak RSS: {} KiB", peak / 1024);
                }
                let _ = writeln!(
                    out,
                    "jump-function arena high-water: {} entries",
                    crate::core::arena_high_water()
                );
            }
            if let Some(note) = trace_note {
                let _ = writeln!(out, "\n{note}");
            }
            Ok(out)
        }
        Command::Run => {
            let program = crate::ir::compile_to_ir(source).map_err(render_diag)?;
            let config = crate::lang::interp::InterpConfig {
                input: cli.input.clone(),
                ..Default::default()
            };
            let outcome = crate::ir::eval::run(&program, &config).map_err(|e| e.to_string())?;
            let mut out = String::new();
            for v in &outcome.output {
                let _ = writeln!(out, "{v}");
            }
            Ok(out)
        }
        Command::Ir => {
            let program = crate::ir::compile_to_ir(source).map_err(render_diag)?;
            Ok(crate::ir::print::program_to_string(&program))
        }
        Command::Transform => {
            let out = crate::core::transform_source(source, &cli.config).map_err(render_diag)?;
            Ok(format!(
                "# {} occurrences substituted\n{}",
                out.substitutions, out.source
            ))
        }
        Command::Optimize => {
            let program = crate::ir::compile_to_ir(source).map_err(render_diag)?;
            let config = crate::core::OptimizeConfig {
                analysis: cli.config,
                clone_procedures: cli.clone_procedures,
                ..Default::default()
            };
            let (optimized, stats) = crate::core::optimize(&program, &config);
            let mut out = format!(
                "# {} operands substituted, {} clones, {} rounds, {} -> {} instructions\n",
                stats.substituted_operands,
                stats.clones_created,
                stats.rounds,
                stats.instrs_before,
                stats.instrs_after
            );
            out.push_str(&crate::ir::print::program_to_string(&optimized));
            Ok(out)
        }
        Command::Clones => {
            let program = crate::ir::compile_to_ir(source).map_err(render_diag)?;
            Ok(crate::core::clone_report(&program, &cli.config))
        }
        Command::Explain => {
            let program = crate::ir::compile_to_ir(source).map_err(render_diag)?;
            let proc = cli
                .explain_proc
                .as_deref()
                .ok_or_else(|| internal_usage("explain reached execution without a procedure"))?;
            crate::core::serve::render_explain(
                &program,
                &cli.config,
                proc,
                cli.explain_param.as_deref(),
            )
        }
        Command::Metrics => {
            let program = crate::ir::compile_to_ir(source).map_err(render_diag)?;
            let mut session = crate::core::AnalysisSession::new(&program);
            if let Some(dir) = &cli.cache_dir {
                let cache = crate::core::DiskCache::open(dir)
                    .map_err(|e| format!("cannot open cache `{dir}`: {e}"))?;
                session.attach_disk_cache(std::sync::Arc::new(cache));
            }
            session.set_audit_label(&cli.file);
            let session = session;
            let sink = crate::core::obs::TraceSink::new();
            session
                .analyze_checked_obs(&cli.config, &sink)
                .map_err(|e| e.to_string())?;
            let mut out = crate::core::obs::prometheus_text(&sink.snapshot());
            // Attribution reads the round-0 artifacts the analysis just
            // left in the session's store.
            let a = session
                .provenance(&cli.config, &crate::core::obs::NoopSink)
                .attribution;
            out.push_str(
                "# HELP ipcp_substitutions_by_level Substitutions attributed to each \
                 jump-function provenance level.\n\
                 # TYPE ipcp_substitutions_by_level gauge\n",
            );
            for (label, n) in [
                ("literal", a.literal),
                ("intraprocedural", a.intraprocedural),
                ("pass_through", a.pass_through),
                ("polynomial", a.polynomial),
                ("local", a.local),
            ] {
                let _ = writeln!(out, "ipcp_substitutions_by_level{{level=\"{label}\"}} {n}");
            }
            out.push_str(
                "# HELP ipcp_jumpfn_arena_high_water Peak jump-function arena size \
                 (entries) across the process.\n\
                 # TYPE ipcp_jumpfn_arena_high_water gauge\n",
            );
            let _ = writeln!(
                out,
                "ipcp_jumpfn_arena_high_water {}",
                crate::core::arena_high_water()
            );
            if let Some(peak) = crate::core::obs::peak_rss_bytes() {
                out.push_str(
                    "# HELP ipcp_peak_rss_bytes Process peak resident set size.\n\
                     # TYPE ipcp_peak_rss_bytes gauge\n",
                );
                let _ = writeln!(out, "ipcp_peak_rss_bytes {peak}");
            }
            let miss_reasons = session.stats().miss_reasons;
            if !miss_reasons.is_empty() {
                out.push_str(
                    "# HELP ipcp_miss_reason_total Recomputed artifacts by miss reason \
                     (incrementality audit).\n\
                     # TYPE ipcp_miss_reason_total counter\n",
                );
                for (label, n) in &miss_reasons {
                    let _ = writeln!(out, "ipcp_miss_reason_total{{reason=\"{label}\"}} {n}");
                }
            }
            if let Some(cache) = session.disk_cache() {
                let cs = cache.stats();
                out.push_str(
                    "# HELP ipcp_diskcache_operations_total Persistent-cache traffic of \
                     this run.\n\
                     # TYPE ipcp_diskcache_operations_total counter\n",
                );
                for (op, n) in [
                    ("hits", cs.hits),
                    ("misses", cs.misses),
                    ("writes", cs.writes),
                    ("write_errors", cs.write_errors),
                    ("quarantined", cs.quarantined),
                    ("evicted", cs.evicted),
                    ("pack_loads", cs.pack_loads),
                    ("pack_misses", cs.pack_misses),
                    ("pack_writes", cs.pack_writes),
                ] {
                    let _ = writeln!(out, "ipcp_diskcache_operations_total{{op=\"{op}\"}} {n}");
                }
            }
            Ok(out)
        }
        Command::Why => {
            let program = crate::ir::compile_to_ir(source).map_err(render_diag)?;
            let mut session = crate::core::AnalysisSession::new(&program);
            let dir = cli
                .cache_dir
                .as_deref()
                .ok_or_else(|| internal_usage("why reached execution without --cache-dir"))?;
            let cache = crate::core::DiskCache::open(dir)
                .map_err(|e| format!("cannot open cache `{dir}`: {e}"))?;
            session.attach_disk_cache(std::sync::Arc::new(cache));
            session.set_audit_label(&cli.file);
            let session = session;
            session
                .analyze_checked(&cli.config)
                .map_err(|e| e.to_string())?;
            let audit = session
                .last_audit()
                .ok_or_else(|| "no incrementality audit available (metered run?)".to_string())?;
            Ok(audit.render(cli.why_filter.as_deref()))
        }
        Command::Fuzz => {
            use crate::suite::fuzz::{run_fuzz, FuzzConfig};
            let config = FuzzConfig {
                iters: cli.fuzz_iters,
                seed: cli.fuzz_seed,
                jobs: cli.config.jobs.max(1),
                levels: cli.fuzz_levels.clone(),
                corpus_dir: cli.fuzz_corpus_dir.as_ref().map(std::path::PathBuf::from),
                ..FuzzConfig::default()
            };
            let report = match &cli.trace_out {
                Some(path) => {
                    let sink = crate::core::obs::TraceSink::new();
                    let report = run_fuzz(&config, &sink);
                    let json = crate::core::obs::chrome_trace_json(&sink.snapshot());
                    std::fs::write(path, &json)
                        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                    report
                }
                None => run_fuzz(&config, &crate::core::obs::NoopSink),
            };
            let ladder: Vec<&str> = config.levels.iter().map(|l| l.name()).collect();
            let mut out = format!(
                "fuzz: seed {} at levels {}\n{}\n",
                cli.fuzz_seed,
                ladder.join("/"),
                report.summary()
            );
            for v in &report.violations {
                let _ = writeln!(
                    out,
                    "VIOLATION [{} @ {}] seed {:#018x}: {}",
                    v.oracle, v.level, v.seed, v.detail
                );
            }
            for path in &report.repro_paths {
                let _ = writeln!(out, "repro written: {}", path.display());
            }
            if report.violations.is_empty() {
                Ok(out)
            } else {
                Err(out)
            }
        }
        Command::Cache => {
            let dir = cli
                .cache_dir
                .as_deref()
                .ok_or_else(|| internal_usage("cache reached execution without --cache-dir"))?;
            let action = cli
                .cache_action
                .ok_or_else(|| internal_usage("cache reached execution without an action"))?;
            let cache = crate::core::DiskCache::open(dir)
                .map_err(|e| format!("cannot open cache `{dir}`: {e}"))?;
            match action {
                CacheAction::Stats => Ok(format!(
                    "cache {dir}: {} entries, {} summary packs, {} bytes, {} quarantined\n",
                    cache.entry_count(),
                    cache.pack_count(),
                    cache.total_bytes(),
                    cache.quarantine_count()
                )),
                CacheAction::Verify => {
                    let outcome = cache.verify();
                    Ok(format!(
                        "cache verify: {} valid, {} quarantined; summary packs: {} valid, \
                         {} quarantined\n",
                        outcome.valid,
                        outcome.quarantined,
                        outcome.packs_valid,
                        outcome.packs_quarantined
                    ))
                }
                CacheAction::Clear => {
                    let removed = cache.clear();
                    Ok(format!("cache clear: {removed} files removed\n"))
                }
            }
        }
        Command::Serve => {
            let socket = cli
                .socket
                .as_deref()
                .ok_or_else(|| internal_usage("serve reached execution without --socket"))?;
            let config = crate::core::serve::ServeConfig {
                socket: socket.into(),
                cache_dir: cli.cache_dir.as_deref().map(Into::into),
                max_tenant_bytes: cli.max_tenant_bytes,
                max_inflight: cli.max_inflight,
                jobs: cli.config.jobs,
            };
            let summary = crate::core::serve::run(config).map_err(|e| format!("serve: {e}"))?;
            Ok(format!(
                "serve: {} requests served ({} overloaded), {} tenants resident, \
                 {} evicted; clean shutdown\n",
                summary.requests, summary.overloaded, summary.tenants, summary.evictions
            ))
        }
        Command::Lint => {
            let program = crate::ir::compile_to_ir(source).map_err(render_diag)?;
            let cg = CallGraph::new(&program);
            let modref = compute_modref(&program, &cg);
            let violations = crate::analysis::check_aliasing(&program, &modref);
            if violations.is_empty() {
                Ok("no aliasing violations\n".into())
            } else {
                let mut out = String::new();
                for v in &violations {
                    let _ = writeln!(
                        out,
                        "{}: call to `{}`: {}",
                        program.proc(v.caller).name,
                        program.proc(v.callee).name,
                        v.kind
                    );
                }
                Err(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const PROGRAM: &str = "proc f(a)\n  print(a)\nend\nmain\n  call f(5)\nend\n";

    #[test]
    fn parse_minimal() {
        let cli = parse_args(&args(&["analyze", "x.mf"])).unwrap();
        assert_eq!(cli.command, Command::Analyze);
        assert_eq!(cli.file, "x.mf");
        // The CLI upgrades the library's conservative jobs default to
        // every available core; everything else is untouched.
        let expected = AnalysisConfig {
            jobs: crate::core::Parallelism::auto().jobs,
            ..AnalysisConfig::default()
        };
        assert_eq!(cli.config, expected);
    }

    #[test]
    fn parse_jobs_flag() {
        let cli = parse_args(&args(&["analyze", "x.mf", "--jobs", "4"])).unwrap();
        assert_eq!(cli.config.jobs, 4);
        let cli = parse_args(&args(&["analyze", "x.mf", "--jobs", "0"])).unwrap();
        assert_eq!(cli.config.jobs, 0);
        assert!(parse_args(&args(&["analyze", "x.mf", "--jobs"])).is_err());
        assert!(parse_args(&args(&["analyze", "x.mf", "--jobs", "many"])).is_err());
        assert!(parse_args(&args(&["analyze", "x.mf", "--jobs", "-2"])).is_err());
    }

    #[test]
    fn parse_all_flags() {
        let cli = parse_args(&args(&[
            "analyze",
            "x.mf",
            "--jf",
            "pass",
            "--no-rjf",
            "--no-mod",
            "--complete",
            "--composition",
            "--gsa",
            "--binding-solver",
        ]))
        .unwrap();
        assert_eq!(cli.config.jump_function, JumpFunctionKind::PassThrough);
        assert!(!cli.config.return_jump_functions);
        assert!(!cli.config.mod_info);
        assert!(cli.config.complete_propagation);
        assert!(cli.config.rjf_full_composition);
        assert!(cli.config.gsa);
        assert_eq!(cli.config.solver, SolverKind::BindingGraph);
    }

    #[test]
    fn parse_input_list() {
        let cli = parse_args(&args(&["run", "x.mf", "--input", "1,2, 3"])).unwrap();
        assert_eq!(cli.input, vec![1, 2, 3]);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["bogus", "x.mf"])).is_err());
        assert!(parse_args(&args(&["analyze"])).is_err());
        assert!(parse_args(&args(&["analyze", "x.mf", "--jf"])).is_err());
        assert!(parse_args(&args(&["analyze", "x.mf", "--jf", "magic"])).is_err());
        assert!(parse_args(&args(&["analyze", "x.mf", "--wat"])).is_err());
        assert!(parse_args(&args(&["run", "x.mf", "--input", "1,x"])).is_err());
        let err = parse_args(&args(&[])).unwrap_err();
        assert!(err.to_string().contains("usage:"));
    }

    #[test]
    fn parse_fuel_flags() {
        let cli = parse_args(&args(&[
            "analyze",
            "x.mf",
            "--fuel",
            "10000",
            "--on-exhausted",
            "error",
        ]))
        .unwrap();
        assert_eq!(cli.config.fuel, Some(10000));
        assert_eq!(cli.config.on_exhausted, ExhaustionPolicy::Error);
        let cli = parse_args(&args(&["analyze", "x.mf", "--on-exhausted", "degrade"])).unwrap();
        assert_eq!(cli.config.on_exhausted, ExhaustionPolicy::Degrade);
        assert_eq!(cli.config.fuel, None);
    }

    #[test]
    fn parse_fuel_errors() {
        assert!(parse_args(&args(&["analyze", "x.mf", "--fuel"])).is_err());
        assert!(parse_args(&args(&["analyze", "x.mf", "--fuel", "lots"])).is_err());
        assert!(parse_args(&args(&["analyze", "x.mf", "--fuel", "-3"])).is_err());
        assert!(parse_args(&args(&["analyze", "x.mf", "--on-exhausted"])).is_err());
        assert!(parse_args(&args(&["analyze", "x.mf", "--on-exhausted", "panic"])).is_err());
        let err = parse_args(&args(&["analyze", "x.mf", "--fuel", "lots"])).unwrap_err();
        assert!(err.to_string().contains("bad --fuel value"), "{err}");
    }

    #[test]
    fn execute_analyze_starved_degrades() {
        let cli = parse_args(&args(&["analyze", "x.mf", "--fuel", "0"])).unwrap();
        let out = execute(&cli, PROGRAM).unwrap();
        assert!(out.contains("robustness:"), "{out}");
        assert!(out.contains("exhausted"), "{out}");
        // Degraded result is coarser, never wrong: no constants claimed.
        assert!(out.contains("no interprocedural constants"), "{out}");
    }

    #[test]
    fn execute_analyze_starved_error_policy() {
        let cli = parse_args(&args(&[
            "analyze",
            "x.mf",
            "--fuel",
            "0",
            "--on-exhausted",
            "error",
        ]))
        .unwrap();
        let err = execute(&cli, PROGRAM).unwrap_err();
        assert!(err.contains("fuel exhausted"), "{err}");
    }

    #[test]
    fn execute_analyze_ample_fuel_is_clean() {
        let plain = parse_args(&args(&["analyze", "x.mf"])).unwrap();
        let fueled = parse_args(&args(&["analyze", "x.mf", "--fuel", "1000000"])).unwrap();
        let a = execute(&plain, PROGRAM).unwrap();
        let b = execute(&fueled, PROGRAM).unwrap();
        assert_eq!(a, b, "ample fuel must not change output");
        assert!(!a.contains("robustness:"));
    }

    #[test]
    fn execute_analyze() {
        let cli = parse_args(&args(&["analyze", "x.mf"])).unwrap();
        let out = execute(&cli, PROGRAM).unwrap();
        assert!(out.contains("CONSTANTS(f)"), "{out}");
        assert!(out.contains("a = 5"), "{out}");
    }

    /// A constant predicate guards a dispatch: only `--level cond` may
    /// prune the dead call edge and recover the callee constant.
    const DISPATCH: &str = "proc kernel(k)\n  print((k + 1))\nend\nproc dispatch(mode)\n  if (mode == 1) then\n    call kernel(3)\n  else\n    call kernel(9)\n  end\nend\nmain\n  call dispatch(1)\nend\n";

    #[test]
    fn execute_analyze_level_cond_prunes_infeasible_edges() {
        let poly = parse_args(&args(&["analyze", "x.mf", "--level", "poly"])).unwrap();
        let out = execute(&poly, DISPATCH).unwrap();
        assert!(!out.contains("CONSTANTS(kernel)"), "{out}");
        assert!(!out.contains("pruned call edges"), "{out}");

        let cond = parse_args(&args(&["analyze", "x.mf", "--level", "cond"])).unwrap();
        let out = execute(&cond, DISPATCH).unwrap();
        assert!(out.contains("CONSTANTS(kernel)"), "{out}");
        assert!(out.contains("k = 3"), "{out}");
        assert!(out.contains("pruned call edges: 1"), "{out}");
    }

    #[test]
    fn execute_explain_level_cond_justifies_the_surviving_edge() {
        let cli = parse_args(&args(&[
            "explain", "x.mf", "kernel", "k", "--level", "cond",
        ]))
        .unwrap();
        let out = execute(&cli, DISPATCH).unwrap();
        assert!(out.contains("kernel.k = 3"), "{out}");
        assert!(out.contains("dispatch"), "{out}");
    }

    #[test]
    fn parse_and_execute_timings() {
        let plain = parse_args(&args(&["analyze", "x.mf"])).unwrap();
        assert!(!plain.timings);
        let cli = parse_args(&args(&["analyze", "x.mf", "--timings"])).unwrap();
        assert!(cli.timings);
        let out = execute(&cli, PROGRAM).unwrap();
        assert!(out.contains("phase timings"), "{out}");
        assert!(out.contains("ssa"), "{out}");
        assert!(out.contains("misses"), "{out}");
        // Without the flag the output is unchanged.
        let quiet = execute(&plain, PROGRAM).unwrap();
        assert!(!quiet.contains("phase timings"), "{quiet}");
    }

    #[test]
    fn execute_run() {
        let cli = parse_args(&args(&["run", "x.mf"])).unwrap();
        let out = execute(&cli, PROGRAM).unwrap();
        assert_eq!(out, "5\n");
    }

    #[test]
    fn execute_run_with_input() {
        let cli = parse_args(&args(&["run", "x.mf", "--input", "9"])).unwrap();
        let out = execute(&cli, "main\n  read(x)\n  print(x + 1)\nend\n").unwrap();
        assert_eq!(out, "10\n");
    }

    #[test]
    fn execute_ir_and_transform() {
        let cli = parse_args(&args(&["ir", "x.mf"])).unwrap();
        let out = execute(&cli, PROGRAM).unwrap();
        assert!(out.contains("call f"), "{out}");

        let cli = parse_args(&args(&["transform", "x.mf"])).unwrap();
        let out = execute(&cli, PROGRAM).unwrap();
        assert!(out.contains("occurrences substituted"), "{out}");
        assert!(out.contains("print(5)"), "{out}");
    }

    #[test]
    fn execute_optimize() {
        let cli = parse_args(&args(&["optimize", "x.mf", "--clone"])).unwrap();
        assert!(cli.clone_procedures);
        let src = "proc f(a)\n  print(a)\nend\nmain\n  call f(1)\n  call f(2)\nend\n";
        let out = execute(&cli, src).unwrap();
        assert!(out.contains("clones"), "{out}");
        assert!(out.contains("f__c1"), "{out}");
    }

    #[test]
    fn execute_clones() {
        let cli = parse_args(&args(&["clones", "x.mf"])).unwrap();
        let src = "proc f(a)\n  print(a)\nend\nmain\n  call f(1)\n  call f(2)\nend\n";
        let out = execute(&cli, src).unwrap();
        assert!(out.contains("clone `f`"), "{out}");
    }

    #[test]
    fn execute_clones_honours_analysis_flags() {
        let clones = |flags: &[&str]| {
            let mut words = vec!["clones", "x.mf"];
            words.extend_from_slice(flags);
            let cli = parse_args(&args(&words)).unwrap();
            execute(&cli, CLONE_FLAGS_PROGRAM).unwrap()
        };
        let both = "clone `f` on a: 2 (1 site(s)), 5 (1 site(s)) → 2 clones\n";
        let one = "clone `f` on a: 2 (1 site(s)), non-constant (1 site(s)) → 2 clones\n";
        assert_eq!(clones(&[]), both);
        // Without MOD information `call touch()` may write `g`; without
        // return jump functions `init`'s store to `g` is lost.
        assert_eq!(clones(&["--no-mod"]), one);
        assert_eq!(clones(&["--no-rjf"]), one);
        // No forward jump functions, nothing to clone.
        assert_eq!(
            clones(&["--intraprocedural"]),
            "(no cloning opportunities)\n"
        );
    }

    /// `f` receives `g` (5 after `init`, kept across `touch` by MOD
    /// information) at one site and 2 at the other.
    const CLONE_FLAGS_PROGRAM: &str = "\
global g
proc init()
  g = 5
end
proc touch()
  print(0)
end
proc f(a)
  print(a)
end
main
  call init()
  call touch()
  call f(g)
  call f(2)
end
";

    #[test]
    fn execute_lint() {
        let cli = parse_args(&args(&["lint", "x.mf"])).unwrap();
        assert!(execute(&cli, PROGRAM).unwrap().contains("no aliasing"));
        let bad = "proc f(a, b)\n  a = 1\nend\nmain\n  call f(x, x)\nend\n";
        let err = execute(&cli, bad).unwrap_err();
        assert!(err.contains("passed by reference"), "{err}");
    }

    const GLOBALS_PROGRAM: &str = "\
global n\n\
proc init()\n  n = 64\nend\n\
proc compute(k)\n  print(n + k)\nend\n\
main\n  call init()\n  call compute(8)\nend\n";

    #[test]
    fn parse_explain_positionals() {
        let cli = parse_args(&args(&["explain", "x.mf", "compute", "k"])).unwrap();
        assert_eq!(cli.command, Command::Explain);
        assert_eq!(cli.explain_proc.as_deref(), Some("compute"));
        assert_eq!(cli.explain_param.as_deref(), Some("k"));
        let cli = parse_args(&args(&["explain", "x.mf", "compute"])).unwrap();
        assert_eq!(cli.explain_param, None);
        assert!(parse_args(&args(&["explain", "x.mf"])).is_err());
        assert!(parse_args(&args(&["explain", "x.mf", "a", "b", "c"])).is_err());
        // Positionals are rejected everywhere else.
        assert!(parse_args(&args(&["analyze", "x.mf", "stray"])).is_err());
    }

    #[test]
    fn execute_explain() {
        let cli = parse_args(&args(&["explain", "x.mf", "compute", "k"])).unwrap();
        let out = execute(&cli, GLOBALS_PROGRAM).unwrap();
        assert!(out.contains("compute.k = 8"), "{out}");
        assert!(out.contains("<- main"), "{out}");
        // Without a parameter the whole procedure plus the attribution
        // table is reported.
        let cli = parse_args(&args(&["explain", "x.mf", "compute"])).unwrap();
        let out = execute(&cli, GLOBALS_PROGRAM).unwrap();
        assert!(out.contains("compute.n = 64"), "{out}");
        assert!(out.contains("substitutions by provenance level"), "{out}");
        // Unknown names are errors.
        let cli = parse_args(&args(&["explain", "x.mf", "nosuch"])).unwrap();
        assert!(execute(&cli, GLOBALS_PROGRAM).is_err());
    }

    #[test]
    fn execute_metrics() {
        let cli = parse_args(&args(&["metrics", "x.mf"])).unwrap();
        let out = execute(&cli, GLOBALS_PROGRAM).unwrap();
        assert!(out.contains("ipcp_spans_total"), "{out}");
        assert!(out.contains("ipcp_phase_self_time_microseconds"), "{out}");
        assert!(
            out.contains("ipcp_substitutions_by_level{level=\"literal\"}"),
            "{out}"
        );
    }

    #[test]
    fn parse_why() {
        let cli = parse_args(&args(&["why", "x.mf", "--cache-dir", "d"])).unwrap();
        assert_eq!(cli.command, Command::Why);
        assert_eq!(cli.why_filter, None);
        assert_eq!(cli.cache_dir.as_deref(), Some("d"));
        let cli = parse_args(&args(&["why", "x.mf", "ssa", "--cache-dir", "d"])).unwrap();
        assert_eq!(cli.why_filter.as_deref(), Some("ssa"));
        // --cache-dir is mandatory and at most one filter is accepted.
        assert!(parse_args(&args(&["why", "x.mf"])).is_err());
        assert!(parse_args(&args(&["why", "x.mf", "a", "b", "--cache-dir", "d"])).is_err());
    }

    #[test]
    fn parse_serve() {
        let cli = parse_args(&args(&["serve", "--socket", "/tmp/ipcp.sock"])).unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.socket.as_deref(), Some("/tmp/ipcp.sock"));
        assert_eq!(cli.max_inflight, crate::core::serve::DEFAULT_MAX_INFLIGHT);
        assert_eq!(cli.max_tenant_bytes, None);
        let cli = parse_args(&args(&[
            "serve",
            "--socket",
            "s.sock",
            "--max-inflight",
            "3",
            "--max-tenant-bytes",
            "4096",
            "--cache-dir",
            "d",
        ]))
        .unwrap();
        assert_eq!(cli.max_inflight, 3);
        assert_eq!(cli.max_tenant_bytes, Some(4096));
        assert_eq!(cli.cache_dir.as_deref(), Some("d"));
        // --socket is mandatory, positionals are rejected, and the
        // numeric flags validate their arguments.
        assert!(parse_args(&args(&["serve"])).is_err());
        assert!(parse_args(&args(&["serve", "x.mf", "--socket", "s"])).is_err());
        assert!(parse_args(&args(&["serve", "--socket", "s", "--max-inflight", "lots"])).is_err());
        assert!(parse_args(&args(&["serve", "--socket", "s", "--max-tenant-bytes"])).is_err());
    }

    /// The four execution arms that rely on parser-enforced invariants
    /// must degrade to a usage error — never panic — when handed a
    /// hand-constructed [`Cli`] that violates them (e.g. from a library
    /// caller bypassing `parse_args`).
    #[test]
    fn execute_degrades_gracefully_on_parser_executor_drift() {
        let base = parse_args(&args(&["analyze", "x.mf"])).unwrap();
        let cases = [
            Cli {
                command: Command::Explain,
                explain_proc: None,
                ..base.clone()
            },
            Cli {
                command: Command::Why,
                cache_dir: None,
                ..base.clone()
            },
            Cli {
                command: Command::Cache,
                cache_dir: None,
                cache_action: Some(CacheAction::Stats),
                ..base.clone()
            },
            Cli {
                command: Command::Cache,
                cache_dir: Some("unused".into()),
                cache_action: None,
                ..base.clone()
            },
            Cli {
                command: Command::Serve,
                socket: None,
                ..base.clone()
            },
        ];
        for cli in cases {
            let err = execute(&cli, PROGRAM)
                .expect_err(&format!("{:?} must fail, not succeed", cli.command));
            assert!(
                err.contains("internal usage error"),
                "{:?}: {err}",
                cli.command
            );
        }
    }

    #[test]
    fn execute_why_attributes_an_edit() {
        let dir = temp_cache_dir("why");
        let dir_str = dir.to_string_lossy().into_owned();
        let why = parse_args(&args(&["why", "x.mf", "--cache-dir", &dir_str])).unwrap();
        let cold = execute(&why, GLOBALS_PROGRAM).unwrap();
        assert!(cold.contains("first analysis under this label"), "{cold}");
        assert!(cold.contains("first computation"), "{cold}");
        // Edit only `compute`; its closure is itself plus its caller.
        let edited = GLOBALS_PROGRAM.replace("print(n + k)", "print(n * k)");
        let out = execute(&why, &edited).unwrap();
        assert!(out.contains("changed procedures: compute"), "{out}");
        assert!(out.contains("input changed (procs: compute)"), "{out}");
        assert!(!out.contains("first computation"), "{out}");
        assert!(
            !out.contains("init:"),
            "init is outside the closure:\n{out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timings_reports_miss_reasons_with_cache_dir() {
        let dir = temp_cache_dir("timings-reasons");
        let dir_str = dir.to_string_lossy().into_owned();
        let cli = parse_args(&args(&[
            "analyze",
            "x.mf",
            "--cache-dir",
            &dir_str,
            "--timings",
        ]))
        .unwrap();
        let out = execute(&cli, GLOBALS_PROGRAM).unwrap();
        assert!(out.contains("miss reasons: first-computation"), "{out}");
        // A warm re-run recomputes nothing, so the line disappears.
        let warm = execute(&cli, GLOBALS_PROGRAM).unwrap();
        assert!(!warm.contains("miss reasons:"), "{warm}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn execute_metrics_with_cache_dir_reports_disk_counters() {
        let dir = temp_cache_dir("metrics-disk");
        let dir_str = dir.to_string_lossy().into_owned();
        let cli = parse_args(&args(&["metrics", "x.mf", "--cache-dir", &dir_str])).unwrap();
        let out = execute(&cli, GLOBALS_PROGRAM).unwrap();
        assert!(
            out.contains("ipcp_miss_reason_total{reason=\"first-computation\"}"),
            "{out}"
        );
        assert!(
            out.contains("ipcp_diskcache_operations_total{op=\"misses\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("ipcp_diskcache_operations_total{op=\"writes\"} 1"),
            "{out}"
        );
        // Warm run: served from disk, nothing recomputed.
        let warm = execute(&cli, GLOBALS_PROGRAM).unwrap();
        assert!(
            warm.contains("ipcp_diskcache_operations_total{op=\"hits\"} 1"),
            "{warm}"
        );
        assert!(!warm.contains("ipcp_miss_reason_total"), "{warm}");
        // Without --cache-dir the disk counter family is absent.
        let plain = parse_args(&args(&["metrics", "x.mf"])).unwrap();
        let out = execute(&plain, GLOBALS_PROGRAM).unwrap();
        assert!(!out.contains("ipcp_diskcache_operations_total"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_trace_out() {
        let cli = parse_args(&args(&["analyze", "x.mf", "--trace-out", "t.json"])).unwrap();
        assert_eq!(cli.trace_out.as_deref(), Some("t.json"));
        assert!(parse_args(&args(&["analyze", "x.mf", "--trace-out"])).is_err());
    }

    #[test]
    fn execute_analyze_trace_out_writes_valid_trace() {
        let path = std::env::temp_dir().join("ipcp_cli_trace_test.json");
        let path_str = path.to_string_lossy().into_owned();
        let cli = parse_args(&args(&["analyze", "x.mf", "--trace-out", &path_str])).unwrap();
        let out = execute(&cli, GLOBALS_PROGRAM).unwrap();
        assert!(out.contains("trace:"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let stats = crate::core::obs::validate_chrome_trace(&json).unwrap();
        assert!(stats.spans > 0, "{stats:?}");
        // The analysis result itself is unchanged by tracing.
        let plain = parse_args(&args(&["analyze", "x.mf"])).unwrap();
        let quiet = execute(&plain, GLOBALS_PROGRAM).unwrap();
        assert!(out.starts_with(&quiet), "traced output must extend plain");
    }

    #[test]
    fn parse_fuzz_takes_no_file() {
        let cli = parse_args(&args(&["fuzz"])).unwrap();
        assert_eq!(cli.command, Command::Fuzz);
        assert!(cli.file.is_empty());
        assert_eq!(cli.fuzz_iters, 100);
        assert_eq!(cli.fuzz_seed, 1993);
        assert_eq!(cli.fuzz_corpus_dir, None);
        let cli = parse_args(&args(&[
            "fuzz",
            "--iters",
            "25",
            "--seed",
            "42",
            "--jobs",
            "3",
            "--corpus-dir",
            "repros",
        ]))
        .unwrap();
        assert_eq!(cli.fuzz_iters, 25);
        assert_eq!(cli.fuzz_seed, 42);
        assert_eq!(cli.config.jobs, 3);
        assert_eq!(cli.fuzz_corpus_dir.as_deref(), Some("repros"));
        assert!(parse_args(&args(&["fuzz", "--iters"])).is_err());
        assert!(parse_args(&args(&["fuzz", "--iters", "lots"])).is_err());
        assert!(parse_args(&args(&["fuzz", "--seed", "x"])).is_err());
    }

    #[test]
    fn execute_fuzz_small_campaign_is_clean() {
        let cli = parse_args(&args(&["fuzz", "--iters", "15", "--seed", "11"])).unwrap();
        let out = execute(&cli, "").unwrap();
        assert!(out.contains("0 violations"), "{out}");
        assert!(out.contains("15 programs"), "{out}");
    }

    #[test]
    fn execute_reports_compile_errors() {
        let cli = parse_args(&args(&["analyze", "x.mf"])).unwrap();
        let err = execute(&cli, "main\ncall nope()\nend\n").unwrap_err();
        assert!(err.contains("unknown procedure"), "{err}");
    }

    #[test]
    fn parse_cache_command() {
        let cli = parse_args(&args(&["cache", "stats", "--cache-dir", "d"])).unwrap();
        assert_eq!(cli.command, Command::Cache);
        assert!(cli.file.is_empty());
        assert_eq!(cli.cache_action, Some(CacheAction::Stats));
        assert_eq!(cli.cache_dir.as_deref(), Some("d"));
        let cli = parse_args(&args(&["cache", "verify", "--cache-dir", "d"])).unwrap();
        assert_eq!(cli.cache_action, Some(CacheAction::Verify));
        let cli = parse_args(&args(&["cache", "clear", "--cache-dir", "d"])).unwrap();
        assert_eq!(cli.cache_action, Some(CacheAction::Clear));
        // Missing action, unknown action, extra args, missing dir.
        assert!(parse_args(&args(&["cache", "--cache-dir", "d"])).is_err());
        assert!(parse_args(&args(&["cache", "tidy", "--cache-dir", "d"])).is_err());
        assert!(parse_args(&args(&["cache", "stats", "extra", "--cache-dir", "d"])).is_err());
        assert!(parse_args(&args(&["cache", "stats"])).is_err());
        assert!(parse_args(&args(&["analyze", "x.mf", "--cache-dir"])).is_err());
    }

    fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ipcp-cli-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn execute_analyze_with_cache_dir_is_output_identical_warm_and_cold() {
        let dir = temp_cache_dir("warm");
        let dir_str = dir.to_string_lossy().into_owned();
        let plain = parse_args(&args(&["analyze", "x.mf"])).unwrap();
        let cached = parse_args(&args(&["analyze", "x.mf", "--cache-dir", &dir_str])).unwrap();
        let golden = execute(&plain, GLOBALS_PROGRAM).unwrap();
        let cold = execute(&cached, GLOBALS_PROGRAM).unwrap();
        let warm = execute(&cached, GLOBALS_PROGRAM).unwrap();
        assert_eq!(cold, golden, "cold cached run must match uncached output");
        assert_eq!(warm, golden, "warm cached run must match uncached output");
        // The warm run really came from disk: a fresh process-equivalent
        // session with --timings reports a diskcache hit.
        let timed = parse_args(&args(&[
            "analyze",
            "x.mf",
            "--cache-dir",
            &dir_str,
            "--timings",
        ]))
        .unwrap();
        let out = execute(&timed, GLOBALS_PROGRAM).unwrap();
        assert!(out.contains("diskcache"), "{out}");
        assert!(out.contains("disk cache: hits 1"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn execute_cache_stats_verify_clear() {
        let dir = temp_cache_dir("maint");
        let dir_str = dir.to_string_lossy().into_owned();
        // Populate the cache with one analysis.
        let analyze = parse_args(&args(&["analyze", "x.mf", "--cache-dir", &dir_str])).unwrap();
        execute(&analyze, GLOBALS_PROGRAM).unwrap();

        let stats = parse_args(&args(&["cache", "stats", "--cache-dir", &dir_str])).unwrap();
        let out = execute(&stats, "").unwrap();
        assert!(out.contains("1 entries"), "{out}");
        assert!(out.contains("0 quarantined"), "{out}");

        let verify = parse_args(&args(&["cache", "verify", "--cache-dir", &dir_str])).unwrap();
        let out = execute(&verify, "").unwrap();
        assert!(out.contains("1 valid, 0 quarantined"), "{out}");

        // Corrupt the entry; verify must quarantine it.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|d| d.path())
            .find(|p| p.extension().is_some_and(|e| e == "art"))
            .unwrap();
        let mut bytes = std::fs::read(&entry).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&entry, &bytes).unwrap();
        let out = execute(&verify, "").unwrap();
        assert!(out.contains("0 valid, 1 quarantined"), "{out}");

        let clear = parse_args(&args(&["cache", "clear", "--cache-dir", &dir_str])).unwrap();
        let out = execute(&clear, "").unwrap();
        assert!(out.contains("1 files removed"), "{out}");
        let out = execute(&stats, "").unwrap();
        assert!(out.contains("0 entries"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn execute_analyze_recovers_goldenly_from_corrupt_cache() {
        let dir = temp_cache_dir("corrupt");
        let dir_str = dir.to_string_lossy().into_owned();
        let plain = parse_args(&args(&["analyze", "x.mf"])).unwrap();
        let cached = parse_args(&args(&["analyze", "x.mf", "--cache-dir", &dir_str])).unwrap();
        let golden = execute(&plain, GLOBALS_PROGRAM).unwrap();
        execute(&cached, GLOBALS_PROGRAM).unwrap();
        // Truncate the entry mid-payload.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|d| d.path())
            .find(|p| p.extension().is_some_and(|e| e == "art"))
            .unwrap();
        let bytes = std::fs::read(&entry).unwrap();
        std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
        let recovered = execute(&cached, GLOBALS_PROGRAM).unwrap();
        assert_eq!(recovered, golden, "corruption must fall back to cold");
        let stats = parse_args(&args(&["cache", "stats", "--cache-dir", &dir_str])).unwrap();
        let out = execute(&stats, "").unwrap();
        assert!(out.contains("1 quarantined"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
