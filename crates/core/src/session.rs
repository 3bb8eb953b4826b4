//! Analysis sessions: a memoized, phase-split pass manager.
//!
//! The paper's study is inherently multi-configuration — Tables 2 and 3
//! analyze the *same* programs under 8+ jump-function/MOD/solver
//! configurations — yet a one-shot analysis rebuilds the call graph,
//! MOD/REF summaries, and per-procedure SSA from scratch on every
//! call. An [`AnalysisSession`] wraps one program and splits
//! the pipeline into individually cacheable phases:
//!
//! ```text
//! call graph ─┬─► MOD/REF ─► (augment) ─► per-proc SSA ─┬─► return JFs ─┐
//!             │                                         ├─► sym values ─┤
//!             │                                         │               ▼
//!             └─────────────────────────────────────────┴─► forward JFs ─► solve ─► substitute ─► DCE
//! ```
//!
//! Each artifact is keyed by content fingerprints of what it read,
//! together with *only the configuration facets that phase consults*:
//! SSA construction depends on `mod_info` but not on `jump_function`;
//! symbolic values additionally depend on `gsa` and the
//! return-jump-function evaluation mode; the solver depends on the JF
//! kind and solver choice but not on how SSA was built. Solver-level
//! artifacts read the whole program state. A per-procedure artifact
//! reads the procedure's own IR, the IR of the other members of its SCC,
//! the globals, and its callees only through their *summaries*: the
//! signature, the MOD and REF sets, and — when the phase consults them —
//! the return-jump-function table (the paper's `R`). A per-procedure key
//! therefore folds those and nothing else, so an edit that leaves a
//! callee's summary unchanged stops at the callee: its callers keep
//! their keys (*early cutoff*). Keys are resolved bottom-up, one SCC
//! wave at a time, because a caller's key needs its callees' table
//! fingerprints; each table's fingerprint is taken once, when it is
//! built, and stored beside it. A Table-2/3 sweep reuses SSA/MOD/RJF
//! work across columns, and *complete propagation* is incremental for
//! free: after a DCE round only the procedures whose IR changed, and
//! callers of procedures whose summaries changed, miss the cache.
//!
//! ## Fuel semantics
//!
//! Every run, metered or not, goes through the same round loop. Under an
//! *unmetered* budget ([`Budget::is_unmetered`]) artifacts come from the
//! store: a cached artifact records the fuel its computation consumed and
//! **replays** that amount (and any IR anomalies it recorded) on every
//! hit, so `RobustnessReport` matches a run that recomputed everything.
//! A *metered* budget (finite fuel, fault injectors) makes the run
//! sequential and store-less: degradation depends on the exact *order*
//! of fuel checkpoints, which a replayed hit would collapse into one, so
//! every phase recomputes its artifact on the run's own budget, and the
//! two jump-function phases hand the budget to
//! [`crate::retjf::build_return_jfs_budgeted`] and
//! [`crate::forward::build_forward_jfs_budgeted`], the builders that walk
//! the precision ladder. A metered run never touches the store, the disk
//! cache or the incrementality audit.
//!
//! ## Parallel execution
//!
//! With [`AnalysisConfig::jobs`] > 1, the per-procedure phases (SSA,
//! symbolic values, forward jump functions, DCE steps, substitution
//! counting) fan out over [`ipcp_analysis::par_map`]'s scoped worker
//! pool, bottom-up phases (MOD/REF, return jump functions) run SCC
//! condensation *waves* ([`ipcp_analysis::scc_waves`]) concurrently, and
//! results merge in deterministic `ProcId`/SCC order. Workers meter
//! their work on private scratch budgets; the coordinator *replays* each
//! item's fuel on the main budget in merge order, so consumption totals
//! — the only thing `RobustnessReport` exposes — are bit-identical to
//! the sequential path at any thread count. (Per-item fuel ordering is
//! unobservable under unmetered budgets: no checkpoint can fail, so no
//! degradation can fire. [`Budget`] is not `Sync`, which is why metered
//! runs stay at one job.) The artifact store sits behind per-map
//! `RwLock`s and stats behind a `Mutex`, making [`AnalysisSession`]
//! `Sync`: a config sweep may call [`AnalysisSession::analyze`] from
//! several threads against one shared store. Artifact *values* are
//! deterministic, so a racing double-compute inserts the same bytes;
//! only hit/miss counters can differ under concurrent sweeps.

use crate::audit::{
    classify_disk_miss, diff_ledgers, ledger_fp, outcome_facets_changed, render_facets,
    DiskOutcome, IncrementalAudit, Ledger, LedgerProc, RunRecord,
};
use crate::binding::solve_binding_budgeted;
use crate::driver::{
    honour_exhaustion_policy, AnalysisConfig, AnalysisOutcome, PhaseStats, ResourceExhausted,
    SolverKind,
};
use crate::forward::{
    build_forward_jfs_budgeted, kind_weight, proc_estimate, site_jfs_for_proc, ForwardJumpFns,
    SiteJumpFns,
};
use crate::jump::JumpFunctionKind;
use crate::pack::SummaryPack;
use crate::provenance::Provenance;
use crate::retjf::{
    build_return_jfs_budgeted, build_rjf_for_proc, ReturnJumpFns, RjfComposer, RjfConstEval,
    RjfLattice, RjfTable,
};
use crate::solver::{hash_entry_constants, solve_traced, ValSets};
use crate::subst::{count_one_proc, seeded_sccp, seeded_sccp_budgeted, SubstitutionCounts};
use ipcp_analysis::dce::dce_round_budgeted;
use ipcp_analysis::symeval::{
    symbolic_eval_budgeted, CallSymbolics, NoCallSymbolics, SymEvalOptions, SymMap,
};
use ipcp_analysis::{
    augment_global_vars, compute_modref_obs, par_map, par_map_obs, scc_waves, wave_jobs, Budget,
    CallGraph, CallLattice, ModKills, ModRefInfo, PessimisticCalls, Phase, SccpResult, Slot,
};
use ipcp_ir::codec::Wire;
use ipcp_ir::fingerprint::{combine, fingerprint, Fp128};
use ipcp_ir::{ProcId, Procedure, Program};
use ipcp_lang::Diagnostics;
use ipcp_obs::{NoopSink, ObsSink, SpanGuard};
use ipcp_ssa::{build_ssa, KillOracle, SsaProc, WorstCaseKills};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// The session's observable phases: the pipeline stages plus the
/// persistent cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SessionPhase {
    /// Content fingerprinting of the program and procedure closures.
    Fingerprint,
    /// Call graph construction.
    CallGraph,
    /// MOD/REF summary computation.
    ModRef,
    /// Per-procedure SSA construction.
    Ssa,
    /// Return jump function generation.
    ReturnJf,
    /// Per-procedure symbolic evaluation for forward generation.
    SymVals,
    /// Forward jump function construction.
    ForwardJf,
    /// Interprocedural propagation.
    Solve,
    /// Substitution counting.
    Subst,
    /// Complete-propagation SCCP + dead code elimination rounds.
    Dce,
    /// Persistent cross-run cache traffic (only when a
    /// [`DiskCache`](crate::diskcache::DiskCache) is attached).
    DiskCache,
}

impl SessionPhase {
    /// All phases, in pipeline order.
    pub const ALL: [SessionPhase; 11] = [
        SessionPhase::Fingerprint,
        SessionPhase::CallGraph,
        SessionPhase::ModRef,
        SessionPhase::Ssa,
        SessionPhase::ReturnJf,
        SessionPhase::SymVals,
        SessionPhase::ForwardJf,
        SessionPhase::Solve,
        SessionPhase::Subst,
        SessionPhase::Dce,
        SessionPhase::DiskCache,
    ];

    /// Stable lowercase name, used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            SessionPhase::Fingerprint => "fingerprint",
            SessionPhase::CallGraph => "callgraph",
            SessionPhase::ModRef => "modref",
            SessionPhase::Ssa => "ssa",
            SessionPhase::ReturnJf => "retjf",
            SessionPhase::SymVals => "symvals",
            SessionPhase::ForwardJf => "forward-jf",
            SessionPhase::Solve => "solve",
            SessionPhase::Subst => "subst",
            SessionPhase::Dce => "dce",
            SessionPhase::DiskCache => "diskcache",
        }
    }
}

impl fmt::Display for SessionPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock and cache traffic of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounter {
    /// Accumulated compute time spent in the phase, summed across worker
    /// threads (equals elapsed time when the phase ran sequentially).
    pub wall_nanos: u128,
    /// Coordinator-observed elapsed time of *parallel* fan-outs covering
    /// this phase (0 when it only ever ran sequentially). With workers
    /// active, `wall_nanos / span_nanos` approximates the parallel
    /// speedup.
    pub span_nanos: u128,
    /// Artifact-store hits.
    pub hits: u64,
    /// Artifact-store misses: artifacts computed (and inserted, unless
    /// the run was metered and so store-less).
    pub misses: u64,
}

/// Per-phase observability: wall clock plus cache hit/miss counters,
/// accumulated over every analysis the session ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Analyses run through the session, metered or not.
    pub analyses: u64,
    /// Pipeline rounds executed (≥ 1 per analysis not served by the disk
    /// cache; complete propagation adds one per DCE iteration).
    pub rounds: u64,
    /// Recomputed-artifact totals by
    /// [`MissReason::label`](crate::audit::MissReason::label),
    /// accumulated from every run's incrementality audit.
    pub miss_reasons: BTreeMap<String, u64>,
    counters: BTreeMap<SessionPhase, PhaseCounter>,
}

impl SessionStats {
    /// The counter of one phase (zeros when the phase never ran).
    pub fn counter(&self, phase: SessionPhase) -> PhaseCounter {
        self.counters.get(&phase).copied().unwrap_or_default()
    }

    /// Total artifact-store hits across phases.
    pub fn total_hits(&self) -> u64 {
        self.counters.values().map(|c| c.hits).sum()
    }

    /// Total artifact-store misses across phases.
    pub fn total_misses(&self) -> u64 {
        self.counters.values().map(|c| c.misses).sum()
    }

    fn record_wall(&mut self, phase: SessionPhase, elapsed: Duration) {
        self.counters.entry(phase).or_default().wall_nanos += elapsed.as_nanos();
    }

    fn record_span(&mut self, phase: SessionPhase, elapsed: Duration) {
        self.counters.entry(phase).or_default().span_nanos += elapsed.as_nanos();
    }

    fn hit(&mut self, phase: SessionPhase) {
        self.counters.entry(phase).or_default().hits += 1;
    }

    fn miss(&mut self, phase: SessionPhase) {
        self.counters.entry(phase).or_default().misses += 1;
    }

    fn traffic(&mut self, phase: SessionPhase, hits: u64, misses: u64) {
        let counter = self.counters.entry(phase).or_default();
        counter.hits += hits;
        counter.misses += misses;
    }

    /// Renders the stats as a JSON object (hand-rolled; the workspace
    /// carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"analyses\":{},\"rounds\":{},\"phases\":{{",
            self.analyses, self.rounds
        ));
        let mut first = true;
        for phase in SessionPhase::ALL {
            let c = self.counter(phase);
            if c == PhaseCounter::default() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"wall_us\":{},\"hits\":{},\"misses\":{}",
                phase.name(),
                c.wall_nanos / 1_000,
                c.hits,
                c.misses
            ));
            if c.span_nanos > 0 {
                out.push_str(&format!(",\"span_us\":{}", c.span_nanos / 1_000));
            }
            out.push('}');
        }
        out.push('}');
        if !self.miss_reasons.is_empty() {
            out.push_str(",\"miss_reasons\":{");
            let mut first = true;
            for (label, n) in &self.miss_reasons {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{label}\":{n}"));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

impl fmt::Display for SessionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "analyses: {}; rounds: {}", self.analyses, self.rounds)?;
        // Most expensive phases first: parallel span descending, then
        // accumulated wall time, then pipeline order as the stable tie.
        let mut ordered: Vec<(usize, SessionPhase, PhaseCounter)> = SessionPhase::ALL
            .iter()
            .enumerate()
            .map(|(i, &p)| (i, p, self.counter(p)))
            .filter(|(_, _, c)| *c != PhaseCounter::default())
            .collect();
        ordered.sort_by(|a, b| {
            b.2.span_nanos
                .cmp(&a.2.span_nanos)
                .then(b.2.wall_nanos.cmp(&a.2.wall_nanos))
                .then(a.0.cmp(&b.0))
        });
        let rows: Vec<[String; 6]> = ordered
            .into_iter()
            .map(|(_, phase, c)| {
                let (span, par) = if c.span_nanos > 0 {
                    (
                        (c.span_nanos / 1_000).to_string(),
                        format!("{:.1}x", c.wall_nanos as f64 / c.span_nanos as f64),
                    )
                } else {
                    ("-".to_string(), "-".to_string())
                };
                [
                    phase.name().to_string(),
                    (c.wall_nanos / 1_000).to_string(),
                    c.hits.to_string(),
                    c.misses.to_string(),
                    span,
                    par,
                ]
            })
            .collect();
        // Columns size to their widest cell (header included), so the
        // table never shifts when a value outgrows a fixed width.
        let headers = ["phase", "wall(µs)", "hits", "misses", "span(µs)", "par×"];
        let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.chars().count());
            }
        }
        write!(f, "{:<w$}", headers[0], w = widths[0])?;
        for (h, w) in headers.iter().zip(&widths).skip(1) {
            write!(f, " {h:>w$}")?;
        }
        writeln!(f)?;
        for row in &rows {
            write!(f, "{:<w$}", row[0], w = widths[0])?;
            for (cell, w) in row.iter().zip(&widths).skip(1) {
                write!(f, " {cell:>w$}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// How return jump functions feed the caller's symbolic evaluation — the
/// facet of the configuration that symbolic values and forward jump
/// functions actually read (`return_jump_functions`/`mod_info`/
/// `rjf_full_composition` collapse into this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CallSymMode {
    /// No recovery through calls (RJFs disabled *or* no MOD info).
    Pessimistic,
    /// The paper's constant-or-⊥ evaluation rule.
    ConstEval,
    /// The full-composition extension.
    Compose,
}

fn call_sym_mode(config: &AnalysisConfig) -> CallSymMode {
    if !(config.return_jump_functions && config.mod_info) {
        CallSymMode::Pessimistic
    } else if config.rjf_full_composition {
        CallSymMode::Compose
    } else {
        CallSymMode::ConstEval
    }
}

/// Key of a procedure's SSA form: its base key and `mod_info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SsaKey(u128);

/// Key of a procedure's return-jump-function table: its base key, the
/// facets the table is built under (`mod_info`, `gsa`) and the table
/// fingerprints of its SCC's callees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct RjfKey(pub(crate) u128);

/// Key of a procedure's symbolic values: its base key, `mod_info`,
/// `gsa`, the call-evaluation mode and — unless that mode ignores them —
/// its SCC's callee table fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct SymKey(u128);

/// Key of a procedure's forward jump-function site vector: the key of
/// the symbolic values it was built over, and the jump-function kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct ForwardKey(pub(crate) u128);

impl ForwardKey {
    fn new(sym: SymKey, kind: JumpFunctionKind) -> Self {
        ForwardKey(combine([sym.0, kind as u128]))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SolveKey {
    state_fp: u128,
    mod_info: bool,
    gsa: bool,
    mode: CallSymMode,
    kind: JumpFunctionKind,
    solver: SolverKind,
    /// Conditional propagation (branch feasibility) changes the `VAL`
    /// sets the solve produces.
    cond: bool,
}

/// Key of the per-procedure artifacts that run SCCP seeded with the
/// solved `VAL` sets — DCE steps and substitution counts. SCCP reads the
/// procedure's base key, the facets its SSA and call lattice were built
/// under (with the callee table fingerprints when calls go through the
/// return jump functions), and the entry constants
/// ([`hash_entry_constants`]: the same for every environment that seeds
/// SCCP with the same constants, the unseeded baseline included). A
/// column whose `VAL` sets leave a procedure's entry constants unchanged
/// reuses its artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct EntryKey(pub(crate) u128);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CountingKey {
    /// Fingerprint of the pristine program the count runs over.
    orig_fp: u128,
    /// Fingerprint of the final (post-DCE) state whose solve produced
    /// the seeding `VAL` sets.
    final_fp: u128,
    mod_info: bool,
    /// The `VAL` sets seeding the count were solved under this facet,
    /// even though the counting pass itself always uses default
    /// symbolic-evaluation options.
    gsa: bool,
    mode: CallSymMode,
    rjf: bool,
    forward: Option<(JumpFunctionKind, SolverKind, bool)>,
}

/// A cached artifact plus the fuel its computation consumed, replayed on
/// every hit so budget accounting matches the uncached pipeline.
struct Cached<T> {
    value: Arc<T>,
    fuel: u64,
}

impl<T> Clone for Cached<T> {
    fn clone(&self) -> Self {
        Cached {
            value: Arc::clone(&self.value),
            fuel: self.fuel,
        }
    }
}

/// `key`'s artifact in `map`, or `None` when the run is store-less
/// (`memo` false: a metered run).
fn lookup<K: Eq + Hash, V: Clone>(memo: bool, map: &RwLock<HashMap<K, V>>, key: &K) -> Option<V> {
    if !memo {
        return None;
    }
    map.read().expect("artifact store lock").get(key).cloned()
}

/// Inserts `value` under `key`, unless the run is store-less.
fn remember<K: Eq + Hash, V>(memo: bool, map: &RwLock<HashMap<K, V>>, key: K, value: V) {
    if memo {
        map.write().expect("artifact store lock").insert(key, value);
    }
}

/// Records `anomalies` (description → count) on `budget`, replaying what
/// a stored or scratch-metered computation found.
fn replay_anomalies(budget: &Budget, anomalies: &BTreeMap<String, u64>) {
    for (what, &count) in anomalies {
        for _ in 0..count {
            budget.record_anomaly(what);
        }
    }
}

/// Result of one SCCP + DCE step over a procedure.
pub(crate) struct DceStep {
    pub(crate) proc: Procedure,
    pub(crate) changed: bool,
    /// The malformed-IR shapes the step recovered from, for the caller
    /// to replay (empty when the step metered on the run's own budget).
    pub(crate) anomalies: BTreeMap<String, u64>,
}

/// One procedure's substitution count as a fan-out worker found it.
#[derive(Default)]
struct ProcCount {
    n: usize,
    /// Whether `n` was counted rather than read from the store.
    counted: bool,
    /// The key `n` was looked up (and, when counted, is inserted) under:
    /// `None` for unreachable procedures and store-less runs.
    key: Option<EntryKey>,
    /// Worker time, SSA lookup included.
    time: Duration,
    /// The SSA lookup of a computed count.
    ssa: PhaseTally,
}

/// One phase's store traffic and compute time, tallied by fan-out
/// workers and recorded on the session stats once per fan-out.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseTally {
    hits: u64,
    misses: u64,
    wall: Duration,
}

impl PhaseTally {
    /// Counts one lookup, a hit or a miss, and the time booked to it.
    fn add(&mut self, hit: bool, wall: Duration) {
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        self.wall += wall;
    }

    fn merge(&mut self, other: &PhaseTally) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.wall += other.wall;
    }

    /// Adds the tally to `phase`'s counter; a phase with no lookups is
    /// left untouched.
    fn record(&self, stats: &mut SessionStats, phase: SessionPhase) {
        if self.hits + self.misses > 0 {
            stats.traffic(phase, self.hits, self.misses);
            stats.record_wall(phase, self.wall);
        }
    }
}

/// The tallies of one per-procedure fan-out: SSA lookups, symbolic
/// values (forward fan-out only), and the phase the fan-out builds
/// (return or forward jump functions).
#[derive(Debug, Default, Clone, Copy)]
struct FanoutTally {
    ssa: PhaseTally,
    symvals: PhaseTally,
    main: PhaseTally,
}

impl FanoutTally {
    fn merge(&mut self, other: &FanoutTally) {
        self.ssa.merge(&other.ssa);
        self.symvals.merge(&other.symvals);
        self.main.merge(&other.main);
    }
}

/// A stored return-jump-function table: the fuel its computation
/// consumed, replayed on every hit, and its fingerprint — the table's
/// part of the procedure's summary — taken once, when it was built, so
/// a hit never re-hashes it.
#[derive(Clone)]
pub(crate) struct CachedRjf {
    pub(crate) value: Arc<RjfTable>,
    pub(crate) fuel: u64,
    pub(crate) fp: u128,
}

/// The session-scoped artifact store. Every map is keyed by content
/// fingerprints plus the configuration facets its phase reads; see the
/// module docs for the key structure.
///
/// Each map sits behind its own `RwLock`, so concurrent cache *hits*
/// (the common case in a warm sweep) only take read locks and never
/// serialize; writes hold one map's lock for a single insert.
#[derive(Default)]
pub struct ArtifactStore {
    call_graphs: RwLock<HashMap<u128, Arc<CallGraph>>>,
    modrefs: RwLock<HashMap<u128, Cached<ModRefInfo>>>,
    /// Per-procedure key components of the *augmented* program, by
    /// state fingerprint (augmentation is deterministic, so the state
    /// fingerprint determines them).
    states: RwLock<HashMap<u128, Arc<StateKeys>>>,
    ssas: RwLock<HashMap<SsaKey, Arc<SsaProc>>>,
    rjf_procs: RwLock<HashMap<RjfKey, CachedRjf>>,
    syms: RwLock<HashMap<SymKey, Cached<SymMap>>>,
    /// Forward site vectors, each with the fuel of the symbolic
    /// evaluation beneath it, replayed on a hit (the site vector records
    /// none of its own).
    forward_procs: RwLock<HashMap<ForwardKey, Cached<Vec<SiteJumpFns>>>>,
    solves: RwLock<HashMap<SolveKey, Cached<ValSets>>>,
    /// Per-procedure substitution counts.
    substs: RwLock<HashMap<EntryKey, usize>>,
    dces: RwLock<HashMap<EntryKey, Cached<DceStep>>>,
    countings: RwLock<HashMap<CountingKey, Cached<SubstitutionCounts>>>,
}

impl ArtifactStore {
    /// Total number of cached artifacts, across all phases.
    pub fn len(&self) -> usize {
        self.call_graphs.read().unwrap().len()
            + self.modrefs.read().unwrap().len()
            + self.states.read().unwrap().len()
            + self.ssas.read().unwrap().len()
            + self.rjf_procs.read().unwrap().len()
            + self.syms.read().unwrap().len()
            + self.forward_procs.read().unwrap().len()
            + self.solves.read().unwrap().len()
            + self.substs.read().unwrap().len()
            + self.dces.read().unwrap().len()
            + self.countings.read().unwrap().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A rough estimate of the store's resident bytes: ~2 KiB per
    /// artifact (outcome-sized artifacts dominate; per-procedure ones
    /// are much smaller), except substitution counts, which are counted
    /// at their real size — a key, a word and a hash-table control byte
    /// each.
    fn approx_bytes(&self) -> u64 {
        let counts = self.substs.read().expect("subst store lock").len();
        let per_count = std::mem::size_of::<(EntryKey, usize)>() + 1;
        ((self.len() - counts) * 2048 + counts * per_count) as u64
    }

    /// Seeds the store with a summary pack's segments, in file order.
    /// A later segment's artifact wins over an earlier one's, and an
    /// artifact the session already holds is kept: under one key all
    /// are the same bytes.
    fn seed(&self, segments: Vec<SummaryPack>) {
        let mut rjfs = self.rjf_procs.write().expect("rjf store lock");
        let mut forwards = self.forward_procs.write().expect("forward store lock");
        let mut substs = self.substs.write().expect("subst store lock");
        let mut dces = self.dces.write().expect("dce store lock");
        for pack in segments.into_iter().rev() {
            for (key, fuel, fp, value) in pack.rjfs {
                rjfs.entry(key).or_insert(CachedRjf { value, fuel, fp });
            }
            for (key, fuel, value) in pack.forwards {
                forwards.entry(key).or_insert(Cached { value, fuel });
            }
            for (key, n) in pack.substs {
                substs.entry(key).or_insert(n);
            }
            for (key, fuel, step) in pack.dces {
                dces.entry(key).or_insert(Cached { value: step, fuel });
            }
        }
    }

    /// The summary pack of `keys`: every listed artifact the store
    /// holds, each list sorted by key without duplicates, so equal key
    /// sets encode to equal bytes.
    fn pack_of(&self, keys: &PackKeys) -> SummaryPack {
        fn sorted<K: Ord + Copy>(keys: &[K]) -> Vec<K> {
            let mut keys = keys.to_vec();
            keys.sort_unstable();
            keys.dedup();
            keys
        }
        let mut pack = SummaryPack::default();
        let rjfs = self.rjf_procs.read().expect("rjf store lock");
        pack.rjfs = sorted(&keys.rjfs)
            .into_iter()
            .filter_map(|key| {
                let c = rjfs.get(&key)?;
                Some((key, c.fuel, c.fp, Arc::clone(&c.value)))
            })
            .collect();
        drop(rjfs);
        let forwards = self.forward_procs.read().expect("forward store lock");
        pack.forwards = sorted(&keys.forwards)
            .into_iter()
            .filter_map(|key| {
                let c = forwards.get(&key)?;
                Some((key, c.fuel, Arc::clone(&c.value)))
            })
            .collect();
        drop(forwards);
        let substs = self.substs.read().expect("subst store lock");
        pack.substs = sorted(&keys.substs)
            .into_iter()
            .filter_map(|key| Some((key, *substs.get(&key)?)))
            .collect();
        drop(substs);
        let dces = self.dces.read().expect("dce store lock");
        pack.dces = sorted(&keys.dces)
            .into_iter()
            .filter_map(|key| {
                let c = dces.get(&key)?;
                Some((key, c.fuel, Arc::clone(&c.value)))
            })
            .collect();
        pack
    }
}

/// The fingerprints of one program state: each procedure's own IR, the
/// global table and entry procedure, and their combination, the state
/// fingerprint. Computed once per state — for the pristine program, when
/// the session opens — and reused by every key built over the state.
#[derive(Clone, Default)]
pub(crate) struct ProgramState {
    /// The globals fingerprint and every procedure's, combined.
    pub(crate) fp: u128,
    globals: u128,
    /// Own-IR fingerprints, indexed by `ProcId::index()`.
    procs: Arc<Vec<u128>>,
}

impl ProgramState {
    /// Fingerprints `program`, its procedures on up to `jobs` workers.
    pub(crate) fn of(program: &Program, jobs: usize) -> Self {
        let procs: Vec<u128> = par_map(jobs, &program.procs, |_, p| fingerprint(p));
        let mut h = Fp128::new();
        program.globals.encode(&mut h);
        program.main.encode(&mut h);
        let globals = h.finish();
        ProgramState {
            fp: combine(std::iter::once(globals).chain(procs.iter().copied())),
            globals,
            procs: Arc::new(procs),
        }
    }
}

/// The per-procedure key components of one program state. Cache keys
/// read the base keys and signatures (see the module docs); the
/// incrementality audit's ledger records the own, closure and summary
/// fingerprints. A store-less run, which builds no key and keeps no
/// ledger, carries an empty one.
#[derive(Default)]
struct StateKeys {
    /// Own-IR fingerprints of the state, indexed by `ProcId::index()`.
    own: Arc<Vec<u128>>,
    /// Fingerprint of the global table and entry procedure.
    globals: u128,
    /// Closure fingerprints: own IR plus every transitively reachable
    /// callee's, as a Merkle hash over the SCC condensation. Keys do not
    /// read them; the audit ledger does.
    closures: Vec<u128>,
    /// The summary a caller reads, without the return jump functions:
    /// procedure kind, formal types, MOD and REF.
    sigs: Vec<u128>,
    /// The base of every per-procedure key: the own fingerprints of the
    /// procedure's SCC, the globals, the procedure's index, own
    /// fingerprint and signature, and the signatures of the SCC's callees.
    base: Vec<u128>,
    /// Each procedure's SCC, an index into [`CallGraph::sccs`].
    scc: Vec<u32>,
    /// The distinct callees outside each SCC in first-occurrence order,
    /// flattened: SCC `i`'s are `callees[starts[i]..starts[i + 1]]`.
    callees: Vec<ProcId>,
    starts: Vec<u32>,
}

impl StateKeys {
    /// The distinct callees outside SCC `scc`.
    fn callees(&self, scc: usize) -> &[ProcId] {
        &self.callees[self.starts[scc] as usize..self.starts[scc + 1] as usize]
    }
}

/// The key components of the augmented `program` at `state` (whose own
/// fingerprints were taken before augmentation: augmentation is a pure
/// function of the state).
fn state_keys(
    program: &Program,
    cg: &CallGraph,
    modref: &ModRefInfo,
    state: &ProgramState,
) -> StateKeys {
    let own = &state.procs;
    let sigs: Vec<u128> = program
        .proc_ids()
        .map(|pid| {
            let proc = program.proc(pid);
            let mut h = Fp128::new();
            proc.kind.encode(&mut h);
            proc.num_formals.encode(&mut h);
            for v in proc.formal_ids() {
                proc.var(v).ty.encode(&mut h);
            }
            for set in [modref.mods(pid), modref.refs(pid)] {
                h.word(set.len() as u64);
                for slot in set {
                    slot.encode(&mut h);
                }
            }
            h.finish()
        })
        .collect();

    // One pass over the SCC condensation, bottom-up, so every callee
    // SCC's closure is final before its callers fold it in. Callees are
    // deduplicated with stamp arrays, in first-occurrence order, keeping
    // every digest deterministic.
    let sccs = cg.sccs();
    let n = program.procs.len();
    let mut scc = vec![0u32; n];
    let mut base = vec![0u128; n];
    let mut closure_of_scc = vec![0u128; sccs.len()];
    let mut callees = Vec::new();
    let mut starts = Vec::with_capacity(sccs.len() + 1);
    let mut callee_stamp = vec![usize::MAX; n];
    let mut scc_stamp = vec![usize::MAX; sccs.len()];
    for (i, members) in sccs.iter().enumerate() {
        starts.push(callees.len() as u32);
        let mut own_part = Fp128::new();
        own_part.write(state.globals);
        for &pid in members {
            scc[pid.index()] = i as u32;
            own_part.word(pid.index() as u64);
            own_part.write(own[pid.index()]);
        }
        let (mut closure, mut key) = (own_part, own_part);
        for &pid in members {
            for site in cg.sites(pid) {
                let (c, cs) = (site.callee, cg.scc_of(site.callee));
                if cs == i {
                    continue;
                }
                if scc_stamp[cs] != i {
                    scc_stamp[cs] = i;
                    closure.write(closure_of_scc[cs]);
                }
                if callee_stamp[c.index()] != i {
                    callee_stamp[c.index()] = i;
                    callees.push(c);
                    key.write(sigs[c.index()]);
                }
            }
        }
        closure_of_scc[i] = closure.finish();
        let key = key.finish();
        for &pid in members {
            let p = pid.index();
            base[p] = combine([key, p as u128, own[p], sigs[p]]);
        }
    }
    starts.push(callees.len() as u32);
    let closures = (0..n)
        .map(|p| combine([closure_of_scc[scc[p] as usize], own[p]]))
        .collect();
    StateKeys {
        own: Arc::clone(own),
        globals: state.globals,
        closures,
        sigs,
        base,
        scc,
        callees,
        starts,
    }
}

/// The summary-pack keys of the per-procedure artifacts one run used.
#[derive(Default)]
pub(crate) struct PackKeys {
    rjfs: Vec<RjfKey>,
    forwards: Vec<ForwardKey>,
    substs: Vec<EntryKey>,
    dces: Vec<EntryKey>,
}

impl PackKeys {
    fn is_empty(&self) -> bool {
        self.rjfs.is_empty()
            && self.forwards.is_empty()
            && self.substs.is_empty()
            && self.dces.is_empty()
    }
}

/// What a pack-keeping run used and computed of the artifacts a summary
/// pack carries: the computed ones become the segment it appends, and
/// all it used make the pack when it is written afresh.
#[derive(Default)]
struct PackLog {
    used: Mutex<PackKeys>,
    computed: Mutex<PackKeys>,
}

impl PackLog {
    /// Records the keys of one phase: `keys` in use, of which those with
    /// `computed` set were computed by this run.
    fn record<K: Copy>(
        &self,
        keys: &[K],
        computed: impl Fn(usize) -> bool,
        list: impl Fn(&mut PackKeys) -> &mut Vec<K>,
    ) {
        list(&mut self.used.lock().expect("pack log lock")).extend_from_slice(keys);
        let mut fresh = self.computed.lock().expect("pack log lock");
        let fresh = list(&mut fresh);
        fresh.extend(
            keys.iter()
                .enumerate()
                .filter(|&(i, _)| computed(i))
                .map(|(_, &k)| k),
        );
    }
}

/// Audit inputs threaded into the uncached pipeline: the previous
/// run's ledger and what the disk-cache consult (if any) observed.
struct AuditCtx {
    prev: Option<Ledger>,
    disk: Option<DiskOutcome>,
    /// The disk-cache outcome key this run will store under, remembered
    /// in the ledger so a later absence can be read as an eviction.
    outcome_key: Option<u64>,
    /// The summary-pack key this run will store under, remembered the
    /// same way, and why the pack could not be loaded (`None`: it was).
    pack: Option<(u64, Option<crate::diskcache::LoadMiss>)>,
}

/// The units one audited round computed, by phase: procedure indices for
/// per-procedure phases, unit 0 for program-scoped ones. A phase with an
/// empty set ran and computed nothing; a phase absent did not run under
/// the configuration.
struct MissLog(Mutex<BTreeMap<SessionPhase, BTreeSet<usize>>>);

impl MissLog {
    /// An empty log over the phases `config` runs in round 0.
    fn for_config(config: &AnalysisConfig) -> Self {
        let mut ran = vec![
            SessionPhase::CallGraph,
            SessionPhase::ModRef,
            SessionPhase::Ssa,
            SessionPhase::Subst,
        ];
        if config.return_jump_functions {
            ran.push(SessionPhase::ReturnJf);
        }
        if config.interprocedural {
            ran.extend([
                SessionPhase::SymVals,
                SessionPhase::ForwardJf,
                SessionPhase::Solve,
            ]);
        }
        if config.complete_propagation {
            ran.push(SessionPhase::Dce);
        }
        MissLog(Mutex::new(
            ran.into_iter().map(|p| (p, BTreeSet::new())).collect(),
        ))
    }

    /// Records that `phase` computed `unit`.
    fn note(&self, phase: SessionPhase, unit: usize) {
        if let Some(units) = self.0.lock().expect("miss log lock").get_mut(&phase) {
            units.insert(unit);
        }
    }

    fn take(&self) -> BTreeMap<SessionPhase, BTreeSet<usize>> {
        std::mem::take(&mut *self.0.lock().expect("miss log lock"))
    }
}

/// Records `phase` computing `unit` in the log, if the round keeps one.
fn note_miss(log: Option<&MissLog>, phase: SessionPhase, unit: usize) {
    if let Some(log) = log {
        log.note(phase, unit);
    }
}

/// Per-round derived context: the program-state fingerprint and the
/// per-procedure key components all cache keys build on.
struct RoundCtx {
    /// Whether artifacts come from and go to the store: false for a
    /// metered run, which recomputes every artifact on its own budget.
    memo: bool,
    state_fp: u128,
    keys: Arc<StateKeys>,
    mod_info: bool,
    gsa: bool,
    mode: CallSymMode,
    /// The round's return-jump-function table fingerprints, set once
    /// the tables are resolved (memoized rounds with return jump
    /// functions only).
    tables: OnceLock<RoundTables>,
    /// What the round computed, when the incrementality audit asks.
    log: Option<Arc<MissLog>>,
    /// The summary-pack keys the round used, when the run keeps a pack.
    pack: Option<Arc<PackLog>>,
}

/// The return-jump-function table fingerprints of one round.
struct RoundTables {
    /// Each procedure's table fingerprint.
    procs: Vec<u128>,
    /// Per SCC, its callees' table fingerprints folded in callee order:
    /// what the keys of every phase that reads the tables combine.
    callees: Vec<u128>,
}

/// Domain tags keeping the per-procedure key spaces apart.
const SSA_KEY: u64 = 1;
const RJF_KEY: u64 = 2;
const SYM_KEY: u64 = 3;
const ENTRY_KEY: u64 = 4;

impl RoundCtx {
    fn note(&self, phase: SessionPhase, unit: usize) {
        note_miss(self.log.as_deref(), phase, unit);
    }

    /// `pid`'s key in the `tag` space, unfinished: its base key, the
    /// `facets` word and, when the phase reads return jump functions,
    /// `callees` (its SCC's callee table fingerprints).
    fn key(&self, tag: u64, pid: ProcId, facets: u64, callees: Option<u128>) -> Fp128 {
        let mut h = Fp128::new();
        h.word(tag);
        h.write(self.keys.base[pid.index()]);
        h.word(facets);
        if let Some(callees) = callees {
            h.write(callees);
        }
        h
    }

    /// `pid`'s SCC's callee table fingerprints.
    fn callee_tables(&self, pid: ProcId) -> u128 {
        let tables = self
            .tables
            .get()
            .expect("return jump functions resolve before the keys that read them");
        tables.callees[self.keys.scc[pid.index()] as usize]
    }

    /// The facets word: `mod_info`, `gsa` and, for symbolic values and
    /// entry keys, the call mode.
    fn facets(&self, gsa: bool, mode: Option<CallSymMode>) -> u64 {
        let mode = mode.map_or(0, |m| m as u64 + 1);
        u64::from(self.mod_info) | u64::from(gsa) << 1 | mode << 2
    }

    fn ssa_key(&self, pid: ProcId) -> SsaKey {
        SsaKey(
            self.key(SSA_KEY, pid, u64::from(self.mod_info), None)
                .finish(),
        )
    }

    /// `pid`'s table key, over its SCC's callee table fingerprints.
    fn rjf_key(&self, pid: ProcId, options: SymEvalOptions, callees: u128) -> RjfKey {
        let facets = self.facets(options.gated_phis, None);
        RjfKey(self.key(RJF_KEY, pid, facets, Some(callees)).finish())
    }

    fn sym_key(&self, pid: ProcId) -> SymKey {
        let callees = (self.mode != CallSymMode::Pessimistic).then(|| self.callee_tables(pid));
        let facets = self.facets(self.gsa, Some(self.mode));
        SymKey(self.key(SYM_KEY, pid, facets, callees).finish())
    }

    /// The [`EntryKey`] of `pid` seeded with `vals` (`None`: unseeded).
    /// Call effects go through the return jump functions exactly when
    /// the call mode is not pessimistic.
    fn entry_key(&self, program: &Program, pid: ProcId, vals: Option<&ValSets>) -> EntryKey {
        let recovery = self.mode != CallSymMode::Pessimistic;
        let callees = recovery.then(|| self.callee_tables(pid));
        let facets = self.facets(self.gsa, Some(self.mode));
        let mut h = self.key(ENTRY_KEY, pid, facets, callees);
        hash_entry_constants(&mut h, program, pid, vals);
        EntryKey(h.finish())
    }

    /// Each procedure's summary fingerprint under the round's facets:
    /// its signature, MOD and REF, and its return-jump-function table
    /// when the round built them.
    fn summary_fps(&self) -> Vec<u128> {
        match self.tables.get() {
            Some(tables) => self
                .keys
                .sigs
                .iter()
                .zip(&tables.procs)
                .map(|(&sig, &table)| combine([sig, table]))
                .collect(),
            None => self.keys.sigs.clone(),
        }
    }
}

/// One round's artifacts through the solve, as
/// [`AnalysisSession::with_solved_round`] lends them to the rest of the
/// round.
pub(crate) struct SolvedRound<'a> {
    session: &'a AnalysisSession,
    /// The round's program, augmented with global pseudo-variables.
    pub(crate) program: &'a Program,
    pub(crate) cg: &'a CallGraph,
    ctx: &'a RoundCtx,
    /// Call kills as SSA construction models them: MOD-based under
    /// `mod_info`, worst case otherwise.
    pub(crate) kills: &'a dyn KillOracle,
    pub(crate) rjfs: &'a ReturnJumpFns,
    /// Call effects as SCCP models them: through the return jump
    /// functions under recovery, pessimistic otherwise.
    pub(crate) calls: &'a dyn CallLattice,
    /// Forward jump functions (interprocedural configurations only).
    pub(crate) jfs: Option<ForwardJumpFns>,
    /// The solved `VAL` sets (interprocedural configurations only).
    pub(crate) vals: Option<Arc<ValSets>>,
}

impl SolvedRound<'_> {
    /// `pid`'s SSA form, from the store.
    pub(crate) fn ssa(&self, pid: ProcId) -> Arc<SsaProc> {
        self.session
            .cached_ssa(self.program, pid, self.kills, self.ctx)
    }

    /// `pid`'s SSA form and its SCCP seeded with the round's entry
    /// constants (every entry ⊥ without `VAL` sets).
    pub(crate) fn sccp(&self, pid: ProcId) -> (Arc<SsaProc>, SccpResult) {
        let ssa = self.ssa(pid);
        let result = seeded_sccp(self.program, self.calls, self.vals.as_deref(), pid, &ssa);
        (ssa, result)
    }

    /// `pid`'s substitution count under the round's `VAL` sets: the
    /// stored one, else counted without storing it (only `analyze` fills
    /// the count store).
    pub(crate) fn count(&self, pid: ProcId) -> usize {
        let vals = self.vals.as_deref();
        let key = self.ctx.entry_key(self.program, pid, vals);
        let stored = self
            .session
            .store
            .substs
            .read()
            .expect("subst store lock")
            .get(&key)
            .copied();
        stored
            .unwrap_or_else(|| count_one_proc(self.program, self.calls, vals, pid, &self.ssa(pid)))
    }
}

/// A memoized pass manager over one program. See the module docs.
pub struct AnalysisSession {
    base: Program,
    /// The pristine program's fingerprints, taken once: every analysis
    /// starts from the pristine program, so round 0 never re-hashes it.
    base_state: ProgramState,
    store: ArtifactStore,
    stats: Mutex<SessionStats>,
    /// Optional persistent backing store; outcomes of unmetered runs are
    /// served from and written through to it.
    disk: Option<Arc<crate::diskcache::DiskCache>>,
    /// Label under which the incrementality-audit ledger persists next
    /// to the disk cache (typically the analyzed file's path). Without
    /// one — or without a disk cache — the ledger lives in memory only.
    audit_label: Option<String>,
    /// Whether cold runs keep the label's summary pack: false for a
    /// label derived from the program's own content.
    summary_packs: bool,
    /// The previous run's ledger (in-memory fallback when no disk cache
    /// or label is set).
    prev_ledger: Mutex<Option<Ledger>>,
    /// The most recent run's incrementality audit (unmetered runs only).
    last_audit: Mutex<Option<Arc<IncrementalAudit>>>,
}

impl AnalysisSession {
    /// Opens a session over `program`.
    pub fn new(program: &Program) -> Self {
        AnalysisSession {
            base: program.clone(),
            base_state: ProgramState::of(program, 1),
            store: ArtifactStore::default(),
            stats: Mutex::new(SessionStats::default()),
            disk: None,
            audit_label: None,
            summary_packs: false,
            prev_ledger: Mutex::new(None),
            last_audit: Mutex::new(None),
        }
    }

    /// Names this session's work for the incrementality audit. With a
    /// disk cache attached, the ledger persists under
    /// `audit/<label>.ledger` in the cache directory, so a later process
    /// analyzing under the same label can attribute its recomputation to
    /// the exact procedures and facets that changed, and each cold run
    /// keeps the label's summary pack (see [`crate::pack`]), so that
    /// process recomputes only the procedures whose closures changed.
    /// The analyzed file's path is the natural label.
    pub fn set_audit_label(&mut self, label: &str) {
        self.audit_label = Some(label.to_string());
        self.summary_packs = true;
    }

    /// [`Self::set_audit_label`] for a label derived from the program's
    /// own content, as the serve daemon makes for requests that name
    /// none: the ledger persists alike, but no summary pack is kept. No
    /// other program is ever analyzed under such a label, so its pack
    /// would be written on every cold run and never usefully read.
    pub fn set_content_audit_label(&mut self, label: &str) {
        self.audit_label = Some(label.to_string());
        self.summary_packs = false;
    }

    /// The incrementality audit of the most recent unmetered analysis,
    /// if one has run.
    pub fn last_audit(&self) -> Option<Arc<IncrementalAudit>> {
        self.last_audit.lock().unwrap().clone()
    }

    /// The previous run's ledger: the persisted one under the audit
    /// label when a disk cache is attached, else the in-memory one from
    /// this session's last analysis.
    fn previous_ledger(&self) -> Option<Ledger> {
        if let (Some(disk), Some(label)) = (self.disk.as_deref(), self.audit_label.as_deref()) {
            return crate::audit::load_ledger(disk.dir(), label);
        }
        self.prev_ledger.lock().unwrap().clone()
    }

    /// Reads, decodes and seeds the store with the summary pack under
    /// `key`, returning why it could not be used — absent, evicted, stale
    /// or corrupt (quarantined by the cache) — or `None` when it loaded.
    /// The read, the decoding and the seeding are disk-cache time.
    fn load_summary_pack(
        &self,
        disk: &crate::diskcache::DiskCache,
        key: u64,
    ) -> Option<crate::diskcache::LoadMiss> {
        let start = Instant::now();
        let loaded = disk.load_pack(key, |payload| {
            ipcp_ir::codec::decode_from_slice::<SummaryPack>(payload).ok()
        });
        let miss = match loaded {
            Ok(segments) => {
                self.store.seed(segments);
                None
            }
            Err(miss) => Some(miss),
        };
        self.phase_wall(SessionPhase::DiskCache, start.elapsed());
        miss
    }

    /// Records one run's audit and advances the ledger (to disk when a
    /// cache and label are attached, and always in memory).
    fn commit_audit(&self, audit: IncrementalAudit, ledger: Ledger) {
        {
            let mut stats = self.stats.lock().unwrap();
            for (label, n) in audit.miss_reason_totals() {
                *stats.miss_reasons.entry(label).or_insert(0) += n;
            }
        }
        *self.last_audit.lock().unwrap() = Some(Arc::new(audit));
        if let (Some(disk), Some(label)) = (self.disk.as_deref(), self.audit_label.as_deref()) {
            crate::audit::store_ledger(disk.dir(), label, &ledger);
        }
        *self.prev_ledger.lock().unwrap() = Some(ledger);
    }

    /// Attaches a persistent [`DiskCache`](crate::diskcache::DiskCache):
    /// unmetered analyses first consult it (validated entries are
    /// returned verbatim, so warm results are bit-identical to cold) and
    /// write their outcomes through on a miss. Metered runs bypass it,
    /// exactly as they bypass the in-memory store.
    pub fn attach_disk_cache(&mut self, cache: Arc<crate::diskcache::DiskCache>) {
        self.disk = Some(cache);
    }

    /// The attached persistent cache, if any.
    pub fn disk_cache(&self) -> Option<&Arc<crate::diskcache::DiskCache>> {
        self.disk.as_ref()
    }

    /// Compiles Minifor source and opens a session over it.
    ///
    /// # Errors
    ///
    /// Returns front-end diagnostics if the source does not compile.
    pub fn from_source(source: &str) -> Result<Self, Diagnostics> {
        Ok(Self::new(&ipcp_ir::compile_to_ir(source)?))
    }

    /// The session's (pristine) program.
    pub fn program(&self) -> &Program {
        &self.base
    }

    /// Moves the session to `program` — typically an edit of its
    /// program — keeping the artifact store, the stats and the previous
    /// run's ledger: the next analysis recomputes only what the edit
    /// changed, and its audit attributes that to the edit.
    pub fn set_program(&mut self, program: &Program) {
        self.base = program.clone();
        self.base_state = ProgramState::of(program, 1);
    }

    /// The pristine program's fingerprint — the identity every cache key
    /// (in-memory and on-disk) builds on.
    pub fn base_fingerprint(&self) -> u128 {
        self.base_state.fp
    }

    /// The pristine program's fingerprints, for views over round 0.
    pub(crate) fn base_state(&self) -> &ProgramState {
        &self.base_state
    }

    /// A cheap order-of-magnitude estimate of the session's resident
    /// footprint: the base program plus the accumulated artifact store.
    /// Used by byte-budgeted session registries (the `serve` tenant
    /// cache) the same way entry sizes drive disk-cache eviction; it
    /// only needs to rank sessions and track growth, not be exact.
    pub fn approx_footprint_bytes(&self) -> u64 {
        let instrs: usize = self
            .base
            .procs
            .iter()
            .map(|p| p.blocks.iter().map(|b| b.instrs.len() + 1).sum::<usize>())
            .sum();
        // ~64 bytes per IR instruction, the store's own estimate, plus a
        // fixed base for the session itself.
        instrs as u64 * 64 + self.store.approx_bytes() + 4096
    }

    /// A snapshot of the observability counters accumulated so far.
    pub fn stats(&self) -> SessionStats {
        self.stats.lock().unwrap().clone()
    }

    /// The artifact store (for introspection; tests and diagnostics).
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    fn phase_hit(&self, phase: SessionPhase) {
        self.stats.lock().unwrap().hit(phase);
    }

    fn phase_miss(&self, phase: SessionPhase) {
        self.stats.lock().unwrap().miss(phase);
    }

    fn phase_wall(&self, phase: SessionPhase, elapsed: Duration) {
        self.stats.lock().unwrap().record_wall(phase, elapsed);
    }

    fn phase_span(&self, phase: SessionPhase, elapsed: Duration) {
        self.stats.lock().unwrap().record_span(phase, elapsed);
    }

    /// Books a phase a metered run built whole since `start`: one miss
    /// per procedure and the elapsed time.
    fn metered_phase(&self, phase: SessionPhase, program: &Program, start: Instant) {
        let mut stats = self.stats.lock().expect("session stats lock");
        stats.traffic(phase, 0, program.procs.len() as u64);
        stats.record_wall(phase, start.elapsed());
    }

    /// Runs the configured analysis, reusing cached artifacts where the
    /// fingerprints and configuration facets allow.
    ///
    /// Takes `&self`: the store is internally synchronized, so a config
    /// sweep may fan analyses out over threads against one session.
    pub fn analyze(&self, config: &AnalysisConfig) -> AnalysisOutcome {
        self.analyze_with_budget_obs(config, &Budget::for_limit(config.fuel), &NoopSink)
    }

    /// [`Self::analyze`] honoring [`AnalysisConfig::on_exhausted`].
    ///
    /// # Errors
    ///
    /// Returns [`ResourceExhausted`] when the budget ran dry and the
    /// policy is [`ExhaustionPolicy::Error`](ipcp_analysis::ExhaustionPolicy::Error).
    pub fn analyze_checked(
        &self,
        config: &AnalysisConfig,
    ) -> Result<AnalysisOutcome, ResourceExhausted> {
        self.analyze_checked_obs(config, &NoopSink)
    }

    /// Runs the analysis against a caller-supplied fuel source. Unmetered
    /// budgets use the artifact store and, with `config.jobs > 1`, the
    /// parallel fan-outs; metered budgets run sequentially and store-less
    /// (see the module docs on fuel semantics).
    pub fn analyze_with_budget(&self, config: &AnalysisConfig, budget: &Budget) -> AnalysisOutcome {
        self.analyze_with_budget_obs(config, budget, &NoopSink)
    }

    /// [`Self::analyze_checked`] with structured-event tracing: every
    /// phase records a span, the solver records lattice transitions, and
    /// table shapes land in counters. With a [`NoopSink`] this is
    /// byte-for-byte the untraced analysis — every sink call inlines to
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceExhausted`] when the budget ran dry and the
    /// policy is [`ExhaustionPolicy::Error`](ipcp_analysis::ExhaustionPolicy::Error).
    pub fn analyze_checked_obs(
        &self,
        config: &AnalysisConfig,
        sink: &dyn ObsSink,
    ) -> Result<AnalysisOutcome, ResourceExhausted> {
        let outcome = self.analyze_with_budget_obs(config, &Budget::for_limit(config.fuel), sink);
        honour_exhaustion_policy(config, outcome)
    }

    /// [`Self::analyze_with_budget`] with an observability sink threaded
    /// through every phase — the one entry point every other `analyze*`
    /// wraps. Tracing never changes the outcome, metered or not.
    pub fn analyze_with_budget_obs(
        &self,
        config: &AnalysisConfig,
        budget: &Budget,
        sink: &dyn ObsSink,
    ) -> AnalysisOutcome {
        self.stats.lock().unwrap().analyses += 1;
        // A metered run consults no disk cache and takes no part in the
        // incrementality audit.
        if !budget.is_unmetered() {
            return self.analyze_uncached_obs(config, budget, sink, None, None);
        }
        let Some(disk) = self.disk.as_ref() else {
            let audit = AuditCtx {
                prev: self.previous_ledger(),
                disk: None,
                outcome_key: None,
                pack: None,
            };
            return self.analyze_uncached_obs(config, budget, sink, Some(audit), None);
        };

        // Persistent warm path: a validated entry is the cold outcome,
        // returned verbatim — bit-identity by construction.
        let key = crate::diskcache::outcome_key(self.base_state.fp, config);
        let quarantined_before = disk.stats().quarantined;
        let start = Instant::now();
        let loaded = {
            let _span = SpanGuard::enter(sink, "diskcache", "phase");
            disk.load_decoded(key, |payload| {
                ipcp_ir::codec::decode_from_slice::<AnalysisOutcome>(payload).ok()
            })
        };
        let quarantined = disk.stats().quarantined - quarantined_before;
        if quarantined > 0 {
            sink.count("diskcache.quarantine", quarantined);
        }
        let miss = match loaded {
            Ok(outcome) => {
                // Replay the recorded fuel and anomalies into the live
                // budget so callers inspecting it afterwards see the same
                // totals a cold run would have left behind.
                budget.checkpoint(Phase::SymEval, outcome.robustness.fuel_consumed);
                replay_anomalies(budget, &outcome.robustness.anomalies);
                self.phase_hit(SessionPhase::DiskCache);
                self.phase_wall(SessionPhase::DiskCache, start.elapsed());
                sink.count("diskcache.hit", 1);
                // A served entry means nothing was recomputed: the audit
                // is all-up-to-date and the ledger advances not at all
                // (a later edit still diffs against the run that wrote
                // the entry).
                *self.last_audit.lock().unwrap() = Some(Arc::new(crate::audit::warm_hit_audit(
                    self.base.procs.len() as u64,
                )));
                return outcome;
            }
            Err(miss) => miss,
        };
        self.phase_miss(SessionPhase::DiskCache);
        self.phase_wall(SessionPhase::DiskCache, start.elapsed());
        sink.count("diskcache.miss", 1);

        // Only a miss reads the previous ledger: a hit advances no
        // ledger, so decoding one would be wasted work.
        let prev_ledger = self.previous_ledger();
        let base_changed = prev_ledger
            .as_ref()
            .is_some_and(|p| p.base_fp != ledger_fp(self.base_state.fp));
        let facets_changed = prev_ledger
            .as_ref()
            .map(|p| outcome_facets_changed(p, config))
            .unwrap_or_default();
        let reason = classify_disk_miss(
            prev_ledger.as_ref(),
            &miss,
            key,
            base_changed,
            &facets_changed,
        );
        // The per-procedure summaries of the label's earlier cold runs:
        // with them, only the procedures whose keys changed recompute.
        let pack = self
            .audit_label
            .as_deref()
            .filter(|_| self.summary_packs)
            .map(|label| {
                let pack_key = crate::diskcache::pack_key(label, config);
                (pack_key, self.load_summary_pack(disk, pack_key))
            });
        let audit = AuditCtx {
            prev: prev_ledger,
            disk: Some(DiskOutcome::Miss(reason)),
            outcome_key: Some(key),
            pack,
        };
        let pack_log = pack.map(|_| Arc::new(PackLog::default()));
        let outcome =
            self.analyze_uncached_obs(config, budget, sink, Some(audit), pack_log.as_ref());

        let start = Instant::now();
        // The pack goes first: under byte-budget pressure LRU eviction
        // then drops it before the newer outcome entry.
        if let (Some((pack_key, miss)), Some(log)) = (pack, pack_log) {
            let encode = |keys: &PackKeys| ipcp_ir::codec::encode_to_vec(&self.store.pack_of(keys));
            let used = || encode(&log.used.lock().expect("pack log lock"));
            let computed = std::mem::take(&mut *log.computed.lock().expect("pack log lock"));
            // A loaded pack grows by the run's computed summaries; one
            // that could not be loaded is written afresh.
            let written = if miss.is_some() {
                let payload = used();
                disk.store_pack(pack_key, &payload);
                payload.len()
            } else if computed.is_empty() {
                0
            } else {
                disk.append_pack(pack_key, &encode(&computed), used)
            };
            sink.count("diskcache.pack_bytes", written as u64);
        }
        disk.store(key, &ipcp_ir::codec::encode_to_vec(&outcome));
        self.phase_wall(SessionPhase::DiskCache, start.elapsed());
        outcome
    }

    /// The round loop behind [`Self::analyze_with_budget_obs`]: memoized
    /// under an unmetered budget, sequential and store-less under a
    /// metered one.
    fn analyze_uncached_obs(
        &self,
        config: &AnalysisConfig,
        budget: &Budget,
        sink: &dyn ObsSink,
        mut audit: Option<AuditCtx>,
        pack: Option<&Arc<PackLog>>,
    ) -> AnalysisOutcome {
        let memo = budget.is_unmetered();
        let jobs = if memo {
            crate::parallel::effective_jobs(config)
        } else {
            1
        };
        let mut program = self.base.clone();
        let mut stats = PhaseStats::default();
        let mut first_round = true;

        loop {
            self.stats.lock().unwrap().rounds += 1;

            // Round 0 always runs over the pristine program, whose
            // fingerprints are precomputed; a store-less run keys nothing,
            // so it fingerprints no later state either.
            let start = Instant::now();
            let state = if first_round || !memo {
                self.base_state.clone()
            } else {
                ProgramState::of(&program, jobs)
            };
            first_round = false;
            self.phase_wall(SessionPhase::Fingerprint, start.elapsed());
            // The audit covers round 0: DCE rounds feed on its artifacts.
            let log = audit
                .as_ref()
                .map(|_| Arc::new(MissLog::for_config(config)));

            // DCE rewrites are collected while the round borrows
            // `program` and applied after the borrows end.
            let (substitutions, vals, changed, new_procs, ledger) = self.with_solved_round(
                &mut program,
                &state,
                config,
                budget,
                jobs,
                sink,
                &mut stats,
                log.clone(),
                pack,
                |mut r| {
                    // Spent once the solve has read them.
                    r.jfs = None;
                    let substitutions = {
                        let _span = SpanGuard::enter(sink, "substitute", "phase");
                        self.cached_subst(
                            r.program,
                            r.cg,
                            r.calls,
                            r.vals.as_deref(),
                            r.ctx,
                            r.kills,
                            jobs,
                        )
                    };
                    sink.count("subst.total", substitutions.total as u64);

                    let mut changed = false;
                    let mut new_procs = Vec::new();
                    if config.complete_propagation {
                        let _span = SpanGuard::enter(sink, "dce", "phase");
                        let start = Instant::now();
                        // Every procedure is rewritten, not just the changed
                        // ones — the `changed` flag only decides whether
                        // another round runs.
                        let pids: Vec<ProcId> = r.program.proc_ids().collect();
                        if memo {
                            let steps = par_map_obs(jobs, &pids, sink, "dce.proc", |_, &pid| {
                                self.cached_dce_step(&r, pid)
                            });
                            if let Some(pack) = pack {
                                let keys: Vec<EntryKey> = steps.iter().map(|s| s.1).collect();
                                pack.record(&keys, |i| !steps[i].2, |k| &mut k.dces);
                            }
                            // Replayed in `ProcId` order, like every fan-out.
                            for (pid, (step, _, _)) in pids.into_iter().zip(steps) {
                                budget.checkpoint(Phase::Sccp, step.fuel);
                                replay_anomalies(budget, &step.value.anomalies);
                                changed |= step.value.changed;
                                new_procs.push((pid, step.value.proc.clone()));
                            }
                        } else {
                            for pid in pids {
                                let step = self.dce_step(&r, pid, budget);
                                changed |= step.changed;
                                new_procs.push((pid, step.proc));
                            }
                        }
                        if jobs > 1 {
                            self.phase_span(SessionPhase::Dce, start.elapsed());
                        }
                    }
                    // The audit's ledger records the round's key
                    // components and summaries; a procedure nothing
                    // calls has no callers to cut off.
                    let ledger = log.as_ref().map(|_| {
                        let uncalled = r
                            .program
                            .proc_ids()
                            .filter(|&pid| r.cg.callers(pid).is_empty())
                            .map(ProcId::index)
                            .collect();
                        (Arc::clone(&r.ctx.keys), r.ctx.summary_fps(), uncalled)
                    });
                    (substitutions, r.vals, changed, new_procs, ledger)
                },
            );

            if let (Some(actx), Some(log), Some((keys, summaries, uncalled))) =
                (audit.take(), log, ledger)
            {
                let ran = RunRecord {
                    computed: log.take(),
                    uncalled,
                    pack: None,
                };
                self.commit_round_audit(config, actx, ran, &keys, &summaries);
            }
            for (pid, proc) in new_procs {
                *program.proc_mut(pid) = proc;
            }
            if changed {
                stats.dce_rounds += 1;
                continue;
            }

            let constants: Vec<BTreeMap<Slot, i64>> = match vals.as_deref() {
                Some(v) => program.proc_ids().map(|p| v.constants(p)).collect(),
                None => Vec::new(),
            };

            // Complete propagation substitutes into the *original*
            // source: recount against the pristine program with the
            // final (DCE-refined) CONSTANTS.
            let substitutions = if stats.dce_rounds > 0 {
                let _span = SpanGuard::enter(sink, "counting", "phase");
                let final_fp = if memo {
                    ProgramState::of(&program, jobs).fp
                } else {
                    0
                };
                self.cached_counting_pass(
                    config,
                    vals.as_deref(),
                    final_fp,
                    budget,
                    jobs,
                    sink,
                    pack,
                )
            } else {
                substitutions
            };

            return AnalysisOutcome {
                program,
                constants,
                substitutions,
                stats,
                robustness: budget.report(),
            };
        }
    }

    /// Runs one round of the pipeline through the solve, every artifact
    /// from the store (computed and inserted on a miss), and hands the
    /// artifacts to `rest`: call graph, MOD/REF, augmentation of
    /// `program` (whose fingerprint is `state_fp`), closure fingerprints,
    /// return and forward jump functions and the `VAL` sets. `log`, when
    /// given, records every unit the round computes. `analyze` runs each of its rounds through here;
    /// [`Self::provenance`] runs round 0.
    #[allow(clippy::too_many_arguments)]
    fn with_solved_round<R>(
        &self,
        program: &mut Program,
        state: &ProgramState,
        config: &AnalysisConfig,
        budget: &Budget,
        jobs: usize,
        sink: &dyn ObsSink,
        stats: &mut PhaseStats,
        log: Option<Arc<MissLog>>,
        pack: Option<&Arc<PackLog>>,
        rest: impl FnOnce(SolvedRound<'_>) -> R,
    ) -> R {
        // The call graph is built against the pre-augmentation program
        // (call edges are unaffected by augmentation).
        let memo = budget.is_unmetered();
        let state_fp = state.fp;
        let cg = {
            let _span = SpanGuard::enter(sink, "call_graph", "phase");
            self.cached_call_graph(program, state_fp, memo, log.as_deref())
        };
        let modref = self.cached_modref(program, &cg, state_fp, budget, jobs, sink, log.as_deref());
        augment_global_vars(program, &modref);
        let program = &*program;

        let keys = {
            let _span = SpanGuard::enter(sink, "closures", "phase");
            self.cached_state_keys(program, &cg, &modref, state, memo)
        };

        let round = RoundCtx {
            memo,
            state_fp,
            keys,
            mod_info: config.mod_info,
            gsa: config.gsa,
            mode: call_sym_mode(config),
            tables: OnceLock::new(),
            log,
            pack: pack.cloned(),
        };

        let mod_kills;
        let kills: &dyn KillOracle = if config.mod_info {
            mod_kills = ModKills::new(program, &modref);
            &mod_kills
        } else {
            &WorstCaseKills
        };
        let sym_options = SymEvalOptions {
            gated_phis: config.gsa,
        };

        let rjfs: ReturnJumpFns = if config.return_jump_functions {
            let _span = SpanGuard::enter(sink, "return_jfs", "phase");
            self.cached_return_jfs(program, &cg, &round, kills, sym_options, budget, jobs, sink)
        } else {
            ReturnJumpFns::empty(program.procs.len())
        };
        rjfs.emit_counters(sink);
        stats.return_jfs = rjfs.useful_count();

        let rjf_lattice = RjfLattice { rjfs: &rjfs };
        let calls: &dyn CallLattice = if round.mode != CallSymMode::Pessimistic {
            &rjf_lattice
        } else {
            &PessimisticCalls
        };

        let (jfs, vals) = if config.interprocedural {
            let jfs = {
                let _span = SpanGuard::enter(sink, "forward_jfs", "phase");
                self.cached_forward_jfs(
                    program,
                    &cg,
                    &modref,
                    config.jump_function,
                    &rjfs,
                    &round,
                    kills,
                    sym_options,
                    budget,
                    jobs,
                    sink,
                )
            };
            jfs.emit_counters(sink);
            stats.forward_jfs = jfs.count();
            stats.useful_forward_jfs = jfs.useful_count();
            let v = {
                let _span = SpanGuard::enter(sink, "solve", "phase");
                self.cached_solve(
                    program, &cg, &modref, &jfs, config, &round, kills, calls, budget, sink,
                )
            };
            sink.count("solver.iterations", v.iterations() as u64);
            stats.solver_iterations += v.iterations();
            stats.pruned_call_edges += v.pruned_call_edges();
            (Some(jfs), Some(v))
        } else {
            (None, None)
        };

        rest(SolvedRound {
            session: self,
            program,
            cg: &cg,
            ctx: &round,
            kills,
            rjfs: &rjfs,
            calls,
            jfs,
            vals,
        })
    }

    /// The incrementality audit of round 0: diffs its key components —
    /// the pristine program's own, closure and summary fingerprints —
    /// against the previous ledger, attributes every unit the round
    /// computed (`ran`, from its [`MissLog`]), and commits the audit and
    /// the advanced ledger.
    fn commit_round_audit(
        &self,
        config: &AnalysisConfig,
        actx: AuditCtx,
        mut ran: RunRecord,
        keys: &StateKeys,
        summaries: &[u128],
    ) {
        let start = Instant::now();
        let mut ledger = Ledger {
            base_fp: ledger_fp(self.base_state.fp),
            globals_fp: ledger_fp(keys.globals),
            procs: self
                .base
                .procs
                .iter()
                .enumerate()
                .map(|(i, p)| LedgerProc {
                    name: p.name.clone(),
                    own_fp: ledger_fp(keys.own[i]),
                    closure_fp: ledger_fp(keys.closures[i]),
                    summary_fp: ledger_fp(summaries[i]),
                })
                .collect(),
            facets: render_facets(config),
            outcome_keys: actx
                .prev
                .as_ref()
                .map(|p| p.outcome_keys.clone())
                .unwrap_or_default(),
        };
        let pack_key = actx.pack.map(|(key, _)| key);
        for key in [actx.outcome_key, pack_key].into_iter().flatten() {
            ledger.remember_outcome_key(key);
        }
        ran.pack = actx.pack.and_then(|(key, miss)| {
            miss.map(|miss| classify_disk_miss(actx.prev.as_ref(), &miss, key, false, &[]))
        });
        let report = diff_ledgers(actx.prev.as_ref(), &ledger, actx.disk, Some(&ran));
        self.commit_audit(report, ledger);
        self.phase_wall(SessionPhase::Fingerprint, start.elapsed());
    }

    /// The entry point of every consumer of the analysis — provenance,
    /// source transformation, the optimizer, the cloning report and
    /// subscript classification: runs one round over `program` (whose
    /// fingerprint is `state_fp`) through [`Self::with_solved_round`] and
    /// lends `view` the solved round. Every artifact comes from the
    /// store, so a view after an `analyze` under the same configuration
    /// is pure hits, and a consumer that iterates (the optimizer) runs
    /// each of its rounds through one session.
    ///
    /// Honours every facet of `config` that shapes the solved round —
    /// jump-function kind, return jump functions and their composition,
    /// MOD information, gated φs, `interprocedural`, branch feasibility,
    /// the solver and `jobs` — and none of the rest: it runs on
    /// unlimited fuel (consumers have no degraded rendering), never
    /// consults or writes the disk cache (which holds whole outcomes),
    /// never touches the incrementality audit, and ignores
    /// `complete_propagation`.
    pub(crate) fn solved_view<R>(
        &self,
        program: &mut Program,
        state: &ProgramState,
        config: &AnalysisConfig,
        sink: &dyn ObsSink,
        view: impl FnOnce(SolvedRound<'_>) -> R,
    ) -> R {
        self.with_solved_round(
            program,
            state,
            config,
            &Budget::unlimited(),
            crate::parallel::effective_jobs(config),
            sink,
            &mut PhaseStats::default(),
            None,
            None,
            view,
        )
    }

    /// The provenance ledger of `config` (see [`crate::provenance`]): a
    /// view over round 0's artifacts — call graph, MOD/REF, return and
    /// forward jump functions, the solved `VAL` sets and per-procedure
    /// SSA — so after an `analyze` under the same configuration every
    /// lookup hits and nothing is inserted. What it computes itself is
    /// the ledger, the return-jump-function chain replay and the
    /// attribution SCCP. The ledger explains the first-round `VAL` sets,
    /// which is exact for every Table 2 configuration.
    pub fn provenance(&self, config: &AnalysisConfig, sink: &dyn ObsSink) -> Provenance {
        let _span = SpanGuard::enter(sink, "provenance", "phase");
        let mut program = self.base.clone();
        let record = self.solved_view(&mut program, &self.base_state, config, sink, |r| {
            crate::provenance::record(&r, config, sink)
        });
        record.into_provenance(program)
    }

    /// The key components of the augmented program, cached by the
    /// pre-augmentation state fingerprint (augmentation is a pure
    /// function of that state, so the key is sound). A store-less run
    /// reads no key and keeps no ledger, so it gets none.
    fn cached_state_keys(
        &self,
        program: &Program,
        cg: &CallGraph,
        modref: &ModRefInfo,
        state: &ProgramState,
        memo: bool,
    ) -> Arc<StateKeys> {
        if !memo {
            return Arc::default();
        }
        let start = Instant::now();
        let keys = match lookup(true, &self.store.states, &state.fp) {
            Some(keys) => keys,
            None => {
                let keys = Arc::new(state_keys(program, cg, modref, state));
                remember(true, &self.store.states, state.fp, Arc::clone(&keys));
                keys
            }
        };
        self.phase_wall(SessionPhase::Fingerprint, start.elapsed());
        keys
    }

    fn cached_call_graph(
        &self,
        program: &Program,
        state_fp: u128,
        memo: bool,
        log: Option<&MissLog>,
    ) -> Arc<CallGraph> {
        let start = Instant::now();
        let cg = match lookup(memo, &self.store.call_graphs, &state_fp) {
            Some(cg) => {
                self.phase_hit(SessionPhase::CallGraph);
                cg
            }
            None => {
                self.phase_miss(SessionPhase::CallGraph);
                note_miss(log, SessionPhase::CallGraph, 0);
                let cg = Arc::new(CallGraph::new(program));
                remember(memo, &self.store.call_graphs, state_fp, Arc::clone(&cg));
                cg
            }
        };
        self.phase_wall(SessionPhase::CallGraph, start.elapsed());
        cg
    }

    /// MOD/REF summaries, from the store under an unmetered budget.
    /// A metered run computes them on its budget at `jobs = 1`, which is
    /// the sequential `compute_modref_budgeted`.
    #[allow(clippy::too_many_arguments)]
    fn cached_modref(
        &self,
        program: &Program,
        cg: &CallGraph,
        state_fp: u128,
        budget: &Budget,
        jobs: usize,
        sink: &dyn ObsSink,
        log: Option<&MissLog>,
    ) -> Arc<ModRefInfo> {
        let start = Instant::now();
        let memo = budget.is_unmetered();
        let modref = match lookup(memo, &self.store.modrefs, &state_fp) {
            Some(cached) => {
                self.phase_hit(SessionPhase::ModRef);
                budget.checkpoint(Phase::ModRef, cached.fuel);
                cached.value
            }
            None => {
                self.phase_miss(SessionPhase::ModRef);
                note_miss(log, SessionPhase::ModRef, 0);
                let before = budget.fuel_consumed();
                // The wave-parallel fixpoint draws the same fuel as the
                // sequential pass (and delegates to it at jobs <= 1).
                let modref = Arc::new(compute_modref_obs(program, cg, budget, jobs, sink));
                let fuel = budget.fuel_consumed() - before;
                let value = Arc::clone(&modref);
                remember(memo, &self.store.modrefs, state_fp, Cached { value, fuel });
                modref
            }
        };
        self.phase_wall(SessionPhase::ModRef, start.elapsed());
        modref
    }

    fn cached_ssa(
        &self,
        program: &Program,
        pid: ProcId,
        kills: &dyn KillOracle,
        round: &RoundCtx,
    ) -> Arc<SsaProc> {
        let mut tally = PhaseTally::default();
        let ssa = self.tallied_ssa(program, pid, kills, round, &mut tally);
        tally.record(
            &mut self.stats.lock().expect("session stats lock"),
            SessionPhase::Ssa,
        );
        ssa
    }

    /// `pid`'s SSA form from the store, built and inserted on a miss.
    /// Its traffic and lookup time go into `tally` rather than the stats,
    /// so a fan-out can record them once instead of locking the stats
    /// per procedure.
    fn tallied_ssa(
        &self,
        program: &Program,
        pid: ProcId,
        kills: &dyn KillOracle,
        round: &RoundCtx,
        tally: &mut PhaseTally,
    ) -> Arc<SsaProc> {
        let start = Instant::now();
        // A store-less run builds no key.
        let key = round.memo.then(|| round.ssa_key(pid));
        if let Some(ssa) = key.and_then(|key| lookup(true, &self.store.ssas, &key)) {
            tally.add(true, start.elapsed());
            return ssa;
        }
        let ssa = Arc::new(build_ssa(program, program.proc(pid), kills));
        if let Some(key) = key {
            remember(true, &self.store.ssas, key, Arc::clone(&ssa));
        }
        round.note(SessionPhase::Ssa, pid.index());
        tally.add(false, start.elapsed());
        ssa
    }

    /// One procedure's return-jump-function table under `key`, cached,
    /// with the fuel to replay on the main budget and the table's
    /// fingerprint, and whether it was computed here. `rjfs` must
    /// already hold the final tables of every callee outside `pid`'s SCC
    /// (and the SCC-local partial tables when `pid` is recursive) —
    /// exactly what the wave schedule guarantees.
    ///
    /// Misses compute on a private scratch budget so parallel workers
    /// never touch the (thread-local) main budget; the caller replays
    /// the returned fuel in deterministic merge order. Only consumption
    /// *totals* are observable under unmetered budgets, so the reordering
    /// is invisible.
    #[allow(clippy::too_many_arguments)]
    fn rjf_for_proc(
        &self,
        program: &Program,
        pid: ProcId,
        key: RjfKey,
        rjfs: &dyn crate::retjf::RjfSource,
        round: &RoundCtx,
        kills: &dyn KillOracle,
        options: SymEvalOptions,
        tally: &mut FanoutTally,
    ) -> (CachedRjf, bool) {
        if let Some(cached) = lookup(round.memo, &self.store.rjf_procs, &key) {
            tally.main.add(true, Duration::ZERO);
            return (cached, false);
        }
        round.note(SessionPhase::ReturnJf, pid.index());
        let scratch = Budget::unlimited();
        // Mirror the per-procedure draw of `build_return_jfs_budgeted`.
        scratch.checkpoint(Phase::ReturnJf, 1);
        let ssa = self.tallied_ssa(program, pid, kills, round, &mut tally.ssa);
        let start = Instant::now();
        let table = build_rjf_for_proc(program, pid, rjfs, &ssa, options, &scratch);
        // The table's fingerprint is taken once, here: every caller's
        // key reads it, and a later hit carries it from the store.
        let cached = CachedRjf {
            fp: fingerprint(&table),
            value: Arc::new(table),
            fuel: scratch.fuel_consumed(),
        };
        remember(round.memo, &self.store.rjf_procs, key, cached.clone());
        tally.main.add(false, start.elapsed());
        (cached, true)
    }

    /// Builds the full return-jump-function table bottom-up over the
    /// call-graph condensation, reusing cached per-procedure tables, and
    /// leaves the table fingerprints in `round` for the keys of the
    /// phases that read the tables. A metered run hands its budget to
    /// [`build_return_jfs_budgeted`] instead.
    ///
    /// Scheduling runs in SCC *waves*: every SCC of one wave only calls
    /// into strictly lower (already merged) waves. Each wave first
    /// resolves its keys — which fold the table fingerprints of the SCC's
    /// callees, all final by then — and installs every SCC the store
    /// holds whole; only the SCCs with work left fan out, concurrently.
    /// Recursive SCCs layer a copy-free [`crate::retjf::SccOverlay`] over
    /// the shared table and run their members in bottom-up order, exactly
    /// like the sequential pass. Merging per wave in ascending SCC order
    /// keeps the result and the fuel replay deterministic.
    #[allow(clippy::too_many_arguments)]
    fn cached_return_jfs(
        &self,
        program: &Program,
        cg: &CallGraph,
        round: &RoundCtx,
        kills: &dyn KillOracle,
        options: SymEvalOptions,
        budget: &Budget,
        jobs: usize,
        sink: &dyn ObsSink,
    ) -> ReturnJumpFns {
        if !round.memo {
            let start = Instant::now();
            let rjfs = build_return_jfs_budgeted(program, cg, kills, options, budget);
            self.metered_phase(SessionPhase::ReturnJf, program, start);
            return rjfs;
        }
        let n = program.procs.len();
        let mut rjfs = ReturnJumpFns::empty(n);
        let sccs = cg.sccs();
        // Per-procedure work estimate (≈ instruction visits) for the
        // cost-based wave gate.
        let est = |pid: ProcId| {
            let proc = program.proc(pid);
            proc.block_ids()
                .map(|b| proc.block(b).instrs.len() as u64 + 1)
                .sum::<u64>()
                .max(1)
        };
        let start = Instant::now();
        let mut tally = FanoutTally::default();
        let mut tables = RoundTables {
            procs: vec![0; n],
            callees: vec![0; sccs.len()],
        };
        // Every key the phase used, and which of them it computed, when
        // the run keeps a pack.
        let mut used: Option<Vec<(RjfKey, bool)>> =
            round.pack.as_ref().map(|_| Vec::with_capacity(n));
        for wave in scc_waves(cg) {
            let resolve = Instant::now();
            let mut pending: Vec<(usize, Vec<RjfKey>)> = Vec::new();
            {
                let stored = self.store.rjf_procs.read().expect("rjf store lock");
                for si in wave {
                    let callees = combine(
                        round
                            .keys
                            .callees(si)
                            .iter()
                            .map(|c| tables.procs[c.index()]),
                    );
                    tables.callees[si] = callees;
                    let keys: Vec<RjfKey> = sccs[si]
                        .iter()
                        .map(|&pid| round.rjf_key(pid, options, callees))
                        .collect();
                    let hits: Option<Vec<&CachedRjf>> =
                        keys.iter().map(|k| stored.get(k)).collect();
                    let Some(hits) = hits else {
                        pending.push((si, keys));
                        continue;
                    };
                    for ((&pid, key), cached) in sccs[si].iter().zip(keys).zip(hits) {
                        budget.checkpoint(Phase::ReturnJf, cached.fuel);
                        rjfs.set_proc(pid, Arc::clone(&cached.value));
                        tables.procs[pid.index()] = cached.fp;
                        tally.main.add(true, Duration::ZERO);
                        used.iter_mut().for_each(|u| u.push((key, false)));
                    }
                }
            }
            tally.main.wall += resolve.elapsed();
            if pending.is_empty() {
                continue;
            }
            // Narrow or featherweight waves can't amortize a spawn; the
            // cost gate runs them inline and saves the fork/join for
            // levels with real work.
            let units: u64 = pending
                .iter()
                .flat_map(|(si, _)| sccs[*si].iter())
                .map(|&pid| est(pid))
                .sum();
            let wave_jobs = wave_jobs(jobs, pending.len(), units);
            let built = par_map_obs(
                wave_jobs,
                &pending,
                sink,
                "return_jfs.proc",
                |_, (si, keys)| {
                    let scc = &sccs[*si];
                    let mut tally = FanoutTally::default();
                    let mut out = Vec::with_capacity(scc.len());
                    if let [pid] = scc[..] {
                        let (cached, computed) = self.rjf_for_proc(
                            program, pid, keys[0], &rjfs, round, kills, options, &mut tally,
                        );
                        out.push((pid, keys[0], cached, computed));
                    } else {
                        // Recursive SCC: members read each other's partial
                        // tables, so give the SCC a copy-free overlay and run
                        // its members in the sequential bottom-up order.
                        let mut overlay = crate::retjf::SccOverlay::new(&rjfs);
                        for (&pid, &key) in scc.iter().zip(keys) {
                            let (cached, computed) = self.rjf_for_proc(
                                program, pid, key, &overlay, round, kills, options, &mut tally,
                            );
                            overlay.push(pid, Arc::clone(&cached.value));
                            out.push((pid, key, cached, computed));
                        }
                    }
                    (out, tally)
                },
            );
            for (members, worker) in built {
                tally.merge(&worker);
                for (pid, key, cached, computed) in members {
                    budget.checkpoint(Phase::ReturnJf, cached.fuel);
                    tables.procs[pid.index()] = cached.fp;
                    rjfs.set_proc(pid, cached.value);
                    used.iter_mut().for_each(|u| u.push((key, computed)));
                }
            }
        }
        if let (Some(pack), Some(used)) = (&round.pack, used) {
            let keys: Vec<RjfKey> = used.iter().map(|u| u.0).collect();
            pack.record(&keys, |i| used[i].1, |k| &mut k.rjfs);
        }
        let _ = round.tables.set(tables);
        let mut stats = self.stats.lock().expect("session stats lock");
        tally.ssa.record(&mut stats, SessionPhase::Ssa);
        tally.main.record(&mut stats, SessionPhase::ReturnJf);
        if jobs > 1 {
            stats.record_span(SessionPhase::ReturnJf, start.elapsed());
        }
        rjfs
    }

    /// One procedure's symbolic values under `key`, cached, with the
    /// fuel to replay (misses meter on a private scratch budget; see
    /// [`Self::rjf_for_proc`]).
    #[allow(clippy::too_many_arguments)]
    fn sym_for_proc(
        &self,
        program: &Program,
        pid: ProcId,
        key: SymKey,
        round: &RoundCtx,
        kills: &dyn KillOracle,
        call_sym: &dyn CallSymbolics,
        options: SymEvalOptions,
        tally: &mut FanoutTally,
    ) -> (Arc<SymMap>, u64) {
        if let Some(cached) = lookup(round.memo, &self.store.syms, &key) {
            tally.symvals.add(true, Duration::ZERO);
            return (cached.value, cached.fuel);
        }
        round.note(SessionPhase::SymVals, pid.index());
        let ssa = self.tallied_ssa(program, pid, kills, round, &mut tally.ssa);
        let start = Instant::now();
        let scratch = Budget::unlimited();
        let sym = Arc::new(symbolic_eval_budgeted(
            program.proc(pid),
            &ssa,
            call_sym,
            options,
            &scratch,
        ));
        let fuel = scratch.fuel_consumed();
        let value = Arc::clone(&sym);
        remember(round.memo, &self.store.syms, key, Cached { value, fuel });
        tally.symvals.add(false, start.elapsed());
        (sym, fuel)
    }

    /// One procedure's forward jump-function site vector under `key`,
    /// cached with the fuel of the symbolic evaluation beneath it
    /// (`sym_fuel`): a later hit replays that fuel without evaluating.
    /// The site vector records no fuel of its own beyond the
    /// per-procedure construction checkpoint the caller replays.
    #[allow(clippy::too_many_arguments)]
    fn forward_sites_for_proc(
        &self,
        program: &Program,
        cg: &CallGraph,
        modref: &ModRefInfo,
        kind: JumpFunctionKind,
        key: ForwardKey,
        pid: ProcId,
        round: &RoundCtx,
        kills: &dyn KillOracle,
        (sym, sym_fuel): (&SymMap, u64),
        tally: &mut FanoutTally,
    ) -> Arc<Vec<SiteJumpFns>> {
        if let Some(cached) = lookup(round.memo, &self.store.forward_procs, &key) {
            tally.main.add(true, Duration::ZERO);
            return cached.value;
        }
        round.note(SessionPhase::ForwardJf, pid.index());
        let ssa = self.tallied_ssa(program, pid, kills, round, &mut tally.ssa);
        let start = Instant::now();
        let sites = Arc::new(site_jfs_for_proc(program, cg, modref, kind, pid, &ssa, sym));
        let value = Arc::clone(&sites);
        remember(
            round.memo,
            &self.store.forward_procs,
            key,
            Cached {
                value,
                fuel: sym_fuel,
            },
        );
        tally.main.add(false, start.elapsed());
        sites
    }

    /// Assembles the forward jump function table from cached
    /// per-procedure site vectors, fanning the per-procedure work
    /// (symbolic values + site construction) out over the worker pool
    /// and merging in `ProcId` order. A metered run hands its budget to
    /// [`build_forward_jfs_budgeted`] instead, whose precision ladder
    /// slides when the tank runs low.
    #[allow(clippy::too_many_arguments)]
    fn cached_forward_jfs(
        &self,
        program: &Program,
        cg: &CallGraph,
        modref: &ModRefInfo,
        kind: JumpFunctionKind,
        rjfs: &ReturnJumpFns,
        round: &RoundCtx,
        kills: &dyn KillOracle,
        options: SymEvalOptions,
        budget: &Budget,
        jobs: usize,
        sink: &dyn ObsSink,
    ) -> ForwardJumpFns {
        let const_eval = RjfConstEval { rjfs };
        let composer = RjfComposer { rjfs };
        let call_sym: &dyn CallSymbolics = match round.mode {
            CallSymMode::Pessimistic => &NoCallSymbolics,
            CallSymMode::ConstEval => &const_eval,
            CallSymMode::Compose => &composer,
        };
        if !round.memo {
            let start = Instant::now();
            let jfs = build_forward_jfs_budgeted(
                program, cg, modref, kind, kills, call_sym, options, budget,
            );
            self.metered_phase(SessionPhase::ForwardJf, program, start);
            return jfs;
        }

        let pids: Vec<ProcId> = program.proc_ids().collect();
        let start = Instant::now();
        let mut tally = FanoutTally::default();
        let sym_keys: Vec<SymKey> = pids.iter().map(|&pid| round.sym_key(pid)).collect();
        let keys: Vec<ForwardKey> = sym_keys
            .iter()
            .map(|&sym| ForwardKey::new(sym, kind))
            .collect();
        // Store hits first: a stored site vector carries the fuel of the
        // symbolic values beneath it, so a hit needs neither SSA nor the
        // symbolic values, only the fuel replayed, and the workers see
        // only the misses.
        let stored: Vec<Option<(u64, Arc<Vec<SiteJumpFns>>)>> = {
            let forwards = self.store.forward_procs.read().expect("forward store lock");
            keys.iter()
                .map(|key| {
                    let sites = forwards.get(key)?;
                    tally.symvals.add(true, Duration::ZERO);
                    tally.main.add(true, Duration::ZERO);
                    Some((sites.fuel, Arc::clone(&sites.value)))
                })
                .collect()
        };
        tally.main.wall += start.elapsed();
        let misses: Vec<(ProcId, SymKey, ForwardKey)> = (0..pids.len())
            .filter(|&i| stored[i].is_none())
            .map(|i| (pids[i], sym_keys[i], keys[i]))
            .collect();
        let built = par_map_obs(
            jobs,
            &misses,
            sink,
            "forward_jfs.proc",
            |_, &(pid, sym_key, key)| {
                let mut tally = FanoutTally::default();
                // Symbolic values are resolved (computed or fuel-replayed)
                // for every procedure, so consumption matches
                // `build_forward_jfs_budgeted`, which evaluates every procedure.
                let (sym, sym_fuel) = self.sym_for_proc(
                    program, pid, sym_key, round, kills, call_sym, options, &mut tally,
                );
                let sites = self.forward_sites_for_proc(
                    program,
                    cg,
                    modref,
                    kind,
                    key,
                    pid,
                    round,
                    kills,
                    (&sym, sym_fuel),
                    &mut tally,
                );
                (sym_fuel, sites, tally)
            },
        );
        let span = start.elapsed();
        if let Some(pack) = &round.pack {
            pack.record(&keys, |i| stored[i].is_none(), |k| &mut k.forwards);
        }
        let mut per_proc = Vec::with_capacity(pids.len());
        let mut built = built.into_iter();
        for (pid, hit) in pids.into_iter().zip(stored) {
            let (sym_fuel, sites, worker) = match hit {
                Some((fuel, sites)) => (fuel, sites, FanoutTally::default()),
                None => built.next().expect("one result per miss"),
            };
            // The per-procedure construction checkpoint. Unmetered
            // budgets always afford the requested rung, so the precision
            // ladder of `build_forward_jfs_budgeted` never engages here.
            budget.checkpoint(
                Phase::ForwardJf,
                kind_weight(kind).saturating_mul(proc_estimate(program.proc(pid))),
            );
            budget.checkpoint(Phase::SymEval, sym_fuel);
            tally.merge(&worker);
            per_proc.push(sites);
        }
        let mut stats = self.stats.lock().expect("session stats lock");
        tally.ssa.record(&mut stats, SessionPhase::Ssa);
        tally.symvals.record(&mut stats, SessionPhase::SymVals);
        tally.main.record(&mut stats, SessionPhase::ForwardJf);
        if jobs > 1 {
            stats.record_span(SessionPhase::ForwardJf, span);
        }
        ForwardJumpFns::from_parts(per_proc)
    }

    #[allow(clippy::too_many_arguments)]
    fn cached_solve(
        &self,
        program: &Program,
        cg: &CallGraph,
        modref: &ModRefInfo,
        jfs: &ForwardJumpFns,
        config: &AnalysisConfig,
        round: &RoundCtx,
        kills: &dyn KillOracle,
        calls: &dyn CallLattice,
        budget: &Budget,
        sink: &dyn ObsSink,
    ) -> Arc<ValSets> {
        let key = SolveKey {
            state_fp: round.state_fp,
            mod_info: round.mod_info,
            gsa: round.gsa,
            mode: round.mode,
            kind: config.jump_function,
            solver: config.solver,
            cond: config.branch_feasibility,
        };
        let start = Instant::now();
        let vals = match lookup(round.memo, &self.store.solves, &key) {
            Some(cached) => {
                self.phase_hit(SessionPhase::Solve);
                budget.checkpoint(Phase::Solver, cached.fuel);
                cached.value
            }
            None => {
                self.phase_miss(SessionPhase::Solve);
                round.note(SessionPhase::Solve, 0);
                let before = budget.fuel_consumed();
                let v = if config.branch_feasibility {
                    crate::cond::solve_cond_traced(
                        program, cg, modref, jfs, kills, calls, budget, sink,
                    )
                } else {
                    match config.solver {
                        SolverKind::CallGraph => {
                            solve_traced(program, cg, modref, jfs, budget, sink)
                        }
                        SolverKind::BindingGraph => {
                            solve_binding_budgeted(program, cg, modref, jfs, budget)
                        }
                    }
                };
                let fuel = budget.fuel_consumed() - before;
                let v = Arc::new(v);
                let value = Arc::clone(&v);
                remember(round.memo, &self.store.solves, key, Cached { value, fuel });
                v
            }
        };
        self.phase_wall(SessionPhase::Solve, start.elapsed());
        vals
    }

    /// Substitution counts of every procedure, each served from the
    /// store unless its [`EntryKey`] is new: a column recounts only the
    /// procedures whose key components, facets or entry constants moved.
    /// Unreachable procedures count 0 without a lookup (reachability
    /// depends on callers, which no per-procedure key covers). Misses
    /// are inserted in one batch after the `ProcId`-ordered merge, so
    /// workers never contend on the write lock.
    ///
    /// The one place substitution time is recorded: worker time (SSA
    /// builds excluded; they count as SSA) as wall, and at `jobs > 1`
    /// the whole fan-out as span.
    #[allow(clippy::too_many_arguments)]
    fn cached_subst(
        &self,
        program: &Program,
        cg: &CallGraph,
        calls: &dyn CallLattice,
        vals: Option<&ValSets>,
        round: &RoundCtx,
        kills: &dyn KillOracle,
        jobs: usize,
    ) -> SubstitutionCounts {
        let pids: Vec<ProcId> = program.proc_ids().collect();
        let start = Instant::now();
        // No count is inserted before the merge, so one read guard
        // serves every lookup of the fan-out (none when store-less).
        let stored = round
            .memo
            .then(|| self.store.substs.read().expect("subst store lock"));
        let counted = par_map(jobs, &pids, |_, &pid| {
            let begin = Instant::now();
            let mut out = ProcCount::default();
            if cg.is_reachable(pid) {
                // A store-less run builds no key: it counts every time.
                out.key = round.memo.then(|| round.entry_key(program, pid, vals));
                match out.key.and_then(|key| stored.as_ref()?.get(&key).copied()) {
                    Some(n) => out.n = n,
                    None => {
                        let ssa = self.tallied_ssa(program, pid, kills, round, &mut out.ssa);
                        out.n = count_one_proc(program, calls, vals, pid, &ssa);
                        out.counted = true;
                    }
                }
            }
            out.time = begin.elapsed();
            out
        });
        drop(stored);
        let mut per_proc = Vec::with_capacity(pids.len());
        let mut misses = Vec::new();
        let mut keys = Vec::new();
        let (mut ssa, mut subst) = (PhaseTally::default(), PhaseTally::default());
        for (&pid, count) in pids.iter().zip(counted) {
            per_proc.push(count.n);
            ssa.merge(&count.ssa);
            subst.wall += count.time.saturating_sub(count.ssa.wall);
            if count.counted {
                subst.misses += 1;
            } else if cg.is_reachable(pid) {
                subst.hits += 1;
            }
            if let Some(key) = count.key {
                keys.push((key, count.counted));
                if count.counted {
                    misses.push((key, count.n));
                }
            }
        }
        let insert = Instant::now();
        if subst.misses > 0 {
            round.note(SessionPhase::Subst, 0);
        }
        if let Some(pack) = &round.pack {
            let used: Vec<EntryKey> = keys.iter().map(|k| k.0).collect();
            pack.record(&used, |i| keys[i].1, |k| &mut k.substs);
        }
        if round.memo && !misses.is_empty() {
            self.store
                .substs
                .write()
                .expect("subst store lock")
                .extend(misses);
        }
        subst.wall += insert.elapsed();
        {
            let mut stats = self.stats.lock().expect("session stats lock");
            ssa.record(&mut stats, SessionPhase::Ssa);
            subst.record(&mut stats, SessionPhase::Subst);
            if jobs > 1 {
                stats.record_span(SessionPhase::Subst, start.elapsed());
            }
        }
        let total = per_proc.iter().sum();
        SubstitutionCounts { per_proc, total }
    }

    /// One SCCP + DCE step over `pid`, metered on `budget`.
    fn dce_step(&self, r: &SolvedRound<'_>, pid: ProcId, budget: &Budget) -> DceStep {
        self.phase_miss(SessionPhase::Dce);
        let ssa = r.ssa(pid);
        let start = Instant::now();
        let vals = r.vals.as_deref();
        let result = seeded_sccp_budgeted(r.program, r.calls, vals, pid, &ssa, budget);
        let mut proc = r.program.proc(pid).clone();
        let changed = dce_round_budgeted(r.program, &mut proc, &ssa, &result, r.kills, budget);
        self.phase_wall(SessionPhase::Dce, start.elapsed());
        DceStep {
            proc,
            changed,
            anomalies: BTreeMap::new(),
        }
    }

    /// [`Self::dce_step`], cached by its [`EntryKey`]: after a DCE round,
    /// only procedures whose IR changed (or whose callees' summaries
    /// changed, or whose entry constants moved) are re-processed. A miss
    /// meters on a scratch budget, and the step keeps the fuel and
    /// anomalies it recorded there for the caller to replay in `ProcId`
    /// order. Returns the step, its key, and whether it was computed.
    fn cached_dce_step(
        &self,
        r: &SolvedRound<'_>,
        pid: ProcId,
    ) -> (Cached<DceStep>, EntryKey, bool) {
        let key = r.ctx.entry_key(r.program, pid, r.vals.as_deref());
        if let Some(cached) = lookup(r.ctx.memo, &self.store.dces, &key) {
            self.phase_hit(SessionPhase::Dce);
            return (cached, key, false);
        }
        r.ctx.note(SessionPhase::Dce, pid.index());
        let scratch = Budget::unlimited();
        let mut step = self.dce_step(r, pid, &scratch);
        step.anomalies = scratch.report().anomalies;
        let cached = Cached {
            value: Arc::new(step),
            fuel: scratch.fuel_consumed(),
        };
        remember(r.ctx.memo, &self.store.dces, key, cached.clone());
        (cached, key, true)
    }

    /// The complete-propagation recount over the pristine program with
    /// the final `VAL` sets. It rebuilds its side tables (call graph,
    /// MOD/REF, return jump functions) over the pristine program, the
    /// return jump functions with *default* symbolic-evaluation options.
    #[allow(clippy::too_many_arguments)]
    fn cached_counting_pass(
        &self,
        config: &AnalysisConfig,
        vals: Option<&ValSets>,
        final_fp: u128,
        budget: &Budget,
        jobs: usize,
        sink: &dyn ObsSink,
        pack: Option<&Arc<PackLog>>,
    ) -> SubstitutionCounts {
        let orig_fp = self.base_state.fp;
        let key = CountingKey {
            orig_fp,
            final_fp,
            mod_info: config.mod_info,
            gsa: config.gsa,
            mode: call_sym_mode(config),
            rjf: config.return_jump_functions,
            forward: config.interprocedural.then_some((
                config.jump_function,
                config.solver,
                config.branch_feasibility,
            )),
        };
        let memo = budget.is_unmetered();
        if let Some(cached) = lookup(memo, &self.store.countings, &key) {
            self.phase_hit(SessionPhase::Subst);
            budget.checkpoint(Phase::ModRef, cached.fuel);
            return (*cached.value).clone();
        }
        self.phase_miss(SessionPhase::Subst);
        let before = budget.fuel_consumed();

        let mut orig = self.base.clone();
        let cg = self.cached_call_graph(&orig, orig_fp, memo, None);
        let modref = self.cached_modref(&orig, &cg, orig_fp, budget, jobs, sink, None);
        augment_global_vars(&mut orig, &modref);
        let keys = self.cached_state_keys(&orig, &cg, &modref, &self.base_state, memo);
        // The gsa facet is pinned to its default, as the return jump
        // functions are built with default options.
        let round = RoundCtx {
            memo,
            state_fp: orig_fp,
            keys,
            mod_info: config.mod_info,
            gsa: false,
            mode: call_sym_mode(config),
            tables: OnceLock::new(),
            log: None,
            pack: pack.cloned(),
        };
        let counts = {
            let orig = &orig;
            let mod_kills;
            let kills: &dyn KillOracle = if config.mod_info {
                mod_kills = ModKills::new(orig, &modref);
                &mod_kills
            } else {
                &WorstCaseKills
            };
            let rjfs = if config.return_jump_functions {
                self.cached_return_jfs(
                    orig,
                    &cg,
                    &round,
                    kills,
                    SymEvalOptions::default(),
                    budget,
                    jobs,
                    sink,
                )
            } else {
                ReturnJumpFns::empty(orig.procs.len())
            };
            let rjf_lattice = RjfLattice { rjfs: &rjfs };
            let calls: &dyn CallLattice = if round.mode != CallSymMode::Pessimistic {
                &rjf_lattice
            } else {
                &PessimisticCalls
            };
            self.cached_subst(orig, &cg, calls, vals, &round, kills, jobs)
        };
        let fuel = budget.fuel_consumed() - before;
        let value = Arc::new(counts.clone());
        remember(memo, &self.store.countings, key, Cached { value, fuel });
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::analyze;
    use ipcp_analysis::ExhaustionPolicy;

    const OCEAN_LIKE: &str = "\
global n\nglobal m\n\
proc init()\nn = 64\nm = 32\nend\n\
proc compute(k)\nx = n\ny = m\nz = k\nprint(x + y + z)\nend\n\
main\ncall init()\ncall compute(8)\nend\n";

    const DEAD_GUARD: &str = "\
proc f(debug)\n\
if debug then\n\
read(q)\nx = q\n\
else\n\
x = 3\n\
end\n\
print(x)\nend\n\
main\ncall f(0)\nend\n";

    fn assert_outcomes_equal(a: &AnalysisOutcome, b: &AnalysisOutcome, what: &str) {
        assert_eq!(a.program, b.program, "{what}: program");
        assert_eq!(a.constants, b.constants, "{what}: constants");
        assert_eq!(a.substitutions, b.substitutions, "{what}: substitutions");
        assert_eq!(a.stats, b.stats, "{what}: stats");
        assert_eq!(a.robustness, b.robustness, "{what}: robustness");
    }

    /// The store-less run of `config`: metered, so it recomputes every
    /// artifact every round, like a restart loop. An unmetered `config`
    /// runs at an ample `fuel: Some(1 << 40)`, and the report's fuel
    /// limit is put back for field-by-field comparison.
    fn store_less(program: &Program, config: &AnalysisConfig) -> AnalysisOutcome {
        let fuel = Some(config.fuel.unwrap_or(1 << 40));
        let mut outcome = analyze(program, &AnalysisConfig { fuel, ..*config });
        outcome.robustness.fuel_limit = config.fuel;
        outcome
    }

    fn sweep_configs() -> Vec<AnalysisConfig> {
        let mut configs = Vec::new();
        for kind in JumpFunctionKind::ALL {
            for rjf in [true, false] {
                configs.push(AnalysisConfig {
                    jump_function: kind,
                    return_jump_functions: rjf,
                    ..AnalysisConfig::default()
                });
            }
        }
        configs.push(AnalysisConfig {
            mod_info: false,
            ..AnalysisConfig::default()
        });
        configs.push(AnalysisConfig {
            complete_propagation: true,
            ..AnalysisConfig::default()
        });
        configs.push(AnalysisConfig::intraprocedural_baseline());
        configs.push(AnalysisConfig {
            gsa: true,
            ..AnalysisConfig::default()
        });
        configs.push(AnalysisConfig {
            rjf_full_composition: true,
            ..AnalysisConfig::default()
        });
        configs.push(AnalysisConfig {
            solver: SolverKind::BindingGraph,
            ..AnalysisConfig::default()
        });
        configs.push(AnalysisConfig::conditional());
        configs
    }

    #[test]
    fn session_sweep_matches_store_less_runs() {
        for src in [OCEAN_LIKE, DEAD_GUARD] {
            let program = ipcp_ir::compile_to_ir(src).unwrap();
            let session = AnalysisSession::new(&program);
            for (i, config) in sweep_configs().iter().enumerate() {
                let got = session.analyze(config);
                let want = store_less(&program, config);
                assert_outcomes_equal(&got, &want, &format!("config #{i}"));
            }
        }
    }

    #[test]
    fn repeated_analyses_hit_the_store() {
        let program = ipcp_ir::compile_to_ir(OCEAN_LIKE).unwrap();
        let session = AnalysisSession::new(&program);
        let first = session.analyze(&AnalysisConfig::default());
        let cold_misses = session.stats().total_misses();
        assert!(cold_misses > 0, "cold run computes artifacts");
        let second = session.analyze(&AnalysisConfig::default());
        assert_outcomes_equal(&first, &second, "warm rerun");
        assert_eq!(
            session.stats().total_misses(),
            cold_misses,
            "warm rerun computes nothing new"
        );
        assert!(session.stats().total_hits() > 5, "warm rerun hits");
        assert!(!session.store().is_empty());
    }

    #[test]
    fn config_sweep_reuses_config_independent_artifacts() {
        let program = ipcp_ir::compile_to_ir(OCEAN_LIKE).unwrap();
        let session = AnalysisSession::new(&program);
        session.analyze(&AnalysisConfig::default());
        let ssa_misses = session.stats().counter(SessionPhase::Ssa).misses;
        // A different jump-function kind shares SSA, MOD/REF, call graph,
        // symbolic values and return jump functions.
        session.analyze(&AnalysisConfig {
            jump_function: JumpFunctionKind::PassThrough,
            ..AnalysisConfig::default()
        });
        assert_eq!(
            session.stats().counter(SessionPhase::Ssa).misses,
            ssa_misses,
            "no new SSA for a JF-kind change"
        );
        assert_eq!(session.stats().counter(SessionPhase::SymVals).misses, 3);
        assert!(session.stats().counter(SessionPhase::ReturnJf).hits >= 3);
    }

    #[test]
    fn incremental_complete_propagation_reuses_unchanged_procs() {
        // DEAD_GUARD's DCE only rewrites `f`; `main` keeps its fingerprint,
        // but as a caller of `f` its closure changes — while `f`'s leaf
        // position means round 2 must still re-derive only what changed.
        let program = ipcp_ir::compile_to_ir(DEAD_GUARD).unwrap();
        let session = AnalysisSession::new(&program);
        let complete = AnalysisConfig {
            complete_propagation: true,
            ..AnalysisConfig::default()
        };
        let out = session.analyze(&complete);
        assert!(out.stats.dce_rounds >= 1);
        let want = analyze(&program, &complete);
        assert_outcomes_equal(&out, &want, "complete propagation");
        // Rerunning is a pure replay: every phase hits.
        let misses = session.stats().total_misses();
        session.analyze(&complete);
        assert_eq!(session.stats().total_misses(), misses);
    }

    #[test]
    fn subst_time_is_spanned_wherever_it_is_recorded() {
        // At jobs > 1 every fan-out that adds substitution wall time must
        // add its span too, or `par×` (wall / span) overstates the
        // speedup. Two complete-propagation columns that differ only in
        // `return_jump_functions` (inert without MOD info) share every
        // round's counts, so the second one computes nothing in its
        // rounds and recounts only in the complete-propagation pass.
        let program = ipcp_ir::compile_to_ir(DEAD_GUARD).unwrap();
        let session = AnalysisSession::new(&program);
        let jobs = 2;
        let first = AnalysisConfig {
            complete_propagation: true,
            mod_info: false,
            return_jump_functions: false,
            jobs,
            ..AnalysisConfig::default()
        };
        let out = session.analyze(&first);
        assert!(out.stats.dce_rounds >= 1, "the recount must run");
        let before = session.stats().counter(SessionPhase::Subst);
        session.analyze(&AnalysisConfig {
            return_jump_functions: true,
            ..first
        });
        let after = session.stats().counter(SessionPhase::Subst);
        let wall = after.wall_nanos - before.wall_nanos;
        let span = after.span_nanos - before.span_nanos;
        assert!(wall > 0, "the recount records subst time");
        assert!(
            wall <= jobs as u128 * span,
            "subst wall {wall} ns exceeds {jobs} x span {span} ns"
        );
        assert!(after.wall_nanos <= jobs as u128 * after.span_nanos);
    }

    #[test]
    fn callers_stop_at_an_unchanged_summary_and_follow_a_changed_one() {
        // leaf → mid → top → main, and `main` passes what `leaf` wrote
        // on to `show`: its forward jump function reads `leaf`'s return
        // jump function through `main`'s symbolic values.
        let source = |leaf: &str| {
            format!(
                "global g\nproc leaf()\n{leaf}end\nproc mid()\ncall leaf()\nend\n\
                 proc top()\ncall mid()\nend\nproc show(x)\nprint(x)\nend\n\
                 main\ncall top()\ncall show(g)\nend\n"
            )
        };
        let config = AnalysisConfig::default();
        let mut session = AnalysisSession::from_source(&source("g = 5\n")).unwrap();
        session.analyze(&config);
        // SSA and return-jump-function misses of analyzing the edit
        // `leaf` in the same session.
        let mut edit = |leaf: &str| {
            let program = ipcp_ir::compile_to_ir(&source(leaf)).unwrap();
            session.set_program(&program);
            let before = session.stats();
            let got = session.analyze(&config);
            assert_outcomes_equal(&got, &store_less(&program, &config), leaf);
            let misses =
                |phase| session.stats().counter(phase).misses - before.counter(phase).misses;
            (misses(SessionPhase::Ssa), misses(SessionPhase::ReturnJf))
        };
        // A print leaves `leaf`'s summary as it was: its callers keep
        // their keys.
        assert_eq!(edit("g = 5\nprint(1)\n"), (1, 1));
        // A new constant moves `leaf`'s return jump function, and with it
        // every caller's table; SSA, which reads only MOD, stops at `leaf`.
        assert_eq!(edit("g = 6\nprint(1)\n"), (1, 4));
    }

    #[test]
    fn substitution_counts_are_sized_per_entry() {
        let program = ipcp_ir::compile_to_ir(OCEAN_LIKE).unwrap();
        let session = AnalysisSession::new(&program);
        session.analyze(&AnalysisConfig::default());
        let store = session.store();
        let counts = store.substs.read().unwrap().len();
        assert!(counts > 0, "per-procedure counts are cached");
        assert!(store.approx_bytes() < store.len() as u64 * 2048);
        assert!(store.approx_bytes() >= (store.len() - counts) as u64 * 2048);
    }

    #[test]
    fn only_path_labels_keep_summary_packs() {
        let dir = std::env::temp_dir().join(format!("ipcp-session-packs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(crate::diskcache::DiskCache::open(&dir).unwrap());
        let program = ipcp_ir::compile_to_ir(OCEAN_LIKE).unwrap();
        let run = |label: &dyn Fn(&mut AnalysisSession)| {
            let mut session = AnalysisSession::new(&program);
            session.attach_disk_cache(Arc::clone(&cache));
            label(&mut session);
            session.analyze(&AnalysisConfig::default());
        };
        run(&|s| s.set_content_audit_label("serve:0123"));
        assert_eq!(cache.pack_count(), 0, "a content label keeps no pack");
        assert_eq!(cache.stats().pack_misses, 0, "nor reads one");
        assert!(crate::audit::load_ledger(&dir, "serve:0123").is_some());
        let _ = cache.clear();
        run(&|s| s.set_audit_label("prog.mf"));
        assert_eq!(cache.pack_count(), 1, "a path label keeps its pack");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_pack_holds_only_its_configurations_summaries() {
        let program = ipcp_ir::compile_to_ir(OCEAN_LIKE).unwrap();
        let pack_bytes = |configs: &[AnalysisConfig], tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "ipcp-session-pack-facets-{tag}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cache = Arc::new(crate::diskcache::DiskCache::open(&dir).unwrap());
            let mut session = AnalysisSession::new(&program);
            session.attach_disk_cache(Arc::clone(&cache));
            session.set_audit_label("prog.mf");
            for config in configs {
                session.analyze(config);
            }
            let last = configs.last().expect("a config");
            let key = crate::diskcache::pack_key("prog.mf", last);
            let bytes = std::fs::read(dir.join(format!("{key:016x}.pack"))).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        };
        // Neither configuration keys anything under the default's MOD
        // and gsa facets, so analyzing the default first must not grow
        // its pack.
        for (tag, config) in [
            (
                "no-mod",
                AnalysisConfig {
                    mod_info: false,
                    ..AnalysisConfig::default()
                },
            ),
            (
                "gsa",
                AnalysisConfig {
                    gsa: true,
                    ..AnalysisConfig::default()
                },
            ),
        ] {
            let alone = pack_bytes(std::slice::from_ref(&config), &format!("{tag}-alone"));
            let after = pack_bytes(
                &[AnalysisConfig::default(), config],
                &format!("{tag}-after"),
            );
            assert_eq!(after, alone, "{tag}");
        }
    }

    #[test]
    fn provenance_after_analyze_is_pure_store_hits() {
        let dir = std::env::temp_dir().join(format!("ipcp-session-prov-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(crate::diskcache::DiskCache::open(&dir).unwrap());
        for src in [OCEAN_LIKE, DEAD_GUARD] {
            let program = ipcp_ir::compile_to_ir(src).unwrap();
            let mut session = AnalysisSession::new(&program);
            session.attach_disk_cache(Arc::clone(&cache));
            session.set_audit_label("prog.mf");
            for (i, config) in sweep_configs().iter().enumerate() {
                session.analyze(config);
                let store_len = session.store().len();
                let footprint = session.approx_footprint_bytes();
                let misses = session.stats().total_misses();
                let audit = session.last_audit().expect("an unmetered run audits");
                let ledger = crate::audit::load_ledger(&dir, "prog.mf");
                let disk = cache.stats();

                let prov = session.provenance(config, &NoopSink);

                let what = format!("config #{i}");
                assert_eq!(session.store().len(), store_len, "{what}: store size");
                assert_eq!(session.approx_footprint_bytes(), footprint, "{what}");
                assert_eq!(session.stats().total_misses(), misses, "{what}: misses");
                let after = session.last_audit().expect("audit kept");
                assert!(Arc::ptr_eq(&after, &audit), "{what}: audit committed");
                assert_eq!(crate::audit::load_ledger(&dir, "prog.mf"), ledger, "{what}");
                assert_eq!(cache.stats(), disk, "{what}: disk cache touched");

                // The view renders what a fresh session records.
                let fresh = crate::provenance::analyze_provenance(&program, config);
                assert_eq!(prov.attribution, fresh.attribution, "{what}");
                for proc in &program.procs {
                    assert_eq!(
                        prov.explain(&proc.name, None),
                        fresh.explain(&proc.name, None),
                        "{what}: {}",
                        proc.name
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_after_provenance_matches_store_less_runs() {
        // Provenance fills the store first; `analyze` then replays the
        // artifacts it cached, fuel included.
        for src in [OCEAN_LIKE, DEAD_GUARD] {
            let program = ipcp_ir::compile_to_ir(src).unwrap();
            for (i, config) in sweep_configs().iter().enumerate() {
                let session = AnalysisSession::new(&program);
                session.provenance(config, &NoopSink);
                let got = session.analyze(config);
                let want = store_less(&program, config);
                assert_outcomes_equal(&got, &want, &format!("config #{i}"));
            }
        }
    }

    #[test]
    fn metered_runs_are_store_less_and_book_their_phases() {
        let program = ipcp_ir::compile_to_ir(DEAD_GUARD).unwrap();
        let session = AnalysisSession::new(&program);
        let config = AnalysisConfig {
            fuel: Some(40),
            complete_propagation: true,
            ..AnalysisConfig::default()
        };
        let metered = session.analyze(&config);
        assert!(session.store().is_empty(), "metered runs never cache");
        let stats = session.stats();
        for phase in [SessionPhase::ModRef, SessionPhase::Solve] {
            assert!(stats.counter(phase).misses > 0, "{phase} not booked");
            assert!(stats.counter(phase).wall_nanos > 0, "{phase} not timed");
        }
        assert!(stats.rounds > 0);

        // A warm store is neither read nor written by a metered run.
        session.analyze(&AnalysisConfig {
            fuel: None,
            ..config
        });
        let stored = session.store().len();
        let again = session.analyze(&config);
        assert_outcomes_equal(&again, &metered, "metered after warm-up");
        assert_eq!(session.store().len(), stored, "metered run wrote the store");
    }

    #[test]
    fn memoized_dce_replays_ssa_anomalies() {
        // A by-ref actual that is a constant: malformed IR that SSA
        // construction recovers from with an anomaly, which each DCE step
        // over `main` reports.
        let src = "proc f(n)\nn = n + 1\nend\nmain\nx = 1\ncall f(x)\nprint(x)\nend\n";
        let mut program = ipcp_ir::compile_to_ir(src).unwrap();
        let main = program.main;
        for block in &mut program.proc_mut(main).blocks {
            for instr in &mut block.instrs {
                if let ipcp_ir::Instr::Call { args, .. } = instr {
                    args[0].value = ipcp_ir::Operand::Const(1);
                }
            }
        }
        let config = AnalysisConfig {
            complete_propagation: true,
            ..AnalysisConfig::default()
        };
        let want = store_less(&program, &config);
        assert!(
            want.robustness
                .anomalies
                .keys()
                .any(|k| k.contains("by-ref")),
            "{:?}",
            want.robustness
        );
        let session = AnalysisSession::new(&program);
        for pass in ["cold", "warm"] {
            for jobs in [1, 2] {
                let got = session.analyze(&AnalysisConfig { jobs, ..config });
                assert_outcomes_equal(&got, &want, &format!("{pass} jobs={jobs}"));
            }
        }
    }

    #[test]
    fn checked_analysis_propagates_exhaustion_policy() {
        let session = AnalysisSession::from_source(OCEAN_LIKE).unwrap();
        let config = AnalysisConfig {
            fuel: Some(3),
            on_exhausted: ExhaustionPolicy::Error,
            ..AnalysisConfig::default()
        };
        assert!(session.analyze_checked(&config).is_err());
        assert!(session.analyze_checked(&AnalysisConfig::default()).is_ok());
    }

    #[test]
    fn stats_render_as_json_and_text() {
        let session = AnalysisSession::from_source(OCEAN_LIKE).unwrap();
        session.analyze(&AnalysisConfig::default());
        let json = session.stats().to_json();
        assert!(json.starts_with("{\"analyses\":1,\"rounds\":1,\"phases\":{"));
        assert!(json.contains("\"ssa\":{\"wall_us\":"));
        let text = session.stats().to_string();
        assert!(text.contains("phase"));
        assert!(text.contains("ssa"));
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisSession>();
        assert_send_sync::<ArtifactStore>();
    }

    #[test]
    fn jobs_levels_are_bit_identical() {
        // jobs = 0 (treated as 1), an in-between level, and far more
        // workers than procedures all reproduce the sequential outcome.
        let variants = [
            AnalysisConfig::default(),
            AnalysisConfig {
                complete_propagation: true,
                ..AnalysisConfig::default()
            },
            AnalysisConfig {
                gsa: true,
                rjf_full_composition: true,
                ..AnalysisConfig::default()
            },
            AnalysisConfig::conditional(),
        ];
        for src in [OCEAN_LIKE, DEAD_GUARD] {
            let program = ipcp_ir::compile_to_ir(src).unwrap();
            for base in &variants {
                let want = store_less(&program, base);
                for jobs in [0usize, 2, 8, 64] {
                    let session = AnalysisSession::new(&program);
                    let config = AnalysisConfig { jobs, ..*base };
                    let got = session.analyze(&config);
                    assert_outcomes_equal(&got, &want, &format!("jobs={jobs}"));
                }
            }
        }
    }

    #[test]
    fn concurrent_sweep_shares_one_store() {
        let program = ipcp_ir::compile_to_ir(OCEAN_LIKE).unwrap();
        let session = AnalysisSession::new(&program);
        let configs = sweep_configs();
        let outs = par_map(4, &configs, |_, config| session.analyze(config));
        for (i, (config, got)) in configs.iter().zip(&outs).enumerate() {
            let want = store_less(&program, config);
            assert_outcomes_equal(got, &want, &format!("concurrent config #{i}"));
        }
        assert!(!session.store().is_empty());
    }
}
