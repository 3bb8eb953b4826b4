//! Incrementality audit: miss-reason attribution for recomputed phases.
//!
//! The memoized [`crate::session::AnalysisSession`] and the persistent
//! [`crate::diskcache::DiskCache`] both key artifacts by content
//! fingerprints plus the configuration facets each phase reads. When a
//! run recomputes something, this module answers the follow-up question
//! the counters alone cannot: *why was the cached artifact unusable?*
//!
//! ## The ledger
//!
//! After every unmetered analysis the session captures a [`Ledger`] — a
//! compact record of the key components that existed during the run:
//!
//! * the program fingerprint and the globals fingerprint,
//! * per procedure (by *name*, so renumbering across edits does not
//!   confuse attribution): its own IR fingerprint, its closure
//!   fingerprint (a Merkle-over-SCC digest of everything it reaches),
//!   and its summary fingerprint (what its callers' keys read of it:
//!   signature, MOD, REF and return jump functions),
//! * per phase: the rendered configuration facets its cache key reads,
//! * the disk-cache keys — outcome entries and summary packs — this
//!   label has stored (bounded), so a later absence can be classified
//!   as an eviction.
//!
//! With a disk cache attached the ledger is persisted next to it under
//! `audit/<label>.ledger` (framed exactly like a cache entry, so torn
//! writes and version skew degrade to "no previous ledger" — a first
//! run — never a wrong attribution). Without one it lives in session
//! memory, attributing recomputation across analyses of one process.
//!
//! ## Classification
//!
//! Diffing the previous ledger against the current key components gives
//! every recomputed artifact a [`MissReason`]:
//!
//! * [`MissReason::FirstComputation`] — no previous record exists.
//! * [`MissReason::InputChanged`] — an upstream fingerprint component
//!   moved; the reason names the changed procedures and whether the
//!   global table changed.
//! * [`MissReason::ConfigFacetChanged`] — the content was unchanged but
//!   a configuration facet the phase reads differed.
//! * [`MissReason::Evicted`] — a disk entry this session once stored is
//!   gone (LRU byte budget or manual clear).
//! * [`MissReason::Quarantined`] — the disk entry failed validation.
//! * [`MissReason::FormatVersionMismatch`] — the entry predates the
//!   current on-disk format or toolchain.
//!
//! The audit is *logical*: an artifact whose key components are
//! unchanged counts as up to date even when a fresh process recomputes
//! it in memory — the question answered is "did the inputs move", not
//! "was this process warm".
//!
//! A recomputed procedure whose summary fingerprint came out as the
//! previous run's is an *early cutoff*: its callers' keys did not move
//! with it, so its line says that they were cut off.

use crate::diskcache::{encode_entry, validate_entry};
use crate::driver::AnalysisConfig;
use crate::session::SessionPhase;
use ipcp_ir::codec::{decode_from_slice, encode_to_vec, ByteReader, Wire, WireError, WireSink};
use ipcp_ir::fingerprint::Fnv1a;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Upper bound on remembered disk-cache outcome keys; beyond it the
/// oldest keys are dropped (an absence then reads as a first
/// computation, which is the safe under-claim).
pub const MAX_OUTCOME_KEYS: usize = 4096;

/// How many recomputed units a phase line shows before truncating (the
/// full list stays available through a `why <proc>` filter).
const RENDER_LIMIT: usize = 8;

// ---- miss reasons ---------------------------------------------------------

/// Why a cached artifact could not be reused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MissReason {
    /// Nothing was ever recorded for this unit under this label.
    FirstComputation,
    /// An upstream fingerprint component changed.
    InputChanged {
        /// Procedures whose own IR fingerprint moved (by name).
        procs: Vec<String>,
        /// Whether the global table (or entry procedure) changed.
        globals: bool,
    },
    /// The inputs were unchanged but a configuration facet the phase
    /// reads differed from the previous run.
    ConfigFacetChanged {
        /// The facet names that changed (e.g. `"gsa"`, `"solver"`).
        facets: Vec<String>,
    },
    /// A disk entry this session had stored was deleted (LRU eviction
    /// or `cache clear`).
    Evicted,
    /// The disk entry failed validation and was quarantined.
    Quarantined {
        /// The stable quarantine reason (e.g. `"checksum mismatch"`).
        reason: String,
    },
    /// The disk entry was written by another on-disk format version or
    /// toolchain.
    FormatVersionMismatch,
}

impl MissReason {
    /// Stable kebab-case label used in JSON, metrics, and totals.
    pub fn label(&self) -> &'static str {
        match self {
            MissReason::FirstComputation => "first-computation",
            MissReason::InputChanged { .. } => "input-changed",
            MissReason::ConfigFacetChanged { .. } => "config-facet-changed",
            MissReason::Evicted => "evicted",
            MissReason::Quarantined { .. } => "quarantined",
            MissReason::FormatVersionMismatch => "format-version-mismatch",
        }
    }

    /// One-line human rendering, detail included.
    pub fn describe(&self) -> String {
        match self {
            MissReason::FirstComputation => "first computation".to_string(),
            MissReason::InputChanged { procs, globals } => {
                let mut parts = Vec::new();
                if !procs.is_empty() {
                    parts.push(format!("procs: {}", join_truncated(procs, RENDER_LIMIT)));
                }
                if *globals {
                    parts.push("globals".to_string());
                }
                if parts.is_empty() {
                    "input changed".to_string()
                } else {
                    format!("input changed ({})", parts.join("; "))
                }
            }
            MissReason::ConfigFacetChanged { facets } => {
                format!("config facet changed ({})", facets.join(", "))
            }
            MissReason::Evicted => "evicted from disk cache".to_string(),
            MissReason::Quarantined { reason } => format!("quarantined ({reason})"),
            MissReason::FormatVersionMismatch => "format version mismatch".to_string(),
        }
    }
}

fn join_truncated(items: &[String], limit: usize) -> String {
    if items.len() <= limit {
        items.join(", ")
    } else {
        format!(
            "{} … (+{} more)",
            items[..limit].join(", "),
            items.len() - limit
        )
    }
}

// ---- the ledger -----------------------------------------------------------

/// One procedure's key components, recorded by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerProc {
    /// Source name of the procedure.
    pub name: String,
    /// Fingerprint of the procedure's own IR.
    pub own_fp: u64,
    /// Closure fingerprint (own IR plus everything transitively
    /// reachable plus the global table).
    pub closure_fp: u64,
    /// Summary fingerprint under the run's configuration: signature,
    /// MOD, REF and — when the run built them — the return jump
    /// functions.
    pub summary_fp: u64,
}

impl Wire for LedgerProc {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.name.encode(w);
        self.own_fp.encode(w);
        self.closure_fp.encode(w);
        self.summary_fp.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(LedgerProc {
            name: String::decode(r)?,
            own_fp: u64::decode(r)?,
            closure_fp: u64::decode(r)?,
            summary_fp: u64::decode(r)?,
        })
    }
}

/// The per-run key-component record the audit diffs against. See the
/// module docs. Its fingerprints are [`ledger_fp`] folds: the ledger
/// only detects change.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Fingerprint of the pristine program.
    pub base_fp: u64,
    /// Fingerprint of the global table and entry procedure.
    pub globals_fp: u64,
    /// Per-procedure key components, in program order.
    pub procs: Vec<LedgerProc>,
    /// Per-phase rendered configuration facets (phase name →
    /// `(facet, value)` pairs, both rendered as stable strings).
    pub facets: BTreeMap<String, Vec<(String, String)>>,
    /// Disk-cache keys — outcome entries and summary packs — stored
    /// under this label, newest last, bounded by [`MAX_OUTCOME_KEYS`].
    pub outcome_keys: Vec<u64>,
}

/// A 128-bit fingerprint as the ledger keeps it: its halves folded into
/// 64 bits. The ledger only detects change, never keys anything, so a
/// fold costs at most a missed attribution (a 2⁻⁶⁴ chance per
/// comparison) and halves the fingerprint bytes of a ledger that is read
/// and rewritten whole on every cold run.
pub fn ledger_fp(fp: u128) -> u64 {
    fp as u64 ^ (fp >> 64) as u64
}

impl Wire for Ledger {
    fn encode<W: WireSink>(&self, w: &mut W) {
        self.base_fp.encode(w);
        self.globals_fp.encode(w);
        self.procs.encode(w);
        self.facets.encode(w);
        self.outcome_keys.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Ledger {
            base_fp: u64::decode(r)?,
            globals_fp: u64::decode(r)?,
            procs: Vec::<LedgerProc>::decode(r)?,
            facets: BTreeMap::<String, Vec<(String, String)>>::decode(r)?,
            outcome_keys: Vec::<u64>::decode(r)?,
        })
    }
}

impl Ledger {
    /// Records `key` as stored under this label, deduplicating and
    /// enforcing the [`MAX_OUTCOME_KEYS`] bound.
    pub fn remember_outcome_key(&mut self, key: u64) {
        if self.outcome_keys.contains(&key) {
            return;
        }
        self.outcome_keys.push(key);
        if self.outcome_keys.len() > MAX_OUTCOME_KEYS {
            let drop = self.outcome_keys.len() - MAX_OUTCOME_KEYS;
            self.outcome_keys.drain(..drop);
        }
    }

    /// The procedures by name, for diffing against another ledger.
    fn proc_map(&self) -> HashMap<&str, &LedgerProc> {
        self.procs.iter().map(|p| (p.name.as_str(), p)).collect()
    }
}

// ---- facet rendering ------------------------------------------------------

/// The phases the audit covers whose artifacts are keyed per procedure.
pub const PROC_SCOPED: [SessionPhase; 5] = [
    SessionPhase::Ssa,
    SessionPhase::ReturnJf,
    SessionPhase::SymVals,
    SessionPhase::ForwardJf,
    SessionPhase::Dce,
];

/// The phases the audit covers whose artifacts are keyed per program
/// state.
pub const PROGRAM_SCOPED: [SessionPhase; 4] = [
    SessionPhase::CallGraph,
    SessionPhase::ModRef,
    SessionPhase::Solve,
    SessionPhase::Subst,
];

fn call_sym_mode_name(config: &AnalysisConfig) -> &'static str {
    // Mirrors the session's `CallSymMode` collapse: the facet symbolic
    // evaluation actually reads.
    if !(config.return_jump_functions && config.mod_info) {
        "pessimistic"
    } else if config.rjf_full_composition {
        "compose"
    } else {
        "const-eval"
    }
}

/// Renders, per audited phase, exactly the configuration facets its
/// cache key reads (mirroring the session's key structs). Facet names
/// match the CLI flag vocabulary so `ipcp why` output reads naturally.
pub fn render_facets(config: &AnalysisConfig) -> BTreeMap<String, Vec<(String, String)>> {
    let mod_info = ("mod-info".to_string(), config.mod_info.to_string());
    let gsa = ("gsa".to_string(), config.gsa.to_string());
    let mode = (
        "call-recovery".to_string(),
        call_sym_mode_name(config).to_string(),
    );
    let kind = (
        "jump-function".to_string(),
        format!("{:?}", config.jump_function),
    );
    let solver = ("solver".to_string(), format!("{:?}", config.solver));
    let cond = (
        "branch-feasibility".to_string(),
        config.branch_feasibility.to_string(),
    );
    let forward = (
        "interprocedural".to_string(),
        if config.interprocedural {
            format!(
                "{:?}/{:?}/{}",
                config.jump_function, config.solver, config.branch_feasibility
            )
        } else {
            "off".to_string()
        },
    );
    let recovery = (
        "call-recovery".to_string(),
        (call_sym_mode_name(config) != "pessimistic").to_string(),
    );

    let mut out = BTreeMap::new();
    out.insert(SessionPhase::CallGraph.name().to_string(), Vec::new());
    out.insert(SessionPhase::ModRef.name().to_string(), Vec::new());
    out.insert(SessionPhase::Ssa.name().to_string(), vec![mod_info.clone()]);
    out.insert(
        SessionPhase::ReturnJf.name().to_string(),
        vec![
            mod_info.clone(),
            gsa.clone(),
            (
                "return-jump-functions".to_string(),
                config.return_jump_functions.to_string(),
            ),
        ],
    );
    out.insert(
        SessionPhase::SymVals.name().to_string(),
        vec![mod_info.clone(), gsa.clone(), mode.clone()],
    );
    out.insert(
        SessionPhase::ForwardJf.name().to_string(),
        vec![mod_info.clone(), gsa.clone(), mode.clone(), kind.clone()],
    );
    out.insert(
        SessionPhase::Solve.name().to_string(),
        vec![
            mod_info.clone(),
            gsa.clone(),
            mode.clone(),
            kind.clone(),
            solver.clone(),
            cond.clone(),
        ],
    );
    out.insert(
        SessionPhase::Subst.name().to_string(),
        vec![mod_info.clone(), gsa.clone(), mode.clone(), forward],
    );
    out.insert(
        SessionPhase::Dce.name().to_string(),
        vec![
            mod_info.clone(),
            gsa.clone(),
            recovery,
            (
                "complete-propagation".to_string(),
                config.complete_propagation.to_string(),
            ),
        ],
    );
    out.insert(
        SessionPhase::DiskCache.name().to_string(),
        vec![
            kind,
            (
                "return-jump-functions".to_string(),
                config.return_jump_functions.to_string(),
            ),
            mod_info,
            (
                "complete-propagation".to_string(),
                config.complete_propagation.to_string(),
            ),
            (
                "interprocedural".to_string(),
                config.interprocedural.to_string(),
            ),
            (
                "rjf-full-composition".to_string(),
                config.rjf_full_composition.to_string(),
            ),
            solver,
            gsa,
            cond,
        ],
    );
    out
}

fn changed_facets(
    prev: &BTreeMap<String, Vec<(String, String)>>,
    cur: &BTreeMap<String, Vec<(String, String)>>,
    phase: &str,
) -> Vec<String> {
    let empty = Vec::new();
    let a = prev.get(phase).unwrap_or(&empty);
    let b = cur.get(phase).unwrap_or(&empty);
    let am: BTreeMap<&str, &str> = a.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let bm: BTreeMap<&str, &str> = b.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let keys: BTreeSet<&str> = am.keys().chain(bm.keys()).copied().collect();
    keys.into_iter()
        .filter(|k| am.get(k) != bm.get(k))
        .map(str::to_string)
        .collect()
}

// ---- the audit ------------------------------------------------------------

/// One phase's incrementality verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseAudit {
    /// The phase audited.
    pub phase: SessionPhase,
    /// Units (procedures, or 1 for program-scoped phases) in scope.
    pub scope_total: u64,
    /// Units whose key components were unchanged.
    pub up_to_date: u64,
    /// Recomputed units: `(unit name, why)`. Program-scoped phases use
    /// the phase name as the unit name.
    pub recomputed: Vec<(String, MissReason)>,
}

/// What the disk-cache consult observed, for the audit's `diskcache`
/// phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskOutcome {
    /// A validated entry was served.
    Hit,
    /// The entry was unusable for the carried reason.
    Miss(MissReason),
}

/// The full incrementality audit of one analysis run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalAudit {
    /// True when no previous ledger existed (everything is a first
    /// computation).
    pub first_run: bool,
    /// Procedures whose own IR fingerprint changed since the previous
    /// run (new procedures included), by name.
    pub changed_procs: Vec<String>,
    /// Whether the global table or entry procedure changed.
    pub globals_changed: bool,
    /// Recomputed procedures whose summary came out unchanged, by name:
    /// their callers were cut off.
    pub cut_off: Vec<String>,
    /// Per-phase verdicts, in pipeline order.
    pub phases: Vec<PhaseAudit>,
}

impl IncrementalAudit {
    /// Totals by [`MissReason::label`], across phases.
    pub fn miss_reason_totals(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for phase in &self.phases {
            for (_, reason) in &phase.recomputed {
                *out.entry(reason.label().to_string()).or_insert(0) += 1;
            }
        }
        out
    }

    /// Total recomputed units across phases.
    pub fn total_recomputed(&self) -> u64 {
        self.phases.iter().map(|p| p.recomputed.len() as u64).sum()
    }

    /// Renders the audit for `ipcp why`. `filter` narrows the report to
    /// one phase (matched by name) or one procedure (matched against
    /// recomputed unit names); a phase match shows its full recomputed
    /// list, the unfiltered view truncates long lists.
    pub fn render(&self, filter: Option<&str>) -> String {
        let mut out = String::new();
        if self.first_run {
            out.push_str("first analysis under this label — everything computed fresh\n");
        }
        if !self.changed_procs.is_empty() {
            let _ = writeln!(
                out,
                "changed procedures: {}",
                join_truncated(&self.changed_procs, RENDER_LIMIT)
            );
        }
        if self.globals_changed {
            out.push_str("globals: changed\n");
        }
        let phase_filter =
            filter.and_then(|f| self.phases.iter().any(|p| p.phase.name() == f).then_some(f));
        let proc_filter = match (filter, phase_filter) {
            (Some(f), None) => Some(f),
            _ => None,
        };
        let mut matched = false;
        for phase in &self.phases {
            if let Some(f) = phase_filter {
                if phase.phase.name() != f {
                    continue;
                }
            }
            let entries: Vec<&(String, MissReason)> = match proc_filter {
                Some(f) => phase.recomputed.iter().filter(|(n, _)| n == f).collect(),
                None => phase.recomputed.iter().collect(),
            };
            if proc_filter.is_some() && entries.is_empty() {
                continue;
            }
            matched = true;
            let _ = writeln!(
                out,
                "phase {}: {}/{} up to date, {} recomputed",
                phase.phase.name(),
                phase.up_to_date,
                phase.scope_total,
                phase.recomputed.len()
            );
            let limit = if phase_filter.is_some() || proc_filter.is_some() {
                usize::MAX
            } else {
                RENDER_LIMIT
            };
            let proc_scoped = PROC_SCOPED.contains(&phase.phase);
            for (name, reason) in entries.iter().take(limit) {
                let cut = if proc_scoped && self.cut_off.contains(name) {
                    "; summary unchanged, callers cut off"
                } else {
                    ""
                };
                let _ = writeln!(out, "  {}: {}{cut}", name, reason.describe());
            }
            if entries.len() > limit {
                let _ = writeln!(out, "  … (+{} more)", entries.len() - limit);
            }
        }
        if let Some(f) = proc_filter {
            if !matched {
                let _ = writeln!(
                    out,
                    "nothing recomputed for `{f}`: every phase it feeds is up to date"
                );
            }
        }
        out
    }
}

/// The disk-cache outcome-key facets that changed since `prev` (the
/// disk-miss classification input).
pub fn outcome_facets_changed(prev: &Ledger, config: &AnalysisConfig) -> Vec<String> {
    changed_facets(
        &prev.facets,
        &render_facets(config),
        SessionPhase::DiskCache.name(),
    )
}

/// The audit of a run fully served from the disk cache: nothing was
/// recomputed, so every phase — including the disk consult itself — is
/// up to date. `procs` is the program's procedure count.
pub fn warm_hit_audit(procs: u64) -> IncrementalAudit {
    let mut phases = Vec::new();
    for phase in PROGRAM_SCOPED {
        phases.push(PhaseAudit {
            phase,
            scope_total: 1,
            up_to_date: 1,
            recomputed: Vec::new(),
        });
    }
    for phase in PROC_SCOPED {
        phases.push(PhaseAudit {
            phase,
            scope_total: procs,
            up_to_date: procs,
            recomputed: Vec::new(),
        });
    }
    phases.push(PhaseAudit {
        phase: SessionPhase::DiskCache,
        scope_total: 1,
        up_to_date: 1,
        recomputed: Vec::new(),
    });
    phases.sort_by_key(|p| SessionPhase::ALL.iter().position(|&q| q == p.phase));
    IncrementalAudit {
        first_run: false,
        changed_procs: Vec::new(),
        globals_changed: false,
        cut_off: Vec::new(),
        phases,
    }
}

/// Classifies a disk-cache load failure against the previous ledger.
/// `key` is the outcome key that missed; `facets_changed` are the
/// outcome-facet names that differ from the previous run.
pub fn classify_disk_miss(
    prev: Option<&Ledger>,
    miss: &crate::diskcache::LoadMiss,
    key: u64,
    base_changed: bool,
    facets_changed: &[String],
) -> MissReason {
    use crate::diskcache::LoadMiss;
    match miss {
        LoadMiss::Invalid("format version mismatch") | LoadMiss::Invalid("toolchain mismatch") => {
            MissReason::FormatVersionMismatch
        }
        LoadMiss::Invalid(reason) => MissReason::Quarantined {
            reason: (*reason).to_string(),
        },
        LoadMiss::Unreadable => MissReason::Quarantined {
            reason: "unreadable entry".to_string(),
        },
        LoadMiss::Absent => {
            let Some(prev) = prev else {
                return MissReason::FirstComputation;
            };
            if base_changed {
                return MissReason::InputChanged {
                    procs: Vec::new(),
                    globals: false,
                };
            }
            if !facets_changed.is_empty() {
                return MissReason::ConfigFacetChanged {
                    facets: facets_changed.to_vec(),
                };
            }
            if prev.outcome_keys.contains(&key) {
                MissReason::Evicted
            } else {
                MissReason::FirstComputation
            }
        }
    }
}

/// What one run computed, for [`diff_ledgers`] to attribute.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunRecord {
    /// Per phase that ran: the units it computed, as indices into the
    /// ledger's procedures (unit `0` for a program-scoped phase). A
    /// phase absent did not run under the configuration.
    pub computed: BTreeMap<SessionPhase, BTreeSet<usize>>,
    /// The procedures nothing calls (indices into the ledger's
    /// procedures): no cutoff is claimed for them.
    pub uncalled: BTreeSet<usize>,
    /// Why the per-procedure summary pack could not be used, when one
    /// was consulted and missed.
    pub pack: Option<MissReason>,
}

/// Diffs the previous ledger against the current run's key components
/// and attributes every recomputed unit.
///
/// With `ran`, a phase that ran lists exactly the units it computed;
/// each takes the reason its key components give (first computation, an
/// input or a facet change) or, when those did not move, the reason the
/// persisted copy was unusable: for per-procedure phases the summary
/// pack's miss, for program-scoped ones the outcome entry's; a phase the
/// configuration skipped lists nothing. Without `ran`, every phase lists
/// the units whose key components moved: what a run that needed it would
/// compute.
pub fn diff_ledgers(
    prev: Option<&Ledger>,
    current: &Ledger,
    disk: Option<DiskOutcome>,
    ran: Option<&RunRecord>,
) -> IncrementalAudit {
    // Built once: every phase below looks procedures up in it.
    let prev_procs = prev.map(Ledger::proc_map);
    let (changed_procs, globals_changed) = match (prev, &prev_procs) {
        (Some(prev), Some(pm)) => {
            let changed: Vec<String> = current
                .procs
                .iter()
                .filter(|p| pm.get(p.name.as_str()).is_none_or(|q| q.own_fp != p.own_fp))
                .map(|p| p.name.clone())
                .collect();
            (changed, prev.globals_fp != current.globals_fp)
        }
        _ => (Vec::new(), false),
    };
    let base_changed = prev.is_some_and(|p| p.base_fp != current.base_fp);
    let input_reason = || MissReason::InputChanged {
        procs: changed_procs.clone(),
        globals: globals_changed,
    };
    let disk_miss = match &disk {
        Some(DiskOutcome::Miss(reason)) => Some(reason.clone()),
        _ => None,
    };
    let pack_miss = ran.and_then(|r| r.pack.clone());
    // The reason of a unit that ran although its key components held.
    let unexplained = |persisted: &Option<MissReason>, other: &Option<MissReason>| {
        persisted
            .clone()
            .or_else(|| other.clone())
            .unwrap_or_else(|| match prev {
                Some(_) => input_reason(),
                None => MissReason::FirstComputation,
            })
    };

    let mut phases = Vec::new();
    for phase in PROGRAM_SCOPED {
        let scope_total = 1;
        let moved = match prev {
            None => Some(MissReason::FirstComputation),
            Some(prev) => {
                let facets = changed_facets(&prev.facets, &current.facets, phase.name());
                if base_changed {
                    Some(input_reason())
                } else if !facets.is_empty() {
                    Some(MissReason::ConfigFacetChanged { facets })
                } else {
                    None
                }
            }
        };
        let reason = match ran {
            None => moved,
            Some(ran) => ran
                .computed
                .get(&phase)
                .filter(|units| !units.is_empty())
                .map(|_| moved.unwrap_or_else(|| unexplained(&disk_miss, &pack_miss))),
        };
        let recomputed: Vec<(String, MissReason)> = reason
            .map(|r| (phase.name().to_string(), r))
            .into_iter()
            .collect();
        phases.push(PhaseAudit {
            phase,
            scope_total,
            up_to_date: scope_total - recomputed.len() as u64,
            recomputed,
        });
    }
    for phase in PROC_SCOPED {
        let scope_total = current.procs.len() as u64;
        let facets = prev.map(|prev| changed_facets(&prev.facets, &current.facets, phase.name()));
        let moved = |p: &LedgerProc| -> Option<MissReason> {
            let (Some(pm), Some(facets)) = (&prev_procs, &facets) else {
                return Some(MissReason::FirstComputation);
            };
            match pm.get(p.name.as_str()) {
                None => Some(MissReason::FirstComputation),
                Some(q) if q.closure_fp != p.closure_fp => Some(input_reason()),
                Some(_) if !facets.is_empty() => Some(MissReason::ConfigFacetChanged {
                    facets: facets.clone(),
                }),
                Some(_) => None,
            }
        };
        let recomputed: Vec<(String, MissReason)> = match ran {
            None => current
                .procs
                .iter()
                .filter_map(|p| moved(p).map(|r| (p.name.clone(), r)))
                .collect(),
            Some(ran) => ran
                .computed
                .get(&phase)
                .into_iter()
                .flatten()
                .filter_map(|&i| current.procs.get(i))
                .map(|p| {
                    let reason = moved(p).unwrap_or_else(|| unexplained(&pack_miss, &disk_miss));
                    (p.name.clone(), reason)
                })
                .collect(),
        };
        phases.push(PhaseAudit {
            phase,
            scope_total,
            up_to_date: scope_total - recomputed.len() as u64,
            recomputed,
        });
    }
    if let Some(disk) = disk {
        let recomputed = match disk {
            DiskOutcome::Hit => Vec::new(),
            DiskOutcome::Miss(reason) => {
                vec![(SessionPhase::DiskCache.name().to_string(), reason)]
            }
        };
        phases.push(PhaseAudit {
            phase: SessionPhase::DiskCache,
            scope_total: 1,
            up_to_date: 1 - recomputed.len() as u64,
            recomputed,
        });
    }
    // A called procedure some per-procedure phase recomputed whose
    // summary held is an early cutoff: its callers' keys did not move.
    let recomputed: BTreeSet<&str> = phases
        .iter()
        .filter(|p| PROC_SCOPED.contains(&p.phase))
        .flat_map(|p| p.recomputed.iter().map(|(name, _)| name.as_str()))
        .collect();
    let cut_off = current
        .procs
        .iter()
        .enumerate()
        .filter(|(i, p)| {
            ran.is_some_and(|r| !r.uncalled.contains(i)) && recomputed.contains(p.name.as_str())
        })
        .map(|(_, p)| p)
        .filter(|p| {
            prev_procs
                .as_ref()
                .and_then(|pm| pm.get(p.name.as_str()))
                .is_some_and(|q| q.summary_fp == p.summary_fp)
        })
        .map(|p| p.name.clone())
        .collect();
    // Order by pipeline position for stable rendering.
    phases.sort_by_key(|p| SessionPhase::ALL.iter().position(|&q| q == p.phase));
    IncrementalAudit {
        first_run: prev.is_none(),
        changed_procs,
        globals_changed,
        cut_off,
        phases,
    }
}

// ---- ledger persistence ---------------------------------------------------

/// The hash of an audit label, naming its ledger and summary packs.
pub(crate) fn label_fp(label: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(label.as_bytes());
    h.finish()
}

/// The on-disk path of `label`'s ledger under `cache_dir`. Lives in an
/// `audit/` subdirectory so the cache's `.art` entry scans (eviction,
/// verify, clear) never see it.
pub fn ledger_path(cache_dir: &Path, label: &str) -> PathBuf {
    cache_dir
        .join("audit")
        .join(format!("{:016x}.ledger", label_fp(label)))
}

/// Loads `label`'s previous ledger. Every failure — absent, torn,
/// version-skewed, undecodable — degrades to `None` (a first run).
pub fn load_ledger(cache_dir: &Path, label: &str) -> Option<Ledger> {
    let bytes = std::fs::read(ledger_path(cache_dir, label)).ok()?;
    let payload = validate_entry(label_fp(label), &bytes).ok()?;
    decode_from_slice::<Ledger>(payload).ok()
}

/// Persists `label`'s ledger via temp-file + atomic rename, framed like
/// a cache entry (magic, version, toolchain, checksum). Failures are
/// swallowed — a lost ledger only costs attribution on the next run.
/// Writes go through plain `std::fs`, never the cache's counters, so
/// [`crate::diskcache::CacheStats`] stays untouched.
pub fn store_ledger(cache_dir: &Path, label: &str, ledger: &Ledger) {
    let path = ledger_path(cache_dir, label);
    let Some(dir) = path.parent() else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let image = encode_entry(label_fp(label), &encode_to_vec(ledger));
    let tmp = dir.join(format!(".tmp-ledger.{}", std::process::id()));
    if std::fs::write(&tmp, &image).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return;
    }
    if std::fs::rename(&tmp, &path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(procs: &[(&str, u64, u64)], config: &AnalysisConfig) -> Ledger {
        Ledger {
            base_fp: procs.iter().map(|(_, o, _)| o).sum(),
            globals_fp: 7,
            procs: procs
                .iter()
                .map(|&(name, own_fp, closure_fp)| LedgerProc {
                    name: name.to_string(),
                    own_fp,
                    closure_fp,
                    summary_fp: own_fp,
                })
                .collect(),
            facets: render_facets(config),
            outcome_keys: Vec::new(),
        }
    }

    #[test]
    fn first_run_attributes_everything_to_first_computation() {
        let config = AnalysisConfig::default();
        let cur = ledger(&[("a", 1, 10), ("b", 2, 20)], &config);
        let audit = diff_ledgers(None, &cur, None, None);
        assert!(audit.first_run);
        let totals = audit.miss_reason_totals();
        assert_eq!(totals.len(), 1);
        // 4 program-scoped phases + 5 proc-scoped phases × 2 procs.
        assert_eq!(totals["first-computation"], 4 + 10);
    }

    #[test]
    fn unchanged_rerun_is_fully_up_to_date() {
        let config = AnalysisConfig::default();
        let cur = ledger(&[("a", 1, 10), ("b", 2, 20)], &config);
        let audit = diff_ledgers(Some(&cur), &cur.clone(), None, None);
        assert!(!audit.first_run);
        assert_eq!(audit.total_recomputed(), 0);
        assert!(audit.changed_procs.is_empty());
        for phase in &audit.phases {
            assert_eq!(phase.up_to_date, phase.scope_total);
        }
    }

    #[test]
    fn procedures_are_matched_by_name_not_position() {
        let config = AnalysisConfig::default();
        let prev = ledger(
            &[("a", 1, 10), ("b", 2, 20), ("c", 3, 30), ("d", 4, 40)],
            &config,
        );
        // `c` removed, `e` added, the rest reordered: `d` is unchanged,
        // `b`'s closure moved, `a`'s own fingerprint and closure moved.
        let cur = ledger(
            &[("d", 4, 40), ("b", 2, 21), ("e", 5, 50), ("a", 9, 11)],
            &config,
        );
        let audit = diff_ledgers(Some(&prev), &cur, None, None);
        assert!(!audit.first_run);
        assert_eq!(audit.changed_procs, ["e", "a"]);
        assert!(!audit.globals_changed);
        let input = MissReason::InputChanged {
            procs: vec!["e".into(), "a".into()],
            globals: false,
        };
        for phase in &audit.phases {
            if PROC_SCOPED.contains(&phase.phase) {
                assert_eq!((phase.scope_total, phase.up_to_date), (4, 1), "{phase:?}");
                assert_eq!(
                    phase.recomputed,
                    [
                        ("b".to_string(), input.clone()),
                        ("e".to_string(), MissReason::FirstComputation),
                        ("a".to_string(), input.clone()),
                    ],
                    "{:?}",
                    phase.phase
                );
            } else {
                // The base fingerprint moved with `a`'s own.
                assert_eq!(
                    phase.recomputed,
                    [(phase.phase.name().to_string(), input.clone())]
                );
            }
        }
    }

    #[test]
    fn one_edit_attributes_exactly_the_closure() {
        let config = AnalysisConfig::default();
        let prev = ledger(&[("main", 1, 10), ("f", 2, 20), ("g", 3, 30)], &config);
        // Editing `f` changes f's own fp and the closures of f and its
        // caller `main`; `g` is untouched.
        let cur = ledger(&[("main", 1, 11), ("f", 9, 21), ("g", 3, 30)], &config);
        let audit = diff_ledgers(Some(&prev), &cur, None, None);
        assert_eq!(audit.changed_procs, vec!["f".to_string()]);
        assert!(!audit.globals_changed);
        let totals = audit.miss_reason_totals();
        assert_eq!(totals.get("first-computation"), None);
        for phase in &audit.phases {
            if PROC_SCOPED.contains(&phase.phase) {
                let names: Vec<&str> = phase.recomputed.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(names, vec!["main", "f"], "{}", phase.phase);
                for (_, reason) in &phase.recomputed {
                    assert_eq!(reason.label(), "input-changed");
                }
            } else {
                assert_eq!(phase.recomputed.len(), 1, "{}", phase.phase);
                assert_eq!(phase.recomputed[0].1.label(), "input-changed");
            }
        }
    }

    #[test]
    fn facet_flip_attributes_only_the_phases_reading_it() {
        let mut config = AnalysisConfig::default();
        let prev = ledger(&[("a", 1, 10)], &config);
        config.gsa = !config.gsa;
        let cur = ledger(&[("a", 1, 10)], &config);
        let audit = diff_ledgers(Some(&prev), &cur, None, None);
        assert!(audit.changed_procs.is_empty());
        for phase in &audit.phases {
            match phase.phase {
                // SSA and the program-structure phases don't read `gsa`.
                SessionPhase::CallGraph | SessionPhase::ModRef | SessionPhase::Ssa => {
                    assert_eq!(phase.recomputed.len(), 0, "{}", phase.phase);
                }
                _ => {
                    assert_eq!(phase.recomputed.len(), phase.scope_total as usize);
                    for (_, reason) in &phase.recomputed {
                        match reason {
                            MissReason::ConfigFacetChanged { facets } => {
                                assert!(facets.iter().any(|f| f == "gsa"), "{facets:?}");
                            }
                            other => panic!("expected facet change, got {other:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn disk_miss_classification_covers_the_taxonomy() {
        use crate::diskcache::LoadMiss;
        let config = AnalysisConfig::default();
        let mut prev = ledger(&[("a", 1, 10)], &config);
        prev.remember_outcome_key(42);
        assert_eq!(
            classify_disk_miss(None, &LoadMiss::Absent, 42, false, &[]),
            MissReason::FirstComputation
        );
        assert_eq!(
            classify_disk_miss(Some(&prev), &LoadMiss::Absent, 42, false, &[]),
            MissReason::Evicted
        );
        assert_eq!(
            classify_disk_miss(Some(&prev), &LoadMiss::Absent, 43, false, &[]),
            MissReason::FirstComputation
        );
        assert!(matches!(
            classify_disk_miss(Some(&prev), &LoadMiss::Absent, 43, true, &[]),
            MissReason::InputChanged { .. }
        ));
        assert!(matches!(
            classify_disk_miss(
                Some(&prev),
                &LoadMiss::Absent,
                43,
                false,
                &["solver".to_string()]
            ),
            MissReason::ConfigFacetChanged { .. }
        ));
        assert_eq!(
            classify_disk_miss(
                Some(&prev),
                &LoadMiss::Invalid("format version mismatch"),
                42,
                false,
                &[]
            ),
            MissReason::FormatVersionMismatch
        );
        assert_eq!(
            classify_disk_miss(
                Some(&prev),
                &LoadMiss::Invalid("checksum mismatch"),
                42,
                false,
                &[]
            ),
            MissReason::Quarantined {
                reason: "checksum mismatch".to_string()
            }
        );
    }

    #[test]
    fn ledger_roundtrips_through_disk_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("ipcp-audit-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = AnalysisConfig::default();
        let mut l = ledger(&[("a", 1, 10), ("b", 2, 20)], &config);
        l.remember_outcome_key(99);
        store_ledger(&dir, "prog.mf", &l);
        assert_eq!(load_ledger(&dir, "prog.mf"), Some(l.clone()));
        assert_eq!(load_ledger(&dir, "other.mf"), None);
        // Corrupt the file: the load degrades to a first run.
        let path = ledger_path(&dir, "prog.mf");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_ledger(&dir, "prog.mf"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_key_memory_is_bounded() {
        let mut l = Ledger::default();
        for k in 0..(MAX_OUTCOME_KEYS as u64 + 100) {
            l.remember_outcome_key(k);
        }
        assert_eq!(l.outcome_keys.len(), MAX_OUTCOME_KEYS);
        assert_eq!(
            *l.outcome_keys.last().unwrap(),
            MAX_OUTCOME_KEYS as u64 + 99
        );
        l.remember_outcome_key(MAX_OUTCOME_KEYS as u64 + 99);
        assert_eq!(l.outcome_keys.len(), MAX_OUTCOME_KEYS);
    }

    #[test]
    fn render_filters_by_phase_and_by_proc() {
        let config = AnalysisConfig::default();
        let prev = ledger(&[("main", 1, 10), ("f", 2, 20), ("g", 3, 30)], &config);
        let cur = ledger(&[("main", 1, 11), ("f", 9, 21), ("g", 3, 30)], &config);
        let audit = diff_ledgers(Some(&prev), &cur, None, None);
        let full = audit.render(None);
        assert!(full.contains("changed procedures: f"));
        assert!(full.contains("phase ssa: 1/3 up to date, 2 recomputed"));
        let ssa = audit.render(Some("ssa"));
        assert!(ssa.contains("phase ssa"));
        assert!(!ssa.contains("phase solve"));
        let f = audit.render(Some("f"));
        assert!(f.contains("f: input changed (procs: f)"));
        assert!(!f.contains("main: "));
        let g = audit.render(Some("g"));
        assert!(g.contains("nothing recomputed for `g`"));
    }
}
