//! Resource governance for the analysis pipeline.
//!
//! Every expensive phase of interprocedural constant propagation —
//! symbolic evaluation, polynomial construction, SCCP, the MOD/REF
//! fixpoint, return-jump-function composition, and the interprocedural
//! solvers — draws *fuel* from a shared [`Budget`]. When the budget is
//! exhausted the pipeline does not panic or loop: each phase degrades
//! to a sound, coarser answer (jump functions slide down the paper's
//! precision ladder `Polynomial → PassThrough → IntraproceduralConstant
//! → Literal → ⊥`; lattice values drop to ⊥), and every degradation is
//! recorded in a [`RobustnessReport`].
//!
//! The fuel supply is abstracted behind [`FuelSource`] so tests can
//! substitute a deterministic [`FaultInjector`] that trips exhaustion at
//! exactly the Nth checkpoint — the fault-injection harness behind the
//! no-panic/soundness property tests.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// The analysis phases that draw fuel, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Per-instruction/per-phi symbolic evaluation work.
    SymEval,
    /// Polynomial and symbolic-expression construction.
    Poly,
    /// Sparse conditional constant propagation iterations.
    Sccp,
    /// MOD/REF interprocedural fixpoint iterations.
    ModRef,
    /// Return-jump-function construction per procedure.
    ReturnJf,
    /// Forward jump-function construction per procedure.
    ForwardJf,
    /// Interprocedural solver worklist pops / edge evaluations.
    Solver,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 7] = [
        Phase::SymEval,
        Phase::Poly,
        Phase::Sccp,
        Phase::ModRef,
        Phase::ReturnJf,
        Phase::ForwardJf,
        Phase::Solver,
    ];

    /// Stable lowercase name, used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SymEval => "symeval",
            Phase::Poly => "poly",
            Phase::Sccp => "sccp",
            Phase::ModRef => "modref",
            Phase::ReturnJf => "retjf",
            Phase::ForwardJf => "forward-jf",
            Phase::Solver => "solver",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What the driver does when the budget runs dry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExhaustionPolicy {
    /// Degrade jump functions and lattice values soundly and finish.
    #[default]
    Degrade,
    /// Report an error instead of a (coarser) result.
    Error,
}

impl fmt::Display for ExhaustionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExhaustionPolicy::Degrade => "degrade",
            ExhaustionPolicy::Error => "error",
        })
    }
}

/// A supply of fuel. Implementations decide when a consumption request
/// fails; once any request fails the owning [`Budget`] stays exhausted.
pub trait FuelSource {
    /// Attempts to consume `amount` units for `phase`. Returns `false`
    /// when the supply is (now) exhausted.
    fn try_consume(&self, phase: Phase, amount: u64) -> bool;

    /// Units still available, or `None` when unlimited / unknown.
    fn remaining(&self) -> Option<u64>;

    /// True when this source *provably* never fails a request — i.e. the
    /// supply is unlimited, not merely of unknown size. Memoization in
    /// the analysis session is only sound under an unmetered budget
    /// (cached artifacts replay their recorded fuel instead of re-earning
    /// it), so sources default to `false` and only the genuinely
    /// unlimited supply opts in.
    fn is_unmetered(&self) -> bool {
        false
    }
}

/// Unlimited fuel: every request succeeds.
struct UnlimitedFuel;

impl FuelSource for UnlimitedFuel {
    fn try_consume(&self, _phase: Phase, _amount: u64) -> bool {
        true
    }
    fn remaining(&self) -> Option<u64> {
        None
    }
    fn is_unmetered(&self) -> bool {
        true
    }
}

/// A finite tank of `limit` units.
struct FiniteFuel {
    limit: u64,
    used: RefCell<u64>,
}

impl FuelSource for FiniteFuel {
    fn try_consume(&self, _phase: Phase, amount: u64) -> bool {
        let mut used = self.used.borrow_mut();
        match used.checked_add(amount) {
            Some(next) if next <= self.limit => {
                *used = next;
                true
            }
            _ => false,
        }
    }
    fn remaining(&self) -> Option<u64> {
        Some(self.limit.saturating_sub(*self.used.borrow()))
    }
}

/// Deterministic fault injector: allows the first `n` checkpoints and
/// fails every one after, regardless of phase or cost. Driving an
/// analysis with `FaultInjector::new(n)` for increasing `n` sweeps the
/// exhaustion point across every checkpoint in the pipeline.
pub struct FaultInjector {
    allowed: u64,
    seen: RefCell<u64>,
}

impl FaultInjector {
    /// An injector that permits exactly `allowed` checkpoints.
    pub fn new(allowed: u64) -> Self {
        FaultInjector {
            allowed,
            seen: RefCell::new(0),
        }
    }
}

impl FuelSource for FaultInjector {
    fn try_consume(&self, _phase: Phase, _amount: u64) -> bool {
        let mut seen = self.seen.borrow_mut();
        *seen += 1;
        *seen <= self.allowed
    }
    fn remaining(&self) -> Option<u64> {
        // Unknown by design: the injector counts checkpoints, not units,
        // so phases must not plan ahead based on it.
        None
    }
}

/// The disk-fault kinds the persistent artifact cache must tolerate.
///
/// Each kind models a distinct real-world failure: a crash mid-write
/// (torn write), a filesystem that lost the file tail (truncation),
/// media bit rot, a full disk, a permission change, and a rename that
/// fails across the atomic-publish step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoFaultKind {
    /// Only a prefix of the intended bytes reaches the disk.
    TornWrite,
    /// The file is written whole, then loses its tail.
    Truncate,
    /// One bit of the written payload flips.
    BitFlip,
    /// The write fails with `ENOSPC` (disk full).
    Enospc,
    /// The write fails with `EACCES` (permission denied).
    Eacces,
    /// The atomic temp→final rename fails.
    RenameFail,
}

impl IoFaultKind {
    /// All fault kinds, for exhaustive campaigns.
    pub const ALL: [IoFaultKind; 6] = [
        IoFaultKind::TornWrite,
        IoFaultKind::Truncate,
        IoFaultKind::BitFlip,
        IoFaultKind::Enospc,
        IoFaultKind::Eacces,
        IoFaultKind::RenameFail,
    ];

    /// Stable lowercase name, used in reports and test output.
    pub fn name(self) -> &'static str {
        match self {
            IoFaultKind::TornWrite => "torn-write",
            IoFaultKind::Truncate => "truncate",
            IoFaultKind::BitFlip => "bit-flip",
            IoFaultKind::Enospc => "enospc",
            IoFaultKind::Eacces => "eacces",
            IoFaultKind::RenameFail => "rename-fail",
        }
    }

    /// The operation class this fault can strike.
    pub fn target_op(self) -> IoOp {
        match self {
            IoFaultKind::RenameFail => IoOp::Rename,
            _ => IoOp::Write,
        }
    }
}

impl fmt::Display for IoFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The I/O operation classes the cache performs (and the injector can
/// intercept).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoOp {
    /// Reading an entry file.
    Read,
    /// Writing a temp file.
    Write,
    /// The atomic temp→final rename.
    Rename,
    /// Removing an entry (eviction, clear, quarantine source).
    Remove,
}

/// Deterministic disk-fault injector, the I/O analogue of
/// [`FaultInjector`]: fires `kind` exactly once, at the `trigger`-th
/// eligible operation. Sweeping `trigger` across a cache session drives
/// the fault through every write and rename the cache performs.
///
/// Unlike the fuel-side injector this one is `Sync` (atomics, not
/// `RefCell`) because the disk cache is shared across analysis workers.
#[derive(Debug)]
pub struct IoFaultInjector {
    kind: IoFaultKind,
    trigger: u64,
    seen: std::sync::atomic::AtomicU64,
    injected: std::sync::atomic::AtomicU64,
}

impl IoFaultInjector {
    /// An injector that fires `kind` at the `trigger`-th eligible
    /// operation (1-based; a trigger of 0 never fires).
    pub fn new(kind: IoFaultKind, trigger: u64) -> Self {
        IoFaultInjector {
            kind,
            trigger,
            seen: std::sync::atomic::AtomicU64::new(0),
            injected: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The fault this injector delivers.
    pub fn kind(&self) -> IoFaultKind {
        self.kind
    }

    /// Called by the cache's I/O layer before each operation of class
    /// `op`; returns `true` exactly when the fault should strike now.
    pub fn should_fire(&self, op: IoOp) -> bool {
        use std::sync::atomic::Ordering;
        if op != self.kind.target_op() || self.trigger == 0 {
            return false;
        }
        let nth = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if nth == self.trigger {
            self.injected.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// How many faults have actually been delivered (0 or 1).
    pub fn injected(&self) -> u64 {
        self.injected.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// How many eligible operations have been observed so far.
    pub fn eligible_ops_seen(&self) -> u64 {
        self.seen.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Everything the budget learned while the analysis ran.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RobustnessReport {
    /// The configured fuel limit, if finite.
    pub fuel_limit: Option<u64>,
    /// Units successfully consumed across all phases.
    pub fuel_consumed: u64,
    /// Whether any checkpoint failed.
    pub exhausted: bool,
    /// How many times each phase degraded its result.
    pub degradations: BTreeMap<Phase, u64>,
    /// Precision-ladder steps taken by jump-function construction,
    /// keyed by `(from, to)` kind names.
    pub ladder_steps: BTreeMap<(String, String), u64>,
    /// Malformed-but-validated IR shapes the transforms recovered from
    /// instead of panicking (e.g. a DCE sweep skipped because SSA and IR
    /// disagreed), keyed by a stable description.
    pub anomalies: BTreeMap<String, u64>,
}

impl RobustnessReport {
    /// Total degradation events across all phases.
    pub fn total_degradations(&self) -> u64 {
        self.degradations.values().sum()
    }

    /// Total anomaly events across all descriptions.
    pub fn total_anomalies(&self) -> u64 {
        self.anomalies.values().sum()
    }

    /// True when the analysis ran to completion at full precision.
    pub fn is_clean(&self) -> bool {
        !self.exhausted
            && self.degradations.is_empty()
            && self.ladder_steps.is_empty()
            && self.anomalies.is_empty()
    }

    /// Renders the report as a JSON object (hand-rolled; the workspace
    /// carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        match self.fuel_limit {
            Some(n) => out.push_str(&format!("\"fuel_limit\":{n},")),
            None => out.push_str("\"fuel_limit\":null,"),
        }
        out.push_str(&format!("\"fuel_consumed\":{},", self.fuel_consumed));
        out.push_str(&format!("\"exhausted\":{},", self.exhausted));
        out.push_str("\"degradations\":{");
        let mut first = true;
        for (phase, count) in &self.degradations {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{count}", phase.name()));
        }
        out.push_str("},\"ladder_steps\":[");
        let mut first = true;
        for ((from, to), count) in &self.ladder_steps {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"from\":\"{from}\",\"to\":\"{to}\",\"count\":{count}}}"
            ));
        }
        out.push_str("],\"anomalies\":{");
        let mut first = true;
        for (what, count) in &self.anomalies {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{count}", json_escape(what)));
        }
        out.push_str("}}");
        out
    }
}

impl fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fuel_limit {
            Some(n) => writeln!(f, "fuel: {} consumed of {n}", self.fuel_consumed)?,
            None => writeln!(f, "fuel: {} consumed (unlimited)", self.fuel_consumed)?,
        }
        writeln!(
            f,
            "exhausted: {}; degradations: {}",
            if self.exhausted { "yes" } else { "no" },
            self.total_degradations()
        )?;
        for (phase, count) in &self.degradations {
            writeln!(f, "  {phase}: {count}")?;
        }
        for ((from, to), count) in &self.ladder_steps {
            writeln!(f, "  ladder {from} -> {to}: {count}")?;
        }
        if !self.anomalies.is_empty() {
            writeln!(f, "anomalies: {}", self.total_anomalies())?;
            for (what, count) in &self.anomalies {
                writeln!(f, "  {what}: {count}")?;
            }
        }
        Ok(())
    }
}

/// Minimal JSON string escaping for anomaly keys (hand-rolled; the
/// workspace carries no serde).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct BudgetState {
    consumed: u64,
    exhausted: bool,
    degradations: BTreeMap<Phase, u64>,
    ladder_steps: BTreeMap<(String, String), u64>,
    anomalies: BTreeMap<String, u64>,
}

struct BudgetInner {
    source: Box<dyn FuelSource>,
    fuel_limit: Option<u64>,
    state: RefCell<BudgetState>,
}

/// Shared fuel handle threaded through the analysis phases. Cloning is
/// cheap and clones draw from the same tank.
///
/// Exhaustion is *sticky*: after the first failed
/// [`checkpoint`](Budget::checkpoint) every later checkpoint fails too, so a phase
/// that observed exhaustion can rely on downstream phases observing it
/// as well.
#[derive(Clone)]
pub struct Budget {
    inner: Rc<BudgetInner>,
}

impl Budget {
    fn from_parts(source: Box<dyn FuelSource>, fuel_limit: Option<u64>) -> Self {
        Budget {
            inner: Rc::new(BudgetInner {
                source,
                fuel_limit,
                state: RefCell::new(BudgetState {
                    consumed: 0,
                    exhausted: false,
                    degradations: BTreeMap::new(),
                    ladder_steps: BTreeMap::new(),
                    anomalies: BTreeMap::new(),
                }),
            }),
        }
    }

    /// A budget that never exhausts.
    pub fn unlimited() -> Self {
        Budget::from_parts(Box::new(UnlimitedFuel), None)
    }

    /// A budget with a finite tank of `limit` units.
    pub fn with_fuel(limit: u64) -> Self {
        Budget::from_parts(
            Box::new(FiniteFuel {
                limit,
                used: RefCell::new(0),
            }),
            Some(limit),
        )
    }

    /// A budget drawing from a custom source (e.g. a [`FaultInjector`]).
    pub fn from_source<S: FuelSource + 'static>(source: S) -> Self {
        Budget::from_parts(Box::new(source), None)
    }

    /// Builds the budget implied by an optional fuel limit.
    pub fn for_limit(limit: Option<u64>) -> Self {
        match limit {
            Some(n) => Budget::with_fuel(n),
            None => Budget::unlimited(),
        }
    }

    /// Attempts to spend `amount` units on behalf of `phase`. Returns
    /// `false` — permanently, for all callers — once the supply fails.
    pub fn checkpoint(&self, phase: Phase, amount: u64) -> bool {
        let mut state = self.inner.state.borrow_mut();
        if state.exhausted {
            return false;
        }
        if self.inner.source.try_consume(phase, amount) {
            state.consumed += amount;
            true
        } else {
            state.exhausted = true;
            false
        }
    }

    /// True once any checkpoint has failed.
    pub fn is_exhausted(&self) -> bool {
        self.inner.state.borrow().exhausted
    }

    /// True when every checkpoint is guaranteed to succeed (see
    /// [`FuelSource::is_unmetered`]).
    pub fn is_unmetered(&self) -> bool {
        self.inner.source.is_unmetered() && !self.inner.state.borrow().exhausted
    }

    /// Units consumed so far — a cheap accessor for fuel accounting
    /// (avoids snapshotting the whole report).
    pub fn fuel_consumed(&self) -> u64 {
        self.inner.state.borrow().consumed
    }

    /// Units still available, or `None` when unlimited / unknown.
    /// Reports `Some(0)` once exhaustion has been observed.
    pub fn fuel_remaining(&self) -> Option<u64> {
        if self.inner.state.borrow().exhausted {
            return Some(0);
        }
        self.inner.source.remaining()
    }

    /// Records that `phase` produced a degraded (coarser but sound)
    /// result.
    pub fn record_degradation(&self, phase: Phase) {
        let mut state = self.inner.state.borrow_mut();
        *state.degradations.entry(phase).or_insert(0) += 1;
    }

    /// Records one precision-ladder step from jump-function kind `from`
    /// down to `to`.
    pub fn record_ladder_step(&self, from: &str, to: &str) {
        let mut state = self.inner.state.borrow_mut();
        *state
            .ladder_steps
            .entry((from.to_string(), to.to_string()))
            .or_insert(0) += 1;
    }

    /// Records a malformed-IR shape a transform recovered from instead of
    /// panicking (the transform degrades to a no-op for the affected
    /// region; the result stays sound, merely less optimized).
    pub fn record_anomaly(&self, what: &str) {
        let mut state = self.inner.state.borrow_mut();
        *state.anomalies.entry(what.to_string()).or_insert(0) += 1;
    }

    /// Snapshots the report accumulated so far.
    pub fn report(&self) -> RobustnessReport {
        let state = self.inner.state.borrow();
        RobustnessReport {
            fuel_limit: self.inner.fuel_limit,
            fuel_consumed: state.consumed,
            exhausted: state.exhausted,
            degradations: state.degradations.clone(),
            ladder_steps: state.ladder_steps.clone(),
            anomalies: state.anomalies.clone(),
        }
    }
}

impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.inner.state.borrow();
        f.debug_struct("Budget")
            .field("fuel_limit", &self.inner.fuel_limit)
            .field("consumed", &state.consumed)
            .field("exhausted", &state.exhausted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.checkpoint(Phase::Solver, 1_000));
        }
        assert!(!b.is_exhausted());
        assert_eq!(b.fuel_remaining(), None);
        assert!(b.report().is_clean());
    }

    #[test]
    fn only_unlimited_budgets_are_unmetered() {
        assert!(Budget::unlimited().is_unmetered());
        assert!(Budget::for_limit(None).is_unmetered());
        assert!(!Budget::with_fuel(u64::MAX).is_unmetered());
        assert!(!Budget::for_limit(Some(5)).is_unmetered());
        assert!(!Budget::from_source(FaultInjector::new(1_000)).is_unmetered());
    }

    #[test]
    fn fuel_consumed_accessor_tracks_checkpoints() {
        let b = Budget::unlimited();
        assert_eq!(b.fuel_consumed(), 0);
        assert!(b.checkpoint(Phase::SymEval, 7));
        assert!(b.checkpoint(Phase::Solver, 3));
        assert_eq!(b.fuel_consumed(), 10);
        assert_eq!(b.report().fuel_consumed, 10);
    }

    #[test]
    fn finite_fuel_exhausts_and_sticks() {
        let b = Budget::with_fuel(5);
        assert!(b.checkpoint(Phase::SymEval, 3));
        assert!(b.checkpoint(Phase::SymEval, 2));
        assert_eq!(b.fuel_remaining(), Some(0));
        assert!(!b.checkpoint(Phase::SymEval, 1));
        assert!(b.is_exhausted());
        // Sticky: even a zero-cost checkpoint fails after exhaustion.
        assert!(!b.checkpoint(Phase::Solver, 0));
        let report = b.report();
        assert!(report.exhausted);
        assert_eq!(report.fuel_consumed, 5);
        assert_eq!(report.fuel_limit, Some(5));
    }

    #[test]
    fn zero_fuel_fails_first_costly_checkpoint() {
        let b = Budget::with_fuel(0);
        assert!(!b.checkpoint(Phase::Sccp, 1));
        assert!(b.is_exhausted());
    }

    #[test]
    fn clones_share_the_tank() {
        let a = Budget::with_fuel(2);
        let b = a.clone();
        assert!(a.checkpoint(Phase::Poly, 1));
        assert!(b.checkpoint(Phase::Poly, 1));
        assert!(!a.checkpoint(Phase::Poly, 1));
        assert!(b.is_exhausted());
    }

    #[test]
    fn fault_injector_trips_at_exactly_n() {
        let b = Budget::from_source(FaultInjector::new(3));
        assert!(b.checkpoint(Phase::SymEval, 100));
        assert!(b.checkpoint(Phase::Sccp, 100));
        assert!(b.checkpoint(Phase::Solver, 100));
        assert!(!b.checkpoint(Phase::Solver, 1));
        assert!(b.is_exhausted());
        // Costs are irrelevant to the injector; only the count matters.
        assert_eq!(b.report().fuel_consumed, 300);
    }

    #[test]
    fn degradations_and_ladder_steps_accumulate() {
        let b = Budget::with_fuel(0);
        b.record_degradation(Phase::Sccp);
        b.record_degradation(Phase::Sccp);
        b.record_degradation(Phase::Solver);
        b.record_ladder_step("polynomial", "pass-through");
        b.record_ladder_step("polynomial", "pass-through");
        let report = b.report();
        assert_eq!(report.total_degradations(), 3);
        assert_eq!(report.degradations[&Phase::Sccp], 2);
        assert_eq!(
            report.ladder_steps[&("polynomial".to_string(), "pass-through".to_string())],
            2
        );
        assert!(!report.is_clean());
    }

    #[test]
    fn json_rendering_is_stable() {
        let b = Budget::with_fuel(4);
        assert!(b.checkpoint(Phase::ModRef, 4));
        assert!(!b.checkpoint(Phase::ModRef, 1));
        b.record_degradation(Phase::ModRef);
        b.record_ladder_step("pass-through", "literal");
        b.record_anomaly("dce: ssa/ir length mismatch");
        let json = b.report().to_json();
        assert_eq!(
            json,
            "{\"fuel_limit\":4,\"fuel_consumed\":4,\"exhausted\":true,\
             \"degradations\":{\"modref\":1},\
             \"ladder_steps\":[{\"from\":\"pass-through\",\"to\":\"literal\",\"count\":1}],\
             \"anomalies\":{\"dce: ssa/ir length mismatch\":1}}"
        );
    }

    #[test]
    fn anomalies_accumulate_and_spoil_cleanliness() {
        let b = Budget::unlimited();
        assert!(b.report().is_clean());
        b.record_anomaly("ssa: missing by-ref var");
        b.record_anomaly("ssa: missing by-ref var");
        b.record_anomaly("dce: unresolvable def site");
        let report = b.report();
        assert_eq!(report.total_anomalies(), 3);
        assert_eq!(report.anomalies["ssa: missing by-ref var"], 2);
        assert!(!report.is_clean());
        assert!(!report.exhausted, "anomalies are not exhaustion");
        let text = report.to_string();
        assert!(text.contains("anomalies: 3"), "{text}");
        assert!(text.contains("dce: unresolvable def site"), "{text}");
    }

    #[test]
    fn anomaly_keys_are_json_escaped() {
        let b = Budget::unlimited();
        b.record_anomaly("weird \"key\" with \\ and \n control");
        let json = b.report().to_json();
        assert!(
            json.contains("\"weird \\\"key\\\" with \\\\ and \\n control\":1"),
            "{json}"
        );
    }

    #[test]
    fn display_mentions_fuel_and_degradations() {
        let b = Budget::with_fuel(1);
        assert!(b.checkpoint(Phase::SymEval, 1));
        assert!(!b.checkpoint(Phase::SymEval, 1));
        b.record_degradation(Phase::SymEval);
        let text = b.report().to_string();
        assert!(text.contains("fuel: 1 consumed of 1"));
        assert!(text.contains("exhausted: yes"));
        assert!(text.contains("symeval: 1"));
    }

    #[test]
    fn for_limit_maps_none_to_unlimited() {
        assert_eq!(Budget::for_limit(None).fuel_remaining(), None);
        assert_eq!(Budget::for_limit(Some(7)).fuel_remaining(), Some(7));
    }

    #[test]
    fn io_fault_injector_fires_exactly_once_at_trigger() {
        let inj = IoFaultInjector::new(IoFaultKind::Enospc, 3);
        assert!(!inj.should_fire(IoOp::Write));
        assert!(!inj.should_fire(IoOp::Write));
        assert!(inj.should_fire(IoOp::Write));
        assert!(!inj.should_fire(IoOp::Write));
        assert_eq!(inj.injected(), 1);
        assert_eq!(inj.eligible_ops_seen(), 4);
    }

    #[test]
    fn io_fault_injector_ignores_other_op_classes() {
        let inj = IoFaultInjector::new(IoFaultKind::RenameFail, 1);
        assert!(!inj.should_fire(IoOp::Write));
        assert!(!inj.should_fire(IoOp::Read));
        assert_eq!(inj.eligible_ops_seen(), 0);
        assert!(inj.should_fire(IoOp::Rename));
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn io_fault_injector_trigger_zero_never_fires() {
        let inj = IoFaultInjector::new(IoFaultKind::BitFlip, 0);
        for _ in 0..10 {
            assert!(!inj.should_fire(IoOp::Write));
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn io_fault_kinds_have_stable_names_and_targets() {
        let names: Vec<&str> = IoFaultKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "torn-write",
                "truncate",
                "bit-flip",
                "enospc",
                "eacces",
                "rename-fail"
            ]
        );
        assert_eq!(IoFaultKind::RenameFail.target_op(), IoOp::Rename);
        assert_eq!(IoFaultKind::TornWrite.target_op(), IoOp::Write);
    }

    #[test]
    fn io_fault_injector_is_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<IoFaultInjector>();
    }
}
