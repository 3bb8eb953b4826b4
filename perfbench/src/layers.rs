//! Benchmark-side tracing. Spans are recorded around calls into each
//! layer's public functions; in-session phases come from the session's
//! existing `TraceSink` hook and `SessionStats`. Nothing is added inside
//! the program.
//!
//! Attribution: an op's wall time (probes excluded) minus the time its
//! layer spans cover is its `unattributed` remainder. Inside an
//! analysis, coverage is the union of the session's `phase` spans plus
//! the disk write-through, which runs after the last phase span.

use crate::alloc;
use ipcp_core::obs::TraceSink;
use ipcp_core::{AnalysisConfig, AnalysisOutcome, AnalysisSession, SessionPhase};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Session phases reported as per-layer compute time (`SessionStats`
/// wall: summed over workers, equal to elapsed time at `jobs=1`).
const SESSION_PHASES: [(SessionPhase, &str); 9] = [
    (SessionPhase::CallGraph, "session.callgraph_ms"),
    (SessionPhase::ModRef, "session.modref_ms"),
    (SessionPhase::Ssa, "session.ssa_ms"),
    (SessionPhase::ReturnJf, "session.retjf_ms"),
    (SessionPhase::SymVals, "session.symvals_ms"),
    (SessionPhase::ForwardJf, "session.forward_jf_ms"),
    (SessionPhase::Solve, "session.solve_ms"),
    (SessionPhase::Subst, "session.subst_ms"),
    (SessionPhase::Dce, "session.dce_ms"),
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One recorded span; spans of one op share `op`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub op: u64,
    pub layer: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Per-layer totals over a traced phase.
#[derive(Debug, Default)]
pub struct Recorder {
    pub ops: u64,
    pub wall_ms: f64,
    pub attributed_ms: f64,
    /// Summed layer time (ms) or work count, by metric name.
    pub totals: BTreeMap<&'static str, f64>,
    pub spans: Vec<SpanRec>,
}

impl Recorder {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.totals.entry(name).or_default() += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Folds another recorder in (a second client, or an in-process
    /// replay whose layer times explain a daemon's server time).
    pub fn merge(&mut self, other: Recorder) {
        self.ops += other.ops;
        self.wall_ms += other.wall_ms;
        self.attributed_ms += other.attributed_ms;
        for (k, v) in other.totals {
            self.add(k, v);
        }
        self.spans.extend(other.spans);
    }
}

/// Runs an op's layer calls, recording spans when tracing is on. The
/// untraced path makes the same calls without the bookkeeping.
pub struct Tracer {
    rec: Option<Recorder>,
    epoch: Instant,
    op: u64,
    probe: Duration,
}

impl Tracer {
    /// `id_base` keeps op ids of concurrent tracers distinct.
    pub fn new(enabled: bool, id_base: u64) -> Self {
        Tracer {
            rec: enabled.then(Recorder::default),
            epoch: Instant::now(),
            op: id_base,
            probe: Duration::ZERO,
        }
    }

    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    pub fn into_recorder(self) -> Recorder {
        self.rec.unwrap_or_default()
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        if let Some(rec) = &mut self.rec {
            rec.add(name, v);
        }
    }

    /// Adds layer time that the op's wall time contains.
    fn attribute(&mut self, name: &'static str, start: Instant, d: Duration) {
        let (op, epoch) = (self.op, self.epoch);
        if let Some(rec) = &mut self.rec {
            rec.add(name, ms(d));
            rec.attributed_ms += ms(d);
            rec.spans.push(SpanRec {
                op,
                layer: name,
                start_us: start.duration_since(epoch).as_secs_f64() * 1e6,
                dur_us: d.as_secs_f64() * 1e6,
            });
        }
    }

    fn cover(&mut self, v_ms: f64) {
        if let Some(rec) = &mut self.rec {
            rec.attributed_ms += v_ms;
        }
    }

    pub fn begin_op(&mut self) -> Instant {
        self.op += 1;
        self.probe = Duration::ZERO;
        Instant::now()
    }

    /// Ends the op begun at `start`, returning its latency in ms with
    /// probe time taken out.
    pub fn end_op(&mut self, start: Instant) -> f64 {
        let wall = ms(start.elapsed().saturating_sub(self.probe));
        if let Some(rec) = &mut self.rec {
            rec.ops += 1;
            rec.wall_ms += wall;
        }
        wall
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.attribute(layer, start, start.elapsed());
        r
    }

    /// Runs a measurement-only call, excluded from the op's wall time.
    fn probe<R>(&mut self, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let r = f();
        let d = start.elapsed();
        self.probe += d;
        (r, d)
    }

    /// Re-runs, as a probe, work that the op did out of reach of any
    /// span, and attributes the probe's time to `layer`.
    pub fn estimate<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let (r, d) = self.probe(f);
        self.add(layer, ms(d));
        self.cover(ms(d));
        r
    }

    /// Source to IR through the frontend's public functions.
    pub fn compile(&mut self, source: &str) -> Result<ipcp_ir::Program, String> {
        let render = |d: ipcp_lang::Diagnostics| d.render(source);
        if !self.enabled() {
            let ast = ipcp_lang::parser::parse(source).map_err(render)?;
            let checked = ipcp_lang::typeck::check(ast).map_err(render)?;
            return Ok(ipcp_ir::lower::lower(&checked));
        }
        // `parse` lexes internally: lex once more as a probe, then count
        // that time as the lexer's and the rest of `parse` as the parser's.
        let (tokens, lex) = self.probe(|| ipcp_lang::lexer::lex(source));
        self.add("lang.tokens", tokens.map_err(render)?.len() as f64);
        let start = Instant::now();
        let ast = ipcp_lang::parser::parse(source).map_err(render)?;
        let parse = start.elapsed();
        self.attribute("lang.lex_ms", start, lex.min(parse));
        self.attribute(
            "lang.parse_ms",
            start + lex.min(parse),
            parse.saturating_sub(lex),
        );
        let checked = self.span("lang.typeck_ms", || ipcp_lang::typeck::check(ast));
        let checked = checked.map_err(render)?;
        Ok(self.span("ir.lower_ms", || ipcp_ir::lower::lower(&checked)))
    }

    /// Opens a session: the base-program fingerprint.
    pub fn open_session(&mut self, program: &ipcp_ir::Program) -> AnalysisSession {
        self.span("fingerprint.base_ms", || AnalysisSession::new(program))
    }

    /// Renders `analyze` output.
    pub fn render(&mut self, outcome: &AnalysisOutcome) -> String {
        let out = self.span("report.render_ms", || {
            ipcp_core::report::analyze_to_string(outcome)
        });
        self.add("report.output_bytes", out.len() as f64);
        out
    }

    /// Runs one analysis through `session`. Traced, the session reports
    /// into a `TraceSink`, and its `SessionStats` and disk-cache deltas
    /// split the call into phases; the codec is timed by probes on the
    /// same outcome.
    pub fn analyze(
        &mut self,
        session: &AnalysisSession,
        config: &AnalysisConfig,
    ) -> Result<AnalysisOutcome, String> {
        if !self.enabled() {
            return session.analyze_checked(config).map_err(|e| e.to_string());
        }
        let before = session.stats();
        let disk_before = session.disk_cache().map(|d| d.stats());
        let sink = TraceSink::new();
        let outcome = session
            .analyze_checked_obs(config, &sink)
            .map_err(|e| e.to_string())?;
        let after = session.stats();
        let snap = sink.snapshot();

        let mut phases: Vec<(u64, u64)> = snap
            .spans
            .iter()
            .filter(|s| s.category == "phase")
            .map(|s| (s.start_ns, s.start_ns + s.duration_ns))
            .collect();
        phases.sort_unstable();
        let mut covered_ns = 0;
        let mut reach = 0;
        for (start, end) in phases {
            covered_ns += end.saturating_sub(start.max(reach));
            reach = reach.max(end);
        }
        self.cover(covered_ns as f64 / 1e6);
        let delta = |phase| {
            let (a, b) = (after.counter(phase), before.counter(phase));
            (
                (a.wall_nanos - b.wall_nanos) as f64 / 1e6,
                (a.span_nanos - b.span_nanos) as f64 / 1e6,
                (a.hits - b.hits) as f64,
                (a.misses - b.misses) as f64,
            )
        };
        let span_ms = |name: &str| -> f64 {
            snap.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns as f64 / 1e6)
                .sum()
        };
        let closures = span_ms("closures");
        self.add("session.closures_ms", closures);
        // The fingerprint phase's wall beyond the closures span is the
        // incrementality audit: ledger diff and commit.
        let audit = (delta(SessionPhase::Fingerprint).0 - closures).max(0.0);
        self.add("audit.ledger_ms", audit);
        self.cover(audit);
        self.add(
            "analysis.jf_sites",
            snap.counters.get("jf.sites").copied().unwrap_or(0) as f64,
        );
        self.add(
            "analysis.solver_iterations",
            outcome.stats.solver_iterations as f64,
        );
        self.add("analysis.substitutions", outcome.substitutions.total as f64);

        for (phase, name) in SESSION_PHASES {
            let (wall, span, hits, misses) = delta(phase);
            self.add(name, wall);
            self.add("session.hits", hits);
            self.add("session.misses", misses);
            if span > 0.0 {
                self.add("par.wall_ms", wall);
                self.add("par.span_ms", span);
            }
        }

        if let (Some(disk), Some(b)) = (session.disk_cache(), disk_before) {
            let a = disk.stats();
            let read = span_ms("diskcache");
            let write = (delta(SessionPhase::DiskCache).0 - read).max(0.0);
            self.cover(write);
            self.add("diskcache.ops", 1.0);
            self.add("diskcache.hits", (a.hits - b.hits) as f64);
            self.add("diskcache.misses", (a.misses - b.misses) as f64);
            self.add("diskcache.evictions", (a.evicted - b.evicted) as f64);
            let (payload, encode) = self.probe(|| ipcp_ir::codec::encode_to_vec(&outcome));
            self.add("codec.payload_bytes", payload.len() as f64);
            if a.hits > b.hits {
                let (_, decode) = self.probe(|| {
                    ipcp_ir::codec::decode_from_slice::<AnalysisOutcome>(&payload)
                        .expect("an encoded outcome decodes")
                });
                self.add("codec.decode_ms", ms(decode));
                self.add("diskcache.load_ms", (read - ms(decode)).max(0.0));
            } else {
                self.add("codec.encode_ms", ms(encode));
                self.add("diskcache.store_ms", (write - ms(encode)).max(0.0));
                self.add("diskcache.load_ms", read);
            }
        }
        Ok(outcome)
    }
}

/// Allocations of the single-threaded layers over a fixed input set:
/// frontend, base fingerprint and render. Deterministic for a given set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    pub lang: u64,
    pub lang_bytes: u64,
    pub fingerprint: u64,
    pub report: u64,
}

pub fn alloc_counts(sources: &[&str], config: &AnalysisConfig) -> AllocCounts {
    let mut c = AllocCounts::default();
    for source in sources {
        let (program, n, bytes) = alloc::counted(|| {
            let ast = ipcp_lang::parser::parse(source).expect("benchmark input parses");
            let checked = ipcp_lang::typeck::check(ast).expect("benchmark input checks");
            ipcp_ir::lower::lower(&checked)
        });
        c.lang += n;
        c.lang_bytes += bytes;
        let (session, n, _) = alloc::counted(|| AnalysisSession::new(&program));
        c.fingerprint += n;
        let outcome = session.analyze(config);
        let (_, n, _) = alloc::counted(|| ipcp_core::report::analyze_to_string(&outcome));
        c.report += n;
    }
    c
}
