//! `ipcp serve` — a resident multi-tenant analysis daemon.
//!
//! Every one-shot CLI invocation pays parse + analyze from cold even
//! though the session cache, disk cache, and incrementality audit make
//! warm answers nearly free. This module keeps [`AnalysisSession`]s
//! resident: a persistent process accepts line-delimited JSON requests
//! over a Unix socket and multiplexes concurrent clients onto shared
//! per-program sessions backed by one artifact store and an optional
//! attached [`DiskCache`].
//!
//! ## Protocol
//!
//! One JSON object per line, in both directions. Requests:
//!
//! ```text
//! {"id":1,"op":"analyze","source":"main\n  x = 1\n  print(x)\nend\n"}
//! {"id":2,"op":"explain","source":"...","proc":"f","param":"a"}
//! {"id":3,"op":"why","source":"...","filter":"ssa","label":"x.mf"}
//! {"id":4,"op":"metrics"}
//! {"id":5,"op":"shutdown"}
//! ```
//!
//! Responses echo the id: `{"id":1,"ok":true,"output":"..."}` on
//! success, `{"id":1,"ok":false,"error":"..."}` on failure. The
//! optional `level` field selects the precision level exactly like the
//! CLI's `--level` flag (`literal|intra|pass|poly|cond`). `analyze` and
//! `explain` outputs are byte-identical to the one-shot CLI: both
//! render through [`crate::report::analyze_to_string`] /
//! [`render_explain`].
//!
//! ## Tenancy, admission, and shutdown
//!
//! Programs are tenants, keyed by the fingerprint of their source text.
//! A tenant owns one session (disk cache attached at admission) and a
//! memo of rendered responses, so concurrent identical requests compute
//! once and every later one is a string copy. The registry enforces an
//! optional byte budget with LRU eviction — the disk cache's eviction
//! idiom lifted to resident sessions. Admission control bounds in-flight
//! analysis work: past the cap, requests fail fast with an explicit
//! `overloaded` error instead of queueing unboundedly (control-plane
//! ops — `metrics`, `shutdown` — are always admitted). `shutdown`
//! drains: the listener stops accepting, every in-flight request
//! completes and its response is written, then [`run`] returns a
//! [`ServeSummary`].

use crate::diskcache::DiskCache;
use crate::driver::AnalysisConfig;
use crate::jump::JumpFunctionKind;
use crate::provenance::{analyze_provenance, Provenance};
use crate::session::AnalysisSession;
use ipcp_obs::{parse_json, Histogram, Json, NoopSink};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read as _, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default bound on concurrently executing analysis requests.
pub const DEFAULT_MAX_INFLIGHT: usize = 64;

/// The error string an over-admitted request is rejected with.
pub const OVERLOADED: &str = "overloaded";

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on (created at startup, removed on
    /// clean shutdown; a stale file from a dead daemon is replaced).
    pub socket: PathBuf,
    /// Optional persistent cache shared by every tenant session.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for resident tenant sessions; `None` never evicts.
    pub max_tenant_bytes: Option<u64>,
    /// Analysis requests allowed in flight at once; excess requests are
    /// rejected with [`OVERLOADED`]. `0` rejects all analysis work
    /// (drain/maintenance mode) while control ops still answer.
    pub max_inflight: usize,
    /// Worker threads for each request's parallel analysis phases.
    pub jobs: usize,
}

impl ServeConfig {
    /// A config listening on `socket` with library defaults.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            cache_dir: None,
            max_tenant_bytes: None,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            jobs: 0,
        }
    }
}

/// What a daemon did over its lifetime, returned by [`run`] after a
/// clean shutdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests received (including rejected and malformed ones).
    pub requests: u64,
    /// Requests rejected by admission control.
    pub overloaded: u64,
    /// Tenant sessions evicted by the byte budget.
    pub evictions: u64,
    /// Tenants resident at shutdown.
    pub tenants: usize,
}

// ---- request parsing ------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Analyze,
    Explain,
    Why,
    Metrics,
    Shutdown,
}

impl Op {
    fn parse(word: &str) -> Option<Op> {
        Some(match word {
            "analyze" => Op::Analyze,
            "explain" => Op::Explain,
            "why" => Op::Why,
            "metrics" => Op::Metrics,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Op::Analyze => "analyze",
            Op::Explain => "explain",
            Op::Why => "why",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
        }
    }

    /// Control-plane ops bypass admission control: they are O(1) and
    /// must stay answerable even when analysis capacity is saturated —
    /// `shutdown` in particular, or a wedged daemon could never drain.
    fn is_control(self) -> bool {
        matches!(self, Op::Metrics | Op::Shutdown)
    }
}

#[derive(Debug, Clone)]
struct Request {
    id: u64,
    op: Op,
    source: String,
    level: Option<String>,
    proc: Option<String>,
    param: Option<String>,
    filter: Option<String>,
    label: Option<String>,
}

fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    obj.get(key).and_then(Json::as_str)
}

fn parse_request(line: &str) -> Result<Request, String> {
    let obj = parse_json(line).map_err(|e| format!("bad request: {e}"))?;
    let id = obj.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let op = field(&obj, "op").ok_or("bad request: missing `op`")?;
    let op = Op::parse(op).ok_or_else(|| format!("bad request: unknown op `{op}`"))?;
    let source = match field(&obj, "source") {
        Some(s) => s.to_string(),
        None if op.is_control() => String::new(),
        None => return Err(format!("bad request: `{}` needs `source`", op.name())),
    };
    if op == Op::Explain && field(&obj, "proc").is_none() {
        return Err("bad request: `explain` needs `proc`".to_string());
    }
    Ok(Request {
        id,
        op,
        source,
        level: field(&obj, "level").map(str::to_string),
        proc: field(&obj, "proc").map(str::to_string),
        param: field(&obj, "param").map(str::to_string),
        filter: field(&obj, "filter").map(str::to_string),
        label: field(&obj, "label").map(str::to_string),
    })
}

/// The request's analysis configuration — the same mapping as the CLI's
/// `--level` flag, so daemon responses match one-shot output exactly.
fn level_config(level: Option<&str>, jobs: usize) -> Result<AnalysisConfig, String> {
    let mut config = match level {
        None | Some("poly") => AnalysisConfig::default(),
        Some("literal") => AnalysisConfig {
            jump_function: JumpFunctionKind::Literal,
            ..AnalysisConfig::default()
        },
        Some("intra") => AnalysisConfig {
            jump_function: JumpFunctionKind::IntraproceduralConstant,
            ..AnalysisConfig::default()
        },
        Some("pass") => AnalysisConfig {
            jump_function: JumpFunctionKind::PassThrough,
            ..AnalysisConfig::default()
        },
        Some("cond") => AnalysisConfig::conditional(),
        Some(other) => return Err(format!("unknown level `{other}`")),
    };
    config.jobs = jobs;
    Ok(config)
}

// ---- rendering ------------------------------------------------------------

/// Renders an `explain` report exactly like the CLI: the provenance
/// explanation, plus the attribution table when no parameter narrows
/// the query. Shared by `src/cli.rs` and the daemon for byte-identity.
///
/// # Errors
///
/// The provenance layer's error string (e.g. an unknown procedure).
pub fn render_explain(
    program: &ipcp_ir::Program,
    config: &AnalysisConfig,
    proc: &str,
    param: Option<&str>,
) -> Result<String, String> {
    explain_report(&analyze_provenance(program, config), proc, param)
}

/// [`render_explain`]'s text from an already recorded ledger.
fn explain_report(prov: &Provenance, proc: &str, param: Option<&str>) -> Result<String, String> {
    let mut out = prov.explain(proc, param)?;
    if param.is_none() {
        out.push('\n');
        out.push_str(&prov.attribution_table());
    }
    Ok(out)
}

fn escape_json(out: &mut String, text: &str) {
    // Every escaped character is ASCII, so runs between them are copied
    // whole: a request carries a whole program, and most of it is plain.
    let mut plain = 0;
    for (i, b) in text.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&text[plain..i]);
        if escaped.is_empty() {
            out.push_str(&format!("\\u{b:04x}"));
        } else {
            out.push_str(escaped);
        }
        plain = i + 1;
    }
    out.push_str(&text[plain..]);
}

/// The wire response minus its `{"id":N,` prefix. Escaping dominates
/// the cost of serving a memoized response, so the memo stores tails —
/// a warm hit only prepends the per-request id.
fn render_tail(result: &Result<String, String>) -> String {
    let mut out = String::new();
    match result {
        Ok(output) => {
            out.push_str("\"ok\":true,\"output\":\"");
            escape_json(&mut out, output);
        }
        Err(error) => {
            out.push_str("\"ok\":false,\"error\":\"");
            escape_json(&mut out, error);
        }
    }
    out.push_str("\"}");
    out
}

fn frame(id: u64, tail: &str) -> String {
    format!("{{\"id\":{id},{tail}")
}

fn render_response(id: u64, result: &Result<String, String>) -> String {
    frame(id, &render_tail(result))
}

// ---- tenants --------------------------------------------------------------

/// Memo key for rendered responses. Only the pure query ops memoize:
/// `why` depends on live audit state (its answer legitimately changes
/// between the first and second run over the same source) and `metrics`
/// is a live snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MemoKey {
    Analyze {
        level: Option<String>,
    },
    Explain {
        level: Option<String>,
        proc: String,
        param: Option<String>,
    },
}

type MemoSlot = Arc<Mutex<Option<Arc<String>>>>;

/// One resident program: a shared session plus its response memo.
struct Tenant {
    source_len: u64,
    session: AnalysisSession,
    /// Compute-once slots: concurrent identical cold requests serialize
    /// on the slot, so each key consults the disk cache exactly once —
    /// no double-counted hits, no duplicated work.
    memo: Mutex<HashMap<MemoKey, MemoSlot>>,
    /// Serializes ops that must observe the session's analyze +
    /// `last_audit` pair coherently (`why`, and the analyze that feeds
    /// the memo).
    live: Mutex<()>,
    /// Logical admission clock of the most recent use (LRU order).
    last_used: AtomicU64,
}

impl Tenant {
    fn footprint(&self) -> u64 {
        let memo_entries = self.memo.lock().expect("memo lock").len() as u64;
        self.source_len + self.session.approx_footprint_bytes() + memo_entries * 256
    }
}

struct Registry {
    tenants: Mutex<HashMap<u64, Arc<Tenant>>>,
    clock: AtomicU64,
    max_bytes: Option<u64>,
    evictions: AtomicU64,
}

impl Registry {
    fn new(max_bytes: Option<u64>) -> Self {
        Registry {
            tenants: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            max_bytes,
            evictions: AtomicU64::new(0),
        }
    }

    /// The tenant for `source`, admitting it if new. Compilation runs
    /// outside the registry lock; when two clients race the same new
    /// program, the first insertion wins and the loser's session is
    /// dropped.
    fn tenant(
        &self,
        source: &str,
        label: Option<&str>,
        disk: Option<&Arc<DiskCache>>,
    ) -> Result<Arc<Tenant>, String> {
        let fp = {
            let mut h = ipcp_ir::fingerprint::Fnv1a::new();
            h.write_bytes(source.as_bytes());
            h.finish()
        };
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(t) = self.tenants.lock().expect("registry lock").get(&fp) {
            t.last_used.store(now, Ordering::Relaxed);
            return Ok(Arc::clone(t));
        }
        let program = ipcp_ir::compile_to_ir(source).map_err(|e| e.render(source))?;
        let mut session = AnalysisSession::new(&program);
        if let Some(cache) = disk {
            session.attach_disk_cache(Arc::clone(cache));
        }
        match label {
            Some(label) => session.set_audit_label(label),
            None => session.set_content_audit_label(&format!("serve:{fp:016x}")),
        }
        let fresh = Arc::new(Tenant {
            source_len: source.len() as u64,
            session,
            memo: Mutex::new(HashMap::new()),
            live: Mutex::new(()),
            last_used: AtomicU64::new(now),
        });
        let mut tenants = self.tenants.lock().expect("registry lock");
        let tenant = Arc::clone(tenants.entry(fp).or_insert_with(|| Arc::clone(&fresh)));
        tenant.last_used.store(now, Ordering::Relaxed);
        self.evict_over_budget(&mut tenants, fp);
        Ok(tenant)
    }

    /// Evicts least-recently-used tenants until the byte budget holds —
    /// the disk cache's LRU idiom with sessions for entries. The tenant
    /// just touched (`keep`) is never evicted, so the budget is a soft
    /// cap: one oversized program still analyzes, it just lives alone.
    fn evict_over_budget(&self, tenants: &mut HashMap<u64, Arc<Tenant>>, keep: u64) {
        let Some(max) = self.max_bytes else { return };
        let mut order: Vec<(u64, u64, u64)> = tenants
            .iter()
            .map(|(&fp, t)| (t.last_used.load(Ordering::Relaxed), fp, t.footprint()))
            .collect();
        let mut total: u64 = order.iter().map(|&(_, _, bytes)| bytes).sum();
        // Oldest use first; fingerprint breaks ties deterministically.
        order.sort_unstable();
        for (_, fp, bytes) in order {
            if total <= max {
                break;
            }
            if fp == keep {
                continue;
            }
            tenants.remove(&fp);
            total -= bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn resident_bytes(&self) -> u64 {
        self.tenants
            .lock()
            .expect("registry lock")
            .values()
            .map(|t| t.footprint())
            .sum()
    }

    fn count(&self) -> usize {
        self.tenants.lock().expect("registry lock").len()
    }
}

// ---- the server -----------------------------------------------------------

struct Server {
    config: ServeConfig,
    disk: Option<Arc<DiskCache>>,
    registry: Registry,
    inflight: AtomicUsize,
    requests: AtomicU64,
    overloaded: AtomicU64,
    shutdown: AtomicBool,
    /// Per-op latency histograms (microseconds); the count doubles as
    /// the per-op request counter.
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl Server {
    fn new(config: ServeConfig) -> io::Result<Self> {
        let disk = match &config.cache_dir {
            Some(dir) => Some(Arc::new(DiskCache::open(dir)?)),
            None => None,
        };
        let registry = Registry::new(config.max_tenant_bytes);
        Ok(Server {
            config,
            disk,
            registry,
            inflight: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            latency: Mutex::new(BTreeMap::new()),
        })
    }

    fn handle_line(&self, line: &str) -> String {
        let started = Instant::now();
        self.requests.fetch_add(1, Ordering::Relaxed);
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(e) => {
                self.record_latency("invalid", started);
                return render_response(0, &Err(e));
            }
        };
        if !req.op.is_control() {
            let admitted = self.inflight.fetch_add(1, Ordering::SeqCst) < self.config.max_inflight;
            if !admitted {
                self.inflight.fetch_sub(1, Ordering::SeqCst);
                self.overloaded.fetch_add(1, Ordering::Relaxed);
                self.record_latency(req.op.name(), started);
                return render_response(req.id, &Err(OVERLOADED.to_string()));
            }
        }
        let tail = self.dispatch(&req);
        if !req.op.is_control() {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
        }
        self.record_latency(req.op.name(), started);
        frame(req.id, &tail)
    }

    fn record_latency(&self, op: &'static str, started: Instant) {
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.latency
            .lock()
            .expect("latency lock")
            .entry(op)
            .or_default()
            .record(micros);
    }

    /// Serves one parsed request, returning the rendered response tail
    /// (see [`render_tail`]).
    fn dispatch(&self, req: &Request) -> Arc<String> {
        match req.op {
            Op::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Arc::new(render_tail(&Ok(
                    "shutting down: draining in-flight requests\n".to_string(),
                )))
            }
            Op::Metrics => Arc::new(render_tail(&Ok(self.metrics_text()))),
            Op::Why => Arc::new(render_tail(&self.why(req))),
            Op::Analyze | Op::Explain => {
                let tenant = match self.registry.tenant(
                    &req.source,
                    req.label.as_deref(),
                    self.disk.as_ref(),
                ) {
                    Ok(tenant) => tenant,
                    Err(e) => return Arc::new(render_tail(&Err(e))),
                };
                let key = match req.op {
                    Op::Analyze => MemoKey::Analyze {
                        level: req.level.clone(),
                    },
                    _ => MemoKey::Explain {
                        level: req.level.clone(),
                        proc: req.proc.clone().unwrap_or_default(),
                        param: req.param.clone(),
                    },
                };
                let slot = Arc::clone(
                    tenant
                        .memo
                        .lock()
                        .expect("memo lock")
                        .entry(key)
                        .or_default(),
                );
                let mut slot = slot.lock().expect("memo slot lock");
                if slot.is_none() {
                    *slot = Some(Arc::new(render_tail(&self.compute(&tenant, req))));
                }
                Arc::clone(slot.as_ref().expect("memo slot filled"))
            }
        }
    }

    fn why(&self, req: &Request) -> Result<String, String> {
        let tenant = self
            .registry
            .tenant(&req.source, req.label.as_deref(), self.disk.as_ref())?;
        let config = level_config(req.level.as_deref(), self.config.jobs)?;
        let _live = tenant.live.lock().expect("tenant live lock");
        tenant
            .session
            .analyze_checked(&config)
            .map_err(|e| e.to_string())?;
        let audit = tenant
            .session
            .last_audit()
            .ok_or_else(|| "no incrementality audit available (metered run?)".to_string())?;
        Ok(audit.render(req.filter.as_deref()))
    }

    fn compute(&self, tenant: &Tenant, req: &Request) -> Result<String, String> {
        let config = level_config(req.level.as_deref(), self.config.jobs)?;
        match req.op {
            Op::Analyze => {
                let _live = tenant.live.lock().expect("tenant live lock");
                let outcome = tenant
                    .session
                    .analyze_checked(&config)
                    .map_err(|e| e.to_string())?;
                Ok(crate::report::analyze_to_string(&outcome))
            }
            Op::Explain => {
                // A view over the tenant's own round-0 artifacts, read
                // under the lock `analyze` holds while it fills them.
                let prov = {
                    let _live = tenant.live.lock().expect("tenant live lock");
                    tenant.session.provenance(&config, &NoopSink)
                };
                let proc = req.proc.as_deref().unwrap_or_default();
                explain_report(&prov, proc, req.param.as_deref())
            }
            _ => unreachable!("only query ops memoize"),
        }
    }

    fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(
            "# HELP ipcp_serve_requests_total Requests received, by operation.\n\
             # TYPE ipcp_serve_requests_total counter\n",
        );
        let latency = self.latency.lock().expect("latency lock").clone();
        for (op, hist) in &latency {
            let _ = writeln!(
                out,
                "ipcp_serve_requests_total{{op=\"{op}\"}} {}",
                hist.count()
            );
        }
        out.push_str(
            "# HELP ipcp_serve_request_latency_microseconds Per-op request latency \
             quantiles (log-linear histogram, 1% relative error).\n\
             # TYPE ipcp_serve_request_latency_microseconds summary\n",
        );
        for (op, hist) in &latency {
            for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                if let Some(v) = hist.quantile(q) {
                    let _ = writeln!(
                        out,
                        "ipcp_serve_request_latency_microseconds{{op=\"{op}\",quantile=\"{label}\"}} {v:.1}"
                    );
                }
            }
            let _ = writeln!(
                out,
                "ipcp_serve_request_latency_microseconds_sum{{op=\"{op}\"}} {}",
                hist.sum()
            );
            let _ = writeln!(
                out,
                "ipcp_serve_request_latency_microseconds_count{{op=\"{op}\"}} {}",
                hist.count()
            );
        }
        out.push_str(
            "# HELP ipcp_serve_overloaded_total Requests rejected by admission control.\n\
             # TYPE ipcp_serve_overloaded_total counter\n",
        );
        let _ = writeln!(
            out,
            "ipcp_serve_overloaded_total {}",
            self.overloaded.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP ipcp_serve_tenants Resident tenant sessions.\n\
             # TYPE ipcp_serve_tenants gauge\n",
        );
        let _ = writeln!(out, "ipcp_serve_tenants {}", self.registry.count());
        out.push_str(
            "# HELP ipcp_serve_tenant_bytes Estimated resident tenant footprint.\n\
             # TYPE ipcp_serve_tenant_bytes gauge\n",
        );
        let _ = writeln!(
            out,
            "ipcp_serve_tenant_bytes {}",
            self.registry.resident_bytes()
        );
        out.push_str(
            "# HELP ipcp_serve_tenant_evictions_total Tenant sessions evicted by the \
             byte budget.\n\
             # TYPE ipcp_serve_tenant_evictions_total counter\n",
        );
        let _ = writeln!(
            out,
            "ipcp_serve_tenant_evictions_total {}",
            self.registry.evictions.load(Ordering::Relaxed)
        );
        // Incrementality: recomputed artifacts by miss reason, summed
        // over every resident tenant. Zero first-computation misses
        // after warm-up is the "warm requests hit the shared session"
        // invariant, observable right here.
        let mut miss_reasons: BTreeMap<String, u64> = BTreeMap::new();
        {
            let tenants = self.registry.tenants.lock().expect("registry lock");
            for tenant in tenants.values() {
                for (label, n) in tenant.session.stats().miss_reasons {
                    *miss_reasons.entry(label).or_insert(0) += n;
                }
            }
        }
        if !miss_reasons.is_empty() {
            out.push_str(
                "# HELP ipcp_serve_session_miss_reason_total Recomputed artifacts by miss \
                 reason, summed over resident tenants.\n\
                 # TYPE ipcp_serve_session_miss_reason_total counter\n",
            );
            for (label, n) in &miss_reasons {
                let _ = writeln!(
                    out,
                    "ipcp_serve_session_miss_reason_total{{reason=\"{label}\"}} {n}"
                );
            }
        }
        if let Some(cache) = &self.disk {
            let cs = cache.stats();
            out.push_str(
                "# HELP ipcp_serve_diskcache_operations_total Shared persistent-cache \
                 traffic of this daemon.\n\
                 # TYPE ipcp_serve_diskcache_operations_total counter\n",
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
                let _ = writeln!(
                    out,
                    "ipcp_serve_diskcache_operations_total{{op=\"{op}\"}} {n}"
                );
            }
        }
        out
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            requests: self.requests.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            evictions: self.registry.evictions.load(Ordering::Relaxed),
            tenants: self.registry.count(),
        }
    }
}

// ---- the socket loop ------------------------------------------------------

/// Newline-delimited framing over a byte stream, for both ends of a
/// connection. A request carries a whole program and arrives over
/// several reads; each byte is scanned for the delimiter once.
struct Lines {
    buf: Vec<u8>,
    /// Length of the prefix of `buf` already scanned: it holds no `\n`.
    scanned: usize,
    chunk: Vec<u8>,
}

impl Default for Lines {
    fn default() -> Self {
        Lines {
            buf: Vec::new(),
            scanned: 0,
            chunk: vec![0; 64 * 1024],
        }
    }
}

impl Lines {
    /// Removes and returns the next complete line, without its `\n`.
    fn next_line(&mut self) -> Option<Vec<u8>> {
        let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
            self.scanned = self.buf.len();
            return None;
        };
        let rest = self.buf.split_off(self.scanned + pos + 1);
        let mut line = std::mem::replace(&mut self.buf, rest);
        line.pop();
        self.scanned = 0;
        Some(line)
    }

    /// Appends one read from `stream`; `Ok(0)` at end of stream.
    fn fill(&mut self, stream: &mut UnixStream) -> io::Result<usize> {
        let n = stream.read(&mut self.chunk)?;
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(n)
    }
}

fn handle_connection(server: &Arc<Server>, mut stream: UnixStream) {
    // Short read timeouts keep the thread responsive to shutdown while
    // a client holds its connection open idle.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut lines = Lines::default();
    loop {
        while let Some(line) = lines.next_line() {
            let text = String::from_utf8_lossy(&line);
            let mut response = server.handle_line(text.trim_end_matches('\r'));
            response.push('\n');
            if stream.write_all(response.as_bytes()).is_err() {
                return;
            }
        }
        match lines.fill(&mut stream) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if server.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// A running daemon: connect via [`Client`], stop via a `shutdown`
/// request, then [`ServeHandle::join`] for the summary.
pub struct ServeHandle {
    thread: std::thread::JoinHandle<ServeSummary>,
}

impl ServeHandle {
    /// Waits for the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// When the daemon thread panicked.
    pub fn join(self) -> io::Result<ServeSummary> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("serve thread panicked"))
    }
}

/// Starts a daemon in a background thread, returning once the socket
/// is bound and accepting. A stale socket file from a dead daemon is
/// replaced.
///
/// # Errors
///
/// When the socket cannot be bound or the cache directory not opened.
pub fn spawn(config: ServeConfig) -> io::Result<ServeHandle> {
    let server = Arc::new(Server::new(config)?);
    let _ = std::fs::remove_file(&server.config.socket);
    let listener = UnixListener::bind(&server.config.socket)?;
    listener.set_nonblocking(true)?;
    let thread = std::thread::spawn(move || accept_loop(&server, &listener));
    Ok(ServeHandle { thread })
}

/// Runs a daemon on the current thread until a `shutdown` request
/// drains it; the blocking form of [`spawn`] used by the CLI.
///
/// # Errors
///
/// When the socket cannot be bound or the cache directory not opened.
pub fn run(config: ServeConfig) -> io::Result<ServeSummary> {
    spawn(config)?.join()
}

fn accept_loop(server: &Arc<Server>, listener: &UnixListener) -> ServeSummary {
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !server.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(server);
                workers.push(std::thread::spawn(move || {
                    handle_connection(&server, stream);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
        workers.retain(|w| !w.is_finished());
    }
    // Graceful drain: every connection thread finishes its in-flight
    // request and writes the response before we report done.
    for worker in workers {
        let _ = worker.join();
    }
    let _ = std::fs::remove_file(&server.config.socket);
    server.summary()
}

// ---- client ---------------------------------------------------------------

/// A parsed daemon response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Whether the request succeeded.
    pub ok: bool,
    /// The output on success, the error text on failure.
    pub text: String,
}

impl Response {
    /// The output, or the error as `Err` — mirrors [`crate::analyze_checked`]-style results.
    ///
    /// # Errors
    ///
    /// The daemon's error text when the request failed.
    pub fn into_result(self) -> Result<String, String> {
        if self.ok {
            Ok(self.text)
        } else {
            Err(self.text)
        }
    }
}

/// Parses one response line.
///
/// # Errors
///
/// When the line is not a valid response object.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let obj = parse_json(line).map_err(|e| format!("bad response: {e}"))?;
    let id = obj.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let ok = match obj.get("ok") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("bad response: missing `ok`".to_string()),
    };
    let key = if ok { "output" } else { "error" };
    let text = field(&obj, key)
        .ok_or_else(|| format!("bad response: missing `{key}`"))?
        .to_string();
    Ok(Response { id, ok, text })
}

/// Builds a request line from string fields (the `id` and `op` plus any
/// of `source`, `level`, `proc`, `param`, `filter`, `label`).
pub fn request_line(id: u64, op: &str, fields: &[(&str, &str)]) -> String {
    let mut out = format!("{{\"id\":{id},\"op\":\"{op}\"");
    for (key, value) in fields {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":\"");
        escape_json(&mut out, value);
        out.push('"');
    }
    out.push('}');
    out
}

/// A blocking line-delimited client for tests, benches, and tooling.
pub struct Client {
    stream: UnixStream,
    lines: Lines,
}

impl Client {
    /// Connects to a daemon's socket, retrying briefly while the daemon
    /// is still binding.
    ///
    /// # Errors
    ///
    /// The last connect error after ~2 s of retries.
    pub fn connect(socket: &Path) -> io::Result<Client> {
        let mut last = io::Error::other("never attempted");
        for _ in 0..200 {
            match UnixStream::connect(socket) {
                Ok(stream) => {
                    return Ok(Client {
                        stream,
                        lines: Lines::default(),
                    });
                }
                Err(e) => last = e,
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err(last)
    }

    /// Sends one raw request line and reads one response line.
    ///
    /// # Errors
    ///
    /// Transport errors (the daemon died or the connection broke).
    pub fn call_raw(&mut self, line: &str) -> io::Result<String> {
        // One write for the line and its delimiter, so the daemon wakes
        // once per request.
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.stream.write_all(&framed)?;
        loop {
            if let Some(line) = self.lines.next_line() {
                return Ok(String::from_utf8(line)
                    .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()));
            }
            match self.lines.fill(&mut self.stream) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ));
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends a structured request and parses the response.
    ///
    /// # Errors
    ///
    /// Transport errors, rendered; protocol-level failures come back as
    /// `ok: false` responses, not `Err`.
    pub fn call(&mut self, id: u64, op: &str, fields: &[(&str, &str)]) -> Result<Response, String> {
        let line = self
            .call_raw(&request_line(id, op, fields))
            .map_err(|e| format!("transport: {e}"))?;
        parse_response(&line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing_rejects_malformed_input() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"launder\"}").is_err());
        assert!(parse_request("{\"op\":\"analyze\"}")
            .unwrap_err()
            .contains("needs `source`"));
        assert!(parse_request("{\"op\":\"explain\",\"source\":\"x\"}")
            .unwrap_err()
            .contains("needs `proc`"));
        let req = parse_request("{\"id\":7,\"op\":\"analyze\",\"source\":\"main\\nend\\n\"}")
            .expect("valid request");
        assert_eq!((req.id, req.op), (7, Op::Analyze));
        assert_eq!(req.source, "main\nend\n");
        // Control ops need no source.
        assert!(parse_request("{\"op\":\"metrics\"}").is_ok());
        assert!(parse_request("{\"op\":\"shutdown\"}").is_ok());
    }

    #[test]
    fn response_roundtrips_through_the_wire_format() {
        for result in [
            Ok("CONSTANTS(f) = { a = 5 }\nline two\ttabbed \"quoted\"".to_string()),
            Err("unknown level `warp`".to_string()),
        ] {
            let line = render_response(42, &result);
            let back = parse_response(&line).expect("parses");
            assert_eq!(back.id, 42);
            assert_eq!(back.ok, result.is_ok());
            assert_eq!(back.into_result(), result);
        }
    }

    #[test]
    fn request_line_escapes_sources() {
        let line = request_line(3, "analyze", &[("source", "main\n  x = \"1\"\nend\n")]);
        let req = parse_request(&line).expect("roundtrips");
        assert_eq!(req.source, "main\n  x = \"1\"\nend\n");
    }

    #[test]
    fn escaping_copies_plain_runs_and_escapes_every_control_character() {
        let text = "é\"a\\b\u{1}\tc\r\n\u{1f}ü";
        let mut out = String::new();
        escape_json(&mut out, text);
        assert_eq!(out, "é\\\"a\\\\b\\u0001\\tc\\r\\n\\u001fü");
        let line = request_line(1, "analyze", &[("source", text)]);
        assert_eq!(parse_request(&line).expect("roundtrips").source, text);
    }

    #[test]
    fn lines_arrive_whole_across_reads() {
        let (mut tx, mut rx) = UnixStream::pair().expect("socket pair");
        let long = "x".repeat(200_000);
        let writer = std::thread::spawn(move || {
            tx.write_all(format!("{long}\nshort\r\n").as_bytes())
                .expect("write");
            for piece in ["sp", "lit\n"] {
                tx.write_all(piece.as_bytes()).expect("write");
                tx.flush().expect("flush");
            }
        });
        let mut lines = Lines::default();
        let mut got = Vec::new();
        while got.len() < 3 {
            match lines.next_line() {
                Some(line) => got.push(String::from_utf8(line).expect("utf-8")),
                None => assert!(lines.fill(&mut rx).expect("read") > 0),
            }
        }
        writer.join().expect("writer");
        assert_eq!(got[0].len(), 200_000);
        assert_eq!(got[1..], ["short\r", "split"]);
        assert!(lines.next_line().is_none());
    }

    #[test]
    fn level_config_mirrors_the_cli_flag() {
        assert_eq!(
            level_config(None, 2).unwrap(),
            AnalysisConfig {
                jobs: 2,
                ..AnalysisConfig::default()
            }
        );
        let cond = level_config(Some("cond"), 0).unwrap();
        assert!(cond.branch_feasibility);
        assert_eq!(cond.jump_function, JumpFunctionKind::Polynomial);
        assert!(level_config(Some("warp"), 0).is_err());
    }
}
