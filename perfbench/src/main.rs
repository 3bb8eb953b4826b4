//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_sweep|scale_10k|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs an
//! untraced and then a traced phase and reports the per-layer metrics.
//! Every op's output is checked; the last stdout line is the result
//! object, and the exit code is nonzero when any op failed. See
//! `NOTES.md` for the workloads, the metrics and the layer predictions.

mod alloc;
mod layers;
mod paper_sweep;
mod scale;
mod serve_mixed;
mod stats;

use layers::{AllocCounts, Recorder};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Scratch space (disk caches, sockets, span logs), relative to the
/// working directory so the benchmark stays inside its checkout and
/// socket paths stay short.
pub const WORK_DIR: &str = ".perfbench";

/// What one timed (or traced) phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latencies (ms) of correct ops that had to compute.
    pub cold: Vec<f64>,
    /// Latencies (ms) of correct ops answered mostly from a cache.
    pub warm: Vec<f64>,
    /// Latencies (ms) of correct `explain` ops on fresh daemon tenants.
    pub explain: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed ops that missed a cache they were meant to hit, or hit one
    /// they were meant to miss (also counted in `failed`).
    pub mislabeled: u64,
    pub elapsed_s: f64,
    /// Run-queue wait of the threads doing timed work (ms).
    pub runq_wait_ms: f64,
    /// Peak RSS at the end of the timed phase, before output checks
    /// that run afterwards allocate references.
    pub peak_rss_mib: f64,
    /// Per-layer totals (traced phases only).
    pub rec: Recorder,
}

impl Phase {
    /// Counts one op: a correct one contributes its latency, a wrong or
    /// failed one counts toward `failed`.
    pub fn record(&mut self, cold: bool, ok: bool, ms: f64) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        } else if cold {
            self.cold.push(ms);
        } else {
            self.warm.push(ms);
        }
    }

    /// Counts one `explain` on a fresh daemon tenant.
    pub fn record_explain(&mut self, ok: bool, ms: f64) {
        self.attempted += 1;
        if ok {
            self.explain.push(ms);
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Phase) {
        self.cold.extend(other.cold);
        self.warm.extend(other.warm);
        self.explain.extend(other.explain);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mislabeled += other.mislabeled;
        self.runq_wait_ms += other.runq_wait_ms;
        self.rec.merge(other.rec);
    }
}

/// One benchmark workload. The seed is the only input; everything the
/// program sees is generated from it.
pub trait Workload: Sized {
    /// Percentiles reported as `cold_tail_ms` / `warm_tail_ms`, chosen so
    /// that a run leaves at least ten samples beyond each.
    const COLD_TAIL: f64;
    const WARM_TAIL: f64;

    /// Corpus generation, reference outputs, daemon spawn and warm-up.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Runs ops for `seconds`, checking every output.
    fn run(&mut self, seconds: f64, trace: bool) -> Phase;

    /// Feeds one deliberately wrong expected value through the output
    /// check; true when it was counted as a failure.
    fn self_check(&self) -> bool;

    /// The fixed inputs whose single-threaded layer allocations are
    /// counted, and the configuration they are analyzed under.
    fn alloc_inputs(&self) -> (Vec<&str>, ipcp_core::AnalysisConfig);

    /// Stops what `setup` started.
    fn finish(self) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Second field of `/proc/thread-self/schedstat`: nanoseconds this
/// thread spent runnable but waiting for a CPU.
pub fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Steal ticks summed over all CPUs (`/proc/stat`, eighth value).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

pub fn peak_rss_mib() -> f64 {
    ipcp_core::obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// SplitMix64: a small seeded generator for op mixes and edit choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Appends a `print` of `literal` to the body of the `which`-th
/// procedure (modulo their number): a one-procedure edit that gives the
/// program a new fingerprint. Procedures end with `end` in column 0.
pub fn edit_proc(source: &str, which: usize, literal: u64) -> String {
    let ends: Vec<usize> = source
        .match_indices("\nproc ")
        .filter_map(|(at, _)| source[at..].find("\nend\n").map(|end| at + end + 1))
        .collect();
    assert!(!ends.is_empty(), "benchmark program has procedures");
    let at = ends[which % ends.len()];
    format!("{}  print({literal})\n{}", &source[..at], &source[at..])
}

/// A 64-bit digest of an output. Outputs checked after the timed phase
/// are kept as digests, so the run's memory does not grow with its ops.
pub fn digest(text: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::hash::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Per-layer times that some workload never exercises (no complete
/// propagation, no disk cache, no daemon). They are printed for every
/// workload but left out of the result object, where a time that reads
/// exactly zero on every run of a workload is not a measurement.
const PRINTED_ONLY: [&str; 10] = [
    "session.dce_ms",
    "codec.encode_ms",
    "codec.decode_ms",
    "diskcache.store_ms",
    "diskcache.load_ms",
    "serve.rtt_ms",
    "serve.server_ms",
    "serve.frame_ms",
    "provenance.explain_ms",
    "provenance.explain_server_ms",
];

/// A metric line of the result: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn end_to_end<W: Workload>(setup_s: f64, phase: &Phase) -> (Vec<Metric>, String) {
    let cold_tail = stats::tail(&phase.cold, W::COLD_TAIL);
    let warm_tail = stats::tail(&phase.warm, W::WARM_TAIL);
    let ok_ops = (phase.cold.len() + phase.warm.len() + phase.explain.len()) as f64;
    let mut notes = String::new();
    if !phase.explain.is_empty() {
        let _ = writeln!(
            notes,
            "  explain_ms (fresh tenant): median {:.4} ms of {} samples",
            stats::median(&phase.explain),
            phase.explain.len()
        );
    }
    for (name, t, samples) in [
        ("cold_tail_ms", cold_tail, &phase.cold),
        ("warm_tail_ms", warm_tail, &phase.warm),
    ] {
        let _ = write!(
            notes,
            "  {name}: p{} of {} samples, {} beyond{}; distribution",
            t.pct,
            t.n,
            t.beyond,
            if t.beyond < 10 {
                " (fewer than 10)"
            } else {
                ""
            }
        );
        for pct in [50.0, 75.0, 90.0, 95.0, 99.0] {
            let _ = write!(notes, " p{pct}={:.3}", stats::tail(samples, pct).value);
        }
        notes.push('\n');
    }
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("cold_ms", stats::median(&phase.cold), "ms"),
        ("cold_tail_ms", cold_tail.value, "ms"),
        ("warm_ms", stats::median(&phase.warm), "ms"),
        ("warm_tail_ms", warm_tail.value, "ms"),
        ("ops_per_s", ok_ops / phase.elapsed_s, "1/s"),
        ("peak_rss_mib", phase.peak_rss_mib, "MiB"),
    ];
    (metrics, notes)
}

fn per_layer(rec: &Recorder, allocs: AllocCounts, trace_overhead: f64) -> Vec<Metric> {
    let ops = rec.ops.max(1) as f64;
    let per_op = |name: &str| rec.get(name) / ops;
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let mean = |sum: &str, count: &str| {
        let n = rec.get(count);
        if n > 0.0 {
            rec.get(sum) / n
        } else {
            0.0
        }
    };
    let (par_wall, par_span) = (rec.get("par.wall_ms"), rec.get("par.span_ms"));
    let unattributed = rec.wall_ms - rec.attributed_ms;
    let mut out: Vec<Metric> = Vec::new();
    for name in [
        "lang.lex_ms",
        "lang.parse_ms",
        "lang.typeck_ms",
        "ir.lower_ms",
        "fingerprint.base_ms",
        "session.closures_ms",
        "audit.ledger_ms",
        "session.callgraph_ms",
        "session.modref_ms",
        "session.ssa_ms",
        "session.retjf_ms",
        "session.symvals_ms",
        "session.forward_jf_ms",
        "session.solve_ms",
        "session.subst_ms",
        "session.dce_ms",
        "session.teardown_ms",
        "codec.encode_ms",
        "codec.decode_ms",
        "diskcache.store_ms",
        "diskcache.load_ms",
        "report.render_ms",
        "serve.rtt_ms",
        "serve.server_ms",
    ] {
        out.push((name, per_op(name), "ms"));
    }
    for name in [
        "lang.tokens",
        "analysis.jf_sites",
        "analysis.solver_iterations",
        "analysis.substitutions",
        "session.hits",
        "session.misses",
        "diskcache.evictions",
        "serve.evictions",
    ] {
        out.push((name, per_op(name), "count"));
    }
    out.extend([
        (
            "session.hit_ratio",
            ratio(rec.get("session.hits"), rec.get("session.misses")),
            "ratio",
        ),
        (
            "diskcache.hit_ratio",
            ratio(rec.get("diskcache.hits"), rec.get("diskcache.misses")),
            "ratio",
        ),
        (
            "par.speedup",
            if par_span > 0.0 {
                par_wall / par_span
            } else {
                1.0
            },
            "x",
        ),
        (
            "codec.payload_bytes",
            mean("codec.payload_bytes", "diskcache.ops"),
            "bytes",
        ),
        (
            "report.output_bytes",
            per_op("report.output_bytes"),
            "bytes",
        ),
        (
            "serve.request_bytes",
            per_op("serve.request_bytes"),
            "bytes",
        ),
        (
            "serve.frame_ms",
            (rec.get("serve.rtt_ms") - rec.get("serve.server_ms")) / ops,
            "ms",
        ),
        ("serve.tenants", rec.get("serve.tenants"), "count"),
        (
            "provenance.explain_ms",
            mean("provenance.explain_ms", "provenance.explains"),
            "ms",
        ),
        (
            "provenance.explain_server_ms",
            mean("provenance.explain_server_ms", "provenance.explains"),
            "ms",
        ),
        ("lang.allocs", allocs.lang as f64, "count"),
        ("lang.alloc_bytes", allocs.lang_bytes as f64, "bytes"),
        ("fingerprint.allocs", allocs.fingerprint as f64, "count"),
        ("report.allocs", allocs.report as f64, "count"),
        ("unattributed_ms", unattributed / ops, "ms"),
        (
            "unattributed_share",
            if rec.wall_ms > 0.0 {
                unattributed / rec.wall_ms
            } else {
                0.0
            },
            "ratio",
        ),
        ("trace_overhead", trace_overhead, "ms"),
    ]);
    out
}

/// Writes the traced phase's spans, one per line: op, layer, start and
/// duration in microseconds.
fn write_spans(workload: &str, seed: u64, rec: &Recorder) -> std::io::Result<()> {
    let mut text = String::from("op\tlayer\tstart_us\tdur_us\n");
    for s in &rec.spans {
        let _ = writeln!(
            text,
            "{}\t{}\t{:.1}\t{:.1}",
            s.op, s.layer, s.start_us, s.dur_us
        );
    }
    std::fs::create_dir_all(WORK_DIR)?;
    std::fs::write(format!("{WORK_DIR}/spans-{workload}-seed{seed}.tsv"), text)
}

fn drive<W: Workload>(args: &Args) -> Result<ExitCode, String> {
    let load_start = loadavg_1m();
    let steal_start = steal_ticks();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut state: Option<W> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = state.take() {
            previous.finish()?;
        }
        let start = Instant::now();
        state = Some(W::setup(args.seed)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up ran");
    let setup_s = stats::median(&setups);

    // Reset the resident high-water mark so peak RSS covers the timed
    // phase (best effort: without the reset it covers the whole run).
    let _ = std::fs::write("/proc/self/clear_refs", "5");

    let (phase, metrics, notes, allocs_repeat) = if args.trace {
        let untraced = state.run(args.seconds / 2.0, false);
        let traced = state.run(args.seconds / 2.0, true);
        let overhead = stats::median(&traced.cold) - stats::median(&untraced.cold);
        let (sources, config) = state.alloc_inputs();
        let first = layers::alloc_counts(&sources, &config);
        let second = layers::alloc_counts(&sources, &config);
        let metrics = per_layer(&traced.rec, first, overhead);
        write_spans(&args.workload, args.seed, &traced.rec)
            .map_err(|e| format!("cannot write span log: {e}"))?;
        let mut both = untraced;
        both.merge(traced);
        (both, metrics, String::new(), first == second)
    } else {
        let phase = state.run(args.seconds, false);
        let (metrics, notes) = end_to_end::<W>(setup_s, &phase);
        (phase, metrics, notes, true)
    };
    let self_check = state.self_check();
    state.finish()?;

    let correct = phase.failed == 0 && self_check && allocs_repeat && phase.attempted > 0;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    print!("{notes}");
    println!(
        "  error_rate {} ({} failed of {} attempted, {} of them cache hit/miss mismatches); output self-check {}; allocation counts {}",
        phase.failed as f64 / phase.attempted.max(1) as f64,
        phase.failed,
        phase.attempted,
        phase.mislabeled,
        if self_check { "ok" } else { "FAILED" },
        if allocs_repeat { "repeat" } else { "DIFFER" },
    );
    println!(
        "{{\"noise\":{{\"runq_wait_ms\":{},\"steal_ticks\":{},\"loadavg_start\":{}}}}}",
        phase.runq_wait_ms,
        steal_ticks().saturating_sub(steal_start),
        load_start
    );
    let mut json = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        phase.attempted, phase.failed
    );
    let reported = metrics
        .iter()
        .filter(|(name, _, _)| !PRINTED_ONLY.contains(name));
    for (i, (name, value, unit)) in reported.enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "paper_sweep" => drive::<paper_sweep::PaperSweep>(&args),
        "scale_10k" => drive::<scale::Scale>(&args),
        "serve_mixed" => drive::<serve_mixed::ServeMixed>(&args),
        other => Err(format!(
            "unknown workload `{other}` (paper_sweep, scale_10k, serve_mixed)"
        )),
    });
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
