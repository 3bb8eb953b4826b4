//! Regenerates all evaluation tables side by side with the paper.
//!
//! The suite is generated, compiled, and fingerprinted exactly once:
//! every table reuses the same prepared programs and their analysis
//! sessions, so configuration-independent artifacts (call graph,
//! MOD/REF, SSA, return jump functions) are built once per program
//! rather than once per table column.
//!
//! Pass `--timing` to also print single-run analysis times per
//! configuration — the per-jump-function cost view of §3.1.5.
//! Pass `--robustness [fuel]` to instead emit one JSON line per suite
//! program describing how a fuel-limited run (default 10000 units)
//! degraded — the machine-readable face of the resource-governance
//! subsystem — including a `phase_stats` block with the session's
//! per-phase wall-clock and cache traffic.
//! Pass `--trace [path]` to instead run the suite with a recording
//! observability sink and write one combined Chrome trace-event JSON
//! file (default `trace.json`; one Chrome process per program),
//! validated before it is written.
//! Pass `--scale-bench [max_procs]` to instead run the scaling study:
//! generated programs of 1k/10k/100k procedures (capped at
//! `max_procs`) analyzed at worker counts {1, 4, 8}, writing
//! `BENCH_scale.json` with wall-clock, peak RSS, the jump-function
//! arena high-water mark, and the measured growth exponent between
//! sizes (which must stay sub-quadratic).
//! Pass `--obs-bench` to instead measure the cost of the observability
//! stack itself — every suite program analyzed with tracing off and
//! with a recording sink (spans, counters, latency histograms),
//! min-of-repeats — and rewrite `BENCH_obs.json` with the per-phase
//! self times plus the measured overhead; the run fails if tracing
//! costs more than 5%.
//! Pass `--emit-scale [procs] [path]` to instead write one scaling
//! corpus to disk for shell-driven scenarios.

use ipcp_core::obs::{chrome_trace_json_multi, validate_chrome_trace, TraceSink, TraceSnapshot};
use ipcp_core::{AnalysisConfig, AnalysisSession};
use std::fmt::Write as _;
use std::process::ExitCode;

/// `std::fs::write` with the failure turned into a diagnostic instead of
/// a panic; `main` converts the error into a nonzero exit code.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write `{path}`: {e}"))
}

fn robustness_report(fuel: u64) {
    let suite = ipcp_bench::prepare_suite();
    let config = AnalysisConfig {
        fuel: Some(fuel),
        ..Default::default()
    };
    for prepared in &suite {
        let session = prepared.session();
        let outcome = session.analyze(&config);
        println!(
            "{{\"program\":\"{}\",\"substitutions\":{},\"report\":{},\"phase_stats\":{}}}",
            prepared.generated.name,
            outcome.substitutions.total,
            outcome.robustness.to_json(),
            session.stats().to_json()
        );
    }
}

/// The `programs` array of `BENCH_obs.json`: per-phase self times and
/// counters of one traced default-configuration run per suite program.
fn obs_self_time_programs(suite: &[ipcp_bench::PreparedProgram]) -> String {
    let mut obs = String::from("[");
    for (i, p) in suite.iter().enumerate() {
        let sink = TraceSink::new();
        p.session()
            .analyze_checked_obs(&AnalysisConfig::default(), &sink)
            .expect("unlimited fuel never exhausts");
        let snapshot = sink.snapshot();
        if i > 0 {
            obs.push(',');
        }
        let _ = write!(
            obs,
            "{{\"program\":\"{}\",\"self_time_us\":{{",
            p.generated.name
        );
        for (j, (name, us)) in snapshot.self_times_us().iter().enumerate() {
            if j > 0 {
                obs.push(',');
            }
            let _ = write!(obs, "\"{name}\":{us}");
        }
        obs.push_str("},\"counters\":{");
        for (j, (name, n)) in snapshot.counters.iter().enumerate() {
            if j > 0 {
                obs.push(',');
            }
            let _ = write!(obs, "\"{name}\":{n}");
        }
        obs.push_str("}}");
    }
    obs.push(']');
    obs
}

/// The observability overhead gate (`--obs-bench`): analyze every suite
/// program with tracing off and with a recording [`TraceSink`] (which
/// now also feeds the latency histograms), min-of-`REPEATS` per variant
/// over fresh sessions, and fail unless the traced total stays within
/// 5% of the plain total. Writes `BENCH_obs.json` with the per-phase
/// self-time section plus the measured overhead.
fn obs_bench() -> Result<(), String> {
    const REPEATS: u32 = 7;
    const TARGET_PCT: f64 = 5.0;
    let suite = ipcp_bench::prepare_suite();
    let config = AnalysisConfig::default();

    let mut programs = String::from("[");
    let (mut plain_total, mut traced_total) = (0u128, 0u128);
    for (i, p) in suite.iter().enumerate() {
        let mut plain_us = u128::MAX;
        let mut traced_us = u128::MAX;
        let mut want = None;
        for _ in 0..REPEATS {
            let session = AnalysisSession::new(&p.ir);
            let start = std::time::Instant::now();
            let outcome = std::hint::black_box(
                session
                    .analyze_checked(&config)
                    .expect("unlimited fuel never exhausts"),
            );
            plain_us = plain_us.min(start.elapsed().as_micros());

            let sink = TraceSink::new();
            let session = AnalysisSession::new(&p.ir);
            let start = std::time::Instant::now();
            let traced = std::hint::black_box(
                session
                    .analyze_checked_obs(&config, &sink)
                    .expect("unlimited fuel never exhausts"),
            );
            traced_us = traced_us.min(start.elapsed().as_micros());
            let got = (traced.substitutions.total, traced.constant_slot_count());
            let plain_key = (outcome.substitutions.total, outcome.constant_slot_count());
            if got != plain_key {
                return Err(format!(
                    "{}: traced outcome diverged from plain: {got:?} vs {plain_key:?}",
                    p.generated.name
                ));
            }
            match want {
                None => want = Some(got),
                Some(w) if w == got => {}
                Some(w) => {
                    return Err(format!(
                        "{}: outcome drifted across repeats: {got:?} vs {w:?}",
                        p.generated.name
                    ));
                }
            }
        }
        plain_total += plain_us;
        traced_total += traced_us;
        if i > 0 {
            programs.push(',');
        }
        let _ = write!(
            programs,
            "{{\"program\":\"{}\",\"plain_us\":{plain_us},\"traced_us\":{traced_us}}}",
            p.generated.name
        );
    }
    programs.push(']');

    let overhead_pct =
        (traced_total as f64 - plain_total as f64) / plain_total.max(1) as f64 * 100.0;
    let out = format!(
        "{{\"bench\":\"obs_self_time\",\"programs\":{},\
         \"overhead\":{{\"repeats\":{REPEATS},\"plain_total_us\":{plain_total},\
         \"traced_total_us\":{traced_total},\"overhead_pct\":{overhead_pct:.2},\
         \"target_pct\":{TARGET_PCT},\"programs\":{programs}}}}}",
        obs_self_time_programs(&suite)
    );
    write_file("BENCH_obs.json", &out)?;
    println!(
        "wrote BENCH_obs.json (plain {plain_total}us, traced {traced_total}us, \
         overhead {overhead_pct:.2}% [target <={TARGET_PCT}%], min of {REPEATS} repeats)"
    );
    if overhead_pct > TARGET_PCT {
        return Err(format!(
            "observability overhead {overhead_pct:.2}% exceeds the {TARGET_PCT}% budget \
             (plain {plain_total}us vs traced {traced_total}us)"
        ));
    }
    Ok(())
}

fn trace_suite(path: &str) -> Result<(), String> {
    let suite = ipcp_bench::prepare_suite();
    let config = AnalysisConfig::default();
    let mut snapshots: Vec<(String, TraceSnapshot)> = Vec::new();
    for p in &suite {
        let sink = TraceSink::new();
        p.session()
            .analyze_checked_obs(&config, &sink)
            .expect("unlimited fuel never exhausts");
        snapshots.push((p.generated.name.clone(), sink.snapshot()));
    }
    let parts: Vec<(&str, &TraceSnapshot)> =
        snapshots.iter().map(|(n, s)| (n.as_str(), s)).collect();
    let json = chrome_trace_json_multi(&parts);
    let stats = validate_chrome_trace(&json).expect("exporter emits valid Chrome trace JSON");
    write_file(path, &json)?;
    println!(
        "wrote {path} ({} events, {} spans, {} threads)",
        stats.events, stats.spans, stats.threads
    );
    Ok(())
}

/// Resets the process's peak-RSS high-water mark so per-run readings
/// don't just echo the largest earlier run. Best effort: requires Linux
/// ≥ 4.0; on failure subsequent readings are cumulative (still an upper
/// bound, and sizes ascend, so the last reading per size is meaningful).
fn reset_peak_rss() {
    #[cfg(target_os = "linux")]
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The scaling study (`--scale-bench [max_procs]`): analyze generated
/// programs of 1k/10k/100k procedures (capped at `max_procs`) at worker
/// counts {1, 4, 8}, recording wall-clock, peak RSS, the jump-function
/// arena high-water mark, and the growth exponent between sizes —
/// written to `BENCH_scale.json`. Substitution totals must be
/// bit-identical across worker counts; growth at jobs=1 must stay
/// sub-quadratic (exponent < 2).
fn scale_bench(max_procs: usize) -> Result<(), String> {
    const SEED: u64 = 0xC0DE;
    let sizes: Vec<usize> = [1_000usize, 10_000, 100_000]
        .into_iter()
        .filter(|&n| n <= max_procs)
        .collect();
    if sizes.is_empty() {
        return Err(format!(
            "--scale-bench {max_procs}: below the smallest size (1000)"
        ));
    }
    // The default sweep; `IPCP_SCALE_JOBS=1,2` (comma-separated) swaps
    // in another worker-count list — CI's jobs-2 smoke uses this. The
    // first entry is the substitution-equality baseline.
    let jobs_sweep: Vec<usize> = std::env::var("IPCP_SCALE_JOBS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 4, 8]);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let shape = ipcp_suite::ScaleSpec::with_procs(sizes[sizes.len() - 1], SEED);
    let mut out = format!(
        "{{\"bench\":\"scale\",\"available_parallelism\":{cores},\
         \"generator\":{{\"seed\":{SEED},\"tower_height\":{},\"fanout\":{},\"globals\":{}}},\
         \"sizes\":[",
        shape.tower_height, shape.fanout, shape.globals
    );
    // (size, jobs=1 analysis wall) pairs feeding the growth exponents.
    let mut seq_walls: Vec<(usize, u128)> = Vec::new();
    for (i, &procs) in sizes.iter().enumerate() {
        let spec = ipcp_suite::ScaleSpec::with_procs(procs, SEED);
        let generated = ipcp_suite::generate_scale(&spec);
        let start = std::time::Instant::now();
        let ir = ipcp_ir::compile_to_ir(&generated.source)
            .map_err(|e| format!("{}: {e:?}", generated.name))?;
        let compile_us = start.elapsed().as_micros();

        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"procs\":{procs},\"ir_procs\":{},\"compile_us\":{compile_us},\"runs\":[",
            ir.procs.len()
        );
        // One discarded warm-up analysis per size: the first run over a
        // fresh program pays allocator growth and first-touch page
        // faults for the whole working set; without the warm-up that
        // one-time cost lands on whichever jobs value runs first and
        // swamps the comparison.
        {
            let config = AnalysisConfig::default();
            let session = AnalysisSession::new(&ir);
            let _ = session.analyze(&config);
        }
        let mut baseline: Option<usize> = None;
        let mut walls: Vec<u128> = Vec::new();
        for (j, &jobs) in jobs_sweep.iter().enumerate() {
            reset_peak_rss();
            let config = AnalysisConfig {
                jobs,
                ..AnalysisConfig::default()
            };
            let session = AnalysisSession::new(&ir);
            let start = std::time::Instant::now();
            let outcome = session.analyze(&config);
            let wall_us = start.elapsed().as_micros();
            let subs = outcome.substitutions.total;
            match baseline {
                None => baseline = Some(subs),
                Some(want) if want == subs => {}
                Some(want) => {
                    return Err(format!(
                        "{procs} procs: jobs={jobs} diverged ({subs} vs {want} substitutions)"
                    ));
                }
            }
            if jobs == 1 {
                seq_walls.push((procs, wall_us));
            }
            walls.push(wall_us);
            let peak_kib = ipcp_core::obs::peak_rss_bytes().map_or(0, |b| b / 1024);
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"jobs\":{jobs},\"wall_us\":{wall_us},\"peak_rss_kib\":{peak_kib},\
                 \"arena_high_water\":{},\"substitutions\":{subs}}}",
                ipcp_core::arena_high_water()
            );
            println!(
                "scale {procs} procs, jobs={jobs}: {wall_us}us, peak RSS {peak_kib} KiB, \
                 {subs} substitutions"
            );
            if std::env::var_os("IPCP_SCALE_PHASES").is_some() {
                println!("  phases: {}", session.stats().to_json());
            }
        }
        out.push(']');
        if let Some(k) = jobs_sweep.iter().position(|&j| j == 4) {
            let speedup4 = walls[0] as f64 / walls[k].max(1) as f64;
            let _ = write!(out, ",\"speedup_jobs4\":{speedup4:.2}");
        }
        out.push('}');
    }
    out.push_str("],\"growth_jobs1\":[");
    for (i, pair) in seq_walls.windows(2).enumerate() {
        let (size_a, wall_a) = pair[0];
        let (size_b, wall_b) = pair[1];
        let exponent =
            (wall_b as f64 / wall_a.max(1) as f64).ln() / (size_b as f64 / size_a as f64).ln();
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"from_procs\":{size_a},\"to_procs\":{size_b},\"exponent\":{exponent:.3}}}"
        );
        println!("scale growth {size_a} -> {size_b} procs: exponent {exponent:.3}");
        if exponent >= 2.0 {
            return Err(format!(
                "super-quadratic growth from {size_a} to {size_b} procs (exponent {exponent:.3})"
            ));
        }
    }
    out.push_str("]}");
    write_file("BENCH_scale.json", &out)?;
    println!(
        "wrote BENCH_scale.json ({} sizes, jobs {jobs_sweep:?})",
        sizes.len()
    );
    Ok(())
}

/// Writes a `generate_scale` corpus to disk (`--emit-scale [procs]
/// [path]`) so shell-driven scenarios — CI's `ipcp why` edit test —
/// can run the scaling generator's programs through the CLI.
fn emit_scale(procs: usize, path: &str) -> Result<(), String> {
    const SEED: u64 = 0xC0DE;
    let generated = ipcp_suite::generate_scale(&ipcp_suite::ScaleSpec::with_procs(procs, SEED));
    write_file(path, &generated.source)?;
    println!(
        "wrote {path} ({}, {} bytes)",
        generated.name,
        generated.source.len()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--obs-bench") {
        return obs_bench();
    }
    if let Some(i) = args.iter().position(|a| a == "--emit-scale") {
        let procs = args
            .get(i + 1)
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(1_000);
        let path = args
            .get(i + 2)
            .filter(|p| !p.starts_with("--"))
            .map_or("scale.mf", String::as_str);
        return emit_scale(procs, path);
    }
    if let Some(i) = args.iter().position(|a| a == "--scale-bench") {
        let max_procs = args
            .get(i + 1)
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(100_000);
        return scale_bench(max_procs);
    }
    if let Some(i) = args.iter().position(|a| a == "--robustness") {
        let fuel = args
            .get(i + 1)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(10_000);
        robustness_report(fuel);
        return Ok(());
    }
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let path = args
            .get(i + 1)
            .filter(|p| !p.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "trace.json".into());
        return trace_suite(&path);
    }
    let timing = args.iter().any(|a| a == "--timing");
    let jobs = ipcp_core::Parallelism::auto().effective();
    let suite = ipcp_bench::prepare_suite();
    println!("{}", ipcp_bench::render_table1(&suite));
    println!("{}", ipcp_bench::render_table2(&suite, jobs));
    println!("{}", ipcp_bench::render_table3(&suite, jobs));
    if timing {
        println!("{}", ipcp_bench::render_timings(&suite));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::FAILURE
        }
    }
}
