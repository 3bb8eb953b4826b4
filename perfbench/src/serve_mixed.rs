//! `serve_mixed`: an in-process `ipcp serve` daemon (`jobs=1`, disk cache
//! attached, tenant byte budget below the working set) on a Unix socket,
//! driven by two client connections in a closed loop over a seeded mix:
//! of every 90 draws, 80 are an `analyze` or `explain` of one of the 12
//! suite programs (memo hits: warm) and 10 are an edit burst, an
//! `analyze` of a freshly edited suite program (a new tenant: cold)
//! followed by `explain` on that tenant (the cost of provenance). Every
//! response must equal the one-shot rendering: suite goldens are computed
//! in set-up, edited-program goldens after the timed phase. The daemon's
//! counters must show one tenant admission per burst and no other, so
//! every warm op was a memo hit.

use crate::layers::{Recorder, Tracer};
use crate::{digest, edit_proc, runq_wait_ns, Phase, Rng, Workload, WORK_DIR};
use ipcp_core::serve::{parse_response, render_explain, request_line, Client, ServeConfig};
use ipcp_core::{AnalysisConfig, AnalysisSession, ServeHandle};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const CLIENTS: usize = 2;

struct Program {
    source: String,
    /// The procedure `explain` asks about.
    proc: String,
    analyze: String,
    explain: String,
}

/// An edit burst, checked after the timed phase: output digests and
/// latencies of its `analyze` and `explain`.
struct Burst {
    k: u64,
    analyze: (Result<u64, String>, f64),
    explain: (Result<u64, String>, f64),
}

pub struct ServeMixed {
    seed: u64,
    runs: u64,
    bursts: AtomicU64,
    dir: PathBuf,
    socket: PathBuf,
    handle: ServeHandle,
    config: AnalysisConfig,
    suite: Vec<Program>,
}

/// The one-shot `analyze` and `explain` renderings the daemon must match.
fn goldens(source: &str, proc: &str, config: &AnalysisConfig) -> Result<(String, String), String> {
    let ir = ipcp_ir::compile_to_ir(source).map_err(|d| d.render(source))?;
    let analyze = ipcp_core::report::analyze_to_string(&ipcp_core::analyze(&ir, config));
    Ok((analyze, render_explain(&ir, config, proc, None)?))
}

/// Says on stderr why an op failed (the first 200 characters of the
/// detail): failures here can depend on timing, so the run's own output
/// must tell what went wrong.
fn report_failure(what: &str, detail: &str) {
    let detail: String = detail.chars().take(200).collect();
    eprintln!("perfbench: failed op: {what}: {detail}");
}

/// The daemon's counters, from its `metrics` op.
fn daemon_metrics(client: &mut Client) -> BTreeMap<String, f64> {
    let text = client
        .call(0, "metrics", &[])
        .and_then(|r| r.into_result())
        .unwrap_or_default();
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn latency_us(m: &BTreeMap<String, f64>, op: &str) -> f64 {
    let key = format!("ipcp_serve_request_latency_microseconds_sum{{op=\"{op}\"}}");
    m.get(&key).copied().unwrap_or(0.0)
}

impl ServeMixed {
    /// One request: its result and latency in ms. Warm `explain`s are
    /// counted apart, to separate their server time from fresh ones'.
    fn call(
        client: &mut Client,
        tr: &mut Tracer,
        op: &str,
        fields: &[(&str, &str)],
    ) -> (Result<String, String>, f64) {
        let line = request_line(0, op, fields);
        let start = tr.begin_op();
        let result = client
            .call_raw(&line)
            .map_err(|e| format!("transport: {e}"))
            .and_then(|l| parse_response(&l))
            .and_then(|r| r.into_result());
        let ms = tr.end_op(start);
        tr.add("serve.rtt_ms", ms);
        tr.add("serve.request_bytes", line.len() as f64);
        (result, ms)
    }

    /// One client's closed loop until `seconds` have passed since `start`.
    fn client(&self, idx: usize, seconds: f64, trace: bool, start: Instant) -> (Phase, Vec<Burst>) {
        let mut phase = Phase::default();
        let mut bursts = Vec::new();
        let mut client = match Client::connect(&self.socket) {
            Ok(client) => client,
            Err(_) => {
                phase.record(false, false, 0.0);
                return (phase, bursts);
            }
        };
        let mut tr = Tracer::new(trace, idx as u64 * 1_000_000_000);
        let mut replays = Recorder::default();
        let mut rng = Rng::new(self.seed ^ (self.runs << 8) ^ idx as u64);
        let runq = runq_wait_ns();
        while start.elapsed().as_secs_f64() < seconds {
            let draw = rng.below(90);
            if draw < 80 {
                let p = &self.suite[rng.below(self.suite.len())];
                let analyze = draw.is_multiple_of(2);
                let (result, ms) = if analyze {
                    Self::call(&mut client, &mut tr, "analyze", &[("source", &p.source)])
                } else {
                    let fields = [("source", p.source.as_str()), ("proc", p.proc.as_str())];
                    Self::call(&mut client, &mut tr, "explain", &fields)
                };
                let golden = if analyze {
                    &p.analyze
                } else {
                    tr.add("serve.warm_explains", 1.0);
                    &p.explain
                };
                let ok = result.as_ref() == Ok(golden);
                if !ok {
                    let got = result.unwrap_or_else(|e| format!("error: {e}"));
                    report_failure(
                        if analyze {
                            "warm analyze"
                        } else {
                            "warm explain"
                        },
                        &got,
                    );
                }
                phase.record(false, ok, ms);
                continue;
            }
            let k = self.bursts.fetch_add(1, Ordering::Relaxed);
            let (p, source) = self.burst_source(k);
            let analyze = Self::call(&mut client, &mut tr, "analyze", &[("source", &source)]);
            let fields = [("source", source.as_str()), ("proc", p.proc.as_str())];
            let explain = Self::call(&mut client, &mut tr, "explain", &fields);
            if trace {
                // The cold analyze's layers, replayed in-process: they
                // explain server time the client cannot see into.
                tr.add("provenance.explains", 1.0);
                tr.add("provenance.explain_ms", explain.1);
                let mut replay = Tracer::new(true, 0);
                if let Ok(ir) = replay.compile(&source) {
                    let session = replay.open_session(&ir);
                    if let Ok(outcome) = replay.analyze(&session, &self.config) {
                        replay.render(&outcome);
                    }
                    replay.span("session.teardown_ms", || drop(session));
                }
                replays.merge(replay.into_recorder());
            }
            let digested = |(r, ms): (Result<String, String>, f64)| (r.map(|o| digest(&o)), ms);
            bursts.push(Burst {
                k,
                analyze: digested(analyze),
                explain: digested(explain),
            });
        }
        phase.runq_wait_ms = (runq_wait_ns() - runq) as f64 / 1e6;
        phase.rec = tr.into_recorder();
        phase.rec.merge(replays);
        (phase, bursts)
    }

    /// Burst `k` edits suite program `k mod 12`: the program and the
    /// edited source.
    fn burst_source(&self, k: u64) -> (&Program, String) {
        let p = &self.suite[k as usize % self.suite.len()];
        let literal = 5_000_000 + (self.seed % 1000) * 100_000 + k;
        (p, edit_proc(&p.source, (k / 12) as usize, literal))
    }

    /// Checks edit bursts against one-shot goldens (two threads),
    /// saying on stderr why each failed one failed when `report` is set.
    fn verify(&self, phase: &mut Phase, bursts: &[Burst], report: bool) {
        let verdicts = ipcp_core::parallel::par_map(2, bursts, |_, b| {
            let (p, source) = self.burst_source(b.k);
            match goldens(&source, &p.proc, &self.config) {
                Ok((analyze, explain)) => (
                    b.analyze.0 == Ok(digest(&analyze)),
                    b.explain.0 == Ok(digest(&explain)),
                ),
                Err(_) => (false, false),
            }
        });
        for (b, (analyze_ok, explain_ok)) in bursts.iter().zip(verdicts) {
            for (ok, what, result) in [
                (analyze_ok, "burst analyze", &b.analyze.0),
                (explain_ok, "burst explain", &b.explain.0),
            ] {
                if report && !ok {
                    report_failure(what, &format!("burst {}: {result:?}", b.k));
                }
            }
            phase.record(true, analyze_ok, b.analyze.1);
            phase.record_explain(explain_ok, b.explain.1);
        }
    }

    fn control(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("cannot reach daemon: {e}"))
    }
}

impl Workload for ServeMixed {
    // Cold ops rotate over programs of very different sizes, and warm
    // latencies past the 95th percentile mostly record which requests
    // met a cold analysis on the other core: p95 keeps both tails steady
    // from run to run with hundreds of samples beyond.
    const COLD_TAIL: f64 = 95.0;
    const WARM_TAIL: f64 = 95.0;

    fn setup(seed: u64) -> Result<Self, String> {
        let config = AnalysisConfig {
            jobs: 1,
            ..AnalysisConfig::default()
        };
        let mut suite = Vec::new();
        let mut footprint = 0;
        for spec in ipcp_suite::all_specs() {
            let source = ipcp_suite::generate(&spec).source;
            let ir = ipcp_ir::compile_to_ir(&source).map_err(|d| d.render(&source))?;
            let procs: Vec<&str> = ir
                .procs
                .iter()
                .map(|p| p.name.as_str())
                .filter(|n| *n != "main")
                .collect();
            // A fixed choice: the seed varies the request stream, not
            // which (differently sized) explanations are served.
            let proc = procs[procs.len() / 2].to_string();
            let (analyze, explain) = goldens(&source, &proc, &config)?;
            // The daemon's own estimate of a warm tenant: session, source
            // and two memoized responses.
            let session = AnalysisSession::new(&ir);
            session.analyze(&config);
            footprint += session.approx_footprint_bytes() + source.len() as u64 + 2 * 256;
            suite.push(Program {
                source,
                proc,
                analyze,
                explain,
            });
        }
        let dir = PathBuf::from(format!("{WORK_DIR}/serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create work dir: {e}"))?;
        let socket = dir.join("d.sock");
        // Room for the suite plus about four dozen edited tenants: each
        // new edited tenant evicts the least recently used one. A suite
        // tenant is only evicted after some 400 draws without a request
        // for it, which the seeded mix makes vanishingly rare; `run`
        // checks that it did not happen.
        let budget = 5 * footprint;
        let handle = ipcp_core::serve::spawn(ServeConfig {
            cache_dir: Some(dir.join("cache")),
            max_tenant_bytes: Some(budget),
            jobs: 1,
            ..ServeConfig::new(&socket)
        })
        .map_err(|e| format!("cannot start daemon: {e}"))?;
        let serve = ServeMixed {
            seed,
            runs: 0,
            bursts: AtomicU64::new(0),
            dir,
            socket,
            handle,
            config,
            suite,
        };
        // Warm-up: every suite tenant answers both ops once.
        let mut client = serve.control()?;
        let mut tr = Tracer::new(false, 0);
        for p in &serve.suite {
            let analyze = Self::call(&mut client, &mut tr, "analyze", &[("source", &p.source)]);
            let fields = [("source", p.source.as_str()), ("proc", p.proc.as_str())];
            let explain = Self::call(&mut client, &mut tr, "explain", &fields);
            if analyze.0.as_ref() != Ok(&p.analyze) || explain.0.as_ref() != Ok(&p.explain) {
                return Err("warm-up: daemon output differs from one-shot output".into());
            }
        }
        Ok(serve)
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Phase {
        self.runs += 1;
        let mut control = self.control().ok();
        let before = control.as_mut().map(daemon_metrics).unwrap_or_default();
        let start = Instant::now();
        let this = &*self;
        let results: Vec<(Phase, Vec<Burst>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|idx| scope.spawn(move || this.client(idx, seconds, trace, start)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let mut phase = Phase {
            elapsed_s: start.elapsed().as_secs_f64(),
            peak_rss_mib: crate::peak_rss_mib(),
            ..Phase::default()
        };
        let mut bursts = Vec::new();
        for (p, b) in results {
            phase.merge(p);
            bursts.extend(b);
        }
        let after = control.as_mut().map(daemon_metrics).unwrap_or_default();
        let delta = |key: &str| after.get(key).unwrap_or(&0.0) - before.get(key).unwrap_or(&0.0);
        // Each edit burst admits one new tenant. Any other admission
        // means a suite tenant was evicted and a "warm" request for it
        // recomputed: each such admission is a failed op. Without the
        // daemon's counters the check cannot pass.
        let admitted = delta("ipcp_serve_tenants") + delta("ipcp_serve_tenant_evictions_total");
        let missed = if control.is_some() {
            (admitted - bursts.len() as f64).abs() as u64
        } else {
            bursts.len().max(1) as u64
        };
        if missed > 0 {
            report_failure(
                "tenant admissions",
                &format!("{admitted} admissions for {} edit bursts", bursts.len()),
            );
        }
        phase.mislabeled += missed;
        phase.failed += missed;
        if trace {
            let server_us = latency_us(&after, "analyze") + latency_us(&after, "explain")
                - latency_us(&before, "analyze")
                - latency_us(&before, "explain");
            // Fresh-tenant explains are the provenance layer's work: the
            // daemon's explain time less the warm (memo-hit) explains,
            // taken at the explain median, which warm explains dominate.
            let warm_explain_us = after
                .get("ipcp_serve_request_latency_microseconds{op=\"explain\",quantile=\"0.5\"}")
                .unwrap_or(&0.0);
            let rec = &mut phase.rec;
            let fresh_explain_ms = (latency_us(&after, "explain")
                - latency_us(&before, "explain")
                - rec.get("serve.warm_explains") * warm_explain_us)
                .max(0.0)
                / 1e3;
            rec.add("provenance.explain_server_ms", fresh_explain_ms);
            rec.add("serve.server_ms", server_us / 1e3);
            // Framing is what the client waited beyond the daemon's time.
            rec.attributed_ms += rec.get("serve.rtt_ms") - server_us / 1e3 + fresh_explain_ms;
            rec.add(
                "serve.evictions",
                delta("ipcp_serve_tenant_evictions_total"),
            );
            rec.add(
                "serve.tenants",
                *after.get("ipcp_serve_tenants").unwrap_or(&0.0),
            );
        }
        self.verify(&mut phase, &bursts, true);
        phase
    }

    fn self_check(&self) -> bool {
        // A burst whose explain is right but whose analyze output has
        // one extra byte.
        let (p, source) = self.burst_source(0);
        let (analyze, explain) = match goldens(&source, &p.proc, &self.config) {
            Ok(goldens) => goldens,
            Err(_) => return false,
        };
        let burst = Burst {
            k: 0,
            analyze: (Ok(digest(&format!("{analyze} "))), 0.0),
            explain: (Ok(digest(&explain)), 0.0),
        };
        let mut phase = Phase::default();
        self.verify(&mut phase, &[burst], false);
        phase.failed == 1
    }

    fn alloc_inputs(&self) -> (Vec<&str>, AnalysisConfig) {
        let sources = self.suite.iter().map(|p| p.source.as_str()).collect();
        (sources, self.config)
    }

    fn finish(self) -> Result<(), String> {
        let mut control = self.control()?;
        control
            .call(0, "shutdown", &[])
            .and_then(|r| r.into_result())
            .map_err(|e| format!("shutdown: {e}"))?;
        self.handle
            .join()
            .map_err(|e| format!("daemon did not exit cleanly: {e}"))?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("cannot remove work dir: {e}"))
    }
}
