//! End-to-end tests of the `ipcp serve` daemon: concurrent clients get
//! responses byte-identical to one-shot CLI output, tenants share one
//! disk cache with exactly-predicted traffic, the byte budget evicts
//! LRU sessions, admission control sheds load without wedging the
//! control plane, and shutdown drains in-flight work.

use ipcp::cli::{execute, parse_args};
use ipcp::core::serve::{spawn, Client, ServeConfig, OVERLOADED};
use std::path::PathBuf;

const HEAT: &str = "\
global n
proc init()
  n = 64
end
proc compute(k)
  print(n + k)
end
main
  call init()
  call compute(8)
end
";

const DISPATCH: &str = "\
proc scale(x, f)
  print(x * f)
end
proc twice(y)
  call scale(y, 2)
end
main
  call twice(10)
  call twice(11)
end
";

fn one_shot(argv: &[&str], source: &str) -> String {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let cli = parse_args(&argv).expect("golden argv parses");
    execute(&cli, source).expect("golden run succeeds")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ipcp_serve_{tag}_{}", std::process::id()))
}

/// The value of a `name{labels} value` metric line in Prometheus text.
fn metric(text: &str, line_start: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(line_start) && l.as_bytes().get(line_start.len()) == Some(&b' '))
        .and_then(|l| l[line_start.len()..].trim().parse().ok())
}

#[test]
fn sixteen_concurrent_clients_get_one_shot_identical_bytes() {
    let socket = temp_path("identity.sock");
    let golden_analyze = one_shot(&["analyze", "heat.mf"], HEAT);
    let golden_cond = one_shot(&["analyze", "heat.mf", "--level", "cond"], HEAT);
    let golden_explain = one_shot(&["explain", "heat.mf", "compute"], HEAT);
    let golden_dispatch = one_shot(&["analyze", "dispatch.mf"], DISPATCH);

    let handle = spawn(ServeConfig::new(&socket)).expect("daemon starts");
    std::thread::scope(|scope| {
        for client_idx in 0..16u64 {
            let (socket, ga, gc, ge, gd) = (
                &socket,
                &golden_analyze,
                &golden_cond,
                &golden_explain,
                &golden_dispatch,
            );
            scope.spawn(move || {
                let mut client = Client::connect(socket).expect("connects");
                let out = client
                    .call(client_idx, "analyze", &[("source", HEAT)])
                    .expect("transport")
                    .into_result()
                    .expect("analyze ok");
                assert_eq!(out, *ga, "client {client_idx}: analyze drifted");
                let out = client
                    .call(
                        client_idx,
                        "analyze",
                        &[("source", HEAT), ("level", "cond")],
                    )
                    .expect("transport")
                    .into_result()
                    .expect("cond ok");
                assert_eq!(out, *gc, "client {client_idx}: cond analyze drifted");
                let out = client
                    .call(
                        client_idx,
                        "explain",
                        &[("source", HEAT), ("proc", "compute")],
                    )
                    .expect("transport")
                    .into_result()
                    .expect("explain ok");
                assert_eq!(out, *ge, "client {client_idx}: explain drifted");
                let out = client
                    .call(client_idx, "analyze", &[("source", DISPATCH)])
                    .expect("transport")
                    .into_result()
                    .expect("dispatch ok");
                assert_eq!(out, *gd, "client {client_idx}: second tenant drifted");
            });
        }
    });
    let mut control = Client::connect(&socket).expect("connects");
    control
        .call(99, "shutdown", &[])
        .expect("transport")
        .into_result()
        .expect("shutdown ok");
    let summary = handle.join().expect("clean exit");
    assert_eq!(summary.requests, 16 * 4 + 1, "{summary:?}");
    assert_eq!(summary.overloaded, 0, "{summary:?}");
    assert_eq!(summary.tenants, 2, "{summary:?}");
    assert!(!socket.exists(), "socket file must be removed on shutdown");
}

/// The concurrent-tenant stress test: N threads interleave analyze,
/// explain, and why over two tenants sharing one disk cache. Warm
/// requests recompute nothing (the first-computation miss count does
/// not grow past warm-up) and the shared cache's stats add up exactly:
/// one miss + one write per distinct outcome, a hit for every `why`-
/// driven consult, and zero quarantines without injected faults.
#[test]
fn concurrent_tenants_share_the_disk_cache_without_recomputation() {
    let socket = temp_path("tenants.sock");
    let cache_dir = temp_path("tenants.cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let golden_heat = one_shot(&["analyze", "heat.mf"], HEAT);
    let golden_dispatch = one_shot(&["analyze", "dispatch.mf"], DISPATCH);
    let golden_explain = one_shot(&["explain", "heat.mf", "compute"], HEAT);

    let mut config = ServeConfig::new(&socket);
    config.cache_dir = Some(cache_dir.clone());
    let handle = spawn(config).expect("daemon starts");

    // Warm-up: one analyze per tenant populates the memo, the shared
    // session, and the disk entry (one miss + one write each).
    let mut warm = Client::connect(&socket).expect("connects");
    for source in [HEAT, DISPATCH] {
        warm.call(1, "analyze", &[("source", source)])
            .expect("transport")
            .into_result()
            .expect("warm-up ok");
    }
    let after_warmup = warm
        .call(2, "metrics", &[])
        .expect("transport")
        .into_result()
        .expect("metrics ok");
    let warm_first = metric(
        &after_warmup,
        "ipcp_serve_session_miss_reason_total{reason=\"first-computation\"}",
    )
    .expect("warm-up cold runs report first-computation misses");
    assert!(warm_first > 0, "{after_warmup}");

    const THREADS: u64 = 8;
    const ITERS: u64 = 3;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (socket, gh, gd, ge) = (&socket, &golden_heat, &golden_dispatch, &golden_explain);
            scope.spawn(move || {
                let mut client = Client::connect(socket).expect("connects");
                for i in 0..ITERS {
                    let id = t * 100 + i;
                    let out = client
                        .call(id, "analyze", &[("source", HEAT)])
                        .expect("transport")
                        .into_result()
                        .expect("analyze ok");
                    assert_eq!(out, *gh);
                    let out = client
                        .call(id, "analyze", &[("source", DISPATCH)])
                        .expect("transport")
                        .into_result()
                        .expect("analyze ok");
                    assert_eq!(out, *gd);
                    let out = client
                        .call(id, "explain", &[("source", HEAT), ("proc", "compute")])
                        .expect("transport")
                        .into_result()
                        .expect("explain ok");
                    assert_eq!(out, *ge);
                    for source in [HEAT, DISPATCH] {
                        let why = client
                            .call(id, "why", &[("source", source)])
                            .expect("transport")
                            .into_result()
                            .expect("why ok");
                        // A warm consult recomputes nothing; `why` says so.
                        assert!(why.contains("up to date"), "{why}");
                    }
                }
            });
        }
    });

    let metrics = warm
        .call(3, "metrics", &[])
        .expect("transport")
        .into_result()
        .expect("metrics ok");
    // Zero first-computation misses after warm-up: the counter froze.
    let stress_first = metric(
        &metrics,
        "ipcp_serve_session_miss_reason_total{reason=\"first-computation\"}",
    )
    .expect("counter still exposed");
    assert_eq!(
        stress_first, warm_first,
        "warm requests recomputed:\n{metrics}"
    );
    // Exactly-predicted shared-cache traffic: one miss + one write per
    // distinct outcome (2 tenants × 1 level), one hit per `why`-driven
    // consult, and nothing quarantined or double-counted.
    let disk = |op: &str| {
        metric(
            &metrics,
            &format!("ipcp_serve_diskcache_operations_total{{op=\"{op}\"}}"),
        )
        .unwrap_or_else(|| panic!("missing disk counter `{op}`:\n{metrics}"))
    };
    assert_eq!(disk("misses"), 2, "{metrics}");
    assert_eq!(disk("writes"), 2, "{metrics}");
    assert_eq!(disk("hits"), THREADS * ITERS * 2, "{metrics}");
    assert_eq!(disk("quarantined"), 0, "{metrics}");
    assert_eq!(disk("write_errors"), 0, "{metrics}");
    // The latency histograms cover every op that ran.
    for op in ["analyze", "explain", "why", "metrics"] {
        assert!(
            metrics.contains(&format!(
                "ipcp_serve_request_latency_microseconds{{op=\"{op}\",quantile=\"0.5\"}}"
            )),
            "no p50 for `{op}`:\n{metrics}"
        );
    }

    warm.call(4, "shutdown", &[])
        .expect("transport")
        .into_result()
        .expect("shutdown ok");
    let summary = handle.join().expect("clean exit");
    assert_eq!(summary.overloaded, 0, "{summary:?}");
    assert_eq!(summary.tenants, 2, "{summary:?}");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// `explain` is a view over the tenant's own session: concurrent
/// `analyze` and `explain` requests on one fresh tenant, at every
/// level and in both orders, each answer exactly like the one-shot CLI.
#[test]
fn concurrent_analyze_and_explain_on_one_tenant_match_one_shot() {
    let socket = temp_path("explain_race.sock");
    let levels = ["poly", "pass", "intra", "literal", "cond"];
    let goldens: Vec<(String, String)> = levels
        .iter()
        .map(|level| {
            (
                one_shot(&["analyze", "heat.mf", "--level", level], HEAT),
                one_shot(&["explain", "heat.mf", "compute", "--level", level], HEAT),
            )
        })
        .collect();

    let handle = spawn(ServeConfig::new(&socket)).expect("daemon starts");
    let threads = 2 * levels.len();
    // Every client connects, then all send their first request at once.
    let start = std::sync::Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (socket, start) = (&socket, &start);
            let (level, (ga, ge)) = (levels[t / 2], &goldens[t / 2]);
            scope.spawn(move || {
                let mut client = Client::connect(socket).expect("connects");
                start.wait();
                let mut ops = [
                    ("analyze", vec![("source", HEAT), ("level", level)], ga),
                    (
                        "explain",
                        vec![("source", HEAT), ("proc", "compute"), ("level", level)],
                        ge,
                    ),
                ];
                if t % 2 == 1 {
                    ops.reverse();
                }
                for (op, fields, golden) in &ops {
                    let out = client
                        .call(t as u64, op, fields)
                        .expect("transport")
                        .into_result()
                        .expect("op ok");
                    assert_eq!(out, **golden, "thread {t}: {op} at {level} drifted");
                }
            });
        }
    });
    let mut control = Client::connect(&socket).expect("connects");
    control
        .call(99, "shutdown", &[])
        .expect("transport")
        .into_result()
        .expect("shutdown ok");
    let summary = handle.join().expect("clean exit");
    assert_eq!(summary.tenants, 1, "{summary:?}");
}

/// `explain` commits no incrementality audit: `why` reads the same
/// before and after one, even when the explain runs under another
/// level (whose facets an audit would report as changed).
#[test]
fn explain_leaves_why_unchanged() {
    let socket = temp_path("explain_why.sock");
    let golden_explain = one_shot(
        &["explain", "heat.mf", "compute", "--level", "literal"],
        HEAT,
    );
    let handle = spawn(ServeConfig::new(&socket)).expect("daemon starts");
    let mut client = Client::connect(&socket).expect("connects");
    let mut call = |id: u64, op: &str, fields: &[(&str, &str)]| {
        client
            .call(id, op, fields)
            .expect("transport")
            .into_result()
            .unwrap_or_else(|e| panic!("{op} failed: {e}"))
    };
    call(1, "analyze", &[("source", HEAT)]);
    let before = call(2, "why", &[("source", HEAT)]);
    let explain = call(
        3,
        "explain",
        &[("source", HEAT), ("proc", "compute"), ("level", "literal")],
    );
    assert_eq!(explain, golden_explain);
    let after = call(4, "why", &[("source", HEAT)]);
    assert_eq!(before, after, "explain moved the audit");
    call(5, "shutdown", &[]);
    handle.join().expect("clean exit");
}

#[test]
fn tenant_byte_budget_evicts_lru_sessions_without_changing_output() {
    let socket = temp_path("evict.sock");
    let golden_heat = one_shot(&["analyze", "heat.mf"], HEAT);
    let golden_dispatch = one_shot(&["analyze", "dispatch.mf"], DISPATCH);
    let mut config = ServeConfig::new(&socket);
    // A 1-byte budget keeps only the tenant just touched resident: every
    // alternation evicts the other session and recomputes from scratch.
    config.max_tenant_bytes = Some(1);
    let handle = spawn(config).expect("daemon starts");
    let mut client = Client::connect(&socket).expect("connects");
    for round in 0..3u64 {
        let out = client
            .call(round, "analyze", &[("source", HEAT)])
            .expect("transport")
            .into_result()
            .expect("analyze ok");
        assert_eq!(out, golden_heat, "round {round}");
        let out = client
            .call(round, "analyze", &[("source", DISPATCH)])
            .expect("transport")
            .into_result()
            .expect("analyze ok");
        assert_eq!(out, golden_dispatch, "round {round}");
    }
    client
        .call(9, "shutdown", &[])
        .expect("transport")
        .into_result()
        .expect("shutdown ok");
    let summary = handle.join().expect("clean exit");
    // Six admissions alternating two tenants: every one after the first
    // evicts its predecessor.
    assert_eq!(summary.evictions, 5, "{summary:?}");
    assert_eq!(summary.tenants, 1, "{summary:?}");
}

#[test]
fn admission_control_sheds_analysis_load_but_answers_control_ops() {
    let socket = temp_path("admission.sock");
    let mut config = ServeConfig::new(&socket);
    // Drain mode: no analysis capacity at all.
    config.max_inflight = 0;
    let handle = spawn(config).expect("daemon starts");
    let mut client = Client::connect(&socket).expect("connects");
    for op in ["analyze", "why"] {
        let err = client
            .call(1, op, &[("source", HEAT)])
            .expect("transport")
            .into_result()
            .expect_err("must be rejected");
        assert_eq!(err, OVERLOADED);
    }
    // The control plane stays responsive while saturated.
    let metrics = client
        .call(2, "metrics", &[])
        .expect("transport")
        .into_result()
        .expect("metrics ok");
    assert_eq!(metric(&metrics, "ipcp_serve_overloaded_total"), Some(2));
    client
        .call(3, "shutdown", &[])
        .expect("transport")
        .into_result()
        .expect("shutdown ok");
    let summary = handle.join().expect("clean exit");
    assert_eq!(summary.overloaded, 2, "{summary:?}");
    assert_eq!(summary.tenants, 0, "{summary:?}");
}

/// A shutdown racing a slow analyze must drain: the in-flight request
/// completes and its response reaches the client intact.
#[test]
fn shutdown_drains_an_inflight_analyze() {
    let socket = temp_path("drain.sock");
    let program = ipcp::suite::generate_scale(&ipcp::suite::ScaleSpec::with_procs(400, 7)).source;
    let golden = one_shot(&["analyze", "big.mf"], &program);
    let handle = spawn(ServeConfig::new(&socket)).expect("daemon starts");

    let mut slow = Client::connect(&socket).expect("connects");
    let mut control = Client::connect(&socket).expect("connects");
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            slow.call(1, "analyze", &[("source", &program)])
                .expect("transport survives the shutdown")
                .into_result()
                .expect("analyze ok")
        });
        // Let the analyze land server-side, then pull the plug.
        std::thread::sleep(std::time::Duration::from_millis(50));
        control
            .call(2, "shutdown", &[])
            .expect("transport")
            .into_result()
            .expect("shutdown ok");
        let out = worker.join().expect("worker thread");
        assert_eq!(out, golden, "drained response drifted from one-shot output");
    });
    let summary = handle.join().expect("clean exit");
    assert_eq!(summary.requests, 2, "{summary:?}");
}

#[test]
fn protocol_errors_answer_without_killing_the_connection() {
    let socket = temp_path("errors.sock");
    let handle = spawn(ServeConfig::new(&socket)).expect("daemon starts");
    let mut client = Client::connect(&socket).expect("connects");

    let err = client
        .call_raw("this is not json")
        .expect("transport")
        .to_string();
    assert!(err.contains("bad request"), "{err}");
    let err = client
        .call(1, "transmogrify", &[("source", HEAT)])
        .expect("transport")
        .into_result()
        .expect_err("unknown op");
    assert!(err.contains("unknown op"), "{err}");
    let err = client
        .call(2, "analyze", &[("source", HEAT), ("level", "warp")])
        .expect("transport")
        .into_result()
        .expect_err("unknown level");
    assert!(err.contains("unknown level"), "{err}");
    let err = client
        .call(3, "analyze", &[("source", "proc oops(\nend\n")])
        .expect("transport")
        .into_result()
        .expect_err("diagnostics");
    assert!(!err.is_empty());
    // The connection survives every error above.
    let out = client
        .call(4, "analyze", &[("source", HEAT)])
        .expect("transport")
        .into_result()
        .expect("analyze ok");
    assert_eq!(out, one_shot(&["analyze", "heat.mf"], HEAT));
    client
        .call(5, "shutdown", &[])
        .expect("transport")
        .into_result()
        .expect("shutdown ok");
    handle.join().expect("clean exit");
}
