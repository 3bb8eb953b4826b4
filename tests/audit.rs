//! Acceptance scenario for the incrementality audit: on a ~1000-procedure
//! generated corpus, editing one procedure's body and re-analyzing against
//! the persistent cache must attribute every recomputed phase to exactly
//! that procedure's closure — zero `first computation` misses anywhere —
//! and a second run must report everything up to date.

use ipcp::cli::{execute, parse_args};
use ipcp::suite::gen::{generate_scale, ScaleSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ipcp-audit-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn argv(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Replaces the single body line of `proc {name}()` with `replacement`.
fn edit_proc_body(source: &str, name: &str, replacement: &str) -> String {
    let marker = format!("proc {name}()\n");
    let at = source.find(&marker).expect("proc present in corpus") + marker.len();
    let line_end = at + source[at..].find('\n').expect("body line terminated") + 1;
    format!("{}{replacement}\n{}", &source[..at], &source[line_end..])
}

/// The recomputed-unit names listed under one `phase {name}:` section,
/// sorted.
fn phase_entries(report: &str, phase: &str) -> Vec<String> {
    let header = format!("phase {phase}:");
    let mut out = Vec::new();
    let mut inside = false;
    for line in report.lines() {
        if line.starts_with("phase ") {
            inside = line.starts_with(&header);
            continue;
        }
        if inside && line.starts_with("  ") {
            if let Some((name, _)) = line.trim_start().split_once(':') {
                out.push(name.to_string());
            }
        }
    }
    out.sort();
    out
}

/// The `why` command under `flags` over the cache at `dir`.
fn why_cli(dir: &str, flags: &[&str]) -> ipcp::cli::Cli {
    let mut args = argv(&["why", "scale.mf", "--cache-dir", dir]);
    args.extend(argv(flags));
    parse_args(&args).unwrap()
}

/// Populates a fresh cache at `dir` from the 1000-procedure corpus under
/// `flags`, edits exactly one leaf procedure's body — its closure is
/// itself plus its only caller, `main` — and returns the edited source
/// with `ipcp why`'s report of the edit.
fn why_after_one_edit(dir: &str, flags: &[&str]) -> (String, String) {
    let base = generate_scale(&ScaleSpec::with_procs(1000, 7)).source;

    // Cold run populates the cache and writes the audit ledger.
    let mut args = argv(&["analyze", "scale.mf", "--cache-dir", dir]);
    args.extend(argv(flags));
    execute(&parse_args(&args).unwrap(), &base).unwrap();

    let edited = edit_proc_body(&base, "rdr0", "  print(424242)");
    assert_ne!(base, edited);
    let out = execute(&why_cli(dir, flags), &edited).unwrap();

    assert!(out.contains("changed procedures: rdr0\n"), "{out}");
    assert!(
        !out.contains("first computation"),
        "an incremental edit must produce zero first-computation misses:\n{out}"
    );
    assert!(out.contains("input changed (procs: rdr0)"), "{out}");
    (edited, out)
}

#[test]
fn one_proc_edit_attributes_exactly_its_closure() {
    let dir = temp_dir("edit");
    let dir_str = dir.to_string_lossy().into_owned();
    let (edited, out) = why_after_one_edit(&dir_str, &[]);

    // Every proc-scoped phase that ran recomputes exactly the edited
    // closure.
    for phase in ["ssa", "retjf", "symvals", "forward-jf"] {
        assert_eq!(
            phase_entries(&out, phase),
            ["main", "rdr0"],
            "phase {phase} must recompute exactly the edited closure:\n{out}"
        );
    }
    // DCE runs only under complete propagation, so it recomputes nothing.
    assert!(
        out.contains("\nphase dce: 1000/1000 up to date, 0 recomputed\n"),
        "{out}"
    );
    // Program-scoped phases attribute their single unit to the edit too.
    for phase in ["callgraph", "modref", "solve", "subst"] {
        assert_eq!(
            phase_entries(&out, phase),
            [phase],
            "program-scoped phase {phase} must recompute once:\n{out}"
        );
    }

    // `why` advanced the ledger and repopulated the cache, so a second
    // run over the same source is served entirely from disk.
    let again = execute(&why_cli(&dir_str, &[]), &edited).unwrap();
    assert!(!again.contains("changed procedures"), "{again}");
    assert!(!again.contains("input changed"), "{again}");
    assert!(!again.contains("first computation"), "{again}");
    assert!(again.contains("0 recomputed"), "{again}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn complete_propagation_lists_the_dce_steps_that_ran() {
    let dir = temp_dir("edit-complete");
    let dir_str = dir.to_string_lossy().into_owned();
    let (_, out) = why_after_one_edit(&dir_str, &["--complete"]);
    // The phases the summary pack carries recompute exactly the edited
    // closure. DCE steps are not in the pack, so a fresh process runs
    // DCE over every procedure, and the audit lists what ran.
    for phase in ["retjf", "symvals", "forward-jf"] {
        assert_eq!(
            phase_entries(&out, phase),
            ["main", "rdr0"],
            "phase {phase} must recompute exactly the edited closure:\n{out}"
        );
    }
    assert!(
        out.contains("\nphase dce: 0/1000 up to date, 1000 recomputed\n"),
        "{out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn why_first_run_and_filters() {
    let dir = temp_dir("filters");
    let dir_str = dir.to_string_lossy().into_owned();
    let base = generate_scale(&ScaleSpec::with_procs(40, 11)).source;

    // A first run under a fresh label is all first-computation.
    let why = parse_args(&argv(&["why", "small.mf", "--cache-dir", &dir_str])).unwrap();
    let cold = execute(&why, &base).unwrap();
    assert!(cold.contains("first analysis under this label"), "{cold}");
    assert!(cold.contains("first computation"), "{cold}");

    let edited = edit_proc_body(&base, "rdr1", "  print(7)");

    // A phase filter narrows the report to that phase's full list.
    let ssa_only = parse_args(&argv(&["why", "small.mf", "ssa", "--cache-dir", &dir_str])).unwrap();
    let out = execute(&ssa_only, &edited).unwrap();
    assert!(out.contains("phase ssa:"), "{out}");
    for phase in ["callgraph", "modref", "solve", "subst", "diskcache"] {
        assert!(
            !out.contains(&format!("phase {phase}:")),
            "phase filter must hide {phase}:\n{out}"
        );
    }
    assert_eq!(phase_entries(&out, "ssa"), ["main", "rdr1"], "{out}");

    // A proc filter keeps only phases that recomputed that unit; after
    // the run above the ledger is current, so nothing is recomputed.
    let proc_only =
        parse_args(&argv(&["why", "small.mf", "rdr1", "--cache-dir", &dir_str])).unwrap();
    let out = execute(&proc_only, &edited).unwrap();
    assert!(out.contains("nothing recomputed for `rdr1`"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// One fresh-process `analyze --cache-dir` run of `source` under the
/// label `scale.mf`, at two jobs (so the pack is read on a worker): the
/// audit it left, the session's own phase counters, and whether the
/// outcome's bytes equal a sequential cache-less run's.
fn cli_run(
    dir: &std::path::Path,
    source: &str,
) -> (
    std::sync::Arc<ipcp::core::IncrementalAudit>,
    ipcp::core::SessionStats,
    bool,
) {
    use ipcp::core::{AnalysisConfig, AnalysisSession, DiskCache};
    use ipcp::ir::codec::encode_to_vec;
    let config = |jobs| AnalysisConfig {
        jobs,
        ..AnalysisConfig::default()
    };
    let mut session = AnalysisSession::from_source(source).expect("corpus compiles");
    session.attach_disk_cache(std::sync::Arc::new(DiskCache::open(dir).expect("cache")));
    session.set_audit_label("scale.mf");
    let outcome = encode_to_vec(&session.analyze(&config(2)));
    let plain = encode_to_vec(&ipcp::analyze_source(source, &config(1)).expect("analyzes"));
    (
        session.last_audit().expect("audited"),
        session.stats(),
        outcome == plain,
    )
}

/// Every phase the run executed lists exactly as many recomputed units
/// as the session counted misses — per procedure, or one unit for a
/// program-scoped phase — and each carries `expect(name)` as its reason
/// label. DCE does not run under the default configuration, so its line
/// stays the would-recompute view and is not compared.
fn assert_audit_is_what_ran(
    audit: &ipcp::core::IncrementalAudit,
    stats: &ipcp::core::SessionStats,
    expect: impl Fn(&str) -> &'static str,
) {
    use ipcp::core::audit::PROGRAM_SCOPED;
    use ipcp::core::SessionPhase;
    for phase in &audit.phases {
        if matches!(phase.phase, SessionPhase::Dce | SessionPhase::DiskCache) {
            continue;
        }
        let misses = stats.counter(phase.phase).misses;
        let ran = if PROGRAM_SCOPED.contains(&phase.phase) {
            misses.min(1)
        } else {
            misses
        };
        assert_eq!(
            phase.recomputed.len() as u64,
            ran,
            "phase {}: the audit lists {:?}, the session missed {misses}",
            phase.phase,
            phase.recomputed
        );
        for (name, reason) in &phase.recomputed {
            assert_eq!(
                reason.label(),
                expect(name),
                "phase {} unit {name}",
                phase.phase
            );
        }
    }
}

#[test]
fn why_reports_what_ran_with_the_summary_pack_loaded_evicted_or_corrupt() {
    use ipcp::core::{pack_key, AnalysisConfig, SessionPhase};
    let dir = temp_dir("ran");
    let base = generate_scale(&ScaleSpec::with_procs(300, 7)).source;
    let pack = dir.join(format!(
        "{:016x}.pack",
        pack_key("scale.mf", &AnalysisConfig::default())
    ));
    cli_run(&dir, &base);
    assert!(pack.exists(), "a cold run writes the label's summary pack");
    let edited_reason = |name: &str| match name {
        "rdr0" | "main" | "callgraph" | "modref" | "solve" | "subst" => "input-changed",
        other => panic!("{other} recomputed although its closure held"),
    };

    // The pack loaded: only the edited closure ran, and the outcome —
    // replayed fuel and all — is the cache-less one.
    let edit = edit_proc_body(&base, "rdr0", "  print(1)");
    let (audit, stats, same) = cli_run(&dir, &edit);
    assert_audit_is_what_ran(&audit, &stats, edited_reason);
    assert_eq!(stats.counter(SessionPhase::Ssa).misses, 2);
    assert!(same, "a cold run with the pack must answer byte for byte");

    // The pack evicted: everything ran, the unedited procedures because
    // their summaries were gone.
    std::fs::remove_file(&pack).expect("the pack was rewritten");
    let edit = edit_proc_body(&base, "rdr0", "  print(2)");
    let (audit, stats, same) = cli_run(&dir, &edit);
    assert!(same);
    assert_audit_is_what_ran(&audit, &stats, |name| match name {
        "rdr0" | "main" | "callgraph" | "modref" | "solve" | "subst" => "input-changed",
        _ => "evicted",
    });
    assert_eq!(stats.counter(SessionPhase::Ssa).misses, 300);

    // The pack corrupt: quarantined, and everything ran again.
    let mut bytes = std::fs::read(&pack).expect("the pack was rewritten");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20;
    std::fs::write(&pack, &bytes).unwrap();
    let edit = edit_proc_body(&base, "rdr0", "  print(3)");
    let (audit, stats, same) = cli_run(&dir, &edit);
    assert!(same);
    assert_audit_is_what_ran(&audit, &stats, |name| match name {
        "rdr0" | "main" | "callgraph" | "modref" | "solve" | "subst" => "input-changed",
        _ => "quarantined",
    });
    assert_eq!(stats.counter(SessionPhase::Ssa).misses, 300);
    let rendered = audit.render(Some("retjf"));
    assert!(
        rendered.contains("quarantined (checksum mismatch)"),
        "{rendered}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
