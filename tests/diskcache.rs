//! Persistent disk-cache properties.
//!
//! Two invariants anchor the crash-safe cache:
//!
//! 1. **Warm-start byte identity** — an analysis served from a reopened
//!    on-disk cache is bit-identical (over the wire encoding of the full
//!    [`ipcp::core::AnalysisOutcome`]) to both the cold run that
//!    populated it and a cache-less run, at any worker count, and the
//!    Table-2 configuration sweep survives a reopen unchanged.
//! 2. **Faults degrade to cold** — under every [`IoFaultKind`], at every
//!    eligible trigger point, the analysis neither panics nor changes
//!    its answer; corrupt entries are quarantined with the damage
//!    visible in the cache's stats and robustness ledger, and the cache
//!    self-heals on the recovery pass.

use ipcp::core::audit::{ledger_path, load_ledger};
use ipcp::core::diskcache::validate_entry;
use ipcp::core::{
    outcome_key, AnalysisConfig, AnalysisSession, DiskCache, FaultyIo, IoFaultInjector,
    IoFaultKind, MissReason, SessionPhase,
};
use ipcp::ir::codec::{decode_from_slice, encode_to_vec};
use ipcp::ir::fingerprint::Fnv1a;
use ipcp::suite::gen::{generate_scale, ScaleSpec};
use ipcp::JumpFunctionKind;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-unique, sequence-numbered scratch directory (tests in one
/// binary run concurrently; a shared dir would cross-contaminate).
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ipcp-cache-prop-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> Arc<DiskCache> {
    Arc::new(DiskCache::open(dir).expect("open cache"))
}

fn cached_session(ir: &ipcp::ir::Program, cache: &Arc<DiskCache>) -> AnalysisSession {
    let mut session = AnalysisSession::new(ir);
    session.attach_disk_cache(Arc::clone(cache));
    session
}

/// The Table-2 axes: every jump-function kind, with and without return
/// jump functions. Eight distinct cache keys per program.
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
    configs
}

// ---- random program generation -------------------------------------------

/// Small random programs with enough interprocedural structure (a leaf
/// procedure, a function, globals, an optional conflicting second call)
/// that outcomes genuinely vary across draws and configurations.
fn small_program() -> impl Strategy<Value = String> {
    (
        -9i64..10,       // global initializer
        -20i64..21,      // leaf offset
        -5i64..6,        // function multiplier
        -20i64..21,      // call argument
        -20i64..21,      // function argument
        prop::bool::ANY, // second call with a different argument?
        prop::bool::ANY, // reassign the global in main?
    )
        .prop_map(|(g, k, m, a, b, clash, setg)| {
            let second = if clash {
                format!("  call leaf({})\n", a + 1)
            } else {
                String::new()
            };
            let set_global = if setg {
                format!("  ga = {}\n", g + 2)
            } else {
                String::new()
            };
            format!(
                "global ga = {g}\n\
                 proc leaf(v)\n  print(v + {k})\n  print(ga)\nend\n\
                 func f0(x)\n  return x * {m}\nend\n\
                 main\n{set_global}  va = f0({b})\n  call leaf({a})\n{second}  print(va)\nend\n"
            )
        })
}

// ---- warm-start byte identity --------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Cold populate, reopen, warm re-analyze: the outcome's wire bytes
    /// never move, with or without fuel, at 1 and 4 workers — and the
    /// cache traffic is exactly what the metering policy predicts
    /// (metered runs bypass the disk entirely).
    #[test]
    fn warm_start_is_byte_identical_to_cold(
        src in small_program(),
        jobs in proptest::sample::select(vec![1usize, 4]),
        fuel in proptest::sample::select(vec![None, Some(300u64)]),
    ) {
        let ir = ipcp::ir::compile_to_ir(&src).expect("generated programs compile");
        let config = AnalysisConfig { jobs, fuel, ..AnalysisConfig::default() };
        let plain_bytes = encode_to_vec(&AnalysisSession::new(&ir).analyze(&config));
        let prov_before = ipcp::core::analyze_provenance(&ir, &AnalysisConfig::default())
            .attribution_table();

        let dir = temp_dir("warm");
        let cold_cache = open(&dir);
        let cold = cached_session(&ir, &cold_cache).analyze(&config);
        prop_assert_eq!(encode_to_vec(&cold), plain_bytes.clone(), "cold vs plain");

        // Fresh session, fresh cache handle, same directory.
        let warm_cache = open(&dir);
        let warm = cached_session(&ir, &warm_cache).analyze(&config);
        prop_assert_eq!(encode_to_vec(&warm), plain_bytes, "warm vs plain");

        let (cold_stats, warm_stats) = (cold_cache.stats(), warm_cache.stats());
        if fuel.is_none() {
            prop_assert_eq!(cold_stats.misses, 1);
            prop_assert_eq!(cold_stats.writes, 1);
            prop_assert_eq!(warm_stats.hits, 1);
            prop_assert_eq!(warm_stats.misses, 0);
        } else {
            // Metered runs are store-less and must leave no disk
            // traffic at all.
            prop_assert_eq!(cold_stats.writes + cold_stats.misses, 0);
            prop_assert_eq!(warm_stats.hits + warm_stats.misses, 0);
        }

        // Attaching a disk cache never perturbs independent analyses
        // over the same IR.
        let prov_after = ipcp::core::analyze_provenance(&ir, &AnalysisConfig::default())
            .attribution_table();
        prop_assert_eq!(prov_after, prov_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The full 8-configuration Table-2 sweep produces identical
    /// substitution counts cold, warm across a reopen, and cache-less —
    /// and the warm pass is pure hit traffic.
    #[test]
    fn table2_sweep_counts_survive_reopen(src in small_program()) {
        let ir = ipcp::ir::compile_to_ir(&src).expect("generated programs compile");
        let configs = sweep_configs();
        let plain_session = AnalysisSession::new(&ir);
        let want: Vec<usize> = configs
            .iter()
            .map(|c| plain_session.analyze(c).substitutions.total)
            .collect();

        let dir = temp_dir("sweep");
        let cold_cache = open(&dir);
        let cold_session = cached_session(&ir, &cold_cache);
        let cold: Vec<usize> = configs
            .iter()
            .map(|c| cold_session.analyze(c).substitutions.total)
            .collect();
        prop_assert_eq!(&cold, &want, "cold sweep vs plain");

        let warm_cache = open(&dir);
        let warm_session = cached_session(&ir, &warm_cache);
        let warm: Vec<usize> = configs
            .iter()
            .map(|c| warm_session.analyze(c).substitutions.total)
            .collect();
        prop_assert_eq!(&warm, &want, "warm sweep vs plain");
        prop_assert_eq!(warm_cache.stats().hits, configs.len() as u64);
        prop_assert_eq!(warm_cache.stats().misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- deterministic fault-injection campaign ------------------------------

/// Every fault kind × every eligible trigger position × four programs ×
/// a four-configuration sweep, cold under the fault and warm through the
/// real filesystem: 768 fault-exposed analyses (the issue's 500-run
/// floor), zero panics, zero wrong results, and the damage always lands
/// in the stats/robustness ledger of the cache that absorbed it.
#[test]
fn fault_campaign_every_kind_degrades_to_cold() {
    let programs = [
        "global ga = 3\nproc leaf(v)\n  print(v + ga)\nend\nmain\n  call leaf(4)\nend\n",
        "func sq(x)\n  return x * x\nend\nmain\n  va = sq(7)\n  print(va)\nend\n",
        "global n\nproc init()\n  n = 64\nend\nproc use(k)\n  print(n + k)\nend\n\
         main\n  call init()\n  call use(8)\nend\n",
        "proc a(v)\n  call b(v + 1)\nend\nproc b(v)\n  print(v * 2)\nend\n\
         main\n  call a(5)\n  call a(5)\nend\n",
    ];
    // Four distinct cache keys per pass: four eligible writes and four
    // eligible renames, so triggers 1..=4 always find their op.
    let configs: Vec<AnalysisConfig> = JumpFunctionKind::ALL
        .into_iter()
        .map(|kind| AnalysisConfig {
            jump_function: kind,
            ..AnalysisConfig::default()
        })
        .collect();

    let mut iterations = 0u64;
    for (pi, src) in programs.iter().enumerate() {
        let ir = ipcp::ir::compile_to_ir(src).expect("campaign programs compile");
        let plain = AnalysisSession::new(&ir);
        let golden: Vec<Vec<u8>> = configs
            .iter()
            .map(|c| encode_to_vec(&plain.analyze(c)))
            .collect();

        for kind in IoFaultKind::ALL {
            for trigger in 1..=4u64 {
                let dir = temp_dir(&format!("campaign-{pi}"));

                // Cold pass with the fault armed.
                let injector = Arc::new(IoFaultInjector::new(kind, trigger));
                let faulty = Box::new(FaultyIo::new(Arc::clone(&injector)));
                let cold_cache =
                    Arc::new(DiskCache::with_io(&dir, faulty).expect("open faulty cache"));
                let cold_session = cached_session(&ir, &cold_cache);
                for (c, want) in configs.iter().zip(&golden) {
                    iterations += 1;
                    let got = encode_to_vec(&cold_session.analyze(c));
                    assert_eq!(&got, want, "cold wrong under {kind} @{trigger} (prog {pi})");
                }
                assert_eq!(
                    injector.injected(),
                    1,
                    "{kind} @{trigger} never fired (prog {pi})"
                );
                let cold_stats = cold_cache.stats();
                match kind {
                    // Errors surface at store time, in the cold ledger.
                    IoFaultKind::Enospc | IoFaultKind::Eacces | IoFaultKind::RenameFail => {
                        assert_eq!(cold_stats.write_errors, 1, "{kind} @{trigger}");
                        assert!(
                            !cold_cache.robustness().anomalies.is_empty(),
                            "{kind} @{trigger}: store failure left no anomaly"
                        );
                    }
                    // Silent corruption publishes a bad entry; it is only
                    // discoverable on the next read.
                    IoFaultKind::TornWrite | IoFaultKind::Truncate | IoFaultKind::BitFlip => {
                        assert_eq!(cold_stats.write_errors, 0, "{kind} @{trigger}");
                    }
                }

                // Warm pass through the real filesystem: whatever the
                // fault left behind, the answers match cold exactly.
                let warm_cache = open(&dir);
                let warm_session = cached_session(&ir, &warm_cache);
                for (c, want) in configs.iter().zip(&golden) {
                    iterations += 1;
                    let got = encode_to_vec(&warm_session.analyze(c));
                    assert_eq!(&got, want, "warm wrong under {kind} @{trigger} (prog {pi})");
                }
                let warm_stats = warm_cache.stats();
                assert_eq!(
                    warm_stats.hits + warm_stats.misses,
                    configs.len() as u64,
                    "{kind} @{trigger}"
                );
                match kind {
                    // The corrupt entry is quarantined, recorded, and
                    // recomputed; the other three entries hit.
                    IoFaultKind::TornWrite | IoFaultKind::Truncate | IoFaultKind::BitFlip => {
                        assert_eq!(warm_stats.quarantined, 1, "{kind} @{trigger}");
                        assert_eq!(warm_stats.misses, 1, "{kind} @{trigger}");
                        assert!(
                            !warm_cache.robustness().anomalies.is_empty(),
                            "{kind} @{trigger}: quarantine left no anomaly"
                        );
                    }
                    // The failed store simply never published: one plain
                    // miss, nothing to quarantine.
                    IoFaultKind::Enospc | IoFaultKind::Eacces | IoFaultKind::RenameFail => {
                        assert_eq!(warm_stats.quarantined, 0, "{kind} @{trigger}");
                        assert_eq!(warm_stats.misses, 1, "{kind} @{trigger}");
                    }
                }

                // The warm pass self-healed the cache: every entry now
                // validates and nothing is left to quarantine.
                let verify = open(&dir).verify();
                assert_eq!(verify.valid, configs.len() as u64, "{kind} @{trigger}");
                assert_eq!(verify.quarantined, 0, "{kind} @{trigger}");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    assert!(
        iterations >= 500,
        "campaign ran only {iterations} fault-exposed analyses"
    );
}

// ---- format-version skew ---------------------------------------------------

/// Rewrites a framed file (cache entry, ledger, or a pack's first
/// segment) as a writer of format `version` stamped it: the version
/// field, and the toolchain fingerprint derived from it. Payload and
/// checksum stay intact, so only the version tells the file apart.
fn stamp_version(path: &Path, version: u32) {
    let mut bytes = std::fs::read(path).expect("framed file exists");
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    let mut toolchain = Fnv1a::new();
    toolchain.write_u64(u64::from(version));
    toolchain.write_bytes(env!("CARGO_PKG_VERSION").as_bytes());
    bytes[12..20].copy_from_slice(&toolchain.finish().to_le_bytes());
    std::fs::write(path, bytes).expect("rewrite framed file");
}

/// An entry and a ledger written before fingerprints hashed the wire
/// encoding (format version 2) are never misread: the entry misses as
/// `format-version-mismatch` and is quarantined, the ledger reads as
/// absent (a first run), the answer is the cold one byte for byte, and
/// the cache heals to the current version.
#[test]
fn version_2_entry_and_ledger_are_a_format_version_mismatch() {
    let src = "global n = 4\nproc f(a)\nprint(a + n)\nend\nmain\ncall f(3)\nend\n";
    let ir = ipcp::ir::compile_to_ir(src).expect("compiles");
    let config = AnalysisConfig::default();
    let cold = encode_to_vec(&AnalysisSession::new(&ir).analyze(&config));
    let dir = temp_dir("v2");
    let label = "v2.mf";
    let labelled = |cache: &Arc<DiskCache>| {
        let mut session = cached_session(&ir, cache);
        session.set_audit_label(label);
        session
    };

    let first = labelled(&open(&dir));
    first.analyze(&config);
    let key = outcome_key(first.base_fingerprint(), &config);
    let entry = dir.join(format!("{key:016x}.art"));
    let ledger = ledger_path(&dir, label);
    stamp_version(&entry, 2);
    stamp_version(&ledger, 2);
    let bytes = std::fs::read(&entry).unwrap();
    assert_eq!(validate_entry(key, &bytes), Err("format version mismatch"));
    assert!(
        load_ledger(&dir, label).is_none(),
        "a version-2 ledger must not load"
    );

    let cache = open(&dir);
    let session = labelled(&cache);
    assert_eq!(encode_to_vec(&session.analyze(&config)), cold);
    let audit = session.last_audit().expect("unmetered runs audit");
    assert!(
        audit.first_run,
        "the version-2 ledger read as a previous run"
    );
    let disk = audit
        .phases
        .iter()
        .find(|p| p.phase == SessionPhase::DiskCache)
        .expect("disk phase audited");
    assert_eq!(
        disk.recomputed,
        vec![("diskcache".to_string(), MissReason::FormatVersionMismatch)]
    );
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.quarantined), (0, 1, 1));

    // Healed: the rewritten entry and ledger are current again.
    assert!(load_ledger(&dir, label).is_some());
    let warm_cache = open(&dir);
    assert_eq!(encode_to_vec(&labelled(&warm_cache).analyze(&config)), cold);
    assert_eq!(warm_cache.stats().hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- hostile summary-pack bytes -------------------------------------------

/// A labelled program's summary pack is bytes from outside like any
/// other entry. Truncated at every offset, flipped at every byte, or
/// stamped by another format version or toolchain, it must end in a
/// classified miss — quarantined, with the audit naming why — and the
/// edited program's cold answer, byte for byte. Re-framed under a valid
/// checksum (a writer that lies), truncations still fail to decode and
/// are quarantined, and flips never panic.
#[test]
fn hostile_pack_bytes_degrade_to_a_quarantined_miss() {
    use ipcp::core::diskcache::{encode_pack, pack_segments, HEADER_LEN};
    use ipcp::core::pack_key;
    let src = "global n = 4\nproc f(a)\n  print(a + n)\nend\n\
               func g(x)\n  return x * 3\nend\n\
               main\n  call f(3)\n  v = g(n)\n  print(v)\nend\n";
    let edited_src = src.replace("print(v)", "print(v + 1)");
    let edited = ipcp::ir::compile_to_ir(&edited_src).expect("compiles");
    let config = AnalysisConfig::default();
    let golden = encode_to_vec(&AnalysisSession::new(&edited).analyze(&config));
    let dir = temp_dir("hostile-pack");
    let label = "hostile.mf";
    let run = |ir: &ipcp::ir::Program| {
        let cache = open(&dir);
        let mut session = cached_session(ir, &cache);
        session.set_audit_label(label);
        let outcome = encode_to_vec(&session.analyze(&config));
        (outcome, cache, session.last_audit().expect("audited"))
    };
    run(&ipcp::ir::compile_to_ir(src).expect("compiles"));
    let key = pack_key(label, &config);
    let pack = dir.join(format!("{key:016x}.pack"));
    let image = std::fs::read(&pack).expect("a labelled cold run writes its pack");
    let segments = pack_segments(key, &image).expect("valid pack");
    assert_eq!(segments.len(), 1, "a fresh pack is one segment");
    let payload = segments[0].to_vec();
    let edited_outcome = dir.join(format!(
        "{:016x}.art",
        outcome_key(AnalysisSession::new(&edited).base_fingerprint(), &config)
    ));
    let pack_reason = |audit: &ipcp::core::IncrementalAudit| {
        let retjf = audit
            .phases
            .iter()
            .find(|p| p.phase == SessionPhase::ReturnJf)
            .expect("retjf audited");
        let (_, reason) = retjf
            .recomputed
            .iter()
            .find(|(name, _)| name == "f")
            .expect("the unedited f ran without its summaries");
        reason.clone()
    };

    // Each case plants `bytes` as the pack and analyzes the edited
    // program, whose outcome entry is absent.
    let check = |bytes: &[u8], what: &str, quarantined: bool| -> MissReason {
        let _ = std::fs::remove_file(&edited_outcome);
        std::fs::write(&pack, bytes).unwrap();
        let (outcome, cache, audit) = run(&edited);
        assert_eq!(outcome, golden, "{what}: wrong answer");
        let stats = cache.stats();
        if quarantined {
            // One pack consult, a quarantined miss, whether the framing
            // or the decoding refused it.
            assert_eq!(stats.pack_misses, 1, "{what}");
            assert_eq!(stats.pack_loads, 0, "{what}");
            assert_eq!(stats.quarantined, 1, "{what}");
            assert_eq!(cache.quarantine_count(), 1, "{what}");
            let _ = std::fs::remove_dir_all(dir.join("quarantine"));
            pack_reason(&audit)
        } else {
            MissReason::FirstComputation
        }
    };

    for cut in 0..image.len() {
        let reason = check(&image[..cut], &format!("truncated at {cut}"), true);
        assert!(
            matches!(reason, MissReason::Quarantined { .. }),
            "truncated at {cut}: {reason:?}"
        );
    }
    for at in 0..image.len() {
        let mut bytes = image.clone();
        bytes[at] ^= 0x5a;
        let reason = check(&bytes, &format!("byte {at} flipped"), true);
        let want_skew = (8..20).contains(&at);
        assert_eq!(
            reason == MissReason::FormatVersionMismatch,
            want_skew,
            "byte {at} flipped: {reason:?}"
        );
    }
    // Top-bit flips in two payload words, or in one word and the stored
    // checksum (header byte 43), must not cancel out.
    for offsets in [[HEADER_LEN + 7, HEADER_LEN + 15], [HEADER_LEN + 7, 43]] {
        let mut bytes = image.clone();
        for at in offsets {
            bytes[at] ^= 0x80;
        }
        assert_eq!(
            check(&bytes, &format!("bit 7 flipped at {offsets:?}"), true),
            MissReason::Quarantined {
                reason: "checksum mismatch".to_string()
            },
            "bit 7 flipped at {offsets:?}"
        );
    }
    let mut stamped = image.clone();
    let stamped_path = dir.join("stamped.bin");
    std::fs::write(&stamped_path, &stamped).unwrap();
    stamp_version(&stamped_path, 2);
    stamped = std::fs::read(&stamped_path).unwrap();
    std::fs::remove_file(&stamped_path).unwrap();
    assert_eq!(
        check(&stamped, "version 2", true),
        MissReason::FormatVersionMismatch
    );

    // A lying writer: the damage sits under a valid checksum.
    for cut in 0..payload.len() {
        let reason = check(
            &encode_pack(key, &[&payload[..cut]]),
            &format!("re-framed cut at {cut}"),
            true,
        );
        assert_eq!(
            reason,
            MissReason::Quarantined {
                reason: "payload decode failed".to_string()
            },
            "re-framed cut at {cut}"
        );
    }
    for at in 0..payload.len() {
        let mut bytes = payload.clone();
        bytes[at] ^= 0x5a;
        let _ = std::fs::remove_file(&edited_outcome);
        std::fs::write(&pack, encode_pack(key, &[&bytes])).unwrap();
        // A flip that still decodes is a different, well-formed pack:
        // the answer may change, but nothing panics or hangs.
        run(&edited);
        let _ = std::fs::remove_dir_all(dir.join("quarantine"));
    }

    // The intact pack still loads and serves the unedited procedures.
    let (outcome, cache, _) = {
        let _ = std::fs::remove_file(&edited_outcome);
        std::fs::write(&pack, &image).unwrap();
        run(&edited)
    };
    assert_eq!(outcome, golden);
    assert_eq!(cache.stats().pack_loads, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- segmented summary packs -----------------------------------------------

/// `source` with `line` appended to the body of `proc {name}`.
fn append_to_proc(source: &str, name: &str, line: &str) -> String {
    let start = source.find(&format!("proc {name}(")).expect("proc present");
    let at = start + source[start..].find("\nend\n").expect("proc ends") + 1;
    format!("{}{line}\n{}", &source[..at], &source[at..])
}

/// One fresh-process cold run of `source` under the label `seg.mf`
/// against the cache at `dir`: the outcome's bytes and the cache handle.
fn labelled_run(dir: &Path, source: &str) -> (Vec<u8>, Arc<DiskCache>) {
    let ir = ipcp::ir::compile_to_ir(source).expect("compiles");
    let cache = open(dir);
    let mut session = cached_session(&ir, &cache);
    session.set_audit_label("seg.mf");
    let outcome = encode_to_vec(&session.analyze(&AnalysisConfig::default()));
    (outcome, cache)
}

/// A pack grown by appended segments is still one unit of bytes from
/// outside. Cut at every byte — segment boundaries included — flipped
/// at every byte, one segment's payload re-framed under valid checksums
/// and seal, or stamped by format version 4, it loads as a quarantined
/// miss; and an analysis over a damaged pack answers as a cache-less
/// run does.
#[test]
fn multi_segment_pack_faults_are_quarantined_misses() {
    use ipcp::core::diskcache::{encode_pack, pack_segments, LoadMiss, HEADER_LEN};
    use ipcp::core::pack::SummaryPack;
    use ipcp::core::pack_key;
    let base = generate_scale(&ScaleSpec::with_procs(24, 7)).source;
    let edit = |k: u32| append_to_proc(&base, "rdr0", &format!("  print({k})"));
    let dir = temp_dir("segments");
    for source in [base.clone(), edit(1), edit(2)] {
        labelled_run(&dir, &source);
    }
    let key = pack_key("seg.mf", &AnalysisConfig::default());
    let pack = dir.join(format!("{key:016x}.pack"));
    let image = std::fs::read(&pack).expect("pack written");
    let segments: Vec<Vec<u8>> = pack_segments(key, &image)
        .expect("valid pack")
        .into_iter()
        .map(<[u8]>::to_vec)
        .collect();
    assert_eq!(segments.len(), 3, "two cold runs appended a segment each");
    let mut headers = Vec::new();
    let mut at = 0;
    for segment in &segments {
        headers.push(at);
        at += HEADER_LEN + segment.len();
    }

    // Plants `bytes` as the pack and loads it through a fresh handle.
    let load = |bytes: &[u8]| -> Result<usize, LoadMiss> {
        std::fs::write(&pack, bytes).unwrap();
        let cache = open(&dir);
        let loaded = cache.load_pack(key, |p| decode_from_slice::<SummaryPack>(p).ok());
        if loaded.is_err() {
            assert_eq!(cache.stats().quarantined, 1);
            assert_eq!(cache.stats().pack_misses, 1);
            assert_eq!(cache.quarantine_count(), 1);
            assert!(!pack.exists(), "a quarantined pack leaves the cache dir");
            let _ = std::fs::remove_dir_all(dir.join("quarantine"));
        }
        loaded.map(|segments| segments.len())
    };
    assert_eq!(load(&image), Ok(3));
    for cut in 0..image.len() {
        assert!(
            matches!(load(&image[..cut]), Err(LoadMiss::Invalid(_))),
            "cut at {cut}"
        );
    }
    for at in 0..image.len() {
        let mut bytes = image.clone();
        bytes[at] ^= 0x5a;
        let skew = headers.iter().any(|h| (h + 8..h + 20).contains(&at));
        match load(&bytes) {
            Err(LoadMiss::Invalid(reason)) => assert_eq!(
                reason.ends_with("mismatch")
                    && (reason.starts_with("format") || reason.starts_with("toolchain")),
                skew,
                "byte {at} flipped: {reason}"
            ),
            other => panic!("byte {at} flipped: {other:?}"),
        }
    }
    // A lying writer: the middle segment cut short under valid framing.
    for cut in 0..segments[1].len() {
        let bytes = encode_pack(key, &[&segments[0], &segments[1][..cut], &segments[2]]);
        assert_eq!(
            load(&bytes),
            Err(LoadMiss::Invalid("payload decode failed")),
            "re-framed cut at {cut}"
        );
    }
    std::fs::write(&pack, &image).unwrap();
    stamp_version(&pack, 4);
    let stamped = std::fs::read(&pack).unwrap();
    assert_eq!(
        load(&stamped),
        Err(LoadMiss::Invalid("format version mismatch"))
    );

    // End to end: cut at the last segment boundary, or the seal's last
    // byte flipped, the next edit's cold run answers cache-less.
    let golden = encode_to_vec(
        &AnalysisSession::new(&ipcp::ir::compile_to_ir(&edit(3)).expect("compiles"))
            .analyze(&AnalysisConfig::default()),
    );
    let mut flipped = image.clone();
    *flipped.last_mut().unwrap() ^= 0x01;
    for damaged in [image[..headers[2]].to_vec(), flipped] {
        std::fs::write(&pack, &damaged).unwrap();
        let (outcome, cache) = labelled_run(&dir, &edit(3));
        assert_eq!(outcome, golden);
        assert_eq!(
            (cache.stats().quarantined, cache.stats().pack_misses),
            (1, 1)
        );
        // The run rewrote the pack afresh, which loads whole.
        assert_eq!(
            open(&dir).load_pack(key, |_| Some(())).map(|s| s.len()),
            Ok(1)
        );
        let _ = std::fs::remove_file(dir.join(format!(
            "{:016x}.art",
            outcome_key(
                AnalysisSession::new(&ipcp::ir::compile_to_ir(&edit(3)).unwrap())
                    .base_fingerprint(),
                &AnalysisConfig::default()
            )
        )));
        let _ = std::fs::remove_dir_all(dir.join("quarantine"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// However many segments it grows by, a pack stays within
/// (1 + [`PACK_COMPACT_PERCENT`]) times the size of a fresh pack of the
/// same summaries: past the share, a store compacts it.
#[test]
fn appended_packs_stay_within_the_compaction_share_of_a_fresh_pack() {
    use ipcp::core::diskcache::{pack_segments, PACK_COMPACT_PERCENT};
    use ipcp::core::pack_key;
    let base = generate_scale(&ScaleSpec::with_procs(24, 7)).source;
    let key = pack_key("seg.mf", &AnalysisConfig::default());
    let dir = temp_dir("compact");
    let (mut appended, mut compacted) = (false, false);
    let mut segments_before = 0;
    for round in 0..60u32 {
        // Same-width literals: every round's fresh pack has one size.
        let source = append_to_proc(&base, "rdr0", &format!("  print({})", 1000 + round));
        labelled_run(&dir, &source);
        let image = std::fs::read(dir.join(format!("{key:016x}.pack"))).unwrap();
        let segments = pack_segments(key, &image).expect("valid pack").len();
        appended |= segments > 1;
        compacted |= segments < segments_before;
        segments_before = segments;

        let fresh_dir = temp_dir("compact-fresh");
        labelled_run(&fresh_dir, &source);
        let fresh = std::fs::metadata(fresh_dir.join(format!("{key:016x}.pack")))
            .unwrap()
            .len();
        let _ = std::fs::remove_dir_all(&fresh_dir);
        assert!(
            image.len() as u64 * 100 <= fresh * (100 + PACK_COMPACT_PERCENT),
            "round {round}: a {}-byte pack of {segments} segments against a {fresh}-byte fresh one",
            image.len()
        );
    }
    assert!(
        appended && compacted,
        "the loop must both append and compact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
