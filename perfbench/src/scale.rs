//! `scale_10k`: the CLI `--cache-dir` edit loop on a 10 000-procedure
//! program at `jobs=2`. Each round edits one rotating procedure (a
//! round-unique literal) and analyzes the result twice, each time in a
//! fresh session with a disk cache and an audit label attached, as
//! `ipcp analyze --cache-dir` does: the first run misses the cache and
//! writes through (cold), the second is served from disk (warm). The
//! cache's byte budget is below the run's writes, so eviction runs in the
//! loop. Every cold op must miss the disk cache and every warm op hit it;
//! warm outputs must equal their cold output byte for byte; cold outputs
//! must equal a `jobs=1` reference, computed after the timed phase.

use crate::layers::Tracer;
use crate::{digest, edit_proc, runq_wait_ns, Phase, Workload, WORK_DIR};
use ipcp_core::{AnalysisConfig, DiskCache};
use ipcp_suite::{generate_scale, ScaleSpec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const PROCS: usize = 10_000;
const JOBS: usize = 2;
/// Holds about three outcomes of the 10k program, so each round evicts.
const CACHE_BYTES: u64 = 8 << 20;
const LABEL: &str = "scale.mf";

pub struct Scale {
    seed: u64,
    round: u64,
    base: String,
    dir: PathBuf,
    config: AnalysisConfig,
}

impl Scale {
    fn edited(&self, round: u64) -> String {
        let which = (self.seed as usize).wrapping_add(round as usize * 7919);
        edit_proc(&self.base, which, 1_000_000 + round)
    }

    /// One `ipcp analyze --cache-dir` run: the rendered output, and
    /// whether the outcome came from the disk cache.
    fn op(&self, tr: &mut Tracer, source: &str) -> Result<(String, bool), String> {
        let ir = tr.compile(source)?;
        let mut session = tr.open_session(&ir);
        let cache = DiskCache::open(&self.dir).map_err(|e| format!("cache: {e}"))?;
        let cache = Arc::new(cache.with_max_bytes(CACHE_BYTES));
        session.attach_disk_cache(Arc::clone(&cache));
        session.set_audit_label(LABEL);
        let outcome = tr.analyze(&session, &self.config)?;
        let disk_hit = cache.stats().hits == 1;
        if tr.enabled() {
            // The session reads the label's ledger before its first span.
            tr.estimate("audit.ledger_ms", || {
                ipcp_core::audit::load_ledger(&self.dir, LABEL)
            });
        }
        let output = tr.render(&outcome);
        tr.span("session.teardown_ms", || drop((session, outcome, ir)));
        Ok((output, disk_hit))
    }

    /// The `jobs=1` reference output of `source`, computed without caches.
    fn reference(source: &str) -> String {
        let config = AnalysisConfig {
            jobs: 1,
            ..AnalysisConfig::default()
        };
        match ipcp_core::analyze_source(source, &config) {
            Ok(outcome) => ipcp_core::report::analyze_to_string(&outcome),
            Err(e) => format!("error: {e:?}"),
        }
    }

    /// Checks cold outputs against their references (two threads), then
    /// counts each cold op.
    fn verify(&self, phase: &mut Phase, pending: Vec<(u64, Result<u64, String>, f64)>) {
        let verdicts = ipcp_core::parallel::par_map(
            2,
            &pending,
            |_, (round, output, _)| matches!(output, Ok(out) if *out == digest(&Self::reference(&self.edited(*round)))),
        );
        for ((_, _, ms), ok) in pending.iter().zip(verdicts) {
            phase.record(true, ok, *ms);
        }
    }
}

impl Workload for Scale {
    // About 40 rounds fit in a 25-second run, 29 on a slow host: the
    // 60th percentile leaves at least ten samples beyond it.
    const COLD_TAIL: f64 = 60.0;
    const WARM_TAIL: f64 = 60.0;

    fn setup(seed: u64) -> Result<Self, String> {
        let dir = PathBuf::from(format!("{WORK_DIR}/scale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = generate_scale(&ScaleSpec::with_procs(PROCS, seed)).source;
        let scale = Scale {
            seed,
            round: 0,
            base,
            dir,
            config: AnalysisConfig {
                jobs: JOBS,
                ..AnalysisConfig::default()
            },
        };
        // Warm-up: one cold and one warm run of the unedited program.
        let mut tr = Tracer::new(false, 0);
        let (cold, _) = scale.op(&mut tr, &scale.base)?;
        if scale.op(&mut tr, &scale.base)? != (cold, true) {
            return Err("warm-up: warm run missed the disk cache or differs from cold".into());
        }
        Ok(scale)
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Phase {
        let mut tr = Tracer::new(trace, 0);
        let mut phase = Phase::default();
        let mut pending = Vec::new();
        let runq = runq_wait_ns();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            self.round += 1;
            let source = self.edited(self.round);
            let t = tr.begin_op();
            let cold = self.op(&mut tr, &source);
            let cold_ms = tr.end_op(t);
            let t = tr.begin_op();
            let warm = self.op(&mut tr, &source);
            let warm_ms = tr.end_op(t);
            // A cold op must miss the disk cache and a warm one hit it:
            // an op that did the other kind of work is a failed op.
            let cold_hit = matches!(cold, Ok((_, true)));
            let warm_missed = matches!(warm, Ok((_, false)));
            phase.mislabeled += u64::from(cold_hit) + u64::from(warm_missed);
            let cold = cold.and_then(|(out, hit)| match hit {
                false => Ok(out),
                true => Err("cold op was served from the disk cache".into()),
            });
            let warm_ok = matches!((&warm, &cold), (Ok((w, true)), Ok(c)) if w == c);
            phase.record(false, warm_ok, warm_ms);
            pending.push((self.round, cold.map(|out| digest(&out)), cold_ms));
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase.peak_rss_mib = crate::peak_rss_mib();
        phase.runq_wait_ms = (runq_wait_ns() - runq) as f64 / 1e6;
        phase.rec = tr.into_recorder();
        self.verify(&mut phase, pending);
        phase
    }

    fn self_check(&self) -> bool {
        let wrong = Self::reference(&self.edited(0)) + "\n";
        let mut phase = Phase::default();
        self.verify(&mut phase, vec![(0, Ok(digest(&wrong)), 0.0)]);
        phase.failed == 1
    }

    fn alloc_inputs(&self) -> (Vec<&str>, AnalysisConfig) {
        let config = AnalysisConfig {
            jobs: 1,
            ..self.config
        };
        (vec![self.base.as_str()], config)
    }

    fn finish(self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("cannot remove cache dir: {e}"))
    }
}
