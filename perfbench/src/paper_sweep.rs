//! `paper_sweep`: the paper's own experiment. Each round compiles the 12
//! suite programs, opens one session per program and runs the Table-2 and
//! Table-3 configurations through it at `jobs=1`. A program's first
//! column is a cold op, the other nine are warm (session-store hits for
//! every configuration-independent artifact). Every substitution total is
//! checked against the pinned Table-2/Table-3 goldens.

use crate::layers::Tracer;
use crate::{runq_wait_ns, Phase, Rng, Workload};
use ipcp_bench::{table2_configs, table3_configs, TABLE2_GOLDEN, TABLE3_GOLDEN};
use ipcp_core::AnalysisConfig;
use std::time::Instant;

struct Program {
    source: String,
    /// Expected substitution totals, one per column of `configs`.
    golden: Vec<usize>,
}

pub struct PaperSweep {
    seed: u64,
    round: u64,
    programs: Vec<Program>,
    configs: Vec<AnalysisConfig>,
}

impl PaperSweep {
    /// One program's ten columns: a cold op, then nine warm ones.
    fn program_ops(&self, p: &Program, tr: &mut Tracer, phase: &mut Phase) {
        let mut session = None;
        for (col, config) in self.configs.iter().enumerate() {
            let start = tr.begin_op();
            let result = (|| {
                if session.is_none() {
                    let ir = tr.compile(&p.source)?;
                    session = Some(tr.open_session(&ir));
                }
                let session = session.as_ref().expect("session opened above");
                let outcome = tr.analyze(session, config)?;
                let output = tr.render(&outcome);
                Ok::<_, String>((outcome.substitutions.total, output))
            })();
            if col + 1 == self.configs.len() {
                // Closing the session frees its artifact store.
                tr.span("session.teardown_ms", || drop(session.take()));
            }
            let ms = tr.end_op(start);
            let ok = matches!(result, Ok((total, ref output))
                if total == p.golden[col] && !output.is_empty());
            phase.record(col == 0, ok, ms);
        }
    }

    fn rounds(&mut self, seconds: f64, trace: bool) -> Phase {
        let mut tr = Tracer::new(trace, 0);
        let mut phase = Phase::default();
        let runq = runq_wait_ns();
        let start = Instant::now();
        // Whole rounds only: every program contributes equally to the
        // latency distributions, whatever the seeded order.
        while start.elapsed().as_secs_f64() < seconds {
            self.round += 1;
            let mut order: Vec<usize> = (0..self.programs.len()).collect();
            let mut rng = Rng::new(self.seed ^ self.round.rotate_left(32));
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            for i in order {
                self.program_ops(&self.programs[i], &mut tr, &mut phase);
            }
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase.peak_rss_mib = crate::peak_rss_mib();
        phase.runq_wait_ms = (runq_wait_ns() - runq) as f64 / 1e6;
        phase.rec = tr.into_recorder();
        phase
    }
}

impl Workload for PaperSweep {
    const COLD_TAIL: f64 = 90.0;
    const WARM_TAIL: f64 = 99.0;

    fn setup(seed: u64) -> Result<Self, String> {
        let configs: Vec<AnalysisConfig> = table2_configs()
            .into_iter()
            .chain(table3_configs())
            .map(|(_, c)| AnalysisConfig { jobs: 1, ..c })
            .collect();
        let programs = ipcp_suite::all_specs()
            .iter()
            .map(|spec| {
                let generated = ipcp_suite::generate(spec);
                let t2 = TABLE2_GOLDEN.iter().find(|(n, _)| *n == generated.name);
                let t3 = TABLE3_GOLDEN.iter().find(|(n, _)| *n == generated.name);
                match (t2, t3) {
                    (Some((_, t2)), Some((_, t3))) => Ok(Program {
                        source: generated.source,
                        golden: t2.iter().chain(t3).copied().collect(),
                    }),
                    _ => Err(format!("no golden row for `{}`", generated.name)),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut sweep = PaperSweep {
            seed,
            round: 0,
            programs,
            configs,
        };
        // Warm-up: one full round, which must already be correct.
        let mut warmup = Phase::default();
        let mut tr = Tracer::new(false, 0);
        for p in &sweep.programs {
            sweep.program_ops(p, &mut tr, &mut warmup);
        }
        if warmup.failed > 0 {
            return Err(format!(
                "{} warm-up ops disagree with the goldens",
                warmup.failed
            ));
        }
        sweep.round = 0;
        Ok(sweep)
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Phase {
        self.rounds(seconds, trace)
    }

    fn self_check(&self) -> bool {
        let wrong = Program {
            source: self.programs[0].source.clone(),
            golden: self.programs[0].golden.iter().map(|g| g + 1).collect(),
        };
        let mut phase = Phase::default();
        self.program_ops(&wrong, &mut Tracer::new(false, 0), &mut phase);
        phase.failed == phase.attempted && phase.attempted > 0
    }

    fn alloc_inputs(&self) -> (Vec<&str>, AnalysisConfig) {
        let sources = self.programs.iter().map(|p| p.source.as_str()).collect();
        (sources, self.configs[0])
    }

    fn finish(self) -> Result<(), String> {
        Ok(())
    }
}
