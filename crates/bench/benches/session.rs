//! Artifact reuse across a configuration sweep — the payoff the
//! [`ipcp_core::AnalysisSession`] refactor exists for.
//!
//! A full Table-2-style sweep (all four jump-function kinds, each with
//! and without return jump functions — 8 configurations) is measured two
//! ways per program:
//!
//! * `independent` — 8 one-shot `analyze` calls, each opening a fresh
//!   session, so nothing is shared between columns;
//! * `session` — one fresh session driving all 8, so the call graph,
//!   MOD/REF summaries, per-procedure SSA, symbolic values, and return
//!   jump functions are computed once and reused across columns.
//!
//! The session sweep is expected to be ≥ 2× faster end-to-end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipcp_core::{analyze, AnalysisConfig, AnalysisSession, JumpFunctionKind};
use ipcp_suite::{generate, spec};
use std::hint::black_box;

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

fn programs() -> Vec<(String, ipcp_ir::Program)> {
    ["adm", "linpackd", "ocean"]
        .iter()
        .map(|name| {
            let g = generate(&spec(name).expect("spec"));
            let ir = ipcp_ir::compile_to_ir(&g.source).expect("compiles");
            (g.name, ir)
        })
        .collect()
}

fn bench_sweep(c: &mut Criterion) {
    let programs = programs();
    let configs = sweep_configs();
    let mut group = c.benchmark_group("table2_sweep");
    group.sample_size(20);
    for (name, ir) in &programs {
        group.bench_with_input(BenchmarkId::new("independent", name), ir, |b, ir| {
            b.iter(|| {
                let mut total = 0usize;
                for config in &configs {
                    total += analyze(black_box(ir), config).substitutions.total;
                }
                black_box(total)
            })
        });
        group.bench_with_input(BenchmarkId::new("session", name), ir, |b, ir| {
            b.iter(|| {
                let session = AnalysisSession::new(black_box(ir));
                let mut total = 0usize;
                for config in &configs {
                    total += session.analyze(config).substitutions.total;
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
