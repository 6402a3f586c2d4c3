//! E4 — Fig. 4 (reactiveness), regeneration and control-path costs.
//!
//! Benchmarks the full figure regeneration (churn sweep over the update
//! rates), the per-intent plan compilation against both representations,
//! and the cost of actually applying plans to pipeline state — the
//! control-plane work whose 8× amplification drives the figure.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mapro_bench::{fig4, BenchConfig};
use mapro_core::apply_plan;
use mapro_normalize::JoinKind;
use mapro_workloads::Gwlb;

fn bench_fig4(c: &mut Criterion) {
    let cfg = BenchConfig::default();
    let rates: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();
    let mut group = c.benchmark_group("fig4");
    group.bench_function("sweep", |b| {
        b.iter(|| std::hint::black_box(fig4(&cfg, &rates)));
    });

    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    group.bench_function("compile_intent/universal", |b| {
        b.iter(|| std::hint::black_box(g.move_service_port(&g.universal, 3, 4443)));
    });
    group.bench_function("compile_intent/goto", |b| {
        b.iter(|| std::hint::black_box(g.move_service_port(&goto, 3, 4443)));
    });

    let uni_plan = g.move_service_port(&g.universal, 3, 4443);
    let goto_plan = g.move_service_port(&goto, 3, 4443);
    group.bench_function("apply_plan/universal_8mods", |b| {
        b.iter_batched(
            || g.universal.clone(),
            |mut p| apply_plan(&mut p, &uni_plan).expect("applies"),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("apply_plan/goto_1mod", |b| {
        b.iter_batched(
            || goto.clone(),
            |mut p| apply_plan(&mut p, &goto_plan).expect("applies"),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
