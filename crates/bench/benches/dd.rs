//! E21 — the decision-diagram check at width, and the cost of a cold
//! compile.
//!
//! The same wide-table shape at 2/4/8/16 fields: the check's cost follows
//! the node count of the hash-consed diagram, not the joint width (16 to
//! 256 bits). A second group times one cold `DdEngine::compile` of three
//! `toolchain` programs (the label carries the row count, for ns per row).

use criterion::{criterion_group, criterion_main, Criterion};
use mapro_bench::wide_pair;
use mapro_sym::{DdEngine, FieldSpace, SymConfig};
use mapro_workloads::{Enterprise, Gwlb, L3};

fn bench_backends(c: &mut Criterion) {
    // (label, fields, rows): joint width = 16·fields bits.
    let sizes: [(&str, usize, u64); 4] =
        [("2f", 2, 8), ("4f", 4, 12), ("8f", 8, 24), ("16f", 16, 40)];

    let mut group = c.benchmark_group("dd_crossover");
    group.sample_size(10);
    for (label, fields, rows) in sizes {
        let (l, r) = wide_pair(fields, rows, 2019);
        group.bench_function(format!("dd_{label}"), |b| {
            b.iter(|| {
                let out = mapro_sym::check_symbolic(&l, &r, &SymConfig::default())
                    .expect("dd decides the wide pairs");
                assert!(std::hint::black_box(out).is_equivalent());
            });
        });
    }
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    // The e2e `toolchain` corpus programs of the same names, at seed 7919.
    let programs = [
        ("l3-192", L3::random(192, 16, 8, 7919).universal),
        ("gwlb-s16-b8", Gwlb::random(16, 8, 7919).universal),
        ("ent-24", Enterprise::random(24, 8, 7919).pipeline),
    ];
    let cfg = SymConfig::default();
    let mut group = c.benchmark_group("dd_compile");
    for (name, p) in &programs {
        let space = FieldSpace::from_pipelines(&[p]);
        let rows = p.total_entries();
        group.bench_function(format!("{name}/{rows}rows"), |b| {
            b.iter(|| {
                let mut eng = DdEngine::new(&space, &cfg);
                eng.compile(p, &space, &cfg).expect("the corpus compiles")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backends, bench_compile);
criterion_main!(benches);
