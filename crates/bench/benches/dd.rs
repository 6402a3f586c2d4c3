//! E21 — cube covers vs hash-consed decision diagrams, head to head.
//!
//! The same wide-table shape at 2/4/8/16 fields, checked by both symbolic
//! backends: the cube engine's cost follows the atom count and then the
//! *quadratic* cross-intersection, the DD engine's cost follows the node
//! count of the hash-consed diagram. There is no crossover: the diagram
//! is ahead 6× already at 2 fields, and the gap grows with width (and with
//! it residue fragmentation) to two orders of magnitude at 16 — which is
//! why it is the default and cubes the comparison engine. A second group
//! times one cold `DdEngine::compile` of three `toolchain` programs (the
//! label carries the row count, for ns per row). A third group
//! pins the `Cube::subtract` scratch-buffer
//! rework: `subtract_into` reuses one pre-sized output vector across the
//! partition loop instead of allocating a fresh `Vec` per split.

use criterion::{criterion_group, criterion_main, Criterion};
use mapro_bench::wide_pair;
use mapro_core::Value;
use mapro_sym::{cube::Cube, CoverBackend, DdEngine, FieldSpace, SymConfig};
use mapro_workloads::{Enterprise, Gwlb, L3};

fn backend_cfg(backend: CoverBackend) -> SymConfig {
    SymConfig {
        backend,
        ..SymConfig::default()
    }
}

fn bench_backends(c: &mut Criterion) {
    // (label, fields, rows): joint width = 16·fields bits.
    let sizes: [(&str, usize, u64); 4] =
        [("2f", 2, 8), ("4f", 4, 12), ("8f", 8, 24), ("16f", 16, 40)];

    let mut group = c.benchmark_group("dd_crossover");
    group.sample_size(10);
    for (label, fields, rows) in sizes {
        let (l, r) = wide_pair(fields, rows, 2019);
        group.bench_function(format!("cube_{label}"), |b| {
            b.iter(|| {
                let out = mapro_sym::check_symbolic(&l, &r, &backend_cfg(CoverBackend::Cube))
                    .expect("cube decides the wide pairs");
                assert!(std::hint::black_box(out).is_equivalent());
            });
        });
        group.bench_function(format!("dd_{label}"), |b| {
            b.iter(|| {
                let out = mapro_sym::check_symbolic(&l, &r, &backend_cfg(CoverBackend::Dd))
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

fn bench_subtract(c: &mut Criterion) {
    // The partition loop's hot shape: subtract many small-care cubes from
    // a wildcard region, accumulating residues. `subtract_into` is the
    // scratch-reuse entry point `table_partition` double-buffers through;
    // `subtract` is the allocating wrapper.
    let widths = [16u32, 16, 16, 16];
    let any = Cube::of(&[Value::Any, Value::Any, Value::Any, Value::Any], &widths)
        .expect("wildcard cube");
    let mut s = 2019u64;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let cubes: Vec<Cube> = (0..64)
        .map(|_| {
            let m: Vec<Value> = (0..4)
                .map(|_| Value::Ternary {
                    bits: rng() & 0xffff,
                    mask: rng() & 0xffff,
                })
                .collect();
            Cube::of(&m, &widths).expect("ternary cube")
        })
        .collect();

    let mut group = c.benchmark_group("cube_subtract");
    group.bench_function("alloc_per_split", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for sub in &cubes {
                total += std::hint::black_box(any.subtract(sub)).len();
            }
            total
        });
    });
    group.bench_function("scratch_reuse", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut total = 0usize;
            for sub in &cubes {
                out.clear();
                any.subtract_into(sub, &mut out);
                total += std::hint::black_box(&out).len();
            }
            total
        });
    });
    group.finish();
}

criterion_group!(benches, bench_backends, bench_compile, bench_subtract);
criterion_main!(benches);
