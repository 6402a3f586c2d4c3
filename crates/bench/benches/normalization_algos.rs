//! Algorithmic cost of the normalization stack itself: FD mining,
//! candidate-key enumeration, decomposition, full 3NF synthesis,
//! denormalization (flatten), and the complete equivalence check —
//! the compile-time budget a controller would pay to normalize.

use criterion::{criterion_group, criterion_main, Criterion};
use mapro_core::{check_equivalent, EquivConfig};
use mapro_fd::mine_fds;
use mapro_normalize::{flatten, normalize, split, JoinKind, NormalizeOpts, Split, SplitOpts};
use mapro_workloads::{Gwlb, L3};

fn bench_algos(c: &mut Criterion) {
    let g = Gwlb::random(20, 8, 2019);
    let table = g.universal.table("t0").expect("t0");
    let mut group = c.benchmark_group("normalize");

    group.bench_function("mine_fds/gwlb_160_rows", |b| {
        b.iter(|| std::hint::black_box(mine_fds(table, &g.universal.catalog)));
    });
    group.bench_function("candidate_keys/gwlb", |b| {
        let mined = mine_fds(table, &g.universal.catalog);
        b.iter(|| std::hint::black_box(mined.fds.candidate_keys()));
    });
    group.bench_function("decompose/gwlb_metadata", |b| {
        let fd = Split::Fd {
            x: vec![g.ip_dst],
            y: vec![g.tcp_dst],
            join: JoinKind::Metadata,
        };
        b.iter(|| {
            std::hint::black_box(
                split(&g.universal, "t0", &fd, &SplitOpts::default()).expect("decomposes"),
            )
        });
    });
    group.bench_function("normalize_3nf/gwlb", |b| {
        b.iter(|| std::hint::black_box(normalize(&g.universal, &NormalizeOpts::default())));
    });
    let l3 = L3::random(64, 8, 4, 7);
    group.bench_function("normalize_3nf/l3_64_routes", |b| {
        b.iter(|| std::hint::black_box(normalize(&l3.universal, &NormalizeOpts::default())));
    });
    let goto = g
        .normalized(mapro_normalize::JoinKind::Goto)
        .expect("decomposes");
    group.bench_function("flatten/gwlb_goto", |b| {
        b.iter(|| std::hint::black_box(flatten(&goto, "flat").expect("flattens")));
    });
    let small = Gwlb::fig1();
    let small_goto = small
        .normalized(mapro_normalize::JoinKind::Goto)
        .expect("decomposes");
    group.bench_function("equiv_check/fig1_exhaustive", |b| {
        b.iter(|| {
            std::hint::black_box(
                check_equivalent(&small.universal, &small_goto, &EquivConfig::default())
                    .expect("checks"),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_algos);
criterion_main!(benches);
