//! E11 — classifier-template ablation (the §5 ESwitch mechanism).
//!
//! Times each template on the *same* GWLB content it would hold in each
//! representation: the universal table as a 160-rule linear ternary scan
//! vs TSS, and the decomposed stages as an exact hash (20 keys) plus an
//! LPM trie (8 prefixes). The wall-clock ordering (exact + lpm ≪ linear)
//! is the paper's explanation for ESwitch's Table 1 numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use mapro_normalize::JoinKind;
use mapro_packet::generate;
use mapro_switch::cls::{
    Classifier, DecisionTree, DtreeConfig, ExactTable, LinearTernary, LpmTrie, TableView,
    TupleSpace,
};
use mapro_workloads::Gwlb;

fn keys_for(
    pipeline: &mapro_core::Pipeline,
    table: &str,
    trace: &mapro_packet::Trace,
) -> Vec<Vec<u64>> {
    let t = pipeline.table(table).expect("table");
    trace
        .packets
        .iter()
        .map(|(_, pkt)| t.match_attrs.iter().map(|&a| pkt.get(a)).collect())
        .collect()
}

fn bench_classifiers(c: &mut Criterion) {
    let g = Gwlb::random(20, 8, 2019);
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    let trace = generate(&g.universal.catalog, &g.trace_spec(), 4096, 2019);

    let uni_view = TableView::of(g.universal.table("t0").expect("t0"), &g.universal.catalog);
    let uni_keys = keys_for(&g.universal, "t0", &trace);
    let t0_view = TableView::of(goto.table("t0").expect("t0"), &goto.catalog);
    let t0_keys = keys_for(&goto, "t0", &trace);
    let sub_view = TableView::of(goto.table("t0_x1").expect("sub"), &goto.catalog);
    let sub_keys = keys_for(&goto, "t0_x1", &trace);

    let mut group = c.benchmark_group("classifier");
    let linear = LinearTernary::build(&uni_view);
    group.bench_function("linear_160_rules", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let k = &uni_keys[i % uni_keys.len()];
            i += 1;
            std::hint::black_box(linear.lookup(k));
        });
    });
    let tss = TupleSpace::build(&uni_view).expect("builds");
    group.bench_function("tss_160_rules", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let k = &uni_keys[i % uni_keys.len()];
            i += 1;
            std::hint::black_box(tss.lookup(k));
        });
    });
    let exact = ExactTable::build(&t0_view).expect("t0 is all-exact");
    group.bench_function("exact_20_keys", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let k = &t0_keys[i % t0_keys.len()];
            i += 1;
            std::hint::black_box(exact.lookup(k));
        });
    });
    let dtree = DecisionTree::build(&uni_view, DtreeConfig::default());
    group.bench_function("dtree_160_rules", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let k = &uni_keys[i % uni_keys.len()];
            i += 1;
            std::hint::black_box(dtree.lookup(k));
        });
    });
    let lpm = LpmTrie::build(&sub_view).expect("sub is LPM");
    group.bench_function("lpm_8_prefixes", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let k = &sub_keys[i % sub_keys.len()];
            i += 1;
            std::hint::black_box(lpm.lookup(k));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_classifiers);
criterion_main!(benches);
