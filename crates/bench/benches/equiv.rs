//! E17 — enumerative vs symbolic equivalence checking, head to head.
//!
//! Three pipeline sizes of the same shape (disjoint exact rows over wide
//! fields, checked against their priority-reversed reordering) straddle
//! the trade-off: the enumerative engine's cost follows the representative
//! domain product (~(2k)^f packets), the symbolic engine's cost follows
//! the node count of the decision diagrams (~k·f·w nodes). Small fields
//! keep enumeration cheap; adding fields inflates the product exponentially
//! while the diagrams grow linearly — which is the whole point of the
//! symbolic engine.

use criterion::{criterion_group, criterion_main, Criterion};
use mapro_core::{ActionSem, Catalog, EquivConfig, EquivMode, Pipeline, Table, Value};
use mapro_sym::SymConfig;

/// `rows` disjoint exact entries over `fields` 16-bit columns; reversed
/// priority order on demand (still equivalent — rows are disjoint).
fn wide(fields: usize, nrows: u64, reversed: bool) -> Pipeline {
    let mut c = Catalog::new();
    let fs: Vec<_> = (0..fields).map(|i| c.field(format!("w{i}"), 16)).collect();
    let out = c.action("out", ActionSem::Output);
    let mut s = 2019u64;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut rows: Vec<(Vec<Value>, Vec<Value>)> = (0..nrows)
        .map(|r| {
            let m: Vec<Value> = (0..fields).map(|_| Value::Int(rng() & 0xffff)).collect();
            (m, vec![Value::sym(format!("p{r}"))])
        })
        .collect();
    if reversed {
        rows.reverse();
    }
    let mut t = Table::new("wide", fs, vec![out]);
    for (m, a) in rows {
        t.row(m, a);
    }
    Pipeline::single(c, t)
}

fn bench_equiv(c: &mut Criterion) {
    let enum_cfg = EquivConfig {
        mode: EquivMode::Enumerate,
        ..EquivConfig::default()
    };
    // (label, fields, rows): representative product ≈ (2·rows)^fields.
    let sizes: [(&str, usize, u64); 3] = [("2f", 2, 8), ("3f", 3, 10), ("4f", 4, 12)];

    let sym = SymConfig::default();

    let mut group = c.benchmark_group("equiv");
    for (label, fields, rows) in sizes {
        let l = wide(fields, rows, false);
        let r = wide(fields, rows, true);
        group.bench_function(format!("enumerative_{label}"), |b| {
            b.iter(|| {
                let out = mapro_core::check_equivalent(&l, &r, &enum_cfg).expect("checks");
                assert!(std::hint::black_box(out).is_equivalent());
            });
        });
        group.bench_function(format!("symbolic_{label}"), |b| {
            b.iter(|| {
                let out = mapro_sym::check_symbolic(&l, &r, &sym).expect("checks");
                assert!(std::hint::black_box(out).is_equivalent());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_equiv);
criterion_main!(benches);
