//! Wall-clock microbenchmark of the engine, bare and behind the megaflow
//! cache, on goto chains of 2, 3 and 4 tables.
//!
//! Modeled Mpps numbers come from the cost model; this bench times the
//! real data structures: the engine's monomorphic per-table dispatch and
//! the megaflow cache's single masked-tuple probe. The expected ordering
//! is compiled < cached(warm), with the walk's cost growing with pipeline
//! depth and the cache's independent of it (one probe regardless).

use criterion::{criterion_group, criterion_main, Criterion};
use mapro_core::{ActionSem, Catalog, Packet, Pipeline, Table, Value};
use mapro_packet::{generate, FlowSpec, Popularity, TraceSpec};
use mapro_switch::{CachedEngine, Switch, SwitchModel};

const ROWS: u64 = 64;

/// A goto chain of `n` exact-match tables: `t0 → t1 → … → t(n-1) → out`.
/// Every table matches its own field over `ROWS` values, so depth is the
/// only variable between pipelines.
fn chain(n: usize) -> Pipeline {
    let mut c = Catalog::new();
    let fields: Vec<_> = (0..n).map(|i| c.field(format!("f{i}"), 16)).collect();
    let goto = c.action("goto", ActionSem::Goto);
    let out = c.action("out", ActionSem::Output);
    let mut tables = Vec::with_capacity(n);
    for (i, &f) in fields.iter().enumerate() {
        let last = i == n - 1;
        let mut t = Table::new(
            format!("t{i}"),
            vec![f],
            vec![if last { out } else { goto }],
        );
        for v in 0..ROWS {
            let act = if last {
                Value::sym(format!("p{v}"))
            } else {
                Value::sym(format!("t{}", i + 1))
            };
            t.row(vec![Value::Int(v)], vec![act]);
        }
        tables.push(t);
    }
    Pipeline::new(c, tables, "t0")
}

/// Zipf traffic over flows that walk the whole chain.
fn traffic(p: &Pipeline, n: usize) -> Vec<Packet> {
    let fields: Vec<_> = (0..n)
        .map(|i| p.catalog.lookup(&format!("f{i}")).expect("field exists"))
        .collect();
    let flows = (0..256u64)
        .map(|k| FlowSpec {
            fields: fields.iter().map(|&f| (f, k % ROWS)).collect(),
            weight: 1,
        })
        .collect();
    let spec = TraceSpec {
        flows,
        popularity: Popularity::Zipf(1.1),
    };
    generate(&p.catalog, &spec, 4096, 2019)
        .packets
        .into_iter()
        .map(|(_, pkt)| pkt)
        .collect()
}

fn bench_datapath(c: &mut Criterion) {
    let mut group = c.benchmark_group("datapath");
    for n in [2usize, 3, 4] {
        let p = chain(n);
        let pkts = traffic(&p, n);

        group.bench_function(format!("compiled/{n}tables"), |b| {
            let mut sim = SwitchModel::eswitch(&p).expect("compiles");
            let mut i = 0usize;
            b.iter(|| {
                let pkt = &pkts[i % pkts.len()];
                i += 1;
                std::hint::black_box(sim.process(pkt));
            });
        });
        group.bench_function(format!("cached/{n}tables"), |b| {
            let mut sim = CachedEngine::eswitch(&p).expect("compiles");
            for pkt in &pkts {
                sim.process(pkt); // warm the megaflow cache
            }
            let mut i = 0usize;
            b.iter(|| {
                let pkt = &pkts[i % pkts.len()];
                i += 1;
                std::hint::black_box(sim.process(pkt));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_datapath);
criterion_main!(benches);
