//! E5 — Table 1 (static performance), wall-clock mode.
//!
//! The `repro` binary regenerates the table from the deterministic cost
//! model; this bench corroborates the *ordering* by timing the real
//! classifier data structures: the universal GWLB table on the
//! specializing datapath (one 160-entry linear ternary scan) versus the
//! goto-decomposed pipeline (hash + LPM trie), plus the cache-dominated
//! OVS model and the TSS Lagopus model.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mapro_bench::BenchConfig;
use mapro_normalize::JoinKind;
use mapro_packet::generate;
use mapro_switch::{ModelSpec, OvsSim, Switch, SwitchModel};
use mapro_workloads::Gwlb;

fn bench_table1(c: &mut Criterion) {
    let cfg = BenchConfig {
        packets: 4096,
        ..Default::default()
    };
    let g = Gwlb::random(cfg.services, cfg.backends, cfg.seed);
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    let trace = generate(&g.universal.catalog, &g.trace_spec(), cfg.packets, cfg.seed);

    let mut group = c.benchmark_group("table1");
    for (repr_name, repr) in [("universal", &g.universal), ("goto", &goto)] {
        for spec in [
            ModelSpec::eswitch(),
            ModelSpec::lagopus(),
            ModelSpec::noviflow(),
        ] {
            group.bench_function(format!("{}/{repr_name}", spec.name), |b| {
                let mut sim = SwitchModel::new(repr, spec.clone()).expect("compiles");
                let mut i = 0usize;
                b.iter(|| {
                    let (_, pkt) = &trace.packets[i % trace.len()];
                    i += 1;
                    std::hint::black_box(sim.process(pkt));
                });
            });
        }
        group.bench_function(format!("ovs_warm/{repr_name}"), |b| {
            let mut sim = OvsSim::compile(repr).expect("compiles");
            for (_, pkt) in &trace.packets {
                sim.process(pkt); // warm the megaflow cache
            }
            let mut i = 0usize;
            b.iter(|| {
                let (_, pkt) = &trace.packets[i % trace.len()];
                i += 1;
                std::hint::black_box(sim.process(pkt));
            });
        });
    }
    // The slow path, for contrast: a cold OVS cache per iteration batch.
    group.bench_function("ovs_cold/universal", |b| {
        b.iter_batched(
            || OvsSim::compile(&g.universal).expect("compiles"),
            |mut sim| {
                for (_, pkt) in trace.packets.iter().take(64) {
                    std::hint::black_box(sim.process(pkt));
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
