//! Differential harness anchored on the oracle: every switch model — the
//! four §5 configurations (`ovs`, `eswitch`, `lagopus`, `noviflow`) and the
//! megaflow-`cached` engine — runs the one compiled engine, and must agree
//! with [`Pipeline::run`] packet by packet on output port, drop bit and
//! lookup count, and on the replay digest at any worker count.
//!
//! The cost model is allowed to differ between models (that is what a
//! model *is*), so only observable behavior is compared; bit-exact cost
//! assertions live next to the engine in `crates/switch/src/compile.rs`.
//!
//! CI runs this file at `MAPRO_THREADS=1` and `=4` and diffs the output,
//! so everything asserted here must be thread-count independent.

use mapro::prelude::*;
use mapro_core::MissPolicy;
use mapro_packet::{generate, FlowSpec, Popularity, Trace, TraceSpec};
use mapro_switch::{replay_digest, CachedEngine, ProcessOut};
use mapro_workloads::{random_table, Enterprise, RandomSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Factory = Box<dyn Fn() -> Box<dyn Switch + Send> + Sync>;

/// [`Pipeline::run`] behind the `Switch` interface, so the oracle's
/// verdicts go through the same sharded digest as the models'.
struct Oracle(Pipeline);

impl Switch for Oracle {
    fn name(&self) -> &'static str {
        "oracle"
    }
    fn process(&mut self, pkt: &Packet) -> ProcessOut {
        let v = self.0.run(pkt).expect("well-formed pipeline evaluates");
        ProcessOut {
            output: v.output,
            dropped: v.dropped,
            lookups: v.lookups,
            service_ns: 0.0,
            latency_ns: 0.0,
            slow_path: false,
        }
    }
    fn queue_factor(&self) -> f64 {
        1.0
    }
    fn stages(&self) -> usize {
        self.0.tables.len()
    }
}

/// One factory per model, all over the same pipeline; the oracle first.
fn factories(p: &Pipeline) -> Vec<(&'static str, Factory)> {
    fn model<S: Switch + Send + 'static>(
        p: &Pipeline,
        build: fn(&Pipeline) -> Result<S, mapro_switch::CompileError>,
    ) -> Factory {
        let p = p.clone();
        Box::new(move || Box::new(build(&p).expect("model compiles")))
    }
    let oracle = p.clone();
    vec![
        ("oracle", Box::new(move || Box::new(Oracle(oracle.clone())))),
        ("ovs", model(p, OvsSim::compile)),
        ("eswitch", model(p, SwitchModel::eswitch)),
        ("lagopus", model(p, SwitchModel::lagopus)),
        ("noviflow", model(p, SwitchModel::noviflow)),
        ("cached", model(p, CachedEngine::eswitch)),
    ]
}

/// Assert every model agrees with the oracle packet-by-packet on
/// (output, dropped, lookups), and that replay digests match the oracle's
/// at 1 and 4 workers.
fn models_match_oracle(p: &Pipeline, trace: &Trace, ctx: &str) {
    let all = factories(p);
    let mut sims: Vec<(&str, Box<dyn Switch + Send>)> =
        all.iter().map(|(n, f)| (*n, f())).collect();
    for (i, (_, pkt)) in trace.packets.iter().enumerate() {
        let want = p.run(pkt).expect("well-formed pipeline evaluates");
        for (name, sim) in sims.iter_mut() {
            let got = sim.process(pkt);
            assert_eq!(
                (&got.output, got.dropped),
                (&want.output, want.dropped),
                "{ctx}: {name} diverged from the oracle on packet {i}"
            );
            // A megaflow hit is one cache lookup whatever the pipeline
            // depth; every walk counts the oracle's lookups.
            let cache_hit = matches!(*name, "ovs" | "cached") && !got.slow_path;
            assert!(
                got.lookups == want.lookups || (cache_hit && got.lookups == 1),
                "{ctx}: {name} counted {} lookups on packet {i}, oracle {}",
                got.lookups,
                want.lookups
            );
        }
    }

    for workers in [1usize, 4] {
        let digests: Vec<(&str, u64)> = all
            .iter()
            .map(|(n, f)| (*n, replay_digest(&**f, trace, workers)))
            .collect();
        for (name, d) in &digests[1..] {
            assert_eq!(
                digests[0].1, *d,
                "{ctx}: {name} digest differs from the oracle at {workers} workers"
            );
        }
    }
}

/// Run `flows` through every model under uniform and Zipf popularity.
fn check_both_popularities(p: &Pipeline, flows: Vec<FlowSpec>, seed: u64, ctx: &str) {
    for (pop_name, popularity) in [
        ("uniform", Popularity::Weighted),
        ("zipf", Popularity::Zipf(1.1)),
    ] {
        let spec = TraceSpec {
            flows: flows.clone(),
            popularity,
        };
        let trace = generate(&p.catalog, &spec, 3_000, seed);
        models_match_oracle(p, &trace, &format!("{ctx} {pop_name}"));
    }
}

/// Flows sampled from the pipeline's own match-boundary domain (what
/// `mapro replay` draws): hits and misses of every table.
fn domain_flows(p: &Pipeline, n: usize, seed: u64) -> Vec<FlowSpec> {
    let domain = mapro_core::Domain::from_pipelines(&[p]).expect("interval predicates");
    domain
        .sample(&Packet::zero(&p.catalog), n, seed)
        .into_iter()
        .map(|pkt| FlowSpec {
            fields: domain
                .fields
                .iter()
                .map(|(a, _)| (*a, pkt.get(*a)))
                .collect(),
            weight: 1,
        })
        .collect()
}

/// Trace over a random table's field space: values land in
/// `0..domain + 2`, so a slice of packets miss every row and exercise the
/// drop path (and the cache's drop megaflows) alongside the hits.
fn random_trace(
    rt: &mapro_workloads::RandomTable,
    spec: &RandomSpec,
    popularity: Popularity,
    nflows: usize,
    packets: usize,
    seed: u64,
) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let flows = (0..nflows)
        .map(|_| FlowSpec {
            fields: rt
                .field_ids
                .iter()
                .map(|&id| (id, rng.gen::<u64>() % (spec.domain + 2)))
                .collect(),
            weight: 1 + rng.gen::<u64>() % 4,
        })
        .collect();
    let tspec = TraceSpec { flows, popularity };
    generate(&rt.pipeline.catalog, &tspec, packets, seed)
}

/// A random four-table pipeline with everything a walk-derived megaflow
/// mask has to account for: overlapping-priority ternary rows (`t0`, `t1`),
/// `Fall`/`Controller`/`Drop` miss chains, a `SetField` of a header field
/// (`g`) that later tables re-match, metadata (`m`) that `t1` reads whether
/// or not a `t0` entry wrote it first, gotos that skip stages, a multi-column
/// exact table over a possibly rewritten register (`t2`) and a prefix table
/// (`t3`). All attributes are 8 bits wide so random packets hit every case.
fn mask_zoo(rng: &mut SmallRng) -> Pipeline {
    let mut c = Catalog::new();
    let [f, g, h] = ["f", "g", "h"].map(|n| c.field(n, 8));
    let m = c.meta("m", 8);
    let set_g = c.action("set_g", ActionSem::SetField(g));
    let set_m = c.action("set_m", ActionSem::SetField(m));
    let goto = c.action("goto", ActionSem::Goto);
    let out = c.action("out", ActionSem::Output);

    fn tern(rng: &mut SmallRng) -> Value {
        match rng.gen_range(0..4u32) {
            0 => Value::Any,
            1 => Value::Int(rng.gen_range(0..256)),
            2 => Value::prefix(rng.gen_range(0..256), rng.gen_range(1..8), 8),
            _ => Value::Ternary {
                bits: rng.gen_range(0..256),
                mask: rng.gen_range(1..256),
            },
        }
    }
    fn maybe(v: Value, rng: &mut SmallRng) -> Value {
        if rng.gen::<bool>() {
            v
        } else {
            Value::Any
        }
    }
    fn miss(rng: &mut SmallRng, fall: &str) -> MissPolicy {
        match rng.gen_range(0..3u32) {
            0 => MissPolicy::Drop,
            1 => MissPolicy::Controller,
            _ => MissPolicy::Fall(fall.into()),
        }
    }
    fn port(rng: &mut SmallRng) -> Value {
        Value::sym(format!("p{}", rng.gen_range(0..6u32)))
    }

    let mut t0 = Table::new("t0", vec![f, g], vec![set_g, set_m, goto, out]);
    for _ in 0..rng.gen_range(3..9usize) {
        let later = ["t2", "t3"][rng.gen_range(0..2usize)];
        t0.row(
            vec![tern(rng), tern(rng)],
            vec![
                maybe(Value::Int(rng.gen_range(0..256)), rng),
                maybe(Value::Int(rng.gen_range(0..4)), rng),
                maybe(Value::sym(later), rng),
                maybe(port(rng), rng),
            ],
        );
    }
    t0.next = Some("t1".into());
    t0.miss = MissPolicy::Fall("t1".into());

    let mut t1 = Table::new("t1", vec![m, g], vec![goto, out]);
    for _ in 0..rng.gen_range(3..9usize) {
        let m_cell = maybe(Value::Int(rng.gen_range(0..4)), rng);
        t1.row(
            vec![m_cell, tern(rng)],
            vec![maybe(Value::sym("t3"), rng), maybe(port(rng), rng)],
        );
    }
    t1.next = Some("t2".into());
    t1.miss = miss(rng, "t2");

    let mut t2 = Table::new("t2", vec![g, h], vec![out]);
    for _ in 0..rng.gen_range(2..6usize) {
        let key = vec![
            Value::Int(rng.gen_range(0..256)),
            Value::Int(rng.gen_range(0..4)),
        ];
        t2.row(key, vec![port(rng)]);
    }
    t2.next = Some("t3".into());
    t2.miss = miss(rng, "t3");

    let mut t3 = Table::new("t3", vec![f], vec![out]);
    for _ in 0..rng.gen_range(1..5usize) {
        let len = rng.gen_range(1..8);
        t3.row(
            vec![Value::prefix(rng.gen_range(0..256), len, 8)],
            vec![port(rng)],
        );
    }
    t3.miss = miss(rng, "t3");
    if matches!(t3.miss, MissPolicy::Fall(_)) {
        t3.miss = MissPolicy::Drop; // keep the chain acyclic
    }
    Pipeline::new(c, vec![t0, t1, t2, t3], "t0")
}

/// Packets biased towards `p`'s own rows: each takes a random row's
/// ternary bits per matched attribute (free bits random), the rest noise.
fn row_biased_packets(p: &Pipeline, n: usize, rng: &mut SmallRng) -> Vec<Packet> {
    (0..n)
        .map(|_| {
            let mut pkt = Packet::zero(&p.catalog);
            for t in &p.tables {
                let e = &t.entries[rng.gen_range(0..t.len())];
                for (cell, &a) in e.matches.iter().zip(&t.match_attrs) {
                    let w = p.catalog.attr(a).width;
                    let (bits, care) = cell.as_ternary(w).expect("numeric match cell");
                    let noise = rng.gen::<u64>() & mapro_core::value::low_mask(w);
                    if rng.gen_range(0..4u32) > 0 {
                        pkt.set(a, bits | (noise & !care));
                    } else if pkt.get(a) == 0 {
                        pkt.set(a, noise);
                    }
                }
            }
            pkt
        })
        .collect()
}

/// The megaflow a cold packet installs is sound and no wider than stated:
/// any packet that differs from it only *outside* the installed mask hits
/// and gets the verdict [`Pipeline::run`] gives the changed packet; one
/// that differs in a single bit *inside* the mask is not covered by it.
fn assert_masks_sound(p: &Pipeline, packets: &[Packet], rng: &mut SmallRng, ctx: &str) {
    for (i, pkt) in packets.iter().enumerate() {
        let mut cached = CachedEngine::eswitch(p).expect("compiles");
        assert!(cached.process(pkt).slow_path, "{ctx}: packet {i} is cold");
        let mask = cached.megaflow_mask(pkt).expect("the walk was installed");
        let in_width = |a: AttrId| mapro_core::value::low_mask(p.catalog.attr(a).width);
        for _ in 0..8 {
            let mut flipped = pkt.clone();
            for &(a, m) in &mask {
                flipped.set(a, pkt.get(a) ^ (rng.gen::<u64>() & !m & in_width(a)));
            }
            let want = p.run(&flipped).expect("well-formed pipeline evaluates");
            let warm = cached.process(&flipped);
            assert!(!warm.slow_path, "{ctx}: packet {i} left its own megaflow");
            assert_eq!(
                (&warm.output, warm.dropped),
                (&want.output, want.dropped),
                "{ctx}: packet {i}: bits outside {mask:?} changed the verdict: {pkt:?} → {flipped:?}"
            );
        }
        for &(a, m) in &mask {
            let pinned = m & in_width(a);
            if pinned != 0 {
                let nth = rng.gen_range(0..pinned.count_ones());
                let bit = (0..64).filter(|b| pinned >> b & 1 == 1).nth(nth as usize);
                let mut flipped = pkt.clone();
                flipped.set(a, pkt.get(a) ^ (1 << bit.expect("nth set bit")));
                assert_eq!(
                    cached.megaflow_mask(&flipped),
                    None,
                    "{ctx}: packet {i}: a pinned bit of {a:?} does not constrain the megaflow"
                );
            }
        }
    }
}

#[test]
fn gwlb_representations_identical_across_engines() {
    let g = Gwlb::fig1();
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    let spec = TraceSpec {
        flows: g.trace_spec().flows,
        popularity: Popularity::Zipf(1.1),
    };
    for (name, repr) in [("universal", &g.universal), ("goto", &goto)] {
        let trace = generate(&repr.catalog, &spec, 4_000, 2019);
        models_match_oracle(repr, &trace, &format!("gwlb {name}"));
    }
    // A larger goto-normalized instance: the service flows plus domain
    // samples that miss the first stage or a per-service stage.
    let g = Gwlb::random(6, 4, 11);
    let goto = g.normalized(JoinKind::Goto).expect("decomposes");
    let mut flows = g.trace_spec().flows;
    flows.extend(domain_flows(&goto, 64, 11));
    check_both_popularities(&goto, flows, 11, "gwlb 6x4 goto");
}

/// ACL → NAT (`SetField` on `ip_dst`/`tcp_dst`) → L3 re-matching the
/// rewritten `ip_dst`: register stores must be visible to later stages.
#[test]
fn enterprise_rematch_chain_matches_oracle() {
    for seed in [3u64, 17] {
        let e = Enterprise::random(12, 4, seed);
        let mut flows: Vec<FlowSpec> = e
            .services
            .iter()
            .enumerate()
            .map(|(i, &(pub_ip, pub_port, _, _))| FlowSpec {
                fields: vec![
                    (e.ip_src, ((i as u64 % 2) << 31) | i as u64),
                    (e.ip_dst, pub_ip as u64),
                    (e.tcp_dst, pub_port as u64),
                ],
                weight: 1,
            })
            .collect();
        flows.extend(domain_flows(&e.pipeline, 96, seed));
        check_both_popularities(&e.pipeline, flows, seed, "enterprise");
    }
}

/// The L3 router, universal and fully normalized (group tables chained by
/// metadata — `SetField` on registers only the pipeline itself reads).
#[test]
fn l3_matches_oracle() {
    let l3 = L3::random(24, 6, 3, 5);
    let normalized = normalize(&l3.universal, &NormalizeOpts::default());
    assert!(normalized.pipeline.tables.len() >= 2);
    for (name, repr) in [
        ("universal", &l3.universal),
        ("normalized", &normalized.pipeline),
    ] {
        let flows = domain_flows(&l3.universal, 128, 5);
        check_both_popularities(repr, flows, 5, &format!("l3 {name}"));
    }
}

/// A hand-built miss chain: `t0` falls through to `t1` on a miss, `t1`
/// to `t2`, and `t2` punts to the controller (no output, *not* dropped);
/// a fourth table reached by goto drops.
#[test]
fn fall_and_controller_miss_chain_matches_oracle() {
    let mut c = Catalog::new();
    let f = c.field("f", 8);
    let g = c.field("g", 8);
    let goto = c.action("goto", ActionSem::Goto);
    let out = c.action("out", ActionSem::Output);
    let mut t0 = Table::new("t0", vec![f], vec![goto, out]);
    t0.row(vec![Value::Int(1)], vec![Value::Any, Value::sym("fast")]);
    t0.row(vec![Value::Int(2)], vec![Value::sym("t3"), Value::Any]);
    t0.miss = MissPolicy::Fall("t1".into());
    let mut t1 = Table::new("t1", vec![f, g], vec![out]);
    t1.row(
        vec![Value::prefix(0x80, 1, 8), Value::Int(7)],
        vec![Value::sym("mid")],
    );
    t1.miss = MissPolicy::Fall("t2".into());
    let mut t2 = Table::new("t2", vec![g], vec![out]);
    t2.row(vec![Value::Int(9)], vec![Value::sym("slow")]);
    t2.miss = MissPolicy::Controller;
    let mut t3 = Table::new("t3", vec![g], vec![out]);
    t3.row(vec![Value::Int(7)], vec![Value::sym("deep")]);
    let p = Pipeline::new(c, vec![t0, t1, t2, t3], "t0");

    let flows: Vec<FlowSpec> = [0u64, 1, 2, 3, 0x80, 0xff]
        .iter()
        .flat_map(|&fv| {
            [0u64, 7, 9].map(|gv| FlowSpec {
                fields: vec![(f, fv), (g, gv)],
                weight: 1,
            })
        })
        .collect();
    // Every disposition must actually occur in the population.
    let verdicts: Vec<_> = flows
        .iter()
        .map(|fl| {
            let mut pkt = Packet::zero(&p.catalog);
            for &(a, v) in &fl.fields {
                pkt.set(a, v);
            }
            p.run(&pkt).unwrap()
        })
        .collect();
    assert!(verdicts.iter().any(|v| v.to_controller && !v.dropped));
    assert!(verdicts.iter().any(|v| v.dropped));
    assert!(verdicts.iter().any(|v| v.lookups == 3));
    check_both_popularities(&p, flows, 23, "miss chain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random single-table pipelines under uniform traffic: every model
    /// identical to the oracle, including on flows that miss every row.
    #[test]
    fn random_tables_identical_uniform(
        seed in 0u64..1000,
        fields in 2usize..4,
        rows in 4usize..12,
        nflows in 8usize..40,
    ) {
        let spec = RandomSpec { fields, rows, domain: 6, planted: vec![] };
        let rt = random_table(&spec, seed);
        let trace = random_trace(&rt, &spec, Popularity::Weighted, nflows, 2_000, seed);
        models_match_oracle(&rt.pipeline, &trace, "random uniform");
    }

    /// Same, under Zipf-skewed traffic — the regime where the megaflow
    /// caches serve almost everything from installed entries.
    #[test]
    fn random_tables_identical_zipf(
        seed in 1000u64..2000,
        fields in 2usize..4,
        rows in 4usize..12,
        nflows in 8usize..40,
    ) {
        let spec = RandomSpec { fields, rows, domain: 6, planted: vec![] };
        let rt = random_table(&spec, seed);
        let trace = random_trace(&rt, &spec, Popularity::Zipf(1.2), nflows, 2_000, seed);
        models_match_oracle(&rt.pipeline, &trace, "random zipf");
    }

    /// Walk-derived megaflow masks against the oracle, on the random zoo
    /// and on Enterprise (NAT rewrites `ip_dst`/`tcp_dst`, L3 re-matches).
    #[test]
    fn megaflow_masks_are_sound(seed in 0u64..100_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for k in 0..4 {
            let p = mask_zoo(&mut rng);
            let packets = row_biased_packets(&p, 48, &mut rng);
            assert_masks_sound(&p, &packets, &mut rng, &format!("zoo seed {seed}/{k}"));
        }
        let e = Enterprise::random(12, 4, seed);
        let mut packets = row_biased_packets(&e.pipeline, 32, &mut rng);
        packets.extend(e.services.iter().map(|&(pub_ip, pub_port, _, _)| {
            let mut pkt = Packet::zero(&e.pipeline.catalog);
            pkt.set(e.ip_src, rng.gen::<u32>() as u64);
            pkt.set(e.ip_dst, pub_ip as u64);
            pkt.set(e.tcp_dst, pub_port as u64);
            pkt
        }));
        assert_masks_sound(&e.pipeline, &packets, &mut rng, &format!("enterprise seed {seed}"));
    }
}
