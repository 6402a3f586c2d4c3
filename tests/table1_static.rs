//! E5 — Table 1: static-performance shapes.
//!
//! Paper claims (who wins / by what factor): OVS and Lagopus are agnostic
//! to normalization; ESwitch gains >50% throughput and roughly halves
//! latency on the goto form; NoviFlow forwards at line rate regardless,
//! with a small latency penalty for the deeper pipeline.

use mapro_bench::{table1, BenchConfig, Table1Row};

fn rows() -> Vec<Table1Row> {
    table1(&BenchConfig {
        packets: 4_000,
        ..Default::default()
    })
}

fn get(rows: &[Table1Row], switch: &str, repr: &str) -> Table1Row {
    rows.iter()
        .find(|r| r.switch == switch && r.repr == repr)
        .unwrap_or_else(|| panic!("{switch}/{repr} missing"))
        .clone()
}

#[test]
fn eswitch_gains_more_than_50_percent() {
    let rows = rows();
    let uni = get(&rows, "ESwitch", "universal");
    let goto = get(&rows, "ESwitch", "goto");
    let gain = goto.rate_mpps / uni.rate_mpps;
    assert!(
        (1.4..1.9).contains(&gain),
        "ESwitch gain ×{gain:.2}, paper ×1.56"
    );
    // Latency roughly halves (paper: 426 → 247 µs).
    let lat = uni.q3_latency_us / goto.q3_latency_us;
    assert!((1.4..2.0).contains(&lat), "latency factor {lat:.2}");
}

#[test]
fn eswitch_mechanism_is_template_specialization() {
    let rows = rows();
    let uni = get(&rows, "ESwitch", "universal");
    let goto = get(&rows, "ESwitch", "goto");
    assert!(uni.templates.iter().all(|t| t.ends_with(":linear")));
    assert!(goto.templates.iter().any(|t| t.ends_with(":exact")));
    assert!(goto.templates.iter().any(|t| t.ends_with(":lpm")));
}

#[test]
fn ovs_is_agnostic() {
    let rows = rows();
    let uni = get(&rows, "OVS", "universal");
    let goto = get(&rows, "OVS", "goto");
    let ratio = goto.rate_mpps / uni.rate_mpps;
    assert!((0.95..1.05).contains(&ratio), "OVS ratio {ratio:.3}");
}

#[test]
fn lagopus_is_agnostic() {
    let rows = rows();
    let uni = get(&rows, "Lagopus", "universal");
    let goto = get(&rows, "Lagopus", "goto");
    let ratio = goto.rate_mpps / uni.rate_mpps;
    assert!((0.9..1.1).contains(&ratio), "Lagopus ratio {ratio:.3}");
}

#[test]
fn noviflow_line_rate_with_latency_penalty() {
    let rows = rows();
    let uni = get(&rows, "NoviFlow", "universal");
    let goto = get(&rows, "NoviFlow", "goto");
    assert!((uni.rate_mpps - goto.rate_mpps).abs() < 0.01);
    assert!(goto.q3_latency_us > uni.q3_latency_us);
    let penalty = goto.q3_latency_us / uni.q3_latency_us;
    assert!((1.2..1.4).contains(&penalty), "penalty {penalty:.2}");
}

#[test]
fn switch_ordering_matches_paper() {
    // NoviFlow > ESwitch > OVS > Lagopus on the universal table.
    let rows = rows();
    let novi = get(&rows, "NoviFlow", "universal").rate_mpps;
    let esw = get(&rows, "ESwitch", "universal").rate_mpps;
    let ovs = get(&rows, "OVS", "universal").rate_mpps;
    let lag = get(&rows, "Lagopus", "universal").rate_mpps;
    assert!(
        novi > esw && esw > ovs && ovs > lag,
        "{novi} {esw} {ovs} {lag}"
    );
}

#[test]
fn all_switches_forward_correctly() {
    // The measured runs never drop benchmark traffic (every flow hits).
    use mapro::prelude::*;
    use mapro::switch::run_modeled;
    let g = Gwlb::random(20, 8, 2019);
    let goto = g.normalized(JoinKind::Goto).unwrap();
    let trace = mapro::packet::generate(&g.universal.catalog, &g.trace_spec(), 2_000, 5);
    for repr in [&g.universal, &goto] {
        let mut s1 = SwitchModel::eswitch(repr).unwrap();
        let mut s2 = SwitchModel::lagopus(repr).unwrap();
        let mut s3 = SwitchModel::noviflow(repr).unwrap();
        let mut s4 = OvsSim::compile(repr).expect("compiles");
        for sim in [&mut s1 as &mut dyn Switch, &mut s2, &mut s3, &mut s4] {
            let r = run_modeled(sim, &trace);
            assert_eq!(r.dropped, 0, "{}", sim.name());
        }
    }
}

#[test]
fn join_choice_decides_the_win_on_specializing_datapaths() {
    // E5b: only the goto join specializes fully; the metadata and rematch
    // joins keep a multi-field wildcard stage and end up *slower than the
    // universal table* on the ESwitch model.
    let rows = mapro_bench::table1_joins(&BenchConfig {
        packets: 4_000,
        ..Default::default()
    });
    let by = |name: &str| {
        rows.iter()
            .find(|r| r.repr == name)
            .unwrap_or_else(|| panic!("{name}"))
            .clone()
    };
    let uni = by("universal");
    let goto = by("goto");
    let meta = by("metadata");
    let rem = by("rematch");
    assert!(goto.eswitch_mpps > 1.4 * uni.eswitch_mpps);
    assert!(meta.eswitch_mpps < uni.eswitch_mpps);
    assert!(rem.eswitch_mpps < uni.eswitch_mpps);
    // And the mechanism: their second stage stayed on the wildcard template.
    assert!(meta.templates.iter().any(|t| t.ends_with(":linear")));
    assert!(rem.templates.iter().any(|t| t.ends_with(":linear")));
    assert!(goto.templates.iter().all(|t| !t.ends_with(":linear")));
}
