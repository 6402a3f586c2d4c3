//! Program serialization round-trips (the `mapro` CLI's JSON format) and
//! export formats.

use mapro::core::export;
use mapro::prelude::*;

fn roundtrip(p: &Pipeline) {
    let json = serde_json::to_string(p).expect("serializes");
    let back: Pipeline = serde_json::from_str(&json).expect("parses");
    assert_eq!(*p, back);
    // And semantics survive, of course.
    assert_equivalent(p, &back);
}

#[test]
fn every_workload_roundtrips() {
    roundtrip(&Gwlb::fig1().universal);
    roundtrip(&Gwlb::random(5, 4, 1).universal);
    roundtrip(&L3::fig2().universal);
    roundtrip(&Vlan::fig3().universal);
    roundtrip(&Sdx::fig5().universal);
}

/// The `.mat` text format: `parse ∘ format` is the identity on every
/// workload — including Fig. 3, whose output ports `1`, `2`, `3` are
/// numeric-looking symbols.
#[test]
fn every_workload_roundtrips_via_text() {
    for p in [
        Gwlb::fig1().universal,
        Gwlb::fig1().normalized(JoinKind::Goto).unwrap(),
        L3::fig2().universal,
        Vlan::fig3().universal,
        Sdx::fig5().universal,
    ] {
        let text = mapro::core::format_program(&p);
        let back = mapro::core::parse_program(&text).expect("re-parses");
        assert_eq!(p, back, "{text}");
        assert_equivalent(&p, &back);
    }
}

#[test]
fn transformed_pipelines_roundtrip() {
    let g = Gwlb::fig1();
    for join in [JoinKind::Goto, JoinKind::Metadata, JoinKind::Rematch] {
        roundtrip(&g.normalized(join).unwrap());
    }
    let l3 = L3::fig2();
    let n = normalize(&l3.universal, &NormalizeOpts::default());
    roundtrip(&n.pipeline);
}

#[test]
fn value_kinds_all_roundtrip() {
    use mapro::core::Value;
    for v in [
        Value::Int(42),
        Value::prefix(0x8000_0000, 1, 32),
        Value::Ternary { bits: 5, mask: 7 },
        Value::Any,
        Value::sym("vm1"),
    ] {
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}

#[test]
fn openflow_export_of_gwlb_representations() {
    let g = Gwlb::fig1();
    let uni = export::to_openflow(&g.universal);
    // 6 entries + 1 miss row.
    assert_eq!(uni.lines().filter(|l| l.starts_with("table=")).count(), 7);
    let goto = g.normalized(JoinKind::Goto).unwrap();
    let s = export::to_openflow(&goto);
    // 4 tables, each with a miss row; goto actions reference table indices.
    assert_eq!(s.matches("priority=0").count(), 4);
    assert!(s.contains("goto_table:1"));
    assert!(s.contains("goto_table:3"));
}

#[test]
fn p4_export_lists_every_table_and_action() {
    let g = Gwlb::fig1();
    let meta = g.normalized(JoinKind::Metadata).unwrap();
    let s = export::to_p4(&meta);
    for t in &meta.tables {
        assert!(s.contains(&format!("table {} {{", t.name.replace('-', "_"))));
    }
    assert!(s.contains("action out(PortId_t port)"));
    assert!(s.contains("action A_t0(bit<32> v)"));
    // The apply block chains both stages.
    assert!(s.contains("t0.apply();"));
    assert!(s.contains("t0_r.apply();"));
}
