//! E11 — the §5 ESwitch mechanism: per-table template specialization.

use mapro::prelude::*;
use mapro::switch::cls::{table_shape, TableShape, TableView};
use mapro_bench::{eswitch_templates, BenchConfig};

#[test]
fn universal_table_only_fits_the_wildcard_template() {
    // "The universal table can be encoded only with the slowest wildcard
    // matching template."
    let g = Gwlb::random(20, 8, 2019);
    let t = g.universal.table("t0").unwrap();
    let view = TableView::of(t, &g.universal.catalog);
    assert_eq!(table_shape(&view), TableShape::General);
}

#[test]
fn decomposed_stages_fit_exact_and_lpm_templates() {
    // "the first table will be compiled to the very fast exact-match
    // template and the second table to an efficient longest-prefix-
    // matching template".
    let g = Gwlb::random(20, 8, 2019);
    let goto = g.normalized(JoinKind::Goto).unwrap();
    let t0 = TableView::of(goto.table("t0").unwrap(), &goto.catalog);
    assert!(matches!(table_shape(&t0), TableShape::AllExact { .. }));
    for sub in &goto.tables[1..] {
        let v = TableView::of(sub, &goto.catalog);
        assert!(
            matches!(table_shape(&v), TableShape::SinglePrefix { .. }),
            "table {}",
            sub.name
        );
    }
}

#[test]
fn template_report_covers_all_representations() {
    let rows = eswitch_templates(&BenchConfig::default());
    assert_eq!(rows.len(), 4);
    let uni = rows.iter().find(|r| r.repr == "universal").unwrap();
    assert!(uni.templates.iter().all(|t| t.ends_with(":linear")));
    let goto = rows.iter().find(|r| r.repr == "goto").unwrap();
    assert_eq!(goto.templates.len(), 21); // T0 + 20 per-tenant tables
                                          // Metadata join: the second stage matches (tag, ip_src) — two active
                                          // columns with prefixes — so it stays on the generic template. The
                                          // join abstraction matters to the datapath, not just normalization.
    let meta = rows.iter().find(|r| r.repr == "metadata").unwrap();
    assert!(meta.templates.iter().any(|t| t.ends_with(":exact")));
    assert!(meta.templates.iter().any(|t| t.ends_with(":linear")));
}

#[test]
fn specialized_templates_agree_with_reference_semantics() {
    use mapro::switch::cls::{build_specialized, TemplateKind};
    let g = Gwlb::random(10, 4, 5);
    let goto = g.normalized(JoinKind::Goto).unwrap();
    let trace = mapro::packet::generate(&g.universal.catalog, &g.trace_spec(), 1_000, 6);
    for table in &goto.tables {
        let view = TableView::of(table, &goto.catalog);
        let spec = build_specialized(&view, TemplateKind::Linear);
        for (_, pkt) in &trace.packets {
            let key: Vec<u64> = table.match_attrs.iter().map(|&a| pkt.get(a)).collect();
            assert_eq!(
                spec.lookup(&key),
                view.linear_lookup(&key),
                "table {} key {key:?}",
                table.name
            );
        }
    }
}
