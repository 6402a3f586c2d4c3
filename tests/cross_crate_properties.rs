//! Cross-crate property tests: the full stack holds together on random
//! inputs — random workloads normalize equivalently, every switch model
//! agrees with the abstract interpreter, classifiers agree with the
//! reference semantics, and flatten∘normalize is the identity up to
//! equivalence.

use mapro::prelude::*;
use mapro::switch::ProcessOut;
use mapro_workloads::{random_table, RandomSpec};
use proptest::prelude::*;

fn arb_gwlb() -> impl Strategy<Value = Gwlb> {
    (2usize..6, 0u32..3, 0u64..500).prop_map(|(n, mexp, seed)| Gwlb::random(n, 1 << mexp, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_join_is_equivalent_on_random_gwlb(g in arb_gwlb()) {
        for join in [JoinKind::Goto, JoinKind::Metadata, JoinKind::Rematch] {
            let p = g.normalized(join).unwrap();
            assert_equivalent(&g.universal, &p);
        }
    }

    #[test]
    fn switch_models_agree_with_interpreter(g in arb_gwlb(), seed in 0u64..100) {
        let goto = g.normalized(JoinKind::Goto).unwrap();
        let trace = mapro::packet::generate(&g.universal.catalog, &g.trace_spec(), 200, seed);
        for repr in [&g.universal, &goto] {
            let idx = repr.name_index();
            let mut eswitch = SwitchModel::eswitch(repr).unwrap();
            let mut lagopus = SwitchModel::lagopus(repr).unwrap();
            let mut noviflow = SwitchModel::noviflow(repr).unwrap();
            let mut ovs = OvsSim::compile(repr).expect("compiles");
            for (_, pkt) in &trace.packets {
                let want = repr.run_indexed(pkt, &idx).unwrap();
                let check = |got: ProcessOut, name: &str| {
                    prop_assert_eq!(got.output.as_deref(), want.output.as_deref(), "{}", name);
                    prop_assert_eq!(got.dropped, want.dropped, "{}", name);
                    Ok(())
                };
                check(eswitch.process(pkt), "eswitch")?;
                check(lagopus.process(pkt), "lagopus")?;
                check(noviflow.process(pkt), "noviflow")?;
                check(ovs.process(pkt), "ovs")?;
            }
        }
    }

    #[test]
    fn flatten_inverts_normalize(seed in 0u64..300, fields in 3usize..5, rows in 5usize..20) {
        let spec = RandomSpec {
            fields,
            rows,
            domain: 4,
            planted: vec![(0, 1)],
        };
        let rt = random_table(&spec, seed);
        let n = normalize(&rt.pipeline, &NormalizeOpts::default());
        assert_equivalent(&rt.pipeline, &n.pipeline);
        let flat = flatten(&n.pipeline, "flat").unwrap();
        let flat_pipe = Pipeline::single(n.pipeline.catalog.clone(), flat);
        assert_equivalent(&rt.pipeline, &flat_pipe);
    }

    #[test]
    fn normalized_pipelines_reach_third_normal_form(seed in 0u64..300) {
        let spec = RandomSpec {
            fields: 4,
            rows: 24,
            domain: 4,
            planted: vec![(0, 1), (1, 2)],
        };
        let rt = random_table(&spec, seed);
        let n = normalize(&rt.pipeline, &NormalizeOpts::default());
        if n.complete() {
            prop_assert!(pipeline_level(&n.pipeline) >= NfLevel::Third);
        }
        assert_equivalent(&rt.pipeline, &n.pipeline);
    }

    #[test]
    fn ovs_cache_never_changes_verdicts(g in arb_gwlb(), seed in 0u64..50) {
        // Replay the trace twice: cold then warm. Verdicts must match.
        let trace = mapro::packet::generate(&g.universal.catalog, &g.trace_spec(), 150, seed);
        let mut sim = OvsSim::compile(&g.universal).expect("compiles");
        let cold: Vec<_> = trace.packets.iter()
            .map(|(_, p)| sim.process(p).output).collect();
        let warm: Vec<_> = trace.packets.iter()
            .map(|(_, p)| sim.process(p).output).collect();
        prop_assert_eq!(cold, warm);
    }
}

#[test]
fn intent_application_preserves_equivalence_between_representations() {
    // Apply a whole batch of intents to both representations and check
    // they stay in lockstep — the "more reactive data plane" (§2) without
    // semantic drift.
    let g = Gwlb::random(6, 4, 11);
    let goto0 = g.normalized(JoinKind::Goto).unwrap();
    let mut uni = g.universal.clone();
    let mut goto = goto0.clone();
    for (i, port) in [(0usize, 1111u16), (2, 2222), (4, 3333), (0, 4444)] {
        let plan = g.move_service_port(&uni, i, port);
        mapro::core::apply_plan(&mut uni, &plan).unwrap();
        let plan = g.move_service_port(&goto, i, port);
        mapro::core::apply_plan(&mut goto, &plan).unwrap();
    }
    assert_equivalent(&uni, &goto);
}

#[test]
fn normalization_of_gwlb_is_dependency_preserving() {
    // 3NF synthesis is dependency-preserving in relational theory; check
    // the property end-to-end on our decomposition: project the declared
    // dependencies onto the produced stages' attribute sets and verify the
    // union still implies everything. (The metadata tag columns carry the
    // determinant's identity, so we check over the program-view columns.)
    let g = Gwlb::random(6, 4, 5);
    let n = normalize(&g.universal, &NormalizeOpts::default());
    assert!(n.complete());
    // Mined dependencies of the source table.
    let src = g.universal.table("t0").unwrap();
    let mined = mine_fds(src, &g.universal.catalog);
    // Stage attribute sets, with the metadata tag mapped back to its
    // determinant: the tag is a bijection of the X-class, so for
    // preservation purposes a stage matching the tag "knows" X. Our
    // decomposition records X in the first stage; substitute accordingly.
    let stages: Vec<Vec<mapro::core::AttrId>> = n
        .pipeline
        .tables
        .iter()
        .map(|t| {
            t.attrs()
                .into_iter()
                .flat_map(|a| match n.pipeline.catalog.name(a) {
                    // Tag columns stand for the decomposition key ip_dst.
                    name if name.starts_with("M_") || name.starts_with("A_") => {
                        vec![g.ip_dst]
                    }
                    _ => vec![a],
                })
                .filter(|a| a.index() < g.universal.catalog.len())
                .collect()
        })
        .collect();
    assert!(
        mined.fds.preserved_by(&stages),
        "3NF normalization should preserve the mined dependencies"
    );
}
