//! E2 — Fig. 2: the L3 pipeline's normalization chain.

use mapro::prelude::*;

#[test]
fn fig2a_violates_2nf_via_dmac_dependency() {
    let l3 = L3::fig2();
    let t = l3.universal.table("l3").unwrap();
    let r = analyze(t, &l3.universal.catalog);
    // mod_dmac → mod_smac and mod_dmac → out hold (next-hop actions are a
    // function of the next-hop), and dst is the only match-side key.
    let u = &r.fds.universe;
    assert!(r.fds.implies(mapro::fd::Fd::new(
        u.encode(&[l3.mod_dmac]),
        u.encode(&[l3.mod_smac, l3.out])
    )));
    assert!(pipeline_level(&l3.universal) < NfLevel::Third);
}

#[test]
fn fig2b_decomposition_reproduces_group_tables() {
    let l3 = L3::fig2();
    // Decompose along mod_dmac → (mod_ttl, mod_smac, out): the second
    // stage is the OpenFlow group-table / neighbor-table abstraction (§3).
    let fd = Split::Fd {
        x: vec![l3.mod_dmac],
        y: vec![l3.mod_ttl, l3.mod_smac, l3.out],
        join: JoinKind::Metadata,
    };
    let p = split(&l3.universal, "l3", &fd, &SplitOpts::default()).unwrap();
    assert_eq!(p.tables.len(), 2);
    // Three distinct next-hops → three group entries.
    assert_eq!(p.tables[1].len(), 3);
    assert_eq!(p.tables[1].action_attrs.len(), 4);
    assert_equivalent(&l3.universal, &p);
}

/// Fig. 2c's Cartesian factor of the constant columns `only`.
fn constants(l3: &L3, only: &[AttrId], placement: FactorPlacement) -> Pipeline {
    let how = Split::Constant {
        only: Some(only.to_vec()),
        placement,
    };
    split(&l3.universal, "l3", &how, &SplitOpts::default()).unwrap()
}

#[test]
fn fig2c_full_3nf_chain() {
    let l3 = L3::fig2();
    let factored = constants(&l3, &[l3.eth_type, l3.mod_ttl], FactorPlacement::Before);
    let n = normalize(&factored, &NormalizeOpts::default());
    assert!(n.complete(), "skipped: {:?}", n.skipped);
    assert!(pipeline_level(&n.pipeline) >= NfLevel::Third);
    assert_equivalent(&l3.universal, &n.pipeline);
    // The chain has at least the Cartesian stage plus two join stages.
    assert!(n.pipeline.tables.len() >= 3, "{}", n.pipeline.tables.len());
}

#[test]
fn cartesian_product_commutes() {
    // §3: "we could as well append T0 at the end of the pipeline or
    // anywhere in between". Constant actions may trail; constant matches
    // must lead (and the library enforces that soundness condition).
    let l3 = L3::fig2();
    let leading = constants(&l3, &[l3.eth_type, l3.mod_ttl], FactorPlacement::Before);
    let trailing = constants(&l3, &[l3.mod_ttl], FactorPlacement::After);
    assert_equivalent(&l3.universal, &leading);
    assert_equivalent(&l3.universal, &trailing);
    assert_equivalent(&leading, &trailing);
}

#[test]
fn normalization_shrinks_l3_encoding() {
    // With shared next-hops the normalized form states each next-hop's
    // actions once.
    let l3 = L3::random(48, 6, 3, 99);
    let n = normalize(&l3.universal, &NormalizeOpts::default());
    assert!(n.complete());
    let before = SizeReport::of(&l3.universal).fields();
    let after = SizeReport::of(&n.pipeline).fields();
    assert!(
        after < before,
        "normalization should deduplicate: {after} !< {before}"
    );
    assert_equivalent(&l3.universal, &n.pipeline);
}

#[test]
fn denormalize_roundtrip_restores_semantics() {
    let l3 = L3::fig2();
    let n = normalize(&l3.universal, &NormalizeOpts::default());
    let flat = flatten(&n.pipeline, "flat").unwrap();
    let flat_pipe = Pipeline::single(n.pipeline.catalog.clone(), flat);
    assert_equivalent(&l3.universal, &flat_pipe);
}
