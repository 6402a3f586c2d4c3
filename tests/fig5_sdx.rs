//! E10 — Fig. 5 / appendix: decomposition beyond 3NF.

use mapro::fd::{join_dependency_holds, mine_fds, Fd};
use mapro::normalize::{chain_components_naive, SplitError};
use mapro::prelude::*;

#[test]
fn sdx_split_is_a_join_dependency() {
    let s = Sdx::fig5();
    let t = s.universal.table("sdx").unwrap();
    assert!(join_dependency_holds(t, &s.components));
}

#[test]
fn split_is_not_fd_derivable() {
    // "This decomposition belongs to the fourth and the fifth normal forms
    // as it cannot be derived from functional dependencies alone."
    let s = Sdx::fig5();
    let t = s.universal.table("sdx").unwrap();
    let mined = mine_fds(t, &s.universal.catalog);
    let u = &mined.fds.universe;
    // Nothing smaller than the full match key determines fwd.
    assert!(!mined
        .fds
        .implies(Fd::new(u.encode(&[s.member]), u.encode(&[s.fwd]))));
    assert!(!mined
        .fds
        .implies(Fd::new(u.encode(&[s.ip_src]), u.encode(&[s.fwd]))));
    // (member, ip_src) → fwd *does* hold — that's the inbound table — but
    // member itself is an action, so the decomposition needs the Fig. 5c
    // metadata machinery rather than a Theorem-1-style split.
    assert!(mined
        .fds
        .implies(Fd::new(u.encode(&[s.member, s.ip_src]), u.encode(&[s.fwd]))));
}

#[test]
fn naive_chain_order_dependent_and_misroutes() {
    let s = Sdx::fig5();
    let naive = chain_components_naive(&s.universal, "sdx", &s.components).unwrap();
    let last = naive.tables.last().unwrap();
    assert!(!last.order_independence(&naive.catalog).is_empty());
    let r = check_equivalent(&s.universal, &naive, &EquivConfig::default()).unwrap();
    match r {
        EquivOutcome::Counterexample(cx) => {
            // Both pipelines deliver *something*; they just disagree.
            assert_ne!(cx.left.observable(), cx.right.observable());
        }
        _ => panic!("naive chain must be incorrect"),
    }
}

fn jd(s: &Sdx, components: &[Vec<mapro::core::AttrId>]) -> Result<Pipeline, SplitError> {
    let how = Split::Jd(components.to_vec());
    split(&s.universal, "sdx", &how, &SplitOpts::default())
}

#[test]
fn all_metadata_pipeline_correct_and_deferred_actions_fire_late() {
    let s = Sdx::fig5();
    let tagged = jd(&s, &s.components).unwrap();
    assert_eq!(tagged.tables.len(), 3);
    assert_equivalent(&s.universal, &tagged);
    // `member` is not determined by the announcement stage alone (dst = P1
    // admits both C and D), so it must fire at a later stage.
    let stage1 = &tagged.tables[0];
    assert!(
        !stage1.action_attrs.contains(&s.member),
        "member must be deferred past the announcement stage"
    );
}

#[test]
fn tagged_pipeline_balances_both_members() {
    let s = Sdx::fig5();
    let tagged = jd(&s, &s.components).unwrap();
    let p1 = mapro::packet::ipv4("203.0.113.0") as u64;
    let p2 = mapro::packet::ipv4("198.51.100.0") as u64;
    let cases = [
        (p1, 80u64, 0u64, "c1"),
        (p1, 80, 1 << 31, "c2"),
        (p1, 22, 0, "d1"),
        (p1, 22, 1 << 31, "d2"),
        (p2, 80, 0, "d1"),
        (p2, 22, 1 << 31, "d2"),
    ];
    for (dst, port, src, want) in cases {
        let pkt = Packet::from_fields(
            &tagged.catalog,
            &[("ip_dst", dst), ("tcp_dst", port), ("ip_src", src)],
        );
        let v = tagged.run(&pkt).unwrap();
        assert_eq!(
            v.output.as_deref(),
            Some(want),
            "{dst}:{port} from {src:#x}"
        );
    }
}

#[test]
fn lossy_splits_are_refused() {
    let s = Sdx::fig5();
    let bad = vec![vec![s.ip_dst, s.member], vec![s.tcp_dst, s.ip_src, s.fwd]];
    assert_eq!(jd(&s, &bad), Err(SplitError::JoinDependencyDoesNotHold));
}
