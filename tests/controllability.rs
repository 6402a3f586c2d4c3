//! E7 — §2 controllability and update-consistency claims.

use mapro::control::exposure;
use mapro::core::apply_plan;
use mapro::prelude::*;
use mapro_bench::{controllability, BenchConfig};

#[test]
fn paper_narrative_on_fig1() {
    let g = Gwlb::fig1();
    let goto = g.normalized(JoinKind::Goto).unwrap();
    // "the controller needs to update both of the two entries that relate
    // to tenant 1 in the universal table … whereas in the normal form
    // modifying only one entry is enough".
    assert_eq!(
        g.move_service_port(&g.universal, 0, 443).touched_entries(),
        2
    );
    assert_eq!(g.move_service_port(&goto, 0, 443).touched_entries(), 1);
    // "changing the public IP address would require two updates in the
    // universal table".
    assert_eq!(
        g.change_public_ip(&g.universal, 0, 0x0101_0101)
            .touched_entries(),
        2
    );
    assert_eq!(
        g.change_public_ip(&goto, 0, 0x0101_0101).touched_entries(),
        1
    );
}

#[test]
fn benchmark_workload_8x_amplification() {
    let rows = controllability(&BenchConfig::default());
    let uni = rows.iter().find(|r| r.repr == "universal").unwrap();
    let goto = rows.iter().find(|r| r.repr == "goto").unwrap();
    assert_eq!(uni.move_port_updates, 8);
    assert_eq!(goto.move_port_updates, 1);
    assert_eq!(uni.exposed_states, 7);
    assert_eq!(goto.exposed_states, 0);
}

#[test]
fn rematch_join_pays_for_ip_renumbering() {
    // A finding beyond the paper's table: the rematch join re-encodes
    // ip_dst in the second stage, so renumbering touches M+1 entries —
    // controllability depends on the join abstraction, not just on
    // normalization.
    let rows = controllability(&BenchConfig::default());
    let rematch = rows.iter().find(|r| r.repr == "rematch").unwrap();
    let goto = rows.iter().find(|r| r.repr == "goto").unwrap();
    assert_eq!(rematch.change_ip_updates, 9); // M + 1
    assert_eq!(goto.change_ip_updates, 1);
}

#[test]
fn applied_plans_converge_across_representations() {
    let g = Gwlb::fig1();
    for join in [JoinKind::Goto, JoinKind::Metadata, JoinKind::Rematch] {
        let base = g.normalized(join).unwrap();
        let mut uni = g.universal.clone();
        let mut norm = base.clone();
        apply_plan(&mut uni, &g.move_service_port(&g.universal, 1, 8443)).unwrap();
        apply_plan(&mut norm, &g.move_service_port(&base, 1, 8443)).unwrap();
        assert_equivalent(&uni, &norm);
    }
}

#[test]
fn halfway_exposed_service_reproduced() {
    // §2: "the service may remain halfway-exposed on the new and the old
    // IP addresses".
    let g = Gwlb::fig1();
    let plan = g.move_service_port(&g.universal, 1, 8443); // tenant 2: 3 entries
    let inv = g.one_port_per_ip();
    let rep = exposure(&g.universal, &plan, &&inv).unwrap();
    assert_eq!(rep.intermediate_states, 2);
    assert_eq!(rep.violations.len(), 2); // every intermediate state is bad
                                         // The normalized form is constitutionally safe.
    let goto = g.normalized(JoinKind::Goto).unwrap();
    let plan = g.move_service_port(&goto, 1, 8443);
    let rep = exposure(&goto, &plan, &&inv).unwrap();
    assert!(rep.safe());
}

#[test]
fn lost_update_leaves_universal_inconsistent_but_normalized_atomic() {
    use mapro::core::apply_prefix;
    let g = Gwlb::fig1();
    let plan = g.move_service_port(&g.universal, 0, 443);
    // Drop the tail of the plan: the data plane now answers on both ports.
    let partial = apply_prefix(&g.universal, &plan, 1).unwrap();
    let inv = g.one_port_per_ip();
    assert!(inv(&partial).is_err());
    // Full application restores the invariant.
    let full = apply_prefix(&g.universal, &plan, plan.touched_entries()).unwrap();
    assert!(inv(&full).is_ok());
}
